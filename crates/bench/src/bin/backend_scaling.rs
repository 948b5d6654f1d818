//! Criterion-free micro-benchmark of the pluggable simulation backends
//! and of the compile-once shot replay: prints shots/sec on a Clifford
//! GHZ workload (the paper's §5.3 shape: GHZ chain + depolarizing noise
//! + full measurement) for
//!
//! * the **interpreted** statevector path (per-shot re-interpretation,
//!   `Executor::sample_shots_interpreted`),
//! * the **compiled** statevector path (fused kernels compiled once and
//!   replayed, `Executor::sample_shots` — the production default),
//! * `Backend::Stabilizer`, and `Backend::Auto`,
//!
//! and asserts that
//!
//! * every path tallies the *same records* for one root seed (compiled
//!   kernels keep the RNG stream in interpreted order; the stabilizer
//!   backend consumes the statevector's per-instruction pattern),
//! * `Auto` routes the Clifford circuit to the stabilizer path,
//! * the stabilizer path is more than 2× the interpreted statevector
//!   rate (its sign-only replay read 71–130× in ten `--quick` runs on a
//!   2-core host).
//!
//! The compiled/interpreted statevector ratio is printed and emitted
//! but not gated: nothing fuses on this workload, so the two paths do
//! the same work (0.95–1.40× in the same ten runs); performance claims
//! about the compiled path are made with `benchmark/`.
//!
//! A second section sweeps state width on a non-Clifford ZZ workload
//! (rx mixer layers + cx/rz/cx ZZ chains — the shape the two-qubit
//! fuser collapses into single 4×4 passes) and times each width both
//! **sequentially** and **amplitude-parallel** (`sweep-{n}q-seq` /
//! `sweep-{n}q-amp` rows, with `qubits`, `bytes_per_amp_pass`,
//! `kernels_fused`, `kernels_unfused`, `host_cores`, `amp_threads`,
//! and `amp_speedup` extras). In-bin asserts: amp tallies are
//! bit-identical to sequential at every width, fusion strictly reduces
//! the kernel count, and — only on hosts with ≥ 4 cores running ≥ 4
//! amp workers — the 20+-qubit amp rows are ≥ 1.5× faster (re-checked
//! from the JSON by the CI perf guard).
//!
//! Results are emitted as a table + CSV and as machine-readable JSON
//! under `results/bench/backend_scaling.json` (schema: README §"Circuit
//! compilation & perf tracking").
//!
//! Run with: `cargo run --release --bin backend_scaling [--quick]`
//!
//! Shots run under `Executor::Sequential` deliberately: the bin
//! compares *representations and programs* at a fixed execution mode,
//! so the rate ratio is a clean per-backend number on any machine
//! (thread-count scaling is `engine_scaling`'s job; the amp sweep
//! isolates *within-shot* parallelism by pinning the shot workers
//! to 1).

use analysis::table_io::ResultTable;
use bench::{BenchReport, Scale};
use circuit::circuit::Circuit;
use circuit::noise::NoiseModel;
use engine::{Backend, Counts, Engine, EngineConfig, Executor};
use qsim::prelude::{compile, compile_with, CompileOptions};
use qsim::statevector::StateVector;
use std::time::Instant;

/// The noisy GHZ workload: prepare an `r`-qubit GHZ chain under
/// standard depolarizing noise and measure every qubit.
fn ghz_workload(r: usize, p: f64) -> Circuit {
    let mut prep = Circuit::new(r, r);
    prep.h(0);
    for q in 1..r {
        prep.cx(q - 1, q);
    }
    let mut noisy = NoiseModel::standard(p).apply(&prep);
    for q in 0..r {
        noisy.measure(q, q);
    }
    noisy
}

/// The amp-sweep workload: `layers` rounds of an rx mixer layer
/// followed by a cx/rz/cx ZZ chain (each three-gate block fuses into
/// one 4×4 kernel), then full measurement. Non-Clifford, so it always
/// runs on the statevector.
fn zz_sweep_workload(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n, n);
    for layer in 0..layers {
        for q in 0..n {
            c.rx(q, 0.3 + 0.05 * (q + layer) as f64);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.rz(q + 1, 0.4 + 0.03 * q as f64);
            c.cx(q, q + 1);
        }
    }
    for q in 0..n {
        c.measure(q, q);
    }
    c
}

fn time_run(f: impl FnOnce() -> Counts) -> (f64, Counts) {
    let t0 = Instant::now();
    let counts = f();
    (t0.elapsed().as_secs_f64(), counts)
}

fn main() {
    let scale = Scale::from_env();
    let shots = scale.pick(100_000, 10_000);
    let (r, p) = (12usize, 0.002);
    let circuit = ghz_workload(r, p);
    let exec = Executor::sequential(bench::ROOT_SEED);
    let initial = StateVector::new(r);

    // Auto must pick the stabilizer fast path on a Clifford circuit.
    assert_eq!(
        Backend::Auto.resolve(&circuit),
        Backend::Stabilizer,
        "Auto failed to route the Clifford GHZ workload to the stabilizer"
    );

    let mut t = ResultTable::new(
        "Backend scaling on the GHZ workload (r = 12, p = 2e-3)",
        &[
            "path",
            "resolved",
            "shots",
            "secs",
            "shots_per_sec",
            "vs_interpreted",
        ],
    );
    let mut report = BenchReport::new(
        "backend_scaling",
        format!("ghz-{r} depolarizing p={p}"),
        scale == Scale::Quick,
    );

    let (interp_secs, interp_counts) =
        time_run(|| exec.sample_shots_interpreted(&circuit, &initial, shots));
    let interp_rate = shots as f64 / interp_secs;

    // (label, selected backend, secs, counts) per timed path.
    let mut rows = vec![(
        "statevector-interpreted",
        Backend::StateVector,
        interp_secs,
        interp_counts.clone(),
    )];
    let (compiled_secs, compiled_counts) =
        time_run(|| exec.sample_shots(&circuit, &initial, shots));
    rows.push((
        "statevector-compiled",
        Backend::StateVector,
        compiled_secs,
        compiled_counts,
    ));
    for backend in [Backend::Stabilizer, Backend::Auto] {
        let (secs, counts) = time_run(|| backend.sample_shots(&circuit, shots, &exec).unwrap());
        let label = if backend == Backend::Auto {
            "auto"
        } else {
            "stabilizer"
        };
        rows.push((label, backend, secs, counts));
    }

    let mut rate_of = std::collections::HashMap::new();
    for (label, backend, secs, counts) in &rows {
        assert_eq!(counts.values().sum::<usize>(), shots, "{label}");
        assert_eq!(
            counts, &interp_counts,
            "{label}: records diverged from the interpreted statevector reference"
        );
        let rate = shots as f64 / secs;
        rate_of.insert(*label, rate);
        t.push_row(vec![
            (*label).into(),
            backend.resolve(&circuit).name().into(),
            shots.to_string(),
            format!("{secs:.3}"),
            format!("{rate:.0}"),
            format!("{:.2}x", rate / interp_rate),
        ]);
        report.push_timing(label, backend.name(), "sequential", 1, shots, *secs);
    }
    // ---- Amplitude-parallel qubit sweep -------------------------------
    //
    // One shot worker throughout: the comparison is within-shot
    // amplitude splitting vs the plain sequential replay of the same
    // per-shot RNG streams, so the tallies must match bit-for-bit.
    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let amp_threads = EngineConfig::from_env().amp_threads.clamp(2, 8);
    let widths: &[usize] = scale.pick(&[12, 16, 20, 24][..], &[12, 16, 20][..]);
    let layers = 4;
    let mut sweep = ResultTable::new(
        format!("Amplitude-parallel sweep on the ZZ workload ({amp_threads} amp threads)"),
        &[
            "row",
            "qubits",
            "shots",
            "secs",
            "shots_per_sec",
            "amp_speedup",
            "bytes_per_amp_pass",
        ],
    );
    for &n in widths {
        let circuit = zz_sweep_workload(n, layers);
        let program = compile(&circuit);
        let unfused = compile_with(&circuit, CompileOptions { fuse_pairs: false });
        assert!(
            program.kernel_passes() < unfused.kernel_passes(),
            "{n}q: two-qubit fusion did not reduce kernel passes \
             ({} fused vs {} unfused)",
            program.kernel_passes(),
            unfused.kernel_passes(),
        );
        let bytes_per_pass = program.bytes_per_amp_pass(n);
        let shots = (scale.pick(16usize, 6) >> (n.saturating_sub(12) / 4)).max(2);
        let initial = StateVector::new(n);

        let seq_exec = Executor::pooled(
            Engine::new(EngineConfig::single_threaded()),
            bench::ROOT_SEED,
        );
        let (seq_secs, seq_counts) = time_run(|| seq_exec.sample_shots(&circuit, &initial, shots));
        let amp_exec = Executor::pooled(
            Engine::new(
                EngineConfig::with_threads(1)
                    .with_amp_threads(amp_threads)
                    .with_amp_threshold(0),
            ),
            bench::ROOT_SEED,
        );
        let (amp_secs, amp_counts) = time_run(|| amp_exec.sample_shots(&circuit, &initial, shots));
        assert_eq!(
            amp_counts, seq_counts,
            "{n}q: amp-parallel tallies diverged from sequential"
        );

        let speedup = seq_secs / amp_secs;
        let extras = |amp_speedup: f64| {
            vec![
                ("qubits".to_string(), n as f64),
                ("bytes_per_amp_pass".to_string(), bytes_per_pass),
                ("kernels_fused".to_string(), program.kernel_passes() as f64),
                (
                    "kernels_unfused".to_string(),
                    unfused.kernel_passes() as f64,
                ),
                ("host_cores".to_string(), host_cores as f64),
                ("amp_threads".to_string(), amp_threads as f64),
                ("amp_speedup".to_string(), amp_speedup),
            ]
        };
        for (row, secs, threads, speedup) in [
            (format!("sweep-{n}q-seq"), seq_secs, 1, 1.0),
            (format!("sweep-{n}q-amp"), amp_secs, amp_threads, speedup),
        ] {
            sweep.push_row(vec![
                row.clone(),
                n.to_string(),
                shots.to_string(),
                format!("{secs:.3}"),
                format!("{:.1}", shots as f64 / secs),
                format!("{speedup:.2}x"),
                format!("{bytes_per_pass:.0}"),
            ]);
            report.push_timing_extra(
                &row,
                "statevector",
                if threads == 1 {
                    "sequential"
                } else {
                    "amp-parallel"
                },
                threads,
                shots,
                secs,
                extras(speedup),
            );
        }
        println!(
            "sweep {n}q: {speedup:.2}x amp speedup ({amp_threads} amp threads, \
             {:.0} bytes/amplitude-pass, {} fused / {} unfused kernels)",
            bytes_per_pass,
            program.kernel_passes(),
            unfused.kernel_passes(),
        );
        // The perf claim only holds where the hardware can express it:
        // enforced on ≥4-core hosts running ≥4 amp workers, at widths
        // where per-shot fork/join overhead is amortised.
        if n >= 20 && host_cores >= 4 && amp_threads >= 4 {
            assert!(
                speedup >= 1.5,
                "{n}q: amp-parallel speedup {speedup:.2}x below the 1.5x floor \
                 ({host_cores} cores, {amp_threads} amp threads)"
            );
        }
    }
    bench::emit(&sweep);

    bench::emit(&t);
    bench::emit_report(&report);

    let compiled_rate = rate_of["statevector-compiled"];
    println!(
        "compiled statevector path: {:.2}x the interpreted rate on the GHZ workload",
        compiled_rate / interp_rate
    );

    let stab_rate = rate_of["stabilizer"];
    println!(
        "stabilizer path: {:.1}x the interpreted statevector rate on the Clifford GHZ workload",
        stab_rate / interp_rate
    );
    assert!(
        stab_rate > 2.0 * interp_rate,
        "stabilizer path should be measurably faster (got {:.2}x)",
        stab_rate / interp_rate
    );
}
