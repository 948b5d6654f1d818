//! Criterion-free micro-benchmark of the unified execution path: prints
//! shots/sec on the Table 4 workload (residual-error sampling of the
//! noisy constant-depth Fanout, m = 6 targets, p = 3e-3) for
//! `Executor::Sequential` and for `Executor::Pooled` at 1, 2, 4, …
//! threads, plus the parallel speedup — and asserts that the two modes
//! produce identical tallies, since that equivalence is the engine's
//! core guarantee. The numbers are the perf baseline future PRs record.
//!
//! Run with: `cargo run --release --bin engine_scaling [--quick]`

use analysis::fanout_noise::FanoutResidualJob;
use analysis::table_io::ResultTable;
use bench::{BenchReport, Scale};
use circuit::circuit::Circuit;
use engine::{Counts, Engine, Executor, ExperimentBuilder, MemorySink, ShotPlan};
use qsim::statevector::StateVector;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn run_grid(
    exec: &Executor,
    targets: usize,
    p: f64,
    shots: usize,
) -> HashMap<stabilizer::pauli::PauliString, u64> {
    // The declarative shape every bench driver shares: a (point grid,
    // shots, executor) triple — here a single-point grid.
    let mut results = ExperimentBuilder::new()
        .point((targets, p))
        .shots(shots)
        .run_jobs(exec, |&(m, p), shots, seed| {
            FanoutResidualJob::new(m, p, shots, seed)
        });
    results.pop().expect("one grid point").1
}

fn main() {
    let scale = Scale::from_env();
    let shots = scale.pick(200_000, 20_000);
    let (targets, p) = (6usize, 0.003);

    // Sequential reference: the same unified path, sequential mode.
    let seq_exec = Executor::sequential(bench::ROOT_SEED);
    let t0 = Instant::now();
    let seq_tally = run_grid(&seq_exec, targets, p, shots);
    let seq_secs = t0.elapsed().as_secs_f64();
    let seq_rate = shots as f64 / seq_secs;
    assert_eq!(seq_tally.values().sum::<u64>(), shots as u64);

    let mut t = ResultTable::new(
        "Engine scaling on the Table 4 workload",
        &[
            "mode",
            "threads",
            "shots",
            "secs",
            "shots_per_sec",
            "speedup",
        ],
    );
    t.push_row(vec![
        "sequential".into(),
        "1".into(),
        shots.to_string(),
        format!("{seq_secs:.3}"),
        format!("{seq_rate:.0}"),
        "1.00".into(),
    ]);
    let mut report = BenchReport::new(
        "engine_scaling",
        format!("fanout-residual m={targets} p={p}"),
        scale == Scale::Quick,
    );
    report.push_timing(
        "sequential",
        "pauli-frame",
        "sequential",
        1,
        shots,
        seq_secs,
    );

    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut threads = 1usize;
    let mut measured: Vec<(usize, f64)> = Vec::new();
    loop {
        let exec = Executor::pooled(Engine::with_threads(threads), bench::ROOT_SEED);
        let t0 = Instant::now();
        let tally = run_grid(&exec, targets, p, shots);
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(
            tally, seq_tally,
            "pooled mode diverged from the sequential reference"
        );
        let rate = shots as f64 / secs;
        measured.push((threads, rate));
        t.push_row(vec![
            "pooled".into(),
            threads.to_string(),
            shots.to_string(),
            format!("{secs:.3}"),
            format!("{rate:.0}"),
            format!("{:.2}", rate / seq_rate),
        ]);
        report.push_timing(
            &format!("pooled-{threads}"),
            "pauli-frame",
            "pooled",
            threads,
            shots,
            secs,
        );
        if threads >= max_threads {
            break;
        }
        threads = (threads * 2).min(max_threads);
    }
    // ------------------------------------------------------------------
    // Shot-trace recording overhead: the same plan executed on the
    // engine and on a recording copy of it (`Engine::with_trace`).
    // Statevector with a T-laden layer keeps the per-shot cost at the
    // microsecond scale, so the printed overhead is the per-shot
    // tracing cost against real work rather than against an
    // artificially free shot. Asserted here: same tallies, one record
    // per shot.
    // ------------------------------------------------------------------
    let record_shots = scale.pick(50_000, 5_000);
    let mut tladen = Circuit::new(8, 8);
    for layer in 0..3 {
        for q in 0..8 {
            tladen.h(q);
            tladen.t(q);
        }
        for q in 0..7 {
            tladen.cx(q, q + 1);
        }
        if layer == 1 {
            for q in 0..8 {
                tladen.rz(q, 0.37 * (q as f64 + 1.0));
            }
        }
    }
    for q in 0..8 {
        tladen.measure(q, q);
    }
    let plan = ShotPlan::new(
        tladen,
        StateVector::new(8),
        record_shots as u64,
        bench::ROOT_SEED,
    );
    let engine = Engine::with_threads(4);
    // Warm up caches and the thread pool before timing either side,
    // then alternate best-of-3 trials so scheduler noise hits both
    // sides evenly.
    engine.run_plan_range(&plan, 0..(record_shots as u64).min(1_000));

    let (mut off_secs, mut on_secs) = (f64::INFINITY, f64::INFINITY);
    let mut untraced = Counts::new();
    let mut traced = Counts::new();
    let mut records = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        untraced = engine.run_plan(&plan);
        off_secs = off_secs.min(t0.elapsed().as_secs_f64());

        let sink = Arc::new(MemorySink::new());
        let recording = engine.clone().with_trace(sink.clone());
        let t0 = Instant::now();
        traced = recording.run_plan(&plan);
        on_secs = on_secs.min(t0.elapsed().as_secs_f64());
        records = sink.len();
    }
    assert_eq!(traced, untraced, "tracing changed the tallies");
    assert_eq!(records, record_shots, "tracing dropped records");

    for (label, secs) in [("record-off", off_secs), ("record-on", on_secs)] {
        t.push_row(vec![
            label.into(),
            "4".into(),
            record_shots.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", record_shots as f64 / secs),
            format!("{:.2}", off_secs / secs),
        ]);
        report.push_timing(label, "statevector", "pooled", 4, record_shots, secs);
    }
    println!(
        "recording overhead: {:.1}% on {record_shots} statevector shots",
        (off_secs / on_secs).recip().mul_add(100.0, -100.0)
    );

    bench::emit(&t);
    bench::emit_report(&report);

    if let Some(&(n, rate)) = measured.iter().find(|&&(n, _)| n >= 4) {
        println!(
            "speedup at {n} threads: {:.2}x over the sequential mode",
            rate / seq_rate
        );
    }
}
