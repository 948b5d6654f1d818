//! Property tests: the compiled shot-replay path tallies **bit-identical**
//! measurement records to the interpreted reference, for one root seed,
//! across random Clifford+T circuits with mid-circuit measurement,
//! feedback, reset, and depolarizing noise — in both execution modes
//! (`Sequential` and `Pooled`) and on every backend a request can name
//! (the statevector compiles to fused kernels; density and stabilizer
//! replay the instruction stream, so their equivalence pins the
//! plumbing rather than a compiler).

use circuit::circuit::Circuit;
use engine::{Backend, Engine, EngineConfig, Executor};
use mathkit::complex::{c64, Complex};
use proptest::prelude::*;
use qsim::compile::{compile, CompiledOp};
use qsim::sim::SimState;
use qsim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stabilizer::clifford::CliffordState;

/// Builds a random dynamic circuit from a seed: `depth` gates drawn
/// from the Clifford(+T) set, interleaved with measurements, Pauli
/// feedback, resets, and depolarizing sites.
fn random_circuit(seed: u64, n: usize, depth: usize, with_t: bool) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n, n);
    let mut written: Vec<usize> = Vec::new();
    for _ in 0..depth {
        let q = rng.random_range(0..n);
        let r = (q + 1 + rng.random_range(0..n - 1)) % n;
        match rng.random_range(0..if with_t { 14 } else { 12 }) {
            0 => {
                c.h(q);
            }
            1 => {
                c.x(q);
            }
            2 => {
                c.z(q);
            }
            3 => {
                c.s(q);
            }
            4 => {
                c.sdg(q);
            }
            5 => {
                c.cx(q, r);
            }
            6 => {
                c.cz(q, r);
            }
            7 => {
                c.swap(q, r);
            }
            8 => {
                // Mid-circuit measurement into the qubit's own cbit.
                c.measure(q, q);
                written.push(q);
            }
            9 => {
                if let Some(&cb) = written.last() {
                    if rng.random() {
                        c.cond_x(q, &[cb]);
                    } else {
                        c.cond_z(q, &[cb]);
                    }
                } else {
                    c.y(q);
                }
            }
            10 => {
                c.reset(q);
            }
            11 => {
                c.push(circuit::circuit::Instruction::Depolarizing {
                    qubits: vec![q],
                    p: 0.2,
                });
            }
            12 => {
                c.t(q);
            }
            _ => {
                c.tdg(q);
            }
        }
    }
    for q in 0..n {
        c.measure(q, q);
    }
    c
}

/// Asserts compiled ≡ interpreted tallies on backend `S` for one root
/// seed, across execution modes: sequential, shot-pooled, and (with
/// the width threshold forced to zero) amplitude-parallel. Backends
/// that cannot range-split silently never engage the amp mode, which
/// is itself part of the contract — the policy must be invisible in
/// the tallies.
fn assert_equivalence<S: SimState>(circuit: &Circuit, root_seed: u64, shots: usize) {
    let initial = S::prepare(circuit.num_qubits());
    let amp_engine = Engine::new(
        EngineConfig::with_threads(1)
            .with_amp_threads(3)
            .with_amp_threshold(0),
    );
    for exec in [
        Executor::sequential(root_seed),
        Executor::pooled(Engine::with_threads(3), root_seed),
        Executor::pooled(amp_engine, root_seed),
    ] {
        let compiled = exec.sample_shots(circuit, &initial, shots);
        let interpreted = exec.sample_shots_interpreted(circuit, &initial, shots);
        assert_eq!(
            compiled,
            interpreted,
            "{}: compiled and interpreted tallies diverged ({} threads)",
            S::NAME,
            exec.threads()
        );
        assert_eq!(compiled.values().sum::<usize>(), shots, "{}", S::NAME);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Clifford+T circuits on `Auto` (routed per circuit), the
    /// statevector and the stabilizer; circuits a backend cannot
    /// execute fall back to the statevector, so the fused-kernel
    /// compiler is exercised on every backend.
    #[test]
    fn compiled_equals_interpreted_per_backend(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        depth in 4usize..24,
        with_t in proptest::prelude::any::<bool>(),
    ) {
        let circuit = random_circuit(seed, n, depth, with_t);
        let shots = 120;
        for backend in [Backend::Auto, Backend::StateVector, Backend::Stabilizer] {
            match backend.resolve(&circuit) {
                b if b.supports(&circuit).is_err() => {
                    // e.g. the stabilizer with a T gate: the probe
                    // rejects up front; compile the statevector path
                    // instead so every case still tests the compiler.
                    assert_equivalence::<StateVector>(&circuit, seed ^ 0xC0A5, shots);
                }
                Backend::Stabilizer => {
                    assert_equivalence::<CliffordState>(&circuit, seed ^ 0xC0A5, shots);
                    // The tableau replays instructions; the compiler
                    // claim is the statevector's, so cross-check it too.
                    assert_equivalence::<StateVector>(&circuit, seed ^ 0xC0A5, shots);
                }
                _ => assert_equivalence::<StateVector>(&circuit, seed ^ 0xC0A5, shots),
            }
        }
    }
}

/// Random unnormalised amplitude buffer — `apply_range` is linear, so
/// bit-identity over range covers needs no physical state.
fn random_amps(len: usize, rng: &mut StdRng) -> Vec<Complex> {
    (0..len)
        .map(|_| c64(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The range-seam contract itself: for every kernel of a random
    /// compiled program, applying it over an **arbitrary disjoint
    /// cover** of `[0, 2ⁿ⁺ʷ)` — uneven random cuts into 1/2/4/7 parts,
    /// applied in shuffled order — is bit-identical to the single full
    /// pass, as is the balanced [`CompiledOp::worker_range`] cover the
    /// amp-parallel driver uses.
    #[test]
    fn kernels_over_arbitrary_range_covers_match_full_pass(
        seed in 0u64..1_000_000,
        n in 2usize..5,
        depth in 4usize..24,
        widen in 0usize..3,
        parts_idx in 0usize..4,
    ) {
        let parts = [1usize, 2, 4, 7][parts_idx];
        let program = compile(&random_circuit(seed, n, depth, true));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let len = 1usize << (n + widen);
        let base = random_amps(len, &mut rng);
        for op in program.ops() {
            if matches!(op, CompiledOp::Interp(_)) {
                continue;
            }
            let mut full = base.clone();
            op.apply_range(&mut full, 0, len, widen);

            // Random uneven cut points, segments applied out of order:
            // disjoint ranges own disjoint work units, so order is
            // immaterial.
            let mut cuts: Vec<usize> = (0..parts - 1).map(|_| rng.random_range(0..=len)).collect();
            cuts.push(0);
            cuts.push(len);
            cuts.sort_unstable();
            let mut segments: Vec<(usize, usize)> =
                cuts.windows(2).map(|w| (w[0], w[1])).collect();
            for i in (1..segments.len()).rev() {
                let j = rng.random_range(0..=i);
                segments.swap(i, j);
            }
            let mut covered = base.clone();
            for (lo, hi) in segments {
                op.apply_range(&mut covered, lo, hi, widen);
            }
            prop_assert_eq!(&covered, &full, "uneven cover diverged: {:?}", op);

            let mut balanced = base.clone();
            for worker in 0..parts {
                let range = op.worker_range(worker, parts, len, widen);
                op.apply_range(&mut balanced, range.start, range.end, widen);
            }
            prop_assert_eq!(&balanced, &full, "worker_range cover diverged: {:?}", op);
        }
    }
}

#[test]
fn compiled_plan_batch_and_executor_paths_agree() {
    // One circuit, two compiled surfaces: Engine::run_plan and
    // Executor::sample_shots — both replaying the same compiled
    // program — plus the interpreted reference.
    let circuit = random_circuit(7, 4, 16, true);
    let initial = StateVector::new(4);
    let exec = Executor::pooled(Engine::with_threads(2), 99);
    let reference = exec.sample_shots_interpreted(&circuit, &initial, 500);

    let compiled = exec.sample_shots(&circuit, &initial, 500);
    assert_eq!(compiled, reference);

    let plan = engine::ShotPlan::new(circuit.clone(), initial.clone(), 500, 99);
    assert_eq!(Engine::with_threads(2).run_plan(&plan), reference);
}

#[test]
fn density_backend_program_plumbing_is_identity() {
    // The density backend's program is the circuit itself; its compiled
    // path must equal its interpreted path exactly.
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).cz(1, 2);
    c.push(circuit::circuit::Instruction::Depolarizing {
        qubits: vec![1],
        p: 0.1,
    });
    for q in 0..3 {
        c.measure(q, q);
    }
    let initial = qsim::density::DensityMatrix::new(3);
    let exec = Executor::sequential(5);
    assert_eq!(
        exec.sample_shots(&c, &initial, 200),
        exec.sample_shots_interpreted(&c, &initial, 200)
    );
}
