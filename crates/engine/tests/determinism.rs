//! The engine's central guarantee: for a fixed root seed, results are
//! bit-identical at any thread count and any chunking, because shot `i`
//! always runs on stream `derive_stream_seed(root, i)` no matter which
//! worker executes it.

use circuit::circuit::{Circuit, Instruction};
use engine::{shot_rng, Engine, EngineConfig, ShotPlan};
use qsim::runner::run_shot;
use qsim::statevector::StateVector;
use std::collections::HashMap;

/// A dynamic circuit exercising measurement, feed-forward, reset, and
/// stochastic noise — everything that consumes randomness.
fn noisy_teleportation() -> Circuit {
    let mut c = Circuit::new(3, 3);
    c.ry(0, 0.9);
    c.h(1).cx(1, 2);
    c.push(Instruction::Depolarizing {
        qubits: vec![2],
        p: 0.1,
    });
    c.cx(0, 1).h(0);
    c.measure(0, 0).measure(1, 1);
    c.cond_x(2, &[1]).cond_z(2, &[0]);
    c.reset(0);
    c.measure(2, 2);
    c
}

#[test]
fn same_root_seed_identical_counts_at_1_2_and_8_threads() {
    let plan = ShotPlan::new(noisy_teleportation(), StateVector::new(3), 20_000, 0xDEAD);
    let counts_1 = Engine::with_threads(1).run_plan(&plan);
    let counts_2 = Engine::with_threads(2).run_plan(&plan);
    let counts_8 = Engine::with_threads(8).run_plan(&plan);
    assert_eq!(counts_1, counts_2, "2 threads diverged from 1");
    assert_eq!(counts_1, counts_8, "8 threads diverged from 1");
    assert_eq!(counts_1.values().sum::<usize>(), 20_000);
}

#[test]
fn chunk_size_never_changes_results() {
    let plan = ShotPlan::new(noisy_teleportation(), StateVector::new(3), 5_000, 7);
    let runs: Vec<_> = [1u64, 13, 256, 10_000]
        .into_iter()
        .map(|chunk_size| {
            Engine::new(EngineConfig {
                threads: 4,
                chunk_size,
                ..EngineConfig::default()
            })
            .run_plan(&plan)
        })
        .collect();
    for other in &runs[1..] {
        assert_eq!(&runs[0], other);
    }
}

#[test]
fn engine_matches_naive_per_shot_seeded_loop_exactly() {
    // The ground truth the engine must reproduce bit-for-bit: a plain
    // sequential loop calling qsim's run_shot with the per-shot stream.
    let circuit = noisy_teleportation();
    let initial = StateVector::new(3);
    let (shots, root) = (4_000u64, 42u64);

    let mut expected: HashMap<usize, usize> = HashMap::new();
    for shot in 0..shots {
        let mut rng = shot_rng(root, shot);
        let out = run_shot(&circuit, &initial, &mut rng);
        *expected.entry(out.cbits_as_usize()).or_insert(0) += 1;
    }

    let plan = ShotPlan::new(circuit, initial, shots, root);
    assert_eq!(Engine::with_threads(8).run_plan(&plan), expected);
}

#[test]
fn run_plan_is_thread_invariant_per_plan() {
    let plans: Vec<ShotPlan> = (0..4)
        .map(|i| {
            ShotPlan::new(
                noisy_teleportation(),
                StateVector::new(3),
                2_000 + 500 * i,
                100 + i,
            )
        })
        .collect();
    let run = |threads| {
        let engine = Engine::with_threads(threads);
        plans.iter().map(|p| engine.run_plan(p)).collect::<Vec<_>>()
    };
    let r1 = run(1);
    assert_eq!(r1, run(2));
    assert_eq!(r1, run(8));
    for (plan, counts) in plans.iter().zip(&r1) {
        assert_eq!(counts.values().sum::<usize>() as u64, plan.shots());
    }
}

#[test]
fn sequential_and_pooled_executors_are_bit_identical_for_all_protocol_backends() {
    // The Executor's central guarantee, asserted through the unified
    // `TraceBackend::estimate_trace` for every shot-based protocol
    // backend: `Executor::sequential(s)` and `Executor::pooled(_, s)`
    // produce bit-identical `TraceEstimate`s, at several thread counts
    // and chunk sizes.
    use compas::cswap::CswapScheme;
    use compas::estimator::TraceBackend;
    use compas::swap_test::{
        CompasProtocol, HadamardTestSwapTest, MonolithicSwapTest, MonolithicVariant,
    };
    use engine::Executor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(17);
    let states: Vec<mathkit::matrix::Matrix> = (0..3)
        .map(|_| qsim::qrand::random_density_matrix(1, &mut rng))
        .collect();
    let monolithic = MonolithicSwapTest::new(3, 1, MonolithicVariant::Fanout);
    let hadamard = HadamardTestSwapTest::new(3, 1);
    let compas = CompasProtocol::new(3, 1, CswapScheme::Teledata);
    let backends: [(&str, &dyn TraceBackend); 3] = [
        ("monolithic", &monolithic),
        ("hadamard-test", &hadamard),
        ("compas", &compas),
    ];

    for (name, backend) in backends {
        let root = 0xC0FFEE;
        let reference = backend.estimate_trace(&states, 400, &Executor::sequential(root));
        for threads in [1usize, 2, 8] {
            for chunk_size in [7u64, 256] {
                let engine = Engine::new(EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                });
                let pooled = backend.estimate_trace(&states, 400, &Executor::pooled(engine, root));
                assert_eq!(
                    reference, pooled,
                    "{name}: pooled({threads} threads, chunk {chunk_size}) diverged"
                );
            }
        }
        // A different root seed must actually change the samples — the
        // equality above is not vacuous.
        let other = backend.estimate_trace(&states, 400, &Executor::sequential(root + 1));
        assert_ne!(reference, other, "{name}: seed had no effect");
    }
}

#[test]
fn different_root_seeds_give_different_samples() {
    let circuit = noisy_teleportation();
    let a = Engine::with_threads(4).run_plan(&ShotPlan::new(
        circuit.clone(),
        StateVector::new(3),
        5_000,
        1,
    ));
    let b =
        Engine::with_threads(4).run_plan(&ShotPlan::new(circuit, StateVector::new(3), 5_000, 2));
    assert_ne!(a, b, "independent seeds should not collide exactly");
}

#[test]
fn every_backend_is_mode_and_thread_invariant() {
    // The determinism guarantee holds per simulation backend: for one
    // root seed, Backend::sample_shots tallies identically under the
    // sequential executor and pooled executors at several thread
    // counts and chunk sizes.
    use engine::{Backend, Executor};

    // Clifford with feed-forward and noise, so every backend (incl.
    // density record sampling) accepts it.
    let mut c = Circuit::new(3, 3);
    c.x(0);
    c.h(1).cx(1, 2);
    c.push(Instruction::Depolarizing {
        qubits: vec![2],
        p: 0.1,
    });
    c.cx(0, 1).h(0);
    c.measure(0, 0).measure(1, 1);
    c.cond_x(2, &[1]).cond_z(2, &[0]);
    c.measure(2, 2);

    for backend in [
        Backend::Auto,
        Backend::StateVector,
        Backend::Stabilizer,
        Backend::Density,
    ] {
        let root = 0xFACE;
        let reference = backend
            .sample_shots(&c, 6_000, &Executor::sequential(root))
            .unwrap();
        assert_eq!(reference.values().sum::<usize>(), 6_000);
        for threads in [2usize, 8] {
            for chunk_size in [13u64, 256] {
                let engine = Engine::new(EngineConfig {
                    threads,
                    chunk_size,
                    ..EngineConfig::default()
                });
                let pooled = backend
                    .sample_shots(&c, 6_000, &Executor::pooled(engine, root))
                    .unwrap();
                assert_eq!(
                    reference, pooled,
                    "{backend}: pooled({threads} threads, chunk {chunk_size}) diverged"
                );
            }
        }
        let other = backend
            .sample_shots(&c, 6_000, &Executor::sequential(root + 1))
            .unwrap();
        assert_ne!(reference, other, "{backend}: seed had no effect");
    }
}

#[test]
fn amp_parallel_tallies_are_worker_count_invariant() {
    // CI's guards job filters on `amp_parallel`: with the engagement
    // threshold forced to zero, amplitude-level parallelism at 2 and 8
    // workers must tally bit-identically to the never-engaged reference
    // (amp_threads = 1) — the amp path is a latency policy, not a new
    // sampling semantics.
    use engine::Executor;

    let circuit = noisy_teleportation();
    let root = 0xA117;
    let run = |amp_threads: usize| {
        let engine = Engine::new(
            EngineConfig::with_threads(1)
                .with_amp_threads(amp_threads)
                .with_amp_threshold(0),
        );
        Executor::pooled(engine, root).sample_shots(&circuit, &StateVector::new(3), 4_000)
    };
    let reference = run(1);
    assert_eq!(reference.values().sum::<usize>(), 4_000);
    assert_eq!(reference, run(2), "2 amp workers diverged");
    assert_eq!(reference, run(8), "8 amp workers diverged");
    // And the amp path agrees with plan-level execution too.
    let plan = ShotPlan::new(noisy_teleportation(), StateVector::new(3), 4_000, root);
    let amp_plan = Engine::new(
        EngineConfig::with_threads(1)
            .with_amp_threads(4)
            .with_amp_threshold(0),
    )
    .run_plan(&plan);
    assert_eq!(reference, amp_plan, "run_plan amp path diverged");
}

#[test]
fn every_backend_is_mode_invariant_on_noisy_ghz() {
    // Whichever backend a request names, sequential and pooled
    // execution must tally identically.
    use engine::{Backend, Executor};

    let mut c = Circuit::new(4, 4);
    c.h(0);
    for q in 1..4 {
        c.cx(q - 1, q);
    }
    c.push(Instruction::Depolarizing {
        qubits: vec![1, 2],
        p: 0.05,
    });
    for q in 0..4 {
        c.measure(q, q);
    }
    for backend in [Backend::Auto, Backend::StateVector, Backend::Stabilizer] {
        assert_eq!(backend.resolve(&c), backend.resolve(&c), "routing is pure");
        let seq = backend
            .sample_shots(&c, 5_000, &Executor::sequential(31))
            .unwrap();
        let pooled = backend
            .sample_shots(&c, 5_000, &Executor::pooled(Engine::with_threads(4), 31))
            .unwrap();
        assert_eq!(seq, pooled, "backend {backend} diverged across executors");
        assert_eq!(seq.values().sum::<usize>(), 5_000);
    }
}
