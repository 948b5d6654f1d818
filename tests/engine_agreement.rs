//! Cross-check of the parallel engine against the sequential qsim path
//! on the teleportation circuit from `simulator_agreement.rs`: the
//! engine must (a) reproduce the naive per-shot-seeded sequential loop
//! **exactly**, and (b) agree with `sample_shots`' single-stream
//! statistics within sampling error — the two paths draw different
//! random numbers but sample the same distribution.

use circuit::circuit::{Circuit, Instruction};
use engine::{shot_rng, Engine, ShotPlan};
use qsim::runner::{run_shot, sample_shots};
use qsim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The noisy teleportation circuit of `simulator_agreement.rs`: |1⟩
/// teleported through a depolarized Bell pair, destination measured.
fn teleportation_circuit() -> Circuit {
    let p_site = 0.3;
    let mut c = Circuit::new(3, 3);
    c.x(0);
    network::teleop::prepare_bell(&mut c, 1, 2);
    c.push(Instruction::Depolarizing {
        qubits: vec![2],
        p: p_site,
    });
    network::teleop::teledata(&mut c, 0, 1, 2, 0, 1);
    c.measure(2, 2);
    c
}

#[test]
fn run_plan_matches_sequential_per_shot_loop_exactly() {
    let circuit = teleportation_circuit();
    let initial = StateVector::new(3);
    let (shots, root) = (10_000u64, 0xA5A5u64);

    // Sequential reference: qsim's run_shot, one fresh stream per shot.
    let mut expected: HashMap<usize, usize> = HashMap::new();
    for shot in 0..shots {
        let mut rng = shot_rng(root, shot);
        let out = run_shot(&circuit, &initial, &mut rng);
        *expected.entry(out.cbits_as_usize()).or_insert(0) += 1;
    }

    let plan = ShotPlan::new(circuit, initial, shots, root);
    for threads in [1usize, 2, 8] {
        let counts = Engine::with_threads(threads).run_plan(&plan);
        assert_eq!(counts, expected, "{threads} threads");
    }
}

#[test]
fn engine_agrees_with_sample_shots_statistics() {
    let circuit = teleportation_circuit();
    let initial = StateVector::new(3);
    let shots = 20_000usize;

    let mut rng = StdRng::seed_from_u64(1);
    let sequential = sample_shots(&circuit, &initial, shots, &mut rng);
    let plan = ShotPlan::new(circuit, initial, shots as u64, 2);
    let parallel = Engine::with_threads(4).run_plan(&plan);

    assert_eq!(sequential.values().sum::<usize>(), shots);
    assert_eq!(parallel.values().sum::<usize>(), shots);

    // Same outcome distribution within 5σ binomial error per record.
    let keys: std::collections::HashSet<usize> =
        sequential.keys().chain(parallel.keys()).copied().collect();
    for key in keys {
        let p_seq = *sequential.get(&key).unwrap_or(&0) as f64 / shots as f64;
        let p_par = *parallel.get(&key).unwrap_or(&0) as f64 / shots as f64;
        let sigma = mathkit::stats::binomial_std_err(p_seq.max(p_par), shots).max(1e-4);
        assert!(
            (p_seq - p_par).abs() < 5.0 * sigma,
            "record {key}: sequential {p_seq:.4} vs engine {p_par:.4}"
        );
    }

    // And both must see the exact destination one-rate of the agreement
    // suite: P(1) = 1 − p·2/3 with p = 0.3, i.e. 0.8 on cbit 2.
    let one_rate = |counts: &HashMap<usize, usize>| {
        counts
            .iter()
            .filter(|(k, _)| *k & 0b100 != 0)
            .map(|(_, v)| v)
            .sum::<usize>() as f64
            / shots as f64
    };
    assert!((one_rate(&sequential) - 0.8).abs() < 0.015);
    assert!((one_rate(&parallel) - 0.8).abs() < 0.015);
}

#[test]
fn exact_trace_backend_is_shot_free_in_every_executor_mode() {
    // The exact backend declares itself shot-free: it ignores the shot
    // count and executor entirely instead of pretending to sample.
    use compas::estimator::{ExactTraceBackend, TraceBackend};
    use engine::Executor;
    let mut rng = StdRng::seed_from_u64(3);
    let states: Vec<_> = (0..3)
        .map(|_| qsim::qrand::random_density_matrix(1, &mut rng))
        .collect();
    let backend = ExactTraceBackend::new(3, 1);
    assert!(backend.is_shot_free());
    let seq = backend.estimate_trace(&states, 100, &Executor::sequential(99));
    let par = backend.estimate_trace(&states, 100, &Executor::pooled(Engine::with_threads(4), 7));
    assert_eq!(seq, par, "shot-free backends ignore the executor");
    assert_eq!(seq.shots, 0, "no shots are consumed");
}

#[test]
fn executor_sample_shots_matches_run_plan() {
    use engine::Executor;
    let circuit = teleportation_circuit();
    let initial = StateVector::new(3);
    let exec = Executor::pooled(Engine::with_threads(4), 0xBEEF);
    let counts = exec.sample_shots(&circuit, &initial, 5_000);
    let plan = ShotPlan::new(circuit, initial, 5_000, 0xBEEF);
    assert_eq!(counts, Engine::with_threads(2).run_plan(&plan));
}

#[test]
fn generic_plan_and_backend_router_agree_on_the_stabilizer_path() {
    // The teleportation circuit is Clifford, so the same job runs as a
    // ShotPlan<CliffordState>, through the generic Executor loop, and
    // through the Backend router — all three must tally identically.
    use engine::{Backend, Executor};
    use stabilizer::clifford::CliffordState;

    let circuit = teleportation_circuit();
    assert!(circuit.is_clifford());
    let (shots, root) = (5_000usize, 0xBEEFu64);

    let plan = ShotPlan::new(circuit.clone(), CliffordState::new(3), shots as u64, root);
    let via_plan = Engine::with_threads(4).run_plan(&plan);
    let via_exec = Executor::sequential(root).sample_shots(&circuit, &CliffordState::new(3), shots);
    let via_backend = Backend::Auto
        .sample_shots(&circuit, shots, &Executor::sequential(root))
        .unwrap();
    assert_eq!(via_plan, via_exec);
    assert_eq!(via_plan, via_backend);
    assert_eq!(via_plan.values().sum::<usize>(), shots);

    // And the single-stream qsim primitive samples the same
    // distribution on the same backend.
    let mut rng = StdRng::seed_from_u64(9);
    let single = sample_shots(&circuit, &CliffordState::new(3), shots, &mut rng);
    let one_rate = |counts: &HashMap<usize, usize>| {
        counts
            .iter()
            .filter(|(k, _)| *k & 0b100 != 0)
            .map(|(_, v)| v)
            .sum::<usize>() as f64
            / shots as f64
    };
    assert!((one_rate(&single) - one_rate(&via_plan)).abs() < 0.03);
}
