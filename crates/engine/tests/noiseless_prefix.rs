//! A shot that starts from its job's noiseless prefix is the shot that
//! replays the whole program, bit for bit.
//!
//! * Shot by shot, on random dynamic circuits: the prefix replay
//!   (`run_program_into_from_prefix`) against `run_program_into` — equal
//!   records, `==` final states, and the same next `u64` on both
//!   streams — on every arm: shots whose prefix sites stay silent and
//!   walk the prefix's tree of branch states to the program's end
//!   (Z-, X- and Y-basis measurements, readout flips, resets), shots
//!   that leave the tree at an op it does not model or at a child the
//!   budget refused (a dense 8-qubit state exhausts it), and shots that
//!   fall back because a prefix site fired.
//! * Through the engine: a noisy-GHZ plan's counts under every slicing,
//!   in a batch, on the amp-parallel arm, and from `sample_shots`
//!   against the interpreted reference, with the prefix counters
//!   splitting exactly the shots that had a prefix — and no prefix on a
//!   state of 20 or more qubits, on either arm.

use circuit::circuit::{Basis, Circuit, Instruction};
use circuit::noise::NoiseModel;
use engine::{shot_rng, Counts, Engine, EngineConfig, Executor, ShotPlan};
use qsim::compile::compile;
use qsim::qrand::random_pure_state;
use qsim::runner::{run_program_into, run_program_into_from_prefix};
use qsim::sim::{SimState, Walk};
use qsim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The site probabilities the property draws from: never, rarely,
/// often, always.
const SITE_PROBS: [f64; 4] = [0.0, 1e-3, 0.3, 1.0];

/// How a random circuit opens.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Opening {
    /// Kernels and depolarizing sites before the first measurement.
    Prefix,
    /// A `Measure`, `Reset` or `Conditional` first: no prefix.
    Dynamic,
}

/// Appends one random gate on `n` qubits.
fn random_gate(c: &mut Circuit, n: usize, rng: &mut StdRng) {
    let q = rng.random_range(0..n);
    let r = (q + 1 + rng.random_range(0..n.max(2) - 1)) % n;
    let two = n >= 2;
    match rng.random_range(0..8) {
        0 => c.h(q),
        1 => c.ry(q, rng.random_range(-3.0..3.0)),
        2 => c.t(q),
        3 => c.rz(q, rng.random_range(-3.0..3.0)),
        4 if two => c.cx(q, r),
        5 if two => c.cz(q, r),
        6 if two => c.swap(q, r),
        7 if n >= 3 => {
            let t = (r + 1..r + n).map(|t| t % n).find(|&t| t != q).unwrap();
            c.ccx(q, r, t)
        }
        _ => c.x(q),
    };
}

/// Appends a depolarizing site on one or two random qubits with a
/// probability from [`SITE_PROBS`].
fn random_site(c: &mut Circuit, n: usize, rng: &mut StdRng) {
    let q = rng.random_range(0..n);
    let qubits = if n >= 2 && rng.random() {
        vec![q, (q + 1) % n]
    } else {
        vec![q]
    };
    let p = SITE_PROBS[rng.random_range(0..SITE_PROBS.len())];
    c.push(Instruction::Depolarizing { qubits, p });
}

/// Appends a measurement of qubit `q` into cbit `q` in a random basis,
/// its record flipped with probability 0 or 0.2.
fn random_measure(c: &mut Circuit, q: usize, rng: &mut StdRng) {
    let basis = [Basis::Z, Basis::X, Basis::Y][rng.random_range(0..3usize)];
    let flip_prob = if rng.random_range(0..3) == 0 {
        0.2
    } else {
        0.0
    };
    c.push(Instruction::Measure {
        qubit: q,
        cbit: q,
        basis,
        flip_prob,
    });
}

/// A random dynamic circuit on `n` qubits: an opening, then — unless
/// `measure_only` — gates, sites, measurements, feedback and resets in
/// any order, every qubit measured at the end.
fn random_circuit(seed: u64, n: usize, opening: Opening, measure_only: bool) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n, n);
    match opening {
        Opening::Prefix => {
            for _ in 0..rng.random_range(1..12) {
                if rng.random_range(0..3) == 0 {
                    random_site(&mut c, n, &mut rng);
                } else {
                    random_gate(&mut c, n, &mut rng);
                }
            }
        }
        Opening::Dynamic => {
            let q = rng.random_range(0..n);
            match rng.random_range(0..3) {
                0 => c.measure(q, q),
                1 => c.reset(q),
                _ => c.cond_x(q, &[0]),
            };
        }
    }
    let middle = if measure_only {
        0
    } else {
        rng.random_range(0..12)
    };
    for _ in 0..middle {
        let q = rng.random_range(0..n);
        match rng.random_range(0..6) {
            0 => {
                random_measure(&mut c, q, &mut rng);
                &mut c
            }
            1 => c.reset(q),
            2 => c.cond_z(q, &[rng.random_range(0..n)]),
            3 => {
                random_site(&mut c, n, &mut rng);
                &mut c
            }
            _ => {
                random_gate(&mut c, n, &mut rng);
                &mut c
            }
        };
    }
    for q in 0..n {
        random_measure(&mut c, q, &mut rng);
    }
    c
}

/// How often each arm ran.
#[derive(Default, Debug)]
struct Arms {
    leaf: usize,
    exit: usize,
    fallback: usize,
}

impl Arms {
    fn add(&mut self, other: Arms) {
        self.leaf += other.leaf;
        self.exit += other.exit;
        self.fallback += other.fallback;
    }
}

/// Plays `shots` shots of `circuit` from `initial` both ways on
/// `shot_rng(root, i)` and asserts them equal, shot by shot. Returns
/// how often each arm ran.
fn assert_prefix_replay_is_the_replay(
    circuit: &Circuit,
    initial: &StateVector,
    root: u64,
    shots: u64,
    threads: usize,
) -> Arms {
    let program = compile(circuit);
    let prefix = StateVector::noiseless_prefix(&program, initial, threads);
    let sites: Vec<f64> = circuit
        .instructions()
        .iter()
        .take_while(|i| matches!(i, Instruction::Gate(_) | Instruction::Depolarizing { .. }))
        .filter_map(|i| match i {
            Instruction::Depolarizing { p, .. } => Some(*p),
            _ => None,
        })
        .collect();
    let mut arms = Arms::default();
    let (mut whole, mut whole_bits) = (StateVector::new(0), Vec::new());
    let (mut resumed, mut resumed_bits) = (StateVector::new(0), Vec::new());
    for i in 0..shots {
        let mut whole_rng = shot_rng(root, i);
        run_program_into(
            &program,
            initial,
            &mut whole,
            &mut whole_bits,
            &mut whole_rng,
        );
        let mut resumed_rng = shot_rng(root, i);
        let from_prefix = run_program_into_from_prefix(
            &program,
            initial,
            prefix.as_ref(),
            &mut resumed,
            &mut resumed_bits,
            &mut resumed_rng,
            threads,
        );
        assert_eq!(resumed_bits, whole_bits, "shot {i}: records differ");
        assert!(resumed == whole, "shot {i}: final states differ");
        assert_eq!(
            resumed_rng.next_u64(),
            whole_rng.next_u64(),
            "shot {i}: streams left at different positions"
        );
        assert_eq!(from_prefix.is_some(), prefix.is_some());
        match from_prefix {
            Some(Walk::Leaf) => arms.leaf += 1,
            Some(Walk::Exit) => arms.exit += 1,
            Some(Walk::Fallback) => arms.fallback += 1,
            None => {}
        }
        // A silent site never fires and a certain one always does.
        if sites.iter().all(|&p| p == 0.0) {
            assert_ne!(
                from_prefix,
                Some(Walk::Fallback),
                "shot {i}: a p = 0 site fired"
            );
        }
        if sites.contains(&1.0) {
            assert!(
                !matches!(from_prefix, Some(Walk::Leaf | Walk::Exit)),
                "shot {i}: a p = 1 site stayed silent"
            );
        }
    }
    arms
}

#[test]
fn prefix_replay_equals_the_whole_replay_shot_by_shot() {
    let mut total = Arms::default();
    for seed in 0..160u64 {
        let n = 1 + (seed % 8) as usize;
        let opening = if seed % 5 == 4 {
            Opening::Dynamic
        } else {
            Opening::Prefix
        };
        let circuit = random_circuit(seed, n, opening, seed % 4 == 2);
        // Every third initial state is a dense random one, every fifth
        // a wider register than the circuit needs.
        let width = n + usize::from(seed % 5 == 1);
        let initial = if seed % 3 == 0 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
            StateVector::from_amplitudes(random_pure_state(width, &mut rng))
        } else {
            StateVector::new(width)
        };
        if opening == Opening::Dynamic {
            let program = compile(&circuit);
            assert!(
                StateVector::noiseless_prefix(&program, &initial, 1).is_none(),
                "seed {seed}: a circuit opening with a measurement has no prefix"
            );
        }
        let threads = if seed % 2 == 0 { 1 } else { 3 };
        total.add(assert_prefix_replay_is_the_replay(
            &circuit, &initial, seed, 24, threads,
        ));
    }
    // A dense 8-qubit state measured qubit by qubit: its full tree is
    // nine root states, so the budget refuses children — the only way a
    // shot leaves a measure-only rest early.
    let mut rng = StdRng::seed_from_u64(0xDE_45E);
    let initial = StateVector::from_amplitudes(random_pure_state(8, &mut rng));
    let mut dense = Circuit::new(8, 8);
    for q in 0..8 {
        dense.ry(q, 0.3 + 0.1 * q as f64);
    }
    for q in 0..8 {
        random_measure(&mut dense, q, &mut rng);
    }
    let arms = assert_prefix_replay_is_the_replay(&dense, &initial, 0xDE_45E, 96, 1);
    assert!(arms.exit > 0, "the dense tree fit its budget: {arms:?}");
    total.add(arms);
    assert!(total.leaf > 0, "no shot walked to a leaf: {total:?}");
    assert!(total.exit > 0, "no shot left the tree: {total:?}");
    assert!(total.fallback > 0, "no shot fell back: {total:?}");
}

/// An RNG whose every uniform draw is exactly one half.
#[derive(Clone)]
struct Half;

impl RngCore for Half {
    fn next_u32(&mut self) -> u32 {
        1 << 31
    }

    fn next_u64(&mut self) -> u64 {
        1 << 63
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0);
    }
}

#[test]
fn a_draw_equal_to_p1_is_outcome_zero_on_the_walk_too() {
    // Four amplitudes of exactly 1/2: measuring qubit 0 has p1 = 1/2
    // exactly, so a draw of 1/2 is outcome 0 (`u < p1`) on every path.
    let initial = StateVector::from_amplitudes(vec![mathkit::complex::c64(0.5, 0.0); 4]);
    let mut circuit = Circuit::new(2, 2);
    circuit.z(0).measure(0, 0).measure(1, 1);
    let program = compile(&circuit);
    let prefix = StateVector::noiseless_prefix(&program, &initial, 1);
    let (mut whole, mut whole_bits) = (StateVector::new(0), Vec::new());
    run_program_into(&program, &initial, &mut whole, &mut whole_bits, &mut Half);
    let (mut walked, mut walked_bits) = (StateVector::new(0), Vec::new());
    let walk = run_program_into_from_prefix(
        &program,
        &initial,
        prefix.as_ref(),
        &mut walked,
        &mut walked_bits,
        &mut Half,
        1,
    );
    assert_eq!(walk, Some(Walk::Leaf));
    assert!(!whole_bits[0], "the plain replay read 1/2 as outcome 1");
    assert_eq!(walked_bits, whole_bits);
    assert!(walked == whole);
}

/// The `ghz12_sv_noisy` shape on `n` qubits: a GHZ chain under the
/// standard noise model at `p = 0.05`, every qubit measured.
fn noisy_ghz(n: usize) -> Circuit {
    let mut prep = Circuit::new(n, n);
    prep.h(0);
    for q in 1..n {
        prep.cx(q - 1, q);
    }
    let mut noisy = NoiseModel::standard(0.05).apply(&prep);
    for q in 0..n {
        noisy.measure(q, q);
    }
    noisy
}

/// Merges the counts of `plan` run slice by slice, `slice` shots each.
fn sliced(engine: &Engine, plan: &ShotPlan, slice: u64) -> Counts {
    let mut merged = Counts::new();
    let mut start = 0;
    while start < plan.shots() {
        let end = (start + slice).min(plan.shots());
        engine::merge_counts(&mut merged, engine.run_plan_range(plan, start..end));
        start = end;
    }
    merged
}

/// The prefix counters of `registry`: (from the prefix, fell back).
fn prefix_counters(registry: &obs::Registry) -> (u64, u64) {
    let snapshot = registry.snapshot();
    (
        snapshot.counter("engine.prefix_shots").unwrap_or(0),
        snapshot.counter("engine.prefix_fallbacks").unwrap_or(0),
    )
}

#[test]
fn a_noisy_ghz_plan_counts_alike_under_every_slicing() {
    let shots = 300;
    let plan = || ShotPlan::new(noisy_ghz(10), StateVector::new(10), shots, 0xC0_45);
    let registry = obs::Registry::new();
    let engine = Engine::with_threads(2).with_metrics(&registry);

    // One-shot slices build no prefix and count nothing.
    let one_shot = sliced(&engine, &plan(), 1);
    assert_eq!(prefix_counters(&registry), (0, 0));

    let whole = engine.run_plan(&plan());
    let (from_prefix, fallbacks) = prefix_counters(&registry);
    assert_eq!(from_prefix + fallbacks, shots);
    assert!(
        from_prefix > 0 && fallbacks > 0,
        "{from_prefix} / {fallbacks}"
    );

    assert_eq!(one_shot, whole);
    assert_eq!(sliced(&engine, &plan(), 7), whole);
    assert_eq!(whole.values().sum::<usize>(), shots as usize);
}

#[test]
fn an_amp_engaged_plan_counts_like_the_sequential_one() {
    let plan = ShotPlan::new(noisy_ghz(8), StateVector::new(8), 120, 31);
    let registry = obs::Registry::new();
    let amp = Engine::new(
        EngineConfig::with_threads(1)
            .with_amp_threads(3)
            .with_amp_threshold(0),
    )
    .with_metrics(&registry);
    assert!(amp.amp_engaged::<StateVector>(8));
    assert_eq!(amp.run_plan(&plan), Engine::sequential().run_plan(&plan));
    let (from_prefix, fallbacks) = prefix_counters(&registry);
    assert_eq!(from_prefix + fallbacks, 120);
}

#[test]
fn sample_shots_counts_like_the_interpreted_reference() {
    let circuit = noisy_ghz(9);
    let initial = StateVector::new(9);
    let registry = obs::Registry::new();
    let exec = Executor::pooled(Engine::with_threads(2).with_metrics(&registry), 77);
    let reference = exec.sample_shots_interpreted(&circuit, &initial, 400);
    // The interpreted reference has no prefix.
    assert_eq!(prefix_counters(&registry), (0, 0));
    assert_eq!(exec.sample_shots(&circuit, &initial, 400), reference);
    let (from_prefix, fallbacks) = prefix_counters(&registry);
    assert_eq!(from_prefix + fallbacks, 400);
}

#[test]
fn a_state_of_twenty_qubits_builds_no_prefix() {
    // One live qubit, so the state is two stored amplitudes: the rule
    // reads the width, which bounds what a prefix could hold.
    let plan = |n: usize| {
        let mut c = Circuit::new(n, 1);
        c.h(0).push(Instruction::Depolarizing {
            qubits: vec![0],
            p: 0.2,
        });
        c.measure(0, 0);
        ShotPlan::new(c, StateVector::new(n), 64, 5)
    };
    for amp_threads in [1, 2] {
        let registry = obs::Registry::new();
        let engine = Engine::new(
            EngineConfig::with_threads(2)
                .with_amp_threads(amp_threads)
                .with_amp_threshold(20),
        )
        .with_metrics(&registry);
        assert_eq!(engine.amp_engaged::<StateVector>(20), amp_threads > 1);
        let wide = engine.run_plan(&plan(20));
        assert_eq!(prefix_counters(&registry), (0, 0));
        let narrow = engine.run_plan(&plan(19));
        let (from_prefix, fallbacks) = prefix_counters(&registry);
        assert_eq!(from_prefix + fallbacks, 64);
        // The idle qubits change no record.
        assert_eq!(wide, narrow);
    }
}
