//! The sign-only replay (`CliffordState::run_program`) against
//! instruction-by-instruction interpretation (`run_shot_into`) on the
//! same packed tableau: per shot the records, the RNG stream position
//! and the whole final tableau must be equal — on random dynamic
//! Clifford circuits, on the two cases where the replay must step aside,
//! and at the widest circuit admission allows.

use circuit::circuit::{Basis, Circuit, Instruction};
use circuit::gate::Gate;
use proptest::prelude::*;
use qsim::runner::{run_program_into, run_shot_into};
use qsim::sim::SimState;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use stabilizer::clifford::CliffordState;
use stabilizer::tableau::Tableau;

/// Plays `shots` shots both ways from `initial`, reusing one workspace
/// per side as the engine does, and compares everything a shot leaves.
fn assert_replay_equals_interpretation(circuit: &Circuit, initial: &CliffordState, shots: u64) {
    let program = CliffordState::compile(circuit);
    let (mut replayed, mut stepped) = (CliffordState::new(0), CliffordState::new(0));
    let (mut cbits_r, mut cbits_s) = (Vec::new(), Vec::new());
    for shot in 0..shots {
        let mut rng_r = StdRng::seed_from_u64(0xC11F ^ shot);
        let mut rng_s = rng_r.clone();
        run_program_into(&program, initial, &mut replayed, &mut cbits_r, &mut rng_r);
        run_shot_into(circuit, initial, &mut stepped, &mut cbits_s, &mut rng_s);
        assert_eq!(cbits_r, cbits_s, "records of shot {shot}");
        assert_eq!(
            rng_r.next_u64(),
            rng_s.next_u64(),
            "RNG position after shot {shot}"
        );
        assert_eq!(
            replayed.tableau(),
            stepped.tableau(),
            "tableau after shot {shot}"
        );
    }
}

fn distinct(n: usize, script: &mut StdRng) -> (usize, usize) {
    let a = script.random_range(0..n);
    (a, (a + script.random_range(1..n)) % n)
}

fn pauli(q: usize, script: &mut StdRng) -> Gate {
    [Gate::X, Gate::Y, Gate::Z][script.random_range(0..3usize)](q)
}

/// A random dynamic Clifford circuit with Pauli-only feedback: all nine
/// gates, X/Y/Z measurements with and without readout flips, resets,
/// conditional Paulis on 1–3-bit parities (cbits may repeat and may be
/// unwritten), 1- and 2-qubit depolarizing sites at p ∈ {0, 0.3, 1} —
/// and nothing stops a measured qubit from being used again. With
/// `measure == false` the circuit has no measurement or reset at all.
fn random_circuit(n: usize, len: usize, measure: bool, script: &mut StdRng) -> Circuit {
    let cbits = script.random_range(1..=6);
    let mut c = Circuit::new(n, cbits);
    for _ in 0..len {
        let q = script.random_range(0..n);
        let instr = match script.random_range(0..20) {
            0 | 1 => Instruction::Gate(Gate::H(q)),
            2 => Instruction::Gate(Gate::S(q)),
            3 => Instruction::Gate(Gate::Sdg(q)),
            4 => Instruction::Gate(pauli(q, script)),
            5..=8 if n > 1 => {
                let (a, b) = distinct(n, script);
                Instruction::Gate(match script.random_range(0..3) {
                    0 => Gate::Cx {
                        control: a,
                        target: b,
                    },
                    1 => Gate::Cz(a, b),
                    _ => Gate::Swap(a, b),
                })
            }
            9..=12 if measure => Instruction::Measure {
                qubit: q,
                cbit: script.random_range(0..cbits),
                basis: [Basis::Z, Basis::X, Basis::Y][script.random_range(0..3usize)],
                flip_prob: [0.0, 0.0, 0.25][script.random_range(0..3usize)],
            },
            13 if measure => Instruction::Reset(q),
            14..=16 => Instruction::Conditional {
                gate: pauli(q, script),
                parity_of: (0..script.random_range(1..=3))
                    .map(|_| script.random_range(0..cbits))
                    .collect(),
            },
            17..=19 => Instruction::Depolarizing {
                qubits: if n > 1 && script.random_range(0..2) == 0 {
                    let (a, b) = distinct(n, script);
                    vec![a, b]
                } else {
                    vec![q]
                },
                p: [0.0, 0.3, 1.0][script.random_range(0..3usize)],
            },
            _ => continue,
        };
        c.push(instr);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn replay_equals_interpretation_on_random_dynamic_circuits(n in 1usize..=70, seed in any::<u64>()) {
        let mut script = StdRng::seed_from_u64(seed);
        let measure = script.random_range(0..8) != 0;
        let circuit = random_circuit(n, 20 + 3 * n, measure, &mut script);
        prop_assert!(!circuit.required_caps().non_pauli_feedback);
        // The replay needs the x/z half of |0…0⟩, not its signs: start
        // every other case from a random computational basis state.
        let mut start = Tableau::new(n);
        if script.random_range(0..2) == 0 {
            for q in (0..n).filter(|_| script.random_range(0..2) == 0) {
                start.x_gate(q);
            }
        }
        assert_replay_equals_interpretation(&circuit, &CliffordState::from(start), 12);
    }
}

/// Teleportation with every correction conditioned on a *non-Pauli*
/// Clifford: what the corrections do to the x/z half depends on the
/// shot, so nothing is compiled and `run_program` must interpret.
#[test]
fn non_pauli_feedback_is_interpreted() {
    let mut c = Circuit::new(3, 3);
    c.h(1).cx(1, 2).cx(0, 1).h(0).measure(0, 0).measure(1, 1);
    for (gate, parity_of) in [
        (Gate::H(2), vec![0]),
        (Gate::S(2), vec![1]),
        (
            Gate::Cx {
                control: 2,
                target: 0,
            },
            vec![0, 1],
        ),
    ] {
        c.push(Instruction::Conditional { gate, parity_of });
    }
    c.measure_x(2, 2).reset(0).measure(0, 0);
    assert!(c.required_caps().non_pauli_feedback);
    assert_replay_equals_interpretation(&c, &CliffordState::new(3), 64);
}

/// A program is compiled against `|0…0⟩` of the circuit's width; handed
/// any other x/z half — an evolved state, or a wider register — it must
/// interpret. (Replaying would be visibly wrong here: from `|+⟩` the
/// first measurement is random, from `|0⟩` it is not.)
#[test]
fn states_the_program_was_not_compiled_against_are_interpreted() {
    let mut c = Circuit::new(2, 2);
    c.measure(0, 0).cond_x(1, &[0]).h(1).measure_x(1, 1);
    c.push(Instruction::Depolarizing {
        qubits: vec![0, 1],
        p: 0.5,
    });
    c.measure(0, 0);

    let mut evolved = Tableau::new(2);
    evolved.h(0);
    evolved.cx(0, 1);
    assert_replay_equals_interpretation(&c, &CliffordState::from(evolved), 64);

    let mut wider = Tableau::new(4);
    wider.h(3);
    wider.cx(3, 1);
    assert_replay_equals_interpretation(&c, &CliffordState::from(wider), 64);
    assert_replay_equals_interpretation(&c, &CliffordState::new(4), 64);

    // And the state it was compiled against replays — with any signs.
    let mut flipped = Tableau::new(2);
    flipped.x_gate(1);
    assert_replay_equals_interpretation(&c, &CliffordState::from(flipped), 64);
}

/// The widest circuit admission allows: 32-word row bitsets.
#[test]
fn a_1024_qubit_ghz_compiles_and_replays() {
    let n = 1024;
    let mut ghz = Circuit::new(n, n);
    ghz.h(0);
    for q in 1..n {
        ghz.cx(q - 1, q);
        ghz.push(Instruction::Depolarizing {
            qubits: vec![q - 1, q],
            p: 0.01,
        });
    }
    for q in 0..n {
        ghz.measure(q, q);
    }
    assert_replay_equals_interpretation(&ghz, &CliffordState::new(n), 1);
}
