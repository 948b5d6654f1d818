//! Shot-based execution of circuits on any [`SimState`] backend.
//!
//! [`run_shot`] plays one circuit through once on the statevector,
//! sampling measurements and noise sites; [`run_shot_into`] is the
//! allocation-free core, generic over the simulation representation
//! ([`SimState`]: statevector, density matrix, or — via the
//! `stabilizer` crate — Clifford tableau); [`sample_shots`] repeats it
//! and tallies classical records. This is the Rust counterpart of the
//! paper's use of Qiskit's shot-based simulator (§5.2).
//!
//! ```
//! use circuit::circuit::Circuit;
//! use qsim::runner::sample_shots;
//! use qsim::statevector::StateVector;
//! use rand::SeedableRng;
//!
//! let mut c = Circuit::new(1, 1);
//! c.h(0).measure(0, 0);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let counts = sample_shots(&c, &StateVector::new(1), 200, &mut rng);
//! assert_eq!(counts.values().sum::<usize>(), 200);
//! ```

use circuit::circuit::{Circuit, Instruction};
use rand::Rng;
use std::collections::HashMap;

use crate::sim::{NoiselessPrefix, SimProgram, SimState, Walk};
use crate::statevector::StateVector;

/// Result of playing a circuit once.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotOutcome {
    /// Final pure state after all collapses.
    pub state: StateVector,
    /// Classical register contents (index = classical bit).
    pub cbits: Vec<bool>,
}

impl ShotOutcome {
    /// Packs the classical bits into an integer, bit 0 least significant.
    pub fn cbits_as_usize(&self) -> usize {
        pack_cbits(&self.cbits)
    }
}

/// Plays `circuit` once starting from `initial`, sampling measurement
/// outcomes, readout flips, and depolarizing sites with `rng`.
///
/// # Panics
///
/// Panics if the circuit needs more qubits than `initial` has.
pub fn run_shot(circuit: &Circuit, initial: &StateVector, rng: &mut impl Rng) -> ShotOutcome {
    // Seed the scratch with the trivial state; run_shot_into's copy_from
    // performs the single real copy of `initial`.
    let mut state = StateVector::new(0);
    let mut cbits = Vec::new();
    run_shot_into(circuit, initial, &mut state, &mut cbits, rng);
    ShotOutcome { state, cbits }
}

/// Allocation-free variant of [`run_shot`]: plays `circuit` once into
/// caller-owned buffers, so hot loops (and the `engine` crate's
/// per-worker state reuse) avoid a state allocation per shot.
///
/// Generic over the simulation representation: any [`SimState`] works —
/// the statevector trajectory sampler, the deferred-measurement density
/// matrix, or the stabilizer crate's Clifford tableau. `state` is
/// overwritten with a copy of `initial` (reusing its allocation when
/// the sizes match) and then stepped through every instruction; `cbits`
/// is resized to the circuit's classical register and receives the
/// shot's record (via [`SimState::step`] and, for deferred-record
/// backends, [`SimState::finish`]).
///
/// # Panics
///
/// Panics if the circuit needs more qubits than `initial` has, or —
/// mid-shot, from the backend — on circuits the backend rejects. This
/// per-shot kernel deliberately does **not** re-probe the circuit;
/// loop entry points ([`sample_shots`], the engine's plans and
/// executor) probe [`SimState::supports`] once per circuit instead.
pub fn run_shot_into<S: SimState>(
    circuit: &Circuit,
    initial: &S,
    state: &mut S,
    cbits: &mut Vec<bool>,
    rng: &mut impl Rng,
) {
    assert!(
        circuit.num_qubits() <= initial.num_qubits(),
        "circuit needs {} qubits but the state has {}",
        circuit.num_qubits(),
        initial.num_qubits()
    );
    state.reset_from(initial);
    cbits.clear();
    cbits.resize(circuit.num_cbits(), false);
    crate::sim::run_interpreted(state, circuit, cbits, rng);
    state.finish(cbits, rng);
}

/// Compiled counterpart of [`run_shot_into`]: plays one shot of a
/// program lowered once by [`SimState::compile`], into caller-owned
/// buffers. The hot path of the engine crate's plans and executor —
/// enum dispatch, index arithmetic, and fusion analysis all happened at
/// compile time, and the program is shared read-only across shots and
/// workers.
///
/// Record-identical to [`run_shot_into`] on the source circuit for the
/// same RNG stream: interpretation points inside the program consume
/// randomness in exactly the interpreted order.
///
/// # Panics
///
/// Panics if the program needs more qubits than `initial` has.
pub fn run_program_into<S: SimState>(
    program: &S::Program,
    initial: &S,
    state: &mut S,
    cbits: &mut Vec<bool>,
    rng: &mut impl Rng,
) {
    assert!(
        program.num_qubits() <= initial.num_qubits(),
        "program needs {} qubits but the state has {}",
        program.num_qubits(),
        initial.num_qubits()
    );
    state.reset_from(initial);
    cbits.clear();
    cbits.resize(program.num_cbits(), false);
    state.run_program(program, cbits, rng);
    state.finish(cbits, rng);
}

/// [`run_program_into`] with the shot's state-space work split across
/// up to `threads` workers (see [`SimState::run_program_from`]) —
/// bit-identical to the sequential variant at any thread count: the
/// prefix-free case of [`run_program_into_from_prefix`], for callers
/// that time or check one amp-parallel shot on its own. The engine's
/// shot loops call [`run_program_into_from_prefix`] directly.
///
/// # Panics
///
/// Panics if the program needs more qubits than `initial` has.
pub fn run_program_into_parallel<S: SimState, R: Rng + Clone>(
    program: &S::Program,
    initial: &S,
    state: &mut S,
    cbits: &mut Vec<bool>,
    rng: &mut R,
    threads: usize,
) {
    run_program_into_from_prefix(program, initial, None, state, cbits, rng, threads);
}

/// The one shot function that may start from the job's noiseless
/// prefix (see [`crate::sim`]): with `prefix` given and none of its
/// sites firing on the look-ahead ([`NoiselessPrefix::look_ahead`]),
/// the shot walks the prefix's tree of branch states and copies the
/// state where it leaves it, replaying only the ops from there;
/// otherwise it replays the whole program from `initial` on the
/// untouched stream. Either way the record, the final state and the
/// stream position are [`run_program_into`]'s, and the state-space work
/// is split across up to `threads` workers. Returns where the shot
/// started ([`Walk`]) — `None` without a prefix.
///
/// # Panics
///
/// Panics if the program needs more qubits than `initial` has.
pub fn run_program_into_from_prefix<S: SimState, R: Rng + Clone>(
    program: &S::Program,
    initial: &S,
    prefix: Option<&NoiselessPrefix<S>>,
    state: &mut S,
    cbits: &mut Vec<bool>,
    rng: &mut R,
    threads: usize,
) -> Option<Walk> {
    assert!(
        program.num_qubits() <= initial.num_qubits(),
        "program needs {} qubits but the state has {}",
        program.num_qubits(),
        initial.num_qubits()
    );
    cbits.clear();
    cbits.resize(program.num_cbits(), false);
    let (start, from, walk) = match prefix {
        None => (initial, 0, None),
        Some(prefix) if !prefix.look_ahead(rng) => (initial, 0, Some(Walk::Fallback)),
        Some(prefix) => {
            let (start, from, walk) = prefix.walk(program, cbits, rng);
            (start, from, Some(walk))
        }
    };
    state.reset_from(start);
    state.run_program_from(program, from, cbits, rng, threads);
    state.finish(cbits, rng);
    walk
}

/// Packs a classical register into an integer, bit 0 least significant —
/// the histogram key convention shared with [`ShotOutcome::cbits_as_usize`].
pub fn pack_cbits(cbits: &[bool]) -> usize {
    cbits
        .iter()
        .enumerate()
        .fold(0, |acc, (i, &b)| acc | (usize::from(b) << i))
}

/// Runs `shots` repetitions and histograms the classical register,
/// keyed by the packed integer of [`ShotOutcome::cbits_as_usize`].
///
/// Generic over the [`SimState`] backend, like [`run_shot_into`].
///
/// This is the **single-stream reference primitive**: one RNG stream
/// drives every shot in order, with per-shot state buffers reused.
/// Production sampling workloads should go through the `engine` crate's
/// execution context instead — `engine::Executor::sample_shots` is the
/// executor-backed equivalent of this function, running each shot on a
/// deterministic derived seed stream so counts are bit-identical whether
/// the context is sequential or pooled — with `engine::Backend` as the
/// runtime backend selector.
pub fn sample_shots<S: SimState>(
    circuit: &Circuit,
    initial: &S,
    shots: usize,
    rng: &mut impl Rng,
) -> HashMap<usize, usize> {
    debug_assert!(
        S::supports(circuit).is_ok(),
        "{}",
        S::supports(circuit).unwrap_err()
    );
    let mut counts = HashMap::new();
    let mut state = initial.clone();
    let mut cbits = Vec::new();
    for _ in 0..shots {
        run_shot_into(circuit, initial, &mut state, &mut cbits, rng);
        *counts.entry(pack_cbits(&cbits)).or_insert(0) += 1;
    }
    counts
}

/// Runs a measurement-free circuit and returns the final state. A
/// convenience for preparing states with noiseless sub-circuits.
///
/// # Panics
///
/// Panics if the circuit contains measurements, resets, conditionals, or
/// noise sites (anything needing randomness).
pub fn run_unitary(circuit: &Circuit, initial: &StateVector) -> StateVector {
    let mut state = initial.clone();
    for instr in circuit.instructions() {
        match instr {
            Instruction::Gate(g) => state.apply_gate(g),
            other => panic!("run_unitary cannot execute {other:?}"),
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::circuit::Basis;
    use circuit::gate::Gate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn teleportation_circuit_moves_state() {
        // Teleport Ry(0.9)|0⟩ from qubit 0 to qubit 2 (Fig. 1a).
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..25 {
            let mut prep = Circuit::new(3, 0);
            prep.ry(0, 0.9);
            let mut c = Circuit::new(3, 2);
            c.h(1).cx(1, 2); // Bell pair (1,2)
            c.cx(0, 1).h(0);
            c.measure(0, 0).measure(1, 1);
            c.cond_x(2, &[1]).cond_z(2, &[0]);

            let init = run_unitary(&prep, &StateVector::new(3));
            let out = run_shot(&c, &init, &mut rng);

            // Expected state on qubit 2.
            let mut want = StateVector::new(1);
            want.apply_gate(&Gate::Ry(0, 0.9));
            // Compare conditional probabilities on qubit 2.
            let p1 = out.state.probability_of_one(2);
            let want_p1 = want.probability_of_one(0);
            assert!(
                (p1 - want_p1).abs() < 1e-10,
                "teleported probability mismatch: {p1} vs {want_p1}"
            );
        }
    }

    #[test]
    fn conditional_parity_of_two_bits() {
        // Flip qubit 1 iff c0 XOR c1 = 1. Prepare |10⟩ measurement pattern.
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Circuit::new(3, 2);
        c.x(0);
        c.measure(0, 0).measure(1, 1); // c = (1, 0) ⇒ parity 1
        c.cond_x(2, &[0, 1]);
        c.measure(2, 0); // reuse c0 for the check
        let out = run_shot(&c, &StateVector::new(3), &mut rng);
        assert!(out.cbits[0], "parity-conditioned X must fire");
    }

    #[test]
    fn readout_flip_probability_is_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = Circuit::new(1, 1);
        c.push(Instruction::Measure {
            qubit: 0,
            cbit: 0,
            basis: Basis::Z,
            flip_prob: 1.0,
        });
        // State |0⟩ but the record always flips to 1.
        let out = run_shot(&c, &StateVector::new(1), &mut rng);
        assert!(out.cbits[0]);
        // The *state* still collapsed to the true outcome |0⟩.
        assert!(out.state.probability_of_one(0) < 1e-12);
    }

    #[test]
    fn depolarizing_with_p_one_changes_state() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut c = Circuit::new(1, 0);
        c.push(Instruction::Depolarizing {
            qubits: vec![0],
            p: 1.0,
        });
        // With p = 1, a uniform non-identity Pauli is applied; Z leaves
        // |0⟩ fixed, X and Y flip it. Over many shots, ~2/3 flip.
        let mut flips = 0;
        for _ in 0..900 {
            let out = run_shot(&c, &StateVector::new(1), &mut rng);
            if out.state.probability_of_one(0) > 0.5 {
                flips += 1;
            }
        }
        let frac = flips as f64 / 900.0;
        assert!((frac - 2.0 / 3.0).abs() < 0.06, "flip fraction {frac}");
    }

    #[test]
    fn sample_shots_total_is_conserved() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let counts = sample_shots(&c, &StateVector::new(2), 500, &mut rng);
        assert_eq!(counts.values().sum::<usize>(), 500);
        // Bell state: only records 00 (=0) and 11 (=3).
        for key in counts.keys() {
            assert!(*key == 0 || *key == 3, "unexpected record {key}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot execute")]
    fn run_unitary_rejects_measurement() {
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0);
        let _ = run_unitary(&c, &StateVector::new(1));
    }
}
