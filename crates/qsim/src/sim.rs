//! The pluggable simulation-state contract behind the shot loop.
//!
//! Every shot-based workload in the workspace plays the same loop:
//! reset a state from a template, step it through the circuit's
//! instructions while recording classical bits, and (for backends whose
//! records are deferred) finalize the record once the last instruction
//! ran. [`SimState`] captures exactly that contract, so the `engine`
//! crate's executor, plans, and batch runner are generic over *what*
//! simulates a shot — statevector, density matrix, or stabilizer
//! tableau — while *how* shots execute (sequential or pooled) stays the
//! executor's policy. One surface, representation chosen at the
//! boundary; no per-backend API twins.
//!
//! Implementations in this workspace:
//!
//! * [`StateVector`] — trajectory sampling of arbitrary circuits
//!   (the workhorse, exponential in width, limited to 26 qubits);
//! * [`DensityMatrix`](crate::density::DensityMatrix) — exact
//!   deferred-measurement evolution; [`SimState::step`] consumes **no**
//!   randomness, and the classical record is sampled once from the
//!   final state's carrier qubits in [`SimState::finish`];
//! * `stabilizer::CliffordState` — Aaronson–Gottesman tableau shots for
//!   Clifford circuits, polynomial in width; its program replays only
//!   the tableau's sign bits per shot. It consumes the shot's RNG
//!   stream in the same per-instruction pattern as [`StateVector`], so
//!   Clifford circuits without sampling randomness tally identically on
//!   both backends under one root seed.
//!
//! ## Capability probes instead of mid-shot panics
//!
//! [`SimState::supports`] answers, *before any shot runs*, whether a
//! backend can execute a circuit — returning a typed
//! [`Unsupported`] error built on the shared classification
//! [`Circuit::required_caps`]. The shot loop itself only
//! `debug_assert!`s the probe; production runs route through
//! `engine::Backend`, which probes once at the boundary.

use circuit::circuit::{Circuit, Instruction};
use rand::Rng;

use crate::compile::CompiledCircuit;
use crate::qrand::{pauli_gates, random_pauli_code};
use crate::statevector::StateVector;

pub use circuit::caps::Unsupported;

/// A circuit lowered into a backend's executable form — the thing a
/// shot loop replays. Compiled **once** per plan (see
/// [`SimState::compile`]) and shared read-only across all shots and
/// workers.
///
/// Three implementations exist: [`Circuit`] itself (the identity
/// "program" of backends that re-interpret the instruction stream per
/// shot — the density matrix), [`CompiledCircuit`] (the statevector's
/// fused kernels) and `stabilizer::clifford::CliffordProgram` (the
/// tableau's x/z evolution run once, leaving per-shot sign ops).
pub trait SimProgram: std::fmt::Debug + Clone + Send + Sync {
    /// Number of qubits the program needs.
    fn num_qubits(&self) -> usize;
    /// Size of the classical register the program writes.
    fn num_cbits(&self) -> usize;
}

impl SimProgram for Circuit {
    fn num_qubits(&self) -> usize {
        Circuit::num_qubits(self)
    }

    fn num_cbits(&self) -> usize {
        Circuit::num_cbits(self)
    }
}

/// Replays a raw instruction stream through [`SimState::step`] — the
/// [`SimState::run_program`] body of every backend whose program type is
/// [`Circuit`] itself, and the fallback of the stabilizer's.
pub fn run_interpreted<S: SimState>(
    state: &mut S,
    circuit: &Circuit,
    cbits: &mut [bool],
    rng: &mut impl Rng,
) {
    for instr in circuit.instructions() {
        state.step(instr, cbits, rng);
    }
}

/// A simulation state that can play circuit shots.
///
/// The contract mirrors the shot loop of
/// [`run_shot_into`](crate::runner::run_shot_into):
///
/// 1. [`SimState::reset_from`] overwrites the state with a template,
///    reusing the allocation (per-worker buffer reuse in the engine);
/// 2. [`SimState::step`] executes one instruction, writing measurement
///    outcomes into the caller-owned classical register `cbits` and
///    drawing any randomness from the shot's private RNG stream;
/// 3. [`SimState::finish`] runs once after the last instruction —
///    backends with deferred records (density) sample them here.
///
/// [`SimState::supports`] is the capability probe: call it once per
/// circuit instead of letting a shot panic mid-run on an instruction
/// the representation cannot express.
pub trait SimState: Clone + Send + Sync {
    /// Short backend name used in diagnostics and [`Unsupported`]
    /// errors (`"statevector"`, `"density"`, `"stabilizer"`).
    const NAME: &'static str;

    /// The all-zeros state `|0…0⟩` on `num_qubits` qubits.
    fn prepare(num_qubits: usize) -> Self;

    /// Number of qubits this state covers.
    fn num_qubits(&self) -> usize;

    /// Overwrites this state with a copy of `initial`, reusing the
    /// existing allocation where possible.
    fn reset_from(&mut self, initial: &Self);

    /// Executes one instruction, recording measurement outcomes into
    /// `cbits` and sampling noise/outcomes from `rng`.
    ///
    /// # Panics
    ///
    /// May panic on instructions the representation cannot execute;
    /// probe with [`SimState::supports`] first.
    fn step(&mut self, instr: &Instruction, cbits: &mut [bool], rng: &mut impl Rng);

    /// Finalizes the classical record after the last instruction.
    /// Backends that produce records instruction-by-instruction leave
    /// this as the default no-op.
    fn finish(&mut self, _cbits: &mut [bool], _rng: &mut impl Rng) {}

    /// Whether this backend can execute `circuit`, decided **before**
    /// any shot runs. `Err` carries the backend name and the reason.
    fn supports(circuit: &Circuit) -> Result<(), Unsupported>;

    /// The lowered form replayed by [`SimState::run_program`]. Backends
    /// without a compiler use [`Circuit`] itself; the statevector lowers
    /// to fused kernels ([`CompiledCircuit`]), the stabilizer tableau to
    /// sign ops.
    type Program: SimProgram;

    /// Lowers `circuit` once per plan; the shot loop replays the result
    /// via [`SimState::run_program`] instead of re-interpreting the
    /// instruction stream every shot.
    fn compile(circuit: &Circuit) -> Self::Program;

    /// Plays every instruction of `program` — the compiled counterpart
    /// of stepping each instruction of the source circuit. Must consume
    /// `rng` in exactly the interpreted order so compiled and
    /// interpreted shots are record-identical per seed; does **not**
    /// call [`SimState::finish`] (the loop entry points do).
    fn run_program(&mut self, program: &Self::Program, cbits: &mut [bool], rng: &mut impl Rng);

    /// Whether [`SimState::run_program_parallel`] actually splits one
    /// shot's work across threads. `false` (the default) means the
    /// parallel entry point is just [`SimState::run_program`], and the
    /// engine's amp-parallel policy never engages for this backend.
    const AMP_PARALLEL: bool = false;

    /// [`SimState::run_program`] with the single shot's state-space
    /// work split across up to `threads` workers — **bit-identical**
    /// to the sequential replay at any thread count (callers rely on
    /// this for thread-count-invariant tallies). Backends without an
    /// amplitude-parallel path (every backend with
    /// [`SimState::AMP_PARALLEL`]` == false`) fall back to the
    /// sequential replay.
    fn run_program_parallel(
        &mut self,
        program: &Self::Program,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        let _ = threads;
        self.run_program(program, cbits, rng);
    }
}

impl SimState for StateVector {
    const NAME: &'static str = "statevector";

    fn prepare(num_qubits: usize) -> Self {
        StateVector::new(num_qubits)
    }

    fn num_qubits(&self) -> usize {
        StateVector::num_qubits(self)
    }

    fn reset_from(&mut self, initial: &Self) {
        self.copy_from(initial);
    }

    fn step(&mut self, instr: &Instruction, cbits: &mut [bool], rng: &mut impl Rng) {
        match instr {
            Instruction::Gate(g) => self.apply_gate(g),
            Instruction::Measure {
                qubit,
                cbit,
                basis,
                flip_prob,
            } => {
                let outcome = self.measure(*qubit, *basis, rng);
                let flipped = *flip_prob > 0.0 && rng.random::<f64>() < *flip_prob;
                cbits[*cbit] = outcome ^ flipped;
            }
            Instruction::Reset(q) => self.reset(*q, rng),
            Instruction::Conditional { gate, parity_of } => {
                let parity = parity_of.iter().fold(false, |acc, &c| acc ^ cbits[c]);
                if parity {
                    self.apply_gate(gate);
                }
            }
            Instruction::Depolarizing { qubits, p } => {
                if rng.random::<f64>() < *p {
                    for gate in pauli_gates(random_pauli_code(qubits.len(), rng), qubits) {
                        self.apply_gate(&gate);
                    }
                }
            }
        }
    }

    fn supports(circuit: &Circuit) -> Result<(), Unsupported> {
        if circuit.num_qubits() > 26 {
            return Err(Unsupported::new(
                Self::NAME,
                format!(
                    "{} qubits exceed the 26-qubit statevector limit",
                    circuit.num_qubits()
                ),
            ));
        }
        Ok(())
    }

    type Program = CompiledCircuit;

    fn compile(circuit: &Circuit) -> CompiledCircuit {
        crate::compile::compile(circuit)
    }

    fn run_program(&mut self, program: &CompiledCircuit, cbits: &mut [bool], rng: &mut impl Rng) {
        self.apply_compiled(program, cbits, rng);
    }

    const AMP_PARALLEL: bool = true;

    fn run_program_parallel(
        &mut self,
        program: &CompiledCircuit,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        self.apply_compiled_parallel(program, cbits, rng, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn statevector_supports_everything_within_width() {
        let mut c = Circuit::new(3, 1);
        c.t(0).ccx(0, 1, 2).measure(2, 0);
        assert!(StateVector::supports(&c).is_ok());
        let wide = Circuit::new(27, 0);
        let err = StateVector::supports(&wide).unwrap_err();
        assert_eq!(err.backend, "statevector");
    }

    #[test]
    fn statevector_step_matches_runner_semantics() {
        // Stepping instruction-by-instruction reproduces run_shot_into.
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        for seed in 0..20 {
            let initial = StateVector::prepare(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = StateVector::prepare(0);
            state.reset_from(&initial);
            let mut cbits = vec![false; c.num_cbits()];
            for instr in c.instructions() {
                state.step(instr, &mut cbits, &mut rng);
            }
            state.finish(&mut cbits, &mut rng);

            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut state2 = StateVector::prepare(0);
            let mut cbits2 = Vec::new();
            crate::runner::run_shot_into(&c, &initial, &mut state2, &mut cbits2, &mut rng2);
            assert_eq!(cbits, cbits2);
            assert_eq!(state, state2);
        }
    }
}
