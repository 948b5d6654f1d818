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
//!
//! ## The noiseless prefix: the same state in most shots
//!
//! A program's ops before its first `Measure`, `Reset` or
//! `Conditional` are kernels and `Depolarizing` sites only. A site
//! draws `u < p` ([`site_fires`]) and, if it fires, a Pauli code;
//! neither draw reads the state. So every shot whose prefix sites all
//! stay silent reaches the *same* state there, having drawn one uniform
//! per site. [`SimState::noiseless_prefix`] builds that state once per
//! plan, with the sites' probabilities and the op index where the rest
//! begins ([`NoiselessPrefix`]). A shot then draws its site tests on a
//! **clone** of its own stream ([`NoiselessPrefix::look_ahead`]):
//!
//! * no site fires — the shot adopts the advanced clone, copies the
//!   prefix's state and replays only the rest
//!   ([`SimState::run_program_from`]);
//! * a site fires — the shot replays the whole program on its untouched
//!   stream, exactly as without a prefix.
//!
//! Both arms draw the same values in the same order and apply the same
//! kernels to the same values (the prefix state is built by the very
//! replay that plays the kernels in a shot), so records, final states
//! and stream positions are those of the plain replay, bit for bit; a
//! state copy replaces the prefix's kernels.
//! [`run_program_into_from_prefix`](crate::runner::run_program_into_from_prefix)
//! is the one shot function that takes the choice.

use circuit::circuit::{Circuit, Instruction};
use rand::Rng;

use crate::amp::effective_workers;
use crate::compile::{CompiledCircuit, CompiledOp};
use crate::qrand::{pauli_gates, random_pauli_code, site_fires};
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

/// A job's noiseless prefix on one backend (module docs): the state its
/// program reaches before the first `Measure`, `Reset` or `Conditional`
/// when no site fires, the probabilities of the sites on the way, in
/// order, and the op index where the rest of the program begins. Built
/// once per plan by [`SimState::noiseless_prefix`].
#[derive(Debug, Clone, PartialEq)]
pub struct NoiselessPrefix<S> {
    state: S,
    sites: Vec<f64>,
    rest: usize,
}

impl<S> NoiselessPrefix<S> {
    /// The state after the prefix's kernels, no site firing.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// The op index where the rest of the program begins.
    pub fn rest(&self) -> usize {
        self.rest
    }

    /// Draws the prefix's site tests on a clone of `rng`. If none fires,
    /// `rng` adopts the advanced clone and the answer is `true`: the shot
    /// starts from [`NoiselessPrefix::state`] at op
    /// [`NoiselessPrefix::rest`]. If one fires, `rng` is untouched and
    /// the answer is `false`: the shot replays the whole program.
    pub fn look_ahead<R: Rng + Clone>(&self, rng: &mut R) -> bool {
        let mut ahead = rng.clone();
        if self.sites.iter().any(|&p| site_fires(p, &mut ahead)) {
            return false;
        }
        *rng = ahead;
        true
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

    /// Whether [`SimState::run_program_from`] actually splits one
    /// shot's work across threads. `false` (the default) means it is
    /// just [`SimState::run_program`], and the engine's amp-parallel
    /// policy never engages for this backend.
    const AMP_PARALLEL: bool = false;

    /// The noiseless prefix of `program` from `initial` (module docs),
    /// built once per plan with its state-space work split across up to
    /// `threads` workers (bit-identical at any count), or `None`: the
    /// default, for backends whose shots gain nothing from one — the
    /// stabilizer's sign replay does no per-shot tableau work, and the
    /// density matrix samples no noise.
    fn noiseless_prefix(
        program: &Self::Program,
        initial: &Self,
        threads: usize,
    ) -> Option<NoiselessPrefix<Self>> {
        let _ = (program, initial, threads);
        None
    }

    /// [`SimState::run_program`] from op `from` of `program` on, with
    /// the single shot's state-space work split across up to `threads`
    /// workers — **bit-identical** to the sequential replay at any
    /// thread count (callers rely on this for thread-count-invariant
    /// tallies). `from` is 0 for a whole shot and a
    /// [`NoiselessPrefix`]'s `rest` for one that starts from its state.
    /// A backend is only asked for the `rest` of a prefix its own
    /// [`SimState::noiseless_prefix`] built, so the default — for
    /// backends without a prefix or an amplitude-parallel path
    /// ([`SimState::AMP_PARALLEL`]` == false`) — plays the whole
    /// program sequentially.
    ///
    /// # Panics
    ///
    /// The default panics if `from` is not 0.
    fn run_program_from(
        &mut self,
        program: &Self::Program,
        from: usize,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        assert_eq!(from, 0, "{} builds no noiseless prefix", Self::NAME);
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
                if site_fires(*p, rng) {
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

    /// The prefix's state is the replay's own: its kernel runs, played
    /// by the driver that plays them in a shot, the sites skipped.
    /// `None` when no kernel precedes the program's first `Measure`,
    /// `Reset` or `Conditional` — a copy of `initial` saves nothing.
    fn noiseless_prefix(
        program: &CompiledCircuit,
        initial: &Self,
        threads: usize,
    ) -> Option<NoiselessPrefix<Self>> {
        let rest = program.prefix_end();
        let prefix = &program.ops()[..rest];
        let mut sites = Vec::new();
        for op in prefix {
            if let CompiledOp::Interp(Instruction::Depolarizing { p, .. }) = op {
                sites.push(*p);
            }
        }
        if sites.len() == prefix.len() {
            return None;
        }
        let mut state = initial.clone();
        let workers = effective_workers(threads, 1 << state.num_qubits());
        state.replay_kernels(program, rest, workers);
        Some(NoiselessPrefix { state, sites, rest })
    }

    fn run_program_from(
        &mut self,
        program: &CompiledCircuit,
        from: usize,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        let workers = effective_workers(threads, 1 << self.num_qubits());
        self.replay(program, from, cbits, rng, workers);
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
