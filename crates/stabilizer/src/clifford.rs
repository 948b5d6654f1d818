//! [`CliffordState`]: the stabilizer backend of the workspace-wide
//! [`SimState`] contract.
//!
//! Wraps a [`Tableau`] so that Clifford circuits — GHZ preparation,
//! fanout gadgets, teleportation, anything the paper's §5.1/§5.3
//! analyses touch — run through the *same* shot loop
//! (`qsim::runner::run_shot_into`, `engine::Executor::sample_shots`,
//! `engine::Backend`) as the statevector and density backends, in
//! polynomial instead of `O(2ⁿ)` time. The sibling
//! [`FrameSimulator`](crate::frame::FrameSimulator) covers the other
//! half of the stabilizer toolbox — `O(n)` residual-error sampling of
//! *noisy-vs-ideal* runs — while `CliffordState` produces the actual
//! measurement records of one run.
//!
//! ## Sign-only replay
//!
//! In a tableau only the `2n` sign bits differ from shot to shot: as
//! long as every classically conditioned gate is a Pauli (noise sites
//! always are), pivots, row sums and every x/z update read the x/z half
//! alone (see [`crate::tableau`]), so that half evolves identically in
//! every shot. [`SimState::compile`] therefore runs the circuit's x/z
//! steps **once**, from `|0…0⟩`, and keeps what each step does to the
//! signs — a [`CliffordProgram`]; [`SimState::run_program`] replays those
//! sign ops on the shot's `2n` bits and then takes over the program's
//! final x/z half, leaving the very tableau interpretation would have.
//!
//! Whether the replay applies is decided from what is in hand, never
//! from a setting: the circuit has only Pauli feedback (otherwise no
//! sign ops were compiled), *and* the state handed to `run_program`
//! still has the x/z half the program was compiled against — `|0…0⟩` of
//! the circuit's width with any signs, which is what a shot loop resets
//! to. Any other state (evolved, or wider than the circuit) runs the
//! program's circuit through [`SimState::step`], which is also the
//! differential reference (`run_shot_into`, `sample_shots_interpreted`).
//!
//! ## Randomness alignment — the contract
//!
//! [`SimState::step`] consumes the shot's RNG stream in the **same
//! per-instruction pattern** as the statevector backend, and the replay
//! in exactly `step`'s: one `f64` per measurement and per reset whether
//! or not the outcome is random (resolved as `u < 0.5` only when it
//! is), a conditional `f64` per readout-flip site, and per depolarizing
//! site `random::<f64>() < p`, then — if it fires — the one
//! `random_range` of `qsim::qrand::random_pauli_code`, decoded by the
//! shared `pauli_gates`. Clifford circuits whose records are
//! deterministic therefore tally identically on both backends for one
//! root seed, and even random measurements resolve identically up to the
//! (≈10⁻¹⁶) rounding of the statevector's outcome probabilities —
//! asserted by the workspace's cross-backend agreement tests — while
//! replay and interpretation agree bit for bit, RNG stream position
//! included.

use circuit::circuit::{Circuit, Instruction};
use circuit::gate::Gate;
use qsim::qrand::{pauli_gates, random_pauli_code};
use qsim::sim::{run_interpreted, SimProgram, SimState, Unsupported};
use rand::Rng;

use crate::tableau::{basis_change, flip, Tableau, Xz, ZMeasurement};

/// A stabilizer simulation state: a Clifford tableau playing the role
/// of the statevector in the generic shot loop.
#[derive(Debug, Clone)]
pub struct CliffordState {
    tableau: Tableau,
}

impl CliffordState {
    /// The all-zeros state `|0…0⟩` on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        CliffordState {
            tableau: Tableau::new(num_qubits),
        }
    }

    /// The underlying tableau.
    pub fn tableau(&self) -> &Tableau {
        &self.tableau
    }
}

impl From<Tableau> for CliffordState {
    fn from(tableau: Tableau) -> Self {
        CliffordState { tableau }
    }
}

fn parity(of: &[usize], cbits: &[bool]) -> bool {
    of.iter().fold(false, |acc, &c| acc ^ cbits[c])
}

/// Whether a measurement's recorded outcome is flipped: one draw, and
/// only at sites that can flip.
fn readout_flipped(flip_prob: f64, rng: &mut impl Rng) -> bool {
    flip_prob > 0.0 && rng.random::<f64>() < flip_prob
}

/// One instruction's effect on the sign bits, with everything the x/z
/// half decides already decided. A mask is an offset into
/// [`Replay::masks`], where it takes `W` words.
#[derive(Debug, Clone)]
enum SignOp {
    /// `r ^= mask`: the folded sign flips of a run of gates.
    Flip { mask: usize },
    /// A conditional Pauli: `r ^= mask` when the parity of the cbits is odd.
    FlipIf { mask: usize, parity_of: Vec<usize> },
    /// A depolarizing site on `arity` qubits: with probability `p`,
    /// `r ^= table[code]` for the drawn Pauli code (one mask per code).
    Depolarize { p: f64, arity: usize, table: usize },
    /// A measurement into `cbit`, already rotated onto Z.
    Measure {
        z: ZMeasurement,
        cbit: usize,
        flip_prob: f64,
    },
    /// A reset: Z-measurement, then `r ^= fix` (the `X` gate) on outcome 1.
    Reset { z: ZMeasurement, fix: usize },
}

/// The sign ops of a circuit whose x/z evolution no shot can change.
#[derive(Debug, Clone)]
struct Replay {
    /// The x/z half the ops were read off: `|0…0⟩` of the circuit's width.
    from: Xz,
    ops: Vec<SignOp>,
    /// Every op's row masks, back to back.
    masks: Vec<u64>,
    /// The x/z half after the last instruction.
    to: Xz,
}

impl Replay {
    /// Runs `circuit`'s x/z steps from `|0…0⟩` and keeps their sign ops;
    /// `None` when a shot can change them (a conditional non-Pauli gate)
    /// or the tableau cannot run the circuit at all.
    fn compile(circuit: &Circuit) -> Option<Replay> {
        let from = Xz::new(circuit.num_qubits());
        let mut xz = from.clone();
        let w = xz.words();
        let mut ops = Vec::with_capacity(circuit.instructions().len());
        let mut masks = Vec::new();
        // Appends a zeroed mask and returns its offset.
        let blank = |masks: &mut Vec<u64>, words: usize| {
            masks.resize(masks.len() + words, 0);
            masks.len() - words
        };
        // Sign flips of unconditional gates commute with everything but a
        // measurement (the only op that reads `r`), so they fold into one
        // constant until the next one.
        let mut constant = vec![0; w];
        let flush = |constant: &mut [u64], masks: &mut Vec<u64>, ops: &mut Vec<SignOp>| {
            if constant.iter().any(|&word| word != 0) {
                ops.push(SignOp::Flip { mask: masks.len() });
                masks.extend_from_slice(constant);
                constant.fill(0);
            }
        };
        for instr in circuit.instructions() {
            match instr {
                Instruction::Gate(gate) => xz.gate(gate, &mut constant).ok()?,
                Instruction::Measure {
                    qubit,
                    cbit,
                    basis,
                    flip_prob,
                } => {
                    let (to_z, back) = basis_change(*basis);
                    for gate in to_z {
                        xz.gate(&gate(*qubit), &mut constant).ok()?;
                    }
                    flush(&mut constant, &mut masks, &mut ops);
                    ops.push(SignOp::Measure {
                        z: xz.measure_z(*qubit, &mut masks),
                        cbit: *cbit,
                        flip_prob: *flip_prob,
                    });
                    for gate in back {
                        xz.gate(&gate(*qubit), &mut constant).ok()?;
                    }
                }
                Instruction::Reset(q) => {
                    flush(&mut constant, &mut masks, &mut ops);
                    let z = xz.measure_z(*q, &mut masks);
                    let fix = blank(&mut masks, w);
                    xz.gate(&Gate::X(*q), &mut masks[fix..]).ok()?;
                    ops.push(SignOp::Reset { z, fix });
                }
                Instruction::Conditional { gate, parity_of } => {
                    if !gate.is_pauli() {
                        return None;
                    }
                    let mask = blank(&mut masks, w);
                    xz.gate(gate, &mut masks[mask..]).ok()?;
                    ops.push(SignOp::FlipIf {
                        mask,
                        parity_of: parity_of.clone(),
                    });
                }
                Instruction::Depolarizing { qubits, p } => {
                    // One mask per Pauli code, the identity's (0) left blank.
                    let table = blank(&mut masks, w << (2 * qubits.len()));
                    for (code, mask) in masks[table..].chunks_exact_mut(w).enumerate() {
                        for gate in pauli_gates(code, qubits) {
                            xz.gate(&gate, mask).ok()?;
                        }
                    }
                    ops.push(SignOp::Depolarize {
                        p: *p,
                        arity: qubits.len(),
                        table,
                    });
                }
            }
        }
        flush(&mut constant, &mut masks, &mut ops);
        Some(Replay {
            from,
            ops,
            masks,
            to: xz,
        })
    }

    /// Plays one shot on the sign bits `r`, drawing from `rng` in
    /// exactly [`CliffordState::step`]'s order.
    fn run(&self, r: &mut [u64], cbits: &mut [bool], rng: &mut impl Rng) {
        let w = r.len();
        let mask = |at: usize| &self.masks[at..at + w];
        for op in &self.ops {
            match op {
                SignOp::Flip { mask: at } => flip(r, mask(*at)),
                SignOp::FlipIf {
                    mask: at,
                    parity_of,
                } => {
                    if parity(parity_of, cbits) {
                        flip(r, mask(*at));
                    }
                }
                SignOp::Depolarize { p, arity, table } => {
                    if rng.random::<f64>() < *p {
                        let code = random_pauli_code(*arity, rng);
                        flip(r, mask(table + code * w));
                    }
                }
                SignOp::Measure { z, cbit, flip_prob } => {
                    let u = rng.random::<f64>();
                    let outcome = z.apply(&self.masks, r, || u < 0.5);
                    cbits[*cbit] = outcome ^ readout_flipped(*flip_prob, rng);
                }
                SignOp::Reset { z, fix } => {
                    let u = rng.random::<f64>();
                    if z.apply(&self.masks, r, || u < 0.5) {
                        flip(r, mask(*fix));
                    }
                }
            }
        }
    }
}

/// A Clifford circuit lowered for [`CliffordState`]: the circuit itself,
/// plus — when every conditioned gate is a Pauli — its sign ops, compiled
/// once against the x/z half of `|0…0⟩` (see the module docs).
#[derive(Debug, Clone)]
pub struct CliffordProgram {
    circuit: Circuit,
    replay: Option<Replay>,
}

impl SimProgram for CliffordProgram {
    fn num_qubits(&self) -> usize {
        self.circuit.num_qubits()
    }

    fn num_cbits(&self) -> usize {
        self.circuit.num_cbits()
    }
}

impl SimState for CliffordState {
    const NAME: &'static str = "stabilizer";

    fn prepare(num_qubits: usize) -> Self {
        CliffordState::new(num_qubits)
    }

    fn num_qubits(&self) -> usize {
        self.tableau.num_qubits()
    }

    fn reset_from(&mut self, initial: &Self) {
        self.tableau.copy_from(&initial.tableau);
    }

    fn step(&mut self, instr: &Instruction, cbits: &mut [bool], rng: &mut impl Rng) {
        let unsupported =
            |e: Unsupported| -> ! { panic!("{e} (probe CliffordState::supports first)") };
        match instr {
            Instruction::Gate(g) => self
                .tableau
                .apply_gate(g)
                .unwrap_or_else(|e| unsupported(e)),
            Instruction::Measure {
                qubit,
                cbit,
                basis,
                flip_prob,
            } => {
                // One uniform per measurement, drawn unconditionally —
                // the statevector backend's exact consumption pattern —
                // resolving the outcome only when it is genuinely
                // random (where the statevector's threshold is 1/2 up
                // to amplitude rounding).
                let u = rng.random::<f64>();
                let outcome = self.tableau.measure_with(*qubit, *basis, || u < 0.5);
                cbits[*cbit] = outcome ^ readout_flipped(*flip_prob, rng);
            }
            Instruction::Reset(q) => {
                let u = rng.random::<f64>();
                if self.tableau.measure_z_with(*q, || u < 0.5) {
                    self.tableau.x_gate(*q);
                }
            }
            Instruction::Conditional { gate, parity_of } => {
                if parity(parity_of, cbits) {
                    self.tableau
                        .apply_gate(gate)
                        .unwrap_or_else(|e| unsupported(e));
                }
            }
            Instruction::Depolarizing { qubits, p } => {
                if rng.random::<f64>() < *p {
                    let code = random_pauli_code(qubits.len(), rng);
                    for gate in pauli_gates(code, qubits) {
                        self.tableau
                            .apply_gate(&gate)
                            .unwrap_or_else(|e| unsupported(e));
                    }
                }
            }
        }
    }

    fn supports(circuit: &Circuit) -> Result<(), Unsupported> {
        if circuit.is_clifford() {
            Ok(())
        } else {
            Err(Unsupported::new(
                Self::NAME,
                "circuit contains non-Clifford gates (T/rotations/Toffoli/CSWAP)",
            ))
        }
    }

    type Program = CliffordProgram;

    fn compile(circuit: &Circuit) -> CliffordProgram {
        CliffordProgram {
            circuit: circuit.clone(),
            replay: Replay::compile(circuit),
        }
    }

    fn run_program(&mut self, program: &CliffordProgram, cbits: &mut [bool], rng: &mut impl Rng) {
        match &program.replay {
            Some(replay) if *self.tableau.xz() == replay.from => {
                replay.run(self.tableau.signs_mut(), cbits, rng);
                self.tableau.set_xz(&replay.to);
            }
            _ => run_interpreted(self, &program.circuit, cbits, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::runner::{pack_cbits, run_shot_into, sample_shots};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn supports_mirrors_circuit_classification() {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        assert!(CliffordState::supports(&c).is_ok());
        c.t(0);
        let err = CliffordState::supports(&c).unwrap_err();
        assert_eq!(err.backend, "stabilizer");
    }

    #[test]
    fn sign_ops_are_compiled_exactly_when_no_shot_can_change_the_xz_half() {
        let replays = |c: &Circuit| CliffordState::compile(c).replay.is_some();
        let mut c = Circuit::new(2, 2);
        c.h(0)
            .cx(0, 1)
            .measure_x(0, 0)
            .cond_z(1, &[0, 0, 1])
            .reset(0);
        c.push(Instruction::Depolarizing {
            qubits: vec![0, 1],
            p: 0.5,
        });
        assert!(replays(&c));
        // Conditional non-Pauli, non-Clifford, and a gate the tableau
        // rejects: all left to interpretation (and its typed panics).
        let mut feedback = c.clone();
        feedback.push(Instruction::Conditional {
            gate: Gate::H(1),
            parity_of: vec![0],
        });
        assert!(!replays(&feedback));
        let mut magic = c.clone();
        magic.t(0);
        assert!(!replays(&magic));
        let mut degenerate = c.clone();
        degenerate.cx(1, 1);
        assert!(!replays(&degenerate));
    }

    #[test]
    fn bell_shots_are_correlated_and_conserved() {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let mut rng = StdRng::seed_from_u64(12);
        let counts = sample_shots(&c, &CliffordState::new(2), 400, &mut rng);
        assert_eq!(counts.values().sum::<usize>(), 400);
        for key in counts.keys() {
            assert!(*key == 0 || *key == 3, "unexpected record {key}");
        }
        assert!(counts.len() == 2, "both outcomes should appear");
    }

    #[test]
    fn teleportation_conditionals_fire_through_the_generic_loop() {
        // |1⟩ teleported: records force the X correction, and measuring
        // the receiver confirms the state arrived.
        let mut c = Circuit::new(3, 3);
        c.x(0);
        c.h(1).cx(1, 2);
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.cond_x(2, &[1]).cond_z(2, &[0]);
        c.measure(2, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let initial = CliffordState::new(3);
        let mut state = CliffordState::new(0);
        let mut cbits = Vec::new();
        for _ in 0..50 {
            run_shot_into(&c, &initial, &mut state, &mut cbits, &mut rng);
            assert!(cbits[2], "teleported |1⟩ must measure 1");
        }
        let _ = pack_cbits(&cbits);
    }

    #[test]
    fn reset_from_reuses_the_workspace() {
        let mut c = Circuit::new(1, 1);
        c.h(0).measure(0, 0);
        let initial = CliffordState::new(1);
        let mut ws = CliffordState::new(0);
        let mut cbits = Vec::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 2];
        for _ in 0..40 {
            run_shot_into(&c, &initial, &mut ws, &mut cbits, &mut rng);
            seen[usize::from(cbits[0])] = true;
        }
        assert!(seen[0] && seen[1], "|+⟩ must measure both outcomes");
    }
}
