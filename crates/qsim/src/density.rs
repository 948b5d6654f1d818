//! Exact density-matrix simulation.
//!
//! [`DensityMatrix`] evolves a mixed state under unitaries and the noise
//! channels of the paper's §5: depolarizing channels (Eq. 5), classical
//! readout flips, and reset. Feed-forward circuits (teleportation, the
//! Fanout gadget) are executed exactly via the **principle of deferred
//! measurement** in [`run_deferred`]: a measurement followed by a
//! classically-controlled Pauli is replaced by a quantum-controlled Pauli
//! from the (dephased) measured qubit.
//!
//! This simulator is the reference implementation that validates both the
//! statevector trajectory sampler and the stabilizer frame sampler; it is
//! exact but exponential, so it is used for ≤ ~7 qubits.

use circuit::circuit::{Basis, Circuit, Instruction};
use circuit::gate::Gate;
use mathkit::complex::{c64, Complex};
use mathkit::matrix::Matrix;
use rand::Rng;

use crate::sim::{SimState, Unsupported};
use crate::statevector::{bit, StateVector};

/// A mixed quantum state on `n` qubits, stored as a dense `2ⁿ × 2ⁿ` matrix.
#[derive(Debug, Clone)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: Matrix,
    /// Deferred-measurement bookkeeping: `carriers[c]` is the qubit
    /// currently holding classical bit `c`'s (dephased) record, if any.
    /// Populated by [`DensityMatrix::step_deferred`]; empty for states
    /// built or evolved outside the deferred execution path.
    carriers: Vec<Option<usize>>,
}

/// Equality compares the physical state only (`num_qubits`, `ρ`), not
/// the deferred-measurement carrier bookkeeping.
impl PartialEq for DensityMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.rho == other.rho
    }
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= 13, "density matrix limited to 13 qubits");
        let dim = 1usize << num_qubits;
        let mut rho = Matrix::zeros(dim, dim);
        rho[(0, 0)] = Complex::ONE;
        DensityMatrix {
            num_qubits,
            rho,
            carriers: Vec::new(),
        }
    }

    /// Builds from a raw density matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square power-of-two dimensional,
    /// not Hermitian, or has trace far from one.
    pub fn from_matrix(rho: Matrix) -> Self {
        assert!(rho.is_square(), "density matrix must be square");
        assert!(
            rho.rows().is_power_of_two(),
            "dimension must be a power of two"
        );
        assert!(rho.is_hermitian(1e-8), "density matrix must be Hermitian");
        assert!(
            (rho.trace().re - 1.0).abs() < 1e-6,
            "density matrix must have unit trace"
        );
        let num_qubits = rho.rows().trailing_zeros() as usize;
        DensityMatrix {
            num_qubits,
            rho,
            carriers: Vec::new(),
        }
    }

    /// Builds `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_pure(psi: &StateVector) -> Self {
        DensityMatrix {
            num_qubits: psi.num_qubits(),
            rho: psi.to_density(),
            carriers: Vec::new(),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.rho
    }

    /// Trace (should be 1 up to round-off).
    pub fn trace(&self) -> f64 {
        self.rho.trace().re
    }

    /// Purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        (&self.rho * &self.rho).trace().re
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` with a pure state.
    pub fn fidelity_pure(&self, psi: &StateVector) -> f64 {
        let amps = psi.amplitudes();
        let v = self.rho.mul_vec(&amps);
        amps.iter().zip(&v).map(|(a, b)| (a.conj() * *b).re).sum()
    }

    /// Expectation value `tr(Oρ)` of a full-register observable.
    pub fn expectation(&self, obs: &Matrix) -> Complex {
        (obs * &self.rho).trace()
    }

    /// Applies a gate `ρ → UρU†`.
    pub fn apply_gate(&mut self, gate: &Gate) {
        self.apply_unitary(&gate.unitary(), &gate.qubits());
    }

    /// Applies an arbitrary unitary on the listed qubits: `ρ → UρU†`.
    #[allow(clippy::needless_range_loop)] // index arithmetic over bit-packed registers
    pub fn apply_unitary(&mut self, u: &Matrix, qubits: &[usize]) {
        let dim = 1usize << self.num_qubits;
        // Left multiply: each column of ρ is a statevector hit by U.
        let mut left = Matrix::zeros(dim, dim);
        for j in 0..dim {
            let col: Vec<Complex> = (0..dim).map(|i| self.rho[(i, j)]).collect();
            let newcol = apply_unitary_to_vec(&col, u, qubits, self.num_qubits);
            for (i, v) in newcol.into_iter().enumerate() {
                left[(i, j)] = v;
            }
        }
        // Right multiply by U†: each row hit by conj(U).
        let u_conj = u.conj();
        for i in 0..dim {
            let row: Vec<Complex> = (0..dim).map(|j| left[(i, j)]).collect();
            let newrow = apply_unitary_to_vec(&row, &u_conj, qubits, self.num_qubits);
            for (j, v) in newrow.into_iter().enumerate() {
                left[(i, j)] = v;
            }
        }
        self.rho = left;
    }

    /// Single-qubit depolarizing channel at rate `p`:
    /// `ρ → (1−p)ρ + p/3 (XρX + YρY + ZρZ)`.
    pub fn depolarize_1q(&mut self, q: usize, p: f64) {
        let original = self.clone();
        let mut acc = original.rho.scale(c64(1.0 - p, 0.0));
        for g in [Gate::X(q), Gate::Y(q), Gate::Z(q)] {
            let mut branch = original.clone();
            branch.apply_gate(&g);
            acc = &acc + &branch.rho.scale(c64(p / 3.0, 0.0));
        }
        self.rho = acc;
    }

    /// Two-qubit depolarizing channel at rate `p`: uniform over the 15
    /// non-identity Paulis on `(a, b)`.
    pub fn depolarize_2q(&mut self, a: usize, b: usize, p: f64) {
        let original = self.clone();
        let mut acc = original.rho.scale(c64(1.0 - p, 0.0));
        let paulis = |q: usize| [None, Some(Gate::X(q)), Some(Gate::Y(q)), Some(Gate::Z(q))];
        for (i, ga) in paulis(a).into_iter().enumerate() {
            for (j, gb) in paulis(b).into_iter().enumerate() {
                if i == 0 && j == 0 {
                    continue;
                }
                let mut branch = original.clone();
                if let Some(g) = ga {
                    branch.apply_gate(&g);
                }
                if let Some(g) = gb {
                    branch.apply_gate(&g);
                }
                acc = &acc + &branch.rho.scale(c64(p / 15.0, 0.0));
            }
        }
        self.rho = acc;
    }

    /// Completely dephases qubit `q` in the Z basis:
    /// `ρ → ½(ρ + ZρZ)`. This is "measurement without reading".
    pub fn dephase(&mut self, q: usize) {
        let mut z_branch = self.clone();
        z_branch.apply_gate(&Gate::Z(q));
        self.rho = (&self.rho.scale(c64(0.5, 0.0))) + &z_branch.rho.scale(c64(0.5, 0.0));
    }

    /// Classical bit-flip channel `ρ → (1−p)ρ + p XρX` on qubit `q`,
    /// modelling a readout error on a measured (dephased) qubit.
    pub fn bit_flip(&mut self, q: usize, p: f64) {
        if p == 0.0 {
            return;
        }
        let mut x_branch = self.clone();
        x_branch.apply_gate(&Gate::X(q));
        self.rho = (&self.rho.scale(c64(1.0 - p, 0.0))) + &x_branch.rho.scale(c64(p, 0.0));
    }

    /// Non-selective reset of qubit `q` to `|0⟩`:
    /// `ρ → P₀ρP₀ + X P₁ρP₁ X`.
    pub fn reset(&mut self, q: usize) {
        let dim = 1usize << self.num_qubits;
        let n = self.num_qubits;
        let mut out = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                let (bi, bj) = (bit(i, q, n), bit(j, q, n));
                if bi != bj {
                    continue; // cross terms vanish under both projectors
                }
                // Map the qubit's bit to 0 in both indices.
                let mask = !(1usize << (n - 1 - q));
                out[(i & mask, j & mask)] += self.rho[(i, j)];
            }
        }
        self.rho = out;
    }

    /// Probability that a Z measurement of qubit `q` yields 1.
    pub fn probability_of_one(&self, q: usize) -> f64 {
        let dim = 1usize << self.num_qubits;
        let n = self.num_qubits;
        (0..dim)
            .filter(|&i| bit(i, q, n) == 1)
            .map(|i| self.rho[(i, i)].re)
            .sum()
    }

    /// Diagonal of ρ: the Z-basis outcome distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.rows()).map(|i| self.rho[(i, i)].re).collect()
    }

    /// Executes one instruction exactly, by the principle of deferred
    /// measurement — the per-instruction core of [`run_deferred`] and of
    /// the [`SimState`] implementation. Consumes **no** randomness:
    /// every channel (measurement dephasing, readout flip, reset,
    /// depolarizing) is applied in closed form, and measured qubits
    /// become *carriers* of their classical bits.
    ///
    /// # Panics
    ///
    /// Panics if a conditional gate is not a Pauli or consumes a
    /// classical bit that was never measured; probe with
    /// [`SimState::supports`] / [`circuit::circuit::Circuit::required_caps`]
    /// first.
    pub fn step_deferred(&mut self, instr: &Instruction) {
        match instr {
            Instruction::Gate(g) => self.apply_gate(g),
            Instruction::Measure {
                qubit,
                cbit,
                basis,
                flip_prob,
            } => {
                match basis {
                    Basis::Z => {}
                    Basis::X => self.apply_gate(&Gate::H(*qubit)),
                    Basis::Y => {
                        self.apply_gate(&Gate::Sdg(*qubit));
                        self.apply_gate(&Gate::H(*qubit));
                    }
                }
                self.dephase(*qubit);
                self.bit_flip(*qubit, *flip_prob);
                if *cbit >= self.carriers.len() {
                    self.carriers.resize(*cbit + 1, None);
                }
                self.carriers[*cbit] = Some(*qubit);
            }
            Instruction::Reset(q) => {
                self.reset(*q);
                // A reset qubit no longer carries any classical bit.
                for c in self.carriers.iter_mut() {
                    if *c == Some(*q) {
                        *c = None;
                    }
                }
            }
            Instruction::Conditional { gate, parity_of } => {
                for &cb in parity_of {
                    let control = self
                        .carriers
                        .get(cb)
                        .copied()
                        .flatten()
                        .expect("conditional consumes a classical bit that was never measured");
                    match gate {
                        Gate::X(t) => self.apply_gate(&Gate::Cx {
                            control,
                            target: *t,
                        }),
                        Gate::Z(t) => self.apply_gate(&Gate::Cz(control, *t)),
                        Gate::Y(t) => {
                            // CY = S_t · CX · S†_t
                            self.apply_gate(&Gate::Sdg(*t));
                            self.apply_gate(&Gate::Cx {
                                control,
                                target: *t,
                            });
                            self.apply_gate(&Gate::S(*t));
                        }
                        other => {
                            panic!("deferred execution supports Pauli corrections, got {other}")
                        }
                    }
                }
            }
            Instruction::Depolarizing { qubits, p } => match qubits.len() {
                1 => self.depolarize_1q(qubits[0], *p),
                _ => self.depolarize_2q(qubits[0], qubits[1], *p),
            },
        }
    }

    /// Samples one classical record from the final state's carrier
    /// qubits: draws a basis index from the diagonal of ρ and reads
    /// each carried bit off it. Bits without a carrier are left
    /// untouched. Consumes exactly one uniform draw when any bit has a
    /// carrier, none otherwise.
    pub fn sample_record(&self, cbits: &mut [bool], rng: &mut impl Rng) {
        if !self.carriers.iter().any(Option::is_some) {
            return;
        }
        let n = self.num_qubits;
        let dim = 1usize << n;
        let mut r = rng.random::<f64>();
        let mut index = dim - 1;
        for i in 0..dim {
            r -= self.rho[(i, i)].re;
            if r <= 0.0 {
                index = i;
                break;
            }
        }
        for (c, carrier) in self.carriers.iter().enumerate() {
            if let (Some(q), Some(slot)) = (carrier, cbits.get_mut(c)) {
                *slot = bit(index, *q, n) == 1;
            }
        }
    }
}

impl SimState for DensityMatrix {
    const NAME: &'static str = "density";

    fn prepare(num_qubits: usize) -> Self {
        DensityMatrix::new(num_qubits)
    }

    fn num_qubits(&self) -> usize {
        DensityMatrix::num_qubits(self)
    }

    fn reset_from(&mut self, initial: &Self) {
        self.num_qubits = initial.num_qubits;
        self.rho.clone_from(&initial.rho);
        self.carriers.clone_from(&initial.carriers);
    }

    /// Exact evolution: ignores `rng` entirely (every channel is applied
    /// in closed form) and defers the classical record to
    /// [`SimState::finish`].
    fn step(&mut self, instr: &Instruction, _cbits: &mut [bool], _rng: &mut impl Rng) {
        self.step_deferred(instr);
    }

    /// Samples the shot's record from the carrier qubits — the one
    /// point where the density backend consumes randomness.
    fn finish(&mut self, cbits: &mut [bool], rng: &mut impl Rng) {
        self.sample_record(cbits, rng);
    }

    fn supports(circuit: &Circuit) -> Result<(), Unsupported> {
        if circuit.num_qubits() > 13 {
            return Err(Unsupported::new(
                Self::NAME,
                format!(
                    "{} qubits exceed the 13-qubit density-matrix limit",
                    circuit.num_qubits()
                ),
            ));
        }
        let caps = circuit.required_caps();
        if caps.non_pauli_feedback {
            return Err(Unsupported::new(
                Self::NAME,
                "deferred execution supports only Pauli feedback corrections",
            ));
        }
        if caps.feedback_from_unwritten {
            return Err(Unsupported::new(
                Self::NAME,
                "a conditional consumes a classical bit no measurement wrote",
            ));
        }
        if caps.measured_qubit_reuse {
            return Err(Unsupported::new(
                Self::NAME,
                "a measured qubit is reused, so its record cannot be carried \
                 to the end of the circuit for sampling",
            ));
        }
        Ok(())
    }

    /// No compiler: deferred evolution re-interprets the instruction
    /// stream (and [`crate::density::run_deferred`] already evolves the
    /// state once per circuit where that matters).
    type Program = Circuit;

    fn compile(circuit: &Circuit) -> Circuit {
        circuit.clone()
    }

    fn run_program(&mut self, program: &Circuit, cbits: &mut [bool], rng: &mut impl Rng) {
        crate::sim::run_interpreted(self, program, cbits, rng);
    }
}

#[allow(clippy::needless_range_loop)] // index arithmetic over bit-packed registers
fn apply_unitary_to_vec(
    vec: &[Complex],
    u: &Matrix,
    qubits: &[usize],
    num_qubits: usize,
) -> Vec<Complex> {
    let mut sv = vec.to_vec();
    // Reuse the statevector gather/scatter by inlining the same logic.
    let k = qubits.len();
    let dim_sub = 1usize << k;
    let rest: Vec<usize> = (0..num_qubits).filter(|q| !qubits.contains(q)).collect();
    let rest_count = 1usize << rest.len();
    let mut scratch = vec![Complex::ZERO; dim_sub];
    for r in 0..rest_count {
        let mut base = 0usize;
        for (bi, &q) in rest.iter().enumerate() {
            if (r >> (rest.len() - 1 - bi)) & 1 == 1 {
                base |= 1 << (num_qubits - 1 - q);
            }
        }
        for s in 0..dim_sub {
            let mut idx = base;
            for (bi, &q) in qubits.iter().enumerate() {
                if (s >> (k - 1 - bi)) & 1 == 1 {
                    idx |= 1 << (num_qubits - 1 - q);
                }
            }
            scratch[s] = sv[idx];
        }
        let transformed = u.mul_vec(&scratch);
        for (s, &val) in transformed.iter().enumerate() {
            let mut idx = base;
            for (bi, &q) in qubits.iter().enumerate() {
                if (s >> (k - 1 - bi)) & 1 == 1 {
                    idx |= 1 << (num_qubits - 1 - q);
                }
            }
            sv[idx] = val;
        }
    }
    sv
}

/// Executes a feed-forward circuit exactly on a density matrix via the
/// principle of deferred measurement.
///
/// * `Measure` in any basis is rotated to Z, dephased, and (if noisy)
///   subjected to a classical flip channel; the qubit then *carries* the
///   classical bit (readable afterwards with
///   [`DensityMatrix::sample_record`]).
/// * `Conditional { gate, parity_of }` becomes one quantum-controlled
///   `gate` per recorded control qubit (valid because the conditioned
///   gates are self-inverse Paulis, so parity-control factorizes).
/// * `Reset` applies the non-selective reset channel.
///
/// Per-instruction semantics live in [`DensityMatrix::step_deferred`];
/// this drives them over the whole circuit, starting from a clean
/// carrier map.
///
/// # Panics
///
/// Panics if a conditional gate is not a Pauli or consumes a classical
/// bit that was never measured. Probe with
/// `<DensityMatrix as SimState>::supports` first.
pub fn run_deferred(circuit: &Circuit, initial: &DensityMatrix) -> DensityMatrix {
    let mut rho = initial.clone();
    rho.carriers.clear();
    for instr in circuit.instructions() {
        rho.step_deferred(instr);
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pure_state_has_unit_purity() {
        let mut psi = StateVector::new(2);
        psi.apply_gate(&Gate::H(0));
        let rho = DensityMatrix::from_pure(&psi);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarize_1q_shrinks_purity() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(&Gate::H(0));
        rho.depolarize_1q(0, 0.3);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.purity() < 1.0);
        // Exact Bloch-vector contraction: r → (1−4p/3)r for depolarizing.
        let mut plus = StateVector::new(1);
        plus.apply_gate(&Gate::H(0));
        let f = rho.fidelity_pure(&plus);
        let want = 1.0 - 0.3 * (2.0 / 3.0);
        assert!((f - want).abs() < 1e-10, "{f} vs {want}");
    }

    #[test]
    fn fully_depolarized_two_qubit_channel_is_uniform() {
        let mut rho = DensityMatrix::new(2);
        // p = 1 on |00⟩: uniform over the 15 Pauli images.
        rho.depolarize_2q(0, 1, 1.0);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // diag = (1/15)·(images of |00⟩): X/Y components flip bits.
        // |00⟩ maps to |00⟩ under the 3 Z-type, and to the 3 other basis
        // states under 4 combinations each.
        let probs = rho.probabilities();
        assert!((probs[0] - 3.0 / 15.0).abs() < 1e-12);
        for p in &probs[1..] {
            assert!((p - 4.0 / 15.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gate_application_matches_statevector() {
        let mut rng = StdRng::seed_from_u64(3);
        let amps = crate::qrand::random_pure_state(3, &mut rng);
        let mut psi = StateVector::from_amplitudes(amps);
        let mut rho = DensityMatrix::from_pure(&psi);
        for g in [
            Gate::H(0),
            Gate::T(1),
            Gate::Cx {
                control: 1,
                target: 2,
            },
            Gate::Cswap {
                control: 0,
                swap_a: 1,
                swap_b: 2,
            },
        ] {
            psi.apply_gate(&g);
            rho.apply_gate(&g);
        }
        assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reset_channel_collapses_to_zero() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_gate(&Gate::H(0));
        rho.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        rho.reset(0);
        assert!(rho.probability_of_one(0) < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        // Qubit 1 remains maximally mixed.
        assert!((rho.probability_of_one(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deferred_teleportation_is_exact() {
        // Teleport an arbitrary state with the Fig. 1a circuit and verify
        // fidelity 1 on the receiving qubit.
        let mut c = Circuit::new(3, 2);
        c.h(1).cx(1, 2);
        c.cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.cond_x(2, &[1]).cond_z(2, &[0]);

        let mut psi = StateVector::new(3);
        psi.apply_gate(&Gate::Ry(0, 1.234));
        psi.apply_gate(&Gate::Rz(0, -0.7));
        let rho_out = run_deferred(&c, &DensityMatrix::from_pure(&psi));

        // Expected single-qubit state on qubit 2, embedded: compare via
        // the probability and coherence of qubit 2's reduced state.
        let mut want = StateVector::new(1);
        want.apply_gate(&Gate::Ry(0, 1.234));
        want.apply_gate(&Gate::Rz(0, -0.7));
        let p1 = rho_out.probability_of_one(2);
        assert!((p1 - want.probability_of_one(0)).abs() < 1e-10);
        // Purity of the output on qubit 2: reduced state must be pure.
        let reduced = rho_out
            .matrix()
            .partial_trace(4, 2, mathkit::matrix::TraceKeep::B);
        let purity = (&reduced * &reduced).trace().re;
        assert!(
            (purity - 1.0).abs() < 1e-10,
            "teleported state impure: {purity}"
        );
    }

    #[test]
    fn deferred_measure_with_flip_prob_spoils_correction() {
        // Teleportation with certain readout flip on the X-correction bit
        // must produce an X-errored output.
        let mut c = Circuit::new(3, 2);
        c.h(1).cx(1, 2);
        c.cx(0, 1).h(0);
        c.push(Instruction::Measure {
            qubit: 0,
            cbit: 0,
            basis: Basis::Z,
            flip_prob: 0.0,
        });
        c.push(Instruction::Measure {
            qubit: 1,
            cbit: 1,
            basis: Basis::Z,
            flip_prob: 1.0,
        });
        c.cond_x(2, &[1]).cond_z(2, &[0]);
        // Input |1⟩: output should be X|1⟩ = |0⟩ under the always-flipped
        // correction.
        let mut psi = StateVector::new(3);
        psi.apply_gate(&Gate::X(0));
        let rho_out = run_deferred(&c, &DensityMatrix::from_pure(&psi));
        assert!(rho_out.probability_of_one(2) < 1e-10);
    }

    #[test]
    fn deferred_matches_sampled_runner_statistics() {
        // Cross-validate the two execution paths on a noisy circuit.
        use crate::runner::run_shot;
        let mut c = Circuit::new(2, 1);
        c.h(0);
        c.push(Instruction::Depolarizing {
            qubits: vec![0],
            p: 0.2,
        });
        c.cx(0, 1);
        c.measure(0, 0);
        c.cond_x(1, &[0]);

        let exact = run_deferred(&c, &DensityMatrix::new(2));
        let p_exact = exact.probability_of_one(1);

        let mut rng = StdRng::seed_from_u64(17);
        let shots = 20_000;
        let mut ones = 0;
        for _ in 0..shots {
            let out = run_shot(&c, &StateVector::new(2), &mut rng);
            if out.state.probability_of_one(1) > 0.5 {
                ones += 1;
            }
        }
        let p_sampled = ones as f64 / shots as f64;
        assert!(
            (p_exact - p_sampled).abs() < 0.02,
            "exact {p_exact} vs sampled {p_sampled}"
        );
    }

    #[test]
    fn expectation_of_observable() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(&Gate::H(0));
        let x = Gate::X(0).unitary();
        assert!((rho.expectation(&x).re - 1.0).abs() < 1e-12);
    }
}
