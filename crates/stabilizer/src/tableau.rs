//! Aaronson–Gottesman stabilizer tableau, packed and split by what a
//! shot can change.
//!
//! [`Tableau`] simulates Clifford circuits in polynomial time, replacing
//! the paper's use of Stim \[20\] for the noise analysis of §5.1. It
//! supports the full dynamic-circuit feature set used by COMPAS gadgets:
//! X/Y/Z-basis measurements, resets, classically conditioned Pauli
//! corrections, and stochastic depolarizing noise sites.
//!
//! ## Layout
//!
//! A tableau over `n` qubits is `2n` signed Pauli rows: destabilizers
//! `0..n`, stabilizers `n..2n`. It is stored as two halves:
//!
//! * the **x/z half** (`Xz`) — which Pauli each row holds on each qubit.
//!   Column-major: qubit `q` is two bitsets over the `2n` rows, `x_q` and
//!   `z_q`, of `W = ⌈2n/64⌉` words each, so a gate touches `O(W)` words
//!   and a measurement sweeps all rows of a column at once;
//! * the **signs** `r` — one such bitset, bit set ⇒ the row is negated.
//!
//! ## Sign ops
//!
//! Pivots, row sums and phase constants read the x/z half alone, so every
//! operation is *an x/z step that yields a sign op, then the sign op
//! applied to `r`*; nothing in the x/z half ever depends on `r`, on a
//! measurement outcome, or on which Pauli a noise site drew:
//!
//! * a gate is `r ^= m` with `m` read off the columns before they change —
//!   `H`, `S`: `x_q & z_q`; `S†`: `x_q & !z_q`; `X`: `z_q`; `Y`:
//!   `x_q ^ z_q`; `Z`: `x_q`; `CX`: `x_c & z_t & !(x_t ^ z_c)`; `CZ`:
//!   `x_a & x_b & (z_a ^ z_b)`; `SWAP`: nothing;
//! * a Z-measurement is a `ZMeasurement`: either *random* — pivot `p`
//!   (lowest stabilizer row with `x_q`), `T` (the other rows with `x_q`,
//!   without `p − n`) and `C` (the rows of `T` whose product with row `p`
//!   picks up a `−1`): `o = draw; b = r[p]; r ^= (b ? T : 0) ^ C;
//!   r[p − n] = b; r[p] = o` — or *determined* — `S` (stabilizer partners
//!   of the destabilizers with `x_q`) and the phase `c` of the product of
//!   their letters: `o = parity(r & S) ^ c`, `r` unchanged;
//! * X/Y-basis measurement is the Z one between basis-change gates; reset
//!   is a Z-measurement followed by `X` when the outcome was 1.
//!
//! [`Tableau`]'s methods apply each sign op at once;
//! [`CliffordState`](crate::clifford::CliffordState)'s compiler runs the
//! same x/z steps once per circuit and keeps the sign ops, so a shot is
//! the `2n` sign bits.
//!
//! ```
//! use circuit::circuit::Circuit;
//! use rand::SeedableRng;
//! use stabilizer::tableau::Tableau;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut bell = Circuit::new(2, 2);
//! bell.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! let cbits = Tableau::run(&bell, &mut rng).unwrap();
//! assert_eq!(cbits[0], cbits[1]); // perfectly correlated
//! ```

use circuit::caps::Unsupported;
use circuit::circuit::{Basis, Circuit, Instruction};
use circuit::gate::{Gate, Qubit};
use qsim::qrand::{pauli_gates, random_pauli_code};
use rand::Rng;

use crate::pauli::{Pauli, PauliString};

fn bit(rows: &[u64], i: usize) -> bool {
    rows[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(rows: &mut [u64], i: usize, value: bool) {
    let mask = 1u64 << (i % 64);
    if value {
        rows[i / 64] |= mask;
    } else {
        rows[i / 64] &= !mask;
    }
}

/// `signs ^= mask`.
pub(crate) fn flip(signs: &mut [u64], mask: &[u64]) {
    for (s, m) in signs.iter_mut().zip(mask) {
        *s ^= m;
    }
}

/// Aaronson–Gottesman's phase function `g`, word-parallel over rows: with
/// `(x1, z1)` the Pauli multiplied from the left, the rows (bits of `x2`,
/// `z2`) whose product with it picks up `+i`, and those picking up `−i`.
fn g(x1: bool, z1: bool, x2: u64, z2: u64) -> (u64, u64) {
    match (x1, z1) {
        (false, false) => (0, 0),
        (true, true) => (z2 & !x2, x2 & !z2),
        (true, false) => (z2 & x2, z2 & !x2),
        (false, true) => (x2 & !z2, x2 & z2),
    }
}

/// A run of single-qubit gates, each still waiting for its qubit.
pub(crate) type Rotation = &'static [fn(Qubit) -> Gate];

/// The gates rotating `basis` onto Z before a Z-measurement, and the ones
/// rotating back after it.
pub(crate) fn basis_change(basis: Basis) -> (Rotation, Rotation) {
    match basis {
        Basis::Z => (&[], &[]),
        Basis::X => (&[Gate::H], &[Gate::H]),
        Basis::Y => (&[Gate::Sdg, Gate::H], &[Gate::H, Gate::S]),
    }
}

/// The shot-independent half of a tableau: the Pauli letters of the `2n`
/// generator rows, without their signs. See the module docs for the
/// layout. Bits at or above row `2n` are zero in every column.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Xz {
    n: usize,
    /// Words per row bitset, `⌈2n/64⌉`.
    w: usize,
    /// `x_q` at `2qw..(2q + 1)w`, `z_q` right after it.
    cols: Vec<u64>,
}

impl Xz {
    /// The x/z half of `|0…0⟩`: destabilizers `X_q`, stabilizers `Z_q`.
    pub(crate) fn new(n: usize) -> Self {
        let w = (2 * n).div_ceil(64);
        let mut xz = Xz {
            n,
            w,
            cols: vec![0; 2 * n * w],
        };
        for q in 0..n {
            let (x, z) = xz.column_mut(q);
            set_bit(x, q, true);
            set_bit(z, n + q, true);
        }
        xz
    }

    /// Words in a row bitset — the length of every sign mask.
    pub(crate) fn words(&self) -> usize {
        self.w
    }

    /// Overwrites `self` with `other`, reusing the allocation.
    pub(crate) fn copy_from(&mut self, other: &Xz) {
        self.n = other.n;
        self.w = other.w;
        self.cols.clone_from(&other.cols);
    }

    fn x(&self, q: Qubit) -> &[u64] {
        &self.cols[2 * q * self.w..][..self.w]
    }

    fn z(&self, q: Qubit) -> &[u64] {
        &self.cols[(2 * q + 1) * self.w..][..self.w]
    }

    fn column_mut(&mut self, q: Qubit) -> (&mut [u64], &mut [u64]) {
        self.cols[2 * q * self.w..][..2 * self.w].split_at_mut(self.w)
    }

    /// `(x_a, z_a)` and `(x_b, z_b)`.
    fn columns_mut(&mut self, a: Qubit, b: Qubit) -> [(&mut [u64], &mut [u64]); 2] {
        debug_assert_ne!(a, b);
        let w = self.w;
        let (head, tail) = self.cols.split_at_mut(2 * a.max(b) * w);
        let low = head[2 * a.min(b) * w..][..2 * w].split_at_mut(w);
        let high = tail[..2 * w].split_at_mut(w);
        if a < b {
            [low, high]
        } else {
            [high, low]
        }
    }

    /// Conjugates every row through a Clifford `gate` and XORs into
    /// `signs` the rows whose sign that flips. Non-Clifford gates, and
    /// two-qubit gates on one qubit, are a typed error and change nothing.
    pub(crate) fn gate(&mut self, gate: &Gate, signs: &mut [u64]) -> Result<(), Unsupported> {
        debug_assert_eq!(signs.len(), self.w);
        match *gate {
            Gate::Cx {
                control: a,
                target: b,
            }
            | Gate::Cz(a, b)
            | Gate::Swap(a, b)
                if a == b =>
            {
                return Err(Unsupported::new(
                    "stabilizer",
                    format!("tableau cannot apply {gate}: it needs two distinct qubits"),
                ));
            }
            Gate::H(q) => {
                let (x, z) = self.column_mut(q);
                for ((x, z), s) in x.iter_mut().zip(z).zip(signs) {
                    *s ^= *x & *z;
                    std::mem::swap(x, z);
                }
            }
            Gate::S(q) => {
                let (x, z) = self.column_mut(q);
                for ((x, z), s) in x.iter().zip(z).zip(signs) {
                    *s ^= x & *z;
                    *z ^= x;
                }
            }
            Gate::Sdg(q) => {
                let (x, z) = self.column_mut(q);
                for ((x, z), s) in x.iter().zip(z).zip(signs) {
                    *s ^= x & !*z;
                    *z ^= x;
                }
            }
            Gate::X(q) => flip(signs, self.z(q)),
            Gate::Y(q) => {
                for ((x, z), s) in self.x(q).iter().zip(self.z(q)).zip(signs) {
                    *s ^= x ^ z;
                }
            }
            Gate::Z(q) => flip(signs, self.x(q)),
            Gate::Cx { control, target } => {
                let [(xc, zc), (xt, zt)] = self.columns_mut(control, target);
                for k in 0..signs.len() {
                    signs[k] ^= xc[k] & zt[k] & !(xt[k] ^ zc[k]);
                    xt[k] ^= xc[k];
                    zc[k] ^= zt[k];
                }
            }
            Gate::Cz(a, b) => {
                let [(xa, za), (xb, zb)] = self.columns_mut(a, b);
                for k in 0..signs.len() {
                    signs[k] ^= xa[k] & xb[k] & (za[k] ^ zb[k]);
                    za[k] ^= xb[k];
                    zb[k] ^= xa[k];
                }
            }
            Gate::Swap(a, b) => {
                let [(xa, za), (xb, zb)] = self.columns_mut(a, b);
                xa.swap_with_slice(xb);
                za.swap_with_slice(zb);
            }
            ref other => {
                debug_assert!(!other.is_clifford(), "Clifford gate fell through: {other}");
                return Err(Unsupported::new(
                    "stabilizer",
                    format!("tableau cannot apply non-Clifford gate {other}"),
                ));
            }
        }
        Ok(())
    }

    /// The lowest stabilizer row with an X component on `q`; `None` when
    /// measuring `Z_q` is deterministic.
    fn pivot(&self, q: Qubit) -> Option<usize> {
        let first = self.n / 64;
        self.x(q)[first..]
            .iter()
            .enumerate()
            .find_map(|(k, &word)| {
                let word = if k == 0 {
                    word & (!0 << (self.n % 64))
                } else {
                    word
                };
                (word != 0).then(|| 64 * (first + k) + word.trailing_zeros() as usize)
            })
    }

    /// Collapses the rows onto a Z-measurement of `q` and returns what
    /// that does to the signs, its row masks appended to `masks`.
    pub(crate) fn measure_z(&mut self, q: Qubit, masks: &mut Vec<u64>) -> ZMeasurement {
        let (n, w) = (self.n, self.w);
        let at = masks.len();
        let Some(pivot) = self.pivot(q) else {
            // Deterministic: ±Z_q is the product of the stabilizer partners
            // of the destabilizers with an X on q.
            masks.resize(at + w, 0);
            let partners = &mut masks[at..];
            for row in (0..n).filter(|&row| bit(self.x(q), row)) {
                set_bit(partners, row + n, true);
            }
            // A letter with bits (x, z) is i^{xz}·XˣZᶻ, so the partners'
            // letters on one qubit multiply, in row order, to i^{#Y} and a
            // −1 for every Z standing before an X; the whole product is
            // ±Z_q, a letter that owes no i back.
            let mut phase = 0u32;
            for j in 0..n {
                let mut z_before = 0u64; // all ones after an odd number of Zs
                for ((x, z), s) in self.x(j).iter().zip(self.z(j)).zip(&*partners) {
                    let (x, z) = (x & s, z & s);
                    if x != 0 {
                        let mut upto = z;
                        for shift in [1, 2, 4, 8, 16, 32] {
                            upto ^= upto << shift;
                        }
                        let swaps = x & (upto ^ z ^ z_before);
                        phase = phase.wrapping_add((x & z).count_ones() + 2 * swaps.count_ones());
                    }
                    if z.count_ones() % 2 == 1 {
                        z_before = !z_before;
                    }
                }
            }
            debug_assert_eq!(phase % 2, 0, "product of stabilizers is not Hermitian");
            return ZMeasurement::Determined {
                partners: at,
                phase: phase % 4 == 2,
            };
        };
        // Random: every other row with an X on q is multiplied by the pivot
        // row — except the pivot's destabilizer, which is overwritten.
        let conjugate = pivot - n;
        masks.resize(at + 2 * w, 0);
        let (t, c) = masks[at..].split_at_mut(w);
        t.copy_from_slice(self.x(q));
        set_bit(t, pivot, false);
        set_bit(t, conjugate, false);
        for k in (0..w).filter(|&k| t[k] != 0) {
            // Exponent of i per row, mod 4, as two bit planes.
            let (mut lo, mut hi) = (0, 0);
            for j in 0..n {
                let (x1, z1) = (bit(self.x(j), pivot), bit(self.z(j), pivot));
                let (x, z) = self.column_mut(j);
                let (plus, minus) = g(x1, z1, x[k], z[k]);
                let odd = plus | minus;
                hi ^= (lo ^ minus) & odd;
                lo ^= odd;
                if x1 {
                    x[k] ^= t[k];
                }
                if z1 {
                    z[k] ^= t[k];
                }
            }
            debug_assert_eq!(lo & t[k], 0, "rowsum produced a non-Hermitian row");
            c[k] = hi & t[k];
        }
        // The destabilizer becomes the old pivot row, the pivot row Z_q.
        for j in 0..n {
            let (x, z) = self.column_mut(j);
            let (x1, z1) = (bit(x, pivot), bit(z, pivot));
            set_bit(x, conjugate, x1);
            set_bit(z, conjugate, z1);
            set_bit(x, pivot, false);
            set_bit(z, pivot, j == q);
        }
        ZMeasurement::Random {
            pivot,
            conjugate,
            masks: at,
        }
    }
}

/// What a Z-measurement does to the signs — everything about it that the
/// x/z half decides. See the module docs for the two rules. The row masks
/// live where [`Xz::measure_z`] appended them; the fields are offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ZMeasurement {
    /// Some stabilizer anticommutes with `Z_q`: the outcome is drawn.
    Random {
        /// The stabilizer row that becomes `±Z_q`.
        pivot: usize,
        /// Its destabilizer, `pivot − n`, which takes over the old row.
        conjugate: usize,
        /// `T` then `C`, `W` words each.
        masks: usize,
    },
    /// `±Z_q` is already a stabilizer: the signs decide the outcome.
    Determined {
        /// `S`: the stabilizer rows whose product is `±Z_q`.
        partners: usize,
        /// `c`: whether that product's letters alone give `−Z_q`.
        phase: bool,
    },
}

impl ZMeasurement {
    /// Applies the measurement to the signs `r` and returns the outcome,
    /// taking a random one from `draw` (called at most once). `masks` is
    /// what [`Xz::measure_z`] appended to.
    pub(crate) fn apply(&self, masks: &[u64], r: &mut [u64], draw: impl FnOnce() -> bool) -> bool {
        let w = r.len();
        match *self {
            ZMeasurement::Random {
                pivot,
                conjugate,
                masks: at,
            } => {
                let outcome = draw();
                let negated = bit(r, pivot);
                let keep = if negated { !0 } else { 0 };
                let (t, c) = masks[at..at + 2 * w].split_at(w);
                for ((r, t), c) in r.iter_mut().zip(t).zip(c) {
                    *r ^= (t & keep) ^ c;
                }
                set_bit(r, conjugate, negated);
                set_bit(r, pivot, outcome);
                outcome
            }
            ZMeasurement::Determined { partners, phase } => {
                let s = &masks[partners..partners + w];
                let odd = r.iter().zip(s).fold(0, |acc, (r, s)| acc ^ (r & s));
                (odd.count_ones() % 2 == 1) ^ phase
            }
        }
    }
}

/// Stabilizer tableau over `n` qubits: the x/z half plus one sign bit per
/// row (set ⇒ −1). Rows `0..n` are destabilizers, rows `n..2n`
/// stabilizers, following Aaronson & Gottesman's CHP layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Tableau {
    xz: Xz,
    r: Vec<u64>,
}

impl Tableau {
    /// The tableau stabilizing `|0…0⟩`.
    pub fn new(n: usize) -> Self {
        let xz = Xz::new(n);
        let r = vec![0; xz.w];
        Tableau { xz, r }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.xz.n
    }

    /// Overwrites this tableau with a copy of `other`, reusing the
    /// allocations when the sizes match — the buffer-reuse primitive
    /// behind the engine's per-worker Clifford workspaces.
    pub fn copy_from(&mut self, other: &Tableau) {
        self.xz.copy_from(&other.xz);
        self.r.clone_from(&other.r);
    }

    /// The x/z half.
    pub(crate) fn xz(&self) -> &Xz {
        &self.xz
    }

    /// The sign bits.
    pub(crate) fn signs_mut(&mut self) -> &mut [u64] {
        &mut self.r
    }

    /// Replaces the x/z half by one of the same width, keeping the signs.
    pub(crate) fn set_xz(&mut self, xz: &Xz) {
        assert_eq!(self.xz.n, xz.n, "x/z half of another width");
        self.xz.copy_from(xz);
    }

    // ------------------------------------------------------------------
    // Clifford gates. Update rules from Aaronson & Gottesman (2004).
    // ------------------------------------------------------------------

    fn clifford(&mut self, gate: Gate) {
        self.apply_gate(&gate)
            .expect("a Clifford gate on distinct qubits");
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        self.clifford(Gate::H(q));
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        self.clifford(Gate::S(q));
    }

    /// Inverse phase gate S† on `q`.
    pub fn sdg(&mut self, q: usize) {
        self.clifford(Gate::Sdg(q));
    }

    /// Pauli X on `q` (flips signs of rows with a Z component).
    pub fn x_gate(&mut self, q: usize) {
        self.clifford(Gate::X(q));
    }

    /// Pauli Y on `q`.
    pub fn y_gate(&mut self, q: usize) {
        self.clifford(Gate::Y(q));
    }

    /// Pauli Z on `q` (flips signs of rows with an X component).
    pub fn z_gate(&mut self, q: usize) {
        self.clifford(Gate::Z(q));
    }

    /// CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) {
        self.clifford(Gate::Cx { control, target });
    }

    /// Controlled-Z.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.clifford(Gate::Cz(a, b));
    }

    /// SWAP of `a` and `b`.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.clifford(Gate::Swap(a, b));
    }

    /// Applies a Clifford [`Gate`].
    ///
    /// Non-Clifford gates (T, rotations, Toffoli, CSWAP) are rejected
    /// with a typed [`Unsupported`] error instead of a panic; probe a
    /// whole circuit up front with
    /// [`Circuit::is_clifford`](circuit::circuit::Circuit::is_clifford)
    /// or `CliffordState::supports`.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<(), Unsupported> {
        self.xz.gate(gate, &mut self.r)
    }

    /// Applies a phase-free Pauli string as a gate layer.
    pub fn apply_pauli(&mut self, p: &PauliString) {
        assert_eq!(p.len(), self.xz.n);
        for q in 0..self.xz.n {
            match p.get(q) {
                Pauli::I => {}
                Pauli::X => self.x_gate(q),
                Pauli::Y => self.y_gate(q),
                Pauli::Z => self.z_gate(q),
            }
        }
    }

    // ------------------------------------------------------------------
    // Measurement.
    // ------------------------------------------------------------------

    /// Measures `q` in the Z basis, collapsing the state.
    pub fn measure_z(&mut self, q: usize, rng: &mut impl Rng) -> bool {
        self.measure_z_with(q, || rng.random())
    }

    /// Measures `q` in the Z basis, taking the outcome of a
    /// *non-deterministic* measurement from `draw` (called at most
    /// once). This lets callers align randomness consumption with other
    /// backends — `CliffordState` draws one uniform per measurement,
    /// exactly like the statevector runner, and resolves it here.
    pub fn measure_z_with(&mut self, q: usize, draw: impl FnOnce() -> bool) -> bool {
        let mut masks = Vec::new();
        self.xz
            .measure_z(q, &mut masks)
            .apply(&masks, &mut self.r, draw)
    }

    /// Measures `q` in the given basis (X/Y via basis rotation).
    pub fn measure(&mut self, q: usize, basis: Basis, rng: &mut impl Rng) -> bool {
        self.measure_with(q, basis, || rng.random())
    }

    /// Basis-rotating variant of [`Tableau::measure_z_with`]: measures
    /// `q` in `basis`, resolving a non-deterministic outcome via `draw`
    /// (called at most once).
    pub fn measure_with(&mut self, q: usize, basis: Basis, draw: impl FnOnce() -> bool) -> bool {
        let (to_z, back) = basis_change(basis);
        for gate in to_z {
            self.clifford(gate(q));
        }
        let m = self.measure_z_with(q, draw);
        for gate in back {
            self.clifford(gate(q));
        }
        m
    }

    /// Resets `q` to `|0⟩` (measure, then flip on outcome 1).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure_z(q, rng) {
            self.x_gate(q);
        }
    }

    /// Whether measuring `q` in the Z basis would be deterministic.
    pub fn is_deterministic_z(&self, q: usize) -> bool {
        self.xz.pivot(q).is_none()
    }

    /// The sign-carrying stabilizer generators as `(negated, string)` pairs.
    pub fn stabilizers(&self) -> Vec<(bool, PauliString)> {
        let n = self.xz.n;
        (n..2 * n)
            .map(|row| {
                let mut p = PauliString::identity(n);
                for q in 0..n {
                    p.set(
                        q,
                        Pauli::from_bits(bit(self.xz.x(q), row), bit(self.xz.z(q), row)),
                    );
                }
                (bit(&self.r, row), p)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Circuit execution.
    // ------------------------------------------------------------------

    /// Runs a full Clifford circuit (one shot) and returns the classical
    /// register, or a typed [`Unsupported`] error on the first
    /// non-Clifford gate.
    ///
    /// Conditional gates fire on the recorded parity; depolarizing sites
    /// sample a uniform non-identity Pauli with their probability; readout
    /// errors flip recorded (not physical) outcomes.
    pub fn run(circuit: &Circuit, rng: &mut impl Rng) -> Result<Vec<bool>, Unsupported> {
        let mut t = Tableau::new(circuit.num_qubits());
        let mut cbits = vec![false; circuit.num_cbits()];
        for instr in circuit.instructions() {
            match instr {
                Instruction::Gate(g) => t.apply_gate(g)?,
                Instruction::Measure {
                    qubit,
                    cbit,
                    basis,
                    flip_prob,
                } => {
                    let mut m = t.measure(*qubit, *basis, rng);
                    if *flip_prob > 0.0 && rng.random::<f64>() < *flip_prob {
                        m = !m;
                    }
                    cbits[*cbit] = m;
                }
                Instruction::Reset(q) => t.reset(*q, rng),
                Instruction::Conditional { gate, parity_of } => {
                    let parity = parity_of.iter().fold(false, |acc, &c| acc ^ cbits[c]);
                    if parity {
                        t.apply_gate(gate)?;
                    }
                }
                Instruction::Depolarizing { qubits, p } => {
                    if rng.random::<f64>() < *p {
                        let code = random_pauli_code(qubits.len(), rng);
                        for g in pauli_gates(code, qubits) {
                            t.apply_gate(&g)?;
                        }
                    }
                }
            }
        }
        Ok(cbits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_tableau_measures_zero() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = Tableau::new(3);
        for q in 0..3 {
            assert!(!t.measure_z(q, &mut rng));
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut t = Tableau::new(2);
        t.x_gate(1);
        assert!(!t.measure_z(0, &mut rng));
        assert!(t.measure_z(1, &mut rng));
    }

    #[test]
    fn bell_pair_outcomes_are_correlated() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut saw_one = false;
        let mut saw_zero = false;
        for _ in 0..50 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cx(0, 1);
            let a = t.measure_z(0, &mut rng);
            let b = t.measure_z(1, &mut rng);
            assert_eq!(a, b);
            saw_one |= a;
            saw_zero |= !a;
        }
        assert!(saw_one && saw_zero, "outcomes should be random");
    }

    #[test]
    fn ghz_x_basis_parity_is_even() {
        // Measuring every qubit of a GHZ state in the X basis yields even
        // parity with certainty.
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let mut t = Tableau::new(4);
            t.h(0);
            for q in 1..4 {
                t.cx(q - 1, q);
            }
            let parity = (0..4).fold(false, |acc, q| acc ^ t.measure(q, Basis::X, &mut rng));
            assert!(!parity);
        }
    }

    #[test]
    fn plus_state_x_measurement_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Tableau::new(1);
        t.h(0);
        assert!(!t.measure(0, Basis::X, &mut rng)); // |+⟩ gives +1 ⇒ false
        t.z_gate(0);
        assert!(t.measure(0, Basis::X, &mut rng)); // |−⟩ gives −1 ⇒ true
    }

    #[test]
    fn y_measurement_of_s_plus_state() {
        // S|+⟩ = |+i⟩, the +1 eigenstate of Y.
        let mut rng = StdRng::seed_from_u64(6);
        let mut t = Tableau::new(1);
        t.h(0);
        t.s(0);
        assert!(!t.measure(0, Basis::Y, &mut rng));
    }

    #[test]
    fn reset_forces_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut t = Tableau::new(1);
        t.h(0);
        t.reset(0, &mut rng);
        assert!(!t.measure_z(0, &mut rng));
        assert!(t.is_deterministic_z(0));
    }

    #[test]
    fn run_executes_conditionals() {
        // Teleport-like: measure |1⟩, apply conditional X elsewhere.
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Circuit::new(2, 2);
        c.x(0).measure(0, 0).cond_x(1, &[0]).measure(1, 1);
        let cbits = Tableau::run(&c, &mut rng).unwrap();
        assert_eq!(cbits, vec![true, true]);
    }

    #[test]
    fn non_clifford_gate_is_a_typed_error() {
        let mut t = Tableau::new(1);
        let err = t.apply_gate(&Gate::T(0)).unwrap_err();
        assert_eq!(err.backend, "stabilizer");
        assert!(err.reason.contains("non-Clifford"), "{}", err.reason);
        let mut c = Circuit::new(1, 1);
        c.t(0).measure(0, 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(Tableau::run(&c, &mut rng).is_err());
    }

    #[test]
    fn two_qubit_gate_on_one_qubit_is_a_typed_error() {
        let mut t = Tableau::new(2);
        t.h(0);
        let before = t.clone();
        for gate in [
            Gate::Cx {
                control: 0,
                target: 0,
            },
            Gate::Cz(1, 1),
            Gate::Swap(0, 0),
        ] {
            let err = t.apply_gate(&gate).unwrap_err();
            assert!(err.reason.contains("distinct"), "{}", err.reason);
        }
        assert_eq!(t, before);
    }

    #[test]
    fn copy_from_restores_the_source_state() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = Tableau::new(2);
        a.h(0);
        a.cx(0, 1);
        // Collapse a copy, then restore it from the untouched source.
        let mut b = Tableau::new(2);
        b.copy_from(&a);
        let _ = b.measure_z(0, &mut rng);
        b.copy_from(&a);
        // Bell correlations must hold again after the restore.
        for _ in 0..10 {
            let mut c = Tableau::new(2);
            c.copy_from(&b);
            let m0 = c.measure_z(0, &mut rng);
            let m1 = c.measure_z(1, &mut rng);
            assert_eq!(m0, m1);
        }
    }

    #[test]
    fn stabilizers_of_bell_state() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cx(0, 1);
        let stabs = t.stabilizers();
        let strings: Vec<String> = stabs
            .iter()
            .map(|(neg, p)| format!("{}{}", if *neg { "-" } else { "+" }, p))
            .collect();
        assert!(strings.contains(&"+XX".to_string()));
        assert!(strings.contains(&"+ZZ".to_string()));
    }

    #[test]
    fn determinism_detection() {
        let mut t = Tableau::new(1);
        assert!(t.is_deterministic_z(0));
        t.h(0);
        assert!(!t.is_deterministic_z(0));
    }
}
