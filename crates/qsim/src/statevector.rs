//! Pure-state (statevector) simulation.
//!
//! [`StateVector`] stores the `2ⁿ` complex amplitudes of an `n`-qubit pure
//! state and applies the gate set of the [`circuit`] crate in place.
//!
//! **Bit convention.** Qubit 0 is the *most significant* bit of the basis
//! index, so for 3 qubits the basis state `|q₀q₁q₂⟩ = |110⟩` is index 6.
//! This matches [`circuit::gate::Gate::unitary`].
//!
//! **Pinned bits.** A dynamic circuit keeps most of its qubits at a known
//! classical value most of the time: never touched yet, just measured,
//! just reset. The state remembers which (a pinned-bit mask and the
//! pinned values, private to [`StateVector`]) under one invariant:
//!
//! > every amplitude whose index disagrees with a pin is exactly zero.
//!
//! *Who pins:* [`StateVector::new`] and [`StateVector::basis_state`] pin
//! every bit (and with nothing live allocate nothing: the `2ⁿ` buffer
//! appears when the amplitudes are first read or changed),
//! [`StateVector::product_state`] pins the qubits no group
//! owns, and collapse (so [`StateVector::measure`],
//! [`StateVector::collapse`], [`StateVector::reset`]) pins the measured
//! bit. *Who unpins:* a non-diagonal gate or compiled kernel forgets the
//! pins on its support before it runs; a Pauli `X`/`Y` on a pinned bit
//! only flips the stored value. Diagonal gates and phase kernels change
//! nothing, and [`StateVector::from_amplitudes`] /
//! [`StateVector::apply_unitary`] pin nothing.
//!
//! Every amplitude loop then enumerates only the *live sub-cube*
//! `i & mask == values` — work ∝ `2^live`, not `2ⁿ` — through one
//! enumerator (`Pins::runs_in`): the maximal runs of consecutive live
//! indices matching a bit pattern inside any index range, found without
//! scanning. The compiled kernels take the runs as slices, on the
//! sequential and the amplitude-parallel path alike (the workers of
//! [`crate::amp`] split the *live* units and keep the pins); the
//! interpreter's pair loops take them index by index. Measurement goes
//! by run length, like the kernels: runs of at least `SLICE_MIN`
//! amplitudes as slices — the collapse scales each kept run and fills
//! its partner run with zeros, the outcome sum reads eight norms at a
//! time and skips a chunk whose norms are all zero — and shorter runs
//! index by index, since a run of one cannot pay for a slice. The sum
//! stays serial in ascending index order, so its rounding never
//! depends on how anything was split. This is exact, not
//! approximate: a skipped work unit holds only zeros, and any gate maps
//! zeros to zeros (of either sign, which no later sum or product can
//! tell apart), while a surviving unit does the full-register
//! arithmetic in the full-register order. The slice loops change no
//! bit either: a run's indices share the measured bit and every bit
//! above it, so XOR-ing that bit onto the run's start shifts the whole
//! run onto its contiguous partner; a scale is per element, so its
//! order is immaterial, and `x · 1.0 == x` bitwise, so a scale of
//! exactly one is skipped; the sum starts at `+0.0` and every norm is
//! `≥ +0.0`, so a skipped zero term is `p + 0.0 == p`. Amplitudes
//! (`==`), probabilities, RNG draws and records are therefore those of
//! the unpinned simulation bit for bit; pins are knowledge *about* the
//! amplitudes, not state, and take no part in equality.
//!
//! ```
//! use qsim::statevector::StateVector;
//! use circuit::gate::Gate;
//!
//! let mut psi = StateVector::new(2);
//! psi.apply_gate(&Gate::H(0));
//! psi.apply_gate(&Gate::Cx { control: 0, target: 1 });
//! // Bell state: equal weight on |00⟩ and |11⟩.
//! assert!((psi.probability(0) - 0.5).abs() < 1e-12);
//! assert!((psi.probability(3) - 0.5).abs() < 1e-12);
//! ```

use circuit::circuit::Basis;
use circuit::gate::Gate;
use mathkit::complex::{c64, Complex};
use mathkit::matrix::Matrix;
use rand::Rng;
use std::f64::consts::FRAC_1_SQRT_2;
use std::sync::OnceLock;

/// Basis-index bits known to hold a classical value: every amplitude
/// whose index disagrees with them is exactly zero (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pins {
    /// The pinned index bits.
    mask: usize,
    /// Their values; zero outside `mask`.
    vals: usize,
}

impl Pins {
    /// Nothing pinned: every loop is the full-register pass.
    pub(crate) const NONE: Pins = Pins { mask: 0, vals: 0 };

    /// Whether no bit is pinned.
    pub(crate) fn is_none(self) -> bool {
        self.mask == 0
    }

    /// These pins with `bits` forgotten.
    pub(crate) fn without(self, bits: usize) -> Pins {
        Pins {
            mask: self.mask & !bits,
            vals: self.vals & !bits,
        }
    }

    /// The one enumerator under every amplitude loop: ascending, the
    /// maximal runs of consecutive indices `i` in `range` with
    /// `i & select == ones` whose bits agree with the pins (`len`, a
    /// power of two, bounds the index space). A pattern that
    /// contradicts a pin selects only exact zeros, so nothing is
    /// enumerated.
    ///
    /// With `fixed = select | pinned` a run spans every value of the
    /// free bits below the lowest fixed one, so it is
    /// `2^(trailing free bits)` long before clipping. The first run is
    /// found in O(1) ([`first_match`]) and each successor by the
    /// submask step of [`for_each_masked`](crate::compile::for_each_masked)
    /// over the free bits above the run: a sub-range costs its live
    /// runs, never a scan of its indices.
    ///
    /// An [`Iterator`], not a callback, on purpose: the kernel bodies of
    /// [`crate::compile`] are instantiated per instruction set, and only
    /// code inlined into an instantiation is compiled for it.
    #[inline(always)]
    pub(crate) fn runs_in(
        self,
        ones: usize,
        select: usize,
        range: std::ops::Range<usize>,
        len: usize,
    ) -> Runs {
        debug_assert!(len.is_power_of_two() && range.end <= len);
        debug_assert_eq!(ones & !select, 0, "ones must lie within select");
        debug_assert_eq!((select | self.mask) & !(len - 1), 0);
        let fixed = select | self.mask;
        let pattern = ones | self.vals;
        let low = (1usize << (fixed | len).trailing_zeros()) - 1;
        let contradicts = (ones ^ self.vals) & select & self.mask != 0;
        let first = if contradicts || range.start >= range.end {
            None
        } else {
            first_match(range.start, pattern, fixed, len)
        };
        let at = first.unwrap_or(range.end);
        let step = (2 * len - 1) & !fixed & !low;
        Runs {
            at,
            end: range.end,
            pattern,
            low,
            step,
            above: at & step,
        }
    }

    /// [`Pins::runs_in`] over the whole index space.
    #[inline(always)]
    fn runs(self, ones: usize, select: usize, len: usize) -> Runs {
        self.runs_in(ones, select, 0..len, len)
    }

    /// Worker `worker`'s share of the work units [`Pins::runs_in`]
    /// enumerates for `(ones, select)`: a contiguous index range holding
    /// an even part of the *live* units (part sizes within one of each
    /// other), the ranges of all `workers` tiling `[0, len)`.
    ///
    /// Equal *index* splits are not equal *work* splits: a pair kernel
    /// on the top bit keeps every representative in the lower half of
    /// the buffer, and pinned bits leave most of the buffer dead. So the
    /// live unit counter is split evenly and mapped back to indices
    /// through the (monotone) spread of its bits over the free bit
    /// positions, the fixed bits at their pattern.
    #[inline]
    pub(crate) fn share_of(
        self,
        ones: usize,
        select: usize,
        worker: usize,
        workers: usize,
        len: usize,
    ) -> std::ops::Range<usize> {
        debug_assert!(worker < workers && len.is_power_of_two());
        let free = (len - 1) & !(select | self.mask);
        let pattern = ones | self.vals;
        let units = 1usize << free.count_ones();
        // Where worker `k`'s share starts: at its first unit.
        let bound = |k: usize| match units * k / workers {
            0 => 0,
            unit => spread(unit, free) | pattern,
        };
        let start = if worker == 0 { 0 } else { bound(worker) };
        let end = if worker + 1 == workers {
            len
        } else {
            bound(worker + 1)
        };
        start..end
    }
}

/// The smallest `y ≥ x` with `y & fixed == pattern`, if there is one
/// below `len` (`pattern ⊆ fixed ⊆ len - 1`, `x < len`).
///
/// Above the highest bit where `x` is wrong everything already agrees.
/// If `x` has a 0 there and the pattern a 1, raising it makes `y > x`
/// whatever lies below, so the free bits below drop to 0. If `x` has
/// the 1, the free bits above must count one step up — the submask
/// step — and may run out.
#[inline(always)]
fn first_match(x: usize, pattern: usize, fixed: usize, len: usize) -> Option<usize> {
    let wrong = (x ^ pattern) & fixed;
    if wrong == 0 {
        return Some(x);
    }
    let top = 1usize << wrong.ilog2();
    let above = (len - 1) & !fixed & !(top | (top - 1));
    let kept = x & above;
    if pattern & top != 0 {
        Some(kept | pattern)
    } else {
        let next = kept.wrapping_sub(above) & above;
        (next != 0).then_some(next | pattern)
    }
}

/// Distributes the low bits of `k` over the set bit positions of
/// `free`, lowest to lowest. Strictly monotone in `k`, and surjective
/// onto the submasks of `free` — the inverse of "gather the free bits
/// of an index into a dense counter".
fn spread(mut k: usize, mut free: usize) -> usize {
    let mut out = 0;
    while free != 0 {
        let bit = free & free.wrapping_neg();
        if k & 1 != 0 {
            out |= bit;
        }
        k >>= 1;
        free &= free - 1;
    }
    out
}

/// The runs of [`Pins::runs_in`].
#[derive(Debug, Clone)]
pub(crate) struct Runs {
    /// First index of the next run; `≥ end` once exhausted.
    at: usize,
    /// End of the clipping range.
    end: usize,
    /// The fixed bits' required values.
    pattern: usize,
    /// The trailing free bits: one run spans all their values.
    low: usize,
    /// The free bits above the run, stepped through their submasks —
    /// and the bit `len` above those, so that the step after the last
    /// run carries out of the index space instead of wrapping to zero.
    step: usize,
    /// Where that count stands: `at`'s bits within `step`.
    above: usize,
}

impl Runs {
    /// The length of every run before clipping: `2^(trailing free bits)`.
    #[inline(always)]
    pub(crate) fn run_len(&self) -> usize {
        self.low + 1
    }

    /// The same indices one at a time, for the loops that have no use
    /// for slices: the trailing free bits are counted through like the
    /// others, so every run is one index.
    #[inline(always)]
    pub(crate) fn singles(mut self) -> impl Iterator<Item = usize> {
        self.step |= self.low;
        self.low = 0;
        self.above = self.at & self.step;
        self.map(|run| run.start)
    }
}

impl Iterator for Runs {
    type Item = std::ops::Range<usize>;

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        let start = self.at;
        if start >= self.end {
            return None;
        }
        // Only a first run may start mid-way; every run ends with its
        // low bits all set, or at the clip.
        let stop = ((start | self.low) + 1).min(self.end);
        self.above = self.above.wrapping_sub(self.step) & self.step;
        self.at = self.above | self.pattern;
        Some(start..stop)
    }
}

/// A pure quantum state on `n` qubits.
#[derive(Debug, Clone)]
pub struct StateVector {
    num_qubits: usize,
    /// Unset while the state is a *bare* basis state, as created by
    /// [`StateVector::basis_state`] or copied from one: every bit
    /// pinned, amplitude one at `pins.vals`. The `2ⁿ` buffer appears
    /// on first use.
    amps: OnceLock<Vec<Complex>>,
    pins: Pins,
}

/// Amplitude equality: pins are knowledge about the amplitudes, not
/// state.
impl PartialEq for StateVector {
    fn eq(&self, other: &Self) -> bool {
        self.num_qubits == other.num_qubits && self.amps() == other.amps()
    }
}

impl StateVector {
    /// The all-zeros state `|0…0⟩`.
    pub fn new(num_qubits: usize) -> Self {
        assert!(num_qubits <= 26, "statevector limited to 26 qubits");
        Self::basis_state(num_qubits, 0)
    }

    /// Builds a state from explicit amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm differs from
    /// one by more than `1e-6`.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        assert!(amps.len().is_power_of_two(), "length must be a power of 2");
        let num_qubits = amps.len().trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-6,
            "state must be normalized (got ‖ψ‖² = {norm})"
        );
        StateVector {
            num_qubits,
            amps: OnceLock::from(amps),
            pins: Pins::NONE,
        }
    }

    /// The computational basis state `|index⟩`. It is *bare* — it owns
    /// no amplitude buffer — until something reads or changes its
    /// amplitudes; [`Clone`] and [`StateVector::copy_from`] keep it so.
    /// A sampling call's template state is only ever cloned and copied
    /// from, so it never costs `2ⁿ` amplitudes.
    pub fn basis_state(num_qubits: usize, index: usize) -> Self {
        assert!(index < (1 << num_qubits), "basis index out of range");
        StateVector {
            num_qubits,
            amps: OnceLock::new(),
            pins: Pins {
                mask: (1 << num_qubits) - 1,
                vals: index,
            },
        }
    }

    /// Builds a product state by placing each group's pure state on the
    /// listed qubits; qubits not covered by any group start in `|0⟩`
    /// (and are pinned there). Allocating wrapper over
    /// [`StateVector::set_product_state`].
    ///
    /// # Panics
    ///
    /// Panics if a qubit is claimed twice, is out of range, or a group's
    /// amplitude count does not match its qubit count.
    pub fn product_state(num_qubits: usize, groups: &[(Vec<Complex>, Vec<usize>)]) -> Self {
        let mut sv = StateVector::new(num_qubits);
        sv.set_product_state(groups);
        sv
    }

    /// [`StateVector::product_state`] in place, on this state's own
    /// register: overwrites the state, reusing its allocation, and
    /// writes only the `2^owned` entries a product state can make
    /// nonzero — each with the arithmetic of a full scan
    /// (`1 · g₀[s₀] · g₁[s₁] · …`, groups in order). The per-shot
    /// set-up of `compas`'s trace estimates.
    ///
    /// # Panics
    ///
    /// As [`StateVector::product_state`].
    pub fn set_product_state<A: AsRef<[Complex]>, Q: AsRef<[usize]>>(&mut self, groups: &[(A, Q)]) {
        let n = self.num_qubits;
        let mut owned = 0usize;
        for (gi, (amps, qubits)) in groups.iter().enumerate() {
            assert_eq!(
                amps.as_ref().len(),
                1 << qubits.as_ref().len(),
                "group {gi}: amplitude count must be 2^(qubit count)"
            );
            for &q in qubits.as_ref() {
                assert!(q < n, "group {gi}: qubit {q} out of range");
                let mask = crate::compile::qubit_mask(q, n);
                assert!(owned & mask == 0, "qubit {q} claimed by two groups");
                owned |= mask;
            }
        }
        self.zero_live();
        // Uncovered qubits are 0 in the basis index of every nonzero
        // entry.
        let len = 1usize << n;
        let pins = Pins {
            mask: (len - 1) & !owned,
            vals: 0,
        };
        self.pins = pins;
        let amps = self.amps_mut();
        let mut norm_sqr = 0.0;
        for i in pins.runs(0, 0, len).singles() {
            let mut val = Complex::ONE;
            for (g_amps, g_qubits) in groups {
                let sub = g_qubits
                    .as_ref()
                    .iter()
                    .fold(0, |sub, &q| (sub << 1) | bit(i, q, n));
                val *= g_amps.as_ref()[sub];
            }
            amps[i] = val;
            norm_sqr += val.norm_sqr();
        }
        debug_assert!((norm_sqr - 1.0).abs() < 1e-9);
    }

    /// Zeroes the live sub-cube — by the pin invariant, the whole
    /// buffer.
    fn zero_live(&mut self) {
        let pins = self.pins;
        let amps = self.amps_mut();
        for run in pins.runs(0, 0, amps.len()) {
            amps[run].fill(Complex::ZERO);
        }
    }

    /// Overwrites this state with a copy of `other`, reusing the
    /// existing amplitude allocation when capacities allow — the
    /// buffer-reuse primitive behind `runner::run_shot_into` and the
    /// engine crate's per-worker scratch states.
    ///
    /// Between equal-width states the cost follows the two live
    /// sub-cubes, not `2ⁿ`: zero this state's, copy `other`'s, take its
    /// pins. Outside both everything is already zero, so the result is
    /// the full copy exactly. A bare basis state (see
    /// [`StateVector::basis_state`]) is copied without giving it a
    /// buffer.
    pub fn copy_from(&mut self, other: &StateVector) {
        let same_width = self.num_qubits == other.num_qubits;
        match other.amps.get() {
            Some(src) if same_width && !other.pins.is_none() => {
                self.zero_live();
                let amps = self.amps_mut();
                for run in other.pins.runs(0, 0, src.len()) {
                    amps[run.clone()].copy_from_slice(&src[run]);
                }
            }
            Some(src) => {
                let mut amps = self.amps.take().unwrap_or_default();
                amps.clear();
                amps.extend_from_slice(src);
                self.amps = OnceLock::from(amps);
            }
            None if same_width && self.amps.get().is_some() => {
                self.zero_live();
                self.amps_mut()[other.pins.vals] = Complex::ONE;
            }
            None => self.amps = OnceLock::new(),
        }
        self.num_qubits = other.num_qubits;
        self.pins = other.pins;
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector in basis order.
    pub fn amplitudes(&self) -> &[Complex] {
        self.amps()
    }

    /// The amplitudes; gives a bare basis state its buffer.
    fn amps(&self) -> &[Complex] {
        self.amps.get_or_init(|| {
            let len = 1usize << self.num_qubits;
            debug_assert_eq!(self.pins.mask, len - 1, "a bare state has every bit pinned");
            let mut amps = vec![Complex::ZERO; len];
            amps[self.pins.vals] = Complex::ONE;
            amps
        })
    }

    /// [`StateVector::amps`], mutably. Call it before changing the
    /// pins: a bare basis state reads its index off them.
    fn amps_mut(&mut self) -> &mut Vec<Complex> {
        self.amps();
        self.amps.get_mut().expect("initialised on the line above")
    }

    /// The pins in force.
    pub(crate) fn pins(&self) -> Pins {
        self.pins
    }

    /// Forgets the pins on the index `bits` an operation is about to
    /// mix and hands out the whole amplitude buffer. The replay driver
    /// of [`crate::amp`] reads [`StateVector::pins`] first and lets
    /// every kernel of a segment fold its own unpinning.
    pub(crate) fn amps_mut_unpinning(&mut self, bits: usize) -> &mut [Complex] {
        self.amps_mut();
        self.pins = self.pins.without(bits);
        self.amps_mut()
    }

    /// Whether the pin invariant holds: every amplitude whose index
    /// disagrees with a pin is exactly zero.
    #[cfg(test)]
    pub(crate) fn pins_hold(&self) -> bool {
        let Pins { mask, vals } = self.pins;
        self.amps()
            .iter()
            .enumerate()
            .all(|(i, a)| i & mask == vals || *a == Complex::ZERO)
    }

    /// Squared norm (should be 1 up to round-off).
    pub fn norm_sqr(&self) -> f64 {
        self.amps().iter().map(|a| a.norm_sqr()).sum()
    }

    /// Probability of observing basis state `index` on full measurement.
    pub fn probability(&self, index: usize) -> f64 {
        self.amps()[index].norm_sqr()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> Complex {
        assert_eq!(self.num_qubits, other.num_qubits);
        self.amps()
            .iter()
            .zip(other.amps())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Fidelity `|⟨self|other⟩|²` with another pure state.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    // ------------------------------------------------------------------
    // Gate application.
    // ------------------------------------------------------------------

    /// Applies a gate in place.
    ///
    /// This interpreter is the differential reference for the compiled
    /// kernels: its arithmetic is untouched by the pins, it only
    /// maintains them (and lets its pair loops skip dead pairs).
    pub fn apply_gate(&mut self, gate: &Gate) {
        // The pins change first: give a bare basis state its buffer
        // while they still name its index.
        self.amps_mut();
        let n = self.num_qubits;
        let mask_of = |q| crate::compile::qubit_mask(q, n);
        match *gate {
            // Diagonal: zeros stay zeros where they are.
            Gate::Z(_)
            | Gate::S(_)
            | Gate::Sdg(_)
            | Gate::T(_)
            | Gate::Tdg(_)
            | Gate::Rz(..)
            | Gate::Cz(..) => {}
            // A Pauli flip moves the zeros to the other half.
            Gate::X(q) | Gate::Y(q) => self.pins.vals ^= mask_of(q) & self.pins.mask,
            _ => {
                let support = gate.qubits().iter().fold(0, |m, &q| m | mask_of(q));
                self.pins = self.pins.without(support);
            }
        }
        match *gate {
            Gate::H(q) => {
                let h = FRAC_1_SQRT_2;
                self.map_pairs(q, |a0, a1| ((a0 + a1).scale(h), (a0 - a1).scale(h)));
            }
            Gate::X(q) => self.map_pairs(q, |a0, a1| (a1, a0)),
            Gate::Y(q) => self.map_pairs(q, |a0, a1| (a1 * c64(0.0, -1.0), a0 * Complex::I)),
            Gate::Z(q) => self.map_pairs(q, |a0, a1| (a0, -a1)),
            Gate::S(q) => self.map_pairs(q, |a0, a1| (a0, a1 * Complex::I)),
            Gate::Sdg(q) => self.map_pairs(q, |a0, a1| (a0, a1 * -Complex::I)),
            Gate::T(q) => {
                let w = Complex::from_polar(1.0, std::f64::consts::FRAC_PI_4);
                self.map_pairs(q, |a0, a1| (a0, a1 * w));
            }
            Gate::Tdg(q) => {
                let w = Complex::from_polar(1.0, -std::f64::consts::FRAC_PI_4);
                self.map_pairs(q, |a0, a1| (a0, a1 * w));
            }
            Gate::Rx(q, ang) => {
                let (c, s) = ((ang / 2.0).cos(), (ang / 2.0).sin());
                let is = c64(0.0, -s);
                self.map_pairs(q, |a0, a1| (a0.scale(c) + a1 * is, a0 * is + a1.scale(c)));
            }
            Gate::Ry(q, ang) => {
                let (c, s) = ((ang / 2.0).cos(), (ang / 2.0).sin());
                self.map_pairs(q, |a0, a1| {
                    (a0.scale(c) - a1.scale(s), a0.scale(s) + a1.scale(c))
                });
            }
            Gate::Rz(q, ang) => {
                let (m, p) = (
                    Complex::from_polar(1.0, -ang / 2.0),
                    Complex::from_polar(1.0, ang / 2.0),
                );
                self.map_pairs(q, |a0, a1| (a0 * m, a1 * p));
            }
            Gate::Cz(a, b) => {
                // Touch only the 2^(n-2) amplitudes with both bits set
                // instead of scanning (and bit-testing) all 2^n.
                let mask = mask_of(a) | mask_of(b);
                let pins = self.pins;
                let amps = self.amps_mut();
                for i in pins.runs(mask, mask, amps.len()).singles() {
                    amps[i] = -amps[i];
                }
            }
            Gate::Cx { .. } | Gate::Swap(..) | Gate::Ccx { .. } | Gate::Cswap { .. } => {
                // A controlled permutation swaps, in place, each live
                // index matching the pattern with its partner — the
                // masks the compiler lowers the same gate to.
                let (ones, select, flip) = crate::compile::permutation_masks(gate, n)
                    .expect("the four controlled permutations have masks");
                let pins = self.pins;
                let amps = self.amps_mut();
                for i in pins.runs(ones, select, amps.len()).singles() {
                    amps.swap(i, i ^ flip);
                }
            }
        }
    }

    /// Applies an arbitrary unitary on the listed qubits (≤ 13 of them).
    ///
    /// `u` must be `2^k × 2^k` where `k = qubits.len()`; `qubits[0]` is the
    /// most significant bit of `u`'s basis ordering.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or repeated qubits.
    pub fn apply_unitary(&mut self, u: &Matrix, qubits: &[usize]) {
        let k = qubits.len();
        assert_eq!(u.rows(), 1 << k, "unitary dimension mismatch");
        assert!(u.is_square());
        let n = self.num_qubits;
        let mut seen = vec![false; n];
        for &q in qubits {
            assert!(q < n, "qubit {q} out of range");
            assert!(!seen[q], "repeated qubit {q}");
            seen[q] = true;
        }
        let dim_sub = 1usize << k;
        let mut scratch = vec![Complex::ZERO; dim_sub];
        // Precompute the sub-index → global-offset table once
        // (`qubits[0]` is the MSB of `u`'s basis ordering), so the
        // gather/scatter loops are a single OR per element instead of
        // per-qubit shift arithmetic.
        let select = qubits
            .iter()
            .fold(0usize, |m, &q| m | crate::compile::qubit_mask(q, n));
        let mut sub_mask = vec![0usize; dim_sub];
        for (bi, &q) in qubits.iter().enumerate() {
            let m = crate::compile::qubit_mask(q, n);
            let sub_bit = 1usize << (k - 1 - bi);
            for (s, offset) in sub_mask.iter_mut().enumerate() {
                if s & sub_bit != 0 {
                    *offset |= m;
                }
            }
        }
        // The base indices — every assignment of the non-target qubits,
        // target bits clear — are exactly the indices with no `select`
        // bit set.
        let amps = self.amps_mut_unpinning(select);
        crate::compile::for_each_masked(0, select, amps.len(), |base| {
            for (s, slot) in scratch.iter_mut().enumerate() {
                *slot = amps[base | sub_mask[s]];
            }
            let transformed = u.mul_vec(&scratch);
            for (s, &val) in transformed.iter().enumerate() {
                amps[base | sub_mask[s]] = val;
            }
        });
    }

    /// Maps every live amplitude pair of qubit `q`. A pin on `q` itself
    /// says one member is zero, not that the pair is dead, so the pairs
    /// are those of the *other* pins.
    fn map_pairs(&mut self, q: usize, f: impl Fn(Complex, Complex) -> (Complex, Complex)) {
        let stride = crate::compile::qubit_mask(q, self.num_qubits);
        let pins = self.pins.without(stride);
        let amps = self.amps_mut();
        for i in pins.runs(0, stride, amps.len()).singles() {
            let j = i | stride;
            let (b0, b1) = f(amps[i], amps[j]);
            amps[i] = b0;
            amps[j] = b1;
        }
    }

    // ------------------------------------------------------------------
    // Measurement.
    // ------------------------------------------------------------------

    /// Probability that measuring qubit `q` in the Z basis yields 1.
    pub fn probability_of_one(&self, q: usize) -> f64 {
        // Sum only the live one-bit amplitudes, in ascending index
        // order: the accumulation order of a full filtered scan with
        // its `+ 0.0` terms dropped, so the result is bit-identical to
        // it — down to the exact `0.0` of a bit pinned to 0.
        let mask = crate::compile::qubit_mask(q, self.num_qubits);
        let amps = self.amps();
        let runs = self.pins.runs(mask, mask, amps.len());
        if runs.run_len() >= SLICE_MIN {
            return sum_norms_skipping_zeros(amps, runs);
        }
        let mut p = 0.0;
        for run in runs {
            for a in &amps[run] {
                p += a.norm_sqr();
            }
        }
        p
    }

    /// Projects qubit `q` onto `outcome` (Z basis) and renormalizes.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has (near-)zero probability.
    pub fn collapse(&mut self, q: usize, outcome: bool) {
        let p = if outcome {
            self.probability_of_one(q)
        } else {
            1.0 - self.probability_of_one(q)
        };
        self.collapse_known(q, outcome, p);
    }

    /// [`StateVector::collapse`] with the outcome probability already in
    /// hand, so measurement does not rescan the amplitudes for a number
    /// it just computed.
    fn collapse_known(&mut self, q: usize, outcome: bool, p: f64) {
        assert!(p > 1e-15, "collapse onto a zero-probability outcome");
        let scale = 1.0 / p.sqrt();
        // Scale the kept half and zero the discarded half — each run of
        // the one sits one `mask` from its run of the other, and long
        // runs go as slices ([`SLICE_MIN`]) — then pin the bit. A bit
        // already pinned to `outcome` is still scaled (`p` is 1 only
        // up to round-off) and its other half, all zeros, zeroed again.
        let mask = crate::compile::qubit_mask(q, self.num_qubits);
        let keep = if outcome { mask } else { 0 };
        let pins = self.pins;
        let amps = self.amps_mut();
        let runs = pins.without(mask).runs(keep, mask, amps.len());
        if runs.run_len() >= SLICE_MIN {
            collapse_runs(amps, runs, mask, scale);
        } else {
            for i in runs.singles() {
                amps[i] = amps[i].scale(scale);
                amps[i ^ mask] = Complex::ZERO;
            }
        }
        self.pins = Pins {
            mask: pins.mask | mask,
            vals: pins.vals & !mask | keep,
        };
    }

    /// Measures qubit `q` in `basis`, sampling the outcome with `rng` and
    /// collapsing the state. Returns the outcome.
    pub fn measure(&mut self, q: usize, basis: Basis, rng: &mut impl Rng) -> bool {
        self.rotate_basis_in(q, basis);
        let p1 = self.probability_of_one(q);
        let outcome = rng.random::<f64>() < p1;
        self.collapse_known(q, outcome, if outcome { p1 } else { 1.0 - p1 });
        self.rotate_basis_out(q, basis);
        outcome
    }

    /// Resets qubit `q` to `|0⟩` by measuring and flipping if needed.
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        let outcome = self.measure(q, Basis::Z, rng);
        if outcome {
            self.apply_gate(&Gate::X(q));
        }
    }

    fn rotate_basis_in(&mut self, q: usize, basis: Basis) {
        match basis {
            Basis::Z => {}
            Basis::X => self.apply_gate(&Gate::H(q)),
            Basis::Y => {
                self.apply_gate(&Gate::Sdg(q));
                self.apply_gate(&Gate::H(q));
            }
        }
    }

    fn rotate_basis_out(&mut self, q: usize, basis: Basis) {
        match basis {
            Basis::Z => {}
            Basis::X => self.apply_gate(&Gate::H(q)),
            Basis::Y => {
                self.apply_gate(&Gate::H(q));
                self.apply_gate(&Gate::S(q));
            }
        }
    }

    /// Samples a full Z-basis measurement outcome *without* collapsing.
    pub fn sample_bits(&self, rng: &mut impl Rng) -> usize {
        let mut r = rng.random::<f64>();
        let amps = self.amps();
        for (i, a) in amps.iter().enumerate() {
            r -= a.norm_sqr();
            if r <= 0.0 {
                return i;
            }
        }
        amps.len() - 1
    }

    /// The density matrix `|ψ⟩⟨ψ|` of this state.
    pub fn to_density(&self) -> Matrix {
        let amps = self.amps();
        let dim = amps.len();
        let mut rho = Matrix::zeros(dim, dim);
        for i in 0..dim {
            for j in 0..dim {
                rho[(i, j)] = amps[i] * amps[j].conj();
            }
        }
        rho
    }
}

/// Runs at least this long take measurement's slice loops
/// ([`sum_norms_skipping_zeros`], [`collapse_runs`]); shorter ones keep
/// the index loops. Slices ÷ index loops on 12-qubit states (a 2-core
/// Xeon, best of three), sum per amplitude and collapse per pair, dense
/// state / GHZ: runs of 1 1.8 / 1.6 and 6.4 / 6.9; of 2 1.6 / 1.3 and
/// 1.9 / 1.4; of 4 0.92 / 0.84 and 1.2 / 0.95; of 8 0.95 / 0.41 and
/// 0.77 / 0.86; of 64 and more 1.06 / 0.71 and ≈ 0.55 / 0.5. So a run
/// of one or two cannot pay for a slice, and the runs of `lib-compas`'s
/// teledata shots are all 1–3 long (≈ 1 250 of length 1 per shot).
/// The length is tested once per call, with the slice loops out of
/// line, so the short path compiles to the plain index loops.
const SLICE_MIN: usize = 8;

/// [`StateVector::probability_of_one`]'s sum over long runs, bit for
/// bit: eight norms at a time, a chunk whose norms are all `0.0`
/// skipped, every other norm added serially in ascending index order.
///
/// Exact because the sum starts at `+0.0` and every norm is `≥ +0.0`
/// (never `-0.0`: a sum of squares), so adding a zero norm is
/// `p + 0.0 == p` bitwise — the argument by which the pinned-bit loops
/// already drop dead amplitudes. Nothing is reassociated.
#[inline(never)]
fn sum_norms_skipping_zeros(amps: &[Complex], runs: Runs) -> f64 {
    let mut p = 0.0;
    for run in runs {
        let chunks = amps[run].chunks_exact(8);
        let rest = chunks.remainder();
        for chunk in chunks {
            let norms: [f64; 8] = std::array::from_fn(|k| chunk[k].norm_sqr());
            if norms.iter().all(|&x| x == 0.0) {
                continue;
            }
            for x in norms {
                p += x;
            }
        }
        for a in rest {
            p += a.norm_sqr();
        }
    }
    p
}

/// [`StateVector::collapse_known`]'s loop over long runs, bit for bit:
/// each kept run is scaled as a slice and its partner run, one `mask`
/// away, filled with zeros.
///
/// Exact because the runs of `Pins::runs` with `mask` selected share
/// the measured bit and every bit above it, so XOR-ing `mask` onto a
/// run's start shifts the whole run onto a contiguous partner (built
/// from the start: the exclusive end may carry into the measured bit);
/// the scale is per element, so its order is immaterial; and
/// `x · 1.0 == x` bitwise, so a scale of exactly `1.0` is skipped.
#[inline(never)]
fn collapse_runs(amps: &mut [Complex], runs: Runs, mask: usize, scale: f64) {
    for run in runs {
        let partner = run.start ^ mask;
        let len = run.len();
        if scale != 1.0 {
            for a in &mut amps[run] {
                *a = a.scale(scale);
            }
        }
        amps[partner..partner + len].fill(Complex::ZERO);
    }
}

/// Value of qubit `q`'s bit within basis index `i` of an `n`-qubit register.
#[inline]
pub fn bit(i: usize, q: usize, n: usize) -> usize {
    (i >> (n - 1 - q)) & 1
}

/// Basis index `i` with qubit `q`'s bit flipped.
#[inline]
pub fn flip(i: usize, q: usize, n: usize) -> usize {
    i ^ (1 << (n - 1 - q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimState;
    use circuit::circuit::{Circuit, Instruction};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    #[test]
    fn initial_state_is_all_zero() {
        let psi = StateVector::new(3);
        assert_eq!(psi.probability(0), 1.0);
        assert!((psi.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_msb_convention() {
        let mut psi = StateVector::new(3);
        psi.apply_gate(&Gate::X(0));
        // Qubit 0 is the most significant bit: |100⟩ = index 4.
        assert_eq!(psi.probability(4), 1.0);
    }

    #[test]
    fn ghz_state_from_h_and_cnots() {
        let mut psi = StateVector::new(3);
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        psi.apply_gate(&Gate::Cx {
            control: 1,
            target: 2,
        });
        assert!((psi.probability(0) - 0.5).abs() < TOL);
        assert!((psi.probability(7) - 0.5).abs() < TOL);
    }

    #[test]
    fn every_gate_matches_its_unitary() {
        let gates = [
            Gate::H(1),
            Gate::X(0),
            Gate::Y(2),
            Gate::Z(1),
            Gate::S(0),
            Gate::Sdg(2),
            Gate::T(1),
            Gate::Tdg(0),
            Gate::Rx(1, 0.37),
            Gate::Ry(2, -1.1),
            Gate::Rz(0, 2.2),
            Gate::Cx {
                control: 2,
                target: 0,
            },
            Gate::Cz(0, 2),
            Gate::Swap(1, 2),
            Gate::Ccx {
                control_a: 2,
                control_b: 0,
                target: 1,
            },
            Gate::Cswap {
                control: 1,
                swap_a: 2,
                swap_b: 0,
            },
        ];
        let mut rng = StdRng::seed_from_u64(42);
        for g in gates {
            // Random-ish initial state built from rotations.
            let mut fast = StateVector::new(3);
            for q in 0..3 {
                fast.apply_gate(&Gate::Ry(q, rng.random_range(0.0..3.0)));
                fast.apply_gate(&Gate::Rz(q, rng.random_range(0.0..3.0)));
            }
            fast.apply_gate(&Gate::Cx {
                control: 0,
                target: 2,
            });
            let mut slow = fast.clone();
            fast.apply_gate(&g);
            slow.apply_unitary(&g.unitary(), &g.qubits());
            let fid = fast.fidelity(&slow);
            assert!(
                (fid - 1.0).abs() < 1e-10,
                "gate {g} disagrees with its unitary (fidelity {fid})"
            );
        }
    }

    #[test]
    fn measurement_statistics_of_plus_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ones = 0;
        for _ in 0..2000 {
            let mut psi = StateVector::new(1);
            psi.apply_gate(&Gate::H(0));
            if psi.measure(0, Basis::Z, &mut rng) {
                ones += 1;
            }
        }
        let frac = ones as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn x_basis_measurement_of_plus_state_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let mut psi = StateVector::new(1);
            psi.apply_gate(&Gate::H(0));
            assert!(!psi.measure(0, Basis::X, &mut rng), "|+⟩ must give +1 in X");
        }
    }

    #[test]
    fn y_basis_measurement_of_i_state_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            // |+i⟩ = S|+⟩.
            let mut psi = StateVector::new(1);
            psi.apply_gate(&Gate::H(0));
            psi.apply_gate(&Gate::S(0));
            assert!(!psi.measure(0, Basis::Y, &mut rng));
        }
    }

    #[test]
    fn collapse_renormalizes() {
        let mut psi = StateVector::new(2);
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        psi.collapse(0, true);
        assert!((psi.probability(3) - 1.0).abs() < TOL);
        assert!((psi.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn reset_sends_to_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut psi = StateVector::new(2);
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        psi.reset(0, &mut rng);
        assert!(psi.probability_of_one(0) < TOL);
        assert!((psi.norm_sqr() - 1.0).abs() < TOL);
    }

    /// The full-scan product-state construction this crate used before
    /// the in-place fill: every index visited, groups multiplied in
    /// order. The fill must reproduce it exactly.
    fn product_reference(n: usize, groups: &[(Vec<Complex>, Vec<usize>)]) -> Vec<Complex> {
        let owned: Vec<usize> = groups.iter().flat_map(|(_, qs)| qs.clone()).collect();
        (0..1usize << n)
            .map(|i| {
                if (0..n).any(|q| !owned.contains(&q) && bit(i, q, n) == 1) {
                    return Complex::ZERO;
                }
                groups.iter().fold(Complex::ONE, |val, (g_amps, g_qubits)| {
                    let sub = g_qubits.iter().fold(0, |s, &q| (s << 1) | bit(i, q, n));
                    val * g_amps[sub]
                })
            })
            .collect()
    }

    /// A dirty buffer with some bits pinned: `|+…+⟩` with its last qubit
    /// measured.
    fn partly_measured(n: usize, rng: &mut StdRng) -> StateVector {
        let mut sv = StateVector::new(n);
        for q in 0..n {
            sv.apply_gate(&Gate::H(q));
        }
        sv.measure(n - 1, Basis::Z, rng);
        sv
    }

    /// `groups` through the allocating constructor and through the
    /// in-place fill of dirty buffers (other pins, no pins): all equal
    /// the reference.
    fn assert_product_state(n: usize, groups: &[(Vec<Complex>, Vec<usize>)]) -> StateVector {
        let reference = product_reference(n, groups);
        let fresh = StateVector::product_state(n, groups);
        assert_eq!(fresh.amplitudes(), reference);
        assert!(fresh.pins_hold());
        let mut rng = StdRng::seed_from_u64(8);
        let measured = partly_measured(n, &mut rng);
        let unpinned = StateVector::from_amplitudes(crate::qrand::random_pure_state(n, &mut rng));
        for mut dirty in [measured, unpinned] {
            dirty.set_product_state(groups);
            assert_eq!(dirty, fresh);
            assert!(dirty.pins_hold());
        }
        fresh
    }

    #[test]
    fn bare_basis_state_is_the_basis_state() {
        let bare = StateVector::basis_state(3, 0b101);
        let mut rng = StdRng::seed_from_u64(10);
        // Destinations: bare and dirty (some pins, none), both widths.
        let unpinned = StateVector::from_amplitudes(crate::qrand::random_pure_state(3, &mut rng));
        for mut dest in [
            StateVector::new(3),
            StateVector::new(5),
            partly_measured(3, &mut rng),
            partly_measured(5, &mut rng),
            unpinned.clone(),
        ] {
            dest.copy_from(&bare);
            assert!(dest.pins_hold());
            assert_eq!(dest.num_qubits(), 3);
            assert_eq!(dest.probability(0b101), 1.0);
            assert!((dest.norm_sqr() - 1.0).abs() < TOL);
            // Its pins name the right index: a flip moves the one.
            dest.apply_gate(&Gate::X(1));
            assert!(dest.pins_hold());
            assert_eq!(dest.probability(0b111), 1.0);
        }
        // Copying from it, and cloning it, gave it no buffer.
        assert!(bare.amps.get().is_none() && bare.clone().amps.get().is_none());
        // The other direction: a bare destination takes any source.
        let mut dest = StateVector::new(3);
        dest.copy_from(&unpinned);
        assert_eq!(dest, unpinned);
        dest = StateVector::new(3);
        let source = partly_measured(3, &mut rng);
        dest.copy_from(&source);
        assert!(dest == source && dest.pins_hold());
    }

    #[test]
    fn product_state_places_groups() {
        // Qubit 1 gets |1⟩, qubit 0 and 2 stay |0⟩.
        let one = vec![Complex::ZERO, Complex::ONE];
        let psi = assert_product_state(3, &[(one, vec![1])]);
        assert_eq!(psi.probability(0b010), 1.0);
    }

    #[test]
    fn product_state_with_entangled_group_on_scattered_qubits() {
        // Bell pair on qubits (2, 0) of a 3-qubit register; qubit 1 in |0⟩.
        let h = FRAC_1_SQRT_2;
        let bell = vec![c64(h, 0.0), Complex::ZERO, Complex::ZERO, c64(h, 0.0)];
        let psi = assert_product_state(3, &[(bell.clone(), vec![2, 0])]);
        // |q2 q0⟩ ∈ {00, 11} ⇒ indices 000 and 101.
        assert!((psi.probability(0b000) - 0.5).abs() < TOL);
        assert!((psi.probability(0b101) - 0.5).abs() < TOL);
        // Two scattered groups with complex amplitudes beside it.
        let mut rng = StdRng::seed_from_u64(9);
        let pair = crate::qrand::random_pure_state(2, &mut rng);
        let single = crate::qrand::random_pure_state(1, &mut rng);
        assert_product_state(
            6,
            &[(pair, vec![4, 1]), (bell, vec![5, 0]), (single, vec![2])],
        );
    }

    /// The interpreter's controlled permutations as they were before
    /// the in-place swaps: a fresh `2ⁿ` vector, every index visited.
    fn permute_by_scratch_vector(amps: &[Complex], gate: &Gate, n: usize) -> Vec<Complex> {
        let differ = |i: usize, a: usize, b: usize| bit(i, a, n) != bit(i, b, n);
        let perm = |i: usize| match *gate {
            Gate::Cx { control, target } if bit(i, control, n) == 1 => flip(i, target, n),
            Gate::Swap(a, b) if differ(i, a, b) => flip(flip(i, a, n), b, n),
            Gate::Ccx {
                control_a,
                control_b,
                target,
            } if bit(i, control_a, n) == 1 && bit(i, control_b, n) == 1 => flip(i, target, n),
            Gate::Cswap {
                control,
                swap_a,
                swap_b,
            } if bit(i, control, n) == 1 && differ(i, swap_a, swap_b) => {
                flip(flip(i, swap_a, n), swap_b, n)
            }
            _ => i,
        };
        let mut out = vec![Complex::ZERO; amps.len()];
        for (i, &a) in amps.iter().enumerate() {
            out[perm(i)] = a;
        }
        out
    }

    #[test]
    fn in_place_permutations_equal_the_scratch_vector_ones() {
        let n = 6;
        let gates = [
            Gate::Cx {
                control: 4,
                target: 1,
            },
            Gate::Cx {
                control: 0,
                target: 5,
            },
            Gate::Swap(5, 2),
            Gate::Ccx {
                control_a: 3,
                control_b: 0,
                target: 4,
            },
            Gate::Cswap {
                control: 2,
                swap_a: 5,
                swap_b: 0,
            },
        ];
        let mut rng = StdRng::seed_from_u64(12);
        // Unpinned, and pinned three ways: a product state, a bare
        // basis state, and a state with measured qubits.
        let mut starts = vec![
            StateVector::from_amplitudes(crate::qrand::random_pure_state(n, &mut rng)),
            StateVector::product_state(
                n,
                &[
                    (crate::qrand::random_pure_state(2, &mut rng), vec![4, 0]),
                    (crate::qrand::random_pure_state(1, &mut rng), vec![3]),
                ],
            ),
            StateVector::basis_state(n, 0b101101),
        ];
        let mut measured = starts[0].clone();
        measured.measure(4, Basis::Z, &mut rng);
        measured.measure(2, Basis::X, &mut rng);
        starts.push(measured);
        for start in &starts {
            for gate in &gates {
                let expected = permute_by_scratch_vector(start.amplitudes(), gate, n);
                let mut sv = start.clone();
                sv.apply_gate(gate);
                assert_eq!(sv.amplitudes(), expected, "{gate}");
                assert!(sv.pins_hold(), "{gate}");
            }
        }
    }

    // ---- the run enumerator ---------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `runs_in` against the definition: flattened it is the
        /// filter-scan of the range, its runs are ascending, disjoint,
        /// non-empty and maximal, `singles` lists the same indices, and
        /// `first_match` is the brute-force search — for unaligned
        /// ranges (empty, one index, inside one run), contradicting
        /// patterns and `len = 1`.
        #[test]
        fn runs_are_the_filter_scan_of_the_range(
            log_len in 0u32..11,
            words in collection::vec(any::<u64>(), 6),
            shape in 0u8..4,
        ) {
            let len = 1usize << log_len;
            let all = len - 1;
            // Sparse random masks (two words ANDed), values inside them.
            let select = (words[0] & words[1]) as usize & all;
            let ones = words[2] as usize & select;
            let mask = (words[3] & words[3] >> 20) as usize & all;
            let pins = Pins { mask, vals: words[4] as usize & mask };
            let (a, b) = ((words[5] as usize) % (len + 1), (words[5] >> 32) as usize % (len + 1));
            let range = match shape {
                0 => 0..len,
                1 => a..a,                      // empty
                2 => a.min(len - 1)..a.min(len - 1) + 1, // one index
                _ => a.min(b)..a.max(b),
            };
            let live = |i: usize| i & select == ones && i & pins.mask == pins.vals;
            let expected: Vec<usize> = range.clone().filter(|&i| live(i)).collect();

            let runs: Vec<_> = pins.runs_in(ones, select, range.clone(), len).collect();
            let flat: Vec<usize> = runs.iter().cloned().flatten().collect();
            prop_assert_eq!(&flat, &expected, "{:?} {:?}", pins, range);
            for run in &runs {
                prop_assert!(run.start < run.end && range.start <= run.start && run.end <= range.end);
            }
            for pair in runs.windows(2) {
                // Ascending and disjoint, and maximal: never touching.
                prop_assert!(pair[0].end < pair[1].start);
            }
            for run in &runs {
                // Maximal at both ends within the range.
                prop_assert!(run.start == range.start || !live(run.start - 1));
                prop_assert!(run.end == range.end || !live(run.end));
            }
            let singles: Vec<usize> = pins.runs_in(ones, select, range.clone(), len).singles().collect();
            prop_assert_eq!(&singles, &expected);

            // The first-match helper, from every kind of start.
            let fixed = select | pins.mask;
            let pattern = ones | pins.vals;
            if (ones ^ pins.vals) & select & pins.mask == 0 {
                for x in [a.min(len - 1), b.min(len - 1), 0, len - 1] {
                    let brute = (x..len).find(|y| y & fixed == pattern);
                    prop_assert_eq!(first_match(x, pattern, fixed, len), brute, "x = {}", x);
                }
            }

            // Every worker count's shares tile the space and split the
            // live units evenly.
            if (ones ^ pins.vals) & select & pins.mask == 0 {
                for workers in [1usize, 2, 3, 5] {
                    let mut next = 0;
                    let mut counts = Vec::new();
                    for worker in 0..workers {
                        let share = pins.share_of(ones, select, worker, workers, len);
                        prop_assert_eq!(share.start, next);
                        next = share.end;
                        counts.push(share.filter(|&i| live(i)).count());
                    }
                    prop_assert_eq!(next, len);
                    let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
                    prop_assert!(spread <= 1, "{} workers: {:?}", workers, counts);
                }
            }
        }
    }

    // ---- pinned ≡ unpinned, op by op ------------------------------

    /// One instruction of a random dynamic circuit on `n ≥ 3` qubits
    /// and `n` classical bits: every gate kind, mid-circuit measurement
    /// in all three bases with and without readout flips, reset, parity
    /// feedback, depolarizing sites.
    fn arbitrary_instruction(code: u8, a: usize, b: usize, x: f64, n: usize) -> Instruction {
        let b = (a + 1 + b % (n - 1)) % n;
        let c = (0..n).find(|&q| q != a && q != b).expect("n ≥ 3");
        let gate = |code: u8| match code % 16 {
            0 => Gate::H(a),
            1 => Gate::X(a),
            2 => Gate::Y(a),
            3 => Gate::Z(a),
            4 => Gate::S(a),
            5 => Gate::Sdg(a),
            6 => Gate::T(a),
            7 => Gate::Tdg(a),
            8 => Gate::Rx(a, 3.0 * x),
            9 => Gate::Ry(a, 3.0 * x),
            10 => Gate::Rz(a, 3.0 * x),
            11 => Gate::Cx {
                control: a,
                target: b,
            },
            12 => Gate::Cz(a, b),
            13 => Gate::Swap(a, b),
            14 => Gate::Ccx {
                control_a: a,
                control_b: b,
                target: c,
            },
            _ => Gate::Cswap {
                control: a,
                swap_a: b,
                swap_b: c,
            },
        };
        match code {
            0..=15 => Instruction::Gate(gate(code)),
            16..=21 => Instruction::Measure {
                qubit: a,
                cbit: b,
                basis: [Basis::Z, Basis::X, Basis::Y][code as usize % 3],
                flip_prob: if code < 19 { 0.0 } else { 0.3 },
            },
            22 | 23 => Instruction::Reset(a),
            24..=27 => Instruction::Conditional {
                // X, Y, Z, H or Cx under the parity of two outcomes.
                gate: gate([1, 2, 3, 0, 11][(x * 5.0) as usize % 5]),
                parity_of: vec![b, c],
            },
            _ => Instruction::Depolarizing {
                qubits: if code == 28 { vec![a] } else { vec![a, b] },
                p: 0.6,
            },
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        Interpreted,
        Compiled,
        Parallel(usize),
    }

    /// Plays `circuit` op by op along `path` from `start` and from a
    /// twin holding the same amplitudes with nothing pinned — re-made
    /// after every op, so the twin is the full-register simulation
    /// throughout — on one RNG stream each. After every op the
    /// amplitudes are `==`, the records equal and the pins hold; at the
    /// end both streams have made the same draws. Returns the final
    /// state.
    fn assert_pinned_matches_unpinned(
        path: Path,
        circuit: &Circuit,
        start: &StateVector,
        seed: u64,
    ) -> StateVector {
        let programs = crate::compile::compile(circuit).single_ops();
        let steps = match path {
            Path::Interpreted => circuit.instructions().len(),
            _ => programs.len(),
        };
        let step = |i: usize, sv: &mut StateVector, cbits: &mut [bool], rng: &mut StdRng| match path
        {
            Path::Interpreted => SimState::step(sv, &circuit.instructions()[i], cbits, rng),
            Path::Compiled => sv.apply_compiled(&programs[i], cbits, rng),
            Path::Parallel(workers) => {
                sv.apply_compiled_parallel(&programs[i], cbits, rng, workers)
            }
        };
        let unpinned = |sv: &StateVector| StateVector::from_amplitudes(sv.amplitudes().to_vec());
        // Read through a clone: a bare `start` stays bare for the next
        // path and for `copy_from`.
        let (mut pinned, mut twin) = (start.clone(), unpinned(&start.clone()));
        let mut rngs = [StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed)];
        let mut bits = [
            vec![false; circuit.num_cbits()],
            vec![false; circuit.num_cbits()],
        ];
        for i in 0..steps {
            step(i, &mut pinned, &mut bits[0], &mut rngs[0]);
            step(i, &mut twin, &mut bits[1], &mut rngs[1]);
            assert!(pinned.pins_hold(), "{path:?}, op {i}: pins broken");
            assert_eq!(pinned.amplitudes(), twin.amplitudes(), "{path:?}, op {i}");
            assert_eq!(bits[0], bits[1], "{path:?}, op {i}");
            twin = unpinned(&twin);
        }
        let [rng_pinned, rng_twin] = &mut rngs;
        assert_eq!(
            rng_pinned.random::<u64>(),
            rng_twin.random::<u64>(),
            "{path:?}: the RNG streams made different draws"
        );
        pinned
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The exactness claim of the module docs, mechanically: from a
        /// pinned start (`new`, `product_state`) every replay path gives
        /// the amplitudes and records of the unpinned simulation after
        /// every op, and `copy_from` resets a dirty buffer of wider
        /// support exactly.
        #[test]
        fn pinned_replay_equals_unpinned_replay_after_every_op(
            codes in proptest::collection::vec((0u8..30, 0usize..5, 0usize..5, 0.0f64..1.0), 1..40),
            seed in 0u64..10_000,
        ) {
            let n = 5;
            let mut circuit = Circuit::new(n, n);
            for (code, a, b, x) in codes {
                circuit.push(arbitrary_instruction(code, a, b, x, n));
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let product = StateVector::product_state(n, &[
                (crate::qrand::random_pure_state(2, &mut rng), vec![3, 0]),
                (crate::qrand::random_pure_state(1, &mut rng), vec![2]),
            ]);
            // The last start is wider than the circuit: every replay
            // path shifts the masks up, the extra low bits stay pinned.
            for start in [StateVector::new(n), product, StateVector::new(n + 2)] {
                assert_pinned_matches_unpinned(Path::Interpreted, &circuit, &start, seed);
                let end = assert_pinned_matches_unpinned(Path::Compiled, &circuit, &start, seed);
                let program = crate::compile::compile(&circuit);
                for workers in [2, 3] {
                    let path = Path::Parallel(workers);
                    prop_assert_eq!(
                        &assert_pinned_matches_unpinned(path, &circuit, &start, seed),
                        &end
                    );
                    // Whole program: multi-kernel segments unpin the
                    // union of their supports at once.
                    let mut whole = start.clone();
                    let mut cbits = vec![false; n];
                    let mut rng = StdRng::seed_from_u64(seed);
                    whole.apply_compiled_parallel(&program, &mut cbits, &mut rng, workers);
                    prop_assert!(whole.pins_hold());
                    prop_assert_eq!(&whole, &end);
                }
                // Reset of a dirty buffer whose support is wider than
                // (or just different from) the template's.
                let mut buffer = end;
                buffer.copy_from(&start);
                prop_assert!(buffer.pins_hold());
                prop_assert_eq!(&buffer, &start);
            }
        }
    }

    // ---- measurement: slice loops ≡ index loops, bit for bit ------

    /// The reference for [`collapse_runs`]: the short path's loop at
    /// every run length, index by index, the kept amplitude scaled and
    /// its partner zeroed.
    fn collapse_by_index(sv: &mut StateVector, q: usize, outcome: bool, p: f64) {
        let scale = 1.0 / p.sqrt();
        let mask = crate::compile::qubit_mask(q, sv.num_qubits);
        let keep = if outcome { mask } else { 0 };
        let pins = sv.pins;
        let amps = sv.amps_mut();
        for i in pins.without(mask).runs(keep, mask, amps.len()).singles() {
            amps[i] = amps[i].scale(scale);
            amps[i ^ mask] = Complex::ZERO;
        }
    }

    /// The reference for [`sum_norms_skipping_zeros`]: the short
    /// path's sum at every run length, each live one-bit norm added in
    /// ascending order.
    fn probability_of_one_by_run(sv: &StateVector, q: usize) -> f64 {
        let mask = crate::compile::qubit_mask(q, sv.num_qubits);
        let amps = sv.amps();
        let mut p = 0.0;
        for run in sv.pins.runs(mask, mask, amps.len()) {
            for a in &amps[run] {
                p += a.norm_sqr();
            }
        }
        p
    }

    fn amplitude_bits(sv: &StateVector) -> Vec<(u64, u64)> {
        sv.amplitudes()
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect()
    }

    /// Measures every qubit of `sv` both ways and compares by
    /// `to_bits()`: `probability_of_one` against the full-register
    /// filtered ascending scan and the per-run loop, `collapse_known`
    /// onto both outcomes — at the outcome's probability and at exactly
    /// 1, a scale of exactly `1.0` — against [`collapse_by_index`].
    /// Returns which sides of [`SLICE_MIN`] the collapse runs fell on.
    fn assert_measurement_matches_index_loops(sv: &StateVector) -> [bool; 2] {
        let n = sv.num_qubits();
        let mut sides = [false; 2];
        for q in 0..n {
            let mask = crate::compile::qubit_mask(q, n);
            let scan = sv
                .amplitudes()
                .iter()
                .enumerate()
                .filter(|(i, _)| i & mask != 0)
                .fold(0.0, |p, (_, a)| p + a.norm_sqr());
            let p1 = sv.probability_of_one(q);
            assert_eq!(
                p1.to_bits(),
                scan.to_bits(),
                "qubit {q}: {p1} vs scan {scan}"
            );
            assert_eq!(p1.to_bits(), probability_of_one_by_run(sv, q).to_bits());
            for outcome in [false, true] {
                let p_outcome = if outcome { p1 } else { 1.0 - p1 };
                for p in [p_outcome, 1.0] {
                    if p <= 1e-15 {
                        continue;
                    }
                    let (mut slices, mut singles) = (sv.clone(), sv.clone());
                    slices.collapse_known(q, outcome, p);
                    collapse_by_index(&mut singles, q, outcome, p);
                    assert_eq!(
                        amplitude_bits(&slices),
                        amplitude_bits(&singles),
                        "qubit {q}, outcome {outcome}, p {p}"
                    );
                    assert!(slices.pins_hold());
                }
            }
            let run_len = sv.pins.without(mask).runs(0, mask, 1 << n).run_len();
            sides[usize::from(run_len >= SLICE_MIN)] = true;
        }
        sides
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The exactness claim of [`SLICE_MIN`]'s loops: on 8–14-qubit
        /// states — sparse GHZ chains, dense rotation ladders, `|+…+⟩`
        /// with its top qubits measured — and again after random
        /// dynamic instructions (which may pin any bit), measurement's
        /// sums and collapses are those of the index loops bit for bit.
        /// Every prepared state has runs on both sides of the threshold.
        #[test]
        fn slice_measurement_equals_the_index_loops_bit_for_bit(
            n in 8usize..15,
            shape in 0u8..3,
            codes in proptest::collection::vec((0u8..30, 0usize..14, 0usize..14, 0.0f64..1.0), 0..12),
            seed in 0u64..10_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sv = StateVector::new(n);
            match shape {
                0 => {
                    let top = seed as usize % n;
                    sv.apply_gate(&Gate::H(top));
                    for q in (0..n).filter(|&q| q != top) {
                        sv.apply_gate(&Gate::Cx { control: top, target: q });
                    }
                }
                1 => {
                    for q in 0..n {
                        sv.apply_gate(&Gate::Ry(q, 3.0 * rng.random::<f64>()));
                    }
                    for q in 0..n - 1 {
                        sv.apply_gate(&Gate::Cx { control: q, target: q + 1 });
                    }
                }
                _ => {
                    for q in 0..n {
                        sv.apply_gate(&Gate::H(q));
                    }
                    for q in 0..n - 6 {
                        sv.measure(q, Basis::Z, &mut rng);
                    }
                }
            }
            let sides = assert_measurement_matches_index_loops(&sv);
            prop_assert!(sides[0] && sides[1], "runs on one side only: {:?}", sides);
            let mut cbits = vec![false; n];
            for (code, a, b, x) in codes {
                let instruction = arbitrary_instruction(code, a % n, b, x, n);
                SimState::step(&mut sv, &instruction, &mut cbits, &mut rng);
            }
            assert_measurement_matches_index_loops(&sv);
        }
    }

    #[test]
    fn inner_product_orthogonality() {
        let a = StateVector::basis_state(2, 1);
        let b = StateVector::basis_state(2, 2);
        assert_eq!(a.inner(&b), Complex::ZERO);
        assert_eq!(a.inner(&a), Complex::ONE);
    }

    #[test]
    fn sample_bits_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut psi = StateVector::new(2);
        psi.apply_gate(&Gate::H(0));
        psi.apply_gate(&Gate::Cx {
            control: 0,
            target: 1,
        });
        let mut count3 = 0;
        for _ in 0..1000 {
            let s = psi.sample_bits(&mut rng);
            assert!(s == 0 || s == 3, "Bell state sampled {s}");
            if s == 3 {
                count3 += 1;
            }
        }
        assert!((count3 as f64 / 1000.0 - 0.5).abs() < 0.07);
    }

    #[test]
    fn apply_unitary_on_non_adjacent_qubits() {
        // CX with control 2, target 0 applied as a matrix.
        let mut a = StateVector::basis_state(3, 0b001); // q2 = 1
        a.apply_unitary(
            &Gate::Cx {
                control: 0,
                target: 1,
            }
            .unitary(),
            &[2, 0],
        );
        // q2 controls, q0 flips: |101⟩.
        assert_eq!(a.probability(0b101), 1.0);
    }

    #[test]
    fn to_density_is_projector() {
        let mut psi = StateVector::new(1);
        psi.apply_gate(&Gate::H(0));
        let rho = psi.to_density();
        assert!((rho.trace().re - 1.0).abs() < TOL);
        assert!((&rho * &rho).max_abs_diff(&rho) < 1e-10);
    }
}
