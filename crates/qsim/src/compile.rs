//! Compile-once lowering of circuits into fused statevector kernels.
//!
//! Every shot-based workload replays one [`Circuit`] thousands to
//! millions of times. Interpreting the instruction stream per shot pays
//! the same costs every repetition: a `Gate` enum dispatch per
//! instruction, MSB-order `bit()`/`flip()` index arithmetic per
//! amplitude, and — worst of all — a fresh `2ⁿ` scratch allocation per
//! controlled permutation. [`compile`] hoists all of that out of the
//! shot loop, producing a [`CompiledCircuit`]: a flat stream of
//! [`CompiledOp`] kernels in which
//!
//! * adjacent single-qubit gates on the same qubit are **fused** into
//!   one 2×2 matrix applied in a single branch-free strided pass
//!   ([`CompiledOp::Unitary1`]);
//! * runs of diagonal gates (`Z`/`S`/`Sdg`/`T`/`Tdg`/`Rz`/`Cz`) are
//!   **merged** into one phase-mask kernel ([`CompiledOp::Phase`])
//!   applied in a single pass;
//! * controlled permutations (`Cx`/`Swap`/`Ccx`/`Cswap`) become
//!   precomputed bit-mask swaps ([`CompiledOp::PermuteSwap`]) that touch
//!   only the amplitudes they move — no scratch vector, no per-index
//!   closure;
//! * adjacent kernels whose combined qubit support fits in **two**
//!   qubits are fused into one 4×4 pass ([`CompiledOp::Unitary2`]), so
//!   a `Cx·Rz·Cx` ZZ block or a `U1·Cx` entangler costs one sweep over
//!   the amplitude buffer instead of three. A 4×4 whose eight entries
//!   off its two diagonal 2×2 blocks (row and column differing in the
//!   `mask_hi` bit) are exact zeros — a ZZ block, alone or fused with
//!   gates on its lower qubit, 36 of the 38 kernels of a 20-qubit ZZ
//!   shot — runs as two 2×2 updates per quad: eight complex multiplies
//!   instead of sixteen, with the dense product's bits (the skipped
//!   terms are signed zeros; see `Blocks`);
//! * measurement, reset, classical feedback, and noise sites remain
//!   **interpretation points** ([`CompiledOp::Interp`]) executed through
//!   [`SimState::step`](crate::sim::SimState::step), so the shot's RNG
//!   stream is consumed in exactly the interpreted order and classical
//!   control still sees the live register.
//!
//! Every non-`Interp` kernel applies through one uniform range-aware
//! seam, [`CompiledOp::apply_range`]: a kernel's work units (amplitude
//! pairs, quads, swap orbits, or single amplitudes) are each *owned* by
//! their lowest member index, and `apply_range(amps, lo, hi, widen)`
//! processes exactly the units owned by `[lo, hi)`. Applying a kernel
//! over **any** disjoint cover of `[0, len)` is therefore bit-identical
//! to the full pass — the contract the replay driver ([`crate::amp`])
//! builds on, for its worker split and for its cache blocks alike.
//!
//! ## How a kernel runs: slices of live runs
//!
//! Under every kernel sits one enumerator (`Pins::runs_in` in
//! [`crate::statevector`]): the maximal runs of *consecutive*
//! representatives in a range that agree with a set of pinned bits,
//! found without scanning — the first by a bit trick, the rest by the
//! submask step of [`for_each_masked`]. A run and its partner runs
//! (one stride up; for a quad, three) are disjoint contiguous slices,
//! so each kernel is one loop body over plain slices — the same body
//! whatever is pinned and whatever range it is given — that the
//! compiler can vectorise. (A quad kernel whose lower mask is below
//! four amplitudes has runs too short for that; it walks the quads of
//! whole contiguous `2·mask_hi` blocks instead, and a permutation with
//! runs that short swaps index by index.) The bodies are
//! instantiated at the build's baseline instruction set and, on
//! x86-64, with AVX2, picked per call from what the CPU reports; no
//! instantiation uses fused multiply-add, every lane does the scalar
//! expression's IEEE operations in its order, so amplitudes are `==`
//! on every host.
//!
//! ## What a replay touches: the stored sub-cube
//!
//! [`CompiledOp::apply`] / [`CompiledOp::apply_range`] are
//! full-register passes over a raw `2ⁿ` slice, and
//! [`CompiledCircuit::kernel_bytes`] / [`CompiledOp::bytes_touched`]
//! count what *they* move — **upper bounds** for a replay. A
//! [`StateVector`] stores only its live sub-cube (see the
//! [`crate::statevector`] module docs), so replayed through
//! [`StateVector::apply_compiled`] or
//! [`StateVector::apply_compiled_parallel`] a kernel runs on that
//! buffer: the replay first inserts the pinned bits the kernel mixes
//! (a permutation's flip bits; a pinned control is a pattern test, and
//! a diagonal kernel mixes nothing), then the kernel places its masks
//! into buffer coordinates once per call (`Layout`) and runs the same
//! slice loops densely. Every unit does the full pass's arithmetic on
//! the full pass's values, so the result is the full pass's, bit for
//! bit. The one exception is a segment's leading `Unitary1`/`Unitary2`
//! on pinned bits alone (a Bell-pair preparation on fresh qubits): the
//! insertion writes its column `M[:, v]` times each stored amplitude
//! instead of zeros the kernel would then multiply — the dense row's
//! only nonzero term, so the same amplitudes, nonzero components bit
//! for bit (`StateVector::expand`). The cost model is *work ∝ 2^live*,
//! not passes × `2ⁿ` — on every replay path, at any worker count. On a buffer larger than a
//! 1 MiB block the replay also runs consecutive in-block kernels block
//! by block, so what reaches memory is less than the sum of the passes.
//! The program itself knows nothing of this — the same
//! [`CompiledCircuit`] replays on any state.
//!
//! Compilation happens once per plan (`engine::ShotPlan`,
//! `engine::Executor::sample_shots`) and the program is replayed across
//! all shots and workers. Fusion reassociates floating-point operations,
//! so compiled amplitudes may differ from interpreted ones by rounding
//! (≈ 1 ulp); measurement *records* agree bit-for-bit per root seed for
//! any realizable draw, which the engine's `compiled_equivalence`
//! property tests assert across random Clifford+T circuits.
//!
//! Only the statevector backend lowers to these kernels; the density and
//! stabilizer backends implement
//! [`SimState::compile`](crate::sim::SimState::compile) as the identity
//! and re-interpret the instruction stream per shot.
//!
//! ```
//! use circuit::circuit::Circuit;
//! use qsim::compile::compile;
//!
//! let mut c = Circuit::new(2, 2);
//! c.h(0).t(0).s(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! let program = compile(&c);
//! // H·T·S fuse into one 2×2 kernel, which then fuses with the Cx
//! // mask swap into a single 4×4 pass; the two measurements stay
//! // interpretation points.
//! assert_eq!(program.num_ops(), 3);
//! assert_eq!(program.interp_ops(), 2);
//! ```

use circuit::circuit::{Circuit, Instruction};
use circuit::gate::Gate;
use mathkit::complex::Complex;
use rand::Rng;

use crate::sim::SimProgram;
use crate::statevector::{Layout, Pins, StateVector};

/// A fused 2×2 unitary in row-major order.
pub type Mat2 = [Complex; 4];

/// A fused 4×4 unitary in row-major order. Sub-index bit 1 is the
/// amplitude-index bit [`CompiledOp::Unitary2::mask_hi`], bit 0 is
/// `mask_lo`.
pub type Mat4 = [Complex; 16];

/// Bit mask selecting qubit `q` within a basis index of an `n`-qubit
/// register (qubit 0 is the most significant bit, matching
/// [`crate::statevector::bit`]).
#[inline]
pub fn qubit_mask(q: usize, n: usize) -> usize {
    1 << (n - 1 - q)
}

/// Calls `f(i)` for every basis index `i < len` with
/// `i & select == ones` — i.e. the `select` bits pinned to the pattern
/// `ones`, all other bits free. `len` must be a power of two.
///
/// This is the strided-iteration primitive behind the compiled kernels:
/// it enumerates exactly `len / 2^(select.count_ones())` indices instead
/// of scanning and filtering all `len`.
#[inline]
pub fn for_each_masked(ones: usize, select: usize, len: usize, mut f: impl FnMut(usize)) {
    debug_assert!(len.is_power_of_two());
    debug_assert_eq!(ones & !select, 0, "ones must lie within select");
    let rest = (len - 1) & !select;
    let mut s = 0usize;
    loop {
        f(ones | s);
        // Standard increasing enumeration of the submasks of `rest`.
        s = s.wrapping_sub(rest) & rest;
        if s == 0 {
            break;
        }
    }
}

/// A merged run of diagonal gates, applied in one pass: amplitude `i`
/// is multiplied by `global · Π { phase | i & mask == mask }`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseKernel {
    /// Phase applied to every amplitude (the `e^{-iθ/2}` prefactors of
    /// fused `Rz` gates; exactly 1 for `Z`/`S`/`T`/`Cz` runs).
    pub global: Complex,
    /// Conditional phases: `(mask, phase)` multiplies the amplitudes
    /// whose index has every `mask` bit set.
    pub terms: Vec<(usize, Complex)>,
}

/// One kernel of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledOp {
    /// A fused single-qubit unitary applied over amplitude pairs
    /// `(i, i + stride)` in a branch-free strided pass.
    Unitary1 {
        /// `qubit_mask(q, n)` of the target qubit.
        stride: usize,
        /// Row-major 2×2 matrix (the product of the fused gates).
        matrix: Mat2,
    },
    /// A fused two-qubit unitary applied over amplitude quads
    /// `(i, i|mask_lo, i|mask_hi, i|mask_hi|mask_lo)` in one strided
    /// pass. Produced by the post-lowering fusion of adjacent kernels
    /// whose combined support fits in two qubits (ZZ blocks, entangler
    /// sandwiches, parallel 1-qubit pairs).
    Unitary2 {
        /// The higher of the two amplitude-index bit masks (sub-index
        /// bit 1 of [`Mat4`]).
        mask_hi: usize,
        /// The lower mask (sub-index bit 0).
        mask_lo: usize,
        /// Row-major 4×4 matrix (the product of the fused kernels).
        matrix: Mat4,
    },
    /// A merged diagonal run.
    Phase(PhaseKernel),
    /// A controlled permutation: for every index `i` with
    /// `i & select == ones`, swap amplitudes `i` and `i ^ flip`.
    /// Covers `Cx`, `Swap`, `Ccx`, and `Cswap` with masks precomputed
    /// at compile time.
    PermuteSwap {
        /// Required bit pattern within `select`.
        ones: usize,
        /// Bits pinned by the pattern (controls + one swap side).
        select: usize,
        /// Bits toggled to reach the swap partner.
        flip: usize,
    },
    /// An instruction executed through
    /// [`SimState::step`](crate::sim::SimState::step): measurement,
    /// reset, classical feedback, or a stochastic noise site. These
    /// consume the shot's RNG stream in interpreted order, which is what
    /// keeps compiled and interpreted records bit-identical.
    Interp(Instruction),
}

/// A circuit lowered to fused statevector kernels; see the module docs.
///
/// Build with [`compile`]; replay with
/// [`StateVector::apply_compiled`] or, at the engine layer, by running
/// any sampling surface (`ShotPlan`, `Executor::sample_shots`,
/// `Backend::sample_shots`) — they all compile once per plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCircuit {
    num_qubits: usize,
    num_cbits: usize,
    ops: Vec<CompiledOp>,
    source_instructions: usize,
    prefix_end: usize,
}

impl CompiledCircuit {
    /// The compiled kernel stream in program order.
    pub fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// Number of compiled kernels (≤ the source instruction count).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of kernels that remain interpretation points.
    pub fn interp_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, CompiledOp::Interp(_)))
            .count()
    }

    /// Number of instructions in the source circuit.
    pub fn source_instructions(&self) -> usize {
        self.source_instructions
    }

    /// Where the program's noiseless prefix ends: the index of its
    /// first `Measure`, `Reset` or `Conditional` op, or
    /// [`CompiledCircuit::num_ops`] if it has none. Every op before it
    /// is a kernel or a `Depolarizing` site, and a site's draws read no
    /// state — so the prefix's state is the same in every shot whose
    /// sites all stay silent (see
    /// [`SimState::noiseless_prefix`](crate::sim::SimState::noiseless_prefix)).
    pub fn prefix_end(&self) -> usize {
        self.prefix_end
    }

    /// Number of fused kernel passes over the amplitude buffer
    /// (every op except the interpretation points).
    pub fn kernel_passes(&self) -> usize {
        self.num_ops() - self.interp_ops()
    }

    /// Total bytes full-register kernel passes move over a
    /// `num_qubits`-wide state — the sum of
    /// [`CompiledOp::bytes_touched`] per shot, excluding interpretation
    /// points. An upper bound for a replay, which skips the amplitudes
    /// the state's pinned bits rule out.
    pub fn kernel_bytes(&self, num_qubits: usize) -> u64 {
        let len = 1usize << num_qubits;
        self.ops.iter().map(|op| op.bytes_touched(len)).sum()
    }

    /// Average bytes moved per amplitude per kernel pass on a
    /// `num_qubits`-wide state. A dense pass reads and writes every
    /// 16-byte amplitude once (32 bytes); sparse kernels (mask swaps,
    /// single-term phases) land well below that. Returns 0 when the
    /// program has no kernel passes.
    pub fn bytes_per_amp_pass(&self, num_qubits: usize) -> f64 {
        let passes = self.kernel_passes();
        if passes == 0 {
            return 0.0;
        }
        let len = 1u64 << num_qubits;
        self.kernel_bytes(num_qubits) as f64 / (passes as u64 * len) as f64
    }
}

#[cfg(test)]
impl CompiledCircuit {
    /// One single-op program per op: replayed in order they are this
    /// program, with a seam after every op for tests to look through.
    pub(crate) fn single_ops(&self) -> Vec<CompiledCircuit> {
        self.ops
            .iter()
            .map(|op| CompiledCircuit {
                num_qubits: self.num_qubits,
                num_cbits: self.num_cbits,
                ops: vec![op.clone()],
                source_instructions: self.source_instructions,
                prefix_end: prefix_end(std::slice::from_ref(op)),
            })
            .collect()
    }
}

impl SimProgram for CompiledCircuit {
    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn num_cbits(&self) -> usize {
        self.num_cbits
    }
}

/// Lowers `circuit` into a [`CompiledCircuit`] (see the module docs for
/// the fusion rules). Pure function of the circuit; compile once per
/// plan and replay across shots.
pub fn compile(circuit: &Circuit) -> CompiledCircuit {
    let n = circuit.num_qubits();
    let mut b = Builder {
        n,
        ops: Vec::new(),
        pending: vec![None; n],
    };
    for instr in circuit.instructions() {
        match instr {
            Instruction::Gate(g) => b.gate(g),
            other => {
                b.flush_all();
                b.ops.push(CompiledOp::Interp(other.clone()));
            }
        }
    }
    b.flush_all();
    b.finalize();
    let ops = fuse_adjacent_pairs(b.ops);
    CompiledCircuit {
        num_qubits: n,
        num_cbits: circuit.num_cbits(),
        prefix_end: prefix_end(&ops),
        ops,
        source_instructions: circuit.instructions().len(),
    }
}

/// The index of the first op of `ops` that reads the classical register
/// or the state's outcome distribution — a `Measure`, `Reset` or
/// `Conditional` — or `ops.len()`: see [`CompiledCircuit::prefix_end`].
fn prefix_end(ops: &[CompiledOp]) -> usize {
    ops.iter()
        .position(|op| {
            matches!(op, CompiledOp::Interp(instr)
                if !matches!(instr, Instruction::Depolarizing { .. }))
        })
        .unwrap_or(ops.len())
}

/// Compile-time state: kernels emitted so far plus, per qubit, a fused
/// single-qubit matrix not yet emitted. Deferring a 1-qubit matrix past
/// gates on *other* qubits is what turns "adjacent" fusion into
/// maximal-run fusion; ordering stays correct because the deferral only
/// commutes it across disjoint-qubit operations.
struct Builder {
    n: usize,
    ops: Vec<CompiledOp>,
    pending: Vec<Option<Mat2>>,
}

impl Builder {
    fn gate(&mut self, g: &Gate) {
        // Diagonal single-qubit gates: fuse into a pending matrix when
        // one exists, otherwise merge into the open phase kernel.
        if let Some((p0, p1)) = diag_phases(g) {
            let q = g.qubits()[0];
            if let Some(m) = self.pending[q].as_mut() {
                *m = mul2(&[p0, Complex::ZERO, Complex::ZERO, p1], m);
            } else {
                let mask = qubit_mask(q, self.n);
                if p0 == Complex::ONE {
                    self.add_phase(Complex::ONE, mask, p1);
                } else {
                    // diag(p0, p1) = p0 · diag(1, p1·p0*) for |p0| = 1.
                    self.add_phase(p0, mask, p1 * p0.conj());
                }
            }
            return;
        }
        match *g {
            Gate::Cz(a, b) => {
                self.flush(&[a, b]);
                let mask = qubit_mask(a, self.n) | qubit_mask(b, self.n);
                self.add_phase(Complex::ONE, mask, -Complex::ONE);
            }
            Gate::Cx { .. } | Gate::Swap(..) | Gate::Ccx { .. } | Gate::Cswap { .. } => {
                let (ones, select, flip) = permutation_masks(g, self.n)
                    .expect("the four controlled permutations have masks");
                self.flush(&g.qubits());
                self.ops
                    .push(CompiledOp::PermuteSwap { ones, select, flip });
            }
            // General single-qubit gates: fuse into the pending matrix.
            _ => {
                let q = g.qubits()[0];
                let u = mat2_of(g);
                self.pending[q] = Some(match self.pending[q] {
                    Some(m) => mul2(&u, &m),
                    None => u,
                });
            }
        }
    }

    /// Merges a diagonal contribution into the phase kernel at the tail
    /// of the op stream, opening a new kernel if the tail is anything
    /// else (diagonal ops commute, so merging into the tail kernel is
    /// always order-safe).
    fn add_phase(&mut self, global: Complex, mask: usize, phase: Complex) {
        if !matches!(self.ops.last(), Some(CompiledOp::Phase(_))) {
            self.ops.push(CompiledOp::Phase(PhaseKernel {
                global: Complex::ONE,
                terms: Vec::new(),
            }));
        }
        let Some(CompiledOp::Phase(k)) = self.ops.last_mut() else {
            unreachable!("tail is a phase kernel by construction");
        };
        k.global *= global;
        match k.terms.iter_mut().find(|(m, _)| *m == mask) {
            Some(term) => term.1 *= phase,
            None => k.terms.push((mask, phase)),
        }
    }

    /// Emits the pending fused matrices of the listed qubits, in qubit
    /// order, ahead of an op that touches them.
    fn flush(&mut self, qubits: &[usize]) {
        for &q in qubits {
            if let Some(matrix) = self.pending[q].take() {
                self.ops.push(CompiledOp::Unitary1 {
                    stride: qubit_mask(q, self.n),
                    matrix,
                });
            }
        }
    }

    fn flush_all(&mut self) {
        for q in 0..self.n {
            if self.pending[q].is_some() {
                self.flush(&[q]);
            }
        }
    }

    /// Prunes phase terms that cancelled to exactly 1 (e.g. `Cz·Cz`,
    /// `S·Sdg`) and kernels left empty by the pruning. Multiplying by
    /// exactly `1 + 0i` is a floating-point no-op, so pruning never
    /// changes the compiled semantics.
    fn finalize(&mut self) {
        for op in &mut self.ops {
            if let CompiledOp::Phase(k) = op {
                k.terms.retain(|&(_, p)| p != Complex::ONE);
            }
        }
        self.ops.retain(|op| {
            !matches!(op, CompiledOp::Phase(k)
                if k.global == Complex::ONE && k.terms.is_empty())
        });
    }
}

/// The `(ones, select, flip)` masks of a controlled permutation on an
/// `n`-qubit register — for every index `i` with `i & select == ones`,
/// swap amplitudes `i` and `i ^ flip` (see
/// [`CompiledOp::PermuteSwap`]) — `None` for every other gate. The one
/// place the four gates' meaning is written down: the compiler lowers
/// through it and the interpreter swaps by it, so they cannot disagree.
pub(crate) fn permutation_masks(g: &Gate, n: usize) -> Option<(usize, usize, usize)> {
    let mask = |q| qubit_mask(q, n);
    match *g {
        Gate::Cx { control, target } => {
            let (mc, mt) = (mask(control), mask(target));
            Some((mc, mc | mt, mt))
        }
        Gate::Swap(a, b) => {
            let (ma, mb) = (mask(a), mask(b));
            Some((ma, ma | mb, ma | mb))
        }
        Gate::Ccx {
            control_a,
            control_b,
            target,
        } => {
            let (mc, mt) = (mask(control_a) | mask(control_b), mask(target));
            Some((mc, mc | mt, mt))
        }
        Gate::Cswap {
            control,
            swap_a,
            swap_b,
        } => {
            let (mc, ma, mb) = (mask(control), mask(swap_a), mask(swap_b));
            Some((mc | ma, mc | ma | mb, ma | mb))
        }
        _ => None,
    }
}

/// The `(⟨0|d|0⟩, ⟨1|d|1⟩)` phases of a diagonal single-qubit gate,
/// `None` for everything else. Matches [`Gate::unitary`] entry-for-entry.
fn diag_phases(g: &Gate) -> Option<(Complex, Complex)> {
    match *g {
        Gate::Z(_) => Some((Complex::ONE, -Complex::ONE)),
        Gate::S(_) => Some((Complex::ONE, Complex::I)),
        Gate::Sdg(_) => Some((Complex::ONE, -Complex::I)),
        Gate::T(_) => Some((
            Complex::ONE,
            Complex::from_polar(1.0, std::f64::consts::FRAC_PI_4),
        )),
        Gate::Tdg(_) => Some((
            Complex::ONE,
            Complex::from_polar(1.0, -std::f64::consts::FRAC_PI_4),
        )),
        Gate::Rz(_, a) => Some((
            Complex::from_polar(1.0, -a / 2.0),
            Complex::from_polar(1.0, a / 2.0),
        )),
        _ => None,
    }
}

/// The 2×2 matrix of a single-qubit gate, row-major.
fn mat2_of(g: &Gate) -> Mat2 {
    debug_assert_eq!(g.arity(), 1);
    let u = g.unitary();
    [u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]]
}

/// Row-major 2×2 product `a · b`.
fn mul2(a: &Mat2, b: &Mat2) -> Mat2 {
    [
        a[0] * b[0] + a[1] * b[2],
        a[0] * b[1] + a[1] * b[3],
        a[2] * b[0] + a[3] * b[2],
        a[2] * b[1] + a[3] * b[3],
    ]
}

// ---------------------------------------------------------------------
// Two-qubit kernel fusion.
// ---------------------------------------------------------------------

/// Fuses maximal adjacent runs of kernels whose combined qubit support
/// fits in two amplitude-index bits into one [`CompiledOp::Unitary2`]
/// (or a [`CompiledOp::Unitary1`] when the run touches a single bit).
/// Each fused pass reads and writes every amplitude once, where the run
/// swept the buffer once per kernel before. Products that collapse to
/// the exact identity (`Cx·Cx`, `Swap·Swap`) drop out of the program.
fn fuse_adjacent_pairs(ops: Vec<CompiledOp>) -> Vec<CompiledOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut run: Vec<CompiledOp> = Vec::new();
    let mut run_bits = 0usize;
    for op in ops {
        match fusable_support(&op) {
            Some(bits) if (run_bits | bits).count_ones() <= 2 => {
                run.push(op);
                run_bits |= bits;
            }
            Some(bits) => {
                flush_fusion_run(&mut out, &mut run, run_bits);
                run.push(op);
                run_bits = bits;
            }
            None => {
                flush_fusion_run(&mut out, &mut run, run_bits);
                run_bits = 0;
                out.push(op);
            }
        }
    }
    flush_fusion_run(&mut out, &mut run, run_bits);
    out
}

/// The amplitude-index bits a kernel touches, when that kernel can be
/// lifted to a small dense matrix — `None` for interpretation points
/// and for kernels too wide to fuse (phase masks or permutations over
/// more than two bits).
fn fusable_support(op: &CompiledOp) -> Option<usize> {
    let narrow = |bits: usize| (bits.count_ones() <= 2).then_some(bits);
    match op {
        CompiledOp::Unitary1 { stride, .. } => Some(*stride),
        CompiledOp::Unitary2 {
            mask_hi, mask_lo, ..
        } => Some(mask_hi | mask_lo),
        CompiledOp::Phase(k) => narrow(k.terms.iter().fold(0, |m, &(mask, _)| m | mask)),
        CompiledOp::PermuteSwap { select, flip, .. } => narrow(select | flip),
        CompiledOp::Interp(_) => None,
    }
}

/// Emits an accumulated fusion run: single ops pass through untouched,
/// longer runs multiply out into one dense kernel over `run_bits`.
fn flush_fusion_run(out: &mut Vec<CompiledOp>, run: &mut Vec<CompiledOp>, run_bits: usize) {
    if run.len() < 2 {
        out.append(run);
        return;
    }
    match run_bits.count_ones() {
        2 => {
            let mask_lo = run_bits & run_bits.wrapping_neg();
            let mask_hi = run_bits ^ mask_lo;
            let m = run.drain(..).fold(identity4(), |acc, op| {
                mul4(&mat4_of(&op, mask_hi, mask_lo), &acc)
            });
            if m != identity4() {
                out.push(CompiledOp::Unitary2 {
                    mask_hi,
                    mask_lo,
                    matrix: m,
                });
            }
        }
        1 => {
            let m = run.drain(..).fold(IDENTITY2, |acc, op| {
                mul2(&mat2_of_kernel(&op, run_bits), &acc)
            });
            if m != IDENTITY2 {
                out.push(CompiledOp::Unitary1 {
                    stride: run_bits,
                    matrix: m,
                });
            }
        }
        // A run over zero bits is a sequence of global-only phase
        // kernels; leave them as written.
        _ => out.append(run),
    }
}

const IDENTITY2: Mat2 = [Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ONE];

fn identity4() -> Mat4 {
    let mut m = [Complex::ZERO; 16];
    for d in 0..4 {
        m[d * 4 + d] = Complex::ONE;
    }
    m
}

/// Row-major 4×4 product `a · b`.
fn mul4(a: &Mat4, b: &Mat4) -> Mat4 {
    let mut out = [Complex::ZERO; 16];
    for i in 0..4 {
        for j in 0..4 {
            let mut s = Complex::ZERO;
            for k in 0..4 {
                s += a[i * 4 + k] * b[k * 4 + j];
            }
            out[i * 4 + j] = s;
        }
    }
    out
}

/// Lifts a kernel supported on `{mask_hi, mask_lo}` to its 4×4 matrix
/// over the sub-index `(bit1 = mask_hi, bit0 = mask_lo)`.
fn mat4_of(op: &CompiledOp, mask_hi: usize, mask_lo: usize) -> Mat4 {
    // Projection of an amplitude-index mask onto the 2-bit sub-index.
    let sub = |m: usize| {
        debug_assert_eq!(m & !(mask_hi | mask_lo), 0, "mask outside the fused pair");
        (usize::from(m & mask_hi != 0) << 1) | usize::from(m & mask_lo != 0)
    };
    let mut out = [Complex::ZERO; 16];
    match op {
        CompiledOp::Unitary1 { stride, matrix } => {
            let target = sub(*stride);
            let other = 3 & !target;
            for s in 0..4 {
                for t in 0..4 {
                    if s & other == t & other {
                        let row = usize::from(s & target != 0);
                        let col = usize::from(t & target != 0);
                        out[s * 4 + t] = matrix[row * 2 + col];
                    }
                }
            }
        }
        CompiledOp::Unitary2 {
            matrix,
            mask_hi: h,
            mask_lo: l,
        } => {
            debug_assert_eq!((*h, *l), (mask_hi, mask_lo));
            out = *matrix;
        }
        CompiledOp::Phase(k) => {
            for s in 0..4 {
                let mut ph = k.global;
                for &(mask, p) in &k.terms {
                    let sm = sub(mask);
                    if s & sm == sm {
                        ph *= p;
                    }
                }
                out[s * 4 + s] = ph;
            }
        }
        CompiledOp::PermuteSwap { ones, select, flip } => {
            let (so, ss, sf) = (sub(*ones), sub(*select), sub(*flip));
            for s in 0..4 {
                // A swap moves both members of a selected orbit: `s`
                // itself or its partner `s ^ flip` matches the pattern.
                let selected = s & ss == so || (s ^ sf) & ss == so;
                let d = if selected { s ^ sf } else { s };
                out[d * 4 + s] = Complex::ONE;
            }
        }
        CompiledOp::Interp(_) => unreachable!("interp points are never fused"),
    }
    out
}

/// Lifts a kernel supported on the single bit `bit` to its 2×2 matrix.
/// Permutations never land here: their `select | flip` spans at least
/// two bits by construction.
fn mat2_of_kernel(op: &CompiledOp, bit: usize) -> Mat2 {
    match op {
        CompiledOp::Unitary1 { stride, matrix } => {
            debug_assert_eq!(*stride, bit);
            *matrix
        }
        CompiledOp::Phase(k) => {
            let mut diag = [k.global, k.global];
            for &(mask, p) in &k.terms {
                debug_assert_eq!(mask, bit);
                diag[1] *= p;
            }
            [diag[0], Complex::ZERO, Complex::ZERO, diag[1]]
        }
        other => unreachable!("kernel {other:?} cannot have 1-bit support"),
    }
}

// ---------------------------------------------------------------------
// Kernel application: the range-aware seam.
// ---------------------------------------------------------------------

impl CompiledOp {
    /// Applies this kernel to a whole full-register amplitude buffer.
    /// Equivalent to `apply_range(amps, 0, amps.len(), widen)`.
    ///
    /// # Panics
    ///
    /// Panics on [`CompiledOp::Interp`]: interpretation points go
    /// through [`SimState::step`](crate::sim::SimState::step), not the
    /// kernel seam.
    pub fn apply(&self, amps: &mut [Complex], widen: usize) {
        self.apply_range(amps, 0, amps.len(), widen);
    }

    /// Applies this kernel to the work units *owned* by the index range
    /// `[lo, hi)`.
    ///
    /// Ownership: every work unit — an amplitude pair for
    /// [`Unitary1`](CompiledOp::Unitary1), a quad for
    /// [`Unitary2`](CompiledOp::Unitary2), a swap orbit for
    /// [`PermuteSwap`](CompiledOp::PermuteSwap), a single amplitude for
    /// [`Phase`](CompiledOp::Phase) — belongs to its unique
    /// *representative*: the member whose selected bits sit at the
    /// kernel's pinned values (pairs/quads: target bits clear; swap
    /// orbits: `i & select == ones`, unique because `flip ⊆ select`).
    /// A call may read and write partner amplitudes *outside*
    /// `[lo, hi)`, but two calls with disjoint ranges never touch the
    /// same amplitude, and the per-unit arithmetic is independent of
    /// the range split. Hence the contract: applying a kernel over any
    /// disjoint cover of `[0, len)` is **bit-identical** to one full
    /// pass, with no alignment requirement on the cover.
    ///
    /// `amps` holds all `2ⁿ` amplitudes of the state; `widen` shifts
    /// the compiled masks up when the state is wider than the program
    /// (see [`StateVector::apply_compiled`]).
    ///
    /// # Panics
    ///
    /// Panics on [`CompiledOp::Interp`].
    pub fn apply_range(&self, amps: &mut [Complex], lo: usize, hi: usize, widen: usize) {
        self.place(Layout::dense(widen))
            .apply(amps, lo..hi, Pins::NONE);
    }

    /// This kernel with its masks in the buffer coordinates of
    /// `layout`, placed once for a call (see [`Placed`]).
    ///
    /// # Panics
    ///
    /// Panics on [`CompiledOp::Interp`].
    #[inline]
    pub(crate) fn place(&self, layout: Layout) -> Placed<'_> {
        match self {
            CompiledOp::Unitary1 { stride, matrix } => Placed::Unitary1 {
                stride: layout.place(*stride),
                matrix,
            },
            // Placing is monotone: `mask_hi` stays the higher bit.
            CompiledOp::Unitary2 {
                mask_hi,
                mask_lo,
                matrix,
            } => Placed::Unitary2 {
                mask_hi: layout.place(*mask_hi),
                mask_lo: layout.place(*mask_lo),
                matrix,
            },
            CompiledOp::Phase(kernel) => Placed::Phase { kernel, layout },
            CompiledOp::PermuteSwap { ones, select, flip } => {
                debug_assert_eq!(flip & !select, 0, "flip must lie within select");
                match layout.place_permutation(*ones, *select, *flip) {
                    Some((ones, select, flip)) => Placed::PermuteSwap { ones, select, flip },
                    None => Placed::Nothing,
                }
            }
            CompiledOp::Interp(instr) => {
                panic!("Interp({instr:?}) has no kernel; step it through SimState")
            }
        }
    }

    /// The program-relative index bits whose amplitudes this kernel
    /// mixes. Zero for diagonal kernels (and the degenerate `Interp`
    /// case, whose storage [`SimState::step`](crate::sim::SimState::step)
    /// maintains).
    pub(crate) fn mixed_bits(&self) -> usize {
        match self {
            CompiledOp::Unitary1 { stride, .. } => *stride,
            CompiledOp::Unitary2 {
                mask_hi, mask_lo, ..
            } => mask_hi | mask_lo,
            CompiledOp::PermuteSwap { select, flip, .. } => select | flip,
            CompiledOp::Phase(_) | CompiledOp::Interp(_) => 0,
        }
    }

    /// The bits of `pins` (a state's: the bits it does not store) this
    /// kernel, shifted up by `widen`, needs stored before it runs: the
    /// bits it mixes — for a permutation only its flip bits, its pinned
    /// controls being pattern tests (none at all if one contradicts).
    pub(crate) fn grown_bits(&self, widen: usize, pins: Pins) -> usize {
        match self {
            CompiledOp::PermuteSwap { ones, select, flip } => pins
                .permutation_growth(ones << widen, select << widen, flip << widen)
                .unwrap_or(0),
            op => pins.pinned(op.mixed_bits() << widen),
        }
    }

    /// The contiguous amplitude range worker `worker` of `workers` owns
    /// for this kernel on a full-register `len`-amplitude buffer — an
    /// equal-work partition of the kernel's units whose ranges tile
    /// `[0, len)`; the full-register, nothing-pinned case of the live
    /// split the amp workers use (`Placed::share`).
    ///
    /// Equal *index* splits are not equal *work* splits for strided
    /// kernels: a `Unitary1` on the state's MSB keeps every pair
    /// representative in the lower half of the buffer, so a naive
    /// even split would serialize the whole kernel onto half the
    /// workers. Instead the kernel's unit counter is split evenly and
    /// mapped back to amplitude indices through the (monotone) spread
    /// of the counter bits over the kernel's free bit positions.
    pub fn worker_range(
        &self,
        worker: usize,
        workers: usize,
        len: usize,
        widen: usize,
    ) -> std::ops::Range<usize> {
        self.place(Layout::dense(widen))
            .share(worker, workers, len, Pins::NONE)
    }

    /// Whether this is a [`CompiledOp::Unitary2`] whose matrix is
    /// block-diagonal along `mask_hi` — its eight off-block entries
    /// exactly zero — so that each quad runs as two 2×2 updates on its
    /// `mask_lo` pairs, at half the dense kernel's multiplies and with
    /// the dense kernel's bits.
    pub fn is_block_diagonal(&self) -> bool {
        matches!(self, CompiledOp::Unitary2 { matrix, .. } if Blocks::of(matrix).is_some())
    }

    /// Bytes a full-register pass of this kernel moves over a
    /// `len`-amplitude buffer (an upper bound for a replay on a state
    /// with pinned bits), counting each 16-byte amplitude it reads and
    /// each it writes. Dense passes
    /// (`Unitary1`/`Unitary2`, multi-term phases) move `32·len`; sparse
    /// kernels scale with the selected fraction. Interp points report 0
    /// — their cost lives outside the kernel seam.
    pub fn bytes_touched(&self, len: usize) -> u64 {
        const RW: u64 = 2 * 16; // one read + one write of a Complex
        let len = len as u64;
        match self {
            CompiledOp::Unitary1 { .. } | CompiledOp::Unitary2 { .. } => RW * len,
            CompiledOp::Phase(k) => {
                if k.global == Complex::ONE && k.terms.len() == 1 {
                    RW * (len >> k.terms[0].0.count_ones())
                } else {
                    RW * len
                }
            }
            CompiledOp::PermuteSwap { select, .. } => {
                // Each selected orbit swaps two amplitudes.
                2 * RW * (len >> select.count_ones())
            }
            CompiledOp::Interp(_) => 0,
        }
    }
}

/// A kernel with its masks placed into a buffer's coordinates — a
/// state's stored sub-cube, or a full register — once per call
/// ([`CompiledOp::place`]): what the replay driver's workers run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Placed<'a> {
    Unitary1 {
        stride: usize,
        matrix: &'a Mat2,
    },
    Unitary2 {
        mask_hi: usize,
        mask_lo: usize,
        matrix: &'a Mat4,
    },
    /// Phase terms are placed by the pass itself (see [`phase`]).
    Phase {
        kernel: &'a PhaseKernel,
        layout: Layout,
    },
    PermuteSwap {
        ones: usize,
        select: usize,
        flip: usize,
    },
    /// A permutation whose pinned control contradicts its pattern: it
    /// moves nothing.
    Nothing,
}

impl Placed<'_> {
    /// The buffer bits whose amplitudes this kernel mixes: what a pass
    /// must stop treating as pinned before it runs.
    #[inline]
    pub(crate) fn mixed(self) -> usize {
        match self {
            Placed::Unitary1 { stride, .. } => stride,
            Placed::Unitary2 {
                mask_hi, mask_lo, ..
            } => mask_hi | mask_lo,
            Placed::PermuteSwap { select, .. } => select,
            Placed::Phase { .. } | Placed::Nothing => 0,
        }
    }

    /// Worker `worker`'s share of this kernel on a `len`-amplitude
    /// buffer, over the units that agree with `pins` (this kernel's
    /// [`Placed::mixed`] bits already forgotten): the *live* units are
    /// split evenly — pinned bits are not free bits, their values sit
    /// in every representative — and the ranges tile `[0, len)`.
    #[inline]
    pub(crate) fn share(
        self,
        worker: usize,
        workers: usize,
        len: usize,
        pins: Pins,
    ) -> std::ops::Range<usize> {
        // Phase kernels mix nothing: uniform per-index work.
        let ones = match self {
            Placed::PermuteSwap { ones, .. } => ones,
            _ => 0,
        };
        pins.share_of(ones, self.mixed(), worker, workers, len)
    }

    /// [`CompiledOp::apply_range`] on this kernel's buffer, skipping the
    /// work units that disagree with `pins` (buffer coordinates): the
    /// one implementation of every kernel; the public entry points are
    /// its full-register, nothing-pinned case. The caller has already
    /// inserted the bits the kernel mixes ([`CompiledOp::grown_bits`])
    /// and forgotten its [`Placed::mixed`] bits from `pins`; skipped
    /// units hold only exact zeros, the others do the full pass's
    /// arithmetic.
    ///
    /// Picks, per call, the widest instantiation of the kernel bodies
    /// the CPU supports (see [`Placed::apply_baseline`]).
    #[inline]
    pub(crate) fn apply(self, amps: &mut [Complex], range: std::ops::Range<usize>, pins: Pins) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU was just seen to support `avx2`.
            return unsafe { self.apply_avx2(amps, range, pins) };
        }
        self.apply_baseline(amps, range, pins);
    }

    /// The kernel bodies, written once over the disjoint slices of each
    /// run of live work units ([`Pins::runs_in`]) and `#[inline(always)]`
    /// so that each caller is an *instantiation*: this one at the
    /// build's baseline instruction set, and on x86-64 `apply_avx2`,
    /// whose `#[target_feature]` lets the autovectoriser use wider
    /// lanes on the very same source. No intrinsics and never `fma`: a
    /// lane does the separate IEEE multiplies and adds of the scalar
    /// expression in its order, so amplitudes are `==` whichever
    /// instantiation runs — results do not depend on the host.
    ///
    /// There is no `avx512f` instantiation: measured, it was worth
    /// under 3 % of a 20-qubit shot over AVX2 (the dense 4×4 kernel is
    /// at the FMA-less peak of one 512-bit or two 256-bit pipes either
    /// way, the full-register passes at the L3 rate). That peak is of
    /// the arithmetic a kernel does: a block-diagonal 4×4 does half of
    /// it, its off-block products being exact zeros (see `Blocks`).
    #[inline(always)]
    pub(crate) fn apply_baseline(
        self,
        amps: &mut [Complex],
        range: std::ops::Range<usize>,
        pins: Pins,
    ) {
        debug_assert!(range.start <= range.end && range.end <= amps.len());
        debug_assert!(amps.len().is_power_of_two());
        // The matrices are copied out of the borrowed program: a
        // reference held in `self` carries no promise that it does not
        // alias `amps`, and without one the loops reload every entry
        // after every store instead of vectorising.
        match self {
            Placed::Unitary1 { stride, matrix } => {
                unitary1(amps, stride, &{ *matrix }, range, pins)
            }
            // A block-diagonal matrix runs at half the multiplies (see
            // [`Blocks`]).
            Placed::Unitary2 {
                mask_hi,
                mask_lo,
                matrix,
            } => match Blocks::of(matrix) {
                Some(blocks) => unitary2(amps, mask_hi, mask_lo, &blocks, range, pins),
                None => unitary2(amps, mask_hi, mask_lo, &{ *matrix }, range, pins),
            },
            Placed::Phase { kernel, layout } => phase(amps, kernel, layout, range, pins),
            Placed::PermuteSwap { ones, select, flip } => {
                permute_swap(amps, ones, select, flip, range, pins);
            }
            Placed::Nothing => {}
        }
    }

    /// [`Placed::apply_baseline`] compiled with AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) fn apply_avx2(
        self,
        amps: &mut [Complex],
        range: std::ops::Range<usize>,
        pins: Pins,
    ) {
        self.apply_baseline(amps, range, pins);
    }
}

/// One row of a 4×4 matrix–vector product, left to right.
#[inline(always)]
fn row4(m: &Mat4, row: usize, a: &[Complex; 4]) -> Complex {
    m[row * 4] * a[0] + m[row * 4 + 1] * a[1] + m[row * 4 + 2] * a[2] + m[row * 4 + 3] * a[3]
}

/// What one quad of a [`unitary2`] pass computes from its amplitudes
/// `(i, i|mask_lo, i|mask_hi, i|mask_hi|mask_lo)`.
trait Quad {
    fn map(&self, a: [Complex; 4]) -> [Complex; 4];
}

/// The dense product: sixteen complex multiplies per quad.
impl Quad for Mat4 {
    #[inline(always)]
    fn map(&self, a: [Complex; 4]) -> [Complex; 4] {
        [
            row4(self, 0, &a),
            row4(self, 1, &a),
            row4(self, 2, &a),
            row4(self, 3, &a),
        ]
    }
}

/// The entries of a [`Mat4`] whose row and column differ in sub-index
/// bit 1 (`mask_hi`): the two off-diagonal 2×2 blocks.
const OFF_BLOCK: [usize; 8] = [2, 3, 6, 7, 8, 9, 12, 13];

/// The two diagonal 2×2 blocks of a block-diagonal [`Mat4`], row-major
/// (`mask_hi` clear, then set): a quad is two pair updates on its
/// `mask_lo` pairs, eight complex multiplies instead of sixteen.
///
/// Same bits as the dense [`row4`] product, by construction: every
/// skipped term is a product with an exact-zero entry of a finite
/// amplitude, a signed zero, and `x + (±0) == x` bit for bit for every
/// nonzero `x`; the kept terms keep the dense row's left-to-right
/// order. So every output is `row4`'s, except possibly the sign of an
/// exact zero — which no later sum, product or comparison can tell
/// apart (see the [`crate::statevector`] module docs).
struct Blocks([Complex; 8]);

impl Blocks {
    /// `m`'s diagonal blocks, if all eight off-block entries are exactly
    /// zero — no tolerance: a tiny entry is a term of the dense sum.
    #[inline]
    fn of(m: &Mat4) -> Option<Blocks> {
        OFF_BLOCK
            .iter()
            .all(|&i| m[i] == Complex::ZERO)
            .then(|| Blocks([m[0], m[1], m[4], m[5], m[10], m[11], m[14], m[15]]))
    }
}

impl Quad for Blocks {
    #[inline(always)]
    fn map(&self, a: [Complex; 4]) -> [Complex; 4] {
        let b = &self.0;
        [
            b[0] * a[0] + b[1] * a[1],
            b[2] * a[0] + b[3] * a[1],
            b[4] * a[2] + b[5] * a[3],
            b[6] * a[2] + b[7] * a[3],
        ]
    }
}

/// Pair update: each run of representatives (stride bit clear) is the
/// low stream, the same run one stride up the high stream — two
/// disjoint slices advancing linearly, whatever is pinned.
#[inline(always)]
fn unitary1(
    amps: &mut [Complex],
    stride: usize,
    m: &Mat2,
    range: std::ops::Range<usize>,
    pins: Pins,
) {
    for run in pins.runs_in(0, stride, range, amps.len()) {
        let n = run.len();
        let (head, tail) = amps.split_at_mut(run.start + stride);
        for (a, b) in head[run].iter_mut().zip(&mut tail[..n]) {
            let (a0, a1) = (*a, *b);
            *a = m[0] * a0 + m[1] * a1;
            *b = m[2] * a0 + m[3] * a1;
        }
    }
}

/// Quad update over the representatives (both mask bits clear) in
/// `range`. A run of representatives is at most `mask_lo` long, so
/// there are two loop shapes, chosen by what the kernel and the pins
/// allow: four streams along each run, or — when `mask_lo` is too
/// small for a lane to fill — the quads of whole `2·mask_hi` blocks.
#[inline(always)]
fn unitary2(
    amps: &mut [Complex],
    mask_hi: usize,
    mask_lo: usize,
    m: &impl Quad,
    range: std::ops::Range<usize>,
    pins: Pins,
) {
    let block = 2 * mask_hi;
    let mut ragged = [range.clone(), range.end..range.end];
    // Whole blocks only: nothing pinned inside one, and the ragged ends
    // of the range go the general way. (The walk stays inside this
    // branch so that it is compiled for `mask_lo` 1 and 2 only.)
    if mask_lo < STREAM_MIN && pins.without(!(block - 1)).is_none() {
        let whole = range.start.next_multiple_of(block)..range.end & !(block - 1);
        if whole.start < whole.end {
            ragged = [range.start..whole.start, whole.end..range.end];
            for run in pins.runs_in(0, 0, whole, amps.len()) {
                for block in amps[run].chunks_exact_mut(block) {
                    let (lows, highs) = block.split_at_mut(mask_hi);
                    let chunks = lows
                        .chunks_exact_mut(2 * mask_lo)
                        .zip(highs.chunks_exact_mut(2 * mask_lo));
                    for (low, high) in chunks {
                        let (s0, s1) = low.split_at_mut(mask_lo);
                        let (s2, s3) = high.split_at_mut(mask_lo);
                        for k in 0..mask_lo {
                            [s0[k], s1[k], s2[k], s3[k]] = m.map([s0[k], s1[k], s2[k], s3[k]]);
                        }
                    }
                }
            }
        }
    }
    for ragged in ragged {
        quad_streams(amps, mask_hi, mask_lo, m, ragged, pins);
    }
}

/// Runs shorter than this are not worth slices: [`unitary2`] walks
/// whole blocks instead, [`permute_swap`] goes index by index.
const STREAM_MIN: usize = 4;

/// [`unitary2`] along the runs of representatives: the run itself and
/// its three partner runs are four disjoint slices.
#[inline(always)]
fn quad_streams(
    amps: &mut [Complex],
    mask_hi: usize,
    mask_lo: usize,
    m: &impl Quad,
    range: std::ops::Range<usize>,
    pins: Pins,
) {
    for run in pins.runs_in(0, mask_hi | mask_lo, range, amps.len()) {
        let n = run.len();
        let (s0, rest) = amps[run.start..].split_at_mut(mask_lo);
        let (s1, rest) = rest.split_at_mut(mask_hi - mask_lo);
        let (s2, s3) = rest.split_at_mut(mask_lo);
        let streams = s0[..n]
            .iter_mut()
            .zip(&mut s1[..n])
            .zip(&mut s2[..n])
            .zip(&mut s3[..n]);
        for (((a0, a1), a2), a3) in streams {
            [*a0, *a1, *a2, *a3] = m.map([*a0, *a1, *a2, *a3]);
        }
    }
}

/// Diagonal pass: one slice per run of live amplitudes. The terms are
/// placed into buffer coordinates once per call: a term a bit the buffer
/// does not store contradicts applies to no amplitude and drops out, a
/// bit it does not store and matches drops out of the term's mask.
/// Amplitude by amplitude the products are the full pass's, in its
/// order.
#[inline(always)]
fn phase(
    amps: &mut [Complex],
    k: &PhaseKernel,
    layout: Layout,
    range: std::ops::Range<usize>,
    pins: Pins,
) {
    let len = amps.len();
    if k.global == Complex::ONE && k.terms.len() == 1 {
        // Single conditional term: touch only the selected amplitudes.
        let (mask, p) = k.terms[0];
        let Some((ones, select)) = layout.place_pattern(mask, mask) else {
            return;
        };
        for run in pins.runs_in(ones, select, range, len) {
            for a in &mut amps[run] {
                *a *= p;
            }
        }
    } else {
        // On the stack unless the kernel is unusually wide.
        let mut stack = [(0, Complex::ZERO); 16];
        let mut heap = Vec::new();
        let placed = k
            .terms
            .iter()
            .filter_map(|&(mask, p)| Some((layout.place_pattern(mask, mask)?.0, p)));
        let terms: &[(usize, Complex)] = if k.terms.len() <= stack.len() {
            let mut count = 0;
            for (slot, term) in stack.iter_mut().zip(placed) {
                *slot = term;
                count += 1;
            }
            &stack[..count]
        } else {
            heap.extend(placed);
            &heap
        };
        for run in pins.runs_in(0, 0, range, len) {
            let first = run.start;
            for (offset, a) in amps[run].iter_mut().enumerate() {
                let mut ph = k.global;
                for &(mask, p) in terms {
                    if (first + offset) & mask == mask {
                        ph *= p;
                    }
                }
                *a *= ph;
            }
        }
    }
}

/// Swap orbits by representative (`i & select == ones`), unique
/// because `flip ⊆ select`: the partner `i ^ flip` never itself matches
/// the pattern. `flip` lies above a run's bits, so a run's partners are
/// a run too — two slices to swap.
///
/// Runs shorter than [`STREAM_MIN`] go index by index instead (the
/// interpreter's loop): a split, three bounds and a length-dispatched
/// swap per run are then all overhead. Slices ÷ index loop, time per
/// pass on 12 / 16 / 20-qubit states: runs of 1 — bit 0 selected or
/// pinned, every `Cx` of a chain that entangles the qubits in order, all
/// of `lib-compas` — 2.8 / 2.2 / 1.3; of 2 1.8 / 1.5 / 1.0; of 4
/// 0.94 / 1.0 / 1.0; of 32 0.49 / 0.74 / 0.89. On an unfusable
/// GHZ-12 shot, compiled ÷ interpreted rate: slices only
/// 0.82–0.88, a `n == 1` test per run 0.92–0.95, this 1.00–1.04.
#[inline(always)]
fn permute_swap(
    amps: &mut [Complex],
    ones: usize,
    select: usize,
    flip: usize,
    range: std::ops::Range<usize>,
    pins: Pins,
) {
    let runs = pins.runs_in(ones, select, range, amps.len());
    if runs.run_len() < STREAM_MIN {
        for i in runs.singles() {
            let (a, b) = (amps[i], amps[i ^ flip]);
            amps[i] = b;
            amps[i ^ flip] = a;
        }
        return;
    }
    for run in runs {
        let n = run.len();
        let partner = run.start ^ flip;
        let (head, tail) = amps.split_at_mut(run.start.max(partner));
        head[run.start.min(partner)..][..n].swap_with_slice(&mut tail[..n]);
    }
}

impl StateVector {
    /// Replays a compiled program through this state: fused kernels run
    /// directly on the stored sub-cube, each segment inserting the bits
    /// its kernels mix first (module docs);
    /// [`CompiledOp::Interp`] points go through
    /// [`SimState::step`](crate::sim::SimState::step), consuming `rng`
    /// in exactly the interpreted order.
    ///
    /// This is the replay driver of [`crate::amp`] with one worker, on
    /// the calling thread: nothing is spawned, and nothing allocated
    /// once the state's buffer has held its widest sub-cube.
    ///
    /// The state may be **wider** than the program, matching the
    /// interpreted contract (qubit 0 is the *state's* most significant
    /// bit): the compiled masks, which are relative to the program
    /// width, are shifted up by the width difference at replay — one
    /// step of the `Layout` that places them into the stored buffer.
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled for more qubits than this
    /// state has.
    pub fn apply_compiled(
        &mut self,
        program: &CompiledCircuit,
        cbits: &mut [bool],
        rng: &mut impl Rng,
    ) {
        self.replay(program, 0, cbits, rng, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_shot_into, sample_shots};
    use crate::sim::SimState;
    use circuit::circuit::Basis;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_compiled(circuit: &Circuit, seed: u64) -> (StateVector, Vec<bool>) {
        let program = compile(circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sv = StateVector::new(circuit.num_qubits());
        let mut cbits = vec![false; circuit.num_cbits()];
        sv.apply_compiled(&program, &mut cbits, &mut rng);
        (sv, cbits)
    }

    fn run_interpreted(circuit: &Circuit, seed: u64) -> (StateVector, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let initial = StateVector::new(circuit.num_qubits());
        let mut sv = StateVector::new(0);
        let mut cbits = Vec::new();
        run_shot_into(circuit, &initial, &mut sv, &mut cbits, &mut rng);
        (sv, cbits)
    }

    fn assert_states_close(a: &StateVector, b: &StateVector) {
        let fid = a.fidelity(b);
        assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
    }

    #[test]
    fn single_qubit_runs_fuse_into_one_kernel() {
        let mut c = Circuit::new(1, 0);
        c.h(0).t(0).s(0).h(0).x(0);
        let p = compile(&c);
        assert_eq!(p.num_ops(), 1, "5 gates on one qubit fuse to one op");
        assert_eq!(p.source_instructions(), 5);
        let (fast, _) = run_compiled(&c, 1);
        let (slow, _) = run_interpreted(&c, 1);
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn diagonal_runs_merge_into_one_phase_kernel() {
        let mut c = Circuit::new(3, 0);
        c.z(0).s(1).t(2).cz(0, 1).cz(1, 2).rz(0, 0.4).tdg(1);
        let p = compile(&c);
        assert_eq!(
            p.num_ops(),
            1,
            "the 7-gate diagonal run merges into one kernel"
        );
        assert!(matches!(p.ops()[0], CompiledOp::Phase(_)));
        // Equivalence on a random superposition.
        let mut rng = StdRng::seed_from_u64(5);
        let mut fast = StateVector::from_amplitudes(crate::qrand::random_pure_state(3, &mut rng));
        let mut slow = fast.clone();
        fast.apply_compiled(&p, &mut [], &mut StdRng::seed_from_u64(0));
        for instr in c.instructions() {
            if let Instruction::Gate(g) = instr {
                slow.apply_gate(g);
            }
        }
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn diagonals_fuse_into_a_pending_matrix_instead_of_a_kernel() {
        // H opens a pending 2×2 on the qubit; the following diagonal
        // run folds into it, so the whole sequence is one fused kernel.
        let mut c = Circuit::new(1, 0);
        c.h(0).z(0).t(0).rz(0, 0.7);
        let p = compile(&c);
        assert_eq!(p.num_ops(), 1);
        assert!(matches!(p.ops()[0], CompiledOp::Unitary1 { .. }));
        let (fast, _) = run_compiled(&c, 6);
        let (slow, _) = run_interpreted(&c, 6);
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn repeated_cz_cancels_out_of_the_program() {
        let mut c = Circuit::new(2, 0);
        c.h(0).h(1).cz(0, 1).cz(0, 1);
        let p = compile(&c);
        assert!(
            p.ops().iter().all(|op| !matches!(op, CompiledOp::Phase(_))),
            "Cz·Cz must prune to nothing"
        );
    }

    #[test]
    fn permutations_use_masks_and_match_interpretation() {
        // Every controlled permutation on scattered qubits.
        let mut c = Circuit::new(4, 0);
        for q in 0..4 {
            c.ry(q, 0.3 + q as f64);
        }
        c.cx(3, 0).swap(1, 3).ccx(0, 2, 3).cswap(2, 0, 1);
        let (fast, _) = run_compiled(&c, 3);
        let (slow, _) = run_interpreted(&c, 3);
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn deferred_fusion_commutes_only_across_disjoint_qubits() {
        // H(0) is deferred past gates on other qubits but must flush
        // before Cx(0,1) and before the measurement of qubit 0.
        let mut c = Circuit::new(2, 1);
        c.h(0).x(1).cx(0, 1).h(1).measure(0, 0);
        let (fast, fast_bits) = run_compiled(&c, 4);
        let (slow, slow_bits) = run_interpreted(&c, 4);
        assert_eq!(fast_bits, slow_bits);
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn interpretation_points_preserve_rng_stream_order() {
        // Measurement, reset, feedback, noise: the compiled program must
        // draw randomness in exactly the interpreted order, so cbits and
        // the post-shot RNG position agree.
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1);
        c.push(Instruction::Depolarizing {
            qubits: vec![0, 1],
            p: 0.3,
        });
        c.measure(0, 0);
        c.cond_x(2, &[0]);
        c.reset(1);
        c.push(Instruction::Measure {
            qubit: 2,
            cbit: 2,
            basis: Basis::X,
            flip_prob: 0.2,
        });
        for seed in 0..50 {
            let program = compile(&c);
            let mut rng_c = StdRng::seed_from_u64(seed);
            let mut sv_c = StateVector::new(3);
            let mut cbits_c = vec![false; 3];
            sv_c.apply_compiled(&program, &mut cbits_c, &mut rng_c);

            let (sv_i, cbits_i) = run_interpreted(&c, seed);
            let mut rng_i = StdRng::seed_from_u64(seed);
            let mut sink = StateVector::new(0);
            let mut sink_bits = Vec::new();
            run_shot_into(
                &c,
                &StateVector::new(3),
                &mut sink,
                &mut sink_bits,
                &mut rng_i,
            );

            assert_eq!(cbits_c, cbits_i, "seed {seed}: records diverged");
            assert_states_close(&sv_c, &sv_i);
            // Both paths consumed the same number of draws.
            assert_eq!(rng_c.random::<u64>(), rng_i.random::<u64>());
        }
    }

    #[test]
    fn compiled_sampling_matches_interpreted_tallies() {
        // The teleportation circuit end-to-end: per-seed tallies of the
        // compiled program equal the interpreted reference.
        let mut c = Circuit::new(3, 2);
        c.ry(0, 0.9);
        c.h(1).cx(1, 2).cx(0, 1).h(0);
        c.measure(0, 0).measure(1, 1);
        c.cond_x(2, &[1]).cond_z(2, &[0]);
        let program = compile(&c);
        let initial = StateVector::new(3);
        let mut rng = StdRng::seed_from_u64(9);
        let interpreted = sample_shots(&c, &initial, 400, &mut rng);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = std::collections::HashMap::new();
        let mut sv = StateVector::new(0);
        let mut cbits = Vec::new();
        for _ in 0..400 {
            crate::runner::run_program_into(&program, &initial, &mut sv, &mut cbits, &mut rng);
            *counts
                .entry(crate::runner::pack_cbits(&cbits))
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts, interpreted);
    }

    #[test]
    fn compiled_program_replays_on_a_wider_state() {
        // The interpreted contract allows a state wider than the
        // circuit (qubit 0 = the *state's* MSB); the compiled masks
        // must shift up by the width difference to match.
        let mut c = Circuit::new(2, 2);
        c.h(0).t(0).cx(0, 1).cz(0, 1).swap(0, 1);
        c.measure(0, 0).measure(1, 1);
        let program = compile(&c);
        for seed in 0..20 {
            let initial = StateVector::new(4);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = StateVector::new(0);
            let mut fast_bits = Vec::new();
            crate::runner::run_program_into(
                &program,
                &initial,
                &mut fast,
                &mut fast_bits,
                &mut rng,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let mut slow = StateVector::new(0);
            let mut slow_bits = Vec::new();
            run_shot_into(&c, &initial, &mut slow, &mut slow_bits, &mut rng);
            assert_eq!(fast_bits, slow_bits, "seed {seed}");
            assert_states_close(&fast, &slow);
        }
    }

    #[test]
    fn for_each_masked_enumerates_exactly_the_selected_indices() {
        let mut seen = Vec::new();
        // 4-bit space, pin bits {3,1} (values 1 at bit3, 0 at bit1).
        for_each_masked(0b1000, 0b1010, 16, |i| seen.push(i));
        seen.sort_unstable();
        assert_eq!(seen, vec![0b1000, 0b1001, 0b1100, 0b1101]);
        // Degenerate: nothing pinned enumerates everything.
        let mut all = Vec::new();
        for_each_masked(0, 0, 4, |i| all.push(i));
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn zz_block_fuses_into_one_unitary2_pass() {
        // Cx·Rz·Cx on a qubit pair is the ZZ interaction of every
        // QAOA/Trotter layer; it must cost one 4×4 pass, not three.
        let mut c = Circuit::new(2, 0);
        c.h(0).h(1);
        c.cx(0, 1).rz(1, 0.7).cx(0, 1);
        let p = compile(&c);
        assert_eq!(p.num_ops(), 1, "ops: {:?}", p.ops());
        assert!(matches!(p.ops()[0], CompiledOp::Unitary2 { .. }));
        // Matches interpretation on a random superposition.
        let mut rng = StdRng::seed_from_u64(11);
        let mut fast = StateVector::from_amplitudes(crate::qrand::random_pure_state(2, &mut rng));
        let mut slow = fast.clone();
        fast.apply_compiled(&p, &mut [], &mut StdRng::seed_from_u64(0));
        for instr in c.instructions() {
            if let Instruction::Gate(g) = instr {
                slow.apply_gate(g);
            }
        }
        assert_states_close(&fast, &slow);
    }

    #[test]
    fn exact_permutation_identities_drop_out() {
        let mut c = Circuit::new(2, 0);
        c.h(0).h(1).cx(0, 1).cx(0, 1).swap(0, 1).swap(0, 1);
        let p = compile(&c);
        // Cx·Cx and Swap·Swap multiply to the exact identity; only the
        // fused Hadamard pair survives.
        assert_eq!(p.num_ops(), 1, "ops: {:?}", p.ops());
    }

    /// A dense 4×4 on `{hi, lo}`: no entry zero, so every term of every
    /// row shows in the result.
    fn dense4(hi: usize, lo: usize) -> Mat4 {
        let on = |stride, gate: &Gate| {
            let matrix = mat2_of(gate);
            mat4_of(&CompiledOp::Unitary1 { stride, matrix }, hi, lo)
        };
        let cx = CompiledOp::PermuteSwap {
            ones: hi,
            select: hi | lo,
            flip: lo,
        };
        [
            on(hi, &Gate::Rx(0, 0.7)),
            on(lo, &Gate::Ry(0, -1.1)),
            mat4_of(&cx, hi, lo),
            on(hi, &Gate::Rz(0, 0.4)),
            on(lo, &Gate::Rx(0, 2.3)),
        ]
        .iter()
        .fold(identity4(), |acc, m| mul4(m, &acc))
    }

    /// A block-diagonal 4×4 on `{hi, lo}`: the `cx·rz·cx` ZZ sandwich
    /// of `lib-wide-sv`, fused with an `rx` on the low qubit.
    fn zz4(hi: usize, lo: usize) -> Mat4 {
        let cx = CompiledOp::PermuteSwap {
            ones: hi,
            select: hi | lo,
            flip: lo,
        };
        let rz = CompiledOp::Unitary1 {
            stride: lo,
            matrix: mat2_of(&Gate::Rz(0, 0.45)),
        };
        let rx = CompiledOp::Unitary1 {
            stride: lo,
            matrix: mat2_of(&Gate::Rx(0, 0.35)),
        };
        [&rx, &cx, &rz, &cx]
            .iter()
            .fold(identity4(), |acc, op| mul4(&mat4_of(op, hi, lo), &acc))
    }

    /// Every kernel kind on `n ≥ 5` qubits: top-bit and scattered
    /// supports, and the small strides (pair stride 1; quad `mask_lo`
    /// 1 and 2, adjacent to `mask_hi` and not; `mask_lo` 4, the shortest
    /// four-stream runs). Quads come dense and block-diagonal: a ZZ
    /// sandwich at each of the dense quads' mask pairs, a 4×4 with an
    /// anti-diagonal block, and an all-diagonal one.
    fn kernel_zoo(n: usize) -> Vec<CompiledOp> {
        let quad = |hi: usize, lo: usize| CompiledOp::Unitary2 {
            mask_hi: hi,
            mask_lo: lo,
            matrix: dense4(hi, lo),
        };
        let pairs = [
            (qubit_mask(1, n), qubit_mask(4, n)),
            (2, 1),
            (4, 2),
            (8, 4),
            (qubit_mask(0, n), 1),
            (qubit_mask(1, n), 2),
        ];
        let zz = pairs.map(|(hi, lo)| CompiledOp::Unitary2 {
            mask_hi: hi,
            mask_lo: lo,
            matrix: zz4(hi, lo),
        });
        let (hi, lo) = (qubit_mask(0, n), 4);
        let on = |stride, gate: &Gate| {
            let matrix = mat2_of(gate);
            mat4_of(&CompiledOp::Unitary1 { stride, matrix }, hi, lo)
        };
        let cx = CompiledOp::PermuteSwap {
            ones: hi,
            select: hi | lo,
            flip: lo,
        };
        // A `cx` then an `rz` on its control: the block with `mask_hi`
        // set is anti-diagonal.
        let anti_diagonal = CompiledOp::Unitary2 {
            mask_hi: hi,
            mask_lo: lo,
            matrix: mul4(&on(hi, &Gate::Rz(0, 0.6)), &mat4_of(&cx, hi, lo)),
        };
        let diagonal = CompiledOp::Unitary2 {
            mask_hi: hi,
            mask_lo: lo,
            matrix: mul4(&on(hi, &Gate::Rz(0, 0.6)), &on(lo, &Gate::T(0))),
        };
        let mut zoo = vec![
            CompiledOp::Unitary1 {
                stride: qubit_mask(0, n), // MSB: all pairs in the lower half
                matrix: mat2_of(&Gate::H(0)),
            },
            CompiledOp::Unitary1 {
                stride: 1,
                matrix: mat2_of(&Gate::Rx(0, 0.9)),
            },
            CompiledOp::Unitary2 {
                mask_hi: qubit_mask(1, n),
                mask_lo: qubit_mask(4, n),
                matrix: mat4_of(
                    &CompiledOp::Unitary1 {
                        stride: qubit_mask(1, n),
                        matrix: mat2_of(&Gate::T(0)),
                    },
                    qubit_mask(1, n),
                    qubit_mask(4, n),
                ),
            },
            quad(2, 1),
            quad(4, 2),
            quad(8, 4),
            quad(qubit_mask(0, n), 1),
            quad(qubit_mask(1, n), 2),
            CompiledOp::Phase(PhaseKernel {
                global: Complex::from_polar(1.0, 0.3),
                terms: vec![
                    (qubit_mask(2, n), Complex::I),
                    (qubit_mask(0, n) | qubit_mask(3, n), -Complex::ONE),
                ],
            }),
            CompiledOp::Phase(PhaseKernel {
                global: Complex::ONE,
                terms: vec![(qubit_mask(1, n) | 1, Complex::from_polar(1.0, 0.8))],
            }),
            CompiledOp::PermuteSwap {
                ones: qubit_mask(2, n),
                select: qubit_mask(2, n) | qubit_mask(0, n),
                flip: qubit_mask(0, n),
            },
            CompiledOp::PermuteSwap {
                ones: 2,
                select: 2 | 1 | qubit_mask(0, n),
                flip: 1 | qubit_mask(0, n),
            },
        ];
        zoo.extend(zz);
        zoo.extend([anti_diagonal, diagonal]);
        zoo
    }

    /// Random pins on `n` qubits that leave `op`'s mixed bits alone, and
    /// `init` with every amplitude they rule out zeroed.
    fn pinned_start(
        op: &CompiledOp,
        init: &[Complex],
        n: usize,
        rng: &mut StdRng,
    ) -> (Pins, Vec<Complex>) {
        let mask = rng.random::<u64>() as usize
            & rng.random::<u64>() as usize
            & ((1 << n) - 1)
            & !op.mixed_bits();
        let vals = rng.random::<u64>() as usize & mask;
        let pins = StateVector::basis_state(n, vals).pins().without(!mask);
        let amps = init
            .iter()
            .enumerate()
            .map(|(i, &a)| if i & mask == vals { a } else { Complex::ZERO })
            .collect();
        (pins, amps)
    }

    #[test]
    fn apply_range_over_disjoint_covers_is_bit_identical() {
        // Every kernel kind, applied over unaligned covers of the
        // index space, must reproduce the full pass exactly — with
        // nothing pinned, and over the live sub-cube of random pins.
        let n = 6;
        let len = 1usize << n;
        let mut rng = StdRng::seed_from_u64(21);
        let init = crate::qrand::random_pure_state(n, &mut rng);
        for op in &kernel_zoo(n) {
            let mut full = init.clone();
            op.apply(&mut full, 0);
            for parts in [1usize, 2, 3, 4, 7] {
                // Unaligned contiguous cover.
                let mut split = init.clone();
                for p in 0..parts {
                    op.apply_range(&mut split, len * p / parts, len * (p + 1) / parts, 0);
                }
                assert_eq!(split, full, "{op:?} over {parts} even parts");
                // The balanced worker cover the amp-parallel path uses.
                let mut balanced = init.clone();
                for w in 0..parts {
                    let r = op.worker_range(w, parts, len, 0);
                    op.apply_range(&mut balanced, r.start, r.end, 0);
                }
                assert_eq!(balanced, full, "{op:?} over {parts} worker ranges");
            }
            for _ in 0..12 {
                let (pins, start) = pinned_start(op, &init, n, &mut rng);
                let mut full = start.clone();
                op.apply(&mut full, 0);
                for parts in [1usize, 2, 3, 4, 7] {
                    let mut split = start.clone();
                    let mut balanced = start.clone();
                    for p in 0..parts {
                        let range = len * p / parts..len * (p + 1) / parts;
                        op.place(Layout::dense(0)).apply(&mut split, range, pins);
                        let share = op.place(Layout::dense(0)).share(p, parts, len, pins);
                        op.place(Layout::dense(0)).apply(&mut balanced, share, pins);
                    }
                    assert_eq!(split, full, "{op:?}, {pins:?}, {parts} even parts");
                    assert_eq!(balanced, full, "{op:?}, {pins:?}, {parts} live shares");
                }
            }
        }
    }

    #[test]
    fn every_detected_instantiation_equals_the_baseline_body() {
        // The instantiations are one source compiled for different
        // instruction sets; none may change a bit of any kernel.
        let n = 9;
        let len = 1usize << n;
        let mut rng = StdRng::seed_from_u64(22);
        let init = crate::qrand::random_pure_state(n, &mut rng);
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            println!("skipped: avx2 not detected on this host, only the baseline body runs");
        }
        for op in &kernel_zoo(n) {
            for trial in 0..6 {
                let (pins, start) = if trial == 0 {
                    (Pins::NONE, init.clone())
                } else {
                    pinned_start(op, &init, n, &mut rng)
                };
                for range in [0..len, 37..len - 101] {
                    let mut baseline = start.clone();
                    op.place(Layout::dense(0))
                        .apply_baseline(&mut baseline, range.clone(), pins);
                    let mut dispatched = start.clone();
                    op.place(Layout::dense(0))
                        .apply(&mut dispatched, range.clone(), pins);
                    assert_eq!(dispatched, baseline, "{op:?}, {pins:?}, {range:?}");
                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        let mut wide = start.clone();
                        // SAFETY: `avx2` was detected above.
                        unsafe {
                            op.place(Layout::dense(0))
                                .apply_avx2(&mut wide, range.clone(), pins)
                        };
                        assert_eq!(wide, baseline, "avx2: {op:?}, {pins:?}, {range:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn worker_ranges_tile_the_index_space_with_balanced_units() {
        let n = 6;
        let len = 1usize << n;
        let mut rng = StdRng::seed_from_u64(23);
        let init = vec![Complex::ZERO; len];
        for op in &kernel_zoo(n) {
            // Unit representatives: the kernel's pattern on its mixed
            // bits (a swap's `ones`, clear otherwise).
            let ones = match op {
                CompiledOp::PermuteSwap { ones, .. } => *ones,
                _ => 0,
            };
            for trial in 0..8 {
                // Nothing pinned first: the public `worker_range`.
                let pins = if trial == 0 {
                    Pins::NONE
                } else {
                    pinned_start(op, &init, n, &mut rng).0
                };
                let live: Vec<usize> = pins
                    .runs_in(ones, op.mixed_bits(), 0..len, len)
                    .flatten()
                    .collect();
                for workers in [1, 2, 3, 4, 8] {
                    let mut next = 0;
                    let mut unit_counts = Vec::new();
                    for w in 0..workers {
                        let r = op.place(Layout::dense(0)).share(w, workers, len, pins);
                        if trial == 0 {
                            assert_eq!(r, op.worker_range(w, workers, len, 0));
                        }
                        assert_eq!(r.start, next, "ranges must tile contiguously");
                        next = r.end;
                        // Count this worker's owned representatives.
                        unit_counts.push(live.iter().filter(|i| r.contains(i)).count());
                    }
                    assert_eq!(next, len);
                    let (min, max) = (
                        unit_counts.iter().min().unwrap(),
                        unit_counts.iter().max().unwrap(),
                    );
                    assert!(
                        max - min <= 1,
                        "{op:?}, {pins:?}, {workers} workers: unbalanced units {unit_counts:?}"
                    );
                }
            }
        }
    }

    /// `a == b` on every amplitude, and every nonzero component the
    /// same bits: only the sign of an exact zero may differ.
    fn assert_same_bits(a: &[Complex], b: &[Complex], what: &str) {
        assert!(a == b, "{what}: amplitudes differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for (u, v) in [(x.re, y.re), (x.im, y.im)] {
                if u != 0.0 {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}: amplitude {i}");
                }
            }
        }
    }

    /// The dense body on every `Unitary2`, whatever its entries; every
    /// other kernel through the seam: the reference for the block body.
    fn apply_dense(
        op: &CompiledOp,
        amps: &mut [Complex],
        range: std::ops::Range<usize>,
        pins: Pins,
    ) {
        match op {
            CompiledOp::Unitary2 {
                mask_hi,
                mask_lo,
                matrix,
            } => unitary2(amps, *mask_hi, *mask_lo, matrix, range, pins),
            op => op.place(Layout::dense(0)).apply(amps, range, pins),
        }
    }

    #[test]
    fn the_block_body_has_the_dense_rows_bits() {
        let n = 9;
        let len = 1usize << n;
        let mut rng = StdRng::seed_from_u64(24);
        let init = crate::qrand::random_pure_state(n, &mut rng);
        let zoo = kernel_zoo(n);
        let blocked: Vec<&CompiledOp> = zoo.iter().filter(|op| op.is_block_diagonal()).collect();
        // Six ZZ sandwiches, the anti-diagonal and diagonal 4×4s, and
        // the zoo's lifted `t`.
        assert_eq!(blocked.len(), 9);
        for op in blocked {
            let CompiledOp::Unitary2 {
                mask_hi,
                mask_lo,
                matrix,
            } = op
            else {
                unreachable!()
            };
            let blocks = Blocks::of(matrix).unwrap();
            for trial in 0..6 {
                let (pins, start) = if trial == 0 {
                    (Pins::NONE, init.clone())
                } else {
                    pinned_start(op, &init, n, &mut rng)
                };
                for range in [0..len, 37..len - 101] {
                    let what = format!("{op:?}, {pins:?}, {range:?}");
                    let mut dense = start.clone();
                    apply_dense(op, &mut dense, range.clone(), pins);
                    let mut block = start.clone();
                    unitary2(&mut block, *mask_hi, *mask_lo, &blocks, range.clone(), pins);
                    assert_same_bits(&block, &dense, &what);
                    // The seam picks the block body, in the widest
                    // instantiation the host has.
                    let mut seam = start.clone();
                    op.place(Layout::dense(0))
                        .apply(&mut seam, range.clone(), pins);
                    assert_same_bits(&seam, &dense, &what);
                }
            }
        }
    }

    /// The two-nonzeros-per-row 4×4s of `lib-compas`'s teledata shot on
    /// `{hi, lo}`: the Bell-pair preparations `cx(hi→lo)·h(hi)` and
    /// `cx(lo→hi)·h(lo)`, and the Bell-basis change `h(hi)·cx(hi→lo)`.
    fn bell_shapes(hi: usize, lo: usize) -> [CompiledOp; 3] {
        let h = |stride| {
            let matrix = mat2_of(&Gate::H(0));
            mat4_of(&CompiledOp::Unitary1 { stride, matrix }, hi, lo)
        };
        let cx = |control: usize, target: usize| {
            let ones = control;
            let (select, flip) = (control | target, target);
            mat4_of(&CompiledOp::PermuteSwap { ones, select, flip }, hi, lo)
        };
        [
            mul4(&cx(hi, lo), &h(hi)),
            mul4(&cx(lo, hi), &h(lo)),
            mul4(&h(hi), &cx(hi, lo)),
        ]
        .map(|matrix| CompiledOp::Unitary2 {
            mask_hi: hi,
            mask_lo: lo,
            matrix,
        })
    }

    #[test]
    fn expansion_equals_insertion_then_kernel() {
        let n = 6;
        let mut rng = StdRng::seed_from_u64(26);
        let mut ops: Vec<CompiledOp> = kernel_zoo(n)
            .into_iter()
            .filter(|op| {
                matches!(
                    op,
                    CompiledOp::Unitary1 { .. } | CompiledOp::Unitary2 { .. }
                )
            })
            .collect();
        for (hi, lo) in [(qubit_mask(1, n), qubit_mask(3, n)), (2, 1)] {
            for op in bell_shapes(hi, lo) {
                let CompiledOp::Unitary2 { matrix, .. } = &op else {
                    unreachable!()
                };
                for row in matrix.chunks(4) {
                    assert_eq!(row.iter().filter(|&&m| m != Complex::ZERO).count(), 2);
                }
                ops.push(op);
            }
        }
        let mut expansions = 0;
        for op in &ops {
            for widen in [0, 1] {
                let width = n + widen;
                let qubit = |bit: usize| width - 1 - bit.trailing_zeros() as usize;
                let mixed = op.mixed_bits() << widen;
                let bits: Vec<usize> = (0..width)
                    .map(|b| 1 << b)
                    .filter(|b| mixed & b != 0)
                    .collect();
                for v in 0..1usize << bits.len() {
                    // The mixed bits' pinned values, lowest bit first.
                    let at_v = bits
                        .iter()
                        .enumerate()
                        .fold(0, |i, (k, &bit)| i | if v >> k & 1 != 0 { bit } else { 0 });
                    let others = ((1usize << width) - 1) & !mixed;
                    let live = rng.random::<u64>() as usize & others;
                    let live_qubits: Vec<usize> = (0..width)
                        .filter(|&q| live & qubit_mask(q, width) != 0)
                        .collect();
                    let group = crate::qrand::random_pure_state(live_qubits.len(), &mut rng);
                    let mut partly = StateVector::product_state(width, &[(group, live_qubits)]);
                    for bit in (0..width).map(|b| 1 << b).filter(|b| at_v & b != 0) {
                        partly.apply_gate(&Gate::X(qubit(bit)));
                    }
                    let fully = StateVector::basis_state(
                        width,
                        rng.random::<u64>() as usize & others | at_v,
                    );
                    for start in [fully, partly] {
                        let what =
                            format!("{op:?}, widen {widen}, values {v:#b}, {:?}", start.pins());
                        let mut expanded = start.clone();
                        assert!(expanded.expand(op, widen), "{what}");
                        expansions += 1;
                        let mut reference = start.clone();
                        let (amps, layout, entry) = reference.grow(mixed, widen);
                        let placed = op.place(layout);
                        placed.apply(amps, 0..amps.len(), entry.without(placed.mixed()));
                        assert!(expanded.pins_hold(), "{what}");
                        assert_eq!(
                            expanded.stored_len(),
                            start.stored_len() << bits.len(),
                            "{what}"
                        );
                        assert_eq!(expanded.stored_len(), reference.stored_len(), "{what}");
                        assert_same_bits(&expanded.amplitudes(), &reference.amplitudes(), &what);
                        // A mixed bit the buffer stores: no expansion.
                        let mut stored = reference.clone();
                        assert!(!stored.expand(op, widen), "{what}");
                        assert!(stored == reference);
                    }
                }
            }
        }
        // Two `Unitary1`s and 14 `Unitary2`s of the zoo, six Bell shapes;
        // two widths, two starts, every value of the mixed bits.
        assert_eq!(ops.len(), 2 + 14 + 6);
        assert_eq!(expansions, 2 * 2 * (2 * 2 + 20 * 4));
    }

    #[test]
    fn blocked_groups_of_block_kernels_have_the_dense_rows_bits() {
        // 17 qubits: more than a cache block, so the low kernels run
        // block by block in `worker_pass`'s blocked groups.
        let n = 17;
        let len = 1usize << n;
        let program = compile(&zz_layers(n));
        let low = |op: &&CompiledOp| op.is_block_diagonal() && op.mixed_bits() < 1 << 16;
        assert!(program.ops().iter().filter(low).count() >= 2 * 14);
        let mut rng = StdRng::seed_from_u64(25);
        let dense_start = crate::qrand::random_pure_state(n, &mut rng);
        let starts = [
            StateVector::new(n),
            StateVector::from_amplitudes(dense_start),
        ];
        for start in starts {
            let mut reference = start.amplitudes();
            for op in program.ops() {
                apply_dense(op, &mut reference, 0..len, Pins::NONE);
            }
            for workers in [1, 2] {
                let mut sv = start.clone();
                let mut rng = StdRng::seed_from_u64(0);
                if workers == 1 {
                    sv.apply_compiled(&program, &mut [], &mut rng);
                } else {
                    sv.apply_compiled_parallel(&program, &mut [], &mut rng, workers);
                }
                let what = format!("{} stored, {workers} workers", start.stored_len());
                assert_same_bits(&sv.amplitudes(), &reference, &what);
            }
        }
    }

    /// `lib-wide-sv`'s two-layer ZZ shape on `n` qubits, unmeasured.
    fn zz_layers(n: usize) -> Circuit {
        let mut c = Circuit::new(n, 0);
        for layer in 0..2 {
            for q in 0..n {
                c.rx(q, 0.3 + 0.05 * (q + layer) as f64);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
                c.rz(q + 1, 0.4 + 0.03 * q as f64);
                c.cx(q, q + 1);
            }
        }
        c
    }

    #[test]
    fn block_diagonal_means_exact_zeros_off_the_blocks() {
        // The 20-qubit ZZ shot: every fused kernel but the first of
        // each layer, whose `rx` on qubit 0 mixes along `mask_hi`.
        let program = compile(&zz_layers(20));
        let quads: Vec<usize> = (0..program.num_ops())
            .filter(|&i| matches!(program.ops()[i], CompiledOp::Unitary2 { .. }))
            .collect();
        assert_eq!(quads.len(), 38);
        let dense: Vec<usize> = quads
            .iter()
            .copied()
            .filter(|&i| !program.ops()[i].is_block_diagonal())
            .collect();
        assert_eq!(dense, [0, 19]);
        // No tolerance: one tiny entry whose row and column differ in
        // the `mask_hi` sub-index bit makes the matrix dense; inside a
        // block it changes nothing.
        for k in 0..16 {
            let mut matrix = zz4(8, 2);
            matrix[k] = Complex::new(1e-300, 0.0);
            let op = CompiledOp::Unitary2 {
                mask_hi: 8,
                mask_lo: 2,
                matrix,
            };
            let off_block = ((k / 4) ^ (k % 4)) & 2 != 0;
            assert_eq!(op.is_block_diagonal(), !off_block, "entry {k}");
        }
        assert!(!CompiledOp::Unitary1 {
            stride: 1,
            matrix: IDENTITY2,
        }
        .is_block_diagonal());
    }

    #[test]
    fn bytes_accounting_reflects_kernel_sparsity() {
        let len = 1usize << 10;
        let dense = CompiledOp::Unitary1 {
            stride: 1,
            matrix: mat2_of(&Gate::H(0)),
        };
        assert_eq!(dense.bytes_touched(len), 32 * len as u64);
        let swap = CompiledOp::PermuteSwap {
            ones: 0b10,
            select: 0b11,
            flip: 0b01,
        };
        // A quarter of the indices are representatives; each swap moves
        // two amplitudes (read + write both).
        assert_eq!(swap.bytes_touched(len), 64 * (len as u64 / 4));
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let p = compile(&c);
        assert_eq!(p.kernel_passes(), 1);
        assert_eq!(p.interp_ops(), 2);
        // One dense fused pass: exactly 32 bytes per amplitude.
        assert!((p.bytes_per_amp_pass(2) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn compile_via_simstate_is_the_statevector_program() {
        let mut c = Circuit::new(2, 1);
        c.h(0).cx(0, 1).measure(1, 0);
        let p = <StateVector as SimState>::compile(&c);
        assert_eq!(p, compile(&c));
        assert_eq!(crate::sim::SimProgram::num_qubits(&p), 2);
        assert_eq!(crate::sim::SimProgram::num_cbits(&p), 1);
    }
}
