//! Amplitude-level parallel replay of compiled statevector programs —
//! and the one replay driver behind the sequential replay too.
//!
//! Every other execution surface in the workspace parallelizes *across
//! shots*; one big statevector shot still sweeps its whole `2ⁿ`
//! amplitude buffer on a single core, so its latency is one thread's
//! memory bandwidth. This module splits **one shot** instead. A program
//! is cut at its interpretation points into kernel *segments*; within a
//! segment every worker walks the same *steps* with a barrier between
//! them (`worker_pass`):
//!
//! * a **kernel** is split by its *live* work units: each worker gets
//!   an even share of the units that agree with the pins in force when
//!   the kernel runs (`Placed::share`, whose full-register,
//!   nothing-pinned case is [`CompiledOp::worker_range`]) and applies
//!   the kernel to exactly those;
//! * a **blocked group** — two or more consecutive kernels that all
//!   stay inside one 1 MiB block of a larger buffer — runs block-major:
//!   each worker takes an even share of the live blocks and applies the
//!   whole group to one block, while it sits in L2, before the next.
//!   One pass over memory and one barrier for the group instead of one
//!   per kernel.
//!
//! The workers are the calling thread and parked helpers of the
//! execution pool ([`crate::pool`]), so a segment creates no thread.
//! [`StateVector::apply_compiled`] is this driver with one worker on
//! the calling thread (no helper), so a sequential wide shot is
//! blocked the same way.
//!
//! The workers run on the state's stored sub-cube (see
//! [`crate::statevector`]). At a segment's entry the calling thread
//! first applies the leading kernels that mix pinned bits alone by
//! expansion (`StateVector::expand`: the insertion writes their
//! products, not zeros). Then the state inserts, in place, every
//! pinned bit some kernel of the rest mixes — one resize, so no second
//! buffer — and hands the workers the buffer, the `Layout` that places
//! program masks into it (the width difference `widen` included), and
//! the inserted bits as *entry pins in buffer coordinates*: their
//! amplitudes off the entry values are still the insertion's zeros, so
//! a kernel that has not mixed them yet skips those units.
//!
//! ## Determinism
//!
//! The result is **bit-identical** to the sequential replay, at any
//! worker count, because
//!
//! * unitary kernels consume no randomness, and the arithmetic per work
//!   unit is independent of how units are grouped into ranges — a
//!   disjoint cover of `[0, 2ⁿ)` reproduces the full pass exactly (the
//!   [`CompiledOp::apply_range`] contract). Block-major order is that
//!   contract applied to a group: its kernels touch nothing outside the
//!   block they are applied to, so "all kernels on block A, then on
//!   block B" performs the same per-unit operations on the same values
//!   as "kernel 1 everywhere, then kernel 2";
//! * skipping the units the pins rule out is exact (see
//!   [`crate::statevector`]): they hold only zeros. Every worker folds
//!   the pins itself from the segment's entry pins — each kernel
//!   forgets its mixed bits before it runs — so all agree on them
//!   without sharing anything;
//! * [`CompiledOp::Interp`] points (measurement, reset, feedback,
//!   noise) run single-threaded on the orchestrating thread, consuming
//!   the shot's RNG stream in exactly the interpreted order, with their
//!   serial ascending sums untouched.
//!
//! So amp-parallel, sequential-compiled, and interpreted shots all
//! produce the same classical records per root seed, and the engine
//! engages this path purely as a latency policy (see
//! `engine::EngineConfig`), not as a new API.

use mathkit::complex::Complex;
use rand::Rng;
use std::sync::Barrier;

use crate::compile::{CompiledCircuit, CompiledOp};
use crate::sim::{SimProgram, SimState};
use crate::statevector::{Layout, Pins, StateVector};

/// Number of workers actually worth spawning for a `len`-amplitude
/// buffer: at least two amplitudes per worker, and never more workers
/// than requested threads.
pub fn effective_workers(threads: usize, len: usize) -> usize {
    threads.clamp(1, (len / 2).max(1))
}

/// Process-wide log₂-bucketed clock of per-step apply times on the
/// amp-parallel path.
///
/// Worker 0 times its own part of every step of a parallel replay that
/// gave it work (the workers run the same step between the same
/// barriers, so its time is representative) and records here — two
/// clock reads per *step*, invisible next to the amplitude sweep
/// itself. A step is one kernel, or one blocked group of kernels (one
/// sample for the whole group); a step whose live units all fell to
/// other workers — fewer units than workers, as for the first kernels
/// on a mostly pinned state — records nothing rather than a near-zero
/// time. The sequential replay records nothing. The engine
/// mirrors bucket deltas into its observability registry after each
/// amp-engaged shot; when two amp-engaged plans run concurrently in
/// one process their step times interleave in this accumulator,
/// which skews attribution across *histograms*, never results.
///
/// This lives outside the `obs` registry because `qsim` sits below it
/// in the crate stack; the bucket rule (`bucket(v)` covers
/// `[2^(b-1), 2^b)`, bucket 0 = `{0}`) matches `obs` exactly so
/// deltas mirror losslessly.
pub mod kernel_clock {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Fixed bucket count (covers the full `u64` range).
    pub const NUM_BUCKETS: usize = 64;

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static BUCKETS: [AtomicU64; NUM_BUCKETS] = [ZERO; NUM_BUCKETS];
    static SUM: AtomicU64 = AtomicU64::new(0);

    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(NUM_BUCKETS - 1)
        }
    }

    pub(super) fn record(ns: u64) {
        BUCKETS[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        SUM.fetch_add(ns, Ordering::Relaxed);
    }

    /// Point-in-time totals: per-bucket kernel counts plus the
    /// nanosecond sum. Monotone since process start — consumers keep
    /// their last-seen copy and mirror the delta.
    pub fn snapshot() -> ([u64; NUM_BUCKETS], u64) {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (b, cell) in BUCKETS.iter().enumerate() {
            buckets[b] = cell.load(Ordering::Relaxed);
        }
        (buckets, SUM.load(Ordering::Relaxed))
    }
}

/// Amplitudes per cache block of a blocked kernel group (see
/// [`worker_pass`]): 2¹⁶ × 16 B = 1 MiB, half of a 2 MiB L2. Measured
/// on a 20-qubit two-layer ZZ shot, 2¹³–2¹⁶ all read 51–52.5 ms
/// sequential and 28 ms on two workers against 57.5 / 32 ms unblocked,
/// and 2¹⁷ already loses on two workers; of the equals the largest
/// holds the most kernels per group (every kernel below qubit-bit 16).
const BLOCK: usize = 1 << 16;

/// Shared-buffer handle for the segment's workers. Safety rests on the
/// ownership contract of [`worker_pass`], not on this wrapper: see
/// `run_segment`.
struct SharedAmps {
    ptr: *mut Complex,
    len: usize,
}

// SAFETY: the pointer is only turned back into a slice under the
// disjoint-access argument spelled out in `run_segment`.
unsafe impl Send for SharedAmps {}
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    /// The whole buffer, mutably, once per worker.
    ///
    /// # Safety
    ///
    /// The callers' accesses through the returned slices must not
    /// overlap unless ordered by synchronisation, and the buffer must
    /// outlive them.
    #[allow(clippy::mut_from_ref)]
    unsafe fn amps(&self) -> &mut [Complex] {
        // SAFETY: `ptr`/`len` come from one live `&mut [Complex]`; the
        // rest is the caller's obligation above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl StateVector {
    /// Replays a compiled program with the live amplitude space of each
    /// kernel split across `threads` workers — the amp-parallel
    /// counterpart of [`StateVector::apply_compiled`], bit-identical to
    /// it (and to interpretation) for the same RNG stream at any
    /// thread count; see the module docs for why.
    ///
    /// Maximal runs of consecutive kernels execute as one fork/join
    /// segment with a barrier between its steps; each
    /// [`CompiledOp::Interp`] point runs on the calling thread.
    /// `threads <= 1` (or a buffer too small to split) is the
    /// sequential replay.
    ///
    /// # Panics
    ///
    /// Panics if the program was compiled for more qubits than this
    /// state has.
    pub fn apply_compiled_parallel(
        &mut self,
        program: &CompiledCircuit,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        let workers = effective_workers(threads, 1 << self.num_qubits());
        self.replay(program, 0, cbits, rng, workers);
    }

    /// The one replay driver, from op `from` of `program` on:
    /// interpretation points step on the calling thread, every maximal
    /// kernel run in between is a segment played by `workers` workers
    /// ([`worker_pass`]) — with one worker, by the calling thread
    /// itself. `from` is 0 for a whole shot and a noiseless prefix's
    /// `rest` for the shot that starts from its state.
    pub(crate) fn replay(
        &mut self,
        program: &CompiledCircuit,
        from: usize,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        workers: usize,
    ) {
        let widen = self.widen_for(program);
        let ops = program.ops();
        let mut at = from;
        while at < ops.len() {
            if let CompiledOp::Interp(instr) = &ops[at] {
                SimState::step(self, instr, cbits, rng);
                at += 1;
                continue;
            }
            at = self.kernels_from(ops, at, widen, workers);
        }
    }

    /// Plays the maximal kernel run that starts at op `at` of `program`
    /// (none if op `at` is an interpretation point) with `workers`
    /// workers, as [`StateVector::replay`] plays it, and returns the
    /// index of the op after it: the next interpretation point, or
    /// [`CompiledCircuit::num_ops`].
    pub(crate) fn run_to_interp(
        &mut self,
        program: &CompiledCircuit,
        at: usize,
        workers: usize,
    ) -> usize {
        let widen = self.widen_for(program);
        self.kernels_from(program.ops(), at, widen, workers)
    }

    /// [`StateVector::run_to_interp`] on `ops` with its masks shifted up
    /// by `widen`.
    fn kernels_from(
        &mut self,
        ops: &[CompiledOp],
        at: usize,
        widen: usize,
        workers: usize,
    ) -> usize {
        let end = ops[at..]
            .iter()
            .position(|op| matches!(op, CompiledOp::Interp(_)))
            .map_or(ops.len(), |len| at + len);
        if end > at {
            self.run_kernels(&ops[at..end], widen, workers);
        }
        end
    }

    /// The state the first `end` ops of `program` leave when none of
    /// their sites fires: every maximal kernel run among them played in
    /// order, as [`StateVector::replay`] plays it, and every
    /// interpretation point skipped, each run by `workers` workers. The
    /// noiseless prefix's state (see [`crate::sim`]), so the ops up to
    /// `end` must be kernels and `Depolarizing` sites only.
    pub(crate) fn replay_kernels(&mut self, program: &CompiledCircuit, end: usize, workers: usize) {
        let widen = self.widen_for(program);
        let ops = &program.ops()[..end];
        debug_assert!(
            end <= program.prefix_end(),
            "a prefix runs past a measurement"
        );
        for segment in ops.split(|op| matches!(op, CompiledOp::Interp(_))) {
            if !segment.is_empty() {
                self.run_kernels(segment, widen, workers);
            }
        }
    }

    /// How far the program's masks shift up to this state's width.
    fn widen_for(&self, program: &CompiledCircuit) -> usize {
        assert!(
            program.num_qubits() <= self.num_qubits(),
            "program needs {} qubits but the state has {}",
            program.num_qubits(),
            self.num_qubits()
        );
        self.num_qubits() - program.num_qubits()
    }

    /// Plays one maximal kernel run with `workers` workers. Its leading
    /// kernels on pinned bits alone are expansions, on the calling
    /// thread ([`StateVector::expand`]). Then the state inserts what
    /// the rest of the run mixes — each kernel judged against the pins
    /// the ones before it leave — and every worker starts from the
    /// inserted bits' entry values and folds the kernels' unpinning
    /// itself.
    fn run_kernels(&mut self, segment: &[CompiledOp], widen: usize, workers: usize) {
        let expanded = segment
            .iter()
            .take_while(|op| self.expand(op, widen))
            .count();
        let segment = &segment[expanded..];
        if segment.is_empty() {
            return;
        }
        let (grown, _) = segment.iter().fold((0, self.pins()), |(grown, pins), op| {
            let bits = op.grown_bits(widen, pins);
            (grown | bits, pins.without(bits))
        });
        let (amps, layout, entry) = self.grow(grown, widen);
        run_segment(amps, segment, layout, entry, workers);
    }
}

/// Plays one Interp-free kernel run with `workers` workers: the calling
/// thread is worker 0, the others are execution-pool helpers
/// ([`crate::pool::run`]), each its own thread, so every barrier is met.
fn run_segment(
    amps: &mut [Complex],
    ops: &[CompiledOp],
    layout: Layout,
    pins: Pins,
    workers: usize,
) {
    let shared = SharedAmps {
        ptr: amps.as_mut_ptr(),
        len: amps.len(),
    };
    let barrier = (workers > 1).then(|| Barrier::new(workers));
    crate::pool::run(workers, |worker| {
        // SAFETY: within one step of `worker_pass`, each worker touches
        // only the amplitudes of the work units (or blocks) its share
        // owns; the shares partition them, so the per-worker access
        // sets are disjoint. Across steps, the barrier orders every
        // write of one step before any read of the next. `pool::run`
        // returns only after every worker has, before `amps` is used
        // again.
        let amps = unsafe { shared.amps() };
        worker_pass(amps, ops, layout, pins, worker, workers, barrier.as_ref());
    });
}

/// Worker `worker`'s part of a kernel run, step by step, from the pins
/// (buffer coordinates) in force when the run starts. Every worker
/// walks the same steps and folds the same pins — each kernel forgets
/// its `Placed::mixed` bits before it runs — so nothing is
/// shared but the amplitudes and the barrier between steps. A step is
///
/// * a **kernel**: the worker applies it to its even share of the
///   kernel's *live* units (`Placed::share`); or
/// * a **blocked group**: a maximal run of ≥ 2 kernels whose mixed bits
///   all lie inside a [`BLOCK`] of a buffer larger than one. Such
///   kernels touch nothing outside the block they are applied to, so
///   by the [`CompiledOp::apply_range`] contract the group may run
///   block-major — all of it on one block, then the next — with the
///   result of the kernel-major order bit for bit, one pass over
///   memory instead of one per kernel, and one barrier. The worker
///   takes an even share of the *live* blocks, which the group cannot
///   change: it unpins no bit at or above the block.
///
/// Worker 0 of a parallel run clocks its steps into [`kernel_clock`];
/// the return value is the number of samples this call recorded there.
fn worker_pass(
    amps: &mut [Complex],
    ops: &[CompiledOp],
    layout: Layout,
    mut pins: Pins,
    worker: usize,
    workers: usize,
    barrier: Option<&Barrier>,
) -> usize {
    let len = amps.len();
    let mut samples = 0;
    let clocked = worker == 0 && barrier.is_some();
    let mut rest = ops;
    while !rest.is_empty() {
        let in_block = |op: &&CompiledOp| op.place(layout).mixed() < BLOCK;
        let blocked = if len > BLOCK {
            rest.iter().take_while(in_block).count()
        } else {
            0
        };
        let (step, after) = rest.split_at(blocked.max(1));
        let started = clocked.then(std::time::Instant::now);
        let mut worked = false;
        if let [op] = step {
            let op = op.place(layout);
            pins = pins.without(op.mixed());
            let range = op.share(worker, workers, len, pins);
            worked = !range.is_empty();
            op.apply(amps, range, pins);
        } else {
            let blocks = pins.without(BLOCK - 1);
            let share = blocks.share_of(0, BLOCK - 1, worker, workers, len);
            for block in blocks.runs_in(0, BLOCK - 1, share, len) {
                let mut pins = pins;
                for op in step {
                    let op = op.place(layout);
                    pins = pins.without(op.mixed());
                    op.apply(amps, block.start..block.start + BLOCK, pins);
                }
                worked = true;
            }
            pins = step
                .iter()
                .fold(pins, |pins, op| pins.without(op.place(layout).mixed()));
        }
        if let (Some(started), true) = (started, worked) {
            kernel_clock::record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            samples += 1;
        }
        rest = after;
        if let (Some(barrier), false) = (barrier, rest.is_empty()) {
            barrier.wait();
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::runner::run_program_into_from_prefix;
    use circuit::circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A non-Clifford dynamic circuit exercising every kernel kind plus
    /// mid-circuit interpretation points.
    fn mixed_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n, n);
        for q in 0..n {
            c.rx(q, 0.2 + 0.11 * q as f64);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.rz(q + 1, 0.5 + 0.07 * q as f64);
            c.cx(q, q + 1);
        }
        c.swap(0, n - 1).ccx(0, 1, n - 1).cz(1, 2);
        c.measure(0, 0);
        c.cond_x(n - 1, &[0]);
        c.reset(0);
        for q in 0..n {
            c.measure(q, q);
        }
        c
    }

    #[test]
    fn parallel_replay_is_bit_identical_to_sequential() {
        let c = mixed_circuit(6);
        let program = compile(&c);
        for seed in 0..25 {
            let mut seq = StateVector::new(6);
            let mut seq_bits = vec![false; 6];
            let mut rng = StdRng::seed_from_u64(seed);
            seq.apply_compiled(&program, &mut seq_bits, &mut rng);
            let seq_draw = rng.random::<u64>();
            for threads in [2, 3, 8] {
                let mut par = StateVector::new(6);
                let mut par_bits = vec![false; 6];
                let mut rng = StdRng::seed_from_u64(seed);
                par.apply_compiled_parallel(&program, &mut par_bits, &mut rng, threads);
                assert_eq!(par_bits, seq_bits, "seed {seed}, {threads} threads");
                assert_eq!(par, seq, "seed {seed}, {threads} threads");
                // Same number of RNG draws consumed.
                assert_eq!(rng.random::<u64>(), seq_draw);
            }
        }
    }

    #[test]
    fn parallel_replay_widens_onto_bigger_states() {
        let c = mixed_circuit(4);
        let program = compile(&c);
        for seed in 0..10 {
            let initial = StateVector::new(6);
            let mut seq = StateVector::new(0);
            let mut seq_bits = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed);
            crate::runner::run_program_into(&program, &initial, &mut seq, &mut seq_bits, &mut rng);
            let mut par = StateVector::new(0);
            let mut par_bits = Vec::new();
            let mut rng = StdRng::seed_from_u64(seed);
            run_program_into_from_prefix(
                &program,
                &initial,
                None,
                &mut par,
                &mut par_bits,
                &mut rng,
                4,
            );
            assert_eq!(par_bits, seq_bits, "seed {seed}");
            assert_eq!(par, seq, "seed {seed}");
        }
    }

    #[test]
    fn the_kernel_clock_samples_only_steps_that_did_work() {
        // One-step programs throughout, so a lone worker meets no
        // barrier; the count is what that call added to the clock.
        let barrier = Barrier::new(2);
        let pass = |amps: &mut [Complex], ops: &[CompiledOp], pins: Pins, worker: usize| {
            worker_pass(amps, ops, Layout::dense(0), pins, worker, 2, Some(&barrier))
        };
        // One live unit (every other bit pinned), two workers: one
        // share is empty, and an empty share is not a sample.
        let n = 6;
        let h = compile(Circuit::new(n, 0).h(2)).ops().to_vec();
        let basis = StateVector::basis_state(n, 0b010011);
        let mut amps = basis.amplitudes();
        let unpinned = basis.pins().without(h[0].mixed_bits());
        let shares: Vec<_> = (0..2)
            .map(|w| h[0].place(Layout::dense(0)).share(w, 2, 1 << n, unpinned))
            .collect();
        assert!(shares[0].is_empty() && !shares[1].is_empty(), "{shares:?}");
        let added: usize = (0..2).map(|w| pass(&mut amps, &h, basis.pins(), w)).sum();
        assert_eq!(added, 0);
        // Nothing pinned: worker 0 has work, and it alone keeps time.
        assert_eq!(pass(&mut amps, &h, Pins::NONE, 0), 1);
        assert_eq!(pass(&mut amps, &h, Pins::NONE, 1), 0);
        // A sequential replay keeps no time at all.
        assert_eq!(
            worker_pass(&mut amps, &h, Layout::dense(0), Pins::NONE, 0, 1, None),
            0
        );
        // A blocked group is one step, so one sample, however many
        // kernels and blocks it holds.
        let n = 18;
        let mut c = Circuit::new(n, 0);
        c.h(5).h(9).cx(9, 12).h(17);
        let group = compile(&c).ops().to_vec();
        assert!(group.len() >= 2 && group.iter().all(|op| op.mixed_bits() < BLOCK));
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        assert_eq!(pass(&mut amps, &group, Pins::NONE, 0), 1);
    }

    #[test]
    fn a_blocked_group_equals_its_kernels_one_by_one() {
        // Block-major ≡ kernel-major, on a state with pins above the
        // block (dead blocks), inside it, and none.
        let n = 18;
        let len = 1usize << n;
        let mut c = Circuit::new(n, 0);
        c.rx(4, 0.4)
            .cx(4, 9)
            .rz(9, 0.7)
            .cx(4, 9)
            .h(17)
            .cx(17, 16)
            .t(6);
        c.ccx(3, 10, 12)
            .ry(11, 1.1)
            .swap(5, 15)
            .cz(8, 13)
            .rx(16, 0.2);
        let group = compile(&c).ops().to_vec();
        assert!(group.len() >= 6 && group.iter().all(|op| op.mixed_bits() < BLOCK));
        let mixed = group.iter().fold(0, |m, op| m | op.mixed_bits());
        let mut rng = StdRng::seed_from_u64(31);
        let init = crate::qrand::random_pure_state(n, &mut rng);
        for trial in 0..4 {
            let mask = match trial {
                0 => 0,
                _ => rng.random::<u64>() as usize & (len - 1) & !mixed | (trial & 1) << 17,
            };
            let vals = rng.random::<u64>() as usize & mask;
            let pins = StateVector::basis_state(n, vals).pins().without(!mask);
            let start: Vec<Complex> = init
                .iter()
                .enumerate()
                .map(|(i, &a)| if i & mask == vals { a } else { Complex::ZERO })
                .collect();
            let mut one_by_one = start.clone();
            for op in &group {
                op.apply(&mut one_by_one, 0);
            }
            for workers in [1, 2, 3] {
                let mut amps = start.clone();
                run_segment(&mut amps, &group, Layout::dense(0), pins, workers);
                assert!(amps == one_by_one, "{pins:?}, {workers} workers");
            }
        }
    }

    /// A 17-qubit circuit, wider than a block: a first layer that
    /// starts from `|0…0⟩` (every kernel on a mostly pinned state), a
    /// mid-circuit measurement with feed-forward between two kernel
    /// segments, a second layer on the (almost) fully live state with
    /// every kernel kind above and inside the block, and terminal
    /// measurements.
    fn wide_circuit(n: usize) -> Circuit {
        let mut c = Circuit::new(n, n);
        let layer = |c: &mut Circuit, round: usize| {
            for q in 0..n {
                c.rx(q, 0.3 + 0.05 * (q + round) as f64);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
                c.rz(q + 1, 0.4 + 0.03 * q as f64);
                c.cx(q, q + 1);
            }
        };
        layer(&mut c, 0);
        c.measure(3, 3);
        c.cond_x(n - 2, &[3]);
        layer(&mut c, 1);
        c.ccx(0, 9, n - 1).cswap(2, 1, 12).t(4).cz(0, 7).cz(5, 11);
        c.h(n - 1).swap(6, n - 1).cx(n - 1, 0);
        c.ry(0, 0.8).ry(n - 1, 1.3);
        for q in 0..n {
            c.measure(q, q);
        }
        c
    }

    #[test]
    fn wide_parallel_replay_equals_sequential_equals_kernel_by_kernel() {
        let n = 17;
        let program = compile(&wide_circuit(n));
        let blocked = |op: &&CompiledOp| !matches!(op, CompiledOp::Interp(_));
        assert!(
            program.ops().iter().filter(blocked).count() > 2 * n,
            "the circuit must keep many kernels: {}",
            program.num_ops()
        );
        // `width` 18 replays the 17-qubit program on a wider state:
        // every mask shifts up by one, the new low bit stays pinned.
        for (width, seed) in [(17, 7u64), (18, 8)] {
            let widen = width - n;
            // The reference: every kernel a full-register
            // `CompiledOp::apply` on the raw amplitudes, nothing pinned.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bits = vec![false; n];
            let mut reference = StateVector::new(width).amplitudes();
            for op in program.ops() {
                match op {
                    CompiledOp::Interp(instr) => {
                        let mut sv = StateVector::from_amplitudes(std::mem::take(&mut reference));
                        SimState::step(&mut sv, instr, &mut bits, &mut rng);
                        reference = sv.amplitudes();
                    }
                    kernel => kernel.apply(&mut reference, widen),
                }
            }
            let reference_draw = rng.random::<u64>();

            for workers in [1, 2, 3] {
                let mut sv = StateVector::new(width);
                let mut sv_bits = vec![false; n];
                let mut rng = StdRng::seed_from_u64(seed);
                if workers == 1 {
                    sv.apply_compiled(&program, &mut sv_bits, &mut rng);
                } else {
                    sv.apply_compiled_parallel(&program, &mut sv_bits, &mut rng, workers);
                }
                assert!(sv.pins_hold(), "{width} qubits, {workers} workers");
                assert!(
                    sv.amplitudes() == reference,
                    "{width} qubits, {workers} workers: amplitudes differ"
                );
                assert_eq!(sv_bits, bits, "{width} qubits, {workers} workers");
                assert_eq!(rng.random::<u64>(), reference_draw);
            }
        }
    }

    #[test]
    fn degenerate_thread_counts_fall_back_to_sequential() {
        let c = mixed_circuit(3);
        let program = compile(&c);
        let mut a = StateVector::new(3);
        let mut b = StateVector::new(3);
        let mut bits_a = vec![false; 3];
        let mut bits_b = vec![false; 3];
        a.apply_compiled(&program, &mut bits_a, &mut StdRng::seed_from_u64(5));
        b.apply_compiled_parallel(&program, &mut bits_b, &mut StdRng::seed_from_u64(5), 1);
        assert_eq!(a, b);
        assert_eq!(bits_a, bits_b);
        assert_eq!(effective_workers(0, 64), 1);
        assert_eq!(effective_workers(8, 4), 2);
        assert_eq!(effective_workers(8, 1), 1);
    }
}
