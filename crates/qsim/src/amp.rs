//! Amplitude-level parallel replay of compiled statevector programs.
//!
//! Every other execution surface in the workspace parallelizes *across
//! shots*; one big statevector shot still sweeps its whole `2ⁿ`
//! amplitude buffer on a single core, so its latency is one thread's
//! memory bandwidth. This module splits **one shot** instead: the
//! amplitude index space is partitioned across workers per kernel via
//! [`CompiledOp::worker_range`], every worker applies the kernel to the
//! work units its range owns through [`CompiledOp::apply_range`], and a
//! barrier separates consecutive kernels.
//!
//! ## Determinism
//!
//! The result is **bit-identical** to the sequential replay, at any
//! worker count, because
//!
//! * unitary kernels consume no randomness, and the arithmetic per work
//!   unit is independent of how units are grouped into ranges — a
//!   disjoint cover of `[0, 2ⁿ)` reproduces the full pass exactly (the
//!   [`CompiledOp::apply_range`] contract);
//! * [`CompiledOp::Interp`] points (measurement, reset, feedback,
//!   noise) run single-threaded on the orchestrating thread, consuming
//!   the shot's RNG stream in exactly the interpreted order.
//!
//! The workers ignore the state's pinned bits (see
//! [`crate::statevector`]): before a segment the state forgets the
//! pins on the union of the bits its kernels mix, and the kernels run
//! as full-register ranges. Interpretation points between segments use
//! the pins that remain.
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
use crate::statevector::StateVector;

/// Number of workers actually worth spawning for a `len`-amplitude
/// buffer: at least two amplitudes per worker, and never more workers
/// than requested threads.
pub fn effective_workers(threads: usize, len: usize) -> usize {
    threads.clamp(1, (len / 2).max(1))
}

/// Process-wide log₂-bucketed clock of per-kernel apply times on the
/// amp-parallel path.
///
/// Worker 0 times its own [`CompiledOp::apply_range`] for every kernel
/// (the workers run the same kernel between the same barriers, so its
/// time is representative) and records here — two clock reads per
/// *kernel*, invisible next to the amplitude sweep itself. The engine
/// mirrors bucket deltas into its observability registry after each
/// amp-engaged shot; when two amp-engaged plans run concurrently in
/// one process their kernel times interleave in this accumulator,
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

/// Shared-buffer handle for the scoped workers. Safety rests on the
/// range-ownership contract, not on this wrapper: see `run_segment`.
struct SharedAmps {
    ptr: *mut Complex,
    len: usize,
}

unsafe impl Send for SharedAmps {}
unsafe impl Sync for SharedAmps {}

impl StateVector {
    /// Replays a compiled program with the amplitude space of each
    /// kernel split across `threads` workers — the amp-parallel
    /// counterpart of [`StateVector::apply_compiled`], bit-identical to
    /// it (and to interpretation) for the same RNG stream at any
    /// thread count; see the module docs for why.
    ///
    /// Maximal runs of consecutive kernels execute as one fork/join
    /// segment with a barrier between kernels; each
    /// [`CompiledOp::Interp`] point runs on the calling thread.
    /// `threads <= 1` (or a buffer too small to split) degrades to the
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
        assert!(
            program.num_qubits() <= self.num_qubits(),
            "program needs {} qubits but the state has {}",
            program.num_qubits(),
            self.num_qubits()
        );
        let workers = effective_workers(threads, 1 << self.num_qubits());
        if workers <= 1 {
            return self.apply_compiled(program, cbits, rng);
        }
        let widen = self.num_qubits() - program.num_qubits();
        let ops = program.ops();
        let mut at = 0;
        while at < ops.len() {
            if let CompiledOp::Interp(instr) = &ops[at] {
                SimState::step(self, instr, cbits, rng);
                at += 1;
            } else {
                let seg_len = ops[at..]
                    .iter()
                    .position(|op| matches!(op, CompiledOp::Interp(_)))
                    .unwrap_or(ops.len() - at);
                let segment = &ops[at..at + seg_len];
                // The workers run full-register passes; the state only
                // has to forget the pins the segment invalidates.
                let mixed = segment.iter().fold(0, |m, op| m | op.mixed_bits());
                run_segment(
                    self.amps_mut_unpinning(mixed << widen),
                    segment,
                    widen,
                    workers,
                );
                at += seg_len;
            }
        }
    }
}

/// Forks `workers` scoped threads over one Interp-free kernel run.
fn run_segment(amps: &mut [Complex], ops: &[CompiledOp], widen: usize, workers: usize) {
    let len = amps.len();
    let shared = SharedAmps {
        ptr: amps.as_mut_ptr(),
        len,
    };
    let barrier = Barrier::new(workers);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let shared = &shared;
            let barrier = &barrier;
            scope.spawn(move || {
                // SAFETY: within one kernel, each worker touches only
                // the amplitudes of the work units its `worker_range`
                // owns; the ranges partition the unit set, so the
                // per-worker access sets are disjoint. Across kernels,
                // the barrier orders every write of kernel k before
                // any read of kernel k+1. The scope joins all workers
                // before `amps` is used again.
                let amps = unsafe { std::slice::from_raw_parts_mut(shared.ptr, shared.len) };
                for (k, op) in ops.iter().enumerate() {
                    let range = op.worker_range(worker, workers, len, widen);
                    if worker == 0 {
                        let started = std::time::Instant::now();
                        op.apply_range(amps, range.start, range.end, widen);
                        kernel_clock::record(
                            u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    } else {
                        op.apply_range(amps, range.start, range.end, widen);
                    }
                    if k + 1 < ops.len() {
                        barrier.wait();
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::runner::run_program_into_parallel;
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
            run_program_into_parallel(&program, &initial, &mut par, &mut par_bits, &mut rng, 4);
            assert_eq!(par_bits, seq_bits, "seed {seed}");
            assert_eq!(par, seq, "seed {seed}");
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
