//! Coordinator-side helpers for multi-machine sharding.
//!
//! A shard coordinator serves a job by splitting its global shot range
//! across N downstream workers and merging their tallies. Both halves
//! of that contract live here, next to the ranged primitives whose
//! guarantee they lean on ([`Engine::run_plan_range`],
//! [`PreparedJob::run_range`]): because
//! shot `i`'s RNG stream is a pure function of `(root_seed, i)`,
//! executing [`partition_shots`]' sub-ranges on *any* machines and
//! folding them back with [`merge_counts`] is **bit-identical** to one
//! uninterrupted local run — re-dispatching a lost range after a worker
//! death is free, with no partial-state reconciliation.
//!
//! [`Engine::run_plan_range`]: crate::Engine::run_plan_range
//! [`PreparedJob::run_range`]: crate::PreparedJob::run_range

use crate::pool::Counts;
use std::ops::Range;

/// Splits the global shot indices `range` into at most `parts`
/// contiguous, non-empty sub-ranges of near-equal size (sizes differ by
/// at most one shot).
///
/// The split is a pure function of `(range, parts)`, so a coordinator
/// that re-partitions after a topology change still assigns every shot
/// index exactly once — the determinism contract cares only that the
/// sub-ranges partition `range`, not who executes them.
///
/// `parts == 0` is treated as 1; an empty `range` yields no sub-ranges.
pub fn partition_shots(range: Range<u64>, parts: usize) -> Vec<Range<u64>> {
    let total = range.end.saturating_sub(range.start);
    let parts = (parts.max(1) as u64).min(total.max(1));
    (0..parts)
        .map(|i| (range.start + i * total / parts)..(range.start + (i + 1) * total / parts))
        .filter(|r| !r.is_empty())
        .collect()
}

/// Folds one sub-range's tallies into the accumulated counts.
///
/// Merging is commutative and associative, so sub-results may arrive in
/// any order (including a re-dispatched replacement for a lost range)
/// and the final histogram is independent of completion order.
pub fn merge_counts(acc: &mut Counts, part: Counts) {
    for (outcome, n) in part {
        *acc.entry(outcome).or_insert(0) += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{Engine, ShotPlan};
    use circuit::circuit::Circuit;
    use qsim::statevector::StateVector;

    #[test]
    fn partition_covers_the_range_exactly_once() {
        for (range, parts) in [
            (0..1000u64, 4usize),
            (0..7, 3),
            (5..5, 4),
            (3..17, 1),
            (0..3, 8),
            (10..1010, 0),
        ] {
            let chunks = partition_shots(range.clone(), parts);
            // Contiguous, in order, covering the range exactly.
            let mut cursor = range.start;
            for chunk in &chunks {
                assert_eq!(chunk.start, cursor, "{range:?}/{parts}: gap or overlap");
                assert!(chunk.end > chunk.start, "{range:?}/{parts}: empty chunk");
                cursor = chunk.end;
            }
            assert_eq!(cursor, range.end.max(range.start));
            assert!(chunks.len() <= parts.max(1));
            // Near-equal sizes: max - min ≤ 1.
            if let (Some(min), Some(max)) = (
                chunks.iter().map(|c| c.end - c.start).min(),
                chunks.iter().map(|c| c.end - c.start).max(),
            ) {
                assert!(max - min <= 1, "{range:?}/{parts}: skewed {chunks:?}");
            }
        }
    }

    #[test]
    fn partitioned_ranged_runs_merge_to_the_full_run() {
        // The sharding correctness condition end to end: any worker
        // count reproduces the single-machine tallies bit-identically.
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2);
        for q in 0..3 {
            c.measure(q, q);
        }
        let plan = ShotPlan::new(c, StateVector::new(3), 999, 41);
        let engine = Engine::sequential();
        let full = engine.run_plan(&plan);
        for workers in [1usize, 2, 4, 7] {
            let mut merged = Counts::new();
            for chunk in partition_shots(0..999, workers) {
                merge_counts(&mut merged, engine.run_plan_range(&plan, chunk));
            }
            assert_eq!(merged, full, "{workers} shards diverged from 1 machine");
        }
    }

    #[test]
    fn zero_shot_ranges_partition_to_nothing() {
        // An empty job must produce no work units, at any worker count
        // (including the degenerate `parts == 0`).
        for parts in [0usize, 1, 2, 16] {
            assert!(partition_shots(0..0, parts).is_empty(), "parts {parts}");
            assert!(partition_shots(42..42, parts).is_empty(), "parts {parts}");
        }
    }

    #[test]
    fn fewer_shots_than_workers_yields_single_shot_ranges() {
        // 3 shots over 8 workers: exactly 3 one-shot ranges, no empty
        // assignments — a worker is never handed a vacuous request.
        let chunks = partition_shots(100..103, 8);
        assert_eq!(chunks, vec![100..101, 101..102, 102..103]);
        // One shot over many workers: one range, one shot.
        assert_eq!(partition_shots(7..8, 64), vec![7..8]);
    }

    #[test]
    fn single_shot_ranges_enumerate_the_job() {
        // Partitioning n shots into n parts is the finest split: every
        // range is one shot, in order, covering the job exactly.
        let chunks = partition_shots(10..20, 10);
        assert_eq!(chunks.len(), 10);
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(*chunk, (10 + i as u64)..(11 + i as u64));
        }
    }

    #[test]
    fn merge_is_associative_across_arbitrary_partitions() {
        // Fold the same per-range tallies in different groupings and
        // orders; every shape must agree — the property that makes
        // re-dispatch and out-of-order completion safe.
        let plan = ShotPlan::new(
            {
                let mut c = Circuit::new(2, 2);
                c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
                c
            },
            StateVector::new(2),
            500,
            9,
        );
        let engine = Engine::sequential();
        let parts: Vec<Counts> = partition_shots(0..500, 7)
            .into_iter()
            .map(|r| engine.run_plan_range(&plan, r))
            .collect();
        // Left fold.
        let mut left = Counts::new();
        for p in &parts {
            merge_counts(&mut left, p.clone());
        }
        // Right-to-left fold.
        let mut right = Counts::new();
        for p in parts.iter().rev() {
            merge_counts(&mut right, p.clone());
        }
        assert_eq!(left, right);
        // Pairwise tree fold: ((p0+p1) + (p2+p3)) + ...
        let mut tree: Vec<Counts> = parts.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut acc = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    merge_counts(&mut acc, b.clone());
                }
                next.push(acc);
            }
            tree = next;
        }
        assert_eq!(tree.pop().unwrap(), left);
        assert_eq!(left, engine.run_plan(&plan), "merged ≠ unpartitioned run");
    }

    #[test]
    fn merge_counts_is_order_independent() {
        let a: Counts = [(0usize, 3usize), (1, 2)].into_iter().collect();
        let b: Counts = [(1usize, 5usize), (7, 1)].into_iter().collect();
        let mut ab = a.clone();
        merge_counts(&mut ab, b.clone());
        let mut ba = b;
        merge_counts(&mut ba, a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get(&1), Some(&7));
    }
}
