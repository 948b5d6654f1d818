//! Shot-trace recording hooks.
//!
//! A [`TraceSink`] observes per-shot execution without participating in
//! it. There is no traced API: recording is a property of the engine
//! ([`Engine::with_trace`]), like amp engagement and metrics. Every
//! run that produces [`Counts`](crate::Counts) on a recording engine —
//! `Engine::run_plan` / `run_plan_range`, `Executor::sample_shots` /
//! `sample_shots_interpreted`, `Backend::sample_shots`,
//! `PreparedJob::run_range`, on the shot-parallel and the amp-parallel
//! arm alike — produces exactly the counts the plain engine produces,
//! bit for bit, at any thread count, and additionally delivers one
//! [`ShotRecord`] per executed shot to the sink. The generic folds
//! (`Executor::run_count*`, `Executor::run_tally`) have no `u64` record
//! to deliver and are not recorded. Workers buffer
//! records locally and flush in batches, so a sink sees each shot
//! exactly once but in no particular order; consumers that need shot
//! order sort by [`ShotRecord::shot`] (the `.cst` writer in
//! `crates/trace` does).
//!
//! The trait lives here — below every layer that records — so the
//! service, the shard workers, and the trace crate all record by
//! handing their engine a sink, without a dependency cycle.
//!
//! [`Engine::with_trace`]: crate::Engine::with_trace

use crate::seed::derive_stream_seed;
use std::sync::Mutex;
use std::time::Duration;

/// One executed shot, as observed by a [`TraceSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShotRecord {
    /// Global shot index within the job (`0..shots`).
    pub shot: u64,
    /// The packed classical register the shot produced (the same
    /// `pack_cbits` integer the tally is keyed by).
    pub record: u64,
    /// The shot's RNG stream id, `derive_stream_seed(root_seed, shot)`.
    /// Recorded rather than recomputed at read time so a regression in
    /// the seed-derivation function breaks golden traces loudly.
    pub stream: u64,
    /// Wall-clock nanoseconds the shot took on its worker (on the
    /// amp-parallel arm, the whole fork/join shot). Best-effort and
    /// nondeterministic; golden traces strip it.
    pub nanos: u64,
}

/// A consumer of [`ShotRecord`]s, attached to an engine with
/// [`Engine::with_trace`](crate::Engine::with_trace).
///
/// Implementations must be thread-safe: workers flush concurrently.
/// Each executed shot is delivered exactly once across all `record`
/// calls, in unspecified order. `record` runs on engine worker threads
/// — keep it cheap (append to a buffer; do I/O after the run).
pub trait TraceSink: Send + Sync {
    /// Delivers a batch of executed shots.
    fn record(&self, records: &[ShotRecord]);
}

/// A [`TraceSink`] that appends every record to an in-memory vector.
///
/// The collection point for `compas-record` and for tests: run on a
/// recording engine, then [`MemorySink::into_records`] (sorted by shot
/// index) feeds the `.cst` writer or the assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<ShotRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink poisoned").len()
    }

    /// Whether no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the sink, returning all records sorted by shot index.
    pub fn into_records(self) -> Vec<ShotRecord> {
        let mut records = self.records.into_inner().expect("sink poisoned");
        records.sort_unstable_by_key(|r| r.shot);
        records
    }

    /// Clones out all records sorted by shot index, leaving the sink
    /// usable (for shared `Arc<MemorySink>` collection points).
    pub fn snapshot(&self) -> Vec<ShotRecord> {
        let mut records = self.records.lock().expect("sink poisoned").clone();
        records.sort_unstable_by_key(|r| r.shot);
        records
    }
}

impl TraceSink for MemorySink {
    fn record(&self, records: &[ShotRecord]) {
        self.records
            .lock()
            .expect("sink poisoned")
            .extend_from_slice(records);
    }
}

/// Worker-local buffer of [`ShotRecord`]s, flushed to the sink in
/// batches so tracing never takes a lock per shot. Built over the
/// engine's optional sink: without one it holds nothing and every call
/// is a no-op.
pub(crate) struct TraceBuffer<'a> {
    sink: Option<&'a dyn TraceSink>,
    buf: Vec<ShotRecord>,
}

/// Records buffered per worker between sink flushes.
const FLUSH_CAPACITY: usize = 1024;

impl<'a> TraceBuffer<'a> {
    pub(crate) fn new(sink: Option<&'a dyn TraceSink>) -> Self {
        TraceBuffer {
            sink,
            buf: Vec::new(),
        }
    }

    /// Whether there is a sink — callers read the per-shot clock only
    /// then.
    pub(crate) fn recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Buffers shot `shot` of the job rooted at `root_seed`: its packed
    /// `record` and the wall time it took.
    pub(crate) fn push(&mut self, root_seed: u64, shot: u64, record: usize, elapsed: Duration) {
        if self.sink.is_none() {
            return;
        }
        self.buf.push(ShotRecord {
            shot,
            record: record as u64,
            stream: derive_stream_seed(root_seed, shot),
            nanos: elapsed.as_nanos() as u64,
        });
        if self.buf.len() >= FLUSH_CAPACITY {
            self.flush();
        }
    }

    pub(crate) fn flush(&mut self) {
        if let (Some(sink), false) = (self.sink, self.buf.is_empty()) {
            sink.record(&self.buf);
            self.buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::config::EngineConfig;
    use crate::executor::Executor;
    use crate::pool::{Engine, ShotPlan};
    use crate::seed::derive_stream_seed;
    use circuit::circuit::Circuit;
    use qsim::statevector::StateVector;
    use std::sync::Arc;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        c
    }

    /// Strips the nondeterministic timing field for comparisons.
    fn identity(records: &[ShotRecord]) -> Vec<(u64, u64, u64)> {
        records
            .iter()
            .map(|r| (r.shot, r.record, r.stream))
            .collect()
    }

    #[test]
    fn traced_plan_counts_match_untraced_and_records_are_complete() {
        let plan = ShotPlan::new(bell(), StateVector::new(2), 3_000, 17);
        for engine in [Engine::sequential(), Engine::with_threads(4)] {
            let sink = Arc::new(MemorySink::new());
            let traced = engine
                .clone()
                .with_trace(sink.clone())
                .run_plan_range(&plan, 0..3_000);
            assert_eq!(traced, engine.run_plan(&plan));
            let records = sink.snapshot();
            assert_eq!(records.len(), 3_000);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.shot, i as u64);
                assert_eq!(r.stream, derive_stream_seed(17, r.shot));
            }
            // The tally is exactly the histogram of the records.
            let mut histo = std::collections::HashMap::new();
            for r in &records {
                *histo.entry(r.record as usize).or_insert(0usize) += 1;
            }
            assert_eq!(histo, traced);
        }
    }

    #[test]
    fn traced_records_are_mode_invariant() {
        let c = bell();
        let initial = StateVector::new(2);
        let seq_sink = Arc::new(MemorySink::new());
        let seq = Executor::pooled(Engine::sequential().with_trace(seq_sink.clone()), 23)
            .sample_shots(&c, &initial, 2_000);
        let pooled_sink = Arc::new(MemorySink::new());
        let pooled = Executor::pooled(Engine::with_threads(4).with_trace(pooled_sink.clone()), 23)
            .sample_shots(&c, &initial, 2_000);
        assert_eq!(seq, pooled);
        assert_eq!(
            identity(&seq_sink.snapshot()),
            identity(&pooled_sink.snapshot())
        );
    }

    #[test]
    fn traced_ranges_union_to_the_full_record_set() {
        let plan = ShotPlan::new(bell(), StateVector::new(2), 1_000, 7);
        let full_sink = Arc::new(MemorySink::new());
        Engine::with_threads(3)
            .with_trace(full_sink.clone())
            .run_plan_range(&plan, 0..1_000);
        let sliced_sink = Arc::new(MemorySink::new());
        let engine = Engine::with_threads(3).with_trace(sliced_sink.clone());
        let mut start = 0;
        while start < 1_000 {
            let end = (start + 173).min(1_000);
            engine.run_plan_range(&plan, start..end);
            start = end;
        }
        assert_eq!(
            identity(&full_sink.snapshot()),
            identity(&sliced_sink.snapshot())
        );
    }

    #[test]
    fn backend_traced_counts_match_untraced_on_every_backend() {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1);
        c.push(circuit::circuit::Instruction::Depolarizing {
            qubits: vec![0],
            p: 0.1,
        });
        c.measure(0, 0).measure(1, 1);
        let exec = Executor::pooled(Engine::with_threads(2), 31);
        for b in [Backend::StateVector, Backend::Density] {
            let sink = Arc::new(MemorySink::new());
            let recording = Executor::pooled(Engine::with_threads(2).with_trace(sink.clone()), 31);
            let traced = b.sample_shots(&c, 500, &recording).unwrap();
            assert_eq!(traced, b.sample_shots(&c, 500, &exec).unwrap(), "{b}");
            assert_eq!(sink.len(), 500, "{b}");
        }
    }

    #[test]
    fn traced_amp_engaged_run_equals_traced_shot_parallel_run() {
        // Recording follows the amp policy like any other run: on a
        // dynamic non-Clifford circuit both arms deliver the same
        // (shot, record, stream) set, every index once, and the
        // untraced tallies.
        let mut c = Circuit::new(3, 3);
        c.h(0).t(0).cx(0, 1).measure(0, 0);
        c.cond_x(2, &[0]).reset(0).h(2).t(2).cx(1, 2);
        c.measure(1, 1).measure(2, 2);
        let initial = StateVector::new(3);
        let untraced = Executor::sequential(29).sample_shots(&c, &initial, 700);
        let shot_parallel = EngineConfig::with_threads(2).with_amp_threads(1);
        let amp = EngineConfig::with_threads(2)
            .with_amp_threads(2)
            .with_amp_threshold(0);
        assert!(Engine::new(amp.clone()).amp_engaged::<StateVector>(3));
        let record_sets = [amp, shot_parallel].map(|config| {
            let sink = Arc::new(MemorySink::new());
            let exec = Executor::pooled(Engine::new(config).with_trace(sink.clone()), 29);
            assert_eq!(exec.sample_shots(&c, &initial, 700), untraced);
            let records = sink.snapshot();
            assert_eq!(records.len(), 700);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.shot, i as u64, "every index exactly once");
                assert_eq!(r.stream, derive_stream_seed(29, r.shot));
            }
            identity(&records)
        });
        assert_eq!(record_sets[0], record_sets[1]);
    }
}
