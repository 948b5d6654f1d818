//! The shard coordinator: scatter, gather, re-dispatch, respond.
//!
//! A [`Coordinator`] is a [`JobBackend`] behind the same
//! `service::frontend` as a single-machine server — same reactor, same
//! handler, same submitter pool, so clients cannot tell the difference
//! from the bytes — but instead of executing jobs it partitions each
//! admitted job's global shot range (`engine::partition_shots`) across
//! its live workers, dispatches the sub-ranges as `shot_range`
//! requests, and merges the returned tallies (`engine::merge_counts`).
//!
//! ## Why failure handling is trivial
//!
//! Shot `i`'s RNG stream is a pure function of `(root_seed, i)` — not
//! of which worker ran it, when, or after how many attempts. So when a
//! worker dies holding a range, the coordinator simply sends the same
//! range to a survivor: **the re-dispatched execution is bit-identical
//! to the one that was lost**, and the merged job is bit-identical to
//! an uninterrupted single-machine `Backend::sample_shots` run. There
//! is no partial-state reconciliation because there is no partial
//! state worth keeping.
//!
//! ## Robustness layers
//!
//! * **Heartbeats** — a background thread `stats`-probes every worker
//!   each `heartbeat_interval`; a worker that stops answering is
//!   marked dead, skipped by dispatch, and revived by a later
//!   successful probe. On shutdown the same thread forwards the
//!   `shutdown` to the workers (`propagate_shutdown`), never the
//!   reactor thread.
//! * **Re-dispatch** — a range whose dispatch fails (dead worker, I/O
//!   timeout, error response) moves to the next live worker, bounded
//!   by `redispatch_limit` attempts.
//! * **Backpressure** — admission rejects with `busy` when the job
//!   table is full or every live worker is at its in-flight bound;
//!   `busy` answers *from workers* are waited out with the worker's
//!   own hint.
//!
//! Coalescing and result caching reuse the `service` building blocks
//! ([`service::cache`], [`service::admit`]), so identical concurrent
//! jobs scatter once and repeats are served from coordinator memory.

use crate::worker::{Dispatch, PoolConfig, WorkerPool};
use engine::{merge_counts, partition_shots, Counts};
use reactor::ReactorConfig;
use service::cache::{CacheKey, DiskCacheConfig, ResultCache};
use service::frontend::{busy, ok_response, ServiceCounters, Waiter};
use service::{
    admit, Frontend, FrontendHandle, JobBackend, Request, Responder, Response, RunRequest,
    ServiceStats, WorkerRow, MAX_LINE_BYTES,
};
use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Everything [`Coordinator::spawn`] needs to know.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Bind address for clients; port 0 picks an ephemeral port.
    pub addr: String,
    /// Downstream worker addresses (`host:port` each).
    pub workers: Vec<String>,
    /// Maximum in-flight jobs before `busy` rejections.
    pub queue_capacity: usize,
    /// Coordinator-side result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Optional disk spill directory for the coordinator's result
    /// cache: completed (merged) results persist across restarts.
    pub cache_dir: Option<PathBuf>,
    /// Size bound for the disk spill (bytes). Ignored without
    /// `cache_dir`.
    pub cache_disk_bytes: u64,
    /// Budget for one ranged dispatch round trip; a worker that holds
    /// a range longer has failed it.
    pub io_timeout: Duration,
    /// Delay between heartbeat sweeps over the workers.
    pub heartbeat_interval: Duration,
    /// Most failed dispatch attempts per range before the job errors.
    pub redispatch_limit: usize,
    /// Most concurrently dispatched ranges per worker.
    pub max_inflight_per_worker: usize,
    /// Close client connections idle longer than this.
    pub idle_timeout: Duration,
    /// Most simultaneous client connections the reactor serves.
    pub max_connections: usize,
    /// Whether a wire `shutdown` (or [`CoordinatorHandle::shutdown`])
    /// is forwarded to the workers. Off by default so in-process tests
    /// can keep their workers; the `compas-serve --coordinator` binary
    /// turns it on.
    pub propagate_shutdown: bool,
    /// Observability registry. When set, the coordinator exports its
    /// `stats` counters (`shard.sched.*`, `shard.cache.{hits,misses}`)
    /// and times its own stages (`stage.parse`, `stage.merge`, and the
    /// front end's `stage.encode`), the worker pool times
    /// dispatch round trips (`shard.dispatch`,
    /// `shard.worker.<addr>.dispatch`, `shard.redispatches`), the
    /// reactor publishes its connection gauges, and the wire `metrics`
    /// op answers with the coordinator's snapshot merged with a fresh
    /// snapshot from every live worker — the topology-wide view.
    /// Without one, the counters and timers are kept but not exported.
    pub metrics: Option<obs::Registry>,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        let reactor = ReactorConfig::default();
        CoordinatorConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            queue_capacity: 32,
            cache_capacity: 256,
            cache_dir: None,
            cache_disk_bytes: 64 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(500),
            redispatch_limit: 4,
            max_inflight_per_worker: 8,
            idle_timeout: reactor.idle_timeout,
            max_connections: reactor.max_connections,
            propagate_shutdown: false,
            metrics: None,
        }
    }
}

struct Inner {
    jobs: HashMap<CacheKey, Vec<Waiter>>,
    cache: ResultCache,
}

/// The shard coordinator: a [`JobBackend`] that scatters each admitted
/// job over the worker pool and merges the tallies.
/// [`Coordinator::spawn`] serves it behind the `service` front end.
pub struct Coordinator {
    config: CoordinatorConfig,
    pool: WorkerPool,
    inner: Mutex<Inner>,
    stopping: AtomicBool,
    /// The `stats` counters, under the `shard.` prefix so the
    /// topology-wide `metrics` merge keeps them apart from the
    /// workers' own.
    counters: ServiceCounters,
    parse: obs::Histo,
    merge: obs::Histo,
}

/// Owner of a running coordinator's threads.
pub type CoordinatorHandle = FrontendHandle<Coordinator>;

impl Coordinator {
    /// Binds `config.addr`, probes the workers once so the live set is
    /// warm, starts the heartbeat thread, and serves the coordinator
    /// through [`Frontend::spawn`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind/local_addr).
    pub fn spawn(config: CoordinatorConfig) -> std::io::Result<CoordinatorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let reactor = ReactorConfig {
            max_line_bytes: MAX_LINE_BYTES,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            metrics: config.metrics.clone(),
            ..ReactorConfig::default()
        };
        let coordinator = Arc::new(Coordinator::new(config));
        coordinator.pool.probe_all();
        let heartbeat = {
            let coordinator = coordinator.clone();
            std::thread::Builder::new()
                .name("shard-heartbeat".to_string())
                .spawn(move || coordinator.heartbeat())
                .expect("spawn heartbeat")
        };
        Frontend::spawn(listener, reactor, coordinator, vec![heartbeat])
    }

    /// The backend alone: worker pool (not yet probed) and cache.
    fn new(config: CoordinatorConfig) -> Coordinator {
        let pool = WorkerPool::new(
            config.workers.clone(),
            PoolConfig {
                io_timeout: config.io_timeout,
                max_inflight: config.max_inflight_per_worker,
                metrics: config.metrics.clone(),
                ..PoolConfig::default()
            },
        );
        let cache = match config.cache_dir.clone() {
            Some(dir) => ResultCache::with_disk(
                config.cache_capacity,
                DiskCacheConfig {
                    dir,
                    max_bytes: config.cache_disk_bytes,
                },
            ),
            None => ResultCache::new(config.cache_capacity),
        };
        let registry = config.metrics.as_ref();
        let histo = |name: &str| registry.map_or_else(obs::Histo::new, |r| r.histo(name));
        Coordinator {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                cache,
            }),
            pool,
            stopping: AtomicBool::new(false),
            counters: ServiceCounters::new(registry, "shard."),
            parse: histo("stage.parse"),
            merge: histo("stage.merge"),
            config,
        }
    }

    /// The heartbeat thread: probes every worker each
    /// `heartbeat_interval` until shutdown, then forwards the shutdown
    /// to the workers when `propagate_shutdown` is set. Forwarding here
    /// keeps worker round trips off the reactor thread that received
    /// the `shutdown`; `join` and `shutdown` wait for this thread, so
    /// the teardown stays one-shot.
    fn heartbeat(&self) {
        while !self.stopping.load(Ordering::SeqCst) {
            self.pool.probe_all();
            // Sleep in short slices so shutdown is prompt even under
            // long heartbeat intervals.
            let mut remaining = self.config.heartbeat_interval;
            while !remaining.is_zero() && !self.stopping.load(Ordering::SeqCst) {
                let step = remaining.min(Duration::from_millis(50));
                std::thread::sleep(step);
                remaining -= step;
            }
        }
        if self.config.propagate_shutdown {
            self.pool.shutdown_all();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("coordinator poisoned")
    }

    /// The admission path: cache hit, coalesce, reject, or scatter.
    /// `Some` is an immediate response (`responder` untouched); `None`
    /// means the request was queued or joined and `responder` was
    /// consumed.
    fn submit_core(
        self: &Arc<Self>,
        id: Option<String>,
        run: &RunRequest,
        responder: &mut Option<Responder>,
    ) -> Option<Response> {
        // Validation is shared with the single-machine scheduler
        // (`service::admit`), then tightened with the capability probe:
        // rejecting unexecutable circuits *here* means any `error` a
        // worker later answers is evidence of worker failure, so the
        // re-dispatch loop can treat it as such.
        let parse_started = std::time::Instant::now();
        let admitted = admit(run).and_then(|a| {
            a.resolved
                .supports(&a.circuit)
                .map_err(|e| e.to_string())
                .map(|()| a)
        });
        self.parse.record_duration(parse_started.elapsed());
        let counters = &self.counters;
        counters.received.inc();
        let admitted = match admitted {
            Ok(admitted) => admitted,
            Err(error) => {
                counters.errors.inc();
                return Some(Response::Error { id, error });
            }
        };
        // Workers receive the *canonical* text the coordinator already
        // validated — not the client's raw bytes. One admission pass
        // per job: each sub-request re-parses downstream, but parses
        // pre-validated canonical output (guaranteed to reproduce
        // `key.circuit_fp`), never arbitrary client input per shard.
        // The client identity is *not* forwarded: the coordinator is
        // the admission boundary, workers see one peer.
        let canonical = admitted.canonical;
        let key = admitted.key;

        let mut inner = self.lock();
        if let Some(tallies) = inner.cache.get(&key) {
            counters.cache_hits.inc();
            return Some(ok_response(id, &key, tallies, true, false));
        }
        if let Some(waiters) = inner.jobs.get_mut(&key) {
            waiters.push(Waiter {
                responder: responder.take().expect("responder available to join"),
                id,
                coalesced: true,
            });
            counters.coalesced.inc();
            return None;
        }
        if self.stopping.load(Ordering::SeqCst) {
            counters.errors.inc();
            return Some(Response::Error {
                id,
                error: "coordinator is shutting down".to_string(),
            });
        }
        if self.pool.live() == 0 {
            counters.errors.inc();
            return Some(Response::Error {
                id,
                error: "no live workers".to_string(),
            });
        }
        if inner.jobs.len() >= self.config.queue_capacity || !self.pool.has_capacity() {
            counters.rejected_busy.inc();
            return Some(busy(id, (inner.jobs.len() as u64).max(1)));
        }
        counters.cache_misses.inc();
        if key.shots == 0 {
            counters.completed.inc();
            return Some(ok_response(id, &key, Counts::new(), false, false));
        }
        inner.jobs.insert(
            key.clone(),
            vec![Waiter {
                responder: responder.take().expect("responder available to enqueue"),
                id,
                coalesced: false,
            }],
        );
        drop(inner);

        // Scatter-gather runs on its own thread; every waiter's
        // responder fires from `complete` when the merge lands.
        let coordinator = self.clone();
        let qasm = canonical;
        let _ = std::thread::Builder::new()
            .name("shard-job".to_string())
            .spawn(move || {
                let result = coordinator.scatter_gather(&key, &qasm);
                coordinator.complete(&key, result);
            });
        None
    }

    /// Partitions the job's global range over the live workers, runs
    /// every sub-range (re-dispatching on failure), and merges.
    fn scatter_gather(&self, key: &CacheKey, qasm: &str) -> Result<Counts, String> {
        let parts = partition_shots(key.range(), self.pool.live().max(1));
        let results: Vec<Result<Counts, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .iter()
                .map(|range| scope.spawn(move || self.run_range(key, qasm, range.clone())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("range thread"))
                .collect()
        });
        let merge_started = std::time::Instant::now();
        let mut merged = Counts::new();
        for result in results {
            merge_counts(&mut merged, result?);
        }
        self.merge.record_duration(merge_started.elapsed());
        Ok(merged)
    }

    /// Executes one sub-range to completion: dispatch, wait out `busy`
    /// hints, and re-dispatch to a survivor on failure. Determinism
    /// makes the retry free — any worker, any attempt, same tallies.
    fn run_range(&self, key: &CacheKey, qasm: &str, range: Range<u64>) -> Result<Counts, String> {
        let request = Request::run(
            None,
            RunRequest::new(qasm, 0, key.root_seed, key.backend)
                .with_shot_range(range.start, range.end),
        );
        let mut failed: HashSet<usize> = HashSet::new();
        let mut redispatches = 0usize;
        let mut last_error = String::new();
        while redispatches <= self.config.redispatch_limit {
            if self.stopping.load(Ordering::SeqCst) {
                return Err("coordinator is shutting down".to_string());
            }
            let Some(idx) = self.pool.acquire(&failed) else {
                // Nothing usable right now. If a non-excluded worker
                // exists it may just be saturated — yield and retry;
                // otherwise the range is truly stranded.
                if self.pool.live() == 0 || failed.len() >= self.pool.len() {
                    return Err(format!(
                        "shot range [{}, {}) has no live worker left{}",
                        range.start,
                        range.end,
                        if last_error.is_empty() {
                            String::new()
                        } else {
                            format!(" (last failure: {last_error})")
                        }
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            let outcome = self.pool.dispatch(idx, &request);
            self.pool.release(idx);
            match outcome {
                Dispatch::Ok(counts) => return Ok(counts),
                Dispatch::Busy { retry_after_ms } => {
                    // The worker is healthy, just saturated: honor its
                    // hint (capped) and try again without penalty.
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 200)));
                }
                Dispatch::Failed(error) => {
                    self.pool.note_redispatch(idx);
                    failed.insert(idx);
                    redispatches += 1;
                    last_error = error;
                }
            }
        }
        Err(format!(
            "shot range [{}, {}) failed after {} dispatch attempts (last failure: {last_error})",
            range.start, range.end, redispatches
        ))
    }

    /// Lands a finished job: cache, then respond to every waiter once
    /// the lock is released, so reply encoding never holds up
    /// admission.
    fn complete(&self, key: &CacheKey, result: Result<Counts, String>) {
        let mut inner = self.lock();
        // Shutdown may have dropped the job meanwhile; its waiters are
        // already failed.
        let Some(waiters) = inner.jobs.remove(key) else {
            return;
        };
        match &result {
            Ok(counts) => {
                inner.cache.insert(key.clone(), counts.clone());
                self.counters.completed.inc();
            }
            Err(_) => self.counters.errors.inc(),
        }
        drop(inner);
        Waiter::answer_all(waiters, key, &result);
    }
}

impl JobBackend for Coordinator {
    fn role(&self) -> &'static str {
        "coordinator"
    }

    fn submit(self: &Arc<Self>, id: Option<String>, run: &RunRequest, responder: Responder) {
        let mut slot = Some(responder);
        if let Some(response) = self.submit_core(id, run, &mut slot) {
            let responder = slot.take().expect("immediate settle leaves the responder");
            responder.respond(response);
        }
    }

    fn note_error(&self) {
        self.counters.received.inc();
        self.counters.errors.inc();
    }

    fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        ServiceStats {
            in_flight: inner.jobs.len() as u64,
            cache_entries: inner.cache.len() as u64,
            cache_disk_entries: inner.cache.disk_len() as u64,
            ..self.counters.stats()
        }
    }

    fn worker_rows(&self) -> Vec<WorkerRow> {
        self.pool.rows()
    }

    /// The coordinator's own snapshot merged with a fresh `metrics`
    /// round trip to every live worker: the topology-wide view.
    fn metrics(&self) -> obs::Snapshot {
        let mut snapshot = self
            .config
            .metrics
            .as_ref()
            .map(obs::Registry::snapshot)
            .unwrap_or_default();
        for worker in self.pool.fetch_metrics() {
            snapshot.merge(&worker);
        }
        snapshot
    }

    /// Fails pending waiters and stops the heartbeat, which forwards
    /// the shutdown to the workers as it exits.
    fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Dropping the waiters fires their responders' abandoned path:
        // each pending client gets an error response.
        self.lock().jobs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn waiters_are_answered_outside_the_coordinator_lock() {
        // The responder asks another thread for `stats()`: if the reply
        // were sent under the coordinator lock, that read would wait
        // for the responder itself.
        let coordinator = Arc::new(Coordinator::new(CoordinatorConfig::default()));
        let run = RunRequest::new("OPENQASM 3.0;\nqubit[1] q;\nh q[0];\n", 10, 1, "auto");
        let key = admit(&run).expect("admits").key;
        let (answered_tx, answered) = mpsc::channel();
        let helper = coordinator.clone();
        let responder = Responder::Callback(Box::new(move |_response| {
            let (tx, rx) = mpsc::channel();
            let reader = std::thread::spawn(move || tx.send(JobBackend::stats(&*helper)).unwrap());
            let took = rx.recv_timeout(Duration::from_secs(1));
            answered_tx.send((took.is_ok(), reader)).unwrap();
        }));
        coordinator.lock().jobs.insert(
            key.clone(),
            vec![Waiter {
                responder,
                id: None,
                coalesced: false,
            }],
        );
        coordinator.complete(&key, Ok(Counts::new()));
        let (in_time, reader) = answered.recv().unwrap();
        reader.join().unwrap();
        assert!(in_time, "stats() waited on the reply");
    }
}
