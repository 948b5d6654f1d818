//! The shard coordinator: scatter, gather, re-dispatch, respond.
//!
//! A [`Coordinator`] is wire-compatible with a single-machine
//! `service` instance — clients speak the exact same protocol and
//! cannot tell the difference from the bytes — but instead of
//! executing jobs it partitions each admitted job's global shot range
//! (`engine::partition_shots`) across its live workers, dispatches the
//! sub-ranges as `shot_range` requests, and merges the returned
//! tallies (`engine::merge_counts`).
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
//!   successful probe.
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
use reactor::{Completion, Line, LineHandler, Reactor, ReactorConfig, ReactorCtl, ReactorHandle};
use service::cache::{CacheKey, DiskCacheConfig, ResultCache};
use service::{
    admit, decode_line, Op, Request, Responder, Response, RunRequest, ServiceStats, WorkerRow,
    MAX_LINE_BYTES,
};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
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
    /// Observability registry. When set, the coordinator times its own
    /// stages (`stage.parse`, `stage.merge`), the worker pool times
    /// dispatch round trips (`shard.dispatch`,
    /// `shard.worker.<addr>.dispatch`, `shard.redispatches`), the
    /// reactor publishes its connection gauges, and the wire `metrics`
    /// op answers with the coordinator's snapshot merged with a fresh
    /// snapshot from every live worker — the topology-wide view.
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

struct Waiter {
    responder: Responder,
    id: Option<String>,
    coalesced: bool,
}

struct Inner {
    jobs: HashMap<CacheKey, Vec<Waiter>>,
    cache: ResultCache,
    stats: ServiceStats,
    shutdown: bool,
}

struct Shared {
    config: CoordinatorConfig,
    pool: WorkerPool,
    inner: Mutex<Inner>,
    stopping: AtomicBool,
}

/// One run request in flight from the reactor to a submitter.
struct SubmitTask {
    id: Option<String>,
    run: RunRequest,
    completion: Completion,
}

/// The coordinator's reactor-side protocol brain (the client-facing
/// twin of the `service` server handler): `stats` and `shutdown`
/// answer inline, run requests go to the submitter pool.
struct Handler {
    shared: Arc<Shared>,
    ctl: ReactorCtl,
    /// Owned by the handler alone: the reactor loop exiting drops it,
    /// which drains the submitter pool.
    submit: mpsc::Sender<SubmitTask>,
}

impl LineHandler for Handler {
    fn on_line(&self, _conn: u64, line: Line, mut completion: Completion) {
        let bytes = match line {
            Line::Complete(bytes) => bytes,
            Line::Oversized => {
                self.shared.note_error();
                let response = Response::Error {
                    id: None,
                    error: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                };
                completion.send_close(response.to_line().into_bytes());
                return;
            }
        };
        match decode_line(&bytes) {
            Err(error) => {
                self.shared.note_error();
                let response = Response::Error { id: None, error };
                completion.send(response.to_line().into_bytes());
            }
            Ok(Request { id, op: Op::Stats }) => {
                let response = Response::Stats {
                    id,
                    stats: self.shared.stats().with_gauges(self.ctl.gauges()),
                    workers: self.shared.pool.rows(),
                    clients: Vec::new(),
                };
                completion.send(response.to_line().into_bytes());
            }
            Ok(Request {
                id,
                op: Op::Metrics,
            }) => {
                // Gathering worker snapshots is N network round trips,
                // which must not run on the reactor's I/O thread.
                let shared = self.shared.clone();
                completion.set_abandoned_reply(
                    Response::Error {
                        id: id.clone(),
                        error: "coordinator shut down before the metrics gather completed"
                            .to_string(),
                    }
                    .to_line()
                    .into_bytes(),
                );
                let _ = std::thread::Builder::new()
                    .name("shard-metrics".to_string())
                    .spawn(move || {
                        let snapshot = shared.metrics_snapshot();
                        let response = Response::Metrics { id, snapshot };
                        completion.send(response.to_line().into_bytes());
                    });
            }
            Ok(Request {
                id,
                op: Op::Shutdown,
            }) => {
                completion.send_close(Response::Bye { id }.to_line().into_bytes());
                self.shared.begin_shutdown();
                self.ctl.stop();
            }
            Ok(Request {
                id,
                op: Op::Run(run),
            }) => {
                completion.set_abandoned_reply(
                    Response::Error {
                        id: id.clone(),
                        error: "coordinator shut down before the job completed".to_string(),
                    }
                    .to_line()
                    .into_bytes(),
                );
                let _ = self.submit.send(SubmitTask {
                    id,
                    run,
                    completion,
                });
            }
        }
    }
}

/// The shard-coordinator front end. See the module docs.
pub struct Coordinator;

impl Coordinator {
    /// Binds `config.addr`, probes the workers once so the live set is
    /// warm, and starts the reactor, submitter, and heartbeat threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind/local_addr).
    pub fn spawn(config: CoordinatorConfig) -> std::io::Result<CoordinatorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let pool = WorkerPool::new(
            config.workers.clone(),
            PoolConfig {
                io_timeout: config.io_timeout,
                max_inflight: config.max_inflight_per_worker,
                metrics: config.metrics.clone(),
                ..PoolConfig::default()
            },
        );
        pool.probe_all();
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
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                cache,
                stats: ServiceStats::default(),
                shutdown: false,
            }),
            pool,
            config,
            stopping: AtomicBool::new(false),
        });

        let heartbeat = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("shard-heartbeat".to_string())
                .spawn(move || {
                    while !shared.stopping.load(Ordering::SeqCst) {
                        shared.pool.probe_all();
                        // Sleep in short slices so shutdown is prompt
                        // even under long heartbeat intervals.
                        let mut remaining = shared.config.heartbeat_interval;
                        while !remaining.is_zero() && !shared.stopping.load(Ordering::SeqCst) {
                            let step = remaining.min(Duration::from_millis(50));
                            std::thread::sleep(step);
                            remaining -= step;
                        }
                    }
                })
                .expect("spawn heartbeat")
        };

        // Admission threads: `submit_core` parses and canonicalizes
        // QASM, which must not run on the reactor's I/O thread.
        let (submit_tx, submit_rx) = mpsc::channel::<SubmitTask>();
        let submit_rx = Arc::new(Mutex::new(submit_rx));
        let submitters: Vec<JoinHandle<()>> = (0..2)
            .map(|i| {
                let rx = submit_rx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("shard-submit-{i}"))
                    .spawn(move || loop {
                        let task = rx.lock().expect("submit queue").recv();
                        let Ok(task) = task else { break };
                        let completion = task.completion;
                        let responder = Responder::Callback(Box::new(move |response: Response| {
                            completion.send(response.to_line().into_bytes());
                        }));
                        shared.submit_async(task.id, &task.run, responder);
                    })
                    .expect("spawn submitter")
            })
            .collect();

        let reactor_config = ReactorConfig {
            max_line_bytes: MAX_LINE_BYTES,
            idle_timeout: shared.config.idle_timeout,
            max_connections: shared.config.max_connections,
            metrics: shared.config.metrics.clone(),
            ..ReactorConfig::default()
        };
        let handler_shared = shared.clone();
        let reactor = Reactor::spawn(listener, reactor_config, move |ctl| {
            Arc::new(Handler {
                shared: handler_shared,
                ctl,
                submit: submit_tx,
            })
        })?;

        Ok(CoordinatorHandle {
            shared,
            reactor,
            submitters,
            heartbeat,
        })
    }
}

/// Owner of a running coordinator's threads.
pub struct CoordinatorHandle {
    shared: Arc<Shared>,
    reactor: ReactorHandle,
    submitters: Vec<JoinHandle<()>>,
    heartbeat: JoinHandle<()>,
}

impl CoordinatorHandle {
    /// The bound client-facing address.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Counter snapshot, read directly (no wire round trip), with the
    /// reactor's connection gauges merged in.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats().with_gauges(self.reactor.gauges())
    }

    /// Per-worker rows, read directly.
    pub fn worker_rows(&self) -> Vec<WorkerRow> {
        self.shared.pool.rows()
    }

    /// The topology-wide metrics snapshot: the coordinator's own
    /// registry merged with a fresh `metrics` round trip to every live
    /// worker. Empty when the coordinator runs without a registry.
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.shared.metrics_snapshot()
    }

    /// Initiates shutdown and waits for the coordinator's threads.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.reactor.stop();
        for submitter in self.submitters {
            let _ = submitter.join();
        }
        let _ = self.heartbeat.join();
    }

    /// Waits until the coordinator stops (via a wire `shutdown` or
    /// [`CoordinatorHandle::shutdown`]).
    pub fn join(self) {
        // A wire shutdown stops both the flag (heartbeat exit) and the
        // reactor; the reactor dropping the submit channel drains the
        // submitter pool.
        self.reactor.join();
        for submitter in self.submitters {
            let _ = submitter.join();
        }
        let _ = self.heartbeat.join();
    }
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("coordinator poisoned")
    }

    fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        let mut stats = inner.stats;
        stats.in_flight = inner.jobs.len() as u64;
        stats.cache_entries = inner.cache.len() as u64;
        stats.cache_disk_entries = inner.cache.disk_len() as u64;
        stats
    }

    /// The coordinator's own snapshot merged with every live worker's
    /// (one wire round trip per worker — callers run off the reactor).
    fn metrics_snapshot(&self) -> obs::Snapshot {
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

    /// Initiates shutdown: fails pending waiters, stops the heartbeat,
    /// optionally forwards the shutdown to the workers. (The reactor is
    /// stopped separately by whoever holds its control handle.)
    fn begin_shutdown(&self) {
        {
            let mut inner = self.lock();
            inner.shutdown = true;
            // Dropping the waiters fires their responders' abandoned
            // path: each pending client gets an error response.
            inner.jobs.clear();
        }
        if !self.stopping.swap(true, Ordering::SeqCst) && self.config.propagate_shutdown {
            for addr in &self.config.workers {
                send_shutdown(addr);
            }
        }
    }

    /// Admits one run request — cache hit, coalesce, reject, or
    /// scatter — delivering the response through `responder`.
    fn submit_async(self: &Arc<Self>, id: Option<String>, run: &RunRequest, responder: Responder) {
        let mut slot = Some(responder);
        if let Some(response) = self.submit_core(id, run, &mut slot) {
            let responder = slot.take().expect("immediate settle leaves the responder");
            responder.respond(response);
        }
    }

    /// The admission path. `Some` is an immediate response
    /// (`responder` untouched); `None` means the request was queued or
    /// joined and `responder` was consumed.
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
        if let Some(registry) = &self.config.metrics {
            registry
                .histo("stage.parse")
                .record_duration(parse_started.elapsed());
        }
        let admitted = match admitted {
            Ok(admitted) => admitted,
            Err(error) => {
                let mut inner = self.lock();
                inner.stats.received += 1;
                inner.stats.errors += 1;
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
        inner.stats.received += 1;
        if let Some(tallies) = inner.cache.get(&key) {
            inner.stats.cache_hits += 1;
            return Some(Response::Ok {
                id,
                backend: key.backend.to_string(),
                shots: key.shots,
                cached: true,
                coalesced: false,
                tallies,
            });
        }
        if let Some(waiters) = inner.jobs.get_mut(&key) {
            waiters.push(Waiter {
                responder: responder.take().expect("responder available to join"),
                id,
                coalesced: true,
            });
            inner.stats.coalesced += 1;
            return None;
        }
        if inner.shutdown {
            inner.stats.errors += 1;
            return Some(Response::Error {
                id,
                error: "coordinator is shutting down".to_string(),
            });
        }
        if self.pool.live() == 0 {
            inner.stats.errors += 1;
            return Some(Response::Error {
                id,
                error: "no live workers".to_string(),
            });
        }
        if inner.jobs.len() >= self.config.queue_capacity || !self.pool.has_capacity() {
            inner.stats.rejected_busy += 1;
            let in_flight = (inner.jobs.len() as u64).max(1);
            return Some(Response::Busy {
                id,
                in_flight,
                retry_after_ms: 25 * in_flight,
            });
        }
        if key.shots == 0 {
            inner.stats.cache_misses += 1;
            inner.stats.completed += 1;
            return Some(Response::Ok {
                id,
                backend: key.backend.to_string(),
                shots: 0,
                cached: false,
                coalesced: false,
                tallies: Counts::new(),
            });
        }
        inner.stats.cache_misses += 1;
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
        let shared = self.clone();
        let qasm = canonical;
        let _ = std::thread::Builder::new()
            .name("shard-job".to_string())
            .spawn(move || {
                let result = shared.scatter_gather(&key, &qasm);
                shared.complete(&key, result);
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
        if let Some(registry) = &self.config.metrics {
            registry
                .histo("stage.merge")
                .record_duration(merge_started.elapsed());
        }
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

    /// Lands a finished job: cache + respond to every waiter.
    fn complete(&self, key: &CacheKey, result: Result<Counts, String>) {
        let mut inner = self.lock();
        // Shutdown may have dropped the job meanwhile; its waiters are
        // already failed.
        let Some(waiters) = inner.jobs.remove(key) else {
            return;
        };
        match result {
            Ok(counts) => {
                inner.cache.insert(key.clone(), counts.clone());
                inner.stats.completed += 1;
                for waiter in waiters {
                    waiter.responder.respond(Response::Ok {
                        id: waiter.id,
                        backend: key.backend.to_string(),
                        shots: key.shots,
                        cached: false,
                        coalesced: waiter.coalesced,
                        tallies: counts.clone(),
                    });
                }
            }
            Err(error) => {
                inner.stats.errors += 1;
                for waiter in waiters {
                    waiter.responder.respond(Response::Error {
                        id: waiter.id,
                        error: error.clone(),
                    });
                }
            }
        }
    }

    fn note_error(&self) {
        let mut inner = self.lock();
        inner.stats.received += 1;
        inner.stats.errors += 1;
    }
}

/// Best-effort `shutdown` request to one worker.
fn send_shutdown(addr: &str) {
    use std::io::Write;
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let request = Request {
        id: None,
        op: Op::Shutdown,
    };
    let _ = stream.write_all(request.to_line().as_bytes());
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
}
