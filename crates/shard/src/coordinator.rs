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
//! ## No thread and no socket per request
//!
//! The coordinator starts no thread of its own per job. Admission
//! hands the parts to the [`WorkerPool`]'s persistent data links
//! (one thread and one kept connection each, opened on first use) and
//! returns; the link that lands the last part merges and answers every
//! waiter. A warm sharded request therefore starts no thread and opens
//! no connection: `shard.connects` stays flat.
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
//! * **Heartbeats** — the pool's heartbeat thread `stats`-probes every
//!   worker each `heartbeat_interval` over its control link, apart from
//!   the data links, so a worker busy with a long range still answers;
//!   a worker that stops answering is marked dead, skipped by dispatch,
//!   and revived by a later successful probe. On shutdown the same
//!   thread forwards the `shutdown` to the workers
//!   (`propagate_shutdown`), never the reactor thread.
//! * **Re-dispatch** — a range whose dispatch fails (dead worker, I/O
//!   timeout, error response, a reply that does not answer the range
//!   sent) moves to the next live worker, bounded by
//!   `redispatch_limit` attempts.
//! * **Backpressure** — admission rejects with `busy` when the job
//!   table is full or every live worker is at its in-flight bound;
//!   `busy` answers *from workers* are waited out with the worker's
//!   own hint.
//!
//! Admission, coalescing and result caching reuse the `service`
//! building blocks ([`service::admission`], [`service::cache`]), so a
//! repeated circuit is parsed once, identical concurrent jobs scatter
//! once and repeats are served from coordinator memory.

use crate::worker::{Outcomes, WorkerPool};
use engine::{merge_counts, partition_shots, Counts};
use reactor::ReactorConfig;
use service::admission::Admission;
use service::cache::{CacheKey, DiskCacheConfig, ResultCache};
use service::frontend::{self, busy, ok_response, Lookup, ServiceCounters, Waiter};
use service::{
    AdmissionCache, Frontend, FrontendHandle, JobBackend, Request, Responder, Response, RunRequest,
    ServiceStats, WorkerRow,
};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

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
    /// `stats` counters (`shard.sched.*`, `shard.cache.{hits,misses}`),
    /// `shard.cache.probes`, and times its own stages (`stage.parse`,
    /// `stage.cache_lookup`, `stage.merge`, and the front end's
    /// `stage.encode`), the worker pool times
    /// dispatch round trips (`shard.dispatch`,
    /// `shard.worker.<addr>.dispatch`, `shard.redispatches`) and counts
    /// its connects (`shard.connects`), the
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
    /// This coordinator, for a scatter's completion to hold on to.
    this: Weak<Coordinator>,
    config: CoordinatorConfig,
    pool: WorkerPool,
    inner: Mutex<Inner>,
    stopping: AtomicBool,
    /// The `stats` counters, under the `shard.` prefix so the
    /// topology-wide `metrics` merge keeps them apart from the
    /// workers' own.
    counters: ServiceCounters,
    /// Parsed circuits, kept across requests; the coordinator prepares
    /// nothing, so its entries hold no jobs.
    admission: AdmissionCache,
    parse: obs::Histo,
    merge: obs::Histo,
}

/// Owner of a running coordinator's threads.
pub type CoordinatorHandle = FrontendHandle<Coordinator>;

impl Coordinator {
    /// Binds `config.addr`, probes the workers once so the live set is
    /// warm, starts the pool's heartbeat thread, and serves the
    /// coordinator through [`Frontend::spawn`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind/local_addr) and a failed
    /// heartbeat thread spawn.
    pub fn spawn(config: CoordinatorConfig) -> std::io::Result<CoordinatorHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let reactor = ReactorConfig {
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            metrics: config.metrics.clone(),
        };
        let coordinator = Coordinator::new(config);
        coordinator.pool.probe_all();
        let heartbeat = coordinator.pool.spawn_heartbeat(
            coordinator.config.heartbeat_interval,
            coordinator.config.propagate_shutdown,
        )?;
        Frontend::spawn(listener, reactor, coordinator, vec![heartbeat])
    }

    /// The backend alone: worker pool (not yet probed) and cache.
    fn new(config: CoordinatorConfig) -> Arc<Coordinator> {
        let pool = WorkerPool::new(
            config.workers.clone(),
            config.io_timeout,
            config.metrics.as_ref(),
        );
        let mut cache = match config.cache_dir.clone() {
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
        let counters = ServiceCounters::new(registry, "shard.");
        cache.evictions =
            registry.map_or_else(obs::Counter::new, |r| r.counter("shard.cache.evictions"));
        cache.probes = counters.probes.clone();
        cache.lookups = histo("stage.cache_lookup");
        let admission = AdmissionCache::new(registry, "shard.");
        let (parse, merge) = (histo("stage.parse"), histo("stage.merge"));
        Arc::new_cyclic(|this| Coordinator {
            this: this.clone(),
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                cache,
            }),
            pool,
            stopping: AtomicBool::new(false),
            counters,
            admission,
            parse,
            merge,
            config,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("coordinator poisoned")
    }

    /// Merges the parts' tallies, in part order; the first failed part
    /// fails the job. `merge_counts` is commutative, so which link
    /// landed first cannot change the result.
    fn merge(&self, outcomes: Outcomes) -> Result<Counts, String> {
        let merge_started = std::time::Instant::now();
        let mut merged = Counts::new();
        for outcome in outcomes {
            merge_counts(&mut merged, outcome?);
        }
        self.merge.record_duration(merge_started.elapsed());
        Ok(merged)
    }

    /// Lands a finished job: cache, then — once the lock is released,
    /// so neither file I/O nor reply encoding holds up admission — spill
    /// the result to disk and respond to every waiter.
    fn complete(&self, key: &CacheKey, result: Result<Counts, String>) {
        let mut inner = self.lock();
        // Shutdown may have dropped the job meanwhile; its waiters are
        // already failed.
        let Some(waiters) = inner.jobs.remove(key) else {
            return;
        };
        let spill = match &result {
            Ok(counts) => {
                self.counters.completed.inc();
                inner.cache.insert_deferred(key.clone(), counts.clone())
            }
            Err(_) => {
                self.counters.errors.inc();
                None
            }
        };
        drop(inner);
        if let Some(spill) = spill {
            spill.write();
        }
        Waiter::answer_all(waiters, key, &result);
    }
}

impl JobBackend for Coordinator {
    fn role(&self) -> &'static str {
        "coordinator"
    }

    fn counters(&self) -> &ServiceCounters {
        &self.counters
    }

    /// A result is cached only for a job that passed the capability
    /// probe, so a hit skips it.
    fn lookup(&self, run: &RunRequest) -> Lookup {
        frontend::lookup(
            run,
            &self.admission,
            &self.inner,
            |inner: &mut Inner| &mut inner.cache,
            &self.counters,
            &self.parse,
        )
    }

    /// The admission path: cache hit, coalesce, reject, or scatter. Its
    /// one pass under the lock reads the result cache as
    /// `ResultCache::get_guarded` reads it for a key that missed memory
    /// at the reactor's generation.
    fn submit(
        &self,
        id: Option<String>,
        run: &RunRequest,
        admission: Admission,
        responder: &mut Option<Responder>,
    ) -> Option<Response> {
        // Validation is shared with the single-machine scheduler
        // (`service::admission`), then tightened with the capability
        // probe: rejecting unexecutable circuits *here* means any
        // `error` a worker later answers is evidence of worker failure,
        // so the re-dispatch loop can treat it as such. A repeated text
        // is one lookup, not a parse; the probe runs per request, as its
        // verdict depends on the requested backend (a width check on the
        // statevector, one pass over the instructions otherwise: ≈ 0.6 µs
        // on the served GHZ-12 on a 2-core x86-64 host, too little to
        // keep per entry).
        let mut missed_at = admission.missed_at;
        let (admitted, parse_ns) = self.admission.finish(admission, run);
        let probe_started = Instant::now();
        let admitted = admitted.and_then(|ticket| {
            ticket
                .resolved
                .supports(&ticket.parsed.circuit)
                .map_err(|e| e.to_string())
                .map(|()| ticket)
        });
        self.parse
            .record_duration(Duration::from_nanos(parse_ns) + probe_started.elapsed());
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
        // validated — not the client's raw bytes — so every request of
        // one circuit reaches a worker as the same text, which its
        // admission cache parses and prepares once; the text is
        // pre-validated canonical output (guaranteed to reproduce
        // `key.circuit_fp`), never arbitrary client input per shard.
        // The client identity is *not* forwarded: the coordinator is
        // the admission boundary, workers see one peer.
        let parsed = admitted.parsed;
        let key = admitted.key;

        let (mut inner, hit) = ResultCache::get_guarded(
            &self.inner,
            |inner: &mut Inner| &mut inner.cache,
            &key,
            &mut missed_at,
        );
        if let Some(tallies) = hit {
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

        // The parts go to the pool's data links and this call returns;
        // the link that lands the last part runs the merge and
        // `complete`, which answers every waiter.
        let parts = partition_shots(key.range(), self.pool.live().max(1))
            .into_iter()
            .map(|range| {
                let request = Request::run(
                    None,
                    RunRequest::new(parsed.canonical.as_str(), 0, key.root_seed, key.backend)
                        .with_shot_range(range.start, range.end),
                );
                (range, request.to_line())
            })
            .collect();
        let coordinator = self.this.upgrade().expect("a coordinator lives in an Arc");
        self.pool
            .scatter(parts, self.config.redispatch_limit, move |outcomes| {
                let result = coordinator.merge(outcomes);
                coordinator.complete(&key, result);
            });
        None
    }

    fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        self.counters.stats(inner.jobs.len(), &inner.cache)
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
        self.pool.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use service::{Service, ServiceConfig};
    use std::sync::mpsc;

    fn bell(shots: u64, seed: u64) -> RunRequest {
        let mut c = circuit::circuit::Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        RunRequest::new(circuit::qasm::to_qasm3(&c), shots, seed, "auto")
    }

    /// `run` through the front end's path: lookup, then submit, waiting
    /// for a queued job's reply.
    fn serve(coordinator: &Coordinator, run: &RunRequest) -> Response {
        let admission = match coordinator.lookup(run) {
            Lookup::Hit { key, tallies } => return ok_response(None, &key, tallies, true, false),
            Lookup::Submit(admission) => admission,
        };
        let (tx, rx) = mpsc::channel();
        let mut responder = Some(Responder::Channel(tx));
        match coordinator.submit(None, run, admission, &mut responder) {
            Some(response) => response,
            None => rx.recv().expect("the job completes"),
        }
    }

    #[test]
    fn a_cold_miss_and_a_warm_hit_read_the_memory_tier_once_each() {
        let worker = Service::spawn(ServiceConfig::default()).expect("spawn worker");
        let registry = obs::Registry::default();
        let coordinator = Coordinator::new(CoordinatorConfig {
            workers: vec![worker.addr().to_string()],
            metrics: Some(registry.clone()),
            ..CoordinatorConfig::default()
        });
        coordinator.pool.probe_all();
        let probes = || registry.snapshot().counter("shard.cache.probes");
        // A text not parsed yet, then a held text under a fresh seed.
        for seed in [1, 2] {
            let reply = serve(&coordinator, &bell(100, seed));
            assert!(
                matches!(reply, Response::Ok { cached: false, .. }),
                "{reply:?}"
            );
            assert_eq!(probes(), Some(seed), "cold miss {seed}");
        }
        let reply = serve(&coordinator, &bell(100, 2));
        assert!(
            matches!(reply, Response::Ok { cached: true, .. }),
            "{reply:?}"
        );
        assert_eq!(probes(), Some(3), "a warm hit");
        let lookups = registry
            .snapshot()
            .histo("stage.cache_lookup")
            .unwrap()
            .count;
        assert_eq!(lookups, 3);
        coordinator.shutdown();
        worker.shutdown();
    }

    #[test]
    fn the_coordinators_cache_evictions_are_exported() {
        let worker = Service::spawn(ServiceConfig::default()).expect("spawn worker");
        let registry = obs::Registry::default();
        let coordinator = Coordinator::new(CoordinatorConfig {
            workers: vec![worker.addr().to_string()],
            cache_capacity: 1,
            metrics: Some(registry.clone()),
            ..CoordinatorConfig::default()
        });
        coordinator.pool.probe_all();
        // Three distinct requests through a one-entry cache: the second
        // and third inserts each evict the one before.
        for seed in 1..=3 {
            let reply = serve(&coordinator, &bell(100, seed));
            assert!(
                matches!(reply, Response::Ok { cached: false, .. }),
                "{reply:?}"
            );
        }
        let merged = coordinator.metrics();
        assert_eq!(merged.counter("shard.cache.evictions"), Some(2));
        coordinator.shutdown();
        worker.shutdown();
    }

    #[test]
    fn a_result_landing_between_lookup_and_submit_is_served_cached() {
        let coordinator = Coordinator::new(CoordinatorConfig::default());
        let run = bell(100, 7);
        // The text is held, so the lookup reads memory.
        let admitted = coordinator.admission.probe(&run);
        coordinator
            .admission
            .finish(admitted, &run)
            .0
            .expect("admits");
        let Lookup::Submit(admission) = coordinator.lookup(&run) else {
            panic!("nothing is known yet");
        };
        assert!(admission.missed_at.is_some(), "the lookup read memory");
        let key = service::admit(&run).expect("admits").key;
        let tallies: Counts = [(0, 60), (3, 40)].into_iter().collect();
        coordinator.lock().cache.insert(key, tallies.clone());
        let mut responder = None;
        match coordinator.submit(None, &run, admission, &mut responder) {
            Some(Response::Ok {
                cached: true,
                tallies: served,
                ..
            }) => assert_eq!(served, tallies),
            other => panic!("expected a cached reply, got {other:?}"),
        }
        assert!(coordinator.lock().jobs.is_empty(), "nothing was scattered");
    }

    #[test]
    fn waiters_are_answered_outside_the_coordinator_lock() {
        // The responder tries the coordinator lock: if the reply were
        // sent under it, a `stats()` read would wait for the responder
        // itself.
        let coordinator = Coordinator::new(CoordinatorConfig::default());
        let run = RunRequest::new("OPENQASM 3.0;\nqubit[1] q;\nh q[0];\n", 10, 1, "auto");
        let key = service::admit(&run).expect("admits").key;
        let (answered_tx, answered) = mpsc::channel();
        let helper = coordinator.clone();
        let responder = Responder::Callback(Box::new(move |_response| {
            answered_tx.send(helper.inner.try_lock().is_ok()).unwrap();
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
        assert!(
            answered.recv().unwrap(),
            "the reply was sent under the lock"
        );
    }
}
