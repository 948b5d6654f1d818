//! The coordinator's view of its downstream workers.
//!
//! A [`WorkerPool`] tracks N worker addresses with per-worker health
//! and serving counters, and owns every socket the coordinator opens
//! toward them:
//!
//! * [`WorkerPool::probe_all`] — one `stats` round trip per worker (the
//!   heartbeat): a worker that answers is alive, one that doesn't is
//!   marked dead and skipped by dispatch until a later probe succeeds.
//! * [`WorkerPool::dispatch`] — one ranged `run` round trip. The read
//!   side polls in short slices so a dispatch can abort early when the
//!   heartbeat declares the worker dead mid-job, instead of waiting
//!   out the full I/O budget.
//!
//! The pool never decides *what* to do about a failure — the
//! coordinator's re-dispatch loop does; the pool only reports outcomes
//! ([`Dispatch`]) and keeps the books that feed the `stats` op's
//! per-worker rows.

use engine::Counts;
use service::protocol::HEARTBEAT_NEVER_MS;
use service::{Op, Request, Response, WorkerRow};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timeouts and capacity limits for worker I/O.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Budget for one ranged dispatch round trip (connect + execute +
    /// respond). A worker that holds a range longer than this has
    /// failed it.
    pub io_timeout: Duration,
    /// Budget for one heartbeat `stats` round trip.
    pub probe_timeout: Duration,
    /// Most concurrently dispatched ranges per worker; dispatch picks
    /// the least-loaded live worker below this bound.
    pub max_inflight: usize,
    /// Observability registry. Every dispatch round trip is timed into
    /// the `shard.dispatch` histogram (and a per-worker
    /// `shard.worker.<addr>.dispatch` twin), and lost ranges bump the
    /// `shard.redispatches` counter; without a registry they are kept
    /// but not exported.
    pub metrics: Option<obs::Registry>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            io_timeout: Duration::from_secs(30),
            probe_timeout: Duration::from_secs(1),
            max_inflight: 8,
            metrics: None,
        }
    }
}

struct WorkerState {
    addr: String,
    alive: bool,
    last_ok: Option<Instant>,
    inflight: usize,
    jobs: u64,
    redispatched: u64,
    /// This worker's `shard.worker.<addr>.dispatch` histogram.
    dispatch_time: obs::Histo,
}

/// How one dispatch ended.
pub enum Dispatch {
    /// The worker served the range; its tallies.
    Ok(Counts),
    /// The worker's own queue is full; its back-off hint.
    Busy {
        /// The worker's suggested retry delay.
        retry_after_ms: u64,
    },
    /// The worker failed the range (connection refused/closed, I/O
    /// timeout, error response, marked dead mid-read): re-dispatch it.
    Failed(String),
}

/// Health, load, and counters for the coordinator's workers.
pub struct WorkerPool {
    config: PoolConfig,
    workers: Mutex<Vec<WorkerState>>,
    /// `shard.dispatch`: every dispatch round trip.
    dispatch_time: obs::Histo,
    /// `shard.redispatches`: ranges lost to a failed dispatch.
    redispatches: obs::Counter,
}

impl WorkerPool {
    /// A pool over `addrs`; every worker starts dead until its first
    /// successful probe.
    pub fn new(addrs: Vec<String>, config: PoolConfig) -> WorkerPool {
        let registry = config.metrics.as_ref();
        let histo = |name: &str| registry.map_or_else(obs::Histo::new, |r| r.histo(name));
        let workers = addrs
            .into_iter()
            .map(|addr| WorkerState {
                dispatch_time: histo(&format!("shard.worker.{addr}.dispatch")),
                addr,
                alive: false,
                last_ok: None,
                inflight: 0,
                jobs: 0,
                redispatched: 0,
            })
            .collect();
        WorkerPool {
            dispatch_time: histo("shard.dispatch"),
            redispatches: registry
                .map_or_else(obs::Counter::new, |r| r.counter("shard.redispatches")),
            workers: Mutex::new(workers),
            config,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<WorkerState>> {
        self.workers.lock().expect("worker pool poisoned")
    }

    /// Number of configured workers (alive or not).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the pool has no configured workers.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Number of currently-live workers.
    pub fn live(&self) -> usize {
        self.lock().iter().filter(|w| w.alive).count()
    }

    /// Whether some live worker is below its in-flight bound (the
    /// coordinator's backpressure predicate).
    pub fn has_capacity(&self) -> bool {
        self.lock()
            .iter()
            .any(|w| w.alive && w.inflight < self.config.max_inflight)
    }

    /// Heartbeats every worker: one `stats` round trip each. Answering
    /// revives a dead worker; failing kills a live one.
    pub fn probe_all(&self) {
        let addrs: Vec<(usize, String)> = self
            .lock()
            .iter()
            .enumerate()
            .map(|(i, w)| (i, w.addr.clone()))
            .collect();
        for (idx, addr) in addrs {
            let alive = self.probe(&addr);
            let mut workers = self.lock();
            let worker = &mut workers[idx];
            worker.alive = alive;
            if alive {
                worker.last_ok = Some(Instant::now());
            }
        }
    }

    fn probe(&self, addr: &str) -> bool {
        matches!(
            self.round_trip(addr, Op::Stats),
            Some(Response::Stats { .. })
        )
    }

    /// One request line to `addr` and its response line, each way
    /// bounded by the probe budget: the heartbeat's `stats`, the
    /// `metrics` gather and the forwarded `shutdown`. `None` when the
    /// worker is unreachable or does not answer in time.
    fn round_trip(&self, addr: &str, op: Op) -> Option<Response> {
        let timeout = self.config.probe_timeout;
        let stream = connect(addr, timeout)?;
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let mut writer = stream.try_clone().ok()?;
        let request = Request { id: None, op };
        writer.write_all(request.to_line().as_bytes()).ok()?;
        let mut line = String::new();
        match BufReader::new(stream).read_line(&mut line) {
            Ok(n) if n > 0 => Response::from_line(&line).ok(),
            _ => None,
        }
    }

    /// Picks the least-loaded live worker outside `exclude`, reserving
    /// an in-flight slot on it. Pair with [`WorkerPool::release`].
    /// `None` means every usable worker is dead, excluded, or at its
    /// in-flight bound.
    pub fn acquire(&self, exclude: &HashSet<usize>) -> Option<usize> {
        let mut workers = self.lock();
        let idx = workers
            .iter()
            .enumerate()
            .filter(|(i, w)| {
                w.alive && !exclude.contains(i) && w.inflight < self.config.max_inflight
            })
            .min_by_key(|(_, w)| w.inflight)
            .map(|(i, _)| i)?;
        workers[idx].inflight += 1;
        Some(idx)
    }

    /// Returns the in-flight slot taken by [`WorkerPool::acquire`].
    pub fn release(&self, idx: usize) {
        let mut workers = self.lock();
        workers[idx].inflight = workers[idx].inflight.saturating_sub(1);
    }

    /// Books a lost range against `idx` and marks it dead (the next
    /// successful heartbeat revives it).
    pub fn note_redispatch(&self, idx: usize) {
        let mut workers = self.lock();
        workers[idx].redispatched += 1;
        workers[idx].alive = false;
        drop(workers);
        self.redispatches.inc();
    }

    /// Sends one ranged `run` request to worker `idx` and waits for its
    /// response line.
    ///
    /// The wait polls in 50 ms slices so it can abort as soon as the
    /// heartbeat marks the worker dead, and gives up after
    /// `io_timeout` regardless — a hung worker costs one timeout, not
    /// a stuck coordinator.
    pub fn dispatch(&self, idx: usize, request: &Request) -> Dispatch {
        let (addr, worker_time) = {
            let worker = &self.lock()[idx];
            (worker.addr.clone(), worker.dispatch_time.clone())
        };
        let started = Instant::now();
        let outcome = self.dispatch_inner(idx, &addr, request);
        let elapsed = started.elapsed();
        self.dispatch_time.record_duration(elapsed);
        worker_time.record_duration(elapsed);
        outcome
    }

    fn dispatch_inner(&self, idx: usize, addr: &str, request: &Request) -> Dispatch {
        let Some(stream) = connect(addr, self.config.probe_timeout) else {
            return Dispatch::Failed(format!("worker {addr}: connect failed"));
        };
        let _ = stream.set_write_timeout(Some(self.config.io_timeout));
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(e) => return Dispatch::Failed(format!("worker {addr}: {e}")),
        };
        if let Err(e) = writer.write_all(request.to_line().as_bytes()) {
            return Dispatch::Failed(format!("worker {addr}: send failed: {e}"));
        }
        let started = Instant::now();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Dispatch::Failed(format!("worker {addr}: connection closed")),
                Ok(_) => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if !self.lock()[idx].alive {
                        return Dispatch::Failed(format!(
                            "worker {addr}: marked dead mid-dispatch"
                        ));
                    }
                    if started.elapsed() >= self.config.io_timeout {
                        return Dispatch::Failed(format!(
                            "worker {addr}: no response within {:?}",
                            self.config.io_timeout
                        ));
                    }
                }
                Err(e) => return Dispatch::Failed(format!("worker {addr}: read failed: {e}")),
            }
        }
        match Response::from_line(&line) {
            Ok(Response::Ok { tallies, .. }) => {
                let mut workers = self.lock();
                workers[idx].jobs += 1;
                workers[idx].last_ok = Some(Instant::now());
                Dispatch::Ok(tallies)
            }
            Ok(Response::Busy { retry_after_ms, .. }) => Dispatch::Busy { retry_after_ms },
            Ok(Response::Error { error, .. }) => {
                // The coordinator admitted the job (parse + capability
                // probe), so a worker that *errors* it is itself the
                // failure — shutting down mid-job, most likely.
                Dispatch::Failed(format!("worker {addr}: {error}"))
            }
            Ok(other) => Dispatch::Failed(format!("worker {addr}: unexpected response {other:?}")),
            Err(e) => Dispatch::Failed(format!("worker {addr}: unparseable response: {e}")),
        }
    }

    /// One `metrics` round trip per live worker, yielding the
    /// snapshots that answered. A worker that fails the round trip is
    /// simply skipped — health bookkeeping stays with the heartbeat.
    pub fn fetch_metrics(&self) -> Vec<obs::Snapshot> {
        let addrs: Vec<String> = self
            .lock()
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.addr.clone())
            .collect();
        addrs
            .iter()
            .filter_map(|addr| match self.round_trip(addr, Op::Metrics) {
                Some(Response::Metrics { snapshot, .. }) => Some(snapshot),
                _ => None,
            })
            .collect()
    }

    /// Best-effort `shutdown` to every configured worker, alive or not,
    /// waiting up to the probe budget for each `bye`.
    pub(crate) fn shutdown_all(&self) {
        let addrs: Vec<String> = self.lock().iter().map(|w| w.addr.clone()).collect();
        for addr in addrs {
            let _ = self.round_trip(&addr, Op::Shutdown);
        }
    }

    /// One [`WorkerRow`] per configured worker, for the coordinator's
    /// `stats` response.
    pub fn rows(&self) -> Vec<WorkerRow> {
        self.lock()
            .iter()
            .map(|w| WorkerRow {
                addr: w.addr.clone(),
                jobs: w.jobs,
                redispatched: w.redispatched,
                heartbeat_age_ms: w
                    .last_ok
                    .map(|t| t.elapsed().as_millis() as u64)
                    .unwrap_or(HEARTBEAT_NEVER_MS),
                alive: w.alive,
            })
            .collect()
    }
}

fn connect(addr: &str, timeout: Duration) -> Option<TcpStream> {
    use std::net::ToSocketAddrs;
    let addr = addr.to_socket_addrs().ok()?.next()?;
    TcpStream::connect_timeout(&addr, timeout).ok()
}
