//! The coordinator's view of its downstream workers.
//!
//! A [`WorkerPool`] tracks N worker addresses with per-worker health
//! and serving counters, and owns every socket the coordinator opens
//! toward them. Sockets are long-lived **links**: opened on first use,
//! kept, and reopened only after a failure. Every connect bumps the
//! `shard.connects` counter; a warm pool makes none.
//!
//! * **Data links** — up to [`MAX_INFLIGHT`] per worker, each one
//!   connection served by one thread. The thread takes one part (a
//!   ranged `run` request) at a time off its worker's queue, writes it
//!   and reads the reply. The read polls in short slices, so it aborts
//!   as soon as the heartbeat declares the worker dead mid-job, and
//!   gives up after the coordinator's `io_timeout` regardless. A
//!   connection carries one part at a time on purpose: the worker's
//!   reactor answers each connection in request order, so a part
//!   pipelined behind a long one would wait for it.
//! * **The control link** — one per worker, for the heartbeat's
//!   `stats` ([`WorkerPool::probe_all`]), the `metrics` gather and the
//!   forwarded `shutdown`, one round trip at a time, each way bounded
//!   by [`PROBE_TIMEOUT`] (as is every connect). It is kept apart
//!   from the data links for the same reason: a probe queued behind a
//!   range would read as a dead worker.
//!
//! [`WorkerPool::scatter`] hands a job's parts to the links and
//! returns at once. A part whose dispatch fails moves on to the next
//! live worker, at most `redispatch_limit` times; a `busy` worker is
//! waited out with its own hint. The link that lands a job's last part
//! hands every outcome to the job's finisher, so no thread waits on a
//! job. A link the worker closed while idle is reopened quietly: that
//! is neither a death nor a re-dispatch.
//!
//! The pool never decides what a job's outcome *means* — the
//! coordinator's finisher does; the pool only delivers outcomes and
//! keeps the books that feed the `stats` op's per-worker rows.

use engine::Counts;
use service::protocol::HEARTBEAT_NEVER_MS;
use service::{Op, Request, Response, WorkerRow};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a data link's read waits before it checks the worker's
/// health and the I/O budget again.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Budget for every connect and for one control round trip (the
/// heartbeat's `stats`, the `metrics` gather, the forwarded
/// `shutdown`).
pub const PROBE_TIMEOUT: Duration = Duration::from_secs(1);

/// Most concurrently dispatched ranges per worker, and so most data
/// links per worker. Each part goes to the least-loaded live worker;
/// parts beyond the bound queue there for a free link.
pub const MAX_INFLIGHT: usize = 8;

struct WorkerState {
    addr: String,
    alive: bool,
    last_ok: Option<Instant>,
    /// Parts routed here and not yet done: queued or on a link.
    inflight: usize,
    /// Data links started, one thread each.
    links: usize,
    /// This worker's part queue; `None` once the pool is closed.
    queue: Option<Sender<Part>>,
    /// The queue's other end, shared by the worker's data links.
    parts: Arc<Mutex<Receiver<Part>>>,
    jobs: u64,
    redispatched: u64,
    /// This worker's `shard.worker.<addr>.dispatch` histogram.
    dispatch_time: obs::Histo,
}

/// How one dispatch ended.
enum Dispatch {
    /// The worker served the range; its tallies.
    Ok(Counts),
    /// The worker's own queue is full; its back-off hint.
    Busy { retry_after_ms: u64 },
    /// The worker failed the range (connection refused/closed, I/O
    /// timeout, error or wrong-sized response, marked dead mid-read):
    /// re-dispatch it.
    Failed(String),
}

/// A scattered job's outcome: one entry per part, in part order, each
/// the part's tallies or why it failed for good.
pub type Outcomes = Vec<Result<Counts, String>>;

/// A scattered job's landing area.
struct Gather {
    redispatch_limit: usize,
    landed: Mutex<Landed>,
}

struct Landed {
    /// One slot per part, in part order.
    outcomes: Vec<Option<Result<Counts, String>>>,
    left: usize,
    finish: Option<Box<dyn FnOnce(Outcomes) + Send>>,
}

/// One sub-range of a scattered job, on its way to a worker.
struct Part {
    gather: Arc<Gather>,
    index: usize,
    range: Range<u64>,
    /// The ranged `run` request, encoded once.
    line: String,
    /// Workers that failed this part; routing skips them.
    failed: HashSet<usize>,
    redispatches: usize,
    last_error: String,
}

impl Part {
    /// Records this part's outcome. The last part of a job to land
    /// calls the job's finisher, holding no lock.
    fn land(self, outcome: Result<Counts, String>) {
        let mut landed = self.gather.landed.lock().expect("gather poisoned");
        landed.outcomes[self.index] = Some(outcome);
        landed.left -= 1;
        if landed.left > 0 {
            return;
        }
        let finish = landed.finish.take().expect("a job finishes once");
        let outcomes = landed
            .outcomes
            .drain(..)
            .map(|outcome| outcome.expect("every part landed"))
            .collect();
        drop(landed);
        finish(outcomes);
    }

    fn shot_range(&self) -> String {
        format!("shot range [{}, {})", self.range.start, self.range.end)
    }
}

fn shutting_down() -> Result<Counts, String> {
    Err("coordinator is shutting down".to_string())
}

/// Health, load, counters and links for the coordinator's workers.
pub struct WorkerPool {
    shared: Arc<Shared>,
}

/// What the pool's handle and its link threads share.
struct Shared {
    /// Budget for one ranged dispatch, from the request written to the
    /// reply read (send + execute + respond). A worker that holds a
    /// range longer than this has failed it.
    io_timeout: Duration,
    workers: Mutex<Vec<WorkerState>>,
    /// One control link per worker, each behind its own lock.
    control: Vec<Mutex<Option<Link>>>,
    /// Parts no live worker could take when routed, while a dead one
    /// that has not failed them might still come back: re-routed after
    /// each heartbeat sweep. Locked only under `workers` or alone.
    parked: Mutex<Vec<Part>>,
    /// Set, under `workers`, once the pool is closed: no part is routed
    /// or parked after that, and the heartbeat stops.
    closed: AtomicBool,
    /// `shard.dispatch`: every dispatch round trip.
    dispatch_time: obs::Histo,
    /// `shard.redispatches`: ranges lost to a failed dispatch.
    redispatches: obs::Counter,
    /// `shard.connects`: every TCP connect toward a worker.
    connects: obs::Counter,
}

impl WorkerPool {
    /// A pool over `addrs` whose dispatches fail after `io_timeout`;
    /// every worker starts dead until its first successful probe, and
    /// no link is open until first use. With a `registry`, every
    /// dispatch round trip is timed into the `shard.dispatch` histogram
    /// (and a per-worker `shard.worker.<addr>.dispatch` twin), lost
    /// ranges bump the `shard.redispatches` counter, and every TCP
    /// connect the pool makes bumps `shard.connects`; without one they
    /// are kept but not exported.
    pub fn new(
        addrs: Vec<String>,
        io_timeout: Duration,
        registry: Option<&obs::Registry>,
    ) -> WorkerPool {
        let histo = |name: &str| registry.map_or_else(obs::Histo::new, |r| r.histo(name));
        let counter = |name: &str| registry.map_or_else(obs::Counter::new, |r| r.counter(name));
        let control = addrs.iter().map(|_| Mutex::new(None)).collect();
        let workers = addrs
            .into_iter()
            .map(|addr| {
                let (queue, parts) = mpsc::channel();
                WorkerState {
                    dispatch_time: histo(&format!("shard.worker.{addr}.dispatch")),
                    addr,
                    alive: false,
                    last_ok: None,
                    inflight: 0,
                    links: 0,
                    queue: Some(queue),
                    parts: Arc::new(Mutex::new(parts)),
                    jobs: 0,
                    redispatched: 0,
                }
            })
            .collect();
        WorkerPool {
            shared: Arc::new(Shared {
                dispatch_time: histo("shard.dispatch"),
                redispatches: counter("shard.redispatches"),
                connects: counter("shard.connects"),
                workers: Mutex::new(workers),
                control,
                parked: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
                io_timeout,
            }),
        }
    }

    /// Number of currently-live workers.
    pub fn live(&self) -> usize {
        self.shared.lock().iter().filter(|w| w.alive).count()
    }

    /// Whether some live worker is below its in-flight bound (the
    /// coordinator's backpressure predicate).
    pub fn has_capacity(&self) -> bool {
        self.shared
            .lock()
            .iter()
            .any(|w| w.alive && w.inflight < MAX_INFLIGHT)
    }

    /// Heartbeats every worker: one `stats` round trip each on its
    /// control link. Answering revives a dead worker; failing kills a
    /// live one. Parked parts are routed again afterwards, since the
    /// sweep may have revived a worker they wait for.
    pub fn probe_all(&self) {
        self.shared.probe_all();
    }

    /// Starts the heartbeat thread: a [`WorkerPool::probe_all`] sweep
    /// every `interval` until the pool closes, then the `shutdown`
    /// forwarded to every worker when `propagate_shutdown` is set.
    pub(crate) fn spawn_heartbeat(
        &self,
        interval: Duration,
        propagate_shutdown: bool,
    ) -> std::io::Result<JoinHandle<()>> {
        let shared = self.shared.clone();
        std::thread::Builder::new()
            .name("shard-heartbeat".to_string())
            .spawn(move || {
                while !shared.closed.load(Ordering::SeqCst) {
                    shared.probe_all();
                    // Sleep in short slices so shutdown is prompt even
                    // under long heartbeat intervals.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !shared.closed.load(Ordering::SeqCst) {
                        let step = remaining.min(Duration::from_millis(50));
                        std::thread::sleep(step);
                        remaining -= step;
                    }
                }
                if propagate_shutdown {
                    shared.shutdown_all();
                }
            })
    }

    /// Sends each `(range, request line)` part of one job to a data
    /// link and returns at once. The link that lands the last part
    /// calls `finish` with every part's outcome, in part order: its
    /// tallies, or why it failed for good — after `redispatch_limit`
    /// re-dispatches, with no live worker left, or at shutdown.
    pub fn scatter(
        &self,
        parts: Vec<(Range<u64>, String)>,
        redispatch_limit: usize,
        finish: impl FnOnce(Outcomes) + Send + 'static,
    ) {
        if parts.is_empty() {
            return finish(Vec::new());
        }
        let gather = Arc::new(Gather {
            redispatch_limit,
            landed: Mutex::new(Landed {
                outcomes: vec![None; parts.len()],
                left: parts.len(),
                finish: Some(Box::new(finish)),
            }),
        });
        for (index, (range, line)) in parts.into_iter().enumerate() {
            self.shared.route(Part {
                gather: gather.clone(),
                index,
                range,
                line,
                failed: HashSet::new(),
                redispatches: 0,
                last_error: String::new(),
            });
        }
    }

    /// One `metrics` round trip per live worker, yielding the
    /// snapshots that answered. A worker that fails the round trip is
    /// simply skipped — health bookkeeping stays with the heartbeat.
    pub fn fetch_metrics(&self) -> Vec<obs::Snapshot> {
        let live: Vec<usize> = self
            .shared
            .lock()
            .iter()
            .enumerate()
            .filter(|(_, w)| w.alive)
            .map(|(idx, _)| idx)
            .collect();
        live.into_iter()
            .filter_map(|idx| match self.shared.round_trip(idx, Op::Metrics) {
                Some(Response::Metrics { snapshot, .. }) => Some(snapshot),
                _ => None,
            })
            .collect()
    }

    /// Closes the pool. Queued and parked parts land as "coordinator is
    /// shutting down"; each link thread exits, closing its connection,
    /// once its current part is done; the heartbeat stops, and forwards
    /// the `shutdown` over the control links if it was asked to.
    /// Idempotent.
    pub(crate) fn close(&self) {
        let mut workers = self.shared.lock();
        self.shared.closed.store(true, Ordering::SeqCst);
        for worker in workers.iter_mut() {
            worker.queue = None;
        }
        let parked = std::mem::take(&mut *self.shared.parked.lock().expect("parked poisoned"));
        drop(workers);
        for part in parked {
            part.land(shutting_down());
        }
    }

    /// One [`WorkerRow`] per configured worker, for the coordinator's
    /// `stats` response.
    pub fn rows(&self) -> Vec<WorkerRow> {
        self.shared
            .lock()
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

impl Drop for WorkerPool {
    /// Link and heartbeat threads hold the shared state, so only
    /// closing the pool lets them exit.
    fn drop(&mut self) {
        self.close();
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Vec<WorkerState>> {
        self.workers.lock().expect("worker pool poisoned")
    }

    fn probe_all(self: &Arc<Self>) {
        for idx in 0..self.control.len() {
            let alive = matches!(
                self.round_trip(idx, Op::Stats),
                Some(Response::Stats { .. })
            );
            let mut workers = self.lock();
            let worker = &mut workers[idx];
            worker.alive = alive;
            if alive {
                worker.last_ok = Some(Instant::now());
            }
        }
        let parked = std::mem::take(&mut *self.parked.lock().expect("parked poisoned"));
        for part in parked {
            self.route(part);
        }
    }

    /// Best-effort `shutdown` to every configured worker, alive or not,
    /// waiting up to the probe budget for each `bye`.
    fn shutdown_all(&self) {
        for idx in 0..self.control.len() {
            let _ = self.round_trip(idx, Op::Shutdown);
        }
    }

    /// Sends `part` to the least-loaded live worker that has not failed
    /// it, starting a data link there when the worker has fewer links
    /// than parts. With no such worker, the part fails if no worker is
    /// left to try it and parks until the next heartbeat sweep if a
    /// dead one might come back.
    fn route(self: &Arc<Self>, part: Part) {
        let mut workers = self.lock();
        if self.closed.load(Ordering::SeqCst) {
            drop(workers);
            return part.land(shutting_down());
        }
        let pick = workers
            .iter()
            .enumerate()
            .filter(|(i, w)| w.alive && !part.failed.contains(i))
            .min_by_key(|(_, w)| w.inflight)
            .map(|(i, _)| i);
        let Some(idx) = pick else {
            let stranded = !workers.iter().any(|w| w.alive) || part.failed.len() >= workers.len();
            if !stranded {
                self.parked.lock().expect("parked poisoned").push(part);
                return;
            }
            drop(workers);
            let error = format!(
                "{} has no live worker left{}",
                part.shot_range(),
                if part.last_error.is_empty() {
                    String::new()
                } else {
                    format!(" (last failure: {})", part.last_error)
                }
            );
            return part.land(Err(error));
        };
        let worker = &mut workers[idx];
        let queue = worker.queue.as_ref().expect("an open pool has every queue");
        queue
            .send(part)
            .expect("the pool holds every queue's receiver");
        worker.inflight += 1;
        let new_link = worker.inflight > worker.links && worker.links < MAX_INFLIGHT;
        if !new_link {
            return;
        }
        worker.links += 1;
        let parts = worker.parts.clone();
        let addr = worker.addr.clone();
        let worker_time = worker.dispatch_time.clone();
        drop(workers);
        let shared = self.clone();
        std::thread::Builder::new()
            .name(format!("shard-link-{idx}"))
            .spawn(move || shared.run_link(idx, &addr, &worker_time, &parts))
            .expect("spawn link");
    }

    /// A data link's thread: serves parts off its worker's queue, one
    /// at a time, over one kept connection, until the pool closes.
    fn run_link(
        self: &Arc<Self>,
        idx: usize,
        addr: &str,
        worker_time: &obs::Histo,
        parts: &Mutex<Receiver<Part>>,
    ) {
        let mut link = None;
        loop {
            let next = parts.lock().expect("part queue poisoned").recv();
            let Ok(part) = next else { return };
            self.serve(idx, addr, worker_time, &mut link, part);
        }
    }

    /// Dispatches one part and acts on the outcome: land it, wait out a
    /// `busy` and route it again, or book the failure and hand it to
    /// the next live worker. Determinism makes the retry free — any
    /// worker, any attempt, same tallies.
    fn serve(
        self: &Arc<Self>,
        idx: usize,
        addr: &str,
        worker_time: &obs::Histo,
        link: &mut Option<Link>,
        mut part: Part,
    ) {
        let alive = self.lock()[idx].alive;
        if !alive || self.closed.load(Ordering::SeqCst) {
            // A part whose worker died while it queued was never sent:
            // route it again, unbooked.
            self.release(idx, false);
            return self.route(part);
        }
        let started = Instant::now();
        let outcome = self.dispatch(idx, addr, link, &part);
        let elapsed = started.elapsed();
        self.dispatch_time.record_duration(elapsed);
        worker_time.record_duration(elapsed);
        match outcome {
            Dispatch::Ok(counts) => {
                self.release(idx, false);
                part.land(Ok(counts));
            }
            Dispatch::Busy { retry_after_ms } => {
                // The worker is healthy, just saturated: honor its hint
                // (capped) and try again without penalty.
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 200)));
                self.release(idx, false);
                self.route(part);
            }
            Dispatch::Failed(error) => {
                self.release(idx, true);
                part.failed.insert(idx);
                part.redispatches += 1;
                part.last_error = error;
                if part.redispatches <= part.gather.redispatch_limit {
                    return self.route(part);
                }
                let error = format!(
                    "{} failed after {} dispatch attempts (last failure: {})",
                    part.shot_range(),
                    part.redispatches,
                    part.last_error
                );
                part.land(Err(error));
            }
        }
    }

    /// Returns a part's in-flight slot on `idx`. A failed part is also
    /// booked as lost and marks the worker dead (the next successful
    /// heartbeat revives it).
    fn release(&self, idx: usize, failed: bool) {
        let mut workers = self.lock();
        let worker = &mut workers[idx];
        worker.inflight = worker.inflight.saturating_sub(1);
        if failed {
            worker.redispatched += 1;
            worker.alive = false;
            drop(workers);
            self.redispatches.inc();
        }
    }

    /// Sends one part's ranged `run` over `link` and waits for the
    /// reply, which must answer exactly the part's range.
    fn dispatch(&self, idx: usize, addr: &str, link: &mut Option<Link>, part: &Part) -> Dispatch {
        let io_timeout = self.io_timeout;
        let wait = |elapsed: Duration| {
            if !self.lock()[idx].alive {
                return Err(format!("worker {addr}: marked dead mid-dispatch"));
            }
            if elapsed >= io_timeout {
                return Err(format!("worker {addr}: no response within {io_timeout:?}"));
            }
            Ok(())
        };
        let reply = match self.exchange(addr, link, READ_SLICE, io_timeout, &part.line, wait) {
            Ok(reply) => reply,
            Err(error) => return Dispatch::Failed(error),
        };
        match Response::from_line(&reply) {
            Ok(Response::Ok { shots, tallies, .. }) => {
                let len = part.range.end - part.range.start;
                let sum: u64 = tallies.values().map(|&n| n as u64).sum();
                if shots != len || sum != len {
                    return Dispatch::Failed(format!(
                        "worker {addr}: reply to {} carries {shots} shots tallied {sum} times",
                        part.shot_range()
                    ));
                }
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
            Err(e) => {
                *link = None;
                Dispatch::Failed(format!("worker {addr}: unparseable response: {e}"))
            }
        }
    }

    /// One request line to worker `idx` over its control link and the
    /// response line, each way bounded by the probe budget: the
    /// heartbeat's `stats`, the `metrics` gather and the forwarded
    /// `shutdown`. `None` when the worker is unreachable or does not
    /// answer in time.
    fn round_trip(&self, idx: usize, op: Op) -> Option<Response> {
        let addr = self.lock()[idx].addr.clone();
        let line = Request { id: None, op }.to_line();
        let mut control = self.control[idx].lock().expect("control link poisoned");
        let reply = self
            .exchange(
                &addr,
                &mut control,
                PROBE_TIMEOUT,
                PROBE_TIMEOUT,
                &line,
                |_| Err(String::new()),
            )
            .ok()?;
        Response::from_line(&reply).ok()
    }

    /// One request line out and its reply line in over `link`. An
    /// absent link is opened first, with reads timing out every
    /// `read_slice` (each timeout asks `wait` whether to go on) and
    /// writes after `write_timeout`. A kept link the worker closed
    /// while idle is reopened once, quietly. Any other failure closes
    /// the link, so a late reply is never read as the answer to the
    /// next request.
    fn exchange(
        &self,
        addr: &str,
        link: &mut Option<Link>,
        read_slice: Duration,
        write_timeout: Duration,
        line: &str,
        mut wait: impl FnMut(Duration) -> Result<(), String>,
    ) -> Result<String, String> {
        let mut kept = link.is_some();
        let mut closed_error = None;
        loop {
            let open = match link {
                Some(open) => open,
                None => match self.open(addr, read_slice, write_timeout) {
                    Some(open) => link.insert(open),
                    None => {
                        return Err(closed_error
                            .unwrap_or_else(|| format!("worker {addr}: connect failed")))
                    }
                },
            };
            let broken = match open.exchange(addr, line, &mut wait) {
                Ok(reply) => return Ok(reply),
                Err(broken) => broken,
            };
            *link = None;
            match broken {
                Broken::Closed(error) if kept => {
                    kept = false;
                    closed_error = Some(error);
                }
                Broken::Closed(error) | Broken::Failed(error) => return Err(error),
            }
        }
    }

    /// Opens a link to `addr`: the only place the pool connects.
    fn open(&self, addr: &str, read_slice: Duration, write_timeout: Duration) -> Option<Link> {
        self.connects.inc();
        let stream = connect(addr, PROBE_TIMEOUT)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(read_slice));
        let _ = stream.set_write_timeout(Some(write_timeout));
        Some(Link(BufReader::new(stream)))
    }
}

/// One kept connection to a worker: a request line out, its reply line
/// in, one exchange at a time.
struct Link(BufReader<TcpStream>);

/// How a link exchange failed.
enum Broken {
    /// The connection ended before any byte of the reply. On a kept
    /// link this is the worker having closed it while idle.
    Closed(String),
    /// Anything else: the worker failed the request.
    Failed(String),
}

impl Link {
    fn exchange(
        &mut self,
        addr: &str,
        line: &str,
        wait: &mut impl FnMut(Duration) -> Result<(), String>,
    ) -> Result<String, Broken> {
        if let Err(e) = self.0.get_mut().write_all(line.as_bytes()) {
            let error = format!("worker {addr}: send failed: {e}");
            return Err(if peer_closed(&e) {
                Broken::Closed(error)
            } else {
                Broken::Failed(error)
            });
        }
        let started = Instant::now();
        let mut reply = String::new();
        loop {
            match self.0.read_line(&mut reply) {
                Ok(0) => {
                    let error = format!("worker {addr}: connection closed");
                    return Err(if reply.is_empty() {
                        Broken::Closed(error)
                    } else {
                        Broken::Failed(error)
                    });
                }
                Ok(_) => return Ok(reply),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    wait(started.elapsed()).map_err(Broken::Failed)?;
                }
                Err(e) => {
                    let error = format!("worker {addr}: read failed: {e}");
                    return Err(if reply.is_empty() && peer_closed(&e) {
                        Broken::Closed(error)
                    } else {
                        Broken::Failed(error)
                    });
                }
            }
        }
    }
}

fn peer_closed(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
    )
}

fn connect(addr: &str, timeout: Duration) -> Option<TcpStream> {
    use std::net::ToSocketAddrs;
    let addr = addr.to_socket_addrs().ok()?.next()?;
    TcpStream::connect_timeout(&addr, timeout).ok()
}
