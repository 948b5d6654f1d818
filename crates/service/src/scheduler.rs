//! The scheduler: bounded admission, shot-slicing, and coalescing.
//!
//! Three disciplines keep the serving path predictable under load
//! (McKenney's bounded-queue/backpressure guidance):
//!
//! 1. **Bounded admission.** At most `queue_capacity` jobs may be
//!    in flight (queued or executing); further distinct requests are
//!    rejected with `busy` + a retry hint instead of growing an
//!    unbounded queue. Rejection is *explicit backpressure* — the
//!    client knows immediately, instead of timing out.
//! 2. **Shot-slicing, for fairness and for idle workers.** A job's
//!    shots are carved into ranges of at most `slice_shots` and the job
//!    queue is rotated round-robin, so a 10⁶-shot job cannot convoy
//!    short jobs behind it. And when a worker claims a slice while
//!    sibling workers are parked with nothing to do, it carves the
//!    job's remaining shots into one share per parked worker plus
//!    itself (no share under `MIN_SHARE` = 256 shots), and the parked
//!    workers take the rest: a job smaller than `slice_shots` uses
//!    every idle worker, not one (McKenney's partitioning: split the
//!    work when someone is there to take it, and only then). Under
//!    load — nobody parked — the carve is exactly the `slice_shots`
//!    quantum. Either way a slice is [`PreparedJob::run_range`] on the
//!    job's global shot indices — the call `Backend::sample_shots`
//!    makes once over `0..shots` — so the merged tallies are
//!    **bit-identical** to that uninterrupted run: slicing changes
//!    latency distribution, never results. The scheduler only carves
//!    and merges; how a slice executes (threads, amp policy, metrics,
//!    recording) belongs to the engine the worker pool passes in.
//! 3. **Coalescing.** A request identical to an in-flight job (same
//!    [`CacheKey`]: canonical circuit, backend, shots, seed) attaches
//!    to that job as an extra waiter instead of executing again;
//!    determinism guarantees every waiter receives the same tallies.
//! 4. **Per-client fair share.** Jobs are grouped by the request's
//!    `client` identity (absent ⇒ the anonymous client `""`), and
//!    slices round-robin across *clients* first, then across each
//!    client's jobs — so a client submitting ten jobs gets the same
//!    slice cadence as one submitting one. A per-client in-flight shot
//!    quota ([`SchedulerConfig::client_quota_shots`]) additionally
//!    bounds how much queued work a single identity can hold; beyond
//!    it, that client's *distinct* new jobs are rejected `busy`
//!    (coalescing onto in-flight work stays free — it costs nothing).
//!
//! The interleaving is deterministic: admission order fixes the
//! client ring and each client's job queue, so when no worker is
//! parked a given submission sequence always carves the same slice
//! sequence. With parked workers the carve also depends on how many
//! there are at each claim; the tallies, and so the served bytes,
//! never do.
//!
//! The scheduler is a passive `Mutex`+`Condvar` structure: callers
//! submit through [`Scheduler::submit`] (or, as the server's
//! [`JobBackend`], the front end's non-blocking [`JobBackend::submit`]),
//! and the server's worker pool drains [`Scheduler::next_slice`] /
//! [`Scheduler::complete_slice`].

use crate::admission::{Admission, AdmissionCache};
use crate::cache::{CacheKey, DiskCacheConfig, ResultCache};
use crate::frontend::{self, busy, ok_response, JobBackend, Lookup, ServiceCounters, Waiter};
use crate::protocol::{ClientRow, Response, RunRequest, ServiceStats};
use engine::{merge_counts, Counts, PreparedJob};
use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow::{self, Break, Continue};
use std::ops::Range;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Most qubits a served circuit may declare. The exponential backends
/// bound themselves far below this (statevector ≤ 26, density ≤ 13);
/// this cap exists for the stabilizer tableau, whose O(n²) state has
/// no intrinsic limit — without it, a hostile register declaration
/// becomes an allocation abort instead of an error response.
pub const MAX_REQUEST_QUBITS: usize = 1024;

/// Most classical bits a served circuit may declare: records are
/// packed into one 64-bit word (the `sample_shots` tally convention).
pub const MAX_REQUEST_CBITS: usize = 64;

/// Fewest shots a job is split into a share for a parked worker. A
/// share must outweigh waking its worker and merging its tallies: on a
/// 2-core host, splitting a noisy GHZ-12 stabilizer job broke even at
/// 64-shot shares (≈ 10 µs of execution) and won ≈ 30 µs of p50 at
/// 256-shot ones. 256 keeps every share ≈ 4× past break-even, so a
/// slower wake-up on a busier host still does not make a split lose.
const MIN_SHARE: u64 = 256;

/// Admission and slicing knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum jobs in flight (queued + executing) before distinct new
    /// requests are rejected with `busy`.
    pub queue_capacity: usize,
    /// Most shots per slice — the fairness quantum. Large jobs are
    /// carved into ranges of this size and interleaved round-robin. A
    /// claim made while sibling workers are parked carves smaller, one
    /// share per idle worker (see the module docs); under load every
    /// slice but a job's last is exactly this size.
    pub slice_shots: u64,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Most in-flight (queued + executing) shots one client identity
    /// may hold; a distinct new job that would exceed it is rejected
    /// `busy` and counted in `rejected_quota`. `u64::MAX` (the
    /// default) disables the quota.
    pub client_quota_shots: u64,
    /// Sustained shots-per-second each client identity may submit,
    /// enforced as a token bucket with a one-second burst (capacity =
    /// the rate; a single job larger than the rate is always
    /// rejected). Beyond it, distinct new jobs are rejected `busy` and
    /// counted in `rejected_rate`. Like the in-flight quota,
    /// coalescing and cache hits stay free. `u64::MAX` (the default)
    /// disables rate limiting.
    pub client_quota_shots_per_sec: u64,
    /// Optional observability registry. The scheduler always records
    /// per-stage latency histograms (`stage.parse`, `stage.admission`,
    /// `stage.cache_lookup`, `stage.compile`, `stage.merge`), cache
    /// counters (`cache.{hits,misses,evictions,probes}`), admission counters
    /// (`sched.*`) and a slow-trace ring; with a registry they are
    /// exported under those names, without one they are kept but not
    /// exported. The `stats` op reads the same counters either way.
    /// Instrumentation never changes a served byte.
    pub metrics: Option<obs::Registry>,
    /// Optional disk tier for the result cache: completed results are
    /// persisted (write-through) and a restarted scheduler serves them
    /// warm. `None` keeps the cache memory-only.
    pub disk: Option<DiskCacheConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: 32,
            slice_shots: 4096,
            cache_capacity: 256,
            client_quota_shots: u64::MAX,
            client_quota_shots_per_sec: u64::MAX,
            metrics: None,
            disk: None,
        }
    }
}

/// One unit of worker work: a slice of a prepared job.
pub struct SliceTask {
    /// The job's identity (hand back to
    /// [`Scheduler::complete_slice`]).
    pub key: CacheKey,
    /// The client identity the slice is charged to (`""` for
    /// anonymous requests) — exposed so fairness tests can assert the
    /// interleaving.
    pub client: String,
    /// The compiled job (shared, read-only).
    pub prepared: Arc<PreparedJob>,
    /// Global shot indices to execute.
    pub range: Range<u64>,
}

/// How [`Scheduler::submit`] answered.
pub enum Submission {
    /// The response is already known (cache hit, rejection, error, or
    /// a zero-shot run).
    Immediate(Response),
    /// The job is in flight; the response arrives on this channel when
    /// its last slice completes.
    Pending(mpsc::Receiver<Response>),
}

/// Where a pending job's response goes when its last slice lands.
///
/// The blocking [`Scheduler::submit`] path waits on a channel; the
/// front end's path ([`JobBackend::submit`]) hands over a one-shot
/// callback that resolves the connection's reply slot. Either way the
/// scheduler fires it exactly once — or drops it on shutdown, which a
/// channel receiver observes as disconnection and a callback owner
/// handles via its abandoned-reply hook.
pub enum Responder {
    /// Deliver on an in-process channel.
    Channel(mpsc::Sender<Response>),
    /// Invoke a one-shot callback (must not block).
    Callback(Box<dyn FnOnce(Response) + Send>),
}

impl Responder {
    /// Fires the responder. A hung-up channel receiver is ignored —
    /// the waiter's connection died, nobody is listening.
    pub fn respond(self, response: Response) {
        match self {
            Responder::Channel(tx) => {
                let _ = tx.send(response);
            }
            Responder::Callback(callback) => callback(response),
        }
    }
}

/// Per-client counters behind the `stats` op's `clients` rows.
#[derive(Default)]
struct ClientTally {
    admitted: u64,
    completed: u64,
    coalesced: u64,
    rejected_quota: u64,
    rejected_rate: u64,
    /// Shots of this client's jobs currently queued or executing —
    /// the quantity the quota bounds.
    inflight_shots: u64,
    /// Token-bucket state for the shots-per-second quota: tokens left
    /// at `bucket_at` (a fresh client starts with a full bucket).
    bucket_tokens: f64,
    bucket_at: Option<Instant>,
}

impl ClientTally {
    /// Refills the token bucket to `now` (capacity = `rate`, i.e. a
    /// one-second burst) and returns the balance.
    fn refill(&mut self, rate: u64, now: Instant) -> f64 {
        let cap = rate as f64;
        let tokens = match self.bucket_at {
            None => cap,
            Some(at) => {
                let elapsed = now.saturating_duration_since(at).as_secs_f64();
                (self.bucket_tokens + elapsed * cap).min(cap)
            }
        };
        self.bucket_tokens = tokens;
        self.bucket_at = Some(now);
        tokens
    }
}

/// The scheduler's recording handles (see [`SchedulerConfig::metrics`]):
/// resolved from the registry once at construction, or unattached
/// without one. Recording is lock-free either way.
struct SchedObs {
    counters: ServiceCounters,
    admitted: obs::Counter,
    parse: obs::Histo,
    admission: obs::Histo,
    compile: obs::Histo,
    merge: obs::Histo,
    slow: obs::SlowLog,
}

impl SchedObs {
    fn new(registry: Option<&obs::Registry>) -> SchedObs {
        let histo = |name: &str| registry.map_or_else(obs::Histo::new, |r| r.histo(name));
        SchedObs {
            counters: ServiceCounters::new(registry, ""),
            admitted: registry.map_or_else(obs::Counter::new, |r| r.counter("sched.admitted")),
            parse: histo("stage.parse"),
            admission: histo("stage.admission"),
            compile: histo("stage.compile"),
            merge: histo("stage.merge"),
            slow: registry.map_or_else(obs::SlowLog::default, |r| r.slow().clone()),
        }
    }
}

/// Which admission gate turned a distinct new job away.
enum Rejection {
    /// The job table is full (`queue_capacity`).
    Queue,
    /// The client's in-flight shot quota is exhausted.
    Quota,
    /// The client's shots-per-second token bucket is exhausted.
    Rate,
}

struct Job {
    prepared: Arc<PreparedJob>,
    /// The identity the job is charged to (`""` for anonymous).
    client: String,
    /// Exclusive global end of the job's shot range (`key.start +
    /// key.shots`).
    end: u64,
    /// Next global shot index not yet handed to a worker (starts at
    /// `key.start`).
    next_shot: u64,
    /// Slices currently executing.
    outstanding: usize,
    partial: Counts,
    waiters: Vec<Waiter>,
    /// When the request's parse began, plus the stage nanoseconds
    /// measured so far — the raw material of its slow-request trace,
    /// whose total therefore spans every stage it lists. Telemetry
    /// only; never touches the response.
    received_at: Instant,
    parse_ns: u64,
    compile_ns: u64,
    merge_ns: u64,
}

struct Inner {
    /// Round-robin ring of clients that have jobs with unsliced shots.
    /// Invariant: `ring` holds exactly the keys of `client_queues`
    /// (each of which is non-empty), in rotation order.
    ring: VecDeque<String>,
    /// Per-client round-robin order of that client's unsliced jobs.
    client_queues: HashMap<String, VecDeque<CacheKey>>,
    client_stats: HashMap<String, ClientTally>,
    jobs: HashMap<CacheKey, Job>,
    cache: ResultCache,
    /// Workers blocked in [`Scheduler::next_slice`]'s wait (counted
    /// from before the wait until after it returns, so a woken worker
    /// still counts until it holds the lock again).
    parked: usize,
    shutdown: bool,
}

impl Inner {
    fn tally(&mut self, client: &str) -> &mut ClientTally {
        // `raw_entry` would avoid the miss-path allocation, but it is
        // unstable; clients are few and the map is hot in cache.
        self.client_stats.entry(client.to_string()).or_default()
    }
}

/// Nanoseconds since `start`, saturated to `u64` (584 years).
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The shared scheduling state. Cheap to clone (`Arc` internally).
#[derive(Clone)]
pub struct Scheduler {
    shared: Arc<Shared>,
}

/// What every clone of a [`Scheduler`] shares: the immutable knobs and
/// recording handles beside the lock, so reading or recording them
/// never waits on queue surgery.
struct Shared {
    config: SchedulerConfig,
    obs: SchedObs,
    /// Parsed circuits and seed-free prepared jobs, kept across
    /// requests (`crate::admission`).
    admission: AdmissionCache,
    state: Mutex<Inner>,
    /// Signalled when slices become available (or on shutdown).
    work: Condvar,
}

impl Scheduler {
    /// A fresh scheduler with the given knobs. With
    /// [`SchedulerConfig::disk`] set, the result cache opens (and
    /// scans) the spill directory — a previous process's results are
    /// warm immediately.
    pub fn new(config: SchedulerConfig) -> Self {
        let mut cache = match config.disk.clone() {
            Some(disk) => ResultCache::with_disk(config.cache_capacity, disk),
            None => ResultCache::new(config.cache_capacity),
        };
        let registry = config.metrics.as_ref();
        cache.evictions = registry.map_or_else(obs::Counter::new, |r| r.counter("cache.evictions"));
        let obs = SchedObs::new(registry);
        cache.probes = obs.counters.probes.clone();
        cache.lookups = registry.map_or_else(obs::Histo::new, |r| r.histo("stage.cache_lookup"));
        let admission = AdmissionCache::new(registry, "");
        Scheduler {
            shared: Arc::new(Shared {
                config,
                obs,
                admission,
                state: Mutex::new(Inner {
                    ring: VecDeque::new(),
                    client_queues: HashMap::new(),
                    client_stats: HashMap::new(),
                    jobs: HashMap::new(),
                    cache,
                    parked: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.shared.state.lock().expect("scheduler poisoned")
    }

    /// Admits one run request: serves it from cache, coalesces it onto
    /// an identical in-flight job, rejects it with `busy`, or queues
    /// it for execution. Blocking-channel form of the front end's path
    /// ([`JobBackend::lookup`], then [`JobBackend::submit`]).
    pub fn submit(&self, id: Option<String>, run: &RunRequest) -> Submission {
        let admission = match self.lookup(run) {
            Lookup::Hit { key, tallies } => {
                return Submission::Immediate(ok_response(id, &key, tallies, true, false))
            }
            Lookup::Submit(admission) => admission,
        };
        let (tx, rx) = mpsc::channel();
        let mut responder = Some(Responder::Channel(tx));
        match JobBackend::submit(self, id, run, admission, &mut responder) {
            Some(response) => Submission::Immediate(response),
            None => Submission::Pending(rx),
        }
    }

    /// Everything that can answer a request before it is queued, under
    /// the lock and in order: the cache, an identical in-flight job,
    /// shutdown, and the admission gates. It runs twice per admission,
    /// before and after the compile. Only the final pass
    /// (`charge = true`) deducts from the client's rate-limit token
    /// bucket, so a job is charged exactly once, when it is admitted.
    ///
    /// The cache is read by [`ResultCache::get_guarded`] for a key that
    /// missed memory at `missed_at`; the rest of the checks run after
    /// that, on the state as it is then. Continues with the lock, held,
    /// if nothing answered the request, or breaks with what
    /// [`JobBackend::submit`] returns: the reply (a cache hit, a
    /// rejection or an error), or `None` once it joined an identical
    /// in-flight job.
    fn settle(
        &self,
        key: &CacheKey,
        id: Option<String>,
        client: &str,
        responder: &mut Option<Responder>,
        missed_at: &mut Option<u64>,
        charge: bool,
    ) -> ControlFlow<Option<Response>, MutexGuard<'_, Inner>> {
        let obs = &self.shared.obs;
        let (mut inner, hit) = ResultCache::get_guarded(
            &self.shared.state,
            |inner: &mut Inner| &mut inner.cache,
            key,
            missed_at,
        );
        if let Some(tallies) = hit {
            obs.counters.cache_hits.inc();
            return Break(Some(ok_response(id, key, tallies, true, false)));
        }
        if let Some(job) = inner.jobs.get_mut(key) {
            obs.counters.coalesced.inc();
            job.waiters.push(Waiter {
                responder: responder.take().expect("responder available to join"),
                id,
                coalesced: true,
            });
            // Coalescing is free — the work runs once regardless — so
            // it is never charged against the client's quota.
            inner.tally(client).coalesced += 1;
            return Break(None);
        }
        if inner.shutdown {
            // With the workers gone (shutdown may also have raced the
            // compile), a queued job would strand its waiter forever.
            obs.counters.errors.inc();
            let error = "server is shutting down".to_string();
            return Break(Some(Response::Error { id, error }));
        }
        let gates_started = Instant::now();
        let gated = self.gate(&mut inner, key, client, charge);
        obs.admission.record(elapsed_ns(gates_started));
        let Err(rejection) = gated else {
            return Continue(inner);
        };
        match rejection {
            Rejection::Queue => obs.counters.rejected_busy.inc(),
            Rejection::Quota => {
                obs.counters.rejected_quota.inc();
                inner.tally(client).rejected_quota += 1;
            }
            Rejection::Rate => {
                obs.counters.rejected_rate.inc();
                inner.tally(client).rejected_rate += 1;
            }
        }
        Break(Some(busy(id, inner.jobs.len() as u64)))
    }

    /// The capacity, quota and rate gates, in that order.
    fn gate(
        &self,
        inner: &mut Inner,
        key: &CacheKey,
        client: &str,
        charge: bool,
    ) -> Result<(), Rejection> {
        let config = &self.shared.config;
        if inner.jobs.len() >= config.queue_capacity {
            return Err(Rejection::Queue);
        }
        let quota = config.client_quota_shots;
        if key.shots > 0 && inner.tally(client).inflight_shots.saturating_add(key.shots) > quota {
            return Err(Rejection::Quota);
        }
        let rate = config.client_quota_shots_per_sec;
        if rate != u64::MAX && key.shots > 0 {
            let tally = inner.tally(client);
            let tokens = tally.refill(rate, Instant::now());
            if (key.shots as f64) > tokens {
                return Err(Rejection::Rate);
            }
            if charge {
                tally.bucket_tokens = tokens - key.shots as f64;
            }
        }
        Ok(())
    }

    /// Blocks until a slice is available (or shutdown), then claims
    /// it. The rotation is two-level round-robin: the front *client*
    /// of the ring yields a slice of its front job, then the job goes
    /// to the back of that client's queue if shots remain and the
    /// client goes to the back of the ring if jobs remain — a greedy
    /// client cannot convoy a light one, and a long job cannot convoy
    /// short ones within a client.
    ///
    /// The slice is at most `slice_shots`, and smaller when workers are
    /// parked: the job's remaining shots are shared between them and
    /// the claimer, and the parked workers — woken when the job was
    /// queued — claim the rest.
    ///
    /// Returns `None` on shutdown — the worker should exit.
    pub fn next_slice(&self) -> Option<SliceTask> {
        let mut inner = self.lock();
        loop {
            if inner.shutdown {
                return None;
            }
            if let Some(client) = inner.ring.pop_front() {
                let quantum = self.shared.config.slice_shots.max(1);
                // The claimer plus every parked sibling.
                let idle = inner.parked as u64 + 1;
                let key = inner
                    .client_queues
                    .get_mut(&client)
                    .expect("ring client has a queue")
                    .pop_front()
                    .expect("ring queues are non-empty");
                let job = inner.jobs.get_mut(&key).expect("queued job exists");
                let start = job.next_shot;
                let remaining = job.end - start;
                // One share per idle worker, none under MIN_SHARE.
                let shares = idle.min(remaining / MIN_SHARE).max(1);
                let end = start + quantum.min(remaining.div_ceil(shares));
                let job_end = job.end;
                job.next_shot = end;
                job.outstanding += 1;
                let prepared = job.prepared.clone();
                if end < job_end {
                    inner
                        .client_queues
                        .get_mut(&client)
                        .expect("queue still present")
                        .push_back(key.clone());
                }
                let exhausted = inner
                    .client_queues
                    .get(&client)
                    .is_none_or(|queue| queue.is_empty());
                if exhausted {
                    inner.client_queues.remove(&client);
                } else {
                    inner.ring.push_back(client.clone());
                }
                return Some(SliceTask {
                    key,
                    client,
                    prepared,
                    range: start..end,
                });
            }
            inner.parked += 1;
            inner = self.shared.work.wait(inner).expect("scheduler poisoned");
            inner.parked -= 1;
        }
    }

    /// Merges a finished slice. When the job's last slice lands, the
    /// result is cached and every waiter (submitter + coalesced) gets
    /// its response — after the lock is released, as is the result's
    /// disk spill, so neither reply encoding nor file I/O holds up
    /// submitters or the other workers.
    pub fn complete_slice(&self, key: &CacheKey, counts: Counts) {
        let mut inner = self.lock();
        // Shutdown may have dropped the job while this slice was
        // executing; its waiters are already failed, so the partial
        // result is simply discarded.
        let Some(job) = inner.jobs.get_mut(key) else {
            return;
        };
        let merge_started = Instant::now();
        merge_counts(&mut job.partial, counts);
        job.outstanding -= 1;
        let merge_ns = elapsed_ns(merge_started);
        job.merge_ns += merge_ns;
        let done = job.next_shot >= job.end && job.outstanding == 0;
        let obs = &self.shared.obs;
        obs.merge.record(merge_ns);
        if !done {
            return;
        }
        let job = inner.jobs.remove(key).expect("job present");
        let spill = inner
            .cache
            .insert_deferred(key.clone(), job.partial.clone());
        obs.counters.completed.inc();
        let tally = inner.tally(&job.client);
        tally.completed += 1;
        tally.inflight_shots = tally.inflight_shots.saturating_sub(key.shots);
        drop(inner);
        // Persisted before anyone is answered, but off the lock.
        if let Some(spill) = spill {
            spill.write();
        }
        obs.slow.record(obs::SlowTrace {
            label: format!("{} shots={}", key.backend, key.shots),
            total_ns: elapsed_ns(job.received_at),
            stages: vec![
                ("parse".to_string(), job.parse_ns),
                ("compile".to_string(), job.compile_ns),
                ("merge".to_string(), job.merge_ns),
            ],
        });
        Waiter::answer_all(job.waiters, key, &Ok(job.partial));
    }

    /// Counter snapshot (gauges filled at read time; the reactor's
    /// connection gauges are merged in by the serving layer).
    pub fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        self.counters().stats(inner.jobs.len(), &inner.cache)
    }

    /// Per-client counter rows for the `stats` op, sorted by client
    /// name (the anonymous client `""` sorts first).
    pub fn client_rows(&self) -> Vec<ClientRow> {
        let inner = self.lock();
        let mut rows: Vec<ClientRow> = inner
            .client_stats
            .iter()
            .map(|(name, tally)| ClientRow {
                client: name.clone(),
                admitted: tally.admitted,
                completed: tally.completed,
                coalesced: tally.coalesced,
                rejected_quota: tally.rejected_quota,
                rejected_rate: tally.rejected_rate,
                inflight_shots: tally.inflight_shots,
            })
            .collect();
        rows.sort_by(|a, b| a.client.cmp(&b.client));
        rows
    }

    /// Stops the scheduler: wakes all workers (they observe shutdown
    /// and exit), drops queued jobs, and fails their waiters (channel
    /// receivers see disconnection; callback responders fire their
    /// owner's abandoned-reply path on drop).
    pub fn shutdown(&self) {
        let mut inner = self.lock();
        inner.shutdown = true;
        inner.ring.clear();
        inner.client_queues.clear();
        inner.jobs.clear();
        // No job survives shutdown, so no shots are in flight.
        for tally in inner.client_stats.values_mut() {
            tally.inflight_shots = 0;
        }
        self.shared.work.notify_all();
    }
}

/// The single-machine server's backend: jobs run as slices on the
/// local worker pool.
impl JobBackend for Scheduler {
    fn role(&self) -> &'static str {
        "server"
    }

    fn counters(&self) -> &ServiceCounters {
        &self.shared.obs.counters
    }

    fn lookup(&self, run: &RunRequest) -> Lookup {
        let shared = &self.shared;
        frontend::lookup(
            run,
            &shared.admission,
            &shared.state,
            |inner: &mut Inner| &mut inner.cache,
            &shared.obs.counters,
            &shared.obs.parse,
        )
    }

    /// Never waits on execution, only on the scheduler lock, which is
    /// held for queue surgery, never for simulation.
    fn submit(
        &self,
        id: Option<String>,
        run: &RunRequest,
        admission: Admission,
        responder: &mut Option<Responder>,
    ) -> Option<Response> {
        // The fair-share identity. `None` and `""` are the same
        // anonymous client by construction.
        let client = run.client.clone().unwrap_or_default();
        // Admit outside the scheduler lock. The pipeline (backend parse,
        // QASM parse, serving limits, shot-range arithmetic, canonical
        // fingerprint) is shared with the shard coordinator in
        // [`crate::admission`]; its cache parses a text once, so a
        // repeat is one hashed lookup, made by the probe.
        let obs = &self.shared.obs;
        let received_at = admission.started;
        let mut missed_at = admission.missed_at;
        let (admitted, parse_ns) = self.shared.admission.finish(admission, run);
        obs.parse.record(parse_ns);
        obs.counters.received.inc();
        let admitted = match admitted {
            Ok(admitted) => admitted,
            Err(error) => {
                obs.counters.errors.inc();
                return Some(Response::Error { id, error });
            }
        };
        let key = admitted.key.clone();

        // First pass under the lock: cache, coalescing, admission.
        if let Break(answer) =
            self.settle(&key, id.clone(), &client, responder, &mut missed_at, false)
        {
            return answer;
        }
        if run.shots == 0 {
            // Trivially complete; nothing to queue or cache.
            obs.counters.cache_misses.inc();
            obs.counters.completed.inc();
            return Some(ok_response(id, &key, Counts::new(), false, false));
        }

        // Take the circuit's prepared job, compiling it outside the lock
        // on its first request (statevector kernel fusion and density
        // evolution can be slow), then re-check: an identical request
        // may have been admitted meanwhile.
        let compile_started = Instant::now();
        let prepared = self.shared.admission.prepare(&admitted);
        let compile_ns = elapsed_ns(compile_started);
        obs.compile.record(compile_ns);
        let prepared = match prepared {
            Ok(job) => Arc::new(job),
            Err(err) => {
                obs.counters.errors.inc();
                return Some(Response::Error {
                    id,
                    error: err.to_string(),
                });
            }
        };
        let mut inner =
            match self.settle(&key, id.clone(), &client, responder, &mut missed_at, true) {
                Continue(inner) => inner,
                Break(answer) => return answer,
            };
        obs.counters.cache_misses.inc();
        obs.admitted.inc();
        {
            let tally = inner.tally(&client);
            tally.admitted += 1;
            tally.inflight_shots += key.shots;
        }
        inner.jobs.insert(
            key.clone(),
            Job {
                prepared,
                client: client.clone(),
                end: key.range().end,
                next_shot: key.start,
                outstanding: 0,
                partial: Counts::new(),
                waiters: vec![Waiter {
                    responder: responder.take().expect("responder available to enqueue"),
                    id,
                    coalesced: false,
                }],
                received_at,
                parse_ns,
                compile_ns,
                merge_ns: 0,
            },
        );
        let fresh_client = !inner.client_queues.contains_key(&client);
        inner
            .client_queues
            .entry(client.clone())
            .or_default()
            .push_back(key);
        if fresh_client {
            inner.ring.push_back(client);
        }
        self.shared.work.notify_all();
        None
    }

    fn stats(&self) -> ServiceStats {
        Scheduler::stats(self)
    }

    fn client_rows(&self) -> Vec<ClientRow> {
        Scheduler::client_rows(self)
    }

    fn metrics(&self) -> obs::Snapshot {
        let registry = self.shared.config.metrics.as_ref();
        registry.map(obs::Registry::snapshot).unwrap_or_default()
    }

    fn shutdown(&self) {
        Scheduler::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::circuit::Circuit;
    use circuit::qasm::to_qasm3;
    use engine::{Backend, Engine, ShotPlan};
    use qsim::statevector::StateVector;

    fn bell_qasm() -> String {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        to_qasm3(&c)
    }

    fn run_request(shots: u64, seed: u64) -> RunRequest {
        RunRequest::new(bell_qasm(), shots, seed, "auto")
    }

    /// Drains every available slice on the calling thread — a
    /// deterministic in-test worker that never parks — and returns the
    /// claimed ranges in claim order.
    fn drain(sched: &Scheduler, engine: &Engine) -> Vec<Range<u64>> {
        let mut ranges = Vec::new();
        while sched.stats().in_flight > 0 {
            let task = sched.next_slice().expect("work pending");
            let counts = task.prepared.run_range(engine, task.range.clone());
            ranges.push(task.range);
            sched.complete_slice(&task.key, counts);
        }
        ranges
    }

    impl Scheduler {
        /// Workers currently blocked in `next_slice`.
        fn parked(&self) -> usize {
            self.lock().parked
        }
    }

    /// Real execution workers that record every range they claim.
    struct RecordingWorkers {
        claimed: Arc<Mutex<Vec<Range<u64>>>>,
        threads: Vec<std::thread::JoinHandle<()>>,
    }

    impl RecordingWorkers {
        /// With `hold`, each worker's first claim waits until every
        /// worker has claimed once — so no worker can come back for a
        /// second slice while a sibling is still on its way, and the
        /// carve is exactly the one the parked count decided.
        fn spawn(sched: &Scheduler, count: usize, hold: bool) -> RecordingWorkers {
            let claimed = Arc::new(Mutex::new(Vec::new()));
            let gate = Arc::new(std::sync::Barrier::new(count));
            let threads = (0..count)
                .map(|_| {
                    let (sched, claimed, gate) = (sched.clone(), claimed.clone(), gate.clone());
                    std::thread::spawn(move || {
                        let engine = Engine::sequential();
                        let mut first = hold;
                        while let Some(task) = sched.next_slice() {
                            claimed.lock().unwrap().push(task.range.clone());
                            if std::mem::take(&mut first) {
                                gate.wait();
                            }
                            let counts = task.prepared.run_range(&engine, task.range.clone());
                            sched.complete_slice(&task.key, counts);
                        }
                    })
                })
                .collect();
            RecordingWorkers { claimed, threads }
        }

        /// The ranges claimed since the last call, in shot order.
        fn take(&self) -> Vec<Range<u64>> {
            let mut claimed = std::mem::take(&mut *self.claimed.lock().unwrap());
            claimed.sort_by_key(|r| r.start);
            claimed
        }

        /// Shuts the scheduler down and joins every worker.
        fn stop(self, sched: &Scheduler) {
            sched.shutdown();
            for thread in self.threads {
                thread.join().unwrap();
            }
        }
    }

    /// Blocks until `count` workers are parked.
    fn wait_parked(sched: &Scheduler, count: usize) {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while sched.parked() != count {
            assert!(Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
    }

    fn pending(submission: Submission) -> mpsc::Receiver<Response> {
        match submission {
            Submission::Pending(rx) => rx,
            Submission::Immediate(r) => panic!("expected pending, got {r:?}"),
        }
    }

    #[test]
    fn an_idle_pool_splits_a_job_into_one_share_per_worker() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let workers = RecordingWorkers::spawn(&sched, 2, true);
        wait_parked(&sched, 2);
        let rx = pending(sched.submit(None, &run_request(2_000, 7)));
        let response = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(workers.take(), vec![0..1_000, 1_000..2_000]);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let direct = Backend::Auto
            .sample_shots(&c, 2_000, &engine::Executor::sequential(7))
            .unwrap();
        match response.unwrap() {
            Response::Ok { tallies, .. } => assert_eq!(tallies, direct, "split serving diverged"),
            other => panic!("unexpected response {other:?}"),
        }
        workers.stop(&sched);
    }

    #[test]
    fn a_job_under_two_shares_never_splits() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let workers = RecordingWorkers::spawn(&sched, 4, false);
        for (seed, shots) in [(1, 1), (2, MIN_SHARE), (3, 2 * MIN_SHARE - 1)] {
            wait_parked(&sched, 4);
            let rx = pending(sched.submit(None, &run_request(shots, seed)));
            rx.recv().unwrap();
            assert_eq!(workers.take(), vec![0..shots]);
        }
        workers.stop(&sched);
    }

    #[test]
    fn with_nobody_parked_the_carve_is_the_slice_quantum() {
        let sched = Scheduler::new(SchedulerConfig {
            slice_shots: 300,
            ..SchedulerConfig::default()
        });
        let _rx = pending(sched.submit(None, &run_request(2_000, 7)));
        let expected: Vec<Range<u64>> = (0..2_000)
            .step_by(300)
            .map(|start| start..(start + 300).min(2_000))
            .collect();
        assert_eq!(drain(&sched, &Engine::sequential()), expected);
    }

    #[test]
    fn waiters_are_answered_outside_the_scheduler_lock() {
        // The responder asks another thread for `stats()`: if the reply
        // were sent under the scheduler lock, that read would wait for
        // the responder itself.
        let sched = Arc::new(Scheduler::new(SchedulerConfig::default()));
        let (answered_tx, answered) = mpsc::channel();
        let helper = Scheduler::clone(&sched);
        let responder = Responder::Callback(Box::new(move |_response| {
            let (tx, rx) = mpsc::channel();
            let reader = std::thread::spawn(move || tx.send(helper.stats()).unwrap());
            let took = rx.recv_timeout(std::time::Duration::from_secs(1));
            answered_tx.send((took.is_ok(), reader)).unwrap();
        }));
        let run = run_request(100, 1);
        let admission = sched.shared.admission.probe(&run);
        JobBackend::submit(&*sched, None, &run, admission, &mut Some(responder));
        drain(&sched, &Engine::sequential());
        let (in_time, reader) = answered.recv().unwrap();
        reader.join().unwrap();
        assert!(in_time, "stats() waited on the reply");
    }

    #[test]
    fn slow_traces_span_every_stage_they_list() {
        let registry = obs::Registry::default();
        let sched = Scheduler::new(SchedulerConfig {
            metrics: Some(registry.clone()),
            ..SchedulerConfig::default()
        });
        let engine = Engine::sequential();
        for seed in 0..32 {
            let rx = pending(sched.submit(None, &run_request(1, seed)));
            drain(&sched, &engine);
            rx.recv().unwrap();
        }
        let slow = registry.snapshot().slow;
        assert_eq!(slow.len(), 32);
        for trace in slow {
            let stages: u64 = trace.stages.iter().map(|(_, ns)| ns).sum();
            assert!(
                trace.total_ns >= stages,
                "total {} < stages {stages}: {:?}",
                trace.total_ns,
                trace.stages
            );
        }
    }

    #[test]
    fn submit_execute_respond_matches_direct_sampling() {
        let sched = Scheduler::new(SchedulerConfig {
            slice_shots: 97, // deliberately odd: many slices per job
            ..SchedulerConfig::default()
        });
        let engine = Engine::sequential();
        let run = run_request(1_000, 7);
        let rx = match sched.submit(Some("a".into()), &run) {
            Submission::Pending(rx) => rx,
            Submission::Immediate(r) => panic!("expected pending, got {r:?}"),
        };
        drain(&sched, &engine);
        let response = rx.recv().unwrap();
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let direct = Backend::Auto
            .sample_shots(&c, 1_000, &engine::Executor::sequential(7))
            .unwrap();
        match response {
            Response::Ok {
                id,
                cached,
                coalesced,
                tallies,
                ..
            } => {
                assert_eq!(id.as_deref(), Some("a"));
                assert!(!cached && !coalesced);
                assert_eq!(tallies, direct, "sliced serving diverged from direct run");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn ranged_jobs_serve_the_exact_slice_of_the_full_run() {
        // The worker side of sharding: a `shot_range` job — even one
        // carved into many scheduler slices — must tally exactly the
        // ranged slice of the full run's global shot indices.
        let sched = Scheduler::new(SchedulerConfig {
            slice_shots: 37,
            ..SchedulerConfig::default()
        });
        let engine = Engine::sequential();
        let run = run_request(0, 7).with_shot_range(250, 750);
        let rx = match sched.submit(None, &run) {
            Submission::Pending(rx) => rx,
            Submission::Immediate(r) => panic!("expected pending, got {r:?}"),
        };
        drain(&sched, &engine);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let plan = ShotPlan::new(c, StateVector::new(2), 750, 7);
        let reference = engine.run_plan_range(&plan, 250..750);
        match rx.recv().unwrap() {
            Response::Ok { shots, tallies, .. } => {
                assert_eq!(shots, 500, "response reports the executed count");
                assert_eq!(tallies, reference, "ranged job diverged from the slice");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn traced_slices_tally_identically_and_record_every_shot() {
        // A recording engine must not change a single response byte:
        // the traced drain produces the same tallies, and the records
        // of all slices union to exactly the job's shot range — on
        // every backend arm of `PreparedJob::run_range`.
        for backend in ["auto", "statevector", "density"] {
            let sink = Arc::new(engine::MemorySink::new());
            let sched = Scheduler::new(SchedulerConfig {
                slice_shots: 97,
                ..SchedulerConfig::default()
            });
            let engine = Engine::sequential();
            let run = RunRequest::new(bell_qasm(), 1_000, 7, backend);
            let rx = match sched.submit(None, &run) {
                Submission::Pending(rx) => rx,
                Submission::Immediate(r) => panic!("expected pending, got {r:?}"),
            };
            drain(&sched, &engine.clone().with_trace(sink.clone()));
            let tallies = match rx.recv().unwrap() {
                Response::Ok { tallies, .. } => tallies,
                other => panic!("unexpected response {other:?}"),
            };
            let untraced = Scheduler::new(SchedulerConfig {
                slice_shots: 97,
                ..SchedulerConfig::default()
            });
            let rx = match untraced.submit(None, &run) {
                Submission::Pending(rx) => rx,
                Submission::Immediate(r) => panic!("expected pending, got {r:?}"),
            };
            drain(&untraced, &engine);
            match rx.recv().unwrap() {
                Response::Ok { tallies: t, .. } => assert_eq!(t, tallies),
                other => panic!("unexpected response {other:?}"),
            }
            let records = sink.snapshot();
            assert_eq!(records.len(), 1_000);
            for (i, r) in records.iter().enumerate() {
                assert_eq!(r.shot, i as u64, "slices must union to the full range");
            }
            let mut histo = Counts::new();
            for r in &records {
                *histo.entry(r.record as usize).or_insert(0) += 1;
            }
            assert_eq!(histo, tallies, "records must histogram to the response");
        }
    }

    #[test]
    fn mismatched_shot_counts_are_rejected_at_admission() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let mut run = run_request(100, 1);
        run.shot_range = Some((0, 60));
        match sched.submit(None, &run) {
            Submission::Immediate(Response::Error { error, .. }) => {
                assert!(error.contains("length"), "{error}");
            }
            _ => panic!("expected an admission error"),
        }
    }

    #[test]
    fn identical_requests_coalesce_and_then_hit_the_cache() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let engine = Engine::sequential();
        let run = run_request(500, 3);
        let rx1 = match sched.submit(None, &run) {
            Submission::Pending(rx) => rx,
            other => panic!(
                "expected pending, got immediate {:?}",
                matches!(other, Submission::Immediate(_))
            ),
        };
        // Same key while in flight → coalesced waiter, no second job.
        let rx2 = match sched.submit(None, &run) {
            Submission::Pending(rx) => rx,
            _ => panic!("expected coalesced pending"),
        };
        assert_eq!(sched.stats().in_flight, 1);
        drain(&sched, &engine);
        let (r1, r2) = (rx1.recv().unwrap(), rx2.recv().unwrap());
        let tallies_of = |r: &Response| match r {
            Response::Ok {
                tallies, coalesced, ..
            } => (tallies.clone(), *coalesced),
            other => panic!("unexpected {other:?}"),
        };
        let (t1, c1) = tallies_of(&r1);
        let (t2, c2) = tallies_of(&r2);
        assert_eq!(t1, t2, "coalesced waiters must see identical tallies");
        assert!(!c1 && c2);
        // Re-submitting now is a cache hit with the same tallies.
        match sched.submit(None, &run) {
            Submission::Immediate(Response::Ok {
                cached, tallies, ..
            }) => {
                assert!(cached);
                assert_eq!(tallies, t1);
            }
            _ => panic!("expected a cache hit"),
        }
        let stats = sched.stats();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn admission_is_bounded_with_busy_and_retry_hint() {
        let sched = Scheduler::new(SchedulerConfig {
            queue_capacity: 1,
            ..SchedulerConfig::default()
        });
        // No workers running: job A stays in flight deterministically.
        let _rx = match sched.submit(None, &run_request(100, 1)) {
            Submission::Pending(rx) => rx,
            _ => panic!("A should be admitted"),
        };
        match sched.submit(None, &run_request(100, 2)) {
            Submission::Immediate(Response::Busy {
                in_flight,
                retry_after_ms,
                ..
            }) => {
                assert_eq!(in_flight, 1);
                assert!(retry_after_ms > 0);
            }
            _ => panic!("B should be rejected busy"),
        }
        assert_eq!(sched.stats().rejected_busy, 1);
        // But an *identical* request still coalesces — bounded
        // admission never rejects work it can answer for free.
        assert!(matches!(
            sched.submit(None, &run_request(100, 1)),
            Submission::Pending(_)
        ));
    }

    #[test]
    fn slicing_rotates_jobs_round_robin() {
        let sched = Scheduler::new(SchedulerConfig {
            slice_shots: 10,
            ..SchedulerConfig::default()
        });
        let _rx_a = sched.submit(None, &run_request(30, 1));
        let _rx_b = sched.submit(None, &run_request(30, 2));
        // Slices must alternate A, B, A, B, … — each job's ranges
        // advancing independently.
        let mut order = Vec::new();
        for _ in 0..6 {
            let task = sched.next_slice().unwrap();
            order.push((task.key.root_seed, task.range.clone()));
            sched.complete_slice(&task.key, Counts::new());
        }
        let seeds: Vec<u64> = order.iter().map(|(s, _)| *s).collect();
        assert_eq!(seeds, vec![1, 2, 1, 2, 1, 2], "not round-robin: {order:?}");
        assert_eq!(order[0].1, 0..10);
        assert_eq!(order[2].1, 10..20);
        assert_eq!(order[4].1, 20..30);
    }

    #[test]
    fn parse_and_capability_errors_become_error_responses() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let bad_backend = RunRequest {
            backend: "qutrit".into(),
            ..run_request(10, 1)
        };
        assert!(matches!(
            sched.submit(None, &bad_backend),
            Submission::Immediate(Response::Error { .. })
        ));
        let bad_qasm = RunRequest {
            qasm: "not qasm".into(),
            ..run_request(10, 1)
        };
        match sched.submit(None, &bad_qasm) {
            Submission::Immediate(Response::Error { error, .. }) => {
                assert!(error.contains("OPENQASM"), "{error}");
            }
            _ => panic!("expected an error response"),
        }
        // Non-Clifford circuit on the stabilizer backend: typed
        // capability error.
        let mut c = Circuit::new(1, 1);
        c.t(0).measure(0, 0);
        let unsupported = RunRequest::new(to_qasm3(&c), 10, 0, "stabilizer");
        match sched.submit(None, &unsupported) {
            Submission::Immediate(Response::Error { error, .. }) => {
                assert!(error.contains("stabilizer"), "{error}");
            }
            _ => panic!("expected a capability error"),
        }
        assert_eq!(sched.stats().errors, 3);
    }

    #[test]
    fn zero_shot_jobs_complete_immediately() {
        let sched = Scheduler::new(SchedulerConfig::default());
        match sched.submit(None, &run_request(0, 1)) {
            Submission::Immediate(Response::Ok { shots, tallies, .. }) => {
                assert_eq!(shots, 0);
                assert!(tallies.is_empty());
            }
            _ => panic!("zero-shot run should settle immediately"),
        }
        assert_eq!(sched.stats().in_flight, 0);
    }

    #[test]
    fn textual_variants_share_one_cache_entry() {
        // Same circuit, different formatting/comments → same canonical
        // text → cache hit on the second request.
        let sched = Scheduler::new(SchedulerConfig::default());
        let engine = Engine::sequential();
        let run = run_request(200, 9);
        let variant = RunRequest {
            qasm: format!("// client banner\n{}", run.qasm.replace(";\n", ";\n\n")),
            ..run.clone()
        };
        let rx = match sched.submit(None, &run) {
            Submission::Pending(rx) => rx,
            _ => panic!("expected pending"),
        };
        drain(&sched, &engine);
        rx.recv().unwrap();
        assert!(matches!(
            sched.submit(None, &variant),
            Submission::Immediate(Response::Ok { cached: true, .. })
        ));
    }

    #[test]
    fn oversized_registers_are_rejected_before_allocation() {
        // A hostile register declaration must produce an error
        // response, never an allocation attempt (the stabilizer
        // tableau is O(n²) and has no width cap of its own).
        let sched = Scheduler::new(SchedulerConfig::default());
        let huge = RunRequest::new(
            "OPENQASM 3.0;\nqubit[100000000] q;\nh q[0];\n",
            10,
            0,
            "auto",
        );
        match sched.submit(None, &huge) {
            Submission::Immediate(Response::Error { error, .. }) => {
                assert!(error.contains("serving limits"), "{error}");
            }
            _ => panic!("expected an admission-limit error"),
        }
        // Classical registers beyond the 64-bit packing convention
        // are rejected the same way.
        let wide_cbits = RunRequest::new(
            "OPENQASM 3.0;\nqubit[1] q;\nbit[65] c;\nh q[0];\n",
            10,
            0,
            "auto",
        );
        assert!(matches!(
            sched.submit(None, &wide_cbits),
            Submission::Immediate(Response::Error { .. })
        ));
        assert_eq!(sched.stats().errors, 2);
    }

    #[test]
    fn complete_slice_after_shutdown_is_a_no_op() {
        // Shutdown drops jobs while their slices may still be
        // executing on workers; the late completion must be discarded
        // quietly, not panic (which would poison the scheduler lock).
        let sched = Scheduler::new(SchedulerConfig {
            slice_shots: 10,
            ..SchedulerConfig::default()
        });
        let _rx = sched.submit(None, &run_request(100, 1));
        let task = sched.next_slice().expect("slice available");
        let counts = task
            .prepared
            .run_range(&Engine::sequential(), task.range.clone());
        sched.shutdown();
        sched.complete_slice(&task.key, counts);
        // The scheduler is still usable (lock not poisoned).
        assert_eq!(sched.stats().completed, 0);
    }

    #[test]
    fn a_cold_miss_and_a_warm_hit_read_the_memory_tier_once_each() {
        let registry = obs::Registry::default();
        let sched = Scheduler::new(SchedulerConfig {
            metrics: Some(registry.clone()),
            ..SchedulerConfig::default()
        });
        let read = |name| registry.snapshot().counter(name);
        let lookups = || {
            registry
                .snapshot()
                .histo("stage.cache_lookup")
                .unwrap()
                .count
        };
        // A text not parsed yet (its first pass reads), then a held text
        // under a fresh seed (the lookup reads): one read each.
        for seed in [1, 2] {
            let rx = pending(sched.submit(None, &run_request(100, seed)));
            drain(&sched, &Engine::sequential());
            assert!(matches!(
                rx.recv().unwrap(),
                Response::Ok { cached: false, .. }
            ));
            assert_eq!(read("cache.probes"), Some(seed), "cold miss {seed}");
            assert_eq!(lookups(), seed);
        }
        assert!(matches!(
            JobBackend::lookup(&sched, &run_request(100, 2)),
            Lookup::Hit { .. }
        ));
        assert_eq!(read("cache.probes"), Some(3), "a warm hit");
        assert_eq!(lookups(), 3);
        assert_eq!(read("cache.misses"), Some(2));
    }

    #[test]
    fn a_result_landing_between_lookup_and_submit_is_served_cached() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let run = run_request(100, 7);
        sched.submit(None, &run_request(0, 7)); // parses the text
        let Lookup::Submit(admission) = JobBackend::lookup(&sched, &run) else {
            panic!("nothing is known yet");
        };
        assert!(admission.missed_at.is_some(), "the lookup read memory");
        // A twin request runs to completion meanwhile.
        let twin = pending(sched.submit(None, &run));
        drain(&sched, &Engine::sequential());
        let Response::Ok { tallies, .. } = twin.recv().unwrap() else {
            panic!("the twin failed");
        };
        let (tx, rx) = mpsc::channel();
        let mut responder = Some(Responder::Channel(tx));
        match JobBackend::submit(&sched, Some("late".into()), &run, admission, &mut responder) {
            Some(Response::Ok {
                cached: true,
                tallies: served,
                ..
            }) => assert_eq!(served, tallies),
            other => panic!("expected a cached reply, got {other:?}"),
        }
        assert!(
            responder.is_some(),
            "an immediate reply keeps the responder"
        );
        drop(responder);
        assert!(rx.recv().is_err(), "nothing was queued for it");
        assert_eq!(sched.stats().in_flight, 0);
        assert_eq!(sched.stats().cache_hits, 1);
    }

    #[test]
    fn a_disk_warm_hit_is_promoted_and_then_answered_from_memory() {
        let dir = std::env::temp_dir().join(format!("compas-promote-{}", std::process::id()));
        let config = || SchedulerConfig {
            disk: Some(DiskCacheConfig::new(&dir)),
            ..SchedulerConfig::default()
        };
        let run = run_request(300, 5);
        {
            let first = Scheduler::new(config());
            let rx = pending(first.submit(None, &run));
            drain(&first, &Engine::sequential());
            rx.recv().unwrap();
        }
        // A fresh process on the same spill: the text is held once a
        // zero-shot run of it parsed it, yet the reactor's memory-only
        // lookup cannot answer from disk.
        let sched = Scheduler::new(config());
        sched.submit(None, &run_request(0, 5));
        assert!(matches!(
            JobBackend::lookup(&sched, &run),
            Lookup::Submit(Admission {
                ticket: Some(Ok(_)),
                ..
            })
        ));
        let Submission::Immediate(Response::Ok {
            cached: true,
            tallies,
            ..
        }) = sched.submit(None, &run)
        else {
            panic!("expected a disk-warm hit");
        };
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let direct = Backend::Auto
            .sample_shots(&c, 300, &engine::Executor::sequential(5))
            .unwrap();
        assert_eq!(tallies, direct);
        assert_eq!(sched.stats().cache_entries, 1, "promoted to memory");
        // The next identical request is answered from memory.
        match JobBackend::lookup(&sched, &run) {
            Lookup::Hit { tallies, .. } => assert_eq!(tallies, direct),
            Lookup::Submit(_) => panic!("the promoted result was not in memory"),
        }
        assert_eq!(sched.stats().cache_hits, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_fails_pending_waiters_and_stops_workers() {
        let sched = Scheduler::new(SchedulerConfig::default());
        let rx = match sched.submit(None, &run_request(100, 1)) {
            Submission::Pending(rx) => rx,
            _ => panic!("expected pending"),
        };
        sched.shutdown();
        assert!(rx.recv().is_err(), "waiter channel should be closed");
        assert!(sched.next_slice().is_none());
        assert!(matches!(
            sched.submit(None, &run_request(100, 2)),
            Submission::Immediate(Response::Error { .. })
        ));
    }
}
