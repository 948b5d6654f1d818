//! The one serving front end: a reactor thread, a submitter pool and a
//! handle, over a [`JobBackend`].
//!
//! Both serving roles are this front end over a different backend. The
//! single-machine server ([`crate::Service`]) puts it over its
//! [`Scheduler`], which runs jobs as slices on a local worker pool; the
//! `crates/shard` coordinator puts it over a scatter-gather across
//! worker processes. [`Frontend::spawn`] starts, for either:
//!
//! * one **reactor** thread (`crates/reactor`) multiplexing every
//!   connection over a single `poll(2)` loop. It frames and decodes
//!   request lines and keeps each connection's replies in request order
//!   however the backend reorders completions. Thread count is
//!   independent of connection count: idle clients cost file
//!   descriptors, not stacks. The reactor answers inline what the
//!   backend can answer with **lock-only lookups** — never a parse, a
//!   compile or a file read: `stats`, `shutdown`, and a `run` whose
//!   reply is already known ([`lookup`]: its exact text is held by the
//!   admission cache and its tallies by the result cache's memory tier).
//!   Such a run is encoded (timed into `stage.encode`) and answered on
//!   the reactor thread, and wakes no other thread;
//! * two **submitter** threads for everything that may block: every
//!   other `run` — a text not yet parsed, a result only on disk, an
//!   admission error, a miss — and `metrics` (a coordinator's gather is
//!   a round trip per worker). The reactor hands them over a channel,
//!   a run together with the admission its lookup began, so no text is
//!   hashed or looked up twice. A run's reply travels back through its
//!   [`Completion`] when the backend answers.
//!
//! Shutdown has one order in both roles: the backend stops (pending
//! requests get an error reply), the reactor flushes outstanding
//! replies and closes, the submitters drain the closed channel and
//! exit, and then the backend's own threads are joined.
//!
//! [`Scheduler`]: crate::Scheduler

use crate::admission::{Admission, AdmissionCache};
use crate::cache::{CacheKey, ResultCache};
use crate::protocol::{ClientRow, Op, Request, Response, RunRequest, ServiceStats, WorkerRow};
use crate::scheduler::Responder;
use engine::Counts;
use reactor::{
    Completion, Line, LineHandler, Reactor, ReactorConfig, ReactorCtl, ReactorHandle,
    MAX_LINE_BYTES,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Submitter threads per front end: admission blocks on the backend's
/// lock and compiles circuits, and two hide one slow compile.
const SUBMITTERS: usize = 2;

/// What [`JobBackend::lookup`] found for a run request.
pub enum Lookup {
    /// The tallies are in memory: the reactor answers `cached` with
    /// them. The backend has counted the request as its hit path does.
    Hit { key: CacheKey, tallies: Counts },
    /// Not known on the reactor: [`JobBackend::submit`] the request on
    /// a submitter with its admission so far.
    Submit(Admission),
}

/// What a front end serves: admission and execution behind the wire.
///
/// The reactor thread makes only the lock-only calls —
/// [`JobBackend::lookup`], [`JobBackend::stats`] and its rows,
/// [`JobBackend::note_error`], [`JobBackend::shutdown`] — which never
/// parse, compile or read a file; [`JobBackend::submit`] and
/// [`JobBackend::metrics`] run on the submitter pool.
pub trait JobBackend: Send + Sync + 'static {
    /// The role noun in error texts (`"server"`, `"coordinator"`).
    fn role(&self) -> &'static str;

    /// The backend's event counters.
    fn counters(&self) -> &ServiceCounters;

    /// Answers `run` if its reply is already known ([`lookup`], the
    /// request's one read of the memory tier); anything else comes back
    /// as the admission to submit, with the generation it missed at.
    fn lookup(&self, run: &RunRequest) -> Lookup;

    /// Admits one run request, completing `admission` (the request's
    /// [`JobBackend::lookup`]). `Some` is an immediate response
    /// (`responder` untouched); `None` means `responder` was taken, to
    /// answer the job or, dropped unanswered (shutdown), to send the
    /// front end's "shut down before the job completed" reply.
    fn submit(
        &self,
        id: Option<String>,
        run: &RunRequest,
        admission: Admission,
        responder: &mut Option<Responder>,
    ) -> Option<Response>;

    /// Counts a request line that failed framing or decoding.
    fn note_error(&self) {
        let counters = self.counters();
        counters.received.inc();
        counters.errors.inc();
    }

    /// The counter snapshot behind the `stats` op (the front end merges
    /// in the reactor's connection gauges).
    fn stats(&self) -> ServiceStats;

    /// Per-worker rows for the `stats` op.
    fn worker_rows(&self) -> Vec<WorkerRow> {
        Vec::new()
    }

    /// Per-client rows for the `stats` op.
    fn client_rows(&self) -> Vec<ClientRow> {
        Vec::new()
    }

    /// The observability snapshot behind the `metrics` op.
    fn metrics(&self) -> obs::Snapshot;

    /// Stops admitting and drops pending jobs, failing their waiters.
    fn shutdown(&self);
}

/// One request waiting on an in-flight job: the request that started
/// it, or an identical one coalesced onto it.
pub struct Waiter {
    /// Where the answer goes.
    pub responder: Responder,
    /// The request's correlation id.
    pub id: Option<String>,
    /// Whether the request joined a job already in flight.
    pub coalesced: bool,
}

impl Waiter {
    /// Answers every waiter of a finished job with its tallies or its
    /// error. A waiter whose connection died just drops the reply.
    pub fn answer_all(waiters: Vec<Waiter>, key: &CacheKey, result: &Result<Counts, String>) {
        for waiter in waiters {
            waiter.responder.respond(match result {
                Ok(tallies) => {
                    ok_response(waiter.id, key, tallies.clone(), false, waiter.coalesced)
                }
                Err(error) => Response::Error {
                    id: waiter.id,
                    error: error.clone(),
                },
            });
        }
    }
}

/// The `ok` reply carrying `tallies` for `key`: a cache hit
/// (`cached`), a zero-shot run, or a finished job's answer to one of
/// its waiters.
pub fn ok_response(
    id: Option<String>,
    key: &CacheKey,
    tallies: Counts,
    cached: bool,
    coalesced: bool,
) -> Response {
    Response::Ok {
        id,
        backend: key.backend.to_string(),
        shots: key.shots,
        cached,
        coalesced,
        tallies,
    }
}

/// The `busy` reply: `in_flight` jobs ahead, and a crude retry hint
/// that assumes each takes ~25 ms (at least one).
pub fn busy(id: Option<String>, in_flight: u64) -> Response {
    Response::Busy {
        id,
        in_flight,
        retry_after_ms: 25 * in_flight.max(1),
    }
}

/// The event counters behind the counter fields of [`ServiceStats`],
/// one set per backend, each named like the field it fills (and
/// `cache.probes`, which none shows). Each is the backend registry's
/// counter (`sched.<field>`, or `cache.<hits|misses|probes>`), or
/// unattached when there is no registry — so every event is recorded
/// once, with no branch on whether a registry exists, and the `stats`
/// op reads the same counters the `metrics` op exports.
#[derive(Default)]
pub struct ServiceCounters {
    pub received: obs::Counter,
    pub completed: obs::Counter,
    pub cache_hits: obs::Counter,
    pub cache_misses: obs::Counter,
    /// Attached to the result cache ([`ResultCache::probes`]).
    pub probes: obs::Counter,
    pub coalesced: obs::Counter,
    pub rejected_busy: obs::Counter,
    pub rejected_quota: obs::Counter,
    pub rejected_rate: obs::Counter,
    pub errors: obs::Counter,
}

impl ServiceCounters {
    /// The counters, their registry names prefixed with `prefix` (`""`
    /// for a server, `"shard."` for a coordinator, so a topology-wide
    /// `metrics` merge never adds a coordinator's jobs to its
    /// workers').
    pub fn new(registry: Option<&obs::Registry>, prefix: &str) -> ServiceCounters {
        let counter = |name: &str| {
            registry.map_or_else(obs::Counter::new, |r| r.counter(&format!("{prefix}{name}")))
        };
        ServiceCounters {
            received: counter("sched.received"),
            completed: counter("sched.completed"),
            cache_hits: counter("cache.hits"),
            cache_misses: counter("cache.misses"),
            probes: counter("cache.probes"),
            coalesced: counter("sched.coalesced"),
            rejected_busy: counter("sched.rejected_busy"),
            rejected_quota: counter("sched.rejected_quota"),
            rejected_rate: counter("sched.rejected_rate"),
            errors: counter("sched.errors"),
        }
    }

    /// A `stats` snapshot: the counter fields, and the backend's gauges
    /// (`in_flight` jobs and its result `cache`).
    pub fn stats(&self, in_flight: usize, cache: &ResultCache) -> ServiceStats {
        ServiceStats {
            in_flight: in_flight as u64,
            cache_entries: cache.len() as u64,
            cache_disk_entries: cache.disk_len() as u64,
            received: self.received.get(),
            completed: self.completed.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            coalesced: self.coalesced.get(),
            rejected_busy: self.rejected_busy.get(),
            rejected_quota: self.rejected_quota.get(),
            rejected_rate: self.rejected_rate.get(),
            errors: self.errors.get(),
            ..ServiceStats::default()
        }
    }
}

/// [`JobBackend::lookup`] in both roles: the admission probe of the raw
/// text, then — for a text it holds — a timed read of the memory tier of
/// the result cache that `owner`'s lock guards (reached through
/// `cache`; panics if the lock is poisoned). A hit is counted as a
/// submitter's hit is; a miss sets [`Admission::missed_at`].
pub fn lookup<T>(
    run: &RunRequest,
    admissions: &AdmissionCache,
    owner: &Mutex<T>,
    cache: impl FnOnce(&mut T) -> &mut ResultCache,
    counters: &ServiceCounters,
    parse: &obs::Histo,
) -> Lookup {
    let mut admission = admissions.probe(run);
    let Some(Ok(ticket)) = &admission.ticket else {
        return Lookup::Submit(admission);
    };
    let started = Instant::now();
    let mut guard = owner.lock().expect("cache owner poisoned");
    let cache = cache(&mut guard);
    admission.missed_at = Some(cache.generation());
    let hit = cache.get_memory(&ticket.key);
    cache.lookups.record_duration(started.elapsed());
    drop(guard);
    let Some(tallies) = hit else {
        return Lookup::Submit(admission);
    };
    parse.record(admission.parse_ns);
    counters.received.inc();
    counters.cache_hits.inc();
    Lookup::Hit {
        key: ticket.key.clone(),
        tallies,
    }
}

/// One `run` or `metrics` request in flight from the reactor to a
/// submitter.
struct SubmitTask {
    id: Option<String>,
    /// `None` for a `metrics` request.
    run: Option<(RunRequest, Admission)>,
    completion: Completion,
}

/// The reactor-side protocol brain: it runs on the I/O thread, so it
/// never waits on execution or on the network.
struct Handler {
    backend: Arc<dyn JobBackend>,
    ctl: ReactorCtl,
    /// `stage.encode`, for the replies encoded on the reactor.
    encode: obs::Histo,
    /// Owned by the handler alone: when the reactor loop exits and
    /// drops it, the submitter pool sees a closed channel and exits.
    submit: mpsc::Sender<SubmitTask>,
}

impl LineHandler for Handler {
    fn on_line(&self, _conn: u64, line: Line, mut completion: Completion) {
        let oversized = matches!(line, Line::Oversized);
        let request = match line {
            Line::Complete(bytes) => std::str::from_utf8(&bytes)
                .map_err(|_| "request line is not valid UTF-8".to_string())
                .and_then(Request::from_line),
            Line::Oversized => Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")),
        };
        let Request { id, op } = match request {
            Ok(request) => request,
            Err(error) => {
                self.backend.note_error();
                let bytes = Response::Error { id: None, error }.to_line().into_bytes();
                // Input past an oversized line is discarded: reply, close.
                if oversized {
                    completion.send_close(bytes);
                } else {
                    completion.send(bytes);
                }
                return;
            }
        };
        let (run, what) = match op {
            Op::Stats => {
                let response = Response::Stats {
                    id,
                    stats: self.backend.stats().with_gauges(self.ctl.gauges()),
                    workers: self.backend.worker_rows(),
                    clients: self.backend.client_rows(),
                };
                completion.send(response.to_line().into_bytes());
                return;
            }
            Op::Shutdown => {
                completion.send_close(Response::Bye { id }.to_line().into_bytes());
                self.backend.shutdown();
                self.ctl.stop();
                return;
            }
            Op::Metrics => (None, "metrics gather"),
            Op::Run(run) => match self.backend.lookup(&run) {
                Lookup::Hit { key, tallies } => {
                    let response = ok_response(id, &key, tallies, true, false);
                    let span = obs::Span::enter(&self.encode);
                    let bytes = response.to_line().into_bytes();
                    drop(span);
                    completion.send(bytes);
                    return;
                }
                Lookup::Submit(admission) => (Some((run, admission)), "job"),
            },
        };
        // If the backend drops the request (shutdown), the completion
        // comes back unresolved; this is the reply the peer gets instead
        // of a silent close.
        let error = format!(
            "{} shut down before the {what} completed",
            self.backend.role()
        );
        let reply = Response::Error {
            id: id.clone(),
            error,
        }
        .to_line();
        completion.set_abandoned_reply(reply.into_bytes());
        let _ = self.submit.send(SubmitTask {
            id,
            run,
            completion,
        });
    }
}

/// Spawns the submitter pool: each thread drains [`SubmitTask`]s,
/// answering `metrics` directly and handing runs to the backend with a
/// responder that encodes the reply (timed into `stage.encode`) and
/// resolves the request's completion.
fn spawn_submitters(
    backend: &Arc<dyn JobBackend>,
    rx: mpsc::Receiver<SubmitTask>,
    encode: obs::Histo,
) -> Vec<JoinHandle<()>> {
    let rx = Arc::new(Mutex::new(rx));
    (0..SUBMITTERS)
        .map(|i| {
            let rx = rx.clone();
            let backend = backend.clone();
            let encode = encode.clone();
            std::thread::Builder::new()
                .name(format!("service-submit-{i}"))
                .spawn(move || loop {
                    // Hold the receiver lock only for the recv itself,
                    // so a submitter busy compiling does not starve its
                    // siblings of work.
                    let task = rx.lock().expect("submit queue").recv();
                    let Ok(SubmitTask {
                        id,
                        run,
                        completion,
                    }) = task
                    else {
                        break;
                    };
                    let Some((run, admission)) = run else {
                        let response = Response::Metrics {
                            id,
                            snapshot: backend.metrics(),
                        };
                        completion.send(response.to_line().into_bytes());
                        continue;
                    };
                    let encode = encode.clone();
                    let mut responder = Some(Responder::Callback(Box::new(move |response| {
                        let span = obs::Span::enter(&encode);
                        let bytes = response.to_line().into_bytes();
                        drop(span);
                        completion.send(bytes);
                    })));
                    if let Some(response) = backend.submit(id, &run, admission, &mut responder) {
                        let responder = responder.take().expect("an immediate reply leaves it");
                        responder.respond(response);
                    }
                })
                .expect("spawn submitter")
        })
        .collect()
}

/// The front-end entry point.
pub struct Frontend;

impl Frontend {
    /// Serves `backend` on `listener`: starts the submitter pool and the
    /// reactor (configured by `config`; its registry, if any, also
    /// times `stage.encode`). `backend_threads` are the backend's own
    /// threads, joined last on shutdown.
    ///
    /// # Errors
    ///
    /// Propagates reactor start-up failures (socket, pipe, thread).
    pub fn spawn<B: JobBackend>(
        listener: TcpListener,
        config: ReactorConfig,
        backend: Arc<B>,
        backend_threads: Vec<JoinHandle<()>>,
    ) -> std::io::Result<FrontendHandle<B>> {
        let encode = config
            .metrics
            .as_ref()
            .map_or_else(obs::Histo::new, |r| r.histo("stage.encode"));
        let (submit, rx) = mpsc::channel();
        let handler_backend: Arc<dyn JobBackend> = backend.clone();
        let submitters = spawn_submitters(&handler_backend, rx, encode.clone());
        let reactor = Reactor::spawn(listener, config, move |ctl| {
            Arc::new(Handler {
                backend: handler_backend,
                ctl,
                encode,
                submit,
            })
        })?;
        Ok(FrontendHandle {
            backend,
            reactor,
            submitters,
            backend_threads,
        })
    }
}

/// Owner of a running front end's threads and its backend.
pub struct FrontendHandle<B> {
    backend: Arc<B>,
    reactor: ReactorHandle,
    submitters: Vec<JoinHandle<()>>,
    backend_threads: Vec<JoinHandle<()>>,
}

impl<B: JobBackend> FrontendHandle<B> {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Counter snapshot, read directly (no wire round trip), with the
    /// reactor's connection gauges merged in.
    pub fn stats(&self) -> ServiceStats {
        self.backend.stats().with_gauges(self.reactor.gauges())
    }

    /// The reactor's raw connection gauges.
    pub fn gauges(&self) -> reactor::ReactorGauges {
        self.reactor.gauges()
    }

    /// Per-worker rows, read directly (same data the wire `stats` op
    /// reports; empty for a single-machine server).
    pub fn worker_rows(&self) -> Vec<WorkerRow> {
        self.backend.worker_rows()
    }

    /// Per-client quota rows, read directly (same data the wire `stats`
    /// op reports; empty for a coordinator).
    pub fn client_rows(&self) -> Vec<ClientRow> {
        self.backend.client_rows()
    }

    /// The observability snapshot, read directly (the same data the
    /// wire `metrics` op serves). Empty without a registry.
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.backend.metrics()
    }

    /// Initiates shutdown and waits for every thread to exit.
    pub fn shutdown(self) {
        self.backend.shutdown();
        self.reactor.stop();
        for thread in self.submitters.into_iter().chain(self.backend_threads) {
            let _ = thread.join();
        }
    }

    /// Waits until the front end stops (via a wire `shutdown` request or
    /// [`FrontendHandle::shutdown`]).
    pub fn join(self) {
        // The wire handler stops both the backend and the reactor; the
        // reactor exiting drops the submit channel, draining the
        // submitter pool, and the backend shutdown drains its threads.
        self.reactor.join();
        for thread in self.submitters.into_iter().chain(self.backend_threads) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;
    use std::time::{Duration, Instant};

    /// The seed whose answer [`Stub`] knows.
    const KNOWN: u64 = 99;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            circuit_fp: 1,
            backend: "statevector",
            shots: 10,
            root_seed: seed,
            start: 0,
        }
    }

    /// A backend that knows the answer for seed [`KNOWN`] and whose
    /// `submit` blocks until [`Stub::release`].
    #[derive(Default)]
    struct Stub {
        /// `submit` calls entered so far.
        entered: AtomicUsize,
        released: Mutex<bool>,
        wake: Condvar,
        counters: ServiceCounters,
    }

    impl Stub {
        fn release(&self) {
            *self.released.lock().unwrap() = true;
            self.wake.notify_all();
        }
    }

    impl JobBackend for Stub {
        fn role(&self) -> &'static str {
            "stub"
        }

        fn counters(&self) -> &ServiceCounters {
            &self.counters
        }

        fn lookup(&self, run: &RunRequest) -> Lookup {
            if run.root_seed == KNOWN {
                let tallies = [(3, 10)].into_iter().collect();
                return Lookup::Hit {
                    key: key(KNOWN),
                    tallies,
                };
            }
            Lookup::Submit(Admission {
                ticket: None,
                started: Instant::now(),
                parse_ns: 0,
                missed_at: None,
            })
        }

        fn submit(
            &self,
            id: Option<String>,
            run: &RunRequest,
            _admission: Admission,
            _responder: &mut Option<Responder>,
        ) -> Option<Response> {
            self.entered.fetch_add(1, Ordering::SeqCst);
            let mut released = self.released.lock().unwrap();
            while !*released {
                released = self.wake.wait(released).unwrap();
            }
            let response = ok_response(id, &key(run.root_seed), Counts::new(), false, false);
            Some(response)
        }

        fn stats(&self) -> ServiceStats {
            ServiceStats::default()
        }

        fn metrics(&self) -> obs::Snapshot {
            obs::Snapshot::default()
        }

        fn shutdown(&self) {}
    }

    /// Sends a run of `seed` on a fresh connection; the reply is read
    /// later from the returned reader.
    fn send(addr: SocketAddr, seed: u64) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let run = Request::run(None, RunRequest::new("OPENQASM 3.0;", 10, seed, "sv"));
        (&stream).write_all(run.to_line().as_bytes()).unwrap();
        BufReader::new(stream)
    }

    fn reply(reader: &mut BufReader<TcpStream>) -> Response {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "no reply");
        Response::from_line(&line).unwrap()
    }

    #[test]
    fn a_known_answer_does_not_wait_on_a_submitter() {
        let stub = Arc::new(Stub::default());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle =
            Frontend::spawn(listener, ReactorConfig::default(), stub.clone(), Vec::new()).unwrap();
        // Two runs whose answers are not known hold both submitters.
        let mut held: Vec<_> = (0..SUBMITTERS as u64)
            .map(|seed| send(handle.addr(), seed))
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while stub.entered.load(Ordering::SeqCst) < SUBMITTERS {
            assert!(Instant::now() < deadline, "the submitters never blocked");
            std::thread::yield_now();
        }
        // A known answer is served while they are held.
        match reply(&mut send(handle.addr(), KNOWN)) {
            Response::Ok {
                cached, tallies, ..
            } => {
                assert!(cached);
                assert_eq!(tallies, [(3, 10)].into_iter().collect());
            }
            other => panic!("expected the known answer, got {other:?}"),
        }
        assert_eq!(stub.entered.load(Ordering::SeqCst), SUBMITTERS);
        stub.release();
        for reader in &mut held {
            assert!(matches!(reply(reader), Response::Ok { cached: false, .. }));
        }
        handle.shutdown();
    }
}
