//! The evented TCP front end: one reactor thread, a submitter pool,
//! and the execution worker pool.
//!
//! [`Service::spawn`] binds a listener and starts three kinds of
//! threads:
//!
//! * one **reactor** thread (`crates/reactor`) multiplexing every
//!   connection over a single `poll(2)` loop — framing newline-JSON
//!   requests, answering `stats`/`shutdown` inline, and keeping
//!   per-connection replies in request order however the scheduler
//!   reorders completions. Thread count is independent of connection
//!   count: hundreds of idle clients cost file descriptors, not
//!   stacks;
//! * `submitters` **admission threads** draining run requests off the
//!   reactor, since admission compiles circuits (statevector kernel
//!   fusion, density evolution) — far too heavy for the I/O loop. The
//!   response is delivered back to the reactor through the request's
//!   [`Completion`] when the job's last slice lands;
//! * `workers` **execution workers**, each looping
//!   [`Scheduler::next_slice`] → [`PreparedJob::run_range`] →
//!   [`Scheduler::complete_slice`] over the shared engine.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`ServiceHandle::shutdown`]) stops the scheduler — workers observe
//! it and exit, pending waiters fail with an error response — and
//! stops the reactor, which flushes outstanding replies before
//! closing. The submitter pool exits when the reactor drops the
//! request channel.
//!
//! [`PreparedJob::run_range`]: engine::PreparedJob::run_range
//! [`Completion`]: reactor::Completion

use crate::cache::DiskCacheConfig;
use crate::protocol::{Op, Request, Response, RunRequest, ServiceStats};
use crate::scheduler::{Responder, Scheduler, SchedulerConfig};
use engine::Engine;
use reactor::{Completion, Line, LineHandler, Reactor, ReactorConfig, ReactorCtl, ReactorHandle};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line (bytes). A line that exceeds this is
/// answered with an error and the connection is closed — a client that
/// streams gigabytes without a newline cannot exhaust server memory.
pub const MAX_LINE_BYTES: u64 = 8 * 1024 * 1024;

/// Decodes one framed request line: UTF-8-checked, then JSON-decoded.
/// Shared by this server's reactor handler and the `crates/shard`
/// coordinator front end, so both speak identical wire rules. (Framing
/// itself — byte caps, blank-line filtering — lives in the reactor.)
pub fn decode_line(bytes: &[u8]) -> Result<Request, String> {
    let line =
        std::str::from_utf8(bytes).map_err(|_| "request line is not valid UTF-8".to_string())?;
    Request::from_line(line)
}

/// Everything [`Service::spawn`] needs to know.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServiceHandle::addr`]).
    pub addr: String,
    /// Execution workers. 0 admits jobs but never runs them —
    /// useful only for deterministic backpressure tests.
    pub workers: usize,
    /// Admission (submit) threads draining run requests off the
    /// reactor. These block on the scheduler lock and compile
    /// circuits; 1 is correct, 2 hides one slow compile.
    pub submitters: usize,
    /// Maximum in-flight jobs before `busy` rejections.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Optional disk spill directory for the result cache: completed
    /// results persist across restarts (see
    /// [`DiskCacheConfig`]).
    pub cache_dir: Option<PathBuf>,
    /// Size bound for the disk spill (bytes); LRU entries are deleted
    /// to fit. Ignored without `cache_dir`.
    pub cache_disk_bytes: u64,
    /// Shots per scheduling slice (fairness quantum).
    pub slice_shots: u64,
    /// Most in-flight shots one client identity may hold (see
    /// [`SchedulerConfig::client_quota_shots`]); `u64::MAX` disables
    /// the quota.
    pub client_quota_shots: u64,
    /// Sustained shots-per-second each client identity may submit
    /// (token bucket; see
    /// [`SchedulerConfig::client_quota_shots_per_sec`]); `u64::MAX`
    /// disables rate limiting.
    pub client_quota_shots_per_sec: u64,
    /// Optional observability registry. When set, every layer records
    /// into it — the reactor's connection gauges and write timings,
    /// the scheduler's per-stage histograms and cache counters, the
    /// worker pool's `stage.execute` timings, the submitters'
    /// `stage.encode` timings — and the wire `metrics` op answers with
    /// its snapshot. Served bytes are unchanged (differential-tested);
    /// `None` costs nothing.
    pub metrics: Option<obs::Registry>,
    /// Close connections idle longer than this.
    pub idle_timeout: Duration,
    /// Most simultaneous connections the reactor serves.
    pub max_connections: usize,
    /// Engine each slice executes through. The default is sequential:
    /// parallelism comes from the worker pool, one slice per worker.
    /// Its policies are the service's: a recording engine
    /// ([`Engine::with_trace`]) records every executed slice (global
    /// shot indices, so a sliced job's records union to the full run)
    /// with served bytes unchanged.
    pub engine: Engine,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let scheduler = SchedulerConfig::default();
        let reactor = ReactorConfig::default();
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            submitters: 2,
            queue_capacity: scheduler.queue_capacity,
            cache_capacity: scheduler.cache_capacity,
            cache_dir: None,
            cache_disk_bytes: 64 * 1024 * 1024,
            slice_shots: scheduler.slice_shots,
            client_quota_shots: scheduler.client_quota_shots,
            client_quota_shots_per_sec: scheduler.client_quota_shots_per_sec,
            metrics: None,
            idle_timeout: reactor.idle_timeout,
            max_connections: reactor.max_connections,
            engine: Engine::sequential(),
        }
    }
}

/// One run request in flight from the reactor to a submitter.
struct SubmitTask {
    id: Option<String>,
    run: RunRequest,
    completion: Completion,
}

/// The reactor-side protocol brain: runs on the I/O thread, so it must
/// never block on execution. `stats` and `shutdown` are answered
/// inline (lock-only); run requests are handed to the submitter pool.
struct Handler {
    scheduler: Scheduler,
    ctl: ReactorCtl,
    /// Owned by the handler alone: when the reactor loop exits and
    /// drops it, the submitter pool sees a closed channel and exits.
    submit: mpsc::Sender<SubmitTask>,
    /// The registry behind the `metrics` op (`None` answers with an
    /// empty snapshot).
    metrics: Option<obs::Registry>,
}

impl LineHandler for Handler {
    fn on_line(&self, _conn: u64, line: Line, mut completion: Completion) {
        let bytes = match line {
            Line::Complete(bytes) => bytes,
            Line::Oversized => {
                self.scheduler.note_error();
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
                self.scheduler.note_error();
                let response = Response::Error { id: None, error };
                completion.send(response.to_line().into_bytes());
            }
            Ok(Request { id, op: Op::Stats }) => {
                let response = stats_response(id, &self.scheduler, &self.ctl);
                completion.send(response.to_line().into_bytes());
            }
            Ok(Request {
                id,
                op: Op::Metrics,
            }) => {
                let snapshot = self
                    .metrics
                    .as_ref()
                    .map(obs::Registry::snapshot)
                    .unwrap_or_default();
                let response = Response::Metrics { id, snapshot };
                completion.send(response.to_line().into_bytes());
            }
            Ok(Request {
                id,
                op: Op::Shutdown,
            }) => {
                completion.send_close(Response::Bye { id }.to_line().into_bytes());
                self.scheduler.shutdown();
                self.ctl.stop();
            }
            Ok(Request {
                id,
                op: Op::Run(run),
            }) => {
                // If the scheduler drops the job (shutdown) the
                // completion comes back unresolved; this is the reply
                // the peer gets instead of a silent close.
                completion.set_abandoned_reply(
                    Response::Error {
                        id: id.clone(),
                        error: "server shut down before the job completed".to_string(),
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

/// A stats snapshot with the reactor's connection gauges and the
/// per-client rows merged in.
fn stats_response(id: Option<String>, scheduler: &Scheduler, ctl: &ReactorCtl) -> Response {
    Response::Stats {
        id,
        stats: scheduler.stats().with_gauges(ctl.gauges()),
        workers: Vec::new(),
        clients: scheduler.client_rows(),
    }
}

/// The deterministic simulation-serving subsystem. See the crate docs
/// for the wire protocol and guarantees.
pub struct Service;

impl Service {
    /// Binds `config.addr` and starts the serving threads.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (bind/local_addr/pipe).
    pub fn spawn(config: ServiceConfig) -> std::io::Result<ServiceHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let scheduler = Scheduler::new(SchedulerConfig {
            queue_capacity: config.queue_capacity,
            slice_shots: config.slice_shots,
            cache_capacity: config.cache_capacity,
            client_quota_shots: config.client_quota_shots,
            client_quota_shots_per_sec: config.client_quota_shots_per_sec,
            metrics: config.metrics.clone(),
            disk: config.cache_dir.clone().map(|dir| DiskCacheConfig {
                dir,
                max_bytes: config.cache_disk_bytes,
            }),
        });

        // With a registry, the engine times its shot chunks and amp
        // kernels into it.
        let engine = match &config.metrics {
            Some(registry) => config.engine.clone().with_metrics(registry),
            None => config.engine.clone(),
        };
        let workers = spawn_workers(
            "service-worker",
            config.workers,
            &scheduler,
            &engine,
            config.metrics.as_ref(),
        );

        let (submit_tx, submit_rx) = mpsc::channel::<SubmitTask>();
        let submitters = spawn_submitters(
            "service-submit",
            config.submitters.max(1),
            &scheduler,
            submit_rx,
            config.metrics.as_ref(),
        );

        let reactor_config = ReactorConfig {
            max_line_bytes: MAX_LINE_BYTES,
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            metrics: config.metrics.clone(),
            ..ReactorConfig::default()
        };
        let handler_scheduler = scheduler.clone();
        let handler_metrics = config.metrics.clone();
        let reactor = Reactor::spawn(listener, reactor_config, move |ctl| {
            Arc::new(Handler {
                scheduler: handler_scheduler,
                ctl,
                submit: submit_tx,
                metrics: handler_metrics,
            })
        })?;

        Ok(ServiceHandle {
            scheduler,
            reactor,
            submitters,
            workers,
            metrics: config.metrics,
        })
    }
}

/// Spawns the execution worker pool. With a registry, each slice's
/// execution is timed into `stage.execute`.
fn spawn_workers(
    name: &str,
    count: usize,
    scheduler: &Scheduler,
    engine: &Engine,
    metrics: Option<&obs::Registry>,
) -> Vec<JoinHandle<()>> {
    let execute = metrics.map(|registry| registry.histo("stage.execute"));
    (0..count)
        .map(|i| {
            let scheduler = scheduler.clone();
            let engine = engine.clone();
            let execute = execute.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || {
                    while let Some(task) = scheduler.next_slice() {
                        let span = execute.as_ref().map(obs::Span::enter);
                        let counts = task.prepared.run_range(&engine, task.range.clone());
                        drop(span);
                        scheduler.complete_slice(&task.key, counts);
                    }
                })
                .expect("spawn worker")
        })
        .collect()
}

/// Spawns the submitter pool: each thread drains [`SubmitTask`]s and
/// runs the (possibly compiling) admission path, delivering the
/// response through the task's reactor completion.
fn spawn_submitters(
    name: &str,
    count: usize,
    scheduler: &Scheduler,
    rx: mpsc::Receiver<SubmitTask>,
    metrics: Option<&obs::Registry>,
) -> Vec<JoinHandle<()>> {
    let encode = metrics.map(|registry| registry.histo("stage.encode"));
    let rx = Arc::new(Mutex::new(rx));
    (0..count)
        .map(|i| {
            let rx = rx.clone();
            let scheduler = scheduler.clone();
            let encode = encode.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || loop {
                    // Hold the receiver lock only for the recv itself,
                    // so a submitter busy compiling does not starve its
                    // siblings of work.
                    let task = rx.lock().expect("submit queue").recv();
                    let Ok(task) = task else { break };
                    let completion = task.completion;
                    let encode = encode.clone();
                    let responder = Responder::Callback(Box::new(move |response: Response| {
                        let span = encode.as_ref().map(obs::Span::enter);
                        let bytes = response.to_line().into_bytes();
                        drop(span);
                        completion.send(bytes);
                    }));
                    scheduler.submit_async(task.id, &task.run, responder);
                })
                .expect("spawn submitter")
        })
        .collect()
}

/// Owner of a running service's threads.
pub struct ServiceHandle {
    scheduler: Scheduler,
    reactor: ReactorHandle,
    submitters: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    metrics: Option<obs::Registry>,
}

impl ServiceHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Counter snapshot, read directly (no wire round trip), with the
    /// reactor's connection gauges merged in.
    pub fn stats(&self) -> ServiceStats {
        self.scheduler.stats().with_gauges(self.reactor.gauges())
    }

    /// The reactor's raw connection gauges.
    pub fn gauges(&self) -> reactor::ReactorGauges {
        self.reactor.gauges()
    }

    /// A snapshot of the observability registry, read directly (the
    /// same data the wire `metrics` op serves). Empty when the service
    /// was spawned without [`ServiceConfig::metrics`].
    pub fn metrics_snapshot(&self) -> obs::Snapshot {
        self.metrics
            .as_ref()
            .map(obs::Registry::snapshot)
            .unwrap_or_default()
    }

    /// Per-client quota rows, read directly (same data the wire
    /// `stats` op reports).
    pub fn client_rows(&self) -> Vec<crate::ClientRow> {
        self.scheduler.client_rows()
    }

    /// Initiates shutdown and waits for every thread to exit.
    pub fn shutdown(self) {
        self.scheduler.shutdown();
        self.reactor.stop();
        for submitter in self.submitters {
            let _ = submitter.join();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Waits until the service stops (via a wire `shutdown` request or
    /// [`ServiceHandle::shutdown`]).
    pub fn join(self) {
        // The wire handler stops both the scheduler and the reactor;
        // the reactor exiting drops the submit channel, draining the
        // submitter pool, and the scheduler shutdown drains workers.
        self.reactor.join();
        for submitter in self.submitters {
            let _ = submitter.join();
        }
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}
