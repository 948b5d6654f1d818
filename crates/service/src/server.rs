//! The single-machine server: the [`frontend`](crate::frontend) over a
//! local [`Scheduler`] and its execution worker pool.
//!
//! [`Service::spawn`] builds the scheduler, starts `workers`
//! **execution workers**, each looping [`Scheduler::next_slice`] →
//! [`PreparedJob::run_range`] → [`Scheduler::complete_slice`] over the
//! shared engine, and hands the scheduler to [`Frontend::spawn`] for
//! the reactor thread and the submitter pool.
//!
//! Shutdown is cooperative: a `shutdown` request (or
//! [`FrontendHandle::shutdown`]) stops the scheduler — workers observe
//! it and exit, pending waiters fail with an error response — and
//! stops the reactor, which flushes outstanding replies before
//! closing.
//!
//! [`PreparedJob::run_range`]: engine::PreparedJob::run_range
//! [`FrontendHandle::shutdown`]: crate::frontend::FrontendHandle::shutdown

use crate::cache::DiskCacheConfig;
use crate::frontend::{Frontend, FrontendHandle};
use crate::scheduler::{Scheduler, SchedulerConfig};
use engine::Engine;
use reactor::ReactorConfig;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything [`Service::spawn`] needs to know.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`FrontendHandle::addr`]).
    pub addr: String,
    /// Execution workers. A job arriving while several are parked is
    /// split into one share per idle worker (no share under 256 shots),
    /// so a small job still uses every free core. 0 admits jobs but
    /// never runs them — useful only for deterministic backpressure
    /// tests.
    pub workers: usize,
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
    /// Most shots per scheduling slice (fairness quantum). Idle workers
    /// split a job into smaller slices; under load every slice but a
    /// job's last is exactly this size (see
    /// [`SchedulerConfig::slice_shots`]).
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
    /// worker pool's `stage.execute` timings, the front end's
    /// `stage.encode` timings — and the wire `metrics` op answers with
    /// its snapshot. Without one, counters and timers are kept but not
    /// exported. Served bytes are unchanged (differential-tested).
    pub metrics: Option<obs::Registry>,
    /// Close connections idle longer than this.
    pub idle_timeout: Duration,
    /// Most simultaneous connections the reactor serves.
    pub max_connections: usize,
    /// Engine each slice executes through. The default is sequential:
    /// parallelism comes from the worker pool, one slice per worker —
    /// across jobs under load, and across the shares of one job when
    /// workers are idle. Its policies are the service's: a recording
    /// engine
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

/// Owner of a running service's threads.
pub type ServiceHandle = FrontendHandle<Scheduler>;

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
        let workers = spawn_workers(config.workers, &scheduler, &engine, config.metrics.as_ref());

        let reactor = ReactorConfig {
            idle_timeout: config.idle_timeout,
            max_connections: config.max_connections,
            metrics: config.metrics,
        };
        Frontend::spawn(listener, reactor, Arc::new(scheduler), workers)
    }
}

/// Spawns the execution worker pool. Each slice's execution is timed
/// into `stage.execute` (exported only with a registry).
fn spawn_workers(
    count: usize,
    scheduler: &Scheduler,
    engine: &Engine,
    metrics: Option<&obs::Registry>,
) -> Vec<JoinHandle<()>> {
    let execute = metrics.map_or_else(obs::Histo::new, |r| r.histo("stage.execute"));
    (0..count)
        .map(|i| {
            let scheduler = scheduler.clone();
            let engine = engine.clone();
            let execute = execute.clone();
            std::thread::Builder::new()
                .name(format!("service-worker-{i}"))
                .spawn(move || {
                    while let Some(task) = scheduler.next_slice() {
                        let span = obs::Span::enter(&execute);
                        let counts = task.prepared.run_range(&engine, task.range.clone());
                        drop(span);
                        scheduler.complete_slice(&task.key, counts);
                    }
                })
                .expect("spawn worker")
        })
        .collect()
}
