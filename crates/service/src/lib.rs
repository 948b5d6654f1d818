//! # service — the deterministic simulation-serving subsystem
//!
//! Everything below this crate runs batch binaries; this crate puts a
//! long-lived process in front of the execution stack so many callers
//! can share it: a TCP server speaking **newline-delimited JSON**
//! (one request per line, one response per line — see
//! [`protocol`]), where a request carries a circuit as OpenQASM 3 text
//! (the `circuit::qasm` interchange subset) plus
//! `{shots, root_seed, backend}`, and the response carries the
//! measurement-record tallies.
//!
//! ## The serving guarantee
//!
//! Served tallies are **bit-identical** to a direct
//! `engine::Backend::sample_shots` call with the same root seed and
//! backend — cold, sliced, coalesced, or cached. This falls out of the
//! engine's determinism contract: shot `i`'s RNG stream is a pure
//! function of `(root_seed, i)`, so executing a job as scheduler
//! slices over global shot-index ranges and merging the tallies
//! reproduces the uninterrupted run exactly — and out of the code: a
//! slice and a direct call are the same [`PreparedJob::run_range`]
//! (the engine's only backend dispatch, re-exported here). A serving
//! layer therefore costs *nothing* in reproducibility: any response
//! can be re-derived offline from its request alone.
//!
//! How slices execute — threads, amp policy, metrics, shot-trace
//! recording — is the policy of the one [`ServiceConfig::engine`]: to
//! record a served run, spawn the service over
//! `Engine::with_trace(sink)`; served bytes do not change.
//!
//! ## Architecture
//!
//! One front end over a backend:
//!
//! 1. [`frontend`] — the one wire front end, shared with the
//!    `crates/shard` coordinator: a single `crates/reactor` I/O thread
//!    multiplexing every connection over `poll(2)` and answering a run
//!    whose result is already in memory itself (lock-only lookups), a
//!    submitter pool for every other (possibly compiling) admission and
//!    `metrics` gathers, and the handle. It serves any [`JobBackend`];
//! 2. [`scheduler`] — the local backend: bounded job admission with
//!    explicit backpressure (`busy` + retry hint when full),
//!    **shot-slicing** of large jobs into ranged chunks, **two-level
//!    round-robin** rotation (across client identities, then across
//!    each client's jobs) with a per-client in-flight shot quota, and
//!    **coalescing** of concurrently queued identical requests onto one
//!    execution;
//! 3. [`cache`] — a content-addressed LRU result cache keyed by the
//!    canonical circuit fingerprint + seed + shots + resolved backend,
//!    with hit/miss counters and an optional **disk spill** so a
//!    restarted server serves previously-computed results warm;
//! 4. [`server`] — [`Service::spawn`]: the scheduler, the worker pool
//!    that replays compiled jobs (each circuit is compiled **once** per
//!    process, by the [`admission`] cache — fused statevector kernels,
//!    stabilizer plan, or once-evolved density matrix — and every slice
//!    of every seed replays it), and the front end over them.
//!
//! ```text
//!   clients ──▶ frontend: reactor ─▶ submitters ──▶ JobBackend::submit
//!                          │                        ├─ Scheduler  (server: local slices)
//!                          │                        └─ Coordinator (shard: scatter-gather)
//!                          └─ JobBackend::lookup = frontend::lookup, both roles:
//!                             a known result, answered inline; a miss carries the
//!                             result cache's generation, so the submitter reads
//!                             memory again only if an insert has landed
//! ```
//!
//! ## Binaries
//!
//! * `compas-client` (this crate) — one-shot client: submit a QASM
//!   file or a built-in demo circuit, query stats, or request
//!   shutdown; retries `busy` responses with the server's back-off
//!   hint.
//! * `compas-serve` (crates/shard) — the server binary, in three
//!   roles: standalone, `--worker`, and `--coordinator` (shards each
//!   job's shot range across workers via the protocol's `shot_range`
//!   extension).
//!
//! ```no_run
//! use service::{Service, ServiceConfig};
//!
//! let handle = Service::spawn(ServiceConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! handle.shutdown();
//! ```

pub mod admission;
pub mod cache;
pub mod frontend;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use admission::{admit, AdmissionCache, Admitted};
pub use cache::DiskCacheConfig;
pub use engine::PreparedJob;
pub use frontend::{Frontend, FrontendHandle, JobBackend};
pub use protocol::{ClientRow, Op, Request, Response, RunRequest, ServiceStats, WorkerRow};
pub use reactor::MAX_LINE_BYTES;
pub use scheduler::{
    Responder, Scheduler, SchedulerConfig, Submission, MAX_REQUEST_CBITS, MAX_REQUEST_QUBITS,
};
pub use server::{Service, ServiceConfig, ServiceHandle};
