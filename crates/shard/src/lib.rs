//! # shard — multi-machine sharded serving
//!
//! The serving stack's distributed layer: a **coordinator** process
//! that speaks the exact `crates/service` wire protocol to clients,
//! but executes nothing itself — it partitions each job's global shot
//! range `0..shots` across N downstream **workers** (ordinary
//! `compas-serve` processes) using the protocol's `shot_range`
//! extension, and merges the returned tallies.
//!
//! ## The sharding guarantee
//!
//! Tallies served through coordinator + N workers are **bit-identical
//! to a single-machine `Backend::sample_shots` run with the same root
//! seed** — for any N, any partition, and any failure/re-dispatch
//! history. This is the engine's seed-splitting contract stretched
//! over machines: shot `i` runs on the RNG stream derived from
//! `(root_seed, i)` wherever it executes, and tally merging is
//! commutative, so *who* computed a range can never leak into the
//! result. The differential suite (`tests/sharded_determinism.rs`)
//! asserts byte-level equality for N ∈ {1, 2, 4} and across worker
//! kills.
//!
//! ## Topology
//!
//! ```text
//!                        ┌──────────────────┐   shot_range [0,250)   ┌──────────┐
//!   client ── run ──────▶│   coordinator    │──────────────────────▶│ worker 1 │
//!          ◀── tallies ──│  (compas-serve   │   shot_range [250,500) ├──────────┤
//!                        │   --coordinator) │──────────────────────▶│ worker 2 │
//!                        │                  │          …             ├──────────┤
//!                        │  merge + cache   │──────────────────────▶│ worker N │
//!                        └──────────────────┘      stats heartbeats  └──────────┘
//! ```
//!
//! * [`coordinator`] — a `service::JobBackend`: admission (shared with
//!   `service`), scatter-gather over [`engine::partition_shots`],
//!   bounded re-dispatch of lost ranges, coalescing, result cache,
//!   backpressure. The client-facing side — reactor, handler,
//!   submitter pool, handle — is `service::frontend`, the same front
//!   end a single-machine server runs, so this crate hosts no server
//!   of its own.
//! * [`worker`] — the coordinator's socket layer toward its workers:
//!   persistent links (data links carrying one ranged dispatch at a
//!   time, with abort-on-death polling and re-dispatch; a control link
//!   per worker for the `stats` heartbeat, the `metrics` gather and the
//!   forwarded `shutdown`), per-worker health/counter rows.
//!
//! The `compas-serve` binary (this crate) runs all three roles:
//! standalone (default), `--worker` (a plain server, named for the
//! topology), and `--coordinator --shards a,b,c`. A flag of the other
//! role is refused with exit code 2.

pub mod coordinator;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorConfig, CoordinatorHandle};
pub use worker::{Outcomes, WorkerPool};
