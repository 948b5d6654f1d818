//! # engine — parallel, deterministic shot execution
//!
//! Every sampling workload in this repository — CSWAP classical
//! fidelities (§5.2), GHZ fidelities (§5.3), Table 4's residual-error
//! histograms, the trace-estimation shots behind the application layer —
//! is embarrassingly parallel Monte Carlo: independent shots folded into
//! a tally. This crate is the single entry point for running them at
//! production scale.
//!
//! ## Determinism by seed splitting
//!
//! A job is described by a root seed. Shot `i` runs on its **own** RNG
//! stream, `StdRng::seed_from_u64(derive_stream_seed(root, i))`, where
//! [`derive_stream_seed`] is a SplitMix64-style avalanche of
//! `(root, i)`. Because a shot's stream depends only on the root seed
//! and the shot index — never on which worker ran it or in what order —
//! and because tallies merge commutatively, the result of a job is
//! **bit-identical at any thread count**. Asserted by the crate's
//! determinism tests at 1, 2, and 8 threads.
//!
//! ## Execution model
//!
//! [`Executor`] is the boundary at which callers pick the execution
//! mode: [`Executor::sequential`] runs shots inline on the calling
//! thread, [`Executor::pooled`] partitions them across an [`Engine`]
//! worker pool — and both produce bit-identical results for the same
//! root seed, because the per-shot streams are mode-independent. Every
//! layer above (protocol backends, analysis drivers, applications)
//! takes `&Executor` instead of forking into sequential/parallel twin
//! APIs.
//!
//! [`Backend`] is the matching boundary on the representation side:
//! *what* simulates a shot (statevector, density matrix, stabilizer
//! tableau — any `qsim::sim::SimState`) is selected once, per circuit,
//! by name or by [`Backend::Auto`]'s
//! Clifford routing — while [`ShotPlan`] and
//! [`Executor::sample_shots`] stay generic over the backend. The
//! selection is executed in one place, [`PreparedJob`]:
//! [`Backend::sample_shots`] runs `0..shots` of one, the serving layer
//! runs it slice by slice. One sampling surface, representation and
//! execution mode both chosen at the boundary.
//!
//! [`Engine`] holds an [`EngineConfig`] (thread count, chunk size) and
//! partitions a job's shots into chunks claimed from an atomic cursor by
//! its workers: the calling thread and parked helpers of the persistent
//! execution pool ([`qsim::pool`], std only), so a fold creates no
//! thread once the pool is warm. Each worker owns its accumulator and
//! its *workspace* — e.g. a reused [`qsim::statevector::StateVector`]
//! buffer for statevector shots — and each worker's tally merges once,
//! as it ends: the partitioned pattern for embarrassingly parallel
//! sampling. That claim-and-merge loop is written once, as the engine's
//! one fold over one or more seed streams: the [`Executor`]'s counts
//! and tallies and every shot-parallel compiled run are folds over it.
//!
//! ## Amplitude-level parallelism is a policy, not an API
//!
//! Big statevector shots (2²⁰+ amplitudes) invert the trade-off:
//! shot-level parallelism keeps the cores busy but each shot's latency
//! is one core's memory bandwidth, and the working set no longer fits
//! in cache. For those, the engine flips to **amplitude-level**
//! parallelism: shots run in order and each one splits its amplitude
//! space across the pool via
//! `qsim::amp` (`StateVector::apply_compiled_parallel`), with a barrier
//! per kernel. Deliberately there is **no twin API** — no
//! `sample_shots_amp`, no amp-parallel `Executor`. The mode is
//! pure latency policy, decided per plan by
//! [`EngineConfig::amp_engaged`] from two config fields
//! ([`EngineConfig::amp_threads`] and
//! [`EngineConfig::amp_threshold_qubits`]), and it can stay a policy
//! because the amp-parallel replay is *bit-identical* to the
//! sequential one at any worker count (shot `i`
//! still consumes stream `derive_stream_seed(root, i)`; interpreted
//! points run single-threaded in program order). A twin API would
//! force every protocol backend and analysis driver to pick a mode it
//! cannot evaluate — only the engine sees the width, the backend's
//! range-splitting capability (`SimState::AMP_PARALLEL`), and the
//! machine.
//!
//! ## Shots start from the job's noiseless prefix
//!
//! The ops of a statevector program before its first `Measure`, `Reset`
//! or `Conditional` are kernels and depolarizing sites, and a site's
//! draws (`u < p`, then a Pauli code) read no state. So every shot whose
//! prefix sites stay silent reaches the same state there. A
//! [`ShotPlan`] builds that state once
//! (`qsim::sim::SimState::noiseless_prefix`), lazily, on its first
//! range of two or more shots; [`Executor::sample_shots`] builds it for
//! its own call under the same rule. A one-shot run never builds or
//! copies one, and neither does a state of 20 or more qubits: the
//! prefix is a second state for the life of the job, which would double
//! a wide multi-shot job's peak memory. Each shot then draws its
//! prefix site tests on a **clone** of its own stream: if one fires, it
//! replays the whole program on its untouched stream; if none fires,
//! the shot adopts the advanced clone and walks the prefix's **tree of
//! branch states**. At each `Measure` or `Reset` past the prefix it
//! draws the outcome (and the readout flip) exactly as the measurement
//! would, compares it with the op's `p1` — summed once per node by the
//! measurement's own probe — and moves to the child for that outcome,
//! built once, on the first shot that takes it, by the measurement's
//! own collapse and the kernels up to the next interpretation point. It
//! copies the state where it leaves the tree and replays only the ops
//! from there: none at the program's end; at a `Conditional`, a
//! depolarizing site, or a child the tree's budget refused, the rest
//! (the refused child's outcome draw put back). The budget caps what a
//! tree stores beyond its root at two root states and at 512 KiB, so a
//! state of 16 or more qubits grows no child; a fork whose outcome is
//! certain keeps no state, so a GHZ-12 tree is its root and two
//! one-amplitude leaves. Every arm draws the same values in the same
//! order and applies the same functions to the same values, so
//! records, tallies, stream positions and golden bytes are unchanged; a
//! walk and one state copy replace the prefix's kernels and the tree's
//! measurements. The rule reads only the backend (the stabilizer and
//! density matrix build no prefix), the shot count and the program's
//! width: nothing to configure.
//! One per-shot function takes the choice on both arms — shot-parallel
//! and amp-parallel — and [`Engine::with_metrics`] counts its outcomes
//! once per run: `engine.prefix_shots` and `engine.prefix_fallbacks` split the shots
//! that walked the tree from those that fell back, and
//! `engine.branch_exits` counts the walks that left the tree before the
//! program's end and replayed ops.
//!
//! ## Recording is a policy, not an API
//!
//! The same holds for shot traces. Every run that produces [`Counts`]
//! goes through one loop in this crate — reset the state, replay the
//! program, pack the record, tally — and an engine built with
//! [`Engine::with_trace`] also hands each shot's [`ShotRecord`] to its
//! [`TraceSink`], on the shot-parallel and the amp-parallel arm alike.
//! There are no `_traced` twins and no sink parameters: a caller that
//! wants a trace passes a recording engine to the [`Executor`], the
//! `ServiceConfig` or [`PreparedJob::run_range`], and nothing else
//! about the call changes — not the counts, not the amp policy, not the
//! stream positions. An engine without a sink reads no clock per shot.
//! [`Engine::with_metrics`] is the third policy of the same kind.
//!
//! The same seed-splitting contract extends past one machine:
//! [`partition_shots`] deterministically splits a job's global shot
//! range into per-worker sub-ranges and [`merge_counts`] folds the
//! results back — executed *anywhere* (the ranged primitives
//! [`Engine::run_plan_range`] / [`PreparedJob::run_range`] take global
//! shot indices), the merged tallies are bit-identical to one
//! local run. `crates/shard` builds the multi-machine coordinator on
//! exactly this seam.
//!
//! [`ShotPlan`] describes one sampling job on any backend (circuit,
//! initial state, shot count, root seed — compiled once at
//! construction). A grid of jobs — one per noise point, qubit count or
//! table row, the common shape of the `bench` binaries — runs point by
//! point, point `i` under the child context [`Executor::derive`]`(i)`,
//! so the grid is reproducible from one root seed in every mode.
//!
//! ## Command line
//!
//! Binaries that build their engine with [`Engine::from_args`] take
//! `--threads N` (default: the machine's available parallelism).
//!
//! ```
//! use circuit::circuit::Circuit;
//! use engine::{Engine, ShotPlan};
//! use qsim::statevector::StateVector;
//!
//! let mut c = Circuit::new(2, 2);
//! c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! let plan = ShotPlan::new(c, StateVector::new(2), 1000, 7);
//!
//! let counts = Engine::with_threads(4).run_plan(&plan);
//! assert_eq!(counts.values().sum::<usize>(), 1000);
//! // Bell state: only 00 and 11 appear, regardless of thread count.
//! assert_eq!(counts, Engine::with_threads(1).run_plan(&plan));
//! ```

mod backend;
mod config;
mod executor;
mod pool;
mod seed;
mod sharding;
mod trace;

pub use backend::{Backend, PreparedJob};
pub use config::EngineConfig;
pub use executor::Executor;
pub use pool::{Counts, Engine, ShotPlan};
pub use seed::{derive_stream_seed, shot_rng};
pub use sharding::{merge_counts, partition_shots};
pub use trace::{MemorySink, ShotRecord, TraceSink};
