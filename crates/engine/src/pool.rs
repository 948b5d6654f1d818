//! The worker pool: chunked, deterministic parallel folding of shots.

use circuit::circuit::Circuit;
use qsim::runner::{pack_cbits, run_program_into_from_prefix};
use qsim::sim::{NoiselessPrefix, SimState, Walk};
use qsim::statevector::StateVector;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::config::EngineConfig;
use crate::seed::shot_rng;
use crate::sharding::merge_counts;
use crate::trace::{TraceBuffer, TraceSink};

/// Histogram of packed classical-register outcomes, matching the key
/// and value conventions of `qsim::runner::sample_shots`.
pub type Counts = HashMap<usize, usize>;

/// One sampling job: play `circuit` from `initial` for `shots`
/// repetitions under root seed `root_seed`, histogramming the classical
/// register.
///
/// Generic over the simulation backend `S` ([`SimState`]), defaulting
/// to the statevector; `ShotPlan<CliffordState>` runs the same job on
/// the stabilizer tableau, `ShotPlan<DensityMatrix>` on the exact
/// deferred-measurement path. The runtime selector is
/// [`Backend`](crate::Backend).
///
/// A plan is two parts: the seed-free core behind an `Arc` — circuit,
/// initial state, compiled program and noiseless prefix with its tree,
/// all pure in the circuit — and the job's own shot bound and root
/// seed. [`ShotPlan::reseeded`] pairs the same core with another seed
/// in O(1), so a circuit served under many seeds compiles once and
/// grows one prefix tree, which lives as long as the last plan that
/// shares it. Sharing changes no record: what a tree node holds is pure
/// in the program (the `qsim::sim` module docs).
#[derive(Debug)]
pub struct ShotPlan<S: SimState = StateVector> {
    /// What every shot plays, shared by the plans reseeded from this one.
    core: Arc<PlanCore<S>>,
    /// Number of repetitions.
    shots: u64,
    /// Root seed; shot `i` runs on stream `derive_stream_seed(root, i)`.
    root_seed: u64,
}

/// The seed-free part of a [`ShotPlan`].
#[derive(Debug)]
struct PlanCore<S: SimState> {
    /// The circuit to play (may include measurement, reset, feed-forward
    /// and stochastic noise sites). Private — the compiled `program` is
    /// derived from it at construction, so mutating it afterwards would
    /// silently desynchronize what the plan executes.
    circuit: Circuit,
    /// The initial state each shot starts from.
    initial: S,
    /// The circuit lowered once by [`SimState::compile`]; every shot on
    /// every worker replays this instead of re-interpreting the
    /// instruction stream.
    program: S::Program,
    /// The program's noiseless prefix ([`SimState::noiseless_prefix`]),
    /// built on the first range of [`PREFIX_MIN_SHOTS`] or more shots
    /// that any plan sharing this core runs — at most once, and only on
    /// a state narrower than [`PREFIX_MAX_QUBITS`] — and shared by every
    /// later range. It is a second state beside the workers' own for as
    /// long as the core lives (a served circuit's: as long as its
    /// admission-cache entry); its tree of branch states adds at most
    /// 512 KiB of amplitudes.
    prefix: PrefixCell<S>,
}

impl<S: SimState> Clone for ShotPlan<S> {
    /// Another handle on the same core, seed and bound.
    fn clone(&self) -> Self {
        self.reseeded(self.shots, self.root_seed)
    }
}

/// Where a job keeps its noiseless prefix once built: `None` inside
/// means the backend or the program has none.
pub(crate) type PrefixCell<S> = OnceLock<Option<NoiselessPrefix<S>>>;

/// A run of at least this many shots starts them from the job's
/// noiseless prefix; a one-shot run never builds or copies one.
const PREFIX_MIN_SHOTS: u64 = 2;

/// A state at least this wide builds no noiseless prefix. The prefix
/// keeps a second state beside each worker's workspace (its tree of
/// branch states adds at most 512 KiB, and nothing from 16 qubits on):
/// below 20 qubits that is at most 8 MiB, but from here up (16 MiB at
/// 20 qubits, 1 GiB at 26) it would double a wide multi-shot job's peak
/// memory — a 4-shot 20-qubit ZZ job peaks at 36 MiB with one, 19 MiB
/// without — so those jobs replay every shot from the top, as a
/// one-shot job does. The prefix lives as long as its plan's core, so
/// a served circuit's prefix stays for as long as its admission-cache
/// entry does; [`PreparedJob::bytes_bound`](crate::PreparedJob::bytes_bound)
/// charges it there.
pub(crate) const PREFIX_MAX_QUBITS: usize = 20;

/// The job's noiseless prefix for a run of `shots` shots: built into
/// `cell` on the first run of at least [`PREFIX_MIN_SHOTS`] on a state
/// narrower than [`PREFIX_MAX_QUBITS`], its kernels split across up to
/// `threads` workers; never otherwise.
fn prefix_for<'c, S: SimState>(
    cell: &'c PrefixCell<S>,
    program: &S::Program,
    initial: &S,
    shots: u64,
    threads: usize,
) -> Option<&'c NoiselessPrefix<S>> {
    if shots < PREFIX_MIN_SHOTS || initial.num_qubits() >= PREFIX_MAX_QUBITS {
        return None;
    }
    cell.get_or_init(|| S::noiseless_prefix(program, initial, threads))
        .as_ref()
}

impl<S: SimState> ShotPlan<S> {
    /// Builds a plan, validating that the state covers the circuit
    /// (and, under debug assertions, probing the backend's capability
    /// contract once — per plan, not per shot), and compiling the
    /// circuit once for the backend.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than `initial` has.
    pub fn new(circuit: Circuit, initial: S, shots: u64, root_seed: u64) -> Self {
        check_plan(&circuit, &initial);
        let program = S::compile(&circuit);
        ShotPlan {
            core: Arc::new(PlanCore {
                circuit,
                initial,
                program,
                prefix: PrefixCell::new(),
            }),
            shots,
            root_seed,
        }
    }

    /// The same program under another shot bound and root seed: shares
    /// this plan's circuit, initial state, compiled program and
    /// noiseless prefix — tree included — so it compiles and builds
    /// nothing. O(1): one `Arc` clone.
    pub fn reseeded(&self, shots: u64, root_seed: u64) -> ShotPlan<S> {
        ShotPlan {
            core: Arc::clone(&self.core),
            shots,
            root_seed,
        }
    }

    /// The circuit this plan plays.
    pub fn circuit(&self) -> &Circuit {
        &self.core.circuit
    }

    /// The initial state each shot starts from.
    pub fn initial(&self) -> &S {
        &self.core.initial
    }

    /// Number of repetitions.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Root seed; shot `i` runs on stream `derive_stream_seed(root, i)`.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The backend program compiled once at plan construction.
    pub fn program(&self) -> &S::Program {
        &self.core.program
    }
}

/// The once-per-job checks: the state covers the circuit and, under
/// debug assertions, the backend's capability probe accepts it.
///
/// # Panics
///
/// Panics if the circuit needs more qubits than `initial` has.
pub(crate) fn check_plan<S: SimState>(circuit: &Circuit, initial: &S) {
    assert!(
        circuit.num_qubits() <= initial.num_qubits(),
        "circuit needs {} qubits but the state has {}",
        circuit.num_qubits(),
        initial.num_qubits()
    );
    debug_assert!(
        S::supports(circuit).is_ok(),
        "{}",
        S::supports(circuit).unwrap_err()
    );
}

/// The engine's one per-shot function: one compiled shot on a worker's
/// `(state, register)` workspace, its state space split across up to
/// `threads` workers, the record packed. With the job's noiseless
/// `prefix` the shot walks the prefix's tree unless a prefix site fires
/// ([`run_program_into_from_prefix`]); `tally` counts where it started.
pub(crate) fn replay_shot<S: SimState>(
    program: &S::Program,
    initial: &S,
    prefix: Option<&NoiselessPrefix<S>>,
    (state, cbits): &mut (S, Vec<bool>),
    rng: &mut StdRng,
    threads: usize,
    tally: &mut PrefixTally,
) -> usize {
    match run_program_into_from_prefix(program, initial, prefix, state, cbits, rng, threads) {
        Some(Walk::Fallback) => tally.fallbacks += 1,
        Some(walk) => {
            tally.shots += 1;
            tally.exits += u64::from(walk == Walk::Exit);
        }
        None => {}
    }
    pack_cbits(cbits)
}

/// How the shots of one run began: from the job's noiseless prefix, or
/// — a prefix site having fired — from the top of the program. Counted
/// in plain integers per worker and added to `engine.prefix_shots` /
/// `engine.prefix_fallbacks` / `engine.branch_exits` once per run, so
/// no shot touches an atomic.
#[derive(Default, Clone, Copy)]
pub(crate) struct PrefixTally {
    /// Shots that started from the prefix: walked its tree.
    shots: u64,
    /// Shots that replayed the whole program because a prefix site fired.
    fallbacks: u64,
    /// Of `shots`, those that left the tree before the program's end
    /// and replayed ops.
    exits: u64,
}

/// One worker's [`PrefixTally`] on the shot-parallel arm, kept in its
/// workspace and merged into the run's `total` when the workspace
/// drops — once per worker, at the end of its run.
struct WorkerTally<'t> {
    tally: PrefixTally,
    total: &'t Mutex<PrefixTally>,
}

impl Drop for WorkerTally<'_> {
    fn drop(&mut self) {
        let mut total = self.total.lock().unwrap_or_else(PoisonError::into_inner);
        total.shots += self.tally.shots;
        total.fallbacks += self.tally.fallbacks;
        total.exits += self.tally.exits;
    }
}

/// Resolved observability handles: the engine's execution timings.
#[derive(Clone)]
struct EngineObs {
    /// Wall time of each claimed work unit (a shot chunk of a fold).
    chunk: obs::Histo,
    /// Wall time of each amp-parallel shot.
    amp_shot: obs::Histo,
    /// Per-step apply times on the amp path — one sample per kernel,
    /// or per blocked group of kernels, that gave worker 0 work —
    /// mirrored from `qsim::amp::kernel_clock`.
    amp_kernel: obs::Histo,
    /// Shots that started from their job's noiseless prefix.
    prefix_shots: obs::Counter,
    /// Shots that had a prefix but replayed the whole program because
    /// one of its sites fired.
    prefix_fallbacks: obs::Counter,
    /// Shots that started from the prefix but left its tree before the
    /// program's end and replayed ops.
    branch_exits: obs::Counter,
}

/// The shot-execution engine: a configured worker pool over which every
/// sampling workload in the workspace runs. See the crate docs for the
/// determinism contract.
#[derive(Clone, Default)]
pub struct Engine {
    config: EngineConfig,
    obs: Option<EngineObs>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("obs", &self.obs.as_ref().map(|_| "..."))
            .field("trace", &self.trace.as_ref().map(|_| "..."))
            .finish()
    }
}

impl Engine {
    /// An engine with an explicit configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            config,
            obs: None,
            trace: None,
        }
    }

    /// A copy of this engine that times execution into `registry`:
    /// `engine.chunk` takes one sample per claimed work unit — a shot
    /// chunk of a fold at any worker count — `engine.amp_shot` one
    /// per amp-parallel shot, and `engine.amp_kernel` the amp path's
    /// per-step apply times (mirrored from `qsim::amp::kernel_clock`:
    /// one sample per kernel or blocked kernel group, none for a step
    /// that left worker 0 without a live unit). The counters
    /// `engine.prefix_shots` and `engine.prefix_fallbacks` split the
    /// shots of every compiled [`Counts`] run that had a noiseless
    /// prefix into those that started from it and those that replayed
    /// the whole program because a prefix site fired (a run without a
    /// prefix — one shot, a state of 20 or more qubits, or a backend
    /// that builds none — adds to neither); `engine.branch_exits`
    /// counts the shots of the first kind that left the prefix's tree of
    /// branch states before the program's end and replayed ops from
    /// there. Observation only — every
    /// tally stays bit-identical to the unobserved engine's.
    pub fn with_metrics(mut self, registry: &obs::Registry) -> Engine {
        self.obs = Some(EngineObs {
            chunk: registry.histo("engine.chunk"),
            amp_shot: registry.histo("engine.amp_shot"),
            amp_kernel: registry.histo("engine.amp_kernel"),
            prefix_shots: registry.counter("engine.prefix_shots"),
            prefix_fallbacks: registry.counter("engine.prefix_fallbacks"),
            branch_exits: registry.counter("engine.branch_exits"),
        });
        self
    }

    /// A copy of this engine that records: every run producing
    /// [`Counts`] — [`Engine::run_plan_range`],
    /// [`Executor::sample_shots`](crate::Executor::sample_shots),
    /// [`PreparedJob::run_range`](crate::PreparedJob::run_range) and
    /// what is built on them — also delivers one
    /// [`ShotRecord`](crate::ShotRecord) per executed shot to `sink`, in
    /// unspecified order, each index exactly once. Recording is
    /// observation only: counts, amp engagement and stream positions
    /// are the unrecorded engine's, which reads no clock per shot. The
    /// [`Executor`](crate::Executor)'s counts and tallies have no `u64`
    /// record and stay unrecorded.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Engine {
        self.trace = Some(sink);
        self
    }

    /// An engine with the worker count of a `--threads N` process
    /// argument (see [`EngineConfig::from_args`]).
    pub fn from_args() -> Self {
        Engine::new(EngineConfig::from_args())
    }

    /// A single-threaded engine (the sequential reference path).
    pub fn sequential() -> Self {
        Engine::new(EngineConfig::single_threaded())
    }

    /// An engine with exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Engine::new(EngineConfig::with_threads(threads))
    }

    /// Adds one run's [`PrefixTally`] to the registry — once per run,
    /// not per shot.
    fn count_prefix(&self, tally: PrefixTally) {
        if let Some(obs) = &self.obs {
            obs.prefix_shots.add(tally.shots);
            obs.prefix_fallbacks.add(tally.fallbacks);
            obs.branch_exits.add(tally.exits);
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Whether shots on backend `S` over a `num_qubits`-wide state run
    /// amp-parallel (one shot at a time, its amplitude space split
    /// across [`EngineConfig::amp_threads`]) instead of shot-parallel.
    /// Pure policy on [`EngineConfig::amp_engaged`] and the backend's
    /// `SimState::AMP_PARALLEL` capability: engaging never changes a
    /// tally, only the latency of big single shots.
    pub fn amp_engaged<S: SimState>(&self, num_qubits: usize) -> bool {
        self.config.amp_engaged(S::AMP_PARALLEL, num_qubits)
    }

    /// The engine's one fold: folds the **global** shot indices of one
    /// or more streams `(root_seed, range)` into an accumulator, in
    /// parallel.
    ///
    /// The streams' shots, concatenated in order, are cut into units of
    /// [`EngineConfig::chunk_size`] shots (a unit may run from the end
    /// of one stream into the next), claimed from one atomic cursor by
    /// up to [`EngineConfig::threads`] workers: the calling thread and
    /// parked helpers of the execution pool ([`qsim::pool::run`]),
    /// inline when one suffices. So a call pays one start and one tail
    /// however many streams it folds. Each worker builds its own
    /// workspace with `make_ws` (reused scratch buffers — statevectors,
    /// bit registers), which dies on it, and its own accumulator with
    /// `init`; `step` folds shot `i` of stream `s` into the accumulator
    /// on the shot's private stream `shot_rng(root_seed_s, i)`; each
    /// worker's accumulator is merged into the result with `merge` as
    /// the worker ends. Each claimed unit is one `engine.chunk` sample.
    ///
    /// Because shot `i`'s stream is the one it would use in a full
    /// `0..shots` run, a partition of `0..shots` folded as separate
    /// ranged calls and merged is **bit-identical** to the single full
    /// call — and a call on several streams to one call per stream — at
    /// any thread count and any partition, provided `step`'s
    /// contribution depends only on the stream, the shot index and its
    /// RNG and `merge` is commutative and associative. This is the
    /// primitive behind the serving layer's shot-slicing: a large job is
    /// sliced into ranges for fairness across clients without changing
    /// a single record.
    pub(crate) fn run_fold_with<W, A, MW, IA, F, M>(
        &self,
        streams: &[(u64, Range<u64>)],
        make_ws: MW,
        init: IA,
        step: F,
        merge: M,
    ) -> A
    where
        A: Send,
        MW: Fn() -> W + Sync,
        IA: Fn() -> A + Sync,
        F: Fn(&mut A, &mut W, usize, u64, &mut StdRng) + Sync,
        M: Fn(A, A) -> A + Sync,
    {
        let len = |range: &Range<u64>| range.end.saturating_sub(range.start);
        let total: u64 = streams.iter().map(|(_, range)| len(range)).sum();
        let chunk = self.config.chunk_size.max(1);
        let units = total.div_ceil(chunk);
        let chunk_histo = self.obs.as_ref().map(|o| &o.chunk);
        let cursor = AtomicU64::new(0);
        let result = Mutex::new(None);
        let workers = (self.config.threads as u64).min(units).max(1);
        qsim::pool::run(workers as usize, |_| {
            let (mut acc, mut ws) = (init(), make_ws());
            loop {
                let unit = cursor.fetch_add(1, Ordering::Relaxed);
                if unit >= units {
                    break;
                }
                let started = chunk_histo.map(|_| Instant::now());
                // The unit is `[lo, hi)` of the concatenation, in which
                // stream `s` starts at `offset`.
                let (lo, hi) = (unit * chunk, ((unit + 1) * chunk).min(total));
                let mut offset = 0;
                for (s, (root_seed, range)) in streams.iter().enumerate() {
                    let len = len(range);
                    for at in lo.max(offset)..hi.min(offset + len) {
                        let shot = range.start + (at - offset);
                        step(&mut acc, &mut ws, s, shot, &mut shot_rng(*root_seed, shot));
                    }
                    offset += len;
                }
                if let (Some(histo), Some(started)) = (chunk_histo, started) {
                    histo.record_duration(started.elapsed());
                }
            }
            let mut result = result.lock().unwrap_or_else(PoisonError::into_inner);
            *result = Some(match result.take() {
                Some(other) => merge(other, acc),
                None => acc,
            });
        });
        let result = result.into_inner().unwrap_or_else(PoisonError::into_inner);
        result.expect("at least one worker")
    }

    /// Executes one [`ShotPlan`] on its backend, reusing one state
    /// buffer and one classical register per worker and replaying the
    /// plan's compiled program each shot. Returns counts in the
    /// `sample_shots` convention.
    pub fn run_plan<S: SimState>(&self, plan: &ShotPlan<S>) -> Counts {
        self.run_plan_range(plan, 0..plan.shots)
    }

    /// Executes the global shot indices `range` of a [`ShotPlan`] —
    /// the serving layer's slice primitive. Merging the counts of a
    /// partition of `0..plan.shots()` reproduces [`Engine::run_plan`]
    /// bit-identically, because shot `i`'s stream depends only on the
    /// plan's root seed and `i`.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches beyond the plan's shot count.
    pub fn run_plan_range<S: SimState>(&self, plan: &ShotPlan<S>, range: Range<u64>) -> Counts {
        assert!(
            range.end <= plan.shots,
            "slice {}..{} exceeds the plan's {} shots",
            range.start,
            range.end,
            plan.shots
        );
        let core = &*plan.core;
        self.run_program_range(
            &core.program,
            &core.initial,
            &core.prefix,
            plan.root_seed,
            range,
        )
    }

    /// The one compiled shot loop, under [`Engine::run_plan_range`] and
    /// [`Executor::sample_shots`](crate::Executor::sample_shots): shot
    /// `i` of `range` replays `program` from `initial` on
    /// `shot_rng(root_seed, i)` — through [`replay_shot`], from the
    /// job's noiseless prefix (kept in `prefix`, built there by the
    /// first run of two or more shots, on this run's threads) when the
    /// shot's prefix sites stay silent, which changes no record. It alone decides
    /// between shot-level parallelism ([`Engine::run_records`]) and,
    /// when [`Engine::amp_engaged`], amplitude-level: shots in order on
    /// the calling thread, each split across
    /// [`EngineConfig::amp_threads`] workers and bit-identical to its
    /// sequential replay — so counts and records are the same on either
    /// arm, under any partition.
    pub(crate) fn run_program_range<S: SimState>(
        &self,
        program: &S::Program,
        initial: &S,
        prefix: &PrefixCell<S>,
        root_seed: u64,
        range: Range<u64>,
    ) -> Counts {
        let shots = range.end.saturating_sub(range.start);
        if !self.amp_engaged::<S>(initial.num_qubits()) {
            let prefix = prefix_for(prefix, program, initial, shots, 1);
            let total = Mutex::new(PrefixTally::default());
            let counts = self.run_records(
                range,
                root_seed,
                || {
                    let tally = WorkerTally {
                        tally: PrefixTally::default(),
                        total: &total,
                    };
                    ((initial.clone(), Vec::new()), tally)
                },
                |(ws, worker), rng| {
                    replay_shot(program, initial, prefix, ws, rng, 1, &mut worker.tally)
                },
            );
            self.count_prefix(total.into_inner().unwrap_or_else(PoisonError::into_inner));
            return counts;
        }
        // Baseline of qsim's process-wide kernel clock; the delta over
        // this call mirrors into `engine.amp_kernel` afterwards.
        let kernel_base = self
            .obs
            .as_ref()
            .map(|_| qsim::amp::kernel_clock::snapshot());
        let amp_threads = self.config.amp_threads;
        let prefix = prefix_for(prefix, program, initial, shots, amp_threads);
        let mut buffer = TraceBuffer::new(self.trace.as_deref());
        // One clock reading per shot feeds both `engine.amp_shot` and
        // the record's `nanos`.
        let timed = self.obs.is_some() || buffer.recording();
        let mut counts = Counts::new();
        let mut tally = PrefixTally::default();
        let mut ws = (initial.clone(), Vec::new());
        for shot in range {
            let started = timed.then(Instant::now);
            let mut rng = shot_rng(root_seed, shot);
            let record = replay_shot(
                program,
                initial,
                prefix,
                &mut ws,
                &mut rng,
                amp_threads,
                &mut tally,
            );
            if let Some(started) = started {
                let elapsed = started.elapsed();
                if let Some(obs) = &self.obs {
                    obs.amp_shot.record_duration(elapsed);
                }
                buffer.push(root_seed, shot, record, elapsed);
            }
            *counts.entry(record).or_insert(0) += 1;
        }
        buffer.flush();
        self.count_prefix(tally);
        if let (Some(obs), Some((base_buckets, base_sum))) = (&self.obs, kernel_base) {
            let (now_buckets, now_sum) = qsim::amp::kernel_clock::snapshot();
            for (b, &base) in base_buckets.iter().enumerate() {
                let added = now_buckets[b].saturating_sub(base);
                if added > 0 {
                    obs.amp_kernel.add_bucket(b, added, 0);
                }
            }
            obs.amp_kernel
                .add_bucket(0, 0, now_sum.saturating_sub(base_sum));
        }
        counts
    }

    /// The record primitive under every shot-parallel [`Counts`] run:
    /// histograms the packed record `record_of` produces for each
    /// global shot index in `range` and, on a recording engine
    /// ([`Engine::with_trace`]), times each shot and delivers its record
    /// through a per-worker buffer. Without a sink it reads no clock.
    pub(crate) fn run_records<W, MW, F>(
        &self,
        range: Range<u64>,
        root_seed: u64,
        make_ws: MW,
        record_of: F,
    ) -> Counts
    where
        MW: Fn() -> W + Sync,
        F: Fn(&mut W, &mut StdRng) -> usize + Sync,
    {
        let sink = self.trace.as_deref();
        let (counts, mut buffer) = self.run_fold_with(
            &[(root_seed, range)],
            make_ws,
            || (Counts::new(), TraceBuffer::new(sink)),
            |(counts, buffer), ws, _, shot, rng| {
                let started = buffer.recording().then(Instant::now);
                let record = record_of(ws, rng);
                if let Some(started) = started {
                    buffer.push(root_seed, shot, record, started.elapsed());
                }
                *counts.entry(record).or_insert(0) += 1;
            },
            |(mut counts_a, buffer_a), (counts_b, mut buffer_b)| {
                // The ending worker's buffer: flush its tail.
                buffer_b.flush();
                merge_counts(&mut counts_a, counts_b);
                (counts_a, buffer_a)
            },
        );
        // The surviving buffer (the only one, with a single worker).
        buffer.flush();
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{merge_tallies, Executor};
    use rand::Rng;

    #[test]
    fn count_is_thread_invariant() {
        // Count "first uniform < 0.3" over 10_000 seeded streams.
        let run = |threads| {
            Executor::pooled(Engine::with_threads(threads), 99)
                .run_count(10_000, |_, rng| rng.random::<f64>() < 0.3)
        };
        let c1 = run(1);
        assert_eq!(c1, run(2));
        assert_eq!(c1, run(8));
        let frac = c1 as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn tally_is_thread_invariant() {
        let run = |threads| {
            Executor::pooled(Engine::with_threads(threads), 5)
                .run_tally(5_000, |_, rng| rng.random_range(0..10u32))
        };
        let t1 = run(1);
        assert_eq!(t1, run(4));
        assert_eq!(t1.values().sum::<u64>(), 5_000);
    }

    #[test]
    fn zero_shots_is_empty() {
        let t = Executor::pooled(Engine::with_threads(4), 1)
            .run_tally(0, |_, rng| rng.random_range(0..4u32));
        assert!(t.is_empty());
        assert_eq!(Executor::sequential(1).run_count(0, |_, _| true), 0);
    }

    #[test]
    fn fold_uses_worker_workspaces() {
        // The workspace carries a scratch Vec; the fold counts its reuse.
        let engine = Engine::new(EngineConfig {
            threads: 3,
            chunk_size: 16,
            ..EngineConfig::default()
        });
        let total = engine.run_fold_with(
            &[(0, 0..1_000)],
            Vec::<u64>::new,
            || 0u64,
            |acc, scratch, _, shot, _rng| {
                scratch.push(shot);
                *acc += 1;
            },
            |a, b| a + b,
        );
        assert_eq!(total, 1_000);
    }

    #[test]
    fn ranged_slices_merge_to_the_full_run() {
        // Any partition of 0..shots into ranged calls must reproduce
        // the single full call bit-identically — the serving layer's
        // shot-slicing correctness condition.
        let engine = Engine::with_threads(3);
        let key = |_: u64, rng: &mut StdRng| rng.random_range(0..32u32);
        let tally_range = |range: Range<u64>| {
            engine.run_fold_with(
                &[(7, range)],
                || (),
                HashMap::new,
                |acc, (), _, shot, rng| *acc.entry(key(shot, rng)).or_insert(0) += 1,
                merge_tallies,
            )
        };
        let full = Executor::pooled(engine.clone(), 7).run_tally(10_000, key);
        for slice in [1u64, 7, 256, 4096, 10_000] {
            let mut merged: HashMap<u32, u64> = HashMap::new();
            let mut start = 0u64;
            while start < 10_000 {
                let end = (start + slice).min(10_000);
                let part = tally_range(start..end);
                merged = merge_tallies(merged, part);
                start = end;
            }
            assert_eq!(merged, full, "slice size {slice} diverged");
        }
        // An empty range contributes nothing.
        assert!(tally_range(5..5).is_empty());
    }

    #[test]
    fn run_plan_range_slices_are_bit_identical() {
        use circuit::circuit::Circuit;
        use qsim::statevector::StateVector;
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let plan = ShotPlan::new(c, StateVector::new(2), 1_000, 13);
        let engine = Engine::with_threads(2);
        let full = engine.run_plan(&plan);
        let mut merged = Counts::new();
        for start in (0..1_000).step_by(173) {
            let end = (start + 173).min(1_000);
            for (k, v) in engine.run_plan_range(&plan, start..end) {
                *merged.entry(k).or_insert(0) += v;
            }
        }
        assert_eq!(merged, full);
    }

    #[test]
    #[should_panic(expected = "exceeds the plan's")]
    fn run_plan_range_rejects_overlong_ranges() {
        use circuit::circuit::Circuit;
        use qsim::statevector::StateVector;
        let plan = ShotPlan::new(Circuit::new(1, 0), StateVector::new(1), 10, 0);
        Engine::sequential().run_plan_range(&plan, 5..11);
    }

    #[test]
    fn shot_streams_do_not_depend_on_chunking() {
        let coarse = Engine::new(EngineConfig {
            threads: 4,
            chunk_size: 1024,
            ..EngineConfig::default()
        });
        let fine = Engine::new(EngineConfig {
            threads: 4,
            chunk_size: 7,
            ..EngineConfig::default()
        });
        let f = |_: u64, rng: &mut StdRng| rng.random_range(0..100u8);
        let tally = |engine: Engine| Executor::pooled(engine, 11).run_tally(3_000, f);
        assert_eq!(tally(coarse), tally(fine));
    }
}
