//! The execution context every sampling workload runs under.
//!
//! [`Executor`] is the single boundary at which callers choose *how*
//! shots execute — inline on the calling thread or partitioned across a
//! worker pool — so the choice never leaks into the signatures of the
//! layers above. A protocol backend, an analysis driver, or an
//! application takes `&Executor` and is oblivious to the mode: the mode
//! is the [`Engine`] the context carries, never a `foo` / `foo_parallel`
//! twin API.
//!
//! ## Determinism contract
//!
//! Shot `i`'s RNG stream is derived from the executor's root seed with
//! [`derive_stream_seed`] at any worker count — a one-thread engine
//! simply runs the same per-shot streams in order. Consequently
//! `Executor::sequential(s)` and `Executor::pooled(engine, s)` produce
//! **bit-identical** results for every workload that follows the fold
//! contract (commutative, per-shot-pure merging); this is asserted by
//! the engine's determinism tests through the full protocol stack.
//!
//! Sub-computations (measurement channels, grid points, Pauli terms)
//! run under [`Executor::derive`]d child contexts, whose root seeds are
//! decorrelated pure functions of `(root, index)` — so a composite
//! experiment is reproducible from one root seed regardless of mode.

use circuit::circuit::Circuit;
use qsim::runner::{pack_cbits, run_shot_into};
use qsim::sim::SimState;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::hash::Hash;

use crate::pool::{check_plan, Counts, Engine, PrefixCell};
use crate::seed::derive_stream_seed;

/// An execution context: the [`Engine`] a deterministic sampling
/// workload runs on, and the root seed it runs under.
///
/// Shot `i` runs on `derive_stream_seed(root_seed, i)` whatever the
/// engine's worker count, so `Executor::sequential(s)` and
/// `Executor::pooled(engine, s)` produce **bit-identical** results for
/// every workload that follows the fold contract; layers above take
/// `&Executor` instead of forking into sequential/parallel twin APIs.
///
/// **Fold contract:** the per-shot closure of [`Executor::run_count`],
/// [`Executor::run_count_with`] or [`Executor::run_tally`] must return
/// a value that depends only on the shot index and the shot's own RNG
/// stream (a workspace is scratch, reused across the shots one worker
/// runs). Counts and histograms merge commutatively, so the result is
/// then identical at every thread count and chunk size. Each claimed
/// chunk of shots is one `engine.chunk` sample on an engine built with
/// [`Engine::with_metrics`].
#[derive(Debug, Clone)]
pub struct Executor {
    engine: Engine,
    root_seed: u64,
}

impl Executor {
    /// A context on the calling thread alone
    /// ([`Engine::sequential`]) — the bit-identical reference for any
    /// pooled one.
    pub fn sequential(root_seed: u64) -> Self {
        Executor::pooled(Engine::sequential(), root_seed)
    }

    /// A context over `engine`, rooted at `root_seed`.
    pub fn pooled(engine: Engine, root_seed: u64) -> Self {
        Executor { engine, root_seed }
    }

    /// The root seed of this context.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Worker count this context executes with (1 when sequential).
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The same engine rooted at a different seed.
    pub fn with_seed(&self, root_seed: u64) -> Self {
        Executor::pooled(self.engine.clone(), root_seed)
    }

    /// The child context of sub-computation `index`: same engine, root
    /// seed `derive_stream_seed(self.root_seed(), index)`. Child seeds
    /// are pure functions of `(root, index)`, so composite experiments
    /// stay deterministic in every mode.
    pub fn derive(&self, index: u64) -> Self {
        self.with_seed(derive_stream_seed(self.root_seed, index))
    }

    /// The engine this context folds through.
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Counts the shots for which `pred` holds, with a per-worker
    /// workspace. The workhorse behind fidelity estimates (the fraction
    /// of "good" trajectories).
    pub fn run_count_with<W, MW, F>(&self, shots: u64, make_ws: MW, pred: F) -> u64
    where
        MW: Fn() -> W + Sync,
        F: Fn(&mut W, u64, &mut StdRng) -> bool + Sync,
    {
        self.engine.run_fold_with(
            &[(self.root_seed, 0..shots)],
            make_ws,
            || 0u64,
            |acc, ws, _, shot, rng| *acc += u64::from(pred(ws, shot, rng)),
            |a, b| a + b,
        )
    }

    /// [`Executor::run_count_with`] on `C` channels in one fold: channel
    /// `c` runs under [`Executor::derive`]`(c)` and `pred` is told `c`.
    /// Bit-identical to `C` separate `derive(c).run_count_with` calls,
    /// with one start and one tail instead of `C` of each.
    pub fn run_channel_counts_with<const C: usize, W, MW, F>(
        &self,
        shots: u64,
        make_ws: MW,
        pred: F,
    ) -> [u64; C]
    where
        MW: Fn() -> W + Sync,
        F: Fn(&mut W, usize, u64, &mut StdRng) -> bool + Sync,
    {
        let streams: [_; C] = std::array::from_fn(|c| (self.derive(c as u64).root_seed, 0..shots));
        self.engine.run_fold_with(
            &streams,
            make_ws,
            || [0u64; C],
            |acc, ws, c, shot, rng| acc[c] += u64::from(pred(ws, c, shot, rng)),
            |a, b| std::array::from_fn(|c| a[c] + b[c]),
        )
    }

    /// Workspace-free variant of [`Executor::run_count_with`].
    pub fn run_count<F>(&self, shots: u64, pred: F) -> u64
    where
        F: Fn(u64, &mut StdRng) -> bool + Sync,
    {
        self.run_count_with(shots, || (), |(), shot, rng| pred(shot, rng))
    }

    /// Histograms one key per shot. The workhorse behind residual-error
    /// distributions and outcome tallies.
    pub fn run_tally<K, F>(&self, shots: u64, key_of: F) -> HashMap<K, u64>
    where
        K: Eq + Hash + Send,
        F: Fn(u64, &mut StdRng) -> K + Sync,
    {
        self.engine.run_fold_with(
            &[(self.root_seed, 0..shots)],
            || (),
            HashMap::new,
            |acc, (), _, shot, rng| *acc.entry(key_of(shot, rng)).or_insert(0) += 1,
            merge_tallies,
        )
    }

    /// Executor-backed equivalent of [`qsim::runner::sample_shots`]:
    /// plays `circuit` from `initial` for `shots` repetitions under this
    /// context and histograms the packed classical register (same key
    /// and value conventions). Unlike `sample_shots`, each shot runs on
    /// its derived stream, so the counts are identical in every mode —
    /// and bit-identical to [`Engine::run_plan`] on the equivalent
    /// [`ShotPlan`](crate::ShotPlan).
    ///
    /// The circuit is **compiled once** ([`SimState::compile`] — fused
    /// statevector kernels where the backend has a compiler) and the
    /// program replayed across all shots and workers; see
    /// [`Executor::sample_shots_interpreted`] for the re-interpreting
    /// reference path, which tallies identically per root seed. With
    /// two or more shots the call also builds the program's noiseless
    /// prefix, and every shot whose prefix sites stay silent starts from
    /// it (see the crate docs) — the same counts, bit for bit.
    ///
    /// Generic over the simulation backend (any [`SimState`]); pass
    /// `&StateVector::new(n)`, `&CliffordState::new(n)`, or a prepared
    /// [`DensityMatrix`](qsim::density::DensityMatrix) — or let
    /// [`Backend`](crate::Backend) choose at runtime.
    ///
    /// On big statevector states (at or above
    /// [`EngineConfig::amp_threshold_qubits`](crate::EngineConfig::amp_threshold_qubits),
    /// with more than one
    /// [`amp_threads`](crate::EngineConfig::amp_threads) worker
    /// configured) a pooled context flips from shot-level to
    /// **amplitude-level** parallelism: shots run in order, each
    /// splitting its amplitude space across the pool. Pure latency
    /// policy — shot `i` still runs on `derive_stream_seed(root, i)`
    /// and each amp-parallel shot is bit-identical to its sequential
    /// replay, so the counts never depend on which mode engaged.
    ///
    /// # Panics
    ///
    /// Panics if the circuit needs more qubits than `initial` has.
    pub fn sample_shots<S: SimState>(
        &self,
        circuit: &Circuit,
        initial: &S,
        shots: usize,
    ) -> Counts {
        check_plan(circuit, initial);
        let program = S::compile(circuit);
        self.engine.run_program_range(
            &program,
            initial,
            &PrefixCell::new(),
            self.root_seed,
            0..shots as u64,
        )
    }

    /// Interpreted reference for [`Executor::sample_shots`]: every shot
    /// re-steps the raw instruction stream instead of replaying a
    /// compiled program (and always shot-parallel). Record-identical to
    /// the compiled path per root seed — the equivalence the engine's
    /// `compiled_equivalence` property tests assert. It builds no
    /// noiseless prefix: every shot plays the whole circuit. Use the
    /// compiled path for production sampling.
    pub fn sample_shots_interpreted<S: SimState>(
        &self,
        circuit: &Circuit,
        initial: &S,
        shots: usize,
    ) -> Counts {
        check_plan(circuit, initial);
        self.engine.run_records(
            0..shots as u64,
            self.root_seed,
            || (initial.clone(), Vec::new()),
            |(state, cbits), rng| {
                run_shot_into(circuit, initial, state, cbits, rng);
                pack_cbits(cbits)
            },
        )
    }
}

/// Commutative merge of two histograms.
pub(crate) fn merge_tallies<K: Eq + Hash>(
    mut a: HashMap<K, u64>,
    b: HashMap<K, u64>,
) -> HashMap<K, u64> {
    for (k, v) in b {
        *a.entry(k).or_insert(0) += v;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ShotPlan;
    use qsim::statevector::StateVector;
    use rand::Rng;

    #[test]
    fn sequential_and_pooled_tallies_are_bit_identical() {
        let key = |_: u64, rng: &mut StdRng| rng.random_range(0..16u32);
        let seq = Executor::sequential(77).run_tally(8_000, key);
        let pooled = Executor::pooled(Engine::with_threads(4), 77).run_tally(8_000, key);
        assert_eq!(seq, pooled);
        assert_eq!(seq.values().sum::<u64>(), 8_000);
    }

    #[test]
    fn derive_is_pure_and_mode_preserving() {
        let seq = Executor::sequential(5);
        assert_eq!(seq.derive(3).root_seed(), seq.derive(3).root_seed());
        assert_ne!(seq.derive(0).root_seed(), seq.derive(1).root_seed());
        assert_eq!(seq.derive(9).threads(), 1);
        let pooled = Executor::pooled(Engine::with_threads(3), 5);
        assert_eq!(pooled.derive(9).threads(), 3);
        // Child seeds depend only on (root, index), not on the mode.
        assert_eq!(seq.derive(4).root_seed(), pooled.derive(4).root_seed());
    }

    #[test]
    fn sample_shots_matches_run_plan_and_is_mode_invariant() {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let initial = StateVector::new(2);
        let seq = Executor::sequential(13).sample_shots(&c, &initial, 1_000);
        let pooled =
            Executor::pooled(Engine::with_threads(4), 13).sample_shots(&c, &initial, 1_000);
        assert_eq!(seq, pooled);
        let plan = ShotPlan::new(c, initial, 1_000, 13);
        assert_eq!(seq, Engine::sequential().run_plan(&plan));
        assert_eq!(seq.values().sum::<usize>(), 1_000);
    }

    #[test]
    fn run_count_agrees_across_modes() {
        let pred = |_: u64, rng: &mut StdRng| rng.random::<f64>() < 0.25;
        let seq = Executor::sequential(21).run_count(10_000, pred);
        let pooled = Executor::pooled(Engine::with_threads(8), 21).run_count(10_000, pred);
        assert_eq!(seq, pooled);
        let frac = seq as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn fold_chunks_are_timed_into_engine_chunk_without_changing_tallies() {
        let config = crate::EngineConfig {
            threads: 2,
            chunk_size: 64,
            ..crate::EngineConfig::default()
        };
        let registry = obs::Registry::new();
        let timed = Engine::new(config.clone()).with_metrics(&registry);
        let plain = Engine::new(config);
        let key = |_: u64, rng: &mut StdRng| rng.random::<f64>() < 0.3;
        for (i, shots) in [100, 150, 200].into_iter().enumerate() {
            let seed = 7 + i as u64;
            assert_eq!(
                Executor::pooled(timed.clone(), seed).run_tally(shots, key),
                Executor::pooled(plain.clone(), seed).run_tally(shots, key)
            );
        }
        // 100, 150 and 200 shots in 64-shot units: 2 + 3 + 4.
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.histo("engine.chunk").unwrap().count, 9);
    }

    #[test]
    fn amp_engaged_sample_shots_times_every_shot_into_the_registry() {
        // One loop: the executor's amp arm is the engine's, so it feeds
        // `engine.amp_shot` / `engine.amp_kernel` like `run_plan_range`.
        let mut c = Circuit::new(3, 3);
        c.h(0).t(0).cx(0, 1).cx(1, 2).measure(0, 0).measure(2, 2);
        let registry = obs::Registry::new();
        let config = crate::EngineConfig::with_threads(2)
            .with_amp_threads(2)
            .with_amp_threshold(0);
        let engine = Engine::new(config).with_metrics(&registry);
        Executor::pooled(engine, 3).sample_shots(&c, &StateVector::new(3), 40);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.histo("engine.amp_shot").unwrap().count, 40);
        assert!(snapshot.histo("engine.amp_kernel").unwrap().count > 0);
    }
}
