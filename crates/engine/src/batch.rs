//! Batched execution of many independent sampling jobs.

use qsim::sim::SimState;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::hash::Hash;

use crate::pool::{merge_tallies, replay_shot, Counts, Engine, PrefixTally, ShotPlan};
use crate::seed::shot_rng;

/// One independent sampling job a [`BatchRunner`] can execute: a shot
/// count, a root seed, and a per-shot kernel producing a histogram key.
///
/// Implementations exist for [`ShotPlan`] over any [`SimState`] backend
/// (shots keyed by the packed classical register) and are trivial to
/// add for other samplers (Pauli-frame residuals, bit-level models):
/// the kernel only needs to be a pure function of its workspace, shot
/// index, and RNG stream.
pub trait ShotJob: Sync {
    /// Histogram key produced by one shot.
    type Key: Eq + Hash + Send;
    /// Reused per-worker scratch state (buffers); `()` if none.
    type Workspace: Send;

    /// Number of shots this job runs.
    fn shots(&self) -> u64;

    /// Root seed; shot `i` runs on stream `derive_stream_seed(root, i)`.
    fn root_seed(&self) -> u64;

    /// Builds one worker's scratch state for this job.
    fn workspace(&self) -> Self::Workspace;

    /// Runs shot `shot` and returns its histogram key.
    fn run_shot(&self, ws: &mut Self::Workspace, shot: u64, rng: &mut StdRng) -> Self::Key;
}

impl<S: SimState> ShotJob for ShotPlan<S> {
    type Key = usize;
    type Workspace = (S, Vec<bool>);

    fn shots(&self) -> u64 {
        ShotPlan::shots(self)
    }

    fn root_seed(&self) -> u64 {
        ShotPlan::root_seed(self)
    }

    fn workspace(&self) -> Self::Workspace {
        (self.initial().clone(), Vec::new())
    }

    /// Starts from the plan's noiseless prefix when the shot's prefix
    /// sites stay silent (the plan builds it unless it is a one-shot
    /// job or 20 or more qubits wide). A batch keeps no prefix counters.
    fn run_shot(&self, ws: &mut Self::Workspace, _shot: u64, rng: &mut StdRng) -> usize {
        let prefix = self.prefix(self.shots());
        let mut uncounted = PrefixTally::default();
        replay_shot(
            self.program(),
            self.initial(),
            prefix,
            ws,
            rng,
            1,
            &mut uncounted,
        )
    }
}

/// Executes many independent [`ShotJob`]s concurrently through one
/// shared worker pool: all jobs' chunks go into a single work list, so
/// a batch of unevenly sized jobs (the usual shape — one job per noise
/// point or table row) still keeps every worker busy until the end.
///
/// Results are per-job histograms, bit-identical at any thread count
/// (see the crate docs for the determinism contract).
#[derive(Debug, Clone)]
pub struct BatchRunner<'e> {
    engine: &'e Engine,
}

/// One claimable unit of work: a shot range of one job.
struct Unit {
    job: usize,
    start: u64,
    end: u64,
}

impl<'e> BatchRunner<'e> {
    /// A runner over `engine`'s worker pool.
    pub fn new(engine: &'e Engine) -> Self {
        BatchRunner { engine }
    }

    /// Runs every job and returns one histogram per job, in order.
    pub fn run_batch<J: ShotJob>(&self, jobs: &[J]) -> Vec<HashMap<J::Key, u64>> {
        let chunk = self.engine.config().chunk_size.max(1);
        let mut units = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            let mut start = 0;
            while start < job.shots() {
                let end = (start + chunk).min(job.shots());
                units.push(Unit {
                    job: ji,
                    start,
                    end,
                });
                start = end;
            }
        }
        let fresh_tallies =
            || -> Vec<HashMap<J::Key, u64>> { (0..jobs.len()).map(|_| HashMap::new()).collect() };
        let per_worker = self.engine.claim_units(
            units.len() as u64,
            || -> Vec<Option<J::Workspace>> { (0..jobs.len()).map(|_| None).collect() },
            fresh_tallies,
            |tallies, workspaces, u| {
                let unit = &units[u as usize];
                let job = &jobs[unit.job];
                let ws = workspaces[unit.job].get_or_insert_with(|| job.workspace());
                let root = job.root_seed();
                for shot in unit.start..unit.end {
                    let mut rng = shot_rng(root, shot);
                    let key = job.run_shot(ws, shot, &mut rng);
                    *tallies[unit.job].entry(key).or_insert(0) += 1;
                }
            },
        );

        let mut merged = fresh_tallies();
        for tallies in per_worker {
            for (ji, t) in tallies.into_iter().enumerate() {
                let acc = std::mem::take(&mut merged[ji]);
                merged[ji] = merge_tallies(acc, t);
            }
        }
        merged
    }

    /// Runs a batch of [`ShotPlan`]s (any one [`SimState`] backend),
    /// returning counts in the `sample_shots` convention, one per plan.
    pub fn run_plans<S: SimState>(&self, plans: &[ShotPlan<S>]) -> Vec<Counts> {
        self.run_batch(plans)
            .into_iter()
            .map(|t| t.into_iter().map(|(k, v)| (k, v as usize)).collect())
            .collect()
    }
}

/// Shared test fixture: a biased-coin [`ShotJob`] exercised by this
/// module's and [`crate::experiment`]'s test suites.
#[cfg(test)]
pub(crate) mod test_fixtures {
    use super::ShotJob;
    use rand::rngs::StdRng;
    use rand::Rng;

    pub(crate) struct CoinJob {
        pub(crate) bias: f64,
        pub(crate) shots: u64,
        pub(crate) seed: u64,
    }

    impl ShotJob for CoinJob {
        type Key = bool;
        type Workspace = ();

        fn shots(&self) -> u64 {
            self.shots
        }
        fn root_seed(&self) -> u64 {
            self.seed
        }
        fn workspace(&self) {}
        fn run_shot(&self, _ws: &mut (), _shot: u64, rng: &mut StdRng) -> bool {
            rng.random::<f64>() < self.bias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::CoinJob;
    use super::*;
    use circuit::circuit::Circuit;
    use qsim::statevector::StateVector;

    #[test]
    fn batch_results_are_per_job_and_thread_invariant() {
        let jobs: Vec<CoinJob> = (0..5)
            .map(|i| CoinJob {
                bias: 0.1 + 0.15 * i as f64,
                shots: 4_000 + 500 * i,
                seed: 1000 + i,
            })
            .collect();
        let run = |threads: usize| {
            let engine = Engine::with_threads(threads);
            BatchRunner::new(&engine).run_batch(&jobs)
        };
        let r1 = run(1);
        assert_eq!(r1, run(3));
        assert_eq!(r1, run(8));
        for (job, tally) in jobs.iter().zip(&r1) {
            let total: u64 = tally.values().sum();
            assert_eq!(total, job.shots);
            let frac = *tally.get(&true).unwrap_or(&0) as f64 / total as f64;
            assert!((frac - job.bias).abs() < 0.03, "bias {}: {frac}", job.bias);
        }
    }

    #[test]
    fn plan_batch_matches_single_plan_runs() {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        let engine = Engine::with_threads(4);
        let plans: Vec<ShotPlan> = (0..3)
            .map(|i| ShotPlan::new(c.clone(), StateVector::new(2), 600, 40 + i))
            .collect();
        let batched = BatchRunner::new(&engine).run_plans(&plans);
        for (plan, counts) in plans.iter().zip(&batched) {
            assert_eq!(counts, &engine.run_plan(plan));
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::with_threads(4);
        let no_plans: &[ShotPlan] = &[];
        assert!(BatchRunner::new(&engine).run_plans(no_plans).is_empty());
    }

    #[test]
    fn batch_units_are_timed_into_engine_chunk_without_changing_tallies() {
        let jobs: Vec<CoinJob> = (0..3)
            .map(|i| CoinJob {
                bias: 0.3,
                shots: 100 + 50 * i,
                seed: 7 + i,
            })
            .collect();
        let config = crate::EngineConfig {
            threads: 2,
            chunk_size: 64,
            ..crate::EngineConfig::default()
        };
        let registry = obs::Registry::new();
        let timed = Engine::new(config.clone()).with_metrics(&registry);
        let plain = Engine::new(config);
        assert_eq!(
            BatchRunner::new(&timed).run_batch(&jobs),
            BatchRunner::new(&plain).run_batch(&jobs)
        );
        // 100, 150 and 200 shots in 64-shot units: 2 + 3 + 4.
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.histo("engine.chunk").unwrap().count, 9);
    }
}
