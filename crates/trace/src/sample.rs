//! SimPoint-style sampled replay: re-execute a small, *stratified*
//! slice of a recorded run and predict the full-run tally with
//! binomial confidence intervals.
//!
//! The shot range is split into `n` equal strata
//! ([`engine::partition_shots`] — the same splitter the shard
//! coordinator uses) and one representative index is drawn per stratum
//! from a salted deterministic stream, so the sample is spread across
//! the whole run, reproducible, and independent of the shots' own RNG
//! streams. Because shot `i` is a pure function of `(root_seed, i)`,
//! replaying exactly the sampled indices yields records bit-identical
//! to the trace — which the replay *verifies* per index before using
//! the sample statistically.
//!
//! Prediction: for each outcome with `k` hits in `n` sampled shots,
//! the full-run count over `N` shots is estimated as `p̂·N` with a
//! Wilson score interval. The claim is *joint* — every outcome's
//! actual count inside its interval at 99% family-wise confidence —
//! so the per-outcome level is Bonferroni-corrected by the number of
//! outcomes under test (a plain 99% per outcome would miss almost
//! surely across a suite of many-outcome workloads). Outcomes present
//! in the trace but unseen in the sample are checked against the
//! Wilson upper bound at `k = 0` — rare outcomes don't fail the
//! prediction, they just get a wide bound.

use crate::format::Trace;
use crate::workloads::Workload;
use circuit::circuit::Circuit;
use engine::{
    derive_stream_seed, partition_shots, Backend, Engine, MemorySink, PreparedJob, ShotRecord,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Salt folded into the root seed for stratum draws, so sample-index
/// selection never collides with any shot's own execution stream.
pub const SAMPLE_SALT: u64 = 0x51_4D50_4F49_4E54;

/// Family-wise error budget for the joint "every outcome within its
/// interval" claim.
const JOINT_ALPHA: f64 = 0.01;

/// Inverse standard-normal CDF (probit), Acklam's rational
/// approximation — relative error below 1.15e-9 over (0, 1), plenty
/// for picking critical values.
fn probit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit domain is (0, 1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -probit(1.0 - p)
    }
}

/// The two-sided critical value for testing `m` outcomes jointly at
/// the 1% family-wise level (Bonferroni: each outcome gets `α/m`).
pub fn joint_z(outcomes: usize) -> f64 {
    probit(1.0 - JOINT_ALPHA / (2.0 * outcomes.max(1) as f64))
}

/// Picks one representative shot index per stratum: `0..shots` is split
/// into `round(shots·rate)` near-equal strata (clamped to `1..=shots`)
/// and each stratum draws its index from `derive_stream_seed(salted
/// root, stratum)`. Pure in all arguments.
pub fn stratified_indices(shots: u64, rate: f64, root_seed: u64) -> Vec<u64> {
    if shots == 0 {
        return Vec::new();
    }
    let n = ((shots as f64 * rate).round() as u64).clamp(1, shots);
    partition_shots(0..shots, n as usize)
        .into_iter()
        .enumerate()
        .map(|(stratum, range)| {
            let len = range.end - range.start;
            range.start + derive_stream_seed(SAMPLE_SALT ^ root_seed, stratum as u64) % len
        })
        .collect()
}

/// Two-sided Wilson score interval for `k` successes in `n` trials.
/// Returns `(lo, hi)` as probabilities; `(0, 1)` when `n == 0`.
pub fn wilson_interval(k: u64, n: u64, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let (k, n) = (k as f64, n as f64);
    let p = k / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((center - margin) / denom).max(0.0),
        ((center + margin) / denom).min(1.0),
    )
}

/// Replays exactly the given shot indices of `circuit` on the resolved
/// backend — the engine's own [`PreparedJob`], one single-shot range per
/// index on a sequential recording engine — returning one record per
/// index, sorted by shot (timing zeroed — sampled replay is about
/// values, not speed).
///
/// # Errors
///
/// Returns a message if the backend cannot run the circuit.
pub fn replay_indices(
    circuit: &Circuit,
    backend: Backend,
    shots: u64,
    root_seed: u64,
    indices: &[u64],
) -> Result<Vec<ShotRecord>, String> {
    let (_resolved, job) = PreparedJob::prepare(circuit, backend, shots, root_seed)
        .map_err(|e| format!("replay: {e:?}"))?;
    let sink = Arc::new(MemorySink::new());
    let engine = Engine::sequential().with_trace(sink.clone());
    for &shot in indices {
        job.run_range(&engine, shot..shot + 1);
    }
    let mut records = sink.snapshot();
    records.iter_mut().for_each(|r| r.nanos = 0);
    Ok(records)
}

/// One outcome's full-run prediction from the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomePrediction {
    /// Packed classical record.
    pub outcome: u64,
    /// Hits in the sample.
    pub sampled: u64,
    /// Point estimate of the full-run count (`p̂·N`).
    pub predicted: f64,
    /// Wilson 99% lower bound on the full-run count.
    pub lo: f64,
    /// Wilson 99% upper bound on the full-run count.
    pub hi: f64,
    /// The trace's actual full-run count.
    pub actual: u64,
}

impl OutcomePrediction {
    /// Whether the actual count landed inside the interval. Counts are
    /// integers, so the real-valued bounds are rounded outward to the
    /// achievable integer interval `[⌊lo⌋, ⌈hi⌉]`.
    pub fn within(&self) -> bool {
        let actual = self.actual as f64;
        self.lo.floor() <= actual && actual <= self.hi.ceil()
    }
}

/// The result of a sampled replay against a trace.
#[derive(Debug, Clone)]
pub struct SampleReport {
    /// Full-run shots (`N`).
    pub shots: u64,
    /// Sampled shots (`n`).
    pub sampled: u64,
    /// Requested sampling rate.
    pub rate: f64,
    /// Per-outcome predictions, sorted by outcome, covering the union
    /// of sampled and recorded outcomes.
    pub outcomes: Vec<OutcomePrediction>,
    /// Sampled records verified bit-exact against the trace.
    pub verified_records: u64,
}

impl SampleReport {
    /// Whether every outcome's actual count fell inside its interval.
    pub fn within_ci(&self) -> bool {
        self.outcomes.iter().all(OutcomePrediction::within)
    }
}

/// Runs a stratified sampled replay of `workload` at `rate` and checks
/// the prediction against `trace`.
///
/// Every replayed record is first verified bit-exact against the trace
/// at its shot index — a sampled replay that silently diverged from
/// the recording would make the statistics meaningless.
///
/// # Errors
///
/// Returns a message on backend failure or on any record mismatch.
pub fn sampled_replay(
    trace: &Trace,
    workload: &Workload,
    rate: f64,
) -> Result<SampleReport, String> {
    let shots = trace.header.shots;
    let root_seed = trace.header.root_seed;
    let circuit = (workload.build)();
    let indices = stratified_indices(shots, rate, root_seed);
    let replayed = replay_indices(&circuit, workload.backend, shots, root_seed, &indices)?;

    // Bit-exact spot check: the trace is sorted by shot and covers
    // 0..shots, so the record at index `shot` is the recorded shot.
    for r in &replayed {
        let recorded = trace
            .records
            .get(r.shot as usize)
            .ok_or_else(|| format!("trace has no shot {}", r.shot))?;
        if (recorded.shot, recorded.record, recorded.stream) != (r.shot, r.record, r.stream) {
            return Err(format!(
                "shot {}: replay produced record {:#x} stream {:#x}, trace holds {:#x}/{:#x}",
                r.shot, r.record, r.stream, recorded.record, recorded.stream
            ));
        }
    }

    let n = replayed.len() as u64;
    let mut sampled_tally: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &replayed {
        *sampled_tally.entry(r.record).or_insert(0) += 1;
    }
    let mut actual_tally: BTreeMap<u64, u64> = BTreeMap::new();
    for r in &trace.records {
        *actual_tally.entry(r.record).or_insert(0) += 1;
    }

    let mut keys: Vec<u64> = sampled_tally
        .keys()
        .chain(actual_tally.keys())
        .copied()
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let z = joint_z(keys.len());
    let outcomes = keys
        .into_iter()
        .map(|outcome| {
            let k = sampled_tally.get(&outcome).copied().unwrap_or(0);
            let actual = actual_tally.get(&outcome).copied().unwrap_or(0);
            let (lo, hi) = wilson_interval(k, n, z);
            OutcomePrediction {
                outcome,
                sampled: k,
                predicted: k as f64 / n.max(1) as f64 * shots as f64,
                lo: lo * shots as f64,
                hi: hi * shots as f64,
                actual,
            }
        })
        .collect();

    Ok(SampleReport {
        shots,
        sampled: n,
        rate,
        outcomes,
        verified_records: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_spread_and_are_deterministic() {
        let a = stratified_indices(1000, 0.05, 7);
        let b = stratified_indices(1000, 0.05, 7);
        assert_eq!(a, b, "sampling must be reproducible");
        assert_eq!(a.len(), 50);
        // One index per stratum, strictly increasing, in range.
        for pair in a.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert!(*a.last().unwrap() < 1000);
        // A different salt input (root seed) picks different indices.
        assert_ne!(a, stratified_indices(1000, 0.05, 8));
    }

    #[test]
    fn stratified_rate_clamps_to_at_least_one_and_at_most_all() {
        assert_eq!(stratified_indices(10, 0.0, 1).len(), 1);
        assert_eq!(stratified_indices(10, 5.0, 1).len(), 10);
        assert!(stratified_indices(0, 0.5, 1).is_empty());
        // Full rate enumerates every shot exactly once.
        let mut all = stratified_indices(10, 1.0, 3);
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wilson_interval_behaves_at_the_edges() {
        const Z_99: f64 = 2.576;
        let (lo, hi) = wilson_interval(0, 100, Z_99);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.1, "k=0 upper bound should be small");
        let (lo, hi) = wilson_interval(100, 100, Z_99);
        assert!(lo > 0.9 && hi > 0.999, "k = n bound should reach ~1: {hi}");
        let (lo, hi) = wilson_interval(50, 100, Z_99);
        assert!(lo < 0.5 && 0.5 < hi);
        assert_eq!(wilson_interval(0, 0, Z_99), (0.0, 1.0));
        // Wider confidence ⇒ wider interval.
        let (l1, h1) = wilson_interval(30, 100, 1.0);
        let (l2, h2) = wilson_interval(30, 100, 3.0);
        assert!(l2 < l1 && h1 < h2);
    }

    #[test]
    fn full_rate_sampled_replay_reproduces_the_trace_exactly() {
        let w = crate::workloads::find("spectroscopy").unwrap();
        let trace =
            crate::run::record_workload(w, crate::run::Mode::Sequential, 128, w.root_seed, false)
                .unwrap();
        let report = sampled_replay(&trace, w, 1.0).unwrap();
        assert_eq!(report.sampled, 128);
        assert!(report.within_ci(), "a census must be inside its own CI");
        for o in &report.outcomes {
            assert_eq!(o.predicted, o.actual as f64, "census prediction is exact");
        }
    }

    #[test]
    fn probit_matches_known_critical_values() {
        for (p, z) in [(0.975, 1.959964), (0.995, 2.575829), (0.9995, 3.290527)] {
            assert!((probit(p) - z).abs() < 1e-4, "probit({p}) = {}", probit(p));
        }
        assert!((probit(0.5)).abs() < 1e-9);
        assert!((probit(0.01) + probit(0.99)).abs() < 1e-9, "symmetry");
        // Bonferroni widens with the outcome count and never narrows
        // below the single-test level.
        assert!(joint_z(1) > 2.57 && joint_z(1) < 2.58);
        assert!(joint_z(8) > joint_z(1));
        assert!(joint_z(32) > joint_z(8));
    }

    #[test]
    fn five_percent_sample_predicts_the_full_tally_within_ci() {
        // The acceptance criterion, over the whole registry — this
        // exercises all three replay arms (statevector, stabilizer,
        // density) at the golden shot counts.
        for w in crate::workloads::WORKLOADS {
            let trace = crate::run::record_workload(
                w,
                crate::run::Mode::Sequential,
                w.shots,
                w.root_seed,
                false,
            )
            .unwrap();
            let report = sampled_replay(&trace, w, 0.05).unwrap();
            assert!(
                report.sampled >= 12,
                "{}: sample unexpectedly small",
                w.name
            );
            assert!(
                report.within_ci(),
                "{}: prediction missed: {:#?}",
                w.name,
                report.outcomes
            );
        }
    }
}
