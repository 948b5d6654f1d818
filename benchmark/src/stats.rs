//! The arithmetic every reported number rests on: nearest-rank
//! percentiles, medians, quartiles, and the twenty slices of a timed
//! phase and how a run's value is read off them.

/// Nearest-rank percentile (`0 < p <= 100`) of an **ascending** slice:
/// the value at rank `ceil(p/100 · n)`, 1-based. No interpolation, so
/// the result is always an observed sample.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample: the mean of the two middle values for
/// an even count (the `statistics.median` convention the driver uses).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them — the driver's spread is their distance over the median.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median: the run-to-run spread the
/// driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Number of equal time slices a timed phase is cut into.
pub const SEGMENTS: usize = 20;

/// One closed slice of the timed phase. A slice closes at the first op
/// completion at or past its boundary, so its wall time is exactly the
/// time its ops took — no partial op is ever split across slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Successful ops completed in the slice.
    pub ok_ops: u64,
    /// Wall nanoseconds from the previous slice's close to this one's.
    pub wall_ns: u64,
    /// Process CPU nanoseconds consumed over the same interval.
    pub cpu_ns: u64,
    /// Nearest-rank median latency of the slice's successful ops.
    pub latency_p50_ns: u64,
    /// How much slower than its quiet self the host ran around the
    /// slice: the mean of the pace probes before and after it. For the
    /// record; a run is corrected by the median of all its probes, not
    /// slice by slice.
    pub slowdown: f64,
}

impl Segment {
    /// Successful ops per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.ok_ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Process CPU milliseconds per successful op.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e6 / self.ok_ops as f64
    }

    /// Median latency in milliseconds.
    pub fn latency_p50_ms(&self) -> f64 {
        self.latency_p50_ns as f64 / 1e6
    }
}

/// A run's wall-clock value of one per-slice quantity: the median over
/// the slices that completed an op; `None` when none did (every op
/// failed).
pub fn over_slices(segments: &[Segment], quantity: fn(&Segment) -> f64) -> Option<f64> {
    let values: Vec<f64> = segments
        .iter()
        .filter(|s| s.ok_ops > 0)
        .map(quantity)
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_returns_observed_samples() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        // A single sample is every percentile.
        assert_eq!(percentile(&[7.5], 50.0), 7.5);
        // 101 samples: p50 is the 51st.
        let w: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 50.0), 50.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn a_run_reads_the_median_of_its_slices() {
        let seg = |ok_ops, wall_ms: u64, cpu_ms: u64, p50_us: u64| Segment {
            ok_ops,
            wall_ns: wall_ms * 1_000_000,
            cpu_ns: cpu_ms * 1_000_000,
            latency_p50_ns: p50_us * 1_000,
            slowdown: 1.0,
        };
        let segments = [
            seg(100, 1000, 500, 10_000),
            seg(104, 1000, 520, 9_500),
            seg(10, 1000, 50, 95_000), // a stalled slice
            seg(98, 1000, 490, 10_200),
            seg(0, 1000, 0, 0), // every op failed: no rate to read
        ];
        let ops = over_slices(&segments, Segment::ops_per_s).unwrap();
        let latency = over_slices(&segments, Segment::latency_p50_ms).unwrap();
        let cpu = over_slices(&segments, Segment::cpu_ms_per_op).unwrap();
        assert!((ops - 99.0).abs() < 1e-9, "{ops}");
        assert!((latency - 10.1).abs() < 1e-9, "{latency}");
        assert!((cpu - 5.0).abs() < 1e-9, "{cpu}");
        assert_eq!(over_slices(&[seg(0, 1, 0, 0)], Segment::ops_per_s), None);
        assert_eq!(over_slices(&[], Segment::ops_per_s), None);
    }
}
