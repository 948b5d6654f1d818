//! What a run hands back: the result line the driver reads, the
//! detailed report file, and the exit code.

use crate::metrics::{unit_of, Metrics, END_TO_END, PER_LAYER};
use crate::stats::Segment;
use jsonlite::Json;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the inputs were generated from.
    pub seed: u64,
    /// Nominal length of the timed phase, seconds.
    pub seconds: f64,
    /// Whether this was the traced (`--trace 1`) run.
    pub trace: bool,
    /// Ops started in the timed phase.
    pub attempted: u64,
    /// Ops that missed the deadline, were not answered `ok`, or failed
    /// their inline check. Counted in `attempted`, never in latency.
    pub failed: u64,
    /// Latency samples behind the percentiles (= successful ops).
    pub latency_samples: u64,
    /// Correctness violations and the first few op failures, verbatim.
    pub problems: Vec<String>,
    /// Whether a correctness check was violated.
    pub incorrect: bool,
    /// The measured values.
    pub metrics: Metrics,
    /// The slices of the timed phase, as the clock read them.
    pub segments: Vec<Segment>,
    /// The host's slowdown over the timed phase; the time metrics are
    /// the slices' medians corrected by it.
    pub slowdown: f64,
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

impl Report {
    /// A run is correct when no correctness check was violated. An op
    /// that merely missed its deadline is `failed`, not incorrect.
    pub fn correct(&self) -> bool {
        !self.incorrect && self.attempted > 0
    }

    /// 0 for a correct run, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Per-layer metrics this workload does not run through.
    pub fn absent(&self) -> Vec<&'static str> {
        self.table()
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| self.metrics.get(name).is_none())
            .collect()
    }

    /// The last line of standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every
    /// end-to-end name (untraced) or every per-layer name (traced).
    /// The driver requires every declared name on every run, so a
    /// per-layer metric that is absent on this workload is written as
    /// 0 here; the report file and `check` list it as absent instead.
    pub fn result_line(&self) -> String {
        let metrics = self
            .table()
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).unwrap_or(0.0);
                (name.to_string(), metric_json(value, unit))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from_u64(self.attempted)),
            ("failed", Json::from_u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_compact()
    }

    /// The report file (`<workload>.e2e.json` / `<workload>.layers.json`):
    /// the result line's content plus what it has no room for.
    pub fn detail_json(&self) -> String {
        let present = self
            .table()
            .iter()
            .filter_map(|(name, unit)| {
                self.metrics
                    .get(name)
                    .map(|value| (name.to_string(), metric_json(value, unit)))
            })
            .collect();
        let segments = self
            .segments
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("ok_ops", Json::from_u64(s.ok_ops)),
                    ("wall_ms", Json::Num(s.wall_ns as f64 / 1e6)),
                    ("cpu_ms", Json::Num(s.cpu_ns as f64 / 1e6)),
                    ("slowdown", Json::Num(s.slowdown)),
                    ("ops_per_s", Json::Num(s.ops_per_s())),
                    ("latency_p50_ms", Json::Num(s.latency_p50_ms())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("kind", Json::str(if self.trace { "layers" } else { "e2e" })),
            ("seed", Json::from_u64(self.seed)),
            ("seconds", Json::Num(self.seconds)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from_u64(self.attempted)),
            ("failed", Json::from_u64(self.failed)),
            ("latency_samples", Json::from_u64(self.latency_samples)),
            ("metrics", Json::Obj(present)),
            (
                "absent",
                Json::Arr(self.absent().into_iter().map(Json::str).collect()),
            ),
            ("slowdown", Json::Num(self.slowdown)),
            ("segments", Json::Arr(segments)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
        .to_pretty()
    }
}

/// One metric as `check` prints it.
pub fn metric_row(name: &str, value: Option<f64>) -> String {
    let unit = unit_of(name).unwrap_or("?");
    match value {
        Some(v) => format!("  {name:<40} {v:>16.6} {unit}"),
        None => format!("  {name:<40} {:>16} {unit}", "absent"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(trace: bool) -> Report {
        let mut r = Report {
            workload: "serve-cold".into(),
            trace,
            attempted: 10,
            ..Report::default()
        };
        if trace {
            r.metrics.set("host.cores", 2.0);
        } else {
            for (name, _) in END_TO_END {
                r.metrics.set(name, 1.25);
            }
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let line = report(trace).result_line();
            let doc = Json::parse(&line).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.len(), expected);
            for (_, m) in metrics {
                assert!(m.get("value").and_then(Json::as_f64).is_some());
                assert!(m.get("unit").and_then(Json::as_str).is_some());
            }
        }
    }

    #[test]
    fn absent_layer_metrics_are_listed_not_zeroed_in_the_report_file() {
        let r = report(true);
        assert!(r.absent().contains(&"stabilizer.shot_us"));
        assert!(!r.absent().contains(&"host.cores"));
        let detail = Json::parse(&r.detail_json()).unwrap();
        assert!(detail
            .get("metrics")
            .unwrap()
            .get("stabilizer.shot_us")
            .is_none());
    }

    #[test]
    fn a_violated_check_makes_the_run_incorrect_and_exit_nonzero() {
        let mut r = report(false);
        assert!(r.correct());
        assert_eq!(r.exit_code(), 0);
        r.incorrect = true;
        assert_eq!(r.exit_code(), 1);
        assert!(r.result_line().starts_with("{\"correct\":false"));
    }
}
