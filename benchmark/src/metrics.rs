//! The fixed metric names and units, and the bag a run collects its
//! values in. `BENCHMARK.json` lists exactly these names (a unit test
//! holds the two together).

use std::collections::BTreeMap;

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 5] = [
    "lib-compas",
    "lib-wide-sv",
    "serve-cold",
    "serve-warm",
    "serve-sharded",
];

/// End-to-end metrics: `(name, unit)`. All five on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by layer (a crate, or a
/// module of `service`). A workload reports the ones its path runs
/// through; the rest are absent from its report.
pub const PER_LAYER: [(&str, &str); 92] = [
    // client — the generator itself
    ("client.latency_p50_ms", "ms"),
    ("client.latency_p90_ms", "ms"),
    ("client.latency_p99_ms", "ms"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("client.request_bytes", "bytes"),
    ("client.response_bytes", "bytes"),
    ("client.timeouts", "count"),
    // host — comparability of two runs
    ("host.cores", "count"),
    ("host.copy_gbps", "GB/s"),
    ("host.spin_ms", "ms"),
    ("host.slowdown", "ratio"),
    // jsonlite
    ("jsonlite.parse_us", "us"),
    ("jsonlite.write_us", "us"),
    // circuit
    ("circuit.from_qasm3_us", "us"),
    ("circuit.to_qasm3_us", "us"),
    ("circuit.qasm_bytes", "bytes"),
    ("circuit.instructions", "count"),
    // service.protocol
    ("service.protocol.decode_us", "us"),
    ("service.protocol.encode_us", "us"),
    // service.admission
    ("service.admission.admit_us", "us"),
    // service.cache
    ("service.cache.fingerprint_us", "us"),
    ("service.cache.get_us", "us"),
    ("service.cache.insert_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.evictions", "count"),
    // service.scheduler
    ("service.scheduler.prepare_us", "us"),
    ("service.scheduler.run_range_ms", "ms"),
    ("service.scheduler.submit_hit_us", "us"),
    ("service.scheduler.slices_per_job", "count"),
    ("service.scheduler.rejected_busy", "count"),
    ("service.scheduler.coalesced", "count"),
    ("service.scheduler.errors", "count"),
    // service.server
    ("service.server.stats_rtt_us", "us"),
    ("service.server.spawn_ms", "ms"),
    ("service.server.shutdown_ms", "ms"),
    // reactor
    ("reactor.echo_rtt_us", "us"),
    // shard
    ("shard.dispatch_p50_ms", "ms"),
    ("shard.overhead_ms", "ms"),
    ("shard.partition_imbalance", "ratio"),
    ("shard.merge_us", "us"),
    ("shard.redispatched", "count"),
    // engine
    ("engine.shot_rng_ns", "ns"),
    ("engine.plan_new_us", "us"),
    ("engine.run_plan_us_per_shot", "us"),
    ("engine.pool_efficiency", "ratio"),
    ("engine.chunks_per_op", "count"),
    // qsim
    ("qsim.compile_us", "us"),
    ("qsim.kernel_passes", "count"),
    ("qsim.interp_ops", "count"),
    ("qsim.kernel_bytes_per_shot", "bytes"),
    ("qsim.shot_ms", "ms"),
    ("qsim.kernels_ms_per_shot", "ms"),
    ("qsim.achieved_gbps", "GB/s"),
    ("qsim.roofline_fraction", "ratio"),
    ("qsim.unitary1_ns_per_amp", "ns"),
    ("qsim.unitary2_ns_per_amp", "ns"),
    ("qsim.phase_ns_per_amp", "ns"),
    ("qsim.permute_ns_per_amp", "ns"),
    ("qsim.measure_us", "us"),
    ("qsim.interp_share", "ratio"),
    ("qsim.copy_from_us", "us"),
    ("qsim.product_state_us", "us"),
    ("qsim.amp_efficiency", "ratio"),
    // stabilizer
    ("stabilizer.shot_us", "us"),
    ("stabilizer.gate_ns", "ns"),
    // compas
    ("compas.build_ms", "ms"),
    ("compas.qubits", "count"),
    ("compas.depth", "count"),
    ("compas.instructions", "count"),
    ("compas.ghz_width", "count"),
    ("compas.ensemble_sample_us", "us"),
    ("compas.estimate_ms_per_shot", "ms"),
    ("compas.estimate_err_sigma", "sigma"),
    // network
    ("network.bell_pairs", "count"),
    ("network.max_bell_pairs_per_node", "count"),
    ("network.classical_bits", "count"),
    // obs — the servers' own registry, traced run only
    ("obs.stage.parse_p50_us", "us"),
    ("obs.stage.admission_p50_us", "us"),
    ("obs.stage.cache_lookup_p50_us", "us"),
    ("obs.stage.compile_p50_us", "us"),
    ("obs.stage.execute_p50_us", "us"),
    ("obs.stage.merge_p50_us", "us"),
    ("obs.stage.encode_p50_us", "us"),
    ("obs.stage.write_p50_us", "us"),
    ("obs.engine.chunk_p50_us", "us"),
    ("obs.engine.amp_kernel_p50_us", "us"),
    ("obs.snapshot_us", "us"),
    // trace — the benchmark's own spans
    ("trace.spans", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("trace.unaccounted_us", "us"),
];

/// Measured values by metric name. A name that is not set is *absent*:
/// the workload does not run through that layer.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the metric tables — a typo must not
    /// silently create a metric nobody reads.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "\"{name}\" is not a declared metric"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The declared unit of `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(doc: &jsonlite::Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(jsonlite::Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no \"{key}\" array"))
            .iter()
            .map(|row| {
                let field = |f: &str| {
                    row.get(f)
                        .and_then(jsonlite::Json::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_declared_names_and_units() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = jsonlite::Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(named(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(named(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = named(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_names_are_rejected() {
        Metrics::default().set("qsim.typo", 1.0);
    }
}
