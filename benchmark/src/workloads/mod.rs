//! The five workloads. Each is a closed loop with one caller: one TCP
//! connection or one calling thread, the next op sent only after the
//! previous one completed.

mod lib_compas;
mod lib_wide_sv;
mod serve;

pub use lib_compas::{PINNED_BELL_PAIRS, PINNED_DEPTH};

use crate::metrics::Metrics;
use crate::replay::Sampled;
use crate::spans::Spans;
use std::time::Duration;

/// Where inside an op the client spent its time (nanoseconds on the
/// run's span clock). Library workloads have no phases.
#[derive(Debug, Clone, Copy)]
pub struct ClientPhases {
    /// `Request::to_line`.
    pub encode: (u64, u64),
    /// Write the request, wait, read the reply line.
    pub wire: (u64, u64),
    /// `Response::from_line` and the inline checks.
    pub decode: (u64, u64),
}

/// What the traced run hands a workload for its per-layer report.
pub struct LayerCtx<'a> {
    /// The run's spans; replayed stages are folded in here.
    pub spans: &'a mut Spans,
    /// The live ops kept for replay, in the order the workload kept
    /// their payloads.
    pub sampled: &'a [Sampled],
    /// The per-layer metrics to fill.
    pub metrics: &'a mut Metrics,
    /// `host.copy_gbps` of this run.
    pub host_gbps: f64,
    /// Median live latency of the traced phase, milliseconds.
    pub latency_p50_ms: f64,
}

/// One workload, built and warmed up.
pub trait Workload {
    /// Name of an op's root span (`client.op` / `lib.op`).
    fn root_span(&self) -> &'static str;

    /// Runs one op to completion. `keep` asks the workload to keep the
    /// op's payload for replay. `Err` is a failed op: a missed
    /// deadline, a reply that is not `ok` / not finite, or a failed
    /// inline check.
    fn op(&mut self, clock: &Spans, keep: bool) -> Result<Option<ClientPhases>, String>;

    /// Checks the recorded outputs, outside the timed window; pushes
    /// one line per violation.
    fn verify(&mut self, problems: &mut Vec<String>);

    /// Fills the per-layer metrics and replays the kept ops.
    fn layers(&mut self, ctx: LayerCtx<'_>);

    /// Stops everything the workload started and waits for it;
    /// returns the servers' shutdown wall time, if it ran any.
    fn teardown(self: Box<Self>) -> Option<Duration>;
}

/// Builds and warms up workload `name` for benchmark seed `seed`.
/// `lane` keeps the root seeds of repeated set-ups apart;
/// `instrumented` turns the `obs::Registry` on (traced run only).
pub fn build(
    name: &str,
    seed: u64,
    lane: u64,
    instrumented: bool,
) -> Result<Box<dyn Workload>, String> {
    let roots = crate::gen::RootSeeds::lane(seed, lane);
    Ok(match name {
        "lib-compas" => Box::new(lib_compas::LibCompas::build(seed, roots, instrumented)),
        "lib-wide-sv" => Box::new(lib_wide_sv::LibWideSv::build(seed, roots, instrumented)),
        "serve-cold" => Box::new(serve::Serve::build(
            serve::Kind::Cold,
            seed,
            roots,
            instrumented,
        )?),
        "serve-warm" => Box::new(serve::Serve::build(
            serve::Kind::Warm,
            seed,
            roots,
            instrumented,
        )?),
        "serve-sharded" => Box::new(serve::Serve::build(
            serve::Kind::Sharded,
            seed,
            roots,
            instrumented,
        )?),
        other => return Err(format!("unknown workload \"{other}\"")),
    })
}
