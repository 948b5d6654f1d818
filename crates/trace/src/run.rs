//! Recording: run a named workload in any execution mode with a
//! [`MemorySink`] attached, and package the captured shots as a
//! [`Trace`].
//!
//! The four modes cover every layer of the stack:
//!
//! * [`Mode::Sequential`] — single-threaded [`Executor`], the
//!   reference ordering.
//! * [`Mode::Pooled`] — the work-stealing pool; records arrive
//!   unordered and are sorted before packaging.
//! * [`Mode::Served`] — an in-process [`Service`] over a recording
//!   engine, driven through a real loopback TCP client, so admission →
//!   cache → slicing all sit between the workload and the trace.
//! * [`Mode::Sharded`] — a [`Coordinator`] scattering shot ranges over
//!   two in-process worker services whose engines share one sink; the
//!   workers' global shot indices must union to the full range.
//!
//! In every mode the packaged trace covers shots `0..shots` exactly
//! once — recording observes execution, it never changes what is
//! executed or (for the served modes) the bytes on the wire.

use crate::format::{Trace, TraceHeader, FORMAT_VERSION};
use crate::workloads::Workload;
use circuit::qasm::to_qasm3;
use engine::{Backend, Engine, Executor, MemorySink};
use service::{Request, Response, RunRequest, Service, ServiceConfig};
use shard::{Coordinator, CoordinatorConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Which execution path records the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Single-threaded executor.
    Sequential,
    /// Work-stealing pool (4 workers).
    Pooled,
    /// In-process TCP service, driven over loopback.
    Served,
    /// Coordinator + two in-process worker services.
    Sharded,
}

impl Mode {
    /// Parses a mode name as accepted on the CLI.
    pub fn parse(name: &str) -> Option<Mode> {
        match name.trim().to_ascii_lowercase().as_str() {
            "sequential" | "seq" => Some(Mode::Sequential),
            "pooled" | "pool" => Some(Mode::Pooled),
            "served" | "serve" => Some(Mode::Served),
            "sharded" | "shard" => Some(Mode::Sharded),
            _ => None,
        }
    }

    /// The mode's canonical name (accepted by [`Mode::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Sequential => "sequential",
            Mode::Pooled => "pooled",
            Mode::Served => "served",
            Mode::Sharded => "sharded",
        }
    }
}

/// Pool width used by the non-sequential local modes. Any width tallies
/// identically; a fixed one keeps run shapes comparable across hosts.
const POOL_THREADS: usize = 4;

/// Records `workload` at `shots`/`root_seed` in `mode` and packages
/// the captured records as a [`Trace`].
///
/// When `with_timing` is false the per-shot nanosecond field is zeroed
/// so the encoded bytes are fully deterministic — the setting for
/// golden traces.
///
/// # Errors
///
/// Returns a message if the backend rejects the circuit, a service
/// interaction fails, or the captured records do not cover the shot
/// range exactly once (which would indicate an engine bug — the golden
/// tests lean on this check).
pub fn record_workload(
    workload: &Workload,
    mode: Mode,
    shots: u64,
    root_seed: u64,
    with_timing: bool,
) -> Result<Trace, String> {
    let circuit = (workload.build)();
    let sink = Arc::new(MemorySink::new());
    // Recording is engine policy: every mode runs over an engine that
    // carries the sink.
    let pool = || Engine::with_threads(POOL_THREADS).with_trace(sink.clone());
    let spawn_service = || {
        Service::spawn(ServiceConfig {
            engine: pool(),
            ..ServiceConfig::default()
        })
    };
    // One run request over loopback against a served topology.
    let drive = |addr: std::net::SocketAddr| {
        let qasm = to_qasm3(&circuit);
        drive_request(&addr.to_string(), &qasm, shots, root_seed, workload.backend)
    };
    match mode {
        Mode::Sequential | Mode::Pooled => {
            let engine = match mode {
                Mode::Sequential => Engine::sequential().with_trace(sink.clone()),
                _ => pool(),
            };
            let exec = Executor::pooled(engine, root_seed);
            workload
                .backend
                .sample_shots(&circuit, shots as usize, &exec)
                .map_err(|e| format!("{}: {e:?}", workload.name))?;
        }
        Mode::Served => {
            let service = spawn_service().map_err(|e| format!("cannot spawn service: {e}"))?;
            let result = drive(service.addr());
            service.shutdown();
            result?;
        }
        Mode::Sharded => {
            // Two workers share one sink; the coordinator scatters
            // disjoint global shot ranges across them, so the union of
            // their records is the full run.
            let worker_a = spawn_service().map_err(|e| format!("cannot spawn worker: {e}"))?;
            let worker_b = spawn_service().map_err(|e| format!("cannot spawn worker: {e}"))?;
            let coordinator = Coordinator::spawn(CoordinatorConfig {
                workers: vec![worker_a.addr().to_string(), worker_b.addr().to_string()],
                ..CoordinatorConfig::default()
            })
            .map_err(|e| format!("cannot spawn coordinator: {e}"))?;
            let result = drive(coordinator.addr());
            coordinator.shutdown();
            worker_a.shutdown();
            worker_b.shutdown();
            result?;
        }
    }

    package(workload, &circuit, shots, root_seed, with_timing, sink)
}

/// Sends one run request over a real TCP connection and checks the
/// response is `ok` with tallies summing to `shots`.
fn drive_request(
    addr: &str,
    qasm: &str,
    shots: u64,
    seed: u64,
    backend: Backend,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let request = Request::run(
        None,
        RunRequest::new(qasm.to_string(), shots, seed, backend.name().to_string()),
    );
    writer
        .write_all(request.to_line().as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    match Response::from_line(&line).map_err(|e| format!("parse response: {e}"))? {
        Response::Ok {
            shots: got,
            tallies,
            ..
        } => {
            let total: usize = tallies.values().sum();
            if got != shots || total as u64 != shots {
                return Err(format!(
                    "response covers {total}/{got} shots, requested {shots}"
                ));
            }
            Ok(())
        }
        other => Err(format!("unexpected response: {other:?}")),
    }
}

/// Sorts, validates, and wraps the captured records into a [`Trace`].
fn package(
    workload: &Workload,
    circuit: &circuit::circuit::Circuit,
    shots: u64,
    root_seed: u64,
    with_timing: bool,
    sink: Arc<MemorySink>,
) -> Result<Trace, String> {
    let sink = Arc::into_inner(sink).ok_or("trace sink still shared after shutdown")?;
    let mut records = sink.into_records();
    if records.len() as u64 != shots {
        return Err(format!(
            "{}: captured {} records for {shots} shots",
            workload.name,
            records.len()
        ));
    }
    for (i, r) in records.iter().enumerate() {
        if r.shot != i as u64 {
            return Err(format!(
                "{}: record {i} has shot index {} — range not covered exactly once",
                workload.name, r.shot
            ));
        }
    }
    if !with_timing {
        for r in &mut records {
            r.nanos = 0;
        }
    }
    Ok(Trace {
        header: TraceHeader {
            version: FORMAT_VERSION,
            workload: workload.name.to_string(),
            backend: workload.backend.name().to_string(),
            circuit_fp: service::cache::fingerprint(&to_qasm3(circuit)),
            root_seed,
            shots,
            num_cbits: circuit.num_cbits() as u32,
            has_timing: with_timing,
        },
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn sequential_and_pooled_record_identical_traces() {
        // The determinism contract, observed through the trace layer:
        // mode must not leak into the recorded bytes.
        for name in ["table4", "appendix_b", "spectroscopy"] {
            let w = find(name).unwrap();
            let seq = record_workload(w, Mode::Sequential, 64, w.root_seed, false).unwrap();
            let pooled = record_workload(w, Mode::Pooled, 64, w.root_seed, false).unwrap();
            assert_eq!(seq, pooled, "{name}: pooled trace diverged");
            assert_eq!(
                crate::format::encode(&seq),
                crate::format::encode(&pooled),
                "{name}: encoded bytes diverged"
            );
        }
    }

    #[test]
    fn served_recording_matches_local_and_leaves_responses_alone() {
        let w = find("fig9a").unwrap();
        let local = record_workload(w, Mode::Sequential, 48, w.root_seed, false).unwrap();
        let served = record_workload(w, Mode::Served, 48, w.root_seed, false).unwrap();
        assert_eq!(local, served, "service layer changed the execution");
    }

    #[test]
    fn sharded_workers_union_to_the_full_shot_range() {
        let w = find("qsp").unwrap();
        let local = record_workload(w, Mode::Sequential, 40, w.root_seed, false).unwrap();
        let sharded = record_workload(w, Mode::Sharded, 40, w.root_seed, false).unwrap();
        assert_eq!(local, sharded, "sharded trace diverged from one machine");
    }

    #[test]
    fn timing_capture_is_opt_in_and_does_not_touch_the_payload() {
        let w = find("cooling").unwrap();
        let cold = record_workload(w, Mode::Sequential, 32, w.root_seed, false).unwrap();
        let timed = record_workload(w, Mode::Sequential, 32, w.root_seed, true).unwrap();
        assert!(cold.records.iter().all(|r| r.nanos == 0));
        assert!(timed.records.iter().any(|r| r.nanos > 0));
        for (a, b) in cold.records.iter().zip(&timed.records) {
            assert_eq!((a.shot, a.record, a.stream), (b.shot, b.record, b.stream));
        }
    }
}
