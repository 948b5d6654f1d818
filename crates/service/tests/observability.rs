//! The observability guarantees, end to end:
//!
//! * **Instrumentation never changes served bytes** — the same request
//!   sequence against an instrumented and an uninstrumented server
//!   yields byte-identical response lines (differential test).
//! * The `metrics` wire op serves per-stage latency histograms,
//!   cache/admission counters, connection gauges, and slow traces from
//!   a standalone server, in the stable jsonlite schema.
//! * `--quota-shots-per-sec` admission is deterministic where it can
//!   be: a job larger than the one-second burst capacity is always
//!   rejected, and the rejection is visible in `stats`, per-client
//!   rows, and the registry.
//! * The engine's prefix counters split a served statevector job's
//!   shots into those that started from its noiseless prefix and those
//!   that fell back; one-shot and stabilizer jobs add to neither.
//! * A repeat answered on the reactor parses nothing, and every request
//!   — answered there or by the scheduler — is counted exactly once.

use circuit::circuit::Circuit;
use circuit::noise::NoiseModel;
use circuit::qasm::to_qasm3;
use engine::Engine;
use service::{
    JobBackend, Op, Request, Response, RunRequest, Scheduler, SchedulerConfig, Service,
    ServiceConfig, ServiceStats, Submission,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn bell_qasm() -> String {
    let mut c = Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    to_qasm3(&c)
}

fn ghz_qasm(n: usize) -> String {
    let mut c = Circuit::new(n, n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
    }
    for q in 0..n {
        c.measure(q, q);
    }
    to_qasm3(&c)
}

/// One wire round trip on a fresh connection; returns the raw line.
fn request_line(addr: SocketAddr, request: &Request) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(request.to_line().as_bytes())
        .expect("send");
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("recv") > 0);
    line
}

#[test]
fn instrumentation_never_changes_served_bytes() {
    let spawn = |metrics: Option<obs::Registry>| {
        Service::spawn(ServiceConfig {
            workers: 2,
            slice_shots: 64,
            metrics,
            ..ServiceConfig::default()
        })
        .expect("spawn")
    };
    let plain = spawn(None);
    let instrumented = spawn(Some(obs::Registry::default()));

    let requests: Vec<Request> = vec![
        Request::run(
            Some("a".into()),
            RunRequest::new(bell_qasm(), 500, 7, "auto"),
        ),
        Request::run(
            Some("b".into()),
            RunRequest::new(ghz_qasm(5), 300, 3, "auto"),
        ),
        // Repeat of "a": a cache hit on both servers.
        Request::run(
            Some("a".into()),
            RunRequest::new(bell_qasm(), 500, 7, "auto"),
        ),
        // A parse error errors identically.
        Request::run(Some("e".into()), RunRequest::new("not qasm", 10, 1, "auto")),
    ];
    for request in &requests {
        let without = request_line(plain.addr(), request);
        let with = request_line(instrumented.addr(), request);
        assert_eq!(without, with, "instrumentation changed served bytes");
    }

    // And the instrumented server did actually observe the traffic.
    let snapshot = instrumented.metrics_snapshot();
    assert!(snapshot.histo("stage.parse").is_some_and(|h| h.count > 0));
    assert!(snapshot.counter("cache.hits") >= Some(1));

    // Without a registry the counters are still kept — `stats` agrees
    // with the instrumented server's — but nothing is exported.
    let counted = |stats: ServiceStats| stats.fields()[..COUNTERS.len()].to_vec();
    assert_eq!(counted(plain.stats()), counted(instrumented.stats()));
    let unexported = plain.metrics_snapshot();
    assert!(unexported.counters.is_empty(), "{:?}", unexported.counters);
    assert!(unexported.histos.is_empty(), "{:?}", unexported.histos);
    plain.shutdown();
    instrumented.shutdown();
}

/// Each counter field of `ServiceStats`, in wire order, with the
/// registry counter it reads.
const COUNTERS: [(&str, &str); 9] = [
    ("received", "sched.received"),
    ("completed", "sched.completed"),
    ("cache_hits", "cache.hits"),
    ("cache_misses", "cache.misses"),
    ("coalesced", "sched.coalesced"),
    ("rejected_busy", "sched.rejected_busy"),
    ("rejected_quota", "sched.rejected_quota"),
    ("rejected_rate", "sched.rejected_rate"),
    ("errors", "sched.errors"),
];

#[test]
fn stats_counters_are_the_registry_counters() {
    let registry = obs::Registry::default();
    let sched = Scheduler::new(SchedulerConfig {
        queue_capacity: 3,
        client_quota_shots: 1_000,
        client_quota_shots_per_sec: 500,
        metrics: Some(registry.clone()),
        ..SchedulerConfig::default()
    });
    let engine = Engine::sequential();
    let submit = |run: &RunRequest| sched.submit(None, run);
    // Ok, with a coalesced twin, then a cache hit.
    let (Submission::Pending(first), Submission::Pending(twin)) =
        (submit(&run_request(100, 1)), submit(&run_request(100, 1)))
    else {
        panic!("first run and its twin should both wait");
    };
    while sched.stats().in_flight > 0 {
        let task = sched.next_slice().expect("work pending");
        let counts = task.prepared.run_range(&engine, task.range.clone());
        sched.complete_slice(&task.key, counts);
    }
    assert!(matches!(first.recv().unwrap(), Response::Ok { .. }));
    assert!(matches!(
        twin.recv().unwrap(),
        Response::Ok {
            coalesced: true,
            ..
        }
    ));
    assert!(matches!(
        submit(&run_request(100, 1)),
        Submission::Immediate(Response::Ok { cached: true, .. })
    ));
    // Zero shots settle at once.
    assert!(matches!(
        submit(&run_request(0, 2)),
        Submission::Immediate(Response::Ok { .. })
    ));
    // Over the in-flight quota, then over the rate bucket.
    for (client, shots) in [("quota", 1_500), ("rate", 600)] {
        assert!(matches!(
            submit(&run_request(shots, 3).with_client(client)),
            Submission::Immediate(Response::Busy { .. })
        ));
    }
    // Three jobs fill the queue; the fourth is turned away.
    let _queued: Vec<Submission> = (10..13)
        .map(|seed| submit(&run_request(10, seed)))
        .collect();
    assert!(matches!(
        submit(&run_request(10, 13)),
        Submission::Immediate(Response::Busy { .. })
    ));
    // A parse error, and a request line the front end could not decode.
    assert!(matches!(
        submit(&RunRequest::new("not qasm", 1, 1, "auto")),
        Submission::Immediate(Response::Error { .. })
    ));
    JobBackend::note_error(&sched);

    let stats = sched.stats();
    let snapshot = registry.snapshot();
    for ((field, value), (expected, name)) in stats.fields().into_iter().zip(COUNTERS) {
        assert_eq!(field, expected, "wire order");
        assert!(value > 0, "{field} was never exercised");
        assert_eq!(snapshot.counter(name), Some(value), "{field} vs {name}");
    }
}

#[test]
fn metrics_op_serves_stage_histograms_from_a_standalone_server() {
    let handle = Service::spawn(ServiceConfig {
        workers: 2,
        slice_shots: 64,
        metrics: Some(obs::Registry::default()),
        ..ServiceConfig::default()
    })
    .expect("spawn");

    let run = Request::run(None, RunRequest::new(bell_qasm(), 700, 11, "auto"));
    match Response::from_line(&request_line(handle.addr(), &run)).expect("parse") {
        Response::Ok { shots, .. } => assert_eq!(shots, 700),
        other => panic!("expected ok, got {other:?}"),
    }

    let line = request_line(
        handle.addr(),
        &Request {
            id: Some("m".into()),
            op: Op::Metrics,
        },
    );
    let Response::Metrics { id, snapshot } = Response::from_line(&line).expect("parse") else {
        panic!("expected metrics response: {line}");
    };
    assert_eq!(id.as_deref(), Some("m"));
    // Every stage the standalone path crosses shows up with at least
    // one observation; 700 shots over 64-shot slices is 11 executes.
    for stage in [
        "stage.parse",
        "stage.admission",
        "stage.cache_lookup",
        "stage.compile",
        "stage.execute",
        "stage.merge",
        "stage.encode",
    ] {
        let histo = snapshot
            .histo(stage)
            .unwrap_or_else(|| panic!("{stage} missing from snapshot"));
        assert!(histo.count > 0, "{stage} recorded nothing");
    }
    assert!(snapshot.histo("stage.execute").unwrap().count >= 11);
    assert_eq!(snapshot.counter("sched.completed"), Some(1));
    assert_eq!(snapshot.counter("cache.misses"), Some(1));
    assert!(snapshot.gauge("reactor.open").is_some());
    assert!(!snapshot.slow.is_empty(), "completion retains a slow trace");
    // The snapshot exposes the Prometheus text form, too.
    let text = snapshot.to_prometheus("compas");
    assert!(text.contains("# TYPE compas_stage_execute histogram"));
    handle.shutdown();
}

/// The `ghz12_sv_noisy` workload's circuit: a GHZ-12 chain under the
/// standard noise model at `p = 0.05`, every qubit measured.
fn noisy_ghz12_qasm() -> String {
    ghz12_qasm_at(0.05)
}

/// A GHZ-12 chain under the standard noise model at `p`, every qubit
/// measured (the `ghz12_sv` trace workload at `p = 0.002`).
fn ghz12_qasm_at(p: f64) -> String {
    let mut prep = Circuit::new(12, 12);
    prep.h(0);
    for q in 1..12 {
        prep.cx(q - 1, q);
    }
    let mut noisy = NoiseModel::standard(p).apply(&prep);
    for q in 0..12 {
        noisy.measure(q, q);
    }
    to_qasm3(&noisy)
}

/// The `zz14_sv` trace workload: a dense 14-qubit ZZ state, every qubit
/// measured — more branch states than its tree's budget holds.
fn zz14_qasm() -> String {
    let n = 14;
    let mut c = Circuit::new(n, n);
    for layer in 0..2 {
        for q in 0..n {
            c.rx(q, 0.3 + 0.05 * (q + layer) as f64);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1).rz(q + 1, 0.4 + 0.03 * q as f64).cx(q, q + 1);
        }
    }
    for q in 0..n {
        c.measure(q, q);
    }
    to_qasm3(&c)
}

#[test]
fn prefix_counters_split_the_shots_of_a_served_statevector_job() {
    let handle = Service::spawn(ServiceConfig {
        workers: 2,
        slice_shots: 64,
        metrics: Some(obs::Registry::default()),
        ..ServiceConfig::default()
    })
    .expect("spawn");
    let run = |qasm: String, shots: u64, backend: &str| {
        let request = Request::run(None, RunRequest::new(qasm, shots, 0xC0_45, backend));
        match Response::from_line(&request_line(handle.addr(), &request)).expect("parse") {
            Response::Ok { shots: ran, .. } => assert_eq!(ran, shots),
            other => panic!("expected ok, got {other:?}"),
        }
    };
    let counter = |name: &str| {
        let metrics = Request {
            id: None,
            op: Op::Metrics,
        };
        let line = request_line(handle.addr(), &metrics);
        let Response::Metrics { snapshot, .. } = Response::from_line(&line).expect("parse") else {
            panic!("expected metrics response: {line}");
        };
        snapshot.counter(name).unwrap_or(0)
    };
    let prefix_counters = || {
        (
            counter("engine.prefix_shots"),
            counter("engine.prefix_fallbacks"),
        )
    };

    // A one-shot statevector job builds no prefix; a stabilizer job has
    // none.
    run(noisy_ghz12_qasm(), 1, "statevector");
    assert_eq!(prefix_counters(), (0, 0));
    run(ghz_qasm(12), 256, "stabilizer");
    assert_eq!(prefix_counters(), (0, 0));
    assert_eq!(counter("engine.branch_exits"), 0);

    // Every shot of a served statevector job either starts from the
    // prefix or falls back; at p = 0.05 both happen.
    run(noisy_ghz12_qasm(), 256, "statevector");
    let (from_prefix, fallbacks) = prefix_counters();
    assert_eq!(from_prefix + fallbacks, 256);
    assert!(
        from_prefix > 0 && fallbacks > 0,
        "{from_prefix} / {fallbacks}"
    );

    // A GHZ-12 job's tree holds every branch its shots take: none
    // leaves it early.
    run(ghz12_qasm_at(0.002), 256, "statevector");
    let (shots, falls) = prefix_counters();
    assert_eq!(shots + falls - from_prefix - fallbacks, 256);
    assert_eq!(counter("engine.branch_exits"), 0);

    // A dense 14-qubit job has more branches than its tree's budget.
    run(zz14_qasm(), 256, "statevector");
    assert!(counter("engine.branch_exits") > 0);
    handle.shutdown();
}

#[test]
fn a_repeated_circuit_parses_and_prepares_once() {
    let handle = Service::spawn(ServiceConfig {
        workers: 2,
        metrics: Some(obs::Registry::default()),
        ..ServiceConfig::default()
    })
    .expect("spawn");
    for seed in 0..20 {
        let run = Request::run(None, RunRequest::new(ghz12_qasm_at(0.002), 400, seed, "sv"));
        match Response::from_line(&request_line(handle.addr(), &run)).expect("parse") {
            Response::Ok { cached, .. } => assert!(!cached, "a fresh seed executes"),
            other => panic!("expected ok, got {other:?}"),
        }
    }
    let snapshot = handle.metrics_snapshot();
    assert_eq!(snapshot.counter("admission.parses"), Some(1));
    assert_eq!(snapshot.counter("prepared.misses"), Some(1));
    assert_eq!(snapshot.counter("prepared.hits"), Some(19));
    assert!(snapshot.gauge("prepared.bytes") > Some(0));
    handle.shutdown();
}

fn run_request(shots: u64, seed: u64) -> RunRequest {
    RunRequest::new(bell_qasm(), shots, seed, "auto")
}

#[test]
fn rate_quota_rejects_jobs_larger_than_burst_capacity() {
    let registry = obs::Registry::default();
    let sched = Scheduler::new(SchedulerConfig {
        client_quota_shots_per_sec: 100,
        metrics: Some(registry.clone()),
        ..SchedulerConfig::default()
    });
    // 200 shots can never fit a 100-token bucket: rejected no matter
    // how much time passes, so this assertion is timing-independent.
    match sched.submit(
        Some("big".into()),
        &run_request(200, 1).with_client("tenant-a"),
    ) {
        Submission::Immediate(Response::Busy { id, .. }) => {
            assert_eq!(id.as_deref(), Some("big"));
        }
        Submission::Immediate(other) => panic!("expected busy, got {other:?}"),
        Submission::Pending(_) => panic!("over-capacity job was admitted"),
    }
    assert_eq!(sched.stats().rejected_rate, 1);
    let rows = sched.client_rows();
    let a = rows.iter().find(|r| r.client == "tenant-a").unwrap();
    assert_eq!(a.rejected_rate, 1);
    assert_eq!(
        registry.snapshot().counter("sched.rejected_rate"),
        Some(1),
        "the registry mirrors the rejection"
    );

    // A job within capacity is admitted, and other clients have their
    // own buckets.
    let engine = Engine::sequential();
    for (id, client, seed) in [("ok-a", "tenant-a", 2), ("ok-b", "tenant-b", 3)] {
        let Submission::Pending(rx) =
            sched.submit(Some(id.into()), &run_request(50, seed).with_client(client))
        else {
            panic!("{id} should admit");
        };
        while sched.stats().in_flight > 0 {
            let task = sched.next_slice().expect("work pending");
            let counts = task.prepared.run_range(&engine, task.range.clone());
            sched.complete_slice(&task.key, counts);
        }
        assert!(matches!(rx.recv().unwrap(), Response::Ok { .. }));
    }
    assert_eq!(sched.stats().rejected_rate, 1, "no further rejections");
}

#[test]
fn rate_quota_depletes_within_a_burst_window() {
    // Large numbers make the refill between two in-process calls
    // negligible: the second 900k-shot job would need 0.8 s of refill
    // to fit, which back-to-back submissions never see.
    let sched = Scheduler::new(SchedulerConfig {
        client_quota_shots_per_sec: 1_000_000,
        ..SchedulerConfig::default()
    });
    let first = sched.submit(
        Some("first".into()),
        &run_request(900_000, 1).with_client("t"),
    );
    assert!(
        matches!(first, Submission::Pending(_)),
        "a full bucket admits 900k of 1M"
    );
    match sched.submit(
        Some("second".into()),
        &run_request(900_000, 2).with_client("t"),
    ) {
        Submission::Immediate(Response::Busy { .. }) => {}
        Submission::Immediate(other) => panic!("expected busy (bucket depleted), got {other:?}"),
        Submission::Pending(_) => panic!("depleted bucket admitted a 900k job"),
    }
    assert_eq!(sched.stats().rejected_rate, 1);
    // Identical-job coalescing is not charged against the bucket.
    let joined = sched.submit(
        Some("joined".into()),
        &run_request(900_000, 1).with_client("t"),
    );
    assert!(
        matches!(joined, Submission::Pending(_)),
        "waiters ride free"
    );
}

#[test]
fn scheduler_registry_records_stages_and_counters() {
    let registry = obs::Registry::default();
    let sched = Scheduler::new(SchedulerConfig {
        slice_shots: 50,
        metrics: Some(registry.clone()),
        ..SchedulerConfig::default()
    });
    let engine = Engine::sequential();
    let Submission::Pending(rx) = sched.submit(Some("j".into()), &run_request(100, 5)) else {
        panic!("job should admit");
    };
    while sched.stats().in_flight > 0 {
        let task = sched.next_slice().expect("work pending");
        let counts = task.prepared.run_range(&engine, task.range.clone());
        sched.complete_slice(&task.key, counts);
    }
    assert!(matches!(rx.recv().unwrap(), Response::Ok { .. }));
    // A cache hit and a parse error, for the counter surfaces.
    assert!(matches!(
        sched.submit(Some("hit".into()), &run_request(100, 5)),
        Submission::Immediate(Response::Ok { cached: true, .. })
    ));
    assert!(matches!(
        sched.submit(
            Some("bad".into()),
            &RunRequest::new("not qasm", 1, 1, "auto")
        ),
        Submission::Immediate(Response::Error { .. })
    ));

    let snapshot = registry.snapshot();
    for stage in [
        "stage.parse",
        "stage.admission",
        "stage.cache_lookup",
        "stage.compile",
        "stage.merge",
    ] {
        assert!(
            snapshot.histo(stage).is_some_and(|h| h.count > 0),
            "{stage} recorded nothing"
        );
    }
    assert_eq!(snapshot.counter("sched.admitted"), Some(1));
    assert_eq!(snapshot.counter("sched.completed"), Some(1));
    assert_eq!(snapshot.counter("cache.hits"), Some(1));
    assert_eq!(snapshot.counter("cache.misses"), Some(1));
    assert_eq!(snapshot.counter("sched.errors"), Some(1));
    let trace = snapshot.slow.last().expect("slow trace retained");
    assert!(trace.stages.iter().any(|(s, _)| s == "parse"));
    assert!(trace.total_ns > 0);
}

/// A run of `shots` Bell shots under seed 4 — the session's one circuit.
fn bell_run(shots: u64) -> Request {
    Request::run(None, RunRequest::new(bell_qasm(), shots, 4, "auto"))
}

fn wire(addr: SocketAddr, request: &Request) -> Response {
    Response::from_line(&request_line(addr, request)).expect("parse")
}

#[test]
fn repeats_of_a_known_answer_parse_nothing() {
    let handle = Service::spawn(ServiceConfig {
        metrics: Some(obs::Registry::default()),
        ..ServiceConfig::default()
    })
    .expect("spawn");
    let miss = wire(handle.addr(), &bell_run(200));
    assert!(matches!(miss, Response::Ok { cached: false, .. }));
    for _ in 0..20 {
        assert!(matches!(
            wire(handle.addr(), &bell_run(200)),
            Response::Ok { cached: true, .. }
        ));
    }
    let snapshot = handle.metrics_snapshot();
    assert_eq!(snapshot.counter("admission.parses"), Some(1));
    assert_eq!(snapshot.counter("cache.hits"), Some(20));
    handle.shutdown();
}

#[test]
fn every_request_of_a_wire_session_is_counted_once() {
    let registry = obs::Registry::default();
    let handle = Service::spawn(ServiceConfig {
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    })
    .expect("spawn");
    let repeats = 5;
    let mut mismatched = RunRequest::new(bell_qasm(), 100, 4, "auto");
    mismatched.shot_range = Some((0, 50));
    let mut session = vec![bell_run(200)];
    session.extend((0..repeats).map(|_| bell_run(200)));
    session.extend([
        Request::run(None, RunRequest::new("not qasm", 10, 1, "auto")),
        bell_run(0),
        Request::run(None, mismatched),
    ]);
    let replies: Vec<Response> = session.iter().map(|r| wire(handle.addr(), r)).collect();
    let cached = replies
        .iter()
        .filter(|r| matches!(r, Response::Ok { cached: true, .. }))
        .count();
    let errors = replies
        .iter()
        .filter(|r| matches!(r, Response::Error { .. }))
        .count();
    assert_eq!((cached, errors), (repeats, 2), "{replies:?}");

    // Every reply has arrived, so every count is final.
    let stats = handle.stats();
    assert_eq!(stats.received, session.len() as u64);
    assert_eq!(
        stats.received,
        stats.completed
            + stats.cache_hits
            + stats.coalesced
            + stats.rejected_busy
            + stats.rejected_quota
            + stats.rejected_rate
            + stats.errors,
        "{stats:?}"
    );
    let encoded = registry.snapshot().histo("stage.encode").map(|h| h.count);
    assert_eq!(
        encoded,
        Some(session.len() as u64),
        "one encode per run reply"
    );
    handle.shutdown();
}
