//! Topology-wide observability: the coordinator's `metrics` wire op
//! answers with its own registry merged with a fresh snapshot from
//! every live worker, so one round trip yields per-stage histograms
//! covering the whole topology — including stages (like
//! `stage.execute`) that only ever run on workers. The coordinator's
//! `stats` counters are its `shard.`-prefixed registry counters, and a
//! repeat it answers on its reactor parses nothing and is counted
//! once.

use circuit::circuit::Circuit;
use circuit::qasm::to_qasm3;
use service::{Op, Request, Response, RunRequest, Service, ServiceConfig, ServiceHandle};
use shard::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

fn bell_qasm() -> String {
    let mut c = Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    to_qasm3(&c)
}

fn request_once(addr: SocketAddr, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(request.to_line().as_bytes())
        .expect("send");
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("recv") > 0);
    Response::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn spawn_instrumented_workers(n: usize) -> (Vec<ServiceHandle>, Vec<String>) {
    let handles: Vec<ServiceHandle> = (0..n)
        .map(|_| {
            Service::spawn(ServiceConfig {
                workers: 2,
                slice_shots: 64,
                metrics: Some(obs::Registry::default()),
                ..ServiceConfig::default()
            })
            .expect("spawn worker")
        })
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

fn spawn_coordinator(workers: Vec<String>) -> CoordinatorHandle {
    Coordinator::spawn(CoordinatorConfig {
        workers,
        metrics: Some(obs::Registry::default()),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator")
}

#[test]
fn coordinator_metrics_merge_worker_snapshots_topology_wide() {
    let (workers, addrs) = spawn_instrumented_workers(2);
    let coord = spawn_coordinator(addrs);

    // One sharded job: the coordinator scatters sub-ranges, so each
    // worker executes and the dispatch histograms fill in.
    let run = Request::run(None, RunRequest::new(bell_qasm(), 1_000, 9, "auto"));
    match request_once(coord.addr(), &run) {
        Response::Ok { shots, .. } => assert_eq!(shots, 1_000),
        other => panic!("expected ok, got {other:?}"),
    }

    // A worker's own metrics op serves its local snapshot (the second
    // topology of three; standalone is covered in the service tests).
    let worker_metrics = request_once(
        workers[0].addr(),
        &Request {
            id: None,
            op: Op::Metrics,
        },
    );
    let Response::Metrics { snapshot, .. } = worker_metrics else {
        panic!("expected metrics from worker, got {worker_metrics:?}");
    };
    assert!(
        snapshot.histo("stage.parse").is_some_and(|h| h.count > 0),
        "worker parsed its sub-request"
    );

    // The coordinator's answer is the merged, topology-wide view.
    let response = request_once(
        coord.addr(),
        &Request {
            id: Some("m".into()),
            op: Op::Metrics,
        },
    );
    let Response::Metrics { id, snapshot } = response else {
        panic!("expected metrics from coordinator, got {response:?}");
    };
    assert_eq!(id.as_deref(), Some("m"));

    // stage.execute only ever runs on workers: its presence proves the
    // worker snapshots were fetched and merged. 1000 shots over two
    // workers in 64-shot slices is at least 15 slice executions.
    let execute = snapshot
        .histo("stage.execute")
        .expect("worker stage.execute merged into the coordinator snapshot");
    assert!(execute.count >= 15, "got {}", execute.count);
    // Both workers ran, so the merged parse count exceeds any single
    // process's: coordinator (1 admission) + 2 workers (1 sub-range
    // each).
    let parse = snapshot.histo("stage.parse").expect("stage.parse");
    assert!(parse.count >= 3, "got {}", parse.count);
    // The coordinator's own shard-layer surfaces.
    let dispatch = snapshot.histo("shard.dispatch").expect("shard.dispatch");
    assert!(dispatch.count >= 2, "one dispatch per sub-range");
    // Sub-range scheduling may land both ranges on one worker if the
    // first completes before the second acquires, so only the lower
    // bound is deterministic.
    let per_worker = snapshot
        .histos
        .iter()
        .filter(|(name, _)| name.starts_with("shard.worker."))
        .count();
    assert!(
        (1..=2).contains(&per_worker),
        "per-worker dispatch histograms: {per_worker}"
    );
    assert!(snapshot.histo("stage.merge").is_some_and(|h| h.count > 0));
    // Workers each completed a sub-range; their counters add.
    assert!(snapshot.counter("sched.completed") >= Some(2));

    // The direct (non-wire) accessor agrees on the merged shape.
    let direct = coord.metrics_snapshot();
    assert!(direct.histo("stage.execute").is_some());

    coord.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

/// Each counter field of `ServiceStats`, in wire order, with the
/// coordinator's registry counter it reads.
const COUNTERS: [(&str, &str); 9] = [
    ("received", "shard.sched.received"),
    ("completed", "shard.sched.completed"),
    ("cache_hits", "shard.cache.hits"),
    ("cache_misses", "shard.cache.misses"),
    ("coalesced", "shard.sched.coalesced"),
    ("rejected_busy", "shard.sched.rejected_busy"),
    ("rejected_quota", "shard.sched.rejected_quota"),
    ("rejected_rate", "shard.sched.rejected_rate"),
    ("errors", "shard.sched.errors"),
];

/// Sends one raw line and returns the decoded reply.
fn send_line(addr: SocketAddr, line: &str) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream).write_all(line.as_bytes()).expect("send");
    let mut reply = String::new();
    assert!(reader.read_line(&mut reply).expect("recv") > 0);
    Response::from_line(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"))
}

#[test]
fn coordinator_stats_counters_are_its_registry_counters() {
    let worker = Service::spawn(ServiceConfig::default()).expect("spawn worker");
    let spawn = |queue_capacity: usize| {
        let registry = obs::Registry::default();
        let handle = Coordinator::spawn(CoordinatorConfig {
            workers: vec![worker.addr().to_string()],
            queue_capacity,
            metrics: Some(registry.clone()),
            ..CoordinatorConfig::default()
        })
        .expect("spawn coordinator");
        (handle, registry)
    };
    let run = |shots: u64| Request::run(None, RunRequest::new(bell_qasm(), shots, 5, "auto"));
    let (coord, registry) = spawn(32);
    assert!(matches!(
        request_once(coord.addr(), &run(200)),
        Response::Ok { cached: false, .. }
    ));
    assert!(matches!(
        request_once(coord.addr(), &run(200)),
        Response::Ok { cached: true, .. }
    ));
    assert!(matches!(
        request_once(coord.addr(), &run(0)),
        Response::Ok { shots: 0, .. }
    ));
    let bad = Request::run(None, RunRequest::new("not qasm", 10, 1, "auto"));
    assert!(matches!(
        request_once(coord.addr(), &bad),
        Response::Error { .. }
    ));
    assert!(matches!(
        send_line(coord.addr(), "not json\n"),
        Response::Error { .. }
    ));
    let (full, full_registry) = spawn(0);
    assert!(matches!(
        request_once(full.addr(), &run(200)),
        Response::Busy { .. }
    ));

    for (handle, registry, reachable) in [
        (
            &coord,
            &registry,
            &[
                "received",
                "completed",
                "cache_hits",
                "cache_misses",
                "errors",
            ][..],
        ),
        (&full, &full_registry, &["received", "rejected_busy"][..]),
    ] {
        let snapshot = registry.snapshot();
        for ((field, value), (expected, name)) in handle.stats().fields().into_iter().zip(COUNTERS)
        {
            assert_eq!(field, expected, "wire order");
            assert_eq!(reachable.contains(&field), value > 0, "{field} = {value}");
            assert_eq!(snapshot.counter(name), Some(value), "{field} vs {name}");
        }
    }
    coord.shutdown();
    full.shutdown();
    worker.shutdown();
}

#[test]
fn warm_links_serve_sharded_requests_without_connecting() {
    // Every TCP connect the coordinator makes toward a worker bumps
    // `shard.connects`. Once the heartbeat's control links and one
    // data link per worker are open, requests reuse them.
    let (workers, addrs) = spawn_instrumented_workers(2);
    let registry = obs::Registry::default();
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: addrs,
        metrics: Some(registry.clone()),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    let run = |seed: u64| Request::run(None, RunRequest::new(bell_qasm(), 200, seed, "auto"));
    assert!(matches!(
        request_once(coord.addr(), &run(0)),
        Response::Ok { cached: false, .. }
    ));
    let connects = || registry.snapshot().counter("shard.connects");
    let warm = connects();
    assert!(warm >= Some(4), "two control and two data links: {warm:?}");
    for seed in 1..=100 {
        assert!(matches!(
            request_once(coord.addr(), &run(seed)),
            Response::Ok { cached: false, .. }
        ));
    }
    assert_eq!(connects(), warm, "a warm request connected");
    coord.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn a_repeated_circuit_parses_once_per_process_and_prepares_once_per_worker() {
    let (workers, addrs) = spawn_instrumented_workers(2);
    let registry = obs::Registry::default();
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: addrs,
        metrics: Some(registry.clone()),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    for seed in 0..20 {
        let run = Request::run(None, RunRequest::new(bell_qasm(), 400, seed, "sv"));
        assert!(matches!(
            request_once(coord.addr(), &run),
            Response::Ok { cached: false, .. }
        ));
    }
    // The coordinator parses the client's text once and prepares
    // nothing; each worker receives the canonical text of the parts
    // routed to it and parses and prepares it once. Parts go to the
    // least-loaded worker, so how the 40 parts split between the two
    // depends on timing; their sum does not.
    let coordinator = registry.snapshot();
    assert_eq!(coordinator.counter("shard.admission.parses"), Some(1));
    assert_eq!(coordinator.counter("shard.prepared.misses"), Some(0));
    let mut hits = 0;
    for worker in &workers {
        let snapshot = worker.metrics_snapshot();
        assert_eq!(snapshot.counter("admission.parses"), Some(1));
        assert_eq!(snapshot.counter("prepared.misses"), Some(1));
        hits += snapshot.counter("prepared.hits").unwrap_or(0);
    }
    assert_eq!(hits, 2 * 20 - 2);
    coord.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

/// A run of `shots` Bell shots under seed 4 — the session's one circuit.
fn bell_run(shots: u64) -> Request {
    Request::run(None, RunRequest::new(bell_qasm(), shots, 4, "auto"))
}

#[test]
fn repeats_of_a_known_answer_parse_nothing_on_the_coordinator() {
    let (workers, addrs) = spawn_instrumented_workers(2);
    let registry = obs::Registry::default();
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: addrs,
        metrics: Some(registry.clone()),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    assert!(matches!(
        request_once(coord.addr(), &bell_run(200)),
        Response::Ok { cached: false, .. }
    ));
    for _ in 0..20 {
        assert!(matches!(
            request_once(coord.addr(), &bell_run(200)),
            Response::Ok { cached: true, .. }
        ));
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("shard.admission.parses"), Some(1));
    assert_eq!(snapshot.counter("shard.cache.hits"), Some(20));
    coord.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}

#[test]
fn every_request_of_a_coordinator_wire_session_is_counted_once() {
    let (workers, addrs) = spawn_instrumented_workers(2);
    let registry = obs::Registry::default();
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: addrs,
        metrics: Some(registry.clone()),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
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
    let replies: Vec<Response> = session
        .iter()
        .map(|r| request_once(coord.addr(), r))
        .collect();
    let cached = replies
        .iter()
        .filter(|r| matches!(r, Response::Ok { cached: true, .. }))
        .count();
    let errors = replies
        .iter()
        .filter(|r| matches!(r, Response::Error { .. }))
        .count();
    assert_eq!((cached, errors), (repeats, 2), "{replies:?}");

    // Every reply has arrived, so every count is final. The registry is
    // the coordinator's own: its workers encode their replies too.
    let stats = coord.stats();
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
    coord.shutdown();
    for worker in workers {
        worker.shutdown();
    }
}
