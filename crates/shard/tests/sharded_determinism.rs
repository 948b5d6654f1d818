//! The sharding guarantee, end to end: tallies served through
//! coordinator + N workers are **bit-identical** to a direct
//! `Backend::sample_shots` call with the same root seed — for
//! N ∈ {1, 2, 4}, and across worker failure with range re-dispatch
//! (a hung worker timing out, a worker killed mid-job).
//!
//! The differential suite requests each backend in [`BACKENDS`] in
//! turn (with matching-error responses for circuits a backend cannot
//! run), so every backend proves its own sharded determinism.

use circuit::circuit::{Circuit, Instruction};
use circuit::qasm::to_qasm3;
use engine::{Backend, Counts, Executor};
use service::{Request, Response, RunRequest, Service, ServiceConfig, ServiceHandle};
use shard::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The backends every differential test requests in turn. `Auto` routes
/// the Clifford circuits below to the stabilizer, so the statevector
/// serves them only when named.
const BACKENDS: [Backend; 3] = [Backend::Auto, Backend::StateVector, Backend::Stabilizer];

fn bell() -> Circuit {
    let mut c = Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    c
}

fn noisy_ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n, n);
    c.h(0);
    for q in 1..n {
        c.cx(q - 1, q);
        c.push(Instruction::Depolarizing {
            qubits: vec![q - 1, q],
            p: 0.02,
        });
    }
    for q in 0..n {
        c.measure(q, q);
    }
    c
}

fn magic_state() -> Circuit {
    // Non-Clifford: on the stabilizer this must yield a
    // coordinator-side admission error, never divergent tallies.
    let mut c = Circuit::new(2, 2);
    c.h(0).t(0).cx(0, 1).measure(0, 0).measure(1, 1);
    c
}

/// Spawns `n` single-machine workers with small slices (so sub-ranges
/// themselves exercise multi-slice merging) and returns their handles
/// and addresses.
fn spawn_workers(n: usize) -> (Vec<ServiceHandle>, Vec<String>) {
    let handles: Vec<ServiceHandle> = (0..n)
        .map(|_| {
            Service::spawn(ServiceConfig {
                workers: 2,
                slice_shots: 64,
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
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator")
}

/// Blocks until the coordinator has probed all `n` workers alive: a
/// worker counts as dead until its first liveness probe, and a request
/// answered before that is partitioned over the probed ones only.
fn await_all_alive(coord: &CoordinatorHandle, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let rows = coord.worker_rows();
        if rows.len() == n && rows.iter().all(|r| r.alive) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "not all {n} workers alive after 5 s: {rows:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One wire round trip on a fresh connection.
fn request_once(addr: SocketAddr, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer
        .write_all(request.to_line().as_bytes())
        .expect("send");
    writer.flush().expect("flush");
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("recv") > 0);
    Response::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn run_request(circuit: &Circuit, shots: u64, seed: u64, backend: Backend) -> RunRequest {
    RunRequest::new(to_qasm3(circuit), shots, seed, backend.name())
}

/// The single-machine reference the sharded path must reproduce
/// bit-for-bit.
fn reference(circuit: &Circuit, shots: u64, seed: u64, backend: Backend) -> Option<Counts> {
    backend
        .sample_shots(circuit, shots as usize, &Executor::sequential(seed))
        .ok()
}

#[test]
fn sharded_tallies_match_direct_sampling_for_1_2_4_workers() {
    for backend in BACKENDS {
        let workloads = [
            ("bell", bell(), 1_100u64, 7u64),
            ("noisy-ghz-5", noisy_ghz(5), 900, 3),
            ("magic-state", magic_state(), 500, 40),
        ];
        for n in [1usize, 2, 4] {
            let (worker_handles, addrs) = spawn_workers(n);
            let coord = spawn_coordinator(addrs);
            await_all_alive(&coord, n);
            for (name, circuit, shots, seed) in &workloads {
                let response = request_once(
                    coord.addr(),
                    &Request::run(None, run_request(circuit, *shots, *seed, backend)),
                );
                match (reference(circuit, *shots, *seed, backend), &response) {
                    (Some(expected), Response::Ok { tallies, .. }) => assert_eq!(
                        tallies, &expected,
                        "{name}/{n} workers: sharded tallies diverged from Backend::sample_shots"
                    ),
                    (None, Response::Error { .. }) => {}
                    (expected, got) => panic!(
                        "{name}/{n} workers: reference {} but coordinator answered {got:?}",
                        if expected.is_some() {
                            "succeeds"
                        } else {
                            "errors"
                        },
                    ),
                }
            }
            // Every worker that exists should have shared the load when
            // the backend executes: with the fair partitioner no worker
            // sits idle across the whole suite.
            if reference(&bell(), 1, 0, backend).is_some() {
                let rows = coord.worker_rows();
                assert_eq!(rows.len(), n);
                assert!(
                    rows.iter().all(|r| r.jobs > 0),
                    "idle worker in {n}-shard run: {rows:?}"
                );
            }
            coord.shutdown();
            for handle in worker_handles {
                handle.shutdown();
            }
        }
    }
}

#[test]
fn served_bytes_are_identical_across_topologies() {
    // The strongest form of the guarantee: the exact response line —
    // not just the decoded tallies — matches between a single-machine
    // server and coordinators over 2 and 4 workers.
    for backend in BACKENDS {
        let circuit = noisy_ghz(4);
        let request = Request::run(
            Some("topo".into()),
            run_request(&circuit, 1_300, 11, backend),
        );
        let single = Service::spawn(ServiceConfig::default()).expect("spawn");
        let mut lines = vec![request_once(single.addr(), &request).to_line()];
        single.shutdown();
        for n in [2usize, 4] {
            let (worker_handles, addrs) = spawn_workers(n);
            let coord = spawn_coordinator(addrs);
            lines.push(request_once(coord.addr(), &request).to_line());
            let redispatched: u64 = coord.worker_rows().iter().map(|r| r.redispatched).sum();
            assert_eq!(redispatched, 0, "healthy {n}-worker run re-dispatched");
            coord.shutdown();
            for handle in worker_handles {
                handle.shutdown();
            }
        }
        assert_eq!(lines[0], lines[1], "2-worker bytes diverged from single");
        assert_eq!(lines[0], lines[2], "4-worker bytes diverged from single");
    }
}

#[test]
fn hung_worker_times_out_and_its_range_is_redispatched() {
    // A worker spawned with 0 execution workers admits ranged jobs but
    // never completes them — while still answering `stats` heartbeats
    // (connection handling is separate from execution). That pins the
    // failure mode deterministically on the dispatch I/O timeout: the
    // coordinator must give up on the hung worker, re-dispatch its
    // range to the survivor, and still serve reference tallies.
    for backend in BACKENDS {
        let healthy = Service::spawn(ServiceConfig {
            workers: 2,
            slice_shots: 64,
            ..ServiceConfig::default()
        })
        .expect("spawn healthy worker");
        let hung = Service::spawn(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        })
        .expect("spawn hung worker");
        let hung_addr = hung.addr().to_string();
        let coord = Coordinator::spawn(CoordinatorConfig {
            workers: vec![healthy.addr().to_string(), hung_addr.clone()],
            io_timeout: Duration::from_millis(400),
            redispatch_limit: 3,
            ..CoordinatorConfig::default()
        })
        .expect("spawn coordinator");

        let circuit = bell();
        let (shots, seed) = (1_000u64, 21u64);
        let response = request_once(
            coord.addr(),
            &Request::run(None, run_request(&circuit, shots, seed, backend)),
        );
        match (reference(&circuit, shots, seed, backend), &response) {
            (Some(expected), Response::Ok { tallies, .. }) => {
                assert_eq!(
                    tallies, &expected,
                    "tallies diverged despite hung-worker re-dispatch"
                );
                // The lost range must be booked against the hung worker.
                let rows = coord.worker_rows();
                let hung_row = rows
                    .iter()
                    .find(|r| r.addr == hung_addr)
                    .expect("hung worker row");
                assert!(
                    hung_row.redispatched >= 1,
                    "hung worker lost no range: {rows:?}"
                );
            }
            (None, Response::Error { .. }) => {}
            (expected, got) => panic!(
                "reference {} but coordinator answered {got:?}",
                if expected.is_some() {
                    "succeeds"
                } else {
                    "errors"
                },
            ),
        }
        coord.shutdown();
        healthy.shutdown();
        hung.shutdown();
    }
}

#[test]
fn worker_killed_mid_job_still_yields_reference_tallies() {
    // Real worker death: one of two workers is shut down while a heavy
    // job is in flight. Whatever the kill interrupts — connection,
    // admitted range, nothing at all — the client's tallies must be
    // byte-identical to the single-machine reference, because the
    // re-dispatched range re-derives the exact same shot streams.
    let circuit = noisy_ghz(10);
    let (shots, seed) = (40_000u64, 5u64);
    let backend = Backend::StateVector; // heavy on purpose: the job must straddle the kill
    let (mut worker_handles, addrs) = spawn_workers(2);
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: addrs,
        io_timeout: Duration::from_secs(120),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");

    let coord_addr = coord.addr();
    let request = Request::run(None, run_request(&circuit, shots, seed, backend));
    let client = std::thread::spawn(move || request_once(coord_addr, &request));

    // Give the scatter time to land on both workers, then kill one.
    std::thread::sleep(Duration::from_millis(100));
    worker_handles.remove(1).shutdown();

    let response = client.join().expect("client thread");
    let expected = reference(&circuit, shots, seed, backend).expect("reference run");
    match response {
        Response::Ok { tallies, .. } => assert_eq!(
            tallies, expected,
            "tallies diverged after mid-job worker kill"
        ),
        other => panic!("coordinator failed the job after a worker kill: {other:?}"),
    }
    coord.shutdown();
    for handle in worker_handles {
        handle.shutdown();
    }
}

#[test]
fn coordinator_is_observable_and_caches_like_a_server() {
    // The coordinator speaks the full protocol surface: stats carries
    // per-worker rows + cache counters, repeats hit the coordinator
    // cache, and ranged client requests work end to end.
    for backend in BACKENDS {
        let (worker_handles, addrs) = spawn_workers(2);
        let coord = spawn_coordinator(addrs);
        let circuit = bell();
        let request = Request::run(None, run_request(&circuit, 600, 9, backend));
        let cold = request_once(coord.addr(), &request);
        let warm = request_once(coord.addr(), &request);
        let executes = reference(&circuit, 600, 9, backend).is_some();
        if executes {
            match (&cold, &warm) {
                (
                    Response::Ok { tallies, .. },
                    Response::Ok {
                        tallies: w, cached, ..
                    },
                ) => {
                    assert_eq!(w, tallies, "coordinator cache diverged");
                    assert!(*cached, "repeat must be a coordinator cache hit");
                }
                other => panic!("unexpected cold/warm pair {other:?}"),
            }
        }

        // A ranged request straight to the coordinator shards the global
        // indices [100, 700) and must match the worker-side slice.
        let ranged = Request::run(
            None,
            RunRequest::new(to_qasm3(&circuit), 0, 9, backend.name()).with_shot_range(100, 700),
        );
        let ranged_response = request_once(coord.addr(), &ranged);
        if executes {
            let full = reference(&circuit, 700, 9, backend).expect("reference");
            let head = reference(&circuit, 100, 9, backend).expect("reference");
            // full(0..700) − head(0..100) = slice(100..700): subtracting
            // histograms is valid because shot streams are per-index.
            let mut expected = full;
            for (outcome, n) in head {
                let slot = expected.get_mut(&outcome).expect("subset outcome");
                *slot -= n;
                if *slot == 0 {
                    expected.remove(&outcome);
                }
            }
            match &ranged_response {
                Response::Ok { shots, tallies, .. } => {
                    assert_eq!(*shots, 600);
                    assert_eq!(tallies, &expected, "ranged sharding diverged");
                }
                other => panic!("unexpected ranged response {other:?}"),
            }
        }

        let stats_response = request_once(
            coord.addr(),
            &Request {
                id: Some("s".into()),
                op: service::Op::Stats,
            },
        );
        let Response::Stats { stats, workers, .. } = stats_response else {
            panic!("unexpected {stats_response:?}");
        };
        assert_eq!(workers.len(), 2, "one row per worker: {workers:?}");
        assert!(workers.iter().all(|w| w.alive), "{workers:?}");
        if executes {
            assert_eq!(stats.cache_hits, 1, "{stats:?}");
            assert_eq!(stats.cache_misses, 2, "{stats:?}");
            assert_eq!(stats.completed, 2, "{stats:?}");
            assert!(stats.cache_entries >= 1, "{stats:?}");
        }
        coord.shutdown();
        for handle in worker_handles {
            handle.shutdown();
        }
    }
}

#[test]
fn coordinator_stats_count_its_disk_cache_entries() {
    // A coordinator with a spill directory persists each merged result:
    // one completed job is one disk entry, in-process and on the wire.
    let dir = std::env::temp_dir().join(format!("compas-coord-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (worker_handles, addrs) = spawn_workers(1);
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: addrs,
        cache_dir: Some(dir.clone()),
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    await_all_alive(&coord, 1);
    let request = Request::run(None, run_request(&bell(), 300, 5, Backend::Auto));
    assert!(matches!(
        request_once(coord.addr(), &request),
        Response::Ok { .. }
    ));
    assert_eq!(coord.stats().cache_disk_entries, 1, "{:?}", coord.stats());
    let wire = request_once(
        coord.addr(),
        &Request {
            id: None,
            op: service::Op::Stats,
        },
    );
    let Response::Stats { stats, .. } = wire else {
        panic!("unexpected {wire:?}");
    };
    assert_eq!(stats.cache_disk_entries, 1, "{stats:?}");
    coord.shutdown();
    for handle in worker_handles {
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coordinator_with_no_live_workers_answers_errors_not_hangs() {
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: vec!["127.0.0.1:1".to_string()], // nothing listens here
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    let response = request_once(
        coord.addr(),
        &Request::run(None, run_request(&bell(), 100, 1, Backend::Auto)),
    );
    match response {
        Response::Error { error, .. } => assert!(error.contains("no live workers"), "{error}"),
        other => panic!("expected an error, got {other:?}"),
    }
    coord.shutdown();
}

#[test]
fn a_link_the_worker_closed_while_idle_is_reopened_quietly() {
    // The worker closes connections idle for 100 ms. Heartbeats every
    // 50 ms keep the control link busy, but the data link sits idle
    // between the two requests and is closed under the coordinator.
    // Reopening it is neither a death nor a re-dispatch.
    for backend in BACKENDS {
        let worker = Service::spawn(ServiceConfig {
            workers: 2,
            idle_timeout: Duration::from_millis(100),
            ..ServiceConfig::default()
        })
        .expect("spawn worker");
        let registry = obs::Registry::default();
        let coord = Coordinator::spawn(CoordinatorConfig {
            workers: vec![worker.addr().to_string()],
            heartbeat_interval: Duration::from_millis(50),
            metrics: Some(registry.clone()),
            ..CoordinatorConfig::default()
        })
        .expect("spawn coordinator");
        await_all_alive(&coord, 1);
        let circuit = bell();
        let mut connects = Vec::new();
        for seed in [31u64, 32] {
            let response = request_once(
                coord.addr(),
                &Request::run(None, run_request(&circuit, 400, seed, backend)),
            );
            match (reference(&circuit, 400, seed, backend), response) {
                (Some(expected), Response::Ok { tallies, .. }) => assert_eq!(tallies, expected),
                (None, Response::Error { .. }) => {}
                (expected, got) => {
                    panic!("reference {expected:?} but coordinator answered {got:?}")
                }
            }
            connects.push(registry.snapshot().counter("shard.connects"));
            std::thread::sleep(Duration::from_millis(300));
        }
        let rows = coord.worker_rows();
        assert_eq!(rows[0].redispatched, 0, "{rows:?}");
        assert!(rows[0].alive, "{rows:?}");
        if reference(&circuit, 400, 31, backend).is_some() {
            assert!(
                connects[1] > connects[0],
                "the idle-closed data link was not reopened: {connects:?}"
            );
        }
        coord.shutdown();
        worker.shutdown();
    }
}

#[test]
fn a_busy_worker_is_not_a_dead_worker() {
    // A worker with no execution workers holds its range, yet answers
    // `stats` at once on the coordinator's control link: the heartbeat
    // keeps it alive for the whole dispatch. Only the dispatch timeout
    // takes its range away.
    for backend in BACKENDS {
        let healthy = Service::spawn(ServiceConfig::default()).expect("spawn healthy worker");
        let hung = Service::spawn(ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        })
        .expect("spawn hung worker");
        let hung_addr = hung.addr().to_string();
        let coord = Coordinator::spawn(CoordinatorConfig {
            workers: vec![healthy.addr().to_string(), hung_addr.clone()],
            io_timeout: Duration::from_secs(3),
            heartbeat_interval: Duration::from_millis(100),
            ..CoordinatorConfig::default()
        })
        .expect("spawn coordinator");
        await_all_alive(&coord, 2);
        let circuit = bell();
        let (shots, seed) = (1_000u64, 23u64);
        let request = Request::run(None, run_request(&circuit, shots, seed, backend));
        let coord_addr = coord.addr();
        let client = std::thread::spawn(move || request_once(coord_addr, &request));
        let hung_row = || {
            coord
                .worker_rows()
                .into_iter()
                .find(|r| r.addr == hung_addr)
                .expect("hung worker row")
        };
        let expected = reference(&circuit, shots, seed, backend);
        std::thread::sleep(Duration::from_secs(2));
        if expected.is_some() {
            let row = hung_row();
            assert!(row.alive, "a busy worker was declared dead: {row:?}");
            assert!(row.heartbeat_age_ms < 500, "heartbeat stalled: {row:?}");
        }
        let response = client.join().expect("client thread");
        match (expected, response) {
            (Some(expected), Response::Ok { tallies, .. }) => {
                assert_eq!(tallies, expected);
                assert!(hung_row().redispatched >= 1, "{:?}", hung_row());
            }
            (None, Response::Error { .. }) => {}
            (expected, got) => panic!("reference {expected:?} but coordinator answered {got:?}"),
        }
        coord.shutdown();
        healthy.shutdown();
        hung.shutdown();
    }
}
