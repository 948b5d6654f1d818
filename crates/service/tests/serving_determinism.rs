//! The serving guarantee, end to end: tallies served over TCP — cold,
//! sliced, coalesced, or cached, under concurrent clients — are
//! **bit-identical** to a direct `Backend::sample_shots` call with the
//! same root seed and backend.
//!
//! Each test runs once per backend in [`BACKENDS`]: the requested
//! backend and the reference are the same, and circuits a backend
//! cannot execute must produce matching *error* responses, not
//! divergent results.

use circuit::circuit::{Circuit, Instruction};
use circuit::qasm::to_qasm3;
use engine::{Backend, Counts, Executor};
use service::{Request, Response, RunRequest, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// The backends every differential test requests in turn. `Auto` routes
/// the Clifford circuits below to the stabilizer, so the statevector
/// serves them only when named.
const BACKENDS: [Backend; 3] = [Backend::Auto, Backend::StateVector, Backend::Stabilizer];

fn bell() -> Circuit {
    let mut c = Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    c
}

fn teleportation() -> Circuit {
    // Mid-circuit measurement, feedback, and reset — the dynamic
    // features the QASM interchange must carry faithfully.
    let mut c = Circuit::new(3, 3);
    c.h(1).cx(1, 2);
    c.cx(0, 1).h(0);
    c.measure(0, 0).measure(1, 1);
    c.cond_x(2, &[1]).cond_z(2, &[0]);
    c.reset(0);
    c.measure(2, 2);
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
    // Non-Clifford: exercises the statevector fallback — and, on the
    // stabilizer, the matching-error contract.
    let mut c = Circuit::new(2, 2);
    c.h(0).t(0).cx(0, 1).measure(0, 0).measure(1, 1);
    c
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

/// The off-line reference the service must reproduce bit-for-bit.
fn reference(circuit: &Circuit, shots: u64, seed: u64, backend: Backend) -> Option<Counts> {
    backend
        .sample_shots(circuit, shots as usize, &Executor::sequential(seed))
        .ok()
}

/// Asserts one served response against the reference (result or
/// matching error).
fn assert_matches_reference(
    response: &Response,
    circuit: &Circuit,
    shots: u64,
    seed: u64,
    backend: Backend,
    context: &str,
) {
    match (reference(circuit, shots, seed, backend), response) {
        (Some(expected), Response::Ok { tallies, .. }) => {
            assert_eq!(
                tallies, &expected,
                "{context}: served tallies diverged from Backend::sample_shots"
            );
        }
        (None, Response::Error { .. }) => {}
        (expected, got) => panic!(
            "{context}: reference {} but server answered {got:?}",
            if expected.is_some() {
                "succeeds"
            } else {
                "errors"
            },
        ),
    }
}

/// Small slices + multiple workers: the serving path exercises
/// multi-slice merging even at modest shot counts.
fn spawn_slicing_service() -> service::ServiceHandle {
    Service::spawn(ServiceConfig {
        workers: 2,
        slice_shots: 64,
        ..ServiceConfig::default()
    })
    .expect("spawn service")
}

#[test]
fn served_tallies_match_direct_sampling_per_workload() {
    for backend in BACKENDS {
        let handle = spawn_slicing_service();
        for (name, circuit, shots, seed) in [
            ("bell", bell(), 1_000u64, 7u64),
            ("teleportation", teleportation(), 700, 21),
            ("noisy-ghz-5", noisy_ghz(5), 900, 3),
            ("magic-state", magic_state(), 500, 40),
        ] {
            let response = request_once(
                handle.addr(),
                &Request::run(None, run_request(&circuit, shots, seed, backend)),
            );
            assert_matches_reference(&response, &circuit, shots, seed, backend, name);
            // The cached replay must serve the same bytes' worth of data.
            let cached = request_once(
                handle.addr(),
                &Request::run(None, run_request(&circuit, shots, seed, backend)),
            );
            match (&response, &cached) {
                (
                    Response::Ok { tallies, .. },
                    Response::Ok {
                        tallies: warm,
                        cached: flag,
                        ..
                    },
                ) => {
                    assert_eq!(warm, tallies, "{name}: cached tallies diverged");
                    assert!(flag, "{name}: second response should come from cache");
                }
                (Response::Error { .. }, Response::Error { .. }) => {}
                (a, b) => panic!("{name}: inconsistent cold/warm pair: {a:?} vs {b:?}"),
            }
        }
        handle.shutdown();
    }
}

#[test]
fn every_request_backend_matches_its_reference() {
    // Explicitly pin each backend on one service, density included:
    // statevector, stabilizer, density, and auto must all serve their
    // own reference tallies or their own typed errors.
    let handle = spawn_slicing_service();
    let circuits = [bell(), teleportation(), magic_state()];
    for backend in [
        Backend::Auto,
        Backend::StateVector,
        Backend::Stabilizer,
        Backend::Density,
    ] {
        for (i, circuit) in circuits.iter().enumerate() {
            let (shots, seed) = (400u64, 100 + i as u64);
            let response = request_once(
                handle.addr(),
                &Request::run(None, run_request(circuit, shots, seed, backend)),
            );
            assert_matches_reference(
                &response,
                circuit,
                shots,
                seed,
                backend,
                &format!("backend {backend} circuit {i}"),
            );
        }
    }
    handle.shutdown();
}

#[test]
fn concurrent_overlapping_clients_all_get_reference_tallies() {
    for backend in BACKENDS {
        let handle = spawn_slicing_service();
        let addr = handle.addr();

        // 4 clients × 6 requests over 3 distinct jobs: every job is
        // requested by several clients, so the run exercises coalescing
        // and caching under real concurrency. Per-job shot counts stay
        // distinct from each other to catch key mix-ups.
        let jobs: Vec<(Circuit, u64, u64)> = vec![
            (bell(), 1_200, 5),
            (teleportation(), 800, 6),
            (noisy_ghz(4), 600, 7),
        ];
        let workers: Vec<_> = (0..4)
            .map(|client_idx| {
                let jobs = jobs.clone();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    for round in 0..2 {
                        for (job_idx, (circuit, shots, seed)) in jobs.iter().enumerate() {
                            let request = Request::run(
                                Some(format!("c{client_idx}-r{round}-j{job_idx}")),
                                run_request(circuit, *shots, *seed, backend),
                            );
                            writer
                                .write_all(request.to_line().as_bytes())
                                .expect("send");
                            let mut line = String::new();
                            assert!(reader.read_line(&mut line).expect("recv") > 0);
                            let response = Response::from_line(&line)
                                .unwrap_or_else(|e| panic!("{e}: {line}"));
                            assert_matches_reference(
                                &response,
                                circuit,
                                *shots,
                                *seed,
                                backend,
                                &format!("client {client_idx} round {round} job {job_idx}"),
                            );
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("client thread");
        }

        // Accounting: 4 clients × 2 rounds × 3 jobs = 24 requests over 3
        // unique jobs → at most 3 executions (exactly 3 when the backend
        // supports all circuits); everything else was coalesced or cached.
        let stats = handle.stats();
        let executable = jobs
            .iter()
            .filter(|(c, shots, seed)| reference(c, *shots, *seed, backend).is_some())
            .count() as u64;
        assert_eq!(stats.received, 24);
        assert_eq!(
            stats.cache_misses, executable,
            "each unique job must execute exactly once: {stats:?}"
        );
        assert_eq!(
            stats.cache_hits + stats.coalesced + stats.errors,
            24 - executable,
            "every duplicate must be served without re-execution: {stats:?}"
        );
        assert_eq!(stats.completed, executable);
        handle.shutdown();
    }
}

#[test]
fn slicing_configuration_never_changes_results() {
    // The same job served under wildly different slicing/worker
    // configurations produces byte-identical tally lines. At the
    // default quantum the job is split across however many workers
    // are parked when it arrives (2 and 5 shares here).
    for backend in BACKENDS {
        let circuit = noisy_ghz(5);
        let (shots, seed) = (1_500u64, 99u64);
        let mut lines = Vec::new();
        for (workers, slice) in [
            (1usize, 10_000u64),
            (2, 64),
            (4, 17),
            (2, 4_096),
            (8, 4_096),
        ] {
            let handle = Service::spawn(ServiceConfig {
                workers,
                slice_shots: slice,
                ..ServiceConfig::default()
            })
            .expect("spawn");
            let response = request_once(
                handle.addr(),
                &Request::run(None, run_request(&circuit, shots, seed, backend)),
            );
            let context = format!("{workers} workers, slice {slice}");
            assert_matches_reference(&response, &circuit, shots, seed, backend, &context);
            lines.push(response.to_line());
            handle.shutdown();
        }
        assert_eq!(lines[0], lines[1], "slice size changed the served bytes");
        assert_eq!(lines[0], lines[2], "worker count changed the served bytes");
        assert_eq!(lines[0], lines[3], "splitting changed the served bytes");
        assert_eq!(lines[0], lines[4], "splitting changed the served bytes");
    }
}

#[test]
fn ranged_requests_reassemble_the_full_run_exactly() {
    // The seam the shard coordinator is built on, proven at the wire:
    // partition the global shot range, serve each part as a
    // `shot_range` sub-request, merge the tallies — the result is
    // bit-identical to the unranged run (and to the direct reference).
    for backend in BACKENDS {
        let circuit = noisy_ghz(5);
        let (shots, seed) = (1_200u64, 13u64);
        let handle = spawn_slicing_service();
        let full = request_once(
            handle.addr(),
            &Request::run(None, run_request(&circuit, shots, seed, backend)),
        );
        assert_matches_reference(&full, &circuit, shots, seed, backend, "unranged");
        for parts in [2usize, 3, 5] {
            let mut merged = Counts::new();
            for part in engine::partition_shots(0..shots, parts) {
                let request = RunRequest::new(to_qasm3(&circuit), 0, seed, backend.name())
                    .with_shot_range(part.start, part.end);
                match request_once(handle.addr(), &Request::run(None, request)) {
                    Response::Ok {
                        shots: n, tallies, ..
                    } => {
                        assert_eq!(
                            n,
                            part.end - part.start,
                            "{parts} parts: wrong slice length"
                        );
                        engine::merge_counts(&mut merged, tallies);
                    }
                    Response::Error { .. } if matches!(full, Response::Error { .. }) => {}
                    other => panic!("{parts} parts: unexpected response {other:?}"),
                }
            }
            if let Response::Ok { tallies, .. } = &full {
                assert_eq!(
                    &merged, tallies,
                    "{parts} ranged parts did not reassemble the unranged run"
                );
            }
        }
        handle.shutdown();
    }
}

#[test]
fn a_full_range_request_shares_the_cache_with_the_unranged_form() {
    // `shot_range: [0, n]` and plain `shots: n` are the same job: the
    // admission key makes the second form a cache hit on the first.
    for backend in BACKENDS {
        let circuit = bell();
        let (shots, seed) = (400u64, 77u64);
        let handle = spawn_slicing_service();
        let cold = request_once(
            handle.addr(),
            &Request::run(None, run_request(&circuit, shots, seed, backend)),
        );
        let ranged =
            RunRequest::new(to_qasm3(&circuit), 0, seed, backend.name()).with_shot_range(0, shots);
        let warm = request_once(handle.addr(), &Request::run(None, ranged));
        match (&cold, &warm) {
            (
                Response::Ok { tallies, .. },
                Response::Ok {
                    tallies: w, cached, ..
                },
            ) => {
                assert!(*cached, "[0, n] must hit the plain-n cache entry");
                assert_eq!(w, tallies);
            }
            (Response::Error { .. }, Response::Error { .. }) => {}
            (a, b) => panic!("inconsistent pair: {a:?} vs {b:?}"),
        }
        handle.shutdown();
    }
}

#[test]
fn mismatched_shot_range_lengths_are_rejected_on_the_wire() {
    let handle = Service::spawn(ServiceConfig::default()).expect("spawn");
    let mut request = run_request(&bell(), 100, 1, Backend::Auto);
    request.shot_range = Some((5, 50)); // length 45, shots says 100
    let response = request_once(handle.addr(), &Request::run(None, request));
    match response {
        Response::Error { error, .. } => {
            assert!(error.contains("length"), "unhelpful error: {error}")
        }
        other => panic!("expected an admission error, got {other:?}"),
    }
    handle.shutdown();
}
