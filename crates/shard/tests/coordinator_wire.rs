//! Wire-level behaviour of a live coordinator: the framing and error
//! edges `service`'s `wire_protocol` suite asserts for a server, plus
//! the `shutdown` forward to the workers. Both roles share one front
//! end, so a client must not be able to tell them apart on these edges
//! either.

use circuit::circuit::Circuit;
use circuit::qasm::to_qasm3;
use service::{Op, Request, Response, RunRequest, Service, ServiceConfig, ServiceHandle};
use shard::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A line-oriented test client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "coordinator closed the connection unexpectedly");
        Response::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
    }

    fn round_trip(&mut self, request: &Request) -> Response {
        self.send_raw(&request.to_line());
        self.recv()
    }
}

fn bell_run(shots: u64, seed: u64) -> RunRequest {
    let mut c = Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    RunRequest::new(to_qasm3(&c), shots, seed, "auto")
}

/// A coordinator over one single-machine worker.
fn spawn_topology() -> (CoordinatorHandle, ServiceHandle) {
    let worker = Service::spawn(ServiceConfig::default()).expect("spawn worker");
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: vec![worker.addr().to_string()],
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    (coord, worker)
}

#[test]
fn malformed_lines_get_error_responses_and_the_connection_survives() {
    let (coord, worker) = spawn_topology();
    let mut client = Client::connect(coord.addr());
    for bad in [
        "this is not json\n",
        "[1, 2, 3]\n",
        "{\"op\": \"run\"}\n",
        "{\"qasm\": \"nope\", \"shots\": 1, \"root_seed\": 0}\n",
        "{\"qasm\": \"x\", \"shots\": 1, \"root_seed\": 0, \"backend\": \"qutrit\"}\n",
    ] {
        client.send_raw(bad);
        let response = client.recv();
        assert!(
            matches!(response, Response::Error { .. }),
            "{bad:?} → {response:?}"
        );
    }
    // The connection still serves good requests afterwards.
    let ok = client.round_trip(&Request::run(None, bell_run(50, 1)));
    assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
    let stats = coord.stats();
    assert_eq!(stats.errors, 5);
    assert_eq!(stats.received, 6);
    coord.shutdown();
    worker.shutdown();
}

#[test]
fn blank_lines_are_ignored() {
    let (coord, worker) = spawn_topology();
    let mut client = Client::connect(coord.addr());
    client.send_raw("\n  \n");
    let ok = client.round_trip(&Request::run(None, bell_run(10, 0)));
    assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
    assert_eq!(coord.stats().received, 1, "blank lines are not requests");
    coord.shutdown();
    worker.shutdown();
}

#[test]
fn oversized_request_lines_get_an_error_and_the_connection_closes() {
    let (coord, worker) = spawn_topology();
    let mut client = Client::connect(coord.addr());
    // 9 MB of garbage with no newline: the coordinator must cut us off
    // after MAX_LINE_BYTES rather than buffering forever.
    let chunk = vec![b'x'; 1 << 20];
    for _ in 0..9 {
        if client.writer.write_all(&chunk).is_err() {
            break; // already hung up — also acceptable
        }
    }
    let _ = client.writer.flush();
    // Either the error line arrives first or the reset beats it; after
    // it, the connection is closed.
    let mut line = String::new();
    if let Ok(1..) = client.reader.read_line(&mut line) {
        let response = Response::from_line(&line).expect("parse");
        assert!(
            matches!(&response, Response::Error { error, .. } if error.contains("exceeds")),
            "{response:?}"
        );
        line.clear();
        assert!(
            matches!(client.reader.read_line(&mut line), Ok(0) | Err(_)),
            "connection stayed open: {line}"
        );
    }
    assert_eq!(coord.stats().errors, 1, "the oversized line is counted");
    coord.shutdown();
    worker.shutdown();
}

#[test]
fn metrics_op_echoes_its_id() {
    let (coord, worker) = spawn_topology();
    let mut client = Client::connect(coord.addr());
    let response = client.round_trip(&Request {
        id: Some("m-1".into()),
        op: Op::Metrics,
    });
    assert!(
        matches!(&response, Response::Metrics { id: Some(id), .. } if id == "m-1"),
        "{response:?}"
    );
    coord.shutdown();
    worker.shutdown();
}

#[test]
fn shutdown_op_acknowledges_then_stops_the_coordinator() {
    let (coord, worker) = spawn_topology();
    let addr = coord.addr();
    let mut client = Client::connect(addr);
    let bye = client.round_trip(&Request {
        id: Some("bye".into()),
        op: Op::Shutdown,
    });
    assert!(matches!(bye, Response::Bye { id: Some(ref i) } if i == "bye"));
    // join() returns because the wire shutdown stopped every thread.
    coord.join();
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let _ = writer.write_all(Request::run(None, bell_run(10, 0)).to_line().as_bytes());
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "post-shutdown coordinator answered: {line}");
    }
    worker.shutdown();
}

/// A worker stand-in that accepts connections and records every line
/// it receives, but never replies: each round trip to it costs the
/// coordinator its full read timeout.
fn mute_worker() -> (String, Arc<Mutex<Vec<String>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = lines.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let sink = sink.clone();
            std::thread::spawn(move || {
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    sink.lock().expect("stub lines").push(line);
                }
            });
        }
    });
    (addr, lines)
}

#[test]
fn wire_shutdown_answers_at_once_and_the_heartbeat_forwards_it() {
    // Forwarding the shutdown is a round trip per worker. On the
    // reactor thread it would hold back the `bye` (and every other
    // connection) for each unresponsive worker's read timeout.
    let stubs = [mute_worker(), mute_worker()];
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: stubs.iter().map(|(addr, _)| addr.clone()).collect(),
        propagate_shutdown: true,
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    let mut client = Client::connect(coord.addr());
    let started = Instant::now();
    let bye = client.round_trip(&Request {
        id: None,
        op: Op::Shutdown,
    });
    let took = started.elapsed();
    assert!(matches!(bye, Response::Bye { .. }), "{bye:?}");
    assert!(
        took < Duration::from_millis(500),
        "bye took {took:?}: worker round trips ran on the reactor thread"
    );
    coord.join();
    for (addr, lines) in &stubs {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let forwarded = lines.lock().expect("stub lines").iter().any(|line| {
                matches!(
                    Request::from_line(line),
                    Ok(Request {
                        op: Op::Shutdown,
                        ..
                    })
                )
            });
            if forwarded {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "worker {addr} never received the shutdown"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// A worker stand-in that answers `stats` like a healthy worker but
/// replies to every `run` with a one-shot `ok`, whatever range it was
/// sent.
fn short_changing_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone");
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    let Ok(request) = Request::from_line(&line) else {
                        break;
                    };
                    let reply = match request.op {
                        Op::Stats => Response::Stats {
                            id: request.id,
                            stats: Default::default(),
                            workers: Vec::new(),
                            clients: Vec::new(),
                        },
                        Op::Run(_) => Response::Ok {
                            id: request.id,
                            backend: "statevector".to_string(),
                            shots: 1,
                            cached: false,
                            coalesced: false,
                            tallies: [(0, 1)].into_iter().collect(),
                        },
                        _ => break,
                    };
                    if writer.write_all(reply.to_line().as_bytes()).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_reply_for_the_wrong_shot_count_is_redispatched() {
    // The coordinator merges only a reply that answers the range it
    // sent: `shots` equal to the range length, tallies summing to it.
    let healthy = Service::spawn(ServiceConfig::default()).expect("spawn worker");
    let stub = short_changing_worker();
    let coord = Coordinator::spawn(CoordinatorConfig {
        workers: vec![healthy.addr().to_string(), stub.clone()],
        ..CoordinatorConfig::default()
    })
    .expect("spawn coordinator");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !coord.worker_rows().iter().all(|r| r.alive) {
        assert!(Instant::now() < deadline, "{:?}", coord.worker_rows());
        std::thread::sleep(Duration::from_millis(2));
    }
    let request = Request::run(None, bell_run(500, 3));
    let reference = Client::connect(healthy.addr()).round_trip(&request);
    let Response::Ok {
        tallies: expected, ..
    } = reference
    else {
        panic!("reference run failed: {reference:?}");
    };
    let served = Client::connect(coord.addr()).round_trip(&request);
    match served {
        Response::Ok { shots, tallies, .. } => {
            assert_eq!(shots, 500);
            assert_eq!(tallies, expected, "a short-changed part was merged");
        }
        other => panic!("expected ok, got {other:?}"),
    }
    let rows = coord.worker_rows();
    let stub_row = rows.iter().find(|r| r.addr == stub).expect("stub row");
    assert!(stub_row.redispatched >= 1, "{rows:?}");
    coord.shutdown();
    healthy.shutdown();
}
