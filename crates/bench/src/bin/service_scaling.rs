//! Serving-layer micro-benchmark: requests/sec through a live
//! `service` instance (in-process, loopback TCP), cold vs warm.
//!
//! The workload is a batch of *distinct* jobs (same noisy GHZ circuit,
//! different root seeds — so every cold request really executes) sent
//! twice over one connection:
//!
//! * **cold** — every request misses the cache and runs shots through
//!   the scheduler's sliced worker pool;
//! * **warm** — the identical batch again: every request must be a
//!   content-addressed cache hit with tallies byte-identical to its
//!   cold twin.
//!
//! Asserts, and re-checks from the emitted JSON in CI's perf guard:
//!
//! * warm requests/sec **strictly faster** than cold (a cache hit must
//!   beat a simulation),
//! * warm-pass cache hit rate is exactly 1.0 (reported as the
//!   `cache_hit_rate` extra field),
//! * cold/warm tallies identical per request, all shots accounted.
//!
//! Two evented-serving rows ride along:
//!
//! * **service-idle-256** — the warm batch again while 256 idle
//!   connections are parked on the reactor; carries a `thread_delta`
//!   extra (process threads gained while holding the sockets — the
//!   perf guard asserts it stays flat, i.e. no thread-per-connection
//!   regression) and an `idle_connections` extra;
//! * **service-restart-warm** — the server is shut down and respawned
//!   onto the same `--cache-dir` spill directory, then serves the
//!   identical batch from disk without executing a single shot. The
//!   perf guard asserts this beats the cold rate.
//!
//! Two observability rows guard the instrumentation bargain: the same
//! distinct-seed cold batch served by an uninstrumented and a fully
//! instrumented (`obs::Registry`) server — rows **service-obs-off** /
//! **service-obs-on**. The response lines must be byte-identical
//! (instrumentation never changes served bytes); the rate ratio is
//! printed and emitted but not gated — on a sub-millisecond cold request
//! two single passes differ by more than any instrumentation costs
//! (−20 % to +22 % in ten `--quick` runs).
//!
//! A third section benches the **sharded topology**: the same batch
//! (explicit statevector backend, heavier shots) served through a
//! `shard` coordinator over 1, 2, and 4 loopback workers — rows
//! `sharded-N` carry requests/sec plus a `redispatched` extra (ranges
//! re-dispatched after worker failure; 0 on a healthy run), and the
//! response lines must be byte-identical across topologies. CI's perf
//! guard asserts sharded-4 is no slower than sharded-1.
//!
//! Results: `results/bench/service_scaling.json`
//! (`BenchReport` schema + `cache_hit_rate`).
//!
//! Run with: `cargo run --release --bin service_scaling [--quick]`

use analysis::table_io::ResultTable;
use bench::{BenchReport, Scale};
use circuit::circuit::Circuit;
use circuit::noise::NoiseModel;
use circuit::qasm::to_qasm3;
use service::{Request, Response, RunRequest, Service, ServiceConfig, ServiceHandle};
use shard::{Coordinator, CoordinatorConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// The served workload: an `r`-qubit GHZ chain under standard
/// depolarizing noise, all qubits measured (the `backend_scaling`
/// shape, shipped as QASM).
fn ghz_workload(r: usize, p: f64) -> Circuit {
    let mut prep = Circuit::new(r, r);
    prep.h(0);
    for q in 1..r {
        prep.cx(q - 1, q);
    }
    let mut noisy = NoiseModel::standard(p).apply(&prep);
    for q in 0..r {
        noisy.measure(q, q);
    }
    noisy
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to in-process service");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn round_trip(&mut self, request: &Request) -> Response {
        self.writer
            .write_all(request.to_line().as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("recv") > 0);
        Response::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
    }
}

/// Sends the whole batch, asserting every response is `ok`, and
/// returns (wall seconds, per-request tallies as response lines).
fn run_pass(
    client: &mut Client,
    qasm: &str,
    shots: u64,
    seeds: std::ops::Range<u64>,
    expect_cached: bool,
) -> (f64, Vec<String>) {
    let t0 = Instant::now();
    let mut lines = Vec::new();
    for seed in seeds {
        let response = client.round_trip(&Request::run(
            None,
            RunRequest::new(qasm.to_string(), shots, seed, "auto"),
        ));
        match &response {
            Response::Ok {
                cached, tallies, ..
            } => {
                assert_eq!(
                    *cached, expect_cached,
                    "seed {seed}: expected cached={expect_cached}"
                );
                assert_eq!(
                    tallies.values().sum::<usize>(),
                    shots as usize,
                    "seed {seed}: shots unaccounted"
                );
            }
            other => panic!("seed {seed}: unexpected response {other:?}"),
        }
        lines.push(response.to_line());
    }
    (t0.elapsed().as_secs_f64(), lines)
}

/// The process's live thread count (`/proc/self/status`); `None` off
/// Linux — the `thread_delta` extra then reports 0.
fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

fn main() {
    let scale = Scale::from_env();
    let requests = scale.pick(100u64, 25u64);
    let shots = scale.pick(20_000u64, 2_000u64);
    let (r, p) = (12usize, 0.002);
    let workers = 2usize;
    let idle_conns = 256usize;
    let qasm = to_qasm3(&ghz_workload(r, p));
    let cache_dir = std::env::temp_dir().join(format!("compas-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let config = ServiceConfig {
        workers,
        cache_capacity: requests as usize + 8,
        cache_dir: Some(cache_dir.clone()),
        slice_shots: 4096,
        max_connections: idle_conns + 16,
        ..ServiceConfig::default()
    };
    let handle = Service::spawn(config.clone()).expect("spawn service");
    let mut client = Client::connect(handle.addr());

    let (cold_secs, cold_lines) = run_pass(&mut client, &qasm, shots, 0..requests, false);
    let hits_before_warm = handle.stats().cache_hits;
    let (warm_secs, warm_lines) = run_pass(&mut client, &qasm, shots, 0..requests, true);
    let stats = handle.stats();

    // ---- idle soak: the warm batch under 256 parked connections ----
    let threads_before = thread_count();
    let idlers: Vec<TcpStream> = (0..idle_conns)
        .map(|_| TcpStream::connect(handle.addr()).expect("idle connect"))
        .collect();
    while handle.gauges().open < idle_conns as u64 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let (idle_secs, _) = run_pass(&mut client, &qasm, shots, 0..requests, true);
    let thread_delta = match (threads_before, thread_count()) {
        (Some(before), Some(after)) => after.saturating_sub(before),
        _ => 0,
    };
    drop(idlers);

    // ---- restart: a fresh process-equivalent serves warm from disk ----
    handle.shutdown();
    let restarted = Service::spawn(config).expect("respawn service");
    let mut client = Client::connect(restarted.addr());
    let (restart_secs, restart_lines) = run_pass(&mut client, &qasm, shots, 0..requests, true);
    assert_eq!(
        restarted.stats().completed,
        0,
        "the restarted server executed shots instead of serving from disk"
    );
    restarted.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Warm responses must be byte-identical to their cold twins
    // (modulo the `cached` flag, which is part of the line — so
    // compare the tallies objects instead).
    for (seed, (cold, warm)) in cold_lines.iter().zip(&warm_lines).enumerate() {
        let tail = |line: &str| {
            line.split_once("\"tallies\"")
                .map(|(_, t)| t.to_string())
                .expect("tallies field present")
        };
        assert_eq!(
            tail(cold),
            tail(warm),
            "seed {seed}: warm tallies diverged from cold"
        );
    }
    for (seed, (cold, restart)) in cold_lines.iter().zip(&restart_lines).enumerate() {
        let tail = |line: &str| {
            line.split_once("\"tallies\"")
                .map(|(_, t)| t.to_string())
                .expect("tallies field present")
        };
        assert_eq!(
            tail(cold),
            tail(restart),
            "seed {seed}: disk-warm tallies diverged from cold"
        );
    }
    let warm_hits = stats.cache_hits - hits_before_warm;
    let hit_rate = warm_hits as f64 / requests as f64;
    assert_eq!(hit_rate, 1.0, "warm pass must be all cache hits: {stats:?}");
    assert_eq!(
        stats.cache_misses, requests,
        "each cold request executes once"
    );

    let cold_rate = requests as f64 / cold_secs;
    let warm_rate = requests as f64 / warm_secs;
    let idle_rate = requests as f64 / idle_secs;
    let restart_rate = requests as f64 / restart_secs;

    // ---- observability overhead: the same cold batch, obs off vs on ----
    //
    // Fresh servers (no disk spill, distinct seed range) so every
    // request executes; the only difference between the passes is the
    // registry. Byte-identity here is the differential guarantee, the
    // two rates feed the <5% perf guard.
    let mut obs_rows: Vec<(&str, f64, Vec<String>)> = Vec::new();
    for (label, metrics) in [
        ("service-obs-off", None),
        ("service-obs-on", Some(obs::Registry::default())),
    ] {
        let handle = Service::spawn(ServiceConfig {
            workers,
            cache_capacity: requests as usize + 8,
            slice_shots: 4096,
            metrics: metrics.clone(),
            ..ServiceConfig::default()
        })
        .expect("spawn service");
        let mut client = Client::connect(handle.addr());
        let (secs, lines) = run_pass(&mut client, &qasm, shots, 5_000..5_000 + requests, false);
        if let Some(registry) = &metrics {
            let snapshot = registry.snapshot();
            let execute = snapshot
                .histo("stage.execute")
                .expect("instrumented server recorded stage.execute");
            assert!(execute.count > 0, "instrumented pass observed nothing");
        }
        handle.shutdown();
        obs_rows.push((label, secs, lines));
    }
    assert_eq!(
        obs_rows[0].2, obs_rows[1].2,
        "instrumentation changed the served bytes"
    );
    let obs_off_rate = requests as f64 / obs_rows[0].1;
    let obs_on_rate = requests as f64 / obs_rows[1].1;

    // ---- sharded topology: coordinator + N workers over loopback ----
    //
    // Explicit statevector backend so simulation (not TCP framing)
    // dominates each request: that is the regime sharding targets, and
    // what the perf guard measures (sharded-4 >= sharded-1). Same
    // seeds for every N, so the response lines must be byte-identical
    // across topologies.
    let shard_requests = scale.pick(12u64, 4u64);
    let shard_shots = scale.pick(30_000u64, 3_000u64);
    let mut sharded = Vec::new(); // (n, secs, redispatched)
    let mut sharded_lines: Vec<Vec<String>> = Vec::new();
    for n in [1usize, 2, 4] {
        let worker_handles: Vec<ServiceHandle> = (0..n)
            .map(|_| {
                Service::spawn(ServiceConfig {
                    workers: 1,
                    slice_shots: 8192,
                    ..ServiceConfig::default()
                })
                .expect("spawn worker")
            })
            .collect();
        let coord = Coordinator::spawn(CoordinatorConfig {
            workers: worker_handles
                .iter()
                .map(|h| h.addr().to_string())
                .collect(),
            cache_capacity: shard_requests as usize + 8,
            ..CoordinatorConfig::default()
        })
        .expect("spawn coordinator");
        let mut client = Client::connect(coord.addr());
        let t0 = Instant::now();
        let mut lines = Vec::new();
        for seed in 1_000..1_000 + shard_requests {
            let response = client.round_trip(&Request::run(
                None,
                RunRequest::new(qasm.to_string(), shard_shots, seed, "sv"),
            ));
            match &response {
                Response::Ok { tallies, .. } => assert_eq!(
                    tallies.values().sum::<usize>(),
                    shard_shots as usize,
                    "sharded-{n} seed {seed}: shots unaccounted"
                ),
                other => panic!("sharded-{n} seed {seed}: unexpected response {other:?}"),
            }
            lines.push(response.to_line());
        }
        let secs = t0.elapsed().as_secs_f64();
        let redispatched: u64 = coord.worker_rows().iter().map(|r| r.redispatched).sum();
        sharded.push((n, secs, redispatched));
        sharded_lines.push(lines);
        coord.shutdown();
        for worker in worker_handles {
            worker.shutdown();
        }
    }
    assert_eq!(
        sharded_lines[0], sharded_lines[1],
        "2-worker sharding changed the served bytes"
    );
    assert_eq!(
        sharded_lines[0], sharded_lines[2],
        "4-worker sharding changed the served bytes"
    );

    let mut table = ResultTable::new(
        "Serving throughput, cold vs warm cache (ghz-12, auto backend)",
        &["pass", "requests", "shots_per_req", "secs", "req_per_sec"],
    );
    table.push_row(vec![
        "cold".into(),
        requests.to_string(),
        shots.to_string(),
        format!("{cold_secs:.3}"),
        format!("{cold_rate:.0}"),
    ]);
    table.push_row(vec![
        "warm".into(),
        requests.to_string(),
        shots.to_string(),
        format!("{warm_secs:.3}"),
        format!("{warm_rate:.0}"),
    ]);
    table.push_row(vec![
        format!("idle-{idle_conns}"),
        requests.to_string(),
        shots.to_string(),
        format!("{idle_secs:.3}"),
        format!("{idle_rate:.0}"),
    ]);
    table.push_row(vec![
        "restart-warm".into(),
        requests.to_string(),
        shots.to_string(),
        format!("{restart_secs:.3}"),
        format!("{restart_rate:.0}"),
    ]);
    for (label, secs, _) in &obs_rows {
        table.push_row(vec![
            (*label).to_string(),
            requests.to_string(),
            shots.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}", requests as f64 / secs),
        ]);
    }
    for (n, secs, _) in &sharded {
        table.push_row(vec![
            format!("sharded-{n}"),
            shard_requests.to_string(),
            shard_shots.to_string(),
            format!("{secs:.3}"),
            format!("{:.1}", shard_requests as f64 / secs),
        ]);
    }
    bench::emit(&table);

    let mut report = BenchReport::new(
        "service_scaling",
        format!("ghz-{r} depolarizing p={p}, {shots} shots/request over loopback TCP"),
        scale == Scale::Quick,
    );
    // `shots` carries the request count for serving suites: the rate
    // column is requests/sec.
    report.push_timing_extra(
        "service-cold",
        "auto",
        "service",
        workers,
        requests as usize,
        cold_secs,
        vec![("sim_shots_per_request".to_string(), shots as f64)],
    );
    report.push_timing_extra(
        "service-warm",
        "auto",
        "service",
        workers,
        requests as usize,
        warm_secs,
        vec![
            ("cache_hit_rate".to_string(), hit_rate),
            ("sim_shots_per_request".to_string(), shots as f64),
        ],
    );
    report.push_timing_extra(
        "service-idle-256",
        "auto",
        "service",
        workers,
        requests as usize,
        idle_secs,
        vec![
            ("idle_connections".to_string(), idle_conns as f64),
            ("thread_delta".to_string(), thread_delta as f64),
            ("sim_shots_per_request".to_string(), shots as f64),
        ],
    );
    report.push_timing_extra(
        "service-restart-warm",
        "auto",
        "service",
        workers,
        requests as usize,
        restart_secs,
        vec![
            ("cache_hit_rate".to_string(), 1.0),
            ("sim_shots_per_request".to_string(), shots as f64),
        ],
    );
    for (label, secs, _) in &obs_rows {
        report.push_timing_extra(
            label,
            "auto",
            "service",
            workers,
            requests as usize,
            *secs,
            vec![("sim_shots_per_request".to_string(), shots as f64)],
        );
    }
    for (n, secs, redispatched) in &sharded {
        report.push_timing_extra(
            &format!("sharded-{n}"),
            "sv",
            "shard",
            *n,
            shard_requests as usize,
            *secs,
            vec![
                ("sim_shots_per_request".to_string(), shard_shots as f64),
                ("redispatched".to_string(), *redispatched as f64),
            ],
        );
    }
    bench::emit_report(&report);

    println!(
        "warm-cache path: {:.1}x the cold request rate ({warm_rate:.0}/s vs {cold_rate:.0}/s)",
        warm_rate / cold_rate
    );
    println!(
        "disk-warm restart: {:.1}x the cold request rate ({restart_rate:.0}/s vs {cold_rate:.0}/s); \
         {idle_conns} idle connections cost {thread_delta} threads",
        restart_rate / cold_rate
    );
    println!(
        "observability overhead: {:.1}% ({obs_on_rate:.0}/s instrumented vs {obs_off_rate:.0}/s bare)",
        100.0 * (1.0 - obs_on_rate / obs_off_rate)
    );
    assert!(
        warm_rate > cold_rate,
        "perf regression: warm-cache serving ({warm_rate:.0} req/s) is not strictly \
         faster than cold ({cold_rate:.0} req/s)"
    );
    assert!(
        restart_rate > cold_rate,
        "perf regression: disk-warm restart serving ({restart_rate:.0} req/s) is not \
         strictly faster than cold execution ({cold_rate:.0} req/s)"
    );
    assert!(
        thread_delta <= 8,
        "thread-per-connection regression: holding {idle_conns} idle sockets grew the \
         process by {thread_delta} threads"
    );
}
