//! End-to-end disk persistence: a server restarted onto the same cache
//! directory answers previously-computed requests from disk — without
//! re-executing — and tolerates corrupted spill files.

use circuit::circuit::Circuit;
use circuit::qasm::to_qasm3;
use engine::{Counts, Engine};
use service::{
    DiskCacheConfig, Request, Response, RunRequest, Scheduler, SchedulerConfig, Service,
    ServiceConfig, Submission,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "compas-e2e-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bell_run(shots: u64, seed: u64) -> RunRequest {
    let mut c = Circuit::new(2, 2);
    c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
    RunRequest::new(to_qasm3(&c), shots, seed, "auto")
}

fn spawn_with_dir(dir: &TempDir, workers: usize) -> service::ServiceHandle {
    Service::spawn(ServiceConfig {
        workers,
        cache_dir: Some(dir.0.clone()),
        ..ServiceConfig::default()
    })
    .expect("spawn service")
}

fn round_trip(addr: std::net::SocketAddr, request: &Request) -> Response {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writer
        .write_all(request.to_line().as_bytes())
        .expect("send");
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("recv");
    assert!(n > 0, "server closed the connection");
    Response::from_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

fn ok_tallies(response: Response) -> (bool, Counts) {
    match response {
        Response::Ok {
            cached, tallies, ..
        } => (cached, tallies),
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn a_restarted_server_serves_warm_from_disk_without_reexecuting() {
    let dir = TempDir::new("warm");
    let request = Request::run(Some("r".into()), bell_run(400, 11));

    // Cold pass: compute, which write-through persists to disk.
    let first = spawn_with_dir(&dir, 2);
    let (cached, cold_tallies) = ok_tallies(round_trip(first.addr(), &request));
    assert!(!cached, "first execution cannot be a cache hit");
    assert_eq!(first.stats().cache_disk_entries, 1);
    first.shutdown();

    // Restart on the same directory with workers: 0 — a server that
    // CANNOT execute. Only a disk hit can answer, so an `ok` response
    // proves the result was served without re-execution.
    let second = spawn_with_dir(&dir, 0);
    let (cached, warm_tallies) = ok_tallies(round_trip(second.addr(), &request));
    assert!(cached, "restarted server must answer from the disk cache");
    assert_eq!(
        warm_tallies, cold_tallies,
        "disk round trip changed the tallies"
    );
    let stats = second.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.completed, 0, "no job may have executed");
    second.shutdown();
}

#[test]
fn corrupted_spill_files_degrade_to_a_recompute_not_a_crash() {
    let dir = TempDir::new("corrupt");
    let request = Request::run(None, bell_run(300, 5));

    let first = spawn_with_dir(&dir, 2);
    let (_, cold_tallies) = ok_tallies(round_trip(first.addr(), &request));
    first.shutdown();

    // Vandalise every spill file.
    for entry in std::fs::read_dir(&dir.0).expect("read dir") {
        let path = entry.expect("entry").path();
        std::fs::write(&path, b"{ truncated garbag").expect("corrupt");
    }

    // The restarted server must still serve the request — recomputed,
    // not from the (now unreadable) disk entry — with identical bytes.
    let second = spawn_with_dir(&dir, 2);
    let (cached, tallies) = ok_tallies(round_trip(second.addr(), &request));
    assert!(!cached, "a corrupt spill file must not satisfy the lookup");
    assert_eq!(
        tallies, cold_tallies,
        "recompute diverged from the cold run"
    );
    second.shutdown();
}

#[test]
fn evictions_by_disk_promotion_are_counted_without_a_completion() {
    let dir = TempDir::new("promote");
    let scheduler = |capacity: usize, metrics: Option<obs::Registry>| {
        Scheduler::new(SchedulerConfig {
            cache_capacity: capacity,
            metrics,
            disk: Some(DiskCacheConfig::new(&dir.0)),
            ..SchedulerConfig::default()
        })
    };
    let runs = [bell_run(100, 1), bell_run(100, 2)];
    let first = scheduler(2, None);
    let engine = Engine::sequential();
    for run in &runs {
        let Submission::Pending(rx) = first.submit(None, run) else {
            panic!("a cold run waits for execution");
        };
        while first.stats().in_flight > 0 {
            let task = first.next_slice().expect("work pending");
            let counts = task.prepared.run_range(&engine, task.range.clone());
            first.complete_slice(&task.key, counts);
        }
        assert!(matches!(rx.recv().unwrap(), Response::Ok { .. }));
    }

    // Restarted with room for one entry: the second disk hit's
    // promotion evicts the first.
    let registry = obs::Registry::default();
    let second = scheduler(1, Some(registry.clone()));
    for run in &runs {
        assert!(matches!(
            second.submit(None, run),
            Submission::Immediate(Response::Ok { cached: true, .. })
        ));
    }
    let stats = second.stats();
    assert_eq!(stats.completed, 0, "no job may have executed");
    assert_eq!((stats.cache_entries, stats.cache_disk_entries), (1, 2));
    assert_eq!(registry.snapshot().counter("cache.evictions"), Some(1));
}

#[test]
fn distinct_requests_get_distinct_disk_entries_across_restarts() {
    let dir = TempDir::new("multi");
    let requests: Vec<Request> = (0..3)
        .map(|seed| Request::run(None, bell_run(200 + seed, seed)))
        .collect();

    let first = spawn_with_dir(&dir, 2);
    let cold: Vec<Counts> = requests
        .iter()
        .map(|r| ok_tallies(round_trip(first.addr(), r)).1)
        .collect();
    assert_eq!(first.stats().cache_disk_entries, 3);
    first.shutdown();

    let second = spawn_with_dir(&dir, 0);
    for (request, cold_tallies) in requests.iter().zip(&cold) {
        let (cached, tallies) = ok_tallies(round_trip(second.addr(), request));
        assert!(cached);
        assert_eq!(&tallies, cold_tallies);
    }
    second.shutdown();
}
