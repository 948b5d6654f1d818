//! `compas-serve` — the simulation job server, in three roles.
//!
//! ```text
//! # standalone (default): serve and execute locally
//! compas-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!              [--cache N] [--cache-dir DIR] [--cache-disk-bytes N]
//!              [--quota-shots N] [--quota-shots-per-sec N]
//!              [--idle-timeout-ms N] [--slice N]
//!
//! # worker: identical to standalone, named for the sharded topology
//! compas-serve --worker [--addr HOST:PORT] [...]
//!
//! # coordinator: execute nothing, shard over downstream workers
//! compas-serve --coordinator --shards HOST:PORT,HOST:PORT,...
//!              [--addr HOST:PORT] [--queue N] [--cache N]
//!              [--cache-dir DIR] [--cache-disk-bytes N]
//!              [--idle-timeout-ms N] [--heartbeat-ms N]
//!              [--io-timeout-ms N] [--retries N]
//! ```
//!
//! A flag that does not apply to the chosen role is an error (exit 2),
//! never silently ignored: `--workers`, `--slice`, `--quota-shots` and
//! `--quota-shots-per-sec` configure execution, which only standalone
//! and `--worker` do; `--shards`,
//! `--heartbeat-ms`, `--io-timeout-ms` and `--retries` configure a
//! `--coordinator` only.
//!
//! All roles bind the address (default `127.0.0.1:7878`; port `0`
//! picks an ephemeral port), print `compas-serve listening on <addr>`
//! once ready, and serve until a client sends `{"op": "shutdown"}` —
//! which a coordinator forwards to its workers, so one `compas-client
//! --shutdown` tears down the whole topology. Wire protocol:
//! `service::protocol` (including the `shot_range` extension every
//! role accepts). The per-slice engine is sequential (parallelism =
//! `--workers`).
//!
//! `--cache-dir DIR` spills the result cache to disk: a restarted
//! server pointed at the same directory answers previously-computed
//! requests without re-executing. `--quota-shots N` bounds each client
//! identity's in-flight shots and `--quota-shots-per-sec N` its
//! sustained admission rate (token bucket with a one-second burst).
//!
//! Every role serves the `{"op": "metrics"}` wire operation from an
//! always-on observability registry (`obs`): per-stage latency
//! histograms, cache/admission counters, and connection gauges — a
//! coordinator's answer merges in a fresh snapshot from every live
//! worker. Instrumentation never changes served bytes.

use service::{Service, ServiceConfig};
use shard::{Coordinator, CoordinatorConfig};
use std::io::Write as _;
use std::time::Duration;

/// Flags only an executing role (standalone or `--worker`) reads.
const EXECUTOR_FLAGS: &[&str] = &[
    "--workers",
    "--slice",
    "--quota-shots",
    "--quota-shots-per-sec",
];

/// Flags only a `--coordinator` reads.
const COORDINATOR_FLAGS: &[&str] = &["--shards", "--heartbeat-ms", "--io-timeout-ms", "--retries"];

fn usage() -> ! {
    eprintln!(
        "usage: compas-serve [--worker] [--addr HOST:PORT] [--workers N] [--queue N] \
         [--cache N] [--cache-dir DIR] [--cache-disk-bytes N] [--quota-shots N] \
         [--quota-shots-per-sec N] [--idle-timeout-ms N] [--slice N]\n\
         \x20      compas-serve --coordinator --shards A,B,... [--addr HOST:PORT] [--queue N] \
         [--cache N] [--cache-dir DIR] [--cache-disk-bytes N] [--idle-timeout-ms N] \
         [--heartbeat-ms N] [--io-timeout-ms N] [--retries N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServiceConfig {
        addr: "127.0.0.1:7878".to_string(),
        metrics: Some(obs::Registry::default()),
        ..ServiceConfig::default()
    };
    let mut coordinator = CoordinatorConfig {
        propagate_shutdown: true,
        metrics: Some(obs::Registry::default()),
        ..CoordinatorConfig::default()
    };
    let mut role_coordinator = false;
    let mut role_worker = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |args: &[String], i: usize| -> String {
        args.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let number =
        |args: &[String], i: usize| -> u64 { value(args, i).parse().unwrap_or_else(|_| usage()) };
    let mut flags: Vec<&str> = Vec::new();
    while i < args.len() {
        flags.push(&args[i]);
        match args[i].as_str() {
            "--coordinator" => {
                role_coordinator = true;
                i += 1;
            }
            "--worker" => {
                role_worker = true;
                i += 1;
            }
            "--shards" => {
                coordinator.workers = value(&args, i)
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                i += 2;
            }
            "--addr" => {
                config.addr = value(&args, i);
                coordinator.addr = config.addr.clone();
                i += 2;
            }
            "--workers" => {
                config.workers = number(&args, i) as usize;
                i += 2;
            }
            "--queue" => {
                config.queue_capacity = number(&args, i) as usize;
                coordinator.queue_capacity = config.queue_capacity;
                i += 2;
            }
            "--cache" => {
                config.cache_capacity = number(&args, i) as usize;
                coordinator.cache_capacity = config.cache_capacity;
                i += 2;
            }
            "--cache-dir" => {
                let dir = std::path::PathBuf::from(value(&args, i));
                config.cache_dir = Some(dir.clone());
                coordinator.cache_dir = Some(dir);
                i += 2;
            }
            "--cache-disk-bytes" => {
                config.cache_disk_bytes = number(&args, i);
                coordinator.cache_disk_bytes = config.cache_disk_bytes;
                i += 2;
            }
            "--quota-shots" => {
                config.client_quota_shots = number(&args, i);
                i += 2;
            }
            "--quota-shots-per-sec" => {
                config.client_quota_shots_per_sec = number(&args, i);
                i += 2;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout = Duration::from_millis(number(&args, i).max(1));
                coordinator.idle_timeout = config.idle_timeout;
                i += 2;
            }
            "--slice" => {
                config.slice_shots = number(&args, i);
                i += 2;
            }
            "--heartbeat-ms" => {
                coordinator.heartbeat_interval = Duration::from_millis(number(&args, i).max(1));
                i += 2;
            }
            "--io-timeout-ms" => {
                coordinator.io_timeout = Duration::from_millis(number(&args, i).max(1));
                i += 2;
            }
            "--retries" => {
                coordinator.redispatch_limit = number(&args, i) as usize;
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if role_coordinator && role_worker {
        eprintln!("--coordinator and --worker are mutually exclusive");
        usage();
    }
    let (role, foreign) = match (role_coordinator, role_worker) {
        (true, _) => ("--coordinator", EXECUTOR_FLAGS),
        (false, true) => ("--worker", COORDINATOR_FLAGS),
        (false, false) => ("standalone", COORDINATOR_FLAGS),
    };
    if let Some(flag) = flags.iter().find(|flag| foreign.contains(flag)) {
        eprintln!("compas-serve: {flag} does not apply to the {role} role");
        std::process::exit(2);
    }

    if role_coordinator {
        if coordinator.workers.is_empty() {
            eprintln!("--coordinator requires --shards with at least one worker address");
            std::process::exit(2);
        }
        let handle = match Coordinator::spawn(coordinator) {
            Ok(handle) => handle,
            Err(err) => {
                eprintln!("compas-serve: bind failed: {err}");
                std::process::exit(1);
            }
        };
        println!("compas-serve listening on {} (coordinator)", handle.addr());
        let _ = std::io::stdout().flush();
        handle.join();
        println!("compas-serve: shut down cleanly");
        return;
    }

    if config.workers == 0 {
        eprintln!("refusing to serve with 0 workers (jobs would never run)");
        std::process::exit(2);
    }
    let handle = match Service::spawn(config) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("compas-serve: bind failed: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "compas-serve listening on {}{}",
        handle.addr(),
        if role_worker { " (worker)" } else { "" }
    );
    let _ = std::io::stdout().flush();
    handle.join();
    println!("compas-serve: shut down cleanly");
}
