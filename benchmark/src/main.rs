//! `compas-benchmark` — the repo's benchmark. Drives the stack through
//! its public API only (`CompasProtocol::estimate`,
//! `Executor::sample_shots`, `Service::spawn`, `Coordinator::spawn`,
//! the newline-JSON wire protocol) and reports five end-to-end metrics
//! on five workloads, plus per-layer metrics and a span trace from a
//! separate traced run. See README.md beside this package.
//!
//! ```text
//! compas-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! compas-benchmark check  [--seed N] [--seconds S]
//! compas-benchmark repeat --runs N [--seconds S] [--seed N] --save FILE
//! compas-benchmark repeat --compare FIRST.json SECOND.json
//! ```

mod gen;
mod host;
mod metrics;
mod pace;
mod probes;
mod repeat;
mod replay;
mod report;
mod run;
mod spans;
mod stats;
mod verify;
mod wire;
mod workloads;

use run::RunArgs;
use std::path::PathBuf;
use std::time::Instant;

/// Default directory for report and trace files: `out/` beside this
/// package's manifest when started through `cargo run` (which exports
/// `CARGO_MANIFEST_DIR`), else `benchmark/out` under the directory the
/// benchmark is started from (the repo root).
fn default_out() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => PathBuf::from(dir).join("out"),
        None => PathBuf::from("benchmark/out"),
    }
}

const USAGE: &str = "usage:
  compas-benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
  compas-benchmark check  [--seed N] [--seconds S]
  compas-benchmark repeat --runs N [--seconds S] [--seed N] --save FILE
  compas-benchmark repeat --compare FIRST.json SECOND.json
workloads: lib-compas, lib-wide-sv, serve-cold, serve-warm, serve-sharded";

/// `--flag value` pairs, in order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, found \"{flag}\""))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} {v}: not a valid value")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

fn run_args(flags: &Flags) -> Result<RunArgs, String> {
    Ok(RunArgs {
        workload: flags.require("workload")?,
        seed: flags.require("seed")?,
        seconds: flags.get("seconds")?.unwrap_or(10.0),
        trace: match flags.get::<u8>("trace")?.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        out: flags.get("out")?.unwrap_or_else(default_out),
    })
}

fn dispatch(args: &[String], started: Instant) -> Result<i32, String> {
    match args.first().map(String::as_str) {
        Some("check") => {
            let flags = Flags::parse(&args[1..])?;
            repeat::check(
                flags.get("seed")?.unwrap_or(1),
                flags.get("seconds")?.unwrap_or(1.0),
            )
        }
        Some("repeat") => {
            if args.get(1).map(String::as_str) == Some("--compare") {
                let [first, second] = &args[2..] else {
                    return Err("repeat --compare takes two files".to_string());
                };
                return repeat::compare(first.as_ref(), second.as_ref());
            }
            let flags = Flags::parse(&args[1..])?;
            repeat::repeat(
                flags.require("runs")?,
                flags.get("seconds")?.unwrap_or(10.0),
                flags.get("seed")?.unwrap_or(1),
                &flags.require::<PathBuf>("save")?,
            )
        }
        Some(_) => {
            let report = run::run(&run_args(&Flags::parse(args)?)?, started)?;
            for problem in &report.problems {
                eprintln!("{}: {problem}", report.workload);
            }
            eprintln!(
                "{} {}: attempted {} failed {} latency samples {}",
                report.workload,
                if report.trace { "layers" } else { "e2e" },
                report.attempted,
                report.failed,
                report.latency_samples
            );
            println!("{}", report.result_line());
            Ok(report.exit_code())
        }
        None => Err(USAGE.to_string()),
    }
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, started) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("compas-benchmark: {message}");
            std::process::exit(2);
        }
    }
}
