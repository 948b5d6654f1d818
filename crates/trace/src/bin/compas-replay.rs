//! `compas-replay` — verify or sample a recorded `.cst` shot trace.
//!
//! ```text
//! compas-replay --trace FILE --verify [--mode sequential|pooled]
//! compas-replay --trace FILE --against FILE2 --verify
//! compas-replay --trace FILE --sample RATE
//! compas-replay --suite [--sample RATE] [--dir DIR]
//! ```
//!
//! `--verify` re-executes the workload named in the trace header and
//! demands bit-exact agreement per shot (timing excluded); with
//! `--against` it compares two trace files instead. `--sample RATE`
//! replays a stratified RATE-fraction of the shots and predicts the
//! full-run tally with 99% Wilson intervals, printing a SPEC-style
//! table. `--suite` runs the sampled replay over every `.cst` in a
//! directory (default `crates/trace/tests/golden`).
//!
//! Exits 0 when everything verified / every prediction landed inside
//! its interval, 1 otherwise, 2 on usage errors.

use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;
use trace::{
    find, read_trace, sampled_replay, verify_against_run, verify_against_trace, Mode, SampleReport,
};

fn usage() -> ! {
    eprintln!(
        "usage: compas-replay --trace FILE --verify [--mode sequential|pooled]\n\
         \x20  | --trace FILE --against FILE2 --verify\n\
         \x20  | --trace FILE --sample RATE\n\
         \x20  | --suite [--sample RATE] [--dir DIR]"
    );
    exit(2);
}

struct Args {
    trace: Option<PathBuf>,
    against: Option<PathBuf>,
    verify: bool,
    sample: Option<f64>,
    suite: bool,
    dir: PathBuf,
    mode: Mode,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        trace: None,
        against: None,
        verify: false,
        sample: None,
        suite: false,
        dir: PathBuf::from("crates/trace/tests/golden"),
        mode: Mode::Sequential,
    };
    let value = |argv: &[String], i: usize| -> String {
        argv.get(i + 1).cloned().unwrap_or_else(|| usage())
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--trace" => {
                args.trace = Some(PathBuf::from(value(&argv, i)));
                i += 2;
            }
            "--against" => {
                args.against = Some(PathBuf::from(value(&argv, i)));
                i += 2;
            }
            "--verify" => {
                args.verify = true;
                i += 1;
            }
            "--sample" => {
                args.sample = Some(value(&argv, i).parse().unwrap_or_else(|_| usage()));
                i += 2;
            }
            "--suite" => {
                args.suite = true;
                i += 1;
            }
            "--dir" => {
                args.dir = PathBuf::from(value(&argv, i));
                i += 2;
            }
            "--mode" => {
                let mode = Mode::parse(&value(&argv, i)).unwrap_or_else(|| usage());
                if !matches!(mode, Mode::Sequential | Mode::Pooled) {
                    eprintln!("--verify re-executes locally: sequential or pooled only");
                    usage();
                }
                args.mode = mode;
                i += 2;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    args
}

/// Prints the SPEC-style per-outcome prediction table.
fn print_report(name: &str, report: &SampleReport, secs: f64, bytes: usize) {
    println!(
        "== {name}: {}/{} shots sampled (rate {:.3}) ==",
        report.sampled, report.shots, report.rate
    );
    println!(
        "{:>10} {:>9} {:>11} {:>11} {:>11} {:>9} {:>7}",
        "outcome", "sampled", "predicted", "ci-lo", "ci-hi", "actual", "in-ci"
    );
    for o in &report.outcomes {
        println!(
            "{:>#10x} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>9} {:>7}",
            o.outcome,
            o.sampled,
            o.predicted,
            o.lo,
            o.hi,
            o.actual,
            if o.within() { "yes" } else { "NO" }
        );
    }
    let shots_per_sec = report.sampled as f64 / secs.max(1e-9);
    let bytes_per_shot = bytes as f64 / report.shots.max(1) as f64;
    println!(
        "-- {} records verified bit-exact, {:.0} shots/s replay, {:.1} bytes/shot, within-ci: {}",
        report.verified_records,
        shots_per_sec,
        bytes_per_shot,
        report.within_ci()
    );
}

fn sample_one(path: &Path, rate: f64) -> Result<bool, String> {
    let trace = read_trace(path)?;
    let workload = find(&trace.header.workload)
        .ok_or_else(|| format!("unknown workload {:?}", trace.header.workload))?;
    let bytes = trace.encoded_len();
    let start = Instant::now();
    let sampled = sampled_replay(&trace, workload, rate)?;
    let secs = start.elapsed().as_secs_f64();
    print_report(workload.name, &sampled, secs, bytes);
    Ok(sampled.within_ci())
}

fn run() -> Result<bool, String> {
    let args = parse_args();

    if args.suite {
        let rate = args.sample.unwrap_or(0.05);
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&args.dir)
            .map_err(|e| format!("cannot read {}: {e}", args.dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "cst"))
            .collect();
        entries.sort();
        if entries.is_empty() {
            return Err(format!("no .cst traces in {}", args.dir.display()));
        }
        let mut all_ok = true;
        for path in &entries {
            all_ok &= sample_one(path, rate)?;
        }
        return Ok(all_ok);
    }

    let path = args.trace.clone().unwrap_or_else(|| usage());
    let trace = read_trace(&path)?;

    if let Some(rate) = args.sample {
        return sample_one(&path, rate);
    }

    if !args.verify {
        usage();
    }
    match &args.against {
        Some(other) => {
            let candidate = read_trace(other)?;
            let n = verify_against_trace(&trace, &candidate).map_err(|e| e.to_string())?;
            println!(
                "{}: {} records bit-exact against {}",
                path.display(),
                n,
                other.display()
            );
        }
        None => {
            let n = verify_against_run(&trace, args.mode).map_err(|e| e.to_string())?;
            println!(
                "{}: {} records bit-exact under {} re-execution",
                path.display(),
                n,
                args.mode.name()
            );
        }
    }
    Ok(true)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("compas-replay: a prediction fell outside its confidence interval");
            exit(1);
        }
        Err(err) => {
            eprintln!("compas-replay: {err}");
            exit(1);
        }
    }
}
