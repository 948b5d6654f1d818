//! The commands that run the benchmark many times: `check` (every
//! workload, both kinds, ~1 s each, every metric printed by name) and
//! `repeat` (N `e2e` runs per workload; median / min / max / spread,
//! and two sets compared against the bounds in `BENCHMARK.json`).
//!
//! Each run is a child process of this executable, so `setup_s` and
//! `peak_rss_mb` mean what they mean for the driver.

use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::metric_row;
use crate::stats;
use jsonlite::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// One child run: exit code and the decoded result line.
struct ChildRun {
    code: i32,
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<String, f64>,
}

fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let code = output.status.code().unwrap_or(-1);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: exit {code} without a result line"))?;
    let doc = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("{workload}: no \"{key}\""))
    };
    let values = field("metrics")?
        .as_obj()
        .ok_or("\"metrics\" is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildRun {
        code,
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        values,
    })
}

/// Names the traced run of `workload` reported as absent (read back
/// from its report file; the result line has to zero-fill them).
fn absent_in_report(workload: &str) -> Vec<String> {
    let path = crate::default_out().join(format!("{workload}.layers.json"));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| {
            Some(
                doc.get("absent")?
                    .as_arr()?
                    .iter()
                    .filter_map(|n| n.as_str().map(str::to_string))
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// `check`: every workload for `seconds`, untraced then traced; prints
/// every metric by name with its unit. Exit code 1 if any run violated
/// a correctness check (or died), 0 otherwise.
pub fn check(seed: u64, seconds: f64) -> Result<i32, String> {
    let mut bad = 0;
    for workload in WORKLOADS {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let run = child_run(workload, seed, seconds, trace)?;
            let kind = if trace { "layers" } else { "e2e" };
            println!(
                "{workload} [{kind}] correct={} attempted={} failed={} exit={}",
                run.correct, run.attempted, run.failed, run.code
            );
            let absent = if trace {
                absent_in_report(workload)
            } else {
                Vec::new()
            };
            for (name, _) in table {
                let value = run
                    .values
                    .get(*name)
                    .copied()
                    .filter(|_| !absent.iter().any(|a| a == name));
                println!("{}", metric_row(name, value));
            }
            if !run.correct || run.code != 0 {
                bad += 1;
            }
        }
    }
    println!(
        "pinned on lib-compas: ledger().bell_pairs() = {}, circuit().depth() = {}",
        crate::workloads::PINNED_BELL_PAIRS,
        crate::workloads::PINNED_DEPTH
    );
    if bad > 0 {
        eprintln!("check: {bad} run(s) incorrect");
    }
    Ok(i32::from(bad > 0))
}

/// `workload → metric → values`, one value per run.
type Sets = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn summarize(values: &[f64]) -> String {
    let median = stats::median(values);
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let spread = if values.len() >= 2 {
        format!("{:.1}%", 100.0 * stats::spread(values))
    } else {
        "n/a".to_string()
    };
    format!(
        "median {median:>12.4}  min {min:>12.4}  max {max:>12.4}  iqr/median {spread:>6}  range/median {:>5.1}%",
        100.0 * (max - min) / median
    )
}

fn print_sets(sets: &Sets) {
    for (workload, metrics) in sets {
        println!("{workload}");
        for (name, _) in END_TO_END {
            if let Some(values) = metrics.get(name) {
                println!("  {name:<16} {}", summarize(values));
            }
        }
    }
}

/// `repeat --runs N --save FILE`: N untraced runs of every workload
/// (seeds `seed`, `seed+1`, …), interleaved so a slow minute on the
/// host touches every workload alike; prints the summary and saves the
/// raw values.
pub fn repeat(runs: u64, seconds: f64, seed: u64, save: &Path) -> Result<i32, String> {
    let mut sets = Sets::new();
    let mut bad = 0;
    for i in 0..runs {
        for workload in WORKLOADS {
            let run = child_run(workload, seed + i, seconds, false)?;
            if !run.correct || run.failed > 0 || run.code != 0 {
                bad += 1;
                eprintln!(
                    "repeat: {workload} seed {}: correct={} failed={} exit={}",
                    seed + i,
                    run.correct,
                    run.failed,
                    run.code
                );
            }
            for (name, value) in run.values {
                sets.entry(workload.to_string())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }
    print_sets(&sets);
    let doc = Json::Obj(
        sets.iter()
            .map(|(workload, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(name, values)| {
                        (
                            name.clone(),
                            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                        )
                    })
                    .collect();
                (workload.clone(), Json::Obj(metrics))
            })
            .collect(),
    );
    std::fs::write(save, doc.to_pretty()).map_err(|e| format!("{}: {e}", save.display()))?;
    Ok(i32::from(bad > 0))
}

fn load_sets(path: &Path) -> Result<Sets, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sets = Sets::new();
    for (workload, metrics) in doc.as_obj().ok_or("a saved set is a JSON object")? {
        for (name, values) in metrics.as_obj().ok_or("metrics are an object")? {
            let values = values
                .as_arr()
                .ok_or("values are an array")?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            sets.entry(workload.clone())
                .or_default()
                .insert(name.clone(), values);
        }
    }
    Ok(sets)
}

/// A metric's regression rule, from `BENCHMARK.json`.
struct Bound {
    higher_is_better: bool,
    bound: f64,
}

fn load_bounds(path: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no \"end_to_end\" array")?
        .iter()
        .map(|row| {
            let text = |key: &str| {
                row.get(key)
                    .and_then(Json::as_str)
                    .ok_or("malformed metric row")
            };
            Ok((
                text("name")?.to_string(),
                Bound {
                    higher_is_better: text("better")? == "higher",
                    bound: row.get("bound").and_then(Json::as_f64).ok_or("no bound")?,
                },
            ))
        })
        .collect()
}

/// The verdict on one (workload, metric) pair of two sets.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// The second median is no worse than the first by more than the
    /// bound, and both sets are steadier than the bound.
    Within,
    /// The second median is worse by more than the bound.
    Regressed,
    /// A set's own spread (IQR / median) exceeds the bound, so the
    /// pair cannot tell a change from noise — unless every run of the
    /// second set reads better than every run of the first.
    Unresolved,
}

/// How much worse `second`'s median is than `first`'s, as a share of
/// `first`'s (negative: better), and the verdict under `bound`.
pub fn judge(first: &[f64], second: &[f64], higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (a, b) = (stats::median(first), stats::median(second));
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    let noisy = [first, second]
        .iter()
        .any(|set| set.len() >= 2 && stats::spread(set) > bound);
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let clean_win = second.iter().all(|&s| first.iter().all(|&f| better(s, f)));
    let verdict = if noisy && !clean_win {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    };
    (worse_by, verdict)
}

/// `repeat --compare FIRST SECOND`: judges every pair against the
/// bounds in `./BENCHMARK.json`. Exit code 1 if any pair regressed.
pub fn compare(first: &Path, second: &Path) -> Result<i32, String> {
    let (a, b) = (load_sets(first)?, load_sets(second)?);
    let bounds = load_bounds(Path::new("BENCHMARK.json"))?;
    println!("first:  {}", first.display());
    print_sets(&a);
    println!("second: {}", second.display());
    print_sets(&b);
    println!("second against first:");
    let mut regressed = 0;
    for (workload, metrics) in &a {
        for (name, _) in END_TO_END {
            let (Some(x), Some(y), Some(rule)) = (
                metrics.get(name),
                b.get(workload).and_then(|m| m.get(name)),
                bounds.get(name),
            ) else {
                continue;
            };
            let (worse_by, verdict) = judge(x, y, rule.higher_is_better, rule.bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "  {workload:<14} {name:<16} worse by {:>6.1}%  bound {:>4.0}%  {verdict:?}",
                100.0 * worse_by,
                100.0 * rule.bound
            );
        }
    }
    Ok(i32::from(regressed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_labels_within_regressed_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        // Throughput fell 20 % against a 10 % bound.
        let (worse, verdict) = judge(&steady, &slower, true, 0.10);
        assert!((worse - 0.20).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // The same numbers as a latency are an improvement.
        assert_eq!(judge(&steady, &slower, false, 0.10).1, Verdict::Within);
        // 3 % worse is inside the bound.
        let slightly = [97.0, 98.0, 96.0, 97.5, 96.5];
        assert_eq!(judge(&steady, &slightly, true, 0.10).1, Verdict::Within);
        // A set wider than the bound cannot resolve a 10 % question…
        let noisy = [70.0, 100.0, 130.0, 85.0, 115.0];
        assert_eq!(judge(&steady, &noisy, true, 0.10).1, Verdict::Unresolved);
        // …unless every run of the second beats every run of the first.
        let noisy_but_faster = [170.0, 200.0, 230.0, 185.0, 215.0];
        assert_eq!(
            judge(&steady, &noisy_but_faster, true, 0.10).1,
            Verdict::Within
        );
    }
}
