//! One run of one workload: set-up, the timed closed loop, the
//! out-of-window checks, and — traced runs only — replay and probes.

use crate::host::{self, Watchdog};
use crate::metrics::WORKLOADS;
use crate::pace::Pace;
use crate::replay::{self, Sampled};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{self, Segment, SEGMENTS};
use crate::workloads::{self, LayerCtx, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How often an untraced run sets up (and tears down) the workload:
/// at least `SETUP_REPS_MIN` times, then again while the set-ups so far
/// took less than `SETUP_BUDGET`, up to `SETUP_REPS_MAX` times.
/// `setup_s` is the median, so a slow spawn — or, for the set-ups that
/// take a tenth of a second, a disturbed second — does not decide it.
/// Each set-up draws its root seeds from a lane of its own
/// (`RootSeeds::lane` has 16).
const SETUP_REPS_MIN: u64 = 5;
const SETUP_REPS_MAX: u64 = 16;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// Every `REPLAY_EVERY`-th op of the traced phase is kept for replay,
/// from the fourth on — so a workload that completes only a few dozen
/// ops still replays some.
const REPLAY_EVERY: u64 = 16;
const REPLAY_FIRST: u64 = 3;
/// Op failures quoted verbatim in the report.
const QUOTED_FAILURES: usize = 5;

/// What `--workload … --seed … --seconds … --trace …` asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced (`layers`) run rather than `e2e`.
    pub trace: bool,
    /// Directory for the report and trace files.
    pub out: PathBuf,
}

/// The outcome of a timed closed loop.
struct Phase {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Caller-observed latency of every successful op, nanoseconds.
    latencies_ns: Vec<u64>,
    segments: Vec<Segment>,
    /// The host's slowdown over the phase: median of the pace probes
    /// taken before the first slice and after each one.
    slowdown: f64,
    sampled: Vec<Sampled>,
}

impl Phase {
    /// Throughput at the host's quiet pace: the median over the
    /// slices, times the slowdown.
    fn ops_per_s(&self) -> Option<f64> {
        stats::over_slices(&self.segments, Segment::ops_per_s).map(|raw| raw * self.slowdown)
    }

    /// A per-op time (milliseconds) at the host's quiet pace: the
    /// median over the slices, divided by the slowdown.
    fn ms_per_op(&self, time: fn(&Segment) -> f64) -> Option<f64> {
        stats::over_slices(&self.segments, time).map(|raw| raw / self.slowdown)
    }

    /// Latency percentile in milliseconds.
    fn latency_ms(&self, p: f64) -> Option<f64> {
        let mut sorted: Vec<f64> = self
            .latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect();
        sorted.sort_by(f64::total_cmp);
        (!sorted.is_empty()).then(|| stats::percentile(&sorted, p))
    }
}

/// Runs ops back to back for `seconds`. With `spans`, every op is
/// recorded (`client.op` ⊃ `client.encode`, `client.wire`,
/// `client.decode`, or a bare `lib.op`) and every
/// [`REPLAY_EVERY`]-th one is kept for replay. The pace probe runs
/// before the first slice and after each one, outside all of them.
fn timed_phase(
    workload: &mut dyn Workload,
    pace: &mut Pace,
    seconds: f64,
    clock: &mut Spans,
    record: bool,
) -> Phase {
    let total_ns = (seconds * 1e9) as u64;
    let slice_ns = total_ns / SEGMENTS as u64;
    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        latencies_ns: Vec::new(),
        segments: Vec::with_capacity(SEGMENTS),
        slowdown: 1.0,
        sampled: Vec::new(),
    };
    let root_name = workload.root_span();
    let mut probed = vec![pace.slowdown()];
    let begun = clock.now_ns();
    let (mut closed_at, mut closed_cpu) = (begun, host::process_cpu_ns());
    let mut boundary = slice_ns;
    // Index into `latencies_ns` where the open slice began.
    let mut slice_from = 0usize;
    loop {
        let op = phase.attempted;
        let keep = record && phase.attempted % REPLAY_EVERY == REPLAY_FIRST;
        let start = clock.now_ns();
        let outcome = workload.op(clock, keep);
        let end = clock.now_ns();
        phase.attempted += 1;
        match outcome {
            Ok(phases) => {
                phase.latencies_ns.push(end - start);
                if record {
                    let root = clock.push(root_name, start, end, None, op);
                    let mut explains = root;
                    if let Some(p) = phases {
                        clock.push("client.encode", p.encode.0, p.encode.1, Some(root), op);
                        explains = clock.push("client.wire", p.wire.0, p.wire.1, Some(root), op);
                        clock.push("client.decode", p.decode.0, p.decode.1, Some(root), op);
                    }
                    if keep {
                        phase.sampled.push(Sampled { op, explains });
                    }
                }
            }
            Err(why) => {
                phase.failed += 1;
                if phase.failures.len() < QUOTED_FAILURES {
                    phase.failures.push(format!("op {op} failed: {why}"));
                }
            }
        }
        let elapsed = end - begun;
        if elapsed >= boundary {
            let cpu = host::process_cpu_ns();
            let mut slice: Vec<f64> = phase.latencies_ns[slice_from..]
                .iter()
                .map(|&ns| ns as f64)
                .collect();
            slice.sort_by(f64::total_cmp);
            probed.push(pace.slowdown());
            phase.segments.push(Segment {
                ok_ops: slice.len() as u64,
                wall_ns: end - closed_at,
                cpu_ns: cpu - closed_cpu,
                latency_p50_ns: slice
                    .first()
                    .map_or(0, |_| stats::percentile(&slice, 50.0) as u64),
                slowdown: (probed[probed.len() - 2] + probed[probed.len() - 1]) / 2.0,
            });
            // The next slice begins now, after the probe.
            (closed_at, closed_cpu) = (clock.now_ns(), host::process_cpu_ns());
            slice_from = phase.latencies_ns.len();
            // An op that overran several boundaries closes them all.
            boundary = (elapsed / slice_ns + 1) * slice_ns;
            if elapsed >= total_ns {
                phase.slowdown = stats::median(&probed);
                return phase;
            }
        }
    }
}

fn set(report: &mut Report, name: &'static str, value: Option<f64>) {
    if let Some(value) = value {
        report.metrics.set(name, value);
    }
}

/// Runs `args.workload` once and returns its report. Report and trace
/// files land in `args.out`.
pub fn run(args: &RunArgs, process_started: Instant) -> Result<Report, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload \"{}\" (one of: {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", args.seconds));
    }
    // A run is set-up, the timed phase(s), checks and probes: about
    // `seconds + 15` on this host. Three times that, and never past
    // the driver's own 180 s limit.
    let limit = Duration::from_secs_f64((3.0 * (args.seconds + 15.0)).min(170.0));
    let watchdog = Watchdog::arm(
        limit,
        format!(
            "{} (seed {}, trace {})",
            args.workload, args.seed, args.trace
        ),
    );
    // `serve-warm` executes nothing: its one request in flight is
    // handed from the generator to the reactor, a submitter and back,
    // so its threads never run at the same time and share one CPU
    // (README.md, "Why `serve-warm` runs on one CPU"). Servers spawned
    // from here on inherit the restriction.
    if args.workload == "serve-warm" && host::pin_to_one_cpu().is_none() {
        eprintln!("serve-warm: could not restrict the run to one CPU; expect a wider spread");
    }
    let report = if args.trace {
        traced(args)
    } else {
        untraced(args, process_started)
    };
    watchdog.disarm();
    let report = report?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{}.{kind}.json", args.workload));
    std::fs::write(&path, report.detail_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

fn new_report(args: &RunArgs, phase: &Phase) -> Report {
    Report {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        attempted: phase.attempted,
        failed: phase.failed,
        latency_samples: phase.latencies_ns.len() as u64,
        problems: phase.failures.clone(),
        segments: phase.segments.clone(),
        slowdown: phase.slowdown,
        ..Report::default()
    }
}

fn verify(workload: &mut dyn Workload, report: &mut Report) {
    let mut violations = Vec::new();
    workload.verify(&mut violations);
    report.incorrect |= !violations.is_empty();
    report.problems.extend(violations);
}

/// Kind `e2e`: tracing and the `obs::Registry` off; prints the five
/// end-to-end metrics.
fn untraced(args: &RunArgs, process_started: Instant) -> Result<Report, String> {
    // Set up repeatedly; the first set-up is timed from process start,
    // the others from their own beginning. The last one stays.
    let mut pace = Pace::of(&args.workload);
    let (mut setups, mut setup_slowdowns) = (Vec::new(), Vec::new());
    let mut workload: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS_MAX {
        if rep >= SETUP_REPS_MIN && process_started.elapsed() >= SETUP_BUDGET {
            break;
        }
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let started = if rep == 0 {
            process_started
        } else {
            Instant::now()
        };
        workload = Some(workloads::build(&args.workload, args.seed, rep, false)?);
        setups.push(started.elapsed().as_secs_f64());
        // The pace right after a set-up is the pace it ran at.
        setup_slowdowns.push(pace.slowdown());
    }
    let mut workload = workload.expect("SETUP_REPS_MIN > 0");
    let mut clock = Spans::default();
    let phase = timed_phase(
        workload.as_mut(),
        &mut pace,
        args.seconds,
        &mut clock,
        false,
    );
    let peak_rss = host::peak_rss_mib();

    let mut report = new_report(args, &phase);
    verify(workload.as_mut(), &mut report);
    workload.teardown();
    report.metrics.set(
        "setup_s",
        stats::median(&setups) / stats::median(&setup_slowdowns),
    );
    set(&mut report, "ops_per_s", phase.ops_per_s());
    set(
        &mut report,
        "latency_p50_ms",
        phase.ms_per_op(Segment::latency_p50_ms),
    );
    set(
        &mut report,
        "cpu_ms_per_op",
        phase.ms_per_op(Segment::cpu_ms_per_op),
    );
    report.metrics.set("peak_rss_mb", peak_rss);
    Ok(report)
}

/// Kind `layers`: a short untraced phase for the overhead baseline,
/// then the traced phase — same seed and length as `e2e`, the
/// registry on, every op recorded — then replay and probes.
fn traced(args: &RunArgs) -> Result<Report, String> {
    let copy_before = host::copy_gbps();
    let spin_before = host::spin_ms();

    let mut baseline = workloads::build(&args.workload, args.seed, 0, false)?;
    let mut clock = Spans::default();
    let mut pace = Pace::of(&args.workload);
    let plain = timed_phase(
        baseline.as_mut(),
        &mut pace,
        args.seconds / 2.0,
        &mut clock,
        false,
    );
    baseline.teardown();

    let mut workload = workloads::build(&args.workload, args.seed, 1, true)?;
    let phase = timed_phase(workload.as_mut(), &mut pace, args.seconds, &mut clock, true);

    let mut report = new_report(args, &phase);
    report.failed += plain.failed;
    report.attempted += plain.attempted;
    report.problems.extend(plain.failures.iter().cloned());
    let p50_ms = phase.latency_ms(50.0);
    // The client rows are wall-clock times over the whole traced phase,
    // uncorrected: what a caller saw, slow stretches included.
    set(&mut report, "client.latency_p50_ms", p50_ms);
    set(&mut report, "client.latency_p90_ms", phase.latency_ms(90.0));
    set(&mut report, "client.latency_p99_ms", phase.latency_ms(99.0));
    for (metric, name) in [
        ("client.encode_us", "client.encode"),
        ("client.decode_us", "client.decode"),
    ] {
        let us: Vec<f64> = clock
            .all()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        if !us.is_empty() {
            report.metrics.set(metric, stats::median(&us));
        }
    }

    let host_gbps = (copy_before + host::copy_gbps()) / 2.0;
    workload.layers(LayerCtx {
        spans: &mut clock,
        sampled: &phase.sampled,
        metrics: &mut report.metrics,
        host_gbps,
        latency_p50_ms: p50_ms.unwrap_or(f64::NAN),
    });
    verify(workload.as_mut(), &mut report);
    if let Some(shutdown) = workload.teardown() {
        report
            .metrics
            .set("service.server.shutdown_ms", shutdown.as_secs_f64() * 1e3);
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.metrics.set("host.cores", cores as f64);
    report.metrics.set("host.copy_gbps", host_gbps);
    report.metrics.set("host.slowdown", phase.slowdown);
    report
        .metrics
        .set("host.spin_ms", (spin_before + host::spin_ms()) / 2.0);

    report.metrics.set("trace.spans", clock.len() as f64);
    if let (Some(traced), Some(plain)) = (phase.ops_per_s(), plain.ops_per_s()) {
        report
            .metrics
            .set("trace.overhead_share", 1.0 - traced / plain);
    }
    if let Some((share, unaccounted_us)) = replay::account(&clock, &phase.sampled) {
        report.metrics.set("trace.accounted_share", share);
        report.metrics.set("trace.unaccounted_us", unaccounted_us);
    }

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!("{}.trace.json", args.workload));
    std::fs::write(&path, clock.to_json(&args.workload, args.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}
