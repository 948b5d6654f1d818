//! The paper's three sampled noise studies — Table 4's Fanout residuals,
//! Fig 9a's distributed-GHZ fidelity and Fig 9b's CSWAP fidelity — pinned
//! bit for bit on small grids under one root seed, on a sequential and on
//! a 3-thread pooled executor. Every number is rendered with `{:?}`,
//! which prints the shortest decimal that round-trips to the same `f64`,
//! so a changed bit anywhere in a cell changes the string.

use analysis::cswap_fidelity::fig9b;
use analysis::fanout_noise::table4;
use analysis::ghz_fidelity::fig9a;
use engine::{Engine, Executor};

const ROOT: u64 = 2024;

fn executors() -> [Executor; 2] {
    [
        Executor::sequential(ROOT),
        Executor::pooled(Engine::with_threads(3), ROOT),
    ]
}

fn table4_cells(exec: &Executor) -> Vec<String> {
    table4(exec, &[0.003, 0.005], &[4, 6], 2_000)
        .iter()
        .map(|row| {
            let top: Vec<String> = row
                .top_errors
                .iter()
                .map(|(pattern, prob)| format!("{pattern}:{prob:?}"))
                .collect();
            format!(
                "p={:?} m={} id={:?} {}",
                row.p,
                row.targets,
                row.identity_probability,
                top.join(" ")
            )
        })
        .collect()
}

fn fig9a_cells(exec: &Executor) -> Vec<String> {
    fig9a(exec, &[4, 6], &[0.003, 0.005], 2_000)
        .iter()
        .map(|s| {
            let points: Vec<String> = s.points.iter().map(|(r, f)| format!("{r}:{f:?}")).collect();
            format!(
                "p={:?} {} slope={:?} intercept={:?}",
                s.p,
                points.join(" "),
                s.fit.slope,
                s.fit.intercept
            )
        })
        .collect()
}

fn fig9b_cells(exec: &Executor) -> Vec<String> {
    fig9b(exec, &[1, 2], &[0.005], 1_000, 10)
        .iter()
        .map(|s| {
            let points: Vec<String> = s.points.iter().map(|(n, f)| format!("{n}:{f:?}")).collect();
            format!(
                "{} p={:?} {} slope={:?}",
                s.scheme,
                s.p,
                points.join(" "),
                s.fit.slope
            )
        })
        .collect()
}

#[test]
fn table4_grid_is_pinned() {
    let want = [
        "p=0.003 m=4 id=0.956 ZIIII:0.0125 IIIIX:0.005 IIXXX:0.0035 ZIXII:0.0025",
        "p=0.005 m=4 id=0.9355 ZIIII:0.0225 IIIIX:0.0055 IIXXX:0.0035 ZIIIX:0.003",
        "p=0.003 m=6 id=0.934 ZIIIIII:0.024 IIXXXXX:0.0045 IIIIXXX:0.0035 IIIIIIX:0.003",
        "p=0.005 m=6 id=0.898 ZIIIIII:0.0335 IIIIIIX:0.0085 IIXXXXX:0.008 ZIXXXXX:0.004",
    ];
    for exec in executors() {
        assert_eq!(table4_cells(&exec), want, "{} thread(s)", exec.threads());
    }
}

#[test]
fn fig9a_grid_is_pinned() {
    let want = [
        "p=0.003 4:0.9645 6:0.944 slope=-0.010250000000000037 intercept=1.0055000000000003",
        "p=0.005 4:0.94 6:0.922 slope=-0.008999999999999952 intercept=0.9759999999999998",
    ];
    for exec in executors() {
        assert_eq!(fig9a_cells(&exec), want, "{} thread(s)", exec.threads());
    }
}

#[test]
fn fig9b_grid_is_pinned() {
    let want = [
        "teledata p=0.005 1:0.9625 2:0.825 slope=-0.13750000000000007",
        "telegate p=0.005 1:0.95 2:0.828125 slope=-0.12187499999999996",
    ];
    for exec in executors() {
        assert_eq!(fig9b_cells(&exec), want, "{} thread(s)", exec.threads());
    }
}
