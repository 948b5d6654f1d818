//! Regenerates Fig 9b: classical fidelity of the two-party CSWAP vs
//! state width, for the teledata and telegate schemes.
//!
//! Each grid point characterises its primitives and evaluates its
//! fidelity under child contexts derived from the shared `Executor` by
//! grid position — deterministic for the fixed root seed at any
//! `--threads` setting.

use analysis::cswap_fidelity::{fig9b, fig9b_result};
use bench::Scale;
use compas::cswap::CswapScheme;

fn main() {
    let scale = Scale::from_args();
    let characterize_shots = scale.pick(50_000, 3_000);
    let shots_per_input = scale.pick(200, 20);
    let exec = bench::bench_executor();
    let widths: Vec<usize> = (1..=5).collect();
    let series = fig9b(
        &exec,
        &widths,
        &[0.001, 0.003, 0.005],
        characterize_shots,
        shots_per_input,
    );
    bench::emit(&fig9b_result(&series));

    // The paper's headline comparison: telegate trails teledata by a
    // fraction of a percent on average.
    let avg = |scheme: CswapScheme| {
        let (sum, count) = series
            .iter()
            .filter(|s| s.scheme == scheme)
            .flat_map(|s| s.points.iter())
            .fold((0.0, 0usize), |(s, c), &(_, f)| (s + f, c + 1));
        sum / count as f64
    };
    let td = avg(CswapScheme::Teledata);
    let tg = avg(CswapScheme::Telegate);
    println!(
        "mean classical fidelity: teledata {td:.4}, telegate {tg:.4} (Δ = {:.2}%)",
        100.0 * (td - tg)
    );
}
