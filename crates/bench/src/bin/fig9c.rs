//! Regenerates Fig 9c: overall COMPAS fidelity estimate
//! (1 − p_GHZ)·(1 − p_CSWAP)^(k−1) vs state width, k ∈ {8, 12}.

use analysis::overall::{fig9c, fig9c_result};
use bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let characterize_shots = scale.pick(50_000, 3_000);
    let shots_per_input = scale.pick(100, 10);
    let exec = bench::bench_executor();
    let widths: Vec<usize> = (2..=10).collect();
    let series = fig9c(
        &exec,
        &widths,
        &[8, 12],
        &[0.001, 0.003, 0.005],
        characterize_shots,
        shots_per_input,
    );
    bench::emit(&fig9c_result(&series));
}
