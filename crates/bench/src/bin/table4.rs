//! Regenerates Table 4: top-4 residual Pauli errors of the noisy
//! constant-depth Fanout gadget (paper settings: 100 000 shots per grid
//! point, p ∈ {1e-3, 3e-3, 5e-3}, targets ∈ {4, 6, 8}).
//!
//! The 9 grid points run one after another on the shared `Executor`,
//! point `i` under `exec.derive(i)` — deterministic for the fixed root
//! seed at any `--threads` setting.

use analysis::fanout_noise::{table4, table4_result};
use bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let shots = scale.pick(100_000, 5_000);
    let exec = bench::bench_executor();
    let rows = table4(&exec, &[0.001, 0.003, 0.005], &[4, 6, 8], shots);
    bench::emit(&table4_result(&rows));
}
