//! Regenerates Fig 9a: distributed GHZ fidelity vs party count with
//! linear fits, r ∈ 4..=12, p2q ∈ {1e-3, 3e-3, 5e-3}.
//!
//! The 27 grid points run one after another on the shared `Executor`,
//! point `i` under `exec.derive(i)` — deterministic for the fixed root
//! seed at any `--threads` setting.

use analysis::ghz_fidelity::{fig9a, fig9a_result};
use bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let shots = scale.pick(100_000, 4_000);
    let exec = bench::bench_executor();
    let parties: Vec<usize> = (4..=12).collect();
    let series = fig9a(&exec, &parties, &[0.001, 0.003, 0.005], shots);
    bench::emit(&fig9a_result(&series));
    for s in &series {
        println!(
            "p2q={}: fidelity ≈ {:.4} + {:.4}·r (R² = {:.3})",
            s.p, s.fit.intercept, s.fit.slope, s.fit.r_squared
        );
    }
}
