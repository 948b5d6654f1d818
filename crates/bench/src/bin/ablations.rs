//! Regenerates the design-choice ablations of DESIGN.md: interleaved
//! placement, constant-depth Fanout vs CNOT cascade, qubit reuse, and
//! topology sensitivity.

use analysis::ablations::{
    fanout_ablation, fig2_comparison, ordering_ablation, qubit_reuse_ablation, topology_ablation,
};
use bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let shots = scale.pick(50_000, 4_000);
    let exec = bench::bench_executor();

    bench::emit(&ordering_ablation(&[4, 6, 8, 12, 16], 2));
    bench::emit(&fanout_ablation(&exec, &[4, 8, 16, 32, 64], 0.003, shots));
    bench::emit(&qubit_reuse_ablation(&[4, 6, 8], 2));
    bench::emit(&topology_ablation(6, 2));
    bench::emit(&fig2_comparison(4, &[1, 2, 4, 8]));
    println!(
        "note: depths include the monolithic GHZ-chain preparation (linear in the\n\
         control width); the paper's Fig 2 counts the CSWAP stage alone. The\n\
         distributed protocol prepares its GHZ in constant depth (Fig 4)."
    );
}
