//! Noise sweep (paper §5): regenerate small versions of the Fig 9
//! analyses from the library API — GHZ fidelity, CSWAP classical
//! fidelity, and the composed protocol estimate.
//!
//! Run with: `cargo run --release --example noise_sweep`
//! (add `-- --threads N` to size the engine; the output is the same).

use analysis::prelude::*;
use compas::cswap::CswapScheme;
use engine::{Engine, Executor};
use rand::SeedableRng;

fn main() {
    // One root context; every sub-experiment runs under a derived child.
    let exec = Executor::pooled(Engine::from_args(), 1);
    let mut children = 0u64;
    let mut child = || {
        children += 1;
        exec.derive(children)
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    println!("GHZ fidelity vs parties (Fig 9a, 20k frame shots):");
    for p in [0.001, 0.005] {
        for r in [4usize, 8, 12] {
            let f = ghz_fidelity_sampled(&child(), r, p, 20_000);
            println!("  p2q = {p}: r = {r:>2} -> F = {f:.4}");
        }
    }

    println!("\nCSWAP classical fidelity vs width (Fig 9b):");
    for scheme in [CswapScheme::Teledata, CswapScheme::Telegate] {
        for n in [1usize, 3, 5] {
            let model = CswapNoiseModel::characterize(&child(), n, 0.003, 20_000);
            let inputs = fig9b_inputs(n, &mut rng);
            let f = cswap_classical_fidelity(&child(), scheme, &model, &inputs, 50);
            println!("  {scheme}: n = {n} -> F = {f:.4}");
        }
    }

    println!("\nOverall estimate (Fig 9c composition):");
    let p_ghz = 1.0 - ghz_fidelity_sampled(&child(), 4, 0.003, 20_000);
    let model = CswapNoiseModel::characterize(&child(), 3, 0.003, 20_000);
    let inputs = fig9b_inputs(3, &mut rng);
    let p_cswap =
        1.0 - cswap_classical_fidelity(&child(), CswapScheme::Teledata, &model, &inputs, 50);
    for k in [8usize, 12] {
        println!(
            "  k = {k:>2}, n = 3: F >= {:.4}",
            overall_fidelity(p_ghz, p_cswap, k)
        );
    }
}
