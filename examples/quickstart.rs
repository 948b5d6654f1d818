//! Quickstart: estimate tr(ρ₁ρ₂ρ₃) with the COMPAS distributed
//! multi-party SWAP test and compare against the exact value.
//!
//! Run with: `cargo run --release --example quickstart`
//! (add `-- --threads N` to size the engine; the output is the same).

use compas::prelude::*;
use engine::{Engine, Executor};
use qsim::qrand::random_density_matrix;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);

    // Three random single-qubit mixed states, one per QPU.
    let states: Vec<_> = (0..3).map(|_| random_density_matrix(1, &mut rng)).collect();
    let exact = exact_multivariate_trace(&states);

    // Compile the distributed protocol: 3 QPUs on a line, teledata
    // CSWAPs, constant depth, O(nk) Bell pairs.
    let protocol = CompasProtocol::new(3, 1, CswapScheme::Teledata);
    println!(
        "compiled: {} QPUs, circuit depth {}, {} Bell pairs per run",
        protocol.num_parties(),
        protocol.circuit().depth(),
        protocol.ledger().bell_pairs()
    );

    // Shot-based estimation (one X-basis and one Y-basis channel). The
    // executor is the single knob for how shots run: `Executor::sequential(2026)`
    // gives the same numbers on the calling thread alone.
    let estimate = protocol.estimate(&states, 2000, &Executor::pooled(Engine::from_args(), 2026));
    println!(
        "estimated tr(rho1 rho2 rho3) = {:.4} + {:.4}i  (+/- {:.4})",
        estimate.re, estimate.im, estimate.re_std_err
    );
    println!(
        "exact     tr(rho1 rho2 rho3) = {:.4} + {:.4}i",
        exact.re, exact.im
    );
    assert!(
        estimate.is_consistent_with(exact, 5.0),
        "estimate should agree with the exact trace"
    );
    println!("agreement within 5 sigma: OK");
}
