//! Rényi-entropy estimation (paper §6.1): S_m(ρ) = log tr(ρᵐ)/(1−m)
//! from m-party SWAP tests, distributed across m QPUs.
//!
//! Run with: `cargo run --release --example renyi_entropy`
//! (add `-- --threads N` to size the engine; the output is the same).

use apps::prelude::*;
use compas::prelude::*;
use engine::{Engine, Executor};
use qsim::qrand::random_density_matrix_of_rank;
use rand::SeedableRng;

fn main() {
    let exec = |seed| Executor::pooled(Engine::from_args(), seed);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // A rank-2 single-qubit state: entropy strictly between 0 and ln 2.
    let rho = random_density_matrix_of_rank(1, 2, &mut rng);

    println!("order |   exact S_m | estimated S_m | backend");
    for order in [2usize, 3] {
        let exact = renyi_entropy_exact(&rho, order);

        // Distributed estimate: an order-party COMPAS protocol.
        let protocol = CompasProtocol::new(order, 1, CswapScheme::Teledata);
        let est = estimate_renyi_entropy(&protocol, &rho, 1500, &exec(order as u64));
        println!(
            "  {order}   |   {exact:.4}    |    {:.4}     | compas teledata (k={order})",
            est.entropy
        );
        assert!(
            (est.entropy - exact).abs() < 0.25,
            "entropy estimate should be close: {} vs {exact}",
            est.entropy
        );
    }

    // Monolithic reference at higher order.
    let mono = MonolithicSwapTest::new(4, 1, MonolithicVariant::Fanout);
    let est = estimate_renyi_entropy(&mono, &rho, 3000, &exec(4));
    println!(
        "  4   |   {:.4}    |    {:.4}     | monolithic fanout",
        renyi_entropy_exact(&rho, 4),
        est.entropy
    );
}
