//! Virtual cooling and distillation (paper §6.3): compute expectation
//! values in χ = ρᵐ/tr(ρᵐ) without preparing the colder / cleaner state.
//!
//! Run with: `cargo run --release --example virtual_distillation`
//! (add `-- --threads N` to size the engine; the output is the same).

use apps::prelude::*;
use compas::prelude::*;
use engine::{Engine, Executor};
use stabilizer::pauli::Pauli;

fn main() {
    // ---- Virtual cooling on a transverse-field Ising chain ----
    let chain = IsingChain::new(2, 1.0, 0.6);
    let h_obs = chain.observable();
    let beta = 0.4;
    let rho = chain.thermal_state(beta);
    println!("TFIM chain: 2 sites, J = 1, h = 0.6, beta = {beta}");
    println!(
        "  energy at beta:    {:+.4}",
        chain.thermal_expectation(&h_obs, beta)
    );
    for m in [2usize, 3, 4] {
        let cooled = virtual_expectation_exact(&rho, &h_obs, m);
        let direct = chain.thermal_expectation(&h_obs, m as f64 * beta);
        println!("  m = {m}: virtual {cooled:+.4} vs direct thermal at {m}beta {direct:+.4}");
        assert!((cooled - direct).abs() < 1e-9, "Eq. 12 must hold exactly");
    }
    println!("  ground energy:     {:+.4}", chain.ground_energy());

    // Shot-based cooling estimate with the SWAP-test machinery.
    let den = MonolithicSwapTest::new(2, 2, MonolithicVariant::Fanout);
    let est = estimate_virtual_expectation(
        &den,
        MonolithicVariant::Fanout,
        &rho,
        &h_obs,
        1200,
        &Executor::pooled(Engine::from_args(), 3),
    );
    println!(
        "  sampled m = 2 energy: {:+.4} +/- {:.4}",
        est.value, est.std_err
    );

    // ---- Virtual distillation of a noisy |+> preparation ----
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let plus = vec![mathkit::complex::c64(h, 0.0), mathkit::complex::c64(h, 0.0)];
    let prep = NoisyPreparation::depolarized(plus, 0.3);
    let x_obs = Observable::single(1, 0, Pauli::X, 1.0);
    println!("\nnoisy |+> with 30% depolarizing, measuring <X> (ideal = 1):");
    println!(
        "  raw noisy estimate: {:+.4}",
        prep.noisy_expectation(&x_obs)
    );
    for m in [2usize, 3, 4] {
        println!(
            "  distilled with m = {m}: {:+.4} (error {:.1e})",
            prep.distilled_expectation(&x_obs, m),
            prep.distillation_error(&x_obs, m)
        );
    }
    assert!(prep.distillation_error(&x_obs, 4) < 0.01);
}
