//! Entanglement spectroscopy (paper §6.2): recover the spectrum of a
//! reduced state — the entanglement Hamiltonian levels — from power
//! traces tr(ρᵐ) measured by multi-party SWAP tests plus the
//! Newton–Girard identities.
//!
//! Run with: `cargo run --release --example entanglement_spectroscopy`
//! (add `-- --threads N` to size the engine; the output is the same).

use apps::prelude::*;
use compas::prelude::*;
use engine::{Engine, Executor};
use mathkit::matrix::TraceKeep;
use qsim::statevector::StateVector;

fn main() {
    let exec = |seed| Executor::pooled(Engine::from_args(), seed);
    // A partially entangled two-qubit pure state; its one-qubit reduction
    // has eigenvalues (cos²θ, sin²θ).
    let theta = 0.6f64;
    let amps = vec![
        mathkit::complex::c64(theta.cos(), 0.0),
        mathkit::complex::Complex::ZERO,
        mathkit::complex::Complex::ZERO,
        mathkit::complex::c64(theta.sin(), 0.0),
    ];
    let full = StateVector::from_amplitudes(amps).to_density();
    let rho = full.partial_trace(2, 2, TraceKeep::A);

    // Measure tr(ρ²) with a distributed 2-party test (the standard SWAP
    // test as the k = 2 special case of COMPAS).
    let b2 = CompasProtocol::new(2, 1, CswapScheme::Teledata);
    let backends: Vec<&dyn TraceBackend> = vec![&b2];
    let result = estimate_spectrum(&backends, &rho, 4000, &exec(5));

    let exact = [theta.cos().powi(2), theta.sin().powi(2)];
    println!("power traces measured: {:?}", result.power_traces);
    println!("recovered eigenvalues: {:?}", result.eigenvalues);
    println!("exact eigenvalues:     {exact:?}");
    println!(
        "entanglement spectrum (-ln lambda): {:?}",
        result.entanglement_spectrum
    );
    let err = spectrum_error(&result.eigenvalues, &exact);
    println!("max eigenvalue error: {err:.4}");
    assert!(err < 0.1, "spectrum recovery error too large: {err}");

    // ---- A physical scenario: half-chain entanglement spectrum of the
    // critical transverse-field Ising ground state ----
    let chain = IsingChain::new(4, 1.0, 1.0);
    let half = chain.ground_state_reduction(2);
    let exact_traces = exact_power_traces(&half, 4);
    // Each power trace is one distributed m-party SWAP test on 2-qubit
    // states; here we use monolithic backends for speed.
    let b2 = MonolithicSwapTest::new(2, 2, MonolithicVariant::Fanout);
    let b3 = MonolithicSwapTest::new(3, 2, MonolithicVariant::Fanout);
    let backends2: Vec<&dyn TraceBackend> = vec![&b2, &b3];
    let result = estimate_spectrum(&backends2, &half, 1500, &exec(6));
    println!("\ncritical TFIM half-chain (4 sites):");
    println!("  exact power traces:    {exact_traces:?}");
    println!("  measured power traces: {:?}", result.power_traces);
    println!(
        "  entanglement spectrum: {:?}",
        result.entanglement_spectrum
    );
    // The dominant Schmidt weight must be recovered within sampling error.
    let exact_eigs = {
        let mut v = mathkit::eigen::eigh(&half).values;
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v
    };
    assert!((result.eigenvalues[0] - exact_eigs[0]).abs() < 0.12);
}
