//! Distributed parallel QSP (paper §6.4): estimate tr(P(ρ)) for a
//! degree-d polynomial by factoring P into k degree-(d/k) parts and
//! multiplying them with one k-party SWAP test — trading circuit depth
//! for width across QPUs.
//!
//! Run with: `cargo run --release --example parallel_qsp`
//! (add `-- --threads N` to size the engine; the output is the same).

use apps::prelude::*;
use compas::prelude::*;
use engine::{Engine, Executor};
use mathkit::cheb::ChebyshevApprox;
use qsim::qrand::random_density_matrix;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let rho = random_density_matrix(1, &mut rng);

    // Target: tr(e^{-2ρ}) via a degree-6 Chebyshev approximation of
    // e^{-2x}, factored into k = 3 parts of degree ≤ 2.
    let cheb = ChebyshevApprox::fit(|x| (-2.0 * x).exp(), 6);
    let target = cheb.to_polynomial();
    let qsp = ParallelQsp::new(&target, 3).expect("degree-6 target factors");
    println!(
        "degree {} polynomial factored into {} parts, max factor degree {} (depth O(d/k))",
        target.degree().unwrap(),
        qsp.factors().len(),
        qsp.max_factor_degree()
    );

    let exact = {
        let eig = mathkit::eigen::eigh(&rho);
        eig.values.iter().map(|&l| (-2.0 * l).exp()).sum::<f64>()
    };
    let via_poly = poly_trace_exact(&rho, &target);

    // Exact backend isolates the factorization error from shot noise…
    let exec = Executor::pooled(Engine::from_args(), 11);
    let exact_backend = ExactTraceBackend::new(3, 1);
    let distributed_exact = qsp.estimate(&rho, &exact_backend, 1, &exec).unwrap();

    // …and the sampled monolithic 3-party test adds the protocol.
    let sampled_backend = MonolithicSwapTest::new(3, 1, MonolithicVariant::Fanout);
    let sampled = qsp.estimate(&rho, &sampled_backend, 6000, &exec).unwrap();

    println!("tr(e^(-2 rho))      exact:        {exact:.5}");
    println!("tr(P(rho))          polynomial:   {via_poly:.5}");
    println!("parallel QSP        exact trace:  {distributed_exact:.5}");
    println!("parallel QSP        sampled:      {sampled:.5}");
    assert!((distributed_exact - via_poly).abs() < 1e-6);
    assert!((sampled - via_poly).abs() < 0.15);

    // The paper's §7 extension: the same trace as a *sum* of SWAP tests
    // (one per monomial order) — no factor-positivity requirement.
    let b2 = ExactTraceBackend::new(2, 1);
    let b3 = ExactTraceBackend::new(3, 1);
    let b4 = ExactTraceBackend::new(4, 1);
    let b5 = ExactTraceBackend::new(5, 1);
    let b6 = ExactTraceBackend::new(6, 1);
    let backends: Vec<&dyn TraceBackend> = vec![&b2, &b3, &b4, &b5, &b6];
    let by_sums = estimate_poly_trace_by_sums(&rho, &target, &backends, 1, &exec);
    println!("sum-of-SWAP-tests   exact trace:  {by_sums:.5}");
    assert!((by_sums - via_poly).abs() < 1e-6);
}
