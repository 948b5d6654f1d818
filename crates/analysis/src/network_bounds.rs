//! Fig 10 and Appendix B: network-level noise of Bell-pair distribution.
//!
//! §5.5 models a distributed Bell half as a one-qubit depolarizing
//! channel of strength `p` (Eq. 5), giving
//!
//! * `F_CNOT, F_Toffoli ≥ 1 − 3p/4` (gate teleportation, App. B.1/B.2),
//! * `F_teledata ≥ 1 − p/2` (state teleportation),
//!
//! and, across the `O(nk)` teleoperations of a full protocol run,
//! `F_tot ≥ 1 − (3/4)p·nk`, i.e. the Fig 10 bound `k ≤ ε/((3/4)·n·p)`.
//!
//! The bounds are verified here **exactly**: the teleoperation circuits
//! run under deferred-measurement density-matrix evolution with the
//! depolarized Bell state `ρ'_bell = (1−p)|Φ+⟩⟨Φ+| + p·I/4` as input,
//! over a grid of input states including the analytic worst cases
//! (`|+⟩|1⟩` for the CNOT, `|a₁b₁| = 1/√2, c = |1⟩` for the Toffoli).

use circuit::circuit::Circuit;
use mathkit::complex::{c64, Complex};
use mathkit::matrix::{Matrix, TraceKeep};
use network::teleop;
use qsim::density::{run_deferred, DensityMatrix};
use qsim::statevector::StateVector;

use crate::distillation_codes::{catalog, DistillationCode};
use crate::table_io::ResultTable;

/// The depolarized Bell pair of Eq. (6):
/// `(1−p)|Φ+⟩⟨Φ+| + p·(I⊗I)/4`.
pub fn depolarized_bell(p: f64) -> Matrix {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    let phi =
        StateVector::from_amplitudes(vec![c64(h, 0.0), Complex::ZERO, Complex::ZERO, c64(h, 0.0)]);
    let pure = phi.to_density();
    let mixed = Matrix::identity(4).scale(c64(p / 4.0, 0.0));
    &pure.scale(c64(1.0 - p, 0.0)) + &mixed
}

/// Fidelity of the teleported CNOT on input `|φ⟩⊗|ψ⟩` when the Bell pair
/// is depolarized with strength `p` — exact density-matrix evaluation.
pub fn remote_cnot_fidelity(phi: &[Complex], psi: &[Complex], p: f64) -> f64 {
    // Register: 0 = control, 1 = target, 2 = ebit_ctl, 3 = ebit_tgt.
    let mut circ = Circuit::new(4, 2);
    teleop::telegate_cx(&mut circ, 0, 1, 2, 3, 0, 1);

    let data = StateVector::product_state(2, &[(phi.to_vec(), vec![0]), (psi.to_vec(), vec![1])]);
    let initial = DensityMatrix::from_matrix(data.to_density().kron(&depolarized_bell(p)));
    let out = run_deferred(&circ, &initial);
    let reduced = out.matrix().partial_trace(4, 4, TraceKeep::A);

    let mut want = data;
    want.apply_gate(&circuit::gate::Gate::Cx {
        control: 0,
        target: 1,
    });
    fidelity_with_pure(&reduced, &want.amplitudes())
}

/// Fidelity of the teleported Toffoli on `|a⟩|b⟩|c⟩` with a depolarized
/// Bell pair (Fig 6d realisation) — exact.
pub fn remote_toffoli_fidelity(a: &[Complex], b: &[Complex], c: &[Complex], p: f64) -> f64 {
    // Register: 0 = a, 1 = b, 2 = target c, 3 = ebit_tgt, 4 = ebit_ctl.
    let mut circ = Circuit::new(5, 2);
    teleop::telegate_ccx(&mut circ, 0, 1, 2, 3, 4, 0, 1);

    let data = StateVector::product_state(
        3,
        &[
            (a.to_vec(), vec![0]),
            (b.to_vec(), vec![1]),
            (c.to_vec(), vec![2]),
        ],
    );
    let initial = DensityMatrix::from_matrix(data.to_density().kron(&depolarized_bell(p)));
    let out = run_deferred(&circ, &initial);
    let reduced = out.matrix().partial_trace(8, 4, TraceKeep::A);

    let mut want = data;
    want.apply_gate(&circuit::gate::Gate::Ccx {
        control_a: 0,
        control_b: 1,
        target: 2,
    });
    fidelity_with_pure(&reduced, &want.amplitudes())
}

/// Fidelity of state teleportation of `|φ⟩` through a depolarized Bell
/// pair — exact.
pub fn teledata_fidelity(phi: &[Complex], p: f64) -> f64 {
    // Register: 0 = src, 1 = ebit_src, 2 = dst.
    let mut circ = Circuit::new(3, 2);
    teleop::teledata(&mut circ, 0, 1, 2, 0, 1);

    let src = StateVector::product_state(1, &[(phi.to_vec(), vec![0])]);
    let initial = DensityMatrix::from_matrix(src.to_density().kron(&depolarized_bell(p)));
    let out = run_deferred(&circ, &initial);
    // Keep the destination (last qubit).
    let reduced = out.matrix().partial_trace(4, 2, TraceKeep::B);
    fidelity_with_pure(&reduced, &src.amplitudes())
}

fn fidelity_with_pure(rho: &Matrix, psi: &[Complex]) -> f64 {
    rho.mul_vec(psi)
        .iter()
        .zip(psi)
        .map(|(a, b)| (b.conj() * *a).re)
        .sum()
}

/// The analytic worst-case input of App. B.1: `|+⟩` control, `|1⟩` target.
pub fn cnot_worst_case_input() -> (Vec<Complex>, Vec<Complex>) {
    let h = std::f64::consts::FRAC_1_SQRT_2;
    (
        vec![c64(h, 0.0), c64(h, 0.0)],
        vec![Complex::ZERO, Complex::ONE],
    )
}

/// The analytic worst case of App. B.2: `|a₁| = |b₁| = 2^{-1/4}…` — the
/// paper's condition `|a₁||b₁| = 1/√2`, `c = |1⟩`.
pub fn toffoli_worst_case_input() -> (Vec<Complex>, Vec<Complex>, Vec<Complex>) {
    let amp1 = 0.5f64.powf(0.25); // |a₁| = |b₁| = 2^{-1/4} so the product is 1/√2
    let amp0 = (1.0 - amp1 * amp1).sqrt();
    (
        vec![c64(amp0, 0.0), c64(amp1, 0.0)],
        vec![c64(amp0, 0.0), c64(amp1, 0.0)],
        vec![Complex::ZERO, Complex::ONE],
    )
}

/// Fig 10's bound: the largest `k` keeping `F_tot ≥ 1 − ε` when every
/// one of the `n·k` teleoperations loses `3p/4`:
/// `k ≤ ε / ((3/4)·n·p)`.
pub fn k_upper_bound(epsilon: f64, n: usize, p: f64) -> f64 {
    epsilon / (0.75 * n as f64 * p)
}

/// One Fig 10 curve: `k` bound vs Bell-pair logical error rate.
#[derive(Debug, Clone)]
pub struct KBoundCurve {
    /// Error tolerance ε.
    pub epsilon: f64,
    /// `(p, k_bound)` points.
    pub points: Vec<(f64, f64)>,
}

/// Sweeps Fig 10 for `n = 100` qubits per QPU (the paper's setting).
pub fn fig10(
    epsilons: &[f64],
    p_grid: &[f64],
    n: usize,
) -> (Vec<KBoundCurve>, Vec<(DistillationCode, f64)>) {
    let curves = epsilons
        .iter()
        .map(|&epsilon| KBoundCurve {
            epsilon,
            points: p_grid
                .iter()
                .map(|&p| (p, k_upper_bound(epsilon, n, p)))
                .collect(),
        })
        .collect();
    // Code markers at their logical error rates from percent-level
    // physical Bell infidelity (the paper's experimental anchor).
    let markers = catalog()
        .into_iter()
        .map(|code| {
            let rate = code.logical_error_rate(0.013);
            (code, rate)
        })
        .collect();
    (curves, markers)
}

/// Renders the Fig 10 curves as a table.
pub fn fig10_result(curves: &[KBoundCurve], markers: &[(DistillationCode, f64)]) -> ResultTable {
    let mut t = ResultTable::new(
        "Fig 10 upper bound on k vs Bell error",
        &["epsilon", "p", "k_bound"],
    );
    for c in curves {
        for &(p, k) in &c.points {
            t.push_row(vec![
                format!("{}", c.epsilon),
                ResultTable::fmt_f64(p),
                ResultTable::fmt_f64(k),
            ]);
        }
    }
    for (code, rate) in markers {
        t.push_row(vec![
            code.to_string(),
            ResultTable::fmt_f64(*rate),
            "-".to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::qrand::random_pure_state;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn depolarized_bell_is_a_state() {
        for p in [0.0, 0.3, 1.0] {
            let rho = depolarized_bell(p);
            assert!((rho.trace().re - 1.0).abs() < 1e-12);
            assert!(rho.is_hermitian(1e-12));
        }
    }

    #[test]
    fn cnot_bound_holds_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [0.05, 0.2, 0.6] {
            for _ in 0..6 {
                let phi = random_pure_state(1, &mut rng);
                let psi = random_pure_state(1, &mut rng);
                let f = remote_cnot_fidelity(&phi, &psi, p);
                assert!(
                    f >= 1.0 - 0.75 * p - 1e-9,
                    "p={p}: F={f} < 1 − 3p/4 = {}",
                    1.0 - 0.75 * p
                );
            }
        }
    }

    #[test]
    fn cnot_worst_case_saturates_the_bound() {
        // App. B.1: the depolarized component's overlap reaches its
        // minimum 1/4 at |+⟩|1⟩, so F = 1 − 3p/4 exactly.
        let (phi, psi) = cnot_worst_case_input();
        for p in [0.1, 0.4, 1.0] {
            let f = remote_cnot_fidelity(&phi, &psi, p);
            assert!(
                (f - (1.0 - 0.75 * p)).abs() < 1e-9,
                "p={p}: F={f} vs {}",
                1.0 - 0.75 * p
            );
        }
    }

    #[test]
    fn toffoli_bound_holds_and_saturates() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = 0.3;
        for _ in 0..5 {
            let a = random_pure_state(1, &mut rng);
            let b = random_pure_state(1, &mut rng);
            let c = random_pure_state(1, &mut rng);
            let f = remote_toffoli_fidelity(&a, &b, &c, p);
            assert!(f >= 1.0 - 0.75 * p - 1e-9, "F={f}");
        }
        let (a, b, c) = toffoli_worst_case_input();
        let f = remote_toffoli_fidelity(&a, &b, &c, p);
        assert!(
            (f - (1.0 - 0.75 * p)).abs() < 1e-9,
            "worst case should saturate: {f}"
        );
    }

    #[test]
    fn teledata_bound_holds_and_saturates() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = 0.4;
        for _ in 0..6 {
            let phi = random_pure_state(1, &mut rng);
            let f = teledata_fidelity(&phi, p);
            assert!(f >= 1.0 - 0.5 * p - 1e-9, "F={f}");
        }
        // Every input saturates: the depolarized component contributes
        // exactly 1/2 regardless of |φ⟩ (App. B, Eq. 7).
        let phi = random_pure_state(1, &mut rng);
        let f = teledata_fidelity(&phi, p);
        assert!((f - (1.0 - 0.5 * p)).abs() < 1e-9, "{f}");
    }

    #[test]
    fn k_bound_matches_paper_example() {
        // §5.5: with n = 100 and the LP code's ~2.7e-6 logical rate,
        // ε = 1e-3 allows about k = 5 QPUs.
        let k = k_upper_bound(1e-3, 100, 2.7e-6);
        assert!((4.0..6.5).contains(&k), "k bound {k}");
    }

    #[test]
    fn fig10_generates_curves_and_markers() {
        let (curves, markers) = fig10(&[1e-1, 1e-3], &[1e-6, 1e-4], 100);
        assert_eq!(curves.len(), 2);
        assert_eq!(markers.len(), 5);
        // Smaller ε ⇒ tighter k at the same p.
        assert!(curves[1].points[0].1 < curves[0].points[0].1);
        let text = fig10_result(&curves, &markers).to_text();
        assert!(text.contains("k_bound"));
        assert!(text.contains("HGP"));
    }
}
