//! Fig 9a: fidelity of the distributed GHZ preparation under
//! circuit-level noise.
//!
//! The distributed GHZ circuit (Fig 4) is Clifford with feed-forward, so
//! under stochastic Pauli noise each trajectory equals the ideal GHZ
//! state corrupted by a residual Pauli `E`. The fidelity contribution of
//! a trajectory is `|⟨GHZ|E|GHZ⟩|² ∈ {0, 1}`: it is 1 exactly when `E`
//! commutes with every GHZ stabilizer generator (`X⊗…⊗X` and the
//! `Z_i Z_{i+1}` pairs), i.e. when `E`'s X-component is uniform across
//! the parties and its Z-weight is even. Sampling residuals with the
//! Pauli-frame simulator therefore estimates `⟨GHZ|ρ|GHZ⟩` directly;
//! an exact density-matrix path cross-validates small sizes.

use circuit::circuit::Circuit;
use circuit::noise::NoiseModel;
use compas::ghz::{distributed_ghz, ghz_statevector};
use engine::Executor;
use mathkit::matrix::TraceKeep;
use mathkit::stats::{linear_fit, LinearFit};
use network::machine::DistributedMachine;
use network::topology::Topology;
use qsim::density::{run_deferred, DensityMatrix};
use stabilizer::frame::FrameSimulator;
use stabilizer::pauli::PauliString;

use crate::table_io::ResultTable;

/// Builds the noisy distributed GHZ circuit for `r` parties on adjacent
/// line nodes. Data qubits `0..r` carry the GHZ state.
pub fn noisy_distributed_ghz_circuit(r: usize, p: f64) -> Circuit {
    let mut m = DistributedMachine::new(r, 1, Topology::Line);
    let parties: Vec<(usize, usize)> = (0..r).map(|i| (i, m.data_qubit(i, 0))).collect();
    distributed_ghz(&mut m, &parties);
    let (ideal, _) = m.finish();
    NoiseModel::standard(p).apply(&ideal)
}

/// Whether a residual Pauli on the GHZ qubits preserves the GHZ state
/// (up to global phase).
pub fn preserves_ghz(residual: &PauliString) -> bool {
    let r = residual.len();
    // X component must be uniform (commutes with every Z_i Z_{i+1}).
    let x0 = residual.x_bit(0);
    if (1..r).any(|q| residual.x_bit(q) != x0) {
        return false;
    }
    // Z weight must be even (commutes with X⊗…⊗X).
    let z_parity = (0..r).fold(false, |acc, q| acc ^ residual.z_bit(q));
    !z_parity
}

/// Estimates `⟨GHZ|ρ|GHZ⟩` of the noisy `r`-party preparation by frame
/// sampling (`shots` trajectories) under `exec`. Deterministic for a
/// fixed root seed in every execution mode.
///
/// # Panics
///
/// Panics if the frame simulator cannot run the noisy circuit.
pub fn ghz_fidelity_sampled(exec: &Executor, r: usize, p: f64, shots: usize) -> f64 {
    let circuit = noisy_distributed_ghz_circuit(r, p);
    if let Err(e) = FrameSimulator::supports(&circuit) {
        panic!("GHZ fidelity sampler: {e}");
    }
    let data: Vec<usize> = (0..r).collect();
    let good = exec.run_count(shots as u64, |_, rng| {
        preserves_ghz(&FrameSimulator::sample_residual(&circuit, rng).restricted_to(&data))
    });
    good as f64 / shots.max(1) as f64
}

/// Exact `⟨GHZ|ρ|GHZ⟩` by deferred-measurement density-matrix evolution.
/// Feasible for small `r` (the register includes communication qubits);
/// used to validate the sampler.
pub fn ghz_fidelity_exact(r: usize, p: f64) -> f64 {
    let circ = noisy_distributed_ghz_circuit(r, p);
    let total = circ.num_qubits();
    assert!(total <= 12, "exact path is for small registers");
    let rho = run_deferred(&circ, &DensityMatrix::new(total));
    let reduced = rho
        .matrix()
        .partial_trace(1 << r, 1 << (total - r), TraceKeep::A);
    let ghz = ghz_statevector(r);
    reduced
        .mul_vec(&ghz.amplitudes())
        .iter()
        .zip(&ghz.amplitudes())
        .map(|(a, b)| (b.conj() * *a).re)
        .sum()
}

/// One Fig 9a series: fidelity vs party count at fixed `p`, plus the
/// paper's linear fit.
#[derive(Debug, Clone)]
pub struct GhzFidelitySeries {
    /// Two-qubit error rate.
    pub p: f64,
    /// `(r, fidelity)` samples.
    pub points: Vec<(usize, f64)>,
    /// Least-squares fit of fidelity against `r`.
    pub fit: LinearFit,
}

/// Sweeps Fig 9a over the `noise_levels × parties` grid, point by
/// point in outer-major order: point `i = p_index · |parties| +
/// r_index` runs [`ghz_fidelity_sampled`] under `exec.derive(i)`, so the
/// figure is reproducible from the executor's root seed in every mode.
pub fn fig9a(
    exec: &Executor,
    parties: &[usize],
    noise_levels: &[f64],
    shots: usize,
) -> Vec<GhzFidelitySeries> {
    noise_levels
        .iter()
        .enumerate()
        .map(|(pi, &p)| {
            let points: Vec<(usize, f64)> = parties
                .iter()
                .enumerate()
                .map(|(ri, &r)| {
                    let point = (pi * parties.len() + ri) as u64;
                    (r, ghz_fidelity_sampled(&exec.derive(point), r, p, shots))
                })
                .collect();
            let xs: Vec<f64> = points.iter().map(|&(r, _)| r as f64).collect();
            let ys: Vec<f64> = points.iter().map(|&(_, f)| f).collect();
            GhzFidelitySeries {
                p,
                points,
                fit: linear_fit(&xs, &ys),
            }
        })
        .collect()
}

/// Renders Fig 9a series as a table (one row per `(p, r)` point).
pub fn fig9a_result(series: &[GhzFidelitySeries]) -> ResultTable {
    let mut t = ResultTable::new(
        "Fig 9a GHZ fidelity vs parties",
        &["p2q", "r", "fidelity", "fit_slope", "fit_intercept"],
    );
    for s in series {
        for &(r, f) in &s.points {
            t.push_row(vec![
                format!("{}", s.p),
                format!("{r}"),
                ResultTable::fmt_f64(f),
                ResultTable::fmt_f64(s.fit.slope),
                ResultTable::fmt_f64(s.fit.intercept),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_preserving_residuals() {
        assert!(preserves_ghz(&"III".parse().unwrap()));
        assert!(preserves_ghz(&"XXX".parse().unwrap())); // the X stabilizer
        assert!(preserves_ghz(&"ZZI".parse().unwrap())); // a Z stabilizer
        assert!(!preserves_ghz(&"ZII".parse().unwrap())); // odd Z weight
        assert!(!preserves_ghz(&"XII".parse().unwrap())); // broken X block
                                                          // YYI anticommutes with the I Z Z generator: not preserving.
        assert!(!preserves_ghz(&"YYI".parse().unwrap()));
        assert!(preserves_ghz(&"YYX".parse().unwrap())); // = XXX·ZZI
    }

    #[test]
    fn noiseless_fidelity_is_one() {
        let exec = Executor::sequential(1);
        for r in [3usize, 5] {
            let f = ghz_fidelity_sampled(&exec, r, 0.0, 200);
            assert!((f - 1.0).abs() < 1e-12, "r={r}");
        }
    }

    #[test]
    fn sampler_matches_exact_density_matrix() {
        let (r, p) = (3usize, 0.01);
        let exact = ghz_fidelity_exact(r, p);
        let sampled = ghz_fidelity_sampled(&Executor::sequential(2), r, p, 40_000);
        // Binomial std err at 40k shots ≈ 0.0016; allow 5σ.
        assert!(
            (exact - sampled).abs() < 0.01,
            "exact {exact} vs sampled {sampled}"
        );
    }

    #[test]
    fn fidelity_decreases_with_r_and_p() {
        let exec = Executor::sequential(3);
        let f_small = ghz_fidelity_sampled(&exec.derive(0), 4, 0.003, 20_000);
        let f_large = ghz_fidelity_sampled(&exec.derive(1), 10, 0.003, 20_000);
        assert!(f_large < f_small, "{f_large} !< {f_small}");
        let f_low_p = ghz_fidelity_sampled(&exec.derive(2), 6, 0.001, 20_000);
        let f_high_p = ghz_fidelity_sampled(&exec.derive(3), 6, 0.005, 20_000);
        assert!(f_high_p < f_low_p);
    }

    #[test]
    fn fidelity_is_mode_invariant_and_matches_exact() {
        let (r, p, shots) = (3usize, 0.01, 20_000);
        let f4 = ghz_fidelity_sampled(
            &Executor::pooled(engine::Engine::with_threads(4), 5),
            r,
            p,
            shots,
        );
        let f1 = ghz_fidelity_sampled(&Executor::sequential(5), r, p, shots);
        assert_eq!(f4, f1, "execution mode changed the result");
        let exact = ghz_fidelity_exact(r, p);
        assert!((f4 - exact).abs() < 0.015, "par {f4} vs exact {exact}");
    }

    #[test]
    fn fig9a_matches_grid_shape() {
        let exec = Executor::pooled(engine::Engine::with_threads(4), 9);
        let series = fig9a(&exec, &[3, 4], &[0.002, 0.004], 4_000);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            for &(_, f) in &s.points {
                assert!((0.0..=1.0).contains(&f));
            }
        }
        // Higher noise can only hurt at equal seeds-by-position grids.
        let avg = |s: &GhzFidelitySeries| {
            s.points.iter().map(|&(_, f)| f).sum::<f64>() / s.points.len() as f64
        };
        assert!(avg(&series[1]) <= avg(&series[0]) + 0.02);
    }

    #[test]
    fn fig9a_fit_slope_is_negative() {
        let series = fig9a(&Executor::sequential(4), &[4, 6, 8], &[0.003], 8_000);
        assert_eq!(series.len(), 1);
        assert!(series[0].fit.slope < 0.0);
        let text = fig9a_result(&series).to_text();
        assert!(text.contains("fit_slope"));
    }
}
