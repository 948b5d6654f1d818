//! Table 4: residual Pauli errors of the noisy constant-depth Fanout.
//!
//! Reproduces the paper's §5.1 methodology: the Fanout gadget is Clifford
//! with feed-forward, so the noisy gadget equals the ideal gadget followed
//! by a Pauli error `E = U_noisy · U_ideal⁻¹` drawn from a distribution.
//! We sample that distribution with the Pauli-frame simulator
//! ([`stabilizer::frame::FrameSimulator`], our Stim stand-in) under the
//! standard circuit-level model: depolarizing `p/10` after one-qubit
//! gates, `p` after two-qubit gates, measurement flip `p`.
//!
//! The qualitative claims checked against the paper: the dominant error
//! is **Z on the control** (a flipped release measurement corrupts the
//! Pauli-frame Z correction), followed by **X blocks on the targets**
//! (flipped fusion measurements corrupt blocks of X corrections).

use circuit::circuit::Circuit;
use circuit::noise::NoiseModel;
use compas::fanout::fanout_gadget;
use engine::Executor;
use stabilizer::frame::FrameSimulator;
use stabilizer::pauli::PauliString;

use crate::table_io::ResultTable;

/// One Table 4 row: a noise level, a target count, and the most probable
/// non-identity residual errors.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutNoiseRow {
    /// Physical two-qubit error rate `p`.
    pub p: f64,
    /// Number of Fanout targets.
    pub targets: usize,
    /// `(pattern, probability)` for the top non-identity residuals; the
    /// leftmost letter is the control qubit, as in the paper.
    pub top_errors: Vec<(PauliString, f64)>,
    /// Probability of no residual error at all.
    pub identity_probability: f64,
}

/// The noisy Fanout gadget circuit on `[control, targets…, ancillas…]`.
pub fn noisy_fanout_circuit(targets: usize, p: f64) -> Circuit {
    let total = 1 + 2 * targets;
    let tqs: Vec<usize> = (1..=targets).collect();
    let anc: Vec<usize> = (1 + targets..total).collect();
    let mut ideal = Circuit::new(total, 0);
    fanout_gadget(&mut ideal, 0, &tqs, &anc);
    NoiseModel::standard(p).apply(&ideal)
}

/// Samples the residual-error distribution of the Fanout gadget on
/// `[control, t_1…t_m]` under `exec` and returns the `top` most probable
/// non-identity patterns. Deterministic for a fixed root seed in every
/// execution mode.
///
/// # Panics
///
/// Panics if the frame simulator cannot run the noisy gadget.
pub fn fanout_error_distribution(
    exec: &Executor,
    targets: usize,
    p: f64,
    shots: usize,
    top: usize,
) -> FanoutNoiseRow {
    let circuit = noisy_fanout_circuit(targets, p);
    if let Err(e) = FrameSimulator::supports(&circuit) {
        panic!("fanout residual sampler: {e}");
    }
    let data: Vec<usize> = (0..=targets).collect();
    let hist = exec.run_tally(shots as u64, |_, rng| {
        FrameSimulator::sample_residual(&circuit, rng).restricted_to(&data)
    });
    let identity = PauliString::identity(targets + 1);
    let identity_probability = hist.get(&identity).copied().unwrap_or(0) as f64 / shots as f64;
    let mut entries: Vec<(PauliString, f64)> = hist
        .into_iter()
        .filter(|(pauli, _)| !pauli.is_identity())
        .map(|(pauli, count)| (pauli, count as f64 / shots as f64))
        .collect();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    entries.truncate(top);
    FanoutNoiseRow {
        p,
        targets,
        top_errors: entries,
        identity_probability,
    }
}

/// Regenerates Table 4 over the `target_counts × noise_levels` grid,
/// point by point in outer-major order: point `i = m_index ·
/// |noise_levels| + p_index` runs [`fanout_error_distribution`] (top 4)
/// under `exec.derive(i)`, so the table is reproducible from the
/// executor's root seed in every mode.
pub fn table4(
    exec: &Executor,
    noise_levels: &[f64],
    target_counts: &[usize],
    shots: usize,
) -> Vec<FanoutNoiseRow> {
    target_counts
        .iter()
        .flat_map(|&m| noise_levels.iter().map(move |&p| (m, p)))
        .enumerate()
        .map(|(i, (m, p))| fanout_error_distribution(&exec.derive(i as u64), m, p, shots, 4))
        .collect()
}

/// Formats Table 4 rows in the paper's layout.
pub fn table4_result(rows: &[FanoutNoiseRow]) -> ResultTable {
    let mut t = ResultTable::new(
        "Table 4 fanout residual errors",
        &["p_phy", "targets", "1st", "2nd", "3rd", "4th"],
    );
    for row in rows {
        let mut cells = vec![format!("{}", row.p), format!("{}", row.targets)];
        for i in 0..4 {
            cells.push(match row.top_errors.get(i) {
                Some((pat, prob)) => format!("{pat}: {:.2}%", 100.0 * prob),
                None => "-".to_string(),
            });
        }
        t.push_row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_leaves_identity_only() {
        let row = fanout_error_distribution(&Executor::sequential(1), 4, 0.0, 200, 4);
        assert!(row.top_errors.is_empty());
        assert!((row.identity_probability - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dominant_error_is_z_on_control() {
        // The paper's headline observation (Table 4, "1st Error" column).
        let exec = Executor::sequential(2);
        for m in [4usize, 6] {
            let row = fanout_error_distribution(&exec.derive(m as u64), m, 0.003, 30_000, 4);
            let (top, _) = &row.top_errors[0];
            let mut want = PauliString::identity(m + 1);
            want.set(0, stabilizer::pauli::Pauli::Z);
            assert_eq!(top, &want, "m={m}: top error {top}");
        }
    }

    #[test]
    fn x_blocks_appear_on_targets() {
        let row = fanout_error_distribution(&Executor::sequential(3), 4, 0.005, 30_000, 4);
        // Among the top-4 errors, at least one must be an X-only pattern
        // on targets with identity control (the paper's IIIXX family).
        let has_x_block = row.top_errors.iter().any(|(p, _)| {
            p.get(0) == stabilizer::pauli::Pauli::I
                && p.iter()
                    .skip(1)
                    .all(|q| matches!(q, stabilizer::pauli::Pauli::I | stabilizer::pauli::Pauli::X))
                && !p.is_identity()
        });
        assert!(has_x_block, "top errors: {:?}", row.top_errors);
    }

    #[test]
    fn error_rate_grows_with_p() {
        let exec = Executor::sequential(4);
        let low = fanout_error_distribution(&exec, 4, 0.001, 20_000, 4);
        let high = fanout_error_distribution(&exec.derive(1), 4, 0.005, 20_000, 4);
        assert!(high.identity_probability < low.identity_probability);
    }

    #[test]
    fn table4_grid_and_rendering() {
        let rows = table4(&Executor::sequential(5), &[0.001, 0.005], &[4], 2_000);
        assert_eq!(rows.len(), 2);
        let text = table4_result(&rows).to_text();
        assert!(text.contains("p_phy"));
        assert!(text.contains('%'));
    }

    #[test]
    fn table4_is_mode_invariant() {
        let seq = table4(&Executor::sequential(6), &[0.003], &[4], 3_000);
        let pooled = table4(
            &Executor::pooled(engine::Engine::with_threads(4), 6),
            &[0.003],
            &[4],
            3_000,
        );
        assert_eq!(seq, pooled);
    }
}
