//! Fig 9b: classical fidelity of the two-party CSWAP under
//! circuit-level noise, for both schemes.
//!
//! Reproduces the paper's §5.2 methodology. The full distributed CSWAP is
//! too wide to simulate, so higher-level primitives are *blackboxed*: the
//! logical circuit acts on the `2n+1` data qubits only, and each
//! primitive's noise enters as a residual Pauli drawn from the samplers
//! of [`crate::primitive_errors`], injected at the primitive's position.
//!
//! Because the logical circuit consists solely of CX/CCX layers and
//! injected Paulis, basis states evolve to basis states and Z components
//! never convert into bit flips — so the shot simulation is *exact* at
//! the bit level, and the paper's "classical fidelity" (fraction of
//! measurement outcomes matching the noiseless output) is computed
//! without a statevector. Inputs follow the paper: exhaustive over all
//! `2^(2n+1)` basis states when that is ≤ 300, else 300 random ones.

use compas::cswap::CswapScheme;
use engine::Executor;
use mathkit::stats::linear_fit;
use rand::rngs::StdRng;
use rand::Rng;
use stabilizer::pauli::PauliString;

use crate::primitive_errors::{
    cat_roundtrip_circuit, fanout_circuit, telegate_cnot_circuit, teleport_circuit,
    PauliErrorSampler,
};
use crate::table_io::ResultTable;

/// Primitive-level noise characterisation for width-`n` CSWAPs at
/// two-qubit error rate `p`.
#[derive(Debug, Clone)]
pub struct CswapNoiseModel {
    /// Base two-qubit error rate.
    pub p: f64,
    /// State width.
    pub n: usize,
    teleport: PauliErrorSampler,
    telegate_cnot: PauliErrorSampler,
    cat_roundtrip: PauliErrorSampler,
    fanout: PauliErrorSampler,
}

impl CswapNoiseModel {
    /// Frame-samples every primitive once (`shots` trajectories each)
    /// under `exec`: primitive `i` runs on the child context
    /// `exec.derive(i)`, so the model is deterministic for a fixed root
    /// seed in every execution mode.
    pub fn characterize(exec: &Executor, n: usize, p: f64, shots: usize) -> Self {
        let characterize = |idx: u64, (circ, data): (circuit::circuit::Circuit, Vec<usize>)| {
            PauliErrorSampler::from_circuit(&exec.derive(idx), &circ, &data, shots)
        };
        CswapNoiseModel {
            p,
            n,
            teleport: characterize(0, teleport_circuit(p)),
            telegate_cnot: characterize(1, telegate_cnot_circuit(p)),
            cat_roundtrip: characterize(2, cat_roundtrip_circuit(p)),
            fanout: characterize(3, fanout_circuit(n.max(2), p)),
        }
    }
}

/// Classical bit-level register for the logical CSWAP.
struct BitState {
    bits: Vec<bool>,
}

impl BitState {
    fn cx(&mut self, c: usize, t: usize) {
        if self.bits[c] {
            self.bits[t] = !self.bits[t];
        }
    }

    fn ccx(&mut self, a: usize, b: usize, t: usize) {
        if self.bits[a] && self.bits[b] {
            self.bits[t] = !self.bits[t];
        }
    }

    /// Applies the bit-flip (X) component of a sampled residual, mapped
    /// through `qubits`.
    fn inject(&mut self, residual: &PauliString, qubits: &[usize]) {
        for (idx, &q) in qubits.iter().enumerate() {
            if residual.x_bit(idx) {
                self.bits[q] = !self.bits[q];
            }
        }
    }

    /// A local depolarizing site: with probability `p`, a uniform
    /// non-identity Pauli lands on the listed qubits; only its X/Y
    /// components flip bits.
    fn depolarize(&mut self, qubits: &[usize], p: f64, rng: &mut impl Rng) {
        if p <= 0.0 || rng.random::<f64>() >= p {
            return;
        }
        let options = 4usize.pow(qubits.len() as u32) - 1;
        let mut code = rng.random_range(1..=options);
        for &q in qubits {
            let pauli = code % 4;
            if pauli == 1 || pauli == 2 {
                self.bits[q] = !self.bits[q];
            }
            code /= 4;
        }
    }
}

/// Runs one noisy logical-CSWAP shot from basis input `input` and
/// returns the measured bits. Register: `[φ, ρ_i…, ρ_j…]` (bit 0 = φ).
fn noisy_cswap_shot(
    scheme: CswapScheme,
    model: &CswapNoiseModel,
    input: usize,
    rng: &mut impl Rng,
) -> Vec<bool> {
    let n = model.n;
    let width = 2 * n + 1;
    let mut s = BitState {
        bits: (0..width)
            .map(|q| (input >> (width - 1 - q)) & 1 == 1)
            .collect(),
    };
    let phi = 0usize;
    let rho_i: Vec<usize> = (1..=n).collect();
    let rho_j: Vec<usize> = (n + 1..=2 * n).collect();

    // Data movement in, round 1 of the CSWAP's CX stage.
    match scheme {
        CswapScheme::Teledata => {
            for &q in &rho_j {
                s.inject(model.teleport.sample(rng), &[q]);
            }
            for l in 0..n {
                s.cx(rho_j[l], rho_i[l]);
                s.depolarize(&[rho_j[l], rho_i[l]], model.p, rng);
            }
        }
        CswapScheme::Telegate => {
            for l in 0..n {
                s.inject(model.telegate_cnot.sample(rng), &[rho_j[l], rho_i[l]]);
                s.cx(rho_j[l], rho_i[l]);
            }
            for &q in &rho_j {
                s.inject(model.cat_roundtrip.sample(rng), &[q]);
            }
        }
    }

    // Shared-control Toffoli stage (both schemes run it on Alice): four
    // Fanouts bracket the CCX layer, plus local two-qubit work per pair.
    let fan_t: Vec<usize> = std::iter::once(phi).chain(rho_j.iter().copied()).collect();
    let fan_b: Vec<usize> = std::iter::once(phi).chain(rho_i.iter().copied()).collect();
    let fan_width = model.fanout.width() - 1;
    let inject_fanout = |s: &mut BitState, qubits: &[usize], rng: &mut dyn rand::RngCore| {
        // The characterised fanout has max(n, 2) targets; map the first
        // 1 + n letters onto [φ, data…].
        let sample = model.fanout.sample(&mut RngShim(rng)).clone();
        let used: Vec<usize> = qubits.iter().copied().take(1 + fan_width).collect();
        s.inject(
            &sample.restricted_to(&(0..used.len()).collect::<Vec<_>>()),
            &used,
        );
    };
    inject_fanout(&mut s, &fan_t, rng);
    inject_fanout(&mut s, &fan_b, rng);
    for l in 0..n {
        s.depolarize(&[rho_i[l], rho_j[l]], model.p, rng);
        s.ccx(phi, rho_i[l], rho_j[l]);
        s.depolarize(&[rho_i[l], rho_j[l]], model.p, rng);
    }
    s.depolarize(&[phi], model.p / 10.0, rng);
    inject_fanout(&mut s, &fan_t, rng);
    inject_fanout(&mut s, &fan_b, rng);

    // Round 2 of the CX stage and the data movement out.
    match scheme {
        CswapScheme::Teledata => {
            for l in 0..n {
                s.cx(rho_j[l], rho_i[l]);
                s.depolarize(&[rho_j[l], rho_i[l]], model.p, rng);
            }
            for &q in &rho_j {
                s.inject(model.teleport.sample(rng), &[q]);
            }
        }
        CswapScheme::Telegate => {
            for l in 0..n {
                s.inject(model.telegate_cnot.sample(rng), &[rho_j[l], rho_i[l]]);
                s.cx(rho_j[l], rho_i[l]);
            }
        }
    }
    s.bits
}

/// Adapts an unsized RNG for the sampler.
struct RngShim<'a>(&'a mut dyn rand::RngCore);

impl rand::RngCore for RngShim<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
}

/// The ideal CSWAP output bits for basis input `input`.
fn ideal_cswap_bits(n: usize, input: usize) -> Vec<bool> {
    let width = 2 * n + 1;
    let mut bits: Vec<bool> = (0..width)
        .map(|q| (input >> (width - 1 - q)) & 1 == 1)
        .collect();
    if bits[0] {
        for l in 0..n {
            bits.swap(1 + l, 1 + n + l);
        }
    }
    bits
}

/// The paper's input set: exhaustive basis states when `2^(2n+1) ≤ 300`,
/// otherwise 300 uniformly random basis states.
pub fn fig9b_inputs(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let dim = 1usize << (2 * n + 1);
    if dim <= 300 {
        (0..dim).collect()
    } else {
        (0..300).map(|_| rng.random_range(0..dim)).collect()
    }
}

/// Classical fidelity of the width-`n` CSWAP under `model`, averaged
/// over `inputs` with `shots` per input, executed under `exec` (the
/// `inputs × shots` space is one shot grid; deterministic for a fixed
/// root seed in every execution mode).
pub fn cswap_classical_fidelity(
    exec: &Executor,
    scheme: CswapScheme,
    model: &CswapNoiseModel,
    inputs: &[usize],
    shots: usize,
) -> f64 {
    // Shot s exercises input s / shots.
    let ideal: Vec<Vec<bool>> = inputs
        .iter()
        .map(|&input| ideal_cswap_bits(model.n, input))
        .collect();
    let shots_per_input = shots as u64;
    let total = inputs.len() as u64 * shots_per_input;
    let matches = exec.run_count(total, |shot, rng| {
        let which = (shot / shots_per_input) as usize;
        noisy_cswap_shot(scheme, model, inputs[which], rng) == ideal[which]
    });
    matches as f64 / (inputs.len() * shots).max(1) as f64
}

/// One Fig 9b series: classical fidelity vs state width for one scheme
/// and noise level.
#[derive(Debug, Clone)]
pub struct CswapFidelitySeries {
    /// The CSWAP realisation.
    pub scheme: CswapScheme,
    /// Two-qubit error rate.
    pub p: f64,
    /// `(n, fidelity)` points.
    pub points: Vec<(usize, f64)>,
    /// Least-squares fit against `n`.
    pub fit: mathkit::stats::LinearFit,
}

/// Sweeps Fig 9b: `n` over `widths` for each scheme × noise level, point
/// by point. Grid point `idx` (scheme-major, then noise level, then
/// width) characterises its primitives under `exec.derive(3·idx)`,
/// draws its inputs from `exec.derive(3·idx + 1)`'s root seed and runs
/// [`cswap_classical_fidelity`] under `exec.derive(3·idx + 2)`, so the
/// figure is deterministic in every execution mode.
pub fn fig9b(
    exec: &Executor,
    widths: &[usize],
    noise_levels: &[f64],
    characterize_shots: usize,
    shots_per_input: usize,
) -> Vec<CswapFidelitySeries> {
    use rand::SeedableRng;
    let mut series = Vec::new();
    let mut idx = 0u64;
    for scheme in [CswapScheme::Teledata, CswapScheme::Telegate] {
        for &p in noise_levels {
            let mut points = Vec::with_capacity(widths.len());
            for &n in widths {
                let model =
                    CswapNoiseModel::characterize(&exec.derive(3 * idx), n, p, characterize_shots);
                let mut input_rng = StdRng::seed_from_u64(exec.derive(3 * idx + 1).root_seed());
                let inputs = fig9b_inputs(n, &mut input_rng);
                let fidelity = cswap_classical_fidelity(
                    &exec.derive(3 * idx + 2),
                    scheme,
                    &model,
                    &inputs,
                    shots_per_input,
                );
                points.push((n, fidelity));
                idx += 1;
            }
            let xs: Vec<f64> = points.iter().map(|&(n, _)| n as f64).collect();
            let ys: Vec<f64> = points.iter().map(|&(_, f)| f).collect();
            series.push(CswapFidelitySeries {
                scheme,
                p,
                fit: linear_fit(&xs, &ys),
                points,
            });
        }
    }
    series
}

/// Renders Fig 9b series as a table.
pub fn fig9b_result(series: &[CswapFidelitySeries]) -> ResultTable {
    let mut t = ResultTable::new(
        "Fig 9b CSWAP classical fidelity",
        &["scheme", "p2q", "n", "fidelity", "fit_slope"],
    );
    for s in series {
        for &(n, f) in &s.points {
            t.push_row(vec![
                s.scheme.to_string(),
                format!("{}", s.p),
                format!("{n}"),
                ResultTable::fmt_f64(f),
                ResultTable::fmt_f64(s.fit.slope),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_bits_swap_on_control() {
        // n = 1: input |1;0;1⟩ → |1;1;0⟩.
        assert_eq!(ideal_cswap_bits(1, 0b101), vec![true, true, false]);
        // Control 0: unchanged.
        assert_eq!(ideal_cswap_bits(1, 0b001), vec![false, false, true]);
    }

    #[test]
    fn noiseless_shots_match_ideal() {
        let mut rng = StdRng::seed_from_u64(1);
        let exec = Executor::sequential(1);
        for scheme in [CswapScheme::Teledata, CswapScheme::Telegate] {
            let model = CswapNoiseModel::characterize(&exec, 2, 0.0, 200);
            let inputs = fig9b_inputs(2, &mut rng);
            let f = cswap_classical_fidelity(&exec, scheme, &model, &inputs, 5);
            assert_eq!(f, 1.0, "{scheme}");
        }
    }

    #[test]
    fn exhaustive_inputs_below_300() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(fig9b_inputs(1, &mut rng).len(), 8);
        assert_eq!(fig9b_inputs(3, &mut rng).len(), 128);
        assert_eq!(fig9b_inputs(4, &mut rng).len(), 300);
    }

    #[test]
    fn fidelity_is_mode_invariant() {
        let e4 = Executor::pooled(engine::Engine::with_threads(4), 3);
        let e1 = Executor::sequential(3);
        let m4 = CswapNoiseModel::characterize(&e4, 2, 0.003, 2_000);
        let m1 = CswapNoiseModel::characterize(&e1, 2, 0.003, 2_000);
        let mut rng = StdRng::seed_from_u64(1);
        let inputs = fig9b_inputs(2, &mut rng);
        let f4 =
            cswap_classical_fidelity(&e4.with_seed(7), CswapScheme::Teledata, &m4, &inputs, 40);
        let f1 =
            cswap_classical_fidelity(&e1.with_seed(7), CswapScheme::Teledata, &m1, &inputs, 40);
        assert_eq!(f4, f1, "execution mode changed the result");
        assert!((0.0..=1.0).contains(&f4));
    }

    #[test]
    fn pooled_noiseless_fidelity_is_one() {
        let exec = Executor::pooled(engine::Engine::with_threads(2), 11);
        for scheme in [CswapScheme::Teledata, CswapScheme::Telegate] {
            let model = CswapNoiseModel::characterize(&exec, 2, 0.0, 200);
            let mut rng = StdRng::seed_from_u64(2);
            let inputs = fig9b_inputs(2, &mut rng);
            let f = cswap_classical_fidelity(&exec.with_seed(13), scheme, &model, &inputs, 5);
            assert_eq!(f, 1.0, "{scheme}");
        }
    }

    #[test]
    fn fig9b_shape_and_bounds() {
        let exec = Executor::pooled(engine::Engine::with_threads(4), 21);
        let series = fig9b(&exec, &[1, 2], &[0.005], 1_500, 20);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            for &(_, f) in &s.points {
                assert!((0.0..=1.0).contains(&f));
            }
        }
    }

    #[test]
    fn fidelity_decreases_with_n_and_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let exec = Executor::sequential(3);
        let m1 = CswapNoiseModel::characterize(&exec.derive(0), 1, 0.003, 5_000);
        let m4 = CswapNoiseModel::characterize(&exec.derive(1), 4, 0.003, 5_000);
        let i1 = fig9b_inputs(1, &mut rng);
        let i4 = fig9b_inputs(4, &mut rng);
        let f1 = cswap_classical_fidelity(&exec.derive(2), CswapScheme::Teledata, &m1, &i1, 60);
        let f4 = cswap_classical_fidelity(&exec.derive(3), CswapScheme::Teledata, &m4, &i4, 60);
        assert!(f4 < f1, "{f4} !< {f1}");

        let m1_hot = CswapNoiseModel::characterize(&exec.derive(4), 1, 0.01, 5_000);
        let f1_hot =
            cswap_classical_fidelity(&exec.derive(5), CswapScheme::Teledata, &m1_hot, &i1, 60);
        assert!(f1_hot < f1);
    }

    #[test]
    fn teledata_beats_telegate_on_average() {
        // The paper reports telegate ≈ 0.84 % below teledata (§5.2).
        let mut rng = StdRng::seed_from_u64(4);
        let exec = Executor::sequential(4);
        let mut td_sum = 0.0;
        let mut tg_sum = 0.0;
        for n in [2usize, 3] {
            let model = CswapNoiseModel::characterize(&exec.derive(n as u64), n, 0.005, 8_000);
            let inputs = fig9b_inputs(n, &mut rng);
            td_sum += cswap_classical_fidelity(
                &exec.derive(10 + n as u64),
                CswapScheme::Teledata,
                &model,
                &inputs,
                80,
            );
            tg_sum += cswap_classical_fidelity(
                &exec.derive(20 + n as u64),
                CswapScheme::Telegate,
                &model,
                &inputs,
                80,
            );
        }
        assert!(
            td_sum > tg_sum,
            "teledata {td_sum} should beat telegate {tg_sum}"
        );
    }

    #[test]
    fn fig9b_series_have_negative_slope() {
        let series = fig9b(&Executor::sequential(5), &[1, 2, 3], &[0.005], 3_000, 40);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert!(s.fit.slope < 0.0, "{}: slope {}", s.scheme, s.fit.slope);
        }
        let text = fig9b_result(&series).to_text();
        assert!(text.contains("teledata") && text.contains("telegate"));
    }
}
