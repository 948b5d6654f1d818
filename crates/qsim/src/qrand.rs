//! Random quantum objects: Paulis, Haar-ish pure states, and random
//! density matrices, plus eigen-sampling of mixed states for trajectory
//! simulation.
//!
//! ```
//! use qsim::qrand::random_density_matrix;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let rho = random_density_matrix(2, &mut rng);
//! assert!((rho.trace().re - 1.0).abs() < 1e-10);
//! assert!(rho.is_hermitian(1e-10));
//! ```

use circuit::gate::Gate;
use mathkit::complex::{c64, Complex};
use mathkit::eigen::eigh;
use mathkit::matrix::Matrix;
use rand::Rng;

/// Whether a depolarizing site of probability `p` fires: one uniform
/// draw, `u < p`, that reads no state. [`SimState::step`]'s site and
/// the noiseless-prefix look-ahead ([`NoiselessPrefix::look_ahead`])
/// both test sites here, so they consume a shot's stream alike.
///
/// [`SimState::step`]: crate::sim::SimState::step
/// [`NoiselessPrefix::look_ahead`]: crate::sim::NoiselessPrefix::look_ahead
pub fn site_fires(p: f64, rng: &mut impl Rng) -> bool {
    rng.random::<f64>() < p
}

/// Draws the code of a uniform non-identity Pauli on `k` qubits: an
/// integer in `1..=4ᵏ − 1` that [`pauli_gates`] decodes. One
/// `random_range` draw — the whole randomness of a firing depolarizing
/// site, so backends that tabulate the site's Paulis ahead of time (the
/// stabilizer replay) consume the stream exactly as [`random_pauli_on`]
/// does.
///
/// # Panics
///
/// Panics unless `k` is 1 or 2.
pub fn random_pauli_code(k: usize, rng: &mut impl Rng) -> usize {
    assert!((1..=2).contains(&k), "depolarizing sites cover 1–2 qubits");
    rng.random_range(1..=4usize.pow(k as u32) - 1) // exclude the identity
}

/// Decodes a Pauli `code` on `qubits` into single-qubit Pauli gates
/// (identity factors omitted): qubit `i` reads bits `2i..2i + 2` of the
/// code, `0` = I, `1` = X, `2` = Y, `3` = Z.
pub fn pauli_gates(code: usize, qubits: &[usize]) -> impl Iterator<Item = Gate> + '_ {
    qubits
        .iter()
        .enumerate()
        .filter_map(move |(i, &q)| match (code >> (2 * i)) & 3 {
            1 => Some(Gate::X(q)),
            2 => Some(Gate::Y(q)),
            3 => Some(Gate::Z(q)),
            _ => None,
        })
}

/// Samples a uniform non-identity Pauli on the given qubits, returned as a
/// list of single-qubit Pauli gates (identity factors omitted).
///
/// For one qubit the result is uniform over {X, Y, Z}; for two qubits it is
/// uniform over the 15 non-identity two-qubit Paulis, matching the
/// depolarizing channels of the paper's §5.1.
pub fn random_pauli_on(qubits: &[usize], rng: &mut impl Rng) -> Vec<Gate> {
    pauli_gates(random_pauli_code(qubits.len(), rng), qubits).collect()
}

/// A Haar-like random pure state: complex Gaussian amplitudes, normalized.
pub fn random_pure_state(num_qubits: usize, rng: &mut impl Rng) -> Vec<Complex> {
    let dim = 1usize << num_qubits;
    let mut amps: Vec<Complex> = (0..dim)
        .map(|_| c64(gaussian(rng), gaussian(rng)))
        .collect();
    let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    for a in &mut amps {
        *a = a.scale(1.0 / norm);
    }
    amps
}

/// A random full-rank density matrix: `ρ = G G† / tr(G G†)` for a complex
/// Gaussian matrix `G` (a Wishart sample, full rank with probability 1).
pub fn random_density_matrix(num_qubits: usize, rng: &mut impl Rng) -> Matrix {
    let dim = 1usize << num_qubits;
    let mut g = Matrix::zeros(dim, dim);
    for i in 0..dim {
        for j in 0..dim {
            g[(i, j)] = c64(gaussian(rng), gaussian(rng));
        }
    }
    let w = &g * &g.dagger();
    let tr = w.trace().re;
    w.scale(c64(1.0 / tr, 0.0))
}

/// A random rank-`rank` density matrix built from `rank` random orthogonal
/// pure states with random (normalized) weights.
///
/// # Panics
///
/// Panics if `rank` is zero or exceeds the Hilbert-space dimension.
pub fn random_density_matrix_of_rank(num_qubits: usize, rank: usize, rng: &mut impl Rng) -> Matrix {
    let dim = 1usize << num_qubits;
    assert!(rank >= 1 && rank <= dim, "rank must be in 1..=dim");
    // Draw `rank` Gaussian vectors and Gram–Schmidt them.
    let mut vectors: Vec<Vec<Complex>> = Vec::with_capacity(rank);
    while vectors.len() < rank {
        let mut v = random_pure_state(num_qubits, rng);
        for u in &vectors {
            let overlap: Complex = u.iter().zip(&v).map(|(a, b)| a.conj() * *b).sum();
            for (vi, ui) in v.iter_mut().zip(u) {
                *vi -= overlap * *ui;
            }
        }
        let norm = v.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        if norm < 1e-8 {
            continue; // rare degenerate draw; resample
        }
        for a in &mut v {
            *a = a.scale(1.0 / norm);
        }
        vectors.push(v);
    }
    let mut weights: Vec<f64> = (0..rank).map(|_| rng.random_range(0.05..1.0)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let mut rho = Matrix::zeros(dim, dim);
    for (w, v) in weights.iter().zip(&vectors) {
        for i in 0..dim {
            for j in 0..dim {
                rho[(i, j)] += v[i] * v[j].conj() * *w;
            }
        }
    }
    rho
}

/// The eigendecomposition of a density matrix as an ensemble of pure
/// states with probabilities, for trajectory sampling.
#[derive(Debug, Clone)]
pub struct PureEnsemble {
    /// Ensemble probabilities (the eigenvalues, clipped at zero).
    pub probs: Vec<f64>,
    /// Pure states (the eigenvectors, column-extracted).
    pub states: Vec<Vec<Complex>>,
}

impl PureEnsemble {
    /// Decomposes `rho` into its eigen-ensemble.
    ///
    /// Eigenvalues below `1e-12` are dropped; the rest are renormalized.
    ///
    /// # Panics
    ///
    /// Panics if `rho` is not Hermitian or has trace far from 1.
    pub fn from_density(rho: &Matrix) -> Self {
        assert!(
            (rho.trace().re - 1.0).abs() < 1e-6,
            "density matrix must have unit trace"
        );
        let eig = eigh(rho);
        let dim = rho.rows();
        let mut probs = Vec::new();
        let mut states = Vec::new();
        for (k, &val) in eig.values.iter().enumerate() {
            if val > 1e-12 {
                probs.push(val);
                states.push((0..dim).map(|i| eig.vectors[(i, k)]).collect());
            }
        }
        let total: f64 = probs.iter().sum();
        for p in &mut probs {
            *p /= total;
        }
        PureEnsemble { probs, states }
    }

    /// Samples one pure state from the ensemble.
    pub fn sample(&self, rng: &mut impl Rng) -> &[Complex] {
        let mut r = rng.random::<f64>();
        for (p, s) in self.probs.iter().zip(&self.states) {
            r -= p;
            if r <= 0.0 {
                return s;
            }
        }
        self.states.last().expect("ensemble is never empty")
    }
}

/// A standard-normal sample via Box–Muller.
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_pauli_never_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let gates = random_pauli_on(&[0], &mut rng);
            assert_eq!(gates.len(), 1);
        }
        let mut seen_len_one = false;
        let mut seen_len_two = false;
        for _ in 0..200 {
            let gates = random_pauli_on(&[0, 1], &mut rng);
            assert!(!gates.is_empty(), "two-qubit depolarizing drew identity");
            match gates.len() {
                1 => seen_len_one = true,
                2 => seen_len_two = true,
                n => panic!("unexpected Pauli weight {n}"),
            }
        }
        assert!(seen_len_one && seen_len_two);
    }

    #[test]
    fn two_qubit_pauli_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = std::collections::HashMap::new();
        let shots = 15_000;
        for _ in 0..shots {
            let gates = random_pauli_on(&[0, 1], &mut rng);
            let key: Vec<String> = gates.iter().map(|g| g.to_string()).collect();
            *counts.entry(key.join(";")).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 15);
        for (k, v) in counts {
            let frac = v as f64 / shots as f64;
            assert!((frac - 1.0 / 15.0).abs() < 0.01, "{k}: {frac}");
        }
    }

    #[test]
    fn random_pure_state_is_normalized() {
        let mut rng = StdRng::seed_from_u64(2);
        let amps = random_pure_state(3, &mut rng);
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_density_matrix_is_valid_state() {
        let mut rng = StdRng::seed_from_u64(3);
        let rho = random_density_matrix(2, &mut rng);
        assert!(rho.is_hermitian(1e-10));
        assert!((rho.trace().re - 1.0).abs() < 1e-10);
        let eig = eigh(&rho);
        for v in eig.values {
            assert!(v > -1e-10, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn ranked_density_matrix_has_requested_rank() {
        let mut rng = StdRng::seed_from_u64(4);
        let rho = random_density_matrix_of_rank(2, 2, &mut rng);
        let eig = eigh(&rho);
        let nonzero = eig.values.iter().filter(|v| **v > 1e-9).count();
        assert_eq!(nonzero, 2);
    }

    #[test]
    fn ensemble_reconstructs_density_matrix() {
        let mut rng = StdRng::seed_from_u64(5);
        let rho = random_density_matrix(1, &mut rng);
        let ens = PureEnsemble::from_density(&rho);
        let dim = 2;
        let mut recon = Matrix::zeros(dim, dim);
        for (p, s) in ens.probs.iter().zip(&ens.states) {
            for i in 0..dim {
                for j in 0..dim {
                    recon[(i, j)] += s[i] * s[j].conj() * *p;
                }
            }
        }
        assert!(recon.max_abs_diff(&rho) < 1e-9);
    }

    #[test]
    fn ensemble_sampling_frequencies_match_probs() {
        let mut rng = StdRng::seed_from_u64(6);
        let rho = Matrix::from_real(2, 2, &[0.8, 0.0, 0.0, 0.2]);
        let ens = PureEnsemble::from_density(&rho);
        let mut hits = vec![0usize; ens.probs.len()];
        for _ in 0..5000 {
            let s = ens.sample(&mut rng);
            let idx = ens
                .states
                .iter()
                .position(|t| t.iter().zip(s).all(|(a, b)| (*a - *b).abs() < 1e-12))
                .unwrap();
            hits[idx] += 1;
        }
        for (h, p) in hits.iter().zip(&ens.probs) {
            let frac = *h as f64 / 5000.0;
            assert!((frac - p).abs() < 0.03, "{frac} vs {p}");
        }
    }
}
