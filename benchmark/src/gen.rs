//! Seeded input generation. Everything the program under test receives
//! is derived here from `--seed`: request root seeds, the ZZ angles,
//! the input density matrices and the warm key order. The same seed
//! gives byte-identical inputs.

use circuit::circuit::Circuit;
use circuit::noise::NoiseModel;
use engine::derive_stream_seed;
use mathkit::matrix::Matrix;
use qsim::qrand::random_density_matrix;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use service::{Request, RunRequest};

/// Width of the served GHZ circuit.
pub const GHZ_QUBITS: usize = 12;
/// Depolarizing strength of the served GHZ circuit.
pub const GHZ_NOISE: f64 = 0.002;
/// Width of the `lib-wide-sv` state (2²⁰ amplitudes, 16 MiB).
pub const WIDE_QUBITS: usize = 20;
/// Mixer + ZZ layers of the `lib-wide-sv` circuit.
pub const WIDE_LAYERS: usize = 2;
/// Distinct keys the warm workload cycles through.
pub const WARM_KEYS: usize = 128;

/// Independent sub-streams of the benchmark seed.
#[derive(Clone, Copy)]
enum Stream {
    RootSeeds = 1,
    Angles = 2,
    States = 3,
    WarmOrder = 4,
}

fn stream(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(derive_stream_seed(seed, stream as u64))
}

/// Hands out request root seeds, each exactly once. Seeds stay below
/// 2⁴¹ so they survive the wire's f64-backed JSON numbers unchanged.
#[derive(Debug, Clone)]
pub struct RootSeeds {
    next: u64,
}

impl RootSeeds {
    /// One of 16 disjoint sequences of `seed`, 2³⁶ seeds each, so a
    /// set-up that is repeated never reuses a root seed.
    pub fn lane(seed: u64, lane: u64) -> RootSeeds {
        assert!(lane < 16, "lane {lane} out of range");
        RootSeeds {
            next: (stream(seed, Stream::RootSeeds).next_u64() >> 24) + (lane << 36),
        }
    }

    /// The next unused root seed.
    pub fn fresh(&mut self) -> u64 {
        self.next += 1;
        self.next
    }
}

/// The served circuit: a GHZ chain under standard depolarizing noise,
/// every qubit measured (the `service_scaling` shape).
pub fn ghz_circuit() -> Circuit {
    let mut prep = Circuit::new(GHZ_QUBITS, GHZ_QUBITS);
    prep.h(0);
    for q in 1..GHZ_QUBITS {
        prep.cx(q - 1, q);
    }
    let mut noisy = NoiseModel::standard(GHZ_NOISE).apply(&prep);
    for q in 0..GHZ_QUBITS {
        noisy.measure(q, q);
    }
    noisy
}

/// The `lib-wide-sv` circuit: the `backend_scaling` ZZ shape (an `rx`
/// mixer layer, then a `cx·rz·cx` chain that fuses into 4×4 kernels),
/// every angle jittered by ±0.02 rad from the seed, all qubits measured.
pub fn zz_circuit(seed: u64) -> Circuit {
    let mut rng = stream(seed, Stream::Angles);
    let mut jitter = || 0.04 * (rng.random::<f64>() - 0.5);
    let n = WIDE_QUBITS;
    let mut c = Circuit::new(n, n);
    for layer in 0..WIDE_LAYERS {
        for q in 0..n {
            c.rx(q, 0.3 + 0.05 * (q + layer) as f64 + jitter());
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.rz(q + 1, 0.4 + 0.03 * q as f64 + jitter());
            c.cx(q, q + 1);
        }
    }
    for q in 0..n {
        c.measure(q, q);
    }
    c
}

/// The `lib-compas` inputs: `k` random one-qubit density matrices.
pub fn input_states(seed: u64, k: usize) -> Vec<Matrix> {
    let mut rng = stream(seed, Stream::States);
    (0..k).map(|_| random_density_matrix(1, &mut rng)).collect()
}

/// The order in which the warm workload visits its keys: a seeded
/// Fisher–Yates shuffle of `0..WARM_KEYS`.
pub fn warm_order(seed: u64) -> Vec<usize> {
    let mut rng = stream(seed, Stream::WarmOrder);
    let mut order: Vec<usize> = (0..WARM_KEYS).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// One wire request line for `qasm`.
pub fn request_line(qasm: &str, shots: u64, root_seed: u64, backend: &str) -> String {
    Request::run(None, RunRequest::new(qasm, shots, root_seed, backend)).to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::qasm::to_qasm3;

    fn lines(seed: u64) -> Vec<String> {
        let qasm = to_qasm3(&ghz_circuit());
        let mut seeds = RootSeeds::lane(seed, 0);
        (0..4)
            .map(|_| request_line(&qasm, 2000, seeds.fresh(), "auto"))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(lines(11), lines(11));
        assert_eq!(to_qasm3(&zz_circuit(11)), to_qasm3(&zz_circuit(11)));
        assert_eq!(warm_order(11), warm_order(11));
        let (a, b) = (input_states(11, 3), input_states(11, 3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        assert_ne!(lines(11), lines(12));
        assert_ne!(to_qasm3(&zz_circuit(11)), to_qasm3(&zz_circuit(12)));
        assert_ne!(warm_order(11), warm_order(12));
        assert_ne!(
            input_states(11, 3)[0].as_slice(),
            input_states(12, 3)[0].as_slice()
        );
    }

    #[test]
    fn root_seeds_are_distinct_and_wire_exact() {
        let mut seeds = RootSeeds::lane(u64::MAX, 0);
        let a = seeds.fresh();
        let b = seeds.fresh();
        assert_ne!(a, b);
        assert!(RootSeeds::lane(u64::MAX, 15).fresh() < 1 << 41);
        assert!(RootSeeds::lane(7, 1).fresh() > RootSeeds::lane(7, 0).fresh() + (1 << 35));
        let line = request_line("OPENQASM 3.0;", 1, b, "auto");
        match Request::from_line(&line).unwrap().op {
            service::Op::Run(run) => assert_eq!(run.root_seed, b),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warm_order_is_a_permutation() {
        let mut order = warm_order(5);
        order.sort_unstable();
        assert_eq!(order, (0..WARM_KEYS).collect::<Vec<_>>());
    }
}
