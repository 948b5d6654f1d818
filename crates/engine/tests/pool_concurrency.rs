//! The execution pool under load: concurrent callers, amp-parallel
//! shots whose workers meet at barriers, and panics inside a fold. Every
//! result must equal the sequential engine's bit for bit, and nothing
//! may hang.

use circuit::circuit::Circuit;
use compas::cswap::CswapScheme;
use compas::swap_test::CompasProtocol;
use engine::{Engine, EngineConfig, Executor};
use mathkit::matrix::Matrix;
use qsim::qrand::random_density_matrix;
use qsim::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

/// A dynamic circuit wide enough that its kernels split across amp
/// workers: a layer, a measurement with feed-forward, a second layer,
/// terminal measurements.
fn wide_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n, n);
    for q in 0..n {
        c.rx(q, 0.3 + 0.05 * q as f64);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1).rz(q + 1, 0.4 + 0.03 * q as f64);
    }
    c.measure(3, 3).cond_x(n - 2, &[3]);
    for q in 0..n {
        c.ry(q, 0.2 + 0.07 * q as f64);
    }
    c.cx(n - 1, 0).h(n - 1);
    for q in 0..n {
        c.measure(q, q);
    }
    c
}

fn states() -> Vec<Matrix> {
    let mut rng = StdRng::seed_from_u64(105);
    (0..3).map(|_| random_density_matrix(1, &mut rng)).collect()
}

#[test]
fn concurrent_pooled_estimates_and_amp_shots_equal_the_sequential_engine() {
    const N: usize = 16;
    let circuit = wide_circuit(N);
    let states = states();
    let proto = CompasProtocol::with_bell_error(3, 1, CswapScheme::Teledata, 0.01);
    let seeds = [3u64, 11, 29, 41];
    let reference: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let exec = Executor::sequential(seed);
            (
                proto.estimate(&states, 128, &exec),
                exec.sample_shots(&circuit, &StateVector::new(N), 3),
            )
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    thread::scope(|scope| {
        for (caller, &seed) in seeds.iter().enumerate() {
            let (tx, circuit, states, proto) = (tx.clone(), &circuit, &states, &proto);
            scope.spawn(move || {
                let pooled = Engine::new(EngineConfig {
                    threads: 2 + caller % 2,
                    chunk_size: 7,
                    ..EngineConfig::default()
                });
                let amp = EngineConfig::with_threads(2)
                    .with_amp_threads(2 + caller % 2)
                    .with_amp_threshold(0);
                for _ in 0..2 {
                    let estimate =
                        proto.estimate(states, 128, &Executor::pooled(pooled.clone(), seed));
                    let counts = Executor::pooled(Engine::new(amp.clone()), seed).sample_shots(
                        circuit,
                        &StateVector::new(N),
                        3,
                    );
                    tx.send((caller, estimate, counts)).unwrap();
                }
            });
        }
        drop(tx);
        for _ in 0..2 * seeds.len() {
            let (caller, estimate, counts) = rx
                .recv_timeout(Duration::from_secs(300))
                .expect("a concurrent caller hung");
            assert_eq!(estimate, reference[caller].0, "caller {caller}: estimate");
            assert_eq!(
                counts, reference[caller].1,
                "caller {caller}: amp-parallel counts"
            );
        }
    });
}

#[test]
fn a_panicking_step_reaches_the_caller_and_the_pool_serves_on() {
    let exec = Executor::pooled(
        Engine::new(EngineConfig {
            threads: 3,
            chunk_size: 16,
            ..EngineConfig::default()
        }),
        5,
    );
    let pred = |_: u64, rng: &mut StdRng| rng.random::<f64>() < 0.3;
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        exec.run_count(1_000, |shot, rng| {
            assert_ne!(shot, 777, "shot 777 fails");
            pred(shot, rng)
        })
    }));
    let payload = caught.expect_err("the step's panic reaches the caller");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(message.contains("shot 777 fails"), "{message}");
    for _ in 0..3 {
        assert_eq!(
            exec.run_count(1_000, pred),
            Executor::sequential(5).run_count(1_000, pred)
        );
    }
}
