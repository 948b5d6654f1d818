//! The execution pool's steady state creates no thread: once a warm-up
//! op has started the helpers a configuration needs, every later
//! shot-parallel fold and every amp-parallel shot runs on them.
//!
//! This lives in its own integration-test binary with a single test, so
//! no sibling test holds the pool's helpers while this one counts them.

use circuit::circuit::Circuit;
use engine::{Engine, EngineConfig, Executor};
use qsim::statevector::StateVector;
use rand::Rng;
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// The id of a freshly spawned thread. `ThreadId`s count up from one
/// process-wide counter and are never reused, so two of these differ
/// by one exactly when no other thread was created in between.
fn fresh_id() -> u64 {
    let id = thread::spawn(|| thread::current().id()).join().unwrap();
    let text = format!("{id:?}");
    text.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or_else(|_| panic!("unexpected ThreadId format {text}"))
}

/// A dynamic 12-qubit circuit: two kernel segments around a measurement
/// with feed-forward, then terminal measurements.
fn dynamic_circuit(n: usize) -> Circuit {
    let mut c = Circuit::new(n, n);
    for q in 0..n {
        c.rx(q, 0.3 + 0.05 * q as f64);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure(0, 0).cond_x(n - 1, &[0]);
    for q in 0..n {
        c.ry(q, 0.2 + 0.03 * q as f64).measure(q, q);
    }
    c
}

#[test]
fn warm_ops_create_no_thread() {
    for threads in [2, 3] {
        let engine = Engine::new(EngineConfig {
            threads,
            chunk_size: 64,
            ..EngineConfig::default()
        });
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let op = |seed: u64| {
            // Every worker builds one workspace per op, so every worker
            // of the op is recorded, whether or not it claims a chunk.
            Executor::pooled(engine.clone(), seed).run_count_with(
                512,
                || seen.lock().unwrap().insert(thread::current().id()),
                |_, _, rng| rng.random::<f64>() < 0.5,
            )
        };
        op(0);
        let warm = seen.lock().unwrap().clone();
        assert_eq!(warm.len(), threads, "{threads} threads");
        let before = fresh_id();
        for seed in 1..=50 {
            op(seed);
        }
        assert_eq!(
            fresh_id(),
            before + 1,
            "{threads} threads: a fold created a thread"
        );
        assert_eq!(*seen.lock().unwrap(), warm, "{threads} threads");
    }

    let circuit = dynamic_circuit(12);
    for amp_threads in [2, 3] {
        let config = EngineConfig::with_threads(2)
            .with_amp_threads(amp_threads)
            .with_amp_threshold(0);
        let exec = Executor::pooled(Engine::new(config), 7);
        let shot = |seed: u64| {
            exec.with_seed(seed)
                .sample_shots(&circuit, &StateVector::new(12), 1)
        };
        shot(0);
        let before = fresh_id();
        for seed in 1..=50 {
            shot(seed);
        }
        assert_eq!(
            fresh_id(),
            before + 1,
            "{amp_threads} amp threads: an amp-parallel shot created a thread"
        );
    }
}
