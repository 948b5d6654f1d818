//! The admission cache seen through a scheduler's counters: textual
//! variants of one circuit are separate entries that tally alike, and
//! any number of distinct circuits stays inside the cache's byte bound.

use circuit::circuit::Circuit;
use circuit::qasm::to_qasm3;
use engine::{Backend, Counts, Engine, Executor};
use service::{AdmissionCache, Response, RunRequest, Scheduler, SchedulerConfig, Submission};

fn instrumented() -> (Scheduler, obs::Registry) {
    let registry = obs::Registry::default();
    let sched = Scheduler::new(SchedulerConfig {
        metrics: Some(registry.clone()),
        ..SchedulerConfig::default()
    });
    (sched, registry)
}

/// Serves one run, executing its slices here.
fn serve(sched: &Scheduler, run: &RunRequest) -> Counts {
    let Submission::Pending(pending) = sched.submit(None, run) else {
        panic!("expected a fresh job");
    };
    let engine = Engine::sequential();
    while sched.stats().in_flight > 0 {
        let task = sched.next_slice().expect("work pending");
        let counts = task.prepared.run_range(&engine, task.range.clone());
        sched.complete_slice(&task.key, counts);
    }
    match pending.recv().expect("a response") {
        Response::Ok { tallies, .. } => tallies,
        other => panic!("expected ok, got {other:?}"),
    }
}

#[test]
fn textual_variants_are_separate_entries_with_equal_tallies() {
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).t(1).cx(1, 2);
    for q in 0..3 {
        c.measure(q, q);
    }
    let canonical = to_qasm3(&c);
    let variant = format!("// the same circuit\n{}", canonical.replace(";\n", ";\n\n"));
    let (sched, registry) = instrumented();
    // Each text under two seeds: its first request prepares, its second
    // reseeds the entry's job.
    for (seed, text) in [
        (1, &canonical),
        (2, &variant),
        (3, &canonical),
        (4, &variant),
    ] {
        let served = serve(&sched, &RunRequest::new(text.as_str(), 300, seed, "auto"));
        let direct = Backend::Auto
            .sample_shots(&c, 300, &Executor::sequential(seed))
            .unwrap();
        assert_eq!(served, direct, "seed {seed}");
    }
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("admission.parses"), Some(2), "two entries");
    assert_eq!(
        snapshot.counter("prepared.misses"),
        Some(2),
        "one job per entry"
    );
    assert_eq!(snapshot.counter("prepared.hits"), Some(2));
}

#[test]
fn distinct_circuits_stay_inside_the_byte_bound() {
    // 13-qubit statevector circuits are charged ≈ 400 KiB each (their
    // prefix and its tree's budget), so 200 of them overflow the bound.
    let circuit = |i: usize| {
        let mut c = Circuit::new(13, 1);
        c.rx(0, 0.001 * (i + 1) as f64);
        for q in 1..13 {
            c.cx(q - 1, q);
        }
        c.measure(12, 0);
        to_qasm3(&c)
    };
    let bound = AdmissionCache::new(None, "").bound() as u64;
    let (sched, registry) = instrumented();
    let bytes = || registry.snapshot().gauge("prepared.bytes").unwrap_or(0);
    let mut peak = 0;
    for i in 0..200 {
        serve(&sched, &RunRequest::new(circuit(i), 1, 7, "sv"));
        assert!(bytes() <= bound, "request {i}: {} > {bound}", bytes());
        peak = peak.max(bytes());
    }
    assert!(peak > bound / 2, "the bound was never approached: {peak}");
    // The first circuit was evicted: it parses again.
    let parses = || registry.snapshot().counter("admission.parses");
    assert_eq!(parses(), Some(200));
    serve(&sched, &RunRequest::new(circuit(0), 1, 8, "sv"));
    assert_eq!(parses(), Some(201));
}
