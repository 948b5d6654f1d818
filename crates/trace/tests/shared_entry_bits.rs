//! Bits under a shared admission-cache entry.
//!
//! A scheduler keeps each circuit's prepared job — compiled program,
//! noiseless prefix and the tree of branch states its shots grow — for
//! as long as its cache entry lives, and a request under a fresh seed
//! reseeds it. These tests serve registered workloads under several
//! seeds through one `Scheduler`, so every seed after the first walks
//! the entry (and the tree) the earlier seeds grew, and hold each tally
//! to `Backend::sample_shots` on a fresh prepare: sharing the entry
//! must not change a record.

use circuit::qasm::to_qasm3;
use engine::{Backend, Counts, Engine, Executor};
use service::{Response, RunRequest, Scheduler, SchedulerConfig, Submission};
use trace::find;

/// Serves one run on `sched`, executing its slices on `engine`.
fn serve(sched: &Scheduler, engine: &Engine, run: &RunRequest) -> Counts {
    let pending = match sched.submit(None, run) {
        Submission::Pending(pending) => pending,
        Submission::Immediate(response) => panic!("expected a fresh job, got {response:?}"),
    };
    while sched.stats().in_flight > 0 {
        let task = sched.next_slice().expect("work pending");
        let counts = task.prepared.run_range(engine, task.range.clone());
        sched.complete_slice(&task.key, counts);
    }
    match pending.recv().expect("a response") {
        Response::Ok { tallies, .. } => tallies,
        other => panic!("expected ok, got {other:?}"),
    }
}

fn request(qasm: &str, shots: u64, seed: u64, backend: Backend) -> RunRequest {
    RunRequest::new(qasm, shots, seed, backend.name())
}

#[test]
fn fresh_seeds_on_one_entry_tally_as_fresh_prepares() {
    // ghz12_sv: the served GHZ-12, a root and two leaves; zz14_sv: a
    // tree that exhausts its budget; compas_teledata_sv: the paper's
    // circuit, feed-forward past the prefix; fig9a: stabilizer;
    // appendix_b: density.
    let engine = Engine::with_threads(2);
    for name in [
        "ghz12_sv",
        "zz14_sv",
        "compas_teledata_sv",
        "fig9a",
        "appendix_b",
    ] {
        let workload = find(name).expect("a registered workload");
        let circuit = (workload.build)();
        let qasm = to_qasm3(&circuit);
        let registry = obs::Registry::default();
        let sched = Scheduler::new(SchedulerConfig {
            metrics: Some(registry.clone()),
            ..SchedulerConfig::default()
        });
        let seeds = 1..=8u64;
        for seed in seeds.clone() {
            let served = serve(
                &sched,
                &engine,
                &request(&qasm, workload.shots, seed, workload.backend),
            );
            let direct = workload
                .backend
                .sample_shots(
                    &circuit,
                    workload.shots as usize,
                    &Executor::sequential(seed),
                )
                .expect("the workload runs on its backend");
            assert_eq!(served, direct, "{name}, seed {seed}");
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("admission.parses"), Some(1), "{name}");
        assert_eq!(snapshot.counter("prepared.misses"), Some(1), "{name}");
        assert_eq!(snapshot.counter("prepared.hits"), Some(7), "{name}");
    }
}

#[test]
fn a_seed_served_after_another_tallies_as_it_does_alone() {
    let engine = Engine::with_threads(2);
    for name in ["zz14_sv", "compas_teledata_sv"] {
        let workload = find(name).expect("a registered workload");
        let qasm = to_qasm3(&(workload.build)());
        let run = |seed| request(&qasm, workload.shots, seed, workload.backend);
        let alone = serve(
            &Scheduler::new(SchedulerConfig::default()),
            &engine,
            &run(22),
        );
        let shared = Scheduler::new(SchedulerConfig::default());
        serve(&shared, &engine, &run(11));
        assert_eq!(serve(&shared, &engine, &run(22)), alone, "{name}");
    }
}
