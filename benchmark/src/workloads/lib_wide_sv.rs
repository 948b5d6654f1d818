//! `lib-wide-sv`: one shot of a 20-qubit ZZ circuit per op, its 16 MiB
//! amplitude space split across two amp workers.

use super::{ClientPhases, LayerCtx, Workload};
use crate::gen::{zz_circuit, RootSeeds, WIDE_QUBITS};
use crate::probes::{self, Piece};
use crate::replay::Folded;
use crate::spans::Spans;
use circuit::circuit::Circuit;
use engine::{shot_rng, Counts, Engine, EngineConfig, Executor};
use qsim::compile::compile;
use qsim::runner::{pack_cbits, run_program_into, run_program_into_parallel};
use qsim::sim::SimState;
use qsim::statevector::StateVector;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Amp workers (and shot workers, unused at one shot per op).
const THREADS: usize = 2;
/// Every `VERIFY_EVERY`-th op is re-run on a sequential executor.
const VERIFY_EVERY: usize = 16;

/// The workload, built and warmed up.
pub struct LibWideSv {
    circuit: Circuit,
    engine: Engine,
    registry: Option<obs::Registry>,
    roots: RootSeeds,
    /// Every op's `(root seed, tallies)`.
    recorded: Vec<(u64, Counts)>,
    kept: Vec<(u64, Counts)>,
    violations: Vec<String>,
}

impl LibWideSv {
    /// Builds the circuit and engine and runs two warm-up shots.
    pub fn build(seed: u64, roots: RootSeeds, instrumented: bool) -> LibWideSv {
        let registry = instrumented.then(obs::Registry::default);
        let engine = Engine::new(EngineConfig {
            threads: THREADS,
            amp_threads: THREADS,
            amp_threshold_qubits: WIDE_QUBITS,
            ..EngineConfig::default()
        });
        let engine = match &registry {
            Some(registry) => engine.with_metrics(registry),
            None => engine,
        };
        let mut workload = LibWideSv {
            circuit: zz_circuit(seed),
            engine,
            registry,
            roots,
            recorded: Vec::new(),
            kept: Vec::new(),
            violations: Vec::new(),
        };
        let clock = Spans::default();
        for _ in 0..2 {
            workload.op(&clock, false).expect("warm-up shot");
        }
        workload.recorded.clear();
        workload
    }
}

impl Workload for LibWideSv {
    fn root_span(&self) -> &'static str {
        "lib.op"
    }

    fn op(&mut self, _clock: &Spans, keep: bool) -> Result<Option<ClientPhases>, String> {
        let root_seed = self.roots.fresh();
        let counts = Executor::pooled(self.engine.clone(), root_seed).sample_shots(
            &self.circuit,
            &StateVector::new(WIDE_QUBITS),
            1,
        );
        if counts.values().sum::<usize>() != 1 {
            return Err(format!("seed {root_seed}: one shot tallied as {counts:?}"));
        }
        if keep {
            self.kept.push((root_seed, counts.clone()));
        }
        self.recorded.push((root_seed, counts));
        Ok(None)
    }

    fn verify(&mut self, problems: &mut Vec<String>) {
        problems.append(&mut self.violations);
        for (root_seed, amp) in self.recorded.iter().step_by(VERIFY_EVERY) {
            let sequential = Executor::sequential(*root_seed).sample_shots(
                &self.circuit,
                &StateVector::new(WIDE_QUBITS),
                1,
            );
            if *amp != sequential {
                problems.push(format!(
                    "seed {root_seed}: amp-parallel tallies {amp:?}, sequential {sequential:?}"
                ));
            }
        }
    }

    fn layers(&mut self, ctx: LayerCtx<'_>) {
        let LayerCtx {
            spans,
            sampled,
            metrics: m,
            host_gbps,
            ..
        } = ctx;
        probes::qsim(&self.circuit, host_gbps, m);
        probes::engine::<StateVector>(&self.circuit, 1, m);

        // Amp efficiency: the same shot on one thread against two.
        let program = compile(&self.circuit);
        let initial = StateVector::new(WIDE_QUBITS);
        let mut state = initial.clone();
        let mut cbits = Vec::new();
        let budget = Duration::from_millis(1200);
        let t_seq = probes::median_ns_prepared(
            budget,
            1,
            |_| {},
            |i| {
                let mut rng = shot_rng(0xA3, i as u64);
                run_program_into(&program, &initial, &mut state, &mut cbits, &mut rng);
            },
        );
        let t_amp = probes::median_ns_prepared(
            budget,
            1,
            |_| {},
            |i| {
                let mut rng = shot_rng(0xA3, i as u64);
                run_program_into_parallel(
                    &program, &initial, &mut state, &mut cbits, &mut rng, THREADS,
                );
            },
        );
        m.set("qsim.amp_efficiency", t_seq / (THREADS as f64 * t_amp));

        if let Some(registry) = &self.registry {
            let t0 = Instant::now();
            let snapshot = registry.snapshot();
            m.set("obs.snapshot_us", t0.elapsed().as_secs_f64() * 1e6);
            if let Some(kernel) = snapshot.histo("engine.amp_kernel").filter(|h| h.count > 0) {
                m.set(
                    "obs.engine.amp_kernel_p50_us",
                    kernel.quantile(0.5) as f64 / 1e3,
                );
            }
        }

        // ---- replay: the calls `Executor::sample_shots` makes for one
        // amp-engaged shot, kernels split across the same two workers.
        let pieces = probes::pieces(&self.circuit);
        for (op, (root_seed, live)) in sampled.iter().zip(&self.kept) {
            let mut folded = Folded::default();
            let initial = folded.stage("qsim.state_new", || StateVector::new(WIDE_QUBITS));
            folded.stage("qsim.compile", || drop(black_box(compile(&self.circuit))));
            let mut state = folded.stage("qsim.state_clone", || initial.clone());
            let mut rng = shot_rng(*root_seed, 0);
            folded.stage("qsim.copy_from", || state.copy_from(&initial));
            let mut cbits = vec![false; self.circuit.num_cbits()];
            for piece in &pieces {
                match piece {
                    Piece::Kernels(program) => folded.stage("qsim.kernels", || {
                        state.apply_compiled_parallel(program, &mut cbits, &mut rng, THREADS);
                    }),
                    Piece::Interp(instr) => folded.stage("qsim.interp", || {
                        SimState::step(&mut state, instr, &mut cbits, &mut rng);
                    }),
                }
            }
            folded.stage("qsim.state_drop", || drop((state, initial)));
            if *live != Counts::from([(pack_cbits(&cbits), 1)]) {
                self.violations.push(format!(
                    "replay of op {} diverged from the live shot",
                    op.op
                ));
            }
            folded.emit(spans, *op);
        }
    }

    fn teardown(self: Box<Self>) -> Option<Duration> {
        None
    }
}
