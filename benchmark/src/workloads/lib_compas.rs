//! `lib-compas`: the paper's own workload, called as a library. One op
//! is one 256-shot-per-channel estimate of `tr(ρ₁ρ₂ρ₃)` through the
//! teledata COMPAS protocol with noisy Bell links, on a 2-thread pool.

use super::{ClientPhases, LayerCtx, Workload};
use crate::gen::{input_states, RootSeeds};
use crate::probes::{self, Piece};
use crate::replay::Folded;
use crate::spans::Spans;
use circuit::circuit::{Basis, Instruction};
use compas::cswap::CswapScheme;
use compas::estimator::{exact_multivariate_trace, TraceEstimate};
use compas::swap_test::{interleaved_order, CompasProtocol};
use engine::{Engine, EngineConfig, Executor};
use mathkit::complex::Complex;
use mathkit::matrix::Matrix;
use qsim::compile::compile;
use qsim::qrand::PureEnsemble;
use qsim::sim::SimState;
use qsim::statevector::StateVector;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Parties (one state each).
const K: usize = 3;
/// Qubits per state.
const N: usize = 1;
/// Depolarizing strength of every Bell link.
const BELL_ERROR: f64 = 0.01;
/// Shots per measurement channel per op.
const SHOTS: usize = 256;
/// Engine threads.
const THREADS: usize = 2;
/// Shots per pool chunk: 4 chunks per channel.
const CHUNK: u64 = 64;

/// What `check` pins: the protocol's Bell-pair budget and circuit
/// depth for `(K, N)` — the paper's O(nk) and constant-depth claims at
/// this size. A refactor that drifts either fails every run.
pub const PINNED_BELL_PAIRS: usize = 5;
/// See [`PINNED_BELL_PAIRS`].
pub const PINNED_DEPTH: usize = 57;

/// Sigmas an estimate may sit from the exact trace. The Bell-link
/// noise biases the estimate by at most a few percent of `|tr|`, far
/// inside one standard error at 256 shots.
const SIGMAS: f64 = 5.0;

/// The workload, built and warmed up.
pub struct LibCompas {
    protocol: CompasProtocol,
    states: Vec<Matrix>,
    exact: Complex,
    engine: Engine,
    registry: Option<obs::Registry>,
    roots: RootSeeds,
    build: Duration,
    /// Every op's `(root seed, estimate)`.
    recorded: Vec<(u64, TraceEstimate)>,
    /// Root seeds of the ops kept for replay.
    kept: Vec<(u64, TraceEstimate)>,
    violations: Vec<String>,
}

impl LibCompas {
    /// Builds the protocol and inputs and runs two warm-up estimates.
    pub fn build(seed: u64, roots: RootSeeds, instrumented: bool) -> LibCompas {
        let t0 = Instant::now();
        let protocol = CompasProtocol::with_bell_error(K, N, CswapScheme::Teledata, BELL_ERROR);
        let build = t0.elapsed();
        let states = input_states(seed, K);
        let registry = instrumented.then(obs::Registry::default);
        let engine = Engine::new(EngineConfig {
            threads: THREADS,
            chunk_size: CHUNK,
            amp_threads: THREADS,
            ..EngineConfig::default()
        });
        let engine = match &registry {
            Some(registry) => engine.with_metrics(registry),
            None => engine,
        };
        let mut workload = LibCompas {
            exact: exact_multivariate_trace(&states),
            protocol,
            states,
            engine,
            registry,
            roots,
            build,
            recorded: Vec::new(),
            kept: Vec::new(),
            violations: Vec::new(),
        };
        let clock = Spans::default();
        for _ in 0..2 {
            workload.op(&clock, false).expect("warm-up estimate");
        }
        workload.recorded.clear();
        workload
    }

    fn estimate(&self, root_seed: u64, engine: Engine) -> TraceEstimate {
        self.protocol
            .estimate(&self.states, SHOTS, &Executor::pooled(engine, root_seed))
    }

    /// The larger of the two components' distances from the exact
    /// trace, in that component's standard errors.
    fn sigmas_off(&self, estimate: &TraceEstimate) -> f64 {
        let off = |value: f64, exact: f64, err: f64| (value - exact).abs() / err.max(1e-12);
        off(estimate.re, self.exact.re, estimate.re_std_err).max(off(
            estimate.im,
            self.exact.im,
            estimate.im_std_err,
        ))
    }
}

impl Workload for LibCompas {
    fn root_span(&self) -> &'static str {
        "lib.op"
    }

    fn op(&mut self, _clock: &Spans, keep: bool) -> Result<Option<ClientPhases>, String> {
        let root_seed = self.roots.fresh();
        let estimate = self.estimate(root_seed, self.engine.clone());
        if !(estimate.re.is_finite() && estimate.im.is_finite()) {
            return Err(format!("seed {root_seed}: estimate is not finite"));
        }
        self.recorded.push((root_seed, estimate));
        if keep {
            self.kept.push((root_seed, estimate));
        }
        Ok(None)
    }

    fn verify(&mut self, problems: &mut Vec<String>) {
        problems.append(&mut self.violations);
        for (root_seed, estimate) in &self.recorded {
            if !estimate.is_consistent_with(self.exact, SIGMAS) {
                problems.push(format!(
                    "seed {root_seed}: estimate {} lies {:.1} sigma from the exact trace {}",
                    estimate.value(),
                    self.sigmas_off(estimate),
                    self.exact
                ));
            }
        }
        let (bell_pairs, depth) = (
            self.protocol.ledger().bell_pairs(),
            self.protocol.circuit().depth(),
        );
        if (bell_pairs, depth) != (PINNED_BELL_PAIRS, PINNED_DEPTH) {
            problems.push(format!(
                "protocol uses {bell_pairs} Bell pairs at depth {depth}; \
                 pinned {PINNED_BELL_PAIRS} at {PINNED_DEPTH}"
            ));
        }
    }

    fn layers(&mut self, ctx: LayerCtx<'_>) {
        let LayerCtx {
            spans,
            sampled,
            metrics: m,
            host_gbps,
            latency_p50_ms,
        } = ctx;
        let circuit = self.protocol.circuit();
        let ledger = self.protocol.ledger();

        // ---- exact counts: the paper's resource claims -------------
        m.set("compas.build_ms", self.build.as_secs_f64() * 1e3);
        m.set("compas.qubits", circuit.num_qubits() as f64);
        m.set("compas.depth", circuit.depth() as f64);
        m.set("compas.instructions", circuit.instructions().len() as f64);
        // The GHZ controls are what the circuit measures last, all in
        // the X basis: ⌈k/2⌉ of them.
        let ghz_width = circuit
            .instructions()
            .iter()
            .rev()
            .take_while(|i| {
                matches!(
                    i,
                    Instruction::Measure {
                        basis: Basis::X,
                        ..
                    }
                )
            })
            .count();
        m.set("compas.ghz_width", ghz_width as f64);
        m.set("network.bell_pairs", ledger.bell_pairs() as f64);
        m.set(
            "network.max_bell_pairs_per_node",
            ledger.max_bell_pairs_per_node() as f64,
        );
        m.set("network.classical_bits", ledger.classical_bits() as f64);

        // ---- accuracy and cost per shot of the live ops ------------
        let sigmas: Vec<f64> = self
            .recorded
            .iter()
            .map(|(_, estimate)| self.sigmas_off(estimate))
            .collect();
        if !sigmas.is_empty() {
            m.set("compas.estimate_err_sigma", crate::stats::median(&sigmas));
        }
        m.set(
            "compas.estimate_ms_per_shot",
            latency_p50_ms / (2 * SHOTS) as f64,
        );
        m.set(
            "engine.chunks_per_op",
            (2 * SHOTS as u64).div_ceil(CHUNK) as f64,
        );

        // ---- probes ------------------------------------------------
        let ensembles: Vec<PureEnsemble> =
            self.states.iter().map(PureEnsemble::from_density).collect();
        let mut rng = engine::shot_rng(0xC0, 0);
        m.set(
            "compas.ensemble_sample_us",
            probes::median_ns(64, || {
                black_box(ensembles[0].sample(&mut rng));
            }) / 1e3,
        );
        let state_qubits = state_qubits();
        let sample = sample_groups(&ensembles, &state_qubits, &mut rng);
        m.set(
            "qsim.product_state_us",
            probes::median_ns(1, || {
                black_box(StateVector::product_state(circuit.num_qubits(), &sample));
            }) / 1e3,
        );
        probes::qsim(circuit, host_gbps, m);
        probes::engine::<StateVector>(circuit, SHOTS as u64, m);

        // Pool efficiency on the workload's own fold: the same
        // estimate on one thread against two.
        let sequential = Engine::new(EngineConfig {
            threads: 1,
            ..self.engine.config().clone()
        });
        let pooled = Engine::new(self.engine.config().clone());
        let time = |engine: &Engine| {
            probes::median_ns_prepared(
                Duration::from_millis(900),
                1,
                |_| {},
                |i| {
                    black_box(self.estimate(i as u64, engine.clone()));
                },
            )
        };
        let (t_seq, t_pooled) = (time(&sequential), time(&pooled));
        m.set(
            "engine.pool_efficiency",
            t_seq / (THREADS as f64 * t_pooled),
        );

        if let Some(registry) = &self.registry {
            let t0 = Instant::now();
            let snapshot = registry.snapshot();
            m.set("obs.snapshot_us", t0.elapsed().as_secs_f64() * 1e6);
            if let Some(chunk) = snapshot.histo("engine.chunk").filter(|h| h.count > 0) {
                m.set("obs.engine.chunk_p50_us", chunk.quantile(0.5) as f64 / 1e3);
            }
        }

        // ---- replay ------------------------------------------------
        let pieces = probes::pieces(circuit);
        for (op, (root_seed, live)) in sampled.iter().zip(&self.kept) {
            let mut folded = Folded::default();
            let re = self.replay(*root_seed, &pieces, &state_qubits, &mut folded);
            if re != live.re {
                self.violations.push(format!(
                    "replay of op {} estimated re {re}, the live op {}",
                    op.op, live.re
                ));
            }
            folded.emit(spans, *op);
        }
    }

    fn teardown(self: Box<Self>) -> Option<Duration> {
        None
    }
}

/// The qubits holding state `i`, for each `i`: party `p` of the line
/// owns qubits `p·(N+1) .. p·(N+1)+N`, and state `i` sits at the
/// position `interleaved_order` assigns it.
fn state_qubits() -> Vec<Vec<usize>> {
    let mut qubits = vec![Vec::new(); K];
    for (position, &state) in interleaved_order(K).iter().enumerate() {
        qubits[state] = (position * (N + 1)..position * (N + 1) + N).collect();
    }
    qubits
}

/// One pure state per party, drawn from its ensemble and placed on
/// its qubits — the argument `CompasProtocol::estimate` builds for
/// `StateVector::product_state` every shot.
fn sample_groups(
    ensembles: &[PureEnsemble],
    state_qubits: &[Vec<usize>],
    rng: &mut impl rand::Rng,
) -> Vec<(Vec<Complex>, Vec<usize>)> {
    ensembles
        .iter()
        .zip(state_qubits)
        .map(|(ens, qs)| (ens.sample(rng).to_vec(), qs.clone()))
        .collect()
}

/// Per-shot stage clocks of a replayed op, summed across the pool's
/// threads.
#[derive(Default)]
struct ShotClocks {
    ensemble_sample: AtomicU64,
    product_state: AtomicU64,
    copy_from: AtomicU64,
    kernels: AtomicU64,
    interp: AtomicU64,
}

impl LibCompas {
    /// Re-runs one op through the calls `CompasProtocol::estimate`
    /// makes — eigen-ensembles, one compile per channel, then per shot
    /// (on the same 2-thread pool): ensemble sampling, `product_state`,
    /// the reset copy, kernel pieces, interpretation points — and
    /// returns the real-channel estimate, which must equal the live
    /// op's bit for bit. Both channels replay the real-channel circuit
    /// (the imaginary one is private and differs by a single `S`).
    ///
    /// Per-shot stages run on `THREADS` threads at once, so each
    /// counts `1/THREADS` of its summed time toward the op's blocking
    /// path; what imperfect overlap adds stays unaccounted.
    fn replay(
        &self,
        root_seed: u64,
        pieces: &[Piece],
        state_qubits: &[Vec<usize>],
        folded: &mut Folded,
    ) -> f64 {
        let circuit = self.protocol.circuit();
        let ensembles: Vec<PureEnsemble> = folded.stage("compas.ensembles", || {
            self.states.iter().map(PureEnsemble::from_density).collect()
        });
        let exec = Executor::pooled(Engine::new(self.engine.config().clone()), root_seed);
        let clocks = ShotClocks::default();
        let ghz_cbits: Vec<usize> =
            (circuit.num_cbits() - K.div_ceil(2)..circuit.num_cbits()).collect();
        let mut odd = [0u64; 2];
        for (channel, odd_count) in odd.iter_mut().enumerate() {
            folded.stage("qsim.compile", || drop(black_box(compile(circuit))));
            *odd_count = exec.derive(channel as u64).run_count_with(
                SHOTS as u64,
                || (StateVector::new(circuit.num_qubits()), Vec::<bool>::new()),
                |(state, cbits), _shot, rng| {
                    let tick = |clock: &AtomicU64, since: Instant| {
                        clock.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        Instant::now()
                    };
                    let t = Instant::now();
                    let groups = sample_groups(&ensembles, state_qubits, rng);
                    let t = tick(&clocks.ensemble_sample, t);
                    let initial = StateVector::product_state(circuit.num_qubits(), &groups);
                    let t = tick(&clocks.product_state, t);
                    state.copy_from(&initial);
                    cbits.clear();
                    cbits.resize(circuit.num_cbits(), false);
                    let mut t = tick(&clocks.copy_from, t);
                    for piece in pieces {
                        t = match piece {
                            Piece::Kernels(program) => {
                                state.apply_compiled(program, cbits, rng);
                                tick(&clocks.kernels, t)
                            }
                            Piece::Interp(instr) => {
                                SimState::step(state, instr, cbits, rng);
                                tick(&clocks.interp, t)
                            }
                        };
                    }
                    ghz_cbits.iter().fold(false, |acc, &c| acc ^ cbits[c])
                },
            );
        }
        for (name, clock) in [
            ("compas.ensemble_sample", &clocks.ensemble_sample),
            ("qsim.product_state", &clocks.product_state),
            ("qsim.copy_from", &clocks.copy_from),
            ("qsim.kernels", &clocks.kernels),
            ("qsim.interp", &clocks.interp),
        ] {
            folded.add(name, clock.load(Ordering::Relaxed) / THREADS as u64);
        }
        // Same arithmetic as `TraceEstimate::from_parity_counts`.
        1.0 - 2.0 * odd[0] as f64 / SHOTS as f64
    }
}
