//! Per-layer probes: each times one crate's public functions, from
//! outside, on the workload's own generated inputs.

use crate::metrics::Metrics;
use circuit::circuit::{Circuit, Instruction};
use circuit::qasm::{from_qasm3, to_qasm3};
use engine::{shot_rng, Engine, ShotPlan};
use jsonlite::Json;
use mathkit::complex::Complex;
use qsim::compile::{compile, CompiledCircuit, CompiledOp};
use qsim::runner::run_program_into;
use qsim::sim::SimState;
use qsim::statevector::StateVector;
use reactor::{Completion, Line, LineHandler, Reactor, ReactorConfig};
use service::cache::{fingerprint, ResultCache};
use service::{admit, Op, PreparedJob, Request, Response, RunRequest, Scheduler, SchedulerConfig};
use service::{Admitted, Submission};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls a probe aims for; the wall budget cuts slow functions short.
const MIN_CALLS: usize = 200;
/// Wall budget of one probe.
const BUDGET: Duration = Duration::from_millis(250);

/// Median nanoseconds per call of `f`: up to [`MIN_CALLS`] samples (at
/// least 3), stopping early once [`BUDGET`] is spent. Each sample times
/// `batch` back-to-back calls, so functions faster than the clock's
/// own cost are still resolved.
pub fn median_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    median_ns_prepared(BUDGET, batch, |_| {}, |_| f())
}

/// [`median_ns`] under an explicit wall `budget`, with an untimed
/// `prepare(sample index)` before each sample; `f` receives the same
/// index.
pub fn median_ns_prepared(
    budget: Duration,
    batch: usize,
    mut prepare: impl FnMut(usize),
    mut f: impl FnMut(usize),
) -> f64 {
    // One untimed call first: first-touch page faults and cold caches
    // belong to no sample.
    prepare(0);
    f(0);
    let started = Instant::now();
    let mut samples = Vec::with_capacity(MIN_CALLS);
    while samples.len() < MIN_CALLS && (samples.len() < 3 || started.elapsed() < budget) {
        let i = samples.len();
        prepare(i);
        let t0 = Instant::now();
        for _ in 0..batch {
            f(i);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
    }
    crate::stats::median(&samples)
}

/// The source circuit cut at its interpretation points: maximal gate
/// runs compiled on their own, everything else kept as an instruction.
/// Replaying the pieces in order is the compiled program op for op
/// (`compile` never fuses across an interpretation point), which is
/// what lets an outside caller time kernels and interpretation apart.
pub enum Piece {
    /// A gate run, lowered to kernels.
    Kernels(CompiledCircuit),
    /// Measurement, reset, feed-forward or a noise site.
    Interp(Instruction),
}

/// Cuts `circuit` into [`Piece`]s.
///
/// # Panics
///
/// Panics if the pieces' kernels differ from the whole program's — the
/// replay would then time something the workload does not run.
pub fn pieces(circuit: &Circuit) -> Vec<Piece> {
    let mut out = Vec::new();
    let mut run = Circuit::new(circuit.num_qubits(), circuit.num_cbits());
    let flush = |run: &mut Circuit, out: &mut Vec<Piece>| {
        if !run.instructions().is_empty() {
            out.push(Piece::Kernels(compile(run)));
            *run = Circuit::new(circuit.num_qubits(), circuit.num_cbits());
        }
    };
    for instr in circuit.instructions() {
        match instr {
            Instruction::Gate(_) => {
                run.push(instr.clone());
            }
            other => {
                flush(&mut run, &mut out);
                out.push(Piece::Interp(other.clone()));
            }
        }
    }
    flush(&mut run, &mut out);
    let stitched: Vec<CompiledOp> = out
        .iter()
        .flat_map(|piece| match piece {
            Piece::Kernels(program) => program.ops().to_vec(),
            Piece::Interp(instr) => vec![CompiledOp::Interp(instr.clone())],
        })
        .collect();
    assert!(
        stitched == compile(circuit).ops(),
        "piecewise compilation diverged from the whole program"
    );
    out
}

fn kind_of(op: &CompiledOp) -> Option<&'static str> {
    match op {
        CompiledOp::Unitary1 { .. } => Some("qsim.unitary1_ns_per_amp"),
        CompiledOp::Unitary2 { .. } => Some("qsim.unitary2_ns_per_amp"),
        CompiledOp::Phase(_) => Some("qsim.phase_ns_per_amp"),
        CompiledOp::PermuteSwap { .. } => Some("qsim.permute_ns_per_amp"),
        CompiledOp::Interp(_) => None,
    }
}

/// The statevector layer on `circuit`: compilation, the exact kernel
/// and interpretation counts, one sequential shot, every kernel timed
/// on a scratch buffer of the circuit's width, measurement + collapse,
/// and the achieved kernel bandwidth against `host_gbps`.
/// `qsim.kernel_bytes_per_shot` is **computed** by
/// `CompiledCircuit::kernel_bytes`, not read from a hardware counter.
pub fn qsim(circuit: &Circuit, host_gbps: f64, m: &mut Metrics) {
    let n = circuit.num_qubits();
    let len = 1usize << n;
    m.set(
        "qsim.compile_us",
        median_ns(1, || drop(black_box(compile(circuit)))) / 1e3,
    );
    let program = compile(circuit);
    m.set("qsim.kernel_passes", program.kernel_passes() as f64);
    m.set("qsim.interp_ops", program.interp_ops() as f64);
    let kernel_bytes = program.kernel_bytes(n);
    m.set("qsim.kernel_bytes_per_shot", kernel_bytes as f64);

    let initial = StateVector::new(n);
    let mut state = initial.clone();
    let mut cbits = Vec::new();
    let mut shot = 0u64;
    let shot_ns = median_ns(1, || {
        let mut rng = shot_rng(0x5107, shot);
        shot += 1;
        run_program_into(&program, &initial, &mut state, &mut cbits, &mut rng);
    });
    m.set("qsim.shot_ms", shot_ns / 1e6);
    m.set(
        "qsim.copy_from_us",
        median_ns(1, || state.copy_from(&initial)) / 1e3,
    );

    // Kernels on a scratch buffer: their cost does not depend on the
    // amplitudes' values, and `CompiledOp::apply` is the public seam.
    let mut amps = vec![Complex::ZERO; len];
    amps[0] = Complex::ONE;
    let mut kernels_ns = 0.0;
    let mut per_kind: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    // One second for the whole kernel stream, however long it is.
    let per_op = Duration::from_secs(1) / program.kernel_passes().max(1) as u32;
    for op in program.ops() {
        if let Some(kind) = kind_of(op) {
            let ns = median_ns_prepared(per_op, 1, |_| {}, |_| op.apply(black_box(&mut amps), 0));
            kernels_ns += ns;
            per_kind.entry(kind).or_default().push(ns / len as f64);
        }
    }
    for (kind, values) in per_kind {
        m.set(kind, crate::stats::median(&values));
    }
    if kernels_ns > 0.0 {
        m.set("qsim.kernels_ms_per_shot", kernels_ns / 1e6);
        let gbps = kernel_bytes as f64 / kernels_ns;
        m.set("qsim.achieved_gbps", gbps);
        m.set("qsim.roofline_fraction", gbps / host_gbps);
        m.set("qsim.interp_share", 1.0 - (kernels_ns / shot_ns).min(1.0));
    }

    // Measurement + collapse, qubit after qubit, of a uniform
    // superposition (restored, untimed, once every qubit is pinned).
    let uniform =
        StateVector::from_amplitudes(vec![Complex::from_real(1.0 / (len as f64).sqrt()); len]);
    let scratch = std::cell::RefCell::new(uniform.clone());
    let measure_ns = median_ns_prepared(
        BUDGET,
        1,
        |i| {
            if i % n == 0 {
                scratch.borrow_mut().copy_from(&uniform);
            }
        },
        |i| {
            let mut state = scratch.borrow_mut();
            let p1 = state.probability_of_one(i % n);
            state.collapse(i % n, black_box(p1) > 0.75);
        },
    );
    m.set("qsim.measure_us", measure_ns / 1e3);
}

/// The engine layer on `circuit` for backend `S`: per-shot RNG
/// derivation, plan construction, and sequential plan replay per shot.
pub fn engine<S: SimState>(circuit: &Circuit, shots: u64, m: &mut Metrics) {
    let mut i = 0u64;
    m.set(
        "engine.shot_rng_ns",
        median_ns(256, || {
            i += 1;
            black_box(shot_rng(black_box(0xE6), i));
        }),
    );
    let n = circuit.num_qubits();
    m.set(
        "engine.plan_new_us",
        median_ns(1, || {
            black_box(ShotPlan::new(circuit.clone(), S::prepare(n), shots, 1));
        }) / 1e3,
    );
    let plan = ShotPlan::new(circuit.clone(), S::prepare(n), shots, 1);
    let engine = Engine::sequential();
    let per_call = shots.min(64);
    let mut at = 0u64;
    let ns = median_ns(1, || {
        let start = at % (shots - per_call + 1);
        at += per_call;
        black_box(engine.run_plan_range(&plan, start..start + per_call));
    });
    m.set("engine.run_plan_us_per_shot", ns / per_call as f64 / 1e3);
}

/// The stabilizer layer: one tableau shot of `circuit`, and its cost
/// per instruction.
pub fn stabilizer(circuit: &Circuit, m: &mut Metrics) {
    use stabilizer::clifford::CliffordState;
    let program = <CliffordState as SimState>::compile(circuit);
    let initial = CliffordState::new(circuit.num_qubits());
    let mut state = initial.clone();
    let mut cbits = Vec::new();
    let mut shot = 0u64;
    let ns = median_ns(16, || {
        let mut rng = shot_rng(0x57AB, shot);
        shot += 1;
        run_program_into(&program, &initial, &mut state, &mut cbits, &mut rng);
    });
    m.set("stabilizer.shot_us", ns / 1e3);
    m.set(
        "stabilizer.gate_ns",
        ns / circuit.instructions().len() as f64,
    );
}

/// What the serving probes hand on to the replay.
pub struct Served {
    /// The decoded run request.
    pub run: RunRequest,
    /// Its admission result.
    pub admitted: Admitted,
}

/// Decodes `line` as a run request and admits it.
///
/// # Panics
///
/// Panics if the generator's own line does not decode or admit.
pub fn decode_and_admit(line: &str) -> Served {
    let Op::Run(run) = Request::from_line(line).expect("own request decodes").op else {
        panic!("own request is a run request");
    };
    let admitted = admit(&run).expect("own request is admitted");
    Served { run, admitted }
}

/// The serving path's layers on one request/reply pair of the live
/// run: `jsonlite`, `circuit::qasm`, `service::{protocol, admission,
/// cache}`.
pub fn serving(request_line: &str, reply_line: &str, m: &mut Metrics) -> Served {
    m.set(
        "jsonlite.parse_us",
        median_ns(1, || drop(black_box(Json::parse(request_line.trim())))) / 1e3,
    );
    let reply_doc = Json::parse(reply_line.trim()).expect("own reply parses");
    m.set(
        "jsonlite.write_us",
        median_ns(1, || drop(black_box(reply_doc.to_compact()))) / 1e3,
    );
    let served = decode_and_admit(request_line);
    let qasm = served.run.qasm.as_str();
    m.set("circuit.qasm_bytes", qasm.len() as f64);
    m.set(
        "circuit.instructions",
        served.admitted.circuit.instructions().len() as f64,
    );
    m.set(
        "circuit.from_qasm3_us",
        median_ns(1, || drop(black_box(from_qasm3(qasm)))) / 1e3,
    );
    m.set(
        "circuit.to_qasm3_us",
        median_ns(1, || drop(black_box(to_qasm3(&served.admitted.circuit)))) / 1e3,
    );
    m.set(
        "service.protocol.decode_us",
        median_ns(1, || drop(black_box(Request::from_line(request_line)))) / 1e3,
    );
    let reply = Response::from_line(reply_line).expect("own reply decodes");
    m.set(
        "service.protocol.encode_us",
        median_ns(1, || drop(black_box(reply.to_line()))) / 1e3,
    );
    m.set(
        "service.admission.admit_us",
        median_ns(1, || drop(black_box(admit(&served.run)))) / 1e3,
    );
    let canonical = served.admitted.canonical.as_str();
    m.set(
        "service.cache.fingerprint_us",
        median_ns(16, || {
            black_box(fingerprint(black_box(canonical)));
        }) / 1e3,
    );

    // A cache at the server's default capacity, full, so `insert`
    // pays the eviction scan the live server pays past 256 entries.
    let Response::Ok { tallies, .. } = reply else {
        panic!("own reply is ok");
    };
    let capacity = SchedulerConfig::default().cache_capacity;
    let mut cache = ResultCache::new(capacity);
    let key_at = |i: u64| {
        let mut key = served.admitted.key.clone();
        key.root_seed = i;
        key
    };
    for i in 0..capacity as u64 {
        cache.insert(key_at(i), tallies.clone());
    }
    let mut i = 0u64;
    m.set(
        "service.cache.get_us",
        median_ns(1, || {
            i = (i + 1) % capacity as u64;
            black_box(cache.get(&key_at(i)));
        }) / 1e3,
    );
    let mut next = capacity as u64;
    m.set(
        "service.cache.insert_us",
        median_ns(1, || {
            next += 1;
            cache.insert(key_at(next), tallies.clone());
        }) / 1e3,
    );
    served
}

/// The scheduler layer on an admitted request: job preparation, a
/// sequential run of `range`, and `Scheduler::submit` on a cached key.
pub fn scheduler(served: &Served, range: std::ops::Range<u64>, m: &mut Metrics) {
    let a = &served.admitted;
    let prepare = || {
        PreparedJob::prepare(&a.circuit, a.requested, a.shot_end(), a.key.root_seed)
            .expect("own request prepares")
    };
    m.set(
        "service.scheduler.prepare_us",
        median_ns(1, || drop(black_box(prepare()))) / 1e3,
    );
    let (_, job) = prepare();
    let engine = Engine::sequential();
    m.set(
        "service.scheduler.run_range_ms",
        median_ns(1, || drop(black_box(job.run_range(&engine, range.clone())))) / 1e6,
    );
}

/// `Scheduler::submit` on a key its cache already holds — the whole
/// warm path below the wire.
pub fn scheduler_submit_hit(served: &Served, m: &mut Metrics) {
    let scheduler = Scheduler::new(SchedulerConfig::default());
    if let Submission::Pending(done) = scheduler.submit(None, &served.run) {
        // One slice (the request is smaller than `slice_shots`), run
        // here in place of a worker thread.
        let task = scheduler.next_slice().expect("the job just queued");
        let counts = task
            .prepared
            .run_range(&Engine::sequential(), task.range.clone());
        scheduler.complete_slice(&task.key, counts);
        done.recv().expect("the job's response");
    }
    m.set(
        "service.scheduler.submit_hit_us",
        median_ns(1, || match scheduler.submit(None, &served.run) {
            Submission::Immediate(Response::Ok { cached: true, .. }) => {}
            _ => panic!("a cached key must answer immediately"),
        }) / 1e3,
    );
    scheduler.shutdown();
}

/// Round trip of one short line through a bare [`Reactor`] whose
/// handler echoes it inline — the I/O floor under every served op.
/// `None` if the echo server cannot be reached or stops answering.
pub fn reactor_echo_rtt_us() -> Option<f64> {
    struct Echo;
    impl LineHandler for Echo {
        fn on_line(&self, _conn: u64, line: Line, completion: Completion) {
            let mut bytes = match line {
                Line::Complete(bytes) => bytes,
                Line::Oversized => b"oversized".to_vec(),
            };
            bytes.push(b'\n');
            completion.send(bytes);
        }
    }
    let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
    let handle = Reactor::spawn(listener, ReactorConfig::default(), |_ctl| {
        Arc::new(Echo) as Arc<dyn LineHandler>
    })
    .ok()?;
    let mut answered = true;
    let mut ns = 0.0;
    if let Ok(mut conn) = crate::wire::Conn::connect(handle.addr()) {
        let mut reply = String::new();
        ns = median_ns(1, || {
            answered &= conn.round_trip("ping\n", &mut reply).is_ok() && reply == "ping\n";
        });
    } else {
        answered = false;
    }
    handle.stop();
    answered.then_some(ns / 1e3)
}
