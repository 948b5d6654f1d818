//! The three served workloads: one in-process server (or a coordinator
//! over two), one wire connection, the noisy GHZ-12 circuit as QASM.

use super::{ClientPhases, LayerCtx, Workload};
use crate::gen::{ghz_circuit, request_line, warm_order, RootSeeds, WARM_KEYS};
use crate::metrics::Metrics;
use crate::probes;
use crate::replay::Folded;
use crate::spans::Spans;
use crate::verify::check_tallies;
use crate::wire::Conn;
use circuit::circuit::Circuit;
use circuit::qasm::to_qasm3;
use engine::{merge_counts, partition_shots, Backend, Counts, Engine, Executor};
use qsim::statevector::StateVector;
use service::cache::ResultCache;
use service::{
    admit, PreparedJob, Request, Response, RunRequest, SchedulerConfig, Service, ServiceConfig,
    ServiceHandle, ServiceStats,
};
use shard::{Coordinator, CoordinatorConfig, CoordinatorHandle};
use stabilizer::clifford::CliffordState;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh root seed per op: miss, compile, execute, insert.
    Cold,
    /// 128 pre-executed keys in shuffled order: every op a cache hit.
    Warm,
    /// Coordinator over two single-worker servers, statevector backend.
    Sharded,
}

impl Kind {
    fn shots(self) -> u64 {
        match self {
            Kind::Cold | Kind::Warm => 2000,
            Kind::Sharded => 400,
        }
    }

    fn backend(self) -> &'static str {
        match self {
            Kind::Cold | Kind::Warm => "auto",
            Kind::Sharded => "sv",
        }
    }

    fn expect_cached(self) -> bool {
        self == Kind::Warm
    }

    fn warmup_ops(self) -> usize {
        match self {
            Kind::Cold => 8,
            Kind::Warm => 32,
            Kind::Sharded => 4,
        }
    }
}

/// Every `VERIFY_EVERY`-th reply is kept and compared with a direct
/// `Backend::sample_shots` run.
const VERIFY_EVERY: u64 = 64;

enum Topology {
    Standalone(ServiceHandle),
    Sharded {
        coordinator: CoordinatorHandle,
        workers: Vec<ServiceHandle>,
    },
}

impl Topology {
    fn stats(&self) -> ServiceStats {
        match self {
            Topology::Standalone(handle) => handle.stats(),
            Topology::Sharded { coordinator, .. } => coordinator.stats(),
        }
    }

    /// Ranges the coordinator had to dispatch a second time (0 without
    /// a coordinator).
    fn redispatched(&self) -> u64 {
        match self {
            Topology::Standalone(_) => 0,
            Topology::Sharded { coordinator, .. } => coordinator
                .worker_rows()
                .iter()
                .map(|row| row.redispatched)
                .sum(),
        }
    }

    /// The topology-wide registry snapshot, and how long taking it took.
    fn metrics_snapshot(&self) -> (obs::Snapshot, Duration) {
        let t0 = Instant::now();
        let snapshot = match self {
            Topology::Standalone(handle) => handle.metrics_snapshot(),
            Topology::Sharded { coordinator, .. } => coordinator.metrics_snapshot(),
        };
        (snapshot, t0.elapsed())
    }
}

/// A served workload, built and warmed up.
pub struct Serve {
    kind: Kind,
    topology: Topology,
    conn: Conn,
    circuit: Circuit,
    qasm: String,
    roots: RootSeeds,
    /// Warm only: the pre-executed root seeds and the visiting order.
    warm_keys: Vec<u64>,
    warm_order: Vec<usize>,
    ops: u64,
    reply: String,
    /// `(root seed, tallies)` of every [`VERIFY_EVERY`]-th reply.
    recorded: Vec<(u64, Counts)>,
    /// `(request line, reply line)` of the ops kept for replay.
    kept: Vec<(String, String)>,
    violations: Vec<String>,
    spawn: Duration,
    /// Counters and registry contents when the timed phases began;
    /// the per-layer report is the difference from here.
    stats_at_start: ServiceStats,
    snapshot_at_start: obs::Snapshot,
    request_bytes: usize,
}

impl Serve {
    /// Spawns the servers, connects, and warms up. With
    /// `instrumented`, every server gets its own `obs::Registry`
    /// through the existing public config.
    pub fn build(
        kind: Kind,
        seed: u64,
        roots: RootSeeds,
        instrumented: bool,
    ) -> Result<Serve, String> {
        let registry = || instrumented.then(obs::Registry::default);
        let io = |e: std::io::Error| e.to_string();
        let t0 = Instant::now();
        let topology = match kind {
            Kind::Cold | Kind::Warm => Topology::Standalone(
                Service::spawn(ServiceConfig {
                    workers: 2,
                    metrics: registry(),
                    ..ServiceConfig::default()
                })
                .map_err(io)?,
            ),
            Kind::Sharded => {
                let workers = (0..2)
                    .map(|_| {
                        Service::spawn(ServiceConfig {
                            workers: 1,
                            metrics: registry(),
                            ..ServiceConfig::default()
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(io)?;
                let coordinator = Coordinator::spawn(CoordinatorConfig {
                    workers: workers.iter().map(|w| w.addr().to_string()).collect(),
                    metrics: registry(),
                    ..CoordinatorConfig::default()
                })
                .map_err(io)?;
                Topology::Sharded {
                    coordinator,
                    workers,
                }
            }
        };
        let spawn = t0.elapsed();
        let addr = match &topology {
            Topology::Standalone(handle) => handle.addr(),
            Topology::Sharded { coordinator, .. } => coordinator.addr(),
        };
        let circuit = ghz_circuit();
        let mut workload = Serve {
            kind,
            conn: Conn::connect(addr).map_err(io)?,
            qasm: to_qasm3(&circuit),
            circuit,
            warm_keys: Vec::new(),
            warm_order: warm_order(seed),
            ops: 0,
            reply: String::new(),
            recorded: Vec::new(),
            kept: Vec::new(),
            violations: Vec::new(),
            spawn,
            stats_at_start: ServiceStats::default(),
            snapshot_at_start: obs::Snapshot::default(),
            request_bytes: 0,
            topology,
            roots,
        };
        let clock = Spans::default();
        if kind == Kind::Warm {
            // Execute every key once; these are the only misses.
            for _ in 0..WARM_KEYS {
                let key = workload.roots.fresh();
                workload.exchange(&clock, key, false, false)?;
                workload.warm_keys.push(key);
            }
        }
        for _ in 0..kind.warmup_ops() {
            workload.op(&clock, false)?;
        }
        workload.ops = 0;
        workload.recorded.clear();
        workload.stats_at_start = workload.topology.stats();
        if instrumented {
            workload.snapshot_at_start = workload.topology.metrics_snapshot().0;
        }
        Ok(workload)
    }

    /// One request/reply exchange for `root_seed`; checks the reply is
    /// `ok`, complete, and carries the expected `cached` flag.
    fn exchange(
        &mut self,
        clock: &Spans,
        root_seed: u64,
        expect_cached: bool,
        keep: bool,
    ) -> Result<(Counts, ClientPhases), String> {
        let shots = self.kind.shots();
        let started = clock.now_ns();
        let line = request_line(&self.qasm, shots, root_seed, self.kind.backend());
        let encoded = clock.now_ns();
        self.conn.round_trip(&line, &mut self.reply)?;
        let replied = clock.now_ns();
        let response = Response::from_line(&self.reply)?;
        let Response::Ok {
            cached,
            shots: served_shots,
            tallies,
            ..
        } = response
        else {
            return Err(format!("reply is not ok: {}", self.reply.trim()));
        };
        if cached != expect_cached || served_shots != shots {
            let problem = format!(
                "seed {root_seed}: cached={cached} shots={served_shots}, \
                 expected cached={expect_cached} shots={shots}"
            );
            self.violations.push(problem.clone());
            return Err(problem);
        }
        let decoded = clock.now_ns();
        self.request_bytes = line.len();
        if keep {
            self.kept.push((line, self.reply.clone()));
        }
        let phases = ClientPhases {
            encode: (started, encoded),
            wire: (encoded, replied),
            decode: (replied, decoded),
        };
        Ok((tallies, phases))
    }
}

impl Workload for Serve {
    fn root_span(&self) -> &'static str {
        "client.op"
    }

    fn op(&mut self, clock: &Spans, keep: bool) -> Result<Option<ClientPhases>, String> {
        let root_seed = match self.kind {
            Kind::Warm => self.warm_keys[self.warm_order[self.ops as usize % WARM_KEYS]],
            Kind::Cold | Kind::Sharded => self.roots.fresh(),
        };
        self.ops += 1;
        let (tallies, phases) = self.exchange(clock, root_seed, self.kind.expect_cached(), keep)?;
        if self.ops.is_multiple_of(VERIFY_EVERY) {
            self.recorded.push((root_seed, tallies));
        }
        Ok(Some(phases))
    }

    fn verify(&mut self, problems: &mut Vec<String>) {
        problems.append(&mut self.violations);
        let backend = Backend::parse(self.kind.backend()).expect("known backend");
        let shots = self.kind.shots();
        let mut references: HashMap<u64, Counts> = HashMap::new();
        for (root_seed, served) in &self.recorded {
            let reference = references.entry(*root_seed).or_insert_with(|| {
                backend
                    .sample_shots(
                        &self.circuit,
                        shots as usize,
                        &Executor::sequential(*root_seed),
                    )
                    .expect("the GHZ circuit runs on its backend")
            });
            if let Err(problem) =
                check_tallies(&format!("seed {root_seed}"), shots, served, reference)
            {
                problems.push(problem);
            }
        }
        let redispatched = self.topology.redispatched();
        if redispatched != 0 {
            problems.push(format!("{redispatched} ranges were re-dispatched"));
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
        let kind = self.kind;
        let shots = kind.shots();

        // ---- counters of the live servers --------------------------
        let now = self.topology.stats();
        let then = self.stats_at_start;
        let (hits, misses) = (
            now.cache_hits - then.cache_hits,
            now.cache_misses - then.cache_misses,
        );
        if hits + misses > 0 {
            m.set(
                "service.cache.hit_ratio",
                hits as f64 / (hits + misses) as f64,
            );
        }
        m.set(
            "service.scheduler.rejected_busy",
            (now.rejected_busy - then.rejected_busy) as f64,
        );
        m.set(
            "service.scheduler.coalesced",
            (now.coalesced - then.coalesced) as f64,
        );
        m.set(
            "service.scheduler.errors",
            (now.errors - then.errors) as f64,
        );
        m.set("client.timeouts", self.conn.timeouts as f64);
        m.set("client.request_bytes", self.request_bytes as f64);
        m.set("client.response_bytes", self.reply.len() as f64);
        m.set("service.server.spawn_ms", self.spawn.as_secs_f64() * 1e3);

        let (snapshot, snapshot_took) = self.topology.metrics_snapshot();
        m.set("obs.snapshot_us", snapshot_took.as_secs_f64() * 1e6);
        let then_snapshot = &self.snapshot_at_start;
        let counted = |name: &str| {
            snapshot.counter(name).unwrap_or(0) - then_snapshot.counter(name).unwrap_or(0)
        };
        m.set("service.cache.evictions", counted("cache.evictions") as f64);
        let p50_us = |name: &str| {
            histo_since(&snapshot, then_snapshot, name).map(|h| h.quantile(0.5) as f64 / 1e3)
        };
        for (metric, histo) in [
            ("obs.stage.parse_p50_us", "stage.parse"),
            ("obs.stage.admission_p50_us", "stage.admission"),
            ("obs.stage.cache_lookup_p50_us", "stage.cache_lookup"),
            ("obs.stage.compile_p50_us", "stage.compile"),
            ("obs.stage.execute_p50_us", "stage.execute"),
            ("obs.stage.merge_p50_us", "stage.merge"),
            ("obs.stage.encode_p50_us", "stage.encode"),
            ("obs.stage.write_p50_us", "stage.write"),
            ("obs.engine.chunk_p50_us", "engine.chunk"),
        ] {
            if let Some(us) = p50_us(histo) {
                m.set(metric, us);
            }
        }
        if let (Some(execute), completed @ 1..) = (
            histo_since(&snapshot, then_snapshot, "stage.execute"),
            counted("sched.completed"),
        ) {
            m.set(
                "service.scheduler.slices_per_job",
                execute.count as f64 / completed as f64,
            );
        }

        // ---- the live wire: stats round trip, bare reactor ---------
        let stats_line = Request {
            id: None,
            op: service::Op::Stats,
        }
        .to_line();
        let (conn, reply) = (&mut self.conn, &mut self.reply);
        let last_reply = reply.clone();
        // A missed deadline here is reported like any other
        // (`client.timeouts` was read above), not as a round-trip time.
        let mut answered = true;
        let stats_rtt_ns = probes::median_ns(1, || {
            answered &= conn.round_trip(&stats_line, reply).is_ok();
        });
        if answered {
            m.set("service.server.stats_rtt_us", stats_rtt_ns / 1e3);
        }
        if let Some(us) = probes::reactor_echo_rtt_us() {
            m.set("reactor.echo_rtt_us", us);
        }

        // ---- the serving path's layers, on this run's own request --
        let request = request_line(&self.qasm, shots, self.roots.fresh(), kind.backend());
        let served = probes::serving(&request, &last_reply, m);
        let parts = match kind {
            Kind::Sharded => partition_shots(0..shots, 2),
            Kind::Cold | Kind::Warm => partition_shots(0..shots, 1),
        };
        let larger = parts
            .iter()
            .max_by_key(|r| r.end - r.start)
            .expect("at least one part")
            .clone();
        match kind {
            Kind::Warm => probes::scheduler_submit_hit(&served, m),
            Kind::Cold => {
                probes::scheduler(&served, larger.clone(), m);
                probes::engine::<CliffordState>(&self.circuit, shots, m);
                probes::stabilizer(&self.circuit, m);
            }
            Kind::Sharded => {
                probes::scheduler(&served, larger.clone(), m);
                probes::engine::<StateVector>(&self.circuit, shots, m);
                probes::qsim(&self.circuit, host_gbps, m);
                shard_layer(
                    &self.topology,
                    &snapshot,
                    then_snapshot,
                    &parts,
                    &served,
                    latency_p50_ms,
                    m,
                );
            }
        }

        // ---- replay the kept ops through the server's own calls ----
        let mut cache = ResultCache::new(SchedulerConfig::default().cache_capacity);
        for (op, (request, reply)) in sampled.iter().zip(&self.kept) {
            let Response::Ok { tallies: live, .. } =
                Response::from_line(reply).expect("kept reply decodes")
            else {
                unreachable!("only ok replies are kept");
            };
            if kind == Kind::Warm {
                // The live server held this key; so must the replay's.
                cache.insert(probes::decode_and_admit(request).admitted.key, live.clone());
            }
            let mut folded = Folded::default();
            let replayed = replay_request(kind, request, &mut cache, &mut folded);
            if replayed != live {
                self.violations.push(format!(
                    "replay of op {} diverged from the live reply",
                    op.op
                ));
            }
            folded.emit(spans, *op);
        }
    }

    fn teardown(self: Box<Self>) -> Option<Duration> {
        let t0 = Instant::now();
        drop(self.conn);
        match self.topology {
            Topology::Standalone(handle) => handle.shutdown(),
            Topology::Sharded {
                coordinator,
                workers,
            } => {
                coordinator.shutdown();
                for worker in workers {
                    worker.shutdown();
                }
            }
        }
        Some(t0.elapsed())
    }
}

/// What histogram `name` recorded between two snapshots of one
/// registry (bucket-wise difference); `None` if nothing.
fn histo_since(
    now: &obs::Snapshot,
    then: &obs::Snapshot,
    name: &str,
) -> Option<obs::HistoSnapshot> {
    let mut delta = now.histo(name)?.clone();
    if let Some(before) = then.histo(name) {
        delta.count -= before.count;
        delta.sum -= before.sum;
        for (bucket, n) in &mut delta.buckets {
            let earlier = before.buckets.iter().find(|(b, _)| b == bucket);
            *n -= earlier.map_or(0, |(_, n)| *n);
        }
        delta.buckets.retain(|(_, n)| *n > 0);
    }
    (delta.count > 0).then_some(delta)
}

/// The shard layer: dispatch latency as the coordinator saw it, the
/// wait beyond the larger part's own execution, partition balance,
/// and the merge.
fn shard_layer(
    topology: &Topology,
    snapshot: &obs::Snapshot,
    then_snapshot: &obs::Snapshot,
    parts: &[std::ops::Range<u64>],
    served: &probes::Served,
    latency_p50_ms: f64,
    m: &mut Metrics,
) {
    if let Some(dispatch) = histo_since(snapshot, then_snapshot, "shard.dispatch") {
        m.set("shard.dispatch_p50_ms", dispatch.quantile(0.5) as f64 / 1e6);
    }
    if let Some(run_range_ms) = m.get("service.scheduler.run_range_ms") {
        m.set("shard.overhead_ms", latency_p50_ms - run_range_ms);
    }
    let lens: Vec<f64> = parts.iter().map(|r| (r.end - r.start) as f64).collect();
    let mean = lens.iter().sum::<f64>() / lens.len() as f64;
    let max = lens.iter().copied().fold(0.0, f64::max);
    m.set("shard.partition_imbalance", max / mean - 1.0);
    let a = &served.admitted;
    let (_, job) = PreparedJob::prepare(&a.circuit, a.requested, a.shot_end(), a.key.root_seed)
        .expect("own request prepares");
    let engine = Engine::sequential();
    let halves: Vec<Counts> = parts
        .iter()
        .map(|r| job.run_range(&engine, r.clone()))
        .collect();
    m.set(
        "shard.merge_us",
        probes::median_ns_prepared(
            Duration::from_millis(250),
            1,
            |_| {},
            |_| {
                let mut merged = Counts::new();
                for half in &halves {
                    merge_counts(&mut merged, half.clone());
                }
                std::hint::black_box(merged);
            },
        ) / 1e3,
    );
    m.set("shard.redispatched", topology.redispatched() as f64);
}

/// Pushes one recorded request through the public calls the serving
/// path makes for it, one stage each, and returns the tallies it
/// would have served. For the sharded topology the worker-side stages
/// are those of the larger part — the one the reply waits for.
fn replay_request(kind: Kind, line: &str, cache: &mut ResultCache, folded: &mut Folded) -> Counts {
    let request = folded
        .stage("service.protocol.decode", || Request::from_line(line))
        .expect("kept request decodes");
    let service::Op::Run(run) = request.op else {
        unreachable!("only run requests are kept");
    };
    let admitted = folded
        .stage("service.admission", || admit(&run))
        .expect("kept request is admitted");
    let hit = folded.stage("service.cache.get", || cache.get(&admitted.key));
    let tallies = match (kind, hit) {
        (Kind::Warm, Some(tallies)) => tallies,
        (Kind::Warm, None) => panic!("the replay cache was primed with this key"),
        (Kind::Cold, _) => {
            let tallies = execute(&admitted, folded);
            folded.stage("service.cache.insert", || {
                cache.insert(admitted.key.clone(), tallies.clone());
            });
            tallies
        }
        (Kind::Sharded, _) => {
            let parts = partition_shots(admitted.key.range(), 2);
            let larger = (0..parts.len())
                .max_by_key(|&i| parts[i].end - parts[i].start)
                .expect("at least one part");
            let mut merged = Vec::new();
            for (i, part) in parts.iter().enumerate() {
                // Only the larger part is on the blocking path; the
                // other runs beside it in the live system, so its
                // stages are computed but not counted.
                let mut beside = Folded::default();
                let stages = if i == larger {
                    &mut *folded
                } else {
                    &mut beside
                };
                let sub_line = stages.stage("shard.dispatch.encode", || {
                    Request::run(
                        None,
                        RunRequest::new(
                            admitted.canonical.as_str(),
                            0,
                            admitted.key.root_seed,
                            admitted.key.backend,
                        )
                        .with_shot_range(part.start, part.end),
                    )
                    .to_line()
                });
                let service::Op::Run(sub_run) = stages
                    .stage("service.protocol.decode", || Request::from_line(&sub_line))
                    .expect("sub-request decodes")
                    .op
                else {
                    unreachable!("a run request was encoded");
                };
                let sub = stages
                    .stage("service.admission", || admit(&sub_run))
                    .expect("sub-request is admitted");
                let counts = execute(&sub, stages);
                let reply = stages.stage("service.protocol.encode", || {
                    ok_response(&sub, counts).to_line()
                });
                let Response::Ok { tallies, .. } = stages
                    .stage("shard.dispatch.decode", || Response::from_line(&reply))
                    .expect("sub-reply decodes")
                else {
                    unreachable!("an ok response was encoded");
                };
                merged.push(tallies);
            }
            folded.stage("shard.merge", || {
                let mut total = Counts::new();
                for part in merged {
                    merge_counts(&mut total, part);
                }
                total
            })
        }
    };
    folded.stage("service.protocol.encode", || {
        ok_response(&admitted, tallies.clone()).to_line()
    });
    tallies
}

/// Compile + run an admitted job the way one scheduler worker does:
/// one slice (the request is smaller than `slice_shots`) on a
/// sequential engine.
fn execute(admitted: &service::Admitted, folded: &mut Folded) -> Counts {
    let (_, job) = folded
        .stage("service.scheduler.prepare", || {
            PreparedJob::prepare(
                &admitted.circuit,
                admitted.requested,
                admitted.shot_end(),
                admitted.key.root_seed,
            )
        })
        .expect("kept request prepares");
    let engine = Engine::sequential();
    folded.stage("service.scheduler.run_range", || {
        job.run_range(&engine, admitted.key.range())
    })
}

fn ok_response(admitted: &service::Admitted, tallies: Counts) -> Response {
    Response::Ok {
        id: None,
        backend: admitted.key.backend.to_string(),
        shots: admitted.key.shots,
        cached: false,
        coalesced: false,
        tallies,
    }
}
