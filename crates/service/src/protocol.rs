//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Each request and each response is **one JSON document on one line**
//! (`\n`-terminated, no internal newlines) — trivially framable from
//! any language with a socket and a JSON parser. Serialization is
//! deterministic: object keys are emitted in schema order and tallies
//! are sorted by outcome, so a response's bytes are a pure function of
//! its content (the serving twin of the engine's bit-identical
//! tallies).
//!
//! ## Requests
//!
//! ```json
//! {"op": "run", "id": "r1", "qasm": "OPENQASM 3.0;…", "shots": 1000,
//!  "root_seed": 7, "backend": "auto"}
//! {"op": "run", "qasm": "…", "shots": 250, "root_seed": 7,
//!  "shot_range": [500, 750]}
//! {"op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! `op` defaults to `"run"`; `id` is an optional opaque string echoed
//! on the response; `backend` defaults to `"auto"`
//! (`engine::Backend::parse` names). `qasm`, `shots`, and `root_seed`
//! are required for runs.
//!
//! `client` is an optional identity string for fair-share accounting:
//! the scheduler round-robins shot slices *across clients* and bounds
//! each client's in-flight shots (quota). It is deliberately **not**
//! echoed on `ok` responses and is not part of the result's identity —
//! two clients submitting the same job coalesce onto one execution and
//! receive byte-identical tallies.
//!
//! `shot_range: [start, end)` restricts execution to the **global**
//! shot indices of a job rooted at `root_seed` (the sharding
//! extension): the tallies are exactly the ranged slice of the full
//! run, so merging a partition of `0..total` reproduces the
//! single-machine run bit-identically. `shots` must equal
//! `end - start` — the response's `shots` stays the executed count.
//!
//! ## Responses
//!
//! ```json
//! {"status": "ok", "id": "r1", "backend": "stabilizer", "shots": 1000,
//!  "cached": false, "coalesced": false, "tallies": {"0": 493, "3": 507}}
//! {"status": "busy", "in_flight": 32, "retry_after_ms": 650}
//! {"status": "error", "error": "qasm parse error at line 3: …"}
//! {"status": "stats", "received": 9, "completed": 4, …,
//!  "workers": [{"addr": "10.0.0.2:7878", "jobs": 31, "redispatched": 1,
//!               "heartbeat_age_ms": 120, "alive": true}]}
//! {"status": "bye"}
//! ```
//!
//! Tally keys are the packed classical registers (the
//! `Executor::sample_shots` convention) rendered in decimal. The
//! `workers` array appears on `stats` responses from a shard
//! coordinator (`crates/shard`) — one row per downstream worker; a
//! plain single-machine server omits it.

use engine::Counts;
use jsonlite::Json;

/// What a client asked the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Execute a circuit and return its tallies.
    Run(RunRequest),
    /// Report the server's counters.
    Stats,
    /// Report the server's observability snapshot (every counter,
    /// gauge, and per-stage latency histogram of its `obs::Registry`;
    /// a shard coordinator merges its workers' snapshots in).
    Metrics,
    /// Stop accepting work and shut the server down.
    Shutdown,
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Opaque client-chosen correlation id, echoed on the response.
    pub id: Option<String>,
    /// The operation.
    pub op: Op,
}

/// A simulation job: the circuit as OpenQASM 3 text plus the sampling
/// parameters. The served tallies are bit-identical to
/// `Backend::sample_shots(circuit, shots, …)` with the same root seed
/// and backend.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The circuit, in the `circuit::qasm` interchange subset.
    pub qasm: String,
    /// Number of shots to execute. With a [`RunRequest::shot_range`],
    /// this must equal the range's length.
    pub shots: u64,
    /// Root seed of the job's deterministic RNG streams.
    pub root_seed: u64,
    /// Backend name (`engine::Backend::parse` convention).
    pub backend: String,
    /// Optional `[start, end)` of **global** shot indices to execute —
    /// the sharding extension. `None` runs `0..shots`. The tallies of a
    /// ranged run are exactly the corresponding slice of the full run,
    /// so a coordinator can partition `0..total` across workers and
    /// merge.
    pub shot_range: Option<(u64, u64)>,
    /// Optional client identity for fair-share scheduling and quota
    /// accounting. `None` joins the anonymous pool. Never part of the
    /// result identity — responses are byte-identical whatever the
    /// client string.
    pub client: Option<String>,
}

impl RunRequest {
    /// A full (un-ranged) run request.
    pub fn new(
        qasm: impl Into<String>,
        shots: u64,
        root_seed: u64,
        backend: impl Into<String>,
    ) -> RunRequest {
        RunRequest {
            qasm: qasm.into(),
            shots,
            root_seed,
            backend: backend.into(),
            shot_range: None,
            client: None,
        }
    }

    /// The same job tagged with a client identity (fair-share
    /// scheduling key; see [`RunRequest::client`]).
    pub fn with_client(mut self, client: impl Into<String>) -> RunRequest {
        self.client = Some(client.into());
        self
    }

    /// The same job restricted to the global shot indices
    /// `start..end` (sets `shots` to the range length, as the wire
    /// contract requires).
    pub fn with_shot_range(mut self, start: u64, end: u64) -> RunRequest {
        self.shots = end.saturating_sub(start);
        self.shot_range = Some((start, end));
        self
    }
}

impl Request {
    /// Builds a run request.
    pub fn run(id: Option<String>, run: RunRequest) -> Request {
        Request {
            id,
            op: Op::Run(run),
        }
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn from_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        if doc.as_obj().is_none() {
            return Err("request must be a JSON object".to_string());
        }
        let id = match doc.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("\"id\" must be a string")?.to_string()),
        };
        let op_name = match doc.get("op") {
            None => "run",
            Some(v) => v.as_str().ok_or("\"op\" must be a string")?,
        };
        let op = match op_name {
            "run" => {
                let qasm = doc
                    .get("qasm")
                    .ok_or("run request missing \"qasm\"")?
                    .as_str()
                    .ok_or("\"qasm\" must be a string")?
                    .to_string();
                let shots = doc
                    .get("shots")
                    .ok_or("run request missing \"shots\"")?
                    .as_u64()
                    .ok_or("\"shots\" must be a non-negative integer")?;
                let root_seed = doc
                    .get("root_seed")
                    .ok_or("run request missing \"root_seed\"")?
                    .as_u64()
                    .ok_or("\"root_seed\" must be a non-negative integer")?;
                let backend = match doc.get("backend") {
                    None => "auto".to_string(),
                    Some(v) => v
                        .as_str()
                        .ok_or("\"backend\" must be a string")?
                        .to_string(),
                };
                let shot_range = match doc.get("shot_range") {
                    None | Some(Json::Null) => None,
                    Some(v) => {
                        let items = v
                            .as_arr()
                            .filter(|a| a.len() == 2)
                            .ok_or("\"shot_range\" must be a [start, end] pair")?;
                        let bound = |j: &Json| {
                            j.as_u64()
                                .ok_or("\"shot_range\" bounds must be non-negative integers")
                        };
                        let (start, end) = (bound(&items[0])?, bound(&items[1])?);
                        if start > end {
                            return Err(format!("\"shot_range\" is reversed: [{start}, {end}]"));
                        }
                        Some((start, end))
                    }
                };
                let client = match doc.get("client") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_str().ok_or("\"client\" must be a string")?.to_string()),
                };
                Op::Run(RunRequest {
                    qasm,
                    shots,
                    root_seed,
                    backend,
                    shot_range,
                    client,
                })
            }
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "shutdown" => Op::Shutdown,
            other => return Err(format!("unknown op \"{other}\"")),
        };
        Ok(Request { id, op })
    }

    /// Encodes the request as one wire line (`\n`-terminated).
    pub fn to_line(&self) -> String {
        let mut members: Vec<(String, Json)> = Vec::new();
        let op = match &self.op {
            Op::Run(_) => "run",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
        };
        members.push(("op".into(), Json::str(op)));
        if let Some(id) = &self.id {
            members.push(("id".into(), Json::str(id)));
        }
        if let Op::Run(run) = &self.op {
            members.push(("qasm".into(), Json::str(&run.qasm)));
            members.push(("shots".into(), Json::from_u64(run.shots)));
            members.push(("root_seed".into(), Json::from_u64(run.root_seed)));
            members.push(("backend".into(), Json::str(&run.backend)));
            if let Some((start, end)) = run.shot_range {
                members.push((
                    "shot_range".into(),
                    Json::Arr(vec![Json::from_u64(start), Json::from_u64(end)]),
                ));
            }
            if let Some(client) = &run.client {
                members.push(("client".into(), Json::str(client)));
            }
        }
        let mut line = Json::Obj(members).to_compact();
        line.push('\n');
        line
    }
}

/// The server's counters, as reported by a `stats` request. Counter
/// fields accumulate since startup; `in_flight` and `cache_entries`
/// are gauges read at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Run requests received (including malformed request lines;
    /// `stats`/`shutdown` admin ops are not counted).
    pub received: u64,
    /// Jobs executed to completion.
    pub completed: u64,
    /// Responses served straight from the result cache.
    pub cache_hits: u64,
    /// Admitted executions (cache misses).
    pub cache_misses: u64,
    /// Requests attached to an identical in-flight job instead of
    /// executing again.
    pub coalesced: u64,
    /// Requests rejected with `busy` because the job queue was full.
    pub rejected_busy: u64,
    /// Requests rejected with `busy` because the client's in-flight
    /// shot quota was exhausted.
    pub rejected_quota: u64,
    /// Requests rejected with `busy` because the client's shots-per-
    /// second token bucket was exhausted.
    pub rejected_rate: u64,
    /// Malformed or unexecutable requests answered with `error`.
    pub errors: u64,
    /// Jobs currently admitted (queued or executing) — gauge.
    pub in_flight: u64,
    /// Entries currently resident in the in-memory result cache —
    /// gauge.
    pub cache_entries: u64,
    /// Entries currently persisted in the on-disk result cache —
    /// gauge (0 when disk spill is off).
    pub cache_disk_entries: u64,
    /// Reactor gauge: connections currently open.
    pub open_connections: u64,
    /// Reactor gauge: open connections with nothing buffered and no
    /// request in flight.
    pub idle_connections: u64,
    /// Reactor gauge: connections holding a partial input line.
    pub read_blocked: u64,
    /// Reactor gauge: connections with unflushed output (slow
    /// readers).
    pub write_blocked: u64,
}

impl ServiceStats {
    /// This snapshot with the reactor's connection gauges filled in —
    /// what every front end reports, over the wire and in-process.
    pub fn with_gauges(mut self, gauges: reactor::ReactorGauges) -> ServiceStats {
        self.open_connections = gauges.open;
        self.idle_connections = gauges.idle;
        self.read_blocked = gauges.read_blocked;
        self.write_blocked = gauges.write_blocked;
        self
    }

    /// The schema's `(name, value)` pairs, in wire order. Public so
    /// clients can render the counters without hard-coding the schema.
    pub fn fields(&self) -> [(&'static str, u64); 16] {
        [
            ("received", self.received),
            ("completed", self.completed),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("coalesced", self.coalesced),
            ("rejected_busy", self.rejected_busy),
            ("rejected_quota", self.rejected_quota),
            ("rejected_rate", self.rejected_rate),
            ("errors", self.errors),
            ("in_flight", self.in_flight),
            ("cache_entries", self.cache_entries),
            ("cache_disk_entries", self.cache_disk_entries),
            ("open_connections", self.open_connections),
            ("idle_connections", self.idle_connections),
            ("read_blocked", self.read_blocked),
            ("write_blocked", self.write_blocked),
        ]
    }
}

/// Sentinel `heartbeat_age_ms` for a worker that has never answered a
/// health probe (2⁵³ — the largest integer the wire's f64-backed
/// numbers carry exactly, far beyond any real heartbeat age).
pub const HEARTBEAT_NEVER_MS: u64 = 1 << 53;

/// One downstream worker's row in a shard coordinator's `stats`
/// response: identity, serving counters, and health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerRow {
    /// The worker's wire address (`host:port`).
    pub addr: String,
    /// Ranged sub-requests this worker completed successfully.
    pub jobs: u64,
    /// Ranges this worker lost (dispatched to it, then re-dispatched to
    /// a survivor after failure or timeout).
    pub redispatched: u64,
    /// Milliseconds since the last successful health probe
    /// ([`HEARTBEAT_NEVER_MS`] when no probe has ever succeeded; ages
    /// are clamped to that sentinel so the field is always wire-exact).
    pub heartbeat_age_ms: u64,
    /// Whether the coordinator currently considers the worker alive.
    pub alive: bool,
}

impl WorkerRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("addr", Json::str(&self.addr)),
            ("jobs", Json::from_u64(self.jobs)),
            ("redispatched", Json::from_u64(self.redispatched)),
            (
                "heartbeat_age_ms",
                Json::from_u64(self.heartbeat_age_ms.min(HEARTBEAT_NEVER_MS)),
            ),
            ("alive", Json::Bool(self.alive)),
        ])
    }

    fn from_json(v: &Json) -> Result<WorkerRow, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("worker row missing numeric \"{key}\""))
        };
        Ok(WorkerRow {
            addr: v
                .get("addr")
                .and_then(Json::as_str)
                .ok_or("worker row missing \"addr\"")?
                .to_string(),
            jobs: num("jobs")?,
            redispatched: num("redispatched")?,
            heartbeat_age_ms: num("heartbeat_age_ms")?,
            alive: v
                .get("alive")
                .and_then(Json::as_bool)
                .ok_or("worker row missing \"alive\"")?,
        })
    }
}

/// One client's row in a `stats` response: quota counters for a
/// fair-share identity the scheduler has seen. Rows are sorted by
/// client name so the response bytes are deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRow {
    /// The client identity (`""` is the anonymous pool).
    pub client: String,
    /// Jobs this client submitted that were admitted for execution.
    pub admitted: u64,
    /// Admitted jobs that ran to completion.
    pub completed: u64,
    /// Requests coalesced onto another job (not charged to quota).
    pub coalesced: u64,
    /// Requests rejected because the client's in-flight shot quota was
    /// exhausted.
    pub rejected_quota: u64,
    /// Requests rejected because the client's shots-per-second token
    /// bucket was exhausted.
    pub rejected_rate: u64,
    /// Shots currently admitted and not yet completed — the quantity
    /// the quota bounds. Gauge.
    pub inflight_shots: u64,
}

impl ClientRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("client", Json::str(&self.client)),
            ("admitted", Json::from_u64(self.admitted)),
            ("completed", Json::from_u64(self.completed)),
            ("coalesced", Json::from_u64(self.coalesced)),
            ("rejected_quota", Json::from_u64(self.rejected_quota)),
            ("rejected_rate", Json::from_u64(self.rejected_rate)),
            ("inflight_shots", Json::from_u64(self.inflight_shots)),
        ])
    }

    fn from_json(v: &Json) -> Result<ClientRow, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("client row missing numeric \"{key}\""))
        };
        Ok(ClientRow {
            client: v
                .get("client")
                .and_then(Json::as_str)
                .ok_or("client row missing \"client\"")?
                .to_string(),
            admitted: num("admitted")?,
            completed: num("completed")?,
            coalesced: num("coalesced")?,
            rejected_quota: num("rejected_quota")?,
            rejected_rate: num("rejected_rate")?,
            inflight_shots: num("inflight_shots")?,
        })
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job's tallies — bit-identical to a direct
    /// `Backend::sample_shots` call with the same root seed/backend.
    Ok {
        /// Echo of the request id.
        id: Option<String>,
        /// The backend that executed (after `Auto` routing).
        backend: String,
        /// Shots executed (tally values sum to this).
        shots: u64,
        /// Whether the result came from the content-addressed cache.
        cached: bool,
        /// Whether this request was coalesced onto an identical
        /// in-flight job instead of executing separately.
        coalesced: bool,
        /// Histogram of packed classical registers.
        tallies: Counts,
    },
    /// The job queue is full; retry after the hinted delay.
    Busy {
        /// Echo of the request id.
        id: Option<String>,
        /// Jobs admitted when the request was rejected.
        in_flight: u64,
        /// Suggested client back-off in milliseconds.
        retry_after_ms: u64,
    },
    /// The request could not be executed.
    Error {
        /// Echo of the request id.
        id: Option<String>,
        /// What went wrong.
        error: String,
    },
    /// Counter snapshot.
    Stats {
        /// Echo of the request id.
        id: Option<String>,
        /// The counters.
        stats: ServiceStats,
        /// Per-worker rows — non-empty only on responses from a shard
        /// coordinator (omitted from the wire when empty).
        workers: Vec<WorkerRow>,
        /// Per-client quota rows, sorted by client name — non-empty
        /// once any run request has been admitted (omitted from the
        /// wire when empty).
        clients: Vec<ClientRow>,
    },
    /// Observability snapshot: every counter, gauge, and per-stage
    /// latency histogram of the server's `obs::Registry`. A shard
    /// coordinator answers with its workers' snapshots merged in.
    Metrics {
        /// Echo of the request id.
        id: Option<String>,
        /// The registry snapshot.
        snapshot: obs::Snapshot,
    },
    /// Acknowledgement of a shutdown request (the last line the server
    /// writes on that connection).
    Bye {
        /// Echo of the request id.
        id: Option<String>,
    },
}

impl Response {
    /// Encodes the response as one wire line (`\n`-terminated).
    pub fn to_line(&self) -> String {
        let mut members: Vec<(String, Json)> = Vec::new();
        let push_id = |members: &mut Vec<(String, Json)>, id: &Option<String>| {
            if let Some(id) = id {
                members.push(("id".into(), Json::str(id)));
            }
        };
        match self {
            Response::Ok {
                id,
                backend,
                shots,
                cached,
                coalesced,
                tallies,
            } => {
                members.push(("status".into(), Json::str("ok")));
                push_id(&mut members, id);
                members.push(("backend".into(), Json::str(backend)));
                members.push(("shots".into(), Json::from_u64(*shots)));
                members.push(("cached".into(), Json::Bool(*cached)));
                members.push(("coalesced".into(), Json::Bool(*coalesced)));
                // Sort by outcome so the bytes are deterministic.
                let mut rows: Vec<(usize, usize)> = tallies.iter().map(|(&k, &v)| (k, v)).collect();
                rows.sort_unstable();
                members.push((
                    "tallies".into(),
                    Json::Obj(
                        rows.into_iter()
                            .map(|(k, v)| (k.to_string(), Json::from_usize(v)))
                            .collect(),
                    ),
                ));
            }
            Response::Busy {
                id,
                in_flight,
                retry_after_ms,
            } => {
                members.push(("status".into(), Json::str("busy")));
                push_id(&mut members, id);
                members.push(("in_flight".into(), Json::from_u64(*in_flight)));
                members.push(("retry_after_ms".into(), Json::from_u64(*retry_after_ms)));
            }
            Response::Error { id, error } => {
                members.push(("status".into(), Json::str("error")));
                push_id(&mut members, id);
                members.push(("error".into(), Json::str(error)));
            }
            Response::Stats {
                id,
                stats,
                workers,
                clients,
            } => {
                members.push(("status".into(), Json::str("stats")));
                push_id(&mut members, id);
                for (name, value) in stats.fields() {
                    members.push((name.into(), Json::from_u64(value)));
                }
                if !workers.is_empty() {
                    members.push((
                        "workers".into(),
                        Json::Arr(workers.iter().map(WorkerRow::to_json).collect()),
                    ));
                }
                if !clients.is_empty() {
                    members.push((
                        "clients".into(),
                        Json::Arr(clients.iter().map(ClientRow::to_json).collect()),
                    ));
                }
            }
            Response::Metrics { id, snapshot } => {
                members.push(("status".into(), Json::str("metrics")));
                push_id(&mut members, id);
                members.push(("metrics".into(), snapshot.to_json()));
            }
            Response::Bye { id } => {
                members.push(("status".into(), Json::str("bye")));
                push_id(&mut members, id);
            }
        }
        let mut line = Json::Obj(members).to_compact();
        line.push('\n');
        line
    }

    /// Decodes one response line (the client side of the protocol).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn from_line(line: &str) -> Result<Response, String> {
        let doc = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let id = match doc.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("\"id\" must be a string")?.to_string()),
        };
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response missing \"status\"")?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response missing numeric \"{key}\""))
        };
        match status {
            "ok" => {
                let tallies = doc
                    .get("tallies")
                    .and_then(Json::as_obj)
                    .ok_or("ok response missing \"tallies\"")?
                    .iter()
                    .map(|(k, v)| {
                        let outcome: usize = k
                            .parse()
                            .map_err(|_| format!("non-numeric tally key \"{k}\""))?;
                        let count = v
                            .as_u64()
                            .ok_or_else(|| format!("non-numeric tally for \"{k}\""))?;
                        Ok((outcome, count as usize))
                    })
                    .collect::<Result<Counts, String>>()?;
                Ok(Response::Ok {
                    id,
                    backend: doc
                        .get("backend")
                        .and_then(Json::as_str)
                        .ok_or("ok response missing \"backend\"")?
                        .to_string(),
                    shots: num("shots")?,
                    cached: doc
                        .get("cached")
                        .and_then(Json::as_bool)
                        .ok_or("ok response missing \"cached\"")?,
                    coalesced: doc
                        .get("coalesced")
                        .and_then(Json::as_bool)
                        .ok_or("ok response missing \"coalesced\"")?,
                    tallies,
                })
            }
            "busy" => Ok(Response::Busy {
                id,
                in_flight: num("in_flight")?,
                retry_after_ms: num("retry_after_ms")?,
            }),
            "error" => Ok(Response::Error {
                id,
                error: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("error response missing \"error\"")?
                    .to_string(),
            }),
            "stats" => Ok(Response::Stats {
                id,
                stats: ServiceStats {
                    received: num("received")?,
                    completed: num("completed")?,
                    cache_hits: num("cache_hits")?,
                    cache_misses: num("cache_misses")?,
                    coalesced: num("coalesced")?,
                    rejected_busy: num("rejected_busy")?,
                    rejected_quota: num("rejected_quota")?,
                    rejected_rate: num("rejected_rate")?,
                    errors: num("errors")?,
                    in_flight: num("in_flight")?,
                    cache_entries: num("cache_entries")?,
                    cache_disk_entries: num("cache_disk_entries")?,
                    open_connections: num("open_connections")?,
                    idle_connections: num("idle_connections")?,
                    read_blocked: num("read_blocked")?,
                    write_blocked: num("write_blocked")?,
                },
                workers: match doc.get("workers") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(v) => v
                        .as_arr()
                        .ok_or("\"workers\" must be an array")?
                        .iter()
                        .map(WorkerRow::from_json)
                        .collect::<Result<Vec<_>, String>>()?,
                },
                clients: match doc.get("clients") {
                    None | Some(Json::Null) => Vec::new(),
                    Some(v) => v
                        .as_arr()
                        .ok_or("\"clients\" must be an array")?
                        .iter()
                        .map(ClientRow::from_json)
                        .collect::<Result<Vec<_>, String>>()?,
                },
            }),
            "metrics" => Ok(Response::Metrics {
                id,
                snapshot: obs::Snapshot::from_json(
                    doc.get("metrics")
                        .ok_or("metrics response missing \"metrics\"")?,
                )?,
            }),
            "bye" => Ok(Response::Bye { id }),
            other => Err(format!("unknown status \"{other}\"")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_request_round_trips() {
        let req = Request::run(
            Some("r1".into()),
            RunRequest::new("OPENQASM 3.0;\nqubit[1] q;\nh q[0];\n", 500, 7, "auto"),
        );
        let line = req.to_line();
        assert!(line.ends_with('\n') && !line.trim_end().contains('\n'));
        assert_eq!(Request::from_line(&line).unwrap(), req);
        // A full request carries no shot_range field on the wire.
        assert!(!line.contains("shot_range"));
    }

    #[test]
    fn ranged_run_requests_round_trip() {
        let req = Request::run(
            None,
            RunRequest::new("x", 1_000, 7, "sv").with_shot_range(500, 750),
        );
        let Op::Run(run) = &req.op else {
            unreachable!()
        };
        assert_eq!(
            run.shots, 250,
            "with_shot_range must pin shots to the length"
        );
        let line = req.to_line();
        assert!(line.contains("\"shot_range\":[500,750]"), "{line}");
        assert_eq!(Request::from_line(&line).unwrap(), req);
    }

    #[test]
    fn malformed_shot_ranges_are_rejected() {
        let base = r#""qasm": "x", "shots": 1, "root_seed": 0"#;
        for (range, needle) in [
            ("[10, 3]", "reversed"),
            ("[1]", "pair"),
            ("[1, 2, 3]", "pair"),
            ("\"0..5\"", "pair"),
            ("[-1, 5]", "non-negative"),
            ("[0, 1.5]", "non-negative"),
        ] {
            let line = format!("{{{base}, \"shot_range\": {range}}}");
            let err = Request::from_line(&line).unwrap_err();
            assert!(err.contains(needle), "{range}: {err}");
        }
    }

    #[test]
    fn op_defaults_to_run_and_backend_to_auto() {
        let req = Request::from_line(r#"{"qasm": "x", "shots": 1, "root_seed": 0}"#).unwrap();
        match req.op {
            Op::Run(run) => assert_eq!(run.backend, "auto"),
            other => panic!("unexpected op {other:?}"),
        }
        assert_eq!(req.id, None);
    }

    #[test]
    fn admin_requests_round_trip() {
        for req in [
            Request {
                id: None,
                op: Op::Stats,
            },
            Request {
                id: Some("s".into()),
                op: Op::Shutdown,
            },
        ] {
            assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("", "json error"),
            ("[]", "must be a JSON object"),
            ("{\"op\": \"launch\"}", "unknown op"),
            ("{\"op\": \"run\"}", "missing \"qasm\""),
            (r#"{"qasm": "x", "shots": -1, "root_seed": 0}"#, "shots"),
            (r#"{"qasm": "x", "shots": 1.5, "root_seed": 0}"#, "shots"),
        ] {
            let err = Request::from_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn responses_round_trip_and_sort_tallies() {
        let tallies: Counts = [(3usize, 507usize), (0, 493)].into_iter().collect();
        let ok = Response::Ok {
            id: Some("r1".into()),
            backend: "stabilizer".into(),
            shots: 1000,
            cached: false,
            coalesced: true,
            tallies,
        };
        let line = ok.to_line();
        // Keys sorted numerically → deterministic bytes.
        assert!(line.find("\"0\"").unwrap() < line.find("\"3\"").unwrap());
        assert_eq!(Response::from_line(&line).unwrap(), ok);

        let busy = Response::Busy {
            id: None,
            in_flight: 32,
            retry_after_ms: 650,
        };
        assert_eq!(Response::from_line(&busy.to_line()).unwrap(), busy);

        let stats = Response::Stats {
            id: None,
            stats: ServiceStats {
                received: 9,
                completed: 4,
                cache_hits: 2,
                cache_misses: 4,
                coalesced: 1,
                rejected_busy: 1,
                rejected_quota: 2,
                rejected_rate: 3,
                errors: 1,
                in_flight: 0,
                cache_entries: 4,
                cache_disk_entries: 6,
                open_connections: 3,
                idle_connections: 2,
                read_blocked: 0,
                write_blocked: 1,
            },
            workers: Vec::new(),
            clients: Vec::new(),
        };
        let line = stats.to_line();
        assert!(!line.contains("workers"), "empty rows must be omitted");
        assert!(!line.contains("clients"), "empty rows must be omitted");
        assert_eq!(Response::from_line(&line).unwrap(), stats);

        let bye = Response::Bye {
            id: Some("x".into()),
        };
        assert_eq!(Response::from_line(&bye.to_line()).unwrap(), bye);
    }

    #[test]
    fn coordinator_stats_carry_per_worker_rows() {
        let stats = Response::Stats {
            id: Some("s".into()),
            stats: ServiceStats::default(),
            workers: vec![
                WorkerRow {
                    addr: "10.0.0.2:7878".into(),
                    jobs: 31,
                    redispatched: 1,
                    heartbeat_age_ms: 120,
                    alive: true,
                },
                WorkerRow {
                    addr: "10.0.0.3:7878".into(),
                    jobs: 12,
                    redispatched: 0,
                    heartbeat_age_ms: HEARTBEAT_NEVER_MS,
                    alive: false,
                },
            ],
            clients: Vec::new(),
        };
        let line = stats.to_line();
        assert!(
            line.contains("\"workers\":[{\"addr\":\"10.0.0.2:7878\""),
            "{line}"
        );
        assert_eq!(Response::from_line(&line).unwrap(), stats);
    }

    #[test]
    fn client_identities_ride_run_requests_and_stats_rows() {
        // `client` rides the request wire format…
        let req = Request::run(
            None,
            RunRequest::new("x", 100, 7, "auto").with_client("tenant-a"),
        );
        let line = req.to_line();
        assert!(line.contains("\"client\":\"tenant-a\""), "{line}");
        assert_eq!(Request::from_line(&line).unwrap(), req);
        // …is absent when unset…
        let anon = Request::run(None, RunRequest::new("x", 100, 7, "auto"));
        assert!(!anon.to_line().contains("client"));
        assert_eq!(Request::from_line(&anon.to_line()).unwrap(), anon);
        // …and per-client quota rows ride stats responses.
        let stats = Response::Stats {
            id: None,
            stats: ServiceStats::default(),
            workers: Vec::new(),
            clients: vec![
                ClientRow {
                    client: String::new(),
                    admitted: 2,
                    completed: 2,
                    coalesced: 0,
                    rejected_quota: 0,
                    rejected_rate: 0,
                    inflight_shots: 0,
                },
                ClientRow {
                    client: "tenant-a".into(),
                    admitted: 5,
                    completed: 3,
                    coalesced: 1,
                    rejected_quota: 4,
                    rejected_rate: 2,
                    inflight_shots: 2048,
                },
            ],
        };
        let line = stats.to_line();
        assert!(
            line.contains("\"clients\":[{\"client\":\"\""),
            "rows must be sorted by client name: {line}"
        );
        assert_eq!(Response::from_line(&line).unwrap(), stats);
    }

    #[test]
    fn metrics_requests_and_snapshots_round_trip() {
        // The request side is an op name like `stats`…
        let req = Request {
            id: Some("m1".into()),
            op: Op::Metrics,
        };
        let line = req.to_line();
        assert!(line.contains("\"op\":\"metrics\""), "{line}");
        assert_eq!(Request::from_line(&line).unwrap(), req);
        // …and the response carries a full registry snapshot.
        let reg = obs::Registry::new();
        reg.counter("cache.hits").add(7);
        reg.gauge("reactor.open").set(3);
        let h = reg.histo("stage.execute");
        h.record(900);
        h.record(70_000);
        let resp = Response::Metrics {
            id: Some("m1".into()),
            snapshot: reg.snapshot(),
        };
        let line = resp.to_line();
        assert!(line.contains("\"status\":\"metrics\""), "{line}");
        assert!(line.contains("\"cache.hits\":7"), "{line}");
        let back = Response::from_line(&line).unwrap();
        assert_eq!(back, resp);
        // Re-encoding the decoded snapshot is byte-identical.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn ok_lines_are_byte_deterministic() {
        let tallies: Counts = (0..16).map(|k| (k, k + 1)).collect();
        let a = Response::Ok {
            id: None,
            backend: "statevector".into(),
            shots: 136,
            cached: false,
            coalesced: false,
            tallies: tallies.clone(),
        };
        let b = Response::Ok {
            id: None,
            backend: "statevector".into(),
            shots: 136,
            cached: false,
            coalesced: false,
            tallies,
        };
        assert_eq!(a.to_line(), b.to_line());
    }
}
