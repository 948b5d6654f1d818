//! Request admission: the validation pipeline shared by the scheduler
//! and the shard coordinator, and the cache that runs its pure half
//! once per circuit.
//!
//! Admitting a run request means: parse the backend name, parse the
//! QASM, enforce the serving limits ([`MAX_REQUEST_QUBITS`] /
//! [`MAX_REQUEST_CBITS`]), check the `shot_range` arithmetic, and
//! canonicalize the circuit into its [`CacheKey`]. Both front ends —
//! the single-machine [`Scheduler`] and the `crates/shard` coordinator
//! — must agree on every one of these decisions, or an identical
//! request would hash to different keys (breaking coalescing) or be
//! rejected on one path and admitted on the other. So the pipeline
//! lives here, once.
//!
//! ## Once per circuit: [`AdmissionCache`]
//!
//! A COMPAS estimate runs one protocol circuit again and again under
//! fresh seeds, and everything but the seed's share is pure in the
//! circuit text: the parse, the canonical text and its fingerprint,
//! the `Auto` routing, the compiled program, the noiseless prefix and
//! its tree of branch states (or ρ). The [`AdmissionCache`], one per
//! serving process and owned by its [`Scheduler`] or coordinator, keeps
//! them in one map keyed on the exact raw QASM text. An entry
//! ([`Parsed`]) holds the parsed circuit, its canonical text and
//! fingerprint, and — once a request has run on it — the seed-free
//! [`PreparedJob`] per resolved backend, which each later request
//! reseeds in O(1) ([`PreparedJob::reseeded`]). The key is the whole
//! text, so the map's own equality check means two texts can never
//! share an answer, whatever their hashes. Textual variants of one
//! circuit are separate entries, each with its own prefix tree.
//!
//! Only successful admissions are cached; the per-request checks —
//! backend name, `shot_range` arithmetic, the result-cache key, the
//! quota and rate gates — stay per request. The map is bounded in
//! bytes: each entry is charged a static upper bound (its texts and
//! circuit when inserted, [`PreparedJob::bytes_bound`] when a job is
//! kept in it), and the least recently used entries go first. A
//! running job keeps its own `Arc`s, so eviction never pulls a program
//! from under a slice. A shard worker receives the coordinator's
//! canonical text on every request, so it hits too: a repeated circuit
//! under a fresh seed parses and prepares once per process.
//!
//! An admission comes in two halves. [`AdmissionCache::probe`] is one
//! locked lookup of the exact raw text and never parses: it settles a
//! request whose text the map holds (its ticket or its error), and
//! says so for one it does not. That is all a front end's reactor
//! thread may run. [`AdmissionCache::finish`] completes the rest on a
//! submitter, parsing a text the probe did not find. Either way the
//! text is hashed and looked up once per request.
//!
//! The free [`admit`] is the uncached reference: it runs the whole
//! pipeline every call, and the cache's miss path is the same code.
//!
//! [`Scheduler`]: crate::scheduler::Scheduler
//! [`MAX_REQUEST_QUBITS`]: crate::scheduler::MAX_REQUEST_QUBITS
//! [`MAX_REQUEST_CBITS`]: crate::scheduler::MAX_REQUEST_CBITS

use crate::cache::{fingerprint, CacheKey};
use crate::protocol::RunRequest;
use crate::scheduler::{elapsed_ns, MAX_REQUEST_CBITS, MAX_REQUEST_QUBITS};
use circuit::caps::Unsupported;
use circuit::circuit::Circuit;
use circuit::qasm::{from_qasm3, to_qasm3};
use engine::{Backend, PreparedJob};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A run request that passed admission: parsed, bounded, canonicalized.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// The parsed circuit.
    pub circuit: Circuit,
    /// The backend the client named (possibly `Auto`).
    pub requested: Backend,
    /// The backend after `Auto` routing (what will execute).
    pub resolved: Backend,
    /// The job's identity: canonical fingerprint + resolved backend +
    /// global shot range + seed.
    pub key: CacheKey,
    /// The canonical QASM text the fingerprint was computed over.
    /// Dispatch layers that re-serialize the job (the shard
    /// coordinator) must forward *this* text, not the client's raw
    /// bytes — it is already validated, and re-admitting it downstream
    /// is guaranteed to reproduce `key.circuit_fp`.
    pub canonical: String,
}

impl Admitted {
    /// Global end of the job's shot range (`key.start + key.shots`) —
    /// the `shots` a [`ShotPlan`] must carry so the engine's ranged
    /// primitives accept this job's global indices.
    ///
    /// [`ShotPlan`]: engine::ShotPlan
    pub fn shot_end(&self) -> u64 {
        self.key.start + self.key.shots
    }
}

/// Validates and canonicalizes one run request — the uncached
/// reference of an [`AdmissionCache`] admission
/// ([`AdmissionCache::probe`], then [`AdmissionCache::finish`]), which
/// runs this pipeline once per circuit text.
///
/// # Errors
///
/// Returns the human-readable message for the `error` response: unknown
/// backend, QASM parse failure, serving-limit violation, or a
/// `shot_range` whose length disagrees with `shots`.
pub fn admit(run: &RunRequest) -> Result<Admitted, String> {
    let requested = requested_backend(run)?;
    let (circuit, canonical) = parse(&run.qasm)?;
    let start = shot_start(run)?;
    let resolved = requested.resolve(&circuit);
    let key = job_key(fingerprint(&canonical), resolved, run, start);
    Ok(Admitted {
        circuit,
        requested,
        resolved,
        key,
        canonical,
    })
}

/// The backend the request names.
fn requested_backend(run: &RunRequest) -> Result<Backend, String> {
    Backend::parse(&run.backend).ok_or_else(|| format!("unknown backend \"{}\"", run.backend))
}

/// The first global shot index of the request, once its `shot_range`
/// (if any) agrees with `shots`.
fn shot_start(run: &RunRequest) -> Result<u64, String> {
    match run.shot_range {
        None => Ok(0),
        Some((start, end)) => {
            // The wire layer already rejected reversed ranges; the
            // remaining contract is that `shots` is the executed count.
            if end - start != run.shots {
                return Err(format!(
                    "\"shot_range\" [{start}, {end}] has length {} but \"shots\" is {}",
                    end - start,
                    run.shots
                ));
            }
            Ok(start)
        }
    }
}

/// `run`'s ticket on the entry `parsed` of its text.
fn ticket(parsed: Arc<Parsed>, requested: Backend, run: &RunRequest) -> Result<Ticket, String> {
    let start = shot_start(run)?;
    let resolved = parsed.route(requested);
    Ok(Ticket {
        key: job_key(parsed.fingerprint, resolved, run, start),
        parsed,
        requested,
        resolved,
    })
}

fn job_key(circuit_fp: u64, resolved: Backend, run: &RunRequest, start: u64) -> CacheKey {
    CacheKey {
        circuit_fp,
        backend: resolved.name(),
        shots: run.shots,
        root_seed: run.root_seed,
        start,
    }
}

/// Parses `qasm`, enforces the serving limits and canonicalizes it:
/// the pure half of [`admit`], and the only parse in the serving path.
fn parse(qasm: &str) -> Result<(Circuit, String), String> {
    let circuit = from_qasm3(qasm).map_err(|e| e.to_string())?;
    // Service-level admission limits, enforced *before* any backend
    // state is allocated: the per-backend `supports` probes bound the
    // exponential representations (statevector ≤ 26, density ≤ 13),
    // but the stabilizer tableau is O(n²) with no cap of its own — an
    // untrusted `qubit[10⁸] q;` must be an error response, not an
    // allocation abort. The classical register is capped by the tally
    // convention (records are packed into one 64-bit word).
    if circuit.num_qubits() > MAX_REQUEST_QUBITS || circuit.num_cbits() > MAX_REQUEST_CBITS {
        return Err(format!(
            "request exceeds serving limits: {} qubits / {} cbits \
             (max {MAX_REQUEST_QUBITS} / {MAX_REQUEST_CBITS})",
            circuit.num_qubits(),
            circuit.num_cbits()
        ));
    }
    let canonical = to_qasm3(&circuit);
    Ok((circuit, canonical))
}

/// The backends an [`AdmissionCache`] entry keeps a prepared job for,
/// in [`Parsed::jobs`] order: what `Auto` and the named backends
/// resolve to.
const KEPT: [Backend; 3] = [Backend::StateVector, Backend::Density, Backend::Stabilizer];

/// An [`AdmissionCache`] entry: what admission derives from one
/// circuit text, and the seed-free jobs prepared from it.
pub struct Parsed {
    /// The parsed circuit.
    pub circuit: Circuit,
    /// The canonical QASM text ([`Admitted::canonical`]).
    pub canonical: String,
    /// [`fingerprint`] of `canonical`.
    pub fingerprint: u64,
    /// Where `Backend::Auto` routes the circuit.
    auto: Backend,
    /// The raw text this was parsed from: the entry's key.
    raw: Arc<str>,
    /// Per [`KEPT`] backend, the seed-free job once a request has run
    /// on it and the byte bound let the entry keep it.
    jobs: [OnceLock<PreparedJob>; 3],
}

impl std::fmt::Debug for Parsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parsed")
            .field("fingerprint", &self.fingerprint)
            .field("auto", &self.auto)
            .finish_non_exhaustive()
    }
}

impl Parsed {
    /// `requested` after `Auto` routing.
    fn route(&self, requested: Backend) -> Backend {
        match requested {
            Backend::Auto => self.auto,
            named => named,
        }
    }

    /// Where the seed-free job for `resolved` is kept, if it is a
    /// [`KEPT`] backend.
    fn job(&self, resolved: Backend) -> Option<&OnceLock<PreparedJob>> {
        let slot = KEPT.iter().position(|&b| b == resolved)?;
        Some(&self.jobs[slot])
    }

    /// Bytes charged when the entry is inserted: both texts and the
    /// circuit, at 96 B per instruction (an `Instruction` is 56 B, plus
    /// the heap block of an operand list).
    fn bytes(&self) -> usize {
        self.raw.len() + self.canonical.len() + 96 * self.circuit.instructions().len()
    }
}

/// A request admitted through an [`AdmissionCache`]: the shared
/// [`Parsed`] entry and the request's own job identity.
#[derive(Debug, Clone)]
pub struct Ticket {
    /// The circuit, shared with every request of the same text.
    pub parsed: Arc<Parsed>,
    /// The backend the client named (possibly `Auto`).
    pub requested: Backend,
    /// The backend after `Auto` routing (what will execute).
    pub resolved: Backend,
    /// The job's identity, as [`Admitted::key`].
    pub key: CacheKey,
}

/// One request's admission, begun by [`AdmissionCache::probe`] and
/// completed by [`AdmissionCache::finish`], with its own `stage.parse`
/// timing and what its result-cache lookup learned.
#[derive(Debug)]
pub struct Admission {
    /// The verdict: a ticket or the error reply's message. `None` until
    /// a text the probe did not find is parsed.
    pub ticket: Option<Result<Ticket, String>>,
    /// When the probe began: the start of the request's slow trace.
    pub started: Instant,
    /// Nanoseconds spent admitting so far (the probe, then any parse);
    /// the hand-off between the halves is not counted.
    pub parse_ns: u64,
    /// The result-cache generation its memory lookup missed at; `None`
    /// before one ([`crate::cache::ResultCache::get_guarded`]).
    pub missed_at: Option<u64>,
}

/// Most bytes an [`AdmissionCache`] charges before it evicts. Sized on
/// the served workloads, which each repeat one circuit: their GHZ-12
/// is charged ≈ 220 KiB on the statevector (a 4 096-amplitude prefix
/// root, its 8 192-amplitude tree budget, program and texts) and
/// ≈ 40 KiB on the stabilizer. 4 MiB keeps that entry with room for a
/// dozen more of its size — an estimate alternating a few protocol
/// circuits — and holds one statevector entry of up to 17 qubits
/// (≈ 2.6 MiB). A wider statevector prefix, or a ρ of 9 or more
/// qubits, is never kept: it is prepared per request and freed with
/// its job, as without the cache. The charges are static upper bounds
/// (a tree rarely fills its budget), so the memory the cache holds
/// stays below this.
const BYTE_BOUND: usize = 4 << 20;

/// The per-process admission cache (module docs). Generic over the
/// map's hasher so a test can make every text collide.
pub struct AdmissionCache<H = RandomState> {
    maps: Mutex<Entries<H>>,
    bound: usize,
    /// `admission.parses`: texts parsed (each map miss).
    parses: obs::Counter,
    /// `prepared.hits` / `prepared.misses`: requests that found their
    /// backend's seed-free job in the entry, or prepared one.
    hits: obs::Counter,
    misses: obs::Counter,
    /// `prepared.bytes`: what the entries are charged now.
    bytes: obs::Gauge,
}

/// The map, its recency order and its charge.
struct Entries<H> {
    map: HashMap<Arc<str>, Slot, H>,
    /// Every entry's key by its last use, oldest first.
    recency: BTreeMap<u64, Arc<str>>,
    tick: u64,
    bytes: usize,
}

struct Slot {
    parsed: Arc<Parsed>,
    bytes: usize,
    tick: u64,
}

impl Slot {
    /// Moves the entry to `tick`, the newest end of `recency`.
    fn touch(&mut self, tick: u64, recency: &mut BTreeMap<u64, Arc<str>>) {
        let old = std::mem::replace(&mut self.tick, tick);
        let key = recency.remove(&old).expect("every entry has a tick");
        recency.insert(tick, key);
    }
}

impl AdmissionCache {
    /// An empty cache whose counters are `registry`'s, their names
    /// prefixed with `prefix` (`""` for a server, `"shard."` for a
    /// coordinator), or unattached without one.
    pub fn new(registry: Option<&obs::Registry>, prefix: &str) -> AdmissionCache {
        AdmissionCache::with_hasher(registry, prefix, BYTE_BOUND, RandomState::new())
    }
}

impl<H: BuildHasher> AdmissionCache<H> {
    fn with_hasher(
        registry: Option<&obs::Registry>,
        prefix: &str,
        bound: usize,
        hasher: H,
    ) -> AdmissionCache<H> {
        let counter = |name: &str| {
            registry.map_or_else(obs::Counter::new, |r| r.counter(&format!("{prefix}{name}")))
        };
        AdmissionCache {
            maps: Mutex::new(Entries {
                map: HashMap::with_hasher(hasher),
                recency: BTreeMap::new(),
                tick: 0,
                bytes: 0,
            }),
            bound,
            parses: counter("admission.parses"),
            hits: counter("prepared.hits"),
            misses: counter("prepared.misses"),
            bytes: registry.map_or_else(obs::Gauge::new, |r| {
                r.gauge(&format!("{prefix}prepared.bytes"))
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Entries<H>> {
        self.maps.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The first half of an admission, lock-only: the backend name,
    /// then one lookup of the exact raw text. A held text is settled
    /// here (its ticket, or a `shot_range` error); a text the map does
    /// not hold is left unparsed, for [`AdmissionCache::finish`].
    pub fn probe(&self, run: &RunRequest) -> Admission {
        let started = Instant::now();
        let ticket = match requested_backend(run) {
            Ok(requested) => {
                let held = self.lock().hit(&run.qasm);
                held.map(|parsed| ticket(parsed, requested, run))
            }
            Err(error) => Some(Err(error)),
        };
        Admission {
            ticket,
            started,
            parse_ns: elapsed_ns(started),
            missed_at: None,
        }
    }

    /// Completes `admission` of `run`: the probe's verdict, or — for a
    /// text it did not find — the verdict of parsing it now (outside
    /// the lock; kept if it parsed). Returns the verdict and the
    /// admission's total `stage.parse` nanoseconds.
    pub fn finish(&self, admission: Admission, run: &RunRequest) -> (Result<Ticket, String>, u64) {
        if let Some(verdict) = admission.ticket {
            return (verdict, admission.parse_ns);
        }
        let started = Instant::now();
        let verdict = requested_backend(run).and_then(|requested| {
            let parsed = self.parse_and_keep(&run.qasm)?;
            ticket(parsed, requested, run)
        });
        (verdict, admission.parse_ns + elapsed_ns(started))
    }

    /// Parses `qasm` and keeps its entry, unless a request of the same
    /// text kept one meanwhile.
    fn parse_and_keep(&self, qasm: &str) -> Result<Arc<Parsed>, String> {
        self.parses.inc();
        let (circuit, canonical) = parse(qasm)?;
        let parsed = Arc::new(Parsed {
            fingerprint: fingerprint(&canonical),
            auto: Backend::Auto.resolve(&circuit),
            raw: qasm.into(),
            jobs: Default::default(),
            circuit,
            canonical,
        });
        let mut entries = self.lock();
        if let Some(held) = entries.hit(qasm) {
            // Another request of this text parsed it meanwhile.
            return Ok(held);
        }
        entries.insert(&parsed, self.bound);
        self.bytes.set(entries.bytes as u64);
        Ok(parsed)
    }

    /// The ticket's job under its own seed and shot end: the entry's
    /// seed-free job reseeded, or — on a miss — prepared for the
    /// resolved backend (outside the lock), and a seed-free copy kept
    /// in the entry if it is still held and the bound has room.
    ///
    /// # Errors
    ///
    /// Propagates the backend's capability probe.
    pub fn prepare(&self, ticket: &Ticket) -> Result<PreparedJob, Unsupported> {
        let (shot_end, seed) = (ticket.key.range().end, ticket.key.root_seed);
        let kept = ticket.parsed.job(ticket.resolved);
        if let Some(job) = kept.and_then(OnceLock::get) {
            self.hits.inc();
            return Ok(job.reseeded(shot_end, seed));
        }
        self.misses.inc();
        let (_, job) =
            PreparedJob::prepare(&ticket.parsed.circuit, ticket.resolved, shot_end, seed)?;
        if let Some(kept) = kept {
            let mut entries = self.lock();
            // Under the lock, so only one racing miss is charged.
            if kept.get().is_none() && entries.grow(&ticket.parsed, job.bytes_bound(), self.bound) {
                let _ = kept.set(job.reseeded(0, 0));
            }
            self.bytes.set(entries.bytes as u64);
        }
        Ok(job)
    }

    /// The byte budget the charged entries never exceed.
    pub fn bound(&self) -> usize {
        self.bound
    }
}

impl<H: BuildHasher> Entries<H> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The entry for `qasm`, moved to the newest end of the recency
    /// order.
    fn hit(&mut self, qasm: &str) -> Option<Arc<Parsed>> {
        let tick = self.next_tick();
        let slot = self.map.get_mut(qasm)?;
        slot.touch(tick, &mut self.recency);
        Some(slot.parsed.clone())
    }

    /// Keeps `parsed` as the newest entry, evicting the least recently
    /// used ones to make room; nothing if it alone exceeds `bound`.
    fn insert(&mut self, parsed: &Arc<Parsed>, bound: usize) {
        let bytes = parsed.bytes();
        if bytes > bound {
            return;
        }
        let tick = self.next_tick();
        self.recency.insert(tick, parsed.raw.clone());
        let slot = Slot {
            parsed: parsed.clone(),
            bytes,
            tick,
        };
        self.map.insert(parsed.raw.clone(), slot);
        self.bytes += bytes;
        self.evict_to(bound);
    }

    /// Charges `parsed`'s entry `extra` more bytes and makes it the
    /// newest, evicting the least recently used others to make room;
    /// `false` (nothing charged) if the entry is no longer held or
    /// would alone exceed `bound`.
    fn grow(&mut self, parsed: &Arc<Parsed>, extra: usize, bound: usize) -> bool {
        let tick = self.next_tick();
        let Some(slot) = self.map.get_mut(&*parsed.raw) else {
            return false;
        };
        if !Arc::ptr_eq(&slot.parsed, parsed) || slot.bytes + extra > bound {
            return false;
        }
        slot.bytes += extra;
        slot.touch(tick, &mut self.recency);
        self.bytes += extra;
        self.evict_to(bound);
        true
    }

    /// Evicts the least recently used entries until the charge is
    /// within `bound`. The newest entry is never reached: it alone fits.
    fn evict_to(&mut self, bound: usize) {
        while self.bytes > bound {
            let Some((_, oldest)) = self.recency.pop_first() else {
                break;
            };
            if let Some(slot) = self.map.remove(&*oldest) {
                self.bytes -= slot.bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hasher;

    fn bell() -> String {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        to_qasm3(&c)
    }

    /// `run`'s admission through `cache`: its probe, then its finish.
    fn through<H: BuildHasher>(
        cache: &AdmissionCache<H>,
        run: &RunRequest,
    ) -> Result<Ticket, String> {
        cache.finish(cache.probe(run), run).0
    }

    #[test]
    fn ranged_and_full_requests_share_keys_only_when_identical_work() {
        let full = admit(&RunRequest::new(bell(), 100, 7, "auto")).unwrap();
        // A [0, 100] range is the same work as a plain 100-shot run.
        let zero_based = admit(&RunRequest::new(bell(), 0, 7, "auto").with_shot_range(0, 100));
        assert_eq!(zero_based.unwrap().key, full.key);
        // A shifted range is different work, even at the same length.
        let shifted = admit(&RunRequest::new(bell(), 0, 7, "auto").with_shot_range(100, 200));
        assert_ne!(shifted.unwrap().key, full.key);
    }

    #[test]
    fn shot_count_must_match_range_length() {
        let mut run = RunRequest::new(bell(), 100, 7, "auto");
        run.shot_range = Some((0, 50));
        let err = admit(&run).unwrap_err();
        assert!(err.contains("length 50"), "{err}");
    }

    #[test]
    fn shot_end_is_the_plan_bound() {
        let a = admit(&RunRequest::new(bell(), 0, 7, "sv").with_shot_range(500, 750)).unwrap();
        assert_eq!(a.key.range(), 500..750);
        assert_eq!(a.shot_end(), 750);
    }

    #[test]
    fn readmitting_the_canonical_text_reproduces_the_key() {
        // The shard coordinator dispatches `Admitted::canonical` to its
        // workers; each worker's own admission of that text must agree
        // on the job identity, or coalescing/caching would fracture
        // across the topology.
        let raw = format!("// banner\n{}", bell().replace(";\n", ";\n\n"));
        let first = admit(&RunRequest::new(raw, 100, 7, "auto")).unwrap();
        let second = admit(&RunRequest::new(first.canonical.clone(), 100, 7, "auto")).unwrap();
        assert_eq!(first.key, second.key);
        assert_eq!(first.canonical, second.canonical, "canonical is a fixpoint");
    }

    #[test]
    fn admission_errors_match_the_scheduler_messages() {
        assert!(admit(&RunRequest::new(bell(), 1, 0, "qutrit"))
            .unwrap_err()
            .contains("unknown backend"));
        assert!(admit(&RunRequest::new("not qasm", 1, 0, "auto"))
            .unwrap_err()
            .contains("OPENQASM"));
        let huge = "OPENQASM 3.0;\nqubit[100000000] q;\nh q[0];\n";
        assert!(admit(&RunRequest::new(huge, 1, 0, "auto"))
            .unwrap_err()
            .contains("serving limits"));
    }

    #[test]
    fn the_cache_admits_exactly_as_the_reference_does() {
        let cache = AdmissionCache::new(None, "");
        let runs = [
            RunRequest::new(bell(), 100, 7, "auto"),
            RunRequest::new(bell(), 0, 9, "sv").with_shot_range(500, 750),
            RunRequest::new(bell(), 100, 7, "qutrit"),
            RunRequest::new("not qasm", 1, 0, "auto"),
            RunRequest::new(bell(), 100, 7, "auto").with_shot_range(0, 50),
            RunRequest::new(bell(), 10, 1, "density"),
        ];
        // Twice over: the second pass is all map hits.
        for run in runs.iter().chain(&runs) {
            let reference = admit(run);
            let cached = through(&cache, run);
            match (reference, cached) {
                (Ok(a), Ok(t)) => {
                    assert_eq!(a.key, t.key);
                    assert_eq!((a.requested, a.resolved), (t.requested, t.resolved));
                    assert_eq!(a.canonical, t.parsed.canonical);
                }
                (Err(a), Err(t)) => assert_eq!(a, t),
                (a, t) => panic!("diverged: {:?} vs {:?}", a.map(|a| a.key), t.map(|t| t.key)),
            }
        }
        // Bell once; the unparsable text each time, as errors are not kept.
        assert_eq!(cache.parses.get(), 3);
    }

    /// Hashes every key to the same value.
    #[derive(Clone, Default)]
    struct Collide;

    impl BuildHasher for Collide {
        type Hasher = Collide;
        fn build_hasher(&self) -> Collide {
            Collide
        }
    }

    impl Hasher for Collide {
        fn finish(&self) -> u64 {
            7
        }
        fn write(&mut self, _: &[u8]) {}
    }

    #[test]
    fn colliding_texts_of_equal_length_never_share_an_answer() {
        let cache = AdmissionCache::with_hasher(None, "", BYTE_BOUND, Collide);
        // Equal lengths, one character apart: `h` vs `x` on qubit 0.
        let texts: Vec<String> = ["h", "x", "z", "y"]
            .iter()
            .map(|g| {
                format!("OPENQASM 3.0;\nqubit[2] q;\nbit[2] c;\n{g} q[0];\nc[0] = measure q[0];\n")
            })
            .collect();
        assert!(texts.iter().all(|t| t.len() == texts[0].len()));
        for round in 0..2 {
            for text in &texts {
                let run = RunRequest::new(text.as_str(), 64, 3, "sv");
                let ticket = through(&cache, &run).unwrap();
                let reference = admit(&run).unwrap();
                assert_eq!(ticket.key, reference.key, "round {round}");
                assert_eq!(ticket.parsed.canonical, reference.canonical);
                let job = cache.prepare(&ticket).unwrap();
                let direct = Backend::StateVector
                    .sample_shots(&reference.circuit, 64, &engine::Executor::sequential(3))
                    .unwrap();
                assert_eq!(job.run_range(&engine::Engine::sequential(), 0..64), direct);
            }
        }
        assert_eq!(cache.parses.get(), 4);
        assert_eq!(cache.misses.get(), 4);
        assert_eq!(cache.hits.get(), 4);
    }

    #[test]
    fn the_byte_bound_evicts_the_least_recently_used() {
        let probe = AdmissionCache::new(None, "");
        let circuit = |i: usize| {
            let mut c = Circuit::new(3, 3);
            c.rx(0, 0.01 * i as f64).cx(0, 1).cx(1, 2).measure(2, 2);
            to_qasm3(&c)
        };
        let ticket = through(&probe, &RunRequest::new(circuit(0), 8, 1, "sv")).unwrap();
        probe.prepare(&ticket).unwrap();
        let per_circuit = probe.bytes.get() as usize;
        // Room for three circuits with their prepared jobs.
        let cache =
            AdmissionCache::with_hasher(None, "", 3 * per_circuit + 100, RandomState::new());
        for i in 0..10 {
            let ticket = through(&cache, &RunRequest::new(circuit(i), 8, 1, "sv")).unwrap();
            cache.prepare(&ticket).unwrap();
            assert!(
                cache.bytes.get() as usize <= cache.bound(),
                "{} > {}",
                cache.bytes.get(),
                cache.bound()
            );
        }
        // The newest circuit is still held; the oldest was evicted.
        let newest = through(&cache, &RunRequest::new(circuit(9), 8, 2, "sv")).unwrap();
        cache.prepare(&newest).unwrap();
        assert_eq!(cache.parses.get(), 10);
        assert_eq!(cache.hits.get(), 1);
        through(&cache, &RunRequest::new(circuit(0), 8, 2, "sv")).unwrap();
        assert_eq!(cache.parses.get(), 11, "the oldest text was parsed again");
        // An entry larger than the whole budget is served, not kept.
        let tiny = AdmissionCache::with_hasher(None, "", 10, RandomState::new());
        let ticket = through(&tiny, &RunRequest::new(circuit(1), 8, 1, "sv")).unwrap();
        tiny.prepare(&ticket).unwrap();
        assert_eq!(tiny.bytes.get(), 0);
    }
}
