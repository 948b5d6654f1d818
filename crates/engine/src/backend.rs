//! Runtime selection of the simulation backend.
//!
//! [`Backend`] is the representation-side twin of [`Executor`]: the
//! executor decides *how* shots run (sequential vs pooled), the backend
//! decides *what* simulates them (statevector, density matrix, or
//! stabilizer tableau — any [`SimState`]). Both are chosen once at the
//! boundary, so no layer above ever forks into per-backend API twins.
//!
//! [`Backend::Auto`] (the default) routes Clifford-only circuits — GHZ
//! preparation, fanout gadgets, teleportation networks — to the
//! stabilizer fast path (`O(n²)` per gate) and everything else to the
//! statevector, using the same
//! [`Circuit::required_caps`](circuit::circuit::Circuit::required_caps)
//! classification the per-backend capability probes consult. The
//! density backend is never auto-selected: it is the exact,
//! exponentially-priced reference you opt into explicitly.
//!
//! A backend is named in code, or by name on the wire
//! (`auto` | `statevector` | `density` | `stabilizer`, read by
//! [`Backend::parse`]).
//!
//! Every backend run goes through [`PreparedJob`] — the circuit
//! compiled once for the resolved backend, then any global shot range
//! replayed on an [`Engine`] — so [`Backend::sample_shots`] and the
//! serving layer's slices are the same code, and both inherit the
//! engine's policies for free: wide statevector circuits (at or above
//! [`EngineConfig::amp_threshold_qubits`](crate::EngineConfig::amp_threshold_qubits))
//! on a pooled engine split each shot's amplitude space across the
//! pool instead of parallelising across shots, and a recording engine
//! ([`Engine::with_trace`]) records, with bit-identical tallies either
//! way. Backends whose states cannot range-split (density, stabilizer)
//! simply never amp-engage (`SimState::AMP_PARALLEL` is `false` for
//! them).
//!
//! ```
//! use circuit::circuit::Circuit;
//! use engine::{Backend, Executor};
//!
//! let mut ghz = Circuit::new(3, 3);
//! ghz.h(0).cx(0, 1).cx(1, 2);
//! for q in 0..3 {
//!     ghz.measure(q, q);
//! }
//! // Clifford circuit: Auto picks the stabilizer path.
//! assert_eq!(Backend::Auto.resolve(&ghz), Backend::Stabilizer);
//! let counts = Backend::Auto
//!     .sample_shots(&ghz, 500, &Executor::sequential(7))
//!     .unwrap();
//! assert_eq!(counts.values().sum::<usize>(), 500);
//! // GHZ records are all-zeros or all-ones.
//! assert!(counts.keys().all(|&k| k == 0 || k == 0b111));
//! ```

use circuit::caps::Unsupported;
use circuit::circuit::Circuit;
use qsim::density::{run_deferred, DensityMatrix};
use qsim::runner::pack_cbits;
use qsim::sim::SimState;
use qsim::statevector::StateVector;
use stabilizer::clifford::CliffordState;

use crate::executor::Executor;
use crate::pool::{Counts, Engine, ShotPlan, PREFIX_MAX_QUBITS};
use qsim::sim::prefix_max_amps;
use std::ops::Range;
use std::sync::Arc;

/// Which simulation representation plays the shots.
///
/// `#[non_exhaustive]`: future representations (matrix-product
/// states, GPU statevectors, …) extend this enum instead of forking
/// the sampling APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Backend {
    /// Route per circuit: Clifford-only circuits go to
    /// [`Backend::Stabilizer`], everything else to
    /// [`Backend::StateVector`]. The default.
    #[default]
    Auto,
    /// Statevector trajectory sampling (`qsim::statevector`) — runs the
    /// full gate set, exponential in width (≤ 26 qubits).
    StateVector,
    /// Exact deferred-measurement density-matrix evolution
    /// (`qsim::density`) — the "infinite-trajectory" reference. The
    /// state is evolved **once** per circuit; each shot then samples a
    /// classical record from the final carrier distribution.
    Density,
    /// Aaronson–Gottesman stabilizer tableau
    /// (`stabilizer::clifford::CliffordState`) — Clifford circuits
    /// only, polynomial in width.
    Stabilizer,
}

impl Backend {
    /// Parses a backend name (case-insensitive): `auto`,
    /// `statevector`/`sv`, `density`/`dm`, `stabilizer`/`clifford`.
    pub fn parse(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(Backend::Auto),
            "statevector" | "sv" => Some(Backend::StateVector),
            "density" | "dm" => Some(Backend::Density),
            "stabilizer" | "clifford" => Some(Backend::Stabilizer),
            _ => None,
        }
    }

    /// The backend's name as accepted by [`Backend::parse`].
    pub fn name(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::StateVector => "statevector",
            Backend::Density => "density",
            Backend::Stabilizer => "stabilizer",
        }
    }

    /// Resolves [`Backend::Auto`] for a concrete circuit: the
    /// stabilizer path iff the circuit is Clifford-only (the shared
    /// [`Circuit::required_caps`](circuit::circuit::Circuit::required_caps)
    /// classification), the statevector otherwise. Explicit choices
    /// pass through unchanged.
    pub fn resolve(self, circuit: &Circuit) -> Backend {
        match self {
            Backend::Auto => {
                if circuit.is_clifford() {
                    Backend::Stabilizer
                } else {
                    Backend::StateVector
                }
            }
            explicit => explicit,
        }
    }

    /// Capability probe: whether this backend (after [`Backend::Auto`]
    /// routing) can execute `circuit`. Delegates to the chosen
    /// [`SimState::supports`] implementation.
    pub fn supports(self, circuit: &Circuit) -> Result<(), Unsupported> {
        match self.resolve(circuit) {
            Backend::StateVector => StateVector::supports(circuit),
            Backend::Density => DensityMatrix::supports(circuit),
            Backend::Stabilizer => CliffordState::supports(circuit),
            Backend::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// Samples `shots` classical records of `circuit` from `|0…0⟩` on
    /// this backend under `exec`, histogramming the packed register
    /// (the `sample_shots` convention): [`PreparedJob::prepare`], then
    /// the whole range at once — the very calls the serving layer makes
    /// per slice, so served tallies equal these by construction.
    ///
    /// Fails up front — with the typed probe error — instead of
    /// panicking mid-shot. Deterministic per backend: for one root
    /// seed, sequential and pooled executors tally identically.
    pub fn sample_shots(
        self,
        circuit: &Circuit,
        shots: usize,
        exec: &Executor,
    ) -> Result<Counts, Unsupported> {
        let shots = shots as u64;
        let (_resolved, job) = PreparedJob::prepare(circuit, self, shots, exec.root_seed())?;
        Ok(job.run_range(exec.engine(), 0..shots))
    }
}

/// A job compiled once for its backend; any range of its global shot
/// indices then replays it. The only runtime backend dispatch:
/// [`Backend::sample_shots`] runs `0..shots` of one, the serving layer
/// runs it slice by slice.
///
/// The statevector and stabilizer arms hold a [`ShotPlan`] (circuit
/// compiled once via `SimState::compile`); the density arm holds the
/// once-evolved ρ from which each shot's record is drawn. Everything
/// but the shot bound and the root seed sits behind an `Arc`, so
/// [`PreparedJob::reseeded`] serves the same circuit under a fresh
/// seed without compiling, evolving or growing anything again.
pub enum PreparedJob {
    /// Fused-kernel statevector replay.
    StateVector(ShotPlan<StateVector>),
    /// Stabilizer-tableau replay.
    Stabilizer(ShotPlan<CliffordState>),
    /// Deferred-measurement density evolution: ρ is evolved **once**
    /// here (its steps consume no randomness); each shot then draws its
    /// record from the final carrier distribution on the shot's own
    /// stream — exactly the counts per-shot evolution would produce.
    Density {
        /// The final density matrix, shared by every reseeded copy.
        rho: Arc<DensityMatrix>,
        /// Classical register width.
        num_cbits: usize,
        /// Root seed for the per-shot record draws.
        root_seed: u64,
    },
}

impl PreparedJob {
    /// Compiles `circuit` for the resolved backend. `shot_end` is the
    /// job's **global** end index (`start + shots` for a ranged job,
    /// plain `shots` otherwise): the plans are built to that bound so
    /// [`PreparedJob::run_range`] accepts any sub-range of the job's
    /// global indices.
    ///
    /// # Errors
    ///
    /// Propagates the backend's capability probe.
    pub fn prepare(
        circuit: &Circuit,
        backend: Backend,
        shot_end: u64,
        root_seed: u64,
    ) -> Result<(Backend, PreparedJob), Unsupported> {
        let resolved = backend.resolve(circuit);
        resolved.supports(circuit)?;
        let n = circuit.num_qubits();
        let job = match resolved {
            Backend::StateVector => PreparedJob::StateVector(ShotPlan::new(
                circuit.clone(),
                StateVector::new(n),
                shot_end,
                root_seed,
            )),
            Backend::Stabilizer => PreparedJob::Stabilizer(ShotPlan::new(
                circuit.clone(),
                CliffordState::new(n),
                shot_end,
                root_seed,
            )),
            Backend::Density => PreparedJob::Density {
                rho: Arc::new(run_deferred(circuit, &DensityMatrix::new(n))),
                num_cbits: circuit.num_cbits(),
                root_seed,
            },
            Backend::Auto => unreachable!("resolve never returns Auto"),
        };
        Ok((resolved, job))
    }

    /// The same program under another global shot end and root seed —
    /// what [`PreparedJob::prepare`] would return for them, sharing this
    /// job's compiled program, noiseless prefix and tree, or ρ. O(1):
    /// it clones only `Arc`s.
    pub fn reseeded(&self, shot_end: u64, root_seed: u64) -> PreparedJob {
        match self {
            PreparedJob::StateVector(plan) => {
                PreparedJob::StateVector(plan.reseeded(shot_end, root_seed))
            }
            PreparedJob::Stabilizer(plan) => {
                PreparedJob::Stabilizer(plan.reseeded(shot_end, root_seed))
            }
            PreparedJob::Density { rho, num_cbits, .. } => PreparedJob::Density {
                rho: Arc::clone(rho),
                num_cbits: *num_cbits,
                root_seed,
            },
        }
    }

    /// A static upper bound on the bytes this job's shared part holds
    /// for as long as it lives, whatever runs on it — what a cache that
    /// keeps it charges:
    ///
    /// * statevector: `16 B × (2ⁿ + tree budget)` for the noiseless
    ///   prefix and its tree when the width admits one (below
    ///   `PREFIX_MAX_QUBITS`), plus the one-amplitude initial state;
    /// * stabilizer: three tableaux of `(2n + 1)·⌈2n/64⌉` words (the
    ///   initial state and the program's x/z half before and after),
    ///   plus up to 16 sign masks per instruction;
    /// * density: ρ, `16 B × 4ⁿ`;
    ///
    /// plus 512 B per instruction for the circuit copy and its compiled
    /// op on the replaying arms.
    pub fn bytes_bound(&self) -> usize {
        match self {
            PreparedJob::StateVector(plan) => {
                let n = plan.initial().num_qubits();
                let prefix = if n < PREFIX_MAX_QUBITS {
                    prefix_max_amps(n)
                } else {
                    0
                };
                16 * (1 + prefix) + program_bytes(plan.circuit())
            }
            PreparedJob::Stabilizer(plan) => {
                let n = plan.initial().num_qubits();
                let words = (2 * n).div_ceil(64);
                let instructions = plan.circuit().instructions().len();
                8 * words * (3 * (2 * n + 1) + 16 * instructions) + program_bytes(plan.circuit())
            }
            PreparedJob::Density { rho, .. } => 16 << (2 * rho.num_qubits()),
        }
    }

    /// Executes the global shot indices `range` of this job on
    /// `engine`, under its policies (threads, amp engagement, metrics,
    /// recording). Merging the counts of a partition of `0..shots`
    /// reproduces the uninterrupted run bit-identically (the engine's
    /// ranged-fold guarantee).
    pub fn run_range(&self, engine: &Engine, range: Range<u64>) -> Counts {
        match self {
            PreparedJob::StateVector(plan) => engine.run_plan_range(plan, range),
            PreparedJob::Stabilizer(plan) => engine.run_plan_range(plan, range),
            // Workers share `&rho` — record sampling only reads the
            // final state, so the per-worker workspace is just the
            // classical register, not a clone of the (potentially
            // huge) matrix.
            PreparedJob::Density {
                rho,
                num_cbits,
                root_seed,
            } => engine.run_records(
                range,
                *root_seed,
                || vec![false; *num_cbits],
                |cbits, rng| {
                    cbits.iter_mut().for_each(|b| *b = false);
                    rho.sample_record(cbits, rng);
                    pack_cbits(cbits)
                },
            ),
        }
    }
}

/// What [`PreparedJob::bytes_bound`] charges per instruction for the
/// circuit copy and its compiled op: a fused two-qubit kernel alone is
/// a 4×4 complex matrix, 256 B.
const PROGRAM_BYTES_PER_INSTRUCTION: usize = 512;

fn program_bytes(circuit: &Circuit) -> usize {
    PROGRAM_BYTES_PER_INSTRUCTION * circuit.instructions().len()
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        c
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_junk() {
        assert_eq!(Backend::parse("AUTO"), Some(Backend::Auto));
        assert_eq!(Backend::parse("sv"), Some(Backend::StateVector));
        assert_eq!(Backend::parse("dm"), Some(Backend::Density));
        assert_eq!(Backend::parse(" clifford "), Some(Backend::Stabilizer));
        assert_eq!(Backend::parse("qutrit"), None);
        for b in [
            Backend::Auto,
            Backend::StateVector,
            Backend::Density,
            Backend::Stabilizer,
        ] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
    }

    #[test]
    fn auto_routes_by_cliffordness() {
        let c = bell();
        assert_eq!(Backend::Auto.resolve(&c), Backend::Stabilizer);
        let mut t = bell();
        t.t(0);
        assert_eq!(Backend::Auto.resolve(&t), Backend::StateVector);
        // Explicit choices pass through.
        assert_eq!(Backend::Density.resolve(&c), Backend::Density);
    }

    #[test]
    fn stabilizer_backend_rejects_non_clifford_up_front() {
        let mut c = bell();
        c.t(0);
        let err = Backend::Stabilizer
            .sample_shots(&c, 10, &Executor::sequential(1))
            .unwrap_err();
        assert_eq!(err.backend, "stabilizer");
        // Auto handles the same circuit by routing to the statevector.
        let counts = Backend::Auto
            .sample_shots(&c, 10, &Executor::sequential(1))
            .unwrap();
        assert_eq!(counts.values().sum::<usize>(), 10);
    }

    #[test]
    fn all_backends_sample_bell_correlations() {
        let c = bell();
        let exec = Executor::sequential(33);
        for b in [Backend::StateVector, Backend::Stabilizer, Backend::Density] {
            let counts = b.sample_shots(&c, 600, &exec).unwrap();
            assert_eq!(counts.values().sum::<usize>(), 600, "{b}");
            for key in counts.keys() {
                assert!(*key == 0 || *key == 3, "{b}: unexpected record {key}");
            }
            assert_eq!(counts.len(), 2, "{b}: both outcomes should appear");
        }
    }

    #[test]
    fn every_backend_is_mode_invariant() {
        let c = bell();
        for b in [Backend::StateVector, Backend::Stabilizer, Backend::Density] {
            let seq = b.sample_shots(&c, 2_000, &Executor::sequential(5)).unwrap();
            let pooled = b
                .sample_shots(&c, 2_000, &Executor::pooled(Engine::with_threads(4), 5))
                .unwrap();
            assert_eq!(seq, pooled, "{b} diverged across executors");
        }
    }

    #[test]
    fn density_arm_matches_the_generic_per_shot_loop() {
        // The once-evolved fast path must tally exactly what per-shot
        // deferred evolution would: same final ρ, same per-shot record
        // draw on the same stream.
        let mut c = Circuit::new(2, 1);
        c.h(0);
        c.push(circuit::circuit::Instruction::Depolarizing {
            qubits: vec![0],
            p: 0.2,
        });
        c.cx(0, 1);
        c.measure(0, 0);
        let exec = Executor::sequential(21);
        let fast = Backend::Density.sample_shots(&c, 300, &exec).unwrap();
        let generic = exec.sample_shots(&c, &DensityMatrix::new(2), 300);
        assert_eq!(fast, generic);
    }

    #[test]
    fn a_reseeded_job_tallies_as_a_fresh_prepare() {
        // One template, reseeded per seed: each run (the statevector's
        // on the prefix and tree the earlier seeds built) must equal a
        // fresh job's.
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).h(2);
        for q in 0..3 {
            c.measure(q, q);
        }
        let engine = Engine::with_threads(2);
        for b in [Backend::StateVector, Backend::Stabilizer, Backend::Density] {
            let (_, template) = PreparedJob::prepare(&c, b, 0, 0).unwrap();
            for seed in 0..4 {
                let job = template.reseeded(300, seed);
                let fresh = b
                    .sample_shots(&c, 300, &Executor::pooled(engine.clone(), seed))
                    .unwrap();
                assert_eq!(job.run_range(&engine, 0..300), fresh, "{b}, seed {seed}");
            }
            assert!(template.bytes_bound() > 0);
        }
    }

    #[test]
    fn density_backend_rejects_measured_qubit_reuse() {
        let mut c = Circuit::new(1, 2);
        c.measure(0, 0).h(0).measure(0, 1);
        let err = Backend::Density
            .sample_shots(&c, 10, &Executor::sequential(1))
            .unwrap_err();
        assert_eq!(err.backend, "density");
    }
}
