//! # qsim
//!
//! Quantum simulators for the COMPAS reproduction:
//!
//! * [`statevector`] — pure-state simulation with mid-circuit measurement,
//!   reset, feed-forward, and stochastic Pauli noise (the workhorse behind
//!   the paper's shot-based CSWAP fidelity experiments, §5.2). The state
//!   stores only its live sub-cube: the qubits at a known classical
//!   value (*pinned bits*) are not stored, so its buffer holds
//!   `2^live` amplitudes in index order and every amplitude loop,
//!   interpreted or compiled, is a dense pass over it — work ∝
//!   `2^live`, bit-identical to the full-register simulation;
//! * [`density`] — exact density-matrix simulation with depolarizing /
//!   readout / reset channels and deferred-measurement execution of
//!   feed-forward circuits (the reference used for GHZ fidelity, §5.3, and
//!   the network-noise bounds of §5.5 / Appendix B);
//! * [`sim`] — the [`sim::SimState`] trait: the pluggable
//!   simulation-backend contract the shot loop runs against
//!   (implemented here by `StateVector` and `DensityMatrix`, and by the
//!   `stabilizer` crate's `CliffordState`), with typed
//!   [`sim::Unsupported`] capability probes instead of mid-shot panics;
//! * [`compile`] — compile-once lowering of circuits into fused
//!   statevector kernels (gate fusion, two-qubit 4×4 fusion, phase-mask
//!   merging, precomputed permutation masks) replayed by every shot of
//!   a plan, each kernel one vectorisable loop over the slices of its
//!   runs, its masks placed into the stored buffer once per call,
//!   behind the range-aware [`compile::CompiledOp::apply_range`] seam;
//! * [`amp`] — the replay driver of compiled programs, sequential and
//!   amplitude-parallel: one big shot's *live* amplitude space split
//!   across workers, consecutive in-block kernels run block by block
//!   while the block sits in L2, a barrier per kernel or group,
//!   bit-identical at any worker count;
//! * [`pool`] — the workspace's one execution pool: parked helper
//!   threads that run a call's worker indices at once with scoped
//!   semantics (borrowing closures, joined by a latch), so neither the
//!   amp replay's segments nor the engine's shot folds create a thread
//!   per call;
//! * [`runner`] — shot sampling over circuits, generic over the
//!   [`sim::SimState`] backend, interpreted ([`runner::run_shot_into`])
//!   or compiled ([`runner::run_program_into`]), and the one
//!   amplitude-parallel shot function, which starts from a job's
//!   noiseless prefix when the shot's prefix sites stay silent
//!   ([`runner::run_program_into_from_prefix`];
//!   [`runner::run_program_into_parallel`] is its prefix-free case);
//! * [`qrand`] — random states, random density matrices, and the
//!   eigen-ensembles used for trajectory simulation of mixed states.
//!
//! ```
//! use circuit::circuit::Circuit;
//! use qsim::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut c = Circuit::new(2, 2);
//! c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let out = run_shot(&c, &StateVector::new(2), &mut rng);
//! assert_eq!(out.cbits[0], out.cbits[1]); // Bell correlations
//! ```

pub mod amp;
pub mod compile;
pub mod density;
pub mod pool;
pub mod qrand;
pub mod runner;
pub mod sim;
pub mod statevector;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::compile::{compile, CompiledCircuit, CompiledOp};
    pub use crate::density::{run_deferred, DensityMatrix};
    pub use crate::qrand::{
        random_density_matrix, random_density_matrix_of_rank, random_pauli_on, random_pure_state,
        PureEnsemble,
    };
    pub use crate::runner::{
        pack_cbits, run_program_into, run_program_into_from_prefix, run_program_into_parallel,
        run_shot, run_shot_into, run_unitary, sample_shots, ShotOutcome,
    };
    pub use crate::sim::{NoiselessPrefix, SimProgram, SimState, Unsupported, Walk};
    pub use crate::statevector::StateVector;
}
