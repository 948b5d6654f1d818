//! Stabilizer-circuit simulation: tableau and Pauli-frame methods.
//!
//! This crate stands in for Stim \[Gidney 2021\] in the COMPAS reproduction.
//! The paper's §5.1 noise analysis needs exactly two capabilities, both
//! restricted to Clifford circuits with Pauli noise and parity feedback:
//!
//! * an exact stabilizer simulator ([`tableau::Tableau`]) for validating
//!   gadgets and running reference shots, and
//! * a fast Pauli-frame sampler ([`frame::FrameSimulator`]) that draws the
//!   residual error `E = U_noisy · U_ideal⁻¹` of a noisy gadget execution,
//!   used to build Table 4 and to inject realistic primitive-level noise
//!   into the larger CSWAP simulations of §5.2.
//!
//! The tableau is bit-packed and split by what a shot can change: a
//! shot-independent x/z half (which Pauli each generator holds where,
//! column-major bitsets over the rows) and `2n` sign bits. Every
//! operation is an x/z step that yields a *sign op* — see
//! [`tableau`] for the layout and the rules.
//!
//! [`clifford::CliffordState`] plugs the tableau into the workspace's
//! pluggable-backend contract ([`qsim::sim::SimState`]): the generic
//! shot loop (`qsim::runner::run_shot_into`, the engine's executor and
//! `Backend` router) runs Clifford circuits on the tableau exactly as it
//! runs arbitrary circuits on the statevector — same API, polynomial
//! cost. Its compiled program ([`clifford::CliffordProgram`]) runs the
//! x/z steps once per circuit and replays only the sign ops per shot,
//! bit for bit the interpreted run, RNG stream position included.
//! Circuits outside the Clifford domain are rejected *up front* by
//! the typed capability probes (`CliffordState::supports`,
//! [`frame::FrameSimulator::supports`]) built on
//! [`circuit::circuit::Circuit::required_caps`], rather than by mid-shot
//! panics.
//!
//! ```
//! use circuit::circuit::Circuit;
//! use rand::SeedableRng;
//! use stabilizer::prelude::*;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut ghz = Circuit::new(3, 3);
//! ghz.h(0).cx(0, 1).cx(1, 2);
//! for q in 0..3 {
//!     ghz.measure(q, q);
//! }
//! let bits = Tableau::run(&ghz, &mut rng).unwrap();
//! assert!(bits.iter().all(|&b| b == bits[0]));
//! ```

pub mod clifford;
pub mod frame;
pub mod pauli;
pub mod tableau;

/// Convenient re-exports of the main types.
pub mod prelude {
    pub use crate::clifford::{CliffordProgram, CliffordState};
    pub use crate::frame::FrameSimulator;
    pub use crate::pauli::{Pauli, PauliString};
    pub use crate::tableau::Tableau;
}
