//! Experiment drivers regenerating every table and figure of the COMPAS
//! paper's evaluation (§4–§5).
//!
//! | module | regenerates |
//! |--------|-------------|
//! | [`fanout_noise`] | Table 4 — residual Pauli errors of noisy Fanout |
//! | [`ghz_fidelity`] | Fig 9a — GHZ fidelity vs party count |
//! | [`cswap_fidelity`] | Fig 9b — CSWAP classical fidelity vs width |
//! | [`overall`] | Fig 9c — overall protocol fidelity estimate |
//! | [`network_bounds`] | Fig 10 + Appendix B — Bell-noise bounds |
//! | [`distillation_codes`] | the code catalogue plotted in Fig 10 |
//! | [`primitive_errors`] | §5.2's blackboxed primitive error models |
//! | [`table_io`] | text/CSV emission shared by the bench binaries |
//! | [`ablations`] | design-choice ablations: placement, fanout, reuse, topology |
//!
//! Every sampling driver takes an [`engine::Executor`] — the execution
//! mode (sequential vs pooled) is the caller's policy, and results are
//! bit-identical across modes for a fixed root seed.
//!
//! Tables 1–3 are closed-form and live in [`compas::resources`]; the
//! Bell-pair scaling comparison of §2.5 is measured by
//! [`compas::naive`] and [`compas::swap_test::CompasProtocol`] ledgers.

pub mod ablations;
pub mod cswap_fidelity;
pub mod distillation_codes;
pub mod fanout_noise;
pub mod ghz_fidelity;
pub mod network_bounds;
pub mod overall;
pub mod primitive_errors;
pub mod table_io;

/// Convenient re-exports of the main types.
pub mod prelude {
    pub use crate::ablations::{
        fanout_ablation, fig2_comparison, ordering_ablation, placement_raw_bell_pairs,
        qubit_reuse_ablation, topology_ablation,
    };
    pub use crate::cswap_fidelity::{
        cswap_classical_fidelity, fig9b, fig9b_inputs, fig9b_result, CswapFidelitySeries,
        CswapNoiseModel,
    };
    pub use crate::distillation_codes::{catalog, DistillationCode};
    pub use crate::fanout_noise::{
        fanout_error_distribution, table4, table4_result, FanoutNoiseRow,
    };
    pub use crate::ghz_fidelity::{
        fig9a, fig9a_result, ghz_fidelity_exact, ghz_fidelity_sampled, GhzFidelitySeries,
    };
    pub use crate::network_bounds::{
        fig10, fig10_result, k_upper_bound, remote_cnot_fidelity, remote_toffoli_fidelity,
        teledata_fidelity, KBoundCurve,
    };
    pub use crate::overall::{fig9c, fig9c_result, overall_fidelity, OverallFidelitySeries};
    pub use crate::primitive_errors::PauliErrorSampler;
    pub use crate::table_io::{default_results_dir, ResultTable};
}
