//! Shared scaffolding for the table/figure regeneration binaries.
//!
//! Every binary accepts `--quick` to run a reduced-shot smoke version
//! and `--threads N` to size its engine; the default parameters match
//! the paper's settings (e.g. 100 000 shots for Table 4).
//!
//! These binaries regenerate the paper's numbers; none of them measures
//! speed. Rate claims are made with `benchmark/` (see its README) and
//! recorded in the `BENCH_<pr>.json` ledger at the repository root.

use analysis::table_io::{default_results_dir, ResultTable};
use engine::{Engine, Executor};

/// Shot-count scale for the regeneration binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full settings.
    Full,
    /// A fast smoke-test scale for CI.
    Quick,
}

impl Scale {
    /// Reads the scale from the process arguments (`--quick`).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Chooses between the full and quick value.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// The root seed shared by all binaries; per-job streams derive from it
/// via `engine::derive_stream_seed`.
pub const ROOT_SEED: u64 = 0xC0_45;

/// The execution context every binary samples through: a pooled
/// executor over an engine of `--threads N` workers (default: all
/// available cores), rooted at [`ROOT_SEED`].
pub fn bench_executor() -> Executor {
    let engine = Engine::from_args();
    eprintln!("[engine] {} worker thread(s)", engine.threads());
    Executor::pooled(engine, ROOT_SEED)
}

/// Prints a result table and persists its CSV under `results/`.
pub fn emit(table: &ResultTable) {
    print!("{}", table.to_text());
    match table.write_csv(&default_results_dir()) {
        Ok(path) => println!("[csv] {}\n", path.display()),
        Err(err) => println!("[csv] not written: {err}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Quick.pick(10, 1), 1);
    }

    #[test]
    fn bench_executor_is_rooted_at_the_shared_seed() {
        assert_eq!(bench_executor().root_seed(), ROOT_SEED);
    }
}
