//! Engine configuration from code and the command line.

/// How an [`crate::Engine`] partitions and parallelises work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `1` runs inline on the calling thread.
    pub threads: usize,
    /// Shots per work unit claimed from the shared cursor. Small enough
    /// to balance load, large enough to amortise the atomic claim.
    pub chunk_size: u64,
    /// Workers used to split **one shot's** amplitude space when the
    /// amp-parallel policy engages (see [`EngineConfig::amp_engaged`]).
    /// `1` disables amplitude-level parallelism.
    pub amp_threads: usize,
    /// Minimum state width (qubits) at which amp-parallel replay
    /// engages. Below the threshold per-shot fork/join overhead beats
    /// the bandwidth win, and shot-level parallelism is strictly
    /// better; above it a single shot's latency is one core's memory
    /// bandwidth, which splitting the amplitude space fixes.
    pub amp_threshold_qubits: usize,
}

/// Default [`EngineConfig::amp_threshold_qubits`]: a 2^20-amplitude
/// (16 MiB) state is where one shot stops fitting in cache and a
/// single core's bandwidth becomes the latency floor.
pub const DEFAULT_AMP_THRESHOLD_QUBITS: usize = 20;

impl Default for EngineConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        EngineConfig {
            threads: cores,
            chunk_size: 256,
            amp_threads: cores,
            amp_threshold_qubits: DEFAULT_AMP_THRESHOLD_QUBITS,
        }
    }
}

impl EngineConfig {
    /// A single-threaded configuration (the sequential reference path):
    /// one shot worker and no amplitude-level parallelism.
    pub fn single_threaded() -> Self {
        EngineConfig {
            threads: 1,
            amp_threads: 1,
            ..Self::default()
        }
    }

    /// Exactly `threads` shot workers with the default chunk size and
    /// amp-parallel knobs.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Builder-style override of [`EngineConfig::amp_threads`].
    pub fn with_amp_threads(mut self, amp_threads: usize) -> Self {
        self.amp_threads = amp_threads.max(1);
        self
    }

    /// Builder-style override of
    /// [`EngineConfig::amp_threshold_qubits`].
    pub fn with_amp_threshold(mut self, qubits: usize) -> Self {
        self.amp_threshold_qubits = qubits;
        self
    }

    /// Whether a plan on a `num_qubits`-wide state should run
    /// amp-parallel: the backend must support bit-identical
    /// amplitude-range splitting (`amp_capable`, i.e.
    /// `SimState::AMP_PARALLEL`), more than one amp worker must be
    /// configured, and the state must be at or above the width
    /// threshold. Pure policy — engaging or not never changes tallies,
    /// only latency.
    pub fn amp_engaged(&self, amp_capable: bool, num_qubits: usize) -> bool {
        amp_capable && self.amp_threads > 1 && num_qubits >= self.amp_threshold_qubits
    }

    /// The default configuration with the shot-worker count taken
    /// from a `--threads N` (or `--threads=N`) process argument; without
    /// one, or with an unparsable value, the default stands.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let threads = args.iter().enumerate().find_map(|(i, arg)| {
            if arg == "--threads" {
                return args.get(i + 1).map(String::as_str);
            }
            arg.strip_prefix("--threads=")
        });
        match threads.and_then(|v| v.parse().ok()) {
            Some(n) => Self::with_threads(n),
            None => Self::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = EngineConfig::default();
        assert!(cfg.threads >= 1);
        assert!(cfg.chunk_size >= 1);
        assert!(cfg.amp_threads >= 1);
        assert_eq!(cfg.amp_threshold_qubits, DEFAULT_AMP_THRESHOLD_QUBITS);
        assert_eq!(EngineConfig::single_threaded().threads, 1);
        assert_eq!(EngineConfig::single_threaded().amp_threads, 1);
        assert_eq!(EngineConfig::with_threads(0).threads, 1);
        assert_eq!(EngineConfig::with_threads(8).threads, 8);
    }

    #[test]
    fn amp_engagement_is_pure_policy_on_width_and_knobs() {
        let cfg = EngineConfig::with_threads(4)
            .with_amp_threads(8)
            .with_amp_threshold(20);
        assert!(cfg.amp_engaged(true, 20));
        assert!(cfg.amp_engaged(true, 24));
        assert!(!cfg.amp_engaged(true, 19), "below the width threshold");
        assert!(!cfg.amp_engaged(false, 24), "backend cannot range-split");
        let off = cfg.clone().with_amp_threads(1);
        assert!(!off.amp_engaged(true, 24), "one amp worker disables");
        assert!(
            !EngineConfig::single_threaded().amp_engaged(true, 24),
            "the sequential reference path never amp-engages"
        );
        let zero = EngineConfig::with_threads(1)
            .with_amp_threads(2)
            .with_amp_threshold(0);
        assert!(zero.amp_engaged(true, 2), "threshold 0 engages everywhere");
    }
}
