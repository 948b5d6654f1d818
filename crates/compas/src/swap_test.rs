//! The multi-party SWAP test: monolithic and COMPAS-distributed (paper
//! §2.3, §3.2, Figs 2 & 5).
//!
//! The test estimates `tr(ρ₁ρ₂…ρ_k)` by measuring the cyclic-shift
//! operator `W_σ` on `ρ₁⊗…⊗ρ_k` (Eq. 3). Controlled on a `⌈k/2⌉`-qubit
//! GHZ register, `W_σ` factors into **two rounds of CSWAPs between
//! neighbours in the interleaved ordering** `1, k, 2, k−1, …` (Fig 5):
//! each GHZ qubit controls a CSWAP with its right-hand neighbour in round
//! one and its left-hand neighbour in round two. X-basis measurement of
//! the GHZ register estimates the real part; rotating one control to the
//! Y basis estimates the imaginary part.
//!
//! [`MonolithicSwapTest`] runs everything on one register — with direct
//! CSWAP gates that serialise on their shared controls (depth `Θ(n)`,
//! Fig 2b), with one GHZ control per slice (width `⌈k/2⌉·n`, Fig 2c), or
//! with the Fanout-parallel Toffoli layer (constant depth at width
//! `⌈k/2⌉`, Fig 2d, this paper's contribution).
//! [`HadamardTestSwapTest`] is the single-ancilla `Θ(k·n)`-depth baseline
//! of §2.3. [`CompasProtocol`] places one state per QPU and compiles the
//! same test onto a [`DistributedMachine`] with teledata or telegate
//! CSWAPs.
//!
//! ## Backend note
//!
//! The trajectory shots here run through the workspace's generic shot
//! loop (`qsim::runner::run_shot_into` over the `SimState` contract),
//! but they are **pinned to the statevector backend** by the physics,
//! not the API: every shot prepares an arbitrary product state sampled
//! from the inputs' eigen-ensembles ([`PureEnsemble`]), and the CSWAP
//! layers are non-Clifford — outside both the stabilizer and the
//! deferred-measurement density domains (`engine::Backend::Auto` would
//! route these circuits to the statevector too). Workloads that sample
//! circuits from `|0…0⟩` select their representation through
//! `engine::Backend` instead.

use circuit::circuit::{Circuit, Instruction};
use circuit::gate::{Gate, Qubit};
use engine::Executor;
use mathkit::matrix::Matrix;
use network::ledger::ResourceLedger;
use network::machine::DistributedMachine;
use network::topology::Topology;
use qsim::compile::CompiledCircuit;
use qsim::qrand::PureEnsemble;
use qsim::sim::{SimProgram, SimState};
use qsim::statevector::StateVector;
use std::sync::OnceLock;

use crate::cswap::{local_cswap_block, two_party_cswap, CswapScheme};
use crate::estimator::{TraceBackend, TraceEstimate};
use crate::ghz::{distributed_ghz, monolithic_ghz};
use stabilizer::pauli::{Pauli, PauliString};

/// The interleaved placement of state indices onto line positions:
/// position `p` holds state `interleaved_order(k)[p]`, i.e. the sequence
/// `0, k−1, 1, k−2, 2, …` (paper §3.2).
pub fn interleaved_order(k: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(k);
    let (mut lo, mut hi) = (0usize, k);
    while lo < hi {
        order.push(lo);
        lo += 1;
        if lo < hi {
            hi -= 1;
            order.push(hi);
        }
    }
    order
}

/// One controlled SWAP in the schedule: GHZ control `control` swaps the
/// states at line positions `pos_a` (the control's own QPU) and `pos_b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CswapOp {
    /// Index of the controlling GHZ qubit (lives at position `2·control`).
    pub control: usize,
    /// Position co-located with the control (the paper's Alice).
    pub pos_a: usize,
    /// The neighbouring position (the paper's Bob).
    pub pos_b: usize,
}

/// The two CSWAP rounds of Fig 5 for `k` parties.
///
/// GHZ qubit `i` sits at even position `2i`; in round one it swaps with
/// its right-hand neighbour `2i+1`, in round two with its left-hand
/// neighbour `2i−1`. Together the rounds implement a cyclic shift of the
/// `k` states (verified by [`schedule_permutation`]), using `k−1` CSWAPs
/// and `⌈k/2⌉` controls.
pub fn cswap_schedule(k: usize) -> (Vec<CswapOp>, Vec<CswapOp>) {
    let g = k.div_ceil(2);
    let mut round1 = Vec::new();
    let mut round2 = Vec::new();
    for i in 0..g {
        let p = 2 * i;
        if p + 1 < k {
            round1.push(CswapOp {
                control: i,
                pos_a: p,
                pos_b: p + 1,
            });
        }
        if p >= 1 {
            round2.push(CswapOp {
                control: i,
                pos_a: p,
                pos_b: p - 1,
            });
        }
    }
    (round1, round2)
}

/// The net permutation the two rounds apply to the **state indices**:
/// `result[i]` is the index of the state whose original slot state `i`
/// occupies afterwards. For every `k` this is a one-step cyclic shift
/// (our schedule realises `slot(i) ← state i−1`, i.e. `W_σ†`; either
/// direction makes Eq. (3) hold, with the shift direction fixing the
/// sign convention of the imaginary channel).
pub fn schedule_permutation(k: usize) -> Vec<usize> {
    let order = interleaved_order(k);
    // contents[p] = state index currently at position p.
    let mut contents = order.clone();
    let (round1, round2) = cswap_schedule(k);
    for op in round1.iter().chain(&round2) {
        contents.swap(op.pos_a, op.pos_b);
    }
    // Slot of state i is its original position: order.position(i).
    let mut pos_of = vec![0usize; k];
    for (p, &i) in order.iter().enumerate() {
        pos_of[i] = p;
    }
    (0..k).map(|i| contents[pos_of[i]]).collect()
}

// ---------------------------------------------------------------------
// Shared shot runner.
// ---------------------------------------------------------------------

/// Placement of the k states onto qubit groups of a runnable circuit.
#[derive(Debug)]
struct ProtocolCircuits {
    /// Circuit measuring all GHZ qubits in X (real channel).
    circuit_re: Circuit,
    /// Circuit with the first GHZ qubit in Y (imaginary channel).
    circuit_im: Circuit,
    /// Both channels compiled, once per protocol: on the first
    /// estimate, since protocols far wider than a statevector holds are
    /// built for their resource counts alone.
    programs: OnceLock<[CompiledCircuit; 2]>,
    /// For each state index `0..k`, the qubits holding it.
    state_qubits: Vec<Vec<Qubit>>,
    /// Classical bits holding the GHZ outcomes.
    ghz_cbits: Vec<usize>,
}

impl ProtocolCircuits {
    /// Runs `shots` per channel under the given execution context: the
    /// two measurement channels run on decorrelated child contexts
    /// (`exec.derive(channel)`), folded together in one
    /// [`Executor::run_channel_counts_with`]; each shot samples the
    /// input ensembles and plays its channel's circuit on its own
    /// derived RNG stream, and workers reuse their statevector, record
    /// and group buffers across shots of both channels. For a fixed
    /// root seed the estimate is bit-identical in every execution mode.
    fn estimate(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        assert_eq!(states.len(), self.state_qubits.len(), "need k states");
        let ensembles: Vec<PureEnsemble> = states.iter().map(PureEnsemble::from_density).collect();
        let programs = self.programs.get_or_init(|| {
            [&self.circuit_re, &self.circuit_im].map(<StateVector as SimState>::compile)
        });
        // The channels differ by one `S`, so one workspace serves both.
        let width = programs[0].num_qubits();
        // Every shot replays its channel's fused kernels on its own
        // stream.
        let [odd_re, odd_im] = exec.run_channel_counts_with(
            shots as u64,
            || {
                let groups: Vec<(&[mathkit::complex::Complex], &[usize])> =
                    Vec::with_capacity(ensembles.len());
                (StateVector::new(width), Vec::new(), groups)
            },
            |(state, cbits, groups), channel, _shot, rng| {
                let program = &programs[channel];
                // One draw per ensemble, in state order, placed
                // straight into the worker's reused buffers.
                groups.clear();
                groups.extend(
                    ensembles
                        .iter()
                        .zip(&self.state_qubits)
                        .map(|(ens, qs)| (ens.sample(rng), qs.as_slice())),
                );
                state.set_product_state(groups);
                cbits.clear();
                cbits.resize(program.num_cbits(), false);
                state.apply_compiled(program, cbits, rng);
                self.ghz_cbits.iter().fold(false, |acc, &c| acc ^ cbits[c])
            },
        );
        TraceEstimate::from_parity_counts(odd_re, shots as u64, odd_im, shots as u64)
    }
}

/// Appends GHZ measurement: all controls in X, or — for the imaginary
/// channel — the first control rotated by S and then measured in X
/// (a −Y-basis measurement). With the schedule's shift direction
/// (state `i` moves to the slot of `i−1`, so `⟨W⟩ = conj tr(ρ₁…ρ_k)`),
/// the parity expectation of this channel is exactly `+Im tr(ρ₁…ρ_k)`,
/// verified against exact traces in the tests.
fn append_ghz_measurement(circ: &mut Circuit, ghz: &[Qubit], imaginary: bool) -> Vec<usize> {
    let base = circ.add_cbits(ghz.len());
    for (idx, &q) in ghz.iter().enumerate() {
        if imaginary && idx == 0 {
            circ.push(Instruction::Gate(Gate::S(q)));
            circ.measure_x(q, base + idx);
        } else {
            circ.measure_x(q, base + idx);
        }
    }
    (0..ghz.len()).map(|i| base + i).collect()
}

/// Appends a controlled Pauli string `c-P` from `control` onto `targets`
/// (one target qubit per letter of `p`). Used to fold an observable into
/// the test: measuring `W_σ·(P⊗I)` estimates `tr(P·ρ₁…ρ_k)` (Eq. 10).
fn controlled_pauli(circ: &mut Circuit, control: Qubit, targets: &[Qubit], p: &PauliString) {
    assert_eq!(targets.len(), p.len(), "observable width mismatch");
    for (&t, letter) in targets.iter().zip(p.iter()) {
        match letter {
            Pauli::I => {}
            Pauli::X => {
                circ.cx(control, t);
            }
            Pauli::Z => {
                circ.cz(control, t);
            }
            Pauli::Y => {
                // c-Y = S(t) · c-X · S†(t).
                circ.sdg(t);
                circ.cx(control, t);
                circ.s(t);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Monolithic implementation (Fig 2).
// ---------------------------------------------------------------------

/// How the monolithic test realises its shared-control CSWAP layers —
/// the three multi-qubit generalisations compared in Fig 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonolithicVariant {
    /// Direct CSWAP gates; each GHZ control serialises its `n` CSWAPs,
    /// giving depth `Θ(n)` with GHZ width `⌈k/2⌉` (Fig 2b).
    Sequential,
    /// One GHZ qubit **per CSWAP per slice**: width `⌈k/2⌉·n`, depth
    /// constant (Fig 2c) — constant depth bought with a wider cat state.
    WideGhz,
    /// Fanout-parallel Toffoli layers: width `⌈k/2⌉` **and** constant
    /// depth (Fig 2d) — this paper's contribution.
    #[default]
    Fanout,
}

/// The multi-party SWAP test on a single register.
#[derive(Debug)]
pub struct MonolithicSwapTest {
    k: usize,
    n: usize,
    variant: MonolithicVariant,
    circuits: ProtocolCircuits,
}

impl MonolithicSwapTest {
    /// Builds the test for `k` states of `n` qubits each.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `n == 0`.
    pub fn new(k: usize, n: usize, variant: MonolithicVariant) -> Self {
        Self::build(k, n, variant, None)
    }

    /// Builds an observable-weighted test estimating `tr(P·ρ₁…ρ_k)` for a
    /// Pauli string `P` on the first state's qubits (Eq. 10, the
    /// virtual-cooling/distillation primitive of §6.3). The controlled-`P`
    /// rides on the first GHZ qubit before the cyclic shift.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, `n == 0`, or `pauli.len() != n`.
    pub fn with_observable(
        k: usize,
        n: usize,
        variant: MonolithicVariant,
        pauli: &PauliString,
    ) -> Self {
        assert_eq!(pauli.len(), n, "observable must act on one n-qubit state");
        Self::build(k, n, variant, Some(pauli.clone()))
    }

    fn build(k: usize, n: usize, variant: MonolithicVariant, pauli: Option<PauliString>) -> Self {
        assert!(k >= 2, "the swap test needs at least two states");
        assert!(n >= 1, "states must have at least one qubit");
        let g = k.div_ceil(2);
        // Fig 2c pays for its constant depth with GHZ width ⌈k/2⌉·n: one
        // control qubit per CSWAP per slice.
        let ghz_count = match variant {
            MonolithicVariant::WideGhz => g * n,
            _ => g,
        };
        let order = interleaved_order(k);

        // Register: [ghz qubits) [position blocks) [ancilla pools].
        let block =
            |p: usize| -> Vec<usize> { (ghz_count + p * n..ghz_count + (p + 1) * n).collect() };
        let base_qubits = ghz_count + k * n;
        // State 0 sits at position 0 (interleaving starts 0, k−1, 1, …).
        let observable_targets = block(0);
        let build = |imaginary: bool| -> (Circuit, Vec<usize>) {
            let mut circ = Circuit::new(base_qubits, 0);
            let ghz: Vec<usize> = (0..ghz_count).collect();
            monolithic_ghz(&mut circ, &ghz);
            if let Some(p) = &pauli {
                controlled_pauli(&mut circ, ghz[0], &observable_targets, p);
            }
            // Per-control ancilla pools for the Fanout variant, so the
            // rounds' gadgets never contend across controls.
            let pools: Vec<Vec<usize>> = match variant {
                MonolithicVariant::Fanout => (0..g)
                    .map(|_| {
                        let first = circ.add_qubits(n);
                        (first..first + n).collect()
                    })
                    .collect(),
                _ => vec![Vec::new(); g],
            };
            let (round1, round2) = cswap_schedule(k);
            for op in round1.iter().chain(&round2) {
                let (a, b) = (block(op.pos_a), block(op.pos_b));
                match variant {
                    MonolithicVariant::Sequential => {
                        for l in 0..n {
                            circ.cswap(ghz[op.control], a[l], b[l]);
                        }
                    }
                    MonolithicVariant::WideGhz => {
                        // Slice l of this CSWAP gets its own control.
                        for l in 0..n {
                            circ.cswap(ghz[op.control * n + l], a[l], b[l]);
                        }
                    }
                    MonolithicVariant::Fanout => {
                        local_cswap_block(&mut circ, ghz[op.control], &a, &b, &pools[op.control]);
                    }
                }
            }
            let cbits = append_ghz_measurement(&mut circ, &ghz, imaginary);
            (circ, cbits)
        };

        let (circuit_re, ghz_cbits) = build(false);
        let (circuit_im, _) = build(true);
        // State i sits at position pos_of(i).
        let mut state_qubits = vec![Vec::new(); k];
        for (p, &i) in order.iter().enumerate() {
            state_qubits[i] = block(p);
        }
        MonolithicSwapTest {
            k,
            n,
            variant,
            circuits: ProtocolCircuits {
                circuit_re,
                circuit_im,
                programs: OnceLock::new(),
                state_qubits,
                ghz_cbits,
            },
        }
    }

    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.k
    }

    /// Width of each state.
    pub fn state_width(&self) -> usize {
        self.n
    }

    /// The chosen CSWAP realisation.
    pub fn variant(&self) -> MonolithicVariant {
        self.variant
    }

    /// Width of the GHZ control register: `⌈k/2⌉` for Fig 2b/2d,
    /// `⌈k/2⌉·n` for Fig 2c.
    pub fn ghz_width(&self) -> usize {
        self.circuits.ghz_cbits.len()
    }

    /// The real-channel circuit (all-X GHZ readout).
    pub fn circuit(&self) -> &Circuit {
        &self.circuits.circuit_re
    }

    /// Estimates `tr(ρ₁…ρ_k)` with `shots` per channel under `exec`.
    ///
    /// # Panics
    ///
    /// Panics if the number or dimension of `states` is wrong.
    pub fn estimate(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        self.circuits.estimate(states, shots, exec)
    }
}

// ---------------------------------------------------------------------
// Hadamard-test baseline (§2.3): one ancilla, depth O(k).
// ---------------------------------------------------------------------

/// The simplest multi-party SWAP test (§2.3, refs \[30, 57\]): a single
/// ancilla Hadamard-tests the cyclic shift `W_σ`, built as a chain of
/// `k−1` controlled-SWAP layers that all share the one control — depth
/// `Θ(k·n)`, the baseline the constant-depth constructions beat.
#[derive(Debug)]
pub struct HadamardTestSwapTest {
    k: usize,
    n: usize,
    circuits: ProtocolCircuits,
}

impl HadamardTestSwapTest {
    /// Builds the baseline for `k` states of `n` qubits each.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `n == 0`.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k >= 2, "the swap test needs at least two states");
        assert!(n >= 1, "states must have at least one qubit");
        // Register: [ancilla, state blocks in *index* order].
        let block = |i: usize| -> Vec<usize> { (1 + i * n..1 + (i + 1) * n).collect() };
        let build = |imaginary: bool| -> (Circuit, Vec<usize>) {
            let mut circ = Circuit::new(1 + k * n, 0);
            circ.h(0);
            // Cyclic shift as adjacent transpositions: swapping blocks
            // (k−2, k−1), …, (1,2), (0,1) in that order sends state i to
            // the slot of i−1 — the same direction as the COMPAS
            // schedule, keeping one sign convention for the imaginary
            // channel.
            for i in (0..k - 1).rev() {
                let (a, b) = (block(i), block(i + 1));
                for l in 0..n {
                    circ.cswap(0, a[l], b[l]);
                }
            }
            let cbits = append_ghz_measurement(&mut circ, &[0], imaginary);
            (circ, cbits)
        };
        let (circuit_re, ghz_cbits) = build(false);
        let (circuit_im, _) = build(true);
        let state_qubits: Vec<Vec<Qubit>> = (0..k).map(block).collect();
        HadamardTestSwapTest {
            k,
            n,
            circuits: ProtocolCircuits {
                circuit_re,
                circuit_im,
                programs: OnceLock::new(),
                state_qubits,
                ghz_cbits,
            },
        }
    }

    /// Number of parties.
    pub fn num_parties(&self) -> usize {
        self.k
    }

    /// Width of each state.
    pub fn state_width(&self) -> usize {
        self.n
    }

    /// The real-channel circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuits.circuit_re
    }

    /// Estimates `tr(ρ₁…ρ_k)` with `shots` per channel under `exec`.
    pub fn estimate(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        self.circuits.estimate(states, shots, exec)
    }
}

impl TraceBackend for HadamardTestSwapTest {
    fn num_parties(&self) -> usize {
        self.k
    }

    fn state_width(&self) -> usize {
        self.n
    }

    fn estimate_trace(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        self.estimate(states, shots, exec)
    }
}

// ---------------------------------------------------------------------
// COMPAS distributed implementation (§3).
// ---------------------------------------------------------------------

/// The COMPAS architecture: `k` QPUs on a line in interleaved order, one
/// state per QPU, GHZ controls on the even positions, and two rounds of
/// two-party CSWAPs compiled through teledata or telegate.
#[derive(Debug)]
pub struct CompasProtocol {
    k: usize,
    n: usize,
    scheme: CswapScheme,
    circuits: ProtocolCircuits,
    ledger: ResourceLedger,
}

impl CompasProtocol {
    /// Compiles the protocol for `k` states of `n` qubits each with
    /// noiseless Bell links.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `n == 0`.
    pub fn new(k: usize, n: usize, scheme: CswapScheme) -> Self {
        Self::with_bell_error(k, n, scheme, 0.0)
    }

    /// Compiles the protocol with depolarizing Bell-link noise `p` (Eq. 5).
    pub fn with_bell_error(k: usize, n: usize, scheme: CswapScheme, bell_error: f64) -> Self {
        Self::with_config(k, n, scheme, bell_error, Topology::Line)
    }

    /// Compiles an observable-weighted protocol estimating
    /// `tr(P·ρ₁…ρ_k)` (Eq. 10) — the fully distributed virtual-cooling /
    /// distillation primitive. The controlled-`P` costs **no extra
    /// communication**: state 1's QPU (interleaved position 0) also
    /// hosts the first GHZ control, so every controlled-Pauli is local.
    ///
    /// # Panics
    ///
    /// Panics if `pauli.len() != n`, `k < 2`, or `n == 0`.
    pub fn with_observable(k: usize, n: usize, scheme: CswapScheme, pauli: &PauliString) -> Self {
        assert_eq!(pauli.len(), n, "observable must act on one n-qubit state");
        Self::build(k, n, scheme, 0.0, Topology::Line, Some(pauli.clone()))
    }

    /// Compiles the protocol on an arbitrary network topology. COMPAS
    /// needs only a line (§3.2: all interactions are between interleaved
    /// neighbours); other topologies quantify the entanglement-swapping
    /// overhead a mismatched network pays.
    pub fn with_config(
        k: usize,
        n: usize,
        scheme: CswapScheme,
        bell_error: f64,
        topology: Topology,
    ) -> Self {
        Self::build(k, n, scheme, bell_error, topology, None)
    }

    fn build(
        k: usize,
        n: usize,
        scheme: CswapScheme,
        bell_error: f64,
        topology: Topology,
        pauli: Option<PauliString>,
    ) -> Self {
        assert!(k >= 2, "the swap test needs at least two states");
        assert!(n >= 1, "states must have at least one qubit");
        let g = k.div_ceil(2);
        let order = interleaved_order(k);
        let pauli_ref = &pauli;

        let build = |imaginary: bool| -> (Circuit, Vec<usize>, ResourceLedger) {
            // Node p = line position p; data layout: n state qubits plus
            // one GHZ slot.
            let mut m = DistributedMachine::new(k, n + 1, topology).with_bell_error(bell_error);
            let ghz: Vec<usize> = (0..g).map(|i| m.data_qubit(2 * i, n)).collect();
            let parties: Vec<(usize, usize)> = (0..g).map(|i| (2 * i, ghz[i])).collect();
            distributed_ghz(&mut m, &parties);
            if let Some(p) = pauli_ref {
                // Position 0 (state index 0) shares node 0 with ghz[0]:
                // every controlled-Pauli is a local two-qubit gate.
                let targets: Vec<usize> = (0..n).map(|l| m.data_qubit(0, l)).collect();
                controlled_pauli(m.circuit_mut(), ghz[0], &targets, p);
            }
            let (round1, round2) = cswap_schedule(k);
            for op in round1.iter().chain(&round2) {
                let rho_a: Vec<usize> = (0..n).map(|l| m.data_qubit(op.pos_a, l)).collect();
                let rho_b: Vec<usize> = (0..n).map(|l| m.data_qubit(op.pos_b, l)).collect();
                two_party_cswap(&mut m, scheme, ghz[op.control], &rho_a, &rho_b);
            }
            let cbits = append_ghz_measurement(m.circuit_mut(), &ghz, imaginary);
            let (circ, ledger) = m.finish();
            (circ, cbits, ledger)
        };

        let (circuit_re, ghz_cbits, ledger) = build(false);
        let (circuit_im, _, _) = build(true);
        let block = |p: usize| -> Vec<usize> { (p * (n + 1)..p * (n + 1) + n).collect() };
        let mut state_qubits = vec![Vec::new(); k];
        for (p, &i) in order.iter().enumerate() {
            state_qubits[i] = block(p);
        }
        CompasProtocol {
            k,
            n,
            scheme,
            circuits: ProtocolCircuits {
                circuit_re,
                circuit_im,
                programs: OnceLock::new(),
                state_qubits,
                ghz_cbits,
            },
            ledger,
        }
    }

    /// Number of parties (QPUs).
    pub fn num_parties(&self) -> usize {
        self.k
    }

    /// Width of each state.
    pub fn state_width(&self) -> usize {
        self.n
    }

    /// The CSWAP scheme in use.
    pub fn scheme(&self) -> CswapScheme {
        self.scheme
    }

    /// The compiled real-channel circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuits.circuit_re
    }

    /// For each input state `0..k`, the qubits of [`CompasProtocol::circuit`]
    /// that hold it (an estimate places each sampled state there).
    pub fn state_qubits(&self) -> &[Vec<Qubit>] {
        &self.circuits.state_qubits
    }

    /// Resources consumed by one execution (one channel).
    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    /// Estimates `tr(ρ₁…ρ_k)` with `shots` per channel under `exec` —
    /// the production path for paper-scale shot counts is a pooled
    /// executor; a sequential one reproduces it bit-for-bit.
    pub fn estimate(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        self.circuits.estimate(states, shots, exec)
    }
}

impl TraceBackend for MonolithicSwapTest {
    fn num_parties(&self) -> usize {
        self.k
    }

    fn state_width(&self) -> usize {
        self.n
    }

    fn estimate_trace(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        self.estimate(states, shots, exec)
    }
}

impl TraceBackend for CompasProtocol {
    fn num_parties(&self) -> usize {
        self.k
    }

    fn state_width(&self) -> usize {
        self.n
    }

    fn estimate_trace(&self, states: &[Matrix], shots: usize, exec: &Executor) -> TraceEstimate {
        self.estimate(states, shots, exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::exact_multivariate_trace;
    use engine::Engine;
    use qsim::qrand::{random_density_matrix, random_pure_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interleaved_order_examples() {
        assert_eq!(interleaved_order(4), vec![0, 3, 1, 2]);
        assert_eq!(interleaved_order(5), vec![0, 4, 1, 3, 2]);
        assert_eq!(interleaved_order(2), vec![0, 1]);
    }

    #[test]
    fn schedule_uses_ceil_k_over_2_controls_and_k_minus_1_swaps() {
        for k in 2..=9 {
            let (r1, r2) = cswap_schedule(k);
            assert_eq!(r1.len() + r2.len(), k - 1, "k={k}");
            let max_ctl = r1.iter().chain(&r2).map(|op| op.control).max().unwrap();
            assert!(max_ctl < k.div_ceil(2), "k={k}");
            // Both rounds are internally disjoint (parallel rounds).
            for round in [&r1, &r2] {
                let mut seen = std::collections::HashSet::new();
                for op in round.iter() {
                    assert!(seen.insert(op.pos_a), "k={k}");
                    assert!(seen.insert(op.pos_b), "k={k}");
                }
            }
        }
    }

    #[test]
    fn schedule_implements_a_cyclic_shift() {
        for k in 2..=9 {
            let perm = schedule_permutation(k);
            // Slot of state i receives state i+1 … or the direction
            // reverse; either is a k-cycle shifting by one.
            let forward: Vec<usize> = (0..k).map(|i| (i + 1) % k).collect();
            let backward: Vec<usize> = (0..k).map(|i| (i + k - 1) % k).collect();
            assert!(perm == forward || perm == backward, "k={k}: got {perm:?}");
        }
    }

    /// Shared check: protocol estimate vs exact trace, pure states so the
    /// imaginary part is generically non-zero.
    fn assert_estimates_trace(estimate: TraceEstimate, exact: mathkit::complex::Complex) {
        assert!(
            estimate.is_consistent_with(exact, 5.0),
            "estimate {:?} vs exact {exact}",
            estimate
        );
    }

    fn random_pure_density(n: usize, rng: &mut impl rand::Rng) -> Matrix {
        qsim::statevector::StateVector::from_amplitudes(random_pure_state(n, rng)).to_density()
    }

    #[test]
    fn monolithic_sequential_k2_matches_overlap() {
        let mut rng = StdRng::seed_from_u64(100);
        let states = vec![
            random_pure_density(1, &mut rng),
            random_pure_density(1, &mut rng),
        ];
        let exact = exact_multivariate_trace(&states);
        let test = MonolithicSwapTest::new(2, 1, MonolithicVariant::Sequential);
        let e = test.estimate(&states, 3000, &Executor::sequential(200));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn monolithic_sequential_k3_matches_complex_trace() {
        let mut rng = StdRng::seed_from_u64(101);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        assert!(exact.im.abs() > 1e-3, "want a complex-valued case");
        let test = MonolithicSwapTest::new(3, 1, MonolithicVariant::Sequential);
        let e = test.estimate(&states, 4000, &Executor::sequential(201));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn monolithic_fanout_k3_matches_complex_trace() {
        let mut rng = StdRng::seed_from_u64(102);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let test = MonolithicSwapTest::new(3, 1, MonolithicVariant::Fanout);
        let e = test.estimate(&states, 4000, &Executor::sequential(202));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn parallel_estimate_matches_exact_and_is_thread_invariant() {
        let mut rng = StdRng::seed_from_u64(104);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let proto = CompasProtocol::new(3, 1, CswapScheme::Teledata);
        let par = proto.estimate(&states, 600, &Executor::pooled(Engine::with_threads(4), 77));
        assert_estimates_trace(par, exact);
        // Byte-identical across execution modes for a fixed root seed.
        let seq = proto.estimate(&states, 600, &Executor::sequential(77));
        assert_eq!(par, seq);
    }

    #[test]
    fn noisy_teledata_estimates_are_pinned_bit_for_bit() {
        // `(root seed, re, im, re_std_err, im_std_err)` captured on the
        // commit before the per-shot set-up moved to the in-place
        // product-state fill and the statevector began skipping its
        // pinned bits. Mixed inputs, so every shot draws from the three
        // ensembles: a changed draw order, or one rounding difference
        // that flips a measurement, changes these.
        let mut rng = StdRng::seed_from_u64(105);
        let states: Vec<Matrix> = (0..3).map(|_| random_density_matrix(1, &mut rng)).collect();
        let proto = CompasProtocol::with_bell_error(3, 1, CswapScheme::Teledata, 0.01);
        for (root_seed, re, im, re_std_err, im_std_err) in [
            (
                17,
                0.484375,
                0.046875,
                0.054785888385390544,
                0.06255359221907088,
            ),
            (
                0xC0FFEE,
                0.4765625,
                0.1015625,
                0.055053919509048796,
                0.06229861857889174,
            ),
            (
                2026,
                0.4609375,
                -0.0859375,
                0.05557318513680856,
                0.062390759311187025,
            ),
        ] {
            let captured = TraceEstimate {
                re,
                im,
                re_std_err,
                im_std_err,
                shots: 256,
            };
            let seq = proto.estimate(&states, 256, &Executor::sequential(root_seed));
            assert_eq!(seq, captured, "root seed {root_seed}");
            let pooled = Executor::pooled(Engine::with_threads(2), root_seed);
            assert_eq!(proto.estimate(&states, 256, &pooled), captured);
        }
    }

    #[test]
    fn one_fold_estimates_are_pinned_at_every_pool_shape() {
        // Both channels of an estimate share one fold: channel c's shot
        // i runs on `shot_rng(derive_stream_seed(root, c), i)` wherever
        // its chunk falls. `(scheme, root seed, re, im)` at the
        // benchmark's shape (the teledata rows are those of
        // `noisy_teledata_estimates_are_pinned_bit_for_bit`), captured
        // when each channel was its own fold. Chunk 7 puts a unit
        // across the channel boundary (256 = 36·7 + 4), 256 gives each
        // channel exactly one.
        let mut rng = StdRng::seed_from_u64(105);
        let states: Vec<Matrix> = (0..3).map(|_| random_density_matrix(1, &mut rng)).collect();
        for (scheme, root_seed, re, im) in [
            (CswapScheme::Teledata, 17, 0.484375, 0.046875),
            (CswapScheme::Teledata, 0xC0FFEE, 0.4765625, 0.1015625),
            (CswapScheme::Teledata, 2026, 0.4609375, -0.0859375),
            (CswapScheme::Telegate, 17, 0.53125, -0.0078125),
            (CswapScheme::Telegate, 0xC0FFEE, 0.453125, -0.0390625),
            (CswapScheme::Telegate, 2026, 0.4453125, -0.09375),
        ] {
            let proto = CompasProtocol::with_bell_error(3, 1, scheme, 0.01);
            let seq = proto.estimate(&states, 256, &Executor::sequential(root_seed));
            assert_eq!(
                (seq.re, seq.im),
                (re, im),
                "{scheme:?}, root seed {root_seed}"
            );
            for threads in [1, 2, 3] {
                for chunk_size in [7, 64, 256] {
                    let engine = Engine::new(engine::EngineConfig {
                        threads,
                        chunk_size,
                        ..engine::EngineConfig::default()
                    });
                    let pooled = proto.estimate(&states, 256, &Executor::pooled(engine, root_seed));
                    assert_eq!(
                        pooled, seq,
                        "{scheme:?}, root seed {root_seed}, {threads} threads, chunk {chunk_size}"
                    );
                }
            }
        }
    }

    #[test]
    fn monolithic_mixed_states_k3_renyi_purity() {
        // tr(ρ³) of one mixed state, the Rényi-3 workload of §6.1.
        let mut rng = StdRng::seed_from_u64(103);
        let rho = random_density_matrix(1, &mut rng);
        let states = vec![rho.clone(), rho.clone(), rho];
        let exact = exact_multivariate_trace(&states);
        let test = MonolithicSwapTest::new(3, 1, MonolithicVariant::Fanout);
        let e = test.estimate(&states, 4000, &Executor::sequential(203));
        assert_estimates_trace(e, exact);
        assert!(exact.im.abs() < 1e-10, "tr(ρ³) is real");
    }

    #[test]
    fn monolithic_k4_two_qubit_states() {
        let mut rng = StdRng::seed_from_u64(104);
        let states: Vec<Matrix> = (0..4).map(|_| random_pure_density(2, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let test = MonolithicSwapTest::new(4, 2, MonolithicVariant::Sequential);
        let e = test.estimate(&states, 1200, &Executor::sequential(204));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn hadamard_test_baseline_matches_complex_trace() {
        let mut rng = StdRng::seed_from_u64(107);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let test = HadamardTestSwapTest::new(3, 1);
        let e = test.estimate(&states, 4000, &Executor::sequential(205));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn hadamard_test_depth_grows_linearly_in_k() {
        // The §2.3 baseline costs Θ(k·n) depth; the Fanout monolithic
        // variant does not grow with k beyond the GHZ chain.
        let depth = |k: usize| HadamardTestSwapTest::new(k, 2).circuit().depth();
        assert!(depth(8) >= depth(4) + 8, "{} vs {}", depth(8), depth(4));
        assert_eq!(depth(8) - depth(4), depth(12) - depth(8));
    }

    #[test]
    fn wide_ghz_variant_matches_complex_trace() {
        let mut rng = StdRng::seed_from_u64(105);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let test = MonolithicSwapTest::new(3, 1, MonolithicVariant::WideGhz);
        let e = test.estimate(&states, 4000, &Executor::sequential(206));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn wide_ghz_variant_multi_qubit_states() {
        let mut rng = StdRng::seed_from_u64(106);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(2, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let test = MonolithicSwapTest::new(3, 2, MonolithicVariant::WideGhz);
        assert_eq!(test.ghz_width(), 4); // ⌈3/2⌉·2
        let e = test.estimate(&states, 1500, &Executor::sequential(207));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn fig2_width_depth_tradeoffs() {
        // The four-way comparison of Fig 2 for k = 4, n across a sweep:
        //   2b (Sequential): width ⌈k/2⌉,   depth Θ(n)
        //   2c (WideGhz):    width ⌈k/2⌉·n, depth O(1) in n (GHZ chain
        //                    prep aside, which our builder keeps linear
        //                    in the *cat length* for simplicity)
        //   2d (Fanout):     width ⌈k/2⌉,   depth O(1)
        let (k, small, large) = (4usize, 3usize, 9usize);
        let make = |v, n| MonolithicSwapTest::new(k, n, v);
        // Widths.
        assert_eq!(make(MonolithicVariant::Sequential, large).ghz_width(), 2);
        assert_eq!(
            make(MonolithicVariant::WideGhz, large).ghz_width(),
            2 * large
        );
        assert_eq!(make(MonolithicVariant::Fanout, large).ghz_width(), 2);
        // Depth of the CSWAP stage: sequential grows with n, the wide-GHZ
        // CSWAP layer does not (compare after subtracting the GHZ-prep
        // chain, whose length is the ghz width).
        let stage_depth = |v: MonolithicVariant, n: usize| {
            let t = make(v, n);
            t.circuit().depth() as i64 - t.ghz_width() as i64
        };
        let seq_growth = stage_depth(MonolithicVariant::Sequential, large)
            - stage_depth(MonolithicVariant::Sequential, small);
        assert!(seq_growth >= 6, "sequential must grow with n: {seq_growth}");
        let wide_growth = stage_depth(MonolithicVariant::WideGhz, large)
            - stage_depth(MonolithicVariant::WideGhz, small);
        assert!(
            wide_growth.abs() <= 1,
            "wide-GHZ CSWAP stage must not grow with n: {wide_growth}"
        );
    }

    #[test]
    fn fanout_variant_depth_constant_in_n() {
        // Gadget depth saturates at n = 4 (below that the cat-fusion layer
        // is shallower) and thereafter varies by at most one moment with
        // the parity of n.
        let depth = |n: usize| {
            MonolithicSwapTest::new(4, n, MonolithicVariant::Fanout)
                .circuit()
                .depth() as i64
        };
        assert!(
            (depth(4) - depth(16)).abs() <= 1,
            "{} vs {}",
            depth(4),
            depth(16)
        );
        assert!(
            (depth(5) - depth(9)).abs() <= 1,
            "{} vs {}",
            depth(5),
            depth(9)
        );
        // The sequential variant grows with n (Fig 2b).
        let seq_depth = |n: usize| {
            MonolithicSwapTest::new(4, n, MonolithicVariant::Sequential)
                .circuit()
                .depth()
        };
        assert!(seq_depth(9) >= seq_depth(3) + 6);
    }

    #[test]
    fn compas_teledata_k2_matches_overlap() {
        let mut rng = StdRng::seed_from_u64(110);
        let states = vec![
            random_pure_density(1, &mut rng),
            random_pure_density(1, &mut rng),
        ];
        let exact = exact_multivariate_trace(&states);
        let proto = CompasProtocol::new(2, 1, CswapScheme::Teledata);
        let e = proto.estimate(&states, 600, &Executor::sequential(208));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn compas_teledata_k3_matches_complex_trace() {
        let mut rng = StdRng::seed_from_u64(111);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let proto = CompasProtocol::new(3, 1, CswapScheme::Teledata);
        let e = proto.estimate(&states, 600, &Executor::sequential(209));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn compas_telegate_k3_matches_complex_trace() {
        let mut rng = StdRng::seed_from_u64(112);
        let states: Vec<Matrix> = (0..3).map(|_| random_pure_density(1, &mut rng)).collect();
        let exact = exact_multivariate_trace(&states);
        let proto = CompasProtocol::new(3, 1, CswapScheme::Telegate);
        let e = proto.estimate(&states, 600, &Executor::sequential(210));
        assert_estimates_trace(e, exact);
    }

    #[test]
    fn compas_observable_weighted_estimates_pauli_trace() {
        // Distributed tr(Z ρ²): the §6.3 primitive end to end.
        let mut rng = StdRng::seed_from_u64(130);
        let rho = random_density_matrix(1, &mut rng);
        let z = Gate::Z(0).unitary();
        let exact = (&(&z * &rho) * &rho).trace();
        let p: PauliString = "Z".parse().unwrap();
        let proto = CompasProtocol::with_observable(2, 1, CswapScheme::Teledata, &p);
        let e = proto.estimate(&[rho.clone(), rho], 2000, &Executor::sequential(211));
        assert!(
            (e.re - exact.re).abs() < 5.0 * e.re_std_err.max(1e-3),
            "estimate {} vs exact {exact}",
            e.re
        );
        // Same Bell budget as the plain protocol: the observable is free.
        let plain = CompasProtocol::new(2, 1, CswapScheme::Teledata);
        assert_eq!(proto.ledger().bell_pairs(), plain.ledger().bell_pairs());
    }

    #[test]
    fn compas_depth_constant_in_k_and_n() {
        // The headline claim: compiled depth independent of both the
        // number of parties and the state width.
        // Communication-qubit recycling introduces ±2 moments of
        // scheduling jitter; the claim is the absence of growth in k or n.
        let depth = |k: usize, n: usize| {
            CompasProtocol::new(k, n, CswapScheme::Teledata)
                .circuit()
                .depth() as i64
        };
        for (small, big, what) in [
            ((4, 2), (8, 2), "k"),
            ((4, 4), (4, 12), "n"),
            ((6, 3), (12, 3), "k"),
            ((4, 4), (12, 12), "k and n"),
        ] {
            let (ds, db) = (depth(small.0, small.1), depth(big.0, big.1));
            assert!(
                (ds - db).abs() <= 3,
                "depth grew with {what}: {small:?} -> {ds}, {big:?} -> {db}"
            );
        }
    }

    #[test]
    fn compas_bell_pairs_scale_linearly() {
        // Teledata: (k−1)·2n CSWAP pairs + (⌈k/2⌉−1) GHZ links (each two
        // raw hops on the interleaved line).
        for (k, n) in [(4usize, 1usize), (4, 3), (6, 2), (8, 1)] {
            let proto = CompasProtocol::new(k, n, CswapScheme::Teledata);
            let got = proto.ledger().bell_pairs();
            let want = (k - 1) * 2 * n + (k.div_ceil(2) - 1);
            assert_eq!(got, want, "k={k} n={n}");
        }
    }

    #[test]
    fn observable_weighted_test_estimates_pauli_trace() {
        // tr(Z ρ²) for a mixed single-qubit ρ, against linear algebra.
        let mut rng = StdRng::seed_from_u64(120);
        let rho = random_density_matrix(1, &mut rng);
        let z = Gate::Z(0).unitary();
        let exact = (&(&z * &rho) * &rho).trace();
        let p: PauliString = "Z".parse().unwrap();
        let test = MonolithicSwapTest::with_observable(2, 1, MonolithicVariant::Fanout, &p);
        let e = test.estimate(&[rho.clone(), rho], 4000, &Executor::sequential(212));
        assert!(
            (e.re - exact.re).abs() < 5.0 * e.re_std_err.max(1e-3),
            "estimate {} vs exact {exact}",
            e.re
        );
    }

    #[test]
    fn observable_weighted_test_estimates_x_and_y() {
        let mut rng = StdRng::seed_from_u64(121);
        let rho = random_density_matrix(1, &mut rng);
        for (idx, (letter, u)) in [("X", Gate::X(0).unitary()), ("Y", Gate::Y(0).unitary())]
            .into_iter()
            .enumerate()
        {
            let exact = (&(&u * &rho) * &rho).trace();
            let p: PauliString = letter.parse().unwrap();
            let test = MonolithicSwapTest::with_observable(2, 1, MonolithicVariant::Fanout, &p);
            let e = test.estimate(
                &[rho.clone(), rho.clone()],
                4000,
                &Executor::sequential(213 + idx as u64),
            );
            assert!(
                (e.re - exact.re).abs() < 5.0 * e.re_std_err.max(1e-3),
                "{letter}: estimate {} vs exact {exact}",
                e.re
            );
        }
    }

    #[test]
    fn ghz_measurement_adds_s_gate_only_for_im() {
        let mut c1 = Circuit::new(2, 0);
        append_ghz_measurement(&mut c1, &[0, 1], false);
        let mut c2 = Circuit::new(2, 0);
        append_ghz_measurement(&mut c2, &[0, 1], true);
        let count_s = |c: &Circuit| {
            c.instructions()
                .iter()
                .filter(|i| matches!(i, Instruction::Gate(Gate::S(_))))
                .count()
        };
        assert_eq!(count_s(&c1), 0);
        assert_eq!(count_s(&c2), 1);
    }

    /// `lib-compas`'s circuit compiles 21 fused 4×4 kernels, and 8 of
    /// them are block-diagonal along their higher bit: those run at
    /// half the multiplies.
    #[test]
    fn teledata_block_diagonal_kernels_are_classified() {
        let protocol = CompasProtocol::with_bell_error(3, 1, CswapScheme::Teledata, 0.01);
        let program = qsim::compile::compile(protocol.circuit());
        let quads = program
            .ops()
            .iter()
            .filter(|op| matches!(op, qsim::compile::CompiledOp::Unitary2 { .. }));
        let blocked = quads.clone().filter(|op| op.is_block_diagonal());
        assert_eq!((quads.count(), blocked.count()), (21, 8));
    }

    /// The stored sub-cube on the paper's own workload. Replayed op by
    /// op from a product of random input states — interpreted, and
    /// compiled one instruction per program — the k = 3 (12-qubit) and
    /// k = 6 (23-qubit) teledata circuits never store more than 2⁸ and
    /// 2¹³ amplitudes: the peak live width their pinned bits allow. A
    /// full register would be 2¹² and 2²³.
    #[test]
    fn teledata_shots_store_only_their_live_sub_cube() {
        for (k, peak) in [(3usize, 8u32), (6, 13)] {
            let protocol = CompasProtocol::with_bell_error(k, 1, CswapScheme::Teledata, 0.01);
            let circuit = protocol.circuit();
            let n = circuit.num_qubits();
            let mut rng = StdRng::seed_from_u64(k as u64);
            let groups: Vec<(Vec<mathkit::complex::Complex>, Vec<usize>)> = protocol
                .state_qubits()
                .iter()
                .map(|qs| (random_pure_state(qs.len(), &mut rng), qs.clone()))
                .collect();
            let start = StateVector::product_state(n, &groups);
            let programs: Vec<_> = circuit
                .instructions()
                .iter()
                .map(|instr| {
                    let mut one = Circuit::new(n, circuit.num_cbits());
                    one.push(instr.clone());
                    <StateVector as SimState>::compile(&one)
                })
                .collect();
            for seed in 0..3 {
                for compiled in [false, true] {
                    let mut sv = start.clone();
                    let mut cbits = vec![false; circuit.num_cbits()];
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut widest = sv.stored_len();
                    for (instr, program) in circuit.instructions().iter().zip(&programs) {
                        if compiled {
                            sv.apply_compiled(program, &mut cbits, &mut rng);
                        } else {
                            SimState::step(&mut sv, instr, &mut cbits, &mut rng);
                        }
                        widest = widest.max(sv.stored_len());
                    }
                    assert!(
                        widest <= 1 << peak,
                        "k = {k} ({n} qubits), seed {seed}, compiled {compiled}: \
                         stored {widest} amplitudes, over 2^{peak}"
                    );
                }
            }
        }
    }
}
