//! The pluggable simulation-state contract behind the shot loop.
//!
//! Every shot-based workload in the workspace plays the same loop:
//! reset a state from a template, step it through the circuit's
//! instructions while recording classical bits, and (for backends whose
//! records are deferred) finalize the record once the last instruction
//! ran. [`SimState`] captures exactly that contract, so the `engine`
//! crate's executor, plans, and batch runner are generic over *what*
//! simulates a shot — statevector, density matrix, or stabilizer
//! tableau — while *how* shots execute (sequential or pooled) stays the
//! executor's policy. One surface, representation chosen at the
//! boundary; no per-backend API twins.
//!
//! Implementations in this workspace:
//!
//! * [`StateVector`] — trajectory sampling of arbitrary circuits
//!   (the workhorse, exponential in width, limited to 26 qubits);
//! * [`DensityMatrix`](crate::density::DensityMatrix) — exact
//!   deferred-measurement evolution; [`SimState::step`] consumes **no**
//!   randomness, and the classical record is sampled once from the
//!   final state's carrier qubits in [`SimState::finish`];
//! * `stabilizer::CliffordState` — Aaronson–Gottesman tableau shots for
//!   Clifford circuits, polynomial in width; its program replays only
//!   the tableau's sign bits per shot. It consumes the shot's RNG
//!   stream in the same per-instruction pattern as [`StateVector`], so
//!   Clifford circuits without sampling randomness tally identically on
//!   both backends under one root seed.
//!
//! ## Capability probes instead of mid-shot panics
//!
//! [`SimState::supports`] answers, *before any shot runs*, whether a
//! backend can execute a circuit — returning a typed
//! [`Unsupported`] error built on the shared classification
//! [`Circuit::required_caps`]. The shot loop itself only
//! `debug_assert!`s the probe; production runs route through
//! `engine::Backend`, which probes once at the boundary.
//!
//! ## The noiseless prefix: the same state in most shots
//!
//! A program's ops before its first `Measure`, `Reset` or
//! `Conditional` are kernels and `Depolarizing` sites only. A site
//! draws `u < p` ([`site_fires`]) and, if it fires, a Pauli code;
//! neither draw reads the state. So every shot whose prefix sites all
//! stay silent reaches the *same* state there, having drawn one uniform
//! per site. [`SimState::noiseless_prefix`] builds that state once per
//! plan, with the sites' probabilities, as the root of a tree of branch
//! states ([`NoiselessPrefix`]). A shot then draws its site tests on a
//! **clone** of its own stream ([`NoiselessPrefix::look_ahead`]):
//!
//! * no site fires — the shot adopts the advanced clone and walks the
//!   prefix's tree (below);
//! * a site fires — the shot replays the whole program on its untouched
//!   stream, exactly as without a prefix ([`Walk::Fallback`]).
//!
//! ### The tree of branch states
//!
//! Past the prefix, a shot's outcomes only choose between a few
//! collapsed states. The prefix's state is the root of a tree. A node
//! holds the state before one op; at a `Measure` or `Reset` it also
//! holds the op's `p1`, summed once by the very code a shot's
//! measurement runs (`rotate_basis_in`, then `probability_of_one`).
//! Child `o` is the parent's state run through the same collapse path
//! (`collapse_known` onto `o` with `p1` or `1 − p1`, `rotate_basis_out`,
//! the reset's `X`), then through the kernels up to the next
//! interpretation point. It is built once, on the first shot that
//! takes it, behind a `OnceLock`. Where `p1` is exactly 0 or 1 the
//! outcome is certain (a draw lies in `[0, 1)`), so the child is built
//! with the node, from its state in place, and the node keeps no state.
//! A shot walks the tree drawing what its measurements would draw — the
//! outcome uniform, compared as `u < p1`, and the readout flip if
//! `flip_prob > 0` — and writes the record. It leaves at the program's
//! end ([`Walk::Leaf`]), at any other interpretation point (a
//! `Conditional` or a `Depolarizing` site), or at a node whose child
//! the budget refused: there it puts back the outcome draw, copies the
//! node's state and replays the ops from it
//! ([`SimState::run_program_from`], [`Walk::Exit`]).
//!
//! Beyond its root, the tree stores at most two root states' worth of
//! amplitudes, and never more than 2¹⁵ (512 KiB). A child is built
//! only after its parent's size is reserved, and kept only if what it
//! stores fits; a refused child is refused for good. A GHZ-12 tree is
//! its root and two one-amplitude leaves (every outcome past the first
//! is certain), each built from a copy of the root; a dense tree is cut
//! off where the budget runs out, and a state of 16 or more qubits
//! grows no child at all. Which nodes exist may depend on thread
//! timing; what a built node holds and what any shot does do not.
//!
//! Every arm draws the same values in the same order, compares them
//! with the same `f64`s and applies the same functions to the same
//! states (the prefix state is built by the very replay that plays the
//! kernels in a shot), so records, final states and stream positions
//! are those of the plain replay, bit for bit; a walk and one state
//! copy replace the prefix's kernels and the tree's measurements.
//! [`run_program_into_from_prefix`](crate::runner::run_program_into_from_prefix)
//! is the one shot function that takes the choice.

use circuit::circuit::{Basis, Circuit, Instruction};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::amp::effective_workers;
use crate::compile::{CompiledCircuit, CompiledOp};
use crate::qrand::{pauli_gates, random_pauli_code, site_fires};
use crate::statevector::StateVector;

pub use circuit::caps::Unsupported;

/// A circuit lowered into a backend's executable form — the thing a
/// shot loop replays. Compiled **once** per plan (see
/// [`SimState::compile`]) and shared read-only across all shots and
/// workers.
///
/// Three implementations exist: [`Circuit`] itself (the identity
/// "program" of backends that re-interpret the instruction stream per
/// shot — the density matrix), [`CompiledCircuit`] (the statevector's
/// fused kernels) and `stabilizer::clifford::CliffordProgram` (the
/// tableau's x/z evolution run once, leaving per-shot sign ops).
pub trait SimProgram: std::fmt::Debug + Clone + Send + Sync {
    /// Number of qubits the program needs.
    fn num_qubits(&self) -> usize;
    /// Size of the classical register the program writes.
    fn num_cbits(&self) -> usize;
}

impl SimProgram for Circuit {
    fn num_qubits(&self) -> usize {
        Circuit::num_qubits(self)
    }

    fn num_cbits(&self) -> usize {
        Circuit::num_cbits(self)
    }
}

/// Replays a raw instruction stream through [`SimState::step`] — the
/// [`SimState::run_program`] body of every backend whose program type is
/// [`Circuit`] itself, and the fallback of the stabilizer's.
pub fn run_interpreted<S: SimState>(
    state: &mut S,
    circuit: &Circuit,
    cbits: &mut [bool],
    rng: &mut impl Rng,
) {
    for instr in circuit.instructions() {
        state.step(instr, cbits, rng);
    }
}

/// A job's noiseless prefix on one backend (module docs): the
/// probabilities of the sites before the program's first `Measure`,
/// `Reset` or `Conditional`, in order, and the tree of branch states
/// whose root is the state the program reaches there when no site
/// fires. Built once per plan by [`SimState::noiseless_prefix`]; its
/// tree grows as shots walk it.
#[derive(Debug, Clone)]
pub struct NoiselessPrefix<S: SimState> {
    sites: Vec<f64>,
    root: Branch<S>,
    /// Stored amplitudes the tree may still take.
    budget: Budget,
    /// How the backend that built the prefix grows child `outcome` of a
    /// fork: its collapse path, then its kernels up to the next
    /// interpretation point, within the budget.
    grow: Grow<S>,
}

type Grow<S> = fn(&Branch<S>, &<S as SimState>::Program, bool, &Budget) -> Option<Branch<S>>;

/// Where a shot that had a noiseless prefix started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// A prefix site fired: the whole program from the top.
    Fallback,
    /// Walked the tree to the program's end: no op replayed.
    Leaf,
    /// Left the tree before the program's end and replayed the ops
    /// from there.
    Exit,
}

/// A node of a [`NoiselessPrefix`]'s tree: the state before op `at`.
#[derive(Debug, Clone)]
struct Branch<S> {
    /// `None` at a fork whose outcome is certain (`p1` exactly 0 or 1):
    /// its one reachable child was settled from this state in place.
    state: Option<S>,
    at: usize,
    next: Next<S>,
}

impl<S> Branch<S> {
    /// The state a shot that leaves the tree here copies.
    fn kept(&self) -> &S {
        // A shot leaves at a leaf or at a refused child; a certain fork
        // is neither, as its child is built with it and `u < p1` is
        // decided for `u` in `[0, 1)`.
        self.state
            .as_ref()
            .expect("a shot leaves the tree at a kept state")
    }
}

/// What op `at` of a [`Branch`] is to the tree.
#[derive(Debug, Clone)]
enum Next<S> {
    /// The program's end.
    End,
    /// An op the tree does not model: the shot replays from it.
    Replay,
    /// A `Measure` or `Reset`.
    Fork(Fork<S>),
}

/// A branch point: the op's probability of outcome one and the
/// children, built on first visit — `None` inside once the budget has
/// refused one.
#[derive(Debug, Clone)]
struct Fork<S> {
    p1: f64,
    /// A `Measure`'s classical bit and readout flip probability; `None`
    /// for a `Reset`.
    record: Option<(usize, f64)>,
    children: [OnceLock<Option<Box<Branch<S>>>>; 2],
}

impl<S> Fork<S> {
    fn new(p1: f64, record: Option<(usize, f64)>) -> Self {
        Fork {
            p1,
            record,
            children: Default::default(),
        }
    }

    /// A fork whose `outcome` is certain, with its child.
    fn certain(p1: f64, record: Option<(usize, f64)>, outcome: bool, child: Branch<S>) -> Self {
        let fork = Fork::new(p1, record);
        let _ = fork.children[usize::from(outcome)].set(Some(Box::new(child)));
        fork
    }
}

/// The stored amplitudes a tree may still take.
#[derive(Debug)]
struct Budget(AtomicUsize);

impl Budget {
    /// Takes `amps` if that many are left.
    fn take(&self, amps: usize) -> bool {
        self.0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| {
                left.checked_sub(amps)
            })
            .is_ok()
    }

    fn give(&self, amps: usize) {
        self.0.fetch_add(amps, Ordering::Relaxed);
    }
}

impl Clone for Budget {
    fn clone(&self) -> Self {
        Budget(AtomicUsize::new(self.0.load(Ordering::Relaxed)))
    }
}

impl<S: SimState> NoiselessPrefix<S> {
    /// Draws the prefix's site tests on a clone of `rng`. If none fires,
    /// `rng` adopts the advanced clone and the answer is `true`: the shot
    /// walks the tree (module docs). If one fires, `rng` is
    /// untouched and the answer is `false`: the shot replays the whole
    /// program.
    pub fn look_ahead<R: Rng + Clone>(&self, rng: &mut R) -> bool {
        let mut ahead = rng.clone();
        if self.sites.iter().any(|&p| site_fires(p, &mut ahead)) {
            return false;
        }
        *rng = ahead;
        true
    }

    /// Walks one shot down the tree from the root (module docs),
    /// drawing its outcomes from `rng` and writing its records into
    /// `cbits`. Returns the state the shot continues from, the op its
    /// replay starts at, and [`Walk::Leaf`] or [`Walk::Exit`].
    pub(crate) fn walk<R: Rng + Clone>(
        &self,
        program: &S::Program,
        cbits: &mut [bool],
        rng: &mut R,
    ) -> (&S, usize, Walk) {
        let mut node = &self.root;
        loop {
            let fork = match &node.next {
                Next::End => return (node.kept(), node.at, Walk::Leaf),
                Next::Replay => return (node.kept(), node.at, Walk::Exit),
                Next::Fork(fork) => fork,
            };
            // Only a fork that keeps its state and has a child not yet
            // built can refuse the shot; only there is the stream copied,
            // to put the outcome draw back.
            let open = node.state.is_some()
                && fork
                    .children
                    .iter()
                    .any(|child| !matches!(child.get(), Some(Some(_))));
            let before = open.then(|| rng.clone());
            let outcome = rng.random::<f64>() < fork.p1;
            let child = fork.children[usize::from(outcome)]
                .get_or_init(|| (self.grow)(node, program, outcome, &self.budget).map(Box::new));
            let Some(child) = child else {
                *rng = before.expect("a fork that refuses a child was open");
                return (node.kept(), node.at, Walk::Exit);
            };
            if let Some((cbit, flip_prob)) = fork.record {
                let flipped = flip_prob > 0.0 && rng.random::<f64>() < flip_prob;
                cbits[cbit] = outcome ^ flipped;
            }
            node = child;
        }
    }
}

/// A simulation state that can play circuit shots.
///
/// The contract mirrors the shot loop of
/// [`run_shot_into`](crate::runner::run_shot_into):
///
/// 1. [`SimState::reset_from`] overwrites the state with a template,
///    reusing the allocation (per-worker buffer reuse in the engine);
/// 2. [`SimState::step`] executes one instruction, writing measurement
///    outcomes into the caller-owned classical register `cbits` and
///    drawing any randomness from the shot's private RNG stream;
/// 3. [`SimState::finish`] runs once after the last instruction —
///    backends with deferred records (density) sample them here.
///
/// [`SimState::supports`] is the capability probe: call it once per
/// circuit instead of letting a shot panic mid-run on an instruction
/// the representation cannot express.
pub trait SimState: Clone + Send + Sync {
    /// Short backend name used in diagnostics and [`Unsupported`]
    /// errors (`"statevector"`, `"density"`, `"stabilizer"`).
    const NAME: &'static str;

    /// The all-zeros state `|0…0⟩` on `num_qubits` qubits.
    fn prepare(num_qubits: usize) -> Self;

    /// Number of qubits this state covers.
    fn num_qubits(&self) -> usize;

    /// Overwrites this state with a copy of `initial`, reusing the
    /// existing allocation where possible.
    fn reset_from(&mut self, initial: &Self);

    /// Executes one instruction, recording measurement outcomes into
    /// `cbits` and sampling noise/outcomes from `rng`.
    ///
    /// # Panics
    ///
    /// May panic on instructions the representation cannot execute;
    /// probe with [`SimState::supports`] first.
    fn step(&mut self, instr: &Instruction, cbits: &mut [bool], rng: &mut impl Rng);

    /// Finalizes the classical record after the last instruction.
    /// Backends that produce records instruction-by-instruction leave
    /// this as the default no-op.
    fn finish(&mut self, _cbits: &mut [bool], _rng: &mut impl Rng) {}

    /// Whether this backend can execute `circuit`, decided **before**
    /// any shot runs. `Err` carries the backend name and the reason.
    fn supports(circuit: &Circuit) -> Result<(), Unsupported>;

    /// The lowered form replayed by [`SimState::run_program`]. Backends
    /// without a compiler use [`Circuit`] itself; the statevector lowers
    /// to fused kernels ([`CompiledCircuit`]), the stabilizer tableau to
    /// sign ops.
    type Program: SimProgram;

    /// Lowers `circuit` once per plan; the shot loop replays the result
    /// via [`SimState::run_program`] instead of re-interpreting the
    /// instruction stream every shot.
    fn compile(circuit: &Circuit) -> Self::Program;

    /// Plays every instruction of `program` — the compiled counterpart
    /// of stepping each instruction of the source circuit. Must consume
    /// `rng` in exactly the interpreted order so compiled and
    /// interpreted shots are record-identical per seed; does **not**
    /// call [`SimState::finish`] (the loop entry points do).
    fn run_program(&mut self, program: &Self::Program, cbits: &mut [bool], rng: &mut impl Rng);

    /// Whether [`SimState::run_program_from`] actually splits one
    /// shot's work across threads. `false` (the default) means it is
    /// just [`SimState::run_program`], and the engine's amp-parallel
    /// policy never engages for this backend.
    const AMP_PARALLEL: bool = false;

    /// The noiseless prefix of `program` from `initial` (module docs),
    /// built once per plan with its state-space work split across up to
    /// `threads` workers (bit-identical at any count), or `None`: the
    /// default, for backends whose shots gain nothing from one — the
    /// stabilizer's sign replay does no per-shot tableau work, and the
    /// density matrix samples no noise.
    fn noiseless_prefix(
        program: &Self::Program,
        initial: &Self,
        threads: usize,
    ) -> Option<NoiselessPrefix<Self>> {
        let _ = (program, initial, threads);
        None
    }

    /// [`SimState::run_program`] from op `from` of `program` on, with
    /// the single shot's state-space work split across up to `threads`
    /// workers — **bit-identical** to the sequential replay at any
    /// thread count (callers rely on this for thread-count-invariant
    /// tallies). `from` is 0 for a whole shot and a
    /// [`NoiselessPrefix`]'s `rest` for one that starts from its state.
    /// A backend is only asked for the `rest` of a prefix its own
    /// [`SimState::noiseless_prefix`] built, so the default — for
    /// backends without a prefix or an amplitude-parallel path
    /// ([`SimState::AMP_PARALLEL`]` == false`) — plays the whole
    /// program sequentially.
    ///
    /// # Panics
    ///
    /// The default panics if `from` is not 0.
    fn run_program_from(
        &mut self,
        program: &Self::Program,
        from: usize,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        assert_eq!(from, 0, "{} builds no noiseless prefix", Self::NAME);
        let _ = threads;
        self.run_program(program, cbits, rng);
    }
}

impl SimState for StateVector {
    const NAME: &'static str = "statevector";

    fn prepare(num_qubits: usize) -> Self {
        StateVector::new(num_qubits)
    }

    fn num_qubits(&self) -> usize {
        StateVector::num_qubits(self)
    }

    fn reset_from(&mut self, initial: &Self) {
        self.copy_from(initial);
    }

    fn step(&mut self, instr: &Instruction, cbits: &mut [bool], rng: &mut impl Rng) {
        match instr {
            Instruction::Gate(g) => self.apply_gate(g),
            Instruction::Measure {
                qubit,
                cbit,
                basis,
                flip_prob,
            } => {
                let outcome = self.measure(*qubit, *basis, rng);
                let flipped = *flip_prob > 0.0 && rng.random::<f64>() < *flip_prob;
                cbits[*cbit] = outcome ^ flipped;
            }
            Instruction::Reset(q) => self.reset(*q, rng),
            Instruction::Conditional { gate, parity_of } => {
                let parity = parity_of.iter().fold(false, |acc, &c| acc ^ cbits[c]);
                if parity {
                    self.apply_gate(gate);
                }
            }
            Instruction::Depolarizing { qubits, p } => {
                if site_fires(*p, rng) {
                    for gate in pauli_gates(random_pauli_code(qubits.len(), rng), qubits) {
                        self.apply_gate(&gate);
                    }
                }
            }
        }
    }

    fn supports(circuit: &Circuit) -> Result<(), Unsupported> {
        if circuit.num_qubits() > 26 {
            return Err(Unsupported::new(
                Self::NAME,
                format!(
                    "{} qubits exceed the 26-qubit statevector limit",
                    circuit.num_qubits()
                ),
            ));
        }
        Ok(())
    }

    type Program = CompiledCircuit;

    fn compile(circuit: &Circuit) -> CompiledCircuit {
        crate::compile::compile(circuit)
    }

    fn run_program(&mut self, program: &CompiledCircuit, cbits: &mut [bool], rng: &mut impl Rng) {
        self.apply_compiled(program, cbits, rng);
    }

    const AMP_PARALLEL: bool = true;

    /// The prefix's state is the replay's own: its kernel runs, played
    /// by the replay that plays them in a shot, the sites skipped. The
    /// tree's children are grown on one thread, within its budget
    /// (`TREE_MAX_AMPS`). `None` when no kernel precedes the
    /// program's first `Measure`, `Reset` or `Conditional` — a copy of
    /// `initial` saves nothing.
    fn noiseless_prefix(
        program: &CompiledCircuit,
        initial: &Self,
        threads: usize,
    ) -> Option<NoiselessPrefix<Self>> {
        let rest = program.prefix_end();
        let prefix = &program.ops()[..rest];
        let mut sites = Vec::new();
        for op in prefix {
            if let CompiledOp::Interp(Instruction::Depolarizing { p, .. }) = op {
                sites.push(*p);
            }
        }
        if sites.len() == prefix.len() {
            return None;
        }
        let mut state = initial.clone();
        let workers = effective_workers(threads, 1 << state.num_qubits());
        state.replay_kernels(program, rest, workers);
        let (root, held) = branch(state, program, rest);
        Some(NoiselessPrefix {
            sites,
            root,
            budget: Budget(AtomicUsize::new(tree_budget(held))),
            grow: grow_branch,
        })
    }

    fn run_program_from(
        &mut self,
        program: &CompiledCircuit,
        from: usize,
        cbits: &mut [bool],
        rng: &mut impl Rng,
        threads: usize,
    ) {
        let workers = effective_workers(threads, 1 << self.num_qubits());
        self.replay(program, from, cbits, rng, workers);
    }
}

/// The most amplitudes a statevector prefix's tree stores beyond its
/// root: 512 KiB. Below it the budget is two root states, which the
/// GHZ-12 tree of the sharded service workload needs — two
/// one-amplitude leaves, each built from a copy of the root that the
/// budget reserves, and two workers may build them at once. The cap
/// bounds what the tree adds to a multi-shot job's peak memory: a
/// 256-shot dense ZZ job reads at most ≈ 15 % more than with the
/// prefix alone, at 14 and 15 qubits. From 16 qubits on a root state
/// alone exceeds the cap, so no child is grown and a job holds what
/// the prefix alone holds.
const TREE_MAX_AMPS: usize = 1 << 15;

/// The stored amplitudes a tree whose root holds `root` may take
/// beyond it ([`TREE_MAX_AMPS`]).
fn tree_budget(root: usize) -> usize {
    (2 * root).min(TREE_MAX_AMPS)
}

/// The most amplitudes a statevector noiseless prefix on `num_qubits`
/// qubits ever stores: a full root state and its tree's budget beyond
/// it. An upper bound for a cache that keeps a prefix for longer than
/// one job.
pub fn prefix_max_amps(num_qubits: usize) -> usize {
    let root = 1usize << num_qubits;
    root + tree_budget(root)
}

/// The tree node for `state` before op `at` of `program`, and the
/// amplitudes it stores. At a `Measure` or `Reset` it sums `p1` with
/// the shot's own probe; if the outcome is certain it settles `state`
/// on it in place and goes on to the next interpretation point, keeping
/// no state at the fork, until it reaches a fork whose outcome is not
/// certain, another interpretation point or the program's end.
fn branch(
    mut state: StateVector,
    program: &CompiledCircuit,
    mut at: usize,
) -> (Branch<StateVector>, usize) {
    // The certain forks on the way: (at, p1, record, outcome).
    let mut certain = Vec::new();
    let next = loop {
        let op = match program.ops().get(at) {
            None => break Next::End,
            Some(CompiledOp::Interp(
                op @ (Instruction::Measure { .. } | Instruction::Reset(_)),
            )) => op,
            Some(_) => break Next::Replay,
        };
        let record = match *op {
            Instruction::Measure {
                cbit, flip_prob, ..
            } => Some((cbit, flip_prob)),
            _ => None,
        };
        let p1 = probe(&mut state, op);
        if p1 != 0.0 && p1 != 1.0 {
            break Next::Fork(Fork::new(p1, record));
        }
        let outcome = p1 == 1.0;
        settle(&mut state, op, outcome, p1);
        certain.push((at, p1, record, outcome));
        at = state.run_to_interp(program, at + 1, 1);
    };
    state.shrink_to_fit();
    let held = state.stored_len();
    let tail = Branch {
        state: Some(state),
        at,
        next,
    };
    let branch = certain
        .into_iter()
        .rev()
        .fold(tail, |child, (at, p1, record, outcome)| Branch {
            state: None,
            at,
            next: Next::Fork(Fork::certain(p1, record, outcome, child)),
        });
    (branch, held)
}

/// `p1` of the fork op `op` (a `Measure` or `Reset`) on `state`, by
/// [`StateVector::measure_probe`] — on a rotated copy for an X or Y
/// basis, since a node keeps the state before its op.
fn probe(state: &mut StateVector, op: &Instruction) -> f64 {
    match *op {
        Instruction::Measure {
            qubit,
            basis: Basis::Z,
            ..
        }
        | Instruction::Reset(qubit) => state.measure_probe(qubit, Basis::Z),
        Instruction::Measure { qubit, basis, .. } => state.clone().measure_probe(qubit, basis),
        _ => unreachable!("{op:?} is not a fork"),
    }
}

/// Settles `state`, the state before the fork op `op`, on `outcome`
/// (its probe gave `p1`) by the path a shot's `Measure` or `Reset`
/// takes.
fn settle(state: &mut StateVector, op: &Instruction, outcome: bool, p1: f64) {
    match *op {
        Instruction::Measure { qubit, basis, .. } => {
            state.rotate_basis_in(qubit, basis);
            state.measure_settle(qubit, basis, outcome, p1);
        }
        Instruction::Reset(q) => state.reset_settle(q, outcome, p1),
        _ => unreachable!("{op:?} is not a fork"),
    }
}

/// Child `outcome` of the fork `parent`: the parent's state settled on
/// `outcome`, then run through the kernels up to the next
/// interpretation point ([`branch`]). Reserves the parent's size from
/// `budget` before building and keeps the child only if what it stores
/// fits; `None` if either fails.
fn grow_branch(
    parent: &Branch<StateVector>,
    program: &CompiledCircuit,
    outcome: bool,
    budget: &Budget,
) -> Option<Branch<StateVector>> {
    let (Some(state), Next::Fork(fork), CompiledOp::Interp(op)) =
        (&parent.state, &parent.next, &program.ops()[parent.at])
    else {
        unreachable!("only a fork that keeps its state grows children");
    };
    let reserved = state.stored_len();
    if !budget.take(reserved) {
        return None;
    }
    let mut state = state.clone();
    settle(&mut state, op, outcome, fork.p1);
    let at = state.run_to_interp(program, parent.at + 1, 1);
    let (child, held) = branch(state, program, at);
    if held <= reserved {
        budget.give(reserved - held);
    } else if !budget.take(held - reserved) {
        budget.give(reserved);
        return None;
    }
    Some(child)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn statevector_supports_everything_within_width() {
        let mut c = Circuit::new(3, 1);
        c.t(0).ccx(0, 1, 2).measure(2, 0);
        assert!(StateVector::supports(&c).is_ok());
        let wide = Circuit::new(27, 0);
        let err = StateVector::supports(&wide).unwrap_err();
        assert_eq!(err.backend, "statevector");
    }

    #[test]
    fn statevector_step_matches_runner_semantics() {
        // Stepping instruction-by-instruction reproduces run_shot_into.
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
        for seed in 0..20 {
            let initial = StateVector::prepare(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut state = StateVector::prepare(0);
            state.reset_from(&initial);
            let mut cbits = vec![false; c.num_cbits()];
            for instr in c.instructions() {
                state.step(instr, &mut cbits, &mut rng);
            }
            state.finish(&mut cbits, &mut rng);

            let mut rng2 = StdRng::seed_from_u64(seed);
            let mut state2 = StateVector::prepare(0);
            let mut cbits2 = Vec::new();
            crate::runner::run_shot_into(&c, &initial, &mut state2, &mut cbits2, &mut rng2);
            assert_eq!(cbits, cbits2);
            assert_eq!(state, state2);
        }
    }

    /// The amplitudes and the nodes a tree holds: every kept state of
    /// its built nodes.
    fn held(node: &Branch<StateVector>) -> (usize, usize) {
        let mut total = (node.state.as_ref().map_or(0, StateVector::stored_len), 1);
        if let Next::Fork(fork) = &node.next {
            for child in fork.children.iter().filter_map(|c| c.get()).flatten() {
                let (amps, nodes) = held(child);
                total = (total.0 + amps, total.1 + nodes);
            }
        }
        total
    }

    /// Plays `shots` shots of `circuit` from its prefix on two threads,
    /// shot `i` on stream `i`, checking after each that the tree holds
    /// no more than its root and [`tree_budget`]. Returns the prefix and
    /// how many shots ended at a leaf, left the tree, and fell back.
    fn walk_shots(circuit: &Circuit, shots: u64) -> (NoiselessPrefix<StateVector>, [usize; 3]) {
        let program = crate::compile::compile(circuit);
        let initial = StateVector::new(circuit.num_qubits());
        let prefix = StateVector::noiseless_prefix(&program, &initial, 1).expect("a prefix");
        let root = held(&prefix.root).0;
        let walks = std::sync::Mutex::new([0; 3]);
        std::thread::scope(|scope| {
            for worker in 0..2 {
                let (program, initial, prefix, walks) = (&program, &initial, &prefix, &walks);
                scope.spawn(move || {
                    let (mut state, mut cbits) = (StateVector::new(0), Vec::new());
                    for shot in (worker..shots).step_by(2) {
                        let mut rng = StdRng::seed_from_u64(shot);
                        let walk = crate::runner::run_program_into_from_prefix(
                            program,
                            initial,
                            Some(prefix),
                            &mut state,
                            &mut cbits,
                            &mut rng,
                            1,
                        );
                        let arm = match walk.expect("a prefix") {
                            Walk::Leaf => 0,
                            Walk::Exit => 1,
                            Walk::Fallback => 2,
                        };
                        walks.lock().unwrap()[arm] += 1;
                        let (amps, _) = held(&prefix.root);
                        let most = root + tree_budget(root);
                        assert!(amps <= most, "{amps} > {most} (root {root})");
                    }
                });
            }
        });
        (prefix, walks.into_inner().unwrap())
    }

    /// The `zz14_sv` trace workload's shape on `n` qubits: a dense
    /// state, every qubit measured.
    fn zz(n: usize) -> Circuit {
        let mut c = Circuit::new(n, n);
        for layer in 0..2 {
            for q in 0..n {
                c.rx(q, 0.3 + 0.05 * (q + layer) as f64);
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1).rz(q + 1, 0.4 + 0.03 * q as f64).cx(q, q + 1);
            }
        }
        for q in 0..n {
            c.measure(q, q);
        }
        c
    }

    #[test]
    fn a_dense_tree_stays_within_its_budget() {
        // Its full tree is fifteen root states; its budget is two.
        let (_, [leaf, exit, fallback]) = walk_shots(&zz(14), 256);
        assert_eq!(fallback, 0);
        assert_eq!(leaf + exit, 256);
        assert!(exit > 0, "the budget refused no child");
    }

    #[test]
    fn a_state_of_sixteen_qubits_grows_no_child() {
        // A root state alone is past the tree's cap: every shot leaves
        // at the root, and the tree holds only the root.
        let (prefix, [leaf, exit, fallback]) = walk_shots(&zz(16), 8);
        assert_eq!((leaf, exit, fallback), (0, 8, 0));
        assert_eq!(held(&prefix.root), (1 << 16, 1));
    }

    #[test]
    fn a_ghz_tree_is_built_wherever_its_shots_go() {
        // The `ghz12_sv` trace workload: a noisy GHZ-12 chain, every
        // qubit measured. Past the first measurement every outcome is
        // certain, so the tree is the root and two one-amplitude leaves.
        let mut prep = Circuit::new(12, 12);
        prep.h(0);
        for q in 1..12 {
            prep.cx(q - 1, q);
        }
        let mut c = circuit::noise::NoiseModel::standard(0.002).apply(&prep);
        for q in 0..12 {
            c.measure(q, q);
        }
        let (prefix, [leaf, exit, fallback]) = walk_shots(&c, 256);
        assert_eq!(exit, 0, "a shot left the tree");
        assert_eq!(leaf + fallback, 256);
        assert!(leaf > 200, "{leaf} leaves");
        assert_eq!(held(&prefix.root), (4096 + 2, 1 + 2 * 12));
    }
}
