//! A network of QPUs building one global distributed circuit.
//!
//! [`DistributedMachine`] models the COMPAS execution substrate: `k` QPU
//! nodes, each holding a block of data qubits and a pool of communication
//! ancillas, connected by a [`Topology`]. Protocol code requests Bell
//! pairs and teleoperations; the machine
//!
//! * allocates and recycles communication qubits (qubit reuse, §3.6),
//! * physically realises long-range Bell pairs by entanglement swapping
//!   when endpoints are not adjacent (§2.5),
//! * injects the depolarizing link noise of Eq. (5) on every distributed
//!   Bell half, and
//! * records consumption in a [`ResourceLedger`].
//!
//! The product is a single [`Circuit`] over the union register, ready for
//! any of the simulators, plus the ledger used to check Tables 1–3.

use circuit::circuit::{Cbit, Circuit, Instruction};
use circuit::gate::{Gate, Qubit};
use std::collections::HashMap;

use crate::ledger::{ResourceLedger, TeleopKind};
use crate::teleop;
use crate::topology::{NodeId, Topology};

/// A distributed-QPU machine assembling one global circuit.
#[derive(Debug, Clone)]
pub struct DistributedMachine {
    k: usize,
    data_per_node: usize,
    topology: Topology,
    /// Depolarizing probability `p` of Eq. (5) applied to the travelling
    /// half of every nearest-neighbour Bell pair.
    bell_error: f64,
    circuit: Circuit,
    ledger: ResourceLedger,
    /// Which node owns each qubit of the global register.
    qubit_node: Vec<NodeId>,
    /// Recycled communication qubits per node (measured + reset).
    comm_free: Vec<Vec<Qubit>>,
    /// Whether freed communication qubits are recycled (§3.6). Disabled
    /// only by the qubit-reuse ablation.
    reuse_comm: bool,
    /// Per-link overrides of `bell_error`, keyed by the normalised
    /// (low, high) node pair — the channel heterogeneity of §7.
    link_error: HashMap<(NodeId, NodeId), f64>,
}

impl DistributedMachine {
    /// Creates a machine with `k` nodes of `data_per_node` data qubits on
    /// the given topology, with noiseless links.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, data_per_node: usize, topology: Topology) -> Self {
        assert!(k > 0, "a machine needs at least one node");
        let circuit = Circuit::new(k * data_per_node, 0);
        let qubit_node = (0..k)
            .flat_map(|node| std::iter::repeat_n(node, data_per_node))
            .collect();
        DistributedMachine {
            k,
            data_per_node,
            topology,
            bell_error: 0.0,
            circuit,
            ledger: ResourceLedger::new(),
            qubit_node,
            comm_free: vec![Vec::new(); k],
            reuse_comm: true,
            link_error: HashMap::new(),
        }
    }

    /// Disables communication-qubit recycling (the §3.6 ablation): every
    /// teleoperation allocates fresh qubits, exposing the memory cost
    /// that qubit reuse avoids.
    pub fn without_qubit_reuse(mut self) -> Self {
        self.reuse_comm = false;
        self
    }

    /// Sets the Bell-pair distribution error: each nearest-neighbour link
    /// depolarizes the travelling half with probability `p` (Eq. 5).
    pub fn with_bell_error(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.bell_error = p;
        self
    }

    /// Overrides the depolarizing strength of one physical link — the
    /// channel heterogeneity the paper's §7 lists as future work. The
    /// link is undirected; unlisted links keep the global `bell_error`.
    ///
    /// # Panics
    ///
    /// Panics if the nodes are equal, out of range, or `p ∉ [0, 1]`.
    pub fn set_link_error(&mut self, a: NodeId, b: NodeId, p: f64) {
        assert!(a < self.k && b < self.k, "node out of range");
        assert_ne!(a, b, "a link joins two distinct nodes");
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.link_error.insert((a.min(b), a.max(b)), p);
    }

    /// The depolarizing strength of the physical link `(a, b)`.
    pub fn link_error(&self, a: NodeId, b: NodeId) -> f64 {
        self.link_error
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(self.bell_error)
    }

    /// Data qubits per node.
    pub fn data_per_node(&self) -> usize {
        self.data_per_node
    }

    /// The network topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Global index of data qubit `idx` on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `idx` is out of range.
    pub fn data_qubit(&self, node: NodeId, idx: usize) -> Qubit {
        assert!(node < self.k, "node out of range");
        assert!(idx < self.data_per_node, "data qubit index out of range");
        node * self.data_per_node + idx
    }

    /// The node owning a global qubit index.
    pub fn node_of(&self, qubit: Qubit) -> NodeId {
        self.qubit_node[qubit]
    }

    /// The circuit assembled so far.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Mutable access for appending *local* operations; prefer
    /// [`DistributedMachine::local_gate`] which enforces locality.
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// Consumes the machine, returning the circuit and the ledger.
    pub fn finish(self) -> (Circuit, ResourceLedger) {
        (self.circuit, self.ledger)
    }

    /// The resource ledger.
    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    /// Mutable access to the ledger, for protocol layers that account
    /// composite operations (e.g. a batch of cat copies standing in for
    /// teleported Toffolis).
    pub fn ledger_mut(&mut self) -> &mut ResourceLedger {
        &mut self.ledger
    }

    /// Appends a gate after checking all its qubits live on one node.
    ///
    /// # Panics
    ///
    /// Panics if the gate spans nodes — that would be an unphysical
    /// direct remote gate; use the teleoperations instead.
    pub fn local_gate(&mut self, gate: Gate) -> &mut Self {
        let qubits = gate.qubits();
        let node = self.node_of(qubits[0]);
        for &q in &qubits[1..] {
            assert_eq!(
                self.node_of(q),
                node,
                "gate {gate} spans nodes {} and {}; use a teleoperation",
                node,
                self.node_of(q)
            );
        }
        self.circuit.push(Instruction::Gate(gate));
        self
    }

    /// Allocates a fresh (or recycled) `|0⟩` communication qubit on `node`.
    pub fn alloc_comm(&mut self, node: NodeId) -> Qubit {
        assert!(node < self.k, "node out of range");
        if let Some(q) = self.comm_free[node].pop() {
            q
        } else {
            let q = self.circuit.add_qubits(1);
            self.qubit_node.push(node);
            q
        }
    }

    /// Returns a used communication qubit to `node`'s pool, resetting it.
    pub fn free_comm(&mut self, qubit: Qubit) {
        let node = self.node_of(qubit);
        self.circuit.reset(qubit);
        if self.reuse_comm {
            self.comm_free[node].push(qubit);
        }
    }

    /// Allocates `count` fresh classical bits, returning the first index.
    pub fn alloc_cbits(&mut self, count: usize) -> Cbit {
        self.circuit.add_cbits(count)
    }

    /// Creates one end-to-end Bell pair between `a` and `b`, returning
    /// `(qubit_at_a, qubit_at_b)`.
    ///
    /// Adjacent nodes get a direct pair; distant nodes get a chain of
    /// nearest-neighbour pairs stitched by entanglement swapping
    /// (teleporting the intermediate halves), consuming `distance` raw
    /// pairs as in §2.5.
    pub fn create_bell(&mut self, a: NodeId, b: NodeId) -> (Qubit, Qubit) {
        assert_ne!(a, b, "a Bell pair needs two distinct nodes");
        let path = self.topology.path(a, b, self.k);
        let hops = path.len() - 1;

        // Nearest-neighbour pairs along the path.
        let mut pairs = Vec::with_capacity(hops);
        for w in path.windows(2) {
            let qa = self.alloc_comm(w[0]);
            let qb = self.alloc_comm(w[1]);
            teleop::prepare_bell(&mut self.circuit, qa, qb);
            let link_p = self.link_error(w[0], w[1]);
            if link_p > 0.0 {
                // Eq. (5): one-qubit depolarizing channel of strength p on
                // the half that traversed the link. Our `Depolarizing`
                // instruction applies a uniform non-identity Pauli with its
                // probability, so strength 3p/4 reproduces the channel.
                self.circuit.push(Instruction::Depolarizing {
                    qubits: vec![qb],
                    p: 0.75 * link_p,
                });
            }
            pairs.push((qa, qb));
        }

        // Entanglement swapping: teleport the left half of each later pair
        // through the accumulated pair, extending its reach by one hop.
        let (end_a, mut end_b) = pairs[0];
        for &(qa, qb) in &pairs[1..] {
            let c = self.alloc_cbits(2);
            teleop::teledata(&mut self.circuit, end_b, qa, qb, c, c + 1);
            self.ledger.record_classical_bits(2);
            self.free_comm(end_b);
            self.free_comm(qa);
            end_b = qb;
        }

        self.ledger.record_bell_pair(a, b, hops);
        (end_a, end_b)
    }

    /// Teleports the state of `src` onto `dst` (on a different node).
    ///
    /// `dst` must be a `|0⟩` qubit (fresh ancilla or a reset data qubit).
    /// `src` ends measured and reset, ready for reuse.
    pub fn teleport(&mut self, src: Qubit, dst: Qubit) {
        let (na, nb) = (self.node_of(src), self.node_of(dst));
        assert_ne!(na, nb, "teleport endpoints must be on different nodes");
        let (ebit_src, ebit_dst) = self.create_bell(na, nb);
        // Move the Bell half onto the destination qubit: since `dst` is
        // |0⟩, a local CNOT + CNOT back is unnecessary — instead teleport
        // directly onto the ebit half and then locally swap it into place.
        let c = self.alloc_cbits(2);
        teleop::teledata(&mut self.circuit, src, ebit_src, ebit_dst, c, c + 1);
        if ebit_dst != dst {
            self.circuit.swap(ebit_dst, dst);
            self.free_comm(ebit_dst);
        }
        self.circuit.reset(src);
        self.free_comm(ebit_src);
        self.ledger.record_teleop(TeleopKind::Teledata);
        self.ledger.record_classical_bits(2);
    }

    /// Applies a CNOT whose control and target live on different nodes
    /// via gate teleportation (Fig 1b), consuming one Bell pair.
    pub fn remote_cx(&mut self, control: Qubit, target: Qubit) {
        let (na, nb) = (self.node_of(control), self.node_of(target));
        assert_ne!(na, nb, "remote_cx endpoints must differ; use local_gate");
        let (ebit_ctl, ebit_tgt) = self.create_bell(na, nb);
        let c = self.alloc_cbits(2);
        teleop::telegate_cx(
            &mut self.circuit,
            control,
            target,
            ebit_ctl,
            ebit_tgt,
            c,
            c + 1,
        );
        self.free_comm(ebit_ctl);
        self.free_comm(ebit_tgt);
        self.ledger.record_teleop(TeleopKind::TelegateCnot);
        self.ledger.record_classical_bits(2);
    }

    /// Applies a Toffoli with both controls on one node and the target on
    /// another, via one Bell pair (Fig 6d).
    pub fn remote_ccx(&mut self, control_a: Qubit, control_b: Qubit, target: Qubit) {
        let nc = self.node_of(control_a);
        assert_eq!(
            nc,
            self.node_of(control_b),
            "both controls must share a node"
        );
        let nt = self.node_of(target);
        assert_ne!(nc, nt, "remote_ccx target must be on another node");
        let (ebit_tgt, ebit_ctl) = self.create_bell(nt, nc);
        let c = self.alloc_cbits(2);
        teleop::telegate_ccx(
            &mut self.circuit,
            control_a,
            control_b,
            target,
            ebit_tgt,
            ebit_ctl,
            c,
            c + 1,
        );
        self.free_comm(ebit_tgt);
        self.free_comm(ebit_ctl);
        self.ledger.record_teleop(TeleopKind::TelegateToffoli);
        self.ledger.record_classical_bits(2);
    }

    /// Teleports `src` onto a fresh qubit on `dst_node`, returning it.
    ///
    /// Unlike [`DistributedMachine::teleport`], the destination is the
    /// Bell half itself, saving a local SWAP. `src` ends reset.
    pub fn teleport_to_node(&mut self, src: Qubit, dst_node: NodeId) -> Qubit {
        let na = self.node_of(src);
        assert_ne!(
            na, dst_node,
            "teleport endpoints must be on different nodes"
        );
        let (ebit_src, ebit_dst) = self.create_bell(na, dst_node);
        let c = self.alloc_cbits(2);
        teleop::teledata(&mut self.circuit, src, ebit_src, ebit_dst, c, c + 1);
        self.circuit.reset(src);
        self.free_comm(ebit_src);
        self.ledger.record_teleop(TeleopKind::Teledata);
        self.ledger.record_classical_bits(2);
        ebit_dst
    }

    /// Applies many remote CNOTs in parallel: all Bell pairs are created
    /// first, then every telegate runs, then the communication qubits are
    /// recycled — so the layer's depth does not grow with the batch size.
    ///
    /// # Panics
    ///
    /// Panics if any pair shares a node (use [`DistributedMachine::local_gate`]).
    pub fn remote_cx_batch(&mut self, ops: &[(Qubit, Qubit)]) {
        let bells: Vec<(Qubit, Qubit)> = ops
            .iter()
            .map(|&(control, target)| {
                let (na, nb) = (self.node_of(control), self.node_of(target));
                assert_ne!(na, nb, "remote_cx endpoints must differ");
                self.create_bell(na, nb)
            })
            .collect();
        for (&(control, target), &(ebit_ctl, ebit_tgt)) in ops.iter().zip(&bells) {
            let c = self.alloc_cbits(2);
            teleop::telegate_cx(
                &mut self.circuit,
                control,
                target,
                ebit_ctl,
                ebit_tgt,
                c,
                c + 1,
            );
            self.ledger.record_teleop(TeleopKind::TelegateCnot);
            self.ledger.record_classical_bits(2);
        }
        for &(ebit_ctl, ebit_tgt) in &bells {
            self.free_comm(ebit_ctl);
            self.free_comm(ebit_tgt);
        }
    }

    /// Teleports many qubits to their destination nodes in parallel,
    /// returning the new holders. See [`DistributedMachine::teleport_to_node`].
    pub fn teleport_batch(&mut self, moves: &[(Qubit, NodeId)]) -> Vec<Qubit> {
        let bells: Vec<(Qubit, Qubit)> = moves
            .iter()
            .map(|&(src, dst_node)| {
                let na = self.node_of(src);
                assert_ne!(na, dst_node, "teleport endpoints must differ");
                self.create_bell(na, dst_node)
            })
            .collect();
        let mut holders = Vec::with_capacity(moves.len());
        for (&(src, _), &(ebit_src, ebit_dst)) in moves.iter().zip(&bells) {
            let c = self.alloc_cbits(2);
            teleop::teledata(&mut self.circuit, src, ebit_src, ebit_dst, c, c + 1);
            self.circuit.reset(src);
            self.free_comm(ebit_src);
            self.ledger.record_teleop(TeleopKind::Teledata);
            self.ledger.record_classical_bits(2);
            holders.push(ebit_dst);
        }
        holders
    }

    /// Cat-copies many source qubits onto fresh qubits on their
    /// destination nodes in parallel. Release each with
    /// [`DistributedMachine::cat_uncopy`] (uncopies are naturally
    /// parallel: they only measure and feed forward).
    pub fn cat_copy_batch(&mut self, srcs: &[(Qubit, NodeId)]) -> Vec<Qubit> {
        let bells: Vec<(Qubit, Qubit)> = srcs
            .iter()
            .map(|&(src, dst_node)| {
                let na = self.node_of(src);
                assert_ne!(na, dst_node, "cat copy must target another node");
                self.create_bell(na, dst_node)
            })
            .collect();
        let mut copies = Vec::with_capacity(srcs.len());
        for (&(src, _), &(ebit_src, ebit_dst)) in srcs.iter().zip(&bells) {
            let c = self.alloc_cbits(1);
            teleop::cat_copy(&mut self.circuit, src, ebit_src, ebit_dst, c);
            self.free_comm(ebit_src);
            self.ledger.record_classical_bits(1);
            copies.push(ebit_dst);
        }
        copies
    }

    /// Cat-copies `src`'s computational-basis value onto a fresh qubit on
    /// `dst_node`, returning the copy. Release with
    /// [`DistributedMachine::cat_uncopy`]. Consumes one Bell pair.
    ///
    /// One copy can control arbitrarily many gates on `dst_node`, which is
    /// how the telegate CSWAP shares a single teleported control across
    /// `n` Toffolis (§3.3).
    pub fn cat_copy(&mut self, src: Qubit, dst_node: NodeId) -> Qubit {
        let na = self.node_of(src);
        assert_ne!(na, dst_node, "cat copy must target another node");
        let (ebit_src, ebit_dst) = self.create_bell(na, dst_node);
        let c = self.alloc_cbits(1);
        teleop::cat_copy(&mut self.circuit, src, ebit_src, ebit_dst, c);
        self.free_comm(ebit_src);
        self.ledger.record_classical_bits(1);
        ebit_dst
    }

    /// Releases a cat copy, restoring `src` exactly and recycling the
    /// copy's qubit.
    pub fn cat_uncopy(&mut self, copy: Qubit, src: Qubit) {
        let c = self.alloc_cbits(1);
        teleop::cat_uncopy(&mut self.circuit, copy, src, c);
        self.free_comm(copy);
        self.ledger.record_classical_bits(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::matrix::TraceKeep;
    use qsim::runner::run_shot;
    use qsim::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Fidelity of the reduced state on the first `keep` qubits of `out`
    /// against the `keep`-qubit pure state `want`.
    fn reduced_fidelity(out: &StateVector, keep: usize, want: &StateVector) -> f64 {
        let total = out.num_qubits();
        let rho = out.to_density();
        let reduced = rho.partial_trace(1 << keep, 1 << (total - keep), TraceKeep::A);
        reduced
            .mul_vec(&want.amplitudes())
            .iter()
            .zip(&want.amplitudes())
            .map(|(a, b)| (b.conj() * *a).re)
            .sum()
    }

    #[test]
    fn layout_assigns_data_qubits_contiguously() {
        let m = DistributedMachine::new(3, 2, Topology::Line);
        assert_eq!(m.data_qubit(0, 0), 0);
        assert_eq!(m.data_qubit(2, 1), 5);
        assert_eq!(m.node_of(3), 1);
    }

    #[test]
    #[should_panic(expected = "spans nodes")]
    fn local_gate_rejects_cross_node_gates() {
        let mut m = DistributedMachine::new(2, 1, Topology::Line);
        m.local_gate(Gate::Cx {
            control: 0,
            target: 1,
        });
    }

    #[test]
    fn comm_qubits_are_recycled() {
        let mut m = DistributedMachine::new(2, 1, Topology::Line);
        let q = m.alloc_comm(0);
        m.free_comm(q);
        assert_eq!(m.alloc_comm(0), q);
    }

    #[test]
    fn adjacent_bell_pair_is_entangled() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = DistributedMachine::new(2, 1, Topology::Line);
        let (qa, qb) = m.create_bell(0, 1);
        let cb = m.alloc_cbits(2);
        m.circuit_mut().measure(qa, cb).measure(qb, cb + 1);
        let circ = m.circuit().clone();
        for _ in 0..20 {
            let out = run_shot(&circ, &StateVector::new(circ.num_qubits()), &mut rng);
            assert_eq!(out.cbits[cb], out.cbits[cb + 1]);
        }
        assert_eq!(m.ledger().bell_pairs(), 1);
        assert_eq!(m.ledger().raw_bell_pairs(), 1);
    }

    #[test]
    fn distant_bell_pair_uses_swapping() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = DistributedMachine::new(4, 1, Topology::Line);
        let (qa, qb) = m.create_bell(0, 3);
        let cb = m.alloc_cbits(2);
        m.circuit_mut().measure(qa, cb).measure(qb, cb + 1);
        let circ = m.circuit().clone();
        for _ in 0..20 {
            let out = run_shot(&circ, &StateVector::new(circ.num_qubits()), &mut rng);
            assert_eq!(out.cbits[cb], out.cbits[cb + 1]);
        }
        assert_eq!(m.ledger().bell_pairs(), 1);
        assert_eq!(m.ledger().raw_bell_pairs(), 3);
        assert_eq!(m.ledger().teleop_count(TeleopKind::EntanglementSwap), 2);
    }

    #[test]
    fn machine_teleport_moves_state_across_nodes() {
        let mut rng = StdRng::seed_from_u64(4);
        let amps = qsim::qrand::random_pure_state(1, &mut rng);
        let mut m = DistributedMachine::new(2, 1, Topology::Line);
        let src = m.data_qubit(0, 0);
        let dst = m.data_qubit(1, 0);
        m.teleport(src, dst);
        let circ = m.circuit().clone();

        let initial = StateVector::product_state(circ.num_qubits(), &[(amps.clone(), vec![src])]);
        let out = run_shot(&circ, &initial, &mut rng);
        // Reorder: want the state on qubit `dst` = 1; trace out the rest.
        let rho = out.state.to_density();
        let n = circ.num_qubits();
        // dst = qubit 1 ⇒ keep block after qubit 0: easiest is to compare
        // ⟨ψ|ρ_dst|ψ⟩ via restriction helper below.
        let want = StateVector::product_state(1, &[(amps, vec![0])]);
        // Trace out qubit 0 (A of dim 2), keep rest, then keep first of rest.
        let rest = rho.partial_trace(2, 1 << (n - 1), TraceKeep::B);
        let dst_rho = rest.partial_trace(2, 1 << (n - 2), TraceKeep::A);
        let fid: f64 = dst_rho
            .mul_vec(&want.amplitudes())
            .iter()
            .zip(&want.amplitudes())
            .map(|(a, b)| (b.conj() * *a).re)
            .sum();
        assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
        assert_eq!(m.ledger().teleop_count(TeleopKind::Teledata), 1);
    }

    #[test]
    fn machine_remote_cx_matches_local_cx() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let ctl = qsim::qrand::random_pure_state(1, &mut rng);
            let tgt = qsim::qrand::random_pure_state(1, &mut rng);
            let mut m = DistributedMachine::new(2, 1, Topology::Line);
            let (c_q, t_q) = (m.data_qubit(0, 0), m.data_qubit(1, 0));
            m.remote_cx(c_q, t_q);
            let circ = m.circuit().clone();

            let initial = StateVector::product_state(
                circ.num_qubits(),
                &[(ctl.clone(), vec![c_q]), (tgt.clone(), vec![t_q])],
            );
            let out = run_shot(&circ, &initial, &mut rng);

            let mut want =
                StateVector::product_state(2, &[(ctl.clone(), vec![0]), (tgt.clone(), vec![1])]);
            want.apply_gate(&Gate::Cx {
                control: 0,
                target: 1,
            });
            let fid = reduced_fidelity(&out.state, 2, &want);
            assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
        }
    }

    #[test]
    fn machine_remote_ccx_matches_local_toffoli() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let a = qsim::qrand::random_pure_state(1, &mut rng);
            let b = qsim::qrand::random_pure_state(1, &mut rng);
            let t = qsim::qrand::random_pure_state(1, &mut rng);
            let mut m = DistributedMachine::new(2, 2, Topology::Line);
            let (qa, qb) = (m.data_qubit(0, 0), m.data_qubit(0, 1));
            let qt = m.data_qubit(1, 0);
            m.remote_ccx(qa, qb, qt);
            let circ = m.circuit().clone();

            let initial = StateVector::product_state(
                circ.num_qubits(),
                &[
                    (a.clone(), vec![qa]),
                    (b.clone(), vec![qb]),
                    (t.clone(), vec![qt]),
                ],
            );
            let out = run_shot(&circ, &initial, &mut rng);

            // Expected on (qa, qb, qt) = global qubits (0, 1, 2).
            let mut want = StateVector::product_state(
                3,
                &[
                    (a.clone(), vec![0]),
                    (b.clone(), vec![1]),
                    (t.clone(), vec![2]),
                ],
            );
            want.apply_gate(&Gate::Ccx {
                control_a: 0,
                control_b: 1,
                target: 2,
            });
            let fid = reduced_fidelity(&out.state, 3, &want);
            assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
        }
    }

    #[test]
    fn cat_copy_roundtrip_preserves_source() {
        let mut rng = StdRng::seed_from_u64(7);
        let amps = qsim::qrand::random_pure_state(1, &mut rng);
        let mut m = DistributedMachine::new(2, 1, Topology::Line);
        let src = m.data_qubit(0, 0);
        let copy = m.cat_copy(src, 1);
        m.cat_uncopy(copy, src);
        let circ = m.circuit().clone();
        let initial = StateVector::product_state(circ.num_qubits(), &[(amps.clone(), vec![src])]);
        let out = run_shot(&circ, &initial, &mut rng);
        let want = StateVector::product_state(1, &[(amps, vec![0])]);
        let fid = reduced_fidelity(&out.state, 1, &want);
        assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
    }

    #[test]
    fn bell_error_inserts_noise_sites() {
        let mut m = DistributedMachine::new(2, 1, Topology::Line).with_bell_error(0.01);
        m.create_bell(0, 1);
        let noisy_sites = m
            .circuit()
            .instructions()
            .iter()
            .filter(|i| matches!(i, Instruction::Depolarizing { .. }))
            .count();
        assert_eq!(noisy_sites, 1);
    }

    #[test]
    fn heterogeneous_link_noise_applies_per_link() {
        let mut m = DistributedMachine::new(3, 1, Topology::Line).with_bell_error(0.01);
        m.set_link_error(1, 2, 0.2);
        assert_eq!(m.link_error(0, 1), 0.01);
        assert_eq!(m.link_error(2, 1), 0.2); // undirected
                                             // A pair spanning both links picks up one site per link at the
                                             // link's own strength.
        m.create_bell(0, 2);
        let strengths: Vec<f64> = m
            .circuit()
            .instructions()
            .iter()
            .filter_map(|i| match i {
                Instruction::Depolarizing { p, .. } => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(strengths.len(), 2);
        assert!((strengths[0] - 0.75 * 0.01).abs() < 1e-12);
        assert!((strengths[1] - 0.75 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn remote_ops_consume_expected_bell_pairs() {
        let mut m = DistributedMachine::new(2, 2, Topology::Line);
        m.remote_cx(m.data_qubit(0, 0), m.data_qubit(1, 0));
        m.remote_ccx(m.data_qubit(0, 0), m.data_qubit(0, 1), m.data_qubit(1, 0));
        assert_eq!(m.ledger().bell_pairs(), 2);
    }
}
