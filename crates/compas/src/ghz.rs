//! GHZ control-state preparation (paper §3.2, Fig 4).
//!
//! The multi-party SWAP test drives its CSWAPs from a `⌈k/2⌉`-qubit GHZ
//! state with one qubit per controlling QPU. A CNOT chain costs depth
//! `r−1`; the distributed constant-depth construction instead fuses
//! pre-shared Bell pairs: every QPU locally entangles its GHZ qubit with
//! the Bell half it shares with its right-hand neighbour, measures the
//! half, and the neighbours apply cumulative Pauli-frame X corrections.
//! Depth stays constant in `r` while consuming one Bell pair per adjacent
//! QPU pair — the "2 Bell pairs per QPU" of Table 1 row (a).

use circuit::circuit::Circuit;
use circuit::gate::Qubit;
use network::machine::DistributedMachine;
use network::topology::NodeId;

/// Appends a CNOT-chain GHZ preparation on `qubits` (monolithic
/// reference; depth grows linearly with the party count).
pub fn monolithic_ghz(circ: &mut Circuit, qubits: &[Qubit]) {
    let Some((&first, rest)) = qubits.split_first() else {
        return;
    };
    circ.h(first);
    let mut prev = first;
    for &q in rest {
        circ.cx(prev, q);
        prev = q;
    }
}

/// Prepares a GHZ state across `parties`, one designated data qubit per
/// node, in depth independent of the party count.
///
/// `parties[i]` is `(node, qubit)`; the qubit must be a `|0⟩` data qubit
/// on that node. Consumes one Bell pair per adjacent party pair (plus
/// swapping cost if parties are not adjacent on the machine's topology).
///
/// # Panics
///
/// Panics if a qubit does not live on its declared node.
pub fn distributed_ghz(machine: &mut DistributedMachine, parties: &[(NodeId, Qubit)]) {
    let Some((&(first_node, first_qubit), rest)) = parties.split_first() else {
        return;
    };
    assert_eq!(
        machine.node_of(first_qubit),
        first_node,
        "GHZ qubit {first_qubit} is not on node {first_node}"
    );
    for &(node, qubit) in rest {
        assert_eq!(
            machine.node_of(qubit),
            node,
            "GHZ qubit {qubit} is not on node {node}"
        );
    }

    // Every party starts in |0⟩; the head becomes |+⟩ and each fusion
    // extends the cat one party to the right.
    machine.local_gate(circuit::gate::Gate::H(first_qubit));

    // All Bell pairs are allocated up front: recycling a communication
    // qubit mid-loop would serialise the preparations and break the
    // constant-depth property.
    let mut pairs = Vec::with_capacity(rest.len());
    let mut prev_node = first_node;
    for &(node, _) in rest {
        pairs.push(machine.create_bell(prev_node, node));
        prev_node = node;
    }

    // Parallel fusion layer: each left party CNOTs its GHZ qubit into its
    // Bell half and measures it; each right party moves its half into the
    // designated data qubit.
    let mut fusion_cbits = Vec::with_capacity(rest.len());
    let mut prev_qubit = first_qubit;
    for (&(_, qubit), &(ebit_left, ebit_right)) in rest.iter().zip(&pairs) {
        let c = machine.alloc_cbits(1);
        machine.circuit_mut().cx(prev_qubit, ebit_left);
        machine.circuit_mut().measure(ebit_left, c);
        machine.circuit_mut().swap(ebit_right, qubit);
        fusion_cbits.push(c);
        prev_qubit = qubit;
    }

    // Cumulative X corrections: party j flips iff m_1 ⊕ … ⊕ m_j = 1. A
    // parity-conditioned Pauli is one feed-forward step regardless of j.
    for (j, &(_, qubit)) in rest.iter().enumerate() {
        machine.circuit_mut().cond_x(qubit, &fusion_cbits[..=j]);
    }

    // Recycle the communication qubits only after the whole layer.
    for &(ebit_left, ebit_right) in &pairs {
        machine.free_comm(ebit_left);
        machine.free_comm(ebit_right);
    }
}

/// The ideal GHZ statevector `(|0…0⟩ + |1…1⟩)/√2` on `r` qubits.
pub fn ghz_statevector(r: usize) -> qsim::statevector::StateVector {
    use mathkit::complex::{c64, Complex};
    let dim = 1usize << r;
    let mut amps = vec![Complex::ZERO; dim];
    let a = c64(std::f64::consts::FRAC_1_SQRT_2, 0.0);
    amps[0] = a;
    amps[dim - 1] = a;
    qsim::statevector::StateVector::from_amplitudes(amps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::matrix::TraceKeep;
    use network::topology::Topology;
    use qsim::runner::{run_shot, run_unitary};
    use qsim::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn monolithic_ghz_matches_ideal() {
        for r in 2..=5 {
            let mut c = Circuit::new(r, 0);
            monolithic_ghz(&mut c, &(0..r).collect::<Vec<_>>());
            let out = run_unitary(&c, &StateVector::new(r));
            assert!((out.fidelity(&ghz_statevector(r)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn distributed_ghz_matches_ideal_fidelity_one_per_shot() {
        let mut rng = StdRng::seed_from_u64(21);
        for r in 2..=5 {
            let mut m = DistributedMachine::new(r, 1, Topology::Line);
            let parties: Vec<(usize, usize)> = (0..r).map(|i| (i, m.data_qubit(i, 0))).collect();
            distributed_ghz(&mut m, &parties);
            let circ = m.circuit().clone();
            let ghz = ghz_statevector(r);
            for _ in 0..8 {
                let out = run_shot(&circ, &StateVector::new(circ.num_qubits()), &mut rng);
                // Data qubits are the first r of the register by layout.
                let rho = out.state.to_density();
                let reduced = rho.partial_trace(1 << r, 1 << (circ.num_qubits() - r), TraceKeep::A);
                let fid: f64 = reduced
                    .mul_vec(&ghz.amplitudes())
                    .iter()
                    .zip(&ghz.amplitudes())
                    .map(|(a, b)| (b.conj() * *a).re)
                    .sum();
                assert!((fid - 1.0).abs() < 1e-9, "r={r}: fidelity {fid}");
            }
        }
    }

    #[test]
    fn distributed_ghz_consumes_r_minus_1_bell_pairs() {
        let r = 5;
        let mut m = DistributedMachine::new(r, 1, Topology::Line);
        let parties: Vec<(usize, usize)> = (0..r).map(|i| (i, m.data_qubit(i, 0))).collect();
        distributed_ghz(&mut m, &parties);
        assert_eq!(m.ledger().bell_pairs(), r - 1);
        // On a line with adjacent parties no swapping is needed.
        assert_eq!(m.ledger().raw_bell_pairs(), r - 1);
        // Each interior QPU touches two Bell pairs (Table 1 row a).
        assert_eq!(m.ledger().bell_pairs_at(1), 2);
    }

    #[test]
    fn distributed_ghz_depth_is_constant_in_r() {
        let depth_of = |r: usize| {
            let mut m = DistributedMachine::new(r, 1, Topology::Line);
            let parties: Vec<(usize, usize)> = (0..r).map(|i| (i, m.data_qubit(i, 0))).collect();
            distributed_ghz(&mut m, &parties);
            m.circuit().depth()
        };
        assert_eq!(depth_of(4), depth_of(8));
        assert_eq!(depth_of(8), depth_of(16));
        // The monolithic chain grows linearly.
        let chain_depth = |r: usize| {
            let mut c = Circuit::new(r, 0);
            monolithic_ghz(&mut c, &(0..r).collect::<Vec<_>>());
            c.depth()
        };
        assert_eq!(chain_depth(16), 16);
    }

    #[test]
    fn ghz_statevector_has_two_amplitudes() {
        let s = ghz_statevector(3);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(7) - 0.5).abs() < 1e-12);
        assert!(s.probability(3) < 1e-15);
    }
}
