//! Two-party controlled-SWAP in constant depth (paper §3.3–§3.4, Fig 6).
//!
//! The CSWAP swaps two `n`-qubit states `ρ_i` (Alice, who also holds the
//! control `|φ⟩`) and `ρ_j` (Bob), conditioned on `|φ⟩`. Qubit-wise it
//! decomposes into `CX(ρ_j^l → ρ_i^l)`, a shared-control Toffoli
//! `CCX(φ, ρ_i^l → ρ_j^l)`, and the CX again (§3.3). Two distributed
//! realisations are provided:
//!
//! * **telegate** ([`telegate_cswap`]) — the CXs become remote CNOTs
//!   (2n Bell pairs) and each Toffoli becomes a teleported Toffoli: `ρ_j^l`
//!   is H-conjugated and cat-copied to Alice (n Bell pairs), where all `n`
//!   shared-control Toffolis run in parallel via Fanout (Fig 6b/6d).
//! * **teledata** ([`teledata_cswap`]) — Bob's state is teleported to
//!   Alice's ancillas (n Bell pairs), the CSWAP runs locally, and the
//!   state is teleported back (n Bell pairs) (Fig 6c).
//!
//! Both keep depth independent of `n` and of the batch, matching Table 3.

use circuit::circuit::Circuit;
use circuit::gate::{Gate, Qubit};
use network::machine::DistributedMachine;

use crate::toffoli::parallel_toffoli_shared_control;

/// Which two-party CSWAP realisation to compile (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CswapScheme {
    /// Gate teleportation for every non-local gate (§3.3).
    Telegate,
    /// State teleportation round trip (§3.4) — the paper's recommendation.
    #[default]
    Teledata,
}

impl std::fmt::Display for CswapScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CswapScheme::Telegate => write!(f, "telegate"),
            CswapScheme::Teledata => write!(f, "teledata"),
        }
    }
}

/// Appends a *local* `n`-qubit CSWAP block: control `control`, states
/// `rho_i`/`rho_j` qubit lists of equal length, with the shared-control
/// Toffoli layer parallelised through `ancillas` (≥ n of them, `|0⟩`,
/// returned to `|0⟩`).
///
/// # Panics
///
/// Panics if the state lists differ in length.
pub fn local_cswap_block(
    circ: &mut Circuit,
    control: Qubit,
    rho_i: &[Qubit],
    rho_j: &[Qubit],
    ancillas: &[Qubit],
) {
    assert_eq!(rho_i.len(), rho_j.len(), "states must have equal width");
    for (&ql, &qr) in rho_j.iter().zip(rho_i) {
        circ.cx(ql, qr);
    }
    let pairs: Vec<(Qubit, Qubit)> = rho_i.iter().copied().zip(rho_j.iter().copied()).collect();
    parallel_toffoli_shared_control(circ, control, &pairs, ancillas);
    for (&ql, &qr) in rho_j.iter().zip(rho_i) {
        circ.cx(ql, qr);
    }
}

/// Appends a two-party CSWAP via the **telegate** design (§3.3, Fig 6b).
///
/// `control` and `rho_i` live on one node, `rho_j` on another. Consumes
/// `3n` Bell pairs (2n remote CNOTs + n teleported Toffolis).
///
/// # Panics
///
/// Panics if qubits do not respect the two-node layout.
pub fn telegate_cswap(
    machine: &mut DistributedMachine,
    control: Qubit,
    rho_i: &[Qubit],
    rho_j: &[Qubit],
) {
    assert_eq!(rho_i.len(), rho_j.len(), "states must have equal width");
    let n = rho_i.len();
    let alice = machine.node_of(control);
    for &q in rho_i {
        assert_eq!(machine.node_of(q), alice, "rho_i must be with the control");
    }
    let bob = machine.node_of(rho_j[0]);
    assert_ne!(alice, bob, "two-party CSWAP needs two nodes");
    for &q in rho_j {
        assert_eq!(machine.node_of(q), bob, "rho_j must be on one node");
    }

    // Step 1: remote CX(ρ_j^l → ρ_i^l) in parallel (n Bell pairs).
    let cx_ops: Vec<(Qubit, Qubit)> = rho_j.iter().copied().zip(rho_i.iter().copied()).collect();
    machine.remote_cx_batch(&cx_ops);

    // Step 2: teleported Toffolis. CCX(φ, ρ_i^l → ρ_j^l) is H(ρ_j^l)-
    // conjugated into a CCZ, whose symmetric third leg is cat-copied to
    // Alice; all n local Toffolis then share the control φ.
    for &q in rho_j {
        machine.local_gate(Gate::H(q));
    }
    let copy_srcs: Vec<(Qubit, usize)> = rho_j.iter().map(|&q| (q, alice)).collect();
    let copies = machine.cat_copy_batch(&copy_srcs);
    machine
        .ledger_mut()
        .record_teleop_times(network::ledger::TeleopKind::TelegateToffoli, n);
    for &c in &copies {
        machine.local_gate(Gate::H(c));
    }
    let ancillas: Vec<Qubit> = (0..n).map(|_| machine.alloc_comm(alice)).collect();
    let pairs: Vec<(Qubit, Qubit)> = rho_i.iter().copied().zip(copies.iter().copied()).collect();
    parallel_toffoli_shared_control(machine.circuit_mut(), control, &pairs, &ancillas);
    for &c in &copies {
        machine.local_gate(Gate::H(c));
    }
    for (&copy, &q) in copies.iter().zip(rho_j) {
        machine.cat_uncopy(copy, q);
    }
    for &q in rho_j {
        machine.local_gate(Gate::H(q));
    }
    for a in ancillas {
        machine.free_comm(a);
    }

    // Step 3: remote CXs again.
    machine.remote_cx_batch(&cx_ops);
}

/// Appends a two-party CSWAP via the **teledata** design (§3.4, Fig 6c).
///
/// `control` and `rho_i` live on one node, `rho_j` on another. Bob's
/// state rides to Alice and back: `2n` Bell pairs, `2n` reusable
/// ancillas — the paper's recommended scheme (Table 3, bold row).
///
/// # Panics
///
/// Panics if qubits do not respect the two-node layout.
pub fn teledata_cswap(
    machine: &mut DistributedMachine,
    control: Qubit,
    rho_i: &[Qubit],
    rho_j: &[Qubit],
) {
    assert_eq!(rho_i.len(), rho_j.len(), "states must have equal width");
    let n = rho_i.len();
    let alice = machine.node_of(control);
    for &q in rho_i {
        assert_eq!(machine.node_of(q), alice, "rho_i must be with the control");
    }
    let bob = machine.node_of(rho_j[0]);
    assert_ne!(alice, bob, "two-party CSWAP needs two nodes");

    // Step 1–2: teleport ρ_j to Alice; Bob's qubits end reset.
    let moves: Vec<(Qubit, usize)> = rho_j.iter().map(|&q| (q, alice)).collect();
    let visitors = machine.teleport_batch(&moves);

    // Step 3: local CSWAP with the Fanout-parallel Toffoli layer.
    let ancillas: Vec<Qubit> = (0..n).map(|_| machine.alloc_comm(alice)).collect();
    local_cswap_block(machine.circuit_mut(), control, rho_i, &visitors, &ancillas);
    for a in ancillas {
        machine.free_comm(a);
    }

    // Step 4: teleport the (possibly swapped) state back into ρ_j.
    let back: Vec<(Qubit, usize)> = visitors.iter().map(|&q| (q, bob)).collect();
    let returned = machine.teleport_batch(&back);
    for (&holder, &home) in returned.iter().zip(rho_j) {
        machine.circuit_mut().swap(holder, home);
        machine.free_comm(holder);
    }
    for v in visitors {
        machine.free_comm(v);
    }
}

/// Appends a two-party CSWAP using the chosen scheme.
pub fn two_party_cswap(
    machine: &mut DistributedMachine,
    scheme: CswapScheme,
    control: Qubit,
    rho_i: &[Qubit],
    rho_j: &[Qubit],
) {
    match scheme {
        CswapScheme::Telegate => telegate_cswap(machine, control, rho_i, rho_j),
        CswapScheme::Teledata => teledata_cswap(machine, control, rho_i, rho_j),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mathkit::matrix::TraceKeep;
    use network::topology::Topology;
    use qsim::runner::run_shot;
    use qsim::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs a distributed CSWAP on random product inputs and compares the
    /// reduced state on (control, ρ_i, ρ_j) with the ideal CSWAP output.
    fn check_scheme(scheme: CswapScheme, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Node 0: control + ρ_i (n+1 data qubits); node 1: ρ_j (padded
        // register, first n used).
        let mut m = DistributedMachine::new(2, n + 1, Topology::Line);
        let control = m.data_qubit(0, 0);
        let rho_i: Vec<usize> = (0..n).map(|l| m.data_qubit(0, 1 + l)).collect();
        let rho_j: Vec<usize> = (0..n).map(|l| m.data_qubit(1, l)).collect();
        two_party_cswap(&mut m, scheme, control, &rho_i, &rho_j);
        let circ = m.circuit().clone();

        let data: Vec<usize> = std::iter::once(control)
            .chain(rho_i.iter().copied())
            .chain(rho_j.iter().copied())
            .collect();
        for trial in 0..3 {
            let groups: Vec<(Vec<mathkit::complex::Complex>, Vec<usize>)> = data
                .iter()
                .map(|&q| (qsim::qrand::random_pure_state(1, &mut rng), vec![q]))
                .collect();
            let initial = StateVector::product_state(circ.num_qubits(), &groups);
            let out = run_shot(&circ, &initial, &mut rng);

            // Ideal reference on a compact (2n+1)-qubit register laid out
            // as [control, ρ_i, ρ_j].
            let compact: Vec<(Vec<mathkit::complex::Complex>, Vec<usize>)> = groups
                .iter()
                .enumerate()
                .map(|(idx, (amps, _))| (amps.clone(), vec![idx]))
                .collect();
            let mut want = StateVector::product_state(2 * n + 1, &compact);
            for l in 0..n {
                want.apply_gate(&Gate::Cswap {
                    control: 0,
                    swap_a: 1 + l,
                    swap_b: 1 + n + l,
                });
            }

            // The data qubits sit in two contiguous blocks of the global
            // register: node 0's block [0, n+1) and node 1's block
            // [n+1, 2n+2) whose first n qubits are ρ_j. Trace out the
            // spectator qubits.
            let rho = out.state.to_density();
            let total = circ.num_qubits();
            // Keep block A = qubits [0, 2n+1) (control, ρ_i, ρ_j are the
            // first n+1 plus the next n qubits of node 1's block).
            let keep = 2 * n + 1;
            let reduced = rho.partial_trace(1 << keep, 1 << (total - keep), TraceKeep::A);
            let fid: f64 = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(a, b)| (b.conj() * *a).re)
                .sum();
            assert!(
                (fid - 1.0).abs() < 1e-9,
                "{scheme} n={n} trial={trial}: fidelity {fid}"
            );
        }
    }

    #[test]
    fn local_cswap_block_matches_gate() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in 1..=2 {
            let total = 1 + 3 * n;
            let rho_i: Vec<usize> = (1..=n).collect();
            let rho_j: Vec<usize> = (n + 1..=2 * n).collect();
            let anc: Vec<usize> = (2 * n + 1..total).collect();
            let mut c = Circuit::new(total, 0);
            local_cswap_block(&mut c, 0, &rho_i, &rho_j, &anc);

            for _ in 0..3 {
                let groups: Vec<(Vec<mathkit::complex::Complex>, Vec<usize>)> = (0..=2 * n)
                    .map(|q| (qsim::qrand::random_pure_state(1, &mut rng), vec![q]))
                    .collect();
                let initial = StateVector::product_state(total, &groups);
                let out = run_shot(&c, &initial, &mut rng);

                let mut want = StateVector::product_state(2 * n + 1, &groups);
                for l in 0..n {
                    want.apply_gate(&Gate::Cswap {
                        control: 0,
                        swap_a: 1 + l,
                        swap_b: 1 + n + l,
                    });
                }
                let rho = out.state.to_density();
                let reduced =
                    rho.partial_trace(1 << (2 * n + 1), 1 << (total - 2 * n - 1), TraceKeep::A);
                let fid: f64 = reduced
                    .mul_vec(&want.amplitudes())
                    .iter()
                    .zip(&want.amplitudes())
                    .map(|(a, b)| (b.conj() * *a).re)
                    .sum();
                assert!((fid - 1.0).abs() < 1e-9, "n={n}: fidelity {fid}");
            }
        }
    }

    #[test]
    fn teledata_cswap_matches_ideal_n1() {
        check_scheme(CswapScheme::Teledata, 1, 31);
    }

    #[test]
    fn teledata_cswap_matches_ideal_n2() {
        check_scheme(CswapScheme::Teledata, 2, 32);
    }

    #[test]
    fn telegate_cswap_matches_ideal_n1() {
        check_scheme(CswapScheme::Telegate, 1, 33);
    }

    #[test]
    fn telegate_cswap_matches_ideal_n2() {
        check_scheme(CswapScheme::Telegate, 2, 34);
    }

    #[test]
    fn bell_pair_budgets_match_the_paper() {
        // Telegate: 3n per CSWAP; teledata: 2n per CSWAP (Tables 1–2,
        // per-round rows b1/b2).
        for n in [1usize, 2, 3] {
            let mut m = DistributedMachine::new(2, n + 1, Topology::Line);
            let control = m.data_qubit(0, 0);
            let rho_i: Vec<usize> = (0..n).map(|l| m.data_qubit(0, 1 + l)).collect();
            let rho_j: Vec<usize> = (0..n).map(|l| m.data_qubit(1, l)).collect();
            telegate_cswap(&mut m, control, &rho_i, &rho_j);
            assert_eq!(m.ledger().bell_pairs(), 3 * n, "telegate n={n}");

            let mut m = DistributedMachine::new(2, n + 1, Topology::Line);
            let control = m.data_qubit(0, 0);
            let rho_i: Vec<usize> = (0..n).map(|l| m.data_qubit(0, 1 + l)).collect();
            let rho_j: Vec<usize> = (0..n).map(|l| m.data_qubit(1, l)).collect();
            teledata_cswap(&mut m, control, &rho_i, &rho_j);
            assert_eq!(m.ledger().bell_pairs(), 2 * n, "teledata n={n}");
        }
    }

    #[test]
    fn cswap_depth_constant_in_n() {
        let depth_of = |scheme: CswapScheme, n: usize| {
            let mut m = DistributedMachine::new(2, n + 1, Topology::Line);
            let control = m.data_qubit(0, 0);
            let rho_i: Vec<usize> = (0..n).map(|l| m.data_qubit(0, 1 + l)).collect();
            let rho_j: Vec<usize> = (0..n).map(|l| m.data_qubit(1, l)).collect();
            two_party_cswap(&mut m, scheme, control, &rho_i, &rho_j);
            m.circuit().depth()
        };
        for scheme in [CswapScheme::Teledata, CswapScheme::Telegate] {
            let d4 = depth_of(scheme, 4);
            let d12 = depth_of(scheme, 12);
            assert_eq!(d4, d12, "{scheme}: depth grew from {d4} to {d12}");
        }
    }
}
