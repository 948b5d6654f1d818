//! Constant-depth Fanout via cat states and measurement (paper §3.5, Fig 8).
//!
//! A Fanout gate copies the computational-basis value of one control qubit
//! onto `m` targets: `|x, y_1…y_m⟩ → |x, y_1⊕x, …, y_m⊕x⟩`. A naive CNOT
//! cascade costs depth `m`; the measurement-based gadget here costs depth
//! independent of `m`, using one reusable `|0⟩` ancilla per target, exactly
//! the resource shape claimed in the paper (Fig 8: "one ancilla qubit per
//! target qubit, and the ancilla qubits are reused across multiple Fanout
//! gates").
//!
//! The gadget:
//!
//! 1. builds an `m`-qubit cat state on the ancillas in constant depth
//!    (parallel Bell pairs fused by single-qubit parity measurements with
//!    Pauli-frame corrections),
//! 2. fuses the control into the cat with one CNOT and a Z measurement,
//!    leaving every remaining ancilla carrying `x ⊕ s` for a known bit `s`,
//! 3. fans out locally with one parallel CNOT layer plus conditional X
//!    corrections, and
//! 4. releases the ancillas with X-basis measurements and one conditional
//!    Z on the control.
//!
//! All ancillas end reset to `|0⟩`, ready for the next Fanout — the
//! shared-ancilla reuse of §3.6.

use circuit::circuit::{Cbit, Circuit};
use circuit::gate::Qubit;

/// Resource summary of one appended Fanout gadget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FanoutCost {
    /// Ancillas used (equals the number of targets for `m ≥ 2`).
    pub ancillas: usize,
    /// Classical bits consumed.
    pub cbits: usize,
    /// Mid-circuit measurements performed.
    pub measurements: usize,
}

/// Appends the naive CNOT-cascade fanout (depth `m`) for reference.
pub fn fanout_cascade(circ: &mut Circuit, control: Qubit, targets: &[Qubit]) {
    for &t in targets {
        circ.cx(control, t);
    }
}

/// Appends the constant-depth Fanout gadget.
///
/// `ancillas` must hold at least `targets.len()` qubits currently in
/// `|0⟩`; they are returned to `|0⟩` by the gadget (via reset after their
/// final measurement) so the same pool can serve every Fanout in a
/// circuit. Classical bits are taken from `circ` by growing its register.
///
/// For `m = 1` the gadget degenerates to a single CNOT and touches no
/// ancillas.
///
/// # Panics
///
/// Panics if fewer ancillas than targets are supplied, or if any qubit is
/// duplicated between control, targets, and ancillas.
pub fn fanout_gadget(
    circ: &mut Circuit,
    control: Qubit,
    targets: &[Qubit],
    ancillas: &[Qubit],
) -> FanoutCost {
    let m = targets.len();
    if m == 0 {
        return FanoutCost {
            ancillas: 0,
            cbits: 0,
            measurements: 0,
        };
    }
    if m == 1 {
        circ.cx(control, targets[0]);
        return FanoutCost {
            ancillas: 0,
            cbits: 0,
            measurements: 0,
        };
    }
    assert!(
        ancillas.len() >= m,
        "fanout over {m} targets needs {m} ancillas, got {}",
        ancillas.len()
    );
    let anc = &ancillas[..m];
    {
        let mut seen = std::collections::HashSet::new();
        for &q in std::iter::once(&control).chain(targets).chain(anc) {
            assert!(seen.insert(q), "qubit {q} used twice in fanout");
        }
    }

    let mut measurements = 0;

    // ------------------------------------------------------------------
    // Phase 1: cat state |0…0⟩ + |1…1⟩ on the ancillas, constant depth.
    // ------------------------------------------------------------------
    // Bell pairs on (anc[0], anc[1]), (anc[2], anc[3]), …; a lone trailing
    // ancilla is appended to the cat by one extra CNOT at the end.
    let even = m - (m % 2);
    let blocks = even / 2;
    for p in 0..blocks {
        circ.h(anc[2 * p]);
        circ.cx(anc[2 * p], anc[2 * p + 1]);
    }
    // Fuse adjacent blocks: junction p measures the parity between block p
    // and block p+1 by a CNOT into the first qubit of block p+1.
    let junction_base = circ.add_cbits(blocks.saturating_sub(1));
    for p in 0..blocks.saturating_sub(1) {
        circ.cx(anc[2 * p + 1], anc[2 * p + 2]);
        circ.measure(anc[2 * p + 2], junction_base + p);
        measurements += 1;
    }
    // Block p+1's surviving member picks up X conditioned on the
    // cumulative junction parity; the measured qubit is returned to |0⟩
    // and re-extended into the cat.
    for p in 0..blocks.saturating_sub(1) {
        let cumulative: Vec<Cbit> = (0..=p).map(|j| junction_base + j).collect();
        circ.cond_x(anc[2 * p + 3], &cumulative);
        circ.cond_x(anc[2 * p + 2], &[junction_base + p]);
        circ.cx(anc[2 * p + 3], anc[2 * p + 2]);
    }
    // Odd tail: extend the cat by one.
    if m % 2 == 1 {
        circ.cx(anc[m - 2], anc[m - 1]);
    }

    // ------------------------------------------------------------------
    // Phase 2: fuse the control, fan out, release.
    // ------------------------------------------------------------------
    let c_fuse = circ.add_cbits(1);
    circ.cx(control, anc[0]);
    circ.measure(anc[0], c_fuse);
    measurements += 1;

    // anc[1..m] each hold |x ⊕ s⟩; the first target is served by the
    // control directly.
    circ.cx(control, targets[0]);
    for i in 1..m {
        circ.cx(anc[i], targets[i]);
        circ.cond_x(targets[i], &[c_fuse]);
    }

    // Release: X-basis measurements put a Z back-action on the control.
    let release_base = circ.add_cbits(m - 1);
    for (i, &a) in anc.iter().enumerate().skip(1) {
        circ.measure_x(a, release_base + i - 1);
        measurements += 1;
    }
    let release: Vec<Cbit> = (0..m - 1).map(|i| release_base + i).collect();
    circ.cond_z(control, &release);

    // Reset every ancilla for reuse (§3.6).
    for &a in anc {
        circ.reset(a);
    }

    FanoutCost {
        ancillas: m,
        cbits: blocks.saturating_sub(1) + 1 + (m - 1),
        measurements,
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

    /// Builds a register [control, t_1..t_m, a_1..a_m], runs the gadget on
    /// a random product input, and checks the reduced state on
    /// control+targets equals the CNOT-cascade reference, shot by shot.
    fn check_fanout(m: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_data = 1 + m;
        let total = n_data + m;
        let targets: Vec<usize> = (1..=m).collect();
        let ancillas: Vec<usize> = (n_data..total).collect();

        let mut gadget = Circuit::new(total, 0);
        let cost = fanout_gadget(&mut gadget, 0, &targets, &ancillas);
        if m >= 2 {
            assert_eq!(cost.ancillas, m);
        }

        for trial in 0..6 {
            // Random product input on the data qubits.
            let groups: Vec<(Vec<mathkit::complex::Complex>, Vec<usize>)> = (0..n_data)
                .map(|q| (qsim::qrand::random_pure_state(1, &mut rng), vec![q]))
                .collect();
            let initial = StateVector::product_state(total, &groups);
            let out = run_shot(&gadget, &initial, &mut rng);

            let mut want = StateVector::product_state(
                n_data,
                &groups
                    .iter()
                    .map(|(a, qs)| (a.clone(), qs.clone()))
                    .collect::<Vec<_>>(),
            );
            let ref_targets: Vec<usize> = (1..=m).collect();
            let mut reference = Circuit::new(n_data, 0);
            fanout_cascade(&mut reference, 0, &ref_targets);
            want = qsim::runner::run_unitary(&reference, &want);

            let rho = out.state.to_density();
            let reduced = rho.partial_trace(1 << n_data, 1 << m, TraceKeep::A);
            let fid: f64 = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(a, b)| (b.conj() * *a).re)
                .sum();
            assert!(
                (fid - 1.0).abs() < 1e-9,
                "m={m} trial={trial}: fidelity {fid}"
            );
        }
    }

    #[test]
    fn fanout_matches_cascade_m1() {
        check_fanout(1, 1);
    }

    #[test]
    fn fanout_matches_cascade_m2() {
        check_fanout(2, 2);
    }

    #[test]
    fn fanout_matches_cascade_m3() {
        check_fanout(3, 3);
    }

    #[test]
    fn fanout_matches_cascade_m4() {
        check_fanout(4, 4);
    }

    #[test]
    fn fanout_matches_cascade_m5() {
        check_fanout(5, 5);
    }

    #[test]
    fn depth_is_constant_in_m() {
        // The defining property (§3.5): gadget depth does not grow with m.
        let depth_of = |m: usize| {
            let total = 1 + 2 * m;
            let targets: Vec<usize> = (1..=m).collect();
            let ancillas: Vec<usize> = (1 + m..total).collect();
            let mut c = Circuit::new(total, 0);
            fanout_gadget(&mut c, 0, &targets, &ancillas);
            c.depth()
        };
        let d4 = depth_of(4);
        let d16 = depth_of(16);
        let d64 = depth_of(64);
        assert_eq!(d4, d16, "depth must not grow: {d4} vs {d16}");
        assert_eq!(d16, d64, "depth must not grow: {d16} vs {d64}");
        // The cascade, by contrast, is linear.
        let mut cascade = Circuit::new(65, 0);
        fanout_cascade(&mut cascade, 0, &(1..=64).collect::<Vec<_>>());
        assert_eq!(cascade.depth(), 64);
    }

    #[test]
    fn ancillas_end_in_zero() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = 4;
        let total = 1 + 2 * m;
        let targets: Vec<usize> = (1..=m).collect();
        let ancillas: Vec<usize> = (1 + m..total).collect();
        let mut c = Circuit::new(total, 0);
        fanout_gadget(&mut c, 0, &targets, &ancillas);
        // Put the control in |1⟩ so the gadget genuinely acts.
        let initial = StateVector::basis_state(total, 1 << (total - 1));
        let out = run_shot(&c, &initial, &mut rng);
        for &a in &ancillas {
            assert!(
                out.state.probability_of_one(a) < 1e-12,
                "ancilla {a} not reset"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn too_few_ancillas_panics() {
        let mut c = Circuit::new(6, 0);
        fanout_gadget(&mut c, 0, &[1, 2, 3], &[4, 5]);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn duplicate_qubit_panics() {
        let mut c = Circuit::new(6, 0);
        fanout_gadget(&mut c, 0, &[1, 2], &[2, 3]);
    }
}
