//! Shared-control Toffoli layers in constant depth (paper §3.5, Fig 7).
//!
//! The CSWAP stage of COMPAS needs `n` Toffoli gates that all share one
//! control qubit `|φ⟩` (the GHZ qubit). Executed naively they serialise on
//! the control, costing depth `O(n)`. Following Fig 7, each Toffoli is
//! decomposed into the canonical 7-T phase-polynomial circuit for CCZ, in
//! which the shared control participates *only* through (a) a `T` phase,
//! which merges across all `n` gates into one `Rz(nπ/4)`, and (b) CNOT
//! layers with the control as the control of every CNOT — which are
//! exactly Fanout gates. Replacing those four CNOT layers with the
//! constant-depth Fanout gadget of [`crate::fanout`] yields an `n`-fold
//! shared-control Toffoli layer of constant depth, using one reusable
//! ancilla per Toffoli.

use circuit::circuit::Circuit;
use circuit::gate::Qubit;
use std::f64::consts::FRAC_PI_4;

use crate::fanout::fanout_gadget;

/// Appends the canonical 7-T Toffoli decomposition `CCX(a, b → t)`.
///
/// Exposed for reference and for counting: the parallel layer below uses
/// the same phase polynomial. (Ref. \[2\] schedules the same seven T gates
/// at T-depth 4; our ASAP scheduler reports the achieved depth via
/// [`Circuit::depth`].)
pub fn toffoli_7t(circ: &mut Circuit, a: Qubit, b: Qubit, t: Qubit) {
    circ.h(t);
    ccz_7t(circ, a, b, t);
    circ.h(t);
}

/// Appends the canonical 7-T CCZ phase-polynomial circuit on `(a, b, c)`.
///
/// Phase pattern: `+T` on `a`, `b`, `c`, `a⊕b⊕c`; `−T` on `a⊕b`, `a⊕c`,
/// `b⊕c`.
pub fn ccz_7t(circ: &mut Circuit, a: Qubit, b: Qubit, c: Qubit) {
    circ.t(a).t(b).t(c);
    circ.cx(b, c); // c = b⊕c
    circ.tdg(c);
    circ.cx(a, c); // c = a⊕b⊕c
    circ.t(c);
    circ.cx(b, c); // c = a⊕c
    circ.tdg(c);
    circ.cx(a, c); // c restored
    circ.cx(a, b); // b = a⊕b
    circ.tdg(b);
    circ.cx(a, b); // b restored
}

/// Appends `n = pairs.len()` Toffoli gates `CCX(shared, b_l → t_l)` in
/// depth independent of `n`.
///
/// `pairs` lists `(b_l, t_l)`; `ancillas` must provide at least `n`
/// `|0⟩` qubits, reused across the gadget's four internal Fanouts and
/// returned to `|0⟩` (§3.6).
///
/// # Panics
///
/// Panics if ancillas are insufficient or qubits collide.
pub fn parallel_toffoli_shared_control(
    circ: &mut Circuit,
    shared: Qubit,
    pairs: &[(Qubit, Qubit)],
    ancillas: &[Qubit],
) {
    let n = pairs.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        // No parallelism to recover; the plain decomposition is cheapest.
        toffoli_7t(circ, shared, pairs[0].0, pairs[0].1);
        return;
    }

    let b: Vec<Qubit> = pairs.iter().map(|&(bq, _)| bq).collect();
    let t: Vec<Qubit> = pairs.iter().map(|&(_, tq)| tq).collect();

    // CCX = H(t) · CCZ · H(t), per target.
    for &tq in &t {
        circ.h(tq);
    }

    // CCZ phase polynomial, vectorised over l, with the shared control's
    // CNOT layers as Fanouts:
    //   +T on shared (×n, merged into one Rz), +T on b_l, +T on t_l
    circ.rz(shared, (n as f64) * FRAC_PI_4);
    for (&bq, &tq) in b.iter().zip(&t) {
        circ.t(bq).t(tq);
    }
    //   t_l := b_l ⊕ t_l ; −T
    for (&bq, &tq) in b.iter().zip(&t) {
        circ.cx(bq, tq);
    }
    for &tq in &t {
        circ.tdg(tq);
    }
    //   Fanout: t_l := shared ⊕ b_l ⊕ t_l ; +T
    fanout_gadget(circ, shared, &t, ancillas);
    for &tq in &t {
        circ.t(tq);
    }
    //   t_l := shared ⊕ t_l ; −T
    for (&bq, &tq) in b.iter().zip(&t) {
        circ.cx(bq, tq);
    }
    for &tq in &t {
        circ.tdg(tq);
    }
    //   Fanout: t_l restored
    fanout_gadget(circ, shared, &t, ancillas);
    //   Fanout: b_l := shared ⊕ b_l ; −T ; Fanout back
    fanout_gadget(circ, shared, &b, ancillas);
    for &bq in &b {
        circ.tdg(bq);
    }
    fanout_gadget(circ, shared, &b, ancillas);

    for &tq in &t {
        circ.h(tq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::gate::Gate;
    use mathkit::matrix::{Matrix, TraceKeep};
    use qsim::runner::{run_shot, run_unitary};
    use qsim::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn toffoli_7t_unitary_matches_ccx() {
        // Build the full 8×8 unitary by applying the circuit to each basis
        // state and compare against Gate::Ccx.
        let mut c = Circuit::new(3, 0);
        toffoli_7t(&mut c, 0, 1, 2);
        let mut u = Matrix::zeros(8, 8);
        for col in 0..8 {
            let out = run_unitary(&c, &StateVector::basis_state(3, col));
            for (row, amp) in out.amplitudes().iter().enumerate() {
                u[(row, col)] = *amp;
            }
        }
        let want = Gate::Ccx {
            control_a: 0,
            control_b: 1,
            target: 2,
        }
        .unitary();
        assert!(
            u.max_abs_diff(&want) < 1e-12,
            "difference {}",
            u.max_abs_diff(&want)
        );
    }

    #[test]
    fn ccz_7t_is_symmetric_in_its_qubits() {
        let build = |a, b, c| {
            let mut circ = Circuit::new(3, 0);
            ccz_7t(&mut circ, a, b, c);
            let mut u = Matrix::zeros(8, 8);
            for col in 0..8 {
                let out = run_unitary(&circ, &StateVector::basis_state(3, col));
                for (row, amp) in out.amplitudes().iter().enumerate() {
                    u[(row, col)] = *amp;
                }
            }
            u
        };
        let u1 = build(0, 1, 2);
        let u2 = build(2, 0, 1);
        assert!(u1.max_abs_diff(&u2) < 1e-12);
    }

    /// Register: [shared, b_1..b_n, t_1..t_n, ancillas…].
    fn check_parallel(n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_data = 1 + 2 * n;
        let total = n_data + n;
        let pairs: Vec<(usize, usize)> = (0..n).map(|l| (1 + l, 1 + n + l)).collect();
        let ancillas: Vec<usize> = (n_data..total).collect();

        let mut layer = Circuit::new(total, 0);
        parallel_toffoli_shared_control(&mut layer, 0, &pairs, &ancillas);

        for trial in 0..4 {
            let groups: Vec<(Vec<mathkit::complex::Complex>, Vec<usize>)> = (0..n_data)
                .map(|q| (qsim::qrand::random_pure_state(1, &mut rng), vec![q]))
                .collect();
            let initial = StateVector::product_state(total, &groups);
            let out = run_shot(&layer, &initial, &mut rng);

            let mut want = StateVector::product_state(n_data, &groups);
            for &(b, t) in &pairs {
                want.apply_gate(&Gate::Ccx {
                    control_a: 0,
                    control_b: b,
                    target: t,
                });
            }
            let rho = out.state.to_density();
            let reduced = rho.partial_trace(1 << n_data, 1 << n, TraceKeep::A);
            let fid: f64 = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(x, y)| (y.conj() * *x).re)
                .sum();
            assert!(
                (fid - 1.0).abs() < 1e-9,
                "n={n} trial={trial}: fidelity {fid}"
            );
        }
    }

    #[test]
    fn parallel_layer_matches_sequential_n1() {
        check_parallel(1, 11);
    }

    #[test]
    fn parallel_layer_matches_sequential_n2() {
        check_parallel(2, 12);
    }

    #[test]
    fn parallel_layer_matches_sequential_n3() {
        check_parallel(3, 13);
    }

    #[test]
    fn parallel_layer_depth_is_constant() {
        let depth_of = |n: usize| {
            let n_data = 1 + 2 * n;
            let total = n_data + n;
            let pairs: Vec<(usize, usize)> = (0..n).map(|l| (1 + l, 1 + n + l)).collect();
            let ancillas: Vec<usize> = (n_data..total).collect();
            let mut c = Circuit::new(total, 0);
            parallel_toffoli_shared_control(&mut c, 0, &pairs, &ancillas);
            c.depth()
        };
        let d4 = depth_of(4);
        let d16 = depth_of(16);
        assert_eq!(d4, d16, "shared-control layer depth must not grow with n");
        // Odd sizes sit one moment deeper (cat-tail extension), still flat.
        assert_eq!(depth_of(5), depth_of(9));

        // The sequential baseline grows linearly.
        let seq_depth = |n: usize| {
            let mut c = Circuit::new(1 + 2 * n, 0);
            for l in 0..n {
                toffoli_7t(&mut c, 0, 1 + l, 1 + n + l);
            }
            c.depth()
        };
        assert!(seq_depth(16) > seq_depth(4) + 20);
    }
}
