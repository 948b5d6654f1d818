//! Circuit builders for the teleoperation primitives of Fig. 1.
//!
//! These are pure functions that append the standard gate-teleportation
//! sub-circuits to a [`Circuit`] at caller-chosen qubit/classical-bit
//! indices. They make no assumptions about node layout — the
//! [`crate::machine::DistributedMachine`] layers locality, Bell-pair
//! allocation, and resource accounting on top.
//!
//! All builders follow the paper's conventions:
//!
//! * **teledata** (Fig 1a): teleports a state through a Bell pair with two
//!   Z measurements and X/Z corrections;
//! * **telegate** (Fig 1b): a remote CNOT from one Bell pair, decomposed
//!   here as a *cat-copy* of the control, a local CNOT, and a *cat-uncopy*
//!   (the same decomposition extends to the teleported Toffoli of Fig 6d,
//!   where one cat copy serves many shared-control gates).

use circuit::circuit::{Cbit, Circuit};
use circuit::gate::Qubit;

/// Appends Bell-pair preparation `|Φ+⟩ = (|00⟩+|11⟩)/√2` on `(a, b)`.
///
/// Both qubits must currently be `|0⟩`.
pub fn prepare_bell(circ: &mut Circuit, a: Qubit, b: Qubit) {
    circ.h(a).cx(a, b);
}

/// Appends state teleportation of `src` onto `dst` through the Bell pair
/// `(ebit_src, dst)`; `ebit_src` is the Bell half co-located with `src`.
///
/// Consumes the Bell pair; `src` and `ebit_src` end in measured states
/// (the caller may reset and reuse them). Outcomes are recorded in
/// `c_z` (the H-side measurement, driving the Z correction) and `c_x`
/// (the parity measurement, driving the X correction).
pub fn teledata(circ: &mut Circuit, src: Qubit, ebit_src: Qubit, dst: Qubit, c_z: Cbit, c_x: Cbit) {
    circ.cx(src, ebit_src);
    circ.h(src);
    circ.measure(src, c_z);
    circ.measure(ebit_src, c_x);
    circ.cond_x(dst, &[c_x]);
    circ.cond_z(dst, &[c_z]);
}

/// Appends a *cat copy* of `src` onto the Bell half `ebit_dst`, consuming
/// the Bell pair `(ebit_src, ebit_dst)` and recording the fused parity in
/// `c`.
///
/// After this, `ebit_dst` carries the computational-basis information of
/// `src` (they form a two-qubit cat state), so `ebit_dst` can stand in as
/// a *control* for any number of gates on its node. It must later be
/// released with [`cat_uncopy`] to restore `src` exactly.
pub fn cat_copy(circ: &mut Circuit, src: Qubit, ebit_src: Qubit, ebit_dst: Qubit, c: Cbit) {
    circ.cx(src, ebit_src);
    circ.measure(ebit_src, c);
    circ.cond_x(ebit_dst, &[c]);
}

/// Releases a cat copy created by [`cat_copy`]: measures `copy` in the X
/// basis into `c` and applies the conditional Z back-action on `src`.
pub fn cat_uncopy(circ: &mut Circuit, copy: Qubit, src: Qubit, c: Cbit) {
    circ.measure_x(copy, c);
    circ.cond_z(src, &[c]);
}

/// Appends a remote CNOT (telegate, Fig 1b) with `control` on one node and
/// `target` on another, through the Bell pair `(ebit_ctl, ebit_tgt)`.
///
/// `ebit_ctl` is co-located with `control`; `ebit_tgt` with `target`.
/// Uses two classical bits. `ebit_ctl` and `ebit_tgt` end measured.
pub fn telegate_cx(
    circ: &mut Circuit,
    control: Qubit,
    target: Qubit,
    ebit_ctl: Qubit,
    ebit_tgt: Qubit,
    c_copy: Cbit,
    c_release: Cbit,
) {
    cat_copy(circ, control, ebit_ctl, ebit_tgt, c_copy);
    circ.cx(ebit_tgt, target);
    cat_uncopy(circ, ebit_tgt, control, c_release);
}

/// Appends a remote Toffoli (Fig 6d) with controls `control_a`,
/// `control_b` on one node and `target` on another, through one Bell pair.
///
/// Uses the CCZ symmetry: the target side is H-conjugated and cat-copied
/// *to the control node*, where a local Toffoli `CCX(a, b → copy)`
/// (H-conjugated into a CCZ) acts; the copy is then released. Because the
/// local Toffoli sits on the control node, `n` such teleported Toffolis
/// sharing `control_a` leave `n` co-located shared-control Toffolis that
/// the Fanout method (§3.5) parallelises.
#[allow(clippy::too_many_arguments)] // one Bell pair + two cbits is the primitive's natural arity
pub fn telegate_ccx(
    circ: &mut Circuit,
    control_a: Qubit,
    control_b: Qubit,
    target: Qubit,
    ebit_tgt: Qubit,
    ebit_ctl: Qubit,
    c_copy: Cbit,
    c_release: Cbit,
) {
    // CCX(a,b → t) = H(t) · CCZ(a,b,t) · H(t); CCZ is symmetric, so view t
    // as the control that is cat-copied to the (a, b) node.
    circ.h(target);
    cat_copy(circ, target, ebit_tgt, ebit_ctl, c_copy);
    // Local CCZ(a, b, copy) realised as H(copy)·CCX(a,b→copy)·H(copy).
    circ.h(ebit_ctl);
    circ.ccx(control_a, control_b, ebit_ctl);
    circ.h(ebit_ctl);
    cat_uncopy(circ, ebit_ctl, target, c_release);
    circ.h(target);
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::gate::Gate;
    use mathkit::complex::Complex;
    use qsim::runner::run_shot;
    use qsim::statevector::StateVector;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random single-qubit amplitudes.
    fn random_qubit(rng: &mut impl Rng) -> Vec<Complex> {
        let amps = qsim::qrand::random_pure_state(1, rng);
        amps.to_vec()
    }

    #[test]
    fn teledata_moves_arbitrary_state() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..20 {
            let amps = random_qubit(&mut rng);
            // Register: 0 = src, 1 = ebit_src, 2 = dst.
            let mut c = Circuit::new(3, 2);
            prepare_bell(&mut c, 1, 2);
            teledata(&mut c, 0, 1, 2, 0, 1);
            let initial = StateVector::product_state(3, &[(amps.clone(), vec![0])]);
            let out = run_shot(&c, &initial, &mut rng);
            // dst (qubit 2) must hold the original state; qubits 0, 1 are
            // in measured basis states, so the overlap factorises.
            let want = StateVector::product_state(1, &[(amps, vec![0])]);
            let got_density = out.state.to_density();
            let reduced = got_density.partial_trace(4, 2, mathkit::matrix::TraceKeep::B);
            let fid = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(a, b)| (b.conj() * *a).re)
                .sum::<f64>();
            assert!((fid - 1.0).abs() < 1e-10, "trial {trial}: fidelity {fid}");
        }
    }

    #[test]
    fn telegate_cx_equals_local_cx() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let ctl = random_qubit(&mut rng);
            let tgt = random_qubit(&mut rng);
            // Register: 0 = control, 1 = target, 2 = ebit_ctl, 3 = ebit_tgt.
            let mut c = Circuit::new(4, 2);
            prepare_bell(&mut c, 2, 3);
            telegate_cx(&mut c, 0, 1, 2, 3, 0, 1);
            let initial =
                StateVector::product_state(4, &[(ctl.clone(), vec![0]), (tgt.clone(), vec![1])]);
            let out = run_shot(&c, &initial, &mut rng);

            let mut want =
                StateVector::product_state(2, &[(ctl.clone(), vec![0]), (tgt.clone(), vec![1])]);
            want.apply_gate(&Gate::Cx {
                control: 0,
                target: 1,
            });
            let got = out.state.to_density();
            let reduced = got.partial_trace(4, 4, mathkit::matrix::TraceKeep::A);
            let fid = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(a, b)| (b.conj() * *a).re)
                .sum::<f64>();
            assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
        }
    }

    #[test]
    fn telegate_ccx_equals_local_toffoli() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let a = random_qubit(&mut rng);
            let b = random_qubit(&mut rng);
            let t = random_qubit(&mut rng);
            // Register: 0 = control_a, 1 = control_b, 2 = target,
            //           3 = ebit_tgt, 4 = ebit_ctl.
            let mut c = Circuit::new(5, 2);
            prepare_bell(&mut c, 3, 4);
            telegate_ccx(&mut c, 0, 1, 2, 3, 4, 0, 1);
            let initial = StateVector::product_state(
                5,
                &[
                    (a.clone(), vec![0]),
                    (b.clone(), vec![1]),
                    (t.clone(), vec![2]),
                ],
            );
            let out = run_shot(&c, &initial, &mut rng);

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
            let got = out.state.to_density();
            let reduced = got.partial_trace(8, 4, mathkit::matrix::TraceKeep::A);
            let fid = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(x, y)| (y.conj() * *x).re)
                .sum::<f64>();
            assert!((fid - 1.0).abs() < 1e-10, "fidelity {fid}");
        }
    }

    #[test]
    fn cat_copy_tracks_control_value() {
        // For |0⟩ and |1⟩ controls, the cat copy must read the same value.
        let mut rng = StdRng::seed_from_u64(1);
        for bit in [false, true] {
            let mut c = Circuit::new(3, 2);
            if bit {
                c.x(0);
            }
            prepare_bell(&mut c, 1, 2);
            cat_copy(&mut c, 0, 1, 2, 0);
            c.measure(2, 1);
            let out = run_shot(&c, &StateVector::new(3), &mut rng);
            assert_eq!(out.cbits[1], bit);
        }
    }

    #[test]
    fn cat_copy_then_uncopy_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let amps = random_qubit(&mut rng);
            let mut c = Circuit::new(3, 2);
            prepare_bell(&mut c, 1, 2);
            cat_copy(&mut c, 0, 1, 2, 0);
            cat_uncopy(&mut c, 2, 0, 1);
            let initial = StateVector::product_state(3, &[(amps.clone(), vec![0])]);
            let out = run_shot(&c, &initial, &mut rng);
            let want = StateVector::product_state(1, &[(amps, vec![0])]);
            let got = out.state.to_density();
            let reduced = got.partial_trace(2, 4, mathkit::matrix::TraceKeep::A);
            let fid = reduced
                .mul_vec(&want.amplitudes())
                .iter()
                .zip(&want.amplitudes())
                .map(|(x, y)| (y.conj() * *x).re)
                .sum::<f64>();
            assert!((fid - 1.0).abs() < 1e-10);
        }
    }
}
