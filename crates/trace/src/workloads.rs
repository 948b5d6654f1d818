//! The named-workload library: every benchmark circuit the paper's
//! evaluation exercises, registered under a stable name so traces,
//! golden files, CI guards, and humans all refer to the same run.
//!
//! A [`Workload`] fixes the circuit *and* the run identity (backend,
//! shots, root seed), because a trace is only reproducible against all
//! three. Builders are plain functions so the registry is a `const`
//! table — no lazy statics, no registration order.
//!
//! | name | paper artifact | backend |
//! |------|----------------|---------|
//! | `table4` | Table 4: fanout gadget under depolarizing noise | auto → stabilizer |
//! | `fig9a` | Fig 9a: monolithic GHZ with noise | auto → stabilizer |
//! | `fig9b` | Fig 9b: two-state local SWAP test (7-T Toffolis) | statevector |
//! | `fig9c` | Fig 9c: monolithic 3-party fanout SWAP test | statevector |
//! | `appendix_b` | Appendix B: teleportation with Pauli feedback | density |
//! | `qsp` | §5 app: quantum signal-processing phase ladder | statevector |
//! | `cooling` | §5 app: one dissipative cooling round | statevector |
//! | `spectroscopy` | §5 app: Hadamard-test phase spectroscopy | statevector |
//! | `renyi` | §5 app: Rényi-2 entropy via the k=2 SWAP test | statevector |
//! | `ghz12_sv` | `serve-sharded`'s noisy GHZ-12, every qubit measured | statevector |
//! | `zz14_sv` | `lib-wide-sv`'s two-layer ZZ shape at 14 qubits | statevector |

use circuit::circuit::{Circuit, Instruction};
use circuit::noise::NoiseModel;
use compas::cswap::local_cswap_block;
use compas::prelude::{fanout_gadget, monolithic_ghz, MonolithicSwapTest, MonolithicVariant};
use engine::Backend;

/// A named, fully pinned benchmark run: circuit builder plus the run
/// identity (backend, shots, root seed) a golden trace is recorded at.
#[derive(Clone, Copy)]
pub struct Workload {
    /// Registry key — also the stem of the golden trace files.
    pub name: &'static str,
    /// One-line description for `compas-record --list`.
    pub description: &'static str,
    /// Backend the workload is pinned to ([`Backend::Auto`] routes).
    pub backend: Backend,
    /// Shot count of the canonical (golden) run.
    pub shots: u64,
    /// Root seed of the canonical run.
    pub root_seed: u64,
    /// Builds the workload's circuit.
    pub build: fn() -> Circuit,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("backend", &self.backend)
            .field("shots", &self.shots)
            .field("root_seed", &self.root_seed)
            .finish()
    }
}

/// Table 4: the constant-depth fanout gadget spreading one control onto
/// four targets through four ancillas, with depolarizing noise on the
/// targets. Clifford throughout, so `Auto` routes it to the stabilizer
/// tableau — the table's rows are tallies over the gadget's classical
/// corrections.
fn table4() -> Circuit {
    let mut c = Circuit::new(9, 0);
    c.h(0);
    fanout_gadget(&mut c, 0, &[1, 2, 3, 4], &[5, 6, 7, 8]);
    for q in [1, 2, 3, 4] {
        c.push(Instruction::Depolarizing {
            qubits: vec![q],
            p: 0.003,
        });
    }
    let base = c.add_cbits(5);
    c.measure(0, base);
    for (i, q) in [1, 2, 3, 4].into_iter().enumerate() {
        c.measure(q, base + 1 + i);
    }
    c
}

/// Fig 9a: the monolithic GHZ baseline over 8 qubits under
/// depolarizing noise — the curve COMPAS's distributed preparation is
/// compared against.
fn fig9a() -> Circuit {
    let mut c = Circuit::new(8, 8);
    let qubits: Vec<usize> = (0..8).collect();
    monolithic_ghz(&mut c, &qubits);
    for &q in &qubits {
        c.push(Instruction::Depolarizing {
            qubits: vec![q],
            p: 0.005,
        });
    }
    for q in qubits {
        c.measure(q, q);
    }
    c
}

/// Fig 9b: a local two-state SWAP test on one-qubit states with the
/// shared-control Toffoli layer — the 7-T Toffoli decomposition makes
/// it non-Clifford, pinning the statevector backend.
fn fig9b() -> Circuit {
    let mut c = Circuit::new(7, 0);
    let (control, rho_i, rho_j, anc) = (0usize, [1usize, 2], [3usize, 4], [5usize, 6]);
    c.h(control);
    // Distinguishable but overlapping states: ρ_i = |+t⟩⟨+t|⊗|0⟩⟨0|.
    c.x(rho_i[0]);
    c.h(rho_j[0]);
    c.t(rho_j[0]);
    local_cswap_block(&mut c, control, &rho_i, &rho_j, &anc);
    c.h(control);
    let base = c.add_cbits(1);
    c.measure(control, base);
    c
}

/// Fig 9c: the monolithic k=3-party, n=1-qubit SWAP test in the Fanout
/// variant — the paper's own reference construction, circuit taken
/// straight from [`MonolithicSwapTest`].
fn fig9c() -> Circuit {
    MonolithicSwapTest::new(3, 1, MonolithicVariant::Fanout)
        .circuit()
        .clone()
}

/// Appendix B: one-qubit teleportation with mid-circuit measurement
/// and classically conditioned Pauli feedback. Deferred density-matrix
/// execution supports exactly this feedback class, so the workload
/// pins [`Backend::Density`] and exercises the sample-from-carrier
/// recording path.
fn appendix_b() -> Circuit {
    let mut c = Circuit::new(3, 3);
    // State to teleport: T|+⟩ on q0.
    c.h(0);
    c.t(0);
    // Noisy Bell pair between q1 (Alice) and q2 (Bob).
    c.h(1);
    c.cx(1, 2);
    c.push(Instruction::Depolarizing {
        qubits: vec![1, 2],
        p: 0.01,
    });
    // Bell measurement on (q0, q1), feedback on q2.
    c.cx(0, 1);
    c.h(0);
    c.measure(0, 0);
    c.measure(1, 1);
    c.cond_x(2, &[1]);
    c.cond_z(2, &[0]);
    c.measure(2, 2);
    c
}

/// §5 application: a quantum-signal-processing phase ladder — an
/// interleaved rz/h sequence on 4 qubits whose output distribution is
/// sensitive to every phase, a good canary for rotation-kernel
/// regressions.
fn qsp() -> Circuit {
    let mut c = Circuit::new(4, 4);
    for q in 0..4 {
        c.h(q);
    }
    for (step, phi) in [0.3f64, -0.7, 1.1, 0.25].into_iter().enumerate() {
        for q in 0..4 {
            c.rz(q, phi * (q as f64 + 1.0));
        }
        for q in 0..3 {
            c.cx(q, q + 1);
        }
        if step % 2 == 0 {
            for q in 0..4 {
                c.h(q);
            }
        }
    }
    for q in 0..4 {
        c.measure(q, q);
    }
    c
}

/// §5 application: one round of measurement-based cooling — system
/// qubits entangled to an ancilla that is rotated, measured, and used
/// to herald the cooled branch.
fn cooling() -> Circuit {
    let mut c = Circuit::new(3, 3);
    // Warm system state.
    c.ry(0, 0.9);
    c.ry(1, 1.7);
    // Couple both system qubits to the ancilla (q2).
    c.cx(0, 2);
    c.cx(1, 2);
    c.ry(2, -0.6);
    c.measure(2, 2);
    c.measure(0, 0);
    c.measure(1, 1);
    c
}

/// §5 application: Hadamard-test phase spectroscopy — the control
/// accumulates the eigenphase of a controlled-rz "evolution" and is
/// read out in the X basis.
fn spectroscopy() -> Circuit {
    let mut c = Circuit::new(2, 1);
    c.h(0);
    // Prepare an eigenstate-ish target and apply controlled evolution
    // (decomposed: rz halves around a CX pair).
    c.x(1);
    for _ in 0..3 {
        c.rz(1, 0.4);
        c.cx(0, 1);
        c.rz(1, -0.4);
        c.cx(0, 1);
    }
    c.h(0);
    c.measure(0, 0);
    c
}

/// §5 application: Rényi-2 entropy of a one-qubit marginal via the
/// k = 2 SWAP test — two copies of the same entangled pair, a
/// controlled swap between the copies' first qubits, X-basis readout
/// of the control.
fn renyi() -> Circuit {
    let mut c = Circuit::new(5, 1);
    let control = 0usize;
    // Copy A on (1,2), copy B on (3,4): partially entangled pairs.
    for &(a, b) in &[(1usize, 2usize), (3, 4)] {
        c.ry(a, 1.1);
        c.cx(a, b);
    }
    c.h(control);
    c.cswap(control, 1, 3);
    c.h(control);
    c.measure(control, 0);
    c
}

/// The benchmark's `serve-sharded` circuit: a 12-qubit GHZ chain under
/// the standard noise model at `p = 0.002`, every qubit measured. A
/// sparse state whose measurements see long live runs (the first one
/// sums 2 048 amplitudes), so it pins the statevector's slice path for
/// measurement and collapse.
fn ghz12_sv() -> Circuit {
    let mut prep = Circuit::new(12, 12);
    prep.h(0);
    for q in 1..12 {
        prep.cx(q - 1, q);
    }
    let mut noisy = NoiseModel::standard(0.002).apply(&prep);
    for q in 0..12 {
        noisy.measure(q, q);
    }
    noisy
}

/// The benchmark's `lib-wide-sv` shape at 14 qubits, without its
/// angle jitter: two layers of an `rx` mixer and a `cx·rz·cx` chain,
/// every qubit measured. A dense state, so no measurement sum skips a
/// chunk.
fn zz14_sv() -> Circuit {
    let n = 14;
    let mut c = Circuit::new(n, n);
    for layer in 0..2 {
        for q in 0..n {
            c.rx(q, 0.3 + 0.05 * (q + layer) as f64);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.rz(q + 1, 0.4 + 0.03 * q as f64);
            c.cx(q, q + 1);
        }
    }
    for q in 0..n {
        c.measure(q, q);
    }
    c
}

/// The registry. Order is presentation order (paper artifacts first,
/// then the §5 applications, then the benchmark's statevector shapes); lookups go through [`find`].
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "table4",
        description: "Table 4: constant-depth fanout gadget, depolarizing noise (stabilizer)",
        backend: Backend::Auto,
        shots: 256,
        root_seed: 0xC0_45,
        build: table4,
    },
    Workload {
        name: "fig9a",
        description: "Fig 9a: monolithic 8-qubit GHZ with noise (stabilizer)",
        backend: Backend::Auto,
        shots: 256,
        root_seed: 0xC0_45,
        build: fig9a,
    },
    Workload {
        name: "fig9b",
        description: "Fig 9b: local two-state SWAP test, 7-T Toffolis (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: fig9b,
    },
    Workload {
        name: "fig9c",
        description: "Fig 9c: monolithic k=3 fanout SWAP test (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: fig9c,
    },
    Workload {
        name: "appendix_b",
        description: "Appendix B: teleportation with Pauli feedback (density)",
        backend: Backend::Density,
        shots: 256,
        root_seed: 0xC0_45,
        build: appendix_b,
    },
    Workload {
        name: "qsp",
        description: "QSP phase ladder on 4 qubits (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: qsp,
    },
    Workload {
        name: "cooling",
        description: "one measurement-based cooling round (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: cooling,
    },
    Workload {
        name: "spectroscopy",
        description: "Hadamard-test phase spectroscopy (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: spectroscopy,
    },
    Workload {
        name: "renyi",
        description: "Renyi-2 entropy via the k=2 SWAP test (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: renyi,
    },
    Workload {
        name: "ghz12_sv",
        description: "noisy GHZ-12, all qubits measured (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: ghz12_sv,
    },
    Workload {
        name: "zz14_sv",
        description: "two-layer ZZ circuit on 14 qubits, all measured (statevector)",
        backend: Backend::StateVector,
        shots: 256,
        root_seed: 0xC0_45,
        build: zz14_sv,
    },
];

/// Looks a workload up by registry name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circuit::qasm::{from_qasm3, to_qasm3};

    #[test]
    fn names_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(seen.insert(w.name), "duplicate workload {}", w.name);
            assert_eq!(find(w.name).unwrap().name, w.name);
        }
        assert!(find("no-such-workload").is_none());
    }

    #[test]
    fn every_workload_builds_and_fits_its_backend() {
        for w in WORKLOADS {
            let circuit = (w.build)();
            assert!(circuit.num_cbits() > 0, "{}: records nothing", w.name);
            assert!(
                circuit.num_cbits() <= 64,
                "{}: record overflows u64",
                w.name
            );
            let resolved = w.backend.resolve(&circuit);
            resolved
                .supports(&circuit)
                .unwrap_or_else(|e| panic!("{}: {} cannot run it: {e:?}", w.name, resolved.name()));
        }
    }

    #[test]
    fn auto_workloads_route_to_the_stabilizer() {
        // The two noisy Clifford workloads must stay on the cheap path:
        // depolarizing noise alone must not force the statevector.
        for name in ["table4", "fig9a"] {
            let w = find(name).unwrap();
            let resolved = w.backend.resolve(&(w.build)());
            assert_eq!(resolved, Backend::Stabilizer, "{name} left the tableau");
        }
    }

    #[test]
    fn every_workload_round_trips_through_qasm() {
        // Served and sharded recording ship the circuit as QASM; a
        // workload that cannot round-trip would tally differently over
        // the wire than locally.
        for w in WORKLOADS {
            let circuit = (w.build)();
            let text = to_qasm3(&circuit);
            let back = from_qasm3(&text)
                .unwrap_or_else(|e| panic!("{}: QASM round trip failed: {e:?}", w.name));
            assert_eq!(
                to_qasm3(&back),
                text,
                "{}: canonical text not a fixpoint",
                w.name
            );
        }
    }
}
