//! Pluggable simulation backends: one sampling surface, representation
//! chosen at the boundary.
//!
//! Builds a Clifford GHZ circuit and a non-Clifford variant, then
//! samples both through `engine::Backend` — `Auto` routes the Clifford
//! circuit to the `O(n²)` stabilizer tableau and the non-Clifford one
//! to the statevector, while the exact density-matrix reference
//! cross-checks a small feed-forward circuit. Naming the statevector
//! or the stabilizer for the Clifford circuit gives `Auto`'s tallies.
//!
//! Run with: `cargo run --release --example backend_selection`
//! (add `-- --threads N` to size the engine; the output is the same).

use circuit::circuit::Circuit;
use engine::{Backend, Engine, Executor};

fn ghz(r: usize) -> Circuit {
    let mut c = Circuit::new(r, r);
    c.h(0);
    for q in 1..r {
        c.cx(q - 1, q);
    }
    for q in 0..r {
        c.measure(q, q);
    }
    c
}

fn main() {
    let exec = Executor::pooled(Engine::from_args(), 2026);
    let shots = 5_000;

    // 1. Clifford circuit: Auto takes the stabilizer fast path.
    let clifford = ghz(14);
    println!(
        "GHZ-14 is Clifford; backend 'auto' resolves to '{}'",
        Backend::Auto.resolve(&clifford)
    );
    let counts = Backend::Auto.sample_shots(&clifford, shots, &exec).unwrap();
    for backend in [Backend::StateVector, Backend::Stabilizer] {
        let named = backend.sample_shots(&clifford, shots, &exec).unwrap();
        assert_eq!(named, counts, "backend '{backend}' diverged from auto");
    }
    let all_zero = counts.get(&0).copied().unwrap_or(0);
    let all_one = counts.get(&((1 << 14) - 1)).copied().unwrap_or(0);
    println!(
        "  {shots} shots: {} all-zeros, {} all-ones, {} other",
        all_zero,
        all_one,
        shots - all_zero - all_one
    );
    assert_eq!(all_zero + all_one, shots, "GHZ records must be correlated");

    // 2. The same records, explicitly on the statevector — identical
    //    tallies for one root seed, because the stabilizer backend
    //    consumes the shot streams in the statevector's pattern.
    let small = ghz(8);
    let stab = Backend::Stabilizer
        .sample_shots(&small, shots, &exec)
        .unwrap();
    let sv = Backend::StateVector
        .sample_shots(&small, shots, &exec)
        .unwrap();
    assert_eq!(stab, sv);
    println!("GHZ-8: stabilizer and statevector tallies are identical for one seed");

    // 3. Non-Clifford circuit: the stabilizer probe rejects it up
    //    front (typed error, no mid-shot panic); Auto falls back to the
    //    statevector.
    let mut toffoli = Circuit::new(3, 1);
    toffoli.h(0).h(1).ccx(0, 1, 2).measure(2, 0);
    let err = Backend::Stabilizer.supports(&toffoli).unwrap_err();
    println!("stabilizer probe says: {err}");
    assert_eq!(Backend::Auto.resolve(&toffoli), Backend::StateVector);
    let counts = Backend::Auto.sample_shots(&toffoli, shots, &exec).unwrap();
    let ones = counts.get(&1).copied().unwrap_or(0) as f64 / shots as f64;
    println!("Toffoli on |++0>: P(target=1) ~ {ones:.3} (expect ~0.25)");

    // 4. The exact density reference on a feed-forward teleport.
    let mut teleport = Circuit::new(3, 3);
    teleport.x(0);
    teleport.h(1).cx(1, 2);
    teleport.cx(0, 1).h(0);
    teleport.measure(0, 0).measure(1, 1);
    teleport.cond_x(2, &[1]).cond_z(2, &[0]);
    teleport.measure(2, 2);
    let exact = Backend::Density
        .sample_shots(&teleport, shots, &exec)
        .unwrap();
    let teleported_one = exact
        .iter()
        .filter(|(&k, _)| k & 0b100 != 0)
        .map(|(_, &v)| v)
        .sum::<usize>();
    println!("density reference: teleported |1> measured 1 in {teleported_one}/{shots} shots");
    assert_eq!(teleported_one, shots);
}
