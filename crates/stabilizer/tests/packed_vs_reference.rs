//! The packed [`Tableau`] against the textbook bool-matrix tableau it
//! replaced (kept here, verbatim in its update rules, as the reference):
//! random op sequences over every public operation must leave the same
//! generators, the same determinism verdicts and the same outcomes, and
//! ask for the same number of random draws — on widths either side of
//! every word boundary of the packed rows.

use circuit::circuit::Basis;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use stabilizer::pauli::{Pauli, PauliString};
use stabilizer::tableau::Tableau;

/// Aaronson–Gottesman tableau as `Vec<Vec<bool>>` rows with a scratch
/// row: the implementation `stabilizer::tableau` had before it was
/// packed.
#[derive(Debug, Clone)]
struct Reference {
    n: usize,
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl Reference {
    fn new(n: usize) -> Self {
        let rows = 2 * n + 1;
        let mut t = Reference {
            n,
            x: vec![vec![false; n]; rows],
            z: vec![vec![false; n]; rows],
            r: vec![false; rows],
        };
        for q in 0..n {
            t.x[q][q] = true;
            t.z[n + q][q] = true;
        }
        t
    }

    fn copy_from(&mut self, other: &Reference) {
        self.n = other.n;
        self.x.clone_from(&other.x);
        self.z.clone_from(&other.z);
        self.r.clone_from(&other.r);
    }

    fn h(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let (xq, zq) = (self.x[row][q], self.z[row][q]);
            self.r[row] ^= xq & zq;
            self.x[row][q] = zq;
            self.z[row][q] = xq;
        }
    }

    fn s(&mut self, q: usize) {
        for row in 0..2 * self.n {
            let (xq, zq) = (self.x[row][q], self.z[row][q]);
            self.r[row] ^= xq & zq;
            self.z[row][q] = zq ^ xq;
        }
    }

    fn sdg(&mut self, q: usize) {
        self.s(q);
        self.s(q);
        self.s(q);
    }

    fn x_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.z[row][q];
        }
    }

    fn y_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q] ^ self.z[row][q];
        }
    }

    fn z_gate(&mut self, q: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.x[row][q];
        }
    }

    fn cx(&mut self, control: usize, target: usize) {
        for row in 0..2 * self.n {
            let (xc, zc) = (self.x[row][control], self.z[row][control]);
            let (xt, zt) = (self.x[row][target], self.z[row][target]);
            self.r[row] ^= xc & zt & (xt ^ zc ^ true);
            self.x[row][target] = xt ^ xc;
            self.z[row][control] = zc ^ zt;
        }
    }

    fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cx(a, b);
        self.h(b);
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.cx(a, b);
        self.cx(b, a);
        self.cx(a, b);
    }

    fn apply_pauli(&mut self, p: &PauliString) {
        for q in 0..self.n {
            match p.get(q) {
                Pauli::I => {}
                Pauli::X => self.x_gate(q),
                Pauli::Y => self.y_gate(q),
                Pauli::Z => self.z_gate(q),
            }
        }
    }

    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => (z2 as i32) - (x2 as i32),
            (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
            (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
        }
    }

    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase = 2 * (self.r[h] as i32) + 2 * (self.r[i] as i32);
        for q in 0..self.n {
            phase += Self::g(self.x[i][q], self.z[i][q], self.x[h][q], self.z[h][q]);
        }
        phase = phase.rem_euclid(4);
        assert!(phase == 0 || phase == 2, "non-Hermitian row");
        self.r[h] = phase == 2;
        for q in 0..self.n {
            self.x[h][q] ^= self.x[i][q];
            self.z[h][q] ^= self.z[i][q];
        }
    }

    fn measure_z_with(&mut self, q: usize, draw: impl FnOnce() -> bool) -> bool {
        let n = self.n;
        if let Some(p) = (n..2 * n).find(|&row| self.x[row][q]) {
            let outcome: bool = draw();
            for row in 0..2 * n {
                if row != p && row != p - n && self.x[row][q] {
                    self.rowsum(row, p);
                }
            }
            self.x[p - n] = self.x[p].clone();
            self.z[p - n] = self.z[p].clone();
            self.r[p - n] = self.r[p];
            self.x[p] = vec![false; n];
            self.z[p] = vec![false; n];
            self.z[p][q] = true;
            self.r[p] = outcome;
            outcome
        } else {
            let scratch = 2 * n;
            self.x[scratch] = vec![false; n];
            self.z[scratch] = vec![false; n];
            self.r[scratch] = false;
            for i in 0..n {
                if self.x[i][q] {
                    self.rowsum(scratch, i + n);
                }
            }
            self.r[scratch]
        }
    }

    fn measure_with(&mut self, q: usize, basis: Basis, draw: impl FnOnce() -> bool) -> bool {
        match basis {
            Basis::Z => self.measure_z_with(q, draw),
            Basis::X => {
                self.h(q);
                let m = self.measure_z_with(q, draw);
                self.h(q);
                m
            }
            Basis::Y => {
                self.sdg(q);
                self.h(q);
                let m = self.measure_z_with(q, draw);
                self.h(q);
                self.s(q);
                m
            }
        }
    }

    fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure_z_with(q, || rng.random()) {
            self.x_gate(q);
        }
    }

    fn is_deterministic_z(&self, q: usize) -> bool {
        (self.n..2 * self.n).all(|row| !self.x[row][q])
    }

    fn stabilizers(&self) -> Vec<(bool, PauliString)> {
        (self.n..2 * self.n)
            .map(|row| {
                let mut p = PauliString::identity(self.n);
                for q in 0..self.n {
                    p.set(q, Pauli::from_bits(self.x[row][q], self.z[row][q]));
                }
                (self.r[row], p)
            })
            .collect()
    }
}

/// Widths around every boundary of the packed layout: `2n` = 62, 64, 66
/// bits (one word / exactly one / just two) and `n` = 64, 65 (the
/// stabilizer rows start on / just past a word), plus the small — where
/// a deterministic measurement most often multiplies three or more rows
/// and picks up a phase — and the wide.
const WIDTHS: [usize; 11] = [1, 2, 3, 5, 12, 31, 32, 33, 64, 65, 100];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(110))]

    #[test]
    fn packed_tableau_equals_the_bool_matrix_reference(width in 0usize..11, seed in any::<u64>()) {
        let n = WIDTHS[width];
        let mut script = StdRng::seed_from_u64(seed);
        // One stream per side: equal positions at the end ⇒ equal draws.
        let mut rng_p = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut rng_r = rng_p.clone();
        let (mut draws_p, mut draws_r) = (0usize, 0usize);
        let mut packed = Tableau::new(n);
        let mut reference = Reference::new(n);
        // Half the cases start from a CX cascade: every destabilizer is
        // dense, so deterministic outcomes multiply many rows.
        if script.random_range(0..2) == 0 {
            packed.h(0);
            reference.h(0);
            for q in 1..n {
                packed.cx(q - 1, q);
                reference.cx(q - 1, q);
            }
        }
        let mut saved = (packed.clone(), reference.clone());
        // Long enough that the small widths reach deterministic outcomes
        // whose generator product carries a phase (about one op in 700).
        let ops = 600;
        for at in 0..ops {
            let q = script.random_range(0..n);
            match script.random_range(0..24) {
                0..=2 => { packed.h(q); reference.h(q); }
                3 | 4 => { packed.s(q); reference.s(q); }
                5 => { packed.sdg(q); reference.sdg(q); }
                6 => { packed.x_gate(q); reference.x_gate(q); }
                7 => { packed.y_gate(q); reference.y_gate(q); }
                8 => { packed.z_gate(q); reference.z_gate(q); }
                9..=14 if n > 1 => {
                    let b = (q + script.random_range(1..n)) % n;
                    match script.random_range(0..3) {
                        0 => { packed.cx(q, b); reference.cx(q, b); }
                        1 => { packed.cz(q, b); reference.cz(q, b); }
                        _ => { packed.swap(q, b); reference.swap(q, b); }
                    }
                }
                15..=19 => {
                    let basis = [Basis::Z, Basis::X, Basis::Y][script.random_range(0..3usize)];
                    let m_p = packed.measure_with(q, basis, || { draws_p += 1; rng_p.random() });
                    let m_r = reference.measure_with(q, basis, || { draws_r += 1; rng_r.random() });
                    prop_assert_eq!(m_p, m_r, "outcome of op {}", at);
                }
                20 => { packed.reset(q, &mut rng_p); reference.reset(q, &mut rng_r); }
                21 => {
                    let letters: Vec<Pauli> = (0..n)
                        .map(|_| [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z][script.random_range(0..4usize)])
                        .collect();
                    let p = PauliString::from_paulis(&letters);
                    packed.apply_pauli(&p);
                    reference.apply_pauli(&p);
                }
                22 => saved = (packed.clone(), reference.clone()),
                23 => { packed.copy_from(&saved.0); reference.copy_from(&saved.1); }
                _ => {}
            }
            prop_assert_eq!(draws_p, draws_r, "draws after op {}", at);
            // Every qubit's verdict, and every outcome that is already
            // decided (measuring it changes neither tableau) — on the wide
            // ones every fourth op, the reference being what it is.
            for q in (0..n).filter(|_| n <= 12 || at % 4 == 0) {
                let decided = reference.is_deterministic_z(q);
                prop_assert_eq!(packed.is_deterministic_z(q), decided, "qubit {} after op {}", q, at);
                if decided {
                    prop_assert_eq!(
                        packed.measure_z_with(q, || unreachable!("decided")),
                        reference.measure_z_with(q, || unreachable!("decided")),
                        "decided outcome of qubit {} after op {}", q, at
                    );
                }
            }
            if at % 16 == 0 || at + 1 == ops {
                prop_assert_eq!(packed.stabilizers(), reference.stabilizers(), "after op {}", at);
            }
        }
        prop_assert_eq!(rng_p.next_u64(), rng_r.next_u64());
        // `copy_from` across widths, and `==` seeing exactly the generators.
        let mut other = Tableau::new(3);
        other.copy_from(&packed);
        prop_assert_eq!(&other, &packed);
        prop_assert_eq!(other.stabilizers(), reference.stabilizers());
    }
}
