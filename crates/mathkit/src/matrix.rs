//! Dense complex matrices.
//!
//! [`Matrix`] is a row-major dense matrix over [`Complex`] entries. It is the
//! workhorse behind density matrices, unitaries, and observables in the
//! simulation stack. Dimensions in this code base are small (≤ 2¹³), so the
//! implementation favours clarity and exhaustive checking over blocking or
//! SIMD.
//!
//! ```
//! use mathkit::matrix::Matrix;
//! use mathkit::complex::c64;
//!
//! let x = Matrix::from_rows(&[
//!     &[c64(0.0, 0.0), c64(1.0, 0.0)],
//!     &[c64(1.0, 0.0), c64(0.0, 0.0)],
//! ]);
//! assert!(x.is_unitary(1e-12));
//! assert_eq!((&x * &x).trace(), c64(2.0, 0.0));
//! ```

use crate::complex::{c64, Complex};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex::ONE;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[Complex]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Complex>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from real row-major entries.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Matrix {
            rows,
            cols,
            data: data.iter().map(|&x| c64(x, 0.0)).collect(),
        }
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[Complex]) -> Self {
        let n = entries.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// The conjugate transpose `A†`.
    pub fn dagger(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)].conj();
            }
        }
        out
    }

    /// The transpose without conjugation.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// The trace `Σᵢ Aᵢᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, s: Complex) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// The Kronecker (tensor) product `self ⊗ other`.
    ///
    /// ```
    /// # use mathkit::matrix::Matrix;
    /// let i2 = Matrix::identity(2);
    /// assert_eq!(i2.kron(&i2), Matrix::identity(4));
    /// ```
    pub fn kron(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                let a = self[(i, j)];
                if a == Complex::ZERO {
                    continue;
                }
                for p in 0..other.rows {
                    for q in 0..other.cols {
                        out[(i * other.rows + p, j * other.cols + q)] = a * other[(p, q)];
                    }
                }
            }
        }
        out
    }

    /// Matrix–vector product `A·v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[allow(clippy::needless_range_loop)] // index arithmetic over bit-packed registers
    pub fn mul_vec(&self, v: &[Complex]) -> Vec<Complex> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![Complex::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = Complex::ZERO;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, x) in row.iter().zip(v) {
                acc += *a * *x;
            }
            out[i] = acc;
        }
        out
    }

    /// Raises a square matrix to a non-negative integer power.
    pub fn powi(&self, n: u32) -> Matrix {
        assert!(self.is_square(), "powi requires a square matrix");
        let mut acc = Matrix::identity(self.rows);
        for _ in 0..n {
            acc = &acc * self;
        }
        acc
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest entry-wise modulus of `self − other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether `A = A†` within tolerance.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.is_square() && self.max_abs_diff(&self.dagger()) <= tol
    }

    /// Whether `A†A = I` within tolerance.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        (&self.dagger() * self).max_abs_diff(&Matrix::identity(self.rows)) <= tol
    }

    /// Partial trace over one tensor factor of a bipartite system.
    ///
    /// `self` must be a square matrix on a Hilbert space of dimension
    /// `dim_a * dim_b` (factor A first). Returns the reduced matrix on the
    /// kept subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not factorize as required.
    pub fn partial_trace(&self, dim_a: usize, dim_b: usize, keep: TraceKeep) -> Matrix {
        assert!(self.is_square(), "partial trace requires a square matrix");
        assert_eq!(self.rows, dim_a * dim_b, "dimensions must factorize");
        match keep {
            TraceKeep::A => {
                let mut out = Matrix::zeros(dim_a, dim_a);
                for i in 0..dim_a {
                    for j in 0..dim_a {
                        let mut acc = Complex::ZERO;
                        for k in 0..dim_b {
                            acc += self[(i * dim_b + k, j * dim_b + k)];
                        }
                        out[(i, j)] = acc;
                    }
                }
                out
            }
            TraceKeep::B => {
                let mut out = Matrix::zeros(dim_b, dim_b);
                for i in 0..dim_b {
                    for j in 0..dim_b {
                        let mut acc = Complex::ZERO;
                        for k in 0..dim_a {
                            acc += self[(k * dim_b + i, k * dim_b + j)];
                        }
                        out[(i, j)] = acc;
                    }
                }
                out
            }
        }
    }
}

/// Which tensor factor [`Matrix::partial_trace`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKeep {
    /// Keep subsystem A (the first tensor factor), trace out B.
    A,
    /// Keep subsystem B (the second tensor factor), trace out A.
    B,
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex {
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Complex::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>14.5}", self[(i, j)].to_string())?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> Matrix {
        Matrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> Matrix {
        Matrix::from_vec(
            2,
            2,
            vec![Complex::ZERO, c64(0.0, -1.0), c64(0.0, 1.0), Complex::ZERO],
        )
    }

    fn pauli_z() -> Matrix {
        Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = pauli_x();
        let i2 = Matrix::identity(2);
        assert_eq!(&x * &i2, x);
        assert_eq!(&i2 * &x, x);
    }

    #[test]
    fn pauli_algebra() {
        // XY = iZ
        let xy = &pauli_x() * &pauli_y();
        let iz = pauli_z().scale(Complex::I);
        assert!(xy.max_abs_diff(&iz) < 1e-15);
        // X² = I
        assert!(pauli_x().powi(2).max_abs_diff(&Matrix::identity(2)) < 1e-15);
    }

    #[test]
    fn trace_and_dagger() {
        let y = pauli_y();
        assert_eq!(y.trace(), Complex::ZERO);
        assert_eq!(y.dagger(), y); // Hermitian
        assert!(y.is_hermitian(0.0));
        assert!(y.is_unitary(1e-15));
    }

    #[test]
    fn kron_dimensions_and_values() {
        let z = pauli_z();
        let zz = z.kron(&z);
        assert_eq!(zz.rows(), 4);
        // diag(1,-1) ⊗ diag(1,-1) = diag(1,-1,-1,1)
        for (i, want) in [1.0, -1.0, -1.0, 1.0].iter().enumerate() {
            assert_eq!(zz[(i, i)], c64(*want, 0.0));
        }
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let x = pauli_x();
        let v = vec![c64(0.3, 0.1), c64(0.2, -0.4)];
        let got = x.mul_vec(&v);
        assert_eq!(got, vec![v[1], v[0]]);
    }

    #[test]
    fn partial_trace_of_product_state() {
        // ρ = |0⟩⟨0| ⊗ |+⟩⟨+|
        let rho_a = Matrix::from_real(2, 2, &[1.0, 0.0, 0.0, 0.0]);
        let rho_b = Matrix::from_real(2, 2, &[0.5, 0.5, 0.5, 0.5]);
        let rho = rho_a.kron(&rho_b);
        let ta = rho.partial_trace(2, 2, TraceKeep::A);
        let tb = rho.partial_trace(2, 2, TraceKeep::B);
        assert!(ta.max_abs_diff(&rho_a) < 1e-15);
        assert!(tb.max_abs_diff(&rho_b) < 1e-15);
    }

    #[test]
    fn partial_trace_of_bell_state_is_maximally_mixed() {
        // |Φ+⟩ = (|00⟩+|11⟩)/√2
        let mut psi = [Complex::ZERO; 4];
        psi[0] = c64(1.0 / 2f64.sqrt(), 0.0);
        psi[3] = psi[0];
        let mut rho = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                rho[(i, j)] = psi[i] * psi[j].conj();
            }
        }
        let reduced = rho.partial_trace(2, 2, TraceKeep::A);
        let mixed = Matrix::from_real(2, 2, &[0.5, 0.0, 0.0, 0.5]);
        assert!(reduced.max_abs_diff(&mixed) < 1e-15);
    }

    #[test]
    fn diag_builder() {
        let d = Matrix::diag(&[c64(1.0, 0.0), c64(2.0, 0.0)]);
        assert_eq!(d.trace(), c64(3.0, 0.0));
        assert_eq!(d[(0, 1)], Complex::ZERO);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((Matrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-15);
    }
}
