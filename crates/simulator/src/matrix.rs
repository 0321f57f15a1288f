//! Dense complex matrices sized for unitary-level reasoning about small
//! quantum circuits (the wChecker's unitary pass operates on ≤ 13 qubits).

use crate::Complex;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use weaver_simulator::Matrix;
/// let id = Matrix::identity(4);
/// assert!(id.is_unitary(1e-12));
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
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

    /// Builds a matrix from a row-major slice of elements.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[Complex]) -> Self {
        assert_eq!(data.len(), rows * cols, "element count mismatch");
        Matrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Builds a square matrix from real row-major entries (convenience for
    /// tests and real-valued gates).
    pub fn from_reals(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n, "element count mismatch");
        Matrix {
            rows: n,
            cols: n,
            data: data.iter().map(|&x| Complex::real(x)).collect(),
        }
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

    /// Whether this matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major element slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex] {
        &self.data
    }

    /// Raw row-major element slice, mutable (for in-place fills).
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [Complex] {
        &mut self.data
    }

    /// Transpose `Aᵀ`.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Conjugate transpose `A†`.
    pub fn adjoint(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Matrix trace. Requires a square matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for ar in 0..self.rows {
            for ac in 0..self.cols {
                let a = self[(ar, ac)];
                if a.is_zero(0.0) {
                    continue;
                }
                for br in 0..rhs.rows {
                    for bc in 0..rhs.cols {
                        out[(ar * rhs.rows + br, ac * rhs.cols + bc)] = a * rhs[(br, bc)];
                    }
                }
            }
        }
        out
    }

    /// Matrix product `self · rhs` with a cache-friendly `(i, k, j)` loop
    /// order: the inner loop walks one row of `rhs` and one row of the
    /// output with unit stride. The `&a * &b` operator and the `equiv`
    /// module both route through this.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions must agree: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        let width = rhs.cols;
        for i in 0..self.rows {
            let out_row = &mut out.data[i * width..(i + 1) * width];
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a.is_zero(0.0) {
                    continue;
                }
                let rhs_row = &rhs.data[k * width..(k + 1) * width];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Multiplies every entry by a complex scalar.
    pub fn scale(&self, k: Complex) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * k).collect(),
        }
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Whether `A† A = I` within `tol` (max-entry deviation).
    pub fn is_unitary(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let product = &self.adjoint() * self;
        let id = Matrix::identity(self.rows);
        product.approx_eq(&id, tol)
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Maximum absolute entry-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows, "shape mismatch");
        assert_eq!(self.cols, other.cols, "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Complex {
        &mut self.data[r * self.cols + c]
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
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
        assert_eq!(self.rows, rhs.rows, "shape mismatch");
        assert_eq!(self.cols, rhs.cols, "shape mismatch");
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

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn pauli_x() -> Matrix {
        Matrix::from_reals(2, &[0.0, 1.0, 1.0, 0.0])
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = pauli_x();
        let id = Matrix::identity(2);
        assert!((&x * &id).approx_eq(&x, TOL));
        assert!((&id * &x).approx_eq(&x, TOL));
    }

    #[test]
    fn pauli_x_squares_to_identity() {
        let x = pauli_x();
        assert!((&x * &x).approx_eq(&Matrix::identity(2), TOL));
        assert!(x.is_unitary(TOL));
    }

    #[test]
    fn kron_shapes_and_values() {
        let x = pauli_x();
        let id = Matrix::identity(2);
        let xi = x.kron(&id);
        assert_eq!(xi.rows(), 4);
        // X ⊗ I maps |00> -> |10>: column 0 has a 1 in row 2.
        assert!(xi[(2, 0)].approx_eq(Complex::ONE, TOL));
        assert!(xi[(0, 0)].is_zero(TOL));
        assert!(xi.is_unitary(TOL));
    }

    #[test]
    fn adjoint_of_phase_matrix() {
        let mut m = Matrix::identity(2);
        m[(1, 1)] = Complex::I;
        let a = m.adjoint();
        assert!(a[(1, 1)].approx_eq(-Complex::I, TOL));
        assert!(m.is_unitary(TOL));
    }

    #[test]
    fn trace_and_norm() {
        let id = Matrix::identity(3);
        assert!(id.trace().approx_eq(Complex::real(3.0), TOL));
        assert!((id.frobenius_norm() - 3f64.sqrt()).abs() < TOL);
    }

    #[test]
    fn max_diff_detects_perturbation() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b[(0, 1)] = Complex::new(0.0, 0.25);
        assert!((a.max_diff(&b) - 0.25).abs() < TOL);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_mul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = &a * &b;
    }
}
