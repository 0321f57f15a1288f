//! A stack-allocated `2 × 2` complex matrix for single-qubit gate algebra.
//!
//! The compile path multiplies, inverts and decomposes one 2×2 per
//! single-qubit gate it fuses; [`Mat2`] does that without touching the heap.
//! Every operation performs [`Matrix`]'s floating-point operations in the
//! same order — the product skips exact-zero left factors, the trace folds
//! from [`Complex::ZERO`], the adjoint negates imaginary parts (so `S†`
//! keeps its `-0.0` entries) — so a result is bit-identical to the heap
//! computation it replaces.

use crate::{Complex, Matrix};
use std::fmt;
use std::ops::{Index, Mul};

/// A `2 × 2` complex matrix, row-major: `[[m00, m01], [m10, m11]]`.
///
/// The single-qubit gate matrices are defined here once; the heap
/// constructors in [`crate::gates`] convert from them.
///
/// # Examples
///
/// ```
/// use weaver_simulator::{gates, Mat2, Matrix};
/// let hzh = Mat2::h() * Mat2::z() * Mat2::h();
/// assert!(hzh.approx_eq(Mat2::x(), 1e-12));
/// assert_eq!(Matrix::from(Mat2::t()), gates::t());
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct Mat2([[Complex; 2]; 2]);

impl Mat2 {
    /// Builds a matrix from its four entries, row by row.
    #[inline]
    pub const fn new(m00: Complex, m01: Complex, m10: Complex, m11: Complex) -> Self {
        Mat2([[m00, m01], [m10, m11]])
    }

    /// Builds a matrix from real entries, row by row (imaginary parts `+0.0`).
    #[inline]
    const fn from_reals(m00: f64, m01: f64, m10: f64, m11: f64) -> Self {
        Mat2::new(
            Complex::real(m00),
            Complex::real(m01),
            Complex::real(m10),
            Complex::real(m11),
        )
    }

    /// The diagonal matrix `diag(a, b)` with `+0.0` off-diagonal entries.
    #[inline]
    const fn diag(a: Complex, b: Complex) -> Self {
        Mat2::new(a, Complex::ZERO, Complex::ZERO, b)
    }

    // ---- algebra ---------------------------------------------------------

    /// Matrix product `self · rhs`, in [`Matrix::matmul`]'s order: each
    /// output row starts at zero and adds `a · rhs[k]` for `k = 0, 1`,
    /// skipping a left factor `a` that is exactly zero.
    #[inline]
    pub fn matmul(self, rhs: Mat2) -> Mat2 {
        let mut out = [[Complex::ZERO; 2]; 2];
        for (out_row, row) in out.iter_mut().zip(&self.0) {
            for (&a, rhs_row) in row.iter().zip(&rhs.0) {
                // `Matrix` skips `a.is_zero(0.0)`, i.e. `|a| <= 0`: the same
                // test without the square root.
                if a.norm_sqr() <= 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Mat2(out)
    }

    /// Conjugate transpose `A†`.
    #[inline]
    pub fn adjoint(self) -> Mat2 {
        let [[a, b], [c, d]] = self.0;
        Mat2::new(a.conj(), c.conj(), b.conj(), d.conj())
    }

    /// Matrix trace, summed from [`Complex::ZERO`] as [`Matrix::trace`] does.
    #[inline]
    pub fn trace(self) -> Complex {
        Complex::ZERO + self.0[0][0] + self.0[1][1]
    }

    /// Multiplies every entry by a complex scalar.
    #[inline]
    pub fn scale(self, k: Complex) -> Mat2 {
        let [[a, b], [c, d]] = self.0;
        Mat2::new(a * k, b * k, c * k, d * k)
    }

    /// Entry-wise approximate equality within `tol`.
    pub fn approx_eq(self, other: Mat2, tol: f64) -> bool {
        self.entries()
            .zip(other.entries())
            .all(|(a, b)| a.approx_eq(b, tol))
    }

    /// Whether `A† A = I` within `tol` (max-entry deviation), as
    /// [`Matrix::is_unitary`] decides it.
    pub fn is_unitary(self, tol: f64) -> bool {
        self.adjoint().matmul(self).approx_eq(Mat2::identity(), tol)
    }

    /// The four entries in row-major order.
    pub fn entries(self) -> impl Iterator<Item = Complex> {
        self.0.into_iter().flatten()
    }

    // ---- single-qubit gates ------------------------------------------------

    /// Identity.
    pub const fn identity() -> Mat2 {
        Mat2::diag(Complex::ONE, Complex::ONE)
    }

    /// Pauli-X (NOT).
    pub const fn x() -> Mat2 {
        Mat2::from_reals(0.0, 1.0, 1.0, 0.0)
    }

    /// Pauli-Y. The `-i` entry is `Complex::I` negated: `(-0.0, -1.0)`.
    pub fn y() -> Mat2 {
        Mat2::new(Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO)
    }

    /// Pauli-Z.
    pub const fn z() -> Mat2 {
        Mat2::from_reals(1.0, 0.0, 0.0, -1.0)
    }

    /// Hadamard.
    pub const fn h() -> Mat2 {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        Mat2::from_reals(s, s, s, -s)
    }

    /// Phase gate `S = diag(1, i)`.
    pub const fn s() -> Mat2 {
        Mat2::diag(Complex::ONE, Complex::I)
    }

    /// `S† = diag(1, -i)`, as the adjoint of [`Mat2::s`] (signed zeros
    /// included).
    pub fn sdg() -> Mat2 {
        Mat2::s().adjoint()
    }

    /// `T = diag(1, e^{iπ/4})`.
    pub fn t() -> Mat2 {
        Mat2::diag(
            Complex::ONE,
            Complex::from_polar(std::f64::consts::FRAC_PI_4),
        )
    }

    /// `T† = diag(1, e^{-iπ/4})`, as the adjoint of [`Mat2::t`].
    pub fn tdg() -> Mat2 {
        Mat2::t().adjoint()
    }

    /// Rotation about X: `RX(θ) = exp(-iθX/2)`.
    pub fn rx(theta: f64) -> Mat2 {
        let c = Complex::real((theta / 2.0).cos());
        let s = Complex::new(0.0, -(theta / 2.0).sin());
        Mat2::new(c, s, s, c)
    }

    /// Rotation about Y: `RY(θ) = exp(-iθY/2)`.
    pub fn ry(theta: f64) -> Mat2 {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        Mat2::from_reals(c, -s, s, c)
    }

    /// Rotation about Z: `RZ(θ) = diag(e^{-iθ/2}, e^{iθ/2})`.
    pub fn rz(theta: f64) -> Mat2 {
        Mat2::diag(
            Complex::from_polar(-theta / 2.0),
            Complex::from_polar(theta / 2.0),
        )
    }

    /// Phase gate `P(λ) = diag(1, e^{iλ})`.
    pub fn p(lambda: f64) -> Mat2 {
        Mat2::diag(Complex::ONE, Complex::from_polar(lambda))
    }

    /// `U3(θ, φ, λ)` in OpenQASM convention:
    /// `[[cos(θ/2), -e^{iλ} sin(θ/2)], [e^{iφ} sin(θ/2), e^{i(φ+λ)} cos(θ/2)]]`.
    pub fn u3(theta: f64, phi: f64, lambda: f64) -> Mat2 {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        Mat2::new(
            Complex::real(c),
            -(Complex::from_polar(lambda).scale(s)),
            Complex::from_polar(phi).scale(s),
            Complex::from_polar(phi + lambda).scale(c),
        )
    }

    /// A Raman rotation `R(x, y, z) = RZ(z)·RY(y)·RX(x)`.
    pub fn raman(x: f64, y: f64, z: f64) -> Mat2 {
        Mat2::rz(z) * Mat2::ry(y) * Mat2::rx(x)
    }
}

impl Mul for Mat2 {
    type Output = Mat2;
    #[inline]
    fn mul(self, rhs: Mat2) -> Mat2 {
        self.matmul(rhs)
    }
}

impl Index<(usize, usize)> for Mat2 {
    type Output = Complex;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Complex {
        &self.0[r][c]
    }
}

impl From<Mat2> for Matrix {
    fn from(m: Mat2) -> Matrix {
        let [[a, b], [c, d]] = m.0;
        Matrix::from_rows(2, 2, &[a, b, c, d])
    }
}

impl fmt::Debug for Mat2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [[a, b], [c, d]] = self.0;
        write!(f, "Mat2 [[{a}, {b}], [{c}, {d}]]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_bits(a: Mat2, b: &Matrix) -> bool {
        a.entries()
            .zip(b.as_slice())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    fn samples() -> Vec<Mat2> {
        let mut v = vec![
            Mat2::identity(),
            Mat2::x(),
            Mat2::y(),
            Mat2::z(),
            Mat2::h(),
            Mat2::s(),
            Mat2::sdg(),
            Mat2::t(),
            Mat2::tdg(),
            // A row whose squares underflow: `Matrix` skips it as zero.
            Mat2::new(
                Complex::new(1e-200, 0.0),
                Complex::new(-0.0, 0.0),
                Complex::new(0.0, -0.0),
                Complex::new(-1e-170, 3.0),
            ),
            // A `-0.0` diagonal: the trace's fold from `+0.0` shows.
            Mat2::new(
                Complex::new(-0.0, -0.0),
                Complex::ONE,
                Complex::I,
                Complex::new(-0.0, -0.0),
            ),
        ];
        for k in 0..8 {
            let a = k as f64 * 0.77 - 2.9;
            v.push(Mat2::rx(a));
            v.push(Mat2::ry(-a));
            v.push(Mat2::rz(a));
            v.push(Mat2::p(a));
            v.push(Mat2::u3(a, 0.3 - a, 1.1 * a));
        }
        v
    }

    #[test]
    fn algebra_matches_the_heap_matrix_bit_for_bit() {
        let all = samples();
        for &a in &all {
            let ha = Matrix::from(a);
            assert!(same_bits(a.adjoint(), &ha.adjoint()));
            let (t, ht) = (a.trace(), ha.trace());
            assert_eq!(
                (t.re.to_bits(), t.im.to_bits()),
                (ht.re.to_bits(), ht.im.to_bits())
            );
            assert_eq!(a.is_unitary(1e-8), ha.is_unitary(1e-8));
            let k = Complex::new(0.6, -0.8);
            assert!(same_bits(a.scale(k), &ha.scale(k)));
            for &b in &all {
                assert!(same_bits(a * b, &(&ha * &Matrix::from(b))));
            }
        }
    }
}
