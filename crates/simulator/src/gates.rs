//! Standard gate matrices used across the workspace.
//!
//! All constructors return freshly allocated [`Matrix`] values in the
//! computational basis with the convention that the first listed qubit is the
//! most significant index bit (see [`crate::State`]). The single-qubit gates
//! are defined on the stack type [`Mat2`] and converted.

use crate::{Complex, Mat2, Matrix};

/// Identity on one qubit.
pub fn id() -> Matrix {
    Mat2::identity().into()
}

/// Pauli-X (NOT).
pub fn x() -> Matrix {
    Mat2::x().into()
}

/// Pauli-Y.
pub fn y() -> Matrix {
    Mat2::y().into()
}

/// Pauli-Z.
pub fn z() -> Matrix {
    Mat2::z().into()
}

/// Hadamard.
pub fn h() -> Matrix {
    Mat2::h().into()
}

/// Phase gate S = diag(1, i).
pub fn s() -> Matrix {
    Mat2::s().into()
}

/// S† = diag(1, -i).
pub fn sdg() -> Matrix {
    Mat2::sdg().into()
}

/// T = diag(1, e^{iπ/4}).
pub fn t() -> Matrix {
    Mat2::t().into()
}

/// T† = diag(1, e^{-iπ/4}).
pub fn tdg() -> Matrix {
    Mat2::tdg().into()
}

/// Rotation about X: `RX(θ) = exp(-iθX/2)`.
pub fn rx(theta: f64) -> Matrix {
    Mat2::rx(theta).into()
}

/// Rotation about Y: `RY(θ) = exp(-iθY/2)`.
pub fn ry(theta: f64) -> Matrix {
    Mat2::ry(theta).into()
}

/// Rotation about Z: `RZ(θ) = exp(-iθZ/2) = diag(e^{-iθ/2}, e^{iθ/2})`.
pub fn rz(theta: f64) -> Matrix {
    Mat2::rz(theta).into()
}

/// Phase gate `P(λ) = diag(1, e^{iλ})` (RZ up to global phase).
pub fn p(lambda: f64) -> Matrix {
    Mat2::p(lambda).into()
}

/// The generic single-qubit gate in OpenQASM convention:
///
/// `U3(θ, φ, λ) = [[cos(θ/2), -e^{iλ} sin(θ/2)],
///                 [e^{iφ} sin(θ/2), e^{i(φ+λ)} cos(θ/2)]]`.
pub fn u3(theta: f64, phi: f64, lambda: f64) -> Matrix {
    Mat2::u3(theta, phi, lambda).into()
}

/// A Raman rotation `R(x, y, z) = RZ(z)·RY(y)·RX(x)` — the unitary applied by
/// an FPQA Raman pulse with the three Euler angles of the wQasm `@raman`
/// annotation.
pub fn raman(x: f64, y: f64, z: f64) -> Matrix {
    Mat2::raman(x, y, z).into()
}

/// Controlled-X (CNOT) with qubit order `[control, target]`.
pub fn cx() -> Matrix {
    Matrix::from_reals(
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0,
        ],
    )
}

/// Controlled-Z (symmetric in its qubits).
pub fn cz() -> Matrix {
    Matrix::from_reals(
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 0.0, 0.0, -1.0,
        ],
    )
}

/// SWAP.
pub fn swap() -> Matrix {
    Matrix::from_reals(
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0,
        ],
    )
}

/// Controlled-RZ with qubit order `[control, target]`.
pub fn crz(theta: f64) -> Matrix {
    let mut m = Matrix::identity(4);
    m[(2, 2)] = Complex::from_polar(-theta / 2.0);
    m[(3, 3)] = Complex::from_polar(theta / 2.0);
    m
}

/// Toffoli (CCX) with qubit order `[control, control, target]`.
pub fn ccx() -> Matrix {
    let mut m = Matrix::identity(8);
    m[(6, 6)] = Complex::ZERO;
    m[(7, 7)] = Complex::ZERO;
    m[(6, 7)] = Complex::ONE;
    m[(7, 6)] = Complex::ONE;
    m
}

/// Doubly-controlled Z (symmetric; the FPQA-native 3-qubit Rydberg gate).
pub fn ccz() -> Matrix {
    let mut m = Matrix::identity(8);
    m[(7, 7)] = -Complex::ONE;
    m
}

/// The `n`-controlled Z gate `CⁿZ` on `n + 1` qubits: flips the sign of the
/// all-ones basis state. `cnz(1)` is [`cz`], `cnz(2)` is [`ccz`].
///
/// # Panics
///
/// Panics if `n == 0` or the resulting matrix would exceed 2¹² rows.
pub fn cnz(n: usize) -> Matrix {
    assert!(n >= 1, "CnZ needs at least one control");
    assert!(n < 12, "CnZ too large to materialize");
    let dim = 1usize << (n + 1);
    let mut m = Matrix::identity(dim);
    m[(dim - 1, dim - 1)] = -Complex::ONE;
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn all_fixed_gates_are_unitary() {
        for m in [
            id(),
            x(),
            y(),
            z(),
            h(),
            s(),
            sdg(),
            t(),
            tdg(),
            cx(),
            cz(),
            swap(),
            ccx(),
            ccz(),
        ] {
            assert!(m.is_unitary(TOL));
        }
    }

    #[test]
    fn rotations_are_unitary_for_many_angles() {
        for k in 0..16 {
            let th = k as f64 * 0.41 - 3.0;
            assert!(rx(th).is_unitary(TOL));
            assert!(ry(th).is_unitary(TOL));
            assert!(rz(th).is_unitary(TOL));
            assert!(u3(th, 1.3 * th, -0.7 * th).is_unitary(TOL));
        }
    }

    #[test]
    fn u3_special_cases() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // U3(π, 0, π) = X
        assert!(u3(PI, 0.0, PI).approx_eq(&x(), TOL));
        // U3(π/2, 0, π) = H
        assert!(u3(FRAC_PI_2, 0.0, PI).approx_eq(&h(), TOL));
        // U3(0, 0, λ) = P(λ)
        assert!(u3(0.0, 0.0, 1.234).approx_eq(&p(1.234), TOL));
    }

    #[test]
    fn rz_vs_p_differ_by_global_phase() {
        let theta = 0.917;
        let a = rz(theta);
        let b = p(theta).scale(Complex::from_polar(-theta / 2.0));
        assert!(a.approx_eq(&b, TOL));
    }

    #[test]
    fn hzh_equals_x() {
        let hzh = &(&h() * &z()) * &h();
        assert!(hzh.approx_eq(&x(), 1e-10));
    }

    #[test]
    fn cnz_special_cases() {
        assert!(cnz(1).approx_eq(&cz(), TOL));
        assert!(cnz(2).approx_eq(&ccz(), TOL));
        let c3z = cnz(3);
        assert_eq!(c3z.rows(), 16);
        assert!(c3z[(15, 15)].approx_eq(-Complex::ONE, TOL));
    }

    #[test]
    fn ccx_equals_h_conjugated_ccz() {
        // (I⊗I⊗H) CCZ (I⊗I⊗H) = CCX
        let ihh = Matrix::identity(4).kron(&h());
        let composed = &(&ihh * &ccz()) * &ihh;
        assert!(composed.approx_eq(&ccx(), 1e-10));
    }

    #[test]
    fn raman_composition_order() {
        let m = raman(0.3, 0.0, 0.0);
        assert!(m.approx_eq(&rx(0.3), TOL));
        let m = raman(0.0, 0.4, 0.0);
        assert!(m.approx_eq(&ry(0.4), TOL));
        let m = raman(0.0, 0.0, 0.5);
        assert!(m.approx_eq(&rz(0.5), TOL));
    }
}
