//! Euler-angle extraction: writes an arbitrary single-qubit unitary as
//! `e^{iα}·U3(θ, φ, λ)`. This is the workhorse of single-qubit gate fusion in
//! the nativizer — any run of 1-qubit gates collapses to a single `U3`.
//!
//! Both decompositions work on the stack type [`Mat2`], whose operations
//! round exactly as the heap [`Matrix`](weaver_simulator::Matrix) ones do.

use weaver_simulator::{Complex, Mat2};

/// The result of decomposing a `2 × 2` unitary into `e^{iα}·U3(θ, φ, λ)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EulerAngles {
    /// Polar rotation θ.
    pub theta: f64,
    /// First phase angle φ.
    pub phi: f64,
    /// Second phase angle λ.
    pub lambda: f64,
    /// Global phase α (unobservable, but tracked so reconstruction is exact).
    pub global_phase: f64,
}

impl EulerAngles {
    /// Rebuilds the exact matrix `e^{iα}·U3(θ, φ, λ)`.
    pub fn to_matrix(self) -> Mat2 {
        Mat2::u3(self.theta, self.phi, self.lambda).scale(Complex::from_polar(self.global_phase))
    }
}

/// Decomposes a single-qubit unitary into [`EulerAngles`].
///
/// # Panics
///
/// Panics if `m` is not unitary to within `1e-8`.
///
/// # Examples
///
/// ```
/// use weaver_circuit::euler::decompose_u3;
/// use weaver_simulator::Mat2;
/// let angles = decompose_u3(&Mat2::h());
/// let rebuilt = angles.to_matrix();
/// assert!(rebuilt.approx_eq(Mat2::h(), 1e-10));
/// ```
pub fn decompose_u3(m: &Mat2) -> EulerAngles {
    assert!(m.is_unitary(1e-8), "matrix is not unitary");

    let m00 = m[(0, 0)];
    let m01 = m[(0, 1)];
    let m10 = m[(1, 0)];
    let m11 = m[(1, 1)];

    let cos_half = m00.abs().min(1.0);
    let sin_half = m10.abs().min(1.0);
    let theta = 2.0 * sin_half.atan2(cos_half);

    const EPS: f64 = 1e-12;
    let (global_phase, phi, lambda) = if cos_half > EPS && sin_half > EPS {
        let g = m00.arg();
        let phi = m10.arg() - g;
        let lambda = (-m01).arg() - g;
        (g, phi, lambda)
    } else if sin_half <= EPS {
        // θ ≈ 0: only the diagonal is populated; φ is a free parameter.
        let g = m00.arg();
        let lambda = m11.arg() - g;
        (g, 0.0, lambda)
    } else {
        // θ ≈ π: only the anti-diagonal is populated; put everything in λ.
        let g = m10.arg();
        let lambda = (-m01).arg() - g;
        (g, 0.0, lambda)
    };

    EulerAngles {
        theta,
        phi: normalize_angle(phi),
        lambda: normalize_angle(lambda),
        global_phase: normalize_angle(global_phase),
    }
}

/// The result of decomposing a `2 × 2` unitary into
/// `e^{iα}·RZ(z)·RY(y)·RX(x)` — the native form of an FPQA Raman pulse,
/// whose wQasm annotation carries the three axis angles `(x, y, z)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZyxAngles {
    /// Rotation about X (applied first).
    pub x: f64,
    /// Rotation about Y (applied second).
    pub y: f64,
    /// Rotation about Z (applied last).
    pub z: f64,
    /// Global phase α.
    pub global_phase: f64,
}

impl ZyxAngles {
    /// Rebuilds the exact matrix `e^{iα}·RZ(z)·RY(y)·RX(x)`.
    pub fn to_matrix(self) -> Mat2 {
        Mat2::raman(self.x, self.y, self.z).scale(Complex::from_polar(self.global_phase))
    }
}

/// Decomposes a single-qubit unitary into ZYX Euler angles
/// (`U = e^{iα}·RZ(z)·RY(y)·RX(x)`), via the adjoint SO(3) rotation.
///
/// # Panics
///
/// Panics if `m` is not unitary to within `1e-8`.
///
/// # Examples
///
/// ```
/// use weaver_circuit::euler::decompose_zyx;
/// use weaver_simulator::Mat2;
/// let a = decompose_zyx(&Mat2::h());
/// assert!(a.to_matrix().approx_eq(Mat2::h(), 1e-9));
/// ```
pub fn decompose_zyx(m: &Mat2) -> ZyxAngles {
    assert!(m.is_unitary(1e-8), "matrix is not unitary");

    // Adjoint representation: R[i][j] = ½ Tr(σᵢ · M · σⱼ · M†).
    let paulis = [Mat2::x(), Mat2::y(), Mat2::z()];
    let m = *m;
    let mdag = m.adjoint();
    let mut r = [[0.0f64; 3]; 3];
    for (i, &si) in paulis.iter().enumerate() {
        for (j, &sj) in paulis.iter().enumerate() {
            let prod = si * m * sj * mdag;
            r[i][j] = 0.5 * prod.trace().re;
        }
    }

    // ZYX (yaw-pitch-roll) extraction from R = Rz(z)·Ry(y)·Rx(x).
    let (x, y, z) = if r[2][0].abs() < 1.0 - 1e-12 {
        let y = (-r[2][0]).asin();
        let x = r[2][1].atan2(r[2][2]);
        let z = r[1][0].atan2(r[0][0]);
        (x, y, z)
    } else {
        // Gimbal lock: y = ±π/2; fold the x rotation into z.
        let y = if r[2][0] < 0.0 {
            std::f64::consts::FRAC_PI_2
        } else {
            -std::f64::consts::FRAC_PI_2
        };
        let x = 0.0;
        let z = (-r[0][1]).atan2(r[1][1]);
        (x, y, z)
    };

    // Normalize angles *before* phase recovery: RZ/RY/RX have period 4π in
    // matrix form, so shifting an angle by 2π flips the matrix sign, which
    // must be absorbed into the recovered global phase.
    let x = normalize_angle(x);
    let y = normalize_angle(y);
    let z = normalize_angle(z);
    // Recover the global phase by comparing against the reconstruction.
    let bare = Mat2::raman(x, y, z);
    // Use the largest-magnitude entry for numerical stability.
    let mut best = (0, 0);
    let mut mag = -1.0;
    for rr in 0..2 {
        for cc in 0..2 {
            if bare[(rr, cc)].norm_sqr() > mag {
                mag = bare[(rr, cc)].norm_sqr();
                best = (rr, cc);
            }
        }
    }
    let global_phase = (m[best] / bare[best]).arg();
    ZyxAngles {
        x,
        y,
        z,
        global_phase: normalize_angle(global_phase),
    }
}

/// Maps an angle into `(-π, π]`.
pub fn normalize_angle(a: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let mut x = a.rem_euclid(TAU);
    if x > PI {
        x -= TAU;
    }
    x
}

/// Whether `U3(θ, φ, λ)` is the identity up to global phase within `tol`.
pub fn is_identity_u3(theta: f64, phi: f64, lambda: f64, tol: f64) -> bool {
    normalize_angle(theta).abs() <= tol && normalize_angle(phi + lambda).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    fn roundtrip(m: Mat2) {
        let angles = decompose_u3(&m);
        assert!(
            angles.to_matrix().approx_eq(m, TOL),
            "roundtrip failed: {angles:?} for {m:?}"
        );
    }

    #[test]
    fn named_gates_roundtrip() {
        for m in [
            Mat2::identity(),
            Mat2::x(),
            Mat2::y(),
            Mat2::z(),
            Mat2::h(),
            Mat2::s(),
            Mat2::sdg(),
            Mat2::t(),
            Mat2::tdg(),
        ] {
            roundtrip(m);
        }
    }

    #[test]
    fn rotations_roundtrip() {
        for k in 0..24 {
            let a = k as f64 * 0.53 - 6.0;
            roundtrip(Mat2::rx(a));
            roundtrip(Mat2::ry(a));
            roundtrip(Mat2::rz(a));
            roundtrip(Mat2::u3(a, 0.9 * a, -1.3 * a));
        }
    }

    #[test]
    fn products_roundtrip() {
        let m = Mat2::h() * Mat2::t() * Mat2::rx(0.77);
        roundtrip(m);
        let m2 = Mat2::rz(2.1) * Mat2::ry(-0.4) * Mat2::s();
        roundtrip(m2);
    }

    #[test]
    fn theta_zero_and_pi_edge_cases() {
        roundtrip(Mat2::rz(1.0)); // θ = 0 family
        roundtrip(Mat2::x()); // θ = π family
        let xish = Mat2::x() * Mat2::p(0.6);
        roundtrip(xish);
    }

    fn zyx_roundtrip(m: Mat2) {
        let a = decompose_zyx(&m);
        assert!(
            a.to_matrix().approx_eq(m, 1e-9),
            "zyx roundtrip failed: {a:?} for {m:?}"
        );
    }

    #[test]
    fn zyx_named_gates_roundtrip() {
        for m in [
            Mat2::identity(),
            Mat2::x(),
            Mat2::y(),
            Mat2::z(),
            Mat2::h(),
            Mat2::s(),
            Mat2::t(),
            Mat2::sdg(),
        ] {
            zyx_roundtrip(m);
        }
    }

    #[test]
    fn zyx_rotations_and_products_roundtrip() {
        for k in 0..24 {
            let a = k as f64 * 0.47 - 5.5;
            zyx_roundtrip(Mat2::rx(a));
            zyx_roundtrip(Mat2::ry(a));
            zyx_roundtrip(Mat2::rz(a));
            zyx_roundtrip(Mat2::u3(a, 0.6 * a, -1.1 * a));
        }
        zyx_roundtrip(Mat2::h() * Mat2::t() * Mat2::rx(0.9));
    }

    #[test]
    fn zyx_gimbal_lock_cases() {
        use std::f64::consts::FRAC_PI_2;
        zyx_roundtrip(Mat2::ry(FRAC_PI_2));
        zyx_roundtrip(Mat2::ry(-FRAC_PI_2));
        zyx_roundtrip(Mat2::ry(FRAC_PI_2) * Mat2::rz(0.8));
    }

    #[test]
    fn zyx_pure_rotations_recover_axis_angle() {
        let a = decompose_zyx(&Mat2::rx(0.7));
        assert!((a.x - 0.7).abs() < 1e-9 && a.y.abs() < 1e-9 && a.z.abs() < 1e-9);
        let a = decompose_zyx(&Mat2::rz(-1.2));
        assert!((a.z + 1.2).abs() < 1e-9 && a.x.abs() < 1e-9 && a.y.abs() < 1e-9);
    }

    #[test]
    fn normalize_angle_range() {
        use std::f64::consts::PI;
        assert!((normalize_angle(3.0 * PI) - PI).abs() < TOL);
        assert!((normalize_angle(-3.0 * PI) - PI).abs() < TOL);
        assert!(normalize_angle(0.5).abs() - 0.5 < TOL);
    }

    #[test]
    fn identity_detection() {
        assert!(is_identity_u3(0.0, 0.3, -0.3, 1e-9));
        assert!(!is_identity_u3(0.1, 0.0, 0.0, 1e-9));
        assert!(is_identity_u3(std::f64::consts::TAU, 0.0, 0.0, 1e-9));
    }
}
