//! Unitary equivalence checking up to global phase.
//!
//! Two circuits are functionally equivalent iff their unitaries `A` and `B`
//! satisfy `A = e^{iφ}·B` for some real φ — global phase is unobservable.
//! This module provides the comparison primitives used by the wChecker (§6
//! of the paper) — on whole unitaries and on the amplitudes of simulated
//! stimuli — together with a process-fidelity diagnostic.

use crate::{Complex, Matrix};

/// Outcome of an equivalence comparison between two unitaries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Equivalence {
    /// Matrices are equal up to global phase; carries the relative phase φ
    /// such that `A ≈ e^{iφ}·B`, and the maximum entry-wise deviation after
    /// phase alignment.
    EquivalentUpToPhase {
        /// Relative global phase in radians.
        phase: f64,
        /// Max entry deviation after removing the phase.
        max_deviation: f64,
    },
    /// Matrices differ beyond tolerance; carries the best-case deviation.
    Different {
        /// Max entry deviation after the best phase alignment attempt.
        max_deviation: f64,
    },
    /// Shapes do not match, so no comparison is possible.
    ShapeMismatch,
}

impl Equivalence {
    /// Whether the comparison found the unitaries equivalent.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Equivalence::EquivalentUpToPhase { .. })
    }
}

/// Compares two unitaries up to global phase with entry-wise tolerance `tol`.
///
/// # Examples
///
/// ```
/// use weaver_simulator::{equiv, gates, Complex};
/// let a = gates::rz(1.0);
/// let b = gates::p(1.0); // differs from RZ(1) by a global phase
/// assert!(equiv::compare(&a, &b, 1e-10).is_equivalent());
/// ```
pub fn compare(a: &Matrix, b: &Matrix, tol: f64) -> Equivalence {
    if a.rows() != b.rows() || a.cols() != b.cols() || !a.is_square() {
        return Equivalence::ShapeMismatch;
    }
    compare_amplitudes(a.as_slice(), b.as_slice(), b.as_slice().len(), tol)
}

/// Compares two amplitude vectors up to one global phase with entry-wise
/// tolerance `tol`. The phase is read off the largest-magnitude entry of
/// `b[..anchor]` (dividing by a numerically tiny entry would amplify its
/// rounding); if that whole prefix is numerically zero, `b` counts as zero
/// and the vectors are equal only if `a` is too. [`compare`] anchors on
/// the whole matrix; the wChecker anchors on its first stimulus.
///
/// Returns [`Equivalence::ShapeMismatch`] if the lengths differ.
///
/// # Examples
///
/// ```
/// use weaver_simulator::{equiv, Complex};
/// let b = [Complex::ONE, Complex::I, Complex::new(0.6, 0.8)];
/// let a: Vec<Complex> = b.iter().map(|&z| z * Complex::from_polar(0.5)).collect();
/// assert!(equiv::compare_amplitudes(&a, &b, 1, 1e-12).is_equivalent());
/// ```
pub fn compare_amplitudes(a: &[Complex], b: &[Complex], anchor: usize, tol: f64) -> Equivalence {
    if a.len() != b.len() {
        return Equivalence::ShapeMismatch;
    }
    // Find the entry of largest magnitude in the anchor range of b to
    // anchor the phase estimate.
    let mut best = 0usize;
    let mut best_mag = -1.0;
    for (i, z) in b[..anchor.min(b.len())].iter().enumerate() {
        let m = z.norm_sqr();
        if m > best_mag {
            best_mag = m;
            best = i;
        }
    }
    if best_mag <= tol * tol {
        // b is numerically zero; equal only if a is too.
        let dev = a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        return if dev <= tol {
            Equivalence::EquivalentUpToPhase {
                phase: 0.0,
                max_deviation: dev,
            }
        } else {
            Equivalence::Different { max_deviation: dev }
        };
    }
    let ratio = a[best] / b[best];
    let phase = ratio.arg();
    // Deviation after phase alignment, computed entry-wise without
    // materializing the rotated vector.
    let w = Complex::from_polar(phase);
    let max_deviation = a
        .iter()
        .zip(b)
        .map(|(x, y)| (*x - *y * w).abs())
        .fold(0.0, f64::max);
    if max_deviation <= tol {
        Equivalence::EquivalentUpToPhase {
            phase,
            max_deviation,
        }
    } else {
        Equivalence::Different { max_deviation }
    }
}

/// Process fidelity `|Tr(A†B)|² / d²` between two same-sized unitaries,
/// 1.0 iff they are equal up to global phase.
///
/// # Panics
///
/// Panics if the shapes differ or the matrices are not square.
pub fn process_fidelity(a: &Matrix, b: &Matrix) -> f64 {
    assert!(a.is_square() && b.is_square(), "unitaries must be square");
    assert_eq!(a.rows(), b.rows(), "dimension mismatch");
    let d = a.rows() as f64;
    let tr = a.adjoint().matmul(b).trace();
    tr.norm_sqr() / (d * d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    const TOL: f64 = 1e-10;

    #[test]
    fn identical_matrices_are_equivalent() {
        let m = gates::u3(0.3, 0.8, -0.2);
        let e = compare(&m, &m, TOL);
        assert!(e.is_equivalent());
        if let Equivalence::EquivalentUpToPhase { phase, .. } = e {
            assert!(phase.abs() < TOL);
        }
    }

    #[test]
    fn global_phase_is_ignored() {
        let m = gates::h();
        let rotated = m.scale(Complex::from_polar(1.234));
        let e = compare(&rotated, &m, TOL);
        assert!(e.is_equivalent());
        if let Equivalence::EquivalentUpToPhase { phase, .. } = e {
            assert!((phase - 1.234).abs() < 1e-9);
        }
    }

    #[test]
    fn different_gates_are_not_equivalent() {
        assert!(!compare(&gates::x(), &gates::z(), TOL).is_equivalent());
        assert!(!compare(&gates::cz(), &gates::cx(), TOL).is_equivalent());
    }

    #[test]
    fn shape_mismatch_detected() {
        assert_eq!(
            compare(&gates::x(), &gates::cx(), TOL),
            Equivalence::ShapeMismatch
        );
    }

    #[test]
    fn process_fidelity_extremes() {
        let f_same = process_fidelity(&gates::h(), &gates::h());
        assert!((f_same - 1.0).abs() < TOL);
        let f_phase = process_fidelity(&gates::rz(1.0), &gates::p(1.0));
        assert!((f_phase - 1.0).abs() < TOL);
        let f_diff = process_fidelity(&gates::x(), &gates::z());
        assert!(f_diff < 0.5);
    }

    #[test]
    fn near_miss_reports_deviation() {
        let a = gates::rx(0.5);
        let b = gates::rx(0.5 + 1e-3);
        match compare(&a, &b, 1e-8) {
            Equivalence::Different { max_deviation } => assert!(max_deviation > 1e-8),
            other => panic!("expected Different, got {other:?}"),
        }
    }
}
