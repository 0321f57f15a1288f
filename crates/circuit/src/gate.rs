//! The gate vocabulary of the Weaver IR.
//!
//! The set mirrors what the paper's toolchain manipulates: the nativization
//! basis `{U3, CZ}` (§7), the FPQA-native multi-controlled-Z family produced
//! by Rydberg pulses, and the common algorithm-level gates (`H`, rotations,
//! `CX`, `CCX`, …) that appear in QAOA circuits before lowering.

use std::fmt;
use std::ops::Deref;
use weaver_simulator::{gates as mat, Mat2, Matrix};

/// A quantum gate (unitary operation). Qubit arity is intrinsic to the
/// variant; the qubits it acts on live in
/// [`Instruction`](crate::Instruction).
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = √Z.
    S,
    /// Inverse phase gate S†.
    Sdg,
    /// T = √S.
    T,
    /// T†.
    Tdg,
    /// Rotation about X by the contained angle (radians).
    Rx(f64),
    /// Rotation about Y.
    Ry(f64),
    /// Rotation about Z.
    Rz(f64),
    /// Phase gate `P(λ) = diag(1, e^{iλ})`.
    P(f64),
    /// Generic single-qubit gate `U3(θ, φ, λ)` (OpenQASM convention).
    U3(f64, f64, f64),
    /// Controlled-X; qubit order `[control, target]`.
    Cx,
    /// Controlled-Z (symmetric).
    Cz,
    /// Controlled-RZ; qubit order `[control, target]`.
    Crz(f64),
    /// SWAP.
    Swap,
    /// Toffoli; qubit order `[control, control, target]`.
    Ccx,
    /// Doubly-controlled Z (symmetric) — FPQA-native via Rydberg pulse.
    Ccz,
    /// `n`-controlled Z on `n + 1` qubits (`CnZ(1) ≡ Cz`, `CnZ(2) ≡ Ccz`).
    CnZ(usize),
}

impl Gate {
    /// Number of qubits the gate acts on.
    pub fn num_qubits(&self) -> usize {
        match self {
            Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::H
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::P(_)
            | Gate::U3(..) => 1,
            Gate::Cx | Gate::Cz | Gate::Crz(_) | Gate::Swap => 2,
            Gate::Ccx | Gate::Ccz => 3,
            Gate::CnZ(n) => n + 1,
        }
    }

    /// Lower-case OpenQASM-style mnemonic.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::P(_) => "p",
            Gate::U3(..) => "u3",
            Gate::Cx => "cx",
            Gate::Cz => "cz",
            Gate::Crz(_) => "crz",
            Gate::Swap => "swap",
            Gate::Ccx => "ccx",
            Gate::Ccz => "ccz",
            Gate::CnZ(_) => "cnz",
        }
    }

    /// The gate's unitary matrix (`2^k × 2^k`).
    pub fn matrix(&self) -> Matrix {
        if let Some(m) = self.mat2() {
            return m.into();
        }
        match *self {
            Gate::Cx => mat::cx(),
            Gate::Cz => mat::cz(),
            Gate::Crz(t) => mat::crz(t),
            Gate::Swap => mat::swap(),
            Gate::Ccx => mat::ccx(),
            Gate::Ccz => mat::ccz(),
            Gate::CnZ(n) => mat::cnz(n),
            ref g => unreachable!("1-qubit gate {g} has a 2×2 matrix"),
        }
    }

    /// The `2 × 2` matrix of a single-qubit gate, on the stack (`None` for
    /// multi-qubit gates). [`Gate::matrix`] converts the same value.
    pub fn mat2(&self) -> Option<Mat2> {
        Some(match *self {
            Gate::X => Mat2::x(),
            Gate::Y => Mat2::y(),
            Gate::Z => Mat2::z(),
            Gate::H => Mat2::h(),
            Gate::S => Mat2::s(),
            Gate::Sdg => Mat2::sdg(),
            Gate::T => Mat2::t(),
            Gate::Tdg => Mat2::tdg(),
            Gate::Rx(t) => Mat2::rx(t),
            Gate::Ry(t) => Mat2::ry(t),
            Gate::Rz(t) => Mat2::rz(t),
            Gate::P(l) => Mat2::p(l),
            Gate::U3(t, p, l) => Mat2::u3(t, p, l),
            _ => return None,
        })
    }

    /// The inverse gate, as a gate (not a matrix).
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            Gate::P(l) => Gate::P(-l),
            Gate::U3(t, p, l) => Gate::U3(-t, -l, -p),
            Gate::Crz(t) => Gate::Crz(-t),
            ref g => g.clone(), // self-inverse gates
        }
    }

    /// Whether the gate is diagonal in the computational basis (commutes
    /// with every other diagonal gate).
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::P(_)
                | Gate::Cz
                | Gate::Crz(_)
                | Gate::Ccz
                | Gate::CnZ(_)
        )
    }

    /// Whether all qubit operands are interchangeable (e.g. `CZ`, `CCZ`).
    pub fn is_symmetric(&self) -> bool {
        matches!(self, Gate::Cz | Gate::Ccz | Gate::CnZ(_) | Gate::Swap)
    }

    /// The rotation/phase parameters of the gate, if any.
    pub fn params(&self) -> GateParams {
        let (values, len) = match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::P(t) | Gate::Crz(t) => {
                ([t, 0.0, 0.0], 1)
            }
            Gate::U3(t, p, l) => ([t, p, l], 3),
            _ => ([0.0; 3], 0),
        };
        GateParams { values, len }
    }
}

/// A gate's parameters, held inline (a gate has at most three); derefs to
/// the `[f64]` slice of them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GateParams {
    values: [f64; 3],
    len: usize,
}

impl Deref for GateParams {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) | Gate::P(t) | Gate::Crz(t) => {
                write!(f, "{}({:.6})", self.name(), t)
            }
            Gate::U3(t, p, l) => write!(f, "u3({t:.6},{p:.6},{l:.6})"),
            Gate::CnZ(n) => write!(f, "c{n}z"),
            _ => write!(f, "{}", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_simulator::equiv;

    const TOL: f64 = 1e-10;

    #[test]
    fn arity_matches_matrix_dimension() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::Rz(0.3),
            Gate::U3(0.1, 0.2, 0.3),
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Ccx,
            Gate::Ccz,
            Gate::CnZ(3),
        ];
        for g in gates {
            assert_eq!(g.matrix().rows(), 1 << g.num_qubits(), "{g}");
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let gates = [
            Gate::X,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Rx(0.7),
            Gate::Ry(-1.2),
            Gate::Rz(2.9),
            Gate::P(0.4),
            Gate::U3(0.5, 1.5, -0.5),
            Gate::Cx,
            Gate::Crz(0.8),
            Gate::Ccz,
        ];
        for g in gates {
            let m = &g.matrix() * &g.inverse().matrix();
            let id = Matrix::identity(m.rows());
            assert!(
                equiv::compare(&m, &id, TOL).is_equivalent(),
                "inverse failed for {g}"
            );
        }
    }

    #[test]
    fn diagonal_gates_have_diagonal_matrices() {
        for g in [
            Gate::Z,
            Gate::T,
            Gate::Rz(0.6),
            Gate::Cz,
            Gate::Ccz,
            Gate::CnZ(3),
        ] {
            assert!(g.is_diagonal());
            let m = g.matrix();
            for r in 0..m.rows() {
                for c in 0..m.cols() {
                    if r != c {
                        assert!(m[(r, c)].is_zero(TOL), "{g} not diagonal at ({r},{c})");
                    }
                }
            }
        }
        assert!(!Gate::X.is_diagonal());
        assert!(!Gate::Cx.is_diagonal());
    }

    #[test]
    fn cnz_generalizes_cz_and_ccz() {
        assert!(Gate::CnZ(1).matrix().approx_eq(&Gate::Cz.matrix(), TOL));
        assert!(Gate::CnZ(2).matrix().approx_eq(&Gate::Ccz.matrix(), TOL));
    }

    #[test]
    fn display_includes_parameters() {
        assert_eq!(Gate::X.to_string(), "x");
        assert!(Gate::Rz(0.5).to_string().starts_with("rz(0.5"));
        assert_eq!(Gate::CnZ(4).to_string(), "c4z");
    }
}
