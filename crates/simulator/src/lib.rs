//! Dense quantum simulation substrate for the Weaver compiler framework.
//!
//! This crate provides the numerical foundations that the rest of the
//! workspace builds on:
//!
//! * [`Complex`] — a dependency-free `f64` complex scalar,
//! * [`Matrix`] — dense complex matrices with Kronecker products,
//! * [`Mat2`] — a stack `2 × 2` matrix for single-qubit gate algebra,
//!   bit-identical to the same computation on [`Matrix`],
//! * [`gates`] — the standard gate matrices (Paulis, rotations, `U3`, `CZ`,
//!   `CCZ`, `CⁿZ`, …),
//! * [`State`] — a state-vector simulator for functional testing,
//! * [`kernels`] — stride-based specialized gate-application kernels shared
//!   by [`State`] and [`UnitaryBuilder`],
//! * [`UnitaryBuilder`] — materializes whole-register unitaries by fusing
//!   the gate sequence into a short plan of kernel passes,
//! * [`equiv`] — global-phase-insensitive comparison of unitaries and of
//!   amplitude vectors, used by the wChecker (paper §6).
//!
//! # Example
//!
//! Verify that `H·CZ·H` on the target implements a CNOT:
//!
//! ```
//! use weaver_simulator::{equiv, gates, UnitaryBuilder};
//!
//! let mut b = UnitaryBuilder::new(2);
//! b.apply(&gates::h(), &[1]);
//! b.apply(&gates::cz(), &[0, 1]);
//! b.apply(&gates::h(), &[1]);
//! assert!(equiv::compare(&b.finish(), &gates::cx(), 1e-10).is_equivalent());
//! ```

#![warn(missing_docs)]

mod complex;
pub mod equiv;
pub mod gates;
pub mod kernels;
mod mat2;
mod matrix;
mod state;
mod unitary;

pub use complex::Complex;
pub use equiv::Equivalence;
pub use mat2::Mat2;
pub use matrix::Matrix;
pub use state::State;
pub use unitary::UnitaryBuilder;
