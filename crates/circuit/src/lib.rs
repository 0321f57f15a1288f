//! Quantum circuit intermediate representation for the Weaver compiler
//! framework.
//!
//! This crate is the hardware-agnostic layer of the stack (paper §3a):
//!
//! * [`Gate`] — the gate vocabulary, including the FPQA-native `CⁿZ` family,
//! * [`Circuit`] / [`Instruction`] / [`Operation`] — the ordered IR,
//! * [`DependencyDag`] — the dependency graph that defines legal parallelism,
//! * [`euler`] — Euler-angle (`U3`) extraction for 1-qubit fusion,
//! * [`decompose`] — textbook gate decompositions,
//! * [`native`] — lowering to the native basis `{U3, CZ}` (± `CCZ`),
//! * [`optimize`] — peephole cleanup after lowering.
//!
//! # Example
//!
//! Build a QAOA-style fragment, nativize it for the FPQA path, and confirm
//! the lowering is equivalence-preserving:
//!
//! ```
//! use weaver_circuit::{native, Circuit, NativeBasis};
//! use weaver_simulator::equiv;
//!
//! let mut c = Circuit::new(3);
//! c.h(0).h(1).h(2);
//! c.ccz(0, 1, 2);
//! c.cx(0, 1).rz(0.8, 1).cx(0, 1);
//!
//! let nativized = native::nativize(&c, NativeBasis::U3CzCcz);
//! assert!(equiv::compare(&c.unitary(), &nativized.unitary(), 1e-9).is_equivalent());
//! ```

#![warn(missing_docs)]

mod circuit;
mod dag;
pub mod decompose;
pub mod euler;
mod gate;
pub mod native;
pub mod optimize;

pub use circuit::{Circuit, Instruction, Operation};
pub use dag::DependencyDag;
pub use gate::{Gate, GateParams};
pub use native::NativeBasis;
