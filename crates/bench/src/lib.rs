//! Benchmark harness regenerating every table and figure of the Weaver
//! paper's evaluation (§8). The `figures` binary drives this library; see
//! EXPERIMENTS.md for the experiment index.

#![warn(missing_docs)]

pub mod enginebench;
pub mod figures;
pub mod figuresbench;
pub mod harness;
pub mod simbench;
pub mod sweep;

pub use harness::{run_compiler, run_point, CompilerId, RunOutcome, Suite};
pub use sweep::SizeSweep;
