//! **weaver-core** — the Weaver retargetable compiler (the paper's primary
//! contribution): the wOptimizer pass pipeline, wQasm code generation, and
//! the wChecker equivalence checker.
//!
//! * [`backend`] — the retargetable [`Backend`] trait, the per-target pass
//!   manager, and the [`BackendRegistry`] every dispatch site goes through,
//! * [`frontend`] — the mirror-image [`Frontend`] trait and
//!   [`FrontendRegistry`]: pluggable workload ingestion (DIMACS/WCNF,
//!   max-cut edge lists, direct wQasm) into the unified [`Workload`] IR,
//! * [`cache`] — content hashing (BLAKE2s) for artifact keys,
//! * [`coloring`] — clause coloring via DSatur (§5.2, Algorithm 1),
//! * [`plan`] — site geometry and parallel shuttle batching (§5.3,
//!   Algorithm 2),
//! * [`compress`] — 3-qubit gate compression (§5.4, Fig. 7),
//! * [`codegen`] — annotated wQasm + pulse-schedule emission,
//! * [`checker`] — the wChecker (§6, Fig. 9),
//! * [`pipeline`] — the retargetable entry point ([`Weaver`]).
//!
//! # Example
//!
//! Compile a benchmark down both paths and verify the FPQA output:
//!
//! ```
//! use weaver_core::{Weaver, Workload};
//! use weaver_sat::generator;
//!
//! let workload = Workload::MaxSat(generator::instance(20, 1));
//! let weaver = Weaver::new();
//!
//! let fpqa = weaver.compile_workload("fpqa", &workload).unwrap();
//! assert!(weaver.verify(&fpqa, &workload).unwrap().passed());
//!
//! // SABRE onto the 127-qubit IBM Washington map.
//! let sc = weaver.compile_workload("superconducting", &workload).unwrap();
//! assert!(fpqa.metrics.eps > sc.metrics.eps);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod checker;
pub mod codegen;
pub mod coloring;
pub mod compress;
pub mod frontend;
pub mod pipeline;
pub mod plan;

pub use backend::{
    Backend, BackendError, BackendInfo, BackendRegistry, CompileOutput, CompiledArtifact, PassStat,
};
pub use cache::{Digest, Fingerprint};
pub use checker::{check, CheckReport};
pub use codegen::{CodegenOptions, CompiledFpqa};
pub use frontend::{
    Frontend, FrontendError, FrontendInfo, FrontendRegistry, Workload, WorkloadKind,
};
pub use pipeline::{Metrics, Weaver};
