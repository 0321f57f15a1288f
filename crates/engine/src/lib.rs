//! **weaver-engine** — a throughput-oriented batch layer above
//! `weaver-core`: where the core pipeline compiles one formula per call,
//! the engine compiles whole suites of Max-3SAT instances across all cores
//! and memoizes finished artifacts content-addressed, so repeated or
//! overlapping jobs hit the cache instead of recompiling.
//!
//! * [`job`] — the job model: a [`CompileJob`] is *workload source ×
//!   target × options*, and a [`JobResult`] carries the artifact, cache
//!   outcome, and per-stage timings,
//! * [`pool`] — a work-stealing thread-pool driver with deterministic,
//!   order-independent results,
//! * [`cache`] — the content-addressed [`ArtifactCache`]: an in-memory LRU
//!   tier plus an optional on-disk tier, keyed by BLAKE2s-256 over the
//!   canonical formula, target parameters, options, and compiler version;
//!   it is the only cache, so a miss compiles (and checks) from scratch,
//! * [`manifest`] — job discovery from a fixture directory or a manifest
//!   file,
//! * [`jsonl`] — structured JSONL result streaming for `crates/bench` and
//!   external consumers,
//! * [`server`] — the `weaverd` compile daemon: a framed JSON protocol
//!   over Unix sockets or TCP that multiplexes concurrent clients onto
//!   the worker pool while the caches stay hot across requests,
//! * [`engine`] — the [`Engine`] driver tying it all together.
//!
//! # Example
//!
//! ```
//! use weaver_engine::{CompileJob, Engine, EngineConfig, JobSource};
//! use weaver_sat::generator;
//!
//! let engine = Engine::new(EngineConfig::default());
//! let jobs: Vec<CompileJob> = (1..=4)
//!     .map(|v| CompileJob::from_formula(format!("uf10-{v:02}"), generator::instance(10, v)))
//!     .collect();
//! let cold = engine.run(jobs.clone());
//! assert_eq!(cold.succeeded(), 4);
//! let warm = engine.run(jobs);
//! assert_eq!(warm.cache_hits(), 4, "identical jobs must hit the cache");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod job;
pub mod jsonl;
pub mod manifest;
pub mod pool;
pub mod server;
pub mod store;

pub use cache::{ArtifactCache, CacheConfig, CacheTierStats};
pub use engine::{job_record, job_record_fields, BatchReport, Engine, EngineConfig};
pub use job::{
    Artifact, CacheOutcome, CompileJob, JobError, JobErrorKind, JobOptions, JobResult, JobSource,
    PassTiming, StageTimings, Target,
};
pub use manifest::discover_jobs;
pub use server::{ClientStream, ListenAddr, Server, ServerConfig};
