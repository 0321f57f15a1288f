//! `weaver-obs` — unified observability for the Weaver compiler stack.
//!
//! Three dependency-free building blocks shared by every layer of the
//! workspace (pass manager, batch engine, artifact cache, paged store,
//! backends, CLI):
//!
//! * [`span`] — hierarchical RAII span tracing with per-thread buffers,
//!   exportable as Chrome `chrome://tracing` JSON or flat JSONL. Near
//!   zero-cost while disabled (one relaxed atomic load per span site).
//! * [`metrics`] — a process-global registry of counters, gauges, and
//!   fixed-bucket latency histograms with a Prometheus
//!   exposition-format snapshot.
//! * [`log`] — a leveled, warn-once-capable logger controlled by
//!   `WEAVER_LOG`.
//!
//! The crate also owns [`PassRecord`], the canonical per-pass timing
//! struct that unifies the old `weaver_core::backend::PassStat` /
//! `weaver_engine::PassTiming` duplicates.
//!
//! # Examples
//!
//! ```
//! use weaver_obs::{metrics, span};
//!
//! span::set_enabled(true);
//! {
//!     let _s = span::span("pass", "example-pass");
//!     metrics::counter("lib_doctest_passes_total", "Passes run.").inc();
//! }
//! let trace = span::take();
//! assert!(trace.spans.iter().any(|s| s.name == "example-pass"));
//! assert!(metrics::snapshot().contains("lib_doctest_passes_total 1"));
//! ```

#![warn(missing_docs)]

pub mod log;
pub mod metrics;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram};
pub use span::{SpanGuard, Trace};

use std::fmt::Write as _;

/// Escapes a string for a JSON string literal (no surrounding quotes): the
/// one escaper behind the span exporters and the engine's JSONL records.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Canonical per-pass timing record, shared by the core pass manager and
/// the engine's on-disk artifact format.
///
/// Field names and meanings match both of the structs it replaces, so the
/// `weaver-artifact 2` serialization (`name seconds steps` lines) stays
/// byte-stable.
///
/// # Examples
///
/// ```
/// let rec = weaver_obs::PassRecord {
///     name: "sabre-transpile".to_string(),
///     seconds: 0.0021,
///     steps: 42,
/// };
/// assert_eq!(rec.name, "sabre-transpile");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PassRecord {
    /// Pass name as registered with the pass manager.
    pub name: String,
    /// Wall-clock duration of the pass in seconds.
    pub seconds: f64,
    /// Pass-defined work measure (gates touched, swaps inserted, …).
    pub steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_control_and_quote_characters() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }
}
