//! Scaling benchmark for the figures sweep (`figures bench-figures`).
//!
//! Three measurements land in the tracked `BENCH_figures.json` baseline:
//!
//! 1. **Sweep scaling** — the whole [`SizeSweep`] batch at worker counts
//!    {1, 2, 4}: wall seconds, points/sec, speedup over one worker, and
//!    parallel efficiency. The ≥ 1.8× @ 4-workers acceptance gate only
//!    applies on machines with ≥ 4 cores; the JSON records the detected
//!    core count (`available_parallelism`) next to the rows so the guard
//!    can tell.
//! 2. **SABRE routing** — the optimized [`weaver_superconducting::sabre::route`]
//!    against the preserved reference implementation
//!    ([`sabre::route_reference`]) on ≥ 100-variable QAOA circuits routed
//!    onto `sc:eagle` (acceptance: ≥ 3× on this PR).
//! 3. **Clause coloring** — the CSR conflict graph + heap DSatur against
//!    the adjacency-list/argmax references at 250 variables (acceptance:
//!    ≥ 5×).
//!
//! The two hot-path measurements run old and new code in the same process
//! on identical inputs (the differential tests prove the outputs equal), so
//! the ratios are apples-to-apples and survive machine changes better than
//! absolute times.

use std::time::Instant;

use crate::harness::Suite;
use crate::sweep::SizeSweep;
use weaver_circuit::{native, NativeBasis};
use weaver_core::coloring;
use weaver_sat::{generator, qaoa};
use weaver_superconducting::{sabre, DeviceSpec};

/// One sweep-scaling measurement.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Worker threads requested.
    pub workers: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Sweep throughput in points per second.
    pub jobs_per_sec: f64,
    /// Throughput uplift over the 1-worker run.
    pub speedup: f64,
    /// `speedup / workers`.
    pub efficiency: f64,
}

/// One old-vs-new hot-path measurement (best-of-samples on both sides).
#[derive(Clone, Debug)]
pub struct HotPathBench {
    /// Stable identifier, e.g. `sabre_route_100v_eagle`.
    pub id: &'static str,
    /// Problem size in variables.
    pub vars: usize,
    /// Best wall seconds of the reference implementation.
    pub reference_seconds: f64,
    /// Best wall seconds of the optimized implementation.
    pub optimized_seconds: f64,
}

impl HotPathBench {
    /// Reference-over-optimized wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_seconds / self.optimized_seconds.max(1e-12)
    }
}

/// The full `bench-figures` result.
#[derive(Debug)]
pub struct FiguresBenchReport {
    /// Sizes the sweep covered.
    pub sizes: Vec<usize>,
    /// Variants per size.
    pub variants: usize,
    /// Total points per sweep run.
    pub jobs: usize,
    /// Summed per-job compile seconds by size (from the 1-worker run).
    pub per_size_seconds: Vec<(usize, f64)>,
    /// Summed self-time by lowering pass (from the 1-worker run).
    pub pass_seconds: Vec<(String, f64)>,
    /// Scaling rows for workers {1, 2, 4}.
    pub scaling: Vec<ScalingRow>,
    /// SABRE route old-vs-new.
    pub sabre: HotPathBench,
    /// Conflict-graph + DSatur old-vs-new.
    pub coloring: HotPathBench,
}

/// Runs the scaling sweep and both hot-path comparisons.
///
/// `samples` repetitions per hot-path side (best wall time wins). The
/// sweep itself runs once per worker count — it is the expensive part and
/// its job grid is deterministic, so one run per count is representative.
pub fn run(
    suite: &Suite,
    samples: usize,
    sabre_vars: usize,
    coloring_vars: usize,
) -> FiguresBenchReport {
    let samples = samples.max(1);

    let mut scaling = Vec::new();
    let mut base: Option<SizeSweep> = None;
    for workers in [1usize, 2, 4] {
        let sweep = SizeSweep::run(suite, workers);
        let base_wall = base.as_ref().map_or(sweep.wall_seconds, |b| b.wall_seconds);
        let speedup = base_wall / sweep.wall_seconds.max(1e-12);
        scaling.push(ScalingRow {
            workers,
            wall_seconds: sweep.wall_seconds,
            jobs_per_sec: sweep.jobs_per_sec(),
            speedup,
            efficiency: speedup / workers as f64,
        });
        if base.is_none() {
            base = Some(sweep);
        }
    }
    let base = base.expect("1-worker sweep ran");

    FiguresBenchReport {
        sizes: suite.sizes.clone(),
        variants: suite.variants,
        jobs: base.jobs(),
        per_size_seconds: base
            .per_size_seconds
            .iter()
            .map(|(&s, &t)| (s, t))
            .collect(),
        pass_seconds: base
            .pass_seconds
            .iter()
            .map(|(n, &t)| (n.clone(), t))
            .collect(),
        scaling,
        sabre: bench_sabre(sabre_vars, samples),
        coloring: bench_coloring(coloring_vars, samples),
    }
}

/// Times `sabre::route` against `sabre::route_reference` on the QAOA
/// circuit of `uf<vars>-01` nativized to {U3, CZ} and routed onto
/// `sc:eagle` (127 qubits — the largest paper size that fits).
fn bench_sabre(vars: usize, samples: usize) -> HotPathBench {
    let f = generator::instance(vars, 1);
    let circuit = native::nativize(
        &qaoa::build_circuit(&f, &Default::default(), false),
        NativeBasis::U3Cz,
    );
    let coupling = DeviceSpec::eagle().coupling();
    // Warm the process-global distance cache and the allocator before
    // timing either side.
    sabre::route(&circuit, &coupling).expect("eagle routes the QAOA circuit");

    let mut optimized = f64::INFINITY;
    let mut reference = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        let new = sabre::route(&circuit, &coupling).expect("route succeeds");
        optimized = optimized.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let old = sabre::route_reference(&circuit, &coupling).expect("reference route succeeds");
        reference = reference.min(start.elapsed().as_secs_f64());
        assert_eq!(
            new.circuit, old.circuit,
            "optimized SABRE must stay byte-identical"
        );
    }
    HotPathBench {
        id: "sabre_route_eagle",
        vars,
        reference_seconds: reference,
        optimized_seconds: optimized,
    }
}

/// Times CSR conflict-graph construction + heap DSatur against the
/// adjacency-list + argmax references on `uf<vars>-01`.
fn bench_coloring(vars: usize, samples: usize) -> HotPathBench {
    let f = generator::instance(vars, 1);
    let mut optimized = f64::INFINITY;
    let mut reference = f64::INFINITY;
    let mut new_colors = 0usize;
    let mut old_colors = 0usize;
    for _ in 0..samples {
        let start = Instant::now();
        let graph = coloring::conflict_graph(&f);
        let c = coloring::dsatur(&graph);
        optimized = optimized.min(start.elapsed().as_secs_f64());
        new_colors = c.num_colors;
        let start = Instant::now();
        let adjacency = coloring::conflict_graph_reference(&f);
        let c = coloring::dsatur_reference(&adjacency);
        reference = reference.min(start.elapsed().as_secs_f64());
        old_colors = c.num_colors;
    }
    assert_eq!(
        new_colors, old_colors,
        "heap DSatur must match the reference"
    );
    HotPathBench {
        id: "coloring_dsatur",
        vars,
        reference_seconds: reference,
        optimized_seconds: optimized,
    }
}

/// Renders the report as the `BENCH_figures.json` document.
pub fn to_json(report: &FiguresBenchReport, samples: usize) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"suite\": \"figures_batch\",\n");
    s.push_str("  \"metric\": \"wall_seconds\",\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&format!(
        "  \"sizes\": [{}],\n",
        report
            .sizes
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!("  \"variants\": {},\n", report.variants));
    s.push_str(&format!("  \"jobs\": {},\n", report.jobs));

    s.push_str("  \"per_size_seconds\": {");
    let cells: Vec<String> = report
        .per_size_seconds
        .iter()
        .map(|(size, t)| format!(" \"{size}\": {t:.6}"))
        .collect();
    s.push_str(&cells.join(","));
    s.push_str(" },\n");

    s.push_str("  \"pass_self_seconds\": {");
    let mut passes = report.pass_seconds.clone();
    passes.sort_by(|a, b| b.1.total_cmp(&a.1));
    let cells: Vec<String> = passes
        .iter()
        .map(|(name, t)| format!(" \"{name}\": {t:.6}"))
        .collect();
    s.push_str(&cells.join(","));
    s.push_str(" },\n");

    // The scaling rows only mean something against the host's core count.
    s.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    s.push_str("  \"scaling\": [\n");
    for (i, row) in report.scaling.iter().enumerate() {
        let comma = if i + 1 == report.scaling.len() {
            ""
        } else {
            ","
        };
        s.push_str(&format!(
            "    {{ \"workers\": {}, \"wall_seconds\": {:.6}, \"jobs_per_sec\": {:.2}, \
             \"speedup\": {:.2}, \"efficiency\": {:.2} }}{comma}\n",
            row.workers, row.wall_seconds, row.jobs_per_sec, row.speedup, row.efficiency
        ));
    }
    s.push_str("  ],\n");

    for (key, b) in [("sabre", &report.sabre), ("coloring", &report.coloring)] {
        s.push_str(&format!(
            "  \"{key}\": {{ \"id\": \"{}\", \"vars\": {}, \"reference_seconds\": {:.6}, \
             \"optimized_seconds\": {:.6}, \"speedup\": {:.2} }},\n",
            b.id,
            b.vars,
            b.reference_seconds,
            b.optimized_seconds,
            b.speedup()
        ));
    }
    s.push_str(&format!(
        "  \"sabre_speedup\": {:.2},\n  \"coloring_speedup\": {:.2}\n}}\n",
        report.sabre.speedup(),
        report.coloring.speedup()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_fpqa::FpqaParams;

    #[test]
    fn quick_report_runs_and_serializes() {
        let suite = Suite {
            sizes: vec![20],
            variants: 1,
            params: FpqaParams::default(),
        };
        // Small hot-path sizes keep the unit test fast; the committed
        // baseline uses 100/250 variables via `figures bench-figures`.
        let report = run(&suite, 1, 30, 50);
        assert_eq!(report.scaling.len(), 3);
        assert_eq!(report.scaling[0].workers, 1);
        assert!((report.scaling[0].speedup - 1.0).abs() < 1e-9);
        assert!(report.sabre.optimized_seconds > 0.0);
        assert!(report.coloring.optimized_seconds > 0.0);
        let json = to_json(&report, 1);
        assert!(json.contains("\"figures_batch\""));
        assert!(json.contains("\"scaling\""));
        assert!(json.contains("\"available_parallelism\""));
        assert!(json.contains("\"sabre_speedup\""));
        assert!(json.contains("\"coloring_speedup\""));
        assert!(json.contains("\"pass_self_seconds\""));
    }
}
