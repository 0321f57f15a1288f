//! `paper-sweep`: the paper's grid of sizes × seeded instances × the five
//! systems, each point one `run_compiler` call, fanned out on the
//! engine's pool with two workers and no cache.

use crate::inputs::{self, Point};
use crate::trace::{self, Tracer};
use crate::{stats, Report, WORKERS};
use std::time::Instant;
use weaver_baselines::{dpqa, Atomique, Dpqa, FpqaCompiler, Geyser};
use weaver_bench::{run_compiler, CompilerId};
use weaver_core::coloring::conflict_graph;
use weaver_core::{BackendRegistry, FrontendRegistry, Weaver};
use weaver_engine::pool;
use weaver_fpqa::FpqaParams;
use weaver_sat::Formula;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Instances per size for a run of `seconds`: a 50 s run compiles 7 of
/// the paper's 10, which takes 23–32 s on two workers of a 2-vCPU Xeon
/// and leaves room for the set-up within the run.
fn per_size(seconds: f64) -> usize {
    ((seconds / 7.0).round() as usize).clamp(1, 10)
}

struct Item {
    point: Point,
    formula: Formula,
}

/// Generates the points' instances and builds the backend and frontend
/// registries: what a user of the sweep pays before the first point.
fn set_up(points: &[Point]) -> Vec<Item> {
    let items = points
        .iter()
        .map(|point| Item {
            formula: point.formula(),
            point: point.clone(),
        })
        .collect();
    BackendRegistry::global();
    std::hint::black_box(BackendRegistry::with_default_targets());
    std::hint::black_box(FrontendRegistry::with_default_frontends());
    items
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let k = if traced {
        per_size(seconds / 3.0)
    } else {
        per_size(seconds)
    };
    // Choosing the points (which probes DPQA) is the benchmark's own work
    // and stays outside the timed set-up.
    let points = inputs::sweep_points(seed, k);
    let mut setups = Vec::new();
    let mut items = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        items = set_up(&points);
        setups.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    let params = FpqaParams::default();

    // Timed phase: every point through `run_compiler`, timed from outside.
    let start = Instant::now();
    let results = pool::run_jobs(items.iter().collect(), WORKERS, |_, item: &Item| {
        run_compiler(item.point.system, &item.formula, &params)
    });
    let wall = start.elapsed().as_secs_f64();

    for (item, outcome) in items.iter().zip(&results) {
        report.attempted += 1;
        let p = &item.point;
        if let Err(e) = crate::checks::sweep_outcome(p.system, p.size, outcome) {
            report.fail(e);
        }
    }
    let done = || {
        items
            .iter()
            .zip(&results)
            .filter_map(|(item, outcome)| outcome.metrics().map(|m| (item, m)))
    };
    report.set("jobs_per_s", items.len() as f64 / wall);
    report.set(
        "exec_us",
        stats::geomean(done().map(|(_, m)| m.execution_micros)).unwrap_or(0.0),
    );
    report.set(
        "eps",
        stats::eps_per_qubit(done().map(|(item, m)| (m.eps, item.point.size))).unwrap_or(0.0),
    );
    report.set("peak_rss_mb", crate::peak_rss_mb("self").unwrap_or(0.0));
    report.notes.push(format!(
        "paper-sweep: {} points ({k} instances per size) in {wall:.3} s on {WORKERS} workers",
        items.len()
    ));

    if traced {
        // The timed pass above is this process's untraced measurement.
        let traced_wall = replay(&mut report, &items, &params, seed);
        report.set("trace_overhead_share", traced_wall / wall - 1.0);
    }
    Ok(report)
}

/// The traced replay: the calls `run_compiler` makes, each in a span, on
/// the same two-worker pool; then DPQA's exact search alone on each
/// 20-variable point (outside the traced wall time). Returns the traced
/// wall time.
fn replay(report: &mut Report, items: &[Item], params: &FpqaParams, seed: u64) -> f64 {
    let tracer = Tracer::new(true);
    let start = Instant::now();
    let outputs = pool::run_jobs(items.iter().collect(), WORKERS, |index, item: &Item| {
        let id = index as u64;
        tracer.time("point", id, None, |root| {
            let f = &item.formula;
            match item.point.system {
                CompilerId::Weaver | CompilerId::Superconducting => {
                    let (weaver, target) = if item.point.system == CompilerId::Weaver {
                        (Weaver::new().with_fpqa_params(params.clone()), "fpqa")
                    } else {
                        (Weaver::new(), "superconducting")
                    };
                    let out = tracer.time_with_children(
                        "compile",
                        id,
                        root,
                        || weaver.compile_target(target, f),
                        |out| trace::pass_spans(out.as_ref().ok()),
                    );
                    out.ok().map(|o| {
                        let steps: Vec<(&'static str, u64)> =
                            o.passes.iter().map(|p| (p.name, p.steps)).collect();
                        (steps, o.artifact.swap_count().unwrap_or(0))
                    })
                }
                CompilerId::Atomique => {
                    let a = Atomique::new(params.clone());
                    let _ = tracer.time("atomique", id, root, |_| a.compile(f));
                    None
                }
                CompilerId::Dpqa => {
                    let d = Dpqa::new(params.clone());
                    let _ = tracer.time("dpqa", id, root, |_| d.compile(f));
                    None
                }
                CompilerId::Geyser => {
                    let g = Geyser::new(params.clone());
                    let _ = tracer.time("geyser", id, root, |_| g.compile(f));
                    None
                }
            }
        })
    });
    let wall = start.elapsed().as_secs_f64();
    for (steps, swaps) in outputs.into_iter().flatten() {
        report.add("sabre.swaps", swaps as f64);
        report.add_pass_steps(steps);
    }
    let spans = tracer.into_spans();
    let b = trace::breakdown(&spans, WORKERS, wall);
    for (metric, seconds) in &b.layers {
        report.set(metric, *seconds);
    }
    report.set("pool.idle_s", b.pool_idle);
    report.set("unattributed_share", b.unattributed_share);
    crate::write_trace(report, "paper-sweep", seed, &spans);

    // DPQA's anytime exact search by itself, on every 20-variable point.
    let budget = Dpqa::new(params.clone()).node_budget;
    for item in items
        .iter()
        .filter(|i| i.point.system == CompilerId::Dpqa && i.point.size == 20)
    {
        let graph = conflict_graph(&item.formula);
        let t = Instant::now();
        let (_, nodes, proven) = dpqa::anytime_coloring(&graph, budget);
        report.add("dpqa.search_s", t.elapsed().as_secs_f64());
        report.add("dpqa.nodes", nodes as f64);
        report.add("dpqa.unproven", if proven { 0.0 } else { 1.0 });
    }
    wall
}
