//! Figures from one job list: expands the paper's size sweep ({20..250}
//! variables × 10 seeds × all five systems) into one list of points and
//! runs it on `weaver-engine`'s [`pool::run_jobs`], so every figure table
//! is reassembled from one deterministic batch instead of recompiling each
//! point inline.
//!
//! Each point is one [`run_point`] call, the same call the inline figures
//! and [`crate::run_compiler`] make: Weaver and the superconducting baseline
//! compile through the backend registry, and the three FPQA baselines
//! through their [`weaver_baselines::FpqaCompiler`] interface. The list
//! runs largest size first, so the longest points start first and no long
//! straggler is left for the end, and one `--jobs N` knob scales the whole
//! evaluation. Results land in a point map keyed by *(system, size,
//! variant)*; because the pool returns submission-ordered,
//! scheduling-independent results, the reassembled tables are
//! byte-identical across worker counts.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::harness::{run_point, CompilerId, RunOutcome, Suite};
use weaver_core::Metrics;
use weaver_engine::pool;
use weaver_sat::generator;

/// The paper's evaluation, precompiled as one batch.
///
/// Construction runs every *(system, size, variant)* point of the suite
/// exactly once; the figure renderers in [`crate::figures`] then read the
/// cached outcomes instead of invoking compilers themselves.
#[derive(Debug)]
pub struct SizeSweep {
    suite: Suite,
    outcomes: HashMap<(CompilerId, usize, usize), RunOutcome>,
    /// End-to-end wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Worker threads used (resolved: `0` becomes the core count).
    pub workers: usize,
    /// Summed per-point `compilation_seconds` by size, across all systems
    /// — the per-size cost profile of the sweep (CPU seconds, not wall).
    pub per_size_seconds: BTreeMap<usize, f64>,
    /// Summed self-time by lowering pass, aggregated over the pass records
    /// of every Weaver and superconducting point.
    pub pass_seconds: BTreeMap<String, f64>,
}

impl SizeSweep {
    /// Runs the whole suite on `workers` threads (`0` = all cores).
    ///
    /// Every point compiles from scratch: no cache sits in front of the
    /// compilers.
    pub fn run(suite: &Suite, workers: usize) -> SizeSweep {
        let start = Instant::now();
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            workers
        };

        let mut sizes = suite.sizes.clone();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let mut points = Vec::new();
        for size in sizes {
            for variant in 1..=suite.variants {
                for id in CompilerId::ALL {
                    points.push((id, size, variant));
                }
            }
        }
        let params = &suite.params;
        let results = pool::run_jobs(points.clone(), workers, |_, (id, size, variant)| {
            run_point(id, &generator::instance(size, variant), params)
        });

        let mut outcomes = HashMap::new();
        let mut per_size_seconds: BTreeMap<usize, f64> =
            suite.sizes.iter().map(|&s| (s, 0.0)).collect();
        let mut pass_seconds: BTreeMap<String, f64> = BTreeMap::new();
        for (key, (outcome, passes)) in points.into_iter().zip(results) {
            if let Some(m) = outcome.metrics() {
                *per_size_seconds.entry(key.1).or_insert(0.0) += m.compilation_seconds;
            }
            for pass in passes {
                *pass_seconds.entry(pass.name.to_string()).or_insert(0.0) += pass.seconds;
            }
            outcomes.insert(key, outcome);
        }

        SizeSweep {
            suite: suite.clone(),
            outcomes,
            wall_seconds: start.elapsed().as_secs_f64(),
            workers,
            per_size_seconds,
            pass_seconds,
        }
    }

    /// The suite this sweep ran.
    pub fn suite(&self) -> &Suite {
        &self.suite
    }

    /// Total points in the sweep.
    pub fn jobs(&self) -> usize {
        self.outcomes.len()
    }

    /// Sweep throughput in points per second.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.jobs() as f64 / self.wall_seconds
        } else {
            f64::INFINITY
        }
    }

    /// The outcome of one point; points outside the sweep grid render as
    /// not-applicable, mirroring the paper's `—` cells.
    pub fn outcome(&self, id: CompilerId, size: usize, variant: usize) -> RunOutcome {
        self.outcomes
            .get(&(id, size, variant))
            .cloned()
            .unwrap_or_else(|| RunOutcome::NotApplicable("point not in sweep".to_string()))
    }

    /// Geometric mean of a metric over the suite's variants at one size;
    /// `None` if any variant failed (the paper then marks the point ✗).
    /// Same semantics as [`Suite::mean_at_size`], read from the batch.
    pub fn mean_at_size(
        &self,
        id: CompilerId,
        size: usize,
        metric: impl Fn(&Metrics) -> f64,
    ) -> Option<f64> {
        let mut acc = 0.0f64;
        for variant in 1..=self.suite.variants {
            match self.outcome(id, size, variant) {
                RunOutcome::Done(m) => acc += metric(&m).max(1e-300).ln(),
                _ => return None,
            }
        }
        Some((acc / self.suite.variants as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_compiler;
    use weaver_fpqa::FpqaParams;

    fn tiny() -> Suite {
        Suite {
            sizes: vec![20],
            variants: 2,
            params: FpqaParams::default(),
        }
    }

    #[test]
    fn sweep_covers_every_point() {
        let sweep = SizeSweep::run(&tiny(), 1);
        assert_eq!(sweep.jobs(), 10, "2 variants × 5 systems");
        for id in CompilerId::ALL {
            for variant in 1..=2 {
                assert!(
                    sweep.outcome(id, 20, variant).metrics().is_some(),
                    "{} must complete uf20-{variant:02}",
                    id.name()
                );
            }
        }
        assert!(sweep.wall_seconds > 0.0);
        assert!(sweep.per_size_seconds[&20] > 0.0);
        assert!(
            !sweep.pass_seconds.is_empty(),
            "Weaver and superconducting points carry pass records"
        );
    }

    #[test]
    fn sweep_matches_inline_run_compiler() {
        let suite = tiny();
        let sweep = SizeSweep::run(&suite, 2);
        for id in CompilerId::ALL {
            let inline = run_compiler(id, &generator::instance(20, 1), &suite.params);
            let batched = sweep.outcome(id, 20, 1);
            let (Some(a), Some(b)) = (inline.metrics(), batched.metrics()) else {
                panic!("{} must complete uf20-01 both ways", id.name());
            };
            assert_eq!(a.pulses, b.pulses, "{}", id.name());
            assert_eq!(a.steps, b.steps, "{}", id.name());
            assert!((a.eps - b.eps).abs() < 1e-12, "{}", id.name());
        }
    }

    #[test]
    fn mean_at_size_matches_suite_semantics() {
        let suite = tiny();
        let sweep = SizeSweep::run(&suite, 1);
        let batched = sweep
            .mean_at_size(CompilerId::Weaver, 20, |m| m.eps)
            .unwrap();
        let inline = suite
            .mean_at_size(CompilerId::Weaver, 20, |m| m.eps)
            .unwrap();
        assert!((batched - inline).abs() < 1e-12);
        assert!(sweep
            .mean_at_size(CompilerId::Weaver, 999, |m| m.eps)
            .is_none());
    }

    #[test]
    fn missing_point_renders_as_dash() {
        let sweep = SizeSweep::run(&tiny(), 1);
        let out = sweep.outcome(CompilerId::Weaver, 123, 1);
        assert!(matches!(out, RunOutcome::NotApplicable(_)));
        assert_eq!(out.cell(|_| String::new()), "—");
    }
}
