//! Figures-on-engine: expands the paper's size sweep ({20..250} variables ×
//! 10 seeds × all five systems) into batch jobs and runs them on
//! `weaver-engine`'s work-stealing pool, so every figure table is
//! reassembled from one deterministic batch instead of recompiling each
//! point inline.
//!
//! Weaver and the superconducting baseline become [`CompileJob`]s on
//! [`Engine::run`] (the same path `weaverc batch` takes); the three FPQA
//! baselines keep their [`weaver_baselines::FpqaCompiler`] interface but
//! fan out over the identical [`weaver_engine::pool::run_jobs`] pool, so a
//! single `--jobs N` knob scales the whole evaluation. Results land in a
//! point map keyed by *(system, size, variant)*; because both the engine
//! and the raw pool return submission-ordered, scheduling-independent
//! results, the reassembled tables are byte-identical across worker counts.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use crate::harness::{run_compiler, CompilerId, RunOutcome, Suite};
use weaver_core::Metrics;
use weaver_engine::{pool, CompileJob, Engine, EngineConfig, Target};
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
    /// End-to-end wall-clock seconds for the whole sweep (engine batch plus
    /// the baseline pool phase).
    pub wall_seconds: f64,
    /// Worker threads used (resolved: `0` becomes the core count).
    pub workers: usize,
    /// Points run through [`Engine::run`] (Weaver + superconducting).
    pub engine_jobs: usize,
    /// Points run through [`pool::run_jobs`] (the FPQA baselines).
    pub baseline_jobs: usize,
    /// Summed per-job compile seconds by size, across all systems — the
    /// per-size cost profile of the sweep (CPU seconds, not wall).
    pub per_size_seconds: BTreeMap<usize, f64>,
    /// Summed self-time by lowering pass, aggregated over every engine
    /// artifact's `weaver-obs` pass records.
    pub pass_seconds: BTreeMap<String, f64>,
}

impl SizeSweep {
    /// Runs the whole suite on `workers` threads (`0` = all cores).
    ///
    /// The engine phase disables the artifact cache so every point measures
    /// a genuine compile; the suite's instances are all distinct anyway, so
    /// nothing could hit. Only the suite's CCZ fidelity travels into
    /// [`CompileJob`] options — the engine job model intentionally exposes
    /// no other FPQA parameter, matching `weaverc`.
    pub fn run(suite: &Suite, workers: usize) -> SizeSweep {
        let start = Instant::now();

        // Phase 1 — Weaver and the superconducting baseline as engine jobs.
        let engine_systems = [
            (CompilerId::Weaver, Target::Fpqa),
            (
                CompilerId::Superconducting,
                Target::parse("superconducting").expect("a core target"),
            ),
        ];
        let mut jobs = Vec::new();
        let mut keys = Vec::new();
        for &size in &suite.sizes {
            for variant in 1..=suite.variants {
                for (id, target) in engine_systems.iter().cloned() {
                    let mut job = CompileJob::from_formula(
                        generator::instance_name(size, variant),
                        generator::instance(size, variant),
                    );
                    job.target = target;
                    job.options.ccz_fidelity = Some(suite.params.fidelity_ccz);
                    jobs.push(job);
                    keys.push((id, size, variant));
                }
            }
        }
        let engine = Engine::new(EngineConfig {
            jobs: workers,
            use_cache: false,
            ..EngineConfig::default()
        });
        let engine_jobs = jobs.len();
        let report = engine.run(jobs);
        let resolved_workers = report.workers;

        let mut outcomes = HashMap::new();
        let mut per_size_seconds: BTreeMap<usize, f64> =
            suite.sizes.iter().map(|&s| (s, 0.0)).collect();
        let mut pass_seconds: BTreeMap<String, f64> = BTreeMap::new();
        for (key, result) in keys.iter().zip(&report.results) {
            *per_size_seconds.entry(key.1).or_insert(0.0) += result.timings.total_seconds;
            let outcome = match &result.artifact {
                Ok(artifact) => {
                    for pass in &artifact.passes {
                        *pass_seconds.entry(pass.name.clone()).or_insert(0.0) += pass.seconds;
                    }
                    RunOutcome::Done(artifact.metrics.clone())
                }
                Err(e) => RunOutcome::NotApplicable(e.message.clone()),
            };
            outcomes.insert(*key, outcome);
        }

        // Phase 2 — the FPQA baselines on the same work-stealing pool.
        let baseline_systems = [CompilerId::Atomique, CompilerId::Dpqa, CompilerId::Geyser];
        let mut items = Vec::new();
        for &size in &suite.sizes {
            for variant in 1..=suite.variants {
                for id in baseline_systems {
                    items.push((id, size, variant));
                }
            }
        }
        let baseline_jobs = items.len();
        let params = &suite.params;
        let results = pool::run_jobs(items.clone(), resolved_workers, |_, (id, size, variant)| {
            let f = generator::instance(size, variant);
            run_compiler(id, &f, params)
        });
        for (key, outcome) in items.into_iter().zip(results) {
            if let Some(m) = outcome.metrics() {
                *per_size_seconds.entry(key.1).or_insert(0.0) += m.compilation_seconds;
            }
            outcomes.insert(key, outcome);
        }

        SizeSweep {
            suite: suite.clone(),
            outcomes,
            wall_seconds: start.elapsed().as_secs_f64(),
            workers: resolved_workers,
            engine_jobs,
            baseline_jobs,
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
        self.engine_jobs + self.baseline_jobs
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
        assert_eq!(sweep.engine_jobs, 4, "2 variants × 2 engine systems");
        assert_eq!(sweep.baseline_jobs, 6, "2 variants × 3 baselines");
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
            "engine artifacts carry pass records"
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
