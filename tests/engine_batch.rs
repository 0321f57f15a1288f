//! End-to-end tests for `weaver-engine` batch compilation (ISSUE 3
//! acceptance criteria): batch output identical to sequential single-shot
//! runs, byte-identical wQasm across cold/warm caches and thread counts,
//! identical `Metrics` modulo wall-clock fields, and warm-cache hits.

use proptest::prelude::*;
use std::path::Path;
use weaver::core::{CodegenOptions, FrontendRegistry, Metrics, Weaver};
use weaver::engine::{discover_jobs, CompileJob, Engine, EngineConfig, JobOptions, Target};
use weaver::sat::{generator, qaoa::QaoaParams, Formula};

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_jobs(check: bool) -> Vec<CompileJob> {
    let options = JobOptions {
        check,
        ..JobOptions::default()
    };
    let jobs = discover_jobs(&fixtures_dir(), Target::Fpqa, &options).expect("fixtures");
    assert!(jobs.len() >= 8, "acceptance needs ≥ 8 formula instances");
    jobs
}

fn engine_with(workers: usize) -> Engine {
    Engine::new(EngineConfig {
        jobs: workers,
        ..EngineConfig::default()
    })
}

/// The `Metrics` fields that must be deterministic (everything but the
/// wall-clock `compilation_seconds`).
fn stable_metrics(m: &Metrics) -> (u64, u64, usize, usize, u64) {
    (
        m.execution_micros.to_bits(),
        m.eps.to_bits(),
        m.pulses,
        m.motion_ops,
        m.steps,
    )
}

/// Mirrors one single-shot `weaverc` run: resolve the frontend from the
/// path, parse the file, compile with the default CLI options, print wQasm.
fn single_shot(path: &Path) -> (String, Metrics) {
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let front = FrontendRegistry::global()
        .resolve(None, Some(path), &text)
        .expect("fixture format recognized");
    let workload = front.parse(&text).expect("fixture parses");
    let options = CodegenOptions {
        qaoa: QaoaParams::single(0.7, 0.3),
        measure: true,
        ..CodegenOptions::default()
    };
    let weaver = Weaver::new().with_options(options);
    let output = weaver
        .compile_workload("fpqa", &workload)
        .expect("fixture compiles");
    (output.artifact.print_wqasm(), output.metrics)
}

#[test]
fn batch_matches_sequential_single_shot_runs() {
    let jobs = fixture_jobs(false);
    let paths: Vec<std::path::PathBuf> = jobs
        .iter()
        .map(|j| match &j.source {
            weaver::engine::JobSource::Path(p) => p.clone(),
            other => panic!("expected path source, got {other:?}"),
        })
        .collect();
    let report = engine_with(2).run(jobs);
    assert_eq!(report.succeeded(), paths.len());
    for (result, path) in report.results.iter().zip(&paths) {
        let (expected_qasm, expected_metrics) = single_shot(path);
        let artifact = result.artifact.as_ref().expect("artifact");
        assert_eq!(
            artifact.wqasm,
            expected_qasm,
            "batch wQasm must be byte-identical to the single-shot run for {}",
            path.display()
        );
        assert_eq!(
            stable_metrics(&artifact.metrics),
            stable_metrics(&expected_metrics),
            "metrics must match modulo wall-clock for {}",
            path.display()
        );
    }
}

#[test]
fn cold_warm_and_thread_counts_agree_byte_for_byte() {
    let jobs = fixture_jobs(true);
    let one = engine_with(1);
    let cold_1 = one.run(jobs.clone());
    let warm_1 = one.run(jobs.clone());
    let cold_4 = engine_with(4).run(jobs.clone());
    assert_eq!(cold_1.cache_hits(), 0);
    assert_eq!(warm_1.cache_hits(), jobs.len());
    assert_eq!(cold_4.cache_hits(), 0);
    for ((a, b), c) in cold_1
        .results
        .iter()
        .zip(&warm_1.results)
        .zip(&cold_4.results)
    {
        let (aa, ba, ca) = (
            a.artifact.as_ref().unwrap(),
            b.artifact.as_ref().unwrap(),
            c.artifact.as_ref().unwrap(),
        );
        assert_eq!(aa.wqasm, ba.wqasm, "cold vs warm must be byte-identical");
        assert_eq!(aa.wqasm, ca.wqasm, "1 vs 4 workers must be byte-identical");
        assert_eq!(stable_metrics(&aa.metrics), stable_metrics(&ba.metrics));
        assert_eq!(stable_metrics(&aa.metrics), stable_metrics(&ca.metrics));
        assert_eq!(aa.check_passed, Some(true));
        assert_eq!(ba.check_passed, Some(true));
        assert_eq!(ca.check_passed, Some(true));
    }
}

#[test]
fn warm_cache_throughput_exceeds_cold_5x() {
    // The acceptance bar, measured the same way BENCH_engine.json is.
    let jobs = fixture_jobs(false);
    let engine = engine_with(0);
    let start = std::time::Instant::now();
    let cold = engine.run(jobs.clone());
    let cold_seconds = start.elapsed().as_secs_f64();
    let start = std::time::Instant::now();
    let warm = engine.run(jobs.clone());
    let warm_seconds = start.elapsed().as_secs_f64();
    assert_eq!(cold.cache_hits(), 0);
    assert_eq!(warm.cache_hits(), jobs.len());
    let speedup = cold_seconds / warm_seconds.max(1e-9);
    assert!(
        speedup >= 5.0,
        "warm batch must be ≥ 5× cold, got {speedup:.1}× ({cold_seconds:.4}s vs {warm_seconds:.4}s)"
    );
}

#[test]
fn mixed_target_batch_is_deterministic_and_ordered() {
    // ISSUE 4: one manifest mixing all three registered targets must
    // compile in one batch with deterministic submission-order results.
    let formulas: Vec<Formula> = (1..=3).map(|v| generator::instance(10, v)).collect();
    let jobs: Vec<CompileJob> = formulas
        .iter()
        .enumerate()
        .flat_map(|(i, f)| {
            ["fpqa", "superconducting", "simulator"].map(move |name| {
                let target = Target::parse(name).unwrap();
                let mut job =
                    CompileJob::from_formula(format!("uf10-{:02}@{target}", i + 1), f.clone());
                job.target = target;
                job
            })
        })
        .collect();
    let submitted: Vec<(String, Target)> =
        jobs.iter().map(|j| (j.name(), j.target.clone())).collect();

    let engine = engine_with(3);
    let cold = engine.run(jobs.clone());
    assert_eq!(cold.succeeded(), jobs.len());
    // Results come back in submission order regardless of worker count.
    let received: Vec<(String, Target)> = cold
        .results
        .iter()
        .map(|r| (r.name.clone(), r.target.clone()))
        .collect();
    assert_eq!(received, submitted);

    for result in &cold.results {
        let artifact = result.artifact.as_ref().expect("artifact");
        match result.target.name() {
            "fpqa" => {
                assert!(artifact.num_colors.is_some());
                assert!(artifact.wqasm.contains("@rydberg"));
            }
            "superconducting" => {
                assert!(artifact.swap_count.is_some());
                assert!(!artifact.wqasm.contains("@rydberg"));
            }
            "simulator" => {
                assert!(artifact.metrics.eps > 0.0 && artifact.metrics.eps <= 1.0);
                assert_eq!(artifact.metrics.motion_ops, 0);
                assert_eq!(artifact.metrics.execution_micros, 0.0);
            }
            name => unreachable!("no {name} job was submitted"),
        }
    }

    // A single-worker rerun on a fresh engine agrees byte for byte, and a
    // warm rerun on the same engine hits the cache for every target.
    let sequential = engine_with(1).run(jobs.clone());
    for (a, b) in cold.results.iter().zip(&sequential.results) {
        let (aa, ba) = (a.artifact.as_ref().unwrap(), b.artifact.as_ref().unwrap());
        assert_eq!(aa.wqasm, ba.wqasm, "{}", a.name);
        assert_eq!(stable_metrics(&aa.metrics), stable_metrics(&ba.metrics));
    }
    let warm = engine.run(jobs.clone());
    assert_eq!(warm.cache_hits(), jobs.len());
}

#[test]
fn devices_manifest_batch_covers_the_family() {
    // ISSUE 5 satellite: tests/fixtures/devices.manifest mixes built-in
    // devices, a parameterized grid, an alias, and the simulator.
    let manifest = fixtures_dir().join("devices.manifest");
    let jobs = discover_jobs(&manifest, Target::Fpqa, &JobOptions::default()).expect("manifest");
    let targets: Vec<&str> = jobs.iter().map(|j| j.target.name()).collect();
    assert_eq!(
        targets,
        vec![
            "sc:eagle",
            "sc:heron",
            "simulator",
            "sc:line",
            "sc:grid:4x5",
            "sc:eagle", // sc:washington canonicalizes
        ]
    );
    let engine = engine_with(2);
    let report = engine.run(jobs.clone());
    assert_eq!(report.succeeded(), jobs.len(), "{:?}", report.results);
    for result in &report.results {
        let artifact = result.artifact.as_ref().unwrap();
        match result.target.name() {
            name if name.starts_with("sc:") => {
                assert!(artifact.swap_count.is_some(), "{}", result.name)
            }
            "simulator" => assert_eq!(artifact.metrics.motion_ops, 0),
            other => panic!("unexpected target {other} in devices.manifest"),
        }
    }
    // sc:eagle and sc:heron on *different* workloads obviously differ; the
    // key property is that the same workload keys differently per device —
    // uf20-01 on eagle (index 0) vs uf20-01 on eagle again via the
    // sc:washington alias (index 5) must share a key and hit the cache.
    assert_eq!(report.results[0].key, report.results[5].key);
    let warm = engine.run(jobs);
    assert_eq!(warm.cache_hits(), warm.results.len());
}

#[test]
fn jsonl_records_carry_per_pass_timings_for_every_target_family() {
    // ISSUE 5 satellite: `CompileOutput.passes` flows into the engine's
    // JSONL records; pass names match each backend's declared pipeline and
    // durations are non-negative for every target-family member.
    let f = generator::instance(10, 4);
    let mut names = weaver::core::BackendRegistry::global().names();
    names.push("sc:grid:4x5".to_string());
    let targets: Vec<Target> = names.iter().map(|n| Target::parse(n).unwrap()).collect();
    let jobs: Vec<CompileJob> = targets
        .iter()
        .map(|target| {
            let mut job = CompileJob::from_formula(format!("uf10@{target}"), f.clone());
            job.target = target.clone();
            job
        })
        .collect();
    let report = engine_with(2).run(jobs);
    assert_eq!(report.succeeded(), targets.len());
    let registry = weaver::core::BackendRegistry::global();
    for result in &report.results {
        let declared = registry
            .resolve(result.target.name())
            .expect("every batch target resolves")
            .passes();
        let artifact = result.artifact.as_ref().unwrap();
        let ran: Vec<&str> = artifact.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(ran, declared, "{}", result.name);
        assert!(
            artifact.passes.iter().all(|p| p.seconds >= 0.0),
            "{}: pass durations must be non-negative",
            result.name
        );
        assert!(
            artifact.passes.iter().any(|p| p.steps > 0),
            "{}: at least one pass reports steps",
            result.name
        );
        // The JSONL record carries the same trace.
        let record = weaver::engine::job_record(result);
        assert!(record.contains("\"passes\":[{\"name\":"), "{record}");
        for name in &declared {
            assert!(record.contains(&format!("\"name\":\"{name}\"")), "{record}");
        }
    }
}

/// A compact random Max-3SAT workload for the determinism property.
fn arb_formula() -> impl Strategy<Value = Formula> {
    (4usize..10, 1usize..500).prop_map(|(vars, variant)| generator::instance(vars, variant))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Determinism property (ISSUE 3 satellite): compiling the same
    /// instance twice — cold vs warm cache, 1 vs N worker threads — yields
    /// byte-identical wQasm and identical `Metrics` modulo wall-clock.
    #[test]
    fn compiling_twice_is_deterministic(formula in arb_formula()) {
        let job = {
            let mut job = CompileJob::from_formula("prop", formula);
            job.options.check = true;
            job
        };
        let sequential = engine_with(1);
        let cold = sequential.run(vec![job.clone()]);
        let warm = sequential.run(vec![job.clone()]);
        let parallel = engine_with(3).run(vec![job.clone(), job.clone(), job]);
        let base = cold.results[0].artifact.as_ref().unwrap();
        prop_assert!(cold.results[0].succeeded());
        prop_assert_eq!(warm.cache_hits(), 1);
        for other in warm.results.iter().chain(&parallel.results) {
            let artifact = other.artifact.as_ref().unwrap();
            prop_assert_eq!(&artifact.wqasm, &base.wqasm);
            prop_assert_eq!(
                stable_metrics(&artifact.metrics),
                stable_metrics(&base.metrics)
            );
            prop_assert_eq!(artifact.check_passed, Some(true));
        }
    }
}
