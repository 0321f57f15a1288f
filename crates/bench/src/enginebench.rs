//! Batch-throughput benchmark for `weaver-engine`.
//!
//! Runs the fixture suite (the same eight 20-variable SATLIB-style
//! instances committed under `tests/fixtures/`) through the engine three
//! ways — cold cache, warm in-memory cache, and with caching bypassed —
//! and renders the result as the tracked `BENCH_engine.json` baseline
//! (`figures bench-engine`). The acceptance bar is a ≥ 5× jobs/sec uplift
//! of the warm rerun over the cold run.

use std::time::Instant;
use weaver_engine::{CompileJob, Engine, EngineConfig};
use weaver_sat::generator;

/// Instances in the benchmark suite (mirrors `tests/fixtures/uf20-0*.cnf`).
pub const SUITE_SIZE: usize = 8;

/// Variable count of every suite instance.
pub const SUITE_VARS: usize = 20;

/// One engine-throughput measurement.
#[derive(Clone, Debug)]
pub struct EngineBench {
    /// Stable identifier, e.g. `batch_cold_8x20`.
    pub id: &'static str,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Best-of-samples wall-clock seconds for the whole batch.
    pub wall_seconds: f64,
    /// Throughput at that wall time.
    pub jobs_per_sec: f64,
    /// Artifact-cache hits during the measured run.
    pub cache_hits: usize,
}

/// The jobs of the benchmark suite: the eight fixture instances, with the
/// wChecker on when `check` is set.
pub fn suite_jobs(check: bool) -> Vec<CompileJob> {
    (1..=SUITE_SIZE)
        .map(|v| {
            let mut job = CompileJob::from_formula(
                format!("uf{SUITE_VARS}-{v:02}"),
                generator::instance(SUITE_VARS, v),
            );
            job.options.check = check;
            job
        })
        .collect()
}

/// Runs the cold/warm/bypass suite with `samples` repetitions per
/// measurement (best wall time wins, so scheduler noise shrinks the
/// numbers, never inflates them) on `workers` threads (0 = all cores).
pub fn run(samples: usize, workers: usize) -> Vec<EngineBench> {
    let samples = samples.max(1);
    let jobs = suite_jobs(true);
    let config = EngineConfig {
        jobs: workers,
        ..EngineConfig::default()
    };

    // Cold: a fresh engine (empty cache) per sample.
    let mut cold_best = f64::INFINITY;
    let mut cold_workers = 1;
    for _ in 0..samples {
        let engine = Engine::new(config.clone());
        let start = Instant::now();
        let report = engine.run(jobs.clone());
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(report.succeeded(), jobs.len(), "cold batch must succeed");
        assert_eq!(report.cache_hits(), 0, "cold batch cannot hit");
        cold_best = cold_best.min(elapsed);
        cold_workers = report.workers;
    }

    // Warm: one engine, first run populates, measured reruns hit.
    let engine = Engine::new(config.clone());
    engine.run(jobs.clone());
    let mut warm_best = f64::INFINITY;
    let mut warm_hits = 0;
    for _ in 0..samples {
        let start = Instant::now();
        let report = engine.run(jobs.clone());
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(report.cache_hits(), jobs.len(), "warm batch must hit");
        warm_best = warm_best.min(elapsed);
        warm_hits = report.cache_hits();
    }

    // Bypass: caching disabled — the pool's raw recompile throughput.
    let bypass_engine = Engine::new(EngineConfig {
        use_cache: false,
        ..config
    });
    let mut bypass_best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        let report = bypass_engine.run(jobs.clone());
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(report.cache_hits(), 0);
        bypass_best = bypass_best.min(elapsed);
    }

    let n = jobs.len();
    let bench = |id: &'static str, wall: f64, hits: usize| EngineBench {
        id,
        jobs: n,
        workers: cold_workers,
        wall_seconds: wall,
        jobs_per_sec: n as f64 / wall,
        cache_hits: hits,
    };
    vec![
        bench("batch_cold_8x20", cold_best, 0),
        bench("batch_warm_8x20", warm_best, warm_hits),
        bench("batch_nocache_8x20", bypass_best, 0),
    ]
}

/// Warm-over-cold throughput uplift (the tracked headline number).
pub fn warm_speedup(benches: &[EngineBench]) -> f64 {
    let get = |id: &str| {
        benches
            .iter()
            .find(|b| b.id.contains(id))
            .expect("suite bench present")
            .jobs_per_sec
    };
    get("warm") / get("cold")
}

/// Renders the suite result as the `BENCH_engine.json` document.
pub fn to_json(benches: &[EngineBench], samples: usize) -> String {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"suite\": \"engine_batch\",\n");
    s.push_str("  \"metric\": \"best_wall_seconds\",\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!(
        "  \"warm_speedup\": {:.2},\n",
        warm_speedup(benches)
    ));
    s.push_str("  \"benchmarks\": [\n");
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{ \"id\": \"{}\", \"jobs\": {}, \"workers\": {}, \
             \"wall_seconds\": {:.6}, \"jobs_per_sec\": {:.2}, \"cache_hits\": {} }}{comma}\n",
            b.id, b.jobs, b.workers, b.wall_seconds, b.jobs_per_sec, b.cache_hits
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serializes() {
        let benches = run(1, 1);
        assert_eq!(benches.len(), 3);
        assert!(benches.iter().all(|b| b.jobs_per_sec > 0.0));
        assert!(
            warm_speedup(&benches) >= 5.0,
            "warm cache must be ≥5× cold, got {:.2}",
            warm_speedup(&benches)
        );
        let json = to_json(&benches, 1);
        assert!(json.contains("\"batch_cold_8x20\""));
        assert!(json.contains("\"batch_warm_8x20\""));
        assert!(json.contains("\"warm_speedup\""));
    }
}
