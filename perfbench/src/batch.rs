//! `batch-cold`: the path of `weaverc batch <manifest> --jobs 2
//! --cache-dir <empty> --jsonl` — `Engine::run_streaming` with a JSONL
//! sink — over seeded files covering every frontend and target. Each
//! round starts a fresh engine on an empty cache directory, so every job
//! misses and is written to the paged store.

use crate::inputs::{self, Input};
use crate::trace::{self, Tracer};
use crate::{stats, Report, WORKERS};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use weaver_core::{CodegenOptions, FrontendRegistry, Weaver, Workload};
use weaver_engine::{
    discover_jobs, job_record, pool, Artifact, ArtifactCache, CacheConfig, CacheOutcome,
    CompileJob, Engine, EngineConfig, JobOptions, JobResult, JobSource, StageTimings, Target,
};
use weaver_sat::qaoa::QaoaParams;
use weaver_simulator::UnitaryBuilder;

/// The engine configuration `weaverc batch --jobs 2 --cache-dir <dir>`
/// builds.
fn engine_config(cache_dir: &Path) -> EngineConfig {
    EngineConfig {
        jobs: WORKERS,
        cache: CacheConfig {
            disk_dir: Some(cache_dir.to_path_buf()),
            ..CacheConfig::default()
        },
        use_cache: true,
    }
}

/// One timed round's outcome.
struct Round {
    setup: f64,
    wall: f64,
    results: Vec<JobResult>,
    jsonl_lines: usize,
}

/// Runs one cold round: engine on an empty directory, the whole job list
/// through `run_streaming`, JSONL records to a file as jobs finish.
fn round(jobs: &[CompileJob], work: &Path, n: usize) -> Result<Round, String> {
    let cache_dir = work.join(format!("cache-{n}"));
    let jsonl_path = work.join(format!("round-{n}.jsonl"));
    let sink_file = std::fs::File::create(&jsonl_path).map_err(|e| e.to_string())?;
    let sink_out = Mutex::new(std::io::BufWriter::new(sink_file));

    let t = Instant::now();
    let engine = Engine::try_new(engine_config(&cache_dir)).map_err(|e| e.to_string())?;
    let setup = t.elapsed().as_secs_f64();

    let start = Instant::now();
    let report = engine.run_streaming(jobs.to_vec(), &|r: &JobResult| {
        let line = job_record(r);
        let mut out = sink_out.lock().expect("sink writer poisoned");
        let _ = writeln!(out, "{line}");
    });
    drop(engine);
    sink_out
        .into_inner()
        .expect("sink writer poisoned")
        .flush()
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed().as_secs_f64();

    let jsonl = std::fs::read_to_string(&jsonl_path).map_err(|e| e.to_string())?;
    let jsonl_lines = jsonl
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"job\""))
        .count();
    let _ = std::fs::remove_dir_all(&cache_dir);
    Ok(Round {
        setup,
        wall,
        results: report.results,
        jsonl_lines,
    })
}

/// Writes the seeded inputs and their manifest; returns the jobs as
/// `weaverc batch` discovers them.
fn write_inputs(seed: u64, work: &Path) -> Result<(Vec<Input>, Vec<CompileJob>), String> {
    let dir = work.join("inputs");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let inputs = inputs::batch_inputs(seed);
    for input in &inputs {
        std::fs::write(dir.join(&input.name), &input.text).map_err(|e| e.to_string())?;
    }
    let manifest = dir.join("batch.manifest");
    std::fs::write(&manifest, inputs::manifest(&inputs)).map_err(|e| e.to_string())?;
    let jobs = discover_jobs(&manifest, Target::Fpqa, &JobOptions::default())?;
    if jobs.len() != inputs.len() {
        return Err(format!(
            "manifest gave {} jobs for {} inputs",
            jobs.len(),
            inputs.len()
        ));
    }
    Ok((inputs, jobs))
}

/// Checks every result of a round against its input; later rounds must
/// also repeat the first round's bytes exactly.
fn check_round(report: &mut Report, inputs: &[Input], round: &Round, first: Option<&[JobResult]>) {
    if round.jsonl_lines != inputs.len() {
        report.fail(format!(
            "JSONL sink saw {} job records for {} jobs",
            round.jsonl_lines,
            inputs.len()
        ));
    }
    for (i, (input, r)) in inputs.iter().zip(&round.results).enumerate() {
        report.attempted += 1;
        let verdict = match &r.artifact {
            Err(e) => Err(format!("{e}")),
            Ok(_) if r.cache != CacheOutcome::Miss => Err(format!("cache {}", r.cache.name())),
            Ok(a) => match first.and_then(|f| f[i].artifact.as_ref().ok()) {
                Some(f) if f.wqasm != a.wqasm || quality(&f.metrics) != quality(&a.metrics) => {
                    Err("differs from the first round".to_string())
                }
                Some(_) => Ok(()),
                None => crate::checks::artifact(
                    &input.target,
                    &a.wqasm,
                    input.qubits,
                    a.metrics.eps,
                    a.check_passed,
                    input.check,
                ),
            },
        };
        if let Err(e) = verdict {
            report.fail(format!("{} ({}): {e}", input.name, input.target));
        }
    }
}

/// The deterministic part of an artifact's metrics (everything but the
/// producing compile's wall time).
fn quality(m: &weaver_core::Metrics) -> (f64, f64, usize, usize, u64) {
    (m.execution_micros, m.eps, m.pulses, m.motion_ops, m.steps)
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, jobs) = write_inputs(seed, work)?;
    let budget = if traced { seconds / 3.0 } else { seconds };

    // Rounds until the budget is spent; only the first round's results are
    // kept (later rounds must repeat its bytes), so the benchmark's own
    // memory stays flat however many rounds run.
    let started = Instant::now();
    let mut first: Option<Vec<JobResult>> = None;
    let (mut rounds, mut wall) = (0usize, 0.0);
    let (mut setups, mut round_rates) = (Vec::new(), Vec::new());
    while first.is_none() || started.elapsed().as_secs_f64() < budget {
        let r = round(&jobs, work, rounds)?;
        check_round(&mut report, &inputs, &r, first.as_deref());
        rounds += 1;
        wall += r.wall;
        setups.push(r.setup);
        round_rates.push(jobs.len() as f64 / r.wall);
        if first.is_none() {
            // One round is one `weaverc batch` process: its peak memory is
            // the process's peak after the first round (later rounds would
            // add the allocator's growth across engines).
            report.set("peak_rss_mb", crate::peak_rss_mb("self").unwrap_or(0.0));
            first = Some(r.results);
        }
    }
    let first = first.expect("at least one round ran");
    let artifacts = || {
        first
            .iter()
            .zip(&inputs)
            .filter_map(|(r, i)| r.artifact.as_ref().ok().map(|a| (i, a)))
    };
    report.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    // The median over rounds, so a burst of load from elsewhere on the
    // host during one round does not move the run's figure.
    report.set("jobs_per_s", stats::median(&round_rates).unwrap_or(0.0));
    report.set(
        "exec_us",
        stats::geomean(artifacts().map(|(_, a)| a.metrics.execution_micros)).unwrap_or(0.0),
    );
    report.set(
        "eps",
        stats::eps_per_qubit(artifacts().map(|(i, a)| (a.metrics.eps, i.qubits))).unwrap_or(0.0),
    );
    report.notes.push(format!(
        "batch-cold: {rounds} rounds of {} jobs in {wall:.3} s on {WORKERS} workers",
        jobs.len()
    ));

    if traced {
        // Untraced and traced replays of the same jobs, each on a fresh
        // store; both must reproduce the engine's bytes.
        let reference: Vec<Option<String>> = first
            .iter()
            .map(|r| r.artifact.as_ref().ok().map(|a| a.wqasm.clone()))
            .collect();
        let untraced = replay(
            &mut Report::default(),
            &inputs,
            &jobs,
            &reference,
            work,
            false,
            seed,
        )?;
        let traced_wall = replay(&mut report, &inputs, &jobs, &reference, work, true, seed)?;
        report.set("trace_overhead_share", traced_wall / untraced - 1.0);
    }
    Ok(report)
}

/// Replays every job through the public calls `Engine::run_job` makes,
/// on a two-worker pool over a fresh paged store; with `traced`, each call
/// runs in a span and the layer breakdown lands in `report`. Returns the
/// replay's wall time.
fn replay(
    report: &mut Report,
    inputs: &[Input],
    jobs: &[CompileJob],
    reference: &[Option<String>],
    work: &Path,
    traced: bool,
    seed: u64,
) -> Result<f64, String> {
    let dir = work.join(if traced { "replay-traced" } else { "replay" });
    let tracer = Tracer::new(traced);
    let open = Instant::now();
    let cache = ArtifactCache::new(engine_config(&dir).cache).map_err(|e| e.to_string())?;
    let open_s = open.elapsed().as_secs_f64();
    let bytes_before = cache
        .store_stats()
        .map_or(0, |s| s.file_bytes + s.wal_bytes);
    let start = Instant::now();
    let outcomes = pool::run_jobs(jobs.iter().collect(), WORKERS, |index, job: &CompileJob| {
        tracer.time("job", index as u64, None, |root| {
            replay_job(&tracer, &cache, index, job, root)
        })
    });
    let wall = start.elapsed().as_secs_f64();

    for ((input, outcome), want) in inputs.iter().zip(&outcomes).zip(reference) {
        match outcome {
            Ok(o) if Some(&o.wqasm) == want.as_ref() => {}
            Ok(_) => report.fail(format!(
                "{}: replayed bytes differ from the engine's",
                input.name
            )),
            Err(e) => report.fail(format!("{}: replay failed: {e}", input.name)),
        }
    }
    if !traced {
        return Ok(wall);
    }
    let spans = tracer.into_spans();
    let b = trace::breakdown(&spans, WORKERS, wall);
    for (metric, seconds) in &b.layers {
        report.set(metric, *seconds);
    }
    // Checker time on the jobs small enough for a reference-unitary check.
    let selfs = trace::self_times(&spans);
    let unitary: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| {
            s.name == "checker" && inputs[s.id as usize].qubits <= UnitaryBuilder::MAX_QUBITS
        })
        .map(|(_, own)| own)
        .sum();
    report.set("checker.unitary_s", unitary);
    report.set("pool.idle_s", b.pool_idle);
    report.set("unattributed_share", b.unattributed_share);
    report.set("store.open_s", open_s);
    for o in outcomes.iter().flatten() {
        report.add("frontend.bytes", o.text_bytes as f64);
        report.add("print.bytes", o.wqasm.len() as f64);
        report.add("jsonl.bytes", o.record_bytes as f64);
        report.add("sabre.swaps", o.swaps as f64);
        report.add_pass_steps(o.pass_steps.iter().copied());
    }
    cache_counters(report, &cache, bytes_before);
    crate::write_trace(report, "batch-cold", seed, &spans);
    Ok(wall)
}

/// Reports the artifact cache's tier counters and its store's write-side
/// counters; `bytes_before` is the store's size when the cache opened.
pub fn cache_counters(report: &mut Report, cache: &ArtifactCache, bytes_before: u64) {
    let s = cache.stats();
    report.set("cache.memory_hits", s.memory_hits as f64);
    report.set("cache.disk_hits", s.disk_hits as f64);
    report.set("cache.misses", s.misses as f64);
    report.set("cache.evictions", s.evictions as f64);
    let lookups = s.memory_hits + s.disk_hits + s.misses;
    if lookups > 0 {
        report.set(
            "cache.hit_ratio",
            (s.memory_hits + s.disk_hits) as f64 / lookups as f64,
        );
    }
    if let Some(store) = cache.store_stats() {
        report.set("store.wal_fsyncs", store.wal_fsyncs as f64);
        report.set("store.group_commits", store.group_commits as f64);
        let bytes = store.file_bytes + store.wal_bytes;
        report.set(
            "store.bytes_written",
            bytes.saturating_sub(bytes_before) as f64,
        );
    }
}

/// What a replayed job produced.
pub struct Replayed {
    pub wqasm: String,
    pub text_bytes: usize,
    pub record_bytes: usize,
    pub swaps: usize,
    pub pass_steps: Vec<(&'static str, u64)>,
}

/// The calls `Engine::run_job` makes for one job, each in its layer's
/// span: frontend resolve + parse, artifact key, cache lookup, compile
/// (with the returned pass records as child spans), wChecker, wQasm
/// print, store put, JSONL record.
fn replay_job(
    tracer: &Tracer,
    cache: &ArtifactCache,
    index: usize,
    job: &CompileJob,
    root: Option<usize>,
) -> Result<Replayed, String> {
    let id = index as u64;
    let JobSource::Path(path) = &job.source else {
        return Err("batch jobs come from files".to_string());
    };
    let (workload, text_bytes) = tracer.time("frontend", id, root, |_| {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let front =
            FrontendRegistry::global().resolve(job.frontend.as_deref(), Some(path), &text)?;
        let workload = front.parse(&text).map_err(|e| e.to_string())?;
        Ok::<(Workload, usize), String>((workload, text.len()))
    })?;
    let key = tracer.time("key", id, root, |_| job.artifact_key(&workload));
    let hit = tracer.time("cache.lookup", id, root, |me| {
        let hit = cache.lookup(&key);
        if !matches!(hit, Some((_, CacheOutcome::MemoryHit))) {
            tracer.rename(me, "store.get");
        }
        hit
    });
    if hit.is_some() {
        return Err("a cold replay hit the cache".to_string());
    }
    let weaver = Weaver::new()
        .with_fpqa_params(job.options.fpqa_params())
        .with_options(codegen_options(&job.options));
    let core = Some(cache.core_handle());
    let output = tracer
        .time_with_children(
            "compile",
            id,
            root,
            || weaver.compile_workload_cached(job.target.name(), &workload, core),
            |out| trace::pass_spans(out.as_ref().ok()),
        )
        .map_err(|e| e.message)?;
    let (check_passed, check_errors) = if job.options.check {
        match tracer.time("checker", id, root, |_| {
            weaver.verify_workload(&output, &workload, core)
        }) {
            Some(r) => (
                Some(r.passed()),
                r.errors.iter().map(|e| e.to_string()).collect(),
            ),
            None => (None, Vec::new()),
        }
    } else {
        (None, Vec::new())
    };
    let wqasm = tracer.time("print", id, root, |_| output.artifact.print_wqasm());
    let artifact = Arc::new(Artifact {
        wqasm: wqasm.clone(),
        swap_count: output.artifact.swap_count(),
        num_colors: output.artifact.num_colors(),
        metrics: output.metrics.clone(),
        passes: output.passes.iter().map(Into::into).collect(),
        check_passed,
        check_errors,
    });
    tracer.time("store.put", id, root, |_| {
        cache.store(key, artifact.clone())
    });
    let result = JobResult {
        index,
        name: job.name(),
        target: job.target.clone(),
        key: key.to_hex(),
        cache: CacheOutcome::Miss,
        timings: StageTimings::default(),
        artifact: Ok(artifact),
    };
    let record = tracer.time("jsonl", id, root, |_| job_record(&result));
    Ok(Replayed {
        wqasm,
        text_bytes,
        record_bytes: record.len(),
        swaps: output.artifact.swap_count().unwrap_or(0),
        pass_steps: output.passes.iter().map(|p| (p.name, p.steps)).collect(),
    })
}

/// The codegen options the engine derives from a job's options.
pub fn codegen_options(options: &JobOptions) -> CodegenOptions {
    CodegenOptions {
        compression: options.compression,
        parallel_shuttling: options.parallel_shuttling,
        dsatur: options.dsatur,
        qaoa: QaoaParams::single(options.gamma, options.beta),
        measure: true,
        ..CodegenOptions::default()
    }
}
