//! Conformance tests for the `weaver-obs` observability layer: span
//! nesting across the engine's worker pool with worker-thread attribution,
//! Chrome-trace and JSONL export shape (validated with
//! `JsonValue::parse`, the parser the daemon uses for untrusted input),
//! metrics snapshot round-trips, disabled-tracing overhead, and a
//! differential test proving tracing does not change artifact bytes.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use weaver::engine::jsonl::JsonValue;
use weaver::engine::{CompileJob, Engine, EngineConfig};
use weaver::obs::{metrics, span};
use weaver::sat::generator;

/// The span collector and the enabled flag are process-global, and the
/// test harness runs tests on parallel threads — every test that toggles
/// tracing or drains the collector serializes on this lock (and tolerates
/// a poisoned lock from an earlier failed test).
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn batch(prefix: &str, n: usize) -> Vec<CompileJob> {
    (1..=n)
        .map(|v| CompileJob::from_formula(format!("{prefix}-{v:02}"), generator::instance(10, v)))
        .collect()
}

fn engine(workers: usize, use_cache: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: workers,
        use_cache,
        ..EngineConfig::default()
    })
}

// ---------------------------------------------------------------------------
// Span nesting + worker-thread attribution across the pool
// ---------------------------------------------------------------------------

#[test]
fn pass_spans_nest_under_job_spans_with_worker_attribution() {
    let _guard = obs_lock();
    span::set_enabled(true);
    let _ = span::take(); // drop residue from other tests
    let report = engine(2, false).run(batch("obsconf-nest", 8));
    span::set_enabled(false);
    let trace = span::take();
    assert_eq!(report.succeeded(), 8);

    let jobs: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.cat == "job" && s.name.starts_with("obsconf-nest"))
        .collect();
    assert_eq!(jobs.len(), 8, "one job span per submitted job");
    let job_ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();

    // Every per-pass span recorded during this batch is a child of one of
    // its job spans (same worker thread, opened while the job span was on
    // the thread-local stack).
    let passes: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.cat == "pass" && job_ids.contains(&s.parent))
        .collect();
    assert!(
        passes.len() >= 8,
        "expected at least one nested pass span per job, got {}",
        passes.len()
    );
    for p in &passes {
        let job = jobs.iter().find(|j| j.id == p.parent).unwrap();
        assert_eq!(p.tid, job.tid, "a pass runs on its job's worker thread");
        assert!(p.start_us >= job.start_us, "child starts inside the parent");
    }

    // Thread attribution: the job spans name at least one pool worker.
    let names: BTreeMap<u64, &str> = trace
        .threads
        .iter()
        .map(|(tid, name)| (*tid, name.as_str()))
        .collect();
    let worker_jobs = jobs
        .iter()
        .filter(|j| {
            names
                .get(&j.tid)
                .is_some_and(|n| n.starts_with("weaver-worker-"))
        })
        .count();
    assert!(
        worker_jobs >= 1,
        "job spans must be attributed to named pool workers, threads: {:?}",
        trace.threads
    );
}

// ---------------------------------------------------------------------------
// Chrome trace and JSONL export shape
// ---------------------------------------------------------------------------

#[test]
fn chrome_trace_is_valid_json_with_required_event_fields() {
    let _guard = obs_lock();
    span::set_enabled(true);
    let _ = span::take();
    {
        let _outer = span::span("obsconf-chrome", "outer \"quoted\" name");
        let _inner = span::span("obsconf-chrome", "inner").with_arg("k", 42);
    }
    span::set_enabled(false);
    let trace = span::take();
    let doc = JsonValue::parse(&trace.chrome_json()).expect("chrome export parses as JSON");

    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("top-level traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("cat").and_then(JsonValue::as_str) == Some("obsconf-chrome")
        })
        .collect();
    assert_eq!(complete.len(), 2, "both spans exported as complete events");
    for event in &complete {
        assert!(event.get("ts").and_then(JsonValue::as_f64).is_some(), "ts");
        assert!(
            event.get("dur").and_then(JsonValue::as_f64).is_some(),
            "dur"
        );
        assert!(
            event.get("tid").and_then(JsonValue::as_f64).is_some(),
            "tid"
        );
        assert!(
            event.get("pid").and_then(JsonValue::as_f64).is_some(),
            "pid"
        );
        assert!(
            event.get("name").and_then(JsonValue::as_str).is_some(),
            "name"
        );
    }
    let outer = complete
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("outer \"quoted\" name"))
        .expect("escaped name round-trips through the export");
    let inner = complete
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some("inner"))
        .expect("inner event");
    assert_eq!(
        inner
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(JsonValue::as_str),
        outer
            .get("id")
            .and_then(JsonValue::as_f64)
            .map(|id| id.to_string())
            .as_deref(),
        "args.parent links the child to its parent span id"
    );
    assert_eq!(
        inner
            .get("args")
            .and_then(|a| a.get("k"))
            .and_then(JsonValue::as_str),
        Some("42")
    );
    // Metadata events name the process and at least one thread.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(JsonValue::as_str) == Some("M")
            && e.get("name").and_then(JsonValue::as_str) == Some("process_name")
    }));
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(JsonValue::as_str) == Some("M")
            && e.get("name").and_then(JsonValue::as_str) == Some("thread_name")
    }));
}

#[test]
fn jsonl_export_is_one_json_object_per_line() {
    let _guard = obs_lock();
    span::set_enabled(true);
    let _ = span::take();
    {
        let _a = span::span("obsconf-jsonl", "alpha");
    }
    {
        let _b = span::span("obsconf-jsonl", "beta");
    }
    span::set_enabled(false);
    let trace = span::take();
    let mut seen = 0;
    for line in trace.to_jsonl().lines() {
        let obj = JsonValue::parse(line).expect("every JSONL line parses");
        if obj.get("cat").and_then(JsonValue::as_str) == Some("obsconf-jsonl") {
            assert!(obj.get("start_us").and_then(JsonValue::as_f64).is_some());
            assert!(obj.get("dur_us").and_then(JsonValue::as_f64).is_some());
            seen += 1;
        }
    }
    assert_eq!(seen, 2);
}

// ---------------------------------------------------------------------------
// Metrics snapshot round-trip
// ---------------------------------------------------------------------------

#[test]
fn metrics_snapshot_round_trips_through_the_text_format() {
    let counter = metrics::counter_with(
        "obsconf_roundtrip_total",
        "conformance-test counter",
        &[("kind", "demo")],
    );
    counter.add(7);
    let gauge = metrics::gauge("obsconf_roundtrip_gauge", "conformance-test gauge");
    gauge.set(2.5);
    let hist = metrics::histogram_with(
        "obsconf_roundtrip_seconds",
        "conformance-test histogram",
        &[],
        &[0.1, 1.0],
    );
    hist.observe(0.05);
    hist.observe(0.5);
    hist.observe(5.0);

    let text = metrics::snapshot();
    let parsed = metrics::parse_snapshot(&text);
    assert_eq!(
        parsed.get("obsconf_roundtrip_total{kind=\"demo\"}"),
        Some(&7.0)
    );
    assert_eq!(parsed.get("obsconf_roundtrip_gauge"), Some(&2.5));
    // Histogram expands to cumulative buckets plus _sum and _count.
    assert_eq!(
        parsed.get("obsconf_roundtrip_seconds_bucket{le=\"0.1\"}"),
        Some(&1.0)
    );
    assert_eq!(
        parsed.get("obsconf_roundtrip_seconds_bucket{le=\"1\"}"),
        Some(&2.0)
    );
    assert_eq!(
        parsed.get("obsconf_roundtrip_seconds_bucket{le=\"+Inf\"}"),
        Some(&3.0)
    );
    assert_eq!(parsed.get("obsconf_roundtrip_seconds_count"), Some(&3.0));
    let sum = parsed
        .get("obsconf_roundtrip_seconds_sum")
        .copied()
        .unwrap();
    assert!((sum - 5.55).abs() < 1e-9);
    // The exposition text itself is well-formed: HELP/TYPE precede the
    // series of each family exactly once.
    assert_eq!(text.matches("# TYPE obsconf_roundtrip_seconds ").count(), 1);
}

// ---------------------------------------------------------------------------
// Disabled-tracing overhead
// ---------------------------------------------------------------------------

#[test]
fn disabled_tracing_costs_nothing_measurable() {
    let _guard = obs_lock();
    span::set_enabled(false);

    // Micro: a disabled span() is one relaxed atomic load; even on a
    // loaded CI box 200k calls stay far under 100 ms.
    let start = std::time::Instant::now();
    for _ in 0..200_000 {
        let _s = span::span("obsconf-noise", "disabled");
    }
    let per_call = start.elapsed().as_secs_f64() / 200_000.0;
    assert!(
        per_call < 5e-7,
        "disabled span() took {per_call:.2e} s/call — instrumentation is no longer free"
    );

    // Macro: two identical 8-fixture batches with tracing disabled (cache
    // off, so both compile everything) agree within noise — a generous
    // bound, but it catches instrumentation accidentally doing per-pass
    // work while disabled.
    let e = engine(2, false);
    let warmup = e.run(batch("obsconf-noise-w", 8));
    assert_eq!(warmup.succeeded(), 8);
    let a = e.run(batch("obsconf-noise-a", 8)).wall_seconds;
    let b = e.run(batch("obsconf-noise-b", 8)).wall_seconds;
    let ratio = a.max(b) / a.min(b).max(1e-9);
    assert!(
        ratio < 10.0,
        "disabled-tracing batch times diverge beyond noise: {a:.4}s vs {b:.4}s"
    );
}

// ---------------------------------------------------------------------------
// Differential: tracing does not change artifact bytes
// ---------------------------------------------------------------------------

#[test]
fn tracing_does_not_change_artifact_bytes() {
    let _guard = obs_lock();

    let wqasm_of = |report: &weaver::engine::BatchReport| -> Vec<String> {
        report
            .results
            .iter()
            .map(|r| r.artifact.as_ref().expect("job succeeds").wqasm.clone())
            .collect()
    };

    span::set_enabled(false);
    let plain = engine(2, false).run(batch("obsconf-diff", 6));
    span::set_enabled(true);
    let _ = span::take();
    let traced = engine(2, false).run(batch("obsconf-diff", 6));
    span::set_enabled(false);
    let trace = span::take();

    assert_eq!(plain.succeeded(), 6);
    assert_eq!(traced.succeeded(), 6);
    assert!(
        trace.spans.iter().any(|s| s.cat == "pass"),
        "the traced run actually recorded spans"
    );
    assert_eq!(
        wqasm_of(&plain),
        wqasm_of(&traced),
        "artifact bytes are identical with and without tracing"
    );
}
