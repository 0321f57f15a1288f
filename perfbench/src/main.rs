//! End-to-end and per-layer benchmark of the Weaver compiler.
//!
//! ```text
//! perfbench --workload <paper-sweep|batch-cold|daemon-warm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload from outside, through public entry
//! points, and prints every end-to-end metric; `--trace 1` replays it with
//! a span around each public layer call and prints every per-layer
//! metric. Every run checks every output it produced and exits non-zero
//! on any failed check. The last line of stdout is one JSON object:
//! `{"correct","attempted","failed","metrics":{name:{"value","unit"}}}`.
//! `perfbench/README.md` is the metric reference.

mod batch;
mod checks;
mod daemon;
mod inputs;
mod probe;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Worker threads (and daemon clients) every workload uses: the load fits
/// a two-core host.
pub const WORKERS: usize = 2;

/// End-to-end metrics, printed by every untraced run (the `end_to_end`
/// list of BENCHMARK.json).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("exec_us", "us"),
    ("eps", "1"),
];

/// Request latencies, which only `daemon-warm` serves; its untraced runs
/// print them after [`END_TO_END`]'s list.
pub const DAEMON_END_TO_END: &[(&str, &str)] = &[("p50_ms", "ms"), ("tail_ms", "ms")];

/// The lowering passes whose busy time and steps the traced run reports.
pub const PASSES: &[&str] = &[
    "site-layout",
    "clause-coloring",
    "emit-wqasm",
    "qaoa-lower",
    "sabre-transpile",
    "nativize",
    "statevector",
    "ideal-eps",
    "ingest-circuit",
    "peak-probability",
];

/// Per-layer metrics every traced run prints (the `per_layer` list of
/// BENCHMARK.json); a layer that does not run on a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("frontend.parse_s", "s"),
        ("frontend.bytes", "bytes"),
        ("key.hash_s", "s"),
        ("cache.misses", "count"),
        ("store.open_s", "s"),
        ("store.get_s", "s"),
        ("store.put_s", "s"),
        ("store.bytes_written", "bytes"),
        ("store.wal_fsyncs", "count"),
        ("store.group_commits", "count"),
        ("sabre.swaps", "count"),
        ("checker.busy_s", "s"),
        ("checker.unitary_s", "s"),
        ("print.busy_s", "s"),
        ("print.bytes", "bytes"),
        ("atomique.busy_s", "s"),
        ("dpqa.busy_s", "s"),
        ("dpqa.search_s", "s"),
        ("dpqa.nodes", "count"),
        ("dpqa.unproven", "count"),
        ("geyser.busy_s", "s"),
        ("pool.idle_s", "s"),
        ("jsonl.encode_s", "s"),
        ("jsonl.bytes", "bytes"),
        ("unattributed_share", "1"),
        ("trace_overhead_share", "1"),
        ("host.mem_probe_ms", "ms"),
    ];
    let mut out: Vec<(String, &str)> = fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for pass in PASSES {
        out.push((format!("pass.{pass}.busy_s"), "s"));
        if !UNCOUNTED_PASSES.contains(pass) {
            out.push((format!("pass.{pass}.steps"), "count"));
        }
    }
    out
}

/// Passes that report no step count.
const UNCOUNTED_PASSES: &[&str] = &["site-layout", "clause-coloring", "qaoa-lower"];

/// Layers only `daemon-warm` exercises — the read side of the cache and
/// store, and the socket. Its traced runs print them after
/// [`per_layer`]'s list.
pub const DAEMON_LAYERS: &[(&str, &str)] = &[
    ("cache.lookup_s", "s"),
    ("cache.memory_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.hit_ratio", "1"),
    ("cache.evictions", "count"),
    ("server.frame_s", "s"),
    ("server.rtt_us", "us"),
    ("server.overhead_ms", "ms"),
    ("server.queue_wait_s", "s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (points, jobs, requests) attempted.
    pub attempted: u64,
    /// Operations that failed, errored, were refused or failed a check.
    pub failed: u64,
    /// The first few failures, for stderr.
    pub problems: Vec<String>,
    /// Metric values by name (units come from the metric tables).
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds to a metric.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.metrics.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Adds the step counts of the passes the metric tables list.
    pub fn add_pass_steps(&mut self, steps: impl IntoIterator<Item = (&'static str, u64)>) {
        for (name, steps) in steps {
            if PASSES.contains(&name) && !UNCOUNTED_PASSES.contains(&name) {
                self.add(&format!("pass.{name}.steps"), steps as f64);
            }
        }
    }

    /// Records the tail rule's result as `tail_ms`, with a note naming
    /// the percentile and the sample count.
    pub fn set_tail_ms(&mut self, latencies_ms: &[f64]) {
        if let Some(t) = stats::tail(latencies_ms, 10) {
            self.set("tail_ms", t.value);
            self.notes.push(format!(
                "tail_ms is p{:.2} over {} samples ({} beyond it)",
                t.percentile, t.count, t.beyond
            ));
        }
    }
}

/// Where a run keeps its files: a fresh directory under the checkout's
/// `.perfbench_out/`, removed when the run ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_out").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of a process (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Writes a traced run's spans as a Chrome trace under `.perfbench_out/`
/// and notes where.
pub fn write_trace(report: &mut Report, workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = Path::new(".perfbench_out").join(format!("{workload}-seed{seed}.trace.json"));
    match std::fs::write(&path, trace::chrome_trace(spans)) {
        Ok(()) => report.notes.push(format!(
            "span file: {} ({} spans)",
            path.display(),
            spans.len()
        )),
        Err(e) => report.fail(format!("cannot write {}: {e}", path.display())),
    }
}

/// The workloads this binary runs.
const WORKLOADS: [&str; 3] = ["paper-sweep", "batch-cold", "daemon-warm"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 0,
        seconds: 50.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| bad(&format!("not one of {}", WORKLOADS.join(", "))))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required ({})", WORKLOADS.join(", ")));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(probe::CHILD_FLAG) {
        println!("{}", probe::mem_probe_ms());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_ms = match probe::in_child() {
        Ok(ms) => ms,
        Err(e) => {
            eprintln!("perfbench: host probe: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match args.workload {
        "paper-sweep" => sweep::run(args.seed, args.seconds, args.trace),
        "batch-cold" => batch::run(args.seed, args.seconds, args.trace, work.path()),
        _ => daemon::run(args.seed, args.seconds, args.trace, work.path()),
    };
    drop(work);
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if report.attempted == 0 {
        report.fail("the run completed no operation".to_string());
    }
    report.set("host.mem_probe_ms", probe_ms);
    println!("host.mem_probe_ms {probe_ms:.3} ms");
    for note in &report.notes {
        println!("{note}");
    }
    for problem in &report.problems {
        eprintln!("perfbench: check failed: {problem}");
    }

    let table: Vec<(String, &str)> = if args.trace {
        let mut table = per_layer();
        if args.workload == "daemon-warm" {
            table.extend(DAEMON_LAYERS.iter().map(|(n, u)| (n.to_string(), *u)));
        }
        table
    } else {
        let mut table: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        if args.workload == "daemon-warm" {
            table.extend(DAEMON_END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)));
        }
        table
    };
    let mut metrics = Vec::new();
    for (name, unit) in &table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name} {value} {unit}");
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON has no infinities: a metric that could not be measured (every
/// request failed) prints as a very large finite number.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}
