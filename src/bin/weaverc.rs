//! `weaverc` — command-line front end for the Weaver retargetable compiler.
//!
//! ```text
//! weaverc <input> [--target fpqa|superconducting|simulator|sc:<device>]
//!         [--frontend dimacs|maxcut|wqasm] [--out file.qasm]
//!         [--no-compression] [--no-parallel-shuttling] [--greedy-coloring]
//!         [--ccz-fidelity F] [--gamma G --beta B] [--check] [--metrics]
//!
//! weaverc batch <dir|manifest> [--jobs N] [--target <name>]
//!         [--frontend <name>] [--check] [--jsonl file] [--out-dir dir]
//!         [--cache-dir dir] [--no-cache] [shared option flags as above]
//!
//! weaverc profile <dir|manifest> [batch flags]
//!
//! weaverc submit <file|dir|manifest> --server unix:<path>|tcp:<host:port>
//!         [--target <name>] [--frontend <name>] [--jsonl file] [--out file]
//!         [shared option flags]
//!
//! weaverc admin <ping|stats|shutdown> --server <addr>
//!
//! weaverc cache stats <dir>
//! weaverc cache compact <dir>
//!
//! weaverc targets
//! weaverc frontends
//!
//! global flags: [--trace file.json|file.jsonl] [--metrics file|-]
//! ```
//!
//! Single-shot mode reads one workload file in any registered frontend
//! format — DIMACS CNF / weighted WCNF Max-SAT, max-cut edge lists
//! (`.mc`), or direct wQasm circuits (`.wq`) — resolved through the
//! `weaver_core::FrontendRegistry` (`--frontend` first, then the file
//! extension, then content sniffing), compiles it for the chosen backend
//! (dispatched through the `weaver_core::backend::BackendRegistry`),
//! prints metrics, and optionally writes the compiled wQasm program and
//! runs the wChecker. `--target` accepts any registered name or alias —
//! including the `sc:*` superconducting device family (`sc:line`,
//! `sc:grid`, `sc:eagle`, `sc:heron`) and parameterized lattices like
//! `sc:grid:4x5`, minted on demand. Circuit workloads compile on
//! circuit-capable targets only (simulator, superconducting, `sc:*`).
//! Batch mode compiles a whole fixture directory or manifest through
//! `weaver-engine`: workers take jobs in manifest order, finished
//! artifacts land in a content-addressed cache, and results stream as
//! JSONL (each successful record carrying the per-pass timing trace).
//! `weaverc submit` is the client half of the `weaverd` compile daemon:
//! workloads are read and their frontends resolved locally, then shipped
//! inline over the framed JSON protocol to `--server` and the streamed
//! results are printed exactly like a local batch (a single workload file
//! behaves like single-shot mode, writing the compiled wQasm to `--out`
//! or stdout); `weaverc admin` sends one control verb — `ping`, `stats`
//! (queue, cache tiers, store introspection, and the daemon's full
//! Prometheus snapshot), or `shutdown` (graceful drain). `weaverc cache
//! stats` opens a batch cache directory's paged artifact store (running
//! crash recovery if the last writer died mid-operation), runs a full
//! checksum scan, and reports layout, counters, and a final
//! consistent/INCONSISTENT verdict; `weaverc cache compact` rewrites the
//! store without its free pages. `weaverc targets` lists the registered
//! backends; `weaverc frontends` the registered front ends. The global
//! `--trace` flag drains the span collector into a Chrome
//! `chrome://tracing` / Perfetto JSON file (flat JSONL with a `.jsonl`
//! extension) and `--metrics` dumps the Prometheus metric snapshot to a
//! file (`-` = stderr); `weaverc profile` runs a batch with tracing
//! forced on and prints a per-pass breakdown (calls, total vs self time,
//! p50/p99 read back from the pass-duration histograms) instead of the
//! JSONL stream. Failures exit nonzero with a one-line
//! structured `weaverc: error: <kind>: <message>` diagnostic instead of
//! panicking mid-batch; a bad `--target` value is `unknown-target`, an
//! unrecognizable input format `unknown-format`, and a circuit sent to a
//! formula-only target `unsupported-workload`.

use std::io::Write as _;
use std::process::ExitCode;
use weaver::core::backend::{BackendErrorKind, BackendRegistry, CompiledArtifact};
use weaver::core::{FrontendRegistry, Workload};
use weaver::engine::{
    discover_jobs, job_record, CacheConfig, Engine, EngineConfig, JobOptions, Target,
};

struct Args {
    input: String,
    target: String,
    frontend: Option<String>,
    out: Option<String>,
    compression: bool,
    parallel_shuttling: bool,
    dsatur: bool,
    ccz_fidelity: Option<f64>,
    gamma: f64,
    beta: f64,
    check: bool,
    // Observability surface (any mode): Chrome-trace / JSONL span export,
    // Prometheus metrics dump, and the `profile` per-pass breakdown.
    trace: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    // Batch-only surface.
    batch: bool,
    // `weaverc submit` / `weaverc admin` client surface for `weaverd`.
    submit: bool,
    server: Option<String>,
    admin_cmd: Option<String>,
    // `weaverc cache <stats|compact> <dir>` maintenance surface.
    cache_cmd: Option<(String, String)>,
    jobs: usize,
    jsonl: Option<String>,
    out_dir: Option<String>,
    cache_dir: Option<String>,
    use_cache: bool,
}

fn usage() -> &'static str {
    "usage: weaverc <input> [--target fpqa|superconducting|simulator|sc:<device>] [--out file.qasm]\n\
     \x20              [--frontend dimacs|maxcut|wqasm]\n\
     \x20              [--no-compression] [--no-parallel-shuttling] [--greedy-coloring]\n\
     \x20              [--ccz-fidelity F] [--gamma G] [--beta B] [--check]\n\
     \x20      weaverc batch <dir|manifest> [--jobs N] [--target <name>] [--frontend <name>]\n\
     \x20              [--check] [--jsonl file] [--out-dir dir] [--cache-dir dir]\n\
     \x20              [--no-cache] [shared option flags]\n\
     \x20      weaverc profile <dir|manifest> [batch flags]\n\
     \x20      weaverc submit <file|dir|manifest> --server unix:<path>|tcp:<host:port>\n\
     \x20              [--target <name>] [--frontend <name>] [--jsonl file] [--out file]\n\
     \x20              [shared option flags]\n\
     \x20      weaverc admin <ping|stats|shutdown> --server <addr>\n\
     \x20      weaverc cache stats <dir>\n\
     \x20      weaverc cache compact <dir>\n\
     \x20      weaverc targets\n\
     \x20      weaverc frontends\n\
     \x20      global: [--trace file.json|file.jsonl] [--metrics file|-]"
}

/// Prints the one-line structured diagnostic every failure path uses.
fn error_line(kind: &str, message: &str) -> ExitCode {
    eprintln!("weaverc: error: {kind}: {message}");
    ExitCode::FAILURE
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        target: "fpqa".to_string(),
        frontend: None,
        out: None,
        compression: true,
        parallel_shuttling: true,
        dsatur: true,
        ccz_fidelity: None,
        gamma: 0.7,
        beta: 0.3,
        check: false,
        trace: None,
        metrics_out: None,
        profile: false,
        batch: false,
        submit: false,
        server: None,
        admin_cmd: None,
        cache_cmd: None,
        jobs: 0,
        jsonl: None,
        out_dir: None,
        cache_dir: None,
        use_cache: true,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("batch") {
        args.batch = true;
        it.next();
    }
    // `weaverc profile <dir|manifest>` is batch mode with tracing forced on
    // and a per-pass breakdown instead of the JSONL stream; it accepts
    // every batch flag.
    if !args.batch && it.peek().map(String::as_str) == Some("profile") {
        args.batch = true;
        args.profile = true;
        it.next();
    }
    // `weaverc submit <input> --server <addr>` — the weaverd client. It
    // shares the single-shot/batch option flags plus `--jsonl`/`--out`.
    if !args.batch && it.peek().map(String::as_str) == Some("submit") {
        args.submit = true;
        it.next();
    }
    // `weaverc admin <ping|stats|shutdown> --server <addr>` — daemon
    // control; parsed up front (it shares no flags with the compile
    // modes).
    if !args.batch && !args.submit && it.peek().map(String::as_str) == Some("admin") {
        it.next();
        let verb = match it.next() {
            Some(v) if v == "ping" || v == "stats" || v == "shutdown" => v,
            Some(v) => return Err(format!("unknown admin verb `{v}`\n{}", usage())),
            None => return Err(format!("missing admin verb\n{}", usage())),
        };
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--server" => args.server = Some(it.next().ok_or("missing value for --server")?),
                "--help" | "-h" => return Err(usage().to_string()),
                other => return Err(format!("unknown argument `{other}`\n{}", usage())),
            }
        }
        if args.server.is_none() {
            return Err(format!("`weaverc admin` requires --server\n{}", usage()));
        }
        args.input = verb.clone();
        args.admin_cmd = Some(verb);
        return Ok(args);
    }
    // `weaverc cache <stats|compact> <dir>` — store maintenance; parsed
    // up front (it shares no flags with the compile modes).
    if !args.batch && !args.submit && it.peek().map(String::as_str) == Some("cache") {
        it.next();
        let action = match it.next() {
            Some(a) if a == "stats" || a == "compact" => a,
            Some(a) => return Err(format!("unknown cache action `{a}`\n{}", usage())),
            None => return Err(format!("missing cache action\n{}", usage())),
        };
        let dir = it
            .next()
            .ok_or_else(|| format!("missing cache directory\n{}", usage()))?;
        if let Some(extra) = it.next() {
            return Err(format!(
                "`weaverc cache {action}` takes one directory (got `{extra}`)\n{}",
                usage()
            ));
        }
        args.input = dir.clone();
        args.cache_cmd = Some((action, dir));
        return Ok(args);
    }
    // `weaverc batch targets` keeps treating `targets` as a path (same for
    // `frontends` and `submit`).
    if !args.batch && !args.submit {
        if let keyword @ ("targets" | "frontends") =
            it.peek().map(String::as_str).unwrap_or_default()
        {
            let keyword = keyword.to_string();
            it.next();
            if let Some(extra) = it.next() {
                return Err(format!(
                    "`weaverc {keyword}` takes no arguments (got `{extra}`)\n{}",
                    usage()
                ));
            }
            args.input = keyword;
            return Ok(args);
        }
    }
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("missing value for {flag}"))
    };
    let number = |v: String, flag: &str| -> Result<f64, String> {
        v.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--target" => args.target = value(&mut it, "--target")?,
            "--frontend" => args.frontend = Some(value(&mut it, "--frontend")?),
            // Single-shot only; batch writes artifacts via --out-dir.
            "--out" if !args.batch => args.out = Some(value(&mut it, "--out")?),
            "--no-compression" => args.compression = false,
            "--no-parallel-shuttling" => args.parallel_shuttling = false,
            "--greedy-coloring" => args.dsatur = false,
            "--ccz-fidelity" => {
                args.ccz_fidelity =
                    Some(number(value(&mut it, "--ccz-fidelity")?, "--ccz-fidelity")?)
            }
            "--gamma" => args.gamma = number(value(&mut it, "--gamma")?, "--gamma")?,
            "--beta" => args.beta = number(value(&mut it, "--beta")?, "--beta")?,
            "--check" => args.check = true,
            "--trace" => args.trace = Some(value(&mut it, "--trace")?),
            "--metrics" => args.metrics_out = Some(value(&mut it, "--metrics")?),
            "--jobs" if args.batch => {
                args.jobs = value(&mut it, "--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?
            }
            "--server" if args.submit => args.server = Some(value(&mut it, "--server")?),
            "--jsonl" if args.batch || args.submit => args.jsonl = Some(value(&mut it, "--jsonl")?),
            "--out-dir" if args.batch => args.out_dir = Some(value(&mut it, "--out-dir")?),
            "--cache-dir" if args.batch => args.cache_dir = Some(value(&mut it, "--cache-dir")?),
            "--no-cache" if args.batch => args.use_cache = false,
            "--help" | "-h" => return Err(usage().to_string()),
            other if args.input.is_empty() && !other.starts_with('-') => {
                args.input = other.to_string()
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if args.input.is_empty() {
        return Err(usage().to_string());
    }
    if args.submit && args.server.is_none() {
        return Err(format!("`weaverc submit` requires --server\n{}", usage()));
    }
    Ok(args)
}

/// The job options the compile flags select; single-shot, batch and
/// submit all read their flags through here.
fn job_options(args: &Args) -> JobOptions {
    JobOptions {
        compression: args.compression,
        parallel_shuttling: args.parallel_shuttling,
        dsatur: args.dsatur,
        ccz_fidelity: args.ccz_fidelity,
        gamma: args.gamma,
        beta: args.beta,
        check: args.check,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Span collection must be live before the first compile; `profile`
    // implies it even without an export file.
    if args.trace.is_some() || args.profile {
        weaver::obs::span::set_enabled(true);
    }
    let code = if let Some((action, dir)) = &args.cache_cmd {
        run_cache(action, dir)
    } else if let Some(verb) = &args.admin_cmd {
        run_admin(verb, args.server.as_deref().unwrap_or_default())
    } else if args.submit {
        run_submit(&args)
    } else if args.input == "targets" && !args.batch {
        run_targets()
    } else if args.input == "frontends" && !args.batch {
        run_frontends()
    } else if args.batch {
        run_batch(&args)
    } else {
        run_single(&args)
    };
    finish_observability(&args, code)
}

/// Drains the span collector into `--trace` (profile mode drains it
/// itself) and dumps the Prometheus snapshot to `--metrics` (`-` =
/// stderr). Runs after every mode so both flags are global.
fn finish_observability(args: &Args, code: ExitCode) -> ExitCode {
    let mut code = code;
    if !args.profile {
        if let Some(path) = &args.trace {
            if let Err(msg) = write_trace(path, &weaver::obs::span::take()) {
                code = error_line("io", &msg);
            }
        }
    }
    if let Some(dest) = &args.metrics_out {
        let snapshot = weaver::obs::metrics::snapshot();
        if dest == "-" {
            eprint!("{snapshot}");
        } else if let Err(e) = std::fs::write(dest, snapshot) {
            code = error_line("io", &format!("cannot write {dest}: {e}"));
        }
    }
    code
}

/// Writes a drained trace to `path`: flat JSONL for a `.jsonl` extension,
/// Chrome `chrome://tracing` / Perfetto JSON otherwise.
fn write_trace(path: &str, trace: &weaver::obs::Trace) -> Result<(), String> {
    let body = if path.ends_with(".jsonl") {
        trace.to_jsonl()
    } else {
        trace.chrome_json()
    };
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))
}

/// `weaverc targets` — lists the backend registry (name, aliases,
/// description, capacity).
fn run_targets() -> ExitCode {
    let registry = BackendRegistry::global();
    println!("registered targets:");
    for backend in registry.backends() {
        let info = backend.info();
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (alias {})", info.aliases.join(", "))
        };
        let capacity = match info.max_qubits {
            Some(n) => format!("up to {n} qubits"),
            None => "unbounded".to_string(),
        };
        println!(
            "  {:<16} {}{} — {} [passes: {}]",
            info.name,
            capacity,
            aliases,
            info.description,
            backend.passes().join(" → "),
        );
    }
    ExitCode::SUCCESS
}

/// `weaverc frontends` — lists the frontend registry (name, aliases,
/// extensions, description, produced workload kind).
fn run_frontends() -> ExitCode {
    let registry = FrontendRegistry::global();
    println!("registered front ends:");
    for front in registry.frontends() {
        let info = front.info();
        let aliases = if info.aliases.is_empty() {
            String::new()
        } else {
            format!(" (alias {})", info.aliases.join(", "))
        };
        let extensions: Vec<String> = info.extensions.iter().map(|e| format!(".{e}")).collect();
        println!(
            "  {:<16} {}{} — {} [produces: {}]",
            info.name,
            extensions.join(" "),
            aliases,
            info.description,
            info.produces,
        );
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

/// `weaverc cache stats <dir>` / `weaverc cache compact <dir>` — opens the
/// paged artifact store in a batch cache directory (running crash recovery
/// if the previous writer died mid-operation) and either reports a full
/// consistency scan or compacts free pages away.
fn run_cache(action: &str, dir: &str) -> ExitCode {
    use weaver::engine::store::{Store, StoreTuning};
    let path = std::path::Path::new(dir);
    if !path.join(weaver::engine::store::STORE_FILE).exists() {
        return error_line("io", &format!("no artifact store in {dir}"));
    }
    let mut store = match Store::open(path, StoreTuning::default()) {
        Ok(s) => s,
        Err(e) if weaver::engine::store::is_locked(&e) => {
            return error_line(
                "busy",
                &format!("store in {dir} is held by another process"),
            );
        }
        Err(e) => return error_line("io", &format!("cannot open store in {dir}: {e}")),
    };
    let recovery = store.recovery();
    if recovery.recovered() {
        eprintln!(
            "weaverc: recovery on open — {} WAL record{} replayed, {} torn WAL byte{} discarded, \
             {} page{} quarantined, {} chain{} dropped{}",
            recovery.replayed,
            if recovery.replayed == 1 { "" } else { "s" },
            recovery.torn_wal_bytes,
            if recovery.torn_wal_bytes == 1 {
                ""
            } else {
                "s"
            },
            recovery.quarantined_pages,
            if recovery.quarantined_pages == 1 {
                ""
            } else {
                "s"
            },
            recovery.dropped_chains,
            if recovery.dropped_chains == 1 {
                ""
            } else {
                "s"
            },
            if recovery.header_rebuilt {
                ", header rebuilt"
            } else {
                ""
            },
        );
    }
    match action {
        "stats" => {
            let verify = match store.verify() {
                Ok(v) => v,
                Err(e) => return error_line("io", &format!("verification scan failed: {e}")),
            };
            let stats = store.stats();
            println!(
                "store: {}",
                path.join(weaver::engine::store::STORE_FILE).display()
            );
            println!("  page size:       {} B", stats.page_size);
            println!(
                "  pages:           {} ({} live, {} free)",
                stats.page_count, stats.live_pages, stats.free_pages
            );
            println!("  artifacts:       {}", stats.artifacts);
            println!("  file bytes:      {}", stats.file_bytes);
            println!("  wal bytes:       {}", stats.wal_bytes);
            println!("  checksum fails:  {}", stats.checksum_failures);
            println!("  wal replayed:    {}", stats.wal_replayed);
            println!("  recoveries:      {}", stats.recoveries);
            // Same numbers again in Prometheus exposition format, for
            // scraping / diffing against a live process.
            store.publish_metrics();
            println!();
            print!("{}", weaver::obs::metrics::snapshot());
            if verify.consistent() {
                println!(
                    "verify: consistent ({} artifacts checked)",
                    verify.artifacts_ok
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "verify: INCONSISTENT ({} ok, {} quarantined)",
                    verify.artifacts_ok, verify.artifacts_failed
                );
                ExitCode::FAILURE
            }
        }
        "compact" => match store.compact() {
            Ok(report) => {
                println!(
                    "compacted: {} -> {} bytes, {} artifact{} kept, {} dropped",
                    report.bytes_before,
                    report.bytes_after,
                    report.artifacts,
                    if report.artifacts == 1 { "" } else { "s" },
                    report.dropped,
                );
                ExitCode::SUCCESS
            }
            Err(e) => error_line("io", &format!("compaction failed: {e}")),
        },
        _ => unreachable!("parse_args validated the action"),
    }
}

// ---------------------------------------------------------------------------
// weaverd client: submit + admin
// ---------------------------------------------------------------------------

/// `weaverc submit <file|dir|manifest> --server <addr>` — ships compile
/// jobs to a running `weaverd` over the framed JSON protocol and streams
/// the results back. Workload text is read and its frontend resolved
/// locally (path and extension context does not survive the wire), so the
/// daemon sees fully-specified inline jobs.
fn run_submit(args: &Args) -> ExitCode {
    use weaver::engine::jsonl::JsonValue;
    use weaver::engine::server::{read_frame, write_frame, ClientStream, ListenAddr};
    use weaver::engine::{CompileJob, JobSource};

    let server = args.server.as_deref().unwrap_or_default();
    let addr = match ListenAddr::parse(server) {
        Ok(a) => a,
        Err(e) => return error_line("io", &format!("bad --server `{server}`: {e}")),
    };
    let target = match Target::parse(&args.target) {
        Ok(t) => t,
        Err(e) => return error_line("unknown-target", &e),
    };
    let defaults = job_options(args);
    let registry = FrontendRegistry::global();
    if let Some(name) = &args.frontend {
        if registry.get(name).is_none() {
            return error_line("unknown-format", &registry.unknown_format(name));
        }
    }

    // A file whose extension any frontend claims (or with `--frontend`
    // pinned) is one workload, compiled like single-shot mode; everything
    // else goes through the same dir/manifest discovery as `weaverc
    // batch`.
    let path = std::path::Path::new(&args.input);
    let claimed_extension = path
        .extension()
        .and_then(|x| x.to_str())
        .map(|x| x.to_ascii_lowercase())
        .is_some_and(|x| {
            registry
                .frontends()
                .any(|f| f.info().extensions.contains(&x))
        });
    let single = path.is_file() && (args.frontend.is_some() || claimed_extension);
    let jobs: Vec<CompileJob> = if single {
        vec![CompileJob {
            source: JobSource::Path(path.to_path_buf()),
            frontend: args.frontend.clone(),
            target,
            options: defaults,
        }]
    } else {
        let mut jobs = match discover_jobs(path, target, &defaults) {
            Ok(jobs) => jobs,
            Err(e) => return error_line("io", &e),
        };
        if let Some(name) = &args.frontend {
            for job in jobs.iter_mut().filter(|j| j.frontend.is_none()) {
                job.frontend = Some(name.clone());
            }
        }
        jobs
    };

    let mut requests = Vec::new();
    for (id, job) in jobs.iter().enumerate() {
        let JobSource::Path(p) = &job.source else {
            return error_line("io", "discovery produced a non-path job");
        };
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => return error_line("io", &format!("cannot read {}: {e}", p.display())),
        };
        let frontend = match registry.resolve(job.frontend.as_deref(), Some(p), &text) {
            Ok(front) => front.info().name,
            Err(e) => return error_line("unknown-format", &e),
        };
        let mut request = weaver::engine::jsonl::JsonObject::new()
            .str("verb", "compile")
            .u64("id", id as u64)
            .str("name", &p.display().to_string())
            .str("text", &text)
            .str("frontend", &frontend)
            .str("target", job.target.name())
            .bool("check", job.options.check)
            .bool("compression", job.options.compression)
            .bool("parallel-shuttling", job.options.parallel_shuttling)
            .bool("dsatur", job.options.dsatur)
            .f64("gamma", job.options.gamma)
            .f64("beta", job.options.beta)
            .bool("emit", single);
        if let Some(f) = job.options.ccz_fidelity {
            request = request.f64("ccz-fidelity", f);
        }
        requests.push(request.finish());
    }

    let mut stream = match ClientStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => return error_line("io", &format!("cannot connect to {addr}: {e}")),
    };
    // Pipeline every request before reading: the daemon streams job
    // records back in completion order, tagged with our ids.
    for request in &requests {
        if let Err(e) = write_frame(&mut stream, request.as_bytes()) {
            return error_line("io", &format!("cannot send to {addr}: {e}"));
        }
    }

    let sink_file = match &args.jsonl {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(std::sync::Mutex::new(f)),
            Err(e) => return error_line("io", &format!("cannot create {path}: {e}")),
        },
        None => None,
    };
    let mut failed = 0usize;
    let mut single_artifact: Option<String> = None;
    for _ in 0..requests.len() {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                return error_line("io", &format!("{addr} closed before all results arrived"))
            }
            Err(e) => return error_line("io", &format!("cannot receive from {addr}: {e}")),
        };
        let line = String::from_utf8_lossy(&frame).into_owned();
        let record = match JsonValue::parse(&line) {
            Ok(v) => v,
            Err(e) => return error_line("io", &format!("bad record from {addr}: {e}")),
        };
        match record.str_field("kind") {
            Some("job") => {
                if record.str_field("status") != Some("ok") {
                    failed += 1;
                    let kind = record.str_field("error_kind").unwrap_or("check");
                    let what = record
                        .str_field("error")
                        .unwrap_or("wChecker FAIL")
                        .to_string();
                    let name = record.str_field("name").unwrap_or("?");
                    eprintln!("weaverc: error: {kind}: {what} ({name})");
                } else if single {
                    single_artifact = record.str_field("wqasm").map(str::to_string);
                }
            }
            Some("busy") => {
                failed += 1;
                eprintln!(
                    "weaverc: error: server-busy: queue at bound {} — resubmit later",
                    record
                        .get("limit")
                        .and_then(JsonValue::as_u64)
                        .unwrap_or_default()
                );
            }
            _ => {
                failed += 1;
                let kind = record.str_field("error_kind").unwrap_or("io");
                let what = record.str_field("error").unwrap_or("unexpected record");
                eprintln!("weaverc: error: {kind}: {what}");
            }
        }
        // The JSONL stream mirrors local batch mode; single-file mode
        // reserves stdout for the compiled wQasm instead.
        match &sink_file {
            Some(file) => {
                let _ = writeln!(file.lock().unwrap(), "{line}");
            }
            None if single => {}
            None => println!("{line}"),
        }
    }

    if single {
        return match single_artifact {
            Some(qasm) if failed == 0 => write_output(&args.out, &qasm),
            _ => ExitCode::FAILURE,
        };
    }
    eprintln!(
        "weaverc: submit done — {}/{} succeeded on {addr}",
        requests.len() - failed,
        requests.len(),
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `weaverc admin <ping|stats|shutdown> --server <addr>` — one control
/// verb against a running `weaverd`. `stats` prints a short summary plus
/// the daemon's full Prometheus snapshot; the other verbs echo the raw
/// response record.
fn run_admin(verb: &str, server: &str) -> ExitCode {
    use weaver::engine::jsonl::{JsonObject, JsonValue};
    use weaver::engine::server::{read_frame, write_frame, ClientStream, ListenAddr};

    let addr = match ListenAddr::parse(server) {
        Ok(a) => a,
        Err(e) => return error_line("io", &format!("bad --server `{server}`: {e}")),
    };
    let mut stream = match ClientStream::connect(&addr) {
        Ok(s) => s,
        Err(e) => return error_line("io", &format!("cannot connect to {addr}: {e}")),
    };
    let request = JsonObject::new().str("verb", verb).u64("id", 0).finish();
    if let Err(e) = write_frame(&mut stream, request.as_bytes()) {
        return error_line("io", &format!("cannot send to {addr}: {e}"));
    }
    let frame = match read_frame(&mut stream) {
        Ok(Some(frame)) => frame,
        Ok(None) => return error_line("io", &format!("{addr} closed without answering")),
        Err(e) => return error_line("io", &format!("cannot receive from {addr}: {e}")),
    };
    let line = String::from_utf8_lossy(&frame).into_owned();
    if verb != "stats" {
        println!("{line}");
        return ExitCode::SUCCESS;
    }
    let record = match JsonValue::parse(&line) {
        Ok(v) => v,
        Err(e) => return error_line("io", &format!("bad record from {addr}: {e}")),
    };
    let count = |v: Option<&JsonValue>, key: &str| {
        v.and_then(|v| v.get(key))
            .and_then(JsonValue::as_u64)
            .unwrap_or_default()
    };
    let top = Some(&record);
    println!(
        "queue:  {} queued (bound {}), {} workers{}",
        count(top, "queue_depth"),
        count(top, "queue_bound"),
        count(top, "workers"),
        if record.get("draining").and_then(JsonValue::as_bool) == Some(true) {
            ", draining"
        } else {
            ""
        },
    );
    let cache = record.get("cache");
    println!(
        "cache:  {} memory hits, {} disk hits, {} misses, {} evictions",
        count(cache, "memory_hits"),
        count(cache, "disk_hits"),
        count(cache, "misses"),
        count(cache, "evictions"),
    );
    let store = record.get("store");
    if store.is_some_and(|s| s.get("artifacts").is_some()) {
        println!(
            "store:  {} artifacts on {} live pages ({} free), {} wal fsyncs ({} group commits)",
            count(store, "artifacts"),
            count(store, "live_pages"),
            count(store, "free_pages"),
            count(store, "wal_fsyncs"),
            count(store, "group_commits"),
        );
    }
    println!();
    if let Some(snapshot) = record.str_field("metrics") {
        print!("{snapshot}");
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Batch mode
// ---------------------------------------------------------------------------

fn run_batch(args: &Args) -> ExitCode {
    let target = match Target::parse(&args.target) {
        Ok(t) => t,
        Err(e) => return error_line("unknown-target", &e),
    };
    let defaults = job_options(args);
    if let Some(name) = &args.frontend {
        if FrontendRegistry::global().get(name).is_none() {
            return error_line(
                "unknown-format",
                &FrontendRegistry::global().unknown_format(name),
            );
        }
    }
    let mut jobs = match discover_jobs(std::path::Path::new(&args.input), target, &defaults) {
        Ok(jobs) => jobs,
        Err(e) => return error_line("io", &e),
    };
    // `--frontend` seeds jobs that did not pin one via a manifest line.
    if let Some(name) = &args.frontend {
        for job in jobs.iter_mut().filter(|j| j.frontend.is_none()) {
            job.frontend = Some(name.clone());
        }
    }
    let config = EngineConfig {
        jobs: args.jobs,
        cache: CacheConfig {
            disk_dir: args.cache_dir.as_ref().map(Into::into),
            ..CacheConfig::default()
        },
        use_cache: args.use_cache,
    };
    let engine = match Engine::try_new(config.clone()) {
        Ok(engine) => engine,
        // Another live process holds the store: run memory-only, with
        // `disk_disabled` and the reason in the batch record.
        Err(e) if weaver::engine::store::is_locked(&e) => Engine::new(config),
        Err(e) => return error_line("io", &format!("cannot open cache dir: {e}")),
    };
    if let Some(dir) = &args.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return error_line("io", &format!("cannot create {dir}: {e}"));
        }
    }

    let n = jobs.len();
    eprintln!(
        "weaverc: batch of {n} job{} on {} worker{} (cache: {})",
        if n == 1 { "" } else { "s" },
        engine.workers(),
        if engine.workers() == 1 { "" } else { "s" },
        if !args.use_cache {
            "off".to_string()
        } else if let Some(dir) = args
            .cache_dir
            .as_ref()
            .filter(|_| engine.cache().store_stats().is_some())
        {
            format!("memory + disk at {dir}")
        } else {
            "memory".to_string()
        },
    );

    // Stream one JSONL record per finished job (stdout or --jsonl file).
    let sink_file = match &args.jsonl {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(std::sync::Mutex::new(f)),
            Err(e) => return error_line("io", &format!("cannot create {path}: {e}")),
        },
        None => None,
    };
    let stdout = std::sync::Mutex::new(std::io::stdout());
    let emit_record = |line: &str| match &sink_file {
        Some(file) => {
            let _ = writeln!(file.lock().unwrap(), "{line}");
        }
        // Profile mode prints a table instead of a JSONL stream; records
        // still land in --jsonl when asked for.
        None if args.profile => {}
        None => {
            let _ = writeln!(stdout.lock().unwrap(), "{line}");
        }
    };
    let report = engine.run_streaming(jobs, &|result| emit_record(&job_record(result)));
    emit_record(&report.batch_record());

    if args.profile {
        let trace = weaver::obs::span::take();
        print_profile(&trace);
        if let Some(path) = &args.trace {
            if let Err(msg) = write_trace(path, &trace) {
                return error_line("io", &msg);
            }
        }
    }

    // Optionally materialize artifacts next to their job names. Stems can
    // collide (same file name in two directories, or one file listed twice
    // in a manifest under different options) — disambiguate with the job
    // index rather than silently overwriting.
    if let Some(dir) = &args.out_dir {
        let mut used = std::collections::HashSet::new();
        for result in &report.results {
            if let Ok(artifact) = &result.artifact {
                let stem = std::path::Path::new(&result.name)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| format!("job-{}", result.index));
                let name = if used.insert(stem.clone()) {
                    format!("{stem}.qasm")
                } else {
                    format!("{stem}-{}.qasm", result.index)
                };
                let path = std::path::Path::new(dir).join(name);
                if let Err(e) = std::fs::write(&path, &artifact.wqasm) {
                    return error_line("io", &format!("cannot write {}: {e}", path.display()));
                }
            }
        }
    }

    eprintln!(
        "weaverc: batch done — {}/{} succeeded, {} cache hit{}, {:.2} jobs/s ({:.3} s)",
        report.succeeded(),
        report.results.len(),
        report.cache_hits(),
        if report.cache_hits() == 1 { "" } else { "s" },
        report.jobs_per_sec(),
        report.wall_seconds,
    );
    for result in report.results.iter().filter(|r| !r.succeeded()) {
        match &result.artifact {
            Err(e) => eprintln!(
                "weaverc: error: {}: {} ({})",
                e.kind.name(),
                e.message,
                result.name
            ),
            Ok(a) => eprintln!(
                "weaverc: error: check: wChecker FAIL with {} finding{} ({})",
                a.check_errors.len(),
                if a.check_errors.len() == 1 { "" } else { "s" },
                result.name
            ),
        }
    }
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `weaverc profile` — aggregates the drained trace into a per-pass table:
/// call count, total wall time, self time (total minus nested child
/// spans), and p50/p99 latencies read back from the process-global
/// `weaver_pass_duration_seconds` histograms.
fn print_profile(trace: &weaver::obs::Trace) {
    use std::collections::{BTreeMap, HashMap};

    // Sum of direct-child durations per span, for self-time.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in &trace.spans {
        if s.parent != 0 {
            *child_us.entry(s.parent).or_default() += s.dur_us;
        }
    }
    #[derive(Default)]
    struct Row {
        calls: u64,
        total_us: u64,
        self_us: u64,
    }
    let mut rows: BTreeMap<&str, Row> = BTreeMap::new();
    for s in trace.spans.iter().filter(|s| s.cat == "pass") {
        let row = rows.entry(s.name.as_str()).or_default();
        row.calls += 1;
        row.total_us += s.dur_us;
        row.self_us += s
            .dur_us
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0));
    }
    if rows.is_empty() {
        println!("profile: no pass spans recorded (every job served from cache?)");
        return;
    }
    let mut rows: Vec<(&str, Row)> = rows.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1.total_us));

    let quantile_ms = |name: &str, q: f64| -> String {
        weaver::core::backend::pass_duration_histogram(name)
            .quantile(q)
            .map_or_else(|| "-".to_string(), |v| format!("{:.3}", v * 1e3))
    };
    println!(
        "{:<26} {:>7} {:>11} {:>11} {:>11} {:>11}",
        "pass", "calls", "total s", "self s", "p50 ms", "p99 ms"
    );
    for (name, row) in rows {
        println!(
            "{:<26} {:>7} {:>11.6} {:>11.6} {:>11} {:>11}",
            name,
            row.calls,
            row.total_us as f64 * 1e-6,
            row.self_us as f64 * 1e-6,
            quantile_ms(name, 0.50),
            quantile_ms(name, 0.99),
        );
    }
}

// ---------------------------------------------------------------------------
// Single-shot mode
// ---------------------------------------------------------------------------

fn run_single(args: &Args) -> ExitCode {
    let text = match std::fs::read_to_string(&args.input) {
        Ok(t) => t,
        Err(e) => return error_line("io", &format!("cannot read {}: {e}", args.input)),
    };
    let registry = FrontendRegistry::global();
    let front = match registry.resolve(
        args.frontend.as_deref(),
        Some(std::path::Path::new(&args.input)),
        &text,
    ) {
        Ok(front) => front,
        Err(e) => return error_line("unknown-format", &e),
    };
    let workload = match front.parse(&text) {
        Ok(w) => w,
        Err(e) => return error_line("parse", &format!("{}: {e}", args.input)),
    };
    eprintln!(
        "weaverc: {} — {} [{}]",
        args.input,
        workload.describe(),
        front.info().name
    );

    let weaver = job_options(args).weaver();

    // One dispatch site: the backend registry resolves the target name (or
    // alias) and compiles; per-target reporting reads the artifact variant.
    let output = match weaver.compile_workload(&args.target, &workload) {
        Ok(output) => output,
        Err(e) if e.kind == BackendErrorKind::UnknownTarget => {
            return error_line("unknown-target", &e.message)
        }
        Err(e) if e.kind == BackendErrorKind::UnsupportedWorkload => {
            return error_line("unsupported-workload", &e.message)
        }
        Err(e) => return error_line("compile", &e.message),
    };
    match &output.artifact {
        CompiledArtifact::Fpqa(compiled) => {
            eprintln!(
                "weaverc: compiled in {:.4} s — {} pulses, {} motion ops, {} colors",
                output.metrics.compilation_seconds,
                output.metrics.pulses,
                output.metrics.motion_ops,
                compiled.coloring.num_colors,
            );
            eprintln!(
                "weaverc: estimated execution {:.4} s, EPS {:.3e}",
                output.metrics.execution_micros * 1e-6,
                output.metrics.eps
            );
        }
        CompiledArtifact::Superconducting { swap_count, .. } => {
            eprintln!(
                "weaverc: compiled in {:.4} s — {} gates, {} SWAPs inserted",
                output.metrics.compilation_seconds, output.metrics.pulses, swap_count
            );
            eprintln!(
                "weaverc: estimated execution {:.4} s, EPS {:.3e}",
                output.metrics.execution_micros * 1e-6,
                output.metrics.eps
            );
        }
        CompiledArtifact::Simulator(run) => {
            eprintln!(
                "weaverc: compiled in {:.4} s — {} native gates, ideal state-vector run",
                output.metrics.compilation_seconds, output.metrics.pulses,
            );
            match &workload {
                Workload::MaxSat(formula) => eprintln!(
                    "weaverc: ideal EPS {:.3e} ({} of 2^{} basis states reach optimum {})",
                    run.optimal_probability,
                    run.num_optimal,
                    formula.num_vars(),
                    run.max_satisfied,
                ),
                Workload::Circuit(_) => eprintln!(
                    "weaverc: peak basis-state probability {:.3e} ({} peak state{})",
                    run.optimal_probability,
                    run.num_optimal,
                    if run.num_optimal == 1 { "" } else { "s" },
                ),
            }
        }
    }
    if args.check {
        match weaver.verify(&output, &workload) {
            Some(report) if report.passed() => {
                let equivalence = if report.equivalence_checked {
                    format!(
                        "equivalence checked on {} random stimuli",
                        weaver::core::checker::STIMULI
                    )
                } else {
                    let qubits = report.reconstructed.as_ref().map_or(0, |c| c.num_qubits());
                    format!(
                        "equivalence skipped: {qubits} > {} qubits",
                        weaver::simulator::UnitaryBuilder::MAX_QUBITS
                    )
                };
                eprintln!(
                    "weaverc: wChecker PASS ({} pulses, {} motions checked, {equivalence})",
                    report.pulses_checked, report.motions_checked
                );
            }
            Some(report) => {
                for e in &report.errors {
                    eprintln!("weaverc:   {e}");
                }
                return error_line(
                    "check",
                    &format!(
                        "wChecker FAIL with {} finding{} ({})",
                        report.errors.len(),
                        if report.errors.len() == 1 { "" } else { "s" },
                        args.input
                    ),
                );
            }
            None => eprintln!(
                "weaverc: no checker for target `{}` — skipping --check",
                args.target
            ),
        }
    }
    let qasm = output.artifact.print_wqasm();
    write_output(&args.out, &qasm)
}

fn write_output(out: &Option<String>, qasm: &str) -> ExitCode {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, qasm) {
                return error_line("io", &format!("cannot write {path}: {e}"));
            }
            eprintln!("weaverc: wrote {path}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{qasm}");
            ExitCode::SUCCESS
        }
    }
}
