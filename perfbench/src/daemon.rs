//! `daemon-warm`: the real `weaverd --jobs 2 --cache-dir <dir>`,
//! restarted on a store the daemon itself filled beforehand with more
//! artifacts than its memory tier holds, serving two closed-loop clients
//! that talk the way `weaverc submit` does.

use crate::batch::{cache_counters, codegen_options};
use crate::checks::{self, fingerprint};
use crate::inputs::{self, Ask, Input, Interaction, Rng};
use crate::trace::{self, Tracer};
use crate::{stats, Report, WORKERS};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use weaver_core::{FrontendRegistry, Weaver};
use weaver_engine::jsonl::{JsonObject, JsonValue};
use weaver_engine::server::{read_frame, write_frame, ClientStream, ListenAddr};
use weaver_engine::{
    job_record_fields, pool, Artifact, ArtifactCache, CacheConfig, CacheOutcome, CompileJob,
    Engine, EngineConfig, JobOptions, JobResult, JobSource, StageTimings, Target,
};

/// Daemon starts timed for `setup_s`; the last one serves the run.
const SETUP_REPS: usize = 3;
/// Requests per fill manifest.
const FILL_CHUNK: usize = 40;
/// `exec_us` and `eps` cover this many leading requests of the stream,
/// so they repeat exactly for a seed however far a run gets.
const QUALITY_PREFIX: usize = 200;
/// Replies compared byte for byte against an in-process `Engine::run`.
const SAMPLE: usize = 6;

/// Seconds without a reply, while requests are outstanding, after which
/// the daemon counts as hung and is killed: its clients then fail fast
/// instead of waiting forever.
const STALL_SECONDS: u64 = 20;

/// Progress of the requests in flight to one daemon.
struct Watch {
    outstanding: AtomicUsize,
    last_progress: Mutex<Instant>,
    stalled: AtomicBool,
    stop: AtomicBool,
}

impl Watch {
    fn progress(&self) {
        *self.last_progress.lock().expect("watch clock poisoned") = Instant::now();
    }
}

/// A running `weaverd`, watched by a thread that kills it when it stops
/// replying.
struct Daemon {
    child: Arc<Mutex<Child>>,
    pid: u32,
    addr: ListenAddr,
    watch: Arc<Watch>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and waits for its first `pong`; returns it with
    /// the seconds from spawn to pong.
    fn start(bin: &Path, work: &Path, store: &Path) -> Result<(Daemon, f64), String> {
        let sock = work.join("weaverd.sock");
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(work.join("weaverd.log"))
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .args(["--jobs", &WORKERS.to_string(), "--cache-dir"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let pid = child.id();
        let child = Arc::new(Mutex::new(child));
        let watch = Arc::new(Watch {
            outstanding: AtomicUsize::new(0),
            last_progress: Mutex::new(Instant::now()),
            stalled: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let watchdog = {
            let (child, watch) = (child.clone(), watch.clone());
            std::thread::spawn(move || {
                while !watch.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(100));
                    let idle = watch
                        .last_progress
                        .lock()
                        .expect("watch clock poisoned")
                        .elapsed();
                    if watch.outstanding.load(Ordering::SeqCst) > 0
                        && idle > Duration::from_secs(STALL_SECONDS)
                    {
                        watch.stalled.store(true, Ordering::SeqCst);
                        let _ = child.lock().expect("daemon handle poisoned").kill();
                        return;
                    }
                }
            })
        };
        let daemon = Daemon {
            child,
            pid,
            addr: ListenAddr::Unix(sock),
            watch,
            watchdog: Some(watchdog),
        };
        loop {
            if let Ok(mut c) = ClientStream::connect(&daemon.addr) {
                let pong = request(&mut c, &JsonObject::new().str("verb", "ping").finish())?;
                if pong.str_field("kind") == Some("pong") {
                    return Ok((daemon, t.elapsed().as_secs_f64()));
                }
                return Err("first ping was not answered with pong".to_string());
            }
            if t.elapsed() > Duration::from_secs(30) {
                return Err("weaverd did not come up within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn connect(&self) -> Result<ClientStream, String> {
        ClientStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Whether the watchdog found the daemon hung and killed it.
    fn stalled(&self) -> bool {
        self.watch.stalled.load(Ordering::SeqCst)
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn stop(self) -> Result<(), String> {
        let mut c = self.connect()?;
        request(&mut c, &JsonObject::new().str("verb", "shutdown").finish())?;
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(60) {
            let exited = self
                .child
                .lock()
                .expect("daemon handle poisoned")
                .try_wait()
                .map_err(|e| e.to_string())?;
            if let Some(status) = exited {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("weaverd exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("weaverd did not drain within 60 s".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.watch.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.watchdog.take() {
            let _ = handle.join();
        }
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(child.try_wait(), Ok(None)) {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
}

/// The failure a hung daemon leaves behind.
fn stall_failure() -> String {
    format!(
        "weaverd sent no reply for {STALL_SECONDS} s with requests outstanding and was killed (hung)"
    )
}

/// Sends one frame and reads one reply.
fn request(c: &mut ClientStream, payload: &str) -> Result<JsonValue, String> {
    write_frame(c, payload.as_bytes()).map_err(|e| format!("write: {e}"))?;
    read_reply(c)
}

fn read_reply(c: &mut ClientStream) -> Result<JsonValue, String> {
    let frame = read_frame(c)
        .map_err(|e| format!("read: {e}"))?
        .ok_or("connection closed before the reply")?;
    let text = String::from_utf8(frame).map_err(|e| e.to_string())?;
    JsonValue::parse(&text)
}

/// The compile request `weaverc submit` sends for one file.
fn compile_frame(id: u64, input: &Input, emit: bool) -> String {
    JsonObject::new()
        .str("verb", "compile")
        .u64("id", id)
        .str("name", &input.name)
        .str("text", &input.text)
        .str("target", &input.target)
        .bool("emit", emit)
        .finish()
}

/// The parts of a `job` reply the checks and metrics read.
#[derive(Clone, Debug)]
struct Reply {
    cache: String,
    key: String,
    exec_us: f64,
    eps: f64,
    steps: u64,
    pulses: u64,
    total_s: f64,
    wqasm: Option<String>,
}

/// Decodes a reply; error, `busy` and failed-status records are errors.
fn decode(v: &JsonValue) -> Result<Reply, String> {
    let kind = v.str_field("kind").unwrap_or("?");
    if kind != "job" || v.str_field("status") != Some("ok") {
        return Err(format!(
            "{kind} record: {}",
            v.str_field("error")
                .or(v.str_field("error_kind"))
                .or(v.str_field("status"))
                .unwrap_or("?")
        ));
    }
    let m = v.get("metrics").ok_or("job record without metrics")?;
    let num = |o: &JsonValue, k: &str| o.get(k).and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
    Ok(Reply {
        cache: v.str_field("cache").unwrap_or("").to_string(),
        key: v.str_field("key").unwrap_or("").to_string(),
        exec_us: num(m, "execution_micros"),
        eps: num(m, "eps"),
        steps: m.get("steps").and_then(JsonValue::as_u64).unwrap_or(0),
        pulses: m.get("pulses").and_then(JsonValue::as_u64).unwrap_or(0),
        total_s: v
            .get("timings")
            .map_or(f64::NAN, |t| num(t, "total_seconds")),
        wqasm: v.str_field("wqasm").map(str::to_string),
    })
}

/// Replies by request id, each with its latency in ms.
type Replies = Vec<(u64, f64, Result<Reply, String>)>;

/// Sends `frames` pipelined on one connection and collects the replies by
/// id, each with its latency from `t0`.
fn interact(daemon: &Daemon, frames: &[(u64, String)], t0: Instant) -> Replies {
    let watch = &daemon.watch;
    if watch.outstanding.fetch_add(frames.len(), Ordering::SeqCst) == 0 {
        watch.progress();
    }
    let mut pending = frames.len();
    let mut run = || -> Result<Replies, String> {
        let mut c = daemon.connect()?;
        for (_, frame) in frames {
            write_frame(&mut c, frame.as_bytes()).map_err(|e| format!("write: {e}"))?;
        }
        let mut out = Vec::new();
        for _ in frames {
            let v = read_reply(&mut c)?;
            let at = t0.elapsed().as_secs_f64() * 1e3;
            watch.progress();
            watch.outstanding.fetch_sub(1, Ordering::SeqCst);
            pending -= 1;
            let id = v.get("id").and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
            out.push((id, at, decode(&v)));
        }
        Ok(out)
    };
    let result = run();
    watch.outstanding.fetch_sub(pending, Ordering::SeqCst);
    match result {
        Ok(out) => out,
        Err(e) => frames
            .iter()
            .map(|(id, _)| (*id, f64::INFINITY, Err(e.clone())))
            .collect(),
    }
}

/// What the fill stored under one request.
#[derive(Clone, Debug)]
struct Stored {
    key: String,
    hash: u64,
    reply: Reply,
}

/// Fills an empty store through the daemon: every fill input compiled
/// once with `emit:true`, two clients, pipelined manifests.
fn fill(daemon: &Daemon, fills: &[Input], report: &mut Report) -> Vec<Option<Stored>> {
    let stored: Mutex<Vec<Option<Stored>>> = Mutex::new(vec![None; fills.len()]);
    let problems = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let from = next.fetch_add(FILL_CHUNK, Ordering::SeqCst);
                if from >= fills.len() {
                    break;
                }
                let to = (from + FILL_CHUNK).min(fills.len());
                let frames: Vec<(u64, String)> = (from..to)
                    .map(|i| (i as u64, compile_frame(i as u64, &fills[i], true)))
                    .collect();
                for (id, _, reply) in interact(daemon, &frames, Instant::now()) {
                    let i = id as usize;
                    let verdict = reply.and_then(|r| {
                        let input = fills.get(i).ok_or("reply with an unknown id")?;
                        let text = r.wqasm.clone().ok_or("fill reply without wqasm")?;
                        if r.cache != "miss" {
                            return Err(format!("fill was a {}", r.cache));
                        }
                        if input.target != "fpqa" {
                            checks::artifact(
                                &input.target,
                                &text,
                                input.qubits,
                                r.eps,
                                None,
                                false,
                            )?;
                        }
                        Ok(Stored {
                            key: r.key.clone(),
                            hash: fingerprint(text.as_bytes()),
                            reply: Reply { wqasm: None, ..r },
                        })
                    });
                    match verdict {
                        Ok(entry) => stored.lock().expect("fill table poisoned")[i] = Some(entry),
                        Err(e) => problems
                            .lock()
                            .expect("fill problems poisoned")
                            .push(format!("fill #{i}: {e}")),
                    }
                }
            });
        }
    });
    for p in problems.into_inner().expect("fill problems poisoned") {
        report.fail(p);
    }
    stored.into_inner().expect("fill table poisoned")
}

/// One timed request and what came back.
struct Outcome {
    interaction: usize,
    slot: usize,
    emit: bool,
    latency_ms: f64,
    reply: Result<Reply, String>,
}

/// The closed-loop phase: two clients, each running interactions back to
/// back until `seconds` have passed. Returns the outcomes in stream order
/// and the phase's wall time.
fn serve(
    daemon: &Daemon,
    seed: u64,
    fills: &[Input],
    seconds: f64,
) -> (Vec<Outcome>, Vec<Interaction>, f64) {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let issued = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let last_end = Mutex::new(start);
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                while Instant::now() < deadline {
                    let j = next.fetch_add(1, Ordering::SeqCst);
                    let it = inputs::interaction(seed, j, fills.len());
                    let frames: Vec<(u64, String)> = it
                        .asks
                        .iter()
                        .enumerate()
                        .map(|(slot, ask)| {
                            let id = slot as u64;
                            (id, compile_frame(id, ask_input(ask, fills), it.emit))
                        })
                        .collect();
                    let t0 = Instant::now();
                    let replies = interact(daemon, &frames, t0);
                    let end = Instant::now();
                    let mut got: Vec<Outcome> = (0..it.asks.len())
                        .map(|slot| Outcome {
                            interaction: j,
                            slot,
                            emit: it.emit,
                            latency_ms: f64::INFINITY,
                            reply: Err("no reply".to_string()),
                        })
                        .collect();
                    for (id, at, reply) in replies {
                        if let Some(o) = got.get_mut(id as usize) {
                            o.latency_ms = at;
                            o.reply = reply;
                        }
                    }
                    outcomes.lock().expect("outcomes poisoned").extend(got);
                    issued.lock().expect("issued poisoned").push((j, it));
                    let mut last = last_end.lock().expect("clock poisoned");
                    *last = (*last).max(end);
                }
            });
        }
    });
    let wall = last_end
        .into_inner()
        .expect("clock poisoned")
        .duration_since(start)
        .as_secs_f64();
    let mut outcomes = outcomes.into_inner().expect("outcomes poisoned");
    outcomes.sort_by_key(|o| (o.interaction, o.slot));
    let mut issued = issued.into_inner().expect("issued poisoned");
    issued.sort_by_key(|(j, _)| *j);
    (
        outcomes,
        issued.into_iter().map(|(_, it)| it).collect(),
        wall,
    )
}

fn ask_input<'a>(ask: &'a Ask, fills: &'a [Input]) -> &'a Input {
    match ask {
        Ask::Repeat(k) => &fills[*k],
        Ask::Fresh(input) => input,
    }
}

/// Checks one reply: a repeat must be a hit with its fill's key and bytes
/// (or, without `emit`, its fill's metrics); a fresh compile must miss
/// and pass the independent artifact checks.
fn check_reply(o: &Outcome, ask: &Ask, stored: &[Option<Stored>]) -> Result<(), String> {
    let r = o.reply.as_ref()?;
    match ask {
        Ask::Repeat(k) => {
            let s = stored[*k].as_ref().ok_or("repeat of a failed fill")?;
            if r.cache != "memory_hit" && r.cache != "disk_hit" {
                return Err(format!("stored key served as {}", r.cache));
            }
            if r.key != s.key {
                return Err("hit under a different key".to_string());
            }
            match &r.wqasm {
                Some(text) if fingerprint(text.as_bytes()) != s.hash => {
                    Err("hit bytes differ from the fill's".to_string())
                }
                Some(_) => Ok(()),
                None if (r.exec_us, r.eps, r.steps, r.pulses)
                    != (s.reply.exec_us, s.reply.eps, s.reply.steps, s.reply.pulses) =>
                {
                    Err("hit metrics differ from the fill's".to_string())
                }
                None => Ok(()),
            }
        }
        Ask::Fresh(input) => {
            if r.cache != "miss" {
                return Err(format!("fresh job served as {}", r.cache));
            }
            match &r.wqasm {
                Some(text) => {
                    checks::artifact(&input.target, text, input.qubits, r.eps, None, false)
                }
                None => Ok(()),
            }
        }
    }
}

/// Compiles a request in-process with `Engine::run` and compares the
/// daemon's reply byte for byte.
fn same_as_engine(input: &Input, r: &Reply) -> Result<(), String> {
    let job = CompileJob {
        source: JobSource::Inline {
            name: input.name.clone(),
            text: input.text.clone(),
        },
        frontend: None,
        target: Target::parse(&input.target)?,
        options: JobOptions::default(),
    };
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        use_cache: false,
        ..EngineConfig::default()
    });
    let result = engine.run(vec![job]).results.remove(0);
    let artifact = result.artifact.map_err(|e| e.to_string())?;
    if result.key != r.key {
        return Err("daemon key differs from Engine::run".to_string());
    }
    if r.wqasm.as_deref() != Some(artifact.wqasm.as_str()) {
        return Err("daemon bytes differ from Engine::run".to_string());
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Result<Report, String> {
    let bin = PathBuf::from(
        std::env::var_os("PERFBENCH_WEAVERD")
            .ok_or("PERFBENCH_WEAVERD names no weaverd binary (run through perfbench/run.sh)")?,
    );
    let mut report = Report::default();
    let fills = inputs::fill_inputs(seed);
    let store = work.join("store");

    // Fill the store through the daemon under test, then stop it.
    let (daemon, _) = Daemon::start(&bin, work, &store)?;
    let stored = fill(&daemon, &fills, &mut report);
    if daemon.stalled() {
        report.fail(format!("during the fill: {}", stall_failure()));
        return Ok(report);
    }
    daemon.stop()?;
    let copies = if traced {
        let a = work.join("store-replay");
        let b = work.join("store-traced");
        copy_store(&store, &a)?;
        copy_store(&store, &b)?;
        Some((a, b))
    } else {
        None
    };

    // Set-up: spawn, store open and recovery, first pong — several times.
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let (d, secs) = Daemon::start(&bin, work, &store)?;
        setups.push(secs);
        if rep + 1 < SETUP_REPS {
            d.stop()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.ok_or("no daemon started")?;
    report.set("setup_s", stats::median(&setups).unwrap_or(0.0));

    let phase = if traced { seconds / 2.0 } else { seconds };
    let (outcomes, issued, wall) = serve(&daemon, seed, &fills, phase);
    if daemon.stalled() {
        report.attempted += outcomes.len() as u64;
        report.fail(stall_failure());
        return Ok(report);
    }
    report.set(
        "peak_rss_mb",
        crate::peak_rss_mb(&daemon.pid.to_string()).unwrap_or(0.0),
    );
    if traced {
        socket_layer(&mut report, &daemon, &outcomes)?;
    }
    daemon.stop()?;

    // Checks and end-to-end metrics.
    let mut latencies = Vec::new();
    let mut quality = Vec::new();
    for o in &outcomes {
        report.attempted += 1;
        let ask = &issued[o.interaction].asks[o.slot];
        match check_reply(o, ask, &stored) {
            Ok(()) => latencies.push(o.latency_ms),
            Err(e) => {
                latencies.push(f64::INFINITY);
                report.fail(format!("request {}.{}: {e}", o.interaction, o.slot));
            }
        }
        if quality.len() < QUALITY_PREFIX {
            if let Ok(r) = &o.reply {
                quality.push((ask_input(ask, &fills).qubits, r.exec_us, r.eps));
            }
        }
    }
    let mut rng = Rng::new(seed, 0x5A3);
    let emitted: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.emit && o.reply.is_ok())
        .collect();
    for _ in 0..SAMPLE.min(emitted.len()) {
        let o = emitted[rng.below(emitted.len())];
        let input = ask_input(&issued[o.interaction].asks[o.slot], &fills);
        if let Err(e) = o
            .reply
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|r| same_as_engine(input, r))
        {
            report.fail(format!("request {}.{}: {e}", o.interaction, o.slot));
        }
    }
    report.set("jobs_per_s", outcomes.len() as f64 / wall);
    report.set("p50_ms", stats::median(&latencies).unwrap_or(0.0));
    report.set_tail_ms(&latencies);
    report.set(
        "exec_us",
        stats::geomean(quality.iter().map(|q| q.1)).unwrap_or(0.0),
    );
    report.set(
        "eps",
        stats::eps_per_qubit(quality.iter().map(|q| (q.2, q.0))).unwrap_or(0.0),
    );
    let hits = outcomes
        .iter()
        .filter(|o| matches!(&o.reply, Ok(r) if r.cache.ends_with("_hit")))
        .count();
    report.notes.push(format!(
        "daemon-warm: {} requests in {} interactions over {wall:.3} s ({hits} cache hits), store of {} artifacts",
        outcomes.len(),
        issued.len(),
        fills.len()
    ));

    if let Some((a, b)) = copies {
        let untraced = replay(
            &mut Report::default(),
            &issued,
            &fills,
            &outcomes,
            &a,
            false,
            seed,
        )?;
        let traced_wall = replay(&mut report, &issued, &fills, &outcomes, &b, true, seed)?;
        report.set("trace_overhead_share", traced_wall / untraced - 1.0);
    }
    Ok(report)
}

/// Copies a closed store directory (its lock file excepted).
fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if name == weaver_engine::store::LOCK_FILE {
            continue;
        }
        std::fs::copy(entry.path(), to.join(&name)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The measurements that only exist across the socket: client latency
/// minus the record's own `total_seconds`, the ping round trip on an open
/// connection, and queue wait from the daemon's histograms.
fn socket_layer(report: &mut Report, daemon: &Daemon, outcomes: &[Outcome]) -> Result<(), String> {
    let overheads: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| {
            o.reply
                .as_ref()
                .ok()
                .map(|r| o.latency_ms - r.total_s * 1e3)
        })
        .filter(|v| v.is_finite())
        .collect();
    report.set(
        "server.overhead_ms",
        stats::median(&overheads).unwrap_or(0.0),
    );

    let mut c = daemon.connect()?;
    let ping = JsonObject::new().str("verb", "ping").finish();
    let mut rtts = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        request(&mut c, &ping)?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set("server.rtt_us", stats::median(&rtts).unwrap_or(0.0));

    let reply = request(&mut c, &JsonObject::new().str("verb", "stats").finish())?;
    let text = reply.str_field("metrics").ok_or("stats without metrics")?;
    let sum = |name: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    report.set(
        "server.queue_wait_s",
        sum("weaver_server_request_seconds_sum") - sum("weaver_job_duration_seconds_sum"),
    );
    Ok(())
}

/// Replays the issued request stream in-process against a copy of the
/// filled store, through the calls the daemon makes per request: frame
/// decode, frontend, key, lookup, (compile, print, store put on a miss),
/// JSON encode, frame encode. With `traced`, every call runs in a span.
/// Keys must match the daemon's replies. Returns the replay's wall time.
fn replay(
    report: &mut Report,
    issued: &[Interaction],
    fills: &[Input],
    outcomes: &[Outcome],
    store: &Path,
    traced: bool,
    seed: u64,
) -> Result<f64, String> {
    let tracer = Tracer::new(traced);
    let open = Instant::now();
    let cache = ArtifactCache::new(CacheConfig {
        disk_dir: Some(store.to_path_buf()),
        ..CacheConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let open_s = open.elapsed().as_secs_f64();
    let bytes_before = cache
        .store_stats()
        .map_or(0, |s| s.file_bytes + s.wal_bytes);
    let counters = Mutex::new(Counters::default());
    let start = Instant::now();
    let keys = pool::run_jobs(
        issued.iter().enumerate().collect(),
        WORKERS,
        |_, (j, it)| {
            let mut keys = Vec::new();
            for (slot, ask) in it.asks.iter().enumerate() {
                let id = (j * 16 + slot) as u64;
                let input = ask_input(ask, fills);
                let key = tracer.time("request", id, None, |root| {
                    replay_request(&tracer, &cache, id, input, it.emit, root, &counters)
                });
                keys.push(key);
            }
            keys
        },
    );
    let wall = start.elapsed().as_secs_f64();

    for (o, key) in outcomes.iter().zip(keys.iter().flatten()) {
        if let (Ok(r), Ok(k)) = (&o.reply, key) {
            if &r.key != k {
                report.fail(format!(
                    "replay of {}.{} keyed differently",
                    o.interaction, o.slot
                ));
            }
        } else if let Err(e) = key {
            report.fail(format!("replay of {}.{}: {e}", o.interaction, o.slot));
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
    report.set("pool.idle_s", b.pool_idle);
    report.set("unattributed_share", b.unattributed_share);
    report.set("store.open_s", open_s);
    let c = counters.into_inner().expect("counters poisoned");
    report.set("frontend.bytes", c.text_bytes as f64);
    report.set("print.bytes", c.print_bytes as f64);
    report.set("jsonl.bytes", c.record_bytes as f64);
    report.set("sabre.swaps", c.swaps as f64);
    report.add_pass_steps(c.pass_steps);
    cache_counters(report, &cache, bytes_before);
    crate::write_trace(report, "daemon-warm", seed, &spans);
    Ok(wall)
}

#[derive(Default)]
struct Counters {
    text_bytes: usize,
    print_bytes: usize,
    record_bytes: usize,
    swaps: usize,
    pass_steps: Vec<(&'static str, u64)>,
}

/// One request as the daemon handles it; returns the artifact key.
fn replay_request(
    tracer: &Tracer,
    cache: &ArtifactCache,
    id: u64,
    input: &Input,
    emit: bool,
    root: Option<usize>,
    counters: &Mutex<Counters>,
) -> Result<String, String> {
    // Request frame: encode, decode, parse the JSON and the target.
    let (text, target) = tracer.time("frame", id, root, |_| {
        let mut wire = Vec::new();
        write_frame(&mut wire, compile_frame(id, input, emit).as_bytes())
            .map_err(|e| e.to_string())?;
        let frame = read_frame(&mut Cursor::new(wire))
            .map_err(|e| e.to_string())?
            .ok_or("empty frame")?;
        let v = JsonValue::parse(std::str::from_utf8(&frame).map_err(|e| e.to_string())?)?;
        let text = v.str_field("text").ok_or("no text")?.to_string();
        let target = Target::parse(v.str_field("target").ok_or("no target")?)?;
        Ok::<(String, Target), String>((text, target))
    })?;
    let workload = tracer.time("frontend", id, root, |_| {
        let front = FrontendRegistry::global().resolve(None, None, &text)?;
        front.parse(&text).map_err(|e| e.to_string())
    })?;
    let job = CompileJob {
        source: JobSource::Inline {
            name: input.name.clone(),
            text,
        },
        frontend: None,
        target,
        options: JobOptions::default(),
    };
    let key = tracer.time("key", id, root, |_| job.artifact_key(&workload));
    let hit = tracer.time("cache.lookup", id, root, |me| {
        let hit = cache.lookup(&key);
        if !matches!(hit, Some((_, CacheOutcome::MemoryHit))) {
            tracer.rename(me, "store.get");
        }
        hit
    });
    let (artifact, outcome) = match hit {
        Some(found) => found,
        None => {
            let weaver = Weaver::new()
                .with_fpqa_params(job.options.fpqa_params())
                .with_options(codegen_options(&job.options));
            let output = tracer
                .time_with_children(
                    "compile",
                    id,
                    root,
                    || {
                        weaver.compile_workload_cached(
                            job.target.name(),
                            &workload,
                            Some(cache.core_handle()),
                        )
                    },
                    |out| trace::pass_spans(out.as_ref().ok()),
                )
                .map_err(|e| e.message)?;
            let wqasm = tracer.time("print", id, root, |_| output.artifact.print_wqasm());
            let artifact = Arc::new(Artifact {
                wqasm,
                swap_count: output.artifact.swap_count(),
                num_colors: output.artifact.num_colors(),
                metrics: output.metrics.clone(),
                passes: output.passes.iter().map(Into::into).collect(),
                check_passed: None,
                check_errors: Vec::new(),
            });
            tracer.time("store.put", id, root, |_| {
                cache.store(key, artifact.clone())
            });
            let mut c = counters.lock().expect("counters poisoned");
            c.print_bytes += artifact.wqasm.len();
            c.swaps += artifact.swap_count.unwrap_or(0);
            c.pass_steps
                .extend(output.passes.iter().map(|p| (p.name, p.steps)));
            (artifact, CacheOutcome::Miss)
        }
    };
    let result = JobResult {
        index: id as usize,
        name: job.name(),
        target: job.target.clone(),
        key: key.to_hex(),
        cache: outcome,
        timings: StageTimings::default(),
        artifact: Ok(artifact),
    };
    let record = tracer.time("jsonl", id, root, |_| {
        let mut record = job_record_fields(&result).u64("id", id);
        if emit {
            if let Ok(a) = &result.artifact {
                record = record.str("wqasm", &a.wqasm);
            }
        }
        record.finish()
    });
    tracer.time("frame", id, root, |_| {
        let mut wire = Vec::with_capacity(record.len() + 4);
        write_frame(&mut wire, record.as_bytes()).map_err(|e| e.to_string())
    })?;
    let mut c = counters.lock().expect("counters poisoned");
    c.text_bytes += input.text.len();
    c.record_bytes += record.len();
    Ok(result.key)
}
