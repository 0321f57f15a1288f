//! `weaverd` — the long-lived compile service.
//!
//! The batch engine compiles one suite per process; the server wraps the
//! same [`Engine`] in a daemon so the artifact cache's in-memory LRU and
//! the paged disk store's buffer pool stay hot across requests. Clients speak a length-prefixed JSON protocol over a Unix
//! socket or TCP:
//!
//! ```text
//! frame   := u32 big-endian payload length | payload (UTF-8 JSON object)
//! request := {"verb":"compile","id":N,"name":...,"text":...,
//!             "frontend"?,"target"?,"emit"?,<job options>?}
//!          | {"verb":"ping"} | {"verb":"stats"} | {"verb":"shutdown"}
//! ```
//!
//! `target`, `frontend` and `name` are strings, `emit` and the boolean
//! options booleans, `gamma`, `beta` and `ccz-fidelity` numbers; a field
//! of another JSON type is answered with a `malformed` error naming it.
//! Every accepted compile request is answered by exactly one `job` record (the
//! same JSON shape `weaverc batch` streams, plus the request `id` and —
//! with `"emit":true` — the compiled `wqasm` text), in completion order:
//! concurrent clients multiplex onto a bounded [`ServicePool`] and stream
//! results as they finish. When the queue is at its bound the server
//! sheds load with a structured `busy` record instead of stalling the
//! connection, and a drain (SIGTERM in `weaverd`, the `shutdown` verb, or
//! [`Server::shutdown_flag`]) finishes everything accepted before the
//! process exits.
//!
//! Per-connection panics are contained by a catch-unwind guard (logged
//! and counted as `weaver_server_panics_total`); per-job panics were
//! already contained by [`Engine`]. The `stats` verb exposes the cache
//! tiers, [`crate::store::StoreStats`] introspection, queue depth, and a
//! full Prometheus metrics snapshot.

use crate::engine::{job_record_fields, panic_message};
use crate::job::{CompileJob, JobSource, Target};
use crate::jsonl::{JsonObject, JsonValue};
use crate::pool::{lock_poison_ok, ServicePool, SubmitError};
use crate::Engine;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use weaver_obs::{log, metrics, span, Counter, Gauge, Histogram};

/// Hard bound on one frame's payload. Large enough for any real artifact
/// stream, small enough that a hostile length prefix cannot OOM the
/// server.
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Writes one length-prefixed frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds {MAX_FRAME_LEN}", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean close (EOF before any length
/// byte); a length over [`MAX_FRAME_LEN`] or a truncated payload is an
/// error.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Where the server listens (and clients connect).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ListenAddr {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP host:port.
    Tcp(String),
}

impl ListenAddr {
    /// Parses `unix:<path>` or `tcp:<host:port>`; an unprefixed value is a
    /// Unix socket path.
    pub fn parse(s: &str) -> Result<ListenAddr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_string());
            }
            return Ok(ListenAddr::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.rsplit_once(':').is_none() {
                return Err(format!("`{addr}` is not host:port"));
            }
            return Ok(ListenAddr::Tcp(addr.to_string()));
        }
        if s.is_empty() {
            return Err("empty listen address".to_string());
        }
        Ok(ListenAddr::Unix(PathBuf::from(s)))
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            ListenAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Where to listen.
    pub listen: ListenAddr,
    /// Engine configuration (workers, cache tiers).
    pub engine: crate::EngineConfig,
    /// Compile requests queued (not yet running) before the server sheds
    /// load with `busy` responses.
    pub queue_bound: usize,
    /// Enables the test-only `panic` verb that panics the connection
    /// handler, to exercise the catch-unwind guard.
    pub panic_verb: bool,
}

impl ServerConfig {
    /// A config with production defaults listening on `listen`.
    pub fn new(listen: ListenAddr) -> ServerConfig {
        ServerConfig {
            listen,
            engine: crate::EngineConfig::default(),
            queue_bound: 256,
            panic_verb: false,
        }
    }
}

/// One bidirectional client stream (the client half of the protocol —
/// used by `weaverc submit` and the soak tests).
#[derive(Debug)]
pub struct ClientStream(Stream);

impl ClientStream {
    /// Connects to a listening server.
    pub fn connect(addr: &ListenAddr) -> std::io::Result<ClientStream> {
        match addr {
            ListenAddr::Unix(path) => {
                UnixStream::connect(path).map(|s| ClientStream(Stream::Unix(s)))
            }
            ListenAddr::Tcp(a) => {
                TcpStream::connect(a.as_str()).map(|s| ClientStream(Stream::Tcp(s)))
            }
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

#[derive(Debug)]
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn shutdown_read(&self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Read),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Read),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<(Stream, String)> {
        match self {
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok((Stream::Unix(stream), "unix".to_string()))
            }
            Listener::Tcp(l) => {
                let (stream, peer) = l.accept()?;
                Ok((Stream::Tcp(stream), peer.to_string()))
            }
        }
    }
}

/// Process-global server metric handles (`weaver_server_*`).
struct ServerMetrics {
    connections_total: Arc<Counter>,
    connections_active: Arc<Gauge>,
    /// Counters in verb order: compile, ping, stats, shutdown.
    requests_total: [Arc<Counter>; 4],
    busy_total: Arc<Counter>,
    malformed_total: Arc<Counter>,
    panics_total: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    request_seconds: Arc<Histogram>,
}

impl ServerMetrics {
    const VERBS: [&'static str; 4] = ["compile", "ping", "stats", "shutdown"];

    fn new() -> Self {
        ServerMetrics {
            connections_total: metrics::counter(
                "weaver_server_connections_total",
                "Client connections accepted.",
            ),
            connections_active: metrics::gauge(
                "weaver_server_connections_active",
                "Client connections currently open.",
            ),
            requests_total: ServerMetrics::VERBS.map(|verb| {
                metrics::counter_with(
                    "weaver_server_requests_total",
                    "Requests received, by verb.",
                    &[("verb", verb)],
                )
            }),
            busy_total: metrics::counter(
                "weaver_server_busy_total",
                "Compile requests shed with a `busy` response (queue at bound).",
            ),
            malformed_total: metrics::counter(
                "weaver_server_malformed_total",
                "Frames or requests rejected as malformed.",
            ),
            panics_total: metrics::counter(
                "weaver_server_panics_total",
                "Connection handlers that panicked (contained by the guard).",
            ),
            queue_depth: metrics::gauge(
                "weaver_server_queue_depth",
                "Compile requests queued but not yet running.",
            ),
            request_seconds: metrics::latency_histogram(
                "weaver_server_request_seconds",
                "Accept-to-response latency of compile requests.",
            ),
        }
    }

    fn count_verb(&self, verb: &str) {
        if let Some(idx) = ServerMetrics::VERBS.iter().position(|v| *v == verb) {
            self.requests_total[idx].inc();
        }
    }
}

/// One accepted compile request queued for the worker pool.
struct Queued {
    id: u64,
    index: usize,
    job: CompileJob,
    emit: bool,
    reply: mpsc::Sender<String>,
    accepted: Instant,
}

struct Shared {
    engine: Engine,
    draining: AtomicBool,
    shutdown: Arc<AtomicBool>,
    seq: AtomicU64,
    conns: Mutex<HashMap<u64, Stream>>,
    metrics: ServerMetrics,
    panic_verb: bool,
    queue_bound: usize,
}

/// The compile daemon: owns the engine, the bounded worker pool, and the
/// listening socket. Built with [`Server::bind`]; [`Server::serve`] blocks
/// until a shutdown is requested and drains before returning.
pub struct Server {
    shared: Arc<Shared>,
    pool: Arc<ServicePool<Queued>>,
    listener: Listener,
    addr: ListenAddr,
    conn_seq: AtomicU64,
    conn_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds the listening socket and spins up the worker pool. A
    /// leftover Unix socket file at the path is removed first (a daemon
    /// killed without drain leaves one).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let engine = Engine::new(config.engine.clone());
        let workers = engine.workers();
        let shared = Arc::new(Shared {
            engine,
            draining: AtomicBool::new(false),
            shutdown: Arc::new(AtomicBool::new(false)),
            seq: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            metrics: ServerMetrics::new(),
            panic_verb: config.panic_verb,
            queue_bound: config.queue_bound.max(1),
        });
        let worker_shared = shared.clone();
        let pool = Arc::new(ServicePool::new(
            workers,
            shared.queue_bound,
            move |q: Queued| run_queued(&worker_shared, q),
        ));
        let (listener, addr) = match &config.listen {
            ListenAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                (Listener::Unix(l), ListenAddr::Unix(path.clone()))
            }
            ListenAddr::Tcp(a) => {
                let l = TcpListener::bind(a.as_str())?;
                l.set_nonblocking(true)?;
                // Report the actual address (`:0` binds an ephemeral port).
                let addr = l
                    .local_addr()
                    .map(|a| ListenAddr::Tcp(a.to_string()))
                    .unwrap_or_else(|_| config.listen.clone());
                (Listener::Tcp(l), addr)
            }
        };
        Ok(Server {
            shared,
            pool,
            listener,
            addr,
            conn_seq: AtomicU64::new(0),
            conn_handles: Mutex::new(Vec::new()),
        })
    }

    /// The bound address — for TCP with port `0`, the actual ephemeral
    /// port.
    pub fn local_addr(&self) -> ListenAddr {
        self.addr.clone()
    }

    /// The flag that stops [`Server::serve`]: store `true` (from a signal
    /// handler, another thread, or the `shutdown` verb does it itself) and
    /// the accept loop breaks into the drain sequence.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shared.shutdown.clone()
    }

    /// Accepts and serves connections until a shutdown is requested, then
    /// drains: queued compiles finish and their responses flush, idle
    /// connections are closed, the socket is released. Returns once the
    /// drain completes.
    pub fn serve(self) -> std::io::Result<()> {
        log::info("weaver-server", &format!("serving on {}", self.addr));
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let conn_id = self.conn_seq.fetch_add(1, Ordering::Relaxed);
                    let shared = self.shared.clone();
                    let pool = self.pool.clone();
                    // Register a second handle so drain can unblock the
                    // reader; refuse the connection if cloning fails.
                    match stream.try_clone() {
                        Ok(reader) => {
                            lock_poison_ok(&self.shared.conns).insert(conn_id, reader);
                        }
                        Err(_) => continue,
                    }
                    let spawned = std::thread::Builder::new()
                        .name(format!("weaver-conn-{conn_id}"))
                        .spawn(move || handle_connection(&shared, &pool, stream, conn_id, peer));
                    match spawned {
                        Ok(handle) => lock_poison_ok(&self.conn_handles).push(handle),
                        Err(e) => {
                            log::warn("weaver-server", &format!("spawn connection: {e}"));
                            lock_poison_ok(&self.shared.conns).remove(&conn_id);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    log::warn("weaver-server", &format!("accept: {e}"));
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }

        // Drain: refuse new compiles, finish everything queued (responses
        // stream out through the per-connection writers), then unblock the
        // readers so the connection threads exit.
        log::info("weaver-server", "draining");
        self.shared.draining.store(true, Ordering::SeqCst);
        self.pool.drain();
        for conn in lock_poison_ok(&self.shared.conns).values() {
            let _ = conn.shutdown_read();
        }
        let handles = std::mem::take(&mut *lock_poison_ok(&self.conn_handles));
        for handle in handles {
            let _ = handle.join();
        }
        if let ListenAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
        // Replies went out before their artifacts' commits: finish those.
        self.shared.engine.cache().flush();
        log::info("weaver-server", "drained cleanly");
        span::flush_thread();
        Ok(())
    }
}

/// Pool worker body: one compile request end to end.
fn run_queued(shared: &Shared, q: Queued) {
    let result = shared.engine.run_job(q.index, q.job);
    let mut record = job_record_fields(&result).u64("id", q.id);
    if q.emit {
        if let Ok(artifact) = &result.artifact {
            record = record.str("wqasm", &artifact.wqasm);
        }
    }
    shared
        .metrics
        .request_seconds
        .observe(q.accepted.elapsed().as_secs_f64());
    // A send failure means the client hung up; the result is simply
    // dropped (the artifact is already cached for the next asker).
    let _ = q.reply.send(record.finish());
}

fn handle_connection(
    shared: &Arc<Shared>,
    pool: &Arc<ServicePool<Queued>>,
    stream: Stream,
    conn_id: u64,
    peer: String,
) {
    shared.metrics.connections_total.inc();
    shared.metrics.connections_active.add(1.0);
    let mut conn_span = span::span("server-conn", format!("conn-{conn_id}"));
    conn_span.set_arg("peer", peer);

    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = stream.try_clone().ok().and_then(|mut write_half| {
        std::thread::Builder::new()
            .name(format!("weaver-conn-{conn_id}-w"))
            .spawn(move || {
                // Exits when every sender (reader + queued jobs) is gone
                // and the channel is drained — so queued results always
                // flush, even after the reader hangs up.
                while let Ok(record) = reply_rx.recv() {
                    if write_frame(&mut write_half, record.as_bytes()).is_err() {
                        break;
                    }
                }
            })
            .ok()
    });

    if writer.is_some() {
        let mut stream = stream;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve_frames(shared, pool, &mut stream, &reply_tx)
        }));
        if let Err(panic) = outcome {
            shared.metrics.panics_total.inc();
            log::warn(
                "weaver-server",
                &format!(
                    "connection {conn_id} handler panicked (contained): {}",
                    panic_message(&panic)
                ),
            );
        }
    }

    drop(reply_tx);
    if let Some(writer) = writer {
        let _ = writer.join();
    }
    lock_poison_ok(&shared.conns).remove(&conn_id);
    shared.metrics.connections_active.add(-1.0);
    span::flush_thread();
}

/// Reads frames until the client closes, a framing error, or shutdown
/// unblocks the reader.
fn serve_frames(
    shared: &Shared,
    pool: &ServicePool<Queued>,
    stream: &mut Stream,
    reply: &mpsc::Sender<String>,
) {
    loop {
        let frame = match read_frame(stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                // Oversized length prefix, torn frame, or reset: framing
                // is unrecoverable, so answer (best effort) and close.
                shared.metrics.malformed_total.inc();
                let _ = reply.send(error_record(None, "malformed", &e.to_string()));
                return;
            }
        };
        let request = match std::str::from_utf8(&frame)
            .map_err(|e| e.to_string())
            .and_then(JsonValue::parse)
        {
            Ok(v) => v,
            Err(e) => {
                // The frame boundary itself was sound, so the connection
                // can keep going after the error response.
                shared.metrics.malformed_total.inc();
                let _ = reply.send(error_record(None, "malformed", &format!("bad JSON: {e}")));
                continue;
            }
        };
        let id = request.get("id").and_then(JsonValue::as_u64);
        match request.str_field("verb") {
            Some("compile") => {
                shared.metrics.count_verb("compile");
                handle_compile(shared, pool, &request, reply);
            }
            Some("ping") => {
                shared.metrics.count_verb("ping");
                let mut pong = JsonObject::new().str("kind", "pong");
                if let Some(id) = id {
                    pong = pong.u64("id", id);
                }
                let _ = reply.send(pong.finish());
            }
            Some("stats") => {
                shared.metrics.count_verb("stats");
                let _ = reply.send(stats_record(shared, pool, id));
            }
            Some("shutdown") => {
                shared.metrics.count_verb("shutdown");
                shared.shutdown.store(true, Ordering::SeqCst);
                let mut ack = JsonObject::new().str("kind", "shutting-down");
                if let Some(id) = id {
                    ack = ack.u64("id", id);
                }
                let _ = reply.send(ack.finish());
            }
            Some("panic") if shared.panic_verb => {
                panic!("panic verb (test instrumentation)");
            }
            other => {
                shared.metrics.malformed_total.inc();
                let what = other.map_or("missing `verb`".to_string(), |v| {
                    format!("unknown verb `{v}`")
                });
                let _ = reply.send(error_record(id, "malformed", &what));
            }
        }
    }
}

fn handle_compile(
    shared: &Shared,
    pool: &ServicePool<Queued>,
    request: &JsonValue,
    reply: &mpsc::Sender<String>,
) {
    let Some(id) = request.get("id").and_then(JsonValue::as_u64) else {
        shared.metrics.malformed_total.inc();
        let _ = reply.send(error_record(
            None,
            "malformed",
            "compile requires a numeric `id`",
        ));
        return;
    };
    let Some(text) = request.str_field("text") else {
        shared.metrics.malformed_total.inc();
        let _ = reply.send(error_record(
            Some(id),
            "malformed",
            "compile requires `text`",
        ));
        return;
    };
    let (job, emit) = match compile_job(request, id, text) {
        Ok(parsed) => parsed,
        Err((kind, message)) => {
            if kind == "malformed" {
                shared.metrics.malformed_total.inc();
            }
            let _ = reply.send(error_record(Some(id), kind, &message));
            return;
        }
    };
    if shared.draining.load(Ordering::SeqCst) {
        let _ = reply.send(error_record(
            Some(id),
            "shutting-down",
            "server is draining",
        ));
        return;
    }
    let queued = Queued {
        id,
        index: shared.seq.fetch_add(1, Ordering::Relaxed) as usize,
        job,
        emit,
        reply: reply.clone(),
        accepted: Instant::now(),
    };
    match pool.submit(queued) {
        Ok(()) => {
            shared.metrics.queue_depth.set(pool.queue_depth() as f64);
        }
        Err(SubmitError::Full(_)) => {
            shared.metrics.busy_total.inc();
            let record = JsonObject::new()
                .str("kind", "busy")
                .u64("id", id)
                .str("error_kind", "server-busy")
                .u64("queue_depth", pool.queue_depth() as u64)
                .u64("limit", shared.queue_bound as u64)
                .finish();
            let _ = reply.send(record);
        }
        Err(SubmitError::ShuttingDown(_)) => {
            let _ = reply.send(error_record(
                Some(id),
                "shutting-down",
                "server is draining",
            ));
        }
    }
}

/// Builds the job a compile request describes (options under the
/// manifest's dashed keys), plus its `emit` flag. The error carries the
/// record's `error_kind`: `malformed`, naming the field, when a field holds
/// the wrong JSON type (as a manifest line with a bad value is rejected),
/// or `unknown-target`.
fn compile_job(
    request: &JsonValue,
    id: u64,
    text: &str,
) -> Result<(CompileJob, bool), (&'static str, String)> {
    let string = |key| typed(request, key, JsonValue::as_str, "string");
    let flag = |key| typed(request, key, JsonValue::as_bool, "boolean");
    let number = |key| typed(request, key, JsonValue::as_f64, "number");
    let target = match string("target")? {
        None => Target::Fpqa,
        Some(t) => Target::parse(t).map_err(|e| ("unknown-target", e))?,
    };
    let defaults = crate::JobOptions::default();
    let job = CompileJob {
        source: JobSource::Inline {
            name: string("name")?.map_or_else(|| format!("request-{id}"), str::to_string),
            text: text.to_string(),
        },
        frontend: string("frontend")?.map(str::to_string),
        target,
        options: crate::JobOptions {
            check: flag("check")?.unwrap_or(defaults.check),
            compression: flag("compression")?.unwrap_or(defaults.compression),
            parallel_shuttling: flag("parallel-shuttling")?.unwrap_or(defaults.parallel_shuttling),
            dsatur: flag("dsatur")?.unwrap_or(defaults.dsatur),
            gamma: number("gamma")?.unwrap_or(defaults.gamma),
            beta: number("beta")?.unwrap_or(defaults.beta),
            ccz_fidelity: number("ccz-fidelity")?,
        },
    };
    Ok((job, flag("emit")?.unwrap_or(false)))
}

/// An optional request field: `None` when absent, a `malformed` error
/// naming the field when it holds anything but a `kind` that `read`
/// accepts.
fn typed<'a, T>(
    request: &'a JsonValue,
    key: &str,
    read: fn(&'a JsonValue) -> Option<T>,
    kind: &str,
) -> Result<Option<T>, (&'static str, String)> {
    let malformed = || ("malformed", format!("field `{key}` must be a {kind}"));
    request
        .get(key)
        .map(|value| read(value).ok_or_else(malformed))
        .transpose()
}

fn error_record(id: Option<u64>, kind: &str, message: &str) -> String {
    let mut record = JsonObject::new().str("kind", "error");
    if let Some(id) = id {
        record = record.u64("id", id);
    }
    record
        .str("error_kind", kind)
        .str("error", message)
        .finish()
}

/// The `stats` verb response: queue state, cache tiers, paged-store
/// introspection, and the full Prometheus snapshot.
fn stats_record(shared: &Shared, pool: &ServicePool<Queued>, id: Option<u64>) -> String {
    let tier = shared.engine.cache().stats();
    let cache = JsonObject::new()
        .u64("memory_hits", tier.memory_hits)
        .u64("disk_hits", tier.disk_hits)
        .u64("misses", tier.misses)
        .u64("evictions", tier.evictions)
        .u64("disk_write_errors", tier.disk_write_errors)
        .finish();
    let store = match shared.engine.cache().store_stats() {
        Some(s) => JsonObject::new()
            .u64("page_size", u64::from(s.page_size))
            .u64("page_count", s.page_count)
            .u64("live_pages", s.live_pages)
            .u64("free_pages", s.free_pages)
            .u64("artifacts", s.artifacts)
            .u64("file_bytes", s.file_bytes)
            .u64("wal_bytes", s.wal_bytes)
            .u64("checksum_failures", s.checksum_failures)
            .u64("wal_replayed", s.wal_replayed)
            .u64("recoveries", s.recoveries)
            .u64("buffer_evictions", s.buffer_evictions)
            .u64("wal_fsyncs", s.wal_fsyncs)
            .u64("group_commits", s.group_commits)
            .finish(),
        None => "null".to_string(),
    };
    shared.metrics.queue_depth.set(pool.queue_depth() as f64);
    let mut record = JsonObject::new().str("kind", "stats");
    if let Some(id) = id {
        record = record.u64("id", id);
    }
    record
        .u64("queue_depth", pool.queue_depth() as u64)
        .u64("queue_bound", shared.queue_bound as u64)
        .u64("workers", shared.engine.workers() as u64)
        .bool("draining", shared.draining.load(Ordering::SeqCst))
        .raw("cache", &cache)
        .raw("store", &store)
        .str("metrics", &metrics::snapshot())
        .finish()
}
