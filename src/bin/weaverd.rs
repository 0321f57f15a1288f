//! `weaverd` — the long-lived Weaver compile daemon.
//!
//! ```text
//! weaverd --listen unix:/run/weaver.sock | tcp:host:port
//!         [--jobs N] [--queue-bound N] [--cache-dir dir] [--no-cache]
//!         [--panic-verb]
//! ```
//!
//! Wraps [`weaver::engine::server::Server`]: compile jobs arrive over a
//! length-prefixed JSON protocol (`weaverc submit --server <addr>` is the
//! client), wait in one bounded first-in, first-out queue for the
//! engine's workers, and stream back as they finish, with the in-memory
//! LRU and the paged disk store staying hot across requests. SIGTERM or
//! SIGINT (or a client `shutdown` verb)
//! drains gracefully: queued jobs finish, responses flush, the socket is
//! released, and the process exits 0.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use weaver::engine::server::{ListenAddr, Server, ServerConfig};
use weaver::engine::{CacheConfig, EngineConfig};

/// Shutdown flag shared with the signal handler, which may only do
/// async-signal-safe work: one relaxed load and one atomic store.
static SHUTDOWN: OnceLock<Arc<AtomicBool>> = OnceLock::new();

extern "C" fn on_signal(_signum: i32) {
    if let Some(flag) = SHUTDOWN.get() {
        flag.store(true, Ordering::SeqCst);
    }
}

/// Installs `on_signal` for SIGTERM and SIGINT through the libc `signal`
/// binding (libc is already linked by std; no crate dependency needed).
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

struct Args {
    listen: ListenAddr,
    jobs: usize,
    queue_bound: usize,
    cache_dir: Option<String>,
    use_cache: bool,
    panic_verb: bool,
}

fn usage() -> &'static str {
    "usage: weaverd --listen unix:<path>|tcp:<host:port>\n\
     \x20      [--jobs N] [--queue-bound N] [--cache-dir dir] [--no-cache]\n\
     \x20      [--panic-verb]"
}

fn parse_args() -> Result<Args, String> {
    let mut listen = None;
    let mut args = Args {
        listen: ListenAddr::Tcp(String::new()), // replaced below
        jobs: 0,
        queue_bound: 256,
        cache_dir: None,
        use_cache: true,
        panic_verb: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or(format!("missing value for {flag}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = Some(ListenAddr::parse(&value(&mut it, "--listen")?)?),
            "--jobs" => {
                args.jobs = value(&mut it, "--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?
            }
            "--queue-bound" => {
                args.queue_bound = value(&mut it, "--queue-bound")?
                    .parse()
                    .map_err(|e| format!("bad --queue-bound: {e}"))?
            }
            "--cache-dir" => args.cache_dir = Some(value(&mut it, "--cache-dir")?),
            "--no-cache" => args.use_cache = false,
            // Test instrumentation: enables the `panic` verb so the
            // connection catch-unwind guard can be exercised end to end.
            "--panic-verb" => args.panic_verb = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    args.listen = listen.ok_or_else(|| format!("--listen is required\n{}", usage()))?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let config = ServerConfig {
        listen: args.listen,
        engine: EngineConfig {
            jobs: args.jobs,
            cache: CacheConfig {
                disk_dir: args.cache_dir.as_ref().map(Into::into),
                ..CacheConfig::default()
            },
            use_cache: args.use_cache,
        },
        queue_bound: args.queue_bound,
        panic_verb: args.panic_verb,
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("weaverd: error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("weaverd: listening on {}", server.local_addr());
    let _ = SHUTDOWN.set(server.shutdown_flag());
    install_signal_handlers();
    match server.serve() {
        Ok(()) => {
            eprintln!("weaverd: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("weaverd: error: {e}");
            ExitCode::FAILURE
        }
    }
}
