//! Hierarchical span tracing.
//!
//! A [`SpanGuard`] measures one region of work RAII-style: entering records
//! a monotonic start timestamp (microseconds since the process trace
//! epoch), dropping records the duration and appends one [`SpanRecord`] to
//! a per-thread buffer. Buffers drain into a process-global collector when
//! they fill and when their thread exits, so the hot path never takes the
//! global lock. Parent/child nesting is tracked per thread: a span entered
//! while another is open on the same thread becomes its child, which is
//! exactly how per-pass spans nest under their per-job span on a
//! work-stealing pool worker.
//!
//! Tracing is off by default. Disabled, [`span`] is a single relaxed
//! atomic load and returns an inert guard — no timestamp, no allocation,
//! no buffer traffic — so instrumentation can stay on hot paths
//! permanently. Enable it with [`set_enabled`], run the workload, then
//! [`take`] the collected [`Trace`] and export it as Chrome
//! `chrome://tracing` / Perfetto JSON ([`Trace::chrome_json`]) or flat
//! JSONL ([`Trace::to_jsonl`]).
//!
//! # Examples
//!
//! ```
//! use weaver_obs::span;
//!
//! weaver_obs::span::set_enabled(true);
//! {
//!     let _outer = span::span("demo", "doctest-outer");
//!     let _inner = span::span("demo", "doctest-inner").with_arg("k", 7);
//! } // dropping the guards records both spans
//! let trace = span::take();
//! let inner = trace
//!     .spans
//!     .iter()
//!     .find(|s| s.name == "doctest-inner")
//!     .expect("recorded");
//! let outer = trace
//!     .spans
//!     .iter()
//!     .find(|s| s.name == "doctest-outer")
//!     .expect("recorded");
//! assert_eq!(inner.parent, outer.id, "nested span links to its parent");
//! assert!(trace.chrome_json().contains("\"traceEvents\""));
//! ```

use crate::json_escape;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Spans buffered per thread before a flush into the global collector.
const FLUSH_THRESHOLD: usize = 1024;

/// Whether span tracing is currently collecting. The disabled fast path of
/// [`span`] is this single relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span collection on or off process-wide. Enabling pins the trace
/// epoch (timestamp zero) the first time it happens.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // pin timestamp zero before the first span
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process trace epoch: all span timestamps are microseconds since
/// this instant.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the span this one nested inside on the same thread, or 0 for
    /// a root span.
    pub parent: u64,
    /// Trace-local id of the thread the span ran on (see
    /// [`Trace::threads`] for names).
    pub tid: u64,
    /// Span name (e.g. the job or pass name).
    pub name: String,
    /// Coarse category (`"job"`, `"pass"`, `"route"`, …) — Chrome's `cat`.
    pub cat: &'static str,
    /// Start, in microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Key/value annotations (Chrome's `args`).
    pub args: Vec<(&'static str, String)>,
}

/// A drained trace: every finished span plus the thread-name table.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Finished spans, in per-thread completion order.
    pub spans: Vec<SpanRecord>,
    /// `(tid, thread name)` for every thread that recorded a span.
    pub threads: Vec<(u64, String)>,
}

struct Collector {
    spans: Vec<SpanRecord>,
    threads: Vec<(u64, String)>,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        Mutex::new(Collector {
            spans: Vec::new(),
            threads: Vec::new(),
        })
    })
}

/// Per-thread state: the open-span stack and the local record buffer.
struct Local {
    tid: u64,
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
}

impl Local {
    fn new() -> Local {
        let tid = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        let name = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{tid}"), str::to_string);
        collector()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .threads
            .push((tid, name));
        Local {
            tid,
            stack: Vec::new(),
            buf: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            collector()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .spans
                .append(&mut self.buf);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::new());
}

/// The live half of an active [`SpanGuard`].
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: String,
    cat: &'static str,
    start: Instant,
    start_us: u64,
    args: Vec<(&'static str, String)>,
}

/// An RAII span: created by [`span`], records itself when dropped. Inert
/// (and free) while tracing is disabled.
pub struct SpanGuard(Option<ActiveSpan>);

/// Opens a span named `name` under category `cat`. While tracing is
/// disabled this is one atomic load and the returned guard does nothing.
#[inline]
pub fn span(cat: &'static str, name: impl Into<String>) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_slow(cat, name.into())
}

fn span_slow(cat: &'static str, name: String) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let parent = LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let parent = local.stack.last().copied().unwrap_or(0);
        local.stack.push(id);
        parent
    });
    SpanGuard(Some(ActiveSpan {
        id,
        parent,
        name,
        cat,
        start,
        start_us,
        args: Vec::new(),
    }))
}

impl SpanGuard {
    /// Attaches a key/value annotation (builder form).
    pub fn with_arg(mut self, key: &'static str, value: impl ToString) -> Self {
        self.set_arg(key, value);
        self
    }

    /// Attaches a key/value annotation in place.
    pub fn set_arg(&mut self, key: &'static str, value: impl ToString) {
        if let Some(active) = &mut self.0 {
            active.args.push((key, value.to_string()));
        }
    }

    /// Seconds elapsed since the span opened (0.0 while tracing is
    /// disabled).
    pub fn elapsed_seconds(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |a| a.start.elapsed().as_secs_f64())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        let dur_us = active.start.elapsed().as_micros() as u64;
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            // Guards drop LIFO within a thread; tolerate a leaked
            // intermediate guard by popping down to this span's id.
            while let Some(top) = local.stack.pop() {
                if top == active.id {
                    break;
                }
            }
            let tid = local.tid;
            local.buf.push(SpanRecord {
                id: active.id,
                parent: active.parent,
                tid,
                name: active.name,
                cat: active.cat,
                start_us: active.start_us,
                dur_us,
                args: active.args,
            });
            if local.buf.len() >= FLUSH_THRESHOLD {
                local.flush();
            }
        });
    }
}

/// Flushes the calling thread's span buffer into the global collector.
///
/// Thread exit flushes automatically via the thread-local's destructor,
/// but `std::thread::scope` unblocks as soon as a worker's closure
/// returns — *before* that destructor runs on the dying OS thread — so a
/// scoped worker's final spans can land after the scope's owner already
/// called [`take`]. Pool workers therefore call this explicitly as their
/// last action. (`JoinHandle::join` does not have this problem.)
pub fn flush_thread() {
    LOCAL.with(|local| local.borrow_mut().flush());
}

/// Drains every finished span into a [`Trace`]: the calling thread's local
/// buffer is flushed first, then the global collector is emptied. Threads
/// still inside an open span keep it until the span closes; worker threads
/// flush automatically when they exit, and scoped pool workers flush
/// explicitly before their closure returns (see [`flush_thread`]).
pub fn take() -> Trace {
    flush_thread();
    let mut collector = collector()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    Trace {
        spans: std::mem::take(&mut collector.spans),
        threads: collector.threads.clone(),
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

fn args_json(args: &[(&'static str, String)], extra: Option<(&str, &str)>) -> String {
    let mut fields: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        fields.push(format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    format!("{{{}}}", fields.join(","))
}

impl Trace {
    /// Renders the trace in the Chrome trace-event format (a JSON object
    /// with a `traceEvents` array of `ph:"X"` complete events plus
    /// `thread_name` metadata), directly loadable by `chrome://tracing`
    /// and Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::with_capacity(self.spans.len() + self.threads.len() + 1);
        events.push(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"weaver\"}}"
                .to_string(),
        );
        for (tid, name) in &self.threads {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(name)
            ));
        }
        for s in &self.spans {
            let parent = s.parent.to_string();
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\",\"cat\":\"{}\",\"id\":{},\"args\":{}}}",
                s.tid,
                s.start_us,
                s.dur_us,
                json_escape(&s.name),
                json_escape(s.cat),
                s.id,
                args_json(&s.args, Some(("parent", &parent))),
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    /// Renders the trace as flat JSONL: one JSON object per span, carrying
    /// `id`/`parent`/`tid`/`name`/`cat`/`start_us`/`dur_us`/`args`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                 \"start_us\":{},\"dur_us\":{},\"args\":{}}}",
                s.id,
                s.parent,
                s.tid,
                json_escape(&s.name),
                json_escape(s.cat),
                s.start_us,
                s.dur_us,
                args_json(&s.args, None),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector and `ENABLED` are process-global, and tests in one
    // binary run on parallel threads: one test's `take()` drains spans
    // another is about to look for, and disabling tracing drops a
    // sibling's spans. So each test holds `serial()` throughout, and
    // filters by its own category.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn drain_cat(cat: &str) -> Vec<SpanRecord> {
        take().spans.into_iter().filter(|s| s.cat == cat).collect()
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = serial();
        set_enabled(false);
        {
            let _g = span("span-test-disabled", "ignored");
        }
        set_enabled(true);
        assert!(drain_cat("span-test-disabled").is_empty());
    }

    #[test]
    fn spans_nest_on_one_thread() {
        let _serial = serial();
        set_enabled(true);
        {
            let _a = span("span-test-nest", "a");
            {
                let _b = span("span-test-nest", "b").with_arg("x", 1);
            }
        }
        let spans = drain_cat("span-test-nest");
        assert_eq!(spans.len(), 2);
        let a = spans.iter().find(|s| s.name == "a").unwrap();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(b.parent, a.id);
        assert_eq!(a.parent, 0);
        assert_eq!(a.tid, b.tid);
        assert!(b.start_us >= a.start_us);
        assert_eq!(b.args, vec![("x", "1".to_string())]);
    }

    #[test]
    fn cross_thread_spans_attribute_their_thread() {
        let _serial = serial();
        set_enabled(true);
        std::thread::Builder::new()
            .name("span-test-worker".into())
            .spawn(|| {
                let _g = span("span-test-thread", "on-worker");
            })
            .unwrap()
            .join()
            .unwrap();
        let trace = take();
        let span = trace
            .spans
            .iter()
            .find(|s| s.cat == "span-test-thread")
            .expect("worker flushed on exit");
        let (_, name) = trace
            .threads
            .iter()
            .find(|(tid, _)| *tid == span.tid)
            .expect("thread registered");
        assert_eq!(name, "span-test-worker");
    }

    #[test]
    fn chrome_export_has_required_fields() {
        let _serial = serial();
        set_enabled(true);
        {
            let _g = span("span-test-chrome", "exported").with_arg("k", "v\"q");
        }
        let mut trace = take();
        trace.spans.retain(|s| s.cat == "span-test-chrome");
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        for field in [
            "\"ph\":\"X\"",
            "\"ts\":",
            "\"dur\":",
            "\"tid\":",
            "\"cat\":",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
        assert!(json.contains("\"k\":\"v\\\"q\""), "args escaped: {json}");
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"name\":\"exported\""));
    }
}
