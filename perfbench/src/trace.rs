//! The benchmark's own span recorder. Spans wrap calls into the program's
//! public layers; they stay in memory and are written out once, at the
//! end, as a Chrome trace. Self time and the unattributed remainder are
//! derived here, from the recorded tree alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer or wrapper name (see [`layer_metric`]).
    pub name: String,
    /// The job, point or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Recording thread (a small per-tracer number).
    pub tid: u64,
}

impl Span {
    fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// An in-memory span recorder. A disabled tracer records nothing, so the
/// same replay code runs with and without tracing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span recorder thread panicked")
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index
    /// so its own calls can nest under it.
    pub fn time<T>(
        &self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start = self.now();
        let index = {
            let mut spans = self.lock();
            spans.push(Span {
                name: name.to_string(),
                id,
                parent,
                start,
                end: start,
                tid: TID.with(|t| *t),
            });
            spans.len() - 1
        };
        let value = f(Some(index));
        let end = self.now();
        self.lock()[index].end = end;
        value
    }

    /// Like [`Tracer::time`], then records child spans whose durations
    /// the program measured itself (its per-pass records, read from the
    /// value by `children`), laid end to end from the span's start and
    /// clipped to its end.
    pub fn time_with_children<T>(
        &self,
        name: &str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
        children: impl FnOnce(&T) -> Vec<(String, f64)>,
    ) -> T {
        let mut index = None;
        let value = self.time(name, id, parent, |me| {
            index = me;
            f()
        });
        let Some(index) = index else { return value };
        let kids = children(&value);
        let mut spans = self.lock();
        let (mut at, limit, tid) = {
            let p = &spans[index];
            (p.start, p.end, p.tid)
        };
        for (name, seconds) in kids {
            let end = (at + seconds).min(limit);
            spans.push(Span {
                name,
                id,
                parent: Some(index),
                start: at,
                end,
                tid,
            });
            at = end;
        }
        value
    }

    /// Renames an open span, for layers whose name depends on the outcome
    /// of the call it wraps (a cache lookup served from memory or disk).
    pub fn rename(&self, span: Option<usize>, name: &str) {
        if let Some(index) = span {
            self.lock()[index].name = name.to_string();
        }
    }

    /// Takes the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("a span recorder thread panicked")
    }
}

/// Per-span self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(span.start), spans[k].end.min(span.end)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in intervals {
                let from = a.max(reach);
                if b > from {
                    covered += b - from;
                }
                reach = reach.max(b);
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

/// The per-layer metric a span name's self time is summed into, or `None`
/// for wrappers (per-item roots, compile dispatch) whose own time is
/// unattributed.
pub fn layer_metric(name: &str) -> Option<String> {
    if let Some(pass) = name.strip_prefix("pass:") {
        return Some(format!("pass.{pass}.busy_s"));
    }
    let metric = match name {
        "frontend" => "frontend.parse_s",
        "key" => "key.hash_s",
        "cache.lookup" => "cache.lookup_s",
        "store.get" => "store.get_s",
        "store.put" => "store.put_s",
        "store.open" => "store.open_s",
        "checker" => "checker.busy_s",
        "print" => "print.busy_s",
        "jsonl" => "jsonl.encode_s",
        "frame" => "server.frame_s",
        "atomique" => "atomique.busy_s",
        "dpqa" => "dpqa.busy_s",
        "geyser" => "geyser.busy_s",
        _ => return None,
    };
    Some(metric.to_string())
}

/// The layer breakdown of one traced phase.
#[derive(Clone, Debug, PartialEq)]
pub struct Breakdown {
    /// Summed self time per layer metric.
    pub layers: BTreeMap<String, f64>,
    /// Worker capacity not spent inside any root span:
    /// `workers × wall − Σ root span durations`.
    pub pool_idle: f64,
    /// `1 − (Σ layer self time + pool idle) ÷ (workers × wall)`: the share
    /// of worker capacity that no layer accounts for.
    pub unattributed_share: f64,
}

/// Attributes a traced phase that ran on `workers` threads for `wall`
/// seconds.
pub fn breakdown(spans: &[Span], workers: usize, wall: f64) -> Breakdown {
    let selfs = self_times(spans);
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(&selfs) {
        if let Some(metric) = layer_metric(&span.name) {
            *layers.entry(metric).or_insert(0.0) += own;
        }
    }
    let capacity = workers as f64 * wall;
    let busy: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration)
        .sum();
    let pool_idle = (capacity - busy).max(0.0);
    let attributed: f64 = layers.values().sum::<f64>() + pool_idle;
    Breakdown {
        layers,
        pool_idle,
        unattributed_share: if capacity > 0.0 {
            1.0 - attributed / capacity
        } else {
            0.0
        },
    }
}

/// Child spans for a compile's returned pass records (name, seconds).
pub fn pass_spans(out: Option<&weaver_core::backend::CompileOutput>) -> Vec<(String, f64)> {
    out.map_or_else(Vec::new, |o| {
        o.passes
            .iter()
            .map(|p| (format!("pass:{}", p.name), p.seconds))
            .collect()
    })
}

/// Renders spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.tid,
            s.start * 1e6,
            s.duration() * 1e6,
            s.id
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.to_string(),
            id: 0,
            parent,
            start,
            end,
            tid: 1,
        }
    }

    /// Two workers over a 10 s phase. Worker 1: a 6 s job holding a 2 s
    /// parse and a 3 s compile wrapper around two passes (1 s + 1.5 s).
    /// Worker 2: a 7 s job holding a 4 s lookup around two store reads
    /// (1–2.5 s and 2.5–4 s).
    fn tree() -> Vec<Span> {
        vec![
            span("job", None, 0.0, 6.0),
            span("frontend", Some(0), 0.0, 2.0),
            span("compile", Some(0), 2.0, 5.0),
            span("pass:site-layout", Some(2), 2.0, 3.0),
            span("pass:emit-wqasm", Some(2), 3.0, 4.5),
            span("job", None, 0.0, 7.0),
            span("cache.lookup", Some(5), 0.0, 4.0),
            span("store.get", Some(6), 1.0, 2.5),
            span("store.get", Some(6), 2.5, 4.0),
        ]
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let selfs = self_times(&tree());
        let expect = [1.0, 2.0, 0.5, 1.0, 1.5, 3.0, 1.0, 1.5, 1.5];
        for (got, want) in selfs.iter().zip(expect) {
            assert!((got - want).abs() < 1e-12, "{selfs:?}");
        }
        // Overlapping children cover their union once: 1–3 s and 2–4 s
        // inside 0–4 s leave 1 s of self time.
        let overlap = vec![
            span("cache.lookup", None, 0.0, 4.0),
            span("store.get", Some(0), 1.0, 3.0),
            span("store.get", Some(0), 2.0, 4.0),
        ];
        assert_eq!(self_times(&overlap)[0], 1.0);
    }

    #[test]
    fn unattributed_share_is_wrapper_self_time_over_capacity() {
        let b = breakdown(&tree(), 2, 10.0);
        assert_eq!(b.layers["frontend.parse_s"], 2.0);
        assert_eq!(b.layers["pass.site-layout.busy_s"], 1.0);
        assert_eq!(b.layers["pass.emit-wqasm.busy_s"], 1.5);
        assert_eq!(b.layers["cache.lookup_s"], 1.0);
        assert_eq!(b.layers["store.get_s"], 3.0);
        // 20 s of capacity, 13 s inside jobs: 7 s idle.
        assert!((b.pool_idle - 7.0).abs() < 1e-12);
        // Unattributed: job self (1 + 3) + compile wrapper self (0.5).
        assert!((b.unattributed_share - 4.5 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn synthesized_children_are_clipped_to_the_parent() {
        let tracer = Tracer::new(true);
        tracer.time_with_children(
            "compile",
            7,
            None,
            || std::thread::sleep(std::time::Duration::from_millis(5)),
            |_| vec![("pass:a".into(), 0.001), ("pass:b".into(), 10.0)],
        );
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].end, spans[0].end, "clipped to the parent");
        assert_eq!(self_times(&spans)[0], 0.0);
        assert!(chrome_trace(&spans).contains("\"name\":\"pass:b\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.time("job", 1, None, |me| {
            assert_eq!(me, None);
            5
        });
        assert_eq!(v, 5);
        assert!(tracer.into_spans().is_empty());
    }
}
