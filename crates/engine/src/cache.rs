//! The content-addressed artifact cache: an in-memory LRU tier backed by an
//! optional on-disk tier.
//!
//! Artifacts are addressed by the BLAKE2s-256 key of
//! [`crate::CompileJob::artifact_key`] — canonical formula ⊕ target
//! parameters ⊕ options ⊕ compiler version — so a hit is valid by
//! construction and no invalidation logic exists.
//!
//! The disk tier is the durable paged store ([`crate::store`]): one
//! WAL-guarded page file that survives being killed at any byte — every
//! committed artifact is recovered byte-identical on reopen, torn writes
//! are discarded, and damaged pages quarantine as misses. A store has one
//! writer. While another live process holds it, [`ArtifactCache::new`]
//! fails with an error that [`store::is_locked`] accepts, and
//! [`crate::Engine::new`] runs memory-only with `disk_disabled` in its
//! batch record; processes that want one shared cache send their jobs to
//! `weaverd`. Files in the directory that the store does not own are
//! ignored. Disk I/O failures after open never fail a compile: they are
//! counted ([`CacheTierStats::disk_write_errors`]) and warned once per
//! process.
//!
//! # Write-behind
//!
//! Within a process the store's only writer is one committer thread
//! (`weaver-committer`) per cache. [`ArtifactCache::store`] renders the
//! entry, parks it in a queue capped at 4 MiB (`PARK_CAP_BYTES`) and returns;
//! the committer drains everything parked into one
//! [`store::Store::put_many`] (one WAL fsync), so compile workers never
//! wait on the disk. A lookup consults, in order: memory; the parked and
//! in-flight entries, newest first (a batch stays visible until its
//! commit returns, so an overwrite is never read stale from disk); the set
//! of committed keys, which answers a miss without the store lock; and
//! only then the store. [`ArtifactCache::flush`] waits until everything
//! stored before it has committed; batch runs, the daemon's drain, the
//! introspection calls and `Drop` flush first.
//!
//! The durability contract that follows: a job's JSONL record (or daemon
//! reply) may be written before its artifact's WAL fsync. A crash loses
//! only artifacts still parked or in flight, and those recompile on the
//! next run; every committed artifact still recovers byte-identical.
//!
//! This is the only cache: compiles and checks below it run from scratch.

use crate::engine::panic_message;
use crate::job::Artifact;
use crate::job::CacheOutcome;
use crate::pool::lock_poison_ok;
use crate::store::{self, Store, StoreTuning};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use weaver_core::cache::Digest;
use weaver_core::Metrics;
use weaver_obs::{log, metrics, span, Counter};

/// Rendered bytes that may wait for the committer. A
/// [`ArtifactCache::store`] that finds more parked blocks until the
/// committer takes the queue, so at most this plus one entry is parked,
/// and as much again is in flight. Sized on perfbench's `batch-cold`,
/// whose ~0.4 s rounds park 3.4–6.2 MB at their peak (one routed
/// 100-variable artifact is 3.5 MB): at 4 MiB its workers wait under
/// 1 ms a round, at 2 MiB ~17 ms.
const PARK_CAP_BYTES: usize = 4 << 20;

/// Artifact-cache configuration.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum artifacts held by the in-memory LRU tier.
    pub memory_capacity: usize,
    /// Directory of the paged disk tier; `None` disables it.
    pub disk_dir: Option<PathBuf>,
    /// Paged-store tuning (page size, buffer pool, checkpoint threshold).
    pub store: StoreTuning,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            memory_capacity: 1024,
            disk_dir: None,
            store: StoreTuning::default(),
        }
    }
}

/// Hit/miss/durability counters of the two tiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTierStats {
    /// Lookups served by the in-memory tier.
    pub memory_hits: u64,
    /// Lookups served by the on-disk tier.
    pub disk_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Artifacts evicted from the memory tier.
    pub evictions: u64,
    /// Disk-tier write failures (swallowed, counted, warned once).
    pub disk_write_errors: u64,
    /// Pages or chains quarantined for checksum failures.
    pub checksum_failures: u64,
    /// WAL records replayed when the store was opened.
    pub wal_replayed: u64,
    /// Store opens that had crash damage to repair.
    pub recoveries: u64,
    /// Paged-store buffer-pool LRU evictions.
    pub buffer_evictions: u64,
}

struct MemoryEntry {
    artifact: Arc<Artifact>,
    stamp: u64,
}

/// Process-global cache metric handles, resolved once per cache instance
/// so the hot lookup/store paths update plain atomics instead of taking
/// the registry lock. Per-instance [`CacheTierStats`] counters stay
/// alongside: the registry series aggregate across every cache in the
/// process, the struct reports this one instance.
struct CacheMetrics {
    memory_hits: Arc<Counter>,
    disk_hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl CacheMetrics {
    fn new() -> Self {
        const HITS_HELP: &str = "Artifact-cache lookups served, by tier.";
        CacheMetrics {
            memory_hits: metrics::counter_with(
                "weaver_cache_hits_total",
                HITS_HELP,
                &[("tier", "memory")],
            ),
            disk_hits: metrics::counter_with(
                "weaver_cache_hits_total",
                HITS_HELP,
                &[("tier", "disk")],
            ),
            misses: metrics::counter(
                "weaver_cache_misses_total",
                "Artifact-cache lookups that found nothing.",
            ),
            evictions: metrics::counter(
                "weaver_cache_evictions_total",
                "Artifacts evicted from the in-memory LRU tier.",
            ),
        }
    }
}

/// Entries waiting for one commit, in park order.
#[derive(Default)]
struct Batch {
    /// Rendered entries: what one [`Store::put_many`] commits.
    entries: Vec<(Digest, Vec<u8>)>,
    /// Each entry's artifact, served to lookups until it commits.
    artifacts: Vec<Arc<Artifact>>,
    /// Rendered bytes in `entries`.
    bytes: usize,
}

impl Batch {
    /// The newest entry for `key`.
    fn find(&self, key: &Digest) -> Option<&Arc<Artifact>> {
        let i = self.entries.iter().rposition(|(k, _)| k == key)?;
        Some(&self.artifacts[i])
    }
}

/// The write-behind state the committer shares with the cache's callers.
struct Queue {
    parked: Batch,
    /// The batch the committer took, visible until `put_many` returns.
    in_flight: Option<Arc<Batch>>,
    /// Keys on disk: the store's keys at open, extended after each
    /// commit. A key outside it is a miss without the store lock.
    committed: HashSet<Digest>,
    /// Set on drop: the committer drains what is parked, then exits.
    closing: bool,
    /// Entries ever parked, and how many of them (a prefix, in park
    /// order) have since committed or failed: `flush` waits on these, not
    /// on an empty queue, so writers that keep parking cannot hold it off.
    parked_count: u64,
    settled_count: u64,
}

/// The paged disk tier: the store, its write-behind queue, and the
/// committer's error counters.
struct DiskTier {
    store: Mutex<Store>,
    queue: Mutex<Queue>,
    /// Wakes the committer: entries parked, or the cache closing.
    work: Condvar,
    /// Wakes writers waiting for queue space and `flush` waiting for
    /// commits to settle.
    drained: Condvar,
    write_errors: AtomicU64,
    write_error_counter: Arc<Counter>,
    /// Scopes warn-once keys to this cache's directory, so a process
    /// serving many stores warns once *per store*, not once overall.
    warn_scope: String,
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

impl DiskTier {
    /// The artifact parked, in flight, or on disk under `key`.
    fn lookup(&self, key: &Digest) -> Option<(Arc<Artifact>, CacheOutcome)> {
        {
            let queue = lock_poison_ok(&self.queue);
            let queued = queue
                .parked
                .find(key)
                .or_else(|| queue.in_flight.as_deref()?.find(key));
            if let Some(artifact) = queued {
                return Some((artifact.clone(), CacheOutcome::MemoryHit));
            }
            if !queue.committed.contains(key) {
                return None;
            }
        }
        // Torn or damaged chains come back as `None` (quarantined inside
        // the store), never as corrupt bytes.
        let bytes = lock_poison_ok(&self.store).get(key).ok().flatten()?;
        let artifact = parse_artifact(&String::from_utf8(bytes).ok()?)?;
        Some((Arc::new(artifact), CacheOutcome::DiskHit))
    }

    /// Parks one rendered entry for the committer, first waiting while
    /// more than [`PARK_CAP_BYTES`] are parked.
    fn park(&self, key: Digest, rendered: Vec<u8>, artifact: Arc<Artifact>) {
        let mut queue = lock_poison_ok(&self.queue);
        while queue.parked.bytes > PARK_CAP_BYTES {
            queue = wait(&self.drained, queue);
        }
        queue.parked.bytes += rendered.len();
        queue.parked.entries.push((key, rendered));
        queue.parked.artifacts.push(artifact);
        queue.parked_count += 1;
        drop(queue);
        self.work.notify_one();
    }

    /// Waits until every entry parked before the call has committed or
    /// failed.
    fn flush(&self) {
        let mut queue = lock_poison_ok(&self.queue);
        let target = queue.parked_count;
        while queue.settled_count < target {
            queue = wait(&self.drained, queue);
        }
    }

    /// The committer thread's body: commit every drain under one
    /// `put_many` until the cache closes and the queue is empty.
    fn run_committer(&self) {
        loop {
            let batch = {
                let mut queue = lock_poison_ok(&self.queue);
                while queue.parked.entries.is_empty() && !queue.closing {
                    queue = wait(&self.work, queue);
                }
                if queue.parked.entries.is_empty() {
                    return;
                }
                let batch = Arc::new(std::mem::take(&mut queue.parked));
                queue.in_flight = Some(batch.clone());
                batch
            };
            // Writers blocked on the cap may park again.
            self.drained.notify_all();
            let committed = catch_unwind(AssertUnwindSafe(|| {
                let _span = span::span("store", "store.commit")
                    .with_arg("entries", batch.entries.len())
                    .with_arg("bytes", batch.bytes);
                lock_poison_ok(&self.store).put_many(&batch.entries)
            }));
            let failure = match committed {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(format!("paged store put failed ({e})")),
                // The batch is dropped; its artifacts stay in memory.
                Err(panic) => Some(format!("committer panicked ({})", panic_message(&panic))),
            };
            // Count the failure and publish the span before `flush`
            // callers wake and read stats or traces.
            if failure.is_some() {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                self.write_error_counter.inc();
            }
            span::flush_thread();
            {
                let mut queue = lock_poison_ok(&self.queue);
                queue.in_flight = None;
                queue.settled_count += batch.entries.len() as u64;
                if failure.is_none() {
                    queue
                        .committed
                        .extend(batch.entries.iter().map(|(key, _)| *key));
                }
            }
            self.drained.notify_all();
            if let Some(failure) = failure {
                log::warn_once(
                    &format!("cache-disk-write-error:{}", self.warn_scope),
                    "weaver-engine",
                    &format!("{failure}; artifacts may not persist — continuing without"),
                );
            }
        }
    }
}

/// The content-addressed artifact cache (see module docs).
pub struct ArtifactCache {
    config: CacheConfig,
    memory: Mutex<HashMap<Digest, MemoryEntry>>,
    /// The paged disk tier, shared with its committer; `None` when disk
    /// caching is off.
    disk: Option<Arc<DiskTier>>,
    committer: Option<JoinHandle<()>>,
    clock: AtomicU64,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    metrics: CacheMetrics,
}

impl ArtifactCache {
    /// Builds a cache. The disk tier (when configured) is opened eagerly,
    /// crash recovery included, so store failures surface here rather than
    /// mid-batch, and its committer thread starts. A store held by another
    /// live process is an error that [`store::is_locked`] accepts.
    pub fn new(config: CacheConfig) -> std::io::Result<Self> {
        let (disk, committer) = match &config.disk_dir {
            Some(dir) => {
                let store = Store::open(dir, config.store.clone())?;
                let disk = Arc::new(DiskTier {
                    queue: Mutex::new(Queue {
                        parked: Batch::default(),
                        in_flight: None,
                        committed: store.keys().into_iter().collect(),
                        closing: false,
                        parked_count: 0,
                        settled_count: 0,
                    }),
                    store: Mutex::new(store),
                    work: Condvar::new(),
                    drained: Condvar::new(),
                    write_errors: AtomicU64::new(0),
                    write_error_counter: metrics::counter(
                        "weaver_cache_disk_write_errors_total",
                        "Disk-tier write failures (swallowed; the cache is an accelerator).",
                    ),
                    warn_scope: dir.display().to_string(),
                });
                let committer = {
                    let disk = disk.clone();
                    std::thread::Builder::new()
                        .name("weaver-committer".into())
                        .spawn(move || disk.run_committer())?
                };
                (Some(disk), Some(committer))
            }
            None => (None, None),
        };
        Ok(ArtifactCache {
            memory: Mutex::new(HashMap::new()),
            disk,
            committer,
            clock: AtomicU64::new(0),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            metrics: CacheMetrics::new(),
            config,
        })
    }

    /// A handle for the two deprecated `Weaver` forwards, which ignore it.
    #[deprecated(note = "the handle is unused; call `Weaver::compile_workload` / `Weaver::verify`")]
    pub fn core_handle(&self) -> &weaver_core::cache::CacheHandle {
        &weaver_core::cache::CacheHandle
    }

    /// Looks up an artifact: memory tier first, then the entries waiting
    /// for the committer, then disk (promoting the entry into memory on a
    /// disk hit).
    pub fn lookup(&self, key: &Digest) -> Option<(Arc<Artifact>, CacheOutcome)> {
        let hit = self
            .memory_lookup(key)
            .or_else(|| self.disk.as_deref()?.lookup(key));
        match &hit {
            Some((_, CacheOutcome::MemoryHit)) => {
                self.memory_hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.memory_hits.inc();
            }
            Some((artifact, _)) => {
                self.insert_memory(*key, artifact.clone());
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.metrics.disk_hits.inc();
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.metrics.misses.inc();
            }
        }
        hit
    }

    fn memory_lookup(&self, key: &Digest) -> Option<(Arc<Artifact>, CacheOutcome)> {
        let mut memory = lock_poison_ok(&self.memory);
        let entry = memory.get_mut(key)?;
        entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        Some((entry.artifact.clone(), CacheOutcome::MemoryHit))
    }

    /// Stores an artifact in both tiers: memory at once, disk through the
    /// committer (see the module docs for what that means for
    /// durability). Disk-tier I/O failures never fail the compile — the
    /// cache is an accelerator, not a system of record — but they are
    /// counted in [`CacheTierStats::disk_write_errors`] and warned once per
    /// process.
    pub fn store(&self, key: Digest, artifact: Arc<Artifact>) {
        if let Some(disk) = &self.disk {
            disk.park(
                key,
                render_artifact(&artifact).into_bytes(),
                artifact.clone(),
            );
        }
        self.insert_memory(key, artifact);
    }

    /// Waits until every artifact stored before the call is committed to
    /// the disk tier (or its commit failed and was counted); stores made
    /// meanwhile by other threads do not extend the wait. No-op without a
    /// disk tier.
    pub fn flush(&self) {
        if let Some(disk) = &self.disk {
            disk.flush();
        }
    }

    fn insert_memory(&self, key: Digest, artifact: Arc<Artifact>) {
        let mut memory = lock_poison_ok(&self.memory);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        memory.insert(key, MemoryEntry { artifact, stamp });
        while memory.len() > self.config.memory_capacity.max(1) {
            // `len > max(1) ≥ 1` makes the map nonempty, but stay defensive
            // rather than panic on a request path.
            let Some(oldest) = memory.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) else {
                break;
            };
            memory.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.metrics.evictions.inc();
        }
    }

    /// The disk tier's store, once everything parked is committed.
    fn flushed_store(&self) -> Option<MutexGuard<'_, Store>> {
        let disk = self.disk.as_deref()?;
        disk.flush();
        Some(lock_poison_ok(&disk.store))
    }

    /// Runs a full checksum scan of the disk tier; `None` when the disk
    /// tier is off.
    pub fn verify_disk(&self) -> Option<store::VerifyReport> {
        self.flushed_store()?.verify().ok()
    }

    /// Checkpoints the disk tier (fsync pages, truncate WAL); no-op when
    /// the disk tier is off.
    pub fn checkpoint_disk(&self) {
        if let Some(mut store) = self.flushed_store() {
            let _ = store.checkpoint();
        }
    }

    /// Point-in-time paged-store statistics for introspection surfaces
    /// (`weaverc cache stats`, the daemon admin verb); `None` when the
    /// disk tier is off.
    pub fn store_stats(&self) -> Option<store::StoreStats> {
        Some(self.flushed_store()?.stats())
    }

    /// Point-in-time tier counters, once everything parked is committed.
    pub fn stats(&self) -> CacheTierStats {
        let mut stats = CacheTierStats {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..CacheTierStats::default()
        };
        if let Some(s) = self.store_stats() {
            stats.checksum_failures = s.checksum_failures;
            stats.wal_replayed = s.wal_replayed;
            stats.recoveries = s.recoveries;
            stats.buffer_evictions = s.buffer_evictions;
        }
        if let Some(disk) = &self.disk {
            stats.disk_write_errors = disk.write_errors.load(Ordering::Relaxed);
        }
        stats
    }
}

impl Drop for ArtifactCache {
    /// Commits everything parked, stops the committer, then checkpoints
    /// so a clean shutdown truncates the WAL and the next open replays
    /// nothing. A crash skips this — that's what the WAL is for.
    fn drop(&mut self) {
        if let Some(disk) = &self.disk {
            lock_poison_ok(&disk.queue).closing = true;
            disk.work.notify_one();
        }
        if let Some(committer) = self.committer.take() {
            let _ = committer.join();
        }
        self.checkpoint_disk();
    }
}

// ---------------------------------------------------------------------------
// Disk-tier serialization (framed text, one artifact per store entry)
// ---------------------------------------------------------------------------

fn escape_line(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn opt_usize(v: Option<usize>) -> String {
    v.map_or("-".to_string(), |n| n.to_string())
}

fn opt_bool(v: Option<bool>) -> String {
    v.map_or("-".to_string(), |b| b.to_string())
}

/// Renders an artifact in the on-disk format (`weaver-artifact 2`; version
/// 2 added the per-pass timing trace — version-1 entries parse as misses
/// and recompile).
pub(crate) fn render_artifact(a: &Artifact) -> String {
    // The header lines are short: one allocation normally covers them and
    // the program text.
    let mut out = String::with_capacity(a.wqasm.len() + 1024);
    out.push_str("weaver-artifact 2\n");
    let m = &a.metrics;
    // `{}` on f64 prints the shortest round-tripping decimal, so parsing
    // recovers the exact bits.
    let _ = writeln!(out, "compilation_seconds {}", m.compilation_seconds);
    let _ = writeln!(out, "execution_micros {}", m.execution_micros);
    let _ = writeln!(out, "eps {}", m.eps);
    let _ = writeln!(out, "pulses {}", m.pulses);
    let _ = writeln!(out, "motion_ops {}", m.motion_ops);
    let _ = writeln!(out, "steps {}", m.steps);
    let _ = writeln!(out, "swap_count {}", opt_usize(a.swap_count));
    let _ = writeln!(out, "num_colors {}", opt_usize(a.num_colors));
    let _ = writeln!(out, "check_passed {}", opt_bool(a.check_passed));
    let _ = writeln!(out, "passes {}", a.passes.len());
    for p in &a.passes {
        // Pass names are identifiers (no spaces), so `name seconds steps`
        // splits unambiguously from the right.
        let _ = writeln!(out, "{} {} {}", escape_line(&p.name), p.seconds, p.steps);
    }
    let _ = writeln!(out, "check_errors {}", a.check_errors.len());
    for e in &a.check_errors {
        let _ = writeln!(out, "{}", escape_line(e));
    }
    let _ = writeln!(out, "wqasm {}", a.wqasm.len());
    out.push_str(&a.wqasm);
    out
}

/// Parses the on-disk format; any malformation yields `None` (a cache miss).
pub(crate) fn parse_artifact(text: &str) -> Option<Artifact> {
    struct Cursor<'a> {
        rest: &'a str,
    }
    impl<'a> Cursor<'a> {
        fn line(&mut self) -> Option<&'a str> {
            let idx = self.rest.find('\n')?;
            let (line, tail) = self.rest.split_at(idx);
            self.rest = &tail[1..];
            Some(line)
        }
        fn field(&mut self, name: &str) -> Option<&'a str> {
            self.line()?.strip_prefix(name)?.strip_prefix(' ')
        }
        fn opt_usize(&mut self, name: &str) -> Option<Option<usize>> {
            match self.field(name)? {
                "-" => Some(None),
                v => v.parse().ok().map(Some),
            }
        }
    }

    let mut cur = Cursor { rest: text };
    if cur.line()? != "weaver-artifact 2" {
        return None;
    }
    let metrics = Metrics {
        compilation_seconds: cur.field("compilation_seconds")?.parse().ok()?,
        execution_micros: cur.field("execution_micros")?.parse().ok()?,
        eps: cur.field("eps")?.parse().ok()?,
        pulses: cur.field("pulses")?.parse().ok()?,
        motion_ops: cur.field("motion_ops")?.parse().ok()?,
        steps: cur.field("steps")?.parse().ok()?,
    };
    let swap_count = cur.opt_usize("swap_count")?;
    let num_colors = cur.opt_usize("num_colors")?;
    let check_passed = match cur.field("check_passed")? {
        "-" => None,
        "true" => Some(true),
        "false" => Some(false),
        _ => return None,
    };
    let pass_count: usize = cur.field("passes")?.parse().ok()?;
    let mut passes = Vec::with_capacity(pass_count.min(64));
    for _ in 0..pass_count {
        // `name seconds steps`, split from the right so escaped names keep
        // their content intact.
        let mut fields = cur.line()?.rsplitn(3, ' ');
        let steps: u64 = fields.next()?.parse().ok()?;
        let seconds: f64 = fields.next()?.parse().ok()?;
        let name = unescape_line(fields.next()?);
        passes.push(crate::job::PassTiming {
            name,
            seconds,
            steps,
        });
    }
    let error_count: usize = cur.field("check_errors")?.parse().ok()?;
    let mut check_errors = Vec::with_capacity(error_count.min(1024));
    for _ in 0..error_count {
        check_errors.push(unescape_line(cur.line()?));
    }
    let wqasm_len: usize = cur.field("wqasm")?.parse().ok()?;
    if cur.rest.len() != wqasm_len {
        return None;
    }
    Some(Artifact {
        wqasm: cur.rest.to_string(),
        metrics,
        passes,
        swap_count,
        num_colors,
        check_passed,
        check_errors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_core::cache::Fingerprint;

    fn sample_artifact(tag: usize) -> Artifact {
        Artifact {
            wqasm: format!("OPENQASM 3.0;\n// artifact {tag}\nqubit[3] q;\n"),
            metrics: Metrics {
                compilation_seconds: 0.125 + tag as f64,
                execution_micros: 1.0 / 3.0,
                eps: 1e-7,
                pulses: 10 + tag,
                motion_ops: 3,
                steps: 99,
            },
            passes: vec![
                crate::job::PassTiming {
                    name: "qaoa-lower".to_string(),
                    seconds: 0.25 + tag as f64,
                    steps: 0,
                },
                crate::job::PassTiming {
                    name: "sabre-transpile".to_string(),
                    seconds: 1.0 / 7.0,
                    steps: 42,
                },
            ],
            swap_count: None,
            num_colors: Some(2),
            check_passed: Some(true),
            check_errors: vec!["line one\nline two".to_string(), "back\\slash".to_string()],
        }
    }

    fn key(tag: u64) -> Digest {
        let mut fp = Fingerprint::new();
        fp.u64(tag);
        fp.digest()
    }

    #[test]
    fn disk_format_roundtrips_exactly() {
        let a = sample_artifact(7);
        let parsed = parse_artifact(&render_artifact(&a)).expect("parse");
        assert_eq!(parsed, a);
    }

    #[test]
    fn malformed_disk_entries_are_misses() {
        assert!(parse_artifact("").is_none());
        assert!(parse_artifact("weaver-artifact 2\n").is_none());
        // Version-1 entries (no pass trace) are stale and must miss.
        assert!(parse_artifact("weaver-artifact 1\n").is_none());
        let truncated = &render_artifact(&sample_artifact(1))[..40];
        assert!(parse_artifact(truncated).is_none());
    }

    fn disk(cache: &ArtifactCache) -> &DiskTier {
        cache.disk.as_deref().expect("paged tier")
    }

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("weaver-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ArtifactCache::new(CacheConfig {
            memory_capacity: 2,
            ..CacheConfig::default()
        })
        .unwrap();
        cache.store(key(1), Arc::new(sample_artifact(1)));
        cache.store(key(2), Arc::new(sample_artifact(2)));
        assert!(cache.lookup(&key(1)).is_some()); // refresh 1
        cache.store(key(3), Arc::new(sample_artifact(3))); // evicts 2
        assert!(cache.lookup(&key(1)).is_some());
        assert!(cache.lookup(&key(2)).is_none());
        assert!(cache.lookup(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = test_dir("fresh");
        let config = CacheConfig {
            memory_capacity: 8,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let first = ArtifactCache::new(config.clone()).unwrap();
        first.store(key(9), Arc::new(sample_artifact(9)));
        // The paged store is single-writer: release it before the "fresh
        // process" below opens the same directory.
        drop(first);
        // A fresh cache (new process, cold memory) finds the disk entry.
        let second = ArtifactCache::new(config).unwrap();
        let (artifact, outcome) = second.lookup(&key(9)).expect("disk hit");
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(*artifact, sample_artifact(9));
        // And it is promoted into memory.
        let (_, outcome) = second.lookup(&key(9)).expect("memory hit");
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        drop(second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_group_commit_consistently() {
        let dir = test_dir("groupcommit");
        let config = CacheConfig {
            memory_capacity: 64,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let cache = ArtifactCache::new(config.clone()).unwrap();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..8u64 {
                        let tag = 1000 + t * 100 + i;
                        cache.store(key(tag), Arc::new(sample_artifact(tag as usize)));
                    }
                });
            }
        });
        // After `flush` every artifact is in the store itself.
        cache.flush();
        assert_eq!(lock_poison_ok(&disk(&cache).store).len(), 32);
        let stats = cache.store_stats().expect("paged tier");
        assert_eq!(stats.artifacts, 32);
        // Each drain commits everything parked under one fsync, so the
        // fsync count never exceeds the write count; batching is timing-
        // dependent, so equality is allowed but not required.
        assert!(stats.wal_fsyncs <= 32, "stats: {stats:?}");
        drop(cache);
        // A fresh open finds all 32, durable and byte-identical.
        let reopened = ArtifactCache::new(config).unwrap();
        for t in 0..4u64 {
            for i in 0..8u64 {
                let tag = 1000 + t * 100 + i;
                let (artifact, outcome) = reopened.lookup(&key(tag)).expect("disk hit");
                assert_eq!(outcome, CacheOutcome::DiskHit);
                assert_eq!(*artifact, sample_artifact(tag as usize));
            }
        }
        assert!(reopened.verify_disk().expect("paged tier").consistent());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn held_store_refuses_a_second_cache_and_leaves_the_directory_alone() {
        let dir = test_dir("held");
        let config = CacheConfig {
            memory_capacity: 8,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        };
        let owner = ArtifactCache::new(config.clone()).unwrap();
        owner.store(key(5), Arc::new(sample_artifact(5)));
        let listing = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        let Err(err) = ArtifactCache::new(config) else {
            panic!("a second cache opened a held store");
        };
        assert!(store::is_locked(&err), "{err}");
        assert_eq!(listing(), before, "the refused open wrote nothing");
        drop(owner);
        let _ = std::fs::remove_dir_all(&dir);
    }
    #[test]
    fn parked_bytes_stay_within_the_cap_plus_one_entry() {
        let dir = test_dir("cap");
        let cache = ArtifactCache::new(CacheConfig {
            memory_capacity: 2,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        let big = |tag: usize| {
            let mut artifact = sample_artifact(tag);
            artifact.wqasm.push_str(&"x".repeat(1 << 20));
            Arc::new(artifact)
        };
        let entry = render_artifact(&big(0)).len();
        // Enough that the cap is crossed whatever the committer took first.
        let entries = 2 * (PARK_CAP_BYTES / entry) + 4;
        let stored = AtomicU64::new(0);
        std::thread::scope(|s| {
            // Holding the store stalls the committer on its first batch,
            // so the writer fills the queue until the cap stops it.
            let store = lock_poison_ok(&disk(&cache).store);
            s.spawn(|| {
                for tag in 0..entries {
                    cache.store(key(tag as u64), big(tag));
                    stored.fetch_add(1, Ordering::SeqCst);
                }
            });
            while lock_poison_ok(&disk(&cache).queue).parked.bytes <= PARK_CAP_BYTES {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            let parked = lock_poison_ok(&disk(&cache).queue).parked.bytes;
            assert!(parked <= PARK_CAP_BYTES + entry, "{parked} bytes parked");
            assert!(
                stored.load(Ordering::SeqCst) < entries as u64,
                "the writer blocks at the cap"
            );
            drop(store);
        });
        assert_eq!(cache.store_stats().unwrap().artifacts, entries as u64);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_commits_are_counted_and_later_lookups_miss() {
        let dir = test_dir("fault");
        let fault = store::fault::FaultState::disarmed();
        let cache = ArtifactCache::new(CacheConfig {
            memory_capacity: 1,
            disk_dir: Some(dir.clone()),
            store: StoreTuning {
                fault: Some(fault.clone()),
                ..StoreTuning::default()
            },
        })
        .unwrap();
        cache.store(key(1), Arc::new(sample_artifact(1)));
        cache.flush();
        // Every write from here on fails, and the store poisons itself.
        fault.rearm(0);
        cache.store(key(2), Arc::new(sample_artifact(2)));
        cache.flush();
        cache.store(key(3), Arc::new(sample_artifact(3)));
        cache.flush();
        assert_eq!(cache.stats().disk_write_errors, 2);
        // Key 1 is on disk but the poisoned store serves misses; key 2
        // never committed and has left memory; key 3 is still in memory.
        assert!(cache.lookup(&key(1)).is_none());
        assert!(cache.lookup(&key(2)).is_none());
        let (artifact, outcome) = cache.lookup(&key(3)).expect("memory hit");
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        assert_eq!(*artifact, sample_artifact(3));
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_overwrite_reads_back_its_newest_version_while_in_flight() {
        let dir = test_dir("inflight");
        let cache = ArtifactCache::new(CacheConfig {
            memory_capacity: 1,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        cache.store(key(1), Arc::new(sample_artifact(1)));
        cache.flush();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // The committer takes the overwrite and stalls on the store.
            let store = lock_poison_ok(&disk(&cache).store);
            cache.store(key(1), Arc::new(sample_artifact(2)));
            // Push the overwrite out of the one-entry memory tier.
            cache.store(key(9), Arc::new(sample_artifact(9)));
            while lock_poison_ok(&disk(&cache).queue).in_flight.is_none() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            s.spawn(|| tx.send(cache.lookup(&key(1))).unwrap());
            // A lookup that went to the (held) store would block here.
            let served = rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(store);
            let (artifact, outcome) = served.unwrap_or_else(|_| rx.recv().unwrap()).expect("hit");
            assert_eq!(*artifact, sample_artifact(2), "the newest version");
            assert_eq!(outcome, CacheOutcome::MemoryHit);
        });
        // Once committed, the key is found on disk by this same cache.
        cache.flush();
        let (artifact, outcome) = cache.lookup(&key(1)).expect("disk hit");
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(*artifact, sample_artifact(2));
        drop(cache);
        let reopened = ArtifactCache::new(CacheConfig {
            memory_capacity: 1,
            disk_dir: Some(dir.clone()),
            ..CacheConfig::default()
        })
        .unwrap();
        let (artifact, _) = reopened.lookup(&key(1)).expect("disk hit");
        assert_eq!(*artifact, sample_artifact(2));
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
    #[test]
    fn flush_waits_only_for_earlier_stores() {
        const STORES: u64 = 2000;
        let dir = test_dir("busy");
        let cache = ArtifactCache::new(CacheConfig {
            memory_capacity: 4,
            disk_dir: Some(dir.clone()),
            store: StoreTuning {
                page_size: 512,
                ..StoreTuning::default()
            },
        })
        .unwrap();
        let stored = AtomicU64::new(0);
        let at_flush = std::thread::scope(|s| {
            // A slow disk: every commit waits for the store, so the writer
            // below has parked more by the time each commit finishes, and
            // the queue is not empty again until it stops.
            s.spawn(|| {
                while stored.load(Ordering::SeqCst) < STORES {
                    let held = lock_poison_ok(&disk(&cache).store);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    drop(held);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
            s.spawn(|| {
                for tag in 0..STORES {
                    cache.store(key(tag), Arc::new(sample_artifact(tag as usize)));
                    stored.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            });
            while stored.load(Ordering::SeqCst) < 20 {
                std::thread::yield_now();
            }
            cache.flush();
            stored.load(Ordering::SeqCst)
        });
        assert!(at_flush < STORES, "flush waited for stores made after it");
        assert_eq!(cache.store_stats().unwrap().artifacts, STORES);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
