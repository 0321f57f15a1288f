//! A durable, crash-consistent, single-file paged artifact store.
//!
//! This is the disk tier behind [`crate::ArtifactCache`]: all artifacts
//! live in one page file (`store.wvs`) guarded by a write-ahead log
//! (`store.wal`). Every
//! mutation follows the WAL protocol — *append record → fsync WAL →
//! apply to pages → (eventually) checkpoint* — so the store survives
//! being killed at any byte:
//!
//! * a crash **mid-WAL-append** leaves a torn tail that fails its length
//!   or checksum check; recovery discards it and the put never happened,
//! * a crash **mid-page-write** leaves torn pages, but the committed WAL
//!   record carries everything needed to rewrite them; recovery replays,
//! * a crash **mid-checkpoint** leaves the WAL intact; replay is
//!   idempotent,
//! * any page whose checksum still fails is **quarantined**: counted,
//!   served as a miss, and reclaimed — never a panic, never a torn
//!   artifact returned to a caller.
//!
//! Layout lives in [`mod@format`], the log in [`wal`], page I/O and the LRU
//! buffer pool in [`pager`], and the crash-injection hooks in [`fault`].
//!
//! # Example
//!
//! ```
//! use weaver_engine::store::{Store, StoreTuning};
//! use weaver_core::cache::Digest;
//!
//! let dir = std::env::temp_dir().join(format!("wvs-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let mut store = Store::open(&dir, StoreTuning::default()).unwrap();
//! let key = Digest([7; 32]);
//! store.put(&key, b"compiled artifact bytes").unwrap();
//! assert_eq!(store.get(&key).unwrap().as_deref(), Some(&b"compiled artifact bytes"[..]));
//!
//! // Reopening recovers the same contents (replaying the WAL if needed).
//! drop(store);
//! let mut store = Store::open(&dir, StoreTuning::default()).unwrap();
//! assert_eq!(store.get(&key).unwrap().as_deref(), Some(&b"compiled artifact bytes"[..]));
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod fault;
pub mod format;
pub mod pager;
pub mod wal;

use fault::FaultState;
use format::{PageScan, PageState, PageView};
use pager::{BufferPool, PageFile};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use wal::{Wal, WalRecord};
use weaver_core::cache::Digest;

/// File name of the page file inside the store directory.
pub const STORE_FILE: &str = "store.wvs";
/// File name of the write-ahead log.
pub const WAL_FILE: &str = "store.wal";
/// File name of the advisory single-writer lock.
pub const LOCK_FILE: &str = "store.lock";
/// Temporary file used during compaction (discarded on open if left over).
pub const COMPACT_FILE: &str = "store.compact";

/// Store tuning knobs (all have production defaults).
#[derive(Clone, Debug)]
pub struct StoreTuning {
    /// Page size for newly created stores (existing stores keep theirs).
    pub page_size: u32,
    /// Buffer-pool capacity in pages.
    pub buffer_pages: usize,
    /// Checkpoint once the WAL grows past this many bytes.
    pub wal_checkpoint_bytes: u64,
    /// Crash-injection state (tests only; `None` in production).
    pub fault: Option<Arc<FaultState>>,
}

impl Default for StoreTuning {
    fn default() -> Self {
        StoreTuning {
            page_size: format::DEFAULT_PAGE_SIZE,
            buffer_pages: 256,
            wal_checkpoint_bytes: 1 << 20,
            fault: None,
        }
    }
}

/// What recovery found and did while opening a store.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Committed WAL records replayed onto the page file.
    pub replayed: u64,
    /// Torn WAL tail bytes discarded.
    pub torn_wal_bytes: u64,
    /// Pages quarantined for checksum failures during the open scan.
    pub quarantined_pages: u64,
    /// Artifact chains dropped for structural damage (bad links, stale
    /// duplicates lose by LSN and are reclaimed silently, not counted).
    pub dropped_chains: u64,
    /// Whether the store or WAL header was damaged and rebuilt.
    pub header_rebuilt: bool,
}

impl RecoveryReport {
    /// Whether the open had anything at all to repair.
    pub fn recovered(&self) -> bool {
        self.replayed > 0
            || self.torn_wal_bytes > 0
            || self.quarantined_pages > 0
            || self.dropped_chains > 0
            || self.header_rebuilt
    }
}

/// Point-in-time store statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Page size in bytes.
    pub page_size: u32,
    /// Total pages (header page included).
    pub page_count: u64,
    /// Pages holding live artifact data.
    pub live_pages: u64,
    /// Reclaimable pages on the free list.
    pub free_pages: u64,
    /// Live artifacts.
    pub artifacts: u64,
    /// Page-file length in bytes.
    pub file_bytes: u64,
    /// WAL length in bytes (header included).
    pub wal_bytes: u64,
    /// Cumulative checksum/structure failures quarantined (open + reads).
    pub checksum_failures: u64,
    /// Cumulative WAL records replayed at open.
    pub wal_replayed: u64,
    /// Opens that had something to repair.
    pub recoveries: u64,
    /// Buffer-pool LRU evictions.
    pub buffer_evictions: u64,
    /// WAL commit fsyncs issued by this handle (each is one commit point;
    /// with group commit several puts can share one).
    pub wal_fsyncs: u64,
    /// [`Store::put_many`] batches that committed more than one record
    /// under a single fsync.
    pub group_commits: u64,
}

/// Result of a full-store verification scan.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyReport {
    /// Artifacts whose every page checksum and whole-payload digest held.
    pub artifacts_ok: u64,
    /// Artifacts quarantined by the scan.
    pub artifacts_failed: u64,
}

impl VerifyReport {
    /// Whether the scan found no damage.
    pub fn consistent(&self) -> bool {
        self.artifacts_failed == 0
    }
}

/// Result of a compaction pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompactReport {
    /// Page-file bytes before compaction.
    pub bytes_before: u64,
    /// Page-file bytes after.
    pub bytes_after: u64,
    /// Live artifacts carried over.
    pub artifacts: u64,
    /// Artifacts dropped because they failed verification during the copy.
    pub dropped: u64,
}

#[derive(Clone, Debug)]
struct Chain {
    pages: Vec<u64>,
    lsn: u64,
    total_len: u64,
}

#[derive(Debug, Default)]
struct Counters {
    checksum_failures: u64,
    wal_replayed: u64,
    recoveries: u64,
    wal_fsyncs: u64,
    group_commits: u64,
}

/// Process-global store metric handles, resolved once per open so the
/// mutation paths update plain atomics instead of taking the registry
/// lock. The per-instance [`Counters`] stay authoritative for
/// [`StoreStats`]; these series aggregate across every store handle the
/// process opens.
#[derive(Debug)]
struct StoreMetrics {
    wal_fsync: Arc<weaver_obs::Histogram>,
    page_write: Arc<weaver_obs::Histogram>,
    checksum_failures: Arc<weaver_obs::Counter>,
    wal_replayed: Arc<weaver_obs::Counter>,
    recoveries: Arc<weaver_obs::Counter>,
}

impl StoreMetrics {
    fn new() -> Self {
        StoreMetrics {
            wal_fsync: weaver_obs::metrics::latency_histogram(
                "weaver_store_wal_fsync_seconds",
                "WAL append+fsync latency (the commit point of every mutation).",
            ),
            page_write: weaver_obs::metrics::latency_histogram(
                "weaver_store_page_write_seconds",
                "Latency of applying a committed put to the page file.",
            ),
            checksum_failures: weaver_obs::metrics::counter(
                "weaver_store_checksum_failures_total",
                "Pages or chains quarantined for checksum/structure failures.",
            ),
            wal_replayed: weaver_obs::metrics::counter(
                "weaver_store_wal_replayed_total",
                "Committed WAL records replayed during store opens.",
            ),
            recoveries: weaver_obs::metrics::counter(
                "weaver_store_recoveries_total",
                "Store opens that had crash damage to repair.",
            ),
        }
    }
}

/// Returns whether an open failed because another live process (or another
/// handle in this process) holds the store.
pub fn is_locked(e: &std::io::Error) -> bool {
    e.kind() == std::io::ErrorKind::WouldBlock
}

// ---------------------------------------------------------------------------
// Advisory single-writer lock
// ---------------------------------------------------------------------------

fn locked_dirs() -> &'static Mutex<HashSet<PathBuf>> {
    static DIRS: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    DIRS.get_or_init(|| Mutex::new(HashSet::new()))
}

/// What a liveness probe of a lock-holding PID concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Liveness {
    /// The process demonstrably exists.
    Alive,
    /// The process demonstrably does not exist: the lock is stale.
    Dead,
    /// No probe is possible (non-Linux, or `/proc` not mounted). Treated
    /// as *live*: wrongly stealing a live holder's lock races the WAL and
    /// corrupts the store, while wrongly respecting a dead holder's lock
    /// merely runs this opener memory-only.
    Unknown,
}

/// Probes whether the process that wrote `pid` into the lock file still
/// exists. Liveness-unknown conservatively reads as alive (see
/// [`Liveness::Unknown`]).
fn probe_pid(pid: u32) -> Liveness {
    if pid == std::process::id() {
        // Same process but not in the in-process registry: the previous
        // holder died without Drop (e.g. a crash-injection trial) — stale.
        return Liveness::Dead;
    }
    #[cfg(target_os = "linux")]
    {
        if !Path::new("/proc/self").exists() {
            // Linux without /proc mounted (minimal chroot/container):
            // nothing to probe against.
            return Liveness::Unknown;
        }
        if Path::new(&format!("/proc/{pid}")).exists() {
            Liveness::Alive
        } else {
            Liveness::Dead
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        Liveness::Unknown
    }
}

#[derive(Debug)]
struct DirLock {
    dir: PathBuf,
    lock_path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> std::io::Result<DirLock> {
        let canonical = dir.canonicalize()?;
        let lock_path = dir.join(LOCK_FILE);
        {
            let mut held = locked_dirs()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if held.contains(&canonical) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    format!("store at {} is already open in this process", dir.display()),
                ));
            }
            if let Ok(text) = std::fs::read_to_string(&lock_path) {
                // An unparseable file was not written by a weaver store
                // holder — steal it below, same as a dead holder's.
                if let Ok(pid) = text.trim().parse::<u32>() {
                    match probe_pid(pid) {
                        Liveness::Alive => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                format!(
                                    "store at {} is locked by live process {pid}",
                                    dir.display()
                                ),
                            ));
                        }
                        Liveness::Unknown => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                format!(
                                    "store at {} is locked by process {pid} \
                                     (liveness unknown; assuming live)",
                                    dir.display()
                                ),
                            ));
                        }
                        // Provably dead: reclaim the stale lock below.
                        Liveness::Dead => {
                            weaver_obs::log::debug(
                                "weaver-store",
                                &format!(
                                    "reclaiming stale lock at {} left by dead process {pid}",
                                    lock_path.display()
                                ),
                            );
                        }
                    }
                }
            }
            std::fs::write(&lock_path, format!("{}\n", std::process::id()))?;
            held.insert(canonical.clone());
        }
        Ok(DirLock {
            dir: canonical,
            lock_path,
        })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
        locked_dirs()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&self.dir);
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// The paged artifact store (see module docs for the design).
///
/// One `Store` is the single writer of its directory: opens are guarded by
/// an advisory lock (stale locks from dead processes are stolen), and all
/// methods take `&mut self` — [`crate::ArtifactCache`] serializes access
/// behind a mutex.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    tuning: StoreTuning,
    page_size: u32,
    file: PageFile,
    wal: Wal,
    pool: BufferPool,
    index: HashMap<Digest, Chain>,
    /// Reclaimable page ids. Allocation takes the lowest first (locality,
    /// and deterministic layouts in tests).
    free: BTreeSet<u64>,
    page_count: u64,
    next_lsn: u64,
    poisoned: bool,
    counters: Counters,
    metrics: StoreMetrics,
    recovery: RecoveryReport,
    _lock: DirLock,
}

impl Store {
    /// Opens (creating if needed) the store in `dir`, running recovery:
    /// committed WAL records are replayed, torn tails discarded, damaged
    /// pages quarantined, and the log checkpointed.
    pub fn open(dir: &Path, tuning: StoreTuning) -> std::io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        let lock = DirLock::acquire(dir)?;
        // A leftover compaction temp file means a crash mid-compact; the
        // real store file is still authoritative.
        let _ = std::fs::remove_file(dir.join(COMPACT_FILE));

        let mut report = RecoveryReport::default();
        let store_path = dir.join(STORE_FILE);
        let wal_path = dir.join(WAL_FILE);
        let mut file = PageFile::open(&store_path, tuning.page_size, tuning.fault.clone())?;
        let first_page = if file.len_bytes()? == 0 {
            None
        } else {
            Some(file.read_page(0)?)
        };
        if let Some(version) = first_page
            .as_deref()
            .and_then(format::header_version)
            .filter(|&v| v != format::FORMAT_VERSION)
        {
            // Another format's checksums cannot be verified, so every page
            // would quarantine: start the store empty instead. The log is
            // reset first, so a crash mid-reset leaves the old header to
            // reset again.
            weaver_obs::log::warn(
                "weaver-store",
                &format!(
                    "store at {} has format version {version}, this build reads {}; \
                     starting it empty",
                    dir.display(),
                    format::FORMAT_VERSION
                ),
            );
            Wal::reset(&wal_path, tuning.page_size, tuning.fault.clone())?;
            file.truncate()?;
        }
        let page_size = if file.len_bytes()? == 0 {
            file.write_page(0, &format::encode_header(tuning.page_size, 1))?;
            file.sync()?;
            tuning.page_size
        } else {
            match first_page.as_deref().and_then(format::decode_header) {
                Some(h) => h.page_size,
                None => {
                    report.header_rebuilt = true;
                    tuning.page_size
                }
            }
        };
        if page_size != tuning.page_size {
            file = PageFile::open(&store_path, page_size, tuning.fault.clone())?;
        }

        let (wal, wal_open) = Wal::open(&wal_path, page_size, tuning.fault.clone())?;
        report.torn_wal_bytes = wal_open.torn_bytes;
        report.header_rebuilt |= wal_open.header_rebuilt;
        report.replayed = wal_open.records.len() as u64;

        // Phase 1 — replay: rewrite every page image of every committed
        // record, in LSN order. Idempotent, so records already applied
        // before the crash are harmless.
        let mut wal_max_lsn = 0;
        for record in &wal_open.records {
            wal_max_lsn = wal_max_lsn.max(record.lsn());
            for (pid, image) in record_images(record, page_size) {
                file.write_page(pid, &image)?;
            }
        }

        // Phase 2 — scan: classify every page and rebuild the index from
        // the head chains, newest LSN winning on key collisions.
        let page_count = file.len_pages()?.max(1);
        let mut valid: HashMap<u64, PageView> = HashMap::new();
        let mut heads: Vec<(u64, PageView)> = Vec::new();
        for pid in 1..page_count {
            match format::decode_page(&file.read_page(pid)?) {
                PageScan::Blank => {}
                PageScan::Corrupt => report.quarantined_pages += 1,
                PageScan::Valid(view) => {
                    if view.state == PageState::Head {
                        heads.push((pid, view.clone()));
                    }
                    valid.insert(pid, view);
                }
            }
        }
        heads.sort_by(|a, b| b.1.lsn.cmp(&a.1.lsn).then(a.0.cmp(&b.0)));
        let mut index: HashMap<Digest, Chain> = HashMap::new();
        let mut claimed: HashSet<u64> = HashSet::new();
        let mut max_lsn = wal_max_lsn;
        for (pid, head) in heads {
            // A Valid head always decodes a key; treat a missing one as
            // structural damage rather than panicking mid-recovery.
            let Some(key) = head.key else {
                report.dropped_chains += 1;
                continue;
            };
            if index.contains_key(&key) {
                continue; // stale duplicate — a newer LSN already won
            }
            match walk_chain(pid, &head, &valid, &claimed) {
                Some(pages) => {
                    claimed.extend(pages.iter().copied());
                    max_lsn = max_lsn.max(head.lsn);
                    index.insert(
                        key,
                        Chain {
                            pages,
                            lsn: head.lsn,
                            total_len: head.total_len,
                        },
                    );
                }
                None => report.dropped_chains += 1,
            }
        }
        let free: BTreeSet<u64> = (1..page_count).filter(|p| !claimed.contains(p)).collect();

        let metrics = StoreMetrics::new();
        metrics
            .checksum_failures
            .add(report.quarantined_pages + report.dropped_chains);
        metrics.wal_replayed.add(report.replayed);
        metrics.recoveries.add(u64::from(report.recovered()));
        let mut store = Store {
            dir: dir.to_path_buf(),
            page_size,
            pool: BufferPool::new(tuning.buffer_pages),
            tuning,
            file,
            wal,
            index,
            free,
            page_count,
            next_lsn: max_lsn + 1,
            poisoned: false,
            counters: Counters {
                checksum_failures: report.quarantined_pages + report.dropped_chains,
                wal_replayed: report.replayed,
                recoveries: u64::from(report.recovered()),
                ..Counters::default()
            },
            metrics,
            recovery: report,
            _lock: lock,
        };
        // Phase 3 — checkpoint: the replayed pages are now authoritative.
        store.checkpoint()?;
        Ok(store)
    }

    /// What recovery found while opening this handle.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Live artifact count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &Digest) -> bool {
        self.index.contains_key(key)
    }

    /// Live keys, sorted.
    pub fn keys(&self) -> Vec<Digest> {
        let mut keys: Vec<Digest> = self.index.keys().copied().collect();
        keys.sort();
        keys
    }

    fn check_poisoned(&self) -> std::io::Result<()> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "store poisoned by an earlier I/O failure; reopen to recover",
            ));
        }
        Ok(())
    }

    fn poison<T>(&mut self, r: std::io::Result<T>) -> std::io::Result<T> {
        if r.is_err() {
            self.poisoned = true;
        }
        r
    }

    fn allocate(&mut self, n: usize) -> Vec<u64> {
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            match self.free.pop_first() {
                Some(pid) => pages.push(pid),
                None => {
                    pages.push(self.page_count);
                    self.page_count += 1;
                }
            }
        }
        pages
    }

    /// Stores `payload` under `key`, replacing any existing entry. On
    /// return the write is committed (WAL fsynced): a crash at any later
    /// point preserves it.
    pub fn put(&mut self, key: &Digest, payload: &[u8]) -> std::io::Result<()> {
        self.put_many_ref(&[(key, payload)])
    }

    /// Stores every `(key, payload)` pair under a *single* WAL fsync —
    /// group commit. Later entries for the same key win, exactly as if the
    /// puts ran in order. A crash mid-batch preserves a prefix of the
    /// batch (each record is individually framed in the WAL), never a torn
    /// record.
    pub fn put_many(&mut self, items: &[(Digest, Vec<u8>)]) -> std::io::Result<()> {
        let refs: Vec<(&Digest, &[u8])> = items.iter().map(|(k, p)| (k, p.as_slice())).collect();
        self.put_many_ref(&refs)
    }

    fn put_many_ref(&mut self, items: &[(&Digest, &[u8])]) -> std::io::Result<()> {
        self.check_poisoned()?;
        if items.is_empty() {
            return Ok(());
        }
        // Phase A — build one record per item in order. A key written
        // twice in the batch chains `old_head` through its earlier record
        // so apply frees the superseded chain, same as sequential puts.
        let mut batch_heads: HashMap<Digest, u64> = HashMap::new();
        let mut records = Vec::with_capacity(items.len());
        for (key, payload) in items {
            let n = format::pages_for(payload.len(), self.page_size);
            let pages = self.allocate(n);
            let lsn = self.next_lsn;
            self.next_lsn += 1;
            let old_head = batch_heads
                .get(*key)
                .copied()
                .or_else(|| self.index.get(*key).map(|c| c.pages[0]))
                .unwrap_or(0);
            batch_heads.insert(**key, pages[0]);
            records.push(WalRecord::Put {
                lsn,
                key: **key,
                total_len: payload.len() as u64,
                content: format::content_digest(payload),
                old_head,
                pages,
                payload: Cow::Borrowed(payload),
            });
        }
        // Phase B — one append, one fsync: the whole batch's commit point.
        let fsync_start = std::time::Instant::now();
        let committed = self.wal.append_batch(&records);
        self.metrics
            .wal_fsync
            .observe(fsync_start.elapsed().as_secs_f64());
        self.poison(committed)?;
        self.counters.wal_fsyncs += 1;
        if records.len() > 1 {
            self.counters.group_commits += 1;
        }
        // Phase C — apply in LSN order (earlier chains freed correctly).
        let write_start = std::time::Instant::now();
        for record in &records {
            self.apply_put(record)?;
        }
        self.metrics
            .page_write
            .observe(write_start.elapsed().as_secs_f64());
        self.maybe_checkpoint()
    }

    /// Removes `key`; returns whether it was present. Committed like
    /// [`Store::put`].
    pub fn delete(&mut self, key: &Digest) -> std::io::Result<bool> {
        self.check_poisoned()?;
        let Some(chain) = self.index.get(key).cloned() else {
            return Ok(false);
        };
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let record = WalRecord::Delete {
            lsn,
            key: *key,
            head_page: chain.pages[0],
        };
        let fsync_start = std::time::Instant::now();
        let committed = self.wal.append(&record);
        self.metrics
            .wal_fsync
            .observe(fsync_start.elapsed().as_secs_f64());
        self.poison(committed)?;
        self.counters.wal_fsyncs += 1;
        let image = format::encode_free(self.page_size, lsn);
        let write = self.file.write_page(chain.pages[0], &image);
        self.poison(write)?;
        self.free_chain(&chain);
        self.index.remove(key);
        self.maybe_checkpoint()?;
        Ok(true)
    }

    /// Fetches the payload stored under `key`. `Ok(None)` is a miss —
    /// either the key is absent or its chain failed verification and was
    /// quarantined (counted in [`StoreStats::checksum_failures`]).
    pub fn get(&mut self, key: &Digest) -> std::io::Result<Option<Vec<u8>>> {
        if self.poisoned {
            return Ok(None);
        }
        let Some(chain) = self.index.get(key).cloned() else {
            return Ok(None);
        };
        let mut payload = Vec::with_capacity(chain.total_len as usize);
        let mut expected_content: Option<Digest> = None;
        for (i, &pid) in chain.pages.iter().enumerate() {
            let image = match self.pool.get(pid) {
                Some(image) => image,
                None => {
                    let image = Arc::new(self.file.read_page(pid)?);
                    self.pool.insert(pid, image.clone());
                    image
                }
            };
            let view = match format::decode_page(&image) {
                PageScan::Valid(v) => v,
                _ => return Ok(self.quarantine(key, &chain)),
            };
            let expected_state = if i == 0 {
                PageState::Head
            } else {
                PageState::Cont
            };
            if view.state != expected_state
                || view.lsn != chain.lsn
                || (i == 0 && view.key != Some(*key))
            {
                return Ok(self.quarantine(key, &chain));
            }
            if i == 0 {
                expected_content = view.content;
            }
            payload.extend_from_slice(format::page_payload(&image, &view));
        }
        if payload.len() as u64 != chain.total_len
            || expected_content != Some(format::content_digest(&payload))
        {
            return Ok(self.quarantine(key, &chain));
        }
        Ok(Some(payload))
    }

    /// Checkpoints: fsyncs the page file, then truncates the WAL. Bounds
    /// recovery replay; called automatically once the WAL passes
    /// [`StoreTuning::wal_checkpoint_bytes`].
    pub fn checkpoint(&mut self) -> std::io::Result<()> {
        self.check_poisoned()?;
        let header = format::encode_header(self.page_size, self.page_count);
        let steps = self
            .file
            .write_page(0, &header)
            .and_then(|()| self.file.sync())
            .and_then(|()| self.wal.truncate());
        self.poison(steps)
    }

    /// Rewrites the store with live chains packed contiguously, reclaiming
    /// free pages. Crash-safe: the new file is built aside and swapped in
    /// with an atomic rename; a crash mid-compact leaves the old store.
    pub fn compact(&mut self) -> std::io::Result<CompactReport> {
        self.check_poisoned()?;
        self.checkpoint()?;
        let mut report = CompactReport {
            bytes_before: self.file.len_bytes()?,
            ..CompactReport::default()
        };

        let tmp_path = self.dir.join(COMPACT_FILE);
        let _ = std::fs::remove_file(&tmp_path);
        let build = self.build_compacted(&tmp_path, &mut report);
        let new_index = match build {
            Ok(idx) => idx,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        };
        if let Err(e) = std::fs::rename(&tmp_path, self.dir.join(STORE_FILE)) {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(e);
        }
        // Point of no return: the new file is live. Best-effort directory
        // sync so the rename itself is durable.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let reopen = PageFile::open(
            &self.dir.join(STORE_FILE),
            self.page_size,
            self.tuning.fault.clone(),
        );
        self.file = self.poison(reopen)?;
        self.page_count = 1 + new_index
            .values()
            .map(|c| c.pages.len() as u64)
            .sum::<u64>();
        self.index = new_index;
        self.free.clear();
        self.pool.clear();
        report.bytes_after = self.file.len_bytes()?;
        Ok(report)
    }

    fn build_compacted(
        &mut self,
        tmp_path: &Path,
        report: &mut CompactReport,
    ) -> std::io::Result<HashMap<Digest, Chain>> {
        let mut tmp = PageFile::open(tmp_path, self.page_size, self.tuning.fault.clone())?;
        let mut new_index: HashMap<Digest, Chain> = HashMap::new();
        let mut next_pid = 1u64;
        for key in self.keys() {
            let Some(payload) = self.get(&key)? else {
                report.dropped += 1;
                continue;
            };
            let chain_lsn = self.index[&key].lsn;
            let n = format::pages_for(payload.len(), self.page_size);
            let pages: Vec<u64> = (next_pid..next_pid + n as u64).collect();
            next_pid += n as u64;
            let total_len = payload.len() as u64;
            let record = WalRecord::Put {
                lsn: chain_lsn,
                key,
                total_len,
                content: format::content_digest(&payload),
                old_head: 0,
                pages: pages.clone(),
                payload: Cow::Owned(payload),
            };
            for (pid, image) in record_images(&record, self.page_size) {
                tmp.write_page(pid, &image)?;
            }
            new_index.insert(
                key,
                Chain {
                    pages,
                    lsn: chain_lsn,
                    total_len,
                },
            );
            report.artifacts += 1;
        }
        tmp.write_page(0, &format::encode_header(self.page_size, next_pid))?;
        tmp.sync()?;
        Ok(new_index)
    }

    /// Verifies every live artifact end to end: per-page checksums, chain
    /// structure, and the whole-payload digest. Damaged chains are
    /// quarantined (become misses) and counted.
    pub fn verify(&mut self) -> std::io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        for key in self.keys() {
            match self.get(&key)? {
                Some(_) => report.artifacts_ok += 1,
                None => report.artifacts_failed += 1,
            }
        }
        Ok(report)
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            page_size: self.page_size,
            page_count: self.page_count,
            live_pages: self.index.values().map(|c| c.pages.len() as u64).sum(),
            free_pages: self.free.len() as u64,
            artifacts: self.index.len() as u64,
            file_bytes: self.file.len_bytes().unwrap_or(0),
            wal_bytes: self.wal.len(),
            checksum_failures: self.counters.checksum_failures,
            wal_replayed: self.counters.wal_replayed,
            recoveries: self.counters.recoveries,
            buffer_evictions: self.pool.evictions(),
            wal_fsyncs: self.counters.wal_fsyncs,
            group_commits: self.counters.group_commits,
        }
    }

    /// Publishes the current [`StoreStats`] into the process-global metrics
    /// registry as `weaver_store_*` gauges, so a [`weaver_obs::metrics`]
    /// snapshot (CLI `cache stats`, the future daemon admin surface)
    /// carries the store's size and health alongside the counters.
    pub fn publish_metrics(&self) {
        let stats = self.stats();
        for (name, help, value) in [
            (
                "weaver_store_artifacts",
                "Live artifacts in the paged store.",
                stats.artifacts as f64,
            ),
            (
                "weaver_store_file_bytes",
                "Page-file length in bytes.",
                stats.file_bytes as f64,
            ),
            (
                "weaver_store_wal_bytes",
                "WAL length in bytes (header included).",
                stats.wal_bytes as f64,
            ),
            (
                "weaver_store_live_pages",
                "Pages holding live artifact data.",
                stats.live_pages as f64,
            ),
            (
                "weaver_store_free_pages",
                "Reclaimable pages on the free list.",
                stats.free_pages as f64,
            ),
            (
                "weaver_store_buffer_evictions",
                "Buffer-pool LRU evictions.",
                stats.buffer_evictions as f64,
            ),
        ] {
            weaver_obs::metrics::gauge(name, help).set(value);
        }
    }

    fn apply_put(&mut self, record: &WalRecord<'_>) -> std::io::Result<()> {
        let WalRecord::Put {
            lsn,
            key,
            total_len,
            pages,
            ..
        } = record
        else {
            unreachable!("apply_put takes put records");
        };
        for (pid, image) in record_images(record, self.page_size) {
            let write = self.file.write_page(pid, &image);
            self.poison(write)?;
            self.pool.insert(pid, Arc::new(image));
        }
        if let Some(old) = self.index.remove(key) {
            self.free_chain(&old);
        }
        self.index.insert(
            *key,
            Chain {
                pages: pages.clone(),
                lsn: *lsn,
                total_len: *total_len,
            },
        );
        Ok(())
    }

    fn free_chain(&mut self, chain: &Chain) {
        for &pid in &chain.pages {
            self.pool.remove(pid);
            self.free.insert(pid);
        }
    }

    fn quarantine(&mut self, key: &Digest, chain: &Chain) -> Option<Vec<u8>> {
        self.counters.checksum_failures += 1;
        self.metrics.checksum_failures.inc();
        // Debug, not warn: crash-recovery tests quarantine deliberately and
        // the condition is already surfaced via counters and StoreStats.
        weaver_obs::log::debug(
            "weaver-store",
            &format!("artifact {} failed verification; quarantined", key.to_hex()),
        );
        self.index.remove(key);
        self.free_chain(chain);
        None
    }

    fn maybe_checkpoint(&mut self) -> std::io::Result<()> {
        if self.wal.len() > self.tuning.wal_checkpoint_bytes {
            self.checkpoint()?;
        }
        Ok(())
    }
}

/// Materializes the page images a put record writes; deletes produce the
/// freed head image. Used identically by runtime apply and replay, so
/// recovery reconstructs byte-identical pages.
fn record_images(record: &WalRecord<'_>, page_size: u32) -> Vec<(u64, Vec<u8>)> {
    match record {
        WalRecord::Put {
            lsn,
            key,
            total_len,
            content,
            old_head,
            pages,
            payload,
        } => {
            let mut images = Vec::with_capacity(pages.len() + 1);
            if *old_head != 0 {
                images.push((*old_head, format::encode_free(page_size, *lsn)));
            }
            let head_cap = format::head_capacity(page_size).min(payload.len());
            let mut offset = head_cap;
            images.push((
                pages[0],
                format::encode_head(
                    page_size,
                    key,
                    *total_len,
                    content,
                    &payload[..head_cap],
                    pages.get(1).copied().unwrap_or(0),
                    *lsn,
                ),
            ));
            for (i, &pid) in pages.iter().enumerate().skip(1) {
                let take = format::cont_capacity(page_size).min(payload.len() - offset);
                images.push((
                    pid,
                    format::encode_cont(
                        page_size,
                        &payload[offset..offset + take],
                        pages.get(i + 1).copied().unwrap_or(0),
                        *lsn,
                    ),
                ));
                offset += take;
            }
            images
        }
        WalRecord::Delete { lsn, head_page, .. } => {
            vec![(*head_page, format::encode_free(page_size, *lsn))]
        }
    }
}

/// Walks a head's chain, validating structure: links in range, every page
/// checksum-valid, continuation state, matching LSN, lengths summing to
/// the head's total. Returns the page ids (head first) or `None`.
fn walk_chain(
    head_pid: u64,
    head: &PageView,
    valid: &HashMap<u64, PageView>,
    claimed: &HashSet<u64>,
) -> Option<Vec<u64>> {
    let mut pages = vec![head_pid];
    let mut seen: HashSet<u64> = pages.iter().copied().collect();
    let mut length = head.payload_len as u64;
    let mut next = head.next;
    while next != 0 {
        if claimed.contains(&next) || !seen.insert(next) {
            return None;
        }
        let view = valid.get(&next)?;
        if view.state != PageState::Cont || view.lsn != head.lsn {
            return None;
        }
        pages.push(next);
        length += view.payload_len as u64;
        next = view.next;
    }
    (length == head.total_len).then_some(pages)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "weaver-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn key(tag: u8) -> Digest {
        Digest([tag; 32])
    }

    fn tuning(page_size: u32) -> StoreTuning {
        StoreTuning {
            page_size,
            buffer_pages: 8,
            ..StoreTuning::default()
        }
    }

    #[test]
    fn put_get_roundtrips_across_page_boundaries() {
        let d = dir("roundtrip");
        let mut s = Store::open(&d, tuning(256)).unwrap();
        for (tag, len) in [(1u8, 0usize), (2, 1), (3, 152), (4, 153), (5, 10_000)] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8 ^ tag).collect();
            s.put(&key(tag), &payload).unwrap();
            assert_eq!(s.get(&key(tag)).unwrap().unwrap(), payload, "len {len}");
        }
        assert_eq!(s.len(), 5);
        assert!(s.verify().unwrap().consistent());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn reopen_recovers_everything_without_checkpoint() {
        let d = dir("reopen");
        let payloads: Vec<Vec<u8>> = (0..6u8).map(|t| vec![t; 700]).collect();
        {
            let mut s = Store::open(&d, tuning(256)).unwrap();
            for (t, p) in payloads.iter().enumerate() {
                s.put(&key(t as u8), p).unwrap();
            }
            // No checkpoint, no clean close: drop with a full WAL.
        }
        let mut s = Store::open(&d, tuning(256)).unwrap();
        assert!(s.recovery().replayed > 0, "reopen must replay the WAL");
        for (t, p) in payloads.iter().enumerate() {
            assert_eq!(s.get(&key(t as u8)).unwrap().unwrap(), *p);
        }
        assert!(s.verify().unwrap().consistent());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn overwrite_and_delete_reclaim_pages() {
        let d = dir("reclaim");
        let mut s = Store::open(&d, tuning(256)).unwrap();
        s.put(&key(1), &[1u8; 2000]).unwrap();
        let pages_before = s.stats().page_count;
        for round in 0..5u8 {
            s.put(&key(1), &vec![round; 2000]).unwrap();
        }
        // Overwrites alternate between two chains' worth of pages.
        assert!(s.stats().page_count <= pages_before * 2);
        assert!(s.delete(&key(1)).unwrap());
        assert!(!s.delete(&key(1)).unwrap());
        assert!(s.get(&key(1)).unwrap().is_none());
        assert_eq!(s.stats().live_pages, 0);
        // A deleted key stays deleted across recovery.
        drop(s);
        let mut s = Store::open(&d, tuning(256)).unwrap();
        assert!(s.get(&key(1)).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupted_page_quarantines_as_a_miss() {
        let d = dir("quarantine");
        {
            let mut s = Store::open(&d, tuning(256)).unwrap();
            s.put(&key(1), &[1u8; 500]).unwrap();
            s.put(&key(2), &[2u8; 500]).unwrap();
            s.checkpoint().unwrap();
        }
        // Flip a byte in the middle of page 1 (key 1's chain).
        let path = d.join(STORE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[256 + 150] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut s = Store::open(&d, tuning(256)).unwrap();
        assert!(s.recovery().recovered());
        assert!(s.get(&key(1)).unwrap().is_none(), "quarantined, not torn");
        assert_eq!(s.get(&key(2)).unwrap().unwrap(), vec![2u8; 500]);
        assert!(s.stats().checksum_failures > 0);
        // The quarantined pages are reclaimed by later writes.
        s.put(&key(3), &[3u8; 500]).unwrap();
        assert!(s.verify().unwrap().consistent());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn compaction_shrinks_and_preserves_contents() {
        let d = dir("compact");
        let mut s = Store::open(&d, tuning(256)).unwrap();
        for t in 0..10u8 {
            s.put(&key(t), &vec![t; 1500]).unwrap();
        }
        for t in 0..8u8 {
            s.delete(&key(t)).unwrap();
        }
        let report = s.compact().unwrap();
        assert_eq!(report.artifacts, 2);
        assert!(
            report.bytes_after < report.bytes_before,
            "{report:?} must shrink"
        );
        assert_eq!(s.get(&key(8)).unwrap().unwrap(), vec![8u8; 1500]);
        assert_eq!(s.get(&key(9)).unwrap().unwrap(), vec![9u8; 1500]);
        drop(s);
        let mut s = Store::open(&d, tuning(256)).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(&key(9)).unwrap().unwrap(), vec![9u8; 1500]);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn put_many_commits_a_batch_under_one_fsync() {
        let d = dir("groupcommit");
        let mut s = Store::open(&d, tuning(256)).unwrap();
        let fsyncs_before = s.stats().wal_fsyncs;
        let batch: Vec<(Digest, Vec<u8>)> = (0..8u8).map(|t| (key(t), vec![t; 700])).collect();
        s.put_many(&batch).unwrap();
        let stats = s.stats();
        assert_eq!(stats.wal_fsyncs, fsyncs_before + 1, "one commit point");
        assert_eq!(stats.group_commits, 1);
        for (k, p) in &batch {
            assert_eq!(s.get(k).unwrap().unwrap(), *p);
        }
        // Survives recovery like any sequence of puts.
        drop(s);
        let mut s = Store::open(&d, tuning(256)).unwrap();
        for (k, p) in &batch {
            assert_eq!(s.get(k).unwrap().unwrap(), *p);
        }
        assert!(s.verify().unwrap().consistent());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn put_many_duplicate_keys_last_write_wins() {
        let d = dir("groupdup");
        let mut s = Store::open(&d, tuning(256)).unwrap();
        s.put(&key(1), &[9u8; 300]).unwrap();
        let batch = vec![
            (key(1), vec![1u8; 600]),
            (key(2), vec![2u8; 600]),
            (key(1), vec![3u8; 600]),
        ];
        s.put_many(&batch).unwrap();
        assert_eq!(s.get(&key(1)).unwrap().unwrap(), vec![3u8; 600]);
        assert_eq!(s.get(&key(2)).unwrap().unwrap(), vec![2u8; 600]);
        assert!(s.verify().unwrap().consistent());
        drop(s);
        let mut s = Store::open(&d, tuning(256)).unwrap();
        assert_eq!(s.get(&key(1)).unwrap().unwrap(), vec![3u8; 600]);
        assert!(s.verify().unwrap().consistent());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn free_list_allocates_as_the_resorted_vec_did() {
        // The oracle is the previous free list: a `Vec` re-sorted
        // descending after every freed chain and popped from the back.
        let d = dir("free-oracle");
        let mut s = Store::open(&d, tuning(256)).unwrap();
        let mut oracle: Vec<u64> = Vec::new();
        let mut oracle_pages = s.page_count;
        let mut live: Vec<Vec<u64>> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for step in 0..4000 {
            if live.is_empty() || next(100) < 55 {
                let n = 1 + next(5) as usize;
                let want: Vec<u64> = (0..n)
                    .map(|_| {
                        oracle.pop().unwrap_or_else(|| {
                            oracle_pages += 1;
                            oracle_pages - 1
                        })
                    })
                    .collect();
                let got = s.allocate(n);
                assert_eq!(got, want, "step {step}");
                live.push(got);
            } else {
                let pages = live.swap_remove(next(live.len() as u64) as usize);
                oracle.extend(&pages);
                oracle.sort_unstable_by(|a, b| b.cmp(a));
                s.free_chain(&Chain {
                    pages,
                    lsn: 0,
                    total_len: 0,
                });
            }
            assert_eq!(s.free.len(), oracle.len(), "step {step}");
        }
        assert_eq!(s.page_count, oracle_pages);
        drop(s);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn second_open_in_process_is_locked_and_drop_releases() {
        let d = dir("lock");
        let s = Store::open(&d, tuning(256)).unwrap();
        let err = Store::open(&d, tuning(256)).unwrap_err();
        assert!(is_locked(&err), "{err}");
        drop(s);
        Store::open(&d, tuning(256)).unwrap();
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn wal_growth_triggers_automatic_checkpoint() {
        let d = dir("autockpt");
        let mut t = tuning(256);
        t.wal_checkpoint_bytes = 2048;
        let mut s = Store::open(&d, t).unwrap();
        for round in 0..20u8 {
            s.put(&key(1), &vec![round; 600]).unwrap();
        }
        assert!(
            s.stats().wal_bytes <= 2048 + 700 + format::WAL_HEADER_LEN,
            "wal stays bounded, got {}",
            s.stats().wal_bytes
        );
        let _ = std::fs::remove_dir_all(&d);
    }
}
