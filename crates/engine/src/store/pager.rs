//! Page-granular I/O over the store file plus the in-process buffer pool.
//!
//! The [`PageFile`] is a thin positional-I/O view of `store.wvs`; the
//! [`BufferPool`] keeps recently touched pages in memory under LRU
//! eviction so chain reads of hot artifacts never touch the file. The
//! pool is write-through: `Store` applies WAL records straight to the
//! file and mirrors the images here, so pooled pages are never dirty and
//! eviction is free — exactly the property that keeps a crash from ever
//! losing pool-only state.

use super::fault::{FaultFile, FaultState};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

/// Positional page I/O over the store file.
#[derive(Debug)]
pub struct PageFile {
    file: FaultFile,
    page_size: u32,
}

impl PageFile {
    /// Opens (creating if absent) the page file.
    pub fn open(
        path: &Path,
        page_size: u32,
        fault: Option<Arc<FaultState>>,
    ) -> std::io::Result<Self> {
        Ok(PageFile {
            file: FaultFile::open(path, fault)?,
            page_size,
        })
    }

    /// Whole pages currently backed by the file (a trailing partial page —
    /// a torn grow — counts, and reads of it zero-fill).
    pub fn len_pages(&self) -> std::io::Result<u64> {
        Ok(self.file.len()?.div_ceil(self.page_size as u64))
    }

    /// File length in bytes.
    pub fn len_bytes(&self) -> std::io::Result<u64> {
        self.file.len()
    }

    /// Reads page `pid`, zero-filling anything past the physical end of
    /// file (pages past a crash-torn grow read as blank, i.e. free).
    pub fn read_page(&mut self, pid: u64) -> std::io::Result<Vec<u8>> {
        let ps = self.page_size as u64;
        let offset = pid * ps;
        let file_len = self.file.len()?;
        let mut page = vec![0u8; self.page_size as usize];
        if offset >= file_len {
            return Ok(page);
        }
        let avail = ((file_len - offset).min(ps)) as usize;
        self.file.read_exact_at(offset, &mut page[..avail])?;
        Ok(page)
    }

    /// Writes a full page image at `pid` (growing the file as needed).
    pub fn write_page(&mut self, pid: u64, image: &[u8]) -> std::io::Result<()> {
        debug_assert_eq!(image.len(), self.page_size as usize);
        self.file.write_all_at(pid * self.page_size as u64, image)
    }

    /// Cuts the file to zero length (a store of another format version
    /// restarts empty).
    pub(crate) fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)
    }

    /// Fsyncs the file (the checkpoint barrier).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync()
    }
}

/// A clean-page LRU cache keyed by page id.
#[derive(Debug)]
pub struct BufferPool {
    pages: HashMap<u64, PoolEntry>,
    /// Page id by LRU stamp, oldest first. Every pool operation takes a
    /// fresh stamp from `clock`, so stamps are unique and the first entry
    /// is always the eviction victim.
    by_stamp: BTreeMap<u64, u64>,
    capacity: usize,
    clock: u64,
    evictions: u64,
}

#[derive(Debug)]
struct PoolEntry {
    image: Arc<Vec<u8>>,
    stamp: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            pages: HashMap::new(),
            by_stamp: BTreeMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            evictions: 0,
        }
    }

    /// Fetches a pooled page, refreshing its LRU stamp.
    pub fn get(&mut self, pid: u64) -> Option<Arc<Vec<u8>>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.pages.get_mut(&pid)?;
        self.by_stamp.remove(&entry.stamp);
        self.by_stamp.insert(clock, pid);
        entry.stamp = clock;
        Some(entry.image.clone())
    }

    /// Inserts (or replaces) a page image, evicting the least recently
    /// used page when over capacity.
    pub fn insert(&mut self, pid: u64, image: Arc<Vec<u8>>) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(old) = self.pages.insert(pid, PoolEntry { image, stamp }) {
            self.by_stamp.remove(&old.stamp);
        }
        self.by_stamp.insert(stamp, pid);
        while self.pages.len() > self.capacity {
            let (_, oldest) = self.by_stamp.pop_first().expect("nonempty pool");
            self.pages.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Drops a page (freed or rewritten on disk).
    pub fn remove(&mut self, pid: u64) {
        if let Some(entry) = self.pages.remove(&pid) {
            self.by_stamp.remove(&entry.stamp);
        }
    }

    /// Drops everything (compaction renumbers pages).
    pub fn clear(&mut self) {
        self.pages.clear();
        self.by_stamp.clear();
    }

    /// Cumulative LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_evicts_least_recently_used() {
        let mut pool = BufferPool::new(2);
        pool.insert(1, Arc::new(vec![1]));
        pool.insert(2, Arc::new(vec![2]));
        assert!(pool.get(1).is_some()); // refresh 1
        pool.insert(3, Arc::new(vec![3])); // evicts 2
        assert!(pool.get(1).is_some());
        assert!(pool.get(2).is_none());
        assert!(pool.get(3).is_some());
        assert_eq!(pool.evictions(), 1);
    }

    /// The pool as it evicted before the stamp index: a scan of every
    /// entry for the smallest stamp.
    struct ScanPool {
        pages: HashMap<u64, (Arc<Vec<u8>>, u64)>,
        capacity: usize,
        clock: u64,
        evictions: u64,
    }

    impl ScanPool {
        fn get(&mut self, pid: u64) -> Option<Arc<Vec<u8>>> {
            self.clock += 1;
            let clock = self.clock;
            self.pages.get_mut(&pid).map(|e| {
                e.1 = clock;
                e.0.clone()
            })
        }

        fn insert(&mut self, pid: u64, image: Arc<Vec<u8>>) {
            self.clock += 1;
            self.pages.insert(pid, (image, self.clock));
            while self.pages.len() > self.capacity {
                let oldest = self
                    .pages
                    .iter()
                    .min_by_key(|(_, e)| e.1)
                    .map(|(pid, _)| *pid)
                    .expect("nonempty pool");
                self.pages.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    #[test]
    fn stamp_index_evicts_as_the_full_scan_did() {
        let mut rng = 0x5EED_1234_ABCD_0001u64;
        let mut next = move |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for capacity in [1usize, 2, 3, 8, 17] {
            let mut pool = BufferPool::new(capacity);
            let mut scan = ScanPool {
                pages: HashMap::new(),
                capacity,
                clock: 0,
                evictions: 0,
            };
            for step in 0..4000u64 {
                let pid = next(3 * capacity as u64 + 2);
                match next(100) {
                    0..=39 => {
                        let got = pool.get(pid);
                        assert_eq!(got, scan.get(pid), "get {pid} at step {step}");
                    }
                    40..=89 => {
                        let image = Arc::new(step.to_le_bytes().to_vec());
                        pool.insert(pid, image.clone());
                        scan.insert(pid, image);
                    }
                    90..=98 => {
                        pool.remove(pid);
                        scan.pages.remove(&pid);
                    }
                    _ => {
                        pool.clear();
                        scan.pages.clear();
                    }
                }
                assert_eq!(pool.evictions(), scan.evictions, "step {step}");
                let mut held: Vec<u64> = pool.pages.keys().copied().collect();
                let mut expected: Vec<u64> = scan.pages.keys().copied().collect();
                held.sort_unstable();
                expected.sort_unstable();
                assert_eq!(held, expected, "pooled pages at step {step}");
                assert_eq!(pool.by_stamp.len(), pool.pages.len());
            }
        }
    }

    #[test]
    fn reads_past_eof_are_blank() {
        let d = std::env::temp_dir().join(format!(
            "weaver-pager-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        let mut pf = PageFile::open(&d.join("store.wvs"), 128, None).unwrap();
        assert_eq!(pf.len_pages().unwrap(), 0);
        pf.write_page(2, &[7u8; 128]).unwrap();
        assert_eq!(pf.len_pages().unwrap(), 3);
        assert_eq!(pf.read_page(1).unwrap(), vec![0u8; 128]);
        assert_eq!(pf.read_page(2).unwrap(), vec![7u8; 128]);
        assert_eq!(pf.read_page(9).unwrap(), vec![0u8; 128]);
        let _ = std::fs::remove_dir_all(&d);
    }
}
