//! The write-ahead log.
//!
//! Every mutation of the page file is first appended here as one
//! length-prefixed, checksummed, LSN-stamped record and fsynced; only then
//! are pages written. A record whose fsync returned is *committed*: crash
//! at any later point and recovery replays it. A record cut short by a
//! crash mid-append fails its length or checksum check and the whole tail
//! from that point is discarded — the put simply never happened.
//!
//! ```text
//! file   = header · record*
//! header = magic "WVWAL001" · version u32 (2) · page_size u32   (16 bytes)
//! record = body_len u32 · XXH64(body) u64 · body
//! body   = lsn u64 · kind u8 · key [32] · kind-specific fields
//!   kind 1 (put):    total_len u64 · content [32] · old_head u64
//!                    · n_pages u32 · page_id u64 × n_pages · payload
//!   kind 2 (delete): head_page u64
//! ```
//!
//! A put that replaces an existing chain records the old head page
//! (`old_head`, 0 when the key is new) and frees it on apply, so a stale
//! head can never resurrect a superseded or deleted value after recovery.
//!
//! A checkpoint (fsync the page file, then truncate the WAL back to its
//! header) bounds replay work; the log never needs compaction of its own.

use super::fault::{FaultFile, FaultState};
use super::format::{sum64, FORMAT_VERSION, WAL_HEADER_LEN, WAL_MAGIC};
use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;
use weaver_core::cache::Digest;

/// One committed WAL record. A put borrows its payload while it is being
/// committed and owns it when decoded from the log.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord<'a> {
    /// Write an artifact as a chain over `pages` (in chain order).
    Put {
        /// Log sequence number.
        lsn: u64,
        /// Artifact key.
        key: Digest,
        /// Total payload length.
        total_len: u64,
        /// BLAKE2s-256 of the payload.
        content: Digest,
        /// Head page of the chain this put replaces (0 = new key); freed
        /// on apply so superseded values cannot resurrect.
        old_head: u64,
        /// Page ids of the chain, head first.
        pages: Vec<u64>,
        /// The full payload (pages derive their slices deterministically).
        payload: Cow<'a, [u8]>,
    },
    /// Remove an artifact (rewrites its head page as free).
    Delete {
        /// Log sequence number.
        lsn: u64,
        /// Artifact key.
        key: Digest,
        /// Head page of the chain being freed.
        head_page: u64,
    },
}

impl WalRecord<'_> {
    /// The record's LSN.
    pub fn lsn(&self) -> u64 {
        match self {
            WalRecord::Put { lsn, .. } | WalRecord::Delete { lsn, .. } => *lsn,
        }
    }

    /// The record body as two parts: the fixed fields (and page ids), then
    /// the payload, which is borrowed so a frame copies it exactly once.
    fn encode_parts(&self) -> (Vec<u8>, &[u8]) {
        match self {
            WalRecord::Put {
                lsn,
                key,
                total_len,
                content,
                old_head,
                pages,
                payload,
            } => {
                let mut b = Vec::with_capacity(93 + 8 * pages.len());
                b.extend_from_slice(&lsn.to_le_bytes());
                b.push(1);
                b.extend_from_slice(&key.0);
                b.extend_from_slice(&total_len.to_le_bytes());
                b.extend_from_slice(&content.0);
                b.extend_from_slice(&old_head.to_le_bytes());
                b.extend_from_slice(&(pages.len() as u32).to_le_bytes());
                for p in pages {
                    b.extend_from_slice(&p.to_le_bytes());
                }
                (b, payload)
            }
            WalRecord::Delete {
                lsn,
                key,
                head_page,
            } => {
                let mut b = Vec::with_capacity(49);
                b.extend_from_slice(&lsn.to_le_bytes());
                b.push(2);
                b.extend_from_slice(&key.0);
                b.extend_from_slice(&head_page.to_le_bytes());
                (b, &[])
            }
        }
    }

    fn decode_body(b: &[u8]) -> Option<WalRecord<'static>> {
        if b.len() < 41 {
            return None;
        }
        let lsn = u64::from_le_bytes(b[0..8].try_into().ok()?);
        let kind = b[8];
        let mut key = [0u8; 32];
        key.copy_from_slice(&b[9..41]);
        let key = Digest(key);
        match kind {
            1 => {
                if b.len() < 93 {
                    return None;
                }
                let total_len = u64::from_le_bytes(b[41..49].try_into().ok()?);
                let mut content = [0u8; 32];
                content.copy_from_slice(&b[49..81]);
                let old_head = u64::from_le_bytes(b[81..89].try_into().ok()?);
                let n_pages = u32::from_le_bytes(b[89..93].try_into().ok()?) as usize;
                let pages_end = 93usize.checked_add(n_pages.checked_mul(8)?)?;
                if b.len() < pages_end {
                    return None;
                }
                let pages: Vec<u64> = (0..n_pages)
                    .map(|i| u64::from_le_bytes(b[93 + 8 * i..101 + 8 * i].try_into().unwrap()))
                    .collect();
                let payload = &b[pages_end..];
                if payload.len() as u64 != total_len || pages.is_empty() {
                    return None;
                }
                Some(WalRecord::Put {
                    lsn,
                    key,
                    total_len,
                    content: Digest(content),
                    old_head,
                    pages,
                    payload: Cow::Owned(payload.to_vec()),
                })
            }
            2 => {
                if b.len() != 49 {
                    return None;
                }
                let head_page = u64::from_le_bytes(b[41..49].try_into().ok()?);
                Some(WalRecord::Delete {
                    lsn,
                    key,
                    head_page,
                })
            }
            _ => None,
        }
    }
}

/// What `Wal::open` found on disk.
#[derive(Debug, Default)]
pub struct WalOpen {
    /// Committed records, in append (= LSN) order.
    pub records: Vec<WalRecord<'static>>,
    /// Bytes of torn tail discarded after the last committed record.
    pub torn_bytes: u64,
    /// Whether the header itself was missing or damaged and got rebuilt.
    pub header_rebuilt: bool,
}

/// The write-ahead log file.
#[derive(Debug)]
pub struct Wal {
    file: FaultFile,
    /// Append position (end of the last committed record).
    end: u64,
}

impl Wal {
    /// Opens (creating if absent) the WAL, returning every committed
    /// record and discarding any torn tail.
    pub fn open(
        path: &Path,
        page_size: u32,
        fault: Option<Arc<FaultState>>,
    ) -> std::io::Result<(Wal, WalOpen)> {
        let mut file = FaultFile::open(path, fault)?;
        let len = file.len()?;
        let mut found = WalOpen::default();

        let mut bytes = vec![0u8; len as usize];
        if len > 0 {
            file.read_exact_at(0, &mut bytes)?;
        }
        let header_ok = len >= WAL_HEADER_LEN
            && bytes[0..8] == WAL_MAGIC
            && u32::from_le_bytes(bytes[8..12].try_into().unwrap()) == FORMAT_VERSION;
        if !header_ok {
            found.header_rebuilt = len != 0;
            found.torn_bytes = len;
            let mut wal = Wal { file, end: 0 };
            wal.write_header(page_size)?;
            return Ok((wal, found));
        }

        let mut pos = WAL_HEADER_LEN as usize;
        loop {
            let rest = &bytes[pos..];
            if rest.len() < 12 {
                break;
            }
            let body_len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
            let cs = u64::from_le_bytes(rest[4..12].try_into().unwrap());
            if rest.len() < 12 + body_len {
                break;
            }
            let body = &rest[12..12 + body_len];
            if sum64(&[body]) != cs {
                break;
            }
            let Some(record) = WalRecord::decode_body(body) else {
                break;
            };
            found.records.push(record);
            pos += 12 + body_len;
        }
        found.torn_bytes = len - pos as u64;
        let wal = Wal {
            file,
            end: pos as u64,
        };
        Ok((wal, found))
    }

    /// Empties the log at `path` (creating it if absent) down to a fresh
    /// header: a log of another format version is unreadable, not damaged.
    pub(crate) fn reset(
        path: &Path,
        page_size: u32,
        fault: Option<Arc<FaultState>>,
    ) -> std::io::Result<()> {
        let mut wal = Wal {
            file: FaultFile::open(path, fault)?,
            end: 0,
        };
        wal.write_header(page_size)
    }

    fn write_header(&mut self, page_size: u32) -> std::io::Result<()> {
        let mut h = [0u8; WAL_HEADER_LEN as usize];
        h[0..8].copy_from_slice(&WAL_MAGIC);
        h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        h[12..16].copy_from_slice(&page_size.to_le_bytes());
        self.file.set_len(0)?;
        self.file.write_all_at(0, &h)?;
        self.file.sync()?;
        self.end = WAL_HEADER_LEN;
        Ok(())
    }

    /// Appends and fsyncs one record; on return the record is committed.
    pub fn append(&mut self, record: &WalRecord<'_>) -> std::io::Result<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Appends every record in one write followed by a *single* fsync —
    /// the group-commit primitive: the whole batch shares one commit
    /// point. Each record keeps its own length + checksum frame, so a
    /// crash mid-append commits exactly the undamaged prefix.
    pub fn append_batch(&mut self, records: &[WalRecord<'_>]) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let bodies: Vec<(Vec<u8>, &[u8])> = records.iter().map(WalRecord::encode_parts).collect();
        let total: usize = bodies.iter().map(|(f, p)| 12 + f.len() + p.len()).sum();
        let mut frames = Vec::with_capacity(total);
        for (fields, payload) in &bodies {
            let body_len = (fields.len() + payload.len()) as u32;
            frames.extend_from_slice(&body_len.to_le_bytes());
            frames.extend_from_slice(&sum64(&[fields, payload]).to_le_bytes());
            frames.extend_from_slice(fields);
            frames.extend_from_slice(payload);
        }
        self.file.write_all_at(self.end, &frames)?;
        self.file.sync()?;
        self.end += frames.len() as u64;
        Ok(())
    }

    /// Truncates the log back to its header (the checkpoint tail step; the
    /// page file must already be fsynced).
    pub fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.sync()?;
        self.end = WAL_HEADER_LEN;
        Ok(())
    }

    /// Bytes of committed log (header included).
    pub fn len(&self) -> u64 {
        self.end
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.end <= WAL_HEADER_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "weaver-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn put(lsn: u64, tag: u8, payload: &[u8]) -> WalRecord<'_> {
        WalRecord::Put {
            lsn,
            key: Digest([tag; 32]),
            total_len: payload.len() as u64,
            content: super::super::format::content_digest(payload),
            old_head: 0,
            pages: vec![1, 2, 3],
            payload: Cow::Borrowed(payload),
        }
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let d = dir();
        let path = d.join("store.wal");
        let (mut wal, open) = Wal::open(&path, 256, None).unwrap();
        assert!(open.records.is_empty());
        wal.append(&put(1, 1, b"first")).unwrap();
        wal.append(&put(2, 2, b"second")).unwrap();
        wal.append(&WalRecord::Delete {
            lsn: 3,
            key: Digest([1; 32]),
            head_page: 1,
        })
        .unwrap();
        drop(wal);
        let (_, open) = Wal::open(&path, 256, None).unwrap();
        assert_eq!(open.records.len(), 3);
        assert_eq!(open.records[0], put(1, 1, b"first"));
        assert_eq!(open.records[2].lsn(), 3);
        assert_eq!(open.torn_bytes, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_cut() {
        let d = dir();
        let path = d.join("store.wal");
        let (mut wal, _) = Wal::open(&path, 256, None).unwrap();
        wal.append(&put(1, 1, b"committed")).unwrap();
        wal.append(&put(2, 2, b"doomed record with a longer payload"))
            .unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut the file anywhere inside the second record: exactly one
        // record must survive.
        let first_end = {
            let body_len = u32::from_le_bytes(full[16..20].try_into().unwrap()) as usize;
            16 + 12 + body_len
        };
        for cut in [first_end + 1, first_end + 11, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, open) = Wal::open(&path, 256, None).unwrap();
            assert_eq!(open.records.len(), 1, "cut at {cut}");
            assert_eq!(open.torn_bytes, (cut - first_end) as u64);
        }
        // Flipping a byte inside the second body also drops it.
        let mut flipped = full.clone();
        let idx = first_end + 20;
        flipped[idx] ^= 0xff;
        std::fs::write(&path, &flipped).unwrap();
        let (_, open) = Wal::open(&path, 256, None).unwrap();
        assert_eq!(open.records.len(), 1);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn truncate_resets_to_header_only() {
        let d = dir();
        let path = d.join("store.wal");
        let (mut wal, _) = Wal::open(&path, 256, None).unwrap();
        wal.append(&put(1, 1, b"x")).unwrap();
        assert!(!wal.is_empty());
        wal.truncate().unwrap();
        assert!(wal.is_empty());
        drop(wal);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER_LEN);
        let (_, open) = Wal::open(&path, 256, None).unwrap();
        assert!(open.records.is_empty());
        let _ = std::fs::remove_dir_all(&d);
    }
}
