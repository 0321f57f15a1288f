//! On-disk format versioning of the paged store: a directory written by
//! format 1 (BLAKE2s-truncated checksums) opens as an empty format-2 store
//! with one warning — no quarantine, no recovery, no checksum failures —
//! and is fully usable afterwards.

use std::path::PathBuf;
use weaver::core::cache::{Blake2s, Digest};
use weaver::engine::store::{format, Store, StoreTuning, STORE_FILE, WAL_FILE};

const PAGE: usize = 4096;

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("weaver-store-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn blake2s(parts: &[&[u8]]) -> Digest {
    let mut h = Blake2s::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Format 1's checksum: the first 8 bytes of BLAKE2s-256, little-endian.
fn sum64_v1(parts: &[&[u8]]) -> u64 {
    u64::from_le_bytes(blake2s(parts).0[..8].try_into().unwrap())
}

fn warnings_logged() -> u64 {
    weaver::obs::metrics::counter_with(
        "weaver_log_messages_total",
        "Log messages emitted or suppressed, by level.",
        &[("level", "warn")],
    )
    .get()
}

/// Writes a complete format-1 store holding `payload` under `key`: a
/// header page, one head page, and a WAL with the committed put record.
fn write_format_1_store(dir: &std::path::Path, key: &Digest, payload: &[u8]) {
    let content = blake2s(&[payload]);

    let mut header = vec![0u8; PAGE];
    header[0..8].copy_from_slice(b"WVSTORE1");
    header[8..12].copy_from_slice(&1u32.to_le_bytes());
    header[12..16].copy_from_slice(&(PAGE as u32).to_le_bytes());
    header[16..24].copy_from_slice(&2u64.to_le_bytes());
    let cs = sum64_v1(&[&header[0..24]]);
    header[24..32].copy_from_slice(&cs.to_le_bytes());

    let mut head = vec![0u8; PAGE];
    head[8] = 1; // head page
    head[9..13].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[21..29].copy_from_slice(&1u64.to_le_bytes()); // LSN
    head[29..61].copy_from_slice(&key.0);
    head[61..69].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    head[69..101].copy_from_slice(&content.0);
    head[104..104 + payload.len()].copy_from_slice(payload);
    let cs = sum64_v1(&[&head[8..]]);
    head[0..8].copy_from_slice(&cs.to_le_bytes());

    let mut store = header;
    store.extend_from_slice(&head);
    std::fs::write(dir.join(STORE_FILE), &store).unwrap();

    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // LSN
    body.push(1); // put
    body.extend_from_slice(&key.0);
    body.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    body.extend_from_slice(&content.0);
    body.extend_from_slice(&0u64.to_le_bytes()); // old head
    body.extend_from_slice(&1u32.to_le_bytes()); // one page
    body.extend_from_slice(&1u64.to_le_bytes()); // page 1
    body.extend_from_slice(payload);
    let mut wal = Vec::new();
    wal.extend_from_slice(b"WVWAL001");
    wal.extend_from_slice(&1u32.to_le_bytes());
    wal.extend_from_slice(&(PAGE as u32).to_le_bytes());
    wal.extend_from_slice(&(body.len() as u32).to_le_bytes());
    wal.extend_from_slice(&sum64_v1(&[&body]).to_le_bytes());
    wal.extend_from_slice(&body);
    std::fs::write(dir.join(WAL_FILE), &wal).unwrap();
}

#[test]
fn a_format_1_store_opens_empty_and_stays_usable() {
    let d = dir("v1");
    let old_key = Digest([0x11; 32]);
    write_format_1_store(&d, &old_key, b"an artifact written by format 1");

    let warnings_before = warnings_logged();
    let mut store = Store::open(&d, StoreTuning::default()).unwrap();
    assert_eq!(warnings_logged() - warnings_before, 1, "one warning");
    assert_eq!(store.len(), 0);
    let recovery = store.recovery();
    assert!(!recovery.recovered(), "{recovery:?}");
    let stats = store.stats();
    assert_eq!(stats.checksum_failures, 0);
    assert_eq!(stats.recoveries, 0);
    assert_eq!(stats.page_count, 1, "only the new header page");
    assert_eq!(store.get(&old_key).unwrap(), None);

    // Both files were rewritten as format 2.
    let header = std::fs::read(d.join(STORE_FILE)).unwrap();
    assert_eq!(
        format::header_version(&header),
        Some(format::FORMAT_VERSION)
    );
    let wal = std::fs::read(d.join(WAL_FILE)).unwrap();
    assert_eq!(wal.len() as u64, format::WAL_HEADER_LEN);
    assert_eq!(wal[8..12], format::FORMAT_VERSION.to_le_bytes());

    // Put, get and reopen work as on a fresh store.
    let key = Digest([0x22; 32]);
    let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    store.put(&key, &payload).unwrap();
    store.put(&old_key, b"recompiled").unwrap();
    assert_eq!(store.get(&key).unwrap().as_deref(), Some(&payload[..]));
    drop(store);

    let warnings_before = warnings_logged();
    let mut store = Store::open(&d, StoreTuning::default()).unwrap();
    assert_eq!(
        warnings_logged(),
        warnings_before,
        "a format-2 store opens quietly"
    );
    assert_eq!(store.len(), 2);
    assert_eq!(store.get(&key).unwrap().as_deref(), Some(&payload[..]));
    assert_eq!(
        store.get(&old_key).unwrap().as_deref(),
        Some(&b"recompiled"[..])
    );
    assert!(store.verify().unwrap().consistent());
    assert_eq!(store.stats().checksum_failures, 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&d);
}
