//! On-disk layout of the paged artifact store.
//!
//! One store is two files in the cache directory:
//!
//! * `store.wvs` — the page file. Page 0 is the header page; pages
//!   `1..page_count` hold artifact payloads as singly-linked chains.
//! * `store.wal` — the write-ahead log (see [`super::wal`]).
//!
//! ## Header page (page 0)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "WVSTORE1"
//!      8     4  format version (little-endian u32, currently 2)
//!     12     4  page size in bytes
//!     16     8  page count (including this header page)
//!     24     8  XXH64 over bytes 0..24
//! ```
//!
//! Format 2 changed only the checksums: the header, data-page and WAL-frame
//! checksums are XXH64 with seed 0 (see [`sum64`]); format 1 used the first
//! 8 bytes of BLAKE2s-256. A store whose header carries the magic but
//! another version opens empty (see [`header_version`]): its artifacts are
//! recompiled, never misread.
//!
//! ## Data pages
//!
//! ```text
//! offset  size  field
//!      0     8  XXH64 over bytes 8..page_size
//!      8     1  state: 0 free · 1 head · 2 continuation
//!      9     4  payload bytes stored in this page
//!     13     8  next page id (0 = end of chain)
//!     21     8  LSN of the record that wrote the page
//! -- head pages only --
//!     29    32  artifact key (BLAKE2s-256 of the compile job)
//!     61     8  total payload length of the chain
//!     69    32  BLAKE2s-256 of the whole payload
//!    104     —  payload
//! -- continuation pages --
//!     32     —  payload
//! ```
//!
//! An all-zero page is *free by construction* (fresh growth is never
//! written), so file extension needs no formatting pass. Any other page
//! whose checksum fails verification is quarantined: counted, reported as
//! a miss, and reclaimed for reuse — never a panic.

use weaver_core::cache::{Blake2s, Digest};

/// Magic bytes opening the page file.
pub const STORE_MAGIC: [u8; 8] = *b"WVSTORE1";
/// Magic bytes opening the WAL.
pub const WAL_MAGIC: [u8; 8] = *b"WVWAL001";
/// On-disk format version of both files (bumped on incompatible changes;
/// 2 switched every checksum from truncated BLAKE2s to XXH64).
pub const FORMAT_VERSION: u32 = 2;
/// Default page size; store files remember their own in the header.
pub const DEFAULT_PAGE_SIZE: u32 = 4096;
/// Smallest supported page size (the head-page header plus one byte).
pub const MIN_PAGE_SIZE: u32 = 128;
/// Byte length of the store-file header (the rest of page 0 is zero).
pub const HEADER_LEN: usize = 32;
/// Byte length of the WAL header.
pub const WAL_HEADER_LEN: u64 = 16;

/// Payload offset inside a head page.
pub const HEAD_PAYLOAD_OFF: usize = 104;
/// Payload offset inside a continuation page.
pub const CONT_PAYLOAD_OFF: usize = 32;

/// Page states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageState {
    /// Unused; reclaimable.
    Free,
    /// First page of an artifact chain; carries key and content digest.
    Head,
    /// Later page of a chain.
    Cont,
}

impl PageState {
    fn from_byte(b: u8) -> Option<PageState> {
        match b {
            0 => Some(PageState::Free),
            1 => Some(PageState::Head),
            2 => Some(PageState::Cont),
            _ => None,
        }
    }

    fn to_byte(self) -> u8 {
        match self {
            PageState::Free => 0,
            PageState::Head => 1,
            PageState::Cont => 2,
        }
    }
}

/// XXH64 (seed 0) of the concatenated `parts` — the page, WAL record and
/// header checksum. The parts are streamed, never joined into one buffer.
/// It guards against torn writes and bit flips; the chain content digest
/// ([`content_digest`]) is the cryptographic end-to-end check.
pub fn sum64(parts: &[&[u8]]) -> u64 {
    let mut h = Xxh64::new();
    for p in parts {
        h.update(p);
    }
    h.finish()
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Streaming XXH64 with seed 0
/// (<https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md>).
struct Xxh64 {
    acc: [u64; 4],
    /// Bytes of the current 32-byte stripe not yet folded into `acc`.
    buf: [u8; 32],
    buf_len: usize,
    total_len: u64,
}

fn lane(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge(acc: u64, lane_acc: u64) -> u64 {
    (acc ^ round(0, lane_acc)).wrapping_mul(P1).wrapping_add(P4)
}

impl Xxh64 {
    fn new() -> Self {
        Xxh64 {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            buf: [0; 32],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn stripe(acc: &mut [u64; 4], stripe: &[u8]) {
        for (a, bytes) in acc.iter_mut().zip(stripe.chunks_exact(8)) {
            *a = round(*a, lane(bytes));
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (32 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 32 {
                return;
            }
            Xxh64::stripe(&mut self.acc, &self.buf);
            self.buf_len = 0;
        }
        let mut stripes = data.chunks_exact(32);
        for stripe in &mut stripes {
            Xxh64::stripe(&mut self.acc, stripe);
        }
        let rest = stripes.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut h = if self.total_len >= 32 {
            let [a, b, c, d] = self.acc;
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            self.acc.iter().fold(h, |h, &a| merge(h, a))
        } else {
            P5
        };
        h = h.wrapping_add(self.total_len);
        let mut rest = &self.buf[..self.buf_len];
        while rest.len() >= 8 {
            h = (h ^ round(0, lane(rest)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let word = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            h = (h ^ u64::from(word).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h = (h ^ u64::from(byte).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// Full BLAKE2s-256 of a payload (the chain content digest, and the only
/// cryptographic pass a put makes over its bytes).
pub fn content_digest(payload: &[u8]) -> Digest {
    let mut h = Blake2s::new();
    h.update(payload);
    h.finalize()
}

/// Renders the store-file header page.
pub fn encode_header(page_size: u32, page_count: u64) -> Vec<u8> {
    let mut page = vec![0u8; page_size as usize];
    page[0..8].copy_from_slice(&STORE_MAGIC);
    page[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    page[12..16].copy_from_slice(&page_size.to_le_bytes());
    page[16..24].copy_from_slice(&page_count.to_le_bytes());
    let cs = sum64(&[&page[0..24]]);
    page[24..32].copy_from_slice(&cs.to_le_bytes());
    page
}

/// Parsed store-file header.
#[derive(Clone, Copy, Debug)]
pub struct Header {
    /// Page size recorded at store creation.
    pub page_size: u32,
    /// Page count at the last checkpoint (advisory — the file length is
    /// authoritative after a crash between growth and checkpoint).
    pub page_count: u64,
}

/// The format version of a page-file header that carries the store magic;
/// `None` when the magic is absent (not a store header, or damaged).
pub fn header_version(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < HEADER_LEN || bytes[0..8] != STORE_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(bytes[8..12].try_into().ok()?))
}

/// Parses and verifies the header; `None` means the header is damaged (or
/// of another format version) and recovery should rebuild it.
pub fn decode_header(bytes: &[u8]) -> Option<Header> {
    if header_version(bytes)? != FORMAT_VERSION {
        return None;
    }
    let page_size = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
    let page_count = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let cs = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
    if cs != sum64(&[&bytes[0..24]]) || page_size < MIN_PAGE_SIZE {
        return None;
    }
    Some(Header {
        page_size,
        page_count,
    })
}

/// Decoded view of one data page.
#[derive(Clone, Debug)]
pub struct PageView {
    /// Page state.
    pub state: PageState,
    /// Payload bytes stored in this page.
    pub payload_len: u32,
    /// Next page of the chain (0 = end).
    pub next: u64,
    /// LSN of the writing record.
    pub lsn: u64,
    /// Head pages: the artifact key.
    pub key: Option<Digest>,
    /// Head pages: total chain payload length.
    pub total_len: u64,
    /// Head pages: BLAKE2s-256 over the whole chain payload.
    pub content: Option<Digest>,
}

/// Payload capacity of a head page.
pub fn head_capacity(page_size: u32) -> usize {
    page_size as usize - HEAD_PAYLOAD_OFF
}

/// Payload capacity of a continuation page.
pub fn cont_capacity(page_size: u32) -> usize {
    page_size as usize - CONT_PAYLOAD_OFF
}

/// Pages needed to hold `len` payload bytes.
pub fn pages_for(len: usize, page_size: u32) -> usize {
    let head = head_capacity(page_size);
    if len <= head {
        1
    } else {
        1 + (len - head).div_ceil(cont_capacity(page_size))
    }
}

fn seal(mut page: Vec<u8>) -> Vec<u8> {
    let cs = sum64(&[&page[8..]]);
    page[0..8].copy_from_slice(&cs.to_le_bytes());
    page
}

/// Renders a head page.
pub fn encode_head(
    page_size: u32,
    key: &Digest,
    total_len: u64,
    content: &Digest,
    payload: &[u8],
    next: u64,
    lsn: u64,
) -> Vec<u8> {
    debug_assert!(payload.len() <= head_capacity(page_size));
    let mut page = vec![0u8; page_size as usize];
    page[8] = PageState::Head.to_byte();
    page[9..13].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    page[13..21].copy_from_slice(&next.to_le_bytes());
    page[21..29].copy_from_slice(&lsn.to_le_bytes());
    page[29..61].copy_from_slice(&key.0);
    page[61..69].copy_from_slice(&total_len.to_le_bytes());
    page[69..101].copy_from_slice(&content.0);
    page[HEAD_PAYLOAD_OFF..HEAD_PAYLOAD_OFF + payload.len()].copy_from_slice(payload);
    seal(page)
}

/// Renders a continuation page.
pub fn encode_cont(page_size: u32, payload: &[u8], next: u64, lsn: u64) -> Vec<u8> {
    debug_assert!(payload.len() <= cont_capacity(page_size));
    let mut page = vec![0u8; page_size as usize];
    page[8] = PageState::Cont.to_byte();
    page[9..13].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    page[13..21].copy_from_slice(&next.to_le_bytes());
    page[21..29].copy_from_slice(&lsn.to_le_bytes());
    page[CONT_PAYLOAD_OFF..CONT_PAYLOAD_OFF + payload.len()].copy_from_slice(payload);
    seal(page)
}

/// Renders an explicitly freed page (deletes rewrite the head this way so
/// the free state survives a checkpointed WAL).
pub fn encode_free(page_size: u32, lsn: u64) -> Vec<u8> {
    let mut page = vec![0u8; page_size as usize];
    page[8] = PageState::Free.to_byte();
    page[21..29].copy_from_slice(&lsn.to_le_bytes());
    seal(page)
}

/// Classification of a raw page during a scan.
#[derive(Clone, Debug)]
pub enum PageScan {
    /// Never written (all zero) — free by construction.
    Blank,
    /// Checksum-valid page.
    Valid(PageView),
    /// Checksum or structure failure — quarantined.
    Corrupt,
}

/// Decodes and verifies one data page.
pub fn decode_page(bytes: &[u8]) -> PageScan {
    if bytes.iter().all(|&b| b == 0) {
        return PageScan::Blank;
    }
    let cs = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes"));
    if cs != sum64(&[&bytes[8..]]) {
        return PageScan::Corrupt;
    }
    let Some(state) = PageState::from_byte(bytes[8]) else {
        return PageScan::Corrupt;
    };
    let payload_len = u32::from_le_bytes(bytes[9..13].try_into().expect("4 bytes"));
    let next = u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes"));
    let lsn = u64::from_le_bytes(bytes[21..29].try_into().expect("8 bytes"));
    let cap = match state {
        PageState::Head => head_capacity(bytes.len() as u32),
        PageState::Cont => cont_capacity(bytes.len() as u32),
        PageState::Free => 0,
    };
    if payload_len as usize > cap {
        return PageScan::Corrupt;
    }
    let (key, total_len, content) = if state == PageState::Head {
        let mut key = [0u8; 32];
        key.copy_from_slice(&bytes[29..61]);
        let total_len = u64::from_le_bytes(bytes[61..69].try_into().expect("8 bytes"));
        let mut content = [0u8; 32];
        content.copy_from_slice(&bytes[69..101]);
        (Some(Digest(key)), total_len, Some(Digest(content)))
    } else {
        (None, 0, None)
    };
    PageScan::Valid(PageView {
        state,
        payload_len,
        next,
        lsn,
        key,
        total_len,
        content,
    })
}

/// The payload slice of a decoded page.
pub fn page_payload<'a>(bytes: &'a [u8], view: &PageView) -> &'a [u8] {
    let off = match view.state {
        PageState::Head => HEAD_PAYLOAD_OFF,
        _ => CONT_PAYLOAD_OFF,
    };
    &bytes[off..off + view.payload_len as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8) -> Digest {
        Digest([tag; 32])
    }

    #[test]
    fn sum64_is_xxh64_with_seed_zero() {
        assert_eq!(sum64(&[b""]), 0xEF46_DB37_51D8_E999);
        assert_eq!(sum64(&[]), 0xEF46_DB37_51D8_E999);
        // Under one stripe: three single bytes after the seed path.
        assert_eq!(sum64(&[b"abc"]), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one 32-byte stripe, a 4-byte word and 3 single bytes
        // (the python-xxhash documentation's example).
        assert_eq!(
            sum64(&[b"Nobody inspects the spammish repetition"]),
            0xFBCE_A83C_8A37_8BF1
        );
        // The 8-byte lane tail: two lanes; a stripe, a lane, a word and a
        // byte; three stripes and a word. The low halves match the content
        // checksum (XXH64's low 32 bits) of a `zstd --check` frame.
        let bytes: Vec<u8> = (0..100u32).map(|i| (i * 31 + 7) as u8).collect();
        assert_eq!(sum64(&[b"0123456789abcdef"]), 0x5C5B_90C3_4E37_6D0B);
        assert_eq!(sum64(&[&bytes[..45]]), 0xAA6A_EB71_98C8_C81C);
        assert_eq!(sum64(&[&bytes]), 0xEFA0_AD2D_3E70_C151);
    }

    #[test]
    fn sum64_streams_parts_like_one_buffer() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in [0usize, 3, 4, 8, 31, 32, 33, 64, 100, 200] {
            let whole = sum64(&[&data[..len]]);
            for a in [0usize, 1, 7, 31, 32, 33] {
                for b in [0usize, 1, 8, 32, 63] {
                    let (a, b) = (a.min(len), (a + b).min(len));
                    assert_eq!(
                        sum64(&[&data[..a], &data[a..b], &data[b..len]]),
                        whole,
                        "len {len}, cuts {a}/{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn header_roundtrips_and_rejects_damage() {
        let page = encode_header(4096, 17);
        let h = decode_header(&page).expect("valid header");
        assert_eq!(h.page_size, 4096);
        assert_eq!(h.page_count, 17);
        let mut bad = page.clone();
        bad[16] ^= 1; // flip a page-count bit
        assert!(decode_header(&bad).is_none());
        assert!(decode_header(&page[..16]).is_none());
    }

    #[test]
    fn pages_roundtrip_and_checksum_catches_flips() {
        let payload = vec![7u8; 100];
        let page = encode_head(
            256,
            &key(1),
            300,
            &content_digest(&payload),
            &payload,
            9,
            42,
        );
        match decode_page(&page) {
            PageScan::Valid(v) => {
                assert_eq!(v.state, PageState::Head);
                assert_eq!(v.payload_len, 100);
                assert_eq!(v.next, 9);
                assert_eq!(v.lsn, 42);
                assert_eq!(v.key, Some(key(1)));
                assert_eq!(v.total_len, 300);
                assert_eq!(page_payload(&page, &v), &payload[..]);
            }
            other => panic!("expected valid page, got {other:?}"),
        }
        for idx in [0, 8, 30, 200] {
            let mut bad = page.clone();
            bad[idx] ^= 0x40;
            assert!(
                matches!(decode_page(&bad), PageScan::Corrupt),
                "flip at {idx} must quarantine"
            );
        }
        assert!(matches!(decode_page(&vec![0u8; 256]), PageScan::Blank));
    }

    #[test]
    fn capacity_math_covers_the_boundaries() {
        assert_eq!(pages_for(0, 256), 1);
        assert_eq!(pages_for(head_capacity(256), 256), 1);
        assert_eq!(pages_for(head_capacity(256) + 1, 256), 2);
        assert_eq!(pages_for(head_capacity(256) + cont_capacity(256), 256), 2);
        assert_eq!(
            pages_for(head_capacity(256) + cont_capacity(256) + 1, 256),
            3
        );
    }
}
