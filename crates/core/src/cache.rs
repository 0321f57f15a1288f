//! Content hashing for `weaver-engine`'s artifact cache, the only cache:
//! [`Blake2s`] / [`Digest`] / [`Fingerprint`] are a dependency-free
//! BLAKE2s-256 implementation that content-addresses compilation artifacts
//! (canonical formula ⊕ target parameters ⊕ options ⊕ [`COMPILER_VERSION`]).

use std::fmt;

/// Compiler version folded into every artifact key, so a new release never
/// serves artifacts produced by an old one. The `+r` revision moves when a
/// change within one crate version alters artifact bytes or metrics
/// (`r1`: simulator EPS from the clause-score table, which moves its last
/// bits).
pub const COMPILER_VERSION: &str = concat!(env!("CARGO_PKG_VERSION"), "+r1");

// ---------------------------------------------------------------------------
// BLAKE2s-256
// ---------------------------------------------------------------------------

/// A 256-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex rendering (cache file names, JSONL records).
    pub fn to_hex(self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(char::from(NIBBLES[usize::from(b >> 4)]));
            s.push(char::from(NIBBLES[usize::from(b & 0xf)]));
        }
        s
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

const IV: [u32; 8] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Streaming BLAKE2s-256 hasher (RFC 7693, unkeyed, sequential mode).
#[derive(Clone)]
pub struct Blake2s {
    h: [u32; 8],
    t: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Blake2s {
    /// A fresh hasher.
    pub fn new() -> Self {
        let mut h = IV;
        // Parameter block: digest_length = 32, key_length = 0, fanout = 1,
        // depth = 1.
        h[0] ^= 0x0101_0020;
        Blake2s {
            h,
            t: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        // Only compress a block once more input follows it: the final block
        // must be compressed with the last-block flag, so it stays buffered.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if data.is_empty() {
                return;
            }
            self.t += 64;
            compress(&mut self.h, self.t, &self.buf, false);
            self.buf_len = 0;
        }
        while data.len() > 64 {
            let (block, rest) = data.split_at(64);
            self.t += 64;
            compress(
                &mut self.h,
                self.t,
                block.try_into().expect("64 bytes"),
                false,
            );
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> Digest {
        self.t += self.buf_len as u64;
        self.buf[self.buf_len..].fill(0);
        compress(&mut self.h, self.t, &self.buf, true);
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
        }
        Digest(out)
    }
}

/// The BLAKE2s compression function `F`: ten rounds, each indexing the
/// message words through a constant `SIGMA` row, so every word index is
/// known at compile time.
#[inline(always)]
fn compress(h: &mut [u32; 8], t: u64, block: &[u8; 64], last: bool) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let mut v = [0u32; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u32;
    v[13] ^= (t >> 32) as u32;
    if last {
        v[14] = !v[14];
    }
    macro_rules! g {
        ($a:literal, $b:literal, $c:literal, $d:literal, $x:expr, $y:expr) => {
            v[$a] = v[$a].wrapping_add(v[$b]).wrapping_add($x);
            v[$d] = (v[$d] ^ v[$a]).rotate_right(16);
            v[$c] = v[$c].wrapping_add(v[$d]);
            v[$b] = (v[$b] ^ v[$c]).rotate_right(12);
            v[$a] = v[$a].wrapping_add(v[$b]).wrapping_add($y);
            v[$d] = (v[$d] ^ v[$a]).rotate_right(8);
            v[$c] = v[$c].wrapping_add(v[$d]);
            v[$b] = (v[$b] ^ v[$c]).rotate_right(7);
        };
    }
    macro_rules! round {
        ($r:literal) => {{
            const S: [usize; 16] = SIGMA[$r];
            g!(0, 4, 8, 12, m[S[0]], m[S[1]]);
            g!(1, 5, 9, 13, m[S[2]], m[S[3]]);
            g!(2, 6, 10, 14, m[S[4]], m[S[5]]);
            g!(3, 7, 11, 15, m[S[6]], m[S[7]]);
            g!(0, 5, 10, 15, m[S[8]], m[S[9]]);
            g!(1, 6, 11, 12, m[S[10]], m[S[11]]);
            g!(2, 7, 8, 13, m[S[12]], m[S[13]]);
            g!(3, 4, 9, 14, m[S[14]], m[S[15]]);
        }};
    }
    round!(0);
    round!(1);
    round!(2);
    round!(3);
    round!(4);
    round!(5);
    round!(6);
    round!(7);
    round!(8);
    round!(9);
    for i in 0..8 {
        h[i] ^= v[i] ^ v[i + 8];
    }
}

impl Default for Blake2s {
    fn default() -> Self {
        Blake2s::new()
    }
}

/// A typed writer over [`Blake2s`] for building structured cache keys.
/// Every field write is length- or tag-framed, so adjacent variable-length
/// fields cannot collide by concatenation.
#[derive(Clone, Default)]
pub struct Fingerprint {
    hasher: Blake2s,
}

impl Fingerprint {
    /// A fresh fingerprint builder.
    pub fn new() -> Self {
        Fingerprint::default()
    }

    /// Writes a domain-separation / variant tag.
    pub fn tag(&mut self, t: u8) -> &mut Self {
        self.hasher.update(&[t]);
        self
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.hasher.update(&v.to_le_bytes());
        self
    }

    /// Writes a `usize` (as `u64`, portable across word sizes).
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Writes an `f64` by bit pattern (distinguishes `-0.0` from `0.0`,
    /// which is exactly what byte-identical artifacts need).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Writes a boolean.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.tag(v as u8)
    }

    /// Writes a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len());
        self.hasher.update(s.as_bytes());
        self
    }

    /// Writes length-prefixed raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.usize(b.len());
        self.hasher.update(b);
        self
    }

    /// Finishes the key.
    pub fn digest(self) -> Digest {
        self.hasher.finalize()
    }
}

/// A unit type with no state, kept only so callers of the two deprecated
/// forwards ([`crate::Weaver::compile_workload_cached`],
/// [`crate::Weaver::verify_workload`]) still compile. Nothing reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheHandle;

/// Hashes the full parameter set of an FPQA backend into `fp` — every field
/// that can influence compilation or checking.
pub fn fingerprint_fpqa_params(fp: &mut Fingerprint, p: &weaver_fpqa::FpqaParams) {
    fp.tag(0xF0);
    fp.f64(p.min_trap_distance)
        .f64(p.rydberg_radius)
        .f64(p.max_transfer_distance)
        .f64(p.movement_speed)
        .f64(p.shuttle_overhead)
        .f64(p.raman_local_duration)
        .f64(p.raman_global_duration)
        .f64(p.rydberg_duration)
        .f64(p.transfer_duration)
        .f64(p.fidelity_1q)
        .f64(p.fidelity_cz)
        .f64(p.fidelity_ccz)
        .f64(p.fidelity_transfer)
        .f64(p.movement_loss_per_um)
        .f64(p.t2_coherence);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(data: &[u8]) -> String {
        let mut h = Blake2s::new();
        h.update(data);
        h.finalize().to_hex()
    }

    #[test]
    fn to_hex_writes_every_byte_as_format_does() {
        for b in 0..=255u8 {
            let hex = Digest([b; 32]).to_hex();
            assert_eq!(hex, format!("{b:02x}").repeat(32), "byte {b}");
        }
        let mut ramp = [0u8; 32];
        for (i, v) in ramp.iter_mut().enumerate() {
            *v = (i * 37 + 5) as u8;
        }
        let expected: String = ramp.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(Digest(ramp).to_hex(), expected);
    }

    #[test]
    fn blake2s_rfc7693_vectors() {
        // RFC 7693 appendix B ("abc") and the standard empty-input vector.
        assert_eq!(
            hex(b"abc"),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
        assert_eq!(
            hex(b""),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn blake2s_streaming_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let oneshot = hex(&data);
        for chunk in [1usize, 3, 63, 64, 65, 127, 997] {
            let mut h = Blake2s::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize().to_hex(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn blake2s_block_edge_splits_match_oneshot() {
        // Splits at 1, 63, 64, 65 and 127 bytes drive every path of
        // `update`: a partial buffer topped up, a full buffer held back as
        // the possible last block, and whole blocks compressed straight
        // from the input.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let splits = [1usize, 63, 64, 65, 127];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 192, 300] {
            let oneshot = hex(&data[..len]);
            for a in splits {
                for b in splits {
                    let (a, b) = (a.min(len), (a + b).min(len));
                    let mut h = Blake2s::new();
                    h.update(&data[..a]);
                    h.update(&data[a..b]);
                    h.update(&data[b..len]);
                    assert_eq!(h.finalize().to_hex(), oneshot, "len {len}, cuts {a}/{b}");
                }
            }
        }
        // Multi-block known answers (Python `hashlib.blake2s`).
        assert_eq!(
            hex(&data[..129]),
            "26fd8892ab0a5f12d4acbff1efd7dcd92b99e2d377f888f07e3cb81b232b11cf"
        );
        let cycle: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        assert_eq!(
            hex(&cycle),
            "b5f9d7799111edafc9326fbf667be98140b5e20ce5e151793c59125bf654ac18"
        );
    }

    #[test]
    fn fingerprint_framing_prevents_concat_collisions() {
        let mut a = Fingerprint::new();
        a.str("ab").str("c");
        let mut b = Fingerprint::new();
        b.str("a").str("bc");
        assert_ne!(a.digest(), b.digest());
    }
}
