//! Stride-based gate-application kernels.
//!
//! A crate-internal `Kernel` is a gate classified once and bound to its bit
//! positions, so it can run over any number of buffers.
//! [`State::apply`](crate::State::apply) builds one kernel per gate
//! application (the crate-internal `apply_gate`);
//! [`UnitaryBuilder::finish`](crate::UnitaryBuilder::finish) builds a whole
//! plan of them once and runs it block by block. The allocation-free
//! closed forms are:
//!
//! * **1-qubit** gates run a butterfly over amplitude pairs `(i, i + 2^b)`,
//! * **2-qubit** gates run a 4-way butterfly over the four strided indices of
//!   each group,
//! * **(multi-)controlled 1-qubit** gates (`CX`, `CZ`, `CCZ`, `CⁿZ`, `CRZ`,
//!   …) touch only the half-space where every control bit is set,
//! * a **phase table** (diagonal) or **permutation-plus-phase table** over
//!   the low `n` index bits applies a fused run of monomial gates in one
//!   pass (only the `UnitaryBuilder` plan emits these),
//! * everything else falls back to a generic gather/scatter with per-group
//!   offsets hoisted out of the inner loop.
//!
//! All kernels operate on a raw amplitude slice plus bit positions, so the
//! same code serves a `2ⁿ`-amplitude state vector and a block of several
//! `2ⁿ`-amplitude vectors laid end to end (the extra high index bits are
//! left untouched). `apply_gate` splits buffers with at least
//! [`PAR_MIN_AMPLITUDES`] entries into self-contained aligned chunks and
//! processes them with scoped threads.

use crate::{Complex, Matrix};

/// Minimum amplitude count before a single gate application fans out
/// across threads.
///
/// `2^16` amplitudes correspond to a 16-qubit register; below that the
/// per-thread spawn cost dominates. (The `UnitaryBuilder` does not use this
/// threshold: it splits its row blocks across threads once per build.)
pub const PAR_MIN_AMPLITUDES: usize = 1 << 16;

/// A gate bound to its bit positions, classified once for dispatch.
///
/// Bit positions count from the LSB of the buffer index; for a `k`-qubit
/// gate the first listed bit is the most significant bit of the gate's own
/// index space.
pub(crate) enum Kernel {
    /// Arbitrary 2×2 gate (row-major) on one bit.
    OneQ { bit: usize, m: [Complex; 4] },
    /// Arbitrary 4×4 gate (row-major); `b0` carries the gate's most
    /// significant target.
    TwoQ {
        b0: usize,
        b1: usize,
        m: Box<[Complex; 16]>,
    },
    /// Identity except the bottom-right 2×2 block `m`: a 1-qubit gate on
    /// `tbit` under the control bits in `cmask`.
    Controlled {
        cmask: usize,
        tbit: usize,
        m: [Complex; 4],
    },
    /// No specialized shape: the gather/scatter fallback over the
    /// row-major `gate`.
    Generic {
        gate: Vec<Complex>,
        sorted_bits: Vec<usize>,
        offsets: Vec<usize>,
    },
    /// Every aligned run of `phase.len()` amplitudes is scaled entry-wise
    /// by `phase`.
    Diagonal { phase: Vec<Complex> },
    /// Within every aligned run of `phase.len()` amplitudes,
    /// `out[y] = phase[y] · in[src[y]]`.
    Permutation {
        src: Vec<usize>,
        phase: Vec<Complex>,
    },
}

impl Kernel {
    /// Classifies `gate` (a `2^k × 2^k` matrix) acting on `bits`.
    pub(crate) fn for_gate(gate: &Matrix, bits: &[usize]) -> Kernel {
        let k = bits.len();
        let controlled = |m: [Complex; 4]| Kernel::Controlled {
            cmask: bits[..k - 1].iter().map(|&b| 1usize << b).sum(),
            tbit: bits[k - 1],
            m,
        };
        let generic = || {
            let mut sorted_bits = bits.to_vec();
            sorted_bits.sort_unstable();
            Kernel::Generic {
                gate: gate.as_slice().to_vec(),
                sorted_bits,
                offsets: group_offsets(bits),
            }
        };
        match k {
            0 => generic(), // a 1×1 global-phase "gate"
            1 => {
                let g = gate.as_slice();
                Kernel::OneQ {
                    bit: bits[0],
                    m: [g[0], g[1], g[2], g[3]],
                }
            }
            2 => match controlled_block(gate) {
                Some(block) => controlled(block),
                None => {
                    let mut m = [Complex::ZERO; 16];
                    m.copy_from_slice(gate.as_slice());
                    Kernel::TwoQ {
                        b0: bits[0],
                        b1: bits[1],
                        m: Box::new(m),
                    }
                }
            },
            _ => controlled_block(gate).map_or_else(generic, controlled),
        }
    }

    /// A permutation-plus-phase table over the low index bits (see
    /// [`Kernel::Permutation`]); an identity `src` becomes a
    /// [`Kernel::Diagonal`].
    pub(crate) fn phase_table(src: Vec<usize>, phase: Vec<Complex>) -> Kernel {
        debug_assert_eq!(src.len(), phase.len());
        if src.iter().enumerate().all(|(y, &x)| x == y) {
            Kernel::Diagonal { phase }
        } else {
            Kernel::Permutation { src, phase }
        }
    }

    /// Applies the kernel to `amps` on the calling thread. `scratch` is
    /// working space the caller may reuse across calls.
    pub(crate) fn run(&self, amps: &mut [Complex], scratch: &mut Vec<Complex>) {
        match self {
            Kernel::OneQ { bit, m } => kernel_1q(amps, *bit, m),
            Kernel::TwoQ { b0, b1, m } => kernel_2q(amps, *b0, *b1, m),
            Kernel::Controlled { cmask, tbit, m } => kernel_controlled(amps, *cmask, *tbit, m),
            Kernel::Generic {
                gate,
                sorted_bits,
                offsets,
            } => {
                scratch.clear();
                scratch.resize(offsets.len(), Complex::ZERO);
                kernel_generic(amps, sorted_bits, offsets, gate, scratch);
            }
            Kernel::Diagonal { phase } => kernel_diagonal(amps, phase),
            Kernel::Permutation { src, phase } => {
                for run in amps.chunks_exact_mut(phase.len()) {
                    scratch.clear();
                    scratch.extend_from_slice(run);
                    for ((a, &s), &p) in run.iter_mut().zip(src).zip(phase) {
                        *a = p * scratch[s];
                    }
                }
            }
        }
    }
}

/// If `gate` is the identity everywhere except its bottom-right 2×2 block,
/// returns that block. Entries are compared exactly: standard controlled
/// gates are constructed from literal `0.0`/`1.0` entries, and a near-miss
/// simply falls back to the (always correct) generic path.
fn controlled_block(gate: &Matrix) -> Option<[Complex; 4]> {
    let gdim = gate.rows();
    debug_assert!(gdim >= 4);
    let body = gdim - 2;
    for r in 0..gdim {
        for c in 0..gdim {
            if r >= body && c >= body {
                continue; // the candidate block itself is unconstrained
            }
            let expect = if r == c { Complex::ONE } else { Complex::ZERO };
            if gate[(r, c)] != expect {
                return None;
            }
        }
    }
    Some([
        gate[(body, body)],
        gate[(body, body + 1)],
        gate[(body + 1, body)],
        gate[(body + 1, body + 1)],
    ])
}

/// If `gate` has exactly one nonzero entry in every row and column (a
/// permutation times a diagonal: `Z`, `S`, `T`, `RZ`, `P`, `X`, `CX`, `CZ`,
/// `CCX`, `CCZ`, `CⁿZ`, `CRZ`, `SWAP`, …), returns for each column `x` the
/// row of its nonzero and that entry, so `gate·|x⟩ = entry·|row⟩`. Zeros
/// are tested exactly, as in `controlled_block`: an entry that is only
/// numerically zero (`RX(π)`'s ~6e-17 diagonal) keeps a gate dense.
pub(crate) fn monomial(gate: &Matrix) -> Option<Vec<(usize, Complex)>> {
    let gdim = gate.rows();
    let mut row_used = vec![false; gdim];
    let mut image = Vec::with_capacity(gdim);
    for c in 0..gdim {
        let mut nonzero = (0..gdim).filter(|&r| gate[(r, c)] != Complex::ZERO);
        let r = nonzero.next()?;
        if nonzero.next().is_some() || std::mem::replace(&mut row_used[r], true) {
            return None;
        }
        image.push((r, gate[(r, c)]));
    }
    Some(image)
}

/// Validates a gate/target combination against a register width; shared by
/// `State::apply` and `UnitaryBuilder::apply`.
///
/// # Panics
///
/// Panics if the matrix shape does not match the target count, if a target
/// repeats, or if a target is out of range.
pub(crate) fn validate_targets(num_qubits: usize, gate: &Matrix, targets: &[usize]) {
    let gdim = 1usize << targets.len();
    assert_eq!(gate.rows(), gdim, "gate matrix must be 2^k x 2^k");
    assert_eq!(gate.cols(), gdim, "gate matrix must be 2^k x 2^k");
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < num_qubits, "target qubit {t} out of range");
        assert!(
            !targets[..i].contains(&t),
            "duplicate target qubit {t} in gate application"
        );
    }
}

/// Applies `gate` to `amps` in place. `bits[i]` is the bit position (from
/// LSB) of the gate's `i`-th target in the buffer index; `bits[0]` is the
/// most significant bit of the gate's own index space. `amps.len()` must be
/// a power of two with every bit position in range.
pub(crate) fn apply_gate(amps: &mut [Complex], gate: &Matrix, bits: &[usize]) {
    debug_assert!(amps.len().is_power_of_two());
    debug_assert!(bits
        .iter()
        .all(|&b| (1usize << b) < amps.len() || amps.len() == 1));
    // Smallest aligned block size that contains whole gate groups; chunks of
    // this granularity can be processed independently.
    let unit = 1usize << bits.iter().map(|&b| b + 1).max().unwrap_or(0);
    let threads = plan_threads(amps.len(), unit);
    let kernel = Kernel::for_gate(gate, bits);
    // One scratch per chunk (i.e. per thread), not per group.
    run_chunked(amps, unit, threads, &|chunk| {
        kernel.run(chunk, &mut Vec::new())
    });
}

/// Number of worker threads for a buffer of `len` amplitudes split at `unit`
/// granularity: 1 below the size threshold or when the machine/layout offers
/// no parallelism.
fn plan_threads(len: usize, unit: usize) -> usize {
    if len < PAR_MIN_AMPLITUDES {
        return 1;
    }
    let chunks = len / unit;
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(chunks.max(1))
}

/// Runs `f` over `amps` split into `threads` contiguous pieces, each a
/// multiple of `unit` so no gate group straddles a piece boundary.
fn run_chunked(
    amps: &mut [Complex],
    unit: usize,
    threads: usize,
    f: &(dyn Fn(&mut [Complex]) + Sync),
) {
    let chunks = amps.len() / unit;
    if threads <= 1 || chunks < 2 {
        f(amps);
        return;
    }
    let per = chunks.div_ceil(threads) * unit;
    std::thread::scope(|s| {
        for piece in amps.chunks_mut(per) {
            s.spawn(move || f(piece));
        }
    });
}

/// Widest SIMD tier the running x86-64 CPU supports: 2 for AVX-512F, 1 for
/// AVX2+FMA, 0 for baseline.
#[cfg(target_arch = "x86_64")]
fn simd_level() -> u8 {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<u8> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if is_x86_feature_detected!("avx512f") {
            2
        } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            1
        } else {
            0
        }
    })
}

/// Declares `$name` as a dispatcher over `$body`: on x86-64 it calls an
/// AVX-512F or AVX2+FMA `#[target_feature]` clone when the CPU supports one
/// (the `#[inline(always)]` body is re-codegenned with vector
/// instructions), otherwise the portable scalar build.
macro_rules! simd_kernel {
    ($(#[$doc:meta])* $name:ident / $avx:ident / $avx512:ident =>
     $body:ident ( $($arg:ident : $ty:ty),* $(,)? )) => {
        $(#[$doc])*
        fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: each clone is entered only after its features were
            // detected on the running CPU.
            match simd_level() {
                2 => return unsafe { $avx512($($arg),*) },
                1 => return unsafe { $avx($($arg),*) },
                _ => {}
            }
            $body($($arg),*);
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2", enable = "fma")]
        unsafe fn $avx($($arg: $ty),*) {
            $body($($arg),*);
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f", enable = "fma")]
        unsafe fn $avx512($($arg: $ty),*) {
            $body($($arg),*);
        }
    };
}

simd_kernel! {
    /// Butterfly for an arbitrary 1-qubit gate on bit position `bit`.
    kernel_1q / kernel_1q_avx / kernel_1q_avx512 => kernel_1q_body(amps: &mut [Complex], bit: usize, m: &[Complex; 4])
}

simd_kernel! {
    /// 4-way butterfly for an arbitrary 2-qubit gate. `b0` is the bit
    /// position of the gate's most significant target, `b1` of its least
    /// significant.
    kernel_2q / kernel_2q_avx / kernel_2q_avx512 => kernel_2q_body(
        amps: &mut [Complex],
        b0: usize,
        b1: usize,
        m: &[Complex; 16],
    )
}

simd_kernel! {
    /// Multi-controlled 1-qubit gate: applies the 2×2 block `m` to the
    /// target bit only where every bit of `cmask` is set, enumerating
    /// exactly the `len >> (1 + |controls|)` affected pairs.
    kernel_controlled / kernel_controlled_avx / kernel_controlled_avx512 => kernel_controlled_body(
        amps: &mut [Complex],
        cmask: usize,
        tbit: usize,
        m: &[Complex; 4],
    )
}

simd_kernel! {
    /// Phase table: scales every aligned run of `phase.len()` amplitudes
    /// entry-wise by `phase`.
    kernel_diagonal / kernel_diagonal_avx / kernel_diagonal_avx512 => kernel_diagonal_body(
        amps: &mut [Complex],
        phase: &[Complex],
    )
}

/// Scalar 1-qubit butterfly. The complex products are spelled out over
/// `f64` components so the compiler can interleave the four dot products
/// instead of chaining `Complex` ops.
#[inline(always)]
fn kernel_1q_body(amps: &mut [Complex], bit: usize, m: &[Complex; 4]) {
    let (m00r, m00i) = (m[0].re, m[0].im);
    let (m01r, m01i) = (m[1].re, m[1].im);
    let (m10r, m10i) = (m[2].re, m[2].im);
    let (m11r, m11i) = (m[3].re, m[3].im);
    let stride = 1usize << bit;
    for block in amps.chunks_exact_mut(2 * stride) {
        let (lo, hi) = block.split_at_mut(stride);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (xr, xi) = (a.re, a.im);
            let (yr, yi) = (b.re, b.im);
            a.re = m00r * xr - m00i * xi + m01r * yr - m01i * yi;
            a.im = m00r * xi + m00i * xr + m01r * yi + m01i * yr;
            b.re = m10r * xr - m10i * xi + m11r * yr - m11i * yi;
            b.im = m10r * xi + m10i * xr + m11r * yi + m11i * yr;
        }
    }
}

/// Scalar 4-way butterfly for an arbitrary 2-qubit gate.
#[inline(always)]
fn kernel_2q_body(amps: &mut [Complex], b0: usize, b1: usize, m: &[Complex; 16]) {
    let s0 = 1usize << b0;
    let s1 = 1usize << b1;
    let (hi, lo) = (s0.max(s1), s0.min(s1));
    let mut outer = 0;
    while outer < amps.len() {
        let mut mid = outer;
        while mid < outer + hi {
            for base in mid..mid + lo {
                let i01 = base | s1;
                let i10 = base | s0;
                let i11 = i10 | s1;
                let a00 = amps[base];
                let a01 = amps[i01];
                let a10 = amps[i10];
                let a11 = amps[i11];
                amps[base] = m[0] * a00 + m[1] * a01 + m[2] * a10 + m[3] * a11;
                amps[i01] = m[4] * a00 + m[5] * a01 + m[6] * a10 + m[7] * a11;
                amps[i10] = m[8] * a00 + m[9] * a01 + m[10] * a10 + m[11] * a11;
                amps[i11] = m[12] * a00 + m[13] * a01 + m[14] * a10 + m[15] * a11;
            }
            mid += 2 * lo;
        }
        outer += 2 * hi;
    }
}

/// Scalar multi-controlled 1-qubit kernel.
#[inline(always)]
fn kernel_controlled_body(amps: &mut [Complex], cmask: usize, tbit: usize, m: &[Complex; 4]) {
    let stride = 1usize << tbit;
    let fixed = cmask | stride;
    let fixed_count = fixed.count_ones() as usize;
    // Ascending positions of the fixed (control + target) bits.
    let mut positions = [0usize; usize::BITS as usize];
    let mut npos = 0;
    let mut rest = fixed;
    while rest != 0 {
        positions[npos] = rest.trailing_zeros() as usize;
        npos += 1;
        rest &= rest - 1;
    }
    let groups = amps.len() >> fixed_count;
    for g in 0..groups {
        // Spread the free bits of `g` around the fixed positions.
        let mut idx = g;
        for &b in &positions[..npos] {
            let low = idx & ((1usize << b) - 1);
            idx = ((idx >> b) << (b + 1)) | low;
        }
        let i0 = idx | cmask;
        let i1 = i0 | stride;
        let x = amps[i0];
        let y = amps[i1];
        amps[i0] = m[0] * x + m[1] * y;
        amps[i1] = m[2] * x + m[3] * y;
    }
}

/// Scalar phase-table kernel.
#[inline(always)]
fn kernel_diagonal_body(amps: &mut [Complex], phase: &[Complex]) {
    for run in amps.chunks_exact_mut(phase.len()) {
        for (a, p) in run.iter_mut().zip(phase) {
            let (xr, xi) = (a.re, a.im);
            a.re = p.re * xr - p.im * xi;
            a.im = p.re * xi + p.im * xr;
        }
    }
}

/// Buffer-index offset of each gate-index within a group: `offsets[g]` ORs
/// the stride of every target whose gate-space bit is set in `g`.
fn group_offsets(bits: &[usize]) -> Vec<usize> {
    let k = bits.len();
    (0..1usize << k)
        .map(|g| {
            let mut off = 0usize;
            for (pos, &b) in bits.iter().enumerate() {
                if (g >> (k - 1 - pos)) & 1 == 1 {
                    off |= 1usize << b;
                }
            }
            off
        })
        .collect()
}

/// Generic gather/scatter fallback with hoisted offsets: one compressed
/// index enumerates the non-target bits, `offsets` locates the group's
/// amplitudes, and `scratch` (allocated once per thread) holds the gathered
/// input while rows are scattered back.
fn kernel_generic(
    amps: &mut [Complex],
    sorted_bits: &[usize],
    offsets: &[usize],
    g: &[Complex],
    scratch: &mut [Complex],
) {
    let k = sorted_bits.len();
    let gdim = offsets.len();
    let groups = amps.len() >> k;
    for group in 0..groups {
        // Expand the compressed index by inserting a zero at each target bit.
        let mut base = group;
        for &b in sorted_bits {
            let low = base & ((1usize << b) - 1);
            base = ((base >> b) << (b + 1)) | low;
        }
        for (slot, &off) in scratch.iter_mut().zip(offsets) {
            *slot = amps[base + off];
        }
        for (r, &off) in offsets.iter().enumerate() {
            let row = &g[r * gdim..(r + 1) * gdim];
            let mut acc = Complex::ZERO;
            for (&w, &x) in row.iter().zip(scratch.iter()) {
                acc += w * x;
            }
            amps[base + off] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    /// Deterministic non-trivial amplitude buffer (not normalized; the
    /// kernels are linear maps and do not care).
    fn test_amps(len: usize) -> Vec<Complex> {
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let re = ((state >> 40) as f64) / (1u64 << 24) as f64 - 0.5;
                let im = ((state >> 16) as f64 % (1u64 << 24) as f64) / (1u64 << 24) as f64 - 0.5;
                Complex::new(re, im)
            })
            .collect()
    }

    fn max_diff(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn controlled_detection() {
        assert!(controlled_block(&gates::cx()).is_some());
        assert!(controlled_block(&gates::cz()).is_some());
        assert!(controlled_block(&gates::ccz()).is_some());
        assert!(controlled_block(&gates::ccx()).is_some());
        assert!(controlled_block(&gates::cnz(4)).is_some());
        assert!(controlled_block(&gates::crz(0.3)).is_some());
        assert!(controlled_block(&gates::swap()).is_none());
        let block = controlled_block(&gates::cz()).unwrap();
        assert_eq!(
            block,
            [Complex::ONE, Complex::ZERO, Complex::ZERO, -Complex::ONE]
        );
    }

    #[test]
    fn monomial_detection() {
        for gate in [
            gates::z(),
            gates::rz(0.3),
            gates::x(),
            gates::cx(),
            gates::swap(),
            gates::crz(0.3),
            gates::ccx(),
            gates::cnz(3),
        ] {
            assert!(monomial(&gate).is_some());
        }
        assert_eq!(
            monomial(&gates::cx()).unwrap(),
            [
                (0, Complex::ONE),
                (1, Complex::ONE),
                (3, Complex::ONE),
                (2, Complex::ONE)
            ]
        );
        // RX(π) = -i·X, but its diagonal is cos(π/2) ≈ 6e-17, not 0.
        assert!(monomial(&gates::rx(std::f64::consts::PI)).is_none());
        assert!(monomial(&gates::h()).is_none());
    }

    #[test]
    fn forced_multithread_chunking_matches_serial() {
        // One physical core is enough: run_chunked takes the thread count
        // explicitly, so this exercises the real scoped-thread path.
        let bits = [3usize, 0];
        let gate = gates::swap();
        let mut m = [Complex::ZERO; 16];
        m.copy_from_slice(gate.as_slice());
        let unit = 1usize << 4;

        let mut serial = test_amps(1 << 10);
        let mut parallel = serial.clone();
        kernel_2q(&mut serial, bits[0], bits[1], &m);
        run_chunked(&mut parallel, unit, 4, &|chunk| {
            kernel_2q(chunk, bits[0], bits[1], &m)
        });
        assert!(max_diff(&serial, &parallel) == 0.0);
    }

    #[test]
    fn forced_multithread_controlled_matches_serial() {
        let mut serial = test_amps(1 << 9);
        let mut parallel = serial.clone();
        let m = [Complex::ZERO, Complex::ONE, Complex::ONE, Complex::ZERO]; // X block
        let cmask = (1 << 2) | (1 << 5);
        kernel_controlled(&mut serial, cmask, 7, &m);
        run_chunked(&mut parallel, 1 << 8, 3, &|chunk| {
            kernel_controlled(chunk, cmask, 7, &m)
        });
        assert!(max_diff(&serial, &parallel) == 0.0);
    }

    #[test]
    fn plan_threads_stays_serial_below_threshold() {
        assert_eq!(plan_threads(PAR_MIN_AMPLITUDES / 2, 2), 1);
        // At or above the threshold the count is capped by the chunk count.
        assert!(plan_threads(PAR_MIN_AMPLITUDES, PAR_MIN_AMPLITUDES) == 1);
    }
}
