//! Host-drift probe: a fixed memory-bound loop timed before each workload
//! run, so a slow host can be told apart from a slow change. It is
//! reported next to the run's metrics and never gated. It runs in a child
//! process, so its buffer never counts toward the run's peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Entries of the chased buffer: 64 MiB of `u32`, far beyond the per-core
/// caches, so most steps go to the shared cache or memory.
const ENTRIES: usize = 1 << 24;
/// Dependent loads per probe.
const STEPS: usize = 1 << 21;

/// The argument that makes the benchmark binary run only the probe.
pub const CHILD_FLAG: &str = "--host-probe";

/// Runs [`mem_probe_ms`] in a child copy of this binary.
pub fn in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg(CHILD_FLAG)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("probe output: {e}"))
}

/// Milliseconds for [`STEPS`] dependent loads along a pseudo-random cycle
/// through [`ENTRIES`] slots.
pub fn mem_probe_ms() -> f64 {
    // Slot `h(k)` holds `h(k + 1)`, where `h` is a bijection on 24-bit
    // indices (odd multiplies and an xorshift), so the chase visits every
    // slot once per cycle in an order no prefetcher follows.
    let mask = (ENTRIES - 1) as u32;
    let h = |k: u32| {
        let x = k.wrapping_mul(0x9E37_79B1) & mask;
        let x = x ^ (x >> 12);
        x.wrapping_mul(0x85EB_CA6B) & mask
    };
    let mut next = vec![0u32; ENTRIES];
    for k in 0..ENTRIES as u32 {
        next[h(k) as usize] = h(k.wrapping_add(1) & mask);
    }
    let start = Instant::now();
    let mut at = h(0);
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}
