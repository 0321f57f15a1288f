//! Crash-injection harness for the durable paged artifact store.
//!
//! Three layers of attack, all against the same invariant — *a committed
//! put survives a crash at any byte, and a lookup never returns torn
//! data*:
//!
//! 1. **Fault-point trials** (`crash_at_every_budget_recovers_committed_state`):
//!    a deterministic op script runs against a store whose file layer is
//!    armed with a byte budget; the write that crosses the budget is torn
//!    (a prefix lands, the call fails), exactly as if the process died
//!    mid-syscall. Budgets are swept over randomized offsets covering
//!    WAL appends, page applies, and checkpoints. After each simulated
//!    crash the directory is reopened and checked against an oracle model
//!    of the committed ops.
//! 2. **Differential vs cold compile**
//!    (`recovered_artifacts_match_cold_compiles`): a batch engine writes
//!    its artifact cache through a fault-armed store; after the injected
//!    crash, a fresh engine on the same directory must produce results
//!    byte-identical to a cold compile — disk hits and recompiles alike.
//! 3. **Child-process kill harness** (`kill9_mid_write_recovers`,
//!    gated behind `WEAVER_CRASH_HARNESS=1`): a real child process
//!    hammers puts until it is SIGKILLed at a randomized time, and the
//!    parent reopens and fully verifies the store. Repeats on the same
//!    directory so damage can compound. `kill9_mid_write_behind_recovers`
//!    does the same through `ArtifactCache::store`, so the kills land in
//!    the cache's committer thread, mid-batch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use weaver::core::cache::{Digest, Fingerprint};
use weaver::engine::store::fault::FaultState;
use weaver::engine::store::{Store, StoreTuning};
use weaver::engine::{Artifact, ArtifactCache, CacheConfig, CacheOutcome};

/// Small pages force multi-page chains so faults land mid-chain too.
const PAGE: u32 = 256;

fn tdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("weaver-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tuning(fault: Option<std::sync::Arc<FaultState>>) -> StoreTuning {
    StoreTuning {
        page_size: PAGE,
        // A small threshold makes the script cross checkpoints mid-run.
        wal_checkpoint_bytes: 4096,
        fault,
        ..StoreTuning::default()
    }
}

fn key(tag: u64) -> Digest {
    let mut fp = Fingerprint::new();
    fp.u64(tag);
    fp.digest()
}

/// Deterministic payload for (tag, version): the first 16 bytes encode the
/// identity, the rest is a seeded random stream — so any byte corruption
/// or cross-key mixup is detectable by regeneration.
fn payload(tag: u64, version: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(tag.wrapping_mul(1_000_003) ^ version);
    let len = rng.gen_range(16usize..1100);
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    while out.len() < len {
        out.push(rng.gen_range(0u8..=255));
    }
    out
}

/// Parses a payload's identity header back out.
fn decode_payload(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < 16 {
        return None;
    }
    let tag = u64::from_le_bytes(bytes[..8].try_into().unwrap());
    let version = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    Some((tag, version))
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Put(u64, u64),
    Delete(u64),
}

/// The deterministic op script every fault trial replays: interleaved
/// puts (overwrites included) and deletes over a handful of keys.
fn script() -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut version = [0u64; 6];
    let mut ops = Vec::new();
    for _ in 0..28 {
        let tag = rng.gen_range(0u64..6);
        if rng.gen_bool(0.2) {
            ops.push(Op::Delete(tag));
        } else {
            version[tag as usize] += 1;
            ops.push(Op::Put(tag, version[tag as usize]));
        }
    }
    ops
}

/// Runs the script against `store`, maintaining the oracle of committed
/// state. Returns the op that failed mid-flight, if any.
fn run_script(store: &mut Store, model: &mut HashMap<u64, Vec<u8>>) -> Option<Op> {
    for op in script() {
        let result = match op {
            Op::Put(tag, version) => store.put(&key(tag), &payload(tag, version)),
            Op::Delete(tag) => store.delete(&key(tag)).map(|_| ()),
        };
        match result {
            Ok(()) => match op {
                Op::Put(tag, version) => {
                    model.insert(tag, payload(tag, version));
                }
                Op::Delete(tag) => {
                    model.remove(&tag);
                }
            },
            Err(_) => return Some(op),
        }
    }
    None
}

/// After reopening, every key must hold exactly its last committed value;
/// the one in-flight op may have either happened completely or not at all.
fn check_recovered(store: &mut Store, model: &HashMap<u64, Vec<u8>>, inflight: Option<Op>) {
    for tag in 0..6u64 {
        let got = store.get(&key(tag)).expect("reads never fail after reopen");
        let committed = model.get(&tag);
        let ok = match inflight {
            Some(Op::Put(t, v)) if t == tag => {
                got.as_deref() == committed.map(Vec::as_slice)
                    || got.as_deref() == Some(payload(t, v).as_slice())
            }
            Some(Op::Delete(t)) if t == tag => {
                got.as_deref() == committed.map(Vec::as_slice) || got.is_none()
            }
            _ => got.as_deref() == committed.map(Vec::as_slice),
        };
        assert!(
            ok,
            "tag {tag}: recovered value is neither the committed nor the in-flight one \
             (inflight {inflight:?}, got {} bytes, committed {} bytes)",
            got.as_ref().map_or(0, Vec::len),
            committed.map_or(0, Vec::len),
        );
        // Whatever is visible must be internally consistent, never torn.
        if let Some(bytes) = got {
            let (t, v) = decode_payload(&bytes).expect("identity header");
            assert_eq!(t, tag, "cross-keyed artifact");
            assert_eq!(bytes, payload(t, v), "torn artifact bytes");
        }
    }
    let verify = store.verify().unwrap();
    assert!(verify.consistent(), "post-recovery scan found damage");
}

/// Measures the script's total write cost in fault-budget units by running
/// it with a budget too large to trip. The budget is armed only after
/// open, so open-time writes don't count.
fn script_cost() -> u64 {
    const HUGE: u64 = 1 << 40;
    let dir = tdir("cost");
    let fault = FaultState::disarmed();
    let mut store = Store::open(&dir, tuning(Some(fault.clone()))).unwrap();
    fault.rearm(HUGE);
    let mut model = HashMap::new();
    assert!(run_script(&mut store, &mut model).is_none());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(fault.trips(), 0);
    HUGE - fault.remaining() as u64
}

#[test]
fn crash_at_every_budget_recovers_committed_state() {
    let cost = script_cost();
    assert!(cost > 0);
    let mut rng = StdRng::seed_from_u64(42);
    // Dense coverage of the first op's WAL append + page writes, then
    // randomized byte offsets across the whole script.
    let mut budgets: Vec<u64> = (1..24).map(|i| i * 37).collect();
    budgets.extend((0..36).map(|_| rng.gen_range(1..cost)));
    for budget in budgets {
        let dir = tdir(&format!("trial-{budget}"));
        let fault = FaultState::disarmed();
        let mut store = Store::open(&dir, tuning(Some(fault.clone()))).unwrap();
        fault.rearm(budget);
        let mut model = HashMap::new();
        let inflight = run_script(&mut store, &mut model);
        assert!(
            inflight.is_some(),
            "budget {budget} < cost {cost} must trip"
        );
        drop(store); // the simulated crash: no checkpoint, no cleanup

        let mut store = Store::open(&dir, tuning(None)).expect("recovery-on-open never fails");
        check_recovered(&mut store, &model, inflight);
        // The recovered store is fully writable again.
        store.put(&key(99), &payload(99, 1)).unwrap();
        assert_eq!(store.get(&key(99)).unwrap(), Some(payload(99, 1)));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_during_checkpoint_and_compact_preserves_artifacts() {
    // Write cleanly, then arm the fault so the very next writes — the
    // checkpoint's header write / fsync / WAL truncate, then compaction —
    // tear.
    for budget in [0u64, 1, 2, PAGE as u64 / 2, 3 * PAGE as u64] {
        let dir = tdir(&format!("ckpt-{budget}"));
        let mut model = HashMap::new();
        let fault = FaultState::disarmed();
        {
            let mut store = Store::open(&dir, tuning(Some(fault.clone()))).unwrap();
            for tag in 0..4u64 {
                store.put(&key(tag), &payload(tag, 7)).unwrap();
                model.insert(tag, payload(tag, 7));
            }
            fault.rearm(budget);
            let _ = store.checkpoint();
            let _ = store.compact();
            // crash
        }
        let mut store = Store::open(&dir, tuning(None)).unwrap();
        check_recovered(&mut store, &model, None);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovered_artifacts_match_cold_compiles() {
    use weaver::engine::{CacheConfig, CompileJob, Engine, EngineConfig};
    use weaver::sat::generator;

    let jobs = || -> Vec<CompileJob> {
        (1..=4)
            .map(|v| CompileJob::from_formula(format!("uf10-{v:02}"), generator::instance(10, v)))
            .collect()
    };
    // Reference: cold compiles with no disk tier at all.
    let reference = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
    .run(jobs());

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..6 {
        let dir = tdir("diff");
        let budget = rng.gen_range(1..8192u64);
        {
            // This engine's disk tier dies mid-batch at a random byte
            // (armed only after the store opened cleanly).
            let fault = FaultState::disarmed();
            let crashing = Engine::new(EngineConfig {
                jobs: 1,
                cache: CacheConfig {
                    disk_dir: Some(dir.clone()),
                    store: tuning(Some(fault.clone())),
                    ..CacheConfig::default()
                },
                ..EngineConfig::default()
            });
            fault.rearm(budget);
            let report = crashing.run(jobs());
            assert_eq!(report.succeeded(), 4, "disk faults never fail compiles");
        }
        // A fresh engine on the crashed directory: every artifact it serves
        // — recovered disk hit or recompile — must equal the cold compile.
        let recovered = Engine::new(EngineConfig {
            jobs: 1,
            cache: CacheConfig {
                disk_dir: Some(dir.clone()),
                store: tuning(None),
                ..CacheConfig::default()
            },
            ..EngineConfig::default()
        });
        let report = recovered.run(jobs());
        assert_eq!(report.succeeded(), 4);
        for (r, c) in report.results.iter().zip(&reference.results) {
            let (ra, ca) = (r.artifact.as_ref().unwrap(), c.artifact.as_ref().unwrap());
            assert_eq!(
                ra.wqasm, ca.wqasm,
                "recovered artifact differs from cold compile"
            );
            // Everything but wall-clock compile time is deterministic.
            assert_eq!(ra.metrics.execution_micros, ca.metrics.execution_micros);
            assert_eq!(ra.metrics.eps, ca.metrics.eps);
            assert_eq!(ra.metrics.pulses, ca.metrics.pulses);
            assert_eq!(ra.metrics.motion_ops, ca.metrics.motion_ops);
            assert_eq!(ra.metrics.steps, ca.metrics.steps);
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Child-process kill harness (WEAVER_CRASH_HARNESS=1)
// ---------------------------------------------------------------------------

/// Not a test of its own: when spawned by `kill9_mid_write_recovers` with
/// `WEAVER_CRASH_ROLE=writer` it hammers puts until killed. Without the
/// env var it returns immediately (so plain `cargo test` ignores it).
#[test]
fn crash_child_writer_loop() {
    if std::env::var("WEAVER_CRASH_ROLE").as_deref() != Ok("writer") {
        return;
    }
    let dir = PathBuf::from(std::env::var("WEAVER_CRASH_DIR").expect("parent sets the dir"));
    let base: u64 = std::env::var("WEAVER_CRASH_BASE").unwrap().parse().unwrap();
    let mut store = Store::open(&dir, tuning(None)).expect("child opens the store");
    let mut version = base;
    loop {
        for tag in 0..6u64 {
            version += 1;
            store
                .put(&key(tag), &payload(tag, version))
                .expect("real put");
        }
    }
}

#[test]
fn kill9_mid_write_recovers() {
    if std::env::var("WEAVER_CRASH_HARNESS").is_err() {
        eprintln!("kill9_mid_write_recovers: set WEAVER_CRASH_HARNESS=1 to run");
        return;
    }
    let dir = tdir("kill");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut rng = StdRng::seed_from_u64(1234);
    for round in 0..8u64 {
        let mut child = std::process::Command::new(&exe)
            .args(["crash_child_writer_loop", "--exact", "--nocapture"])
            .env("WEAVER_CRASH_ROLE", "writer")
            .env("WEAVER_CRASH_DIR", &dir)
            .env("WEAVER_CRASH_BASE", (round * 1_000_000).to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn writer child");
        // Let it write for a randomized slice, then kill it mid-syscall.
        std::thread::sleep(std::time::Duration::from_millis(rng.gen_range(20..250u64)));
        child.kill().expect("kill writer");
        let _ = child.wait();

        // The dead child's lock file is stale (its PID is gone): open must
        // succeed, recover, and hand back a fully consistent store.
        let mut store = Store::open(&dir, tuning(None)).expect("recovery after SIGKILL");
        assert!(store.verify().unwrap().consistent(), "round {round}");
        for tag in 0..6u64 {
            if let Some(bytes) = store.get(&key(tag)).unwrap() {
                let (t, v) = decode_payload(&bytes).expect("identity header");
                assert_eq!(t, tag, "cross-keyed artifact after kill");
                assert_eq!(bytes, payload(t, v), "torn artifact after kill");
            }
        }
        // Still writable between rounds.
        store
            .put(&key(100 + round), &payload(100 + round, 1))
            .unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The artifact the write-behind child stores for (tag, version): the
/// identity in the first wQasm line, then a payload spanning many pages.
fn artifact(tag: u64, version: u64) -> Artifact {
    let body: String = payload(tag, version)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    Artifact {
        wqasm: format!("// tag {tag} version {version}\n{body}\n"),
        metrics: weaver::core::Metrics {
            compilation_seconds: 0.5,
            execution_micros: version as f64,
            eps: 0.25,
            pulses: tag as usize,
            motion_ops: 1,
            steps: version,
        },
        passes: Vec::new(),
        swap_count: None,
        num_colors: None,
        check_passed: None,
        check_errors: Vec::new(),
    }
}

/// Reads an artifact's (tag, version) identity line.
fn identity(a: &Artifact) -> Option<(u64, u64)> {
    let rest = a.wqasm.lines().next()?.strip_prefix("// tag ")?;
    let (tag, version) = rest.split_once(" version ")?;
    Some((tag.parse().ok()?, version.parse().ok()?))
}

fn cache_config(dir: &std::path::Path) -> CacheConfig {
    CacheConfig {
        memory_capacity: 2,
        disk_dir: Some(dir.to_path_buf()),
        store: tuning(None),
    }
}

/// Not a test of its own: spawned by `kill9_mid_write_behind_recovers`
/// with `WEAVER_CRASH_ROLE=cache-writer`, it stores artifacts through the
/// cache's committer until killed.
#[test]
fn crash_child_cache_writer_loop() {
    if std::env::var("WEAVER_CRASH_ROLE").as_deref() != Ok("cache-writer") {
        return;
    }
    let dir = PathBuf::from(std::env::var("WEAVER_CRASH_DIR").expect("parent sets the dir"));
    let base: u64 = std::env::var("WEAVER_CRASH_BASE").unwrap().parse().unwrap();
    let cache = ArtifactCache::new(cache_config(&dir)).expect("child opens the cache");
    let mut version = base;
    loop {
        for tag in 0..6u64 {
            version += 1;
            cache.store(key(tag), Arc::new(artifact(tag, version)));
        }
    }
}

#[test]
fn kill9_mid_write_behind_recovers() {
    if std::env::var("WEAVER_CRASH_HARNESS").is_err() {
        eprintln!("kill9_mid_write_behind_recovers: set WEAVER_CRASH_HARNESS=1 to run");
        return;
    }
    let dir = tdir("kill-write-behind");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut rng = StdRng::seed_from_u64(4321);
    for round in 0..8u64 {
        let mut child = std::process::Command::new(&exe)
            .args(["crash_child_cache_writer_loop", "--exact", "--nocapture"])
            .env("WEAVER_CRASH_ROLE", "cache-writer")
            .env("WEAVER_CRASH_DIR", &dir)
            .env("WEAVER_CRASH_BASE", (round * 1_000_000).to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn cache-writer child");
        std::thread::sleep(std::time::Duration::from_millis(rng.gen_range(20..400u64)));
        child.kill().expect("kill writer");
        let _ = child.wait();

        // The store recovers consistent...
        let mut store = Store::open(&dir, tuning(None)).expect("recovery after SIGKILL");
        assert!(store.verify().unwrap().consistent(), "round {round}");
        let present: Vec<u64> = (0..6u64).filter(|&t| store.contains(&key(t))).collect();
        drop(store);
        // ...every artifact in it parses as one the child stored...
        let cache = ArtifactCache::new(cache_config(&dir)).expect("reopen the cache");
        for tag in present {
            let (a, outcome) = cache.lookup(&key(tag)).expect("a stored artifact parses");
            assert_eq!(outcome, CacheOutcome::DiskHit);
            let (t, v) = identity(&a).expect("identity line");
            assert_eq!(t, tag, "cross-keyed artifact after kill");
            assert_eq!(*a, artifact(t, v), "torn artifact after kill");
        }
        // ...and the cache is still writable, earlier rounds' writes included.
        for earlier in 0..round {
            let (a, _) = cache
                .lookup(&key(100 + earlier))
                .expect("a flushed write survives");
            assert_eq!(*a, artifact(100 + earlier, 1));
        }
        cache.store(key(100 + round), Arc::new(artifact(100 + round, 1)));
        cache.flush();
        assert_eq!(cache.stats().disk_write_errors, 0, "round {round}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
