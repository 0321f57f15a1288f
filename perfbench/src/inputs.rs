//! Seeded input generation. Every input a workload hands the program is a
//! pure function of `--seed`; seed 0 maps the `i`-th instance of a size
//! onto `generator::instance(size, i)`, the repository's uf-suite
//! stand-ins (`uf20-01` …).

use weaver_baselines::dpqa;
use weaver_bench::CompilerId;
use weaver_core::coloring::conflict_graph;
use weaver_sat::{dimacs, generator, Formula};

/// Instance indices per seed: seed `s` owns variants
/// `s × SEED_STRIDE + 1 …`, so seeds never share an instance.
const SEED_STRIDE: usize = 1 << 20;

/// The `i`-th (1-based) instance variant of `seed`.
pub fn variant(seed: u64, i: usize) -> usize {
    assert!((1..SEED_STRIDE).contains(&i), "instance index out of range");
    // Folding the seed to 32 bits keeps `seed × stride` inside usize.
    (seed as u32 as usize) * SEED_STRIDE + i
}

/// SplitMix64: the benchmark's own small deterministic generator, for
/// choices the repository's generators do not cover.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// paper-sweep
// ---------------------------------------------------------------------------

/// One point of the paper's grid: a system compiling one instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// The compiler.
    pub system: CompilerId,
    /// Variables of the instance.
    pub size: usize,
    /// Instance variant (`generator::instance(size, variant)`).
    pub variant: usize,
}

impl Point {
    /// The instance this point compiles.
    pub fn formula(&self) -> Formula {
        generator::instance(self.size, self.variant)
    }
}

/// The 20-variable instance whose DPQA search exhausts the 1M-node budget
/// in every run: `uf20-07` of the default grid. Exhausting instances
/// differ up to threefold in search time, so a seeded choice among them
/// would set the sweep's wall time by itself.
pub const DPQA_STRAGGLER: usize = 7;
/// DPQA search nodes within which the other 20-variable DPQA points must
/// settle. The uf20 grid's instances either settle within ~1.3k nodes or
/// exhaust the budget, bar one that settles at ~31k.
pub const DPQA_EASY_NODES: u64 = 2_000;

/// Whether DPQA's exact search proves `formula`'s stage count optimal
/// within `nodes`.
pub fn dpqa_settles(formula: &Formula, nodes: u64) -> bool {
    dpqa::anytime_coloring(&conflict_graph(formula), nodes).2
}

/// The sweep's points for `seed`: `per_size` instances of every paper size
/// for each of the five systems. DPQA's 20-variable column is the
/// budget-exhausting [`DPQA_STRAGGLER`] plus seeded instances DPQA settles
/// within [`DPQA_EASY_NODES`], so every run carries exactly one DPQA
/// straggler, the same one. Points come longest-first: the straggler,
/// then sizes descending, so the pool's tail is made of short points.
pub fn sweep_points(seed: u64, per_size: usize) -> Vec<Point> {
    let sizes = generator::PAPER_SIZES;
    let mut dpqa20 = Vec::new();
    let mut i = 0;
    while dpqa20.len() + 1 < per_size {
        i += 1;
        let v = variant(seed, i);
        if v != DPQA_STRAGGLER && dpqa_settles(&generator::instance(20, v), DPQA_EASY_NODES) {
            dpqa20.push(v);
        }
    }
    let mut points = vec![Point {
        system: CompilerId::Dpqa,
        size: 20,
        variant: DPQA_STRAGGLER,
    }];
    for &size in sizes.iter().rev() {
        for system in [
            CompilerId::Atomique,
            CompilerId::Superconducting,
            CompilerId::Weaver,
            CompilerId::Geyser,
            CompilerId::Dpqa,
        ] {
            for i in 1..=per_size {
                if system == CompilerId::Dpqa && size == 20 {
                    continue;
                }
                points.push(Point {
                    system,
                    size,
                    variant: variant(seed, i),
                });
            }
        }
    }
    points.extend(dpqa20.into_iter().map(|v| Point {
        system: CompilerId::Dpqa,
        size: 20,
        variant: v,
    }));
    points
}

// ---------------------------------------------------------------------------
// Workload files (batch-cold, daemon-warm)
// ---------------------------------------------------------------------------

/// One generated workload file plus how to compile it.
#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    /// File name, whose extension selects the frontend.
    pub name: String,
    /// File contents.
    pub text: String,
    /// Registry target name.
    pub target: String,
    /// Whether to run the wChecker.
    pub check: bool,
    /// Qubits the compiled program acts on.
    pub qubits: usize,
}

/// The kind of workload file to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Unweighted DIMACS (`generator::instance`).
    Cnf,
    /// Weighted DIMACS (`generator::weighted_instance`).
    Wcnf,
    /// A weighted max-cut edge list (`generator::random_graph`).
    MaxCut,
    /// A random circuit in wQasm.
    Circuit,
}

/// Generates the `i`-th file of `kind` for `seed` at `size` variables,
/// vertices or qubits.
pub fn input(seed: u64, i: usize, kind: Kind, size: usize, target: &str, check: bool) -> Input {
    let v = variant(seed, i);
    let (ext, text) = match kind {
        Kind::Cnf => ("cnf", dimacs::to_string(&generator::instance(size, v))),
        Kind::Wcnf => (
            "wcnf",
            dimacs::to_string(&generator::weighted_instance(size, v)),
        ),
        Kind::MaxCut => ("mc", maxcut_text(size, 2 * size, v as u64)),
        Kind::Circuit => ("wq", circuit_text(size, v as u64)),
    };
    let target_tag = target.replace(':', "-");
    Input {
        name: format!("{i:05}-{size}-{target_tag}.{ext}"),
        text,
        target: target.to_string(),
        check,
        qubits: size,
    }
}

/// A max-cut edge list in the `.mc` format (1-based vertices).
fn maxcut_text(vertices: usize, edges: usize, seed: u64) -> String {
    let mut out = format!("p mc {vertices} {edges}\n");
    for (u, v, w) in generator::random_graph(vertices, edges, seed) {
        out.push_str(&format!("{} {} {w}\n", u + 1, v + 1));
    }
    out
}

/// A layered random circuit over `qubits` qubits: Hadamards, then rounds
/// of Rz rotations and CX/CZ pairs.
fn circuit_text(qubits: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed, 0xC1C);
    let mut out = format!("OPENQASM 3.0;\nqreg q[{qubits}];\ncreg c[{qubits}];\n");
    for q in 0..qubits {
        out.push_str(&format!("h q[{q}];\n"));
    }
    for _ in 0..4 {
        for q in 0..qubits {
            let angle = (rng.below(1000) as f64 + 1.0) / 1000.0 * std::f64::consts::PI;
            out.push_str(&format!("rz({angle}) q[{q}];\n"));
        }
        for _ in 0..qubits / 2 {
            let a = rng.below(qubits);
            let b = (a + 1 + rng.below(qubits - 1)) % qubits;
            let gate = if rng.below(2) == 0 { "cx" } else { "cz" };
            out.push_str(&format!("{gate} q[{a}], q[{b}];\n"));
        }
    }
    for q in 0..qubits {
        out.push_str(&format!("measure q[{q}] -> c[{q}];\n"));
    }
    out
}

/// The batch-cold job list: every frontend, every target family, checked
/// FPQA jobs at ≤ 9 variables (reference-unitary checks) and 20–250
/// variables, superconducting devices at ≤ 100 variables, simulator jobs
/// at ≤ 15 qubits. All keys are distinct, so every job misses.
pub fn batch_inputs(seed: u64) -> Vec<Input> {
    use Kind::*;
    let plan: &[(Kind, usize, &str, bool)] = &[
        (Cnf, 250, "fpqa", true),
        (Cnf, 150, "fpqa", true),
        (Cnf, 100, "fpqa", true),
        (Cnf, 100, "fpqa", true),
        (Cnf, 100, "sc:eagle", false),
        (Cnf, 100, "sc:heron", false),
        (Cnf, 50, "fpqa", true),
        (Cnf, 50, "fpqa", true),
        (Cnf, 50, "sc:eagle", false),
        (Cnf, 50, "sc:heron", false),
        (Wcnf, 50, "fpqa", true),
        (MaxCut, 40, "fpqa", true),
        (MaxCut, 30, "sc:heron", false),
        (Circuit, 30, "sc:heron", false),
        (Circuit, 20, "sc:eagle", false),
        (Cnf, 20, "fpqa", true),
        (Cnf, 20, "fpqa", true),
        (Cnf, 20, "fpqa", true),
        (Cnf, 20, "sc:eagle", false),
        (Cnf, 20, "sc:heron", false),
        (Wcnf, 20, "fpqa", true),
        (Wcnf, 20, "fpqa", true),
        (MaxCut, 20, "fpqa", true),
        (Cnf, 15, "simulator", false),
        (Cnf, 14, "simulator", false),
        (Cnf, 12, "simulator", false),
        (Wcnf, 12, "simulator", false),
        (MaxCut, 14, "simulator", false),
        (Circuit, 15, "simulator", false),
        (Circuit, 12, "simulator", false),
        (Cnf, 9, "fpqa", true),
        (Cnf, 8, "fpqa", true),
        (Cnf, 7, "fpqa", true),
        (Wcnf, 6, "fpqa", true),
    ];
    plan.iter()
        .enumerate()
        .map(|(i, &(kind, size, target, check))| input(seed, i + 1, kind, size, target, check))
        .collect()
}

/// The manifest naming `inputs` (one `weaverc batch` line each).
pub fn manifest(inputs: &[Input]) -> String {
    inputs
        .iter()
        .map(|input| {
            format!(
                "{} target={} check={}\n",
                input.name, input.target, input.check
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// daemon-warm
// ---------------------------------------------------------------------------

/// First instance index of the daemon's store fill (disjoint from the
/// batch and sweep indices).
const FILL_BASE: usize = 10_000;
/// First instance index of the daemon's fresh compiles.
const FRESH_BASE: usize = 100_000;

/// The store fill: 1160 distinct artifacts — more than the memory tier's
/// 1024 entries — mostly small FPQA programs, with superconducting and
/// simulator jobs and a few large programs whose replies run to megabytes.
pub fn fill_inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    let mut add = |count: usize, sizes: &[usize], target: &str| {
        for k in 0..count {
            let i = FILL_BASE + out.len() + 1;
            out.push(input(
                seed,
                i,
                Kind::Cnf,
                sizes[k % sizes.len()],
                target,
                false,
            ));
        }
    };
    add(900, &[12, 14, 16, 18, 20], "fpqa");
    add(150, &[30, 40, 50], "fpqa");
    add(60, &[20, 30], "sc:eagle");
    add(30, &[8, 10, 12], "simulator");
    add(10, &[100], "fpqa");
    add(6, &[150], "fpqa");
    add(4, &[250], "fpqa");
    out
}

/// Hot keys: half of all repeats go to this many fill entries.
const HOT_KEYS: usize = 64;
/// Share of requests that compile something new.
const FRESH_SHARE: f64 = 0.15;
/// Requests in one pipelined manifest interaction.
const MANIFEST_LEN: usize = 4;

/// What one request asks for.
#[derive(Clone, Debug, PartialEq)]
pub enum Ask {
    /// A stored key: index into [`fill_inputs`].
    Repeat(usize),
    /// A job no earlier request or fill produced.
    Fresh(Input),
}

/// One client interaction: one connection carrying either a single
/// submit with `emit:true` or a pipelined manifest with `emit:false`.
#[derive(Clone, Debug, PartialEq)]
pub struct Interaction {
    /// Whether replies carry the wQasm text.
    pub emit: bool,
    /// The requests, in send order.
    pub asks: Vec<Ask>,
}

/// The `index`-th interaction of `seed`'s request stream over a fill of
/// `fill_len` entries. About 85% of requests repeat stored keys — half
/// drawn from a fixed hot set, half uniformly, so hot keys recur while
/// the touched set outgrows the memory tier — and about 15% are fresh
/// compiles: FPQA at 20–100 variables, `sc:eagle` at ≤ 50, simulator at
/// ≤ 14 qubits.
pub fn interaction(seed: u64, index: usize, fill_len: usize) -> Interaction {
    let mut rng = Rng::new(seed, 0xD43_0000 + index as u64);
    // The hot set: a seeded spread over the fill (not its first entries,
    // which are all small FPQA programs).
    let hot_stride = fill_len / HOT_KEYS;
    let hot_offset = Rng::new(seed, 0x407).below(hot_stride.max(1));
    let emit = rng.below(2) == 0;
    let len = if emit { 1 } else { MANIFEST_LEN };
    let asks = (0..len)
        .map(|slot| {
            if rng.unit() < FRESH_SHARE {
                let n = index * MANIFEST_LEN + slot;
                let (kind, size, target) = match n % 6 {
                    0 => (Kind::Cnf, [20, 50, 100][n / 6 % 3], "fpqa"),
                    1 => (Kind::Cnf, [20, 30, 50][n / 6 % 3], "sc:eagle"),
                    2 => (Kind::Cnf, [10, 12, 14][n / 6 % 3], "simulator"),
                    3 => (Kind::Cnf, [20, 30][n / 6 % 2], "fpqa"),
                    4 => (Kind::Cnf, [20, 30][n / 6 % 2], "sc:eagle"),
                    _ => (Kind::Cnf, 12, "simulator"),
                };
                Ask::Fresh(input(seed, FRESH_BASE + n, kind, size, target, false))
            } else if rng.below(2) == 0 {
                Ask::Repeat((hot_offset + rng.below(HOT_KEYS) * hot_stride) % fill_len)
            } else {
                Ask::Repeat(rng.below(fill_len))
            }
        })
        .collect();
    Interaction { emit, asks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_generator_grid() {
        for i in 1..=10 {
            assert_eq!(variant(0, i), i);
        }
        let points = sweep_points(0, 10);
        for size in generator::PAPER_SIZES {
            let weaver: Vec<usize> = points
                .iter()
                .filter(|p| p.system == CompilerId::Weaver && p.size == size)
                .map(|p| p.variant)
                .collect();
            assert_eq!(weaver, (1..=10).collect::<Vec<_>>());
        }
        let p = points
            .iter()
            .find(|p| p.system == CompilerId::Atomique && p.size == 250)
            .unwrap();
        assert_eq!(p.formula(), generator::instance(250, 1));
        assert_eq!(
            input(0, 3, Kind::Cnf, 20, "fpqa", true).text,
            dimacs::to_string(&generator::instance(20, 3))
        );
    }

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        for seed in [0, 7, u64::MAX] {
            assert_eq!(batch_inputs(seed), batch_inputs(seed));
            assert_eq!(manifest(&batch_inputs(seed)), manifest(&batch_inputs(seed)));
            assert_eq!(fill_inputs(seed), fill_inputs(seed));
            for index in [0, 1, 999] {
                assert_eq!(
                    interaction(seed, index, 1160),
                    interaction(seed, index, 1160)
                );
            }
        }
        assert_ne!(batch_inputs(1), batch_inputs(2));
        assert_ne!(fill_inputs(1), fill_inputs(2));
    }

    #[test]
    fn sweep_points_keep_one_dpqa_straggler_and_the_250_column() {
        for seed in [0, 1, 2] {
            let points = sweep_points(seed, 3);
            assert_eq!(points, sweep_points(seed, 3));
            let dpqa20: Vec<&Point> = points
                .iter()
                .filter(|p| p.system == CompilerId::Dpqa && p.size == 20)
                .collect();
            assert_eq!(dpqa20.len(), 3);
            assert_eq!(dpqa20[0].variant, DPQA_STRAGGLER);
            assert!(!dpqa_settles(&dpqa20[0].formula(), 20_000));
            assert!(dpqa20[1..]
                .iter()
                .all(|p| dpqa_settles(&p.formula(), DPQA_EASY_NODES)));
            let at250 = points.iter().filter(|p| p.size == 250).count();
            assert_eq!(at250, 3 * 5);
            assert_eq!(points.len(), 3 * 5 * 6);
        }
    }

    #[test]
    fn batch_inputs_cover_every_frontend_and_target() {
        let inputs = batch_inputs(3);
        for ext in [".cnf", ".wcnf", ".mc", ".wq"] {
            assert!(inputs.iter().any(|i| i.name.ends_with(ext)), "{ext}");
        }
        for target in ["fpqa", "sc:eagle", "sc:heron", "simulator"] {
            assert!(inputs.iter().any(|i| i.target == target), "{target}");
        }
        assert!(inputs.iter().any(|i| i.check && i.qubits <= 9));
        assert!(inputs
            .iter()
            .all(|i| i.target != "simulator" || i.qubits <= 15));
        let names: std::collections::HashSet<&str> =
            inputs.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names.len(), inputs.len());
    }

    #[test]
    fn request_stream_mixes_repeats_and_fresh_compiles() {
        let fill = fill_inputs(5);
        assert!(fill.len() > 1024);
        let (mut repeats, mut fresh) = (0usize, 0usize);
        let mut touched = std::collections::HashSet::new();
        for index in 0..3000 {
            for ask in interaction(5, index, fill.len()).asks {
                match ask {
                    Ask::Repeat(k) => {
                        repeats += 1;
                        touched.insert(k);
                    }
                    Ask::Fresh(_) => fresh += 1,
                }
            }
        }
        let share = fresh as f64 / (fresh + repeats) as f64;
        assert!((0.12..0.18).contains(&share), "{share}");
        assert!(touched.len() > 1024, "{}", touched.len());
    }
}
