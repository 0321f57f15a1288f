//! Differential suite for the baseline hot paths: Atomique's per-qubit
//! window buckets and DPQA's incremental saturation counts must reproduce
//! the original implementations bit for bit. The originals live below as
//! test-only oracles, copied unchanged from the code they replaced.
//!
//! The default (debug) run covers Atomique up to 50 variables and DPQA
//! budgets up to 20k nodes; the larger sizes and the 1M-node budget are
//! `#[ignore]`d and run in release:
//!
//! ```sh
//! cargo test --release --test baselines_differential -q -- --include-ignored
//! ```

use proptest::prelude::*;
use weaver::baselines::{dpqa, Atomique, BaselineOutput, FpqaCompiler};
use weaver::circuit::{native, NativeBasis};
use weaver::core::coloring::{conflict_graph, dsatur, ClauseColoring, ConflictGraph};
use weaver::fpqa::{FpqaParams, PulseOp, PulseSchedule};
use weaver::sat::{generator, qaoa, Formula};

// ---------------------------------------------------------------------------
// Oracles: the original implementations
// ---------------------------------------------------------------------------

/// The original `Atomique::compile` loop: every scored cell rescans the
/// look-ahead window from the start of the gate stream. Returns the
/// schedule and the step count.
fn atomique_oracle(atomique: &Atomique, formula: &Formula) -> (PulseSchedule, u64) {
    let n = formula.num_vars();
    let circuit = qaoa::build_circuit(formula, &atomique.qaoa, false);
    let nativized = native::nativize(&circuit, NativeBasis::U3Cz);

    let width = (n as f64).sqrt().ceil() as usize + 1;
    let height = n.div_ceil(width) + 1;
    let cells = width * height;
    let mut pos: Vec<usize> = (0..n).collect();
    let mut cell_of: Vec<Option<usize>> = (0..cells)
        .map(|c| if c < n { Some(c) } else { None })
        .collect();
    let home_cell: Vec<Option<usize>> = (0..n).map(Some).collect();

    let cell_xy = |c: usize| ((c % width) as f64, (c / width) as f64);
    let dist = |a: usize, b: usize| {
        let (ax, ay) = cell_xy(a);
        let (bx, by) = cell_xy(b);
        ((ax - bx).abs() + (ay - by).abs()) * atomique.spacing
    };

    let gates: Vec<(bool, Vec<usize>)> = nativized
        .instructions()
        .map(|i| (i.gate.num_qubits() == 2, i.qubits.clone()))
        .collect();
    let two_qubit_positions: Vec<usize> = gates
        .iter()
        .enumerate()
        .filter(|(_, (is2, _))| *is2)
        .map(|(i, _)| i)
        .collect();

    let mut schedule = PulseSchedule::new();
    let mut steps: u64 = 0;
    let window = (4 * n).max(8);
    let mut processed_2q = 0usize;

    for (gi, (is2, qubits)) in gates.iter().enumerate() {
        if !is2 {
            schedule.push(PulseOp::RamanLocal {
                qubit: qubits[0],
                angles: (0.0, 0.0, 0.0),
            });
            continue;
        }
        let (a, b) = (qubits[0], qubits[1]);
        processed_2q += 1;

        if processed_2q % (n / 2).max(1) == 0 {
            for q in 0..n {
                let mut best_cell = pos[q];
                let mut best_cost = f64::MAX;
                for (c, occupant) in cell_of.iter().enumerate() {
                    if occupant.is_some() && *occupant != Some(q) {
                        continue;
                    }
                    let mut cost = dist(pos[q], c) * 0.1;
                    for &future in two_qubit_positions.iter().filter(|&&p| p > gi).take(window) {
                        steps += 1;
                        let (_, fq) = &gates[future];
                        if fq.contains(&q) {
                            let other = if fq[0] == q { fq[1] } else { fq[0] };
                            cost += dist(c, pos[other]);
                        }
                    }
                    if cost < best_cost {
                        best_cost = cost;
                        best_cell = c;
                    }
                }
                if best_cell != pos[q] {
                    cell_of[pos[q]] = None;
                    cell_of[best_cell] = Some(q);
                    let d = dist(pos[q], best_cell);
                    pos[q] = best_cell;
                    schedule.push(PulseOp::Transfer);
                    schedule.push(PulseOp::Shuttle { distance: d });
                    schedule.push(PulseOp::Transfer);
                }
            }
        }

        if dist(pos[a], pos[b]) > atomique.spacing + 1e-9 {
            let (bx, by) = ((pos[b] % width) as i64, (pos[b] / width) as i64);
            let mut best: Option<(usize, f64)> = None;
            for (dx, dy) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                let (cx, cy) = (bx + dx, by + dy);
                if cx < 0 || cy < 0 || cx >= width as i64 || cy >= height as i64 {
                    continue;
                }
                let c = cy as usize * width + cx as usize;
                if cell_of[c].is_some() {
                    continue;
                }
                let mut cost = dist(pos[a], c);
                for &future in two_qubit_positions.iter().filter(|&&p| p > gi).take(window) {
                    steps += 1;
                    let (_, fq) = &gates[future];
                    if fq.contains(&a) {
                        let other = if fq[0] == a { fq[1] } else { fq[0] };
                        cost += 0.2 * dist(c, pos[other]);
                    }
                }
                if best.is_none() || cost < best.unwrap().1 {
                    best = Some((c, cost));
                }
            }
            let target = match best {
                Some((c, _)) => c,
                None => cell_of
                    .iter()
                    .position(|c| c.is_none())
                    .expect("grid larger than qubit count"),
            };
            let d = dist(pos[a], target);
            cell_of[pos[a]] = None;
            cell_of[target] = Some(a);
            pos[a] = target;
            schedule.push(PulseOp::Transfer);
            schedule.push(PulseOp::Shuttle { distance: d });
            schedule.push(PulseOp::Transfer);
        }
        schedule.push(PulseOp::Rydberg {
            groups: vec![vec![a, b]],
        });
        if let Some(home) = home_cell[a] {
            if home != pos[a] && cell_of[home].is_none() {
                let d = dist(pos[a], home);
                cell_of[pos[a]] = None;
                cell_of[home] = Some(a);
                pos[a] = home;
                schedule.push(PulseOp::Transfer);
                schedule.push(PulseOp::Shuttle { distance: d });
                schedule.push(PulseOp::Transfer);
            }
        }
    }
    (schedule, steps)
}

/// The original DPQA branch and bound: every node collects, sorts and
/// deduplicates each uncoloured vertex's neighbour colours, and collects
/// the picked vertex's forbidden colours into a fresh `Vec`.
fn dpqa_oracle(graph: &ConflictGraph, budget: u64) -> (ClauseColoring, u64, bool) {
    let n = graph.len();
    if n == 0 {
        return (ClauseColoring::new(Vec::new()), 0, true);
    }
    let heuristic = dsatur(graph);
    let mut best = heuristic.colors.clone();
    let mut best_k = heuristic.num_colors;
    let clique = greedy_clique_oracle(graph);

    struct Search<'a> {
        graph: &'a ConflictGraph,
        colors: Vec<usize>,
        best: Vec<usize>,
        best_k: usize,
        clique: usize,
        nodes: u64,
        budget: u64,
    }

    impl Search<'_> {
        fn branch(&mut self, used: usize) -> bool {
            self.nodes += 1;
            if self.nodes > self.budget {
                return false;
            }
            if self.best_k == self.clique {
                return true;
            }
            let n = self.graph.len();
            let mut pick = None;
            let mut pick_key = (0usize, 0usize);
            for v in 0..n {
                if self.colors[v] != usize::MAX {
                    continue;
                }
                let mut sat: Vec<usize> = self
                    .graph
                    .neighbors(v)
                    .iter()
                    .map(|&u| self.colors[u])
                    .filter(|&c| c != usize::MAX)
                    .collect();
                sat.sort_unstable();
                sat.dedup();
                let key = (sat.len(), self.graph.degree(v));
                if pick.is_none() || key > pick_key {
                    pick = Some(v);
                    pick_key = key;
                }
            }
            let Some(v) = pick else {
                if used < self.best_k {
                    self.best_k = used;
                    self.best.clone_from(&self.colors);
                }
                return true;
            };
            let forbidden: Vec<usize> = self
                .graph
                .neighbors(v)
                .iter()
                .map(|&u| self.colors[u])
                .filter(|&c| c != usize::MAX)
                .collect();
            let max_color = (used + 1).min(self.best_k.saturating_sub(1));
            for c in 0..max_color {
                if forbidden.contains(&c) {
                    continue;
                }
                self.colors[v] = c;
                let new_used = used.max(c + 1);
                let ok = new_used >= self.best_k || self.branch(new_used);
                self.colors[v] = usize::MAX;
                if !ok {
                    return false;
                }
            }
            true
        }
    }

    let mut search = Search {
        graph,
        colors: vec![usize::MAX; n],
        best: std::mem::take(&mut best),
        best_k,
        clique,
        nodes: 0,
        budget,
    };
    let proven = search.branch(0);
    best = search.best;
    best_k = search.best_k;
    assert_eq!(best_k, best.iter().copied().max().map_or(0, |m| m + 1));
    (ClauseColoring::new(best), search.nodes, proven)
}

/// The original clique lower bound (unchanged in the library).
fn greedy_clique_oracle(graph: &ConflictGraph) -> usize {
    let n = graph.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    let mut clique: Vec<usize> = Vec::new();
    for &v in &order {
        if clique
            .iter()
            .all(|&u| graph.neighbors(v).binary_search(&u).is_ok())
        {
            clique.push(v);
        }
    }
    clique.len()
}

// ---------------------------------------------------------------------------
// Assertions
// ---------------------------------------------------------------------------

/// Asserts the library Atomique reproduces the oracle's schedule, steps,
/// and (bit for bit) EPS and execution time.
fn assert_atomique_matches(formula: &Formula, label: &str) {
    let params = FpqaParams::default();
    let atomique = Atomique::new(params.clone());
    let out = atomique.compile(formula).expect("Atomique never times out");
    let (schedule, steps) = atomique_oracle(&atomique, formula);
    let n = formula.num_vars();
    let expected = BaselineOutput::from_schedule("Atomique", schedule, &params, n, 0.0, steps);
    assert_eq!(out.schedule, expected.schedule, "{label}: schedule");
    assert_eq!(out.metrics.steps, expected.metrics.steps, "{label}: steps");
    assert_eq!(
        out.metrics.eps.to_bits(),
        expected.metrics.eps.to_bits(),
        "{label}: eps"
    );
    assert_eq!(
        out.metrics.execution_micros.to_bits(),
        expected.metrics.execution_micros.to_bits(),
        "{label}: execution_micros"
    );
}

fn atomique_matches_on_uf(size: usize) {
    for variant in 1..=generator::PAPER_VARIANTS {
        let f = generator::instance(size, variant);
        assert_atomique_matches(&f, &generator::instance_name(size, variant));
    }
}

/// Asserts `dpqa::anytime_coloring` returns the oracle's colouring, node
/// count, and optimality flag at every budget.
fn assert_dpqa_matches(graph: &ConflictGraph, budgets: &[u64], label: &str) {
    for &budget in budgets {
        let got = dpqa::anytime_coloring(graph, budget);
        let want = dpqa_oracle(graph, budget);
        assert_eq!(got, want, "{label} at budget {budget}");
    }
}

fn dpqa_matches_on_uf(size: usize, budgets: &[u64]) {
    for variant in 1..=generator::PAPER_VARIANTS {
        let g = conflict_graph(&generator::instance(size, variant));
        assert_dpqa_matches(&g, budgets, &generator::instance_name(size, variant));
    }
}

/// The budgets the default run checks on every uf20 graph.
const SMALL_BUDGETS: [u64; 2] = [2_000, 20_000];

/// Budgets for generated graphs: out of budget at once, mid-search, and
/// (mostly) proven.
const GENERATED_BUDGETS: [u64; 3] = [1, 50, 2_000];

/// DPQA's default node budget (`Dpqa::new`).
const FULL_BUDGET: u64 = 1_000_000;

// ---------------------------------------------------------------------------
// Atomique over the uf grid
// ---------------------------------------------------------------------------

#[test]
fn atomique_matches_oracle_on_uf20() {
    atomique_matches_on_uf(20);
}

#[test]
fn atomique_matches_oracle_on_uf50() {
    atomique_matches_on_uf(50);
}

#[test]
#[ignore = "release-only: 75–250 variables"]
fn atomique_matches_oracle_on_uf75_to_uf250() {
    for size in [75, 100, 150, 250] {
        atomique_matches_on_uf(size);
    }
}

// ---------------------------------------------------------------------------
// DPQA over the uf grid
// ---------------------------------------------------------------------------

#[test]
fn dpqa_matches_oracle_on_uf20() {
    dpqa_matches_on_uf(20, &SMALL_BUDGETS);
}

#[test]
fn dpqa_matches_oracle_on_uf50() {
    dpqa_matches_on_uf(50, &SMALL_BUDGETS[..1]);
}

#[test]
#[ignore = "release-only: 50 variables at 20k nodes, 75–250 variables"]
fn dpqa_matches_oracle_on_uf50_to_uf250() {
    dpqa_matches_on_uf(50, &SMALL_BUDGETS[1..]);
    for size in [75, 100, 150, 250] {
        dpqa_matches_on_uf(size, &SMALL_BUDGETS);
    }
}

#[test]
#[ignore = "release-only: 1M-node budget"]
fn dpqa_matches_oracle_on_uf20_at_the_full_budget() {
    dpqa_matches_on_uf(20, &[FULL_BUDGET]);
}

// ---------------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------------

/// An undirected graph from a random edge list: self-loops, repeated
/// edges and isolated vertices included.
fn arb_graph(max_vertices: usize) -> impl Strategy<Value = ConflictGraph> {
    (5..max_vertices).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), n..=n * n / 5).prop_map(move |edges| {
            let mut adjacency = vec![Vec::new(); n];
            for (a, b) in edges {
                adjacency[a].push(b);
                adjacency[b].push(a);
            }
            ConflictGraph::from_adjacency(&adjacency)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dpqa_matches_oracle_on_generated_graphs(g in arb_graph(40)) {
        assert_dpqa_matches(&g, &GENERATED_BUDGETS, "generated graph");
    }

    /// Conflict graphs of small random formulas: the graphs DPQA colours,
    /// many of them too hard to settle within the budgets.
    #[test]
    fn dpqa_matches_oracle_on_generated_formula_graphs(
        n in 5..20usize,
        m in 10..90usize,
        seed in 0..1_000_000u64,
    ) {
        let g = conflict_graph(&generator::random_formula(n, m, seed));
        assert_dpqa_matches(&g, &GENERATED_BUDGETS, "generated formula graph");
    }

    /// Random formulas from 3 variables up, so the refinement period's and
    /// the window's floors are exercised too.
    #[test]
    fn atomique_matches_oracle_on_generated_formulas(
        n in 3..30usize,
        ratio in 1..6usize,
        seed in 0..1_000_000u64,
    ) {
        let f = generator::random_formula(n, n * ratio, seed);
        assert_atomique_matches(&f, "generated formula");
    }
}
