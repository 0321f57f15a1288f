//! Differential suite for the `simulator` target's formula path. It runs
//! the QAOA layers from one clause-score table (a diagonal phase plus `n`
//! mixer butterflies) and must agree with the gate-by-gate path it
//! replaced, kept here verbatim as the oracle: nativize, simulate the
//! `{U3, CZ}` circuit gate by gate, then score every basis index.
//!
//! EPS may move in its last bits (the two paths round differently), so it
//! is compared to 1e-12 relative; the optimum, its multiplicity and the
//! printed artifact must be equal. The 20-variable fixtures are ignored in
//! debug builds (the oracle takes ~15 s each there); run them with
//! `cargo test --release --test simulator_differential -- --include-ignored`.

use proptest::prelude::*;
use weaver::circuit::{native, Circuit, NativeBasis};
use weaver::core::{CodegenOptions, CompiledArtifact, FrontendRegistry, Weaver, Workload};
use weaver::sat::qaoa::{self, QaoaParams};
use weaver::sat::{generator, Clause, Formula, Lit};

/// What the gate-by-gate path reported.
struct OracleRun {
    native: Circuit,
    optimal_probability: f64,
    max_satisfied: u64,
    num_optimal: usize,
}

/// The simulator's formula path as it stood before the clause-score table.
fn oracle(formula: &Formula, params: &QaoaParams) -> OracleRun {
    let circuit = qaoa::build_circuit(formula, params, false);
    let native = native::nativize(&circuit, NativeBasis::U3Cz);
    let vector = native.statevector();
    // Weighted formulas score basis states by effective weight;
    // unweighted ones keep the satisfied-clause count.
    let weighted = formula.is_weighted();
    let score = |index: usize| -> u64 {
        if weighted {
            formula.weight_satisfied_by_index(index)
        } else {
            formula.count_satisfied_by_index(index) as u64
        }
    };
    let mut max_satisfied = 0u64;
    let mut num_optimal = 0usize;
    let mut optimal_probability = 0.0f64;
    for (index, amp) in vector.amplitudes().iter().enumerate() {
        let satisfied = score(index);
        if satisfied > max_satisfied {
            max_satisfied = satisfied;
            num_optimal = 0;
            optimal_probability = 0.0;
        }
        if satisfied == max_satisfied {
            num_optimal += 1;
            optimal_probability += amp.norm_sqr();
        }
    }
    OracleRun {
        native,
        optimal_probability,
        max_satisfied,
        num_optimal,
    }
}

/// Compiles `formula` for the simulator under `params` and compares the
/// run with the oracle's.
fn assert_matches_oracle(label: &str, formula: &Formula, params: &QaoaParams) {
    let weaver = Weaver::new().with_options(CodegenOptions {
        qaoa: params.clone(),
        ..CodegenOptions::default()
    });
    let output = weaver
        .compile_target("simulator", formula)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let CompiledArtifact::Simulator(run) = &output.artifact else {
        panic!("{label}: simulator artifact expected");
    };
    let expected = oracle(formula, params);
    let (eps, want) = (run.optimal_probability, expected.optimal_probability);
    assert!(
        (eps - want).abs() <= 1e-12 * want.abs(),
        "{label}: EPS {eps:e} vs oracle {want:e} (relative {:e})",
        (eps - want).abs() / want.abs()
    );
    assert_eq!(
        output.metrics.eps, eps,
        "{label}: metrics carry the run's EPS"
    );
    assert_eq!(
        run.max_satisfied, expected.max_satisfied,
        "{label}: optimum"
    );
    assert_eq!(run.num_optimal, expected.num_optimal, "{label}: optima");
    assert!(
        output.artifact.print_wqasm() == weaver::wqasm::print_circuit(&expected.native),
        "{label}: printed artifacts differ"
    );
}

fn fixture_formula(name: &str) -> Formula {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/").to_string() + name;
    let text = std::fs::read_to_string(&path).unwrap();
    let frontend = FrontendRegistry::global()
        .for_path(std::path::Path::new(&path))
        .expect("a frontend for the fixture");
    match frontend.parse(&text).unwrap() {
        Workload::MaxSat(formula) => formula,
        other => panic!("{name}: formula expected, got {}", other.describe()),
    }
}

/// One- and two-variable formulas, below what the generator builds.
fn tiny_formulas() -> Vec<(&'static str, Formula)> {
    vec![
        (
            "1 var",
            Formula::new(
                1,
                vec![
                    Clause::new(vec![Lit::pos(0)]),
                    Clause::new(vec![Lit::neg(0)]),
                ],
            ),
        ),
        (
            "1 var weighted",
            Formula::new(
                1,
                vec![
                    Clause::weighted(vec![Lit::pos(0)], 3),
                    Clause::weighted(vec![Lit::neg(0)], 2),
                ],
            ),
        ),
        (
            "2 vars",
            Formula::new(
                2,
                vec![
                    Clause::new(vec![Lit::pos(0), Lit::neg(1)]),
                    Clause::new(vec![Lit::neg(0)]),
                    Clause::new(vec![Lit::pos(1)]),
                ],
            ),
        ),
        (
            "2 vars hard",
            Formula::new(
                2,
                vec![
                    Clause::weighted(vec![Lit::pos(0)], 3),
                    Clause::weighted(vec![Lit::pos(1)], 5),
                    Clause::hard(vec![Lit::neg(0), Lit::neg(1)]),
                ],
            ),
        ),
    ]
}

#[test]
fn generator_instances_match_the_gate_by_gate_oracle() {
    let params = QaoaParams::default();
    for (label, formula) in tiny_formulas() {
        assert_matches_oracle(label, &formula, &params);
    }
    for n in 3..=15 {
        for variant in [1, 2] {
            let plain = generator::instance(n, variant);
            assert_matches_oracle(&format!("instance({n}, {variant})"), &plain, &params);
            let weighted = generator::weighted_instance(n, variant);
            assert_matches_oracle(
                &format!("weighted_instance({n}, {variant})"),
                &weighted,
                &params,
            );
        }
    }
}

#[test]
fn maxcut_graphs_and_fixtures_match_the_oracle() {
    let params = QaoaParams::default();
    for (n, edges, seed) in [(2, 1, 1), (4, 5, 2), (6, 9, 3), (9, 14, 4), (12, 20, 5)] {
        let graph = generator::random_graph(n, edges, seed);
        assert_matches_oracle(
            &format!("max-cut {n} vertices, {edges} edges"),
            &Formula::max_cut(n, &graph),
            &params,
        );
    }
    for name in ["sample.wcnf", "triangle.mc"] {
        assert_matches_oracle(name, &fixture_formula(name), &params);
    }
}

#[test]
fn multi_layer_and_degenerate_angles_match_the_oracle() {
    let two_layers = QaoaParams {
        layers: vec![(0.7, 0.3), (0.45, 1.1)],
    };
    let cases = [
        ("two layers", two_layers),
        ("gamma 0", QaoaParams::single(0.0, 0.3)),
        ("beta 0", QaoaParams::single(0.7, 0.0)),
        ("gamma and beta 0", QaoaParams::single(0.0, 0.0)),
    ];
    let formulas = [
        ("instance(8, 1)", generator::instance(8, 1)),
        (
            "weighted_instance(11, 3)",
            generator::weighted_instance(11, 3),
        ),
        ("sample.wcnf", fixture_formula("sample.wcnf")),
        ("triangle.mc", fixture_formula("triangle.mc")),
    ];
    for (params_label, params) in &cases {
        for (formula_label, formula) in &formulas {
            assert_matches_oracle(&format!("{formula_label}, {params_label}"), formula, params);
        }
    }
}

#[test]
#[ignore = "the gate-by-gate oracle takes ~15 s per 20-variable run in debug"]
fn twenty_variable_fixtures_match_the_oracle() {
    let params = QaoaParams::default();
    assert_matches_oracle("uf20-01.cnf", &fixture_formula("uf20-01.cnf"), &params);
    assert_matches_oracle("instance(20, 1)", &generator::instance(20, 1), &params);
    assert_matches_oracle(
        "weighted_instance(20, 2)",
        &generator::weighted_instance(20, 2),
        &params,
    );
}

// ---- the clause-score table ---------------------------------------------------

/// A clause over 1–3 distinct variables: soft with a weight up to 2^40, or
/// hard.
fn arb_clause(num_vars: usize) -> impl Strategy<Value = Clause> {
    let vars = prop::collection::hash_set(0..num_vars, 1..=3.min(num_vars));
    (vars, 0..4u32, 1..=(1u64 << 40)).prop_flat_map(|(vars, kind, weight)| {
        let vars: Vec<usize> = vars.into_iter().collect();
        prop::collection::vec(any::<bool>(), vars.len()).prop_map(move |signs| {
            let lits = vars
                .iter()
                .zip(&signs)
                .map(|(&v, &neg)| if neg { Lit::neg(v) } else { Lit::pos(v) })
                .collect();
            match kind {
                0 => Clause::hard(lits),
                1 => Clause::weighted(lits, weight),
                2 => Clause::weighted(lits, weight % 9 + 1),
                _ => Clause::new(lits),
            }
        })
    })
}

fn arb_formula() -> impl Strategy<Value = Formula> {
    (1..=10usize).prop_flat_map(|n| {
        prop::collection::vec(arb_clause(n), 0..40).prop_map(move |c| Formula::new(n, c))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Every table entry is the per-index score: the effective weight, and
    /// for the same clauses unweighted, the satisfied-clause count.
    #[test]
    fn score_table_equals_per_index_scoring(formula in arb_formula()) {
        let table = formula.satisfied_weight_table();
        prop_assert_eq!(table.len(), 1usize << formula.num_vars());
        for (index, &score) in table.iter().enumerate() {
            prop_assert_eq!(score, formula.weight_satisfied_by_index(index));
        }
        let unweighted = Formula::new(
            formula.num_vars(),
            formula.clauses().iter().map(|c| Clause::new(c.lits().to_vec())).collect(),
        );
        for (index, &count) in unweighted.satisfied_weight_table().iter().enumerate() {
            prop_assert_eq!(count, unweighted.count_satisfied_by_index(index) as u64);
        }
    }
}
