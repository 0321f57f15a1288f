//! Property-based tests (proptest) over the workspace invariants listed in
//! DESIGN.md §5.

use proptest::prelude::*;
use weaver::circuit::{native, Circuit, Gate, NativeBasis};
use weaver::core::coloring;
use weaver::core::compress;
use weaver::sat::{Clause, Formula, Lit, PhasePolynomial};
use weaver::simulator::equiv;
use weaver::wqasm;

// ---- generators -------------------------------------------------------------

fn arb_gate(num_qubits: usize) -> impl Strategy<Value = (Gate, Vec<usize>)> {
    let q = 0..num_qubits;
    let angle = -3.2f64..3.2f64;
    prop_oneof![
        (q.clone()).prop_map(|a| (Gate::H, vec![a])),
        (q.clone()).prop_map(|a| (Gate::X, vec![a])),
        (q.clone()).prop_map(|a| (Gate::T, vec![a])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| (Gate::Rz(t), vec![a])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| (Gate::Rx(t), vec![a])),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| (Gate::Cx, vec![a, b]))
        }),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| (Gate::Cz, vec![a, b]))
        }),
        (q.clone(), q.clone(), q).prop_filter_map("distinct", |(a, b, c)| {
            (a != b && b != c && a != c).then(|| (Gate::Ccz, vec![a, b, c]))
        }),
    ]
}

fn arb_circuit(num_qubits: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(arb_gate(num_qubits), 0..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(num_qubits);
        for (g, qs) in gates {
            c.push(g, &qs);
        }
        c
    })
}

fn arb_clause(num_vars: usize) -> impl Strategy<Value = Clause> {
    prop::collection::hash_set(0..num_vars, 1..=3.min(num_vars)).prop_flat_map(|vars| {
        let vars: Vec<usize> = vars.into_iter().collect();
        prop::collection::vec(any::<bool>(), vars.len()).prop_map(move |signs| {
            Clause::new(
                vars.iter()
                    .zip(&signs)
                    .map(|(&v, &neg)| if neg { Lit::neg(v) } else { Lit::pos(v) })
                    .collect(),
            )
        })
    })
}

fn arb_formula(num_vars: usize, max_clauses: usize) -> impl Strategy<Value = Formula> {
    prop::collection::vec(arb_clause(num_vars), 1..max_clauses)
        .prop_map(move |clauses| Formula::new(num_vars, clauses))
}

// ---- properties ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Nativization preserves the circuit unitary (up to global phase).
    #[test]
    fn nativize_preserves_unitary(c in arb_circuit(4, 14)) {
        for basis in [NativeBasis::U3Cz, NativeBasis::U3CzCcz] {
            let n = native::nativize(&c, basis);
            let e = equiv::compare(&c.unitary(), &n.unitary(), 1e-8);
            prop_assert!(e.is_equivalent(), "{e:?}");
        }
    }

    /// Peephole optimization preserves the unitary.
    #[test]
    fn peephole_preserves_unitary(c in arb_circuit(4, 14)) {
        let (o, _) = weaver::circuit::optimize::peephole(&c);
        let e = equiv::compare(&c.unitary(), &o.unitary(), 1e-8);
        prop_assert!(e.is_equivalent(), "{e:?}");
    }

    /// DSatur colorings are always valid (no adjacent same-color clauses).
    #[test]
    fn coloring_is_valid(f in arb_formula(10, 24)) {
        let g = coloring::conflict_graph(&f);
        let c = coloring::color_clauses(&f);
        prop_assert!(coloring::is_valid_coloring(&g, &c));
        prop_assert!(c.num_colors >= 1);
    }

    /// The compressed clause fragment matches the CNOT-ladder reference for
    /// every clause shape, sign pattern and angle.
    #[test]
    fn compression_preserves_clause_semantics(
        clause in arb_clause(5),
        gamma in -2.0f64..2.0,
    ) {
        let n = clause.vars().max().unwrap() + 1;
        let compressed = compress::compressed_clause_circuit(&clause, gamma, n);
        let reference = compress::reference_clause_circuit(&clause, gamma, n);
        let e = equiv::compare(&compressed.unitary(), &reference.unitary(), 1e-8);
        prop_assert!(e.is_equivalent(), "clause {clause}: {e:?}");
    }

    /// The clause phase polynomial agrees with direct truth-table counting.
    #[test]
    fn phase_polynomial_counts_satisfaction(f in arb_formula(6, 10), bits in 0usize..64) {
        let poly = PhasePolynomial::from_formula(&f);
        let a: Vec<bool> = (0..6).map(|i| (bits >> i) & 1 == 1).collect();
        let expected = f.count_satisfied(&a) as f64;
        prop_assert!((poly.eval_bool(&a) - expected).abs() < 1e-9);
    }

    /// wQasm print → parse is idempotent on compiled programs and preserves
    /// the pulse/motion structure.
    #[test]
    fn wqasm_roundtrip_on_compiled(seed in 1usize..40) {
        let f = weaver::sat::generator::instance(6, seed);
        let out = weaver::core::Weaver::new().compile_target("fpqa", &f).unwrap();
        let program = &out.artifact.as_fpqa().unwrap().program;
        let text = wqasm::print(program);
        let reparsed = wqasm::parse(&text).expect("reparse");
        let reparsed2 = wqasm::parse(&wqasm::print(&reparsed)).expect("reparse twice");
        prop_assert_eq!(&reparsed2, &reparsed);
        prop_assert_eq!(reparsed.pulse_count(), program.pulse_count());
        prop_assert_eq!(reparsed.motion_count(), program.motion_count());
    }

    /// EPS is always a probability, and adding pulses never raises it.
    #[test]
    fn eps_is_monotone_probability(seed in 1usize..30) {
        use weaver::fpqa::{eps, FpqaParams, PulseOp, PulseSchedule};
        let f = weaver::sat::generator::instance(8, seed);
        let out = weaver::core::Weaver::new().compile_target("fpqa", &f).unwrap();
        let schedule = &out.artifact.as_fpqa().unwrap().schedule;
        let params = FpqaParams::default();
        let e = eps(schedule, &params, 8);
        prop_assert!(e > 0.0 && e <= 1.0);
        let mut longer = PulseSchedule::new();
        longer.append_schedule(schedule);
        longer.push(PulseOp::Rydberg { groups: vec![vec![0, 1]] });
        prop_assert!(eps(&longer, &params, 8) <= e);
    }

    /// Exact solver results upper-bound WalkSAT and both count correctly.
    #[test]
    fn solvers_are_consistent(f in arb_formula(10, 20)) {
        let exact = weaver::sat::solver::solve_exact(&f);
        let walk = weaver::sat::solver::solve_walksat(&f, 2_000, 7);
        prop_assert!(walk.satisfied <= exact.satisfied);
        prop_assert_eq!(f.count_satisfied(&exact.assignment), exact.satisfied);
        prop_assert_eq!(f.count_satisfied(&walk.assignment), walk.satisfied);
    }
}
