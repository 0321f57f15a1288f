//! The wChecker workflow of paper Fig. 9, plus randomized fault injection:
//! every mutation of a valid program must either be caught by the checker
//! or be semantically harmless (which the equivalence check decides), every
//! mutation of the reference circuit must get the verdict of an
//! independently built unitary comparison, and a shift of ten tolerances in
//! one angle must be caught at every register size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weaver::circuit::Instruction;
use weaver::core::{checker, CompiledFpqa};
use weaver::prelude::*;
use weaver::sat::{qaoa, Formula};
use weaver::simulator::{equiv, Matrix, State};
use weaver::wqasm::{Annotation, Statement};

/// The checker's equivalence tolerance.
const CHECK_TOL: f64 = 1e-7;

/// The FPQA compilation of `formula` under default options.
fn compile_fpqa(formula: &Formula) -> CompiledFpqa {
    let out = Weaver::new().compile_target("fpqa", formula).unwrap();
    let CompiledArtifact::Fpqa(compiled) = out.artifact else {
        panic!("fpqa artifact expected");
    };
    compiled
}

fn compile_small(variant: usize) -> (Formula, CompiledFpqa) {
    // 8 variables keeps the equivalence check in play.
    let formula = weaver::sat::generator::instance(8, variant);
    let result = compile_fpqa(&formula);
    (formula, result)
}

#[test]
fn fig9_style_reconstruction() {
    let (formula, result) = compile_small(1);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let report = checker::check(&result.program, &FpqaParams::default(), Some(&reference));
    assert!(report.passed(), "{:?}", report.errors);

    // Pulse-to-gate output contains the CZ/CCZ gates the Rydberg pulses
    // implement, reconstructed purely from simulated atom positions.
    let reconstructed = report.reconstructed.expect("reconstruction");
    let ccz_count = reconstructed
        .instructions()
        .filter(|i| i.gate == weaver::circuit::Gate::Ccz)
        .count();
    let three_lit_clauses = formula
        .clauses()
        .iter()
        .filter(|c| c.lits().len() == 3)
        .count();
    assert_eq!(
        ccz_count,
        2 * three_lit_clauses,
        "two CCZ per 3-literal clause (the compression gadget)"
    );
}

#[test]
fn random_angle_perturbations_are_caught() {
    let (formula, result) = compile_small(2);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mut rng = StdRng::seed_from_u64(11);
    let mut caught = 0;
    let mut attempts = 0;
    for _ in 0..12 {
        let mut program = result.program.clone();
        // Pick a random raman-local annotation and perturb one angle.
        let mut raman_positions = Vec::new();
        for (si, stmt) in program.statements.iter().enumerate() {
            if let Statement::GateCall { annotations, .. } = stmt {
                for (ai, a) in annotations.iter().enumerate() {
                    if matches!(a, Annotation::RamanLocal { .. }) {
                        raman_positions.push((si, ai));
                    }
                }
            }
        }
        if raman_positions.is_empty() {
            break;
        }
        let (si, ai) = raman_positions[rng.gen_range(0..raman_positions.len())];
        let delta = rng.gen_range(0.2..1.0_f64) * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        if let Statement::GateCall { annotations, .. } = &mut program.statements[si] {
            if let Annotation::RamanLocal { x, .. } = &mut annotations[ai] {
                *x += delta;
            }
        }
        attempts += 1;
        let report = checker::check(&program, &FpqaParams::default(), Some(&reference));
        if !report.passed() {
            caught += 1;
        }
    }
    assert!(attempts > 0);
    assert_eq!(
        caught, attempts,
        "every angle perturbation ≥ 0.2 rad must be caught"
    );
}

#[test]
fn transfer_index_corruption_is_caught() {
    let (formula, result) = compile_small(3);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mut program = result.program.clone();
    let mut corrupted = false;
    for stmt in &mut program.statements {
        if let Statement::GateCall { annotations, .. } = stmt {
            for a in annotations {
                if let Annotation::Transfer { slm_index, .. } = a {
                    *slm_index += 1; // wrong trap
                    corrupted = true;
                    break;
                }
            }
        }
        if corrupted {
            break;
        }
    }
    assert!(corrupted);
    let report = checker::check(&program, &FpqaParams::default(), Some(&reference));
    assert!(!report.passed());
}

#[test]
fn swapped_rydberg_operands_still_pass() {
    // CZ/CCZ are symmetric: permuting operand order in the *statement* must
    // NOT trip the checker (sets are compared, not sequences).
    let (formula, result) = compile_small(4);
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mut program = result.program.clone();
    for stmt in &mut program.statements {
        if let Statement::GateCall { name, qubits, .. } = stmt {
            if (name == "cz" || name == "ccz") && qubits.len() >= 2 {
                qubits.reverse();
            }
        }
    }
    let report = checker::check(&program, &FpqaParams::default(), Some(&reference));
    assert!(report.passed(), "{:?}", report.errors);
}

#[test]
fn checker_complexity_matches_program_size() {
    // §6: O(N²·M) — more clauses means proportionally more checks, and the
    // checker must stay fast enough to run on every compilation.
    let small = compile_fpqa(&weaver::sat::generator::instance(8, 1));
    let large = compile_fpqa(&weaver::sat::generator::instance(20, 1));
    let r_small = checker::check(&small.program, &FpqaParams::default(), None);
    let r_large = checker::check(&large.program, &FpqaParams::default(), None);
    assert!(r_small.passed() && r_large.passed());
    assert!(r_large.pulses_checked > r_small.pulses_checked);
    assert!(r_large.motions_checked > r_small.motions_checked);
}

/// One corruption of a reference circuit.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    /// One CX dropped from a parity ladder.
    DropCx,
    /// Two adjacent gates that do not commute, swapped.
    SwapAdjacent,
    /// One extra gate inserted.
    ExtraGate,
    /// One RZ angle shifted.
    ShiftRz,
    /// One RZ angle shifted by exactly ten tolerances, either way.
    NudgeRz,
}

const MUTATIONS: [Mutation; 4] = [
    Mutation::DropCx,
    Mutation::SwapAdjacent,
    Mutation::ExtraGate,
    Mutation::ShiftRz,
];

/// The oracle's unitary: every column simulated on its own basis state
/// through the seed's generic gather/scatter loop
/// (`State::apply_reference`), independent of `UnitaryBuilder`.
fn per_column_unitary(circuit: &Circuit) -> Matrix {
    let n = circuit.num_qubits();
    let dim = 1usize << n;
    let ops: Vec<(Matrix, &[usize])> = circuit
        .instructions()
        .map(|i| (i.gate.matrix(), i.qubits.as_slice()))
        .collect();
    let mut u = Matrix::zeros(dim, dim);
    for j in 0..dim {
        let mut column = State::basis(n, j);
        for (gate, qubits) in &ops {
            column.apply_reference(gate, qubits);
        }
        for (i, &amp) in column.amplitudes().iter().enumerate() {
            u[(i, j)] = amp;
        }
    }
    u
}

/// Whether two gates commute, decided on their joint qubits by the oracle.
fn commute(a: &Instruction, b: &Instruction) -> bool {
    let mut qubits = a.qubits.clone();
    qubits.extend(b.qubits.iter().filter(|q| !a.qubits.contains(q)));
    let local = |i: &Instruction| -> Vec<usize> {
        i.qubits
            .iter()
            .map(|q| qubits.iter().position(|p| p == q).expect("joint qubit"))
            .collect()
    };
    let mut ab = Circuit::new(qubits.len());
    ab.push(a.gate.clone(), &local(a))
        .push(b.gate.clone(), &local(b));
    let mut ba = Circuit::new(qubits.len());
    ba.push(b.gate.clone(), &local(b))
        .push(a.gate.clone(), &local(a));
    per_column_unitary(&ab).approx_eq(&per_column_unitary(&ba), 1e-12)
}

/// `reference` with one mutation of the given kind at a seeded position.
fn mutate(reference: &Circuit, kind: Mutation, rng: &mut StdRng) -> Circuit {
    let mut instrs: Vec<Instruction> = reference.instructions().cloned().collect();
    let pick = |rng: &mut StdRng, sites: Vec<usize>| {
        assert!(!sites.is_empty(), "no site for {kind:?}");
        sites[rng.gen_range(0..sites.len())]
    };
    match kind {
        Mutation::DropCx => {
            let sites = (0..instrs.len())
                .filter(|&i| instrs[i].gate == Gate::Cx)
                .collect();
            instrs.remove(pick(rng, sites));
        }
        Mutation::SwapAdjacent => {
            let sites = (0..instrs.len() - 1)
                .filter(|&i| {
                    instrs[i].overlaps(&instrs[i + 1]) && !commute(&instrs[i], &instrs[i + 1])
                })
                .collect();
            let i = pick(rng, sites);
            instrs.swap(i, i + 1);
        }
        Mutation::ExtraGate => {
            let n = reference.num_qubits();
            let q = rng.gen_range(0..n);
            let extra = match rng.gen_range(0..3usize) {
                0 => Instruction::new(Gate::X, vec![q]),
                1 => Instruction::new(Gate::Rz(rng.gen_range(0.05..1.0)), vec![q]),
                _ => Instruction::new(Gate::Cx, vec![q, (q + 1) % n]),
            };
            let at = rng.gen_range(0..=instrs.len());
            instrs.insert(at, extra);
        }
        Mutation::ShiftRz | Mutation::NudgeRz => {
            let sites = (0..instrs.len())
                .filter(|&i| matches!(instrs[i].gate, Gate::Rz(_)))
                .collect();
            let i = pick(rng, sites);
            let size = match kind {
                Mutation::NudgeRz => 10.0 * CHECK_TOL,
                _ => rng.gen_range(1e-3..0.5),
            };
            let delta = size * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            if let Gate::Rz(theta) = instrs[i].gate {
                instrs[i].gate = Gate::Rz(theta + delta);
            }
        }
    }
    let mut mutant = Circuit::new(reference.num_qubits());
    for instr in &instrs {
        mutant.push(instr.gate.clone(), &instr.qubits);
    }
    mutant
}

/// Compiles `generator::instance(n, 1)` for every `n` in `sizes` and checks
/// it against its reference and against one mutant of each kind. Every
/// check must reach the equivalence check; the unmutated reference must
/// pass, each mutant must get the verdict of the oracle (both unitaries
/// built column by column through the seed apply loop), and each kind must
/// be rejected at least once.
fn check_reference_mutants(sizes: std::ops::RangeInclusive<usize>) {
    let params = FpqaParams::default();
    let mut rejected = [0usize; MUTATIONS.len()];
    for n in sizes {
        let formula = weaver::sat::generator::instance(n, 1);
        let program = compile_fpqa(&formula).program;
        let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);

        let report = checker::check(&program, &params, Some(&reference));
        assert!(report.equivalence_checked, "{n} vars: check skipped");
        assert!(report.passed(), "{n} vars: {:?}", report.errors);
        let reconstructed = per_column_unitary(&report.reconstructed.expect("reconstruction"));

        let mut rng = StdRng::seed_from_u64(n as u64);
        for (k, &kind) in MUTATIONS.iter().enumerate() {
            let mutant = mutate(&reference, kind, &mut rng);
            let oracle = equiv::compare(&reconstructed, &per_column_unitary(&mutant), CHECK_TOL);
            let report = checker::check(&program, &params, Some(&mutant));
            assert!(
                report.equivalence_checked,
                "{n} vars, {kind:?}: check skipped"
            );
            assert_eq!(
                report.passed(),
                oracle.is_equivalent(),
                "{n} vars, {kind:?}: checker {:?} vs oracle {oracle:?}",
                report.errors
            );
            rejected[k] += usize::from(!report.passed());
        }
    }
    for (kind, count) in MUTATIONS.iter().zip(rejected) {
        assert!(count > 0, "no {kind:?} mutant was rejected");
    }
}

#[test]
fn reference_mutants_get_the_oracles_verdict() {
    check_reference_mutants(4..=7);
}

/// The same corpus at 8 to 10 variables. The per-column oracle needs
/// minutes in a debug build, so CI runs this in release.
#[test]
#[ignore = "slow in debug; run with --release -- --include-ignored"]
fn reference_mutants_get_the_oracles_verdict_at_8_to_10_vars() {
    check_reference_mutants(8..=10);
}

/// An RZ shifted by ten tolerances is rejected at every size from 4 to 10
/// variables. The stimuli are unit-modulus and unnormalized, so the shift
/// moves the outputs by about 1e-6 at every size; an exact comparison of
/// unitaries, whose entries shrink as 2^{−n/2}, accepts 2 of these six
/// mutants at 9 variables and 5 at 10.
#[test]
fn rz_nudged_by_ten_tolerances_is_rejected() {
    let params = FpqaParams::default();
    for n in 4..=10 {
        let formula = weaver::sat::generator::instance(n, 1);
        let program = compile_fpqa(&formula).program;
        let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
        let mut rng = StdRng::seed_from_u64(n as u64);
        for _ in 0..6 {
            let mutant = mutate(&reference, Mutation::NudgeRz, &mut rng);
            let report = checker::check(&program, &params, Some(&mutant));
            assert!(report.equivalence_checked, "{n} vars: check skipped");
            assert!(!report.passed(), "{n} vars: a 1e-6 RZ shift passed");
        }
    }
}

/// The stimuli are seeded from the reference, never from the clock or the
/// thread: checking twice, and from two threads at once, gives equal
/// reports, error text on a mutant included.
#[test]
fn equivalence_reports_are_the_same_on_every_run_and_thread() {
    let formula = weaver::sat::generator::instance(9, 1);
    let program = compile_fpqa(&formula).program;
    let reference = qaoa::build_circuit(&formula, &QaoaParams::default(), false);
    let mutant = mutate(&reference, Mutation::NudgeRz, &mut StdRng::seed_from_u64(9));
    let params = FpqaParams::default();
    let check_both = || [&reference, &mutant].map(|r| checker::check(&program, &params, Some(r)));
    let first = check_both();
    assert!(first[0].passed(), "{:?}", first[0].errors);
    assert!(first[1].errors[0].message.contains("4 random stimuli"));
    assert_eq!(check_both(), first);
    std::thread::scope(|s| {
        let threads = [s.spawn(check_both), s.spawn(check_both)];
        for thread in threads {
            assert_eq!(thread.join().unwrap(), first);
        }
    });
}
