//! wChecker — equivalence checking of compiled wQasm programs (paper §6,
//! Fig. 9).
//!
//! The checker re-simulates every FPQA annotation on a fresh device model
//! (independent of the compiler's mirror device), translates pulses back to
//! logical gates, and verifies that
//!
//! 1. every annotation's pre-condition holds (motion legality, spacing),
//! 2. every Rydberg pulse entangles exactly the atoms the attached logical
//!    gates claim — equidistance and non-interference included,
//! 3. every Raman pulse matches its logical `u3` up to global phase,
//! 4. the reconstructed circuit is equivalent to a reference circuit, up
//!    to [`UnitaryBuilder::MAX_QUBITS`] qubits: both circuits run on the
//!    same [`STIMULI`] seeded random states, and every output amplitude must
//!    agree up to one global phase (see [`check`]).

use crate::cache::Fingerprint;
use std::collections::HashMap;
use std::fmt;
use weaver_circuit::{Circuit, Gate};
use weaver_fpqa::{FpqaDevice, FpqaParams, Location};
use weaver_simulator::{equiv, Complex, Equivalence, Matrix, State, UnitaryBuilder};
use weaver_wqasm::{Annotation, BindTarget, Program, ShuttleAxis, Statement};

/// Random stimuli per equivalence check. A power of two: the stimuli are
/// stacked as the high qubits of one [`State`], so each gate is one pass
/// over all of them.
pub const STIMULI: usize = 4;

/// Amplitude tolerance of the Raman and equivalence comparisons.
const TOL: f64 = 1e-7;

/// Outcome of a wChecker run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckReport {
    /// Problems found; empty means the program checked out.
    pub errors: Vec<CheckError>,
    /// Number of pulse annotations validated.
    pub pulses_checked: usize,
    /// Number of motion annotations simulated.
    pub motions_checked: usize,
    /// Whether the equivalence check against the reference ran (a
    /// reference was given, the register is within
    /// [`UnitaryBuilder::MAX_QUBITS`] and no local check failed).
    pub equivalence_checked: bool,
    /// The circuit reconstructed from pulses (pulse-to-gate output).
    pub reconstructed: Option<Circuit>,
}

impl CheckReport {
    /// Whether the program passed all checks.
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A single checker finding.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckError {
    /// Statement index the finding refers to.
    pub statement: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "statement {}: {}", self.statement, self.message)
    }
}

impl std::error::Error for CheckError {}

/// Batched Raman-vs-logical matrix comparison (the ROADMAP perf item). A
/// program drives hundreds of 2×2 comparisons, almost all repeats: every
/// qubit of a `@raman global` pulse shares one rotation, and QAOA layers
/// re-emit the same local pulses. The comparator gathers each segment's
/// comparisons into one contiguous pass over two reusable scratch matrices
/// — no per-entry `Matrix` or intermediate-product allocations — and
/// memoizes verdicts by the angles' bit patterns, so only distinct
/// (pulse, gate) pairs ever reach the allocation-free [`equiv::compare`]
/// path.
struct RamanComparator {
    pulse: Matrix,
    logical: Matrix,
    memo: HashMap<[u64; 6], bool>,
}

impl RamanComparator {
    fn new() -> Self {
        RamanComparator {
            pulse: Matrix::zeros(2, 2),
            logical: Matrix::zeros(2, 2),
            memo: HashMap::new(),
        }
    }

    /// Whether the Raman pulse `R(x, y, z) = RZ(z)·RY(y)·RX(x)` implements
    /// `u3(θ, φ, λ)` up to global phase (tolerance 1e-7, as the per-entry
    /// path used).
    fn matches(
        &mut self,
        (x, y, z): (f64, f64, f64),
        (theta, phi, lambda): (f64, f64, f64),
    ) -> bool {
        let key = [
            x.to_bits(),
            y.to_bits(),
            z.to_bits(),
            theta.to_bits(),
            phi.to_bits(),
            lambda.to_bits(),
        ];
        if let Some(&verdict) = self.memo.get(&key) {
            return verdict;
        }
        write_raman(&mut self.pulse, x, y, z);
        write_u3(&mut self.logical, theta, phi, lambda);
        let verdict = equiv::compare(&self.pulse, &self.logical, TOL).is_equivalent();
        self.memo.insert(key, verdict);
        verdict
    }
}

/// Writes `RZ(z)·RY(y)·RX(x)` into a 2×2 scratch matrix, composing on stack
/// scalars instead of allocating three gate matrices and two products.
fn write_raman(m: &mut Matrix, x: f64, y: f64, z: f64) {
    let (cx, sx) = ((x / 2.0).cos(), (x / 2.0).sin());
    let (cy, sy) = ((y / 2.0).cos(), (y / 2.0).sin());
    // RX(x) entries.
    let rx = [
        [Complex::real(cx), Complex::new(0.0, -sx)],
        [Complex::new(0.0, -sx), Complex::real(cx)],
    ];
    // RY(y)·RX(x).
    let yx = [
        [
            rx[0][0].scale(cy) - rx[1][0].scale(sy),
            rx[0][1].scale(cy) - rx[1][1].scale(sy),
        ],
        [
            rx[0][0].scale(sy) + rx[1][0].scale(cy),
            rx[0][1].scale(sy) + rx[1][1].scale(cy),
        ],
    ];
    // RZ(z)·(RY·RX): row 0 × e^{-iz/2}, row 1 × e^{iz/2}.
    let (z0, z1) = (Complex::from_polar(-z / 2.0), Complex::from_polar(z / 2.0));
    m[(0, 0)] = z0 * yx[0][0];
    m[(0, 1)] = z0 * yx[0][1];
    m[(1, 0)] = z1 * yx[1][0];
    m[(1, 1)] = z1 * yx[1][1];
}

/// Writes `U3(θ, φ, λ)` (OpenQASM convention) into a 2×2 scratch matrix.
fn write_u3(m: &mut Matrix, theta: f64, phi: f64, lambda: f64) {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    m[(0, 0)] = Complex::real(c);
    m[(0, 1)] = -(Complex::from_polar(lambda).scale(s));
    m[(1, 0)] = Complex::from_polar(phi).scale(s);
    m[(1, 1)] = Complex::from_polar(phi + lambda).scale(c);
}

/// Checks a compiled wQasm program. If `reference` is given, the register
/// is small enough (≤ [`UnitaryBuilder::MAX_QUBITS`] qubits) and the local
/// checks found nothing, additionally checks that the reconstructed circuit
/// is equivalent to it.
///
/// The equivalence check is probabilistic (random-stimuli checking after
/// Burgholzer, Kueng and Wille, ASP-DAC 2021): both circuits run on the
/// same [`STIMULI`] states in O(`STIMULI`·2ⁿ) memory, the global phase is
/// aligned on the largest-magnitude amplitude of the first stimulus, and
/// every amplitude must then agree within 1e-7. Each stimulus amplitude is
/// `e^{iθ}` with a seeded θ and the stimuli are not normalized, so an error
/// of size ε in one gate moves the outputs by about ε at every register
/// size (normalized states would shrink it by 2^{−n/2}). The seed is a
/// BLAKE2s fingerprint of `reference`, so a check gives the same verdict
/// on every run and thread.
pub fn check(program: &Program, params: &FpqaParams, reference: Option<&Circuit>) -> CheckReport {
    let mut report = CheckReport::default();
    let n = program.num_qubits();
    let mut device = FpqaDevice::new(params.clone());
    let mut reconstructed = Circuit::new(n);
    let mut raman = RamanComparator::new();

    // Flatten (statement index, statement) with annotations in place.
    let statements = &program.statements;
    let mut i = 0usize;
    while i < statements.len() {
        match &statements[i] {
            Statement::Standalone(a) => {
                apply_setup_or_motion(
                    a,
                    i,
                    &mut device,
                    &mut report,
                    // A standalone pulse annotation has no statement to
                    // implement — flag Rydberg/Raman here.
                    true,
                );
                i += 1;
            }
            Statement::GateCall {
                annotations,
                name,
                params: gate_params,
                qubits,
                ..
            } => {
                let mut consumed_extra = 0usize;
                let mut has_pulse = false;
                for a in annotations {
                    if a.is_pulse() {
                        has_pulse = true;
                    }
                    match a {
                        Annotation::Rydberg => {
                            consumed_extra = check_rydberg(
                                &device,
                                statements,
                                i,
                                &mut reconstructed,
                                &mut report,
                            );
                            report.pulses_checked += 1;
                        }
                        Annotation::RamanLocal { qubit, x, y, z } => {
                            check_raman_local(
                                (name, gate_params, qubits),
                                (qubit.index, *x, *y, *z),
                                i,
                                &mut raman,
                                &mut reconstructed,
                                &mut report,
                            );
                            report.pulses_checked += 1;
                        }
                        Annotation::RamanGlobal { x, y, z } => {
                            consumed_extra = check_raman_global(
                                statements,
                                i,
                                n,
                                (*x, *y, *z),
                                &mut raman,
                                &mut reconstructed,
                                &mut report,
                            );
                            report.pulses_checked += 1;
                        }
                        other => {
                            apply_setup_or_motion(other, i, &mut device, &mut report, false);
                        }
                    }
                }
                if !has_pulse {
                    // A gate statement must be realized by a pulse; gates
                    // consumed by a preceding global pulse are skipped via
                    // the index bump and never reach this point.
                    report.errors.push(CheckError {
                        statement: i,
                        message: format!("logical gate `{name}` has no FPQA realization"),
                    });
                }
                i += 1 + consumed_extra;
            }
            _ => {
                i += 1;
            }
        }
    }

    if let Some(reference) = reference {
        if n <= UnitaryBuilder::MAX_QUBITS && report.errors.is_empty() {
            let e = compare_on_stimuli(&reconstructed, reference);
            report.equivalence_checked = true;
            if !e.is_equivalent() {
                report.errors.push(CheckError {
                    statement: usize::MAX,
                    message: format!(
                        "reconstructed circuit is not equivalent to the reference on \
                         {STIMULI} random stimuli: {e:?}"
                    ),
                });
            }
        }
    }
    report.reconstructed = Some(reconstructed);
    report
}

/// Runs `circuit` and `reference` on the seeded stimuli of `reference` and
/// compares the outputs up to one global phase (see [`check`]).
fn compare_on_stimuli(circuit: &Circuit, reference: &Circuit) -> Equivalence {
    let n = reference.num_qubits();
    if circuit.num_qubits() != n {
        return Equivalence::ShapeMismatch;
    }
    let mut expected = stimuli(reference);
    let mut actual = expected.clone();
    run(reference, &mut expected);
    run(circuit, &mut actual);
    equiv::compare_amplitudes(actual.amplitudes(), expected.amplitudes(), 1 << n, TOL)
}

/// [`STIMULI`] states of `reference`'s register, stacked: stimulus `s` is
/// amplitudes `s·2ⁿ..(s + 1)·2ⁿ`, each `e^{iθ}` with θ drawn from a
/// splitmix64 stream seeded by the BLAKE2s fingerprint of `reference`.
fn stimuli(reference: &Circuit) -> State {
    let mut fp = Fingerprint::new();
    fp.usize(reference.num_qubits());
    for instr in reference.instructions() {
        fp.str(instr.gate.name()).usize(instr.qubits.len());
        for &q in &instr.qubits {
            fp.usize(q);
        }
        let params = instr.gate.params();
        fp.usize(params.len());
        for &p in params.iter() {
            fp.f64(p);
        }
    }
    let digest = fp.digest();
    let mut seed = [0u8; 8];
    seed.copy_from_slice(&digest.0[..8]);
    let mut state = u64::from_le_bytes(seed);
    let amplitudes = (0..STIMULI << reference.num_qubits())
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let uniform = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64;
            Complex::from_polar(std::f64::consts::TAU * uniform)
        })
        .collect();
    State::from_amplitudes(amplitudes)
}

/// Applies `circuit` gate by gate to every stimulus of `state` at once:
/// circuit qubit `q` is state qubit `q + log₂ STIMULI`.
fn run(circuit: &Circuit, state: &mut State) {
    let stacked = STIMULI.trailing_zeros() as usize;
    let mut targets = Vec::new();
    for instr in circuit.instructions() {
        targets.clear();
        targets.extend(instr.qubits.iter().map(|q| q + stacked));
        state.apply(&instr.gate.matrix(), &targets);
    }
}

/// Applies a setup/motion annotation to the checker's device, recording
/// violations.
fn apply_setup_or_motion(
    a: &Annotation,
    idx: usize,
    device: &mut FpqaDevice,
    report: &mut CheckReport,
    standalone: bool,
) {
    let mut fail = |message: String| {
        report.errors.push(CheckError {
            statement: idx,
            message,
        })
    };
    match a {
        Annotation::Slm { positions } => {
            let pts: Vec<weaver_fpqa::Point> =
                positions.iter().map(|&(x, y)| (x, y).into()).collect();
            if let Err(e) = device.init_slm(&pts) {
                fail(format!("@slm rejected: {e}"));
            }
        }
        Annotation::Aod { xs, ys } => {
            if let Err(e) = device.init_aod(xs, ys) {
                fail(format!("@aod rejected: {e}"));
            }
        }
        Annotation::Bind { qubit, target } => {
            let loc = match target {
                BindTarget::Slm(i) => Location::Slm(*i),
                BindTarget::Aod(c, r) => Location::Aod(*c, *r),
            };
            if let Err(e) = device.bind(qubit.index, loc) {
                fail(format!("@bind rejected: {e}"));
            }
        }
        Annotation::Transfer { slm_index, aod } => {
            report.motions_checked += 1;
            if let Err(e) = device.transfer(*slm_index, *aod) {
                fail(format!("@transfer rejected: {e}"));
            }
        }
        Annotation::Shuttle {
            axis,
            index,
            offset,
        } => {
            report.motions_checked += 1;
            let result = match axis {
                ShuttleAxis::Row => device.shuttle_row(*index, *offset),
                ShuttleAxis::Column => device.shuttle_column(*index, *offset),
            };
            if let Err(e) = result {
                fail(format!("@shuttle rejected: {e}"));
            }
        }
        Annotation::Rydberg | Annotation::RamanGlobal { .. } | Annotation::RamanLocal { .. } => {
            if standalone {
                fail("pulse annotation attached to no gate statement".to_string());
            }
        }
        Annotation::Other { .. } => {}
    }
}

/// Validates a `@rydberg` pulse: the device's interaction groups must match
/// the annotated statement plus immediately following unannotated
/// entangling statements. Returns how many extra statements were consumed.
fn check_rydberg(
    device: &FpqaDevice,
    statements: &[Statement],
    idx: usize,
    reconstructed: &mut Circuit,
    report: &mut CheckReport,
) -> usize {
    let groups = match device.rydberg_groups() {
        Ok(g) => g,
        Err(e) => {
            report.errors.push(CheckError {
                statement: idx,
                message: format!("@rydberg invalid: {e}"),
            });
            return 0;
        }
    };
    if groups.is_empty() {
        report.errors.push(CheckError {
            statement: idx,
            message: "@rydberg fires with no atoms in interaction range".to_string(),
        });
        return 0;
    }
    // Gather the logical gates this pulse claims to implement.
    let mut claimed: Vec<(usize, Vec<usize>)> = Vec::new(); // (stmt idx, sorted qubits)
    let mut consumed = 0usize;
    for (offset, stmt) in statements[idx..].iter().enumerate() {
        match stmt {
            Statement::GateCall {
                annotations,
                name,
                qubits,
                ..
            } if offset == 0 || annotations.is_empty() => {
                if name != "cz" && name != "ccz" {
                    break;
                }
                let mut qs: Vec<usize> = qubits.iter().map(|q| q.index).collect();
                qs.sort_unstable();
                claimed.push((idx + offset, qs));
                if offset > 0 {
                    consumed += 1;
                }
                if claimed.len() == groups.len() {
                    break;
                }
            }
            _ => break,
        }
    }
    let mut actual: Vec<Vec<usize>> = groups
        .iter()
        .map(|g| {
            let mut v = g.clone();
            v.sort_unstable();
            v
        })
        .collect();
    actual.sort();
    let mut claimed_sets: Vec<Vec<usize>> = claimed.iter().map(|(_, q)| q.clone()).collect();
    claimed_sets.sort();
    if claimed_sets != actual {
        report.errors.push(CheckError {
            statement: idx,
            message: format!(
                "@rydberg implements {actual:?} but the program claims {claimed_sets:?}"
            ),
        });
    }
    // Reconstruct gates from the *physical* groups (pulse-to-gate).
    for group in &groups {
        match group.len() {
            2 => {
                reconstructed.push(Gate::Cz, group);
            }
            3 => {
                reconstructed.push(Gate::Ccz, group);
            }
            k => {
                reconstructed.push(Gate::CnZ(k - 1), group);
            }
        }
    }
    consumed
}

/// Validates a `@raman local` pulse against its `u3` statement.
fn check_raman_local(
    stmt: (&str, &[f64], &[weaver_wqasm::QubitRef]),
    pulse: (usize, f64, f64, f64),
    idx: usize,
    raman: &mut RamanComparator,
    reconstructed: &mut Circuit,
    report: &mut CheckReport,
) {
    let (name, params, qubits) = stmt;
    let (pulse_qubit, x, y, z) = pulse;
    if name != "u3" || params.len() != 3 || qubits.len() != 1 {
        report.errors.push(CheckError {
            statement: idx,
            message: format!("@raman local attached to `{name}`, expected a u3 statement"),
        });
        return;
    }
    if qubits[0].index != pulse_qubit {
        report.errors.push(CheckError {
            statement: idx,
            message: format!(
                "@raman local addresses q[{pulse_qubit}] but the gate acts on {}",
                qubits[0]
            ),
        });
        return;
    }
    if !raman.matches((x, y, z), (params[0], params[1], params[2])) {
        report.errors.push(CheckError {
            statement: idx,
            message: format!(
                "@raman local angles ({x:.4}, {y:.4}, {z:.4}) do not implement \
                 u3({:.4}, {:.4}, {:.4})",
                params[0], params[1], params[2]
            ),
        });
        return;
    }
    reconstructed.push(
        Gate::U3(params[0], params[1], params[2]),
        &[qubits[0].index],
    );
}

/// Validates a `@raman global` pulse: the annotated statement plus the
/// following unannotated `u3` statements must cover every qubit with the
/// same unitary. Returns extra statements consumed.
///
/// The segment's `u3` statements are gathered first and their matrix
/// comparisons run in one contiguous batch over the shared
/// [`RamanComparator`] — one comparison per *distinct* parameter triple
/// instead of one (with two matrix allocations) per statement.
fn check_raman_global(
    statements: &[Statement],
    idx: usize,
    n: usize,
    (x, y, z): (f64, f64, f64),
    raman: &mut RamanComparator,
    reconstructed: &mut Circuit,
    report: &mut CheckReport,
) -> usize {
    let mut covered: Vec<bool> = vec![false; n];
    let mut consumed = 0usize;
    let mut count = 0usize;
    // (offset, θ, φ, λ, qubit) per statement the pulse claims to implement.
    let mut instructions: Vec<(usize, f64, f64, f64, usize)> = Vec::new();
    for (offset, stmt) in statements[idx..].iter().enumerate() {
        match stmt {
            Statement::GateCall {
                annotations,
                name,
                params,
                qubits,
            } if offset == 0 || annotations.is_empty() => {
                if name != "u3" || params.len() != 3 || qubits.len() != 1 {
                    break;
                }
                let q = qubits[0].index;
                if q < n {
                    covered[q] = true;
                }
                instructions.push((offset, params[0], params[1], params[2], q));
                count += 1;
                if offset > 0 {
                    consumed += 1;
                }
                if count == n {
                    break;
                }
            }
            _ => break,
        }
    }
    // One contiguous comparison pass over the gathered segment.
    for &(offset, t, p, l, q) in &instructions {
        if !raman.matches((x, y, z), (t, p, l)) {
            report.errors.push(CheckError {
                statement: idx + offset,
                message: format!("@raman global pulse does not implement u3 on q[{q}]"),
            });
        }
    }
    if !covered.iter().all(|&c| c) {
        report.errors.push(CheckError {
            statement: idx,
            message: format!(
                "@raman global rotates every atom, but only {count} of {n} qubits have \
                 matching logical gates"
            ),
        });
    }
    for (_, t, p, l, q) in instructions {
        if q < n {
            reconstructed.push(Gate::U3(t, p, l), &[q]);
        }
    }
    consumed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::{compile_formula, CodegenOptions};
    use weaver_sat::{qaoa::QaoaParams, Clause, Formula, Lit};

    fn small_formula() -> Formula {
        Formula::new(
            4,
            vec![
                Clause::new(vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)]),
                Clause::new(vec![Lit::pos(1), Lit::neg(3)]),
            ],
        )
    }

    fn compile(measure: bool) -> (Formula, crate::codegen::CompiledFpqa) {
        let f = small_formula();
        let opts = CodegenOptions {
            measure,
            ..CodegenOptions::default()
        };
        let out = compile_formula(&f, &FpqaParams::default(), &opts);
        (f, out)
    }

    #[test]
    fn accepts_compiler_output() {
        let (f, out) = compile(false);
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let report = check(&out.program, &FpqaParams::default(), Some(&reference));
        assert!(report.passed(), "{:?}", report.errors);
        assert!(report.equivalence_checked);
        assert!(report.pulses_checked > 0);
        assert!(report.motions_checked > 0);
    }

    #[test]
    fn accepts_uncompressed_output() {
        let f = small_formula();
        let opts = CodegenOptions {
            compression: false,
            measure: false,
            ..CodegenOptions::default()
        };
        let out = compile_formula(&f, &FpqaParams::default(), &opts);
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let report = check(&out.program, &FpqaParams::default(), Some(&reference));
        assert!(report.passed(), "{:?}", report.errors);
    }

    #[test]
    fn detects_perturbed_raman_angle() {
        let (f, out) = compile(false);
        let mut program = out.program.clone();
        // Find a raman local annotation and corrupt its z angle.
        let mut corrupted = false;
        for stmt in &mut program.statements {
            if let Statement::GateCall { annotations, .. } = stmt {
                for a in annotations {
                    if let Annotation::RamanLocal { z, .. } = a {
                        *z += 0.5;
                        corrupted = true;
                        break;
                    }
                }
            }
            if corrupted {
                break;
            }
        }
        assert!(corrupted, "no raman local annotation found");
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let report = check(&program, &FpqaParams::default(), Some(&reference));
        assert!(!report.passed());
        assert!(report
            .errors
            .iter()
            .any(|e| e.message.contains("raman local")));
    }

    #[test]
    fn detects_corrupted_shuttle_offset() {
        let (f, out) = compile(false);
        let mut program = out.program.clone();
        let mut corrupted = false;
        for stmt in &mut program.statements {
            if let Statement::GateCall { annotations, .. } = stmt {
                for a in annotations {
                    if let Annotation::Shuttle { offset, .. } = a {
                        *offset += 13.0; // atoms end up in the wrong place
                        corrupted = true;
                        break;
                    }
                }
            }
            if corrupted {
                break;
            }
        }
        assert!(corrupted, "no shuttle annotation found");
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let report = check(&program, &FpqaParams::default(), Some(&reference));
        assert!(
            !report.passed(),
            "corrupted shuttle must break transfer targets or rydberg groups"
        );
    }

    #[test]
    fn detects_dropped_rydberg_annotation() {
        let (f, out) = compile(false);
        let mut program = out.program.clone();
        let mut dropped = false;
        for stmt in &mut program.statements {
            if let Statement::GateCall { annotations, .. } = stmt {
                let before = annotations.len();
                annotations.retain(|a| !matches!(a, Annotation::Rydberg));
                if annotations.len() != before {
                    dropped = true;
                    break;
                }
            }
        }
        assert!(dropped);
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let report = check(&program, &FpqaParams::default(), Some(&reference));
        assert!(!report.passed());
        assert!(report
            .errors
            .iter()
            .any(|e| e.message.contains("no FPQA realization")));
    }

    #[test]
    fn detects_wrong_reference_circuit() {
        let (_, out) = compile(false);
        // Reference with one extra gate: the equivalence check must fail.
        let f = small_formula();
        let mut reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        reference.z(0);
        let report = check(&out.program, &FpqaParams::default(), Some(&reference));
        assert!(!report.passed());
        assert!(report.equivalence_checked);
    }

    #[test]
    fn raman_comparator_agrees_with_gate_matrices() {
        // The batched scratch-matrix path must agree with the reference
        // construction (gates::raman / gates::u3 + equiv::compare) on a
        // grid of angle combinations spanning matches and mismatches.
        use weaver_simulator::gates;
        let angles = [-2.0, -0.7, 0.0, 0.3, 1.0, std::f64::consts::PI];
        let mut comparator = super::RamanComparator::new();
        let mut checked = 0usize;
        let mut matched = 0usize;
        for &x in &angles {
            for &y in &angles {
                for &z in &angles {
                    // Scratch construction must reproduce the gate library.
                    let mut pulse = weaver_simulator::Matrix::zeros(2, 2);
                    super::write_raman(&mut pulse, x, y, z);
                    assert!(pulse.approx_eq(&gates::raman(x, y, z), 1e-12));
                    let mut logical = weaver_simulator::Matrix::zeros(2, 2);
                    super::write_u3(&mut logical, x, y, z);
                    assert!(logical.approx_eq(&gates::u3(x, y, z), 1e-12));
                    // Verdicts must match the per-entry path, twice (the
                    // second call exercises the memo).
                    for (t, p, l) in [(x, y, z), (y, z, x), (0.0, 0.0, 0.0)] {
                        let reference =
                            equiv::compare(&gates::raman(x, y, z), &gates::u3(t, p, l), 1e-7)
                                .is_equivalent();
                        assert_eq!(comparator.matches((x, y, z), (t, p, l)), reference);
                        assert_eq!(comparator.matches((x, y, z), (t, p, l)), reference);
                        checked += 1;
                        matched += reference as usize;
                    }
                }
            }
        }
        assert!(checked > 0 && matched > 0 && matched < checked);
    }

    #[test]
    fn reconstructed_circuit_exposed() {
        let (_, out) = compile(false);
        let report = check(&out.program, &FpqaParams::default(), None);
        assert!(report.passed(), "{:?}", report.errors);
        let rec = report.reconstructed.expect("reconstruction");
        assert!(rec.gate_count() > 0);
        assert!(rec
            .instructions()
            .all(|i| matches!(i.gate, Gate::U3(..) | Gate::Cz | Gate::Ccz | Gate::CnZ(_))));
    }
}
