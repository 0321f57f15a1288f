//! Output checks that do not trust the compiler under test: programs are
//! parsed again and held against the device description, the gate basis,
//! the paper's applicability table, or bytes recorded earlier.

use weaver_bench::{CompilerId, RunOutcome};
use weaver_superconducting::DeviceSpec;
use weaver_wqasm::ast::Statement;

/// Every two-qubit gate of a superconducting artifact lies on an edge of
/// the target device's coupling map, and no gate is wider.
pub fn sc_routed(wqasm: &str, target: &str) -> Result<(), String> {
    let coupling = DeviceSpec::resolve(target)?.coupling();
    let program = weaver_wqasm::parse(wqasm).map_err(|e| format!("reparse: {e}"))?;
    for statement in &program.statements {
        if let Statement::GateCall { name, qubits, .. } = statement {
            match qubits.as_slice() {
                [_] => {}
                [a, b] => {
                    let in_range = a.index.max(b.index) < coupling.num_qubits();
                    if !in_range || !coupling.are_coupled(a.index, b.index) {
                        return Err(format!("{name} {a}, {b} is not a {target} edge"));
                    }
                }
                _ => return Err(format!("{name} acts on {} qubits", qubits.len())),
            }
        }
    }
    Ok(())
}

/// A simulator artifact uses only U3 and CZ on `qubits` qubits and
/// reports `0 < eps ≤ 1`.
pub fn simulator_native(wqasm: &str, qubits: usize, eps: f64) -> Result<(), String> {
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(format!("eps {eps} outside (0, 1]"));
    }
    let program = weaver_wqasm::parse(wqasm).map_err(|e| format!("reparse: {e}"))?;
    for statement in &program.statements {
        match statement {
            Statement::QregDecl { size, .. } if *size != qubits => {
                return Err(format!("register of {size} qubits, expected {qubits}"));
            }
            Statement::GateCall {
                name, qubits: q, ..
            } => {
                if name != "u3" && name != "cz" {
                    return Err(format!("gate `{name}` outside {{U3, CZ}}"));
                }
                if let Some(r) = q.iter().find(|r| r.index >= qubits) {
                    return Err(format!("{name} on {r} beyond {qubits} qubits"));
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// An FPQA artifact parses again as wQasm and carries a passing wChecker
/// verdict.
pub fn fpqa_checked(wqasm: &str, check_passed: Option<bool>) -> Result<(), String> {
    weaver_wqasm::parse(wqasm).map_err(|e| format!("reparse: {e}"))?;
    match check_passed {
        Some(true) => Ok(()),
        Some(false) => Err("wChecker rejected the program".to_string()),
        None => Err("no wChecker verdict".to_string()),
    }
}

/// Checks an artifact of any target.
pub fn artifact(
    target: &str,
    wqasm: &str,
    qubits: usize,
    eps: f64,
    check_passed: Option<bool>,
    expect_check: bool,
) -> Result<(), String> {
    if target.starts_with("sc:") {
        sc_routed(wqasm, target)
    } else if target == "simulator" {
        simulator_native(wqasm, qubits, eps)
    } else if expect_check {
        fpqa_checked(wqasm, check_passed)
    } else {
        weaver_wqasm::parse(wqasm)
            .map(|_| ())
            .map_err(|e| format!("reparse: {e}"))
    }
}

/// The paper's applicability table (Fig. 8): superconducting is `—`
/// above 127 variables, DPQA and Geyser are `✗` above 20, Weaver and
/// Atomique complete at every size.
pub fn sweep_outcome(system: CompilerId, size: usize, outcome: &RunOutcome) -> Result<(), String> {
    let ok = match (system, outcome) {
        (CompilerId::Superconducting, RunOutcome::Done(_)) => size <= 127,
        (CompilerId::Superconducting, RunOutcome::NotApplicable(_)) => size > 127,
        (CompilerId::Dpqa | CompilerId::Geyser, RunOutcome::Done(_)) => size <= 20,
        (CompilerId::Dpqa | CompilerId::Geyser, RunOutcome::TimedOut(_)) => size > 20,
        (CompilerId::Weaver | CompilerId::Atomique, RunOutcome::Done(_)) => true,
        _ => false,
    };
    let sane = match outcome {
        RunOutcome::Done(m) => m.execution_micros > 0.0 && (0.0..=1.0).contains(&m.eps),
        _ => true,
    };
    if ok && sane {
        Ok(())
    } else {
        Err(format!(
            "{} at {size} vars: {}",
            system.name(),
            outcome.cell(|m| format!("exec {} us, eps {}", m.execution_micros, m.eps))
        ))
    }
}

/// FNV-1a over `bytes`: the benchmark's own fingerprint of artifact text.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_core::Weaver;
    use weaver_sat::generator;

    #[test]
    fn routed_circuits_pass_and_off_edge_gates_fail() {
        let f = generator::instance(12, 1);
        let out = Weaver::new().compile_target("sc:heron", &f).unwrap();
        let text = out.artifact.print_wqasm();
        sc_routed(&text, "sc:heron").unwrap();
        // Qubits 0 and 100 of a heavy-hex device are never coupled.
        let bad = "OPENQASM 3.0;\nqreg q[133];\ncz q[0], q[100];\n";
        assert!(sc_routed(bad, "sc:heron").is_err());
    }

    #[test]
    fn simulator_basis_is_enforced() {
        let ok = "OPENQASM 3.0;\nqreg q[2];\nu3(0.1, 0.2, 0.3) q[0];\ncz q[0], q[1];\n";
        simulator_native(ok, 2, 0.5).unwrap();
        assert!(simulator_native(ok, 3, 0.5).is_err(), "wrong width");
        assert!(
            simulator_native(ok, 2, 0.0).is_err(),
            "eps must be positive"
        );
        let cx = "OPENQASM 3.0;\nqreg q[2];\ncx q[0], q[1];\n";
        assert!(simulator_native(cx, 2, 0.5).is_err());
    }

    #[test]
    fn applicability_table() {
        let done = RunOutcome::Done(weaver_core::Metrics {
            compilation_seconds: 0.1,
            execution_micros: 5.0,
            eps: 0.5,
            pulses: 1,
            motion_ops: 1,
            steps: 1,
        });
        let timeout = RunOutcome::TimedOut("budget".into());
        let na = RunOutcome::NotApplicable("too wide".into());
        assert!(sweep_outcome(CompilerId::Superconducting, 100, &done).is_ok());
        assert!(sweep_outcome(CompilerId::Superconducting, 150, &na).is_ok());
        assert!(sweep_outcome(CompilerId::Superconducting, 150, &done).is_err());
        assert!(sweep_outcome(CompilerId::Dpqa, 20, &done).is_ok());
        assert!(sweep_outcome(CompilerId::Geyser, 50, &timeout).is_ok());
        assert!(sweep_outcome(CompilerId::Dpqa, 50, &done).is_err());
        assert!(sweep_outcome(CompilerId::Weaver, 250, &timeout).is_err());
    }
}
