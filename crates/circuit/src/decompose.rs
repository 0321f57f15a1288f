//! Standard gate decompositions.
//!
//! These are the textbook identities the nativizer chains together:
//! `CX = (I⊗H)·CZ·(I⊗H)`, the 6-CNOT Toffoli, `SWAP = 3×CX`, and the
//! 2-CNOT controlled-RZ. Every decomposition is unit-tested for exact
//! unitary equivalence (up to global phase).

use crate::{Circuit, Gate, Instruction};

/// Expands one instruction into an equivalent sequence over simpler gates.
/// Gates that are already elementary are returned unchanged.
pub fn decompose_instruction(instr: &Instruction) -> Vec<Instruction> {
    let q = &instr.qubits;
    match instr.gate {
        Gate::Cx => vec![
            Instruction::new(Gate::H, vec![q[1]]),
            Instruction::new(Gate::Cz, vec![q[0], q[1]]),
            Instruction::new(Gate::H, vec![q[1]]),
        ],
        Gate::Swap => vec![
            Instruction::new(Gate::Cx, vec![q[0], q[1]]),
            Instruction::new(Gate::Cx, vec![q[1], q[0]]),
            Instruction::new(Gate::Cx, vec![q[0], q[1]]),
        ],
        Gate::Crz(theta) => vec![
            Instruction::new(Gate::Rz(theta / 2.0), vec![q[1]]),
            Instruction::new(Gate::Cx, vec![q[0], q[1]]),
            Instruction::new(Gate::Rz(-theta / 2.0), vec![q[1]]),
            Instruction::new(Gate::Cx, vec![q[0], q[1]]),
        ],
        Gate::Ccx => ccx_to_cx(q[0], q[1], q[2]),
        Gate::Ccz => {
            // CCZ = (I⊗I⊗H) · CCX · (I⊗I⊗H)
            let mut seq = vec![Instruction::new(Gate::H, vec![q[2]])];
            seq.extend(ccx_to_cx(q[0], q[1], q[2]));
            seq.push(Instruction::new(Gate::H, vec![q[2]]));
            seq
        }
        Gate::CnZ(n) => cnz_to_elementary(q, n),
        _ => vec![instr.clone()],
    }
}

/// The standard 6-CNOT Toffoli decomposition (Nielsen & Chuang Fig. 4.9).
fn ccx_to_cx(a: usize, b: usize, c: usize) -> Vec<Instruction> {
    vec![
        Instruction::new(Gate::H, vec![c]),
        Instruction::new(Gate::Cx, vec![b, c]),
        Instruction::new(Gate::Tdg, vec![c]),
        Instruction::new(Gate::Cx, vec![a, c]),
        Instruction::new(Gate::T, vec![c]),
        Instruction::new(Gate::Cx, vec![b, c]),
        Instruction::new(Gate::Tdg, vec![c]),
        Instruction::new(Gate::Cx, vec![a, c]),
        Instruction::new(Gate::T, vec![b]),
        Instruction::new(Gate::T, vec![c]),
        Instruction::new(Gate::H, vec![c]),
        Instruction::new(Gate::Cx, vec![a, b]),
        Instruction::new(Gate::T, vec![a]),
        Instruction::new(Gate::Tdg, vec![b]),
        Instruction::new(Gate::Cx, vec![a, b]),
    ]
}

/// Recursive multi-controlled-Z lowering: `CⁿZ` on `n+1` qubits becomes
/// `CRZ`-ladder style phase gadgets. For `n ≤ 2` the native decompositions
/// apply; larger `n` uses the standard recursion
/// `CⁿZ = (CRZ chain)` via controlled-phase splitting.
fn cnz_to_elementary(q: &[usize], n: usize) -> Vec<Instruction> {
    match n {
        1 => vec![Instruction::new(Gate::Cz, vec![q[0], q[1]])],
        2 => vec![Instruction::new(Gate::Ccz, vec![q[0], q[1], q[2]])],
        _ => {
            // C^nZ(q0..qn) = phase-gadget recursion:
            //   C^nZ = (I ⊗ C^{n-1}P(π/2-gadget)) using
            //   CP(θ) split: CP on (a, rest) = P(θ/2) a; CX; P(-θ/2); CX; ...
            // We use the textbook linear recursion with CRZ-like splitting:
            //   C^nZ = C^{n-1}P(π) on the last n qubits controlled by q0
            // implemented as:
            //   C^{n-1}RZ(π/2) [on q1..qn]
            //   CX q0,q1-chain conjugation
            // For practical purposes here (n ≤ a few), expand via the
            // standard identity:
            //   C^nZ = C^{n-1}Z-controlled phase using one ancilla-free
            //   quadratic construction of Barenco et al.
            barenco_cnz(q)
        }
    }
}

/// Ancilla-free recursive construction for `CⁿZ` with `n ≥ 3`, via the
/// textbook controlled-phase split
/// `CᵏP(θ) = CP_{cₖ,t}(θ/2) · C^{k-1}X(c₁..cₖ₋₁→cₖ) · CP_{cₖ,t}(-θ/2) ·
/// C^{k-1}X(c₁..cₖ₋₁→cₖ) · C^{k-1}P_{c₁..cₖ₋₁,t}(θ/2)`, with
/// `CᵏX = H·CᵏP(π)·H`. Exponential in `n` but only exercised for the small
/// `n` appearing in tests — Max-3SAT needs at most `n = 2`.
fn barenco_cnz(q: &[usize]) -> Vec<Instruction> {
    /// Controlled-phase of angle θ on `target` with the given controls.
    fn emit_cp(controls: &[usize], target: usize, theta: f64, out: &mut Vec<Instruction>) {
        match controls.len() {
            0 => out.push(Instruction::new(Gate::P(theta), vec![target])),
            1 => {
                // CP(θ) = P(θ/2) t; CX c,t; P(-θ/2) t; CX c,t; P(θ/2) c
                let c = controls[0];
                out.push(Instruction::new(Gate::P(theta / 2.0), vec![target]));
                out.push(Instruction::new(Gate::Cx, vec![c, target]));
                out.push(Instruction::new(Gate::P(-theta / 2.0), vec![target]));
                out.push(Instruction::new(Gate::Cx, vec![c, target]));
                out.push(Instruction::new(Gate::P(theta / 2.0), vec![c]));
            }
            _ => {
                let (last, rest) = controls.split_last().expect("non-empty");
                emit_cp(&[*last], target, theta / 2.0, out);
                emit_mcx(rest, *last, out);
                emit_cp(&[*last], target, -theta / 2.0, out);
                emit_mcx(rest, *last, out);
                emit_cp(rest, target, theta / 2.0, out);
            }
        }
    }

    /// Multi-controlled X.
    fn emit_mcx(controls: &[usize], target: usize, out: &mut Vec<Instruction>) {
        match controls.len() {
            0 => out.push(Instruction::new(Gate::X, vec![target])),
            1 => out.push(Instruction::new(Gate::Cx, vec![controls[0], target])),
            2 => out.push(Instruction::new(
                Gate::Ccx,
                vec![controls[0], controls[1], target],
            )),
            _ => {
                // CᵏX = H t · CᵏP(π) · H t; emit_cp recurses with k-1
                // controls in its mcx calls, so this terminates.
                out.push(Instruction::new(Gate::H, vec![target]));
                emit_cp(controls, target, std::f64::consts::PI, out);
                out.push(Instruction::new(Gate::H, vec![target]));
            }
        }
    }

    let (target, controls) = q.split_last().expect("CnZ has at least two qubits");
    let mut out = Vec::new();
    emit_cp(controls, *target, std::f64::consts::PI, &mut out);
    out
}

/// Whether `gate` is in the elementary set `{1-qubit, CZ, CX}` (plus `CCZ`
/// if `keep_ccz` is set) that [`decompose_circuit`] lowers to.
pub(crate) fn is_elementary(gate: &Gate, keep_ccz: bool) -> bool {
    match gate {
        Gate::Cx | Gate::Cz => true,
        Gate::Ccz => keep_ccz,
        g => g.num_qubits() == 1,
    }
}

/// Applies [`decompose_instruction`] across a circuit until it reaches a
/// fixpoint over the elementary set `{1-qubit, CZ, CX}` (keeping `CCZ` if
/// `keep_ccz` is set, as the FPQA backend supports it natively).
pub fn decompose_circuit(circuit: &Circuit, keep_ccz: bool) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for op in circuit.operations() {
        match op {
            crate::Operation::Gate(instr) => {
                let mut stack = vec![instr.clone()];
                while let Some(i) = stack.pop() {
                    if is_elementary(&i.gate, keep_ccz) {
                        out.push(i.gate.clone(), &i.qubits);
                    } else {
                        // push expansion in reverse so it pops in order
                        for e in decompose_instruction(&i).into_iter().rev() {
                            stack.push(e);
                        }
                    }
                }
            }
            other => {
                out.push_op(other.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_simulator::equiv;

    const TOL: f64 = 1e-9;

    fn assert_equiv(original: &Circuit, decomposed: &Circuit) {
        let e = equiv::compare(&original.unitary(), &decomposed.unitary(), TOL);
        assert!(e.is_equivalent(), "decomposition changed semantics: {e:?}");
    }

    #[test]
    fn cx_via_cz() {
        let instr = Instruction::new(Gate::Cx, vec![0, 1]);
        let seq = decompose_instruction(&instr);
        assert!(seq.iter().all(|i| matches!(i.gate, Gate::H | Gate::Cz)));
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let mut d = Circuit::new(2);
        for i in seq {
            d.push(i.gate.clone(), &i.qubits);
        }
        assert_equiv(&c, &d);
    }

    #[test]
    fn swap_via_cx() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let d = decompose_circuit(&c, false);
        assert_equiv(&c, &d);
    }

    #[test]
    fn crz_via_cx() {
        let mut c = Circuit::new(2);
        c.push(Gate::Crz(0.77), &[0, 1]);
        let d = decompose_circuit(&c, false);
        assert_equiv(&c, &d);
    }

    #[test]
    fn ccx_six_cnot() {
        let mut c = Circuit::new(3);
        c.ccx(0, 1, 2);
        let d = decompose_circuit(&c, false);
        assert_eq!(
            d.instructions()
                .filter(|i| i.gate.num_qubits() == 2)
                .count(),
            6,
            "standard Toffoli decomposition uses exactly 6 CNOTs"
        );
        assert_equiv(&c, &d);
    }

    #[test]
    fn ccz_with_and_without_native_support() {
        let mut c = Circuit::new(3);
        c.ccz(0, 1, 2);
        let native = decompose_circuit(&c, true);
        assert_eq!(native.gate_count(), 1);
        let lowered = decompose_circuit(&c, false);
        assert!(lowered.gate_count() > 1);
        assert_equiv(&c, &lowered);
    }

    #[test]
    fn ccx_on_permuted_qubits() {
        let mut c = Circuit::new(4);
        c.ccx(3, 1, 0);
        let d = decompose_circuit(&c, false);
        assert_equiv(&c, &d);
    }

    #[test]
    fn c3z_lowering_is_correct() {
        let mut c = Circuit::new(4);
        c.push(Gate::CnZ(3), &[0, 1, 2, 3]);
        let d = decompose_circuit(&c, true);
        assert!(d.instructions().all(|i| i.gate.num_qubits() <= 3));
        assert_equiv(&c, &d);
    }

    #[test]
    fn nested_decomposition_terminates() {
        let mut c = Circuit::new(3);
        c.swap(0, 2).ccx(0, 1, 2).cx(1, 2);
        let d = decompose_circuit(&c, false);
        assert!(d
            .instructions()
            .all(|i| i.gate.num_qubits() == 1 || matches!(i.gate, Gate::Cx | Gate::Cz)));
        assert_equiv(&c, &d);
    }
}
