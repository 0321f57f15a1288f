//! Native gate synthesis (paper §3a / §7).
//!
//! Weaver lowers every input circuit to a *native circuit* over the basis
//! `B = {U3, CZ}` shared by superconducting and FPQA technologies; the FPQA
//! path may additionally keep `CCZ`, which Rydberg pulses implement natively.
//! Runs of single-qubit gates are fused into a single `U3` via Euler
//! decomposition, so the native circuit is canonical and minimal in 1-qubit
//! gate count.

use crate::decompose::{decompose_instruction, is_elementary};
use crate::euler::{decompose_u3, is_identity_u3};
use crate::{Circuit, Gate, Operation};
use weaver_simulator::Mat2;

/// The target native basis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum NativeBasis {
    /// `{U3, CZ}` — the common denominator of both technologies.
    #[default]
    U3Cz,
    /// `{U3, CZ, CCZ}` — FPQA path, keeping native 3-qubit gates.
    U3CzCcz,
}

impl NativeBasis {
    /// Whether a gate is native in this basis.
    pub fn contains(self, gate: &Gate) -> bool {
        match gate {
            Gate::U3(..) => true,
            Gate::Cz => true,
            Gate::Ccz => self == NativeBasis::U3CzCcz,
            _ => false,
        }
    }
}

/// Lowers `circuit` to the chosen native basis, fusing single-qubit runs
/// into canonical `U3` gates and cancelling identity rotations.
///
/// # Examples
///
/// ```
/// use weaver_circuit::{native, Circuit, NativeBasis};
/// let mut c = Circuit::new(2);
/// c.h(0).t(0).cx(0, 1);
/// let n = native::nativize(&c, NativeBasis::U3Cz);
/// assert!(n
///     .instructions()
///     .all(|i| matches!(i.gate, weaver_circuit::Gate::U3(..) | weaver_circuit::Gate::Cz)));
/// ```
pub fn nativize(circuit: &Circuit, basis: NativeBasis) -> Circuit {
    // Decompose to the elementary set {1q, CX, CZ, (CCZ)} on the fly:
    // elementary gates go straight to the fuser, the rest expand through
    // one reused work stack, in `decompose_circuit`'s order.
    let keep_ccz = basis == NativeBasis::U3CzCcz;
    let mut fuser = SingleQubitFuser::new(circuit.num_qubits());
    let mut out = Circuit::new(circuit.num_qubits());
    let mut stack = Vec::new();

    for op in circuit.operations() {
        match op {
            Operation::Gate(instr) if is_elementary(&instr.gate, keep_ccz) => {
                fuser.lower(&instr.gate, &instr.qubits, &mut out);
            }
            Operation::Gate(instr) => {
                stack.extend(decompose_instruction(instr).into_iter().rev());
                while let Some(i) = stack.pop() {
                    if is_elementary(&i.gate, keep_ccz) {
                        fuser.lower(&i.gate, &i.qubits, &mut out);
                    } else {
                        stack.extend(decompose_instruction(&i).into_iter().rev());
                    }
                }
            }
            Operation::Measure(q) => {
                fuser.flush(*q, &mut out);
                out.measure(*q);
            }
            Operation::Barrier(scope) => {
                if scope.is_empty() {
                    fuser.flush_all(&mut out);
                } else {
                    for &q in scope {
                        fuser.flush(q, &mut out);
                    }
                }
                out.push_op(Operation::Barrier(scope.clone()));
            }
        }
    }
    fuser.flush_all(&mut out);
    out
}

/// Accumulates pending single-qubit unitaries per wire and emits them as
/// fused `U3` gates on demand. The products live on the stack.
struct SingleQubitFuser {
    pending: Vec<Option<Mat2>>,
}

impl SingleQubitFuser {
    fn new(num_qubits: usize) -> Self {
        SingleQubitFuser {
            pending: vec![None; num_qubits],
        }
    }

    /// Lowers one elementary gate: CX becomes H-conjugated CZ so only
    /// CZ/CCZ remain as entanglers, and 1-qubit gates join their wire's
    /// pending run.
    fn lower(&mut self, gate: &Gate, qubits: &[usize], out: &mut Circuit) {
        match gate {
            Gate::Cx => {
                let (c, t) = (qubits[0], qubits[1]);
                self.absorb(t, Mat2::h());
                self.flush(c, out);
                self.flush(t, out);
                out.push(Gate::Cz, &[c, t]);
                self.absorb(t, Mat2::h());
            }
            Gate::Cz | Gate::Ccz => {
                for &q in qubits {
                    self.flush(q, out);
                }
                out.push(gate.clone(), qubits);
            }
            g => match g.mat2() {
                Some(m) => self.absorb(qubits[0], m),
                None => unreachable!("non-elementary gate {g} after decomposition"),
            },
        }
    }

    /// Multiplies a new gate onto the pending unitary of `qubit`.
    fn absorb(&mut self, qubit: usize, gate: Mat2) {
        let pending = &mut self.pending[qubit];
        *pending = Some(match *pending {
            Some(prev) => gate * prev,
            None => gate,
        });
    }

    /// Emits the pending unitary of `qubit` (if non-identity) as one `U3`.
    fn flush(&mut self, qubit: usize, out: &mut Circuit) {
        if let Some(m) = self.pending[qubit].take() {
            let a = decompose_u3(&m);
            if !is_identity_u3(a.theta, a.phi, a.lambda, 1e-12) {
                out.push(Gate::U3(a.theta, a.phi, a.lambda), &[qubit]);
            }
        }
    }

    fn flush_all(&mut self, out: &mut Circuit) {
        for q in 0..self.pending.len() {
            self.flush(q, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_simulator::equiv;

    const TOL: f64 = 1e-9;

    fn assert_equiv(a: &Circuit, b: &Circuit) {
        let e = equiv::compare(&a.unitary(), &b.unitary(), TOL);
        assert!(e.is_equivalent(), "nativization changed semantics: {e:?}");
    }

    fn assert_native(c: &Circuit, basis: NativeBasis) {
        for i in c.instructions() {
            assert!(basis.contains(&i.gate), "gate {} not in basis", i.gate);
        }
    }

    #[test]
    fn fuses_single_qubit_runs() {
        let mut c = Circuit::new(1);
        c.h(0).rz(0.3, 0).rx(-0.9, 0).h(0);
        let n = nativize(&c, NativeBasis::U3Cz);
        assert_eq!(n.gate_count(), 1, "four 1q gates must fuse to one U3");
        assert_equiv(&c, &n);
    }

    #[test]
    fn identity_runs_vanish() {
        let mut c = Circuit::new(1);
        c.h(0).h(0).x(0).x(0);
        let n = nativize(&c, NativeBasis::U3Cz);
        assert_eq!(n.gate_count(), 0);
    }

    #[test]
    fn cx_lowered_to_cz() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let n = nativize(&c, NativeBasis::U3Cz);
        assert_native(&n, NativeBasis::U3Cz);
        assert_eq!(n.two_qubit_count(), 1);
        assert_equiv(&c, &n);
    }

    #[test]
    fn back_to_back_cx_fuse_hadamards() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(0, 1);
        let n = nativize(&c, NativeBasis::U3Cz);
        // The inner H·H cancels; two CZs remain with no 1q gates between.
        assert_eq!(n.two_qubit_count(), 2);
        assert_equiv(&c, &n);
    }

    #[test]
    fn ccz_kept_in_fpqa_basis_lowered_otherwise() {
        let mut c = Circuit::new(3);
        c.ccz(0, 1, 2);
        let fpqa = nativize(&c, NativeBasis::U3CzCcz);
        assert_eq!(fpqa.gate_count(), 1);
        assert_native(&fpqa, NativeBasis::U3CzCcz);

        let sc = nativize(&c, NativeBasis::U3Cz);
        assert_native(&sc, NativeBasis::U3Cz);
        assert_equiv(&c, &sc);
    }

    #[test]
    fn toffoli_roundtrip_both_bases() {
        let mut c = Circuit::new(3);
        c.ccx(2, 0, 1);
        for basis in [NativeBasis::U3Cz, NativeBasis::U3CzCcz] {
            let n = nativize(&c, basis);
            assert_native(&n, basis);
            assert_equiv(&c, &n);
        }
    }

    #[test]
    fn measurements_and_barriers_preserved() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.barrier();
        c.cx(0, 1).measure_all();
        let n = nativize(&c, NativeBasis::U3Cz);
        let measures = n
            .operations()
            .iter()
            .filter(|o| matches!(o, Operation::Measure(_)))
            .count();
        assert_eq!(measures, 2);
        assert!(n
            .operations()
            .iter()
            .any(|o| matches!(o, Operation::Barrier(_))));
    }

    #[test]
    fn qaoa_like_fragment() {
        // RZ ladder for a quadratic term, as in the paper's Fig. 6a.
        let mut c = Circuit::new(2);
        c.cx(0, 1).rz(0.8, 1).cx(0, 1);
        let n = nativize(&c, NativeBasis::U3Cz);
        assert_native(&n, NativeBasis::U3Cz);
        assert_equiv(&c, &n);
    }

    #[test]
    fn wider_random_circuit_equivalence() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        c.ccx(0, 1, 2).swap(1, 3).rz(0.3, 2).cx(3, 0);
        c.push(Gate::Crz(1.1), &[2, 3]);
        for basis in [NativeBasis::U3Cz, NativeBasis::U3CzCcz] {
            let n = nativize(&c, basis);
            assert_native(&n, basis);
            assert_equiv(&c, &n);
        }
    }
}
