//! Differential test of the stack 2×2 gate algebra: the single-qubit gate
//! matrices, `euler::decompose_u3`/`decompose_zyx` and the nativizer's
//! single-qubit fuser, which run on `weaver_simulator::Mat2`, must be
//! bit-identical (`f64::to_bits`, signed zeros included) to the heap-
//! `Matrix` code they replaced, kept here verbatim as the oracle.

use proptest::prelude::*;
use std::f64::consts::{FRAC_PI_2, PI};
use weaver::circuit::euler::{self, EulerAngles, ZyxAngles};
use weaver::circuit::{native, Circuit, Gate, NativeBasis, Operation};
use weaver::simulator::{Complex, Mat2, Matrix};

/// The heap-`Matrix` code as it was before the stack type (verbatim, with
/// `gates::` and `Gate::matrix` pointing at the copies below).
mod oracle {
    use weaver::circuit::decompose::decompose_circuit;
    use weaver::circuit::euler::{is_identity_u3, normalize_angle, EulerAngles, ZyxAngles};
    use weaver::circuit::{Circuit, Gate, NativeBasis, Operation};
    use weaver::simulator::Matrix;

    /// `weaver_simulator::gates`' single-qubit constructors.
    pub mod gates {
        use weaver::simulator::{Complex, Matrix};

        pub fn x() -> Matrix {
            Matrix::from_reals(2, &[0.0, 1.0, 1.0, 0.0])
        }

        pub fn y() -> Matrix {
            Matrix::from_rows(
                2,
                2,
                &[Complex::ZERO, -Complex::I, Complex::I, Complex::ZERO],
            )
        }

        pub fn z() -> Matrix {
            Matrix::from_reals(2, &[1.0, 0.0, 0.0, -1.0])
        }

        pub fn h() -> Matrix {
            let s = std::f64::consts::FRAC_1_SQRT_2;
            Matrix::from_reals(2, &[s, s, s, -s])
        }

        pub fn s() -> Matrix {
            Matrix::from_rows(
                2,
                2,
                &[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::I],
            )
        }

        pub fn sdg() -> Matrix {
            s().adjoint()
        }

        pub fn t() -> Matrix {
            Matrix::from_rows(
                2,
                2,
                &[
                    Complex::ONE,
                    Complex::ZERO,
                    Complex::ZERO,
                    Complex::from_polar(std::f64::consts::FRAC_PI_4),
                ],
            )
        }

        pub fn tdg() -> Matrix {
            t().adjoint()
        }

        pub fn rx(theta: f64) -> Matrix {
            let c = Complex::real((theta / 2.0).cos());
            let s = Complex::new(0.0, -(theta / 2.0).sin());
            Matrix::from_rows(2, 2, &[c, s, s, c])
        }

        pub fn ry(theta: f64) -> Matrix {
            let c = (theta / 2.0).cos();
            let s = (theta / 2.0).sin();
            Matrix::from_reals(2, &[c, -s, s, c])
        }

        pub fn rz(theta: f64) -> Matrix {
            Matrix::from_rows(
                2,
                2,
                &[
                    Complex::from_polar(-theta / 2.0),
                    Complex::ZERO,
                    Complex::ZERO,
                    Complex::from_polar(theta / 2.0),
                ],
            )
        }

        pub fn p(lambda: f64) -> Matrix {
            Matrix::from_rows(
                2,
                2,
                &[
                    Complex::ONE,
                    Complex::ZERO,
                    Complex::ZERO,
                    Complex::from_polar(lambda),
                ],
            )
        }

        pub fn u3(theta: f64, phi: f64, lambda: f64) -> Matrix {
            let c = (theta / 2.0).cos();
            let s = (theta / 2.0).sin();
            Matrix::from_rows(
                2,
                2,
                &[
                    Complex::real(c),
                    -(Complex::from_polar(lambda).scale(s)),
                    Complex::from_polar(phi).scale(s),
                    Complex::from_polar(phi + lambda).scale(c),
                ],
            )
        }
    }

    /// `Gate::matrix` on the single-qubit gates.
    pub fn matrix(gate: &Gate) -> Matrix {
        match *gate {
            Gate::X => gates::x(),
            Gate::Y => gates::y(),
            Gate::Z => gates::z(),
            Gate::H => gates::h(),
            Gate::S => gates::s(),
            Gate::Sdg => gates::sdg(),
            Gate::T => gates::t(),
            Gate::Tdg => gates::tdg(),
            Gate::Rx(t) => gates::rx(t),
            Gate::Ry(t) => gates::ry(t),
            Gate::Rz(t) => gates::rz(t),
            Gate::P(l) => gates::p(l),
            Gate::U3(t, p, l) => gates::u3(t, p, l),
            ref g => panic!("{g} is not a 1-qubit gate"),
        }
    }

    pub fn decompose_u3(m: &Matrix) -> EulerAngles {
        assert_eq!(m.rows(), 2, "expected a single-qubit matrix");
        assert_eq!(m.cols(), 2, "expected a single-qubit matrix");
        assert!(m.is_unitary(1e-8), "matrix is not unitary");

        let m00 = m[(0, 0)];
        let m01 = m[(0, 1)];
        let m10 = m[(1, 0)];
        let m11 = m[(1, 1)];

        let cos_half = m00.abs().min(1.0);
        let sin_half = m10.abs().min(1.0);
        let theta = 2.0 * sin_half.atan2(cos_half);

        const EPS: f64 = 1e-12;
        let (global_phase, phi, lambda) = if cos_half > EPS && sin_half > EPS {
            let g = m00.arg();
            let phi = m10.arg() - g;
            let lambda = (-m01).arg() - g;
            (g, phi, lambda)
        } else if sin_half <= EPS {
            // θ ≈ 0: only the diagonal is populated; φ is a free parameter.
            let g = m00.arg();
            let lambda = m11.arg() - g;
            (g, 0.0, lambda)
        } else {
            // θ ≈ π: only the anti-diagonal is populated; put everything in λ.
            let g = m10.arg();
            let lambda = (-m01).arg() - g;
            (g, 0.0, lambda)
        };

        EulerAngles {
            theta,
            phi: normalize_angle(phi),
            lambda: normalize_angle(lambda),
            global_phase: normalize_angle(global_phase),
        }
    }

    pub fn decompose_zyx(m: &Matrix) -> ZyxAngles {
        assert_eq!(m.rows(), 2, "expected a single-qubit matrix");
        assert_eq!(m.cols(), 2, "expected a single-qubit matrix");
        assert!(m.is_unitary(1e-8), "matrix is not unitary");

        // Adjoint representation: R[i][j] = ½ Tr(σᵢ · M · σⱼ · M†).
        let paulis = [gates::x(), gates::y(), gates::z()];
        let mdag = m.adjoint();
        let mut r = [[0.0f64; 3]; 3];
        for (i, si) in paulis.iter().enumerate() {
            for (j, sj) in paulis.iter().enumerate() {
                let prod = &(&(si * m) * sj) * &mdag;
                r[i][j] = 0.5 * prod.trace().re;
            }
        }

        // ZYX (yaw-pitch-roll) extraction from R = Rz(z)·Ry(y)·Rx(x).
        let (x, y, z) = if r[2][0].abs() < 1.0 - 1e-12 {
            let y = (-r[2][0]).asin();
            let x = r[2][1].atan2(r[2][2]);
            let z = r[1][0].atan2(r[0][0]);
            (x, y, z)
        } else {
            // Gimbal lock: y = ±π/2; fold the x rotation into z.
            let y = if r[2][0] < 0.0 {
                std::f64::consts::FRAC_PI_2
            } else {
                -std::f64::consts::FRAC_PI_2
            };
            let x = 0.0;
            let z = (-r[0][1]).atan2(r[1][1]);
            (x, y, z)
        };

        // Normalize angles *before* phase recovery: RZ/RY/RX have period 4π in
        // matrix form, so shifting an angle by 2π flips the matrix sign, which
        // must be absorbed into the recovered global phase.
        let x = normalize_angle(x);
        let y = normalize_angle(y);
        let z = normalize_angle(z);
        // Recover the global phase by comparing against the reconstruction.
        let bare = &(&gates::rz(z) * &gates::ry(y)) * &gates::rx(x);
        // Use the largest-magnitude entry for numerical stability.
        let mut best = (0, 0);
        let mut mag = -1.0;
        for rr in 0..2 {
            for cc in 0..2 {
                if bare[(rr, cc)].norm_sqr() > mag {
                    mag = bare[(rr, cc)].norm_sqr();
                    best = (rr, cc);
                }
            }
        }
        let global_phase = (m[best] / bare[best]).arg();
        ZyxAngles {
            x,
            y,
            z,
            global_phase: normalize_angle(global_phase),
        }
    }

    pub fn nativize(circuit: &Circuit, basis: NativeBasis) -> Circuit {
        // Step 1: decompose to the elementary set {1q, CX, CZ, (CCZ)}.
        let keep_ccz = basis == NativeBasis::U3CzCcz;
        let elementary = decompose_circuit(circuit, keep_ccz);

        // Step 2: replace CX with H-conjugated CZ so only CZ/CCZ remain as
        // entanglers, then fuse single-qubit runs.
        let mut fuser = SingleQubitFuser::new(elementary.num_qubits());
        let mut out = Circuit::new(elementary.num_qubits());

        for op in elementary.operations() {
            match op {
                Operation::Gate(instr) => match instr.gate {
                    ref g if g.num_qubits() == 1 => {
                        fuser.absorb(instr.qubits[0], &matrix(g));
                    }
                    Gate::Cx => {
                        let (c, t) = (instr.qubits[0], instr.qubits[1]);
                        fuser.absorb(t, &matrix(&Gate::H));
                        fuser.flush(c, &mut out);
                        fuser.flush(t, &mut out);
                        out.push(Gate::Cz, &[c, t]);
                        fuser.absorb(t, &matrix(&Gate::H));
                    }
                    Gate::Cz | Gate::Ccz => {
                        for &q in &instr.qubits {
                            fuser.flush(q, &mut out);
                        }
                        out.push(instr.gate.clone(), &instr.qubits);
                    }
                    ref g => unreachable!("non-elementary gate {g} after decomposition"),
                },
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

    struct SingleQubitFuser {
        pending: Vec<Option<Matrix>>,
    }

    impl SingleQubitFuser {
        fn new(num_qubits: usize) -> Self {
            SingleQubitFuser {
                pending: vec![None; num_qubits],
            }
        }

        fn absorb(&mut self, qubit: usize, gate: &Matrix) {
            let acc = match self.pending[qubit].take() {
                Some(prev) => gate * &prev,
                None => gate.clone(),
            };
            self.pending[qubit] = Some(acc);
        }

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
}

fn bits(z: Complex) -> (u64, u64) {
    (z.re.to_bits(), z.im.to_bits())
}

#[track_caller]
fn assert_same_matrix(stack: Mat2, heap: &Matrix, what: &str) {
    assert_eq!((heap.rows(), heap.cols()), (2, 2), "{what}");
    for (k, (s, h)) in stack.entries().zip(heap.as_slice()).enumerate() {
        assert_eq!(bits(s), bits(*h), "{what}: entry {k}: {s:?} vs {h:?}");
    }
}

#[track_caller]
fn assert_same_u3(new: EulerAngles, old: EulerAngles, what: &str) {
    let b = |a: EulerAngles| [a.theta, a.phi, a.lambda, a.global_phase].map(f64::to_bits);
    assert_eq!(b(new), b(old), "{what}: {new:?} vs {old:?}");
}

#[track_caller]
fn assert_same_zyx(new: ZyxAngles, old: ZyxAngles, what: &str) {
    let b = |a: ZyxAngles| [a.x, a.y, a.z, a.global_phase].map(f64::to_bits);
    assert_eq!(b(new), b(old), "{what}: {new:?} vs {old:?}");
}

/// Both decompositions of `stack` equal the oracle's of `heap`, bit for bit.
#[track_caller]
fn assert_same_decompositions(stack: Mat2, heap: &Matrix, what: &str) {
    assert_same_matrix(stack, heap, what);
    assert_same_u3(
        euler::decompose_u3(&stack),
        oracle::decompose_u3(heap),
        what,
    );
    assert_same_zyx(
        euler::decompose_zyx(&stack),
        oracle::decompose_zyx(heap),
        what,
    );
}

/// Operation by operation, with gate parameters compared by their bits.
#[track_caller]
fn assert_same_circuit(new: &Circuit, old: &Circuit, what: &str) {
    assert_eq!(new.num_qubits(), old.num_qubits(), "{what}: width");
    assert_eq!(
        new.operations().len(),
        old.operations().len(),
        "{what}: operation count"
    );
    for (k, (a, b)) in new.operations().iter().zip(old.operations()).enumerate() {
        match (a, b) {
            (Operation::Gate(x), Operation::Gate(y)) => {
                let params = |g: &Gate| g.params().iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                assert_eq!(x.gate.name(), y.gate.name(), "{what}: op {k}");
                assert_eq!(x.qubits, y.qubits, "{what}: op {k}");
                assert_eq!(params(&x.gate), params(&y.gate), "{what}: op {k}");
            }
            _ => assert_eq!(a, b, "{what}: op {k}"),
        }
    }
}

/// Every single-qubit variant, over `angles` for the parameterized ones.
fn one_qubit_gates(angles: &[f64]) -> Vec<Gate> {
    let mut gates = vec![
        Gate::X,
        Gate::Y,
        Gate::Z,
        Gate::H,
        Gate::S,
        Gate::Sdg,
        Gate::T,
        Gate::Tdg,
    ];
    for (i, &a) in angles.iter().enumerate() {
        let b = angles[(i + 1) % angles.len()];
        let c = angles[(i + 2) % angles.len()];
        gates.extend([
            Gate::Rx(a),
            Gate::Ry(a),
            Gate::Rz(a),
            Gate::P(a),
            Gate::U3(a, b, c),
        ]);
    }
    gates
}

/// Angles at and around the branch points of both decompositions.
const EDGE_ANGLES: [f64; 14] = [
    0.0,
    -0.0,
    1e-13,
    -1e-13,
    FRAC_PI_2,
    -FRAC_PI_2,
    FRAC_PI_2 + 1e-7,
    PI,
    -PI,
    PI - 1e-13,
    2.0 * PI,
    3.0 * PI,
    0.731,
    -5.9,
];

#[test]
fn every_one_qubit_gate_matrix_is_bit_identical() {
    for gate in one_qubit_gates(&EDGE_ANGLES) {
        let stack = gate.mat2().expect("1-qubit gate");
        let what = format!("{gate:?}");
        assert_same_matrix(stack, &oracle::matrix(&gate), &what);
        assert_same_matrix(stack, &gate.matrix(), &what);
    }
    // The adjoints keep the `-0.0` that conjugating `+0.0` gives.
    for gate in [Gate::Sdg, Gate::Tdg] {
        let m = gate.mat2().unwrap();
        assert!(m[(0, 1)].im.is_sign_negative() && m[(1, 0)].im.is_sign_negative());
        assert!(m[(0, 0)].im.is_sign_negative());
    }
    for gate in [
        Gate::Cx,
        Gate::Cz,
        Gate::Crz(0.3),
        Gate::Swap,
        Gate::Ccx,
        Gate::Ccz,
        Gate::CnZ(3),
    ] {
        assert!(gate.mat2().is_none(), "{gate:?}");
    }
}

#[test]
fn decompositions_are_bit_identical_on_branch_edges() {
    // θ ≈ 0 (diagonal), θ ≈ π (anti-diagonal) and the ZYX gimbal lock
    // (|R₂₀| ≈ 1: Y rotations by ±π/2, and H) from every side.
    let mut cases: Vec<(Mat2, Matrix, String)> = one_qubit_gates(&EDGE_ANGLES)
        .into_iter()
        .map(|g| (g.mat2().unwrap(), oracle::matrix(&g), format!("{g:?}")))
        .collect();
    let products: [&[Gate]; 8] = [
        &[Gate::P(0.6), Gate::X],
        &[Gate::Rz(0.8), Gate::Ry(FRAC_PI_2)],
        &[Gate::Ry(-FRAC_PI_2), Gate::Rz(-2.2), Gate::Rx(1.1)],
        &[Gate::Rx(0.4), Gate::Ry(FRAC_PI_2 + 1e-9), Gate::Rz(0.2)],
        &[Gate::H, Gate::H],
        &[Gate::S, Gate::Sdg, Gate::T, Gate::Tdg],
        &[Gate::X, Gate::Z, Gate::Y],
        &[Gate::U3(PI, 0.3, -0.3), Gate::Rz(1e-13)],
    ];
    for gates in products {
        let (stack, heap) = product(gates);
        cases.push((stack, heap, format!("{gates:?}")));
    }
    // Which branch each case took, read off the oracle's angles.
    let (mut near_zero, mut near_pi, mut gimbal) = (0, 0, 0);
    for (stack, heap, what) in &cases {
        assert_same_decompositions(*stack, heap, what);
        let u = oracle::decompose_u3(heap);
        near_zero += usize::from(u.theta <= 2e-12);
        near_pi += usize::from(PI - u.theta <= 2e-12);
        let zyx = oracle::decompose_zyx(heap);
        gimbal += usize::from(zyx.x == 0.0 && zyx.y.abs() == FRAC_PI_2);
    }
    assert!(
        near_zero >= 10 && near_pi >= 10 && gimbal >= 5,
        "branch coverage: θ≈0 {near_zero}, θ≈π {near_pi}, gimbal lock {gimbal}"
    );
}

/// The product `gₖ ⋯ g₁` of a gate run, accumulated as the fuser does it.
fn product(gates: &[Gate]) -> (Mat2, Matrix) {
    let mut stack = gates[0].mat2().unwrap();
    let mut heap = oracle::matrix(&gates[0]);
    for g in &gates[1..] {
        stack = g.mat2().unwrap() * stack;
        heap = &oracle::matrix(g) * &heap;
    }
    (stack, heap)
}

fn arb_one_qubit_gate() -> impl Strategy<Value = Gate> {
    let angle = || -7.0f64..7.0;
    (0..16usize, angle(), angle(), angle()).prop_map(|(k, a, b, c)| match k {
        0 => Gate::X,
        1 => Gate::Y,
        2 => Gate::Z,
        3 => Gate::H,
        4 => Gate::S,
        5 => Gate::Sdg,
        6 => Gate::T,
        7 => Gate::Tdg,
        8 => Gate::Rx(a),
        9 => Gate::Ry(a),
        10 => Gate::Rz(a),
        11 => Gate::P(a),
        // Quarter turns hit the exact zeros of the branch tests.
        12 => Gate::Ry((a * 2.0 / PI).round() * FRAC_PI_2),
        13 => Gate::Rx((a * 2.0 / PI).round() * FRAC_PI_2),
        _ => Gate::U3(a, b, c),
    })
}

/// One operation of a random circuit on `n ≥ 3` qubits.
#[derive(Clone, Debug)]
enum Op {
    OneQubit(Gate, usize),
    Cx(usize, usize),
    Cz(usize, usize),
    Ccz(usize, usize, usize),
    Measure(usize),
    Barrier(Vec<usize>),
}

fn arb_op(n: usize) -> impl Strategy<Value = Op> {
    (
        0..12usize,
        arb_one_qubit_gate(),
        (0..n, 0..n, 0..n),
        0usize..1 << n,
    )
        .prop_map(move |(kind, gate, (a, b, c), mask)| {
            // Distinct operands from any three draws.
            let b = if b == a { (a + 1) % n } else { b };
            let c = (0..n)
                .map(|k| (c + k) % n)
                .find(|q| *q != a && *q != b)
                .unwrap();
            match kind {
                0..=5 => Op::OneQubit(gate, a),
                6 => Op::Cx(a, b),
                7 => Op::Cz(a, b),
                8 => Op::Ccz(a, b, c),
                9 => Op::Measure(a),
                10 => Op::Barrier(Vec::new()),
                _ => Op::Barrier((0..n).filter(|q| mask >> q & 1 == 1).collect()),
            }
        })
}

fn arb_circuit() -> impl Strategy<Value = Circuit> {
    (3..7usize).prop_flat_map(|n| {
        prop::collection::vec(arb_op(n), 0..48).prop_map(move |ops| {
            let mut c = Circuit::new(n);
            for op in ops {
                match op {
                    Op::OneQubit(g, q) => c.push(g, &[q]),
                    Op::Cx(a, b) => c.push(Gate::Cx, &[a, b]),
                    Op::Cz(a, b) => c.push(Gate::Cz, &[a, b]),
                    Op::Ccz(a, b, q) => c.push(Gate::Ccz, &[a, b, q]),
                    Op::Measure(q) => c.measure(q),
                    Op::Barrier(qs) => c.push_op(Operation::Barrier(qs)),
                };
            }
            c
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn decompositions_are_bit_identical_on_random_products(
        gates in prop::collection::vec(arb_one_qubit_gate(), 1..7),
    ) {
        let (stack, heap) = product(&gates);
        assert_same_decompositions(stack, &heap, &format!("{gates:?}"));
    }

    #[test]
    fn nativize_matches_the_heap_fuser(circuit in arb_circuit()) {
        for basis in [NativeBasis::U3Cz, NativeBasis::U3CzCcz] {
            assert_same_circuit(
                &native::nativize(&circuit, basis),
                &oracle::nativize(&circuit, basis),
                &format!("{basis:?} on {circuit:?}"),
            );
        }
    }
}
