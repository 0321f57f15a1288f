//! Differential property tests for the simulator's specialized kernels.
//!
//! `State::apply` dispatches 1q/2q/(multi-)controlled gates to closed-form
//! stride kernels; these properties assert that every dispatch decision
//! agrees with the seed's generic matrix path (`State::apply_reference`) on
//! random gates, targets, and register sizes, that norms survive, and that
//! the fused `UnitaryBuilder` plan (monomial runs, merged 1-qubit gates,
//! multi-block builds) matches per-column simulation.

use proptest::prelude::*;
use proptest::strategy::OneOf;
use weaver::simulator::{gates, Complex, Matrix, State, UnitaryBuilder};

const TOL: f64 = 1e-9;

fn max_amp_diff(a: &State, b: &State) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

/// A random normalized state on `n` qubits.
fn arb_state(n: usize) -> impl Strategy<Value = State> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1usize << n).prop_map(|parts| {
        let mut amps: Vec<Complex> = parts
            .into_iter()
            .map(|(re, im)| Complex::new(re, im))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        let scale = if norm > 1e-9 { 1.0 / norm } else { 1.0 };
        for a in &mut amps {
            *a = a.scale(scale);
        }
        if norm <= 1e-9 {
            amps[0] = Complex::ONE; // astronomically unlikely all-zero draw
        }
        State::from_amplitudes(amps)
    })
}

/// A dense 2-qubit unitary with no controlled structure.
fn dense_2q(angles: [f64; 6]) -> Matrix {
    let pre = gates::u3(angles[0], angles[1], 0.3).kron(&gates::u3(angles[2], -0.2, 0.7));
    let post = gates::u3(angles[3], 0.1, angles[4]).kron(&gates::u3(angles[5], 0.5, -1.1));
    post.matmul(&gates::cx()).matmul(&pre)
}

/// A random 1-qubit gate: an arbitrary `U3`, or one of the monomial gates
/// the unitary builder fuses (`RZ`, `P`, `Z`, `S`, `T`, `X`), or `RX(π)`.
/// `RX(π)` is `X` up to phase, but its diagonal is `cos(π/2)` ≈ 6e-17
/// rather than an exact 0, so it must stay on the dense path.
fn arb_1q() -> BoxedStrategy<Matrix> {
    let angle = || -3.2f64..3.2;
    OneOf::new(vec![
        (angle(), angle(), angle())
            .prop_map(|(t, p, l)| gates::u3(t, p, l))
            .boxed(),
        angle().prop_map(gates::rz).boxed(),
        angle().prop_map(gates::p).boxed(),
        Just(gates::z()).boxed(),
        Just(gates::s()).boxed(),
        Just(gates::t()).boxed(),
        Just(gates::x()).boxed(),
        Just(gates::rx(std::f64::consts::PI)).boxed(),
    ])
    .boxed()
}

/// Two distinct qubits of an `n`-qubit register (`n >= 2`).
fn arb_pair(n: usize) -> impl Strategy<Value = (usize, usize)> {
    (0..n, 0..n).prop_filter_map("distinct qubits", |(a, b)| (a != b).then_some((a, b)))
}

/// Three distinct qubits of an `n`-qubit register (`n >= 3`).
fn arb_triple(n: usize) -> impl Strategy<Value = Vec<usize>> {
    (0..n, 0..n, 0..n).prop_filter_map("distinct qubits", |(a, b, c)| {
        (a != b && b != c && a != c).then_some(vec![a, b, c])
    })
}

/// A random gate applicable to an `n`-qubit register, together with its
/// targets: dense and monomial 1q gates, permuting gates (`X`, `CX`,
/// `SWAP`, `CCX`), controlled and dense 2q gates, 3q controlled/dense
/// gates, and `CⁿZ` on 2 to `n` qubits — every kernel dispatch arm and
/// every fusion class of the unitary builder.
fn arb_gate(n: usize) -> BoxedStrategy<(Matrix, Vec<usize>)> {
    let angle = || -3.2f64..3.2;
    let mut arms: Vec<BoxedStrategy<(Matrix, Vec<usize>)>> = vec![
        (0..n, arb_1q()).prop_map(|(q, m)| (m, vec![q])).boxed(),
        arb_permuting(n),
    ];
    if n >= 2 {
        arms.push(
            (arb_pair(n), angle())
                .prop_map(|((a, b), t)| (gates::crz(t), vec![a, b]))
                .boxed(),
        );
        arms.push(
            (
                arb_pair(n),
                (angle(), angle(), angle()),
                (angle(), angle(), angle()),
            )
                .prop_map(|((a, b), (t0, t1, t2), (t3, t4, t5))| {
                    (dense_2q([t0, t1, t2, t3, t4, t5]), vec![a, b])
                })
                .boxed(),
        );
        // CⁿZ on any subset of at least two qubits.
        arms.push(
            (0usize..1 << n)
                .prop_filter_map("at least two qubits", move |mask: usize| {
                    let qs: Vec<usize> = (0..n).filter(|&q| mask >> q & 1 == 1).collect();
                    (qs.len() >= 2).then(|| (gates::cnz(qs.len() - 1), qs))
                })
                .boxed(),
        );
    }
    if n >= 3 {
        arms.push(arb_triple(n).prop_map(|qs| (gates::ccz(), qs)).boxed());
        // Dense 3-qubit gate: exercises the generic fallback.
        arms.push(
            (arb_triple(n), angle())
                .prop_map(|(qs, t)| {
                    let wall = gates::rx(t).kron(&gates::h()).kron(&gates::ry(0.4));
                    (wall.matmul(&gates::ccx()), qs)
                })
                .boxed(),
        );
    }
    OneOf::new(arms).boxed()
}

/// A permuting monomial gate (`X`, `CX`, `SWAP`, `CCX`), so a run of them
/// leaves a permutation that generally does not close to the identity.
fn arb_permuting(n: usize) -> BoxedStrategy<(Matrix, Vec<usize>)> {
    let mut arms: Vec<BoxedStrategy<(Matrix, Vec<usize>)>> =
        vec![(0..n).prop_map(|q| (gates::x(), vec![q])).boxed()];
    if n >= 2 {
        arms.push(
            arb_pair(n)
                .prop_map(|(a, b)| (gates::cx(), vec![a, b]))
                .boxed(),
        );
        arms.push(
            arb_pair(n)
                .prop_map(|(a, b)| (gates::swap(), vec![a, b]))
                .boxed(),
        );
    }
    if n >= 3 {
        arms.push(arb_triple(n).prop_map(|qs| (gates::ccx(), qs)).boxed());
    }
    OneOf::new(arms).boxed()
}

/// A short stretch of a gate sequence: one random gate, a same-qubit chain
/// of 1-qubit gates (merged into one 2×2 by the builder), or a run of
/// permuting monomial gates with phases mixed in.
fn arb_segment(n: usize) -> BoxedStrategy<Vec<(Matrix, Vec<usize>)>> {
    let phase = move || {
        (0..n, -3.2f64..3.2)
            .prop_map(|(q, t)| (gates::rz(t), vec![q]))
            .boxed()
    };
    OneOf::new(vec![
        arb_gate(n).prop_map(|g| vec![g]).boxed(),
        (0..n, prop::collection::vec(arb_1q(), 2..6))
            .prop_map(|(q, ms)| ms.into_iter().map(|m| (m, vec![q])).collect())
            .boxed(),
        prop::collection::vec(OneOf::new(vec![arb_permuting(n), phase()]), 2..7).boxed(),
    ])
    .boxed()
}

/// A register size, a random state on it, and a random gate sequence of
/// at most `max_gates` gates.
fn arb_case(
    max_qubits: usize,
    max_gates: usize,
) -> impl Strategy<Value = (State, Vec<(Matrix, Vec<usize>)>)> {
    (1usize..=max_qubits).prop_flat_map(move |n| {
        (
            arb_state(n),
            prop::collection::vec(arb_segment(n), 1..max_gates.div_ceil(2))
                .prop_map(move |segments| segments.into_iter().flatten().take(max_gates).collect()),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernels_agree_with_generic_matrix_path(case in arb_case(7, 8)) {
        let (state, ops) = case;
        let mut fast = state.clone();
        let mut slow = state;
        for (gate, targets) in &ops {
            fast.apply(gate, targets);
            slow.apply_reference(gate, targets);
            let d = max_amp_diff(&fast, &slow);
            prop_assert!(d <= TOL, "kernel diverged from reference by {d}");
        }
    }

    #[test]
    fn kernels_preserve_norm(case in arb_case(7, 8)) {
        let (state, ops) = case;
        let mut s = state;
        for (gate, targets) in &ops {
            s.apply(gate, targets);
        }
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-8, "norm drifted to {}", s.norm_sqr());
    }

    /// Up to 8 qubits, the builder runs several row blocks (threaded on a
    /// multi-core host).
    #[test]
    fn unitary_builder_matches_per_column_reference(case in arb_case(8, 24)) {
        let (state, ops) = case;
        let n = state.num_qubits();
        let mut b = UnitaryBuilder::new(n);
        for (gate, targets) in &ops {
            b.apply(gate, targets);
        }
        let u = b.finish();
        prop_assert!(u.is_unitary(1e-8));
        for j in 0..1usize << n {
            let mut col = State::basis(n, j);
            for (gate, targets) in &ops {
                col.apply_reference(gate, targets);
            }
            for (i, &amp) in col.amplitudes().iter().enumerate() {
                prop_assert!(
                    u[(i, j)].approx_eq(amp, TOL),
                    "column {j} row {i}: {} vs {amp}",
                    u[(i, j)]
                );
            }
        }
    }
}

/// Crossing the scoped-thread size threshold must not change results: a
/// 16-qubit register (2¹⁶ amplitudes) runs the chunked dispatch path.
#[test]
fn threshold_register_full_dispatch_matches_reference() {
    let n = 16;
    let mut fast = State::zero(n);
    let mut slow = State::zero(n);
    let ops: Vec<(Matrix, Vec<usize>)> = vec![
        (gates::h(), vec![0]),
        (gates::h(), vec![8]),
        (gates::h(), vec![15]),
        (gates::u3(0.3, 1.0, -0.5), vec![4]),
        (dense_2q([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), vec![2, 12]),
        (gates::cx(), vec![0, 15]),
        (gates::ccz(), vec![1, 8, 14]),
    ];
    for (gate, targets) in &ops {
        fast.apply(gate, targets);
        slow.apply_reference(gate, targets);
    }
    let d = max_amp_diff(&fast, &slow);
    assert!(d <= TOL, "kernel diverged from reference by {d}");
    assert!((fast.norm_sqr() - 1.0).abs() < 1e-10);
}
