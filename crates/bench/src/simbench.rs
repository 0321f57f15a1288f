//! Micro-benchmark harness for the state-vector kernels.
//!
//! Times the specialized dispatch in [`State::apply`] and the fused
//! [`UnitaryBuilder`] against the seed's generic gather/scatter loop
//! ([`State::apply_reference`]) on the workloads that dominate the
//! wChecker's unitary-equivalence pass, and the `simulator` target's
//! formula path against the gate-by-gate run it replaced
//! ([`gate_by_gate_eps`]). Renders the result as the tracked
//! `BENCH_simulator.json` baseline (`figures bench-sim`).

use std::time::Instant;
use weaver_circuit::{native, NativeBasis};
use weaver_core::Weaver;
use weaver_sat::{generator, qaoa, Formula};
use weaver_simulator::{gates, Matrix, State, UnitaryBuilder};

/// Register size for gate-application measurements (the ISSUE's 16-qubit
/// 1q-gate target).
pub const APPLY_QUBITS: usize = 16;

/// Register size for full-unitary construction (the ISSUE's 10-qubit
/// target).
pub const BUILD_QUBITS: usize = 10;

/// Variables of the `simulator`-target job (the uf20 fixture size, the
/// target's register cap).
pub const SIM_VARS: usize = 20;

/// The `simulator` target's formula path before the clause-score table:
/// the nativized QAOA circuit simulated gate by gate, then every basis
/// index scored on its own. Returns the ideal EPS.
pub fn gate_by_gate_eps(formula: &Formula, params: &qaoa::QaoaParams) -> f64 {
    let circuit = qaoa::build_circuit(formula, params, false);
    let native = native::nativize(&circuit, NativeBasis::U3Cz);
    let vector = native.statevector();
    let mut max_satisfied = 0u64;
    let mut optimal_probability = 0.0f64;
    for (index, amp) in vector.amplitudes().iter().enumerate() {
        let satisfied = formula.weight_satisfied_by_index(index);
        if satisfied > max_satisfied {
            max_satisfied = satisfied;
            optimal_probability = 0.0;
        }
        if satisfied == max_satisfied {
            optimal_probability += amp.norm_sqr();
        }
    }
    optimal_probability
}

/// A dense two-qubit unitary with no controlled structure, forcing the
/// 4-way-butterfly kernel: `(U3 ⊗ U3) · CX · (U3 ⊗ U3)`.
pub fn dense_2q() -> Matrix {
    let pre = gates::u3(0.4, 0.3, -0.2).kron(&gates::u3(1.1, -0.6, 0.5));
    let post = gates::u3(-0.7, 0.2, 0.9).kron(&gates::u3(0.3, 1.4, -1.0));
    post.matmul(&gates::cx()).matmul(&pre)
}

/// The gate sequence for unitary-construction measurements: an H wall, a CZ
/// ladder, and an RX layer on `n` qubits — the same gate mix the checker
/// sees from compiled QAOA circuits.
pub fn builder_ops(n: usize) -> Vec<(Matrix, Vec<usize>)> {
    let mut ops = Vec::new();
    for q in 0..n {
        ops.push((gates::h(), vec![q]));
    }
    for q in 0..n - 1 {
        ops.push((gates::cz(), vec![q, q + 1]));
    }
    for q in 0..n {
        ops.push((gates::rx(0.3 + q as f64 * 0.1), vec![q]));
    }
    ops
}

/// The `|+…+⟩` state on `n` qubits, a dense non-trivial input.
pub fn plus_state(n: usize) -> State {
    let mut s = State::zero(n);
    for q in 0..n {
        s.apply(&gates::h(), &[q]);
    }
    s
}

/// One before/after measurement of a kernel workload.
#[derive(Clone, Debug)]
pub struct KernelBench {
    /// Stable identifier, e.g. `apply_1q_16q`.
    pub id: &'static str,
    /// Median seed-path (generic gather/scatter) time in nanoseconds.
    pub reference_ns: f64,
    /// Median specialized-kernel time in nanoseconds.
    pub kernel_ns: f64,
}

impl KernelBench {
    /// Speedup of the kernel path over the seed path.
    pub fn speedup(&self) -> f64 {
        self.reference_ns / self.kernel_ns
    }
}

/// Median wall-clock time of `f` over `samples` runs after one warm-up.
fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Runs the kernel-vs-reference suite with `samples` timed iterations per
/// measurement at the tracked sizes ([`APPLY_QUBITS`], [`BUILD_QUBITS`],
/// [`SIM_VARS`]).
pub fn run(samples: usize) -> Vec<KernelBench> {
    run_sized(samples, APPLY_QUBITS, BUILD_QUBITS, SIM_VARS)
}

/// [`run`] at explicit register sizes; the ids keep the canonical `_16q` /
/// `_10q` / `_20q` suffixes, so only the default sizes produce comparable
/// baselines. Repeatedly applying a unitary gate to one register keeps
/// every iteration physical without re-allocating state.
fn run_sized(
    samples: usize,
    apply_qubits: usize,
    build_qubits: usize,
    sim_vars: usize,
) -> Vec<KernelBench> {
    let mut out = Vec::new();
    let mut pair = |id: &'static str, gate: &Matrix, targets: &[usize]| {
        let mut fast = plus_state(apply_qubits);
        let kernel_ns = median_ns(samples, || fast.apply(gate, targets));
        let mut slow = plus_state(apply_qubits);
        let reference_ns = median_ns(samples, || slow.apply_reference(gate, targets));
        out.push(KernelBench {
            id,
            reference_ns,
            kernel_ns,
        });
    };

    let hi = apply_qubits - 3;
    pair(
        "apply_1q_16q",
        &gates::u3(0.4, -0.7, 1.2),
        &[apply_qubits / 2],
    );
    pair("apply_2q_16q", &dense_2q(), &[3.min(hi - 1), hi]);
    pair(
        "apply_controlled_1q_16q",
        &gates::cx(),
        &[2.min(hi - 1), hi],
    );
    pair("apply_ccz_16q", &gates::ccz(), &[0, apply_qubits / 2, hi]);

    let ops = builder_ops(build_qubits);
    let dim = 1usize << build_qubits;
    let kernel_ns = median_ns(samples, || {
        let mut b = UnitaryBuilder::new(build_qubits);
        for (gate, targets) in &ops {
            b.apply(gate, targets);
        }
        std::hint::black_box(b.finish());
    });
    let reference_ns = median_ns(samples, || {
        // The seed's layout: one State per column, seed apply loop.
        let mut columns: Vec<State> = (0..dim).map(|j| State::basis(build_qubits, j)).collect();
        for (gate, targets) in &ops {
            for col in &mut columns {
                col.apply_reference(gate, targets);
            }
        }
        let mut m = Matrix::zeros(dim, dim);
        for (j, col) in columns.iter().enumerate() {
            for (i, &amp) in col.amplitudes().iter().enumerate() {
                m[(i, j)] = amp;
            }
        }
        std::hint::black_box(m);
    });
    out.push(KernelBench {
        id: "unitary_build_10q",
        reference_ns,
        kernel_ns,
    });

    let formula = generator::instance(sim_vars, 1);
    let weaver = Weaver::new();
    let kernel_ns = median_ns(samples, || {
        let output = weaver.compile_target("simulator", &formula);
        std::hint::black_box(output.expect("simulator compiles"));
    });
    let reference_ns = median_ns(samples, || {
        std::hint::black_box(gate_by_gate_eps(&formula, &weaver.options.qaoa));
    });
    out.push(KernelBench {
        id: "simulator_target_20q",
        reference_ns,
        kernel_ns,
    });

    out
}

/// Renders the suite result as the `BENCH_simulator.json` document.
pub fn to_json(benches: &[KernelBench], samples: usize) -> String {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"suite\": \"simulator_kernels\",\n");
    s.push_str("  \"metric\": \"median_wall_ns\",\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str("  \"benchmarks\": [\n");
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{ \"id\": \"{}\", \"reference_ns\": {:.0}, \"kernel_ns\": {:.0}, \
             \"speedup\": {:.2} }}{comma}\n",
            b.id,
            b.reference_ns,
            b.kernel_ns,
            b.speedup()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serializes() {
        // One sample at toy sizes keeps this fast; correctness of the
        // numbers is the harness's job, shape is ours.
        let benches = run_sized(1, 8, 4, 6);
        assert_eq!(benches.len(), 6);
        assert!(benches
            .iter()
            .all(|b| b.kernel_ns > 0.0 && b.reference_ns > 0.0));
        let json = to_json(&benches, 1);
        assert!(json.contains("\"apply_1q_16q\""));
        assert!(json.contains("\"unitary_build_10q\""));
        assert!(json.contains("\"simulator_target_20q\""));
        assert_eq!(json.matches("\"speedup\"").count(), 6);
    }

    #[test]
    fn gate_by_gate_reference_reports_the_targets_eps() {
        let formula = generator::weighted_instance(8, 1);
        let weaver = Weaver::new();
        let eps = weaver
            .compile_target("simulator", &formula)
            .unwrap()
            .metrics
            .eps;
        let reference = gate_by_gate_eps(&formula, &weaver.options.qaoa);
        assert!((eps - reference).abs() <= 1e-12 * reference);
    }
}
