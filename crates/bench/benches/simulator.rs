//! Criterion benches for the state-vector kernels: the specialized dispatch
//! in `State::apply` and the fused `UnitaryBuilder` versus the seed's
//! generic gather/scatter path (`State::apply_reference`). Mirrors the
//! tracked `BENCH_simulator.json` baseline emitted by `figures bench-sim`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaver_bench::simbench::{builder_ops, dense_2q, plus_state, BUILD_QUBITS};
use weaver_simulator::{gates, Matrix, State, UnitaryBuilder};

fn bench_apply_1q(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_1q");
    group.sample_size(20);
    let gate = gates::u3(0.4, -0.7, 1.2);
    for n in [12usize, 16] {
        let mut fast = plus_state(n);
        group.bench_with_input(BenchmarkId::new("kernel", n), &(n / 2), |b, &t| {
            b.iter(|| fast.apply(&gate, &[t]))
        });
        let mut slow = plus_state(n);
        group.bench_with_input(BenchmarkId::new("reference", n), &(n / 2), |b, &t| {
            b.iter(|| slow.apply_reference(&gate, &[t]))
        });
    }
    group.finish();
}

fn bench_apply_2q(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_2q");
    group.sample_size(20);
    let n = 16usize;
    let dense = dense_2q();
    let targets = [3usize, 11];
    let mut fast = plus_state(n);
    group.bench_with_input(BenchmarkId::new("kernel", n), &targets, |b, t| {
        b.iter(|| fast.apply(&dense, t))
    });
    let mut slow = plus_state(n);
    group.bench_with_input(BenchmarkId::new("reference", n), &targets, |b, t| {
        b.iter(|| slow.apply_reference(&dense, t))
    });
    group.finish();
}

fn bench_apply_controlled(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_controlled");
    group.sample_size(20);
    let n = 16usize;
    let cases: [(&str, Matrix, Vec<usize>); 2] = [
        ("cx", gates::cx(), vec![2, 13]),
        ("ccz", gates::ccz(), vec![2, 7, 13]),
    ];
    for (name, gate, targets) in &cases {
        let mut fast = plus_state(n);
        group.bench_with_input(BenchmarkId::new("kernel", name), targets, |b, t| {
            b.iter(|| fast.apply(gate, t))
        });
        let mut slow = plus_state(n);
        group.bench_with_input(BenchmarkId::new("reference", name), targets, |b, t| {
            b.iter(|| slow.apply_reference(gate, t))
        });
    }
    group.finish();
}

fn bench_unitary_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("unitary_build");
    group.sample_size(5);
    let n = BUILD_QUBITS;
    let ops = builder_ops(n);
    group.bench_with_input(BenchmarkId::new("builder", n), &ops, |b, ops| {
        b.iter(|| {
            let mut builder = UnitaryBuilder::new(n);
            for (gate, targets) in ops {
                builder.apply(gate, targets);
            }
            builder.finish()
        })
    });
    group.bench_with_input(BenchmarkId::new("reference_columns", n), &ops, |b, ops| {
        b.iter(|| {
            let dim = 1usize << n;
            let mut columns: Vec<State> = (0..dim).map(|j| State::basis(n, j)).collect();
            for (gate, targets) in ops {
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
            m
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_apply_1q,
    bench_apply_2q,
    bench_apply_controlled,
    bench_unitary_build
);
criterion_main!(benches);
