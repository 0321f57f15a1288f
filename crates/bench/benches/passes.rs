//! Criterion benches for individual wOptimizer passes and the wChecker
//! (Fig. 10a complexity, §5.5/§6) plus the ablation comparisons of
//! DESIGN.md §6.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use weaver_core::coloring::{
    color_clauses, conflict_graph, conflict_graph_reference, dsatur, dsatur_reference,
    greedy_first_fit,
};
use weaver_core::{checker, CodegenOptions, Weaver};
use weaver_fpqa::FpqaParams;
use weaver_sat::generator;

fn bench_coloring(c: &mut Criterion) {
    let mut group = c.benchmark_group("clause_coloring");
    group.sample_size(20);
    for size in [20usize, 50, 100, 250] {
        let f = generator::instance(size, 1);
        group.bench_with_input(BenchmarkId::new("dsatur", size), &f, |b, f| {
            b.iter(|| color_clauses(f))
        });
        let g = conflict_graph(&f);
        group.bench_with_input(BenchmarkId::new("first_fit", size), &g, |b, g| {
            b.iter(|| greedy_first_fit(g))
        });
        group.bench_with_input(BenchmarkId::new("dsatur_only", size), &g, |b, g| {
            b.iter(|| dsatur(g))
        });
    }
    // Old-vs-new at the largest paper size: CSR build + heap DSatur against
    // the adjacency-list + argmax references preserved for the
    // differential tests.
    let f = generator::instance(250, 1);
    group.bench_function("csr_dsatur_250", |b| b.iter(|| dsatur(&conflict_graph(&f))));
    group.bench_function("reference_dsatur_250", |b| {
        b.iter(|| dsatur_reference(&conflict_graph_reference(&f)))
    });
    group.finish();
}

fn bench_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("wchecker");
    group.sample_size(10);
    for size in [8usize, 20, 50] {
        let f = generator::instance(size, 1);
        let out = Weaver::new().compile_target("fpqa", &f).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(size),
            &out.artifact.as_fpqa().unwrap().program,
            |b, p| b.iter(|| checker::check(p, &FpqaParams::default(), None)),
        );
    }
    group.finish();
}

fn bench_ablations(c: &mut Criterion) {
    let f = generator::instance(20, 1);
    let mut group = c.benchmark_group("ablation_compile");
    group.sample_size(10);
    let configs = [
        ("full", CodegenOptions::default()),
        (
            "no_compression",
            CodegenOptions {
                compression: false,
                ..CodegenOptions::default()
            },
        ),
        (
            "sequential_shuttles",
            CodegenOptions {
                parallel_shuttling: false,
                ..CodegenOptions::default()
            },
        ),
        (
            "first_fit_coloring",
            CodegenOptions {
                dsatur: false,
                ..CodegenOptions::default()
            },
        ),
    ];
    for (name, options) in configs {
        let w = Weaver::new().with_options(options);
        group.bench_function(name, |b| b.iter(|| w.compile_target("fpqa", &f).unwrap()));
    }
    group.finish();
}

criterion_group!(benches, bench_coloring, bench_checker, bench_ablations);
criterion_main!(benches);
