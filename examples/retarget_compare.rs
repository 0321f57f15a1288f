//! Retargeting one workload to every backend: the superconducting path
//! (SABRE onto IBM Washington) and four FPQA compilers (Weaver, Atomique,
//! Geyser, DPQA) — a miniature of the paper's evaluation tables.
//!
//! ```text
//! cargo run --release --example retarget_compare
//! ```

use weaver::prelude::*;

fn main() {
    let formula = generator::instance(20, 1);
    println!(
        "workload: uf20-01 ({} vars, {} clauses)\n",
        formula.num_vars(),
        formula.num_clauses()
    );
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>8} {:>8}",
        "system", "compile [s]", "execute [s]", "EPS", "pulses", "motion"
    );

    let weaver = Weaver::new();

    // Superconducting path.
    let sc = weaver
        .compile_target("superconducting", &formula)
        .expect("the heavy-hex map holds 20 qubits");
    print_row("Superconducting", &sc.metrics);
    println!(
        "    (SABRE inserted {} SWAPs on the heavy-hex map)",
        sc.artifact.swap_count().unwrap_or(0)
    );

    // Weaver's FPQA path.
    let workload = Workload::MaxSat(formula.clone());
    let fpqa = weaver
        .compile_workload("fpqa", &workload)
        .expect("the FPQA backend accepts any formula");
    print_row("Weaver", &fpqa.metrics);
    println!(
        "    ({} colors, wChecker: {})",
        fpqa.artifact.num_colors().unwrap_or(0),
        if weaver.verify(&fpqa, &workload).is_some_and(|r| r.passed()) {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // The ideal simulator target, reached like any other registered
    // backend — by name through the registry-dispatched pipeline.
    match weaver.compile_target("simulator", &formula) {
        Ok(ideal) => {
            print_row("Simulator", &ideal.metrics);
            if let CompiledArtifact::Simulator(run) = &ideal.artifact {
                println!(
                    "    (ideal: {} of 2^{} basis states satisfy {} clauses)",
                    run.num_optimal,
                    formula.num_vars(),
                    run.max_satisfied
                );
            }
        }
        Err(e) => println!("{:<16} {}", "Simulator", e),
    }

    // Baselines.
    let params = FpqaParams::default();
    let baselines: Vec<Box<dyn FpqaCompiler>> = vec![
        Box::new(Atomique::new(params.clone())),
        Box::new(Geyser::new(params.clone())),
        Box::new(Dpqa::new(params.clone())),
    ];
    for compiler in &baselines {
        match compiler.compile(&formula) {
            Ok(out) => print_row(out.name, &out.metrics),
            Err(timeout) => println!("{:<16} {}", compiler.name(), timeout),
        }
    }

    // The paper's headline numbers for this workload size.
    let speedup = sc.metrics.compilation_seconds / fpqa.metrics.compilation_seconds;
    println!(
        "\nWeaver compiles {speedup:.1}x faster than the superconducting baseline \
         and reaches {:.1}x its EPS.",
        fpqa.metrics.eps / sc.metrics.eps.max(1e-300)
    );
}

fn print_row(name: &str, m: &Metrics) {
    println!(
        "{:<16} {:>12.4} {:>12.4} {:>10.2e} {:>8} {:>8}",
        name,
        m.compilation_seconds,
        m.execution_micros * 1e-6,
        m.eps,
        m.pulses,
        m.motion_ops
    );
}
