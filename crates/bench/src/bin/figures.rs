//! Regenerates the paper's figures as text tables.
//!
//! ```text
//! figures [--quick] [--jobs N] [fig8a|fig8b|fig10a|fig10b|fig10c|fig11a|fig11b|fig12a|fig12b|table2|devices|weighted|graphs|ablation|all]
//! figures [--quick] bench-sim               # kernel baseline  -> BENCH_simulator.json
//! figures [--quick] bench-engine            # batch baseline   -> BENCH_engine.json
//! figures [--quick] [--jobs N] bench-figures # sweep baseline  -> BENCH_figures.json
//! ```
//!
//! `--quick` restricts the size sweep to {20, 50, 75} with 3 variants so a
//! full run finishes in minutes; without it the paper's full methodology
//! ({20..250} × 10 variants) is used. `--jobs N` sets the worker-thread
//! count for the batch sweep (0 or absent = all cores).
//!
//! The size-sweep figures (8, 10a/b, 11, 12) are compiled once as a single
//! job list on the engine's pool (`SizeSweep`) and then rendered from the
//! cached points, so requesting several figures never recompiles a point
//! and the whole evaluation parallelizes across `--jobs` workers.
//!
//! Beyond the paper's figures, `weighted` reruns the 20-variable suite with
//! per-clause weights (the WCNF front-end path) and `graphs` sweeps random
//! MaxCut graphs through the `maxcut` lowering.
//!
//! `bench-sim` (never part of `all`) times the simulator's specialized
//! kernels against the seed gather/scatter path, and a 20-variable
//! `simulator`-target compile against the gate-by-gate run it replaced,
//! and writes the tracked `BENCH_simulator.json` baseline to the current
//! directory; `bench-engine`
//! (likewise never part of `all`) times cold vs warm batch compilation and
//! writes `BENCH_engine.json`; `bench-figures` runs the sweep at workers
//! {1, 2, 4} plus the SABRE and coloring old-vs-new hot-path comparisons
//! and writes `BENCH_figures.json`; `--quick` reduces sample counts and
//! hot-path sizes.

use weaver_bench::{enginebench, figures, figuresbench, simbench, SizeSweep, Suite};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let jobs: usize = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let suite = if quick {
        Suite::quick()
    } else {
        Suite::paper()
    };
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| a.parse::<usize>().is_err()) // skip the --jobs value
        .map(String::as_str)
        .collect();
    let mut handled = 0usize;
    if wanted.contains(&"bench-sim") {
        let samples = if quick { 3 } else { 15 };
        let json = simbench::to_json(&simbench::run(samples), samples);
        std::fs::write("BENCH_simulator.json", &json).expect("write BENCH_simulator.json");
        print!("{json}");
        eprintln!("wrote BENCH_simulator.json");
        handled += 1;
    }
    if wanted.contains(&"bench-engine") {
        let samples = if quick { 3 } else { 10 };
        let json = enginebench::to_json(&enginebench::run(samples, jobs), samples);
        std::fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
        print!("{json}");
        eprintln!("wrote BENCH_engine.json");
        handled += 1;
    }
    if wanted.contains(&"bench-figures") {
        // The committed baseline measures the hot paths at the acceptance
        // sizes (SABRE at 100 variables on sc:eagle, coloring at 250);
        // --quick shrinks both for CI smoke runs.
        let samples = if quick { 2 } else { 5 };
        let (sabre_vars, coloring_vars) = if quick { (50, 75) } else { (100, 250) };
        let report = figuresbench::run(&suite, samples, sabre_vars, coloring_vars);
        let json = figuresbench::to_json(&report, samples);
        std::fs::write("BENCH_figures.json", &json).expect("write BENCH_figures.json");
        print!("{json}");
        eprintln!("wrote BENCH_figures.json");
        handled += 1;
    }
    if handled > 0 && wanted.len() == handled {
        return;
    }

    let all = wanted.is_empty() || wanted.contains(&"all");
    let has = |name: &str| all || wanted.contains(&name);

    if has("table2") {
        println!("{}", figures::table2());
    }
    if has("devices") {
        println!("{}", figures::devices(&suite));
    }
    // One batch feeds every size-sweep figure; skip it when none is wanted.
    let sweep_figures = [
        "fig8a", "fig8b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b",
    ];
    if sweep_figures.iter().any(|f| has(f)) {
        let sweep = SizeSweep::run(&suite, jobs);
        eprintln!(
            "sweep: {} points in {:.1}s on {} worker(s) ({:.1} points/sec)",
            sweep.jobs(),
            sweep.wall_seconds,
            sweep.workers,
            sweep.jobs_per_sec()
        );
        if has("fig8a") {
            println!("{}", figures::fig8a(&sweep));
        }
        if has("fig8b") {
            println!("{}", figures::fig8b(&sweep));
        }
        if has("fig10a") {
            println!("{}", figures::fig10a(&sweep));
        }
        if has("fig10b") {
            println!("{}", figures::fig10b(&sweep));
        }
        if has("fig11a") {
            println!("{}", figures::fig11a(&sweep));
        }
        if has("fig11b") {
            println!("{}", figures::fig11b(&sweep));
        }
        if has("fig12a") {
            println!("{}", figures::fig12a(&sweep));
        }
        if has("fig12b") {
            println!("{}", figures::fig12b(&sweep));
        }
    }
    if has("fig10c") {
        println!("{}", figures::fig10c(&suite));
    }
    if has("weighted") {
        println!("{}", figures::weighted(&suite));
    }
    if has("graphs") {
        println!("{}", figures::graphs(&suite));
    }
    if has("ablation") {
        println!("{}", figures::ablation(&suite));
    }
    if has("threshold") || all {
        println!("{}", figures::threshold_summary());
    }
}
