//! Unified driver over Weaver, the superconducting baseline, and the three
//! FPQA baselines, mirroring the paper's experimental methodology (§8.1):
//! 10 variants per size, sizes {20, 50, 75, 100, 150, 250}, with per-system
//! applicability limits (Geyser/DPQA time out above 20 variables; the
//! superconducting backend holds 127 qubits).

use weaver_baselines::{Atomique, Dpqa, FpqaCompiler, Geyser};
use weaver_core::{Metrics, PassStat, Weaver};
use weaver_fpqa::FpqaParams;
use weaver_sat::{generator, Formula};

/// The five systems of the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompilerId {
    /// Qiskit-style SABRE pipeline on IBM Washington.
    Superconducting,
    /// Atomique (Wang et al. 2024).
    Atomique,
    /// Weaver (this paper).
    Weaver,
    /// DPQA (Tan et al. 2024).
    Dpqa,
    /// Geyser (Patel et al. 2022).
    Geyser,
}

impl CompilerId {
    /// All systems in the paper's legend order.
    pub const ALL: [CompilerId; 5] = [
        CompilerId::Superconducting,
        CompilerId::Atomique,
        CompilerId::Weaver,
        CompilerId::Dpqa,
        CompilerId::Geyser,
    ];

    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            CompilerId::Superconducting => "Superconducting",
            CompilerId::Atomique => "Atomique",
            CompilerId::Weaver => "Weaver",
            CompilerId::Dpqa => "DPQA",
            CompilerId::Geyser => "Geyser",
        }
    }
}

/// One benchmark run outcome: metrics, or the reason the system sat out.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Completed with metrics.
    Done(Metrics),
    /// Timed out (paper marks ✗).
    TimedOut(String),
    /// Not applicable (e.g. circuit wider than the 127-qubit backend).
    NotApplicable(String),
}

impl RunOutcome {
    /// The metrics, if the run completed.
    pub fn metrics(&self) -> Option<&Metrics> {
        match self {
            RunOutcome::Done(m) => Some(m),
            _ => None,
        }
    }

    /// Figure-cell rendering: a number via `f`, or `✗`/`—`.
    pub fn cell(&self, f: impl Fn(&Metrics) -> String) -> String {
        match self {
            RunOutcome::Done(m) => f(m),
            RunOutcome::TimedOut(_) => "✗".to_string(),
            RunOutcome::NotApplicable(_) => "—".to_string(),
        }
    }
}

/// Runs one system on one formula with the paper's applicability rules.
/// Weaver and the superconducting baseline dispatch through the shared
/// backend registry ([`Weaver::compile_target`]) and also return the
/// compile's per-pass records; the FPQA baselines keep their own
/// [`FpqaCompiler`] interface and return no pass records.
pub fn run_point(
    id: CompilerId,
    formula: &Formula,
    params: &FpqaParams,
) -> (RunOutcome, Vec<PassStat>) {
    let compiled = match id {
        CompilerId::Weaver => Weaver::new()
            .with_fpqa_params(params.clone())
            .compile_target("fpqa", formula),
        CompilerId::Superconducting => Weaver::new().compile_target("superconducting", formula),
        CompilerId::Atomique => return baseline(&Atomique::new(params.clone()), formula),
        CompilerId::Dpqa => return baseline(&Dpqa::new(params.clone()), formula),
        CompilerId::Geyser => return baseline(&Geyser::new(params.clone()), formula),
    };
    match compiled {
        Ok(out) => (RunOutcome::Done(out.metrics), out.passes),
        Err(e) => (RunOutcome::NotApplicable(e.message), Vec::new()),
    }
}

fn baseline(compiler: &impl FpqaCompiler, formula: &Formula) -> (RunOutcome, Vec<PassStat>) {
    let outcome = match compiler.compile(formula) {
        Ok(out) => RunOutcome::Done(out.metrics),
        Err(t) => RunOutcome::TimedOut(t.to_string()),
    };
    (outcome, Vec::new())
}

/// Runs one point like [`run_point`] and keeps only its outcome.
pub fn run_compiler(id: CompilerId, formula: &Formula, params: &FpqaParams) -> RunOutcome {
    run_point(id, formula, params).0
}

/// The benchmark suite configuration.
#[derive(Clone, Debug)]
pub struct Suite {
    /// Benchmark sizes (paper: {20, 50, 75, 100, 150, 250}).
    pub sizes: Vec<usize>,
    /// Variants per size (paper: 10).
    pub variants: usize,
    /// FPQA parameters shared by all FPQA systems.
    pub params: FpqaParams,
}

impl Suite {
    /// The paper's full methodology.
    pub fn paper() -> Self {
        Suite {
            sizes: generator::PAPER_SIZES.to_vec(),
            variants: generator::PAPER_VARIANTS,
            params: FpqaParams::default(),
        }
    }

    /// A reduced suite for quick smoke runs (sizes ≤ 75, 3 variants).
    pub fn quick() -> Self {
        Suite {
            sizes: vec![20, 50, 75],
            variants: 3,
            params: FpqaParams::default(),
        }
    }

    /// Geometric mean of a metric over the suite's variants at one size;
    /// `None` if any variant failed (the paper then marks the point ✗).
    pub fn mean_at_size(
        &self,
        id: CompilerId,
        size: usize,
        metric: impl Fn(&Metrics) -> f64,
    ) -> Option<f64> {
        let mut acc = 0.0f64;
        for variant in 1..=self.variants {
            let f = generator::instance(size, variant);
            match run_compiler(id, &f, &self.params) {
                RunOutcome::Done(m) => acc += metric(&m).max(1e-300).ln(),
                _ => return None,
            }
        }
        Some((acc / self.variants as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_run_uf20() {
        let f = generator::instance(20, 1);
        let params = FpqaParams::default();
        for id in CompilerId::ALL {
            let out = run_compiler(id, &f, &params);
            assert!(
                out.metrics().is_some(),
                "{} failed on uf20-01: {out:?}",
                id.name()
            );
        }
    }

    #[test]
    fn applicability_limits_match_paper() {
        let params = FpqaParams::default();
        let f150 = generator::instance(150, 1);
        assert!(matches!(
            run_compiler(CompilerId::Superconducting, &f150, &params),
            RunOutcome::NotApplicable(_)
        ));
        let f50 = generator::instance(50, 1);
        assert!(matches!(
            run_compiler(CompilerId::Dpqa, &f50, &params),
            RunOutcome::TimedOut(_)
        ));
        assert!(matches!(
            run_compiler(CompilerId::Geyser, &f50, &params),
            RunOutcome::TimedOut(_)
        ));
        // Weaver and Atomique scale to every size in the paper.
        assert!(run_compiler(CompilerId::Weaver, &f50, &params)
            .metrics()
            .is_some());
        assert!(run_compiler(CompilerId::Atomique, &f50, &params)
            .metrics()
            .is_some());
    }

    #[test]
    fn outcome_cells_render() {
        let done = RunOutcome::Done(Metrics {
            compilation_seconds: 1.5,
            execution_micros: 2.0,
            eps: 0.5,
            pulses: 10,
            motion_ops: 3,
            steps: 100,
        });
        assert_eq!(
            done.cell(|m| format!("{:.1}", m.compilation_seconds)),
            "1.5"
        );
        assert_eq!(
            RunOutcome::TimedOut("x".into()).cell(|_| String::new()),
            "✗"
        );
        assert_eq!(
            RunOutcome::NotApplicable("x".into()).cell(|_| String::new()),
            "—"
        );
    }
}
