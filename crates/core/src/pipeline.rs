//! The retargetable compilation pipeline (paper Fig. 3).
//!
//! One entry point, many backends: a Max-3SAT workload is lowered to a
//! hardware-agnostic native circuit and dispatched through the
//! [`BackendRegistry`]. The FPQA target
//! runs the wOptimizer (coloring → shuttling → compression) and emits
//! annotated wQasm plus a pulse schedule (verified by the wChecker), the
//! superconducting target routes through the SABRE transpiler onto a
//! coupling map, and the simulator target executes the native circuit on
//! the ideal state-vector simulator. [`Weaver::compile_target`] and
//! [`Weaver::compile_workload`] reach any of them by name, and
//! [`Weaver::verify`] runs the producing target's checker.

use crate::backend::{BackendError, BackendRegistry, CompileOutput};
use crate::checker::CheckReport;
use crate::codegen::CodegenOptions;
use crate::frontend::Workload;
use weaver_fpqa::{FpqaParams, PulseSchedule};
use weaver_sat::Formula;
use weaver_superconducting::{SuperconductingParams, TranspileResult};

/// The paper's evaluation metrics for one compilation (§8.1).
#[derive(Clone, Debug, PartialEq)]
pub struct Metrics {
    /// Wall-clock compilation time in seconds.
    pub compilation_seconds: f64,
    /// Estimated execution time of one shot in µs.
    pub execution_micros: f64,
    /// Estimated probability of success.
    pub eps: f64,
    /// Number of laser pulses (FPQA) or gates (superconducting).
    pub pulses: usize,
    /// Number of atom-motion operations (FPQA only; 0 for superconducting).
    pub motion_ops: usize,
    /// Internal work-step counter (complexity instrumentation, Fig. 10a).
    pub steps: u64,
}

impl Metrics {
    /// The metrics of an FPQA pulse schedule — the one shared constructor
    /// behind the Weaver pipeline and every baseline compiler (they
    /// previously each hand-rolled the same five fields).
    pub fn for_schedule(
        schedule: &PulseSchedule,
        params: &FpqaParams,
        num_atoms: usize,
        compilation_seconds: f64,
        steps: u64,
    ) -> Metrics {
        Metrics {
            compilation_seconds,
            execution_micros: schedule.duration(params),
            eps: weaver_fpqa::eps(schedule, params, num_atoms),
            pulses: schedule.pulse_count(),
            motion_ops: schedule.motion_count(),
            steps,
        }
    }

    /// The metrics of a routed superconducting circuit.
    pub fn for_transpiled(result: &TranspileResult, compilation_seconds: f64) -> Metrics {
        Metrics {
            compilation_seconds,
            execution_micros: result.execution_time,
            eps: result.eps,
            pulses: result.circuit.gate_count(),
            motion_ops: 0,
            steps: result.steps,
        }
    }
}

/// The Weaver retargetable compiler.
///
/// # Examples
///
/// ```
/// use weaver_core::{Weaver, Workload};
/// use weaver_sat::generator;
///
/// let workload = Workload::MaxSat(generator::instance(20, 1));
/// let weaver = Weaver::new();
/// let fpqa = weaver.compile_workload("fpqa", &workload).unwrap();
/// assert!(fpqa.metrics.eps > 0.0);
/// let report = weaver.verify(&fpqa, &workload).expect("fpqa has a checker");
/// assert!(report.passed(), "{:?}", report.errors);
/// ```
#[derive(Clone, Debug)]
pub struct Weaver {
    /// FPQA hardware parameters.
    pub fpqa_params: FpqaParams,
    /// wOptimizer options.
    pub options: CodegenOptions,
    /// Superconducting backend parameters.
    pub superconducting_params: SuperconductingParams,
}

impl Weaver {
    /// A compiler with default (Rubidium / IBM-Eagle) parameters.
    pub fn new() -> Self {
        Weaver {
            fpqa_params: FpqaParams::default(),
            options: CodegenOptions::default(),
            superconducting_params: SuperconductingParams::default(),
        }
    }

    /// Replaces the FPQA parameters (e.g. for the Fig. 10c CCZ sweep).
    pub fn with_fpqa_params(mut self, params: FpqaParams) -> Self {
        self.fpqa_params = params;
        self
    }

    /// Replaces the wOptimizer options (ablation switches).
    pub fn with_options(mut self, options: CodegenOptions) -> Self {
        self.options = options;
        self
    }

    /// Compiles a Max-3SAT formula for the target resolved from `name` by
    /// the [global registry](BackendRegistry::global) — a registered name
    /// or alias (`fpqa`, `superconducting`/`sc`, `simulator`/`sim`, the
    /// `sc:*` device family) or a parameterized device like
    /// `sc:grid:<w>x<h>`, minted on demand. To dispatch to a custom
    /// backend, build your own [`BackendRegistry`], `register` it, and call
    /// [`crate::backend::Backend::compile`] on the looked-up entry (see the
    /// module example in [`crate::backend`]).
    ///
    /// # Errors
    ///
    /// An unknown target name, or a workload the target cannot hold (see
    /// [`BackendInfo::max_qubits`](crate::backend::BackendInfo::max_qubits)).
    ///
    /// # Examples
    ///
    /// ```
    /// use weaver_core::Weaver;
    /// use weaver_sat::generator;
    ///
    /// let formula = generator::instance(10, 1);
    /// let weaver = Weaver::new();
    /// for target in ["fpqa", "sc", "simulator", "sc:eagle", "sc:grid:3x4"] {
    ///     let out = weaver.compile_target(target, &formula).unwrap();
    ///     assert!(out.metrics.eps > 0.0, "{target}");
    /// }
    /// assert!(weaver.compile_target("ion-trap", &formula).is_err());
    /// ```
    pub fn compile_target(
        &self,
        name: &str,
        formula: &Formula,
    ) -> Result<CompileOutput, BackendError> {
        BackendRegistry::global()
            .resolve(name)?
            .compile(self, formula)
    }

    /// Compiles any frontend-produced [`Workload`] for the target resolved
    /// from `name` by the [global registry](BackendRegistry::global).
    /// Formula workloads take exactly the [`Weaver::compile_target`] path;
    /// circuit workloads dispatch through
    /// [`Backend::compile_circuit`](crate::backend::Backend::compile_circuit)
    /// and are rejected with a typed
    /// [`UnsupportedWorkload`](crate::backend::BackendErrorKind::UnsupportedWorkload)
    /// error by targets that only accept formulas (the FPQA wOptimizer).
    ///
    /// # Errors
    ///
    /// An unknown target name, a register the target cannot hold, or a
    /// circuit workload sent to a formula-only target.
    ///
    /// # Examples
    ///
    /// ```
    /// use weaver_core::{FrontendRegistry, Weaver, Workload};
    ///
    /// let registry = FrontendRegistry::global();
    /// let workload = registry
    ///     .get("dimacs")
    ///     .unwrap()
    ///     .parse("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    ///     .unwrap();
    /// let weaver = Weaver::new();
    /// let out = weaver.compile_workload("simulator", &workload).unwrap();
    /// assert!(out.metrics.eps > 0.0);
    /// ```
    pub fn compile_workload(
        &self,
        name: &str,
        workload: &Workload,
    ) -> Result<CompileOutput, BackendError> {
        BackendRegistry::global()
            .resolve(name)?
            .compile_workload(self, workload)
    }

    /// [`Weaver::compile_workload`]; the handle is ignored.
    #[deprecated(note = "the handle is ignored; call `Weaver::compile_workload`")]
    pub fn compile_workload_cached(
        &self,
        name: &str,
        workload: &Workload,
        _cache: Option<&crate::cache::CacheHandle>,
    ) -> Result<CompileOutput, BackendError> {
        self.compile_workload(name, workload)
    }

    /// Runs the producing backend's verify hook on a [`CompileOutput`]
    /// (dispatched by [`CompileOutput::backend`] through the global
    /// registry): `Some(report)` for a formula workload compiled for the
    /// FPQA path (the wChecker, which compares against the QAOA reference
    /// circuit when the register is small enough), `None` for circuit
    /// workloads, which have no formula-level checker, and for targets
    /// without a checker. Parameterized `sc:*` devices are deliberately
    /// *not* re-minted here: the only mintable backend kind
    /// ([`SuperconductingBackend`](crate::backend::SuperconductingBackend))
    /// has no verify hook, and minting one eagerly rebuilds the coupling
    /// map's all-pairs distance table just to call the default `None`. For a
    /// backend living only in a local registry, call
    /// [`crate::backend::Backend::verify`] on it directly.
    pub fn verify(&self, output: &CompileOutput, workload: &Workload) -> Option<CheckReport> {
        match workload {
            Workload::MaxSat(formula) => BackendRegistry::global()
                .get(&output.backend)
                .and_then(|backend| backend.verify(self, output, formula)),
            Workload::Circuit(_) => None,
        }
    }

    /// [`Weaver::verify`]; the handle is ignored.
    #[deprecated(note = "the handle is ignored; call `Weaver::verify`")]
    pub fn verify_workload(
        &self,
        output: &CompileOutput,
        workload: &Workload,
        _cache: Option<&crate::cache::CacheHandle>,
    ) -> Option<CheckReport> {
        self.verify(output, workload)
    }
}

impl Default for Weaver {
    fn default() -> Self {
        Weaver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CompiledArtifact;
    use crate::codegen::CompiledFpqa;
    use weaver_sat::generator;
    use weaver_superconducting::CouplingMap;

    fn fpqa(out: &CompileOutput) -> &CompiledFpqa {
        out.artifact.as_fpqa().expect("an FPQA artifact")
    }

    #[test]
    fn pipeline_types_are_send_and_sync() {
        // The batch engine shares one `Weaver` per job across worker
        // threads; losing these bounds (e.g. by introducing hidden
        // `Rc`/`RefCell` state) must fail to compile.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Weaver>();
        assert_send_sync::<CompileOutput>();
        assert_send_sync::<crate::codegen::CompiledFpqa>();
        assert_send_sync::<crate::checker::CheckReport>();
    }

    #[test]
    fn fpqa_path_end_to_end() {
        let workload = Workload::MaxSat(generator::instance(20, 1));
        let weaver = Weaver::new();
        let out = weaver.compile_workload("fpqa", &workload).unwrap();
        assert!(out.metrics.eps > 0.0 && out.metrics.eps <= 1.0);
        assert!(out.metrics.execution_micros > 0.0);
        assert!(out.metrics.pulses > 0);
        assert!(out.metrics.motion_ops > 0);
        let report = weaver.verify(&out, &workload).expect("fpqa has a checker");
        assert!(report.passed(), "{:?}", report.errors);
    }

    #[test]
    fn verify_checks_fpqa_formulas_only() {
        let weaver = Weaver::new();
        let formula = Workload::MaxSat(generator::instance(8, 1));
        let fpqa = weaver.compile_workload("fpqa", &formula).unwrap();
        let report = weaver.verify(&fpqa, &formula).expect("fpqa has a checker");
        assert!(report.passed(), "{:?}", report.errors);
        assert!(report.equivalence_checked);
        // Targets without a checker have no verdict.
        for target in ["sc:eagle", "simulator"] {
            let out = weaver.compile_workload(target, &formula).unwrap();
            assert!(weaver.verify(&out, &formula).is_none(), "{target}");
        }
        // Circuit workloads have no formula-level checker.
        let circuit = crate::FrontendRegistry::global()
            .get("wqasm")
            .unwrap()
            .parse("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n")
            .unwrap();
        let out = weaver.compile_workload("simulator", &circuit).unwrap();
        assert!(weaver.verify(&out, &circuit).is_none());
    }

    #[test]
    fn superconducting_path_end_to_end() {
        let f = generator::instance(20, 2);
        let weaver = Weaver::new();
        let out = weaver.compile_target("superconducting", &f).unwrap();
        let CompiledArtifact::Superconducting {
            circuit,
            swap_count,
        } = &out.artifact
        else {
            panic!("a routed circuit expected");
        };
        assert!(*swap_count > 0, "QAOA on heavy-hex must route");
        assert!(out.metrics.eps >= 0.0 && out.metrics.eps <= 1.0);
        assert!(weaver_superconducting::sabre::respects_coupling(
            circuit,
            &CouplingMap::ibm_washington()
        ));
    }

    #[test]
    fn low_ccz_fidelity_disables_compression() {
        let f = generator::instance(20, 3);
        let weaver = Weaver::new().with_fpqa_params(FpqaParams::default().with_ccz_fidelity(0.90));
        let out = weaver.compile_target("fpqa", &f).unwrap();
        // Ladder mode: no CCZ pulses at all, and far more Rydberg slots
        // (≈10 per color instead of 4) plus more atom motion.
        let baseline = Weaver::new().compile_target("fpqa", &f).unwrap();
        let rydbergs = |r: &CompileOutput| {
            fpqa(r)
                .schedule
                .ops()
                .iter()
                .filter(|o| matches!(o, weaver_fpqa::PulseOp::Rydberg { .. }))
                .count()
        };
        let has_ccz = |r: &CompileOutput| {
            fpqa(r).schedule.ops().iter().any(|o| {
                matches!(o, weaver_fpqa::PulseOp::Rydberg { groups }
                    if groups.iter().any(|g| g.len() == 3))
            })
        };
        assert!(rydbergs(&out) > rydbergs(&baseline));
        assert!(!has_ccz(&out), "ladder mode must not use CCZ");
        assert!(has_ccz(&baseline), "compressed mode must use CCZ");
        assert!(out.metrics.motion_ops > baseline.metrics.motion_ops);
    }

    #[test]
    fn fpqa_beats_superconducting_eps_at_scale() {
        // The paper's headline (Fig. 12b): Weaver's EPS exceeds the
        // superconducting baseline already at 20 variables.
        let f = generator::instance(20, 1);
        let weaver = Weaver::new();
        let fpqa = weaver.compile_target("fpqa", &f).unwrap();
        let sc = weaver.compile_target("superconducting", &f).unwrap();
        assert!(
            fpqa.metrics.eps > sc.metrics.eps,
            "FPQA {} ≤ SC {}",
            fpqa.metrics.eps,
            sc.metrics.eps
        );
    }
}
