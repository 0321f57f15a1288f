//! The retargetable backend interface (paper Fig. 3): one front end, many
//! hardware targets.
//!
//! A [`Backend`] turns a Max-3SAT workload into a target-specific artifact
//! by running a named sequence of lowering passes through a [`PassManager`];
//! every pass is individually timed and step-counted ([`PassStat`]), and the
//! result is a unified [`CompileOutput`] regardless of target. Backends are
//! looked up by name (and aliases) in a [`BackendRegistry`], so every
//! dispatch site — the [`Weaver`] pipeline, the batch engine, `weaverc`,
//! the benchmark harness — goes through one table instead of hard-coded
//! `match` arms.
//!
//! Three core targets ship in the default registry:
//!
//! * `fpqa` — the wOptimizer path (coloring → shuttle planning → wQasm),
//! * `superconducting` (alias `sc`) — QAOA lowering + SABRE routing,
//! * `simulator` (alias `sim`) — ideal state-vector execution, reporting the
//!   noiseless probability of measuring a Max-3SAT-optimal assignment —
//!
//! plus the `sc:*` device family: one [`SuperconductingBackend`] per
//! declarative [`DeviceSpec`] (`sc:line`, `sc:grid`, `sc:eagle`,
//! `sc:heron`), with arbitrary rectangular lattices minted on demand by
//! [`BackendRegistry::resolve`] from parameterized names like
//! `sc:grid:<w>x<h>`.
//!
//! # Adding a target
//!
//! Implement [`Backend`] and register it:
//!
//! ```
//! use weaver_core::backend::{
//!     Backend, BackendError, BackendInfo, BackendRegistry, CompileOutput, CompiledArtifact,
//! };
//! use weaver_core::{Metrics, Weaver};
//! use weaver_sat::{generator, Formula};
//!
//! /// A toy target that "lowers" by counting clauses.
//! struct CountingBackend;
//!
//! impl Backend for CountingBackend {
//!     fn info(&self) -> BackendInfo {
//!         BackendInfo {
//!             name: "counting".to_string(),
//!             aliases: Vec::new(),
//!             description: "counts clauses instead of compiling".to_string(),
//!             max_qubits: None,
//!         }
//!     }
//!
//!     fn passes(&self) -> Vec<&'static str> {
//!         vec!["count"]
//!     }
//!
//!     fn compile(&self, weaver: &Weaver, formula: &Formula) -> Result<CompileOutput, BackendError> {
//!         let circuit = weaver_sat::qaoa::build_circuit(formula, &weaver.options.qaoa, false);
//!         Ok(CompileOutput {
//!             backend: "counting".to_string(),
//!             artifact: CompiledArtifact::Superconducting {
//!                 circuit,
//!                 swap_count: 0,
//!             },
//!             metrics: Metrics {
//!                 compilation_seconds: 0.0,
//!                 execution_micros: 0.0,
//!                 eps: 1.0,
//!                 pulses: formula.num_clauses(),
//!                 motion_ops: 0,
//!                 steps: formula.num_clauses() as u64,
//!             },
//!             passes: Vec::new(),
//!         })
//!     }
//! }
//!
//! let mut registry = BackendRegistry::with_default_targets();
//! registry.register(std::sync::Arc::new(CountingBackend));
//! let out = registry
//!     .get("counting")
//!     .unwrap()
//!     .compile(&Weaver::new(), &generator::instance(6, 1))
//!     .unwrap();
//! assert_eq!(out.metrics.pulses, generator::instance(6, 1).num_clauses());
//! ```

use crate::checker::{self, CheckReport};
use crate::codegen::{self, CompiledFpqa};
use crate::coloring::ClauseColoring;
use crate::frontend::Workload;
use crate::pipeline::{Metrics, Weaver};
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use weaver_circuit::{native, Circuit, NativeBasis};
use weaver_sat::{qaoa, Formula};
use weaver_simulator::{gates, Complex, State, UnitaryBuilder};
use weaver_superconducting::{
    device, transpile, CouplingMap, DeviceSpec, RouteError, TranspileResult,
};
use weaver_wqasm::Program;

// ---------------------------------------------------------------------------
// Pass manager
// ---------------------------------------------------------------------------

/// Instrumentation of one lowering pass: wall-clock time plus the pass's
/// work-step count (the paper's Fig. 10a complexity counter, where the pass
/// exposes one).
#[derive(Clone, Debug, PartialEq)]
pub struct PassStat {
    /// Pass name, unique within its backend's pipeline.
    pub name: &'static str,
    /// Wall-clock seconds spent in the pass.
    pub seconds: f64,
    /// Work steps attributed to the pass (0 when uninstrumented).
    pub steps: u64,
}

impl From<&PassStat> for weaver_obs::PassRecord {
    fn from(stat: &PassStat) -> Self {
        weaver_obs::PassRecord {
            name: stat.name.to_string(),
            seconds: stat.seconds,
            steps: stat.steps,
        }
    }
}

/// Runs one named pass body under an obs span (category `"pass"`) and
/// records its duration into the `weaver_pass_duration_seconds{pass=…}`
/// histogram. The body returns `(value, steps)`; the caller gets the value
/// back alongside the canonical [`PassStat`] — every pass in the
/// workspace, whether driven by a [`PassManager`] or hand-rolled in a
/// `compile_circuit` path, reports through this single chokepoint.
pub fn timed_pass<T>(name: &'static str, body: impl FnOnce() -> (T, u64)) -> (T, PassStat) {
    let mut span = weaver_obs::span::span("pass", name);
    let start = Instant::now();
    let (value, steps) = body();
    let seconds = start.elapsed().as_secs_f64();
    span.set_arg("steps", steps);
    drop(span);
    weaver_obs::metrics::histogram_with(
        "weaver_pass_duration_seconds",
        "Wall-clock duration of individual compiler passes.",
        &[("pass", name)],
        &weaver_obs::metrics::DEFAULT_LATENCY_BUCKETS,
    )
    .observe(seconds);
    (
        value,
        PassStat {
            name,
            seconds,
            steps,
        },
    )
}

/// Read-only inputs shared by every pass of one compilation.
pub struct PassContext<'a> {
    /// The compiler configuration (target parameters, wOptimizer options).
    pub weaver: &'a Weaver,
    /// The workload being lowered.
    pub formula: &'a Formula,
}

/// One named lowering pass over backend-specific state `S`; returns the
/// work steps it performed.
type PassFn<S> = fn(&mut S, &PassContext<'_>) -> u64;

/// A small pass manager: an ordered list of named passes over a
/// backend-specific lowering state, with per-pass timing and step counting.
///
/// Backends build one per compilation (construction is a handful of
/// function pointers) and surface the same names through
/// [`Backend::passes`].
pub struct PassManager<S> {
    passes: Vec<(&'static str, PassFn<S>)>,
}

impl<S> PassManager<S> {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager { passes: Vec::new() }
    }

    /// Appends a named pass.
    pub fn pass(mut self, name: &'static str, run: PassFn<S>) -> Self {
        self.passes.push((name, run));
        self
    }

    /// The pass names, in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|(n, _)| *n).collect()
    }

    /// Runs every pass in order, returning one [`PassStat`] per pass. Each
    /// pass executes under [`timed_pass`], so it shows up as a `"pass"`
    /// span in the trace and feeds the per-pass duration histogram.
    pub fn run(&self, state: &mut S, ctx: &PassContext<'_>) -> Vec<PassStat> {
        self.passes
            .iter()
            .map(|(name, run)| timed_pass(name, || ((), run(state, ctx))).1)
            .collect()
    }
}

impl<S> Default for PassManager<S> {
    fn default() -> Self {
        PassManager::new()
    }
}

// ---------------------------------------------------------------------------
// Unified output
// ---------------------------------------------------------------------------

/// The target-specific half of a [`CompileOutput`].
#[derive(Clone, Debug)]
pub enum CompiledArtifact {
    /// FPQA path: annotated wQasm + pulse schedule (see [`CompiledFpqa`]).
    Fpqa(CompiledFpqa),
    /// Superconducting path: the routed physical circuit.
    Superconducting {
        /// The routed circuit (coupling-map legal).
        circuit: Circuit,
        /// SWAPs inserted by routing.
        swap_count: usize,
    },
    /// Simulator path: an ideal state-vector run of the native circuit.
    Simulator(SimulatorRun),
}

impl CompiledArtifact {
    /// The artifact as a printable wQasm program: the annotated program on
    /// the FPQA path, the routed/native circuit converted to plain OpenQASM
    /// statements otherwise.
    pub fn to_program(&self) -> Program {
        match self {
            CompiledArtifact::Fpqa(compiled) => compiled.program.clone(),
            CompiledArtifact::Superconducting { circuit, .. } => {
                weaver_wqasm::convert::circuit_to_program(circuit)
            }
            CompiledArtifact::Simulator(run) => {
                weaver_wqasm::convert::circuit_to_program(&run.native)
            }
        }
    }

    /// The artifact's wQasm text: `print(&self.to_program())`, without
    /// building a program. The FPQA path prints its program by reference;
    /// the others print their circuit straight from the IR.
    pub fn print_wqasm(&self) -> String {
        match self {
            CompiledArtifact::Fpqa(compiled) => weaver_wqasm::print(&compiled.program),
            CompiledArtifact::Superconducting { circuit, .. } => {
                weaver_wqasm::print_circuit(circuit)
            }
            CompiledArtifact::Simulator(run) => weaver_wqasm::print_circuit(&run.native),
        }
    }

    /// The compiled FPQA program (FPQA only).
    pub fn as_fpqa(&self) -> Option<&CompiledFpqa> {
        match self {
            CompiledArtifact::Fpqa(compiled) => Some(compiled),
            _ => None,
        }
    }

    /// Colors used by the clause coloring (FPQA only).
    pub fn num_colors(&self) -> Option<usize> {
        match self {
            CompiledArtifact::Fpqa(compiled) => Some(compiled.coloring.num_colors),
            _ => None,
        }
    }

    /// SWAPs inserted by routing (superconducting only).
    pub fn swap_count(&self) -> Option<usize> {
        match self {
            CompiledArtifact::Superconducting { swap_count, .. } => Some(*swap_count),
            _ => None,
        }
    }
}

/// Result of an ideal state-vector execution ([`SimulatorBackend`]).
#[derive(Clone, Debug)]
pub struct SimulatorRun {
    /// The native `{U3, CZ}` circuit that was simulated.
    pub native: Circuit,
    /// Probability of measuring an optimal outcome — the ideal (noiseless)
    /// EPS. For formula workloads, an assignment achieving
    /// [`SimulatorRun::max_satisfied`]; for circuit workloads, the most
    /// likely basis state.
    pub optimal_probability: f64,
    /// The MAX-SAT optimum: the largest simultaneously satisfiable
    /// *effective weight* (= clause count for unweighted formulas; 0 for
    /// circuit workloads, which have no formula objective).
    pub max_satisfied: u64,
    /// How many of the `2^n` basis states achieve the optimum.
    pub num_optimal: usize,
}

/// The unified result every [`Backend`] produces.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// Primary name of the backend that produced this output, so dispatch
    /// sites (e.g. [`Weaver::verify`]) can route back to the
    /// producing backend's hooks without re-deriving it from the artifact.
    /// Owned because device-family backends (`sc:grid:3x4`) are minted at
    /// resolution time.
    pub backend: String,
    /// The target-specific compiled artifact.
    pub artifact: CompiledArtifact,
    /// Evaluation metrics (paper §8.1), identical in meaning across targets.
    pub metrics: Metrics,
    /// Per-pass timing/step instrumentation, in execution order.
    pub passes: Vec<PassStat>,
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a backend lookup or compilation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendErrorKind {
    /// No backend with the requested name is registered.
    UnknownTarget,
    /// The workload does not fit the target (e.g. register too wide).
    Unsupported,
    /// The workload *kind* does not enter this target (e.g. a circuit
    /// workload on a backend without circuit support).
    UnsupportedWorkload,
}

/// A structured backend failure.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendError {
    /// Failure classification.
    pub kind: BackendErrorKind,
    /// One-line description.
    pub message: String,
}

impl BackendError {
    /// An [`BackendErrorKind::Unsupported`] error for a register wider than
    /// the target's capacity, in the engine's canonical wording.
    pub fn too_many_qubits(num_vars: usize, max_qubits: usize) -> Self {
        BackendError {
            kind: BackendErrorKind::Unsupported,
            message: format!("{num_vars} variables exceed the {max_qubits}-qubit backend"),
        }
    }

    /// The [`BackendErrorKind::UnsupportedWorkload`] rejection of a circuit
    /// workload by a target without circuit support, in the engine's
    /// canonical wording.
    pub fn circuit_unsupported(target: &str) -> Self {
        BackendError {
            kind: BackendErrorKind::UnsupportedWorkload,
            message: format!(
                "target `{target}` does not accept circuit workloads \
                 (circuit-capable targets: simulator, superconducting, sc:*)"
            ),
        }
    }
}

impl From<RouteError> for BackendError {
    /// Routing failures are workload-vs-device mismatches, not lookup
    /// failures.
    fn from(e: RouteError) -> Self {
        BackendError {
            kind: BackendErrorKind::Unsupported,
            message: e.to_string(),
        }
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for BackendError {}

// ---------------------------------------------------------------------------
// The Backend trait
// ---------------------------------------------------------------------------

/// Facts about a backend, surfaced by `weaverc targets`. Owned data: the
/// `sc:*` device family derives names and descriptions from declarative
/// [`DeviceSpec`]s (including parameterized ones like `sc:grid:3x4`).
#[derive(Clone, Debug)]
pub struct BackendInfo {
    /// Primary registry key (the `Target` string).
    pub name: String,
    /// Alternate registry keys (e.g. `sc`).
    pub aliases: Vec<String>,
    /// One-line description.
    pub description: String,
    /// Largest register the target accepts; `None` means unbounded.
    pub max_qubits: Option<usize>,
}

/// A compilation target: lowers a Max-3SAT workload through a named pass
/// pipeline, emits a target-specific artifact, estimates the paper's
/// metrics, and optionally verifies its own output.
///
/// # Examples
///
/// Dispatch through the trait object held by the default registry:
///
/// ```
/// use weaver_core::backend::BackendRegistry;
/// use weaver_core::Weaver;
/// use weaver_sat::generator;
///
/// let registry = BackendRegistry::with_default_targets();
/// let formula = generator::instance(10, 1);
/// let weaver = Weaver::new();
/// for backend in registry.backends() {
///     let out = backend.compile(&weaver, &formula).unwrap();
///     assert!(out.metrics.eps > 0.0, "{}", backend.info().name);
///     assert!(!out.passes.is_empty());
/// }
/// ```
pub trait Backend: Send + Sync {
    /// Name, aliases, description, and capacity.
    fn info(&self) -> BackendInfo;

    /// The names of the lowering passes `compile` runs, in order.
    fn passes(&self) -> Vec<&'static str>;

    /// Compiles `formula` for this target under `weaver`'s configuration.
    ///
    /// # Errors
    ///
    /// [`BackendErrorKind::Unsupported`] when the workload does not fit the
    /// target (see [`BackendInfo::max_qubits`]).
    fn compile(&self, weaver: &Weaver, formula: &Formula) -> Result<CompileOutput, BackendError>;

    /// Whether this target accepts direct circuit workloads (front ends
    /// like `wqasm` that enter at the circuit IR). Targets whose lowering
    /// starts from a formula — like the FPQA clause-coloring path — say
    /// `false` and reject circuits with a structured diagnostic.
    fn supports_circuits(&self) -> bool {
        false
    }

    /// Compiles a circuit workload for this target. The default rejects it
    /// with [`BackendErrorKind::UnsupportedWorkload`].
    ///
    /// # Errors
    ///
    /// [`BackendErrorKind::UnsupportedWorkload`] when
    /// [`Backend::supports_circuits`] is false;
    /// [`BackendErrorKind::Unsupported`] when the circuit does not fit the
    /// target.
    fn compile_circuit(
        &self,
        weaver: &Weaver,
        program: &Program,
    ) -> Result<CompileOutput, BackendError> {
        let _ = (weaver, program);
        Err(BackendError::circuit_unsupported(&self.info().name))
    }

    /// Dispatches a unified [`Workload`] to the matching entry point:
    /// formulas to [`Backend::compile`], circuits to
    /// [`Backend::compile_circuit`].
    ///
    /// # Errors
    ///
    /// Whatever the dispatched entry point returns.
    fn compile_workload(
        &self,
        weaver: &Weaver,
        workload: &Workload,
    ) -> Result<CompileOutput, BackendError> {
        match workload {
            Workload::MaxSat(formula) => self.compile(weaver, formula),
            Workload::Circuit(program) => self.compile_circuit(weaver, program),
        }
    }

    /// Verifies a compilation produced by this backend, if the target has a
    /// checker. The default has none and returns `None`.
    fn verify(
        &self,
        weaver: &Weaver,
        output: &CompileOutput,
        formula: &Formula,
    ) -> Option<CheckReport> {
        let _ = (weaver, output, formula);
        None
    }
}

// ---------------------------------------------------------------------------
// FPQA backend
// ---------------------------------------------------------------------------

/// The wOptimizer path: clause coloring → site layout/shuttle planning →
/// compression → annotated wQasm + pulse schedule, verified by the wChecker.
#[derive(Clone, Copy, Debug, Default)]
pub struct FpqaBackend;

struct FpqaLowering {
    options: codegen::CodegenOptions,
    coloring: Option<ClauseColoring>,
    compiled: Option<CompiledFpqa>,
}

impl FpqaBackend {
    fn manager() -> PassManager<FpqaLowering> {
        PassManager::<FpqaLowering>::new()
            .pass("site-layout", |state, ctx| {
                // The site geometry follows the device parameters
                // (interaction distance within the Rydberg radius, homes
                // well separated), and the §5.4 profitability gate falls
                // back to CNOT ladders when the hardware's CCZ is too noisy
                // to pay off.
                let params = &ctx.weaver.fpqa_params;
                state.options.layout = crate::plan::SiteLayout::for_params(params);
                let typical_move = state.options.layout.home_spacing;
                if state.options.compression
                    && !crate::compress::compression_beneficial(params, typical_move)
                {
                    state.options.compression = false;
                }
                0
            })
            .pass("clause-coloring", |state, ctx| {
                state.coloring = Some(codegen::select_coloring(ctx.formula, &state.options));
                0
            })
            .pass("emit-wqasm", |state, ctx| {
                let coloring = state.coloring.take().expect("clause-coloring ran");
                let compiled = codegen::compile_formula_with_coloring(
                    ctx.formula,
                    &ctx.weaver.fpqa_params,
                    &state.options,
                    coloring,
                );
                let steps = compiled.steps;
                state.compiled = Some(compiled);
                steps
            })
    }
}

impl Backend for FpqaBackend {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "fpqa".to_string(),
            aliases: Vec::new(),
            description: "wOptimizer + wChecker on a neutral-atom FPQA (the paper's path)"
                .to_string(),
            max_qubits: None,
        }
    }

    fn passes(&self) -> Vec<&'static str> {
        FpqaBackend::manager().names()
    }

    fn compile(&self, weaver: &Weaver, formula: &Formula) -> Result<CompileOutput, BackendError> {
        let start = Instant::now();
        let ctx = PassContext { weaver, formula };
        let mut state = FpqaLowering {
            options: weaver.options.clone(),
            coloring: None,
            compiled: None,
        };
        let passes = FpqaBackend::manager().run(&mut state, &ctx);
        let compiled = state.compiled.expect("emit-wqasm ran");
        let metrics = Metrics::for_schedule(
            &compiled.schedule,
            &weaver.fpqa_params,
            formula.num_vars(),
            start.elapsed().as_secs_f64(),
            compiled.steps,
        );
        Ok(CompileOutput {
            backend: self.info().name,
            artifact: CompiledArtifact::Fpqa(compiled),
            metrics,
            passes,
        })
    }

    /// Runs the wChecker, comparing against the QAOA reference circuit
    /// when the register is small enough for the unitary check.
    fn verify(
        &self,
        weaver: &Weaver,
        output: &CompileOutput,
        formula: &Formula,
    ) -> Option<CheckReport> {
        let CompiledArtifact::Fpqa(compiled) = &output.artifact else {
            return None;
        };
        let reference = (formula.num_vars() <= UnitaryBuilder::MAX_QUBITS)
            .then(|| qaoa::build_circuit(formula, &weaver.options.qaoa, false));
        Some(checker::check(
            &compiled.program,
            &weaver.fpqa_params,
            reference.as_ref(),
        ))
    }
}

// ---------------------------------------------------------------------------
// Superconducting backend
// ---------------------------------------------------------------------------

/// The superconducting path: QAOA lowering + SABRE routing onto a coupling
/// map (IBM Washington by default). One instance per registry name — the
/// legacy `superconducting` target and every member of the `sc:*` device
/// family ([`SuperconductingBackend::for_device`]) share this type, so the
/// family's lowering is provably the same code path.
#[derive(Clone, Debug)]
pub struct SuperconductingBackend {
    info: BackendInfo,
    coupling: CouplingMap,
}

struct ScLowering {
    coupling: CouplingMap,
    circuit: Option<Circuit>,
    result: Option<Result<TranspileResult, RouteError>>,
}

impl SuperconductingBackend {
    /// The default target: SABRE onto the 127-qubit IBM Washington map.
    pub fn new() -> Self {
        SuperconductingBackend::named(
            "superconducting",
            &["sc"],
            "QAOA lowering + SABRE routing onto the IBM Washington heavy-hex map",
            CouplingMap::ibm_washington(),
        )
    }

    /// A backend routing onto a custom coupling map, under the legacy
    /// `superconducting` registry name.
    pub fn with_coupling(coupling: CouplingMap) -> Self {
        SuperconductingBackend::named(
            "superconducting",
            &["sc"],
            "QAOA lowering + SABRE routing onto a custom coupling map",
            coupling,
        )
    }

    /// The `sc:<device>` target of a declarative [`DeviceSpec`]: same
    /// lowering pipeline, device-specific coupling map and registry name.
    pub fn for_device(spec: &DeviceSpec) -> Self {
        SuperconductingBackend {
            info: BackendInfo {
                name: spec.full_name(),
                aliases: spec.full_aliases(),
                description: format!(
                    "{} — native 2q gate {}, SABRE-routed",
                    spec.description, spec.native_two_qubit
                ),
                max_qubits: Some(spec.num_qubits()),
            },
            coupling: spec.coupling(),
        }
    }

    fn named(name: &str, aliases: &[&str], description: &str, coupling: CouplingMap) -> Self {
        SuperconductingBackend {
            info: BackendInfo {
                name: name.to_string(),
                aliases: aliases.iter().map(|a| a.to_string()).collect(),
                description: description.to_string(),
                max_qubits: Some(coupling.num_qubits()),
            },
            coupling,
        }
    }

    fn manager() -> PassManager<ScLowering> {
        PassManager::<ScLowering>::new()
            .pass("qaoa-lower", |state, ctx| {
                state.circuit = Some(qaoa::build_circuit(
                    ctx.formula,
                    &ctx.weaver.options.qaoa,
                    ctx.weaver.options.measure,
                ));
                0
            })
            .pass("sabre-transpile", |state, ctx| {
                let circuit = state.circuit.take().expect("qaoa-lower ran");
                let result = transpile(
                    &circuit,
                    &state.coupling,
                    &ctx.weaver.superconducting_params,
                );
                let steps = result.as_ref().map_or(0, |r| r.steps);
                state.result = Some(result);
                steps
            })
    }
}

impl Default for SuperconductingBackend {
    fn default() -> Self {
        SuperconductingBackend::new()
    }
}

impl Backend for SuperconductingBackend {
    fn info(&self) -> BackendInfo {
        self.info.clone()
    }

    fn passes(&self) -> Vec<&'static str> {
        SuperconductingBackend::manager().names()
    }

    fn compile(&self, weaver: &Weaver, formula: &Formula) -> Result<CompileOutput, BackendError> {
        if formula.num_vars() > self.coupling.num_qubits() {
            return Err(BackendError::too_many_qubits(
                formula.num_vars(),
                self.coupling.num_qubits(),
            ));
        }
        let start = Instant::now();
        let ctx = PassContext { weaver, formula };
        let mut state = ScLowering {
            coupling: self.coupling.clone(),
            circuit: None,
            result: None,
        };
        let passes = SuperconductingBackend::manager().run(&mut state, &ctx);
        let result = state.result.expect("sabre-transpile ran")?;
        let metrics = Metrics::for_transpiled(&result, start.elapsed().as_secs_f64());
        Ok(CompileOutput {
            backend: self.info.name.clone(),
            artifact: CompiledArtifact::Superconducting {
                circuit: result.circuit,
                swap_count: result.swap_count,
            },
            metrics,
            passes,
        })
    }

    fn supports_circuits(&self) -> bool {
        true
    }

    fn compile_circuit(
        &self,
        weaver: &Weaver,
        program: &Program,
    ) -> Result<CompileOutput, BackendError> {
        let start = Instant::now();
        let (ingested, ingest) = timed_pass("ingest-circuit", || {
            let result =
                weaver_wqasm::convert::program_to_circuit(program).map_err(|e| BackendError {
                    kind: BackendErrorKind::Unsupported,
                    message: e.to_string(),
                });
            let steps = result.as_ref().map_or(0, |c| c.gate_count() as u64);
            (result, steps)
        });
        let circuit = ingested?;
        if circuit.num_qubits() > self.coupling.num_qubits() {
            return Err(BackendError::too_many_qubits(
                circuit.num_qubits(),
                self.coupling.num_qubits(),
            ));
        }
        let (routed, route) = timed_pass("sabre-transpile", || {
            let result = transpile(&circuit, &self.coupling, &weaver.superconducting_params);
            let steps = result.as_ref().map_or(0, |r| r.steps);
            (result, steps)
        });
        let result = routed?;
        let metrics = Metrics::for_transpiled(&result, start.elapsed().as_secs_f64());
        Ok(CompileOutput {
            backend: self.info.name.clone(),
            artifact: CompiledArtifact::Superconducting {
                circuit: result.circuit,
                swap_count: result.swap_count,
            },
            metrics,
            passes: vec![ingest, route],
        })
    }
}

// ---------------------------------------------------------------------------
// Simulator backend
// ---------------------------------------------------------------------------

/// The ideal-execution target: lowers the QAOA circuit to the shared native
/// basis (the artifact) and computes its output state on the state-vector
/// simulator, reporting the noiseless probability of measuring a
/// Max-3SAT-optimal assignment as EPS. Formula workloads run the QAOA
/// layers from one clause-score table
/// ([`Formula::satisfied_weight_table`]); circuit workloads run gate by
/// gate.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimulatorBackend;

impl SimulatorBackend {
    /// Register cap: `2^20` amplitudes (16 MiB) keeps the full-vector run
    /// and the exhaustive optimum scan fast on one core, and covers the
    /// SATLIB uf20 fixture suite.
    pub const MAX_QUBITS: usize = 20;

    fn manager() -> PassManager<SimLowering> {
        PassManager::<SimLowering>::new()
            .pass("qaoa-lower", |state, ctx| {
                // No measurement statements: the backend reads the final
                // amplitudes directly instead of sampling.
                state.circuit = Some(qaoa::build_circuit(
                    ctx.formula,
                    &ctx.weaver.options.qaoa,
                    false,
                ));
                0
            })
            .pass("nativize", |state, _ctx| {
                let circuit = state.circuit.take().expect("qaoa-lower ran");
                let native = native::nativize(&circuit, NativeBasis::U3Cz);
                let steps = native.gate_count() as u64;
                state.native = Some(native);
                steps
            })
            .pass("statevector", |state, ctx| {
                // The QAOA state from the circuit's two layers rather than
                // its gates: the cost evolution is the diagonal
                // e^{-iγ·s(x)} over the clause-score table (the phase
                // polynomial is the satisfied weight, up to a global
                // phase), the mixer is n RX(2β) butterflies. The nativized
                // circuit is the same unitary up to a global phase.
                let n = ctx.formula.num_vars();
                let scores = ctx.formula.satisfied_weight_table();
                let plus = Complex::real((scores.len() as f64).sqrt().recip());
                let mut vector = State::from_amplitudes(vec![plus; scores.len()]);
                let layers = &ctx.weaver.options.qaoa.layers;
                for &(gamma, beta) in layers {
                    vector.apply_score_phases(gamma, &scores);
                    let mixer = gates::rx(2.0 * beta);
                    for q in 0..n {
                        vector.apply(&mixer, &[q]);
                    }
                }
                state.state = Some(vector);
                state.scores = Some(scores);
                // Amplitude passes: the score table, |+⟩ⁿ, then per layer
                // the diagonal and n butterflies.
                (2 + layers.len() as u64 * (n as u64 + 1)) << n
            })
            .pass("ideal-eps", |state, ctx| {
                let vector = state.state.take().expect("statevector ran");
                let scores = state.scores.take().expect("statevector ran");
                // Scores are effective weights, which for unweighted
                // formulas are the satisfied-clause counts; the scan and
                // accumulation run in index order.
                let mut max_satisfied = 0u64;
                let mut num_optimal = 0usize;
                let mut optimal_probability = 0.0f64;
                for (amp, &satisfied) in vector.amplitudes().iter().zip(&scores) {
                    if satisfied > max_satisfied {
                        max_satisfied = satisfied;
                        num_optimal = 0;
                        optimal_probability = 0.0;
                    }
                    if satisfied == max_satisfied {
                        num_optimal += 1;
                        optimal_probability += amp.norm_sqr();
                    }
                }
                state.outcome = Some((optimal_probability, max_satisfied, num_optimal));
                // One readout pass over the amplitudes and their scores.
                1u64 << ctx.formula.num_vars()
            })
    }
}

struct SimLowering {
    circuit: Option<Circuit>,
    native: Option<Circuit>,
    state: Option<State>,
    /// The clause-score table, shared by `statevector` and `ideal-eps`.
    scores: Option<Vec<u64>>,
    outcome: Option<(f64, u64, usize)>,
}

impl Backend for SimulatorBackend {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "simulator".to_string(),
            aliases: vec!["sim".to_string()],
            description: "ideal state-vector execution (noiseless EPS reference)".to_string(),
            max_qubits: Some(SimulatorBackend::MAX_QUBITS),
        }
    }

    fn passes(&self) -> Vec<&'static str> {
        SimulatorBackend::manager().names()
    }

    fn compile(&self, weaver: &Weaver, formula: &Formula) -> Result<CompileOutput, BackendError> {
        if formula.num_vars() > SimulatorBackend::MAX_QUBITS {
            return Err(BackendError::too_many_qubits(
                formula.num_vars(),
                SimulatorBackend::MAX_QUBITS,
            ));
        }
        let start = Instant::now();
        let ctx = PassContext { weaver, formula };
        let mut state = SimLowering {
            circuit: None,
            native: None,
            state: None,
            scores: None,
            outcome: None,
        };
        let passes = SimulatorBackend::manager().run(&mut state, &ctx);
        let native = state.native.expect("nativize ran");
        let (optimal_probability, max_satisfied, num_optimal) =
            state.outcome.expect("ideal-eps ran");
        let metrics = Metrics {
            compilation_seconds: start.elapsed().as_secs_f64(),
            // An ideal run has no hardware clock and no atom motion.
            execution_micros: 0.0,
            eps: optimal_probability,
            pulses: native.gate_count(),
            motion_ops: 0,
            steps: passes.iter().map(|p| p.steps).sum(),
        };
        Ok(CompileOutput {
            backend: self.info().name,
            artifact: CompiledArtifact::Simulator(SimulatorRun {
                native,
                optimal_probability,
                max_satisfied,
                num_optimal,
            }),
            metrics,
            passes,
        })
    }

    fn supports_circuits(&self) -> bool {
        true
    }

    fn compile_circuit(
        &self,
        _weaver: &Weaver,
        program: &Program,
    ) -> Result<CompileOutput, BackendError> {
        let start = Instant::now();
        let (ingested, ingest) = timed_pass("ingest-circuit", || {
            let result =
                weaver_wqasm::convert::program_to_circuit(program).map_err(|e| BackendError {
                    kind: BackendErrorKind::Unsupported,
                    message: e.to_string(),
                });
            let steps = result.as_ref().map_or(0, |c| c.gate_count() as u64);
            (result, steps)
        });
        let circuit = ingested?;
        if circuit.num_qubits() > SimulatorBackend::MAX_QUBITS {
            return Err(BackendError::too_many_qubits(
                circuit.num_qubits(),
                SimulatorBackend::MAX_QUBITS,
            ));
        }
        let (native, nativize_stat) = timed_pass("nativize", || {
            let native = native::nativize(&circuit, NativeBasis::U3Cz);
            let steps = native.gate_count() as u64;
            (native, steps)
        });
        let (vector, sim_stat) = timed_pass("statevector", || {
            let vector = native.statevector();
            let steps = (native.gate_count() as u64) << native.num_qubits();
            (vector, steps)
        });
        // Without a formula objective, "success" is the circuit's most
        // likely outcome: EPS = peak basis-state probability.
        let ((optimal_probability, num_optimal), peak) = timed_pass("peak-probability", || {
            let optimal_probability = vector
                .amplitudes()
                .iter()
                .map(|amp| amp.norm_sqr())
                .fold(0.0f64, f64::max);
            // Nativization rewrites gates into {U3, CZ}, so probabilities
            // that are equal in exact arithmetic can differ in the last few
            // ulps; count peaks up to a relative tolerance rather than
            // bitwise.
            let tolerance = optimal_probability * 1e-9;
            let num_optimal = vector
                .amplitudes()
                .iter()
                .filter(|amp| amp.norm_sqr() >= optimal_probability - tolerance)
                .count();
            (
                (optimal_probability, num_optimal),
                1u64 << native.num_qubits(),
            )
        });
        let passes = vec![ingest, nativize_stat, sim_stat, peak];
        let metrics = Metrics {
            compilation_seconds: start.elapsed().as_secs_f64(),
            execution_micros: 0.0,
            eps: optimal_probability,
            pulses: native.gate_count(),
            motion_ops: 0,
            steps: passes.iter().map(|p| p.steps).sum(),
        };
        Ok(CompileOutput {
            backend: self.info().name,
            artifact: CompiledArtifact::Simulator(SimulatorRun {
                native,
                optimal_probability,
                max_satisfied: 0,
                num_optimal,
            }),
            metrics,
            passes,
        })
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A name → [`Backend`] table: the single place a target plugs into the
/// compiler. Lookups match the primary name or any alias;
/// [`BackendRegistry::resolve`] additionally mints `sc:*` device-family
/// backends from parameterized names (`sc:grid:<w>x<h>`).
///
/// # Examples
///
/// ```
/// use weaver_core::backend::BackendRegistry;
/// use weaver_core::Weaver;
/// use weaver_sat::generator;
///
/// let registry = BackendRegistry::with_default_targets();
/// assert_eq!(
///     registry.names(),
///     vec!["fpqa", "superconducting", "simulator", "sc:line", "sc:grid", "sc:eagle", "sc:heron"]
/// );
///
/// // Aliases resolve to the same backend.
/// let by_alias = registry.get("sc").unwrap();
/// assert_eq!(by_alias.info().name, "superconducting");
/// assert_eq!(registry.get("sc:washington").unwrap().info().name, "sc:eagle");
///
/// // Retarget one workload by string — including a device minted on demand.
/// let formula = generator::instance(10, 1);
/// let weaver = Weaver::new();
/// let ideal = registry
///     .get("simulator")
///     .unwrap()
///     .compile(&weaver, &formula)
///     .unwrap();
/// assert!(ideal.metrics.eps > 0.0 && ideal.metrics.eps <= 1.0);
/// let grid = registry.resolve("sc:grid:4x5").unwrap();
/// assert_eq!(grid.info().max_qubits, Some(20));
/// ```
pub struct BackendRegistry {
    backends: Vec<Arc<dyn Backend>>,
}

impl BackendRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        BackendRegistry {
            backends: Vec::new(),
        }
    }

    /// The registry with the three core targets — `fpqa`,
    /// `superconducting` (alias `sc`), `simulator` (alias `sim`) — followed
    /// by the built-in `sc:*` device family ([`DeviceSpec::builtin`]).
    pub fn with_default_targets() -> Self {
        let mut registry = BackendRegistry::new();
        registry.register(Arc::new(FpqaBackend));
        registry.register(Arc::new(SuperconductingBackend::new()));
        registry.register(Arc::new(SimulatorBackend));
        for spec in DeviceSpec::builtin() {
            registry.register(Arc::new(SuperconductingBackend::for_device(&spec)));
        }
        registry
    }

    /// The process-wide shared registry of default targets, used by every
    /// dispatch site ([`Weaver::compile_target`], the batch engine,
    /// `weaverc`, the benchmark harness).
    pub fn global() -> &'static BackendRegistry {
        static GLOBAL: OnceLock<BackendRegistry> = OnceLock::new();
        GLOBAL.get_or_init(BackendRegistry::with_default_targets)
    }

    /// Adds a backend. A duplicate primary name replaces the old entry.
    pub fn register(&mut self, backend: Arc<dyn Backend>) {
        let name = backend.info().name;
        self.backends.retain(|b| b.info().name != name);
        self.backends.push(backend);
    }

    /// Looks up a registered backend by primary name or alias.
    pub fn get(&self, name: &str) -> Option<&dyn Backend> {
        self.entry(name).map(|b| b.as_ref())
    }

    fn entry(&self, name: &str) -> Option<&Arc<dyn Backend>> {
        self.backends.iter().find(|b| {
            let info = b.info();
            info.name == name || info.aliases.iter().any(|a| a == name)
        })
    }

    /// Resolves a target name to a backend: a registered name or alias
    /// first, then the parameterized `sc:*` namespace — `sc:grid:<w>x<h>`
    /// mints a [`SuperconductingBackend`] for that lattice on demand, so
    /// the device family is an open-ended axis rather than a fixed table.
    ///
    /// # Errors
    ///
    /// [`BackendErrorKind::UnknownTarget`], carrying the device-family
    /// diagnostic (unknown device, malformed or oversized grid dims) for
    /// `sc:*` names and the registry's known-target list otherwise.
    pub fn resolve(&self, name: &str) -> Result<Arc<dyn Backend>, BackendError> {
        if let Some(backend) = self.entry(name) {
            return Ok(backend.clone());
        }
        if name.starts_with(device::FAMILY_PREFIX) {
            let spec = DeviceSpec::resolve(name).map_err(|message| BackendError {
                kind: BackendErrorKind::UnknownTarget,
                message,
            })?;
            return Ok(Arc::new(SuperconductingBackend::for_device(&spec)));
        }
        Err(self.unknown_target(name))
    }

    /// Registered backends, in registration order.
    pub fn backends(&self) -> impl Iterator<Item = &dyn Backend> {
        self.backends.iter().map(|b| b.as_ref())
    }

    /// Primary names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.info().name).collect()
    }

    /// The canonical [`BackendErrorKind::UnknownTarget`] error for `name`.
    pub fn unknown_target(&self, name: &str) -> BackendError {
        BackendError {
            kind: BackendErrorKind::UnknownTarget,
            message: format!(
                "unknown target `{name}` (known targets: {}; arbitrary grids via sc:grid:<w>x<h>)",
                self.names().join(", ")
            ),
        }
    }
}

impl Default for BackendRegistry {
    fn default() -> Self {
        BackendRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_sat::generator;

    #[test]
    fn backend_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BackendRegistry>();
        assert_send_sync::<CompileOutput>();
        assert_send_sync::<FpqaBackend>();
        assert_send_sync::<SuperconductingBackend>();
        assert_send_sync::<SimulatorBackend>();
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        let registry = BackendRegistry::with_default_targets();
        for (key, name) in [
            ("fpqa", "fpqa"),
            ("superconducting", "superconducting"),
            ("sc", "superconducting"),
            ("simulator", "simulator"),
            ("sim", "simulator"),
            ("sc:line", "sc:line"),
            ("sc:grid", "sc:grid"),
            ("sc:eagle", "sc:eagle"),
            ("sc:washington", "sc:eagle"),
            ("sc:heron", "sc:heron"),
            ("sc:torino", "sc:heron"),
        ] {
            assert_eq!(registry.get(key).unwrap().info().name, name);
        }
        assert!(registry.get("ion-trap").is_none());
        let err = registry.unknown_target("ion-trap");
        assert_eq!(err.kind, BackendErrorKind::UnknownTarget);
        assert!(err.message.contains("fpqa, superconducting, simulator"));
        assert!(err.message.contains("sc:line, sc:grid, sc:eagle, sc:heron"));
    }

    #[test]
    fn resolve_mints_parameterized_grid_devices() {
        let registry = BackendRegistry::with_default_targets();
        let grid = registry.resolve("sc:grid:4x5").unwrap();
        assert_eq!(grid.info().name, "sc:grid:4x5");
        assert_eq!(grid.info().max_qubits, Some(20));
        // Not registered — minted per resolution, equal across calls.
        assert!(registry.get("sc:grid:4x5").is_none());
        let again = registry.resolve("sc:grid:4x5").unwrap();
        assert_eq!(again.info().name, grid.info().name);
        // Malformed and oversized grids are structured errors.
        for bad in ["sc:grid:0x4", "sc:grid:axb", "sc:grid:100x100"] {
            let err = registry.resolve(bad).err().expect("must fail");
            assert_eq!(err.kind, BackendErrorKind::UnknownTarget, "{bad}");
        }
        let err = registry.resolve("sc:osprey").err().expect("must fail");
        assert!(err.message.contains("known devices"), "{}", err.message);
    }

    #[test]
    fn device_family_routes_within_capacity() {
        let registry = BackendRegistry::with_default_targets();
        let weaver = Weaver::new();
        let f = generator::instance(10, 1);
        for name in ["sc:line", "sc:grid", "sc:eagle", "sc:heron", "sc:grid:3x4"] {
            let backend = registry.resolve(name).unwrap();
            let out = backend.compile(&weaver, &f).unwrap();
            assert_eq!(out.backend, backend.info().name, "{name}");
            assert!(out.artifact.swap_count().is_some(), "{name}");
        }
        // A workload wider than the device is a typed error, not a panic.
        let tiny = registry.resolve("sc:grid:2x2").unwrap();
        let err = tiny.compile(&weaver, &f).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Unsupported);
        assert!(err.message.contains("exceed the 4-qubit backend"), "{err}");
    }

    #[test]
    fn every_backend_names_its_passes() {
        let registry = BackendRegistry::with_default_targets();
        for backend in registry.backends() {
            let names = backend.passes();
            assert!(!names.is_empty(), "{}", backend.info().name);
            let out = backend
                .compile(&Weaver::new(), &generator::instance(8, 1))
                .unwrap();
            let ran: Vec<&'static str> = out.passes.iter().map(|p| p.name).collect();
            assert_eq!(ran, names, "{}", backend.info().name);
            assert!(out.passes.iter().all(|p| p.seconds >= 0.0));
        }
    }

    #[test]
    fn simulator_reports_ideal_eps() {
        let f = generator::instance(10, 1);
        let out = SimulatorBackend.compile(&Weaver::new(), &f).unwrap();
        let CompiledArtifact::Simulator(run) = &out.artifact else {
            panic!("simulator artifact expected");
        };
        assert!(run.optimal_probability > 0.0 && run.optimal_probability <= 1.0);
        assert_eq!(out.metrics.eps, run.optimal_probability);
        assert!(run.max_satisfied <= f.num_clauses() as u64);
        assert!(run.num_optimal >= 1);
        assert_eq!(out.metrics.motion_ops, 0);
        assert!(out.metrics.pulses > 0);
    }

    #[test]
    fn weighted_formula_changes_simulator_optimum() {
        use weaver_sat::{Clause, Lit};
        // One heavy clause (x0), one light (¬x0): the weighted optimum is
        // 5 (satisfy the heavy one), not the clause count.
        let f = Formula::new(
            1,
            vec![
                Clause::weighted(vec![Lit::pos(0)], 5),
                Clause::weighted(vec![Lit::neg(0)], 2),
            ],
        );
        let out = SimulatorBackend.compile(&Weaver::new(), &f).unwrap();
        let CompiledArtifact::Simulator(run) = &out.artifact else {
            panic!("simulator artifact expected");
        };
        assert_eq!(run.max_satisfied, 5);
        assert_eq!(run.num_optimal, 1);
    }

    #[test]
    fn circuit_workloads_route_by_backend_capability() {
        let program = weaver_wqasm::parse("qreg q[2];\nh q[0];\ncx q[0], q[1];\n").unwrap();
        let workload = Workload::Circuit(program.clone());
        let weaver = Weaver::new();

        // FPQA declares no circuit support and rejects structurally.
        assert!(!FpqaBackend.supports_circuits());
        let err = FpqaBackend
            .compile_workload(&weaver, &workload)
            .unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::UnsupportedWorkload);
        assert!(err.message.contains("`fpqa`"), "{err}");
        assert!(err.message.contains("circuit-capable"), "{err}");

        // The simulator runs it: a Bell pair peaks at p = 0.5 on two states.
        assert!(SimulatorBackend.supports_circuits());
        let out = SimulatorBackend
            .compile_workload(&weaver, &workload)
            .unwrap();
        let CompiledArtifact::Simulator(run) = &out.artifact else {
            panic!("simulator artifact expected");
        };
        assert!((run.optimal_probability - 0.5).abs() < 1e-9);
        assert_eq!(run.num_optimal, 2);
        assert_eq!(run.max_satisfied, 0);

        // Superconducting targets route it and report SWAP counts.
        let sc = SuperconductingBackend::new();
        assert!(sc.supports_circuits());
        let out = sc.compile_workload(&weaver, &workload).unwrap();
        assert!(out.artifact.swap_count().is_some());
        let ran: Vec<&str> = out.passes.iter().map(|p| p.name).collect();
        assert_eq!(ran, vec!["ingest-circuit", "sabre-transpile"]);

        // MaxSat workloads dispatch to the formula path unchanged.
        let f = generator::instance(8, 1);
        let via_workload = FpqaBackend
            .compile_workload(&weaver, &Workload::MaxSat(f.clone()))
            .unwrap();
        let direct = FpqaBackend.compile(&weaver, &f).unwrap();
        assert_eq!(
            via_workload.artifact.print_wqasm(),
            direct.artifact.print_wqasm()
        );
    }

    #[test]
    fn oversized_circuits_are_typed_errors() {
        let program = weaver_wqasm::parse("qreg q[25];\nh q[0];\n").unwrap();
        let err = SimulatorBackend
            .compile_circuit(&Weaver::new(), &program)
            .unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Unsupported);
        assert!(err.message.contains("exceed the 20-qubit backend"));
    }

    #[test]
    fn simulator_rejects_oversized_registers() {
        let f = generator::instance(50, 1);
        let err = SimulatorBackend.compile(&Weaver::new(), &f).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Unsupported);
        assert!(err.message.contains("exceed the 20-qubit backend"));
    }

    #[test]
    fn fpqa_backend_verifies_its_own_output() {
        let f = generator::instance(10, 2);
        let weaver = Weaver::new();
        let out = FpqaBackend.compile(&weaver, &f).unwrap();
        let report = FpqaBackend.verify(&weaver, &out, &f).expect("fpqa checks");
        assert!(report.passed(), "{:?}", report.errors);
        // Targets without a checker return None.
        let sc = SuperconductingBackend::new().compile(&weaver, &f).unwrap();
        assert!(SuperconductingBackend::new()
            .verify(&weaver, &sc, &f)
            .is_none());
    }
}
