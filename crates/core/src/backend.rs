//! The retargetable backend interface (paper Fig. 3): one front end, many
//! hardware targets.
//!
//! A [`Backend`] turns a Max-3SAT workload (or, on circuit-capable
//! targets, a circuit) into a target-specific artifact by running a named
//! sequence of lowering passes through a [`PassManager`]; every pass is
//! individually timed and step-counted ([`PassStat`]), and the result is a
//! unified [`CompileOutput`] regardless of target. Backends are
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
//! Implement [`Backend`] and register it. A backend registered in
//! [`BackendRegistry::with_default_targets`] is a target everywhere:
//! `weaverc`, batch manifests and `weaverd` requests resolve names through
//! [`BackendRegistry::global`], and the engine keys artifacts on the
//! canonical name.
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

/// The `weaver_pass_duration_seconds{pass=…}` histogram every
/// [`PassManager`] run feeds, one series per pass name.
pub fn pass_duration_histogram(pass: &str) -> Arc<weaver_obs::metrics::Histogram> {
    weaver_obs::metrics::histogram_with(
        "weaver_pass_duration_seconds",
        "Wall-clock duration of individual compiler passes.",
        &[("pass", pass)],
        &weaver_obs::metrics::DEFAULT_LATENCY_BUCKETS,
    )
}

/// Read-only inputs shared by every pass of one compilation. `W` is the
/// workload kind the pipeline starts from: a [`Formula`] or a circuit
/// [`Program`].
pub struct PassContext<'a, W> {
    /// The compiler configuration (target parameters, wOptimizer options).
    pub weaver: &'a Weaver,
    /// The workload being lowered.
    pub workload: &'a W,
}

/// One named lowering pass over backend-specific state `S`; returns the
/// work steps it performed.
type PassFn<S, W> = fn(&mut S, &PassContext<'_, W>) -> Result<u64, BackendError>;

/// A small pass manager: an ordered list of named passes over a
/// backend-specific lowering state, with per-pass timing and step counting.
/// Every pipeline in the workspace runs through it.
///
/// Backends build one per compilation (construction is a handful of
/// function pointers) and surface the formula pipeline's names through
/// [`Backend::passes`].
pub struct PassManager<S, W> {
    passes: Vec<(&'static str, PassFn<S, W>)>,
}

impl<S, W> PassManager<S, W> {
    /// Appends a named pass.
    pub fn pass(mut self, name: &'static str, run: PassFn<S, W>) -> Self {
        self.passes.push((name, run));
        self
    }

    /// The pass names, in execution order.
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|(n, _)| *n).collect()
    }

    /// Runs every pass in order, returning one [`PassStat`] per pass. Each
    /// pass runs under a `"pass"` span and feeds
    /// [`pass_duration_histogram`]; its clock is the only one behind
    /// [`Metrics::compilation_seconds`], the sum of the returned seconds.
    ///
    /// # Errors
    ///
    /// The first failing pass's error; later passes do not run.
    pub fn run(
        &self,
        state: &mut S,
        ctx: &PassContext<'_, W>,
    ) -> Result<Vec<PassStat>, BackendError> {
        self.passes
            .iter()
            .map(|&(name, run)| {
                let mut span = weaver_obs::span::span("pass", name);
                let start = Instant::now();
                let result = run(state, ctx);
                let seconds = start.elapsed().as_secs_f64();
                span.set_arg("steps", *result.as_ref().unwrap_or(&0));
                drop(span);
                pass_duration_histogram(name).observe(seconds);
                Ok(PassStat {
                    name,
                    seconds,
                    steps: result?,
                })
            })
            .collect()
    }
}

impl<S, W> Default for PassManager<S, W> {
    /// An empty pipeline.
    fn default() -> Self {
        PassManager { passes: Vec::new() }
    }
}

/// A compile's [`Metrics::compilation_seconds`]: the sum of its passes'
/// seconds, so the metric and the pass trace read one clock.
fn compilation_seconds(passes: &[PassStat]) -> f64 {
    passes.iter().map(|p| p.seconds).sum()
}

/// The lowering state of a pipeline that can start from a circuit
/// workload, as the shared `ingest-circuit` pass sees it.
trait CircuitLowering {
    /// The widest register the target accepts, and the slot the next pass
    /// takes its circuit from.
    fn circuit_slot(&mut self) -> (usize, &mut Option<Circuit>);
}

/// `ingest-circuit`: converts a wQasm program to the circuit IR and checks
/// that it fits the target. Steps: the circuit's gate count.
fn ingest_circuit<S: CircuitLowering>(
    state: &mut S,
    ctx: &PassContext<'_, Program>,
) -> Result<u64, BackendError> {
    let circuit =
        weaver_wqasm::convert::program_to_circuit(ctx.workload).map_err(|e| BackendError {
            kind: BackendErrorKind::Unsupported,
            message: e.to_string(),
        })?;
    let (max_qubits, slot) = state.circuit_slot();
    BackendError::check_width(circuit.num_qubits(), max_qubits)?;
    let steps = circuit.gate_count() as u64;
    *slot = Some(circuit);
    Ok(steps)
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
    /// Checks that a `width`-qubit register fits a `max_qubits` target;
    /// the error is [`BackendErrorKind::Unsupported`], in the engine's
    /// canonical wording.
    pub fn check_width(width: usize, max_qubits: usize) -> Result<(), Self> {
        if width <= max_qubits {
            return Ok(());
        }
        Err(BackendError {
            kind: BackendErrorKind::Unsupported,
            message: format!("{width} variables exceed the {max_qubits}-qubit backend"),
        })
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

    /// Compiles a circuit workload (front ends like `wqasm` that enter at
    /// the circuit IR) for this target. The default rejects it, as a
    /// target whose lowering starts from a formula — like the FPQA
    /// clause-coloring path — must.
    ///
    /// # Errors
    ///
    /// [`BackendErrorKind::UnsupportedWorkload`] from the default;
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
    fn manager() -> PassManager<FpqaLowering, Formula> {
        PassManager::<FpqaLowering, Formula>::default()
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
                Ok(0)
            })
            .pass("clause-coloring", |state, ctx| {
                state.coloring = Some(codegen::select_coloring(ctx.workload, &state.options));
                Ok(0)
            })
            .pass("emit-wqasm", |state, ctx| {
                let coloring = state.coloring.take().expect("clause-coloring ran");
                let compiled = codegen::compile_formula_with_coloring(
                    ctx.workload,
                    &ctx.weaver.fpqa_params,
                    &state.options,
                    coloring,
                );
                let steps = compiled.steps;
                state.compiled = Some(compiled);
                Ok(steps)
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
        let mut state = FpqaLowering {
            options: weaver.options.clone(),
            coloring: None,
            compiled: None,
        };
        let ctx = PassContext {
            weaver,
            workload: formula,
        };
        let passes = FpqaBackend::manager().run(&mut state, &ctx)?;
        let compiled = state.compiled.expect("emit-wqasm ran");
        let metrics = Metrics::for_schedule(
            &compiled.schedule,
            &weaver.fpqa_params,
            formula.num_vars(),
            compilation_seconds(&passes),
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

struct ScLowering<'a> {
    coupling: &'a CouplingMap,
    circuit: Option<Circuit>,
    routed: Option<TranspileResult>,
}

impl CircuitLowering for ScLowering<'_> {
    fn circuit_slot(&mut self) -> (usize, &mut Option<Circuit>) {
        (self.coupling.num_qubits(), &mut self.circuit)
    }
}

/// `sabre-transpile`: routes the lowered circuit onto the coupling map.
/// Steps: SABRE's work counter.
fn sabre_transpile<W>(
    state: &mut ScLowering<'_>,
    ctx: &PassContext<'_, W>,
) -> Result<u64, BackendError> {
    let circuit = state.circuit.take().expect("a lowering pass ran");
    let routed = transpile(&circuit, state.coupling, &ctx.weaver.superconducting_params)?;
    let steps = routed.steps;
    state.routed = Some(routed);
    Ok(steps)
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

    fn manager<'a>() -> PassManager<ScLowering<'a>, Formula> {
        PassManager::<ScLowering<'a>, Formula>::default()
            .pass("qaoa-lower", |state, ctx| {
                state.circuit = Some(qaoa::build_circuit(
                    ctx.workload,
                    &ctx.weaver.options.qaoa,
                    ctx.weaver.options.measure,
                ));
                Ok(0)
            })
            .pass("sabre-transpile", sabre_transpile)
    }

    fn circuit_manager<'a>() -> PassManager<ScLowering<'a>, Program> {
        PassManager::default()
            .pass("ingest-circuit", ingest_circuit)
            .pass("sabre-transpile", sabre_transpile)
    }

    /// Runs `manager` over `workload` and packages the routed circuit.
    fn lower<'a, W>(
        &'a self,
        manager: PassManager<ScLowering<'a>, W>,
        weaver: &Weaver,
        workload: &W,
    ) -> Result<CompileOutput, BackendError> {
        let mut state = ScLowering {
            coupling: &self.coupling,
            circuit: None,
            routed: None,
        };
        let passes = manager.run(&mut state, &PassContext { weaver, workload })?;
        let routed = state.routed.expect("sabre-transpile ran");
        Ok(CompileOutput {
            backend: self.info.name.clone(),
            metrics: Metrics::for_transpiled(&routed, compilation_seconds(&passes)),
            artifact: CompiledArtifact::Superconducting {
                circuit: routed.circuit,
                swap_count: routed.swap_count,
            },
            passes,
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
        BackendError::check_width(formula.num_vars(), self.coupling.num_qubits())?;
        self.lower(SuperconductingBackend::manager(), weaver, formula)
    }

    fn compile_circuit(
        &self,
        weaver: &Weaver,
        program: &Program,
    ) -> Result<CompileOutput, BackendError> {
        self.lower(SuperconductingBackend::circuit_manager(), weaver, program)
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

#[derive(Default)]
struct SimLowering {
    circuit: Option<Circuit>,
    native: Option<Circuit>,
    state: Option<State>,
    /// The clause-score table, shared by `statevector` and `ideal-eps`.
    scores: Option<Vec<u64>>,
    /// `(optimal_probability, max_satisfied, num_optimal)`.
    outcome: Option<(f64, u64, usize)>,
}

impl CircuitLowering for SimLowering {
    fn circuit_slot(&mut self) -> (usize, &mut Option<Circuit>) {
        (SimulatorBackend::MAX_QUBITS, &mut self.circuit)
    }
}

/// `nativize`: rewrites the lowered circuit into the `{U3, CZ}` basis.
/// Steps: the native gate count.
fn nativize<W>(state: &mut SimLowering, _ctx: &PassContext<'_, W>) -> Result<u64, BackendError> {
    let circuit = state.circuit.take().expect("a lowering pass ran");
    let native = native::nativize(&circuit, NativeBasis::U3Cz);
    let steps = native.gate_count() as u64;
    state.native = Some(native);
    Ok(steps)
}

impl SimulatorBackend {
    /// Register cap: `2^20` amplitudes (16 MiB) keeps the full-vector run
    /// and the exhaustive optimum scan fast on one core, and covers the
    /// SATLIB uf20 fixture suite.
    pub const MAX_QUBITS: usize = 20;

    fn manager() -> PassManager<SimLowering, Formula> {
        PassManager::<SimLowering, Formula>::default()
            .pass("qaoa-lower", |state, ctx| {
                // No measurement statements: the backend reads the final
                // amplitudes directly instead of sampling.
                state.circuit = Some(qaoa::build_circuit(
                    ctx.workload,
                    &ctx.weaver.options.qaoa,
                    false,
                ));
                Ok(0)
            })
            .pass("nativize", nativize)
            .pass("statevector", |state, ctx| {
                // The QAOA state from the circuit's two layers rather than
                // its gates: the cost evolution is the diagonal
                // e^{-iγ·s(x)} over the clause-score table (the phase
                // polynomial is the satisfied weight, up to a global
                // phase), the mixer is n RX(2β) butterflies. The nativized
                // circuit is the same unitary up to a global phase.
                let n = ctx.workload.num_vars();
                let scores = ctx.workload.satisfied_weight_table();
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
                Ok((2 + layers.len() as u64 * (n as u64 + 1)) << n)
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
                Ok(1u64 << ctx.workload.num_vars())
            })
    }

    fn circuit_manager() -> PassManager<SimLowering, Program> {
        PassManager::default()
            .pass("ingest-circuit", ingest_circuit)
            .pass("nativize", nativize)
            .pass("statevector", |state, _ctx| {
                let native = state.native.as_ref().expect("nativize ran");
                state.state = Some(native.statevector());
                Ok((native.gate_count() as u64) << native.num_qubits())
            })
            .pass("peak-probability", |state, _ctx| {
                // Without a formula objective, "success" is the circuit's
                // most likely outcome: EPS = peak basis-state probability.
                let vector = state.state.take().expect("statevector ran");
                let optimal_probability = vector
                    .amplitudes()
                    .iter()
                    .map(|amp| amp.norm_sqr())
                    .fold(0.0f64, f64::max);
                // Nativization rewrites gates into {U3, CZ}, so
                // probabilities that are equal in exact arithmetic can
                // differ in the last few ulps; count peaks up to a relative
                // tolerance rather than bitwise.
                let tolerance = optimal_probability * 1e-9;
                let num_optimal = vector
                    .amplitudes()
                    .iter()
                    .filter(|amp| amp.norm_sqr() >= optimal_probability - tolerance)
                    .count();
                state.outcome = Some((optimal_probability, 0, num_optimal));
                Ok(1u64 << vector.num_qubits())
            })
    }

    /// Runs `manager` over `workload` and packages the simulated run.
    fn lower<W>(
        &self,
        manager: PassManager<SimLowering, W>,
        weaver: &Weaver,
        workload: &W,
    ) -> Result<CompileOutput, BackendError> {
        let mut state = SimLowering::default();
        let passes = manager.run(&mut state, &PassContext { weaver, workload })?;
        let native = state.native.expect("nativize ran");
        let (optimal_probability, max_satisfied, num_optimal) =
            state.outcome.expect("a readout pass ran");
        let metrics = Metrics {
            compilation_seconds: compilation_seconds(&passes),
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
        BackendError::check_width(formula.num_vars(), SimulatorBackend::MAX_QUBITS)?;
        self.lower(SimulatorBackend::manager(), weaver, formula)
    }

    fn compile_circuit(
        &self,
        weaver: &Weaver,
        program: &Program,
    ) -> Result<CompileOutput, BackendError> {
        self.lower(SimulatorBackend::circuit_manager(), weaver, program)
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
        match self.entry(name) {
            Some(backend) => Ok(backend.clone()),
            None => Ok(Arc::new(SuperconductingBackend::for_device(
                &self.device_spec(name)?,
            ))),
        }
    }

    /// The primary name of the backend [`BackendRegistry::resolve`] would
    /// return for `name` (`sc` → `superconducting`, `sc:washington` →
    /// `sc:eagle`), without minting a device-family backend.
    ///
    /// # Errors
    ///
    /// Exactly those of [`BackendRegistry::resolve`].
    pub fn canonical_name(&self, name: &str) -> Result<String, BackendError> {
        match self.entry(name) {
            Some(backend) => Ok(backend.info().name),
            None => Ok(self.device_spec(name)?.full_name()),
        }
    }

    /// The device spec of an unregistered `sc:*` name.
    fn device_spec(&self, name: &str) -> Result<DeviceSpec, BackendError> {
        if !name.starts_with(device::FAMILY_PREFIX) {
            return Err(self.unknown_target(name));
        }
        DeviceSpec::resolve(name).map_err(|message| BackendError {
            kind: BackendErrorKind::UnknownTarget,
            message,
        })
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
            assert_eq!(registry.canonical_name(key).unwrap(), name);
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
        assert_eq!(
            registry.canonical_name("sc:grid:4x5").unwrap(),
            "sc:grid:4x5"
        );
        // Malformed and oversized grids are structured errors.
        for bad in ["sc:grid:0x4", "sc:grid:axb", "sc:grid:100x100"] {
            let err = registry.resolve(bad).err().expect("must fail");
            assert_eq!(err.kind, BackendErrorKind::UnknownTarget, "{bad}");
            assert_eq!(registry.canonical_name(bad), Err(err), "{bad}");
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
    fn every_backend_names_its_passes_and_sums_their_seconds() {
        let registry = BackendRegistry::with_default_targets();
        let weaver = Weaver::new();
        let bell = weaver_wqasm::parse("qreg q[2];\nh q[0];\ncx q[0], q[1];\n").unwrap();
        let workloads = [
            Workload::MaxSat(generator::instance(8, 1)),
            Workload::Circuit(bell),
        ];
        let mut compiled = 0;
        for backend in registry.backends() {
            let name = backend.info().name;
            for workload in &workloads {
                let out = match backend.compile_workload(&weaver, workload) {
                    Ok(out) => out,
                    Err(e) if e.kind == BackendErrorKind::UnsupportedWorkload => continue,
                    Err(e) => panic!("{name}: {e}"),
                };
                if let Workload::MaxSat(_) = workload {
                    let ran: Vec<&str> = out.passes.iter().map(|p| p.name).collect();
                    assert!(!ran.is_empty(), "{name}");
                    assert_eq!(ran, backend.passes(), "{name}");
                }
                assert!(out.passes.iter().all(|p| p.seconds >= 0.0), "{name}");
                // One clock: the metric is the sum of the pass trace.
                let sum: f64 = out.passes.iter().map(|p| p.seconds).sum();
                assert_eq!(out.metrics.compilation_seconds, sum, "{name}");
                compiled += 1;
            }
        }
        // Every target takes formulas; all but `fpqa` take circuits.
        assert_eq!(compiled, 2 * registry.names().len() - 1);
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

        // FPQA has no circuit pipeline and rejects structurally.
        let err = FpqaBackend
            .compile_workload(&weaver, &workload)
            .unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::UnsupportedWorkload);
        assert!(err.message.contains("`fpqa`"), "{err}");
        assert!(err.message.contains("circuit-capable"), "{err}");

        // The simulator runs it: a Bell pair peaks at p = 0.5 on two states.
        let out = SimulatorBackend
            .compile_workload(&weaver, &workload)
            .unwrap();
        let CompiledArtifact::Simulator(run) = &out.artifact else {
            panic!("simulator artifact expected");
        };
        assert!((run.optimal_probability - 0.5).abs() < 1e-9);
        assert_eq!(run.num_optimal, 2);
        assert_eq!(run.max_satisfied, 0);
        // Its circuit pipeline: 2 source gates, 4 native gates, one
        // amplitude pass per native gate over 2^2 amplitudes, one readout.
        let ran: Vec<(&str, u64)> = out.passes.iter().map(|p| (p.name, p.steps)).collect();
        assert_eq!(
            ran,
            vec![
                ("ingest-circuit", 2),
                ("nativize", 4),
                ("statevector", 4 << 2),
                ("peak-probability", 4),
            ]
        );

        // Superconducting targets route it and report SWAP counts.
        let sc = SuperconductingBackend::new();
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
