//! wQasm + pulse-schedule code generation for the FPQA path (paper Fig. 3
//! bottom, §5).
//!
//! The generator executes every annotation on a mirror [`FpqaDevice`] while
//! emitting it, so any geometric or ordering violation is caught at compile
//! time; the independent wChecker then re-validates the emitted program
//! from scratch.
//!
//! Per color (set of variable-disjoint clauses) the emitted structure is:
//!
//! 1. motion: controls shuttle to their interaction sites (batched per
//!    Algorithm 2),
//! 2. Raman segment pulses (fused single-qubit gates),
//! 3. one **global Rydberg pulse per entangler slot** — all clauses of the
//!    color fire their k-th `CCZ`/`CZ` simultaneously,
//! 4. motion between configurations (triangle → pair, guests home, …),
//! 5. closing Raman segments, atoms return home.

use crate::coloring::{color_clauses, ClauseColoring};
use crate::compress::{append_compressed_clause, assign_roles};
use crate::plan::{batch_moves, safe_shuttle_order, AtomMove, SiteLayout};
use std::collections::HashMap;
use weaver_circuit::euler::{decompose_u3, decompose_zyx, is_identity_u3};
use weaver_circuit::{Circuit, Gate, Instruction};
use weaver_fpqa::{FpqaDevice, FpqaParams, Location, Point, PulseOp, PulseSchedule};
use weaver_sat::{qaoa::QaoaParams, Clause, Formula, PhasePolynomial};
use weaver_simulator::Mat2;
use weaver_wqasm::{Annotation, BindTarget, Program, QubitRef, ShuttleAxis, Statement};

/// Options controlling the wOptimizer passes (ablation switches of
/// DESIGN.md §6).
#[derive(Clone, Debug, PartialEq)]
pub struct CodegenOptions {
    /// Apply 3-qubit gate compression (§5.4). Off ⇒ Fig. 6 CNOT ladders.
    pub compression: bool,
    /// Batch order-preserving moves into parallel shuttles (Algorithm 2).
    pub parallel_shuttling: bool,
    /// Use DSatur for clause coloring; off ⇒ first-fit greedy (ablation).
    pub dsatur: bool,
    /// QAOA parameters.
    pub qaoa: QaoaParams,
    /// Site geometry.
    pub layout: SiteLayout,
    /// Append measurements on every qubit.
    pub measure: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            compression: true,
            parallel_shuttling: true,
            dsatur: true,
            qaoa: QaoaParams::default(),
            layout: SiteLayout::for_default_params(),
            measure: true,
        }
    }
}

/// A compiled FPQA program: the wQasm output, its pulse schedule, the
/// logical circuit of the emitted statements, and instrumentation.
#[derive(Clone, Debug)]
pub struct CompiledFpqa {
    /// The annotated wQasm program.
    pub program: Program,
    /// The low-level pulse schedule (timing/EPS input).
    pub schedule: PulseSchedule,
    /// The logical circuit the statements encode (ignoring annotations).
    pub logical: Circuit,
    /// Clause coloring used.
    pub coloring: ClauseColoring,
    /// Work-step counter (compilation-complexity instrumentation).
    pub steps: u64,
}

/// Compiles a Max-3SAT formula to an annotated wQasm program for an FPQA
/// backend.
///
/// # Panics
///
/// Panics if the internal device simulation rejects an emitted annotation —
/// that is a compiler bug by construction, not a user error.
pub fn compile_formula(
    formula: &Formula,
    params: &FpqaParams,
    options: &CodegenOptions,
) -> CompiledFpqa {
    let coloring = select_coloring(formula, options);
    compile_formula_with_coloring(formula, params, options, coloring)
}

/// The coloring policy the options select: DSatur, or first-fit greedy for
/// the ablation. Single source of truth shared by [`compile_formula`] and
/// the backend pass pipeline.
pub(crate) fn select_coloring(formula: &Formula, options: &CodegenOptions) -> ClauseColoring {
    if options.dsatur {
        color_clauses(formula)
    } else {
        crate::coloring::greedy_first_fit(&crate::coloring::conflict_graph(formula))
    }
}

/// Like [`compile_formula`], but with an externally supplied clause
/// coloring (used e.g. by the DPQA baseline, which spends exponential
/// search on an exactly optimal coloring).
///
/// # Panics
///
/// Panics if the coloring is invalid for the formula (adjacent clauses
/// sharing a color) — the emitter's device simulation would reject the
/// resulting overlapping interaction sites.
pub fn compile_formula_with_coloring(
    formula: &Formula,
    params: &FpqaParams,
    options: &CodegenOptions,
    coloring: ClauseColoring,
) -> CompiledFpqa {
    let mut emitter = Emitter::new(formula, params, options, coloring.clone());
    emitter.emit_program();
    CompiledFpqa {
        program: emitter.program,
        schedule: emitter.schedule,
        logical: emitter.logical,
        coloring,
        steps: emitter.steps,
    }
}

/// Per-clause execution plan: alternating Raman segments and entanglers,
/// plus the site configuration required at each entangler.
struct ClauseExec {
    vars: Vec<usize>,
    segments: Vec<Vec<Instruction>>,
    entanglers: Vec<Instruction>,
    /// `configs[k]`: required off-home positions at entangler `k`.
    configs: Vec<Vec<(usize, Point)>>,
}

struct Emitter<'a> {
    formula: &'a Formula,
    params: &'a FpqaParams,
    options: &'a CodegenOptions,
    coloring: ClauseColoring,
    layout: SiteLayout,
    device: FpqaDevice,
    traps: Vec<Point>,
    trap_index: HashMap<(i64, i64), usize>,
    program: Program,
    pending: Vec<Annotation>,
    schedule: PulseSchedule,
    logical: Circuit,
    steps: u64,
}

fn point_key(p: Point) -> (i64, i64) {
    ((p.x * 1000.0).round() as i64, (p.y * 1000.0).round() as i64)
}

impl<'a> Emitter<'a> {
    fn new(
        formula: &'a Formula,
        params: &'a FpqaParams,
        options: &'a CodegenOptions,
        coloring: ClauseColoring,
    ) -> Self {
        Emitter {
            formula,
            params,
            options,
            coloring,
            layout: options.layout,
            device: FpqaDevice::new(params.clone()),
            traps: Vec::new(),
            trap_index: HashMap::new(),
            program: Program::new(),
            pending: Vec::new(),
            schedule: PulseSchedule::new(),
            logical: Circuit::new(formula.num_vars()),
            steps: 0,
        }
    }

    fn register_trap(&mut self, p: Point) -> usize {
        let key = point_key(p);
        if let Some(&idx) = self.trap_index.get(&key) {
            return idx;
        }
        let idx = self.traps.len();
        self.traps.push(p);
        self.trap_index.insert(key, idx);
        idx
    }

    fn trap_of(&self, p: Point) -> usize {
        *self
            .trap_index
            .get(&point_key(p))
            .unwrap_or_else(|| panic!("no trap registered at {p}"))
    }

    // ---- program emission ---------------------------------------------------

    fn emit_program(&mut self) {
        let n = self.formula.num_vars();
        self.collect_traps();

        self.program.statements.push(Statement::QregDecl {
            name: "q".to_string(),
            size: n,
        });
        if self.options.measure {
            self.program.statements.push(Statement::CregDecl {
                name: "c".to_string(),
                size: n,
            });
        }
        // Device setup: SLM layer + home bindings.
        let slm = Annotation::Slm {
            positions: self.traps.iter().map(|p| (p.x, p.y)).collect(),
        };
        self.device
            .init_slm(&self.traps.clone())
            .expect("trap layout violates spacing");
        self.program.statements.push(Statement::Standalone(slm));
        for q in 0..n {
            let home_idx = self.trap_of(self.layout.home(q));
            self.device
                .bind(q, Location::Slm(home_idx))
                .expect("home binding failed");
            self.program
                .statements
                .push(Statement::Standalone(Annotation::Bind {
                    qubit: QubitRef::q(q),
                    target: BindTarget::Slm(home_idx),
                }));
        }

        // Initialization layer: global H.
        self.emit_global_raman(Mat2::h(), n);

        let layers = self.options.qaoa.layers.clone();
        for (gamma, beta) in layers {
            self.emit_cost_evolution(gamma);
            // Mixer: global RX(2β).
            self.emit_global_raman(Mat2::rx(2.0 * beta), n);
        }

        if self.options.measure {
            // Any pending motion annotations attach as standalone before the
            // measurements.
            let pending = std::mem::take(&mut self.pending);
            self.program
                .statements
                .extend(pending.into_iter().map(Statement::Standalone));
            for q in 0..n {
                self.program.statements.push(Statement::Measure {
                    qubit: QubitRef::q(q),
                    target: Some(QubitRef {
                        register: "c".to_string(),
                        index: q,
                    }),
                });
                self.logical.measure(q);
            }
        } else {
            let pending = std::mem::take(&mut self.pending);
            self.program
                .statements
                .extend(pending.into_iter().map(Statement::Standalone));
        }
    }

    /// Registers every SLM trap the whole program will ever use.
    fn collect_traps(&mut self) {
        for q in 0..self.formula.num_vars() {
            self.register_trap(self.layout.home(q));
        }
        for clause in self.formula.clauses() {
            match clause.lits().len() {
                3 => {
                    let (_, _, t) = assign_roles(clause);
                    self.register_trap(self.layout.triangle_left(t));
                    self.register_trap(self.layout.triangle_right(t));
                    if self.options.compression {
                        self.register_trap(self.layout.pair_left(t));
                        self.register_trap(self.layout.pair_right(t));
                    } else {
                        // CNOT-ladder visits use guest traps at each host.
                        let mut vars: Vec<usize> = clause.vars().collect();
                        vars.sort_unstable();
                        for v in vars {
                            self.register_trap(self.layout.guest(v));
                        }
                    }
                }
                2 => {
                    let mut vars: Vec<usize> = clause.vars().collect();
                    vars.sort_unstable();
                    self.register_trap(self.layout.guest(vars[1]));
                }
                _ => {}
            }
        }
    }

    // ---- cost evolution -----------------------------------------------------

    fn emit_cost_evolution(&mut self, gamma: f64) {
        for color in 0..self.coloring.num_colors {
            let execs: Vec<ClauseExec> = self
                .coloring
                .clauses_of_color(color)
                .iter()
                .map(|&ci| {
                    // Weighted MAX-SAT: a clause of effective weight w
                    // evolves under w·(its satisfaction polynomial), and the
                    // fragment builders are linear in gamma — so lowering at
                    // gamma·w is exact, and weight-1 clauses lower
                    // byte-identically to the unweighted path
                    // (gamma · 1 ≡ gamma).
                    let w = self.formula.effective_weight(ci);
                    let clause_gamma = if w == 1 { gamma } else { gamma * w as f64 };
                    self.plan_clause(&self.formula.clauses()[ci], clause_gamma)
                })
                .collect();
            self.emit_color(&execs);
        }
    }

    /// Builds the per-clause execution plan from its fragment circuit.
    fn plan_clause(&self, clause: &Clause, gamma: f64) -> ClauseExec {
        let mut vars: Vec<usize> = clause.vars().collect();
        vars.sort_unstable();
        let n = self.formula.num_vars();
        let mut fragment = Circuit::new(n);
        if self.options.compression {
            append_compressed_clause(&mut fragment, clause, gamma);
        } else {
            let poly = PhasePolynomial::from_clause(clause);
            weaver_sat::qaoa::append_cost_evolution(&mut fragment, &poly, gamma);
        }
        // Split into segments and entanglers; the fragment builders emit
        // only 1q gates, CZ, CCZ (CX appears in the uncompressed ladder).
        let mut segments: Vec<Vec<Instruction>> = vec![Vec::new()];
        let mut entanglers: Vec<Instruction> = Vec::new();
        for instr in fragment.instructions() {
            match instr.gate {
                Gate::Cz | Gate::Ccz => {
                    entanglers.push(instr.clone());
                    segments.push(Vec::new());
                }
                Gate::Cx => {
                    // Uncompressed ladders emit CX; lower to H-CZ-H here so
                    // every entangler is Rydberg-native.
                    let (ctl, tgt) = (instr.qubits[0], instr.qubits[1]);
                    segments
                        .last_mut()
                        .expect("segment")
                        .push(Instruction::new(Gate::H, vec![tgt]));
                    entanglers.push(Instruction::new(Gate::Cz, vec![ctl, tgt]));
                    segments.push(vec![Instruction::new(Gate::H, vec![tgt])]);
                }
                ref g if g.num_qubits() == 1 => {
                    segments.last_mut().expect("segment").push(instr.clone());
                }
                ref g => panic!("unexpected gate {g} in clause fragment"),
            }
        }

        let configs = self.clause_configs(clause, &entanglers);
        ClauseExec {
            vars,
            segments,
            entanglers,
            configs,
        }
    }

    /// Site configuration for each entangler of a clause.
    fn clause_configs(
        &self,
        clause: &Clause,
        entanglers: &[Instruction],
    ) -> Vec<Vec<(usize, Point)>> {
        let l = self.layout;
        if self.options.compression {
            match clause.lits().len() {
                3 => {
                    let (u, v, t) = assign_roles(clause);
                    let tri = vec![(u, l.triangle_left(t)), (v, l.triangle_right(t))];
                    let pair = vec![(u, l.pair_left(t)), (v, l.pair_right(t))];
                    debug_assert_eq!(entanglers.len(), 4);
                    vec![tri.clone(), tri, pair.clone(), pair]
                }
                2 => {
                    let mut vs: Vec<usize> = clause.vars().collect();
                    vs.sort_unstable();
                    let cfg = vec![(vs[0], l.guest(vs[1]))];
                    vec![cfg.clone(); entanglers.len()]
                }
                _ => Vec::new(),
            }
        } else {
            // Ladder mode: each CZ(x, y) hosts the pulse at y's home with x
            // visiting the guest trap.
            entanglers
                .iter()
                .map(|e| {
                    let (x, y) = (e.qubits[0], e.qubits[1]);
                    vec![(x, l.guest(y))]
                })
                .collect()
        }
    }

    /// Emits one color group: slot-by-slot motion, Raman segments, and one
    /// global Rydberg pulse per entangler slot.
    fn emit_color(&mut self, execs: &[ClauseExec]) {
        let max_slots = execs.iter().map(|e| e.entanglers.len()).max().unwrap_or(0);
        for slot in 0..max_slots {
            // Desired positions this slot: config for active clauses, home
            // for everything else touched by this color.
            let mut desired: HashMap<usize, Point> = HashMap::new();
            for exec in execs {
                for &v in &exec.vars {
                    desired.insert(v, self.layout.home(v));
                }
                if slot < exec.entanglers.len() {
                    for &(v, p) in &exec.configs[slot] {
                        desired.insert(v, p);
                    }
                }
            }
            self.emit_motion_to(&desired);

            // Raman segments of active clauses.
            for exec in execs {
                if slot < exec.entanglers.len() {
                    self.emit_raman_segment(&exec.segments[slot]);
                }
            }

            // One global Rydberg pulse for all slot-`slot` entanglers.
            let pulse_gates: Vec<Instruction> = execs
                .iter()
                .filter(|e| slot < e.entanglers.len())
                .map(|e| e.entanglers[slot].clone())
                .collect();
            self.emit_rydberg(&pulse_gates);
        }

        // Closing segments, then everyone home.
        for seg in execs.iter().filter_map(|e| e.segments.last()) {
            self.emit_raman_segment(seg);
        }
        let mut desired: HashMap<usize, Point> = HashMap::new();
        for exec in execs {
            for &v in &exec.vars {
                desired.insert(v, self.layout.home(v));
            }
        }
        self.emit_motion_to(&desired);
    }

    // ---- motion ---------------------------------------------------------------

    /// Moves atoms so each `var` sits at `desired[var]`. Homeward moves are
    /// emitted first (vacating shared guest traps), then outward moves.
    fn emit_motion_to(&mut self, desired: &HashMap<usize, Point>) {
        let mut homeward = Vec::new();
        let mut outward = Vec::new();
        for (&v, &to) in desired {
            let from = self.device.position(v).expect("atom bound");
            if from.approx_eq(to, 1e-6) {
                continue;
            }
            let mv = AtomMove { qubit: v, from, to };
            if to.approx_eq(self.layout.home(v), 1e-6) {
                homeward.push(mv);
            } else {
                outward.push(mv);
            }
        }
        // Deterministic order: the qubit tie-break makes emission
        // independent of `HashMap` iteration order (byte-identical wQasm
        // across runs and thread counts).
        let move_order =
            |a: &AtomMove, b: &AtomMove| a.from.x.total_cmp(&b.from.x).then(a.qubit.cmp(&b.qubit));
        homeward.sort_by(move_order);
        outward.sort_by(move_order);
        for phase in [homeward, outward] {
            let batches = batch_moves(
                &phase,
                self.params.min_trap_distance,
                self.options.parallel_shuttling,
            );
            for batch in batches {
                self.emit_batch(&batch);
            }
        }
    }

    /// Emits one parallel shuttle batch: AOD init at the pickup points,
    /// transfers in, column shuttles (safe order), a shared row shuttle,
    /// transfers out.
    fn emit_batch(&mut self, batch: &[AtomMove]) {
        if batch.is_empty() {
            return;
        }
        self.steps += batch.len() as u64;
        let xs: Vec<f64> = batch.iter().map(|m| m.from.x).collect();
        let y = batch[0].from.y;
        self.device
            .init_aod(&xs, &[y])
            .unwrap_or_else(|e| panic!("AOD init failed: {e}"));
        self.pending.push(Annotation::Aod {
            xs: xs.clone(),
            ys: vec![y],
        });
        // Pick up: one parallel beam event for the whole batch.
        for (col, m) in batch.iter().enumerate() {
            let slm_index = self.trap_of(m.from);
            self.device
                .transfer(slm_index, (col, 0))
                .unwrap_or_else(|e| panic!("pickup transfer failed: {e}"));
            self.pending.push(Annotation::Transfer {
                slm_index,
                aod: (col, 0),
            });
        }
        self.schedule
            .push(PulseOp::TransferBatch { atoms: batch.len() });
        // Column moves in crossing-safe order; one schedule op for the whole
        // parallel move (duration = the longest individual distance).
        let mut max_dx = 0.0f64;
        for col in safe_shuttle_order(batch) {
            let dx = batch[col].to.x - batch[col].from.x;
            if dx.abs() > 1e-9 {
                self.device
                    .shuttle_column(col, dx)
                    .unwrap_or_else(|e| panic!("column shuttle failed: {e}"));
                self.pending.push(Annotation::Shuttle {
                    axis: ShuttleAxis::Column,
                    index: col,
                    offset: dx,
                });
                max_dx = max_dx.max(dx.abs());
            }
        }
        if max_dx > 0.0 {
            self.schedule.push(PulseOp::Shuttle { distance: max_dx });
        }
        // Shared row move.
        let dy = batch[0].to.y - batch[0].from.y;
        if dy.abs() > 1e-9 {
            self.device
                .shuttle_row(0, dy)
                .unwrap_or_else(|e| panic!("row shuttle failed: {e}"));
            self.pending.push(Annotation::Shuttle {
                axis: ShuttleAxis::Row,
                index: 0,
                offset: dy,
            });
            self.schedule.push(PulseOp::Shuttle { distance: dy.abs() });
        }
        // Drop off, likewise in parallel.
        for (col, m) in batch.iter().enumerate() {
            let slm_index = self.trap_of(m.to);
            self.device
                .transfer(slm_index, (col, 0))
                .unwrap_or_else(|e| panic!("dropoff transfer failed: {e}"));
            self.pending.push(Annotation::Transfer {
                slm_index,
                aod: (col, 0),
            });
        }
        self.schedule
            .push(PulseOp::TransferBatch { atoms: batch.len() });
    }

    // ---- pulses ----------------------------------------------------------------

    /// Fuses a run of single-qubit gates per qubit and emits each fused
    /// unitary as one `u3` statement with a `@raman local` annotation.
    fn emit_raman_segment(&mut self, instrs: &[Instruction]) {
        // Per-qubit accumulation in first-touch order; a segment touches a
        // handful of qubits, so a linear scan beats hashing.
        let mut acc: Vec<(usize, Mat2)> = Vec::new();
        for i in instrs {
            let q = i.qubits[0];
            let m = i.gate.mat2().expect("Raman segments hold 1-qubit gates");
            match acc.iter_mut().find(|(p, _)| *p == q) {
                Some((_, prev)) => *prev = m * *prev,
                None => acc.push((q, m)),
            }
        }
        for (q, m) in acc {
            let u = decompose_u3(&m);
            if is_identity_u3(u.theta, u.phi, u.lambda, 1e-12) {
                continue;
            }
            let zyx = decompose_zyx(&m);
            let mut annotations = std::mem::take(&mut self.pending);
            annotations.push(Annotation::RamanLocal {
                qubit: QubitRef::q(q),
                x: zyx.x,
                y: zyx.y,
                z: zyx.z,
            });
            self.program.statements.push(Statement::GateCall {
                annotations,
                name: "u3".to_string(),
                params: vec![u.theta, u.phi, u.lambda],
                qubits: vec![QubitRef::q(q)],
            });
            self.logical.push(Gate::U3(u.theta, u.phi, u.lambda), &[q]);
            self.schedule.push(PulseOp::RamanLocal {
                qubit: q,
                angles: (zyx.x, zyx.y, zyx.z),
            });
        }
    }

    /// Emits one global Raman pulse applying `matrix` to every qubit:
    /// `n` logical `u3` statements, annotation on the first.
    fn emit_global_raman(&mut self, matrix: Mat2, n: usize) {
        let u = decompose_u3(&matrix);
        let zyx = decompose_zyx(&matrix);
        for q in 0..n {
            let mut annotations = std::mem::take(&mut self.pending);
            if q == 0 {
                annotations.push(Annotation::RamanGlobal {
                    x: zyx.x,
                    y: zyx.y,
                    z: zyx.z,
                });
            }
            self.program.statements.push(Statement::GateCall {
                annotations,
                name: "u3".to_string(),
                params: vec![u.theta, u.phi, u.lambda],
                qubits: vec![QubitRef::q(q)],
            });
            self.logical.push(Gate::U3(u.theta, u.phi, u.lambda), &[q]);
        }
        self.schedule.push(PulseOp::RamanGlobal {
            angles: (zyx.x, zyx.y, zyx.z),
        });
    }

    /// Emits one global Rydberg pulse implementing the given entangling
    /// gates; validates that the mirror device agrees on the interaction
    /// groups.
    fn emit_rydberg(&mut self, gates: &[Instruction]) {
        if gates.is_empty() {
            return;
        }
        let groups = self
            .device
            .rydberg_groups()
            .unwrap_or_else(|e| panic!("invalid Rydberg configuration: {e}"));
        // Each expected gate must appear as exactly one group.
        let mut expected: Vec<Vec<usize>> = gates
            .iter()
            .map(|g| {
                let mut qs = g.qubits.clone();
                qs.sort_unstable();
                qs
            })
            .collect();
        expected.sort();
        let mut actual: Vec<Vec<usize>> = groups
            .iter()
            .map(|g| {
                let mut qs = g.clone();
                qs.sort_unstable();
                qs
            })
            .collect();
        actual.sort();
        assert_eq!(
            expected, actual,
            "Rydberg pulse would implement {actual:?}, compiler intended {expected:?}"
        );

        for (i, gate) in gates.iter().enumerate() {
            let mut annotations = std::mem::take(&mut self.pending);
            if i == 0 {
                annotations.push(Annotation::Rydberg);
            }
            self.program.statements.push(Statement::GateCall {
                annotations,
                name: gate.gate.name().to_string(),
                params: vec![],
                qubits: gate.qubits.iter().map(|&q| QubitRef::q(q)).collect(),
            });
            self.logical.push(gate.gate.clone(), &gate.qubits);
        }
        self.schedule.push(PulseOp::Rydberg { groups });
        self.steps += gates.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_sat::{generator, Formula, Lit};
    use weaver_simulator::equiv;

    fn paper_formula() -> Formula {
        Formula::new(
            6,
            vec![
                Clause::new(vec![Lit::neg(0), Lit::neg(1), Lit::neg(2)]),
                Clause::new(vec![Lit::pos(3), Lit::neg(4), Lit::pos(5)]),
                Clause::new(vec![Lit::pos(2), Lit::pos(4), Lit::neg(5)]),
            ],
        )
    }

    fn options(measure: bool) -> CodegenOptions {
        CodegenOptions {
            measure,
            ..CodegenOptions::default()
        }
    }

    #[test]
    fn compiles_paper_example() {
        let f = paper_formula();
        let out = compile_formula(&f, &FpqaParams::default(), &options(true));
        assert_eq!(out.coloring.num_colors, 2);
        assert!(out.schedule.pulse_count() > 0);
        assert!(out.program.pulse_count() > 0);
        // 4 Rydberg pulses per color (2 CCZ + 2 CZ slots).
        let rydbergs = out
            .schedule
            .ops()
            .iter()
            .filter(|o| matches!(o, PulseOp::Rydberg { .. }))
            .count();
        assert_eq!(rydbergs, 4 * out.coloring.num_colors);
    }

    #[test]
    fn logical_circuit_matches_qaoa_reference() {
        let f = paper_formula();
        let out = compile_formula(&f, &FpqaParams::default(), &options(false));
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let e = equiv::compare(&out.logical.unitary(), &reference.unitary(), 1e-8);
        assert!(e.is_equivalent(), "{e:?}");
    }

    #[test]
    fn uncompressed_mode_also_matches() {
        let f = paper_formula();
        let opts = CodegenOptions {
            compression: false,
            measure: false,
            ..CodegenOptions::default()
        };
        let out = compile_formula(&f, &FpqaParams::default(), &opts);
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let e = equiv::compare(&out.logical.unitary(), &reference.unitary(), 1e-8);
        assert!(e.is_equivalent(), "{e:?}");
        // Ladder mode spends far more Rydberg pulses.
        let compressed = compile_formula(&f, &FpqaParams::default(), &options(false));
        let count = |o: &CompiledFpqa| {
            o.schedule
                .ops()
                .iter()
                .filter(|op| matches!(op, PulseOp::Rydberg { .. }))
                .count()
        };
        assert!(count(&out) > count(&compressed));
    }

    #[test]
    fn emitted_program_parses_and_validates() {
        let f = paper_formula();
        let out = compile_formula(&f, &FpqaParams::default(), &options(true));
        let text = weaver_wqasm::print(&out.program);
        let reparsed = weaver_wqasm::parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        let errors = weaver_wqasm::semantics::validate(&reparsed, &Default::default());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn parallel_shuttling_reduces_shuttle_ops() {
        let f = generator::instance(20, 1);
        let par = compile_formula(&f, &FpqaParams::default(), &options(false));
        let seq_opts = CodegenOptions {
            parallel_shuttling: false,
            measure: false,
            ..CodegenOptions::default()
        };
        let seq = compile_formula(&f, &FpqaParams::default(), &seq_opts);
        let shuttles = |o: &CompiledFpqa| {
            o.schedule
                .ops()
                .iter()
                .filter(|op| matches!(op, PulseOp::Shuttle { .. }))
                .count()
        };
        assert!(
            shuttles(&par) <= shuttles(&seq),
            "parallel {} vs sequential {}",
            shuttles(&par),
            shuttles(&seq)
        );
        assert!(
            par.schedule.duration(&FpqaParams::default())
                < seq.schedule.duration(&FpqaParams::default())
        );
    }

    #[test]
    fn uf20_compiles_clean() {
        let f = generator::instance(20, 1);
        let out = compile_formula(&f, &FpqaParams::default(), &options(true));
        assert!(out.schedule.duration(&FpqaParams::default()) > 0.0);
        assert_eq!(out.program.num_qubits(), 20);
        // Rydberg pulse count: 4 per color per layer.
        let rydbergs = out
            .schedule
            .ops()
            .iter()
            .filter(|o| matches!(o, PulseOp::Rydberg { .. }))
            .count();
        assert_eq!(rydbergs, 4 * out.coloring.num_colors);
    }

    #[test]
    fn two_and_one_literal_clauses_compile() {
        let f = Formula::new(
            3,
            vec![
                Clause::new(vec![Lit::neg(0), Lit::pos(1)]),
                Clause::new(vec![Lit::pos(2)]),
            ],
        );
        let out = compile_formula(&f, &FpqaParams::default(), &options(false));
        let reference = weaver_sat::qaoa::build_circuit(&f, &QaoaParams::default(), false);
        let e = equiv::compare(&out.logical.unitary(), &reference.unitary(), 1e-8);
        assert!(e.is_equivalent(), "{e:?}");
    }
}
