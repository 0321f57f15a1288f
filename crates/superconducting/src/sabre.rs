//! SABRE-style qubit mapping and routing (Li et al., ASPLOS'19) — the
//! algorithm behind Qiskit's default transpiler and the source of the
//! `O(N³)` compilation complexity the paper lists for the superconducting
//! baseline (Table 2).

use crate::CouplingMap;
use std::collections::HashMap;
use std::fmt;
use weaver_circuit::{Circuit, DependencyDag, Gate, Operation};

/// Why a circuit cannot be routed onto a coupling map. These used to be
/// `assert!`s inside [`route`]; as typed errors they surface as structured
/// `weaverc: error: compile: …` diagnostics instead of panics, and the
/// batch engine reports them per job instead of poisoning a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit needs more qubits than the device has.
    TooManyQubits {
        /// Qubits the circuit uses.
        needed: usize,
        /// Physical qubits the device offers.
        available: usize,
    },
    /// The coupling graph is disconnected, so some pairs can never interact.
    Disconnected,
    /// The circuit contains a gate of arity > 2 (decompose first).
    UnsupportedArity {
        /// The offending gate's qubit count.
        arity: usize,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::TooManyQubits { needed, available } => {
                write!(f, "circuit needs {needed} qubits, device has {available}")
            }
            RouteError::Disconnected => {
                f.write_str("coupling graph is disconnected; routing cannot reach every qubit")
            }
            RouteError::UnsupportedArity { arity } => write!(
                f,
                "routing requires ≤ 2-qubit gates, found a {arity}-qubit gate; decompose first"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Result of routing a circuit onto a coupling map.
#[derive(Clone, Debug)]
pub struct RoutedCircuit {
    /// The physical circuit (logical gates rewritten onto physical qubits,
    /// with SWAPs inserted).
    pub circuit: Circuit,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
    /// Initial logical→physical layout chosen by the winning trial.
    pub initial_layout: Vec<usize>,
    /// Final logical→physical layout.
    pub final_layout: Vec<usize>,
    /// Heuristic search steps performed (complexity instrumentation for the
    /// paper's Fig. 10a).
    pub steps: u64,
}

/// Mutable logical↔physical mapping.
#[derive(Clone, Debug)]
struct Layout {
    /// logical → physical
    l2p: Vec<usize>,
    /// physical → logical (usize::MAX = free)
    p2l: Vec<usize>,
}

impl Layout {
    fn trivial(num_logical: usize, num_physical: usize) -> Self {
        let mut p2l = vec![usize::MAX; num_physical];
        let l2p: Vec<usize> = (0..num_logical).collect();
        for (l, &p) in l2p.iter().enumerate() {
            p2l[p] = l;
        }
        Layout { l2p, p2l }
    }

    fn swap_physical(&mut self, a: usize, b: usize) {
        let la = self.p2l[a];
        let lb = self.p2l[b];
        self.p2l[a] = lb;
        self.p2l[b] = la;
        if la != usize::MAX {
            self.l2p[la] = b;
        }
        if lb != usize::MAX {
            self.l2p[lb] = a;
        }
    }
}

/// Per-node gate shape extracted from the dependency DAG once per route and
/// shared by all trials, so the hot loops index flat arrays instead of
/// chasing `Instruction` qubit vectors.
struct GateTable {
    /// `qubits[node] = [q0, q1]`; `q1 == usize::MAX` for 1-qubit gates.
    qubits: Vec<[usize; 2]>,
    /// Whether the node is a 2-qubit gate.
    is_two_qubit: Vec<bool>,
}

impl GateTable {
    fn new(dag: &DependencyDag) -> Self {
        let mut qubits = Vec::with_capacity(dag.len());
        let mut is_two_qubit = Vec::with_capacity(dag.len());
        for node in 0..dag.len() {
            let qs = &dag.instruction(node).qubits;
            match qs.len() {
                1 => {
                    qubits.push([qs[0], usize::MAX]);
                    is_two_qubit.push(false);
                }
                2 => {
                    qubits.push([qs[0], qs[1]]);
                    is_two_qubit.push(true);
                }
                _ => unreachable!("arity checked by route()"),
            }
        }
        GateTable {
            qubits,
            is_two_qubit,
        }
    }
}

/// One step of a trial's routing, logged instead of built into a circuit:
/// DAG node `node` executed on physical qubits `(p0, p1)` (`p1` unused for
/// 1-qubit gates), or, when `node == SWAP_STEP`, a SWAP of `(p0, p1)`.
#[derive(Clone, Copy)]
struct Step {
    node: usize,
    p0: usize,
    p1: usize,
}

const SWAP_STEP: usize = usize::MAX;

/// What a trial leaves besides its step log.
struct TrialOutcome {
    swap_count: usize,
    initial_layout: Vec<usize>,
    final_layout: Vec<usize>,
    steps: u64,
}

/// Scratch buffers reused across the routing trials of one [`route`] call;
/// nothing here is reallocated inside the search loop.
struct RouteBuffers {
    /// The running trial's step log.
    log: Vec<Step>,
    pending_preds: Vec<usize>,
    front: Vec<usize>,
    next_front: Vec<usize>,
    executed: Vec<bool>,
    /// Decay factors, valid only where `decay_epoch == epoch` (everything
    /// else reads as 1.0) — an O(1) reset instead of an O(n) refill after
    /// every round that makes progress.
    decay: Vec<f64>,
    decay_epoch: Vec<u32>,
    epoch: u32,
    candidates: Vec<(usize, usize)>,
    /// Stamp matrix deduplicating candidate edges per stall round (indexed
    /// `a * n + b` with `a < b`), replacing a linear `contains` scan.
    edge_stamp: Vec<u32>,
    stamp: u32,
    /// Physical qubit pairs of the 2-qubit front gates under the layout at
    /// the start of the stall round, in front order.
    front_pairs: Vec<(u32, u32)>,
    /// Physical qubit pairs of the 2-qubit extended-set gates, in order,
    /// duplicates retained (the heuristic divides by the total size).
    extended_pairs: Vec<(u32, u32)>,
}

impl RouteBuffers {
    fn new(num_nodes: usize, num_physical: usize) -> Self {
        RouteBuffers {
            log: Vec::new(),
            pending_preds: vec![0; num_nodes],
            front: Vec::new(),
            next_front: Vec::new(),
            executed: vec![false; num_nodes],
            decay: vec![1.0; num_physical],
            decay_epoch: vec![0; num_physical],
            epoch: 0,
            candidates: Vec::new(),
            edge_stamp: vec![0; num_physical * num_physical],
            stamp: 0,
            front_pairs: Vec::new(),
            extended_pairs: Vec::new(),
        }
    }

    #[inline]
    fn decay_of(&self, q: usize) -> f64 {
        if self.decay_epoch[q] == self.epoch {
            self.decay[q]
        } else {
            1.0
        }
    }

    #[inline]
    fn bump_decay(&mut self, q: usize) {
        let current = self.decay_of(q);
        self.decay[q] = current + 0.001;
        self.decay_epoch[q] = self.epoch;
    }
}

/// Routes a circuit onto `coupling` with the SABRE look-ahead heuristic,
/// running several randomized initial-layout trials and keeping the lowest
/// swap count — exactly what production SABRE pipelines do (and the reason
/// the baseline's compile time carries a large constant).
///
/// The search is the optimized rewrite of [`route_reference`]: the
/// dependency DAG is built once and shared by all trials, candidate scoring
/// swaps the live layout and reverts it instead of cloning, and every
/// per-round collection (`front`, `candidates`, `extended`) lives in
/// reusable flat buffers. A trial only logs its steps into a flat buffer;
/// the winning trial's log alone becomes a [`Circuit`]. Output is
/// byte-identical to the reference router (`tests/sabre_differential.rs`
/// proves it per device).
///
/// # Errors
///
/// [`RouteError::TooManyQubits`] when the circuit is wider than the device,
/// [`RouteError::Disconnected`] when the coupling graph is disconnected,
/// and [`RouteError::UnsupportedArity`] for gates of arity > 2.
pub fn route(circuit: &Circuit, coupling: &CouplingMap) -> Result<RoutedCircuit, RouteError> {
    const TRIALS: u64 = 5;
    let mut span = weaver_obs::span::span("route", "sabre-route")
        .with_arg("qubits", circuit.num_qubits())
        .with_arg("gates", circuit.gate_count())
        .with_arg("trials", TRIALS);
    if circuit.num_qubits() > coupling.num_qubits() {
        return Err(RouteError::TooManyQubits {
            needed: circuit.num_qubits(),
            available: coupling.num_qubits(),
        });
    }
    if coupling.num_qubits() > 0 && !coupling.is_connected() {
        return Err(RouteError::Disconnected);
    }
    if let Some(wide) = circuit.instructions().find(|i| i.qubits.len() > 2) {
        return Err(RouteError::UnsupportedArity {
            arity: wide.qubits.len(),
        });
    }
    let dag = DependencyDag::from_circuit(circuit);
    let gates = GateTable::new(&dag);
    let mut buffers = RouteBuffers::new(dag.len(), coupling.num_qubits());
    let mut best: Option<TrialOutcome> = None;
    let mut best_log: Vec<Step> = Vec::new();
    let mut total_steps = 0u64;
    for trial in 0..TRIALS {
        let result = route_once(circuit, &dag, &gates, coupling, trial, &mut buffers);
        total_steps += result.steps;
        if best
            .as_ref()
            .is_none_or(|b| result.swap_count < b.swap_count)
        {
            best = Some(result);
            std::mem::swap(&mut best_log, &mut buffers.log);
        }
    }
    let best = best.expect("at least one trial ran");

    let mut out = Circuit::new(coupling.num_qubits());
    for &Step { node, p0, p1 } in &best_log {
        if node == SWAP_STEP {
            out.push(Gate::Swap, &[p0, p1]);
        } else {
            let gate = dag.instruction(node).gate.clone();
            if gates.is_two_qubit[node] {
                out.push(gate, &[p0, p1]);
            } else {
                out.push(gate, &[p0]);
            }
        }
    }
    // Re-attach measurements on final physical wires.
    for op in circuit.operations() {
        if let Operation::Measure(q) = op {
            out.measure(best.final_layout[*q]);
        }
    }
    span.set_arg("swaps", best.swap_count);
    Ok(RoutedCircuit {
        circuit: out,
        swap_count: best.swap_count,
        initial_layout: best.initial_layout,
        final_layout: best.final_layout,
        steps: total_steps,
    })
}

/// One SABRE routing pass with a seeded initial layout (`seed = 0` is the
/// trivial layout; other seeds shuffle deterministically), logging its
/// steps into `buffers.log`. Preconditions (width, connectivity, arity) are
/// checked by [`route`].
fn route_once(
    circuit: &Circuit,
    dag: &DependencyDag,
    gates: &GateTable,
    coupling: &CouplingMap,
    seed: u64,
    buffers: &mut RouteBuffers,
) -> TrialOutcome {
    let mut layout = Layout::trivial(circuit.num_qubits(), coupling.num_qubits());
    // Deterministic Fisher–Yates-style shuffle of the initial placement for
    // trials beyond the first (splitmix64 stream).
    if seed > 0 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for l in 0..circuit.num_qubits() {
            let p = (next() % coupling.num_qubits() as u64) as usize;
            let other = layout.l2p[l];
            layout.swap_physical(other, p);
        }
    }
    let initial_layout = layout.l2p.clone();
    buffers.log.clear();
    let mut steps: u64 = 0;
    let mut swap_count = 0usize;

    // Remaining-predecessor counts drive the front layer; fresh trial state
    // written into the shared buffers.
    for (node, pending) in buffers.pending_preds.iter_mut().enumerate() {
        *pending = dag.predecessors(node).len();
    }
    buffers.front.clear();
    buffers
        .front
        .extend((0..dag.len()).filter(|&i| buffers.pending_preds[i] == 0));
    buffers.executed.iter_mut().for_each(|e| *e = false);
    // Decay factors discourage ping-ponging the same qubit (as in SABRE);
    // bumping the epoch resets every factor to 1.0.
    buffers.epoch += 1;

    while !buffers.front.is_empty() {
        // Execute every front gate that is executable under current layout.
        let mut progress = false;
        buffers.next_front.clear();
        let mut next_front = std::mem::take(&mut buffers.next_front);
        for &node in &buffers.front {
            let [q0, q1] = gates.qubits[node];
            let executable = if gates.is_two_qubit[node] {
                coupling.are_coupled(layout.l2p[q0], layout.l2p[q1])
            } else {
                true
            };
            steps += 1;
            if executable {
                let p1 = if gates.is_two_qubit[node] {
                    layout.l2p[q1]
                } else {
                    0
                };
                buffers.log.push(Step {
                    node,
                    p0: layout.l2p[q0],
                    p1,
                });
                buffers.executed[node] = true;
                progress = true;
                for &succ in dag.successors(node) {
                    buffers.pending_preds[succ] -= 1;
                    if buffers.pending_preds[succ] == 0 {
                        next_front.push(succ);
                    }
                }
            } else {
                next_front.push(node);
            }
        }
        buffers.next_front = next_front;
        std::mem::swap(&mut buffers.front, &mut buffers.next_front);
        buffers.front.sort_unstable();
        buffers.front.dedup();

        if progress {
            // Reset decay after progress, as SABRE does periodically.
            buffers.epoch += 1;
            continue;
        }
        if buffers.front.is_empty() {
            break;
        }

        // No front gate executable: insert the best SWAP.
        // Candidate swaps: edges adjacent to any qubit of a front 2q gate
        // (insertion-ordered, stamp-deduplicated).
        let n = coupling.num_qubits();
        buffers.stamp += 1;
        buffers.candidates.clear();
        buffers.front_pairs.clear();
        for &node in &buffers.front {
            if !gates.is_two_qubit[node] {
                continue;
            }
            let [a, b] = gates.qubits[node];
            buffers
                .front_pairs
                .push((layout.l2p[a] as u32, layout.l2p[b] as u32));
            for &lq in &[a, b] {
                let p = layout.l2p[lq];
                for &nb in coupling.neighbors(p) {
                    let e = (p.min(nb), p.max(nb));
                    let slot = &mut buffers.edge_stamp[e.0 * n + e.1];
                    if *slot != buffers.stamp {
                        *slot = buffers.stamp;
                        buffers.candidates.push(e);
                    }
                }
            }
        }
        // Extended set: successors of front gates, for look-ahead. The
        // reference keeps duplicates and 1-qubit members (they count toward
        // the normalizing size), so track the total separately from the
        // 2-qubit pairs that contribute distance.
        buffers.extended_pairs.clear();
        let mut extended_total = 0usize;
        for &node in &buffers.front {
            for &succ in dag.successors(node) {
                if buffers.executed[succ] {
                    continue;
                }
                extended_total += 1;
                if gates.is_two_qubit[succ] {
                    let [a, b] = gates.qubits[succ];
                    buffers
                        .extended_pairs
                        .push((layout.l2p[a] as u32, layout.l2p[b] as u32));
                }
            }
        }

        let per_score_steps = (buffers.front_pairs.len() + buffers.extended_pairs.len()) as u64;
        assert!(
            !buffers.candidates.is_empty(),
            "at least one candidate swap exists"
        );
        // A candidate swap of physical qubits (a, b) only relabels those two
        // endpoints, so score against the unchanged layout with the labels
        // exchanged — no layout mutation at all. Distances are integers, so
        // the u64 accumulators equal the reference's sequential f64 sums
        // exactly (every partial sum is an exact small integer), keeping the
        // scores — and therefore the routing — byte-identical.
        let (dist, dn) = coupling.distance_table();
        let ext_div = extended_total.max(1) as f64;
        let mut best_edge = (usize::MAX, usize::MAX);
        let mut best_h = f64::INFINITY;
        for idx in 0..buffers.candidates.len() {
            let (a, b) = buffers.candidates[idx];
            let (a32, b32) = (a as u32, b as u32);
            let fix = |p: u32| {
                if p == a32 {
                    b32
                } else if p == b32 {
                    a32
                } else {
                    p
                }
            };
            let mut s: u64 = 0;
            for &(pa, pb) in &buffers.front_pairs {
                s += dist[fix(pa) as usize * dn + fix(pb) as usize] as u64;
            }
            let mut ext: u64 = 0;
            for &(pa, pb) in &buffers.extended_pairs {
                ext += dist[fix(pa) as usize * dn + fix(pb) as usize] as u64;
            }
            let score = s as f64 + 0.5 * (ext as f64) / ext_div;
            let h = score * buffers.decay_of(a).max(buffers.decay_of(b));
            if h < best_h {
                best_h = h;
                best_edge = (a, b);
            }
        }
        steps += per_score_steps * buffers.candidates.len() as u64;
        let (a, b) = best_edge;
        layout.swap_physical(a, b);
        buffers.bump_decay(a);
        buffers.bump_decay(b);
        buffers.log.push(Step {
            node: SWAP_STEP,
            p0: a,
            p1: b,
        });
        swap_count += 1;
    }

    TrialOutcome {
        swap_count,
        initial_layout,
        final_layout: layout.l2p,
        steps,
    }
}

/// Verifies that every 2-qubit gate of a routed circuit touches only
/// coupled pairs (used in tests and as a post-routing assertion).
pub fn respects_coupling(circuit: &Circuit, coupling: &CouplingMap) -> bool {
    circuit.instructions().all(|i| match i.qubits.len() {
        0 | 1 => true,
        2 => coupling.are_coupled(i.qubits[0], i.qubits[1]),
        _ => false,
    })
}

/// Reconstructs the logical circuit a routed circuit implements, by
/// tracking SWAP-induced permutations backwards from the initial layout.
/// Used to verify routing preserved semantics.
pub fn unroute(routed: &RoutedCircuit, initial_logical: usize) -> Circuit {
    // physical → logical, from the winning trial's initial layout.
    let mut p2l: HashMap<usize, usize> = routed
        .initial_layout
        .iter()
        .enumerate()
        .map(|(l, &p)| (p, l))
        .collect();
    let routed = &routed.circuit;
    let mut out = Circuit::new(initial_logical);
    for op in routed.operations() {
        match op {
            Operation::Gate(i) if i.gate == Gate::Swap => {
                let a = i.qubits[0];
                let b = i.qubits[1];
                let la = p2l.get(&a).copied();
                let lb = p2l.get(&b).copied();
                match la {
                    Some(l) => {
                        p2l.insert(b, l);
                    }
                    None => {
                        p2l.remove(&b);
                    }
                }
                match lb {
                    Some(l) => {
                        p2l.insert(a, l);
                    }
                    None => {
                        p2l.remove(&a);
                    }
                }
            }
            Operation::Gate(i) => {
                let qs: Vec<usize> = i
                    .qubits
                    .iter()
                    .map(|p| *p2l.get(p).expect("gate on unmapped physical qubit"))
                    .collect();
                out.push(i.gate.clone(), &qs);
            }
            Operation::Measure(p) => {
                if let Some(&l) = p2l.get(p) {
                    out.measure(l);
                }
            }
            Operation::Barrier(_) => {}
        }
    }
    out
}

/// The straightforward SABRE implementation this module's [`route`] was
/// optimized from, preserved verbatim as the semantics oracle: it rebuilds
/// the dependency DAG per trial, clones the layout per candidate swap, and
/// reallocates `front`/`candidates`/`extended` every round.
///
/// `tests/sabre_differential.rs` asserts `route` produces byte-identical
/// circuits, layouts, swap counts, and step counts; `benches/sabre.rs` and
/// the `figures bench-figures` report measure the speedup against it. Not
/// for production use.
///
/// # Errors
///
/// Identical to [`route`].
pub fn route_reference(
    circuit: &Circuit,
    coupling: &CouplingMap,
) -> Result<RoutedCircuit, RouteError> {
    const TRIALS: u64 = 5;
    if circuit.num_qubits() > coupling.num_qubits() {
        return Err(RouteError::TooManyQubits {
            needed: circuit.num_qubits(),
            available: coupling.num_qubits(),
        });
    }
    if coupling.num_qubits() > 0 && !coupling.is_connected() {
        return Err(RouteError::Disconnected);
    }
    if let Some(wide) = circuit.instructions().find(|i| i.qubits.len() > 2) {
        return Err(RouteError::UnsupportedArity {
            arity: wide.qubits.len(),
        });
    }
    let mut best: Option<RoutedCircuit> = None;
    let mut total_steps = 0u64;
    for trial in 0..TRIALS {
        let mut result = route_once_reference(circuit, coupling, trial);
        total_steps += result.steps;
        if best
            .as_ref()
            .is_none_or(|b| result.swap_count < b.swap_count)
        {
            result.steps = 0; // replaced with the total below
            best = Some(result);
        }
    }
    let mut best = best.expect("at least one trial ran");
    best.steps = total_steps;
    Ok(best)
}

/// One reference routing pass (the pre-optimization `route_once`).
fn route_once_reference(circuit: &Circuit, coupling: &CouplingMap, seed: u64) -> RoutedCircuit {
    let dag = DependencyDag::from_circuit(circuit);

    let mut layout = Layout::trivial(circuit.num_qubits(), coupling.num_qubits());
    if seed > 0 {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for l in 0..circuit.num_qubits() {
            let p = (next() % coupling.num_qubits() as u64) as usize;
            let other = layout.l2p[l];
            layout.swap_physical(other, p);
        }
    }
    let initial_layout = layout.l2p.clone();
    let mut out = Circuit::new(coupling.num_qubits());
    let mut steps: u64 = 0;
    let mut swap_count = 0usize;

    let mut pending_preds: Vec<usize> = (0..dag.len()).map(|i| dag.predecessors(i).len()).collect();
    let mut front: Vec<usize> = (0..dag.len()).filter(|&i| pending_preds[i] == 0).collect();
    let mut executed = vec![false; dag.len()];
    let mut decay = vec![1.0f64; coupling.num_qubits()];

    while !front.is_empty() {
        let mut progress = false;
        let mut next_front = Vec::new();
        for &node in &front {
            let instr = dag.instruction(node);
            let executable = match instr.qubits.len() {
                1 => true,
                2 => {
                    let p0 = layout.l2p[instr.qubits[0]];
                    let p1 = layout.l2p[instr.qubits[1]];
                    coupling.are_coupled(p0, p1)
                }
                _ => unreachable!(),
            };
            steps += 1;
            if executable {
                let phys: Vec<usize> = instr.qubits.iter().map(|&q| layout.l2p[q]).collect();
                out.push(instr.gate.clone(), &phys);
                executed[node] = true;
                progress = true;
                for &succ in dag.successors(node) {
                    pending_preds[succ] -= 1;
                    if pending_preds[succ] == 0 {
                        next_front.push(succ);
                    }
                }
            } else {
                next_front.push(node);
            }
        }
        front = next_front;
        front.sort_unstable();
        front.dedup();

        if progress {
            decay.iter_mut().for_each(|d| *d = 1.0);
            continue;
        }
        if front.is_empty() {
            break;
        }

        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &node in &front {
            let instr = dag.instruction(node);
            if instr.qubits.len() != 2 {
                continue;
            }
            for &lq in &instr.qubits {
                let p = layout.l2p[lq];
                for &nb in coupling.neighbors(p) {
                    let e = (p.min(nb), p.max(nb));
                    if !candidates.contains(&e) {
                        candidates.push(e);
                    }
                }
            }
        }
        let extended: Vec<usize> = front
            .iter()
            .flat_map(|&n| dag.successors(n).iter().copied())
            .filter(|&n| !executed[n])
            .collect();

        let score = |layout: &Layout, steps: &mut u64| -> f64 {
            let mut s = 0.0;
            for &n in &front {
                let i = dag.instruction(n);
                if i.qubits.len() == 2 {
                    *steps += 1;
                    s += coupling.distance(layout.l2p[i.qubits[0]], layout.l2p[i.qubits[1]]) as f64;
                }
            }
            let mut ext = 0.0;
            for &n in &extended {
                let i = dag.instruction(n);
                if i.qubits.len() == 2 {
                    *steps += 1;
                    ext +=
                        coupling.distance(layout.l2p[i.qubits[0]], layout.l2p[i.qubits[1]]) as f64;
                }
            }
            s + 0.5 * ext / (extended.len().max(1) as f64)
        };

        let mut best: Option<((usize, usize), f64)> = None;
        for &(a, b) in &candidates {
            let mut trial = layout.clone();
            trial.swap_physical(a, b);
            let h = score(&trial, &mut steps) * decay[a].max(decay[b]);
            if best.is_none() || h < best.unwrap().1 {
                best = Some(((a, b), h));
            }
        }
        let ((a, b), _) = best.expect("at least one candidate swap exists");
        layout.swap_physical(a, b);
        decay[a] += 0.001;
        decay[b] += 0.001;
        out.push(Gate::Swap, &[a, b]);
        swap_count += 1;
    }

    for op in circuit.operations() {
        if let Operation::Measure(q) = op {
            out.measure(layout.l2p[*q]);
        }
    }

    RoutedCircuit {
        circuit: out,
        swap_count,
        initial_layout,
        final_layout: layout.l2p,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weaver_simulator::equiv;

    #[test]
    fn already_routable_circuit_needs_no_swaps() {
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1).cz(1, 2);
        let r = route(&c, &CouplingMap::line(3)).unwrap();
        assert_eq!(r.swap_count, 0);
        assert!(respects_coupling(&r.circuit, &CouplingMap::line(3)));
    }

    #[test]
    fn distant_gate_routes_legally() {
        // A layout trial may solve cz(0,3) on a line without swaps; what
        // must always hold is coupling legality and semantic preservation.
        let mut c = Circuit::new(4);
        c.cz(0, 3).cz(0, 1).cz(1, 2).cz(2, 3).cz(0, 2).cz(1, 3);
        let coupling = CouplingMap::line(4);
        let r = route(&c, &coupling).unwrap();
        assert!(
            r.swap_count >= 1,
            "a 4-clique on a line cannot be swap-free"
        );
        assert!(respects_coupling(&r.circuit, &coupling));
        let recovered = unroute(&r, 4);
        assert!(equiv::compare(&c.unitary(), &recovered.unitary(), 1e-9).is_equivalent());
    }

    #[test]
    fn routing_preserves_semantics() {
        let mut c = Circuit::new(4);
        c.h(0).cz(0, 3).cx(1, 2).rz(0.4, 3).cz(0, 2);
        let coupling = CouplingMap::line(4);
        let r = route(&c, &coupling).unwrap();
        let recovered = unroute(&r, 4);
        let e = equiv::compare(&c.unitary(), &recovered.unitary(), 1e-9);
        assert!(e.is_equivalent(), "{e:?}");
    }

    #[test]
    fn routes_onto_larger_device() {
        let mut c = Circuit::new(5);
        for a in 0..5 {
            for b in (a + 1)..5 {
                c.cz(a, b);
            }
        }
        let coupling = CouplingMap::grid(3, 3);
        let r = route(&c, &coupling).unwrap();
        assert!(respects_coupling(&r.circuit, &coupling));
        assert_eq!(r.circuit.num_qubits(), 9);
    }

    #[test]
    fn all_to_all_needs_no_swaps() {
        let mut edges = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                edges.push((a, b));
            }
        }
        let full = CouplingMap::new(5, &edges);
        let mut c = Circuit::new(5);
        c.cz(0, 4).cz(1, 3).cz(2, 4);
        let r = route(&c, &full).unwrap();
        assert_eq!(r.swap_count, 0);
    }

    #[test]
    fn step_count_grows_with_circuit_size() {
        let coupling = CouplingMap::grid(4, 5);
        let mut small = Circuit::new(6);
        let mut large = Circuit::new(12);
        for i in 0..5 {
            small.cz(i, i + 1);
        }
        for i in 0..11 {
            large.cz(i, i + 1);
            large.cz(0, i + 1);
        }
        let rs = route(&small, &coupling).unwrap();
        let rl = route(&large, &coupling).unwrap();
        assert!(rl.steps > rs.steps);
    }

    #[test]
    fn measurements_survive_routing() {
        let mut c = Circuit::new(3);
        c.cz(0, 2).measure_all();
        let r = route(&c, &CouplingMap::line(3)).unwrap();
        let measures = r
            .circuit
            .operations()
            .iter()
            .filter(|o| matches!(o, Operation::Measure(_)))
            .count();
        assert_eq!(measures, 3);
    }

    #[test]
    fn oversized_circuit_is_a_typed_error() {
        let mut c = Circuit::new(5);
        c.cz(0, 4);
        let err = route(&c, &CouplingMap::line(3)).unwrap_err();
        assert_eq!(
            err,
            RouteError::TooManyQubits {
                needed: 5,
                available: 3
            }
        );
        assert!(err.to_string().contains("needs 5 qubits"), "{err}");
    }

    #[test]
    fn disconnected_coupling_is_a_typed_error() {
        let mut c = Circuit::new(4);
        c.cz(0, 3);
        let coupling = CouplingMap::new(4, &[(0, 1), (2, 3)]);
        assert_eq!(route(&c, &coupling).unwrap_err(), RouteError::Disconnected);
    }

    #[test]
    fn wide_gates_are_a_typed_error() {
        let mut c = Circuit::new(3);
        c.ccz(0, 1, 2);
        assert_eq!(
            route(&c, &CouplingMap::line(3)).unwrap_err(),
            RouteError::UnsupportedArity { arity: 3 }
        );
    }

    #[test]
    fn optimized_route_matches_reference_on_grid() {
        let mut c = Circuit::new(9);
        for a in 0..9 {
            c.h(a);
            for b in (a + 1)..9 {
                if (a * 7 + b * 3) % 4 != 0 {
                    c.cz(a, b);
                }
            }
        }
        c.measure_all();
        let coupling = CouplingMap::grid(3, 4);
        let fast = route(&c, &coupling).unwrap();
        let slow = route_reference(&c, &coupling).unwrap();
        assert_eq!(fast.circuit, slow.circuit);
        assert_eq!(fast.swap_count, slow.swap_count);
        assert_eq!(fast.initial_layout, slow.initial_layout);
        assert_eq!(fast.final_layout, slow.final_layout);
        assert_eq!(fast.steps, slow.steps);
    }

    #[test]
    fn washington_routes_100_variable_chain() {
        let mut c = Circuit::new(100);
        for i in 0..99 {
            c.cz(i, i + 1);
        }
        let coupling = CouplingMap::ibm_washington();
        let r = route(&c, &coupling).unwrap();
        assert!(respects_coupling(&r.circuit, &coupling));
    }
}
