//! Device-family conformance suite (ISSUE 5 acceptance criteria).
//!
//! The `sc:*` family turns retargetability into an open-ended axis, so the
//! tests here are generic over *every* registered device (plus arbitrary
//! `sc:grid:<w>x<h>` instances) instead of hand-written per target:
//!
//! * routed circuits respect the device's coupling map,
//! * connectivity / qubit-count preconditions are structured errors, never
//!   panics,
//! * compilation is deterministic across threads,
//! * artifact-cache keys are distinct per device (`sc:eagle` and
//!   `sc:heron` can never collide),
//! * and the family mechanism is differentially pinned to the pre-existing
//!   `superconducting` target: `sc:eagle` (same Washington coupling map)
//!   is byte-identical to it, and `sc:line` is byte-identical to the
//!   pre-existing `SuperconductingBackend` handed the same line coupling.
//!
//! The SABRE router itself is additionally property-tested against
//! randomly generated *connected* coupling maps — not just the fixed
//! devices — checking coupling legality and layout bijectivity.

use proptest::prelude::*;
use weaver::core::backend::{
    Backend, BackendErrorKind, BackendRegistry, CompiledArtifact, SuperconductingBackend,
};
use weaver::core::Weaver;
use weaver::engine::{CompileJob, Engine, EngineConfig, Target};
use weaver::sat::{generator, Formula};
use weaver::superconducting::{sabre, CouplingMap, DeviceSpec};
use weaver_circuit::Circuit;

/// Every device the suite proves: the registered `sc:*` family plus a few
/// parameterized grid instances minted from names.
fn family() -> Vec<String> {
    let mut names: Vec<String> = BackendRegistry::global()
        .names()
        .into_iter()
        .filter(|n| n.starts_with("sc:"))
        .collect();
    names.extend(["sc:grid:4x5", "sc:grid:2x10", "sc:grid:3x7"].map(String::from));
    assert!(names.len() >= 7, "family under test: {names:?}");
    names
}

fn compile(device: &str, formula: &Formula) -> (String, usize) {
    let out = Weaver::new()
        .compile_target(device, formula)
        .unwrap_or_else(|e| panic!("{device}: {e}"));
    assert_eq!(out.backend, device, "canonical name flows into the output");
    let swaps = out.artifact.swap_count().expect("routed artifact");
    (out.artifact.print_wqasm(), swaps)
}

#[test]
fn every_device_routes_legally() {
    let formula = generator::instance(10, 1);
    for device in family() {
        let spec = DeviceSpec::resolve(&device).unwrap();
        let out = Weaver::new().compile_target(&device, &formula).unwrap();
        let CompiledArtifact::Superconducting { circuit, .. } = &out.artifact else {
            panic!("{device}: expected a routed circuit");
        };
        assert!(
            sabre::respects_coupling(circuit, &spec.coupling()),
            "{device}: routed circuit must respect the coupling map"
        );
        assert_eq!(circuit.num_qubits(), spec.num_qubits(), "{device}");
        assert!(out.metrics.eps >= 0.0 && out.metrics.eps <= 1.0, "{device}");
        // The declared pass pipeline ran, timed and in order.
        let ran: Vec<&str> = out.passes.iter().map(|p| p.name).collect();
        assert_eq!(ran, vec!["qaoa-lower", "sabre-transpile"], "{device}");
        assert!(out.passes.iter().all(|p| p.seconds >= 0.0), "{device}");
    }
}

#[test]
fn preconditions_are_structured_errors_not_panics() {
    let weaver = Weaver::new();
    // Too many qubits for every small device: a typed Unsupported error.
    let wide = generator::instance(50, 1);
    for device in ["sc:grid:2x2", "sc:grid:4x5", "sc:grid:7x7"] {
        let err = weaver.compile_target(device, &wide).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::Unsupported, "{device}");
        assert!(err.message.contains("exceed"), "{device}: {err}");
    }
    // Unknown devices and malformed grids: typed UnknownTarget errors.
    for bad in ["sc:osprey", "sc:grid:0x4", "sc:grid:4x", "sc:grid:900x900"] {
        let err = weaver.compile_target(bad, &wide).unwrap_err();
        assert_eq!(err.kind, BackendErrorKind::UnknownTarget, "{bad}");
    }
    // A disconnected custom coupling map is a typed routing error through
    // the same backend type the family uses.
    let disconnected = CouplingMap::new(20, &[(0, 1), (2, 3)]);
    let err = SuperconductingBackend::with_coupling(disconnected)
        .compile(&weaver, &generator::instance(10, 1))
        .expect_err("disconnected map must fail");
    assert_eq!(err.kind, BackendErrorKind::Unsupported);
    assert!(err.message.contains("disconnected"), "{err}");
}

#[test]
fn compilation_is_deterministic_across_threads() {
    let formula = generator::instance(10, 2);
    for device in family() {
        let reference = compile(&device, &formula);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let device = device.clone();
                let formula = formula.clone();
                std::thread::spawn(move || compile(&device, &formula))
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().unwrap(),
                reference,
                "{device}: threads must agree byte for byte"
            );
        }
    }
}

#[test]
fn engine_batch_over_the_family_is_deterministic_and_cached() {
    let formula = generator::instance(10, 3);
    let jobs: Vec<CompileJob> = family()
        .into_iter()
        .map(|device| {
            let mut job = CompileJob::from_formula(format!("uf10@{device}"), formula.clone());
            job.target = Target::parse(&device).unwrap();
            job
        })
        .collect();
    let engine = Engine::new(EngineConfig {
        jobs: 3,
        ..EngineConfig::default()
    });
    let cold = engine.run(jobs.clone());
    assert_eq!(cold.succeeded(), jobs.len());
    // Distinct artifact keys: no two devices may share a cache entry.
    let keys: std::collections::HashSet<&str> =
        cold.results.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(keys.len(), jobs.len(), "per-device keys must be distinct");
    // A warm rerun hits for every device; a single-worker rerun agrees
    // byte for byte.
    let warm = engine.run(jobs.clone());
    assert_eq!(warm.cache_hits(), jobs.len());
    let sequential = Engine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
    .run(jobs);
    let stable_passes = |a: &weaver::engine::Artifact| -> Vec<(String, u64)> {
        a.passes.iter().map(|p| (p.name.clone(), p.steps)).collect()
    };
    for (a, b) in cold.results.iter().zip(&sequential.results) {
        let (aa, ba) = (a.artifact.as_ref().unwrap(), b.artifact.as_ref().unwrap());
        assert_eq!(aa.wqasm, ba.wqasm, "{}", a.name);
        // Wall-clock per pass varies; names, order, and step counts do not.
        assert_eq!(
            stable_passes(aa),
            stable_passes(ba),
            "{}: pass names/steps agree",
            a.name
        );
    }
}

#[test]
fn device_keys_separate_from_core_targets() {
    let formula = generator::instance(10, 1);
    let mut keys = std::collections::HashSet::new();
    let mut names = weaver::core::BackendRegistry::global().names();
    names.push("sc:grid:4x5".to_string());
    let targets = names.iter().map(|n| Target::parse(n).unwrap());
    let workload = weaver::core::Workload::MaxSat(formula.clone());
    for target in targets {
        let mut job = CompileJob::from_formula("key-probe", formula.clone());
        job.target = target.clone();
        assert!(
            keys.insert(job.artifact_key(&workload)),
            "{target} collides with another target's key"
        );
    }
}

#[test]
fn eagle_is_byte_identical_to_the_legacy_superconducting_target() {
    // sc:eagle models the same 127-qubit Washington chip as the
    // pre-existing `superconducting` target; with the same coupling map
    // the family path must be the same code path, byte for byte.
    for variant in 1..=3 {
        let formula = generator::instance(20, variant);
        let weaver = Weaver::new();
        let legacy = weaver.compile_target("superconducting", &formula).unwrap();
        let eagle = weaver.compile_target("sc:eagle", &formula).unwrap();
        assert_eq!(
            eagle.artifact.print_wqasm(),
            legacy.artifact.print_wqasm(),
            "uf20-{variant:02}"
        );
        assert_eq!(eagle.artifact.swap_count(), legacy.artifact.swap_count());
        assert_eq!(eagle.metrics.eps.to_bits(), legacy.metrics.eps.to_bits());
        assert_eq!(eagle.metrics.steps, legacy.metrics.steps);
    }
}

#[test]
fn line_is_byte_identical_to_the_preexisting_backend_with_line_coupling() {
    // sc:line through the family resolution vs the pre-existing
    // SuperconductingBackend handed the same coupling map directly.
    let weaver = Weaver::new();
    for variant in 1..=3 {
        let formula = generator::instance(20, variant);
        let family_out = weaver.compile_target("sc:line", &formula).unwrap();
        let direct = SuperconductingBackend::with_coupling(CouplingMap::line(127))
            .compile(&weaver, &formula)
            .unwrap();
        assert_eq!(
            family_out.artifact.print_wqasm(),
            direct.artifact.print_wqasm(),
            "uf20-{variant:02}"
        );
        assert_eq!(
            family_out.artifact.swap_count(),
            direct.artifact.swap_count()
        );
        assert_eq!(
            family_out.metrics.eps.to_bits(),
            direct.metrics.eps.to_bits()
        );
    }
}

// ---------------------------------------------------------------------------
// sabre::route property tests over random connected coupling maps
// ---------------------------------------------------------------------------

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random connected coupling map: a random spanning tree (every node i
/// attaches to a random earlier node) plus `extra` random chords.
fn random_connected_map(n: usize, extra: usize, seed: u64) -> CouplingMap {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut edges = Vec::new();
    for i in 1..n {
        let j = (splitmix(&mut state) % i as u64) as usize;
        edges.push((j, i));
    }
    for _ in 0..extra {
        let a = (splitmix(&mut state) % n as u64) as usize;
        let b = (splitmix(&mut state) % n as u64) as usize;
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    CouplingMap::new(n, &edges)
}

/// A random ≤2q circuit over `qubits` wires.
fn random_circuit(qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut state = seed | 1;
    let mut c = Circuit::new(qubits);
    for _ in 0..gates {
        let a = (splitmix(&mut state) % qubits as u64) as usize;
        let b = (splitmix(&mut state) % qubits as u64) as usize;
        match splitmix(&mut state) % 4 {
            0 => {
                c.h(a);
            }
            1 => {
                c.rz(0.25 + (splitmix(&mut state) % 7) as f64 * 0.125, a);
            }
            2 if a != b => {
                c.cz(a, b);
            }
            _ if a != b => {
                c.cx(a, b);
            }
            _ => {
                c.h(a);
            }
        }
    }
    c
}

/// `final_layout`/`initial_layout` must stay logical↔physical bijections:
/// every logical qubit maps to a distinct in-range physical qubit.
fn assert_bijective(layout: &[usize], physical: usize, what: &str) {
    let mut seen = std::collections::HashSet::new();
    for (logical, &p) in layout.iter().enumerate() {
        assert!(p < physical, "{what}: logical {logical} → out-of-range {p}");
        assert!(seen.insert(p), "{what}: physical {p} mapped twice");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ISSUE 5 satellite: `sabre::route` directly against random connected
    /// coupling maps (not just the fixed devices): coupling legality holds
    /// and the layouts stay bijections.
    #[test]
    fn route_respects_random_connected_maps(
        n in 2usize..14,
        extra in 0usize..8,
        gates in 1usize..24,
        seed in 1u64..u64::MAX,
    ) {
        let coupling = random_connected_map(n, extra, seed);
        prop_assert!(coupling.is_connected());
        let circuit = random_circuit(n, gates, seed);
        let routed = sabre::route(&circuit, &coupling).unwrap();
        prop_assert!(
            sabre::respects_coupling(&routed.circuit, &coupling),
            "routing must be coupling-legal on n={n} extra={extra} seed={seed}"
        );
        assert_bijective(&routed.initial_layout, n, "initial_layout");
        assert_bijective(&routed.final_layout, n, "final_layout");
    }

    /// Bad inputs against random maps are typed errors, never panics.
    #[test]
    fn route_preconditions_hold_on_random_maps(
        n in 2usize..10,
        seed in 1u64..u64::MAX,
    ) {
        let coupling = random_connected_map(n, 2, seed);
        // Wider circuit than the map: TooManyQubits.
        let wide = random_circuit(n + 3, 4, seed);
        prop_assert_eq!(
            sabre::route(&wide, &coupling).unwrap_err(),
            sabre::RouteError::TooManyQubits { needed: n + 3, available: n }
        );
        // Two disjoint copies of the map: Disconnected.
        let mut edges = coupling.edges();
        edges.extend(coupling.edges().iter().map(|&(a, b)| (a + n, b + n)));
        let split = CouplingMap::new(2 * n, &edges);
        prop_assert!(!split.is_connected());
        let circuit = random_circuit(2 * n, 4, seed);
        prop_assert_eq!(
            sabre::route(&circuit, &split).unwrap_err(),
            sabre::RouteError::Disconnected
        );
    }
}
