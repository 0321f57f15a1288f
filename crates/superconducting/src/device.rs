//! Declarative device specifications for the `sc:*` superconducting target
//! family.
//!
//! The paper's retargetability claim (Fig. 3) is only interesting if adding
//! a backend is cheap. For superconducting QPUs the only thing that really
//! changes between devices is the coupling map (§2.3), so the family is
//! driven by data: a [`DeviceSpec`] names a device, declares its topology,
//! qubit count, native two-qubit gate, and aliases, and the backend
//! registry turns every spec into a routing target called
//! `sc:<device>`. Four devices ship built in ([`DeviceSpec::builtin`]) —
//! `sc:line`, `sc:grid`, `sc:eagle` (127-qubit heavy-hex), and `sc:heron`
//! (133-qubit heavy-hex) — and arbitrary rectangular lattices are minted on
//! demand from the parameterized name `sc:grid:<w>x<h>`.
//!
//! # Examples
//!
//! Resolve a spec by target name and inspect it:
//!
//! ```
//! use weaver_superconducting::DeviceSpec;
//!
//! let eagle = DeviceSpec::resolve("sc:eagle").unwrap();
//! assert_eq!(eagle.num_qubits(), 127);
//! assert_eq!(eagle.full_name(), "sc:eagle");
//! assert!(eagle.coupling().is_connected());
//!
//! // Aliases name the same device; parameterized grids are minted on demand.
//! assert_eq!(DeviceSpec::resolve("sc:washington").unwrap().name, "eagle");
//! let grid = DeviceSpec::resolve("sc:grid:4x5").unwrap();
//! assert_eq!(grid.num_qubits(), 20);
//!
//! // Bad names are structured errors, not panics.
//! assert!(DeviceSpec::resolve("sc:grid:0x5").is_err());
//! assert!(DeviceSpec::resolve("sc:osprey").is_err());
//! ```

use crate::CouplingMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// The `sc:` namespace every device-family target name lives under.
pub const FAMILY_PREFIX: &str = "sc:";

/// Largest register a minted `sc:grid:<w>x<h>` device may declare; keeps
/// the all-pairs BFS table (O(n²) memory) of absurd requests from taking
/// the process down.
pub const MAX_GRID_QUBITS: usize = 4096;

/// The two-qubit gate a device implements natively. Routing lowers to the
/// shared `{U3, CZ}` basis either way; the native gate is declarative
/// device metadata surfaced by `weaverc targets` and the figures harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeTwoQubit {
    /// Controlled-Z (tunable couplers: Heron-class and most lattices).
    Cz,
    /// Echoed cross-resonance (fixed-frequency Eagle-class devices).
    Ecr,
}

impl NativeTwoQubit {
    /// Display name (`CZ` / `ECR`).
    pub fn name(self) -> &'static str {
        match self {
            NativeTwoQubit::Cz => "CZ",
            NativeTwoQubit::Ecr => "ECR",
        }
    }
}

impl fmt::Display for NativeTwoQubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The coupling-graph shape of a device; [`DeviceSpec::coupling`] expands
/// it through the generators in [`CouplingMap`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceTopology {
    /// A 1D chain of `n` qubits.
    Line(usize),
    /// A rectangular lattice.
    Grid {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
    },
    /// An IBM heavy-hex lattice of unit-cell distance `distance`, padded or
    /// trimmed to exactly `qubits` (see [`CouplingMap::heavy_hex_sized`]).
    HeavyHex {
        /// Unit-cell rows/cols.
        distance: usize,
        /// Exact qubit count after sizing.
        qubits: usize,
    },
}

/// A declarative superconducting device: everything the compiler needs to
/// route onto it, as data.
///
/// # Examples
///
/// ```
/// use weaver_superconducting::{sabre, DeviceSpec};
/// use weaver_circuit::Circuit;
///
/// let spec = DeviceSpec::heron();
/// assert_eq!(spec.num_qubits(), 133);
///
/// // The spec's coupling map drives routing directly.
/// let mut c = Circuit::new(4);
/// c.h(0).cz(0, 3).cz(1, 2);
/// let routed = sabre::route(&c, &spec.coupling()).unwrap();
/// assert!(sabre::respects_coupling(&routed.circuit, &spec.coupling()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Canonical short name within the family (`eagle`, `grid:4x5`).
    pub name: String,
    /// Alternate short names (`washington` for `eagle`).
    pub aliases: Vec<String>,
    /// One-line description surfaced by `weaverc targets`.
    pub description: String,
    /// The device's native two-qubit gate (declarative metadata).
    pub native_two_qubit: NativeTwoQubit,
    /// The coupling-graph shape.
    pub topology: DeviceTopology,
}

impl DeviceSpec {
    /// The built-in family, in registration order: `line`, `grid`,
    /// `eagle`, `heron`.
    pub fn builtin() -> Vec<DeviceSpec> {
        vec![
            DeviceSpec::line(),
            DeviceSpec::default_grid(),
            DeviceSpec::eagle(),
            DeviceSpec::heron(),
        ]
    }

    /// `sc:line` — a 127-qubit 1D chain, the minimal-connectivity extreme
    /// of the family (every non-adjacent interaction pays in SWAPs).
    pub fn line() -> Self {
        DeviceSpec {
            name: "line".to_string(),
            aliases: Vec::new(),
            description: "127-qubit 1D chain (minimal-connectivity extreme)".to_string(),
            native_two_qubit: NativeTwoQubit::Cz,
            topology: DeviceTopology::Line(127),
        }
    }

    /// `sc:grid` — an 11×11 square lattice (121 qubits); arbitrary sizes
    /// are minted from `sc:grid:<w>x<h>`.
    pub fn default_grid() -> Self {
        DeviceSpec {
            name: "grid".to_string(),
            description: "11×11 square lattice, 121 qubits".to_string(),
            ..DeviceSpec::grid(11, 11)
        }
    }

    /// A `w`×`h` rectangular lattice named `grid:<w>x<h>` (`w` rows,
    /// `h` columns).
    pub fn grid(w: usize, h: usize) -> Self {
        DeviceSpec {
            name: format!("grid:{w}x{h}"),
            aliases: Vec::new(),
            description: format!("{w}×{h} square lattice, {} qubits", w * h),
            native_two_qubit: NativeTwoQubit::Cz,
            topology: DeviceTopology::Grid { rows: w, cols: h },
        }
    }

    /// `sc:eagle` — the 127-qubit IBM Eagle heavy-hex processor (the
    /// Washington chip of the paper's evaluation, §8.1).
    pub fn eagle() -> Self {
        DeviceSpec {
            name: "eagle".to_string(),
            aliases: vec!["washington".to_string()],
            description: "IBM Eagle 127-qubit heavy-hex (the paper's Washington model)".to_string(),
            native_two_qubit: NativeTwoQubit::Ecr,
            topology: DeviceTopology::HeavyHex {
                distance: 7,
                qubits: 127,
            },
        }
    }

    /// `sc:heron` — the 133-qubit IBM Heron heavy-hex processor
    /// (Torino-class, tunable couplers).
    pub fn heron() -> Self {
        DeviceSpec {
            name: "heron".to_string(),
            aliases: vec!["torino".to_string()],
            description: "IBM Heron 133-qubit heavy-hex (Torino-class)".to_string(),
            native_two_qubit: NativeTwoQubit::Cz,
            topology: DeviceTopology::HeavyHex {
                distance: 7,
                qubits: 133,
            },
        }
    }

    /// Resolves a full `sc:*` target name — a built-in device (by name or
    /// alias) or a parameterized `sc:grid:<w>x<h>` lattice.
    ///
    /// # Errors
    ///
    /// A one-line message for names outside the `sc:` namespace, unknown
    /// devices, and malformed or oversized grid dimensions.
    pub fn resolve(target: &str) -> Result<DeviceSpec, String> {
        let short = target
            .strip_prefix(FAMILY_PREFIX)
            .ok_or_else(|| format!("`{target}` is not an {FAMILY_PREFIX}* device name"))?;
        if let Some(found) = DeviceSpec::builtin()
            .into_iter()
            .find(|d| d.name == short || d.aliases.iter().any(|a| a == short))
        {
            return Ok(found);
        }
        if let Some(dims) = short.strip_prefix("grid:") {
            return DeviceSpec::parse_grid(target, dims);
        }
        let known: Vec<String> = DeviceSpec::builtin()
            .into_iter()
            .map(|d| d.full_name())
            .collect();
        Err(format!(
            "unknown device `{target}` (known devices: {}; arbitrary grids via {FAMILY_PREFIX}grid:<w>x<h>)",
            known.join(", ")
        ))
    }

    fn parse_grid(target: &str, dims: &str) -> Result<DeviceSpec, String> {
        let bad = || {
            format!("`{target}`: grid dimensions must look like {FAMILY_PREFIX}grid:<w>x<h> with w, h ≥ 1")
        };
        let (w, h) = dims.split_once('x').ok_or_else(bad)?;
        let w: usize = w.parse().map_err(|_| bad())?;
        let h: usize = h.parse().map_err(|_| bad())?;
        if w == 0 || h == 0 {
            return Err(bad());
        }
        if w.saturating_mul(h) > MAX_GRID_QUBITS {
            return Err(format!(
                "`{target}`: {w}×{h} = {} qubits exceeds the {MAX_GRID_QUBITS}-qubit grid cap",
                w.saturating_mul(h)
            ));
        }
        Ok(DeviceSpec::grid(w, h))
    }

    /// The full registry name, `sc:<name>`.
    pub fn full_name(&self) -> String {
        format!("{FAMILY_PREFIX}{}", self.name)
    }

    /// The full registry aliases, `sc:<alias>`.
    pub fn full_aliases(&self) -> Vec<String> {
        self.aliases
            .iter()
            .map(|a| format!("{FAMILY_PREFIX}{a}"))
            .collect()
    }

    /// Physical qubits the device offers.
    pub fn num_qubits(&self) -> usize {
        match self.topology {
            DeviceTopology::Line(n) => n,
            DeviceTopology::Grid { rows, cols } => rows * cols,
            DeviceTopology::HeavyHex { qubits, .. } => qubits,
        }
    }

    /// Expands the topology into a coupling map.
    ///
    /// The built-in devices' maps are memoized process-globally by
    /// canonical device name ([`DeviceSpec::full_name`], which alias
    /// resolution lands on), so a batch that compiles a thousand `sc:eagle`
    /// jobs expands the heavy-hex lattice and runs the all-pairs BFS exactly
    /// once; every further call is a cache hit that clones an
    /// [`Arc`](std::sync::Arc). A parameterized `sc:grid:<w>x<h>` map is
    /// expanded on every call: such names are unbounded, so a memo of them
    /// would only grow. The backend registry keeps its few most recently
    /// minted grid backends instead.
    pub fn coupling(&self) -> CouplingMap {
        if !DeviceSpec::builtin().iter().any(|d| d.name == self.name) {
            return self.expand_topology();
        }
        static CACHE: OnceLock<Mutex<HashMap<String, CouplingMap>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = self.full_name();
        if let Some(hit) = cache.lock().unwrap().get(&key) {
            return hit.clone();
        }
        // Expand outside the lock: heavy-hex sizing rebuilds the BFS table
        // several times and must not stall concurrent workers resolving
        // other devices.
        let map = self.expand_topology();
        cache.lock().unwrap().entry(key).or_insert(map).clone()
    }

    /// Expands the topology into a fresh, uncached coupling map.
    fn expand_topology(&self) -> CouplingMap {
        match self.topology {
            DeviceTopology::Line(n) => CouplingMap::line(n),
            DeviceTopology::Grid { rows, cols } => CouplingMap::grid(rows, cols),
            DeviceTopology::HeavyHex { distance, qubits } => {
                CouplingMap::heavy_hex_sized(distance, qubits)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_family_is_well_formed() {
        let devices = DeviceSpec::builtin();
        assert_eq!(devices.len(), 4);
        let mut names = std::collections::HashSet::new();
        for d in &devices {
            assert!(names.insert(d.full_name()), "{} duplicated", d.name);
            assert_eq!(d.num_qubits(), d.coupling().num_qubits(), "{}", d.name);
            assert!(d.coupling().is_connected(), "{}", d.name);
            assert!(!d.description.is_empty());
        }
        assert_eq!(
            devices.iter().map(|d| d.full_name()).collect::<Vec<_>>(),
            vec!["sc:line", "sc:grid", "sc:eagle", "sc:heron"]
        );
    }

    #[test]
    fn eagle_matches_the_washington_model() {
        let eagle = DeviceSpec::eagle();
        assert_eq!(eagle.coupling(), CouplingMap::ibm_washington());
        assert_eq!(eagle.native_two_qubit, NativeTwoQubit::Ecr);
        let heron = DeviceSpec::heron();
        assert_eq!(heron.coupling(), CouplingMap::ibm_heron());
        assert_ne!(eagle.coupling(), heron.coupling());
    }

    #[test]
    fn resolve_handles_names_aliases_and_grids() {
        assert_eq!(DeviceSpec::resolve("sc:line").unwrap().name, "line");
        assert_eq!(DeviceSpec::resolve("sc:washington").unwrap().name, "eagle");
        assert_eq!(DeviceSpec::resolve("sc:torino").unwrap().name, "heron");
        let grid = DeviceSpec::resolve("sc:grid:3x4").unwrap();
        assert_eq!(grid.name, "grid:3x4");
        assert_eq!(grid.num_qubits(), 12);
        assert_eq!(
            DeviceSpec::resolve("sc:grid").unwrap().topology,
            DeviceTopology::Grid { rows: 11, cols: 11 }
        );
    }

    #[test]
    fn coupling_cache_serves_aliases_and_repeat_lookups() {
        // Alias resolution lands on the canonical name, so `sc:washington`
        // and `sc:eagle` share one cache entry; repeated lookups are
        // Arc-clone cheap and compare equal.
        let a = DeviceSpec::eagle().coupling();
        let b = DeviceSpec::resolve("sc:washington").unwrap().coupling();
        assert_eq!(a, b);
        assert_eq!(a, DeviceSpec::eagle().coupling());
    }

    #[test]
    fn resolve_rejects_bad_names_with_messages() {
        for bad in [
            "eagle",
            "sc:osprey",
            "sc:grid:0x4",
            "sc:grid:4x",
            "sc:grid:axb",
        ] {
            let err = DeviceSpec::resolve(bad).unwrap_err();
            assert!(err.contains(bad), "{err}");
        }
        let err = DeviceSpec::resolve("sc:grid:1000x1000").unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        let err = DeviceSpec::resolve("sc:osprey").unwrap_err();
        assert!(
            err.contains("sc:line, sc:grid, sc:eagle, sc:heron"),
            "{err}"
        );
    }
}
