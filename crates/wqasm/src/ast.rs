//! Abstract syntax tree for wQasm programs.
//!
//! Mirrors the grammar of paper Fig. 4: an optional version header followed
//! by statements, where gate-call statements may carry FPQA annotations
//! (`@slm`, `@aod`, `@bind`, `@transfer`, `@shuttle`, `@raman`, `@rydberg`).

use std::fmt;

/// A complete wQasm program.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// The `OPENQASM x.y;` version, if present.
    pub version: Option<String>,
    /// Included files (e.g. `stdgates.inc`), kept verbatim.
    pub includes: Vec<String>,
    /// Ordered statements.
    pub statements: Vec<Statement>,
}

/// A reference to one qubit of a declared register, e.g. `q[3]`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QubitRef {
    /// Register name.
    pub register: String,
    /// Index within the register.
    pub index: usize,
}

impl QubitRef {
    /// Creates a reference into register `q` (the conventional name).
    pub fn q(index: usize) -> Self {
        QubitRef {
            register: "q".to_string(),
            index,
        }
    }
}

impl fmt::Display for QubitRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.register, self.index)
    }
}

/// One statement of a wQasm program.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// Quantum register declaration (`qreg q[n];` / `qubit[n] q;`).
    QregDecl {
        /// Register name.
        name: String,
        /// Number of qubits.
        size: usize,
    },
    /// Classical register declaration (`creg c[n];` / `bit[n] c;`).
    CregDecl {
        /// Register name.
        name: String,
        /// Number of bits.
        size: usize,
    },
    /// A gate call, possibly annotated with FPQA instructions that realize
    /// it on hardware (annotations precede the statement, paper §4.1).
    GateCall {
        /// Annotations attached to this statement, in source order.
        annotations: Vec<Annotation>,
        /// Gate mnemonic (`h`, `cz`, `u3`, …).
        name: String,
        /// Angle parameters.
        params: Vec<f64>,
        /// Operand qubits.
        qubits: Vec<QubitRef>,
    },
    /// `measure q[i] -> c[j];` (classical target optional).
    Measure {
        /// Measured qubit.
        qubit: QubitRef,
        /// Classical destination, if written.
        target: Option<QubitRef>,
    },
    /// `barrier q[0], q[1];` (empty = all qubits).
    Barrier {
        /// Qubits fenced by the barrier.
        qubits: Vec<QubitRef>,
    },
    /// A `pragma` line, kept verbatim.
    Pragma(String),
    /// A standalone annotation not attached to any gate (allowed for device
    /// setup annotations at the top of a program).
    Standalone(Annotation),
}

/// Shuttle axis selector of `@shuttle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShuttleAxis {
    /// Move an AOD row (vertical offset).
    Row,
    /// Move an AOD column (horizontal offset).
    Column,
}

impl fmt::Display for ShuttleAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShuttleAxis::Row => write!(f, "row"),
            ShuttleAxis::Column => write!(f, "column"),
        }
    }
}

/// Trap-layer selector used by `@bind`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BindTarget {
    /// Bind to an SLM (fixed-layer) trap by linear index.
    Slm(usize),
    /// Bind to an AOD (reconfigurable-layer) trap by (column, row) index.
    Aod(usize, usize),
}

/// An FPQA annotation (paper Table 1).
#[derive(Clone, Debug, PartialEq)]
pub enum Annotation {
    /// `@slm [(x0, y0), …]` — fixed trap layer initialization.
    Slm {
        /// Trap coordinates in micrometres.
        positions: Vec<(f64, f64)>,
    },
    /// `@aod [x0, …] [y0, …]` — reconfigurable grid initialization.
    Aod {
        /// Column x-coordinates (strictly increasing).
        xs: Vec<f64>,
        /// Row y-coordinates (strictly increasing).
        ys: Vec<f64>,
    },
    /// `@bind q[i] slm k` / `@bind q[i] aod cx cy` — qubit-to-trap binding.
    Bind {
        /// The logical qubit being bound.
        qubit: QubitRef,
        /// The physical trap.
        target: BindTarget,
    },
    /// `@transfer k (cx, cy)` — move an atom between SLM trap `k` and the
    /// AOD trap at grid position `(cx, cy)` (direction depends on occupancy).
    Transfer {
        /// SLM trap index.
        slm_index: usize,
        /// AOD (column, row) grid index.
        aod: (usize, usize),
    },
    /// `@shuttle row|column index offset` — move a whole AOD row or column.
    Shuttle {
        /// Which axis moves.
        axis: ShuttleAxis,
        /// Row/column index.
        index: usize,
        /// Offset in micrometres (may be negative).
        offset: f64,
    },
    /// `@raman global x y z` — global single-qubit rotation.
    RamanGlobal {
        /// Rotation angle about X.
        x: f64,
        /// Rotation angle about Y.
        y: f64,
        /// Rotation angle about Z.
        z: f64,
    },
    /// `@raman local q[i] x y z` — single-atom rotation.
    RamanLocal {
        /// Addressed qubit.
        qubit: QubitRef,
        /// Rotation angle about X.
        x: f64,
        /// Rotation angle about Y.
        y: f64,
        /// Rotation angle about Z.
        z: f64,
    },
    /// `@rydberg` — global entangling pulse (CZ/CCZ on nearby atoms).
    Rydberg,
    /// Any other `@keyword remaining-line` annotation, kept verbatim for
    /// extensibility (grammar rule ⟨annotationKeyword⟩).
    Other {
        /// Keyword after `@`.
        keyword: String,
        /// Remaining tokens of the line, re-serialized.
        content: String,
    },
}

impl Annotation {
    /// Whether this annotation is a physical pulse (Raman/Rydberg) rather
    /// than setup or motion.
    pub fn is_pulse(&self) -> bool {
        matches!(
            self,
            Annotation::RamanGlobal { .. } | Annotation::RamanLocal { .. } | Annotation::Rydberg
        )
    }

    /// Whether this annotation moves atoms (`@shuttle` / `@transfer`).
    pub fn is_motion(&self) -> bool {
        matches!(
            self,
            Annotation::Shuttle { .. } | Annotation::Transfer { .. }
        )
    }
}

impl Program {
    /// The version [`Program::new`] declares.
    pub(crate) const DEFAULT_VERSION: &'static str = "3.0";

    /// Creates an OpenQASM-3-versioned empty program.
    pub fn new() -> Self {
        Program {
            version: Some(Self::DEFAULT_VERSION.to_string()),
            includes: Vec::new(),
            statements: Vec::new(),
        }
    }

    /// Total number of declared qubits across quantum registers.
    pub fn num_qubits(&self) -> usize {
        self.statements
            .iter()
            .map(|s| match s {
                Statement::QregDecl { size, .. } => *size,
                _ => 0,
            })
            .sum()
    }

    /// Iterator over every annotation in the program, in source order.
    pub fn annotations(&self) -> impl Iterator<Item = &Annotation> {
        self.statements.iter().flat_map(|s| match s {
            Statement::GateCall { annotations, .. } => annotations.as_slice().iter(),
            Statement::Standalone(a) => std::slice::from_ref(a).iter(),
            _ => [].iter(),
        })
    }

    /// Number of pulse annotations (Raman + Rydberg) — the paper's
    /// "number of pulses" metric counts these plus motion ops.
    pub fn pulse_count(&self) -> usize {
        self.annotations().filter(|a| a.is_pulse()).count()
    }

    /// Number of motion annotations (shuttle + transfer).
    pub fn motion_count(&self) -> usize {
        self.annotations().filter(|a| a.is_motion()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_ref_display() {
        assert_eq!(QubitRef::q(3).to_string(), "q[3]");
    }

    #[test]
    fn program_counts_qubits_and_annotations() {
        let mut p = Program::new();
        p.statements.push(Statement::QregDecl {
            name: "q".into(),
            size: 4,
        });
        p.statements
            .push(Statement::Standalone(Annotation::Rydberg));
        p.statements.push(Statement::GateCall {
            annotations: vec![
                Annotation::Shuttle {
                    axis: ShuttleAxis::Row,
                    index: 0,
                    offset: 10.0,
                },
                Annotation::Rydberg,
            ],
            name: "cz".into(),
            params: vec![],
            qubits: vec![QubitRef::q(0), QubitRef::q(1)],
        });
        assert_eq!(p.num_qubits(), 4);
        assert_eq!(p.pulse_count(), 2);
        assert_eq!(p.motion_count(), 1);
    }

    #[test]
    fn annotation_classification() {
        assert!(Annotation::Rydberg.is_pulse());
        assert!(!Annotation::Rydberg.is_motion());
        let sh = Annotation::Shuttle {
            axis: ShuttleAxis::Column,
            index: 1,
            offset: -5.0,
        };
        assert!(sh.is_motion());
        assert!(!sh.is_pulse());
    }
}
