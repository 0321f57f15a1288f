//! **wQasm** — the first formal extension of OpenQASM with FPQA-specific
//! instructions (paper §4).
//!
//! wQasm is standard OpenQASM plus seven annotations that describe how each
//! logical statement is realized on a Field-Programmable Qubit Array:
//!
//! | Annotation | Meaning |
//! |---|---|
//! | `@slm [(x, y), …]` | initialize fixed-layer traps |
//! | `@aod [xs] [ys]` | initialize the reconfigurable grid |
//! | `@bind q[i] slm k` / `aod cx cy` | bind qubit IDs to traps |
//! | `@transfer k (cx, cy)` | move an atom between layers |
//! | `@shuttle row\|column i off` | move an AOD row/column |
//! | `@raman global\|local …` | single-qubit rotation pulses |
//! | `@rydberg` | global entangling pulse (CZ/CCZ) |
//!
//! The crate provides the [`lexer`], [`parser`](parse), [`printer`](print())
//! (and [`print_circuit`] for plain circuits),
//! [`ast`], static [`semantics`] validation of the Table-1 pre-conditions,
//! and [`convert`] to/from the `weaver-circuit` IR.
//!
//! # Example
//!
//! ```
//! use weaver_wqasm::{parse, print, semantics};
//!
//! let src = "qreg q[2];\n@rydberg\ncz q[0], q[1];";
//! let program = parse(src).unwrap();
//! assert!(semantics::validate(&program, &Default::default()).is_empty());
//! assert_eq!(parse(&print(&program)).unwrap(), program);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod convert;
pub mod lexer;
mod parser;
mod printer;
pub mod semantics;

pub use ast::{Annotation, BindTarget, Program, QubitRef, ShuttleAxis, Statement};
pub use parser::{parse, ParseError};
pub use printer::{print, print_circuit};
