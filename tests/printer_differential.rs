//! Differential test of the wQasm printer: `weaver_wqasm::print` must be
//! byte-identical to the previous `format!`/`join`-based printer, kept
//! here verbatim as the oracle, on every fixture compiled for `fpqa`,
//! `sc:eagle` and `simulator`, on generator instances of 6–100 variables
//! (for `fpqa`, `sc:eagle`, `sc:heron` and `simulator`), and on hand-built
//! programs covering every float-formatting edge. `sc:*` and `simulator`
//! artifacts print from their circuit without a program; their text must
//! equal the oracle's print of `to_program()`.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use weaver::core::backend::BackendErrorKind;
use weaver::core::{FrontendRegistry, Weaver};
use weaver::sat::generator;
use weaver::wqasm::ast::*;

/// The printer as it was before it wrote tokens straight into one
/// pre-sized `String` (verbatim).
mod oracle {
    use std::fmt::Write as _;
    use weaver::wqasm::ast::*;

    pub fn print(program: &Program) -> String {
        let mut out = String::new();
        if let Some(v) = &program.version {
            // Keep a conventional two-part version number.
            let v = if v.contains('.') {
                v.clone()
            } else {
                format!("{v}.0")
            };
            let _ = writeln!(out, "OPENQASM {v};");
        }
        for inc in &program.includes {
            let _ = writeln!(out, "include \"{inc}\";");
        }
        for stmt in &program.statements {
            print_statement(stmt, &mut out);
        }
        out
    }

    fn print_statement(stmt: &Statement, out: &mut String) {
        match stmt {
            Statement::QregDecl { name, size } => {
                let _ = writeln!(out, "qreg {name}[{size}];");
            }
            Statement::CregDecl { name, size } => {
                let _ = writeln!(out, "creg {name}[{size}];");
            }
            Statement::GateCall {
                annotations,
                name,
                params,
                qubits,
            } => {
                for a in annotations {
                    print_annotation(a, out);
                }
                let _ = write!(out, "{name}");
                if !params.is_empty() {
                    let ps: Vec<String> = params.iter().map(|p| fmt_f64(*p)).collect();
                    let _ = write!(out, "({})", ps.join(", "));
                }
                let qs: Vec<String> = qubits.iter().map(|q| q.to_string()).collect();
                let _ = writeln!(out, " {};", qs.join(", "));
            }
            Statement::Measure { qubit, target } => match target {
                Some(t) => {
                    let _ = writeln!(out, "measure {qubit} -> {t};");
                }
                None => {
                    let _ = writeln!(out, "measure {qubit};");
                }
            },
            Statement::Barrier { qubits } => {
                if qubits.is_empty() {
                    let _ = writeln!(out, "barrier;");
                } else {
                    let qs: Vec<String> = qubits.iter().map(|q| q.to_string()).collect();
                    let _ = writeln!(out, "barrier {};", qs.join(", "));
                }
            }
            Statement::Pragma(text) => {
                let _ = writeln!(out, "pragma {text};");
            }
            Statement::Standalone(a) => print_annotation(a, out),
        }
    }

    fn print_annotation(a: &Annotation, out: &mut String) {
        match a {
            Annotation::Slm { positions } => {
                let ps: Vec<String> = positions
                    .iter()
                    .map(|(x, y)| format!("({}, {})", fmt_f64(*x), fmt_f64(*y)))
                    .collect();
                let _ = writeln!(out, "@slm [{}]", ps.join(", "));
            }
            Annotation::Aod { xs, ys } => {
                let _ = writeln!(out, "@aod [{}] [{}]", fmt_list(xs), fmt_list(ys));
            }
            Annotation::Bind { qubit, target } => match target {
                BindTarget::Slm(i) => {
                    let _ = writeln!(out, "@bind {qubit} slm {i}");
                }
                BindTarget::Aod(cx, cy) => {
                    let _ = writeln!(out, "@bind {qubit} aod {cx} {cy}");
                }
            },
            Annotation::Transfer { slm_index, aod } => {
                let _ = writeln!(out, "@transfer {slm_index} ({}, {})", aod.0, aod.1);
            }
            Annotation::Shuttle {
                axis,
                index,
                offset,
            } => {
                let _ = writeln!(out, "@shuttle {axis} {index} {}", fmt_f64(*offset));
            }
            Annotation::RamanGlobal { x, y, z } => {
                let _ = writeln!(
                    out,
                    "@raman global {} {} {}",
                    fmt_f64(*x),
                    fmt_f64(*y),
                    fmt_f64(*z)
                );
            }
            Annotation::RamanLocal { qubit, x, y, z } => {
                let _ = writeln!(
                    out,
                    "@raman local {qubit} {} {} {}",
                    fmt_f64(*x),
                    fmt_f64(*y),
                    fmt_f64(*z)
                );
            }
            Annotation::Rydberg => {
                let _ = writeln!(out, "@rydberg");
            }
            Annotation::Other { keyword, content } => {
                if content.is_empty() {
                    let _ = writeln!(out, "@{keyword}");
                } else {
                    let _ = writeln!(out, "@{keyword} {content}");
                }
            }
        }
    }

    fn fmt_list(xs: &[f64]) -> String {
        xs.iter()
            .map(|x| fmt_f64(*x))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Formats a float so the lexer round-trips it exactly: uses Rust's shortest
    /// representation, which `f64::parse` recovers losslessly.
    fn fmt_f64(v: f64) -> String {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{v}")
        }
    }
}

#[track_caller]
fn assert_same(program: &Program, what: &str) {
    let new = weaver::wqasm::print(program);
    let old = oracle::print(program);
    if new != old {
        let at = new
            .bytes()
            .zip(old.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(new.len().min(old.len()));
        let from = at.saturating_sub(60);
        panic!(
            "{what}: printers differ at byte {at}\n new: {:?}\n old: {:?}",
            &new[from..(at + 60).min(new.len())],
            &old[from..(at + 60).min(old.len())]
        );
    }
}

/// Compiles every fixture input for `target` and compares both printers
/// on the artifact; returns how many programs were compared. Two workers
/// split the inputs: the 20-variable simulator compiles dominate a debug
/// run.
fn compare_fixtures(target: &str) -> usize {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"));
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) != Some("manifest"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 11, "fixture inputs went missing: {paths:?}");
    let compared = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..2 {
            let (paths, compared) = (&paths, &compared);
            scope.spawn(move || {
                let weaver = Weaver::new();
                for path in paths.iter().skip(worker).step_by(2) {
                    let what = format!("{}@{target}", path.display());
                    let text = std::fs::read_to_string(path).unwrap();
                    let front = FrontendRegistry::global()
                        .resolve(None, Some(path), &text)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    let workload = front.parse(&text).unwrap();
                    let out = match weaver.compile_workload(target, &workload) {
                        Ok(out) => out,
                        // `fpqa` compiles formulas only; circuits are rejected.
                        Err(e) if e.kind == BackendErrorKind::UnsupportedWorkload => continue,
                        Err(e) => panic!("{what}: {e}"),
                    };
                    let program = out.artifact.to_program();
                    assert_same(&program, &what);
                    assert_eq!(
                        out.artifact.print_wqasm(),
                        oracle::print(&program),
                        "{what}"
                    );
                    compared.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    compared.into_inner()
}

#[test]
fn fixtures_compiled_for_fpqa_print_identically() {
    // Every input but the `bell.wq` circuit, which `fpqa` rejects.
    assert!(compare_fixtures("fpqa") >= 10);
}

#[test]
fn fixtures_compiled_for_sc_eagle_print_identically() {
    assert!(compare_fixtures("sc:eagle") >= 11);
}

#[test]
fn fixtures_compiled_for_simulator_print_identically() {
    assert!(compare_fixtures("simulator") >= 11);
}

#[test]
fn generator_instances_print_identically() {
    let weaver = Weaver::new();
    for n in [6, 20, 50, 100] {
        let formula = generator::instance(n, 1);
        let out = weaver.compile_target("fpqa", &formula).unwrap();
        assert_same(&out.artifact.to_program(), &format!("instance({n}, 1)"));
    }
}

/// `sc:*` and `simulator` artifacts print straight from their circuit
/// (`weaver_wqasm::print_circuit`); the text must be the oracle's print of
/// the lifted program.
fn compare_circuit_artifacts(cases: &[(&str, usize)]) {
    let weaver = Weaver::new();
    for &(target, n) in cases {
        let formula = generator::instance(n, 1);
        let out = weaver.compile_target(target, &formula).unwrap();
        let what = format!("instance({n}, 1)@{target}");
        let program = out.artifact.to_program();
        assert_same(&program, &what);
        assert_eq!(
            out.artifact.print_wqasm(),
            oracle::print(&program),
            "{what}"
        );
    }
}

#[test]
fn routed_generator_instances_print_identically() {
    compare_circuit_artifacts(&[
        ("sc:eagle", 20),
        ("sc:eagle", 50),
        ("sc:eagle", 100),
        ("sc:heron", 20),
        ("sc:heron", 50),
        ("sc:heron", 100),
        ("simulator", 12),
    ]);
}

fn gate(name: &str, params: Vec<f64>, qubits: &[usize], annotations: Vec<Annotation>) -> Statement {
    Statement::GateCall {
        annotations,
        name: name.to_string(),
        params,
        qubits: qubits.iter().map(|&i| QubitRef::q(i)).collect(),
    }
}

#[test]
fn hand_built_edge_cases_print_identically() {
    let floats = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        1e15,
        -1e15,
        1e15 - 1.0,
        -(1e15 - 1.0),
        1e16,
        1e-7,
        -1e-7,
        1e-300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4.0, // subnormal
        f64::EPSILON,
        std::f64::consts::PI,
        -2.5e-3,
        123_456_789.125,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let mut statements = vec![
        Statement::Pragma("weaver target fpqa".into()),
        Statement::QregDecl {
            name: "q".into(),
            size: 12,
        },
        Statement::CregDecl {
            name: "c".into(),
            size: 0,
        },
        Statement::QregDecl {
            name: "anc".into(),
            size: 1_000_000,
        },
        Statement::Standalone(Annotation::Slm {
            positions: floats.iter().map(|&x| (x, -x)).collect(),
        }),
        Statement::Standalone(Annotation::Slm { positions: vec![] }),
        Statement::Standalone(Annotation::Aod {
            xs: floats.to_vec(),
            ys: vec![],
        }),
        Statement::Standalone(Annotation::Aod {
            xs: vec![],
            ys: vec![7.25],
        }),
        Statement::Barrier { qubits: vec![] },
        Statement::Barrier {
            qubits: vec![QubitRef::q(0)],
        },
        Statement::Barrier {
            qubits: (0..12).map(QubitRef::q).collect(),
        },
        Statement::Measure {
            qubit: QubitRef::q(3),
            target: None,
        },
        Statement::Measure {
            qubit: QubitRef::q(10),
            target: Some(QubitRef {
                register: "c".into(),
                index: 10,
            }),
        },
        Statement::Pragma(String::new()),
        Statement::Standalone(Annotation::Other {
            keyword: "note".into(),
            content: String::new(),
        }),
        Statement::Standalone(Annotation::Other {
            keyword: "schedule".into(),
            content: "stage 3 (a, b) [1.5]".into(),
        }),
        gate("h", vec![], &[], vec![]),
        gate("id", vec![], &[usize::MAX], vec![]),
        gate(
            "ccz",
            vec![],
            &[0, 1, 11],
            vec![
                Annotation::Bind {
                    qubit: QubitRef::q(0),
                    target: BindTarget::Slm(0),
                },
                Annotation::Bind {
                    qubit: QubitRef::q(11),
                    target: BindTarget::Aod(10, 109),
                },
                Annotation::Transfer {
                    slm_index: 99,
                    aod: (0, 100),
                },
                Annotation::Shuttle {
                    axis: ShuttleAxis::Row,
                    index: 0,
                    offset: -0.0,
                },
                Annotation::Shuttle {
                    axis: ShuttleAxis::Column,
                    index: 12,
                    offset: 1e15 - 1.0,
                },
                Annotation::Rydberg,
            ],
        ),
    ];
    for (i, &v) in floats.iter().enumerate() {
        statements.push(gate("rz", vec![v], &[i % 12], vec![]));
        statements.push(gate("u3", vec![v, -v, 1.0], &[i % 12], vec![]));
        statements.push(gate(
            "u",
            vec![],
            &[i % 12],
            vec![
                Annotation::RamanGlobal {
                    x: v,
                    y: 0.0,
                    z: -v,
                },
                Annotation::RamanLocal {
                    qubit: QubitRef::q(i),
                    x: -v,
                    y: v,
                    z: 1e-7,
                },
            ],
        ));
        statements.push(Statement::Standalone(Annotation::Shuttle {
            axis: ShuttleAxis::Column,
            index: i,
            offset: v,
        }));
    }
    for version in [
        None,
        Some("3"),
        Some("3.0"),
        Some("2.0"),
        Some("10"),
        Some("3.1.4"),
    ] {
        let program = Program {
            version: version.map(str::to_string),
            includes: vec!["stdgates.inc".into(), String::new()],
            statements: statements.clone(),
        };
        assert_same(&program, &format!("version {version:?}"));
    }
    assert_same(&Program::default(), "empty program");
    assert_same(&Program::new(), "version-only program");
}
