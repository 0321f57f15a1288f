//! DIMACS round-trip over the committed SATLIB-style fixture, so the CLI and
//! parser tests do not depend only on generated instances.

use weaver::sat::dimacs;

const FIXTURE: &str = include_str!("fixtures/uf20-01.cnf");

#[test]
fn fixture_matches_satlib_shape() {
    let f = dimacs::parse(FIXTURE).expect("parse committed fixture");
    assert_eq!(f.num_vars(), 20);
    assert_eq!(f.num_clauses(), 91);
    assert!(f.clauses().iter().all(|c| c.lits().len() <= 3));
}

#[test]
fn parse_print_parse_is_identity() {
    let parsed = dimacs::parse(FIXTURE).expect("parse committed fixture");
    let printed = dimacs::to_string(&parsed);
    let reparsed = dimacs::parse(&printed).expect("reparse printed DIMACS");
    assert_eq!(reparsed, parsed, "parse → print → parse must be identity");
    // And printing is a fixpoint from the first round on.
    assert_eq!(dimacs::to_string(&reparsed), printed);
}

#[test]
fn weaverc_checks_the_fixture() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/uf20-01.cnf");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_weaverc"))
        .args([fixture, "--target", "fpqa", "--check"])
        .output()
        .expect("run weaverc");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("wChecker PASS"), "{stderr}");
    // Twenty variables exceed the unitary cap: local checks only, said so.
    assert!(
        stderr.contains("unitary skipped: 20 > 13 qubits)"),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("OPENQASM"));
}
