//! Smoke test for the `weaverc` CLI: DIMACS in, wQasm out, checker PASS.

use std::process::Command;

fn weaverc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_weaverc"))
}

fn write_cnf() -> String {
    let f = weaver::sat::generator::instance(10, 1);
    let path = std::env::temp_dir().join("weaverc_smoke_uf10.cnf");
    std::fs::write(&path, weaver::sat::dimacs::to_string(&f)).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn compiles_dimacs_to_wqasm_with_check() {
    let cnf = write_cnf();
    let out = weaverc()
        .args([cnf.as_str(), "--target", "fpqa", "--check"])
        .output()
        .expect("run weaverc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("OPENQASM"));
    assert!(stdout.contains("@rydberg"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wChecker PASS"), "{stderr}");
    // The emitted program reparses and validates.
    let program = weaver::wqasm::parse(&stdout).expect("reparse CLI output");
    assert!(weaver::wqasm::semantics::validate(&program, &Default::default()).is_empty());
}

#[test]
fn superconducting_target_emits_plain_qasm() {
    let cnf = write_cnf();
    let out = weaverc()
        .args([cnf.as_str(), "--target", "superconducting"])
        .output()
        .expect("run weaverc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let program = weaver::wqasm::parse(&stdout).expect("reparse CLI output");
    assert!(
        program.pulse_count() == 0,
        "no FPQA annotations on the SC path"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("SWAPs"));
}

#[test]
fn simulator_target_reports_ideal_eps() {
    let cnf = write_cnf();
    let out = weaverc()
        .args([cnf.as_str(), "--target", "simulator"])
        .output()
        .expect("run weaverc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let program = weaver::wqasm::parse(&stdout).expect("reparse CLI output");
    assert_eq!(program.pulse_count(), 0, "ideal path emits no pulses");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ideal EPS"), "{stderr}");
    // The alias reaches the same backend.
    let aliased = weaverc()
        .args([cnf.as_str(), "--target", "sim"])
        .output()
        .unwrap();
    assert!(aliased.status.success());
    assert_eq!(aliased.stdout, out.stdout);
}

#[test]
fn targets_subcommand_lists_the_registry() {
    let out = weaverc().arg("targets").output().expect("run weaverc");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "fpqa",
        "superconducting",
        "simulator",
        "sc:line",
        "sc:grid",
        "sc:eagle",
        "sc:heron",
    ] {
        assert!(stdout.contains(name), "{name} missing from:\n{stdout}");
    }
    assert!(stdout.contains("alias sc"), "{stdout}");
    assert!(stdout.contains("alias sc:washington"), "{stdout}");
    assert!(stdout.contains("alias sc:torino"), "{stdout}");
    assert!(stdout.contains("up to 127 qubits"), "{stdout}");
    assert!(stdout.contains("up to 133 qubits"), "{stdout}");
    assert!(stdout.contains("passes:"), "{stdout}");
    // Stray arguments are rejected instead of silently ignored.
    let out = weaverc().args(["targets", "--jobs"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes no arguments"));
}

#[test]
fn unknown_target_is_a_structured_diagnostic() {
    let cnf = write_cnf();
    for args in [
        vec![cnf.as_str(), "--target", "ion-trap"],
        vec!["batch", cnf.as_str(), "--target", "ion-trap"],
    ] {
        let out = weaverc().args(&args).output().unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("weaverc: error: unknown-target: unknown target `ion-trap`"),
            "{stderr}"
        );
        assert!(
            stderr.contains("known targets: fpqa, superconducting, simulator"),
            "{stderr}"
        );
    }
}

#[test]
fn device_family_targets_compile_single_shot() {
    let cnf = write_cnf();
    // sc:eagle models the same chip as the legacy `superconducting` target:
    // identical coupling map, so identical bytes out.
    let legacy = weaverc()
        .args([cnf.as_str(), "--target", "superconducting"])
        .output()
        .unwrap();
    assert!(legacy.status.success());
    for device in ["sc:eagle", "sc:washington"] {
        let out = weaverc()
            .args([cnf.as_str(), "--target", device])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{device}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, legacy.stdout,
            "{device} must be byte-identical to the legacy superconducting target"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("SWAPs"));
    }
    // A parameterized grid minted from the name compiles too.
    let grid = weaverc()
        .args([cnf.as_str(), "--target", "sc:grid:3x4"])
        .output()
        .unwrap();
    assert!(
        grid.status.success(),
        "{}",
        String::from_utf8_lossy(&grid.stderr)
    );
    // And one too small for the workload is a structured compile error.
    let tiny = weaverc()
        .args([cnf.as_str(), "--target", "sc:grid:2x2"])
        .output()
        .unwrap();
    assert!(!tiny.status.success());
    let stderr = String::from_utf8_lossy(&tiny.stderr);
    assert!(
        stderr.contains("weaverc: error: compile:") && stderr.contains("exceed"),
        "{stderr}"
    );
}

#[test]
fn bad_device_names_are_structured_diagnostics() {
    let cnf = write_cnf();
    for (target, needle) in [
        ("sc:osprey", "unknown device `sc:osprey`"),
        ("sc:grid:0x4", "grid dimensions"),
        ("sc:grid:999x999", "exceeds"),
    ] {
        for args in [
            vec![cnf.as_str(), "--target", target],
            vec!["batch", cnf.as_str(), "--target", target],
        ] {
            let out = weaverc().args(&args).output().unwrap();
            assert!(!out.status.success(), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains("weaverc: error: unknown-target:") && stderr.contains(needle),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn batch_compiles_the_devices_manifest() {
    let manifest = format!("{}/devices.manifest", fixtures_dir());
    let out = weaverc()
        .args(["batch", manifest.as_str(), "--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for target in [
        "sc:eagle",
        "sc:heron",
        "sc:line",
        "sc:grid:4x5",
        "simulator",
    ] {
        assert!(
            stdout.contains(&format!("\"target\":\"{target}\"")),
            "{target} missing from:\n{stdout}"
        );
    }
    // Per-pass timing flows into the JSONL stream.
    assert!(
        stdout.contains("\"passes\":[{\"name\":\"qaoa-lower\""),
        "{stdout}"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("6/6 succeeded"));
}

#[test]
fn frontends_subcommand_lists_the_registry() {
    let out = weaverc().arg("frontends").output().expect("run weaverc");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["dimacs", "maxcut", "wqasm"] {
        assert!(stdout.contains(name), "{name} missing from:\n{stdout}");
    }
    assert!(stdout.contains("alias cnf, wcnf"), "{stdout}");
    assert!(stdout.contains("alias mc, graph"), "{stdout}");
    assert!(stdout.contains(".wcnf"), "{stdout}");
    assert!(stdout.contains("produces: max-sat"), "{stdout}");
    assert!(stdout.contains("produces: circuit"), "{stdout}");
    // Stray arguments are rejected instead of silently ignored.
    let out = weaverc().args(["frontends", "--jobs"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes no arguments"));
}

#[test]
fn wcnf_and_maxcut_inputs_compile_single_shot() {
    let wcnf = format!("{}/sample.wcnf", fixtures_dir());
    let out = weaverc().args([wcnf.as_str(), "--check"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(weighted) [dimacs]"), "{stderr}");
    assert!(stderr.contains("wChecker PASS"), "{stderr}");
    // Six variables: the full-unitary comparison runs, and the line says so.
    assert!(stderr.contains("unitary compared)"), "{stderr}");

    let mc = format!("{}/triangle.mc", fixtures_dir());
    let out = weaverc()
        .args([mc.as_str(), "--target", "sim"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("(weighted) [maxcut]"), "{stderr}");
    assert!(stderr.contains("ideal EPS"), "{stderr}");
}

#[test]
fn circuit_inputs_route_to_circuit_capable_targets_only() {
    let wq = format!("{}/bell.wq", fixtures_dir());
    // The simulator runs it and reports the peak outcome.
    let out = weaverc()
        .args([wq.as_str(), "--target", "simulator"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 qubits") && stderr.contains("[wqasm]"),
        "{stderr}"
    );
    assert!(stderr.contains("peak basis-state probability"), "{stderr}");
    // Superconducting devices transpile it.
    let out = weaverc()
        .args([wq.as_str(), "--target", "sc:eagle"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The formula-only FPQA target rejects it with a structured diagnostic.
    let out = weaverc()
        .args([wq.as_str(), "--target", "fpqa"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("weaverc: error: unsupported-workload:")
            && stderr.contains("circuit-capable"),
        "{stderr}"
    );
}

#[test]
fn unknown_frontend_is_a_structured_diagnostic() {
    let cnf = write_cnf();
    for args in [
        vec![cnf.as_str(), "--frontend", "smtlib"],
        vec!["batch", cnf.as_str(), "--frontend", "smtlib"],
    ] {
        let out = weaverc().args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("weaverc: error: unknown-format: unknown front end `smtlib`"),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("known front ends: dimacs, maxcut, wqasm"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn parse_errors_carry_line_and_column() {
    let bad = std::env::temp_dir().join("weaverc_smoke_bad_weight.wcnf");
    std::fs::write(&bad, "p wcnf 2 1 10\n0 1 2 0\n").unwrap();
    let out = weaverc().arg(bad.to_str().unwrap()).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("weaverc: error: parse:"), "{stderr}");
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn batch_compiles_the_mixed_frontends_manifest() {
    let manifest = format!("{}/mixed-frontends.manifest", fixtures_dir());
    let out = weaverc()
        .args(["batch", manifest.as_str(), "--jobs", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["uf20-01.cnf", "sample.wcnf", "triangle.mc", "bell.wq"] {
        assert!(stdout.contains(name), "{name} missing from:\n{stdout}");
    }
    assert!(String::from_utf8_lossy(&out.stderr).contains("8/8 succeeded"));
}

#[test]
fn bad_input_fails_cleanly() {
    let out = weaverc().args(["/nonexistent.cnf"]).output().unwrap();
    assert!(!out.status.success());
    let out = weaverc().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn failures_emit_one_line_structured_errors() {
    // Missing file → io error, nonzero exit.
    let out = weaverc().args(["/nonexistent.cnf"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("weaverc: error: io:"), "{stderr}");
    // Garbage DIMACS → parse error, nonzero exit.
    let bad = std::env::temp_dir().join("weaverc_smoke_bad.cnf");
    std::fs::write(&bad, "p cnf two three\nnot a clause\n").unwrap();
    let out = weaverc().arg(bad.to_str().unwrap()).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("weaverc: error: parse:"), "{stderr}");
}

fn fixtures_dir() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures").to_string()
}

#[test]
fn batch_compiles_the_fixture_suite_with_check() {
    let out = weaverc()
        .args(["batch", fixtures_dir().as_str(), "--jobs", "2", "--check"])
        .output()
        .expect("run weaverc batch");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // 10 fixture job records (8 .cnf + sample.wcnf + triangle.mc; the
    // circuit fixture bell.wq is manifest-only) + 1 batch summary.
    assert_eq!(lines.len(), 11, "{stdout}");
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"job\"") && l.contains("\"check_passed\":true"))
            .count(),
        10
    );
    let summary = lines.last().unwrap();
    assert!(summary.contains("\"kind\":\"batch\""), "{summary}");
    assert!(summary.contains("\"succeeded\":10"), "{summary}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("10/10 succeeded"));
}

#[test]
fn batch_wqasm_matches_single_shot_output() {
    let dir = std::env::temp_dir().join(format!("weaverc_batch_out_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fixture = format!("{}/uf20-01.cnf", fixtures_dir());
    // Single-shot reference.
    let single = weaverc().args([fixture.as_str()]).output().unwrap();
    assert!(single.status.success());
    // Batch over the suite, artifacts materialized into --out-dir.
    let out = weaverc()
        .args([
            "batch",
            fixtures_dir().as_str(),
            "--jobs",
            "2",
            "--out-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let from_batch = std::fs::read(dir.join("uf20-01.qasm")).expect("batch artifact");
    assert_eq!(
        from_batch, single.stdout,
        "batch artifact must be byte-identical to the single-shot run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_on_a_held_store_runs_memory_only_and_writes_nothing() {
    use weaver::engine::store::{Store, StoreTuning};
    let dir = std::env::temp_dir().join(format!("weaverc_batch_held_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // This process is the store's live writer for the whole batch.
    let store = Store::open(&dir, StoreTuning::default()).expect("open store");
    let listing = || {
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    let before = listing();
    let out = weaverc()
        .args([
            "batch",
            fixtures_dir().as_str(),
            "--jobs",
            "2",
            "--cache-dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().last().unwrap_or_default();
    assert!(summary.contains("\"disk_disabled\":true"), "{summary}");
    assert_eq!(
        listing(),
        before,
        "the batch wrote nothing beside the store"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_compiles_a_mixed_target_manifest() {
    // Miniature of tests/fixtures/mixed-targets.manifest (which CI runs
    // with the release binary): one small workload fanned across all three
    // registered targets in a single batch.
    let dir = std::env::temp_dir().join(format!("weaverc_batch_mixed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("uf10.cnf"),
        weaver::sat::dimacs::to_string(&weaver::sat::generator::instance(10, 1)),
    )
    .unwrap();
    std::fs::write(
        dir.join("suite.manifest"),
        "uf10.cnf check=true\nuf10.cnf target=sc\nuf10.cnf target=simulator\n",
    )
    .unwrap();
    let out = weaverc()
        .args([
            "batch",
            dir.join("suite.manifest").to_str().unwrap(),
            "--jobs",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for target in ["fpqa", "superconducting", "simulator"] {
        assert!(
            stdout.contains(&format!("\"target\":\"{target}\"")),
            "{stdout}"
        );
    }
    assert!(String::from_utf8_lossy(&out.stderr).contains("3/3 succeeded"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_reports_per_job_failures_and_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("weaverc_batch_bad_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("good.cnf"),
        weaver::sat::dimacs::to_string(&weaver::sat::generator::instance(10, 1)),
    )
    .unwrap();
    std::fs::write(dir.join("broken.cnf"), "p cnf nonsense\n").unwrap();
    let out = weaverc()
        .args(["batch", dir.to_str().unwrap(), "--jobs", "2"])
        .output()
        .unwrap();
    // One job fails → nonzero exit, structured error, but the good job ran.
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"status\":\"error\""), "{stdout}");
    assert!(stdout.contains("\"error_kind\":\"parse\""), "{stdout}");
    assert!(stdout.contains("\"status\":\"ok\""), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("weaverc: error: parse:"), "{stderr}");
    assert!(stderr.contains("1/2 succeeded"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
