//! Batch-job discovery: a fixture directory of workload files, or a
//! manifest file describing one job per line.
//!
//! # Manifest format
//!
//! ```text
//! # one job per line: <path> [key=value ...]
//! uf20-01.cnf
//! uf20-02.cnf target=superconducting
//! weighted.wcnf target=simulator
//! triangle.mc frontend=maxcut
//! bell.wq target=sc
//! hard/uf50-01.cnf check=true compression=false gamma=0.9 beta=0.2
//! ```
//!
//! Recognized keys: `target` (any backend-registry name or alias —
//! `fpqa`, `superconducting`/`sc`, `simulator`/`sim`, `sc:eagle`,
//! `sc:grid:<w>x<h>`, …), `frontend` (any
//! frontend-registry name or alias — `dimacs`/`wcnf`, `maxcut`/`mc`,
//! `wqasm`/`wq`; unset infers from the file extension, then content),
//! `check`, `compression`, `parallel-shuttling`, `dsatur` (booleans),
//! `gamma`, `beta`, `ccz-fidelity` (floats). Unset keys inherit the batch
//! defaults passed on the command line. Relative paths resolve against the
//! manifest's directory; blank lines and `#` comments are skipped.

use crate::job::{CompileJob, JobOptions, JobSource, Target};
use std::path::Path;
use weaver_core::{FrontendRegistry, WorkloadKind};

/// Expands `path` into jobs: every formula-format workload file (sorted by
/// name; the extensions every MAX-SAT-producing frontend registers —
/// `.cnf`, `.dimacs`, `.wcnf`, `.mc`, `.graph`) when `path` is a
/// directory, or one job per manifest line when it is a file.
/// `default_target` and `defaults` seed every job's settings.
///
/// Circuit files (`.wq`) are deliberately excluded from directory
/// discovery: a circuit is only compilable on circuit-capable targets, so
/// sweeping one up under a formula-only default target (`fpqa`) would fail
/// the batch. Circuits join batches through explicit manifest lines with a
/// matching `target=`.
pub fn discover_jobs(
    path: &Path,
    default_target: Target,
    defaults: &JobOptions,
) -> Result<Vec<CompileJob>, String> {
    if path.is_dir() {
        discover_dir(path, default_target, defaults)
    } else if path.is_file() {
        parse_manifest(path, default_target, defaults)
    } else {
        Err(format!("{}: no such file or directory", path.display()))
    }
}

fn discover_dir(
    dir: &Path,
    target: Target,
    defaults: &JobOptions,
) -> Result<Vec<CompileJob>, String> {
    let extensions = FrontendRegistry::global().extensions_for(WorkloadKind::MaxSat);
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|x| x.to_str())
                .is_some_and(|x| extensions.iter().any(|e| e == &x.to_ascii_lowercase()))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!(
            "{}: no workload files found (recognized extensions: {})",
            dir.display(),
            extensions
                .iter()
                .map(|e| format!(".{e}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(paths
        .into_iter()
        .map(|p| CompileJob {
            source: JobSource::Path(p),
            frontend: None,
            target: target.clone(),
            options: defaults.clone(),
        })
        .collect())
}

fn parse_manifest(
    manifest: &Path,
    default_target: Target,
    defaults: &JobOptions,
) -> Result<Vec<CompileJob>, String> {
    let text = std::fs::read_to_string(manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let base = manifest.parent().unwrap_or(Path::new("."));
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("{} line {}: {msg}", manifest.display(), lineno + 1);
        let mut fields = line.split_whitespace();
        let Some(file) = fields.next() else {
            continue; // unreachable: the line is non-empty after trim
        };
        let mut target = default_target.clone();
        let mut frontend = None;
        let mut options = defaults.clone();
        for field in fields {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| at(format!("expected key=value, got `{field}`")))?;
            let parse_bool = |v: &str| -> Result<bool, String> {
                v.parse()
                    .map_err(|_| at(format!("bad boolean `{v}` for {key}")))
            };
            let parse_f64 = |v: &str| -> Result<f64, String> {
                v.parse()
                    .map_err(|_| at(format!("bad number `{v}` for {key}")))
            };
            match key {
                "target" => target = Target::parse(value).map_err(at)?,
                "frontend" => {
                    // Validate the name at manifest-parse time (with a line
                    // number) instead of deep inside the batch run.
                    let registry = FrontendRegistry::global();
                    let front = registry
                        .get(value)
                        .ok_or_else(|| at(registry.unknown_format(value)))?;
                    frontend = Some(front.info().name);
                }
                "check" => options.check = parse_bool(value)?,
                "compression" => options.compression = parse_bool(value)?,
                "parallel-shuttling" => options.parallel_shuttling = parse_bool(value)?,
                "dsatur" => options.dsatur = parse_bool(value)?,
                "gamma" => options.gamma = parse_f64(value)?,
                "beta" => options.beta = parse_f64(value)?,
                "ccz-fidelity" => options.ccz_fidelity = Some(parse_f64(value)?),
                other => return Err(at(format!("unknown key `{other}`"))),
            }
        }
        let path = base.join(file);
        jobs.push(CompileJob {
            source: JobSource::Path(path),
            frontend,
            target,
            options,
        });
    }
    if jobs.is_empty() {
        return Err(format!("{}: manifest lists no jobs", manifest.display()));
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("weaver-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn directory_discovery_sorts_by_name() {
        let dir = scratch_dir("dir");
        for name in ["b.cnf", "a.cnf", "ignored.txt", "c.dimacs"] {
            std::fs::write(dir.join(name), "p cnf 1 1\n1 0\n").unwrap();
        }
        let jobs = discover_jobs(&dir, Target::Fpqa, &JobOptions::default()).unwrap();
        let names: Vec<String> = jobs
            .iter()
            .map(|j| match &j.source {
                JobSource::Path(p) => p.file_name().unwrap().to_string_lossy().into_owned(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["a.cnf", "b.cnf", "c.dimacs"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_lines_override_defaults() {
        let dir = scratch_dir("manifest");
        let manifest = dir.join("suite.manifest");
        std::fs::write(
            &manifest,
            "# suite\n\
             one.cnf\n\
             two.cnf target=sc check=true gamma=0.9\n\
             sub/three.cnf compression=false ccz-fidelity=0.95\n\
             four.cnf target=sim\n",
        )
        .unwrap();
        let jobs = discover_jobs(&manifest, Target::Fpqa, &JobOptions::default()).unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].target, Target::Fpqa);
        assert_eq!(jobs[1].target.name(), "superconducting");
        assert!(jobs[1].options.check);
        assert_eq!(jobs[1].options.gamma, 0.9);
        assert!(!jobs[2].options.compression);
        assert_eq!(jobs[2].options.ccz_fidelity, Some(0.95));
        assert_eq!(jobs[3].target.name(), "simulator");
        assert!(matches!(
            &jobs[2].source,
            JobSource::Path(p) if p.ends_with("sub/three.cnf")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn directory_discovery_includes_all_formula_formats() {
        let dir = scratch_dir("formats");
        std::fs::write(dir.join("a.cnf"), "p cnf 1 1\n1 0\n").unwrap();
        std::fs::write(dir.join("b.wcnf"), "p wcnf 1 1 3\n2 1 0\n").unwrap();
        std::fs::write(dir.join("c.mc"), "1 2\n").unwrap();
        std::fs::write(dir.join("d.wq"), "qreg q[1];\nh q[0];\n").unwrap();
        let jobs = discover_jobs(&dir, Target::Fpqa, &JobOptions::default()).unwrap();
        let names: Vec<String> = jobs
            .iter()
            .map(|j| match &j.source {
                JobSource::Path(p) => p.file_name().unwrap().to_string_lossy().into_owned(),
                _ => unreachable!(),
            })
            .collect();
        // Every formula format is swept up; the circuit file is not.
        assert_eq!(names, vec!["a.cnf", "b.wcnf", "c.mc"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_frontend_key_canonicalizes_and_validates() {
        let dir = scratch_dir("frontendkey");
        let manifest = dir.join("suite.manifest");
        std::fs::write(
            &manifest,
            "one.cnf\ntwo.mc frontend=mc\nthree.wq frontend=wqasm target=sim\n",
        )
        .unwrap();
        let jobs = discover_jobs(&manifest, Target::Fpqa, &JobOptions::default()).unwrap();
        assert_eq!(jobs[0].frontend, None);
        assert_eq!(
            jobs[1].frontend,
            Some("maxcut".into()),
            "aliases canonicalize"
        );
        assert_eq!(jobs[2].frontend, Some("wqasm".into()));

        std::fs::write(&manifest, "one.cnf\ntwo.cnf frontend=smtlib\n").unwrap();
        let err = discover_jobs(&manifest, Target::Fpqa, &JobOptions::default()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unknown front end `smtlib`"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_errors_carry_line_numbers() {
        let dir = scratch_dir("badmanifest");
        let manifest = dir.join("bad.manifest");
        std::fs::write(&manifest, "ok.cnf\nbad.cnf target=ion-trap\n").unwrap();
        let err = discover_jobs(&manifest, Target::Fpqa, &JobOptions::default()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_path_is_an_error() {
        let err = discover_jobs(
            Path::new("/definitely/not/here"),
            Target::Fpqa,
            &JobOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("no such file"));
    }
}
