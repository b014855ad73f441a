//! End-to-end checks of the `krvbench` binary against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["wire-small", "bulk-mirrored", "kem-mixed", "stream-tree"];

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The `"name"` values of the objects in the array under `key`, read
/// with plain string scanning so this test does not share the parser it
/// checks.
fn declared_names(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let open = start + doc[start..].find('[').expect("array");
    let close = open + doc[open..].find(']').expect("array end");
    doc[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find('"').expect("value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

/// The metric names of a result line, in print order.
fn printed_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics")..];
    metrics
        .split("\"value\"")
        .filter_map(|part| {
            let end = part.rfind("\": {")?;
            let start = part[..end].rfind('"')? + 1;
            Some(part[start..end].to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn out_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn krvbench(args: &[&str], out: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_krvbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .env_remove("KRV_COMPILED")
        .env_remove("KRV_NATIVE_LANES")
        .output()
        .expect("spawn krvbench")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn smoke_runs_pass_every_check_and_print_the_declared_names() {
    let doc = benchmark_json();
    let end_to_end = declared_names(&doc, "end_to_end");
    let per_layer = declared_names(&doc, "per_layer");
    assert_eq!(declared_names(&doc, "workloads"), WORKLOADS);
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(valid_name(name), "invalid metric name {name}");
    }
    let out = out_dir("smoke");
    for workload in WORKLOADS {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let output = krvbench(
                &[
                    "run",
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--smoke",
                    "--trace",
                    trace,
                ],
                &out,
            );
            let line = last_line(&output);
            assert!(
                output.status.success(),
                "{workload} trace={trace} failed: {line}\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
            assert_eq!(&printed_names(&line), declared, "{workload} trace={trace}");
        }
    }
}

#[test]
fn a_planted_wrong_digest_fails_the_run() {
    let output = krvbench(
        &[
            "run",
            "--workload",
            "wire-small",
            "--seed",
            "3",
            "--smoke",
            "--plant-fault",
        ],
        &out_dir("planted"),
    );
    assert!(!output.status.success(), "a wrong digest must fail the run");
    assert!(
        last_line(&output).starts_with("{\"correct\": false"),
        "{}",
        last_line(&output)
    );
}

#[test]
fn runs_refuse_program_selecting_variables() {
    for var in ["KRV_COMPILED", "KRV_NATIVE_LANES"] {
        let output = Command::new(env!("CARGO_BIN_EXE_krvbench"))
            .args(["run", "--workload", "wire-small", "--seed", "1", "--smoke"])
            .arg("--out")
            .arg(out_dir("refuse"))
            .env(var, "1")
            .output()
            .expect("spawn krvbench");
        assert_eq!(output.status.code(), Some(2), "{var} must be refused");
        assert!(output.stdout.is_empty(), "no result line when refused");
    }
}

#[test]
fn benchmark_json_follows_the_contract() {
    let doc = benchmark_json();
    for key in [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ] {
        assert!(doc.contains(&format!("\"{key}\"")), "missing {key}");
    }
    assert!(doc.contains("\"paths\": [\"krvbench\"]"));
    let end_to_end = declared_names(&doc, "end_to_end");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    let section = &doc[doc.find("\"end_to_end\"").unwrap()..doc.find("\"per_layer\"").unwrap()];
    let bounds: Vec<f64> = section
        .split("\"bound\":")
        .skip(1)
        .map(|rest| {
            rest.trim_start()
                .split(['}', ','])
                .next()
                .unwrap()
                .trim()
                .parse()
                .expect("numeric bound")
        })
        .collect();
    assert_eq!(bounds.len(), end_to_end.len());
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25), "{bounds:?}");
    let setup = end_to_end.iter().position(|n| n == "setup_s").unwrap();
    assert!(
        bounds.iter().all(|&b| b <= bounds[setup]),
        "setup_s carries the largest bound"
    );
}
