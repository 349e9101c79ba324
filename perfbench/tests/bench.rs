//! The benchmark's own tests, on short inputs (`--short`).
//!
//! - Every workload prints exactly the metrics `BENCHMARK.json` names,
//!   with their units, passes its correctness gate, and records the raw
//!   wall-clock figures behind its normalised times.
//! - A corrupted program output trips the gate of every workload.
//! - Every count repeats exactly across runs and between traced and
//!   untraced runs of the same seed.
//! - The fuzz artifact is byte-equal to `jgre fuzz` for the same seed.
//!
//! Run with `cargo test --release --offline` from `perfbench/`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["fleet", "serve", "lint", "fuzz"];
const SEED: u64 = 11;

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag);
    std::fs::create_dir_all(&dir).expect("target tmpdir is writable");
    dir
}

/// Runs the benchmark binary; returns (details, result).
fn run(workload: &str, trace: bool, extra: &[&str]) -> (Value, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &SEED.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--short"])
        .arg("--scratch")
        .arg(scratch(&format!("{workload}-{trace}")))
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "details and result lines: {stdout}");
    let details: Value = serde_json::from_str(lines[lines.len() - 2]).expect("details are JSON");
    let result: Value = serde_json::from_str(lines[lines.len() - 1]).expect("result is JSON");
    (details["details"].clone(), result)
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    spec[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_owned(),
                m["unit"].as_str().unwrap().to_owned(),
            )
        })
        .collect()
}

fn printed(result: &Value) -> BTreeMap<String, String> {
    let Value::Object(metrics) = &result["metrics"] else {
        panic!("metrics object: {result:?}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m["value"].as_f64().is_some(), "{name} has a numeric value");
            (name.clone(), m["unit"].as_str().unwrap().to_owned())
        })
        .collect()
}

fn counts(details: &Value) -> BTreeMap<String, u64> {
    let Value::Object(counts) = &details["counts"] else {
        panic!("counts object: {details:?}");
    };
    counts
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
        .collect()
}

#[test]
fn short_mode_prints_every_named_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    for workload in WORKLOADS {
        let (details, result) = run(workload, false, &[]);
        assert_eq!(
            result["correct"].as_bool(),
            Some(true),
            "{workload}: {details:?}"
        );
        assert!(result["attempted"].as_u64().unwrap() >= 1);
        assert_eq!(printed(&result), end_to_end, "{workload}");
        // Normalised times keep their raw wall-clock figures and the
        // host-speed kernel times beside them.
        for name in ["raw.setup_s", "host.kernel_ms"] {
            assert!(
                details["spread"][name]["n"].as_u64().unwrap_or(0) >= 1,
                "{workload}: details record {name}"
            );
        }
    }
    let (details, result) = run("serve", true, &[]);
    assert_eq!(result["correct"].as_bool(), Some(true), "{details:?}");
    assert_eq!(printed(&result), declared("per_layer"));
}

#[test]
fn a_corrupted_output_trips_the_gate() {
    for workload in WORKLOADS {
        let (details, result) = run(workload, false, &["--corrupt-output"]);
        assert_eq!(result["correct"].as_bool(), Some(false), "{workload}");
        assert!(
            !details["problems"].as_array().unwrap().is_empty(),
            "{workload}"
        );
    }
}

#[test]
fn counts_repeat_across_runs_and_trace_modes() {
    let (details, traced) = run("fleet", true, &[]);
    let traced_counts = counts(&details);
    let Value::Object(traced_metrics) = &traced["metrics"] else {
        panic!("metrics object");
    };
    for workload in WORKLOADS {
        let first = counts(&run(workload, false, &[]).0);
        let second = counts(&run(workload, false, &[]).0);
        assert_eq!(first, second, "{workload}: counts repeat across runs");
        for (name, value) in &first {
            if let Some(traced) = traced_counts.get(name) {
                assert_eq!(traced, value, "{workload}: {name} traced vs untraced");
                let metric = traced_metrics.iter().find(|(k, _)| k == name);
                if let Some((_, metric)) = metric {
                    assert_eq!(
                        metric["value"].as_f64(),
                        Some(*value as f64),
                        "{name} metric"
                    );
                }
            }
        }
    }
    for name in [
        "framework.calls",
        "defense.scorer.passes",
        "analysis.cfg_blocks",
        "fuzz.edges",
    ] {
        assert!(traced_counts.contains_key(name), "traced run counts {name}");
    }
    assert!(traced_counts
        .keys()
        .any(|k| k.starts_with("framework.rejects.")));
}

#[test]
fn fuzz_artifact_is_byte_equal_to_the_cli() {
    let dir = scratch("fuzz-cli");
    let ours = dir.join("perfbench.json");
    let cli = dir.join("cli.json");
    let (_, result) = run("fuzz", false, &["--artifact-out", ours.to_str().unwrap()]);
    assert_eq!(result["correct"].as_bool(), Some(true));
    // `jgre fuzz` with the same seed and budget, one thread (the CLI
    // default): the report does not depend on the thread count.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let status = Command::new(env!("CARGO"))
        // A target directory of its own: the outer `cargo test` holds the
        // lock on this package's.
        .env("CARGO_TARGET_DIR", scratch("cli-target"))
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "jgre",
            "--manifest-path",
        ])
        .arg(&manifest)
        .args([
            "--",
            "fuzz",
            "--seed",
            &SEED.to_string(),
            "--iters",
            "20000",
            "--out",
        ])
        .arg(&cli)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("cargo runs the jgre CLI");
    assert!(status.success());
    let ours = std::fs::read(ours).expect("artifact written");
    let theirs = std::fs::read(cli).expect("CLI artifact written");
    assert!(
        ours == theirs,
        "perfbench's fuzz artifact differs from `jgre fuzz`"
    );
}
