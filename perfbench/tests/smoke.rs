//! Tiny-scale pass of every workload, on the default and the hold-out
//! seed, untraced and traced: each run must succeed, print the result
//! object last, and emit exactly the metrics `BENCHMARK.json` lists, each
//! with its unit.

use std::process::Command;

use serde::value::Value;

const DEFAULT_SEED: &str = "1";
const HOLDOUT_SEED: &str = "1592598563";

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn str_field<'a>(value: &'a Value, name: &str) -> &'a str {
    value
        .field(name)
        .unwrap_or_else(|e| panic!("{e}"))
        .as_str()
        .unwrap_or_else(|| panic!("{name} is not a string"))
}

/// `(name, unit)` of each entry of a BENCHMARK.json metric list.
fn catalog(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench
        .field(list)
        .expect("metric list")
        .as_array()
        .expect("metric list is an array")
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_owned(),
                str_field(m, "unit").to_owned(),
            )
        })
        .collect()
}

fn workloads(bench: &Value) -> Vec<String> {
    bench
        .field("workloads")
        .expect("workloads")
        .as_array()
        .expect("workloads is an array")
        .iter()
        .map(|w| str_field(w, "name").to_owned())
        .collect()
}

/// Runs one tiny pass and returns the result object (the last line).
fn run(workload: &str, seed: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "0.3"])
        .args(["--trace", trace, "--scale", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("output has a result line");
    serde_json::from_str(last).expect("last line is a JSON object")
}

fn check_metrics(result: &Value, expected: &[(String, String)], context: &str) {
    let Value::Object(metrics) = result.field("metrics").expect("metrics") else {
        panic!("{context}: metrics is not an object");
    };
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| (name.clone(), str_field(m, "unit").to_owned()))
        .collect();
    assert_eq!(emitted, expected, "{context}: metric names or units differ");
    assert_eq!(
        result.field("correct").ok(),
        Some(&Value::Bool(true)),
        "{context}"
    );
}

fn pass(seed: &str) {
    let bench = benchmark();
    let end_to_end = catalog(&bench, "end_to_end");
    let per_layer = catalog(&bench, "per_layer");
    // Every benchmarked workload plus the camera swarm, which stays
    // runnable although the benchmark does not list it.
    let mut names = workloads(&bench);
    names.push("camera_swarm".to_owned());
    for workload in &names {
        let untraced = run(workload, seed, "0");
        check_metrics(
            &untraced,
            &end_to_end,
            &format!("{workload} seed {seed} untraced"),
        );
        let traced = run(workload, seed, "1");
        check_metrics(
            &traced,
            &per_layer,
            &format!("{workload} seed {seed} traced"),
        );
    }
}

#[test]
fn every_workload_emits_every_metric_on_the_default_seed() {
    pass(DEFAULT_SEED);
}

#[test]
fn every_workload_emits_every_metric_on_the_holdout_seed() {
    pass(HOLDOUT_SEED);
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let bench = benchmark();
    for workload in workloads(&bench) {
        let result = run(&workload, DEFAULT_SEED, "0");
        let Value::Object(metrics) = result.field("metrics").expect("metrics") else {
            panic!("metrics is not an object");
        };
        for (name, metric) in metrics {
            let value = match metric.field("value").expect("value") {
                Value::Float(v) => *v,
                Value::UInt(v) => *v as f64,
                Value::Int(v) => *v as f64,
                other => panic!("{name}: value is {}", other.kind()),
            };
            assert!(value > 0.0, "{workload}: {name} is {value}");
        }
    }
}

#[test]
fn metrics_json_describes_every_benchmark_metric() {
    let bench = benchmark();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/metrics.json");
    let text = std::fs::read_to_string(path).expect("perfbench/metrics.json");
    let meta: Value = serde_json::from_str(&text).expect("metrics.json parses");
    let described = meta.field("metrics").expect("metrics section");
    for list in ["end_to_end", "per_layer"] {
        for (name, unit) in catalog(&bench, list) {
            let entry = described.field(&name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(str_field(entry, "unit"), unit, "{name}");
            let clock = str_field(entry, "clock");
            assert!(
                clock == "host" || clock == "virtual",
                "{name}: clock {clock}"
            );
            str_field(entry, "layer");
        }
    }
}

#[test]
fn rejects_unknown_workloads() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
