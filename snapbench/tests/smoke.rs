//! Runs every workload at `--quick` size, untraced and traced, and
//! checks the output contract: exactly the metrics `BENCHMARK.json`
//! declares, no failed operation, valid Chrome traces, and a digest
//! that repeats for a seed and changes with it.

use snap_telemetry::{parse, Value};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let bench = benchmark_json();
    bench
        .get(list)
        .and_then(Value::elements)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run one quick workload; returns the result object and the digest.
fn run(workload: &str, seed: u64, trace: bool, dir: &Path) -> (Value, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_snapbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.3",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--trace-dir")
        .arg(dir)
        .output()
        .expect("snapbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{workload} digest fnv1a:")))
        .expect("digest line")
        .to_string();
    let result = parse(stdout.lines().last().expect("result line")).expect("result is JSON");
    (result, digest)
}

/// The result object holds exactly the declared metrics, with their
/// units, and no operation failed.
fn check_result(workload: &str, result: &Value, list: &str) {
    let keys: Vec<&str> = result
        .fields()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}: {result:?}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_i64),
        Some(0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_i64)
            .expect("attempted")
            >= 1
    );
    let printed: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::fields)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{workload} {name}"
            );
            (name.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(
        printed,
        declared(list),
        "{workload}: printed {list} metrics"
    );
}

fn smoke(workload: &str) {
    let dir =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("snapbench-smoke-{workload}"));
    let _ = std::fs::remove_dir_all(&dir);
    let (plain, digest) = run(workload, 1, false, &dir);
    check_result(workload, &plain, "end_to_end");
    let (traced, traced_digest) = run(workload, 1, true, &dir);
    check_result(workload, &traced, "per_layer");
    assert_eq!(
        digest, traced_digest,
        "{workload}: same seed, same simulated output"
    );
    let (_, other) = run(workload, 2, false, &dir);
    assert_ne!(
        digest, other,
        "{workload}: another seed must change the simulated output"
    );

    let trace =
        std::fs::read_to_string(dir.join(format!("{workload}.trace.json"))).expect("trace file");
    snap_telemetry::validate_chrome_trace(&trace).expect("valid Chrome trace");
    let layers = parse(&std::fs::read_to_string(dir.join("layers.json")).expect("layers.json"))
        .expect("JSON");
    let metrics = layers
        .get(workload)
        .and_then(|w| w.get("metrics"))
        .expect("workload entry");
    for (name, _) in declared("per_layer") {
        assert!(
            metrics.get(&name).is_some(),
            "layers.json lacks {workload} {name}"
        );
    }
}

#[test]
fn core_compute() {
    smoke("core_compute");
}

#[test]
fn grid_10k() {
    smoke("grid_10k");
}

#[test]
fn grid_100k() {
    smoke("grid_100k");
}

#[test]
fn serve_mixed() {
    smoke("serve_mixed");
}

#[test]
fn benchmark_json_names_the_workloads_this_binary_runs() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .and_then(Value::elements)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        ["core_compute", "grid_10k", "grid_100k", "serve_mixed"]
    );
}
