//! End-to-end checks of the `bench` binary: a smoke run of all seven
//! workloads, the line the driver reads, and `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use newton_trace::json::JsonValue;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench"))
}

fn out_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn keys(v: &JsonValue) -> Vec<String> {
    match v {
        JsonValue::Object(entries) => entries.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn declared(doc: &JsonValue, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_reports_every_declared_metric_once_and_nothing_fails() {
    let dir = out_dir("smoke-run");
    let status = bench()
        .args(["run", "--smoke", "--seed", "5", "--out-dir"])
        .arg(&dir)
        .status()
        .unwrap();
    assert!(status.success(), "bench run --smoke failed: {status}");

    let result = dir.join("result.json");
    let validated = bench().arg("validate").arg(&result).status().unwrap();
    assert!(
        validated.success(),
        "bench validate rejected {}",
        result.display()
    );

    let doc = JsonValue::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    let manifest = doc.get("manifest").unwrap();
    for key in [
        "git_revision",
        "rustc",
        "host_cores",
        "cpu_model",
        "loadavg_start",
        "seed",
    ] {
        assert!(manifest.get(key).is_some(), "manifest lacks {key}");
    }
    let spec = benchmark_json();
    let workloads = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    let declared_workloads: Vec<String> = declared(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, declared_workloads);

    for w in workloads {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap();
        let end_to_end = w.get("end_to_end").unwrap();
        let per_layer = w.get("per_layer").unwrap();
        // Every metric BENCHMARK.json declares, once, with its unit.
        for (list, got) in [("end_to_end", end_to_end), ("per_layer", per_layer)] {
            let got_keys = keys(got);
            for (metric, unit) in declared(&spec, list) {
                let count = got_keys.iter().filter(|k| **k == metric).count();
                assert_eq!(count, 1, "{name}: {metric} appears {count} times");
                let got_unit = got.get(&metric).and_then(|m| m.get("unit"));
                assert_eq!(got_unit.and_then(JsonValue::as_str), Some(unit.as_str()));
            }
        }
        assert_eq!(keys(per_layer).len(), declared(&spec, "per_layer").len());
        // The ninth end-to-end metric rides along in the result file.
        assert_eq!(
            keys(end_to_end).len(),
            declared(&spec, "end_to_end").len() + 1
        );
        let value = |m: &JsonValue, key: &str| {
            m.get(key)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        assert_eq!(value(end_to_end, "failed_share"), 0.0, "{name}");
        assert_eq!(
            w.get("failed").and_then(JsonValue::as_f64),
            Some(0.0),
            "{name}"
        );
        assert_eq!(
            w.get("traced_failed").and_then(JsonValue::as_f64),
            Some(0.0),
            "{name}"
        );
        for metric in [
            "setup_s",
            "host_us_per_query",
            "sim_ns_per_query",
            "sim_speedup_vs_ideal",
        ] {
            assert!(value(end_to_end, metric) > 0.0, "{name}: {metric} is 0");
        }
        assert!(dir.join(format!("trace-{name}.json")).is_file());
    }

    // A result compared with itself holds everywhere.
    let same = bench()
        .arg("compare")
        .arg(&result)
        .arg(&result)
        .output()
        .unwrap();
    assert!(same.status.success());
    let table = String::from_utf8_lossy(&same.stdout);
    assert!(
        table.contains("0 regressed, 0 improved, 0 unresolved"),
        "{table}"
    );
}

#[test]
fn single_workload_prints_the_driver_line_last() {
    let dir = out_dir("driver-line");
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench()
            .args([
                "--workload",
                "decode_stream",
                "--seed",
                "12",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--smoke", "--out-dir"])
            .arg(&dir)
            .env("NEWTON_THREADS", "8")
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = JsonValue::parse(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        assert!(line.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
        assert_eq!(line.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        let want: Vec<String> = declared(&benchmark_json(), list)
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(keys(line.get("metrics").unwrap()), want);
    }
}

#[test]
fn benchmark_json_is_sound_and_bad_input_is_refused() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let ok = bench().arg("validate").arg(&path).output().unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stdout)
    );

    let dir = out_dir("refused");
    std::fs::create_dir_all(&dir).unwrap();
    let dup = dir.join("dup.json");
    std::fs::write(
        &dup,
        r#"{"schema": "newton-benchmark-trace/1", "k": 1, "k": 2}"#,
    )
    .unwrap();
    let refused = bench().arg("validate").arg(&dup).output().unwrap();
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stdout).contains("duplicate key /k"));

    let unknown = bench()
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
        .unwrap();
    assert!(!unknown.status.success());
    assert!(unknown.stdout.is_empty());
}
