//! Drives the benchmark binary end to end at a 1-ms trace length and
//! checks its output against `BENCHMARK.json` at the repository root.

use std::collections::BTreeMap;
use std::process::Command;

use simcore::obs::json::{self, JsonValue};

fn spec() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> entry` of one metric list of the spec.
fn listed(spec: &JsonValue, key: &str) -> BTreeMap<String, JsonValue> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string(),
                m.clone(),
            )
        })
        .collect()
}

fn str_of<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .expect("string field")
}

fn benchmark(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// Lines starting with `kind`, split into words after it.
fn lines<'a>(out: &'a str, kind: &str) -> Vec<Vec<&'a str>> {
    out.lines()
        .filter_map(|l| l.strip_prefix(kind))
        .filter_map(|l| l.strip_prefix(' '))
        .map(|l| l.split_whitespace().collect())
        .collect()
}

#[test]
fn run_prints_exactly_the_listed_metrics_and_checks_out() {
    let spec = spec();
    let e2e = listed(&spec, "end_to_end");
    let layers = listed(&spec, "per_layer");
    let workloads = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads");
    assert_eq!(workloads.len(), 4);
    for w in workloads {
        let name = str_of(w, "name");
        // One untraced and one traced repetition: two processes whose
        // exhibit digests must agree.
        let out = benchmark(&["run", "--workload", name, "--ms", "1", "--repeats", "1"]);

        let printed = lines(&out, "metric");
        assert_eq!(printed.len(), e2e.len(), "{name}:\n{out}");
        for words in &printed {
            let m = e2e
                .get(words[0])
                .unwrap_or_else(|| panic!("unlisted metric {}", words[0]));
            assert_eq!(words[1], str_of(m, "unit"), "{name} {}", words[0]);
            assert_eq!(words[2], format!("better={}", str_of(m, "better")));
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("bound");
            assert_eq!(words[3], format!("bound={bound}"));
        }

        let printed = lines(&out, "layer");
        assert_eq!(printed.len(), layers.len(), "{name}:\n{out}");
        for words in &printed {
            let m = layers
                .get(words[0])
                .unwrap_or_else(|| panic!("unlisted layer {}", words[0]));
            assert_eq!(words[1], str_of(m, "unit"), "{name} {}", words[0]);
            if words[0] == "stages.residual_frac" {
                let residual: f64 = words[2].parse().expect("number");
                assert!(residual <= 0.05, "{name}: residual {residual}");
            }
        }

        let ops = &lines(&out, "ops")[0];
        assert_eq!(ops[3], "0", "{name} failed operations:\n{out}");
        assert_eq!(ops[5], "0", "{name} failed_frac");
        assert_ne!(
            ops[7], "MISMATCH",
            "{name}: repetitions rendered different exhibits"
        );
        assert_eq!(ops[9], "yes", "{name}:\n{out}");
    }
}

#[test]
fn timed_runs_end_with_the_result_line() {
    let spec = spec();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = benchmark(&[
            "--workload",
            "storage-sweep",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--ms",
            "1",
        ]);
        let last = json::parse(out.lines().last().expect("output")).expect("JSON result line");
        let JsonValue::Object(fields) = &last else {
            panic!("result is not an object: {last:?}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&JsonValue::Bool(true)), "{out}");
        assert_eq!(last.get("failed").and_then(JsonValue::as_f64), Some(0.0));
        let Some(JsonValue::Object(metrics)) = last.get("metrics") else {
            panic!("metrics missing")
        };
        let listed = listed(&spec, key);
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = listed.keys().map(String::as_str).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, expected, "trace {trace}");
        for (name, m) in metrics {
            assert_eq!(str_of(m, "unit"), str_of(&listed[name], "unit"), "{name}");
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
        }
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            "no-such-workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
