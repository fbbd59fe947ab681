//! Smoke test of the whole benchmark: runs `elephant-perf --quick` and
//! checks its output against `BENCHMARK.json`, so the two cannot drift.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Runs the binary from the repository root, as the driver does.
fn perf(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_elephant-perf"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn elephant-perf");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn parse(s: &str) -> Value {
    serde_json::from_str::<Value>(s).expect("valid JSON")
}

fn benchmark_json() -> Value {
    parse(&std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json"))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`"))
}

fn seq_of<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_seq)
        .unwrap_or_else(|| panic!("missing array `{key}`"))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn scenarios_pass_the_validator() {
    let (ok, out) = perf(&["validate"]);
    assert!(ok, "validate failed: {out}");
}

fn quick_suite_reports_every_metric_of_benchmark_json() {
    let spec = benchmark_json();
    let (ok, out) = perf(&["--quick", "--seed", "7"]);
    assert!(ok, "a check failed in the quick suite:\n{out}");
    let doc = parse(&out);
    let results = seq_of(&doc, "workloads");
    for w in seq_of(&spec, "workloads") {
        let name = str_of(w, "name");
        assert!(valid_name(name), "workload name `{name}`");
        let r = results
            .iter()
            .find(|r| str_of(r, "workload") == name)
            .unwrap_or_else(|| panic!("workload `{name}` missing from the result"));
        assert_eq!(r.get("correct"), Some(&Value::Bool(true)), "{name}");
        for (section, value_key) in [("end_to_end", "median"), ("per_layer", "value")] {
            for m in seq_of(&spec, section) {
                let metric = str_of(m, "name");
                assert!(valid_name(metric), "metric name `{metric}`");
                let got = r
                    .get(section)
                    .and_then(|s| s.get(metric))
                    .unwrap_or_else(|| panic!("{name}: {section} metric `{metric}` missing"));
                assert_eq!(str_of(got, "unit"), str_of(m, "unit"), "{name}/{metric}");
                let v = got.get(value_key).and_then(Value::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{name}/{metric}: {v:?}");
                if section == "end_to_end" {
                    assert!(v > Some(0.0), "{name}/{metric} must never be 0");
                }
            }
        }
    }
    for key in [
        "nproc",
        "load_1m",
        "noisy",
        "rustc",
        "git_commit",
        "seed",
        "calib_s",
    ] {
        assert!(
            doc.get("header").and_then(|h| h.get(key)).is_some(),
            "header.{key}"
        );
    }
}

fn driver_form_prints_the_contract_object_last() {
    let spec = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, out) = perf(&[
            "--workload",
            "full_rpc8",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--quick",
        ]);
        assert!(ok, "driver form failed:\n{out}");
        let last = parse(out.lines().last().expect("output"));
        let keys: Vec<&str> = last
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
        let metrics = last
            .get("metrics")
            .and_then(Value::as_map)
            .expect("metrics");
        let want: Vec<&str> = seq_of(&spec, section)
            .iter()
            .map(|m| str_of(m, "name"))
            .collect();
        let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            got, want,
            "--trace {trace} prints exactly the {section} metrics"
        );
    }
}

/// One test, in sequence: the parts share `benchmark/out/` and the machine's
/// two cores, so they must not run side by side.
#[test]
fn benchmark_smoke() {
    scenarios_pass_the_validator();
    quick_suite_reports_every_metric_of_benchmark_json();
    driver_form_prints_the_contract_object_last();
}
