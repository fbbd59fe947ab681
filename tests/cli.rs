//! End-user integration: drive the `elephant` CLI binary exactly as a
//! human would — train a model to a file, deploy it hybrid, compare, and
//! inspect a raw trace — asserting on the printed contracts.

use std::process::Command;

fn elephant() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elephant"))
}

fn run_ok(args: &[&str]) -> String {
    let out = elephant().args(args).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "elephant {args:?} failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    stdout
}

#[test]
fn cli_workflow_train_hybrid_compare() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.json");
    let model = model.to_str().unwrap();

    // Train (tiny budget; this is a plumbing test, not an accuracy test).
    let out = run_ok(&[
        "train",
        "--horizon-ms",
        "8",
        "--epochs",
        "1",
        "--hidden",
        "8",
        "--layers",
        "1",
        "--out",
        model,
    ]);
    assert!(
        out.contains("boundary records"),
        "training reported capture:\n{out}"
    );
    assert!(out.contains("drop accuracy"), "training reported metrics");
    let json = std::fs::read_to_string(model).expect("model file written");
    assert!(
        json.contains("macro_cfg"),
        "model JSON has expected structure"
    );

    // Hybrid deployment of that model.
    let out = run_ok(&[
        "hybrid",
        "--model",
        model,
        "--clusters",
        "4",
        "--horizon-ms",
        "5",
    ]);
    assert!(
        out.contains("oracle"),
        "hybrid exercised the oracle:\n{out}"
    );
    assert!(out.contains("flows"), "hybrid printed flow summary");

    // Side-by-side comparison table.
    let out = run_ok(&[
        "compare",
        "--model",
        model,
        "--clusters",
        "2",
        "--horizon-ms",
        "5",
    ]);
    assert!(out.contains("KS distance"), "compare printed KS:\n{out}");
    assert!(out.contains("p50"), "compare printed quantile table");
}

#[test]
fn cli_run_with_trace() {
    let out = run_ok(&[
        "run",
        "--clusters",
        "2",
        "--horizon-ms",
        "3",
        "--trace",
        "50",
    ]);
    assert!(out.contains("events"), "run summary printed:\n{out}");
    assert!(out.contains("tx_start"), "raw trace printed");
    assert!(
        out.contains("truncated"),
        "trace reports truncation beyond 50 events"
    );
}

/// `--trace-out` + `--sample-every` produce a Chrome-trace JSON with flow
/// and sampler tracks and a sibling samples CSV; `--pdes` adds per-
/// partition wall-clock tracks — the full three-track-type timeline.
#[test]
fn cli_trace_out_writes_perfetto_timeline() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("run.trace.json");
    let trace_s = trace.to_str().unwrap();

    let out = run_ok(&[
        "run",
        "--clusters",
        "2",
        "--horizon-ms",
        "4",
        "--pdes",
        "2",
        "--sample-every",
        "200",
        "--trace-out",
        trace_s,
    ]);
    assert!(out.contains("under PDES"), "PDES summary printed:\n{out}");
    assert!(out.contains("perfetto"), "timeline written:\n{out}");

    let json = std::fs::read_to_string(&trace).expect("timeline file written");
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""), "chrome-trace envelope");
    // All three track types: wall-clock partition slices, sim-time flow
    // spans, sim-time sampler counters.
    assert!(json.contains("pdes partitions (wall clock)"), "{out}");
    assert!(json.contains("flows & events (sim time)"));
    assert!(json.contains("samplers (sim time)"));
    assert!(json.contains("barrier_wait"), "per-epoch barrier slices");
    assert!(json.contains("queue_bytes"), "sampler counter track");

    let csv_path = format!("{}.samples.csv", trace_s.trim_end_matches(".json"));
    let csv = std::fs::read_to_string(&csv_path).expect("samples CSV written");
    assert!(csv.starts_with("time_us,queue_host_bytes"), "CSV header");
    assert!(csv.lines().count() > 2, "CSV has sample rows");
}

#[test]
fn cli_gru_training_works() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("gru.json");
    let model = model.to_str().unwrap();
    let out = run_ok(&[
        "train",
        "--horizon-ms",
        "6",
        "--epochs",
        "1",
        "--hidden",
        "8",
        "--layers",
        "1",
        "--gru",
        "--out",
        model,
    ]);
    assert!(out.contains("GRU"), "GRU trunk announced:\n{out}");
    let json = std::fs::read_to_string(model).unwrap();
    assert!(
        json.contains("Gru"),
        "serialized model records the trunk kind"
    );
}

#[test]
fn cli_rejects_bad_usage() {
    let out = elephant().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = elephant().args(["run", "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = elephant().args(["hybrid", "--model"]).output().unwrap(); // flag missing its value
    assert!(!out.status.success());
    // Out-of-range hybrid selections are usage errors, not panics.
    for bad in [
        &["hybrid", "--clusters", "2", "--full-cluster", "5"][..],
        &["hybrid", "--clusters", "1"],
    ] {
        let out = elephant().args(bad).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "elephant {bad:?}: {stderr}");
        assert!(stderr.contains("USAGE"), "usage printed: {stderr}");
    }
}

/// `audit FILE` is `run-scenario FILE --audit`: both spellings honor the
/// scenario's `[model]` section, so they audit the same cluster and print
/// the same fingerprint.
#[test]
fn cli_audit_spellings_agree() {
    let smoke = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/smoke.toml");
    let doc = std::fs::read_to_string(smoke).expect("committed scenario reads");
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("audit_cluster_1.toml");
    std::fs::write(
        &file,
        doc + "\n[model]\nfull_cluster = 1\ntrain_fallback = true\n",
    )
    .unwrap();
    let file = file.to_str().unwrap();

    let verdict_lines = |args: &[&str]| -> (String, String) {
        let out = elephant().args(args).output().expect("binary runs");
        assert!(
            matches!(out.status.code(), Some(0) | Some(8)),
            "audit must run to verdict:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = |needle: &str| {
            let found = stdout.lines().find(|l| l.contains(needle));
            found
                .unwrap_or_else(|| panic!("no `{needle}` line in:\n{stdout}"))
                .to_string()
        };
        (line("at packet fidelity"), line("fingerprint: "))
    };
    let direct = verdict_lines(&["audit", file, "--horizon-ms", "6"]);
    let flagged = verdict_lines(&["run-scenario", file, "--audit", "--horizon-ms", "6"]);
    assert!(direct.0.contains("cluster 1 at"), "{}", direct.0);
    assert_eq!(direct, flagged, "the two audit spellings disagree");
}

/// `hybrid` without `--model` falls back to capturing and training a small
/// model on the spot, so `--profile`/`--metrics-out` work standalone.
#[test]
fn cli_hybrid_without_model_trains_fallback() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("fallback_report.json");
    let report = report.to_str().unwrap();
    let out = run_ok(&[
        "hybrid",
        "--clusters",
        "2",
        "--horizon-ms",
        "5",
        "--metrics-out",
        report,
    ]);
    assert!(
        out.contains("default model"),
        "fallback training announced:\n{out}"
    );
    let json = std::fs::read_to_string(report).expect("metrics report written");
    assert!(
        json.contains("events_per_second") && json.contains("\"metrics\""),
        "report has run stats and a registry snapshot:\n{json}"
    );
}
