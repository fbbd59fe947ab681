//! End-to-end tests for the declarative scenario subsystem: every
//! committed `scenarios/*.toml` must load and compile, runs must be
//! deterministic by (scenario, seed) on both drivers, and the
//! `run-scenario` CLI must honor its exit-code contract (6 with a
//! `file:line` diagnostic for schema/validation errors, 3 for I/O).

use std::path::{Path, PathBuf};
use std::process::Command;

use elephant::core::{capture_records, run_ground_truth, train_cluster_model, TrainingOptions};
use elephant::des::{EpochMode, SimTime};
use elephant::net::{ClosParams, NetConfig, RttScope};
use elephant::scenario::{
    compile, list_scenarios, load, run_fingerprint, sweep_cells, toml, CompileOverrides, Compiled,
    Scenario,
};
use elephant::trace::{generate, WorkloadConfig};

fn scenario_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn load_committed(name: &str) -> Scenario {
    let path = scenario_dir().join(name);
    load(&path.display().to_string()).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_scenario_loads_and_compiles() {
    let files = list_scenarios(&scenario_dir()).expect("scenarios/ is readable");
    assert!(
        files.len() >= 6,
        "expected the committed scenario library, found {} files",
        files.len()
    );
    for f in &files {
        let s = load(&f.display().to_string()).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        let c = compile(&s, &CompileOverrides::default());
        assert!(
            !c.flows.is_empty(),
            "{}: compiled to zero flows",
            f.display()
        );
        assert!(c.horizon.as_nanos() > 0, "{}: zero horizon", f.display());
    }
}

#[test]
fn sequential_runs_are_deterministic() {
    for name in ["incast.toml", "allreduce.toml"] {
        let s = load_committed(name);
        let c = compile(
            &s,
            &CompileOverrides {
                seed: Some(7),
                ..Default::default()
            },
        );
        let fp = |c: &Compiled| {
            let (net, _) = c.run_sequential(None);
            run_fingerprint([&net])
        };
        assert_eq!(fp(&c), fp(&c), "{name}: sequential fingerprint varies");
    }
}

#[test]
fn pdes_runs_are_deterministic() {
    for name in ["incast.toml", "allreduce.toml"] {
        let s = load_committed(name);
        let c = compile(
            &s,
            &CompileOverrides {
                seed: Some(7),
                ..Default::default()
            },
        );
        let fp = |c: &Compiled| {
            let run = c
                .run_pdes(None, EpochMode::Adaptive, None)
                .unwrap_or_else(|e| panic!("{name}: PDES run failed: {e}"));
            run_fingerprint(run.nets.iter())
        };
        assert_eq!(fp(&c), fp(&c), "{name}: PDES fingerprint varies");
    }
}

#[test]
fn compilation_is_a_pure_function_of_scenario_and_seed() {
    let s = load_committed("websearch_storage.toml");
    let over = CompileOverrides {
        seed: Some(123),
        ..Default::default()
    };
    let a = compile(&s, &over);
    let b = compile(&s, &over);
    assert_eq!(a.flows, b.flows);
    // A different seed must actually change the Poisson groups.
    let c = compile(
        &s,
        &CompileOverrides {
            seed: Some(124),
            ..Default::default()
        },
    );
    assert_ne!(a.flows, c.flows, "seed does not reach the workload");
}

/// Figure 1's two documents, the single thread and PDES, describe one
/// workload: each PDES cell compiles to the network and flows of the
/// single-thread cell of its size.
#[test]
fn figure1_documents_describe_one_workload() {
    let cells = |name: &str| -> Vec<Compiled> {
        let path = scenario_dir().join("figures").join(name);
        let doc = toml::parse(&std::fs::read_to_string(path).unwrap()).expect("parses");
        let cells = sweep_cells(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        let over = CompileOverrides::default();
        cells.iter().map(|c| compile(&c.scenario, &over)).collect()
    };
    let (single, pdes) = (cells("figure1.toml"), cells("figure1_pdes.toml"));
    assert_eq!((single.len(), pdes.len()), (5, 15));
    for s in &single {
        let size = s.params.racks_per_cluster;
        let same = pdes.iter().filter(|p| p.params.racks_per_cluster == size);
        let machines: Vec<usize> = same.clone().map(|p| p.machines).collect();
        assert_eq!(machines, [1, 2, 4], "size {size}");
        for p in same {
            assert_eq!(format!("{:?}", p.params), format!("{:?}", s.params));
            assert!(p.flows == s.flows, "size {size}: the flows differ");
        }
    }
}

// ---- CLI contract ------------------------------------------------------

fn elephant_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elephant"))
}

#[test]
fn cli_validates_every_committed_scenario() {
    for f in list_scenarios(&scenario_dir()).expect("scenarios/ is readable") {
        let out = elephant_cli()
            .args(["run-scenario", &f.display().to_string(), "--validate"])
            .output()
            .expect("spawns");
        assert!(
            out.status.success(),
            "{}: validate failed: {}",
            f.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("ok"),
            "{}: no ok line: {stdout}",
            f.display()
        );
    }
}

#[test]
fn cli_scenario_errors_exit_6_and_name_the_line() {
    let bad = std::env::temp_dir().join("elephant_bad_scenario.toml");
    std::fs::write(
        &bad,
        "schema = 1\n[scenario]\nname = \"bad\"\n[topology]\nclusters = 2\n\
         [run]\nhorizon_ms = 1.0\n[[traffic]]\nkind = \"poisson\"\nload = 1.5\n",
    )
    .expect("temp file writes");
    let out = elephant_cli()
        .args(["run-scenario", &bad.display().to_string()])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(6), "scenario errors exit 6");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("elephant_bad_scenario.toml:10"),
        "stderr names file:line of the bad load: {stderr}"
    );
    assert!(
        stderr.contains("load"),
        "stderr names the bad key: {stderr}"
    );
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn cli_missing_scenario_exits_3() {
    let out = elephant_cli()
        .args(["run-scenario", "definitely_missing_scenario.toml"])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(3), "missing files are I/O errors");
}

#[test]
fn cli_lists_the_committed_library() {
    let out = elephant_cli()
        .args([
            "run-scenario",
            "--list-scenarios",
            &scenario_dir().display().to_string(),
        ])
        .output()
        .expect("spawns");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["incast.toml", "allreduce.toml", "smoke.toml"] {
        assert!(stdout.contains(name), "listing misses {name}: {stdout}");
    }
    assert!(
        !stdout.contains("INVALID"),
        "committed file invalid: {stdout}"
    );
}

#[test]
fn cli_fingerprint_is_stable_across_invocations() {
    let path = scenario_dir().join("incast.toml").display().to_string();
    let fingerprint = |extra: &[&str]| -> String {
        let mut args = vec!["run-scenario", path.as_str(), "--seed", "7"];
        args.extend_from_slice(extra);
        let out = elephant_cli().args(&args).output().expect("spawns");
        assert!(
            out.status.success(),
            "run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("fingerprint: ").map(str::to_string))
            .unwrap_or_else(|| panic!("no fingerprint line in: {stdout}"))
    };
    assert_eq!(
        fingerprint(&[]),
        fingerprint(&[]),
        "sequential fingerprints differ across invocations"
    );
    assert_eq!(
        fingerprint(&["--pdes"]),
        fingerprint(&["--pdes"]),
        "PDES fingerprints differ across invocations"
    );
}

// ---- hybrid scenario runs ----------------------------------------------

/// Trains one small-but-real model artifact (memoized per process) so the
/// hybrid CLI tests bind a real checkpoint instead of re-training per run.
fn tiny_model_path() -> PathBuf {
    use std::sync::OnceLock;
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(12);
        let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 9));
        let cfg = NetConfig {
            rtt_scope: RttScope::None,
            ..Default::default()
        };
        let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
        let records = capture_records(net).expect("capture was enabled");
        let (model, _) = train_cluster_model(
            &records,
            &params,
            &TrainingOptions {
                hidden: 8,
                layers: 1,
                epochs: 2,
                ..Default::default()
            },
        );
        let dir = std::env::temp_dir().join("elephant_scenario_hybrid_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny-model.json");
        std::fs::write(&path, model.to_file_json()).unwrap();
        path
    })
    .clone()
}

fn cli_fingerprint_of(args: &[&str]) -> String {
    let out = elephant_cli().args(args).output().expect("spawns");
    assert!(
        out.status.success(),
        "run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("fingerprint: ").map(str::to_string))
        .unwrap_or_else(|| panic!("no fingerprint line in: {stdout}"))
}

/// Hybrid runs are a pure function of (scenario file, seed) on both the
/// sequential and the PDES drivers, through the whole CLI path — model
/// load, oracle/guard/cache assembly, supervision, fingerprint.
#[test]
fn cli_hybrid_scenario_fingerprint_is_stable() {
    let model = tiny_model_path().display().to_string();
    let path = scenario_dir()
        .join("hybrid_smoke.toml")
        .display()
        .to_string();
    let base = [
        "run-scenario",
        path.as_str(),
        "--model",
        model.as_str(),
        "--seed",
        "7",
    ];
    let seq = cli_fingerprint_of(&base);
    assert_eq!(
        seq,
        cli_fingerprint_of(&base),
        "sequential hybrid fingerprints differ across invocations"
    );
    let mut pdes_args = base.to_vec();
    pdes_args.push("--pdes");
    let pdes = cli_fingerprint_of(&pdes_args);
    assert_eq!(
        pdes,
        cli_fingerprint_of(&pdes_args),
        "PDES hybrid fingerprints differ across invocations"
    );
}

/// Binding the artifact through the `[model]` section and through the
/// `--model` flag are the same run, bit for bit.
#[test]
fn cli_hybrid_model_section_and_flag_are_bit_equal() {
    let model = tiny_model_path().display().to_string();
    // The committed scenario with its [model] path swapped for the test
    // artifact — everything else (seed, traffic, oracle, guard, recovery)
    // identical to what the --model invocation compiles.
    let committed = scenario_dir().join("hybrid_smoke.toml");
    let doc = std::fs::read_to_string(&committed).expect("committed scenario reads");
    assert!(doc.contains("path = \"models/hybrid-smoke.json\""));
    let doc = doc.replace(
        "path = \"models/hybrid-smoke.json\"",
        &format!("path = {model:?}"),
    );
    let tmp = std::env::temp_dir().join("elephant_hybrid_section_vs_flag.toml");
    std::fs::write(&tmp, doc).expect("temp scenario writes");
    let tmp = tmp.display().to_string();
    let committed = committed.display().to_string();

    let via_section = cli_fingerprint_of(&["run-scenario", tmp.as_str()]);
    let via_flag = cli_fingerprint_of(&[
        "run-scenario",
        committed.as_str(),
        "--model",
        model.as_str(),
    ]);
    assert_eq!(
        via_section, via_flag,
        "[model] section and --model flag runs diverge"
    );
    let _ = std::fs::remove_file(&tmp);
}

/// A minimal valid scenario body the `[model]` rejection tests extend.
const MODEL_TEST_BASE: &str = "schema = 1\n\
    [scenario]\n\
    name = \"model-errors\"\n\
    [topology]\n\
    clusters = 2\n\
    [run]\n\
    horizon_ms = 1.0\n\
    [[traffic]]\n\
    kind = \"poisson\"\n\
    load = 0.3\n";

/// Every malformed `[model]` section is a schema error: exit 6 with a
/// `file:line` diagnostic naming the offending key.
#[test]
fn cli_rejects_bad_model_sections() {
    for (i, (section, needle)) in [
        ("[model]\npaths = \"m.json\"\n", "unknown key `paths`"),
        ("[model]\npath = 7\n", "model.path"),
        ("[model]\nfull_cluster = 9\n", "out of range"),
        ("[oracle]\nfull_cluster = 1\n", "[model] full_cluster"),
    ]
    .iter()
    .enumerate()
    {
        let tmp = std::env::temp_dir().join(format!("elephant_bad_model_{i}.toml"));
        std::fs::write(&tmp, format!("{MODEL_TEST_BASE}{section}")).expect("temp writes");
        let out = elephant_cli()
            .args(["run-scenario", &tmp.display().to_string()])
            .output()
            .expect("spawns");
        assert_eq!(
            out.status.code(),
            Some(6),
            "bad [model] section must exit 6: {section}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "stderr misses `{needle}`: {stderr}"
        );
        assert!(
            stderr.contains(&format!("elephant_bad_model_{i}.toml:")),
            "stderr misses the file:line diagnostic: {stderr}"
        );
        let _ = std::fs::remove_file(&tmp);
    }
}

/// A `[model]` binding that names a missing artifact (without
/// `train_fallback`) or a corrupt one is a *scenario* error: exit 6
/// naming the binding's `file:line`, not the flag-path's bare exit 4.
#[test]
fn cli_model_artifact_errors_exit_6_with_scenario_context() {
    // Missing artifact, no fallback. The path key sits on line 12.
    let tmp = std::env::temp_dir().join("elephant_missing_model.toml");
    std::fs::write(
        &tmp,
        format!("{MODEL_TEST_BASE}[model]\npath = \"/nonexistent/elephant-no-such-model.json\"\n"),
    )
    .expect("temp writes");
    let out = elephant_cli()
        .args(["run-scenario", &tmp.display().to_string()])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(6), "missing artifact must exit 6");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("elephant_missing_model.toml:12"),
        "stderr names the binding's file:line: {stderr}"
    );
    assert!(
        stderr.contains("model artifact"),
        "stderr names the artifact: {stderr}"
    );
    let _ = std::fs::remove_file(&tmp);

    // Corrupt artifact: train_fallback covers only *absent* files, never
    // a checksum/parse failure.
    let bad_model = std::env::temp_dir().join("elephant_corrupt_model.json");
    std::fs::write(&bad_model, "{ not a model }").expect("temp writes");
    let tmp = std::env::temp_dir().join("elephant_corrupt_model.toml");
    std::fs::write(
        &tmp,
        format!(
            "{MODEL_TEST_BASE}[model]\npath = {:?}\ntrain_fallback = true\n",
            bad_model.display().to_string()
        ),
    )
    .expect("temp writes");
    let out = elephant_cli()
        .args(["run-scenario", &tmp.display().to_string()])
        .output()
        .expect("spawns");
    assert_eq!(out.status.code(), Some(6), "corrupt artifact must exit 6");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("elephant_corrupt_model.toml:12"),
        "stderr names the binding's file:line: {stderr}"
    );
    let _ = std::fs::remove_file(&tmp);
    let _ = std::fs::remove_file(&bad_model);
}
