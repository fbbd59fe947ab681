//! End-user integration: drive the `elephant` CLI binary exactly as a
//! human would — train a model to a file, deploy it hybrid, compare, and
//! inspect a raw trace — asserting on the printed contracts.

use std::process::Command;

use elephant::core::RunLedger;

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

/// A `[recovery]` scenario samples like any other run: the drill writes
/// its CSV with no note, and under `--pdes`, where the ladder restores
/// twice and restarts on the sequential rung, the same bytes.
#[test]
fn cli_supervised_run_writes_its_samples() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = |engine: &[&str]| {
        let path = dir.join(format!("drill{}.samples.csv", engine.concat()));
        let path = path.to_str().unwrap();
        let args = ["run-scenario", "scenarios/recovery_drill.toml"];
        let sampled = ["--sample-every", "100", "--samples-out", path];
        let out = run_ok(&[&args[..], engine, &sampled].concat());
        assert!(out.contains("recovery: "), "supervised:\n{out}");
        assert!(!out.contains("sampling"), "no sampling note:\n{out}");
        assert!(out.contains(&format!("wrote {path} (")), "{out}");
        (
            out,
            std::fs::read_to_string(path).expect("samples CSV written"),
        )
    };
    let (_, sequential) = csv(&[]);
    assert!(
        sequential.starts_with("time_us,queue_host_bytes"),
        "CSV header"
    );
    assert!(sequential.lines().count() > 2, "CSV has sample rows");
    let (out, pdes) = csv(&["--pdes"]);
    assert!(out.contains("restores=2 degradations=2"), "{out}");
    assert_eq!(pdes, sequential);
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
    // A flag's value meets the scenario decoder's rules, and a flag the
    // command does not read is not silently dropped: exit 2, the first
    // line of stderr naming the flag (the last flag of each row). An
    // audit is a pair of runs, so `--profile`, which names one, is
    // refused there too.
    const INCAST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/incast.toml");
    const HYBRID_SMOKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/hybrid_smoke.toml");
    for bad in [
        &["run", "--clusters", "0"][..],
        &["run", "--load", "0"],
        &["run", "--load", "1"],
        &["run", "--load", "-1"],
        &["run", "--pdes", "0"],
        &["run-scenario", INCAST, "--partitions", "0"],
        &["run", "--pdes", "2", "--machines", "0"],
        &["run-scenario", INCAST, "--sample-every", "0"],
        &["hybrid", "--guard-ceiling-ms", "-1"],
        &["run", "--clusters", "2", "--pdes", "99"],
        &["run-scenario", INCAST, "--partitions", "999"],
        &["hybrid", "--guard-trip-limit", "0"],
        &["hybrid", "--guard-tolerance", "5"],
        &["hybrid", "--oracle-cache", "--oracle-cache-cap", "0"],
        &["run", "--horizon-ms", "0"],
        &["run-scenario", INCAST, "--horizon-ms", "0"],
        &["train", "--pdes", "2"],
        &["run", "--model", "nope.json"],
        &["run", "--full-cluster", "9"],
        &["run", "--hidden", "8"],
        &["hybrid", "--out", "x.json"],
        &["train", "--clusters", "8"],
        &["train", "--gru"],
        &["compare", "a.json", "b.json", "--tolerance", "nan"],
        &["compare", "a.json", "b.json", "--tolerance", "-1"],
        &["compare", "a.json", "b.json", "--tolerance", "inf"],
        &["run-scenario", HYBRID_SMOKE, "--profile", "--audit"],
        &["run-scenario", HYBRID_SMOKE, "--audit", "--profile"],
    ] {
        let out = elephant().args(bad).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "elephant {bad:?}: {stderr}");
        let flag = bad.iter().rfind(|a| a.starts_with("--")).unwrap();
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(flag), "{bad:?} names {flag}: {first}");
        assert!(stderr.contains("USAGE"), "usage printed: {stderr}");
    }
}

/// `--validate` runs nothing, so a sink flag beside it would write
/// nothing: each one is a usage error naming itself (exit 2, no file
/// written), on a plain scenario and on a sweep alike, while `--validate`
/// alone still passes.
#[test]
fn cli_validate_refuses_the_sinks_it_would_ignore() {
    const SMOKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/smoke.toml");
    const FIGURE5: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/figures/figure5.toml"
    );
    let dir = std::env::temp_dir().join("elephant_cli_validate_sinks");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("never_written");
    let _ = std::fs::remove_file(&out_path);
    let p = out_path.to_str().unwrap();
    for file in [SMOKE, FIGURE5] {
        let ok = elephant()
            .args(["run-scenario", file, "--validate"])
            .output()
            .unwrap();
        assert_eq!(ok.status.code(), Some(0), "{file} validates");
        for sink in [
            &["--profile"][..],
            &["--metrics-out", p],
            &["--samples-out", p],
            &["--csv", p],
        ] {
            for flags in [
                [&["--validate"][..], sink].concat(),
                [sink, &["--validate"][..]].concat(),
            ] {
                let out = elephant()
                    .args(["run-scenario", file])
                    .args(&flags)
                    .output()
                    .unwrap();
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
                let first = stderr.lines().next().unwrap_or("");
                assert!(
                    first.contains(sink[0]),
                    "{flags:?} names {}: {first}",
                    sink[0]
                );
                assert!(first.contains("--validate"), "{flags:?}: {first}");
                assert!(!out_path.exists(), "{flags:?} wrote {p}");
            }
        }
    }
}

/// The positional arguments that select each of the seven subcommands.
const COMMANDS: [&[&str]; 7] = [
    &["run"],
    &["train"],
    &["hybrid"],
    &["compare"],
    &["compare", "A.json", "B.json"],
    &["run-scenario", "FILE"],
    &["audit", "FILE"],
];

/// `elephant <cmd> --help` is generated from the same table the parser
/// reads: every flag a command's help lists is accepted by that command,
/// and every flag only other commands list exits 2 — help, accept set
/// and parser cannot drift. (`--help` ends a command line before anything
/// runs, so acceptance is probed as `<cmd> --flag VALUE --help`.)
#[test]
fn cli_help_lists_exactly_the_flags_each_command_accepts() {
    let top = elephant().arg("--help").output().unwrap();
    assert_eq!(top.status.code(), Some(0), "top-level help succeeds");
    assert!(String::from_utf8_lossy(&top.stdout).contains("USAGE"));

    // (flag, placeholder of its value) per command, read off the help.
    let listed: Vec<Vec<(String, String)>> = COMMANDS
        .iter()
        .map(|cmd| {
            let out = elephant().args(*cmd).arg("--help").output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{cmd:?} --help succeeds");
            assert!(out.stderr.is_empty(), "help goes to stdout");
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(stdout.contains("USAGE"), "{cmd:?}: {stdout}");
            let flags = stdout.lines().filter(|l| l.starts_with("  --"));
            flags
                .map(|l| {
                    let mut head = l[..l.len().min(26)].split_whitespace();
                    let flag = head.next().unwrap().to_string();
                    (flag, head.next().unwrap_or("").to_string())
                })
                .collect()
        })
        .collect();
    let mut all: Vec<&(String, String)> = listed.iter().flatten().collect();
    all.sort();
    all.dedup_by_key(|(flag, _)| flag);
    assert!(all.len() >= 37, "every flag is listed somewhere: {all:?}");

    for (cmd, own) in COMMANDS.iter().zip(&listed) {
        for (flag, _) in &all {
            // The command's own placeholder: `--pdes` takes a count on
            // `run` and none on `run-scenario`.
            let own = own.iter().find(|(f, _)| f == flag);
            let value = match own.map_or("", |(_, metavar)| metavar.as_str()) {
                "" | "[DIR]" => None,
                "F" => Some("0.5"),
                "MODE" => Some("nan"),
                "N" | "M" | "T" => Some("1"),
                _ => Some("x"),
            };
            let mut probe = elephant();
            probe.args(*cmd).arg(flag).args(value).arg("--help");
            let out = probe.output().unwrap();
            let want = if own.is_some() { 0 } else { 2 };
            assert_eq!(
                out.status.code(),
                Some(want),
                "{cmd:?} {flag}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

/// A run is identified by its configuration, not by how it was spelled:
/// `run` flags and the equivalent scenario file print the same
/// fingerprint, and the same out-of-range value is rejected by the same
/// rule whether it sits in the file or arrives as a flag.
#[test]
fn cli_flag_spelling_equals_file_spelling() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, dctcp: bool, pdes: &str| {
        let file = dir.join(name);
        let doc = format!(
            "schema = 1\n[scenario]\nname = \"spelled\"\n[topology]\nclusters = 4\n{pdes}\
             [run]\nhorizon_ms = 5\nseed = 42\ndctcp = {dctcp}\n\
             [[traffic]]\nkind = \"poisson\"\nload = 0.3\n"
        );
        std::fs::write(&file, doc).unwrap();
        file.to_str().unwrap().to_string()
    };
    let fingerprint = |args: &[&str]| {
        let out = run_ok(args);
        let line = out.lines().find(|l| l.contains("fingerprint: "));
        line.unwrap_or_else(|| panic!("no fingerprint in:\n{out}"))
            .trim()
            .to_string()
    };
    let flags = ["run", "--clusters", "4", "--horizon-ms", "5"];
    let plain = write("spelled.toml", false, "");
    assert_eq!(
        fingerprint(&flags),
        fingerprint(&["run-scenario", &plain]),
        "sequential"
    );
    let pdes = write(
        "spelled_pdes.toml",
        false,
        "[topology.pdes]\npartitions = 2\n",
    );
    let by_flag = fingerprint(&[&flags[..], &["--pdes", "2"]].concat());
    assert_eq!(by_flag, fingerprint(&["run-scenario", &pdes, "--pdes"]));
    assert_eq!(
        by_flag,
        fingerprint(&["run-scenario", &plain, "--partitions", "2"])
    );
    let dctcp = write("spelled_dctcp.toml", true, "");
    assert_eq!(
        fingerprint(&[&flags[..], &["--dctcp"]].concat()),
        fingerprint(&["run-scenario", &dctcp]),
        "DCTCP"
    );

    // One rule, two exits: 6 with file:line for the file, 2 naming the
    // flag for the flag.
    let over = write(
        "spelled_over.toml",
        false,
        "[topology.pdes]\npartitions = 99\n",
    );
    let rule = "99 partitions but the topology only has 8 racks";
    for (args, code, names) in [
        (&["run-scenario", over.as_str()][..], 6, "spelled_over.toml"),
        (
            &["run-scenario", &plain, "--partitions", "99"],
            2,
            "--partitions",
        ),
        (&["run", "--pdes", "99"], 2, "--pdes"),
    ] {
        let out = elephant().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or("");
        assert!(first.contains(rule) && first.contains(names), "{first}");
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

/// `compare --model` scores the next seed's workload, and seeds the oracle
/// and its ledger from that seed too: the hybrid it seals is the one
/// `hybrid` runs at that seed.
#[test]
fn cli_compare_runs_the_hybrid_of_the_next_seed() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("compare_model.json");
    let model = model.to_str().unwrap();
    let tiny = [
        "--horizon-ms",
        "8",
        "--epochs",
        "1",
        "--hidden",
        "8",
        "--layers",
        "1",
    ];
    run_ok(&[&["train"][..], &tiny, &["--out", model]].concat());
    let ledger = dir.join("compare_seed6.json");
    let shape = ["--model", model, "--clusters", "2", "--horizon-ms", "5"];
    let extra = ["--seed", "6", "--metrics-out", ledger.to_str().unwrap()];
    run_ok(&[&["compare"][..], &shape, &extra].concat());
    let sealed = elephant::core::RunLedger::load(&ledger).expect("ledger validates");
    assert_eq!(sealed.seed, 7);
    let out = run_ok(&[&["hybrid"][..], &shape, &["--seed", "7"]].concat());
    assert!(
        out.contains(&format!("fingerprint: {:#018x}", sealed.fingerprint)),
        "compare sealed {:#018x}, hybrid --seed 7 printed:\n{out}",
        sealed.fingerprint
    );
}

const FIGURE5: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/scenarios/figures/figure5.toml"
);

/// A `[[sweep]]` file writes one CSV row per cell and fidelity, headed by
/// the command that made it; a flag naming one run's artifact or editing
/// a swept key is a usage error on a sweep, and so is `--csv` on a file
/// without one.
#[test]
fn cli_sweep_writes_a_row_per_cell_and_fidelity() {
    let dir = std::env::temp_dir().join("elephant_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("figure5.csv");
    let csv = csv.to_str().unwrap();
    let out = run_ok(&["run-scenario", FIGURE5, "--horizon-ms", "2", "--csv", csv]);
    assert!(out.contains("fingerprint: "), "{out}");
    let text = std::fs::read_to_string(csv).expect("CSV written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with("# elephant run-scenario "),
        "{}",
        lines[0]
    );
    let head = "topology.clusters,fidelity,flows,events,wall_s,sim_s,fingerprint,";
    assert!(lines[1].starts_with(head), "{}", lines[1]);
    assert!(lines[1].ends_with(",speedup_vs_full"), "{}", lines[1]);
    let fidelity: Vec<&str> = lines[2..]
        .iter()
        .map(|l| l.split(',').nth(1).unwrap())
        .collect();
    assert_eq!(fidelity, ["full", "hybrid"].repeat(4), "2 x 4 cells");

    const INCAST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/incast.toml");
    const HYBRID_PDES: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/figures/hybrid_pdes.toml"
    );
    let ledger = dir.join("sweep.json");
    // The model is resolved once, from the base document: an axis over
    // it is a file error at the axis's line.
    let model_axis = dir.join("model_axis.toml");
    let text = std::fs::read_to_string(FIGURE5).unwrap()
        + "[[sweep]]\nkeys = [\"model.path\"]\nvalues = [\"a.json\", \"b.json\"]\n";
    std::fs::write(&model_axis, text).unwrap();
    for (bad, names, code) in [
        (
            &["run-scenario", model_axis.to_str().unwrap()][..],
            "`model.path` cannot be swept",
            6,
        ),
        // A flag edit of a swept key would be overwritten in every cell.
        (
            &["run-scenario", HYBRID_PDES, "--partitions", "4"][..],
            "--partitions",
            2,
        ),
        (
            &[
                "run-scenario",
                FIGURE5,
                "--metrics-out",
                ledger.to_str().unwrap(),
            ][..],
            "--metrics-out",
            2,
        ),
        (&["run-scenario", INCAST, "--csv", csv], "--csv", 2),
    ] {
        let out = elephant().args(bad).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "elephant {bad:?}: {stderr}");
        assert!(
            stderr.lines().next().unwrap_or("").contains(names),
            "{stderr}"
        );
    }
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
        "report has run stats and metric rows:\n{json}"
    );
}

/// A report describes the run it names and nothing else that ran in the
/// process: `hybrid` without `--model` first captures a ground truth and
/// trains a model on it, and neither shows in the hybrid run's
/// `--profile` table or its `--metrics-out` ledger, whose phase clocks
/// are that run's `setup` and `run`, once each.
#[test]
fn cli_report_counts_only_its_own_run() {
    let dir = std::env::temp_dir().join("elephant_cli_own_run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hybrid.json");
    let out = run_ok(&[
        "hybrid",
        "--clusters",
        "2",
        "--horizon-ms",
        "4",
        "--profile",
        "--metrics-out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.contains("default model"),
        "the fallback ran first:\n{out}"
    );
    let (_, table) = out
        .split_once("-- profile --\n")
        .expect("profile table printed");
    let rows = table.lines().skip(1).take_while(|l| !l.trim().is_empty());
    let phases: Vec<&str> = rows.filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(phases, ["setup", "run"], "printed report:\n{out}");

    let ledger = RunLedger::load(&path).expect("ledger sealed");
    let report = &ledger.report;
    let phases: Vec<(&str, u64)> = report
        .profile
        .iter()
        .map(|p| (p.path.as_str(), p.count))
        .collect();
    assert_eq!(phases, [("setup", 1), ("run", 1)], "ledger profile");
    assert_eq!(
        report.profile[1].seconds, report.wall_seconds,
        "the run clock is the run's wall"
    );
}
