//! The sealed run ledger is a record of *the run it names*: its metric
//! rows, its partition rows and its header are all read from the one
//! finished run, whatever else ran in the process before it. Each test
//! drives the CLI and inspects the artifact `--metrics-out` wrote.

use std::collections::BTreeSet;
use std::process::Command;

use elephant::core::{compare_ledgers, RunLedger, OUTCOME_COUNTERS};
use elephant::obs::MetricRow;

/// Runs `elephant ARGS --metrics-out <tmp>/<name>.json`; returns stdout and
/// the ledger.
fn sealed(name: &str, args: &[&str]) -> (String, RunLedger) {
    let dir = std::env::temp_dir().join("elephant_ledger_rows");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_elephant"))
        .args(args)
        .args(["--metrics-out", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "elephant {args:?} failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (stdout, RunLedger::load(&path).expect("a sealed ledger"))
}

fn counter(ledger: &RunLedger, name: &str, label: &str) -> u64 {
    let mut rows = ledger.report.metrics.iter();
    rows.find(|m| m.name == name && m.label == label)
        .map_or(0, |m| m.count)
}

/// The connection tables' high-water mark the ledger sealed.
fn conns_peak(ledger: &RunLedger) -> f64 {
    let mut rows = ledger.report.metrics.iter();
    let row = rows.find(|m| m.name == "net/tcp/conns_peak" && m.kind == "gauge");
    row.expect("a conns_peak row").value
}

/// The counter rows under `prefix`, as comparable tuples.
fn counters_under(ledger: &RunLedger, prefix: &str) -> Vec<(String, String, u64)> {
    let rows = ledger.report.metrics.iter();
    rows.filter(|m| m.kind == "counter" && m.name.starts_with(prefix))
        .map(|m| (m.name.clone(), m.label.clone(), m.count))
        .collect()
}

/// The numbers on the summary's `drops     : T (host H, ..., oracle O)` line.
fn drops_line(stdout: &str) -> (u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("drops"))
        .expect("a drops line");
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|t| t.parse().ok())
        .collect();
    (nums[0], *nums.last().unwrap())
}

/// Without `--model` the quick-train fallback runs a capture simulation in
/// the same process first. The ledger must count the hybrid run only.
#[test]
fn ledger_counts_the_run_it_names() {
    let (stdout, ledger) = sealed(
        "hybrid_quick",
        &[
            "hybrid",
            "--clusters",
            "4",
            "--horizon-ms",
            "5",
            "--oracle-cache",
        ],
    );
    assert!(stdout.contains("default model"), "{stdout}");
    assert_eq!(
        counter(&ledger, "des/kernel/events_executed", ""),
        ledger.report.events,
        "kernel row vs header"
    );
    let (total, oracle) = drops_line(&stdout);
    let port_drops: u64 = ["host", "tor", "agg", "core"]
        .iter()
        .map(|t| counter(&ledger, "net/port/drops", t))
        .sum();
    assert_eq!(port_drops, total - oracle, "{stdout}");
    assert!(
        counters_under(&ledger, "train/").is_empty(),
        "the fallback's training is not this run"
    );
}

/// `recovery_drill --pdes` stalls, restores twice and finishes on the
/// sequential rung; abandoned attempts must leave no trace in what the
/// artifact says was simulated.
#[test]
fn recovered_ledger_equals_clean_ledger() {
    let file = "scenarios/recovery_drill.toml";
    let (stdout, recovered) = sealed("drill_pdes", &["run-scenario", file, "--pdes"]);
    assert!(stdout.contains("restores=2"), "{stdout}");
    let (_, clean) = sealed("drill_seq", &["run-scenario", file]);
    assert_eq!(recovered.fingerprint, clean.fingerprint);
    assert_eq!(
        counters_under(&recovered, "net/"),
        counters_under(&clean, "net/")
    );
    assert_eq!(
        counters_under(&recovered, "des/kernel/events_executed"),
        counters_under(&clean, "des/kernel/events_executed")
    );
    assert_eq!(counter(&recovered, "recovery/restores", "stalled"), 2);
    assert_eq!(conns_peak(&recovered), conns_peak(&clean));
    let breaches = compare_ledgers(&recovered, &clean, 0.05);
    assert!(breaches.is_empty(), "{breaches:?}");
}

/// The recovery drill on the hybrid engine: a stall under hybrid PDES walks
/// the ladder down to the sequential rung, whose oracle stack is built
/// anew. The clean side is the same file run sequentially.
const HYBRID_DRILL: &str = r#"schema = 1
[scenario]
name = "hybrid-recovery-drill"
[topology]
clusters = 4
[topology.pdes]
machines = 2
[run]
horizon_ms = 12.0
seed = 42
[[traffic]]
kind = "poisson"
name = "web-search"
load = 0.3
[model]
train_fallback = true
[oracle]
cache = true
[faults]
seed = 7
stall_partition = { partition = 1, after_epochs = 40 }
[recovery]
enabled = true
checkpoint_every_ms = 4.0
max_retries = 1
"#;

/// A recovered hybrid run agrees with a clean one on everything it seals.
/// The guard's and the cache's counters are the one part of a run's numbers
/// a restore does not rewind (their handles are shared by every clone of
/// the oracle stack), so a supervised run seals none of them.
#[test]
fn recovered_hybrid_ledger_equals_clean_ledger() {
    let dir = std::env::temp_dir().join("elephant_ledger_rows");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("hybrid_drill.toml");
    std::fs::write(&file, HYBRID_DRILL).unwrap();
    let file = file.to_str().unwrap();
    let (stdout, recovered) = sealed("hdrill_pdes", &["run-scenario", file, "--pdes"]);
    assert!(stdout.contains("restores=2"), "{stdout}");
    let (_, clean) = sealed("hdrill_seq", &["run-scenario", file]);
    assert_eq!(recovered.driver, "hybrid-supervised");
    assert_eq!(recovered.driver, clean.driver);
    assert_eq!(recovered.fingerprint, clean.fingerprint);
    assert!(counter(&clean, "hybrid/oracle/elided_packets", "") > 0);
    for prefix in ["hybrid/", "net/", "des/"] {
        assert_eq!(
            counters_under(&recovered, prefix),
            counters_under(&clean, prefix),
            "{prefix}"
        );
    }
    assert_eq!(conns_peak(&recovered), conns_peak(&clean));
    for ledger in [&recovered, &clean] {
        assert!(counters_under(ledger, "hybrid/guard/").is_empty());
        assert!(counters_under(ledger, "hybrid/cache/").is_empty());
    }
    let breaches = compare_ledgers(&recovered, &clean, 0.05);
    assert!(breaches.is_empty(), "{breaches:?}");
}

/// One simulation split two ways and four ways ends in one fingerprint, so
/// `compare` must find nothing — though the two differ on every row that
/// says how the engine got there, `net/port/enqueued` among them (which of
/// two same-instant events runs first decides whether a packet waits).
#[test]
fn partitioning_is_not_a_breach() {
    let run = ["run", "--clusters", "4", "--horizon-ms", "5", "--pdes"];
    let (_, two) = sealed("pdes2_of_4", &[&run[..], &["2"]].concat());
    let (_, four) = sealed("pdes4_of_4", &[&run[..], &["4"]].concat());
    assert_eq!((&two.driver, &two.mode), (&four.driver, &four.mode));
    assert_eq!(two.fingerprint, four.fingerprint);
    assert_eq!(four.report.partitions.len(), 4);
    for name in OUTCOME_COUNTERS {
        assert_eq!(
            counters_under(&two, name),
            counters_under(&four, name),
            "{name}"
        );
    }
    let breaches = compare_ledgers(&two, &four, 0.05);
    assert!(breaches.is_empty(), "{breaches:?}");
}

#[test]
fn pdes_ledger_carries_its_partitions() {
    let (_, ledger) = sealed(
        "run_pdes2",
        &["run", "--clusters", "2", "--horizon-ms", "5", "--pdes", "2"],
    );
    let parts = &ledger.report.partitions;
    assert_eq!(parts.len(), 2);
    assert_eq!(
        parts.iter().map(|p| p.events).sum::<u64>(),
        ledger.report.events
    );
    assert!(parts.iter().any(|p| p.barrier_wait_seconds > 0.0));
    assert!(parts.iter().all(|p| p.remote_events_sent > 0));
}

/// `train`'s rows keep the meaning they were sealed with: one loss sample
/// and one samples increment per epoch per direction (values: the parent's).
#[test]
fn train_rows_count_every_epoch() {
    let model = std::env::temp_dir().join("elephant_ledger_rows_model.json");
    let (_, ledger) = sealed(
        "train",
        &[
            "train",
            "--horizon-ms",
            "30",
            "--epochs",
            "2",
            "--hidden",
            "8",
            "--layers",
            "1",
            "--out",
            model.to_str().unwrap(),
        ],
    );
    assert_eq!(counter(&ledger, "train/epoch/loss", ""), 4);
    assert_eq!(counter(&ledger, "train/epoch/samples", ""), 158_896);
    let sealed = keys(&ledger.report.metrics);
    for key in MACRO_ROWS {
        assert!(sealed.contains(&key), "missing {key:?}");
    }
}

/// The rows a calibrated model's training seals: the deployed regime's
/// agreement with the truth-fed one, and the truth-fed regime's occupancy.
const MACRO_ROWS: [Key; 5] = [
    ("train/eval/macro_agreement", "", "gauge"),
    ("train/eval/macro_occupancy", "decreasing", "counter"),
    ("train/eval/macro_occupancy", "high", "counter"),
    ("train/eval/macro_occupancy", "increasing", "counter"),
    ("train/eval/macro_occupancy", "minimal", "counter"),
];

/// A `macro_state = false` model pins the regime, so there is no agreement
/// or occupancy to measure: its training ledger has none of those rows (a
/// calibrated model's has, above), and the run says why.
#[test]
fn a_pinned_regime_seals_no_macro_agreement() {
    let file = std::env::temp_dir().join("elephant_pinned.toml");
    let model = file.with_extension("json");
    let doc = "schema = 1\n[scenario]\nname = \"pinned\"\n[topology]\nclusters = 2\n\
               [run]\nhorizon_ms = 2\n[[traffic]]\nkind = \"poisson\"\nload = 0.3\n\
               [train]\nhidden = 8\nlayers = 1\nepochs = 1\nmacro_state = false\n";
    std::fs::write(&file, doc).unwrap();
    let (file, model) = (file.to_str().unwrap(), model.to_str().unwrap());
    let (stdout, ledger) = sealed("pinned", &["run-scenario", file, "--out", model]);
    assert!(stdout.contains("pinned (macro_state = false)"), "{stdout}");
    let sealed = keys(&ledger.report.metrics);
    assert!(MACRO_ROWS.iter().all(|key| !sealed.contains(key)));
}

/// A probabilistic fault plan that never fired is flagged in the artifact,
/// as it is on stderr.
#[test]
fn idle_fault_plan_is_sealed() {
    let drill = ["run-scenario", "scenarios/fault_drill.toml", "--pdes"];
    let (_, idle) = sealed(
        "fault_idle",
        &[&drill[..], &["--horizon-ms", "0.01"]].concat(),
    );
    assert_eq!(counter(&idle, "fault/zero_injected", ""), 1);
    assert!(counters_under(&idle, "fault/d").is_empty());
}

type Key = (&'static str, &'static str, &'static str);

fn keys(rows: &[MetricRow]) -> BTreeSet<(&str, &str, &str)> {
    rows.iter()
        .map(|m| (m.name.as_str(), m.label.as_str(), m.kind.as_str()))
        .collect()
}

/// Every row of `run --clusters 2 --horizon-ms 5` (seed 42), with the
/// counter values the pre-refactor registry sealed for it.
const SEQUENTIAL: [(Key, u64); 21] = [
    (("des/kernel/events_executed", "", "counter"), 109_742),
    (("des/kernel/fel_bytes_peak", "", "gauge"), 0),
    (("des/kernel/heap_depth_peak", "", "gauge"), 0),
    (("mem/bytes", "conn_table", "gauge"), 0),
    (("mem/bytes", "fct_records", "gauge"), 0),
    (("mem/bytes", "flow_list", "gauge"), 0),
    (("mem/bytes", "packet_store", "gauge"), 0),
    (("mem/bytes", "ports", "gauge"), 0),
    (("mem/bytes", "rtt_samples", "gauge"), 0),
    (("mem/bytes_per_host", "", "gauge"), 0),
    (("mem/packet_store/slots", "", "gauge"), 0),
    (("mem/peak_rss_bytes", "", "gauge"), 0),
    (("net/port/drops", "agg", "counter"), 118),
    (("net/port/drops", "host", "counter"), 205),
    (("net/port/enqueued", "agg", "counter"), 9_191),
    (("net/port/enqueued", "core", "counter"), 2_423),
    (("net/port/enqueued", "host", "counter"), 6_590),
    (("net/port/enqueued", "tor", "counter"), 12_623),
    (("net/tcp/conns_peak", "", "gauge"), 0),
    (("net/tcp/fast_retransmits", "", "counter"), 7),
    (("net/tcp/retransmitted_segments", "", "counter"), 134),
];

/// The same run under `--pdes 2` (whose partitions keep no RTT samples).
const PDES2: [(Key, u64); 26] = [
    (("mem/bytes", "conn_table", "gauge"), 0),
    (("mem/bytes", "fct_records", "gauge"), 0),
    (("mem/bytes", "flow_list", "gauge"), 0),
    (("mem/bytes", "packet_store", "gauge"), 0),
    (("mem/bytes", "ports", "gauge"), 0),
    (("mem/bytes_per_host", "", "gauge"), 0),
    (("mem/packet_store/slots", "", "gauge"), 0),
    (("mem/peak_rss_bytes", "", "gauge"), 0),
    (("net/port/drops", "agg", "counter"), 118),
    (("net/port/drops", "host", "counter"), 205),
    (("net/port/enqueued", "agg", "counter"), 5_516),
    (("net/port/enqueued", "core", "counter"), 326),
    (("net/port/enqueued", "host", "counter"), 6_590),
    (("net/port/enqueued", "tor", "counter"), 9_940),
    (("net/tcp/conns_peak", "", "gauge"), 0),
    (("net/tcp/fast_retransmits", "", "counter"), 7),
    (("net/tcp/retransmitted_segments", "", "counter"), 134),
    (("pdes/epoch/jumped", "", "counter"), 3_206),
    (("pdes/epoch/planned", "", "counter"), 4_086),
    (("pdes/partition/events", "0", "counter"), 55_681),
    (("pdes/partition/events", "1", "counter"), 54_061),
    (("pdes/partition/fel_bytes_peak", "0", "gauge"), 0),
    (("pdes/partition/fel_bytes_peak", "1", "gauge"), 0),
    (("pdes/partition/remote_messages", "0", "counter"), 8_296),
    (("pdes/partition/remote_messages", "1", "counter"), 8_868),
    (("pdes/remote/messages", "", "counter"), 17_164),
];

/// What a guarded, cached hybrid run may seal, and (`true`) what it always
/// does: regime occupancy and the drop rows depend on the model's verdicts,
/// ECN marks on the congestion control.
const HYBRID: [(Key, bool); 46] = [
    (("des/kernel/events_executed", "", "counter"), true),
    (("des/kernel/fel_bytes_peak", "", "gauge"), true),
    (("des/kernel/heap_depth_peak", "", "gauge"), true),
    (("hybrid/cache/evictions", "", "counter"), false),
    (("hybrid/cache/hits", "", "counter"), true),
    (("hybrid/cache/invalidations", "", "counter"), false),
    (("hybrid/cache/misses", "", "counter"), true),
    (("hybrid/guard/fallback_active", "", "gauge"), false),
    (("hybrid/guard/fallback_verdicts", "", "counter"), false),
    (("hybrid/guard/trips", "ceiling", "counter"), false),
    (("hybrid/guard/trips", "drop_drift", "counter"), false),
    (("hybrid/guard/trips", "negative", "counter"), false),
    (("hybrid/guard/trips", "non_finite", "counter"), false),
    (("hybrid/guard/verdicts", "", "counter"), true),
    (("hybrid/macro/occupancy", "decreasing", "counter"), false),
    (("hybrid/macro/occupancy", "high", "counter"), false),
    (("hybrid/macro/occupancy", "increasing", "counter"), false),
    (("hybrid/macro/occupancy", "minimal", "counter"), true),
    (("hybrid/oracle/drops", "", "counter"), false),
    (("hybrid/oracle/elided_packets", "", "counter"), true),
    (("hybrid/oracle/infer_seconds", "", "histogram"), true),
    (("mem/bytes", "conn_table", "gauge"), true),
    (("mem/bytes", "fct_records", "gauge"), false),
    (("mem/bytes", "flow_list", "gauge"), true),
    (("mem/bytes", "packet_store", "gauge"), true),
    (("mem/bytes", "ports", "gauge"), true),
    (("mem/bytes", "rtt_samples", "gauge"), false),
    (("mem/bytes_per_host", "", "gauge"), true),
    (("mem/packet_store/slots", "", "gauge"), true),
    (("mem/peak_rss_bytes", "", "gauge"), false),
    (("net/port/drops", "agg", "counter"), false),
    (("net/port/drops", "core", "counter"), false),
    (("net/port/drops", "host", "counter"), false),
    (("net/port/drops", "tor", "counter"), false),
    (("net/port/ecn_marks", "agg", "counter"), false),
    (("net/port/ecn_marks", "core", "counter"), false),
    (("net/port/ecn_marks", "host", "counter"), false),
    (("net/port/ecn_marks", "tor", "counter"), false),
    (("net/port/enqueued", "agg", "counter"), true),
    (("net/port/enqueued", "core", "counter"), true),
    (("net/port/enqueued", "host", "counter"), true),
    (("net/port/enqueued", "tor", "counter"), true),
    (("net/tcp/conns_peak", "", "gauge"), true),
    (("net/tcp/fast_retransmits", "", "counter"), false),
    (("net/tcp/retransmitted_segments", "", "counter"), false),
    (("net/tcp/rto_fired", "", "counter"), false),
];

/// `elephant compare A.json B.json` users depend on these names; a
/// refactor of how rows are produced must not rename or revalue them.
#[test]
fn row_names_and_counter_values_are_pinned() {
    let run = ["run", "--clusters", "2", "--horizon-ms", "5"];
    let (_, seq) = sealed("pin_seq", &run);
    let (_, pdes) = sealed("pin_pdes", &[&run[..], &["--pdes", "2"]].concat());
    // Peak RSS is read where `/proc/self/status` exists.
    let rss = std::path::Path::new("/proc/self/status").exists();
    for (ledger, pinned) in [(&seq, &SEQUENTIAL[..]), (&pdes, &PDES2[..])] {
        let keys_of = pinned.iter().map(|(k, _)| *k);
        let want: BTreeSet<_> = keys_of
            .filter(|k| rss || k.0 != "mem/peak_rss_bytes")
            .collect();
        assert_eq!(keys(&ledger.report.metrics), want, "{}", ledger.driver);
        for ((name, label, kind), value) in pinned {
            if *kind == "counter" {
                assert_eq!(counter(ledger, name, label), *value, "{name}[{label}]");
            }
        }
    }

    let (_, hybrid) = sealed(
        "pin_hybrid",
        &[
            "hybrid",
            "--clusters",
            "4",
            "--horizon-ms",
            "5",
            "--oracle-cache",
        ],
    );
    let sealed_keys = keys(&hybrid.report.metrics);
    let allowed: BTreeSet<_> = HYBRID.iter().map(|(k, _)| *k).collect();
    let required: BTreeSet<_> = HYBRID.iter().filter(|(_, r)| *r).map(|(k, _)| *k).collect();
    let extra: Vec<_> = sealed_keys.difference(&allowed).collect();
    assert!(extra.is_empty(), "unknown rows {extra:?}");
    let missing: Vec<_> = required.difference(&sealed_keys).collect();
    assert!(missing.is_empty(), "missing rows {missing:?}");

    // What `compare` gates is spelled the way the rows are.
    for name in OUTCOME_COUNTERS {
        let pinned = allowed
            .iter()
            .any(|(n, _, kind)| *n == name && *kind == "counter");
        assert!(pinned, "{name} names no pinned counter row");
    }
}
