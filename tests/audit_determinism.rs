//! Lockdown for the accuracy observatory: the audit driver must be a
//! read-only observer (auditing a run cannot change it), its verdict must
//! be deterministic, and every driver's run-ledger artifact must survive
//! the `elephant compare` round trip — including the audit's own pair.
//!
//! The accuracy gate reuses the reference workload of
//! `tests/oracle_cache.rs`: a small-but-real trained model on the paper
//! 2-cluster topology, judged at the distribution level, as a median over
//! a fixed set of workload seeds.

use std::process::Command;

use elephant::core::{
    run_audit, train_cluster_model, AuditHooks, AuditRun, DropPolicy, LearnedOracle, RunLedger,
    TrainingOptions, LEDGER_SCHEMA_VERSION,
};
use elephant::des::{SimDuration, SimTime};
use elephant::net::{BoundaryRecord, ClosParams, FlowSpec, NetConfig, RttScope};
use elephant::obs::{DivergenceBounds, RunReport};
use elephant::scenario::run_fingerprint;
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(12);

fn elephant_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elephant"))
}

fn tmp_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("elephant_audit_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The reference setup from `tests/oracle_cache.rs`: train a small but
/// real model on the audited workload so the audit exercises the deployed
/// inference path.
fn reference_audit(seed: u64) -> AuditRun {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, seed));
    let truth_cfg = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };
    let (net, _) = elephant::core::run_ground_truth(params, truth_cfg, Some(1), &flows, HORIZON);
    let records: Vec<BoundaryRecord> = elephant::core::capture_records(net).expect("capture");
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

    let elided: Vec<FlowSpec> = filter_touching_cluster(&flows, 0);
    let oracle = LearnedOracle::new(model, params, DropPolicy::Sample, 0xFACE);
    run_audit(
        params,
        0,
        Box::new(oracle),
        NetConfig::default(),
        &elided,
        HORIZON,
        // The W1 budget is coarser than the default: oracle_cache.rs
        // compares two runs of the *same* oracle (W1/mean < 0.05), while
        // truth-vs-hybrid also pays the model's systematic FCT bias, so the
        // calibrated budget for this comparison class is 0.75.
        DivergenceBounds {
            max_w1_ratio: 0.75,
            ..DivergenceBounds::default()
        },
        SimDuration::from_micros(200),
        AuditHooks::default(),
    )
}

/// The workload seeds the accuracy gate is judged over: fixed, and the
/// first five, not ones picked because they pass.
const GATE_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// Median of a handful of per-seed statistics.
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// On the reference workload a trained model must hold its accuracy
/// budget, judged as the median over [`GATE_SEEDS`]: one seed is one draw
/// of a heavy-tailed workload and of a two-epoch training run, so a
/// single-seed bound is a tripwire on that draw, not on the model. (The
/// gate used to be seed 17 alone, drop-rate error < 0.01: at the parent of
/// PR 21 every one of seeds 1–12 fails that, 0.0125–0.0252, median 0.0195,
/// while seed 17 read 0.0067.)
///
/// Bounds, from the parent's seeds 1–12: drop-rate error median < 0.03
/// (worst seed 0.0252), FCT KS median < 0.35 (median 0.168; seed 2 alone
/// reads 0.68), and W1/mean median below the calibrated truth-vs-hybrid
/// budget 0.75 (median 0.26). On these five seeds the medians read
/// 0.0205 / 0.212 / 0.286 at the parent and 0.0200 / 0.250 / 0.342 with
/// the rational activations.
#[test]
fn reference_workload_within_bounds() {
    let mut drop_err = Vec::new();
    let mut ks = Vec::new();
    let mut w1 = Vec::new();
    for seed in GATE_SEEDS {
        let run = reference_audit(seed);
        let d = &run.divergence;
        assert!(
            d.flows_matched > 20,
            "seed {seed}: matched {} flows",
            d.flows_matched
        );
        drop_err.push(d.drop_rate_error());
        ks.push(d.fct_ks);
        w1.push(d.w1_ratio());
    }
    let table = format!("drop-rate error {drop_err:.4?}\nFCT KS {ks:.3?}\nW1/mean {w1:.3?}");
    assert!(median(&drop_err) < 0.03, "drop-rate error\n{table}");
    assert!(median(&ks) < 0.35, "FCT KS\n{table}");
    assert!(median(&w1) < 0.75, "W1/mean\n{table}");
}

/// The audit is deterministic end to end: repeating it on the same seed
/// reproduces both final network states bit-for-bit (fingerprints) and
/// the identical divergence verdict (serialized report).
#[test]
fn audit_is_deterministic() {
    let a = reference_audit(23);
    let b = reference_audit(23);
    assert_eq!(
        run_fingerprint([&a.truth_net]),
        run_fingerprint([&b.truth_net]),
        "ground-truth run must be reproducible"
    );
    assert_eq!(
        run_fingerprint([&a.hybrid_net]),
        run_fingerprint([&b.hybrid_net]),
        "hybrid run must be reproducible"
    );
    let ja = serde_json::to_string(&a.divergence).unwrap();
    let jb = serde_json::to_string(&b.divergence).unwrap();
    assert_eq!(ja, jb, "divergence verdict must be reproducible");
}

/// A perturbed ledger must trip `elephant compare` with the dedicated
/// divergence exit code (8), while the pristine pair compares clean (0).
#[test]
fn cli_compare_flags_perturbed_ledger() {
    let dir = tmp_dir();
    let a_path = dir.join("compare_a.json");
    let b_path = dir.join("compare_b.json");

    let mut report = RunReport::new("run", "2 clusters, 10ms");
    report.set_run(1.0, 100_000, 0.01);
    report.scalar("drop_rate", 0.002);
    let mut a = RunLedger::new("sequential", report);
    a.seed = 7;
    a.fingerprint = 0x1234_5678_9ABC_DEF0;
    let mut b = a.clone();
    a.save(&a_path).unwrap();

    // Clean self-comparison first.
    let ok = elephant_bin()
        .args([
            "compare",
            a_path.to_str().unwrap(),
            a_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        ok.status.success(),
        "self-compare must pass: {}",
        String::from_utf8_lossy(&ok.stderr)
    );

    // Perturb a gated scalar and the fingerprint: both must surface.
    b.report.scalar("drop_rate", 0.2);
    b.fingerprint ^= 1;
    b.save(&b_path).unwrap();
    let out = elephant_bin()
        .args([
            "compare",
            a_path.to_str().unwrap(),
            b_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(8),
        "divergence must exit 8\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("drop_rate"), "scalar drift named: {err}");
    assert!(
        err.contains("fingerprint"),
        "fingerprint drift named: {err}"
    );
}

/// `compare` on a ledger it cannot read exits 3 with one line that names
/// the file once and shows the reader's message, not its `Debug` form.
#[test]
fn cli_compare_names_an_unreadable_ledger_once() {
    let dir = tmp_dir();
    let garbled = dir.join("compare_garbled.json");
    std::fs::write(&garbled, "[".repeat(1000)).unwrap();
    let missing = dir.join("compare_missing.json");
    let _ = std::fs::remove_file(&missing);
    for path in [&garbled, &missing] {
        let path = path.to_str().unwrap();
        let out = elephant_bin()
            .args(["compare", path, path])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{err}");
        assert_eq!(err.matches(path).count(), 1, "path named once: {err}");
        assert!(!err.contains("Error {"), "no Debug form: {err}");
    }
}

/// Every driver's `--metrics-out` artifact is a schema-v1 run ledger that
/// reloads with a valid checksum, and the audit's own ledger pair loads
/// the same way — the full round trip `elephant compare` depends on.
#[test]
fn every_driver_emits_a_loadable_ledger() {
    let dir = tmp_dir();
    let cases: &[(&str, Vec<&str>)] = &[
        (
            "sequential",
            vec!["run", "--clusters", "2", "--horizon-ms", "3"],
        ),
        (
            "pdes",
            vec!["run", "--clusters", "2", "--horizon-ms", "3", "--pdes", "2"],
        ),
        (
            "hybrid",
            vec!["hybrid", "--clusters", "2", "--horizon-ms", "5"],
        ),
    ];
    for (driver, args) in cases {
        let path = dir.join(format!("ledger_{driver}.json"));
        let path_s = path.to_str().unwrap().to_string();
        let mut full = args.clone();
        full.extend(["--metrics-out", &path_s]);
        let out = elephant_bin().args(&full).output().expect("binary runs");
        assert!(
            out.status.success(),
            "elephant {full:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let ledger = RunLedger::load(&path).expect("ledger validates");
        assert_eq!(ledger.schema, LEDGER_SCHEMA_VERSION);
        assert_eq!(&ledger.driver, driver, "driver tag for {full:?}");
        assert!(ledger.verify(), "checksum seals the artifact");
        assert!(ledger.report.events > 0, "report carries run facts");
    }

    // The audit pair: hybrid ledger embeds the divergence block (with
    // NaN-bearing oracle attribution rows), truth ledger rides alongside.
    // Exit 0 (within bounds) and 8 (breach) both still write the pair.
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/smoke.toml");
    let audit_path = dir.join("ledger_audit.json");
    let audit_s = audit_path.to_str().unwrap();
    let out = elephant_bin()
        .args([
            "audit",
            scenario,
            "--horizon-ms",
            "6",
            "--metrics-out",
            audit_s,
        ])
        .output()
        .expect("binary runs");
    assert!(
        matches!(out.status.code(), Some(0) | Some(8)),
        "audit must run to verdict:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let hybrid = RunLedger::load(&audit_path).expect("audit-hybrid ledger validates");
    assert_eq!(&hybrid.driver, "audit-hybrid");
    let d = hybrid.divergence.expect("divergence block embedded");
    assert!(d
        .slices
        .iter()
        .any(|s| s.axis == "oracle" && s.truth.is_nan()));
    let truth_path = dir.join("ledger_audit.truth.json");
    let truth = RunLedger::load(&truth_path).expect("audit-truth ledger validates");
    assert_eq!(&truth.driver, "audit-truth");
    assert!(truth.divergence.is_none(), "truth side carries no verdict");
}
