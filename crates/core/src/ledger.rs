//! The versioned run ledger: one checksummed JSON artifact per run.
//!
//! Every driver — sequential, PDES, hybrid, supervised, the audit pair,
//! and the bench binaries — describes its completed run as a [`RunLedger`]:
//! schema version, run fingerprint, seed, driver/mode, the full
//! [`RunReport`] (throughput, scalars, metrics, profile), the recovery
//! transitions if the run was supervised, and the divergence block if it
//! was audited. The artifact replaces the loose `BENCH_*.json` /
//! `--metrics-out` shapes with one format `elephant compare` can diff.
//!
//! Integrity: the `checksum` field holds FNV-1a 64 over the ledger's
//! canonical JSON with the checksum itself zeroed. [`RunLedger::from_json`]
//! recomputes and rejects tampered or truncated artifacts, so a ledger
//! that loads is exactly the ledger a driver sealed.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

use elephant_obs::{DivergenceReport, RunReport};
use serde::{Deserialize, Serialize};

use crate::experiment::OUTCOME_COUNTERS;

/// Current ledger schema version. Bump on any field change that a reader
/// of the previous shape would misinterpret.
pub const LEDGER_SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64 over a byte string — the same constants the scenario
/// compiler's run fingerprint uses, exposed for artifact checksums.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A versioned, checksummed description of one completed run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunLedger {
    /// Ledger schema version ([`LEDGER_SCHEMA_VERSION`]).
    pub schema: u32,
    /// FNV-1a 64 over the canonical JSON with this field zeroed.
    pub checksum: u64,
    /// Scenario source: the file path for scenario runs, a free-form
    /// workload description otherwise.
    pub scenario: String,
    /// The run fingerprint (`run_fingerprint` over the final networks);
    /// 0 when the driver could not compute one.
    pub fingerprint: u64,
    /// Effective seed of the run.
    pub seed: u64,
    /// Driver that produced the run: `sequential`, `pdes`, `hybrid`,
    /// `supervised`, `audit-truth`, `audit-hybrid`, or a bench name.
    pub driver: String,
    /// Driver mode details (epoch planner, oracle settings, ...).
    pub mode: String,
    /// The full run report: throughput, scalars, partitions, metrics,
    /// profile.
    pub report: RunReport,
    /// Recovery transitions (supervised runs), one line each, plus the
    /// summary line; empty for unsupervised runs.
    pub recovery: Vec<String>,
    /// Divergence block, present when the run was audited against ground
    /// truth.
    pub divergence: Option<DivergenceReport>,
}

impl RunLedger {
    /// An unsealed ledger for `driver` wrapping `report`. Fill in the
    /// remaining fields, then [`seal`](Self::seal) before writing.
    pub fn new(driver: impl Into<String>, report: RunReport) -> Self {
        RunLedger {
            schema: LEDGER_SCHEMA_VERSION,
            checksum: 0,
            scenario: String::new(),
            fingerprint: 0,
            seed: 0,
            driver: driver.into(),
            mode: String::new(),
            report,
            recovery: Vec::new(),
            divergence: None,
        }
    }

    fn checksum_of(&self) -> u64 {
        let mut zeroed = self.clone();
        zeroed.checksum = 0;
        let canonical = serde_json::to_string(&zeroed).expect("ledger serializes");
        fnv1a_64(canonical.as_bytes())
    }

    /// Computes and stores the checksum. Call after the last field edit.
    pub fn seal(&mut self) {
        self.checksum = self.checksum_of();
    }

    /// Whether the stored checksum matches the current contents.
    pub fn verify(&self) -> bool {
        self.checksum == self.checksum_of()
    }

    /// Indented JSON of the ledger as-is (seal first).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("ledger serializes")
    }

    /// Parses and validates a ledger: JSON shape, schema version, and
    /// checksum must all hold.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let ledger: RunLedger =
            serde_json::from_str(text).map_err(|e| format!("ledger parse error: {e}"))?;
        if ledger.schema != LEDGER_SCHEMA_VERSION {
            return Err(format!(
                "ledger schema {} unsupported (expected {LEDGER_SCHEMA_VERSION})",
                ledger.schema
            ));
        }
        if !ledger.verify() {
            return Err(format!(
                "ledger checksum mismatch: stored {:#018x}, computed {:#018x} — \
                 artifact was modified after sealing",
                ledger.checksum,
                ledger.checksum_of()
            ));
        }
        Ok(ledger)
    }

    /// Seals the ledger and writes it to `path` as indented JSON.
    pub fn save(&mut self, path: &Path) -> io::Result<()> {
        self.seal();
        std::fs::write(path, self.to_json_pretty())
    }

    /// Loads and validates a ledger from `path`. The error does not name
    /// the path: the caller, who knows how to show it, does.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

fn rel_drift(a: f64, b: f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom <= 0.0 {
        0.0
    } else {
        (a - b).abs() / denom
    }
}

/// Scalar keys whose values are wall-clock dependent and therefore exempt
/// from drift gating (two healthy runs on different machines disagree).
fn timing_dependent(key: &str) -> bool {
    key.contains("wall") || key.contains("per_second") || key.contains("seconds")
}

/// The counter rows of a report that any two runs of one simulated
/// outcome agree on ([`OUTCOME_COUNTERS`]), by (name, label).
fn gated_counters(report: &RunReport) -> BTreeMap<(&str, &str), u64> {
    let rows = report.metrics.iter();
    rows.filter(|m| m.kind == "counter" && OUTCOME_COUNTERS.contains(&m.name.as_str()))
        .map(|m| ((m.name.as_str(), m.label.as_str()), m.count))
        .collect()
}

/// Diffs two ledgers and returns every drift breach as a human-readable
/// line; empty means the runs agree within `tolerance` (relative, applied
/// to events and scalar results) and, for the same seed and driver, on
/// every [`OUTCOME_COUNTERS`] row exactly (a missing row is a zero). The
/// other rows — gauges, histograms, and counters of how the engine got
/// there — differ between healthy runs of one simulation (`--pdes 2` vs
/// `--pdes 4`, fixed vs adaptive epochs, recovered vs clean) and are
/// skipped, like wall-clock scalars. Comparing a ledger with itself always
/// returns no breaches.
pub fn compare_ledgers(a: &RunLedger, b: &RunLedger, tolerance: f64) -> Vec<String> {
    let mut out = Vec::new();
    if a.schema != b.schema {
        out.push(format!("schema mismatch: {} vs {}", a.schema, b.schema));
    }
    // Fingerprints are only comparable when both runs used the same seed
    // AND the same driver — a ground-truth and a hybrid run of the same
    // scenario legitimately end in different network states.
    if a.seed == b.seed
        && a.driver == b.driver
        && a.fingerprint != 0
        && b.fingerprint != 0
        && a.fingerprint != b.fingerprint
    {
        out.push(format!(
            "fingerprint drift at seed {}: {:#018x} vs {:#018x} (determinism breach)",
            a.seed, a.fingerprint, b.fingerprint
        ));
    }
    if a.seed == b.seed && a.driver == b.driver {
        let drift = rel_drift(a.report.events as f64, b.report.events as f64);
        if drift > tolerance {
            out.push(format!(
                "events drift {:.4} exceeds tolerance {:.4}: {} vs {}",
                drift, tolerance, a.report.events, b.report.events
            ));
        }
    }
    if a.seed == b.seed && a.driver == b.driver {
        let (ca, cb) = (gated_counters(&a.report), gated_counters(&b.report));
        let keys: BTreeSet<_> = ca.keys().chain(cb.keys()).collect();
        for key @ (name, label) in keys {
            let (va, vb) = (ca.get(key).unwrap_or(&0), cb.get(key).unwrap_or(&0));
            if va != vb {
                out.push(format!("counter `{name}[{label}]` differs: {va} vs {vb}"));
            }
        }
    }
    for (key, &va) in &a.report.scalars {
        if timing_dependent(key) {
            continue;
        }
        if let Some(&vb) = b.report.scalars.get(key) {
            let drift = rel_drift(va, vb);
            if drift > tolerance {
                out.push(format!(
                    "scalar `{key}` drift {drift:.4} exceeds tolerance {tolerance:.4}: \
                     {va:.6} vs {vb:.6}"
                ));
            }
        }
    }
    for (name, ledger) in [("first", a), ("second", b)] {
        if let Some(d) = &ledger.divergence {
            for breach in d.breaches() {
                out.push(format!("{name} ledger divergence: {breach}"));
            }
        }
    }
    if let (Some(da), Some(db)) = (&a.divergence, &b.divergence) {
        let drift = (da.fct_ks - db.fct_ks).abs();
        if drift > da.bounds.max_ks.min(db.bounds.max_ks) {
            out.push(format!(
                "divergence KS drifted by {:.3} between ledgers ({:.3} vs {:.3})",
                drift, da.fct_ks, db.fct_ks
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephant_obs::DivergenceBounds;
    use proptest::prelude::*;

    fn sample_ledger() -> RunLedger {
        let mut report = RunReport::new("unit", "2 clusters, 10ms");
        report.set_run(1.5, 120_000, 0.01);
        report.scalar("flows_completed", 48.0);
        report.scalar("drop_rate", 0.002);
        report.scalar("wall_seconds_setup", 0.3);
        let mut ledger = RunLedger::new("sequential", report);
        ledger.scenario = "scenarios/smoke.toml".to_string();
        ledger.fingerprint = 0xDEAD_BEEF_CAFE_F00D;
        ledger.seed = 17;
        ledger.mode = "adaptive".to_string();
        ledger
    }

    #[test]
    fn sealed_ledger_round_trips_and_verifies() {
        let mut ledger = sample_ledger();
        ledger
            .recovery
            .push("recovery: checkpoints=3 restores=0".into());
        ledger.seal();
        assert!(ledger.verify());
        let back = RunLedger::from_json(&ledger.to_json_pretty()).expect("validates");
        assert_eq!(back.schema, LEDGER_SCHEMA_VERSION);
        assert_eq!(back.fingerprint, ledger.fingerprint);
        assert_eq!(back.checksum, ledger.checksum);
        assert_eq!(back.recovery.len(), 1);
        assert_eq!(back.report.events, 120_000);
    }

    #[test]
    fn tampering_breaks_the_checksum() {
        let mut ledger = sample_ledger();
        ledger.seal();
        let mut json = ledger.to_json_pretty();
        json = json.replace("\"seed\": 17", "\"seed\": 18");
        let err = RunLedger::from_json(&json).expect_err("tamper detected");
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let mut ledger = sample_ledger();
        ledger.schema = LEDGER_SCHEMA_VERSION + 1;
        ledger.seal();
        let err = RunLedger::from_json(&ledger.to_json_pretty()).expect_err("schema gate");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn full_range_checksums_survive_json() {
        // FNV output uses all 64 bits; the artifact must not round them
        // through f64.
        let mut ledger = sample_ledger();
        ledger.fingerprint = u64::MAX - 3;
        ledger.seal();
        let back = RunLedger::from_json(&ledger.to_json_pretty()).expect("validates");
        assert_eq!(back.fingerprint, u64::MAX - 3);
    }

    #[test]
    fn self_compare_is_clean() {
        let mut ledger = sample_ledger();
        ledger.seal();
        assert!(compare_ledgers(&ledger, &ledger, 0.05).is_empty());
    }

    #[test]
    fn perturbed_ledger_breaches() {
        let mut a = sample_ledger();
        a.seal();
        let mut b = sample_ledger();
        b.fingerprint ^= 1;
        b.report.scalar("drop_rate", 0.2);
        b.seal();
        let breaches = compare_ledgers(&a, &b, 0.05);
        assert!(
            breaches.iter().any(|l| l.contains("fingerprint")),
            "{breaches:?}"
        );
        assert!(
            breaches.iter().any(|l| l.contains("drop_rate")),
            "{breaches:?}"
        );
    }

    #[test]
    fn counter_rows_are_compared_exactly() {
        use elephant_obs::MetricRow;
        let rows = |drops: u64, epochs: u64| {
            let mut l = sample_ledger();
            l.report.metrics = vec![
                MetricRow::counter("net/port/drops", "tor", drops),
                MetricRow::counter("net/port/enqueued", "tor", epochs),
                MetricRow::counter("pdes/epoch/planned", "", epochs),
                MetricRow::gauge("des/kernel/fel_bytes_peak", "", epochs as f64),
            ];
            l
        };
        // Engine rows and gauges may differ; a simulated-outcome counter
        // may not — not even by less than the tolerance, not even by
        // being absent.
        assert!(compare_ledgers(&rows(1_520, 10), &rows(1_520, 99), 0.05).is_empty());
        let breaches = compare_ledgers(&rows(1_520, 10), &rows(1_519, 10), 0.05);
        assert_eq!(breaches.len(), 1, "{breaches:?}");
        assert!(breaches[0].contains("net/port/drops[tor]"), "{breaches:?}");
        let breaches = compare_ledgers(&rows(1_520, 10), &sample_ledger(), 0.05);
        assert!(breaches[0].contains("1520 vs 0"), "{breaches:?}");
    }

    #[test]
    fn timing_scalars_are_exempt() {
        let mut a = sample_ledger();
        a.seal();
        let mut b = sample_ledger();
        b.report.scalar("wall_seconds_setup", 99.0);
        b.seal();
        assert!(compare_ledgers(&a, &b, 0.05).is_empty());
    }

    #[test]
    fn nan_attribution_rows_round_trip() {
        // Oracle-axis DriftRows have no truth-side value and carry NaN,
        // which the JSON writer emits as `null`; the ledger must still
        // reload (null → NaN) with a stable checksum.
        use elephant_obs::DriftRow;
        let mut ledger = sample_ledger();
        ledger.divergence = Some(DivergenceReport {
            flows_truth: 4,
            flows_approx: 4,
            flows_matched: 4,
            fct_mean_truth_seconds: 1e-3,
            slices: vec![DriftRow {
                axis: "oracle".into(),
                key: "cache_hits".into(),
                truth: f64::NAN,
                approx: 100.0,
            }],
            ..Default::default()
        });
        ledger.seal();
        let json = ledger.to_json_pretty();
        assert!(json.contains("null"), "NaN should serialize as null");
        let back = RunLedger::from_json(&json).expect("NaN row reloads");
        let d = back.divergence.expect("divergence survives");
        assert!(d.slices[0].truth.is_nan());
        assert!((d.slices[0].approx - 100.0).abs() < 1e-12);
    }

    #[test]
    fn divergence_breaches_surface_in_compare() {
        let mut a = sample_ledger();
        a.divergence = Some(DivergenceReport {
            flows_truth: 10,
            flows_approx: 10,
            flows_matched: 10,
            fct_ks: 0.9, // over every default bound
            fct_mean_truth_seconds: 1e-3,
            bounds: DivergenceBounds::default(),
            ..Default::default()
        });
        a.seal();
        let mut b = sample_ledger();
        b.seal();
        let breaches = compare_ledgers(&a, &b, 0.05);
        assert!(breaches.iter().any(|l| l.contains("KS")), "{breaches:?}");
    }

    proptest! {
        /// The reader never panics on a damaged ledger: every truncation
        /// of a sealed ledger is refused, and one overwritten byte or a
        /// random string is refused or loads (whitespace overwritten with
        /// whitespace leaves a valid ledger).
        #[test]
        fn the_reader_never_panics(
            seed in any::<u64>(),
            at in any::<usize>(),
            byte in any::<u8>(),
            junk in proptest::collection::vec(any::<u8>(), 0..=256),
        ) {
            let mut ledger = sample_ledger();
            ledger.seed = seed;
            ledger.seal();
            let json = ledger.to_json_pretty();
            prop_assert!(RunLedger::from_json(&json).is_ok());
            for len in 0..json.len() {
                let loaded = RunLedger::from_json(&json[..len]);
                prop_assert!(loaded.is_err(), "{} of {} bytes loaded", len, json.len());
            }
            let mut garbled = json.into_bytes();
            let at = at % garbled.len();
            garbled[at] = byte;
            let _ = RunLedger::from_json(&String::from_utf8_lossy(&garbled));
            let _ = RunLedger::from_json(&String::from_utf8_lossy(&junk));
        }
    }
}
