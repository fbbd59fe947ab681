//! Accuracy-divergence metrics between a ground-truth run and an
//! approximate (hybrid) run of the same workload.
//!
//! The paper trades packet-level fidelity for speed and argues the trade
//! at the distribution level (§6.1): per-packet comparisons are
//! meaningless once TCP reacts to imperfect predictions, but drop rates
//! and latency CDFs must stay close. This module holds the statistical
//! kernels (two-sample Kolmogorov–Smirnov and 1-Wasserstein distances,
//! previously duplicated in the test suite) plus the serializable
//! [`DivergenceReport`] the audit driver produces and the ledger embeds.
//! The numeric default bounds mirror the differential suite in
//! `tests/oracle_cache.rs`, so "audit passes" and "the accuracy tests
//! pass" mean the same thing.

use serde::{Deserialize, Serialize};

use crate::hist::LogHistogram;

/// Two-sample Kolmogorov–Smirnov distance over raw (unsorted) samples:
/// the maximum absolute gap between the two empirical CDFs. 0 means
/// identical, 1 means disjoint supports; either side empty reports 1.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    let a = crate::hist::EmpiricalCdf::from_samples(a);
    let b = crate::hist::EmpiricalCdf::from_samples(b);
    a.ks_distance(&b)
}

/// 1-Wasserstein (earth-mover) distance over raw samples, computed as the
/// integral of |F_a − F_b| over the value axis. Unlike KS it weights mass
/// shifts by how far the value actually moved, which makes it the sharper
/// bound for near-atomic latency distributions. Either side empty
/// reports +inf.
pub fn wasserstein1(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::INFINITY;
    }
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let mut xs: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    xs.sort_by(f64::total_cmp);
    let cdf = |v: &[f64], x: f64| v.partition_point(|&s| s <= x) as f64 / v.len() as f64;
    xs.windows(2)
        .map(|w| (cdf(&a, w[0]) - cdf(&b, w[0])).abs() * (w[1] - w[0]))
        .sum()
}

/// Acceptable divergence between a ground-truth and an approximate run.
///
/// Defaults match the differential accuracy suite (`tests/oracle_cache.rs`):
/// drop rate within 1% absolute, latency KS below 0.35, mean-normalized
/// 1-Wasserstein distance below 0.05.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DivergenceBounds {
    /// Maximum |drop_rate_truth − drop_rate_approx| (absolute).
    pub max_drop_rate_error: f64,
    /// Maximum latency-CDF Kolmogorov–Smirnov distance.
    pub max_ks: f64,
    /// Maximum W1 distance normalized by the ground-truth mean.
    pub max_w1_ratio: f64,
}

impl Default for DivergenceBounds {
    fn default() -> Self {
        DivergenceBounds {
            max_drop_rate_error: 0.01,
            max_ks: 0.35,
            max_w1_ratio: 0.05,
        }
    }
}

/// One attribution row: a quantity observed in both runs, keyed by the
/// axis it is attributed to (macro regime, topology layer, or oracle
/// subsystem).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DriftRow {
    /// Attribution axis: `"regime"`, `"layer"`, or `"oracle"`.
    pub axis: String,
    /// Key within the axis (e.g. `"tor_drops"`, `"regime2"`, `"cache_hits"`).
    pub key: String,
    /// The ground-truth run's value (NaN when the axis only exists on the
    /// approximate side, e.g. oracle cache counters).
    pub truth: f64,
    /// The approximate run's value.
    pub approx: f64,
}

/// A compact, serializable histogram summary (quantiles + mean + count)
/// for embedding in ledgers without shipping raw bucket arrays.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &LogHistogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
        }
    }
}

/// The audit driver's verdict: how far an approximate run diverged from
/// ground truth on the same compiled scenario and seed, and where.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DivergenceReport {
    /// Completed flows in the ground-truth run (restricted to the
    /// audited cluster's traffic).
    pub flows_truth: u64,
    /// Completed flows in the approximate run.
    pub flows_approx: u64,
    /// Flows completed by both runs (joined on flow id).
    pub flows_matched: u64,
    /// Ground-truth packet drop fraction (drops / (drops + deliveries)).
    pub drop_rate_truth: f64,
    /// Approximate-run packet drop fraction.
    pub drop_rate_approx: f64,
    /// KS distance between the matched flows' FCT distributions.
    pub fct_ks: f64,
    /// 1-Wasserstein distance between the FCT distributions, seconds.
    pub fct_w1_seconds: f64,
    /// Ground-truth mean FCT over matched flows, seconds (W1 normalizer).
    pub fct_mean_truth_seconds: f64,
    /// KS distance between the in-scope RTT sample distributions.
    pub rtt_ks: f64,
    /// Per-flow |relative FCT error| distribution over matched flows.
    pub abs_rel_error: HistSummary,
    /// Signed mean relative FCT error (positive = approximate runs slow).
    pub signed_mean_rel_error: f64,
    /// Attribution rows along the regime / layer / oracle axes.
    pub slices: Vec<DriftRow>,
    /// The bounds this report was gated against.
    pub bounds: DivergenceBounds,
}

impl DivergenceReport {
    /// Absolute drop-rate error.
    pub fn drop_rate_error(&self) -> f64 {
        (self.drop_rate_approx - self.drop_rate_truth).abs()
    }

    /// Mean-normalized 1-Wasserstein distance.
    pub fn w1_ratio(&self) -> f64 {
        if self.fct_mean_truth_seconds <= 0.0 {
            if self.fct_w1_seconds == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.fct_w1_seconds / self.fct_mean_truth_seconds
        }
    }

    /// Every bound this report breaches, as human-readable diagnostics.
    pub fn breaches(&self) -> Vec<String> {
        let mut out = Vec::new();
        let b = &self.bounds;
        if self.flows_matched == 0 {
            out.push("no matched flows between truth and approximate runs".to_string());
        }
        if self.drop_rate_error() > b.max_drop_rate_error {
            out.push(format!(
                "drop-rate error {:.4} exceeds bound {:.4}",
                self.drop_rate_error(),
                b.max_drop_rate_error
            ));
        }
        if self.fct_ks > b.max_ks {
            out.push(format!(
                "FCT KS distance {:.3} exceeds bound {:.3}",
                self.fct_ks, b.max_ks
            ));
        }
        if self.w1_ratio() > b.max_w1_ratio {
            out.push(format!(
                "normalized W1 distance {:.4} exceeds bound {:.4}",
                self.w1_ratio(),
                b.max_w1_ratio
            ));
        }
        out
    }

    /// Renders the terminal divergence table.
    pub fn to_table(&self) -> String {
        let b = &self.bounds;
        let mut out = String::new();
        out.push_str("== divergence: ground truth vs approximate ==\n");
        out.push_str(&format!(
            "flows            truth {:>8}  approx {:>8}  matched {:>8}\n",
            self.flows_truth, self.flows_approx, self.flows_matched
        ));
        out.push_str(&format!(
            "drop rate        truth {:>8.5}  approx {:>8.5}  |err| {:.5} (bound {:.5})\n",
            self.drop_rate_truth,
            self.drop_rate_approx,
            self.drop_rate_error(),
            b.max_drop_rate_error
        ));
        out.push_str(&format!(
            "fct KS           {:.4} (bound {:.4})\n",
            self.fct_ks, b.max_ks
        ));
        out.push_str(&format!(
            "fct W1 / mean    {:.4} (bound {:.4})   [W1 {:.3e}s, mean {:.3e}s]\n",
            self.w1_ratio(),
            b.max_w1_ratio,
            self.fct_w1_seconds,
            self.fct_mean_truth_seconds
        ));
        out.push_str(&format!("rtt KS           {:.4}\n", self.rtt_ks));
        let e = &self.abs_rel_error;
        out.push_str(&format!(
            "|rel fct err|    p50 {:.4}  p90 {:.4}  p99 {:.4}  mean {:.4}  bias {:+.4}\n",
            e.p50, e.p90, e.p99, e.mean, self.signed_mean_rel_error
        ));
        if !self.slices.is_empty() {
            out.push_str("-- attribution --\n");
            out.push_str(&format!(
                "{:<8} {:<24} {:>14} {:>14}\n",
                "axis", "key", "truth", "approx"
            ));
            for s in &self.slices {
                let truth = if s.truth.is_nan() {
                    "-".to_string()
                } else {
                    format!("{:.6}", s.truth)
                };
                out.push_str(&format!(
                    "{:<8} {:<24} {:>14} {:>14.6}\n",
                    s.axis, s.key, truth, s.approx
                ));
            }
        }
        let breaches = self.breaches();
        if breaches.is_empty() {
            out.push_str("verdict          within bounds\n");
        } else {
            for br in &breaches {
                out.push_str(&format!("BREACH           {br}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ks_and_w1_agree_with_known_values() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [3.0, 4.0, 5.0, 6.0];
        assert!((ks_distance(&a, &b) - 0.5).abs() < 1e-12);
        // Uniform shift by 2 → W1 = 2.
        assert!((wasserstein1(&a, &b) - 2.0).abs() < 1e-12);
        assert_eq!(ks_distance(&a, &a), 0.0);
        assert_eq!(wasserstein1(&a, &a), 0.0);
    }

    #[test]
    fn empty_samples_degrade_not_panic() {
        assert_eq!(ks_distance(&[], &[1.0]), 1.0);
        assert!(wasserstein1(&[], &[1.0]).is_infinite());
    }

    #[test]
    fn report_gates_on_bounds() {
        let mut r = DivergenceReport {
            flows_matched: 10,
            flows_truth: 10,
            flows_approx: 10,
            drop_rate_truth: 0.010,
            drop_rate_approx: 0.012,
            fct_ks: 0.1,
            fct_w1_seconds: 1e-5,
            fct_mean_truth_seconds: 1e-3,
            rtt_ks: 0.1,
            ..Default::default()
        };
        assert!(r.breaches().is_empty(), "breaches: {:?}", r.breaches());
        r.fct_ks = 0.9;
        assert!(r.breaches().iter().any(|b| b.contains("KS")));
        r.fct_ks = 0.1;
        r.drop_rate_approx = 0.5;
        assert!(r.breaches().iter().any(|b| b.contains("drop-rate")));
    }

    #[test]
    fn zero_matched_flows_is_a_breach() {
        let r = DivergenceReport::default();
        assert!(r.breaches().iter().any(|b| b.contains("no matched flows")));
    }

    #[test]
    fn table_mentions_key_figures() {
        let mut r = DivergenceReport {
            flows_matched: 3,
            flows_truth: 3,
            flows_approx: 3,
            fct_mean_truth_seconds: 1e-3,
            ..Default::default()
        };
        r.slices.push(DriftRow {
            axis: "layer".into(),
            key: "tor_drops".into(),
            truth: 5.0,
            approx: 6.0,
        });
        r.slices.push(DriftRow {
            axis: "oracle".into(),
            key: "cache_hits".into(),
            truth: f64::NAN,
            approx: 100.0,
        });
        let t = r.to_table();
        assert!(t.contains("drop rate"));
        assert!(t.contains("tor_drops"));
        assert!(t.contains("cache_hits"));
        assert!(t.contains("within bounds"));
    }

    #[test]
    fn report_serde_round_trips() {
        let r = DivergenceReport {
            flows_matched: 7,
            fct_ks: 0.25,
            slices: vec![DriftRow {
                axis: "regime".into(),
                key: "calm".into(),
                truth: 1.0,
                approx: 2.0,
            }],
            ..Default::default()
        };
        let json = serde_json::to_string(&r).expect("serializes");
        let back: DivergenceReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.flows_matched, 7);
        assert_eq!(back.slices.len(), 1);
        assert!((back.fct_ks - 0.25).abs() < 1e-12);
        assert_eq!(back.bounds, r.bounds);
    }
}
