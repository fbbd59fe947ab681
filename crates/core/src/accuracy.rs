//! Distribution-level accuracy metrics.
//!
//! The paper compares CDFs rather than per-packet values because "the
//! interaction of TCP congestion control and the imperfect model
//! predictions during run time will cause latencies to diverge … a
//! packet-to-packet comparison is not as meaningful" (§6.1). This module
//! quantifies what Figure 4 eyeballs: the Kolmogorov–Smirnov distance and
//! a table of per-quantile relative errors.

use elephant_net::BoundaryRecord;
use elephant_obs::{EmpiricalCdf, MetricRow};

use crate::error::ElephantError;
use crate::learned::ClusterModel;
use crate::macro_model::MacroModel;
use crate::train::build_samples;

/// One quantile's comparison.
#[derive(Clone, Copy, Debug)]
pub struct PercentileRow {
    /// The quantile in `[0, 1]`.
    pub q: f64,
    /// Ground-truth value at `q`.
    pub truth: f64,
    /// Approximate-simulation value at `q`.
    pub approx: f64,
}

impl PercentileRow {
    /// Signed relative error `(approx − truth)/truth`.
    pub fn rel_error(&self) -> f64 {
        if self.truth == 0.0 {
            if self.approx == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.approx - self.truth) / self.truth
        }
    }
}

/// Full distribution comparison.
#[derive(Clone, Debug)]
pub struct CdfComparison {
    /// Kolmogorov–Smirnov distance (0 identical, 1 disjoint).
    pub ks: f64,
    /// Quantile table at the standard reporting points.
    pub rows: Vec<PercentileRow>,
    /// Ground-truth sample count.
    pub truth_samples: usize,
    /// Approximate sample count.
    pub approx_samples: usize,
}

impl CdfComparison {
    /// The comparison as `hybrid/rtt/*` metric rows, the columns a hybrid
    /// sweep row and `compare`'s ledger carry: the KS distance, both
    /// sides' value at each [`REPORT_QUANTILES`] point in seconds
    /// (`truth[p10]` … `approx[p99.9]`), and both sample counts.
    pub fn metric_rows(&self) -> Vec<MetricRow> {
        let mut rows = vec![MetricRow::gauge("hybrid/rtt/ks", "", self.ks)];
        for r in &self.rows {
            let label = format!("p{}", r.q * 100.0);
            rows.push(MetricRow::gauge("hybrid/rtt/truth", &label, r.truth));
            rows.push(MetricRow::gauge("hybrid/rtt/approx", &label, r.approx));
        }
        let samples = [
            ("truth", self.truth_samples),
            ("approx", self.approx_samples),
        ];
        rows.extend(
            samples.map(|(side, n)| MetricRow::counter("hybrid/rtt/samples", side, n as u64)),
        );
        rows
    }
}

/// The quantile table `compare` prints: truth, approximation and the
/// signed relative error at each [`REPORT_QUANTILES`] point, in µs.
impl std::fmt::Display for CdfComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "  quantile   truth       hybrid      error")?;
        for r in &self.rows {
            writeln!(
                f,
                "  p{:<8} {:>9.1}us {:>9.1}us {:>+8.1}%",
                r.q * 100.0,
                r.truth * 1e6,
                r.approx * 1e6,
                r.rel_error() * 100.0
            )?;
        }
        Ok(())
    }
}

/// The quantiles every comparison reports.
pub const REPORT_QUANTILES: [f64; 7] = [0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 0.999];

/// Compares two empirical distributions (e.g. the Figure-4 RTT CDFs).
pub fn compare_cdfs(truth: &EmpiricalCdf, approx: &EmpiricalCdf) -> CdfComparison {
    let rows = REPORT_QUANTILES
        .iter()
        .map(|&q| PercentileRow {
            q,
            truth: truth.quantile(q),
            approx: approx.quantile(q),
        })
        .collect();
    CdfComparison {
        ks: truth.ks_distance(approx),
        rows,
        truth_samples: truth.len(),
        approx_samples: approx.len(),
    }
}

/// Confusion matrix of the deployed (auto-regressive) macro classifier
/// against the ground-truth-driven one, over the same boundary stream.
///
/// At training time the macro model observes measured latencies and drops;
/// at simulation time it observes the micro model's *predictions*. This
/// diagnostic quantifies how far that auto-regression drifts: it replays
/// `records` twice — once feeding ground truth, once feeding `model`'s
/// micro models' teacher-forced predictions, decoded with its codec — and
/// counts state agreements under its macro thresholds.
/// `confusion[truth][predicted]` in [`crate::MacroState`] index order.
///
/// Errors with [`ElephantError::StreamMisaligned`] if the feature-sample
/// streams built from `records` run out before the records do — which can
/// only happen when the two inputs were produced from different captures.
pub fn macro_confusion(
    records: &[BoundaryRecord],
    model: &ClusterModel,
    params: &elephant_net::ClosParams,
) -> Result<[[u64; 4]; 4], ElephantError> {
    let (up, down) = (&model.up, &model.down);
    let (macro_cfg, codec) = (model.macro_cfg, model.codec);
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].t_in);

    // Features are teacher-forced from ground truth (same stream both
    // replays), so the only divergence measured is the macro feedback loop.
    let (up_samples, down_samples) = build_samples(records, params, macro_cfg, codec);
    let mut up_iter = up_samples.iter();
    let mut down_iter = down_samples.iter();
    let mut up_state = up.init_state();
    let mut down_state = down.init_state();

    let mut truth_macro = MacroModel::new(macro_cfg);
    let mut pred_macro = MacroModel::new(macro_cfg);
    let mut confusion = [[0u64; 4]; 4];

    for &i in &order {
        let r = &records[i];
        let t = truth_macro.state();
        let p = pred_macro.state();
        confusion[t.index()][p.index()] += 1;

        // Advance the truth-fed classifier on the measurement…
        truth_macro.observe(
            if r.dropped {
                None
            } else {
                Some(r.latency.as_secs_f64())
            },
            r.dropped,
        );
        // …and the deployed-style classifier on the model's prediction.
        let (sample, net, state) = match r.direction {
            elephant_net::Direction::Up => (
                up_iter
                    .next()
                    .ok_or_else(|| ElephantError::StreamMisaligned {
                        detail: "up-direction sample stream shorter than record stream".into(),
                    })?,
                up,
                &mut up_state,
            ),
            elephant_net::Direction::Down => (
                down_iter
                    .next()
                    .ok_or_else(|| ElephantError::StreamMisaligned {
                        detail: "down-direction sample stream shorter than record stream".into(),
                    })?,
                down,
                &mut down_state,
            ),
        };
        let pred = net.predict(&sample.features, state);
        if pred.drop_prob >= 0.5 {
            pred_macro.observe(None, true);
        } else {
            let lat = codec.decode(pred.latency);
            pred_macro.observe(Some(lat.as_secs_f64()), false);
        }
    }
    Ok(confusion)
}

/// Agreement rate of a [`macro_confusion`] matrix (trace over total).
pub fn macro_agreement(confusion: &[[u64; 4]; 4]) -> f64 {
    let total: u64 = confusion.iter().flatten().sum();
    if total == 0 {
        return 1.0;
    }
    let agree: u64 = (0..4).map(|i| confusion[i][i]).sum();
    agree as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::LatencyCodec;
    use crate::macro_model::MacroConfig;
    use elephant_des::{SimDuration, SimTime, SmallRng};
    use elephant_net::{ClosParams, Direction, FabricPath, FlowId, HostAddr};
    use elephant_nn::{MicroNet, MicroNetConfig};

    fn tiny_net(seed: u64) -> MicroNet {
        let cfg = MicroNetConfig {
            input: crate::features::FEATURE_DIM,
            hidden: 4,
            layers: 1,
            alpha: 0.5,
        };
        MicroNet::new(cfg, &mut SmallRng::seed_from_u64(seed))
    }

    fn records(n: usize) -> Vec<elephant_net::BoundaryRecord> {
        (0..n)
            .map(|i| elephant_net::BoundaryRecord {
                t_in: SimTime::from_micros(i as u64 * 7),
                direction: if i % 2 == 0 {
                    Direction::Up
                } else {
                    Direction::Down
                },
                flow: FlowId(i as u64),
                src: HostAddr::new(1, 0, (i % 4) as u16),
                dst: HostAddr::new(0, 0, ((i + 1) % 4) as u16),
                size: 1500,
                path: FabricPath {
                    src_tor: 0,
                    src_agg: 0,
                    core: Some(0),
                    dst_agg: 0,
                    dst_tor: 0,
                },
                dropped: false,
                latency: SimDuration::from_micros(5 + (i % 3) as u64),
            })
            .collect()
    }

    #[test]
    fn macro_confusion_conserves_and_bounds() {
        let params = ClosParams::paper_cluster(2);
        let recs = records(200);
        let model = ClusterModel {
            up: tiny_net(1),
            down: tiny_net(2),
            macro_cfg: MacroConfig::default(),
            codec: LatencyCodec::default(),
            meta: Default::default(),
        };
        let c = macro_confusion(&recs, &model, &params).expect("aligned streams");
        let total: u64 = c.iter().flatten().sum();
        assert_eq!(total, 200, "one cell per record");
        let a = macro_agreement(&c);
        assert!((0.0..=1.0).contains(&a));
        // Deterministic.
        let c2 = macro_confusion(&recs, &model, &params).expect("aligned streams");
        assert_eq!(c, c2);
    }

    #[test]
    fn macro_agreement_of_empty_is_one() {
        assert_eq!(macro_agreement(&[[0; 4]; 4]), 1.0);
        let mut m = [[0u64; 4]; 4];
        m[0][0] = 3;
        m[1][2] = 1;
        assert!((macro_agreement(&m) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn identical_distributions_compare_clean() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-5).collect();
        let a = EmpiricalCdf::from_samples(&samples);
        let c = compare_cdfs(&a, &a);
        assert_eq!(c.ks, 0.0);
        for r in &c.rows {
            assert_eq!(r.truth, r.approx);
            assert_eq!(r.rel_error(), 0.0);
        }
    }

    #[test]
    fn shifted_distribution_shows_signed_error() {
        let truth: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let approx: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.8).collect();
        let c = compare_cdfs(
            &EmpiricalCdf::from_samples(&truth),
            &EmpiricalCdf::from_samples(&approx),
        );
        assert!(c.ks > 0.15, "ks {}", c.ks);
        for r in &c.rows {
            assert!(
                (r.rel_error() + 0.2).abs() < 0.01,
                "underestimates by 20%: {:?}",
                r
            );
        }
    }

    #[test]
    fn metric_rows_name_every_reported_quantile() {
        let truth: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let approx: Vec<f64> = (1..=500).map(|i| i as f64 * 2.0).collect();
        let c = compare_cdfs(
            &EmpiricalCdf::from_samples(&truth),
            &EmpiricalCdf::from_samples(&approx),
        );
        let rows = c.metric_rows();
        let named: Vec<String> = rows
            .iter()
            .map(|m| format!("{}[{}]", m.name, m.label))
            .collect();
        assert_eq!(named[0], "hybrid/rtt/ks[]");
        assert_eq!(
            named[1..3],
            ["hybrid/rtt/truth[p10]", "hybrid/rtt/approx[p10]"]
        );
        assert_eq!(
            named[13..15],
            ["hybrid/rtt/truth[p99.9]", "hybrid/rtt/approx[p99.9]"]
        );
        assert_eq!(
            named[15..],
            ["hybrid/rtt/samples[truth]", "hybrid/rtt/samples[approx]"]
        );
        assert_eq!(
            (rows[0].value, rows[15].count, rows[16].count),
            (c.ks, 1000, 500)
        );
        for (r, pair) in c.rows.iter().zip(rows[1..15].chunks(2)) {
            assert_eq!((pair[0].value, pair[1].value), (r.truth, r.approx));
        }
    }

    #[test]
    fn zero_truth_quantile_handled() {
        let r = PercentileRow {
            q: 0.5,
            truth: 0.0,
            approx: 1.0,
        };
        assert!(r.rel_error().is_infinite());
        let r0 = PercentileRow {
            q: 0.5,
            truth: 0.0,
            approx: 0.0,
        };
        assert_eq!(r0.rel_error(), 0.0);
    }
}
