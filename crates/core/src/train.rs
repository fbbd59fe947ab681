//! The training pipeline: ground-truth records → feature streams →
//! trained [`ClusterModel`].
//!
//! Paper §3's workflow: "we first briefly simulate a small network in full
//! packet-level fidelity to generate training and testing sets for a
//! machine learning model that can take incoming packets as inputs and
//! generate properly timed outgoing packets." The boundary capture in
//! `elephant-net` produces those sets; this module replays them through
//! the *same* macro classifier and feature extractor the deployed oracle
//! uses, trains the two directional micro models, and evaluates on a
//! held-out time suffix (split by time, not at random, so no future
//! leaks into the past).

use elephant_des::SmallRng;
use elephant_net::{BoundaryRecord, ClosParams, Direction};
use elephant_nn::{MicroNet, MicroNetConfig, Sample, TrainConfig, Trainer, WindowLoss};
use elephant_obs::{LogHistogram, MetricRow};

use crate::features::{FeatureExtractor, LatencyCodec, FEATURE_DIM};
use crate::learned::{ClusterModel, ModelMeta};
use crate::macro_model::{MacroConfig, MacroModel};

/// Hyper-parameters of a training run.
#[derive(Clone, Copy, Debug)]
pub struct TrainingOptions {
    /// Hidden units per LSTM layer.
    pub hidden: usize,
    /// Stacked LSTM layers.
    pub layers: usize,
    /// Loss balance α (paper: 0 < α ≤ 1).
    pub alpha: f32,
    /// Optimizer settings (paper defaults: lr 1e-4, momentum 0.9, batch 64).
    pub train: TrainConfig,
    /// Passes over the training windows.
    pub epochs: usize,
    /// BPTT window length (packets per sequence).
    pub window: usize,
    /// Fraction of the record stream (by time) held out for evaluation.
    pub holdout: f64,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
    /// Feed the micro model the macro regime (§4.1). `false` is the
    /// ablation: thresholds that can never fire keep the regime at
    /// `Minimal`, so its one-hot feature carries nothing.
    pub macro_state: bool,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        TrainingOptions {
            hidden: 32,
            layers: 2,
            alpha: 0.5,
            train: TrainConfig {
                lr: 0.05,
                momentum: 0.9,
                batch: 16,
                clip: 5.0,
            },
            epochs: 8,
            window: 32,
            holdout: 0.2,
            seed: 0xE1E,
            macro_state: true,
        }
    }
}

impl TrainingOptions {
    /// The paper's full-size prototype: 2×128 LSTM, lr 1e-4, batch 64.
    /// (Slow on CPU; the compact default reproduces the same shapes.)
    pub fn paper() -> Self {
        TrainingOptions {
            hidden: 128,
            layers: 2,
            alpha: 0.5,
            train: TrainConfig::default(),
            epochs: 20,
            window: 64,
            holdout: 0.2,
            seed: 0xE1E,
            macro_state: true,
        }
    }
}

/// Held-out evaluation metrics for one direction.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalMetrics {
    /// Fraction of held-out packets whose drop decision was correct at
    /// threshold 0.5.
    pub drop_accuracy: f64,
    /// RMSE of the normalized latency target over delivered packets.
    pub latency_rmse: f64,
    /// Held-out samples.
    pub samples: usize,
    /// Ground-truth drop rate of the held-out slice.
    pub true_drop_rate: f64,
    /// Wall seconds the evaluation spent per held-out sample.
    pub seconds_per_sample: f64,
}

/// Outcome of training one direction.
#[derive(Clone, Debug, Default)]
pub struct DirectionReport {
    /// Final-epoch training loss.
    pub train_loss: WindowLoss,
    /// Held-out metrics.
    pub eval: EvalMetrics,
    /// Training samples used.
    pub train_samples: usize,
    /// Every epoch's training loss, in order (`train_loss` is the last;
    /// empty when the direction had too little traffic to train).
    pub epochs: Vec<WindowLoss>,
    /// Wall seconds the last epoch took.
    pub last_epoch_seconds: f64,
}

/// Outcome of the full pipeline.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Host → core model.
    pub up: DirectionReport,
    /// Core → host model.
    pub down: DirectionReport,
    /// The calibrated macro thresholds baked into the model.
    pub macro_cfg: MacroConfig,
}

impl TrainReport {
    /// The ledger's `train/epoch/*` rows: every epoch's loss under weight
    /// `alpha`, the samples those epochs consumed, and the rate of the last
    /// epoch trained (up before down); then, per trained direction, the
    /// `train/eval/*` rows of its held-out evaluation.
    pub fn metric_rows(&self, alpha: f32) -> Vec<MetricRow> {
        let epochs = || [&self.up, &self.down].into_iter().flat_map(|d| &d.epochs);
        let mut loss = LogHistogram::for_latency_seconds();
        epochs().for_each(|e| loss.record(e.total(alpha)));
        let samples: usize = epochs().map(|e| e.samples).sum();
        let mut rows = vec![
            MetricRow::histogram("train/epoch/loss", "", &loss),
            MetricRow::counter("train/epoch/samples", "", samples as u64),
        ];
        // Down trains after up; an untrained direction took no time.
        let timed = |d: &&DirectionReport| d.last_epoch_seconds > 0.0;
        if let Some(d) = [&self.down, &self.up].into_iter().find(timed) {
            let rate = (d.train_loss.samples as f64 / d.last_epoch_seconds).trunc();
            rows.push(MetricRow::gauge("train/epoch/samples_per_sec", "", rate));
        }
        for (label, d) in [("up", &self.up), ("down", &self.down)] {
            let e = &d.eval;
            if e.samples > 0 {
                rows.extend([
                    MetricRow::gauge("train/eval/drop_accuracy", label, e.drop_accuracy),
                    MetricRow::gauge("train/eval/latency_rmse", label, e.latency_rmse),
                    MetricRow::gauge("train/eval/seconds_per_sample", label, e.seconds_per_sample),
                ]);
            }
        }
        rows
    }
}

/// Replays `records` (any order; sorted internally by fabric-entry time)
/// through the macro classifier and feature extractors, yielding
/// `(up_samples, down_samples)` in time order.
///
/// This must mirror the deployed oracle exactly — same extractor, same
/// one-classifier-per-cluster state machine — or training features and
/// inference features diverge. The one intentional difference: here the
/// macro model observes ground truth, at inference its own predictions
/// (the auto-regression the paper describes).
pub fn build_samples(
    records: &[BoundaryRecord],
    params: &ClosParams,
    macro_cfg: MacroConfig,
    codec: LatencyCodec,
) -> (Vec<Sample>, Vec<Sample>) {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].t_in);

    let mut macro_model = MacroModel::new(macro_cfg);
    let mut up_fx = FeatureExtractor::new(params);
    let mut down_fx = FeatureExtractor::new(params);
    let mut up = Vec::new();
    let mut down = Vec::new();

    for &i in &order {
        let r = &records[i];
        let state = macro_model.state();
        let fx = match r.direction {
            Direction::Up => &mut up_fx,
            Direction::Down => &mut down_fx,
        };
        let features = fx.extract(r.src, r.dst, r.size, r.direction, &r.path, r.t_in, state);
        let sample = Sample {
            features,
            dropped: r.dropped,
            latency: if r.dropped {
                0.0
            } else {
                codec.encode(r.latency)
            },
        };
        match r.direction {
            Direction::Up => up.push(sample),
            Direction::Down => down.push(sample),
        }
        macro_model.observe(
            if r.dropped {
                None
            } else {
                Some(r.latency.as_secs_f64())
            },
            r.dropped,
        );
    }
    (up, down)
}

/// Calibrates the macro thresholds from raw records (§4.1's "relatively
/// low/high" made concrete).
fn calibrate_macro(records: &[BoundaryRecord]) -> MacroConfig {
    let latencies: Vec<f64> = records
        .iter()
        .filter(|r| !r.dropped)
        .map(|r| r.latency.as_secs_f64())
        .collect();
    let drop_rate = if records.is_empty() {
        0.0
    } else {
        records.iter().filter(|r| r.dropped).count() as f64 / records.len() as f64
    };
    MacroConfig::calibrate(&latencies, drop_rate)
}

/// The macro thresholds of a model trained without the macro state: no
/// finite latency exceeds `latency_low` and no drop rate reaches
/// `drop_high`, so the regime stays `Minimal`. The bound is `f64::MAX`,
/// not `+inf`: JSON has no infinity, and the model file would read it
/// back as NaN, which no latency is at or below.
fn pinned_macro() -> MacroConfig {
    MacroConfig {
        latency_low: f64::MAX,
        drop_high: 2.0,
        ..MacroConfig::default()
    }
}

/// Training-time statistics embedded in the model artifact, from which
/// deployment derives guardrail tolerance bands (drop-rate drift, latency
/// ceilings).
pub fn model_meta(records: &[BoundaryRecord]) -> ModelMeta {
    let mut latencies: Vec<f64> = records
        .iter()
        .filter(|r| !r.dropped)
        .map(|r| r.latency.as_secs_f64())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let quantile = |p: f64| {
        if latencies.is_empty() {
            0.0
        } else {
            latencies[(((latencies.len() - 1) as f64) * p).round() as usize]
        }
    };
    let drops = records.iter().filter(|r| r.dropped).count();
    ModelMeta {
        train_drop_rate: if records.is_empty() {
            0.0
        } else {
            drops as f64 / records.len() as f64
        },
        train_latency_p50: quantile(0.5),
        train_latency_p99: quantile(0.99),
        train_records: records.len() as u64,
        quantizer: crate::cache::QuantizerConfig::default(),
    }
}

/// Runs the full §3 pipeline over captured records: calibrate the macro
/// model, build feature streams, train both directional micro models,
/// evaluate on the held-out tail.
pub fn train_cluster_model(
    records: &[BoundaryRecord],
    params: &ClosParams,
    opts: &TrainingOptions,
) -> (ClusterModel, TrainReport) {
    assert!(!records.is_empty(), "cannot train on an empty capture");
    assert!((0.0..1.0).contains(&opts.holdout));
    let macro_cfg = match opts.macro_state {
        true => calibrate_macro(records),
        false => pinned_macro(),
    };
    let codec = LatencyCodec::default();
    let (up_samples, down_samples) = build_samples(records, params, macro_cfg, codec);

    let net_cfg = MicroNetConfig {
        input: FEATURE_DIM,
        hidden: opts.hidden,
        layers: opts.layers,
        alpha: opts.alpha,
    };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let (up_model, up_report) = train_direction(&up_samples, net_cfg, opts, &mut rng);
    let (down_model, down_report) = train_direction(&down_samples, net_cfg, opts, &mut rng);

    (
        ClusterModel {
            up: up_model,
            down: down_model,
            macro_cfg,
            codec,
            meta: model_meta(records),
        },
        TrainReport {
            up: up_report,
            down: down_report,
            macro_cfg,
        },
    )
}

fn train_direction(
    samples: &[Sample],
    net_cfg: MicroNetConfig,
    opts: &TrainingOptions,
    rng: &mut SmallRng,
) -> (MicroNet, DirectionReport) {
    let model = MicroNet::new(net_cfg, rng);
    if samples.len() < opts.window {
        // Not enough traffic in this direction to learn from; ship the
        // untrained (random) model and say so.
        return (model, DirectionReport::default());
    }
    let split = ((samples.len() as f64) * (1.0 - opts.holdout)) as usize;
    let split = split.max(opts.window).min(samples.len());
    let (train_slice, eval_slice) = samples.split_at(split);

    let windows: Vec<Vec<Sample>> = train_slice
        .chunks(opts.window)
        .filter(|c| c.len() >= 2)
        .map(|c| c.to_vec())
        .collect();
    let mut trainer = Trainer::new(model, opts.train);
    let mut epochs = Vec::with_capacity(opts.epochs);
    let mut last_epoch_seconds = 0.0;
    for _ in 0..opts.epochs {
        let t0 = std::time::Instant::now();
        epochs.push(trainer.train_epoch(&windows));
        last_epoch_seconds = t0.elapsed().as_secs_f64();
    }
    let model = trainer.into_model();

    let eval = evaluate(&model, eval_slice, opts.window);
    (
        model,
        DirectionReport {
            train_loss: epochs.last().copied().unwrap_or_default(),
            eval,
            train_samples: train_slice.len(),
            epochs,
            last_epoch_seconds,
        },
    )
}

/// Evaluates a trained model on a held-out sample stream.
pub fn evaluate(model: &MicroNet, samples: &[Sample], window: usize) -> EvalMetrics {
    if samples.is_empty() {
        return EvalMetrics::default();
    }
    let t0 = std::time::Instant::now();
    let mut agg = WindowLoss::default();
    for chunk in samples.chunks(window.max(2)) {
        if chunk.len() >= 2 {
            agg.merge(&model.evaluate_window(chunk));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let drops = samples.iter().filter(|s| s.dropped).count();
    EvalMetrics {
        drop_accuracy: if agg.samples > 0 {
            agg.drop_correct as f64 / agg.samples as f64
        } else {
            0.0
        },
        latency_rmse: agg.latency_loss.sqrt(),
        samples: agg.samples,
        true_drop_rate: drops as f64 / samples.len() as f64,
        seconds_per_sample: wall / agg.samples.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::macro_model::MacroState;
    use elephant_des::{SimDuration, SimTime};
    use elephant_net::{FabricPath, FlowId, HostAddr};

    /// Synthetic records with feature-visible structure: drops happen
    /// exactly when the destination host index is ≥ 2; latency grows with
    /// the destination rack. Both facts are plain feature functions, so a
    /// working pipeline must learn them.
    fn synthetic_records(n: usize) -> Vec<BoundaryRecord> {
        (0..n)
            .map(|i| {
                let rack = ((i / 4) % 2) as u16;
                let host = ((i / 2) % 4) as u16;
                let dropped = host >= 2;
                BoundaryRecord {
                    t_in: SimTime::from_micros(10 * i as u64),
                    direction: if i % 2 == 0 {
                        Direction::Up
                    } else {
                        Direction::Down
                    },
                    flow: FlowId(i as u64),
                    src: HostAddr::new(1, rack, (i % 4) as u16),
                    dst: HostAddr::new(0, rack, host),
                    size: 1500,
                    path: FabricPath {
                        src_tor: rack,
                        src_agg: (i % 2) as u16,
                        core: Some((i % 2) as u16),
                        dst_agg: (i % 2) as u16,
                        dst_tor: rack,
                    },
                    dropped,
                    latency: if dropped {
                        SimDuration::ZERO
                    } else {
                        SimDuration::from_micros(5 + 40 * rack as u64)
                    },
                }
            })
            .collect()
    }

    #[test]
    fn build_samples_partitions_by_direction_in_time_order() {
        let params = ClosParams::paper_cluster(2);
        let records = synthetic_records(100);
        let (up, down) = build_samples(
            &records,
            &params,
            MacroConfig::default(),
            LatencyCodec::default(),
        );
        assert_eq!(up.len(), 50);
        assert_eq!(down.len(), 50);
        for s in up.iter().chain(down.iter()) {
            assert_eq!(s.features.len(), FEATURE_DIM);
            assert!(s.features.iter().all(|v| v.is_finite()));
            if !s.dropped {
                assert!((0.0..=1.0).contains(&s.latency));
            }
        }
    }

    #[test]
    fn pipeline_trains_and_beats_chance() {
        let params = ClosParams::paper_cluster(2);
        let records = synthetic_records(1200);
        let opts = TrainingOptions {
            hidden: 12,
            layers: 1,
            epochs: 25,
            window: 16,
            train: TrainConfig {
                lr: 0.3,
                momentum: 0.9,
                batch: 8,
                clip: 5.0,
            },
            ..Default::default()
        };
        let (model, report) = train_cluster_model(&records, &params, &opts);
        // Both directions drop exactly when dst.host >= 2 (a plain feature
        // function), so accuracy well above the 50% base rate is required.
        assert!(report.up.train_samples > 0);
        assert!(report.down.train_samples > 0);
        assert!(
            report.up.eval.drop_accuracy > 0.9,
            "up accuracy {}",
            report.up.eval.drop_accuracy
        );
        assert!(
            report.down.eval.drop_accuracy > 0.7,
            "down accuracy {} (true rate {})",
            report.down.eval.drop_accuracy,
            report.down.eval.true_drop_rate
        );
        // Latency is a clean function of the features; RMSE of the
        // normalized target should be small.
        assert!(
            report.up.eval.latency_rmse < 0.2,
            "rmse {}",
            report.up.eval.latency_rmse
        );
        // The returned bundle serializes.
        assert!(ClusterModel::load_json(&model.to_file_json()).is_ok());
        // The trained weights, bit for bit: pins the init draw order, the
        // parameter order and the training arithmetic across commits.
        assert_eq!(model.weight_checksum(), 11_181_054_216_849_093_564);
    }

    #[test]
    fn sparse_direction_ships_untrained_model() {
        let params = ClosParams::paper_cluster(2);
        // All records Up: the Down model cannot train.
        let records: Vec<BoundaryRecord> = synthetic_records(200)
            .into_iter()
            .map(|mut r| {
                r.direction = Direction::Up;
                r
            })
            .collect();
        let opts = TrainingOptions {
            epochs: 1,
            ..Default::default()
        };
        let (_, report) = train_cluster_model(&records, &params, &opts);
        assert_eq!(report.down.train_samples, 0);
        assert_eq!(report.down.eval.samples, 0);
        assert!(report.up.train_samples > 0);
    }

    #[test]
    fn a_model_without_the_macro_state_stays_minimal_and_loads() {
        let params = ClosParams::paper_cluster(2);
        let records = synthetic_records(600);
        let opts = TrainingOptions {
            epochs: 1,
            macro_state: false,
            ..Default::default()
        };
        let (model, _) = train_cluster_model(&records, &params, &opts);
        let loaded = ClusterModel::load_json(&model.to_file_json()).expect("the file loads");
        let mut regime = MacroModel::new(loaded.macro_cfg);
        for r in &records {
            let latency = (!r.dropped).then(|| r.latency.as_secs_f64());
            assert_eq!(regime.observe(latency, r.dropped), MacroState::Minimal);
        }
    }

    #[test]
    fn calibration_reflects_the_capture() {
        let records = synthetic_records(600);
        let cfg = calibrate_macro(&records);
        // Drop rate is 1/2 overall => threshold = 1.0.
        assert!((cfg.drop_high - 1.0).abs() < 0.02, "{}", cfg.drop_high);
        assert!(cfg.latency_low >= 5e-6 && cfg.latency_low <= 45e-6);
    }
}
