//! The micro model: a stacked LSTM with joint drop and latency heads.
//!
//! This is the paper's §4.2 architecture verbatim: packet features feed a
//! (by default two-layer) LSTM; "the multi-dimensional hidden state output
//! from the LSTM is given to one fully connected layer to predict the
//! latency and another fully connected layer to predict packet drop",
//! trained jointly because "the neural network representation can learn the
//! joint distribution of drops and latency". The loss is
//! `L = L_drop + α·L_latency` with binary cross-entropy on drops, mean
//! squared error on latency, and **no latency error backpropagated for
//! dropped packets**.

use elephant_des::SmallRng;
use serde::{Deserialize, Serialize};

use crate::activation::sigmoid;
use crate::linear::{Linear, LinearGrad};
use crate::lstm::{Lstm, LstmCellGrad, LstmState};
use crate::sgd::{clip_global_norm, Sgd};

/// Architecture and loss hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MicroNetConfig {
    /// Feature-vector width.
    pub input: usize,
    /// Hidden units per LSTM layer (paper prototype: 128).
    pub hidden: usize,
    /// Stacked LSTM layers (paper prototype: 2).
    pub layers: usize,
    /// Loss balance α in `(0, 1]`: "the contribution of drops in
    /// determining future behavior is more significant than latency".
    pub alpha: f32,
}

impl MicroNetConfig {
    /// The paper's prototype: two layers of 128 hidden nodes, α = 0.5.
    pub fn paper(input: usize) -> Self {
        MicroNetConfig {
            input,
            hidden: 128,
            layers: 2,
            alpha: 0.5,
        }
    }

    /// A smaller, CPU-friendly configuration used by the workspace's
    /// default experiments (see DESIGN.md: absolute model capacity is not
    /// load-bearing for the reproduction's shape targets).
    pub fn compact(input: usize) -> Self {
        MicroNetConfig {
            input,
            hidden: 32,
            layers: 2,
            alpha: 0.5,
        }
    }

    /// Number of parameters a [`MicroNet`] of this architecture holds, or
    /// `None` if the count does not fit in a `usize`. Computed without
    /// building the net, so a reader can check a payload against a config
    /// before allocating for it.
    pub fn param_count(&self) -> Option<usize> {
        let MicroNetConfig {
            input,
            hidden,
            layers,
            ..
        } = *self;
        // Each layer: gates `4H × (below + H)` plus a `4H` bias; the bottom
        // one reads the input, the `layers - 1` above it the layer below.
        let gates = 4usize.checked_mul(hidden)?;
        let layer = |below: usize| gates.checked_mul(below.checked_add(hidden)?.checked_add(1)?);
        let trunk = match layers {
            0 => 0,
            _ => layer(input)?.checked_add(layer(hidden)?.checked_mul(layers - 1)?)?,
        };
        // Two heads of `1 × H` weights and one bias.
        trunk.checked_add(hidden.checked_add(1)?.checked_mul(2)?)
    }
}

/// One training example: features plus ground truth from boundary capture.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Normalized feature vector.
    pub features: Vec<f32>,
    /// Did the fabric drop the packet?
    pub dropped: bool,
    /// Normalized latency target (ignored when `dropped`).
    pub latency: f32,
}

/// The model's verdict for one packet.
#[derive(Clone, Copy, Debug)]
pub struct Prediction {
    /// Probability the fabric drops the packet.
    pub drop_prob: f32,
    /// Predicted (normalized) latency if it survives.
    pub latency: f32,
}

/// The micro model (see module docs).
#[derive(Clone, Debug)]
pub struct MicroNet {
    /// Architecture.
    pub cfg: MicroNetConfig,
    /// Shared recurrent trunk.
    pub lstm: Lstm,
    /// Latency regression head.
    pub latency_head: Linear,
    /// Drop classification head (logit; sigmoid applied at use).
    pub drop_head: Linear,
}

/// Persistent inference state (one per model instance per cluster).
#[derive(Clone, Debug)]
pub struct MicroNetState {
    lstm: LstmState,
    top: Vec<f32>,
}

/// Gradient buffers for a [`MicroNet`].
pub struct MicroNetGrads {
    lstm: Vec<LstmCellGrad>,
    latency: LinearGrad,
    drop: LinearGrad,
}

impl MicroNetGrads {
    /// Clears all buffers.
    pub fn zero(&mut self) {
        self.lstm.iter_mut().for_each(LstmCellGrad::zero);
        self.latency.zero();
        self.drop.zero();
    }
}

/// Loss decomposition over one training window.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowLoss {
    /// Mean binary cross-entropy of the drop head.
    pub drop_loss: f64,
    /// Mean squared error of the latency head (non-dropped samples).
    pub latency_loss: f64,
    /// Samples in the window.
    pub samples: usize,
    /// Samples contributing latency error.
    pub latency_samples: usize,
    /// Drop-classification hits at threshold 0.5.
    pub drop_correct: usize,
}

impl WindowLoss {
    /// The paper's combined objective `L = L_drop + α·L_latency`.
    pub fn total(&self, alpha: f32) -> f64 {
        self.drop_loss + alpha as f64 * self.latency_loss
    }

    /// Accumulates another window's loss (weighted by sample counts).
    pub fn merge(&mut self, other: &WindowLoss) {
        let n1 = self.samples as f64;
        let n2 = other.samples as f64;
        if n1 + n2 > 0.0 {
            self.drop_loss = (self.drop_loss * n1 + other.drop_loss * n2) / (n1 + n2);
        }
        let l1 = self.latency_samples as f64;
        let l2 = other.latency_samples as f64;
        if l1 + l2 > 0.0 {
            self.latency_loss = (self.latency_loss * l1 + other.latency_loss * l2) / (l1 + l2);
        }
        self.samples += other.samples;
        self.latency_samples += other.latency_samples;
        self.drop_correct += other.drop_correct;
    }
}

impl MicroNet {
    /// Fresh Xavier-initialized model.
    pub fn new(cfg: MicroNetConfig, rng: &mut SmallRng) -> Self {
        let lstm = Lstm::new(cfg.input, cfg.hidden, cfg.layers, rng);
        MicroNet {
            latency_head: Linear::new(cfg.hidden, 1, rng),
            drop_head: Linear::new(cfg.hidden, 1, rng),
            lstm,
            cfg,
        }
    }

    /// All-zero model of architecture `cfg`, whose weights a reader fills
    /// through [`MicroNet::param_slices`]. Builds `cfg.layers` cells even
    /// when that is none, so a reader checks the config first.
    pub fn zeros(cfg: MicroNetConfig) -> Self {
        MicroNet {
            lstm: Lstm::zeros(cfg.input, cfg.hidden, cfg.layers),
            latency_head: Linear::zeros(cfg.hidden, 1),
            drop_head: Linear::zeros(cfg.hidden, 1),
            cfg,
        }
    }

    /// Zeroed inference state.
    pub fn init_state(&self) -> MicroNetState {
        MicroNetState {
            lstm: self.lstm.init_state(),
            top: vec![0.0; self.cfg.hidden],
        }
    }

    /// Matching zeroed gradient buffers.
    pub fn grad_buffers(&self) -> MicroNetGrads {
        MicroNetGrads {
            lstm: self.lstm.grad_buffers(),
            latency: self.latency_head.grad_buffer(),
            drop: self.drop_head.grad_buffer(),
        }
    }

    /// Advances the stateful model one packet and returns its verdict —
    /// "prediction only involves a few matrix multiplications and
    /// non-linear transformations" (§4.2).
    ///
    /// On an x86-64 CPU with AVX2 this runs [`MicroNet::predict_portable`]
    /// compiled for AVX2, elsewhere the portable build of it; both give the
    /// same bits (see the `matrix` module docs).
    pub fn predict(&self, features: &[f32], state: &mut MicroNetState) -> Prediction {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `predict_avx2` needs AVX2, which the CPU was just
            // detected to have.
            return unsafe { self.predict_avx2(features, state) };
        }
        self.predict_portable(features, state)
    }

    /// [`MicroNet::predict_portable`] with the whole step inlined and
    /// compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn predict_avx2(&self, features: &[f32], state: &mut MicroNetState) -> Prediction {
        self.predict_portable(features, state)
    }

    /// The body of [`MicroNet::predict`], built for the target's baseline
    /// instruction set wherever it is called from outside an AVX2 clone.
    #[inline(always)]
    pub(crate) fn predict_portable(
        &self,
        features: &[f32],
        state: &mut MicroNetState,
    ) -> Prediction {
        self.lstm
            .step_infer(features, &mut state.lstm, &mut state.top);
        let mut lat = [0.0f32];
        let mut logit = [0.0f32];
        self.latency_head.forward(&state.top, &mut lat);
        self.drop_head.forward(&state.top, &mut logit);
        Prediction {
            drop_prob: sigmoid(logit[0]),
            latency: lat[0],
        }
    }

    /// Evaluates a window without touching gradients.
    pub fn evaluate_window(&self, samples: &[Sample]) -> WindowLoss {
        self.window_pass(samples, None)
    }

    /// Forward + backward over one window; gradients accumulate into
    /// `grads`. Returns the loss decomposition.
    pub fn train_window(&self, samples: &[Sample], grads: &mut MicroNetGrads) -> WindowLoss {
        self.window_pass(samples, Some(grads))
    }

    fn window_pass(&self, samples: &[Sample], grads: Option<&mut MicroNetGrads>) -> WindowLoss {
        assert!(!samples.is_empty(), "empty training window");
        let xs: Vec<Vec<f32>> = samples.iter().map(|s| s.features.clone()).collect();
        let (tops, cache) = self.lstm.forward_seq(&xs);

        let n = samples.len() as f32;
        let mut loss = WindowLoss {
            samples: samples.len(),
            ..Default::default()
        };
        let mut dh_top: Vec<Vec<f32>> = Vec::with_capacity(samples.len());
        let mut head_grads: Option<&mut MicroNetGrads> = grads;

        // Count latency samples first so gradient scaling is correct.
        let n_lat = samples.iter().filter(|s| !s.dropped).count().max(1) as f32;

        for (t, sample) in samples.iter().enumerate() {
            let h = &tops[t];
            let mut lat = [0.0f32];
            let mut logit = [0.0f32];
            self.latency_head.forward(h, &mut lat);
            self.drop_head.forward(h, &mut logit);
            let p = sigmoid(logit[0]);
            let y = sample.dropped as u8 as f32;

            // Binary cross-entropy with the usual clamp.
            let pc = p.clamp(1e-7, 1.0 - 1e-7);
            loss.drop_loss += -(y * pc.ln() + (1.0 - y) * (1.0 - pc).ln()) as f64;
            if (p >= 0.5) == sample.dropped {
                loss.drop_correct += 1;
            }

            let mut dh = vec![0.0f32; h.len()];
            // d(BCE∘σ)/dlogit = p − y, averaged over the window.
            let dlogit = [(p - y) / n];
            let mut dlat = [0.0f32];
            if !sample.dropped {
                let err = lat[0] - sample.latency;
                loss.latency_loss += (err * err) as f64;
                loss.latency_samples += 1;
                // No latency error is back-propagated for drops (§4.2).
                dlat[0] = self.cfg.alpha * 2.0 * err / n_lat;
            }
            if let Some(g) = head_grads.as_deref_mut() {
                self.drop_head.backward(h, &dlogit, &mut g.drop, &mut dh);
                if !sample.dropped {
                    self.latency_head
                        .backward(h, &dlat, &mut g.latency, &mut dh);
                }
            }
            dh_top.push(dh);
        }
        loss.drop_loss /= samples.len() as f64;
        if loss.latency_samples > 0 {
            loss.latency_loss /= loss.latency_samples as f64;
        }

        if let Some(g) = head_grads {
            self.lstm.backward_seq(&cache, &dh_top, &mut g.lstm);
        }
        loss
    }

    /// Flat views of every parameter, in a stable order.
    pub fn param_slices(&mut self) -> Vec<&mut [f32]> {
        let mut v: Vec<&mut [f32]> = Vec::new();
        for cell in &mut self.lstm.cells {
            v.push(cell.w.data_mut());
            v.push(cell.b.as_mut_slice());
        }
        v.push(self.latency_head.w.data_mut());
        v.push(self.latency_head.b.as_mut_slice());
        v.push(self.drop_head.w.data_mut());
        v.push(self.drop_head.b.as_mut_slice());
        v
    }

    /// Read-only flat views of every parameter, ordered to match
    /// [`MicroNet::param_slices`].
    pub fn param_views(&self) -> Vec<&[f32]> {
        let mut v: Vec<&[f32]> = Vec::new();
        for cell in &self.lstm.cells {
            v.push(cell.w.data());
            v.push(cell.b.as_slice());
        }
        v.push(self.latency_head.w.data());
        v.push(self.latency_head.b.as_slice());
        v.push(self.drop_head.w.data());
        v.push(self.drop_head.b.as_slice());
        v
    }

    /// FNV-1a checksum over the raw bit pattern of every parameter, in
    /// [`MicroNet::param_slices`] order. Stable across platforms because it
    /// hashes `f32::to_bits` little-endian.
    pub fn weight_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for slice in self.param_views() {
            for &w in slice {
                for byte in w.to_bits().to_le_bytes() {
                    h ^= byte as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Number of non-finite (NaN or infinite) parameters in the network.
    pub fn non_finite_params(&self) -> usize {
        self.param_views()
            .iter()
            .map(|s| s.iter().filter(|w| !w.is_finite()).count())
            .sum()
    }
}

impl MicroNetGrads {
    /// Flat views of every gradient, ordered to match
    /// [`MicroNet::param_slices`].
    pub fn grad_slices(&mut self) -> Vec<&mut [f32]> {
        let mut v: Vec<&mut [f32]> = Vec::new();
        for cell in &mut self.lstm {
            v.push(cell.w.data_mut());
            v.push(cell.b.as_mut_slice());
        }
        v.push(self.latency.w.data_mut());
        v.push(self.latency.b.as_mut_slice());
        v.push(self.drop.w.data_mut());
        v.push(self.drop.b.as_mut_slice());
        v
    }
}

/// Training-loop hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Learning rate (paper: 1e-4).
    pub lr: f32,
    /// Momentum (paper: 0.9).
    pub momentum: f32,
    /// Windows per optimizer step (paper batch size: 64).
    pub batch: usize,
    /// Global-norm gradient clip.
    pub clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-4,
            momentum: 0.9,
            batch: 64,
            clip: 5.0,
        }
    }
}

/// Owns a model plus its optimizer state through a training run.
pub struct Trainer {
    /// The model being trained.
    pub model: MicroNet,
    grads: MicroNetGrads,
    sgd: Sgd,
    cfg: TrainConfig,
    pending: usize,
}

impl Trainer {
    /// Wraps a fresh model.
    pub fn new(model: MicroNet, cfg: TrainConfig) -> Self {
        Trainer {
            grads: model.grad_buffers(),
            sgd: Sgd::new(cfg.lr, cfg.momentum),
            model,
            cfg,
            pending: 0,
        }
    }

    /// Accumulates one window; steps the optimizer every `batch` windows.
    pub fn train_window(&mut self, samples: &[Sample]) -> WindowLoss {
        let loss = self.model.train_window(samples, &mut self.grads);
        self.pending += 1;
        if self.pending >= self.cfg.batch {
            self.apply();
        }
        loss
    }

    /// Flushes any accumulated gradients (end of epoch).
    pub fn flush(&mut self) {
        if self.pending > 0 {
            self.apply();
        }
    }

    fn apply(&mut self) {
        {
            let mut gs = self.grads.grad_slices();
            // Average over the accumulated windows.
            let scale = 1.0 / self.pending as f32;
            for g in gs.iter_mut() {
                for v in g.iter_mut() {
                    *v *= scale;
                }
            }
            clip_global_norm(&mut gs, self.cfg.clip);
        }
        let mut ps = self.model.param_slices();
        let gs = self.grads.grad_slices();
        let gs_ro: Vec<&[f32]> = gs.iter().map(|g| &**g).collect();
        self.sgd.step(&mut ps, &gs_ro);
        drop(ps);
        self.grads.zero();
        self.pending = 0;
    }

    /// Runs one pass over `windows`, returning the aggregate loss.
    pub fn train_epoch(&mut self, windows: &[Vec<Sample>]) -> WindowLoss {
        let mut agg = WindowLoss::default();
        for w in windows {
            let l = self.train_window(w);
            agg.merge(&l);
        }
        self.flush();
        agg
    }

    /// Consumes the trainer, returning the trained model.
    pub fn into_model(self) -> MicroNet {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_models_have_the_shapes_they_declare() {
        let mut rng = SmallRng::seed_from_u64(4);
        let sizes =
            |net: &MicroNet| -> Vec<usize> { net.param_views().iter().map(|s| s.len()).collect() };
        for (input, hidden, layers) in [(14, 8, 1), (3, 5, 2), (14, 32, 3)] {
            let cfg = MicroNetConfig {
                input,
                hidden,
                layers,
                alpha: 0.5,
            };
            let (net, zeros) = (MicroNet::new(cfg, &mut rng), MicroNet::zeros(cfg));
            assert_eq!(sizes(&zeros), sizes(&net));
            assert_eq!(cfg.param_count(), Some(sizes(&net).iter().sum()));
            assert!(zeros
                .param_views()
                .iter()
                .all(|s| s.iter().all(|&w| w == 0.0)));
        }
        // No layers: only the two heads.
        let none = MicroNetConfig {
            layers: 0,
            ..MicroNetConfig::compact(3)
        };
        assert_eq!(none.param_count(), Some(2 * 33));
        assert_eq!(sizes(&MicroNet::zeros(none)), [32, 1, 32, 1]);
        // A count past `usize` is `None`, not a wrapped small number.
        let huge = MicroNetConfig {
            hidden: usize::MAX / 4,
            ..MicroNetConfig::compact(3)
        };
        assert_eq!(huge.param_count(), None);
        // So is one past it by layer count, counted without a loop.
        let deep = MicroNetConfig {
            layers: usize::MAX,
            ..MicroNetConfig::compact(3)
        };
        assert_eq!(deep.param_count(), None);
    }

    #[test]
    fn param_and_grad_views_line_up() {
        let mut rng = SmallRng::seed_from_u64(21);
        let cfg = MicroNetConfig {
            input: 3,
            hidden: 5,
            layers: 2,
            alpha: 0.5,
        };
        let mut net = MicroNet::new(cfg, &mut rng);
        let mut grads = net.grad_buffers();
        let views: Vec<usize> = net.param_views().iter().map(|s| s.len()).collect();
        let params: Vec<usize> = net.param_slices().iter().map(|s| s.len()).collect();
        let grad: Vec<usize> = grads.grad_slices().iter().map(|s| s.len()).collect();
        assert_eq!(params, views);
        assert_eq!(params, grad);
        // Two layers of (gates, bias), then two heads of (weights, bias).
        assert_eq!(params, [4 * 5 * 8, 4 * 5, 4 * 5 * 10, 4 * 5, 5, 1, 5, 1]);
    }

    /// A learnable synthetic task: drop iff feature[0] > 0; latency =
    /// 0.8·feature[1] + 0.1.
    fn synth_windows(n_windows: usize, len: usize, seed: u64) -> Vec<Vec<Sample>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n_windows)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        let f0 = rng.range_f32(-1.0..1.0);
                        let f1 = rng.range_f32(-1.0..1.0);
                        Sample {
                            features: vec![f0, f1, 0.3],
                            dropped: f0 > 0.0,
                            latency: 0.8 * f1 + 0.1,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_on_learnable_task() {
        let cfg = MicroNetConfig {
            input: 3,
            hidden: 16,
            layers: 2,
            alpha: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let model = MicroNet::new(cfg, &mut rng);
        let windows = synth_windows(32, 16, 99);

        let mut trainer = Trainer::new(
            model,
            TrainConfig {
                lr: 0.5,
                momentum: 0.9,
                batch: 4,
                clip: 5.0,
            },
        );
        let first = trainer.train_epoch(&windows);
        let mut last = WindowLoss::default();
        for _ in 0..80 {
            last = trainer.train_epoch(&windows);
        }
        assert!(
            last.total(cfg.alpha) < first.total(cfg.alpha) * 0.5,
            "loss fell: {} -> {}",
            first.total(cfg.alpha),
            last.total(cfg.alpha)
        );
        // Drop classification should be much better than chance.
        let acc = last.drop_correct as f64 / last.samples as f64;
        assert!(acc > 0.85, "drop accuracy {acc}");
    }

    #[test]
    fn predict_is_deterministic_and_stateful() {
        let cfg = MicroNetConfig::compact(4);
        let mut rng = SmallRng::seed_from_u64(2);
        let model = MicroNet::new(cfg, &mut rng);
        let mut s1 = model.init_state();
        let mut s2 = model.init_state();
        let x = vec![0.1, -0.2, 0.3, 0.4];
        let p1 = model.predict(&x, &mut s1);
        let p2 = model.predict(&x, &mut s2);
        assert_eq!(p1.drop_prob, p2.drop_prob);
        assert_eq!(p1.latency, p2.latency);
        // Feeding more history changes the verdict for the same packet.
        let p1b = model.predict(&x, &mut s1);
        assert_ne!(p1.latency, p1b.latency);
        assert!((0.0..=1.0).contains(&p1.drop_prob));
    }

    /// The AVX2 clone of `predict` against its portable body, bit for
    /// bit: 2,000 verdicts in a row, at the served hidden width and at one
    /// whose panels are ragged.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_clone_computes_the_portable_bits() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        let shapes = [
            MicroNetConfig::compact(3),
            MicroNetConfig {
                input: 3,
                hidden: 5,
                layers: 2,
                alpha: 0.5,
            },
        ];
        for cfg in shapes {
            let model = MicroNet::new(cfg, &mut SmallRng::seed_from_u64(8));
            let (mut wide, mut narrow) = (model.init_state(), model.init_state());
            let mut rng = SmallRng::seed_from_u64(9);
            for step in 0..2_000 {
                let x: Vec<f32> = (0..cfg.input).map(|_| rng.range_f32(-3.0..3.0)).collect();
                // SAFETY: the CPU has AVX2, checked at the top.
                let a = unsafe { model.predict_avx2(&x, &mut wide) };
                let b = model.predict_portable(&x, &mut narrow);
                assert_eq!(
                    (a.drop_prob.to_bits(), a.latency.to_bits()),
                    (b.drop_prob.to_bits(), b.latency.to_bits()),
                    "{cfg:?} step {step}"
                );
            }
        }
    }

    #[test]
    fn dropped_samples_contribute_no_latency_gradient() {
        let cfg = MicroNetConfig {
            input: 2,
            hidden: 8,
            layers: 1,
            alpha: 1.0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let model = MicroNet::new(cfg, &mut rng);
        let mut grads = model.grad_buffers();
        // All-dropped window with absurd latency targets: the latency head
        // must receive zero gradient.
        let window: Vec<Sample> = (0..8)
            .map(|i| Sample {
                features: vec![i as f32 * 0.1, -0.5],
                dropped: true,
                latency: 1e6,
            })
            .collect();
        let loss = model.train_window(&window, &mut grads);
        assert_eq!(loss.latency_samples, 0);
        assert_eq!(loss.latency_loss, 0.0);
        assert!(grads.latency.w.sq_norm() == 0.0, "latency head untouched");
        assert!(grads.drop.w.sq_norm() > 0.0, "drop head still learns");
    }

    #[test]
    fn window_loss_merge_weights_by_count() {
        let a = WindowLoss {
            drop_loss: 1.0,
            latency_loss: 2.0,
            samples: 10,
            latency_samples: 10,
            drop_correct: 5,
        };
        let mut b = WindowLoss {
            drop_loss: 3.0,
            latency_loss: 4.0,
            samples: 30,
            latency_samples: 10,
            drop_correct: 20,
        };
        b.merge(&a);
        assert!((b.drop_loss - 2.5).abs() < 1e-9); // (3*30 + 1*10)/40
        assert!((b.latency_loss - 3.0).abs() < 1e-9); // (4*10 + 2*10)/20
        assert_eq!(b.samples, 40);
        assert_eq!(b.drop_correct, 25);
    }

    #[test]
    fn trainer_flush_applies_partial_batches() {
        let cfg = MicroNetConfig {
            input: 2,
            hidden: 4,
            layers: 1,
            alpha: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(31);
        let model = MicroNet::new(cfg, &mut rng);
        let before = model.weight_checksum();
        // Batch of 64 but only one window accumulated: without flush the
        // weights would not move.
        let mut trainer = Trainer::new(
            model,
            TrainConfig {
                batch: 64,
                lr: 0.5,
                ..Default::default()
            },
        );
        let window = vec![
            Sample {
                features: vec![0.3, 0.7],
                dropped: false,
                latency: 0.9,
            },
            Sample {
                features: vec![0.1, 0.2],
                dropped: true,
                latency: 0.0,
            },
        ];
        trainer.train_window(&window);
        trainer.flush();
        let after = trainer.into_model().weight_checksum();
        assert_ne!(before, after, "flush applied the pending gradient");
    }

    #[test]
    fn alpha_scales_latency_gradient() {
        let mk = |alpha| {
            let cfg = MicroNetConfig {
                input: 2,
                hidden: 4,
                layers: 1,
                alpha,
            };
            let mut rng = SmallRng::seed_from_u64(9);
            let model = MicroNet::new(cfg, &mut rng);
            let mut grads = model.grad_buffers();
            let window = vec![Sample {
                features: vec![0.5, 0.5],
                dropped: false,
                latency: 10.0,
            }];
            model.train_window(&window, &mut grads);
            grads.latency.w.sq_norm()
        };
        let g_small = mk(0.1);
        let g_big = mk(1.0);
        assert!(
            g_big > g_small * 50.0,
            "alpha=1 gradient {g_big} vs alpha=0.1 {g_small}"
        );
    }
}
