//! # elephant-nn — the from-scratch deep-learning substrate
//!
//! The paper trained its micro models with PyTorch 0.4 on a Tesla P100 and
//! called them from OMNeT++ through ATEN. This crate replaces that entire
//! stack with a dependency-free implementation sized to the problem: the
//! models are two-layer LSTMs with at most 128 hidden units, which train
//! and serve comfortably on a CPU.
//!
//! Contents:
//!
//! * [`Matrix`] and its kernels — the only linear algebra the models need
//!   (matvec, the fused gate kernel, transposed matvec, rank-1
//!   accumulation), over weights stored in row panels;
//! * [`sigmoid`] and [`tanh`] — the gate activations, shared by training
//!   and serving;
//! * [`Linear`] and [`Lstm`] layers with exact backpropagation (BPTT for
//!   the LSTM), finite-difference-checked in the test suite;
//! * [`MicroNet`] — the paper's §4.2 architecture: shared LSTM trunk, one
//!   fully connected head for latency, one for drop, joint loss
//!   `L = L_drop + α·L_latency` with latency error masked on drops;
//! * [`Sgd`] with momentum and global-norm clipping, defaulting to the
//!   paper's published hyper-parameters (lr 1e-4, momentum 0.9, batch 64);
//! * [`MicroNet::zeros`] and [`MicroNetConfig::param_count`], with which
//!   a reader shapes a model from its config before filling in the weights
//!   (the weights themselves have no serialized form here).
//!
//! ```
//! use elephant_nn::{MicroNet, MicroNetConfig, Sample, TrainConfig, Trainer};
//! use elephant_des::SmallRng;
//!
//! let cfg = MicroNetConfig::compact(4);
//! let model = MicroNet::new(cfg, &mut SmallRng::seed_from_u64(1));
//! let mut trainer = Trainer::new(model, TrainConfig::default());
//! let window: Vec<Sample> = (0..8)
//!     .map(|i| Sample { features: vec![0.1 * i as f32; 4], dropped: i % 4 == 0, latency: 0.2 })
//!     .collect();
//! let loss = trainer.train_window(&window);
//! assert!(loss.total(cfg.alpha).is_finite());
//! let trained = trainer.into_model();
//! let verdict = trained.predict(&[0.1; 4], &mut trained.init_state());
//! assert!((0.0..=1.0).contains(&verdict.drop_prob));
//! ```

#![warn(missing_docs)]

mod activation;
mod linear;
mod lstm;
mod matrix;
mod model;
mod sgd;

pub use activation::{sigmoid, sigmoid_inplace, tanh, tanh_inplace};
pub use linear::{Linear, LinearGrad};
pub use lstm::{CellState, Lstm, LstmCell, LstmCellGrad, LstmSeqCache, LstmState};
pub use matrix::Matrix;
pub use model::{
    MicroNet, MicroNetConfig, MicroNetGrads, MicroNetState, Prediction, Sample, TrainConfig,
    Trainer, WindowLoss,
};
pub use sgd::{clip_global_norm, Sgd};
