//! # elephant-core — fast network simulation through approximation
//!
//! The paper's contribution, on top of the workspace's substrates: replace
//! most of a data center's cluster fabrics with learned approximations and
//! keep one cluster (plus the core layer) at packet fidelity, so
//! simulations run orders of magnitude less work while full-fidelity
//! statistics can still be drawn from the un-approximated region.
//!
//! The pieces, mapped to the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | §4.1 macro states (4-regime auto-regressive classifier) | [`MacroModel`], [`MacroState`] |
//! | §4.2 per-packet features from headers + routing knowledge | [`FeatureExtractor`], [`FEATURE_DIM`] |
//! | §4.2 micro models (ingress + egress LSTM, joint drop/latency heads) | [`ClusterModel`] (built on `elephant_nn::MicroNet`) |
//! | §4.2 impossible-schedule conflict rule | enforced by the engine (`elephant_net`'s boundary gate) |
//! | §3 workflow: simulate small → train → assemble large | [`run_ground_truth`] → [`train_cluster_model`] → [`run_hybrid`] |
//! | §6.1 CDF-level accuracy comparison | [`compare_cdfs`] |
//!
//! ## The full workflow
//!
//! ```no_run
//! use elephant_core::{
//!     run_ground_truth, run_hybrid, train_cluster_model, DropPolicy, LearnedOracle,
//!     TrainingOptions,
//! };
//! use elephant_des::SimTime;
//! use elephant_net::{ClosParams, NetConfig};
//! use elephant_trace::{filter_touching_cluster, generate, WorkloadConfig};
//!
//! // 1. Ground truth: two clusters, capture around cluster 1.
//! let small = ClosParams::paper_cluster(2);
//! let horizon = SimTime::from_millis(200);
//! let flows = generate(&small, &WorkloadConfig::paper_default(horizon, 1));
//! let (net, _) = run_ground_truth(small, NetConfig::default(), Some(1), &flows, horizon);
//! let records = elephant_core::capture_records(net).expect("capture was enabled");
//!
//! // 2. Train the macro + micro models from the capture.
//! let (model, report) = train_cluster_model(&records, &small, &TrainingOptions::default());
//! println!("held-out drop accuracy: {:.3}", report.up.eval.drop_accuracy);
//!
//! // 3. Reuse the trained cluster model at 16x scale, eliding traffic
//! //    that never touches the observed cluster.
//! let big = ClosParams::paper_cluster(16);
//! let big_flows = filter_touching_cluster(
//!     &generate(&big, &WorkloadConfig::paper_default(horizon, 2)), 0);
//! let oracle = LearnedOracle::new(model, big, DropPolicy::Sample, 3);
//! let (hybrid, meta) =
//!     run_hybrid(big, 0, Box::new(oracle), NetConfig::default(), &big_flows, horizon);
//! println!("{} events, RTT p99 = {:?}", meta.events, hybrid.stats.rtt_cdf().quantile(0.99));
//! ```

#![warn(missing_docs)]

mod accuracy;
mod audit;
mod cache;
mod error;
mod experiment;
mod features;
mod learned;
mod ledger;
mod macro_model;
mod oracle_stack;
mod pipeline;
mod supervise;
mod train;

pub use accuracy::{
    compare_cdfs, macro_agreement, macro_confusion, CdfComparison, PercentileRow, REPORT_QUANTILES,
};
pub use audit::{run_audit, AuditHooks, AuditRun};
pub use cache::{
    CacheStats, CacheStatsHandle, CacheTotals, FeatureQuantizer, QuantizerConfig, VerdictCache,
    VerdictKey, DEFAULT_LEVELS, KEY_BYTES, NAN_BUCKET,
};
pub use error::ElephantError;
pub use experiment::{
    capture_records, execute, partition_rows, run_ground_truth, run_hybrid, single_oracle, Exec,
    Fidelity, Observe, OracleCounters, OracleFactory, Outcome, PdesExec, PdesRun, RunMeta, RunPlan,
    OUTCOME_COUNTERS,
};
pub use features::{FeatureExtractor, LatencyCodec, FEATURE_DIM};
pub use learned::{
    ClusterModel, DropPolicy, LearnedOracle, ModelFile, ModelMeta, OracleStats, MODEL_MAGIC,
    MODEL_VERSION,
};
pub use ledger::{compare_ledgers, fnv1a_64, RunLedger, LEDGER_SCHEMA_VERSION};
pub use macro_model::{MacroConfig, MacroModel, MacroState};
pub use oracle_stack::{guard_primary, oracle_stack, OracleStack};
pub use pipeline::{Serving, VerdictClocks};
pub use supervise::{
    RecoveryEvent, RecoveryLog, RecoveryPolicy, Rung, DEFAULT_CHECKPOINT_EVERY, DEFAULT_MAX_RETRIES,
};
pub use train::{
    build_samples, calibrate_macro, evaluate, model_meta, train_cluster_model, DirectionReport,
    EvalMetrics, TrainReport, TrainingOptions,
};
