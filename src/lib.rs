//! # elephant — fast network simulation through approximation
//!
//! A from-scratch Rust reproduction of *"Fast Network Simulation Through
//! Approximation or: How Blind Men Can Describe Elephants"* (HotNets '18):
//! a hybrid data-center simulator in which one cluster runs at full packet
//! fidelity while every other cluster's fabric is replaced by a learned
//! model — a fast auto-regressive macro congestion classifier plus
//! per-packet LSTM predictors of drop and latency.
//!
//! This umbrella crate re-exports the workspace members; depend on it for
//! the one-stop API, or on the members individually:
//!
//! * [`des`] — deterministic discrete-event kernel + conservative PDES;
//! * [`net`] — packet-level Clos simulator (switches, ECMP, TCP New
//!   Reno / DCTCP) with the oracle seam and boundary capture;
//! * [`nn`] — the LSTM/linear/SGD substrate the micro models run on;
//! * [`obs`] — observability values: timeline, statistics kernels, and
//!   exportable run reports;
//! * [`trace`] — workload synthesis (DCTCP web-search sizes, Poisson
//!   arrivals, locality mixes) and CSV export;
//! * [`core`] — the paper's contribution: macro model, features, learned
//!   oracles, the train-and-approximate pipeline, accuracy metrics;
//! * [`scenario`] — declarative TOML scenarios: schema, validating
//!   loader, and the compiler lowering them onto the drivers above.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the
//! paper-to-module map, and `examples/` for runnable entry points.

#![warn(missing_docs)]

pub use elephant_core as core;
pub use elephant_des as des;
pub use elephant_net as net;
pub use elephant_nn as nn;
pub use elephant_obs as obs;
pub use elephant_scenario as scenario;
pub use elephant_trace as trace;
