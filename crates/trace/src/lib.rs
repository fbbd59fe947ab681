//! # elephant-trace — workload synthesis and experiment I/O
//!
//! The paper's traffic comes from a proprietary data-center web trace
//! (reference \[3\], the DCTCP study). This crate substitutes the published
//! shape of that trace: the DCTCP web-search flow-size CDF (and VL2's
//! data-mining CDF), independent per-host Poisson arrivals calibrated to a
//! target offered load, and a configurable rack/cluster/inter-cluster
//! locality mix. See DESIGN.md for why this substitution preserves the
//! behaviour the paper's models learn from.
//!
//! Also here: the traffic-elision helper for hybrid runs
//! ([`filter_touching_cluster`]), pathological workload builders
//! ([`incast`], [`permutation`]), and CSV export for figure data.
#![warn(missing_docs)]

mod export;
mod profile;
mod sizes;
mod workload;

pub use export::write_csv;
pub use profile::LoadProfile;
pub use sizes::SizeDist;
pub use workload::{
    filter_touching_cluster, generate, incast, permutation, realized_load, Locality, WorkloadConfig,
};
