//! Observability for the elephant workspace: a Chrome-trace timeline,
//! shared statistics kernels (histograms / CDFs / running summaries),
//! divergence statistics, and the exportable run report with its
//! metric-row shape.
//!
//! This crate is a dependency root (alongside `elephant-des`): every other
//! crate may depend on it, and it depends only on the serde shims. It
//! holds no process-wide state. A run's counts and clocks are plain fields
//! of its own state, and `elephant-core` turns a finished run into
//! [`MetricRow`]s named `subsystem/area/metric` as documented in DESIGN.md
//! — e.g. `des/kernel/events_executed`, `net/port/drops`,
//! `pdes/epoch/planned` — and into the report's [`ProfileRow`]s.
//! Collection that costs something (the FEL-peak sampler, the oracle's
//! inference timer) is asked for per run, by `elephant_core::Observe`.

pub mod diverge;
pub mod hist;
pub mod report;
pub mod timeline;

pub use diverge::{
    ks_distance, wasserstein1, DivergenceBounds, DivergenceReport, DriftRow, HistSummary,
};
pub use hist::{EmpiricalCdf, LogHistogram, Summary};
pub use report::{MetricRow, PartitionRow, ProfileRow, RunReport};
pub use timeline::{ArgValue, Timeline, TracePhase, TraceRecord, PID_FLOWS, PID_PDES, PID_SAMPLES};

/// Does nothing. There is no process-wide collection switch: a run asks
/// for costly collection through `elephant_core::Observe::profile`. The
/// function remains only because the `benchmark/` package's bindings
/// still call it.
pub fn set_enabled(_on: bool) {}
