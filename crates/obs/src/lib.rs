//! Observability for the elephant workspace: a hierarchical phase
//! profiler, a Chrome-trace timeline, shared statistics kernels
//! (histograms / CDFs / running summaries), and the exportable run report
//! with its metric-row shape.
//!
//! This crate is a dependency root (alongside `elephant-des`): every other
//! crate may depend on it, and it depends only on the serde shims. There
//! is no metrics registry: a run's counts are plain fields of its own
//! state, and `elephant-core` turns a finished run into [`MetricRow`]s
//! named `subsystem/area/metric` as documented in DESIGN.md — e.g.
//! `des/kernel/events_executed`, `net/port/drops`, `pdes/epoch/planned`.

pub mod diverge;
pub mod hist;
pub mod profile;
pub mod registry;
pub mod report;
pub mod timeline;

pub use diverge::{
    ks_distance, wasserstein1, DivergenceBounds, DivergenceReport, DriftRow, HistSummary,
};
pub use hist::{EmpiricalCdf, LogHistogram, Summary};
pub use profile::{profiler, render_tree, span, tree_from_rows, ProfileNode, Profiler, SpanGuard};
pub use registry::{enabled, set_enabled};
pub use report::{MetricRow, PartitionRow, ProfileRow, RunReport};
pub use timeline::{ArgValue, Timeline, TracePhase, TraceRecord, PID_FLOWS, PID_PDES, PID_SAMPLES};

#[cfg(test)]
pub(crate) mod testutil {
    //! The global enabled flag is process-wide state; unit tests that flip
    //! it serialize on one mutex and restore the previous value on drop.
    use std::sync::{Mutex, MutexGuard};

    static FLAG_LOCK: Mutex<()> = Mutex::new(());

    pub struct EnableScope(bool, #[allow(dead_code)] MutexGuard<'static, ()>);

    impl EnableScope {
        pub fn with(on: bool) -> Self {
            let guard = FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let prev = crate::registry::enabled();
            crate::registry::set_enabled(on);
            EnableScope(prev, guard)
        }

        pub fn new() -> Self {
            Self::with(true)
        }
    }

    impl Drop for EnableScope {
        fn drop(&mut self) {
            crate::registry::set_enabled(self.0);
        }
    }
}
