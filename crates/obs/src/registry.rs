//! The global observability switch.
//!
//! Counts are not collected here: every count a run reports is a plain
//! field of the run's own state (`NetStats`, `PortCounters`, `PdesReport`,
//! …) and the ledger's metric rows are derived from the finished run. The
//! switch gates what does cost something to collect — the phase profiler's
//! clock reads, the sequential kernel's FEL-peak sampler and the oracle's
//! per-inference timer — and is off by default.

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on or off globally (off by default).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
