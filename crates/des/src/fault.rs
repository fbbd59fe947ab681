//! Deterministic fault injection for the PDES engine.
//!
//! The conservative barrier engine in [`crate::pdes`] is only as robust as
//! its worst partition: a logical process that stops consuming events, or a
//! transport that mangles a marshalled message, turns into a silent hang or
//! a panic deep inside a worker thread. This module provides a *seeded,
//! reproducible* way to manufacture exactly those failures so the engine's
//! defenses (the stall watchdog, structured [`crate::PdesError`] returns)
//! can be exercised in tests and demos.
//!
//! All randomness derives from per-partition `splitmix64` streams keyed by
//! `(plan.seed, partition)`, so a given plan injects the identical fault
//! sequence on every run regardless of thread interleaving: each partition
//! rolls the dice for the messages *it* sends, in the order it sends them,
//! and that order is deterministic under the engine's epoch semantics.

use std::time::Duration;

use crate::pdes::PartitionId;
use crate::rng::{splitmix64, unit_f64};

/// Declarative description of the faults to inject into a PDES run.
///
/// The default plan injects nothing. Message-level faults (drop, duplicate,
/// corrupt) apply only to events crossing a simulated *machine* boundary —
/// the marshalled path — mirroring where real deployments lose and mangle
/// traffic. Partition-level faults (slowdown, stall) model a sick worker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-partition fault RNG streams.
    pub seed: u64,
    /// Probability that a cross-machine message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a cross-machine message is delivered twice.
    pub dup_prob: f64,
    /// Probability that a cross-machine message is corrupted in flight
    /// (payload truncated and bit-flipped before the receive-side decode).
    pub corrupt_prob: f64,
    /// Sleep this long per epoch inside the named partition's execute
    /// phase: a slow-but-correct worker. Wall-clock only; simulated time
    /// and results are unaffected, and the watchdog must not trip.
    pub slow_partition: Option<(PartitionId, Duration)>,
    /// After the named partition has run this many epochs, it stops
    /// executing events entirely (its clock freezes). Without a watchdog
    /// the run would hang at the next barrier cycle forever.
    pub stall_partition: Option<(PartitionId, u64)>,
}

impl FaultPlan {
    /// True if the plan rolls dice per message (drop, duplicate, corrupt),
    /// as opposed to scripting a sick partition.
    pub fn probabilistic(&self) -> bool {
        self.drop_prob > 0.0 || self.dup_prob > 0.0 || self.corrupt_prob > 0.0
    }

    /// The deterministic fault stream for one partition.
    pub(crate) fn rng_for(&self, partition: PartitionId) -> FaultRng {
        FaultRng::new(splitmix64(
            self.seed ^ (partition as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }
}

/// How many of each fault a run actually injected; part of
/// [`crate::PdesReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Cross-machine messages dropped by the fault plan.
    pub dropped: u64,
    /// Cross-machine messages delivered twice by the fault plan.
    pub duplicated: u64,
    /// Cross-machine messages corrupted in flight by the fault plan.
    pub corrupted: u64,
    /// Whether a [`FaultPlan::probabilistic`] plan was rolling at all, so
    /// that "armed but injected nothing" can be told from "no plan".
    pub armed: bool,
}

impl FaultCounts {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.corrupted
    }
}

impl std::fmt::Display for FaultCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} injected (dropped {}, duplicated {}, corrupted {})",
            self.total(),
            self.dropped,
            self.duplicated,
            self.corrupted
        )
    }
}

/// A tiny splitmix64-based uniform stream, private to one partition.
#[derive(Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Rolls one Bernoulli trial with probability `p`.
    pub(crate) fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(!plan.probabilistic());
        assert!(plan.slow_partition.is_none() && plan.stall_partition.is_none());
        assert_eq!(FaultCounts::default().total(), 0);
    }

    #[test]
    fn rng_streams_are_deterministic_and_partition_local() {
        let plan = FaultPlan {
            seed: 42,
            drop_prob: 0.5,
            ..Default::default()
        };
        let mut a = plan.rng_for(0);
        let mut b = plan.rng_for(0);
        let seq_a: Vec<bool> = (0..64).map(|_| a.roll(0.5)).collect();
        let seq_b: Vec<bool> = (0..64).map(|_| b.roll(0.5)).collect();
        assert_eq!(seq_a, seq_b, "same (seed, partition) => same stream");

        let mut c = plan.rng_for(1);
        let seq_c: Vec<bool> = (0..64).map(|_| c.roll(0.5)).collect();
        assert_ne!(seq_a, seq_c, "partitions draw from distinct streams");
    }

    #[test]
    fn roll_respects_extremes() {
        let mut rng = FaultRng::new(7);
        assert!((0..100).all(|_| !rng.roll(0.0)));
        assert!((0..100).all(|_| rng.roll(1.0)));
    }
}
