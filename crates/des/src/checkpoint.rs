//! Checkpoint/restore for crash-safe runs.
//!
//! A checkpoint is a *quiescent deep copy* of everything a resumed run needs
//! to be bit-identical to an uninterrupted one:
//!
//! * **Sequential** ([`SimCheckpoint`]): the world and the scheduler — FEL
//!   contents (cancelled entries not yet reclaimed included), clock,
//!   sequence counters. Taken between [`crate::Simulator::run_until`]
//!   chunks, where the engine is parked.
//! * **PDES** ([`PdesCheckpoint`]): every partition's world, FEL, and
//!   cross-chunk progress — the `send-seq` tie-break counter, the fault-RNG
//!   stream position, and the epoch count a scripted stall measures against.
//!   Taken between [`crate::PdesRunner::run_until`] chunks, where the
//!   exchange is drained and the partitions' private state is the complete
//!   run state.
//!
//! Bit-equality holds by construction: the copies are `Clone`s of the exact
//! in-memory state, the remote tie-break key is intrinsic to each message
//! (so resumed epoch plans need not match the original's), and fault
//! progress is part of the snapshot. The counts kept in the world and the
//! scheduler are part of that state and rewind with it, so a retried run
//! reports the successful path only; what sits outside the snapshot keeps
//! an aborted attempt's contribution — anything a world shares across its
//! clones (the oracle guard's and verdict cache's counter handles). A
//! run's timeline is built from the finished run, so an aborted attempt
//! leaves nothing on it. Verdict caches ride along inside
//! the world when their oracle is cloneable; an uncloneable oracle must be
//! rebuilt cold by the caller (documented at the driver layer).
//!
//! Checkpoints live in memory only: nothing is written to disk, so a
//! resumed run is always a run of the same process.

use crate::pdes::{PartitionSim, PartitionWorld};
use crate::sched::Scheduler;
use crate::sim::World;
use crate::time::SimTime;

/// A quiescent snapshot of a sequential simulation: world plus scheduler.
///
/// Captured by [`crate::Simulator::checkpoint`] and reapplied by
/// [`crate::Simulator::restore`]; resuming from it is bit-identical to never
/// having stopped.
pub struct SimCheckpoint<W: World> {
    pub(crate) world: W,
    pub(crate) sched: Scheduler<W::Event>,
}

impl<W: World> SimCheckpoint<W> {
    /// The simulated time the snapshot was taken at.
    pub fn at(&self) -> SimTime {
        self.sched.now()
    }
}

/// A quiescent snapshot of a PDES run: every partition's full state.
///
/// Captured by [`crate::PdesRunner::checkpoint`] and reapplied by
/// [`crate::PdesRunner::restore`].
pub struct PdesCheckpoint<W: PartitionWorld> {
    partitions: Vec<PartitionSim<W>>,
}

impl<W: PartitionWorld + Clone> PdesCheckpoint<W>
where
    W::Event: Clone,
{
    pub(crate) fn capture(partitions: &[PartitionSim<W>]) -> Self {
        PdesCheckpoint {
            partitions: partitions.to_vec(),
        }
    }

    pub(crate) fn restore_partitions(&self, expected: usize) -> Vec<PartitionSim<W>> {
        assert_eq!(
            self.partitions.len(),
            expected,
            "checkpoint partition count mismatch — snapshot from a different run"
        );
        self.partitions.clone()
    }

    /// Number of partitions in the snapshot.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The latest partition clock in the snapshot — the chunk boundary the
    /// checkpoint was taken at.
    pub fn at(&self) -> SimTime {
        self.partitions
            .iter()
            .map(|p| p.scheduler().now())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}
