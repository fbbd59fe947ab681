//! Supervised runs: checkpoint-backed retry with a deterministic
//! degradation ladder.
//!
//! An unsupervised [`crate::execute`] throws the whole run away on the
//! first [`PdesError`]; at hour-long, 100k-host scale that is untenable.
//! A run with [`crate::RunPlan::supervise`] set instead takes a checkpoint
//! ([`elephant_des::PdesCheckpoint`] / [`elephant_des::SimCheckpoint`])
//! every [`RecoveryPolicy::checkpoint_every`] of simulated time — at an
//! epoch barrier under PDES, between `run_until` chunks sequentially —
//! and reacts to failures by climbing down a *ladder*:
//!
//! 1. **Retry**: restore the latest checkpoint and re-run the failed
//!    chunk, up to [`RecoveryPolicy::max_retries`] times per rung.
//! 2. **Adaptive → fixed epochs**: restore and switch the epoch planner
//!    to [`EpochMode::Fixed`] — the conservative planner with no frontier
//!    jumping — then retry the chunk with a fresh retry budget.
//! 3. **PDES → sequential**: abandon parallel execution and re-run the
//!    whole scenario on the sequential engine from time zero. The run
//!    then finishes bit-identical to a clean sequential run of the same
//!    scenario, not to the PDES run it replaces: the engines order
//!    same-instant events differently (local events by insertion order,
//!    remote ones by `(sender, send_seq)`), so their fingerprints agree
//!    only where no such tie decides an outcome (ROADMAP item 1). In
//!    `tests/golden_fingerprints.txt` the `run` pair agrees, and
//!    `recovery_drill`'s `--pdes` row equals its sequential row because
//!    that drill ends on this rung; the other scenarios' rows differ.
//!    Exchange-layer fault injection does not exist sequentially, so
//!    scripted stalls (and drop/dup fault plans) cannot follow the run
//!    down this rung.
//!
//! Every transition is observable: the [`RecoveryLog`] records each
//! checkpoint, restore, and degradation as plain data — the ledger's
//! `recovery/*` rows are read off it, and tests assert that identical
//! failure sequences produce identical ladders.
//!
//! Determinism: restoring a checkpoint rewinds *everything that shapes
//! the simulation* (FEL, per-flow TCP state, fault-plan RNG position,
//! epoch counters), so a run that failed and recovered produces the same
//! fingerprint as one that never failed. The counts the networks and the
//! kernel report are fields of that rewound state, so those statistics,
//! too, are of the successful path alone: a recovered run's `net/*`,
//! `des/*`, `hybrid/oracle/*` and `hybrid/macro/*` ledger rows equal a
//! clean run's, and so are its PDES timeline slices, which travel in the
//! kernel report. Samples rewind with the checkpoint: each checkpoint
//! keeps the sampler's mark and a restore returns to it, and a chunk that
//! ends between sampling ticks takes no sample, so a recovered run's
//! samples equal a clean run's too. What was retried is the
//! [`RecoveryLog`]'s to say. The guard's and verdict cache's counters do
//! keep an abandoned attempt's contribution: they sit behind handles
//! every clone of the oracle stack shares (see [`crate::OracleCounters`])
//! — so the CLI does not report them for a supervised run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::ElephantError;
use crate::experiment::{drive, drive_pdes};
use crate::pipeline::VerdictServer;

use elephant_des::{
    panic_message, EpochMode, PdesError, PdesReport, PdesRunner, SimDuration, SimTime, Simulator,
};
use elephant_net::{NetPartition, NetSampler, Network};

/// Default checkpoint interval: 10 simulated milliseconds.
pub const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(10);
/// Default retry budget per ladder rung.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Knobs for a supervised run.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Simulated time between checkpoints (also the granularity of lost
    /// work on a restore). Clamped to at least one nanosecond.
    pub checkpoint_every: SimDuration,
    /// Restores attempted per ladder rung before degrading to the next.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }
}

impl RecoveryPolicy {
    fn interval(&self) -> SimDuration {
        self.checkpoint_every.max(SimDuration::from_nanos(1))
    }
}

/// A rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// PDES with the adaptive epoch planner.
    Adaptive,
    /// PDES with fixed-increment epochs.
    Fixed,
    /// The sequential engine (terminal rung).
    Sequential,
}

impl Rung {
    /// Short label for metrics and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Rung::Adaptive => "pdes-adaptive",
            Rung::Fixed => "pdes-fixed",
            Rung::Sequential => "sequential",
        }
    }
}

/// One ladder transition, as plain comparable data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A checkpoint restore followed by a retry on the same rung.
    Restored {
        /// Simulated time of the failure that triggered the restore.
        at: SimTime,
        /// The rung the retry runs on.
        rung: Rung,
        /// Failure family ("stalled", "corrupt", "panicked").
        cause: &'static str,
    },
    /// A step down the ladder after the retry budget ran out.
    Degraded {
        /// Simulated time of the exhausting failure.
        at: SimTime,
        /// The abandoned rung.
        from: Rung,
        /// The rung the run continues on.
        to: Rung,
    },
}

/// What the supervisor did, as plain data: counters plus the ordered
/// transition list. Two supervised runs over identical failure sequences
/// produce equal logs — the determinism contract tests assert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Checkpoints captured (including the time-zero baseline).
    pub checkpoints_taken: u64,
    /// Checkpoint restores performed (retries and degradations alike).
    pub restores: u64,
    /// Ladder steps taken.
    pub degradations: u64,
    /// Every restore and degradation, in order.
    pub transitions: Vec<RecoveryEvent>,
    /// The rung the run finished on.
    pub final_rung: Rung,
}

impl RecoveryLog {
    fn new(rung: Rung) -> Self {
        RecoveryLog {
            checkpoints_taken: 0,
            restores: 0,
            degradations: 0,
            transitions: Vec::new(),
            final_rung: rung,
        }
    }

    /// One-line summary for run reports (greppable by CI).
    pub fn summary(&self) -> String {
        format!(
            "recovery: checkpoints={} restores={} degradations={} final_rung={}",
            self.checkpoints_taken,
            self.restores,
            self.degradations,
            self.final_rung.label()
        )
    }

    fn note_restore(&mut self, at: SimTime, rung: Rung, cause: &'static str) {
        self.restores += 1;
        self.transitions
            .push(RecoveryEvent::Restored { at, rung, cause });
    }

    fn note_degrade(&mut self, at: SimTime, from: Rung, to: Rung) {
        self.degradations += 1;
        self.transitions
            .push(RecoveryEvent::Degraded { at, from, to });
        self.final_rung = to;
    }

    /// Folds a nested run's log (the sequential rung re-runs under its own
    /// supervisor) into this one.
    pub(crate) fn absorb(&mut self, inner: RecoveryLog) {
        self.checkpoints_taken += inner.checkpoints_taken;
        self.restores += inner.restores;
        self.degradations += inner.degradations;
        self.transitions.extend(inner.transitions);
        self.final_rung = inner.final_rung;
    }
}

fn cause_label(e: &PdesError) -> &'static str {
    match e {
        PdesError::Stalled { .. } => "stalled",
        PdesError::Corrupt { .. } => "corrupt",
        PdesError::Panicked { .. } => "panicked",
    }
}

/// Drives `runner` to `horizon` in checkpoint-interval chunks, restoring
/// and walking the ladder (retry → adaptive→fixed) on engine faults.
/// Returns the merged report of the successful path — failed attempts
/// between a checkpoint and their restore are discarded along with their
/// state, exactly as if the failure never happened — or `None` once the
/// PDES rungs are exhausted and the caller must restart sequentially.
pub(crate) fn supervise_pdes(
    runner: &mut PdesRunner<NetPartition>,
    horizon: SimTime,
    policy: &RecoveryPolicy,
    mode: EpochMode,
    sampler: &mut NetSampler,
) -> (Option<PdesReport>, RecoveryLog) {
    let mut rung = match mode {
        EpochMode::Adaptive => Rung::Adaptive,
        EpochMode::Fixed => Rung::Fixed,
    };
    let mut log = RecoveryLog::new(rung);
    let interval = policy.interval();
    let mut cursor = SimTime::ZERO;
    let mut retries = 0u32;
    let mut total: Option<PdesReport> = None;
    let mut checkpoint = None;

    loop {
        // `total` covers exactly [0, cursor], where the checkpoint sits.
        let (snapshot, mark) = checkpoint.get_or_insert_with(|| {
            log.checkpoints_taken += 1;
            (runner.checkpoint(), sampler.mark())
        });
        let next = (cursor + interval).min(horizon);
        match drive_pdes(runner, next, sampler) {
            Ok((chunk, _)) => {
                match &mut total {
                    None => total = Some(chunk),
                    Some(t) => t.merge(chunk),
                }
                cursor = next;
                if cursor >= horizon {
                    break;
                }
                checkpoint = None;
            }
            Err(e) => {
                let (at, _) = e.origin();
                if retries < policy.max_retries {
                    retries += 1;
                    runner.restore(snapshot);
                    sampler.rewind(*mark);
                    log.note_restore(at, rung, cause_label(&e));
                } else if rung == Rung::Adaptive {
                    runner.restore(snapshot);
                    sampler.rewind(*mark);
                    runner.set_epoch_mode(EpochMode::Fixed);
                    log.note_degrade(at, Rung::Adaptive, Rung::Fixed);
                    rung = Rung::Fixed;
                    retries = 0;
                } else {
                    log.note_degrade(at, Rung::Fixed, Rung::Sequential);
                    return (None, log);
                }
            }
        }
    }
    (total, log)
}

/// The sequential supervision loop. The sequential engine has no barrier
/// to stall and no exchange to corrupt; the failures it survives are
/// model panics, caught at the chunk boundary, rolled back to the latest
/// checkpoint, and retried up to [`RecoveryPolicy::max_retries`] times. A
/// failure that persists past the budget is
/// [`ElephantError::RecoveryExhausted`] — there is no rung below
/// sequential. Checkpoints deep-copy an installed oracle stack via
/// `ClusterOracle::clone_box`, so guard state and cached verdicts rewind
/// with the network.
pub(crate) fn supervise_simulator(
    sim: &mut Simulator<Network>,
    horizon: SimTime,
    policy: &RecoveryPolicy,
    sampler: &mut NetSampler,
    verdicts: &mut VerdictServer,
) -> Result<RecoveryLog, ElephantError> {
    let mut log = RecoveryLog::new(Rung::Sequential);
    let interval = policy.interval();
    let mut cursor = SimTime::ZERO;
    let mut retries = 0u32;
    let mut checkpoint = None;

    loop {
        let (snapshot, mark) = checkpoint.get_or_insert_with(|| {
            log.checkpoints_taken += 1;
            (sim.checkpoint(), sampler.mark())
        });
        let next = (cursor + interval).min(horizon);
        match catch_unwind(AssertUnwindSafe(|| drive(sim, next, sampler, verdicts))) {
            Ok(dry) => {
                cursor = next;
                if cursor >= horizon || dry {
                    break;
                }
                checkpoint = None;
            }
            Err(payload) => {
                if retries >= policy.max_retries {
                    return Err(ElephantError::RecoveryExhausted {
                        detail: format!(
                            "sequential model panic persisted through {} retries \
                             of the chunk ending at {next}: {}",
                            policy.max_retries,
                            panic_message(payload.as_ref()),
                        ),
                    });
                }
                retries += 1;
                sim.restore(snapshot);
                sampler.rewind(*mark);
                log.note_restore(cursor, Rung::Sequential, "panicked");
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{execute, Exec, Fidelity, Outcome, PdesExec, RunPlan};
    use elephant_des::FaultPlan;
    use elephant_net::{ClosParams, FlowSpec, NetConfig};
    use elephant_trace::{generate, WorkloadConfig};

    const HORIZON: SimTime = SimTime::from_millis(8);

    fn drill_flows(params: &ClosParams) -> Vec<FlowSpec> {
        generate(params, &WorkloadConfig::paper_default(HORIZON, 17))
    }

    /// Full fidelity on two clusters: 4 rack partitions over 2 machines
    /// when `pdes`, the sequential engine otherwise.
    fn run(
        flows: &[FlowSpec],
        pdes: bool,
        faults: Option<FaultPlan>,
        policy: Option<&RecoveryPolicy>,
    ) -> Outcome {
        let mut plan = RunPlan::new(
            ClosParams::paper_cluster(2),
            NetConfig::default(),
            flows,
            HORIZON,
            Fidelity::Full { capture: None },
        );
        if pdes {
            plan.exec = Exec::Pdes(PdesExec {
                partitions: 4,
                machines: 2,
                envelope_bytes: 0,
                mode: EpochMode::Adaptive,
                faults,
            });
        }
        plan.supervise = policy;
        execute(plan).expect("run completes")
    }

    #[test]
    fn supervised_without_failures_matches_unsupervised() {
        let flows = drill_flows(&ClosParams::paper_cluster(2));
        let clean = run(&flows, true, None, None);
        let policy = RecoveryPolicy {
            checkpoint_every: SimDuration::from_millis(2),
            max_retries: 2,
        };
        let sup = run(&flows, true, None, Some(&policy));
        let log = sup.recovery.as_ref().expect("supervised runs carry a log");
        assert_eq!(log.restores, 0);
        assert_eq!(log.degradations, 0);
        assert!(log.checkpoints_taken >= 2, "{}", log.summary());
        assert_eq!(sup.meta.events, clean.meta.events);
        assert_eq!(sup.flows_completed(), clean.flows_completed());
    }

    #[test]
    fn scripted_stall_restores_and_degrades_deterministically() {
        let flows = drill_flows(&ClosParams::paper_cluster(2));
        // A stall that re-arms every restore (epoch progress is part of
        // the checkpoint, so the stall re-fires deterministically): the
        // ladder must walk adaptive → fixed → sequential and complete.
        let faults = FaultPlan {
            stall_partition: Some((1, 8)),
            ..Default::default()
        };
        let policy = RecoveryPolicy {
            checkpoint_every: SimDuration::from_millis(2),
            max_retries: 1,
        };
        let a = run(&flows, true, Some(faults.clone()), Some(&policy));
        let log = a.recovery.as_ref().expect("supervised runs carry a log");
        assert_eq!(log.final_rung, Rung::Sequential);
        assert!(log.restores >= 2, "{}", log.summary());
        assert_eq!(log.degradations, 2, "{}", log.summary());
        assert!(
            a.report.is_none(),
            "sequential completion has no PDES report"
        );

        // Identical failure sequence → identical ladder.
        let b = run(&flows, true, Some(faults), Some(&policy));
        assert_eq!(a.recovery, b.recovery);

        // The degraded run's outcome matches a clean sequential run.
        let clean = run(&flows, false, None, Some(&policy));
        assert_eq!(
            a.nets[0].stats.flows_completed,
            clean.nets[0].stats.flows_completed
        );
        assert_eq!(
            a.nets[0].stats.delivered_bytes,
            clean.nets[0].stats.delivered_bytes
        );
    }
}
