//! Fault-injection suite for the PDES engine: stalls must become structured
//! errors instead of hangs, slowdowns must not trip the watchdog, and
//! message-level faults (drop/duplicate/corrupt) must be deterministic
//! under a fixed seed. Every run goes through both drivers, the threaded
//! `run_until` and the lockstep `run_until_lockstep`, which must agree on
//! everything but wall-clock seconds.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use elephant_des::{
    wire, FaultPlan, PartitionId, PartitionSim, PartitionWorld, PdesConfig, PdesError, PdesReport,
    PdesRunner, RemoteSink, Scheduler, SimDuration, SimTime, Transportable,
};

const LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

/// A token with this many hops left cannot be encoded: its codec panics.
const UNENCODABLE: u32 = u32::MAX - 1;

/// A token that hops around a partition ring, as in the engine's unit
/// tests; its codec detects truncation (decode returns `None`).
#[derive(Debug, PartialEq)]
struct Token {
    hops_left: u32,
    value: u64,
}

impl Transportable for Token {
    fn encode(&self, w: &mut wire::Writer) {
        assert_ne!(self.hops_left, UNENCODABLE, "scripted encode panic");
        w.u32(self.hops_left);
        w.u64(self.value);
    }
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some(Token {
            hops_left: r.u32()?,
            value: r.u64()?,
        })
    }
}

struct Ring {
    id: PartitionId,
    n: usize,
    arrivals: u64,
}

impl PartitionWorld for Ring {
    type Event = Token;
    fn handle(&mut self, ev: Token, sched: &mut Scheduler<Token>, remote: &mut RemoteSink<Token>) {
        self.arrivals += 1;
        if ev.hops_left == 0 {
            return;
        }
        let next = Token {
            hops_left: ev.hops_left - 1,
            value: ev.value + 1,
        };
        let at = sched.now() + LOOKAHEAD;
        let dst = (self.id + 1) % self.n;
        if dst == self.id {
            sched.schedule_at(at, next);
        } else {
            remote.send(dst, at, next);
        }
    }
}

/// Ring partitions `0..n` with the token on partition 0. Each believes the
/// ring has `ring` partitions, so with `ring > n` the last one sends to a
/// partition the run does not have.
fn ring_parts(n: usize, ring: usize, hops: u32) -> Vec<PartitionSim<Ring>> {
    let mut parts: Vec<PartitionSim<Ring>> = (0..n)
        .map(|id| {
            PartitionSim::new(Ring {
                id,
                n: ring,
                arrivals: 0,
            })
        })
        .collect();
    parts[0].scheduler_mut().schedule_at(
        SimTime::ZERO,
        Token {
            hops_left: hops,
            value: 0,
        },
    );
    parts
}

/// A run's result with its wall-clock seconds zeroed: what the simulation
/// alone determines.
fn simulated(mut result: Result<PdesReport, PdesError>) -> Result<PdesReport, PdesError> {
    let report: &mut PdesReport = match &mut result {
        Ok(report) => report,
        Err(
            PdesError::Stalled { report, .. }
            | PdesError::Corrupt { report, .. }
            | PdesError::Panicked { report, .. },
        ) => report,
    };
    for p in &mut report.partitions {
        p.work_seconds = 0.0;
        p.barrier_wait_seconds = 0.0;
        p.marshal_seconds = 0.0;
    }
    result
}

/// Runs `f` on a thread of its own and fails, instead of hanging the suite,
/// if it has not returned within 10 s.
fn within_deadline<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("the run hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("the run panicked"),
    }
}

/// Runs `parts()` under both drivers, each within the deadline, asserts
/// that they agree on the arrivals and the simulated result, and returns
/// the threaded run's.
fn both_drivers(
    parts: impl Fn() -> Vec<PartitionSim<Ring>>,
    config: PdesConfig,
) -> (Vec<u64>, Result<PdesReport, PdesError>) {
    let [threaded, lockstep] = [false, true].map(|lockstep| {
        let mut runner = PdesRunner::new(parts(), config.clone());
        within_deadline(move || {
            let horizon = SimTime::from_secs(10);
            let result = match lockstep {
                false => runner.run_until(horizon),
                true => runner.run_until_lockstep(horizon),
            };
            let arrivals = runner.partitions().iter().map(|p| p.world().arrivals);
            (arrivals.collect::<Vec<_>>(), result)
        })
    });
    assert_eq!(threaded.0, lockstep.0, "drivers disagree on the arrivals");
    assert_eq!(
        simulated(threaded.1.clone()),
        simulated(lockstep.1),
        "drivers disagree on the report"
    );
    threaded
}

fn ring_run(
    n: usize,
    hops: u32,
    machines: usize,
    cfg_mut: impl FnOnce(PdesConfig) -> PdesConfig,
) -> (Vec<u64>, Result<PdesReport, PdesError>) {
    let config = cfg_mut(PdesConfig::round_robin(n, machines, LOOKAHEAD, 16));
    both_drivers(|| ring_parts(n, n, hops), config)
}

/// The headline guarantee: a partition that stops consuming events turns
/// into a `PdesError::Stalled` naming the stuck partition within the
/// watchdog bound — not an infinite barrier loop.
#[test]
fn stalled_partition_is_named_within_watchdog_bound() {
    const WATCHDOG: u64 = 8;
    let (_, result) = ring_run(3, 1000, 1, |mut cfg| {
        cfg.stall_epochs = WATCHDOG;
        cfg.with_faults(FaultPlan {
            stall_partition: Some((1, 5)),
            ..Default::default()
        })
    });
    match result {
        Err(PdesError::Stalled {
            partition,
            at,
            epochs,
            report,
        }) => {
            assert_eq!(partition, 1, "the injected partition must be named");
            assert!(epochs >= WATCHDOG, "fired before the bound: {epochs}");
            assert!(
                report.epochs <= 5 + WATCHDOG + 2,
                "watchdog must bound the spin: {} epochs",
                report.epochs
            );
            // Diagnostics: the stuck partition's frozen clock equals the
            // stall time the error reports.
            assert_eq!(report.partitions[1].next_time, Some(at));
        }
        other => panic!("expected Stalled, got {other:?}"),
    }
}

/// A slow-but-advancing partition is not a stall: wall-clock lag must not
/// trip the (simulated-time) watchdog, and results are unaffected.
#[test]
fn slow_partition_completes_without_tripping_watchdog() {
    let (arrivals, result) = ring_run(3, 12, 1, |mut cfg| {
        cfg.stall_epochs = 4; // tight bound on purpose
        cfg.with_faults(FaultPlan {
            slow_partition: Some((1, Duration::from_millis(2))),
            ..Default::default()
        })
    });
    let report = result.expect("slowdown is not a fault");
    assert_eq!(arrivals.iter().sum::<u64>(), 13);
    assert_eq!(report.faults.total(), 0);
}

/// Dropping every cross-machine message kills the token on its first hop.
#[test]
fn message_drop_loses_the_token() {
    let (arrivals, result) = ring_run(4, 99, 2, |cfg| {
        cfg.with_faults(FaultPlan {
            seed: 1,
            drop_prob: 1.0,
            ..Default::default()
        })
    });
    let report = result.expect("drops are silent, not fatal");
    assert_eq!(arrivals.iter().sum::<u64>(), 1, "only the initial arrival");
    assert_eq!(report.faults.dropped, 1);
}

/// Duplicating every cross-machine hop doubles the token population per
/// hop: 1 + 2 + 4 + 8 arrivals for three hops.
#[test]
fn message_duplication_multiplies_arrivals() {
    let (arrivals, result) = ring_run(4, 3, 2, |cfg| {
        cfg.with_faults(FaultPlan {
            seed: 1,
            dup_prob: 1.0,
            ..Default::default()
        })
    });
    let report = result.expect("duplication is not fatal");
    assert_eq!(arrivals.iter().sum::<u64>(), 15);
    assert_eq!(report.faults.duplicated, 7, "every hop duplicated");
}

/// A corrupted message fails to decode on the far side and surfaces as
/// `PdesError::Corrupt` naming the sender — where the engine previously
/// panicked inside a worker thread.
#[test]
fn corrupted_message_yields_structured_error() {
    let (_, result) = ring_run(4, 99, 2, |cfg| {
        cfg.with_faults(FaultPlan {
            seed: 1,
            corrupt_prob: 1.0,
            ..Default::default()
        })
    });
    match result {
        Err(PdesError::Corrupt {
            partition, report, ..
        }) => {
            assert_eq!(partition, 0, "partition 0 sends the first hop");
            assert_eq!(report.faults.corrupted, 1);
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// The fault stream is a pure function of (plan, partition): two runs with
/// the same seed inject the identical faults and produce identical results.
#[test]
fn fault_injection_is_deterministic() {
    let run = || {
        ring_run(4, 200, 2, |cfg| {
            cfg.with_faults(FaultPlan {
                seed: 7,
                drop_prob: 0.25,
                dup_prob: 0.1,
                ..Default::default()
            })
        })
    };
    let (arr_a, res_a) = run();
    let (arr_b, res_b) = run();
    let rep_a = res_a.expect("run a");
    let rep_b = res_b.expect("run b");
    assert_eq!(arr_a, arr_b, "same seed, same arrivals");
    assert_eq!(rep_a.faults, rep_b.faults, "same seed, same faults");
    assert_eq!(rep_a.events_executed, rep_b.events_executed);
    assert!(rep_a.faults.total() > 0, "plan must actually inject");
}

/// A fault-free plan with the watchdog enabled is invisible: same events,
/// same epochs, zero fault counts as a run with no plan at all.
#[test]
fn inert_plan_matches_unfaulted_run() {
    let (arr_plain, res_plain) = ring_run(3, 50, 2, |cfg| cfg);
    let (arr_inert, res_inert) = ring_run(3, 50, 2, |cfg| cfg.with_faults(FaultPlan::default()));
    let rep_plain = res_plain.expect("plain");
    let rep_inert = res_inert.expect("inert");
    assert_eq!(arr_plain, arr_inert);
    assert_eq!(rep_plain.events_executed, rep_inert.events_executed);
    assert_eq!(rep_plain.epochs, rep_inert.epochs);
    assert_eq!(rep_inert.faults.total(), 0);
}

/// A handler that sends to a partition the run does not have is a model
/// bug: the sink rejects it and the run ends with `Panicked` naming the
/// sender, where it used to kill the thread and hang its peers.
#[test]
fn send_to_an_unknown_partition_is_a_structured_panic() {
    let config = PdesConfig::single_machine(2, LOOKAHEAD);
    match both_drivers(|| ring_parts(2, 100, 5), config).1 {
        Err(PdesError::Panicked {
            partition,
            at,
            message,
            ..
        }) => {
            assert_eq!((partition, at), (1, SimTime::from_micros(1)));
            assert!(message.contains("unknown partition 2"), "got {message:?}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
}

/// A model codec that panics while a message is marshalled across machines
/// ends the run with `Panicked` naming the sender, instead of a hang.
#[test]
fn panicking_encode_is_a_structured_panic() {
    let config = PdesConfig::round_robin(2, 2, LOOKAHEAD, 16);
    match both_drivers(|| ring_parts(2, 2, UNENCODABLE + 1), config).1 {
        Err(PdesError::Panicked {
            partition,
            at,
            message,
            ..
        }) => {
            assert_eq!((partition, at), (0, SimTime::ZERO));
            assert!(message.contains("scripted encode panic"), "got {message:?}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
}

/// Two partitions that fail in the same epoch are reported by the earliest
/// `(time, partition)` on every run, under either driver — not by whichever
/// thread got to a lock first.
#[test]
fn simultaneous_failures_report_the_earliest() {
    // In the first epoch partition 0 posts a corrupt message due at 1 µs
    // and partition 1 panics encoding one at 0.
    let parts = || {
        let mut parts = ring_parts(2, 2, 5);
        let token = Token {
            hops_left: UNENCODABLE + 1,
            value: 0,
        };
        parts[1].scheduler_mut().schedule_at(SimTime::ZERO, token);
        parts
    };
    let config = PdesConfig::round_robin(2, 2, LOOKAHEAD, 16).with_faults(FaultPlan {
        seed: 1,
        corrupt_prob: 1.0,
        ..Default::default()
    });
    for _ in 0..20 {
        match both_drivers(parts, config.clone()).1 {
            Err(PdesError::Panicked {
                partition: 1,
                at: SimTime::ZERO,
                ..
            }) => {}
            other => panic!("expected partition 1's panic at 0, got {other:?}"),
        }
    }
}
