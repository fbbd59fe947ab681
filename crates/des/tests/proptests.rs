//! Property-based tests of the kernel's ordering, cancellation, and
//! statistics invariants.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use elephant_des::{BinaryHeapFel, Fel, Scheduler, SimDuration, SimTime};
use elephant_obs::{EmpiricalCdf, Summary};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A random scheduler workload: interleaved schedules (with arbitrary
/// future offsets) and cancellations.
#[derive(Clone, Debug)]
enum Op {
    Schedule(u64),
    CancelNth(usize),
    Pop,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..10_000).prop_map(Op::Schedule),
            (0usize..64).prop_map(Op::CancelNth),
            Just(Op::Pop),
        ],
        1..200,
    )
}

/// The differential-test alphabet: everything the `Scheduler` API can do to
/// the FEL, including both keyed lanes and zero-offset bursts. Offsets mix
/// sub-bucket, multi-bucket, and multi-year magnitudes so the calendar
/// queue's year scan, direct-search jump, and resize paths all trigger.
#[derive(Clone, Debug)]
enum FelOp {
    Schedule(u64),
    ScheduleNow,
    Remote {
        sender: usize,
        offset: u64,
    },
    /// An arrival-lane push; ranks are issued unique and out of time order.
    Arrival(u64),
    CancelNth(usize),
    /// Cancels the `n`-th most recently issued key: the events most likely
    /// still pending, and in a delay lane when they were local.
    CancelRecent(usize),
    Peek,
    Pop,
    /// `pop_until(now + offset)`: the call both engines' run loops use.
    PopUntil(u64),
}

fn arb_fel_ops() -> impl Strategy<Value = Vec<FelOp>> {
    let offset = prop_oneof![
        0u64..100,        // intra-bucket ties and near-ties
        0u64..50_000,     // a few buckets ahead
        0u64..50_000_000, // many years ahead: direct-search jumps
    ];
    let remote_offset = prop_oneof![0u64..100, 0u64..50_000, 0u64..50_000_000];
    let arrival_offset = prop_oneof![0u64..100, 0u64..50_000, 0u64..50_000_000];
    proptest::collection::vec(
        prop_oneof![
            offset.prop_map(FelOp::Schedule),
            Just(FelOp::ScheduleNow),
            (0usize..4, remote_offset)
                .prop_map(|(sender, offset)| FelOp::Remote { sender, offset }),
            arrival_offset.prop_map(FelOp::Arrival),
            (0usize..96).prop_map(FelOp::CancelNth),
            Just(FelOp::Peek),
            Just(FelOp::Pop),
            (0u64..50_000).prop_map(FelOp::PopUntil),
        ],
        1..300,
    )
}

/// The `full_rpc8` shape: a block of far-future entries, then a dense
/// near-term hold (local events and arrivals) whose timers are cancelled
/// and re-armed at the far distance — so dead entries pile up a long way
/// ahead of the scan cursor and outnumber the live ones, which is what
/// triggers the calendar queue's compaction.
fn arb_bimodal_ops() -> impl Strategy<Value = Vec<FelOp>> {
    let far = 200_000_000u64..201_000_000;
    let cancel = || (0usize..400).prop_map(FelOp::CancelNth);
    let hold = prop_oneof![
        (0u64..2_000).prop_map(FelOp::Schedule),
        (0u64..2_000).prop_map(FelOp::Arrival),
        far.clone().prop_map(FelOp::Schedule),
        cancel(),
        cancel(),
        cancel(),
        Just(FelOp::Pop),
        (0u64..2_000).prop_map(FelOp::PopUntil),
    ];
    (
        proptest::collection::vec(far.prop_map(FelOp::Schedule), 120..200),
        proptest::collection::vec(hold, 400..800),
    )
        .prop_map(|(mut ops, hold)| {
            ops.extend(hold);
            ops
        })
}

/// The delays a network repeats (serialization, and serialization plus
/// propagation, in ns): local events scheduled this far ahead go to the
/// calendar queue's delay lanes.
const LANE_DELAYS: [u64; 5] = [0, 52, 1052, 1200, 2200];
/// Recurring delays beyond those, so that more delays recur than there are
/// lanes and emptied lanes get reassigned.
const MORE_DELAYS: [u64; 6] = [96, 432, 698, 1096, 1432, 1698];

fn lane_delay() -> impl Strategy<Value = u64> {
    (0usize..LANE_DELAYS.len()).prop_map(|i| LANE_DELAYS[i])
}

/// The delay lanes' shape: local offsets drawn mostly from a few recurring
/// delays, so that many events share a lane, mixed with one-off short
/// delays, timers past the lanes' bound, arrivals and remote deliveries at
/// the same instants, cancels aimed at recent (lane-held) keys, peeks,
/// and about as many pops as pushes, so that lanes drain and are handed
/// to other delays.
fn arb_lane_ops() -> impl Strategy<Value = Vec<FelOp>> {
    let more = (0usize..MORE_DELAYS.len()).prop_map(|i| MORE_DELAYS[i]);
    proptest::collection::vec(
        prop_oneof![
            lane_delay().prop_map(FelOp::Schedule),
            lane_delay().prop_map(FelOp::Schedule),
            lane_delay().prop_map(FelOp::Schedule),
            more.prop_map(FelOp::Schedule),
            (0u64..3_000).prop_map(FelOp::Schedule),
            (60_000u64..200_000).prop_map(FelOp::Schedule),
            Just(FelOp::ScheduleNow),
            lane_delay().prop_map(FelOp::Arrival),
            (0usize..4, lane_delay()).prop_map(|(sender, offset)| FelOp::Remote { sender, offset }),
            (0usize..8).prop_map(FelOp::CancelRecent),
            (0usize..8).prop_map(FelOp::CancelRecent),
            (0usize..96).prop_map(FelOp::CancelNth),
            Just(FelOp::Peek),
            Just(FelOp::Pop),
            Just(FelOp::Pop),
            Just(FelOp::Pop),
            Just(FelOp::Pop),
            (0u64..2_500).prop_map(FelOp::PopUntil),
            (0u64..2_500).prop_map(FelOp::PopUntil),
        ],
        1..400,
    )
}

/// The key `CancelRecent(n)` aims at, if any was issued.
fn recent<K: Copy>(keys: &[K], n: usize) -> Option<K> {
    keys.len().checked_sub(1 + n).map(|i| keys[i])
}

type HeapScheduler = Scheduler<u64, BinaryHeapFel<u64>>;

/// Applies `ops` to a calendar-queue scheduler and a binary-heap one,
/// checking after every op that both answered alike: pops, bounded pops,
/// peeks, cancels and pending counts.
fn run_both(ops: Vec<FelOp>) -> Result<(Scheduler<u64>, HeapScheduler), TestCaseError> {
    let mut cal: Scheduler<u64> = Scheduler::new();
    let mut heap: HeapScheduler = Scheduler::new();
    let mut keys = Vec::new(); // parallel (cal_key, heap_key)
    let mut send_seqs = [0u64; 4]; // per-sender remote counters
    let mut arrivals = 0u64;
    let mut payload = 0u64;
    for op in ops {
        match op {
            FelOp::Schedule(offset) => {
                payload += 1;
                let t = cal.now() + SimDuration::from_nanos(offset);
                keys.push((cal.schedule_at(t, payload), heap.schedule_at(t, payload)));
            }
            FelOp::Arrival(offset) => {
                payload += 1;
                arrivals += 1;
                let t = cal.now() + SimDuration::from_nanos(offset);
                keys.push((
                    cal.schedule_arrival(t, rank(arrivals), payload),
                    heap.schedule_arrival(t, rank(arrivals), payload),
                ));
            }
            FelOp::ScheduleNow => {
                payload += 1;
                keys.push((cal.schedule_now(payload), heap.schedule_now(payload)));
            }
            FelOp::Remote { sender, offset } => {
                payload += 1;
                let t = cal.now() + SimDuration::from_nanos(offset);
                let seq = send_seqs[sender];
                send_seqs[sender] += 1;
                cal.schedule_remote(t, sender, seq, payload);
                heap.schedule_remote(t, sender, seq, payload);
            }
            FelOp::CancelNth(n) => {
                if let Some(&(ck, hk)) = keys.get(n % keys.len().max(1)) {
                    prop_assert_eq!(cal.cancel(ck), heap.cancel(hk));
                }
            }
            FelOp::CancelRecent(n) => {
                if let Some((ck, hk)) = recent(&keys, n) {
                    prop_assert_eq!(cal.cancel(ck), heap.cancel(hk));
                }
            }
            FelOp::Peek => {
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
            }
            FelOp::Pop => {
                prop_assert_eq!(cal.pop(), heap.pop());
            }
            FelOp::PopUntil(offset) => {
                let limit = cal.now() + SimDuration::from_nanos(offset);
                prop_assert_eq!(cal.pop_until(limit), heap.pop_until(limit));
            }
        }
        prop_assert_eq!(cal.pending(), heap.pending());
    }
    Ok((cal, heap))
}

/// Pops every remaining event.
fn drain<F: Fel<u64>>(s: &mut Scheduler<u64, F>) -> Vec<(SimTime, u64)> {
    std::iter::from_fn(|| s.pop()).collect()
}

/// The rank of the `n`-th arrival of a case: unique (an odd multiplier is
/// a bijection modulo 2^16, and no case issues that many), and scrambled
/// against the order the arrivals are issued and their times.
fn rank(n: u64) -> u64 {
    n.wrapping_mul(0x9E37) % (1 << 16)
}

/// Every generator, for the properties that must hold on any shape.
fn arb_any_fel_ops() -> impl Strategy<Value = Vec<FelOp>> {
    prop_oneof![arb_fel_ops(), arb_bimodal_ops(), arb_lane_ops()]
}

/// The reserved-push alphabet: the scheduler's own operations, plus
/// requests whose event the deferred side pushes late under a number it
/// reserved when asked (the shape of a verdict served off the simulation
/// thread), and early releases of the oldest held request.
#[derive(Clone, Debug)]
enum DeferOp {
    Fel(FelOp),
    /// An event due `floor + extra` after the current instant.
    Request(u64),
    /// The deferred side pushes its oldest held request now.
    Release,
}

fn arb_defer_ops() -> impl Strategy<Value = (u64, Vec<DeferOp>)> {
    let fel = || {
        prop_oneof![
            lane_delay().prop_map(FelOp::Schedule),
            lane_delay().prop_map(FelOp::Schedule),
            (0u64..3_000).prop_map(FelOp::Schedule),
            (60_000u64..200_000).prop_map(FelOp::Schedule),
            Just(FelOp::ScheduleNow),
            lane_delay().prop_map(FelOp::Arrival),
            (0usize..4, lane_delay()).prop_map(|(sender, offset)| FelOp::Remote { sender, offset }),
            (0usize..8).prop_map(FelOp::CancelRecent),
            Just(FelOp::Peek),
            Just(FelOp::Pop),
            Just(FelOp::Pop),
            (0u64..2_500).prop_map(FelOp::PopUntil),
        ]
    };
    let floor = prop_oneof![Just(0u64), Just(1), Just(2_000)];
    let ops = proptest::collection::vec(
        prop_oneof![
            fel().prop_map(DeferOp::Fel),
            fel().prop_map(DeferOp::Fel),
            fel().prop_map(DeferOp::Fel),
            fel().prop_map(DeferOp::Fel),
            lane_delay().prop_map(DeferOp::Request),
            lane_delay().prop_map(DeferOp::Request),
            (0u64..3_000).prop_map(DeferOp::Request),
            Just(DeferOp::Release),
        ],
        1..400,
    );
    (floor, ops)
}

/// A request the deferred side holds: asked at `asked`, due at `at`, under
/// the reserved `seq`.
struct Held {
    asked: SimTime,
    at: SimTime,
    seq: u64,
    payload: u64,
}

/// `pop_until(limit)` on the deferred side, run the way a verdict pipeline
/// runs: only events strictly before the oldest held request's
/// `asked + floor` may pop, and at that bound (or when nothing else is
/// left) the oldest request is pushed first.
fn pop_deferred(
    s: &mut Scheduler<u64>,
    held: &mut std::collections::VecDeque<Held>,
    floor: u64,
    limit: SimTime,
) -> elephant_des::Next<(SimTime, u64)> {
    use elephant_des::Next;
    loop {
        let bound = held.front().map(|h| h.asked.as_nanos() + floor);
        let capped = match bound {
            Some(b) if b <= limit.as_nanos() => b.checked_sub(1).map(SimTime::from_nanos),
            _ => Some(limit),
        };
        let next = match capped {
            Some(capped) => s.pop_until(capped),
            None => Next::Empty,
        };
        match (next, held.pop_front()) {
            (Next::Event(popped), front) => {
                if let Some(h) = front {
                    held.push_front(h);
                }
                return Next::Event(popped);
            }
            (_, Some(h)) => {
                s.schedule_reserved(h.at, h.seq, h.payload);
            }
            (other, None) => return other,
        }
    }
}

proptest! {
    /// Reserved pushes released late — at the pipeline's bound, early, or
    /// at the end — interleaved with lane, calendar, arrival and remote
    /// pushes, pop in the order the same events pushed immediately pop in,
    /// checked against the binary-heap reference: a verdict served off the
    /// simulation thread changes no event order.
    #[test]
    fn reserved_pushes_pop_like_immediate_ones((floor, ops) in arb_defer_ops()) {
        let mut cal: Scheduler<u64> = Scheduler::new();
        let mut heap: HeapScheduler = Scheduler::new();
        let mut held = std::collections::VecDeque::new();
        let mut keys = Vec::new();
        let mut send_seqs = [0u64; 4];
        let (mut arrivals, mut payload) = (0u64, 0u64);
        for op in ops {
            match op {
                DeferOp::Request(extra) => {
                    payload += 1;
                    let at = cal.now() + SimDuration::from_nanos(floor + extra);
                    heap.schedule_at(at, payload);
                    let seq = cal.reserve_seq();
                    held.push_back(Held { asked: cal.now(), at, seq, payload });
                }
                DeferOp::Release => {
                    if let Some(h) = held.pop_front() {
                        cal.schedule_reserved(h.at, h.seq, h.payload);
                    }
                }
                DeferOp::Fel(FelOp::Schedule(offset)) => {
                    payload += 1;
                    let t = cal.now() + SimDuration::from_nanos(offset);
                    keys.push((cal.schedule_at(t, payload), heap.schedule_at(t, payload)));
                }
                DeferOp::Fel(FelOp::ScheduleNow) => {
                    payload += 1;
                    keys.push((cal.schedule_now(payload), heap.schedule_now(payload)));
                }
                DeferOp::Fel(FelOp::Arrival(offset)) => {
                    payload += 1;
                    arrivals += 1;
                    let t = cal.now() + SimDuration::from_nanos(offset);
                    keys.push((
                        cal.schedule_arrival(t, rank(arrivals), payload),
                        heap.schedule_arrival(t, rank(arrivals), payload),
                    ));
                }
                DeferOp::Fel(FelOp::Remote { sender, offset }) => {
                    payload += 1;
                    let t = cal.now() + SimDuration::from_nanos(offset);
                    let seq = send_seqs[sender];
                    send_seqs[sender] += 1;
                    cal.schedule_remote(t, sender, seq, payload);
                    heap.schedule_remote(t, sender, seq, payload);
                }
                DeferOp::Fel(FelOp::CancelNth(n) | FelOp::CancelRecent(n)) => {
                    if let Some((ck, hk)) = recent(&keys, n) {
                        prop_assert_eq!(cal.cancel(ck), heap.cancel(hk));
                    }
                }
                DeferOp::Fel(FelOp::Peek) => {
                    while let Some(h) = held.pop_front() {
                        cal.schedule_reserved(h.at, h.seq, h.payload);
                    }
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                }
                DeferOp::Fel(FelOp::Pop) => {
                    let popped = pop_deferred(&mut cal, &mut held, floor, SimTime::MAX);
                    prop_assert_eq!(popped, heap.pop_until(SimTime::MAX));
                }
                DeferOp::Fel(FelOp::PopUntil(offset)) => {
                    let limit = cal.now() + SimDuration::from_nanos(offset);
                    let popped = pop_deferred(&mut cal, &mut held, floor, limit);
                    prop_assert_eq!(popped, heap.pop_until(limit));
                }
            }
            prop_assert_eq!(cal.now(), heap.now());
        }
        while let Some(h) = held.pop_front() {
            cal.schedule_reserved(h.at, h.seq, h.payload);
        }
        prop_assert_eq!(drain(&mut cal), drain(&mut heap));
        prop_assert_eq!(cal.scheduled_total(), heap.scheduled_total());
        prop_assert_eq!(cal.executed_total(), heap.executed_total());
        prop_assert_eq!(cal.cancelled_total(), heap.cancelled_total());
    }

    /// The scheduler agrees with a reference model (a sorted multiset of
    /// (time, seq) pairs with tombstones) on every pop.
    #[test]
    fn scheduler_matches_reference_model(ops in arb_ops()) {
        let mut sched: Scheduler<u64> = Scheduler::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
        let mut issued = Vec::new(); // (key, time, seq, payload)
        let mut cancelled = std::collections::HashSet::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut payload = 1000u64;

        for op in ops {
            match op {
                Op::Schedule(offset) => {
                    let t = now + offset;
                    payload += 1;
                    let key = sched.schedule_at(SimTime::from_nanos(t), payload);
                    model.push(Reverse((t, seq, payload)));
                    issued.push((key, t, seq, payload));
                    seq += 1;
                }
                Op::CancelNth(n) => {
                    if let Some(&(key, t, s, p)) = issued.get(n % issued.len().max(1)) {
                        // Cancel both in the scheduler and the model (only
                        // meaningful if not already popped/cancelled).
                        if sched.cancel(key) {
                            cancelled.insert((t, s, p));
                        }
                    }
                }
                Op::Pop => {
                    // Pop the reference model's earliest non-cancelled.
                    let expected = loop {
                        match model.pop() {
                            None => break None,
                            Some(Reverse((t, s, p))) => {
                                if !cancelled.contains(&(t, s, p)) {
                                    break Some((t, p));
                                }
                            }
                        }
                    };
                    let got = sched.pop().map(|(t, p)| (t.as_nanos(), p));
                    prop_assert_eq!(got, expected);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
            }
        }
        // Drain both and compare the tails.
        loop {
            let expected = loop {
                match model.pop() {
                    None => break None,
                    Some(Reverse((t, s, p))) => {
                        if !cancelled.contains(&(t, s, p)) {
                            break Some((t, p));
                        }
                    }
                }
            };
            let got = sched.pop().map(|(t, p)| (t.as_nanos(), p));
            prop_assert_eq!(got, expected);
            if got.is_none() {
                break;
            }
        }
        // Conservation: scheduled = executed + cancelled + pending(0).
        prop_assert_eq!(
            sched.scheduled_total(),
            sched.executed_total() + sched.cancelled_total()
        );
    }

    /// Differential test of the calendar-queue FEL against the legacy
    /// binary heap: identical op sequences — local schedules at mixed
    /// offsets (including zero-offset `schedule_now` bursts and recurring
    /// delays that fill the delay lanes), arrival-lane pushes with
    /// scrambled ranks, remote-lane deliveries from several senders,
    /// cancellations, pops, bounded pops, and peeks — must produce
    /// bit-identical pop streams, peeks, pending counts, and lifetime
    /// counters. This is the drop-in proof that swapping the FEL backend
    /// cannot change a simulation.
    #[test]
    fn calendar_queue_matches_binary_heap(ops in arb_any_fel_ops()) {
        let (mut cal, mut heap) = run_both(ops)?;
        prop_assert_eq!(drain(&mut cal), drain(&mut heap));
        prop_assert_eq!(cal.scheduled_total(), heap.scheduled_total());
        prop_assert_eq!(cal.executed_total(), heap.executed_total());
        prop_assert_eq!(cal.cancelled_total(), heap.cancelled_total());
        prop_assert_eq!(cal.now(), heap.now());
    }

    /// A cloned (checkpointed) calendar queue drains identically to the
    /// original — and to the binary heap — from any mid-workload state the
    /// ops reached, and the original is unaffected by draining the clone
    /// first.
    #[test]
    fn calendar_queue_checkpoint_round_trips(ops in arb_any_fel_ops()) {
        let (mut s, mut heap) = run_both(ops)?;
        let mut snapshot = s.clone();
        let from_snapshot = drain(&mut snapshot);
        prop_assert_eq!(&from_snapshot, &drain(&mut s));
        prop_assert_eq!(from_snapshot, drain(&mut heap));
        prop_assert_eq!(snapshot.executed_total(), s.executed_total());
    }

    /// Pops are globally time-ordered regardless of insertion order.
    #[test]
    fn pops_are_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut s: Scheduler<()> = Scheduler::new();
        for &t in &times {
            s.schedule_at(SimTime::from_nanos(t), ());
        }
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = s.pop() {
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    /// Summary::merge is associative-enough: merging in any split point
    /// yields the same moments as one pass.
    #[test]
    fn summary_split_invariance(
        data in proptest::collection::vec(-1e6f64..1e6, 2..100),
        split in 1usize..99,
    ) {
        let split = split % (data.len() - 1) + 1;
        let mut whole = Summary::new();
        data.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        data[..split].iter().for_each(|&x| a.record(x));
        data[split..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!(
            (a.variance() - whole.variance()).abs()
                <= 1e-6 * (1.0 + whole.variance().abs())
        );
    }

    /// KS distance never exceeds the fraction of differing mass: adding
    /// the same samples to both sides cannot increase it.
    #[test]
    fn ks_shrinks_with_shared_mass(
        shared in proptest::collection::vec(0.0f64..100.0, 1..50),
        extra in proptest::collection::vec(0.0f64..100.0, 1..50),
    ) {
        let a = EmpiricalCdf::from_samples(&extra);
        let mut both = shared.clone();
        both.extend_from_slice(&extra);
        let b = EmpiricalCdf::from_samples(&both);
        let mut shared_only = shared.clone();
        shared_only.extend_from_slice(&extra);
        let c = EmpiricalCdf::from_samples(&shared_only);
        // b and c are identical multisets: distance 0.
        prop_assert!(b.ks_distance(&c) < 1e-12);
        // Distance to the pure-extra distribution is bounded by 1.
        prop_assert!(a.ks_distance(&b) <= 1.0);
    }

    /// Durations built from link math always round up, never to zero for
    /// positive byte counts.
    #[test]
    fn serialization_time_positive(bytes in 1u64..1_000_000, gbps in 1.0f64..400.0) {
        let d = SimDuration::from_bytes_at_gbps(bytes, gbps);
        prop_assert!(d >= SimDuration::from_nanos(1));
        // And scales monotonically in size.
        let d2 = SimDuration::from_bytes_at_gbps(bytes * 2, gbps);
        prop_assert!(d2 >= d);
    }
}
