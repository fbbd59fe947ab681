//! Property test: TCP liveness under arbitrary loss patterns.
//!
//! Drives a sender/receiver pair over an abstract lossy wire (no queues —
//! this isolates the protocol machine) with randomized drop rates and
//! seeds, asserting the transfer always completes with the exact byte
//! count, never spins, and never reports completion twice.

use elephant_des::{SimDuration, SimTime, SmallRng};
use elephant_net::{TcpConfig, TcpConn, TcpOutput, TcpSegment, TimerCmd};
use proptest::prelude::*;

/// Outcome of a lossy-wire exchange.
struct Outcome {
    completed: bool,
    closed_both: bool,
    bytes_acked: u64,
    completions_reported: u32,
    steps: u64,
}

/// Runs one transfer of `bytes` with i.i.d. segment loss at `drop_rate`.
fn run_lossy(bytes: u64, drop_rate: f64, seed: u64) -> Outcome {
    let cfg = TcpConfig {
        delayed_ack: seed.is_multiple_of(2),
        ..Default::default()
    };
    let mut snd = TcpConn::sender(&cfg, bytes);
    let mut rcv = TcpConn::receiver();
    let mut rng = SmallRng::seed_from_u64(seed);
    let delay = SimDuration::from_micros(30);

    // (deliver_at, to_sender, segment)
    let mut wire: Vec<(SimTime, bool, TcpSegment)> = Vec::new();
    let mut rto_snd: Option<SimTime> = None;
    let mut delack: Option<SimTime> = None;
    let mut now = SimTime::ZERO;
    let mut out = TcpOutput::default();
    let mut outcome = Outcome {
        completed: false,
        closed_both: false,
        bytes_acked: 0,
        completions_reported: 0,
        steps: 0,
    };

    let apply = |from_sender: bool,
                 out: &mut TcpOutput,
                 wire: &mut Vec<(SimTime, bool, TcpSegment)>,
                 rto_snd: &mut Option<SimTime>,
                 delack: &mut Option<SimTime>,
                 rng: &mut SmallRng,
                 now: SimTime,
                 outcome: &mut Outcome| {
        for seg in out.segments.drain(..) {
            if rng.next_f64() >= drop_rate {
                wire.push((now + delay, !from_sender, seg));
            }
        }
        if from_sender {
            match out.rto {
                TimerCmd::Keep => {}
                TimerCmd::Cancel => *rto_snd = None,
                TimerCmd::Set(at) => *rto_snd = Some(at),
            }
        } else {
            match out.delack {
                TimerCmd::Keep => {}
                TimerCmd::Cancel => *delack = None,
                TimerCmd::Set(at) => *delack = Some(at),
            }
        }
        if out.completed {
            outcome.completed = true;
            outcome.completions_reported += 1;
        }
    };

    snd.open(now, &mut out);
    apply(
        true,
        &mut out,
        &mut wire,
        &mut rto_snd,
        &mut delack,
        &mut rng,
        now,
        &mut outcome,
    );

    for _ in 0..5_000_000u64 {
        outcome.steps += 1;
        // Next event across wire and timers.
        let mut best: Option<(SimTime, u8, usize)> = None;
        for (i, &(t, _, _)) in wire.iter().enumerate() {
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, 0, i));
            }
        }
        if let Some(t) = rto_snd {
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, 1, 0));
            }
        }
        if let Some(t) = delack {
            if best.is_none_or(|(bt, _, _)| t < bt) {
                best = Some((t, 2, 0));
            }
        }
        let Some((t, kind, idx)) = best else { break };
        if t > SimTime::from_secs(120) {
            break; // safety horizon
        }
        now = t;
        out.clear();
        match kind {
            0 => {
                let (_, to_sender, seg) = wire.remove(idx);
                if to_sender {
                    snd.on_segment(&cfg, &seg, false, now, &mut out);
                    apply(
                        true,
                        &mut out,
                        &mut wire,
                        &mut rto_snd,
                        &mut delack,
                        &mut rng,
                        now,
                        &mut outcome,
                    );
                } else {
                    rcv.on_segment(&cfg, &seg, false, now, &mut out);
                    apply(
                        false,
                        &mut out,
                        &mut wire,
                        &mut rto_snd,
                        &mut delack,
                        &mut rng,
                        now,
                        &mut outcome,
                    );
                }
            }
            1 => {
                rto_snd = None;
                snd.on_rto(&cfg, now, &mut out);
                apply(
                    true,
                    &mut out,
                    &mut wire,
                    &mut rto_snd,
                    &mut delack,
                    &mut rng,
                    now,
                    &mut outcome,
                );
            }
            _ => {
                delack = None;
                rcv.on_delack(&cfg, now, &mut out);
                apply(
                    false,
                    &mut out,
                    &mut wire,
                    &mut rto_snd,
                    &mut delack,
                    &mut rng,
                    now,
                    &mut outcome,
                );
            }
        }
        if snd.is_closed() && rcv.is_closed() {
            break;
        }
    }
    outcome.bytes_acked = snd.stats().bytes_acked;
    outcome.closed_both = snd.is_closed() && rcv.is_closed();
    outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transfers_survive_random_loss(
        bytes in 1_000u64..200_000,
        drop_pct in 0u32..30,
        seed in 0u64..10_000,
    ) {
        let o = run_lossy(bytes, drop_pct as f64 / 100.0, seed);
        prop_assert!(o.completed, "transfer of {bytes}B at {drop_pct}% loss completed");
        prop_assert_eq!(o.bytes_acked, bytes, "every byte acknowledged exactly");
        prop_assert_eq!(o.completions_reported, 1, "completion reported exactly once");
        prop_assert!(o.closed_both, "both endpoints reached Closed");
    }

    #[test]
    fn lossless_is_fast_and_clean(bytes in 1_000u64..500_000, seed in 0u64..100) {
        let o = run_lossy(bytes, 0.0, seed);
        prop_assert!(o.completed && o.closed_both);
        prop_assert_eq!(o.bytes_acked, bytes);
        // No loss => segments + acks + handshake/fin only; steps bounded
        // by a small multiple of the segment count.
        let segments = bytes.div_ceil(1460);
        prop_assert!(
            o.steps < segments * 4 + 64,
            "steps {} for {} segments",
            o.steps,
            segments
        );
    }
}
