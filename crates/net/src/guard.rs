//! Guardrails for untrusted oracles: validate every learned verdict and
//! degrade gracefully instead of panicking or silently corrupting results.
//!
//! The hybrid simulator trusts its [`ClusterOracle`] completely: a model
//! that emits NaN latency panics deep inside `SimDuration` conversion, a
//! negative latency would violate causality, and a drifted drop rate
//! silently poisons the full-fidelity region's statistics. The
//! [`GuardedOracle`] wrapper closes that seam. It pulls *raw* (f64)
//! verdicts from the primary oracle via [`ClusterOracle::classify_raw`],
//! checks each one — finite, non-negative, below a configurable ceiling,
//! drop rate inside a tolerance band derived from training-time stats —
//! and on violation either clamps (ceiling) or substitutes the verdict of
//! a configurable baseline oracle (typically
//! [`crate::FixedLatencyOracle`]). Repeated violations flip the guard into
//! permanent fallback: the primary is abandoned for the rest of the run.
//!
//! Trip counts and fallback state are observable through a lock-free
//! [`GuardStatsHandle`] that survives the oracle being boxed and moved
//! into the network, so the CLI can report guardrail activity (and seal
//! the ledger's `hybrid/guard/*` rows) after the run completes.
//!
//! Determinism contract: while the guard never trips, a guarded run is
//! bit-identical to an unguarded one — validation only reads the raw
//! verdict, and the raw→[`OracleVerdict`] conversion is the same
//! `SimDuration::from_secs_f64` the unguarded path performs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use elephant_des::{SimDuration, SimTime};

use crate::oracle::{ClusterOracle, OracleCtx, OracleStats, OracleVerdict, RawVerdict};
use crate::packet::Packet;

/// What a [`GuardedOracle`] checks and when it gives up on the primary.
#[derive(Clone, Debug)]
pub struct GuardConfig {
    /// Hard ceiling on any single predicted latency. Predictions above it
    /// are clamped to the ceiling (and count as a trip).
    pub latency_ceiling: SimDuration,
    /// Training-time drop rate the model reported, if known. `None`
    /// disables the drift check.
    pub expected_drop_rate: Option<f64>,
    /// Allowed absolute deviation of the observed drop rate from
    /// `expected_drop_rate` before a drift trip.
    pub drop_rate_tolerance: f64,
    /// Number of verdicts per drop-rate measurement window.
    pub drop_window: u64,
    /// Total trips after which the guard abandons the primary oracle and
    /// routes every remaining packet to the fallback.
    pub trip_limit: u64,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            // An intra-DC fabric traversal is microseconds; 100ms is
            // generous headroom while still catching "seconds" nonsense.
            latency_ceiling: SimDuration::from_millis(100),
            expected_drop_rate: None,
            drop_rate_tolerance: 0.10,
            drop_window: 1024,
            trip_limit: 64,
        }
    }
}

/// The ways a raw verdict can violate the guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardViolation {
    /// Latency was NaN or infinite.
    NonFinite,
    /// Latency was negative (causality violation).
    Negative,
    /// Latency exceeded [`GuardConfig::latency_ceiling`].
    CeilingExceeded,
    /// Windowed drop rate left the training-time tolerance band.
    DropRateDrift,
}

/// Retain at most this many timestamped trips (the first ones — the run
/// is usually abandoned to the fallback long before the cap matters).
const TRIP_LOG_CAP: usize = 1024;

#[derive(Default)]
struct GuardStatsInner {
    verdicts: AtomicU64,
    non_finite: AtomicU64,
    negative: AtomicU64,
    ceiling: AtomicU64,
    drop_drift: AtomicU64,
    fallback_verdicts: AtomicU64,
    fallback_active: AtomicBool,
    /// Sim-timestamped trips for timeline instant events, bounded at
    /// [`TRIP_LOG_CAP`]. Off the per-verdict hot path: only touched when
    /// a trip actually fires.
    trip_log: Mutex<Vec<(SimTime, GuardViolation)>>,
}

/// Point-in-time copy of a guard's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardSnapshot {
    /// Verdicts the guard has issued in total.
    pub verdicts: u64,
    /// Trips per non-finite latency.
    pub non_finite: u64,
    /// Trips per negative latency.
    pub negative: u64,
    /// Trips per ceiling clamp.
    pub ceiling: u64,
    /// Trips per drop-rate drift window.
    pub drop_drift: u64,
    /// Verdicts answered by the fallback oracle.
    pub fallback_verdicts: u64,
    /// Whether the guard has permanently abandoned the primary.
    pub fallback_active: bool,
}

impl GuardSnapshot {
    /// Total guard trips across all violation kinds.
    pub fn trips(&self) -> u64 {
        self.non_finite + self.negative + self.ceiling + self.drop_drift
    }
}

impl std::fmt::Display for GuardSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.trips() == 0 {
            return write!(
                f,
                "{} verdicts, no trips (bit-identical to unguarded)",
                self.verdicts
            );
        }
        write!(
            f,
            "{} trips in {} verdicts (non-finite {}, negative {}, ceiling {}, \
             drop-drift {}); {} fallback verdicts{}",
            self.trips(),
            self.verdicts,
            self.non_finite,
            self.negative,
            self.ceiling,
            self.drop_drift,
            self.fallback_verdicts,
            if self.fallback_active {
                "; primary ABANDONED (trip limit)"
            } else {
                ""
            }
        )
    }
}

/// Cloneable, lock-free view of a [`GuardedOracle`]'s counters. Obtain one
/// with [`GuardedOracle::stats_handle`] *before* boxing the oracle into the
/// network; it remains valid (and live) for the duration of the run.
#[derive(Clone)]
pub struct GuardStatsHandle(Arc<GuardStatsInner>);

impl GuardStatsHandle {
    /// Reads the current counter values.
    pub fn snapshot(&self) -> GuardSnapshot {
        GuardSnapshot {
            verdicts: self.0.verdicts.load(Ordering::Relaxed),
            non_finite: self.0.non_finite.load(Ordering::Relaxed),
            negative: self.0.negative.load(Ordering::Relaxed),
            ceiling: self.0.ceiling.load(Ordering::Relaxed),
            drop_drift: self.0.drop_drift.load(Ordering::Relaxed),
            fallback_verdicts: self.0.fallback_verdicts.load(Ordering::Relaxed),
            fallback_active: self.0.fallback_active.load(Ordering::Relaxed),
        }
    }

    /// The sim-timestamped trips recorded so far (first [`TRIP_LOG_CAP`]),
    /// in trip order — the raw material for timeline instant events.
    pub fn trip_events(&self) -> Vec<(SimTime, GuardViolation)> {
        self.0
            .trip_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Validating wrapper around an untrusted [`ClusterOracle`]. See the
/// module docs for the contract.
pub struct GuardedOracle {
    primary: Box<dyn ClusterOracle + Send>,
    fallback: Box<dyn ClusterOracle + Send>,
    cfg: GuardConfig,
    stats: Arc<GuardStatsInner>,
    ceiling_secs: f64,
    window_total: u64,
    window_drops: u64,
}

impl GuardedOracle {
    /// Wraps `primary`, answering with `fallback` whenever a verdict is
    /// rejected (or permanently, once `cfg.trip_limit` trips accumulate).
    pub fn new(
        primary: Box<dyn ClusterOracle + Send>,
        fallback: Box<dyn ClusterOracle + Send>,
        cfg: GuardConfig,
    ) -> Self {
        let ceiling_secs = cfg.latency_ceiling.as_secs_f64();
        GuardedOracle {
            primary,
            fallback,
            cfg,
            stats: Arc::new(GuardStatsInner::default()),
            ceiling_secs,
            window_total: 0,
            window_drops: 0,
        }
    }

    /// A handle onto this guard's counters; clone it out before boxing the
    /// oracle into the network.
    pub fn stats_handle(&self) -> GuardStatsHandle {
        GuardStatsHandle(Arc::clone(&self.stats))
    }

    fn trip(&mut self, kind: GuardViolation, now: SimTime) {
        let counter = match kind {
            GuardViolation::NonFinite => &self.stats.non_finite,
            GuardViolation::Negative => &self.stats.negative,
            GuardViolation::CeilingExceeded => &self.stats.ceiling,
            GuardViolation::DropRateDrift => &self.stats.drop_drift,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        {
            let mut log = self
                .stats
                .trip_log
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if log.len() < TRIP_LOG_CAP {
                log.push((now, kind));
            }
        }
        let total = self.stats.non_finite.load(Ordering::Relaxed)
            + self.stats.negative.load(Ordering::Relaxed)
            + self.stats.ceiling.load(Ordering::Relaxed)
            + self.stats.drop_drift.load(Ordering::Relaxed);
        if total >= self.cfg.trip_limit && !self.stats.fallback_active.load(Ordering::Relaxed) {
            self.stats.fallback_active.store(true, Ordering::Relaxed);
        }
    }

    /// The shared guard pipeline: pull a raw verdict from the primary
    /// (with real `ctx`/`pkt`/`now` — the fallback and any verdict cache
    /// below need the true packet context), validate it, and return the
    /// *validated* raw verdict. Both [`ClusterOracle::classify`] and
    /// [`ClusterOracle::classify_raw`] are thin shells over this, so a
    /// memoized verdict served through the raw seam receives exactly the
    /// same validation as fresh inference.
    fn guarded_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        self.stats.verdicts.fetch_add(1, Ordering::Relaxed);
        if self.stats.fallback_active.load(Ordering::Relaxed) {
            self.stats.fallback_verdicts.fetch_add(1, Ordering::Relaxed);
            return self.fallback.classify_raw(ctx, pkt, now);
        }

        let raw = self.primary.classify_raw(ctx, pkt, now);
        self.observe_drop_rate(&raw, now);
        match raw {
            RawVerdict::Drop => RawVerdict::Drop,
            RawVerdict::Deliver { latency_secs } => {
                if !latency_secs.is_finite() {
                    self.trip(GuardViolation::NonFinite, now);
                } else if latency_secs < 0.0 {
                    self.trip(GuardViolation::Negative, now);
                } else if latency_secs > self.ceiling_secs {
                    // Out of range but well-formed: clamp rather than
                    // discard the (directionally useful) prediction.
                    self.trip(GuardViolation::CeilingExceeded, now);
                    return RawVerdict::Deliver {
                        latency_secs: self.ceiling_secs,
                    };
                } else {
                    return raw;
                }
                // Unrepresentable prediction: substitute the fallback's
                // verdict for this packet.
                self.stats.fallback_verdicts.fetch_add(1, Ordering::Relaxed);
                self.fallback.classify_raw(ctx, pkt, now)
            }
        }
    }

    /// Tracks the primary's drop rate over fixed windows and trips on
    /// drift outside the training-time band.
    fn observe_drop_rate(&mut self, raw: &RawVerdict, now: SimTime) {
        let Some(expected) = self.cfg.expected_drop_rate else {
            return;
        };
        self.window_total += 1;
        if matches!(raw, RawVerdict::Drop) {
            self.window_drops += 1;
        }
        if self.window_total >= self.cfg.drop_window.max(1) {
            let rate = self.window_drops as f64 / self.window_total as f64;
            if (rate - expected).abs() > self.cfg.drop_rate_tolerance {
                self.trip(GuardViolation::DropRateDrift, now);
            }
            self.window_total = 0;
            self.window_drops = 0;
        }
    }
}

impl ClusterOracle for GuardedOracle {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        match self.guarded_raw(ctx, pkt, now) {
            RawVerdict::Drop => OracleVerdict::Drop,
            // Validated above: finite, non-negative, at most the ceiling.
            RawVerdict::Deliver { latency_secs } => OracleVerdict::Deliver {
                latency: SimDuration::from_secs_f64(latency_secs),
            },
        }
    }

    /// The validated raw path. Earlier revisions inherited the default
    /// `classify_raw` (which routed through `classify` and discarded the
    /// f64), so raw consumers bypassed nothing but *lost* resolution; now
    /// both seams share [`GuardedOracle::guarded_raw`] and forward the
    /// real `ctx`/`pkt`/`now` to primary and fallback alike.
    fn classify_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        self.guarded_raw(ctx, pkt, now)
    }

    /// The primary's regime estimate, even in permanent fallback: the
    /// fallback is a latency baseline with no regime model, and samplers
    /// charting the (abandoned) model's state next to guard-trip instants
    /// is exactly the diagnostic picture wanted.
    fn macro_state_of(&self, cluster: u16) -> Option<u8> {
        self.primary.macro_state_of(cluster)
    }

    fn oracle_stats(&self) -> Option<&OracleStats> {
        self.primary.oracle_stats()
    }

    /// Snapshottable iff both wrapped oracles are. The clone *shares* the
    /// `Arc`'d stats block with the original: the handle a caller took
    /// before boxing the guard must stay live across restores, so a restored
    /// run keeps accumulating onto the same counters — they are the one part
    /// of a run's statistics that counts abandoned attempts too, which is
    /// why supervised runs do not report them.
    /// The drop-rate window and permanent-fallback latch, which *do* shape
    /// verdicts, live in `cfg`/`window_*`/`fallback_active` and travel with
    /// the snapshot (the latch is inside the shared stats, so an abandoned
    /// primary stays abandoned after restore — the conservative choice).
    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        let primary = self.primary.clone_box()?;
        let fallback = self.fallback.clone_box()?;
        Some(Box::new(GuardedOracle {
            primary,
            fallback,
            cfg: self.cfg.clone(),
            stats: Arc::clone(&self.stats),
            ceiling_secs: self.ceiling_secs,
            window_total: self.window_total,
            window_drops: self.window_drops,
        }))
    }
}

/// The ways a [`FaultyOracle`] can misbehave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleFaultMode {
    /// Emit NaN latencies.
    Nan,
    /// Emit negative latencies.
    Negative,
    /// Emit absurdly huge (but finite) latencies.
    Huge,
}

/// A deliberately misbehaving oracle for fault drills: every `every`-th
/// deliver verdict carries a malformed latency of the configured kind;
/// the rest deliver after a fixed base latency.
///
/// Running one *unguarded* reproduces the failure the guardrails exist
/// for: [`ClusterOracle::classify`] converts the malformed f64 through
/// `SimDuration::from_secs_f64`, which panics on NaN or negative input.
/// Behind a [`GuardedOracle`] the same stream is absorbed as trips.
#[derive(Clone)]
pub struct FaultyOracle {
    mode: OracleFaultMode,
    every: u64,
    base: SimDuration,
    count: u64,
}

impl FaultyOracle {
    /// `every = 1` makes every verdict malformed; `every = n` poisons one
    /// verdict in `n`. Healthy verdicts deliver after `base`.
    pub fn new(mode: OracleFaultMode, every: u64, base: SimDuration) -> Self {
        FaultyOracle {
            mode,
            every: every.max(1),
            base,
            count: 0,
        }
    }
}

impl ClusterOracle for FaultyOracle {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        match self.classify_raw(ctx, pkt, now) {
            RawVerdict::Drop => OracleVerdict::Drop,
            // Panics on a malformed latency — the unguarded failure mode.
            RawVerdict::Deliver { latency_secs } => OracleVerdict::Deliver {
                latency: SimDuration::from_secs_f64(latency_secs),
            },
        }
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        Some(Box::new(self.clone()))
    }

    fn classify_raw(&mut self, _ctx: &OracleCtx<'_>, _pkt: &Packet, _now: SimTime) -> RawVerdict {
        self.count += 1;
        let latency_secs = if self.count.is_multiple_of(self.every) {
            match self.mode {
                OracleFaultMode::Nan => f64::NAN,
                OracleFaultMode::Negative => -1.0e-3,
                OracleFaultMode::Huge => 1.0e9,
            }
        } else {
            self.base.as_secs_f64()
        };
        RawVerdict::Deliver { latency_secs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::FixedLatencyOracle;
    use crate::packet::{Ecn, Packet, TcpFlags, TcpSegment};
    use crate::topology::{ClosParams, Topology};
    use crate::types::{Direction, FlowId, HostAddr};

    const BASE: SimDuration = SimDuration::from_micros(5);
    const FALLBACK: SimDuration = SimDuration::from_micros(9);

    fn pkt() -> Packet {
        Packet {
            id: 0,
            flow: FlowId(1),
            src: HostAddr::new(1, 0, 0),
            dst: HostAddr::new(0, 0, 0),
            seg: TcpSegment {
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                payload_len: 1460,
                ece: false,
                cwr: false,
            },
            ecn: Ecn::NotCapable,
            sent_at: SimTime::ZERO,
        }
    }

    fn with_ctx<R>(f: impl FnOnce(&OracleCtx<'_>, &Packet) -> R) -> R {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let p = pkt();
        let path = topo.fabric_path(p.src, p.dst, p.flow);
        let ctx = OracleCtx {
            topo: &topo,
            cluster: 1,
            direction: Direction::Up,
            path,
        };
        f(&ctx, &p)
    }

    fn guarded(mode: OracleFaultMode, every: u64, cfg: GuardConfig) -> GuardedOracle {
        GuardedOracle::new(
            Box::new(FaultyOracle::new(mode, every, BASE)),
            Box::new(FixedLatencyOracle(FALLBACK)),
            cfg,
        )
    }

    #[test]
    fn clean_verdicts_pass_through_unchanged() {
        with_ctx(|ctx, p| {
            let mut g = GuardedOracle::new(
                Box::new(FixedLatencyOracle(BASE)),
                Box::new(FixedLatencyOracle(FALLBACK)),
                GuardConfig::default(),
            );
            let h = g.stats_handle();
            for _ in 0..100 {
                assert_eq!(
                    g.classify(ctx, p, SimTime::ZERO),
                    OracleVerdict::Deliver { latency: BASE }
                );
            }
            let snap = h.snapshot();
            assert_eq!(snap.trips(), 0);
            assert_eq!(snap.verdicts, 100);
            assert!(!snap.fallback_active);
        });
    }

    #[test]
    fn nan_latency_trips_and_falls_back_per_packet() {
        with_ctx(|ctx, p| {
            let mut g = guarded(OracleFaultMode::Nan, 2, GuardConfig::default());
            let h = g.stats_handle();
            // Odd calls healthy (BASE), even calls NaN -> fallback verdict.
            assert_eq!(
                g.classify(ctx, p, SimTime::ZERO),
                OracleVerdict::Deliver { latency: BASE }
            );
            assert_eq!(
                g.classify(ctx, p, SimTime::ZERO),
                OracleVerdict::Deliver { latency: FALLBACK }
            );
            let snap = h.snapshot();
            assert_eq!(snap.non_finite, 1);
            assert_eq!(snap.fallback_verdicts, 1);
        });
    }

    #[test]
    fn trip_log_records_sim_timestamps() {
        with_ctx(|ctx, p| {
            let mut g = guarded(OracleFaultMode::Nan, 2, GuardConfig::default());
            let h = g.stats_handle();
            for i in 0..4u64 {
                g.classify(ctx, p, SimTime::from_micros(i));
            }
            assert_eq!(
                h.trip_events(),
                vec![
                    (SimTime::from_micros(1), GuardViolation::NonFinite),
                    (SimTime::from_micros(3), GuardViolation::NonFinite),
                ]
            );
        });
    }

    #[test]
    fn negative_latency_trips() {
        with_ctx(|ctx, p| {
            let mut g = guarded(OracleFaultMode::Negative, 1, GuardConfig::default());
            let h = g.stats_handle();
            assert_eq!(
                g.classify(ctx, p, SimTime::ZERO),
                OracleVerdict::Deliver { latency: FALLBACK }
            );
            assert_eq!(h.snapshot().negative, 1);
        });
    }

    #[test]
    fn huge_latency_is_clamped_to_ceiling() {
        with_ctx(|ctx, p| {
            let cfg = GuardConfig::default();
            let ceiling = cfg.latency_ceiling;
            let mut g = guarded(OracleFaultMode::Huge, 1, cfg);
            let h = g.stats_handle();
            assert_eq!(
                g.classify(ctx, p, SimTime::ZERO),
                OracleVerdict::Deliver { latency: ceiling }
            );
            assert_eq!(h.snapshot().ceiling, 1);
        });
    }

    #[test]
    fn trip_limit_flips_to_permanent_fallback() {
        with_ctx(|ctx, p| {
            let cfg = GuardConfig {
                trip_limit: 3,
                ..Default::default()
            };
            let mut g = guarded(OracleFaultMode::Nan, 1, cfg);
            let h = g.stats_handle();
            for _ in 0..10 {
                let v = g.classify(ctx, p, SimTime::ZERO);
                assert_eq!(v, OracleVerdict::Deliver { latency: FALLBACK });
            }
            let snap = h.snapshot();
            assert!(snap.fallback_active, "limit of 3 reached");
            assert_eq!(snap.non_finite, 3, "primary abandoned after 3 trips");
            assert_eq!(snap.fallback_verdicts, 10);
        });
    }

    #[test]
    fn drop_rate_drift_trips_within_one_window() {
        // Training said ~1% drops; the primary drops everything.
        struct AlwaysDrop;
        impl ClusterOracle for AlwaysDrop {
            fn classify(&mut self, _: &OracleCtx<'_>, _: &Packet, _: SimTime) -> OracleVerdict {
                OracleVerdict::Drop
            }
        }
        with_ctx(|ctx, p| {
            let cfg = GuardConfig {
                expected_drop_rate: Some(0.01),
                drop_rate_tolerance: 0.05,
                drop_window: 64,
                ..Default::default()
            };
            let mut g = GuardedOracle::new(
                Box::new(AlwaysDrop),
                Box::new(FixedLatencyOracle(FALLBACK)),
                cfg,
            );
            let h = g.stats_handle();
            for _ in 0..64 {
                g.classify(ctx, p, SimTime::ZERO);
            }
            assert_eq!(h.snapshot().drop_drift, 1);
        });
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn unguarded_faulty_oracle_panics() {
        with_ctx(|ctx, p| {
            let mut bad = FaultyOracle::new(OracleFaultMode::Nan, 1, BASE);
            let _ = bad.classify(ctx, p, SimTime::ZERO);
        });
    }
}
