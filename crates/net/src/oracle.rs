//! The cluster-oracle abstraction: the seam where learned approximation
//! plugs into the packet-level engine.
//!
//! In the hybrid simulator (paper Figure 3), a stub cluster's fabric is a
//! black box. Whenever a packet reaches the fabric boundary — upward from a
//! host's NIC, or downward from a core switch — the engine asks the
//! installed [`ClusterOracle`] for a verdict: drop the packet, or deliver
//! it across the missing fabric after some latency.
//!
//! `elephant-net` ships only trivial oracles ([`IdealOracle`],
//! [`FixedLatencyOracle`]) used for testing and as lower-bound baselines;
//! the learned macro/micro oracle lives in `elephant-core`, which is the
//! paper's actual contribution.

use elephant_des::{SimDuration, SimTime};
use elephant_obs::LogHistogram;

use crate::packet::Packet;
use crate::topology::{FabricPath, Topology};
use crate::types::Direction;

/// What the oracle decided for one packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OracleVerdict {
    /// The fabric would have dropped this packet.
    Drop,
    /// The packet crosses the fabric and emerges after `latency`.
    Deliver {
        /// Predicted fabric traversal latency.
        latency: SimDuration,
    },
}

/// Context handed to the oracle alongside each packet. Everything here is
/// computable from the packet header, the clock, and routing knowledge —
/// the paper's constraint on admissible features (§4.2).
#[derive(Clone, Copy, Debug)]
pub struct OracleCtx<'a> {
    /// The topology (for path/feature computation).
    pub topo: &'a Topology,
    /// The approximated cluster this boundary belongs to.
    pub cluster: u16,
    /// Whether the packet is heading up (host → core) or down
    /// (core → host).
    pub direction: Direction,
    /// The ECMP path the packet would have taken through the fabric.
    pub path: FabricPath,
    /// Whether the run is profiled: an oracle that times its inferences
    /// ([`OracleStats::infer_seconds`]) does so only then.
    pub profile: bool,
}

/// What an oracle *actually* computed, before any validation.
///
/// Unlike [`OracleVerdict`], whose integer [`SimDuration`] cannot represent
/// NaN, negative, or absurd values (constructing one panics in
/// `SimDuration::from_secs_f64`), a raw verdict carries the latency as the
/// untrusted `f64` the model emitted. This is the type the
/// [`crate::GuardedOracle`] validates; converting to an [`OracleVerdict`]
/// is only safe once the value has been checked.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum RawVerdict {
    /// The fabric would have dropped this packet.
    Drop,
    /// Deliver after `latency_secs` — unvalidated: may be NaN, negative,
    /// or wildly out of range.
    Deliver {
        /// Predicted fabric traversal latency in seconds, as emitted.
        latency_secs: f64,
    },
}

impl RawVerdict {
    /// The raw form of a validated verdict (exact for any latency below
    /// ~13 days: the f64 round-trip through seconds loses nothing at
    /// nanosecond granularity in that range).
    pub fn from_verdict(v: OracleVerdict) -> Self {
        match v {
            OracleVerdict::Drop => RawVerdict::Drop,
            OracleVerdict::Deliver { latency } => RawVerdict::Deliver {
                latency_secs: latency.as_secs_f64(),
            },
        }
    }
}

/// What a regime-modelling oracle counted while serving verdicts — plain
/// fields of the oracle, so they checkpoint and restore with it.
#[derive(Clone, Debug)]
pub struct OracleStats {
    /// Verdicts issued.
    pub classified: u64,
    /// Drop verdicts.
    pub drops: u64,
    /// Verdicts issued in each macro state (by index).
    pub per_state: [u64; 4],
    /// Wall-clock seconds per model inference; recorded only in a
    /// profiled run ([`OracleCtx::profile`]), because timing a verdict
    /// costs two clock reads.
    pub infer_seconds: LogHistogram,
}

impl Default for OracleStats {
    fn default() -> Self {
        OracleStats {
            classified: 0,
            drops: 0,
            per_state: [0; 4],
            infer_seconds: LogHistogram::for_latency_seconds(),
        }
    }
}

/// A model of an approximated cluster fabric.
pub trait ClusterOracle {
    /// Judges one boundary crossing.
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict;

    /// Like [`ClusterOracle::classify`], but returns the unvalidated raw
    /// prediction. Oracles whose output can be malformed (learned models)
    /// override this with their native f64 path so a NaN or negative
    /// latency reaches the guardrail instead of panicking inside
    /// `SimDuration` conversion; well-formed oracles inherit this default.
    fn classify_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        RawVerdict::from_verdict(self.classify(ctx, pkt, now))
    }

    /// The oracle's current congestion-regime index for `cluster` (the
    /// paper's §4.1 macro state, 0 = calmest), if it models one. Trivial
    /// oracles have no notion of regime and inherit `None`; the learned
    /// oracle overrides this so time-series samplers can chart regime
    /// transitions. Read-only: implementations must not advance model
    /// state here.
    fn macro_state_of(&self, cluster: u16) -> Option<u8> {
        let _ = cluster;
        None
    }

    /// The oracle's own counters, read after a run. Oracles that keep none
    /// inherit `None`; wrappers forward to the oracle they wrap.
    fn oracle_stats(&self) -> Option<&OracleStats> {
        None
    }

    /// Deep-copies the oracle — including any regime, RNN, and verdict-cache
    /// state — for checkpoint/restore. Returns `None` (the default) when the
    /// oracle cannot be snapshotted; a [`crate::Network`] holding such an
    /// oracle refuses to be cloned, and the recovery driver must rebuild it
    /// cold instead. Every shipped oracle overrides this.
    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        None
    }
}

/// Zero-queueing baseline: every packet crosses the fabric at wire speed
/// with no contention — the physical lower bound on latency. Useful in
/// tests and as the "infinitely optimistic" comparison point.
#[derive(Clone, Copy, Debug)]
pub struct IdealOracle;

impl IdealOracle {
    /// The uncongested fabric traversal time for `pkt` in `ctx`:
    /// serialization plus propagation over each hop the packet skips.
    pub fn base_latency(ctx: &OracleCtx<'_>, pkt: &Packet) -> SimDuration {
        let p = ctx.topo.params();
        let size = pkt.wire_bytes() as u64;
        // Up: ToR -> Agg -> Core is two store-and-forward hops after the
        // (simulated) host link. Down: Agg -> ToR -> host is likewise two.
        let fabric_hop = SimDuration::from_bytes_at_gbps(size, p.fabric_link.rate_gbps)
            + p.fabric_link.prop_delay;
        match ctx.direction {
            Direction::Up => {
                let core_hop = SimDuration::from_bytes_at_gbps(size, p.core_link.rate_gbps)
                    + p.core_link.prop_delay;
                fabric_hop + core_hop
            }
            Direction::Down => {
                let host_hop = SimDuration::from_bytes_at_gbps(size, p.host_link.rate_gbps)
                    + p.host_link.prop_delay;
                fabric_hop + host_hop
            }
        }
    }
}

impl ClusterOracle for IdealOracle {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, _now: SimTime) -> OracleVerdict {
        OracleVerdict::Deliver {
            latency: Self::base_latency(ctx, pkt),
        }
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        Some(Box::new(*self))
    }
}

/// Delivers everything after a fixed latency; drops nothing. Handy for
/// deterministic engine tests.
#[derive(Clone, Copy, Debug)]
pub struct FixedLatencyOracle(pub SimDuration);

impl ClusterOracle for FixedLatencyOracle {
    fn classify(&mut self, _ctx: &OracleCtx<'_>, _pkt: &Packet, _now: SimTime) -> OracleVerdict {
        OracleVerdict::Deliver { latency: self.0 }
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        Some(Box::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, TcpFlags, TcpSegment};
    use crate::topology::ClosParams;
    use crate::types::{FlowId, HostAddr};

    #[test]
    fn ideal_latency_scales_with_size_and_direction() {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let mk = |payload| Packet {
            id: 0,
            flow: FlowId(1),
            src: HostAddr::new(1, 0, 0),
            dst: HostAddr::new(0, 0, 0),
            seg: TcpSegment {
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                payload_len: payload,
                ece: false,
                cwr: false,
            },
            ecn: Ecn::NotCapable,
            sent_at: SimTime::ZERO,
        };
        let path = topo.fabric_path(HostAddr::new(1, 0, 0), HostAddr::new(0, 0, 0), FlowId(1));
        let up = OracleCtx {
            topo: &topo,
            cluster: 1,
            direction: Direction::Up,
            path,
            profile: false,
        };
        let full = mk(1460);
        let ack = mk(0);
        let lat_full = IdealOracle::base_latency(&up, &full);
        let lat_ack = IdealOracle::base_latency(&up, &ack);
        assert!(lat_full > lat_ack, "bigger packets serialize longer");
        // 2 hops x (1200ns ser + 1000ns prop) for the full packet.
        assert_eq!(lat_full, SimDuration::from_nanos(2 * (1200 + 1000)));
    }
}
