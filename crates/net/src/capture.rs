//! Boundary capture: recording ground-truth fabric traversals for training.
//!
//! The paper's workflow (§3) starts by running a small full-fidelity
//! simulation and harvesting, for every packet that crosses the boundary of
//! the cluster under study, *when it entered the fabric, the path it took,
//! and whether/when it came out*. Those records are the training set for
//! the macro and micro models.
//!
//! The engine calls the hooks below at the fabric boundary of the captured
//! cluster:
//!
//! * **Up** traversals begin when a packet from a host in the cluster
//!   arrives at its ToR with a destination outside the cluster, and end
//!   when the packet arrives at a core switch.
//! * **Down** traversals begin when a packet from outside arrives at one of
//!   the cluster's Cluster switches, and end when it arrives at its
//!   destination host.
//! * A drop anywhere in between finalizes the traversal as dropped.
//!
//! These boundaries line up exactly with where the hybrid simulator's
//! oracle sits, so a model trained on these records predicts precisely the
//! quantity the oracle must produce.

use elephant_des::{SimDuration, SimTime};

use crate::packet::Packet;
use crate::topology::FabricPath;
use crate::types::{Direction, FlowId, HostAddr};

/// One ground-truth fabric traversal.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryRecord {
    /// When the packet entered the fabric.
    pub t_in: SimTime,
    /// Traversal direction.
    pub direction: Direction,
    /// Directional flow id of the packet.
    pub flow: FlowId,
    /// Source server.
    pub src: HostAddr,
    /// Destination server.
    pub dst: HostAddr,
    /// Wire size in bytes.
    pub size: u32,
    /// The ECMP path through (and beyond) the fabric.
    pub path: FabricPath,
    /// True if the fabric dropped the packet.
    pub dropped: bool,
    /// Fabric traversal latency; zero when dropped.
    pub latency: SimDuration,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    t_in: SimTime,
    direction: Direction,
    flow: FlowId,
    src: HostAddr,
    dst: HostAddr,
    size: u32,
    path: FabricPath,
}

/// Traversals in flight, by packet id. Capture runs only while recording
/// training data, never in a measured or hybrid run.
#[allow(clippy::disallowed_types)]
type PendingMap = std::collections::HashMap<u64, Pending>;

/// Collects [`BoundaryRecord`]s for one cluster during a full-fidelity run.
#[derive(Clone, Debug)]
pub struct CaptureState {
    cluster: u16,
    pending: PendingMap,
    records: Vec<BoundaryRecord>,
}

impl CaptureState {
    /// Captures traversals of `cluster`'s fabric.
    pub fn new(cluster: u16) -> Self {
        CaptureState {
            cluster,
            pending: PendingMap::new(),
            records: Vec::new(),
        }
    }

    /// The cluster being captured.
    pub fn cluster(&self) -> u16 {
        self.cluster
    }

    /// A packet entered the fabric.
    pub fn begin(&mut self, pkt: &Packet, direction: Direction, path: FabricPath, now: SimTime) {
        self.pending.insert(
            pkt.id,
            Pending {
                t_in: now,
                direction,
                flow: pkt.flow,
                src: pkt.src,
                dst: pkt.dst,
                size: pkt.wire_bytes(),
                path,
            },
        );
    }

    /// A packet left the fabric (arrived at a core switch for Up, at its
    /// host for Down). No-op if the packet was not being tracked.
    pub fn end(&mut self, pkt_id: u64, now: SimTime) {
        if let Some(p) = self.pending.remove(&pkt_id) {
            self.records.push(BoundaryRecord {
                t_in: p.t_in,
                direction: p.direction,
                flow: p.flow,
                src: p.src,
                dst: p.dst,
                size: p.size,
                path: p.path,
                dropped: false,
                latency: now.saturating_since(p.t_in),
            });
        }
    }

    /// A tracked packet was dropped inside the fabric. No-op if untracked.
    pub fn dropped(&mut self, pkt_id: u64, _now: SimTime) {
        if let Some(p) = self.pending.remove(&pkt_id) {
            self.records.push(BoundaryRecord {
                t_in: p.t_in,
                direction: p.direction,
                flow: p.flow,
                src: p.src,
                dst: p.dst,
                size: p.size,
                path: p.path,
                dropped: true,
                latency: SimDuration::ZERO,
            });
        }
    }

    /// The harvested records, in completion order. Call after the run;
    /// sort by `t_in` for sequence training (the trainer does this).
    pub fn records(&self) -> &[BoundaryRecord] {
        &self.records
    }

    /// Consumes the capture, returning the records.
    pub fn into_records(self) -> Vec<BoundaryRecord> {
        self.records
    }

    /// Traversals still in flight (unfinished at simulation end).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Ecn, TcpFlags, TcpSegment};

    fn mk_pkt(id: u64) -> Packet {
        Packet {
            id,
            flow: FlowId(5),
            src: HostAddr::new(0, 0, 0),
            dst: HostAddr::new(1, 0, 0),
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

    fn path() -> FabricPath {
        FabricPath {
            src_tor: 0,
            src_agg: 1,
            core: Some(0),
            dst_agg: 1,
            dst_tor: 0,
        }
    }

    #[test]
    fn delivered_traversal_records_latency() {
        let mut c = CaptureState::new(0);
        let pkt = mk_pkt(1);
        c.begin(&pkt, Direction::Up, path(), SimTime::from_micros(10));
        c.end(1, SimTime::from_micros(14));
        assert_eq!(c.records().len(), 1);
        let r = c.records()[0];
        assert!(!r.dropped);
        assert_eq!(r.latency, SimDuration::from_micros(4));
        assert_eq!(r.direction, Direction::Up);
        assert_eq!(c.pending_count(), 0);
    }

    #[test]
    fn dropped_traversal_records_drop() {
        let mut c = CaptureState::new(0);
        let pkt = mk_pkt(2);
        c.begin(&pkt, Direction::Down, path(), SimTime::from_micros(1));
        c.dropped(2, SimTime::from_micros(2));
        let r = c.records()[0];
        assert!(r.dropped);
        assert_eq!(r.latency, SimDuration::ZERO);
    }

    #[test]
    fn untracked_events_are_ignored() {
        let mut c = CaptureState::new(0);
        c.end(99, SimTime::from_micros(1));
        c.dropped(99, SimTime::from_micros(1));
        assert!(c.records().is_empty());
    }
}
