//! Output ports: drop-tail queues feeding store-and-forward links.
//!
//! Every link direction is modeled as an output-queued port: packets that
//! find the transmitter busy wait in a byte-bounded FIFO; a full queue
//! drops (drop-tail); queues past their ECN threshold mark ECN-capable
//! packets with Congestion Experienced on enqueue (DCTCP-style
//! instantaneous-queue marking).
//!
//! The port itself performs no scheduling — it reports what happened
//! ([`TxAction`]) and the engine turns that into `PortFree`/`Arrive`
//! events. This keeps the queue logic synchronous and unit-testable.

use std::collections::VecDeque;

use elephant_des::SimDuration;

use crate::packet::{Ecn, Packet};
use crate::topology::PortSpec;

/// What the port did with a packet handed to it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxAction {
    /// The transmitter was idle; serialization starts immediately and
    /// finishes after the reported time.
    StartTx {
        /// Serialization time of this packet at the port's line rate.
        serialize: SimDuration,
    },
    /// The packet joined the queue.
    Queued,
    /// The queue was full; the packet is gone.
    Dropped,
}

/// Per-port counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortCounters {
    /// Packets offered to the port (transmitted + queued + dropped).
    pub offered: u64,
    /// Packets that began transmission.
    pub tx_packets: u64,
    /// Bytes that began transmission.
    pub tx_bytes: u64,
    /// Packets that found the transmitter busy and joined the queue.
    pub queued: u64,
    /// Packets dropped by the full queue.
    pub drops: u64,
    /// Packets marked Congestion Experienced on enqueue.
    pub ecn_marks: u64,
    /// Peak queue occupancy in bytes.
    pub peak_queue_bytes: u64,
}

/// Runtime state of one output port.
#[derive(Clone, Debug)]
pub struct PortState {
    spec: PortSpec,
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    busy: bool,
    counters: PortCounters,
}

impl PortState {
    /// Creates an idle port for the given attachment.
    pub fn new(spec: PortSpec) -> Self {
        PortState {
            spec,
            queue: VecDeque::new(),
            queued_bytes: 0,
            busy: false,
            counters: PortCounters::default(),
        }
    }

    /// The static attachment info.
    #[inline]
    pub fn spec(&self) -> &PortSpec {
        &self.spec
    }

    /// Counters.
    pub fn counters(&self) -> &PortCounters {
        &self.counters
    }

    /// Current queue occupancy in bytes (excludes the packet being
    /// serialized).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Number of queued packets.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True while the transmitter is serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Offers `packet` to the port. Marks ECN and mutates the packet in
    /// place when applicable.
    pub fn offer(&mut self, packet: &mut Packet) -> TxAction {
        self.counters.offered += 1;
        let size = packet.wire_bytes() as u64;
        if !self.busy {
            debug_assert!(self.queue.is_empty(), "idle port with a non-empty queue");
            self.busy = true;
            self.counters.tx_packets += 1;
            self.counters.tx_bytes += size;
            return TxAction::StartTx {
                serialize: SimDuration::from_bytes_at_gbps(size, self.spec.link.rate_gbps),
            };
        }
        if self.queued_bytes + size > self.spec.link.queue_cap_bytes {
            self.counters.drops += 1;
            return TxAction::Dropped;
        }
        if let Some(k) = self.spec.link.ecn_threshold_bytes {
            if self.queued_bytes >= k && packet.ecn == Ecn::Capable {
                packet.ecn = Ecn::CongestionExperienced;
                self.counters.ecn_marks += 1;
            }
        }
        self.queued_bytes += size;
        self.counters.queued += 1;
        self.counters.peak_queue_bytes = self.counters.peak_queue_bytes.max(self.queued_bytes);
        self.queue.push_back(*packet);
        TxAction::Queued
    }

    /// Called when the previous serialization finishes. Returns the next
    /// packet to transmit and its serialization time, or `None` if the
    /// port goes idle.
    pub fn transmit_next(&mut self) -> Option<(Packet, SimDuration)> {
        debug_assert!(self.busy, "transmit_next on an idle port");
        match self.queue.pop_front() {
            Some(pkt) => {
                let size = pkt.wire_bytes() as u64;
                self.queued_bytes -= size;
                self.counters.tx_packets += 1;
                self.counters.tx_bytes += size;
                Some((
                    pkt,
                    SimDuration::from_bytes_at_gbps(size, self.spec.link.rate_gbps),
                ))
            }
            None => {
                self.busy = false;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{TcpFlags, TcpSegment};
    use crate::topology::LinkSpec;
    use crate::types::{FlowId, HostAddr, NodeId, PortId};
    use elephant_des::SimTime;

    fn mk_port(cap: u64, ecn: Option<u64>) -> PortState {
        PortState::new(PortSpec {
            peer_node: NodeId(1),
            peer_port: PortId(0),
            link: LinkSpec {
                rate_gbps: 10.0,
                prop_delay: SimDuration::from_micros(1),
                queue_cap_bytes: cap,
                ecn_threshold_bytes: ecn,
            },
        })
    }

    fn mk_pkt(payload: u32, ecn: Ecn) -> Packet {
        Packet {
            id: 0,
            flow: FlowId(1),
            src: HostAddr::new(0, 0, 0),
            dst: HostAddr::new(0, 0, 1),
            seg: TcpSegment {
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                payload_len: payload,
                ece: false,
                cwr: false,
            },
            ecn,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn idle_port_transmits_immediately() {
        let mut p = mk_port(10_000, None);
        let mut pkt = mk_pkt(1460, Ecn::NotCapable);
        match p.offer(&mut pkt) {
            TxAction::StartTx { serialize } => {
                assert_eq!(serialize, SimDuration::from_nanos(1200)); // 1500B @ 10G
            }
            other => panic!("expected StartTx, got {other:?}"),
        }
        assert!(p.is_busy());
        assert_eq!(p.queued_bytes(), 0);
    }

    #[test]
    fn busy_port_queues_then_drains_fifo() {
        let mut p = mk_port(10_000, None);
        let mut first = mk_pkt(1460, Ecn::NotCapable);
        p.offer(&mut first);
        for i in 0..3 {
            let mut pkt = mk_pkt(100 + i, Ecn::NotCapable);
            assert_eq!(p.offer(&mut pkt), TxAction::Queued);
        }
        assert_eq!(p.queue_len(), 3);
        let (a, _) = p.transmit_next().unwrap();
        assert_eq!(a.seg.payload_len, 100, "FIFO order");
        let (b, _) = p.transmit_next().unwrap();
        assert_eq!(b.seg.payload_len, 101);
        p.transmit_next().unwrap();
        assert!(p.transmit_next().is_none(), "queue empty -> idle");
        assert!(!p.is_busy());
    }

    #[test]
    fn full_queue_drops() {
        let mut p = mk_port(3000, None); // fits exactly two 1500B packets
        let mut tx = mk_pkt(1460, Ecn::NotCapable);
        p.offer(&mut tx); // serializing, not queued
        let mut q1 = mk_pkt(1460, Ecn::NotCapable);
        let mut q2 = mk_pkt(1460, Ecn::NotCapable);
        let mut q3 = mk_pkt(1460, Ecn::NotCapable);
        assert_eq!(p.offer(&mut q1), TxAction::Queued);
        assert_eq!(p.offer(&mut q2), TxAction::Queued);
        assert_eq!(p.offer(&mut q3), TxAction::Dropped);
        assert_eq!(p.counters().drops, 1);
        assert_eq!(p.counters().peak_queue_bytes, 3000);
    }

    #[test]
    fn ecn_marks_only_capable_packets_over_threshold() {
        let mut p = mk_port(30_000, Some(1500));
        let mut tx = mk_pkt(1460, Ecn::Capable);
        p.offer(&mut tx);
        // First queued packet: queue at 0 bytes < K, no mark.
        let mut a = mk_pkt(1460, Ecn::Capable);
        assert_eq!(p.offer(&mut a), TxAction::Queued);
        assert_eq!(a.ecn, Ecn::Capable);
        // Second: queue at 1500 >= K, marked.
        let mut b = mk_pkt(1460, Ecn::Capable);
        p.offer(&mut b);
        assert_eq!(b.ecn, Ecn::CongestionExperienced);
        // Non-capable packet at same depth: dropped? No — queued unmarked.
        let mut c = mk_pkt(1460, Ecn::NotCapable);
        p.offer(&mut c);
        assert_eq!(c.ecn, Ecn::NotCapable);
        assert_eq!(p.counters().ecn_marks, 1);
    }

    #[test]
    fn tiny_ack_pads_to_min_frame_for_serialization() {
        let mut p = mk_port(10_000, None);
        let mut ack = mk_pkt(0, Ecn::NotCapable);
        match p.offer(&mut ack) {
            TxAction::StartTx { serialize } => {
                // 64 bytes @ 10 Gbps = 51.2 ns, rounded up.
                assert_eq!(serialize, SimDuration::from_nanos(52));
            }
            other => panic!("{other:?}"),
        }
    }
}
