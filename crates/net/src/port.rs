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
//!
//! A port holds no packets itself. Every packet queued anywhere in one
//! network lives in that network's [`PacketStore`], and a port's FIFO is a
//! linked list through it, so the network's queue memory follows the
//! packets waiting at this moment, not each port's busiest moment.

use elephant_des::SimDuration;

use crate::packet::{Ecn, Packet};
use crate::topology::PortSpec;

/// Ends a FIFO, and the store's free list.
const NIL: u32 = u32::MAX;

/// Every packet queued at one network's ports: a slab of slots, each
/// holding a packet and the slot queued behind it. A dequeued packet's
/// slot goes onto a free list threaded through the same links, last freed
/// first, and is the next one filled; the slab grows only when no slot is
/// free, so its length is the most packets the network ever held queued
/// at once.
#[derive(Clone, Debug)]
pub struct PacketStore {
    slots: Vec<Slot>,
    /// The last freed slot, or [`NIL`].
    free: u32,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    packet: Packet,
    /// The slot behind this one in its port's FIFO (or in the free list).
    next: u32,
}

impl Default for PacketStore {
    fn default() -> Self {
        PacketStore {
            slots: Vec::new(),
            free: NIL,
        }
    }
}

impl PacketStore {
    /// The most packets queued at once: a slot is only added when none is
    /// free, so this is the slab's length.
    pub fn peak(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes the slab holds.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Stores `packet` at the back of `fifo`.
    fn push_back(&mut self, fifo: &mut Fifo, packet: Packet) {
        let slot = Slot { packet, next: NIL };
        let at = match self.free {
            NIL => {
                let at = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&at| at != NIL)
                    .expect("a packet store holds fewer than 2^32 - 1 slots");
                self.slots.push(slot);
                at
            }
            at => {
                let s = &mut self.slots[at as usize];
                self.free = s.next;
                *s = slot;
                at
            }
        };
        match fifo.len {
            0 => fifo.head = at,
            _ => self.slots[fifo.tail as usize].next = at,
        }
        fifo.tail = at;
        fifo.len += 1;
    }

    /// Takes the packet at the front of `fifo` and frees its slot.
    fn pop_front(&mut self, fifo: &mut Fifo) -> Option<Packet> {
        if fifo.len == 0 {
            return None;
        }
        let at = fifo.head;
        let s = &mut self.slots[at as usize];
        fifo.head = s.next;
        fifo.len -= 1;
        s.next = self.free;
        self.free = at;
        Some(s.packet)
    }
}

/// One port's queue: a FIFO linked through the network's [`PacketStore`].
#[derive(Clone, Copy, Debug)]
struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
    queue: Fifo,
    queued_bytes: u64,
    busy: bool,
    counters: PortCounters,
}

impl PortState {
    /// Creates an idle port for the given attachment.
    pub fn new(spec: PortSpec) -> Self {
        PortState {
            spec,
            queue: Fifo {
                head: NIL,
                tail: NIL,
                len: 0,
            },
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
        self.queue.len as usize
    }

    /// True while the transmitter is serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Offers `packet` to the port; a queued copy goes into `store`. Marks
    /// ECN and mutates the packet in place when applicable.
    pub fn offer(&mut self, packet: &mut Packet, store: &mut PacketStore) -> TxAction {
        self.counters.offered += 1;
        let size = packet.wire_bytes() as u64;
        if !self.busy {
            debug_assert_eq!(self.queue.len, 0, "idle port with a non-empty queue");
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
        store.push_back(&mut self.queue, *packet);
        TxAction::Queued
    }

    /// Called when the previous serialization finishes. Returns the next
    /// packet to transmit, taken out of `store`, and its serialization
    /// time, or `None` if the port goes idle.
    pub fn transmit_next(&mut self, store: &mut PacketStore) -> Option<(Packet, SimDuration)> {
        debug_assert!(self.busy, "transmit_next on an idle port");
        match store.pop_front(&mut self.queue) {
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
    use std::collections::VecDeque;

    use crate::packet::{TcpFlags, TcpSegment};
    use crate::topology::LinkSpec;
    use crate::types::{FlowId, HostAddr, NodeId, PortId};
    use elephant_des::SimTime;
    use proptest::prelude::*;

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
        let mut s = PacketStore::default();
        let mut pkt = mk_pkt(1460, Ecn::NotCapable);
        match p.offer(&mut pkt, &mut s) {
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
        let mut s = PacketStore::default();
        let mut first = mk_pkt(1460, Ecn::NotCapable);
        p.offer(&mut first, &mut s);
        for i in 0..3 {
            let mut pkt = mk_pkt(100 + i, Ecn::NotCapable);
            assert_eq!(p.offer(&mut pkt, &mut s), TxAction::Queued);
        }
        assert_eq!(p.queue_len(), 3);
        let (a, _) = p.transmit_next(&mut s).unwrap();
        assert_eq!(a.seg.payload_len, 100, "FIFO order");
        let (b, _) = p.transmit_next(&mut s).unwrap();
        assert_eq!(b.seg.payload_len, 101);
        p.transmit_next(&mut s).unwrap();
        assert!(p.transmit_next(&mut s).is_none(), "queue empty -> idle");
        assert!(!p.is_busy());
    }

    #[test]
    fn full_queue_drops() {
        let mut p = mk_port(3000, None); // fits exactly two 1500B packets
        let mut s = PacketStore::default();
        let mut tx = mk_pkt(1460, Ecn::NotCapable);
        p.offer(&mut tx, &mut s); // serializing, not queued
        let mut q1 = mk_pkt(1460, Ecn::NotCapable);
        let mut q2 = mk_pkt(1460, Ecn::NotCapable);
        let mut q3 = mk_pkt(1460, Ecn::NotCapable);
        assert_eq!(p.offer(&mut q1, &mut s), TxAction::Queued);
        assert_eq!(p.offer(&mut q2, &mut s), TxAction::Queued);
        assert_eq!(p.offer(&mut q3, &mut s), TxAction::Dropped);
        assert_eq!(p.counters().drops, 1);
        assert_eq!(p.counters().peak_queue_bytes, 3000);
    }

    #[test]
    fn ecn_marks_only_capable_packets_over_threshold() {
        let mut p = mk_port(30_000, Some(1500));
        let mut s = PacketStore::default();
        let mut tx = mk_pkt(1460, Ecn::Capable);
        p.offer(&mut tx, &mut s);
        // First queued packet: queue at 0 bytes < K, no mark.
        let mut a = mk_pkt(1460, Ecn::Capable);
        assert_eq!(p.offer(&mut a, &mut s), TxAction::Queued);
        assert_eq!(a.ecn, Ecn::Capable);
        // Second: queue at 1500 >= K, marked.
        let mut b = mk_pkt(1460, Ecn::Capable);
        p.offer(&mut b, &mut s);
        assert_eq!(b.ecn, Ecn::CongestionExperienced);
        // Non-capable packet at same depth: dropped? No — queued unmarked.
        let mut c = mk_pkt(1460, Ecn::NotCapable);
        p.offer(&mut c, &mut s);
        assert_eq!(c.ecn, Ecn::NotCapable);
        assert_eq!(p.counters().ecn_marks, 1);
    }

    #[test]
    fn tiny_ack_pads_to_min_frame_for_serialization() {
        let mut p = mk_port(10_000, None);
        let mut s = PacketStore::default();
        let mut ack = mk_pkt(0, Ecn::NotCapable);
        match p.offer(&mut ack, &mut s) {
            TxAction::StartTx { serialize } => {
                // 64 bytes @ 10 Gbps = 51.2 ns, rounded up.
                assert_eq!(serialize, SimDuration::from_nanos(52));
            }
            other => panic!("{other:?}"),
        }
    }

    /// The port as it was before the store: every port its own `VecDeque`.
    struct RefPort {
        spec: PortSpec,
        queue: VecDeque<Packet>,
        queued_bytes: u64,
        busy: bool,
        counters: PortCounters,
    }

    impl RefPort {
        fn offer(&mut self, packet: &mut Packet) -> TxAction {
            self.counters.offered += 1;
            let size = packet.wire_bytes() as u64;
            if !self.busy {
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
            let peak = &mut self.counters.peak_queue_bytes;
            *peak = (*peak).max(self.queued_bytes);
            self.queue.push_back(*packet);
            TxAction::Queued
        }

        fn transmit_next(&mut self) -> Option<(Packet, SimDuration)> {
            match self.queue.pop_front() {
                Some(pkt) => {
                    let size = pkt.wire_bytes() as u64;
                    self.queued_bytes -= size;
                    self.counters.tx_packets += 1;
                    self.counters.tx_bytes += size;
                    let rate = self.spec.link.rate_gbps;
                    Some((pkt, SimDuration::from_bytes_at_gbps(size, rate)))
                }
                None => {
                    self.busy = false;
                    None
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Offers and transmissions at four ports sharing one store (a
        /// tight queue, one that marks ECN, a roomy one and one that never
        /// fills) agree with per-port `VecDeque`s on every action, mark,
        /// dequeued packet and counter; and the store's slab is exactly as
        /// long as the most packets ever queued at once.
        #[test]
        fn store_agrees_with_per_port_deques(
            ops in proptest::collection::vec(
                (0usize..4, any::<bool>(), 0u32..=1460, any::<bool>()),
                1..800,
            ),
        ) {
            let ports = [(3_000, None), (12_000, Some(4_500)), (30_000, None), (u64::MAX, None)];
            let mut store = PacketStore::default();
            let mut new = Vec::new();
            let mut old = Vec::new();
            for (cap, ecn) in ports {
                let p = mk_port(cap, ecn);
                old.push(RefPort {
                    spec: *p.spec(),
                    queue: VecDeque::new(),
                    queued_bytes: 0,
                    busy: false,
                    counters: PortCounters::default(),
                });
                new.push(p);
            }
            let mut high_water = 0;
            for (id, &(port, offer, payload, capable)) in ops.iter().enumerate() {
                let (p, r) = (&mut new[port], &mut old[port]);
                if offer {
                    let ecn = if capable { Ecn::Capable } else { Ecn::NotCapable };
                    let mut a = Packet { id: id as u64, ..mk_pkt(payload, ecn) };
                    let mut b = a;
                    prop_assert_eq!(p.offer(&mut a, &mut store), r.offer(&mut b));
                    prop_assert_eq!(a, b);
                } else if r.busy {
                    prop_assert_eq!(p.transmit_next(&mut store), r.transmit_next());
                }
                prop_assert_eq!(p.is_busy(), r.busy);
                prop_assert_eq!(p.queue_len(), r.queue.len());
                prop_assert_eq!(p.queued_bytes(), r.queued_bytes);
                prop_assert_eq!(p.counters(), &r.counters);
                let queued: usize = old.iter().map(|r| r.queue.len()).sum();
                high_water = high_water.max(queued);
                prop_assert_eq!(store.peak(), high_water);
            }
            for (p, r) in new.iter_mut().zip(&mut old) {
                while r.busy {
                    prop_assert_eq!(p.transmit_next(&mut store), r.transmit_next());
                }
                prop_assert!(!p.is_busy());
            }
        }
    }
}
