//! Packets and TCP segment headers.
//!
//! A [`Packet`] is the unit that traverses links and queues; it carries one
//! [`TcpSegment`]. Sequence and acknowledgement numbers are 64-bit byte
//! offsets from the start of the stream — a simulator where both endpoints
//! are ours needs no 32-bit wraparound machinery, and dropping it removes a
//! whole class of comparison bugs. Wire sizes still account for real header
//! overhead so link-level timing matches a 1500-byte-MTU Ethernet network.

use elephant_des::{wire, SimTime, Transportable};

use crate::types::{FlowId, HostAddr};

/// IPv4 + TCP header bytes added to every segment's payload.
pub const HEADER_BYTES: u32 = 40;
/// Minimum Ethernet frame size; pure ACKs occupy this many bytes on the wire.
pub const MIN_WIRE_BYTES: u32 = 64;

/// TCP control flags (only the ones the simulator uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TcpFlags {
    /// Connection-open request / reply.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender is done transmitting.
    pub fin: bool,
}

impl TcpFlags {
    /// SYN only (client open).
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
    };
    /// SYN+ACK (server open reply).
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
    };
    /// Plain ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
    };
    /// FIN+ACK (close while acknowledging).
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: true,
    };

    fn to_byte(self) -> u8 {
        (self.syn as u8) | (self.ack as u8) << 1 | (self.fin as u8) << 2
    }

    /// The flags of a byte `to_byte` writes; `None` if a bit above FIN is set.
    fn from_byte(b: u8) -> Option<Self> {
        (b < 8).then_some(TcpFlags {
            syn: b & 1 != 0,
            ack: b & 2 != 0,
            fin: b & 4 != 0,
        })
    }
}

/// One TCP segment header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// First byte offset carried by this segment (stream byte space).
    pub seq: u64,
    /// Cumulative acknowledgement: next byte expected from the peer.
    pub ack: u64,
    /// Control flags.
    pub flags: TcpFlags,
    /// Payload length in bytes (0 for pure ACKs and control segments).
    pub payload_len: u32,
    /// ECN Echo: receiver has seen congestion marks (or, in DCTCP mode,
    /// this specific ACK acknowledges marked bytes).
    pub ece: bool,
    /// Congestion Window Reduced: sender response to ECE (classic ECN).
    pub cwr: bool,
}

impl TcpSegment {
    /// Total bytes this segment occupies on the wire.
    pub fn wire_bytes(&self) -> u32 {
        (self.payload_len + HEADER_BYTES).max(MIN_WIRE_BYTES)
    }
}

/// ECN codepoint state carried by the IP header.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Ecn {
    /// Transport is not ECN-capable; congested queues drop instead of mark.
    #[default]
    NotCapable,
    /// ECN-capable transport, not yet marked.
    Capable,
    /// Congestion Experienced: a queue marked this packet.
    CongestionExperienced,
}

/// A packet in flight.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Packet {
    /// Unique id, for tracing and boundary capture.
    pub id: u64,
    /// The flow (connection direction) this packet belongs to.
    pub flow: FlowId,
    /// Source server.
    pub src: HostAddr,
    /// Destination server.
    pub dst: HostAddr,
    /// The TCP segment.
    pub seg: TcpSegment,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// When the source host handed this packet to its NIC; used for
    /// one-way-delay instrumentation only, never by the protocol.
    pub sent_at: SimTime,
}

impl Packet {
    /// Total bytes on the wire.
    #[inline]
    pub fn wire_bytes(&self) -> u32 {
        self.seg.wire_bytes()
    }
}

impl Transportable for HostAddr {
    fn encode(&self, w: &mut wire::Writer) {
        w.u16(self.cluster);
        w.u16(self.rack);
        w.u16(self.host);
    }

    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some(HostAddr::new(r.u16()?, r.u16()?, r.u16()?))
    }
}

impl Transportable for Packet {
    fn encode(&self, w: &mut wire::Writer) {
        w.u64(self.id);
        w.u64(self.flow.0);
        self.src.encode(w);
        self.dst.encode(w);
        w.u64(self.seg.seq);
        w.u64(self.seg.ack);
        w.u8(self.seg.flags.to_byte());
        w.u32(self.seg.payload_len);
        let ecn = match self.ecn {
            Ecn::NotCapable => 0u8,
            Ecn::Capable => 1,
            Ecn::CongestionExperienced => 2,
        };
        w.u8(ecn | (self.seg.ece as u8) << 2 | (self.seg.cwr as u8) << 3);
        w.u64(self.sent_at.as_nanos());
    }

    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        let (id, flow) = (r.u64()?, FlowId(r.u64()?));
        let (src, dst) = (HostAddr::decode(r)?, HostAddr::decode(r)?);
        let (seq, ack) = (r.u64()?, r.u64()?);
        let flags = TcpFlags::from_byte(r.u8()?)?;
        let payload_len = r.u32()?;
        let bits = r.u8()?;
        // ECN codepoint in bits 0-1, ECE in bit 2, CWR in bit 3.
        let ecn = match bits & !0b1100 {
            0 => Ecn::NotCapable,
            1 => Ecn::Capable,
            2 => Ecn::CongestionExperienced,
            _ => return None, // codepoint 3 or a bit above CWR: never written
        };
        Some(Packet {
            id,
            flow,
            src,
            dst,
            seg: TcpSegment {
                seq,
                ack,
                flags,
                payload_len,
                ece: bits & 0b100 != 0,
                cwr: bits & 0b1000 != 0,
            },
            ecn,
            sent_at: SimTime::from_nanos(r.u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_packet() -> Packet {
        Packet {
            id: 77,
            flow: FlowId(1234),
            src: HostAddr::new(1, 2, 3),
            dst: HostAddr::new(4, 5, 6),
            seg: TcpSegment {
                seq: 1_000_000,
                ack: 42,
                flags: TcpFlags::FIN_ACK,
                payload_len: 1460,
                ece: true,
                cwr: false,
            },
            ecn: Ecn::CongestionExperienced,
            sent_at: SimTime::from_micros(99),
        }
    }

    #[test]
    fn wire_size_includes_headers() {
        let mut p = sample_packet();
        assert_eq!(p.wire_bytes(), 1500);
        p.seg.payload_len = 0;
        assert_eq!(p.wire_bytes(), MIN_WIRE_BYTES, "pure ACK pads to min frame");
        p.seg.payload_len = 100;
        assert_eq!(p.wire_bytes(), 140);
    }

    #[test]
    fn codec_flags_round_trip() {
        for syn in [false, true] {
            for ack in [false, true] {
                for fin in [false, true] {
                    let f = TcpFlags { syn, ack, fin };
                    assert_eq!(TcpFlags::from_byte(f.to_byte()), Some(f));
                }
            }
        }
    }

    fn encode(p: &Packet) -> Vec<u8> {
        let mut buf = Vec::new();
        p.encode(&mut wire::Writer::new(&mut buf));
        buf
    }

    #[test]
    fn codec_round_trip() {
        let p = sample_packet();
        let buf = encode(&p);
        let mut rd = wire::Reader::new(&buf);
        assert_eq!(Packet::decode(&mut rd), Some(p));
        assert_eq!(rd.remaining(), 0, "decode consumed exactly its bytes");
    }

    #[test]
    fn codec_rejects_every_truncation() {
        let buf = encode(&sample_packet());
        for len in 0..buf.len() {
            let mut rd = wire::Reader::new(&buf[..len]);
            assert_eq!(
                Packet::decode(&mut rd),
                None,
                "{len} of {} bytes",
                buf.len()
            );
        }
    }

    /// The flags byte and the ECN/ECE/CWR byte refuse every value their
    /// encoder never writes: a flag above FIN, ECN codepoint 3, a bit above
    /// CWR.
    #[test]
    fn codec_refuses_unwritten_bits() {
        let buf = encode(&sample_packet());
        // After id, flow, two addresses, seq and ack; then the flags and
        // the payload length.
        let (flags_at, ecn_at) = (8 + 8 + 12 + 8 + 8, 44 + 1 + 4);
        let garbled = (3..8)
            .map(|bit| (flags_at, 1 << bit))
            .chain((4..8).map(|bit| (ecn_at, 1 << bit)))
            .chain([(ecn_at, 0b11)]);
        for (at, bits) in garbled {
            let mut bad = buf.clone();
            bad[at] |= bits;
            assert_ne!(bad, buf);
            let decoded = Packet::decode(&mut wire::Reader::new(&bad));
            assert_eq!(decoded, None, "byte {at} |= {bits:#010b}");
        }
    }
}
