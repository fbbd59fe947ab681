//! Identifiers and addresses shared across the packet-level simulator.

use core::fmt;

/// Index of a node (host, switch, or boundary pseudo-node) in a
/// [`crate::Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a usize, for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Index of a port within a node's port list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

impl PortId {
    /// The index as a usize, for vector addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Globally unique identifier of one TCP flow (one direction of one
/// application transfer).
///
/// The top bit distinguishes direction: packets from the connection opener
/// carry the canonical id, packets from the acceptor (ACKs) carry the
/// reversed id. ECMP hashes the directional id, so forward and reverse
/// paths decorrelate exactly as real 5-tuple hashing does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

impl FlowId {
    const REVERSE_BIT: u64 = 1 << 63;

    /// The connection identifier with the direction bit cleared.
    #[inline]
    pub fn canonical(self) -> FlowId {
        FlowId(self.0 & !Self::REVERSE_BIT)
    }

    /// The id used by acceptor-to-opener packets.
    #[inline]
    pub fn reverse(self) -> FlowId {
        FlowId(self.0 | Self::REVERSE_BIT)
    }

    /// True for acceptor-to-opener ids.
    #[inline]
    pub fn is_reverse(self) -> bool {
        self.0 & Self::REVERSE_BIT != 0
    }
}

/// Hierarchical address of a server in the Clos topology (Figure 2 of the
/// paper): which cluster, which rack within the cluster, which host within
/// the rack.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct HostAddr {
    /// Cluster index (subtree under a group of Cluster switches).
    pub cluster: u16,
    /// Rack index within the cluster (one ToR per rack).
    pub rack: u16,
    /// Host index within the rack.
    pub host: u16,
}

impl HostAddr {
    /// Convenience constructor.
    pub const fn new(cluster: u16, rack: u16, host: u16) -> Self {
        HostAddr {
            cluster,
            rack,
            host,
        }
    }

    /// True if both addresses are in the same cluster.
    pub fn same_cluster(&self, other: &HostAddr) -> bool {
        self.cluster == other.cluster
    }
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}r{}h{}", self.cluster, self.rack, self.host)
    }
}

/// The role a node plays in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// A server.
    Host {
        /// Its hierarchical address.
        addr: HostAddr,
    },
    /// A Top-of-Rack switch.
    Tor {
        /// Cluster it belongs to.
        cluster: u16,
        /// Rack it serves.
        rack: u16,
    },
    /// A Cluster switch (the paper's middle layer; "Agg" internally).
    Agg {
        /// Cluster it belongs to.
        cluster: u16,
        /// Index within the cluster's switch group.
        index: u16,
    },
    /// A Core switch.
    Core {
        /// Which agg-group it serves (plane), and its index within it.
        group: u16,
        /// Index within the group.
        index: u16,
    },
    /// The fabric boundary of an approximated ("stub") cluster: packets
    /// arriving here are handed to the cluster oracle instead of a switch.
    Boundary {
        /// The approximated cluster.
        cluster: u16,
    },
}

impl NodeKind {
    /// The queueing layer this node belongs to — 0 host NICs, 1 ToR,
    /// 2 Agg, 3 Core — or `None` for a boundary, which has no queues.
    pub fn layer(&self) -> Option<usize> {
        match self {
            NodeKind::Host { .. } => Some(0),
            NodeKind::Tor { .. } => Some(1),
            NodeKind::Agg { .. } => Some(2),
            NodeKind::Core { .. } => Some(3),
            NodeKind::Boundary { .. } => None,
        }
    }

    /// The cluster this node belongs to, if it belongs to one.
    pub fn cluster(&self) -> Option<u16> {
        match *self {
            NodeKind::Host { addr } => Some(addr.cluster),
            NodeKind::Tor { cluster, .. }
            | NodeKind::Agg { cluster, .. }
            | NodeKind::Boundary { cluster } => Some(cluster),
            NodeKind::Core { .. } => None,
        }
    }
}

/// Direction of a fabric traversal relative to an approximated cluster.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// From a host in the cluster up to the core layer (the paper's
    /// "packets leaving" / egress model).
    Up,
    /// From the core layer down to a host in the cluster (the paper's
    /// "packets entering" / ingress model).
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_relations() {
        let a = HostAddr::new(1, 2, 3);
        assert!(a.same_cluster(&HostAddr::new(1, 7, 0)));
        assert!(!a.same_cluster(&HostAddr::new(2, 2, 3)));
        assert_eq!(format!("{a}"), "c1r2h3");
    }

    #[test]
    fn flow_direction_bit() {
        let f = FlowId(42);
        assert!(!f.is_reverse());
        assert!(f.reverse().is_reverse());
        assert_eq!(f.reverse().canonical(), f);
        assert_eq!(f.canonical(), f);
        assert_ne!(f.reverse(), f);
    }

    #[test]
    fn kind_cluster() {
        assert_eq!(
            NodeKind::Host {
                addr: HostAddr::new(4, 0, 0)
            }
            .cluster(),
            Some(4)
        );
        assert_eq!(
            NodeKind::Tor {
                cluster: 2,
                rack: 0
            }
            .cluster(),
            Some(2)
        );
        assert_eq!(NodeKind::Core { group: 0, index: 1 }.cluster(), None);
    }
}
