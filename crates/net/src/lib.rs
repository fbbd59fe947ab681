//! # elephant-net — packet-level data-center network simulator
//!
//! The full-fidelity substrate of the `elephant` workspace: Clos and
//! leaf-spine topologies, output-queued switches with drop-tail queues and
//! optional ECN marking, per-flow ECMP routing, and complete TCP New Reno /
//! DCTCP host stacks — everything the paper's evaluation ran on OMNeT++/
//! INET, rebuilt on the `elephant-des` kernel.
//!
//! It also contains the *seams* the paper's hybrid simulator needs:
//!
//! * [`Topology::clos_with_stubs`] builds networks where chosen clusters'
//!   fabrics are replaced by boundary pseudo-nodes;
//! * the [`ClusterOracle`] trait is the plug-in point for learned (or
//!   baseline) approximations of those fabrics;
//! * [`CaptureState`] harvests ground-truth boundary traversals from
//!   full-fidelity runs as training data;
//! * [`NetPartition`] adapts the engine to the conservative PDES runner
//!   for the paper's Figure-1 parallelism study.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use elephant_des::{SimTime, Simulator};
//! use elephant_net::{
//!     schedule_flows, ClosParams, FlowId, FlowSpec, HostAddr, NetConfig, Network, Topology,
//! };
//!
//! // Two paper-shaped clusters, one 100 kB transfer between them.
//! let topo = Topology::clos(ClosParams::paper_cluster(2));
//! let mut sim = Simulator::new(Network::new(Arc::new(topo), NetConfig::default()));
//! schedule_flows(
//!     &mut sim,
//!     &[FlowSpec {
//!         id: FlowId(1),
//!         src: HostAddr::new(0, 0, 0),
//!         dst: HostAddr::new(1, 0, 0),
//!         bytes: 100_000,
//!         start: SimTime::ZERO,
//!     }],
//! );
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.world().stats.flows_completed, 1);
//! ```

#![warn(missing_docs)]

mod capture;
mod conn_table;
mod guard;
mod metrics;
mod network;
mod oracle;
mod packet;
mod port;
mod sampler;
mod seq_buf;
mod tcp;
mod topology;
mod trace_log;
mod types;

pub use capture::{BoundaryRecord, CaptureState};
pub use guard::{
    FaultyOracle, GuardConfig, GuardSnapshot, GuardStatsHandle, GuardViolation, GuardedOracle,
    OracleFaultMode,
};
pub use metrics::{DropCounts, FctRecord, NetStats, RttScope};
pub use network::{
    flow_list, schedule_flows, FlowSpec, LentOracle, NetConfig, NetEvent, NetMemory, NetPartition,
    Network, TimerKind, VerdictRequest,
};
pub use oracle::{
    ClusterOracle, FixedLatencyOracle, IdealOracle, OracleCtx, OracleStats, OracleVerdict,
    RawVerdict,
};
pub use packet::{Ecn, Packet, TcpFlags, TcpSegment, HEADER_BYTES, MIN_WIRE_BYTES};
pub use port::{PacketStore, PortCounters, PortState, TxAction};
pub use sampler::{
    export_flow_timeline, export_sample_counters, run_sampled, NetSampler, Sample, MAX_FLOW_TRACKS,
    SAMPLE_CSV_HEADER,
};
pub use tcp::{ConnStats, EcnMode, TcpConfig, TcpConn, TcpOutput, TimerCmd};
pub use topology::{ClosParams, FabricPath, LinkSpec, Node, PortSpec, Topology};
pub use trace_log::{TraceEntry, TraceKind, TraceLog};
pub use types::{Direction, FlowId, HostAddr, NodeId, NodeKind, PortId};
