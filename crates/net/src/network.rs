//! The packet-level network engine: a [`World`] whose events are packets,
//! port transmissions, TCP timers, and flow arrivals.
//!
//! One [`Network`] owns the runtime state of every node in a
//! [`Topology`]: port queues for switches and NICs, TCP connections for
//! hosts, measurement state, and — in hybrid mode — the cluster oracle that
//! stands in for approximated fabrics.
//!
//! The same engine runs in three configurations:
//!
//! 1. **Full fidelity**: every switch simulated, no stubs, no oracle.
//! 2. **Hybrid** (the paper's contribution): stub clusters route boundary
//!    crossings through a [`ClusterOracle`].
//! 3. **Partitioned**: wrapped in [`NetPartition`] and driven by the PDES
//!    engine; cross-partition packet deliveries travel through
//!    [`elephant_des::RemoteSink`].

use std::collections::VecDeque;
use std::sync::Arc;

use elephant_des::{
    wire, EventKey, PartitionId, PartitionWorld, RemoteSink, Scheduler, SimDuration, SimTime,
    Simulator, Transportable, World,
};

use crate::capture::CaptureState;
use crate::conn_table::ConnTable;
use crate::metrics::{FctRecord, NetStats, RttScope};
use crate::oracle::{ClusterOracle, OracleCtx, OracleStats, OracleVerdict};
use crate::packet::{Ecn, Packet};
use crate::port::{PortCounters, PortState, TxAction};
use crate::tcp::{ConnStats, TcpConfig, TcpConn, TcpOutput, TimerCmd};
use crate::topology::{FabricPath, Topology};
use crate::trace_log::{TraceEntry, TraceKind, TraceLog};
use crate::types::{Direction, FlowId, HostAddr, NodeId, NodeKind, PortId};

/// One application transfer to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Canonical flow id (must be unique, direction bit clear).
    pub id: FlowId,
    /// Sending host.
    pub src: HostAddr,
    /// Receiving host.
    pub dst: HostAddr,
    /// Application bytes to transfer.
    pub bytes: u64,
    /// When the sender opens the connection.
    pub start: SimTime,
}

/// Which of a connection's two timers fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// Delayed-ACK timeout.
    DelAck,
}

/// The event alphabet of the network world.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// A flow begins at its source host.
    FlowStart(FlowSpec),
    /// A packet finished its link traversal and is at `node`.
    Arrive {
        /// Where the packet now is.
        node: NodeId,
        /// The packet.
        pkt: Packet,
    },
    /// A port finished serializing; it may start on its queue head.
    PortFree {
        /// The node owning the port.
        node: NodeId,
        /// The port.
        port: PortId,
    },
    /// A TCP timer fired. It names its connection by where that lives in
    /// the network's connection table, so firing costs no lookup.
    Timer {
        /// The connection's slot.
        slot: u32,
        /// The slot's generation when the timer was set: a timer left over
        /// from a slot's earlier occupant is not delivered to a later one.
        generation: u32,
        /// Which timer.
        kind: TimerKind,
    },
}

/// Static configuration of a network run.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// TCP parameters used by every connection.
    pub tcp: TcpConfig,
    /// Which hosts contribute RTT samples.
    pub rtt_scope: RttScope,
    /// Cap on exact RTT samples retained for KS statistics.
    pub raw_rtt_limit: usize,
    /// Record ground-truth boundary traversals of this cluster.
    pub capture_cluster: Option<u16>,
    /// Minimum latency any oracle verdict may report. Keeps predictions
    /// physical, supplies the lookahead floor for oracle deliveries when
    /// the hybrid simulator runs under PDES, and is how far a verdict
    /// served on another thread may lag its request
    /// ([`Network::lend_oracle`]).
    pub oracle_latency_floor: SimDuration,
    /// Track exact time-weighted queue occupancy per port (small constant
    /// cost per enqueue/dequeue; read back via
    /// [`Network::queue_depth_by_layer`]).
    pub track_queues: bool,
    /// Profile the run: the installed oracle times its inferences
    /// ([`OracleCtx::profile`]). `elephant_core::execute` sets it from the
    /// run's `Observe::profile`.
    pub profile: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            tcp: TcpConfig::default(),
            rtt_scope: RttScope::All,
            raw_rtt_limit: 1_000_000,
            capture_cluster: None,
            oracle_latency_floor: SimDuration::from_micros(2),
            track_queues: false,
            profile: false,
        }
    }
}

/// One TCP endpoint as its network hosts it. Which end it is, and its
/// flow, are its key in the connection table (see [`ConnTable`]).
#[derive(Clone)]
struct Conn {
    tcp: TcpConn,
    /// The host it runs on, as a node and as an address.
    node: NodeId,
    addr: HostAddr,
    peer: HostAddr,
    /// Application bytes the opener sends (zero on the passive side).
    bytes: u64,
    /// When the connection opened: the flow's start on the opener's side.
    started: SimTime,
    rto_key: Option<EventKey>,
    delack_key: Option<EventKey>,
}

/// The run's flows, handed to the scheduler one `FlowStart` at a time (see
/// [`Network::stream_flows`]).
#[derive(Clone)]
struct FlowStream {
    /// The run's flow list, sorted by start; a flow's rank is its index.
    /// Immutable once set, so every clone of the network, and every
    /// partition of the run, shares it.
    flows: Arc<[FlowSpec]>,
    /// Index in `flows` of the one queued `FlowStart`; `flows.len()` once
    /// the last flow this network opens has started.
    next: usize,
}

#[derive(Clone)]
struct PartitionCtx {
    my: PartitionId,
    node_part: Arc<Vec<u32>>,
}

/// One boundary crossing waiting for its verdict: what the oracle reads,
/// plus the delivery's sequence number and trace entry, both taken when
/// the packet crossed (see [`Network::lend_oracle`]).
#[derive(Clone, Copy, Debug)]
pub struct VerdictRequest {
    /// When the packet reached the boundary.
    pub now: SimTime,
    pkt: Packet,
    cluster: u16,
    direction: Direction,
    path: FabricPath,
    /// The delivery's tie-break key ([`Scheduler::reserve_seq`]).
    seq: u64,
    /// Where the crossing's entry sits in the trace log, if it was kept.
    trace: Option<usize>,
}

/// Asks `oracle` for `req`'s verdict: the one place a crossing's
/// [`OracleCtx`] is built, whichever thread serves it.
fn classify(
    oracle: &mut dyn ClusterOracle,
    topo: &Topology,
    profile: bool,
    req: &VerdictRequest,
) -> OracleVerdict {
    let ctx = OracleCtx {
        topo,
        cluster: req.cluster,
        direction: req.direction,
        path: req.path,
        profile,
    };
    oracle.classify(&ctx, &req.pkt, req.now)
}

/// A network's oracle, lent out to serve its verdicts on another thread
/// ([`Network::lend_oracle`]): the oracle plus what it reads besides the
/// requests.
pub struct LentOracle {
    oracle: Box<dyn ClusterOracle + Send>,
    topo: Arc<Topology>,
    profile: bool,
}

impl LentOracle {
    /// `req`'s verdict, exactly as the network would have served it
    /// inline. Requests must be classified in the order they were made.
    pub fn classify(&mut self, req: &VerdictRequest) -> OracleVerdict {
        classify(self.oracle.as_mut(), &self.topo, self.profile, req)
    }
}

/// Where a network's verdicts come from.
enum Verdicts {
    /// No oracle: a boundary crossing is a configuration error.
    Missing,
    /// The installed oracle, asked as each crossing is handled.
    Inline(Box<dyn ClusterOracle + Send>),
    /// The oracle is lent out; crossings queue here for the borrower.
    Lent(VecDeque<VerdictRequest>),
}

/// The packet-level simulator state (see module docs).
pub struct Network {
    topo: Arc<Topology>,
    cfg: NetConfig,
    ports: Vec<Vec<PortState>>,
    /// Every TCP endpoint on every host.
    conns: ConnTable<Conn>,
    stream: FlowStream,
    /// Measurement state, public for read-out after a run.
    pub stats: NetStats,
    capture: Option<CaptureState>,
    verdicts: Verdicts,
    /// Last scheduled oracle delivery per destination, for the paper's
    /// conflict rule: "the one processed first is given priority, with the
    /// conflicting packet sent at the next possible time" (§4.2). Indexed
    /// by `NodeId`; node ids are dense.
    boundary_gate: Vec<Option<SimTime>>,
    next_pkt_id: u64,
    scratch: TcpOutput,
    partition: Option<PartitionCtx>,
    outbox: Vec<(PartitionId, SimTime, NetEvent)>,
    trace: Option<TraceLog>,
}

/// Cloning a network deep-copies every piece of simulation state — port
/// queues, TCP connections, the flow stream's cursor, measurement state,
/// capture and trace buffers, and (via [`ClusterOracle::clone_box`]) the
/// installed oracle with its regime, RNN, and verdict-cache state. The
/// topology, the partition map and the streamed flow list stay shared
/// (`Arc`, immutable), so a checkpoint copies no future flow, and a
/// restored network resumes the stream exactly where the snapshot's
/// scheduler holds its one queued `FlowStart`. The network's own counters
/// ([`NetStats`], the ports', the connections', the oracle's
/// [`OracleStats`]) are part of that state, so a restored network counts
/// the successful path only; a [`crate::GuardedOracle`]'s counters are
/// not — its clone shares the original's [`crate::GuardStatsHandle`].
///
/// # Panics
/// Panics if an installed oracle does not support [`ClusterOracle::clone_box`]
/// — such a network cannot be checkpointed; rebuild the oracle cold instead.
impl Clone for Network {
    fn clone(&self) -> Self {
        let verdicts = match &self.verdicts {
            Verdicts::Missing => Verdicts::Missing,
            Verdicts::Inline(o) => Verdicts::Inline(o.clone_box().expect(
                "installed oracle does not support clone_box(); a network \
                 holding it cannot be checkpointed — rebuild the oracle cold",
            )),
            Verdicts::Lent(queue) => Verdicts::Lent(queue.clone()),
        };
        Network {
            topo: Arc::clone(&self.topo),
            cfg: self.cfg,
            ports: self.ports.clone(),
            conns: self.conns.clone(),
            stream: self.stream.clone(),
            stats: self.stats.clone(),
            capture: self.capture.clone(),
            verdicts,
            boundary_gate: self.boundary_gate.clone(),
            next_pkt_id: self.next_pkt_id,
            scratch: TcpOutput::default(),
            partition: self.partition.clone(),
            outbox: self.outbox.clone(),
            trace: self.trace.clone(),
        }
    }
}

impl Network {
    /// Builds runtime state over `topo`.
    pub fn new(topo: Arc<Topology>, cfg: NetConfig) -> Self {
        let ports = (topo.nodes().iter())
            .map(|node| {
                (node.ports.iter())
                    .map(|p| PortState::with_tracking(*p, cfg.track_queues))
                    .collect()
            })
            .collect();
        let capture = cfg.capture_cluster.map(|c| {
            assert!(!topo.is_stub(c), "cannot capture a stub cluster's fabric");
            CaptureState::new(c)
        });
        Network {
            stats: NetStats::new(cfg.rtt_scope, cfg.raw_rtt_limit),
            capture,
            verdicts: Verdicts::Missing,
            boundary_gate: vec![None; topo.len()],
            next_pkt_id: 0,
            scratch: TcpOutput::default(),
            partition: None,
            outbox: Vec::new(),
            trace: None,
            ports,
            conns: ConnTable::new(),
            stream: FlowStream {
                flows: Arc::new([]),
                next: 0,
            },
            topo,
            cfg,
        }
    }

    /// Installs the oracle serving every stub cluster. Required before any
    /// packet reaches a boundary.
    pub fn set_oracle(&mut self, oracle: Box<dyn ClusterOracle + Send>) {
        self.verdicts = Verdicts::Inline(oracle);
    }

    /// Lends the installed oracle out, so that another thread can serve
    /// this network's verdicts; `None`, and nothing changes, without one.
    /// Until [`Network::return_oracle`], a boundary crossing is only
    /// requested: it takes its delivery's sequence number and trace entry
    /// and queues a [`VerdictRequest`] ([`Network::take_request`]). The
    /// borrower answers the requests in the order they were made, each
    /// through [`Network::apply_verdict`] before the simulation clock
    /// reaches its `now` plus the oracle latency floor — the earliest its
    /// delivery can fire. The run is then bit-identical to one served
    /// inline.
    pub fn lend_oracle(&mut self) -> Option<LentOracle> {
        match std::mem::replace(&mut self.verdicts, Verdicts::Lent(VecDeque::new())) {
            Verdicts::Inline(oracle) => Some(LentOracle {
                oracle,
                topo: Arc::clone(&self.topo),
                profile: self.cfg.profile,
            }),
            other => {
                self.verdicts = other;
                None
            }
        }
    }

    /// Takes back an oracle [`Network::lend_oracle`] lent out.
    ///
    /// # Panics
    /// Panics if the oracle is not lent out, or if a request is still
    /// queued: it would never be answered.
    pub fn return_oracle(&mut self, lent: LentOracle) {
        match &self.verdicts {
            Verdicts::Lent(queue) if queue.is_empty() => {}
            Verdicts::Lent(_) => panic!("returning an oracle with requests unanswered"),
            _ => panic!("returning an oracle that was not lent out"),
        }
        self.verdicts = Verdicts::Inline(lent.oracle);
    }

    /// The oldest request queued while the oracle is lent out.
    #[inline]
    pub fn take_request(&mut self) -> Option<VerdictRequest> {
        match &mut self.verdicts {
            Verdicts::Lent(queue) => queue.pop_front(),
            _ => None,
        }
    }

    /// The oracle's installed instance, when it is neither missing nor
    /// lent out.
    fn oracle(&self) -> Option<&(dyn ClusterOracle + Send)> {
        match &self.verdicts {
            Verdicts::Inline(oracle) => Some(oracle.as_ref()),
            _ => None,
        }
    }

    /// Enables raw event tracing (§2.1's "print raw packet/event traces"),
    /// retaining the first `limit` entries.
    pub fn enable_trace(&mut self, limit: usize) {
        self.trace = Some(TraceLog::new(limit));
    }

    /// Installs a pre-configured trace log (e.g. [`TraceLog::strided`]),
    /// replacing any existing one. Retention never affects simulation
    /// behaviour, only which events are kept.
    pub fn install_trace(&mut self, log: TraceLog) {
        self.trace = Some(log);
    }

    /// The event trace, if enabled.
    pub fn trace(&self) -> Option<&TraceLog> {
        self.trace.as_ref()
    }

    /// Records a trace entry, if tracing; returns where it was kept.
    #[inline]
    fn trace_event(
        &mut self,
        time: SimTime,
        kind: TraceKind,
        node: NodeId,
        pkt: &Packet,
    ) -> Option<usize> {
        self.trace.as_mut()?.record(TraceEntry {
            time,
            kind,
            node,
            packet: pkt.id,
            flow: pkt.flow,
            seq: pkt.seg.seq,
        })
    }

    /// Marks this instance as partition `my` of a PDES run; events for
    /// nodes owned by other partitions are routed through the outbox.
    pub fn set_partition(&mut self, my: PartitionId, node_part: Arc<Vec<u32>>) {
        assert_eq!(
            node_part.len(),
            self.topo.len(),
            "partition map must cover every node"
        );
        assert!(
            self.stream.flows.is_empty(),
            "partition a network before streaming its flows"
        );
        self.partition = Some(PartitionCtx { my, node_part });
    }

    /// Hands the network the run's flow list, sorted by start, and queues
    /// the first flow it opens in `sched`. A flow's rank is its index in
    /// the list. Each streamed `FlowStart` queues its successor on the
    /// scheduler's arrival lane ([`Scheduler::schedule_arrival`]), so one
    /// flow start is pending at a time, yet every flow starts exactly where
    /// it would have had all of them been scheduled up front in rank order.
    /// A partitioned network ([`Self::set_partition`], called first) skips
    /// the flows whose source host another partition owns: every partition
    /// reads the one list, with the ranks of the whole run, which keeps the
    /// order whatever the cut.
    ///
    /// # Panics
    /// Panics if the network already streams a flow list, or if `flows` is
    /// not sorted by start.
    pub fn stream_flows(&mut self, flows: Arc<[FlowSpec]>, sched: &mut Scheduler<NetEvent>) {
        assert!(
            self.stream.flows.is_empty(),
            "a network streams one flow list"
        );
        assert!(
            flows.is_sorted_by_key(|f| f.start),
            "a streamed flow list is sorted by start"
        );
        self.stream = FlowStream { flows, next: 0 };
        self.queue_next_flow(sched);
    }

    /// The flow list this network streams (see [`Self::stream_flows`]).
    pub fn streamed_flows(&self) -> &Arc<[FlowSpec]> {
        &self.stream.flows
    }

    /// Moves the stream's cursor to the next flow this network opens, if
    /// any is left, and queues its `FlowStart`.
    fn queue_next_flow(&mut self, sched: &mut Scheduler<NetEvent>) {
        let flows = &self.stream.flows;
        let mut next = self.stream.next;
        if let Some(p) = &self.partition {
            let owner = |f: &FlowSpec| p.node_part[self.topo.host_node(f.src).idx()] as PartitionId;
            while next < flows.len() && owner(&flows[next]) != p.my {
                next += 1;
            }
        }
        self.stream.next = next;
        if let Some(&spec) = flows.get(next) {
            sched.schedule_arrival(spec.start, next as u64, NetEvent::FlowStart(spec));
        }
    }

    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Boundary-capture records (empty unless capture was configured).
    pub fn capture(&self) -> Option<&CaptureState> {
        self.capture.as_ref()
    }

    /// Consumes the network, returning capture records.
    pub fn into_capture(self) -> Option<CaptureState> {
        self.capture
    }

    /// Folds the TCP counters of every still-open connection into
    /// `stats` and drops those connections. Call once, after the run, so
    /// retransmission totals include flows cut off by the horizon.
    pub fn absorb_live_connections(&mut self) {
        for conn in self.conns.drain() {
            self.stats.absorb_conn(conn.tcp.stats());
        }
    }

    /// Mean and peak queue occupancy (bytes) per layer, measured exactly
    /// (time-weighted) up to `now`. Requires `cfg.track_queues`; returns
    /// `None` otherwise. Layers: host NICs, ToR, Agg, Core.
    pub fn queue_depth_by_layer(&self, now: SimTime) -> Option<[(f64, f64); 4]> {
        if !self.cfg.track_queues {
            return None;
        }
        let mut acc = [(0.0f64, 0.0f64, 0u32); 4]; // (sum of means, peak, ports)
        for (i, node) in self.ports.iter().enumerate() {
            let Some(layer) = self.topo.node(NodeId(i as u32)).kind.layer() else {
                continue;
            };
            for p in node {
                let d = p.depth().expect("tracking enabled");
                acc[layer].0 += d.mean(now);
                acc[layer].1 = acc[layer].1.max(d.peak());
                acc[layer].2 += 1;
            }
        }
        Some(acc.map(|(sum, peak, n)| (if n > 0 { sum / n as f64 } else { 0.0 }, peak)))
    }

    /// Instantaneous queued bytes per layer (host NICs, ToR, Agg, Core),
    /// summed over every port. Unlike [`Network::queue_depth_by_layer`]
    /// this reads the live queue state directly, so it needs no
    /// time-weighted tracking and works in any configuration — the
    /// sampler's per-tick view of buffer pressure.
    pub fn queue_bytes_by_layer(&self) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for (i, node) in self.ports.iter().enumerate() {
            let Some(layer) = self.topo.node(NodeId(i as u32)).kind.layer() else {
                continue;
            };
            for p in node {
                acc[layer] += p.queued_bytes();
            }
        }
        acc
    }

    /// The installed oracle's congestion-regime index for `cluster`
    /// (`None` without an oracle, or when the oracle models no regime).
    /// See [`ClusterOracle::macro_state_of`].
    pub fn oracle_macro_state(&self, cluster: u16) -> Option<u8> {
        self.oracle().and_then(|o| o.macro_state_of(cluster))
    }

    /// The installed oracle's own counters (`None` without an oracle, or
    /// when it keeps none). See [`ClusterOracle::oracle_stats`].
    pub fn oracle_stats(&self) -> Option<&OracleStats> {
        self.oracle().and_then(|o| o.oracle_stats())
    }

    /// The TCP counters of every still-open connection. `stats` holds the
    /// closed ones, so a run total is the two together (unless
    /// [`Network::absorb_live_connections`] already folded them in).
    pub fn open_conn_stats(&self) -> impl Iterator<Item = &ConnStats> {
        self.conns.iter().map(|c| c.tcp.stats())
    }

    /// The most TCP endpoints this network held open at once — the
    /// connection table's high-water mark, which a checkpoint carries and
    /// a restore rewinds like any other state.
    pub fn conns_peak(&self) -> usize {
        self.conns.peak()
    }

    /// Iterates every port's counters with its owning node and port id —
    /// the raw material for custom link-level analyses.
    pub fn port_counters(&self) -> impl Iterator<Item = (NodeId, PortId, &PortCounters)> {
        self.ports.iter().enumerate().flat_map(|(n, ports)| {
            ports
                .iter()
                .enumerate()
                .map(move |(p, ps)| (NodeId(n as u32), PortId(p as u16), ps.counters()))
        })
    }

    /// Mean link utilization per layer over `[0, horizon]`: transmitted
    /// bits divided by capacity. Layers: host NICs, ToR, Agg, Core.
    pub fn utilization_by_layer(&self, horizon: SimTime) -> [f64; 4] {
        let secs = horizon.as_secs_f64().max(1e-12);
        let mut acc = [(0.0f64, 0u32); 4];
        for (i, node) in self.ports.iter().enumerate() {
            let Some(layer) = self.topo.node(NodeId(i as u32)).kind.layer() else {
                continue;
            };
            for p in node {
                let cap_bits = p.spec().link.rate_gbps * 1e9 * secs;
                acc[layer].0 += p.counters().tx_bytes as f64 * 8.0 / cap_bits;
                acc[layer].1 += 1;
            }
        }
        acc.map(|(sum, n)| if n > 0 { sum / n as f64 } else { 0.0 })
    }

    /// Aggregated port counters: `(ecn_marks, tx_bytes)` over all ports.
    pub fn port_totals(&self) -> (u64, u64) {
        let mut marks = 0;
        let mut bytes = 0;
        for node in &self.ports {
            for p in node {
                marks += p.counters().ecn_marks;
                bytes += p.counters().tx_bytes;
            }
        }
        (marks, bytes)
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: NetEvent, sched: &mut Scheduler<NetEvent>) {
        match ev {
            NetEvent::FlowStart(spec) => self.flow_start(spec, sched),
            NetEvent::Arrive { node, pkt } => match self.topo.node(node).kind {
                NodeKind::Host { addr } => self.host_arrive(node, addr, pkt, sched),
                NodeKind::Boundary { cluster } => self.boundary_arrive(cluster, pkt, sched),
                _ => self.switch_arrive(node, pkt, sched),
            },
            NetEvent::PortFree { node, port } => self.port_free(node, port, sched),
            NetEvent::Timer {
                slot,
                generation,
                kind,
            } => self.timer_fired(slot, generation, kind, sched),
        }
    }

    fn flow_start(&mut self, spec: FlowSpec, sched: &mut Scheduler<NetEvent>) {
        assert!(!spec.id.is_reverse(), "flow specs use canonical ids");
        let now = sched.now();
        // The queued stream entry fires before any same-instant FlowStart
        // scheduled by hand, so the first start matching it is the stream's
        // own; a hand-scheduled start never advances the stream.
        let queued = self.stream.flows.get(self.stream.next);
        if queued.is_some_and(|&queued| queued == spec && spec.start == now) {
            self.stream.next += 1;
            self.queue_next_flow(sched);
        }
        self.stats.flows_started += 1;
        let conn = Conn {
            tcp: TcpConn::sender(&self.cfg.tcp, spec.bytes),
            node: self.topo.host_node(spec.src),
            addr: spec.src,
            peer: spec.dst,
            bytes: spec.bytes,
            started: now,
            rto_key: None,
            delack_key: None,
        };
        // The opener receives the acceptor's packets: the reversed id.
        let slot = self.conns.open(spec.id.reverse(), conn);
        self.with_conn(slot, sched, |tcp, _, now, out| tcp.open(now, out));
    }

    fn switch_arrive(&mut self, node: NodeId, pkt: Packet, sched: &mut Scheduler<NetEvent>) {
        let now = sched.now();
        self.trace_event(now, TraceKind::Arrive, node, &pkt);
        // Boundary-capture hooks (ground-truth training data).
        if let Some(cap) = &mut self.capture {
            let c = cap.cluster();
            match self.topo.node(node).kind {
                NodeKind::Tor { cluster, rack }
                    if cluster == c
                        && pkt.src.cluster == c
                        && pkt.src.rack == rack
                        && pkt.dst.cluster != c =>
                {
                    let path = self.topo.fabric_path(pkt.src, pkt.dst, pkt.flow);
                    cap.begin(&pkt, Direction::Up, path, now);
                }
                NodeKind::Agg { cluster, .. }
                    if cluster == c && pkt.dst.cluster == c && pkt.src.cluster != c =>
                {
                    let path = self.topo.fabric_path(pkt.src, pkt.dst, pkt.flow);
                    cap.begin(&pkt, Direction::Down, path, now);
                }
                NodeKind::Core { .. } => cap.end(pkt.id, now),
                _ => {}
            }
        }
        let port = self.topo.route(node, pkt.dst, pkt.flow);
        self.send_out(node, port, pkt, sched);
    }

    fn host_arrive(
        &mut self,
        node: NodeId,
        addr: HostAddr,
        pkt: Packet,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let now = sched.now();
        debug_assert_eq!(pkt.dst, addr, "packet delivered to the wrong host");
        self.trace_event(now, TraceKind::Arrive, node, &pkt);
        if let Some(cap) = &mut self.capture {
            cap.end(pkt.id, now);
        }
        if pkt.seg.payload_len > 0 {
            self.stats.delivered_packets += 1;
        }
        let slot = match self.conns.find(pkt.flow) {
            Ok(slot) => slot,
            Err(vacancy) if pkt.seg.flags.syn && !pkt.seg.flags.ack => {
                let conn = Conn {
                    tcp: TcpConn::receiver(),
                    node,
                    addr,
                    peer: pkt.src,
                    bytes: 0,
                    started: now,
                    rto_key: None,
                    delack_key: None,
                };
                self.conns.insert(vacancy, pkt.flow, conn)
            }
            Err(_) => return, // stray segment for a closed/unknown connection
        };
        let ce = pkt.ecn == Ecn::CongestionExperienced;
        self.with_conn(slot, sched, |tcp, cfg, now, out| {
            tcp.on_segment(cfg, &pkt.seg, ce, now, out)
        });
    }

    /// A packet reached a stub cluster's boundary: the request step. The
    /// crossing takes its delivery's sequence number and its trace entry
    /// now, so however late its verdict is applied, the delivery fires and
    /// the trace reads as if it had been applied here. An installed oracle
    /// answers at once; a lent one later ([`Network::lend_oracle`]).
    fn boundary_arrive(&mut self, cluster: u16, pkt: Packet, sched: &mut Scheduler<NetEvent>) {
        let now = sched.now();
        let direction = if pkt.dst.cluster == cluster {
            Direction::Down
        } else {
            Direction::Up
        };
        let boundary = self.topo.boundary_node(cluster).expect("stub cluster");
        let req = VerdictRequest {
            path: self.topo.fabric_path(pkt.src, pkt.dst, pkt.flow),
            // The kind is the verdict's; `apply_verdict` rewrites a drop.
            trace: self.trace_event(now, TraceKind::OracleDeliver, boundary, &pkt),
            seq: sched.reserve_seq(),
            pkt,
            now,
            cluster,
            direction,
        };
        match &mut self.verdicts {
            Verdicts::Inline(oracle) => {
                let verdict = classify(oracle.as_mut(), &self.topo, self.cfg.profile, &req);
                self.apply_verdict(&req, verdict, sched);
            }
            Verdicts::Lent(queue) => queue.push_back(req),
            Verdicts::Missing => panic!("topology has stub clusters but no oracle was installed"),
        }
    }

    /// The apply step of a boundary crossing ([`Network::lend_oracle`]):
    /// counts the verdict and, for a delivery, raises its latency to the
    /// oracle floor, applies the conflict rule and schedules it under the
    /// sequence number the crossing reserved. Verdicts must be applied in
    /// the order their requests were made, each before the clock reaches
    /// `req.now` plus the floor.
    pub fn apply_verdict(
        &mut self,
        req: &VerdictRequest,
        verdict: OracleVerdict,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let (pkt, path) = (req.pkt, req.path);
        match verdict {
            OracleVerdict::Drop => {
                self.stats.drops.oracle += 1;
                if let (Some(trace), Some(at)) = (&mut self.trace, req.trace) {
                    trace.set_kind(at, TraceKind::OracleDrop);
                }
            }
            OracleVerdict::Deliver { latency } => {
                let latency = latency.max(self.cfg.oracle_latency_floor);
                let dest = match req.direction {
                    Direction::Down => self.topo.host_node(pkt.dst),
                    Direction::Up => {
                        let core = path.core.expect("Up traversal crosses the core layer");
                        self.topo.core_node(path.src_agg, core)
                    }
                };
                // Conflict rule (§4.2): no two oracle deliveries to the
                // same destination at the same instant; later predictions
                // are pushed to "the next possible time" — one wire
                // serialization later.
                let mut at = req.now + latency;
                let rate = match req.direction {
                    Direction::Down => self.topo.params().host_link.rate_gbps,
                    Direction::Up => self.topo.params().core_link.rate_gbps,
                };
                let gap = SimDuration::from_bytes_at_gbps(pkt.wire_bytes() as u64, rate);
                let gate = &mut self.boundary_gate[dest.idx()];
                if let Some(last) = *gate {
                    if at <= last {
                        at = last + gap;
                    }
                }
                *gate = Some(at);
                self.stats.oracle_deliveries += 1;
                let arrive = NetEvent::Arrive { node: dest, pkt };
                match self.remote_owner(dest) {
                    Some(owner) => self.outbox.push((owner, at, arrive)),
                    None => {
                        sched.schedule_reserved(at, req.seq, arrive);
                    }
                }
            }
        }
    }

    fn port_free(&mut self, node: NodeId, port: PortId, sched: &mut Scheduler<NetEvent>) {
        let now = sched.now();
        let (next, spec) = {
            let ps = &mut self.ports[node.idx()][port.idx()];
            (ps.transmit_next(now), *ps.spec())
        };
        if let Some((pkt, serialize)) = next {
            self.trace_event(now, TraceKind::TxStart, node, &pkt);
            sched.schedule_at(now + serialize, NetEvent::PortFree { node, port });
            self.deliver(
                spec.peer_node,
                now + serialize + spec.link.prop_delay,
                pkt,
                sched,
            );
        }
    }

    fn timer_fired(
        &mut self,
        slot: u32,
        generation: u32,
        kind: TimerKind,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let Some(conn) = self.conns.live_mut(slot, generation) else {
            return; // the connection it was set for has closed
        };
        // The fired key is spent; clear it so Set stores a fresh one.
        match kind {
            TimerKind::Rto => conn.rto_key = None,
            TimerKind::DelAck => conn.delack_key = None,
        }
        self.with_conn(slot, sched, |tcp, cfg, now, out| match kind {
            TimerKind::Rto => tcp.on_rto(cfg, now, out),
            TimerKind::DelAck => tcp.on_delack(cfg, now, out),
        });
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Runs `f` against the TCP machine of the connection in `slot`, then
    /// turns the resulting [`TcpOutput`] into packets, timers, and
    /// statistics.
    fn with_conn(
        &mut self,
        slot: u32,
        sched: &mut Scheduler<NetEvent>,
        f: impl FnOnce(&mut TcpConn, &TcpConfig, SimTime, &mut TcpOutput),
    ) {
        let now = sched.now();
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();

        let (key, generation, conn) = self.conns.get_mut(slot);
        f(&mut conn.tcp, &self.cfg.tcp, now, &mut out);

        // Timers.
        let timer = |kind| NetEvent::Timer {
            slot,
            generation,
            kind,
        };
        apply_timer(&mut conn.rto_key, out.rto, timer(TimerKind::Rto), sched);
        apply_timer(
            &mut conn.delack_key,
            out.delack,
            timer(TimerKind::DelAck),
            sched,
        );
        let Conn {
            node,
            addr,
            peer,
            bytes,
            started,
            ..
        } = *conn;

        // Measurements.
        for &s in &out.rtt_samples {
            self.stats.record_rtt(addr, s);
        }
        self.stats.delivered_bytes += out.accepted_bytes;
        if out.completed {
            // Only the sending side completes, and it opened the
            // connection, so its `Conn` knows the flow's size and start.
            self.stats.flows_completed += 1;
            self.stats.fct.push(FctRecord {
                flow: key.canonical(),
                src: addr,
                dst: peer,
                bytes,
                started,
                completed: now,
            });
        }

        // Packets, under the id the peer receives them by.
        let dir_flow = if key.is_reverse() {
            key.canonical()
        } else {
            key.reverse()
        };
        let ecn_capable = self.cfg.tcp.ecn_capable();
        for seg in out.segments.drain(..) {
            let ecn = if ecn_capable && seg.payload_len > 0 {
                Ecn::Capable
            } else {
                Ecn::NotCapable
            };
            let pkt = Packet {
                id: self.next_pkt_id,
                flow: dir_flow,
                src: addr,
                dst: peer,
                seg,
                ecn,
                sent_at: now,
            };
            self.next_pkt_id += 1;
            self.send_out(node, PortId(0), pkt, sched);
        }

        if out.closed {
            let conn = self.conns.close(slot);
            self.stats.absorb_conn(conn.tcp.stats());
            if let Some(k) = conn.rto_key {
                sched.cancel(k);
            }
            if let Some(k) = conn.delack_key {
                sched.cancel(k);
            }
        }

        self.scratch = out;
    }

    /// Offers a packet to an output port and schedules the consequences.
    fn send_out(
        &mut self,
        node: NodeId,
        port: PortId,
        mut pkt: Packet,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let now = sched.now();
        let (action, spec) = {
            let ps = &mut self.ports[node.idx()][port.idx()];
            (ps.offer(&mut pkt, now), *ps.spec())
        };
        match action {
            TxAction::StartTx { serialize } => {
                self.trace_event(now, TraceKind::TxStart, node, &pkt);
                sched.schedule_at(now + serialize, NetEvent::PortFree { node, port });
                self.deliver(
                    spec.peer_node,
                    now + serialize + spec.link.prop_delay,
                    pkt,
                    sched,
                );
            }
            TxAction::Queued => {}
            TxAction::Dropped => self.record_drop(node, &pkt, now),
        }
    }

    fn record_drop(&mut self, node: NodeId, pkt: &Packet, now: SimTime) {
        self.trace_event(now, TraceKind::Drop, node, pkt);
        match self.topo.node(node).kind {
            NodeKind::Host { .. } => self.stats.drops.host += 1,
            NodeKind::Tor { .. } => self.stats.drops.tor += 1,
            NodeKind::Agg { .. } => self.stats.drops.agg += 1,
            NodeKind::Core { .. } => self.stats.drops.core += 1,
            NodeKind::Boundary { .. } => unreachable!("boundaries have no queues"),
        }
        if let Some(cap) = &mut self.capture {
            cap.dropped(pkt.id, now);
        }
    }

    /// Schedules an arrival, routing through the PDES outbox when the
    /// destination node belongs to another partition.
    fn deliver(&mut self, node: NodeId, at: SimTime, pkt: Packet, sched: &mut Scheduler<NetEvent>) {
        let arrive = NetEvent::Arrive { node, pkt };
        match self.remote_owner(node) {
            Some(owner) => self.outbox.push((owner, at, arrive)),
            None => {
                sched.schedule_at(at, arrive);
            }
        }
    }

    /// The partition owning `node`, when this network is a PDES partition
    /// that does not.
    #[inline]
    fn remote_owner(&self, node: NodeId) -> Option<PartitionId> {
        let p = self.partition.as_ref()?;
        let owner = p.node_part[node.idx()] as PartitionId;
        (owner != p.my).then_some(owner)
    }
}

/// Carries out a timer command on the key of the timer it is for: `fire`
/// is the event a `Set` schedules.
fn apply_timer(
    key: &mut Option<EventKey>,
    cmd: TimerCmd,
    fire: NetEvent,
    sched: &mut Scheduler<NetEvent>,
) {
    if cmd == TimerCmd::Keep {
        return;
    }
    if let Some(old) = key.take() {
        sched.cancel(old);
    }
    if let TimerCmd::Set(at) = cmd {
        *key = Some(sched.schedule_at(at, fire));
    }
}

impl World for Network {
    type Event = NetEvent;
    fn handle(&mut self, ev: NetEvent, sched: &mut Scheduler<NetEvent>) {
        debug_assert!(
            self.partition.is_none(),
            "partitioned networks run under NetPartition"
        );
        self.dispatch(ev, sched);
    }
}

/// Streams every flow in `flows` into a sequential simulator, in start
/// order and, at equal starts, in slice order (see [`flow_list`] and
/// [`Network::stream_flows`]).
pub fn schedule_flows(sim: &mut Simulator<Network>, flows: &[FlowSpec]) {
    let (net, sched) = sim.parts_mut();
    net.stream_flows(flow_list(flows), sched);
}

/// `flows` as one shared list in start order, as [`Network::stream_flows`]
/// reads it: one copy of the slice when it is sorted by start, else a copy
/// stable-sorted by start. Equal starts keep their order in `flows`, so the
/// flows start in the order that scheduling them by hand, in slice order,
/// would give.
pub fn flow_list(flows: &[FlowSpec]) -> Arc<[FlowSpec]> {
    if flows.is_sorted_by_key(|f| f.start) {
        return flows.into();
    }
    let mut sorted = flows.to_vec();
    sorted.sort_by_key(|f| f.start);
    sorted.into()
}

// ----------------------------------------------------------------------
// PDES adapter
// ----------------------------------------------------------------------

/// Wraps a partition-aware [`Network`] as a [`PartitionWorld`].
#[derive(Clone)]
pub struct NetPartition {
    /// The partition's slice of the network.
    pub net: Network,
}

impl PartitionWorld for NetPartition {
    type Event = NetEvent;
    fn handle(
        &mut self,
        ev: NetEvent,
        sched: &mut Scheduler<NetEvent>,
        remote: &mut RemoteSink<NetEvent>,
    ) {
        self.net.dispatch(ev, sched);
        for (dst, at, ev) in self.net.outbox.drain(..) {
            remote.send(dst, at, ev);
        }
    }
}

impl Transportable for NetEvent {
    fn encode(&self, w: &mut wire::Writer) {
        match self {
            NetEvent::FlowStart(s) => {
                w.u8(0);
                w.u64(s.id.0);
                s.src.encode(w);
                s.dst.encode(w);
                w.u64(s.bytes);
                w.u64(s.start.as_nanos());
            }
            NetEvent::Arrive { node, pkt } => {
                w.u8(1);
                w.u32(node.0);
                pkt.encode(w);
            }
            NetEvent::PortFree { node, port } => {
                w.u8(2);
                w.u32(node.0);
                w.u16(port.0);
            }
            NetEvent::Timer {
                slot,
                generation,
                kind,
            } => {
                w.u8(3);
                w.u32(*slot);
                w.u32(*generation);
                w.u8(matches!(kind, TimerKind::DelAck) as u8);
            }
        }
    }

    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some(match r.u8()? {
            0 => NetEvent::FlowStart(FlowSpec {
                id: FlowId(r.u64()?),
                src: HostAddr::decode(r)?,
                dst: HostAddr::decode(r)?,
                bytes: r.u64()?,
                start: SimTime::from_nanos(r.u64()?),
            }),
            1 => NetEvent::Arrive {
                node: NodeId(r.u32()?),
                pkt: Packet::decode(r)?,
            },
            2 => NetEvent::PortFree {
                node: NodeId(r.u32()?),
                port: PortId(r.u16()?),
            },
            3 => NetEvent::Timer {
                slot: r.u32()?,
                generation: r.u32()?,
                kind: match r.u8()? {
                    0 => TimerKind::Rto,
                    1 => TimerKind::DelAck,
                    _ => return None,
                },
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{FixedLatencyOracle, IdealOracle};
    use crate::topology::ClosParams;
    use proptest::prelude::*;

    fn sim_with_flows(topo: Topology, cfg: NetConfig, flows: &[FlowSpec]) -> Simulator<Network> {
        let mut sim = Simulator::new(Network::new(Arc::new(topo), cfg));
        schedule_flows(&mut sim, flows);
        sim
    }

    fn flow(id: u64, src: HostAddr, dst: HostAddr, bytes: u64, start_us: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src,
            dst,
            bytes,
            start: SimTime::from_micros(start_us),
        }
    }

    #[test]
    fn same_rack_flow_completes() {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let flows = [flow(
            1,
            HostAddr::new(0, 0, 0),
            HostAddr::new(0, 0, 1),
            100_000,
            0,
        )];
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.run_until(SimTime::from_secs(2));
        let st = &sim.world().stats;
        assert_eq!(st.flows_completed, 1);
        assert_eq!(st.fct.len(), 1);
        assert_eq!(st.delivered_bytes, 100_000);
        assert_eq!(st.drops.total(), 0);
        // FCT sanity: 100kB at 10G is ~80us of serialization plus RTTs.
        let fct = st.fct[0].fct();
        assert!(fct > SimDuration::from_micros(80), "fct {fct}");
        assert!(fct < SimDuration::from_millis(10), "fct {fct}");
    }

    #[test]
    fn inter_cluster_flow_completes() {
        let topo = Topology::clos(ClosParams::paper_cluster(4));
        let flows = [flow(
            1,
            HostAddr::new(0, 0, 0),
            HostAddr::new(3, 1, 2),
            250_000,
            0,
        )];
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.world().stats.flows_completed, 1);
        assert_eq!(sim.world().stats.delivered_bytes, 250_000);
        assert!(
            sim.world().stats.rtt_hist.count() > 0,
            "RTT samples collected"
        );
    }

    #[test]
    fn incast_causes_drops_but_flows_finish() {
        // 8 senders, one receiver: the receiver's host link is the
        // bottleneck and its ToR queue must overflow.
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let dst = HostAddr::new(0, 0, 0);
        let mut flows = vec![];
        let mut id = 1;
        for r in 0..2 {
            for h in 0..4 {
                let src = HostAddr::new(1, r, h);
                flows.push(flow(id, src, dst, 500_000, 0));
                id += 1;
            }
        }
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.run_until(SimTime::from_secs(5));
        let st = &sim.world().stats;
        assert_eq!(st.flows_completed, 8, "all incast flows eventually finish");
        assert!(st.drops.total() > 0, "incast must overflow the ToR queue");
        assert_eq!(st.delivered_bytes, 8 * 500_000);
    }

    #[test]
    fn capture_collects_both_directions() {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let cfg = NetConfig {
            capture_cluster: Some(1),
            ..Default::default()
        };
        // Traffic into and out of cluster 1.
        let flows = [
            flow(
                1,
                HostAddr::new(0, 0, 0),
                HostAddr::new(1, 0, 0),
                100_000,
                0,
            ),
            flow(
                2,
                HostAddr::new(1, 1, 0),
                HostAddr::new(0, 1, 0),
                100_000,
                0,
            ),
        ];
        let mut sim = sim_with_flows(topo, cfg, &flows);
        sim.run_until(SimTime::from_secs(2));
        let cap = sim.world().capture().expect("capture enabled");
        let ups = cap
            .records()
            .iter()
            .filter(|r| r.direction == Direction::Up)
            .count();
        let downs = cap
            .records()
            .iter()
            .filter(|r| r.direction == Direction::Down)
            .count();
        assert!(ups > 0, "upward traversals captured");
        assert!(downs > 0, "downward traversals captured");
        for r in cap.records() {
            assert!(!r.dropped, "uncongested run should not drop");
            assert!(r.latency > SimDuration::ZERO);
            assert!(
                r.latency < SimDuration::from_millis(1),
                "uncongested fabric latency is microseconds, got {}",
                r.latency
            );
        }
        assert_eq!(cap.pending_count(), 0, "all traversals finalized");
    }

    #[test]
    fn hybrid_with_ideal_oracle_completes_flows() {
        let topo = Topology::clos_with_stubs(ClosParams::paper_cluster(4), &[1, 2, 3]);
        let flows = [
            flow(
                1,
                HostAddr::new(0, 0, 0),
                HostAddr::new(2, 1, 3),
                200_000,
                0,
            ),
            flow(
                2,
                HostAddr::new(3, 0, 1),
                HostAddr::new(0, 1, 1),
                200_000,
                10,
            ),
        ];
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.world_mut().set_oracle(Box::new(IdealOracle));
        sim.run_until(SimTime::from_secs(2));
        let st = &sim.world().stats;
        assert_eq!(st.flows_completed, 2);
        assert!(
            st.oracle_deliveries > 0,
            "oracle handled boundary crossings"
        );
        assert_eq!(st.delivered_bytes, 400_000);
    }

    #[test]
    fn hybrid_stub_to_stub_also_works() {
        // Not used by the paper's workloads (such traffic is elided), but
        // the engine must not fall over if a flow crosses two stubs.
        let topo = Topology::clos_with_stubs(ClosParams::paper_cluster(4), &[1, 2, 3]);
        let flows = [flow(
            1,
            HostAddr::new(1, 0, 0),
            HostAddr::new(2, 0, 0),
            50_000,
            0,
        )];
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.world_mut().set_oracle(Box::new(IdealOracle));
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.world().stats.flows_completed, 1);
    }

    #[test]
    fn conflict_gate_separates_simultaneous_deliveries() {
        // A zero-latency oracle forces every boundary crossing to want the
        // same delivery instant; the gate must serialize them.
        let topo = Topology::clos_with_stubs(ClosParams::paper_cluster(2), &[1]);
        let dst = HostAddr::new(1, 0, 0);
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| flow(i + 1, HostAddr::new(0, 0, i as u16), dst, 30_000, 0))
            .collect();
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.world_mut()
            .set_oracle(Box::new(FixedLatencyOracle(SimDuration::from_micros(5))));
        sim.run_until(SimTime::from_secs(2));
        let st = &sim.world().stats;
        assert_eq!(st.flows_completed, 4);
        // With identical predicted latencies, deliveries to the one
        // destination must have been pushed apart, not stacked: the engine
        // asserts this structurally via the gate, and completion proves
        // no packet was lost to the collision.
        assert!(st.oracle_deliveries >= 4);
    }

    #[test]
    fn port_conservation_at_quiescence() {
        // Every packet offered to a port either transmitted or dropped;
        // nothing lingers once the simulation drains.
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let dst = HostAddr::new(0, 0, 0);
        let flows: Vec<FlowSpec> = (0..8)
            .map(|i| {
                flow(
                    i + 1,
                    HostAddr::new(1, (i % 2) as u16, (i % 4) as u16),
                    dst,
                    300_000,
                    0,
                )
            })
            .collect();
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.run_until(SimTime::from_secs(10));
        let net = sim.world();
        assert_eq!(net.stats.flows_completed, 8);
        let mut offered = 0u64;
        let mut tx = 0u64;
        let mut drops = 0u64;
        for node in &net.ports {
            for p in node {
                assert_eq!(p.queue_len(), 0, "drained queues");
                assert!(!p.is_busy(), "idle transmitters");
                offered += p.counters().offered;
                tx += p.counters().tx_packets;
                drops += p.counters().drops;
            }
        }
        assert_eq!(offered, tx + drops, "conservation: offered = tx + dropped");
        assert_eq!(drops, net.stats.drops.total(), "port drops match stats");
    }

    #[test]
    fn utilization_reflects_traffic() {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        // One long flow saturating its path for most of the horizon.
        let flows = [flow(
            1,
            HostAddr::new(0, 0, 0),
            HostAddr::new(1, 0, 0),
            10_000_000,
            0,
        )];
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        let horizon = SimTime::from_millis(10);
        sim.run_until(horizon);
        let util = sim.world().utilization_by_layer(horizon);
        // 10 MB in 10 ms = 8 Gb/s on the sender's 10G NIC; averaged over
        // 32 host ports that is ~2.5% per-layer mean, and strictly more
        // than the idle Agg layer sees per-port... simply: every layer on
        // the path saw traffic, all values are sane fractions.
        for (i, &u) in util.iter().enumerate() {
            assert!((0.0..=1.0).contains(&u), "layer {i} utilization {u}");
        }
        assert!(util[0] > 0.01, "host layer carried the flow: {}", util[0]);
        assert!(util[3] > 0.0, "core layer crossed: {}", util[3]);
        // Counter iterator covers every port exactly once.
        let n_ports: usize = sim
            .world()
            .topo()
            .nodes()
            .iter()
            .map(|n| n.ports.len())
            .sum();
        assert_eq!(sim.world().port_counters().count(), n_ports);
    }

    #[test]
    fn queue_tracking_measures_occupancy() {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let dst = HostAddr::new(0, 0, 0);
        let flows: Vec<FlowSpec> = (0..6)
            .map(|i| {
                flow(
                    i + 1,
                    HostAddr::new(1, (i % 2) as u16, (i % 4) as u16),
                    dst,
                    400_000,
                    0,
                )
            })
            .collect();
        let cfg = NetConfig {
            track_queues: true,
            ..Default::default()
        };
        let mut sim = sim_with_flows(topo, cfg, &flows);
        let horizon = SimTime::from_millis(20);
        sim.run_until(horizon);
        let layers = sim
            .world()
            .queue_depth_by_layer(horizon)
            .expect("tracking on");
        // The incast bottleneck is the victim ToR's host-facing port: the
        // ToR layer must show real occupancy, and every peak is within the
        // configured queue capacity.
        let (tor_mean, tor_peak) = layers[1];
        assert!(tor_mean > 100.0, "ToR mean occupancy {tor_mean} bytes");
        assert!(tor_peak > 10_000.0, "ToR peak occupancy {tor_peak} bytes");
        for (layer, &(mean, peak)) in layers.iter().enumerate() {
            assert!(
                peak <= 150_000.0,
                "layer {layer} peak {peak} within capacity"
            );
            assert!(mean <= peak, "mean below peak");
        }
        // Untracked runs report None.
        let topo2 = Topology::clos(ClosParams::paper_cluster(2));
        let sim2 = sim_with_flows(topo2, NetConfig::default(), &flows);
        assert!(sim2.world().queue_depth_by_layer(horizon).is_none());
    }

    #[test]
    fn trace_log_captures_packet_lifecycle() {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let flows = [flow(
            1,
            HostAddr::new(0, 0, 0),
            HostAddr::new(1, 0, 0),
            10_000,
            0,
        )];
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.world_mut().enable_trace(10_000);
        sim.run_until(SimTime::from_secs(1));
        let trace = sim.world().trace().expect("enabled");
        assert!(!trace.truncated());
        let entries = trace.entries();
        assert!(!entries.is_empty());
        // Times are non-decreasing and the SYN's first hop is a TxStart at
        // the source host followed by an Arrive at its ToR.
        for w in entries.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        use crate::trace_log::TraceKind;
        let first_tx = entries
            .iter()
            .find(|e| e.kind == TraceKind::TxStart)
            .unwrap();
        assert_eq!(
            first_tx.node,
            sim.world().topo().host_node(HostAddr::new(0, 0, 0))
        );
        assert!(entries.iter().any(|e| e.kind == TraceKind::Arrive));
        // CSV export is rectangular.
        let rows = trace.to_csv_rows();
        assert!(rows.iter().all(|r| r.len() == 6));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let topo = Topology::clos(ClosParams::paper_cluster(2));
            let mut flows = vec![];
            for i in 0..6u64 {
                flows.push(flow(
                    i + 1,
                    HostAddr::new((i % 2) as u16, (i % 2) as u16, (i % 4) as u16),
                    HostAddr::new(((i + 1) % 2) as u16, 0, 0),
                    50_000 + i * 1000,
                    i * 7,
                ));
            }
            let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
            sim.run_until(SimTime::from_secs(2));
            let st = &sim.world().stats;
            (
                st.flows_completed,
                st.delivered_bytes,
                st.drops.total(),
                sim.scheduler().executed_total(),
                st.fct
                    .iter()
                    .map(|f| f.completed.as_nanos())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run(), "bit-identical replay");
    }

    /// Every flow scheduled up front, one `schedule_at` per flow — the way
    /// callers outside the crate that drive `Network` themselves do it.
    fn sim_hand_scheduled(topo: Topology, flows: &[FlowSpec]) -> Simulator<Network> {
        let mut sim = Simulator::new(Network::new(Arc::new(topo), NetConfig::default()));
        for &spec in flows {
            sim.scheduler_mut()
                .schedule_at(spec.start, NetEvent::FlowStart(spec));
        }
        sim
    }

    type FctRow = (u64, HostAddr, HostAddr, u64, u64, u64);

    /// What two runs are compared on: events executed, the stat totals,
    /// and every FCT record in completion order. The totals include the
    /// packets that waited in a port queue, which same-instant event order
    /// decides (a packet offered just before its port's `PortFree` queues,
    /// just after it goes straight onto the wire).
    fn outcome(sim: &Simulator<Network>) -> (u64, [u64; 5], Vec<FctRow>) {
        let st = &sim.world().stats;
        let totals = [
            st.flows_started,
            st.flows_completed,
            st.delivered_bytes,
            st.drops.total(),
            sim.world().port_counters().map(|(_, _, c)| c.queued).sum(),
        ];
        let fct = (st.fct.iter())
            .map(|r| {
                let (t0, t1) = (r.started.as_nanos(), r.completed.as_nanos());
                (r.flow.0, r.src, r.dst, r.bytes, t0, t1)
            })
            .collect();
        (sim.scheduler().executed_total(), totals, fct)
    }

    fn streamed_equals_hand_scheduled(flows: &[FlowSpec], horizon: SimTime) {
        let topo = || Topology::clos(ClosParams::paper_cluster(2));
        let mut streamed = sim_with_flows(topo(), NetConfig::default(), flows);
        let mut by_hand = sim_hand_scheduled(topo(), flows);
        streamed.run_until(horizon);
        by_hand.run_until(horizon);
        let (a, b) = (outcome(&streamed), outcome(&by_hand));
        assert!(a.1[1] > 0, "some flows complete");
        assert_eq!(a, b, "streaming must not move a single event");
    }

    #[test]
    fn streamed_flows_equal_hand_scheduled_out_of_start_order() {
        // Starts on a coarse grid (many ties), listed in no start order.
        let mut st = 3u64;
        let mut next = || {
            st = elephant_des::splitmix64(st);
            st
        };
        let host = |r: u64| HostAddr::new((r % 2) as u16, (r / 2 % 2) as u16, (r / 4 % 4) as u16);
        let flows: Vec<FlowSpec> = (0..120u64)
            .map(|i| {
                let (src, dst) = (next() % 16, next() % 16);
                let dst = if dst == src { (dst + 1) % 16 } else { dst };
                let start_us = (next() % 40) * 50;
                flow(
                    i + 1,
                    host(src),
                    host(dst),
                    2_000 + next() % 60_000,
                    start_us,
                )
            })
            .collect();
        assert!(flows.windows(2).any(|w| w[0].start > w[1].start));
        streamed_equals_hand_scheduled(&flows, SimTime::from_millis(5));
    }

    /// Where the arrival lane decides: the flow listed last (highest rank)
    /// starts at the very instant the first flow's SYN clears its NIC — a
    /// local event posted long before. Scheduled up front, that start fired
    /// first and its SYN queued behind the busy port; streamed, it must too.
    #[test]
    fn a_late_listed_start_precedes_a_same_instant_local_event() {
        let (a, b, c) = (
            HostAddr::new(0, 0, 0),
            HostAddr::new(1, 0, 0),
            HostAddr::new(1, 1, 0),
        );
        let first = flow(1, a, b, 20_000, 0);
        let params = ClosParams::paper_cluster(2);
        let mut probe = sim_with_flows(Topology::clos(params), NetConfig::default(), &[first]);
        probe.world_mut().enable_trace(16);
        probe.run_until(SimTime::from_micros(20));
        let entries = probe.world().trace().expect("enabled").entries();
        let tor = entries.iter().find(|e| e.kind == TraceKind::Arrive);
        let freed = tor.expect("the SYN reached the ToR").time - params.host_link.prop_delay;
        let mut flows = vec![first];
        flows.extend((2..40).map(|i| flow(i, b, a, 5_000, 2_000 + i)));
        flows.push(FlowSpec {
            start: freed,
            ..flow(99, a, c, 20_000, 0)
        });
        streamed_equals_hand_scheduled(&flows, SimTime::from_millis(10));
    }

    #[test]
    fn streamed_flows_equal_hand_scheduled_at_one_instant() {
        // Two incast waves: fifteen senders start at the same instant.
        let dst = HostAddr::new(0, 0, 0);
        let mut flows = vec![];
        for wave in 0..2u64 {
            for h in 1..16u64 {
                let src = HostAddr::new((h / 8) as u16, (h / 4 % 2) as u16, (h % 4) as u16);
                flows.push(flow(wave * 100 + h, src, dst, 40_000, wave * 1_000));
            }
        }
        streamed_equals_hand_scheduled(&flows, SimTime::from_millis(6));
    }

    #[test]
    fn one_flow_start_is_pending_whatever_the_flow_count() {
        let flows: Vec<FlowSpec> = (0..10_000u64)
            .map(|i| {
                let (src, dst) = (HostAddr::new(0, 0, 0), HostAddr::new(1, 0, 0));
                flow(i + 1, src, dst, 1_000, (i * 7_919) % 1_000_000)
            })
            .collect();
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let sim = sim_with_flows(topo, NetConfig::default(), &flows);
        assert_eq!(sim.scheduler().pending(), 1);
        assert_eq!(sim.scheduler().scheduled_total(), 1);
    }

    /// Partitions read one list: each opens exactly the flows its hosts
    /// source, in list order, each queued with its index in the whole list
    /// as its rank.
    #[test]
    fn partitions_stream_their_own_flows_with_global_ranks() {
        let topo = Arc::new(Topology::clos(ClosParams::paper_cluster(2)));
        let host = |i: u64| HostAddr::new((i % 2) as u16, (i / 2 % 2) as u16, (i / 4 % 4) as u16);
        let flows: Arc<[FlowSpec]> = (0..200u64)
            .map(|i| flow(i + 1, host(i), host(i + 3), 1_000, i / 3 * 10))
            .collect();
        for n in [2, 4] {
            let map = Arc::new(topo.partition_by_rack(n));
            let mut ranks = vec![];
            for p in 0..n {
                let mut net = Network::new(Arc::clone(&topo), NetConfig::default());
                net.set_partition(p, Arc::clone(&map));
                let mut sched = Scheduler::new();
                net.stream_flows(Arc::clone(&flows), &mut sched);
                let first = ranks.len();
                while let Some((_, ev)) = sched.pop() {
                    let NetEvent::FlowStart(spec) = ev else {
                        continue; // packets and timers: not the stream's
                    };
                    let rank = net.stream.next;
                    assert_eq!(flows[rank], spec);
                    assert_eq!(map[topo.host_node(spec.src).idx()] as usize, p);
                    ranks.push(rank);
                    net.dispatch(ev, &mut sched);
                    net.outbox.clear();
                }
                assert!(ranks[first..].is_sorted(), "list order");
            }
            ranks.sort_unstable();
            assert_eq!(
                ranks,
                (0..flows.len()).collect::<Vec<_>>(),
                "each flow once"
            );
        }
    }

    /// Flows that never overlap hold one endpoint open at each end, however
    /// many there are: a closing connection's slot is reused, not left
    /// behind, so the table is sized by the traffic in flight.
    #[test]
    fn back_to_back_flows_reuse_a_handful_of_slots() {
        let (a, b) = (HostAddr::new(0, 0, 0), HostAddr::new(1, 0, 0));
        let flows: Vec<FlowSpec> = (0..10_000u64)
            .map(|i| flow(i + 1, a, b, 1_000, i * 1_000))
            .collect();
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
        sim.run_until(SimTime::from_secs(11));
        let net = sim.world();
        assert_eq!(net.stats.flows_completed, 10_000);
        assert_eq!(net.conns.len(), 0, "every connection closed");
        assert_eq!(net.conns_peak(), 2, "one opener and one acceptor");
    }

    /// A timer set for a connection that has closed since is not delivered
    /// to the connection that took over its slot: the stale event fires,
    /// and the run ends exactly as it would have without it.
    #[test]
    fn a_stale_timer_never_reaches_its_slots_next_occupant() {
        let (a, b, c) = (
            HostAddr::new(0, 0, 0),
            HostAddr::new(1, 0, 0),
            HostAddr::new(1, 1, 0),
        );
        let flows = [flow(1, a, b, 1_000, 0), flow(2, a, c, 200_000, 2_000)];
        let run = |stale: bool| {
            let topo = Topology::clos(ClosParams::paper_cluster(2));
            let mut sim = sim_with_flows(topo, NetConfig::default(), &flows);
            // The first flow's opener has sent its SYN and armed its RTO.
            sim.run_until(SimTime::from_micros(1));
            let conns = &mut sim.world_mut().conns;
            let slot = conns.find(FlowId(1).reverse()).expect("first opener");
            let (_, generation, conn) = conns.get_mut(slot);
            assert!(conn.rto_key.is_some());
            // The first flow is over at both ends; the second flow's
            // opener has taken the first opener's slot.
            sim.run_until(SimTime::from_micros(1_000));
            assert_eq!(sim.world().conns.len(), 0);
            sim.run_until(SimTime::from_micros(2_010));
            let conns = &mut sim.world_mut().conns;
            assert_eq!(conns.find(FlowId(2).reverse()).ok(), Some(slot));
            assert_eq!(conns.get_mut(slot).1, generation + 1);
            if stale {
                let kind = TimerKind::Rto;
                let ev = NetEvent::Timer {
                    slot,
                    generation,
                    kind,
                };
                let at = SimTime::from_micros(2_040);
                sim.scheduler_mut().schedule_at(at, ev);
            }
            sim.run_until(SimTime::from_secs(1));
            assert_eq!(sim.world().stats.timeouts, 0);
            outcome(&sim)
        };
        let (clean, stale) = (run(false), run(true));
        assert_eq!(stale.0, clean.0 + 1, "the stale timer fired");
        assert_eq!(stale.1[1], 2, "both flows completed");
        assert_eq!(
            (stale.1, stale.2),
            (clean.1, clean.2),
            "and changed nothing"
        );
    }

    /// A `FlowStart` scheduled by hand opens its flow and leaves the stream
    /// alone — before, at and between the instants of streamed starts.
    #[test]
    fn a_hand_scheduled_flow_start_does_not_advance_the_stream() {
        let (a, b) = (HostAddr::new(0, 0, 0), HostAddr::new(1, 0, 0));
        let streamed = [flow(1, a, b, 5_000, 10), flow(2, b, a, 5_000, 20)];
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let mut sim = sim_with_flows(topo, NetConfig::default(), &streamed);
        let sched = sim.scheduler_mut();
        for (id, us) in [(7, 5), (8, 10), (9, 15)] {
            let spec = flow(id, a, HostAddr::new(1, 1, 0), 5_000, us);
            sched.schedule_at(spec.start, NetEvent::FlowStart(spec));
        }
        let cursor = |sim: &Simulator<Network>| sim.world().stream.next;

        sim.run_until(SimTime::from_micros(5));
        assert_eq!((cursor(&sim), sim.world().stats.flows_started), (0, 1));
        sim.run_until(SimTime::from_micros(10));
        assert_eq!((cursor(&sim), sim.world().stats.flows_started), (1, 3));
        sim.run_until(SimTime::from_micros(15));
        assert_eq!((cursor(&sim), sim.world().stats.flows_started), (1, 4));
        sim.run_until(SimTime::from_micros(20));
        assert_eq!((cursor(&sim), sim.world().stats.flows_started), (2, 5));
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.world().stats.flows_completed, 5);
    }

    fn encode(ev: &NetEvent) -> Vec<u8> {
        let mut buf = Vec::new();
        ev.encode(&mut wire::Writer::new(&mut buf));
        buf
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One event of each kind with its literal wire bytes: the format is
    /// pinned here, not only round-tripped, so a codec change that moves a
    /// byte fails.
    fn pinned_events() -> Vec<(NetEvent, &'static str)> {
        let pkt = Packet {
            id: 77,
            flow: FlowId(1234),
            src: HostAddr::new(1, 2, 3),
            dst: HostAddr::new(4, 5, 6),
            seg: crate::packet::TcpSegment {
                seq: 1_000_000,
                ack: 42,
                flags: crate::packet::TcpFlags::FIN_ACK,
                payload_len: 1460,
                ece: true,
                cwr: false,
            },
            ecn: Ecn::CongestionExperienced,
            sent_at: SimTime::from_micros(99),
        };
        vec![
            (
                NetEvent::FlowStart(flow(
                    9,
                    HostAddr::new(0, 1, 2),
                    HostAddr::new(3, 4, 5),
                    777,
                    3,
                )),
                "00 0000000000000009 0000 0001 0002 0003 0004 0005 0000000000000309 0000000000000bb8",
            ),
            (
                NetEvent::Arrive {
                    node: NodeId(7),
                    pkt,
                },
                concat!(
                    "01 00000007 000000000000004d 00000000000004d2 0001 0002 0003 0004 0005 0006 ",
                    "00000000000f4240 000000000000002a 06 000005b4 06 00000000000182b8",
                ),
            ),
            (
                NetEvent::PortFree {
                    node: NodeId(12),
                    port: PortId(3),
                },
                "02 0000000c 0003",
            ),
            (
                NetEvent::Timer {
                    slot: 5,
                    generation: 88,
                    kind: TimerKind::DelAck,
                },
                "03 00000005 00000058 01",
            ),
            (
                NetEvent::Timer {
                    slot: 6,
                    generation: 89,
                    kind: TimerKind::Rto,
                },
                "03 00000006 00000059 00",
            ),
        ]
    }

    #[test]
    fn codec_pins_the_wire_format() {
        for (ev, pinned) in pinned_events() {
            let bytes = encode(&ev);
            assert_eq!(hex(&bytes), pinned.replace(' ', ""), "{ev:?}");
            let mut rd = wire::Reader::new(&bytes);
            let back = NetEvent::decode(&mut rd).expect("decodes");
            assert_eq!(rd.remaining(), 0, "decode consumed exactly the encoding");
            // Compare via re-encoding (NetEvent is not PartialEq).
            assert_eq!(encode(&back), bytes);
        }
    }

    /// The timer-kind byte refuses every value but the two it is written as.
    #[test]
    fn codec_refuses_unwritten_timer_kinds() {
        let timer = NetEvent::Timer {
            slot: 5,
            generation: 88,
            kind: TimerKind::Rto,
        };
        let mut bytes = encode(&timer);
        for kind in 2..=u8::MAX {
            *bytes.last_mut().unwrap() = kind;
            let decoded = NetEvent::decode(&mut wire::Reader::new(&bytes));
            assert!(
                decoded.is_none(),
                "timer kind {kind} decoded as {decoded:?}"
            );
        }
    }

    /// `bytes` decode to `None` or to an event that re-encodes to exactly
    /// the bytes it consumed.
    fn refused_or_faithful(bytes: &[u8]) -> Result<(), TestCaseError> {
        let mut rd = wire::Reader::new(bytes);
        if let Some(ev) = NetEvent::decode(&mut rd) {
            let consumed = &bytes[..bytes.len() - rd.remaining()];
            prop_assert_eq!(encode(&ev), consumed, "{:?}", ev);
        }
        Ok(())
    }

    fn any_addr() -> impl Strategy<Value = HostAddr> {
        (any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(c, r, h)| HostAddr::new(c, r, h))
    }

    fn any_packet() -> impl Strategy<Value = Packet> {
        let seg = (
            any::<u64>(),
            any::<u64>(),
            0u8..8,
            any::<u32>(),
            any::<bool>(),
            any::<bool>(),
        );
        let ecn = prop_oneof![
            Just(Ecn::NotCapable),
            Just(Ecn::Capable),
            Just(Ecn::CongestionExperienced)
        ];
        (
            any::<u64>(),
            any::<u64>(),
            any_addr(),
            any_addr(),
            seg,
            ecn,
            any::<u64>(),
        )
            .prop_map(
                |(id, flow, src, dst, (seq, ack, flags, payload_len, ece, cwr), ecn, sent_at)| {
                    Packet {
                        id,
                        flow: FlowId(flow),
                        src,
                        dst,
                        seg: crate::packet::TcpSegment {
                            seq,
                            ack,
                            flags: crate::packet::TcpFlags {
                                syn: flags & 1 != 0,
                                ack: flags & 2 != 0,
                                fin: flags & 4 != 0,
                            },
                            payload_len,
                            ece,
                            cwr,
                        },
                        ecn,
                        sent_at: SimTime::from_nanos(sent_at),
                    }
                },
            )
    }

    fn any_event() -> impl Strategy<Value = NetEvent> {
        let flow_start = (
            any::<u64>(),
            any_addr(),
            any_addr(),
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(|(id, src, dst, bytes, start)| {
                NetEvent::FlowStart(FlowSpec {
                    id: FlowId(id),
                    src,
                    dst,
                    bytes,
                    start: SimTime::from_nanos(start),
                })
            });
        let arrive = (any::<u32>(), any_packet()).prop_map(|(node, pkt)| NetEvent::Arrive {
            node: NodeId(node),
            pkt,
        });
        let port_free = (any::<u32>(), any::<u16>()).prop_map(|(node, port)| NetEvent::PortFree {
            node: NodeId(node),
            port: PortId(port),
        });
        let timer =
            (any::<u32>(), any::<u32>(), any::<bool>()).prop_map(|(slot, generation, delack)| {
                NetEvent::Timer {
                    slot,
                    generation,
                    kind: if delack {
                        TimerKind::DelAck
                    } else {
                        TimerKind::Rto
                    },
                }
            });
        prop_oneof![flow_start, arrive, port_free, timer]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reader never panics on the bytes a cross-machine event can
        /// arrive as: every truncation of an encoding is refused, and one
        /// overwritten byte or a random string decodes to `None` or to an
        /// event whose encoding is the bytes it consumed.
        #[test]
        fn codec_reader_never_panics(
            ev in any_event(),
            at in any::<usize>(),
            byte in any::<u8>(),
            junk in proptest::collection::vec(any::<u8>(), 0..=96),
        ) {
            let bytes = encode(&ev);
            let back = NetEvent::decode(&mut wire::Reader::new(&bytes)).map(|e| encode(&e));
            prop_assert_eq!(back, Some(bytes.clone()));
            for len in 0..bytes.len() {
                let decoded = NetEvent::decode(&mut wire::Reader::new(&bytes[..len]));
                prop_assert!(decoded.is_none(), "{} of {} bytes decoded", len, bytes.len());
            }
            let mut garbled = bytes.clone();
            garbled[at % bytes.len()] = byte;
            refused_or_faithful(&garbled)?;
            refused_or_faithful(&junk)?;
        }
    }
}
