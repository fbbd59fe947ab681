//! Experiment runners: one run description, one [`execute`].
//!
//! The paper's result is a ratio between two runs of the same inputs —
//! full fidelity vs. hybrid (§3, Figure 5), sequential vs. PDES (§6.2,
//! Figure 1) — so both sides must be built identically. A [`RunPlan`]
//! names a point in fidelity × execution × supervision × observation and
//! [`execute`] is the only code that builds worlds and drives them:
//!
//! * [`Fidelity`] — everything at packet level, or one cluster plus the
//!   core with every other fabric served by a learned oracle (Figure 3,
//!   with §6.2's elision left to the caller's flow list);
//! * [`Exec`] — the sequential engine, or conservative PDES;
//! * `supervise` — checkpoint/restore with the retry ladder of
//!   [`crate::supervise`];
//! * [`Observe`] — an event trace, a sampling period, the timeline
//!   switch and the profile switch, all bit-identity-preserving.
//!
//! [`run_ground_truth`] and [`run_hybrid`] are the §3 workflow's one-call
//! lowerings (step 2, training, lives in `train`). Every run reports
//! wall-clock time, events executed, and simulated seconds, the
//! currencies of Figures 1 and 5.
//!
//! A finished run is the only source of its numbers. The [`Outcome`] owns
//! the final networks, the kernel report, the samples and the recovery
//! log, and is read four ways, all here: [`Outcome::metric_rows`] (the
//! ledger's metric rows), [`Outcome::partition_rows`] (its per-partition
//! rows), [`Outcome::timeline`] (the Chrome-trace timeline) and `Display`
//! (the stdout summary); [`Outcome::describe`] fills a report from the
//! first two and the run's own clocks. Nothing is mirrored into
//! process-wide counters, clocks or buffers while the run executes, so
//! two runs in one process — a capture before a hybrid, an abandoned
//! attempt before a restore — can not leak into each other's artifacts.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::CacheTotals;
use crate::error::ElephantError;
use crate::macro_model::MacroState;
use crate::pipeline::{Serving, VerdictClocks, VerdictServer};
use crate::supervise::{
    supervise_pdes, supervise_simulator, RecoveryEvent, RecoveryLog, RecoveryPolicy,
};

use elephant_des::{
    EpochMode, FaultPlan, FelPeaks, PartitionSim, PdesConfig, PdesError, PdesReport, PdesRunner,
    SimDuration, SimTime, Simulator,
};
use elephant_net::{
    export_flow_timeline, export_sample_counters, flow_list, run_sampled, ClosParams,
    ClusterOracle, ConnStats, FlowSpec, GuardSnapshot, GuardViolation, NetConfig, NetMemory,
    NetPartition, NetSampler, Network, OracleStats, RttScope, Sample, Topology, TraceLog,
    MAX_FLOW_TRACKS,
};
use elephant_obs::{
    MetricRow, PartitionRow, ProfileRow, RunReport, Timeline, TraceRecord, PID_FLOWS, PID_PDES,
};

/// Performance facts about one run.
#[derive(Clone, Copy, Debug)]
pub struct RunMeta {
    /// Wall-clock time [`execute`] spent building the world — the flow
    /// list, the sampler, the networks and their first events — before
    /// the run loop started.
    pub setup: Duration,
    /// Wall-clock time spent in the run loop (world construction
    /// excluded; failed attempts and restores of a supervised run
    /// included).
    pub wall: Duration,
    /// Events the kernel executed on the successful path.
    pub events: u64,
    /// Simulated horizon reached, in seconds.
    pub sim_seconds: f64,
    /// The sequential kernel's FEL high-water marks (zero unless
    /// [`Observe::profile`] was set; under PDES each partition's peak is
    /// in [`elephant_des::PartitionStats::fel_bytes_peak`] instead). A
    /// pipelined hybrid's queue leaves out the deliveries whose verdicts
    /// are still on the worker ([`Serving`]).
    pub fel_peaks: FelPeaks,
    /// Where the verdict time of a hybrid that served its verdicts on a
    /// worker thread went; `None` unless [`Observe::profile`] was set and
    /// the run was pipelined.
    pub verdicts: Option<VerdictClocks>,
}

impl RunMeta {
    /// The paper's Figure-1 y-axis: simulated seconds per wall second.
    pub fn sim_seconds_per_second(&self) -> f64 {
        self.sim_seconds / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Builds the oracle serving the stub fabrics: `Some(p)` asks for PDES
/// partition `p`'s replica (each partition needs its own instance; salt
/// the seed by `p` for sampled drop policies), `None` for the sequential
/// engine's single oracle.
pub type OracleFactory<'a> = &'a mut dyn FnMut(Option<usize>) -> Box<dyn ClusterOracle + Send>;

/// Lowers one ready-built oracle to the [`OracleFactory`] shape, for
/// sequential runs (which build exactly one).
pub fn single_oracle(
    oracle: Box<dyn ClusterOracle + Send>,
) -> impl FnMut(Option<usize>) -> Box<dyn ClusterOracle + Send> {
    let mut slot = Some(oracle);
    move |_| slot.take().expect("a sequential run builds one oracle")
}

/// Which part of the network runs at packet fidelity.
pub enum Fidelity<'a> {
    /// Every cluster is simulated. `capture` harvests boundary training
    /// records around one cluster.
    Full {
        /// The cluster to capture around, if any.
        capture: Option<u16>,
    },
    /// `full_cluster` plus the core layer at packet fidelity, every other
    /// cluster's fabric served by an oracle. RTT statistics are drawn
    /// from `full_cluster` only (§3: "a portion of the network can be
    /// left un-approximated so that we can continue to draw full-fidelity
    /// statistics"). The flow list should already be elided to traffic
    /// touching `full_cluster` (`elephant_trace::filter_touching_cluster`);
    /// the engine tolerates other traffic but the paper's speedups assume
    /// the elision.
    Hybrid {
        /// The cluster kept at packet fidelity.
        full_cluster: u16,
        /// Builds the oracle(s).
        oracles: OracleFactory<'a>,
    },
}

/// Which engine executes the run.
#[derive(Debug)]
pub enum Exec {
    /// The sequential kernel.
    Sequential,
    /// Conservative PDES: full-fidelity runs are rack-partitioned into
    /// `partitions` logical processes; hybrid runs are partitioned by
    /// cluster (the full cluster plus core is one process, every stub
    /// cluster with its oracle replica another — §6.2's observation that
    /// approximation removes the fabric interdependence that made PDES
    /// unprofitable) and ignore `partitions`. RTT statistics are not
    /// collected under PDES.
    Pdes(PdesExec),
}

/// The PDES engine's settings.
#[derive(Debug)]
pub struct PdesExec {
    /// Rack partitions (full fidelity only).
    pub partitions: usize,
    /// Emulated machines the partitions are dealt over round-robin.
    pub machines: usize,
    /// MPI-style envelope bytes per cross-machine message.
    pub envelope_bytes: usize,
    /// Epoch planner ([`EpochMode::Adaptive`] unless A/B-ing against
    /// fixed-increment stepping).
    pub mode: EpochMode,
    /// Exchange-layer fault plan for resilience drills.
    pub faults: Option<FaultPlan>,
}

/// Observability hooks. All preserve bit identity: the simulation
/// executes the exact same event sequence with or without them.
#[derive(Default)]
pub struct Observe {
    /// Event trace (first-N or strided) installed on the network.
    /// Sequential runs only.
    pub trace: Option<TraceLog>,
    /// The sampling period. The run is driven in period-long chunks and
    /// its networks sampled between them (across all partitions under
    /// PDES), at every multiple of the period before the horizon and once
    /// at the horizon, into [`Outcome::samples`]. The samples are part of
    /// the run: a supervised run's checkpoints rewind them with its world,
    /// so it samples exactly the ticks an unsupervised run does.
    pub sample_every: Option<SimDuration>,
    /// The timeline switch: PDES partitions record their per-epoch
    /// wall-clock slices into the kernel report, for
    /// [`Outcome::timeline`]. The rest of a timeline is read from the
    /// finished run either way.
    pub timeline: bool,
    /// The profile switch: the sequential kernel samples its FEL peaks
    /// ([`RunMeta::fel_peaks`]) and a learned oracle times its inferences
    /// (`OracleStats::infer_seconds`, through
    /// [`elephant_net::OracleCtx::profile`]). Both cost something per
    /// event or per verdict, so an unprofiled run skips them.
    pub profile: bool,
}

impl Observe {
    /// No trace, no timeline, no profile, and samples every
    /// `sample_every`, if set.
    pub fn sampled(sample_every: Option<SimDuration>) -> Self {
        Observe {
            sample_every,
            ..Observe::default()
        }
    }
}

/// One run, fully described.
pub struct RunPlan<'a> {
    /// Topology.
    pub params: ClosParams,
    /// Network configuration. Fidelity and execution override
    /// `capture_cluster` and `rtt_scope`, and [`Observe::profile`]
    /// overrides `profile`; everything else (notably `tcp`) reaches every
    /// engine unchanged.
    pub cfg: NetConfig,
    /// Flows to schedule.
    pub flows: &'a [FlowSpec],
    /// Simulated horizon.
    pub horizon: SimTime,
    /// What runs at packet level.
    pub fidelity: Fidelity<'a>,
    /// Which engine runs it.
    pub exec: Exec,
    /// Checkpoint + retry-ladder supervision, if any.
    pub supervise: Option<&'a RecoveryPolicy>,
    /// Trace, sampling, timeline and profile.
    pub observe: Observe,
    /// Where a sequential hybrid's verdicts are served. Every choice runs
    /// the same simulation.
    pub serving: Serving,
}

impl<'a> RunPlan<'a> {
    /// A sequential, unsupervised, unobserved run; set the other fields
    /// to move along the matrix.
    pub fn new(
        params: ClosParams,
        cfg: NetConfig,
        flows: &'a [FlowSpec],
        horizon: SimTime,
        fidelity: Fidelity<'a>,
    ) -> Self {
        RunPlan {
            params,
            cfg,
            flows,
            horizon,
            fidelity,
            exec: Exec::Sequential,
            supervise: None,
            observe: Observe::default(),
            serving: Serving::Auto,
        }
    }

    /// The topology and effective network config — the one place
    /// fidelity shapes the world, shared by every engine.
    fn world(&self) -> (Arc<Topology>, NetConfig) {
        let mut cfg = self.cfg;
        cfg.profile = self.observe.profile;
        let topo = match self.fidelity {
            Fidelity::Full { capture } => {
                cfg.capture_cluster = capture;
                Topology::clos(self.params)
            }
            Fidelity::Hybrid { full_cluster, .. } => {
                assert!(
                    self.params.clusters >= 2,
                    "hybrid simulation needs clusters to approximate"
                );
                let stubs: Vec<u16> = (0..self.params.clusters)
                    .filter(|&c| c != full_cluster)
                    .collect();
                cfg.capture_cluster = None;
                cfg.rtt_scope = RttScope::Cluster(full_cluster);
                Topology::clos_with_stubs(self.params, &stubs)
            }
        };
        (Arc::new(topo), cfg)
    }

    /// Installs the oracle for `partition` (`None` = sequential) on a
    /// hybrid run's network.
    fn install_oracle(&mut self, net: &mut Network, partition: Option<usize>) {
        if let Fidelity::Hybrid { oracles, .. } = &mut self.fidelity {
            net.set_oracle(oracles(partition));
        }
    }
}

/// A finished run.
pub struct Outcome {
    /// Final network state: one per partition under PDES, a single entry
    /// after sequential completion (including a supervised PDES run that
    /// degraded to the sequential rung).
    pub nets: Vec<Network>,
    /// Wall time, events, simulated seconds.
    pub meta: RunMeta,
    /// Kernel statistics, merged across sampling and checkpoint chunks;
    /// `None` when the run finished on the sequential engine.
    pub report: Option<PdesReport>,
    /// What the supervisor did; `None` for unsupervised runs.
    pub recovery: Option<RecoveryLog>,
    /// The samples, in time order; empty unless [`Observe::sample_every`]
    /// was set.
    pub samples: Vec<Sample>,
}

impl Outcome {
    /// Flows completed across every partition.
    pub fn flows_completed(&self) -> u64 {
        self.nets.iter().map(|n| n.stats.flows_completed).sum()
    }

    /// Oracle deliveries across every partition (0 for full-fidelity runs).
    pub fn oracle_deliveries(&self) -> u64 {
        self.nets.iter().map(|n| n.stats.oracle_deliveries).sum()
    }

    /// The network and facts of a run that finished sequentially.
    pub fn into_single(mut self) -> (Network, RunMeta) {
        assert_eq!(self.nets.len(), 1, "not a sequential outcome");
        (self.nets.remove(0), self.meta)
    }

    /// The PDES view of a run that finished under PDES.
    pub fn into_pdes_run(self) -> PdesRun {
        PdesRun {
            report: self.report.expect("not a PDES outcome"),
            wall: self.meta.wall,
            nets: self.nets,
        }
    }

    /// The run's Chrome-trace timeline: each PDES partition's epoch
    /// slices from the kernel report (recorded under
    /// [`Observe::timeline`]), the samples' counter tracks, flow spans and
    /// drop/oracle instants from the networks' trace logs, and the guard's
    /// `trips` as `guard_trip` instants.
    pub fn timeline(&self, trips: &[(SimTime, GuardViolation)]) -> Timeline {
        let mut tl = Timeline::default();
        if let Some(report) = &self.report {
            tl.name_process(PID_PDES, "pdes partitions (wall clock)");
            for p in &report.partitions {
                let name = format!("partition {} ({} events)", p.partition, p.events);
                tl.name_track(PID_PDES, p.partition as u64, name);
                tl.records.extend_from_slice(&p.slices);
                tl.dropped += p.slices_dropped;
            }
        }
        export_sample_counters(&self.samples, &mut tl);
        let nets: Vec<&Network> = self.nets.iter().collect();
        export_flow_timeline(&nets, MAX_FLOW_TRACKS, &mut tl);
        tl.records.extend(trips.iter().map(|(t, v)| {
            TraceRecord::instant(PID_FLOWS, 0, "guard_trip", t.as_nanos() as f64 / 1e3)
                .category("guard")
                .arg("kind", format!("{v:?}"))
        }));
        tl
    }
}

/// Converts a PDES report's per-partition breakdown into ledger rows.
pub fn partition_rows(report: &PdesReport) -> Vec<PartitionRow> {
    let row = |p: &elephant_des::PartitionStats| PartitionRow {
        partition: p.partition,
        events: p.events,
        work_seconds: p.work_seconds,
        barrier_wait_seconds: p.barrier_wait_seconds,
        barrier_wait_share: 0.0,
        marshal_seconds: p.marshal_seconds,
        remote_events_sent: p.remote_events_sent,
        remote_bytes_sent: p.remote_bytes_sent,
    };
    report.partitions.iter().map(|p| row(p).finish()).collect()
}

/// The counters of a hybrid run's oracle stack that live behind the
/// handles its builder kept (`GuardStatsHandle`, `CacheStatsHandle`)
/// rather than in the run's networks. Default: none, as in a
/// full-fidelity run.
///
/// These are the one part of a run's numbers a checkpoint restore does not
/// rewind: a restored network carries a clone of its oracle stack, and the
/// clone counts onto the same handle. A supervised run that restored would
/// report abandoned attempts here, so the CLI passes none for supervised
/// runs, and `elephant compare` does not gate the rows made from them.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleCounters {
    /// The guard's counters, when the oracle ran guarded.
    pub guard: Option<GuardSnapshot>,
    /// The verdict caches' counters, summed, when there were caches.
    pub cache: Option<CacheTotals>,
}

const TIERS: [&str; 4] = ["host", "tor", "agg", "core"];

/// The counter rows of [`Outcome::metric_rows`] that are a function of the
/// simulated outcome alone: any two runs that end in one fingerprint agree
/// on them, whichever engine, partitioning, epoch planner or recovery path
/// got them there, so `elephant compare` holds them to exact equality.
/// Every other row also says how the run was executed. That includes
/// `net/port/enqueued` — whether a packet waits or goes straight onto an
/// idle wire turns on the order of same-instant events, which partitioning
/// changes without changing when anything is sent — and the guard and
/// cache rows, whose counters sit behind handles that every clone of the
/// oracle stack shares (see [`OracleCounters`]).
pub const OUTCOME_COUNTERS: [&str; 9] = [
    "des/kernel/events_executed",
    "net/port/drops",
    "net/port/ecn_marks",
    "net/tcp/rto_fired",
    "net/tcp/fast_retransmits",
    "net/tcp/retransmitted_segments",
    "hybrid/oracle/elided_packets",
    "hybrid/oracle/drops",
    "hybrid/macro/occupancy",
];

impl Outcome {
    /// The ledger's per-partition rows: the kernel report's when the run
    /// finished under PDES, one zero-wait row covering the whole run
    /// otherwise (so sequential and PDES artifacts share a shape).
    pub fn partition_rows(&self) -> Vec<PartitionRow> {
        match &self.report {
            Some(report) => partition_rows(report),
            None => vec![PartitionRow {
                events: self.meta.events,
                work_seconds: self.meta.wall.as_secs_f64(),
                ..Default::default()
            }
            .finish()],
        }
    }

    /// The ledger's metric rows, sorted by (name, label) — the one place a
    /// run's statistics become [`MetricRow`]s. Everything is read from the
    /// finished run: the nets' port, TCP and oracle counters, their
    /// connection tables' peaks and their memory (summed over partitions),
    /// the kernel report, the recovery log — and `oracle`, the one part of
    /// a run's statistics the nets do not hold.
    ///
    /// The `mem/*` gauges are the simulated state's heap at its high-water,
    /// by part: `mem/packet_store/slots` (the most packets queued at once),
    /// `mem/bytes[part]` for each [`NetMemory::parts`] label and the
    /// streamed flow list, and `mem/bytes_per_host`, their sum with the FEL
    /// peak (`des/kernel/fel_bytes_peak`, or the partitions') over the
    /// topology's hosts.
    pub fn metric_rows(&self, oracle: &OracleCounters) -> Vec<MetricRow> {
        let (counter, gauge) = (MetricRow::counter, MetricRow::gauge);
        let mut rows = Vec::new();
        if self.report.is_none() {
            let peaks = self.meta.fel_peaks;
            rows.extend([
                counter("des/kernel/events_executed", "", self.meta.events),
                gauge("des/kernel/heap_depth_peak", "", peaks.depth as f64),
                gauge("des/kernel/fel_bytes_peak", "", peaks.bytes as f64),
            ]);
        }

        // Per tier: [enqueued, drops, ecn_marks].
        let mut ports = [[0u64; 3]; 4];
        let mut tcp = ConnStats::default();
        let mut conns_peak = 0;
        let mut verdicts = OracleStats::default();
        let mut store_slots = 0;
        let mut mem = NetMemory::default().parts();
        for net in &self.nets {
            for (node, _, c) in net.port_counters() {
                if let Some(tier) = net.topo().node(node).kind.layer() {
                    ports[tier][0] += c.queued;
                    ports[tier][1] += c.drops;
                    ports[tier][2] += c.ecn_marks;
                }
            }
            // Closed connections are already folded into the stats.
            tcp.timeouts += net.stats.timeouts;
            tcp.fast_retransmits += net.stats.fast_retransmits;
            tcp.retransmissions += net.stats.retransmissions;
            for c in net.open_conn_stats() {
                tcp.timeouts += c.timeouts;
                tcp.fast_retransmits += c.fast_retransmits;
                tcp.retransmissions += c.retransmissions;
            }
            conns_peak += net.conns_peak();
            let m = net.memory();
            store_slots += m.store_slots;
            for ((_, sum), (_, bytes)) in mem.iter_mut().zip(m.parts()) {
                *sum += bytes;
            }
            if let Some(o) = net.oracle_stats() {
                verdicts.classified += o.classified;
                verdicts.drops += o.drops;
                for (sum, n) in verdicts.per_state.iter_mut().zip(o.per_state) {
                    *sum += n;
                }
                verdicts.infer_seconds.merge(&o.infer_seconds);
            }
        }
        for (tier, [enqueued, drops, ecn_marks]) in TIERS.iter().zip(ports) {
            rows.extend([
                counter("net/port/enqueued", tier, enqueued),
                counter("net/port/drops", tier, drops),
                counter("net/port/ecn_marks", tier, ecn_marks),
            ]);
        }
        rows.extend([
            counter("net/tcp/rto_fired", "", tcp.timeouts),
            counter("net/tcp/fast_retransmits", "", tcp.fast_retransmits),
            counter("net/tcp/retransmitted_segments", "", tcp.retransmissions),
            gauge("net/tcp/conns_peak", "", conns_peak as f64),
            counter("hybrid/oracle/elided_packets", "", verdicts.classified),
            counter("hybrid/oracle/drops", "", verdicts.drops),
            MetricRow::histogram("hybrid/oracle/infer_seconds", "", &verdicts.infer_seconds),
        ]);
        for (state, n) in MacroState::ALL.iter().zip(verdicts.per_state) {
            rows.push(counter("hybrid/macro/occupancy", &state.label(), n));
        }
        if let Some(g) = &oracle.guard {
            rows.extend([
                counter("hybrid/guard/verdicts", "", g.verdicts),
                counter("hybrid/guard/trips", "non_finite", g.non_finite),
                counter("hybrid/guard/trips", "negative", g.negative),
                counter("hybrid/guard/trips", "ceiling", g.ceiling),
                counter("hybrid/guard/trips", "drop_drift", g.drop_drift),
                counter("hybrid/guard/fallback_verdicts", "", g.fallback_verdicts),
                gauge("hybrid/guard/fallback_active", "", g.fallback_active.into()),
            ]);
        }
        if let Some(c) = oracle.cache.map(|c| c.total) {
            rows.extend([
                counter("hybrid/cache/hits", "", c.hits),
                counter("hybrid/cache/misses", "", c.misses),
                counter("hybrid/cache/evictions", "", c.evictions),
                counter("hybrid/cache/invalidations", "", c.invalidations),
            ]);
        }

        if let Some(r) = &self.report {
            let f = r.faults;
            rows.extend([
                counter("pdes/epoch/planned", "", r.epochs),
                counter("pdes/epoch/jumped", "", r.epochs_jumped),
                counter("pdes/remote/messages", "", r.remote_messages),
                counter("pdes/marshal/messages", "", r.marshalled_messages),
                counter("pdes/marshal/bytes", "", r.bytes_marshalled),
                counter(
                    "fault/zero_injected",
                    "",
                    (f.armed && f.total() == 0).into(),
                ),
            ]);
            let kinds = ["dropped", "duplicated", "corrupted"];
            for (kind, n) in kinds.iter().zip([f.dropped, f.duplicated, f.corrupted]) {
                rows.push(counter(&format!("pdes/fault/{kind}"), "", n));
                rows.push(counter(&format!("fault/{kind}"), "", n));
            }
            for p in &r.partitions {
                let (label, peak) = (p.partition.to_string(), p.fel_bytes_peak as f64);
                let (sent, bytes) = (p.remote_events_sent, p.remote_bytes_sent);
                rows.extend([
                    counter("pdes/partition/events", &label, p.events),
                    counter("pdes/partition/remote_messages", &label, sent),
                    counter("pdes/partition/remote_bytes", &label, bytes),
                    gauge("pdes/partition/fel_bytes_peak", &label, peak),
                ]);
            }
        }
        if let Some(net) = self.nets.first() {
            let fel = match &self.report {
                Some(r) => r.partitions.iter().map(|p| p.fel_bytes_peak).sum(),
                None => self.meta.fel_peaks.bytes,
            };
            // Every partition streams the one shared list.
            let flows = net.streamed_flows().len() * std::mem::size_of::<FlowSpec>();
            let total = mem.iter().map(|(_, b)| b).sum::<usize>() + flows + fel as usize;
            let per_host = total as f64 / f64::from(net.topo().params().total_hosts());
            rows.push(gauge("mem/packet_store/slots", "", store_slots as f64));
            rows.push(gauge("mem/bytes", "flow_list", flows as f64));
            for (part, bytes) in mem {
                rows.push(gauge("mem/bytes", part, bytes as f64));
            }
            rows.push(gauge("mem/bytes_per_host", "", per_host.round()));
        }
        if let Some(log) = &self.recovery {
            rows.push(counter("recovery/checkpoints", "", log.checkpoints_taken));
            let mut transitions = BTreeMap::<(&str, String), u64>::new();
            for t in &log.transitions {
                let key = match t {
                    RecoveryEvent::Restored { cause, .. } => {
                        ("recovery/restores", cause.to_string())
                    }
                    RecoveryEvent::Degraded { from, to, .. } => {
                        let label = format!("{}->{}", from.label(), to.label());
                        ("recovery/degradations", label)
                    }
                };
                *transitions.entry(key).or_default() += 1;
            }
            for ((name, label), n) in &transitions {
                rows.push(counter(name, label, *n));
            }
        }

        // A zero says nothing a missing row does not.
        rows.retain(|m| m.value != 0.0);
        rows.sort_by(|a, b| (&a.name, &a.label).cmp(&(&b.name, &b.label)));
        rows
    }

    /// Fills `report`'s throughput figures, partition rows, metric rows
    /// and phase clocks (`setup`, `run`) from this run (see
    /// [`Outcome::metric_rows`] for `oracle`), the process's peak resident
    /// set as `mem/peak_rss_bytes` (where `/proc/self/status` says it; it
    /// is process history, so it stays out of `metric_rows` and the sweep
    /// rows made from them), and for a profiled run that
    /// served its verdicts on a worker, the [`VerdictClocks`] as the
    /// scalars `verdict_{wait,stolen,busy}_seconds`.
    pub fn describe(&self, report: &mut RunReport, oracle: &OracleCounters) {
        let m = &self.meta;
        report.set_run(m.wall.as_secs_f64(), m.events, m.sim_seconds);
        report.partitions = self.partition_rows();
        report.metrics = self.metric_rows(oracle);
        if let Some(rss) = peak_rss_bytes() {
            let row = MetricRow::gauge("mem/peak_rss_bytes", "", rss as f64);
            let rows = &mut report.metrics;
            let at = rows.partition_point(|m| (&m.name, &m.label) < (&row.name, &row.label));
            rows.insert(at, row);
        }
        report.profile = vec![
            ProfileRow::once("setup", m.setup.as_secs_f64()),
            ProfileRow::once("run", m.wall.as_secs_f64()),
        ];
        if let Some(v) = m.verdicts {
            report.scalar("verdict_wait_seconds", v.wait.as_secs_f64());
            report.scalar("verdict_stolen_seconds", v.stolen.as_secs_f64());
            report.scalar("verdict_busy_seconds", v.busy.as_secs_f64());
        }
    }
}

/// This process's peak resident set in bytes, from the `VmHWM` line of
/// `/proc/self/status`; `None` where there is no such file.
fn peak_rss_bytes() -> Option<u64> {
    vm_hwm_bytes(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM:   N kB` line of a `/proc/<pid>/status` text, in bytes.
fn vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb = line
        .trim()
        .strip_suffix("kB")?
        .trim_end()
        .parse::<u64>()
        .ok()?;
    kb.checked_mul(1024)
}

/// The post-run summary: the run line, network statistics (per-layer
/// detail for a single network, totals across partitions), the kernel's
/// per-partition wall-time breakdown (the timeline has the per-epoch
/// view), injected faults, and the supervisor's log.
impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated {:.3}s{}{} in {:.2}s wall ({} events",
            self.meta.sim_seconds,
            self.recovery.as_ref().map_or("", |_| " supervised"),
            self.report.as_ref().map_or("", |_| " under PDES"),
            self.meta.wall.as_secs_f64(),
            self.meta.events,
        )?;
        if let Some(r) = &self.report {
            write!(
                f,
                ", {} epochs ({} jumped), {} partitions",
                r.epochs,
                r.epochs_jumped,
                r.partitions.len()
            )?;
        }
        write!(f, ")")?;
        if let [net] = self.nets.as_slice() {
            write!(f, "\n{}", net.stats)?;
        } else {
            let (flows, teleported) = (self.flows_completed(), self.oracle_deliveries());
            write!(f, "\n  flows     : {flows} completed across partitions")?;
            if teleported > 0 {
                write!(f, "\n  oracle    : {teleported} packets teleported")?;
            }
        }
        if let Some(r) = &self.report {
            for p in &r.partitions {
                write!(
                    f,
                    "\n  partition {:>2}: {:>9} events | work {:.3}s | barrier {:.3}s | marshal {:.3}s",
                    p.partition, p.events, p.work_seconds, p.barrier_wait_seconds, p.marshal_seconds
                )?;
            }
            if r.faults.total() > 0 {
                write!(f, "\n  faults    : {}", r.faults)?;
            }
        }
        if let Some(log) = &self.recovery {
            write!(f, "\n  {}", log.summary())?;
        }
        Ok(())
    }
}

/// Outcome of a run that finished under PDES: the merged kernel report,
/// wall time, and the consumed partition networks.
pub struct PdesRun {
    /// Kernel statistics, merged across sampling chunks if the run was
    /// sampled.
    pub report: PdesReport,
    /// Wall-clock duration of the run (excludes construction).
    pub wall: Duration,
    /// Each partition's network, in partition order.
    pub nets: Vec<Network>,
}

impl PdesRun {
    /// Events executed, summed over partitions and chunks.
    pub fn events(&self) -> u64 {
        self.report.events_executed
    }
}

/// Runs `plan`. An unsupervised PDES engine fault is
/// [`ElephantError::Pdes`]; a supervised run fails only with
/// [`ElephantError::RecoveryExhausted`]; unsupervised sequential runs
/// cannot fail.
pub fn execute(mut plan: RunPlan<'_>) -> Result<Outcome, ElephantError> {
    let started = Instant::now();
    // One flow list per run: the networks stream it, every PDES partition
    // shares it, and the sampler reads the offered load off it.
    let flows = flow_list(plan.flows);
    let every = plan.observe.sample_every;
    let sampler = NetSampler::new(every, plan.horizon, Arc::clone(&flows));
    // A PDES plan is left describing its own terminal rung: the same run
    // on the sequential engine.
    match std::mem::replace(&mut plan.exec, Exec::Sequential) {
        Exec::Sequential => run_sequential(&mut plan, &flows, sampler, started),
        Exec::Pdes(pdes) => run_pdes(&mut plan, pdes, &flows, sampler, started),
    }
}

/// Runs a fully simulated network over `flows` until `horizon`.
///
/// Set `capture_cluster` to harvest training records; set
/// `cfg.rtt_scope` to restrict accuracy measurements (Figure 4 restricts
/// both runs to the observed cluster).
pub fn run_ground_truth(
    params: ClosParams,
    cfg: NetConfig,
    capture_cluster: Option<u16>,
    flows: &[FlowSpec],
    horizon: SimTime,
) -> (Network, RunMeta) {
    let fidelity = Fidelity::Full {
        capture: capture_cluster,
    };
    execute(RunPlan::new(params, cfg, flows, horizon, fidelity))
        .expect("unsupervised sequential runs cannot fail")
        .into_single()
}

/// Runs the hybrid simulation: `full_cluster` plus the core layer at
/// packet fidelity, every other cluster's fabric served by `oracle` (see
/// [`Fidelity::Hybrid`]).
pub fn run_hybrid(
    params: ClosParams,
    full_cluster: u16,
    oracle: Box<dyn ClusterOracle + Send>,
    cfg: NetConfig,
    flows: &[FlowSpec],
    horizon: SimTime,
) -> (Network, RunMeta) {
    let fidelity = Fidelity::Hybrid {
        full_cluster,
        oracles: &mut single_oracle(oracle),
    };
    execute(RunPlan::new(params, cfg, flows, horizon, fidelity))
        .expect("unsupervised sequential runs cannot fail")
        .into_single()
}

/// Extracts the boundary capture from a finished network, or a typed
/// [`ElephantError::CaptureMissing`] if the run was not configured to
/// record one — the fallible replacement for `into_capture().expect(…)`.
pub fn capture_records(net: Network) -> Result<Vec<elephant_net::BoundaryRecord>, ElephantError> {
    net.into_capture()
        .map(|c| c.into_records())
        .ok_or(ElephantError::CaptureMissing)
}

/// Advances a sequential simulation to `until`, sampling on the way, with
/// its verdicts served by `verdicts`. Returns whether the event list ran
/// dry.
pub(crate) fn drive(
    sim: &mut Simulator<Network>,
    until: SimTime,
    sampler: &mut NetSampler,
    verdicts: &mut VerdictServer,
) -> bool {
    let advance = |sim: &mut Simulator<Network>, t| Ok::<_, Infallible>(verdicts.run_until(sim, t));
    let Ok(dry) = run_sampled(sim, until, sampler, advance, |sim| vec![sim.world()]);
    dry
}

/// Builds and drives a run on the sequential engine; `started` is when
/// [`execute`] began building it.
fn run_sequential(
    plan: &mut RunPlan<'_>,
    flows: &Arc<[FlowSpec]>,
    mut sampler: NetSampler,
    started: Instant,
) -> Result<Outcome, ElephantError> {
    let (topo, cfg) = plan.world();
    let mut net = Network::new(topo, cfg);
    plan.install_oracle(&mut net, None);
    if let Some(log) = plan.observe.trace.take() {
        net.install_trace(log);
    }
    let mut sim = Simulator::new(net);
    sim.set_profile(plan.observe.profile);
    let (net, sched) = sim.parts_mut();
    net.stream_flows(Arc::clone(flows), sched);

    let start = Instant::now();
    let mut verdicts = VerdictServer::new(plan.serving, plan.observe.profile);
    let recovery = match plan.supervise {
        None => {
            drive(&mut sim, plan.horizon, &mut sampler, &mut verdicts);
            None
        }
        Some(policy) => Some(supervise_simulator(
            &mut sim,
            plan.horizon,
            policy,
            &mut sampler,
            &mut verdicts,
        )?),
    };
    let meta = RunMeta {
        setup: start - started,
        wall: start.elapsed(),
        events: sim.scheduler().executed_total(),
        sim_seconds: plan.horizon.as_secs_f64(),
        fel_peaks: sim.fel_peaks(),
        verdicts: verdicts.clocks(),
    };
    Ok(Outcome {
        nets: vec![sim.into_world()],
        meta,
        report: None,
        recovery,
        samples: sampler.into_samples(),
    })
}

/// Drives a [`PdesRunner`] to `until`, pausing at every sampler tick to
/// sample all partitions. Chunked driving is exact: each `run_until`
/// chunk resumes the per-partition schedulers where the previous one
/// parked them, and the per-chunk reports are disjoint, so the merged
/// report equals a single-call run's.
pub(crate) fn drive_pdes(
    runner: &mut PdesRunner<NetPartition>,
    until: SimTime,
    sampler: &mut NetSampler,
) -> Result<(PdesReport, Duration), PdesError> {
    let t0 = Instant::now();
    let mut total: Option<PdesReport> = None;
    let advance = |runner: &mut PdesRunner<NetPartition>, t| {
        let chunk = runner.run_until(t)?;
        let dry = chunk.partitions.iter().all(|p| p.next_time.is_none());
        match &mut total {
            None => total = Some(chunk),
            Some(report) => report.merge(chunk),
        }
        Ok(dry)
    };
    run_sampled(runner, until, sampler, advance, |runner| {
        runner.partitions().iter().map(|p| &p.world().net).collect()
    })?;
    let report = total.expect("a drive runs at least one chunk");
    Ok((report, t0.elapsed()))
}

/// Builds and drives a run on the PDES engine (see [`run_sequential`]).
fn run_pdes(
    plan: &mut RunPlan<'_>,
    exec: PdesExec,
    flows: &Arc<[FlowSpec]>,
    mut sampler: NetSampler,
    started: Instant,
) -> Result<Outcome, ElephantError> {
    let mode = exec.mode;
    let (parts, lookahead) = build_partitions(plan, exec.partitions, flows);
    let mut pdes_cfg =
        PdesConfig::round_robin(parts.len(), exec.machines, lookahead, exec.envelope_bytes)
            .with_epoch_mode(mode);
    if let Some(faults) = exec.faults {
        pdes_cfg = pdes_cfg.with_faults(faults);
    }
    pdes_cfg.timeline = plan.observe.timeline;
    let mut runner = PdesRunner::new(parts, pdes_cfg);

    let setup = started.elapsed();
    let (report, wall, recovery) = match plan.supervise {
        None => {
            let (report, wall) =
                drive_pdes(&mut runner, plan.horizon, &mut sampler).map_err(ElephantError::Pdes)?;
            (report, wall, None)
        }
        Some(policy) => {
            let t0 = Instant::now();
            let (report, mut log) =
                supervise_pdes(&mut runner, plan.horizon, policy, mode, &mut sampler);
            let Some(report) = report else {
                // Terminal rung: restart from time zero on the sequential
                // engine, built from the same plan the partitions were
                // (fingerprint-preserving for fault-free dynamics), with
                // the sampler rewound to time zero too.
                drop(runner);
                sampler.rewind(0);
                let mut out = run_sequential(plan, flows, sampler, t0)?;
                log.absorb(out.recovery.take().expect("the plan is supervised"));
                out.recovery = Some(log);
                out.meta.setup = setup;
                out.meta.wall = t0.elapsed();
                return Ok(out);
            };
            (report, t0.elapsed(), Some(log))
        }
    };
    let meta = RunMeta {
        setup,
        wall,
        events: report.events_executed,
        sim_seconds: plan.horizon.as_secs_f64(),
        fel_peaks: FelPeaks::default(),
        verdicts: None,
    };
    let nets = runner
        .into_partitions()
        .into_iter()
        .map(|p| p.into_world().net)
        .collect();
    Ok(Outcome {
        nets,
        meta,
        report: Some(report),
        recovery,
        samples: sampler.into_samples(),
    })
}

/// Builds the logical processes of a PDES run — rack partitions at full
/// fidelity, one per cluster (each with its own oracle replica) for a
/// hybrid — and has each partition stream the flows it owns from `flows`,
/// the run's one list. Returns the partitions plus the min-cut lookahead.
fn build_partitions(
    plan: &mut RunPlan<'_>,
    rack_partitions: usize,
    flows: &Arc<[FlowSpec]>,
) -> (Vec<PartitionSim<NetPartition>>, SimDuration) {
    let (topo, mut cfg) = plan.world();
    cfg.rtt_scope = RttScope::None;
    let (map, partitions) = match plan.fidelity {
        Fidelity::Full { .. } => (topo.partition_by_rack(rack_partitions), rack_partitions),
        Fidelity::Hybrid { .. } => topo.partition_by_cluster(),
    };
    let map = Arc::new(map);
    let lookahead = topo
        .min_cut_latency(&map)
        .unwrap_or(SimDuration::from_micros(1));

    let mut parts: Vec<PartitionSim<NetPartition>> = (0..partitions)
        .map(|p| {
            let mut net = Network::new(Arc::clone(&topo), cfg);
            net.set_partition(p, Arc::clone(&map));
            plan.install_oracle(&mut net, Some(p));
            PartitionSim::new(NetPartition { net })
        })
        .collect();
    // Every partition reads one list and opens the flows its hosts source,
    // ranked by their index in the whole list, so tie order does not
    // depend on the cut.
    for part in &mut parts {
        let (world, sched) = part.parts_mut();
        world.net.stream_flows(Arc::clone(flows), sched);
    }
    (parts, lookahead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learned::{DropPolicy, LearnedOracle};
    use crate::train::{train_cluster_model, TrainingOptions};
    use elephant_net::{FlowId, HostAddr, IdealOracle};
    use elephant_nn::TrainConfig;
    use elephant_trace::{filter_touching_cluster, generate, WorkloadConfig};

    #[test]
    fn vm_hwm_reads_the_kernels_status_line() {
        let status =
            "Name:\telephant\nVmPeak:\t  123456 kB\nVmHWM:\t    9632 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(vm_hwm_bytes(status), Some(9632 * 1024));
        assert_eq!(vm_hwm_bytes("VmHWM: 0 kB"), Some(0));
        for bad in [
            "",
            "VmRSS:\t 9000 kB\n",
            "VmHWM:\t 12 MB\n",
            "VmHWM:\t kB\n",
            "VmHWM: -3 kB",
        ] {
            assert_eq!(vm_hwm_bytes(bad), None, "{bad:?}");
        }
        assert_eq!(
            vm_hwm_bytes("VmHWM: 18014398509481984 kB"),
            None,
            "overflows u64 bytes"
        );
    }

    /// The complete §3 workflow, end to end, at miniature scale: simulate
    /// two clusters fully, train on the capture, deploy the learned model
    /// in a four-cluster hybrid, and check the books balance.
    #[test]
    fn full_workflow_smoke() {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(30);
        let wl = WorkloadConfig::paper_default(horizon, 7);
        let flows = generate(&params, &wl);
        assert!(!flows.is_empty());

        // Step 1: ground truth with capture around cluster 1.
        let (net, meta) = run_ground_truth(params, NetConfig::default(), Some(1), &flows, horizon);
        assert!(meta.events > 1000, "events {}", meta.events);
        let records = capture_records(net).expect("capture enabled");
        assert!(records.len() > 100, "records {}", records.len());

        // Step 2: train (tiny settings; this is a smoke test).
        let opts = TrainingOptions {
            hidden: 8,
            layers: 1,
            epochs: 2,
            window: 16,
            train: TrainConfig {
                lr: 0.1,
                momentum: 0.9,
                batch: 8,
                clip: 5.0,
            },
            ..Default::default()
        };
        let (model, report) = train_cluster_model(&records, &params, &opts);
        assert!(report.up.train_samples + report.down.train_samples > 0);

        // Step 3: hybrid at 4 clusters with elided traffic.
        let big = ClosParams::paper_cluster(4);
        let big_flows = filter_touching_cluster(&generate(&big, &wl), 0);
        assert!(!big_flows.is_empty());
        let oracle = LearnedOracle::new(model, big, DropPolicy::Sample, 3);
        let (hnet, hmeta) = run_hybrid(
            big,
            0,
            Box::new(oracle),
            NetConfig::default(),
            &big_flows,
            horizon,
        );
        assert!(hnet.stats.oracle_deliveries > 0, "oracle was exercised");
        assert!(hnet.stats.flows_completed > 0, "hybrid completes flows");
        assert!(hmeta.events > 0);
    }

    #[test]
    fn hybrid_executes_fewer_events_than_full() {
        let params = ClosParams::paper_cluster(4);
        let horizon = SimTime::from_millis(20);
        let wl = WorkloadConfig::paper_default(horizon, 11);
        let flows = generate(&params, &wl);

        let (_, full_meta) = run_ground_truth(params, NetConfig::default(), None, &flows, horizon);
        let elided = filter_touching_cluster(&flows, 0);
        let (_, hybrid_meta) = run_hybrid(
            params,
            0,
            Box::new(IdealOracle),
            NetConfig::default(),
            &elided,
            horizon,
        );
        assert!(
            hybrid_meta.events * 2 < full_meta.events,
            "hybrid {} vs full {} events",
            hybrid_meta.events,
            full_meta.events
        );
    }

    /// The lockstep reference and the threaded driver run the same epochs:
    /// on a 4-partition / 2-machine full-fidelity run and on a per-cluster
    /// hybrid, every partition ends with the same network statistics (all
    /// that `run_fingerprint` hashes, and more) and the same event count.
    #[test]
    fn threaded_and_lockstep_drivers_agree() {
        let horizon = SimTime::from_millis(4);
        let agree = |mut plan: RunPlan<'_>, partitions: usize| {
            let [threaded, lockstep] = [false, true].map(|lockstep| {
                let flows = flow_list(plan.flows);
                let (parts, lookahead) = build_partitions(&mut plan, partitions, &flows);
                let config = PdesConfig::round_robin(parts.len(), 2, lookahead, 64);
                let mut runner = PdesRunner::new(parts, config);
                let report = match lockstep {
                    false => runner.run_until(horizon),
                    true => runner.run_until_lockstep(horizon),
                };
                let events = report.expect("healthy run").partitions.into_iter();
                let nets = runner.into_partitions().into_iter();
                let stats = nets.map(|p| format!("{:?}", p.into_world().net.stats));
                events.map(|p| p.events).zip(stats).collect::<Vec<_>>()
            });
            assert!(threaded.iter().all(|p| p.0 > 0), "every partition works");
            assert_eq!(threaded, lockstep, "threaded and lockstep runs differ");
        };
        let (full, hybrid) = (ClosParams::paper_cluster(2), ClosParams::paper_cluster(4));
        let flows = generate(&full, &WorkloadConfig::paper_default(horizon, 5));
        let fidelity = Fidelity::Full { capture: None };
        agree(
            RunPlan::new(full, NetConfig::default(), &flows, horizon, fidelity),
            4,
        );
        let flows = generate(&hybrid, &WorkloadConfig::paper_default(horizon, 5));
        let flows = filter_touching_cluster(&flows, 0);
        let mut oracles = |_: Option<usize>| Box::new(IdealOracle) as Box<dyn ClusterOracle + Send>;
        let fidelity = Fidelity::Hybrid {
            full_cluster: 0,
            oracles: &mut oracles,
        };
        agree(
            RunPlan::new(hybrid, NetConfig::default(), &flows, horizon, fidelity),
            0,
        );
    }

    /// Under PDES every partition streams the one flow list `execute`
    /// built, and each starts exactly the flows its hosts source.
    #[test]
    fn partitions_share_one_flow_list() {
        let horizon = SimTime::from_millis(3);
        let params = ClosParams::paper_cluster(2);
        let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 3));
        let topo = Topology::clos(params);
        for partitions in [2, 4] {
            let exec = Exec::Pdes(PdesExec {
                partitions,
                machines: 1,
                envelope_bytes: 64,
                mode: EpochMode::Adaptive,
                faults: None,
            });
            let fidelity = Fidelity::Full { capture: None };
            let plan = RunPlan {
                exec,
                ..RunPlan::new(params, NetConfig::default(), &flows, horizon, fidelity)
            };
            let nets = execute(plan).expect("healthy run").nets;
            assert_eq!(nets.len(), partitions);
            let list = nets[0].streamed_flows();
            assert_eq!(**list, *flows, "the list is the plan's flows");
            let map = topo.partition_by_rack(partitions);
            for (p, net) in nets.iter().enumerate() {
                assert!(Arc::ptr_eq(net.streamed_flows(), list), "one shared list");
                let own = flows
                    .iter()
                    .filter(|f| map[topo.host_node(f.src).idx()] as usize == p);
                assert_eq!(net.stats.flows_started, own.count() as u64, "partition {p}");
            }
        }
    }

    /// Both engines end a sampled run the same way: a few flows that all
    /// finish long before the horizon (off the sampling grid) are sampled
    /// at the same ticks sequentially and under PDES, the last at the
    /// horizon.
    #[test]
    fn both_engines_end_a_sampled_run_at_the_horizon() {
        let params = ClosParams::paper_cluster(2);
        let flows: Vec<FlowSpec> = (0..4)
            .map(|i| FlowSpec {
                id: FlowId(i + 1),
                src: HostAddr::new(0, 0, i as u16),
                dst: HostAddr::new(1, 0, i as u16),
                bytes: 10_000,
                start: SimTime::from_micros(i * 20),
            })
            .collect();
        let horizon = SimTime::from_micros(2_450);
        let run = |exec| {
            let fidelity = Fidelity::Full { capture: None };
            let mut plan = RunPlan::new(params, NetConfig::default(), &flows, horizon, fidelity);
            plan.exec = exec;
            plan.observe = Observe::sampled(Some(SimDuration::from_micros(200)));
            execute(plan).expect("healthy run")
        };
        let seq = run(Exec::Sequential);
        let pdes = run(Exec::Pdes(PdesExec {
            partitions: 2,
            machines: 1,
            envelope_bytes: 64,
            mode: EpochMode::Adaptive,
            faults: None,
        }));
        let at = |o: &Outcome| o.samples.iter().map(|s| s.at).collect::<Vec<_>>();
        assert_eq!(at(&seq), at(&pdes));
        assert_eq!(at(&seq).last(), Some(&horizon));
        assert!(seq.samples.len() < 13, "the event list ran dry early");
        let done = |o: &Outcome| {
            o.samples
                .last()
                .map(|s| (s.flows_completed, s.delivered_cum))
        };
        assert_eq!(done(&seq), Some((4, 40_000)));
        assert_eq!(done(&seq), done(&pdes));
    }

    #[test]
    fn meta_math() {
        let m = RunMeta {
            setup: Duration::ZERO,
            wall: Duration::from_millis(500),
            events: 10,
            sim_seconds: 2.0,
            fel_peaks: FelPeaks::default(),
            verdicts: None,
        };
        assert!((m.sim_seconds_per_second() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_carries_partition_slices_and_their_dropped_count() {
        let slice = TraceRecord::complete(PID_PDES, 1, "work", 0.0, 1.0);
        let partition = |partition, slices, slices_dropped| elephant_des::PartitionStats {
            partition,
            slices,
            slices_dropped,
            ..Default::default()
        };
        let outcome = Outcome {
            nets: Vec::new(),
            meta: RunMeta {
                setup: Duration::ZERO,
                wall: Duration::ZERO,
                events: 0,
                sim_seconds: 0.0,
                fel_peaks: FelPeaks::default(),
                verdicts: None,
            },
            report: Some(PdesReport {
                partitions: vec![partition(0, Vec::new(), 13), partition(1, vec![slice], 4)],
                ..PdesReport::default()
            }),
            recovery: None,
            samples: Vec::new(),
        };
        let tl = outcome.timeline(&[]);
        assert_eq!(tl.dropped, 17);
        let kept = tl
            .records
            .iter()
            .filter(|r| r.pid == PID_PDES && r.name == "work");
        assert_eq!(kept.count(), 1);
    }
}
