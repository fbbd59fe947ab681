//! Typed scenario model: what a validated scenario file means.
//!
//! A [`Scenario`] is the in-memory form of one `scenarios/*.toml` file:
//! topology shape + link physics + PDES partitioning, a traffic matrix of
//! [`TrafficGroup`]s (Poisson mixes, incasts, collective phases), an
//! optional regime schedule, an optional PDES fault plan, and guard /
//! oracle-cache / output knobs. Everything here is plain data — the
//! lowering to engine types lives in [`crate::compile`].
//!
//! The emitter ([`Scenario::to_toml_string`]) writes the same schema the
//! decoder reads, so scenarios round-trip: programmatically built ones can
//! be committed, and committed ones can be re-emitted canonically.

use elephant_core::TrainingOptions;
use elephant_des::SimDuration;
use elephant_net::{ClosParams, HostAddr, LinkSpec};

/// The schema version this build reads and writes (`schema = 1`).
pub const SCHEMA_VERSION: i64 = 1;

/// A validated declarative scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Short machine-friendly name (shown by `--list-scenarios`).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Network shape and PDES partitioning.
    pub topology: TopologySpec,
    /// Horizon, default seed, TCP flavor.
    pub run: RunSpec,
    /// The traffic matrix: one or more flow groups.
    pub traffic: Vec<TrafficGroup>,
    /// Load-regime schedule consumed by `profile = "schedule"` groups.
    pub regimes: Vec<RegimeWindow>,
    /// Optional PDES fault plan (ignored by the sequential driver).
    pub faults: Option<FaultSpec>,
    /// Optional oracle guardrail configuration (hybrid runs).
    pub guard: Option<GuardSpec>,
    /// Optional checkpoint/restore + retry-ladder configuration.
    pub recovery: Option<RecoverySpec>,
    /// Optional paired-run divergence bounds (`elephant audit`).
    pub audit: Option<AuditSpec>,
    /// Optional learned-model artifact binding (hybrid runs).
    pub model: Option<ModelSpec>,
    /// Optional capture-and-train settings: a document with `[train]`
    /// captures cluster 1's boundary at full fidelity and trains a model
    /// on it instead of running a simulation.
    pub train: Option<TrainSpec>,
    /// Oracle-cache configuration (hybrid runs).
    pub oracle: OracleSpec,
    /// Sampler / artifact outputs.
    pub outputs: OutputSpec,
    /// `[[sweep]]` axes: a document with any is a grid of runs, one per
    /// cell of the axes' product (see [`crate::decode::sweep_cells`]).
    pub sweep: Vec<SweepAxis>,
}

/// One `[[sweep]]` axis: scenario keys that move together, and the values
/// they take — one cell per value.
#[derive(Clone, Debug)]
pub struct SweepAxis {
    /// Dotted scenario key paths (`topology.clusters`), as a flag's key.
    pub keys: Vec<String>,
    /// Per value, the TOML text each key is set to, in `keys` order.
    pub values: Vec<Vec<String>>,
    /// Source line of the `[[sweep]]` header (0 when built
    /// programmatically): a rejected cell names it.
    pub line: u32,
}

// Like `ModelSpec::path_line`, `line` is provenance, not meaning.
impl PartialEq for SweepAxis {
    fn eq(&self, other: &Self) -> bool {
        self.keys == other.keys && self.values == other.values
    }
}

/// Clos topology description plus PDES partitioning defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologySpec {
    /// Number of clusters (1 = leaf-spine, no core layer).
    pub clusters: u16,
    /// Racks (ToR switches) per cluster.
    pub racks_per_cluster: u16,
    /// Servers per rack.
    pub hosts_per_rack: u16,
    /// Cluster switches per cluster.
    pub aggs_per_cluster: u16,
    /// Core switches per group (ignored when `clusters == 1`).
    pub cores_per_group: u16,
    /// Host ↔ ToR link physics.
    pub host_link: LinkSpecToml,
    /// ToR ↔ Cluster-switch link physics.
    pub fabric_link: LinkSpecToml,
    /// Cluster-switch ↔ Core link physics.
    pub core_link: LinkSpecToml,
    /// ECMP hash salt seed.
    pub ecmp_seed: u64,
    /// PDES partitioning used by `run-scenario --pdes` and benches.
    pub pdes: PdesSpec,
}

impl TopologySpec {
    /// Lowers to the engine's [`ClosParams`]. `dctcp` enables ECN marking
    /// on every layer at the workspace's standard 30 kB threshold when the
    /// links don't already carry their own thresholds.
    pub fn params(&self, dctcp: bool) -> ClosParams {
        let lower = |l: &LinkSpecToml| {
            let mut spec = l.to_link();
            if dctcp && spec.ecn_threshold_bytes.is_none() {
                spec = spec.with_ecn(30_000);
            }
            spec
        };
        ClosParams {
            clusters: self.clusters,
            racks_per_cluster: self.racks_per_cluster,
            hosts_per_rack: self.hosts_per_rack,
            aggs_per_cluster: self.aggs_per_cluster,
            cores_per_group: self.cores_per_group,
            host_link: lower(&self.host_link),
            fabric_link: lower(&self.fabric_link),
            core_link: lower(&self.core_link),
            ecmp_seed: self.ecmp_seed,
        }
    }

    /// True if `(cluster, rack, host)` addresses a real server.
    pub fn contains(&self, c: u16, r: u16, h: u16) -> bool {
        c < self.clusters && r < self.racks_per_cluster && h < self.hosts_per_rack
    }
}

/// Link physics, scenario-file units (µs, Gb/s, bytes).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkSpecToml {
    /// Line rate in gigabits per second.
    pub rate_gbps: f64,
    /// Propagation delay in microseconds.
    pub prop_delay_us: f64,
    /// Output queue capacity in bytes.
    pub queue_cap_bytes: u64,
    /// ECN marking threshold in bytes; `None` disables marking.
    pub ecn_threshold_bytes: Option<u64>,
}

impl LinkSpecToml {
    /// 10 GbE defaults (the paper's everywhere-link).
    pub fn ten_gbe() -> Self {
        LinkSpecToml::from_link(&LinkSpec::ten_gbe())
    }

    /// Converts from the engine's [`LinkSpec`].
    pub fn from_link(l: &LinkSpec) -> Self {
        LinkSpecToml {
            rate_gbps: l.rate_gbps,
            prop_delay_us: l.prop_delay.as_secs_f64() * 1e6,
            queue_cap_bytes: l.queue_cap_bytes,
            ecn_threshold_bytes: l.ecn_threshold_bytes,
        }
    }

    /// Converts to the engine's [`LinkSpec`].
    pub fn to_link(&self) -> LinkSpec {
        LinkSpec {
            rate_gbps: self.rate_gbps,
            prop_delay: SimDuration::from_secs_f64(self.prop_delay_us / 1e6),
            queue_cap_bytes: self.queue_cap_bytes,
            ecn_threshold_bytes: self.ecn_threshold_bytes,
        }
    }
}

/// PDES partitioning defaults for this scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct PdesSpec {
    /// Rack partitions (the CLI's `--pdes N` overrides this).
    pub partitions: usize,
    /// Emulated machines the partitions are dealt over.
    pub machines: usize,
    /// MPI-style envelope bytes per marshalled message.
    pub envelope_bytes: usize,
}

impl Default for PdesSpec {
    fn default() -> Self {
        PdesSpec {
            partitions: 2,
            machines: 1,
            envelope_bytes: 64,
        }
    }
}

/// Run-level knobs.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// Simulated horizon in milliseconds.
    pub horizon_ms: f64,
    /// Default experiment seed (the CLI's `--seed` overrides this).
    pub seed: u64,
    /// DCTCP + ECN-marking switches instead of New Reno.
    pub dctcp: bool,
}

/// Selects a set of hosts in the topology.
#[derive(Clone, Debug, PartialEq)]
pub enum HostSelector {
    /// Every host.
    All,
    /// Every host of one cluster.
    Cluster(u16),
    /// Every host of one rack.
    Rack(u16, u16),
    /// An explicit `(cluster, rack, host)` list.
    List(Vec<(u16, u16, u16)>),
}

impl HostSelector {
    /// Expands to concrete host addresses, ordered by
    /// `(cluster, rack, host)` (explicit lists keep their order).
    pub fn expand(&self, topo: &TopologySpec) -> Vec<HostAddr> {
        let mut out = Vec::new();
        let push_rack = |c: u16, r: u16, out: &mut Vec<HostAddr>| {
            for h in 0..topo.hosts_per_rack {
                out.push(HostAddr::new(c, r, h));
            }
        };
        match self {
            HostSelector::All => {
                for c in 0..topo.clusters {
                    for r in 0..topo.racks_per_cluster {
                        push_rack(c, r, &mut out);
                    }
                }
            }
            HostSelector::Cluster(c) => {
                for r in 0..topo.racks_per_cluster {
                    push_rack(*c, r, &mut out);
                }
            }
            HostSelector::Rack(c, r) => push_rack(*c, *r, &mut out),
            HostSelector::List(list) => {
                out.extend(list.iter().map(|&(c, r, h)| HostAddr::new(c, r, h)));
            }
        }
        out
    }

    /// The first out-of-range address this selector names, if any.
    pub fn dangling(&self, topo: &TopologySpec) -> Option<(u16, u16, u16)> {
        match self {
            HostSelector::All => None,
            HostSelector::Cluster(c) => (!topo.contains(*c, 0, 0)).then_some((*c, 0, 0)),
            HostSelector::Rack(c, r) => (!topo.contains(*c, *r, 0)).then_some((*c, *r, 0)),
            HostSelector::List(list) => list
                .iter()
                .find(|&&(c, r, h)| !topo.contains(c, r, h))
                .copied(),
        }
    }
}

/// One flow group of the traffic matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficGroup {
    /// Group label (defaults to `group<index>`).
    pub name: String,
    /// When the group's window opens, in milliseconds.
    pub start_ms: f64,
    /// Number of copies of the window's flows (time-shifted bursts).
    pub repeat: u32,
    /// Shift between copies, in milliseconds (required when `repeat > 1`).
    pub period_ms: f64,
    /// What the group emits.
    pub kind: TrafficKind,
}

/// The flavor of a traffic group.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficKind {
    /// Per-host Poisson arrivals over a locality mix (the workspace's
    /// standard synthetic workload).
    Poisson {
        /// Per-host offered load fraction, in `(0, 1)`.
        load: f64,
        /// Flow-size distribution.
        sizes: SizeSpec,
        /// Destination locality mix.
        locality: LocalitySpec,
        /// Length of the arrival window in milliseconds. `None` extends
        /// to the run horizon (one-shot groups) or to the repeat period
        /// (bursty groups).
        window_ms: Option<f64>,
        /// Time-varying load multiplier.
        profile: ProfileSpec,
    },
    /// A synchronized incast: every selected sender fires `bytes` at
    /// `dst` simultaneously (the §2.1 pathology).
    Incast {
        /// Sending hosts (the destination is excluded automatically).
        senders: HostSelector,
        /// `(cluster, rack, host)` of the victim.
        dst: (u16, u16, u16),
        /// Bytes per sender.
        bytes: u64,
    },
    /// Ring all-reduce phases: `2·(n−1)` steps per round, each host
    /// sending one chunk to its ring successor per step (HyGra /
    /// "Supercharging" style LLM-training collective).
    AllReduce {
        /// Participating hosts, ring-ordered by `(cluster, rack, host)`.
        hosts: HostSelector,
        /// Chunk bytes each host sends per step.
        bytes_per_step: u64,
        /// Number of all-reduce rounds.
        rounds: u32,
        /// Gap between steps, in microseconds.
        step_gap_us: f64,
    },
    /// Windowed all-to-all: step `s` shifts every host's destination by
    /// `s` positions, so `n−1` steps exchange all pairs without `n²`
    /// simultaneous flows.
    AllToAll {
        /// Participating hosts.
        hosts: HostSelector,
        /// Bytes per pairwise transfer.
        bytes: u64,
        /// Gap between permutation steps, in microseconds.
        step_gap_us: f64,
    },
    /// Every host sends one flow to a rotated partner.
    Permutation {
        /// Bytes per flow.
        bytes: u64,
    },
}

impl TrafficKind {
    /// The kind tag used in scenario files.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TrafficKind::Poisson { .. } => "poisson",
            TrafficKind::Incast { .. } => "incast",
            TrafficKind::AllReduce { .. } => "all-reduce",
            TrafficKind::AllToAll { .. } => "all-to-all",
            TrafficKind::Permutation { .. } => "permutation",
        }
    }
}

/// Flow-size distribution selector.
#[derive(Clone, Debug, PartialEq)]
pub enum SizeSpec {
    /// The DCTCP web-search CDF.
    WebSearch,
    /// The VL2 data-mining CDF (heavier tail).
    DataMining,
    /// Every flow the same size.
    Fixed(u64),
}

/// Destination locality mix (weights need not be normalized).
#[derive(Clone, Debug, PartialEq)]
pub struct LocalitySpec {
    /// Weight of same-rack destinations.
    pub rack_local: f64,
    /// Weight of same-cluster, different-rack destinations.
    pub intra_cluster: f64,
    /// Weight of other-cluster destinations.
    pub inter_cluster: f64,
}

impl LocalitySpec {
    /// The multi-cluster experiments' mix.
    pub fn cluster_heavy() -> Self {
        LocalitySpec {
            rack_local: 0.1,
            intra_cluster: 0.3,
            inter_cluster: 0.6,
        }
    }

    /// The single-cluster leaf-spine mix.
    pub fn leaf_spine() -> Self {
        LocalitySpec {
            rack_local: 0.2,
            intra_cluster: 0.8,
            inter_cluster: 0.0,
        }
    }
}

/// Time-varying load multiplier for a Poisson group.
#[derive(Clone, Debug, PartialEq)]
pub enum ProfileSpec {
    /// Constant multiplier 1.
    Constant,
    /// Compressed-diurnal sinusoid.
    Sinusoid {
        /// Cycle length in milliseconds.
        period_ms: f64,
        /// Trough multiplier.
        min: f64,
        /// Crest multiplier.
        max: f64,
    },
    /// Follow the scenario's `[[regime]]` schedule.
    Schedule,
}

/// One window of the scenario-level regime schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct RegimeWindow {
    /// Window start, milliseconds.
    pub start_ms: f64,
    /// Window end, milliseconds (exclusive).
    pub stop_ms: f64,
    /// Load multiplier inside the window (outside any window it is 1).
    pub multiplier: f64,
}

/// Declarative PDES fault plan, scenario-file units.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Seed for the per-partition fault streams.
    pub seed: u64,
    /// Cross-machine message drop probability.
    pub drop_prob: f64,
    /// Cross-machine message duplication probability.
    pub dup_prob: f64,
    /// Cross-machine message corruption probability (aborts the run with
    /// a typed `PdesError::Corrupt` when it fires).
    pub corrupt_prob: f64,
    /// `(partition, ms per epoch)` wall-clock slowdown of one worker.
    pub slow_partition: Option<(usize, f64)>,
    /// `(partition, epochs)` scripted stall (trips the watchdog).
    pub stall_partition: Option<(usize, u64)>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            corrupt_prob: 0.0,
            slow_partition: None,
            stall_partition: None,
        }
    }
}

/// Checkpoint/restore + degradation-ladder configuration for supervised
/// runs (`[recovery]`).
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySpec {
    /// Whether the run is supervised at all.
    pub enabled: bool,
    /// Simulated milliseconds between checkpoints.
    pub checkpoint_every_ms: f64,
    /// Checkpoint restores per ladder rung before degrading.
    pub max_retries: u32,
}

impl Default for RecoverySpec {
    fn default() -> Self {
        RecoverySpec {
            enabled: true,
            checkpoint_every_ms: 10.0,
            max_retries: 2,
        }
    }
}

/// Divergence bounds for the paired-run accuracy audit (`[audit]`).
///
/// The defaults mirror the reference bounds the oracle-cache accuracy
/// tests hold the hybrid to; scenarios tighten or loosen them per
/// workload.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditSpec {
    /// Whether `elephant audit` gates this scenario at all.
    pub enabled: bool,
    /// Max absolute drop-rate error between truth and hybrid.
    pub max_drop_rate_error: f64,
    /// Max Kolmogorov-Smirnov distance between FCT distributions.
    pub max_ks: f64,
    /// Max Wasserstein-1 distance as a fraction of the truth mean FCT.
    pub max_w1_ratio: f64,
}

impl Default for AuditSpec {
    fn default() -> Self {
        AuditSpec {
            enabled: true,
            max_drop_rate_error: 0.01,
            max_ks: 0.35,
            max_w1_ratio: 0.05,
        }
    }
}

/// Oracle guardrail configuration for hybrid runs.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardSpec {
    /// Whether the guard wraps the oracle at all.
    pub enabled: bool,
    /// Latency ceiling in milliseconds.
    pub ceiling_ms: f64,
    /// Allowed drop-rate drift around the training rate.
    pub tolerance: f64,
    /// Trips before permanent fallback.
    pub trip_limit: u64,
}

impl Default for GuardSpec {
    fn default() -> Self {
        GuardSpec {
            enabled: true,
            ceiling_ms: 100.0,
            tolerance: 0.10,
            trip_limit: 64,
        }
    }
}

/// Oracle-cache configuration for hybrid runs.
#[derive(Clone, Debug, PartialEq)]
pub struct OracleSpec {
    /// Memoize verdicts for quantized feature keys.
    pub cache: bool,
    /// Cache capacity in verdicts.
    pub cache_cap: usize,
}

impl Default for OracleSpec {
    fn default() -> Self {
        OracleSpec {
            cache: false,
            cache_cap: 65_536,
        }
    }
}

/// Learned-model artifact binding for hybrid runs (`[model]`).
///
/// A scenario with this section runs on the hybrid driver: `path` names a
/// versioned model artifact (the CLI's `--model` flag overrides it),
/// `full_cluster` picks the cluster kept at packet fidelity (0 when
/// unset), and `train_fallback` mirrors the `hybrid` subcommand's behavior
/// of capturing + training a small default model when no artifact exists.
#[derive(Clone, Debug, Default)]
pub struct ModelSpec {
    /// Path to the versioned model artifact (JSON), relative to the
    /// process working directory. `None` requires either the CLI's
    /// `--model` flag or `train_fallback = true`.
    pub path: Option<String>,
    /// Source line of the `path` key (0 when built programmatically) —
    /// lets artifact-load failures report `file:line` scenario context.
    pub path_line: u32,
    /// The cluster kept at packet fidelity (cluster 0 when unset).
    pub full_cluster: Option<u16>,
    /// Capture + train a small default model when `path` is absent or
    /// names a missing file (mirrors the `hybrid` subcommand).
    pub train_fallback: bool,
}

// `path_line` is provenance, not meaning: two specs naming the same
// artifact are equal regardless of where the key sat in the file, which
// is what keeps the emit → re-parse round trip an equality.
impl PartialEq for ModelSpec {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
            && self.full_cluster == other.full_cluster
            && self.train_fallback == other.train_fallback
    }
}

/// The model a `[train]` document trains: the LSTM's width and depth, the
/// passes over the training windows, the loss balance α and whether the
/// micro model sees the macro regime. Every other training option is the
/// workspace default (`elephant_core::TrainingOptions`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrainSpec {
    /// Hidden units per LSTM layer.
    pub hidden: usize,
    /// Stacked LSTM layers.
    pub layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Loss balance α in L = L_drop + α·L_latency (§4.2), in (0, 1].
    pub alpha: f32,
    /// Feed the micro model the macro regime (§4.1); `false` pins it at
    /// `Minimal`.
    pub macro_state: bool,
}

impl Default for TrainSpec {
    fn default() -> Self {
        let o = TrainingOptions::default();
        TrainSpec {
            hidden: o.hidden,
            layers: o.layers,
            epochs: o.epochs,
            alpha: o.alpha,
            macro_state: o.macro_state,
        }
    }
}

/// Sampler / timeline outputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OutputSpec {
    /// Sample queue/load/macro time series every this many microseconds.
    pub sample_every_us: Option<u64>,
}

// ---------------------------------------------------------------------------
// Emission: Scenario -> canonical TOML text.
// ---------------------------------------------------------------------------

/// Formats an f64 so it re-parses as a TOML float (always with a point or
/// exponent).
fn toml_f64(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

fn emit_link(out: &mut String, section: &str, l: &LinkSpecToml) {
    out.push_str(&format!("\n[topology.{section}]\n"));
    out.push_str(&format!("rate_gbps = {}\n", toml_f64(l.rate_gbps)));
    out.push_str(&format!("prop_delay_us = {}\n", toml_f64(l.prop_delay_us)));
    out.push_str(&format!("queue_cap_bytes = {}\n", l.queue_cap_bytes));
    if let Some(t) = l.ecn_threshold_bytes {
        out.push_str(&format!("ecn_threshold_bytes = {t}\n"));
    }
}

fn emit_selector(key: &str, s: &HostSelector) -> String {
    match s {
        HostSelector::All => format!("{key} = \"all\"\n"),
        HostSelector::Cluster(c) => format!("{key} = {{ cluster = {c} }}\n"),
        HostSelector::Rack(c, r) => format!("{key} = {{ cluster = {c}, rack = {r} }}\n"),
        HostSelector::List(list) => {
            let items: Vec<String> = list
                .iter()
                .map(|(c, r, h)| format!("[{c}, {r}, {h}]"))
                .collect();
            format!("{key} = [{}]\n", items.join(", "))
        }
    }
}

impl Scenario {
    /// Renders the scenario as canonical TOML, the inverse of the decoder.
    pub fn to_toml_string(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("schema = {SCHEMA_VERSION}\n"));
        out.push_str("\n[scenario]\n");
        out.push_str(&format!("name = {:?}\n", self.name));
        out.push_str(&format!("description = {:?}\n", self.description));

        let t = &self.topology;
        out.push_str("\n[topology]\n");
        out.push_str(&format!("clusters = {}\n", t.clusters));
        out.push_str(&format!("racks_per_cluster = {}\n", t.racks_per_cluster));
        out.push_str(&format!("hosts_per_rack = {}\n", t.hosts_per_rack));
        out.push_str(&format!("aggs_per_cluster = {}\n", t.aggs_per_cluster));
        out.push_str(&format!("cores_per_group = {}\n", t.cores_per_group));
        out.push_str(&format!("ecmp_seed = {}\n", t.ecmp_seed));
        emit_link(&mut out, "host_link", &t.host_link);
        emit_link(&mut out, "fabric_link", &t.fabric_link);
        emit_link(&mut out, "core_link", &t.core_link);
        out.push_str("\n[topology.pdes]\n");
        out.push_str(&format!("partitions = {}\n", t.pdes.partitions));
        out.push_str(&format!("machines = {}\n", t.pdes.machines));
        out.push_str(&format!("envelope_bytes = {}\n", t.pdes.envelope_bytes));

        out.push_str("\n[run]\n");
        out.push_str(&format!("horizon_ms = {}\n", toml_f64(self.run.horizon_ms)));
        out.push_str(&format!("seed = {}\n", self.run.seed));
        out.push_str(&format!("dctcp = {}\n", self.run.dctcp));

        for g in &self.traffic {
            out.push_str("\n[[traffic]]\n");
            out.push_str(&format!("kind = {:?}\n", g.kind.kind_name()));
            out.push_str(&format!("name = {:?}\n", g.name));
            out.push_str(&format!("start_ms = {}\n", toml_f64(g.start_ms)));
            if g.repeat != 1 {
                out.push_str(&format!("repeat = {}\n", g.repeat));
                out.push_str(&format!("period_ms = {}\n", toml_f64(g.period_ms)));
            }
            match &g.kind {
                TrafficKind::Poisson {
                    load,
                    sizes,
                    locality,
                    window_ms,
                    profile,
                } => {
                    out.push_str(&format!("load = {}\n", toml_f64(*load)));
                    if let Some(w) = window_ms {
                        out.push_str(&format!("window_ms = {}\n", toml_f64(*w)));
                    }
                    match sizes {
                        SizeSpec::WebSearch => out.push_str("sizes = \"web-search\"\n"),
                        SizeSpec::DataMining => out.push_str("sizes = \"data-mining\"\n"),
                        SizeSpec::Fixed(b) => out.push_str(&format!("sizes = {{ fixed = {b} }}\n")),
                    }
                    out.push_str(&format!(
                        "locality = {{ rack_local = {}, intra_cluster = {}, inter_cluster = {} }}\n",
                        toml_f64(locality.rack_local),
                        toml_f64(locality.intra_cluster),
                        toml_f64(locality.inter_cluster)
                    ));
                    match profile {
                        ProfileSpec::Constant => out.push_str("profile = \"constant\"\n"),
                        ProfileSpec::Schedule => out.push_str("profile = \"schedule\"\n"),
                        ProfileSpec::Sinusoid {
                            period_ms,
                            min,
                            max,
                        } => out.push_str(&format!(
                            "profile = {{ sinusoid = {{ period_ms = {}, min = {}, max = {} }} }}\n",
                            toml_f64(*period_ms),
                            toml_f64(*min),
                            toml_f64(*max)
                        )),
                    }
                }
                TrafficKind::Incast {
                    senders,
                    dst,
                    bytes,
                } => {
                    out.push_str(&emit_selector("senders", senders));
                    out.push_str(&format!("dst = [{}, {}, {}]\n", dst.0, dst.1, dst.2));
                    out.push_str(&format!("bytes = {bytes}\n"));
                }
                TrafficKind::AllReduce {
                    hosts,
                    bytes_per_step,
                    rounds,
                    step_gap_us,
                } => {
                    out.push_str(&emit_selector("hosts", hosts));
                    out.push_str(&format!("bytes_per_step = {bytes_per_step}\n"));
                    out.push_str(&format!("rounds = {rounds}\n"));
                    out.push_str(&format!("step_gap_us = {}\n", toml_f64(*step_gap_us)));
                }
                TrafficKind::AllToAll {
                    hosts,
                    bytes,
                    step_gap_us,
                } => {
                    out.push_str(&emit_selector("hosts", hosts));
                    out.push_str(&format!("bytes = {bytes}\n"));
                    out.push_str(&format!("step_gap_us = {}\n", toml_f64(*step_gap_us)));
                }
                TrafficKind::Permutation { bytes } => {
                    out.push_str(&format!("bytes = {bytes}\n"));
                }
            }
        }

        for r in &self.regimes {
            out.push_str("\n[[regime]]\n");
            out.push_str(&format!("start_ms = {}\n", toml_f64(r.start_ms)));
            out.push_str(&format!("stop_ms = {}\n", toml_f64(r.stop_ms)));
            out.push_str(&format!("multiplier = {}\n", toml_f64(r.multiplier)));
        }

        if let Some(f) = &self.faults {
            out.push_str("\n[faults]\n");
            out.push_str(&format!("seed = {}\n", f.seed));
            out.push_str(&format!("drop_prob = {}\n", toml_f64(f.drop_prob)));
            out.push_str(&format!("dup_prob = {}\n", toml_f64(f.dup_prob)));
            out.push_str(&format!("corrupt_prob = {}\n", toml_f64(f.corrupt_prob)));
            if let Some((p, ms)) = f.slow_partition {
                out.push_str(&format!(
                    "slow_partition = {{ partition = {p}, ms_per_epoch = {} }}\n",
                    toml_f64(ms)
                ));
            }
            if let Some((p, epochs)) = f.stall_partition {
                out.push_str(&format!(
                    "stall_partition = {{ partition = {p}, after_epochs = {epochs} }}\n"
                ));
            }
        }

        if let Some(g) = &self.guard {
            out.push_str("\n[guard]\n");
            out.push_str(&format!("enabled = {}\n", g.enabled));
            out.push_str(&format!("ceiling_ms = {}\n", toml_f64(g.ceiling_ms)));
            out.push_str(&format!("tolerance = {}\n", toml_f64(g.tolerance)));
            out.push_str(&format!("trip_limit = {}\n", g.trip_limit));
        }

        if let Some(r) = &self.recovery {
            out.push_str("\n[recovery]\n");
            out.push_str(&format!("enabled = {}\n", r.enabled));
            out.push_str(&format!(
                "checkpoint_every_ms = {}\n",
                toml_f64(r.checkpoint_every_ms)
            ));
            out.push_str(&format!("max_retries = {}\n", r.max_retries));
        }

        if let Some(a) = &self.audit {
            out.push_str("\n[audit]\n");
            out.push_str(&format!("enabled = {}\n", a.enabled));
            out.push_str(&format!(
                "max_drop_rate_error = {}\n",
                toml_f64(a.max_drop_rate_error)
            ));
            out.push_str(&format!("max_ks = {}\n", toml_f64(a.max_ks)));
            out.push_str(&format!("max_w1_ratio = {}\n", toml_f64(a.max_w1_ratio)));
        }

        if let Some(m) = &self.model {
            out.push_str("\n[model]\n");
            if let Some(p) = &m.path {
                out.push_str(&format!("path = {p:?}\n"));
            }
            if let Some(c) = m.full_cluster {
                out.push_str(&format!("full_cluster = {c}\n"));
            }
            if m.train_fallback {
                out.push_str("train_fallback = true\n");
            }
        }

        if let Some(t) = &self.train {
            out.push_str("\n[train]\n");
            out.push_str(&format!("hidden = {}\n", t.hidden));
            out.push_str(&format!("layers = {}\n", t.layers));
            out.push_str(&format!("epochs = {}\n", t.epochs));
            out.push_str(&format!("alpha = {}\n", t.alpha));
            out.push_str(&format!("macro_state = {}\n", t.macro_state));
        }

        let o = &self.oracle;
        out.push_str("\n[oracle]\n");
        out.push_str(&format!("cache = {}\n", o.cache));
        out.push_str(&format!("cache_cap = {}\n", o.cache_cap));

        if let Some(us) = self.outputs.sample_every_us {
            out.push_str("\n[outputs]\n");
            out.push_str(&format!("sample_every_us = {us}\n"));
        }

        for a in &self.sweep {
            let keys: Vec<String> = a.keys.iter().map(|k| format!("{k:?}")).collect();
            // A linked axis writes every value as its per-key tuple, so a
            // value that is itself an array re-reads as one.
            let values: Vec<String> = a
                .values
                .iter()
                .map(|v| match v.len() {
                    1 => v[0].clone(),
                    _ => format!("[{}]", v.join(", ")),
                })
                .collect();
            out.push_str("\n[[sweep]]\n");
            out.push_str(&format!("keys = [{}]\n", keys.join(", ")));
            out.push_str(&format!("values = [{}]\n", values.join(", ")));
        }
        out
    }
}
