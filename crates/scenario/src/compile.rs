//! Lowering: [`Scenario`] → the engine types `elephant_core::execute` eats.
//!
//! A [`Compiled`] scenario is the fully materialized run: `ClosParams`,
//! the complete flow list (every traffic group lowered, replicated, and
//! id-partitioned), the effective horizon/seed after CLI overrides, PDES
//! partitioning, and the lowered [`FaultPlan`]. Compilation is a pure
//! function of `(scenario, overrides)` — the determinism contract "same
//! (scenario file, seed) → same run" starts here.
//!
//! ## Flow-id layout
//!
//! Group `g`, repeat copy `r` owns the id block
//! `g·10⁹ + r·10⁶ + 1 ..`; the decoder bounds `repeat` at 999 and no
//! realistic window emits 10⁶ flows, so blocks never collide and the
//! [`elephant_net::FlowId`] direction bit stays clear. Group 0, copy 0
//! therefore starts at id 1 — byte-compatible with the flow lists the
//! hand-rolled bench builders used to produce.

use crate::schema::{ProfileSpec, RegimeWindow, Scenario, SizeSpec, TrafficGroup, TrafficKind};
use elephant_core::{
    execute, single_oracle, ElephantError, Exec, Fidelity, Observe, OracleFactory, Outcome,
    PdesExec, PdesRun, RecoveryPolicy, RunMeta, RunPlan, Serving,
};
use elephant_des::{EpochMode, FaultPlan, SimDuration, SimTime};
use elephant_net::{
    ClosParams, ClusterOracle, FlowId, FlowSpec, GuardConfig, HostAddr, NetConfig, Network,
    RttScope, TcpConfig,
};
use elephant_obs::DivergenceBounds;
use elephant_trace::{
    filter_touching_cluster, generate, LoadProfile, Locality, SizeDist, WorkloadConfig,
};

/// Id distance between traffic groups.
pub const GROUP_STRIDE: u64 = 1_000_000_000;
/// Id distance between repeat copies within a group.
pub const REPEAT_STRIDE: u64 = 1_000_000;

/// Caller-side knobs that override what the scenario file says, so one
/// committed file serves `--seed`/`--horizon-ms` sweeps and the benches'
/// quick/full modes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CompileOverrides {
    /// Replaces `run.seed`.
    pub seed: Option<u64>,
    /// Replaces `run.horizon_ms`.
    pub horizon_ms: Option<f64>,
    /// Replaces every traffic group's `repeat` count.
    pub repeat: Option<u32>,
}

/// A scenario lowered to engine inputs.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// Scenario name (for reports and summaries).
    pub name: String,
    /// Topology, with ECN thresholds applied when the run is DCTCP.
    pub params: ClosParams,
    /// The complete flow list, sorted by `(start, id)`.
    pub flows: Vec<FlowSpec>,
    /// Effective horizon.
    pub horizon: SimTime,
    /// Effective seed.
    pub seed: u64,
    /// DCTCP run (selects [`TcpConfig::dctcp`] on every engine).
    pub dctcp: bool,
    /// PDES rack partitions.
    pub partitions: usize,
    /// Emulated machines.
    pub machines: usize,
    /// Marshalling envelope bytes.
    pub envelope_bytes: usize,
    /// Lowered fault plan (PDES only), if the scenario declares one.
    pub faults: Option<FaultPlan>,
    /// Supervised checkpoint/retry policy, if `[recovery]` is declared
    /// and enabled.
    pub recovery: Option<RecoveryPolicy>,
    /// Sampling period from `[outputs]`, if declared.
    pub sample_every: Option<SimDuration>,
    /// Divergence bounds for `elephant audit`, if `[audit]` is declared
    /// and enabled.
    pub audit_bounds: Option<DivergenceBounds>,
    /// Lowered hybrid-run settings (`[model]`/`[guard]`/`[oracle]`).
    pub hybrid: HybridSpec,
}

/// The hybrid driver's lowered settings: which cluster stays at packet
/// fidelity, where the model artifact comes from, and the guard/cache
/// configuration the oracle stack is assembled with.
///
/// Lowering is exact — every value round-trips the TOML (no clamping, no
/// default substitution), the contract the scenario proptests assert.
#[derive(Clone, Debug)]
pub struct HybridSpec {
    /// `[model] path`, if declared (the CLI's `--model` flag overrides).
    pub model_path: Option<String>,
    /// Scenario line of the `[model]` path (or section header), for
    /// `file:line` artifact-load diagnostics. 0 when no `[model]` exists.
    pub model_line: u32,
    /// True when the scenario declares a `[model]` section at all — the
    /// switch that routes `run-scenario` onto the hybrid driver.
    pub model_declared: bool,
    /// `[model] train_fallback`: capture + train a small default model
    /// when no artifact is available.
    pub train_fallback: bool,
    /// The cluster kept at packet fidelity: `[model] full_cluster`, else 0.
    pub full_cluster: u16,
    /// `[oracle] cache`: memoize verdicts for quantized feature keys.
    pub cache: bool,
    /// `[oracle] cache_cap` in verdicts.
    pub cache_cap: usize,
    /// Lowered `[guard]` settings; `None` when `[guard] enabled = false`.
    /// `expected_drop_rate` stays `None` here — the CLI fills it from the
    /// loaded model's training metadata.
    pub guard: Option<GuardConfig>,
}

/// Converts scenario-file milliseconds to simulation time.
pub fn ms_to_time(ms: f64) -> SimTime {
    SimTime::from_secs_f64(ms / 1e3)
}

/// Lowers a validated scenario, applying `overrides`.
pub fn compile(s: &Scenario, overrides: &CompileOverrides) -> Compiled {
    let seed = overrides.seed.unwrap_or(s.run.seed);
    let horizon_ms = overrides.horizon_ms.unwrap_or(s.run.horizon_ms);
    let horizon = ms_to_time(horizon_ms);
    let params = s.topology.params(s.run.dctcp);

    let mut flows = Vec::new();
    for (g, group) in s.traffic.iter().enumerate() {
        let repeat = overrides.repeat.unwrap_or(group.repeat);
        lower_group(s, group, g, repeat, seed, horizon_ms, &params, &mut flows);
    }
    // One group copied once is already in order, and so are bursty repeats
    // whose window fits their period. Ids are unique, so the keys are too.
    if !flows.is_sorted_by_key(|f| (f.start, f.id.0)) {
        flows.sort_unstable_by_key(|f| (f.start, f.id.0));
    }

    let faults = s.faults.as_ref().map(|f| FaultPlan {
        seed: f.seed,
        drop_prob: f.drop_prob,
        dup_prob: f.dup_prob,
        corrupt_prob: f.corrupt_prob,
        slow_partition: f
            .slow_partition
            .map(|(p, ms)| (p, std::time::Duration::from_secs_f64(ms / 1e3))),
        stall_partition: f.stall_partition,
    });

    let recovery = s
        .recovery
        .as_ref()
        .filter(|r| r.enabled)
        .map(|r| RecoveryPolicy {
            checkpoint_every: SimDuration::from_secs_f64(r.checkpoint_every_ms / 1e3),
            max_retries: r.max_retries,
        });

    // Guard defaults to *on* for hybrid runs (matching the `hybrid`
    // subcommand); `[guard] enabled = false` is the only way to shed it.
    let guard_spec = s.guard.clone().unwrap_or_default();
    let guard = guard_spec.enabled.then(|| GuardConfig {
        latency_ceiling: SimDuration::from_secs_f64(guard_spec.ceiling_ms / 1e3),
        expected_drop_rate: None,
        drop_rate_tolerance: guard_spec.tolerance,
        trip_limit: guard_spec.trip_limit,
        ..Default::default()
    });
    let hybrid = HybridSpec {
        model_path: s.model.as_ref().and_then(|m| m.path.clone()),
        model_line: s.model.as_ref().map_or(0, |m| m.path_line),
        model_declared: s.model.is_some(),
        train_fallback: s.model.as_ref().is_some_and(|m| m.train_fallback),
        full_cluster: s.model.as_ref().and_then(|m| m.full_cluster).unwrap_or(0),
        cache: s.oracle.cache,
        cache_cap: s.oracle.cache_cap,
        guard,
    };

    Compiled {
        name: s.name.clone(),
        params,
        flows,
        horizon,
        seed,
        dctcp: s.run.dctcp,
        partitions: s.topology.pdes.partitions,
        machines: s.topology.pdes.machines,
        envelope_bytes: s.topology.pdes.envelope_bytes,
        faults,
        recovery,
        sample_every: s.outputs.sample_every_us.map(SimDuration::from_micros),
        audit_bounds: s
            .audit
            .as_ref()
            .filter(|a| a.enabled)
            .map(|a| DivergenceBounds {
                max_drop_rate_error: a.max_drop_rate_error,
                max_ks: a.max_ks,
                max_w1_ratio: a.max_w1_ratio,
            }),
        hybrid,
    }
}

/// Per-group seed: group 0 reads the raw scenario seed (bench parity with
/// the old hand-rolled builders), later groups decorrelate by golden-ratio
/// salting.
fn group_seed(seed: u64, g: usize) -> u64 {
    seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Lowers one traffic group into `out`: builds the window's flow list
/// (1-based local ids, absolute starts) then replicates it `repeat` times
/// at `period_ms` spacing with the group/repeat id offsets applied.
#[allow(clippy::too_many_arguments)] // internal lowering plumbing
fn lower_group(
    s: &Scenario,
    group: &TrafficGroup,
    g: usize,
    repeat: u32,
    seed: u64,
    horizon_ms: f64,
    params: &ClosParams,
    out: &mut Vec<FlowSpec>,
) {
    if group.start_ms >= horizon_ms {
        return; // window opens after the run ends
    }
    let start = ms_to_time(group.start_ms);
    let window = match group.kind {
        // Unspecified Poisson windows stretch to the horizon (one-shot)
        // or fill the repeat period (bursty).
        TrafficKind::Poisson { window_ms, .. } => match window_ms {
            Some(w) => w,
            None if repeat > 1 => group.period_ms,
            None => horizon_ms - group.start_ms,
        },
        _ => 0.0,
    };
    let base = window_flows(s, group, g, seed, start, window, params);
    debug_assert!(
        base.len() < REPEAT_STRIDE as usize,
        "window of group {g} exceeds the repeat id stride"
    );
    if g == 0 && repeat == 1 {
        // The first group, copied once: no id or start offset applies, and
        // `out` is still empty, so the window's list becomes the run's.
        *out = base;
        return;
    }
    out.reserve(base.len() * repeat as usize);
    let period_ns = ms_to_time(group.period_ms).as_nanos();
    for r in 0..repeat as u64 {
        let id_base = g as u64 * GROUP_STRIDE + r * REPEAT_STRIDE;
        let shift = r * period_ns;
        for f in &base {
            let mut f = *f;
            f.id = FlowId(f.id.0 + id_base);
            f.start = SimTime::from_nanos(f.start.as_nanos() + shift);
            out.push(f);
        }
    }
}

/// One window's flows: local 1-based ids, starts absolute (group start
/// included, repeat shift not).
fn window_flows(
    s: &Scenario,
    group: &TrafficGroup,
    g: usize,
    seed: u64,
    start: SimTime,
    window_ms: f64,
    params: &ClosParams,
) -> Vec<FlowSpec> {
    let topo = &s.topology;
    match &group.kind {
        TrafficKind::Poisson {
            load,
            sizes,
            locality,
            profile,
            ..
        } => {
            if window_ms <= 0.0 {
                return Vec::new();
            }
            let wl = WorkloadConfig {
                load: *load,
                sizes: lower_sizes(sizes),
                locality: Locality {
                    rack_local: locality.rack_local,
                    intra_cluster: locality.intra_cluster,
                    inter_cluster: locality.inter_cluster,
                },
                horizon: ms_to_time(window_ms),
                seed: group_seed(seed, g),
                profile: lower_profile(profile, &s.regimes, group.start_ms),
            };
            let mut flows = generate(params, &wl);
            for f in &mut flows {
                f.start = SimTime::from_nanos(f.start.as_nanos() + start.as_nanos());
            }
            flows
        }
        TrafficKind::Incast {
            senders,
            dst,
            bytes,
        } => {
            let dst = HostAddr::new(dst.0, dst.1, dst.2);
            let senders: Vec<HostAddr> = senders
                .expand(topo)
                .into_iter()
                .filter(|&a| a != dst)
                .collect();
            elephant_trace::incast(&senders, dst, *bytes, start, 1)
        }
        TrafficKind::AllReduce {
            hosts,
            bytes_per_step,
            rounds,
            step_gap_us,
        } => {
            let ring = hosts.expand(topo);
            let n = ring.len();
            let steps_per_round = 2 * (n - 1) as u64;
            collective_steps(
                &ring,
                *rounds as u64 * steps_per_round,
                start,
                *step_gap_us,
                |_, i| (i + 1) % n, // ring successor every step
                *bytes_per_step,
            )
        }
        TrafficKind::AllToAll {
            hosts,
            bytes,
            step_gap_us,
        } => {
            let ring = hosts.expand(topo);
            let n = ring.len();
            collective_steps(
                &ring,
                (n - 1) as u64,
                start,
                *step_gap_us,
                |k, i| (i + k as usize + 1) % n, // shift grows per step
                *bytes,
            )
        }
        TrafficKind::Permutation { bytes } => {
            let mut flows =
                elephant_trace::permutation(params, *bytes, SimTime::ZERO, group_seed(seed, g));
            for f in &mut flows {
                f.start = SimTime::from_nanos(f.start.as_nanos() + start.as_nanos());
            }
            flows
        }
    }
}

/// Synchronized collective phases: at step `k` (spaced `step_gap_us`
/// apart), host `i` sends `bytes` to `ring[partner(k, i)]`.
fn collective_steps(
    ring: &[HostAddr],
    steps: u64,
    start: SimTime,
    step_gap_us: f64,
    partner: impl Fn(u64, usize) -> usize,
    bytes: u64,
) -> Vec<FlowSpec> {
    let n = ring.len();
    let gap_ns = SimTime::from_secs_f64(step_gap_us / 1e6).as_nanos();
    let mut flows = Vec::with_capacity(steps as usize * n);
    for k in 0..steps {
        let at = SimTime::from_nanos(start.as_nanos() + k * gap_ns);
        for (i, &src) in ring.iter().enumerate() {
            let dst = ring[partner(k, i)];
            debug_assert_ne!(src, dst, "collective partner function self-paired");
            flows.push(FlowSpec {
                id: FlowId(k * n as u64 + i as u64 + 1),
                src,
                dst,
                bytes,
                start: at,
            });
        }
    }
    flows
}

fn lower_sizes(s: &SizeSpec) -> SizeDist {
    match s {
        SizeSpec::WebSearch => SizeDist::web_search(),
        SizeSpec::DataMining => SizeDist::data_mining(),
        SizeSpec::Fixed(b) => SizeDist::fixed(*b),
    }
}

/// Lowers a group's profile. Regime schedules are scenario-absolute;
/// `generate` clocks from the group's window start, so schedule steps are
/// re-based by `-start_ms` and any window already covering the group start
/// becomes a step at time zero.
fn lower_profile(p: &ProfileSpec, regimes: &[RegimeWindow], start_ms: f64) -> LoadProfile {
    match p {
        ProfileSpec::Constant => LoadProfile::Constant,
        ProfileSpec::Sinusoid {
            period_ms,
            min,
            max,
        } => LoadProfile::Sinusoid {
            period: ms_to_time(*period_ms),
            min: *min,
            max: *max,
        },
        ProfileSpec::Schedule => {
            // Each window contributes (start, multiplier) and (stop, 1.0);
            // the decoder guarantees windows are sorted and disjoint.
            let mut events: Vec<(f64, f64)> = Vec::with_capacity(regimes.len() * 2);
            for w in regimes {
                events.push((w.start_ms, w.multiplier));
                events.push((w.stop_ms, 1.0));
            }
            events.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut level0 = 1.0;
            let mut steps: Vec<(SimTime, f64)> = Vec::new();
            for (at_ms, m) in events {
                let rel = at_ms - start_ms;
                if rel <= 0.0 {
                    level0 = m;
                } else {
                    steps.push((ms_to_time(rel), m));
                }
            }
            if level0 != 1.0 {
                steps.insert(0, (SimTime::ZERO, level0));
            }
            LoadProfile::Steps(steps)
        }
    }
}

impl Compiled {
    /// The network config for this run.
    pub fn net_config(&self) -> NetConfig {
        NetConfig {
            tcp: if self.dctcp {
                TcpConfig::dctcp()
            } else {
                TcpConfig::default()
            },
            rtt_scope: RttScope::All,
            ..Default::default()
        }
    }

    /// The hybrid flow list: the compiled flows elided to traffic
    /// touching the full-fidelity cluster (the paper's §6.2 elision).
    pub fn hybrid_flows(&self) -> Vec<FlowSpec> {
        filter_touching_cluster(&self.flows, self.hybrid.full_cluster)
    }

    /// PDES execution with the `[topology.pdes]` partitioning (or the
    /// caller's partition override) and the scenario's fault plan.
    pub fn pdes(&self, partitions: Option<usize>, mode: EpochMode) -> Exec {
        Exec::Pdes(PdesExec {
            partitions: partitions.unwrap_or(self.partitions),
            machines: self.machines,
            envelope_bytes: self.envelope_bytes,
            mode,
            faults: self.faults.clone(),
        })
    }

    /// Runs the scenario at any point of the run matrix. With `oracles`
    /// the run is hybrid — the `[model]`-selected full cluster at packet
    /// fidelity over the elided flow list, every other cluster served by
    /// the oracles the factory builds — and full fidelity without.
    pub fn run(
        &self,
        oracles: Option<OracleFactory<'_>>,
        exec: Exec,
        supervise: Option<&RecoveryPolicy>,
        observe: Observe,
    ) -> Result<Outcome, ElephantError> {
        let elided;
        let (fidelity, flows) = match oracles {
            None => (Fidelity::Full { capture: None }, &self.flows),
            Some(oracles) => {
                elided = self.hybrid_flows();
                let full_cluster = self.hybrid.full_cluster;
                (
                    Fidelity::Hybrid {
                        full_cluster,
                        oracles,
                    },
                    &elided,
                )
            }
        };
        execute(RunPlan {
            params: self.params,
            cfg: self.net_config(),
            flows,
            horizon: self.horizon,
            fidelity,
            exec,
            supervise,
            observe,
            serving: Serving::Auto,
        })
    }

    /// [`Self::run`] at full fidelity on the sequential engine. The three
    /// `run_*` wrappers return no samples: their last parameter, the
    /// sampling period, keeps the arity `benchmark/src/bind.rs` binds, and
    /// every caller passes `None`.
    pub fn run_sequential(&self, sample_every: Option<SimDuration>) -> (Network, RunMeta) {
        self.run(None, Exec::Sequential, None, Observe::sampled(sample_every))
            .expect("unsupervised sequential runs cannot fail")
            .into_single()
    }

    /// [`Self::run`] as a hybrid served by `oracle` on the sequential
    /// engine.
    pub fn run_hybrid(
        &self,
        oracle: Box<dyn ClusterOracle + Send>,
        sample_every: Option<SimDuration>,
    ) -> (Network, RunMeta) {
        let oracles = &mut single_oracle(oracle);
        self.run(
            Some(oracles),
            Exec::Sequential,
            None,
            Observe::sampled(sample_every),
        )
        .expect("unsupervised sequential runs cannot fail")
        .into_single()
    }

    /// [`Self::run`] at full fidelity under [`Self::pdes`].
    pub fn run_pdes(
        &self,
        partitions: Option<usize>,
        mode: EpochMode,
        sample_every: Option<SimDuration>,
    ) -> Result<PdesRun, ElephantError> {
        let observe = Observe::sampled(sample_every);
        self.run(None, self.pdes(partitions, mode), None, observe)
            .map(Outcome::into_pdes_run)
    }
}

/// The run fingerprint: FNV-1a 64 over flow completions, delivered bytes,
/// drops, and every flow-completion time to the nanosecond, order-
/// normalized. Two invocations of the same (scenario, seed) on the same
/// driver must produce equal fingerprints — the determinism contract the
/// CLI prints and tests assert.
pub fn run_fingerprint<'a>(nets: impl IntoIterator<Item = &'a Network>) -> u64 {
    let mut completed = 0u64;
    let mut delivered = 0u64;
    let mut drops = 0u64;
    let mut fct: Vec<(u64, u64, u64)> = Vec::new();
    for net in nets {
        completed += net.stats.flows_completed;
        delivered += net.stats.delivered_bytes;
        drops += net.stats.drops.total();
        fct.extend(
            net.stats
                .fct
                .iter()
                .map(|r| (r.flow.0, r.started.as_nanos(), r.completed.as_nanos())),
        );
    }
    fct.sort_unstable();
    let mut h = Fnv::new();
    h.write(completed);
    h.write(delivered);
    h.write(drops);
    h.write(fct.len() as u64);
    for (flow, started, done) in fct {
        h.write(flow);
        h.write(started);
        h.write(done);
    }
    h.finish()
}

/// Folds fingerprints, in order, into one: a sweep's, over its cells.
pub fn fold_fingerprints(fingerprints: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    fingerprints.into_iter().for_each(|f| h.write(f));
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
