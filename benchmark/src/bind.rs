//! Every binding to the simulator's library APIs lives in this file, so a
//! refactor of the drivers needs a one-file re-bind here and nothing else
//! in the benchmark changes.
//!
//! Nothing inside the program is instrumented. Untraced runs call the same
//! `Compiled::run_*` drivers the CLI calls. Traced runs assemble the same
//! world those drivers assemble, but wrap it from outside: the `Network` in
//! a [`TimedWorld`] (one span per `World::handle` call) and the oracle
//! stack in [`TimedOracle`]s (outside the guard, and between the guard and
//! the learned oracle). The wrappers only count and time; the traced run's
//! fingerprint is checked against the untraced one.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use elephant_core::{
    build_samples, capture_records, run_audit, run_ground_truth, train_cluster_model, AuditHooks,
    CacheStatsHandle, ClusterModel, DropPolicy, LatencyCodec, LearnedOracle, RunLedger,
    TrainingOptions,
};
use elephant_des::{EpochMode, Scheduler, SimDuration, SimTime, Simulator, World};
use elephant_net::{
    ClusterOracle, FixedLatencyOracle, GuardStatsHandle, GuardedOracle, NetConfig, NetEvent,
    Network, OracleCtx, OracleVerdict, Packet, RawVerdict, RttScope, Topology,
};
use elephant_nn::MicroNetState;
use elephant_obs::RunReport;
use elephant_scenario::{compile, run_fingerprint, CompileOverrides, Compiled};
use elephant_trace::{generate, WorkloadConfig};

use crate::calib::splitmix64;
use crate::spec::Driver;
use crate::trace::Tracer;

/// Flat `name → number` facts about one run; the child process prints them
/// and the parent aggregates them.
pub type Facts = std::collections::BTreeMap<String, f64>;

fn put(f: &mut Facts, key: &str, v: f64) {
    f.insert(key.to_string(), v);
}

/// Switches the program's own metrics registry and profiler off (their
/// default): end-to-end numbers are measured without them.
pub fn observability_off() {
    elephant_obs::set_enabled(false);
}

// ---------------------------------------------------------------------
// Set-up: scenario load + compile, model artifact load
// ---------------------------------------------------------------------

/// A scenario ready to run.
pub struct Prepared {
    pub compiled: Compiled,
    pub driver: Driver,
    pub model: Option<ClusterModel>,
}

/// Runs every `.toml` under `dir` through the scenario validator; returns
/// how many files passed.
pub fn validate_scenarios(dir: &Path) -> Result<usize, String> {
    let files = elephant_scenario::list_scenarios(dir).map_err(|e| e.to_string())?;
    for f in &files {
        elephant_scenario::load(&f.to_string_lossy()).map_err(|e| e.to_string())?;
    }
    Ok(files.len())
}

/// Loads `scenario`, compiles it with `seed` replacing `[run] seed`
/// (`quick` divides the horizon by ten), and loads the model artifact for
/// hybrid workloads. Records the set-up layer facts.
pub fn prepare(
    scenario: &Path,
    driver: Driver,
    seed: u64,
    quick: bool,
    model: &Path,
    facts: &mut Facts,
) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let s = elephant_scenario::load(&scenario.to_string_lossy()).map_err(|e| e.to_string())?;
    let overrides = CompileOverrides {
        seed: Some(seed),
        horizon_ms: quick.then_some(s.run.horizon_ms / 10.0),
        repeat: None,
    };
    let compiled = compile(&s, &overrides);
    put(facts, "scenario.load_compile_s", t0.elapsed().as_secs_f64());
    if (driver == Driver::Hybrid) != compiled.hybrid.model_declared {
        return Err(format!(
            "{}: [model] section and the workload's driver disagree",
            scenario.display()
        ));
    }
    let t1 = Instant::now();
    let model = match driver {
        Driver::Hybrid => Some(load_model(model)?),
        _ => None,
    };
    put(facts, "core.model_load_s", t1.elapsed().as_secs_f64());
    let flows = match driver {
        Driver::Hybrid => compiled.hybrid_flows().len(),
        _ => compiled.flows.len(),
    };
    put(facts, "scenario.flows", flows as f64);
    Ok(Prepared {
        compiled,
        driver,
        model,
    })
}

// ---------------------------------------------------------------------
// Model artifact: train once, reuse
// ---------------------------------------------------------------------

/// Seed of the training capture and weight initialisation. The model is
/// part of the system's configuration, like the scenario files, not an
/// input drawn from `--seed`: one artifact serves every run in a checkout.
const TRAIN_SEED: u64 = 0xE1E;
const TRAIN_HORIZON_MS: u64 = 40;
/// Feature vectors kept beside the model for the stand-alone `step_infer`
/// timing.
const KEPT_FEATURES: usize = 2048;

/// What training cost, and inputs for the stand-alone inference probe.
pub struct TrainFacts {
    pub train_s: f64,
    pub train_samples: u64,
    pub features: Vec<Vec<f32>>,
}

/// The paper's §3 workflow at small scale: full-fidelity two-cluster run
/// with boundary capture around cluster 1, then `train_cluster_model` with
/// default options.
pub fn train_model() -> Result<(ClusterModel, TrainFacts), String> {
    let params = elephant_net::ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(TRAIN_HORIZON_MS);
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, TRAIN_SEED));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let t0 = Instant::now();
    let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let records = capture_records(net).map_err(|e| e.to_string())?;
    let opts = TrainingOptions {
        seed: TRAIN_SEED,
        ..Default::default()
    };
    let (model, report) = train_cluster_model(&records, &params, &opts);
    let train_s = t0.elapsed().as_secs_f64();
    let (up, _down) = build_samples(&records, &params, model.macro_cfg, LatencyCodec::default());
    let features = up
        .into_iter()
        .take(KEPT_FEATURES)
        .map(|s| s.features)
        .collect();
    let facts = TrainFacts {
        train_s,
        train_samples: (report.up.train_samples + report.down.train_samples) as u64,
        features,
    };
    Ok((model, facts))
}

/// Writes the versioned, checksummed model artifact.
pub fn save_model(model: &ClusterModel, path: &Path) -> Result<(), String> {
    std::fs::write(path, model.to_file_json()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads and validates (magic, version, checksum, finite weights) the
/// model artifact.
pub fn load_model(path: &Path) -> Result<ClusterModel, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("model {}: {e}", path.display()))?;
    ClusterModel::load_json(&json).map_err(|e| format!("model {}: {e}", path.display()))
}

/// The model artifact format version, part of the artifact's file name.
pub fn model_version() -> u32 {
    elephant_core::MODEL_VERSION
}

// ---------------------------------------------------------------------
// Oracle stack, assembled as `elephant run-scenario` assembles it
// ---------------------------------------------------------------------

struct OracleStack {
    oracle: Box<dyn ClusterOracle + Send>,
    guard: Option<GuardStatsHandle>,
    cache: Option<CacheStatsHandle>,
}

/// Learned oracle (with the `[oracle]` verdict cache when enabled) under
/// the `[guard]` wrapper, seeded from the run seed. With a tracer, a
/// [`TimedOracle`] sits outside the guard and another between the guard
/// and the learned oracle.
fn oracle_stack(p: &Prepared, tracer: Option<&Arc<Tracer>>) -> OracleStack {
    let spec = &p.compiled.hybrid;
    let model = p.model.clone().expect("hybrid workloads carry a model");
    let meta = model.meta;
    let seed = p.compiled.seed ^ 0xE1E;
    let mut cache = None;
    let learned = if spec.cache {
        let o = LearnedOracle::with_cache(
            model,
            p.compiled.params,
            DropPolicy::Sample,
            seed,
            spec.cache_cap,
        );
        cache = o.cache_stats_handle();
        o
    } else {
        LearnedOracle::new(model, p.compiled.params, DropPolicy::Sample, seed)
    };
    let timed = |inner: Box<dyn ClusterOracle + Send>, name: usize| match tracer {
        Some(t) => Box::new(TimedOracle {
            inner,
            tracer: Arc::clone(t),
            name,
        }) as Box<dyn ClusterOracle + Send>,
        None => inner,
    };
    let primary = timed(Box::new(learned), ORACLE);
    let Some(guard_cfg) = &spec.guard else {
        return OracleStack {
            oracle: primary,
            guard: None,
            cache,
        };
    };
    let mut guard_cfg = guard_cfg.clone();
    guard_cfg.expected_drop_rate = (meta.train_records > 0).then_some(meta.train_drop_rate);
    let fallback_latency = if meta.train_latency_p50 > 0.0 {
        SimDuration::from_secs_f64(meta.train_latency_p50)
    } else {
        SimDuration::from_micros(50)
    };
    let guarded = GuardedOracle::new(
        primary,
        Box::new(FixedLatencyOracle(fallback_latency)),
        guard_cfg,
    );
    let guard = Some(guarded.stats_handle());
    OracleStack {
        oracle: timed(Box::new(guarded), GUARD),
        guard,
        cache,
    }
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

fn net_facts(nets: &[&Network], facts: &mut Facts) {
    let sum = |f: &dyn Fn(&Network) -> u64| nets.iter().map(|n| f(n)).sum::<u64>() as f64;
    put(facts, "net.flows_started", sum(&|n| n.stats.flows_started));
    put(
        facts,
        "net.flows_completed",
        sum(&|n| n.stats.flows_completed),
    );
    put(
        facts,
        "net.delivered_bytes",
        sum(&|n| n.stats.delivered_bytes),
    );
    put(facts, "net.drops_host", sum(&|n| n.stats.drops.host));
    put(facts, "net.drops_tor", sum(&|n| n.stats.drops.tor));
    put(facts, "net.drops_agg", sum(&|n| n.stats.drops.agg));
    put(facts, "net.drops_core", sum(&|n| n.stats.drops.core));
    put(facts, "net.drops_oracle", sum(&|n| n.stats.drops.oracle));
    put(facts, "net.drops", sum(&|n| n.stats.drops.total()));
    put(
        facts,
        "net.oracle_deliveries",
        sum(&|n| n.stats.oracle_deliveries),
    );
}

fn oracle_facts(
    guard: &Option<GuardStatsHandle>,
    cache: &Option<CacheStatsHandle>,
    facts: &mut Facts,
) {
    let g = guard.as_ref().map(|h| h.snapshot()).unwrap_or_default();
    let c = cache.as_ref().map(|h| h.snapshot()).unwrap_or_default();
    // Without a cache every verdict is a miss: one inference step each.
    let misses = if cache.is_some() {
        c.misses
    } else {
        g.verdicts
    };
    put(facts, "core.verdicts", g.verdicts as f64);
    put(facts, "net.guard_trips", g.trips() as f64);
    put(
        facts,
        "net.guard_fallback_active",
        f64::from(u8::from(g.fallback_active)),
    );
    put(facts, "core.cache_hits", c.hits as f64);
    put(facts, "core.cache_misses", misses as f64);
    put(facts, "core.cache_invalidations", c.invalidations as f64);
    put(facts, "core.cache_hit_ratio", c.hit_rate());
    put(facts, "nn.steps", misses as f64);
}

/// `called` is when the driver was called: what the call took beyond the
/// run loop's own wall time is world building (topology, network state,
/// flow scheduling), which belongs to set-up.
fn run_facts(called: Instant, wall_s: f64, events: u64, sim_s: f64, facts: &mut Facts) {
    put(facts, "wall_s", wall_s);
    put(facts, "des.events", events as f64);
    put(facts, "sim_s", sim_s);
    put(
        facts,
        "net.build_s",
        (called.elapsed().as_secs_f64() - wall_s).max(0.0),
    );
}

/// Runs the prepared scenario on its driver, untraced, exactly as the CLI
/// would. Returns the run fingerprint.
pub fn run_plain(p: &Prepared, facts: &mut Facts) -> Result<u64, String> {
    let c = &p.compiled;
    let called = Instant::now();
    match p.driver {
        Driver::Full | Driver::Hybrid => {
            let (guard, cache, (net, meta)) = if p.driver == Driver::Hybrid {
                let stack = oracle_stack(p, None);
                (stack.guard, stack.cache, c.run_hybrid(stack.oracle, None))
            } else {
                (None, None, c.run_sequential(None))
            };
            run_facts(
                called,
                meta.wall.as_secs_f64(),
                meta.events,
                meta.sim_seconds,
                facts,
            );
            net_facts(&[&net], facts);
            oracle_facts(&guard, &cache, facts);
            Ok(run_fingerprint([&net]))
        }
        Driver::Pdes => {
            let run = c
                .run_pdes(None, EpochMode::Adaptive, None)
                .map_err(|e| format!("pdes run failed: {e}"))?;
            run_facts(
                called,
                run.wall.as_secs_f64(),
                run.events(),
                c.horizon.as_secs_f64(),
                facts,
            );
            let nets: Vec<&Network> = run.nets.iter().collect();
            net_facts(&nets, facts);
            oracle_facts(&None, &None, facts);
            let r = &run.report;
            let parts = |f: &dyn Fn(&elephant_des::PartitionStats) -> f64| {
                r.partitions.iter().map(f).sum::<f64>()
            };
            put(facts, "des.pdes_work_s", parts(&|s| s.work_seconds));
            put(
                facts,
                "des.pdes_barrier_s",
                parts(&|s| s.barrier_wait_seconds),
            );
            put(facts, "des.pdes_marshal_s", parts(&|s| s.marshal_seconds));
            put(facts, "des.pdes_epochs", r.epochs as f64);
            put(facts, "des.pdes_jumped", r.epochs_jumped as f64);
            put(facts, "des.pdes_remote_events", r.remote_messages as f64);
            put(facts, "des.pdes_remote_bytes", r.bytes_marshalled as f64);
            let fel_peak = r.partitions.iter().map(|s| s.fel_bytes_peak).max();
            put(facts, "des.fel_bytes_peak", fel_peak.unwrap_or(0) as f64);
            for s in &r.partitions {
                let k = |what: &str| format!("des.pdes_p{}_{what}", s.partition);
                put(facts, &k("work_s"), s.work_seconds);
                put(facts, &k("barrier_s"), s.barrier_wait_seconds);
                put(facts, &k("marshal_s"), s.marshal_seconds);
                put(facts, &k("events"), s.events as f64);
            }
            Ok(run_fingerprint(run.nets.iter()))
        }
    }
}

/// Runs a sequential (full or hybrid) scenario with the world and oracle
/// wrapped in timing shims. Assembles the world as `run_ground_truth` /
/// `run_hybrid` do; the PDES workload has no shims (its layer metrics come
/// straight from `PdesReport`) and goes through [`run_plain`].
pub fn run_traced(p: &Prepared, tracer: &Arc<Tracer>, facts: &mut Facts) -> Result<u64, String> {
    let c = &p.compiled;
    let called = Instant::now();
    let mut cfg = c.net_config();
    cfg.capture_cluster = None;
    let (net, flows, guard, cache) = match p.driver {
        Driver::Pdes => return run_plain(p, facts),
        Driver::Full => {
            let topo = Arc::new(Topology::clos(c.params));
            (Network::new(topo, cfg), c.flows.clone(), None, None)
        }
        Driver::Hybrid => {
            let full = c.hybrid.full_cluster;
            let stubs: Vec<u16> = (0..c.params.clusters).filter(|&k| k != full).collect();
            cfg.rtt_scope = RttScope::Cluster(full);
            let topo = Arc::new(Topology::clos_with_stubs(c.params, &stubs));
            let mut net = Network::new(topo, cfg);
            let stack = oracle_stack(p, Some(tracer));
            net.set_oracle(stack.oracle);
            (net, c.hybrid_flows(), stack.guard, stack.cache)
        }
    };
    let mut sim = Simulator::new(TimedWorld {
        net,
        tracer: Arc::clone(tracer),
        seen: [0; KINDS],
        pending_peak: 0,
        fel_bytes_peak: 0,
    });
    for &spec in &flows {
        sim.scheduler_mut()
            .schedule_at(spec.start, NetEvent::FlowStart(spec));
    }
    let t0 = Instant::now();
    sim.run_until(c.horizon);
    let wall = t0.elapsed();
    let sched = sim.scheduler();
    let events = sched.executed_total();
    put(facts, "des.scheduled", sched.scheduled_total() as f64);
    put(facts, "des.cancelled", sched.cancelled_total() as f64);
    let fel_now = sched.fel_bytes();
    let world = sim.into_world();
    put(facts, "des.pending_peak", world.pending_peak as f64);
    put(
        facts,
        "des.fel_bytes_peak",
        world.fel_bytes_peak.max(fel_now) as f64,
    );
    run_facts(
        called,
        wall.as_secs_f64(),
        events,
        c.horizon.as_secs_f64(),
        facts,
    );
    net_facts(&[&world.net], facts);
    oracle_facts(&guard, &cache, facts);
    layer_facts(&world.seen, tracer, wall.as_secs_f64(), events, facts);
    Ok(run_fingerprint([&world.net]))
}

/// Turns the exact counts and the strided timings into per-layer facts.
/// A kind's busy time is its mean timed self time scaled to its exact
/// count; `des.dispatch` is the run's wall time not inside any `handle`.
fn layer_facts(seen: &[u64; KINDS], tracer: &Tracer, wall_s: f64, events: u64, facts: &mut Facts) {
    let mean = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let mut handle_s = 0.0;
    for (k, name) in SPAN_NAMES[..KINDS].iter().enumerate() {
        let t = tracer.totals(k);
        let self_ns = mean(t.self_ns, t.timed);
        put(facts, &format!("{name}_count"), seen[k] as f64);
        put(facts, &format!("{name}_ns"), self_ns);
        put(
            facts,
            &format!("{name}_busy_s"),
            self_ns * seen[k] as f64 / 1e9,
        );
        handle_s += mean(t.total_ns, t.timed) * seen[k] as f64 / 1e9;
    }
    let guard = tracer.totals(GUARD);
    let oracle = tracer.totals(ORACLE);
    let guard_ns = mean(guard.self_ns, guard.timed);
    let oracle_ns = mean(oracle.total_ns, oracle.timed);
    put(facts, "net.guard_ns_per_verdict", guard_ns);
    put(
        facts,
        "net.guard_busy_s",
        guard_ns * guard.calls as f64 / 1e9,
    );
    put(facts, "core.oracle_ns_per_verdict", oracle_ns);
    put(
        facts,
        "core.oracle_busy_s",
        oracle_ns * oracle.calls as f64 / 1e9,
    );
    let dispatch_s = wall_s - handle_s;
    put(
        facts,
        "des.dispatch_ns_per_event",
        dispatch_s * 1e9 / events.max(1) as f64,
    );
    // Share of the traced wall time that the handler spans account for;
    // the rest is the kernel's pop/dispatch loop.
    put(facts, "trace.coverage", handle_s / wall_s.max(1e-12));
}

// ---------------------------------------------------------------------
// Timing shims
// ---------------------------------------------------------------------

/// Span names: one per `NetEvent` kind, then the two oracle layers.
pub const SPAN_NAMES: [&str; 6] = [
    "net.arrive",
    "net.port_free",
    "net.timer",
    "net.flow_start",
    "net.guard",
    "core.oracle",
];
const KINDS: usize = 4;
const GUARD: usize = 4;
const ORACLE: usize = 5;
/// Every event is counted; one in this many of each kind is timed.
pub const STRIDE: u64 = 16;
/// `Scheduler::fel_bytes` walks the bucket array, so it is sampled rarely.
const FEL_BYTES_EVERY: u64 = 4096;

fn kind_of(ev: &NetEvent) -> usize {
    match ev {
        NetEvent::Arrive { .. } => 0,
        NetEvent::PortFree { .. } => 1,
        NetEvent::Timer { .. } => 2,
        NetEvent::FlowStart(_) => 3,
    }
}

/// The `Network` world seen through `World::handle`, counted and timed
/// from outside.
struct TimedWorld {
    net: Network,
    tracer: Arc<Tracer>,
    seen: [u64; KINDS],
    pending_peak: usize,
    fel_bytes_peak: usize,
}

impl World for TimedWorld {
    type Event = NetEvent;

    fn handle(&mut self, ev: NetEvent, sched: &mut Scheduler<NetEvent>) {
        let k = kind_of(&ev);
        self.seen[k] += 1;
        if !self.seen[k].is_multiple_of(STRIDE) {
            return self.net.handle(ev, sched);
        }
        self.pending_peak = self.pending_peak.max(sched.pending() + 1);
        if self.seen[k].is_multiple_of(FEL_BYTES_EVERY) {
            self.fel_bytes_peak = self.fel_bytes_peak.max(sched.fel_bytes());
        }
        self.tracer.enter(k);
        self.net.handle(ev, sched);
        self.tracer.exit();
    }
}

/// One layer of the oracle stack seen through `ClusterOracle`: every call
/// counted, calls made inside a timed event timed.
struct TimedOracle {
    inner: Box<dyn ClusterOracle + Send>,
    tracer: Arc<Tracer>,
    name: usize,
}

impl TimedOracle {
    fn around<T>(&mut self, call: impl FnOnce(&mut dyn ClusterOracle) -> T) -> T {
        self.tracer.count(self.name);
        if !self.tracer.timing() {
            return call(self.inner.as_mut());
        }
        self.tracer.enter(self.name);
        let out = call(self.inner.as_mut());
        self.tracer.exit();
        out
    }
}

impl ClusterOracle for TimedOracle {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        self.around(|o| o.classify(ctx, pkt, now))
    }

    fn classify_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        self.around(|o| o.classify_raw(ctx, pkt, now))
    }

    fn macro_state_of(&self, cluster: u16) -> Option<u8> {
        self.inner.macro_state_of(cluster)
    }
}

// ---------------------------------------------------------------------
// Stand-alone probes
// ---------------------------------------------------------------------

/// One `run_audit` of the compiled scenario: ground truth and hybrid over
/// the same elided flow list and seed. Host-time-free, so it repeats
/// exactly for one (workload, seed).
pub fn audit(p: &Prepared, facts: &mut Facts) {
    let c = &p.compiled;
    let stack = oracle_stack(p, None);
    let run = run_audit(
        c.params,
        c.hybrid.full_cluster,
        stack.oracle,
        c.net_config(),
        &c.hybrid_flows(),
        c.horizon,
        c.audit_bounds.unwrap_or_default(),
        c.sample_every
            .unwrap_or_else(|| SimDuration::from_micros(200)),
        AuditHooks {
            cache: stack.cache,
            guard: stack.guard,
        },
    );
    let d = &run.divergence;
    put(facts, "core.fct_w1_ratio", d.w1_ratio());
    put(facts, "core.fct_ks", d.fct_ks);
    put(facts, "core.drop_rate_err", d.drop_rate_error());
    put(facts, "core.audit_flows_matched", d.flows_matched as f64);
}

/// Hold-model replay on a bare `Scheduler`: keep `pending` events queued,
/// and time pop-one/schedule-one steps with splitmix64-drawn increments.
pub fn hold_ns_per_op(pending: usize) -> f64 {
    const OPS: u64 = 1_000_000;
    const MEAN_GAP_NS: u64 = 2_000;
    let mut rng = 0x5EED_u64;
    let mut sched: Scheduler<u64> = Scheduler::new();
    for i in 0..pending.max(1) as u64 {
        let at = splitmix64(&mut rng) % (MEAN_GAP_NS * pending.max(1) as u64);
        sched.schedule_at(SimTime::from_nanos(at), i);
    }
    let t0 = Instant::now();
    let mut sink = 0u64;
    for _ in 0..OPS {
        let (_, ev) = sched.pop().expect("hold model keeps the queue full");
        sink = sink.wrapping_add(ev);
        let gap = splitmix64(&mut rng) % (2 * MEAN_GAP_NS * pending.max(1) as u64);
        sched.schedule_in(SimDuration::from_nanos(gap), ev);
    }
    std::hint::black_box(sink);
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

/// Stand-alone timing of the loaded up-direction micro model's inference
/// step over the feature vectors kept from the training capture.
pub fn step_infer_ns(model: &ClusterModel, features: &[Vec<f32>]) -> f64 {
    const ROUNDS: usize = 16;
    if features.is_empty() {
        return 0.0;
    }
    let mut state: MicroNetState = model.up.init_state();
    let t0 = Instant::now();
    let mut acc = 0.0f32;
    for _ in 0..ROUNDS {
        for f in features {
            acc += model
                .up
                .predict(std::hint::black_box(f), &mut state)
                .latency;
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / (ROUNDS * features.len()) as f64
}

/// Builds, saves and verifies one run ledger: the fixed cost every CLI and
/// bench run pays for `--metrics-out`.
pub fn ledger_seal_s(path: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut report = RunReport::new("benchmark", "ledger-probe");
    report.set_run(1.0, 1, 1.0);
    let mut ledger = RunLedger::new("benchmark", report);
    ledger.save(path).map_err(|e| e.to_string())?;
    let back = RunLedger::load(path).map_err(|e| e.to_string())?;
    if !back.verify() {
        return Err("sealed ledger failed its own checksum".into());
    }
    Ok(t0.elapsed().as_secs_f64())
}
