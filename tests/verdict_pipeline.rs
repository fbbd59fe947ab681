//! The verdict pipeline's contract (DESIGN.md "The verdict pipeline"): a
//! sequential hybrid run that serves its verdicts on a worker thread
//! simulates exactly what the same run served inline does. Compared to
//! the bit: the run fingerprint and event count, the oracle's own
//! counters, the guard's and the cache's counters and trip log, the
//! samples, and the event trace. Cells cover the learned stack without and
//! with its verdict cache, a guard that trips into permanent fallback,
//! single-chunk and sampled (chunked) runs, and a supervised run that
//! restores a checkpoint. `Serving::Pipelined` runs the worker whatever
//! the core count, so on one core this exercises the threads' park path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use elephant::core::{
    execute, oracle_stack, CacheStats, ClusterModel, Fidelity, LatencyCodec, MacroConfig,
    ModelMeta, Observe, Outcome, RecoveryPolicy, RunPlan, Serving,
};
use elephant::des::{SimDuration, SimTime, SmallRng};
use elephant::net::{
    ClosParams, ClusterOracle, FaultyOracle, FixedLatencyOracle, FlowSpec, GuardConfig,
    GuardSnapshot, GuardedOracle, NetConfig, OracleCtx, OracleFaultMode, OracleVerdict, Packet,
    RawVerdict, RttScope, Sample, TraceLog,
};
use elephant::nn::{MicroNet, MicroNetConfig};
use elephant::scenario::run_fingerprint;
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(6);
const SEEDS: [u64; 3] = [3, 14, 15];

/// A structurally valid, untrained model: arbitrary but deterministic
/// verdicts, with sampled drops so the oracle's RNG stream matters.
fn untrained_model() -> ClusterModel {
    let cfg = MicroNetConfig {
        input: elephant::core::FEATURE_DIM,
        hidden: 8,
        layers: 1,
        alpha: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(5);
    ClusterModel {
        up: MicroNet::new(cfg, &mut rng),
        down: MicroNet::new(cfg, &mut rng),
        macro_cfg: MacroConfig::default(),
        codec: LatencyCodec::default(),
        meta: ModelMeta::default(),
    }
}

/// The oracle stacks under test.
#[derive(Clone, Copy, Debug)]
enum Stack {
    /// Learned oracle under the guard, no cache.
    Learned,
    /// Learned oracle with its verdict cache, under the guard.
    Cached,
    /// A NaN-emitting oracle whose guard trips into permanent fallback.
    Tripping,
    /// Every delivery exactly one latency floor after its request, under
    /// the guard: the most same-instant ties between a delivery and the
    /// events posted while its verdict was on the worker.
    AtTheFloor,
}

/// An oracle stack plus the handles onto its counters.
struct Built {
    oracle: Box<dyn ClusterOracle + Send>,
    guard: elephant::net::GuardStatsHandle,
    cache: Option<elephant::core::CacheStatsHandle>,
}

fn build(stack: Stack, seed: u64) -> Built {
    let params = ClosParams::paper_cluster(2);
    let guard_cfg = GuardConfig::default();
    let learned = |cache| {
        oracle_stack(
            untrained_model(),
            params,
            seed,
            None,
            cache,
            Some(&guard_cfg),
        )
    };
    match stack {
        Stack::Learned | Stack::Cached => {
            let cap = matches!(stack, Stack::Cached).then_some(4096);
            let s = learned(cap);
            Built {
                oracle: s.oracle,
                guard: s.guard.expect("guarded"),
                cache: s.cache,
            }
        }
        Stack::Tripping | Stack::AtTheFloor => {
            let primary: Box<dyn ClusterOracle + Send> = match stack {
                Stack::Tripping => Box::new(FaultyOracle::new(
                    OracleFaultMode::Nan,
                    3,
                    SimDuration::from_micros(5),
                )),
                _ => Box::new(FixedLatencyOracle(
                    NetConfig::default().oracle_latency_floor,
                )),
            };
            let guarded = GuardedOracle::new(
                primary,
                Box::new(FixedLatencyOracle(SimDuration::from_micros(40))),
                GuardConfig {
                    trip_limit: 16,
                    ..Default::default()
                },
            );
            Built {
                guard: guarded.stats_handle(),
                oracle: Box::new(guarded),
                cache: None,
            }
        }
    }
}

/// Forwards to the stack it wraps, except that the first verdict asked
/// for at or after 3 ms panics while `armed` is set. Checkpoint copies
/// share the flag, so the retry after a restore runs clean.
struct PanicsOnce {
    inner: Box<dyn ClusterOracle + Send>,
    armed: Arc<AtomicBool>,
}

impl PanicsOnce {
    fn check(&self, now: SimTime) {
        if now >= SimTime::from_millis(3) && self.armed.swap(false, Ordering::Relaxed) {
            panic!("scripted oracle panic");
        }
    }
}

impl ClusterOracle for PanicsOnce {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        self.check(now);
        self.inner.classify(ctx, pkt, now)
    }

    fn classify_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        self.check(now);
        self.inner.classify_raw(ctx, pkt, now)
    }

    fn macro_state_of(&self, cluster: u16) -> Option<u8> {
        self.inner.macro_state_of(cluster)
    }

    fn oracle_stats(&self) -> Option<&elephant::net::OracleStats> {
        self.inner.oracle_stats()
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        Some(Box::new(PanicsOnce {
            inner: self.inner.clone_box()?,
            armed: Arc::clone(&self.armed),
        }))
    }
}

/// How a cell is driven besides its serving.
#[derive(Clone, Copy, Debug)]
struct Drive {
    /// Sample (and so run in chunks) every this many microseconds.
    sample_us: Option<u64>,
    /// Supervise with 1 ms checkpoints, and have the oracle panic once.
    restore: bool,
}

/// Everything a run computed that the pipeline could move.
#[derive(Debug, PartialEq)]
struct Seen {
    fingerprint: u64,
    events: u64,
    /// The oracle's counters: classified, drops, per macro state.
    oracle: Option<(u64, u64, [u64; 4])>,
    guard: GuardSnapshot,
    trips: Vec<(SimTime, String)>,
    cache: Option<CacheStats>,
    samples: Vec<Sample>,
    /// (time, kind, node, packet, flow, seq) of every kept entry, and how
    /// many were observed.
    trace: Vec<(u64, &'static str, u32, u64, u64, u64)>,
    trace_observed: u64,
    restores: u64,
}

fn flows(seed: u64) -> Vec<FlowSpec> {
    let params = ClosParams::paper_cluster(2);
    let all = generate(&params, &WorkloadConfig::paper_default(HORIZON, seed));
    filter_touching_cluster(&all, 0)
}

fn run(stack: Stack, seed: u64, drive: Drive, serving: Serving) -> Seen {
    let flows = flows(seed);
    let built = build(stack, seed);
    let armed = Arc::new(AtomicBool::new(drive.restore));
    let mut oracle = Some(Box::new(PanicsOnce {
        inner: built.oracle,
        armed,
    }) as Box<dyn ClusterOracle + Send>);
    let mut factory = |_: Option<usize>| oracle.take().expect("one sequential oracle");
    let cfg = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };
    let fidelity = Fidelity::Hybrid {
        full_cluster: 0,
        oracles: &mut factory,
    };
    let policy = RecoveryPolicy {
        checkpoint_every: SimDuration::from_millis(1),
        max_retries: 1,
    };
    let mut plan = RunPlan::new(ClosParams::paper_cluster(2), cfg, &flows, HORIZON, fidelity);
    plan.serving = serving;
    plan.supervise = drive.restore.then_some(&policy);
    plan.observe = Observe {
        trace: Some(TraceLog::strided(4_000, 40_000)),
        sample_every: drive.sample_us.map(SimDuration::from_micros),
        timeline: false,
        profile: true,
    };
    let out: Outcome = execute(plan).expect("the run completes");
    assert_eq!(
        out.meta.verdicts.is_some(),
        serving == Serving::Pipelined,
        "a profiled run keeps verdict clocks exactly when a worker served it"
    );
    let [net] = &out.nets[..] else {
        panic!("a sequential run ends in one network")
    };
    let trace = net.trace().expect("traced");
    Seen {
        fingerprint: run_fingerprint(&out.nets),
        events: out.meta.events,
        oracle: net
            .oracle_stats()
            .map(|o| (o.classified, o.drops, o.per_state)),
        guard: built.guard.snapshot(),
        trips: (built.guard.trip_events().into_iter())
            .map(|(t, v)| (t, format!("{v:?}")))
            .collect(),
        cache: built.cache.map(|c| c.snapshot()),
        samples: out.samples,
        trace: (trace.entries().iter())
            .map(|e| {
                let kind = e.kind.name();
                (e.time.as_nanos(), kind, e.node.0, e.packet, e.flow.0, e.seq)
            })
            .collect(),
        trace_observed: trace.observed(),
        restores: out.recovery.map_or(0, |log| log.restores),
    }
}

/// Runs every seed of `stack` under `drive` inline and pipelined, and
/// checks they agree; returns the inline runs.
fn pipelined_equals_inline(stack: Stack, drive: Drive) -> Vec<Seen> {
    SEEDS
        .iter()
        .map(|&seed| {
            let inline = run(stack, seed, drive, Serving::Inline);
            let pipelined = run(stack, seed, drive, Serving::Pipelined);
            assert_eq!(pipelined, inline, "{stack:?} seed {seed} {drive:?}");
            inline
        })
        .collect()
}

const ONE_CHUNK: Drive = Drive {
    sample_us: None,
    restore: false,
};
const SAMPLED: Drive = Drive {
    sample_us: Some(250),
    restore: false,
};

#[test]
fn pipelined_equals_inline_without_the_cache() {
    for seen in pipelined_equals_inline(Stack::Learned, ONE_CHUNK) {
        assert!(seen.guard.verdicts > 0, "the oracle served verdicts");
        let (_, drops, _) = seen.oracle.expect("the learned oracle counts");
        assert!(drops > 0, "the oracle dropped packets");
        for kind in ["oracle_deliver", "oracle_drop"] {
            assert!(seen.trace.iter().any(|e| e.1 == kind), "{kind} traced");
        }
        assert_eq!(seen.cache, None);
    }
}

#[test]
fn pipelined_equals_inline_with_the_cache() {
    for seen in pipelined_equals_inline(Stack::Cached, ONE_CHUNK) {
        let cache = seen.cache.expect("cached");
        assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
    }
}

#[test]
fn pipelined_equals_inline_through_a_tripping_guard() {
    for seen in pipelined_equals_inline(Stack::Tripping, SAMPLED) {
        assert!(seen.guard.fallback_active, "{:?}", seen.guard);
        assert!(seen.trips.len() >= 16, "{} trips", seen.trips.len());
    }
}

#[test]
fn pipelined_equals_inline_when_sampled() {
    for stack in [Stack::Learned, Stack::Cached] {
        for seen in pipelined_equals_inline(stack, SAMPLED) {
            assert_eq!(seen.samples.len(), 24, "one sample per tick");
        }
    }
}

#[test]
fn pipelined_equals_inline_at_the_floor() {
    for seen in pipelined_equals_inline(Stack::AtTheFloor, SAMPLED) {
        assert_eq!(seen.guard.trips(), 0, "{:?}", seen.guard);
        assert!(seen.guard.verdicts > 0);
    }
}

/// A supervised run whose oracle panics once — on the worker, when
/// pipelined — restores its 3 ms checkpoint and finishes like the same run
/// served inline, and like a clean run.
#[test]
fn pipelined_equals_inline_through_a_restore() {
    let drive = Drive {
        sample_us: Some(250),
        restore: true,
    };
    for (seen, seed) in pipelined_equals_inline(Stack::Cached, drive)
        .into_iter()
        .zip(SEEDS)
    {
        assert_eq!(seen.restores, 1, "seed {seed}");
        let clean = run(Stack::Cached, seed, SAMPLED, Serving::Pipelined);
        assert_eq!(seen.fingerprint, clean.fingerprint, "seed {seed}");
        assert_eq!(seen.samples, clean.samples, "seed {seed}");
        assert_eq!(seen.trace, clean.trace, "seed {seed}");
    }
}
