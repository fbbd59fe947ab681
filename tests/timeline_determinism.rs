//! The observability layer's determinism contract: turning on the Chrome-
//! trace timeline, the event trace, and the time-series samplers must not
//! change a single simulated outcome. Samplers drive the simulator in
//! chunks instead of scheduling FEL events, and trace/timeline recording
//! only reads state — so an observed run is bit-identical to a blind one.
//!
//! A timeline belongs to its run: it is built from the finished
//! [`Outcome`], so two runs in one process never share records, and a
//! supervised run's timeline holds only the attempts that survived. So do
//! its samples: a run that restored a checkpoint, on either engine,
//! samples exactly what a clean run does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use elephant::core::{
    execute, single_oracle, Exec, Fidelity, Observe, Outcome, PdesExec, RecoveryPolicy, RunPlan,
};
use elephant::des::{EpochMode, SimDuration, SimTime};
use elephant::net::{
    ClosParams, ClusterOracle, FlowSpec, IdealOracle, NetConfig, Network, OracleCtx, OracleVerdict,
    Packet, RttScope, TraceKind, TraceLog, MAX_FLOW_TRACKS,
};
use elephant::obs::{Timeline, TraceRecord, PID_FLOWS, PID_PDES};
use elephant::scenario::{compile, load, CompileOverrides};
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(15);

/// Everything the simulation computes, to full precision: flow counts,
/// bytes, drops, per-flow completion times, and raw RTT samples.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    completed: u64,
    delivered: u64,
    drops: u64,
    oracle_deliveries: u64,
    events: u64,
    fct: Vec<(u64, u64, u64)>,
    rtt_samples: Vec<u64>,
}

fn fingerprint(net: &Network, events: u64) -> Fingerprint {
    Fingerprint {
        completed: net.stats.flows_completed,
        delivered: net.stats.delivered_bytes,
        drops: net.stats.drops.total(),
        oracle_deliveries: net.stats.oracle_deliveries,
        events,
        fct: net
            .stats
            .fct
            .iter()
            .map(|r| (r.flow.0, r.started.as_nanos(), r.completed.as_nanos()))
            .collect(),
        rtt_samples: net
            .stats
            .raw_rtt()
            .iter()
            .take(500)
            .map(|&s| (s * 1e12) as u64)
            .collect(),
    }
}

fn cfg() -> NetConfig {
    NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    }
}

/// Two clusters, sequential, full fidelity or (`hybrid`) cluster 0 behind
/// an ideal oracle, under `observe`.
fn run(flows: &[FlowSpec], hybrid: bool, observe: Observe) -> Outcome {
    let fidelity = match hybrid {
        false => Fidelity::Full { capture: None },
        true => Fidelity::Hybrid {
            full_cluster: 0,
            oracles: &mut single_oracle(Box::new(IdealOracle)),
        },
    };
    let params = ClosParams::paper_cluster(2);
    let mut plan = RunPlan::new(params, cfg(), flows, HORIZON, fidelity);
    plan.observe = observe;
    execute(plan).expect("unsupervised sequential runs cannot fail")
}

/// A strided event trace, samples every `sample_every` if set, and the
/// timeline and profile switches on.
fn traced(sample_every: Option<SimDuration>) -> Observe {
    Observe {
        trace: Some(TraceLog::strided(20_000, 500_000)),
        sample_every,
        timeline: true,
        profile: true,
    }
}

/// The records of `tl` on trace process `pid`.
fn on(tl: &Timeline, pid: u32) -> Vec<&TraceRecord> {
    tl.records.iter().filter(|r| r.pid == pid).collect()
}

#[test]
fn ground_truth_fingerprint_survives_full_observability() {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, 21));

    let out = run(&flows, false, Observe::default());
    let blind = fingerprint(&out.nets[0], out.meta.events);

    // Timeline on, strided trace installed, 50µs samples chunking the run.
    let out = run(&flows, false, traced(Some(SimDuration::from_micros(50))));
    let recorded = out.timeline(&[]).records.len();
    let observed = fingerprint(&out.nets[0], out.meta.events);

    assert!(recorded > 0, "timeline actually captured records");
    assert!(!out.samples.is_empty(), "sampler actually ran");
    assert_eq!(blind, observed, "observability must be invisible");
}

#[test]
fn hybrid_fingerprint_survives_full_observability() {
    let params = ClosParams::paper_cluster(2);
    let flows = filter_touching_cluster(
        &generate(&params, &WorkloadConfig::paper_default(HORIZON, 22)),
        0,
    );

    let out = run(&flows, true, Observe::default());
    let blind = fingerprint(&out.nets[0], out.meta.events);

    let out = run(&flows, true, traced(Some(SimDuration::from_micros(75))));
    let observed = fingerprint(&out.nets[0], out.meta.events);

    assert!(out.oracle_deliveries() > 0, "oracle exercised");
    assert!(!out.samples.is_empty(), "sampler actually ran");
    assert_eq!(blind, observed, "observability must be invisible");
}

/// A scripted stall walks the supervised PDES run down the ladder to the
/// sequential rung: the attempts it abandoned leave no partition slice on
/// the timeline, and its flow spans and instants are those of a clean
/// sequential run of the same plan.
#[test]
fn abandoned_pdes_attempts_leave_nothing_on_the_timeline() {
    let scenario = load("scenarios/recovery_drill.toml").expect("drill scenario loads");
    let compiled = compile(&scenario, &CompileOverrides::default());
    let policy = compiled
        .recovery
        .expect("[recovery] is enabled in the drill");

    let exec = compiled.pdes(None, EpochMode::Adaptive);
    let supervised = compiled
        .run(None, exec, Some(&policy), traced(None), RttScope::All)
        .expect("the ladder ends on the sequential rung");
    let log = supervised.recovery.as_ref().expect("supervised");
    assert!(
        log.restores >= 2 && log.degradations == 2,
        "{}",
        log.summary()
    );
    let degraded = supervised.timeline(&[]);
    assert!(on(&degraded, PID_PDES).is_empty(), "no partition slice");
    assert!(!degraded.to_json().contains("pdes partitions"));

    let clean = compiled
        .run(None, Exec::Sequential, None, traced(None), RttScope::All)
        .expect("unsupervised sequential runs cannot fail");
    let clean = clean.timeline(&[]);
    assert!(!on(&clean, PID_FLOWS).is_empty());
    assert_eq!(on(&degraded, PID_FLOWS), on(&clean, PID_FLOWS));
}

/// Delivers like [`IdealOracle`], except that the first verdict asked
/// for at or after 5 ms panics while `armed` is set. Checkpoint copies
/// share the flag, so the retry after a restore runs clean.
#[derive(Clone)]
struct PanicsOnce {
    armed: Arc<AtomicBool>,
}

impl ClusterOracle for PanicsOnce {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        if now >= SimTime::from_millis(5) && self.armed.swap(false, Ordering::Relaxed) {
            panic!("scripted oracle panic");
        }
        IdealOracle.classify(ctx, pkt, now)
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// Two clusters, cluster 0 at packet fidelity and cluster 1 behind a
/// [`PanicsOnce`] oracle (`armed` or not), on the sequential engine or
/// (`pdes`) two partitions, under `supervise` and `observe`.
fn panics_once(
    pdes: bool,
    armed: bool,
    supervise: Option<&RecoveryPolicy>,
    observe: Observe,
) -> Outcome {
    let params = ClosParams::paper_cluster(2);
    let flows = filter_touching_cluster(
        &generate(&params, &WorkloadConfig::paper_default(HORIZON, 22)),
        0,
    );
    let armed = Arc::new(AtomicBool::new(armed));
    let mut oracles = move |_: Option<usize>| {
        let oracle = PanicsOnce {
            armed: armed.clone(),
        };
        Box::new(oracle) as Box<dyn ClusterOracle + Send>
    };
    let fidelity = Fidelity::Hybrid {
        full_cluster: 0,
        oracles: &mut oracles,
    };
    let mut plan = RunPlan::new(params, cfg(), &flows, HORIZON, fidelity);
    if pdes {
        plan.exec = Exec::Pdes(PdesExec {
            partitions: 2,
            machines: 2,
            envelope_bytes: 0,
            mode: EpochMode::Adaptive,
            faults: None,
        });
    }
    plan.supervise = supervise;
    plan.observe = observe;
    execute(plan).expect("the retry finishes on the engine it started on")
}

/// `outcome` restored once and degraded never.
fn restored_once(outcome: &Outcome) {
    let log = outcome.recovery.as_ref().expect("supervised");
    assert_eq!(
        (log.restores, log.degradations),
        (1, 0),
        "{}",
        log.summary()
    );
}

/// A supervised hybrid PDES run whose oracle panics once: the supervisor
/// restores the 4 ms checkpoint and the retry finishes under PDES. The
/// rolled-back chunk leaves no slice (each partition holds one `work`
/// slice per epoch the report counts), and the flow spans and instants
/// are those of a clean PDES run of the same plan.
#[test]
fn a_restored_pdes_chunk_leaves_nothing_on_the_timeline() {
    let policy = RecoveryPolicy {
        checkpoint_every: SimDuration::from_millis(2),
        max_retries: 1,
    };
    let restored = panics_once(true, true, Some(&policy), traced(None));
    restored_once(&restored);
    let report = restored.report.as_ref().expect("finished under PDES");
    let tl = restored.timeline(&[]);
    for p in &report.partitions {
        let work = on(&tl, PID_PDES)
            .into_iter()
            .filter(|r| r.tid == p.partition as u64 && r.name == "work");
        assert_eq!(
            work.count() as u64,
            report.epochs,
            "partition {}",
            p.partition
        );
    }

    let clean = panics_once(true, false, None, traced(None)).timeline(&[]);
    assert!(!on(&clean, PID_FLOWS).is_empty());
    assert_eq!(on(&tl, PID_FLOWS), on(&clean, PID_FLOWS));
}

/// A supervised hybrid run whose oracle panics once, on `pdes` or the
/// sequential engine, checkpointed every 4 ms and sampled every 300 µs —
/// off each other's grid: the chunk the supervisor rolls back leaves no
/// sample, no checkpoint adds one, and the samples equal a clean run's.
fn restored_run_samples_like_a_clean_run(pdes: bool) {
    let policy = RecoveryPolicy {
        checkpoint_every: SimDuration::from_millis(4),
        max_retries: 1,
    };
    let every = Some(SimDuration::from_micros(300));
    let restored = panics_once(pdes, true, Some(&policy), Observe::sampled(every));
    restored_once(&restored);
    assert_eq!(restored.report.is_some(), pdes, "finished on its engine");

    let clean = panics_once(pdes, false, None, Observe::sampled(every));
    let ticks = (1..=50).map(|k| SimTime::from_micros(300 * k));
    let at: Vec<SimTime> = clean.samples.iter().map(|s| s.at).collect();
    assert_eq!(at, ticks.collect::<Vec<_>>(), "one sample per tick");
    assert_eq!(restored.samples, clean.samples);
}

#[test]
fn a_restored_sequential_run_samples_like_a_clean_run() {
    restored_run_samples_like_a_clean_run(false);
}

#[test]
fn a_restored_pdes_run_samples_like_a_clean_run() {
    restored_run_samples_like_a_clean_run(true);
}

/// Two runs in one process, no reset between them: each timeline holds
/// exactly its own run's records, and the second run leaves the first
/// run's timeline as it was.
#[test]
fn each_run_gets_only_its_own_records() {
    let params = ClosParams::paper_cluster(2);
    let full_flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, 21));
    let hybrid_flows = filter_touching_cluster(
        &generate(&params, &WorkloadConfig::paper_default(HORIZON, 22)),
        0,
    );

    let first = run(
        &full_flows,
        false,
        traced(Some(SimDuration::from_micros(50))),
    );
    let before = first.timeline(&[]).to_json();

    let second = run(
        &hybrid_flows,
        true,
        traced(Some(SimDuration::from_micros(75))),
    );
    let tl = second.timeline(&[]);

    let after = first.timeline(&[]).to_json();
    assert_eq!(before, after, "the second run left nothing on the first");

    // Three counter tracks per sample (the ideal oracle models no macro
    // state), a span per tracked flow, an instant per traced drop or
    // oracle verdict: nothing else.
    let net = &second.nets[0];
    let instants = net.trace().expect("traced").entries().iter().filter(|e| {
        matches!(
            e.kind,
            TraceKind::Drop | TraceKind::OracleDrop | TraceKind::OracleDeliver
        )
    });
    let spans = net.stats.fct.len().min(MAX_FLOW_TRACKS);
    let want = 3 * second.samples.len() + spans + instants.count();
    assert_eq!(tl.records.len(), want);
    assert!(on(&tl, PID_PDES).is_empty());
}
