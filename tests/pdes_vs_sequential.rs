//! PDES consistency: the parallel engine must compute the *same
//! simulation* as the sequential engine.
//!
//! Exact bitwise equality is not the contract: simultaneous arrivals at a
//! shared queue are tie-broken by insertion order, which differs between a
//! global event list and per-partition lists (OMNeT++'s PDES has the same
//! property). What must hold: every flow completes in both engines on a
//! drain-to-quiescence run, delivered byte counts match exactly, and event
//! counts agree to within tie-ordering noise.

use elephant::core::{
    capture_records, execute, oracle_stack, run_ground_truth, train_cluster_model, Exec, Fidelity,
    PdesExec, PdesRun, RunPlan, TrainingOptions,
};
use elephant::des::{EpochMode, SimTime};
use elephant::net::{ClosParams, FlowSpec, NetConfig, RttScope};
use elephant::trace::{generate, LoadProfile, Locality, SizeDist, WorkloadConfig};

const ADAPTIVE: EpochMode = EpochMode::Adaptive;

/// The full-fidelity packet simulator under conservative PDES:
/// `partitions` rack partitions dealt over `machines` emulated machines,
/// 64-byte envelopes, epochs planned by `mode`.
fn run_pdes(
    params: ClosParams,
    flows: &[FlowSpec],
    horizon: SimTime,
    partitions: usize,
    machines: usize,
    mode: EpochMode,
) -> PdesRun {
    let fidelity = Fidelity::Full { capture: None };
    let mut plan = RunPlan::new(params, NetConfig::default(), flows, horizon, fidelity);
    plan.exec = Exec::Pdes(PdesExec {
        partitions,
        machines,
        envelope_bytes: 64,
        mode,
        faults: None,
    });
    execute(plan)
        .unwrap_or_else(|e| panic!("{e}"))
        .into_pdes_run()
}

#[test]
fn pdes_matches_sequential_outcomes() {
    let params = ClosParams::leaf_spine(4);
    let gen_horizon = SimTime::from_millis(5);
    let wl = WorkloadConfig {
        load: 0.25,
        sizes: SizeDist::web_search(),
        locality: Locality::leaf_spine(),
        horizon: gen_horizon,
        seed: 31,
        profile: LoadProfile::Constant,
    };
    let flows = generate(&params, &wl);
    assert!(flows.len() >= 10);
    let total_bytes: u64 = flows.iter().map(|f| f.bytes).sum();
    // Long horizon: everything drains.
    let horizon = SimTime::from_secs(30);

    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, meta) = run_ground_truth(params, cfg, None, &flows, horizon);
    assert_eq!(
        net.stats.flows_completed as usize,
        flows.len(),
        "sequential drains"
    );
    assert_eq!(net.stats.delivered_bytes, total_bytes);

    for (partitions, machines) in [(2usize, 1usize), (4, 2), (4, 4)] {
        let out = run_pdes(params, &flows, horizon, partitions, machines, ADAPTIVE);
        // Delivered bytes & completions live inside the partitions'
        // networks, which run_pdes does not return; event-count agreement
        // plus the lookahead assertions inside the engine are the
        // invariant here.
        let seq = meta.events as f64;
        let par = out.report.events_executed as f64;
        let rel = (seq - par).abs() / seq;
        assert!(
            rel < 0.05,
            "event counts diverged beyond tie noise: sequential {seq}, \
             pdes({partitions},{machines}) {par} (rel {rel:.4})"
        );
    }
}

#[test]
fn pdes_event_totals_are_reproducible() {
    // Two identical PDES runs must agree exactly with each other: thread
    // interleaving may vary, but each partition's event stream is fixed by
    // the lookahead barrier discipline... except for mailbox append order
    // at identical timestamps, which epoch-based delivery sorts by time.
    let params = ClosParams::leaf_spine(4);
    let wl = WorkloadConfig {
        load: 0.2,
        sizes: SizeDist::fixed(30_000),
        locality: Locality::leaf_spine(),
        horizon: SimTime::from_millis(3),
        seed: 77,
        profile: LoadProfile::Constant,
    };
    let flows = generate(&params, &wl);
    let horizon = SimTime::from_secs(10);
    let a = run_pdes(params, &flows, horizon, 4, 2, ADAPTIVE);
    let b = run_pdes(params, &flows, horizon, 4, 2, ADAPTIVE);
    assert_eq!(a.report.remote_messages, b.report.remote_messages);
    // Event totals can differ only through same-instant mailbox ordering;
    // for this workload they should be stable.
    let rel = (a.report.events_executed as f64 - b.report.events_executed as f64).abs()
        / a.report.events_executed as f64;
    assert!(
        rel < 0.01,
        "repeat runs diverged: {:?} vs {:?}",
        a.report,
        b.report
    );
}

/// Everything a PDES run computes, per partition, to full precision.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    completed: u64,
    delivered: u64,
    drops: u64,
    events: u64,
    remote_sent: u64,
    fct: Vec<(u64, u64, u64)>,
}

fn fingerprints(run: &PdesRun) -> Vec<Fingerprint> {
    run.nets
        .iter()
        .zip(&run.report.partitions)
        .map(|(net, p)| Fingerprint {
            completed: net.stats.flows_completed,
            delivered: net.stats.delivered_bytes,
            drops: net.stats.drops.total(),
            events: p.events,
            remote_sent: p.remote_events_sent,
            fct: net
                .stats
                .fct
                .iter()
                .map(|r| (r.flow.0, r.started.as_nanos(), r.completed.as_nanos()))
                .collect(),
        })
        .collect()
}

#[test]
fn adaptive_and_fixed_epochs_compute_identical_simulations() {
    // Uneven partition loads (all traffic confined to half the racks) plus
    // a long idle gap (a second flow wave 12ms after the first drains):
    // the two conditions where the adaptive planner diverges most from
    // fixed-increment stepping. The simulations must still be
    // bit-identical — per-partition completions, delivered bytes, drops,
    // event counts, and every flow-completion time to the nanosecond —
    // while the adaptive planner executes strictly fewer epochs and jumps
    // the gap instead of grinding it.
    let params = ClosParams::leaf_spine(4);
    let wl = WorkloadConfig {
        load: 0.3,
        sizes: SizeDist::fixed(30_000),
        locality: Locality::leaf_spine(),
        horizon: SimTime::from_millis(2),
        seed: 53,
        profile: LoadProfile::Constant,
    };
    // Uneven: keep only flows whose endpoints both sit in racks 0-1, so
    // partitions 2-3 see nothing but pass-through fabric traffic.
    let mut flows: Vec<_> = generate(&params, &wl)
        .into_iter()
        .filter(|f| f.src.rack < 2 && f.dst.rack < 2)
        .collect();
    assert!(flows.len() >= 4, "workload too small: {}", flows.len());
    // Idle gap: replay the same wave 12ms later (thousands of lookaheads).
    let wave: Vec<_> = flows.clone();
    for f in wave {
        let mut f = f;
        f.id = elephant::net::FlowId(f.id.0 + 1_000_000);
        f.start = SimTime::from_nanos(f.start.as_nanos() + 12_000_000);
        flows.push(f);
    }
    let horizon = SimTime::from_millis(24);

    let adaptive = run_pdes(params, &flows, horizon, 4, 2, EpochMode::Adaptive);
    let fixed = run_pdes(params, &flows, horizon, 4, 2, EpochMode::Fixed);

    assert_eq!(
        fingerprints(&adaptive),
        fingerprints(&fixed),
        "epoch planning changed the simulation"
    );
    assert!(
        adaptive.report.epochs < fixed.report.epochs,
        "adaptive must execute strictly fewer epochs: {} vs {}",
        adaptive.report.epochs,
        fixed.report.epochs
    );
    assert!(
        adaptive.report.epochs_jumped > 0,
        "the idle gap must be jumped, not ground through"
    );
    assert_eq!(fixed.report.epochs_jumped, 0, "fixed mode never jumps");
    // The load imbalance must actually hold, or this test is vacuous.
    let events: Vec<u64> = adaptive
        .report
        .partitions
        .iter()
        .map(|p| p.events)
        .collect();
    assert!(
        events[0] + events[1] > 4 * (events[2] + events[3]),
        "expected uneven loads, got {events:?}"
    );
}

#[test]
fn hybrid_pdes_smoke() {
    // The hybrid simulator under conservative PDES: cluster-wise
    // partitions, each with its own oracle stack around shared weights.
    // Verifies the lookahead discipline holds (the engine asserts it) and
    // that boundary traffic actually flows across partitions.
    // Train on a two-cluster ground-truth run captured around cluster 1.
    let train_horizon = SimTime::from_millis(15);
    let train_params = ClosParams::paper_cluster(2);
    let train_flows = generate(
        &train_params,
        &WorkloadConfig::paper_default(train_horizon, 3),
    );
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, _) = run_ground_truth(train_params, cfg, Some(1), &train_flows, train_horizon);
    let records = capture_records(net).expect("capture enabled");
    let opts = TrainingOptions {
        epochs: 2,
        ..Default::default()
    };
    let (model, _) = train_cluster_model(&records, &train_params, &opts);

    let horizon = SimTime::from_millis(10);
    let params = ClosParams::paper_cluster(4);
    let flows = elephant::trace::filter_touching_cluster(
        &generate(&params, &WorkloadConfig::paper_default(horizon, 4)),
        0,
    );
    assert!(!flows.is_empty());
    let mut oracles =
        |p: Option<usize>| oracle_stack(model.clone(), params, 9, p, None, None).oracle;
    let fidelity = Fidelity::Hybrid {
        full_cluster: 0,
        oracles: &mut oracles,
    };
    let mut plan = RunPlan::new(params, NetConfig::default(), &flows, horizon, fidelity);
    plan.exec = Exec::Pdes(PdesExec {
        partitions: 0, // hybrid runs partition by cluster
        machines: 2,
        envelope_bytes: 64,
        mode: ADAPTIVE,
        faults: None,
    });
    let run = execute(plan).unwrap_or_else(|e| panic!("{e}"));
    let oracle_pkts = run.oracle_deliveries();
    let out = run.into_pdes_run();
    assert!(
        out.report.events_executed > 10_000,
        "events {}",
        out.report.events_executed
    );
    assert!(
        out.report.remote_messages > 100,
        "cross-partition traffic flows"
    );
    assert!(
        oracle_pkts > 100,
        "oracles exercised in their partitions: {oracle_pkts}"
    );
}
