//! The observability layer's determinism contract: turning on the Chrome-
//! trace timeline, the event trace, and the time-series samplers must not
//! change a single simulated outcome. Samplers drive the simulator in
//! chunks instead of scheduling FEL events, and trace/timeline recording
//! only reads state — so an observed run is bit-identical to a blind one.

use elephant::core::{execute, single_oracle, Fidelity, Observe, RunMeta, RunPlan};
use elephant::des::{SimDuration, SimTime};
use elephant::net::{
    ClosParams, FlowSpec, IdealOracle, NetConfig, NetSampler, Network, RttScope, TraceLog,
};
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
fn run(flows: &[FlowSpec], hybrid: bool, observe: Observe<'_>) -> (Network, RunMeta) {
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
    execute(plan)
        .expect("unsupervised sequential runs cannot fail")
        .into_single()
}

#[test]
fn ground_truth_fingerprint_survives_full_observability() {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, 21));

    let (net, meta) = run(&flows, false, Observe::default());
    let blind = fingerprint(&net, meta.events);

    // Timeline on, strided trace installed, 50µs sampler chunking the run.
    elephant::obs::timeline().reset();
    elephant::obs::set_timeline_enabled(true);
    let mut sampler = NetSampler::new(SimDuration::from_micros(50), &flows);
    let observe = Observe {
        trace: Some(TraceLog::strided(20_000, 500_000)),
        sampler: Some(&mut sampler),
    };
    let (net, meta) = run(&flows, false, observe);
    elephant::net::export_flow_timeline(&net, 32);
    elephant::obs::set_timeline_enabled(false);
    let recorded = elephant::obs::timeline().len();
    elephant::obs::timeline().reset();
    let observed = fingerprint(&net, meta.events);

    assert!(recorded > 0, "timeline actually captured records");
    assert!(!sampler.rows().is_empty(), "sampler actually ran");
    assert_eq!(blind, observed, "observability must be invisible");
}

#[test]
fn hybrid_fingerprint_survives_full_observability() {
    let params = ClosParams::paper_cluster(2);
    let flows = filter_touching_cluster(
        &generate(&params, &WorkloadConfig::paper_default(HORIZON, 22)),
        0,
    );

    let (net, meta) = run(&flows, true, Observe::default());
    let blind = fingerprint(&net, meta.events);

    let mut sampler = NetSampler::new(SimDuration::from_micros(75), &flows);
    let observe = Observe {
        trace: Some(TraceLog::strided(20_000, 500_000)),
        sampler: Some(&mut sampler),
    };
    let (net, meta) = run(&flows, true, observe);
    let observed = fingerprint(&net, meta.events);

    assert!(net.stats.oracle_deliveries > 0, "oracle exercised");
    assert!(!sampler.rows().is_empty(), "sampler actually ran");
    assert_eq!(blind, observed, "observability must be invisible");
}
