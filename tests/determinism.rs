//! Determinism: the whole pipeline — workload, simulation, capture,
//! training, hybrid deployment — is a pure function of its seeds.
//!
//! This is what makes every figure in EXPERIMENTS.md regenerable: a
//! drive-by `cargo run --bin figureN` produces the committed numbers.

use elephant::core::{
    run_ground_truth, run_hybrid, train_cluster_model, DropPolicy, LearnedOracle, TrainingOptions,
};
use elephant::des::SimTime;
use elephant::net::{ClosParams, NetConfig, RttScope};
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(15);

#[derive(PartialEq, Debug)]
struct Fingerprint {
    flows: usize,
    completed: u64,
    delivered: u64,
    drops: u64,
    events: u64,
    records: usize,
    model_json_len: usize,
    hybrid_completed: u64,
    hybrid_oracle_deliveries: u64,
    hybrid_events: u64,
    rtt_samples: Vec<u64>,
}

fn pipeline(seed: u64) -> Fingerprint {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, seed));
    let cfg = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };
    let (net, meta) = run_ground_truth(params, cfg, Some(1), &flows, HORIZON);
    let rtt_samples: Vec<u64> = net
        .stats
        .raw_rtt()
        .iter()
        .take(500)
        .map(|&s| (s * 1e12) as u64)
        .collect();
    let stats_completed = net.stats.flows_completed;
    let delivered = net.stats.delivered_bytes;
    let drops = net.stats.drops.total();
    let records = net.into_capture().expect("capture").into_records();

    let opts = TrainingOptions {
        epochs: 2,
        ..Default::default()
    };
    let (model, _) = train_cluster_model(&records, &params, &opts);
    let json = model.to_file_json();

    let elided = filter_touching_cluster(&flows, 0);
    let oracle = LearnedOracle::new(model, params, DropPolicy::Sample, seed ^ 0xABCD);
    let (hybrid, hmeta) = run_hybrid(params, 0, Box::new(oracle), cfg, &elided, HORIZON);

    Fingerprint {
        flows: flows.len(),
        completed: stats_completed,
        delivered,
        drops,
        events: meta.events,
        records: records.len(),
        model_json_len: json.len(),
        hybrid_completed: hybrid.stats.flows_completed,
        hybrid_oracle_deliveries: hybrid.stats.oracle_deliveries,
        hybrid_events: hmeta.events,
        rtt_samples,
    }
}

#[test]
fn same_seed_same_everything() {
    let a = pipeline(7);
    let b = pipeline(7);
    assert_eq!(a, b);
}

/// Observability is read-only: running the same pipeline with metric and
/// span collection enabled yields the bit-identical fingerprint (wall
/// clocks are sampled for reporting but never feed simulated time).
#[test]
fn instrumentation_does_not_perturb_results() {
    let baseline = pipeline(7);
    elephant::obs::set_enabled(true);
    let instrumented = pipeline(7);
    elephant::obs::set_enabled(false);
    assert_eq!(
        baseline, instrumented,
        "instrumented run must match uninstrumented run"
    );
}

#[test]
fn different_seed_different_simulation() {
    let a = pipeline(7);
    let b = pipeline(8);
    // The workload differs, so nearly everything downstream must too.
    assert_ne!(
        (a.flows, a.events, &a.rtt_samples),
        (b.flows, b.events, &b.rtt_samples),
        "seeds must actually matter"
    );
}
