//! End-to-end integration: the paper's full §3 workflow across every
//! crate — simulate small, train, deploy large — with assertions on each
//! stage's artifacts.

use elephant::core::{
    compare_cdfs, run_ground_truth, run_hybrid, train_cluster_model, DropPolicy, LearnedOracle,
    TrainingOptions,
};
use elephant::des::SimTime;
use elephant::net::{ClosParams, Direction, IdealOracle, NetConfig, RttScope};
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const TRAIN_HORIZON: SimTime = SimTime::from_millis(25);
const EVAL_HORIZON: SimTime = SimTime::from_millis(25);

fn quick_opts() -> TrainingOptions {
    TrainingOptions {
        epochs: 4,
        ..Default::default()
    }
}

#[test]
fn workflow_produces_usable_model_and_faithful_hybrid() {
    // ---- Stage 1: ground truth with capture ----
    let small = ClosParams::paper_cluster(2);
    let flows = generate(&small, &WorkloadConfig::paper_default(TRAIN_HORIZON, 11));
    assert!(flows.len() > 50, "workload generated {} flows", flows.len());
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, meta) = run_ground_truth(small, cfg, Some(1), &flows, TRAIN_HORIZON);
    assert!(
        meta.events > 100_000,
        "substantive simulation ({} events)",
        meta.events
    );
    assert!(net.stats.flows_completed > 0);
    let records = net
        .into_capture()
        .expect("capture configured")
        .into_records();
    assert!(
        records.len() > 1_000,
        "boundary capture harvested {}",
        records.len()
    );
    // Both directions present, latencies physical.
    assert!(records.iter().any(|r| r.direction == Direction::Up));
    assert!(records.iter().any(|r| r.direction == Direction::Down));
    for r in &records {
        if !r.dropped {
            assert!(
                r.latency.as_secs_f64() > 1e-6,
                "latency {} too small",
                r.latency
            );
            assert!(
                r.latency.as_secs_f64() < 1.0,
                "latency {} too large",
                r.latency
            );
        }
    }

    // ---- Stage 2: training ----
    let (model, report) = train_cluster_model(&records, &small, &quick_opts());
    assert!(report.up.train_samples > 500);
    assert!(report.down.train_samples > 500);
    // The boundary streams are dominated by non-drops; even a short
    // training run must beat always-wrong and track the base rate.
    assert!(
        report.up.eval.drop_accuracy > 0.8,
        "up acc {}",
        report.up.eval.drop_accuracy
    );
    assert!(
        report.down.eval.drop_accuracy > 0.8,
        "down acc {}",
        report.down.eval.drop_accuracy
    );
    assert!(
        report.up.eval.latency_rmse < 0.5,
        "rmse {}",
        report.up.eval.latency_rmse
    );

    // Model serialization round-trips.
    let json = model.to_file_json();
    let restored = elephant::core::ClusterModel::load_json(&json).expect("valid artifact");
    assert_eq!(restored.to_file_json(), json);

    // ---- Stage 3: hybrid deployment at 4 clusters ----
    let big = ClosParams::paper_cluster(4);
    let eval_flows = generate(&big, &WorkloadConfig::paper_default(EVAL_HORIZON, 12));
    let measured = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };
    let (truth, truth_meta) = run_ground_truth(big, measured, None, &eval_flows, EVAL_HORIZON);

    let elided = filter_touching_cluster(&eval_flows, 0);
    assert!(
        elided.len() < eval_flows.len(),
        "elision removed remote-only flows"
    );
    let oracle = LearnedOracle::new(model, big, DropPolicy::Sample, 99);
    let (hybrid, hybrid_meta) =
        run_hybrid(big, 0, Box::new(oracle), measured, &elided, EVAL_HORIZON);

    // The hybrid does meaningfully less work.
    assert!(
        hybrid_meta.events * 2 < truth_meta.events,
        "hybrid {} vs full {} events",
        hybrid_meta.events,
        truth_meta.events
    );
    assert!(hybrid.stats.oracle_deliveries > 100, "oracle exercised");
    assert!(hybrid.stats.flows_completed > 0);

    // Distribution-level accuracy: same order of magnitude at the median
    // and a sane KS distance (the paper's own Figure 4 is visibly offset,
    // so the bound is deliberately loose).
    let cmp = compare_cdfs(&truth.stats.rtt_cdf(), &hybrid.stats.rtt_cdf());
    assert!(cmp.truth_samples > 500 && cmp.approx_samples > 500);
    assert!(cmp.ks < 0.5, "KS {}", cmp.ks);
    let p50 = cmp.rows.iter().find(|r| r.q == 0.50).expect("p50 reported");
    assert!(
        p50.approx > p50.truth / 5.0 && p50.approx < p50.truth * 5.0,
        "median RTT in the right ballpark: truth {} approx {}",
        p50.truth,
        p50.approx
    );
}

#[test]
fn learned_oracle_beats_zero_queueing_baseline() {
    // The learned model must capture congestion that the ideal
    // (zero-queueing) oracle structurally cannot: its RTT distribution
    // should sit closer to ground truth. Run hot (50% load) so queueing
    // actually dominates the RTTs, and give training a real budget.
    let params = ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(40);
    let hot = |seed| {
        let mut wl = WorkloadConfig::paper_default(horizon, seed);
        wl.load = 0.5;
        wl
    };
    let train_flows = generate(&params, &hot(21));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, _) = run_ground_truth(params, cfg, Some(1), &train_flows, horizon);
    let records = net.into_capture().expect("capture").into_records();
    let (model, _) = train_cluster_model(&records, &params, &TrainingOptions::default());

    let eval_flows = generate(&params, &hot(22));
    let measured = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };
    let (truth, _) = run_ground_truth(params, measured, None, &eval_flows, horizon);
    let elided = filter_touching_cluster(&eval_flows, 0);

    let learned = LearnedOracle::new(model, params, DropPolicy::Sample, 5);
    let (hyb_learned, _) = run_hybrid(params, 0, Box::new(learned), measured, &elided, horizon);
    let (hyb_ideal, _) = run_hybrid(params, 0, Box::new(IdealOracle), measured, &elided, horizon);

    // The structural difference (the paper's conclusion: the model "incurs
    // drops and latency on new packets"): the zero-queueing oracle can
    // never drop or queue, the learned one reproduces both.
    assert_eq!(hyb_ideal.stats.drops.oracle, 0, "ideal oracle cannot drop");
    assert!(
        hyb_learned.stats.drops.oracle > 0,
        "learned oracle reproduces fabric loss"
    );
    // Ground truth's remote fabric adds queueing the ideal oracle elides:
    // the learned oracle's latencies must sit above the physical floor.
    let ideal_p90 = hyb_ideal.stats.rtt_cdf().quantile(0.90);
    let learned_p90 = hyb_learned.stats.rtt_cdf().quantile(0.90);
    let truth_p90 = truth.stats.rtt_cdf().quantile(0.90);
    assert!(
        learned_p90 > ideal_p90,
        "learned p90 {learned_p90} above the zero-queueing floor {ideal_p90}"
    );
    // And the overall distribution stays in the truth's neighbourhood
    // (generous: the paper's own Figure 4 is visibly offset, and the exact
    // KS value shifts with the RNG stream backing workload generation).
    let ks_learned = compare_cdfs(&truth.stats.rtt_cdf(), &hyb_learned.stats.rtt_cdf()).ks;
    assert!(ks_learned < 0.4, "learned KS {ks_learned}");
    assert!(
        learned_p90 > truth_p90 * 0.3 && learned_p90 < truth_p90 * 3.0,
        "learned p90 {learned_p90} within 3x of truth {truth_p90}"
    );
}
