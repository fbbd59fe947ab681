//! **Figure 4 / §6.1**: CDFs of packet RTTs observed by hosts in the
//! fully simulated cluster — ground truth versus the hybrid simulation —
//! plus the quantitative comparison the paper eyeballs (KS distance and a
//! per-quantile error table).
//!
//! Protocol: train on a two-cluster capture with one seed, then evaluate
//! on a *different* seed: ground truth runs both clusters at full
//! fidelity; the approximate run replaces cluster 1's fabric with the
//! learned oracle and elides traffic that never touches cluster 0. Both
//! runs collect RTT samples only in cluster 0.
//!
//! Shape target (paper): the approximate CDF is steeper (the model
//! under-represents congestion variance) but turns upward at a similar
//! latency to the ground truth.

use elephant_bench::{emit_report, fmt_f, print_table, train_default_model, Args};
use elephant_core::{
    compare_cdfs, macro_agreement, macro_confusion, run_ground_truth, run_hybrid, DropPolicy,
    LatencyCodec, LearnedOracle, TrainingOptions,
};
use elephant_net::{ClosParams, NetConfig, RttScope};
use elephant_obs::RunReport;
use elephant_trace::{filter_touching_cluster, generate, write_xy, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let train_horizon = args.horizon(40, 400);
    let eval_horizon = args.horizon(40, 400);
    let params = ClosParams::paper_cluster(2);

    // Step 1-2: ground truth + training (seed A).
    let mut opts = TrainingOptions::default();
    if args.full {
        opts.epochs = 16;
    }
    println!(
        "training on 2-cluster capture (horizon {train_horizon}, seed {}) ...",
        args.seed
    );
    let (model, report, records) = train_default_model(train_horizon, args.seed, &opts);
    println!(
        "  {} records | up: acc {:.3} rmse {:.3} | down: acc {:.3} rmse {:.3}",
        records.len(),
        report.up.eval.drop_accuracy,
        report.up.eval.latency_rmse,
        report.down.eval.drop_accuracy,
        report.down.eval.latency_rmse,
    );

    // Macro-state drift diagnostic: how often does the deployed
    // (prediction-fed) classifier agree with the truth-fed one?
    let confusion = macro_confusion(
        &records,
        &model.up,
        &model.down,
        model.macro_cfg,
        LatencyCodec::default(),
        &params,
    )
    .unwrap_or_else(|e| panic!("macro confusion diagnostic failed: {e}"));
    println!(
        "  macro-state agreement (auto-regressive vs truth-fed): {:.1}%",
        macro_agreement(&confusion) * 100.0
    );

    // Step 3: evaluate with an unseen seed.
    let eval_seed = args.seed.wrapping_add(1);
    let flows = generate(
        &params,
        &WorkloadConfig::paper_default(eval_horizon, eval_seed),
    );
    let cfg = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };

    println!("ground-truth run ({} flows) ...", flows.len());
    let (truth_net, truth_meta) = run_ground_truth(params, cfg, None, &flows, eval_horizon);

    let elided = filter_touching_cluster(&flows, 0);
    println!("hybrid run ({} flows after elision) ...", elided.len());
    let oracle = LearnedOracle::new(model, params, DropPolicy::Sample, args.seed ^ 0xFEED);
    let (approx_net, approx_meta) =
        run_hybrid(params, 0, Box::new(oracle), cfg, &elided, eval_horizon);

    // Comparison.
    let truth_cdf = truth_net.stats.rtt_cdf();
    let approx_cdf = approx_net.stats.rtt_cdf();
    let cmp = compare_cdfs(&truth_cdf, &approx_cdf);

    let rows: Vec<Vec<String>> = cmp
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("p{:.1}", r.q * 100.0),
                format!("{:.1}us", r.truth * 1e6),
                format!("{:.1}us", r.approx * 1e6),
                format!("{:+.1}%", r.rel_error() * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 4: RTT distribution, ground truth vs approximation",
        &["quantile", "ground truth", "approx", "rel. error"],
        &rows,
    );
    println!(
        "\nKS distance: {}   (samples: {} truth, {} approx)",
        fmt_f(cmp.ks),
        cmp.truth_samples,
        cmp.approx_samples
    );
    println!(
        "events: {} truth vs {} approx | drops: {} truth vs {} approx (oracle {})",
        truth_meta.events,
        approx_meta.events,
        truth_net.stats.drops.total(),
        approx_net.stats.drops.total(),
        approx_net.stats.drops.oracle,
    );

    write_xy(
        args.out.join("figure4_truth.csv"),
        "latency_s",
        "cdf",
        &truth_net.stats.rtt_hist.cdf_points(),
    )
    .expect("write truth CDF");
    write_xy(
        args.out.join("figure4_approx.csv"),
        "latency_s",
        "cdf",
        &approx_net.stats.rtt_hist.cdf_points(),
    )
    .expect("write approx CDF");
    println!(
        "wrote {} and {}",
        args.out.join("figure4_truth.csv").display(),
        args.out.join("figure4_approx.csv").display()
    );
    println!(
        "shape target: approx CDF steeper than truth, knee at a similar\n\
         latency; congestion tail underestimated (paper §6.1)."
    );

    let mut run_report = RunReport::new(
        "figure4",
        format!(
            "2 clusters, eval horizon {eval_horizon}, train seed {}",
            args.seed
        ),
    );
    run_report.set_run(
        approx_meta.wall.as_secs_f64(),
        approx_meta.events,
        approx_meta.sim_seconds,
    );
    run_report.scalar("ks_distance", cmp.ks);
    run_report.scalar("macro_agreement", macro_agreement(&confusion));
    run_report.scalar("truth_events", truth_meta.events as f64);
    run_report.scalar("truth_drops", truth_net.stats.drops.total() as f64);
    run_report.scalar("approx_drops", approx_net.stats.drops.total() as f64);
    run_report.scalar("oracle_drops", approx_net.stats.drops.oracle as f64);
    emit_report(&run_report, &args);
}
