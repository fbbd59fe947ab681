//! **Ablation A2 (§4.2)**: the loss balance α.
//!
//! "A hyper-parameter α balances the relative contribution of error
//! prediction, L = L_drop + α·L_latency. … In practice, we set α to a
//! value 0 < α ≤ 1 because the contribution of drops in determining future
//! behavior is more significant than latency." This harness sweeps α and
//! reports both heads' held-out quality from one shared capture: larger α
//! buys latency accuracy at (potential) cost to drop classification.

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{run_ground_truth, train_cluster_model, TrainingOptions};
use elephant_net::{ClosParams, NetConfig, RttScope};
use elephant_obs::RunReport;
use elephant_trace::{generate, write_csv, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(40, 200);
    let params = ClosParams::paper_cluster(2);

    println!("capturing ground truth ...");
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, args.seed));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let records = net.into_capture().expect("capture").into_records();
    println!("{} records", records.len());

    let alphas: &[f32] = if args.full {
        &[0.05, 0.1, 0.25, 0.5, 0.75, 1.0]
    } else {
        &[0.1, 0.5, 1.0]
    };

    let mut run_report = RunReport::new(
        "ablation_alpha",
        format!(
            "alpha sweep {alphas:?}, horizon {horizon}, seed {}",
            args.seed
        ),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &alpha in alphas {
        let opts = TrainingOptions {
            alpha,
            ..Default::default()
        };
        let (_, report) = train_cluster_model(&records, &params, &opts);
        let acc = (report.up.eval.drop_accuracy + report.down.eval.drop_accuracy) / 2.0;
        let rmse = (report.up.eval.latency_rmse + report.down.eval.latency_rmse) / 2.0;
        run_report.scalar(format!("drop_acc_alpha{alpha}"), acc);
        run_report.scalar(format!("latency_rmse_alpha{alpha}"), rmse);
        rows.push(vec![format!("{alpha}"), fmt_f(acc), fmt_f(rmse)]);
        csv.push(vec![
            format!("{alpha}"),
            format!("{acc}"),
            format!("{rmse}"),
        ]);
        eprintln!("  alpha={alpha} done");
    }

    print_table(
        "Ablation A2: loss balance alpha",
        &["alpha", "drop acc", "latency rmse"],
        &rows,
    );
    write_csv(
        args.out.join("ablation_alpha.csv"),
        &["alpha", "drop_acc", "latency_rmse"],
        &csv,
    )
    .expect("write csv");
    println!("\nwrote {}", args.out.join("ablation_alpha.csv").display());
    println!("shape target: latency RMSE falls as alpha rises; drop accuracy holds or dips.");

    emit_report(&run_report, &args);
}
