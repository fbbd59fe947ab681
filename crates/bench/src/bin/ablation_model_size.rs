//! **Ablation A1 (§7 "Improving accuracy")**: LSTM capacity sweep.
//!
//! "Our prototype currently uses a two-layer LSTM with 128 hidden nodes.
//! Accuracy can be improved by stacking more layers \[and\] using more nodes
//! per layer … adding more complexity may increase the cost of training
//! and prediction." This harness quantifies that trade-off: held-out
//! accuracy versus training wall time and per-packet inference latency,
//! across hidden widths and depths, from one shared capture.

use std::time::Instant;

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{run_ground_truth, train_cluster_model, TrainingOptions, FEATURE_DIM};
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

    let shapes: &[(usize, usize)] = if args.full {
        &[
            (8, 1),
            (16, 1),
            (32, 1),
            (16, 2),
            (32, 2),
            (64, 2),
            (128, 2),
        ]
    } else {
        &[(8, 1), (16, 1), (16, 2), (32, 2)]
    };

    let mut run_report = RunReport::new(
        "ablation_model_size",
        format!(
            "shape sweep {shapes:?}, horizon {horizon}, seed {}",
            args.seed
        ),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &(hidden, layers) in shapes {
        let opts = TrainingOptions {
            hidden,
            layers,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (model, report) = train_cluster_model(&records, &params, &opts);
        let train_wall = t0.elapsed();

        // Inference cost: steady-state per-packet prediction latency.
        let mut state = model.up.init_state();
        let x = vec![0.3f32; FEATURE_DIM];
        let iters = 5_000;
        let t1 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(model.up.predict(&x, &mut state));
        }
        let per_pkt_us = t1.elapsed().as_secs_f64() * 1e6 / iters as f64;

        let acc = (report.up.eval.drop_accuracy + report.down.eval.drop_accuracy) / 2.0;
        let rmse = (report.up.eval.latency_rmse + report.down.eval.latency_rmse) / 2.0;
        run_report.scalar(format!("drop_acc_{layers}x{hidden}"), acc);
        run_report.scalar(format!("latency_rmse_{layers}x{hidden}"), rmse);
        run_report.scalar(format!("infer_us_{layers}x{hidden}"), per_pkt_us);
        rows.push(vec![
            format!("{layers}x{hidden}"),
            fmt_f(acc),
            fmt_f(rmse),
            format!("{:.2}s", train_wall.as_secs_f64()),
            format!("{per_pkt_us:.2}us"),
        ]);
        csv.push(vec![
            hidden.to_string(),
            layers.to_string(),
            format!("{acc}"),
            format!("{rmse}"),
            format!("{}", train_wall.as_secs_f64()),
            format!("{per_pkt_us}"),
        ]);
        eprintln!("  {layers}x{hidden} done");
    }

    print_table(
        "Ablation A1: model capacity vs accuracy vs cost",
        &[
            "shape",
            "drop acc",
            "latency rmse",
            "train wall",
            "inference/pkt",
        ],
        &rows,
    );
    write_csv(
        args.out.join("ablation_model_size.csv"),
        &[
            "hidden",
            "layers",
            "drop_acc",
            "latency_rmse",
            "train_wall_s",
            "infer_us",
        ],
        &csv,
    )
    .expect("write csv");
    println!(
        "\nwrote {}",
        args.out.join("ablation_model_size.csv").display()
    );
    println!("shape target: accuracy saturates while train+inference cost keeps rising (§7).");

    emit_report(&run_report, &args);
}
