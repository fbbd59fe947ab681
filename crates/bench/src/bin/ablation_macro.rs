//! **Ablation A3 (§4.1)**: does the macro-state feature help the micro
//! model?
//!
//! The paper's hierarchy rests on the claim that the micro model benefits
//! from knowing the current congestion regime. We train twice from the
//! same capture: once normally, and once with the macro classifier's
//! thresholds pinned so it never leaves `Minimal` — the one-hot feature
//! becomes a constant and carries no information. A workload with an
//! incast burst (so regimes actually vary) makes the difference visible.

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{run_ground_truth, train_cluster_model, MacroConfig, TrainingOptions};
use elephant_net::{ClosParams, HostAddr, NetConfig, RttScope};
use elephant_obs::RunReport;
use elephant_trace::{generate, incast, write_csv, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(40, 200);
    let params = ClosParams::paper_cluster(2);

    // Bursty workload so macro states carry signal.
    let mut flows = generate(&params, &WorkloadConfig::paper_default(horizon, args.seed));
    let max_id = flows.iter().map(|f| f.id.0).max().unwrap_or(0);
    let senders: Vec<HostAddr> = (0..8)
        .map(|i| HostAddr::new(0, (i % 2) as u16, (i / 2 % 4) as u16))
        .collect();
    for k in 0..3u64 {
        let at = elephant_des::SimTime::from_nanos(horizon.as_nanos() * (k + 1) / 4);
        flows.extend(incast(
            &senders,
            HostAddr::new(1, 0, 0),
            300_000,
            at,
            max_id + 1 + k * 100,
        ));
    }
    flows.sort_by_key(|f| (f.start, f.id.0));

    println!("capturing bursty ground truth ...");
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let records = net.into_capture().expect("capture").into_records();
    let drop_rate =
        records.iter().filter(|r| r.dropped).count() as f64 / records.len().max(1) as f64;
    println!("{} records, drop rate {}", records.len(), fmt_f(drop_rate));

    // A macro config whose thresholds can never fire: latency_low = +inf
    // keeps the state pinned at Minimal, drop_high > 1 never triggers.
    let pinned = MacroConfig {
        latency_low: f64::INFINITY,
        drop_high: 2.0,
        ..MacroConfig::default()
    };

    let variants: [(&str, Option<MacroConfig>); 2] = [
        ("with macro state", None),
        ("macro state ablated", Some(pinned)),
    ];
    let mut run_report = RunReport::new(
        "ablation_macro",
        format!(
            "bursty 2-cluster capture, horizon {horizon}, seed {}",
            args.seed
        ),
    );
    run_report.scalar("capture_drop_rate", drop_rate);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, over) in variants {
        let opts = TrainingOptions {
            macro_override: over,
            ..Default::default()
        };
        let (_, report) = train_cluster_model(&records, &params, &opts);
        let acc = (report.up.eval.drop_accuracy + report.down.eval.drop_accuracy) / 2.0;
        let rmse = (report.up.eval.latency_rmse + report.down.eval.latency_rmse) / 2.0;
        let key = name.replace(' ', "_");
        run_report.scalar(format!("drop_acc_{key}"), acc);
        run_report.scalar(format!("latency_rmse_{key}"), rmse);
        rows.push(vec![name.to_string(), fmt_f(acc), fmt_f(rmse)]);
        csv.push(vec![name.to_string(), format!("{acc}"), format!("{rmse}")]);
        eprintln!("  {name} done");
    }

    print_table(
        "Ablation A3: macro-state feature on/off",
        &["variant", "drop acc", "latency rmse"],
        &rows,
    );
    write_csv(
        args.out.join("ablation_macro.csv"),
        &["variant", "drop_acc", "latency_rmse"],
        &csv,
    )
    .expect("write csv");
    println!("\nwrote {}", args.out.join("ablation_macro.csv").display());
    println!("shape target: ablating the macro feature should not *improve* accuracy;");
    println!("under bursty load it typically costs latency accuracy (§4.1's rationale).");

    emit_report(&run_report, &args);
}
