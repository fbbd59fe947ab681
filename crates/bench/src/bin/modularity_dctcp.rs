//! **§3 design goal "Modularity"**: "the method we choose must be able to
//! model different protocols and traffic patterns."
//!
//! This harness repeats the train-and-approximate pipeline under a
//! *different transport*: DCTCP on ECN-marking switches instead of TCP
//! New Reno on plain drop-tail. Nothing in the pipeline is told about the
//! change — the boundary capture, features, macro calibration, and micro
//! models are protocol-agnostic — so comparable held-out accuracy under
//! both stacks is direct evidence for the modularity claim.
//!
//! It also reports what the protocols themselves did (ECN marks, drops,
//! RTT quantiles), since DCTCP's whole point is keeping queues short.

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{run_ground_truth, train_cluster_model, TrainingOptions};
use elephant_net::{ClosParams, NetConfig, RttScope, TcpConfig};
use elephant_obs::RunReport;
use elephant_trace::{generate, write_csv, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(40, 200);

    // ECN marking threshold: 30 kB (20 full frames), the DCTCP regime.
    let mut dctcp_params = ClosParams::paper_cluster(2);
    dctcp_params.host_link = dctcp_params.host_link.with_ecn(30_000);
    dctcp_params.fabric_link = dctcp_params.fabric_link.with_ecn(30_000);
    dctcp_params.core_link = dctcp_params.core_link.with_ecn(30_000);

    let variants: &[(&str, ClosParams, TcpConfig)] = &[
        (
            "New Reno",
            ClosParams::paper_cluster(2),
            TcpConfig::default(),
        ),
        ("DCTCP", dctcp_params, TcpConfig::dctcp()),
    ];

    let mut run_report = RunReport::new(
        "modularity_dctcp",
        format!("New Reno vs DCTCP, horizon {horizon}, seed {}", args.seed),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, params, tcp) in variants {
        println!("running + training under {name} ...");
        let flows = generate(params, &WorkloadConfig::paper_default(horizon, args.seed));
        let cfg = NetConfig {
            tcp: *tcp,
            rtt_scope: RttScope::All,
            ..Default::default()
        };
        let (net, _) = run_ground_truth(*params, cfg, Some(1), &flows, horizon);
        let (marks, _) = net.port_totals();
        let drops = net.stats.drops.total();
        let p99 = net.stats.rtt_hist.quantile(0.99);
        let completed = net.stats.flows_completed;
        let records = net.into_capture().expect("capture").into_records();
        let drop_rate =
            records.iter().filter(|r| r.dropped).count() as f64 / records.len().max(1) as f64;

        let (_, report) = train_cluster_model(&records, params, &TrainingOptions::default());
        let acc = (report.up.eval.drop_accuracy + report.down.eval.drop_accuracy) / 2.0;
        let rmse = (report.up.eval.latency_rmse + report.down.eval.latency_rmse) / 2.0;

        let key = name.replace(' ', "_");
        run_report.scalar(format!("drops_{key}"), drops as f64);
        run_report.scalar(format!("ecn_marks_{key}"), marks as f64);
        run_report.scalar(format!("rtt_p99_s_{key}"), p99);
        run_report.scalar(format!("drop_acc_{key}"), acc);
        run_report.scalar(format!("latency_rmse_{key}"), rmse);

        rows.push(vec![
            name.to_string(),
            completed.to_string(),
            drops.to_string(),
            marks.to_string(),
            format!("{:.1}us", p99 * 1e6),
            fmt_f(drop_rate),
            fmt_f(acc),
            fmt_f(rmse),
        ]);
        csv.push(vec![
            name.to_string(),
            completed.to_string(),
            drops.to_string(),
            marks.to_string(),
            format!("{p99}"),
            format!("{drop_rate}"),
            format!("{acc}"),
            format!("{rmse}"),
        ]);
    }

    print_table(
        "Modularity: the same pipeline models two transports",
        &[
            "transport",
            "flows done",
            "drops",
            "ECN marks",
            "RTT p99",
            "fabric drop rate",
            "model drop acc",
            "latency rmse",
        ],
        &rows,
    );
    write_csv(
        args.out.join("modularity_dctcp.csv"),
        &[
            "transport",
            "completed",
            "drops",
            "ecn_marks",
            "rtt_p99_s",
            "fabric_drop_rate",
            "drop_acc",
            "latency_rmse",
        ],
        &csv,
    )
    .expect("write csv");
    println!(
        "\nwrote {}",
        args.out.join("modularity_dctcp.csv").display()
    );
    println!(
        "shape targets: DCTCP marks instead of dropping (fewer drops, lower\n\
         p99); the untouched pipeline reaches comparable accuracy on both."
    );

    emit_report(&run_report, &args);
}
