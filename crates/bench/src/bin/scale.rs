//! **§6.2/§7 scaling claim**: "these results indicate that our method has
//! the potential to scale to hundreds of clusters and thousands of
//! machines while still keeping the runtime to a useful result low" — and
//! §7's converse: full simulation exhausts memory holding "state for
//! millions of TCP connections".
//!
//! This harness extends Figure 5 to larger networks than the paper ran
//! (up to 64 clusters = 512 hosts by default, 128 with `--full`), and
//! reports the two quantities that decide scalability: wall time and live
//! state (flows and TCP connections instantiated). The hybrid's costs stay
//! roughly flat as the network grows — only the observed cluster's share
//! of traffic is ever materialized — while full simulation grows linearly
//! in both.

use elephant_bench::{emit_report, fmt_f, fmt_secs, print_table, train_default_model, Args};
use elephant_core::{run_ground_truth, run_hybrid, DropPolicy, LearnedOracle, TrainingOptions};
use elephant_net::{ClosParams, NetConfig, RttScope};
use elephant_obs::RunReport;
use elephant_trace::{filter_touching_cluster, generate, write_csv, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(15, 40);
    let cluster_counts: &[u16] = if args.full {
        &[8, 16, 32, 64, 128]
    } else {
        &[8, 16, 32, 64]
    };

    println!("training the reusable cluster model ...");
    let (model, _, _) = train_default_model(
        args.horizon(30, 100),
        args.seed,
        &TrainingOptions::default(),
    );

    elephant_obs::set_enabled(true);
    let mut report = RunReport::new(
        "scale",
        format!(
            "clusters {cluster_counts:?}, horizon {horizon}, seed {}",
            args.seed
        ),
    );
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut fel_peak = 0u64;
    for &n in cluster_counts {
        let params = ClosParams::paper_cluster(n);
        let flows = generate(
            &params,
            &WorkloadConfig::paper_default(horizon, args.seed.wrapping_add(2)),
        );
        let elided = filter_touching_cluster(&flows, 0);

        let (_, full_meta) = run_ground_truth(params, cfg, None, &flows, horizon);

        let oracle = LearnedOracle::new(
            model.clone(),
            params,
            DropPolicy::Sample,
            args.seed ^ 0x5CA1E,
        );
        let (hnet, hybrid_meta) = run_hybrid(params, 0, Box::new(oracle), cfg, &elided, horizon);

        fel_peak = fel_peak
            .max(full_meta.fel_peaks.bytes)
            .max(hybrid_meta.fel_peaks.bytes);
        let speedup = full_meta.wall.as_secs_f64() / hybrid_meta.wall.as_secs_f64().max(1e-9);
        report.scalar(format!("speedup_n{n}"), speedup);
        report.scalar(
            format!("hybrid_wall_s_n{n}"),
            hybrid_meta.wall.as_secs_f64(),
        );
        if n == *cluster_counts.last().expect("nonempty cluster counts") {
            report.set_run(
                hybrid_meta.wall.as_secs_f64(),
                hybrid_meta.events,
                hybrid_meta.sim_seconds,
            );
        }
        rows.push(vec![
            n.to_string(),
            params.total_hosts().to_string(),
            flows.len().to_string(),
            elided.len().to_string(),
            fmt_secs(full_meta.wall),
            fmt_secs(hybrid_meta.wall),
            fmt_f(speedup),
            hnet.stats.oracle_deliveries.to_string(),
        ]);
        csv.push(vec![
            n.to_string(),
            flows.len().to_string(),
            elided.len().to_string(),
            format!("{}", full_meta.wall.as_secs_f64()),
            format!("{}", hybrid_meta.wall.as_secs_f64()),
            format!("{speedup}"),
        ]);
        eprintln!("  {n} clusters done ({})", fmt_f(speedup));
    }

    print_table(
        "Scaling beyond the paper: full vs hybrid cost as the DC grows",
        &[
            "clusters",
            "hosts",
            "flows (full)",
            "flows (hybrid)",
            "full wall",
            "hybrid wall",
            "speedup",
            "oracle pkts",
        ],
        &rows,
    );
    write_csv(
        args.out.join("scale.csv"),
        &[
            "clusters",
            "full_flows",
            "hybrid_flows",
            "full_wall_s",
            "hybrid_wall_s",
            "speedup",
        ],
        &csv,
    )
    .expect("write csv");
    println!("\nwrote {}", args.out.join("scale.csv").display());
    println!(
        "shape target: full-simulation cost and state grow ~linearly with\n\
         cluster count while the hybrid's stay nearly flat — the §6.2/§7\n\
         scalability argument. TCP connection state follows the flow\n\
         columns: the hybrid never materializes remote-only connections."
    );

    // FEL memory substrate: each run's meta carries the high-water mark
    // of the event list's resident bytes. Surface the sweep's maximum (and
    // a per-host figure at the largest network) so scaling runs track
    // queue memory alongside wall time.
    let top_hosts =
        ClosParams::paper_cluster(*cluster_counts.last().expect("nonempty")).total_hosts() as f64;
    report.scalar("fel_bytes_peak", fel_peak as f64);
    report.scalar("fel_bytes_per_host", fel_peak as f64 / top_hosts.max(1.0));
    println!(
        "FEL high-water mark across the sweep: {fel_peak} bytes \
         ({:.1} B/host at {} hosts)",
        fel_peak as f64 / top_hosts.max(1.0),
        top_hosts as u64,
    );

    report.gather();
    emit_report(&report, &args);
}
