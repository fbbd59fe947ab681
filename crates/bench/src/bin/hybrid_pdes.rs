//! **§6.2 speedup source #3**: "the approximate version was run in
//! parallel. Because the interdependencies between cluster fabric switches
//! are removed, parallel execution provides better speedups here than it
//! does for full simulation."
//!
//! This harness quantifies the *structural* part of that claim, which is
//! measurable even on one core: how much synchronization a partitioning
//! needs. Full-fidelity PDES must cut through the fabric (lookahead = one
//! link delay, cross-partition messages on every fabric hop); hybrid PDES
//! partitions at the oracle boundary, so only boundary crossings — a
//! small fraction of all events — cross partitions.
//!
//! Reported per cluster count: events, epochs, cross-partition messages,
//! and messages *per event* for both partitionings. On multi-core hosts
//! the hybrid's lower coupling converts directly into parallel speedup.

use elephant_bench::{
    emit_report, fmt_f, fmt_secs, print_table, run_hybrid_pdes, run_pdes, train_default_model, Args,
};
use elephant_core::{partition_rows, TrainingOptions};
use elephant_net::ClosParams;
use elephant_obs::RunReport;
use elephant_trace::{filter_touching_cluster, generate, write_csv, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(15, 60);
    let cluster_counts: &[u16] = if args.full {
        &[2, 4, 8, 16]
    } else {
        &[2, 4, 8]
    };

    println!("training the reusable cluster model ...");
    let (model, _, _) = train_default_model(
        args.horizon(40, 200),
        args.seed,
        &TrainingOptions::default(),
    );

    elephant_obs::set_enabled(true);
    let mut report = RunReport::new(
        "hybrid_pdes",
        format!(
            "clusters {cluster_counts:?}, horizon {horizon}, seed {}",
            args.seed
        ),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in cluster_counts {
        let params = ClosParams::paper_cluster(n);
        let flows = generate(
            &params,
            &WorkloadConfig::paper_default(horizon, args.seed.wrapping_add(1)),
        );

        // Full-fidelity PDES: one partition per cluster (racks split), on
        // as many "machines".
        let partitions = n as usize;
        let full = run_pdes(params, &flows, horizon, partitions, partitions, 64);
        let full_coupling =
            full.report.remote_messages as f64 / full.report.events_executed.max(1) as f64;

        // Hybrid PDES: same machine count, oracle-boundary partitioning,
        // elided workload.
        let elided = filter_touching_cluster(&flows, 0);
        let (hyb, oracle_pkts) = run_hybrid_pdes(
            params, 0, &model, &elided, horizon, partitions, 64, args.seed,
        );
        let hyb_coupling =
            hyb.report.remote_messages as f64 / hyb.report.events_executed.max(1) as f64;

        report.scalar(format!("full_msgs_per_event_n{n}"), full_coupling);
        report.scalar(format!("hybrid_msgs_per_event_n{n}"), hyb_coupling);
        report.scalar(format!("hybrid_oracle_packets_n{n}"), oracle_pkts as f64);
        // The biggest hybrid run is the headline: its partition breakdown
        // shows how little of the wall time the oracle boundary spends
        // synchronizing.
        if n == *cluster_counts.last().expect("nonempty cluster counts") {
            report.set_run(
                hyb.wall.as_secs_f64(),
                hyb.report.events_executed,
                horizon.as_secs_f64(),
            );
            report.partitions = partition_rows(&hyb.report);
        }

        rows.push(vec![
            n.to_string(),
            full.report.events_executed.to_string(),
            fmt_f(full_coupling),
            fmt_secs(full.wall),
            hyb.report.events_executed.to_string(),
            fmt_f(hyb_coupling),
            fmt_secs(hyb.wall),
            oracle_pkts.to_string(),
        ]);
        csv.push(vec![
            n.to_string(),
            full.report.events_executed.to_string(),
            format!("{full_coupling}"),
            format!("{}", full.wall.as_secs_f64()),
            hyb.report.events_executed.to_string(),
            format!("{hyb_coupling}"),
            format!("{}", hyb.wall.as_secs_f64()),
        ]);
        eprintln!("  {n} clusters done");
    }

    print_table(
        "Hybrid vs full-fidelity PDES: cross-partition coupling",
        &[
            "clusters",
            "full events",
            "full msgs/event",
            "full wall",
            "hybrid events",
            "hyb msgs/event",
            "hybrid wall",
            "oracle pkts",
        ],
        &rows,
    );
    write_csv(
        args.out.join("hybrid_pdes.csv"),
        &[
            "clusters",
            "full_events",
            "full_msgs_per_event",
            "full_wall_s",
            "hybrid_events",
            "hybrid_msgs_per_event",
            "hybrid_wall_s",
        ],
        &csv,
    )
    .expect("write csv");
    println!("\nwrote {}", args.out.join("hybrid_pdes.csv").display());
    println!(
        "shape target: the hybrid needs far fewer cross-partition messages\n\
         per event than full-fidelity PDES — the decoupling that makes the\n\
         approximate simulation parallelize well (§6.2). (Wall times on a\n\
         single-core host measure overhead, not parallel speedup.)"
    );

    report.gather();
    emit_report(&report, &args);
}
