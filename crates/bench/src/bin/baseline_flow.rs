//! **Baseline B1 (§2/§8)**: flow-level simulation versus packet-level
//! simulation — what the cheaper abstraction gains in speed and loses in
//! fidelity.
//!
//! Two scenarios on the same two-cluster topology:
//!
//! 1. **steady** — the standard web-search workload: the fluid model
//!    should track packet-level mean FCTs reasonably while running far
//!    faster;
//! 2. **incast** — a synchronized burst into one host: the fluid model is
//!    structurally blind to the queue overflow and retransmission storms
//!    that dominate the packet-level result ("miss out on many important
//!    network effects, particularly in the presence of bursty traffic").

use std::time::Instant;

use elephant_bench::{emit_report, fmt_f, fmt_secs, print_table, Args};
use elephant_core::run_ground_truth;
use elephant_net::{ClosParams, HostAddr, NetConfig, RttScope, Topology};
use elephant_obs::RunReport;
use elephant_trace::{generate, incast, write_csv, WorkloadConfig};

fn main() {
    let args = Args::parse();
    elephant_obs::set_enabled(true);
    let horizon = args.horizon(20, 100);
    let params = ClosParams::paper_cluster(2);
    let topo = Topology::clos(params);

    let mut report = RunReport::new(
        "baseline_flow",
        format!("2 clusters, horizon {horizon}, seed {}", args.seed),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();

    // Scenario 1: steady web-search load.
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, args.seed));
    run_scenario(
        "steady",
        &params,
        &topo,
        &flows,
        horizon,
        &mut report,
        &mut rows,
        &mut csv,
    );

    // Scenario 2: incast burst (plus nothing else).
    let senders: Vec<HostAddr> = (0..8)
        .map(|i| HostAddr::new(1, (i % 2) as u16, (i / 2 % 4) as u16))
        .collect();
    let burst = incast(
        &senders,
        HostAddr::new(0, 0, 0),
        500_000,
        elephant_des::SimTime::ZERO,
        1,
    );
    run_scenario(
        "incast",
        &params,
        &topo,
        &burst,
        horizon,
        &mut report,
        &mut rows,
        &mut csv,
    );

    print_table(
        "Baseline B1: packet-level vs flow-level simulation",
        &[
            "scenario",
            "engine",
            "wall",
            "completed",
            "mean FCT",
            "drops",
            "retrans-visible",
        ],
        &rows,
    );
    write_csv(
        args.out.join("baseline_flow.csv"),
        &[
            "scenario",
            "engine",
            "wall_s",
            "completed",
            "mean_fct_s",
            "drops",
        ],
        &csv,
    )
    .expect("write csv");
    println!("\nwrote {}", args.out.join("baseline_flow.csv").display());
    println!(
        "shape target: fluid is much faster and FCT-plausible under steady\n\
         load, but reports zero drops even where the packet simulator sees\n\
         an incast loss storm — the fidelity gap motivating the paper."
    );

    report.gather();
    emit_report(&report, &args);
}

#[allow(clippy::too_many_arguments)] // an experiment spec, not an API surface
fn run_scenario(
    name: &str,
    params: &ClosParams,
    topo: &Topology,
    flows: &[elephant_net::FlowSpec],
    horizon: elephant_des::SimTime,
    report: &mut RunReport,
    rows: &mut Vec<Vec<String>>,
    csv: &mut Vec<Vec<String>>,
) {
    // Packet level.
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, meta) = run_ground_truth(*params, cfg, None, flows, horizon);
    let pkt_fct = net.stats.mean_fct().map(|d| d.as_secs_f64()).unwrap_or(0.0);
    rows.push(vec![
        name.into(),
        "packet".into(),
        fmt_secs(meta.wall),
        net.stats.flows_completed.to_string(),
        format!("{:.1}us", pkt_fct * 1e6),
        net.stats.drops.total().to_string(),
        "yes".into(),
    ]);
    csv.push(vec![
        name.into(),
        "packet".into(),
        format!("{}", meta.wall.as_secs_f64()),
        net.stats.flows_completed.to_string(),
        format!("{pkt_fct}"),
        net.stats.drops.total().to_string(),
    ]);

    report.scalar(format!("{name}_packet_wall_s"), meta.wall.as_secs_f64());
    report.scalar(format!("{name}_packet_mean_fct_s"), pkt_fct);
    report.scalar(
        format!("{name}_packet_drops"),
        net.stats.drops.total() as f64,
    );

    // Flow level.
    let t0 = Instant::now();
    let fluid = elephant_bench::fluid::simulate(topo, flows, horizon);
    let wall = t0.elapsed();
    report.scalar(format!("{name}_fluid_wall_s"), wall.as_secs_f64());
    report.scalar(format!("{name}_fluid_mean_fct_s"), fluid.mean_fct_secs());
    rows.push(vec![
        name.into(),
        "fluid".into(),
        fmt_secs(wall),
        fluid.fct.len().to_string(),
        format!("{:.1}us", fluid.mean_fct_secs() * 1e6),
        "0 (cannot model)".into(),
        "no".into(),
    ]);
    csv.push(vec![
        name.into(),
        "fluid".into(),
        format!("{}", wall.as_secs_f64()),
        fluid.fct.len().to_string(),
        format!("{}", fluid.mean_fct_secs()),
        "0".into(),
    ]);
    eprintln!(
        "  {name}: packet {} vs fluid {} wall ({}x)",
        fmt_secs(meta.wall),
        fmt_secs(wall),
        fmt_f(meta.wall.as_secs_f64() / wall.as_secs_f64().max(1e-9))
    );
}
