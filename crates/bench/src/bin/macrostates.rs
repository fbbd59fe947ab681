//! **§4/§4.1 claim**: boundary traffic exhibits multi-scale structure and
//! the auto-regressive macro classifier identifies four congestion
//! regimes in it.
//!
//! The harness runs a two-cluster ground truth whose workload includes a
//! deliberate mid-run incast burst (forcing the High/Decreasing regimes),
//! replays the captured boundary records through the calibrated macro
//! model, and reports regime occupancy, the transition matrix, and a
//! downsampled regime timeline.

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{calibrate_macro, run_ground_truth, MacroModel, MacroState};
use elephant_net::{ClosParams, HostAddr, NetConfig, RttScope};
use elephant_obs::RunReport;
use elephant_trace::{generate, incast, write_csv, LoadProfile, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(40, 200);
    let params = ClosParams::paper_cluster(2);

    // Sinusoidally swinging background load (the paper's seconds-scale
    // regime drift, compressed) plus an incast burst into cluster 1.
    let mut wl = WorkloadConfig::paper_default(horizon, args.seed);
    wl.profile = LoadProfile::Sinusoid {
        period: elephant_des::SimTime::from_nanos(horizon.as_nanos() / 2),
        min: 0.3,
        max: 1.6,
    };
    let mut flows = generate(&params, &wl);
    let max_id = flows.iter().map(|f| f.id.0).max().unwrap_or(0);
    let senders: Vec<HostAddr> = (0..8)
        .map(|i| HostAddr::new(0, (i % 2) as u16, (i / 2 % 4) as u16))
        .collect();
    let burst_at = elephant_des::SimTime::from_nanos(horizon.as_nanos() / 2);
    flows.extend(incast(
        &senders,
        HostAddr::new(1, 0, 0),
        400_000,
        burst_at,
        max_id + 1,
    ));
    flows.sort_by_key(|f| (f.start, f.id.0));

    println!("running ground truth with incast burst at {burst_at} ...");
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        track_queues: true,
        ..Default::default()
    };
    let (net, meta) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    if let Some(layers) = net.queue_depth_by_layer(horizon) {
        let names = ["host NIC", "ToR", "Agg", "Core"];
        println!("queue occupancy (time-weighted mean / peak bytes):");
        for (name, (mean, peak)) in names.iter().zip(layers.iter()) {
            println!("  {name:<8} {:>10.0} / {:>8.0}", mean, peak);
        }
    }
    let mut records = net.into_capture().expect("capture enabled").into_records();
    records.sort_by_key(|r| r.t_in);
    println!("{} boundary records captured", records.len());

    let macro_cfg = calibrate_macro(&records);
    println!(
        "calibrated thresholds: latency_low {:.1}us, drop_high {:.3}",
        macro_cfg.latency_low * 1e6,
        macro_cfg.drop_high
    );

    let mut model = MacroModel::new(macro_cfg);
    let mut occupancy = [0u64; 4];
    let mut transitions = [[0u64; 4]; 4];
    let mut timeline: Vec<(f64, usize)> = Vec::new();
    let mut prev = model.state();
    for (i, r) in records.iter().enumerate() {
        let s = model.observe(
            if r.dropped {
                None
            } else {
                Some(r.latency.as_secs_f64())
            },
            r.dropped,
        );
        occupancy[s.index()] += 1;
        transitions[prev.index()][s.index()] += 1;
        prev = s;
        if i % (records.len() / 200).max(1) == 0 {
            timeline.push((r.t_in.as_secs_f64(), s.index()));
        }
    }

    let total: u64 = occupancy.iter().sum();
    let names = ["Minimal", "Increasing", "High", "Decreasing"];
    let rows: Vec<Vec<String>> = MacroState::ALL
        .iter()
        .map(|s| {
            vec![
                names[s.index()].to_string(),
                occupancy[s.index()].to_string(),
                format!(
                    "{:.1}%",
                    100.0 * occupancy[s.index()] as f64 / total.max(1) as f64
                ),
            ]
        })
        .collect();
    print_table(
        "Macro-state occupancy over the capture",
        &["state", "observations", "share"],
        &rows,
    );

    let trows: Vec<Vec<String>> = (0..4)
        .map(|i| {
            let mut row = vec![names[i].to_string()];
            row.extend((0..4).map(|j| transitions[i][j].to_string()));
            row
        })
        .collect();
    print_table(
        "Transition counts (row = from, column = to)",
        &["", names[0], names[1], names[2], names[3]],
        &trows,
    );

    // Multi-scale evidence: latency variance at second vs microsecond scale.
    let lat: Vec<(f64, f64)> = records
        .iter()
        .filter(|r| !r.dropped)
        .map(|r| (r.t_in.as_secs_f64(), r.latency.as_secs_f64()))
        .collect();
    if lat.len() > 100 {
        let n = lat.len();
        let coarse: Vec<f64> = lat
            .chunks(n / 20)
            .map(|c| c.iter().map(|&(_, l)| l).sum::<f64>() / c.len() as f64)
            .collect();
        let coarse_spread = spread(&coarse);
        let fine_spread = spread(&lat.iter().take(n / 20).map(|&(_, l)| l).collect::<Vec<_>>());
        println!(
            "\nmulti-scale structure: coarse (regime) latency spread {} vs\n\
             fine (jitter) spread within one window {} — both non-trivial,\n\
             which is the premise of the macro/micro split (§4).",
            fmt_f(coarse_spread / 1e-6),
            fmt_f(fine_spread / 1e-6)
        );
    }

    let csv: Vec<Vec<String>> = timeline
        .iter()
        .map(|&(t, s)| vec![format!("{t}"), s.to_string()])
        .collect();
    write_csv(
        args.out.join("macrostates_timeline.csv"),
        &["time_s", "state"],
        &csv,
    )
    .expect("write timeline");
    println!(
        "wrote {}",
        args.out.join("macrostates_timeline.csv").display()
    );

    // Every regime should be visited in a run with a burst.
    let visited = occupancy.iter().filter(|&&c| c > 0).count();
    println!("regimes visited: {visited}/4");

    let mut report = RunReport::new(
        "macrostates",
        format!(
            "2 clusters + incast burst, horizon {horizon}, seed {}",
            args.seed
        ),
    );
    report.set_run(meta.wall.as_secs_f64(), meta.events, meta.sim_seconds);
    report.scalar("regimes_visited", visited as f64);
    for s in MacroState::ALL {
        report.scalar(
            format!("occupancy_share_{}", names[s.index()].to_lowercase()),
            occupancy[s.index()] as f64 / total.max(1) as f64,
        );
    }
    emit_report(&report, &args);
}

fn spread(xs: &[f64]) -> f64 {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    hi - lo
}
