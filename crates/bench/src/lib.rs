//! # elephant-bench — evaluation harnesses
//!
//! One binary per figure of the paper's evaluation that is not yet a
//! scenario sweep (see DESIGN.md's per-experiment index), plus ablations
//! and baselines. Figures 1 and 5, the scaling and hybrid-PDES sweeps, the
//! model capacity (A1), loss-balance α (A2) and macro-state (A3) ablations
//! and the DCTCP modularity run are scenario files under
//! `scenarios/figures/` instead, run by `elephant run-scenario FILE --csv
//! results/NAME.csv` (Figure 1 is two: `figure1.toml` on one thread,
//! `figure1_pdes.toml` under `--pdes`);
//! the last four are `[train]` sweeps, which train once per cell on one
//! capture per distinct ground truth. Figure 4 (RTT CDFs, ground truth
//! against the hybrid) is figure5.toml's 2-cluster hybrid row: every
//! hybrid sweep row carries its `hybrid/rtt/*` score against the cell's
//! own full run. §4.1's regime occupancy is ablation_macro.toml's
//! calibrated row: every training row with the macro state on carries
//! `train/eval/macro_occupancy[<state>]`. This library holds what the
//! binaries share: argument parsing, table printing, the default
//! train-once-reuse-everywhere model pipeline, and the [`fluid`] engine
//! `baseline_flow` compares against.
//!
//! Every harness prints a human-readable table and writes CSVs under
//! `--out` (default `results/`), so figures can be re-plotted offline.

#![warn(missing_docs)]

pub mod fluid;

use std::path::PathBuf;
use std::time::Duration;

use elephant_core::{
    run_ground_truth, train_cluster_model, ClusterModel, TrainReport, TrainingOptions,
};
use elephant_des::SimTime;
use elephant_net::{ClosParams, NetConfig, RttScope};
use elephant_trace::{generate, WorkloadConfig};

/// Common command-line switches shared by every harness binary.
#[derive(Clone, Debug)]
pub struct Args {
    /// Run the paper-scale configuration instead of the quick one.
    pub full: bool,
    /// Experiment seed.
    pub seed: u64,
    /// Output directory for CSVs.
    pub out: PathBuf,
    /// Optional horizon override in milliseconds.
    pub horizon_ms: Option<u64>,
}

impl Args {
    /// Parses `--full`, `--seed N`, `--out DIR`, `--horizon-ms N` from the
    /// process arguments. Unknown switches abort with usage.
    pub fn parse() -> Args {
        let mut args = Args {
            full: false,
            seed: 42,
            out: PathBuf::from("results"),
            horizon_ms: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => args.full = true,
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"))
                }
                "--out" => {
                    args.out =
                        PathBuf::from(it.next().unwrap_or_else(|| usage("--out needs a path")))
                }
                "--horizon-ms" => {
                    args.horizon_ms = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--horizon-ms needs an integer")),
                    )
                }
                other => usage(&format!("unknown argument {other}")),
            }
        }
        std::fs::create_dir_all(&args.out).expect("create output directory");
        args
    }

    /// The effective horizon: the override, or `quick`/`full` defaults.
    pub fn horizon(&self, quick_ms: u64, full_ms: u64) -> SimTime {
        let ms = self
            .horizon_ms
            .unwrap_or(if self.full { full_ms } else { quick_ms });
        SimTime::from_millis(ms)
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: <harness> [--full] [--seed N] [--out DIR] [--horizon-ms N]");
    std::process::exit(2)
}

/// Prints an aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints a [`elephant_obs::RunReport`] and writes `BENCH_<name>.json`
/// into `args.out` as a sealed schema-v1 [`elephant_core::RunLedger`] —
/// the single artifact path every harness binary funnels through. The
/// shape matches the CLI's `--metrics-out`, so `elephant compare` accepts
/// bench artifacts directly (e.g. to gate a branch's bench run against a
/// baseline artifact).
pub fn emit_report(report: &elephant_obs::RunReport, args: &Args) {
    println!("\n{}", report.to_table());
    let mut ledger =
        elephant_core::RunLedger::new(format!("bench-{}", report.name), report.clone());
    ledger.scenario = report.scenario.clone();
    ledger.seed = args.seed;
    let path = args.out.join(format!("BENCH_{}.json", report.name));
    match ledger.save(&path) {
        Ok(()) => println!(
            "wrote {} (schema-v{} run ledger)",
            path.display(),
            elephant_core::LEDGER_SCHEMA_VERSION
        ),
        Err(e) => eprintln!("failed to write bench ledger: {e}"),
    }
}

/// The standard "train once" step used by Figure 4 and ablation A5:
/// a two-cluster ground-truth run with capture around cluster 1, then the
/// §3 training pipeline. Returns the records too, so ablations can retrain
/// from the same capture.
pub fn train_default_model(
    horizon: SimTime,
    seed: u64,
    opts: &TrainingOptions,
) -> (ClusterModel, TrainReport, Vec<elephant_net::BoundaryRecord>) {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, seed));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let records = net.into_capture().expect("capture enabled").into_records();
    let (model, report) = train_cluster_model(&records, &params, opts);
    (model, report, records)
}

/// Formats a float with engineering-friendly precision.
pub fn fmt_f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else if v.abs() >= 0.001 {
        format!("{v:.4}")
    } else {
        format!("{v:.3e}")
    }
}

/// Formats a duration in seconds with millisecond precision.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}
