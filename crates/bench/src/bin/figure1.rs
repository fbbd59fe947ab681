//! **Figure 1 / §2.2**: packet-level simulator performance on leaf-spine
//! topologies of various size — single thread versus conservative PDES on
//! 1, 2, and 4 (emulated) machines.
//!
//! The paper's claim this harness reproduces: multi-threading helps small
//! networks, but as the network grows the synchronization forced by tiny
//! lookahead (every ToR talks to every spine, one propagation delay away)
//! makes PDES *slower* than a single thread, and spreading over more
//! machines adds marshalling cost per cross-boundary event.
//!
//! Mapping of the paper's "machines": OMNeT++ partitions the module graph
//! itself, so logical processes scale with the network — we partition one
//! LP per four racks (minimum two), dealt round-robin over the emulated
//! machines; events between partitions on different machines are
//! serialized through a byte buffer with a 64-byte MPI-style envelope.
//! See DESIGN.md's substitution table. NOTE: in a single-core container
//! PDES cannot show real parallel wins at any size; the reproducible
//! claim is the *degradation*: sync + marshalling overhead grows with
//! network size and machine count.
//!
//! Each size runs the single-threaded engine twice — unprofiled, then
//! profiled (`Observe::profile`: the per-event FEL-peak sampler) — so the
//! report carries the measured instrumentation overhead fraction alongside
//! the performance figures.
//!
//! Output: sim-seconds per wall-second per (size, engine), printed and
//! written to `figure1.csv`, plus the full run report as
//! `BENCH_figure1.json` (events/sec, per-partition barrier-wait share).

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{execute, partition_rows, Exec, Fidelity, PdesExec, RunPlan};
use elephant_des::EpochMode;
use elephant_net::{ClosParams, NetConfig, RttScope};
use elephant_obs::RunReport;
use elephant_trace::{generate, write_csv, LoadProfile, Locality, SizeDist, WorkloadConfig};

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(20, 100);
    let sizes: &[u16] = if args.full {
        &[4, 8, 16, 32, 64]
    } else {
        &[4, 8, 16]
    };
    let machines = [1usize, 2, 4];
    const ENVELOPE: usize = 64;

    println!(
        "Figure 1: leaf-spine performance, horizon {horizon}, seed {}",
        args.seed
    );
    let mut report = RunReport::new(
        "figure1",
        format!(
            "leaf-spine sweep sizes {sizes:?}, horizon {horizon}, seed {}, envelope {ENVELOPE}B",
            args.seed
        ),
    );
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut base_wall_total = 0.0f64;
    let mut inst_wall_total = 0.0f64;
    for &n in sizes {
        let params = ClosParams::leaf_spine(n);
        let wl = WorkloadConfig {
            load: 0.3,
            sizes: SizeDist::web_search(),
            locality: Locality::leaf_spine(),
            horizon,
            seed: args.seed,
            profile: LoadProfile::Constant,
        };
        let flows = generate(&params, &wl);
        let cfg = NetConfig {
            rtt_scope: RttScope::None,
            ..Default::default()
        };

        // Single thread, uninstrumented: the baseline the paper measures.
        // Best-of-three wall times on both sides keep scheduler noise out
        // of the overhead figure (sub-second runs jitter by several
        // percent on a shared core).
        let best_run = |profile: bool| {
            let mut best: Option<elephant_core::RunMeta> = None;
            for _ in 0..3 {
                let fidelity = Fidelity::Full { capture: None };
                let mut plan = RunPlan::new(params, cfg, &flows, horizon, fidelity);
                plan.observe.profile = profile;
                let m = execute(plan).unwrap_or_else(|e| panic!("{e}")).meta;
                if best.as_ref().map(|b| m.wall < b.wall).unwrap_or(true) {
                    best = Some(m);
                }
            }
            best.expect("three runs produce a best")
        };
        let base_meta = best_run(false);
        let single = base_meta.sim_seconds_per_second();

        // Single thread again, profiled: the difference is the
        // observability overhead (acceptance target: under 5%).
        let meta = best_run(true);
        let overhead = (meta.wall.as_secs_f64() - base_meta.wall.as_secs_f64())
            / base_meta.wall.as_secs_f64().max(1e-12);
        base_wall_total += base_meta.wall.as_secs_f64();
        inst_wall_total += meta.wall.as_secs_f64();
        report.scalar(format!("overhead_fraction_n{n}"), overhead);
        report.scalar(format!("single_sim_s_per_s_n{n}"), single);

        // PDES at 1, 2, 4 machines; the partition breakdown comes from the
        // kernel report.
        let mut pdes_rates = Vec::new();
        for &m in &machines {
            // LPs scale with the module graph, as OMNeT++'s partitioning
            // does; more machines spread the same LPs wider.
            let fidelity = Fidelity::Full { capture: None };
            let mut plan = RunPlan::new(params, NetConfig::default(), &flows, horizon, fidelity);
            plan.exec = Exec::Pdes(PdesExec {
                partitions: ((n as usize / 4).max(2) * m).min(n as usize),
                machines: m,
                envelope_bytes: ENVELOPE,
                mode: EpochMode::Adaptive,
                faults: None,
            });
            let out = execute(plan)
                .unwrap_or_else(|e| panic!("{e}"))
                .into_pdes_run();
            let rate = horizon.as_secs_f64() / out.wall.as_secs_f64().max(1e-12);
            report.scalar(format!("pdes_sim_s_per_s_n{n}_m{m}"), rate);
            pdes_rates.push((m, rate, out));
        }
        // The widest machine spread of the largest size is the partition
        // breakdown worth keeping (the paper's worst case).
        if n == *sizes.last().expect("nonempty sizes") {
            report.set_run(meta.wall.as_secs_f64(), meta.events, meta.sim_seconds);
            report.partitions = partition_rows(&pdes_rates[2].2.report);
        }

        rows.push(vec![
            n.to_string(),
            format!("{}", meta.events),
            fmt_f(single),
            fmt_f(pdes_rates[0].1),
            fmt_f(pdes_rates[1].1),
            fmt_f(pdes_rates[2].1),
        ]);
        csv.push(vec![
            n.to_string(),
            format!("{single}"),
            format!("{}", pdes_rates[0].1),
            format!("{}", pdes_rates[1].1),
            format!("{}", pdes_rates[2].1),
        ]);
    }

    print_table(
        "Figure 1: sim-seconds per wall-second (higher is better)",
        &[
            "tors/spines",
            "events",
            "single thread",
            "1 machine",
            "2 machines",
            "4 machines",
        ],
        &rows,
    );
    write_csv(
        args.out.join("figure1.csv"),
        &[
            "size",
            "single_thread",
            "machines_1",
            "machines_2",
            "machines_4",
        ],
        &csv,
    )
    .expect("write figure1.csv");
    println!("\nwrote {}", args.out.join("figure1.csv").display());
    println!(
        "shape target: PDES competitive at small sizes, falling behind the\n\
         single thread as size grows; more machines = more marshalling cost."
    );

    // Aggregate overhead across all sizes — the headline acceptance number
    // (< 0.05); per-size fractions above show the spread.
    report.scalar(
        "overhead_fraction",
        (inst_wall_total - base_wall_total) / base_wall_total.max(1e-12),
    );

    emit_report(&report, &args);
}
