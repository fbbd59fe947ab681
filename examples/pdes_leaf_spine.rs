//! Parallel discrete-event simulation on a leaf-spine network (the §2.2
//! experiment in miniature): the same workload executed by the sequential
//! engine and by conservative PDES over 1/2/4 emulated machines.
//!
//! Highly interconnected topologies force a lookahead of one link
//! propagation delay, so partitions must synchronize every microsecond of
//! simulated time — watch the event counts match while wall time balloons.
//!
//! ```text
//! cargo run --release --example pdes_leaf_spine
//! ```

use elephant::core::{execute, run_ground_truth, Exec, Fidelity, PdesExec, RunPlan};
use elephant::des::{EpochMode, SimTime};
use elephant::net::{ClosParams, NetConfig, RttScope};
use elephant::trace::{generate, LoadProfile, Locality, SizeDist, WorkloadConfig};

fn main() {
    let n = 8u16; // ToRs and spines
    let params = ClosParams::leaf_spine(n);
    let horizon = SimTime::from_millis(10);
    let wl = WorkloadConfig {
        load: 0.3,
        sizes: SizeDist::web_search(),
        locality: Locality::leaf_spine(),
        horizon,
        seed: 7,
        profile: LoadProfile::Constant,
    };
    let flows = generate(&params, &wl);
    println!(
        "leaf-spine {n}x{n}, {} hosts, {} flows, horizon {horizon}\n",
        params.total_hosts(),
        flows.len()
    );

    // Sequential reference.
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (_, meta) = run_ground_truth(params, cfg, None, &flows, horizon);
    println!(
        "sequential : {:>9} events  {:>8.3}s wall  {:.4} sim-s/s",
        meta.events,
        meta.wall.as_secs_f64(),
        meta.sim_seconds_per_second()
    );

    for machines in [1usize, 2, 4] {
        let fidelity = Fidelity::Full { capture: None };
        let mut plan = RunPlan::new(params, NetConfig::default(), &flows, horizon, fidelity);
        plan.exec = Exec::Pdes(PdesExec {
            partitions: 2 * machines,
            machines,
            envelope_bytes: 64,
            mode: EpochMode::Adaptive,
            faults: None,
        });
        let out = execute(plan).expect("PDES run").into_pdes_run();
        let wall = out.wall.as_secs_f64();
        println!(
            "{machines} machine(s): {:>9} events  {:>8.3}s wall  {:.4} sim-s/s  ({} epochs, {} msgs marshalled)",
            out.report.events_executed,
            wall,
            horizon.as_secs_f64() / wall.max(1e-12),
            out.report.epochs,
            out.report.marshalled_messages,
        );
    }

    println!(
        "\nevent counts agree to within tie-ordering noise (simultaneous\n\
         arrivals at a shared queue commute differently across engines);\n\
         the wall-clock difference is pure synchronization and marshalling\n\
         overhead — Figure 1's lesson."
    );
}
