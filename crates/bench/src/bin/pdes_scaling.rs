//! PDES synchronization benchmark: adaptive epoch planning vs fixed-
//! increment stepping on the reference 4-partition workload.
//!
//! PR 3's timeline instrumentation measured that **91% of partition wall
//! time was parked on epoch barriers** with the fixed-increment planner
//! (EXPERIMENTS.md): epochs advanced by one lookahead `L` even when every
//! partition's next event was milliseconds away, so idle stretches cost
//! thousands of barrier crossings. This harness drives the same simulation
//! through both planners and gates the adaptive one:
//!
//! * **workload** — `scenarios/pdes_bursty.toml`: short dense flow bursts
//!   separated by idle gaps hundreds of lookaheads long, rack-partitioned
//!   four ways over two emulated machines. The gaps are where fixed-
//!   increment stepping grinds and the adaptive planner jumps.
//! * **fingerprint gate** — both runs must produce bit-identical
//!   simulations: per-partition flow completions, delivered bytes, drops,
//!   and the full flow-completion-time vector to nanosecond precision.
//! * **epoch gate** — the adaptive planner must execute at least
//!   [`MIN_EPOCH_RATIO`]× fewer epochs than fixed stepping.
//! * **barrier-share gate** — the adaptive run's synchronization share
//!   must be at most [`MAX_BARRIER_SHARE`]. Share is computed as
//!   `1 - work / (wall * min(partitions, cores))` — the fraction of the
//!   machine's effective capacity *not* spent simulating — because the
//!   naive per-thread accounting (`barrier_seconds / total_seconds`) has a
//!   floor of `(n-1)/n` whenever `n` partition threads time-share fewer
//!   than `n` cores: a parked thread's wait clock also counts every peer's
//!   useful work. Both views are reported; the gate uses the
//!   capacity-normalized one, which is comparable across machines.
//! * **regression gate** — the fixed/adaptive epoch ratio is compared to
//!   the committed baseline (`crates/bench/baselines/pdes_scaling.json`);
//!   a >20% drop means the planner stopped jumping. The ratio is a
//!   property of the simulation, not the host, so the gate transfers
//!   across CI hardware.
//!
//! The harness also runs the **FEL event-density sweep**: a steady-state
//! hold-model workload (pop the earliest event, re-arm it at a random
//! offset) against both FEL backends — the calendar queue and the legacy
//! binary heap — at 1k/10k/100k emulated hosts with 10 concurrent events
//! each, so the top scale drives a 1M-event queue. Its gates:
//!
//! * **pop-order gate** — both backends must pop the identical timestamp
//!   sequence at every scale (FNV fingerprint over popped times).
//! * **throughput gate** — the calendar queue must sustain at least
//!   [`MIN_CALENDAR_SPEEDUP`]x the heap's events/sec at the highest
//!   density. A same-process ratio, so it transfers across hardware.
//! * **memory-ceiling gate** — the calendar queue's bytes/host at the
//!   highest density is compared to the committed
//!   `fel_bytes_per_host_reference` baseline; a >20% regression fails.
//!   The figure is computed from container capacities driven by a fixed
//!   op sequence, so it is bit-deterministic across hosts and an absolute
//!   committed baseline is meaningful.
//!
//! Writes `BENCH_pdes.json` under `--out` and exits non-zero if any gate
//! fails.

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{partition_rows, PdesRun};
use elephant_des::{splitmix64, EpochMode, Fel, Scheduler, SimDuration, SimTime};
use elephant_net::Network;
use elephant_scenario::{compile, load, CompileOverrides};

/// The reference workload, shared with `elephant run-scenario`: 3ms flow
/// bursts at 16ms spacing on a 4-rack leaf-spine fabric, 4 partitions over
/// 2 emulated machines. Quick mode runs the file as committed (3 bursts);
/// full mode overrides to 6 bursts.
const SCENARIO: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scenarios/pdes_bursty.toml"
);

/// Adaptive-run ceiling on the capacity-normalized synchronization share.
const MAX_BARRIER_SHARE: f64 = 0.50;
/// The adaptive planner must execute at least this many times fewer
/// epochs than fixed-increment stepping.
const MIN_EPOCH_RATIO: f64 = 2.0;
/// Allowed relative regression of the epoch ratio vs the committed
/// baseline.
const MAX_REGRESSION: f64 = 0.20;
/// Committed baseline, regenerated by re-running this bench and copying
/// the `epoch_ratio_reference` and `fel_bytes_per_host_reference` scalars.
const BASELINE_JSON: &str = include_str!("../../baselines/pdes_scaling.json");

/// Event-density sweep scales: emulated hosts, each holding
/// [`EVENTS_PER_HOST`] concurrent timers — so the top scale drives a
/// 1M-event FEL, the ROADMAP item 2 regime.
const DENSITY_HOSTS: &[usize] = &[1_000, 10_000, 100_000];
/// Concurrent events per host in the density sweep.
const EVENTS_PER_HOST: usize = 10;
/// Hold-model reschedule horizon: popped events are re-armed uniformly
/// within this many nanoseconds, the classic calendar-queue "hold" load.
const HOLD_RANGE_NS: u64 = 4_000_000;
/// The calendar queue must beat the binary heap by at least this factor
/// (events/sec) at the highest-density scale. A same-process ratio, so the
/// gate transfers across CI hardware.
const MIN_CALENDAR_SPEEDUP: f64 = 2.0;
/// Allowed relative regression of calendar-queue bytes/host at the highest
/// density vs the committed baseline. The figure is computed from container
/// capacities driven by a fixed op sequence, so it is deterministic across
/// hosts and a committed absolute baseline is meaningful.
const MAX_MEM_REGRESSION: f64 = 0.20;

/// One timed steady-state "hold" run: preload `n` events, then pop+re-arm
/// `ops` times. Returns (events/sec, peak FEL bytes, pop-order
/// fingerprint). The offset stream depends only on (seed, op index), so
/// both FEL backends replay the identical schedule and the fingerprints
/// must match — the sweep's own determinism gate.
fn hold_run<F: Fel<u64>>(n: usize, ops: u64, seed: u64) -> (f64, usize, u64) {
    let mut sched: Scheduler<u64, F> = Scheduler::new();
    let offset = |i: u64| splitmix64(seed.wrapping_add(i)) % HOLD_RANGE_NS + 1;
    for i in 0..n as u64 {
        sched.schedule_at(SimTime::from_nanos(offset(i)), i);
    }
    let mut bytes_peak = sched.fel_bytes();
    let mut fingerprint = 0xcbf29ce484222325u64; // FNV-1a over popped times
    let t0 = std::time::Instant::now();
    for i in 0..ops {
        let (t, host) = sched.pop().expect("hold population is constant");
        fingerprint = (fingerprint ^ t.as_nanos()).wrapping_mul(0x100000001b3);
        sched.schedule_in(SimDuration::from_nanos(offset(n as u64 + i)), host);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    bytes_peak = bytes_peak.max(sched.fel_bytes());
    (ops as f64 / elapsed.max(1e-12), bytes_peak, fingerprint)
}

/// Results of the density sweep at one scale.
struct DensityRow {
    hosts: usize,
    events: usize,
    heap_eps: f64,
    calendar_eps: f64,
    heap_bytes_per_host: f64,
    calendar_bytes_per_host: f64,
    fp_match: bool,
}

/// Drives the calendar-queue and binary-heap FELs through identical
/// hold-model workloads at each [`DENSITY_HOSTS`] scale.
fn density_sweep(seed: u64, full: bool) -> Vec<DensityRow> {
    DENSITY_HOSTS
        .iter()
        .map(|&hosts| {
            let n = hosts * EVENTS_PER_HOST;
            let ops = n as u64 * if full { 8 } else { 2 };
            let (heap_eps, heap_bytes, heap_fp) =
                hold_run::<elephant_des::BinaryHeapFel<u64>>(n, ops, seed);
            let (calendar_eps, cal_bytes, cal_fp) =
                hold_run::<elephant_des::CalendarFel<u64>>(n, ops, seed);
            eprintln!(
                "  density {hosts} hosts / {n} events done ({:.1}x)",
                calendar_eps / heap_eps.max(1e-12)
            );
            DensityRow {
                hosts,
                events: n,
                heap_eps,
                calendar_eps,
                heap_bytes_per_host: heap_bytes as f64 / hosts as f64,
                calendar_bytes_per_host: cal_bytes as f64 / hosts as f64,
                fp_match: heap_fp == cal_fp,
            }
        })
        .collect()
}

/// Everything the simulation computes, per partition, to full precision.
/// Epoch planning must not change a single field.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    completed: u64,
    delivered: u64,
    drops: u64,
    events: u64,
    fct: Vec<(u64, u64, u64)>,
}

fn fingerprint(run: &PdesRun) -> Vec<Fingerprint> {
    run.nets
        .iter()
        .zip(&run.report.partitions)
        .map(|(net, p): (&Network, _)| Fingerprint {
            completed: net.stats.flows_completed,
            delivered: net.stats.delivered_bytes,
            drops: net.stats.drops.total(),
            events: p.events,
            fct: net
                .stats
                .fct
                .iter()
                .map(|r| (r.flow.0, r.started.as_nanos(), r.completed.as_nanos()))
                .collect(),
        })
        .collect()
}

/// Fraction of the machine's effective compute capacity not spent doing
/// simulation work (see module docs for why this, not raw thread time).
fn capacity_share(run: &PdesRun, partitions: usize) -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let work: f64 = run
        .report
        .partitions
        .iter()
        .map(|p| p.work_seconds + p.marshal_seconds)
        .sum();
    let capacity = run.wall.as_secs_f64() * partitions.min(cores) as f64;
    (1.0 - work / capacity.max(1e-12)).max(0.0)
}

/// The naive per-thread view: barrier seconds over total thread seconds.
/// Reported for continuity with the PR 3 measurement; floored at
/// `(n-1)/n` on hosts with fewer cores than partitions.
fn raw_share(run: &PdesRun) -> f64 {
    let barrier: f64 = run
        .report
        .partitions
        .iter()
        .map(|p| p.barrier_wait_seconds)
        .sum();
    let total: f64 = run
        .report
        .partitions
        .iter()
        .map(|p| p.work_seconds + p.barrier_wait_seconds + p.marshal_seconds)
        .sum();
    barrier / total.max(1e-12)
}

fn main() {
    let args = Args::parse();
    let bursts: u64 = if args.full { 6 } else { 3 };
    let scenario = load(SCENARIO).unwrap_or_else(|e| panic!("cannot load scenario: {e}"));
    // The burst period is 16ms, so the horizon tracks the repeat count.
    let compiled = compile(
        &scenario,
        &CompileOverrides {
            seed: Some(args.seed),
            horizon_ms: Some(bursts as f64 * 16.0),
            repeat: Some(bursts as u32),
        },
    );
    let partitions = compiled.partitions;
    let machines = compiled.machines;
    let horizon = compiled.horizon;
    println!(
        "pdes_scaling: {} flows in {bursts} bursts over {:.1}ms, {partitions} partitions / {machines} machines",
        compiled.flows.len(),
        horizon.as_secs_f64() * 1e3
    );

    // FEL event-density sweep: steady-state hold throughput and bytes/host
    // for the calendar queue vs the legacy binary heap, up to a 1M-event
    // queue. Runs before the PDES comparison so a FEL regression fails fast.
    println!("density sweep: {DENSITY_HOSTS:?} hosts x {EVENTS_PER_HOST} events/host ...");
    let density = density_sweep(args.seed, args.full);
    let density_table: Vec<Vec<String>> = density
        .iter()
        .map(|r| {
            vec![
                r.hosts.to_string(),
                r.events.to_string(),
                format!("{:.2}M", r.heap_eps / 1e6),
                format!("{:.2}M", r.calendar_eps / 1e6),
                fmt_f(r.calendar_eps / r.heap_eps.max(1e-12)),
                format!("{:.0}", r.heap_bytes_per_host),
                format!("{:.0}", r.calendar_bytes_per_host),
                if r.fp_match { "ok" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "FEL density sweep (binary heap vs calendar queue, events/sec)",
        &[
            "hosts",
            "events",
            "heap ev/s",
            "calendar ev/s",
            "speedup",
            "heap B/host",
            "cal B/host",
            "pop order",
        ],
        &density_table,
    );

    let run_mode = |mode: EpochMode| -> PdesRun {
        compiled
            .run_pdes(None, mode, None)
            .unwrap_or_else(|e| panic!("PDES run failed: {e}"))
    };
    let adaptive = run_mode(EpochMode::Adaptive);
    let fixed = run_mode(EpochMode::Fixed);

    let adaptive_share = capacity_share(&adaptive, partitions);
    let fixed_share = capacity_share(&fixed, partitions);
    let epoch_ratio = fixed.report.epochs as f64 / adaptive.report.epochs.max(1) as f64;
    let fp_match = fingerprint(&adaptive) == fingerprint(&fixed);

    let rows: Vec<Vec<String>> = [("adaptive", &adaptive), ("fixed", &fixed)]
        .iter()
        .map(|(name, run)| {
            vec![
                name.to_string(),
                format!("{:.3}s", run.wall.as_secs_f64()),
                run.report.epochs.to_string(),
                run.report.epochs_jumped.to_string(),
                run.report.events_executed.to_string(),
                fmt_f(capacity_share(run, partitions)),
                fmt_f(raw_share(run)),
            ]
        })
        .collect();
    print_table(
        "PDES epoch planning (adaptive vs fixed)",
        &[
            "mode",
            "wall",
            "epochs",
            "jumped",
            "events",
            "sync share",
            "raw share",
        ],
        &rows,
    );

    let mut report = elephant_obs::RunReport::new(
        "pdes",
        format!(
            "adaptive vs fixed epochs: {partitions} partitions, {machines} machines, \
             {bursts} bursts, seed {}",
            args.seed
        ),
    );
    report.set_run(
        adaptive.wall.as_secs_f64(),
        adaptive.report.events_executed,
        horizon.as_secs_f64(),
    );
    report.scalar("adaptive_wall_s", adaptive.wall.as_secs_f64());
    report.scalar("fixed_wall_s", fixed.wall.as_secs_f64());
    report.scalar("adaptive_epochs", adaptive.report.epochs as f64);
    report.scalar("fixed_epochs", fixed.report.epochs as f64);
    report.scalar(
        "adaptive_epochs_jumped",
        adaptive.report.epochs_jumped as f64,
    );
    report.scalar("epoch_ratio_reference", epoch_ratio);
    report.scalar("adaptive_barrier_share", adaptive_share);
    report.scalar("fixed_barrier_share", fixed_share);
    report.scalar("adaptive_barrier_share_raw", raw_share(&adaptive));
    report.scalar("fixed_barrier_share_raw", raw_share(&fixed));
    report.scalar(
        "speedup_vs_fixed",
        fixed.wall.as_secs_f64() / adaptive.wall.as_secs_f64().max(1e-12),
    );
    report.scalar("fingerprint_match", if fp_match { 1.0 } else { 0.0 });
    for r in &density {
        report.scalar(format!("density_heap_eps_{}", r.hosts), r.heap_eps);
        report.scalar(format!("density_calendar_eps_{}", r.hosts), r.calendar_eps);
        report.scalar(
            format!("density_calendar_speedup_{}", r.hosts),
            r.calendar_eps / r.heap_eps.max(1e-12),
        );
        report.scalar(
            format!("density_heap_bytes_per_host_{}", r.hosts),
            r.heap_bytes_per_host,
        );
        report.scalar(
            format!("density_fel_bytes_per_host_{}", r.hosts),
            r.calendar_bytes_per_host,
        );
    }
    let top = density.last().expect("density sweep is nonempty");
    report.scalar("fel_bytes_per_host_reference", top.calendar_bytes_per_host);
    report.partitions = partition_rows(&adaptive.report);
    emit_report(&report, &args);

    let baseline = serde_json::from_str::<serde::Value>(BASELINE_JSON).ok();
    let baseline_ratio = baseline
        .as_ref()
        .and_then(|v| v.get("epoch_ratio_reference").and_then(|s| s.as_f64()));
    let baseline_bytes = baseline.as_ref().and_then(|v| {
        v.get("fel_bytes_per_host_reference")
            .and_then(|s| s.as_f64())
    });
    let mut failed = false;
    // FEL gates: pop-order parity at every scale, the >=2x throughput bar
    // at the top scale, and the bytes/host memory ceiling.
    for r in &density {
        if !r.fp_match {
            eprintln!(
                "FAIL: calendar queue and binary heap popped different orders \
                 at {} hosts",
                r.hosts
            );
            failed = true;
        }
    }
    let top_speedup = top.calendar_eps / top.heap_eps.max(1e-12);
    if top_speedup < MIN_CALENDAR_SPEEDUP {
        eprintln!(
            "FAIL: calendar queue only {top_speedup:.2}x the heap at {} hosts \
             (gate {MIN_CALENDAR_SPEEDUP}x)",
            top.hosts
        );
        failed = true;
    }
    match baseline_bytes {
        Some(base) if top.calendar_bytes_per_host > base * (1.0 + MAX_MEM_REGRESSION) => {
            eprintln!(
                "FAIL: FEL bytes/host {:.0} regressed >{:.0}% vs committed \
                 baseline {base:.0} at {} hosts",
                top.calendar_bytes_per_host,
                MAX_MEM_REGRESSION * 100.0,
                top.hosts
            );
            failed = true;
        }
        Some(base) => println!(
            "memory baseline: committed {base:.0} B/host, measured {:.0} B/host \
             (ceiling {:.0})",
            top.calendar_bytes_per_host,
            base * (1.0 + MAX_MEM_REGRESSION)
        ),
        None => eprintln!("warning: no committed bytes/host baseline; skipping memory gate"),
    }
    if !fp_match {
        eprintln!("FAIL: adaptive and fixed epoch modes computed different simulations");
        failed = true;
    }
    if adaptive_share > MAX_BARRIER_SHARE {
        eprintln!(
            "FAIL: adaptive sync share {adaptive_share:.3} above the {MAX_BARRIER_SHARE} ceiling"
        );
        failed = true;
    }
    if epoch_ratio < MIN_EPOCH_RATIO {
        eprintln!(
            "FAIL: epoch ratio {epoch_ratio:.2}x below the {MIN_EPOCH_RATIO}x bound \
             (adaptive {} vs fixed {})",
            adaptive.report.epochs, fixed.report.epochs
        );
        failed = true;
    }
    if adaptive.report.epochs_jumped == 0 {
        eprintln!("FAIL: adaptive planner never jumped an idle stretch");
        failed = true;
    }
    match baseline_ratio {
        Some(base) if epoch_ratio < base * (1.0 - MAX_REGRESSION) => {
            eprintln!(
                "FAIL: epoch ratio {epoch_ratio:.2}x regressed >{:.0}% vs committed \
                 baseline {base:.2}x",
                MAX_REGRESSION * 100.0
            );
            failed = true;
        }
        Some(base) => println!(
            "baseline: committed epoch ratio {base:.2}x, measured {epoch_ratio:.2}x \
             (gate at {:.2}x)",
            base * (1.0 - MAX_REGRESSION)
        ),
        None => eprintln!("warning: no committed baseline; skipping regression gate"),
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: {epoch_ratio:.1}x fewer epochs than fixed stepping, sync share \
         {adaptive_share:.3} (raw {:.3}), fingerprints bit-identical; calendar \
         FEL {top_speedup:.1}x heap at {} hosts, {:.0} B/host",
        raw_share(&adaptive),
        top.hosts,
        top.calendar_bytes_per_host
    );
}
