//! Smoke bench: gates checkpoint overhead and reports what full
//! observation costs.
//!
//! Runs `scenarios/smoke.toml` (the paper's two-cluster Poisson web-search
//! mix) two ways, interleaved to defeat thermal/frequency drift:
//!
//! * **baseline** — [`elephant_core::execute`] on a plain sequential plan:
//!   every hook present but switched off (no trace, no sampler, timeline
//!   and profile off), the path every production run takes;
//! * **checkpointed** — the same plan supervised at the default checkpoint
//!   interval, no faults injected, so every cost is the periodic world
//!   snapshot;
//!
//! plus one **enabled** run — strided trace + 100µs sampler + profile, its
//! timeline saved as `smoke_timeline.json` under `--out` — reported for
//! information only. That switched-off hooks change nothing
//! is a behavioural property, pinned by
//! `tests/determinism.rs::instrumentation_does_not_perturb_results`.
//!
//! The CI gate: the median *checkpointed* wall time may exceed the median
//! *baseline* by at most 5% (plus a small absolute allowance so
//! microsecond-scale jitter on a fast run cannot trip the ratio). Exits
//! non-zero on violation. Writes `BENCH_smoke.json` under `--out`.

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{execute, Fidelity, Observe, RunPlan};
use elephant_des::SimDuration;
use elephant_net::TraceLog;
use elephant_scenario::{compile, load, CompileOverrides};

/// The reference workload, shared with `elephant run-scenario`.
const SCENARIO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/smoke.toml");

const ROUNDS: usize = 5;
/// Relative overhead budget for checkpointing.
const MAX_OVERHEAD: f64 = 0.05;
/// Absolute slack (seconds): below this delta the ratio test is noise.
const ABS_SLACK: f64 = 0.010;

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let args = Args::parse();
    let horizon = args.horizon(20, 200);
    // The scenario's Poisson window is unspecified, so it stretches to the
    // overridden horizon — quick and full modes come from one file.
    let scenario = load(SCENARIO).unwrap_or_else(|e| panic!("cannot load scenario: {e}"));
    let compiled = compile(
        &scenario,
        &CompileOverrides {
            seed: Some(args.seed),
            horizon_ms: Some(horizon.as_secs_f64() * 1e3),
            repeat: None,
        },
    );
    let params = compiled.params;
    let flows = compiled.flows;

    let plan = || {
        RunPlan::new(
            params,
            Default::default(),
            &flows,
            horizon,
            Fidelity::Full { capture: None },
        )
    };

    // Warm-up: touch the allocator and page in the code paths once.
    execute(plan()).expect("unsupervised sequential runs cannot fail");

    let policy = elephant_core::RecoveryPolicy::default();
    let mut base = Vec::with_capacity(ROUNDS);
    let mut checkpointed = Vec::with_capacity(ROUNDS);
    let mut events = 0u64;
    let mut checkpoints_taken = 0u64;
    for _ in 0..ROUNDS {
        let run = execute(plan()).expect("unsupervised sequential runs cannot fail");
        base.push(run.meta.wall.as_secs_f64());
        events = run.meta.events;
        let mut supervised = plan();
        supervised.supervise = Some(&policy);
        let run = execute(supervised).unwrap_or_else(|e| panic!("supervised run failed: {e}"));
        checkpoints_taken = run.recovery.expect("supervised").checkpoints_taken;
        checkpointed.push(run.meta.wall.as_secs_f64());
    }

    // One enabled run, informational: trace + samples + profile, timeline
    // saved.
    let trace = TraceLog::strided(50_000, events);
    let mut observed = plan();
    observed.observe = Observe {
        trace: Some(trace),
        sample_every: Some(SimDuration::from_micros(100)),
        timeline: true,
        profile: true,
    };
    let enabled = execute(observed).expect("unsupervised sequential runs cannot fail");
    let path = args.out.join("smoke_timeline.json");
    let timeline = enabled.timeline(&[]);
    timeline
        .save(&path)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let enabled_meta = enabled.meta;

    let med_base = median(&mut base);
    let med_checkpointed = median(&mut checkpointed);
    let med_enabled = enabled_meta.wall.as_secs_f64();
    let overhead_checkpointed = (med_checkpointed - med_base) / med_base;
    let overhead_enabled = (med_enabled - med_base) / med_base;

    print_table(
        "observability + checkpoint overhead (median wall seconds)",
        &["variant", "wall_s", "vs baseline"],
        &[
            vec!["baseline".into(), fmt_f(med_base), "-".into()],
            vec![
                format!("checkpointed x{checkpoints_taken}"),
                fmt_f(med_checkpointed),
                format!("{:+.2}%", overhead_checkpointed * 100.0),
            ],
            vec![
                "obs enabled".into(),
                fmt_f(med_enabled),
                format!("{:+.2}%", overhead_enabled * 100.0),
            ],
        ],
    );

    let mut report = elephant_obs::RunReport::new("smoke", "checkpoint overhead gate");
    report.set_run(med_base, events, horizon.as_secs_f64());
    report.scalar("wall_baseline_s", med_base);
    report.scalar("wall_checkpointed_s", med_checkpointed);
    report.scalar("wall_enabled_s", med_enabled);
    report.scalar("overhead_checkpointed", overhead_checkpointed);
    report.scalar("checkpoints_taken", checkpoints_taken as f64);
    report.scalar("overhead_enabled", overhead_enabled);
    report.scalar("timeline_records", timeline.records.len() as f64);
    report.scalar("sampler_rows", enabled.samples.len() as f64);
    emit_report(&report, &args);

    let ckpt_delta = med_checkpointed - med_base;
    if overhead_checkpointed > MAX_OVERHEAD && ckpt_delta > ABS_SLACK {
        eprintln!(
            "FAIL: checkpoint overhead {:+.2}% at the default interval exceeds the \
             {:.0}% budget ({}s over baseline, {checkpoints_taken} checkpoints)",
            overhead_checkpointed * 100.0,
            MAX_OVERHEAD * 100.0,
            fmt_f(ckpt_delta),
        );
        std::process::exit(1);
    }
    println!(
        "PASS: checkpoint overhead {:+.2}% within the {:.0}% budget",
        overhead_checkpointed * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
