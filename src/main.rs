//! `elephant` — command-line driver for the simulator.
//!
//! Seven subcommands cover the workflows a user reaches for before
//! writing code against the library API:
//!
//! ```text
//! elephant run     --clusters 4 --horizon-ms 50          # full-fidelity simulation
//! elephant train   --horizon-ms 100 --out model.json     # capture + train a cluster model
//! elephant hybrid  --model model.json --clusters 16      # deploy it at scale
//! elephant compare --model model.json --clusters 4       # truth vs hybrid accuracy table
//! elephant run-scenario scenarios/incast.toml --pdes     # run a declarative scenario
//! elephant audit scenarios/smoke.toml                    # = run-scenario FILE --audit
//! elephant compare A.json B.json                         # diff two run ledgers
//! ```
//!
//! Every simulation — `run`, `hybrid`, `run-scenario`, `audit` — becomes
//! one [`Request`] around a compiled scenario (the hand flags lower to an
//! in-memory one), goes through one [`dispatch`] onto
//! `Compiled::run`, and ends in one [`finish`]. Every command prints a
//! summary and is a pure function of its seed.

use std::process::exit;

use elephant::core::{
    capture_records, compare_cdfs, compare_ledgers, guard_primary, oracle_stack, run_audit,
    run_ground_truth, run_hybrid, train_cluster_model, AuditHooks, CacheStats, CacheStatsHandle,
    ClusterModel, ElephantError, Exec, Observe, OracleStack, Outcome, RecoveryPolicy, RunLedger,
    RunMeta, TrainingOptions, LEDGER_SCHEMA_VERSION,
};
use elephant::des::{EpochMode, FaultCounts, FaultPlan, SimDuration, SimTime};
use elephant::net::{
    ClosParams, ClusterOracle, FaultyOracle, FlowSpec, GuardConfig, GuardStatsHandle, NetConfig,
    NetSampler, Network, OracleFaultMode, RttScope, TcpConfig, TraceLog, MAX_FLOW_TRACKS,
    SAMPLE_CSV_HEADER,
};
use elephant::nn::RnnKind;
use elephant::obs::{RunReport, TimelineWriter, TraceRecord, PID_FLOWS};
use elephant::scenario::{
    compile, list_scenarios, load, run_fingerprint, CompileOverrides, Compiled, HybridSpec,
};
use elephant::trace::{generate, write_csv, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    match cmd.as_str() {
        "run-scenario" => cmd_scenario(rest, false),
        "audit" => cmd_scenario(rest, true),
        // `compare A.json B.json` diffs two run-ledger artifacts; the
        // accuracy table always leads with --model.
        "compare" if rest.first().is_some_and(|a| !a.starts_with('-')) => cmd_compare_ledgers(rest),
        "run" => dispatch(Opts::parse(rest).lower(false)),
        "hybrid" => dispatch(Opts::parse(rest).lower(true)),
        "train" => cmd_train(&Opts::parse(rest)),
        "compare" => cmd_compare(&Opts::parse(rest)),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}\n");
            usage()
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "elephant — fast network simulation through approximation\n\
         \n\
         USAGE: elephant <command> [options]\n\
         \n\
         COMMANDS\n\
         run      full-fidelity packet simulation; prints summary statistics\n\
         train    ground-truth capture + model training; writes a model JSON\n\
         hybrid   hybrid simulation with a trained model serving stub fabrics\n\
         compare  run truth and hybrid side by side; print the accuracy table\n\
         compare A.json B.json  diff two run-ledger artifacts; exit 8 on drift\n\
         run-scenario FILE  run a declarative TOML scenario (see scenarios/)\n\
         audit FILE         = run-scenario FILE --audit: paired truth+hybrid\n\
         \u{20}                  run; print the divergence table and gate on the\n\
         \u{20}                  scenario's [audit] bounds\n\
         \n\
         AUDIT (see DESIGN.md \"Accuracy observatory\")\n\
         --model PATH      trained model for the hybrid side (default: the\n\
         \u{20}                scenario's [model] path, else capture and\n\
         \u{20}                quick-train a small one first)\n\
         --seed N          override the scenario's run.seed\n\
         --horizon-ms N    override the scenario's run.horizon_ms\n\
         --sample-every T  macro-regime timeline granularity in us (200)\n\
         --ledger-out P    write the hybrid-side run ledger (with divergence\n\
         \u{20}                block) to P and the truth-side ledger to\n\
         \u{20}                P-minus-.json + .truth.json (run-scenario --audit\n\
         \u{20}                spells it --metrics-out)\n\
         --oracle-cache / --oracle-cache-cap N / --no-guard  override the\n\
         \u{20}                scenario's [oracle]/[guard] settings\n\
         \n\
         COMPARE LEDGERS\n\
         --tolerance F     relative drift tolerance for events/scalars (0.05)\n\
         \n\
         RUN-SCENARIO (see DESIGN.md \"Scenario subsystem\")\n\
         --validate        load, validate, and compile only; print a summary\n\
         --list-scenarios [DIR]  list scenario files under DIR (scenarios)\n\
         --seed N          override the scenario's run.seed\n\
         --horizon-ms N    override the scenario's run.horizon_ms\n\
         --repeat N        override every traffic group's repeat count\n\
         --model PATH      model artifact for hybrid runs; overrides the\n\
         \u{20}                scenario's [model] path (a [model] section alone\n\
         \u{20}                also routes the run through the hybrid drivers)\n\
         --audit           paired truth+hybrid run gated on the scenario's\n\
         \u{20}                [audit] bounds; exit 8 on divergence\n\
         --pdes            run under PDES with the scenario's [topology.pdes]\n\
         --partitions N    override the partition count (implies --pdes)\n\
         --checkpoint-every-ms F  checkpoint interval; enables supervision and\n\
         \u{20}                overrides the scenario's [recovery] interval\n\
         --max-retries N   restores per degradation-ladder rung; enables\n\
         \u{20}                supervision and overrides [recovery] (2)\n\
         --profile         print the metrics report (recovery/*, fault/*)\n\
         --metrics-out P   write a schema-v1 run-ledger JSON to P\n\
         \n\
         OPTIONS (defaults in parentheses)\n\
         --clusters N      cluster count (4; train always uses 2)\n\
         --horizon-ms N    simulated horizon (50)\n\
         --load F          per-host offered load fraction (0.3)\n\
         --seed N          experiment seed (42)\n\
         --dctcp           DCTCP + ECN-marking switches instead of New Reno\n\
         --model PATH      model file (hybrid/compare input, train output via --out)\n\
         --out PATH        where train writes the model (model.json)\n\
         --full-cluster N  the cluster kept at packet fidelity (0)\n\
         --hidden N        LSTM width for train (32)\n\
         --layers N        LSTM depth for train (2)\n\
         --epochs N        training epochs (8)\n\
         --gru             GRU trunk instead of LSTM\n\
         --trace N         retain the first N raw events and print a sample\n\
         --profile         collect metrics + span timings; print the report\n\
         --metrics-out P   write a schema-v1 run-ledger JSON to P (implies\n\
         \u{20}                collection; `elephant compare` diffs two of them)\n\
         \n\
         TIMELINES (run/hybrid; see DESIGN.md \"Observability\")\n\
         --trace-out P     write a Chrome-trace JSON timeline to P (open in\n\
         \u{20}                https://ui.perfetto.dev): per-flow spans, drop and\n\
         \u{20}                oracle-verdict instants, sampler counter tracks, and\n\
         \u{20}                per-partition compute/barrier slices under --pdes\n\
         --sample-every T  sample queue depths, offered/realized load, macro\n\
         \u{20}                state, and oracle drop rate every T us of sim time;\n\
         \u{20}                writes <trace-out>.samples.csv (or samples.csv)\n\
         --pdes N          run under conservative PDES: N rack partitions for\n\
         \u{20}                `run`, one partition per cluster for `hybrid`\n\
         --machines M      emulated machines for --pdes marshalling (1)\n\
         --adaptive-epochs plan PDES epochs from observed event frontiers,\n\
         \u{20}                jumping idle stretches (default)\n\
         --fixed-epochs    step PDES epochs by a fixed lookahead increment\n\
         \u{20}                (escape hatch / A-B baseline for the planner)\n\
         \n\
         ORACLE FAST PATH (hybrid/compare; see DESIGN.md \"Oracle fast path\")\n\
         --oracle-cache         memoize verdicts for quantized feature keys\n\
         --oracle-cache-cap N   cache capacity in verdicts (65536)\n\
         \n\
         GUARDRAILS (hybrid/compare; see DESIGN.md \"Robustness\")\n\
         --no-guard             run the oracle unguarded (faults panic the run)\n\
         --guard-ceiling-ms F   latency ceiling before clamping (100)\n\
         --guard-trip-limit N   trips before permanent fallback (64)\n\
         --guard-tolerance F    drop-rate drift band around training rate (0.10)\n\
         --fault-oracle MODE    fault drill: replace the oracle with one that\n\
         \u{20}                      emits nan|negative|huge latencies\n\
         --fault-every N        poison one verdict in N during the drill (97)\n\
         \n\
         EXIT CODES\n\
         0 success | 1 generic failure | 2 usage | 3 I/O error\n\
         4 invalid model artifact | 5 simulation/pipeline fault\n\
         6 scenario schema/validation error | 7 recovery ladder exhausted\n\
         8 audit/compare divergence outside bounds"
    );
    exit(2)
}

/// Prints a typed pipeline error and exits with its family's code.
fn die(e: ElephantError) -> ! {
    eprintln!("elephant: {e}");
    exit(e.exit_code())
}

/// Exits 3 on a failed output write.
fn written(path: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("cannot write {path}: {e}");
        exit(3)
    }
}

/// Cursor over one subcommand's arguments. A flag missing its value, or
/// carrying one that does not parse, is a usage error (exit 2).
struct Args<'a>(std::iter::Peekable<std::slice::Iter<'a, String>>);

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args(args.iter().peekable())
    }

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    fn val(&mut self, flag: &str) -> String {
        self.next().map(str::to_string).unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            exit(2)
        })
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let s = self.val(flag);
        s.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for {flag}: {s}");
            exit(2)
        })
    }

    /// The next token if it is not a flag (an optional positional value).
    fn positional(&mut self) -> Option<String> {
        self.0.next_if(|a| !a.starts_with('-')).cloned()
    }
}

/// Where a command's results go besides stdout.
#[derive(Debug, Default)]
struct Sinks {
    profile: bool,
    metrics_out: Option<String>,
    samples_out: Option<String>,
    trace: Option<usize>,
    trace_out: Option<String>,
}

impl Sinks {
    fn observing(&self) -> bool {
        self.profile || self.metrics_out.is_some()
    }

    /// Switches on the collection these sinks read from.
    fn enable(&self) {
        if self.observing() {
            elephant::obs::set_enabled(true);
        }
        if self.trace_out.is_some() {
            elephant::obs::set_timeline_enabled(true);
        }
    }

    /// The event trace to install, if any: `--trace N` keeps the first N;
    /// `--trace-out` alone installs a strided trace sized from a packet
    /// estimate of the workload, so drop/oracle instants span the run.
    fn build_trace(&self, flows: &[FlowSpec]) -> Option<TraceLog> {
        if let Some(n) = self.trace {
            return Some(TraceLog::new(n));
        }
        self.trace_out.as_ref().map(|_| {
            // ~1 data packet per MSS plus handshake/ack overhead, and a
            // handful of trace events per packet — a coverage hint, not a
            // promise (TraceLog::strided tolerates both error directions).
            let pkts: u64 = flows.iter().map(|f| f.bytes / 1448 + 2).sum();
            TraceLog::strided(50_000, pkts.saturating_mul(6))
        })
    }

    /// Where the sampler CSV goes: `--samples-out`, else next to the
    /// timeline when `--trace-out` is set, else `samples.csv`.
    fn samples_path(&self) -> String {
        match (&self.samples_out, &self.trace_out) {
            (Some(p), _) => p.clone(),
            (None, Some(p)) => format!("{}.samples.csv", p.trim_end_matches(".json")),
            (None, None) => "samples.csv".into(),
        }
    }
}

/// The hand flags of `run`, `train`, `hybrid` and `compare`.
#[derive(Debug)]
struct Opts {
    clusters: u16,
    horizon: SimTime,
    load: f64,
    seed: u64,
    dctcp: bool,
    model: Option<String>,
    out: String,
    full_cluster: u16,
    hidden: usize,
    layers: usize,
    epochs: usize,
    gru: bool,
    sample_every: Option<SimDuration>,
    pdes: Option<usize>,
    machines: usize,
    epoch_mode: EpochMode,
    sinks: Sinks,
    oracle_cache: bool,
    oracle_cache_cap: usize,
    no_guard: bool,
    guard_ceiling_ms: f64,
    guard_trip_limit: u64,
    guard_tolerance: f64,
    fault_oracle: Option<OracleFaultMode>,
    fault_every: u64,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            clusters: 4,
            horizon: SimTime::from_millis(50),
            load: 0.3,
            seed: 42,
            dctcp: false,
            model: None,
            out: "model.json".into(),
            full_cluster: 0,
            hidden: 32,
            layers: 2,
            epochs: 8,
            gru: false,
            sample_every: None,
            pdes: None,
            machines: 1,
            epoch_mode: EpochMode::Adaptive,
            sinks: Sinks::default(),
            oracle_cache: false,
            oracle_cache_cap: 65_536,
            no_guard: false,
            guard_ceiling_ms: 100.0,
            guard_trip_limit: 64,
            guard_tolerance: 0.10,
            fault_oracle: None,
            fault_every: 97,
        };
        let mut args = Args::new(args);
        while let Some(a) = args.next() {
            match a {
                "--clusters" => o.clusters = args.parsed(a),
                "--horizon-ms" => o.horizon = SimTime::from_millis(args.parsed(a)),
                "--load" => o.load = args.parsed(a),
                "--seed" => o.seed = args.parsed(a),
                "--dctcp" => o.dctcp = true,
                "--model" => o.model = Some(args.val(a)),
                "--out" => o.out = args.val(a),
                "--full-cluster" => o.full_cluster = args.parsed(a),
                "--hidden" => o.hidden = args.parsed(a),
                "--layers" => o.layers = args.parsed(a),
                "--epochs" => o.epochs = args.parsed(a),
                "--gru" => o.gru = true,
                "--trace" => o.sinks.trace = Some(args.parsed(a)),
                "--trace-out" => o.sinks.trace_out = Some(args.val(a)),
                "--sample-every" => o.sample_every = Some(SimDuration::from_micros(args.parsed(a))),
                "--pdes" => o.pdes = Some(args.parsed(a)),
                "--machines" => o.machines = args.parsed(a),
                "--adaptive-epochs" => o.epoch_mode = EpochMode::Adaptive,
                "--fixed-epochs" => o.epoch_mode = EpochMode::Fixed,
                "--profile" => o.sinks.profile = true,
                "--metrics-out" => o.sinks.metrics_out = Some(args.val(a)),
                "--oracle-cache" => o.oracle_cache = true,
                "--oracle-cache-cap" => o.oracle_cache_cap = args.parsed(a),
                "--no-guard" => o.no_guard = true,
                "--guard-ceiling-ms" => o.guard_ceiling_ms = args.parsed(a),
                "--guard-trip-limit" => o.guard_trip_limit = args.parsed(a),
                "--guard-tolerance" => o.guard_tolerance = args.parsed(a),
                "--fault-oracle" => {
                    o.fault_oracle = Some(match args.val(a).as_str() {
                        "nan" => OracleFaultMode::Nan,
                        "negative" => OracleFaultMode::Negative,
                        "huge" => OracleFaultMode::Huge,
                        other => {
                            eprintln!("--fault-oracle must be nan|negative|huge, got {other}\n");
                            usage()
                        }
                    })
                }
                "--fault-every" => o.fault_every = args.parsed(a),
                other => {
                    eprintln!("unknown option: {other}\n");
                    usage()
                }
            }
        }
        o
    }

    fn params(&self, clusters: u16) -> ClosParams {
        let mut p = ClosParams::paper_cluster(clusters);
        if self.dctcp {
            p.host_link = p.host_link.with_ecn(30_000);
            p.fabric_link = p.fabric_link.with_ecn(30_000);
            p.core_link = p.core_link.with_ecn(30_000);
        }
        p
    }

    fn workload(&self, params: &ClosParams, seed: u64) -> Vec<FlowSpec> {
        workload(params, self.horizon, self.load, seed)
    }

    /// The oracle-stack settings the guard/cache flags spell, in the
    /// shape a scenario's `[model]`/`[guard]`/`[oracle]` sections compile
    /// to. No artifact is bound here (`--model` rides on the request);
    /// without one the quick-trained default model serves.
    fn hybrid_spec(&self, declared: bool) -> HybridSpec {
        HybridSpec {
            model_path: None,
            model_line: 0,
            model_declared: declared,
            train_fallback: true,
            full_cluster: self.full_cluster,
            cache: self.oracle_cache,
            cache_cap: self.oracle_cache_cap,
            guard: (!self.no_guard).then(|| GuardConfig {
                latency_ceiling: SimDuration::from_secs_f64(self.guard_ceiling_ms / 1e3),
                drop_rate_tolerance: self.guard_tolerance,
                trip_limit: self.guard_trip_limit,
                ..Default::default()
            }),
        }
    }

    fn fault(&self) -> Option<(OracleFaultMode, u64)> {
        self.fault_oracle.map(|mode| (mode, self.fault_every))
    }

    /// Lowers `run` (`hybrid = false`) or `hybrid` flags to the in-memory
    /// compiled scenario they describe, applying the scenario decoder's
    /// range rules to the hybrid selection.
    fn lower(self, hybrid: bool) -> Request {
        if hybrid && self.clusters < 2 {
            eprintln!(
                "hybrid needs --clusters >= 2 (the oracle approximates every cluster \
                 but the full-fidelity one)\n"
            );
            usage()
        }
        if hybrid && self.full_cluster >= self.clusters {
            eprintln!(
                "--full-cluster: cluster {} out of range (--clusters = {})\n",
                self.full_cluster, self.clusters
            );
            usage()
        }
        let params = self.params(self.clusters);
        let title = if hybrid { "hybrid" } else { "full-fidelity" };
        let compiled = Compiled {
            name: title.to_string(),
            params,
            flows: self.workload(&params, self.seed),
            horizon: self.horizon,
            seed: self.seed,
            dctcp: self.dctcp,
            partitions: self.pdes.unwrap_or(1),
            machines: self.machines,
            envelope_bytes: 64,
            faults: None,
            recovery: None,
            sample_every: self.sample_every,
            audit_bounds: None,
            hybrid: self.hybrid_spec(hybrid),
        };
        Request {
            command: if hybrid { "hybrid" } else { "run" },
            title: format!("{title} run"),
            origin: title.to_string(),
            compiled,
            hybrid,
            audit: false,
            model_flag: self.model.clone(),
            train_load: self.load,
            fault: self.fault(),
            pdes: self.pdes.is_some(),
            partitions_flag: false,
            epoch_mode: self.epoch_mode,
            sinks: self.sinks,
        }
    }
}

/// One simulation to run, however it was spelled: `run`/`hybrid` flags
/// or a scenario file with its overrides already applied to `compiled`.
struct Request {
    /// Subcommand, naming the run report.
    command: &'static str,
    /// What the header and the ledger call the run.
    title: String,
    /// The scenario file (for `file:line` model diagnostics).
    origin: String,
    compiled: Compiled,
    /// Route through the hybrid engine: the scenario's full cluster at
    /// packet fidelity, the learned oracle serving every other fabric.
    hybrid: bool,
    /// Pair the hybrid against ground truth and gate on `[audit]` bounds.
    audit: bool,
    /// `--model PATH`; wins over the scenario's `[model] path`.
    model_flag: Option<String>,
    /// Offered load of the quick default model's training capture.
    train_load: f64,
    /// `--fault-oracle` drill: (mode, poison one verdict in N).
    fault: Option<(OracleFaultMode, u64)>,
    pdes: bool,
    /// `--partitions` was given (hybrid PDES ignores it, with a note).
    partitions_flag: bool,
    epoch_mode: EpochMode,
    sinks: Sinks,
}

/// Runs `req` on the engine it selects and reports through [`finish`].
fn dispatch(req: Request) {
    let c = &req.compiled;
    req.sinks.enable();
    println!(
        "{}: {} clusters, {} hosts, {} flows, horizon {}, seed {}{}",
        req.title,
        c.params.clusters,
        c.params.total_hosts(),
        c.flows.len(),
        c.horizon,
        c.seed,
        match req.pdes {
            // Hybrid PDES always partitions one cluster per partition.
            true if req.hybrid => format!(", PDES x{}", c.params.clusters),
            true => format!(", PDES x{}", c.partitions),
            false => String::new(),
        }
    );
    if c.faults.is_some() && !req.pdes {
        println!("note: the scenario's [faults] plan applies only under --pdes");
    }

    // A [model] section (or --model / --audit / `hybrid`) routes the run
    // through the hybrid engine, guarded and cached per the compiled
    // [guard]/[oracle] settings.
    let model = req.hybrid.then(|| resolve_model(&req));
    let elided = req.hybrid.then(|| c.hybrid_flows());
    let flows = elided.as_deref().unwrap_or(&c.flows);
    if req.hybrid {
        println!(
            "  hybrid: cluster {} at packet fidelity ({} approximated), {} flows after elision",
            c.hybrid.full_cluster,
            c.params.clusters - 1,
            flows.len()
        );
    }
    if req.audit {
        return audit(&req, model.expect("audits are hybrid"), flows);
    }

    let mut sampler = c.sample_every.map(|d| NetSampler::new(d, flows));
    if c.recovery.is_some() && sampler.is_some() {
        println!(
            "note: samplers observe a single timeline and cannot follow checkpoint \
             restores; sampling is disabled under [recovery] supervision"
        );
        sampler = None;
    }
    if req.pdes && (req.sinks.trace.is_some() || req.sinks.trace_out.is_some()) {
        println!("note: --pdes runs record no raw event trace; the timeline still gets partition, flow, and sampler tracks");
    }
    if req.pdes && req.hybrid {
        if req.partitions_flag {
            println!(
                "note: hybrid PDES partitions one cluster per partition; --partitions is ignored"
            );
        }
        if c.hybrid.guard.is_some() || req.fault.is_some() {
            println!("note: --pdes runs the learned oracle unguarded (per-partition guard stats are not aggregated); guard settings and --fault-oracle are ignored");
        }
    }

    let mut guard = None;
    let mut caches = Vec::new();
    let mut oracles = |partition: Option<usize>| {
        let model = model.clone().expect("hybrid runs resolve a model");
        let stack = build_stack(model, c.params, c.seed, &c.hybrid, req.fault, partition);
        guard = stack.guard;
        caches.extend(stack.cache);
        stack.oracle
    };
    let exec = match req.pdes {
        true => c.pdes(None, req.epoch_mode),
        false => Exec::Sequential,
    };
    let observe = Observe {
        trace: match req.pdes {
            true => None,
            false => req.sinks.build_trace(flows),
        },
        sampler: sampler.as_mut(),
    };
    let outcome = c
        .run(
            req.hybrid.then_some(&mut oracles),
            exec,
            c.recovery.as_ref(),
            observe,
        )
        .unwrap_or_else(|e| die(e));
    if c.recovery.is_some() {
        // The handles would outlive checkpoint restores (a restored net
        // carries a deep-copied oracle stack), so supervised runs report
        // recovery state instead of guard/cache stats.
        guard = None;
        caches.clear();
    }
    finish(&req, &outcome, &guard, &caches, sampler.as_ref());
}

/// The one epilogue: summary, guard/cache report, fingerprint line,
/// samples CSV, `--trace-out` timeline, `--profile` table, sealed ledger.
fn finish(
    req: &Request,
    out: &Outcome,
    guard: &Option<GuardStatsHandle>,
    caches: &[CacheStatsHandle],
    sampler: Option<&NetSampler>,
) {
    let c = &req.compiled;
    print_outcome(out);
    if req.sinks.trace.is_some() {
        print_trace_sample(&out.nets[0]);
    }
    report_fault_counts(
        c.faults.as_ref().filter(|_| req.pdes),
        out.report.as_ref().map(|r| r.faults),
    );
    report_guard(guard);
    report_cache(caches);
    let fingerprint = run_fingerprint(&out.nets);
    println!("  fingerprint: {fingerprint:#018x}");

    if let Some(s) = sampler {
        let path = req.sinks.samples_path();
        written(&path, write_csv(&path, &SAMPLE_CSV_HEADER, s.rows()));
        println!("wrote {path} ({} samples)", s.rows().len());
    }
    if let Some(path) = &req.sinks.trace_out {
        write_timeline(path, &out.nets, guard);
    }

    // Driver and mode name the point of the run matrix that executed.
    let supervised = out.recovery.is_some();
    let engine = match (supervised, req.pdes) {
        (true, _) => "supervised",
        (false, true) => "pdes",
        (false, false) => "sequential",
    };
    let driver = match (req.hybrid, engine) {
        (false, engine) => engine.to_string(),
        (true, "sequential") => "hybrid".to_string(),
        (true, engine) => format!("hybrid-{engine}"),
    };
    let report = RunReport::new(req.command, format!("{}, seed {}", req.title, c.seed));
    let mut ledger = RunLedger::new(driver, report);
    ledger.seed = c.seed;
    ledger.fingerprint = fingerprint;
    ledger.mode = match req.pdes {
        true => format!("{:?}", req.epoch_mode).to_lowercase(),
        false => "sequential".to_string(),
    };
    if let Some(log) = &out.recovery {
        ledger.recovery = vec![log.summary()];
        ledger
            .recovery
            .extend(log.transitions.iter().map(|t| format!("{t:?}")));
    }
    emit_ledger(&req.sinks, ledger, &out.meta);
}

/// Fills `ledger`'s report from `meta` and the global registry/profiler,
/// prints it under `--profile`, and seals it under `--metrics-out`. Every
/// report gets one zero-wait partition row so sequential and PDES
/// artifacts share a schema.
fn emit_ledger(sinks: &Sinks, mut ledger: RunLedger, meta: &RunMeta) {
    if !sinks.observing() {
        return;
    }
    let report = &mut ledger.report;
    report.set_run(meta.wall.as_secs_f64(), meta.events, meta.sim_seconds);
    report.partitions = vec![elephant::obs::PartitionRow {
        partition: 0,
        events: meta.events,
        work_seconds: meta.wall.as_secs_f64(),
        ..Default::default()
    }
    .finish()];
    report.gather();
    if sinks.profile {
        println!("\n{}", report.to_table());
    }
    if let Some(path) = &sinks.metrics_out {
        save_ledger(path, ledger);
    }
}

/// Seals and writes a schema-v1 [`RunLedger`] — the one artifact shape
/// every command's `--metrics-out`/`--ledger-out` emits, and the input
/// `elephant compare A.json B.json` diffs.
fn save_ledger(path: &str, mut ledger: RunLedger) {
    ledger.scenario = ledger.report.scenario.clone();
    written(path, ledger.save(std::path::Path::new(path)));
    println!("wrote {path} (schema-v{LEDGER_SCHEMA_VERSION} run ledger)");
}

/// The `--audit` leg of [`dispatch`]: ground truth and hybrid over the
/// same elided flows and seed, the divergence table attributed by
/// regime/layer/oracle, the ledger pair under `--metrics-out`, and the
/// gate on the scenario's `[audit]` bounds (exit 8 on breach).
fn audit(req: &Request, model: ClusterModel, flows: &[FlowSpec]) {
    let c = &req.compiled;
    if c.recovery.is_some() {
        println!("note: --audit runs both sides unsupervised; the [recovery] ladder is ignored");
    }
    if req.pdes {
        println!("note: --audit runs both sides sequentially; --pdes is ignored");
    }
    let bounds = c.audit_bounds.unwrap_or_default();
    let stack = build_stack(model, c.params, c.seed, &c.hybrid, None, None);
    let run = run_audit(
        c.params,
        c.hybrid.full_cluster,
        stack.oracle,
        c.net_config(),
        flows,
        c.horizon,
        bounds,
        c.sample_every
            .unwrap_or_else(|| SimDuration::from_micros(200)),
        AuditHooks {
            cache: stack.cache,
            guard: stack.guard,
        },
    );
    println!("\n{}", run.divergence.to_table());
    println!(
        "  truth : {} events in {:.2}s wall | hybrid: {} events in {:.2}s wall \
         ({:.1}x fewer events)",
        run.truth_meta.events,
        run.truth_meta.wall.as_secs_f64(),
        run.hybrid_meta.events,
        run.hybrid_meta.wall.as_secs_f64(),
        run.truth_meta.events as f64 / run.hybrid_meta.events.max(1) as f64
    );
    let fingerprint = run_fingerprint([&run.hybrid_net]);
    println!("  fingerprint: {fingerprint:#018x}");

    if let Some(base) = &req.sinks.metrics_out {
        let side = |driver: &str, meta: &RunMeta, fingerprint: u64| {
            let mut report = RunReport::new(driver, format!("{}, seed {}", req.title, c.seed));
            report.set_run(meta.wall.as_secs_f64(), meta.events, meta.sim_seconds);
            let mut ledger = RunLedger::new(driver, report);
            ledger.seed = c.seed;
            ledger.fingerprint = fingerprint;
            ledger.mode = "paired".to_string();
            ledger
        };
        let mut hybrid = side("audit-hybrid", &run.hybrid_meta, fingerprint);
        hybrid.divergence = Some(run.divergence.clone());
        save_ledger(base, hybrid);
        let truth_fingerprint = run_fingerprint([&run.truth_net]);
        save_ledger(
            &format!("{}.truth.json", base.trim_end_matches(".json")),
            side("audit-truth", &run.truth_meta, truth_fingerprint),
        );
    }

    let breaches = run.divergence.breaches();
    if !breaches.is_empty() {
        eprintln!("\naudit FAILED: hybrid diverges outside the [audit] bounds");
        for b in &breaches {
            eprintln!("  - {b}");
        }
        exit(8)
    }
    println!(
        "\naudit OK: drop-rate err {:.4} <= {}, FCT KS {:.3} <= {}, W1/mean {:.3} <= {}",
        run.divergence.drop_rate_error(),
        bounds.max_drop_rate_error,
        run.divergence.fct_ks,
        bounds.max_ks,
        run.divergence.w1_ratio(),
        bounds.max_w1_ratio
    );
}

/// Assembles the oracle stack `spec` describes (see
/// `elephant_core::oracle_stack`). `--fault-oracle` substitutes a
/// deliberately faulty primary under the same guard — sequential runs
/// only, like the guard itself.
fn build_stack(
    model: ClusterModel,
    params: ClosParams,
    seed: u64,
    spec: &HybridSpec,
    fault: Option<(OracleFaultMode, u64)>,
    partition: Option<usize>,
) -> OracleStack {
    let Some((mode, every)) = fault.filter(|_| partition.is_none()) else {
        return oracle_stack(
            model,
            params,
            seed,
            partition,
            spec.cache.then_some(spec.cache_cap),
            spec.guard.as_ref(),
        );
    };
    println!("fault drill: oracle emits {mode:?} latency every {every} verdicts");
    let faulty: Box<dyn ClusterOracle + Send> =
        Box::new(FaultyOracle::new(mode, every, SimDuration::from_micros(5)));
    match &spec.guard {
        Some(cfg) => guard_primary(faulty, &model.meta, cfg),
        None => OracleStack {
            oracle: faulty,
            guard: None,
            cache: None,
        },
    }
}

fn read_model(path: &str) -> Result<ClusterModel, ElephantError> {
    let json = std::fs::read_to_string(path).map_err(|source| ElephantError::Io {
        path: path.to_string(),
        source,
    })?;
    ClusterModel::load_json(&json)
}

/// Resolves the model artifact for a hybrid run. Precedence: the
/// `--model` flag (plain CLI semantics: exit 3/4 on failure), then the
/// scenario's `[model] path` (scenario semantics: exit 6 naming the
/// binding's `file:line`), then — when `train_fallback = true`, or under
/// `--audit` with no binding at all — a quick-trained default model.
fn resolve_model(req: &Request) -> ClusterModel {
    let c = &req.compiled;
    let spec = &c.hybrid;
    let scenario_err = |detail: String| -> ! {
        die(ElephantError::Scenario {
            path: req.origin.clone(),
            line: spec.model_line,
            detail,
        })
    };
    if c.params.clusters < 2 {
        scenario_err(
            "hybrid simulation needs >= 2 clusters (the oracle approximates \
             every cluster but the full-fidelity one)"
                .into(),
        )
    }
    if let Some(p) = &req.model_flag {
        return read_model(p).unwrap_or_else(|e| die(e));
    }
    let allow_fallback = req.audit || spec.train_fallback;
    match &spec.model_path {
        Some(p) => match read_model(p) {
            Ok(model) => return model,
            Err(ElephantError::Io { source, .. })
                if allow_fallback && source.kind() == std::io::ErrorKind::NotFound =>
            {
                println!(
                    "model artifact `{p}` does not exist; capturing + training a small \
                     default model (train_fallback) ..."
                )
            }
            Err(ElephantError::Io { source, .. }) => {
                scenario_err(format!("model artifact `{p}`: {source}"))
            }
            Err(e) => scenario_err(format!("model artifact `{p}`: {e}")),
        },
        None if allow_fallback => {
            println!(
                "no model artifact bound; capturing + training a small default model first ..."
            )
        }
        None => scenario_err(
            "[model] names no `path` and `train_fallback` is false; \
             pass --model or bind an artifact"
                .into(),
        ),
    }
    quick_default_model(c.seed, req.train_load, c.dctcp)
}

/// Captures a short two-cluster ground truth and trains a deliberately
/// small model — the fallback when no artifact is bound.
fn quick_default_model(seed: u64, load: f64, dctcp: bool) -> ClusterModel {
    let params = ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(30);
    let flows = workload(&params, horizon, load, seed);
    let (records, _) = capture_ground_truth(params, dctcp, &flows, horizon);
    let opts = TrainingOptions {
        hidden: 16,
        layers: 1,
        epochs: 4,
        ..Default::default()
    };
    train_cluster_model(&records, &params, &opts).0
}

/// Ground truth with boundary capture around cluster 1: the training input.
fn capture_ground_truth(
    params: ClosParams,
    dctcp: bool,
    flows: &[FlowSpec],
    horizon: SimTime,
) -> (Vec<elephant::net::BoundaryRecord>, RunMeta) {
    let cfg = net_config(dctcp, RttScope::None);
    let (net, meta) = run_ground_truth(params, cfg, Some(1), flows, horizon);
    (capture_records(net).unwrap_or_else(|e| die(e)), meta)
}

fn net_config(dctcp: bool, rtt_scope: RttScope) -> NetConfig {
    NetConfig {
        tcp: if dctcp {
            TcpConfig::dctcp()
        } else {
            TcpConfig::default()
        },
        rtt_scope,
        ..Default::default()
    }
}

/// The paper's default Poisson web-search mix at `load`.
fn workload(params: &ClosParams, horizon: SimTime, load: f64, seed: u64) -> Vec<FlowSpec> {
    let mut wl = WorkloadConfig::paper_default(horizon, seed);
    wl.load = load;
    generate(params, &wl)
}

/// Post-run summary: the run line, network statistics (per-layer detail
/// for a single network, totals across partitions), the kernel's
/// per-partition wall-time breakdown (the timeline has the per-epoch
/// view), and the supervisor's log.
fn print_outcome(out: &Outcome) {
    println!(
        "\nsimulated {:.3}s{}{} in {:.2}s wall ({} events{})",
        out.meta.sim_seconds,
        if out.recovery.is_some() {
            " supervised"
        } else {
            ""
        },
        if out.report.is_some() {
            " under PDES"
        } else {
            ""
        },
        out.meta.wall.as_secs_f64(),
        out.meta.events,
        out.report.as_ref().map_or(String::new(), |r| format!(
            ", {} epochs ({} jumped), {} partitions",
            r.epochs,
            r.epochs_jumped,
            r.partitions.len()
        )),
    );
    if let [net] = out.nets.as_slice() {
        print_net_stats(net);
    } else {
        println!(
            "  flows     : {} completed across partitions",
            out.flows_completed()
        );
        if out.oracle_deliveries() > 0 {
            println!(
                "  oracle    : {} packets teleported",
                out.oracle_deliveries()
            );
        }
    }
    if let Some(r) = &out.report {
        for p in &r.partitions {
            println!(
                "  partition {:>2}: {:>9} events | work {:.3}s | barrier {:.3}s | marshal {:.3}s",
                p.partition, p.events, p.work_seconds, p.barrier_wait_seconds, p.marshal_seconds
            );
        }
        let f = &r.faults;
        if f.total() > 0 {
            println!(
                "  faults    : {} injected (dropped {}, duplicated {}, corrupted {})",
                f.total(),
                f.dropped,
                f.duplicated,
                f.corrupted
            );
        }
    }
    if let Some(log) = &out.recovery {
        println!("  {}", log.summary());
    }
}

fn print_net_stats(net: &Network) {
    let s = &net.stats;
    println!(
        "  flows     : {}/{} completed",
        s.flows_completed, s.flows_started
    );
    println!(
        "  goodput   : {:.3} GB delivered",
        s.delivered_bytes as f64 / 1e9
    );
    println!(
        "  drops     : {} (host {}, tor {}, agg {}, core {}, oracle {})",
        s.drops.total(),
        s.drops.host,
        s.drops.tor,
        s.drops.agg,
        s.drops.core,
        s.drops.oracle
    );
    if s.rtt_hist.count() > 0 {
        println!(
            "  RTT       : p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  ({} samples)",
            s.rtt_hist.quantile(0.5) * 1e6,
            s.rtt_hist.quantile(0.9) * 1e6,
            s.rtt_hist.quantile(0.99) * 1e6,
            s.rtt_hist.count()
        );
    }
    if let Some(fct) = s.mean_fct() {
        println!("  mean FCT  : {fct}");
    }
    if s.oracle_deliveries > 0 {
        println!("  oracle    : {} packets teleported", s.oracle_deliveries);
    }
}

fn print_trace_sample(net: &Network) {
    let Some(trace) = net.trace() else { return };
    println!(
        "\nfirst events of the raw trace ({} retained, {} observed{}):",
        trace.entries().len(),
        trace.observed(),
        if trace.truncated() { ", truncated" } else { "" }
    );
    println!(
        "  {:>12}  {:<14} {:>6} {:>8} {:>8} {:>10}",
        "time", "kind", "node", "packet", "flow", "seq"
    );
    for e in trace.entries().iter().take(20) {
        println!(
            "  {:>12}  {:<14} {:>6} {:>8} {:>8} {:>10}",
            format!("{}", e.time),
            e.kind.name(),
            e.node.0,
            e.packet,
            e.flow.0,
            e.seq
        );
    }
}

/// Prints the post-run verdict-cache summary — one cache sequentially,
/// the fleet total across PDES partitions — and mirrors it into the
/// metrics registry (so `--metrics-out` reports carry `hybrid/cache/*`).
fn report_cache(handles: &[CacheStatsHandle]) {
    if handles.is_empty() {
        return;
    }
    let mut total = CacheStats::default();
    for h in handles {
        h.publish_metrics();
        let s = h.snapshot();
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
        total.invalidations += s.invalidations;
    }
    println!(
        "  cache     : {} lookups{}, {:.1}% hit rate ({} evictions, {} invalidations)",
        total.lookups(),
        match handles.len() {
            1 => String::new(),
            n => format!(" across {n} partitions"),
        },
        total.hit_rate() * 100.0,
        total.evictions,
        total.invalidations
    );
}

/// Prints the post-run guardrail summary and mirrors it into the metrics
/// registry (so `--metrics-out` reports carry `hybrid/guard/*`).
fn report_guard(handle: &Option<GuardStatsHandle>) {
    let Some(h) = handle else { return };
    h.publish_metrics();
    let s = h.snapshot();
    if s.trips() == 0 {
        println!(
            "  guardrail : {} verdicts, no trips (bit-identical to unguarded)",
            s.verdicts
        );
    } else {
        println!(
            "  guardrail : {} trips in {} verdicts (non-finite {}, negative {}, \
             ceiling {}, drop-drift {}); {} fallback verdicts{}",
            s.trips(),
            s.verdicts,
            s.non_finite,
            s.negative,
            s.ceiling,
            s.drop_drift,
            s.fallback_verdicts,
            if s.fallback_active {
                "; primary ABANDONED (trip limit)"
            } else {
                ""
            }
        );
    }
}

/// Mirrors `FaultCounts` into `fault/*` metrics and warns when a plan with
/// probabilistic message faults fired none of them (horizon too short, or
/// too little cross-machine traffic for the configured probabilities).
/// Scripted stalls/slowdowns are excluded: they manifest through the
/// watchdog and the recovery ladder, not through injection counts.
fn report_fault_counts(plan: Option<&FaultPlan>, counts: Option<FaultCounts>) {
    let Some(counts) = counts else { return };
    elephant::obs::counter("fault/dropped", "").add(counts.dropped);
    elephant::obs::counter("fault/duplicated", "").add(counts.duplicated);
    elephant::obs::counter("fault/corrupted", "").add(counts.corrupted);
    if let Some(p) = plan {
        let probabilistic = p.drop_prob > 0.0 || p.dup_prob > 0.0 || p.corrupt_prob > 0.0;
        if probabilistic && counts.total() == 0 {
            eprintln!(
                "warning: the [faults] plan was active but injected zero faults; \
                 the run exercised no failure paths (extend the horizon, raise the \
                 probabilities, or add cross-machine traffic)"
            );
            elephant::obs::counter("fault/zero_injected", "").inc();
        }
    }
}

/// Writes the Chrome-trace timeline: flow tracks and drop/oracle instants
/// from the nets' traces, guard-trip instants from the guard's log, and
/// whatever the run itself recorded (sampler counters, PDES partitions).
fn write_timeline(path: &str, nets: &[Network], guard: &Option<GuardStatsHandle>) {
    let nets: Vec<&Network> = nets.iter().collect();
    elephant::net::export_flow_timeline_multi(&nets, MAX_FLOW_TRACKS);
    let tl = elephant::obs::timeline();
    if let Some(h) = guard {
        for (t, v) in h.trip_events() {
            tl.record(
                TraceRecord::instant(PID_FLOWS, 0, "guard_trip", t.as_nanos() as f64 / 1e3)
                    .category("guard")
                    .arg("kind", format!("{v:?}")),
            );
        }
    }
    let writer = TimelineWriter::from_timeline(tl);
    written(path, writer.save(std::path::Path::new(path)));
    let dropped = tl.dropped();
    println!(
        "wrote {path} ({} trace records{}) — open in https://ui.perfetto.dev or chrome://tracing",
        tl.len(),
        if dropped > 0 {
            format!(", {dropped} dropped at capacity")
        } else {
            String::new()
        }
    );
}

/// `run-scenario FILE` and its `audit FILE` spelling (`audit` = always
/// `--audit`, `--ledger-out` for `--metrics-out`, plus flag overrides of
/// the scenario's oracle settings): load, validate, compile, apply the
/// flag overrides, and [`dispatch`]. Scenario errors exit with code 6
/// and name the offending `file:line`; missing files exit 3.
fn cmd_scenario(args: &[String], audit_cmd: bool) {
    let cmd = if audit_cmd { "audit" } else { "run-scenario" };
    let mut file: Option<String> = None;
    let mut over = CompileOverrides::default();
    let mut validate = false;
    let mut list_dir: Option<String> = None;
    let mut pdes = false;
    let mut partitions: Option<usize> = None;
    let mut epoch_mode = EpochMode::Adaptive;
    let mut sample_every: Option<SimDuration> = None;
    let mut checkpoint_every_ms: Option<f64> = None;
    let mut max_retries: Option<u32> = None;
    let mut model_flag: Option<String> = None;
    let mut audit = audit_cmd;
    let mut oracle_cache = false;
    let mut oracle_cache_cap: Option<usize> = None;
    let mut no_guard = false;
    let mut sinks = Sinks::default();

    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--seed" => over.seed = Some(args.parsed(a)),
            "--horizon-ms" => over.horizon_ms = Some(args.parsed(a)),
            "--repeat" => over.repeat = Some(args.parsed(a)),
            "--model" => model_flag = Some(args.val(a)),
            "--sample-every" => sample_every = Some(SimDuration::from_micros(args.parsed(a))),
            "--ledger-out" if audit_cmd => sinks.metrics_out = Some(args.val(a)),
            "--oracle-cache" if audit_cmd => oracle_cache = true,
            "--oracle-cache-cap" if audit_cmd => oracle_cache_cap = Some(args.parsed(a)),
            "--no-guard" if audit_cmd => no_guard = true,
            // Every flag below this arm is `run-scenario`'s alone.
            other if audit_cmd && other.starts_with('-') => {
                eprintln!("unknown audit option: {other}\n");
                usage()
            }
            "--metrics-out" => sinks.metrics_out = Some(args.val(a)),
            "--validate" => validate = true,
            "--pdes" => pdes = true,
            "--partitions" => {
                partitions = Some(args.parsed(a));
                pdes = true;
            }
            "--adaptive-epochs" => epoch_mode = EpochMode::Adaptive,
            "--fixed-epochs" => epoch_mode = EpochMode::Fixed,
            "--samples-out" => sinks.samples_out = Some(args.val(a)),
            "--checkpoint-every-ms" => {
                let ms: f64 = args.parsed(a);
                if ms <= 0.0 {
                    eprintln!("--checkpoint-every-ms must be > 0, got {ms}");
                    exit(2)
                }
                checkpoint_every_ms = Some(ms);
            }
            "--max-retries" => {
                let n: u32 = args.parsed(a);
                if n == 0 {
                    eprintln!("--max-retries must be >= 1");
                    exit(2)
                }
                max_retries = Some(n);
            }
            "--profile" => sinks.profile = true,
            "--audit" => audit = true,
            // DIR is optional; the next token is a directory unless it
            // looks like a flag.
            "--list-scenarios" => {
                list_dir = Some(args.positional().unwrap_or_else(|| "scenarios".into()))
            }
            other if other.starts_with('-') => {
                eprintln!("unknown run-scenario option: {other}\n");
                usage()
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    eprintln!("{cmd} takes one scenario file\n");
                    usage()
                }
            }
        }
    }

    if let Some(dir) = list_dir {
        let files = list_scenarios(std::path::Path::new(&dir)).unwrap_or_else(|e| {
            die(ElephantError::Io {
                path: dir.clone(),
                source: e,
            })
        });
        if files.is_empty() {
            println!("no scenario files under {dir}/");
        }
        for f in files {
            match load(&f.display().to_string()) {
                Ok(s) => println!("{}  {} — {}", f.display(), s.name, s.description),
                Err(e) => println!("{}  INVALID: {e}", f.display()),
            }
        }
        return;
    }

    let Some(path) = file else {
        eprintln!("{cmd} needs a scenario file\n");
        usage()
    };
    let scenario = load(&path).unwrap_or_else(|e| die(e));
    let mut compiled = compile(&scenario, &over);

    // Flags override what the file says; the run reads only `compiled`.
    if let Some(n) = partitions {
        compiled.partitions = n;
    }
    compiled.sample_every = sample_every.or(compiled.sample_every);
    compiled.hybrid.cache |= oracle_cache;
    if let Some(cap) = oracle_cache_cap {
        compiled.hybrid.cache_cap = cap;
    }
    if no_guard {
        compiled.hybrid.guard = None;
    }
    // --checkpoint-every-ms / --max-retries enable supervision even
    // without a [recovery] section and override its knobs when present.
    if checkpoint_every_ms.is_some() || max_retries.is_some() {
        let mut p: RecoveryPolicy = compiled.recovery.unwrap_or_default();
        if let Some(ms) = checkpoint_every_ms {
            p.checkpoint_every = SimDuration::from_secs_f64(ms / 1e3);
        }
        if let Some(n) = max_retries {
            p.max_retries = n;
        }
        compiled.recovery = Some(p);
    }

    if validate {
        println!(
            "{path}: ok — scenario `{}`: {} clusters, {} hosts, {} flows, horizon {}, \
             {} PDES partitions",
            compiled.name,
            compiled.params.clusters,
            compiled.params.total_hosts(),
            compiled.flows.len(),
            compiled.horizon,
            compiled.partitions,
        );
        let spec = &compiled.hybrid;
        if spec.model_declared {
            println!(
                "  [model]: {} — full cluster {}, cache {}, guard {}",
                spec.model_path.as_deref().unwrap_or("(train_fallback)"),
                spec.full_cluster,
                if spec.cache { "on" } else { "off" },
                if spec.guard.is_some() { "on" } else { "off" },
            );
        }
        return;
    }

    dispatch(Request {
        command: cmd,
        title: format!("scenario `{}` ({path})", compiled.name),
        origin: path,
        hybrid: audit || model_flag.is_some() || compiled.hybrid.model_declared,
        compiled,
        audit,
        model_flag,
        train_load: 0.3,
        fault: None,
        pdes,
        partitions_flag: partitions.is_some(),
        epoch_mode,
        sinks,
    });
}

fn cmd_train(o: &Opts) {
    o.sinks.enable();
    let params = o.params(2);
    let flows = o.workload(&params, o.seed);
    println!(
        "capturing ground truth: 2 clusters, {} flows, horizon {} ...",
        flows.len(),
        o.horizon
    );
    let (records, meta) = capture_ground_truth(params, o.dctcp, &flows, o.horizon);
    println!(
        "  {} events, {} boundary records",
        meta.events,
        records.len()
    );

    let opts = TrainingOptions {
        hidden: o.hidden,
        layers: o.layers,
        epochs: o.epochs,
        rnn: if o.gru { RnnKind::Gru } else { RnnKind::Lstm },
        ..Default::default()
    };
    let shape = format!(
        "{}x{} {}",
        o.layers,
        o.hidden,
        if o.gru { "GRU" } else { "LSTM" }
    );
    println!("training {shape} for {} epochs ...", o.epochs);
    let (model, report) = train_cluster_model(&records, &params, &opts);
    println!(
        "  up:   {} samples | drop accuracy {:.3} | latency rmse {:.3}",
        report.up.train_samples, report.up.eval.drop_accuracy, report.up.eval.latency_rmse
    );
    println!(
        "  down: {} samples | drop accuracy {:.3} | latency rmse {:.3}",
        report.down.train_samples, report.down.eval.drop_accuracy, report.down.eval.latency_rmse
    );
    std::fs::write(&o.out, model.to_file_json()).unwrap_or_else(|e| {
        die(ElephantError::Io {
            path: o.out.clone(),
            source: e,
        })
    });
    println!(
        "wrote {} (format v{}, checksum {:#018x})",
        o.out,
        elephant::core::MODEL_VERSION,
        model.weight_checksum()
    );
    let scenario = format!("capture + {shape} training, seed {}", o.seed);
    // The captured net was consumed by training; no fingerprint.
    let mut ledger = RunLedger::new("train", RunReport::new("train", scenario));
    ledger.seed = o.seed;
    emit_ledger(&o.sinks, ledger, &meta);
}

fn cmd_compare(o: &Opts) {
    o.sinks.enable();
    let path = o.model.as_deref().unwrap_or_else(|| {
        eprintln!("--model PATH is required for this command");
        exit(2)
    });
    let model = read_model(path).unwrap_or_else(|e| die(e));
    let params = o.params(o.clusters);
    let flows = o.workload(&params, o.seed.wrapping_add(1));
    let cfg = net_config(o.dctcp, RttScope::Cluster(o.full_cluster));

    println!("ground truth ({} flows) ...", flows.len());
    let (truth, tmeta) = run_ground_truth(params, cfg, None, &flows, o.horizon);
    let elided = elephant::trace::filter_touching_cluster(&flows, o.full_cluster);
    println!("hybrid ({} flows after elision) ...", elided.len());
    let stack = build_stack(model, params, o.seed, &o.hybrid_spec(true), o.fault(), None);
    let (hybrid, hmeta) = run_hybrid(
        params,
        o.full_cluster,
        stack.oracle,
        cfg,
        &elided,
        o.horizon,
    );
    report_guard(&stack.guard);
    report_cache(stack.cache.as_slice());

    let cmp = compare_cdfs(&truth.stats.rtt_cdf(), &hybrid.stats.rtt_cdf());
    println!("\n  quantile   truth       hybrid      error");
    for r in &cmp.rows {
        println!(
            "  p{:<8} {:>9.1}us {:>9.1}us {:>+8.1}%",
            r.q * 100.0,
            r.truth * 1e6,
            r.approx * 1e6,
            r.rel_error() * 100.0
        );
    }
    println!(
        "\n  KS distance {:.4} | wall {:.2}s truth vs {:.2}s hybrid ({:.2}x) | events {:.1}x fewer",
        cmp.ks,
        tmeta.wall.as_secs_f64(),
        hmeta.wall.as_secs_f64(),
        tmeta.wall.as_secs_f64() / hmeta.wall.as_secs_f64().max(1e-9),
        tmeta.events as f64 / hmeta.events.max(1) as f64,
    );
    let scenario = format!("truth vs hybrid, {} clusters, seed {}", o.clusters, o.seed);
    let mut ledger = RunLedger::new("compare", RunReport::new("compare", scenario));
    ledger.seed = o.seed;
    ledger.fingerprint = run_fingerprint([&hybrid]);
    emit_ledger(&o.sinks, ledger, &hmeta);
}

/// `compare A.json B.json`: validate and diff two run-ledger artifacts.
/// Exit 8 when they drift outside tolerance, 3 when either artifact is
/// missing or fails schema/checksum validation.
fn cmd_compare_ledgers(args: &[String]) {
    let mut files: Vec<String> = Vec::new();
    let mut tolerance = 0.05f64;
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--tolerance" => tolerance = args.parsed(a),
            other if other.starts_with('-') => {
                eprintln!("unknown compare option: {other}\n");
                usage()
            }
            path => files.push(path.to_string()),
        }
    }
    if files.len() != 2 {
        eprintln!("compare takes exactly two ledger files (or --model for the accuracy table)\n");
        usage()
    }
    let load = |p: &String| {
        RunLedger::load(std::path::Path::new(p)).unwrap_or_else(|e| {
            die(ElephantError::Io {
                path: p.clone(),
                source: e,
            })
        })
    };
    let a = load(&files[0]);
    let b = load(&files[1]);
    println!(
        "comparing run ledgers (tolerance {tolerance}):\n  \
         A: {} — driver {}, seed {}, fingerprint {:#018x}\n  \
         B: {} — driver {}, seed {}, fingerprint {:#018x}",
        files[0], a.driver, a.seed, a.fingerprint, files[1], b.driver, b.seed, b.fingerprint
    );
    let breaches = compare_ledgers(&a, &b, tolerance);
    if breaches.is_empty() {
        println!("ledgers agree within tolerance");
        return;
    }
    eprintln!("\n{} drift breach(es):", breaches.len());
    for l in &breaches {
        eprintln!("  - {l}");
    }
    exit(8)
}
