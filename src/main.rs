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
//! Every simulation is one pipeline: **scenario document → flag edits →
//! decode → compile → [`dispatch`] → [`finish`]**. `run-scenario` and
//! `audit` start from a file; `run`, `hybrid`, `train` and `compare
//! --model` start from the built-in [`TEMPLATE`]. What runs is the
//! library's run matrix (`elephant::scenario::matrix`): one run, one
//! truth-vs-hybrid pair (`compare --model`, a hybrid sweep cell), one
//! capture-and-train path (a document with a `[train]` section —
//! `train`'s always has one — training sweeps, and the quick-trained
//! fallback model) and the sweep runner. This file keeps what is the
//! command line's: flags, usage errors, exit codes, model resolution,
//! printing and sinks. A flag is
//! one row of [`FLAGS`] — name, help, the commands that accept it, and
//! where its value lands: a key of the scenario document (written before
//! the decoder runs, so the decoder is the one validator of flag and file
//! values alike) or a field of the [`Request`]. `--help` and the parser
//! are both read off that table. Every command prints a summary and is a
//! pure function of its seed.
//!
//! What a run reports has one source, the finished `Outcome`: the stdout
//! summary is its `Display`, and the `--profile` table and the sealed
//! `--metrics-out` ledger are filled by `Outcome::describe` (metric rows,
//! partition rows, run line, and the run's `setup` and `run` clocks;
//! `train` adds its training clock). Either flag profiles the run it
//! reports (`Observe::profile`) and no other. Nothing is counted or timed
//! in process-wide state, so the fallback capture and training before a
//! hybrid run, or an attempt abandoned by the recovery ladder, never
//! shows in the artifact of the run that follows it.

use std::process::exit;

use elephant::core::{
    compare_ledgers, ClusterModel, ElephantError, Observe, OracleCounters, RunLedger, RunMeta,
    LEDGER_SCHEMA_VERSION,
};
use elephant::net::{FlowSpec, OracleFaultMode, RttScope, Sample, TraceLog, SAMPLE_CSV_HEADER};
use elephant::obs::{ProfileRow, RunReport};
use elephant::scenario::matrix::{self, Capture, Engine, Ran};
use elephant::scenario::toml::{self, TomlValue};
use elephant::scenario::{
    compile, decode, list_scenarios, load, run_fingerprint, sweep_cells, CompileOverrides,
    Compiled, Scenario,
};
use elephant::trace::write_csv;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((first, rest)) = args.split_first() else {
        eprint!("{}", overview());
        exit(2)
    };
    let cmd = match COMMANDS.iter().map(|c| c.0).find(|c| c.name() == first) {
        // `compare A.json B.json` diffs two run-ledger artifacts; the
        // accuracy table always leads with a flag.
        Some(Cmd::Compare) if rest.first().is_some_and(|a| !a.starts_with('-')) => Cmd::Ledgers,
        Some(cmd) => cmd,
        None if matches!(first.as_str(), HELP | "-h" | "help") => {
            let sections: Vec<String> = COMMANDS.iter().map(|c| section(c.0)).collect();
            print!("{}\n{}", overview(), sections.join("\n"));
            return;
        }
        None => {
            eprint!("unknown command: {first}\n\n{}", overview());
            exit(2)
        }
    };
    let req = Request::parse(cmd, rest);
    if let (true, [flag, ..]) = (req.validate, &req.sinks.flags()[..]) {
        bad_usage(
            cmd,
            format!("{flag} does not apply to --validate: it runs nothing, so it writes nothing"),
        )
    }
    if cmd == Cmd::Ledgers {
        return diff_ledgers(&req);
    }
    if let Some(dir) = &req.list_dir {
        return list(dir);
    }
    // The run's scenario: the document through the one decoder.
    let doc = req.document();
    let scenario = decode::from_table(&doc).unwrap_or_else(|e| req.reject(e.line, e.detail));
    match cmd {
        Cmd::Compare => compare(&req, &scenario),
        _ if !scenario.sweep.is_empty() => sweep(&req, &doc, &scenario),
        _ if req.sinks.csv.is_some() => {
            bad_usage(cmd, "--csv needs a scenario with [[sweep]] axes")
        }
        _ if req.validate => validated(&req, &compile(&scenario, &req.over)),
        _ if scenario.train.is_some() => train(&req, &compile(&scenario, &req.over)),
        _ => dispatch(&req, &compile(&scenario, &req.over)),
    }
}

/// The subcommands, in help order; `as usize` indexes [`COMMANDS`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
enum Cmd {
    #[default]
    Run,
    Train,
    Hybrid,
    Compare,
    /// `compare A.json B.json`.
    Ledgers,
    Scenario,
    Audit,
}

/// Each command's name, positional arguments, and what it does.
#[rustfmt::skip]
const COMMANDS: [(Cmd, &str, &str, &str); 7] = [
    (Cmd::Run, "run", "", "full-fidelity packet simulation; prints summary statistics"),
    (Cmd::Train, "train", "", "two-cluster ground-truth capture + model training; writes a model JSON"),
    (Cmd::Hybrid, "hybrid", "", "hybrid simulation: one cluster at packet fidelity, a trained model serving the rest"),
    (Cmd::Compare, "compare", "", "run truth and hybrid side by side; print a model's accuracy table"),
    (Cmd::Ledgers, "compare", "A.json B.json ", "diff two run-ledger artifacts; exit 8 on drift"),
    (Cmd::Scenario, "run-scenario", "FILE ", "run a declarative TOML scenario (see scenarios/ and DESIGN.md \"Scenario subsystem\")"),
    (Cmd::Audit, "audit", "FILE ", "run-scenario FILE as an audit: paired truth+hybrid run, divergence table, gate on [audit] bounds"),
];

impl Cmd {
    /// This command's bit in [`Flag::cmds`].
    const fn bit(self) -> u8 {
        1 << self as u8
    }

    fn name(self) -> &'static str {
        COMMANDS[self as usize].1
    }

    /// `run-scenario` and `audit` start from a scenario file, every other
    /// simulation from [`TEMPLATE`].
    fn takes_file(self) -> bool {
        matches!(self, Cmd::Scenario | Cmd::Audit)
    }
}

/// The top of `elephant --help`, and what an unknown command gets.
fn overview() -> String {
    let mut out = format!(
        "elephant — fast network simulation through approximation\n\n\
         USAGE: elephant <command> [options]\n       \
         elephant <command> {HELP}    one command's options and defaults\n\nCOMMANDS\n"
    );
    for (_, name, positional, about) in COMMANDS {
        out += &format!("  {:<22}{about}\n", format!("{name} {positional}"));
    }
    out + "\nEXIT CODES\n  \
           0 success | 1 generic failure | 2 usage | 3 I/O error\n  \
           4 invalid model artifact | 5 simulation/pipeline fault\n  \
           6 scenario schema/validation error | 7 recovery ladder exhausted\n  \
           8 audit/compare divergence outside bounds\n"
}

/// One command's help, generated from [`FLAGS`]: the synopsis, then every
/// flag whose row lists the command, with the default it starts from —
/// read from the decoded template for a scenario key, from the row for a
/// request field — or, on a file command, the scenario key it overrides.
fn section(cmd: Cmd) -> String {
    let (_, name, positional, about) = COMMANDS[cmd as usize];
    let mut out = format!("USAGE: elephant {name} {positional}[options]\n  {about}\n\nOPTIONS\n");
    let defaults = match cmd.takes_file() {
        true => toml::Table::default(),
        false => {
            let mut s = decode::from_table(&builtin(cmd)).expect("the template is valid");
            s.guard.get_or_insert_with(Default::default);
            toml::parse(&s.to_toml_string()).expect("emitted scenarios parse")
        }
    };
    for f in FLAGS.iter().filter(|f| f.cmds & cmd.bit() != 0) {
        let head = format!("{} {}", f.name, f.metavar(cmd));
        let note = match f.to {
            To::Field(_, default) if !default.is_empty() => format!(" ({default})"),
            To::Key(key) if cmd.takes_file() => format!(" (overrides {key})"),
            To::Switch(key, value) if cmd.takes_file() => format!(" (sets {key} = {value})"),
            To::Key(key) => defaults.at(key).map_or(String::new(), |v| match &v.value {
                TomlValue::Int(i) => format!(" ({i})"),
                TomlValue::Float(x) => format!(" ({x})"),
                other => format!(" ({other:?})"),
            }),
            _ => String::new(),
        };
        let help = f.help.replace('\n', &format!("\n{:26}", ""));
        out += &format!("  {head:<24}{help}{note}\n");
    }
    out
}

/// A usage error: the message and the offending command's help on stderr,
/// exit 2.
fn bad_usage(cmd: Cmd, msg: impl std::fmt::Display) -> ! {
    eprint!("elephant {}: {msg}\n\n{}", cmd.name(), section(cmd));
    exit(2)
}

/// Prints a typed pipeline error and exits with its family's code.
fn die(e: ElephantError) -> ! {
    eprintln!("elephant: {e}");
    exit(e.exit_code())
}

fn io_error(path: &str, source: std::io::Error) -> ElephantError {
    ElephantError::Io {
        path: path.to_string(),
        source,
    }
}

/// Exits 3 naming the file that could not be read or written.
fn io_die(path: &str, e: std::io::Error) -> ! {
    die(io_error(path, e))
}

/// Exits 3 on a failed output write.
fn written(path: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("cannot write {path}: {e}");
        exit(3)
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
    csv: Option<String>,
    /// `--out`: where a `[train]` run writes its model.
    out: Option<String>,
}

impl Sinks {
    /// The sink flags set, by name.
    fn flags(&self) -> Vec<&'static str> {
        let set = [
            ("--profile", self.profile),
            ("--metrics-out", self.metrics_out.is_some()),
            ("--samples-out", self.samples_out.is_some()),
            ("--trace", self.trace.is_some()),
            ("--trace-out", self.trace_out.is_some()),
            ("--csv", self.csv.is_some()),
            ("--out", self.out.is_some()),
        ];
        set.into_iter()
            .filter_map(|(f, on)| on.then_some(f))
            .collect()
    }

    /// Whether the run is reported, and so profiled.
    fn observing(&self) -> bool {
        self.profile || self.metrics_out.is_some()
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

/// The document `run`, `hybrid`, `train` and `compare --model` start
/// from: the paper's cluster shape under its Poisson web-search mix.
/// Everything it leaves out is the scenario decoder's default.
const TEMPLATE: &str = "schema = 1\n\
    [scenario]\nname = \"flags\"\n\
    [topology]\nclusters = 4\n\
    [run]\nhorizon_ms = 50\nseed = 42\n\
    [[traffic]]\nkind = \"poisson\"\nload = 0.3\n";

/// [`TEMPLATE`] parsed, with what the command fixes about it: `hybrid`
/// declares a `[model]` (which routes the run onto the hybrid engine and
/// quick-trains a model when no artifact is given), `train` declares a
/// `[train]` (which routes it onto `matrix::Capture` and
/// `matrix::train_on`) on two clusters.
fn builtin(cmd: Cmd) -> toml::Table {
    let mut doc = toml::parse(TEMPLATE).expect("the template parses");
    let fixed: &[(&str, &str)] = match cmd {
        Cmd::Hybrid => &[("model.train_fallback", "true")],
        Cmd::Train => &[("topology.clusters", "2"), ("train", "{}")],
        _ => &[],
    };
    for (key, text) in fixed {
        doc.set(key, text, 0).expect("the fixed value parses");
    }
    doc
}

/// Where a flag's value lands.
#[derive(Clone, Copy)]
enum To {
    /// The scenario key the value is written to before decoding.
    Key(&'static str),
    /// A switch that writes a constant to a scenario key.
    Switch(&'static str, &'static str),
    /// `--pdes`: selects the PDES engine; where the command has no file
    /// to read `[topology.pdes]` from it also takes the partition count.
    Pdes,
    /// A field of the [`Request`], through a setter that reports whether
    /// the text parsed, and the text the field starts from (`""`: none).
    Field(fn(&mut Request, &str) -> bool, &'static str),
    /// Print the command's [`section`] and exit 0.
    Help,
}

/// One command-line flag, declared once: the parser, the accept set of
/// every command and the help text are all read from its row.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the help; `""` for a switch, `[X]` for
    /// an optional value.
    metavar: &'static str,
    /// Bit set of the commands that accept the flag ([`Cmd::bit`]).
    cmds: u8,
    to: To,
    help: &'static str,
}

impl Flag {
    fn metavar(&self, cmd: Cmd) -> &'static str {
        match self.to {
            To::Pdes if cmd.takes_file() => "",
            _ => self.metavar,
        }
    }
}

fn set<T: std::str::FromStr>(slot: &mut T, text: &str) -> bool {
    text.parse().map(|v| *slot = v).is_ok()
}

fn set_some<T: std::str::FromStr>(slot: &mut Option<T>, text: &str) -> bool {
    text.parse().map(|v| *slot = Some(v)).is_ok()
}

const RUN: u8 = Cmd::Run.bit();
const TRAIN: u8 = Cmd::Train.bit();
const HYBRID: u8 = Cmd::Hybrid.bit();
const COMPARE: u8 = Cmd::Compare.bit();
const LEDGERS: u8 = Cmd::Ledgers.bit();
const SCENARIO: u8 = Cmd::Scenario.bit();
const AUDIT: u8 = Cmd::Audit.bit();
/// The commands that start from [`TEMPLATE`], and those that simulate.
const BUILTIN: u8 = RUN | TRAIN | HYBRID | COMPARE;
const SIMULATE: u8 = BUILTIN | SCENARIO | AUDIT;
/// The commands that serve an oracle the guard/cache/fault flags shape.
const ORACLE: u8 = HYBRID | COMPARE;

const HELP: &str = "--help";
const LOAD: &str = "traffic.load";
const PARTITIONS: &str = "topology.pdes.partitions";

use To::{Field, Key, Switch};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--clusters", metavar: "N", cmds: RUN | ORACLE, to: Key("topology.clusters"), help: "cluster count" },
    Flag { name: "--horizon-ms", metavar: "F", cmds: SIMULATE, to: Key("run.horizon_ms"), help: "simulated horizon in ms" },
    Flag { name: "--load", metavar: "F", cmds: BUILTIN, to: Key(LOAD), help: "per-host offered load fraction" },
    Flag { name: "--seed", metavar: "N", cmds: SIMULATE, to: Key("run.seed"), help: "experiment seed" },
    Flag { name: "--repeat", metavar: "N", cmds: SCENARIO | AUDIT, to: Field(|r, v| set_some(&mut r.over.repeat, v), ""), help: "override every traffic group's repeat count" },
    Flag { name: "--dctcp", metavar: "", cmds: BUILTIN, to: Switch("run.dctcp", "true"), help: "DCTCP + ECN-marking switches instead of New Reno" },
    Flag { name: "--model", metavar: "PATH", cmds: ORACLE | SCENARIO | AUDIT, to: Field(|r, v| set_some(&mut r.model_flag, v), ""), help: "trained model artifact; wins over the scenario's [model] path and alone makes\na scenario run hybrid. compare needs one; the rest capture and train a small\ndefault model when no artifact is bound" },
    Flag { name: "--out", metavar: "PATH", cmds: TRAIN | SCENARIO, to: Field(|r, v| set_some(&mut r.sinks.out, v), ""), help: "where a [train] run writes its model (model.json)" },
    Flag { name: "--full-cluster", metavar: "N", cmds: ORACLE, to: Key("model.full_cluster"), help: "the cluster kept at packet fidelity" },
    Flag { name: "--hidden", metavar: "N", cmds: TRAIN | SCENARIO, to: Key("train.hidden"), help: "LSTM width" },
    Flag { name: "--layers", metavar: "N", cmds: TRAIN | SCENARIO, to: Key("train.layers"), help: "LSTM depth" },
    Flag { name: "--epochs", metavar: "N", cmds: TRAIN | SCENARIO, to: Key("train.epochs"), help: "training epochs" },
    Flag { name: "--trace", metavar: "N", cmds: RUN | HYBRID, to: Field(|r, v| set_some(&mut r.sinks.trace, v), ""), help: "retain the first N raw events and print a sample" },
    Flag { name: "--trace-out", metavar: "P", cmds: RUN | HYBRID, to: Field(|r, v| set_some(&mut r.sinks.trace_out, v), ""), help: "write a Chrome-trace JSON timeline to P (open in https://ui.perfetto.dev):\nper-flow spans, drop and oracle-verdict instants, sampler counter tracks,\nper-partition compute/barrier slices under PDES (DESIGN.md \"Observability\")" },
    Flag { name: "--sample-every", metavar: "T", cmds: RUN | HYBRID | SCENARIO | AUDIT, to: Key("outputs.sample_every_us"), help: "sample queue depths, offered/realized load, macro state and oracle drop rate\nevery T us of sim time into --samples-out, else <trace-out>.samples.csv, else\nsamples.csv; an audit's regime timeline granularity" },
    Flag { name: "--samples-out", metavar: "P", cmds: SCENARIO, to: Field(|r, v| set_some(&mut r.sinks.samples_out, v), ""), help: "where the sampler CSV goes" },
    Flag { name: "--pdes", metavar: "N", cmds: RUN | HYBRID | SCENARIO, to: To::Pdes, help: "run under conservative PDES: N rack partitions for run, one partition per\ncluster for hybrid; run-scenario takes no N and reads [topology.pdes]" },
    Flag { name: "--partitions", metavar: "N", cmds: SCENARIO, to: Key(PARTITIONS), help: "rack partition count; implies PDES" },
    Flag { name: "--machines", metavar: "M", cmds: RUN | HYBRID, to: Key("topology.pdes.machines"), help: "emulated machines for PDES marshalling" },
    Flag { name: "--profile", metavar: "", cmds: SIMULATE & !AUDIT, to: Field(|r, _| { r.sinks.profile = true; true }, ""), help: "profile the run (FEL peaks, inference timer); print its report" },
    Flag { name: "--metrics-out", metavar: "P", cmds: SIMULATE, to: Field(|r, v| set_some(&mut r.sinks.metrics_out, v), ""), help: "write a schema-v1 run-ledger JSON to P (profiles the run); an audit writes\nthe hybrid side (with divergence block) to P, the truth side to\nP-minus-.json + .truth.json. `elephant compare A.json B.json` diffs two" },
    Flag { name: "--oracle-cache", metavar: "", cmds: ORACLE | AUDIT, to: Switch("oracle.cache", "true"), help: "memoize verdicts for quantized feature keys (DESIGN.md \"Oracle fast path\")" },
    Flag { name: "--oracle-cache-cap", metavar: "N", cmds: ORACLE | AUDIT, to: Key("oracle.cache_cap"), help: "cache capacity in verdicts" },
    Flag { name: "--no-guard", metavar: "", cmds: ORACLE | AUDIT, to: Switch("guard.enabled", "false"), help: "run the oracle unguarded: faults panic the run (DESIGN.md \"Robustness\")" },
    Flag { name: "--guard-ceiling-ms", metavar: "F", cmds: ORACLE, to: Key("guard.ceiling_ms"), help: "latency ceiling before clamping" },
    Flag { name: "--guard-trip-limit", metavar: "N", cmds: ORACLE, to: Key("guard.trip_limit"), help: "trips before permanent fallback" },
    Flag { name: "--guard-tolerance", metavar: "F", cmds: ORACLE, to: Key("guard.tolerance"), help: "drop-rate drift band around the training rate" },
    Flag { name: "--fault-oracle", metavar: "MODE", cmds: ORACLE, to: Field(|r, v| { r.fault_mode = match v { "nan" => Some(OracleFaultMode::Nan), "negative" => Some(OracleFaultMode::Negative), "huge" => Some(OracleFaultMode::Huge), _ => None }; r.fault_mode.is_some() }, ""), help: "fault drill: replace the oracle with one that emits nan|negative|huge latencies" },
    Flag { name: "--fault-every", metavar: "N", cmds: ORACLE, to: Field(|r, v| set(&mut r.fault_every, v), "97"), help: "poison one verdict in N during the drill" },
    Flag { name: "--checkpoint-every-ms", metavar: "F", cmds: SCENARIO, to: Key("recovery.checkpoint_every_ms"), help: "checkpoint interval; declares [recovery]: the run is supervised" },
    Flag { name: "--max-retries", metavar: "N", cmds: SCENARIO, to: Key("recovery.max_retries"), help: "restores per degradation-ladder rung; declares [recovery] too" },
    Flag { name: "--audit", metavar: "", cmds: SCENARIO, to: Field(|r, _| { r.audit = true; true }, ""), help: "paired truth+hybrid run gated on the scenario's [audit] bounds; exit 8\non divergence (DESIGN.md \"Accuracy observatory\")" },
    Flag { name: "--validate", metavar: "", cmds: SCENARIO, to: Field(|r, _| { r.validate = true; true }, ""), help: "load, validate and compile only; print a summary" },
    Flag { name: "--csv", metavar: "P", cmds: SCENARIO, to: Field(|r, v| set_some(&mut r.sinks.csv, v), ""), help: "write a [[sweep]]'s results to P: one row per cell and fidelity" },
    Flag { name: "--list-scenarios", metavar: "[DIR]", cmds: SCENARIO, to: Field(|r, v| set_some(&mut r.list_dir, v), "scenarios"), help: "list the scenario files under DIR instead of running one" },
    Flag { name: "--tolerance", metavar: "F", cmds: LEDGERS, to: Field(|r, v| set(&mut r.tolerance, v) && r.tolerance.is_finite() && r.tolerance >= 0.0, "0.05"), help: "relative drift tolerance for events and scalars (finite, >= 0)" },
    Flag { name: HELP, metavar: "", cmds: SIMULATE | LEDGERS, to: To::Help, help: "print this and exit" },
];

/// What the command line asked for, besides the scenario itself: the
/// edits to apply to the scenario document and the fields [`FLAGS`] rows
/// set directly.
#[derive(Default)]
struct Request {
    cmd: Cmd,
    /// Positional arguments: the scenario file, or the two ledgers.
    files: Vec<String>,
    /// Scenario-key edits in command-line order: (row of [`FLAGS`], key,
    /// TOML text of the value).
    edits: Vec<(usize, &'static str, String)>,
    /// `--repeat`: the one override that is not a single scenario key.
    over: CompileOverrides,
    /// Pair the hybrid against ground truth and gate on `[audit]` bounds.
    audit: bool,
    validate: bool,
    list_dir: Option<String>,
    /// `--model PATH`; wins over the scenario's `[model] path`.
    model_flag: Option<String>,
    /// `--fault-oracle` drill: the mode, and poison one verdict in N.
    fault_mode: Option<OracleFaultMode>,
    fault_every: u64,
    pdes: bool,
    tolerance: f64,
    sinks: Sinks,
}

impl Request {
    /// Reads `args` against [`FLAGS`]. An unknown flag, one the command
    /// does not read (a silently ignored knob is a misconfigured
    /// experiment), a missing or malformed value, or the wrong number of
    /// files is a usage error (exit 2).
    fn parse(cmd: Cmd, args: &[String]) -> Request {
        let mut req = Request {
            cmd,
            audit: cmd == Cmd::Audit,
            ..Default::default()
        };
        for f in FLAGS {
            if let To::Field(set, default) = f.to {
                if !default.is_empty() && !f.metavar.starts_with('[') {
                    assert!(set(&mut req, default), "{} starts from {default}", f.name);
                }
            }
        }
        let mut args = args.iter().map(String::as_str).peekable();
        while let Some(a) = args.next() {
            if !a.starts_with('-') {
                req.files.push(a.to_string());
                continue;
            }
            let Some(row) = FLAGS.iter().position(|f| f.name == a) else {
                bad_usage(cmd, format!("unknown option: {a}"))
            };
            let f = &FLAGS[row];
            if f.cmds & cmd.bit() == 0 {
                bad_usage(cmd, format!("{a} does not apply to {}", cmd.name()))
            }
            let value = match (f.metavar(cmd), f.to) {
                ("", _) => "",
                // An optional value is the next token unless it is a flag.
                (m, To::Field(_, default)) if m.starts_with('[') => {
                    args.next_if(|v| !v.starts_with('-')).unwrap_or(default)
                }
                _ => args
                    .next()
                    .unwrap_or_else(|| bad_usage(cmd, format!("{a} needs a value"))),
            };
            let mut edit = |key, text: &str| req.edits.push((row, key, text.to_string()));
            match f.to {
                To::Help => {
                    print!("{}", section(cmd));
                    exit(0)
                }
                To::Key(key) => edit(key, value),
                To::Switch(key, constant) => edit(key, constant),
                To::Pdes if value.is_empty() => {}
                To::Pdes => edit(PARTITIONS, value),
                To::Field(set, _) => {
                    if !set(&mut req, value) {
                        bad_usage(cmd, format!("invalid value for {a}: {value}"))
                    }
                }
            }
            req.pdes |= matches!(f.to, To::Pdes | Key(PARTITIONS));
        }
        let wanted = COMMANDS[cmd as usize].2.split_whitespace().count();
        if req.list_dir.is_none() && req.files.len() != wanted {
            bad_usage(
                cmd,
                format!("takes {wanted} file argument(s), got {}", req.files.len()),
            )
        }
        req
    }

    /// The scenario file of `run-scenario` / `audit`.
    fn file(&self) -> Option<&str> {
        let file = self.files.first().filter(|_| self.cmd.takes_file());
        file.map(String::as_str)
    }

    fn edits_of(&self, key: &'static str) -> impl Iterator<Item = &str> {
        let of_key = self.edits.iter().filter(move |e| e.1 == key);
        of_key.map(|e| e.2.as_str())
    }

    /// The command's document — its file, or the built-in template — with
    /// every flag edit written into it. A missing file exits 3.
    fn document(&self) -> toml::Table {
        let mut doc = match self.file() {
            None => builtin(self.cmd),
            Some(path) => {
                let src = std::fs::read_to_string(path).unwrap_or_else(|e| io_die(path, e));
                toml::parse(&src).unwrap_or_else(|e| self.reject(e.line, e.msg))
            }
        };
        for (row, key, text) in &self.edits {
            // The row rides on the value as its "line", so a decoder
            // rejection can name the flag (see `reject`).
            doc.set(key, text, u32::MAX - *row as u32)
                .unwrap_or_else(|e| self.reject(e.line, e.msg));
        }
        doc
    }

    /// A scenario rejection. A value that arrived by flag (its `line` is
    /// a row of [`FLAGS`], or the command has no file at all) is a usage
    /// error naming the flag, exit 2; anything else names the file's
    /// `path:line`, exit 6.
    fn reject(&self, line: u32, detail: String) -> ! {
        match (FLAGS.get((u32::MAX - line) as usize), self.file()) {
            (Some(f), _) => bad_usage(self.cmd, format!("{}: {detail}", f.name)),
            (None, None) => bad_usage(self.cmd, detail),
            (None, Some(path)) => die(ElephantError::Scenario {
                path: path.to_string(),
                line,
                detail,
            }),
        }
    }

    /// What the header and the ledger call the run.
    fn title(&self, c: &Compiled) -> String {
        match (self.file(), self.cmd) {
            (Some(path), _) => format!("scenario `{}` ({path})", c.name),
            (None, Cmd::Hybrid) => "hybrid run".to_string(),
            (None, _) => "full-fidelity run".to_string(),
        }
    }

    /// Whether the run goes through the hybrid engine: a `[model]`
    /// section (which `hybrid` always declares), `--model`, or an audit.
    fn hybrid(&self, c: &Compiled) -> bool {
        self.audit || self.model_flag.is_some() || c.hybrid.model_declared
    }
}

/// Runs `c` on the engine `req` selects and reports through [`finish`].
fn dispatch(req: &Request, c: &Compiled) {
    if req.sinks.out.is_some() {
        bad_usage(req.cmd, "--out needs a [train] document")
    }
    if req.audit && req.sinks.profile {
        bad_usage(
            req.cmd,
            "--profile does not apply to --audit: it reports one run, an audit is a pair \
             (--metrics-out writes both ledgers)",
        )
    }
    let hybrid = req.hybrid(c);
    if hybrid {
        needs_two_clusters(req, c);
    }
    println!(
        "{}: {} clusters, {} hosts, {} flows, horizon {}, seed {}{}",
        req.title(c),
        c.params.clusters,
        c.params.total_hosts(),
        c.flows.len(),
        c.horizon,
        c.seed,
        match req.pdes {
            // Hybrid PDES always partitions one cluster per partition.
            true if hybrid => format!(", PDES x{}", c.params.clusters),
            true => format!(", PDES x{}", c.partitions),
            false => String::new(),
        }
    );
    if c.faults.is_some() && !req.pdes {
        println!("note: the scenario's [faults] plan applies only under --pdes");
    }

    // The hybrid engine is guarded and cached per the compiled
    // [guard]/[oracle] settings.
    let model = hybrid.then(|| resolve_model(req, c));
    let elided = hybrid.then(|| c.hybrid_flows());
    let flows = elided.as_deref().unwrap_or(&c.flows);
    if hybrid {
        println!(
            "  hybrid: cluster {} at packet fidelity ({} approximated), {} flows after elision",
            c.hybrid.full_cluster,
            c.params.clusters - 1,
            flows.len()
        );
    }
    if req.audit {
        return audit(req, c, model.expect("audits are hybrid"));
    }

    if req.pdes && (req.sinks.trace.is_some() || req.sinks.trace_out.is_some()) {
        println!("note: --pdes runs record no raw event trace; the timeline still gets partition, flow, and sampler tracks");
    }
    if req.pdes && hybrid {
        if req.file().is_some() && req.edits_of(PARTITIONS).next().is_some() {
            println!(
                "note: hybrid PDES partitions one cluster per partition; --partitions is ignored"
            );
        }
        if c.hybrid.guard.is_some() || req.fault_mode.is_some() {
            println!("note: --pdes runs the learned oracle unguarded (per-partition guard stats are not aggregated); guard settings and --fault-oracle are ignored");
        }
    }

    let observe = Observe {
        trace: match req.pdes {
            true => None,
            false => req.sinks.build_trace(flows),
        },
        sample_every: c.sample_every,
        timeline: req.sinks.trace_out.is_some(),
        profile: req.sinks.observing(),
    };
    let engine = engine(req);
    let ran = matrix::run(c, engine, model.as_ref(), observe, RttScope::All);
    finish(req, c, &ran.unwrap_or_else(|e| die(e)));
}

/// A hybrid approximates every cluster but the full-fidelity one.
fn needs_two_clusters(req: &Request, c: &Compiled) {
    if c.params.clusters < 2 {
        req.reject(
            c.hybrid.model_line,
            "hybrid simulation needs >= 2 clusters (the oracle approximates \
             every cluster but the full-fidelity one)"
                .into(),
        )
    }
}

/// The engine `req` selects, announcing a `--fault-oracle` drill (a flag
/// of the hybrid-only commands) where it applies: on one thread, since
/// PDES partitions run unguarded.
fn engine(req: &Request) -> Engine {
    let fault = req.fault_mode.map(|mode| (mode, req.fault_every));
    if let Some((mode, every)) = fault.filter(|_| !req.pdes) {
        println!("fault drill: oracle emits {mode:?} latency every {every} verdicts");
    }
    Engine {
        pdes: req.pdes,
        fault,
    }
}

/// `run-scenario` on a document with `[[sweep]]` axes: the usage checks,
/// the one model a hybrid sweep deploys (resolved from the base
/// document), then `matrix::sweep` — a line per cell as it finishes, the
/// fold of the runs' fingerprints (and models' checksums), and under
/// `--csv P` a row per cell and run.
fn sweep(req: &Request, doc: &toml::Table, s: &Scenario) {
    // What names one run's artifact, or one paired run: a sweep has no
    // one run to give it to. `--sample-every`, `--checkpoint-every-ms` and
    // `--max-retries` write the sections.
    let one_run = [
        (req.sinks.metrics_out.is_some(), "--metrics-out"),
        (req.sinks.samples_out.is_some(), "--samples-out"),
        (req.sinks.out.is_some(), "--out"),
        (req.sinks.profile, "--profile"),
        (req.audit, "an audit"),
        (s.outputs.sample_every_us.is_some(), "an [outputs] section"),
        (s.recovery.is_some(), "a [recovery] section"),
    ];
    if let Some((_, what)) = one_run.iter().find(|(given, _)| *given) {
        bad_usage(req.cmd, format!("{what} names one run, not a sweep"))
    }
    // An axis sets its keys in every cell, over any flag edit.
    let swept = |key: &str| s.sweep.iter().any(|a| a.keys.iter().any(|k| k == key));
    if let Some((row, key, _)) = req.edits.iter().find(|e| swept(e.1)) {
        let flag = FLAGS[*row].name;
        bad_usage(req.cmd, format!("{flag}: `{key}` is a [[sweep]] axis"))
    }
    let cells = sweep_cells(doc).unwrap_or_else(|e| req.reject(e.line, e.detail));
    let cells: Vec<_> = cells
        .into_iter()
        .map(|cell| (cell.edits, compile(&cell.scenario, &req.over)))
        .collect();
    if req.validate {
        for (n, (edits, c)) in cells.iter().enumerate() {
            println!("[[sweep]] cell {n} ({})", matrix::label(edits));
            validated(req, c);
        }
        return;
    }
    // Every cell sets the same keys, so all or none declare [train].
    let model = match cells[0].1.train {
        Some(_) => {
            refuse_for_training(req, &cells[0].1);
            None
        }
        None => {
            let base = compile(s, &req.over);
            req.hybrid(&base).then(|| resolve_model(req, &base))
        }
    };
    if model.is_some() {
        cells.iter().for_each(|(_, c)| needs_two_clusters(req, c));
    }
    let progress = &mut |line: &str| println!("{line}");
    let sweep = matrix::sweep(&cells, engine(req), model.as_ref(), progress);
    let sweep = sweep.unwrap_or_else(|e| die(e));
    println!("  fingerprint: {:#018x}", sweep.fingerprint);
    let Some(path) = &req.sinks.csv else { return };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = sweep.csv(&format!("elephant {}", args.join(" ")));
    written(path, std::fs::write(path, csv));
    println!("wrote {path} ({} rows)", sweep.rows.len());
}

/// The one epilogue: summary, guard/cache report, fingerprint line,
/// samples CSV, `--trace-out` timeline, `--profile` table, sealed ledger.
fn finish(req: &Request, c: &Compiled, ran: &Ran) {
    let out = &ran.outcome;
    println!("\n{out}");
    if let Some(trace) = out.nets[0].trace().filter(|_| req.sinks.trace.is_some()) {
        println!("\n{trace}");
    }
    // Scripted stalls/slowdowns show through the watchdog and the
    // recovery ladder, not through injection counts; a probabilistic plan
    // that fired nothing exercised no failure path at all.
    let faults = out.report.as_ref().map(|r| r.faults).unwrap_or_default();
    if faults.armed && faults.total() == 0 {
        eprintln!(
            "warning: the [faults] plan was active but injected zero faults; \
             the run exercised no failure paths (extend the horizon, raise the \
             probabilities, or add cross-machine traffic)"
        );
    }
    report_oracle(&ran.oracle);
    let fingerprint = run_fingerprint(&out.nets);
    println!("  fingerprint: {fingerprint:#018x}");

    if c.sample_every.is_some() {
        let path = req.sinks.samples_path();
        let rows: Vec<_> = out.samples.iter().map(Sample::csv_row).collect();
        written(&path, write_csv(&path, &SAMPLE_CSV_HEADER, &rows));
        println!("wrote {path} ({} samples)", rows.len());
    }
    if let Some(path) = &req.sinks.trace_out {
        write_timeline(path, ran);
    }

    // Driver and mode name the point of the run matrix that executed.
    let engine = match (out.recovery.is_some(), req.pdes) {
        (true, _) => "supervised",
        (false, true) => "pdes",
        (false, false) => "sequential",
    };
    let driver = match (req.hybrid(c), engine) {
        (false, engine) => engine.to_string(),
        (true, "sequential") => "hybrid".to_string(),
        (true, engine) => format!("hybrid-{engine}"),
    };
    let what = format!("{}, seed {}", req.title(c), c.seed);
    let report = RunReport::new(req.cmd.name(), what);
    let mut ledger = stamp(&driver, report, c.seed, fingerprint);
    ledger.mode = if req.pdes { "adaptive" } else { "sequential" }.into();
    if let Some(log) = &out.recovery {
        let transitions = log.transitions.iter().map(|t| format!("{t:?}"));
        ledger.recovery = std::iter::once(log.summary()).chain(transitions).collect();
    }
    emit_ledger(&req.sinks, ledger, |r| out.describe(r, &ran.oracle));
}

/// Prints the guard and verdict-cache lines of a hybrid run (one cache
/// sequentially, the fleet total across PDES partitions): the counters
/// behind the ledger's `hybrid/guard/*` and `hybrid/cache/*` rows.
fn report_oracle(counters: &OracleCounters) {
    if let Some(g) = &counters.guard {
        println!("  guardrail : {g}");
    }
    if let Some(c) = &counters.cache {
        println!("  cache     : {c}");
    }
}

/// The ledger every command seals: `driver` names the point of the run
/// matrix that executed, `report` (its command and what it ran) the
/// report inside it.
fn stamp(driver: &str, report: RunReport, seed: u64, fingerprint: u64) -> RunLedger {
    let mut ledger = RunLedger::new(driver, report);
    ledger.seed = seed;
    ledger.fingerprint = fingerprint;
    ledger
}

/// Has `describe` fill `ledger`'s report from the finished run
/// ([`Outcome::describe`]), prints the report under `--profile`, and
/// seals the ledger under `--metrics-out`.
fn emit_ledger(sinks: &Sinks, mut ledger: RunLedger, describe: impl FnOnce(&mut RunReport)) {
    if !sinks.observing() {
        return;
    }
    let report = &mut ledger.report;
    describe(report);
    if sinks.profile {
        println!("\n{}", report.to_table());
    }
    if let Some(path) = &sinks.metrics_out {
        save_ledger(path, ledger);
    }
}

/// Seals and writes a schema-v1 [`RunLedger`] — the one artifact shape
/// every command's `--metrics-out` emits, and the input
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
fn audit(req: &Request, c: &Compiled, model: ClusterModel) {
    if c.recovery.is_some() {
        println!("note: --audit runs both sides unsupervised; the [recovery] ladder is ignored");
    }
    if req.pdes {
        println!("note: --audit runs both sides sequentially; --pdes is ignored");
    }
    let run = matrix::audit(c, model);
    let bounds = run.divergence.bounds;
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
            let what = format!("{}, seed {}", req.title(c), c.seed);
            let mut ledger = stamp(driver, RunReport::new(driver, what), c.seed, fingerprint);
            let (wall, events) = (meta.wall.as_secs_f64(), meta.events);
            ledger.report.set_run(wall, events, meta.sim_seconds);
            ledger.mode = "paired".to_string();
            ledger
        };
        let mut hybrid = side("audit-hybrid", &run.hybrid_meta, fingerprint);
        hybrid.divergence = Some(run.divergence.clone());
        save_ledger(base, hybrid);
        let truth_fingerprint = run_fingerprint([&run.truth_net]);
        let truth = side("audit-truth", &run.truth_meta, truth_fingerprint);
        let path = format!("{}.truth.json", base.trim_end_matches(".json"));
        save_ledger(&path, truth);
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

fn read_model(path: &str) -> Result<ClusterModel, ElephantError> {
    ClusterModel::load_json(&std::fs::read_to_string(path).map_err(|e| io_error(path, e))?)
}
/// Resolves the model artifact for a hybrid run. Precedence: the
/// `--model` flag (plain CLI semantics: exit 3/4 on failure), then the
/// scenario's `[model] path` (scenario semantics: exit 6 naming the
/// binding's `file:line`), then — when `train_fallback = true`, or under
/// `--audit` with no binding at all — a quick-trained default model.
fn resolve_model(req: &Request, c: &Compiled) -> ClusterModel {
    let spec = &c.hybrid;
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
                req.reject(spec.model_line, format!("model artifact `{p}`: {source}"))
            }
            Err(e) => req.reject(spec.model_line, format!("model artifact `{p}`: {e}")),
        },
        None if allow_fallback => {
            println!(
                "no model artifact bound; capturing + training a small default model first ..."
            )
        }
        None => req.reject(
            spec.model_line,
            "[model] names no `path` and `train_fallback` is false; \
             pass --model or bind an artifact"
                .into(),
        ),
    }
    quick_default_model(req, c)
}

/// The fallback when no artifact is bound: a deliberately small model
/// trained on a short capture of `train`'s own document, at the run's
/// seed, `--load` and TCP flavour.
fn quick_default_model(req: &Request, c: &Compiled) -> ClusterModel {
    let mut doc = builtin(Cmd::Train);
    let (seed, dctcp) = (c.seed.to_string(), c.dctcp.to_string());
    let quick = [
        ("run.horizon_ms", "30"),
        ("run.seed", &seed),
        ("run.dctcp", &dctcp),
        ("train.hidden", "16"),
        ("train.layers", "1"),
        ("train.epochs", "4"),
    ];
    let loads = req.edits_of(LOAD).map(|load| (LOAD, load));
    for (key, text) in quick.into_iter().chain(loads) {
        doc.set(key, text, 0).expect("the run's document took it");
    }
    let s = decode::from_table(&doc).expect("the run's document passed the same rules");
    let c = compile(&s, &CompileOverrides::default());
    let trained = Capture::take(&c, false).and_then(|g| matrix::train_on(&c, &g.records));
    trained.unwrap_or_else(|e| die(e)).model
}

/// What a capture-and-train run cannot honour: it is one sequential
/// full-fidelity capture, and it deploys no model.
fn refuse_for_training(req: &Request, c: &Compiled) {
    let refused = [
        (req.pdes, "PDES"),
        (req.audit, "an audit"),
        (req.model_flag.is_some(), "--model"),
        (c.recovery.is_some(), "a [recovery] section"),
        (c.sample_every.is_some(), "an [outputs] section"),
        (c.faults.is_some(), "a [faults] section"),
    ];
    if let Some((_, what)) = refused.iter().find(|(given, _)| *given) {
        bad_usage(
            req.cmd,
            format!("{what} does not apply to a [train] document, which captures and trains"),
        )
    }
}

/// Writes the run's Chrome-trace timeline, with the guard's trips.
fn write_timeline(path: &str, ran: &Ran) {
    let tl = ran.outcome.timeline(&ran.trips);
    written(path, tl.save(std::path::Path::new(path)));
    let dropped = match tl.dropped {
        0 => String::new(),
        n => format!(", {n} dropped at capacity"),
    };
    println!(
        "wrote {path} ({} trace records{dropped}) — open in https://ui.perfetto.dev or chrome://tracing",
        tl.records.len()
    );
}

/// `run-scenario FILE --validate`: the document decoded and compiled
/// with every flag edit applied, summarised instead of run.
fn validated(req: &Request, c: &Compiled) {
    println!(
        "{}: ok — scenario `{}`: {} clusters, {} hosts, {} flows, horizon {}, \
         {} PDES partitions",
        req.file().expect("run-scenario takes a file"),
        c.name,
        c.params.clusters,
        c.params.total_hosts(),
        c.flows.len(),
        c.horizon,
        c.partitions,
    );
    if let Some(t) = c.train {
        refuse_for_training(req, c);
        let shape = format!("{}x{} LSTM", t.layers, t.hidden);
        let regime = if t.macro_state { "on" } else { "off" };
        println!(
            "  [train]: {shape}, {} epochs, alpha {}, macro state {regime}",
            t.epochs, t.alpha
        );
    }
    let spec = &c.hybrid;
    if spec.model_declared {
        println!(
            "  [model]: {} — full cluster {}, cache {}, guard {}",
            spec.model_path.as_deref().unwrap_or("(train_fallback)"),
            spec.full_cluster,
            if spec.cache { "on" } else { "off" },
            if spec.guard.is_some() { "on" } else { "off" },
        );
    }
}

/// `run-scenario --list-scenarios [DIR]`.
fn list(dir: &str) {
    let files = list_scenarios(std::path::Path::new(dir)).unwrap_or_else(|e| io_die(dir, e));
    if files.is_empty() {
        println!("no scenario files under {dir}/");
    }
    for f in files {
        match load(&f.display().to_string()) {
            Ok(s) => println!("{}  {} — {}", f.display(), s.name, s.description),
            Err(e) => println!("{}  INVALID: {e}", f.display()),
        }
    }
}

/// A `[train]` document's run: `matrix::Capture` then `matrix::train_on`,
/// the held-out evaluation printed per direction, the model written to
/// `--out`, and under `--profile`/`--metrics-out` the capture's report
/// (with its `train/capture/*` rows), the training rows and the training
/// clock.
fn train(req: &Request, c: &Compiled) {
    refuse_for_training(req, c);
    let opts = c.train.expect("a [train] document");
    let shape = format!("{}x{} LSTM", opts.layers, opts.hidden);
    println!(
        "capturing ground truth: {} clusters, {} flows, horizon {}; then training {shape} \
         for {} epochs ...",
        c.params.clusters,
        c.flows.len(),
        c.horizon,
        opts.epochs
    );
    let capture = Capture::take(c, req.sinks.observing()).unwrap_or_else(|e| die(e));
    let t = matrix::train_on(c, &capture.records).unwrap_or_else(|e| die(e));
    println!(
        "  {} events, {} boundary records",
        capture.report.events, t.model.meta.train_records
    );
    for (name, d) in [("up:  ", &t.report.up), ("down:", &t.report.down)] {
        println!(
            "  {name} {} samples | drop accuracy {:.3} | latency rmse {:.3}",
            d.train_samples, d.eval.drop_accuracy, d.eval.latency_rmse
        );
    }
    let agreement = match t.agreement {
        Some(a) => format!("{:.1}%", a * 100.0),
        None => "pinned (macro_state = false)".into(),
    };
    println!("  macro-state agreement (auto-regressive vs truth-fed): {agreement}");
    let path = req.sinks.out.as_deref().unwrap_or("model.json");
    std::fs::write(path, t.model.to_file_json()).unwrap_or_else(|e| io_die(path, e));
    println!(
        "wrote {path} (format v{}, checksum {:#018x})",
        elephant::core::MODEL_VERSION,
        t.model.weight_checksum()
    );
    // The ledger describes the capture run plus the training on top of
    // it; a model is not a network state, so no fingerprint.
    let report = RunReport {
        name: req.cmd.name().into(),
        scenario: format!("capture + {shape} training, seed {}", c.seed),
        ..capture.report
    };
    emit_ledger(&req.sinks, stamp("train", report, c.seed, 0), |r| {
        r.metrics.extend(t.rows);
        r.profile
            .push(ProfileRow::once("train", t.wall.as_secs_f64()));
    });
}

/// `compare --model`: `matrix::pair` — the run's full-fidelity truth and
/// its hybrid, as a hybrid sweep cell runs them; prints the RTT quantile
/// table and seals the hybrid's ledger with the same `hybrid/rtt/*` rows
/// as the sweep's hybrid row.
fn compare(req: &Request, s: &Scenario) {
    let Some(path) = &req.model_flag else {
        bad_usage(req.cmd, "--model PATH is required")
    };
    let model = read_model(path).unwrap_or_else(|e| die(e));
    // The table is scored on a workload the model was not trained on:
    // the next seed's, which seeds the oracle and the ledger too.
    let c = compile(
        s,
        &CompileOverrides {
            seed: Some(s.run.seed.wrapping_add(1)),
            ..req.over
        },
    );
    println!("ground truth ({} flows) ...", c.flows.len());
    let elided = c.hybrid_flows().len();
    println!("hybrid ({elided} flows after elision) ...");
    let observe = Observe {
        profile: req.sinks.observing(),
        ..Observe::default()
    };
    let pair = matrix::pair(&c, engine(req), &model, observe);
    let pair = pair.unwrap_or_else(|e| die(e));
    let (truth, out, cmp) = (&pair.truth.outcome, &pair.hybrid.outcome, &pair.score);
    report_oracle(&pair.hybrid.oracle);
    print!("\n{cmp}");
    println!(
        "\n  KS distance {:.4} | wall {:.2}s truth vs {:.2}s hybrid ({:.2}x) | events {:.1}x fewer",
        cmp.ks,
        truth.meta.wall.as_secs_f64(),
        out.meta.wall.as_secs_f64(),
        pair.speedup,
        truth.meta.events as f64 / out.meta.events.max(1) as f64,
    );
    let what = format!("truth vs hybrid, {} clusters", c.params.clusters);
    let what = format!("{what}, seed {}", c.seed);
    // The ledger names the hybrid run, so that is the run it counts.
    let fingerprint = run_fingerprint(&out.nets);
    let report = RunReport::new("compare", what);
    let ledger = stamp("compare", report, c.seed, fingerprint);
    emit_ledger(&req.sinks, ledger, |r| {
        out.describe(r, &pair.hybrid.oracle);
        r.metrics.extend(cmp.metric_rows());
    });
}

/// `compare A.json B.json`: validate and diff two run-ledger artifacts.
/// Exit 8 when they drift outside tolerance, 3 when either artifact is
/// missing or fails schema/checksum validation.
fn diff_ledgers(req: &Request) {
    let (files, tolerance) = (&req.files, req.tolerance);
    let load =
        |p: &String| RunLedger::load(std::path::Path::new(p)).unwrap_or_else(|e| io_die(p, e));
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
