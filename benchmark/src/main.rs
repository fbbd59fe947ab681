//! `elephant-perf` — the repository's performance benchmark.
//!
//! ```text
//! elephant-perf --workload W --seed N --seconds S --trace 0|1
//!     one workload; the last line of output is the result object the
//!     benchmark driver reads (`BENCHMARK.json` names this form)
//! elephant-perf [--seed N] [--seconds S] [--workload W] [--quick] [--out FILE]
//!     every workload, untraced then traced, as one JSON document;
//!     non-zero exit when any check fails
//! elephant-perf compare A.json B.json
//!     per (metric, workload) verdicts of B against A
//! elephant-perf validate
//!     runs the committed scenario files through the scenario validator
//! ```
//!
//! Run it from the repository root. See `benchmark/README.md`.

mod bind;
mod calib;
mod child;
mod compare;
mod json;
mod measure;
mod paths;
mod spec;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::{int, num, obj, text, Value};
use measure::{measure, Measured, Phases, Plan};
use spec::{Metric, Workload, END_TO_END, PER_LAYER};

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 42;
/// Measuring time per phase of a run that names none (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Default)]
struct Args {
    workload: Option<&'static Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => a.seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--quick" => a.quick = true,
            "--traced" => a.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// The driver's result object: every end-to-end metric of an untraced
/// measurement, or every per-layer metric of a traced one.
fn driver_line(m: &Measured, traced: bool) -> Value {
    let metrics = |defs: &[Metric], value: &dyn Fn(&str) -> f64| {
        obj(defs.iter().map(|d| {
            (
                d.name,
                obj([("value", num(value(d.name))), ("unit", text(d.unit))]),
            )
        }))
    };
    obj([
        ("correct", Value::Bool(m.correct())),
        ("attempted", int(m.attempted.max(1))),
        ("failed", int(m.failed)),
        (
            "metrics",
            if traced {
                metrics(PER_LAYER, &|n| m.per_layer(n))
            } else {
                metrics(END_TO_END, &|n| m.end_to_end(n).median)
            },
        ),
    ])
}

fn run(args: &[String], started: Instant) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("child") => {
            let a = parse_args(&args[1..])?;
            let c = child::ChildArgs {
                workload: a.workload.ok_or("child needs --workload")?,
                seed: a.seed.ok_or("child needs --seed")?,
                quick: a.quick,
                traced: a.traced,
            };
            child::run(&c, started).map(|()| true)
        }
        Some("validate") => {
            let n = bind::validate_scenarios(&paths::scenarios_dir())?;
            println!("{n} scenario files valid");
            Ok(n == spec::WORKLOADS.len())
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("usage: elephant-perf compare A.json B.json".into()),
        },
        _ => {
            let a = parse_args(args)?;
            let plan = Plan {
                seed: a.seed.unwrap_or(DEFAULT_SEED),
                seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
                quick: a.quick,
            };
            if let Some(traced) = a.trace {
                // Driver form: one workload, one phase, result on the last
                // line. Failed checks are reported in the object, not in
                // the exit code.
                let w = a.workload.ok_or("--trace needs --workload")?;
                let phases = if traced {
                    Phases::PerLayer
                } else {
                    Phases::EndToEnd
                };
                let m = measure(w, &plan, phases)?;
                for p in &m.problems {
                    eprintln!("{}: {p}", w.name);
                }
                if m.fingerprint().is_empty() {
                    return Err("no run succeeded, so there is no result".into());
                }
                println!("{}", json::render(&m.to_json()));
                println!("{}", json::render(&driver_line(&m, traced)));
                return Ok(true);
            }
            let workloads = match a.workload {
                Some(w) => vec![w],
                None => spec::WORKLOADS.iter().collect(),
            };
            let (doc, ok) = suite::run(&workloads, &plan)?;
            if let Some(path) = &a.out {
                suite::save(&doc, path)?;
            }
            println!("{}", json::render_pretty(&doc));
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("elephant-perf: {e}");
            ExitCode::from(2)
        }
    }
}
