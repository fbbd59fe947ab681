//! The whole benchmark as one JSON document: a header recording the
//! machine and its noise, then every workload's end-to-end metrics, exact
//! simulated statistics and per-layer metrics.

use std::process::Command;

use crate::calib::calib_s;
use crate::json::{self, int, num, obj, text, Value};
use crate::measure::{measure, Measured, Phases, Plan};
use crate::spec::{Driver, Workload};

/// Version of the result document's layout.
const RESULT_SCHEMA: u64 = 1;

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Noise and portability record: enough to judge whether two result files
/// are comparable, and to normalise across machines later.
pub fn header(plan: &Plan) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load_1m = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    obj([
        ("schema", int(RESULT_SCHEMA)),
        ("seed", int(plan.seed)),
        ("seconds", num(plan.seconds)),
        ("quick", Value::Bool(plan.quick)),
        ("nproc", int(nproc as u64)),
        ("load_1m", num(load_1m)),
        ("noisy", Value::Bool(load_1m > 0.5 * nproc as f64)),
        ("rustc", text(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            text(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("calib_s", num(calib_s())),
    ])
}

/// Wall-time ratios of the full-fidelity web-search run over each hybrid
/// one (Figure 5's y axis), each printed with its base.
fn speedups(results: &[Measured]) -> Value {
    let wall = |m: &Measured| m.wall_s().median;
    let Some(full) = results
        .iter()
        .find(|m| m.workload.name == "full_websearch8")
    else {
        return obj::<&str>([]);
    };
    let base = wall(full);
    obj(results
        .iter()
        .filter(|m| m.workload.driver == Driver::Hybrid && wall(m) > 0.0)
        .map(|m| {
            let v = obj([
                ("value", num(base / wall(m))),
                ("base", text("wall_s of full_websearch8")),
                ("base_wall_s", num(base)),
                ("own_wall_s", num(wall(m))),
            ]);
            (m.workload.name, v)
        }))
}

/// Runs `workloads` (untraced phase, then traced phase) and returns the
/// result document and whether every check held.
pub fn run(workloads: &[&'static Workload], plan: &Plan) -> Result<(Value, bool), String> {
    let head = header(plan);
    let mut results = Vec::new();
    for w in workloads {
        eprintln!("measuring {} ...", w.name);
        results.push(measure(w, plan, Phases::Both)?);
    }
    let ok = results.iter().all(Measured::correct);
    let doc = obj([
        ("header", head),
        (
            "workloads",
            Value::Seq(results.iter().map(Measured::to_json).collect()),
        ),
        ("speedup_vs_full", speedups(&results)),
    ]);
    Ok((doc, ok))
}

/// Writes the document to `path`.
pub fn save(doc: &Value, path: &std::path::Path) -> Result<(), String> {
    std::fs::write(path, json::render_pretty(doc) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}
