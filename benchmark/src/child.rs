//! One timed run: a fresh process that sets up and runs one workload once
//! and prints what it measured as one JSON line. The parent spawns these
//! one at a time, so every run starts cold and reports its own peak memory.

use std::sync::Arc;
use std::time::Instant;

use crate::bind::{self, Facts};
use crate::json::{self, num, obj, text, Value};
use crate::paths;
use crate::spec::Workload;
use crate::trace::Tracer;

/// What the parent asks of a child.
pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
}

/// Peak resident set of this process so far, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Runs the workload once and prints `{"fingerprint": …, "facts": {…}}`.
/// `started` is when this process entered `main`.
pub fn run(a: &ChildArgs, started: Instant) -> Result<(), String> {
    // The drivers are measured with the program's own observability off,
    // which is its default; say so rather than rely on it.
    bind::observability_off();
    let mut facts = Facts::new();
    let p = bind::prepare(
        &paths::scenario(a.workload.name),
        a.workload.driver,
        a.seed,
        a.quick,
        &paths::model(),
        &mut facts,
    )?;
    let prepared_s = started.elapsed().as_secs_f64();
    let fingerprint = if a.traced {
        let run_id = format!("{}:{}", a.workload.name, a.seed);
        let tracer = Arc::new(Tracer::new(&bind::SPAN_NAMES, run_id));
        let fp = bind::run_traced(&p, &tracer, &mut facts)?;
        let path = paths::trace(a.workload.name);
        std::fs::write(&path, json::render(&tracer.to_json(bind::STRIDE)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        fp
    } else {
        bind::run_plain(&p, &mut facts)?
    };
    // Set-up is everything between process start and the first simulated
    // event: scenario load + compile, model load, world building.
    let setup_s = prepared_s + facts["net.build_s"];
    facts.insert("setup_s".into(), setup_s);
    facts.insert("peak_rss_mb".into(), peak_rss_mb()?);
    let line = obj([
        ("fingerprint", text(format!("{fingerprint:#018x}"))),
        ("facts", facts_to_json(&facts)),
    ]);
    println!("{}", json::render(&line));
    Ok(())
}

pub fn facts_to_json(facts: &Facts) -> Value {
    obj(facts.iter().map(|(k, v)| (k.as_str(), num(*v))))
}

pub fn facts_from_json(v: &Value) -> Result<Facts, String> {
    let map = v.as_map().ok_or("facts is not an object")?;
    map.iter()
        .map(|(k, v)| {
            v.as_f64()
                .map(|f| (k.clone(), f))
                .ok_or_else(|| format!("fact `{k}` is not a number"))
        })
        .collect()
}
