//! The parent side of a measurement: spawn child runs of one workload one
//! at a time (closed loop: the parent is blocked while a child runs), check
//! them against each other, and reduce them to metrics.
//!
//! One measurement runs several *variants* of the workload: variant 0 is
//! the scenario at `--seed` itself, variant `i` the same scenario at a seed
//! derived from `--seed` and `i`. A timing is the median over the variants
//! run, so that one draw of the (heavy-tailed) traffic does not decide it;
//! counts and fingerprints are reported for variant 0, and every variant
//! that runs twice (the warm-up and the first timed run, a traced run and
//! its untraced partner) must repeat itself exactly.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::bind::{self, Facts};
use crate::calib::{calib_s, mix64, GOLDEN};
use crate::child::{facts_from_json, facts_to_json};
use crate::json::{self, int, num, obj, text, Value};
use crate::paths;
use crate::spec::{Driver, Workload, END_TO_END, PER_LAYER, SIM_COUNTS};
use crate::stats::Summary;

/// Which phases a measurement runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Phases {
    /// Untraced runs only: the end-to-end metrics.
    EndToEnd,
    /// Traced runs and their untraced partners: the per-layer metrics.
    PerLayer,
    /// One after the other.
    Both,
}

/// How long and how to measure.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Measure for this long (spawning runs until it has passed).
    pub seconds: f64,
    /// One run, no warm-up, horizons divided by ten: a smoke test.
    pub quick: bool,
}

/// Fewest runs behind a median, however short `seconds` is.
const MIN_RUNS: usize = 3;
/// A measurement with this many failed runs is abandoned: its result is
/// already incorrect, and a run that fails fast must not spin.
const MAX_FAILED: u64 = 3;
/// No child may take longer than this; the first one sets a tighter limit
/// of ten times its own duration for the rest.
const CHILD_LIMIT: Duration = Duration::from_secs(100);

#[derive(Clone)]
struct Run {
    variant: u64,
    fingerprint: String,
    facts: Facts,
}

/// The seed of variant `i` of a measurement seeded with `seed`.
fn variant_seed(seed: u64, i: u64) -> u64 {
    match i {
        0 => seed,
        _ => mix64(seed ^ i.wrapping_mul(GOLDEN)),
    }
}

/// One workload's child runs and the checks made on them.
pub struct Measured {
    pub workload: &'static Workload,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each; empty when everything held.
    pub problems: Vec<String>,
    /// The first run of each variant, which its later runs must repeat.
    seen: BTreeMap<u64, Run>,
    untraced: Vec<Run>,
    traced: Vec<Run>,
    /// Facts measured by the parent beside the runs (stand-alone probes).
    probes: Facts,
}

fn spawn_child(
    w: &Workload,
    plan: &Plan,
    variant: u64,
    traced: bool,
    limit: Duration,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = variant_seed(plan.seed, variant);
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name, "--seed", &seed.to_string()]);
    if plan.quick {
        cmd.arg("--quick");
    }
    if traced {
        cmd.arg("--traced");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if started.elapsed() > limit => {
                // Best effort: the child may have exited in between.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("run exceeded {:.0} s", limit.as_secs_f64()));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let out = child
        .wait_with_output()
        .map_err(|e| format!("reading run output: {e}"))?;
    if !status.success() {
        return Err(format!("run exited with {status}"));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let v = json::parse(line)?;
    Ok(Run {
        variant,
        fingerprint: json::str_of(&v, "fingerprint")?.to_string(),
        facts: facts_from_json(json::field(&v, "facts")?)?,
    })
}

/// Trains the hybrid model once per checkout and keeps it, with what the
/// training cost, under `benchmark/out/`.
fn ensure_model() -> Result<(), String> {
    if bind::load_model(&paths::model()).is_ok() && json::read_file(&paths::model_facts()).is_ok() {
        return Ok(());
    }
    eprintln!("training the hybrid model (once per checkout) ...");
    let (model, t) = bind::train_model()?;
    let facts = obj([
        ("core.train_s", num(t.train_s)),
        ("core.train_samples", int(t.train_samples)),
        (
            "features",
            Value::Seq(
                t.features
                    .iter()
                    .map(|f| Value::Seq(f.iter().map(|x| num(f64::from(*x))).collect()))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(paths::model_facts(), json::render(&facts)).map_err(|e| e.to_string())?;
    bind::save_model(&model, &paths::model())
}

/// One run's value of an end-to-end metric.
fn end_to_end_of(facts: &Facts, name: &str) -> f64 {
    match name {
        "wall_ns_per_event" => facts["wall_s"] * 1e9 / facts["des.events"].max(1.0),
        other => facts[other],
    }
}

impl Measured {
    fn new(workload: &'static Workload, seed: u64) -> Self {
        Measured {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            seen: BTreeMap::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
            probes: Facts::new(),
        }
    }

    /// The first run of variant 0: the scenario at `--seed` itself.
    fn first(&self) -> Option<&Run> {
        self.seen.get(&0)
    }

    /// Runs `variant` once and checks it. A run that exits non-zero,
    /// overruns its limit, or returns a fingerprint or simulated count
    /// different from the variant's first run counts as failed.
    fn attempt(&mut self, plan: &Plan, variant: u64, traced: bool, limit: Duration) -> Option<Run> {
        self.attempted += 1;
        let run = match spawn_child(self.workload, plan, variant, traced, limit) {
            Ok(run) => run,
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("variant {variant}: {e}"));
                return None;
            }
        };
        let Some(first) = self.seen.get(&variant) else {
            self.seen.insert(variant, run.clone());
            return Some(run);
        };
        let mut diffs: Vec<&str> = SIM_COUNTS
            .iter()
            .filter(|k| first.facts.get(**k) != run.facts.get(**k))
            .copied()
            .collect();
        if first.fingerprint != run.fingerprint {
            diffs.push("fingerprint");
        }
        if diffs.is_empty() {
            return Some(run);
        }
        self.failed += 1;
        let what = if traced { "traced" } else { "untraced" };
        self.problems.push(format!(
            "{what} run of variant {variant} differs from the variant's first run in: {}",
            diffs.join(", ")
        ));
        None
    }

    /// Checks that the workload did what its `why` says it does.
    fn check_shape(&mut self) {
        let Some(first) = self.first() else {
            self.problems.push("no run succeeded".into());
            return;
        };
        let fact = |k: &str| first.facts.get(k).copied().unwrap_or(0.0);
        let mut bad = Vec::new();
        if fact("des.events") < 1.0 || fact("net.flows_completed") < 1.0 {
            bad.push("the run simulated nothing".to_string());
        }
        match self.workload.driver {
            Driver::Hybrid => {
                if fact("core.verdicts") < 1.0 {
                    bad.push("hybrid run issued no oracle verdict".to_string());
                }
                if fact("net.guard_fallback_active") != 0.0 {
                    bad.push("the guard abandoned the learned oracle".to_string());
                }
            }
            Driver::Full | Driver::Pdes => {
                if fact("core.verdicts") != 0.0 || fact("net.oracle_deliveries") != 0.0 {
                    bad.push("full-fidelity run called the oracle".to_string());
                }
            }
        }
        if (self.workload.driver == Driver::Pdes) != (fact("des.pdes_epochs") > 0.0) {
            bad.push("des.pdes_* populated on the wrong workload".to_string());
        }
        self.problems.extend(bad);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    fn summary(runs: &[Run], of: impl Fn(&Facts) -> f64) -> Summary {
        Summary::of(runs.iter().map(|r| of(&r.facts)))
    }

    /// An end-to-end metric over the untraced runs.
    pub fn end_to_end(&self, name: &str) -> Summary {
        Self::summary(&self.untraced, |f| end_to_end_of(f, name))
    }

    /// Host seconds of the simulation phase over the untraced runs.
    pub fn wall_s(&self) -> Summary {
        Self::summary(&self.untraced, |f| f["wall_s"])
    }

    /// Untraced figures derived from the gated ones; printed, never gated.
    pub fn derived(&self) -> Vec<(&'static str, &'static str, Summary)> {
        let u = &self.untraced;
        vec![
            ("wall_s", "s", self.wall_s()),
            (
                "events_per_s",
                "1/s",
                Self::summary(u, |f| f["des.events"] / f["wall_s"].max(1e-12)),
            ),
            (
                "sim_s_per_s",
                "ratio",
                Self::summary(u, |f| f["sim_s"] / f["wall_s"].max(1e-12)),
            ),
        ]
    }

    /// A per-layer metric: a probe's value, or from the traced runs — the
    /// median over variants for a time, variant 0's own value for a count
    /// (so that it repeats exactly for one `--seed`); 0 when the layer
    /// does not take part in this workload.
    pub fn per_layer(&self, name: &str) -> f64 {
        if let Some(v) = self.probes.get(name) {
            return *v;
        }
        let is_time = PER_LAYER
            .iter()
            .any(|m| m.name == name && matches!(m.unit, "s" | "ns"));
        let have = self
            .traced
            .iter()
            .filter(|r| r.facts.contains_key(name) && (is_time || r.variant == 0));
        Summary::of(have.map(|r| r.facts[name])).median
    }

    /// The exact simulated statistics of the first run.
    pub fn sim_counts(&self) -> Value {
        let first = self.first();
        obj(SIM_COUNTS.iter().map(|k| {
            let v = first.and_then(|r| r.facts.get(*k)).copied().unwrap_or(0.0);
            (*k, int(v as u64))
        }))
    }

    pub fn fingerprint(&self) -> &str {
        self.first().map_or("", |r| r.fingerprint.as_str())
    }

    pub fn has_trace(&self) -> bool {
        !self.traced.is_empty()
    }

    /// The stand-alone probes and the trace-derived ratios, once traced
    /// runs exist.
    fn probe(&mut self, plan: &Plan) -> Result<(), String> {
        let mut probes = Facts::new();
        probes.insert("calib_s".into(), calib_s());
        let pending = self.per_layer("des.pending_peak") as usize;
        if pending > 0 {
            probes.insert("des.hold_ns_per_op".into(), bind::hold_ns_per_op(pending));
        }
        let probe_ledger = paths::out_dir().join("ledger_probe.json");
        probes.insert(
            "core.ledger_seal_s".into(),
            bind::ledger_seal_s(&probe_ledger)?,
        );
        if self.workload.driver == Driver::Hybrid {
            let model = bind::load_model(&paths::model())?;
            let facts = json::read_file(&paths::model_facts())?;
            for k in ["core.train_s", "core.train_samples"] {
                probes.insert(k.into(), json::f64_of(&facts, k)?);
            }
            let features: Vec<Vec<f32>> = json::seq_of(&facts, "features")?
                .iter()
                .filter_map(|row| row.as_seq())
                .map(|row| {
                    row.iter()
                        .filter_map(|x| x.as_f64())
                        .map(|x| x as f32)
                        .collect()
                })
                .collect();
            probes.insert(
                "nn.step_infer_ns".into(),
                bind::step_infer_ns(&model, &features),
            );
            let mut scratch = Facts::new();
            let p = bind::prepare(
                &paths::scenario(self.workload.name),
                self.workload.driver,
                plan.seed,
                plan.quick,
                &paths::model(),
                &mut scratch,
            )?;
            bind::audit(&p, &mut probes);
        }
        self.probes = probes;
        Ok(())
    }

    /// `overheads`: traced wall over the untraced partner's, minus one,
    /// per variant.
    fn finish_trace(&mut self, overheads: &[f64]) {
        let traced = Self::summary(&self.traced, |f| f["wall_s"]).median;
        self.probes.insert("traced_wall_s".into(), traced);
        self.probes.insert(
            "trace.overhead".into(),
            Summary::of(overheads.iter().copied()).median,
        );
    }

    /// The workload's result as one JSON object of the suite document.
    pub fn to_json(&self) -> Value {
        let metric = |unit: &str, s: Summary| {
            obj([
                ("unit", text(unit)),
                ("median", num(s.median)),
                ("p25", num(s.p25)),
                ("p75", num(s.p75)),
                ("min", num(s.min)),
                ("max", num(s.max)),
                ("n", int(s.n as u64)),
            ])
        };
        let mut pairs = vec![
            ("workload", text(self.workload.name)),
            ("why", text(self.workload.why)),
            ("seed", int(self.seed)),
            ("runs_attempted", int(self.attempted)),
            ("runs_failed", int(self.failed)),
            ("correct", Value::Bool(self.correct())),
            (
                "problems",
                Value::Seq(self.problems.iter().map(text).collect()),
            ),
            ("fingerprint", text(self.fingerprint())),
            (
                "end_to_end",
                obj(END_TO_END
                    .iter()
                    .map(|m| (m.name, metric(m.unit, self.end_to_end(m.name))))),
            ),
            (
                "derived",
                obj(self
                    .derived()
                    .into_iter()
                    .map(|(name, unit, s)| (name, metric(unit, s)))),
            ),
            ("sim_counts", self.sim_counts()),
            // Every untraced run made: `compare` pairs the two sides by
            // variant, and any other statistic can be taken later.
            (
                "untraced_runs",
                Value::Seq(
                    self.untraced
                        .iter()
                        .map(|r| {
                            let metrics = END_TO_END
                                .iter()
                                .map(|m| (m.name, num(end_to_end_of(&r.facts, m.name))));
                            obj([("variant", int(r.variant))]
                                .into_iter()
                                .chain(metrics)
                                .chain([
                                    ("wall_s", num(r.facts["wall_s"])),
                                    ("events", int(r.facts["des.events"] as u64)),
                                ]))
                        })
                        .collect(),
                ),
            ),
        ];
        if self.has_trace() {
            pairs.push((
                "per_layer",
                obj(PER_LAYER.iter().map(|m| {
                    let v = obj([
                        ("unit", text(m.unit)),
                        ("value", num(self.per_layer(m.name))),
                    ]);
                    (m.name, v)
                })),
            ));
            if let Some(first) = self.traced.iter().find(|r| r.variant == 0) {
                pairs.push(("traced_run_facts", facts_to_json(&first.facts)));
            }
        }
        obj(pairs)
    }
}

/// Measures one workload: untraced runs for `plan.seconds`, and/or traced
/// runs, each followed by its untraced partner, for `plan.seconds`, with
/// the stand-alone probes after the first pair.
pub fn measure(
    workload: &'static Workload,
    plan: &Plan,
    phases: Phases,
) -> Result<Measured, String> {
    std::fs::create_dir_all(paths::out_dir()).map_err(|e| e.to_string())?;
    if workload.driver == Driver::Hybrid {
        ensure_model()?;
    }
    let mut m = Measured::new(workload, plan.seed);
    let mut limit = CHILD_LIMIT;
    if !plan.quick {
        // Warm-up on variant 0, not measured: pages the binary and the
        // scenario in, sizes the limit for the runs that follow, and is the
        // run the next one of variant 0 must repeat.
        let t0 = Instant::now();
        m.attempt(plan, 0, false, limit);
        limit = (t0.elapsed() * 10)
            .max(Duration::from_secs(10))
            .min(CHILD_LIMIT);
    }
    let budget = Duration::from_secs_f64(plan.seconds);
    let min_runs = if plan.quick { 1 } else { MIN_RUNS };
    if phases != Phases::PerLayer {
        let t0 = Instant::now();
        let mut variant = 0;
        while m.failed < MAX_FAILED
            && (m.untraced.len() < min_runs || (!plan.quick && t0.elapsed() < budget))
        {
            let run = m.attempt(plan, variant, false, limit);
            m.untraced.extend(run);
            variant += 1;
        }
    }
    if phases != Phases::EndToEnd {
        let t0 = Instant::now();
        let mut variant = 0;
        let mut overheads = Vec::new();
        while m.failed < MAX_FAILED
            && (m.traced.is_empty() || (!plan.quick && t0.elapsed() < budget))
        {
            // Each traced run is followed by an untraced partner on the
            // same variant: the partner checks the fingerprint and gives
            // the overhead its base under the same machine conditions.
            let traced = m.attempt(plan, variant, true, limit);
            let partner = m.attempt(plan, variant, false, limit);
            if let (Some(t), Some(u)) = (&traced, &partner) {
                overheads.push(t.facts["wall_s"] / u.facts["wall_s"] - 1.0);
            }
            m.traced.extend(traced);
            if variant == 0 {
                m.probe(plan)?;
            }
            variant += 1;
        }
        m.finish_trace(&overheads);
    }
    m.check_shape();
    Ok(m)
}
