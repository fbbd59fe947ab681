//! The run matrix as a library value: every experiment the CLI runs,
//! each written once over [`Compiled::run`].
//!
//! - [`run`]: one run at any point of the matrix — full fidelity or the
//!   hybrid of a model, sequential or PDES, supervised when the scenario
//!   declares `[recovery]` — with its oracle stack assembled here and
//!   what the stack counted read off it when the run ends.
//! - [`pair`]: full fidelity, then the hybrid, both sampling RTTs in the
//!   full cluster; the hybrid's RTT distribution is scored against the
//!   truth's and its wall clock against the truth's (paper §6.1–6.2).
//!   `compare --model` is one pair, a hybrid sweep cell another.
//! - [`Capture`] and [`train_on`]: a `[train]` document's ground truth and
//!   a model trained on it; `train`, training sweeps and the CLI's
//!   quick-trained fallback model all take this path.
//! - [`sweep`]: every `[[sweep]]` cell through the above, as CSV rows and
//!   one folded fingerprint.
//! - [`audit`]: the accuracy observatory's pair
//!   (`elephant_core::run_audit`) on the same oracle stack.
//!
//! Nothing here prints or exits: flags, messages and exit codes are the
//! CLI's.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use elephant_core::{
    compare_cdfs, execute, guard_primary, macro_agreement, macro_confusion, oracle_stack,
    run_audit, train_cluster_model, AuditHooks, AuditRun, CacheTotals, CdfComparison, ClusterModel,
    ElephantError, Exec, Fidelity, MacroState, Observe, OracleCounters, OracleFactory, OracleStack,
    Outcome, RunPlan, TrainReport,
};
use elephant_des::{EpochMode, SimDuration, SimTime};
use elephant_net::{
    BoundaryRecord, ClusterOracle, FaultyOracle, GuardViolation, OracleFaultMode, RttScope,
};
use elephant_obs::{MetricRow, RunReport};

use crate::{fold_fingerprints, run_fingerprint, Compiled};

/// How every run of an experiment executes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Engine {
    /// Conservative PDES with `[topology.pdes]` partitions and adaptive
    /// epochs (a hybrid partitions one cluster per partition); else
    /// sequential.
    pub pdes: bool,
    /// A drill: the learned oracle replaced by one that emits `mode` on
    /// one verdict in `n`, under the same guard. Sequential hybrids only,
    /// like the guard itself.
    pub fault: Option<(OracleFaultMode, u64)>,
}

/// A finished run and what its oracle stack counted.
pub struct Ran {
    pub outcome: Outcome,
    /// The guard's and caches' counters. None for a supervised run: a
    /// restored network carries a clone of its stack, which counts onto
    /// the same handles, so they would count abandoned attempts too.
    pub oracle: OracleCounters,
    /// The guard's trips, for the timeline.
    pub trips: Vec<(SimTime, GuardViolation)>,
}

/// Runs `c` on `engine`: the hybrid of `model` served by the oracle stack
/// of `c`'s `[guard]`/`[oracle]` settings (one per PDES partition), else
/// full fidelity, sampling RTTs over `rtt`, supervised when `c` declares
/// `[recovery]`.
pub fn run(
    c: &Compiled,
    engine: Engine,
    model: Option<&ClusterModel>,
    observe: Observe,
    rtt: RttScope,
) -> Result<Ran, ElephantError> {
    let (mut guard, mut caches) = (None, Vec::new());
    let mut oracles = |partition: Option<usize>| {
        let model = model.expect("hybrid runs have a model").clone();
        let stack = stack(c, model, engine.fault, partition);
        guard = stack.guard;
        caches.extend(stack.cache);
        stack.oracle
    };
    let exec = match engine.pdes {
        true => c.pdes(None, EpochMode::Adaptive),
        false => Exec::Sequential,
    };
    let oracles = model.is_some().then_some(&mut oracles as OracleFactory<'_>);
    let outcome = c.run(oracles, exec, c.recovery.as_ref(), observe, rtt)?;
    if outcome.recovery.is_some() {
        (guard, caches) = (None, Vec::new());
    }
    Ok(Ran {
        trips: guard.as_ref().map(|h| h.trip_events()).unwrap_or_default(),
        oracle: OracleCounters {
            guard: guard.map(|h| h.snapshot()),
            cache: CacheTotals::of(&caches),
        },
        outcome,
    })
}

/// The oracle stack `c` describes around `model`
/// (`elephant_core::oracle_stack`); a fault drill puts its faulty primary
/// under the same guard, on sequential runs only.
fn stack(
    c: &Compiled,
    model: ClusterModel,
    fault: Option<(OracleFaultMode, u64)>,
    partition: Option<usize>,
) -> OracleStack {
    let (spec, seed) = (&c.hybrid, c.seed);
    let cache = spec.cache.then_some(spec.cache_cap);
    let Some((mode, every)) = fault.filter(|_| partition.is_none()) else {
        return oracle_stack(model, c.params, seed, partition, cache, spec.guard.as_ref());
    };
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

/// Ground truth and the hybrid of one compiled scenario.
pub struct Pair {
    pub truth: Ran,
    pub hybrid: Ran,
    /// The hybrid's RTT distribution against the truth's (the
    /// `hybrid/rtt/*` rows).
    pub score: CdfComparison,
    /// Truth wall clock over the hybrid's.
    pub speedup: f64,
}

/// [`run`]s `c` at full fidelity, then as the hybrid of `model` under
/// `observe`, both sampling RTTs in the full cluster, and scores the pair.
pub fn pair(
    c: &Compiled,
    engine: Engine,
    model: &ClusterModel,
    observe: Observe,
) -> Result<Pair, ElephantError> {
    let rtt = RttScope::Cluster(c.hybrid.full_cluster);
    let truth = run(c, engine, None, Observe::default(), rtt)?;
    let hybrid = run(c, engine, Some(model), observe, rtt)?;
    let rtts = |r: &Ran| r.outcome.nets[0].stats.rtt_cdf();
    let wall = |r: &Ran| r.outcome.meta.wall.as_secs_f64();
    Ok(Pair {
        score: compare_cdfs(&rtts(&truth), &rtts(&hybrid)),
        speedup: wall(&truth) / wall(&hybrid).max(1e-9),
        truth,
        hybrid,
    })
}

/// The accuracy observatory's pair (`elephant_core::run_audit`): truth and
/// the hybrid of `model`, sequential and unsupervised, over `c`'s elided
/// flows; the hybrid samples its regime timeline every `[outputs]` period
/// (else 200 µs), and the divergence is judged by `c`'s `[audit]` bounds
/// (else the defaults).
pub fn audit(c: &Compiled, model: ClusterModel) -> AuditRun {
    let OracleStack {
        oracle,
        guard,
        cache,
    } = stack(c, model, None, None);
    let every = c.sample_every.unwrap_or(SimDuration::from_micros(200));
    let (bounds, flows) = (c.audit_bounds.unwrap_or_default(), c.hybrid_flows());
    let (params, full, cfg) = (c.params, c.hybrid.full_cluster, c.net_config());
    let hooks = AuditHooks { cache, guard };
    run_audit(
        params, full, oracle, cfg, &flows, c.horizon, bounds, every, hooks,
    )
}

/// The ground truth of a `[train]` document (paper §3): its flows at full
/// fidelity with boundary capture around cluster 1, kept as training and
/// reports read it; not its networks.
pub struct Capture {
    /// The boundary records: the training data.
    pub records: Vec<BoundaryRecord>,
    pub fingerprint: u64,
    /// A training sweep row's first capture columns: flows, events, wall
    /// and simulated seconds.
    columns: String,
    /// The run's report (`Outcome::describe`), its metric rows followed by
    /// the capture as training data (`train/capture/*`): completed flows,
    /// drops, ECN marks, RTTs and the records' drop rate.
    pub report: RunReport,
}

impl Capture {
    /// Runs `c`'s capture, profiled when it is the run a report describes.
    /// A capture no packet crossed is [`ElephantError::EmptyCapture`].
    pub fn take(c: &Compiled, profile: bool) -> Result<Capture, ElephantError> {
        let fidelity = Fidelity::Full { capture: Some(1) };
        let mut plan = RunPlan::new(c.params, c.net_config(), &c.flows, c.horizon, fidelity);
        plan.observe.profile = profile;
        let out = execute(plan)?;
        let net = &out.nets[0];
        let records = net.capture().expect("the run captured cluster 1").records();
        if records.is_empty() {
            return Err(ElephantError::EmptyCapture { horizon: c.horizon });
        }
        let drops = records.iter().filter(|r| r.dropped).count();
        let drop_rate = drops as f64 / records.len() as f64;
        let (stats, fingerprint) = (&net.stats, run_fingerprint(&out.nets));
        let mut report = RunReport::default();
        out.describe(&mut report, &OracleCounters::default());
        report.metrics.extend([
            MetricRow::counter("train/capture/flows_completed", "", stats.flows_completed),
            MetricRow::counter("train/capture/drops", "", stats.drops.total()),
            MetricRow::counter("train/capture/ecn_marks", "", net.port_totals().0),
            MetricRow::histogram("train/capture/rtt_seconds", "", &stats.rtt_hist),
            MetricRow::gauge("train/capture/drop_rate", "", drop_rate),
        ]);
        let (flows, events) = (c.flows.len(), report.events);
        let (wall, sim_s) = (report.wall_seconds, report.sim_seconds);
        let columns = format!("{flows},{events},{wall},{sim_s}");
        let net = out.into_single().0;
        Ok(Capture {
            records: net.into_capture().expect("captured").into_records(),
            fingerprint,
            columns,
            report,
        })
    }
}

/// What [`train_on`] trained: the model, its held-out evaluation, the
/// macro-state agreement (none when the regime is pinned), their metric
/// rows, and the training's wall time.
pub struct Trained {
    pub model: ClusterModel,
    pub report: TrainReport,
    pub agreement: Option<f64>,
    pub rows: Vec<MetricRow>,
    pub wall: Duration,
}

/// A model trained on `records` with `c`'s `[train]` options, and, off
/// the training clock, how often its macro classifier fed on the model's
/// own predictions agrees with one fed on the records
/// (`train/eval/macro_agreement`, the drift of the deployed regime), and
/// how many records the records-fed classifier spent in each of §4.1's
/// regimes (`train/eval/macro_occupancy[<state>]`, the confusion
/// matrix's row sums). A `macro_state = false` model pins the regime, so
/// it has neither to measure and no such rows.
pub fn train_on(c: &Compiled, records: &[BoundaryRecord]) -> Result<Trained, ElephantError> {
    let opts = c.train.expect("a [train] document");
    let t0 = Instant::now();
    let (model, report) = train_cluster_model(records, &c.params, &opts);
    let wall = t0.elapsed();
    let confusion = (opts.macro_state)
        .then(|| macro_confusion(records, &model, &c.params))
        .transpose()?;
    let agreement = confusion.as_ref().map(macro_agreement);
    let mut rows = report.metric_rows(opts.alpha);
    rows.extend(agreement.map(|a| MetricRow::gauge("train/eval/macro_agreement", "", a)));
    for (state, truth) in MacroState::ALL.iter().zip(confusion.iter().flatten()) {
        let (label, n) = (state.label(), truth.iter().sum());
        rows.push(MetricRow::counter("train/eval/macro_occupancy", &label, n));
    }
    Ok(Trained {
        model,
        report,
        agreement,
        rows,
        wall,
    })
}

/// The fixed columns of a simulation sweep's rows, and of a training
/// sweep's: the capture's, then the model's checksum and training clock.
const RUN_COLUMNS: &str = "fidelity,flows,events,wall_s,sim_s,fingerprint";
const TRAIN_COLUMNS: &str = "flows,events,wall_s,sim_s,fingerprint,checksum,train_wall_s";

/// A sweep's results: its CSV header and rows, one per cell and run (the
/// cell's axis values, the `RUN_COLUMNS` or `TRAIN_COLUMNS`, then every
/// metric column any row has, and a hybrid sweep's `speedup_vs_full`), and
/// the fold of the runs' fingerprints (and models' checksums).
pub struct Sweep {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    pub fingerprint: u64,
}

impl Sweep {
    /// The CSV text, `command` its first line's comment.
    pub fn csv(&self, command: &str) -> String {
        let mut text = format!("# {command}\n{}\n", self.header.join(","));
        self.rows.iter().for_each(|r| text += &(r.join(",") + "\n"));
        text
    }
}

/// A sweep cell's axis edits as `key = value, ...`.
pub fn label(edits: &[(String, String)]) -> String {
    let set: Vec<String> = edits.iter().map(|(k, v)| format!("{k} = {v}")).collect();
    set.join(", ")
}

/// Runs every sweep cell (its axis edits, and the document compiled with
/// them) and hands `progress` a line per cell. A `[train]` document trains
/// once per cell ([`train_on`]), on one [`Capture`] per distinct set of
/// non-`train.*` cell edits. Any other runs each cell at full fidelity
/// and, given a model, then as its hybrid: a [`pair`], scored when both
/// sides sampled RTTs.
pub fn sweep(
    cells: &[(Vec<(String, String)>, Compiled)],
    engine: Engine,
    model: Option<&ClusterModel>,
    progress: &mut dyn FnMut(&str),
) -> Result<Sweep, ElephantError> {
    // Every cell sets the same keys, so all or none declare [train].
    let training = cells[0].1.train.is_some();
    // Per run: its fixed fields, its metric columns, a hybrid's speedup.
    let mut runs = Vec::new();
    let mut fingerprints = Vec::new();
    // A training sweep's cells that differ only in `train.*` keys train on
    // one capture, kept until the last of them has trained.
    let shared: Vec<Vec<_>> = cells
        .iter()
        .map(|(edits, _)| edits.iter().filter(|e| !e.0.starts_with("train.")))
        .map(|kept| kept.cloned().collect())
        .collect();
    let mut captures = BTreeMap::new();
    for (n, (edits, c)) in cells.iter().enumerate() {
        let mut line = format!("  cell {n} ({}):", label(edits));
        let fields = |fixed: String| {
            let axes = edits.iter().map(|(_, v)| csv_field(v));
            axes.chain(fixed.split(',').map(String::from))
                .collect::<Vec<_>>()
        };
        if training {
            let key = shared[n].as_slice();
            if !captures.contains_key(key) {
                captures.insert(key, (n, Capture::take(c, false)?));
            }
            let (first, g) = &captures[key];
            let t = train_on(c, &g.records)?;
            let (checksum, train_wall) = (t.model.weight_checksum(), t.wall.as_secs_f64());
            fingerprints.extend([g.fingerprint, checksum]);
            let (columns, fingerprint) = (&g.columns, g.fingerprint);
            let fixed = format!("{columns},{fingerprint:#018x},{checksum:#018x},{train_wall}");
            let metrics = g.report.metrics.iter().cloned().chain(t.rows);
            runs.push((fields(fixed), metric_columns(metrics), None));
            let r = &g.report;
            line += &match *first == n {
                true => format!(" capture {} events {:.2}s", r.events, r.wall_seconds),
                false => format!(" capture reused (cell {first})"),
            };
            line += &format!(", trained {train_wall:.2}s, checksum {checksum:#018x}");
            progress(&line);
            if !shared[n + 1..].contains(&shared[n]) {
                captures.remove(key);
            }
            continue;
        }
        let sides = match model {
            Some(model) => {
                let p = pair(c, engine, model, Observe::default())?;
                // A side without RTT samples (every PDES partition) is not scored.
                let sampled = p.score.truth_samples > 0 && p.score.approx_samples > 0;
                let score = Some(p.score).filter(|_| sampled);
                let hybrid = ("hybrid", p.hybrid, score, Some(p.speedup));
                vec![("full", p.truth, None, None), hybrid]
            }
            None => {
                let rtt = RttScope::Cluster(c.hybrid.full_cluster);
                let full = run(c, engine, None, Observe::default(), rtt)?;
                vec![("full", full, None, None)]
            }
        };
        for (fidelity, ran, score, speedup) in sides {
            let (out, wall) = (&ran.outcome, ran.outcome.meta.wall.as_secs_f64());
            let fingerprint = run_fingerprint(&out.nets);
            fingerprints.push(fingerprint);
            let (flows, events) = (out.nets[0].streamed_flows().len(), out.meta.events);
            let sim_s = out.meta.sim_seconds;
            let fixed = format!("{fidelity},{flows},{events},{wall},{sim_s},{fingerprint:#018x}");
            let scored = score.iter().flat_map(CdfComparison::metric_rows);
            let metrics = out.metric_rows(&ran.oracle).into_iter().chain(scored);
            runs.push((fields(fixed), metric_columns(metrics), speedup));
            line += &format!(" {fidelity} {events} events {wall:.2}s");
            line += &speedup.map_or(String::new(), |x| format!(" ({x:.2}x)"));
            line += &score.map_or(String::new(), |s| format!(", KS {:.3}", s.ks));
        }
        progress(&line);
    }

    let hybrid = model.is_some() && !training;
    let metrics: BTreeSet<String> = runs.iter().flat_map(|r| r.1.keys().cloned()).collect();
    let mut header: Vec<String> = cells[0].0.iter().map(|(k, _)| k.clone()).collect();
    let fixed = if training { TRAIN_COLUMNS } else { RUN_COLUMNS };
    let columns = fixed.split(',').chain(metrics.iter().map(String::as_str));
    header.extend(columns.map(String::from));
    header.extend(hybrid.then(|| "speedup_vs_full".to_string()));
    let rows = runs.into_iter().map(|(mut row, values, speedup)| {
        let value = |m| values.get(m).map_or(String::new(), f64::to_string);
        row.extend(metrics.iter().map(value));
        row.extend(hybrid.then(|| speedup.map_or(String::new(), |x| x.to_string())));
        row
    });
    Ok(Sweep {
        header,
        rows: rows.collect(),
        fingerprint: fold_fingerprints(fingerprints),
    })
}

/// Metric rows as CSV columns: `name[label]` (or `name`) holds the row's
/// value, and a histogram adds its 99th percentile as `name[label].p99`.
fn metric_columns(rows: impl IntoIterator<Item = MetricRow>) -> BTreeMap<String, f64> {
    let mut columns = BTreeMap::new();
    for m in rows {
        let column = match m.label.is_empty() {
            true => m.name,
            false => format!("{}[{}]", m.name, m.label),
        };
        if m.kind == "histogram" {
            columns.insert(format!("{column}.p99"), m.p99);
        }
        columns.insert(column, m.value);
    }
    columns
}

/// A CSV field: quoted when it holds a comma or a quote.
fn csv_field(text: &str) -> String {
    match text.contains([',', '"']) {
        true => format!("\"{}\"", text.replace('"', "\"\"")),
        false => text.to_string(),
    }
}
