//! The run matrix as one table: {full, hybrid} × {sequential, PDES} ×
//! {unsupervised, supervised} × {unobserved, samples + trace + timeline +
//! profile} on one two-cluster scenario. Within each (fidelity, engine) pair all four
//! supervision × observation cells must land on the same fingerprint and
//! event count: checkpointing and observing are invisible on every
//! engine, because every cell is the same `execute` over the same world.
//! The two observed cells also take the same samples: checkpoints (here
//! off the sampling grid) neither add nor shift a tick.
//!
//! The library's experiments (`elephant::scenario::matrix`) are checked
//! here too, without the binary: a hybrid sweep's rows are its cells'
//! pairs, a training sweep captures each ground truth once, and training
//! seals §4.1's regime occupancy.

use elephant::core::{
    oracle_stack, ClusterModel, Exec, LatencyCodec, MacroConfig, MacroModel, MacroState, ModelMeta,
    Observe, OracleFactory, RecoveryPolicy,
};
use elephant::des::SmallRng;
use elephant::des::{EpochMode, SimDuration};
use elephant::net::{GuardConfig, RttScope, TraceLog};
use elephant::nn::{MicroNet, MicroNetConfig};
use elephant::obs::MetricRow;
use elephant::scenario::matrix::{self, Capture, Engine};
use elephant::scenario::{
    compile, fold_fingerprints, load, run_fingerprint, sweep_cells, toml, CompileOverrides,
    Compiled,
};

/// A structurally valid, untrained model: arbitrary but deterministic
/// verdicts, with sampled drops so oracle RNG state matters to restores.
fn untrained_model() -> ClusterModel {
    let cfg = MicroNetConfig {
        input: elephant::core::FEATURE_DIM,
        hidden: 8,
        layers: 1,
        alpha: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(5);
    ClusterModel {
        up: MicroNet::new(cfg, &mut rng),
        down: MicroNet::new(cfg, &mut rng),
        macro_cfg: MacroConfig::default(),
        codec: LatencyCodec::default(),
        meta: ModelMeta::default(),
    }
}

#[test]
fn supervision_and_observation_never_move_a_fingerprint() {
    let scenario = load("scenarios/smoke.toml").expect("committed scenario loads");
    let overrides = CompileOverrides {
        horizon_ms: Some(6.0),
        ..Default::default()
    };
    let compiled = compile(&scenario, &overrides);
    let model = untrained_model();
    let guard = GuardConfig::default();
    let policy = RecoveryPolicy {
        checkpoint_every: SimDuration::from_millis(1),
        max_retries: 1,
    };

    for hybrid in [false, true] {
        for pdes in [false, true] {
            let mut cells = Vec::new();
            let mut sampled = Vec::new();
            for (supervised, observed) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let mut oracles = |partition: Option<usize>| {
                    let (params, seed) = (compiled.params, compiled.seed);
                    oracle_stack(
                        model.clone(),
                        params,
                        seed,
                        partition,
                        Some(4096),
                        Some(&guard),
                    )
                    .oracle
                };
                let factory: Option<OracleFactory<'_>> = match hybrid {
                    true => Some(&mut oracles),
                    false => None,
                };
                let exec = match pdes {
                    true => compiled.pdes(None, EpochMode::Adaptive),
                    false => Exec::Sequential,
                };
                let observe = match observed {
                    true => Observe {
                        trace: Some(TraceLog::strided(10_000, 200_000)),
                        sample_every: Some(SimDuration::from_micros(150)),
                        timeline: true,
                        profile: true,
                    },
                    false => Observe::default(),
                };
                let cell = format!(
                    "hybrid={hybrid} pdes={pdes} supervised={supervised} observed={observed}"
                );
                let out = compiled
                    .run(
                        factory,
                        exec,
                        supervised.then_some(&policy),
                        observe,
                        RttScope::All,
                    )
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));

                // Each axis actually took effect.
                assert_eq!(out.oracle_deliveries() > 0, hybrid, "{cell}");
                assert_eq!(out.report.is_some(), pdes, "{cell}");
                assert_eq!(!out.samples.is_empty(), observed, "{cell}");
                let mut parts = out.report.iter().flat_map(|r| &r.partitions);
                let sliced = parts.any(|p| !p.slices.is_empty());
                assert_eq!(sliced, pdes && observed, "{cell}");
                match &out.recovery {
                    Some(log) => {
                        assert!(supervised, "{cell}");
                        assert!(log.checkpoints_taken >= 2, "{cell}: {}", log.summary());
                        assert_eq!(log.restores + log.degradations, 0, "{cell}");
                    }
                    None => assert!(!supervised, "{cell}"),
                }
                cells.push((cell, run_fingerprint(&out.nets), out.meta.events));
                if observed {
                    sampled.push(out.samples);
                }
            }
            let (_, fingerprint, events) = &cells[0];
            for (cell, f, e) in &cells[1..] {
                assert_eq!(
                    (f, e),
                    (fingerprint, events),
                    "{cell} diverged from {}",
                    cells[0].0
                );
            }
            let [unsupervised, supervised] = &sampled[..] else {
                unreachable!("two observed cells")
            };
            assert_eq!(
                supervised, unsupervised,
                "hybrid={hybrid} pdes={pdes}: supervised samples differ"
            );
        }
    }
}

/// A two-cluster document with one `[[sweep]]` axis, plus `extra`,
/// compiled cell by cell.
fn cells(extra: &str, axis: &str) -> Vec<(Vec<(String, String)>, Compiled)> {
    let text = format!(
        "schema = 1\n[scenario]\nname = \"matrix\"\n[topology]\nclusters = 2\n\
         [run]\nhorizon_ms = 2\nseed = 42\n[[traffic]]\nkind = \"poisson\"\nload = 0.3\n\
         {extra}[[sweep]]\n{axis}\n"
    );
    let doc = toml::parse(&text).expect("the document parses");
    let cells = sweep_cells(&doc).expect("the document decodes");
    let over = CompileOverrides::default();
    let compiled = |cell: elephant::scenario::SweepCell| {
        let c = compile(&cell.scenario, &over);
        (cell.edits, c)
    };
    cells.into_iter().map(compiled).collect()
}

/// A hybrid sweep cell is `matrix::pair`: each full row carries the
/// truth's fingerprint, each hybrid row the hybrid's and exactly the
/// `hybrid/rtt/*` values the pair scores, and the sweep's fingerprint
/// folds the four runs'.
#[test]
fn hybrid_sweep_rows_are_their_cells_pairs() {
    let cells = cells("", "keys = [\"run.seed\"]\nvalues = [42, 7]");
    let (model, engine) = (untrained_model(), Engine::default());
    let sweep = matrix::sweep(&cells, engine, Some(&model), &mut |_| {}).expect("the sweep runs");
    let at = |name: &str| {
        let column = sweep.header.iter().position(|h| h == name);
        column.unwrap_or_else(|| panic!("no {name} column: {:?}", sweep.header))
    };
    assert_eq!(sweep.rows.len(), 4, "a full and a hybrid row per cell");
    let mut fingerprints = Vec::new();
    for (n, (edits, c)) in cells.iter().enumerate() {
        let pair = matrix::pair(c, engine, &model, Observe::default()).expect("the pair runs");
        let (full, hybrid) = (&sweep.rows[2 * n], &sweep.rows[2 * n + 1]);
        assert_eq!(
            (&*full[at("fidelity")], &*hybrid[at("fidelity")]),
            ("full", "hybrid")
        );
        for (row, ran) in [(full, &pair.truth), (hybrid, &pair.hybrid)] {
            let fingerprint = run_fingerprint(&ran.outcome.nets);
            assert_eq!(
                row[at("fingerprint")],
                format!("{fingerprint:#018x}"),
                "{edits:?}"
            );
            fingerprints.push(fingerprint);
        }
        let scored = pair.score.metric_rows();
        assert_eq!(scored.len(), 17, "KS, 7 quantiles a side, 2 sample counts");
        assert!(pair.score.truth_samples > 0 && pair.score.approx_samples > 0);
        for m in scored {
            let column = match m.label.is_empty() {
                true => m.name.clone(),
                false => format!("{}[{}]", m.name, m.label),
            };
            assert_eq!(
                hybrid[at(&column)],
                m.value.to_string(),
                "{edits:?}: {column}"
            );
            assert_eq!(full[at(&column)], "", "{edits:?}: {column} on the full row");
        }
    }
    assert_eq!(sweep.fingerprint, fold_fingerprints(fingerprints));
}

/// A training sweep whose cells differ only in `train.epochs` captures its
/// ground truth once, and each cell's model is what `train_on` trains on a
/// fresh capture of that cell.
#[test]
fn training_sweep_captures_once_and_trains_each_cell() {
    let train = "[train]\nhidden = 8\nlayers = 1\n";
    let cells = cells(train, "keys = [\"train.epochs\"]\nvalues = [1, 2]");
    let mut lines = Vec::new();
    let progress = &mut |line: &str| lines.push(line.to_string());
    let sweep = matrix::sweep(&cells, Engine::default(), None, progress).expect("the sweep runs");
    assert!(!lines[0].contains("reused"), "{lines:?}");
    assert!(lines[1].contains("capture reused (cell 0)"), "{lines:?}");
    let at = |name: &str| sweep.header.iter().position(|h| h == name).unwrap();
    let mut folded = Vec::new();
    for ((_, c), row) in cells.iter().zip(&sweep.rows) {
        let fresh = Capture::take(c, false).expect("the capture saw traffic");
        let trained = matrix::train_on(c, &fresh.records).expect("training runs");
        let checksum = trained.model.weight_checksum();
        assert_eq!(row[at("checksum")], format!("{checksum:#018x}"));
        assert_eq!(
            row[at("fingerprint")],
            format!("{:#018x}", fresh.fingerprint)
        );
        folded.extend([fresh.fingerprint, checksum]);
    }
    assert_ne!(sweep.rows[0][at("checksum")], sweep.rows[1][at("checksum")]);
    assert_eq!(sweep.fingerprint, fold_fingerprints(folded));
}

/// §4.1's evidence is a training row: on `ablation_macro.toml`'s
/// workload, the calibrated cell's `train/eval/macro_occupancy[<state>]`
/// counters split the capture's records among all four regimes, each
/// exactly as often as a classifier replaying the records in time order
/// holds that state when a record arrives. The whole capture ends in the
/// regime the classifier starts in, where counting the state after each
/// record would count the same; so the replay is checked again on the
/// capture's first 90 %, which ends mid-congestion. The pinned cell seals
/// no occupancy.
#[test]
fn training_seals_the_regime_occupancy_of_its_capture() {
    let text = std::fs::read_to_string("scenarios/figures/ablation_macro.toml").unwrap();
    let mut doc = toml::parse(&text).expect("the figure parses");
    for (key, value) in [
        ("train.hidden", "8"),
        ("train.layers", "1"),
        ("train.epochs", "1"),
    ] {
        doc.set(key, value, 0).expect("a [train] key");
    }
    let over = CompileOverrides {
        horizon_ms: Some(10.0),
        ..Default::default()
    };
    let cells = sweep_cells(&doc).expect("the figure decodes");
    let [calibrated, pinned] = &cells[..] else {
        panic!("two cells: train.macro_state = true, false")
    };
    let (calibrated, pinned) = (
        compile(&calibrated.scenario, &over),
        compile(&pinned.scenario, &over),
    );
    let capture = Capture::take(&calibrated, false).expect("the capture saw traffic");
    let occupancy = |rows: &[MetricRow]| -> Vec<(String, u64)> {
        let rows = rows
            .iter()
            .filter(|m| m.name == "train/eval/macro_occupancy");
        rows.map(|m| (m.label.clone(), m.count)).collect()
    };

    let mut in_time = capture.records.clone();
    in_time.sort_by_key(|r| r.t_in);
    let cut = &in_time[..in_time.len() * 9 / 10];
    for (records, whole) in [(&capture.records[..], true), (cut, false)] {
        let trained = matrix::train_on(&calibrated, records).expect("training runs");
        let mut regime = MacroModel::new(trained.model.macro_cfg);
        let mut held = [0u64; 4];
        for r in &in_time[..records.len()] {
            held[regime.state().index()] += 1;
            regime.observe((!r.dropped).then(|| r.latency.as_secs_f64()), r.dropped);
        }
        let want: Vec<(String, u64)> = MacroState::ALL
            .iter()
            .map(|s| (s.label(), held[s.index()]))
            .collect();
        let sealed = occupancy(&trained.rows);
        assert_eq!(sealed, want, "whole capture: {whole}");
        let total: u64 = sealed.iter().map(|(_, n)| n).sum();
        assert_eq!(total, records.len() as u64);
        match whole {
            true => assert!(held.iter().all(|&n| n > 0), "four regimes: {held:?}"),
            false => assert_ne!(regime.state(), MacroState::Minimal, "the cut ends calm"),
        }
    }

    let trained = matrix::train_on(&pinned, &capture.records).expect("training runs");
    assert_eq!(occupancy(&trained.rows), vec![]);
}
