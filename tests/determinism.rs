//! Determinism: the whole pipeline — workload, simulation, capture,
//! training, hybrid deployment — is a pure function of its seeds.
//!
//! This is what makes every figure in EXPERIMENTS.md regenerable: a
//! drive-by `cargo run --bin figureN` produces the committed numbers.

use elephant::core::{
    execute, run_ground_truth, run_hybrid, train_cluster_model, ClusterModel, DropPolicy, Exec,
    Fidelity, LatencyCodec, LearnedOracle, MacroConfig, ModelMeta, OracleCounters, Outcome,
    PdesExec, RunPlan, TrainingOptions, FEATURE_DIM, OUTCOME_COUNTERS,
};
use elephant::des::{EpochMode, SimTime, SmallRng};
use elephant::net::{ClosParams, ClusterOracle, NetConfig, RttScope};
use elephant::nn::{MicroNet, MicroNetConfig};
use elephant::scenario::run_fingerprint;
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(15);

#[derive(PartialEq, Debug)]
struct Fingerprint {
    flows: usize,
    completed: u64,
    delivered: u64,
    drops: u64,
    events: u64,
    records: usize,
    model_json_len: usize,
    hybrid_completed: u64,
    hybrid_oracle_deliveries: u64,
    hybrid_events: u64,
    rtt_samples: Vec<u64>,
}

fn pipeline(seed: u64) -> Fingerprint {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, seed));
    let cfg = NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    };
    let (net, meta) = run_ground_truth(params, cfg, Some(1), &flows, HORIZON);
    let rtt_samples: Vec<u64> = net
        .stats
        .raw_rtt()
        .iter()
        .take(500)
        .map(|&s| (s * 1e12) as u64)
        .collect();
    let stats_completed = net.stats.flows_completed;
    let delivered = net.stats.delivered_bytes;
    let drops = net.stats.drops.total();
    let records = net.into_capture().expect("capture").into_records();

    let opts = TrainingOptions {
        epochs: 2,
        ..Default::default()
    };
    let (model, _) = train_cluster_model(&records, &params, &opts);
    let json = model.to_file_json();

    let elided = filter_touching_cluster(&flows, 0);
    let oracle = LearnedOracle::new(model, params, DropPolicy::Sample, seed ^ 0xABCD);
    let (hybrid, hmeta) = run_hybrid(params, 0, Box::new(oracle), cfg, &elided, HORIZON);

    Fingerprint {
        flows: flows.len(),
        completed: stats_completed,
        delivered,
        drops,
        events: meta.events,
        records: records.len(),
        model_json_len: json.len(),
        hybrid_completed: hybrid.stats.flows_completed,
        hybrid_oracle_deliveries: hybrid.stats.oracle_deliveries,
        hybrid_events: hmeta.events,
        rtt_samples,
    }
}

#[test]
fn same_seed_same_everything() {
    let a = pipeline(7);
    let b = pipeline(7);
    assert_eq!(a, b);
}

/// One profiled-or-not run of the pipeline's workload: full fidelity or
/// the hybrid (an untrained model's learned oracle, uncached, so every
/// verdict is an inference), on the sequential engine or under PDES.
fn profiled_run(hybrid: bool, pdes: bool, profile: bool) -> Outcome {
    let params = ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(5);
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 7));
    let elided = filter_touching_cluster(&flows, 0);
    let cfg = MicroNetConfig {
        input: FEATURE_DIM,
        hidden: 8,
        layers: 1,
        alpha: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(5);
    let model = ClusterModel {
        up: MicroNet::new(cfg, &mut rng),
        down: MicroNet::new(cfg, &mut rng),
        macro_cfg: MacroConfig::default(),
        codec: LatencyCodec::default(),
        meta: ModelMeta::default(),
    };
    let mut oracles = |partition: Option<usize>| -> Box<dyn ClusterOracle + Send> {
        let seed = 11 + partition.unwrap_or(0) as u64;
        let oracle = LearnedOracle::new(model.clone(), params, DropPolicy::Sample, seed);
        Box::new(oracle)
    };
    let (fidelity, flows) = match hybrid {
        true => {
            let oracles = &mut oracles;
            (
                Fidelity::Hybrid {
                    full_cluster: 0,
                    oracles,
                },
                &elided,
            )
        }
        false => (Fidelity::Full { capture: None }, &flows),
    };
    let mut plan = RunPlan::new(params, NetConfig::default(), flows, horizon, fidelity);
    if pdes {
        plan.exec = Exec::Pdes(PdesExec {
            partitions: 2,
            machines: 2,
            envelope_bytes: 64,
            mode: EpochMode::Adaptive,
            faults: None,
        });
    }
    plan.observe.profile = profile;
    execute(plan).expect("unsupervised runs of a healthy plan succeed")
}

/// The rows of `out` that are a function of the simulated outcome alone.
fn outcome_counters(out: &Outcome) -> Vec<(String, String, f64)> {
    let rows = out.metric_rows(&OracleCounters::default());
    let outcome = rows
        .into_iter()
        .filter(|m| OUTCOME_COUNTERS.contains(&m.name.as_str()));
    outcome.map(|m| (m.name, m.label, m.value)).collect()
}

/// Profiling is read-only: a run with `Observe::profile` set executes the
/// same events as one without, on either engine and at either fidelity
/// (wall clocks are read for reporting but never feed simulated time).
/// The switch is a field of the run, so the cells may run in parallel
/// with any other test.
#[test]
fn instrumentation_does_not_perturb_results() {
    for (hybrid, pdes) in [(false, false), (true, false), (false, true), (true, true)] {
        let cell = format!("hybrid={hybrid} pdes={pdes}");
        let plain = profiled_run(hybrid, pdes, false);
        let profiled = profiled_run(hybrid, pdes, true);
        assert_eq!(
            run_fingerprint(&plain.nets),
            run_fingerprint(&profiled.nets),
            "{cell}: fingerprint"
        );
        assert_eq!(plain.meta.events, profiled.meta.events, "{cell}: events");
        assert_eq!(
            outcome_counters(&plain),
            outcome_counters(&profiled),
            "{cell}: outcome counters"
        );

        // The switch took effect, and only where it was set.
        let peak = |o: &Outcome| o.meta.fel_peaks.depth;
        assert_eq!(
            peak(&plain),
            0,
            "{cell}: unprofiled runs sample no FEL peak"
        );
        assert_eq!(
            peak(&profiled) > 0,
            !pdes,
            "{cell}: the sequential kernel samples"
        );
        let inferences = |o: &Outcome| {
            let rows = o.metric_rows(&OracleCounters::default());
            let timer = rows
                .iter()
                .find(|m| m.name == "hybrid/oracle/infer_seconds");
            timer.map_or(0, |m| m.count)
        };
        assert_eq!(
            inferences(&plain),
            0,
            "{cell}: unprofiled oracles time nothing"
        );
        assert_eq!(
            inferences(&profiled) > 0,
            hybrid,
            "{cell}: the oracle times its inferences"
        );
        if hybrid {
            assert!(profiled.oracle_deliveries() > 0, "{cell}: oracle exercised");
        }
    }
}

#[test]
fn different_seed_different_simulation() {
    let a = pipeline(7);
    let b = pipeline(8);
    // The workload differs, so nearly everything downstream must too.
    assert_ne!(
        (a.flows, a.events, &a.rtt_samples),
        (b.flows, b.events, &b.rtt_samples),
        "seeds must actually matter"
    );
}
