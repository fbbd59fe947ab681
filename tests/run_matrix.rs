//! The run matrix as one table: {full, hybrid} × {sequential, PDES} ×
//! {unsupervised, supervised} × {unobserved, samples + trace + timeline +
//! profile} on one two-cluster scenario. Within each (fidelity, engine) pair all four
//! supervision × observation cells must land on the same fingerprint and
//! event count: checkpointing and observing are invisible on every
//! engine, because every cell is the same `execute` over the same world.
//! The two observed cells also take the same samples: checkpoints (here
//! off the sampling grid) neither add nor shift a tick.

use elephant::core::{
    oracle_stack, ClusterModel, Exec, LatencyCodec, MacroConfig, ModelMeta, Observe, OracleFactory,
    RecoveryPolicy,
};
use elephant::des::SmallRng;
use elephant::des::{EpochMode, SimDuration};
use elephant::net::{GuardConfig, RttScope, TraceLog};
use elephant::nn::{MicroNet, MicroNetConfig};
use elephant::scenario::{compile, load, run_fingerprint, CompileOverrides};

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
