//! Robustness: corrupted model artifacts fail loudly with typed errors,
//! a misbehaving oracle behind the guardrail degrades gracefully instead
//! of panicking, an untripped guard costs nothing — the guarded run is
//! bit-identical to the unguarded one — and crash-safe runs hold their
//! determinism contract: a checkpoint-restored run is bit-identical to an
//! uninterrupted one, and the supervised retry ladder walks a scripted
//! stall down to the healthy fingerprint.

use elephant::core::{
    run_ground_truth, run_hybrid, train_cluster_model, ClusterModel, DropPolicy, ElephantError,
    LatencyCodec, LearnedOracle, MacroConfig, ModelFile, ModelMeta, TrainingOptions, MODEL_VERSION,
};
use elephant::des::SmallRng;
use elephant::des::{SimDuration, SimTime};
use elephant::net::{
    BoundaryRecord, ClosParams, ClusterOracle, FaultyOracle, FixedLatencyOracle, GuardConfig,
    GuardedOracle, NetConfig, OracleFaultMode, RttScope,
};
use elephant::nn::{MicroNet, MicroNetConfig};
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(12);

/// A structurally valid but untrained model, cheap enough to corrupt in
/// every which way.
fn tiny_model() -> ClusterModel {
    let cfg = MicroNetConfig {
        input: elephant::core::FEATURE_DIM,
        hidden: 4,
        layers: 1,
        alpha: 0.5,
    };
    ClusterModel {
        up: MicroNet::new(cfg, &mut SmallRng::seed_from_u64(11)),
        down: MicroNet::new(cfg, &mut SmallRng::seed_from_u64(22)),
        macro_cfg: MacroConfig::default(),
        codec: LatencyCodec::default(),
        meta: ModelMeta::default(),
    }
}

/// Re-seals an edited file the way anyone can: take the checksum the
/// reader computed over the payload.
fn resealed(mut file: ModelFile) -> String {
    if let Err(ElephantError::ModelChecksum { actual, .. }) = file.clone().into_model() {
        file.checksum = actual;
    }
    serde_json::to_string(&file).unwrap()
}

#[test]
fn corrupted_model_artifacts_fail_with_typed_errors() {
    let m = tiny_model();
    let load = |file: &ModelFile| ClusterModel::load_json(&serde_json::to_string(file).unwrap());

    // Healthy round trip.
    let ok = ClusterModel::load_json(&m.to_file_json()).expect("clean artifact loads");
    assert_eq!(ok.weight_checksum(), m.weight_checksum());

    // Wrong magic: not our file at all.
    let mut file = m.to_file();
    file.magic = "PACHYDERM".into();
    let err = load(&file).unwrap_err();
    assert!(matches!(err, ElephantError::ModelMagic { .. }), "{err}");
    assert_eq!(err.exit_code(), 4);

    // Future format version.
    let mut file = m.to_file();
    file.version = MODEL_VERSION + 1;
    let err = load(&file).unwrap_err();
    assert!(
        matches!(err, ElephantError::ModelVersion { found, expected }
            if found == MODEL_VERSION + 1 && expected == MODEL_VERSION),
        "{err}"
    );

    // Flipped weight bits: checksum catches what still parses.
    let mut bits = m.clone();
    bits.up.param_slices()[0][0] += 1.0;
    let file = ModelFile {
        checksum: m.weight_checksum(), // header from the *uncorrupted* weights
        ..bits.to_file()
    };
    let err = load(&file).unwrap_err();
    assert!(matches!(err, ElephantError::ModelChecksum { .. }), "{err}");

    // NaN weights: rejected by the finiteness validator even when the
    // checksum (computed over the NaN bits) matches — a quiet NaN's
    // little-endian bytes written over the first weight, then re-sealed.
    let mut poisoned = m.to_file();
    poisoned.weights.replace_range(0..8, "0000c07f");
    let err = ClusterModel::load_json(&resealed(poisoned)).unwrap_err();
    assert!(
        matches!(err, ElephantError::ModelNonFinite { count } if count == 1),
        "{err}"
    );

    // A payload one weight short of what the configs need: refused before
    // any weight is read.
    let mut short = m.to_file();
    short.weights.truncate(short.weights.len() - 8);
    let err = ClusterModel::load_json(&resealed(short)).unwrap_err();
    assert!(matches!(err, ElephantError::ModelShape { .. }), "{err}");

    // A payload byte that is not a hex digit.
    let mut garbled = m.to_file();
    garbled.weights.replace_range(16..17, "x");
    let err = load(&garbled).unwrap_err();
    assert!(matches!(err, ElephantError::ModelParse { .. }), "{err}");

    // A version 3 artifact (weights as JSON decimals in a model tree) is
    // refused by its version, not read by a second reader.
    let v3 = r#"{"magic":"ELEPHANT-MODEL","version":3,"checksum":1,"model":{}}"#;
    let err = ClusterModel::load_json(v3).unwrap_err();
    assert!(
        matches!(
            err,
            ElephantError::ModelVersion {
                found: 3,
                expected: 4
            }
        ),
        "{err}"
    );
    assert_eq!(err.exit_code(), 4);

    // Truncated file: a parse error, not a panic.
    let json = m.to_file_json();
    let err = ClusterModel::load_json(&json[..json.len() / 3]).unwrap_err();
    assert!(matches!(err, ElephantError::ModelParse { .. }), "{err}");
}

fn hybrid_cfg() -> NetConfig {
    NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    }
}

/// A NaN-spewing oracle behind the guard: the run completes, reports the
/// trips, and ends in permanent fallback — where the same oracle unguarded
/// would panic inside `SimDuration::from_secs_f64`.
#[test]
fn guarded_nan_oracle_completes_the_run() {
    let params = ClosParams::paper_cluster(2);
    let flows = filter_touching_cluster(
        &generate(&params, &WorkloadConfig::paper_default(HORIZON, 5)),
        0,
    );
    let guarded = GuardedOracle::new(
        Box::new(FaultyOracle::new(
            OracleFaultMode::Nan,
            3,
            SimDuration::from_micros(5),
        )),
        Box::new(FixedLatencyOracle(SimDuration::from_micros(40))),
        GuardConfig {
            trip_limit: 16,
            ..Default::default()
        },
    );
    let handle = guarded.stats_handle();
    let (net, meta) = run_hybrid(params, 0, Box::new(guarded), hybrid_cfg(), &flows, HORIZON);

    assert!(meta.events > 0);
    assert!(net.stats.oracle_deliveries > 0, "oracle was exercised");
    let snap = handle.snapshot();
    assert!(snap.trips() >= 16, "trips {}", snap.trips());
    assert!(snap.fallback_active, "trip limit reached");
    assert!(snap.fallback_verdicts > 0);
    assert_eq!(snap.negative + snap.ceiling + snap.drop_drift, 0);
}

/// The raw seam forwards the *real* call: when the guard falls back, the
/// fallback oracle must see the caller's ctx/pkt/now, not placeholders — a
/// ctx-sensitive fallback like [`IdealOracle`] would otherwise silently
/// compute latencies for the wrong packet.
#[test]
fn guard_raw_seam_forwards_ctx_to_fallback() {
    use elephant::net::{
        Direction, Ecn, FlowId, HostAddr, IdealOracle, OracleCtx, Packet, RawVerdict, TcpFlags,
        TcpSegment, Topology,
    };

    let params = ClosParams::paper_cluster(2);
    let topo = Topology::clos_with_stubs(params, &[1]);
    // Every primary verdict is NaN, so every call trips to the fallback.
    let mut guard = GuardedOracle::new(
        Box::new(FaultyOracle::new(
            OracleFaultMode::Nan,
            1,
            SimDuration::from_micros(5),
        )),
        Box::new(IdealOracle),
        GuardConfig::default(),
    );

    let mut pkt_at = |size: u32, dir: Direction, t: SimTime| {
        let (src, dst) = (HostAddr::new(1, 0, 0), HostAddr::new(0, 0, 0));
        let path = topo.fabric_path(src, dst, FlowId(9));
        let pkt = Packet {
            id: 1,
            flow: FlowId(9),
            src,
            dst,
            seg: TcpSegment {
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                payload_len: size,
                ece: false,
                cwr: false,
            },
            ecn: Ecn::NotCapable,
            sent_at: t,
        };
        let ctx = OracleCtx {
            topo: &topo,
            cluster: 1,
            direction: dir,
            path,
            profile: false,
        };
        let got = guard.classify_raw(&ctx, &pkt, t);
        let want = IdealOracle::base_latency(&ctx, &pkt).as_secs_f64();
        (got, want)
    };

    // Two packets whose ideal latencies differ in both operands the
    // fallback reads: payload size (pkt) and direction (ctx).
    for (size, dir) in [(64u32, Direction::Up), (1460, Direction::Down)] {
        let (got, want) = pkt_at(size, dir, SimTime::from_micros(10));
        match got {
            RawVerdict::Deliver { latency_secs } => assert_eq!(
                latency_secs, want,
                "fallback must compute from the forwarded ctx/pkt ({size}B {dir:?})"
            ),
            RawVerdict::Drop => panic!("ideal fallback never drops"),
        }
    }
}

#[derive(PartialEq, Debug)]
struct HybridFingerprint {
    completed: u64,
    delivered: u64,
    drops: u64,
    oracle_deliveries: u64,
    events: u64,
    rtt_samples: Vec<u64>,
}

fn run_once(
    params: ClosParams,
    oracle: Box<dyn ClusterOracle + Send>,
    flows: &[elephant::net::FlowSpec],
) -> HybridFingerprint {
    let (net, meta) = run_hybrid(params, 0, oracle, hybrid_cfg(), flows, HORIZON);
    HybridFingerprint {
        completed: net.stats.flows_completed,
        delivered: net.stats.delivered_bytes,
        drops: net.stats.drops.total(),
        oracle_deliveries: net.stats.oracle_deliveries,
        events: meta.events,
        rtt_samples: net
            .stats
            .raw_rtt()
            .iter()
            .take(500)
            .map(|&s| (s * 1e12) as u64)
            .collect(),
    }
}

/// The guard's determinism contract: while it never trips, wrapping the
/// learned oracle changes *nothing* — same flows completed, same events,
/// same RTT samples to the picosecond.
#[test]
fn untripped_guard_preserves_the_fingerprint() {
    // Train a real (tiny) model so the oracle under test is the deployed
    // learned one, not a toy.
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, 9));
    let (net, _) = run_ground_truth(params, hybrid_cfg(), Some(1), &flows, HORIZON);
    let records: Vec<BoundaryRecord> = elephant::core::capture_records(net).expect("capture");
    let (model, _) = train_cluster_model(
        &records,
        &params,
        &TrainingOptions {
            hidden: 8,
            layers: 1,
            epochs: 2,
            ..Default::default()
        },
    );

    let elided = filter_touching_cluster(&flows, 0);
    let learned = |m: ClusterModel| LearnedOracle::new(m, params, DropPolicy::Sample, 0xFACE);

    let bare = run_once(params, Box::new(learned(model.clone())), &elided);

    // Ceiling high enough that nothing trips; drift band centered on the
    // model's own training stats, as the CLI derives it.
    let guarded = GuardedOracle::new(
        Box::new(learned(model.clone())),
        Box::new(FixedLatencyOracle(SimDuration::from_micros(40))),
        GuardConfig {
            expected_drop_rate: Some(model.meta.train_drop_rate),
            drop_rate_tolerance: 1.0, // never trips
            ..Default::default()
        },
    );
    let handle = guarded.stats_handle();
    let wrapped = run_once(params, Box::new(guarded), &elided);

    assert_eq!(handle.snapshot().trips(), 0, "guard must not have tripped");
    assert!(handle.snapshot().verdicts > 0, "guard actually in the path");
    assert_eq!(bare, wrapped, "untripped guard must be invisible");
}

/// A resumed sequential run is bit-identical to an uninterrupted one:
/// checkpoint mid-run, finish, rewind to the checkpoint, finish again —
/// all three timelines end on the same fingerprint.
#[test]
fn sequential_checkpoint_resume_is_bit_identical() {
    use elephant::des::Simulator;
    use elephant::net::{schedule_flows, Network, Topology};
    use elephant::scenario::run_fingerprint;
    use std::sync::Arc;

    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, 21));
    let cfg = NetConfig {
        rtt_scope: RttScope::All,
        ..Default::default()
    };
    let mk = || {
        let mut sim = Simulator::new(Network::new(Arc::new(Topology::clos(params)), cfg));
        schedule_flows(&mut sim, &flows);
        sim
    };

    let mut uninterrupted = mk();
    uninterrupted.run_until(HORIZON);
    let want = run_fingerprint([&uninterrupted.into_world()]);

    let mut sim = mk();
    sim.run_until(SimTime::from_millis(5));
    let snap = sim.checkpoint();
    sim.run_until(HORIZON);
    assert_eq!(
        run_fingerprint([sim.world()]),
        want,
        "taking a checkpoint must not perturb the run"
    );

    // "Crash" after the checkpoint: rewind and replay the second half.
    sim.restore(&snap);
    sim.run_until(HORIZON);
    assert_eq!(
        run_fingerprint([sim.world()]),
        want,
        "a restored run must finish bit-identical to the uninterrupted one"
    );
}

/// Satellite of the same contract for the PDES driver, end to end through
/// the scenario layer: the committed recovery drill's scripted stall trips
/// the watchdog, the supervisor restores, re-stalls drain the retry
/// budget, and the ladder degrades (adaptive → fixed → sequential) — yet
/// the run completes with the healthy run's exact fingerprint, because
/// checkpoints capture everything the dynamics depend on.
#[test]
fn scripted_stall_recovers_to_the_healthy_fingerprint() {
    use elephant::core::Observe;
    use elephant::des::EpochMode;
    use elephant::scenario::{compile, load, run_fingerprint, CompileOverrides};

    let scenario = load("scenarios/recovery_drill.toml").expect("drill scenario loads");
    let compiled = compile(&scenario, &CompileOverrides::default());
    let policy = compiled
        .recovery
        .expect("[recovery] is enabled in the drill");

    // Healthy baseline: the stall re-arms after every restore, so the
    // ladder provably lands on the sequential rung — the healthy run to
    // match is the sequential driver's (PDES partitioning/marshalling has
    // its own dynamics, so cross-driver fingerprints are not comparable).
    let (healthy, _) = compiled.run_sequential(None);
    let want = run_fingerprint([&healthy]);

    let supervised = || {
        let exec = compiled.pdes(None, EpochMode::Adaptive);
        compiled.run(None, exec, Some(&policy), Observe::default())
    };
    let run = supervised().expect("supervised run must survive the scripted stall");
    let log = run.recovery.as_ref().expect("supervised runs carry a log");
    assert!(
        log.restores >= 2,
        "watchdog restores expected, log: {}",
        log.summary()
    );
    assert_eq!(
        log.degradations,
        2,
        "stall re-arms until the ladder reaches sequential, log: {}",
        log.summary()
    );
    assert_eq!(
        run_fingerprint(run.nets.iter()),
        want,
        "recovered run must match the healthy fingerprint"
    );

    // Ladder determinism, end to end: an identical failure sequence
    // produces the identical transition log.
    let again = supervised().expect("supervised run is repeatable");
    assert_eq!(
        run.recovery, again.recovery,
        "recovery transitions must be deterministic"
    );
}

/// With no faults, supervision is invisible: the supervised PDES run takes
/// its checkpoints and still lands on the unsupervised fingerprint.
#[test]
fn supervised_pdes_without_faults_matches_unsupervised_fingerprint() {
    use elephant::core::Observe;
    use elephant::des::EpochMode;
    use elephant::scenario::{compile, load, run_fingerprint, CompileOverrides};

    let scenario = load("scenarios/recovery_drill.toml").expect("drill scenario loads");
    let mut compiled = compile(&scenario, &CompileOverrides::default());
    compiled.faults = None;
    let policy = compiled
        .recovery
        .expect("[recovery] is enabled in the drill");

    let clean = compiled
        .run_pdes(None, EpochMode::Adaptive, None)
        .expect("unsupervised run completes");
    let exec = compiled.pdes(None, EpochMode::Adaptive);
    let run = compiled
        .run(None, exec, Some(&policy), Observe::default())
        .expect("supervised run completes");

    let log = run.recovery.as_ref().expect("supervised runs carry a log");
    assert_eq!(log.restores, 0, "no faults, no restores");
    assert_eq!(log.degradations, 0, "no faults, no degradations");
    assert!(log.checkpoints_taken >= 2, "checkpoints were taken");
    assert_eq!(
        run_fingerprint(run.nets.iter()),
        run_fingerprint(clean.nets.iter()),
        "checkpointing must not perturb the dynamics"
    );
}
