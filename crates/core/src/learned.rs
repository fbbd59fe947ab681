//! The learned cluster oracle: macro classifier + micro LSTMs, deployed
//! behind the engine's [`ClusterOracle`] seam.
//!
//! One [`ClusterModel`] holds the trained artifacts — separate ingress and
//! egress micro models ("we train one model for packets entering the
//! approximated cluster and one for packets leaving because the
//! distribution of flows in either direction can differ significantly",
//! §4.2), the calibrated macro thresholds, and the latency codec. A
//! [`LearnedOracle`] instantiates per-cluster runtime state around it, so
//! the same weights serve all 63-of-64 approximated clusters, exactly as
//! Figure 3 sketches ("we can then reuse the trained cluster model in
//! large-scale simulations").

use elephant_des::SimTime;
pub use elephant_net::OracleStats;
use elephant_net::{
    ClosParams, ClusterOracle, Direction, OracleCtx, OracleVerdict, Packet, RawVerdict,
};
use elephant_nn::{MicroNet, MicroNetState};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, CacheStatsHandle, FeatureQuantizer, QuantizerConfig, VerdictCache};
use crate::error::ElephantError;
use crate::features::{FeatureExtractor, LatencyCodec, FEATURE_DIM};
use crate::macro_model::{MacroConfig, MacroModel, MacroState};

/// Magic string identifying a versioned elephant model artifact.
pub const MODEL_MAGIC: &str = "ELEPHANT-MODEL";
/// Model artifact format version this build writes and reads. Version 3
/// stores each micro model's trunk as a bare LSTM (`"lstm": {"cells": …}`);
/// version 2 wrapped it in an `rnn` field tagged with the trunk's kind
/// (`"rnn": {"Lstm": …}`), and version 1 held the weights row-major rather
/// than in the row panels of `elephant_nn::Matrix` — read as today's layout
/// it would serve a scrambled model that still passes the checksum.
pub const MODEL_VERSION: u32 = 3;

/// Training-time statistics embedded in the model, used at deployment to
/// derive guardrail tolerance bands (e.g. the expected drop rate for
/// [`elephant_net::GuardConfig`]).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct ModelMeta {
    /// Overall drop rate of the training capture.
    #[serde(default)]
    pub train_drop_rate: f64,
    /// Median delivered latency of the training capture, seconds.
    #[serde(default)]
    pub train_latency_p50: f64,
    /// 99th-percentile delivered latency of the training capture, seconds.
    #[serde(default)]
    pub train_latency_p99: f64,
    /// Number of boundary records the model was trained on.
    #[serde(default)]
    pub train_records: u64,
    /// Feature-quantization parameters for the verdict cache, pinned in
    /// the artifact so cache keys stay stable across save/load (absent in
    /// legacy artifacts; defaults apply).
    #[serde(default)]
    pub quantizer: QuantizerConfig,
}

/// Everything learned from one training run, serializable as JSON.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterModel {
    /// Micro model for host → core traversals (the paper's "leaving").
    pub up: MicroNet,
    /// Micro model for core → host traversals (the paper's "entering").
    pub down: MicroNet,
    /// Calibrated macro-classifier thresholds.
    pub macro_cfg: MacroConfig,
    /// Latency target codec.
    pub codec: LatencyCodec,
    /// Training-time stats for deployment guardrails (absent in legacy
    /// artifacts; defaults to zeros, which disables derived bands).
    #[serde(default)]
    pub meta: ModelMeta,
}

/// On-disk envelope for a [`ClusterModel`]: versioned, checksummed header
/// plus the model itself. [`ClusterModel::to_file_json`] writes one;
/// [`ClusterModel::load_json`] validates magic, version, checksum, weight
/// shapes and weight finiteness before handing the model out.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelFile {
    /// Must equal [`MODEL_MAGIC`].
    pub magic: String,
    /// Must equal [`MODEL_VERSION`].
    pub version: u32,
    /// FNV-1a over both micro models' weight bits, in parameter order.
    pub checksum: u64,
    /// The payload.
    pub model: ClusterModel,
}

/// The fields of a [`ModelFile`] that say how to read the rest of it.
#[derive(Deserialize)]
struct ModelHeader {
    magic: String,
    version: u32,
}

/// Refuses a header of another magic or format version.
fn check_header(magic: &str, version: u32) -> Result<(), ElephantError> {
    if magic != MODEL_MAGIC {
        return Err(ElephantError::ModelMagic {
            found: magic.to_string(),
        });
    }
    if version != MODEL_VERSION {
        return Err(ElephantError::ModelVersion {
            found: version,
            expected: MODEL_VERSION,
        });
    }
    Ok(())
}

impl ModelFile {
    /// Validates the header and payload, yielding the model.
    pub fn into_model(self) -> Result<ClusterModel, ElephantError> {
        check_header(&self.magic, self.version)?;
        let actual = self.model.weight_checksum();
        if actual != self.checksum {
            return Err(ElephantError::ModelChecksum {
                expected: self.checksum,
                actual,
            });
        }
        self.model.validate_shapes()?;
        self.model.validate_weights()?;
        Ok(self.model)
    }
}

impl ClusterModel {
    /// Serializes to the versioned, checksummed on-disk format.
    pub fn to_file_json(&self) -> String {
        let file = ModelFile {
            magic: MODEL_MAGIC.to_string(),
            version: MODEL_VERSION,
            checksum: self.weight_checksum(),
            model: self.clone(),
        };
        serde_json::to_string(&file).expect("model file serializes")
    }

    /// Loads a model from the versioned on-disk format, validating the
    /// header and the weights (shapes, then finiteness), so a model that
    /// loads can serve a verdict. All failure modes are typed; a bare model
    /// without the header is refused ([`ElephantError::ModelParse`]), since
    /// nothing in it says how its weights are laid out.
    ///
    /// The header's verdict comes first: a file of another magic or format
    /// version is refused as such ([`ElephantError::ModelVersion`]) even
    /// when its payload does not parse as this version's model. Only a
    /// file that fails to parse is read a second time, for its header, so
    /// loading a good artifact still parses it once.
    pub fn load_json(s: &str) -> Result<Self, ElephantError> {
        match serde_json::from_str::<ModelFile>(s) {
            Ok(file) => file.into_model(),
            Err(e) => {
                if let Ok(header) = serde_json::from_str::<ModelHeader>(s) {
                    check_header(&header.magic, header.version)?;
                }
                Err(ElephantError::ModelParse {
                    detail: e.to_string(),
                })
            }
        }
    }

    /// Combined checksum over both directional micro models' weights.
    pub fn weight_checksum(&self) -> u64 {
        self.up
            .weight_checksum()
            .wrapping_mul(0x0000_0100_0000_01b3)
            ^ self.down.weight_checksum()
    }

    /// Fails if either micro model's weights do not fit its architecture,
    /// or it reads another feature width than the oracle builds
    /// ([`FEATURE_DIM`]).
    fn validate_shapes(&self) -> Result<(), ElephantError> {
        for (direction, net) in [("up", &self.up), ("down", &self.down)] {
            let detail = match net.check_shapes() {
                Err(detail) => detail,
                Ok(()) if net.cfg.input != FEATURE_DIM => format!(
                    "reads {} features, the oracle builds {FEATURE_DIM}",
                    net.cfg.input
                ),
                Ok(()) => continue,
            };
            return Err(ElephantError::ModelShape {
                detail: format!("{direction} model: {detail}"),
            });
        }
        Ok(())
    }

    /// Fails if either micro model carries NaN or infinite weights.
    pub fn validate_weights(&self) -> Result<(), ElephantError> {
        let count = self.up.non_finite_params() + self.down.non_finite_params();
        if count > 0 {
            return Err(ElephantError::ModelNonFinite { count });
        }
        Ok(())
    }
}

/// How a drop probability becomes a binary decision.
#[derive(Clone, Copy, Debug)]
pub enum DropPolicy {
    /// Bernoulli sample with the predicted probability (default: keeps
    /// aggregate drop rates calibrated).
    Sample,
    /// Drop iff probability ≥ the threshold (deterministic).
    Threshold(f32),
}

#[derive(Clone)]
struct ClusterRuntime {
    macro_model: MacroModel,
    up_fx: FeatureExtractor,
    down_fx: FeatureExtractor,
    up_state: MicroNetState,
    down_state: MicroNetState,
    /// Reused per call so steady-state feature extraction allocates nothing.
    feat_buf: Vec<f32>,
    /// Verdict memo for this cluster's boundary stream (None = cache off).
    cache: Option<VerdictCache>,
}

/// Cache parameters shared by all of one oracle's per-cluster caches.
#[derive(Clone)]
struct CacheCfg {
    capacity: usize,
    quantizer: FeatureQuantizer,
    stats: CacheStatsHandle,
}

/// A [`ClusterOracle`] that serves [`ClusterModel`] predictions.
///
/// Cloning (for checkpoint/restore) deep-copies *everything that shapes
/// verdicts*: the weights, the drop-sampling RNG position, and every
/// cluster's macro regime, RNN states, feature extractors, and verdict
/// cache — so a restored run issues bit-identical verdicts to an
/// uninterrupted one. A verdict cache copies its live entries, not its
/// capacity bound, so a snapshot costs what the caches hold. The clone
/// also gets its own [`OracleStats`], so a restored run's verdict counts
/// are of the successful path only. The cache-stats handle
/// is shared with the original (the caller's handle must stay live across
/// restores), so the cache counters, unlike the verdict counts, include
/// every attempt.
#[derive(Clone)]
pub struct LearnedOracle {
    model: ClusterModel,
    params: ClosParams,
    policy: DropPolicy,
    rng: SmallRng,
    /// Indexed by cluster id; a cluster's runtime is built at its first
    /// verdict.
    clusters: Vec<Option<ClusterRuntime>>,
    stats: OracleStats,
    cache_cfg: Option<CacheCfg>,
}

impl LearnedOracle {
    /// Wraps a trained model for deployment on networks shaped by
    /// `params`. `seed` drives the (deterministic) drop sampling.
    pub fn new(model: ClusterModel, params: ClosParams, policy: DropPolicy, seed: u64) -> Self {
        LearnedOracle {
            model,
            params,
            policy,
            rng: SmallRng::seed_from_u64(seed),
            clusters: (0..params.clusters).map(|_| None).collect(),
            stats: OracleStats::default(),
            cache_cfg: None,
        }
    }

    /// Like [`Self::new`], but with per-cluster verdict memoization
    /// bounded at `cache_capacity` entries per cluster. Quantization
    /// follows the model's own [`ModelMeta::quantizer`] so cache keys are
    /// pinned to the artifact. The cache must be deployed *under* any
    /// [`elephant_net::GuardedOracle`]: hits are raw verdicts and receive
    /// the same guard validation as fresh inference.
    pub fn with_cache(
        model: ClusterModel,
        params: ClosParams,
        policy: DropPolicy,
        seed: u64,
        cache_capacity: usize,
    ) -> Self {
        let quantizer = FeatureQuantizer::new(model.meta.quantizer);
        let mut oracle = Self::new(model, params, policy, seed);
        oracle.cache_cfg = Some(CacheCfg {
            capacity: cache_capacity.max(1),
            quantizer,
            stats: CacheStatsHandle::new(),
        });
        oracle
    }

    /// Counters.
    pub fn stats(&self) -> &OracleStats {
        &self.stats
    }

    /// Point-in-time cache counters (zeros when the cache is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_cfg
            .as_ref()
            .map(|c| c.stats.snapshot())
            .unwrap_or_default()
    }

    /// A live handle onto the cache counters, valid after the oracle is
    /// boxed into the network. `None` when the cache is disabled.
    pub fn cache_stats_handle(&self) -> Option<CacheStatsHandle> {
        self.cache_cfg.as_ref().map(|c| c.stats.clone())
    }

    /// The macro state currently attributed to `cluster` (Minimal if the
    /// cluster has seen no traffic yet).
    pub fn macro_state(&self, cluster: u16) -> MacroState {
        self.clusters
            .get(cluster as usize)
            .and_then(Option::as_ref)
            .map(|c| c.macro_model.state())
            .unwrap_or(MacroState::Minimal)
    }
}

/// Fetches (or lazily creates) the runtime for `cluster`. A free function
/// so the caller keeps disjoint borrows of the model and the runtimes.
fn runtime<'a>(
    clusters: &'a mut [Option<ClusterRuntime>],
    model: &ClusterModel,
    params: &ClosParams,
    cache_cfg: Option<&CacheCfg>,
    cluster: u16,
) -> &'a mut ClusterRuntime {
    clusters[cluster as usize].get_or_insert_with(|| ClusterRuntime {
        macro_model: MacroModel::new(model.macro_cfg),
        up_fx: FeatureExtractor::new(params),
        down_fx: FeatureExtractor::new(params),
        up_state: model.up.init_state(),
        down_state: model.down.init_state(),
        feat_buf: Vec::with_capacity(crate::features::FEATURE_DIM),
        cache: cache_cfg.map(|c| VerdictCache::new(c.capacity, c.stats.clone())),
    })
}

impl ClusterOracle for LearnedOracle {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        // The unguarded path: convert the raw prediction directly. A model
        // emitting NaN or negative latency panics here — deploy behind an
        // [`elephant_net::GuardedOracle`] to degrade gracefully instead.
        match self.classify_raw(ctx, pkt, now) {
            RawVerdict::Drop => OracleVerdict::Drop,
            RawVerdict::Deliver { latency_secs } => OracleVerdict::Deliver {
                latency: elephant_des::SimDuration::from_secs_f64(latency_secs),
            },
        }
    }

    fn macro_state_of(&self, cluster: u16) -> Option<u8> {
        Some(self.macro_state(cluster).index() as u8)
    }

    fn oracle_stats(&self) -> Option<&OracleStats> {
        Some(&self.stats)
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        Some(Box::new(self.clone()))
    }

    fn classify_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        let LearnedOracle {
            model,
            params,
            policy,
            rng,
            clusters,
            stats,
            cache_cfg,
        } = self;
        stats.classified += 1;
        let rt = runtime(clusters, model, params, cache_cfg.as_ref(), ctx.cluster);
        let state = rt.macro_model.state();
        stats.per_state[state.index()] += 1;

        let (net, fx, net_state): (&MicroNet, _, _) = match ctx.direction {
            Direction::Up => (&model.up, &mut rt.up_fx, &mut rt.up_state),
            Direction::Down => (&model.down, &mut rt.down_fx, &mut rt.down_state),
        };
        fx.extract_into(
            pkt.src,
            pkt.dst,
            pkt.wire_bytes(),
            ctx.direction,
            &ctx.path,
            now,
            state,
            &mut rt.feat_buf,
        );

        // Fast path: a packet landing in an already-seen quantization
        // bucket replays the memoized verdict — no inference, no drop
        // sampling. The macro model still advances on the served verdict
        // (auto-regression must not stall), and a state transition flushes
        // the cache so the new regime is never served stale verdicts.
        let key = rt.cache.as_ref().map(|_| {
            let cfg = cache_cfg.as_ref().expect("cache implies config");
            cfg.quantizer
                .key(&rt.feat_buf, ctx.direction, state.index() as u8)
        });
        if let (Some(cache), Some(key)) = (rt.cache.as_mut(), key.as_ref()) {
            if let Some(verdict) = cache.get(key) {
                match verdict {
                    RawVerdict::Drop => {
                        stats.drops += 1;
                        rt.macro_model.observe(None, true);
                    }
                    RawVerdict::Deliver { latency_secs } => {
                        if latency_secs.is_finite() && latency_secs >= 0.0 {
                            rt.macro_model
                                .observe(Some((latency_secs * 1e9).round() / 1e9), false);
                        }
                    }
                }
                if rt.macro_model.state() != state {
                    cache.invalidate();
                }
                return verdict;
            }
        }

        let t0 = elephant_obs::enabled().then(std::time::Instant::now);
        let pred = net.predict(&rt.feat_buf, net_state);
        if let Some(t0) = t0 {
            stats.infer_seconds.record(t0.elapsed().as_secs_f64());
        }

        let drop = match *policy {
            DropPolicy::Sample => rng.gen::<f32>() < pred.drop_prob,
            DropPolicy::Threshold(t) => pred.drop_prob >= t,
        };
        let verdict = if drop {
            stats.drops += 1;
            rt.macro_model.observe(None, true);
            RawVerdict::Drop
        } else {
            let latency_secs = model.codec.decode_secs(pred.latency);
            // Auto-regression: the macro model advances on the oracle's own
            // output, since ground truth does not exist at simulation time.
            // The observed value is rounded to nanoseconds — identical to the
            // SimDuration round-trip the validated path performs — so guarded
            // and unguarded runs evolve the same macro state. A non-finite
            // prediction is skipped here; the caller decides the verdict.
            if latency_secs.is_finite() && latency_secs >= 0.0 {
                rt.macro_model
                    .observe(Some((latency_secs * 1e9).round() / 1e9), false);
            }
            RawVerdict::Deliver { latency_secs }
        };
        if let (Some(cache), Some(key)) = (rt.cache.as_mut(), key) {
            cache.insert(key, verdict);
            if rt.macro_model.state() != state {
                cache.invalidate();
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephant_des::SimDuration;
    use elephant_net::{Ecn, FlowId, HostAddr, TcpFlags, TcpSegment, Topology};
    use elephant_nn::MicroNetConfig;

    fn tiny_model() -> ClusterModel {
        let mut rng = SmallRng::seed_from_u64(1);
        let cfg = MicroNetConfig {
            input: FEATURE_DIM,
            hidden: 8,
            layers: 1,
            alpha: 0.5,
        };
        ClusterModel {
            up: MicroNet::new(cfg, &mut rng),
            down: MicroNet::new(cfg, &mut rng),
            macro_cfg: MacroConfig::default(),
            codec: LatencyCodec::default(),
            meta: ModelMeta::default(),
        }
    }

    fn pkt(src: HostAddr, dst: HostAddr) -> Packet {
        Packet {
            id: 1,
            flow: FlowId(7),
            src,
            dst,
            seg: TcpSegment {
                seq: 0,
                ack: 0,
                flags: TcpFlags::default(),
                payload_len: 1460,
                ece: false,
                cwr: false,
            },
            ecn: Ecn::NotCapable,
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn verdicts_are_physical_and_counted() {
        let params = ClosParams::paper_cluster(4);
        let topo = Topology::clos_with_stubs(params, &[1, 2, 3]);
        let mut oracle = LearnedOracle::new(tiny_model(), params, DropPolicy::Sample, 9);
        let src = HostAddr::new(1, 0, 0);
        let dst = HostAddr::new(0, 0, 0);
        let path = topo.fabric_path(src, dst, FlowId(7));
        let p = pkt(src, dst);
        let mut delivered = 0;
        for i in 0..200 {
            let ctx = OracleCtx {
                topo: &topo,
                cluster: 1,
                direction: Direction::Up,
                path,
            };
            match oracle.classify(&ctx, &p, SimTime::from_micros(i * 10)) {
                OracleVerdict::Deliver { latency } => {
                    delivered += 1;
                    assert!(latency >= SimDuration::from_secs_f64(1e-6));
                    assert!(latency <= SimDuration::from_secs(1));
                }
                OracleVerdict::Drop => {}
            }
        }
        assert_eq!(oracle.stats().classified, 200);
        assert_eq!(
            oracle.stats().drops + delivered,
            200,
            "every verdict is a drop or a delivery"
        );
        assert_eq!(oracle.stats().per_state.iter().sum::<u64>(), 200);
    }

    #[test]
    fn threshold_policy_is_deterministic() {
        let params = ClosParams::paper_cluster(2);
        let topo = Topology::clos_with_stubs(params, &[1]);
        let run = || {
            let mut oracle =
                LearnedOracle::new(tiny_model(), params, DropPolicy::Threshold(0.5), 1);
            let src = HostAddr::new(1, 0, 0);
            let dst = HostAddr::new(0, 0, 0);
            let path = topo.fabric_path(src, dst, FlowId(7));
            let p = pkt(src, dst);
            (0..50)
                .map(|i| {
                    let ctx = OracleCtx {
                        topo: &topo,
                        cluster: 1,
                        direction: Direction::Up,
                        path,
                    };
                    match oracle.classify(&ctx, &p, SimTime::from_micros(i * 5)) {
                        OracleVerdict::Drop => -1.0,
                        OracleVerdict::Deliver { latency } => latency.as_secs_f64(),
                    }
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_cluster_state_is_independent() {
        let params = ClosParams::paper_cluster(4);
        let topo = Topology::clos_with_stubs(params, &[1, 2, 3]);
        let mut oracle = LearnedOracle::new(tiny_model(), params, DropPolicy::Threshold(1.1), 2);
        let src = HostAddr::new(1, 0, 0);
        let dst = HostAddr::new(0, 0, 0);
        let path = topo.fabric_path(src, dst, FlowId(7));
        let p = pkt(src, dst);
        // Hammer cluster 1 only; cluster 2's state must stay fresh.
        for i in 0..100 {
            let ctx = OracleCtx {
                topo: &topo,
                cluster: 1,
                direction: Direction::Up,
                path,
            };
            oracle.classify(&ctx, &p, SimTime::from_micros(i));
        }
        assert_eq!(oracle.macro_state(2), MacroState::Minimal);
        let built = oracle.clusters.iter().flatten().count();
        assert_eq!(built, 1, "cluster 2 never materialized");
    }

    #[test]
    fn model_json_round_trip() {
        let m = tiny_model();
        let back = ClusterModel::load_json(&m.to_file_json()).unwrap();
        let x = vec![0.1f32; FEATURE_DIM];
        let a = m.up.predict(&x, &mut m.up.init_state());
        let b = back.up.predict(&x, &mut back.up.init_state());
        assert_eq!(a.drop_prob, b.drop_prob);
        assert_eq!(a.latency, b.latency);
    }

    /// The weights a fresh served-size model starts from, bit for bit: pins
    /// the initialisation draw order and the parameter order across commits.
    #[test]
    fn fresh_compact_model_weights_are_pinned() {
        let cfg = MicroNetConfig::compact(FEATURE_DIM);
        let m = MicroNet::new(cfg, &mut SmallRng::seed_from_u64(0xE1E));
        assert_eq!(m.weight_checksum(), 1_026_617_590_211_359_552);
    }

    #[test]
    fn versioned_file_round_trips_and_validates() {
        let m = tiny_model();
        let json = m.to_file_json();
        let back = ClusterModel::load_json(&json).expect("valid file loads");
        assert_eq!(back.weight_checksum(), m.weight_checksum());
        // A bare model carries no version, so its weight layout is
        // unknowable: refused, with a typed error naming the header.
        let bare = serde_json::to_string(&m).unwrap();
        let err = ClusterModel::load_json(&bare).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelParse { detail } if detail.contains("magic")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    /// A micro model as format version 2 wrote it: the trunk tagged with
    /// its kind inside an `rnn` field, here the gated recurrent unit that
    /// version could also build (1 input, 1 hidden unit, 1 layer).
    const V2_MICRO_NET: &str = r#"{"cfg":{"input":1,"hidden":1,"layers":1,"alpha":0.5,"rnn":"Gru"},
        "rnn":{"Gru":{"cells":[{"w_zr":{"rows":2,"cols":2,"data":[0.1,0.2,0.3,0.4]},"b_zr":[0.0,0.0],
            "w_n":{"rows":1,"cols":2,"data":[0.5,0.6]},"b_n":[0.0],"input":1,"hidden":1}]}},
        "latency_head":{"w":{"rows":1,"cols":1,"data":[0.3]},"b":[0.0]},
        "drop_head":{"w":{"rows":1,"cols":1,"data":[-0.3]},"b":[0.0]}}"#;

    #[test]
    fn older_format_versions_are_refused() {
        // Version 1: today's shape, row-major weights. It parses and passes
        // its own checksum, so only the version stands between it and
        // serving.
        let m = tiny_model();
        let v1 = serde_json::to_string(&ModelFile {
            magic: MODEL_MAGIC.to_string(),
            version: 1,
            checksum: m.weight_checksum(),
            model: m,
        })
        .unwrap();
        // Version 2: its payload does not parse as today's model, so only a
        // header read before the payload names the version.
        let v2 = format!(
            r#"{{"magic":"ELEPHANT-MODEL","version":2,"checksum":1,"model":{{
                "up":{V2_MICRO_NET},"down":{V2_MICRO_NET},
                "macro_cfg":{{"latency_low":5e-5,"drop_high":0.02,"fast_alpha":0.3,
                    "slow_alpha":0.02,"drop_window":64}},
                "codec":{{"lo":1e-6,"hi":1.0}},"meta":{{}}}}}}"#
        );
        let payload = serde_json::from_str::<ModelFile>(&v2).unwrap_err();
        assert!(payload.to_string().contains("`lstm`"), "{payload}");
        for (version, json) in [(1, v1), (2, v2)] {
            let err = ClusterModel::load_json(&json).unwrap_err();
            assert!(
                matches!(err, ElephantError::ModelVersion { found, expected: 3 } if found == version),
                "v{version}: {err}"
            );
            assert_eq!(err.exit_code(), 4);
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let m = tiny_model();
        let file = ModelFile {
            magic: "NOT-A-MODEL".to_string(),
            version: MODEL_VERSION,
            checksum: m.weight_checksum(),
            model: m.clone(),
        };
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(matches!(err, ElephantError::ModelMagic { .. }), "{err}");

        let file = ModelFile {
            magic: MODEL_MAGIC.to_string(),
            version: MODEL_VERSION + 7,
            checksum: m.weight_checksum(),
            model: m,
        };
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelVersion { found, .. } if found == MODEL_VERSION + 7)
        );
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let m = tiny_model();
        let file = ModelFile {
            magic: MODEL_MAGIC.to_string(),
            version: MODEL_VERSION,
            checksum: m.weight_checksum() ^ 1,
            model: m,
        };
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(matches!(err, ElephantError::ModelChecksum { .. }), "{err}");
    }

    #[test]
    fn nan_weights_refuse_to_load() {
        let mut m = tiny_model();
        m.up.param_slices()[0][0] = f32::NAN;
        // At the envelope layer (checksum covers the NaN bits, so it
        // matches) the finiteness validator is what rejects the model.
        let file = ModelFile {
            magic: MODEL_MAGIC.to_string(),
            version: MODEL_VERSION,
            checksum: m.weight_checksum(),
            model: m.clone(),
        };
        let err = file.into_model().unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelNonFinite { count } if count == 1),
            "{err}"
        );
        // Through JSON the NaN serializes as `null` and parses back as
        // NaN (the writer/reader are symmetric about non-finite floats),
        // so the same finiteness validator is what refuses the artifact.
        let err = ClusterModel::load_json(&m.to_file_json()).unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelNonFinite { count } if count == 1),
            "{err}"
        );
    }

    /// Re-seals an edited artifact the way anyone can: recompute the
    /// checksum with the public `weight_checksum()`.
    fn resealed(json: &str) -> String {
        let mut file: ModelFile = serde_json::from_str(json).expect("edited file still parses");
        file.checksum = file.model.weight_checksum();
        serde_json::to_string(&file).unwrap()
    }

    /// One value deleted from the first weight array, checksum recomputed:
    /// the file parses and passes its checksum, and used to load and then
    /// panic at the first verdict (a 703-value slice read as 32 × 22).
    #[test]
    fn a_weight_array_short_of_its_shape_is_refused() {
        let json = tiny_model().to_file_json();
        let at = json.find("\"data\":[").expect("a weight array") + "\"data\":[".len();
        let comma = at + json[at..].find(',').expect("more than one weight");
        let edited = resealed(&format!("{}{}", &json[..at], &json[comma + 1..]));
        let err = ClusterModel::load_json(&edited).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail }
                if detail.contains("up model: layer 0 gates: 703 weights")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    /// Layers that do not chain: the second layer of a 2-layer trunk reads
    /// five inputs where the layer below produces eight.
    #[test]
    fn a_layer_of_the_wrong_width_is_refused() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cfg = MicroNetConfig {
            layers: 2,
            ..tiny_model().up.cfg
        };
        let mut m = tiny_model();
        m.down = MicroNet::new(cfg, &mut rng);
        assert!(ClusterModel::load_json(&m.to_file_json()).is_ok());
        m.down.lstm.cells[1] = elephant_nn::LstmCell::new(5, 8, &mut rng);
        let err = ClusterModel::load_json(&m.to_file_json()).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail }
                if detail.contains("down model: layer 1 maps 5 → 8 units")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    /// A model for another feature vector would trip the first step's
    /// width assertion.
    #[test]
    fn a_model_for_another_feature_width_is_refused() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut m = tiny_model();
        let cfg = MicroNetConfig {
            input: FEATURE_DIM + 1,
            ..m.up.cfg
        };
        m.up = MicroNet::new(cfg, &mut rng);
        let err = ClusterModel::load_json(&m.to_file_json()).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail } if detail.contains("features")),
            "{err}"
        );
    }

    #[test]
    fn truncated_json_is_a_parse_error() {
        let m = tiny_model();
        let json = m.to_file_json();
        let err = ClusterModel::load_json(&json[..json.len() / 2]).unwrap_err();
        assert!(matches!(err, ElephantError::ModelParse { .. }), "{err}");
    }
}
