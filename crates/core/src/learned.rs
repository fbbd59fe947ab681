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

use elephant_des::{SimTime, SmallRng};
pub use elephant_net::OracleStats;
use elephant_net::{
    ClosParams, ClusterOracle, Direction, OracleCtx, OracleVerdict, Packet, RawVerdict,
};
use elephant_nn::{MicroNet, MicroNetConfig, MicroNetState};
use serde::{Deserialize, Serialize};

use crate::cache::{CacheStats, CacheStatsHandle, FeatureQuantizer, QuantizerConfig, VerdictCache};
use crate::error::ElephantError;
use crate::features::{FeatureExtractor, LatencyCodec, FEATURE_DIM};
use crate::macro_model::{MacroConfig, MacroModel, MacroState};

/// Magic string identifying a versioned elephant model artifact.
pub const MODEL_MAGIC: &str = "ELEPHANT-MODEL";
/// Model artifact format version this build writes and reads. Version 4
/// carries every weight in one `"weights"` string, the lowercase hex of its
/// little-endian `f32` bytes, beside a header of configs; versions 1–3
/// wrote each weight as a JSON decimal inside a serialized model tree.
/// Version 3 stored each micro model's trunk as a bare LSTM (`"lstm":
/// {"cells": …}`); version 2 wrapped it in an `rnn` field tagged with the
/// trunk's kind (`"rnn": {"Lstm": …}`), and version 1 held the weights
/// row-major rather than in the row panels of `elephant_nn::Matrix` — read
/// as today's layout it would serve a scrambled model that still passes
/// the checksum.
pub const MODEL_VERSION: u32 = 4;

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

/// Everything learned from one training run, saved and loaded as a
/// [`ModelFile`].
#[derive(Clone, Debug)]
pub struct ClusterModel {
    /// Micro model for host → core traversals (the paper's "leaving").
    pub up: MicroNet,
    /// Micro model for core → host traversals (the paper's "entering").
    pub down: MicroNet,
    /// Calibrated macro-classifier thresholds.
    pub macro_cfg: MacroConfig,
    /// Latency target codec.
    pub codec: LatencyCodec,
    /// Training-time stats for deployment guardrails (zeros disable the
    /// derived bands).
    pub meta: ModelMeta,
}

/// The on-disk form of a [`ClusterModel`], format version 4: a JSON header
/// (magic, version, checksum, both micro models' architectures and the
/// small calibrated parts) and one hex string holding every weight.
/// [`ClusterModel::to_file_json`] writes one; [`ClusterModel::load_json`]
/// validates magic, version, configs, payload length, checksum and weight
/// finiteness before handing the model out.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelFile {
    /// Must equal [`MODEL_MAGIC`].
    pub magic: String,
    /// Must equal [`MODEL_VERSION`].
    pub version: u32,
    /// [`ClusterModel::weight_checksum`] of the weights in the payload.
    pub checksum: u64,
    /// Architecture of the up micro model.
    pub up: MicroNetConfig,
    /// Architecture of the down micro model.
    pub down: MicroNetConfig,
    /// Calibrated macro-classifier thresholds.
    pub macro_cfg: MacroConfig,
    /// Latency target codec.
    pub codec: LatencyCodec,
    /// Training-time stats.
    pub meta: ModelMeta,
    /// Every parameter as little-endian `f32` bytes in lowercase hex, eight
    /// digits a weight: the up model, then the down model, each in
    /// [`MicroNet::param_views`] order (`Matrix` panel order).
    pub weights: String,
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

/// Lowercase hex digits by value.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The value of each byte as a lowercase hex digit, `0xff` for a byte that
/// is not one.
const HEX_VALUES: [u8; 256] = {
    let mut values = [0xff; 256];
    let mut v = 0;
    while v < 16 {
        values[HEX_DIGITS[v] as usize] = v as u8;
        v += 1;
    }
    values
};

/// Whether the payload may hold `b`: a lowercase hex digit.
fn is_hex_digit(b: u8) -> bool {
    HEX_VALUES[b as usize] != 0xff
}

/// The weight spelled by eight hex digits (four little-endian bytes, high
/// nibble first), or `None` if one of them is not a lowercase hex digit.
fn weight_from_hex(digits: &[u8]) -> Option<f32> {
    let mut bytes = [0u8; 4];
    for (byte, pair) in bytes.iter_mut().zip(digits.chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUES[pair[0] as usize], HEX_VALUES[pair[1] as usize]);
        if (hi | lo) > 0xf {
            return None;
        }
        *byte = hi << 4 | lo;
    }
    Some(f32::from_le_bytes(bytes))
}

impl ModelFile {
    /// Validates the header and payload, yielding the model. The configs
    /// are checked first and fix the payload's length, so a file is refused
    /// before anything is allocated for weights it does not hold; the
    /// weights then decode straight into zeroed nets.
    pub fn into_model(self) -> Result<ClusterModel, ElephantError> {
        check_header(&self.magic, self.version)?;
        self.check_configs()?;
        let hex = self.weights.as_bytes();
        let need = self
            .up
            .param_count()
            .zip(self.down.param_count())
            .and_then(|(up, down)| up.checked_add(down)?.checked_mul(8));
        if need != Some(hex.len()) {
            let need = need.map_or("more than fit in memory".to_string(), |n| n.to_string());
            return Err(ElephantError::ModelShape {
                detail: format!(
                    "the weight payload holds {} hex digits, the configs need {need}",
                    hex.len()
                ),
            });
        }
        let mut model = ClusterModel {
            up: MicroNet::zeros(self.up),
            down: MicroNet::zeros(self.down),
            macro_cfg: self.macro_cfg,
            codec: self.codec,
            meta: self.meta,
        };
        let mut digits = hex.chunks_exact(8);
        for net in [&mut model.up, &mut model.down] {
            for (w, chunk) in net.param_slices().into_iter().flatten().zip(&mut digits) {
                *w = weight_from_hex(chunk).ok_or_else(|| {
                    let at = hex.iter().position(|&b| !is_hex_digit(b));
                    ElephantError::ModelParse {
                        detail: format!(
                            "the weight payload holds a byte that is not a lowercase hex \
                             digit at offset {}",
                            at.unwrap_or_default()
                        ),
                    }
                })?;
            }
        }
        let actual = model.weight_checksum();
        if actual != self.checksum {
            return Err(ElephantError::ModelChecksum {
                expected: self.checksum,
                actual,
            });
        }
        model.validate_weights()?;
        Ok(model)
    }

    /// Fails if either micro model's config declares no layers or no hidden
    /// units, or reads another feature width than the oracle builds
    /// ([`FEATURE_DIM`]). Every layer then holds weights, so the payload's
    /// length bounds the layer count and the work of shaping the nets.
    fn check_configs(&self) -> Result<(), ElephantError> {
        for (direction, cfg) in [("up", &self.up), ("down", &self.down)] {
            let detail = if cfg.layers == 0 {
                "the config declares 0 layers".to_string()
            } else if cfg.hidden == 0 {
                "the config declares 0 hidden units".to_string()
            } else if cfg.input != FEATURE_DIM {
                format!(
                    "reads {} features, the oracle builds {FEATURE_DIM}",
                    cfg.input
                )
            } else {
                continue;
            };
            return Err(ElephantError::ModelShape {
                detail: format!("{direction} model: {detail}"),
            });
        }
        Ok(())
    }
}

impl ClusterModel {
    /// The on-disk form of this model, sealed with its weight checksum.
    pub fn to_file(&self) -> ModelFile {
        let mut hex = Vec::new();
        for net in [&self.up, &self.down] {
            for w in net.param_views().into_iter().flatten() {
                for byte in w.to_le_bytes() {
                    hex.extend([
                        HEX_DIGITS[(byte >> 4) as usize],
                        HEX_DIGITS[(byte & 0xf) as usize],
                    ]);
                }
            }
        }
        ModelFile {
            magic: MODEL_MAGIC.to_string(),
            version: MODEL_VERSION,
            checksum: self.weight_checksum(),
            up: self.up.cfg,
            down: self.down.cfg,
            macro_cfg: self.macro_cfg,
            codec: self.codec,
            meta: self.meta,
            weights: String::from_utf8(hex).expect("hex digits are ASCII"),
        }
    }

    /// Serializes to the versioned, checksummed on-disk format.
    pub fn to_file_json(&self) -> String {
        serde_json::to_string(&self.to_file()).expect("model file serializes")
    }

    /// Loads a model from the versioned on-disk format, validating the
    /// header and the weights (configs, payload length, checksum, then
    /// finiteness), so a model that loads can serve a verdict. All failure
    /// modes are typed; a file without the header is refused
    /// ([`ElephantError::ModelParse`]), since nothing in it says how its
    /// weights are laid out.
    ///
    /// The header's verdict comes first: a file of another magic or format
    /// version is refused as such ([`ElephantError::ModelVersion`]) even
    /// when the rest does not parse as this version's file. Only a file
    /// that fails to parse is read a second time, for its header, so
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

    /// Fails if either micro model carries NaN or infinite weights.
    fn validate_weights(&self) -> Result<(), ElephantError> {
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

        let t0 = ctx.profile.then(std::time::Instant::now);
        let pred = net.predict(&rt.feat_buf, net_state);
        if let Some(t0) = t0 {
            stats.infer_seconds.record(t0.elapsed().as_secs_f64());
        }

        let drop = match *policy {
            DropPolicy::Sample => rng.next_f32() < pred.drop_prob,
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
pub(crate) mod tests {
    use super::*;
    use elephant_des::SimDuration;
    use elephant_net::{Ecn, FlowId, HostAddr, TcpFlags, TcpSegment, Topology};
    use proptest::prelude::*;

    pub(crate) fn tiny_model() -> ClusterModel {
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
                profile: false,
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
                        profile: false,
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
                profile: false,
            };
            oracle.classify(&ctx, &p, SimTime::from_micros(i));
        }
        assert_eq!(oracle.macro_state(2), MacroState::Minimal);
        let built = oracle.clusters.iter().flatten().count();
        assert_eq!(built, 1, "cluster 2 never materialized");
    }

    /// Bits of every parameter of both micro models, in payload order.
    fn weight_bits(m: &ClusterModel) -> Vec<u32> {
        [&m.up, &m.down]
            .into_iter()
            .flat_map(|net| net.param_views().into_iter().flatten().map(|w| w.to_bits()))
            .collect()
    }

    /// Re-seals an edited file the way anyone can: take the checksum the
    /// reader computed over the payload.
    fn resealed(mut file: ModelFile) -> String {
        if let Err(ElephantError::ModelChecksum { actual, .. }) = file.clone().into_model() {
            file.checksum = actual;
        }
        serde_json::to_string(&file).unwrap()
    }

    /// The served architecture and a tiny one: after `to_file_json` →
    /// `load_json` every parameter has the same bits, the checksum is the
    /// same, and 1,000 verdicts in a row (both directions, state carried)
    /// are bit-identical.
    #[test]
    fn v4_round_trip_is_the_same_model() {
        let mut rng = SmallRng::seed_from_u64(0xE1E);
        let compact = MicroNetConfig::compact(FEATURE_DIM);
        let served = ClusterModel {
            up: MicroNet::new(compact, &mut rng),
            down: MicroNet::new(compact, &mut rng),
            ..tiny_model()
        };
        for m in [tiny_model(), served] {
            let back = ClusterModel::load_json(&m.to_file_json()).expect("a written file loads");
            assert_eq!(weight_bits(&back), weight_bits(&m));
            assert_eq!(back.weight_checksum(), m.weight_checksum());
            let (mut a_up, mut a_down) = (m.up.init_state(), m.down.init_state());
            let (mut b_up, mut b_down) = (back.up.init_state(), back.down.init_state());
            let mut rng = SmallRng::seed_from_u64(5);
            for step in 0..1_000 {
                let x: Vec<f32> = (0..FEATURE_DIM).map(|_| rng.range_f32(-2.0..2.0)).collect();
                let (a, b) = if step % 2 == 0 {
                    (m.up.predict(&x, &mut a_up), back.up.predict(&x, &mut b_up))
                } else {
                    (
                        m.down.predict(&x, &mut a_down),
                        back.down.predict(&x, &mut b_down),
                    )
                };
                assert_eq!(
                    (a.drop_prob.to_bits(), a.latency.to_bits()),
                    (b.drop_prob.to_bits(), b.latency.to_bits()),
                    "step {step}"
                );
            }
        }
    }

    /// The weights a fresh served-size model starts from, bit for bit: pins
    /// the initialisation draw order and the parameter order across commits.
    #[test]
    fn fresh_compact_model_weights_are_pinned() {
        let cfg = MicroNetConfig::compact(FEATURE_DIM);
        let m = MicroNet::new(cfg, &mut SmallRng::seed_from_u64(0xE1E));
        assert_eq!(m.weight_checksum(), 1_026_617_590_211_359_552);
    }

    /// The payload layout itself: the first weight's little-endian bytes
    /// open it, and it holds eight digits per parameter.
    #[test]
    fn payload_is_little_endian_hex_in_param_order() {
        let m = tiny_model();
        let file = m.to_file();
        let first = m.up.param_views()[0][0].to_bits().to_le_bytes();
        let expect: String = first.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(&file.weights[..8], expect);
        assert_eq!(file.weights.len(), 8 * weight_bits(&m).len());
        assert!(m.to_file_json().contains(r#""version":4"#));
    }

    /// The table decoder against `u8::from_str_radix`: random
    /// weights, and every byte value in every digit position (accepted iff
    /// it is a lowercase hex digit).
    #[test]
    fn hex_weights_decode_like_a_reference() {
        let reference = |d: [u8; 8]| {
            let byte = |k: usize| {
                u8::from_str_radix(std::str::from_utf8(&d[2 * k..2 * k + 2]).unwrap(), 16).unwrap()
            };
            u32::from_le_bytes([byte(0), byte(1), byte(2), byte(3)])
        };
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let bits = (rng.next_u64() >> 32) as u32;
            let hex: String = bits
                .to_le_bytes()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            let digits: [u8; 8] = hex.as_bytes().try_into().unwrap();
            assert_eq!(weight_from_hex(&digits).map(f32::to_bits), Some(bits));
            assert_eq!(reference(digits), bits);
        }
        for at in 0..8 {
            for b in 0..=u8::MAX {
                let mut digits = *b"0a1b2c9f";
                digits[at] = b;
                let want = is_hex_digit(b).then(|| reference(digits));
                assert_eq!(
                    weight_from_hex(&digits).map(f32::to_bits),
                    want,
                    "{b:#04x} at {at}"
                );
            }
        }
    }

    #[test]
    fn a_file_without_its_header_is_refused() {
        // A document without magic and version carries no format, so its
        // weight layout is unknowable: refused, with a typed error naming
        // the header.
        let mut doc: serde::Value = serde_json::from_str(&tiny_model().to_file_json()).unwrap();
        if let serde::Value::Map(entries) = &mut doc {
            entries.retain(|(k, _)| !matches!(k.as_str(), "magic" | "version" | "checksum"));
        }
        let bare = serde_json::to_string(&doc).unwrap();
        let err = ClusterModel::load_json(&bare).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelParse { detail } if detail.contains("magic")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    /// A micro model as format versions 1 and 3 wrote it (1 input, 1 hidden
    /// unit, 1 layer): every weight a JSON decimal in the model tree.
    const V3_MICRO_NET: &str = r#"{"cfg":{"input":1,"hidden":1,"layers":1,"alpha":0.5},
        "lstm":{"cells":[{"w":{"rows":4,"cols":2,"data":[0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8]},
            "b":[0.0,1.0,0.0,0.0],"input":1,"hidden":1}]},
        "latency_head":{"w":{"rows":1,"cols":1,"data":[0.3]},"b":[0.0]},
        "drop_head":{"w":{"rows":1,"cols":1,"data":[-0.3]},"b":[0.0]}}"#;

    /// A micro model as format version 2 wrote it: the trunk tagged with
    /// its kind inside an `rnn` field, here the gated recurrent unit that
    /// version could also build.
    const V2_MICRO_NET: &str = r#"{"cfg":{"input":1,"hidden":1,"layers":1,"alpha":0.5,"rnn":"Gru"},
        "rnn":{"Gru":{"cells":[{"w_zr":{"rows":2,"cols":2,"data":[0.1,0.2,0.3,0.4]},"b_zr":[0.0,0.0],
            "w_n":{"rows":1,"cols":2,"data":[0.5,0.6]},"b_n":[0.0],"input":1,"hidden":1}]}},
        "latency_head":{"w":{"rows":1,"cols":1,"data":[0.3]},"b":[0.0]},
        "drop_head":{"w":{"rows":1,"cols":1,"data":[-0.3]},"b":[0.0]}}"#;

    /// An envelope of an older version around `net` as both micro models.
    fn older_file(version: u32, net: &str) -> String {
        format!(
            r#"{{"magic":"ELEPHANT-MODEL","version":{version},"checksum":1,"model":{{
                "up":{net},"down":{net},
                "macro_cfg":{{"latency_low":5e-5,"drop_high":0.02,"fast_alpha":0.3,
                    "slow_alpha":0.02,"drop_window":64}},
                "codec":{{"lo":1e-6,"hi":1.0}},"meta":{{}}}}}}"#
        )
    }

    #[test]
    fn older_format_versions_are_refused() {
        // None of them parses as a version 4 file (no configs, no payload),
        // so only the header read after the failed parse names the version.
        // Version 1 has version 3's shape with row-major weights.
        for (version, net) in [(1, V3_MICRO_NET), (2, V2_MICRO_NET), (3, V3_MICRO_NET)] {
            let json = older_file(version, net);
            let payload = serde_json::from_str::<ModelFile>(&json).unwrap_err();
            assert!(
                payload.to_string().contains("`up`"),
                "v{version}: {payload}"
            );
            let err = ClusterModel::load_json(&json).unwrap_err();
            assert!(
                matches!(err, ElephantError::ModelVersion { found, expected: 4 } if found == version),
                "v{version}: {err}"
            );
            assert_eq!(err.exit_code(), 4);
        }
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let m = tiny_model();
        let mut file = m.to_file();
        file.magic = "NOT-A-MODEL".to_string();
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(matches!(err, ElephantError::ModelMagic { .. }), "{err}");

        let mut file = m.to_file();
        file.version = MODEL_VERSION + 7;
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelVersion { found, .. } if found == MODEL_VERSION + 7)
        );
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let m = tiny_model();
        let mut file = m.to_file();
        file.checksum ^= 1;
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(matches!(err, ElephantError::ModelChecksum { .. }), "{err}");

        // One flipped payload bit: the low bit of the 100th weight's first
        // byte (`0` ↔ `1`, … `e` ↔ `f`), still lowercase hex.
        let mut file = m.to_file();
        let at = 8 * 100 + 1;
        let digit = HEX_DIGITS
            .iter()
            .position(|&d| d == file.weights.as_bytes()[at])
            .unwrap()
            ^ 1;
        file.weights
            .replace_range(at..at + 1, &(HEX_DIGITS[digit] as char).to_string());
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelChecksum { expected, .. }
                if expected == m.weight_checksum()),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn nan_weights_refuse_to_load() {
        // Written by the writer, which seals the NaN bits into the checksum:
        // the finiteness validator is what refuses the model.
        let mut m = tiny_model();
        m.up.param_slices()[0][0] = f32::NAN;
        let err = ClusterModel::load_json(&m.to_file_json()).unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelNonFinite { count } if count == 1),
            "{err}"
        );
        // Edited into the payload by hand (a quiet NaN, little-endian) and
        // re-sealed: the same.
        let mut file = tiny_model().to_file();
        file.weights.replace_range(8 * 3..8 * 4, "0000c07f");
        let err = ClusterModel::load_json(&resealed(file)).unwrap_err();
        assert!(
            matches!(err, ElephantError::ModelNonFinite { count } if count == 1),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    /// A payload one weight short, or with half a byte cut off, fails
    /// before any weight is read: the configs fix its length.
    #[test]
    fn a_payload_short_of_its_configs_is_refused() {
        let mut file = tiny_model().to_file();
        let full = file.weights.len();
        file.weights.truncate(full - 8);
        let err = ClusterModel::load_json(&resealed(file.clone())).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail }
                if detail.contains(&format!("holds {} hex digits, the configs need {full}", full - 8))),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
        file.weights.truncate(full - 9);
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail } if detail.contains("holds 12055 hex")),
            "{err}"
        );
    }

    /// A config that asks for more weights than a `usize` counts is refused
    /// by arithmetic, before anything is allocated for it.
    #[test]
    fn a_config_past_memory_is_refused_without_allocating() {
        let mut file = tiny_model().to_file();
        file.up.hidden = usize::MAX / 4;
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail } if detail.contains("more than fit")),
            "{err}"
        );
    }

    /// A config of no hidden units has no trunk weights however many layers
    /// it declares, so a payload of its two head biases plus the down model
    /// matches it in length: the config itself is refused, before a layer is
    /// counted or built. A layer count past memory is refused by arithmetic.
    #[test]
    fn a_config_of_no_width_and_endless_layers_is_refused() {
        let mut file = tiny_model().to_file();
        let up_digits = 8 * file.up.param_count().unwrap();
        file.up.hidden = 0;
        file.up.layers = 1_000_000_000_000;
        file.weights = format!("{}{}", "0".repeat(16), &file.weights[up_digits..]);
        let err = ClusterModel::load_json(&resealed(file.clone())).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail }
                if detail == "up model: the config declares 0 hidden units"),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
        file.up.hidden = 1;
        file.up.layers = 1 << 62;
        let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail } if detail.contains("more than fit")),
            "{err}"
        );
    }

    #[test]
    fn a_byte_that_is_not_lowercase_hex_is_a_parse_error() {
        for bad in ["g", "A", "-", " ", "é"] {
            let mut file = tiny_model().to_file();
            // Keep the length even: swap two digits for the bad one and
            // a filler of its remaining width.
            let filler = "0".repeat(2 - bad.len().min(2));
            file.weights
                .replace_range(40..42, &format!("{bad}{filler}"));
            let err = ClusterModel::load_json(&serde_json::to_string(&file).unwrap()).unwrap_err();
            assert!(
                matches!(&err, ElephantError::ModelParse { detail }
                    if detail.contains("not a lowercase hex digit at offset 40")),
                "{bad:?}: {err}"
            );
        }
    }

    /// Layers that do not chain: the second layer of a 2-layer trunk reads
    /// five inputs where the layer below produces eight. The writer writes
    /// the weights it holds; the reader, shaping nets by the configs, finds
    /// the payload short.
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
            matches!(&err, ElephantError::ModelShape { detail } if detail.contains("configs need")),
            "{err}"
        );
        assert_eq!(err.exit_code(), 4);
    }

    /// A config of no layers has a payload (the two heads) but no trunk.
    #[test]
    fn a_config_of_no_layers_is_refused() {
        let mut m = tiny_model();
        m.up = MicroNet::zeros(MicroNetConfig {
            layers: 0,
            ..m.up.cfg
        });
        let err = ClusterModel::load_json(&m.to_file_json()).unwrap_err();
        assert!(
            matches!(&err, ElephantError::ModelShape { detail }
                if detail.contains("up model: the config declares 0 layers")),
            "{err}"
        );
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

    /// How the reader's fuzz cases damage a file.
    #[derive(Clone, Copy, Debug)]
    enum Damage {
        /// Cut the file at a byte.
        Truncate,
        /// Overwrite a byte with a printable ASCII one.
        Overwrite(u8),
        /// Overwrite a payload digit with a byte that is not one.
        NotHex(u8),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reader never panics. A cut file and a payload byte that is
        /// not a digit are always refused; an overwritten byte anywhere is
        /// refused or, outside the payload, may happen to leave a valid
        /// file (a digit of a calibrated float, say). Every refusal is a
        /// model error (exit code 4).
        #[test]
        fn the_reader_never_panics(
            damage in (0u8..3, 0x20u8..0x7f).prop_map(|(kind, byte)| match kind {
                0 => Damage::Truncate,
                1 => Damage::Overwrite(byte),
                _ => Damage::NotHex(byte),
            }),
            at in any::<usize>(),
        ) {
            let json = tiny_model().to_file_json();
            let payload_start = json.find(r#""weights":""#).unwrap() + r#""weights":""#.len();
            let payload_len = json.len() - payload_start - 2; // `"}` closes it
            let mut bytes = json.clone().into_bytes();
            let must_fail = match damage {
                Damage::Truncate => {
                    bytes.truncate(at % json.len());
                    true
                }
                Damage::Overwrite(b) => {
                    let i = at % json.len();
                    let changed = bytes[i] != b;
                    bytes[i] = b;
                    changed && (payload_start..payload_start + payload_len).contains(&i)
                }
                Damage::NotHex(b) => {
                    prop_assume!(!is_hex_digit(b));
                    bytes[payload_start + at % payload_len] = b;
                    true
                }
            };
            let text = String::from_utf8(bytes).expect("ASCII edits keep UTF-8");
            match ClusterModel::load_json(&text) {
                Err(err) => prop_assert_eq!(err.exit_code(), 4),
                Ok(_) => prop_assert!(!must_fail, "{:?} at {} loaded", damage, at),
            }
        }
    }
}
