//! The oracle stack every hybrid run serves verdicts from, assembled in
//! one place so truth-vs-hybrid and sequential-vs-PDES comparisons run
//! the same stack: learned oracle → optional verdict cache → optional
//! guard. The cache lives *inside* the learned oracle, under the guard, so
//! guard validation sees every served verdict.

use elephant_des::SimDuration;
use elephant_net::{
    ClosParams, ClusterOracle, FixedLatencyOracle, GuardConfig, GuardStatsHandle, GuardedOracle,
};

use crate::cache::CacheStatsHandle;
use crate::learned::{ClusterModel, DropPolicy, LearnedOracle, ModelMeta};

/// An assembled oracle plus live handles onto its counters (valid after
/// the oracle is boxed into the network).
pub struct OracleStack {
    /// The oracle to install.
    pub oracle: Box<dyn ClusterOracle + Send>,
    /// Guard trip counters, when guarded.
    pub guard: Option<GuardStatsHandle>,
    /// Verdict-cache counters, when memoizing.
    pub cache: Option<CacheStatsHandle>,
}

/// Assembles the stack around `model` for a network shaped by `params`.
///
/// `seed` is the run seed; `partition` selects PDES partition `p`'s
/// replica, whose drop sampling is salted by `p` and which runs
/// unguarded (per-partition guard stats are not aggregated). `cache_cap`
/// enables verdict memoization at that capacity; `guard` wraps the result
/// in a [`GuardedOracle`] configured by [`guard_primary`].
pub fn oracle_stack(
    model: ClusterModel,
    params: ClosParams,
    seed: u64,
    partition: Option<usize>,
    cache_cap: Option<usize>,
    guard: Option<&GuardConfig>,
) -> OracleStack {
    let meta = model.meta;
    let seed = (seed ^ 0xE1E).wrapping_add(partition.map_or(0, |p| p as u64));
    let learned = match cache_cap {
        Some(cap) => LearnedOracle::with_cache(model, params, DropPolicy::Sample, seed, cap),
        None => LearnedOracle::new(model, params, DropPolicy::Sample, seed),
    };
    let cache = learned.cache_stats_handle();
    let primary: Box<dyn ClusterOracle + Send> = Box::new(learned);
    match guard.filter(|_| partition.is_none()) {
        Some(cfg) => OracleStack {
            cache,
            ..guard_primary(primary, &meta, cfg)
        },
        None => OracleStack {
            oracle: primary,
            guard: None,
            cache,
        },
    }
}

/// Wraps `primary` in a [`GuardedOracle`]. The drop-rate drift band
/// centers on the artifact's training drop rate (legacy artifacts with
/// zeroed meta disable the check), and the fallback delivers at the
/// training-time median latency when the artifact records one, else a
/// generic fabric traversal.
pub fn guard_primary(
    primary: Box<dyn ClusterOracle + Send>,
    meta: &ModelMeta,
    cfg: &GuardConfig,
) -> OracleStack {
    let mut cfg = cfg.clone();
    cfg.expected_drop_rate = (meta.train_records > 0).then_some(meta.train_drop_rate);
    let fallback_latency = if meta.train_latency_p50 > 0.0 {
        SimDuration::from_secs_f64(meta.train_latency_p50)
    } else {
        SimDuration::from_micros(50)
    };
    let guarded = GuardedOracle::new(primary, Box::new(FixedLatencyOracle(fallback_latency)), cfg);
    let guard = Some(guarded.stats_handle());
    OracleStack {
        oracle: Box::new(guarded),
        guard,
        cache: None,
    }
}
