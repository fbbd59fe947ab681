//! The paired-run audit driver: ground truth and hybrid on the same
//! compiled workload and seed, divergence measured where it can be
//! attributed.
//!
//! The paper's accuracy argument (§6.1) is distributional — drop rates
//! and latency CDFs, not per-packet agreement. The audit driver makes
//! that argument *operational*: it runs the full-fidelity simulator and
//! the hybrid simulator over the identical flow list, joins their
//! per-flow completion records on flow id, and reports per-flow relative
//! FCT error, drop-rate error, and CDF distances (KS and 1-Wasserstein),
//! each attributed along three axes:
//!
//! * **macro regime** — which congestion regime the hybrid's oracle was
//!   in when each matched flow completed (from the sampler's macro-state
//!   timeline);
//! * **topology layer** — where packets died, per queue layer, truth vs
//!   hybrid;
//! * **oracle subsystem** — verdict-cache traffic and guard trips, which
//!   only exist on the approximate side.
//!
//! Read-only contract: both sides go through [`crate::execute`] like
//! any standalone run, the hybrid sampled (chunked driving, proven
//! bit-identity-preserving); `tests/audit_determinism.rs` asserts the
//! audited runs' fingerprints equal standalone runs'.

use std::collections::BTreeMap;

use crate::cache::CacheStatsHandle;
use crate::experiment::{
    execute, run_ground_truth, single_oracle, Fidelity, Observe, RunMeta, RunPlan,
};
use crate::macro_model::MacroState;

use elephant_des::{SimDuration, SimTime};
use elephant_net::{
    ClosParams, ClusterOracle, FlowSpec, GuardStatsHandle, NetConfig, Network, RttScope, Sample,
};
use elephant_obs::{
    ks_distance, wasserstein1, DivergenceBounds, DivergenceReport, DriftRow, HistSummary,
    LogHistogram,
};

/// Observability handles into the hybrid side's oracle stack, used for the
/// `oracle` attribution axis. Both optional: a plain oracle has neither.
#[derive(Default)]
pub struct AuditHooks {
    /// Verdict-cache counters, when the oracle memoizes.
    pub cache: Option<CacheStatsHandle>,
    /// Guard trip counters, when the oracle is guarded.
    pub guard: Option<GuardStatsHandle>,
}

/// A completed audit: both runs' final state plus the divergence verdict.
pub struct AuditRun {
    /// The divergence report (embed in a ledger, render with `to_table`).
    pub divergence: DivergenceReport,
    /// Ground-truth network after the run.
    pub truth_net: Network,
    /// Ground-truth performance facts.
    pub truth_meta: RunMeta,
    /// Hybrid network after the run.
    pub hybrid_net: Network,
    /// Hybrid performance facts.
    pub hybrid_meta: RunMeta,
}

/// Relative-error histogram geometry: |relative FCT error| from 1e-6
/// (exact to ppm) to 1e3 (three orders of magnitude off).
fn rel_error_hist() -> LogHistogram {
    LogHistogram::new(1e-6, 1e3, 450)
}

/// Runs ground truth and hybrid over the same `flows` (already elided to
/// traffic touching `full_cluster`) and measures their divergence.
///
/// Both runs use `cfg` with the RTT scope pinned to `full_cluster` — the
/// hybrid driver forces that scope anyway, and accuracy must be drawn
/// from the same region on both sides for the CDFs to be comparable.
/// `sample_every` sets the macro-regime timeline granularity on the
/// hybrid side.
#[allow(clippy::too_many_arguments)] // an experiment spec, not an API surface
pub fn run_audit(
    params: ClosParams,
    full_cluster: u16,
    oracle: Box<dyn ClusterOracle + Send>,
    cfg: NetConfig,
    flows: &[FlowSpec],
    horizon: SimTime,
    bounds: DivergenceBounds,
    sample_every: SimDuration,
    hooks: AuditHooks,
) -> AuditRun {
    let truth_cfg = NetConfig {
        rtt_scope: RttScope::Cluster(full_cluster),
        ..cfg
    };
    let (truth_net, truth_meta) = run_ground_truth(params, truth_cfg, None, flows, horizon);

    let fidelity = Fidelity::Hybrid {
        full_cluster,
        oracles: &mut single_oracle(oracle),
    };
    let mut plan = RunPlan::new(params, cfg, flows, horizon, fidelity);
    plan.observe = Observe::sampled(Some(sample_every));
    let hybrid = execute(plan).expect("unsupervised sequential runs cannot fail");
    let regimes = regime_timeline(&hybrid.samples);
    let (hybrid_net, hybrid_meta) = hybrid.into_single();

    let divergence = diverge(&truth_net, &hybrid_net, &regimes, bounds, &hooks);
    AuditRun {
        divergence,
        truth_net,
        truth_meta,
        hybrid_net,
        hybrid_meta,
    }
}

/// The hybrid run's macro-regime step function, `(sample time, max regime
/// across stub clusters)` per sampler tick: the worst (max) regime any
/// stub reports is the one that shaped that window's verdicts.
fn regime_timeline(samples: &[Sample]) -> Vec<(SimTime, u8)> {
    samples
        .iter()
        .map(|s| {
            let state = s.macro_states.iter().map(|&(_, r)| r).max();
            (s.at, state.unwrap_or(0))
        })
        .collect()
}

/// The regime in force at `at`: the last sample tick at or before it
/// (samples describe the window they close), regime 0 before the first.
fn regime_at(timeline: &[(SimTime, u8)], at: SimTime) -> u8 {
    match timeline.partition_point(|&(t, _)| t < at) {
        0 => timeline.first().map(|&(_, s)| s).unwrap_or(0),
        i => timeline[i - 1].1,
    }
}

fn regime_label(idx: u8) -> String {
    MacroState::ALL
        .get(idx as usize)
        .map(|s| format!("{s:?}").to_lowercase())
        .unwrap_or_else(|| format!("regime{idx}"))
}

fn drop_rate(net: &Network) -> f64 {
    let drops = net.stats.drops.total();
    let attempts = drops + net.stats.delivered_packets;
    if attempts == 0 {
        0.0
    } else {
        drops as f64 / attempts as f64
    }
}

/// Per-regime accumulator for the attribution rows.
#[derive(Default)]
struct RegimeBucket {
    truth_sum: f64,
    approx_sum: f64,
    n: u64,
}

fn diverge(
    truth: &Network,
    hybrid: &Network,
    regimes: &[(SimTime, u8)],
    bounds: DivergenceBounds,
    hooks: &AuditHooks,
) -> DivergenceReport {
    // Join completions on flow id. Duplicate records cannot occur — a flow
    // completes once — so a plain map join is exact.
    let truth_fct: BTreeMap<u64, &elephant_net::FctRecord> =
        truth.stats.fct.iter().map(|r| (r.flow.0, r)).collect();

    let mut fct_truth = Vec::new();
    let mut fct_approx = Vec::new();
    let mut err_hist = rel_error_hist();
    let mut signed_sum = 0.0;
    let mut by_regime: BTreeMap<u8, RegimeBucket> = BTreeMap::new();
    let mut matched = 0u64;
    for h in &hybrid.stats.fct {
        let Some(t) = truth_fct.get(&h.flow.0) else {
            continue;
        };
        matched += 1;
        let ft = t.fct().as_secs_f64();
        let fh = h.fct().as_secs_f64();
        fct_truth.push(ft);
        fct_approx.push(fh);
        if ft > 0.0 {
            let rel = (fh - ft) / ft;
            signed_sum += rel;
            err_hist.record(rel.abs());
        }
        let bucket = by_regime
            .entry(regime_at(regimes, h.completed))
            .or_default();
        bucket.truth_sum += ft;
        bucket.approx_sum += fh;
        bucket.n += 1;
    }

    let fct_mean_truth = if fct_truth.is_empty() {
        0.0
    } else {
        fct_truth.iter().sum::<f64>() / fct_truth.len() as f64
    };

    let mut slices = Vec::new();
    for (idx, b) in &by_regime {
        slices.push(DriftRow {
            axis: "regime".to_string(),
            key: format!("{}_mean_fct_s", regime_label(*idx)),
            truth: b.truth_sum / b.n as f64,
            approx: b.approx_sum / b.n as f64,
        });
        slices.push(DriftRow {
            axis: "regime".to_string(),
            key: format!("{}_flows", regime_label(*idx)),
            truth: b.n as f64,
            approx: b.n as f64,
        });
    }
    let layers = [
        (
            "host_drops",
            truth.stats.drops.host,
            hybrid.stats.drops.host,
        ),
        ("tor_drops", truth.stats.drops.tor, hybrid.stats.drops.tor),
        ("agg_drops", truth.stats.drops.agg, hybrid.stats.drops.agg),
        (
            "core_drops",
            truth.stats.drops.core,
            hybrid.stats.drops.core,
        ),
        (
            "oracle_drops",
            truth.stats.drops.oracle,
            hybrid.stats.drops.oracle,
        ),
    ];
    for (key, t, h) in layers {
        slices.push(DriftRow {
            axis: "layer".to_string(),
            key: key.to_string(),
            truth: t as f64,
            approx: h as f64,
        });
    }
    if let Some(cache) = &hooks.cache {
        let snap = cache.snapshot();
        for (key, v) in [
            ("cache_hits", snap.hits),
            ("cache_misses", snap.misses),
            ("cache_evictions", snap.evictions),
            ("cache_invalidations", snap.invalidations),
        ] {
            slices.push(DriftRow {
                axis: "oracle".to_string(),
                key: key.to_string(),
                truth: f64::NAN,
                approx: v as f64,
            });
        }
    }
    if let Some(guard) = &hooks.guard {
        let snap = guard.snapshot();
        for (key, v) in [
            ("guard_non_finite", snap.non_finite),
            ("guard_negative", snap.negative),
            ("guard_ceiling", snap.ceiling),
            ("guard_drop_drift", snap.drop_drift),
            ("guard_fallback_verdicts", snap.fallback_verdicts),
        ] {
            slices.push(DriftRow {
                axis: "oracle".to_string(),
                key: key.to_string(),
                truth: f64::NAN,
                approx: v as f64,
            });
        }
    }

    DivergenceReport {
        flows_truth: truth.stats.flows_completed,
        flows_approx: hybrid.stats.flows_completed,
        flows_matched: matched,
        drop_rate_truth: drop_rate(truth),
        drop_rate_approx: drop_rate(hybrid),
        fct_ks: ks_distance(&fct_truth, &fct_approx),
        fct_w1_seconds: wasserstein1(&fct_truth, &fct_approx),
        fct_mean_truth_seconds: fct_mean_truth,
        rtt_ks: ks_distance(&truth.stats.raw_rtt(), &hybrid.stats.raw_rtt()),
        abs_rel_error: HistSummary::of(&err_hist),
        signed_mean_rel_error: if matched > 0 {
            signed_sum / matched as f64
        } else {
            0.0
        },
        slices,
        bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephant_net::IdealOracle;
    use elephant_trace::{filter_touching_cluster, generate, WorkloadConfig};

    fn audit_once() -> AuditRun {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(8);
        let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 23));
        let elided = filter_touching_cluster(&flows, 0);
        run_audit(
            params,
            0,
            Box::new(IdealOracle),
            NetConfig::default(),
            &elided,
            horizon,
            DivergenceBounds::default(),
            SimDuration::from_micros(200),
            AuditHooks::default(),
        )
    }

    #[test]
    fn audit_joins_flows_and_attributes() {
        let run = audit_once();
        let d = &run.divergence;
        assert!(d.flows_matched > 0, "flows matched across runs");
        assert!(d.flows_matched <= d.flows_truth.min(d.flows_approx));
        assert!(d.fct_ks >= 0.0 && d.fct_ks <= 1.0);
        assert!(d.fct_w1_seconds.is_finite());
        assert!(d.fct_mean_truth_seconds > 0.0);
        assert!(
            d.slices.iter().any(|s| s.axis == "layer"),
            "layer attribution present"
        );
        assert!(
            d.slices.iter().any(|s| s.axis == "regime"),
            "regime attribution present"
        );
        // The hybrid exercised the oracle, so the hybrid side saw fewer
        // packet-level events than truth.
        assert!(run.hybrid_net.stats.oracle_deliveries > 0);
        assert!(run.hybrid_meta.events < run.truth_meta.events);
        // Renders and serializes.
        let table = run.divergence.to_table();
        assert!(table.contains("divergence"));
        let json = serde_json::to_string(&run.divergence).expect("serializes");
        assert!(json.contains("flows_matched"));
    }

    #[test]
    fn audited_runs_match_standalone_runs_bitwise() {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(8);
        let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 23));
        let elided = filter_touching_cluster(&flows, 0);

        let audit = audit_once();
        let truth_cfg = NetConfig {
            rtt_scope: RttScope::Cluster(0),
            ..Default::default()
        };
        let (truth, tmeta) =
            crate::experiment::run_ground_truth(params, truth_cfg, None, &elided, horizon);
        let (hybrid, hmeta) = crate::experiment::run_hybrid(
            params,
            0,
            Box::new(IdealOracle),
            NetConfig::default(),
            &elided,
            horizon,
        );
        assert_eq!(audit.truth_meta.events, tmeta.events);
        assert_eq!(audit.hybrid_meta.events, hmeta.events);
        assert_eq!(
            audit.truth_net.stats.delivered_bytes,
            truth.stats.delivered_bytes
        );
        assert_eq!(
            audit.hybrid_net.stats.delivered_bytes,
            hybrid.stats.delivered_bytes
        );
        assert_eq!(audit.truth_net.stats.fct.len(), truth.stats.fct.len());
        assert_eq!(audit.hybrid_net.stats.fct.len(), hybrid.stats.fct.len());
    }

    #[test]
    fn regime_lookup_is_a_step_function() {
        let tl = vec![
            (SimTime::from_micros(100), 0u8),
            (SimTime::from_micros(200), 2),
            (SimTime::from_micros(300), 1),
        ];
        // Before the first sample: the first window's regime.
        assert_eq!(regime_at(&tl, SimTime::from_micros(50)), 0);
        assert_eq!(regime_at(&tl, SimTime::from_micros(100)), 0);
        // Between samples: the window that most recently closed.
        assert_eq!(regime_at(&tl, SimTime::from_micros(250)), 2);
        assert_eq!(regime_at(&tl, SimTime::from_micros(900)), 1);
        assert_eq!(regime_at(&[], SimTime::from_micros(900)), 0);
    }

    #[test]
    fn regime_labels_cover_the_macro_states() {
        assert_eq!(regime_label(0), "minimal");
        assert_eq!(regime_label(2), "high");
        assert_eq!(regime_label(9), "regime9");
    }
}
