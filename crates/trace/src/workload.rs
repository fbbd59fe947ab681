//! Flow-level workload generation.
//!
//! Each host runs an independent Poisson flow generator calibrated to a
//! target offered load (fraction of its NIC rate). Destinations follow a
//! configurable locality mix — rack-local / intra-cluster / inter-cluster —
//! so the same generator drives the paper's leaf-spine (Figure 1) and
//! multi-cluster (Figures 4–5) experiments.
//!
//! Everything is driven by named [`elephant_des::RngFactory`] streams, so a
//! workload is a pure function of `(topology parameters, config, seed)`:
//! re-running an experiment regenerates the identical flow list.

use elephant_des::{RngFactory, SimDuration, SimTime, SmallRng};
use elephant_net::{ClosParams, FlowId, FlowSpec, HostAddr};

use crate::profile::LoadProfile;
use crate::sizes::SizeDist;

/// Destination-locality mix. Weights need not be normalized.
#[derive(Clone, Copy, Debug)]
pub struct Locality {
    /// Weight of destinations under the same ToR.
    pub rack_local: f64,
    /// Weight of destinations in the same cluster, different rack.
    pub intra_cluster: f64,
    /// Weight of destinations in other clusters.
    pub inter_cluster: f64,
}

impl Locality {
    /// The mix used by the multi-cluster experiments: mostly cross-cluster
    /// so the approximated fabrics actually carry traffic.
    pub fn cluster_heavy() -> Self {
        Locality {
            rack_local: 0.1,
            intra_cluster: 0.3,
            inter_cluster: 0.6,
        }
    }

    /// A classic intra-DC mix for single-cluster (leaf-spine) networks.
    pub fn leaf_spine() -> Self {
        Locality {
            rack_local: 0.2,
            intra_cluster: 0.8,
            inter_cluster: 0.0,
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Per-host offered load as a fraction of the host link rate
    /// (e.g. 0.3 = each host offers 3 Gb/s on a 10 GbE NIC).
    pub load: f64,
    /// Flow-size distribution.
    pub sizes: SizeDist,
    /// Destination mix.
    pub locality: Locality,
    /// Flows start in `[0, horizon)`.
    pub horizon: SimTime,
    /// Experiment seed.
    pub seed: u64,
    /// Time-varying load multiplier (thinned inhomogeneous Poisson).
    pub profile: LoadProfile,
}

impl WorkloadConfig {
    /// Web-search sizes at 30% load with a cluster-heavy mix — the
    /// workspace's default stand-in for the paper's traffic.
    pub fn paper_default(horizon: SimTime, seed: u64) -> Self {
        WorkloadConfig {
            load: 0.3,
            sizes: SizeDist::web_search(),
            locality: Locality::cluster_heavy(),
            horizon,
            seed,
            profile: LoadProfile::Constant,
        }
    }
}

/// Generates the full flow list for a Clos network, sorted by start time.
pub fn generate(params: &ClosParams, cfg: &WorkloadConfig) -> Vec<FlowSpec> {
    assert!(cfg.load > 0.0 && cfg.load < 1.0, "load must be in (0,1)");
    let factory = RngFactory::new(cfg.seed);
    let mean_size = cfg.sizes.mean();
    // λ per host: load × link rate / (mean flow size in bits).
    let bits_per_sec = cfg.load * params.host_link.rate_gbps * 1e9;
    let lambda = bits_per_sec / (mean_size * 8.0);
    assert!(lambda > 0.0);
    // Inhomogeneous-Poisson thinning: draw at the profile's peak rate,
    // accept each arrival with probability multiplier(t)/peak. The peak
    // multiplier is additionally capped so load never exceeds the link.
    let peak = cfg.profile.peak().min(0.98 / cfg.load).max(1e-9);
    let lambda_peak = lambda * peak;

    let mut flows = Vec::new();
    let mut next_id = 1u64;
    for src in all_hosts(params) {
        let mut rng = factory.stream("workload/host", host_index(params, src));
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u = rng.range_f64(1e-12..1.0);
            t += -u.ln() / lambda_peak;
            let start = SimTime::from_secs_f64(t);
            if start >= cfg.horizon {
                break;
            }
            let accept = rng.next_f64();
            if accept * peak > cfg.profile.multiplier(start).min(peak) {
                continue; // thinned away at this instant's load level
            }
            let Some(dst) = pick_destination(params, src, &cfg.locality, &mut rng) else {
                continue; // no eligible destination in this category
            };
            let bytes = cfg.sizes.sample(&mut rng).max(1);
            flows.push(FlowSpec {
                id: FlowId(next_id),
                src,
                dst,
                bytes,
                start,
            });
            next_id += 1;
        }
    }
    // Ids are unique, so the keys are: an unstable sort gives the stable
    // order without a merge buffer.
    flows.sort_unstable_by_key(|f| (f.start, f.id.0));
    flows
}

/// Keeps only flows with at least one endpoint in `cluster` — the paper's
/// traffic elision: "traffic within and between approximated clusters …
/// can be safely omitted" (§6.2).
pub fn filter_touching_cluster(flows: &[FlowSpec], cluster: u16) -> Vec<FlowSpec> {
    flows
        .iter()
        .filter(|f| f.src.cluster == cluster || f.dst.cluster == cluster)
        .copied()
        .collect()
}

/// A synchronized incast: `senders` hosts each send `bytes` to `dst` at
/// `start`. With enough senders the per-flow fair share drops below one
/// minimum window and TCP can no longer back off — the §2.1 pathology.
pub fn incast(
    senders: &[HostAddr],
    dst: HostAddr,
    bytes: u64,
    start: SimTime,
    first_id: u64,
) -> Vec<FlowSpec> {
    senders
        .iter()
        .enumerate()
        .map(|(i, &src)| {
            assert_ne!(src, dst, "incast sender cannot be the destination");
            FlowSpec {
                id: FlowId(first_id + i as u64),
                src,
                dst,
                bytes,
                start,
            }
        })
        .collect()
}

/// Every host sends one flow to a fixed permutation partner (stress test
/// with no shared endpoints).
pub fn permutation(params: &ClosParams, bytes: u64, start: SimTime, seed: u64) -> Vec<FlowSpec> {
    let hosts = all_hosts(params);
    let n = hosts.len();
    let factory = RngFactory::new(seed);
    let mut rng = factory.stream("workload/permutation", 0);
    // Random derangement-ish: rotate by a random non-zero offset.
    let offset = 1 + rng.below(n.max(2) as u64 - 1) as usize;
    hosts
        .iter()
        .enumerate()
        .map(|(i, &src)| FlowSpec {
            id: FlowId(i as u64 + 1),
            src,
            dst: hosts[(i + offset) % n],
            bytes,
            start,
        })
        .collect()
}

fn all_hosts(params: &ClosParams) -> Vec<HostAddr> {
    let mut out = Vec::with_capacity(params.total_hosts() as usize);
    for c in 0..params.clusters {
        for r in 0..params.racks_per_cluster {
            for h in 0..params.hosts_per_rack {
                out.push(HostAddr::new(c, r, h));
            }
        }
    }
    out
}

fn host_index(params: &ClosParams, a: HostAddr) -> u64 {
    let per_cluster = params.racks_per_cluster as u64 * params.hosts_per_rack as u64;
    a.cluster as u64 * per_cluster + a.rack as u64 * params.hosts_per_rack as u64 + a.host as u64
}

/// Picks a destination for `src` according to the locality mix. Returns
/// `None` when the drawn category has no eligible hosts (e.g. an
/// inter-cluster draw in a single-cluster network falls back to `None`
/// only if no other category is possible).
fn pick_destination(
    params: &ClosParams,
    src: HostAddr,
    loc: &Locality,
    rng: &mut SmallRng,
) -> Option<HostAddr> {
    // Zero out impossible categories before normalizing.
    let rack_ok = params.hosts_per_rack > 1;
    let intra_ok = params.racks_per_cluster > 1;
    let inter_ok = params.clusters > 1;
    let w = [
        if rack_ok { loc.rack_local } else { 0.0 },
        if intra_ok { loc.intra_cluster } else { 0.0 },
        if inter_ok { loc.inter_cluster } else { 0.0 },
    ];
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let mut draw = rng.range_f64(0.0..total);
    let category = if draw < w[0] {
        0
    } else {
        draw -= w[0];
        if draw < w[1] {
            1
        } else {
            2
        }
    };
    // A host, rack or cluster index in `[0, n)`.
    let mut below = |n: u16| rng.below(n as u64) as u16;
    Some(match category {
        0 => {
            // Same rack, different host.
            let mut h = below(params.hosts_per_rack - 1);
            if h >= src.host {
                h += 1;
            }
            HostAddr::new(src.cluster, src.rack, h)
        }
        1 => {
            // Same cluster, different rack.
            let mut r = below(params.racks_per_cluster - 1);
            if r >= src.rack {
                r += 1;
            }
            HostAddr::new(src.cluster, r, below(params.hosts_per_rack))
        }
        _ => {
            // Different cluster.
            let mut c = below(params.clusters - 1);
            if c >= src.cluster {
                c += 1;
            }
            HostAddr::new(
                c,
                below(params.racks_per_cluster),
                below(params.hosts_per_rack),
            )
        }
    })
}

/// Offered load sanity helper: total bytes in `flows` expressed as a
/// fraction of what all host links could carry over `horizon`.
pub fn realized_load(params: &ClosParams, flows: &[FlowSpec], horizon: SimDuration) -> f64 {
    let bytes: u64 = flows.iter().map(|f| f.bytes).sum();
    let capacity = params.total_hosts() as f64 * params.host_link.rate_gbps * 1e9 / 8.0
        * horizon.as_secs_f64();
    bytes as f64 * 1.0 / capacity
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ClosParams {
        ClosParams::paper_cluster(4)
    }

    #[test]
    fn generate_is_deterministic() {
        let cfg = WorkloadConfig::paper_default(SimTime::from_millis(50), 42);
        let a = generate(&params(), &cfg);
        let b = generate(&params(), &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                (x.id, x.src, x.dst, x.bytes, x.start),
                (y.id, y.src, y.dst, y.bytes, y.start)
            );
        }
        assert!(!a.is_empty());
    }

    #[test]
    fn flows_sorted_and_unique_ids() {
        let cfg = WorkloadConfig::paper_default(SimTime::from_millis(50), 1);
        let flows = generate(&params(), &cfg);
        let mut ids = std::collections::HashSet::new();
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start, "sorted by start");
        }
        for f in &flows {
            assert!(ids.insert(f.id), "unique ids");
            assert_ne!(f.src, f.dst, "no self-flows");
            assert!(f.bytes >= 1);
            assert!(f.start < SimTime::from_millis(50));
        }
    }

    #[test]
    fn realized_load_tracks_target() {
        let horizon = SimTime::from_millis(200);
        let cfg = WorkloadConfig {
            load: 0.3,
            sizes: SizeDist::web_search(),
            locality: Locality::cluster_heavy(),
            horizon,
            seed: 7,
            profile: crate::LoadProfile::Constant,
        };
        let flows = generate(&params(), &cfg);
        let realized = realized_load(&params(), &flows, SimDuration::from_millis(200));
        assert!(
            (realized - 0.3).abs() < 0.1,
            "realized load {realized} should approximate 0.3"
        );
    }

    #[test]
    fn locality_mix_respected() {
        let cfg = WorkloadConfig {
            load: 0.3,
            sizes: SizeDist::fixed(10_000),
            locality: Locality {
                rack_local: 0.0,
                intra_cluster: 0.0,
                inter_cluster: 1.0,
            },
            horizon: SimTime::from_millis(100),
            seed: 3,
            profile: crate::LoadProfile::Constant,
        };
        let flows = generate(&params(), &cfg);
        assert!(!flows.is_empty());
        assert!(flows.iter().all(|f| f.src.cluster != f.dst.cluster));
    }

    #[test]
    fn single_cluster_falls_back_from_inter() {
        let p = ClosParams::leaf_spine(4);
        let cfg = WorkloadConfig {
            load: 0.2,
            sizes: SizeDist::fixed(10_000),
            locality: Locality {
                rack_local: 0.5,
                intra_cluster: 0.5,
                inter_cluster: 10.0,
            },
            horizon: SimTime::from_millis(20),
            seed: 5,
            profile: crate::LoadProfile::Constant,
        };
        let flows = generate(&p, &cfg);
        assert!(!flows.is_empty());
        assert!(flows
            .iter()
            .all(|f| f.src.cluster == 0 && f.dst.cluster == 0));
    }

    #[test]
    fn filter_touching_cluster_keeps_endpoints() {
        let cfg = WorkloadConfig::paper_default(SimTime::from_millis(30), 9);
        let flows = generate(&params(), &cfg);
        let kept = filter_touching_cluster(&flows, 0);
        assert!(!kept.is_empty());
        assert!(kept.len() < flows.len(), "something was elided");
        assert!(kept
            .iter()
            .all(|f| f.src.cluster == 0 || f.dst.cluster == 0));
    }

    #[test]
    fn step_profile_modulates_arrival_rate() {
        // Load multiplier drops to 0.2 halfway through: the second half
        // must contain far fewer flow arrivals.
        let horizon = SimTime::from_millis(200);
        let cfg = WorkloadConfig {
            load: 0.3,
            sizes: SizeDist::fixed(10_000),
            locality: Locality::cluster_heavy(),
            horizon,
            seed: 13,
            profile: crate::LoadProfile::Steps(vec![(SimTime::from_millis(100), 0.2)]),
        };
        let flows = generate(&params(), &cfg);
        let half = SimTime::from_millis(100);
        let first: usize = flows.iter().filter(|f| f.start < half).count();
        let second = flows.len() - first;
        assert!(first > 50, "healthy first half ({first})");
        assert!(
            (second as f64) < first as f64 * 0.4,
            "second half thinned: {second} vs {first}"
        );
    }

    #[test]
    fn sinusoid_profile_is_deterministic_and_bounded() {
        let horizon = SimTime::from_millis(100);
        let mk = || WorkloadConfig {
            load: 0.3,
            sizes: SizeDist::fixed(10_000),
            locality: Locality::cluster_heavy(),
            horizon,
            seed: 14,
            profile: crate::LoadProfile::Sinusoid {
                period: SimTime::from_millis(50),
                min: 0.1,
                max: 1.0,
            },
        };
        let a = generate(&params(), &mk());
        let b = generate(&params(), &mk());
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        // Mean rate is roughly (min+max)/2 of the constant profile's.
        let constant = generate(
            &params(),
            &WorkloadConfig {
                profile: crate::LoadProfile::Constant,
                ..mk()
            },
        );
        let ratio = a.len() as f64 / constant.len() as f64;
        assert!((0.35..0.75).contains(&ratio), "thinning ratio {ratio}");
    }

    #[test]
    fn incast_builder() {
        let senders: Vec<HostAddr> = (0..8).map(|h| HostAddr::new(1, h % 2, h / 2)).collect();
        let flows = incast(
            &senders,
            HostAddr::new(0, 0, 0),
            20_000,
            SimTime::from_micros(5),
            100,
        );
        assert_eq!(flows.len(), 8);
        assert!(flows.iter().all(|f| f.dst == HostAddr::new(0, 0, 0)));
        assert_eq!(flows[0].id, FlowId(100));
        assert_eq!(flows[7].id, FlowId(107));
    }

    #[test]
    fn permutation_has_no_self_flows_and_uses_all_hosts() {
        let p = params();
        let flows = permutation(&p, 1000, SimTime::ZERO, 11);
        assert_eq!(flows.len(), p.total_hosts() as usize);
        let mut dsts = std::collections::HashSet::new();
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(dsts.insert(f.dst), "each host receives exactly once");
        }
    }
}
