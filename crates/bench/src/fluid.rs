//! Flow-level fluid simulation: the `baseline_flow` harness's engine.
//!
//! The related-work comparison point (paper §2/§8): "when simulating large
//! networks, the predominant approach is to sacrifice granularity by
//! eschewing packet-level analysis entirely. Flow-level simulation is one
//! example of this approach … these simulators can provide insight into the
//! general behavior of the system, but miss out on many important network
//! effects, particularly in the presence of bursty traffic."
//!
//! This module is that simulator: flows are fluids, links are pipes, and
//! bandwidth is allocated by **max-min fairness** via progressive filling —
//! the steady state an ideal congestion-control protocol would reach.
//! Rates are recomputed at every flow arrival and completion, and the
//! simulation jumps straight between those instants, so its cost is
//! `O(events × links)` instead of `O(packets)`.
//!
//! What it deliberately cannot express — queues, drops, retransmissions,
//! RTT dynamics, slow start, the §2.1 minimum-window pathology — is
//! exactly what the `baseline_flow` experiment quantifies against the
//! packet-level simulator.

use std::collections::HashMap;

use elephant_des::{SimDuration, SimTime};
use elephant_net::{FlowId, FlowSpec, NodeId, NodeKind, PortId, Topology};

/// Result of one fluid simulation.
#[derive(Clone, Debug, Default)]
pub struct FluidResult {
    /// Completion record per finished flow.
    pub fct: Vec<FluidFct>,
    /// Rate recomputations performed (the simulator's unit of work).
    pub recomputes: u64,
    /// Flows still active (or never started) at the horizon.
    pub unfinished: usize,
}

/// One completed fluid flow.
#[derive(Clone, Copy, Debug)]
pub struct FluidFct {
    /// The flow.
    pub id: FlowId,
    /// Bytes transferred.
    pub bytes: u64,
    /// Start time.
    pub started: SimTime,
    /// Completion time.
    pub completed: SimTime,
}

impl FluidFct {
    /// Flow completion time.
    pub fn fct(&self) -> SimDuration {
        self.completed.saturating_since(self.started)
    }
}

impl FluidResult {
    /// Mean FCT in seconds over completed flows.
    pub fn mean_fct_secs(&self) -> f64 {
        if self.fct.is_empty() {
            return 0.0;
        }
        self.fct.iter().map(|f| f.fct().as_secs_f64()).sum::<f64>() / self.fct.len() as f64
    }
}

/// A directed link: a node's output port.
type LinkKey = (NodeId, PortId);

struct ActiveFlow {
    id: FlowId,
    remaining: f64,
    bytes: u64,
    started: SimTime,
    links: Vec<usize>, // indices into the dense link table
    rate: f64,         // bytes per second
}

/// Runs the fluid model over `flows` on `topo` until `horizon`.
///
/// Flow paths are the same ECMP paths the packet simulator would use, so
/// both simulators contend on identical links. Panics if any flow touches
/// a stub cluster (fluid simulation needs the real fabric).
pub fn simulate(topo: &Topology, flows: &[FlowSpec], horizon: SimTime) -> FluidResult {
    // Dense link table: discover links lazily per path.
    let mut link_index: HashMap<LinkKey, usize> = HashMap::new();
    let mut link_cap: Vec<f64> = Vec::new(); // bytes/sec

    // Pre-resolve every flow's path.
    let mut arrivals: Vec<(SimTime, usize)> = Vec::with_capacity(flows.len());
    let mut paths: Vec<Vec<usize>> = Vec::with_capacity(flows.len());
    for (i, f) in flows.iter().enumerate() {
        assert_ne!(f.src, f.dst, "self-flow {:?}", f.id);
        let mut links = Vec::new();
        let mut at = topo.host_node(f.src);
        let dst_node = topo.host_node(f.dst);
        for _hop in 0..10 {
            if at == dst_node {
                break;
            }
            assert!(
                !matches!(topo.node(at).kind, NodeKind::Boundary { .. }),
                "fluid simulation cannot cross stub fabrics"
            );
            let port = topo.route(at, f.dst, f.id);
            let key = (at, port);
            let idx = *link_index.entry(key).or_insert_with(|| {
                let spec = topo.node(at).ports[port.idx()];
                link_cap.push(spec.link.rate_gbps * 1e9 / 8.0);
                link_cap.len() - 1
            });
            links.push(idx);
            at = topo.node(at).ports[port.idx()].peer_node;
        }
        assert_eq!(at, dst_node, "path resolution failed for {:?}", f.id);
        arrivals.push((f.start, i));
        paths.push(links);
    }
    arrivals.sort_by_key(|&(t, i)| (t, i));

    let mut result = FluidResult::default();
    let mut active: Vec<ActiveFlow> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next_arrival = 0usize;

    loop {
        // Recompute max-min rates: we reach this point exactly after
        // membership changes.
        if !active.is_empty() {
            max_min_rates(&mut active, &link_cap);
            result.recomputes += 1;
        }

        // Earliest completion among active flows. Round the interval *up*
        // to a whole nanosecond: rounding down can produce a zero-length
        // step that drains no fluid and loops forever when a completion is
        // less than half a nanosecond away.
        let completion_t = active
            .iter()
            .map(|f| f.remaining / f.rate)
            .min_by(|a, b| a.partial_cmp(b).expect("rates are finite"))
            .map(|dt| {
                now + SimDuration::from_nanos((dt.max(0.0) * 1e9).ceil() as u64)
                    .max(SimDuration::from_nanos(1))
            });
        let arrival_t = arrivals.get(next_arrival).map(|&(t, _)| t);

        // Pick the next event.
        let event_t = match (arrival_t, completion_t) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (Some(a), Some(c)) => a.min(c),
        };
        if event_t > horizon {
            break;
        }

        // Drain fluid for the elapsed interval.
        let dt = event_t.saturating_since(now).as_secs_f64();
        for f in &mut active {
            f.remaining -= f.rate * dt;
        }
        now = event_t;

        // Apply all events at this instant: completions first (they free
        // capacity for simultaneous arrivals), then arrivals.
        let mut k = 0;
        while k < active.len() {
            if active[k].remaining <= 0.5 {
                let f = active.swap_remove(k);
                result.fct.push(FluidFct {
                    id: f.id,
                    bytes: f.bytes,
                    started: f.started,
                    completed: now,
                });
            } else {
                k += 1;
            }
        }
        while next_arrival < arrivals.len() && arrivals[next_arrival].0 == now {
            let (_, i) = arrivals[next_arrival];
            next_arrival += 1;
            let f = &flows[i];
            active.push(ActiveFlow {
                id: f.id,
                remaining: f.bytes as f64,
                bytes: f.bytes,
                started: now,
                links: paths[i].clone(),
                rate: 0.0,
            });
        }
    }

    result.unfinished = active.len() + (arrivals.len() - next_arrival);
    result.fct.sort_by_key(|f| (f.completed, f.id.0));
    result
}

/// Progressive filling: all unfrozen flows' rates rise together; each link
/// saturates at level `(cap − frozen)/unfrozen`, and the flows crossing the
/// first link to saturate freeze at that level.
fn max_min_rates(active: &mut [ActiveFlow], link_cap: &[f64]) {
    let nl = link_cap.len();
    let mut frozen_sum = vec![0.0f64; nl];
    let mut unfrozen_count = vec![0u32; nl];
    for f in active.iter() {
        for &l in &f.links {
            unfrozen_count[l] += 1;
        }
    }
    let mut frozen = vec![false; active.len()];
    let mut remaining = active.len();

    while remaining > 0 {
        // The saturation level of each link still carrying unfrozen flows.
        let mut level = f64::INFINITY;
        for l in 0..nl {
            if unfrozen_count[l] > 0 {
                let s = (link_cap[l] - frozen_sum[l]) / unfrozen_count[l] as f64;
                if s < level {
                    level = s;
                }
            }
        }
        assert!(level.is_finite(), "unfrozen flow on no link");
        let level = level.max(0.0);

        // Freeze every unfrozen flow crossing a link saturating at
        // (numerically) this level.
        let mut froze_any = false;
        for (k, f) in active.iter_mut().enumerate() {
            if frozen[k] {
                continue;
            }
            let bottleneck = f.links.iter().any(|&l| {
                let s = (link_cap[l] - frozen_sum[l]) / unfrozen_count[l] as f64;
                s <= level * (1.0 + 1e-9) + 1e-9
            });
            if bottleneck {
                frozen[k] = true;
                froze_any = true;
                f.rate = level.max(1.0); // ≥1 byte/s so completions terminate
                remaining -= 1;
            }
        }
        assert!(froze_any, "progressive filling failed to make progress");
        // Rebuild the per-link accounting from scratch for the next round;
        // at these model sizes clarity beats the incremental update.
        for l in 0..nl {
            frozen_sum[l] = 0.0;
            unfrozen_count[l] = 0;
        }
        for (k, f) in active.iter().enumerate() {
            for &l in &f.links {
                if frozen[k] {
                    frozen_sum[l] += f.rate;
                } else {
                    unfrozen_count[l] += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephant_core::run_ground_truth;
    use elephant_net::{ClosParams, HostAddr, NetConfig, RttScope};
    use proptest::prelude::*;

    /// The simulator's allocator run on a bare flow/link graph: `paths[k]`
    /// lists the link indices flow `k` crosses, `caps[l]` is link `l`'s
    /// capacity in bytes per second. Returns one rate per flow.
    fn max_min_allocation(paths: &[Vec<usize>], caps: &[f64]) -> Vec<f64> {
        let mut active: Vec<ActiveFlow> = paths
            .iter()
            .enumerate()
            .map(|(k, links)| {
                assert!(!links.is_empty(), "flow {k} crosses no link");
                assert!(
                    links.iter().all(|&l| l < caps.len()),
                    "flow {k} uses unknown link"
                );
                ActiveFlow {
                    id: FlowId(k as u64),
                    remaining: 1.0,
                    bytes: 1,
                    started: SimTime::ZERO,
                    links: links.clone(),
                    rate: 0.0,
                }
            })
            .collect();
        max_min_rates(&mut active, caps);
        active.iter().map(|f| f.rate).collect()
    }

    fn topo() -> Topology {
        Topology::clos(ClosParams::paper_cluster(2))
    }

    fn flow(id: u64, src: HostAddr, dst: HostAddr, bytes: u64, start_us: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId(id),
            src,
            dst,
            bytes,
            start: SimTime::from_micros(start_us),
        }
    }

    #[test]
    fn lone_flow_gets_line_rate() {
        let t = topo();
        // 10 Gbps = 1.25 GB/s; 1.25 MB should take exactly 1 ms.
        let flows = [flow(
            1,
            HostAddr::new(0, 0, 0),
            HostAddr::new(1, 0, 0),
            1_250_000,
            0,
        )];
        let r = simulate(&t, &flows, SimTime::from_secs(1));
        assert_eq!(r.fct.len(), 1);
        let fct = r.fct[0].fct().as_secs_f64();
        assert!((fct - 1e-3).abs() < 1e-6, "fct {fct}");
        assert_eq!(r.unfinished, 0);
    }

    #[test]
    fn two_flows_share_a_bottleneck_fairly() {
        let t = topo();
        // Both flows target the same host: its ToR-to-host link is the
        // bottleneck; each gets 5 Gbps.
        let dst = HostAddr::new(1, 0, 0);
        let flows = [
            flow(1, HostAddr::new(0, 0, 0), dst, 1_250_000, 0),
            flow(2, HostAddr::new(0, 0, 1), dst, 1_250_000, 0),
        ];
        let r = simulate(&t, &flows, SimTime::from_secs(1));
        assert_eq!(r.fct.len(), 2);
        for f in &r.fct {
            let fct = f.fct().as_secs_f64();
            assert!((fct - 2e-3).abs() < 1e-5, "fair-share fct {fct}");
        }
    }

    #[test]
    fn short_flow_finishes_then_long_flow_speeds_up() {
        let t = topo();
        let dst = HostAddr::new(1, 0, 0);
        let flows = [
            flow(1, HostAddr::new(0, 0, 0), dst, 12_500_000, 0), // 10 ms alone
            flow(2, HostAddr::new(0, 0, 1), dst, 625_000, 0),    // 0.5 ms alone
        ];
        let r = simulate(&t, &flows, SimTime::from_secs(1));
        // Short flow at 5 Gb/s: 1 ms. Long flow: 1 ms at half rate
        // (0.625 MB done) then 11.875 MB at full rate = 9.5 ms; total 10.5 ms.
        let by_id: HashMap<u64, f64> = r
            .fct
            .iter()
            .map(|f| (f.id.0, f.fct().as_secs_f64()))
            .collect();
        assert!((by_id[&2] - 1e-3).abs() < 1e-5, "short {}", by_id[&2]);
        assert!((by_id[&1] - 10.5e-3).abs() < 1e-4, "long {}", by_id[&1]);
    }

    #[test]
    fn many_random_flows_all_complete() {
        let t = topo();
        let flows: Vec<FlowSpec> = (0..12)
            .map(|i| {
                flow(
                    i + 1,
                    HostAddr::new(0, (i % 2) as u16, (i % 4) as u16),
                    HostAddr::new(1, ((i + 1) % 2) as u16, ((i + 2) % 4) as u16),
                    1_000_000,
                    i * 13,
                )
            })
            .collect();
        let r = simulate(&t, &flows, SimTime::from_secs(10));
        assert_eq!(r.fct.len(), 12);
        assert_eq!(r.unfinished, 0);
        assert!(
            r.recomputes >= 12,
            "recomputes track membership changes, got {}",
            r.recomputes
        );
    }

    #[test]
    fn sub_nanosecond_completions_terminate() {
        // Regression: a flow whose remaining bytes drain in under half a
        // nanosecond used to produce a zero-length step and livelock.
        let t = topo();
        let flows: Vec<FlowSpec> = (0..6)
            .map(|i| {
                flow(
                    i + 1,
                    HostAddr::new(0, 0, (i % 4) as u16),
                    HostAddr::new(1, 0, ((i + 1) % 4) as u16),
                    1 + i, // 1..6 bytes: completions land at sub-ns offsets
                    0,
                )
            })
            .collect();
        let r = simulate(&t, &flows, SimTime::from_secs(1));
        assert_eq!(r.fct.len(), 6);
    }

    #[test]
    fn horizon_truncates() {
        let t = topo();
        let flows = [flow(
            1,
            HostAddr::new(0, 0, 0),
            HostAddr::new(1, 0, 0),
            u64::MAX / 4,
            0,
        )];
        let r = simulate(&t, &flows, SimTime::from_millis(1));
        assert_eq!(r.fct.len(), 0);
        assert_eq!(r.unfinished, 1);
    }

    #[test]
    fn deterministic() {
        let t = topo();
        let flows: Vec<FlowSpec> = (0..20)
            .map(|i| {
                flow(
                    i + 1,
                    HostAddr::new((i % 2) as u16, (i % 2) as u16, (i % 4) as u16),
                    HostAddr::new(((i + 1) % 2) as u16, 0, ((i + 3) % 4) as u16),
                    100_000 + i * 999,
                    i * 7,
                )
            })
            .collect();
        let a = simulate(&t, &flows, SimTime::from_secs(5));
        let b = simulate(&t, &flows, SimTime::from_secs(5));
        assert_eq!(a.fct.len(), b.fct.len());
        for (x, y) in a.fct.iter().zip(b.fct.iter()) {
            assert_eq!(x.completed, y.completed);
        }
    }

    #[test]
    fn fluid_incast_completes_serenely() {
        // Structural statement of the baseline's blind spot: the result
        // type has no drop counter at all, and an incast that devastates
        // the packet simulator completes here with zero anomalies.
        let t = topo();
        let dst = HostAddr::new(0, 0, 0);
        let flows: Vec<FlowSpec> = (0..8)
            .map(|i| {
                flow(
                    i + 1,
                    HostAddr::new(1, (i % 2) as u16, ((i / 2) % 4) as u16),
                    dst,
                    500_000,
                    0,
                )
            })
            .collect();
        let r = simulate(&t, &flows, SimTime::from_secs(1));
        assert_eq!(r.fct.len(), 8, "fluid incast completes serenely");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Max-min allocations are feasible (no link oversubscribed) and
        /// water-filling fair (every flow is bottlenecked: some link it
        /// crosses is saturated and it has a maximal rate there).
        #[test]
        fn max_min_is_feasible_and_fair(
            n_links in 1usize..6,
            flows in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 1..8),
            caps in proptest::collection::vec(1.0e6f64..1.0e9, 6),
        ) {
            // Clamp link indices into range and dedup within a flow.
            let paths: Vec<Vec<usize>> = flows
                .iter()
                .map(|p| {
                    let mut q: Vec<usize> = p.iter().map(|&l| l % n_links).collect();
                    q.sort_unstable();
                    q.dedup();
                    q
                })
                .collect();
            let caps = &caps[..n_links];
            let rates = max_min_allocation(&paths, caps);
            prop_assert_eq!(rates.len(), paths.len());

            // Feasibility with a small numerical margin.
            let mut load = vec![0.0f64; n_links];
            for (p, &r) in paths.iter().zip(&rates) {
                prop_assert!(r > 0.0);
                for &l in p {
                    load[l] += r;
                }
            }
            for l in 0..n_links {
                prop_assert!(load[l] <= caps[l] * 1.0001 + 1.0, "link {l} oversubscribed");
            }

            // Max-min property: each flow crosses a saturated link on which
            // no other flow gets a higher rate.
            for (p, &r) in paths.iter().zip(&rates) {
                let bottlenecked = p.iter().any(|&l| {
                    let saturated = load[l] >= caps[l] * 0.999 - 1.0;
                    let maximal = paths
                        .iter()
                        .zip(&rates)
                        .filter(|(q, _)| q.contains(&l))
                        .all(|(_, &r2)| r2 <= r * 1.0001 + 1.0);
                    saturated && maximal
                });
                prop_assert!(bottlenecked, "flow with rate {r} has no bottleneck");
            }
        }
    }

    /// Fluid vs packet agreement on an uncontended transfer: both engines
    /// should report FCTs within a factor of two (the fluid one is an ideal
    /// lower bound; TCP adds handshake and slow-start).
    #[test]
    fn fluid_lower_bounds_packet_fct() {
        let params = ClosParams::paper_cluster(2);
        let topo = Topology::clos(params);
        let flows = [FlowSpec {
            id: FlowId(1),
            src: HostAddr::new(0, 0, 0),
            dst: HostAddr::new(1, 0, 0),
            bytes: 2_000_000,
            start: SimTime::ZERO,
        }];
        let fluid = simulate(&topo, &flows, SimTime::from_secs(5));
        let cfg = NetConfig {
            rtt_scope: RttScope::None,
            ..Default::default()
        };
        let (net, _) = run_ground_truth(params, cfg, None, &flows, SimTime::from_secs(5));
        let fluid_fct = fluid.fct[0].fct().as_secs_f64();
        let packet_fct: HashMap<u64, f64> = net
            .stats
            .fct
            .iter()
            .map(|r| (r.flow.0, r.fct().as_secs_f64()))
            .collect();
        let p = packet_fct[&1];
        assert!(
            p >= fluid_fct * 0.95,
            "fluid {fluid_fct} lower-bounds packet {p}"
        );
        assert!(
            p <= fluid_fct * 2.0,
            "packet {p} within 2x of fluid {fluid_fct}"
        );
    }
}
