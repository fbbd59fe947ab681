//! Property-based tests over the workspace's core invariants.
//!
//! Each property targets an invariant called out in DESIGN.md: routing
//! validity on arbitrary Clos shapes, TCP liveness under arbitrary loss
//! patterns, KS-distance metric axioms, size-distribution monotonicity, and
//! workload well-formedness.

use std::sync::Arc;

use elephant::core::{FeatureQuantizer, ModelMeta, QuantizerConfig, FEATURE_DIM, NAN_BUCKET};
use elephant::des::{SimTime, Simulator};
use elephant::net::{
    schedule_flows, ClosParams, Direction, FlowId, FlowSpec, NetConfig, Network, NodeKind,
    RttScope, Topology,
};
use elephant::obs::EmpiricalCdf;
use elephant::trace::SizeDist;
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ClosParams> {
    (1u16..=4, 1u16..=4, 1u16..=4, 1u16..=3, 1u16..=3).prop_map(
        |(clusters, racks, hosts, aggs, cores)| ClosParams {
            clusters,
            racks_per_cluster: racks,
            hosts_per_rack: hosts,
            aggs_per_cluster: aggs,
            cores_per_group: cores,
            ..ClosParams::paper_cluster(1)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any packet routed hop-by-hop from any host reaches its destination
    /// within the Clos diameter, and up/down routing never loops.
    #[test]
    fn routing_reaches_destination(params in arb_params(), flow in 0u64..1000) {
        let topo = Topology::clos(params);
        let hosts = topo.all_hosts();
        prop_assume!(hosts.len() >= 2);
        let src = hosts[flow as usize % hosts.len()];
        let dst = hosts[(flow as usize * 7 + 1) % hosts.len()];
        prop_assume!(src != dst);
        let mut at = topo.host_node(src);
        let dst_node = topo.host_node(dst);
        let mut hops = 0;
        while at != dst_node {
            let port = topo.route(at, dst, FlowId(flow));
            at = topo.node(at).ports[port.idx()].peer_node;
            hops += 1;
            prop_assert!(hops <= 6, "Clos diameter exceeded");
        }
    }

    /// The wiring is symmetric for every generated shape.
    #[test]
    fn wiring_is_symmetric(params in arb_params()) {
        let topo = Topology::clos(params); // construction self-checks
        // Additionally: every non-boundary port's peer points back.
        for (i, node) in topo.nodes().iter().enumerate() {
            for (pi, port) in node.ports.iter().enumerate() {
                let peer = topo.node(port.peer_node);
                if !matches!(peer.kind, NodeKind::Boundary { .. }) {
                    let back = peer.ports[port.peer_port.idx()];
                    prop_assert_eq!(back.peer_node.idx(), i);
                    prop_assert_eq!(back.peer_port.idx(), pi);
                }
            }
        }
    }

    /// KS distance is a metric-ish: symmetric, zero on self, in [0,1].
    #[test]
    fn ks_axioms(
        a in proptest::collection::vec(0.0f64..1e3, 1..200),
        b in proptest::collection::vec(0.0f64..1e3, 1..200),
    ) {
        let ca = EmpiricalCdf::from_samples(&a);
        let cb = EmpiricalCdf::from_samples(&b);
        let d_ab = ca.ks_distance(&cb);
        let d_ba = cb.ks_distance(&ca);
        prop_assert!((d_ab - d_ba).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0).contains(&d_ab));
        prop_assert!(ca.ks_distance(&ca) == 0.0);
    }

    /// Size-distribution quantiles are monotone and samples live within
    /// the distribution's support.
    #[test]
    fn size_dist_support(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let d = SizeDist::web_search();
        let (lo, hi) = (u1.min(u2), u1.max(u2));
        prop_assert!(d.quantile(lo) <= d.quantile(hi));
        prop_assert!(d.quantile(0.0) >= 1);
        prop_assert!(d.quantile(1.0) <= 20_000_000);
    }

    /// TCP under arbitrary port-queue capacities still completes every
    /// flow eventually (liveness under loss): a randomized stress of the
    /// whole engine.
    #[test]
    fn flows_complete_under_random_shallow_queues(
        queue_cap in 4_500u64..60_000,
        n_flows in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut params = ClosParams::paper_cluster(2);
        params.host_link.queue_cap_bytes = queue_cap;
        params.fabric_link.queue_cap_bytes = queue_cap;
        params.core_link.queue_cap_bytes = queue_cap;
        let topo = Arc::new(Topology::clos(params));
        let hosts = topo.all_hosts();
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|i| {
                let s = hosts[(seed as usize + i * 3) % hosts.len()];
                let mut d = hosts[(seed as usize + i * 7 + 1) % hosts.len()];
                if d == s {
                    d = hosts[(seed as usize + i * 7 + 2) % hosts.len()];
                }
                FlowSpec {
                    id: FlowId(i as u64 + 1),
                    src: s,
                    dst: d,
                    bytes: 20_000 + (seed % 50_000),
                    start: SimTime::from_micros(i as u64 * 50),
                }
            })
            .filter(|f| f.src != f.dst)
            .collect();
        prop_assume!(!flows.is_empty());
        let cfg = NetConfig { rtt_scope: RttScope::None, ..Default::default() };
        let mut sim = Simulator::new(Network::new(topo, cfg));
        schedule_flows(&mut sim, &flows);
        sim.run_until(SimTime::from_secs(60));
        prop_assert_eq!(
            sim.world().stats.flows_completed as usize,
            flows.len(),
            "all flows complete despite shallow queues (drops: {})",
            sim.world().stats.drops.total()
        );
        let total: u64 = flows.iter().map(|f| f.bytes).sum();
        prop_assert_eq!(sim.world().stats.delivered_bytes, total);
    }

    /// Flow-ids shared between opposite directions never collide in the
    /// connection tables: canonical/reverse round-trips.
    #[test]
    fn flow_id_direction_bits(raw in 0u64..u64::MAX / 4) {
        let f = FlowId(raw);
        prop_assert!(!f.is_reverse());
        prop_assert!(f.reverse().is_reverse());
        prop_assert_eq!(f.reverse().canonical(), f);
    }

    /// The verdict-cache quantizer is total: any f32 bit pattern buckets
    /// without panicking, for any configured resolution. NaN maps to its
    /// reserved sentinel; every finite or infinite value stays strictly
    /// below it.
    #[test]
    fn quantizer_is_total(bits in any::<u32>(), levels in any::<u8>()) {
        let q = FeatureQuantizer::new(QuantizerConfig { levels });
        let v = f32::from_bits(bits);
        let b = q.bucket(v);
        if v.is_nan() {
            prop_assert_eq!(b, NAN_BUCKET);
        } else {
            prop_assert!(b < NAN_BUCKET, "value {v:e} escaped the bucket range: {b}");
        }
    }

    /// Bucketing is monotone per dimension: a larger feature value never
    /// lands in a smaller bucket (NaN excluded — it has its own sentinel).
    #[test]
    fn quantizer_is_monotone(
        a in -1.0e3f32..1.0e3,
        b in -1.0e3f32..1.0e3,
        levels in any::<u8>(),
    ) {
        let q = FeatureQuantizer::new(QuantizerConfig { levels });
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(
            q.bucket(lo) <= q.bucket(hi),
            "bucket({lo}) = {} > bucket({hi}) = {}",
            q.bucket(lo),
            q.bucket(hi)
        );
    }

    /// The quantizer survives the model artifact round trip: a
    /// `ModelMeta` saved and reloaded through JSON produces a quantizer
    /// whose keys are bit-identical to the original's — cached-run
    /// behavior cannot drift across save/load.
    #[test]
    fn quantizer_stable_across_meta_round_trip(
        features in proptest::collection::vec(-10.0f32..10.0, FEATURE_DIM),
        state_idx in 0u8..4,
        up in any::<bool>(),
        levels in any::<u8>(),
    ) {
        let meta = ModelMeta {
            quantizer: QuantizerConfig { levels },
            ..ModelMeta::default()
        };
        let json = serde_json::to_string(&meta).unwrap();
        let reloaded: ModelMeta = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(reloaded.quantizer, meta.quantizer);

        let dir = if up { Direction::Up } else { Direction::Down };
        let q0 = FeatureQuantizer::new(meta.quantizer);
        let q1 = FeatureQuantizer::new(reloaded.quantizer);
        prop_assert_eq!(
            q0.key(&features, dir, state_idx),
            q1.key(&features, dir, state_idx)
        );
    }
}
