//! Criterion micro-benchmarks for the hot kernels underneath every
//! experiment: the event queue, the forwarding path, oracle inference,
//! feature extraction, workload generation, and the statistics kernels.
//!
//! These are the per-operation costs that the figure-level results
//! decompose into; regressions here move every figure.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use elephant_core::{FeatureExtractor, LatencyCodec, MacroState, FEATURE_DIM};
use elephant_des::{splitmix64, Scheduler, SimDuration, SimTime, Simulator};
use elephant_net::{
    schedule_flows, ClosParams, Direction, FlowId, HostAddr, NetConfig, Network, RttScope, Topology,
};
use elephant_nn::{Matrix, MicroNet, MicroNetConfig};
use elephant_obs::EmpiricalCdf;
use elephant_trace::{generate, SizeDist, WorkloadConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("des/event_queue");
    g.throughput(Throughput::Elements(1));
    g.bench_function("schedule_pop_1k_pending", |b| {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut t = 0u64;
        for i in 0..1000 {
            s.schedule_at(SimTime::from_nanos(i * 100), i);
        }
        b.iter(|| {
            t += 1;
            let (time, _) = s.pop().expect("non-empty");
            s.schedule_at(time + SimDuration::from_micros(100), t);
        });
    });
    // The same hold-model cycle against both FEL backends at a density
    // where the bucketed scan pays off (100k pending events). This pair
    // is the per-operation view of `pdes_scaling`'s density-sweep gate.
    fn hold_cycle<F: elephant_des::Fel<u64>>(b: &mut criterion::Bencher, n: u64) {
        let mut s: Scheduler<u64, F> = Scheduler::new();
        let mut t = 0u64;
        for i in 0..n {
            s.schedule_at(SimTime::from_nanos(splitmix64(i) % 4_000_000), i);
        }
        b.iter(|| {
            t += 1;
            let (time, _) = s.pop().expect("non-empty");
            let off = splitmix64(t) % 4_000_000 + 1;
            s.schedule_at(time + SimDuration::from_nanos(off), t);
        });
    }
    g.bench_function("hold_100k_pending_heap", |b| {
        hold_cycle::<elephant_des::BinaryHeapFel<u64>>(b, 100_000)
    });
    g.bench_function("hold_100k_pending_calendar", |b| {
        hold_cycle::<elephant_des::CalendarFel<u64>>(b, 100_000)
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let topo = Topology::clos(ClosParams::paper_cluster(16));
    let mut g = c.benchmark_group("net/routing");
    g.throughput(Throughput::Elements(1));
    let tor = topo.tor_node(3, 0).unwrap();
    g.bench_function("route_at_tor", |b| {
        let mut f = 0u64;
        b.iter(|| {
            f += 1;
            topo.route(tor, HostAddr::new(12, 1, 2), FlowId(f))
        });
    });
    g.bench_function("fabric_path", |b| {
        let mut f = 0u64;
        b.iter(|| {
            f += 1;
            topo.fabric_path(HostAddr::new(3, 0, 1), HostAddr::new(12, 1, 2), FlowId(f))
        });
    });
    g.finish();
}

fn bench_nn(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut g = c.benchmark_group("nn");
    for (h, l) in [(32usize, 2usize), (128, 2)] {
        let cfg = MicroNetConfig {
            input: FEATURE_DIM,
            hidden: h,
            layers: l,
            alpha: 0.5,
        };
        let model = MicroNet::new(cfg, &mut rng);
        let x = vec![0.3f32; FEATURE_DIM];
        g.throughput(Throughput::Elements(1));
        g.bench_function(format!("predict_{l}x{h}"), |b| {
            let mut state = model.init_state();
            b.iter(|| model.predict(&x, &mut state));
        });
    }
    let m = Matrix::xavier(128, 128, &mut rng);
    let x = vec![0.5f32; 128];
    let mut y = vec![0.0f32; 128];
    g.throughput(Throughput::Elements(128 * 128));
    g.bench_function("matvec_128x128", |b| b.iter(|| m.matvec(&x, &mut y)));
    g.finish();
}

fn bench_features(c: &mut Criterion) {
    let params = ClosParams::paper_cluster(16);
    let topo = Topology::clos(params);
    let path = topo.fabric_path(HostAddr::new(1, 0, 0), HostAddr::new(0, 1, 2), FlowId(5));
    let mut g = c.benchmark_group("core");
    g.throughput(Throughput::Elements(1));
    g.bench_function("feature_extract", |b| {
        let mut fx = FeatureExtractor::new(&params);
        let mut t = 0u64;
        b.iter(|| {
            t += 50;
            fx.extract(
                HostAddr::new(1, 0, 0),
                HostAddr::new(0, 1, 2),
                1500,
                Direction::Up,
                &path,
                SimTime::from_nanos(t),
                MacroState::Increasing,
            )
        });
    });
    let codec = LatencyCodec::default();
    g.bench_function("latency_codec_round_trip", |b| {
        b.iter(|| codec.decode(codec.encode(SimDuration::from_micros(87))))
    });
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/simulation");
    g.sample_size(10);
    // Cost of simulating one millisecond of a loaded 2-cluster network.
    g.bench_function("two_cluster_1ms", |b| {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(1);
        let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 5));
        b.iter_batched(
            || {
                let topo = Arc::new(Topology::clos(params));
                let cfg = NetConfig {
                    rtt_scope: RttScope::None,
                    ..Default::default()
                };
                let mut sim = Simulator::new(Network::new(topo, cfg));
                schedule_flows(&mut sim, &flows);
                sim
            },
            |mut sim| {
                sim.run_until(horizon);
                sim.scheduler().executed_total()
            },
            BatchSize::PerIteration,
        );
    });
    g.finish();
}

fn bench_workload_and_stats(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.bench_function("generate_10ms_4clusters", |b| {
        let params = ClosParams::paper_cluster(4);
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            generate(
                &params,
                &WorkloadConfig::paper_default(SimTime::from_millis(10), seed),
            )
        });
    });
    g.bench_function("size_dist_sample", |b| {
        let d = SizeDist::web_search();
        let mut rng = SmallRng::seed_from_u64(2);
        b.iter(|| d.sample(&mut rng));
    });
    let mut rng = SmallRng::seed_from_u64(3);
    let a: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>()).collect();
    let bsamples: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 1.1).collect();
    let ca = EmpiricalCdf::from_samples(&a);
    let cb = EmpiricalCdf::from_samples(&bsamples);
    g.bench_function("ks_distance_10k", |b| b.iter(|| ca.ks_distance(&cb)));
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_routing,
    bench_nn,
    bench_features,
    bench_simulation,
    bench_workload_and_stats
);
criterion_main!(benches);
