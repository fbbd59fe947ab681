//! Differential lockdown for the verdict cache: memoization is a pure
//! speedup, not a behavior change. Cache-on and cache-off runs are
//! compared at the distribution level (drop rate, latency mean/p99, KS
//! distance) because a cache hit skips the RNG draw a `Sample`-policy
//! miss would have made — the streams are statistically equivalent, not
//! bit-equal. The bit-level contract is separate: under a deterministic
//! drop policy, replaying a bucket-exact stream returns verdicts
//! bit-identical to the first pass.

use elephant::core::{
    run_ground_truth, run_hybrid, train_cluster_model, ClusterModel, DropPolicy, LatencyCodec,
    LearnedOracle, MacroConfig, ModelMeta, TrainingOptions,
};
use elephant::des::SmallRng;
use elephant::des::{SimDuration, SimTime};
use elephant::net::{
    BoundaryRecord, ClosParams, ClusterOracle, Direction, Ecn, FlowId, HostAddr, NetConfig,
    OracleCtx, Packet, RawVerdict, RttScope, TcpFlags, TcpSegment, Topology,
};
use elephant::nn::{MicroNet, MicroNetConfig};
use elephant::trace::{filter_touching_cluster, generate, WorkloadConfig};

const HORIZON: SimTime = SimTime::from_millis(12);
const CACHE_CAP: usize = 65_536;

fn hybrid_cfg() -> NetConfig {
    NetConfig {
        rtt_scope: RttScope::Cluster(0),
        ..Default::default()
    }
}

/// Trains a small but real model so both oracles under test run the
/// deployed inference path.
fn trained_model(seed: u64) -> (ClusterModel, ClosParams, Vec<elephant::net::FlowSpec>) {
    let params = ClosParams::paper_cluster(2);
    let flows = generate(&params, &WorkloadConfig::paper_default(HORIZON, seed));
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
    (model, params, flows)
}

/// Two-sample Kolmogorov–Smirnov distance.
fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            i += 1;
        } else {
            j += 1;
        }
        let gap = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
        d = d.max(gap);
    }
    d
}

/// 1-Wasserstein (earth-mover) distance between two sorted samples,
/// computed as the integral of |F_a - F_b| over the latency axis.
fn wasserstein1(a_sorted: &[f64], b_sorted: &[f64]) -> f64 {
    let mut xs: Vec<f64> = a_sorted.iter().chain(b_sorted).copied().collect();
    xs.sort_by(f64::total_cmp);
    let cdf = |v: &[f64], x: f64| v.partition_point(|&s| s <= x) as f64 / v.len() as f64;
    xs.windows(2)
        .map(|w| (cdf(a_sorted, w[0]) - cdf(b_sorted, w[0])).abs() * (w[1] - w[0]))
        .sum()
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The workload seeds the closed-loop comparison is judged over: fixed,
/// and the first five, not ones picked because they pass.
const GATE_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// Median of a handful of per-seed statistics.
fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Full hybrid runs, cache-off vs cache-on: the oracle drop rates must
/// agree and the end-to-end RTT distributions must be close in KS
/// distance, as medians over [`GATE_SEEDS`]. A single seed is a tripwire on
/// one workload draw: the gate used to be seed 17 alone (KS < 0.35), and at
/// the parent of PR 21 seeds 7 and 9 read 0.44 and 0.53 with the same code.
///
/// Bounds, from the parent's seeds 1–12: drop-rate difference median
/// < 0.01 (worst seed 0.0088, median 0.0033) and RTT KS median < 0.25
/// (median 0.113, upper quartile 0.18). On these five seeds the medians
/// read 0.0029 / 0.113 at the parent and 0.0016 / 0.129 with the rational
/// activations.
#[test]
fn cached_hybrid_matches_uncached_statistics() {
    let mut drop_diff = Vec::new();
    let mut ks = Vec::new();
    for seed in GATE_SEEDS {
        let (model, params, flows) = trained_model(seed);
        let elided = filter_touching_cluster(&flows, 0);

        let run = |oracle: Box<dyn ClusterOracle + Send>| {
            let (net, _) = run_hybrid(params, 0, oracle, hybrid_cfg(), &elided, HORIZON);
            let verdicts = net.stats.oracle_deliveries + net.stats.drops.oracle;
            let drop_rate = net.stats.drops.oracle as f64 / verdicts.max(1) as f64;
            (drop_rate, net.stats.raw_rtt(), verdicts)
        };

        let (dr_off, rtt_off, v_off) = run(Box::new(LearnedOracle::new(
            model.clone(),
            params,
            DropPolicy::Sample,
            0xFACE,
        )));
        let cached =
            LearnedOracle::with_cache(model, params, DropPolicy::Sample, 0xFACE, CACHE_CAP);
        let stats = cached.cache_stats_handle().expect("cache enabled");
        let (dr_on, rtt_on, v_on) = run(Box::new(cached));

        assert!(
            v_off > 1_000 && v_on > 1_000,
            "seed {seed}: oracles were exercised"
        );
        let snap = stats.snapshot();
        assert!(
            snap.hit_rate() > 0.25,
            "seed {seed}: cache must actually serve verdicts (hit rate {:.3})",
            snap.hit_rate()
        );
        drop_diff.push((dr_on - dr_off).abs());
        ks.push(ks_distance(&rtt_off, &rtt_on));
    }
    assert!(
        median(&drop_diff) < 0.01,
        "oracle drop rate diverged: per-seed |on - off| {drop_diff:.4?}"
    );
    // The KS bound is loose by design: a cache hit skips the RNG draw and
    // serves the bucket-representative latency, and the closed TCP loop
    // amplifies those per-verdict differences into different drop/retransmit
    // schedules. The tight distributional bounds live in the open-loop test
    // below; here KS only has to rule out gross divergence.
    assert!(
        median(&ks) < 0.25,
        "RTT distributions diverged: per-seed KS {ks:.3?}"
    );
}

/// Regime-pinned Minimal macro config: latency never dips below the
/// threshold and the drop gate never opens, so no transition ever flushes
/// the cache mid-test.
fn pinned_minimal() -> MacroConfig {
    MacroConfig {
        latency_low: 1e9,
        drop_high: 1.1,
        ..MacroConfig::default()
    }
}

fn untrained_model(seed: u64) -> ClusterModel {
    let cfg = MicroNetConfig {
        input: elephant::core::FEATURE_DIM,
        hidden: 16,
        layers: 1,
        alpha: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    ClusterModel {
        up: MicroNet::new(cfg, &mut rng),
        down: MicroNet::new(cfg, &mut rng),
        macro_cfg: pinned_minimal(),
        codec: LatencyCodec::default(),
        meta: ModelMeta::default(),
    }
}

/// A repetitive boundary stream: `pairs` flows, constant size, constant
/// inter-arrival gap — every packet of a pair quantizes to the same key
/// once the gap EWMA settles.
fn stream(
    topo: &Topology,
    pairs: usize,
    n: usize,
    start: SimTime,
    payload: u32,
) -> Vec<(Packet, elephant::net::FabricPath, SimTime)> {
    let mut now = start;
    (0..n)
        .map(|i| {
            let pair = i % pairs;
            let src = HostAddr::new(1, (pair % 4) as u16, (pair / 4) as u16);
            let dst = HostAddr::new(0, (pair % 2) as u16, 0);
            let flow = FlowId(pair as u64);
            let path = topo.fabric_path(src, dst, flow);
            let pkt = Packet {
                id: i as u64,
                flow,
                src,
                dst,
                seg: TcpSegment {
                    seq: i as u64,
                    ack: 0,
                    flags: TcpFlags::default(),
                    payload_len: payload,
                    ece: false,
                    cwr: false,
                },
                ecn: Ecn::NotCapable,
                sent_at: now,
            };
            let out = (pkt, path, now);
            now += SimDuration::from_nanos(2_000);
            out
        })
        .collect()
}

fn drive(
    oracle: &mut LearnedOracle,
    topo: &Topology,
    pkts: &[(Packet, elephant::net::FabricPath, SimTime)],
) -> Vec<RawVerdict> {
    pkts.iter()
        .map(|(pkt, path, now)| {
            let ctx = OracleCtx {
                topo,
                cluster: 1,
                direction: Direction::Up,
                path: *path,
                profile: false,
            };
            oracle.classify_raw(&ctx, pkt, *now)
        })
        .collect()
}

/// Driving `classify_raw` directly (the seam the guard and the network
/// pull from): cached and uncached verdict latencies must agree on mean,
/// p99, and KS distance.
#[test]
fn cached_latency_distribution_matches_uncached() {
    let topo = Topology::clos_with_stubs(ClosParams::paper_cluster(2), &[1]);
    let params = ClosParams::paper_cluster(2);
    let n = 20_000;

    // Deterministic drop policy: this test isolates the *latency* head
    // (drop-rate equivalence under `Sample` is the hybrid test's job). A
    // cached hit replays the frozen first draw of its key, so with few
    // distinct keys a sampled-drop comparison measures RNG artifacts, not
    // the cache.
    let policy = DropPolicy::Threshold(0.9);
    let latencies = |cache: bool| {
        let model = untrained_model(99);
        let mut oracle = if cache {
            LearnedOracle::with_cache(model, params, policy, 7, CACHE_CAP)
        } else {
            LearnedOracle::new(model, params, policy, 7)
        };
        // Warm up on an *adjacent-bucket* payload (1400 quantizes to size
        // bucket 14, 1460 to bucket 15): the RNN state converges to its
        // steady orbit without the warmup keys colliding with the measured
        // stream's keys, and the switch barely perturbs the input — so
        // every cached value below is captured on the same orbit the
        // uncached outputs come from.
        let w = 4_096;
        drive(
            &mut oracle,
            &topo,
            &stream(&topo, 8, w, SimTime::from_nanos(1), 1400),
        );
        let start = SimTime::from_nanos(1) + SimDuration::from_nanos(w as u64 * 2_000);
        let pkts = stream(&topo, 8, n, start, 1460);
        let mut lats: Vec<f64> = drive(&mut oracle, &topo, &pkts)
            .into_iter()
            .filter_map(|v| match v {
                RawVerdict::Deliver { latency_secs } => Some(latency_secs),
                RawVerdict::Drop => None,
            })
            .collect();
        lats.sort_by(f64::total_cmp);
        lats
    };

    let off = latencies(false);
    let on = latencies(true);
    // An untrained drop head sits near 0.5, so roughly half the stream
    // delivers — plenty of samples either way.
    assert!(off.len() > n / 5 && on.len() > n / 5, "enough deliveries");

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (m_off, m_on) = (mean(&off), mean(&on));
    assert!(
        (m_on - m_off).abs() / m_off.max(1e-12) < 0.10,
        "mean latency diverged: off {m_off:.3e} vs on {m_on:.3e}"
    );
    let (p_off, p_on) = (quantile(&off, 0.99), quantile(&on, 0.99));
    assert!(
        (p_on - p_off).abs() / p_off.max(1e-12) < 0.15,
        "p99 latency diverged: off {p_off:.3e} vs on {p_on:.3e}"
    );
    // The model's output here is nearly atomic (a period-2 orbit), and KS
    // punishes any mass shift between nearby atoms — so it only guards
    // against gross divergence. The sharp distributional bound is the
    // mean-normalized 1-Wasserstein distance, which weights mass shifts by
    // how far the latency actually moved.
    let ks = ks_distance(&off, &on);
    assert!(ks < 0.35, "latency KS distance {ks:.3}");
    let w1 = wasserstein1(&off, &on);
    assert!(
        w1 / m_off < 0.05,
        "normalized W1 distance {:.4} (W1 {w1:.3e}, mean {m_off:.3e})",
        w1 / m_off
    );
}

/// The memoization contract, bit-exact: under a deterministic drop policy
/// and a pinned macro regime, replaying a bucket-exact stream serves every
/// verdict from the cache, bit-identical to the first pass.
#[test]
fn bucket_exact_replay_is_bit_identical() {
    let topo = Topology::clos_with_stubs(ClosParams::paper_cluster(2), &[1]);
    let params = ClosParams::paper_cluster(2);
    let mut oracle = LearnedOracle::with_cache(
        untrained_model(5),
        params,
        DropPolicy::Threshold(0.5),
        3,
        CACHE_CAP,
    );
    let stats = oracle.cache_stats_handle().expect("cache enabled");

    // Warmup settles the per-flow gap EWMAs into stable buckets.
    let warmup = stream(&topo, 4, 512, SimTime::from_nanos(1), 1460);
    drive(&mut oracle, &topo, &warmup);

    // The two passes continue the same constant-gap stream, so every
    // packet carries identical gap features — bucket-exact by
    // construction, without rewinding the clock between passes.
    let k = 2_000;
    let start1 = SimTime::from_nanos(1) + SimDuration::from_nanos(512 * 2_000);
    let start2 = start1 + SimDuration::from_nanos(k as u64 * 2_000);
    let pass1 = drive(&mut oracle, &topo, &stream(&topo, 4, k, start1, 1460));
    let hits_before = stats.snapshot().hits;
    let pass2 = drive(&mut oracle, &topo, &stream(&topo, 4, k, start2, 1460));

    assert_eq!(pass1, pass2, "replay must be bit-identical");
    let snap = stats.snapshot();
    assert_eq!(
        snap.hits - hits_before,
        k as u64,
        "every replayed verdict must come from the cache"
    );
    assert_eq!(snap.invalidations, 0, "pinned regime never flushes");
}
