//! Oracle fast-path micro-benchmark: ns/verdict and cache hit rate across
//! the four congestion regimes.
//!
//! Drives [`elephant_core::LearnedOracle::classify_raw`] directly — the
//! exact seam [`elephant_net::GuardedOracle`] pulls from in hybrid runs —
//! over four synthetic boundary streams, each pinned to (or churning
//! through) one macro regime via its [`MacroConfig`] thresholds:
//!
//! * **minimal** — the cache-friendly *reference workload*: a handful of
//!   flows, constant packet size and spacing, regime pinned Minimal. This
//!   is the stream the CI gates run on.
//! * **increasing** — `latency_low = 0` keeps the smoothed latency above
//!   the Minimal threshold with a flat trend, reading Increasing.
//! * **high** — `drop_high = 0` pins the High regime.
//! * **decreasing** — a sluggish fast-EWMA against a reactive slow-EWMA
//!   makes the trend comparison oscillate, churning Increasing ↔
//!   Decreasing — the adversarial case where every transition flushes the
//!   cache.
//!
//! Each stream is measured cache-off (plain [`LearnedOracle::new`]) and
//! cache-on ([`LearnedOracle::with_cache`]), after a warmup segment that
//! lets EWMA features converge and scratch buffers size themselves. A
//! counting allocator verifies the steady-state claim directly: the
//! reference workload's measured segments, cache-off and cache-on, must
//! perform zero heap allocations. (The churning streams are reported but
//! not gated: a flush that empties the cache keeps its allocations, but a
//! refill past an earlier high-water mark still grows them.)
//!
//! Writes `BENCH_oracle.json` under `--out` and exits non-zero when the
//! reference workload misses the hit-rate floor or the ≥3× speedup bound,
//! allocates in either steady-state segment, or regresses >20% against
//! the committed baseline (speedup-normalized, so the gate transfers
//! across machines).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use elephant_bench::{emit_report, fmt_f, print_table, Args};
use elephant_core::{
    ClusterModel, DropPolicy, LatencyCodec, LearnedOracle, MacroConfig, ModelMeta, FEATURE_DIM,
};
use elephant_des::{SimTime, SmallRng};
use elephant_net::{
    ClosParams, ClusterOracle, Direction, Ecn, FabricPath, FlowId, HostAddr, OracleCtx, Packet,
    TcpFlags, TcpSegment, Topology,
};
use elephant_nn::{MicroNet, MicroNetConfig};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cache capacity per cluster (matches the CLI default).
const CACHE_CAP: usize = 65_536;
/// Reference-workload gates.
const HIT_FLOOR: f64 = 0.75;
const MIN_SPEEDUP: f64 = 3.0;
/// Allowed relative regression of the (speedup-normalized) ns/verdict
/// against the committed baseline.
const MAX_REGRESSION: f64 = 0.20;
/// Committed baseline, regenerated by re-running this bench and copying
/// the `speedup_reference` scalar.
const BASELINE_JSON: &str = include_str!("../../baselines/oracle_hotpath.json");

struct Phase {
    name: &'static str,
    macro_cfg: MacroConfig,
    /// Distinct (src, dst) pairs in the stream.
    pairs: usize,
    /// Nominal inter-arrival gap, nanoseconds.
    gap_ns: u64,
    /// Randomize sizes and gaps (adversarial for the quantizer).
    jitter: bool,
}

fn phases() -> Vec<Phase> {
    let base = MacroConfig::default();
    vec![
        Phase {
            // Reference workload: pinned Minimal, maximally repetitive.
            name: "minimal",
            macro_cfg: MacroConfig {
                latency_low: 1e9,
                drop_high: 1.1,
                ..base
            },
            pairs: 4,
            gap_ns: 2_000,
            jitter: false,
        },
        Phase {
            name: "increasing",
            macro_cfg: MacroConfig {
                latency_low: 0.0,
                drop_high: 1.1,
                ..base
            },
            pairs: 16,
            gap_ns: 1_000,
            jitter: true,
        },
        Phase {
            name: "high",
            macro_cfg: MacroConfig {
                latency_low: 1e9,
                drop_high: 0.0,
                ..base
            },
            pairs: 16,
            gap_ns: 500,
            jitter: true,
        },
        Phase {
            name: "decreasing",
            macro_cfg: MacroConfig {
                latency_low: 0.0,
                drop_high: 1.1,
                fast_alpha: 0.02,
                slow_alpha: 0.5,
                ..base
            },
            pairs: 16,
            gap_ns: 1_500,
            jitter: true,
        },
    ]
}

fn model(seed: u64, macro_cfg: MacroConfig) -> ClusterModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cfg = MicroNetConfig {
        input: FEATURE_DIM,
        hidden: 64,
        layers: 2,
        alpha: 0.5,
    };
    ClusterModel {
        up: MicroNet::new(cfg, &mut rng),
        down: MicroNet::new(cfg, &mut rng),
        macro_cfg,
        codec: LatencyCodec::default(),
        meta: ModelMeta::default(),
    }
}

struct Stream {
    pkts: Vec<(Packet, FabricPath, SimTime)>,
}

fn build_stream(topo: &Topology, phase: &Phase, n: usize, seed: u64) -> Stream {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x57EA);
    let params = ClosParams::paper_cluster(4);
    let mut pkts = Vec::with_capacity(n);
    let mut now = SimTime::from_nanos(1);
    for i in 0..n {
        let pair = i % phase.pairs;
        let src = HostAddr::new(
            1,
            (pair % params.racks_per_cluster as usize) as u16,
            (pair / params.racks_per_cluster as usize % params.hosts_per_rack as usize) as u16,
        );
        let dst = HostAddr::new(0, (pair % 2) as u16, 0);
        let flow = FlowId(pair as u64);
        let path = topo.fabric_path(src, dst, flow);
        let payload = if phase.jitter {
            64 + rng.below(1461 - 64) as u32
        } else {
            1460
        };
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
        pkts.push((pkt, path, now));
        let gap = if phase.jitter {
            phase.gap_ns / 2 + rng.below(phase.gap_ns * 2 - phase.gap_ns / 2)
        } else {
            phase.gap_ns
        };
        now += elephant_des::SimDuration::from_nanos(gap);
    }
    Stream { pkts }
}

struct Measurement {
    ns_per_verdict: f64,
    verdicts: u64,
    drops: u64,
    allocs: u64,
}

fn drive(
    oracle: &mut LearnedOracle,
    topo: &Topology,
    stream: &Stream,
    warmup: usize,
) -> Measurement {
    let mut drops = 0u64;
    for (pkt, path, now) in stream.pkts.iter().take(warmup) {
        let ctx = OracleCtx {
            topo,
            cluster: 1,
            direction: Direction::Up,
            path: *path,
            profile: false,
        };
        oracle.classify_raw(&ctx, pkt, *now);
    }
    let measured = &stream.pkts[warmup..];
    let alloc0 = ALLOCATIONS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for (pkt, path, now) in measured {
        let ctx = OracleCtx {
            topo,
            cluster: 1,
            direction: Direction::Up,
            path: *path,
            profile: false,
        };
        if matches!(
            oracle.classify_raw(&ctx, pkt, *now),
            elephant_net::RawVerdict::Drop
        ) {
            drops += 1;
        }
    }
    let wall = t0.elapsed();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc0;
    Measurement {
        ns_per_verdict: wall.as_nanos() as f64 / measured.len().max(1) as f64,
        verdicts: measured.len() as u64,
        drops,
        allocs,
    }
}

fn main() {
    let args = Args::parse();
    let n = if args.full { 400_000 } else { 80_000 };
    let warmup = 4_096;
    let params = ClosParams::paper_cluster(4);
    let topo = Topology::clos_with_stubs(params, &[1]);

    let mut rows = Vec::new();
    let mut report =
        elephant_obs::RunReport::new("oracle", "oracle fast-path: ns/verdict + cache hit rate");
    let mut ref_speedup = 0.0f64;
    let mut ref_hit_rate = 0.0f64;
    let mut ref_off_allocs = 0u64;
    let mut ref_on_allocs = 0u64;
    let mut total_wall = 0.0f64;
    let mut total_verdicts = 0u64;

    for phase in phases() {
        let stream = build_stream(&topo, &phase, n, args.seed);
        let m = model(args.seed, phase.macro_cfg);

        let mut off = LearnedOracle::new(m.clone(), params, DropPolicy::Sample, args.seed ^ 0xE1E);
        let meas_off = drive(&mut off, &topo, &stream, warmup);

        let mut on =
            LearnedOracle::with_cache(m, params, DropPolicy::Sample, args.seed ^ 0xE1E, CACHE_CAP);
        let meas_on = drive(&mut on, &topo, &stream, warmup);
        let cache = on.cache_stats();

        let speedup = meas_off.ns_per_verdict / meas_on.ns_per_verdict.max(1e-9);
        let hit_rate = cache.hit_rate();
        let state_occupancy: Vec<String> =
            on.stats().per_state.iter().map(|c| c.to_string()).collect();

        if phase.name == "minimal" {
            ref_speedup = speedup;
            ref_hit_rate = hit_rate;
            ref_off_allocs = meas_off.allocs;
            ref_on_allocs = meas_on.allocs;
        }
        total_wall +=
            (meas_off.ns_per_verdict + meas_on.ns_per_verdict) * meas_off.verdicts as f64 / 1e9;
        total_verdicts += meas_off.verdicts + meas_on.verdicts;

        rows.push(vec![
            phase.name.to_string(),
            fmt_f(meas_off.ns_per_verdict),
            fmt_f(meas_on.ns_per_verdict),
            format!("{speedup:.2}x"),
            format!("{:.1}%", hit_rate * 100.0),
            cache.invalidations.to_string(),
            meas_on.drops.to_string(),
            state_occupancy.join("/"),
        ]);

        let p = phase.name;
        report.scalar(format!("{p}_ns_verdict_off"), meas_off.ns_per_verdict);
        report.scalar(format!("{p}_ns_verdict_on"), meas_on.ns_per_verdict);
        report.scalar(format!("{p}_speedup"), speedup);
        report.scalar(format!("{p}_hit_rate"), hit_rate);
        report.scalar(format!("{p}_cache_hits"), cache.hits as f64);
        report.scalar(format!("{p}_cache_misses"), cache.misses as f64);
        report.scalar(format!("{p}_cache_evictions"), cache.evictions as f64);
        report.scalar(
            format!("{p}_cache_invalidations"),
            cache.invalidations as f64,
        );
        report.scalar(format!("{p}_steady_allocs_off"), meas_off.allocs as f64);
        report.scalar(format!("{p}_steady_allocs_on"), meas_on.allocs as f64);
    }

    print_table(
        "oracle hot path (cache-off vs cache-on)",
        &[
            "regime",
            "off ns/verdict",
            "on ns/verdict",
            "speedup",
            "hit rate",
            "invalidations",
            "drops(on)",
            "state occupancy",
        ],
        &rows,
    );

    report.set_run(total_wall, total_verdicts, 0.0);
    report.scalar("speedup_reference", ref_speedup);
    report.scalar("hit_rate_reference", ref_hit_rate);
    emit_report(&report, &args);

    // Gates. The baseline comparison is speedup-normalized: absolute
    // ns/verdict varies wildly across CI machines, but the cached-path
    // improvement *relative to the uncached path on the same machine* is
    // stable — a >20% drop in that ratio is a real fast-path regression.
    let baseline_speedup = serde_json::from_str::<serde::Value>(BASELINE_JSON)
        .ok()
        .and_then(|v| v.get("speedup_reference").and_then(|s| s.as_f64()));
    let mut failed = false;
    if ref_hit_rate < HIT_FLOOR {
        eprintln!(
            "FAIL: reference hit rate {:.1}% below the {:.0}% floor",
            ref_hit_rate * 100.0,
            HIT_FLOOR * 100.0
        );
        failed = true;
    }
    if ref_speedup < MIN_SPEEDUP {
        eprintln!("FAIL: reference speedup {ref_speedup:.2}x below the {MIN_SPEEDUP:.0}x bound");
        failed = true;
    }
    if ref_off_allocs > 0 {
        eprintln!(
            "FAIL: {ref_off_allocs} heap allocations in the steady-state uncached segment \
             (the nn fast path must be allocation-free)"
        );
        failed = true;
    }
    if ref_on_allocs > 0 {
        eprintln!(
            "FAIL: {ref_on_allocs} heap allocations in the steady-state cached segment \
             (a warm verdict cache must be allocation-free)"
        );
        failed = true;
    }
    match baseline_speedup {
        Some(base) if ref_speedup < base * (1.0 - MAX_REGRESSION) => {
            eprintln!(
                "FAIL: reference speedup {ref_speedup:.2}x regressed >{:.0}% vs committed \
                 baseline {base:.2}x",
                MAX_REGRESSION * 100.0
            );
            failed = true;
        }
        Some(base) => println!(
            "baseline: committed speedup {base:.2}x, measured {ref_speedup:.2}x (gate at {:.2}x)",
            base * (1.0 - MAX_REGRESSION)
        ),
        None => eprintln!("warning: no committed baseline; skipping regression gate"),
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "PASS: reference workload {ref_speedup:.2}x faster cached, hit rate {:.1}%, \
         0 steady-state allocations",
        ref_hit_rate * 100.0
    );
}
