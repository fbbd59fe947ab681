//! Sim-time-driven time-series samplers and the sim-time halves of a
//! run's timeline.
//!
//! A run's metric rows answer "how much, in total"; samples answer
//! "when". A [`NetSampler`] observes a run's [`Network`]s at a fixed
//! simulated period and keeps one typed [`Sample`] per tick:
//!
//! * per-layer queued bytes (host NICs / ToR / Agg / Core),
//! * the oracle's per-cluster macro congestion state, when it models one,
//! * offered vs realized load (cumulative bytes and windowed Gbps),
//! * the oracle drop rate over the sampling window,
//!
//! rendered after the run as CSV rows ([`Sample::csv_row`], for
//! re-plotting via `elephant_trace::write_csv`) and as timeline counter
//! tracks on [`PID_SAMPLES`] ([`export_sample_counters`]).
//! [`export_flow_timeline`] adds the finished networks' flow spans and
//! drop/oracle instants.
//!
//! A sampler belongs to one run: it reads the run's own flow list (the
//! one `Arc` the networks stream), and everything it knows is its samples,
//! so [`NetSampler::mark`] / [`NetSampler::rewind`] checkpoint and restore
//! it alongside the run's world.
//!
//! ## Determinism
//!
//! Sampling must never perturb the simulation. Scheduling "sampler tick"
//! events into the FEL would do exactly that — the scheduler breaks
//! same-time ties by insertion order, so extra events shift every later
//! sequence number. Instead, [`run_sampled`] drives the engine in chunks
//! (`run_until(tick)` per sampling period) and reads network state
//! *between* chunks. Both engines' `run_until` are resumable and execute
//! the identical event sequence whether or not they are chunked, so a
//! sampled run is bit-identical to an unsampled one
//! (`tests/timeline_determinism.rs` proves it end to end).

use std::sync::Arc;

use elephant_des::{SimDuration, SimTime};
use elephant_obs::{Timeline, TraceRecord, PID_FLOWS, PID_SAMPLES};

use crate::network::{FlowSpec, Network};
use crate::trace_log::TraceKind;

/// One sampler tick across every observed network.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// When the sample was taken.
    pub at: SimTime,
    /// Queued bytes per layer: host NICs, ToR, Agg, Core.
    pub queue: [u64; 4],
    /// Bytes of every flow started by `at`.
    pub offered_cum: u64,
    /// Bytes delivered by `at`.
    pub delivered_cum: u64,
    /// Offered load over the sampling window, in Gbps.
    pub offered_gbps: f64,
    /// Delivered load over the sampling window, in Gbps.
    pub goodput_gbps: f64,
    /// Oracle drops by `at`.
    pub oracle_drops_cum: u64,
    /// Oracle deliveries by `at`.
    pub oracle_delivered_cum: u64,
    /// Oracle drops over oracle verdicts in the sampling window.
    pub oracle_drop_rate: f64,
    /// `(cluster, regime)` of every stub cluster whose oracle models one:
    /// the max any partition's replica reports.
    pub macro_states: Vec<(u16, u8)>,
    /// Flows completed by `at`.
    pub flows_completed: u64,
    /// Cumulative in-scope RTT median, in microseconds (0 before any RTT).
    pub rtt_p50_us: f64,
    /// Cumulative in-scope RTT 99th percentile, in microseconds.
    pub rtt_p99_us: f64,
}

impl Sample {
    /// The sample time in microseconds, as CSV rows and counters stamp it.
    fn ts_us(&self) -> f64 {
        self.at.as_nanos() as f64 / 1e3
    }

    /// The sample as a CSV row (columns per [`SAMPLE_CSV_HEADER`]).
    pub fn csv_row(&self) -> Vec<String> {
        let states = self.macro_states.iter().map(|(c, r)| format!("{c}:{r}"));
        vec![
            self.ts_us().to_string(),
            self.queue[0].to_string(),
            self.queue[1].to_string(),
            self.queue[2].to_string(),
            self.queue[3].to_string(),
            self.offered_cum.to_string(),
            self.delivered_cum.to_string(),
            format!("{:.6}", self.offered_gbps),
            format!("{:.6}", self.goodput_gbps),
            format!("{:.6}", self.oracle_drop_rate),
            states.collect::<Vec<_>>().join(";"),
            self.flows_completed.to_string(),
            format!("{:.3}", self.rtt_p50_us),
            format!("{:.3}", self.rtt_p99_us),
        ]
    }
}

/// CSV column layout of [`Sample::csv_row`]. The two latency columns are
/// cumulative quantiles of the in-scope RTT histogram (merged across
/// partitions for PDES runs), in microseconds; 0 until the first sample.
pub const SAMPLE_CSV_HEADER: [&str; 14] = [
    "time_us",
    "queue_host_bytes",
    "queue_tor_bytes",
    "queue_agg_bytes",
    "queue_core_bytes",
    "offered_bytes_cum",
    "delivered_bytes_cum",
    "offered_gbps",
    "goodput_gbps",
    "oracle_drop_rate_window",
    "macro_states",
    "flows_completed",
    "rtt_p50_us",
    "rtt_p99_us",
];

/// Adds `samples` to `tl` as counter tracks on [`PID_SAMPLES`]: queued
/// bytes per layer, offered and delivered Gbps, the oracle drop rate, and
/// each stub cluster's macro state.
pub fn export_sample_counters(samples: &[Sample], tl: &mut Timeline) {
    if !samples.is_empty() {
        tl.name_process(PID_SAMPLES, "samplers (sim time)");
    }
    for s in samples {
        let ts_us = s.ts_us();
        let [host, tor, agg, core] = s.queue;
        tl.records.extend([
            TraceRecord::counter(PID_SAMPLES, "queue_bytes", ts_us)
                .arg("host", host)
                .arg("tor", tor)
                .arg("agg", agg)
                .arg("core", core),
            TraceRecord::counter(PID_SAMPLES, "load_gbps", ts_us)
                .arg("offered", s.offered_gbps)
                .arg("delivered", s.goodput_gbps),
            TraceRecord::counter(PID_SAMPLES, "oracle_drop_rate", ts_us)
                .arg("window", s.oracle_drop_rate),
        ]);
        if !s.macro_states.is_empty() {
            let mut rec = TraceRecord::counter(PID_SAMPLES, "macro_state", ts_us);
            for &(c, state) in &s.macro_states {
                rec = rec.arg(format!("cluster{c}"), state as u64);
            }
            tl.records.push(rec);
        }
    }
}

/// Periodic observer of one run's [`Network`]s (several for PDES runs,
/// where each partition holds a shard of the model). It samples at every
/// multiple of its period before the horizon and once at the horizon, or
/// never without a period, and its samples are its whole state.
pub struct NetSampler {
    every: Option<SimDuration>,
    horizon: SimTime,
    /// The run's flow list, sorted by start: the offered-load ramp.
    flows: Arc<[FlowSpec]>,
    samples: Vec<Sample>,
}

impl NetSampler {
    /// A sampler observing every `every` of simulated time up to
    /// `horizon`, if set. `flows` is the run's flow list, sorted by start,
    /// as the networks stream it (for the offered-load series).
    pub fn new(every: Option<SimDuration>, horizon: SimTime, flows: Arc<[FlowSpec]>) -> Self {
        assert!(
            every.is_none_or(|d| d > SimDuration::ZERO),
            "sampling period must be positive"
        );
        debug_assert!(flows.is_sorted_by_key(|f| f.start));
        NetSampler {
            every,
            horizon,
            flows,
            samples: Vec::new(),
        }
    }

    /// Where the sampler stands: the number of samples taken. A
    /// checkpoint keeps it, and [`Self::rewind`] returns to it.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Forgets every sample taken after `mark`, so that the sampler
    /// resumes where it stood then.
    pub fn rewind(&mut self, mark: usize) {
        self.samples.truncate(mark);
    }

    /// The samples taken, in time order.
    pub fn into_samples(self) -> Vec<Sample> {
        self.samples
    }

    /// The next sample time: the first multiple of the period after the
    /// last sample, capped at the horizon; `None` once the horizon is
    /// sampled, or without a period.
    fn next_due(&self) -> Option<SimTime> {
        let every = self.every?;
        let Some(last) = self.samples.last() else {
            return Some((SimTime::ZERO + every).min(self.horizon));
        };
        let ticks = (last.at - SimTime::ZERO) / every + 1;
        (last.at < self.horizon).then(|| (SimTime::ZERO + every * ticks).min(self.horizon))
    }

    /// Takes one sample at `at` across `nets` (one network for a
    /// sequential run, every partition's for PDES). Read-only on the
    /// networks; windowed rates cover the time since the previous sample.
    fn sample(&mut self, at: SimTime, nets: &[&Network]) {
        // The window opens at the previous sample (time zero for the first).
        let prev = self.samples.last();
        let last = |field: fn(&Sample) -> u64| prev.map_or(0, field);
        let since = prev.map_or(SimTime::ZERO, |p| p.at);
        let started = |t: SimTime| self.flows.partition_point(|f| f.start <= t);
        let newly = &self.flows[prev.map_or(0, |p| started(p.at))..started(at)];
        let offered_cum = last(|p| p.offered_cum) + newly.iter().map(|f| f.bytes).sum::<u64>();

        let mut queue = [0u64; 4];
        let mut delivered = 0u64;
        let mut oracle_drops = 0u64;
        let mut oracle_delivered = 0u64;
        let mut completed = 0u64;
        for net in nets {
            let q = net.queue_bytes_by_layer();
            for (acc, v) in queue.iter_mut().zip(q) {
                *acc += v;
            }
            delivered += net.stats.delivered_bytes;
            oracle_drops += net.stats.drops.oracle;
            oracle_delivered += net.stats.oracle_deliveries;
            completed += net.stats.flows_completed;
        }

        // Per-cluster macro state: the max regime any partition's oracle
        // reports (each PDES partition runs its own oracle replica).
        let mut states: Vec<(u16, u8)> = Vec::new();
        if let Some(net) = nets.first() {
            let clusters = net.topo().params().clusters;
            for c in 0..clusters {
                if !net.topo().is_stub(c) {
                    continue;
                }
                if let Some(s) = nets.iter().filter_map(|n| n.oracle_macro_state(c)).max() {
                    states.push((c, s));
                }
            }
        }

        let secs = (at - since).as_secs_f64();
        let gbps = |bytes: u64| match secs > 0.0 {
            true => bytes as f64 * 8.0 / secs / 1e9,
            false => 0.0,
        };
        let offered_gbps = gbps(offered_cum - last(|p| p.offered_cum));
        let goodput_gbps = gbps(delivered - last(|p| p.delivered_cum));
        let wd = oracle_drops - last(|p| p.oracle_drops_cum);
        let wv = wd + (oracle_delivered - last(|p| p.oracle_delivered_cum));
        let drop_rate = if wv > 0 { wd as f64 / wv as f64 } else { 0.0 };

        // Cumulative in-scope RTT quantiles, merged across partitions
        // (every Network uses the same latency-seconds geometry).
        let (rtt_p50_us, rtt_p99_us) = match nets.split_first() {
            Some((first, rest)) => {
                let mut hist = first.stats.rtt_hist.clone();
                for net in rest {
                    hist.merge(&net.stats.rtt_hist);
                }
                (hist.quantile(0.5) * 1e6, hist.quantile(0.99) * 1e6)
            }
            None => (0.0, 0.0),
        };

        self.samples.push(Sample {
            at,
            queue,
            offered_cum,
            delivered_cum: delivered,
            offered_gbps,
            goodput_gbps,
            oracle_drops_cum: oracle_drops,
            oracle_delivered_cum: oracle_delivered,
            oracle_drop_rate: drop_rate,
            macro_states: states,
            flows_completed: completed,
            rtt_p50_us,
            rtt_p99_us,
        });
    }
}

/// Advances a run to `until` through `advance` — an engine's `run_until`,
/// answering whether its event list ran dry — and has `sampler` sample
/// `nets` at every tick due by `until`: the one tick loop of both
/// engines. A chunk that ends between ticks takes no sample, so a run
/// driven in checkpoint chunks samples exactly the ticks a run driven in
/// one call does. A run whose event list ran dry is in its final state:
/// it takes its horizon sample at once and stops. Without a period this
/// is one `advance(until)`. Returns whether the event list ran dry.
pub fn run_sampled<W, E>(
    world: &mut W,
    until: SimTime,
    sampler: &mut NetSampler,
    mut advance: impl FnMut(&mut W, SimTime) -> Result<bool, E>,
    nets: impl Fn(&W) -> Vec<&Network>,
) -> Result<bool, E> {
    loop {
        let due = sampler.next_due().filter(|&t| t <= until);
        let step = due.unwrap_or(until);
        let dry = advance(world, step)?;
        let at = match dry {
            true => sampler.next_due().map(|_| sampler.horizon),
            false => due,
        };
        if let Some(at) = at {
            sampler.sample(at, &nets(world));
        }
        if dry || step >= until {
            return Ok(dry);
        }
    }
}

/// How many flow tracks [`export_flow_timeline`] creates at most; the
/// longest flows get tracks, everything else lands on the shared track.
pub const MAX_FLOW_TRACKS: usize = 64;

/// Adds per-flow spans and drop/oracle instant events of a finished run
/// to `tl`. Pass every partition's network for a PDES run: flow records
/// are merged before the largest-flows cut, so track selection is global
/// across partitions.
///
/// Track layout, all on [`PID_FLOWS`] in sim time: tid 0 is a shared
/// "events" track for instants whose flow has no track of its own; tids
/// 1..=N are one track per completed flow (the `max_tracks` largest by
/// bytes, ties broken by start time), each carrying the flow's span plus
/// its own instants. Instants come from the run's [`crate::TraceLog`]
/// (drops and oracle verdicts), so enable tracing to get them.
pub fn export_flow_timeline(nets: &[&Network], max_tracks: usize, tl: &mut Timeline) {
    tl.name_process(PID_FLOWS, "flows & events (sim time)");
    tl.name_track(PID_FLOWS, 0, "events (other flows)");

    let mut fct: Vec<&crate::FctRecord> = nets.iter().flat_map(|n| n.stats.fct.iter()).collect();
    fct.sort_unstable_by_key(|r| (std::cmp::Reverse(r.bytes), r.started, r.flow.0));
    #[allow(clippy::disallowed_types)] // once per exported flow, after the run
    let mut track_of = std::collections::HashMap::new();
    for (i, rec) in fct.iter().take(max_tracks).enumerate() {
        let tid = i as u64 + 1;
        track_of.insert(rec.flow, tid);
        tl.name_track(
            PID_FLOWS,
            tid,
            format!("flow {} ({} B)", rec.flow.0, rec.bytes),
        );
        let ts = rec.started.as_nanos() as f64 / 1e3;
        let dur = (rec.completed.as_nanos() - rec.started.as_nanos()) as f64 / 1e3;
        tl.records.push(
            TraceRecord::complete(PID_FLOWS, tid, format!("flow {}", rec.flow.0), ts, dur)
                .category("flow")
                .arg("bytes", rec.bytes)
                .arg("src", format!("{:?}", rec.src))
                .arg("dst", format!("{:?}", rec.dst))
                .arg("fct_us", dur),
        );
    }

    for net in nets {
        let Some(trace) = net.trace() else { continue };
        for e in trace.entries() {
            let name = match e.kind {
                TraceKind::Drop => "drop",
                TraceKind::OracleDrop => "oracle_drop",
                TraceKind::OracleDeliver => "oracle_deliver",
                TraceKind::Arrive | TraceKind::TxStart => continue,
            };
            let tid = track_of.get(&e.flow).copied().unwrap_or(0);
            tl.records.push(
                TraceRecord::instant(PID_FLOWS, tid, name, e.time.as_nanos() as f64 / 1e3)
                    .arg("node", e.node.0 as u64)
                    .arg("flow", e.flow.0)
                    .arg("seq", e.seq),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{flow_list, schedule_flows};
    use crate::topology::{ClosParams, Topology};
    use crate::types::{FlowId, HostAddr};
    use crate::NetConfig;
    use elephant_des::{Simulator, StopReason};
    use std::convert::Infallible;

    fn flows() -> Vec<FlowSpec> {
        (0..8)
            .map(|i| FlowSpec {
                id: FlowId(i + 1),
                src: HostAddr::new(0, 0, (i % 4) as u16),
                dst: HostAddr::new(1, 0, ((i + 1) % 4) as u16),
                bytes: 20_000 + i * 1000,
                start: SimTime::from_micros(i * 50),
            })
            .collect()
    }

    fn build() -> Simulator<Network> {
        let topo = Topology::clos(ClosParams::paper_cluster(2));
        let mut sim = Simulator::new(Network::new(Arc::new(topo), NetConfig::default()));
        schedule_flows(&mut sim, &flows());
        sim
    }

    fn advance(sim: &mut Simulator<Network>, until: SimTime) -> Result<bool, Infallible> {
        Ok(sim.run_until(until) == StopReason::Exhausted)
    }

    fn nets(sim: &Simulator<Network>) -> Vec<&Network> {
        vec![sim.world()]
    }

    /// A sequential run of [`flows`] to `horizon`, sampled every `every`.
    fn sampled(every: SimDuration, horizon: SimTime) -> (Simulator<Network>, Vec<Sample>) {
        let mut sim = build();
        let mut sampler = NetSampler::new(Some(every), horizon, flow_list(&flows()));
        let Ok(_) = run_sampled(&mut sim, horizon, &mut sampler, advance, nets);
        (sim, sampler.into_samples())
    }

    #[test]
    fn sampled_run_is_bit_identical_to_plain_run() {
        let horizon = SimTime::from_millis(5);
        let mut plain = build();
        plain.run_until(horizon);

        let (sampled, samples) = sampled(SimDuration::from_micros(100), horizon);

        let a = plain.world();
        let b = sampled.world();
        assert_eq!(a.stats.flows_completed, b.stats.flows_completed);
        assert_eq!(a.stats.delivered_bytes, b.stats.delivered_bytes);
        assert_eq!(a.stats.drops.total(), b.stats.drops.total());
        assert_eq!(
            plain.scheduler().executed_total(),
            sampled.scheduler().executed_total()
        );
        let fct_a: Vec<_> = a.stats.fct.iter().map(|r| (r.flow, r.completed)).collect();
        let fct_b: Vec<_> = b.stats.fct.iter().map(|r| (r.flow, r.completed)).collect();
        assert_eq!(fct_a, fct_b);
        // The FEL runs dry once all flows finish; the first tick to find
        // it dry is stamped at the horizon instead, and is the last.
        assert!(samples.len() < 50, "{} samples", samples.len());
        let last = samples.last().expect("sampled");
        assert_eq!(last.at, horizon);
        let mut grid = samples[..samples.len() - 1].iter().enumerate();
        assert!(grid.all(|(i, s)| s.at == SimTime::from_micros(100 * (i as u64 + 1))));
    }

    #[test]
    fn sampler_rows_track_load_and_queues() {
        let (_, samples) = sampled(SimDuration::from_micros(250), SimTime::from_millis(5));
        let rows: Vec<_> = samples.iter().map(Sample::csv_row).collect();
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(row.len(), SAMPLE_CSV_HEADER.len());
        }
        // Offered bytes are cumulative and must be monotone, ending at the
        // full workload volume.
        let offered: Vec<u64> = rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert!(offered.windows(2).all(|w| w[0] <= w[1]));
        let total: u64 = flows().iter().map(|f| f.bytes).sum();
        assert_eq!(*offered.last().unwrap(), total);
        // All 8 flows fit in 5ms on an idle fabric.
        let completed: u64 = rows.last().unwrap()[11].parse().unwrap();
        assert_eq!(completed, 8);
        // Latency columns: cumulative RTT quantiles in microseconds,
        // positive once samples exist, with p50 <= p99.
        let last = rows.last().unwrap();
        let p50: f64 = last[12].parse().unwrap();
        let p99: f64 = last[13].parse().unwrap();
        assert!(p50 > 0.0, "p50 populated once RTTs are observed: {p50}");
        assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");
        // Every row parses: the columns are present from the first sample.
        for r in &rows {
            let (a, b): (f64, f64) = (r[12].parse().unwrap(), r[13].parse().unwrap());
            assert!(a >= 0.0 && b >= a);
        }
    }

    /// Windowed rates divide by the window each sample closes, not by the
    /// period: a horizon off the grid closes a shorter last window.
    #[test]
    fn rates_cover_the_real_window_at_an_off_grid_horizon() {
        let horizon = SimTime::from_micros(150);
        let (_, samples) = sampled(SimDuration::from_micros(100), horizon);
        let at: Vec<SimTime> = samples.iter().map(|s| s.at).collect();
        assert_eq!(at, [SimTime::from_micros(100), horizon]);
        let (prev, last) = (&samples[0], &samples[1]);
        // Flow 4 (23 kB, starting at 150 µs) is the one start in (100, 150].
        let offered = last.offered_cum - prev.offered_cum;
        let delivered = last.delivered_cum - prev.delivered_cum;
        assert_eq!(offered, 23_000);
        assert!(delivered > 0, "the last window delivers");
        let gbps = |bytes: u64| bytes as f64 * 8.0 / 50e-6 / 1e9;
        assert_eq!(last.offered_gbps, gbps(offered));
        assert_eq!(last.goodput_gbps, gbps(delivered));
        let first = |bytes: u64| bytes as f64 * 8.0 / 100e-6 / 1e9;
        assert_eq!(prev.offered_gbps, first(prev.offered_cum));
    }

    /// A sampler rewound to a mark resumes as if the samples after it had
    /// never been taken.
    #[test]
    fn a_rewound_sampler_resumes_at_its_mark() {
        let every = SimDuration::from_micros(100);
        let horizon = SimTime::from_millis(1);
        let (_, clean) = sampled(every, horizon);

        let mut sim = build();
        let mut sampler = NetSampler::new(Some(every), horizon, flow_list(&flows()));
        let mid = SimTime::from_micros(450);
        let Ok(_) = run_sampled(&mut sim, mid, &mut sampler, advance, nets);
        let (checkpoint, mark) = (sim.checkpoint(), sampler.mark());
        let Ok(_) = run_sampled(&mut sim, horizon, &mut sampler, advance, nets);
        sim.restore(&checkpoint);
        sampler.rewind(mark);
        let Ok(_) = run_sampled(&mut sim, horizon, &mut sampler, advance, nets);
        assert_eq!(sampler.into_samples(), clean);
    }

    #[test]
    fn flow_timeline_export_creates_tracks_and_instants() {
        let horizon = SimTime::from_millis(5);
        // Hybrid build: cluster 1 is a stub so oracle instants appear.
        let topo = Topology::clos_with_stubs(ClosParams::paper_cluster(2), &[1]);
        let mut sim = Simulator::new(Network::new(Arc::new(topo), NetConfig::default()));
        sim.world_mut()
            .set_oracle(Box::new(crate::oracle::IdealOracle));
        schedule_flows(&mut sim, &flows());
        sim.world_mut().enable_trace(100_000);
        sim.run_until(horizon);
        let mut tl = Timeline::default();
        export_flow_timeline(&[sim.world()], 4, &mut tl);
        let json = tl.to_json();
        assert!(json.contains("\"flow "), "flow span present");
        assert!(json.contains("oracle_deliver"), "oracle instants present");
        assert!(json.contains("flows & events (sim time)"));
    }

    #[test]
    fn counter_tracks_render_every_sample() {
        let (_, samples) = sampled(SimDuration::from_micros(250), SimTime::from_millis(5));
        let mut tl = Timeline::default();
        export_sample_counters(&samples, &mut tl);
        // Full fidelity: no macro states, so three tracks per sample.
        assert_eq!(tl.records.len(), 3 * samples.len());
        let last = samples.last().expect("sampled");
        let queue = tl.records.iter().rev().find(|r| r.name == "queue_bytes");
        assert_eq!(
            queue.expect("queue track").ts_us,
            last.at.as_nanos() as f64 / 1e3
        );
        assert!(tl.to_json().contains("samplers (sim time)"));
    }
}
