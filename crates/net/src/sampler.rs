//! Sim-time-driven time-series samplers and the sim-time halves of a
//! run's timeline.
//!
//! A run's metric rows answer "how much, in total"; samples answer
//! "when". A [`NetSampler`] observes a [`Network`] at a fixed simulated
//! period and keeps one typed [`Sample`] per tick:
//!
//! * per-layer queued bytes (host NICs / ToR / Agg / Core),
//! * the oracle's per-cluster macro congestion state, when it models one,
//! * offered vs realized load (cumulative bytes and windowed Gbps),
//! * the oracle drop rate over the sampling window,
//!
//! rendered after the run as CSV rows ([`NetSampler::rows`], for
//! re-plotting via `elephant_trace::write_csv`) and as timeline counter
//! tracks on [`PID_SAMPLES`] ([`NetSampler::export_counters`]).
//! [`export_flow_timeline`] adds the finished networks' flow spans and
//! drop/oracle instants.
//!
//! ## Determinism
//!
//! Sampling must never perturb the simulation. Scheduling "sampler tick"
//! events into the FEL would do exactly that — the scheduler breaks
//! same-time ties by insertion order, so extra events shift every later
//! sequence number. Instead, [`run_sampled`] drives the simulator in
//! chunks (`run_until(tick)` per sampling period) and reads network state
//! *between* chunks. `Simulator::run_until` is resumable and executes the
//! identical pop/push sequence whether or not it is chunked, so a sampled
//! run is bit-identical to an unsampled one (`tests/timeline_determinism.rs`
//! proves it end to end).

use elephant_des::{SimDuration, SimTime, Simulator, StopReason};
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
}

/// CSV column layout of [`NetSampler::rows`]. The two latency columns are
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

/// Periodic observer of one or more [`Network`]s (several for PDES runs,
/// where each partition holds a shard of the model). Create it per run;
/// read its samples when the run finishes.
pub struct NetSampler {
    every: SimDuration,
    next: SimTime,
    /// `(start, bytes)` of every injected flow, sorted by start time —
    /// the offered-load ramp, consumed with a cursor as time advances.
    offered: Vec<(SimTime, u64)>,
    offered_idx: usize,
    offered_cum: u64,
    last_offered: u64,
    last_delivered: u64,
    last_oracle_drops: u64,
    last_oracle_delivered: u64,
    samples: Vec<Sample>,
}

impl NetSampler {
    /// A sampler observing every `every` of simulated time. `flows` is the
    /// workload being injected (for the offered-load series).
    pub fn new(every: SimDuration, flows: &[FlowSpec]) -> Self {
        assert!(
            every > SimDuration::ZERO,
            "sampling period must be positive"
        );
        let mut offered: Vec<(SimTime, u64)> = flows.iter().map(|f| (f.start, f.bytes)).collect();
        offered.sort_unstable();
        NetSampler {
            every,
            next: SimTime::ZERO + every,
            offered,
            offered_idx: 0,
            offered_cum: 0,
            last_offered: 0,
            last_delivered: 0,
            last_oracle_drops: 0,
            last_oracle_delivered: 0,
            samples: Vec::new(),
        }
    }

    /// The sampling period.
    pub fn every(&self) -> SimDuration {
        self.every
    }

    /// The next simulated time a sample is due.
    pub fn next_due(&self) -> SimTime {
        self.next
    }

    /// The samples taken so far, in time order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The samples as CSV rows (columns per [`SAMPLE_CSV_HEADER`]).
    pub fn rows(&self) -> Vec<Vec<String>> {
        let row = |s: &Sample| {
            let states = s.macro_states.iter().map(|(c, r)| format!("{c}:{r}"));
            vec![
                s.ts_us().to_string(),
                s.queue[0].to_string(),
                s.queue[1].to_string(),
                s.queue[2].to_string(),
                s.queue[3].to_string(),
                s.offered_cum.to_string(),
                s.delivered_cum.to_string(),
                format!("{:.6}", s.offered_gbps),
                format!("{:.6}", s.goodput_gbps),
                format!("{:.6}", s.oracle_drop_rate),
                states.collect::<Vec<_>>().join(";"),
                s.flows_completed.to_string(),
                format!("{:.3}", s.rtt_p50_us),
                format!("{:.3}", s.rtt_p99_us),
            ]
        };
        self.samples.iter().map(row).collect()
    }

    /// Adds the samples to `tl` as counter tracks on [`PID_SAMPLES`]:
    /// queued bytes per layer, offered and delivered Gbps, the oracle drop
    /// rate, and each stub cluster's macro state.
    pub fn export_counters(&self, tl: &mut Timeline) {
        if !self.samples.is_empty() {
            tl.name_process(PID_SAMPLES, "samplers (sim time)");
        }
        for s in &self.samples {
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

    /// Takes one sample at `now` across `nets` (pass one network for a
    /// sequential run, every partition's for PDES). Read-only on the
    /// networks; advances only the sampler's own cursors.
    pub fn sample(&mut self, now: SimTime, nets: &[&Network]) {
        self.next = now + self.every;

        while self
            .offered
            .get(self.offered_idx)
            .is_some_and(|&(start, _)| start <= now)
        {
            self.offered_cum += self.offered[self.offered_idx].1;
            self.offered_idx += 1;
        }

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

        let secs = self.every.as_secs_f64();
        let offered_gbps = (self.offered_cum - self.last_offered) as f64 * 8.0 / secs / 1e9;
        let goodput_gbps = (delivered - self.last_delivered) as f64 * 8.0 / secs / 1e9;
        let wd = oracle_drops - self.last_oracle_drops;
        let wv = wd + (oracle_delivered - self.last_oracle_delivered);
        let drop_rate = if wv > 0 { wd as f64 / wv as f64 } else { 0.0 };
        self.last_offered = self.offered_cum;
        self.last_delivered = delivered;
        self.last_oracle_drops = oracle_drops;
        self.last_oracle_delivered = oracle_delivered;

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
            at: now,
            queue,
            offered_cum: self.offered_cum,
            delivered_cum: delivered,
            offered_gbps,
            goodput_gbps,
            oracle_drop_rate: drop_rate,
            macro_states: states,
            flows_completed: completed,
            rtt_p50_us,
            rtt_p99_us,
        });
    }
}

/// Runs a sequential simulation to `horizon`, sampling at the sampler's
/// period, bit-identically to a plain `sim.run_until(horizon)` (see the
/// module docs). A final sample is taken at the horizon.
pub fn run_sampled(
    sim: &mut Simulator<Network>,
    horizon: SimTime,
    sampler: &mut NetSampler,
) -> StopReason {
    loop {
        let next = sampler.next_due();
        if next >= horizon {
            let reason = sim.run_until(horizon);
            sampler.sample(horizon, &[sim.world()]);
            return reason;
        }
        let reason = sim.run_until(next);
        sampler.sample(next, &[sim.world()]);
        if reason == StopReason::Exhausted {
            return reason;
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
    use crate::network::schedule_flows;
    use crate::topology::{ClosParams, Topology};
    use crate::types::{FlowId, HostAddr};
    use crate::NetConfig;
    use std::sync::Arc;

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

    #[test]
    fn sampled_run_is_bit_identical_to_plain_run() {
        let horizon = SimTime::from_millis(5);
        let mut plain = build();
        plain.run_until(horizon);

        let mut sampled = build();
        let mut sampler = NetSampler::new(SimDuration::from_micros(100), &flows());
        run_sampled(&mut sampled, horizon, &mut sampler);

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
        // The FEL exhausts once all flows finish, so ticks stop there; a
        // 5ms horizon at 100us can yield at most 50 samples.
        assert!(!sampler.samples().is_empty());
        assert!(sampler.samples().len() <= 50);
    }

    #[test]
    fn sampler_rows_track_load_and_queues() {
        let horizon = SimTime::from_millis(5);
        let mut sim = build();
        let mut sampler = NetSampler::new(SimDuration::from_micros(250), &flows());
        run_sampled(&mut sim, horizon, &mut sampler);
        let rows = sampler.rows();
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
        let mut sim = build();
        let mut sampler = NetSampler::new(SimDuration::from_micros(250), &flows());
        run_sampled(&mut sim, SimTime::from_millis(5), &mut sampler);
        let mut tl = Timeline::default();
        sampler.export_counters(&mut tl);
        // Full fidelity: no macro states, so three tracks per sample.
        assert_eq!(tl.records.len(), 3 * sampler.samples().len());
        let last = sampler.samples().last().expect("sampled");
        let queue = tl.records.iter().rev().find(|r| r.name == "queue_bytes");
        assert_eq!(
            queue.expect("queue track").ts_us,
            last.at.as_nanos() as f64 / 1e3
        );
        assert!(tl.to_json().contains("samplers (sim time)"));
    }
}
