//! Network-wide measurement state.
//!
//! The evaluation (paper §6) needs two families of numbers: *accuracy*
//! metrics — RTT distributions observed by hosts, flow completion times,
//! drop counts — and *performance* metrics — events executed per simulated
//! second, which come from the DES kernel's counters rather than from here.

use elephant_des::{SimDuration, SimTime};
use elephant_obs::{EmpiricalCdf, LogHistogram, Summary};

use crate::types::{FlowId, HostAddr};

/// Which hosts contribute RTT samples.
///
/// Figure 4 compares RTT CDFs observed in *the one fully simulated
/// cluster*, so the hybrid runs restrict collection to it; ground-truth
/// runs may collect everywhere or restrict identically for a fair match.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RttScope {
    /// Record samples from every host.
    #[default]
    All,
    /// Record only from hosts in the given cluster.
    Cluster(u16),
    /// Record nothing (fastest).
    None,
}

impl RttScope {
    /// Does a sample from `host` fall inside this scope?
    pub fn includes(&self, host: HostAddr) -> bool {
        match *self {
            RttScope::All => true,
            RttScope::Cluster(c) => host.cluster == c,
            RttScope::None => false,
        }
    }
}

/// One completed (or abandoned) flow.
#[derive(Clone, Copy, Debug)]
pub struct FctRecord {
    /// Canonical flow id.
    pub flow: FlowId,
    /// Sender.
    pub src: HostAddr,
    /// Receiver.
    pub dst: HostAddr,
    /// Application bytes transferred.
    pub bytes: u64,
    /// When the flow was initiated.
    pub started: SimTime,
    /// When the final data byte was acknowledged.
    pub completed: SimTime,
}

impl FctRecord {
    /// Flow completion time.
    pub fn fct(&self) -> SimDuration {
        self.completed.saturating_since(self.started)
    }
}

/// Packet drops broken down by where they happened.
#[derive(Clone, Copy, Debug, Default)]
pub struct DropCounts {
    /// Host NIC output queues.
    pub host: u64,
    /// ToR switch queues.
    pub tor: u64,
    /// Cluster-switch queues.
    pub agg: u64,
    /// Core-switch queues.
    pub core: u64,
    /// Oracle verdicts (hybrid runs only).
    pub oracle: u64,
}

impl DropCounts {
    /// Sum over all locations.
    pub fn total(&self) -> u64 {
        self.host + self.tor + self.agg + self.core + self.oracle
    }
}

/// Exact RTT samples in whole nanoseconds. Four bytes hold a sample below
/// 2^32 ns (4.29 s), so the buffer starts narrow, and the first sample that
/// does not fit widens it to eight bytes once: no input loses a bit.
#[derive(Clone, Debug)]
enum RttSamples {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl RttSamples {
    fn len(&self) -> usize {
        match self {
            RttSamples::Narrow(v) => v.len(),
            RttSamples::Wide(v) => v.len(),
        }
    }

    fn push(&mut self, ns: u64) {
        match self {
            RttSamples::Narrow(v) => match u32::try_from(ns) {
                Ok(ns) => v.push(ns),
                Err(_) => {
                    let mut wide: Vec<u64> = v.iter().map(|&n| n.into()).collect();
                    wide.push(ns);
                    *self = RttSamples::Wide(wide);
                }
            },
            RttSamples::Wide(v) => v.push(ns),
        }
    }

    /// Every sample in seconds, as [`SimDuration::as_secs_f64`] gives them.
    fn seconds(&self) -> Vec<f64> {
        let secs = |ns: u64| SimDuration::from_nanos(ns).as_secs_f64();
        match self {
            RttSamples::Narrow(v) => v.iter().map(|&ns| secs(ns.into())).collect(),
            RttSamples::Wide(v) => v.iter().map(|&ns| secs(ns)).collect(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            RttSamples::Narrow(v) => v.capacity() * std::mem::size_of::<u32>(),
            RttSamples::Wide(v) => v.capacity() * std::mem::size_of::<u64>(),
        }
    }
}

/// All measurement state owned by a [`crate::Network`].
#[derive(Clone, Debug)]
pub struct NetStats {
    scope: RttScope,
    /// Histogram of all in-scope RTT samples, in seconds.
    pub rtt_hist: LogHistogram,
    raw_rtt: RttSamples,
    raw_rtt_limit: usize,
    /// Completed flows.
    pub fct: Vec<FctRecord>,
    /// Flow lifecycle counters.
    pub flows_started: u64,
    /// Flows whose final byte was acknowledged.
    pub flows_completed: u64,
    /// Where packets died.
    pub drops: DropCounts,
    /// Data packet arrivals at destination hosts (duplicates included).
    pub delivered_packets: u64,
    /// Unique in-order payload bytes accepted by receivers (duplicates
    /// and retransmitted copies excluded) — goodput's numerator.
    pub delivered_bytes: u64,
    /// Packets the oracle teleported across stub fabrics.
    pub oracle_deliveries: u64,
    /// RTT summary (mean/stddev) over in-scope samples.
    pub rtt_summary: Summary,
    /// TCP data segments sent (including retransmissions), over closed
    /// and absorbed connections.
    pub segments_sent: u64,
    /// TCP retransmissions, ditto.
    pub retransmissions: u64,
    /// TCP retransmission timeouts, ditto.
    pub timeouts: u64,
    /// TCP fast-retransmit episodes, ditto.
    pub fast_retransmits: u64,
}

/// The post-run summary block: flows, goodput, drops by tier, and — when
/// there is anything to say — RTT quantiles, mean FCT and oracle
/// deliveries, one indented line each.
impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = &self.drops;
        write!(
            f,
            "  flows     : {}/{} completed\n  goodput   : {:.3} GB delivered\n  \
             drops     : {} (host {}, tor {}, agg {}, core {}, oracle {})",
            self.flows_completed,
            self.flows_started,
            self.delivered_bytes as f64 / 1e9,
            d.total(),
            d.host,
            d.tor,
            d.agg,
            d.core,
            d.oracle
        )?;
        if self.rtt_hist.count() > 0 {
            write!(
                f,
                "\n  RTT       : p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  ({} samples)",
                self.rtt_hist.quantile(0.5) * 1e6,
                self.rtt_hist.quantile(0.9) * 1e6,
                self.rtt_hist.quantile(0.99) * 1e6,
                self.rtt_hist.count()
            )?;
        }
        if let Some(fct) = self.mean_fct() {
            write!(f, "\n  mean FCT  : {fct}")?;
        }
        if self.oracle_deliveries > 0 {
            write!(
                f,
                "\n  oracle    : {} packets teleported",
                self.oracle_deliveries
            )?;
        }
        Ok(())
    }
}

impl NetStats {
    /// Fresh stats with the given RTT collection scope. `raw_rtt_limit`
    /// bounds the exact-sample buffer used for KS statistics (the
    /// histogram keeps recording past the cap).
    pub fn new(scope: RttScope, raw_rtt_limit: usize) -> Self {
        NetStats {
            scope,
            rtt_hist: LogHistogram::for_latency_seconds(),
            raw_rtt: RttSamples::Narrow(Vec::new()),
            raw_rtt_limit,
            fct: Vec::new(),
            flows_started: 0,
            flows_completed: 0,
            drops: DropCounts::default(),
            delivered_packets: 0,
            delivered_bytes: 0,
            oracle_deliveries: 0,
            rtt_summary: Summary::new(),
            segments_sent: 0,
            retransmissions: 0,
            timeouts: 0,
            fast_retransmits: 0,
        }
    }

    /// Folds one connection's counters into the totals.
    pub fn absorb_conn(&mut self, c: &crate::tcp::ConnStats) {
        self.segments_sent += c.data_segments_sent;
        self.retransmissions += c.retransmissions;
        self.timeouts += c.timeouts;
        self.fast_retransmits += c.fast_retransmits;
    }

    /// Records one RTT sample observed by `host`, if in scope.
    pub fn record_rtt(&mut self, host: HostAddr, rtt: SimDuration) {
        if !self.scope.includes(host) {
            return;
        }
        let secs = rtt.as_secs_f64();
        self.rtt_hist.record(secs);
        self.rtt_summary.record(secs);
        if self.raw_rtt.len() < self.raw_rtt_limit {
            self.raw_rtt.push(rtt.as_nanos());
        }
    }

    /// The exact retained RTT samples (seconds), up to the configured cap,
    /// in the order they were recorded.
    pub fn raw_rtt(&self) -> Vec<f64> {
        self.raw_rtt.seconds()
    }

    /// Builds an exact empirical CDF from the retained samples.
    pub fn rtt_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::from_samples(&self.raw_rtt())
    }

    /// Heap bytes the retained RTT samples hold.
    pub fn rtt_sample_bytes(&self) -> usize {
        self.raw_rtt.bytes()
    }

    /// Mean flow completion time over completed flows.
    pub fn mean_fct(&self) -> Option<SimDuration> {
        if self.fct.is_empty() {
            return None;
        }
        let total: f64 = self.fct.iter().map(|r| r.fct().as_secs_f64()).sum();
        Some(SimDuration::from_secs_f64(total / self.fct.len() as f64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_filters_hosts() {
        assert!(RttScope::All.includes(HostAddr::new(3, 0, 0)));
        assert!(RttScope::Cluster(3).includes(HostAddr::new(3, 1, 1)));
        assert!(!RttScope::Cluster(3).includes(HostAddr::new(2, 1, 1)));
        assert!(!RttScope::None.includes(HostAddr::new(0, 0, 0)));
    }

    #[test]
    fn raw_rtt_respects_cap_but_hist_does_not() {
        let mut s = NetStats::new(RttScope::All, 2);
        for i in 1..=5u64 {
            s.record_rtt(HostAddr::new(0, 0, 0), SimDuration::from_micros(i * 100));
        }
        assert_eq!(s.raw_rtt().len(), 2);
        assert_eq!(s.rtt_hist.count(), 5);
        assert_eq!(s.rtt_summary.count(), 5);
    }

    /// A sample past 2^32 ns widens the buffer; every sample before and
    /// after it comes back with the bits `SimDuration::as_secs_f64` gives.
    #[test]
    fn rtt_samples_are_exact_past_four_bytes() {
        let mut s = NetStats::new(RttScope::All, 10);
        let nanos = [1, 38_517, u32::MAX as u64, 1 << 32, 5_000_000_007, 2];
        for (i, &ns) in nanos.iter().enumerate() {
            s.record_rtt(HostAddr::new(0, 0, 0), SimDuration::from_nanos(ns));
            // Narrow until 2^32 arrives, wide from then on.
            let narrow = matches!(s.raw_rtt, RttSamples::Narrow(_));
            assert_eq!(narrow, i < 3, "{ns}");
        }
        let want = nanos.map(|ns| SimDuration::from_nanos(ns).as_secs_f64().to_bits());
        let got: Vec<u64> = s.raw_rtt().iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
        assert_eq!(s.raw_rtt()[4], 5.000000007);
        assert!(s.rtt_sample_bytes() >= nanos.len() * 8);
    }

    #[test]
    fn out_of_scope_samples_ignored() {
        let mut s = NetStats::new(RttScope::Cluster(0), 100);
        s.record_rtt(HostAddr::new(1, 0, 0), SimDuration::from_micros(5));
        assert_eq!(s.rtt_hist.count(), 0);
    }

    #[test]
    fn fct_math() {
        let r = FctRecord {
            flow: FlowId(1),
            src: HostAddr::new(0, 0, 0),
            dst: HostAddr::new(1, 0, 0),
            bytes: 1000,
            started: SimTime::from_micros(10),
            completed: SimTime::from_micros(250),
        };
        assert_eq!(r.fct(), SimDuration::from_micros(240));
        let mut s = NetStats::new(RttScope::All, 0);
        s.fct.push(r);
        assert_eq!(s.mean_fct().unwrap(), SimDuration::from_micros(240));
        assert_eq!(
            DropCounts {
                host: 1,
                tor: 2,
                agg: 3,
                core: 4,
                oracle: 5
            }
            .total(),
            15
        );
    }
}
