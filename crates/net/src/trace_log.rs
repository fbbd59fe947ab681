//! Raw event tracing — §2.1's "users can … print raw packet/event traces".
//!
//! When enabled, the engine appends one [`TraceEntry`] per interesting
//! event (packet arrival, transmission start, drop, oracle verdict) into a
//! bounded buffer. Tracing every packet of a large run would dwarf the
//! simulation itself in memory, so the buffer is bounded at `limit`
//! entries under one of two deterministic retention policies — both
//! reproducible, unlike a ring buffer whose content depends on where the
//! run stops:
//!
//! * **first-N** (the default, [`TraceLog::new`]): keep the first `limit`
//!   events. Full detail on the warm-up, zero tail coverage.
//! * **strided** ([`TraceLog::strided`]): keep every k-th observed event,
//!   with `k` chosen from `limit` and an expected-event-count hint, so the
//!   retained sample spans the whole run.

use elephant_des::SimTime;

use crate::types::{FlowId, NodeId};

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceKind {
    /// Packet finished a link traversal and arrived at a node.
    Arrive,
    /// Packet began serialization on an output port.
    TxStart,
    /// Packet was dropped by a full queue.
    Drop,
    /// Oracle delivered the packet across a stub fabric.
    OracleDeliver,
    /// Oracle dropped the packet.
    OracleDrop,
}

impl TraceKind {
    /// Stable lowercase name (CSV column value).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Arrive => "arrive",
            TraceKind::TxStart => "tx_start",
            TraceKind::Drop => "drop",
            TraceKind::OracleDeliver => "oracle_deliver",
            TraceKind::OracleDrop => "oracle_drop",
        }
    }
}

/// One trace record.
#[derive(Clone, Copy, Debug)]
pub struct TraceEntry {
    /// When.
    pub time: SimTime,
    /// What.
    pub kind: TraceKind,
    /// Where.
    pub node: NodeId,
    /// Unique packet id.
    pub packet: u64,
    /// Directional flow id.
    pub flow: FlowId,
    /// Sequence number of the carried segment.
    pub seq: u64,
}

/// Bounded deterministic event trace (first-N or strided retention).
#[derive(Clone, Debug)]
pub struct TraceLog {
    entries: Vec<TraceEntry>,
    limit: usize,
    /// Keep an observed event iff `(observed - 1) % stride == 0`; 1 is
    /// the first-N policy.
    stride: u64,
    observed: u64,
}

impl TraceLog {
    /// Creates a trace keeping the first `limit` entries.
    pub fn new(limit: usize) -> Self {
        TraceLog {
            entries: Vec::with_capacity(limit.min(4096)),
            limit,
            stride: 1,
            observed: 0,
        }
    }

    /// Creates a strided trace: keeps every k-th observed event, where
    /// `k = ceil(expected_events / limit)` (at least 1), so a run matching
    /// the hint fills the buffer evenly from start to finish. The hint
    /// only shapes coverage — an underestimate still truncates at `limit`,
    /// an overestimate retains fewer, evenly spaced entries. Retention
    /// depends only on each event's ordinal, never on wall time, so it is
    /// exactly reproducible.
    pub fn strided(limit: usize, expected_events: u64) -> Self {
        let stride = if limit == 0 {
            1
        } else {
            expected_events.div_ceil(limit as u64).max(1)
        };
        TraceLog {
            entries: Vec::with_capacity(limit.min(4096)),
            limit,
            stride,
            observed: 0,
        }
    }

    /// The retention stride (1 for first-N).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Records an entry (dropped silently once full or off-stride;
    /// `observed` still counts). Returns where it was kept, if it was.
    #[inline]
    pub fn record(&mut self, entry: TraceEntry) -> Option<usize> {
        let keep = self.observed.is_multiple_of(self.stride);
        self.observed += 1;
        let at = self.entries.len();
        if !keep || at >= self.limit {
            return None;
        }
        self.entries.push(entry);
        Some(at)
    }

    /// Rewrites the kind of the entry [`TraceLog::record`] kept at `at`:
    /// a boundary crossing takes its place in the log when it is handled
    /// and learns its verdict when that is applied.
    pub(crate) fn set_kind(&mut self, at: usize, kind: TraceKind) {
        self.entries[at].kind = kind;
    }

    /// The retained entries, in simulation order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total events observed, including those beyond the limit.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// True once the buffer stopped retaining events the policy wanted:
    /// for first-N, any event past `limit`; for strided, an on-stride
    /// event arriving after the buffer filled.
    pub fn truncated(&self) -> bool {
        self.observed.div_ceil(self.stride) > self.entries.len() as u64
    }

    /// Renders as CSV rows (no header): `time_ns,kind,node,packet,flow,seq`.
    pub fn to_csv_rows(&self) -> Vec<Vec<String>> {
        self.entries
            .iter()
            .map(|e| {
                vec![
                    e.time.as_nanos().to_string(),
                    e.kind.name().to_string(),
                    e.node.0.to_string(),
                    e.packet.to_string(),
                    e.flow.0.to_string(),
                    e.seq.to_string(),
                ]
            })
            .collect()
    }
}

/// The head of the trace as a table: a count line, a header, and the
/// first 20 retained entries.
impl std::fmt::Display for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "first events of the raw trace ({} retained, {} observed{}):\n  \
             {:>12}  {:<14} {:>6} {:>8} {:>8} {:>10}",
            self.entries.len(),
            self.observed,
            if self.truncated() { ", truncated" } else { "" },
            "time",
            "kind",
            "node",
            "packet",
            "flow",
            "seq"
        )?;
        for e in self.entries.iter().take(20) {
            write!(
                f,
                "\n  {:>12}  {:<14} {:>6} {:>8} {:>8} {:>10}",
                e.time.to_string(),
                e.kind.name(),
                e.node.0,
                e.packet,
                e.flow.0,
                e.seq
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64, kind: TraceKind) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_nanos(t),
            kind,
            node: NodeId(3),
            packet: 9,
            flow: FlowId(2),
            seq: 1460,
        }
    }

    #[test]
    fn keeps_first_n_and_counts_all() {
        let mut log = TraceLog::new(2);
        log.record(entry(1, TraceKind::Arrive));
        log.record(entry(2, TraceKind::TxStart));
        log.record(entry(3, TraceKind::Drop));
        assert_eq!(log.entries().len(), 2);
        assert_eq!(log.observed(), 3);
        assert!(log.truncated());
        assert_eq!(log.entries()[0].time, SimTime::from_nanos(1));
        assert_eq!(log.entries()[1].kind, TraceKind::TxStart);
    }

    #[test]
    fn strided_mode_samples_the_whole_run() {
        // 100 expected events into 10 slots => stride 10.
        let mut log = TraceLog::strided(10, 100);
        assert_eq!(log.stride(), 10);
        for t in 0..100 {
            log.record(entry(t, TraceKind::Arrive));
        }
        assert_eq!(log.entries().len(), 10);
        assert_eq!(log.observed(), 100);
        let times: Vec<u64> = log.entries().iter().map(|e| e.time.as_nanos()).collect();
        assert_eq!(times, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
        // Exactly the budgeted sample was kept: nothing on-stride was lost.
        assert!(!log.truncated());
    }

    #[test]
    fn strided_mode_is_deterministic_and_bounded() {
        // Underestimated hint: more events than expected still truncate
        // at the limit, keeping the earliest on-stride entries.
        let run = |n: u64| {
            let mut log = TraceLog::strided(4, 20);
            for t in 0..n {
                log.record(entry(t, TraceKind::TxStart));
            }
            log.entries()
                .iter()
                .map(|e| e.time.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(40), vec![0, 5, 10, 15]);
        assert_eq!(run(40), run(40));
        let mut log = TraceLog::strided(4, 20);
        for t in 0..40 {
            log.record(entry(t, TraceKind::TxStart));
        }
        assert!(log.truncated());
        // Degenerate inputs stay sane.
        assert_eq!(TraceLog::strided(10, 0).stride(), 1);
        assert_eq!(TraceLog::strided(0, 100).stride(), 1);
    }

    #[test]
    fn csv_rows_are_flat() {
        let mut log = TraceLog::new(10);
        log.record(entry(5, TraceKind::OracleDeliver));
        let rows = log.to_csv_rows();
        assert_eq!(
            rows,
            vec![vec![
                "5".to_string(),
                "oracle_deliver".to_string(),
                "3".to_string(),
                "9".to_string(),
                "2".to_string(),
                "1460".to_string(),
            ]]
        );
        assert!(!log.truncated());
    }
}
