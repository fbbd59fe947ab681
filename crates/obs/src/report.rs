//! Exportable run reports: one serializable struct capturing a run's
//! throughput figures, metric rows, per-partition timing, and phase
//! clocks, with human-table / JSON renderers. Bench binaries emit these
//! as `BENCH_<name>.json`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::hist::LogHistogram;

/// One exported metric (counter, gauge, or histogram summary).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MetricRow {
    /// Metric name (`subsystem/area/metric`).
    pub name: String,
    /// Instance label ("" when unlabelled).
    pub label: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: String,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: f64,
    /// Observation count (histograms; equals `value` for counters).
    pub count: u64,
    /// Mean observation (histograms only, else 0).
    pub mean: f64,
    /// 50th percentile (histograms only, else 0).
    pub p50: f64,
    /// 90th percentile (histograms only, else 0).
    pub p90: f64,
    /// 99th percentile (histograms only, else 0).
    pub p99: f64,
}

impl MetricRow {
    /// Row for a counter value.
    pub fn counter(name: &str, label: &str, value: u64) -> Self {
        MetricRow {
            name: name.to_string(),
            label: label.to_string(),
            kind: "counter".to_string(),
            value: value as f64,
            count: value,
            ..Default::default()
        }
    }

    /// Row for a gauge level.
    pub fn gauge(name: &str, label: &str, value: f64) -> Self {
        MetricRow {
            name: name.to_string(),
            label: label.to_string(),
            kind: "gauge".to_string(),
            value,
            ..Default::default()
        }
    }

    /// Row summarizing a histogram.
    pub fn histogram(name: &str, label: &str, h: &LogHistogram) -> Self {
        MetricRow {
            name: name.to_string(),
            label: label.to_string(),
            kind: "histogram".to_string(),
            value: h.count() as f64,
            count: h.count(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
        }
    }
}

/// One timed phase of the run a report describes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ProfileRow {
    /// The phase: `setup` (world build), `run` (the run loop) or `train`.
    pub path: String,
    /// Times the phase ran.
    pub count: u64,
    /// Total wall seconds spent in it.
    pub seconds: f64,
}

impl ProfileRow {
    /// A phase that ran once and took `seconds`.
    pub fn once(path: &str, seconds: f64) -> Self {
        ProfileRow {
            path: path.to_string(),
            count: 1,
            seconds,
        }
    }
}

/// Per-partition timing breakdown of a parallel (PDES) run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PartitionRow {
    /// Partition index.
    pub partition: usize,
    /// Events executed by this partition.
    pub events: u64,
    /// Wall seconds spent executing events.
    pub work_seconds: f64,
    /// Wall seconds spent blocked on epoch barriers.
    pub barrier_wait_seconds: f64,
    /// `barrier_wait / (barrier_wait + work + marshal)`, in [0,1].
    pub barrier_wait_share: f64,
    /// Wall seconds spent marshalling cross-partition events.
    pub marshal_seconds: f64,
    /// Cross-partition events sent.
    pub remote_events_sent: u64,
    /// Cross-partition bytes sent (encoded envelope payloads).
    pub remote_bytes_sent: u64,
}

impl PartitionRow {
    /// Fills in `barrier_wait_share` from the timing fields.
    pub fn finish(mut self) -> Self {
        let busy = self.work_seconds + self.barrier_wait_seconds + self.marshal_seconds;
        self.barrier_wait_share = if busy > 0.0 {
            self.barrier_wait_seconds / busy
        } else {
            0.0
        };
        self
    }
}

/// A complete, serializable description of one run's performance.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RunReport {
    /// Short machine-friendly run name (used in `BENCH_<name>.json`).
    pub name: String,
    /// Human description of the scenario/configuration.
    pub scenario: String,
    /// Wall-clock duration of the measured run.
    pub wall_seconds: f64,
    /// Simulated time covered.
    pub sim_seconds: f64,
    /// Events executed.
    pub events: u64,
    /// Events per wall second.
    pub events_per_second: f64,
    /// Simulated seconds per wall second (the paper's speed metric).
    pub sim_seconds_per_second: f64,
    /// Named scalar results (loss, accuracy, overhead fractions, ...).
    pub scalars: BTreeMap<String, f64>,
    /// Per-partition breakdown (one zero-wait row for sequential runs).
    pub partitions: Vec<PartitionRow>,
    /// Metric rows derived from the finished run (filled by the driver).
    pub metrics: Vec<MetricRow>,
    /// The run's phase clocks (filled by the driver).
    pub profile: Vec<ProfileRow>,
}

fn format_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl RunReport {
    /// Creates an empty report.
    pub fn new(name: impl Into<String>, scenario: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            scenario: scenario.into(),
            ..Default::default()
        }
    }

    /// Sets the throughput figures, deriving the rates.
    pub fn set_run(&mut self, wall_seconds: f64, events: u64, sim_seconds: f64) {
        self.wall_seconds = wall_seconds;
        self.events = events;
        self.sim_seconds = sim_seconds;
        self.events_per_second = finite(events as f64 / wall_seconds);
        self.sim_seconds_per_second = finite(sim_seconds / wall_seconds);
    }

    /// Records a named scalar result.
    pub fn scalar(&mut self, key: impl Into<String>, value: f64) {
        self.scalars.insert(key.into(), finite(value));
    }

    /// Renders a human-readable table (run line, scalars, partitions,
    /// metrics, phase clocks).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        if !self.scenario.is_empty() {
            out.push_str(&format!("{}\n", self.scenario));
        }
        if self.wall_seconds > 0.0 {
            out.push_str(&format!(
                "wall {:.3}s  sim {:.3}s  events {}  {:.0} events/s  {:.2} sim-s/s\n",
                self.wall_seconds,
                self.sim_seconds,
                self.events,
                self.events_per_second,
                self.sim_seconds_per_second,
            ));
        }
        if !self.scalars.is_empty() {
            out.push_str("-- scalars --\n");
            for (k, v) in &self.scalars {
                out.push_str(&format!("{k:<44} {v:.6}\n"));
            }
        }
        if !self.partitions.is_empty() {
            out.push_str("-- partitions --\n");
            out.push_str(&format!(
                "{:>4} {:>12} {:>10} {:>12} {:>8} {:>10} {:>12} {:>12}\n",
                "part",
                "events",
                "work",
                "barrier",
                "share",
                "marshal",
                "remote_evts",
                "remote_bytes"
            ));
            for p in &self.partitions {
                out.push_str(&format!(
                    "{:>4} {:>12} {:>9.3}s {:>11.3}s {:>7.1}% {:>9.3}s {:>12} {:>12}\n",
                    p.partition,
                    p.events,
                    p.work_seconds,
                    p.barrier_wait_seconds,
                    p.barrier_wait_share * 100.0,
                    p.marshal_seconds,
                    p.remote_events_sent,
                    p.remote_bytes_sent,
                ));
            }
        }
        if !self.metrics.is_empty() {
            out.push_str("-- metrics --\n");
            out.push_str(&format!(
                "{:<44} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "kind", "value", "p50", "p90", "p99"
            ));
            for m in &self.metrics {
                let name = if m.label.is_empty() {
                    m.name.clone()
                } else {
                    format!("{}[{}]", m.name, m.label)
                };
                if m.kind == "histogram" {
                    out.push_str(&format!(
                        "{:<44} {:>10} {:>12} {:>12.3e} {:>12.3e} {:>12.3e}\n",
                        name, m.kind, m.count, m.p50, m.p90, m.p99
                    ));
                } else {
                    // Unrounded when that fits the column (so whole numbers
                    // print whole: CI compares some as integers), else in
                    // a form that fits whatever the magnitude.
                    let mut value = m.value.to_string();
                    if value.len() > 12 {
                        value = format!("{:.6e}", m.value);
                    }
                    out.push_str(&format!(
                        "{:<44} {:>10} {value:>12} {:>12} {:>12} {:>12}\n",
                        name, m.kind, "-", "-", "-"
                    ));
                }
            }
        }
        if !self.profile.is_empty() {
            out.push_str("-- profile --\n");
            out.push_str(&format!(
                "{:<40} {:>10} {:>12}\n",
                "phase", "count", "total"
            ));
            for p in &self.profile {
                let secs = format_secs(p.seconds);
                out.push_str(&format!("{:<40} {:>10} {secs:>12}\n", p.path, p.count));
            }
        }
        out
    }

    /// Compact single-line JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }

    /// Indented JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        let mut r = RunReport::new("unit", "2 clusters, 10ms");
        r.set_run(2.0, 10_000, 0.5);
        r.scalar("overhead_fraction", 0.013);
        let mut h = LogHistogram::for_latency_seconds();
        for i in 1..=100 {
            h.record(i as f64 * 1e-5);
        }
        r.metrics = vec![
            MetricRow::counter("net/port/drops", "tor", 17),
            MetricRow::histogram("hybrid/oracle/infer", "", &h),
        ];
        r.profile = vec![
            ProfileRow::once("setup", 0.25),
            ProfileRow::once("run", 2.0),
        ];
        r.partitions = vec![PartitionRow {
            partition: 0,
            events: 10_000,
            work_seconds: 1.2,
            barrier_wait_seconds: 0.4,
            marshal_seconds: 0.4,
            remote_events_sent: 55,
            remote_bytes_sent: 3520,
            ..Default::default()
        }
        .finish()];
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample_report();
        let back: RunReport = serde_json::from_str(&r.to_json()).expect("parses");
        assert_eq!(back.name, "unit");
        assert_eq!(back.events, 10_000);
        assert_eq!(back.metrics.len(), 2);
        assert_eq!(back.metrics[0].count, 17);
        assert!((back.metrics[1].p50 - r.metrics[1].p50).abs() < 1e-12);
        assert_eq!(back.partitions[0].remote_events_sent, 55);
        assert!((back.partitions[0].barrier_wait_share - 0.2).abs() < 1e-12);
        assert!((back.scalars["overhead_fraction"] - 0.013).abs() < 1e-12);
        let pretty: RunReport = serde_json::from_str(&r.to_json_pretty()).expect("parses");
        assert_eq!(pretty.profile.len(), 2);
    }

    /// Where each whitespace-separated field of `line` ends.
    fn field_ends(line: &str) -> Vec<usize> {
        let b = line.as_bytes();
        (1..=b.len())
            .filter(|&i| b[i - 1] != b' ' && (i == b.len() || b[i] == b' '))
            .collect()
    }

    /// Every metrics row, whatever its kind or value, ends its fields
    /// where the header ends its column names.
    #[test]
    fn metric_columns_line_up() {
        let mut r = sample_report();
        r.metrics.extend([
            MetricRow::gauge(
                "train/eval/seconds_per_sample",
                "up",
                0.0000006859552941176471,
            ),
            MetricRow::gauge("des/kernel/heap_depth_peak", "", 4756.0),
            MetricRow::gauge("mem/peak_rss_bytes", "", 90_505_216.0),
            MetricRow::gauge("mem/bytes", "huge", 1e15),
            MetricRow::gauge("hybrid/rtt/ks", "", -12345678.25),
            MetricRow::gauge("hybrid/guard/fallback_active", "", 0.0),
            MetricRow::gauge("nan", "", f64::NAN),
        ]);
        let t = r.to_table();
        let mut lines = t.lines().skip_while(|l| *l != "-- metrics --").skip(1);
        // The name column is left-aligned; the rest end together.
        let header = field_ends(lines.next().unwrap())[1..].to_vec();
        let rows: Vec<&str> = lines.take_while(|l| !l.starts_with("--")).collect();
        assert_eq!(rows.len(), r.metrics.len());
        for row in rows {
            assert_eq!(field_ends(row)[1..], header, "{row:?}");
        }
        assert!(t.contains(" 4756 "), "integral gauges print whole: {t}");
        assert!(t.contains(" 6.859553e-7 "), "{t}");
    }

    #[test]
    fn table_mentions_key_figures() {
        let t = sample_report().to_table();
        assert!(t.contains("== unit =="));
        assert!(t.contains("net/port/drops[tor]"));
        assert!(t.contains("hybrid/oracle/infer"));
        assert!(t.contains("overhead_fraction"));
        assert!(
            t.contains("setup") && t.contains("250.00ms"),
            "phase rendered: {t}"
        );
        assert!(t.contains("20.0%"), "barrier share rendered: {t}");
    }

    #[test]
    fn table_prints_gauges_unrounded() {
        let mut r = RunReport::new("unit", "gauges");
        r.metrics = vec![
            MetricRow::gauge("train/eval/macro_agreement", "", 0.185),
            MetricRow::gauge("des/kernel/heap_depth_peak", "", 4756.0),
        ];
        let t = r.to_table();
        // Column 3 is the value, as CI's `awk '{ print $3 }'` reads it.
        let value = |name: &str| {
            let line = t.lines().find(|l| l.starts_with(name)).expect("row");
            line.split_whitespace().nth(2).expect("value").to_string()
        };
        assert_eq!(value("train/eval/macro_agreement"), "0.185", "{t}");
        assert_eq!(value("des/kernel/heap_depth_peak"), "4756", "{t}");
    }
}
