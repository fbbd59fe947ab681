//! Chrome-trace/Perfetto timelines of finished runs.
//!
//! A run's metric rows answer "how much, in total"; a [`Timeline`] answers
//! "when". It is a plain value, built after the run from state the run
//! already keeps — flow spans and drop/oracle instants from the networks'
//! trace logs, counter tracks from the sampler's samples, PDES epoch
//! slices from the kernel report, guard trips from the guard's trip log —
//! and it serializes itself as a Chrome trace-event JSON file loadable in
//! `chrome://tracing` or [ui.perfetto.dev](https://ui.perfetto.dev).
//! Nothing here is process-wide: two runs in one process build two
//! timelines, and a checkpoint restore that discards a chunk discards
//! that chunk's slices with it.
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
//! Wall-clock stamps never feed back into simulated time, so recording
//! cannot perturb simulation results.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// Trace process id for wall-clock PDES partition tracks.
pub const PID_PDES: u32 = 1;
/// Trace process id for sim-time flow spans and drop/oracle/guard instants.
pub const PID_FLOWS: u32 = 2;
/// Trace process id for sim-time sampler counter tracks.
pub const PID_SAMPLES: u32 = 3;

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
#[derive(Clone, Debug, PartialEq)]
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

/// A finished run's timeline: its records plus process/track display
/// names. Build one per run, then [`Timeline::save`] it.
#[derive(Debug, Default)]
pub struct Timeline {
    /// The records, in export order.
    pub records: Vec<TraceRecord>,
    processes: BTreeMap<u32, String>,
    tracks: BTreeMap<(u32, u64), String>,
    /// Records producers discarded at their own caps (a PDES partition's
    /// slice cap), so a truncated trace is never mistaken for a complete
    /// one.
    pub dropped: u64,
}

impl Timeline {
    /// Sets the display name for a trace process (track group).
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        self.processes.insert(pid, name.into());
    }

    /// Sets the display name for a track within a process.
    pub fn name_track(&mut self, pid: u32, tid: u64, name: impl Into<String>) {
        self.tracks.insert((pid, tid), name.into());
    }

    /// Renders the trace as Chrome trace-event JSON, the "JSON object
    /// format": `{"displayTimeUnit": "ms", "traceEvents": [...]}` with
    /// `process_name` / `thread_name` metadata events first, then the
    /// records. Load it in `chrome://tracing` or drop it onto
    /// [ui.perfetto.dev](https://ui.perfetto.dev).
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
    fn serializes_slices_instants_and_counters() {
        let mut tl = Timeline::default();
        tl.name_process(PID_PDES, "pdes partitions (wall clock)");
        tl.name_track(PID_PDES, 3, "partition 3");
        tl.records.push(
            TraceRecord::complete(PID_PDES, 3, "work", 10.0, 5.5)
                .arg("epoch", 7u64)
                .arg("events", 120u64),
        );
        tl.records
            .push(TraceRecord::instant(PID_FLOWS, 1, "drop", 42.25).arg("node", "tor3"));
        tl.records.push(
            TraceRecord::counter(PID_SAMPLES, "queue_bytes", 100.0)
                .arg("tor", 1500.0)
                .arg("core", 0.0),
        );

        let evs = events(&tl.to_json());
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
        let mut tl = Timeline::default();
        let name = "a \"b\"\\\n\tc".to_string();
        tl.records
            .push(TraceRecord::instant(PID_FLOWS, 0, name, 0.0));
        let evs = events(&tl.to_json());
        assert_eq!(str_of(field(&evs[0], "name")), "a \"b\"\\\n\tc");
    }

    #[test]
    fn an_empty_timeline_is_an_empty_trace() {
        let tl = Timeline::default();
        assert_eq!(
            tl.to_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
