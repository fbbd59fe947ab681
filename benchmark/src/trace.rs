//! The benchmark's span recorder. Spans are opened and closed around calls
//! into a layer by the shims in `bind.rs`; totals and the first
//! [`SPAN_CAP`] raw spans stay in memory and are written out when the
//! traced run ends.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans cover. Spans nest strictly (a stack), so a child's duration is
//! added to its parent's covered time when the child closes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::{int, obj, text, Value};

/// Raw spans kept per run; totals keep counting past it.
pub const SPAN_CAP: usize = 100_000;
/// Parent id of a span with no parent.
const NO_PARENT: u32 = u32::MAX;

/// Totals of one span name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Totals {
    /// Calls counted through [`Tracer::count`] (exact, timed or not).
    pub calls: u64,
    /// Spans recorded.
    pub timed: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    name: usize,
    start: Instant,
    covered_ns: u64,
    /// Index into `spans`, or `NO_PARENT` once the cap is reached.
    id: u32,
}

struct Span {
    name: usize,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

#[derive(Default)]
struct Inner {
    totals: Vec<Totals>,
    open: Vec<Open>,
    spans: Vec<Span>,
}

/// Span recorder shared by the shims of one traced run. The run is single
/// threaded; the lock and atomics exist because an oracle must be `Send`.
pub struct Tracer {
    names: Vec<&'static str>,
    run: String,
    epoch: Instant,
    /// True while a span is open: nested layers time their calls only then.
    timing: AtomicBool,
    calls: Vec<AtomicU64>,
    inner: Mutex<Inner>,
}

impl Tracer {
    /// A recorder for spans named `names`, all tagged with run id `run`.
    pub fn new(names: &[&'static str], run: String) -> Self {
        Tracer {
            names: names.to_vec(),
            run,
            epoch: Instant::now(),
            timing: AtomicBool::new(false),
            calls: names.iter().map(|_| AtomicU64::new(0)).collect(),
            inner: Mutex::new(Inner {
                totals: vec![Totals::default(); names.len()],
                ..Default::default()
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("tracer is used by one thread")
    }

    /// Counts one call of `name`, whether or not it is timed.
    pub fn count(&self, name: usize) {
        self.calls[name].fetch_add(1, Ordering::Relaxed);
    }

    /// Whether a span is open right now.
    pub fn timing(&self) -> bool {
        self.timing.load(Ordering::Relaxed)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&self, name: usize) {
        let mut g = self.lock();
        let parent = g.open.last().map_or(NO_PARENT, |o| o.id);
        let id = if g.spans.len() < SPAN_CAP {
            g.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            (g.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.timing.store(true, Ordering::Relaxed);
        // The clock is read last, so the recorder's own work stays outside.
        g.open.push(Open {
            name,
            start: Instant::now(),
            covered_ns: 0,
            id,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&self) {
        let end = Instant::now();
        let mut g = self.lock();
        let o = g.open.pop().expect("exit without enter");
        let ns = end.duration_since(o.start).as_nanos() as u64;
        let t = &mut g.totals[o.name];
        t.timed += 1;
        t.total_ns += ns;
        t.self_ns += ns.saturating_sub(o.covered_ns);
        if o.id != NO_PARENT {
            let start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            let s = &mut g.spans[o.id as usize];
            s.start_ns = start_ns;
            s.end_ns = start_ns + ns;
        }
        match g.open.last_mut() {
            Some(parent) => parent.covered_ns += ns,
            None => self.timing.store(false, Ordering::Relaxed),
        }
    }

    /// Totals of `name`, with the exact call count filled in.
    pub fn totals(&self, name: usize) -> Totals {
        let mut t = self.lock().totals[name];
        t.calls = self.calls[name].load(Ordering::Relaxed);
        t
    }

    /// The trace as one JSON document: totals per name, then the raw spans
    /// as rows of `span_fields`.
    pub fn to_json(&self, stride: u64) -> Value {
        let g = self.lock();
        let totals = self.names.iter().enumerate().map(|(i, n)| {
            let t = g.totals[i];
            obj([
                ("name", text(*n)),
                ("calls", int(self.calls[i].load(Ordering::Relaxed))),
                ("timed", int(t.timed)),
                ("total_ns", int(t.total_ns)),
                ("self_ns", int(t.self_ns)),
            ])
        });
        let spans = g.spans.iter().map(|s| {
            let parent = if s.parent == NO_PARENT {
                Value::Null
            } else {
                int(u64::from(s.parent))
            };
            Value::Seq(vec![
                text(self.names[s.name]),
                int(s.start_ns),
                int(s.end_ns),
                parent,
                text(self.run.as_str()),
            ])
        });
        obj([
            ("run", text(self.run.as_str())),
            ("stride", int(stride)),
            ("span_cap", int(SPAN_CAP as u64)),
            ("totals", Value::Seq(totals.collect())),
            (
                "span_fields",
                Value::Seq(
                    ["name", "start_ns", "end_ns", "parent", "run"]
                        .map(text)
                        .to_vec(),
                ),
            ),
            ("spans", Value::Seq(spans.collect())),
        ])
    }
}
