//! Conservative parallel discrete-event simulation (PDES).
//!
//! This engine reproduces the *kind* of parallelism OMNeT++'s MPI-based
//! PDES offers, which the paper's Figure 1 evaluates: the model is split
//! into partitions (logical processes), each with its own future event list,
//! and partitions may only exchange events whose delivery delay is at least
//! the **lookahead** `L` — in a network model, the minimum latency of any
//! cross-partition link.
//!
//! Synchronization is barrier-synchronous ("synchronous conservative"), with
//! two epoch modes (see [`EpochMode`]):
//!
//! * **Adaptive** (the default): each epoch, the planner computes every
//!   partition's *execution bound* from the published frontier — the
//!   earliest pending event of each partition, including mail still in
//!   flight through the exchange. Partition `r` may execute every event
//!   strictly below
//!
//!   ```text
//!   bound(r) = min( min over q != r of next(q) + L,  next(r) + 2L )
//!   ```
//!
//!   where `next(q)` is partition `q`'s earliest pending event. The first
//!   term is the classic conservative bound: the earliest instant at which
//!   any *other* partition could send `r` something new. The second term
//!   covers chains that return to `r` through an intermediary (`r → p → r`):
//!   remote self-sends are forbidden (asserted by [`RemoteSink::send`]), so
//!   any influence of `r` on itself crosses at least two links and arrives
//!   no earlier than `next(r) + 2L`. Because bounds are per-partition and
//!   anchored to the *global* minimum only through the published frontiers,
//!   an idle stretch — every partition's next event far in the future —
//!   costs a single barrier instead of thousands.
//!
//! * **Fixed**: the textbook fixed-increment escape hatch. Epoch `k+1` ends
//!   exactly `L` after epoch `k`, never skipping idle simulated time. This
//!   is the behaviour the adaptive planner is measured against (see the
//!   `pdes_scaling` bench) and the supervisor's degrade rung.
//!
//! Both modes execute events in an identical order: cross-partition
//! deliveries carry an intrinsic `(time, sender, send-seq)` key into the
//! scheduler's remote lane ([`Scheduler::schedule_remote`]), so tie order at
//! equal timestamps does not depend on which epoch plan happened to carry a
//! message. A run is therefore bit-identical across epoch modes, chunked
//! `run_until` boundaries, and repeat runs.
//!
//! ## One protocol, two drivers
//!
//! ```text
//! frontier = each partition's earliest pending event, no mail in flight
//! while let Some(bounds) = planner.plan(frontier) {  // watchdog, failures
//!     for each partition r:               // one thread each, or in order
//!         frontier[r] = run_epoch(r, bounds[r], inbox(r))  // drain, execute, post
//!     move the posted mail into the exchange for the next epoch
//! }
//! deliver the mail still in flight
//! ```
//!
//! [`PdesRunner::run_until`] runs a thread per partition (thread 0 also
//! plans) with a barrier between the phases; all of the engine's `unsafe` is
//! in its module, `threaded`. [`PdesRunner::run_until_lockstep`] runs the
//! same plans on the calling thread: the reference the threaded driver is
//! tested against. `run_epoch` publishes a panic in its body (a handler, the
//! model's codec) as the partition's failure, like an undecodable message,
//! and the next plan ends the run with the failure of earliest `(time,
//! partition)`, whatever the thread timing.
//!
//! ## The exchange
//!
//! Cross-partition messages move by pointer through per-(sender, receiver)
//! cells that receivers drain the next epoch. The threaded exchange is
//! double-buffered: senders fill their row of one buffer while receivers
//! drain their column of the other — disjoint cells, no locks. The barrier
//! swaps the buffers and publishes the writes (its atomics establish the
//! happens-before edges). It waits through the [`Waiter`](crate::Waiter)
//! the verdict pipeline uses too: spinning first when each partition has a
//! core, as epochs are often shorter than a park/unpark round trip.
//!
//! ## Emulating multi-machine deployments
//!
//! The paper runs PDES across 1–4 physical machines over MPI. We emulate a
//! machine boundary faithfully at the transport level: partitions are
//! assigned to machines, and every event crossing a machine boundary is
//! encoded ([`Transportable`], through a [`wire::Writer`]) into a byte
//! buffer the partition keeps and reuses, behind a configurable envelope
//! (modeling MPI headers and kernel copies), checksummed (forcing the
//! copies to actually happen), and decoded on the far side by a
//! [`wire::Reader`] over those bytes, once per delivered copy; a read past
//! the end, a value the encoder never writes, or a byte left unread fails
//! the decode instead of panicking. Same-machine exchanges move the event by pointer. This
//! gives the distinctive Figure-1 behaviour — more machines means more
//! per-message overhead — without requiring actual remote hosts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use elephant_obs::{TraceRecord, PID_PDES};

use crate::fault::{FaultCounts, FaultPlan, FaultRng};
use crate::sched::{Next, Scheduler};
use crate::sim::FEL_BYTES_EVERY;
use crate::time::{SimDuration, SimTime};
use crate::wire;

/// Default watchdog bound: abort if the global minimum event time sits,
/// already covered by the previous epoch's execution bounds, for this many
/// consecutive epochs. A healthy adaptive epoch always executes the
/// globally-earliest event (its owner's bound exceeds it by at least `L`),
/// so any such stagnation is a stall; the slack only exists to keep
/// diagnostics unambiguous. In fixed mode, epochs that have not yet ground
/// forward to the next event are exempt (the bound has not covered it yet).
pub const DEFAULT_STALL_EPOCHS: u64 = 64;

/// Identifies a partition (logical process) in a PDES run.
pub type PartitionId = usize;

/// How the planner advances simulated time from epoch to epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EpochMode {
    /// Jump each epoch to the published global frontier and give every
    /// partition its own conservative execution bound (see module docs).
    #[default]
    Adaptive,
    /// Fixed-increment stepping: every epoch ends exactly `L` after the
    /// previous one, grinding through idle stretches one barrier at a time.
    /// The reference the adaptive planner is tested against, and the
    /// supervisor's degrade rung.
    Fixed,
}

/// Events that can cross a (simulated) machine boundary.
///
/// `encode`/`decode` must round-trip exactly; the engine asserts nothing
/// about the wire format beyond that.
pub trait Transportable: Sized {
    /// Serializes `self` onto `w`.
    fn encode(&self, w: &mut wire::Writer);
    /// Deserializes one value, consuming its bytes. Returns `None` on bytes
    /// `encode` never writes, truncation included (treated as a fatal model
    /// error by the engine).
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self>;
}

/// A partitioned simulation model.
///
/// Like [`crate::World`], but the handler may also emit events destined for
/// other partitions through the [`RemoteSink`].
pub trait PartitionWorld: Send {
    /// The event alphabet, shared by all partitions of the model.
    type Event: Transportable + Send;

    /// Handles one local event. Remote events must respect the lookahead:
    /// their delivery time must be at least `L` after the event being
    /// handled (the sink enforces this with an assertion).
    fn handle(
        &mut self,
        event: Self::Event,
        sched: &mut Scheduler<Self::Event>,
        remote: &mut RemoteSink<Self::Event>,
    );
}

/// Collects events addressed to other partitions during an epoch.
pub struct RemoteSink<E> {
    /// The owning partition; remote self-sends are rejected.
    me: PartitionId,
    /// The run's partition count; sends past it are rejected.
    partitions: usize,
    lookahead: SimDuration,
    /// Timestamp of the event currently being handled; the lookahead floor.
    now: SimTime,
    out: Vec<(PartitionId, SimTime, E)>,
}

impl<E> RemoteSink<E> {
    fn new(me: PartitionId, partitions: usize, lookahead: SimDuration) -> Self {
        RemoteSink {
            me,
            partitions,
            lookahead,
            now: SimTime::ZERO,
            out: Vec::new(),
        }
    }

    /// Sends `event` to `partition`, to be delivered at absolute time `at`.
    ///
    /// # Panics
    /// - If `at` violates the lookahead guarantee (earlier than the current
    ///   event's timestamp plus `L`); that is a causality bug in the model,
    ///   not a recoverable condition.
    /// - If `partition` is the sender itself: the adaptive planner's
    ///   per-partition bounds assume a partition can only influence itself
    ///   through at least two cross-partition hops, so self-routed events
    ///   must use the local scheduler.
    /// - If `partition` is not a partition of the run.
    ///
    /// Inside a run each of these ends it with [`PdesError::Panicked`].
    pub fn send(&mut self, partition: PartitionId, at: SimTime, event: E) {
        assert!(
            partition != self.me,
            "partition {} may not remote-send to itself; use the local scheduler",
            self.me
        );
        assert!(
            partition < self.partitions,
            "remote event to unknown partition {partition} (the run has {})",
            self.partitions
        );
        assert!(
            at >= self.now.saturating_add(self.lookahead),
            "lookahead violation: remote event at {at} sent from an event at {} \
             with lookahead {}",
            self.now,
            self.lookahead
        );
        self.out.push((partition, at, event));
    }
}

/// One partition: its world plus its private future event list.
pub struct PartitionSim<W: PartitionWorld> {
    world: W,
    sched: Scheduler<W::Event>,
    /// Running count of cross-partition message copies this partition has
    /// posted, across `run_until` chunks — the `send-seq` half of the remote
    /// tie-break key, so chunk boundaries cannot collide or reorder keys.
    send_seq: u64,
    /// Fault-RNG stream, persisted across `run_until` chunks and
    /// checkpoints so a chunked or resumed run rolls the identical fault
    /// sequence as an uninterrupted one. `None` until a faulted run starts.
    fault_rng: Option<FaultRng>,
    /// Epochs this partition has executed across all chunks — the counter a
    /// scripted [`FaultPlan::stall_partition`] fault measures against, so a
    /// restored run re-stalls (or not) exactly where the original did.
    epochs_run: u64,
}

impl<W: PartitionWorld> PartitionSim<W> {
    /// Wraps a world with an empty scheduler.
    pub fn new(world: W) -> Self {
        PartitionSim {
            world,
            sched: Scheduler::new(),
            send_seq: 0,
            fault_rng: None,
            epochs_run: 0,
        }
    }

    /// Access the scheduler, e.g. to seed initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Immutable access to the scheduler (clock, counters).
    pub fn scheduler(&self) -> &Scheduler<W::Event> {
        &self.sched
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// The world and the scheduler at once, for a world that seeds its own
    /// initial events.
    pub fn parts_mut(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.sched)
    }

    /// Consumes the partition, returning its world (post-run statistics).
    pub fn into_world(self) -> W {
        self.world
    }
}

// Cloning a partition snapshots the world, the FEL, and every piece of
// cross-chunk progress (send-seq, fault-RNG position, epoch count): a clone
// resumed at a chunk boundary is bit-identical to the original continuing.
impl<W: PartitionWorld + Clone> Clone for PartitionSim<W>
where
    W::Event: Clone,
{
    fn clone(&self) -> Self {
        PartitionSim {
            world: self.world.clone(),
            sched: self.sched.clone(),
            send_seq: self.send_seq,
            fault_rng: self.fault_rng.clone(),
            epochs_run: self.epochs_run,
        }
    }
}

/// Static configuration of a PDES run.
#[derive(Clone, Debug)]
pub struct PdesConfig {
    /// The lookahead `L`: minimum cross-partition delivery delay. Must be
    /// positive; the model must never send a remote event sooner than `L`
    /// after the moment it is sent.
    pub lookahead: SimDuration,
    /// Machine assignment, one entry per partition. Events between
    /// partitions on different machines pay the marshalling cost.
    pub machine_of: Vec<usize>,
    /// Envelope bytes prepended to every cross-machine message, modeling
    /// MPI headers plus kernel copy overhead. 0 disables the envelope but
    /// marshalling still occurs.
    pub envelope_bytes: usize,
    /// Stall watchdog bound: if the global minimum pending event time fails
    /// to advance for this many consecutive epochs whose bounds covered it,
    /// the run aborts with [`PdesError::Stalled`] naming the stuck
    /// partition. `0` disables the watchdog (a stalled partition then hangs
    /// the barrier loop forever).
    pub stall_epochs: u64,
    /// Optional deterministic fault injection (see [`FaultPlan`]).
    pub faults: Option<FaultPlan>,
    /// Epoch planning mode (see [`EpochMode`]); adaptive by default.
    pub epoch_mode: EpochMode,
    /// Record each partition's per-epoch wall-clock slices into
    /// [`PartitionStats::slices`] (off by default).
    pub timeline: bool,
}

impl PdesConfig {
    /// All partitions on a single machine.
    pub fn single_machine(partitions: usize, lookahead: SimDuration) -> Self {
        Self::round_robin(partitions, 1, lookahead, 0)
    }

    /// Partitions dealt round-robin across `machines` machines with the
    /// given envelope size.
    pub fn round_robin(
        partitions: usize,
        machines: usize,
        lookahead: SimDuration,
        envelope_bytes: usize,
    ) -> Self {
        assert!(machines >= 1);
        PdesConfig {
            lookahead,
            machine_of: (0..partitions).map(|p| p % machines).collect(),
            envelope_bytes,
            stall_epochs: DEFAULT_STALL_EPOCHS,
            faults: None,
            epoch_mode: EpochMode::Adaptive,
            timeline: false,
        }
    }

    /// Returns `self` with the given fault plan installed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns `self` with the given epoch planning mode.
    pub fn with_epoch_mode(mut self, mode: EpochMode) -> Self {
        self.epoch_mode = mode;
        self
    }
}

/// Structured failure from a PDES run, replacing hangs and worker panics.
///
/// Each variant carries the partial [`PdesReport`] assembled at abort time,
/// so callers can inspect per-partition diagnostics (each partition's event
/// count and frozen [`PartitionStats::next_time`]) even for a failed run.
#[derive(Clone, Debug, PartialEq)]
pub enum PdesError {
    /// A partition stopped advancing: the global minimum pending event time
    /// sat at `at` for `epochs` consecutive epochs. Without the watchdog
    /// this is an infinite barrier loop.
    Stalled {
        /// The partition holding the frozen minimum event time.
        partition: PartitionId,
        /// The simulated time the run is stuck at.
        at: SimTime,
        /// Consecutive non-advancing epochs observed before aborting.
        epochs: u64,
        /// Partial statistics gathered up to the abort (boxed to keep the
        /// `Err` variant small on the hot `Result` path).
        report: Box<PdesReport>,
    },
    /// A marshalled cross-machine message failed to decode on the far side.
    Corrupt {
        /// The partition that sent the undecodable message.
        partition: PartitionId,
        /// Scheduled delivery time of the lost message.
        at: SimTime,
        /// Partial statistics gathered up to the abort.
        report: Box<PdesReport>,
    },
    /// A partition panicked in an event handler or in the model's
    /// [`Transportable`] codec. The panic is caught around the epoch, so it
    /// ends the run with this one error instead of a hung barrier.
    Panicked {
        /// The partition that panicked.
        partition: PartitionId,
        /// Timestamp of the last event the partition handled.
        at: SimTime,
        /// The panic payload, when it was a string.
        message: String,
        /// Partial statistics gathered up to the abort.
        report: Box<PdesReport>,
    },
}

impl PdesError {
    /// When and where the run failed. Of the failures published in one
    /// epoch, the run reports the one with the least `(at, partition)`.
    pub fn origin(&self) -> (SimTime, PartitionId) {
        let (PdesError::Stalled { at, partition, .. }
        | PdesError::Corrupt { at, partition, .. }
        | PdesError::Panicked { at, partition, .. }) = self;
        (*at, *partition)
    }
}

impl std::fmt::Display for PdesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (at, partition) = self.origin();
        match self {
            PdesError::Stalled { epochs, .. } => write!(
                f,
                "PDES stalled: partition {partition} failed to advance past {at} \
                 for {epochs} consecutive epochs"
            ),
            PdesError::Corrupt { .. } => write!(
                f,
                "PDES transport corruption: message from partition {partition} \
                 due at {at} failed to decode"
            ),
            PdesError::Panicked { message, .. } => write!(
                f,
                "PDES worker panic: partition {partition} panicked handling an \
                 event at {at}: {message}"
            ),
        }
    }
}

impl std::error::Error for PdesError {}

/// Aggregate statistics from a PDES run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PdesReport {
    /// Number of epoch barriers executed.
    pub epochs: u64,
    /// Epochs whose start jumped past the previous epoch's fixed-increment
    /// frontier (`previous start + L`) — the adaptive planner's win counter;
    /// always zero in [`EpochMode::Fixed`].
    pub epochs_jumped: u64,
    /// Total events executed across all partitions.
    pub events_executed: u64,
    /// Cross-partition messages delivered (marshalled or not).
    pub remote_messages: u64,
    /// Cross-machine messages, i.e. the subset that was marshalled.
    pub marshalled_messages: u64,
    /// Total bytes pushed through the marshalling path (payload + envelope).
    pub bytes_marshalled: u64,
    /// Faults injected by the configured [`FaultPlan`] (all zero without one).
    pub faults: FaultCounts,
    /// Wall-time and traffic breakdown, one row per partition.
    pub partitions: Vec<PartitionStats>,
}

impl PdesReport {
    /// Folds another report into this one, summing counts and wall times
    /// and moving each partition's slices over (up to 100,000 a partition).
    ///
    /// Used by sampled drivers that advance a [`PdesRunner`] in chunks
    /// (one `run_until` per sampling tick) and want run-total statistics:
    /// each chunk's report covers only that chunk, so summation is exact.
    /// `next_time` takes the later report's value.
    ///
    /// # Panics
    /// Panics if the two reports have different partition counts: such
    /// reports come from different runs and zipping them would silently
    /// truncate rows.
    pub fn merge(&mut self, other: PdesReport) {
        self.epochs += other.epochs;
        self.epochs_jumped += other.epochs_jumped;
        self.events_executed += other.events_executed;
        self.remote_messages += other.remote_messages;
        self.marshalled_messages += other.marshalled_messages;
        self.bytes_marshalled += other.bytes_marshalled;
        self.faults.dropped += other.faults.dropped;
        self.faults.duplicated += other.faults.duplicated;
        self.faults.corrupted += other.faults.corrupted;
        self.faults.armed |= other.faults.armed;
        if self.partitions.is_empty() {
            self.partitions = other.partitions;
            return;
        }
        assert_eq!(
            self.partitions.len(),
            other.partitions.len(),
            "PdesReport::merge: partition count mismatch — refusing to zip \
             per-partition rows from different runs"
        );
        for (a, b) in self.partitions.iter_mut().zip(other.partitions) {
            a.events += b.events;
            a.work_seconds += b.work_seconds;
            a.barrier_wait_seconds += b.barrier_wait_seconds;
            a.marshal_seconds += b.marshal_seconds;
            a.remote_events_sent += b.remote_events_sent;
            a.remote_bytes_sent += b.remote_bytes_sent;
            // A high-water mark, not a count: the run-total peak is the max
            // over chunks.
            a.fel_bytes_peak = a.fel_bytes_peak.max(b.fel_bytes_peak);
            a.next_time = b.next_time;
            a.slices_dropped += b.slices_dropped;
            for slice in b.slices {
                a.push_slice(slice);
            }
        }
    }
}

/// Per-partition wall-time and traffic breakdown from a PDES run.
///
/// Wall times are measured with monotonic clocks inside the partition's
/// epoch; they never feed back into simulated time, so collecting them
/// does not perturb determinism.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionStats {
    /// Partition index.
    pub partition: usize,
    /// Events this partition executed.
    pub events: u64,
    /// Wall time spent executing local events.
    pub work_seconds: f64,
    /// Wall time spent parked on epoch barriers (zero in a lockstep run).
    pub barrier_wait_seconds: f64,
    /// Wall time spent marshalling cross-machine events.
    pub marshal_seconds: f64,
    /// Cross-partition events this partition sent.
    pub remote_events_sent: u64,
    /// Bytes this partition pushed through the marshalling path.
    pub remote_bytes_sent: u64,
    /// High-water mark of the partition scheduler's FEL resident bytes
    /// (sampled every 4,096 executed events and when the run ends, as the
    /// sequential engine does) — the per-partition share of the
    /// `bytes/host` memory budget.
    pub fel_bytes_peak: u64,
    /// Earliest event still pending when the run ended — the key stall
    /// diagnostic: a stuck partition's clock freezes here.
    pub next_time: Option<SimTime>,
    /// This partition's `work` / `barrier_wait` / `marshal` slice of each
    /// epoch on its wall-clock timeline track ([`PID_PDES`], `tid` = the
    /// partition), stamped in microseconds since the [`PdesRunner`] was
    /// built; empty unless [`PdesConfig::timeline`] is on.
    pub slices: Vec<TraceRecord>,
    /// Slices not kept past the cap of 100,000.
    pub slices_dropped: u64,
}

/// Slices a partition keeps, so a long traced run cannot balloon memory.
const SLICE_CAP: usize = 100_000;

impl PartitionStats {
    /// Keeps `slice` while fewer than [`SLICE_CAP`] are kept; past the cap
    /// it only counts it in `slices_dropped`.
    fn push_slice(&mut self, slice: TraceRecord) -> Option<&mut TraceRecord> {
        if self.slices.len() >= SLICE_CAP {
            self.slices_dropped += 1;
            return None;
        }
        self.slices.push(slice);
        self.slices.last_mut()
    }
}

/// Drives a set of [`PartitionSim`]s in parallel, one OS thread each.
pub struct PdesRunner<W: PartitionWorld> {
    partitions: Vec<PartitionSim<W>>,
    config: PdesConfig,
    /// When the runner was built: the zero of every chunk's slices, so a
    /// chunked run's slices share one wall-clock axis.
    origin: Instant,
    /// The cores the process may use, read once (it walks cgroup files):
    /// the barrier spins only when each partition has one.
    cores: usize,
}

impl<W: PartitionWorld> PdesRunner<W> {
    /// Builds a runner. `config.machine_of` must have one entry per
    /// partition and `lookahead` must be positive.
    pub fn new(partitions: Vec<PartitionSim<W>>, config: PdesConfig) -> Self {
        assert!(!partitions.is_empty(), "need at least one partition");
        assert!(
            partitions.len() <= 1 << 16,
            "partition count exceeds the remote-lane sender field"
        );
        assert_eq!(
            config.machine_of.len(),
            partitions.len(),
            "machine_of must list every partition"
        );
        assert!(
            config.lookahead > SimDuration::ZERO,
            "lookahead must be positive"
        );
        PdesRunner {
            partitions,
            config,
            origin: Instant::now(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Runs all partitions, one OS thread each, until every event with time
    /// ≤ `horizon` has been executed (or the model drains). Returns aggregate
    /// statistics, or a structured [`PdesError`] if the stall watchdog fired,
    /// a marshalled message failed to decode or a partition panicked — the
    /// error carries the partial report for per-partition diagnostics.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<PdesReport, PdesError> {
        let cores = self.cores;
        let (planner, runs) = self.start(horizon);
        let (planner, rows) = threaded::run(planner, runs, cores);
        planner.finish(rows, &self.config)
    }

    /// [`Self::run_until`] with every partition on the calling thread, in
    /// partition order: the same plans and exchange with no threads, barrier
    /// or `unsafe`. The result equals `run_until`'s but for wall-clock
    /// seconds (`barrier_wait_seconds` is zero): the reference the threaded
    /// driver is tested against, as [`crate::BinaryHeapFel`] is for the
    /// calendar queue, and the run's work without synchronisation.
    pub fn run_until_lockstep(&mut self, horizon: SimTime) -> Result<PdesReport, PdesError> {
        let (mut planner, mut runs) = self.start(horizon);
        let n = runs.len();
        // Exchange cell `sender * n + receiver`: one epoch's mail.
        let mut mail: Vec<Outbox<W::Event>> = (0..n * n).map(|_| Vec::new()).collect();
        let mut frontier: Vec<Publish> = (0..n).map(|_| Publish::default()).collect();
        runs.iter_mut()
            .zip(&mut frontier)
            .for_each(|(r, p)| r.publish(None, p));
        while let Some(bounds) = planner.plan(&frontier) {
            for (id, run) in runs.iter_mut().enumerate() {
                let inbox = mail.iter_mut().skip(id).step_by(n);
                run.run_epoch(bounds[id], inbox, &mut frontier[id]);
            }
            for (id, run) in runs.iter_mut().enumerate() {
                let cells = run.out.iter_mut().zip(&mut mail[id * n..]);
                cells.for_each(|(posted, cell)| std::mem::swap(posted, cell));
            }
        }
        for (id, run) in runs.iter_mut().enumerate() {
            deliver(&mut run.part.sched, mail.iter_mut().skip(id).step_by(n));
        }
        let rows = runs.into_iter().map(PartitionRun::finish).collect();
        planner.finish(rows, &self.config)
    }

    /// The planner and the per-partition state of one `run_until` call.
    fn start(&mut self, horizon: SimTime) -> (Planner, Vec<PartitionRun<'_, W>>) {
        let (origin, config, n) = (self.origin, &self.config, self.partitions.len());
        let runs = (0..).zip(&mut self.partitions).map(|(id, part)| {
            // The fault stream resumes where the partition left it, so chunked
            // and restored runs roll the sequence an uninterrupted run would.
            if part.fault_rng.is_none() {
                part.fault_rng = config.faults.as_ref().map(|f| f.rng_for(id));
            }
            PartitionRun {
                id,
                part,
                config,
                horizon,
                remote: RemoteSink::new(id, n, config.lookahead),
                out: (0..n).map(|_| Vec::new()).collect(),
                since_fel_bytes: 0,
                wire: Vec::new(),
                row: Row::default(),
                origin: config.timeline.then_some(origin),
            }
        });
        (Planner::new(config, horizon), runs.collect())
    }

    /// Consumes the runner, returning the partitions for inspection.
    pub fn into_partitions(self) -> Vec<PartitionSim<W>> {
        self.partitions
    }

    /// Immutable view of the partitions.
    pub fn partitions(&self) -> &[PartitionSim<W>] {
        &self.partitions
    }

    /// Switches the epoch planning mode for subsequent `run_until` calls.
    ///
    /// Safe at any chunk boundary: cross-partition tie order is intrinsic
    /// (`(time, sender, send-seq)`), so results are bit-identical across
    /// epoch modes and the degradation ladder may drop from adaptive to
    /// fixed planning mid-run without perturbing the simulation.
    pub fn set_epoch_mode(&mut self, mode: EpochMode) {
        self.config.epoch_mode = mode;
    }
}

impl<W: PartitionWorld + Clone> PdesRunner<W>
where
    W::Event: Clone,
{
    /// Snapshots every partition (world, FEL, and cross-chunk fault/seq
    /// progress) at a quiescent chunk boundary. Call only between
    /// `run_until` chunks — the exchange is drained there, so the
    /// partitions' private state is the complete run state.
    pub fn checkpoint(&self) -> crate::checkpoint::PdesCheckpoint<W> {
        crate::checkpoint::PdesCheckpoint::capture(&self.partitions)
    }

    /// Rewinds the runner to a previously captured checkpoint. The next
    /// `run_until` resumes bit-identically to the run that was snapshotted.
    ///
    /// # Panics
    /// Panics if the checkpoint's partition count differs from the runner's.
    pub fn restore(&mut self, checkpoint: &crate::checkpoint::PdesCheckpoint<W>) {
        self.partitions = checkpoint.restore_partitions(self.partitions.len());
    }
}

/// A partition's frontier after an epoch: what the planner reads.
#[derive(Debug, Default)]
struct Publish {
    /// Earliest pending local event.
    peek: Option<SimTime>,
    /// Per-receiver minimum delivery time of the mail posted this epoch.
    out_min: Vec<Option<SimTime>>,
    /// Why the partition cannot go on; its report is filled in at the end.
    failure: Option<PdesError>,
}

/// The planner's decision for one epoch: partition `r` executes local
/// events strictly below `bounds[r]`, or `None`: the run is over.
type EpochPlan<'a> = Option<&'a [SimTime]>;

/// Turns each epoch's published frontier into the next epoch's plan, and
/// decides when the run ends. One per `run_until` call.
#[derive(Default)]
struct Planner {
    lookahead: SimDuration,
    mode: EpochMode,
    horizon: SimTime,
    stall_epochs: u64,
    /// Earliest executable time per partition (peek or mail in flight).
    next_exec: Vec<Option<SimTime>>,
    // Watchdog: stagnation counts only while the frozen global minimum is
    // already covered by the previous epoch (`watch_cover`), so fixed-mode
    // epochs still grinding toward a distant event are exempt.
    watch_last: Option<SimTime>,
    watch_stagnant: u64,
    watch_cover: Option<SimTime>,
    /// Fixed-mode frontier: the next epoch ends here, advancing by exactly L.
    fixed_next: Option<SimTime>,
    /// The last plan's bounds, reused from epoch to epoch.
    bounds: Vec<SimTime>,
    epochs: u64,
    epochs_jumped: u64,
    /// The failure that ended the run.
    failure: Option<PdesError>,
}

impl Planner {
    fn new(config: &PdesConfig, horizon: SimTime) -> Self {
        Planner {
            lookahead: config.lookahead,
            mode: config.epoch_mode,
            horizon,
            stall_epochs: config.stall_epochs,
            next_exec: vec![None; config.machine_of.len()],
            ..Planner::default()
        }
    }

    /// The next epoch's plan from every partition's frontier, in partition
    /// order. Terminates on a published failure (the earliest by
    /// [`PdesError::origin`]), on a stall the watchdog finds, and once no
    /// event at or before the horizon is pending.
    fn plan(&mut self, frontier: &[Publish]) -> EpochPlan<'_> {
        let failed = frontier.iter().filter_map(|p| p.failure.as_ref());
        if let Some(first) = failed.min_by_key(|f| f.origin()) {
            self.failure = Some(first.clone());
            return None;
        }
        for (q, slot) in self.next_exec.iter_mut().enumerate() {
            let in_flight = frontier.iter().filter_map(|p| p.out_min[q]);
            *slot = in_flight.chain(frontier[q].peek).min();
        }
        let start = self.next_exec.iter().flatten().min().copied();
        let start = start.filter(|&s| s <= self.horizon)?;

        // Stall watchdog: if the covered minimum sits still for
        // `stall_epochs` consecutive epochs, name the partition holding it.
        if self.watch_last != Some(start) {
            self.watch_last = Some(start);
            self.watch_stagnant = 0;
        } else if start < self.watch_cover.unwrap_or(SimTime::ZERO) {
            self.watch_stagnant += 1;
            if self.stall_epochs > 0 && self.watch_stagnant >= self.stall_epochs {
                let stuck = self.next_exec.iter().position(|t| *t == Some(start));
                self.failure = Some(PdesError::Stalled {
                    partition: stuck.unwrap_or_default(),
                    at: start,
                    epochs: self.watch_stagnant,
                    report: Box::default(),
                });
                return None;
            }
        }

        let (l, n, next_exec) = (self.lookahead, self.next_exec.len(), &self.next_exec);
        self.bounds.clear();
        match self.mode {
            EpochMode::Adaptive => {
                if self.watch_cover.is_some_and(|c| start > c) {
                    self.epochs_jumped += 1;
                }
                self.watch_cover = Some(start.saturating_add(l));
                self.bounds.extend((0..n).map(|r| {
                    let mut bound = SimTime::MAX;
                    for (q, t) in next_exec.iter().enumerate() {
                        let Some(t) = *t else { continue };
                        if q != r {
                            bound = bound.min(t.saturating_add(l));
                        } else if n > 1 {
                            // Self-influence needs >= 2 hops (remote
                            // self-sends are rejected).
                            bound = bound.min(t.saturating_add(l).saturating_add(l));
                        }
                    }
                    bound
                }));
            }
            EpochMode::Fixed => {
                let end = self.fixed_next.unwrap_or_else(|| start.saturating_add(l));
                self.fixed_next = Some(end.saturating_add(l));
                self.watch_cover = Some(end);
                self.bounds.resize(n, end);
            }
        }
        self.epochs += 1;
        Some(&self.bounds)
    }

    /// The run's report, summed from the partitions' rows, or the failure
    /// that ended the run carrying it.
    fn finish(self, rows: Vec<Row>, config: &PdesConfig) -> Result<PdesReport, PdesError> {
        let mut report = PdesReport {
            epochs: self.epochs,
            epochs_jumped: self.epochs_jumped,
            ..PdesReport::default()
        };
        report.faults.armed = config.faults.as_ref().is_some_and(FaultPlan::probabilistic);
        for row in rows {
            report.events_executed += row.stats.events;
            report.remote_messages += row.stats.remote_events_sent;
            report.marshalled_messages += row.marshalled;
            report.bytes_marshalled += row.stats.remote_bytes_sent;
            report.faults.dropped += row.faults.dropped;
            report.faults.duplicated += row.faults.duplicated;
            report.faults.corrupted += row.faults.corrupted;
            report.partitions.push(row.stats);
        }
        match self.failure {
            None => Ok(report),
            Some(mut failure) => {
                let (PdesError::Stalled { report: slot, .. }
                | PdesError::Corrupt { report: slot, .. }
                | PdesError::Panicked { report: slot, .. }) = &mut failure;
                **slot = report;
                Err(failure)
            }
        }
    }
}

/// One exchange cell: messages from one sender to one receiver, each
/// carrying its delivery time and the sender's send-seq tie-break key.
type Outbox<E> = Vec<(SimTime, u64, E)>;

/// One partition's own counts for a `run_until` call; the report sums them.
#[derive(Default)]
struct Row {
    stats: PartitionStats,
    faults: FaultCounts,
    /// Cross-machine message copies marshalled ([`PdesReport::marshalled_messages`]).
    marshalled: u64,
}

/// One partition's side of a `run_until` call: the partition, the mail it
/// posts, its scripted faults and the counts it reports.
struct PartitionRun<'a, W: PartitionWorld> {
    id: PartitionId,
    part: &'a mut PartitionSim<W>,
    config: &'a PdesConfig,
    horizon: SimTime,
    remote: RemoteSink<W::Event>,
    /// The mail posted this epoch, per receiver; the driver moves it on.
    out: Vec<Outbox<W::Event>>,
    /// Events executed since `row.stats.fel_bytes_peak` was last read.
    since_fel_bytes: u64,
    /// The bytes of the cross-machine message being marshalled, reused
    /// across messages.
    wire: Vec<u8>,
    row: Row,
    /// When the runner was built, if the partition records slices.
    origin: Option<Instant>,
}

impl<W: PartitionWorld> PartitionRun<'_, W> {
    /// One epoch of this partition: deliver the inbox (one outbox per
    /// sender), execute the events below `bound` and not past the horizon,
    /// post the mail sent, and publish the frontier. A panic in that body is
    /// published as the partition's failure; the world may then hold broken
    /// invariants, so it must be discarded or restored, not resumed.
    fn run_epoch<'m>(
        &mut self,
        bound: SimTime,
        inbox: impl Iterator<Item = &'m mut Outbox<W::Event>>,
        publish: &mut Publish,
    ) where
        W::Event: 'm,
    {
        self.part.epochs_run += 1;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            self.execute(bound, inbox);
            self.post(publish);
        }));
        if let Err(payload) = caught {
            publish.failure = Some(PdesError::Panicked {
                partition: self.id,
                at: self.remote.now,
                message: panic_message(payload.as_ref()),
                report: Box::default(),
            });
        }
    }

    /// The work phase: inbound mail into the FEL, then the events due.
    fn execute<'m>(&mut self, bound: SimTime, inbox: impl Iterator<Item = &'m mut Outbox<W::Event>>)
    where
        W::Event: 'm,
    {
        let t0 = Instant::now();
        let epoch = self.part.epochs_run;
        let faults = self.config.faults.as_ref();
        if let Some((_, dur)) = faults
            .and_then(|f| f.slow_partition)
            .filter(|s| s.0 == self.id)
        {
            // Injected slowdown: wall-clock only; the partition still
            // advances simulated time, so the watchdog must stay quiet.
            std::thread::sleep(dur);
        }
        let part = &mut *self.part;
        deliver(&mut part.sched, inbox);
        // `t < bound && t <= horizon` as one inclusive limit; a stalled
        // partition (or a zero bound) has none and executes nothing.
        let stalled = faults
            .and_then(|f| f.stall_partition)
            .is_some_and(|(p, k)| p == self.id && epoch > k);
        let limit = match bound.as_nanos().checked_sub(1) {
            Some(last) if !stalled => Some(SimTime::from_nanos(last).min(self.horizon)),
            _ => None,
        };
        let stats = &mut self.row.stats;
        let before = stats.events;
        while let Some(Next::Event((t, ev))) = limit.map(|l| part.sched.pop_until(l)) {
            self.remote.now = t;
            part.world.handle(ev, &mut part.sched, &mut self.remote);
            stats.events += 1;
        }
        let executed = stats.events - before;
        stats.work_seconds += t0.elapsed().as_secs_f64();
        if let Some(slice) = self.slice("work", t0) {
            slice.args.push(("events".into(), executed.into()));
            let bound_us = bound.as_nanos() as f64 / 1e3;
            slice.args.push(("bound_sim_us".into(), bound_us.into()));
        }
        // Sample the FEL's resident bytes at the sequential engine's
        // cadence, not per epoch (it walks the bucket array): a read-only
        // probe of container capacities, so it cannot perturb the
        // simulation.
        self.since_fel_bytes += executed;
        if self.since_fel_bytes >= FEL_BYTES_EVERY {
            self.since_fel_bytes = 0;
            let stats = &mut self.row.stats;
            stats.fel_bytes_peak = stats.fel_bytes_peak.max(self.part.sched.fel_bytes() as u64);
        }
    }

    /// The post phase: the epoch's remote events into the per-receiver
    /// outboxes, marshalled (and rolling the message-level faults) across
    /// machines; then the frontier.
    fn post(&mut self, publish: &mut Publish) {
        let mut failure = None;
        if !self.remote.out.is_empty() {
            let t0 = Instant::now();
            let config = self.config;
            let mine = config.machine_of[self.id];
            let seq = &mut self.part.send_seq;
            let stats = &mut self.row.stats;
            stats.remote_events_sent += self.remote.out.len() as u64;
            for (dst, at, ev) in self.remote.out.drain(..) {
                let outbox = &mut self.out[dst];
                if config.machine_of[dst] == mine {
                    outbox.push((at, *seq, ev));
                    *seq += 1;
                    continue;
                }
                // Cross-machine: roll the message-level faults (sender-side,
                // in execution order, so the sequence is deterministic and
                // plan-independent), then push the event through the
                // marshalled transport.
                let mut copies = 1usize;
                let mut corrupt = false;
                if let (Some(f), Some(rng)) = (&config.faults, self.part.fault_rng.as_mut()) {
                    if rng.roll(f.drop_prob) {
                        self.row.faults.dropped += 1;
                        continue;
                    }
                    if rng.roll(f.dup_prob) {
                        copies = 2;
                        self.row.faults.duplicated += 1;
                    }
                    if rng.roll(f.corrupt_prob) {
                        corrupt = true;
                        self.row.faults.corrupted += 1;
                    }
                }
                let (evs, nbytes) =
                    marshal_round_trip(ev, &mut self.wire, config.envelope_bytes, copies, corrupt);
                self.row.marshalled += copies as u64;
                stats.remote_bytes_sent += nbytes;
                if evs.len() < copies && failure.is_none() {
                    // The far side could not decode the message.
                    failure = Some(PdesError::Corrupt {
                        partition: self.id,
                        at,
                        report: Box::default(),
                    });
                }
                for ev in evs {
                    outbox.push((at, *seq, ev));
                    *seq += 1;
                }
            }
            stats.marshal_seconds += t0.elapsed().as_secs_f64();
            self.slice("marshal", t0);
        }
        self.publish(failure, publish);
    }

    /// The frontier: the earliest pending event and the mail posted but
    /// not yet moved into the exchange.
    fn publish(&mut self, failure: Option<PdesError>, into: &mut Publish) {
        into.peek = self.part.sched.peek_time();
        into.out_min.clear();
        let out_min = self.out.iter().map(|o| o.iter().map(|m| m.0).min());
        into.out_min.extend(out_min);
        into.failure = failure;
    }

    /// Records a slice of the current epoch on this partition's track,
    /// from `from` to now, when the partition records slices (under
    /// [`PartitionStats::push_slice`]'s cap).
    fn slice(&mut self, name: &'static str, from: Instant) -> Option<&mut TraceRecord> {
        let origin = self.origin?;
        let ts = from.duration_since(origin).as_secs_f64() * 1e6;
        let dur = from.elapsed().as_secs_f64() * 1e6;
        let record = TraceRecord::complete(PID_PDES, self.id as u64, name, ts, dur);
        let stats = &mut self.row.stats;
        stats.push_slice(record.arg("epoch", self.part.epochs_run))
    }

    /// Closes the partition's row once the run is over.
    fn finish(mut self) -> Row {
        let stats = &mut self.row.stats;
        stats.partition = self.id;
        stats.next_time = self.part.sched.peek_time();
        stats.fel_bytes_peak = stats.fel_bytes_peak.max(self.part.sched.fel_bytes() as u64);
        self.row
    }
}

/// Drains one receiver's inbox — one outbox per sender, in sender order —
/// into its future event list, via the scheduler's remote lane so ties
/// resolve by `(time, sender, send-seq)`.
fn deliver<'m, E: 'm>(sched: &mut Scheduler<E>, inbox: impl Iterator<Item = &'m mut Outbox<E>>) {
    for (sender, outbox) in inbox.enumerate() {
        for (at, send_seq, ev) in outbox.drain(..) {
            sched.schedule_remote(at, sender, send_seq, ev);
        }
    }
}

/// The parallel driver: one scoped thread per partition, thread 0 also
/// planning, and the double-buffered exchange. All of the engine's `unsafe`
/// is here.
mod threaded {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
    use std::time::Instant;

    use super::{deliver, Outbox, PartitionRun, PartitionWorld, Planner, Publish, Row, SimTime};
    use crate::wait::Waiter;

    /// Cache-line-padded slot whose cross-thread access is serialized by
    /// the epoch-barrier protocol rather than a lock: each cell is written
    /// by exactly one thread in one barrier phase and read only in a
    /// different phase, with a barrier (which establishes happens-before)
    /// in between.
    #[repr(align(64))]
    struct PhaseCell<T>(UnsafeCell<T>);

    // SAFETY: access is phase-exclusive per the barrier protocol documented
    // on each call site; the barrier's atomics provide the happens-before
    // edges, and `T: Send` lets the value move between the threads that
    // take turns with it.
    unsafe impl<T: Send> Sync for PhaseCell<T> {}

    impl<T> PhaseCell<T> {
        fn new(v: T) -> Self {
            PhaseCell(UnsafeCell::new(v))
        }

        /// # Safety
        /// The caller must be the cell's unique accessor in the current
        /// barrier phase.
        #[allow(clippy::mut_from_ref)]
        unsafe fn get_mut(&self) -> &mut T {
            &mut *self.0.get()
        }

        /// # Safety
        /// No thread may mutate the cell in the current barrier phase.
        unsafe fn get_ref(&self) -> &T {
            &*self.0.get()
        }
    }

    /// The barrier of the epoch loop: a count of arrivals. No partition
    /// arrives at a barrier before all have arrived at the one before, so
    /// arrival `k` belongs to round `k / n`, which is over once the count
    /// reaches `(k / n + 1) · n`. Arrivals wait through the shared
    /// [`Waiter`] (epochs are often shorter than a park/unpark round trip,
    /// so they spin first when each partition has a core). The count's
    /// `SeqCst` increments form one release sequence that every waiter's
    /// load reads from, which publishes every pre-barrier write to every
    /// post-barrier reader: what makes the lock-free [`PhaseCell`]
    /// exchange sound.
    struct EpochBarrier {
        n: usize,
        arrived: AtomicUsize,
        waiter: Waiter,
    }

    impl EpochBarrier {
        /// Crosses the barrier, timing the wait into the partition's row
        /// and (if recording) a slice.
        fn wait<W: PartitionWorld>(&self, run: &mut PartitionRun<'_, W>) {
            let t0 = Instant::now();
            let arrival = self.arrived.fetch_add(1, SeqCst);
            let all = (arrival / self.n + 1) * self.n;
            if arrival + 1 == all {
                self.waiter.notify();
            } else {
                self.waiter.wait_until(|| self.arrived.load(SeqCst) >= all);
            }
            run.row.stats.barrier_wait_seconds += t0.elapsed().as_secs_f64();
            run.slice("barrier_wait", t0);
        }
    }

    struct Shared<E> {
        barrier: EpochBarrier,
        /// One frontier per partition: written by its owner at the end of
        /// its epoch, swapped into the planner's copy between barriers.
        publish: Vec<PhaseCell<Publish>>,
        /// The plan's bounds, empty when the run is over: written by the
        /// planner between the epoch-end and plan barriers, then read.
        plan: PhaseCell<Vec<SimTime>>,
        /// Double-buffered exchange: `outboxes[b][sender * n + dst]`; the
        /// epoch barrier swaps the buffers.
        outboxes: [Vec<PhaseCell<Outbox<E>>>; 2],
    }

    /// Runs every partition on its own scoped thread until the planner
    /// terminates the run; returns the planner and the partitions' rows.
    pub(super) fn run<W: PartitionWorld>(
        planner: Planner,
        runs: Vec<PartitionRun<'_, W>>,
        cores: usize,
    ) -> (Planner, Vec<Row>) {
        let n = runs.len();
        let cells = || (0..n * n).map(|_| PhaseCell::new(Vec::new())).collect();
        let shared: Shared<W::Event> = Shared {
            barrier: EpochBarrier {
                n,
                arrived: AtomicUsize::new(0),
                waiter: Waiter::new(n, cores),
            },
            publish: (0..n).map(|_| PhaseCell::new(Publish::default())).collect(),
            plan: PhaseCell::new(Vec::new()),
            outboxes: [cells(), cells()],
        };
        let (mut planner, shared) = (Some(planner), &shared);
        std::thread::scope(|scope| {
            let threads: Vec<_> = runs
                .into_iter()
                .map(|run| {
                    let planner = planner.take();
                    scope.spawn(move || partition_main(run, planner, shared))
                })
                .collect();
            let (rows, planners): (Vec<_>, Vec<_>) = threads
                .into_iter()
                .map(|t| t.join().expect("a PDES partition thread panicked"))
                .unzip();
            let planner = planners.into_iter().flatten().next();
            (planner.expect("thread 0 plans"), rows)
        })
    }

    /// Body of each partition thread: the loop of the module docs with a
    /// barrier after the initial frontier, after each plan and after each
    /// epoch.
    fn partition_main<W: PartitionWorld>(
        mut run: PartitionRun<'_, W>,
        mut planner: Option<Planner>,
        shared: &Shared<W::Event>,
    ) -> (Row, Option<Planner>) {
        let (id, n) = (run.id, shared.publish.len());
        // The planner's copy of the frontier (thread 0 only).
        let mut frontier: Vec<Publish> = (0..n).map(|_| Publish::default()).collect();
        // Exchange buffer the receivers drain this epoch; senders post into
        // `1 - cur`. Flipped at the epoch-end barrier.
        let mut cur = 0usize;

        // SAFETY: before the first barrier each partition touches only its
        // own publish cell; the barrier then hands them to the planner.
        unsafe { run.publish(None, shared.publish[id].get_mut()) };
        shared.barrier.wait(&mut run);

        loop {
            if let Some(planner) = planner.as_mut() {
                // SAFETY: between the epoch-end barrier and the plan
                // barrier, thread 0 is the only accessor of the publish
                // cells and of the plan cell.
                unsafe {
                    for (mine, cell) in frontier.iter_mut().zip(&shared.publish) {
                        std::mem::swap(mine, cell.get_mut());
                    }
                    let bounds = shared.plan.get_mut();
                    bounds.clear();
                    bounds.extend_from_slice(planner.plan(&frontier).unwrap_or_default());
                }
            }
            shared.barrier.wait(&mut run);

            // SAFETY: each receiver is the only accessor of its own column
            // of the buffer being drained this phase; senders write the
            // other buffer.
            let inbox = (0..n).map(|s| unsafe { shared.outboxes[cur][s * n + id].get_mut() });
            // SAFETY: the plan was written strictly between the two
            // barriers above; every thread only reads it in this phase.
            let bounds = unsafe { shared.plan.get_ref() };
            if bounds.is_empty() {
                // Deliver the mail in flight, so a chunked caller's next
                // `run_until` resumes from exact state.
                deliver(&mut run.part.sched, inbox);
                break;
            }
            let next = 1 - cur;
            // SAFETY: each sender is the only accessor of its own row of
            // the buffer receivers drain next epoch.
            let row = || (0..n).map(|d| unsafe { shared.outboxes[next][id * n + d].get_mut() });
            // Post into the row's drained vectors and hand them back
            // filled, so the mail needs no vectors beyond the two buffers.
            let swap = |(o, c): (&mut Outbox<W::Event>, _)| std::mem::swap(o, c);
            run.out.iter_mut().zip(row()).for_each(swap);
            // SAFETY: each partition writes only its own publish cell
            // between the plan barrier and the epoch-end barrier below.
            run.run_epoch(bounds[id], inbox, unsafe { shared.publish[id].get_mut() });
            run.out.iter_mut().zip(row()).for_each(swap);
            cur = next;

            // Epoch-end barrier: mail is posted and frontiers are published
            // before the planner looks, and the exchange buffers swap.
            shared.barrier.wait(&mut run);
        }
        (run.finish(), planner)
    }
}

/// Renders a caught panic payload: the message of a `panic!` with a
/// string, for [`PdesError::Panicked`] and the sequential supervisor.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("non-string panic payload").to_string()
}

/// Pushes an event through the simulated machine boundary: encode behind an
/// envelope into `buf` (cleared first; the caller reuses it across
/// messages), checksum (so the optimizer cannot elide the copies), decode.
///
/// `copies` decodes the wire bytes that many times (fault-injected
/// duplication); `corrupt` mangles the payload first (truncate the final
/// byte and flip a bit), modeling a torn write. Returns the reconstructed
/// events — possibly fewer than `copies` if a decode failed, which the
/// caller reports as [`PdesError::Corrupt`] — and the bytes moved. Bytes
/// left over after a decode fail it too.
fn marshal_round_trip<E: Transportable>(
    ev: E,
    buf: &mut Vec<u8>,
    envelope_bytes: usize,
    copies: usize,
    corrupt: bool,
) -> (Vec<E>, u64) {
    buf.clear();
    buf.resize(envelope_bytes, 0xA5); // MPI-style envelope / copy cost
    ev.encode(&mut wire::Writer::new(buf));
    if corrupt {
        if buf.len() > envelope_bytes {
            buf[envelope_bytes] ^= 0x40; // flip a bit in the first payload byte
        }
        // Tear off the last byte. `saturating_sub` so a zero-byte encoding
        // with no envelope cannot underflow; when only the envelope is
        // present the tear hits it and the decode below rejects the frame.
        buf.truncate(buf.len().saturating_sub(1));
    }
    // Touch every byte, as a real transport would while copying to a socket.
    let checksum: u64 = buf
        .iter()
        .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64));
    std::hint::black_box(checksum);
    let nbytes = buf.len() as u64 * copies as u64;
    let mut out = Vec::with_capacity(copies);
    // No payload when torn inside the envelope: undecodable, report corrupt.
    // A frame decodes only if the event consumes every payload byte.
    if let Some(payload) = buf.get(envelope_bytes..) {
        for _ in 0..copies {
            let mut r = wire::Reader::new(payload);
            match E::decode(&mut r) {
                Some(ev) if r.remaining() == 0 => out.push(ev),
                _ => break, // same bytes => every later copy fails identically
            }
        }
    }
    (out, nbytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token that hops between partitions `hops` times, incrementing a
    /// counter on each arrival. Cross-partition delay = LOOKAHEAD.
    const LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

    #[derive(Clone, Debug, PartialEq)]
    struct Token {
        hops_left: u32,
        value: u64,
    }

    impl Transportable for Token {
        fn encode(&self, w: &mut wire::Writer) {
            w.u32(self.hops_left);
            w.u64(self.value);
        }
        fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
            Some(Token {
                hops_left: r.u32()?,
                value: r.u64()?,
            })
        }
    }

    /// Runs `runner` to `horizon` on the lockstep or the threaded driver.
    fn drive<W: PartitionWorld>(
        runner: &mut PdesRunner<W>,
        horizon: SimTime,
        lockstep: bool,
    ) -> Result<PdesReport, PdesError> {
        match lockstep {
            false => runner.run_until(horizon),
            true => runner.run_until_lockstep(horizon),
        }
    }

    /// A run's result without its wall-clock seconds: what the simulation sets.
    fn simulated(mut result: Result<PdesReport, PdesError>) -> Result<PdesReport, PdesError> {
        let report: &mut PdesReport = match &mut result {
            Ok(report) => report,
            Err(
                PdesError::Stalled { report, .. }
                | PdesError::Corrupt { report, .. }
                | PdesError::Panicked { report, .. },
            ) => report,
        };
        for p in &mut report.partitions {
            p.work_seconds = 0.0;
            p.barrier_wait_seconds = 0.0;
            p.marshal_seconds = 0.0;
        }
        result
    }

    /// Runs a runner from `make` to `horizon` under both drivers, asserts they
    /// agree on `observe(partitions)` and the result, returns the threaded one.
    fn both_drivers<W: PartitionWorld, T: PartialEq + std::fmt::Debug>(
        make: impl Fn() -> PdesRunner<W>,
        horizon: SimTime,
        observe: impl Fn(&[PartitionSim<W>]) -> T,
    ) -> (T, Result<PdesReport, PdesError>) {
        let [threaded, lockstep] = [false, true].map(|lockstep| {
            let mut runner = make();
            let result = drive(&mut runner, horizon, lockstep);
            (observe(runner.partitions()), result)
        });
        assert_eq!(threaded.0, lockstep.0, "drivers disagree on the partitions");
        assert_eq!(
            simulated(threaded.1.clone()),
            simulated(lockstep.1),
            "drivers disagree on the report"
        );
        threaded
    }

    fn worlds<W: PartitionWorld + Clone>(parts: &[PartitionSim<W>]) -> Vec<W> {
        parts.iter().map(|p| p.world().clone()).collect()
    }

    /// An event whose wire encoding is zero bytes — the degenerate case the
    /// corrupt path must survive.
    #[derive(Clone, Debug, PartialEq)]
    struct Empty;

    impl Transportable for Empty {
        fn encode(&self, _w: &mut wire::Writer) {}
        fn decode(_r: &mut wire::Reader<'_>) -> Option<Self> {
            Some(Empty)
        }
    }

    /// Regression: corrupting a message whose buffer holds no payload bytes
    /// used to be able to underflow the tear (`truncate(len - 1)`); with no
    /// envelope either, the buffer is completely empty. Both degenerate
    /// shapes must come back as a clean decode failure (or a harmless
    /// no-op), never a panic.
    #[test]
    fn marshal_corrupt_survives_empty_payload() {
        // No payload, no envelope: nothing to tear, nothing to decode —
        // the zero-byte frame still "decodes" as the unit event.
        let (evs, nbytes) = marshal_round_trip(Empty, &mut Vec::new(), 0, 1, true);
        assert_eq!(nbytes, 0);
        assert_eq!(evs, vec![Empty]);

        // No payload but an envelope: the tear lands inside the envelope,
        // so the frame is undecodable and surfaces as a corrupt transport
        // failure — not an `advance` past the end of the buffer.
        let (evs, nbytes) = marshal_round_trip(Empty, &mut Vec::new(), 8, 2, true);
        assert_eq!(nbytes, 14); // 7 surviving bytes x 2 copies
        assert!(evs.is_empty(), "torn envelope must fail the decode");
    }

    /// The corrupt path's behavior on real payloads is unchanged: flip a
    /// bit, tear the final byte, and the decode rejects the frame.
    #[test]
    fn marshal_corrupt_nonempty_payload_fails_decode() {
        let tok = Token {
            hops_left: 3,
            value: 42,
        };
        // One buffer for both messages, as a partition reuses its own.
        let mut buf = Vec::new();
        let (evs, _) = marshal_round_trip(tok.clone(), &mut buf, 16, 2, true);
        assert!(evs.is_empty(), "torn payload must fail the decode");
        // And without corruption every copy round-trips intact.
        let (evs, nbytes) = marshal_round_trip(tok.clone(), &mut buf, 16, 2, false);
        assert_eq!(evs, vec![tok.clone(), tok]);
        assert_eq!(nbytes, (16 + 12) * 2);
    }

    /// A token whose encoder writes one byte more than its decoder reads.
    #[derive(Clone, Debug, PartialEq)]
    struct Padded(Token);

    impl Transportable for Padded {
        fn encode(&self, w: &mut wire::Writer) {
            self.0.encode(w);
            w.u8(0);
        }
        fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
            Token::decode(r).map(Padded)
        }
    }

    /// A frame with bytes left after the decode is corrupt, not an event.
    #[test]
    fn marshal_trailing_bytes_fail_decode() {
        let tok = Padded(Token {
            hops_left: 3,
            value: 42,
        });
        let (evs, nbytes) = marshal_round_trip(tok, &mut Vec::new(), 16, 2, false);
        assert!(evs.is_empty(), "trailing byte must fail the decode");
        assert_eq!(nbytes, (16 + 13) * 2);
    }

    /// A planner over `n` partitions, 1 µs lookahead and a 1 s horizon.
    fn planner(n: usize, mode: EpochMode, stall_epochs: u64) -> Planner {
        let mut config = PdesConfig::single_machine(n, LOOKAHEAD).with_epoch_mode(mode);
        config.stall_epochs = stall_epochs;
        Planner::new(&config, SimTime::from_secs(1))
    }

    fn us(t: u64) -> SimTime {
        SimTime::from_micros(t)
    }

    /// A frontier row: earliest pending event and posted mail minima, in µs.
    fn row(peek: Option<u64>, out_min: &[Option<u64>]) -> Publish {
        Publish {
            peek: peek.map(us),
            out_min: out_min.iter().map(|t| t.map(us)).collect(),
            failure: None,
        }
    }

    #[test]
    fn planner_bounds_each_partition_by_its_peers_and_two_hops_to_itself() {
        let mut p = planner(1, EpochMode::Adaptive, 0);
        // Alone, a partition is bounded by the horizon only.
        assert_eq!(p.plan(&[row(Some(5), &[None])]), Some(&[SimTime::MAX][..]));
        let mut p = planner(2, EpochMode::Adaptive, 0);
        // Partition 1 is idle: partition 0 is bounded only by its own
        // influence returning through an intermediary, `next(0) + 2L`.
        let plan = p.plan(&[row(Some(0), &[None, None]), row(None, &[None, None])]);
        assert_eq!(plan, Some(&[us(2), us(1)][..]));
        // Mail in flight is the receiver's next event: next(1) is the 3 µs
        // message, not its 20 µs local event.
        let plan = p.plan(&[row(Some(10), &[None, Some(3)]), row(Some(20), &[None; 2])]);
        assert_eq!(plan, Some(&[us(4), us(5)][..]));
    }

    #[test]
    fn planner_fixed_frontier_advances_by_exactly_the_lookahead() {
        let mut p = planner(2, EpochMode::Fixed, 0);
        let frontier = [row(Some(0), &[None, None]), row(Some(7), &[None, None])];
        for k in 1..=3 {
            assert_eq!(p.plan(&frontier), Some(&[us(k); 2][..]));
        }
        assert_eq!((p.epochs, p.epochs_jumped), (3, 0));
    }

    #[test]
    fn planner_counts_only_real_jumps() {
        let mut p = planner(1, EpochMode::Adaptive, 0);
        // 0 µs covers up to 1 µs, 1 µs up to 2 µs; 5 µs jumps past that.
        for t in [0, 1, 5] {
            p.plan(&[row(Some(t), &[None])]);
        }
        assert_eq!((p.epochs, p.epochs_jumped), (3, 1));
    }

    #[test]
    fn planner_watchdog_names_the_stuck_partition() {
        let mut p = planner(2, EpochMode::Adaptive, 4);
        let frontier = [row(None, &[None, None]), row(Some(7), &[None, None])];
        for _ in 0..4 {
            assert!(p.plan(&frontier).is_some());
        }
        assert_eq!(p.plan(&frontier), None);
        let stalled = PdesError::Stalled {
            partition: 1,
            at: us(7),
            epochs: 4,
            report: Box::default(),
        };
        assert_eq!(p.failure, Some(stalled));
    }

    #[test]
    fn planner_watchdog_is_quiet_while_fixed_mode_grinds_toward_an_event() {
        let mut p = planner(1, EpochMode::Fixed, 4);
        p.plan(&[row(Some(0), &[None])]);
        let distant = [row(Some(100), &[None])];
        for _ in 0..98 {
            assert!(p.plan(&distant).is_some());
        }
        // Once the bounds cover the event and it still does not move, the
        // watchdog counts.
        let grinding = (0..10).take_while(|_| p.plan(&distant).is_some()).count();
        assert_eq!(grinding, 5);
        assert!(matches!(p.failure, Some(PdesError::Stalled { .. })));
    }

    #[test]
    fn planner_terminates_past_the_horizon_when_idle_and_on_failure() {
        let config = PdesConfig::single_machine(3, LOOKAHEAD);
        let mut p = Planner::new(&config, us(10));
        let idle = || row(None, &[None; 3]);
        assert_eq!(p.plan(&[row(Some(11), &[None; 3]), idle(), idle()]), None);
        assert_eq!(p.plan(&[idle(), idle(), idle()]), None);
        assert!(p
            .plan(&[row(Some(10), &[None; 3]), idle(), idle()])
            .is_some());
        assert_eq!((p.epochs, p.failure.as_ref()), (1, None));
        // The earliest published failure ends the run; at equal times the
        // lower partition wins.
        let failed = |partition, at| Publish {
            failure: Some(PdesError::Corrupt {
                partition,
                at: us(at),
                report: Box::default(),
            }),
            ..Publish::default()
        };
        assert_eq!(p.plan(&[failed(0, 5), idle(), failed(2, 3)]), None);
        assert_eq!(p.failure, failed(2, 3).failure);
        p.plan(&[idle(), failed(2, 4), failed(1, 4)]);
        assert_eq!(p.failure, failed(1, 4).failure);
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Ring {
        id: PartitionId,
        n: usize,
        arrivals: u64,
        last_value: u64,
    }

    impl PartitionWorld for Ring {
        type Event = Token;
        fn handle(
            &mut self,
            ev: Token,
            sched: &mut Scheduler<Token>,
            remote: &mut RemoteSink<Token>,
        ) {
            self.arrivals += 1;
            self.last_value = ev.value;
            if ev.hops_left == 0 {
                return;
            }
            let next = Token {
                hops_left: ev.hops_left - 1,
                value: ev.value + 1,
            };
            let at = sched.now() + LOOKAHEAD;
            let dst = (self.id + 1) % self.n;
            if dst == self.id {
                sched.schedule_at(at, next);
            } else {
                remote.send(dst, at, next);
            }
        }
    }

    /// Ring runner with the token seeded on partition 0.
    fn ring_runner(n: usize, hops: u32, machines: usize, envelope: usize) -> PdesRunner<Ring> {
        let mut parts: Vec<PartitionSim<Ring>> = (0..n)
            .map(|id| {
                PartitionSim::new(Ring {
                    id,
                    n,
                    arrivals: 0,
                    last_value: 0,
                })
            })
            .collect();
        parts[0].scheduler_mut().schedule_at(
            SimTime::ZERO,
            Token {
                hops_left: hops,
                value: 0,
            },
        );
        let config = PdesConfig::round_robin(n, machines, LOOKAHEAD, envelope);
        PdesRunner::new(parts, config)
    }

    fn ring_run_mode(
        n: usize,
        hops: u32,
        machines: usize,
        envelope: usize,
        mode: EpochMode,
    ) -> (Vec<Ring>, PdesReport) {
        let make = || {
            let mut runner = ring_runner(n, hops, machines, envelope);
            runner.set_epoch_mode(mode);
            runner
        };
        let (worlds, result) = both_drivers(make, SimTime::from_secs(10), worlds);
        (worlds, result.expect("healthy run"))
    }

    fn ring_run(n: usize, hops: u32, machines: usize, envelope: usize) -> (Vec<Ring>, PdesReport) {
        ring_run_mode(n, hops, machines, envelope, EpochMode::Adaptive)
    }

    #[test]
    fn token_ring_single_machine() {
        let (worlds, report) = ring_run(4, 99, 1, 0);
        let total: u64 = worlds.iter().map(|w| w.arrivals).sum();
        assert_eq!(total, 100); // initial arrival + 99 hops
        assert_eq!(report.events_executed, 100);
        assert_eq!(report.remote_messages, 99);
        assert_eq!(
            report.marshalled_messages, 0,
            "same machine, no marshalling"
        );
        // The token's value counts hops; last arrival carries 99.
        let max_value = worlds.iter().map(|w| w.last_value).max().unwrap();
        assert_eq!(max_value, 99);
    }

    #[test]
    fn token_ring_cross_machine_marshals() {
        let (worlds, report) = ring_run(4, 99, 2, 32);
        let total: u64 = worlds.iter().map(|w| w.arrivals).sum();
        assert_eq!(total, 100);
        // Round-robin over 2 machines: every hop crosses machines
        // (0->1, 1->2, 2->3, 3->0 all change parity).
        assert_eq!(report.marshalled_messages, 99);
        assert_eq!(report.bytes_marshalled, 99 * (32 + 12));
    }

    #[test]
    fn pdes_matches_sequential_semantics() {
        // The same ring run sequentially: arrivals land at times 0, L, 2L, …
        // PDES must deliver identical per-partition arrival counts.
        let (worlds, _) = ring_run(3, 10, 1, 0);
        // Partition 0 sees arrivals at hop 0, 3, 6, 9 => 4 arrivals.
        assert_eq!(worlds[0].arrivals, 4);
        assert_eq!(worlds[1].arrivals, 4); // hops 1, 4, 7, 10
        assert_eq!(worlds[2].arrivals, 3); // hops 2, 5, 8
    }

    #[test]
    fn fixed_mode_matches_adaptive_on_the_ring() {
        let (aw, ar) = ring_run_mode(4, 99, 2, 32, EpochMode::Adaptive);
        let (fw, fr) = ring_run_mode(4, 99, 2, 32, EpochMode::Fixed);
        assert_eq!(aw, fw);
        assert_eq!(ar.events_executed, fr.events_executed);
        assert_eq!(ar.remote_messages, fr.remote_messages);
        assert_eq!(ar.bytes_marshalled, fr.bytes_marshalled);
        assert_eq!(fr.epochs_jumped, 0, "fixed mode never jumps");
    }

    #[test]
    fn horizon_truncates() {
        // 99 hops of 1us each; horizon 10us lets hops 0..=10 land.
        let make = || ring_runner(2, 99, 1, 0);
        let (_, result) = both_drivers(make, SimTime::from_micros(10), worlds);
        assert_eq!(result.expect("healthy run").events_executed, 11);
    }

    #[test]
    fn single_partition_degenerates_to_sequential() {
        let (worlds, report) = ring_run(1, 50, 1, 0);
        assert_eq!(worlds[0].arrivals, 51);
        assert_eq!(report.remote_messages, 0);
    }

    #[test]
    fn empty_model_terminates_immediately() {
        let make = || inert_runner(3, &[], EpochMode::Adaptive);
        let report = both_drivers(make, SimTime::from_secs(1), |_| ()).1.unwrap();
        assert_eq!(report.events_executed, 0);
        assert_eq!(report.epochs, 0);
    }

    #[test]
    fn merge_sums_chunked_reports() {
        let (_, a) = ring_run(4, 49, 2, 32);
        let (_, b) = ring_run(4, 49, 2, 32);
        let mut merged = PdesReport::default();
        merged.merge(a.clone());
        merged.merge(b.clone());
        assert_eq!(
            merged.events_executed,
            a.events_executed + b.events_executed
        );
        assert_eq!(merged.epochs, a.epochs + b.epochs);
        assert_eq!(
            merged.bytes_marshalled,
            a.bytes_marshalled + b.bytes_marshalled
        );
        assert_eq!(merged.partitions.len(), 4);
        assert_eq!(
            merged.partitions[1].events,
            a.partitions[1].events + b.partitions[1].events
        );
    }

    #[test]
    #[should_panic(expected = "partition count mismatch")]
    fn merge_rejects_mismatched_partition_counts() {
        // Hard error in every build profile: zipping rows from runs with
        // different partition counts would silently truncate statistics.
        let (_, a) = ring_run(4, 9, 1, 0);
        let (_, b) = ring_run(2, 9, 1, 0);
        let mut merged = a.clone();
        merged.merge(b);
    }

    #[test]
    fn slices_ride_in_the_report_only_when_the_timeline_is_on() {
        let run = |timeline| {
            let mut runner = ring_runner(4, 99, 2, 32);
            runner.config.timeline = timeline;
            runner
                .run_until(SimTime::from_secs(10))
                .expect("healthy run")
        };
        let off = run(false);
        assert!(off.partitions.iter().all(|p| p.slices.is_empty()));
        let on = run(true);
        assert!(on.epochs > 0);
        for p in &on.partitions {
            let named = |name: &str| p.slices.iter().filter(|r| r.name == name).count() as u64;
            // Every partition runs every epoch; each forwards the token
            // across a machine boundary at least once.
            assert_eq!(named("work"), on.epochs, "partition {}", p.partition);
            assert!(named("barrier_wait") > on.epochs);
            assert!(named("marshal") > 0);
            let track = |r: &TraceRecord| (r.pid, r.tid) == (PID_PDES, p.partition as u64);
            assert!(p.slices.iter().all(track));
            assert_eq!(p.slices_dropped, 0);
        }
    }

    #[test]
    fn chunked_slices_share_one_wall_clock_axis() {
        let mut runner = ring_runner(2, 99, 1, 0);
        runner.config.timeline = true;
        let mut report = runner
            .run_until(SimTime::from_micros(40))
            .expect("healthy run");
        report.merge(
            runner
                .run_until(SimTime::from_secs(1))
                .expect("healthy run"),
        );
        let work = report.partitions[0]
            .slices
            .iter()
            .filter(|r| r.name == "work");
        let stamps: Vec<f64> = work.map(|r| r.ts_us).collect();
        assert!(stamps.len() > 40);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
    }

    #[test]
    fn merge_caps_slices_and_counts_the_rest() {
        let slice = TraceRecord::complete(PID_PDES, 0, "work", 0.0, 1.0);
        let report = |slices: usize, dropped: u64| PdesReport {
            partitions: vec![PartitionStats {
                slices: vec![slice.clone(); slices],
                slices_dropped: dropped,
                ..PartitionStats::default()
            }],
            ..PdesReport::default()
        };
        let mut merged = report(SLICE_CAP - 5, 0);
        merged.merge(report(12, 1));
        assert_eq!(merged.partitions[0].slices.len(), SLICE_CAP);
        assert_eq!(merged.partitions[0].slices_dropped, 8);
    }

    /// Ignores every event; used to compare epoch accounting across modes.
    struct Inert;
    impl PartitionWorld for Inert {
        type Event = Token;
        fn handle(&mut self, _: Token, _: &mut Scheduler<Token>, _: &mut RemoteSink<Token>) {}
    }

    /// `n` inert partitions, partition 0 holding one token at each of `at`.
    fn inert_runner(n: usize, at: &[SimTime], mode: EpochMode) -> PdesRunner<Inert> {
        let mut parts: Vec<_> = (0..n).map(|_| PartitionSim::new(Inert)).collect();
        for &at in at {
            parts[0].scheduler_mut().schedule_at(
                at,
                Token {
                    hops_left: 0,
                    value: 0,
                },
            );
        }
        let config = PdesConfig::single_machine(n, LOOKAHEAD).with_epoch_mode(mode);
        PdesRunner::new(parts, config)
    }

    #[test]
    fn adaptive_jumps_where_fixed_grinds() {
        // Two events 1 s apart with 1us lookahead, alone: the next-event
        // jump must not grind through a million empty epochs.
        let at = [SimTime::ZERO, SimTime::from_secs(1)];
        let make = || inert_runner(1, &at, EpochMode::Adaptive);
        let report = both_drivers(make, SimTime::from_secs(2), |_| ()).1.unwrap();
        assert_eq!(report.events_executed, 2);
        assert!(
            report.epochs <= 3,
            "expected a jump, got {} epochs",
            report.epochs
        );
        // Two events 300us apart on partition 0 (partition 1 idle, so this
        // exercises the multi-partition bounds, not the n=1 shortcut).
        let run = |mode: EpochMode| {
            let at = [SimTime::ZERO, SimTime::from_micros(300)];
            let make = || inert_runner(2, &at, mode);
            let (_, result) = both_drivers(make, SimTime::from_millis(1), |_| ());
            result.expect("healthy run")
        };
        let adaptive = run(EpochMode::Adaptive);
        let fixed = run(EpochMode::Fixed);
        assert_eq!(adaptive.events_executed, 2);
        assert_eq!(fixed.events_executed, 2);
        assert!(
            adaptive.epochs <= 3,
            "adaptive should jump the gap, got {} epochs",
            adaptive.epochs
        );
        assert!(adaptive.epochs_jumped >= 1);
        assert!(
            fixed.epochs > 250,
            "fixed mode should grind the 300us gap in 1us steps, got {} epochs",
            fixed.epochs
        );
        assert_eq!(fixed.epochs_jumped, 0);
    }

    /// Partitions 1 and 2 tick locally every `L` and fire a message at the
    /// collector (partition 0) each round; both messages arrive at the same
    /// instant, manufacturing a cross-sender tie every round.
    struct TiePartition {
        id: PartitionId,
        rounds: u64,
        received: Vec<(u32, u64)>,
    }

    impl PartitionWorld for TiePartition {
        type Event = Token;
        fn handle(
            &mut self,
            ev: Token,
            sched: &mut Scheduler<Token>,
            remote: &mut RemoteSink<Token>,
        ) {
            if self.id == 0 {
                self.received.push((ev.hops_left, ev.value));
                return;
            }
            remote.send(
                0,
                sched.now() + LOOKAHEAD,
                Token {
                    hops_left: self.id as u32,
                    value: ev.value,
                },
            );
            if ev.value + 1 < self.rounds {
                sched.schedule_at(
                    sched.now() + LOOKAHEAD,
                    Token {
                        hops_left: 0,
                        value: ev.value + 1,
                    },
                );
            }
        }
    }

    fn tie_run(mode: EpochMode) -> Vec<(u32, u64)> {
        const ROUNDS: u64 = 40;
        let make = || {
            let mut parts: Vec<PartitionSim<TiePartition>> = (0..3)
                .map(|id| {
                    PartitionSim::new(TiePartition {
                        id,
                        rounds: ROUNDS,
                        received: Vec::new(),
                    })
                })
                .collect();
            for sender in [1, 2] {
                parts[sender].scheduler_mut().schedule_at(
                    SimTime::ZERO,
                    Token {
                        hops_left: 0,
                        value: 0,
                    },
                );
            }
            // Two machines so some ties also cross the marshalling path.
            let config = PdesConfig::round_robin(3, 2, LOOKAHEAD, 16).with_epoch_mode(mode);
            PdesRunner::new(parts, config)
        };
        let received = |parts: &[PartitionSim<TiePartition>]| parts[0].world().received.clone();
        let (received, result) = both_drivers(make, SimTime::from_secs(1), received);
        result.expect("healthy run");
        received
    }

    #[test]
    fn same_time_cross_sends_deliver_in_sender_order() {
        // Regression for the old mailbox exchange, whose same-timestamp
        // delivery order was lock-acquisition order: ties must resolve by
        // (time, sender, send-seq), identically in both epoch modes and on
        // repeat runs.
        let adaptive = tie_run(EpochMode::Adaptive);
        assert_eq!(adaptive.len(), 80);
        let expected: Vec<(u32, u64)> = (0..40).flat_map(|r| [(1, r), (2, r)]).collect();
        assert_eq!(adaptive, expected, "ties must deliver in sender order");
        assert_eq!(adaptive, tie_run(EpochMode::Adaptive), "repeat run differs");
        assert_eq!(adaptive, tie_run(EpochMode::Fixed), "fixed mode differs");
    }

    fn ring_state(runner: &PdesRunner<Ring>) -> Vec<(u64, u64)> {
        runner
            .partitions()
            .iter()
            .map(|p| (p.world().arrivals, p.world().last_value))
            .collect()
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let horizon = SimTime::from_secs(10);
        let mid = SimTime::from_micros(40);

        // Uninterrupted reference run.
        let mut clean = ring_runner(4, 99, 2, 32);
        clean.run_until(horizon).expect("healthy run");
        let reference = ring_state(&clean);

        // Chunked run: checkpoint at the chunk boundary, finish, then rewind
        // and finish again — both continuations must match the reference,
        // under either driver.
        for lockstep in [false, true] {
            let mut runner = ring_runner(4, 99, 2, 32);
            drive(&mut runner, mid, lockstep).expect("first chunk");
            let ck = runner.checkpoint();
            assert_eq!(ck.partitions(), 4);
            assert!(ck.at() >= mid);
            drive(&mut runner, horizon, lockstep).expect("first continuation");
            assert_eq!(ring_state(&runner), reference, "lockstep {lockstep}");

            runner.restore(&ck);
            drive(&mut runner, horizon, lockstep).expect("resumed continuation");
            assert_eq!(
                ring_state(&runner),
                reference,
                "lockstep {lockstep}: restore diverged"
            );
        }
    }

    #[test]
    fn checkpoint_restore_replays_identical_fault_sequence() {
        let horizon = SimTime::from_secs(10);
        let mid = SimTime::from_micros(40);
        let plan = FaultPlan {
            seed: 7,
            drop_prob: 0.10,
            dup_prob: 0.10,
            ..Default::default()
        };

        let run_chunks = |lockstep: bool, restore_at_mid: bool| {
            let mut runner = ring_runner(4, 99, 2, 32);
            runner.config = runner.config.clone().with_faults(plan.clone());
            let mut report = drive(&mut runner, mid, lockstep).expect("first chunk");
            let ck = runner.checkpoint();
            if restore_at_mid {
                // Burn some state past the boundary, then rewind: the fault
                // RNG position must rewind with it.
                drive(&mut runner, horizon, lockstep).expect("burned continuation");
                runner.restore(&ck);
            }
            report.merge(drive(&mut runner, horizon, lockstep).expect("continuation"));
            (ring_state(&runner), report.faults)
        };

        let (state_a, faults_a) = run_chunks(false, false);
        assert!(
            faults_a.total() > 0,
            "fault plan was inert; test is vacuous"
        );
        for (lockstep, restore) in [(false, true), (true, false), (true, true)] {
            let (state_b, faults_b) = run_chunks(lockstep, restore);
            assert_eq!(
                state_a, state_b,
                "lockstep {lockstep}: fault-RNG state not restored"
            );
            assert_eq!(
                faults_a, faults_b,
                "lockstep {lockstep}: fault sequence diverged"
            );
        }
    }

    /// Panics when handling any token whose value reaches `boom_at`.
    #[derive(Clone, Debug, PartialEq)]
    struct Grenade {
        id: PartitionId,
        n: usize,
        boom_at: u64,
    }

    impl PartitionWorld for Grenade {
        type Event = Token;
        fn handle(
            &mut self,
            ev: Token,
            sched: &mut Scheduler<Token>,
            remote: &mut RemoteSink<Token>,
        ) {
            assert!(ev.value < self.boom_at, "scripted model panic");
            if ev.hops_left == 0 {
                return;
            }
            let next = Token {
                hops_left: ev.hops_left - 1,
                value: ev.value + 1,
            };
            let at = sched.now() + LOOKAHEAD;
            let dst = (self.id + 1) % self.n;
            if dst == self.id {
                sched.schedule_at(at, next);
            } else {
                remote.send(dst, at, next);
            }
        }
    }

    fn grenade_runner(boom_at: u64, hops: u32) -> PdesRunner<Grenade> {
        let parts = (0..3)
            .map(|id| PartitionSim::new(Grenade { id, n: 3, boom_at }))
            .collect();
        let mut runner = PdesRunner::new(parts, PdesConfig::single_machine(3, LOOKAHEAD));
        runner.partitions[0].scheduler_mut().schedule_at(
            SimTime::ZERO,
            Token {
                hops_left: hops,
                value: 0,
            },
        );
        runner
    }

    #[test]
    fn worker_panic_surfaces_as_single_structured_error() {
        // Token value 7 first arrives on partition 7 % 3 == 1.
        let make = || grenade_runner(7, 99);
        let (_, result) = both_drivers(make, SimTime::from_secs(1), worlds);
        match result.expect_err("grenade must fire") {
            PdesError::Panicked {
                partition,
                at,
                ref message,
                ref report,
            } => {
                assert_eq!(partition, 1);
                assert_eq!(at, SimTime::from_micros(7));
                assert!(message.contains("scripted model panic"), "got {message:?}");
                assert_eq!(report.events_executed, 7, "events before the panic");
            }
            other => panic!("expected Panicked, got {other}"),
        }
        // The barrier is not poisoned: a fresh runner starts cleanly.
        grenade_runner(u64::MAX, 9)
            .run_until(SimTime::from_secs(1))
            .expect("healthy rerun");
    }

    #[test]
    #[should_panic(expected = "may not remote-send to itself")]
    fn remote_self_send_is_rejected() {
        let mut sink: RemoteSink<Token> = RemoteSink::new(3, 4, LOOKAHEAD);
        sink.send(
            3,
            SimTime::from_micros(5),
            Token {
                hops_left: 0,
                value: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn lookahead_violation_is_rejected() {
        let mut sink: RemoteSink<Token> = RemoteSink::new(0, 2, LOOKAHEAD);
        sink.now = SimTime::from_micros(10);
        // Delivery half a lookahead after `now`: inside the window other
        // partitions may already have executed past.
        sink.send(
            1,
            SimTime::from_nanos(10_500),
            Token {
                hops_left: 0,
                value: 0,
            },
        );
    }
}
