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
//! * **Adaptive** (the default): each epoch, a designated planner thread
//!   computes every partition's *execution bound* from the published
//!   frontier — the earliest pending event of each partition, including
//!   mail still in flight through the exchange. Partition `r` may execute
//!   every event strictly below
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
//! ## The exchange
//!
//! Cross-partition messages move through double-buffered per-(sender,
//! receiver) outboxes. During an epoch each sender appends only to its own
//! `(sender, dst)` cells of the *next* buffer while receivers drain their
//! column of the *current* buffer — disjoint cells, so the epoch loop takes
//! no locks at all. The epoch barrier both swaps the buffers and publishes
//! the writes (its atomics establish the happens-before edges). The barrier
//! itself ([`EpochBarrier`]) spins briefly before parking: epochs are often
//! shorter than a park/unpark round trip.
//!
//! ## Emulating multi-machine deployments
//!
//! The paper runs PDES across 1–4 physical machines over MPI. We emulate a
//! machine boundary faithfully at the transport level: partitions are
//! assigned to machines, and every event crossing a machine boundary is
//! marshalled through a byte buffer ([`Transportable`]), prepended with a
//! configurable envelope (modeling MPI headers and kernel copies), checksummed
//! (forcing the copies to actually happen), and unmarshalled on the far
//! side. Same-machine exchanges move the event by pointer. This gives the
//! distinctive Figure-1 behaviour — more machines means more per-message
//! overhead — without requiring actual remote hosts.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use elephant_obs::{TraceRecord, PID_PDES};
use parking_lot::Mutex;

use crate::fault::{FaultCounts, FaultPlan, FaultRng};
use crate::sched::{Next, Scheduler};
use crate::sim::FEL_BYTES_EVERY;
use crate::time::{SimDuration, SimTime};

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
    /// Serializes `self` onto `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Deserializes one value, consuming its bytes. Returns `None` on a
    /// malformed buffer (treated as a fatal model error by the engine).
    fn decode(buf: &mut Bytes) -> Option<Self>;
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
    lookahead: SimDuration,
    /// Timestamp of the event currently being handled; the lookahead floor.
    now: SimTime,
    out: Vec<(PartitionId, SimTime, E)>,
}

impl<E> RemoteSink<E> {
    fn new(me: PartitionId, lookahead: SimDuration) -> Self {
        RemoteSink {
            me,
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
    pub fn send(&mut self, partition: PartitionId, at: SimTime, event: E) {
        assert!(
            partition != self.me,
            "partition {} may not remote-send to itself; use the local scheduler",
            self.me
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
    /// Fault-RNG stream position, persisted across `run_until` chunks and
    /// checkpoints so a chunked or resumed run rolls the identical fault
    /// sequence as an uninterrupted one. `None` until a faulted run starts.
    fault_rng_state: Option<u64>,
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
            fault_rng_state: None,
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
            fault_rng_state: self.fault_rng_state,
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
}

impl PdesConfig {
    /// All partitions on a single machine.
    pub fn single_machine(partitions: usize, lookahead: SimDuration) -> Self {
        PdesConfig {
            lookahead,
            machine_of: vec![0; partitions],
            envelope_bytes: 0,
            stall_epochs: DEFAULT_STALL_EPOCHS,
            faults: None,
            epoch_mode: EpochMode::Adaptive,
        }
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
/// Both variants carry the partial [`PdesReport`] assembled at abort time,
/// so callers can inspect per-partition diagnostics (each partition's event
/// count and frozen [`PartitionStats::next_time`]) even for a failed run.
#[derive(Debug)]
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
    /// A partition's event handler panicked. The panic is caught at the
    /// handler boundary and folded into the normal abort protocol, so one
    /// panicking worker produces this single structured error instead of a
    /// cascade of poisoned-barrier panics across every other thread.
    Panicked {
        /// The partition whose handler panicked.
        partition: PartitionId,
        /// Timestamp of the event being handled when the panic unwound.
        at: SimTime,
        /// The panic payload, when it was a string.
        message: String,
        /// Partial statistics gathered up to the abort.
        report: Box<PdesReport>,
    },
}

impl PdesError {
    /// The partial report assembled when the run aborted.
    pub fn report(&self) -> &PdesReport {
        match self {
            PdesError::Stalled { report, .. }
            | PdesError::Corrupt { report, .. }
            | PdesError::Panicked { report, .. } => report,
        }
    }
}

impl std::fmt::Display for PdesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PdesError::Stalled {
                partition,
                at,
                epochs,
                ..
            } => write!(
                f,
                "PDES stalled: partition {partition} failed to advance past {at} \
                 for {epochs} consecutive epochs"
            ),
            PdesError::Corrupt { partition, at, .. } => write!(
                f,
                "PDES transport corruption: message from partition {partition} \
                 due at {at} failed to decode"
            ),
            PdesError::Panicked {
                partition,
                at,
                message,
                ..
            } => write!(
                f,
                "PDES worker panic: partition {partition} panicked handling an \
                 event at {at}: {message}"
            ),
        }
    }
}

impl std::error::Error for PdesError {}

/// Which failure a worker thread observed; folded into [`PdesError`] with
/// the final report once all threads have drained.
#[derive(Clone, Debug)]
enum FailureCause {
    Stalled { epochs: u64 },
    Corrupt,
    Panicked { message: String },
}

#[derive(Clone, Debug)]
struct Failure {
    partition: PartitionId,
    at: SimTime,
    cause: FailureCause,
}

/// Aggregate statistics from a PDES run.
#[derive(Clone, Debug, Default)]
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
    /// Folds another report into this one, summing counts and wall times.
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
    pub fn merge(&mut self, other: &PdesReport) {
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
            self.partitions = other.partitions.clone();
            return;
        }
        assert_eq!(
            self.partitions.len(),
            other.partitions.len(),
            "PdesReport::merge: partition count mismatch — refusing to zip \
             per-partition rows from different runs"
        );
        for (a, b) in self.partitions.iter_mut().zip(&other.partitions) {
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
        }
    }
}

/// Per-partition wall-time and traffic breakdown from a PDES run.
///
/// Wall times are measured with monotonic clocks inside the partition
/// thread; they never feed back into simulated time, so collecting them
/// does not perturb determinism.
#[derive(Clone, Debug, Default)]
pub struct PartitionStats {
    /// Partition index.
    pub partition: usize,
    /// Events this partition executed.
    pub events: u64,
    /// Wall time spent executing local events.
    pub work_seconds: f64,
    /// Wall time spent parked on epoch barriers.
    pub barrier_wait_seconds: f64,
    /// Wall time spent marshalling cross-machine events.
    pub marshal_seconds: f64,
    /// Cross-partition events this partition sent.
    pub remote_events_sent: u64,
    /// Bytes this partition pushed through the marshalling path.
    pub remote_bytes_sent: u64,
    /// High-water mark of the partition scheduler's FEL resident bytes
    /// (sampled every 4,096 executed events and when the partition thread
    /// exits, as the sequential engine does) — the per-partition share of
    /// the `bytes/host` memory budget.
    pub fel_bytes_peak: u64,
    /// Earliest event still pending when the partition thread exited —
    /// the key stall diagnostic: a stuck partition's clock freezes here.
    pub next_time: Option<SimTime>,
}

/// Drives a set of [`PartitionSim`]s in parallel, one OS thread each.
pub struct PdesRunner<W: PartitionWorld> {
    partitions: Vec<PartitionSim<W>>,
    config: PdesConfig,
}

/// Epoch decision computed by the planner (thread 0) between barriers.
struct EpochPlan {
    /// Per-partition execution bound: partition `r` executes local events
    /// strictly below `bounds[r]` this epoch.
    bounds: Vec<SimTime>,
    terminate: bool,
}

/// A partition's frontier snapshot, read by the planner.
struct Publish {
    /// Earliest pending local event after the partition's last work phase.
    peek: Option<SimTime>,
    /// Per-destination minimum delivery time among messages the partition
    /// posted into the exchange buffer receivers will drain next epoch.
    out_min: Vec<Option<SimTime>>,
}

/// Cache-line-padded slot whose cross-thread access is serialized by the
/// epoch-barrier protocol rather than a lock: each cell is written by
/// exactly one thread in one barrier phase and read only in a different
/// phase, with a barrier (which establishes happens-before) in between.
#[repr(align(64))]
struct PhaseCell<T>(UnsafeCell<T>);

// SAFETY: access is phase-exclusive per the barrier protocol documented on
// each call site; the barrier's atomics provide the happens-before edges.
unsafe impl<T: Send> Sync for PhaseCell<T> {}

impl<T> PhaseCell<T> {
    fn new(v: T) -> Self {
        PhaseCell(UnsafeCell::new(v))
    }

    /// # Safety
    /// The caller must be the cell's unique accessor in the current barrier
    /// phase.
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

/// Sense-reversing barrier tuned for the epoch loop: arrivals spin briefly
/// (epochs are often shorter than a park/unpark round trip) and then park
/// on a condvar. The generation counter is the sense; its release/acquire
/// pair also publishes every pre-barrier write to every post-barrier reader,
/// which is what makes the lock-free [`PhaseCell`] exchange sound.
struct EpochBarrier {
    n: usize,
    /// Spin iterations before parking; zero when the host has fewer cores
    /// than partitions, where spinning only steals the straggler's
    /// timeslice.
    spin: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    lock: StdMutex<()>,
    cvar: Condvar,
}

impl EpochBarrier {
    fn new(n: usize) -> Self {
        let spin = match std::thread::available_parallelism() {
            Ok(cores) if cores.get() >= n => 4096,
            _ => 0,
        };
        EpochBarrier {
            n,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            lock: StdMutex::new(()),
            cvar: Condvar::new(),
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset the count for the next round (published by
            // the generation bump below), bump the generation under the lock
            // (so a peer between its generation check and its park cannot
            // miss the change), and wake everyone parked.
            self.arrived.store(0, Ordering::Relaxed);
            {
                // The guarded state is `()`: poisoning (a peer panicked while
                // holding the lock) carries no broken invariant, so recover
                // instead of cascading secondary panics through every thread
                // parked here. The original panic is surfaced exactly once,
                // as a structured error, by the abort protocol.
                let _g = self
                    .lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                self.generation.fetch_add(1, Ordering::Release);
            }
            self.cvar.notify_all();
            return;
        }
        for _ in 0..self.spin {
            if self.generation.load(Ordering::Acquire) != gen {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self
            .lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while self.generation.load(Ordering::Acquire) == gen {
            guard = self
                .cvar
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// One exchange cell: messages from one sender to one receiver, each
/// carrying its delivery time and the sender's send-seq tie-break key.
type Outbox<E> = Vec<(SimTime, u64, E)>;

struct Shared<E> {
    barrier: EpochBarrier,
    /// One frontier snapshot per partition: written by its owner at the end
    /// of its work phase, read by the planner between barriers.
    publish: Vec<PhaseCell<Publish>>,
    /// Written by the planner between the epoch-end and plan barriers; read
    /// by everyone after the plan barrier.
    plan: PhaseCell<EpochPlan>,
    /// Double-buffered exchange: `outboxes[b][sender * n + dst]`. During an
    /// epoch, senders append to their own row of buffer `1 - cur` while
    /// receivers drain their column of buffer `cur` — disjoint cells, no
    /// locks. The epoch barrier swaps the buffers.
    outboxes: [Vec<PhaseCell<Outbox<E>>>; 2],
    /// Per-partition breakdowns, written once by each thread as it exits.
    per_partition: Mutex<Vec<PartitionStats>>,
    epochs: AtomicU64,
    epochs_jumped: AtomicU64,
    events: AtomicU64,
    remote_msgs: AtomicU64,
    marshalled_msgs: AtomicU64,
    marshalled_bytes: AtomicU64,
    fault_dropped: AtomicU64,
    fault_duplicated: AtomicU64,
    fault_corrupted: AtomicU64,
    poisoned: AtomicBool,
    /// Set by any thread that observes a failure; the planner converts it
    /// into a terminating epoch plan at the next planning phase, so every
    /// thread exits through the normal barrier sequence instead of
    /// deadlocking.
    abort: AtomicBool,
    /// First failure observed (kept; later ones are dropped).
    failure: Mutex<Option<Failure>>,
    /// Wall-clock origin for timeline slices: all partition tracks share
    /// one zero so their epochs line up in the trace viewer.
    started: Instant,
}

impl<E> Shared<E> {
    fn record_failure(&self, failure: Failure) {
        let mut slot = self.failure.lock();
        if slot.is_none() {
            *slot = Some(failure);
        }
        self.abort.store(true, Ordering::SeqCst);
    }
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
        PdesRunner { partitions, config }
    }

    /// Runs all partitions until every event with time ≤ `horizon` has been
    /// executed (or the model drains). Returns aggregate statistics, or a
    /// structured [`PdesError`] if the stall watchdog fired or a marshalled
    /// message failed to decode — in both cases the error carries the
    /// partial report for per-partition diagnostics.
    pub fn run_until(&mut self, horizon: SimTime) -> Result<PdesReport, PdesError> {
        let n = self.partitions.len();
        let shared: Shared<W::Event> = Shared {
            barrier: EpochBarrier::new(n),
            publish: (0..n)
                .map(|_| {
                    PhaseCell::new(Publish {
                        peek: None,
                        out_min: vec![None; n],
                    })
                })
                .collect(),
            plan: PhaseCell::new(EpochPlan {
                bounds: vec![SimTime::ZERO; n],
                terminate: false,
            }),
            outboxes: [
                (0..n * n).map(|_| PhaseCell::new(Vec::new())).collect(),
                (0..n * n).map(|_| PhaseCell::new(Vec::new())).collect(),
            ],
            per_partition: Mutex::new(
                (0..n)
                    .map(|partition| PartitionStats {
                        partition,
                        ..Default::default()
                    })
                    .collect(),
            ),
            epochs: AtomicU64::new(0),
            epochs_jumped: AtomicU64::new(0),
            events: AtomicU64::new(0),
            remote_msgs: AtomicU64::new(0),
            marshalled_msgs: AtomicU64::new(0),
            marshalled_bytes: AtomicU64::new(0),
            fault_dropped: AtomicU64::new(0),
            fault_duplicated: AtomicU64::new(0),
            fault_corrupted: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            started: Instant::now(),
        };
        let config = &self.config;

        std::thread::scope(|scope| {
            for (id, part) in self.partitions.iter_mut().enumerate() {
                let shared = &shared;
                scope.spawn(move || {
                    partition_main(id, part, shared, config, horizon);
                });
            }
        });

        assert!(
            !shared.poisoned.load(Ordering::SeqCst),
            "a PDES partition thread panicked"
        );
        let report = PdesReport {
            epochs: shared.epochs.load(Ordering::Relaxed),
            epochs_jumped: shared.epochs_jumped.load(Ordering::Relaxed),
            events_executed: shared.events.load(Ordering::Relaxed),
            remote_messages: shared.remote_msgs.load(Ordering::Relaxed),
            marshalled_messages: shared.marshalled_msgs.load(Ordering::Relaxed),
            bytes_marshalled: shared.marshalled_bytes.load(Ordering::Relaxed),
            faults: FaultCounts {
                dropped: shared.fault_dropped.load(Ordering::Relaxed),
                duplicated: shared.fault_duplicated.load(Ordering::Relaxed),
                corrupted: shared.fault_corrupted.load(Ordering::Relaxed),
                armed: config.faults.as_ref().is_some_and(FaultPlan::probabilistic),
            },
            partitions: shared.per_partition.into_inner(),
        };
        match shared.failure.into_inner() {
            Some(Failure {
                partition,
                at,
                cause: FailureCause::Stalled { epochs },
            }) => Err(PdesError::Stalled {
                partition,
                at,
                epochs,
                report: Box::new(report),
            }),
            Some(Failure {
                partition,
                at,
                cause: FailureCause::Corrupt,
            }) => Err(PdesError::Corrupt {
                partition,
                at,
                report: Box::new(report),
            }),
            Some(Failure {
                partition,
                at,
                cause: FailureCause::Panicked { message },
            }) => Err(PdesError::Panicked {
                partition,
                at,
                message,
                report: Box::new(report),
            }),
            None => Ok(report),
        }
    }

    /// Consumes the runner, returning the partitions for inspection.
    pub fn into_partitions(self) -> Vec<PartitionSim<W>> {
        self.partitions
    }

    /// Immutable view of the partitions.
    pub fn partitions(&self) -> &[PartitionSim<W>] {
        &self.partitions
    }

    /// The epoch planning mode currently in effect.
    pub fn epoch_mode(&self) -> EpochMode {
        self.config.epoch_mode
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

/// Per-partition timeline buffer: one wall-clock track per partition with
/// per-epoch `work` / `barrier_wait` / `marshal` slices. Records accumulate
/// locally (no lock traffic inside the epoch loop) and flush to the global
/// timeline in one batch when the partition thread exits. Constructed only
/// while the timeline is enabled; every call site is a cheap `Option` probe
/// otherwise.
struct PartitionTimeline {
    buf: Vec<TraceRecord>,
    origin: Instant,
    tid: u64,
    /// Records discarded past [`PARTITION_RECORD_CAP`]; added at flush time
    /// to the timeline's own dropped count, plus a log line, so a
    /// truncated trace is never mistaken for a complete one.
    dropped: u64,
}

/// Per-thread record bound so a long run cannot balloon memory; the global
/// timeline applies its own cap on top.
const PARTITION_RECORD_CAP: usize = 100_000;

impl PartitionTimeline {
    fn new(origin: Instant, id: PartitionId) -> Option<Self> {
        elephant_obs::timeline_enabled().then(|| PartitionTimeline {
            buf: Vec::new(),
            origin,
            tid: id as u64,
            dropped: 0,
        })
    }

    fn push(&mut self, record: TraceRecord) {
        if self.buf.len() < PARTITION_RECORD_CAP {
            self.buf.push(record);
        } else {
            self.dropped += 1;
        }
    }

    /// A slice on this partition's track from `from` to now.
    fn slice(&mut self, name: &'static str, from: Instant, epoch: u64) {
        let ts = from.duration_since(self.origin).as_secs_f64() * 1e6;
        let dur = from.elapsed().as_secs_f64() * 1e6;
        self.push(TraceRecord::complete(PID_PDES, self.tid, name, ts, dur).arg("epoch", epoch));
    }

    fn flush(self, stats: &PartitionStats) {
        let tl = elephant_obs::timeline();
        tl.name_process(PID_PDES, "pdes partitions (wall clock)");
        tl.name_track(
            PID_PDES,
            self.tid,
            format!("partition {} ({} events)", stats.partition, stats.events),
        );
        tl.record_batch(self.buf);
        if self.dropped > 0 {
            tl.add_dropped(self.dropped);
            eprintln!(
                "pdes: partition {} timeline truncated — {} records dropped past \
                 the {PARTITION_RECORD_CAP}-record cap",
                stats.partition, self.dropped
            );
        }
    }
}

/// Times one barrier crossing into the stats row and (if tracing) a
/// timeline slice.
fn timed_barrier(
    barrier: &EpochBarrier,
    stats: &mut PartitionStats,
    tl: Option<&mut PartitionTimeline>,
    epoch: u64,
) {
    let _s = elephant_obs::span("barrier_wait");
    let t0 = Instant::now();
    barrier.wait();
    stats.barrier_wait_seconds += t0.elapsed().as_secs_f64();
    if let Some(tl) = tl {
        tl.slice("barrier_wait", t0, epoch);
    }
}

/// Drains buffer `buf` of every sender's outbox addressed to `id` into the
/// local future event list, via the scheduler's remote lane so ties resolve
/// by `(time, sender, send-seq)`.
fn drain_inbox<E>(
    shared: &Shared<E>,
    buf: usize,
    id: PartitionId,
    n: usize,
    sched: &mut Scheduler<E>,
) {
    for sender in 0..n {
        // SAFETY: receivers have exclusive access to their own column of the
        // buffer being drained this phase; senders write the other buffer.
        let cell = unsafe { shared.outboxes[buf][sender * n + id].get_mut() };
        for (at, send_seq, ev) in cell.drain(..) {
            sched.schedule_remote(at, sender, send_seq, ev);
        }
    }
}

/// Body of each partition thread: the two-barrier epoch loop described in
/// the module docs. All threads execute this in lockstep:
///
/// ```text
/// publish initial frontier
/// BARRIER                        // frontier visible to the planner
/// loop {
///     thread 0 writes the plan
///     BARRIER                    // plan visible to everyone
///     terminate? drain in-flight mail, exit
///     work:    drain inbox (buffer cur), execute events < bounds[id]
///     post:    outbound mail into buffer 1-cur (marshal across machines)
///     publish: frontier snapshot (local peek + per-dst posted minima)
///     cur = 1 - cur
///     BARRIER                    // mail + frontier visible; buffers swap
/// }
/// ```
fn partition_main<W: PartitionWorld>(
    id: PartitionId,
    part: &mut PartitionSim<W>,
    shared: &Shared<W::Event>,
    config: &PdesConfig,
    horizon: SimTime,
) {
    // Poison-on-panic guard so that one panicking thread does not leave the
    // others parked on a barrier forever in tests: we mark poisoned and the
    // panic unwinds through `scope`, which propagates it after joining.
    struct Guard<'a>(&'a AtomicBool);
    impl Drop for Guard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::SeqCst);
            }
        }
    }
    let _guard = Guard(&shared.poisoned);

    let n = config.machine_of.len();
    let my_machine = config.machine_of[id];
    let mut remote = RemoteSink::new(id, config.lookahead);
    let mut send_seq = part.send_seq;
    let mut stats = PartitionStats {
        partition: id,
        ..Default::default()
    };
    let _pdes_span = elephant_obs::span("pdes");
    let mut tl = PartitionTimeline::new(shared.started, id);

    // Fault-injection state: deterministic per-partition RNG stream plus
    // the two partition-level faults, resolved once up front. The stream
    // position and the epoch counter resume from the partition's persisted
    // progress so chunked and checkpoint-restored runs roll the identical
    // fault sequence an uninterrupted run would.
    let mut fault_rng: Option<FaultRng> = part
        .fault_rng_state
        .map(FaultRng::from_state)
        .or_else(|| config.faults.as_ref().map(|f| f.rng_for(id)));
    let slow_here: Option<std::time::Duration> = config
        .faults
        .as_ref()
        .and_then(|f| f.slow_partition)
        .filter(|&(p, _)| p == id)
        .map(|(_, d)| d);
    let stall_after: Option<u64> = config
        .faults
        .as_ref()
        .and_then(|f| f.stall_partition)
        .filter(|&(p, _)| p == id)
        .map(|(_, k)| k);
    let mut my_epochs: u64 = part.epochs_run;

    // Planner state, used by thread 0 only.
    //
    // Watchdog: stagnation counts only when the frozen global minimum was
    // already covered by the previous epoch (`watch_cover`) — an adaptive
    // epoch always covers it by at least `L`, so this matches the historic
    // "must strictly advance" rule there, while fixed-mode epochs still
    // grinding toward a distant event are exempt.
    let mut watch_last: Option<SimTime> = None;
    let mut watch_stagnant: u64 = 0;
    let mut watch_cover: Option<SimTime> = None;
    // Fixed-mode frontier: next epoch ends here, advancing by exactly L.
    let mut fixed_next: Option<SimTime> = None;
    // Scratch: earliest executable time per partition (local peek or mail
    // in flight), rebuilt from the publish cells each planning phase.
    let mut next_exec: Vec<Option<SimTime>> = vec![None; if id == 0 { n } else { 0 }];

    // Per-epoch minimum posted delivery time per destination, reused.
    let mut out_mins: Vec<Option<SimTime>> = vec![None; n];

    // Events executed since `stats.fel_bytes_peak` was last read.
    let mut since_fel_bytes = 0u64;

    // Exchange buffer the receivers drain this epoch; senders post into
    // `1 - cur`. Flipped at the epoch-end barrier.
    let mut cur = 0usize;

    // Publish the initial frontier so the planner can shape the first epoch.
    {
        // SAFETY: before the first barrier each partition touches only its
        // own publish cell; the barrier then hands them to the planner.
        let mine = unsafe { shared.publish[id].get_mut() };
        mine.peek = part.sched.peek_time();
        mine.out_min.iter_mut().for_each(|m| *m = None);
    }
    timed_barrier(&shared.barrier, &mut stats, tl.as_mut(), my_epochs);

    loop {
        let _epoch_span = elephant_obs::span("epoch");

        // Planning phase: thread 0 reads every partition's published
        // frontier and writes the epoch plan.
        if id == 0 {
            // SAFETY: between the epoch-end barrier and the plan barrier,
            // thread 0 is the only reader of the publish cells and the only
            // writer of the plan cell.
            unsafe {
                for (q, slot) in next_exec.iter_mut().enumerate() {
                    let mut m = shared.publish[q].get_ref().peek;
                    for s in 0..n {
                        if let Some(t) = shared.publish[s].get_ref().out_min[q] {
                            m = Some(m.map_or(t, |x| x.min(t)));
                        }
                    }
                    *slot = m;
                }
            }
            let global_min = next_exec.iter().flatten().min().copied();

            // Stall watchdog: if the covered minimum sits still for
            // `stall_epochs` consecutive epochs, name the partition holding
            // it and abort.
            if let Some(start) = global_min.filter(|&s| s <= horizon) {
                if watch_last == Some(start) {
                    if start < watch_cover.unwrap_or(SimTime::ZERO) {
                        watch_stagnant += 1;
                        if config.stall_epochs > 0 && watch_stagnant >= config.stall_epochs {
                            let stuck = next_exec
                                .iter()
                                .position(|t| *t == Some(start))
                                .unwrap_or_default();
                            shared.record_failure(Failure {
                                partition: stuck,
                                at: start,
                                cause: FailureCause::Stalled {
                                    epochs: watch_stagnant,
                                },
                            });
                        }
                    }
                } else {
                    watch_last = Some(start);
                    watch_stagnant = 0;
                }
            }

            let abort = shared.abort.load(Ordering::SeqCst);
            // SAFETY: sole writer of the plan cell in this phase.
            let plan = unsafe { shared.plan.get_mut() };
            match global_min {
                Some(start) if start <= horizon && !abort => {
                    plan.terminate = false;
                    let l = config.lookahead;
                    match config.epoch_mode {
                        EpochMode::Adaptive => {
                            if watch_cover.is_some_and(|c| start > c) {
                                shared.epochs_jumped.fetch_add(1, Ordering::Relaxed);
                            }
                            for (r, b) in plan.bounds.iter_mut().enumerate() {
                                let mut bound = SimTime::MAX;
                                for (q, t) in next_exec.iter().enumerate() {
                                    let Some(t) = *t else { continue };
                                    if q != r {
                                        bound = bound.min(t.saturating_add(l));
                                    } else if n > 1 {
                                        // Self-influence needs >= 2 hops
                                        // (remote self-sends are rejected).
                                        bound = bound.min(t.saturating_add(l).saturating_add(l));
                                    }
                                }
                                *b = bound;
                            }
                            watch_cover = Some(start.saturating_add(l));
                        }
                        EpochMode::Fixed => {
                            let end = fixed_next.unwrap_or_else(|| start.saturating_add(l));
                            fixed_next = Some(end.saturating_add(l));
                            plan.bounds.iter_mut().for_each(|b| *b = end);
                            watch_cover = Some(end);
                        }
                    }
                    shared.epochs.fetch_add(1, Ordering::Relaxed);
                }
                _ => plan.terminate = true,
            }
        }
        timed_barrier(&shared.barrier, &mut stats, tl.as_mut(), my_epochs);

        // SAFETY: the plan was written strictly between the two barriers
        // above; every thread only reads it in this phase.
        let plan = unsafe { shared.plan.get_ref() };
        if plan.terminate {
            // Deliver in-flight mail into the local FEL before exiting so a
            // chunked caller's next `run_until` resumes from exact state.
            drain_inbox(shared, cur, id, n, &mut part.sched);
            break;
        }
        let bound = plan.bounds[id];
        my_epochs += 1;
        let stalled = stall_after.is_some_and(|k| my_epochs > k);

        // Work phase: deliver inbound mail, then execute events < bound.
        let mut executed = 0u64;
        {
            let _s = elephant_obs::span("work");
            let t0 = Instant::now();
            if let Some(dur) = slow_here {
                // Injected slowdown: wall-clock only; the partition still
                // advances simulated time, so the watchdog must stay quiet.
                std::thread::sleep(dur);
            }
            drain_inbox(shared, cur, id, n, &mut part.sched);
            // `t < bound && t <= horizon` as one inclusive limit; a stalled
            // partition (or a zero bound) has none and executes nothing.
            let limit = match bound.as_nanos().checked_sub(1) {
                Some(last) if !stalled => Some(SimTime::from_nanos(last).min(horizon)),
                _ => None,
            };
            while let Some(Next::Event((t, ev))) = limit.map(|l| part.sched.pop_until(l)) {
                remote.now = t;
                // Catch model panics at the handler boundary: record a
                // structured failure and keep following the barrier protocol
                // so every peer exits cleanly through the planner's
                // terminating plan. The world may hold broken invariants
                // after an unwind (hence AssertUnwindSafe) — callers must
                // discard or checkpoint-restore it, never resume it.
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    part.world.handle(ev, &mut part.sched, &mut remote);
                }));
                if let Err(payload) = unwound {
                    shared.record_failure(Failure {
                        partition: id,
                        at: t,
                        cause: FailureCause::Panicked {
                            message: panic_message(payload.as_ref()),
                        },
                    });
                    break;
                }
                executed += 1;
            }
            stats.work_seconds += t0.elapsed().as_secs_f64();
            if let Some(tl) = tl.as_mut() {
                let ts = t0.duration_since(tl.origin).as_secs_f64() * 1e6;
                let dur = t0.elapsed().as_secs_f64() * 1e6;
                tl.push(
                    TraceRecord::complete(PID_PDES, tl.tid, "work", ts, dur)
                        .arg("epoch", my_epochs)
                        .arg("events", executed)
                        .arg("bound_sim_us", bound.as_nanos() as f64 / 1e3),
                );
            }
        }
        stats.events += executed;
        if executed > 0 {
            shared.events.fetch_add(executed, Ordering::Relaxed);
        }
        // Sample the FEL's resident bytes at the sequential engine's
        // cadence, not per epoch (it walks the bucket array): a read-only
        // probe of container capacities, so it cannot perturb the
        // simulation.
        since_fel_bytes += executed;
        if since_fel_bytes >= FEL_BYTES_EVERY {
            since_fel_bytes = 0;
            stats.fel_bytes_peak = stats.fel_bytes_peak.max(part.sched.fel_bytes() as u64);
        }

        // Post phase: outbound remote events into the next buffer,
        // marshalling across machines. No locks: each (sender, dst) cell is
        // exclusively ours this epoch.
        out_mins.iter_mut().for_each(|m| *m = None);
        if !remote.out.is_empty() {
            let mut marshalled = 0u64;
            let mut bytes_total = 0u64;
            let count = remote.out.len() as u64;
            let nxt = 1 - cur;
            let _s = elephant_obs::span("marshal");
            let t0 = Instant::now();
            for (dst, at, ev) in remote.out.drain(..) {
                assert!(dst < n, "remote event to unknown partition {dst}");
                if config.machine_of[dst] == my_machine {
                    // SAFETY: sender-exclusive cell of the buffer receivers
                    // will drain next epoch.
                    let cell = unsafe { shared.outboxes[nxt][id * n + dst].get_mut() };
                    cell.push((at, send_seq, ev));
                    send_seq += 1;
                    let slot = &mut out_mins[dst];
                    *slot = Some(slot.map_or(at, |m| m.min(at)));
                    continue;
                }

                // Cross-machine: roll the message-level faults (sender-side,
                // in execution order, so the sequence is deterministic and
                // plan-independent), then push the event through the
                // marshalled transport.
                let faults = config.faults.as_ref();
                let mut copies = 1usize;
                let mut corrupt = false;
                if let (Some(f), Some(rng)) = (faults, fault_rng.as_mut()) {
                    if rng.roll(f.drop_prob) {
                        shared.fault_dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if rng.roll(f.dup_prob) {
                        copies = 2;
                        shared.fault_duplicated.fetch_add(1, Ordering::Relaxed);
                    }
                    if rng.roll(f.corrupt_prob) {
                        corrupt = true;
                        shared.fault_corrupted.fetch_add(1, Ordering::Relaxed);
                    }
                }

                let (evs, nbytes) = marshal_round_trip(ev, config.envelope_bytes, copies, corrupt);
                marshalled += copies as u64;
                bytes_total += nbytes;
                if evs.len() < copies {
                    // The far side could not decode the message: surface a
                    // structured transport error instead of panicking, and
                    // let the planner terminate every partition cleanly.
                    shared.record_failure(Failure {
                        partition: id,
                        at,
                        cause: FailureCause::Corrupt,
                    });
                }
                // SAFETY: as above — sender-exclusive cell.
                let cell = unsafe { shared.outboxes[nxt][id * n + dst].get_mut() };
                for ev in evs {
                    cell.push((at, send_seq, ev));
                    send_seq += 1;
                    let slot = &mut out_mins[dst];
                    *slot = Some(slot.map_or(at, |m| m.min(at)));
                }
            }
            stats.marshal_seconds += t0.elapsed().as_secs_f64();
            if let Some(tl) = tl.as_mut() {
                tl.slice("marshal", t0, my_epochs);
            }
            stats.remote_events_sent += count;
            stats.remote_bytes_sent += bytes_total;
            shared.remote_msgs.fetch_add(count, Ordering::Relaxed);
            if marshalled > 0 {
                shared
                    .marshalled_msgs
                    .fetch_add(marshalled, Ordering::Relaxed);
                shared
                    .marshalled_bytes
                    .fetch_add(bytes_total, Ordering::Relaxed);
            }
        }

        // Publish phase: snapshot the frontier for the next plan.
        {
            // SAFETY: each partition writes only its own publish cell
            // between its work phase and the epoch-end barrier below.
            let mine = unsafe { shared.publish[id].get_mut() };
            mine.peek = part.sched.peek_time();
            mine.out_min.copy_from_slice(&out_mins);
        }
        cur = 1 - cur;

        // Epoch-end barrier: mail is posted and frontiers are published
        // before the planner looks, and the exchange buffers swap.
        timed_barrier(&shared.barrier, &mut stats, tl.as_mut(), my_epochs);
    }

    part.send_seq = send_seq;
    part.fault_rng_state = fault_rng.as_ref().map(FaultRng::state);
    part.epochs_run = my_epochs;
    stats.next_time = part.sched.peek_time();
    stats.fel_bytes_peak = stats.fel_bytes_peak.max(part.sched.fel_bytes() as u64);
    if let Some(tl) = tl.take() {
        tl.flush(&stats);
    }
    shared.per_partition.lock()[id] = stats;
}

/// Renders a caught panic payload for [`PdesError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pushes an event through the simulated machine boundary: encode, wrap in
/// an envelope, checksum (so the optimizer cannot elide the copies), decode.
///
/// `copies` decodes the wire bytes that many times (fault-injected
/// duplication); `corrupt` mangles the payload first (truncate the final
/// byte and flip a bit), modeling a torn write. Returns the reconstructed
/// events — possibly fewer than `copies` if a decode failed, which the
/// caller reports as [`PdesError::Corrupt`] — and the bytes moved.
fn marshal_round_trip<E: Transportable>(
    ev: E,
    envelope_bytes: usize,
    copies: usize,
    corrupt: bool,
) -> (Vec<E>, u64) {
    let mut buf = BytesMut::with_capacity(64 + envelope_bytes);
    buf.put_bytes(0xA5, envelope_bytes); // MPI-style envelope / copy cost
    ev.encode(&mut buf);
    if corrupt {
        if buf.len() > envelope_bytes {
            buf[envelope_bytes] ^= 0x40; // flip a bit in the first payload byte
        }
        // Tear off the last byte. `saturating_sub` so a zero-byte encoding
        // with no envelope cannot underflow; when only the envelope is
        // present the tear hits it and the decode below rejects the frame.
        buf.truncate(buf.len().saturating_sub(1));
    }
    let frozen = buf.freeze();
    // Touch every byte, as a real transport would while copying to a socket.
    let checksum: u64 = frozen
        .iter()
        .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64));
    std::hint::black_box(checksum);
    let nbytes = frozen.len() as u64 * copies as u64;
    let mut out = Vec::with_capacity(copies);
    for _ in 0..copies {
        let mut rd = frozen.clone();
        if rd.len() < envelope_bytes {
            break; // torn inside the envelope: undecodable, report corrupt
        }
        rd.advance(envelope_bytes);
        match E::decode(&mut rd) {
            Some(ev) => out.push(ev),
            None => break, // same bytes => every later copy fails identically
        }
    }
    (out, nbytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip process-global observability state
    /// (the timeline and its enable flag).
    static OBS_TESTS: StdMutex<()> = StdMutex::new(());

    /// A token that hops between partitions `hops` times, incrementing a
    /// counter on each arrival. Cross-partition delay = LOOKAHEAD.
    const LOOKAHEAD: SimDuration = SimDuration::from_micros(1);

    #[derive(Clone, Debug, PartialEq)]
    struct Token {
        hops_left: u32,
        value: u64,
    }

    impl Transportable for Token {
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_u32(self.hops_left);
            buf.put_u64(self.value);
        }
        fn decode(buf: &mut Bytes) -> Option<Self> {
            if buf.remaining() < 12 {
                return None;
            }
            Some(Token {
                hops_left: buf.get_u32(),
                value: buf.get_u64(),
            })
        }
    }

    /// An event whose wire encoding is zero bytes — the degenerate case the
    /// corrupt path must survive.
    #[derive(Clone, Debug, PartialEq)]
    struct Empty;

    impl Transportable for Empty {
        fn encode(&self, _buf: &mut BytesMut) {}
        fn decode(_buf: &mut Bytes) -> Option<Self> {
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
        let (evs, nbytes) = marshal_round_trip(Empty, 0, 1, true);
        assert_eq!(nbytes, 0);
        assert_eq!(evs, vec![Empty]);

        // No payload but an envelope: the tear lands inside the envelope,
        // so the frame is undecodable and surfaces as a corrupt transport
        // failure — not an `advance` past the end of the buffer.
        let (evs, nbytes) = marshal_round_trip(Empty, 8, 2, true);
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
        let (evs, _) = marshal_round_trip(tok.clone(), 16, 2, true);
        assert!(evs.is_empty(), "torn payload must fail the decode");
        // And without corruption every copy round-trips intact.
        let (evs, nbytes) = marshal_round_trip(tok.clone(), 16, 2, false);
        assert_eq!(evs, vec![tok.clone(), tok]);
        assert_eq!(nbytes, (16 + 12) * 2);
    }

    #[derive(Clone)]
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

    fn ring_run_mode(
        n: usize,
        hops: u32,
        machines: usize,
        envelope: usize,
        mode: EpochMode,
    ) -> (Vec<Ring>, PdesReport) {
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
        let config =
            PdesConfig::round_robin(n, machines, LOOKAHEAD, envelope).with_epoch_mode(mode);
        let mut runner = PdesRunner::new(parts, config);
        let report = runner
            .run_until(SimTime::from_secs(10))
            .expect("healthy run");
        let worlds = runner
            .into_partitions()
            .into_iter()
            .map(|p| {
                let PartitionSim { world, .. } = p;
                world
            })
            .collect();
        (worlds, report)
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
        for (a, f) in aw.iter().zip(&fw) {
            assert_eq!(a.arrivals, f.arrivals);
            assert_eq!(a.last_value, f.last_value);
        }
        assert_eq!(ar.events_executed, fr.events_executed);
        assert_eq!(ar.remote_messages, fr.remote_messages);
        assert_eq!(ar.bytes_marshalled, fr.bytes_marshalled);
        assert_eq!(fr.epochs_jumped, 0, "fixed mode never jumps");
    }

    #[test]
    fn horizon_truncates() {
        // 99 hops of 1us each; horizon 10us lets hops 0..=10 land.
        let mut parts: Vec<PartitionSim<Ring>> = (0..2)
            .map(|id| {
                PartitionSim::new(Ring {
                    id,
                    n: 2,
                    arrivals: 0,
                    last_value: 0,
                })
            })
            .collect();
        parts[0].scheduler_mut().schedule_at(
            SimTime::ZERO,
            Token {
                hops_left: 99,
                value: 0,
            },
        );
        let mut runner = PdesRunner::new(parts, PdesConfig::single_machine(2, LOOKAHEAD));
        let report = runner
            .run_until(SimTime::from_micros(10))
            .expect("healthy run");
        assert_eq!(report.events_executed, 11);
    }

    #[test]
    fn single_partition_degenerates_to_sequential() {
        let (worlds, report) = ring_run(1, 50, 1, 0);
        assert_eq!(worlds[0].arrivals, 51);
        assert_eq!(report.remote_messages, 0);
    }

    #[test]
    fn empty_model_terminates_immediately() {
        let parts: Vec<PartitionSim<Ring>> = (0..3)
            .map(|id| {
                PartitionSim::new(Ring {
                    id,
                    n: 3,
                    arrivals: 0,
                    last_value: 0,
                })
            })
            .collect();
        let mut runner = PdesRunner::new(parts, PdesConfig::single_machine(3, LOOKAHEAD));
        let report = runner
            .run_until(SimTime::from_secs(1))
            .expect("healthy run");
        assert_eq!(report.events_executed, 0);
        assert_eq!(report.epochs, 0);
    }

    #[test]
    fn merge_sums_chunked_reports() {
        let (_, a) = ring_run(4, 49, 2, 32);
        let (_, b) = ring_run(4, 49, 2, 32);
        let mut merged = PdesReport::default();
        merged.merge(&a);
        merged.merge(&b);
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
        merged.merge(&b);
    }

    #[test]
    fn timeline_gets_per_epoch_partition_slices() {
        // Process-global timeline: serialize against the other obs-flipping
        // test; restore and clear on the way out.
        let _obs = OBS_TESTS.lock().unwrap();
        elephant_obs::timeline().reset();
        elephant_obs::set_timeline_enabled(true);
        let (_, report) = ring_run(4, 99, 2, 32);
        elephant_obs::set_timeline_enabled(false);
        let json = elephant_obs::TimelineWriter::from_timeline(elephant_obs::timeline()).to_json();
        elephant_obs::timeline().reset();
        assert!(report.epochs > 0);
        for needle in ["barrier_wait", "\"work\"", "marshal", "partition 3"] {
            assert!(json.contains(needle), "trace JSON missing {needle}");
        }
    }

    #[test]
    fn timeline_cap_surfaces_dropped_records() {
        let _obs = OBS_TESTS.lock().unwrap();
        elephant_obs::timeline().reset();
        elephant_obs::set_timeline_enabled(true);
        let mut tl = PartitionTimeline::new(Instant::now(), 7).expect("timeline enabled");
        for i in 0..(PARTITION_RECORD_CAP + 13) {
            tl.push(TraceRecord::complete(PID_PDES, 7, "work", i as f64, 1.0));
        }
        assert_eq!(tl.dropped, 13);
        let stats = PartitionStats {
            partition: 7,
            ..Default::default()
        };
        tl.flush(&stats);
        elephant_obs::set_timeline_enabled(false);
        let dropped = elephant_obs::timeline().dropped();
        elephant_obs::timeline().reset();
        assert_eq!(dropped, 13);
    }

    #[test]
    fn idle_gaps_are_skipped_in_one_epoch() {
        // Two events 1 second apart with 1us lookahead: the next-event jump
        // must not grind through a million empty epochs.
        struct Sparse;
        impl PartitionWorld for Sparse {
            type Event = Token;
            fn handle(&mut self, _: Token, _: &mut Scheduler<Token>, _: &mut RemoteSink<Token>) {}
        }
        let mut part = PartitionSim::new(Sparse);
        part.scheduler_mut().schedule_at(
            SimTime::ZERO,
            Token {
                hops_left: 0,
                value: 0,
            },
        );
        part.scheduler_mut().schedule_at(
            SimTime::from_secs(1),
            Token {
                hops_left: 0,
                value: 0,
            },
        );
        let mut runner = PdesRunner::new(vec![part], PdesConfig::single_machine(1, LOOKAHEAD));
        let report = runner
            .run_until(SimTime::from_secs(2))
            .expect("healthy run");
        assert_eq!(report.events_executed, 2);
        assert!(
            report.epochs <= 3,
            "expected a jump, got {} epochs",
            report.epochs
        );
    }

    /// Ignores every event; used to compare epoch accounting across modes.
    struct Inert;
    impl PartitionWorld for Inert {
        type Event = Token;
        fn handle(&mut self, _: Token, _: &mut Scheduler<Token>, _: &mut RemoteSink<Token>) {}
    }

    #[test]
    fn adaptive_jumps_where_fixed_grinds() {
        // Two events 300us apart on partition 0 (partition 1 idle, so this
        // exercises the multi-partition bounds, not the n=1 shortcut).
        let run = |mode: EpochMode| {
            let mut parts = vec![PartitionSim::new(Inert), PartitionSim::new(Inert)];
            for at in [SimTime::ZERO, SimTime::from_micros(300)] {
                parts[0].scheduler_mut().schedule_at(
                    at,
                    Token {
                        hops_left: 0,
                        value: 0,
                    },
                );
            }
            let config = PdesConfig::single_machine(2, LOOKAHEAD).with_epoch_mode(mode);
            PdesRunner::new(parts, config)
                .run_until(SimTime::from_millis(1))
                .expect("healthy run")
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
        let mut runner = PdesRunner::new(parts, config);
        runner
            .run_until(SimTime::from_secs(1))
            .expect("healthy run");
        runner.into_partitions().remove(0).into_world().received
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

    /// Ring runner prepared for chunked runs: token seeded on partition 0.
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
        // and finish again — both continuations must match the reference.
        let mut runner = ring_runner(4, 99, 2, 32);
        runner.run_until(mid).expect("first chunk");
        let ck = runner.checkpoint();
        assert_eq!(ck.partitions(), 4);
        assert!(ck.at() >= mid);
        runner.run_until(horizon).expect("first continuation");
        assert_eq!(ring_state(&runner), reference);

        runner.restore(&ck);
        runner.run_until(horizon).expect("resumed continuation");
        assert_eq!(ring_state(&runner), reference, "restore diverged");
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

        let run_chunks = |restore_at_mid: bool| {
            let mut parts: Vec<PartitionSim<Ring>> = (0..4)
                .map(|id| {
                    PartitionSim::new(Ring {
                        id,
                        n: 4,
                        arrivals: 0,
                        last_value: 0,
                    })
                })
                .collect();
            parts[0].scheduler_mut().schedule_at(
                SimTime::ZERO,
                Token {
                    hops_left: 99,
                    value: 0,
                },
            );
            let config = PdesConfig::round_robin(4, 2, LOOKAHEAD, 32).with_faults(plan.clone());
            let mut runner = PdesRunner::new(parts, config);
            let mut report = runner.run_until(mid).expect("first chunk");
            let ck = runner.checkpoint();
            if restore_at_mid {
                // Burn some state past the boundary, then rewind: the fault
                // RNG position must rewind with it.
                runner.run_until(horizon).expect("burned continuation");
                runner.restore(&ck);
            }
            report.merge(&runner.run_until(horizon).expect("continuation"));
            (ring_state(&runner), report.faults)
        };

        let (state_a, faults_a) = run_chunks(false);
        let (state_b, faults_b) = run_chunks(true);
        assert!(
            faults_a.total() > 0,
            "fault plan was inert; test is vacuous"
        );
        assert_eq!(state_a, state_b, "fault-RNG state not restored");
        assert_eq!(faults_a, faults_b, "fault sequence diverged after restore");
    }

    /// Panics when handling any token whose value reaches `boom_at`.
    #[derive(Clone)]
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

    #[test]
    fn worker_panic_surfaces_as_single_structured_error() {
        // Token value 7 first arrives on partition 7 % 3 == 1.
        let parts: Vec<PartitionSim<Grenade>> = (0..3)
            .map(|id| {
                PartitionSim::new(Grenade {
                    id,
                    n: 3,
                    boom_at: 7,
                })
            })
            .collect();
        let mut runner = PdesRunner::new(parts, PdesConfig::single_machine(3, LOOKAHEAD));
        runner.partitions[0].scheduler_mut().schedule_at(
            SimTime::ZERO,
            Token {
                hops_left: 99,
                value: 0,
            },
        );
        let err = runner
            .run_until(SimTime::from_secs(1))
            .expect_err("grenade must fire");
        match err {
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
        // The barrier is not poisoned: the runner can restart after restore.
        let parts: Vec<PartitionSim<Grenade>> = (0..3)
            .map(|id| {
                PartitionSim::new(Grenade {
                    id,
                    n: 3,
                    boom_at: u64::MAX,
                })
            })
            .collect();
        let mut runner = PdesRunner::new(parts, PdesConfig::single_machine(3, LOOKAHEAD));
        runner.partitions[0].scheduler_mut().schedule_at(
            SimTime::ZERO,
            Token {
                hops_left: 9,
                value: 0,
            },
        );
        runner
            .run_until(SimTime::from_secs(1))
            .expect("healthy rerun");
    }

    #[test]
    #[should_panic(expected = "may not remote-send to itself")]
    fn remote_self_send_is_rejected() {
        let mut sink: RemoteSink<Token> = RemoteSink::new(3, LOOKAHEAD);
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
        let mut sink: RemoteSink<Token> = RemoteSink::new(0, LOOKAHEAD);
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
