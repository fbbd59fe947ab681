//! The future event list and scheduling interface.
//!
//! [`Scheduler`] owns the pending-event list and the simulation clock. Event
//! handlers receive `&mut Scheduler<E>` and use it to post future events,
//! cancel timers, and read the current time.
//!
//! Ordering is total and deterministic: events fire in `(time, sequence)`
//! order, where `sequence` is the order in which they were scheduled. Two
//! events posted for the same instant therefore fire in posting order, which
//! makes single-threaded runs bit-reproducible.
//!
//! The sequence space has three lanes, so two more kinds of event carry a
//! key of their own instead of their posting order:
//!
//! * **Arrivals** ([`Scheduler::schedule_arrival`]) take the bottom band,
//!   `[0, ARRIVAL_BAND)`: the sequence number *is* the caller's rank, and
//!   local numbering starts above the band. At equal timestamps arrivals
//!   sort before every local event and among themselves by rank — the order
//!   they would have had had all of them been scheduled, in rank order,
//!   before anything else. That is what lets a model stream its inputs (a
//!   network's flow starts) one queued event at a time instead of
//!   pre-scheduling all of them.
//! * **Remote deliveries** ([`Scheduler::schedule_remote`]): the top bit
//!   marks a cross-partition event and the remaining bits encode the sender
//!   partition and the sender's own send counter. At equal timestamps remote
//!   events therefore sort after every local event and among themselves by
//!   `(sender, send-seq)` — an intrinsic key that does not depend on which
//!   epoch (or which chunked `run_until` call) happened to deliver them, so
//!   tie order is identical across epoch plans, partition counts held fixed.
//!
//! A local event may also take its posting-order number now and be pushed
//! later ([`Scheduler::reserve_seq`], [`Scheduler::schedule_reserved`]):
//! it fires exactly where it would have, had it been pushed when it took
//! the number. A hybrid network uses this to serve oracle verdicts off the
//! simulation thread.
//!
//! ## FEL backends
//!
//! The queue structure is pluggable through the [`Fel`] trait, with two
//! implementations that produce bit-identical pop order:
//!
//! * [`CalendarFel`] (the default): a calendar queue — time buckets
//!   `width` nanoseconds wide, scanned cyclically like the days of a desk
//!   calendar, each kept sorted so that its minimum is its last entry and a
//!   pop never searches a bucket. Insert and pop are O(1) amortized versus
//!   the binary heap's O(log n), which keeps per-event cost flat at
//!   100k-host event densities (see the `pdes_scaling` density sweep).
//! * [`BinaryHeapFel`]: the classic binary-heap FEL this kernel used before
//!   the calendar queue. Kept as the differential-testing reference (see
//!   `crates/des/tests/proptests.rs`) and the "before" side of the
//!   `pdes_scaling` event-density sweep.
//!
//! Both backends keep payloads in a slab (slots reused through a free
//! list, so steady-state scheduling allocates nothing), each slot stamped
//! with the sequence number of the event it holds; an [`EventKey`] is that
//! `(slot, stamp)` pair. Nothing on the schedule/pop/cancel path hashes:
//! `cancel` is "stamp matches and payload present → drop the payload", and
//! the queue entry left behind is recognised as dead by its empty slot when
//! it surfaces as the minimum or when a rehash sweeps it out. The calendar
//! queue also bounds that garbage (see [`CalendarFel`]).
//!
//! In front of its calendar, [`CalendarFel`] keeps a few *delay lanes*: one
//! FIFO per recurring scheduling delay (a link's serialization time, or
//! serialization plus propagation), which a local event scheduled that far
//! ahead joins at the back. A lane is sorted for free — the clock never runs
//! backwards and local sequence numbers ascend in posting order — so most of
//! a network's events never touch a bucket. A lane event's key names its lane
//! and carries its sequence number.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::marker::PhantomData;
use std::num::NonZeroU32;

use crate::time::{SimDuration, SimTime};

/// Opaque handle identifying a scheduled event, used for cancellation.
///
/// A key names the slab slot its event was stored in — or the delay lane
/// holding it — and carries the event's sequence number as a stamp.
/// Sequence numbers are never reused, so keys are unique for the lifetime of
/// a [`Scheduler`] even though slots and lanes are: cancelling a stale key
/// held after its event fired is a no-op, whatever occupies the slot or lane
/// now (it carries another stamp).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// The slot plus one, or [`FIRST_LANE_KEY`] plus the lane: the niche
    /// makes `Option<EventKey>` — the shape a model keeps its cancellable
    /// timers in — 16 bytes, not 24.
    slot: NonZeroU32,
    stamp: u64,
}

/// The top [`LANES`] values of a key's slot field name delay lanes; slab
/// slots stay below them.
const FIRST_LANE_KEY: u32 = u32::MAX - (LANES as u32 - 1);

impl EventKey {
    #[inline]
    fn slot(self) -> u32 {
        self.slot.get() - 1
    }

    /// The key of the event with sequence number `seq` in lane `lane`.
    #[inline]
    fn in_lane(lane: usize, seq: u64) -> Self {
        let slot = NonZeroU32::new(FIRST_LANE_KEY + lane as u32);
        EventKey {
            slot: slot.expect("lane keys sit at the top of the slot space"),
            stamp: seq,
        }
    }

    /// The lane this key's event was pushed to, if it went to a lane.
    #[inline]
    fn lane(self) -> Option<usize> {
        let lane = self.slot.get().checked_sub(FIRST_LANE_KEY)?;
        Some(lane as usize)
    }
}

/// Sequence numbers below this are arrival ranks
/// ([`Scheduler::schedule_arrival`]); local numbering starts here, so at
/// one instant every arrival sorts before every local event. 2^40 ranks
/// (10^12 arrivals) leave the local lane all but its bottom 2^40 numbers.
const ARRIVAL_BAND: u64 = 1 << 40;
/// Top bit of the sequence space: set for remote-lane (cross-partition)
/// deliveries so they sort after all locally scheduled events at the same
/// instant.
const REMOTE_LANE: u64 = 1 << 63;
/// Bits reserved for the sender's send counter in a remote-lane sequence.
const SEND_SEQ_BITS: u32 = 47;
const SEND_SEQ_MASK: u64 = (1 << SEND_SEQ_BITS) - 1;
/// Sender partition ids must fit in the bits between the lane bit and the
/// send counter.
const MAX_SENDER: u64 = (1 << (63 - SEND_SEQ_BITS)) - 1;

/// Builds the remote-lane sequence number for a delivery from `sender` with
/// that sender's `send_seq`-th cross-partition message.
#[inline]
fn remote_seq(sender: usize, send_seq: u64) -> u64 {
    debug_assert!((sender as u64) <= MAX_SENDER, "sender id out of range");
    debug_assert!(send_seq <= SEND_SEQ_MASK, "send-seq counter overflow");
    REMOTE_LANE | ((sender as u64) << SEND_SEQ_BITS) | (send_seq & SEND_SEQ_MASK)
}

/// The answer of [`Scheduler::pop_until`] and [`Fel::pop_until`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Next<T> {
    /// The earliest live event was due by the limit and has been removed.
    Event(T),
    /// The earliest live event is due at this time, after the limit, and
    /// stays queued.
    Later(SimTime),
    /// No live event remains.
    Empty,
}

/// A pluggable future-event-list structure.
///
/// A `Fel` (empty by `Default`) stores `(time, seq, payload)` entries and
/// yields the live ones in strict `(time, seq)` order. It also owns
/// cancellation: `push` hands back the entry's key, `cancel` kills the
/// entry if it is still the one its slot holds, and a dead entry is
/// discarded, never yielded, when it surfaces as the minimum — or earlier
/// (the calendar queue reclaims them whenever it rehashes).
///
/// All implementations must produce **bit-identical pop order**: the
/// scheduler's determinism contract does not depend on which backend is
/// plugged in (proven by the differential proptest in
/// `crates/des/tests/proptests.rs`).
pub trait Fel<E>: Default {
    /// Entries currently stored, *including* cancelled ones that have not
    /// been reclaimed yet. Use [`Scheduler::pending`] for the exact live
    /// count.
    fn len(&self) -> usize;

    /// True when no entries (live or dead) remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry and returns its key.
    ///
    /// `delay` is how far ahead of the clock a local-lane event was
    /// scheduled, and `None` for arrival- and remote-lane events. Across the
    /// pushes that carry a delay, `seq` ascends and `time - delay` (the
    /// clock) never falls — what [`Scheduler`] guarantees — so two entries
    /// pushed with the same delay are pushed in `(time, seq)` order.
    fn push(&mut self, time: SimTime, seq: u64, delay: Option<SimDuration>, event: E) -> EventKey;

    /// Kills the entry `push` returned `key` for, dropping its payload.
    /// `false`, and nothing touched, if it was already popped or cancelled.
    fn cancel(&mut self, key: EventKey) -> bool;

    /// Removes and returns the minimum live `(time, seq)` entry if its time
    /// is at or before `limit`, else says when it is due; dead entries met
    /// at the front are reclaimed either way.
    fn pop_until(&mut self, limit: SimTime) -> Next<(SimTime, E)>;

    /// Timestamp of the minimum live entry, reclaiming dead entries that
    /// surface at the front (as `pop_until` would).
    fn peek_min_time(&mut self) -> Option<SimTime>;

    /// Estimated resident bytes of the structure (allocated capacity, not
    /// just live entries) — the substrate of the `bytes/host` memory
    /// accounting surfaced through `elephant-obs`.
    fn approx_bytes(&self) -> usize;
}

/// A queue entry, `(time, seq, slot)`. Both backends order entries as whole
/// tuples: `(time, seq)` decides, and the slot only breaks a tie the sequence
/// space never produces.
type Entry = (u64, u64, u32);

/// Payload storage shared by both backends: `(stamp, payload)` slots plus
/// a LIFO free list. A slot is *live* (payload present), *dead* (payload
/// dropped by `cancel`; a queue entry still points at it, so it is not on
/// the free list) or *free*.
#[derive(Debug, Clone)]
struct Slab<E> {
    slots: Vec<(u64, Option<E>)>,
    free: Vec<u32>,
}

impl<E> Slab<E> {
    const EMPTY: Self = Slab {
        slots: Vec::new(),
        free: Vec::new(),
    };

    fn alloc(&mut self, stamp: u64, event: E) -> EventKey {
        let slot = self.free.pop().unwrap_or_else(|| {
            let fresh = u32::try_from(self.slots.len()).ok();
            self.slots.push((stamp, None));
            // A slot's key must stay below the lane keys.
            let fresh = fresh.filter(|&slot| slot < FIRST_LANE_KEY - 1);
            fresh.expect("event slab exhausted (2^32 concurrent events)")
        });
        self.slots[slot as usize] = (stamp, Some(event));
        let slot = NonZeroU32::new(slot.wrapping_add(1));
        EventKey {
            slot: slot.expect("event slab exhausted (2^32 concurrent events)"),
            stamp,
        }
    }

    /// Live → dead, if the key's slot still holds the event it was made for.
    #[inline]
    fn cancel(&mut self, key: EventKey) -> bool {
        match self.slots.get_mut(key.slot() as usize) {
            Some((stamp, event)) if *stamp == key.stamp => event.take().is_some(),
            _ => false,
        }
    }

    /// True if the event of a slot some queue entry points at was cancelled.
    #[inline]
    fn is_dead(&self, slot: u32) -> bool {
        self.slots[slot as usize].1.is_none()
    }

    /// Frees the slot of an entry that just left the queue, returning its
    /// payload (`None` if the entry was dead).
    #[inline]
    fn release(&mut self, slot: u32) -> Option<E> {
        self.free.push(slot);
        self.slots[slot as usize].1.take()
    }

    fn capacity_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(u64, Option<E>)>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// The classic binary-heap FEL: O(log n) push/pop over `(time, seq, slot)`
/// entries.
///
/// This is the structure the kernel used before the calendar queue; it is
/// kept as the reference implementation for differential testing and as the
/// "before" side of the `pdes_scaling` event-density sweep. Cancelled
/// entries wait in the heap until they reach the top.
#[derive(Debug, Clone)]
pub struct BinaryHeapFel<E> {
    heap: BinaryHeap<Reverse<Entry>>,
    slab: Slab<E>,
}

impl<E> Default for BinaryHeapFel<E> {
    fn default() -> Self {
        BinaryHeapFel {
            heap: BinaryHeap::new(),
            slab: Slab::EMPTY,
        }
    }
}

impl<E> BinaryHeapFel<E> {
    /// The minimum live entry, left in place; dead entries above it are
    /// reclaimed.
    fn front(&mut self) -> Option<Entry> {
        while let Some(&Reverse(head)) = self.heap.peek() {
            if !self.slab.is_dead(head.2) {
                return Some(head);
            }
            self.heap.pop();
            self.slab.release(head.2);
        }
        None
    }
}

impl<E> Fel<E> for BinaryHeapFel<E> {
    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, time: SimTime, seq: u64, _: Option<SimDuration>, event: E) -> EventKey {
        let key = self.slab.alloc(seq, event);
        self.heap.push(Reverse((time.as_nanos(), seq, key.slot())));
        key
    }

    fn cancel(&mut self, key: EventKey) -> bool {
        self.slab.cancel(key)
    }

    fn pop_until(&mut self, limit: SimTime) -> Next<(SimTime, E)> {
        let Some((time, _seq, slot)) = self.front() else {
            return Next::Empty;
        };
        if time > limit.as_nanos() {
            return Next::Later(SimTime::from_nanos(time));
        }
        self.heap.pop();
        let event = self.slab.release(slot).expect("front entry is live");
        Next::Event((SimTime::from_nanos(time), event))
    }

    fn peek_min_time(&mut self) -> Option<SimTime> {
        self.front().map(|(time, _, _)| SimTime::from_nanos(time))
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.heap.capacity() * std::mem::size_of::<Reverse<Entry>>()
            + self.slab.capacity_bytes()
    }
}

/// Minimum bucket count; the queue never shrinks below this.
const MIN_BUCKETS: usize = 16;
/// Target average bucket occupancy after a resize.
const TARGET_OCCUPANCY: usize = 4;
/// Grow when average occupancy exceeds this.
const GROW_OCCUPANCY: usize = 8;
/// Dead entries tolerated regardless of the live population, so a
/// near-empty queue does not rehash on every cancel. Above it, dead entries
/// may not outnumber live ones.
const DEAD_FLOOR: usize = 64;
/// Head-sample size used to estimate inter-event spacing for the bucket
/// width (Brown's calendar-queue heuristic).
const WIDTH_SAMPLE: usize = 64;
/// Consecutive pops that fell through to a direct full search before the
/// queue concludes its bucket width no longer matches the event spacing and
/// rehashes with a freshly sampled width.
const DIRECT_STREAK_REHASH: u32 = 8;

/// Delay lanes in front of the calendar. A pop from a lane compares all
/// their heads, so there are few: four delays carry 96 % of a web-search
/// run's pushes.
const LANES: usize = 8;
/// Local events scheduled this far ahead (64 µs) or further stay in the
/// calendar. Below it a network schedules serialization and propagation;
/// at and above it sit the TCP timers, which `cancel` hits.
const LANE_MAX_DELAY: u64 = 64_000;
/// Slots of the direct-mapped table that gives a delay a lane on its second
/// sighting. A power of two.
const ADMIT_SLOTS: usize = 64;
/// An admission slot or lane holding no delay (lane delays are below
/// [`LANE_MAX_DELAY`]).
const NO_DELAY: u64 = u64::MAX;
/// The head of an empty lane, and the bound of an empty calendar. No entry
/// has it: local sequence numbers stay below the remote lane.
const NO_HEAD: u128 = u128::MAX;

/// `(time, seq)` as one integer with the same order.
#[inline]
fn order_key(time: u64, seq: u64) -> u128 {
    (u128::from(time) << 64) | u128::from(seq)
}

/// The time half of an [`order_key`].
#[inline]
fn time_of(key: u128) -> u64 {
    (key >> 64) as u64
}

/// The least of `heads`, and its lane. A fold over a local, not over the
/// cached field, so that it compiles to conditional moves: which lane's
/// head is least changes from pop to pop, and a branch per lane would
/// mispredict.
#[inline]
fn least_of(heads: &[u128; LANES]) -> (usize, u128) {
    let mut least = (0, heads[0]);
    for (lane, &head) in heads.iter().enumerate().skip(1) {
        if head < least.1 {
            least = (lane, head);
        }
    }
    least
}

/// A delay-lane entry; the payload sits inline and is `None` once
/// cancelled.
#[derive(Debug, Clone)]
struct LaneEntry<E> {
    time: u64,
    seq: u64,
    event: Option<E>,
}

/// Where [`CalendarFel::front`] found the minimum live entry.
enum Front {
    Lane(usize),
    /// A bucket and its last entry.
    Bucket(usize, Entry),
}

/// A calendar-queue FEL (Brown 1988): O(1) amortized push/pop with
/// slab-allocated payloads, behind a few delay lanes.
///
/// Time is divided into buckets of `width` nanoseconds; bucket `b` holds
/// every pending event whose timestamp falls in a window congruent to `b`
/// modulo the bucket count (the "year" wraps like a desk calendar). Popping
/// scans forward from the current position; the first bucket whose minimum
/// falls within the current year holds the global minimum, so pop order is
/// exactly the total order the binary heap produced.
///
/// * **Sorted buckets** — a bucket is one `Vec` of `(time, seq, slot)`
///   entries sorted by descending `(time, seq)`: the year scan tests only
///   each bucket's last entry, its minimum, a pop or a dead entry's reclaim
///   is `Vec::pop`, and a push walks in from the minimum end.
/// * **Resize policy** — when average occupancy leaves the
///   [`TARGET_OCCUPANCY`]-centred band, every entry is rehashed into a new
///   power-of-two bucket array sized for occupancy ~4 (each bucket sorted
///   once), with the width re-sampled from the [`WIDTH_SAMPLE`] soonest
///   entries (twice their mean spacing, outlying gaps left out). A streak of
///   [`DIRECT_STREAK_REHASH`] direct full searches — the symptom of a stale
///   width — forces the same rehash.
/// * **Delay lanes** — a local event scheduled `d` ns ahead, `d` below
///   [`LANE_MAX_DELAY`], joins the back of the FIFO lane holding `d`, and
///   never touches a bucket: the lane is in `(time, seq)` order because the
///   clock never falls and local sequence numbers ascend in posting order.
///   A delay gets one of the [`LANES`] lanes the second time the
///   direct-mapped admission table sees it, and only an empty lane is
///   reassigned (the least recently pushed one), so a stream of one-off
///   delays cannot evict a recurring one. A pop takes the least of the
///   cached lane heads and searches the calendar only when a cached lower
///   bound on its minimum does not exceed them. A lane key's `cancel` is a
///   binary search on the sequence number, which ascends along the lane.
/// * **Bounded garbage** — a cancelled entry keeps its bucket entry and its
///   emptied slot (or its lane entry, payload dropped) until it surfaces as
///   the minimum or a rehash sweeps it out, and a rehash is forced once dead
///   entries outnumber live ones (beyond [`DEAD_FLOOR`]), lanes and
///   calendar counted together: `len()` never exceeds twice the live count
///   plus the floor, so slab, buckets and lanes are sized by what is
///   pending, not by what was ever cancelled. Compaction is the resize
///   rehash on purpose: a population that lost half its entries —
///   far-future timers, typically — no longer has the head spacing its
///   width was sampled from, and a long steady phase may get no other
///   re-sample.
/// * **Snapshots** — `Clone` deep-copies the slab, buckets, lanes and scan
///   cursor, so a checkpointed scheduler resumes bit-identically.
#[derive(Debug, Clone)]
pub struct CalendarFel<E> {
    /// Event payloads, indexed by the entries' slots.
    slab: Slab<E>,
    /// The calendar proper, each bucket sorted by descending `(time, seq)`.
    /// `buckets.len()` is always a power of two.
    buckets: Vec<Vec<Entry>>,
    /// `buckets.len() - 1`, for cheap modulo.
    mask: usize,
    /// Bucket width in nanoseconds. Always a power of two so the hot
    /// bucket/window math is shifts and masks, never a 64-bit division.
    width: u64,
    /// Entries across all buckets, dead ones included.
    len: usize,
    /// Of `len`, entries whose event was cancelled.
    dead: usize,
    /// The scan cursor: every entry has `time >= scan_floor`, so a scan
    /// starts at the bucket window holding it. A push below it rewinds it.
    scan_floor: u64,
    /// Consecutive pops that needed a direct full search.
    direct_streak: u32,
    /// A lower bound on every bucket entry's [`order_key`]: exact after a
    /// search, lowered by a push, and still a bound after a pop (of the
    /// minimum) or a cancel. [`NO_HEAD`] when the buckets are known empty.
    cal_bound: u128,
    /// The delay lanes, each ascending in `(time, seq)` with a live front.
    lanes: [VecDeque<LaneEntry<E>>; LANES],
    /// The delay each lane holds ([`NO_DELAY`] before its first).
    lane_delays: [u64; LANES],
    /// Each lane's front [`order_key`], [`NO_HEAD`] when it is empty.
    heads: [u128; LANES],
    /// The least of `heads`, and its lane: a pop reads these instead of
    /// comparing every head.
    least: (usize, u128),
    /// The sequence number each lane last took, which ranks empty lanes
    /// for reassignment.
    last_push: [u64; LANES],
    /// Entries across all lanes, dead ones included.
    lane_len: usize,
    /// Of `lane_len`, entries whose event was cancelled.
    lane_dead: usize,
    /// Delays seen once, each in its hash's slot.
    admit: [u64; ADMIT_SLOTS],
}

impl<E> CalendarFel<E> {
    /// Initial bucket width: 1.024us, a typical event spacing for a lightly
    /// loaded network partition. The first resize replaces it with a
    /// sampled value.
    const INITIAL_WIDTH: u64 = 1 << 10;

    #[inline]
    fn bucket_of(&self, time: u64) -> usize {
        // width is a power of two: divide via shift.
        (time >> self.width.trailing_zeros()) as usize & self.mask
    }

    /// Exclusive upper bound of the bucket window containing `time`.
    #[inline]
    fn top_of(&self, time: u64) -> u64 {
        (time & !(self.width - 1)).saturating_add(self.width)
    }

    /// Estimates a bucket width from the spacing of the `WIDTH_SAMPLE`
    /// soonest entries: twice their mean gap, rounded up to a power of two
    /// (the hot-path math requires it; being up to 2x wide just packs a
    /// couple more entries per bucket). Gaps over twice the plain mean are
    /// left out of that mean, as in Brown's heuristic: one jump from the
    /// near-term events to a band of timers would otherwise set a width
    /// that piles the whole band into a few buckets. Returns `None` (keep
    /// the current width) with fewer than two entries.
    fn sampled_width(entries: &mut [Entry]) -> Option<u64> {
        if entries.len() < 2 {
            return None;
        }
        let k = entries.len().min(WIDTH_SAMPLE);
        entries.select_nth_unstable(k - 1);
        let soonest = &mut entries[..k];
        soonest.sort_unstable();
        let mean_gap = (soonest[k - 1].0 - soonest[0].0) / (k as u64 - 1);
        // At least one gap is at most the mean, so `n >= 1`.
        let (sum, n) = soonest
            .windows(2)
            .map(|p| p[1].0 - p[0].0)
            .filter(|&gap| gap <= 2 * mean_gap)
            .fold((0u64, 0u64), |(sum, n), gap| (sum + gap, n + 1));
        let mean_gap = sum / n;
        // Cap below the top bit so next_power_of_two cannot wrap to zero.
        let w = mean_gap.saturating_mul(2).clamp(1, 1 << 62);
        Some(w.next_power_of_two())
    }

    /// Rebuilds the bucket array at the size/width appropriate for the live
    /// population, reclaiming every dead entry along the way (the lanes'
    /// too), and rewinds the scan cursor to the earliest live entry. Lane
    /// fronts are live, so the cached lane heads stay exact.
    fn rehash(&mut self) {
        if self.lane_dead > 0 {
            for lane in &mut self.lanes {
                lane.retain(|e| e.event.is_some());
            }
            self.lane_len -= self.lane_dead;
            self.lane_dead = 0;
        }
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len - self.dead);
        for entry in self.buckets.iter_mut().flat_map(|b| b.drain(..)) {
            if self.slab.is_dead(entry.2) {
                self.slab.release(entry.2);
            } else {
                entries.push(entry);
            }
        }
        self.len = entries.len();
        self.dead = 0;
        if let Some(w) = Self::sampled_width(&mut entries) {
            self.width = w;
        }
        let target = (self.len / TARGET_OCCUPANCY).next_power_of_two();
        let target = target.max(MIN_BUCKETS);
        // Fresh buckets: a bucket keeps its capacity until the next rebuild,
        // so a band of timers sweeping round the ring would otherwise leave
        // every bucket as large as the band.
        self.buckets = vec![Vec::new(); target];
        self.mask = target - 1;
        for &entry in &entries {
            let b = self.bucket_of(entry.0);
            self.buckets[b].push(entry);
        }
        // A few entries each: sorting bucket by bucket is about linear.
        for bucket in &mut self.buckets {
            bucket.sort_unstable_by(|a, b| b.cmp(a));
        }
        // Rewind the cursor to the earliest live entry (or keep the old
        // floor when empty — pushes at or above it still land ahead of the
        // cursor, and pushes below it rewind the cursor anyway).
        self.scan_floor = entries.iter().map(|e| e.0).min().unwrap_or(self.scan_floor);
        self.direct_streak = 0;
    }

    /// Rehashes when occupancy has left its band or the garbage bound is
    /// broken. Called after every change to a length or dead count.
    #[inline]
    fn maybe_resize(&mut self) {
        let n = self.buckets.len();
        let dead = self.dead + self.lane_dead;
        if self.len > n * GROW_OCCUPANCY
            || (n > MIN_BUCKETS && self.len < n / 2)
            || (dead > DEAD_FLOOR && dead * 2 > self.len + self.lane_len)
        {
            self.rehash();
        }
    }

    /// Positions the scan cursor on the minimum live bucket entry and
    /// returns it with its bucket (it is that bucket's last entry),
    /// reclaiming dead entries that surface first. `None` when no bucket
    /// entries are left at all.
    fn locate(&mut self) -> Option<(usize, Entry)> {
        loop {
            if self.len == 0 {
                return None;
            }
            // Scan one calendar year starting at the cursor. Bucket windows
            // below `scan_floor` hold nothing (invariant), so the first
            // bucket whose minimum lies inside the year's window holds the
            // global minimum.
            let mut b = self.bucket_of(self.scan_floor);
            let mut top = self.top_of(self.scan_floor);
            let mut hit = None;
            for _ in 0..self.buckets.len() {
                if let Some(&entry) = self.buckets[b].last().filter(|e| e.0 < top) {
                    hit = Some((b, entry));
                    break;
                }
                b = (b + 1) & self.mask;
                top = top.saturating_add(self.width);
            }
            // No hit: the next event is over a year ahead. Find it directly
            // (the least bucket minimum) and jump the cursor there.
            self.direct_streak = if hit.is_some() {
                0
            } else {
                self.direct_streak + 1
            };
            let (b, entry) = hit.unwrap_or_else(|| {
                (self.buckets.iter().enumerate())
                    .filter_map(|(b, bucket)| Some((b, *bucket.last()?)))
                    .min_by_key(|&(_, entry)| entry)
                    .expect("len > 0 but no entry found")
            });
            // The located entry is the global minimum (live or dead), so the
            // cursor moves up to it before the liveness check: the scan after
            // a reclaim resumes there instead of re-walking the buckets.
            self.scan_floor = entry.0;
            if self.slab.is_dead(entry.2) {
                self.buckets[b].pop();
                self.slab.release(entry.2);
                self.len -= 1;
                self.dead -= 1;
                // Reclaiming shrinks the population too: without this check
                // a heavily-cancelled queue would drain to empty while the
                // bucket array stayed at its high-water size.
                self.maybe_resize();
                continue;
            }
            if self.direct_streak >= DIRECT_STREAK_REHASH {
                // The width no longer matches the event spacing (every pop
                // is falling through to a full search): re-sample it.
                self.rehash();
                continue;
            }
            return Some((b, entry));
        }
    }

    /// The lane that takes a local event scheduled `delay` ns ahead, if
    /// any: the lane holding `delay`, or on the delay's second sighting the
    /// least recently pushed empty lane. `None` sends it to the calendar.
    #[inline]
    fn lane_for(&mut self, delay: u64) -> Option<usize> {
        if delay >= LANE_MAX_DELAY {
            return None;
        }
        if let Some(lane) = self.lane_delays.iter().position(|&d| d == delay) {
            return Some(lane);
        }
        self.admit(delay)
    }

    /// [`Self::lane_for`] for a delay no lane holds. Kept out of line: the
    /// calendar's push path stays as short as it was without lanes.
    #[inline(never)]
    fn admit(&mut self, delay: u64) -> Option<usize> {
        let slot = delay.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - ADMIT_SLOTS.ilog2());
        if std::mem::replace(&mut self.admit[slot as usize], delay) != delay {
            return None;
        }
        // A lane with entries is never reassigned: the new delay's first
        // push could fall below its tail.
        let lane = (0..LANES)
            .filter(|&lane| self.lanes[lane].is_empty())
            .min_by_key(|&lane| self.last_push[lane])?;
        self.lane_delays[lane] = delay;
        Some(lane)
    }

    /// Drops the dead entries at the front of `lane` and re-caches its head
    /// (which only rises), and the least head if it was this lane's.
    #[inline]
    fn trim(&mut self, lane: usize) {
        let entries = &mut self.lanes[lane];
        while entries.front().is_some_and(|e| e.event.is_none()) {
            entries.pop_front();
            self.lane_len -= 1;
            self.lane_dead -= 1;
        }
        self.heads[lane] = entries
            .front()
            .map_or(NO_HEAD, |e| order_key(e.time, e.seq));
        if self.least.0 == lane {
            self.least = least_of(&self.heads);
        }
    }

    /// Pops the front of `lane`, the minimum live entry.
    #[inline]
    fn pop_lane(&mut self, lane: usize) -> Option<E> {
        let entry = self.lanes[lane].pop_front().expect("a lane with a head");
        self.lane_len -= 1;
        self.trim(lane);
        entry.event
    }

    /// The time of the minimum live entry and where it is, reclaiming dead
    /// bucket entries that surface first. The buckets are searched only when
    /// their bound does not clear every lane head.
    #[inline]
    fn front(&mut self) -> Option<(u64, Front)> {
        let (lane, head) = self.least;
        if head < self.cal_bound {
            return Some((time_of(head), Front::Lane(lane)));
        }
        // A rehash inside `locate` leaves the lane heads as they are.
        let Some((b, entry)) = self.locate() else {
            self.cal_bound = NO_HEAD;
            return (head != NO_HEAD).then_some((time_of(head), Front::Lane(lane)));
        };
        self.cal_bound = order_key(entry.0, entry.1);
        if self.cal_bound < head {
            Some((entry.0, Front::Bucket(b, entry)))
        } else {
            Some((time_of(head), Front::Lane(lane)))
        }
    }

    /// Asserts that bucket `b` is strictly descending and holds only
    /// entries of its own windows at or above the floor and the bound;
    /// returns how many of them are dead.
    #[cfg(test)]
    fn check_bucket(&self, b: usize) -> usize {
        let bucket = &self.buckets[b];
        for pair in bucket.windows(2) {
            let (hi, lo) = (pair[0], pair[1]);
            assert!((hi.0, hi.1) > (lo.0, lo.1), "bucket {b} out of order");
        }
        let mut dead = 0;
        for &(time, seq, slot) in bucket {
            assert_eq!(self.bucket_of(time), b, "entry at {time} misfiled");
            assert!(time >= self.scan_floor, "entry below the scan floor");
            assert!(
                order_key(time, seq) >= self.cal_bound,
                "entry below the bound"
            );
            dead += usize::from(self.slab.is_dead(slot));
        }
        dead
    }

    /// Asserts that every lane is strictly ascending with a live front its
    /// cached head names, holds local-lane events only, and is the only
    /// non-empty lane of its delay, and that the cached least head is the
    /// least; returns how many lane entries are dead.
    #[cfg(test)]
    fn check_lanes(&self) -> usize {
        assert_eq!(self.heads[self.least.0], self.least.1, "least head drifted");
        let mut dead = 0;
        for (lane, entries) in self.lanes.iter().enumerate() {
            let keys: Vec<_> = entries.iter().map(|e| order_key(e.time, e.seq)).collect();
            assert!(
                keys.windows(2).all(|p| p[0] < p[1]),
                "lane {lane} out of order"
            );
            assert_eq!(self.heads[lane], keys.first().copied().unwrap_or(NO_HEAD));
            assert!(
                entries.front().is_none_or(|e| e.event.is_some()),
                "dead front"
            );
            for e in entries {
                assert!(
                    (ARRIVAL_BAND..REMOTE_LANE).contains(&e.seq),
                    "non-local in lane"
                );
            }
            assert!(self.least.1 <= self.heads[lane], "a head below the least");
            let twins = (0..LANES).filter(|&l| self.lane_delays[l] == self.lane_delays[lane]);
            assert!(
                entries.is_empty() || twins.count() == 1,
                "delay in two lanes"
            );
            dead += entries.iter().filter(|e| e.event.is_none()).count();
        }
        dead
    }

    /// [`Self::check_bucket`] on every bucket and [`Self::check_lanes`], and
    /// the lengths and dead counts add up.
    #[cfg(test)]
    fn check_invariants(&self) {
        let held = self.buckets.iter().map(Vec::len).sum();
        let dead = (0..self.buckets.len()).map(|b| self.check_bucket(b)).sum();
        assert_eq!((self.len, self.dead), (held, dead), "(len, dead) drifted");
        let lane_held = self.lanes.iter().map(VecDeque::len).sum();
        let lane_dead = self.check_lanes();
        assert_eq!((self.lane_len, self.lane_dead), (lane_held, lane_dead));
    }
}

impl<E> Default for CalendarFel<E> {
    fn default() -> Self {
        CalendarFel {
            slab: Slab::EMPTY,
            buckets: vec![Vec::new(); MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width: Self::INITIAL_WIDTH,
            len: 0,
            dead: 0,
            scan_floor: 0,
            direct_streak: 0,
            cal_bound: NO_HEAD,
            lanes: std::array::from_fn(|_| VecDeque::new()),
            lane_delays: [NO_DELAY; LANES],
            heads: [NO_HEAD; LANES],
            least: (0, NO_HEAD),
            last_push: [0; LANES],
            lane_len: 0,
            lane_dead: 0,
            admit: [NO_DELAY; ADMIT_SLOTS],
        }
    }
}

impl<E> Fel<E> for CalendarFel<E> {
    fn len(&self) -> usize {
        self.len + self.lane_len
    }

    fn push(&mut self, time: SimTime, seq: u64, delay: Option<SimDuration>, event: E) -> EventKey {
        let t = time.as_nanos();
        if let Some(lane) = delay.and_then(|d| self.lane_for(d.as_nanos())) {
            let entries = &mut self.lanes[lane];
            debug_assert!(
                entries.back().is_none_or(|e| (e.time, e.seq) < (t, seq)),
                "lane push below its tail"
            );
            if entries.is_empty() {
                let head = order_key(t, seq);
                self.heads[lane] = head;
                if head < self.least.1 {
                    self.least = (lane, head);
                }
            }
            entries.push_back(LaneEntry {
                time: t,
                seq,
                event: Some(event),
            });
            self.last_push[lane] = seq;
            self.lane_len += 1;
            return EventKey::in_lane(lane, seq);
        }
        let key = self.slab.alloc(seq, event);
        let b = self.bucket_of(t);
        let entry = (t, seq, key.slot());
        let bucket = &mut self.buckets[b];
        // Walk in from the minimum end; a bucket holds a few entries.
        let at = bucket.iter().rposition(|e| *e > entry).map_or(0, |i| i + 1);
        bucket.insert(at, entry);
        self.len += 1;
        // The cursor may have advanced past this instant (e.g. a peek
        // jumped a sparse stretch): rewind it so the scan cannot miss it.
        self.scan_floor = self.scan_floor.min(t);
        self.cal_bound = self.cal_bound.min(order_key(t, seq));
        self.maybe_resize();
        key
    }

    fn cancel(&mut self, key: EventKey) -> bool {
        let Some(lane) = key.lane() else {
            let hit = self.slab.cancel(key);
            if hit {
                self.dead += 1;
                self.maybe_resize();
            }
            return hit;
        };
        // Sequence numbers ascend along a lane. A key from before the lane
        // was reassigned finds no entry: its number was never reissued.
        let entries = &mut self.lanes[lane];
        let Ok(at) = entries.binary_search_by_key(&key.stamp, |e| e.seq) else {
            return false;
        };
        if entries[at].event.take().is_none() {
            return false;
        }
        self.lane_dead += 1;
        if at == 0 {
            self.trim(lane);
        }
        self.maybe_resize();
        true
    }

    fn pop_until(&mut self, limit: SimTime) -> Next<(SimTime, E)> {
        let Some((time, front)) = self.front() else {
            return Next::Empty;
        };
        let time = SimTime::from_nanos(time);
        if time > limit {
            return Next::Later(time);
        }
        let event = match front {
            Front::Lane(lane) => self.pop_lane(lane),
            Front::Bucket(b, (_, _, slot)) => {
                self.buckets[b].pop();
                self.len -= 1;
                self.slab.release(slot)
            }
        };
        self.maybe_resize();
        Next::Event((time, event.expect("the front entry is live")))
    }

    fn peek_min_time(&mut self) -> Option<SimTime> {
        self.front().map(|(time, _)| SimTime::from_nanos(time))
    }

    fn approx_bytes(&self) -> usize {
        let entries: usize = self.buckets.iter().map(Vec::capacity).sum();
        let lane_entries: usize = self.lanes.iter().map(VecDeque::capacity).sum();
        std::mem::size_of::<Self>()
            + self.slab.capacity_bytes()
            + self.buckets.capacity() * std::mem::size_of::<Vec<Entry>>()
            + entries * std::mem::size_of::<Entry>()
            + lane_entries * std::mem::size_of::<LaneEntry<E>>()
    }
}

/// The future event list: a priority queue of `(time, event)` pairs plus the
/// simulation clock.
///
/// The queue structure is pluggable ([`Fel`]); the default is the
/// [`CalendarFel`] calendar queue, with [`BinaryHeapFel`] available as the
/// differential-testing reference (`Scheduler<E, BinaryHeapFel<E>>`). Both
/// yield the identical `(time, seq)` total order.
///
/// The scheduler keeps only the clock, the sequence counter and three
/// lifetime totals; which events are pending or cancelled is the FEL's
/// slab to know (module docs), so `cancel` is O(1) and hashes nothing.
/// Cloning a scheduler (possible whenever the event type is `Clone`) deep-
/// copies the queue — cancelled-but-unreclaimed entries included — and the
/// clock, so a clone is an independent resumable snapshot — the substrate
/// of [`crate::checkpoint`].
#[derive(Debug, Clone)]
pub struct Scheduler<E, F: Fel<E> = CalendarFel<E>> {
    now: SimTime,
    fel: F,
    next_seq: u64,
    scheduled_total: u64,
    executed_total: u64,
    cancelled_total: u64,
    _event: PhantomData<E>,
}

impl<E, F: Fel<E>> Default for Scheduler<E, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, F: Fel<E>> Scheduler<E, F> {
    /// Creates an empty scheduler with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            fel: F::default(),
            next_seq: ARRIVAL_BAND,
            scheduled_total: 0,
            executed_total: 0,
            cancelled_total: 0,
            _event: PhantomData,
        }
    }

    /// The current simulated time (the timestamp of the event being handled,
    /// or zero before the first event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (causality violations are programming
    /// errors, never recoverable conditions) or if the local sequence space
    /// is exhausted — an exhausted local lane would silently collide into
    /// the remote lane and corrupt tie-break order, so the check is always
    /// on, not debug-only.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "attempted to schedule an event in the past ({at} < now {})",
            self.now
        );
        let stamp = self.reserve_seq();
        self.scheduled_total += 1;
        self.fel.push(at, stamp, Some(at - self.now), event)
    }

    /// Takes the next local sequence number now, for an event to be pushed
    /// later with [`Scheduler::schedule_reserved`]. The event then fires
    /// exactly where it would have, had it been scheduled at this moment:
    /// its tie-break key is the posting order it reserved, not the order in
    /// which it was finally pushed. A number reserved and never used is a
    /// hole, which moves no relative order.
    ///
    /// # Panics
    /// Panics if the local sequence space is exhausted (always checked, as
    /// in [`Scheduler::schedule_at`]).
    pub fn reserve_seq(&mut self) -> u64 {
        let stamp = self.next_seq;
        assert!(
            stamp < REMOTE_LANE,
            "local sequence space exhausted: seq would enter the remote lane \
             and corrupt tie-break order"
        );
        self.next_seq += 1;
        stamp
    }

    /// Schedules `event` at `at` under the sequence number `seq`, which
    /// [`Scheduler::reserve_seq`] handed out earlier and no other event
    /// took. The push carries no delay hint, so it goes to the calendar and
    /// never to a delay lane: a lane must receive its pushes in `(time,
    /// seq)` order, and a reserved number is older than every number
    /// issued since. Counts as one scheduled event (reservations do not).
    ///
    /// # Panics
    /// Panics if `at` is in the past, or if `seq` was never handed out as a
    /// local sequence number (both always checked: either would corrupt
    /// the order silently).
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "attempted to schedule a reserved event in the past ({at} < now {})",
            self.now
        );
        assert!(
            (ARRIVAL_BAND..self.next_seq).contains(&seq),
            "sequence number {seq} was never reserved"
        );
        self.scheduled_total += 1;
        self.fel.push(at, seq, None, event)
    }

    /// Schedules `event` to fire `delay` after the current time.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to fire at the current instant, after all events
    /// already scheduled for this instant.
    #[inline]
    pub fn schedule_now(&mut self, event: E) -> EventKey {
        self.schedule_at(self.now, event)
    }

    /// Schedules `event` to fire at `at` on the arrival lane, keyed by
    /// `rank` instead of by posting order.
    ///
    /// At one instant arrivals fire before every local and remote event and
    /// among themselves by rank, wherever they were posted from — exactly
    /// as if every arrival had been scheduled, in rank order, before any
    /// other event. So a model can keep one arrival queued and post the next
    /// from its handler without moving a single tie. Ranks must be unique
    /// among the arrivals pending at once.
    ///
    /// # Panics
    /// Panics if `at` is in the past or `rank` is outside the arrival band
    /// (`rank >= 2^40`). Both checks are always on: a rank in the local lane
    /// would corrupt tie-break order silently.
    pub fn schedule_arrival(&mut self, at: SimTime, rank: u64, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "attempted to schedule an arrival in the past ({at} < now {})",
            self.now
        );
        assert!(
            rank < ARRIVAL_BAND,
            "arrival rank {rank} is outside the arrival band (< {ARRIVAL_BAND})"
        );
        self.scheduled_total += 1;
        self.fel.push(at, rank, None, event)
    }

    /// Schedules a cross-partition delivery on the remote lane.
    ///
    /// The event's tie-break key is `(at, sender, send_seq)` — intrinsic to
    /// the message, not to the insertion order — so a batch of same-timestamp
    /// deliveries from different senders fires in the same order no matter
    /// which epoch plan (or chunk boundary) carried them. Remote deliveries
    /// sort after all local events at the same instant.
    ///
    /// # Panics
    /// Panics if `at` is in the past, if `sender` does not fit in the
    /// remote-lane sender field, or (debug) on send-counter overflow.
    pub fn schedule_remote(&mut self, at: SimTime, sender: usize, send_seq: u64, event: E) {
        assert!(
            at >= self.now,
            "remote delivery violates causality ({at} < now {})",
            self.now
        );
        assert!(
            (sender as u64) <= MAX_SENDER,
            "sender partition id {sender} exceeds remote-lane capacity"
        );
        self.scheduled_total += 1;
        self.fel.push(at, remote_seq(sender, send_seq), None, event);
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending, `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let hit = self.fel.cancel(key);
        self.cancelled_total += u64::from(hit);
        hit
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.fel.peek_min_time()
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `limit`, advancing the clock to its timestamp; otherwise says
    /// when the next one is due or that none is left. One queue search
    /// either way, where `peek_time` then `pop` makes two: the engines' run
    /// loops are built on this call.
    pub fn pop_until(&mut self, limit: SimTime) -> Next<(SimTime, E)> {
        let next = self.fel.pop_until(limit);
        if let Next::Event((time, _)) = &next {
            debug_assert!(*time >= self.now, "FEL yielded an event from the past");
            self.now = *time;
            self.executed_total += 1;
        }
        next
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self.pop_until(SimTime::MAX) {
            Next::Event(popped) => Some(popped),
            _ => None,
        }
    }

    /// Number of events currently pending. Exact: cancelled entries still
    /// held by the queue are not counted.
    pub fn pending(&self) -> usize {
        (self.scheduled_total - self.executed_total - self.cancelled_total) as usize
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events executed (popped, never a cancelled one).
    pub fn executed_total(&self) -> u64 {
        self.executed_total
    }

    /// Total events cancelled before firing.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Estimated resident bytes of the FEL (allocated capacity, not just
    /// live entries). The calendar queue walks its bucket array to add them
    /// up, so read it at a cadence, not per event.
    ///
    /// The estimate is computed from container capacities, so for a fixed
    /// operation sequence it is deterministic across hosts — which is what
    /// lets the `pdes_scaling` bytes/host gate use a committed baseline.
    pub fn fel_bytes(&self) -> usize {
        self.fel.approx_bytes()
    }

    /// Forces the clock forward to `t` without executing anything.
    ///
    /// Used by the PDES engine at epoch barriers; panics if a pending event
    /// would be skipped or if `t` is in the past.
    pub fn advance_clock(&mut self, t: SimTime) {
        assert!(t >= self.now, "clock may not move backwards");
        if let Some(head) = self.peek_time() {
            assert!(
                head >= t,
                "advance_clock({t}) would skip an event at {head}"
            );
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(30), "c");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_fire_in_posting_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_at(SimTime::from_nanos(10), "dead");
        s.schedule_at(SimTime::from_nanos(20), "alive");
        assert!(s.cancel(k));
        assert!(!s.cancel(k), "double-cancel reports false");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "alive");
        assert!(s.pop().is_none());
        assert_eq!(s.cancelled_total(), 1);
        assert_eq!(s.executed_total(), 1);
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_at(SimTime::from_nanos(10), "fired");
        s.pop();
        assert!(!s.cancel(k), "cancelling a fired event is a no-op");
        assert_eq!(s.cancelled_total(), 0);
        assert_eq!(
            s.scheduled_total(),
            s.executed_total() + s.cancelled_total()
        );
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut s: Scheduler<&str> = Scheduler::new();
        assert!(!s.cancel(EventKey {
            slot: NonZeroU32::new(42).unwrap(),
            stamp: 42
        }));
    }

    /// Models keep their cancellable timers as `Option<EventKey>` (two per
    /// TCP connection), so the key's niche is worth its keep.
    #[test]
    fn an_optional_key_costs_no_tag() {
        assert_eq!(std::mem::size_of::<Option<EventKey>>(), 16);
    }

    /// A key outlives its event; the slot does not. Once the event fired and
    /// a new one moved into the slot, the old key must not reach it.
    #[test]
    fn stale_key_cannot_cancel_the_slots_new_tenant() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let stale = s.schedule_at(SimTime::from_nanos(10), "fired");
        s.pop();
        // Another delay than the first event's, so that both go to the
        // calendar (a delay's second sighting would give it a lane).
        let tenant = s.schedule_at(SimTime::from_nanos(25), "tenant");
        assert_eq!(stale.slot, tenant.slot, "the free list reuses the slot");
        assert!(!s.cancel(stale));
        assert_eq!(s.cancelled_total(), 0);
        assert_eq!(s.pop(), Some((SimTime::from_nanos(25), "tenant")));
    }

    #[test]
    fn pop_until_pops_only_what_is_due() {
        let mut s: Scheduler<&str> = Scheduler::new();
        assert_eq!(s.pop_until(SimTime::MAX), Next::Empty);
        let dead = s.schedule_at(SimTime::from_nanos(5), "dead");
        s.schedule_at(SimTime::from_nanos(10), "a");
        s.cancel(dead);
        let at = SimTime::from_nanos(10);
        assert_eq!(s.pop_until(SimTime::from_nanos(9)), Next::Later(at));
        assert_eq!(s.now(), SimTime::ZERO, "a refused pop leaves the clock");
        assert_eq!(s.pop_until(at), Next::Event((at, "a")), "inclusive limit");
        assert_eq!((s.now(), s.executed_total()), (at, 1));
        assert_eq!(s.pop_until(SimTime::MAX), Next::Empty);
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_at(SimTime::from_nanos(10), "dead");
        s.schedule_at(SimTime::from_nanos(20), "alive");
        s.cancel(k);
        assert_eq!(s.peek_time(), Some(SimTime::from_nanos(20)));
    }

    /// Regression (scheduler accounting): `pending()` used to return a
    /// `len - tombstones` upper bound that still counted interior
    /// tombstones, inflating the kernel queue-depth metric. It now returns
    /// the exact live count.
    #[test]
    fn pending_excludes_interior_tombstones() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), 0);
        let dead = s.schedule_at(SimTime::from_nanos(20), 1);
        s.schedule_at(SimTime::from_nanos(30), 2);
        assert_eq!(s.pending(), 3);
        s.cancel(dead);
        // The tombstone sits in the interior of the queue, unpurged; the
        // count must not include it.
        assert_eq!(s.pending(), 2);
        s.pop();
        assert_eq!(s.pending(), 1);
        s.pop();
        assert_eq!(s.pending(), 0);
        assert!(s.is_empty());
    }

    /// Regression: the sequence-space exhaustion check must hold in release
    /// builds too — a local seq entering the remote lane would corrupt
    /// tie-break order silently.
    #[test]
    fn local_sequence_space_exhaustion_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.next_seq = REMOTE_LANE;
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.schedule_at(SimTime::from_nanos(1), ());
        }));
        assert!(r.is_err(), "exhausted local lane must panic, not collide");
    }

    #[test]
    #[should_panic]
    fn scheduling_in_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_at(SimTime::from_nanos(5), ());
    }

    #[test]
    fn schedule_now_runs_after_current_instant_peers() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), "first");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "first");
        s.schedule_now("second");
        let (t, e) = s.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_nanos(10), "second"));
    }

    /// A reserved event pushed last fires where its reservation put it,
    /// even on a lane-eligible delay whose lane holds later numbers; an
    /// unused reservation is a hole that moves nothing, and only pushes
    /// count as scheduled.
    #[test]
    fn a_reserved_event_fires_in_its_reserved_place() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let t = SimTime::from_nanos(50);
        s.schedule_at(t, "a");
        let b = s.reserve_seq();
        s.schedule_at(t, "c");
        let _hole = s.reserve_seq();
        s.schedule_at(t, "d");
        s.schedule_at(t, "e");
        s.fel.check_invariants();
        s.schedule_reserved(t, b, "b");
        s.fel.check_invariants();
        assert_eq!(s.scheduled_total(), 5);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    #[should_panic(expected = "never reserved")]
    fn a_number_never_reserved_is_refused() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let seq = s.reserve_seq();
        s.schedule_reserved(SimTime::from_nanos(1), seq + 1, 0);
    }

    #[test]
    fn remote_lane_sorts_after_locals_and_by_sender_seq() {
        let t = SimTime::from_nanos(7);
        // Insert remote deliveries in scrambled order; locals afterwards.
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_remote(t, 2, 0, "r2.0");
        s.schedule_remote(t, 1, 1, "r1.1");
        s.schedule_at(t, "local0");
        s.schedule_remote(t, 1, 0, "r1.0");
        s.schedule_at(t, "local1");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["local0", "local1", "r1.0", "r1.1", "r2.0"]);
    }

    /// The streaming contract: an arrival posted at the current instant by
    /// a handler still fires before local events posted for that instant
    /// long before it, and arrivals among themselves fire by rank, not by
    /// posting order.
    #[test]
    fn arrivals_sort_before_earlier_locals_and_by_rank() {
        let t = SimTime::from_nanos(50);
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(t, "local0");
        s.schedule_arrival(t, 7, "arrival7");
        s.schedule_at(t, "local1");
        s.schedule_arrival(t, 3, "arrival3");
        s.schedule_arrival(SimTime::from_nanos(10), 9, "early");
        assert_eq!(s.pop(), Some((SimTime::from_nanos(10), "early")));
        assert_eq!(s.pop(), Some((t, "arrival3")));
        // Posted from "inside" the instant, after both locals.
        s.schedule_arrival(t, 5, "arrival5");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["arrival5", "arrival7", "local0", "local1"]);
        assert_eq!((s.scheduled_total(), s.executed_total()), (6, 6));
    }

    #[test]
    fn remote_lane_still_sorts_after_arrivals_and_locals() {
        let t = SimTime::from_nanos(7);
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_remote(t, 0, 0, "remote");
        s.schedule_at(t, "local");
        s.schedule_arrival(t, 0, "arrival");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["arrival", "local", "remote"]);
    }

    /// A rank that reached the local lane would tie-break against local
    /// events by accident; the check holds in release builds too.
    #[test]
    fn arrival_rank_outside_the_band_panics() {
        let mut s: Scheduler<u64> = Scheduler::new();
        s.schedule_arrival(SimTime::ZERO, ARRIVAL_BAND - 1, 0);
        for rank in [ARRIVAL_BAND, REMOTE_LANE, u64::MAX] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.schedule_arrival(SimTime::ZERO, rank, 1);
            }));
            assert!(r.is_err(), "rank {rank} must be refused");
        }
        assert_eq!(s.pending(), 1);
    }

    #[test]
    fn remote_tie_order_is_insertion_order_independent() {
        let t = SimTime::from_nanos(3);
        let mut forward: Scheduler<u32> = Scheduler::new();
        let mut backward: Scheduler<u32> = Scheduler::new();
        let msgs = [(0usize, 0u64, 10u32), (1, 0, 20), (2, 0, 30), (1, 1, 21)];
        for &(sender, seq, v) in &msgs {
            forward.schedule_remote(t, sender, seq, v);
        }
        for &(sender, seq, v) in msgs.iter().rev() {
            backward.schedule_remote(t, sender, seq, v);
        }
        let f: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| backward.pop()).collect();
        assert_eq!(f, b);
        assert_eq!(
            f.into_iter().map(|(_, v)| v).collect::<Vec<_>>(),
            vec![10, 20, 21, 30]
        );
    }

    #[test]
    #[should_panic]
    fn remote_delivery_in_past_panics() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(10), ());
        s.pop();
        s.schedule_remote(SimTime::from_nanos(5), 0, 0, ());
    }

    #[test]
    fn advance_clock_moves_time_when_safe() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.advance_clock(SimTime::from_nanos(100));
        assert_eq!(s.now(), SimTime::from_nanos(100));
    }

    #[test]
    #[should_panic]
    fn advance_clock_refuses_to_skip_events() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.schedule_at(SimTime::from_nanos(50), ());
        s.advance_clock(SimTime::from_nanos(100));
    }

    // ---- calendar-queue specifics ----

    /// Deterministic pseudo-random offsets for structure-exercising tests.
    fn mix(state: &mut u64) -> u64 {
        *state = crate::rng::splitmix64(*state);
        *state
    }

    #[test]
    fn calendar_grows_and_drains_in_order() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut heap: Scheduler<u64, BinaryHeapFel<u64>> = Scheduler::new();
        let mut st = 7u64;
        for i in 0..10_000u64 {
            let t = SimTime::from_nanos(mix(&mut st) % 50_000_000);
            s.schedule_at(t, i);
            heap.schedule_at(t, i);
            s.fel.check_invariants();
        }
        while let Some(popped) = s.pop() {
            s.fel.check_invariants();
            assert_eq!(Some(popped), heap.pop(), "the heap's (time, seq) order");
        }
        assert_eq!((heap.pop(), s.executed_total()), (None, 10_000));
    }

    #[test]
    fn calendar_handles_sparse_jumps_and_bursts() {
        let mut s: Scheduler<u64> = Scheduler::new();
        // Dense burst at t=0..100, then a lone event a full second later,
        // then another burst: exercises the direct-search jump and the
        // push-below-cursor rewind after a peek.
        for i in 0..64u64 {
            s.schedule_at(SimTime::from_nanos(i), i);
            s.fel.check_invariants();
        }
        s.schedule_at(SimTime::from_secs(1), 1000);
        for _ in 0..64 {
            s.fel.check_invariants();
            s.pop().unwrap();
        }
        // Peek jumps the cursor a year ahead...
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(1)));
        s.fel.check_invariants();
        // ...then a push below the peeked instant must still pop first.
        s.schedule_at(SimTime::from_nanos(200), 2000);
        s.fel.check_invariants();
        assert_eq!(s.pop().unwrap(), (SimTime::from_nanos(200), 2000));
        s.fel.check_invariants();
        assert_eq!(s.pop().unwrap(), (SimTime::from_secs(1), 1000));
        s.fel.check_invariants();
        assert!(s.pop().is_none());
    }

    #[test]
    fn calendar_shrinks_after_heavy_cancellation() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut keys = Vec::new();
        for i in 0..4096u64 {
            keys.push(s.schedule_at(SimTime::from_nanos(i * 10), i));
            s.fel.check_invariants();
        }
        for k in &keys[64..] {
            s.cancel(*k);
            s.fel.check_invariants();
        }
        let grown = s.fel_bytes();
        // Drain the survivors; resize rehashes purge the tombstones and the
        // bucket array shrinks back toward its floor.
        let mut seen = 0;
        while s.pop().is_some() {
            s.fel.check_invariants();
            seen += 1;
        }
        assert_eq!(seen, 64);
        assert_eq!(
            s.scheduled_total(),
            s.executed_total() + s.cancelled_total()
        );
        assert!(
            s.fel_bytes() <= grown,
            "drained queue must not keep growing"
        );
    }

    /// The `full_rpc8` shape. Cancelled entries used to be reclaimed only
    /// when simulated time reached them or live + dead together outgrew 8x a
    /// bucket array sized for an earlier peak, so far-future timer
    /// tombstones piled up to several entries per live event while the
    /// population grew and to many more once it drained. Now the queue —
    /// buckets and delay lanes together — never holds more than twice what
    /// is pending (plus the floor), after every single operation, and the
    /// events that do fire are exactly those of the same workload with the
    /// cancelled ones never scheduled.
    #[test]
    fn cancelled_entries_never_outnumber_pending_ones() {
        const FAR: SimDuration = SimDuration::from_millis(200);
        const TIMER: u64 = u64::MAX;
        // The bound holds after every operation, and so do the invariants
        // of the bucket the operation touched (none for a cancel) and of the
        // one the next scan starts from. The full check walks every bucket
        // (minutes over this whole test), so it runs after every 61st
        // operation, a stride prime to the steps' lengths.
        let mut ops = 0usize;
        let mut check = |s: &Scheduler<u64>, live: usize, touched: Option<SimTime>| {
            let fel = &s.fel;
            for t in touched
                .map(SimTime::as_nanos)
                .into_iter()
                .chain([fel.scan_floor])
            {
                fel.check_bucket(fel.bucket_of(t));
            }
            ops += 1;
            if ops.is_multiple_of(61) {
                fel.check_invariants();
            }
            assert_eq!(s.pending(), live, "pending() must be exact");
            let held = s.fel.len();
            assert!(
                held <= 2 * live + DEAD_FLOOR,
                "{held} entries held for {live} pending events"
            );
        };
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut clean: Scheduler<u64> = Scheduler::new();
        let mut arm = |s: &mut Scheduler<u64>, delay: SimDuration, v: u64| {
            s.schedule_in(delay, v);
            clean.schedule_at(s.now() + delay, v);
            Some(s.now() + delay)
        };
        let mut st = 5u64;
        // 20,000 far events (values below 20,000) and a 1,000-event hold.
        for v in 0..20_000u64 {
            let jitter = SimDuration::from_nanos(mix(&mut st) % 1_000_000);
            let at = arm(&mut s, FAR + jitter, v);
            check(&s, v as usize + 1, at);
        }
        for v in 20_000..21_000u64 {
            let at = arm(&mut s, SimDuration::from_nanos(mix(&mut st) % 100_000), v);
            check(&s, v as usize + 1, at);
        }
        let mut live = 21_000usize;

        // Phase 1: the hold cycles, half of it at recurring short delays
        // that fill the delay lanes; every step also arms a far timer and a
        // lane-held one behind the lane's live events, and cancels both.
        let mut popped = Vec::new();
        for step in 0..60_000 {
            let (t, v) = s.pop().expect("the hold keeps the queue full");
            check(&s, live - 1, Some(t));
            popped.push((t, v));
            let delay = if v % 2 == 0 {
                [52, 1052, 1200, 2200][v as usize / 2 % 4]
            } else {
                1 + mix(&mut st) % 100_000
            };
            let at = arm(&mut s, SimDuration::from_nanos(delay), v);
            check(&s, live, at);
            let doomed = s.schedule_in(FAR, TIMER);
            check(&s, live + 1, Some(s.now() + FAR));
            assert!(s.cancel(doomed));
            check(&s, live, None);
            let doomed = s.schedule_in(SimDuration::from_nanos(1200), TIMER);
            assert!(step < 8 || doomed.lane().is_some(), "1,200 ns has a lane");
            check(&s, live + 1, None);
            assert!(s.cancel(doomed));
            check(&s, live, None);
        }

        // Phase 2: 1,000 far timers are cancelled and re-armed round-robin
        // while the hold slows down and the far population drains to 2,000.
        let mut timers = Vec::new();
        for _ in 0..1_000 {
            timers.push(s.schedule_in(FAR, TIMER));
            check(&s, live + timers.len(), Some(s.now() + FAR));
        }
        live += timers.len();
        let (mut far_left, mut step) = (20_000, 0usize);
        while far_left > 2_000 {
            let (t, v) = s.pop().expect("far events remain");
            check(&s, live - 1, Some(t));
            popped.push((t, v));
            let mut at = None;
            if v < 20_000 {
                far_left -= 1;
                live -= 1;
            } else {
                at = arm(
                    &mut s,
                    SimDuration::from_nanos(1 + mix(&mut st) % 2_000_000),
                    v,
                );
            }
            check(&s, live, at);
            let j = step % timers.len();
            step += 1;
            assert!(s.cancel(timers[j]));
            check(&s, live - 1, None);
            timers[j] = s.schedule_in(FAR, TIMER);
            check(&s, live, Some(s.now() + FAR));
        }
        for k in timers {
            assert!(s.cancel(k));
            live -= 1;
            check(&s, live, None);
        }
        popped.extend(std::iter::from_fn(|| {
            s.fel.check_invariants();
            s.pop()
        }));
        let reference: Vec<_> = std::iter::from_fn(|| clean.pop()).collect();
        assert_eq!(popped, reference);
        assert_eq!(s.pending(), 0);
    }

    /// The incast shape, where sorted insertion does the most work: 4,096
    /// local events at one instant, interleaved with arrival-lane ranks and
    /// remote-lane deliveries, every third local one cancelled, and a second
    /// such wave a calendar year later, in the same bucket. The calendar
    /// pops the heap's stream and keeps its garbage bound throughout.
    #[test]
    fn same_instant_pile_up_pops_like_the_heap() {
        type Heap = Scheduler<u64, BinaryHeapFel<u64>>;
        let check = |cal: &Scheduler<u64>| {
            cal.fel.check_invariants();
            assert!(cal.fel.len() <= 2 * cal.pending() + DEAD_FLOOR);
        };
        let (mut v, mut send_seq) = (0u64, [0u64; 3]);
        let mut wave = |cal: &mut Scheduler<u64>, heap: &mut Heap, at: SimTime| {
            let mut locals = Vec::new();
            for i in 0..4096u64 {
                v += 1;
                locals.push((cal.schedule_at(at, v), heap.schedule_at(at, v)));
                check(cal);
                v += 1;
                if i % 2 == 0 {
                    // Ranks fall as values rise: posting order is no help.
                    let rank = ARRIVAL_BAND - v;
                    cal.schedule_arrival(at, rank, v);
                    heap.schedule_arrival(at, rank, v);
                } else {
                    let sender = [2, 0, 1][i as usize / 2 % 3];
                    cal.schedule_remote(at, sender, send_seq[sender], v);
                    heap.schedule_remote(at, sender, send_seq[sender], v);
                    send_seq[sender] += 1;
                }
                check(cal);
            }
            for &(c, h) in locals.iter().step_by(3) {
                assert!(cal.cancel(c) && heap.cancel(h));
                check(cal);
            }
        };
        let mut cal: Scheduler<u64> = Scheduler::new();
        let mut heap: Heap = Scheduler::new();
        let first = SimTime::from_micros(10);
        wave(&mut cal, &mut heap, first);
        let year = cal.fel.buckets.len() as u64 * cal.fel.width;
        let second = first + SimDuration::from_nanos(year);
        let bucket = |t: SimTime| cal.fel.bucket_of(t.as_nanos());
        assert_eq!(bucket(first), bucket(second));
        wave(&mut cal, &mut heap, second);
        while let Some(popped) = cal.pop() {
            check(&cal);
            assert_eq!(Some(popped), heap.pop());
        }
        assert_eq!(
            (heap.pop(), cal.executed_total()),
            (None, 2 * (8192 - 1366))
        );
    }

    /// Checkpoint/restore: a deep clone of a populated calendar queue
    /// (interior tombstones, remote-lane entries, mid-scan cursor) drains
    /// bit-identically to the original.
    #[test]
    fn calendar_clone_is_a_faithful_snapshot() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut st = 11u64;
        let mut keys = Vec::new();
        for i in 0..2000u64 {
            keys.push(s.schedule_at(SimTime::from_nanos(mix(&mut st) % 1_000_000), i));
            s.fel.check_invariants();
        }
        for k in keys.iter().step_by(3) {
            s.cancel(*k);
            s.fel.check_invariants();
        }
        s.schedule_remote(SimTime::from_millis(2), 3, 0, 9999);
        s.fel.check_invariants();
        for _ in 0..500 {
            s.pop();
            s.fel.check_invariants();
        }
        let mut snapshot = s.clone();
        while let Some(popped) = s.pop() {
            assert_eq!(Some(popped), snapshot.pop());
            s.fel.check_invariants();
            snapshot.fel.check_invariants();
        }
        assert_eq!(snapshot.pop(), None);
        assert_eq!(s.executed_total(), snapshot.executed_total());
        assert_eq!(s.pending(), 0);
    }

    // ---- delay lanes ----

    /// A calendar scheduler and a binary-heap one fed the same pushes;
    /// every pop is checked against the heap's.
    struct Twin {
        cal: Scheduler<u64>,
        heap: Scheduler<u64, BinaryHeapFel<u64>>,
    }

    impl Twin {
        fn new() -> Self {
            Twin {
                cal: Scheduler::new(),
                heap: Scheduler::new(),
            }
        }

        /// Schedules `v` `delay` ns ahead on both; returns the calendar's key.
        fn push(&mut self, delay: u64, v: u64) -> EventKey {
            let delay = SimDuration::from_nanos(delay);
            self.heap.schedule_in(delay, v);
            self.cal.schedule_in(delay, v)
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let popped = self.cal.pop();
            assert_eq!(popped, self.heap.pop(), "the heap's (time, seq) order");
            popped
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            self.cal.fel.check_invariants();
        }
    }

    /// A delay's first push goes to the calendar, its second takes a lane,
    /// and calendar and lane entries at one instant fire in posting order.
    /// Delays of 64 µs and more, arrivals and remote deliveries never take
    /// a lane.
    #[test]
    fn a_delay_seen_once_goes_to_the_calendar() {
        let mut t = Twin::new();
        let first = t.push(1200, 0);
        let once = t.push(777, 1);
        let second = t.push(1200, 2);
        assert_eq!((first.lane(), once.lane()), (None, None));
        assert!(second.lane().is_some(), "the second sighting takes a lane");
        assert_eq!(t.push(1200, 3).lane(), second.lane());
        for v in 4..7 {
            assert_eq!(t.push(LANE_MAX_DELAY, v).lane(), None);
        }
        let at = SimTime::from_nanos(1200);
        for rank in 0..3 {
            assert_eq!(t.cal.schedule_arrival(at, rank, 7).lane(), None);
            t.heap.schedule_arrival(at, rank, 7);
        }
        t.cal.fel.check_invariants();
        t.drain();
    }

    /// The hybrid's shape: a stream of oracle latencies that never repeat
    /// is never admitted, so the recurring delay keeps its lane even while
    /// the lane is empty between its events.
    #[test]
    fn a_recurring_delay_keeps_its_lane_among_one_off_delays() {
        const RECURRING: u64 = 1052;
        let mut t = Twin::new();
        t.push(RECURRING, 0);
        let lane = t.push(RECURRING, 1).lane().expect("second sighting");
        for v in 2..20_000 {
            assert_eq!(t.push(3_000 + v, v).lane(), None, "a one-off delay");
            assert_eq!(t.push(RECURRING, v).lane(), Some(lane));
            t.pop();
            t.pop();
            if v % 997 == 0 {
                t.cal.fel.check_invariants();
            }
        }
        t.drain();
    }

    /// Eight recurring delays hold the eight lanes; a ninth, seen twice,
    /// waits in the calendar until a lane empties, and then takes that one.
    #[test]
    fn only_an_empty_lane_is_reassigned() {
        let mut t = Twin::new();
        let mut lanes = Vec::new();
        for d in (1..=LANES as u64).map(|i| i * 100) {
            t.push(d, d);
            lanes.push(t.push(d, d).lane().expect("second sighting"));
            t.push(d, d);
        }
        let mut distinct = lanes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), LANES);
        const NINTH: u64 = 5_000;
        assert_eq!(t.push(NINTH, 1).lane(), None);
        assert_eq!(t.push(NINTH, 2).lane(), None, "no lane is empty");
        t.cal.fel.check_invariants();
        // The 100 ns events fire first; their lane is then empty.
        for _ in 0..3 {
            assert_eq!(t.pop().map(|(at, _)| at), Some(SimTime::from_nanos(100)));
        }
        assert_eq!(t.push(NINTH, 3).lane(), Some(lanes[0]));
        // 100 ns lost its lane, and the others are still busy.
        assert_eq!(t.push(100, 4).lane(), None);
        assert_eq!(t.push(200, 5).lane(), Some(lanes[1]));
        t.cal.fel.check_invariants();
        t.drain();
    }

    /// A lane key outlives its lane's delay: once the events fired and the
    /// lane went to another delay, the old key finds none of the new
    /// events, whose sequence numbers are all new.
    #[test]
    fn a_key_from_a_reassigned_lane_cancels_nothing() {
        let mut t = Twin::new();
        // Seven long delays keep seven lanes busy.
        for d in (1..LANES as u64).map(|i| 5_000 * i) {
            t.push(d, d);
            t.push(d, d);
        }
        t.push(300, 0);
        let stale = t.push(300, 1);
        let lane = stale.lane().expect("second sighting");
        let fired: Vec<_> = (0..2).map(|_| t.pop().map(|(_, v)| v)).collect();
        assert_eq!(fired, [Some(0), Some(1)]);
        t.push(700, 2);
        for v in 3..6 {
            assert_eq!(t.push(700, v).lane(), Some(lane), "the emptied lane");
        }
        assert!(!t.cal.cancel(stale));
        assert_eq!(t.cal.cancelled_total(), 0);
        t.cal.fel.check_invariants();
        t.drain();
    }
}
