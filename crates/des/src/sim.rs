//! The sequential simulation engine.
//!
//! A simulation is a [`World`] (all model state plus an event-handling
//! function) driven by a [`Simulator`], which owns the world and its
//! [`Scheduler`] and runs the classic DES loop: pop the earliest event,
//! advance the clock, dispatch to the world, repeat.

use crate::sched::{Next, Scheduler};
use crate::time::SimTime;

/// A simulation model: the state of every simulated component plus the
/// event dispatch function.
///
/// Implementations define a closed event enum as `Self::Event`; the engine
/// never inspects events, it only orders them.
pub trait World {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event at the scheduler's current time. The handler may
    /// schedule any number of future events.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Why a call to [`Simulator::run`] (or a relative) returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The future event list drained completely.
    Exhausted,
    /// The configured time horizon was reached.
    HorizonReached,
    /// The configured event budget was spent.
    BudgetSpent,
}

/// High-water marks of the future event list. Sampled only by a profiled
/// simulator ([`Simulator::set_profile`]) — all zero otherwise — so they
/// cost a run that did not ask for them one test of a plain field per
/// event.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FelPeaks {
    /// Most events pending at the moment one popped (itself included).
    pub depth: u64,
    /// Most resident bytes of the FEL (see [`crate::Scheduler::fel_bytes`]),
    /// read every 4,096 events and when a run loop returns.
    pub bytes: u64,
}

/// `fel_bytes` walks the queue's bucket array, so both engines read it
/// once per this many executed events (and when a run returns) rather than
/// per event or per epoch.
pub(crate) const FEL_BYTES_EVERY: u64 = 4096;

/// Drives a [`World`] through simulated time.
#[derive(Debug)]
pub struct Simulator<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    peaks: FelPeaks,
    /// Events popped since `peaks.bytes` was last read.
    since_bytes: u64,
    /// Whether `peaks` is sampled.
    profile: bool,
}

impl<W: World> Simulator<W> {
    /// Wraps a world with a fresh scheduler at time zero.
    pub fn new(world: W) -> Self {
        Simulator {
            world,
            sched: Scheduler::new(),
            peaks: FelPeaks::default(),
            since_bytes: 0,
            profile: false,
        }
    }

    /// Samples the [`FelPeaks`] from now on (`true`), or stops (off by
    /// default).
    pub fn set_profile(&mut self, on: bool) {
        self.profile = on;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the model (e.g. to read out statistics or inject
    /// configuration between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Mutable access to the scheduler, for seeding initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Immutable access to the scheduler (event counters etc.).
    pub fn scheduler(&self) -> &Scheduler<W::Event> {
        &self.sched
    }

    /// The model and the scheduler at once, for a world that seeds its own
    /// initial events.
    pub fn parts_mut(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.sched)
    }

    /// The FEL high-water marks observed so far (zero unless profiled).
    pub fn fel_peaks(&self) -> FelPeaks {
        self.peaks
    }

    /// Updates [`FelPeaks`]: called with `popped` right after an event
    /// left the queue, and without when a run loop returns.
    #[inline]
    fn sample_fel(&mut self, popped: bool) {
        if !self.profile {
            return;
        }
        if popped {
            let depth = self.sched.pending() as u64 + 1;
            self.peaks.depth = self.peaks.depth.max(depth);
            self.since_bytes += 1;
            if self.since_bytes < FEL_BYTES_EVERY {
                return;
            }
        }
        self.since_bytes = 0;
        self.peaks.bytes = self.peaks.bytes.max(self.sched.fel_bytes() as u64);
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((_, ev)) = self.sched.pop() else {
            return false;
        };
        self.sample_fel(true);
        self.world.handle(ev, &mut self.sched);
        true
    }

    /// Runs until the event list drains.
    pub fn run(&mut self) -> StopReason {
        while self.step() {}
        self.sample_fel(false);
        StopReason::Exhausted
    }

    /// Runs until the event list drains or the clock passes `horizon`.
    ///
    /// Events stamped exactly at `horizon` still execute; the first event
    /// strictly after it stays queued and the clock is left parked at
    /// `horizon` so a subsequent call can resume seamlessly.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        let reason = loop {
            match self.step_until(horizon) {
                Next::Empty => break StopReason::Exhausted,
                Next::Later(_) => {
                    self.sched.advance_clock(horizon.max(self.sched.now()));
                    break StopReason::HorizonReached;
                }
                Next::Event(()) => {}
            }
        };
        self.sample_fel(false);
        reason
    }

    /// Executes the earliest event if it is due at or before `limit`;
    /// otherwise says when it is due, or that none is left, and leaves the
    /// clock alone. The step of a run loop whose limit moves from event to
    /// event; [`Simulator::run_until`] is the loop with a fixed one.
    #[inline]
    pub fn step_until(&mut self, limit: SimTime) -> Next<()> {
        match self.sched.pop_until(limit) {
            Next::Event((_, ev)) => {
                self.sample_fel(true);
                self.world.handle(ev, &mut self.sched);
                Next::Event(())
            }
            Next::Later(t) => Next::Later(t),
            Next::Empty => Next::Empty,
        }
    }

    /// Runs until the event list drains or `budget` events have executed,
    /// whichever comes first. Useful for watchdogs around possibly-livelocked
    /// models.
    pub fn run_events(&mut self, budget: u64) -> StopReason {
        let mut reason = StopReason::BudgetSpent;
        for _ in 0..budget {
            if !self.step() {
                reason = StopReason::Exhausted;
                break;
            }
        }
        self.sample_fel(false);
        reason
    }

    /// Consumes the simulator and returns the world, e.g. to extract final
    /// statistics.
    pub fn into_world(self) -> W {
        self.world
    }
}

impl<W: World + Clone> Simulator<W>
where
    W::Event: Clone,
{
    /// Deep-copies the world and scheduler into a resumable snapshot.
    ///
    /// Call between `run_until` chunks (the engine is parked there);
    /// restoring the snapshot and running on is bit-identical to never
    /// having stopped. Counts kept in the world or the scheduler rewind
    /// with them; the [`FelPeaks`] high-water marks and whatever the
    /// world shares across its clones are outside the snapshot.
    pub fn checkpoint(&self) -> crate::checkpoint::SimCheckpoint<W> {
        crate::checkpoint::SimCheckpoint {
            world: self.world.clone(),
            sched: self.sched.clone(),
        }
    }

    /// Rewinds the simulator to a previously captured snapshot.
    pub fn restore(&mut self, checkpoint: &crate::checkpoint::SimCheckpoint<W>) {
        self.world = checkpoint.world.clone();
        self.sched = checkpoint.sched.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A world that counts down: each Tick schedules the next until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    struct Tick;

    impl World for Countdown {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, sched: &mut Scheduler<Tick>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(SimDuration::from_nanos(10), Tick);
            }
        }
    }

    fn countdown(n: u32) -> Simulator<Countdown> {
        let mut sim = Simulator::new(Countdown {
            remaining: n,
            fired_at: vec![],
        });
        sim.scheduler_mut().schedule_at(SimTime::ZERO, Tick);
        sim
    }

    #[test]
    fn run_drains_queue() {
        let mut sim = countdown(4);
        assert_eq!(sim.run(), StopReason::Exhausted);
        assert_eq!(sim.world().fired_at.len(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(40));
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let mut sim = countdown(100);
        let r = sim.run_until(SimTime::from_nanos(30));
        assert_eq!(r, StopReason::HorizonReached);
        // Ticks at 0,10,20,30 have fired; the one at 40 is pending.
        assert_eq!(sim.world().fired_at.len(), 4);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
        // Resuming picks up where we left off.
        let r = sim.run_until(SimTime::from_nanos(50));
        assert_eq!(r, StopReason::HorizonReached);
        assert_eq!(sim.world().fired_at.len(), 6);
    }

    /// Parked at a horizon that falls between events (the next one is
    /// strictly later): nothing is lost or repeated, a second call to the
    /// same horizon executes nothing, and the chunked run equals an
    /// uninterrupted one.
    #[test]
    fn run_until_parked_before_a_later_event_resumes_exactly() {
        let mut sim = countdown(100);
        assert_eq!(
            sim.run_until(SimTime::from_nanos(35)),
            StopReason::HorizonReached
        );
        assert_eq!(sim.world().fired_at.len(), 4);
        assert_eq!(sim.now(), SimTime::from_nanos(35));
        assert_eq!(sim.scheduler().pending(), 1);
        assert_eq!(
            sim.run_until(SimTime::from_nanos(35)),
            StopReason::HorizonReached
        );
        assert_eq!(sim.world().fired_at.len(), 4);
        assert_eq!(
            sim.scheduler_mut().peek_time(),
            Some(SimTime::from_nanos(40))
        );
        sim.run_until(SimTime::from_nanos(60));
        let mut whole = countdown(100);
        whole.run_until(SimTime::from_nanos(60));
        assert_eq!(sim.world().fired_at, whole.world().fired_at);
        assert_eq!(sim.world().fired_at.len(), 7);
        assert_eq!(sim.now(), whole.now());
    }

    #[test]
    fn run_until_reports_exhaustion() {
        let mut sim = countdown(2);
        assert_eq!(sim.run_until(SimTime::from_secs(1)), StopReason::Exhausted);
    }

    #[test]
    fn run_events_respects_budget() {
        let mut sim = countdown(100);
        assert_eq!(sim.run_events(10), StopReason::BudgetSpent);
        assert_eq!(sim.world().fired_at.len(), 10);
        assert_eq!(sim.scheduler().executed_total(), 10);
    }

    #[test]
    fn empty_horizon_run_parks_clock() {
        let mut sim = Simulator::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        assert_eq!(sim.run_until(SimTime::from_secs(1)), StopReason::Exhausted);
    }
}
