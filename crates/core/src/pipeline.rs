//! The verdict pipeline: a sequential hybrid run's oracle inference on a
//! second core, bit-identical to serving every verdict inline.
//!
//! A verdict requested at `t` changes nothing before `t + floor`: the
//! network raises every oracle latency to its `oracle_latency_floor`, and
//! a crossing reserves its delivery's sequence number when it is made
//! ([`Network::lend_oracle`]). So while a worker thread classifies the
//! requests in the order they were made, the simulation thread executes
//! every event strictly before the oldest unanswered request's
//! `now + floor`. At that bound it applies the answer and goes on; at the
//! end of a chunk it applies every answer left, so samplers, checkpoints
//! and the oracle's own state see exactly what an inline run leaves.
//! Answers are applied only there (or when the ring is full), never as
//! they arrive, so even the event list's size at each step is a function
//! of the simulation alone, not of thread timing.
//!
//! The module is two parts. The *protocol* holds no thread, atomic or
//! `unsafe`: [`Flight`] is the simulation thread's side (the requests in
//! flight, the bound, when the oldest answer is applied) and [`Desk`] the
//! oracle's (who classifies which requests, in request order). The
//! *transport*, [`Ring`], runs the protocol on two threads: a bounded
//! single-producer ring of [`SLOTS`] requests and their answers with one
//! published counter per side, the desk behind a lock, and the worker. It
//! holds the crate's only `unsafe` code: the ring's slots. Whichever
//! thread holds the desk classifies the next request: the worker one at a
//! time, the simulation thread — when it reaches a bound whose answer is
//! missing and the worker is not mid-verdict — every request up to the one
//! it needs. So a worker that does not get a core of its own costs about
//! what serving inline does, instead of a context switch per verdict. Both
//! threads wait through the [`Waiter`] the PDES epoch barrier uses. A
//! test-only twin drives the same protocol on one thread under a seeded
//! script of moves.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{LockResult, Mutex, MutexGuard, TryLockError};
use std::thread;
use std::time::{Duration, Instant};

use elephant_des::{Next, SimDuration, SimTime, Simulator, StopReason, Waiter};
use elephant_net::{LentOracle, Network, OracleVerdict, VerdictRequest};

/// How a sequential hybrid run serves its oracle verdicts. Every choice
/// simulates the same run, bit for bit; only wall time differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Serving {
    /// On a worker thread when the process may use two cores or more,
    /// inline otherwise: on one core the worker would only take turns
    /// with the simulation.
    #[default]
    Auto,
    /// On the simulation thread, as each crossing is handled.
    Inline,
    /// On a worker thread whatever the core count (on one core, a waiting
    /// thread parks at once instead of spinning).
    Pipelined,
    /// The protocol on one thread, its moves drawn from this seed.
    #[cfg(test)]
    Scripted(u64),
}

/// Where a pipelined run's verdict time went, read from the run's own
/// clocks: recorded when the run is profiled.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerdictClocks {
    /// Wall time the simulation thread waited at a bound for the worker
    /// to finish a verdict.
    pub wait: Duration,
    /// Wall time the simulation thread spent classifying requests the
    /// worker had not reached.
    pub stolen: Duration,
    /// Wall time the worker spent classifying.
    pub busy: Duration,
    /// The hand-off paths a scripted run took ([`twin::STEAL`] and on).
    #[cfg(test)]
    pub(crate) paths: u8,
}

impl VerdictClocks {
    fn add(&mut self, other: VerdictClocks) {
        self.wait += other.wait;
        self.stolen += other.stolen;
        self.busy += other.busy;
        #[cfg(test)]
        {
            self.paths |= other.paths;
        }
    }
}

/// Requests in flight at most. One latency floor of simulated time holds
/// about five on the benchmark's hybrid workloads, so the simulation
/// thread almost never waits for room.
const SLOTS: usize = 64;

/// A sequential run's verdict serving, across its `run_until` chunks.
pub(crate) struct VerdictServer {
    serving: Serving,
    /// The cores the process may use, read on the first chunk with an
    /// oracle to lend (reading it walks cgroup files, which a
    /// full-fidelity run need not pay for).
    cores: Option<usize>,
    /// Whether to keep [`VerdictClocks`].
    profile: bool,
    /// Some once a chunk ran pipelined and profiled.
    clocks: Option<VerdictClocks>,
}

impl VerdictServer {
    pub(crate) fn new(serving: Serving, profile: bool) -> Self {
        VerdictServer {
            serving,
            cores: None,
            profile,
            clocks: None,
        }
    }

    /// The run's verdict clocks: `None` unless it was profiled and served
    /// verdicts on a worker.
    pub(crate) fn clocks(&self) -> Option<VerdictClocks> {
        self.clocks
    }

    /// Runs `sim` until its event list drains or its clock passes
    /// `horizon`, as [`Simulator::run_until`] does, and returns whether
    /// the list ran dry. A run with no oracle to lend (full fidelity) or
    /// served inline is exactly `run_until`.
    pub(crate) fn run_until(&mut self, sim: &mut Simulator<Network>, horizon: SimTime) -> bool {
        let plain = |sim: &mut Simulator<Network>| sim.run_until(horizon) == StopReason::Exhausted;
        let Some(oracle) = sim.world_mut().lend_oracle() else {
            return plain(sim);
        };
        let available = || thread::available_parallelism().map_or(1, |n| n.get());
        let cores = *self.cores.get_or_insert_with(available);
        let (dry, clocks) = match (self.serving, cores >= 2) {
            #[cfg(test)]
            (Serving::Scripted(seed), _) => twin::run(sim, horizon, oracle, seed),
            (Serving::Pipelined, _) | (Serving::Auto, true) => {
                Ring::run(oracle, cores, self.profile, sim, horizon)
            }
            (Serving::Auto | Serving::Inline, _) => {
                sim.world_mut().return_oracle(oracle);
                return plain(sim);
            }
        };
        if self.profile {
            self.clocks.get_or_insert_with(Default::default).add(clocks);
        }
        dry
    }
}

// ---------------------------------------------------------------------------
// The protocol: no threads, atomics or `unsafe`.

/// Why the simulation thread applies the oldest answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Apply {
    /// A new request needs the ring's room.
    Full,
    /// The simulation reached the oldest request's bound.
    Bound,
    /// Nothing is left to run before the chunk's horizon.
    Drain,
}

/// How the protocol's requests reach the [`Desk`] and answers come back.
trait Transport {
    /// Hands request `i` over; requests `0..i` were handed over before.
    fn ask(&mut self, i: usize, req: VerdictRequest);
    /// Answer `i`, answers `0..i` taken before: waits for it, or has the
    /// desk classify up to it.
    fn answer(&mut self, i: usize, why: Apply) -> OracleVerdict;
}

/// The simulation thread's side of one chunk: the requests in flight and
/// the bound they set.
struct Flight {
    floor: SimDuration,
    horizon: SimTime,
    /// Requests in flight at most.
    capacity: usize,
    /// The requests in flight, oldest first.
    requests: VecDeque<VerdictRequest>,
    /// Requests asked so far.
    asked: usize,
}

impl Flight {
    fn new(sim: &Simulator<Network>, horizon: SimTime, capacity: usize) -> Self {
        Flight {
            floor: sim.world().config().oracle_latency_floor,
            horizon,
            capacity,
            requests: VecDeque::with_capacity(capacity),
            asked: 0,
        }
    }

    /// The index of the oldest request in flight.
    fn oldest(&self) -> Option<usize> {
        (!self.requests.is_empty()).then(|| self.asked - self.requests.len())
    }

    /// The last instant the simulation may reach before the oldest answer
    /// is applied: its `now + floor − 1`, clipped to the horizon (the
    /// horizon with none in flight). `None` when that is before time zero.
    fn bound(&self) -> Option<SimTime> {
        let Some(req) = self.requests.front() else {
            return Some(self.horizon);
        };
        let last = (req.now + self.floor).as_nanos().checked_sub(1)?;
        Some(self.horizon.min(SimTime::from_nanos(last)))
    }

    /// One move of the simulation thread: executes the next event before
    /// the bound and asks for the verdicts it requested, or applies the
    /// oldest answer. `Some(dry)` once the chunk is over: whether the
    /// event list ran dry.
    fn step(&mut self, sim: &mut Simulator<Network>, t: &mut impl Transport) -> Option<bool> {
        let Some(limit) = self.bound() else {
            self.apply_oldest(sim, t, Apply::Bound);
            return None;
        };
        match sim.step_until(limit) {
            Next::Event(()) => {
                while let Some(req) = sim.world_mut().take_request() {
                    if self.requests.len() == self.capacity {
                        self.apply_oldest(sim, t, Apply::Full);
                    }
                    t.ask(self.asked, req);
                    self.requests.push_back(req);
                    self.asked += 1;
                }
            }
            // Nothing is left before the horizon: park the clock as the
            // plain loop does.
            _ if self.requests.is_empty() => {
                return Some(sim.run_until(self.horizon) == StopReason::Exhausted)
            }
            _ if limit < self.horizon => self.apply_oldest(sim, t, Apply::Bound),
            _ => self.apply_oldest(sim, t, Apply::Drain),
        }
        None
    }

    fn apply_oldest(&mut self, sim: &mut Simulator<Network>, t: &mut impl Transport, why: Apply) {
        let i = self.oldest().expect("a request in flight");
        let req = self.requests.pop_front().expect("a request in flight");
        let verdict = t.answer(i, why);
        let (net, sched) = sim.parts_mut();
        net.apply_verdict(&req, verdict, sched);
    }
}

/// The oracle's side: whoever holds the desk classifies request
/// `answered` next, so the requests are classified in order whichever
/// thread classifies them.
struct Desk {
    oracle: LentOracle,
    answered: usize,
}

impl Desk {
    /// Classifies requests `answered..=i`, reading each with `ask` and
    /// handing its verdict to `put`: the one classify loop, for the
    /// worker's single request and for a steal up to the one needed.
    fn classify_through(
        &mut self,
        i: usize,
        ask: impl Fn(usize) -> VerdictRequest,
        mut put: impl FnMut(usize, OracleVerdict),
    ) {
        while self.answered <= i {
            let k = self.answered;
            put(k, self.oracle.classify(&ask(k)));
            self.answered = k + 1;
        }
    }
}

// ---------------------------------------------------------------------------
// The transport: the ring, its atomics and the worker thread.

/// One cache line (two, against the adjacent-line prefetcher) per
/// counter, so the two threads' stores do not contend.
#[repr(align(128))]
struct Padded<T>(T);

/// The ring between the simulation thread and the worker.
struct Ring {
    desk: Mutex<Desk>,
    asks: [UnsafeCell<MaybeUninit<VerdictRequest>>; SLOTS],
    answers: [UnsafeCell<MaybeUninit<OracleVerdict>>; SLOTS],
    /// Requests published by the simulation thread.
    asked: Padded<AtomicUsize>,
    /// Answers published, each by the thread that held the desk.
    answered: Padded<AtomicUsize>,
    /// The simulation thread asks no more.
    closed: AtomicBool,
    /// Both threads read its sleeper count at every hand-off.
    waiter: Padded<Waiter>,
    profile: bool,
}

// SAFETY: `desk` (a `Mutex` of a `Send` value), the atomics, the waiter and
// the plain `bool` are `Sync` already; the slots are the only fields that
// are not. They hold `Copy` data with no `Drop` (`VerdictRequest`,
// `OracleVerdict`), so no thread ever drops another's value. Request `i` is
// written by the simulation thread only, before the `asked` store that lets
// any thread read it; answer `i` is written under the desk's lock, before
// the `answered` store after which only the simulation thread reads it. A
// slot is reused only `SLOTS` requests later, after its answer was read
// (see `Sender::ask`).
unsafe impl Sync for Ring {}

impl Ring {
    /// Runs one chunk with the protocol on this thread and a worker
    /// classifying beside it, the idle one spinning only when the host
    /// has the two `cores`; returns whether the event list ran dry and
    /// the chunk's clocks.
    fn run(
        oracle: LentOracle,
        cores: usize,
        profile: bool,
        sim: &mut Simulator<Network>,
        horizon: SimTime,
    ) -> (bool, VerdictClocks) {
        let ring = Ring {
            desk: Mutex::new(Desk {
                oracle,
                answered: 0,
            }),
            asks: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            answers: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            asked: Padded(AtomicUsize::new(0)),
            answered: Padded(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            waiter: Padded(Waiter::new(2, cores)),
            profile,
        };
        let mut sender = Sender {
            ring: &ring,
            clocks: VerdictClocks::default(),
        };
        let mut flight = Flight::new(sim, horizon, SLOTS);
        let dry = thread::scope(|s| {
            let worker = s.spawn(|| {
                // A worker that panics wakes a simulation thread waiting
                // on it, which then finds the desk poisoned.
                let busy = catch_unwind(AssertUnwindSafe(|| ring.serve()));
                ring.waiter.0.notify();
                busy.unwrap_or_else(|p| resume_unwind(p))
            });
            let dry = catch_unwind(AssertUnwindSafe(|| loop {
                if let Some(dry) = flight.step(sim, &mut sender) {
                    break dry;
                }
            }));
            // However this thread stopped, close the ring so that the
            // worker returns. Then carry a panic out, to the caller or a
            // supervisor's retry: the worker's first, as this thread
            // stops on a desk the worker's panic poisoned.
            ring.closed.store(true, SeqCst);
            ring.waiter.0.notify();
            sender.clocks.busy = worker.join().unwrap_or_else(|p| resume_unwind(p));
            dry.unwrap_or_else(|p| resume_unwind(p))
        });
        let clocks = sender.clocks;
        let desk = ring.desk.into_inner();
        let desk = desk.expect("a panic while classifying ends the run");
        sim.world_mut().return_oracle(desk.oracle);
        (dry, clocks)
    }

    /// Waits until `done()`, or until the desk is free while a request
    /// waits for it: `None` when done, else the desk (`Err` once a panic
    /// while classifying poisoned it).
    fn take_desk(&self, done: impl Fn() -> bool) -> Option<LockResult<MutexGuard<'_, Desk>>> {
        let mut desk = None;
        self.waiter.0.wait_until(|| {
            done()
                || self.answered.0.load(SeqCst) < self.asked.0.load(SeqCst) && {
                    desk = match self.desk.try_lock() {
                        Ok(desk) => Some(Ok(desk)),
                        Err(TryLockError::WouldBlock) => None,
                        Err(TryLockError::Poisoned(e)) => Some(Err(e)),
                    };
                    desk.is_some()
                }
        });
        desk
    }

    /// Classifies through request `i` at `desk`, publishing each answer,
    /// then frees the desk and wakes the other thread.
    fn classify_through(&self, mut desk: MutexGuard<'_, Desk>, i: usize) {
        let ask = |k: usize| {
            assert!(
                k < self.asked.0.load(SeqCst),
                "classifying an unasked request"
            );
            // SAFETY: request `k` was published by the `asked` store the
            // assertion observed, and its slot is rewritten only after its
            // answer is read.
            unsafe { (*self.asks[k % SLOTS].get()).assume_init_read() }
        };
        desk.classify_through(i, ask, |k, verdict| {
            // SAFETY: the simulation thread read answer `k - SLOTS` before
            // it asked request `k`, and reads this one only after the
            // `answered` store below; the desk's lock keeps the other
            // thread out.
            unsafe { (*self.answers[k % SLOTS].get()).write(verdict) };
            self.answered.0.store(k + 1, SeqCst);
        });
        drop(desk);
        self.waiter.0.notify();
    }

    /// The worker: classifies asked requests one at a time, so that the
    /// simulation thread can take the desk between any two, until the
    /// ring closes. Returns its busy time (zero unless profiled).
    fn serve(&self) -> Duration {
        let mut busy = Duration::ZERO;
        while let Some(Ok(desk)) = self.take_desk(|| self.closed.load(SeqCst)) {
            // The simulation thread may have classified it meanwhile.
            let i = desk.answered;
            if i < self.asked.0.load(SeqCst) {
                let t0 = self.profile.then(Instant::now);
                self.classify_through(desk, i);
                busy += t0.map_or(Duration::ZERO, |t0| t0.elapsed());
            }
        }
        busy
    }
}

/// The simulation thread's end of the ring. Its [`Flight`] keeps at most
/// [`SLOTS`] requests in flight and reads their answers in order.
struct Sender<'a> {
    ring: &'a Ring,
    clocks: VerdictClocks,
}

impl Transport for Sender<'_> {
    fn ask(&mut self, i: usize, req: VerdictRequest) {
        // SAFETY: slot `i % SLOTS` last held request `i - SLOTS`, whose
        // answer was read: `Flight::step` asks only with fewer than
        // `SLOTS` requests in flight, and applies (reads) answers oldest
        // first. So no thread reads the slot until the `asked` store below
        // publishes this write.
        unsafe { (*self.ring.asks[i % SLOTS].get()).write(req) };
        self.ring.asked.0.store(i + 1, SeqCst);
        self.ring.waiter.0.notify();
    }

    /// Waits while the worker is mid-verdict, and classifies up to `i` at
    /// the desk when it is free.
    fn answer(&mut self, i: usize, _: Apply) -> OracleVerdict {
        let ring = self.ring;
        let answered = || ring.answered.0.load(SeqCst) > i;
        if !answered() {
            let t0 = ring.profile.then(Instant::now);
            let mut stolen = Duration::ZERO;
            if let Some(desk) = ring.take_desk(answered) {
                let s0 = ring.profile.then(Instant::now);
                ring.classify_through(desk.expect("the verdict worker panicked"), i);
                stolen = s0.map_or(stolen, |s0| s0.elapsed());
            }
            if let Some(t0) = t0 {
                self.clocks.stolen += stolen;
                self.clocks.wait += t0.elapsed() - stolen;
            }
            assert!(answered(), "answer {i} is missing");
        }
        // SAFETY: answer `i` was written before the `answered` store that
        // the assertion (or the load before it) observed, and is written
        // again only for request `i + SLOTS`, which `Flight::step` does
        // not ask before this answer, its oldest, is read.
        unsafe { (*ring.answers[i % SLOTS].get()).assume_init_read() }
    }
}

// ---------------------------------------------------------------------------
// The one-thread twin.

#[cfg(test)]
mod twin {
    //! The protocol on one thread, under a script: at each step a seeded
    //! draw picks whether the worker classifies one request, the
    //! simulation thread steals up to the request it needs, or the
    //! simulation makes its next move. The slots are checked as the
    //! ring's `unsafe` assumes them: neither a request nor an answer is
    //! overwritten before the answer is read.

    use super::*;
    use elephant_des::SmallRng;

    /// The hand-off paths a scripted run took, as bits of
    /// [`VerdictClocks::paths`]: the simulation thread classified a
    /// request the worker had not; it waited at a bound while the worker
    /// classified; it applied an answer to make room in a full ring; it
    /// applied one at the end of a chunk.
    pub(crate) const STEAL: u8 = 1;
    pub(crate) const WAIT: u8 = 2;
    pub(crate) const FULL: u8 = 4;
    pub(crate) const DRAIN: u8 = 8;

    enum Move {
        Worker,
        Steal,
        Simulate,
    }

    struct Twin {
        desk: Desk,
        asks: Vec<Option<VerdictRequest>>,
        answers: Vec<Option<OracleVerdict>>,
        asked: usize,
        script: SmallRng,
        /// A draw below 16 is the worker's move under `odds[0]`, a steal
        /// under `odds[1]`, and the simulation's otherwise.
        odds: [u64; 2],
        paths: u8,
    }

    impl Twin {
        fn draw(&mut self) -> Move {
            match self.script.below(16) {
                k if k < self.odds[0] => Move::Worker,
                k if k < self.odds[1] => Move::Steal,
                _ => Move::Simulate,
            }
        }

        fn classify_through(&mut self, i: usize) {
            let cap = self.asks.len();
            let (asks, answers) = (&self.asks, &mut self.answers);
            let ask = |k: usize| asks[k % cap].expect("classifying an unasked request");
            self.desk.classify_through(i, ask, |k, verdict| {
                let unread = answers[k % cap].replace(verdict);
                assert!(unread.is_none(), "answer {k} overwrote an unread one");
            });
        }

        /// The worker's move: the next request, if one is asked.
        fn worker(&mut self) {
            let next = self.desk.answered;
            if next < self.asked {
                self.classify_through(next);
                assert_eq!(self.desk.answered, next + 1, "the worker classifies one");
            }
        }

        fn steal(&mut self, i: usize) {
            if self.desk.answered <= i {
                self.paths |= STEAL;
            }
            self.classify_through(i);
            assert!(self.desk.answered > i, "a steal stopped short of {i}");
        }
    }

    impl Transport for Twin {
        fn ask(&mut self, i: usize, req: VerdictRequest) {
            let cap = self.asks.len();
            let in_flight = self.asks[i % cap].replace(req);
            assert!(in_flight.is_none(), "request {i} overwrote one in flight");
            self.asked = i + 1;
        }

        fn answer(&mut self, i: usize, why: Apply) -> OracleVerdict {
            while self.desk.answered <= i {
                match self.draw() {
                    Move::Steal => self.steal(i),
                    // The simulation thread cannot move: it waits.
                    _ => {
                        self.worker();
                        self.paths |= if why == Apply::Bound { WAIT } else { 0 };
                    }
                }
            }
            self.paths |= match why {
                Apply::Full => FULL,
                Apply::Bound => 0,
                Apply::Drain => DRAIN,
            };
            let cap = self.asks.len();
            self.asks[i % cap] = None;
            self.answers[i % cap].take().expect("answer read twice")
        }
    }

    /// Runs one chunk of the protocol under the script `seed`, redrawn at
    /// each chunk's start: the ring's capacity (down to one request), the
    /// odds of each move, then the moves.
    pub(super) fn run(
        sim: &mut Simulator<Network>,
        horizon: SimTime,
        oracle: LentOracle,
        seed: u64,
    ) -> (bool, VerdictClocks) {
        let mut script = SmallRng::seed_from_u64(seed ^ sim.now().as_nanos());
        let capacity = [1, 2, 3, SLOTS][script.below(4) as usize];
        let worker = 1 + script.below(7);
        let mut twin = Twin {
            desk: Desk {
                oracle,
                answered: 0,
            },
            asks: vec![None; capacity],
            answers: vec![None; capacity],
            asked: 0,
            odds: [worker, worker + script.below(4)],
            script,
            paths: 0,
        };
        let mut flight = Flight::new(sim, horizon, capacity);
        let dry = loop {
            match twin.draw() {
                Move::Worker => twin.worker(),
                Move::Steal => flight.oldest().into_iter().for_each(|i| twin.steal(i)),
                Move::Simulate => {
                    if let Some(dry) = flight.step(sim, &mut twin) {
                        break dry;
                    }
                }
            }
        };
        sim.world_mut().return_oracle(twin.desk.oracle);
        let paths = twin.paths;
        (
            dry,
            VerdictClocks {
                paths,
                ..VerdictClocks::default()
            },
        )
    }

    mod tests {
        use super::*;
        use crate::learned::tests::tiny_model;
        use crate::{execute, guard_primary, oracle_stack, Fidelity, ModelMeta, Observe, RunPlan};
        use elephant_net::{ClosParams, ClusterOracle, FixedLatencyOracle, GuardConfig};
        use elephant_net::{NetConfig, RttScope, TraceLog};
        use elephant_trace::{filter_touching_cluster, generate, WorkloadConfig};
        use proptest::prelude::*;

        /// What `tests/verdict_pipeline.rs` compares, as one string: the
        /// network's statistics (all that the fingerprint hashes), the
        /// event count, the oracle's, guard's and cache's counters and the
        /// trip log, the samples and the trace; and the paths a scripted
        /// run took. Stack 0 delivers every verdict exactly one floor
        /// after its request, the most same-instant ties; stacks 1 and 2
        /// are the learned stack without and with its cache.
        fn run(stack: u64, seed: u64, serving: Serving) -> (String, u8) {
            let params = ClosParams::paper_cluster(2);
            let horizon = SimTime::from_millis(6);
            let all = generate(&params, &WorkloadConfig::paper_default(horizon, seed));
            let flows = filter_touching_cluster(&all, 0);
            let (guard, cache) = (GuardConfig::default(), (stack == 2).then_some(4096));
            let cfg = NetConfig {
                rtt_scope: RttScope::Cluster(0),
                ..NetConfig::default()
            };
            let floor = FixedLatencyOracle(cfg.oracle_latency_floor);
            let stack = match stack {
                0 => guard_primary(Box::new(floor), &ModelMeta::default(), &guard),
                _ => oracle_stack(tiny_model(), params, seed, None, cache, Some(&guard)),
            };
            let mut oracle = Some(stack.oracle);
            let mut factory = |_: Option<usize>| -> Box<dyn ClusterOracle + Send> {
                oracle.take().expect("one sequential oracle")
            };
            let fidelity = Fidelity::Hybrid {
                full_cluster: 0,
                oracles: &mut factory,
            };
            let mut plan = RunPlan::new(params, cfg, &flows, horizon, fidelity);
            plan.serving = serving;
            plan.observe = Observe {
                trace: Some(TraceLog::strided(4_000, 40_000)),
                sample_every: Some(SimDuration::from_micros(250)),
                timeline: false,
                profile: true,
            };
            let out = execute(plan).expect("the run completes");
            let (net, guard) = (&out.nets[0], stack.guard.expect("guarded"));
            let seen = (
                (&net.stats, out.meta.events),
                net.oracle_stats()
                    .map(|o| (o.classified, o.drops, o.per_state)),
                (guard.snapshot(), guard.trip_events()),
                stack.cache.map(|c| c.snapshot()),
                (
                    &out.samples,
                    net.trace().map(|t| (t.entries(), t.observed())),
                ),
            );
            (
                format!("{seen:?}"),
                out.meta.verdicts.map_or(0, |c| c.paths),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            /// Every script serves like inline, and a batch of scripts
            /// reaches every hand-off path: a steal, a wait at a bound, a
            /// full ring and a drain at a chunk's end.
            #[test]
            fn every_script_serves_like_inline(scripts in proptest::collection::vec(any::<u64>(), 8)) {
                let mut paths = 0;
                for (k, &script) in (0..).zip(&scripts) {
                    let (stack, seed) = (k % 3, script % 8);
                    let (inline, _) = run(stack, seed, Serving::Inline);
                    let (scripted, taken) = run(stack, seed, Serving::Scripted(script));
                    prop_assert_eq!(scripted, inline, "stack {} script {:#x}", stack, script);
                    paths |= taken;
                }
                prop_assert_eq!(paths, STEAL | WAIT | FULL | DRAIN);
            }
        }
    }
}
