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
//! The oracle sits behind a lock, and whichever thread holds it classifies
//! the next request: the worker one at a time, the simulation thread —
//! when it reaches a bound whose answer is missing and the worker is not
//! mid-verdict — every request up to the one it needs. So a worker that
//! does not get a core of its own (the scheduler put both threads on one,
//! or another process holds the second) costs about what serving inline
//! does, instead of a context switch per verdict. The order is the
//! requests' either way, so the verdicts are the same.
//!
//! The hand-off is a bounded single-producer ring of [`SLOTS`] requests
//! and their answers, with one published counter per side. An idle worker
//! spins, yields, then parks, like the PDES epoch barrier. This module
//! holds the crate's only `unsafe` code: the ring's slots.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Mutex, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use elephant_des::{Next, SimTime, Simulator, StopReason};
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
    /// On a worker thread whatever the core count (on one core, an idle
    /// worker parks at once instead of spinning).
    Pipelined,
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
}

impl VerdictClocks {
    fn add(&mut self, other: VerdictClocks) {
        self.wait += other.wait;
        self.stolen += other.stolen;
        self.busy += other.busy;
    }
}

/// Requests in flight at most. One latency floor of simulated time holds
/// about five on the benchmark's hybrid workloads, so the simulation
/// thread almost never waits for room.
const SLOTS: usize = 64;

/// Spin iterations of a waiting thread, when the host has a core for
/// each; every [`YIELD_EVERY`]-th one yields instead, which hands the core
/// to the other thread at once when both share one. An idle worker parks
/// after them: a park/unpark round trip costs several verdicts.
const SPINS: u32 = 1 << 15;
const YIELD_EVERY: u32 = 32;

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

    /// `Some(spin)` when a chunk with an oracle to lend runs pipelined:
    /// whether its idle worker spins before parking (not on one core).
    fn pipelined(&mut self) -> Option<bool> {
        let available = || thread::available_parallelism().map_or(1, |n| n.get());
        let cores = *self.cores.get_or_insert_with(available);
        let pipelined = match self.serving {
            Serving::Auto => cores >= 2,
            Serving::Inline => false,
            Serving::Pipelined => true,
        };
        pipelined.then_some(cores >= 2)
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
        let Some(spin) = self.pipelined() else {
            sim.world_mut().return_oracle(oracle);
            return plain(sim);
        };
        let ring = Ring::new(oracle, spin, self.profile);
        let (dry, clocks) = thread::scope(|s| {
            let worker = s.spawn(|| ring.serve());
            let mut flight = Flight {
                ring: &ring,
                worker: worker.thread().clone(),
                requests: VecDeque::with_capacity(SLOTS),
                asked: 0,
                clocks: VerdictClocks::default(),
            };
            let closing = Closing(&ring.closed, worker.thread());
            let dry = flight.run(sim, horizon);
            drop(closing);
            // A worker that stopped answering panicked: carry its panic
            // out, to the caller or a supervisor's retry.
            flight.clocks.busy = worker.join().unwrap_or_else(|p| resume_unwind(p));
            let dry = dry.expect("the verdict worker returned without answering");
            (dry, flight.clocks)
        });
        let oracle = ring.oracle.into_inner();
        sim.world_mut()
            .return_oracle(oracle.expect("a panic while classifying ends the run"));
        if self.profile {
            self.clocks.get_or_insert_with(Default::default).add(clocks);
        }
        dry
    }
}

/// The simulation thread's side of one pipelined chunk.
struct Flight<'a> {
    ring: &'a Ring,
    worker: Thread,
    /// The requests in flight, oldest first.
    requests: VecDeque<VerdictRequest>,
    /// Requests put in the ring so far.
    asked: usize,
    clocks: VerdictClocks,
}

impl Flight<'_> {
    /// The chunk's run loop: events strictly before the oldest request's
    /// `now + floor` run freely; at that bound the request is answered
    /// first. Returns whether the event list ran dry, or that the worker
    /// stopped.
    fn run(&mut self, sim: &mut Simulator<Network>, horizon: SimTime) -> Result<bool, Stopped> {
        let floor = sim.world().config().oracle_latency_floor;
        loop {
            let limit = match self.requests.front() {
                None => horizon,
                // The last instant before the oldest delivery can fire.
                Some(req) => match (req.now + floor).as_nanos().checked_sub(1) {
                    Some(last) => horizon.min(SimTime::from_nanos(last)),
                    None => {
                        self.apply_oldest(sim)?;
                        continue;
                    }
                },
            };
            match sim.step_until(limit) {
                Next::Event(()) => {
                    while let Some(req) = sim.world_mut().take_request() {
                        if self.requests.len() == SLOTS {
                            self.apply_oldest(sim)?;
                        }
                        self.ask(req);
                    }
                }
                _ if !self.requests.is_empty() => self.apply_oldest(sim)?,
                // Nothing is left before the horizon: park the clock as
                // the plain loop does.
                _ => return Ok(sim.run_until(horizon) == StopReason::Exhausted),
            }
        }
    }

    fn ask(&mut self, req: VerdictRequest) {
        let i = self.asked;
        // SAFETY: slot `i % SLOTS` last held request `i - SLOTS`, which was
        // answered and applied (at most `SLOTS` are in flight), so no
        // thread reads it until the `asked` store below publishes this
        // write.
        unsafe { (*self.ring.asks[i % SLOTS].get()).write(req) };
        self.requests.push_back(req);
        self.asked = i + 1;
        self.ring.asked.store(self.asked, SeqCst);
        if self.ring.worker_parked.load(SeqCst) {
            self.worker.unpark();
        }
    }

    /// Applies the oldest request's answer: waits for the worker while it
    /// is mid-verdict, and classifies the requests up to this one itself
    /// when it is not.
    fn apply_oldest(&mut self, sim: &mut Simulator<Network>) -> Result<(), Stopped> {
        let ring = self.ring;
        let req = self.requests.pop_front().expect("a request in flight");
        let i = self.asked - self.requests.len() - 1;
        if ring.answered.load(SeqCst) <= i {
            let t0 = ring.profile.then(Instant::now);
            let mut stolen = Duration::ZERO;
            let mut k = 0;
            while ring.answered.load(SeqCst) <= i {
                match ring.oracle.try_lock() {
                    Ok(mut oracle) => {
                        let s0 = ring.profile.then(Instant::now);
                        while ring.answered.load(SeqCst) <= i {
                            ring.classify_next(&mut oracle);
                        }
                        stolen = s0.map_or(stolen, |s0| s0.elapsed());
                    }
                    Err(TryLockError::WouldBlock) => ring.pause(&mut k),
                    Err(TryLockError::Poisoned(_)) => return Err(Stopped),
                }
            }
            if let Some(t0) = t0 {
                self.clocks.stolen += stolen;
                self.clocks.wait += t0.elapsed() - stolen;
            }
        }
        // SAFETY: answer `i` was written before the `answered` store that
        // the load above observed, and is written again only for request
        // `i + SLOTS`, which cannot be asked before this returns.
        let verdict = unsafe { (*ring.answers[i % SLOTS].get()).assume_init_read() };
        let (net, sched) = sim.parts_mut();
        net.apply_verdict(&req, verdict, sched);
        Ok(())
    }
}

/// The worker panicked holding the oracle.
#[derive(Debug)]
struct Stopped;

/// One cache line (two, against the adjacent-line prefetcher) per
/// counter, so the two threads' stores do not contend.
#[repr(align(128))]
struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The ring between the simulation thread and the worker.
struct Ring {
    /// The lent oracle: its holder classifies request `answered` next.
    oracle: Mutex<LentOracle>,
    asks: [UnsafeCell<MaybeUninit<VerdictRequest>>; SLOTS],
    answers: [UnsafeCell<MaybeUninit<OracleVerdict>>; SLOTS],
    /// Requests published by the simulation thread.
    asked: Padded<AtomicUsize>,
    /// Answers published, each by the thread that held the oracle.
    answered: Padded<AtomicUsize>,
    /// The simulation thread asks no more.
    closed: AtomicBool,
    worker_parked: Padded<AtomicBool>,
    spin: bool,
    profile: bool,
}

// SAFETY: `oracle` (a `Mutex` of a `Send` value), the atomics and the two
// plain `bool`s are `Sync` already; the slots are the only fields that are
// not. They hold `Copy` data with no `Drop` (`VerdictRequest`,
// `OracleVerdict`), so no thread ever drops another's value. Request `i` is
// written by the simulation thread only, before the `asked` store that lets
// any thread read it; answer `i` is written under the oracle's lock, before
// the `answered` store after which only the simulation thread reads it. A
// slot is reused only `SLOTS` requests later, after its answer was applied
// (see `Flight::ask`).
unsafe impl Sync for Ring {}

impl Ring {
    fn new(oracle: LentOracle, spin: bool, profile: bool) -> Self {
        Ring {
            oracle: Mutex::new(oracle),
            asks: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            answers: std::array::from_fn(|_| UnsafeCell::new(MaybeUninit::uninit())),
            asked: Padded(AtomicUsize::new(0)),
            answered: Padded(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            worker_parked: Padded(AtomicBool::new(false)),
            spin,
            profile,
        }
    }

    /// Classifies the next unanswered request, which must have been
    /// asked. Called with the oracle's lock held, which orders the
    /// requests across both threads.
    fn classify_next(&self, oracle: &mut LentOracle) {
        let i = self.answered.load(SeqCst);
        assert!(
            i < self.asked.load(SeqCst),
            "classifying an unasked request"
        );
        // SAFETY: request `i` was published by the `asked` store the
        // assertion above observed, and its slot is rewritten only after
        // its answer is applied.
        let req = unsafe { (*self.asks[i % SLOTS].get()).assume_init_read() };
        let verdict = oracle.classify(&req);
        // SAFETY: the simulation thread read answer `i - SLOTS` before it
        // asked request `i`, and reads this one only after the `answered`
        // store below; the lock keeps the other thread out.
        unsafe { (*self.answers[i % SLOTS].get()).write(verdict) };
        self.answered.store(i + 1, SeqCst);
    }

    /// The worker: classifies asked requests one at a time, so that the
    /// simulation thread can take the oracle between any two, until the
    /// ring closes. Returns its busy time (zero unless profiled).
    fn serve(&self) -> Duration {
        let mut busy = Duration::ZERO;
        let mut k = 0;
        loop {
            let work = || self.answered.load(SeqCst) < self.asked.load(SeqCst);
            let closed = || self.closed.load(SeqCst);
            self.wait_until(|| work() || closed());
            if closed() {
                return busy;
            }
            match self.oracle.try_lock() {
                // The simulation thread may have answered it meanwhile.
                Ok(mut oracle) if work() => {
                    let t0 = self.profile.then(Instant::now);
                    self.classify_next(&mut oracle);
                    busy += t0.map_or(Duration::ZERO, |t0| t0.elapsed());
                }
                Ok(_) => {}
                Err(TryLockError::WouldBlock) => self.pause(&mut k),
                Err(TryLockError::Poisoned(_)) => return busy,
            }
        }
    }

    /// One step of a wait that expects the other thread to be running:
    /// a spin, or every [`YIELD_EVERY`]-th step (and on one core, every
    /// step) a yield.
    fn pause(&self, k: &mut u32) {
        *k = k.wrapping_add(1);
        if self.spin && !k.is_multiple_of(YIELD_EVERY) {
            std::hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }

    /// The idle worker's wait: pauses, then parks, until `ready()`.
    /// `worker_parked` is raised before the last look, and the simulation
    /// thread stores `asked` (or `closed`) before it reads the flag (all
    /// `SeqCst`), so either that look sees the store or the simulation
    /// thread sees the flag and unparks.
    fn wait_until(&self, ready: impl Fn() -> bool) {
        let mut k = 0;
        let spins = if self.spin { SPINS } else { 0 };
        for _ in 0..spins {
            if ready() {
                return;
            }
            self.pause(&mut k);
        }
        while !ready() {
            self.worker_parked.store(true, SeqCst);
            if !ready() {
                thread::park();
            }
            self.worker_parked.store(false, SeqCst);
        }
    }
}

/// Closes the ring and wakes the worker when dropped, so the worker
/// returns however the simulation thread stops, panics included.
struct Closing<'a>(&'a AtomicBool, &'a Thread);

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
        self.1.unpark();
    }
}
