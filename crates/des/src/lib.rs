//! # elephant-des — discrete-event simulation kernel
//!
//! The foundation of the `elephant` workspace: a deterministic,
//! integer-time discrete-event simulation kernel with a sequential engine,
//! a conservative parallel (PDES) engine, named random-number streams, and
//! the measurement primitives every experiment shares.
//!
//! This crate knows nothing about networks. The packet-level simulator
//! (`elephant-net`) supplies a [`World`] implementation whose event alphabet
//! is packets, timers, and flow arrivals; this crate merely orders and
//! dispatches them.
//!
//! ## Quick tour
//!
//! ```
//! use elephant_des::{Scheduler, SimDuration, SimTime, Simulator, World};
//!
//! /// An M/D/1-ish toy: a source emits jobs, a server takes 3us each.
//! struct Queue { busy_until: SimTime, served: u32 }
//! enum Ev { Arrival, Done }
//!
//! impl World for Queue {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
//!         match ev {
//!             Ev::Arrival => {
//!                 let start = self.busy_until.max(sched.now());
//!                 self.busy_until = start + SimDuration::from_micros(3);
//!                 sched.schedule_at(self.busy_until, Ev::Done);
//!             }
//!             Ev::Done => self.served += 1,
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Queue { busy_until: SimTime::ZERO, served: 0 });
//! for i in 0..10 {
//!     sim.scheduler_mut().schedule_at(SimTime::from_micros(i), Ev::Arrival);
//! }
//! sim.run();
//! assert_eq!(sim.world().served, 10);
//! assert_eq!(sim.now(), SimTime::from_micros(30)); // 10 jobs x 3us, back to back
//! ```
//!
//! ## Determinism contract
//!
//! Given the same seed and the same sequence of API calls, a sequential run
//! is bit-for-bit reproducible: integer nanosecond time, total `(time,
//! insertion)` event order, and order-independent named RNG streams
//! ([`RngFactory`]). The PDES engine preserves *semantics* (every event
//! fires at the same simulated time with the same payload) but interleaves
//! wall-clock execution across threads.

#![warn(missing_docs)]

mod checkpoint;
mod fault;
mod pdes;
mod rng;
mod sched;
mod sim;
mod stats;
mod time;
mod wait;
pub mod wire;

pub use checkpoint::{PdesCheckpoint, SimCheckpoint};
pub use fault::{FaultCounts, FaultPlan};
pub use pdes::{
    panic_message, EpochMode, PartitionId, PartitionSim, PartitionStats, PartitionWorld,
    PdesConfig, PdesError, PdesReport, PdesRunner, RemoteSink, Transportable, DEFAULT_STALL_EPOCHS,
};
pub use rng::{splitmix64, RngFactory, SmallRng};
pub use sched::{BinaryHeapFel, CalendarFel, EventKey, Fel, Next, Scheduler};
pub use sim::{FelPeaks, Simulator, StopReason, World};
pub use stats::Ewma;
pub use time::{SimDuration, SimTime};
pub use wait::Waiter;
