//! The one way a thread of this workspace waits for another: spin, yield,
//! then park. The PDES epoch barrier and the verdict pipeline's ring both
//! wait through a [`Waiter`], under one rule: spin only when the host has
//! a core for each waiting thread. Without one, a spinning thread only
//! takes the time slice of the thread it waits for, so it parks at once.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// Polls of a waiting thread before it parks, when it may spin: a few
/// milliseconds, longer than most waits of either user, so a park/unpark
/// round trip (which costs several verdicts or epochs) stays rare.
const SPINS: u32 = 1 << 15;

/// Every this many polls a spinning thread yields instead, which hands a
/// shared core to the thread it waits for at once.
const YIELD_EVERY: u32 = 32;

/// A place where threads wait for a condition that other threads make
/// true. A thread that changes what a waiter may be polling calls
/// [`Waiter::notify`] afterwards; the condition's own atomics must be
/// `SeqCst`, so that either the waiter's last poll sees the change or the
/// notifier sees the waiter asleep.
pub struct Waiter {
    spins: u32,
    /// Threads past their spins, about to park or parked.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Waiter {
    /// A waiter for `threads` threads that wait on each other, on a host
    /// that lets the process use `cores` cores: it spins only when
    /// `cores >= threads`.
    pub fn new(threads: usize, cores: usize) -> Self {
        Waiter {
            spins: if cores >= threads { SPINS } else { 0 },
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Returns once `ready()` does: polls it while spinning (yielding
    /// every few polls), then parks until a [`Waiter::notify`] and polls
    /// again. Returns after one poll when it is ready at once.
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        for k in 1..=self.spins {
            if ready() {
                return;
            }
            if k % YIELD_EVERY == 0 {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        self.sleepers.fetch_add(1, SeqCst);
        // The lock guards `()`: a poisoned one carries no broken invariant.
        let lock = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        drop(self.wake.wait_while(lock, |()| !ready()));
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wakes every parked waiter, to poll again. Costs one load when none
    /// is parked. A waiter polls under the lock taken here, so one that
    /// polled before the change is already waiting when the lock frees.
    pub fn notify(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_all();
        }
    }
}
