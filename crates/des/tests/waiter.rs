//! The shared spin/yield/park waiter (`elephant_des::Waiter`): it returns
//! at once when its condition holds, never loses a wake-up, and with no
//! core per waiting thread it parks without spinning. Every wait here is
//! bounded by a timeout, so a lost wake-up fails a test instead of hanging
//! it, and no assertion depends on how the OS schedules the threads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use elephant_des::Waiter;

/// Spins off (one core for two waiting threads) and on (two for one).
fn both() -> [Waiter; 2] {
    [Waiter::new(2, 1), Waiter::new(1, 2)]
}

/// Sleeps until `done()` or panics after ten seconds.
fn within_ten_seconds(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_ready_condition_returns_after_one_poll() {
    for waiter in both() {
        let mut polls = 0;
        waiter.wait_until(|| {
            polls += 1;
            true
        });
        assert_eq!(polls, 1);
    }
}

/// Two threads take 10,000 turns each through one waiter, each turn's
/// wait ending only on the other thread's notify. The main thread
/// bounds every round by a timeout: a lost wake-up leaves both parked.
#[test]
fn no_wake_up_is_lost() {
    const ROUNDS: u64 = 10_000;
    for waiter in both() {
        let waiter = Arc::new(waiter);
        let turn = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for side in 0..2 {
            let (waiter, turn, tx) = (Arc::clone(&waiter), Arc::clone(&turn), tx.clone());
            // Detached: a thread parked for good must not block the test.
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    let mine = 2 * round + side;
                    waiter.wait_until(|| turn.load(SeqCst) == mine);
                    turn.store(mine + 1, SeqCst);
                    waiter.notify();
                    if side == 1 {
                        tx.send(round).expect("the test is listening");
                    }
                }
            });
        }
        for round in 0..ROUNDS {
            let done = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(done, Ok(round), "round {round} lost a wake-up");
        }
    }
}

/// Polls a condition that turns true only once the main thread has seen
/// the waiter poll `seen` times and then waited `then`; returns the polls
/// counted by that moment. The waiter must wake within ten seconds.
fn polls_before_release(waiter: Waiter, seen: u64, then: Duration) -> u64 {
    let shared = Arc::new((waiter, AtomicU64::new(0), AtomicBool::new(false)));
    let (tx, rx) = mpsc::channel();
    let theirs = Arc::clone(&shared);
    // Detached: a thread parked for good must not block the test.
    thread::spawn(move || {
        let (waiter, polls, go) = &*theirs;
        waiter.wait_until(|| {
            polls.fetch_add(1, SeqCst);
            go.load(SeqCst)
        });
        tx.send(()).expect("the test is listening");
    });
    let (waiter, polls, go) = &*shared;
    within_ten_seconds("the waiter's polls", || polls.load(SeqCst) >= seen);
    thread::sleep(then);
    let before = polls.load(SeqCst);
    go.store(true, SeqCst);
    waiter.notify();
    let woke = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(woke, Ok(()), "the waiter missed the notify");
    before
}

/// With no core per waiting thread the waiter polls once and parks: 50 ms
/// later it has polled once (twice after a spurious wake-up), where a
/// spinning one polls thousands of times before it parks.
#[test]
fn without_a_core_each_the_waiter_parks_without_spinning() {
    let polls = polls_before_release(Waiter::new(2, 1), 1, Duration::from_millis(50));
    assert!(polls <= 2, "{polls} polls before parking");
}

/// With a core per waiting thread it spins first: it polls again and
/// again before anyone notifies it.
#[test]
fn with_a_core_each_the_waiter_spins_first() {
    let polls = polls_before_release(Waiter::new(2, 2), 3, Duration::ZERO);
    assert!(polls >= 3, "{polls} polls");
}
