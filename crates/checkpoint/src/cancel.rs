//! Cooperative cancellation with per-phase deadlines.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Why the token fired: 0 = not fired, 1 = explicit cancel (signal),
    /// 2 = deadline.
    cause: AtomicU64,
    /// [`CancelToken::poll`] calls since the trip point was armed, across
    /// all clones and threads. Counted only while `trip_at` is armed.
    polls: AtomicU64,
    /// Test/chaos hook: the poll whose ordinal since arming reaches this
    /// value trips the token (0 = disabled). Gives tests a deterministic
    /// kill point without wall clocks or signals.
    trip_at: AtomicU64,
    /// Chaos clock skew in nanoseconds, added to "now" when checking the
    /// deadline (simulates a tester clock jumping forward).
    skew_nanos: AtomicU64,
    /// `true` while `deadline` holds a deadline, so an unarmed poll never
    /// takes the lock.
    deadline_armed: AtomicBool,
    /// Deadline for the current phase, if any.
    deadline: Mutex<Option<Instant>>,
}

/// A cheap, cloneable cancellation token shared between a driver and its
/// workers.
///
/// Two observation tiers keep the hot paths hot:
///
/// * [`CancelToken::is_cancelled`] — one relaxed atomic load; safe to
///   call per fault in inner simulation loops.
/// * [`CancelToken::poll`] — additionally applies the deterministic trip
///   point and the phase deadline, each only while it is armed. An
///   unarmed poll is three atomic loads, with no lock and no
///   read-modify-write, so the fault simulator polls once per fault.
///
/// Cancellation is **cooperative and monotonic**: once fired the token
/// never un-fires, and every observer drains at its next boundary. A
/// run without a cancellation source holds a token that never fires.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

/// Cancellation cause, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cause {
    Explicit = 1,
    Deadline = 2,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token (idempotent). Signal handlers route here via a
    /// watcher thread; tests call it directly.
    pub fn cancel(&self) {
        self.inner
            .cause
            .compare_exchange(
                0,
                Cause::Explicit as u64,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .ok();
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// `true` once the token has fired. One relaxed load — usable in
    /// inner loops.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// `true` when the firing cause was a phase deadline rather than an
    /// explicit [`CancelToken::cancel`].
    pub fn deadline_exceeded(&self) -> bool {
        self.inner.cause.load(Ordering::SeqCst) == Cause::Deadline as u64
    }

    /// Arms a deadline `budget` from now. Observers see it on their next
    /// [`CancelToken::poll`]. Phases re-arm on entry; [`CancelToken::clear_deadline`]
    /// disarms between phases.
    pub fn arm_deadline(&self, budget: Duration) {
        *self.inner.deadline.lock().expect("deadline lock poisoned") =
            Some(Instant::now() + budget);
        self.inner.deadline_armed.store(true, Ordering::Release);
    }

    /// Disarms the phase deadline (a fired token stays fired).
    pub fn clear_deadline(&self) {
        *self.inner.deadline.lock().expect("deadline lock poisoned") = None;
        self.inner.deadline_armed.store(false, Ordering::Release);
    }

    /// Deterministic kill point for tests and the chaos harness: the
    /// `n`-th call to [`CancelToken::poll`] from now on (counting across
    /// all clones) trips the token. `n == 0` disables the hook.
    pub fn trip_after_polls(&self, n: u64) {
        // The count restarts before the hook is published: a poller
        // that acquires the new `trip_at` sees the reset count.
        self.inner.polls.store(0, Ordering::SeqCst);
        self.inner.trip_at.store(n, Ordering::Release);
    }

    /// Chaos hook: skips the deadline clock forward by `d` (the token
    /// behaves as if `d` of wall-clock time passed instantly).
    pub fn skip_clock(&self, d: Duration) {
        self.inner
            .skew_nanos
            .fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
    }

    /// The coarse check: applies the deterministic trip point and the
    /// phase deadline, each only while armed, and returns
    /// [`CancelToken::is_cancelled`]. Call at fault boundaries.
    pub fn poll(&self) -> bool {
        let trip = self.inner.trip_at.load(Ordering::Acquire);
        if trip != 0 && self.inner.polls.fetch_add(1, Ordering::SeqCst) + 1 >= trip {
            self.cancel();
            return true;
        }
        if self.inner.deadline_armed.load(Ordering::Acquire) {
            let deadline = *self.inner.deadline.lock().expect("deadline lock poisoned");
            if let Some(deadline) = deadline {
                let skew = Duration::from_nanos(self.inner.skew_nanos.load(Ordering::SeqCst));
                if Instant::now() + skew >= deadline {
                    self.inner
                        .cause
                        .compare_exchange(
                            0,
                            Cause::Deadline as u64,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                        .ok();
                    self.inner.cancelled.store(true, Ordering::SeqCst);
                    return true;
                }
            }
        }
        self.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unfired_and_fires_idempotently() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(!t.poll());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.poll());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(!t.deadline_exceeded());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn trip_after_polls_is_deterministic() {
        let t = CancelToken::new();
        t.trip_after_polls(3);
        assert!(!t.poll());
        assert!(!t.poll());
        assert!(t.poll());
        assert!(t.is_cancelled());
    }

    #[test]
    fn trip_point_counts_from_arming_time() {
        let t = CancelToken::new();
        t.poll();
        t.poll();
        t.trip_after_polls(2);
        assert!(!t.poll());
        assert!(t.poll());
    }

    #[test]
    fn unarmed_polls_neither_count_nor_lock() {
        let t = CancelToken::new();
        for _ in 0..100 {
            assert!(!t.poll());
        }
        assert_eq!(t.inner.polls.load(Ordering::SeqCst), 0);
        t.arm_deadline(Duration::from_secs(3600));
        t.clear_deadline();
        assert!(!t.inner.deadline_armed.load(Ordering::SeqCst));
        t.trip_after_polls(2);
        assert!(!t.poll());
        assert_eq!(t.inner.polls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deadline_fires_on_poll_and_reports_cause() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_secs(3600));
        assert!(!t.poll());
        // Skip the clock past the deadline instead of sleeping.
        t.skip_clock(Duration::from_secs(7200));
        assert!(t.poll());
        assert!(t.deadline_exceeded());
    }

    #[test]
    fn clear_deadline_disarms_before_firing() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_nanos(1));
        t.clear_deadline();
        std::thread::sleep(Duration::from_millis(2));
        assert!(!t.poll());
    }
}
