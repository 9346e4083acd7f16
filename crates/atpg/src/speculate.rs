//! The ordered speculation board behind ATPG top-off.
//!
//! A top-off round's targets are positions `0..len`. Any thread claims
//! the next unclaimed position from a shared cursor, resolves it, and
//! posts the result in that position's slot. One committing thread takes
//! the slots strictly in position order, so what it applies is the same
//! for any number of workers. Claiming is dynamic, unlike
//! [`dft_logicsim::Executor`]'s static chunks, because a few targets
//! dominate the search time: on `random_logic(32, 500, 2)` the 10
//! costliest of 1194 targets take 27 % of it.
//!
//! The committing thread is a worker too. At a position nobody claimed
//! yet it resolves the position itself, jumping the cursor over the
//! positions it skipped (their targets were already detected); while
//! another worker still holds its position it resolves ahead instead of
//! idling. With no other worker it resolves each position at its turn
//! and nothing runs ahead. Positions the committing thread will never
//! take can be withdrawn, and a claim skips them: speculation is wasted
//! only on targets detected after they were claimed.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

type Slot<T> = Option<std::thread::Result<T>>;

/// Results of one round's positions, posted by any thread and taken in
/// order by the committing thread.
pub(crate) struct Board<T> {
    len: usize,
    /// The next unclaimed position.
    cursor: AtomicUsize,
    /// Set once the committing thread has left: workers claim nothing
    /// more.
    stop: AtomicBool,
    /// Per position: its result will never be taken.
    withdrawn: Vec<AtomicBool>,
    /// Posted results by position, until taken. A worker's panic is
    /// posted as its payload.
    slots: Mutex<Vec<Slot<T>>>,
    posted: Condvar,
}

impl<T> Board<T> {
    /// A board for positions `0..len`, none claimed.
    pub(crate) fn new(len: usize) -> Board<T> {
        Board {
            len,
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            withdrawn: (0..len).map(|_| AtomicBool::new(false)).collect(),
            slots: Mutex::new((0..len).map(|_| None).collect()),
            posted: Condvar::new(),
        }
    }

    fn slots(&self) -> MutexGuard<'_, Vec<Slot<T>>> {
        self.slots
            .lock()
            .expect("no thread panics while holding the slot lock")
    }

    fn post(&self, j: usize, r: std::thread::Result<T>) {
        self.slots()[j] = Some(r);
        self.posted.notify_all();
    }

    /// Claims the next position that is not withdrawn, if any is left.
    fn claim(&self) -> Option<usize> {
        loop {
            let j = self.cursor.fetch_add(1, Ordering::SeqCst);
            if j >= self.len {
                return None;
            }
            if !self.withdrawn[j].load(Ordering::SeqCst) {
                return Some(j);
            }
        }
    }

    /// A worker's loop: claim, resolve, post, until the positions run
    /// out or [`Board::stop`] is called. A panicking `resolve` is posted
    /// as its payload and ends the worker, whose state may be
    /// mid-update.
    pub(crate) fn work(&self, mut resolve: impl FnMut(usize) -> T) {
        while !self.stop.load(Ordering::SeqCst) {
            let Some(j) = self.claim() else {
                return;
            };
            let r = catch_unwind(AssertUnwindSafe(|| resolve(j)));
            let panicked = r.is_err();
            self.post(j, r);
            if panicked {
                return;
            }
        }
    }

    /// The committing thread's turn at position `k`, which must not be
    /// withdrawn: the result, resolved here if nobody claimed `k` yet,
    /// otherwise awaited while resolving ahead. A worker's panic on `k`
    /// resumes here with its payload, where a serial loop would have
    /// panicked.
    pub(crate) fn take(&self, k: usize, mut resolve: impl FnMut(usize) -> T) -> T {
        if self.cursor.fetch_max(k + 1, Ordering::SeqCst) <= k {
            return resolve(k);
        }
        let unwrap = |r: std::thread::Result<T>| r.unwrap_or_else(|payload| resume_unwind(payload));
        loop {
            if let Some(r) = self.slots()[k].take() {
                return unwrap(r);
            }
            let Some(j) = self.claim() else {
                break;
            };
            let r = resolve(j);
            self.post(j, Ok(r));
        }
        let mut slots = self.slots();
        loop {
            if let Some(r) = slots[k].take() {
                return unwrap(r);
            }
            slots = self
                .posted
                .wait(slots)
                .expect("no thread panics while holding the slot lock");
        }
    }

    /// Position `j`'s result will never be taken: a claim skips it from
    /// now on.
    pub(crate) fn withdraw(&self, j: usize) {
        self.withdrawn[j].store(true, Ordering::SeqCst);
    }

    /// Workers claim nothing more; each finishes at most the position it
    /// holds.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The results nobody took, in position order; panics nobody took
    /// are dropped with them.
    pub(crate) fn into_untaken(self) -> impl Iterator<Item = T> {
        self.slots
            .into_inner()
            .expect("no thread panics while holding the slot lock")
            .into_iter()
            .flatten()
            .filter_map(Result::ok)
    }
}

/// Calls [`Board::stop`] when dropped, on return and on unwind alike.
pub(crate) struct StopOnDrop<'b, T>(pub(crate) &'b Board<T>);

impl<T> Drop for StopOnDrop<'_, T> {
    fn drop(&mut self) {
        self.0.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn takes_every_result_in_position_order_at_any_worker_count() {
        for workers in [0usize, 1, 3, 7] {
            let board = Board::new(200);
            let got: Vec<u64> = std::thread::scope(|s| {
                for w in 0..workers {
                    let board = &board;
                    s.spawn(move || {
                        board.work(|j| {
                            // Uneven costs, so completion order differs
                            // from position order.
                            let spin = (j * 7 + w) % 13 * 200;
                            std::hint::black_box((0..spin).sum::<usize>());
                            j as u64
                        })
                    });
                }
                let _stop = StopOnDrop(&board);
                // Take every position except multiples of 5, as a
                // commit loop skips detected targets.
                (0..200)
                    .filter(|k| k % 5 != 0)
                    .map(|k| board.take(k, |j| j as u64))
                    .collect()
            });
            let want: Vec<u64> = (0..200).filter(|k| k % 5 != 0).collect();
            assert_eq!(got, want, "workers={workers}");
            // Only skipped positions are left untaken.
            assert!(
                board.into_untaken().all(|v| v % 5 == 0),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn a_worker_panic_resumes_at_its_turn_with_its_payload() {
        let board = Board::new(8);
        // One worker resolves positions 0..=3 and panics on 3; the
        // committing thread then resolves the rest itself.
        std::thread::scope(|s| {
            s.spawn(|| {
                board.work(|j| {
                    if j == 3 {
                        panic!("search failed on {j}");
                    }
                    j
                })
            })
            .join()
            .expect("the worker catches its own panic");
        });
        for k in 0..3 {
            assert_eq!(board.take(k, |j| j), k);
        }
        let payload = catch_unwind(AssertUnwindSafe(|| board.take(3, |j| j)))
            .expect_err("position 3's panic resumes at its turn");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("search failed on 3")
        );
        for k in 4..8 {
            assert_eq!(board.take(k, |j| j + 100), k + 100, "resolved here");
        }
    }

    #[test]
    fn withdrawn_positions_are_never_resolved() {
        let board = Board::new(100);
        for j in (1..100).step_by(2) {
            board.withdraw(j);
        }
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    board.work(|j| {
                        assert!(j % 2 == 0, "withdrawn position {j} resolved");
                        j
                    })
                });
            }
            let _stop = StopOnDrop(&board);
            for k in (0..100).step_by(2) {
                assert_eq!(
                    board.take(k, |j| {
                        assert!(j % 2 == 0, "withdrawn position {j} resolved");
                        j
                    }),
                    k
                );
            }
        });
        assert_eq!(board.into_untaken().count(), 0);
    }

    #[test]
    fn a_stopped_board_gets_no_more_claims() {
        let board = Board::new(64);
        let started = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                started.wait();
                board.work(|j| j)
            });
            board.stop();
            started.wait();
        });
        assert_eq!(board.into_untaken().count(), 0);
    }
}
