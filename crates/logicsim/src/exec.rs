//! The workspace-wide parallel execution layer.
//!
//! Every fault-simulation consumer (ATPG driver, logic BIST, transition
//! simulation, hierarchical core test) funnels its data-parallel work
//! through [`Executor`], a small `std::thread::scope`-based fork/join
//! helper with a hard determinism contract: **results are merged in input
//! order, so any thread count produces bit-identical output**. That
//! contract is what lets `--threads N` default to every core the machine
//! has without perturbing a single coverage number, pattern count, or
//! signature.
//!
//! No work-stealing, no channels, no atomics: items are split into at
//! most `threads` contiguous chunks, each worker owns its chunk, and the
//! spawning thread processes the first chunk itself before joining the
//! rest in order. For the fault-partitioned workloads here (thousands of
//! independent faults of comparable cost) static chunking is within noise
//! of a dynamic scheduler and keeps the merge trivially deterministic.
//!
//! ATPG top-off does not run on `Executor`; `dft-atpg` has its own
//! ordered scheduler. Its per-target searches are far from comparable in
//! cost — on `random_logic(32, 500, 2)` the 10 costliest of 1194 targets
//! take 27 % of the search time — so static chunks would leave one
//! worker holding most of the work. Its workers instead claim targets one
//! at a time from a shared cursor, and a single thread commits the
//! results in target order, discarding those whose target an earlier
//! commit's pattern detected, which keeps the output as deterministic as
//! an in-order merge.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;

/// A deterministic fork/join executor over a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// The single-threaded executor (never spawns).
    pub fn serial() -> Executor {
        Executor { threads: 1 }
    }

    /// An executor with `n` workers, the CLI/config encoding: `0` means
    /// one per hardware thread (`std::thread::available_parallelism`),
    /// `1` means serial.
    pub fn with_threads(n: usize) -> Executor {
        let threads = match n {
            0 => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        Executor { threads }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order. `f`
    /// receives the item index and the item. Falls back to a plain loop
    /// when serial or when the input is too small to split.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let per_item: Vec<Vec<R>> = self.map_chunks(items, |base, chunk| {
            chunk
                .iter()
                .enumerate()
                .map(|(k, item)| f(base + k, item))
                .collect()
        });
        per_item.into_iter().flatten().collect()
    }

    /// Splits `items` into at most [`Executor::threads`] contiguous chunks
    /// and maps `f` over them, returning one result per chunk **in chunk
    /// order** (the determinism contract). `f` receives the chunk's base
    /// index into `items` and the chunk itself.
    ///
    /// A panic in any chunk is re-raised on the calling thread with its
    /// original payload once every worker has finished: the spawning
    /// thread's own first chunk unwinds through `std::thread::scope`,
    /// which joins the workers first, and a worker's panic is re-raised
    /// from its join, lowest chunk first. So serial and parallel runs fail
    /// identically and a caller's `catch_unwind` sees the real panic
    /// rather than a generic join failure.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let chunk_len = items.len().div_ceil(self.threads).max(1);
        if self.threads == 1 || items.len() <= chunk_len {
            return vec![f(0, items)];
        }
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk_len)
                .enumerate()
                .skip(1)
                .map(|(ci, chunk)| scope.spawn(move || f(ci * chunk_len, chunk)))
                .collect();
            let mut out = Vec::with_capacity(handles.len() + 1);
            // The spawning thread takes the first chunk instead of idling.
            out.push(f(0, &items[..chunk_len]));
            for h in handles {
                out.push(h.join().unwrap_or_else(|payload| resume_unwind(payload)));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Executor::with_threads(1), Executor::serial());
        assert_eq!(Executor::with_threads(6).threads(), 6);
        let auto = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(Executor::with_threads(0).threads(), auto);
    }

    #[test]
    fn map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1usize, 2, 3, 7, 16, 64] {
            let exec = Executor::with_threads(threads);
            assert_eq!(exec.map(&items, |_, &x| x * x), expect, "threads={threads}");
        }
    }

    #[test]
    fn map_indices_are_global() {
        let items = vec![10u64; 257];
        let exec = Executor::with_threads(4);
        let got = exec.map(&items, |i, &x| i as u64 + x);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u64 + 10);
        }
    }

    #[test]
    fn map_chunks_covers_everything_once() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1usize, 2, 5, 13] {
            let exec = Executor::with_threads(threads);
            let chunks = exec.map_chunks(&items, |base, c| (base, c.to_vec()));
            let flat: Vec<usize> = chunks.iter().flat_map(|(_, c)| c.clone()).collect();
            assert_eq!(flat, items, "threads={threads}");
            for (base, c) in &chunks {
                assert_eq!(&items[*base..*base + c.len()], &c[..]);
            }
        }
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let exec = Executor::with_threads(8);
        let out: Vec<u32> = exec.map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        let chunks = exec.map_chunks(&[] as &[u32], |_, c| c.len());
        assert!(chunks.is_empty());
    }

    #[test]
    fn map_chunks_repanics_with_the_original_payload() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 4] {
            let exec = Executor::with_threads(threads);
            // The first chunk runs on the spawning thread, the last (at 4
            // threads) on a worker.
            for last in [false, true] {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    exec.map_chunks(&items, |base, c| {
                        let pick = if last {
                            base + c.len() == items.len()
                        } else {
                            base == 0
                        };
                        if pick {
                            panic!("original payload");
                        }
                        c.len()
                    })
                }))
                .expect_err("must repanic");
                assert_eq!(caught.downcast_ref::<&str>(), Some(&"original payload"));
            }
        }
    }
}
