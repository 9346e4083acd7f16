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

use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// A worker failure isolated by the fallible executor paths: one unit of
/// work (a chunk) panicked, and the panic was contained instead of taking
/// the whole run down. Carries the chunk index and the panic message so
/// callers can report exactly which batch was lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Index of the failed chunk (chunk order = input order).
    pub chunk: usize,
    /// The panic payload rendered as text (`"<non-string panic>"` when the
    /// payload was neither `&str` nor `String`).
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked on chunk {}: {}",
            self.chunk, self.message
        )
    }
}

impl std::error::Error for ExecError {}

/// Renders a panic payload (from `catch_unwind` or `JoinHandle::join`)
/// as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

/// How much hardware parallelism a run may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded; never spawns.
    Serial,
    /// Exactly this many worker threads (clamped to ≥ 1).
    Threads(usize),
    /// One worker per available hardware thread
    /// (`std::thread::available_parallelism`).
    #[default]
    Auto,
}

impl Parallelism {
    /// The conventional CLI/config encoding: `0` means [`Parallelism::Auto`],
    /// `1` means [`Parallelism::Serial`], `n > 1` means [`Parallelism::Threads`].
    pub fn from_threads(n: usize) -> Parallelism {
        match n {
            0 => Parallelism::Auto,
            1 => Parallelism::Serial,
            n => Parallelism::Threads(n),
        }
    }

    /// The concrete worker count this setting resolves to on this machine.
    pub fn resolve(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// A deterministic fork/join executor over a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    /// An auto-sized executor (one worker per hardware thread).
    fn default() -> Executor {
        Executor::new(Parallelism::Auto)
    }
}

impl Executor {
    /// An executor for the given parallelism setting.
    pub fn new(parallelism: Parallelism) -> Executor {
        Executor {
            threads: parallelism.resolve(),
        }
    }

    /// The single-threaded executor (never spawns).
    pub fn serial() -> Executor {
        Executor { threads: 1 }
    }

    /// Shorthand for `Executor::new(Parallelism::from_threads(n))`.
    pub fn with_threads(n: usize) -> Executor {
        Executor::new(Parallelism::from_threads(n))
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when work runs on the calling thread only.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
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
    /// A panic in any chunk — a worker thread's or the spawning thread's
    /// own first chunk — is re-raised on the calling thread with its
    /// original payload once every other chunk has been joined, so serial
    /// and parallel runs fail identically and a caller's `catch_unwind`
    /// sees the real panic rather than a generic join failure. Callers
    /// that want to survive a lost chunk use
    /// [`Executor::try_map_chunks`] instead.
    pub fn map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        let mut out = Vec::with_capacity(self.threads);
        for r in self.run_chunks(items, f) {
            match r {
                Ok(v) => out.push(v),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    }

    /// Fallible variant of [`Executor::map_chunks`]: each chunk's result
    /// arrives as `Ok(R)`, or `Err(ExecError)` when that chunk panicked —
    /// the panic is contained to its chunk and every other chunk still
    /// completes and returns its result. Chunk order (= input order) is
    /// preserved, so surviving results are bit-identical to a clean run.
    pub fn try_map_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, ExecError>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        self.run_chunks(items, f)
            .into_iter()
            .enumerate()
            .map(|(ci, r)| {
                r.map_err(|payload| ExecError {
                    chunk: ci,
                    message: panic_message(payload.as_ref()),
                })
            })
            .collect()
    }

    /// The shared fork/join kernel: one entry per chunk, in chunk order,
    /// holding either the chunk's result or its panic payload.
    #[allow(clippy::type_complexity)]
    fn run_chunks<T, R, F>(
        &self,
        items: &[T],
        f: F,
    ) -> Vec<Result<R, Box<dyn std::any::Any + Send>>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        if items.is_empty() {
            return Vec::new();
        }
        let chunk_len = items.len().div_ceil(self.threads).max(1);
        let f = &f;
        let guarded =
            move |base: usize, chunk: &[T]| catch_unwind(AssertUnwindSafe(|| f(base, chunk)));
        if self.threads == 1 || items.len() <= chunk_len {
            return vec![guarded(0, items)];
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk_len)
                .enumerate()
                .skip(1)
                .map(|(ci, chunk)| scope.spawn(move || guarded(ci * chunk_len, chunk)))
                .collect();
            let mut out = Vec::with_capacity(handles.len() + 1);
            // The spawning thread takes the first chunk instead of idling.
            out.push(guarded(0, &items[..chunk_len]));
            for h in handles {
                // A worker that somehow dies outside the guard still
                // surfaces as that chunk's payload, never a process abort.
                out.push(h.join().unwrap_or_else(Err));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolution() {
        assert_eq!(Parallelism::Serial.resolve(), 1);
        assert_eq!(Parallelism::Threads(6).resolve(), 6);
        assert_eq!(Parallelism::Threads(0).resolve(), 1);
        assert!(Parallelism::Auto.resolve() >= 1);
        assert_eq!(Parallelism::from_threads(0), Parallelism::Auto);
        assert_eq!(Parallelism::from_threads(1), Parallelism::Serial);
        assert_eq!(Parallelism::from_threads(5), Parallelism::Threads(5));
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
    fn try_map_chunks_isolates_a_worker_panic() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [2usize, 4, 8] {
            let exec = Executor::with_threads(threads);
            let clean = exec.try_map_chunks(&items, |base, c| base + c.len());
            let poisoned = exec.try_map_chunks(&items, |base, c| {
                if base == 0 {
                    panic!("poisoned batch at {base}");
                }
                base + c.len()
            });
            assert_eq!(poisoned.len(), clean.len(), "threads={threads}");
            let err = poisoned[0].as_ref().unwrap_err();
            assert_eq!(err.chunk, 0);
            assert!(err.message.contains("poisoned batch"), "{err}");
            // Every surviving chunk is bit-identical to the clean run.
            for (ci, (p, c)) in poisoned.iter().zip(&clean).enumerate().skip(1) {
                assert_eq!(p.as_ref().ok(), c.as_ref().ok(), "chunk {ci}");
            }
        }
    }

    #[test]
    fn try_map_chunks_isolates_on_the_serial_path_too() {
        let exec = Executor::serial();
        let items = [1u32, 2, 3];
        let out = exec.try_map_chunks(&items, |_, _| -> u32 { panic!("serial panic") });
        assert_eq!(out.len(), 1);
        let err = out[0].as_ref().unwrap_err();
        assert_eq!(err.chunk, 0);
        assert!(err.message.contains("serial panic"));
    }

    #[test]
    fn map_chunks_repanics_with_the_original_payload() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 4] {
            let exec = Executor::with_threads(threads);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                exec.map_chunks(&items, |_, _| -> usize { panic!("original payload") })
            }))
            .expect_err("must repanic");
            assert_eq!(panic_message(caught.as_ref()), "original payload");
        }
    }

    #[test]
    fn exec_error_display_names_the_chunk() {
        let e = ExecError {
            chunk: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "worker panicked on chunk 3: boom");
    }
}
