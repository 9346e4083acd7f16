//! Property tests: concurrent workers always record spans that form a
//! valid forest on every thread, checked on the timestamps alone, and
//! the Perfetto export stays balanced JSON.

use dft_trace::{TraceConfig, TraceSession};
use proptest::prelude::*;

/// Expands a seed into per-worker span programs (a bool per step: open a
/// nested span, or close the innermost). SplitMix64 keeps the expansion
/// deterministic for the sampled inputs.
fn programs(seed: u64, workers: usize, max_steps: usize) -> Vec<Vec<bool>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..workers)
        .map(|_| {
            let steps = 1 + (next() as usize) % max_steps;
            (0..steps).map(|_| next() & 1 == 1).collect()
        })
        .collect()
}

/// A tiny span program one worker executes.
fn run_program(t: &dft_trace::TraceHandle, steps: &[bool]) {
    let mut open = Vec::new();
    for (i, &push) in steps.iter().enumerate() {
        if push {
            open.push(t.span_arg("work", i as u64));
        } else {
            open.pop();
        }
        // A little leaf work between stack ops.
        let _leaf = t.span_arg("leaf", i as u64);
    }
    // Guards drop here, closing any still-open spans innermost-first.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any interleaving of worker span programs drains to a forest that
    /// its own timestamps confirm: one thread lane per worker, span
    /// counts matching the work submitted, every span nested inside one
    /// span per shallower level of its thread, and spans at equal depth
    /// never overlapping.
    #[test]
    fn concurrent_workers_journal_sorts_into_valid_forest(
        seed in 0u64..1 << 48,
        workers in 1usize..6,
    ) {
        let progs = programs(seed, workers, 24);
        let session = TraceSession::new(TraceConfig::default());
        let handle = session.handle();
        std::thread::scope(|s| {
            for prog in &progs {
                let t = handle.clone();
                s.spawn(move || run_program(&t, prog));
            }
        });
        let dump = session.snapshot();
        prop_assert_eq!(dump.dropped, 0);

        let spans = dump.spans().expect("rings pair into a valid forest");
        let leaves = spans.iter().filter(|s| s.name == "leaf").count();
        let expected_leaves: usize = progs.iter().map(|p| p.len()).sum();
        prop_assert_eq!(leaves, expected_leaves);
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        prop_assert_eq!(tids.len(), progs.len());

        for (i, s) in spans.iter().enumerate() {
            prop_assert!(s.start_ns <= s.end_ns, "span ends before it starts: {:?}", s);
            // Spans on the same thread whose interval contains this one.
            let enclosing: Vec<_> = spans
                .iter()
                .enumerate()
                .filter(|&(j, p)| {
                    j != i && p.tid == s.tid && p.start_ns <= s.start_ns && s.end_ns <= p.end_ns
                })
                .map(|(_, p)| p)
                .collect();
            prop_assert_eq!(
                enclosing.len(),
                s.depth as usize,
                "depth {} but {} enclosing spans: {:?}",
                s.depth,
                enclosing.len(),
                s
            );
            if s.depth > 0 {
                prop_assert!(
                    enclosing.iter().any(|p| p.depth == s.depth - 1),
                    "no enclosing span at depth {}: {:?}",
                    s.depth - 1,
                    s
                );
            }
        }

        // Per-thread, spans at equal depth never overlap.
        for a in &spans {
            for b in &spans {
                if a.tid == b.tid && a.depth == b.depth && a.start_ns < b.start_ns {
                    prop_assert!(
                        a.end_ns <= b.start_ns,
                        "overlap on tid {}: [{},{}] vs [{},{}]",
                        a.tid, a.start_ns, a.end_ns, b.start_ns, b.end_ns
                    );
                }
            }
        }
    }

    /// The Perfetto export is structurally sound JSON for any workload:
    /// balanced braces/brackets throughout.
    #[test]
    fn perfetto_export_is_balanced_json(
        seed in 0u64..1 << 48,
        workers in 1usize..4,
    ) {
        let progs = programs(seed, workers, 12);
        let session = TraceSession::new(TraceConfig::default());
        let handle = session.handle();
        std::thread::scope(|s| {
            for prog in &progs {
                let t = handle.clone();
                s.spawn(move || run_program(&t, prog));
            }
        });
        let json = session.snapshot().to_perfetto_json();
        let mut depth = 0i64;
        let mut square = 0i64;
        for c in json.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                '[' => square += 1,
                ']' => square -= 1,
                _ => {}
            }
            prop_assert!(depth >= 0 && square >= 0);
        }
        prop_assert_eq!(depth, 0);
        prop_assert_eq!(square, 0);
        prop_assert!(json.contains("\"traceEvents\""));
    }
}
