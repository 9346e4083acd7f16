//! Golden trace-shape snapshot: locks the span skeleton the mac4 flow
//! records — which spans appear, how they nest, and how often — while
//! ignoring everything timing-dependent (timestamps, durations, args).
//! The flow is fully deterministic at one worker thread, so any drift in
//! the skeleton means an instrumentation or algorithm change.
//!
//! To re-bless after an intentional change:
//!
//! ```sh
//! AIDFT_BLESS_GOLDEN=1 cargo test -p dft-core --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDEN_SKELETON` table.

use dft_core::netlist::generators::benchmark_suite;
use dft_core::trace::{SpanNode, TraceConfig, TraceSession};
use dft_core::DftFlow;

/// The mac4 flow's span skeleton: `(depth, name, count)` rows in
/// depth-first start order, with consecutive identical siblings
/// collapsed into a count.
const GOLDEN_SKELETON: &[(u32, &str, usize)] = &[
    (0, "flow", 1),
    (1, "scan_insertion", 1),
    (1, "sim_compile", 1),
    (1, "atpg_random", 1),
    (2, "faultsim_run", 1),
    (3, "goodsim_eval", 1),
    (3, "faultsim_batch", 1),
    (1, "atpg_topoff", 1),
    (2, "podem", 1),
    (2, "faultsim_run", 1),
    (3, "goodsim_eval", 1),
    (3, "faultsim_batch", 1),
    (2, "faultsim_run", 1),
    (3, "goodsim_eval", 1),
    (3, "faultsim_batch", 1),
    (2, "atpg_compact", 1),
    (3, "faultsim_run", 1),
    (4, "goodsim_eval", 1),
    (4, "faultsim_batch", 1),
    (1, "atpg_signoff", 1),
    (2, "faultsim_run", 1),
    (3, "goodsim_eval", 1),
    (3, "faultsim_batch", 1),
    (1, "compression", 1),
    (2, "compress_all", 1),
    (3, "edt_encode", 1),
    (4, "gf2_solve", 1),
    (3, "edt_encode", 1),
    (4, "gf2_solve", 1),
];

fn bless_mode() -> bool {
    std::env::var("AIDFT_BLESS_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Flattens the forest into collapsed `(depth, name, count)` rows.
fn skeleton(nodes: &[SpanNode], out: &mut Vec<(u32, &'static str, usize)>) {
    for n in nodes {
        match out.last_mut() {
            Some((d, name, count)) if *d == n.depth && *name == n.name => *count += 1,
            _ => out.push((n.depth, n.name, 1)),
        }
        skeleton(&n.children, out);
    }
}

#[test]
fn mac4_flow_trace_shape_matches_golden() {
    let nl = benchmark_suite()
        .into_iter()
        .find(|c| c.name == "mac4")
        .expect("mac4 in suite")
        .netlist;
    let session = TraceSession::new(TraceConfig {
        // Sample sparsely so the skeleton stays short; 1 worker keeps
        // batch spans and the interleaving deterministic.
        fault_span_every: 64,
        ..TraceConfig::default()
    });
    DftFlow::new(&nl)
        .chains(4)
        .threads(1)
        .trace(session.handle())
        .run();
    let dump = session.snapshot();
    assert_eq!(dump.dropped, 0, "ring overflow would truncate the shape");
    let forest = dump.spans().expect("balanced span forest");
    let mut got = Vec::new();
    skeleton(&forest, &mut got);

    if bless_mode() {
        println!("const GOLDEN_SKELETON: &[(u32, &str, usize)] = &[");
        for (d, name, count) in &got {
            println!("    ({d}, \"{name}\", {count}),");
        }
        println!("];");
        return;
    }
    assert_eq!(
        got, GOLDEN_SKELETON,
        "trace skeleton drifted; re-bless with AIDFT_BLESS_GOLDEN=1 if intentional"
    );

    // The Perfetto export of the same dump must be structurally sound
    // and carry only complete ("X") span events plus metadata.
    let json = session.snapshot().to_perfetto_json();
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert!(json.contains("\"traceEvents\""));
    assert!(!json.contains("\"ph\":\"B\""), "unbalanced fallback export");
    let spans = json.matches("\"ph\":\"X\"").count();
    let total: usize = GOLDEN_SKELETON.iter().map(|(_, _, c)| c).sum();
    assert_eq!(spans, total, "perfetto span count != forest span count");
}
