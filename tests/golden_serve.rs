//! Golden-value regression suite for the test-floor fleet service:
//! locks the full fleet summary (dies tested, failed, retested,
//! harvested, ...) for a fixed 16-die mac4 fleet. Every number is
//! deterministic — defects are seeded from the fleet seed, signatures
//! simulated from the design — so any drift means an algorithmic change,
//! intentional or not.
//!
//! To re-bless after an intentional change:
//!
//! ```sh
//! AIDFT_BLESS_GOLDEN=1 cargo test -p dft-core --test golden_serve -- --nocapture
//! ```
//!
//! and paste the printed literals over `GOLDEN_FLEET` and
//! `GOLDEN_JOURNAL`.

use dft_core::checkpoint::{fnv1a, FramedJournal};
use dft_core::netlist::generators::benchmark_suite;
use dft_core::netlist::Netlist;
use dft_core::serve::{run_fleet, FleetSummary, ServeConfig, ServeOpts, SERVE_FORMAT};

/// Expected summary for the golden fleet (16 dies of mac4, default
/// seed/rate/windows). `windows_per_die` is part of the lock: it moves
/// only if the broadcast itself changes shape.
const GOLDEN_FLEET: FleetSummary = FleetSummary {
    dies: 16,
    tested: 16,
    passed: 11,
    failed: 5,
    defective: 5,
    retested: 5,
    harvested: 1,
    scrapped: 4,
    full: 11,
    quarantined: 0,
    untested: 0,
    dppm_risk: 0,
    signatures: 32,
    windows_per_die: 2,
};

fn mac4() -> Netlist {
    benchmark_suite()
        .into_iter()
        .find(|c| c.name == "mac4")
        .expect("mac4 in the benchmark suite")
        .netlist
}

fn bless_mode() -> bool {
    std::env::var("AIDFT_BLESS_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn golden_cfg() -> ServeConfig {
    ServeConfig {
        dies: 16,
        client_threads: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn golden_fleet_summary() {
    let nl = mac4();
    let summary = run_fleet(&nl, &golden_cfg(), &ServeOpts::default())
        .unwrap()
        .summary;
    if bless_mode() {
        println!("const GOLDEN_FLEET: FleetSummary = FleetSummary {{");
        println!("    dies: {},", summary.dies);
        println!("    tested: {},", summary.tested);
        println!("    passed: {},", summary.passed);
        println!("    failed: {},", summary.failed);
        println!("    defective: {},", summary.defective);
        println!("    retested: {},", summary.retested);
        println!("    harvested: {},", summary.harvested);
        println!("    scrapped: {},", summary.scrapped);
        println!("    full: {},", summary.full);
        println!("    quarantined: {},", summary.quarantined);
        println!("    untested: {},", summary.untested);
        println!("    dppm_risk: {},", summary.dppm_risk);
        println!("    signatures: {},", summary.signatures);
        println!("    windows_per_die: {},", summary.windows_per_die);
        println!("}};");
        return;
    }
    assert_eq!(
        summary, GOLDEN_FLEET,
        "fleet summary drifted — if intentional, re-bless with \
         AIDFT_BLESS_GOLDEN=1 (see file header)"
    );
}

/// Length and `fnv1a` hash of the journal file the golden fleet writes
/// on one client, checkpointing every 4 dies: five records, the last one
/// empty, each die in exactly one of them. `fnv1a` is FNV-1a in form
/// with the multiplier `0x1000_0000_01B3`, not the FNV-64 prime, so this
/// is not a standard FNV-1a value.
const GOLDEN_JOURNAL: (usize, u64) = (1203, 0x8856cb4964beeccc);

/// At one client the dies finish in id order, so the journal is a pure
/// function of the design and config: every record body, sequence
/// number and frame byte is pinned, not only the state they resume to.
#[test]
fn golden_journal_bytes() {
    let dir = std::env::temp_dir().join(format!("aidft-golden-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fleet.ckpt");
    let cfg = ServeConfig {
        client_threads: 1,
        checkpoint_every: 4,
        ..golden_cfg()
    };
    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        ..ServeOpts::default()
    };
    run_fleet(&mac4(), &cfg, &opts).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let got = (bytes.len(), fnv1a(&bytes));
    if bless_mode() {
        println!(
            "const GOLDEN_JOURNAL: (usize, u64) = ({}, {:#018x});",
            got.0, got.1
        );
        return;
    }
    assert_eq!(
        got, GOLDEN_JOURNAL,
        "fleet journal bytes drifted — if intentional, re-bless with \
         AIDFT_BLESS_GOLDEN=1 (see file header)"
    );
}

/// The rendered report is part of the stable CLI surface (CI diffs it
/// with the wall-clock suffix stripped): lock its shape.
#[test]
fn golden_report_shape() {
    let nl = mac4();
    let report = run_fleet(&nl, &golden_cfg(), &ServeOpts::default()).unwrap();
    let text = report.summary.render(std::time::Duration::from_millis(1));
    assert!(text.starts_with("fleet: 16 dies, 2 windows each"));
    assert!(text.contains("tested 16 | passed"));
    assert!(text.contains("quarantined 0 | untested 0 | dppm-risk 0"));
    assert!(text.contains("signatures verified 32"));
}
