//! Golden-value regression suite: locks the end-to-end flow results and
//! hot-path metric counters for a fixed circuit set. Every number below
//! is fully deterministic (seeded RNG, thread-count-invariant merging),
//! so any drift means an algorithmic change — intentional or not.
//!
//! To re-bless after an intentional change:
//!
//! ```sh
//! AIDFT_BLESS_GOLDEN=1 cargo test -p dft-core --test golden_metrics -- --nocapture
//! ```
//!
//! and paste the printed rows over the `GOLDEN` table.

use dft_core::metrics::MetricsSnapshot;
use dft_core::netlist::generators::{
    benchmark_suite, random_logic, systolic_array, SystolicConfig,
};
use dft_core::netlist::Netlist;
use dft_core::DftFlow;

/// Expected flow results + metric counters for one circuit.
struct Golden {
    name: &'static str,
    /// Final pattern count after compaction.
    patterns: usize,
    /// Stuck-at fault coverage in basis points (`round(fc * 10_000)`),
    /// stored as an integer so equality is exact.
    coverage_bp: u64,
    untestable: usize,
    aborted: usize,
    /// EDT stimulus compression ratio in hundredths (`round(ratio*100)`),
    /// zero for designs without scan compression.
    ratio_centi: u64,
    /// (counter name, expected value) pairs from the metric snapshot.
    counters: &'static [(&'static str, u64)],
}

/// One row per seed circuit. Pure-combinational c17 exercises the
/// ATPG/sim counters without EDT; the scan designs lock the compression
/// path too. sys4x4 and rand500_s2 are the designs of the
/// `signoff_systolic` and `atpg_random` benchmark workloads, so their
/// PODEM and SAT work counters catch an algorithmic blow-up on any
/// machine.
const GOLDEN: &[Golden] = &[
    Golden {
        name: "c17",
        patterns: 128,
        coverage_bp: 10000,
        untestable: 0,
        aborted: 0,
        ratio_centi: 0,
        counters: &[
            ("atpg_patterns", 128),
            ("podem_backtracks", 0),
            ("faultsim_gate_evals", 256),
            ("edt_cubes_attempted", 0),
        ],
    },
    Golden {
        name: "mac4",
        patterns: 130,
        coverage_bp: 9672,
        untestable: 14,
        aborted: 0,
        ratio_centi: 77,
        counters: &[
            ("atpg_patterns", 130),
            ("podem_calls", 16),
            ("podem_backtracks", 81),
            ("podem_simulations", 240),
            ("podem_decisions", 147),
            ("podem_gate_evals", 5968),
            ("faultsim_gate_evals", 36316),
            ("atpg_escalations", 4),
            ("atpg_rescued", 4),
            ("edt_cubes_attempted", 2),
            ("edt_cubes_encoded", 2),
            ("gf2_solves", 2),
        ],
    },
    Golden {
        name: "sys2x2",
        patterns: 135,
        coverage_bp: 9668,
        untestable: 56,
        aborted: 0,
        ratio_centi: 100,
        counters: &[
            ("atpg_patterns", 135),
            ("podem_backtracks", 340),
            ("podem_simulations", 1117),
            ("podem_decisions", 719),
            ("podem_gate_evals", 62023),
            ("faultsim_gate_evals", 215535),
            ("atpg_escalations", 16),
            ("atpg_rescued", 16),
            ("edt_cubes_encoded", 7),
        ],
    },
    Golden {
        name: "sys4x4",
        patterns: 137,
        coverage_bp: 9667,
        untestable: 224,
        aborted: 0,
        ratio_centi: 143,
        counters: &[
            ("atpg_patterns", 137),
            ("podem_calls", 257),
            ("podem_backtracks", 1323),
            ("podem_simulations", 3892),
            ("podem_decisions", 2376),
            ("podem_gate_evals", 680811),
            ("faultsim_gate_evals", 835335),
            ("atpg_escalations", 64),
            ("atpg_rescued", 64),
            ("sat_conflicts", 0),
            ("edt_cubes_attempted", 9),
            ("edt_cubes_encoded", 9),
            ("gf2_solves", 9),
        ],
    },
    Golden {
        name: "rand500_s2",
        patterns: 161,
        coverage_bp: 4817,
        untestable: 1150,
        aborted: 0,
        ratio_centi: 0,
        counters: &[
            ("atpg_patterns", 161),
            ("podem_calls", 1188),
            ("podem_backtracks", 10004),
            ("podem_simulations", 23312),
            ("podem_decisions", 12517),
            ("podem_gate_evals", 3675537),
            ("faultsim_gate_evals", 217250),
            ("atpg_escalations", 397),
            ("atpg_rescued", 397),
            ("sat_conflicts", 793),
        ],
    },
];

fn circuit(name: &str) -> Netlist {
    match name {
        "sys2x2" => systolic_array(SystolicConfig {
            rows: 2,
            cols: 2,
            width: 4,
        }),
        // The `atpg_random` benchmark workload's design.
        "rand500_s2" => random_logic(32, 500, 2),
        _ => {
            benchmark_suite()
                .into_iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("unknown golden circuit `{name}`"))
                .netlist
        }
    }
}

fn bless_mode() -> bool {
    std::env::var("AIDFT_BLESS_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Prints a `Golden` row literal for the observed run (bless mode).
fn print_row(
    g: &Golden,
    patterns: usize,
    cov_bp: u64,
    unt: usize,
    abt: usize,
    ratio: u64,
    snap: &MetricsSnapshot,
) {
    println!("    Golden {{");
    println!("        name: \"{}\",", g.name);
    println!("        patterns: {patterns},");
    println!("        coverage_bp: {cov_bp},");
    println!("        untestable: {unt},");
    println!("        aborted: {abt},");
    println!("        ratio_centi: {ratio},");
    println!("        counters: &[");
    for (key, _) in g.counters {
        println!("            (\"{}\", {}),", key, snap.counter(key));
    }
    println!("        ],");
    println!("    }},");
}

#[test]
fn golden_flow_results_and_counters() {
    let mut failures = Vec::new();
    for g in GOLDEN {
        let nl = circuit(g.name);
        // threads(1) is not load-bearing (merging is thread-count
        // invariant, proven by integration_properties), just fastest for
        // these small designs.
        let report = DftFlow::new(&nl).threads(1).run();
        let cov_bp = (report.fault_coverage * 10_000.0).round() as u64;
        let ratio_centi = report
            .compression
            .as_ref()
            .map(|c| (c.ratio() * 100.0).round() as u64)
            .unwrap_or(0);
        if bless_mode() {
            print_row(
                g,
                report.patterns,
                cov_bp,
                report.untestable,
                report.aborted,
                ratio_centi,
                &report.metrics,
            );
            continue;
        }
        let mut check = |what: &str, got: u64, want: u64| {
            if got != want {
                failures.push(format!("{}: {what} = {got}, golden {want}", g.name));
            }
        };
        check("patterns", report.patterns as u64, g.patterns as u64);
        check("coverage_bp", cov_bp, g.coverage_bp);
        check("untestable", report.untestable as u64, g.untestable as u64);
        check("aborted", report.aborted as u64, g.aborted as u64);
        check("ratio_centi", ratio_centi, g.ratio_centi);
        for (key, want) in g.counters {
            check(key, report.metrics.counter(key), *want);
        }
    }
    assert!(
        failures.is_empty(),
        "golden drift ({} mismatches) — if intentional, re-bless with \
         AIDFT_BLESS_GOLDEN=1 (see file header):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
}

/// Golden snapshot of the repair flow: one seeded faulty SRAM through
/// the full BISR loop, and one 16-core SoC with two bad cores through
/// screen → harvest → degraded inference. All integers (accuracies in
/// basis points) so equality is exact; re-bless like the flow table.
struct GoldenRepair {
    /// BISR on a 16x16 + 2r/2c SRAM with 3 seeded point faults.
    sram_initial_fails: usize,
    sram_rounds: usize,
    sram_spares_used: usize,
    sram_repaired: bool,
    /// Harvesting a 16-core SoC with seeded bad cores [4, 13].
    soc_good_cores: usize,
    soc_broadcast_cycles: u64,
    soc_flat_cycles: u64,
    healthy_acc_bp: u64,
    faulty_acc_bp: u64,
    harvested_acc_bp: u64,
}

const GOLDEN_REPAIR: GoldenRepair = GoldenRepair {
    sram_initial_fails: 3,
    sram_rounds: 1,
    sram_spares_used: 3,
    sram_repaired: true,
    soc_good_cores: 14,
    soc_broadcast_cycles: 1009,
    soc_flat_cycles: 5495,
    healthy_acc_bp: 10000,
    faulty_acc_bp: 9063,
    harvested_acc_bp: 10000,
};

#[test]
fn golden_repair_flow() {
    use dft_core::aichip::{broadcast_screen, hierarchical_plan, SocConfig};
    use dft_core::atpg::AtpgConfig;
    use dft_core::bist::SramModel;
    use dft_core::metrics::MetricsHandle;
    use dft_core::netlist::generators::mac_pe;
    use dft_core::repair::{
        plan_degradation, random_point_faults, run_inference_check, BisrEngine, SpareConfig,
        SramGeometry,
    };
    use dft_core::trace::TraceHandle;

    let geom = SramGeometry { rows: 16, cols: 16 };
    let spares = SpareConfig {
        spare_rows: 2,
        spare_cols: 2,
    };
    let faults = random_point_faults(geom, &spares, 3, 0xB15);
    let physical = SramModel::with_faults(spares.physical_size(&geom), faults);
    let report = BisrEngine::new().run(&physical, geom, &spares);

    let core = mac_pe(4);
    let cfg = SocConfig {
        threads: 1,
        ..SocConfig::default()
    };
    let atpg = AtpgConfig::new().threads(1);
    let plan = hierarchical_plan(&core, &cfg, &atpg, &TraceHandle::disabled());
    let pass_map = broadcast_screen(&core, &cfg, &atpg, &[4, 13], &TraceHandle::disabled());
    let hplan = plan_degradation(
        &pass_map,
        plan.per_core_cycles,
        &cfg,
        2,
        &MetricsHandle::disabled(),
    );
    let check = run_inference_check(cfg.num_cores, &hplan.disabled, 0xC0DE);
    let bp = |acc: f64| (acc * 10_000.0).round() as u64;

    if bless_mode() {
        println!("const GOLDEN_REPAIR: GoldenRepair = GoldenRepair {{");
        println!("    sram_initial_fails: {},", report.initial_fails);
        println!("    sram_rounds: {},", report.rounds);
        println!("    sram_spares_used: {},", report.signature.spares_used());
        println!("    sram_repaired: {},", report.repaired);
        println!("    soc_good_cores: {},", hplan.good_cores);
        println!("    soc_broadcast_cycles: {},", hplan.broadcast_cycles);
        println!("    soc_flat_cycles: {},", hplan.flat_cycles);
        println!("    healthy_acc_bp: {},", bp(check.healthy_accuracy));
        println!("    faulty_acc_bp: {},", bp(check.faulty_accuracy));
        println!("    harvested_acc_bp: {},", bp(check.harvested_accuracy));
        println!("}};");
        return;
    }

    let g = &GOLDEN_REPAIR;
    assert_eq!(report.initial_fails, g.sram_initial_fails);
    assert_eq!(report.rounds, g.sram_rounds);
    assert_eq!(report.signature.spares_used(), g.sram_spares_used);
    assert_eq!(report.repaired, g.sram_repaired);
    assert!(report.ships());
    assert_eq!(hplan.good_cores, g.soc_good_cores);
    assert_eq!(hplan.disabled, vec![4, 13]);
    assert_eq!(hplan.broadcast_cycles, g.soc_broadcast_cycles);
    assert_eq!(hplan.flat_cycles, g.soc_flat_cycles);
    assert_eq!(bp(check.healthy_accuracy), g.healthy_acc_bp);
    assert_eq!(bp(check.faulty_accuracy), g.faulty_acc_bp);
    assert_eq!(bp(check.harvested_accuracy), g.harvested_acc_bp);
}

/// The snapshot JSON itself is part of the stable surface (CI artifacts
/// and `--metrics-json` consumers parse it): spot-check shape + ordering.
#[test]
fn snapshot_json_is_stable_and_ordered() {
    let nl = circuit("c17");
    let report = DftFlow::new(&nl).threads(1).run();
    let json = report.metrics.to_json();
    assert!(json.starts_with("{\n  \"counters\": {"));
    assert!(json.contains("\"histograms\""));
    assert!(json.contains("\"timers\""));
    // Counters appear in registry declaration order, so the JSON of two
    // identical runs is byte-identical apart from the timers section.
    let a = json.split("\"timers\"").next().unwrap().to_owned();
    let report2 = DftFlow::new(&nl).threads(1).run();
    let b = report2.metrics.to_json();
    let b = b.split("\"timers\"").next().unwrap();
    assert_eq!(a, b, "deterministic sections differ between identical runs");
}
