//! End-to-end integration: scan -> ATPG -> compression -> sign-off on the
//! AI-chip structures, exercising every crate through the public API.

use dft_core::atpg::{Atpg, AtpgConfig, CompactionMode};
use dft_core::compress::ScanEdt;
use dft_core::fault::{universe_stuck_at, FaultList, FaultStatus};
use dft_core::logicsim::{Executor, SimKernel, TapeKernel};
use dft_core::netlist::generators::{benchmark_suite, systolic_array, SystolicConfig};
use dft_core::scan::{chain_loads, expected_unloads, insert_scan, ScanConfig};
use dft_core::DftFlow;

#[test]
fn full_flow_on_systolic_array() {
    let nl = systolic_array(SystolicConfig {
        rows: 2,
        cols: 2,
        width: 4,
    });
    let report = DftFlow::new(&nl)
        .chains(8)
        .channels(2)
        .ring_len(32)
        .atpg_config(AtpgConfig {
            random_patterns: 256,
            ..AtpgConfig::default()
        })
        .run();
    assert!(
        report.test_coverage > 0.97,
        "coverage {} aborted {}",
        report.test_coverage,
        report.aborted
    );
    let c = report.compression.expect("sequential design compresses");
    assert!(c.encode_rate() > 0.5, "encode rate {}", c.encode_rate());
    assert!(report.scan.verify_chains());
}

#[test]
fn atpg_patterns_verified_by_independent_fault_sim() {
    // The ATPG driver's claimed coverage must reproduce when the final
    // pattern set is re-simulated from scratch.
    for circuit in benchmark_suite() {
        if circuit.netlist.num_gates() > 4000 {
            continue; // keep CI time bounded; big arrays covered above
        }
        let run = Atpg::new(&circuit.netlist).run(&AtpgConfig {
            random_patterns: 64,
            backtrack_limit: 128,
            ..AtpgConfig::default()
        });
        let sim = TapeKernel::compile(&circuit.netlist);
        let mut fresh = FaultList::new(universe_stuck_at(&circuit.netlist));
        sim.fault_batch(&run.patterns, &mut fresh, &Executor::serial());
        assert_eq!(
            fresh.num_detected(),
            run.fault_list.num_detected(),
            "{}: sign-off mismatch",
            circuit.name
        );
    }
}

#[test]
fn compaction_modes_preserve_coverage() {
    use dft_core::netlist::generators::alu;
    let nl = alu(4);
    let mut coverages = Vec::new();
    for mode in [
        CompactionMode::None,
        CompactionMode::Static,
        CompactionMode::Dynamic,
    ] {
        let run = Atpg::new(&nl).run(&AtpgConfig {
            random_patterns: 0,
            compaction: mode,
            ..AtpgConfig::default()
        });
        coverages.push(run.fault_list.test_coverage());
    }
    for c in &coverages {
        assert!((c - coverages[0]).abs() < 1e-9, "{coverages:?}");
    }
}

/// Compaction never costs a detection: on every suite design, at one
/// and four threads, the statically compacted set detects exactly the
/// universe faults of the uncompacted one, with the same untestable and
/// aborted verdicts, from no more patterns.
#[test]
fn static_compaction_detects_exactly_what_the_uncompacted_set_does() {
    for circuit in benchmark_suite() {
        for threads in [1, 4] {
            let run = |compaction| {
                Atpg::new(&circuit.netlist).run(&AtpgConfig {
                    compaction,
                    threads,
                    ..AtpgConfig::default()
                })
            };
            let (none, compacted) = (run(CompactionMode::None), run(CompactionMode::Static));
            let context = format!("{} t{threads}", circuit.name);
            assert!(compacted.patterns.len() <= none.patterns.len(), "{context}");
            // A detection's pattern index differs between the sets.
            let verdict = |s: FaultStatus| (!s.is_detected()).then_some(s);
            let (a, b) = (&compacted.fault_list, &none.fault_list);
            for i in 0..b.len() {
                assert_eq!(
                    verdict(a.status(i)),
                    verdict(b.status(i)),
                    "{context}: fault {}",
                    b.faults()[i].describe(&circuit.netlist)
                );
            }
        }
    }
}

#[test]
fn scan_formatting_round_trips_through_edt() {
    // Take a real ATPG cube, push it through the EDT codec, and check
    // the expanded chain loads equal the direct chain formatting.
    use dft_core::netlist::generators::counter;
    let nl = counter(16);
    let run = Atpg::new(&nl).run(&AtpgConfig {
        random_patterns: 0,
        compaction: CompactionMode::None,
        ..AtpgConfig::default()
    });
    let scan = insert_scan(&nl, &ScanConfig { num_chains: 4 });
    let edt = ScanEdt::new(&nl, &scan, 2, 24, 0x11);
    let mut checked = 0;
    for cube in &run.cubes {
        let cells = edt.to_cell_cube(cube);
        let Some(compressed) = edt.codec().encode(&cells) else {
            continue;
        };
        let loads = edt.codec().expand(&compressed);
        assert!(edt.codec().satisfies(&cells, &loads));
        // Cross-check against direct (uncompressed) chain formatting for
        // the cube's care bits.
        let pattern = cube.fill_with(false);
        let direct = chain_loads(&nl, &scan, &pattern);
        for (ci, chain) in scan.chains.iter().enumerate() {
            for (pos, _) in chain.iter().enumerate() {
                let cell = ci * edt.codec().chain_len() + pos;
                if let Some(v) = cells.get(cell) {
                    // direct loads are in shift order (reversed).
                    let shift_idx = chain.len() - 1 - pos;
                    assert_eq!(direct[ci][shift_idx], v, "cube care bit mismatch");
                    assert_eq!(loads[ci][pos], v);
                }
            }
        }
        checked += 1;
    }
    assert!(checked > 0, "no cube encoded");
}

#[test]
fn unload_expectations_match_simulation() {
    use dft_core::logicsim::{FiveSim, PatternSet};
    use dft_core::netlist::generators::s27;
    let nl = s27();
    let scan = insert_scan(&nl, &ScanConfig { num_chains: 1 });
    let ps = PatternSet::random(&nl, 10, 4);
    let unloads = expected_unloads(&nl, &scan, &ps);
    let sim = FiveSim::new(&nl);
    for (pi, p) in ps.iter().enumerate() {
        let resp = sim.response(p, None);
        // Flop captures start after the POs in the response vector.
        let ffs = nl.dffs();
        for (ci, chain) in scan.chains.iter().enumerate() {
            for (k, ff) in chain.iter().rev().enumerate() {
                let ppi = ffs.iter().position(|f| f == ff).unwrap();
                assert_eq!(unloads[pi][ci][k], resp[nl.num_outputs() + ppi]);
            }
        }
    }
}
