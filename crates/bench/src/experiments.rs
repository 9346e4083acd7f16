//! Implementations of experiments E1-E12 (one function per table/figure).

use std::sync::OnceLock;
use std::time::Instant;

use dft_core::aichip::{
    criticality_sweep, hierarchical_plan, ssn_plan, Dataset, DeliveryStyle, FaultSiteClass,
    SocConfig,
};
use dft_core::atpg::{Atpg, AtpgConfig, CompactionMode, FaultModel};
use dft_core::bist::{
    insert_test_points, march_c_minus, march_ss, march_x, mats_plus, run_march, LogicBist,
    MemFault, MemFaultKind, SramModel,
};
use dft_core::checkpoint::CancelToken;
use dft_core::compress::ScanEdt;
use dft_core::diagnosis::{build_failure_log, diagnose};
use dft_core::fault::{collapse_dominance, collapse_equivalent, universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::{
    benchmark_suite, decoder, mac_pe, systolic_array, SystolicConfig,
};
use dft_core::scan::{insert_scan, ScanConfig, TestTimeModel};
use dft_core::trace::TraceHandle;

static THREADS: OnceLock<usize> = OnceLock::new();

/// Sets the worker-thread count for the simulation-heavy experiments
/// (`0` = one per hardware thread). Numbers are bit-identical for any
/// value; only wall-clock changes.
pub fn set_threads(n: usize) {
    let _ = THREADS.set(n);
}

fn threads() -> usize {
    *THREADS.get().unwrap_or(&1)
}

fn exec() -> Executor {
    Executor::with_threads(threads())
}

/// E1: fault coverage vs random-pattern count (the saturation curve).
pub fn e1_random_coverage() {
    println!("E1: stuck-at coverage vs random pattern count");
    let checkpoints = [1usize, 4, 16, 64, 256, 1024, 2048];
    print!("{:<10}", "circuit");
    for c in checkpoints {
        print!("{c:>8}");
    }
    println!();
    for c in selected_circuits(&["c17", "add32", "mult8", "parity16", "dec5", "mac8"]) {
        let sim = TapeKernel::compile(&c.netlist);
        let ps = PatternSet::random(&c.netlist, *checkpoints.last().unwrap(), 0xE1);
        let mut list = FaultList::new(universe_stuck_at(&c.netlist));
        sim.fault_batch(&ps, &mut list, &exec());
        print!("{:<10}", c.name);
        for &n in &checkpoints {
            let det = (0..list.len())
                .filter(|&i| match list.status(i) {
                    dft_core::fault::FaultStatus::Detected(p) => (p as usize) < n,
                    _ => false,
                })
                .count();
            print!("{:>7.1}%", 100.0 * det as f64 / list.len() as f64);
        }
        println!();
    }
    println!(
        "shape: fast rise then saturation; decoder (dec5) saturates lowest (random-resistant)."
    );
}

/// E2: fault-collapsing table.
pub fn e2_collapse_table() {
    println!("E2: fault collapsing (equivalence, then dominance)");
    println!(
        "{:<10} {:>9} {:>11} {:>7} {:>11} {:>7}",
        "circuit", "universe", "equiv", "ratio", "dominance", "ratio"
    );
    for c in benchmark_suite() {
        let faults = universe_stuck_at(&c.netlist);
        let col = collapse_equivalent(&c.netlist, &faults);
        let dom = collapse_dominance(&c.netlist, &col);
        println!(
            "{:<10} {:>9} {:>11} {:>6.1}% {:>11} {:>6.1}%",
            c.name,
            faults.len(),
            col.representatives().len(),
            100.0 * col.ratio(faults.len()),
            dom.len(),
            100.0 * dom.len() as f64 / faults.len() as f64
        );
    }
    println!("shape: equivalence keeps ~50-70%, dominance trims further.");
}

/// E3: ATPG sign-off table with ablations.
pub fn e3_atpg_signoff() {
    println!("E3: ATPG sign-off (random 128 + PODEM/SAT top-off + reverse-order compaction)");
    println!(
        "{:<10} {:>6} {:>8} {:>8} {:>7} {:>7} {:>9} {:>9}",
        "circuit", "gates", "patterns", "TC", "untest", "abort", "backtracks", "time"
    );
    for c in selected_circuits(&[
        "c17", "s27", "add32", "mult8", "alu8", "dec5", "mac8", "sys4x4",
    ]) {
        let run = Atpg::new(&c.netlist).run(&AtpgConfig::default());
        println!(
            "{:<10} {:>6} {:>8} {:>7.2}% {:>7} {:>7} {:>9} {:>8.0}ms",
            c.name,
            c.netlist.num_gates(),
            run.patterns.len(),
            run.test_coverage() * 100.0,
            run.untestable,
            run.aborted,
            run.podem.backtracks,
            run.elapsed.as_secs_f64() * 1e3,
        );
    }
    // Ablations on one representative circuit.
    let nl = dft_core::netlist::generators::alu(8);
    println!("\nablation on alu8 (no random phase):");
    for (label, cfg) in [
        (
            "no compaction     ",
            AtpgConfig {
                random_patterns: 0,
                compaction: CompactionMode::None,
                ..AtpgConfig::default()
            },
        ),
        (
            "static compaction ",
            AtpgConfig {
                random_patterns: 0,
                compaction: CompactionMode::Static,
                ..AtpgConfig::default()
            },
        ),
        (
            "dynamic compaction",
            AtpgConfig {
                random_patterns: 0,
                compaction: CompactionMode::Dynamic,
                ..AtpgConfig::default()
            },
        ),
        (
            "naive backtrace   ",
            AtpgConfig {
                random_patterns: 0,
                guided_backtrace: false,
                ..AtpgConfig::default()
            },
        ),
    ] {
        let run = Atpg::new(&nl).run(&cfg);
        println!(
            "  {label} {:>5} patterns  TC {:>6.2}%  {:>7} backtracks",
            run.patterns.len(),
            run.test_coverage() * 100.0,
            run.podem.backtracks
        );
    }
}

/// E4: EDT compression ratio vs chain count, the Illinois-scan baseline,
/// and the X-masking ablation.
pub fn e4_compression() {
    println!("E4: scan compression on sys4x4 (1000+ flops, deterministic cubes)");
    let nl = systolic_array(SystolicConfig {
        rows: 4,
        cols: 4,
        width: 4,
    });
    let run = Atpg::new(&nl).run(&AtpgConfig {
        random_patterns: 32, // small random phase -> plenty of cubes
        compaction: CompactionMode::None,
        ..AtpgConfig::default()
    });
    println!("({} deterministic cubes)", run.cubes.len());
    println!(
        "{:>7} {:>9} {:>11} {:>11} {:>7} {:>8} {:>14}",
        "chains", "channels", "flat bits", "edt bits", "ratio", "encoded", "illinois bcast"
    );
    for &chains in &[8usize, 16, 32, 64] {
        let scan = insert_scan(&nl, &ScanConfig { num_chains: chains });
        let chain_len = scan.shift_cycles();
        for &channels in &[1usize, 2] {
            let edt = ScanEdt::new(&nl, &scan, channels, 32, 0xE4);
            let stats = edt.compress_all(&run.cubes, &CancelToken::new());
            // Illinois baseline at the same geometry.
            let il = dft_core::compress::IllinoisScan::new(chains, chain_len);
            let cell_cubes: Vec<_> = run.cubes.iter().map(|c| edt.to_cell_cube(c)).collect();
            let (_, bcast_rate) = il.total_cycles(&cell_cubes);
            println!(
                "{chains:>7} {channels:>9} {:>11} {:>11} {:>6.1}x {:>7.0}% {:>13.0}%",
                stats.flat_bits,
                stats.compressed_bits,
                stats.ratio(),
                stats.encode_rate() * 100.0,
                bcast_rate * 100.0
            );
        }
    }
    println!("shape: EDT ratio grows with chains at fixed channels; Illinois broadcast rate collapses as chains share conflicting care bits.");

    // X-masking ablation.
    use dft_core::compress::{signature_with_mask, XMask};
    let responses: Vec<Vec<Option<bool>>> = (0..16)
        .map(|cyc| {
            (0..8)
                .map(|ch| {
                    if cyc == 5 && ch == 3 {
                        None // one unknown bit
                    } else {
                        Some((cyc * 3 + ch) % 2 == 0)
                    }
                })
                .collect()
        })
        .collect();
    let (_, corrupted) = signature_with_mask(8, &responses, None);
    let mut mask = XMask::new(16);
    mask.mask(5, 3);
    let (_, masked_ok) = signature_with_mask(8, &responses, Some(&mask));
    println!(
        "x-masking ablation: unmasked X corrupts signature: {corrupted}; with mask: corrupted={masked_ok}"
    );
}

/// E5: LBIST coverage vs pattern count, with and without test points.
pub fn e5_lbist() {
    println!("E5: logic BIST coverage (PRPG patterns), test-point ablation");
    let nl = decoder(6);
    let (tp_nl, report) = insert_test_points(&nl, 12);
    let checkpoints = [64usize, 256, 1024, 4096];
    let base = LogicBist::new(&nl, 32)
        .threads(threads())
        .coverage_curve(&checkpoints, 0xE5);
    let boosted = LogicBist::new(&tp_nl, 32)
        .threads(threads())
        .coverage_curve(&checkpoints, 0xE5);
    println!(
        "{:>9} {:>14} {:>20}",
        "patterns", "dec6 base", "dec6 + testpoints"
    );
    for (b, t) in base.iter().zip(&boosted) {
        println!("{:>9} {:>13.2}% {:>19.2}%", b.0, b.1 * 100.0, t.1 * 100.0);
    }
    println!(
        "({} test points inserted, +{} gates)",
        report.points.len(),
        report.added_gates
    );
    println!("shape: test points lift the random-resistant curve at every pattern count.");
}

/// Generator for a memory-fault class: `(aggressor, index) -> fault`.
type FaultClassGen = Box<dyn Fn(usize, usize) -> MemFaultKind>;

/// E6: March-algorithm x fault-class detection matrix.
pub fn e6_march_matrix() {
    println!("E6: March detection matrix (64-bit SRAM, 40 random faults/class)");
    let algorithms = [mats_plus(), march_x(), march_c_minus(), march_ss()];
    let classes: [(&str, FaultClassGen); 6] = [
        (
            "SAF",
            Box::new(|_, i| MemFaultKind::StuckAt { value: i % 2 == 0 }),
        ),
        (
            "TF",
            Box::new(|_, i| MemFaultKind::Transition { rising: i % 2 == 0 }),
        ),
        (
            "CFin",
            Box::new(|agg, i| MemFaultKind::CouplingInversion {
                aggressor: agg,
                rising: i % 2 == 0,
            }),
        ),
        (
            "CFid",
            Box::new(|agg, i| MemFaultKind::CouplingIdempotent {
                aggressor: agg,
                rising: i % 2 == 0,
                value: (i / 2) % 2 == 0,
            }),
        ),
        (
            "CFst",
            Box::new(|agg, i| MemFaultKind::CouplingState {
                aggressor: agg,
                agg_value: i % 2 == 0,
                value: (i / 2) % 2 == 0,
            }),
        ),
        (
            "AF",
            Box::new(|agg, _| MemFaultKind::AddressAlias { target: agg }),
        ),
    ];
    print!("{:<6}", "class");
    for a in &algorithms {
        print!("{:>10}", a.name);
    }
    println!();
    for (name, make) in &classes {
        print!("{name:<6}");
        for algo in &algorithms {
            let mut detected = 0;
            let trials = 40;
            for i in 0..trials {
                let cell = (i * 13 + 5) % 64;
                let agg = (cell + 17 + i) % 64;
                let agg = if agg == cell { (agg + 1) % 64 } else { agg };
                let mut mem = SramModel::with_fault(
                    64,
                    MemFault {
                        cell,
                        kind: make(agg, i),
                    },
                );
                if run_march(algo, &mut mem).detected {
                    detected += 1;
                }
            }
            print!("{:>9.0}%", 100.0 * detected as f64 / trials as f64);
        }
        println!();
    }
    println!("shape: MATS+ (5n) misses coupling classes; March C-/SS approach 100%.");
}

/// E7: identical-core pattern reuse.
pub fn e7_core_reuse() {
    println!("E7: replicated-core test time, flat vs broadcast (mac4 core)");
    let core = mac_pe(4);
    let atpg = AtpgConfig::default();
    println!(
        "{:>6} {:>9} {:>13} {:>16} {:>9}",
        "cores", "patterns", "flat cycles", "broadcast cyc", "speedup"
    );
    for cores in [4usize, 8, 16, 32, 64] {
        let plan = hierarchical_plan(
            &core,
            &SocConfig {
                num_cores: cores,
                ..SocConfig::default()
            },
            &atpg,
            &TraceHandle::disabled(),
        );
        println!(
            "{cores:>6} {:>9} {:>13} {:>16} {:>8.1}x",
            plan.patterns_per_core,
            plan.flat_cycles,
            plan.broadcast_cycles,
            plan.speedup()
        );
    }
    println!("shape: broadcast speedup grows ~linearly with core count.");
}

/// E8: diagnosis resolution.
pub fn e8_diagnosis() {
    println!("E8: diagnosis resolution (mac4, 128 patterns, sampled defects)");
    let nl = mac_pe(4);
    let patterns = PatternSet::random(&nl, 128, 0xE8);
    let universe = universe_stuck_at(&nl);
    let mut trials = 0usize;
    let mut rank1_net = 0usize;
    let mut top5_net = 0usize;
    let mut cand_sizes = 0usize;
    let started = Instant::now();
    for (i, &defect) in universe.iter().enumerate() {
        if i % 23 != 0 {
            continue;
        }
        let log = build_failure_log(&nl, &patterns, defect);
        if log.is_clean() {
            continue;
        }
        let cands = diagnose(&nl, &patterns, &log, 5);
        trials += 1;
        cand_sizes += cands.len();
        let hit =
            |c: &dft_core::diagnosis::Candidate| c.fault.site.net(&nl) == defect.site.net(&nl);
        if cands.first().map(hit).unwrap_or(false) {
            rank1_net += 1;
        }
        if cands.iter().any(hit) {
            top5_net += 1;
        }
    }
    println!("defect trials:        {trials}");
    println!(
        "net ranked #1:        {:.1}%",
        100.0 * rank1_net as f64 / trials.max(1) as f64
    );
    println!(
        "net in top-5:         {:.1}%",
        100.0 * top5_net as f64 / trials.max(1) as f64
    );
    println!(
        "avg candidates:       {:.1}",
        cand_sizes as f64 / trials.max(1) as f64
    );
    println!("elapsed:              {:?}", started.elapsed());
    println!("shape: high top-5 localization; rank-1 limited by equivalent faults.");

    // Bridge-defect extension: inject shorts, diagnose with the bridge
    // engine.
    use dft_core::diagnosis::{build_bridge_failure_log, diagnose_bridges};
    use dft_core::fault::bridge_universe;
    let bridges = bridge_universe(&nl, 2);
    let mut btrials = 0usize;
    let mut bpair = 0usize;
    let mut bnet = 0usize;
    for (i, &defect) in bridges.iter().enumerate() {
        if i % 29 != 0 {
            continue;
        }
        let log = build_bridge_failure_log(&nl, &patterns, defect);
        if log.is_clean() {
            continue;
        }
        btrials += 1;
        let cands = diagnose_bridges(&nl, &patterns, &log, 16, 8);
        if cands
            .iter()
            .any(|c| c.bridge.a == defect.a && c.bridge.b == defect.b)
        {
            bpair += 1;
        }
        if cands.iter().any(|c| {
            [c.bridge.a, c.bridge.b].contains(&defect.a)
                || [c.bridge.a, c.bridge.b].contains(&defect.b)
        }) {
            bnet += 1;
        }
    }
    println!("\nbridge-defect extension ({btrials} injected shorts):");
    println!(
        "true pair in top-8:     {:.0}%",
        100.0 * bpair as f64 / btrials.max(1) as f64
    );
    println!(
        "either net in top-8:    {:.0}%",
        100.0 * bnet as f64 / btrials.max(1) as f64
    );
}

/// E9: fault criticality of int8 inference.
pub fn e9_criticality() {
    println!("E9: inference accuracy under PE product-bit faults (8x8 array)");
    let data = Dataset::synthetic(10, 16, 400, 0xE9);
    let model = data.prototype_classifier(3);
    let report = criticality_sweep(&model, 8, 8, &data, 32);
    println!("fault-free accuracy: {:.1}%", report.baseline * 100.0);
    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "site class", "mean acc", "worst acc", "faults"
    );
    for class in FaultSiteClass::ALL {
        if let Some((_, mean, worst, n)) = report.per_class.iter().find(|(c, ..)| *c == class) {
            println!(
                "{:<12} {:>9.1}% {:>9.1}% {:>8}",
                class.name(),
                mean * 100.0,
                worst * 100.0,
                n
            );
        }
    }
    println!("shape: MSB faults catastrophic, LSB faults benign -> criticality-aware DFT.");
}

/// E10: scan-architecture tradeoff.
pub fn e10_scan_tradeoff() {
    println!("E10: chains vs test time & pins (sys4x4, fixed 500 patterns)");
    let nl = systolic_array(SystolicConfig {
        rows: 4,
        cols: 4,
        width: 4,
    });
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>6}",
        "chains", "max length", "cycles", "time(ms)", "pins"
    );
    for &chains in &[1usize, 4, 16, 64, 256] {
        let scan = insert_scan(&nl, &ScanConfig { num_chains: chains });
        let m = TestTimeModel::for_architecture(&scan, 500, 100);
        println!(
            "{:>7} {:>12} {:>12} {:>12.3} {:>6}",
            m.chains,
            m.max_chain_len,
            m.total_cycles(),
            m.test_time_ms(),
            m.pin_count()
        );
    }
    println!(
        "shape: test time ~1/chains; pin count grows 2/chain — the classic tradeoff EDT breaks."
    );
}

/// E11: transition-fault ATPG vs stuck-at.
pub fn e11_transition() {
    println!("E11: broadside transition ATPG (vs stuck-at on the same designs)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "circuit", "SA cov", "TF cov", "TF testcov", "pairs", "untest", "abort"
    );
    let circuits = ["s27", "cnt8", "sr16", "mac4", "mac8", "sys2x2", "sys4x4"];
    for c in selected_circuits(&circuits) {
        let sa = Atpg::new(&c.netlist).run(&AtpgConfig::new().threads(threads()));
        let tf = Atpg::new(&c.netlist).run(
            &AtpgConfig::new()
                .fault_model(FaultModel::Transition)
                .seed(0xE11)
                .threads(threads()),
        );
        println!(
            "{:>8} {:>9.1}% {:>9.1}% {:>9.2}% {:>9} {:>9} {:>9}",
            c.name,
            sa.fault_list.fault_coverage() * 100.0,
            tf.fault_list.fault_coverage() * 100.0,
            tf.fault_list.test_coverage() * 100.0,
            tf.patterns.len(),
            tf.untestable,
            tf.aborted
        );
    }
    println!("shape: TF raw coverage below SA (launch constraint); test coverage recovers after excluding broadside-untestable faults.");
}

/// E12: streaming-scan-network scaling.
pub fn e12_ssn() {
    println!(
        "E12: scan delivery scaling, daisy chain vs streaming bus (2000 cells/core, 100 patterns)"
    );
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>9}",
        "cores", "daisy", "ssn 32b", "ssn 128b", "32b gain"
    );
    for cores in [2usize, 4, 8, 16, 32, 64, 128] {
        let daisy = ssn_plan(DeliveryStyle::DaisyChain, cores, 2000, 4, 100).total_cycles;
        let ssn32 = ssn_plan(
            DeliveryStyle::StreamingBus { bus_bits: 32 },
            cores,
            2000,
            4,
            100,
        )
        .total_cycles;
        let ssn128 = ssn_plan(
            DeliveryStyle::StreamingBus { bus_bits: 128 },
            cores,
            2000,
            4,
            100,
        )
        .total_cycles;
        println!(
            "{cores:>6} {daisy:>14} {ssn32:>14} {ssn128:>14} {:>8.1}x",
            daisy as f64 / ssn32 as f64
        );
    }
    println!("shape: daisy grows linearly with cores; SSN flat until the bus saturates.");
}

/// REPAIR: built-in self-repair and graceful degradation. Two tables:
/// repairable-vs-unrepairable SRAM yield across injected fault densities
/// (memory BISR with 2+2 spares on a 16x16 array), and the degraded-SoC
/// ship matrix (grade, recomputed broadcast test time, and harvested
/// inference accuracy versus bad-core count). Writes both to
/// `BENCH_repair.json` (uploaded as a CI artifact).
pub fn repair_report() {
    use dft_core::repair::{
        plan_degradation, run_inference_check, yield_sweep, BisrEngine, SpareConfig, SramGeometry,
    };

    let handle = MetricsHandle::enabled();

    // Table 1: SRAM repair yield vs injected fault density.
    let geom = SramGeometry { rows: 16, cols: 16 };
    let spares = SpareConfig {
        spare_rows: 2,
        spare_cols: 2,
    };
    let engine = BisrEngine::new().with_metrics(handle.clone());
    println!(
        "REPAIR: {}x{} SRAM + {}r/{}c spares, March C-, 25 dies per density",
        geom.rows, geom.cols, spares.spare_rows, spares.spare_cols
    );
    println!(
        "{:>7} {:>6} {:>9} {:>13} {:>7}",
        "faults", "clean", "repaired", "unrepairable", "yield"
    );
    let sweep = yield_sweep(
        &engine,
        geom,
        &spares,
        &[0, 1, 2, 3, 4, 5, 6, 8, 12],
        25,
        0xBE9C,
    );
    let mut yield_rows = Vec::new();
    for p in &sweep {
        println!(
            "{:>7} {:>6} {:>9} {:>13} {:>6.0}%",
            p.faults_injected,
            p.clean,
            p.repaired,
            p.unrepairable,
            p.yield_fraction() * 100.0
        );
        yield_rows.push(format!(
            "{{\"faults\":{},\"attempts\":{},\"clean\":{},\"repaired\":{},\
             \"unrepairable\":{},\"yield\":{:.4}}}",
            p.faults_injected,
            p.attempts,
            p.clean,
            p.repaired,
            p.unrepairable,
            p.yield_fraction()
        ));
    }
    println!("shape: full yield while faults fit the spare budget, then a sharp knee.");

    // Table 2: degraded-SoC ship matrix. One ATPG run on the core fixes
    // per_core_cycles; everything else is rescheduling + inference.
    let core = mac_pe(4);
    let cfg = SocConfig {
        threads: threads(),
        ..SocConfig::default()
    };
    let plan = hierarchical_plan(
        &core,
        &cfg,
        &AtpgConfig::new().threads(threads()),
        &TraceHandle::disabled(),
    );
    let max_bad_cores = 2usize;
    println!(
        "\ndegraded-SoC ship matrix: {} cores, floor N-{max_bad_cores}, \
         per-core {} cycles",
        cfg.num_cores, plan.per_core_cycles
    );
    println!(
        "{:>9} {:>6} {:>12} {:>13} {:>12} {:>10} {:>10}",
        "bad cores", "ships", "bcast cyc", "test ms", "harvest acc", "faulty acc", "thruput"
    );
    let mut ship_rows = Vec::new();
    for bad in 0..=4usize {
        let mut pass_map = vec![true; cfg.num_cores];
        for core_idx in 0..bad {
            // Spread the bad cores across the die deterministically.
            pass_map[(core_idx * 5 + 3) % cfg.num_cores] = false;
        }
        let hplan = plan_degradation(
            &pass_map,
            plan.per_core_cycles,
            &cfg,
            max_bad_cores,
            &handle,
        );
        let check = run_inference_check(cfg.num_cores, &hplan.disabled, 0xC0DE);
        println!(
            "{:>9} {:>6} {:>12} {:>13.3} {:>11.1}% {:>9.1}% {:>9.0}%",
            bad,
            if hplan.ships { "yes" } else { "no" },
            hplan.broadcast_cycles,
            hplan.test_time_ms,
            check.harvested_accuracy * 100.0,
            check.faulty_accuracy * 100.0,
            check.throughput_fraction * 100.0
        );
        ship_rows.push(format!(
            "{{\"bad_cores\":{},\"good_cores\":{},\"ships\":{},\"broadcast_cycles\":{},\
             \"flat_cycles\":{},\"test_time_ms\":{:.6},\"harvested_accuracy\":{:.4},\
             \"faulty_accuracy\":{:.4},\"throughput_fraction\":{:.4}}}",
            bad,
            hplan.good_cores,
            hplan.ships,
            hplan.broadcast_cycles,
            hplan.flat_cycles,
            hplan.test_time_ms,
            check.harvested_accuracy,
            check.faulty_accuracy,
            check.throughput_fraction
        ));
    }
    println!(
        "shape: accuracy holds while throughput degrades linearly; past the floor the die scraps."
    );

    let json = format!(
        "{{\n  \"sram\": {{\"rows\":{},\"cols\":{},\"spare_rows\":{},\"spare_cols\":{}}},\n  \
         \"yield_sweep\": [{}],\n  \"soc\": {{\"cores\":{},\"max_bad_cores\":{},\
         \"per_core_cycles\":{}}},\n  \"degradation\": [{}]\n}}\n",
        geom.rows,
        geom.cols,
        spares.spare_rows,
        spares.spare_cols,
        yield_rows.join(","),
        cfg.num_cores,
        max_bad_cores,
        plan.per_core_cycles,
        ship_rows.join(",")
    );
    std::fs::write("BENCH_repair.json", json).expect("write BENCH_repair.json");
    println!(
        "wrote BENCH_repair.json ({} yield points, {} ship rows)",
        sweep.len(),
        5
    );
}

/// Picks circuits by name from the standard suite.
fn selected_circuits(names: &[&str]) -> Vec<dft_core::netlist::generators::NamedCircuit> {
    benchmark_suite()
        .into_iter()
        .filter(|c| names.contains(&c.name))
        .collect()
}
