//! Property-based integration tests over the core invariants.

use std::collections::HashMap;

use proptest::prelude::*;

use dft_core::atpg::{
    Atpg, AtpgConfig, AtpgResult, FaultModel, Podem, SatAtpg, SAT_CONFLICT_BUDGET,
};
use dft_core::bist::{march_c_minus, run_march, MemFault, MemFaultKind, SramModel};
use dft_core::compress::EdtCodec;
use dft_core::fault::{collapse_equivalent, universe_stuck_at, Fault, FaultList, FaultStatus};
use dft_core::logicsim::{Executor, FiveSim, PatternSet, SimKernel, TapeKernel, TestCube};
use dft_core::netlist::generators::{benchmark_suite, counter, random_logic, s27};
use dft_core::netlist::{GateId, GateKind, Netlist};

/// A random netlist of `inputs` primary inputs, `flops` flip-flops and
/// `gates` logic gates of every kind, sometimes reading a constant. Each
/// flop's D pin and one to three primary outputs read random nets.
fn random_sequential(inputs: usize, flops: usize, gates: usize, seed: u64) -> Netlist {
    let mut state = seed;
    let mut pick = move |n: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut nl = Netlist::new("seq");
    let mut nets: Vec<GateId> = (0..inputs)
        .map(|i| nl.add_input(&format!("i{i}")))
        .collect();
    let qs: Vec<GateId> = (0..flops)
        .map(|i| nl.add_dff(nets[0], &format!("q{i}")))
        .collect();
    nets.extend(&qs);
    if pick(4) == 0 {
        let kind = [GateKind::Const0, GateKind::Const1][pick(2)];
        nets.push(nl.add_gate(kind, vec![], "k"));
    }
    const KINDS: [GateKind; 9] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Mux2,
    ];
    for g in 0..gates {
        let kind = KINDS[pick(KINDS.len())];
        let arity = kind.arity().unwrap_or(1 + pick(3));
        let fanins = (0..arity).map(|_| nets[pick(nets.len())]).collect();
        nets.push(nl.add_gate(kind, fanins, &format!("g{g}")));
    }
    for &q in &qs {
        nl.rewire_fanin(q, 0, nets[pick(nets.len())]);
    }
    for o in 0..1 + pick(3) {
        let net = nets[nets.len() - 1 - pick(nets.len().min(6))];
        nl.add_output(net, &format!("o{o}"));
    }
    nl
}

/// Checks a broadside transition `Atpg` run on `nl`, every fault a
/// top-off target, against simulation of every launch pattern: each
/// fault ends detected or untestable, no untestable fault has a
/// detecting launch pattern, and each detected fault's first-detecting
/// pattern detects it again when simulated on its own.
fn broadside_verdicts_match_exhaustive_simulation(nl: &Netlist) {
    let cfg = AtpgConfig::new()
        .fault_model(FaultModel::Transition)
        .random_patterns(0)
        .threads(1);
    let run = Atpg::new(nl).run(&cfg);
    let sim = TapeKernel::compile(nl);
    let width = nl.num_inputs() + nl.num_dffs();
    let mut all = PatternSet::new(width);
    for m in 0..1u32 << width {
        all.push((0..width).map(|b| m >> b & 1 == 1).collect());
    }
    let list = &run.fault_list;
    let mut exhaustive = FaultList::new(list.faults().to_vec());
    sim.transition_batch(
        &sim.broadside_pairs(&all),
        &mut exhaustive,
        &Executor::serial(),
    );
    for (i, &fault) in list.faults().iter().enumerate() {
        match list.status(i) {
            FaultStatus::Untestable => assert!(
                !exhaustive.status(i).is_detected(),
                "{fault}: untestable, but {:?}",
                exhaustive.status(i)
            ),
            FaultStatus::Detected(p) => {
                let mut launch = PatternSet::new(width);
                launch.push(run.patterns.pattern(p as usize).clone());
                let mut single = FaultList::new(vec![fault]);
                sim.transition_batch(
                    &sim.broadside_pairs(&launch),
                    &mut single,
                    &Executor::serial(),
                );
                assert_eq!(
                    single.num_detected(),
                    1,
                    "{fault}: pattern {p} alone misses"
                );
            }
            other => panic!("{fault}: {other:?}"),
        }
    }
}

/// [`broadside_verdicts_match_exhaustive_simulation`] on s27 and an
/// 8-bit counter.
#[test]
fn broadside_verdicts_agree_with_exhaustive_simulation_on_s27_and_cnt8() {
    for nl in [s27(), counter(8)] {
        broadside_verdicts_match_exhaustive_simulation(&nl);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// [`broadside_verdicts_match_exhaustive_simulation`] on random
    /// sequential netlists of at most 12 sources, flops included.
    #[test]
    fn broadside_verdicts_agree_with_exhaustive_simulation(
        seed in 0u64..u64::MAX,
        inputs in 1usize..=6,
        flops in 0usize..=6,
        gates in 4usize..30,
    ) {
        broadside_verdicts_match_exhaustive_simulation(&random_sequential(inputs, flops, gates, seed));
    }

    /// Bit-parallel simulation must agree with scalar simulation on any
    /// circuit and any patterns.
    #[test]
    fn bit_parallel_equals_scalar(seed in 0u64..1000, gates in 20usize..200) {
        let nl = random_logic(8, gates, seed);
        let scalar = FiveSim::new(&nl);
        let kernel = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 70, seed ^ 1);
        let block = kernel.eval_batch(&ps);
        for (i, p) in ps.iter().enumerate() {
            prop_assert_eq!(&block[i], &scalar.response(p, None));
        }
    }

    /// Equivalent faults (by structural collapsing) have identical
    /// detection behaviour on every pattern.
    #[test]
    fn collapsed_faults_detect_identically(seed in 0u64..500, gates in 20usize..120) {
        let nl = random_logic(6, gates, seed);
        let sim = TapeKernel::compile(&nl);
        let faults = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &faults);
        let ps = PatternSet::random(&nl, 48, seed ^ 7);
        for &f in faults.iter() {
            let rep = col.representative(f);
            if rep == f {
                continue;
            }
            for p in ps.iter() {
                prop_assert_eq!(
                    sim.detects(p, f),
                    sim.detects(p, rep),
                    "{} vs representative {}", f, rep
                );
            }
        }
    }

    /// Every PODEM-generated cube, under any fill, detects its target.
    #[test]
    fn podem_cubes_always_detect(seed in 0u64..300, fill_seed in 0u64..100) {
        let nl = random_logic(8, 60, seed);
        let mut podem = Podem::new(&nl);
        let sim = TapeKernel::compile(&nl);
        for (i, &fault) in universe_stuck_at(&nl).iter().enumerate() {
            if i % 9 != 0 {
                continue; // sample for speed
            }
            if let (AtpgResult::Test(cube), _) = podem.generate(fault, 64) {
                let p = cube.random_fill(fill_seed);
                prop_assert!(sim.detects(&p, fault), "{} cube {}", fault, cube);
            }
        }
    }

    /// EDT encode/expand honours every care bit of any encodable cube.
    #[test]
    fn edt_round_trip(seed in 0u64..1000, care in 1usize..24) {
        let codec = EdtCodec::new(8, 16, 2, 24, 0xC0DE);
        let mut cube = TestCube::all_x(codec.flat_bits());
        let mut s = seed;
        for _ in 0..care {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (s >> 16) as usize % codec.flat_bits();
            cube.set(idx, s & 1 == 1);
        }
        if let Some(compressed) = codec.encode(&cube) {
            let loads = codec.expand(&compressed);
            prop_assert!(codec.satisfies(&cube, &loads));
        }
    }

    /// March C- detects every stuck-at fault at every cell.
    #[test]
    fn march_c_detects_any_saf(cell in 0usize..64, value in prop::bool::ANY) {
        let mut mem = SramModel::with_fault(
            64,
            MemFault {
                cell,
                kind: MemFaultKind::StuckAt { value },
            },
        );
        prop_assert!(run_march(&march_c_minus(), &mut mem).detected);
    }

    /// `.bench` serialization round-trips: the reparsed netlist behaves
    /// identically under simulation on every pattern.
    #[test]
    fn bench_round_trip_preserves_behaviour(seed in 0u64..300, gates in 10usize..120) {
        use dft_core::netlist::{parse_bench, write_bench};
        let nl = random_logic(6, gates, seed);
        let text = write_bench(&nl);
        let nl2 = parse_bench("rt", &text).expect("own output parses");
        prop_assert_eq!(nl2.num_inputs(), nl.num_inputs());
        prop_assert_eq!(nl2.num_outputs(), nl.num_outputs());
        let ps = PatternSet::random(&nl, 16, seed ^ 0xB);
        prop_assert_eq!(
            TapeKernel::compile(&nl).eval_batch(&ps),
            TapeKernel::compile(&nl2).eval_batch(&ps)
        );
    }

    /// The SAT engine is exact. On circuits of at most 16 sources, flops
    /// included, it finds a test for a fault of any site kind exactly
    /// when one of the 2^n patterns detects the fault, and every fill
    /// of its cube does. PODEM's verdicts agree where it reaches one.
    #[test]
    fn sat_agrees_with_exhaustive_simulation(
        seed in 0u64..u64::MAX,
        inputs in 1usize..=8,
        flops in 0usize..=8,
        gates in 4usize..40,
    ) {
        let nl = random_sequential(inputs, flops, gates, seed);
        let sim = TapeKernel::compile(&nl);
        let width = inputs + flops;
        let mut all = PatternSet::new(width);
        for m in 0..1u32 << width {
            all.push((0..width).map(|b| m >> b & 1 == 1).collect());
        }
        let faults = universe_stuck_at(&nl);
        let detecting = sim.detection_matrix(&all, &faults);
        let sat = SatAtpg::new(&nl);
        let mut podem = Podem::new(&nl);
        for (&fault, pats) in faults.iter().zip(&detecting) {
            match sat.generate(fault, &[], SAT_CONFLICT_BUDGET).0 {
                AtpgResult::Test(cube) => {
                    let fills = (0..1u32 << width).filter(|&m| {
                        (0..width).all(|b| cube.get(b).is_none_or(|v| v == (m >> b & 1 == 1)))
                    });
                    for m in fills {
                        prop_assert!(
                            pats.binary_search(&m).is_ok(),
                            "{}: fill {:#x} of SAT cube {} misses", fault, m, cube
                        );
                    }
                }
                AtpgResult::Untestable => prop_assert!(
                    pats.is_empty(),
                    "{}: SAT says untestable, pattern {:#x} detects", fault, pats[0]
                ),
                AtpgResult::Aborted => prop_assert!(false, "{}: SAT aborted", fault),
            }
            match podem.generate(fault, 64).0 {
                AtpgResult::Test(_) => prop_assert!(!pats.is_empty(), "{}: PODEM test", fault),
                AtpgResult::Untestable => prop_assert!(pats.is_empty(), "{}: PODEM untestable", fault),
                AtpgResult::Aborted => {}
            }
        }
    }

    /// Parallel fault simulation is bit-identical to serial for any
    /// thread count: same coverage, same detected set (including each
    /// fault's first-detecting pattern), same response signature.
    #[test]
    fn parallel_fault_sim_is_deterministic(
        circuit in prop::select(vec!["c17", "mac4", "s27"]),
        threads in prop::select(vec![1usize, 2, 3, 8]),
        seed in 0u64..200,
    ) {
        use dft_core::bist::LogicBist;
        use dft_core::logicsim::Executor;
        use dft_core::netlist::generators::{c17, mac_pe, s27};
        let nl = match circuit {
            "c17" => c17(),
            "mac4" => mac_pe(4),
            _ => s27(),
        };
        let sim = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 192, seed);
        let faults = universe_stuck_at(&nl);

        let mut serial = FaultList::new(faults.clone());
        let stats_serial = sim.fault_batch(&ps, &mut serial, &Executor::serial());
        let mut parallel = FaultList::new(faults.clone());
        let stats_parallel = sim.fault_batch(&ps, &mut parallel, &Executor::with_threads(threads));

        prop_assert_eq!(serial.fault_coverage(), parallel.fault_coverage());
        prop_assert_eq!(stats_serial.detected, stats_parallel.detected);
        prop_assert_eq!(stats_serial.gate_evals, stats_parallel.gate_evals);
        for i in 0..faults.len() {
            prop_assert_eq!(serial.status(i), parallel.status(i), "fault {}", i);
        }
        // The BIST signature path (coverage + response digest) must also
        // be invariant under the threads knob.
        let r1 = LogicBist::new(&nl, 32).threads(1).run(128, seed);
        let rn = LogicBist::new(&nl, 32).threads(threads).run(128, seed);
        prop_assert_eq!(r1.coverage, rn.coverage);
        prop_assert_eq!(r1.signature, rn.signature);
        prop_assert_eq!(r1.undetected, rn.undetected);
    }

    /// The metric snapshot reported by PPSFP (and by the whole flow) is
    /// bit-identical across 1/2/8 workers: detections, counters, and
    /// histograms — not just the coverage number. Timers are wall-clock
    /// and excluded via `deterministic_eq`.
    #[test]
    fn metrics_snapshot_is_thread_count_invariant(
        circuit in prop::select(vec!["c17", "mac4", "s27"]),
        seed in 0u64..200,
    ) {
        use dft_core::logicsim::Executor;
        use dft_core::metrics::MetricsHandle;
        use dft_core::netlist::generators::{c17, mac_pe, s27};
        use dft_core::DftFlow;
        let nl = match circuit {
            "c17" => c17(),
            "mac4" => mac_pe(4),
            _ => s27(),
        };
        let ps = PatternSet::random(&nl, 192, seed);
        let faults = universe_stuck_at(&nl);
        let mut runs = Vec::new();
        for threads in [1usize, 2, 8] {
            let handle = MetricsHandle::enabled();
            let sim = TapeKernel::compile(&nl).with_metrics(handle.clone());
            let mut list = FaultList::new(faults.clone());
            sim.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
            runs.push((threads, list.num_detected(), handle.snapshot().unwrap()));
        }
        let (_, detected_1, snap_1) = &runs[0];
        for (threads, detected, snap) in &runs[1..] {
            prop_assert_eq!(detected_1, detected, "threads={}", threads);
            prop_assert!(
                snap_1.deterministic_eq(snap),
                "threads={} counters/histograms differ from serial", threads
            );
        }
        // End-to-end: the FlowReport snapshot obeys the same invariant.
        let flow_1 = DftFlow::new(&nl).threads(1).run();
        let flow_8 = DftFlow::new(&nl).threads(8).run();
        prop_assert!(flow_1.metrics.deterministic_eq(&flow_8.metrics));
    }

    /// Fault simulation with dropping gives the same coverage as without
    /// (detection is order-independent in aggregate).
    #[test]
    fn fault_dropping_is_sound(seed in 0u64..300) {
        let nl = random_logic(6, 80, seed);
        let kernel = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 32, seed ^ 3);
        let faults = universe_stuck_at(&nl);
        let mut dropped = FaultList::new(faults.clone());
        kernel.fault_batch(&ps, &mut dropped, &Executor::serial());
        // Reference: per-fault any-pattern detection without dropping.
        for (i, &f) in faults.iter().enumerate() {
            let detected_ref = ps.iter().any(|p| kernel.detects(p, f));
            prop_assert_eq!(
                dropped.status(i).is_detected(),
                detected_ref,
                "{}", f
            );
        }
    }
}

/// Equivalence collapsing holds on every sequential suite design: each
/// universe fault is detected by exactly the patterns that detect its
/// representative. Under full scan a flop's D pin is a pseudo-output and
/// its Q a pseudo-input, so merging their faults fails this.
#[test]
fn collapsed_faults_detect_identically_on_sequential_designs() {
    for c in benchmark_suite() {
        let nl = &c.netlist;
        if nl.num_dffs() == 0 {
            continue;
        }
        let faults = universe_stuck_at(nl);
        let col = collapse_equivalent(nl, &faults);
        let index: HashMap<Fault, usize> =
            faults.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        let sim = TapeKernel::compile(nl);
        let rows = sim.detection_matrix(&PatternSet::random(nl, 256, 0xC011), &faults);
        let split: Vec<_> = faults
            .iter()
            .enumerate()
            .filter(|&(i, &f)| rows[i] != rows[index[&col.representative(f)]])
            .map(|(_, &f)| f)
            .collect();
        assert!(
            split.is_empty(),
            "{}: {} of {} faults detected unlike their representative, first {}",
            c.name,
            split.len(),
            faults.len(),
            split[0].describe(nl)
        );
    }
}
