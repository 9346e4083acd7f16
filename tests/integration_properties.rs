//! Property-based integration tests over the core invariants.

use proptest::prelude::*;

use dft_core::atpg::{AtpgResult, Podem};
use dft_core::bist::{march_c_minus, run_march, MemFault, MemFaultKind, SramModel};
use dft_core::compress::EdtCodec;
use dft_core::fault::{collapse_equivalent, universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, FiveSim, PatternSet, SimKernel, TapeKernel, TestCube};
use dft_core::netlist::generators::random_logic;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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

    /// The D-algorithm and PODEM agree on stem-fault testability, and
    /// both engines' cubes survive independent fault simulation.
    #[test]
    fn dalg_podem_cross_validation(seed in 0u64..120) {
        use dft_core::atpg::DAlgorithm;
        let nl = random_logic(6, 40, seed);
        let dalg = DAlgorithm::new(&nl);
        let mut podem = Podem::new(&nl);
        let sim = TapeKernel::compile(&nl);
        for (i, fault) in universe_stuck_at(&nl)
            .into_iter()
            .filter(|f| f.site.pin.is_none())
            .enumerate()
        {
            if i % 5 != 0 {
                continue;
            }
            let d = dalg.generate(fault, 300);
            let (p, _) = podem.generate(fault, 300);
            match (&d, &p) {
                (AtpgResult::Test(c), _) => {
                    prop_assert!(sim.detects(&c.random_fill(1), fault), "{}", fault)
                }
                (AtpgResult::Untestable, AtpgResult::Test(_)) => {
                    prop_assert!(false, "{}: D-alg untestable but PODEM found a test", fault)
                }
                _ => {}
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
