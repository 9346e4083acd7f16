//! Parallel-pattern single-fault propagation (PPSFP) on the gate tape.
//!
//! For each block of 256 patterns the good machine is simulated once;
//! each defect is then injected and only its fanout cone re-evaluated,
//! comparing faulty and good values at the combinational sinks.
//! [`crate::SimKernel::fault_batch`] drops faults on first detection (the
//! industry default, which is what makes random-pattern curves cheap);
//! the single-defect entry points here keep simulating and report every
//! detecting pattern ([`TapeKernel::detection_matrix`]) or the whole
//! faulty response ([`TapeKernel::faulty_responses`]) — what diagnosis
//! and the test-floor dies need.
//!
//! Observation model (full scan): a defect is detected by a pattern when
//! it changes a primary output or the D-pin value captured by any
//! flip-flop. A fault on a flop's Q net is excited by scan-loading the
//! opposite value and must propagate through logic to a sink, exactly
//! like a pseudo-primary-input fault.

use dft_fault::{BridgeFault, Fault};

use crate::goodsim::push_responses;
use crate::tape::{GateTape, Sweep, LANES};
use crate::{Pattern, PatternSet, Response, TapeKernel};

/// Summary counters from a fault-simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Patterns simulated.
    pub patterns: usize,
    /// Faults that were still undetected when the run started.
    pub faults_simulated: usize,
    /// Faults newly detected by this run.
    pub detected: usize,
    /// Total faulty-machine gate evaluations (work measure).
    pub gate_evals: u64,
    /// Fault batches whose simulation panicked and was isolated: the
    /// panic is contained to that fault's batch, its fault stays
    /// undetected, and every other batch's result is bit-identical to a
    /// clean run. Non-zero only when a worker died mid-simulation (or the
    /// `AIDFT_CHAOS` `panic` knob fired, see [`TapeKernel::with_chaos`]).
    pub failed_batches: usize,
    /// `true` when a [`dft_checkpoint::CancelToken`] fired during the
    /// run. An interrupted run marks **no** detections at all — the fault
    /// list is exactly as it was on entry — so a resumed run that repeats
    /// the pass produces bit-identical results.
    pub interrupted: bool,
}

/// One defect for single-defect simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// A stuck-at fault on a net (stem) or on one gate input pin.
    StuckAt(Fault),
    /// A short between two nets, per its [`dft_fault::BridgeKind`].
    Bridge(BridgeFault),
}

impl From<Fault> for Defect {
    fn from(fault: Fault) -> Defect {
        Defect::StuckAt(fault)
    }
}

impl From<BridgeFault> for Defect {
    fn from(bridge: BridgeFault) -> Defect {
        Defect::Bridge(bridge)
    }
}

impl TapeKernel<'_> {
    /// For every defect, the indices of the patterns that detect it,
    /// ascending (no fault dropping). The good machine runs once per
    /// 256-pattern block for all defects together.
    pub fn detection_matrix<D: Copy + Into<Defect>>(
        &self,
        patterns: &PatternSet,
        defects: &[D],
    ) -> Vec<Vec<u32>> {
        let mut matrix = vec![Vec::new(); defects.len()];
        let mut sweep = Sweep::<LANES>::new(self.tape());
        self.for_each_block(patterns, |start, count, good| {
            let mask = GateTape::wide_mask(count);
            sweep.load(good.iter().copied());
            for (row, &defect) in matrix.iter_mut().zip(defects) {
                let (det, _) = sweep.detect(defect.into(), mask);
                for (lane, &word) in det.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        row.push((start + 64 * lane) as u32 + w.trailing_zeros());
                        w &= w - 1;
                    }
                }
            }
        });
        matrix
    }

    /// The faulty machine's response to every pattern with `defect`
    /// injected, in the [`crate::SimKernel::eval_batch`] layout (primary outputs
    /// first, then flop D-pin captures), 256 patterns per pass.
    pub fn faulty_responses(
        &self,
        patterns: &PatternSet,
        defect: impl Into<Defect>,
    ) -> Vec<Response> {
        let defect = defect.into();
        let mut out = Vec::with_capacity(patterns.len());
        let mut sweep = Sweep::<LANES>::new(self.tape());
        self.for_each_block(patterns, |_, count, good| {
            sweep.load(good.iter().copied());
            let sinks = sweep.faulty_sink_words(defect, GateTape::wide_mask(count));
            push_responses(&sinks, count, &mut out);
        });
        out
    }

    /// Does `pattern` detect `defect`?
    pub fn detects(&self, pattern: &Pattern, defect: impl Into<Defect>) -> bool {
        let single: PatternSet = std::iter::once(pattern.clone()).collect();
        !self.detection_matrix(&single, &[defect.into()])[0].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Executor, SimKernel};
    use dft_checkpoint::{CancelToken, ChaosConfig, ChaosSite};
    use dft_fault::{bridge_universe, universe_stuck_at, BridgeKind, FaultList, FaultStatus};
    use dft_netlist::generators::{c17, parity_tree, ripple_adder};
    use dft_netlist::{GateKind, Netlist};

    fn statuses(list: &FaultList) -> Vec<FaultStatus> {
        (0..list.len()).map(|i| list.status(i)).collect()
    }

    #[test]
    fn c17_exhaustive_reaches_full_coverage() {
        let nl = c17();
        let mut ps = PatternSet::new(5);
        for v in 0..32u32 {
            ps.push((0..5).map(|i| (v >> i) & 1 == 1).collect());
        }
        let mut list = FaultList::new(universe_stuck_at(&nl));
        let stats = TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::serial());
        // c17 has no redundant faults: exhaustive patterns detect all.
        assert_eq!(list.num_detected(), list.len());
        assert_eq!(stats.detected, list.len());
        assert!((list.fault_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_single_fault_detection() {
        // AND(a,b): a SA1 detected by (a=0, b=1) only.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, vec![a, b], "g");
        nl.add_output(g, "po");
        let sim = TapeKernel::compile(&nl);
        let f = Fault::stuck_at_output(a, true);
        assert!(sim.detects(&vec![false, true], f));
        assert!(!sim.detects(&vec![true, true], f));
        assert!(!sim.detects(&vec![false, false], f));
    }

    #[test]
    fn input_pin_fault_differs_from_stem_fault() {
        // a fans out to AND and OR. Branch fault a->AND SA1 is only
        // observable through the AND.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, b], "or");
        nl.add_output(and, "po1");
        nl.add_output(or, "po2");
        let sim = TapeKernel::compile(&nl);
        let branch = Fault::stuck_at_input(and, 0, true);
        let stem = Fault::stuck_at_output(a, true);
        let p = vec![false, true]; // a=0, b=1
        assert!(sim.detects(&p, branch));
        assert!(sim.detects(&p, stem));
        // b=0: branch fault not detected (AND still 0); stem fault is
        // detected through the OR (good 0 -> faulty 1).
        let p = vec![false, false];
        assert!(!sim.detects(&p, branch));
        assert!(sim.detects(&p, stem));
    }

    #[test]
    fn detection_through_flop_d_pin() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        let q = nl.add_dff(inv, "q");
        nl.add_output(q, "po");
        let sim = TapeKernel::compile(&nl);
        // inv SA0: with a=0, good inv=1, faulty 0, observed at q's D pin.
        let f = Fault::stuck_at_output(inv, false);
        assert!(sim.detects(&vec![false, false], f));
        assert!(!sim.detects(&vec![true, false], f));
        // Fault on q's D input pin behaves the same, and only q's capture
        // changes in the faulty response.
        let f = Fault::stuck_at_input(q, 0, false);
        assert!(sim.detects(&vec![false, false], f));
        assert!(!sim.detects(&vec![true, false], f));
        let ps: PatternSet = vec![vec![false, true]].into_iter().collect();
        assert_eq!(sim.faulty_responses(&ps, f), vec![vec![true, false]]);
    }

    #[test]
    fn q_output_fault_needs_logic_propagation() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff(a, "q");
        let buf = nl.add_gate(GateKind::Buf, vec![q], "buf");
        nl.add_output(buf, "po");
        let sim = TapeKernel::compile(&nl);
        let f = Fault::stuck_at_output(q, false);
        // Pattern [a, q]: load q=1, fault forces 0, observed through buf.
        assert!(sim.detects(&vec![false, true], f));
        // Loading q=0 does not excite the fault. The flop's own D capture
        // (from `a`) is NOT affected by a Q-output fault.
        assert!(!sim.detects(&vec![true, false], f));
    }

    #[test]
    fn parity_tree_random_patterns_converge_fast() {
        let nl = parity_tree(16);
        let ps = PatternSet::random(&nl, 64, 3);
        let mut list = FaultList::new(universe_stuck_at(&nl));
        TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::serial());
        assert!(
            list.fault_coverage() > 0.95,
            "coverage {}",
            list.fault_coverage()
        );
    }

    #[test]
    fn run_respects_fault_dropping() {
        let nl = ripple_adder(4);
        let sim = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 128, 11);
        let mut list = FaultList::new(universe_stuck_at(&nl));
        sim.fault_batch(&ps, &mut list, &Executor::serial());
        for i in 0..list.len() {
            if let FaultStatus::Detected(p) = list.status(i) {
                let f = list.faults()[i];
                assert!(
                    sim.detects(ps.pattern(p as usize), f),
                    "fault {f} claims detection by pattern {p}"
                );
            }
        }
    }

    #[test]
    fn detection_matrix_consistent_with_detects() {
        let nl = c17();
        let sim = TapeKernel::compile(&nl);
        // 300 patterns straddle a wide block, so rows span two passes.
        let ps = PatternSet::random(&nl, 300, 2);
        let faults = universe_stuck_at(&nl);
        let matrix = sim.detection_matrix(&ps, &faults);
        for (fi, dets) in matrix.iter().enumerate() {
            for p in 0..ps.len() as u32 {
                assert_eq!(
                    sim.detects(ps.pattern(p as usize), faults[fi]),
                    dets.contains(&p),
                    "fault {} pattern {p}",
                    faults[fi]
                );
            }
        }
    }

    #[test]
    fn wired_and_bridge_detection() {
        // Two independent buffers to separate POs; bridge their inputs.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ba = nl.add_gate(GateKind::Buf, vec![a], "ba");
        let bb = nl.add_gate(GateKind::Buf, vec![b], "bb");
        nl.add_output(ba, "pa");
        nl.add_output(bb, "pb");
        let sim = TapeKernel::compile(&nl);
        let br = BridgeFault {
            a,
            b,
            kind: BridgeKind::WiredAnd,
        };
        // a=1,b=0: wired-AND pulls a to 0 -> pa flips.
        assert!(sim.detects(&vec![true, false], br));
        assert!(sim.detects(&vec![false, true], br));
        // Equal values: no difference.
        assert!(!sim.detects(&vec![true, true], br));
        assert!(!sim.detects(&vec![false, false], br));
        // Dominant bridge A>B only corrupts pb.
        let br = BridgeFault {
            a,
            b,
            kind: BridgeKind::ADominates,
        };
        assert!(sim.detects(&vec![true, false], br));
        assert!(!sim.detects(&vec![true, true], br));
        let ps: PatternSet = vec![vec![true, false]].into_iter().collect();
        assert_eq!(sim.faulty_responses(&ps, br), vec![vec![true, true]]);
    }

    #[test]
    fn bridge_between_cone_nets_keeps_forced_values() {
        // b is in a's fanout cone: a -> inv -> po1 ; bridge(a, inv).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        let buf = nl.add_gate(GateKind::Buf, vec![inv], "buf");
        nl.add_output(buf, "po");
        let sim = TapeKernel::compile(&nl);
        let br = BridgeFault {
            a,
            b: inv,
            kind: BridgeKind::WiredAnd,
        };
        // a=1: good inv=0; wired-AND: a'=0, inv'=0 -> po unchanged (0).
        assert!(!sim.detects(&vec![true], br));
        // a=0: good inv=1; wired-AND: both 0 -> po flips 1 -> 0.
        assert!(sim.detects(&vec![false], br));
    }

    #[test]
    fn bridge_universe_simulates_cleanly() {
        let nl = c17();
        let bridges = bridge_universe(&nl, 3);
        let ps = PatternSet::random(&nl, 32, 5);
        let matrix = TapeKernel::compile(&nl).detection_matrix(&ps, &bridges);
        let detected = matrix.iter().filter(|row| !row.is_empty()).count();
        // Most random bridges in c17 are detectable by 32 patterns.
        assert!(
            detected * 10 > bridges.len() * 5,
            "only {detected}/{} bridges detected",
            bridges.len()
        );
    }

    #[test]
    fn parallel_run_matches_serial() {
        let nl = ripple_adder(8);
        let sim = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 96, 17);
        let mut serial = FaultList::new(universe_stuck_at(&nl));
        sim.fault_batch(&ps, &mut serial, &Executor::serial());
        let mut parallel = FaultList::new(universe_stuck_at(&nl));
        sim.fault_batch(&ps, &mut parallel, &Executor::with_threads(4));
        assert_eq!(statuses(&serial), statuses(&parallel));
    }

    #[test]
    fn poisoned_batch_is_isolated_and_others_are_bit_identical() {
        let nl = ripple_adder(8);
        let ps = PatternSet::random(&nl, 96, 17);
        let universe = universe_stuck_at(&nl);
        let mut clean = FaultList::new(universe.clone());
        let clean_stats =
            TapeKernel::compile(&nl).fault_batch(&ps, &mut clean, &Executor::serial());
        assert_eq!(clean_stats.failed_batches, 0);
        // The faults whose batches the chaos harness poisons, by list
        // index; one the clean run detects makes the isolation visible.
        let chaos = ChaosConfig::parse("panic=0.05,seed=11").unwrap();
        let poisoned: Vec<usize> = (0..universe.len())
            .filter(|&i| chaos.fires(ChaosSite::WorkerPanic, i as u64))
            .collect();
        let lost = poisoned
            .iter()
            .filter(|&&i| clean.status(i).is_detected())
            .count();
        assert!(lost > 0, "seed 11 poisons no detected fault");
        for threads in [1usize, 4] {
            let sim = TapeKernel::compile(&nl).with_chaos(chaos);
            let mut list = FaultList::new(universe.clone());
            let stats = sim.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
            assert_eq!(stats.failed_batches, poisoned.len(), "threads={threads}");
            assert_eq!(stats.detected, clean_stats.detected - lost);
            for i in 0..list.len() {
                if poisoned.contains(&i) {
                    // A poisoned fault's batch was lost: it stays undetected.
                    assert_eq!(list.status(i), FaultStatus::Undetected, "fault {i}");
                } else {
                    // Every other fault's outcome is bit-identical.
                    assert_eq!(list.status(i), clean.status(i), "fault {i}");
                }
            }
        }
    }

    #[test]
    fn cancelled_run_discards_all_detections() {
        let nl = ripple_adder(8);
        let ps = PatternSet::random(&nl, 96, 17);
        let tok = CancelToken::new();
        tok.cancel();
        let sim = TapeKernel::compile(&nl).with_cancel(tok);
        let mut list = FaultList::new(universe_stuck_at(&nl));
        let stats = sim.fault_batch(&ps, &mut list, &Executor::serial());
        assert!(stats.interrupted);
        assert_eq!(stats.detected, 0);
        assert_eq!(list.num_detected(), 0);
    }

    #[test]
    fn mid_run_trip_is_repeatable_bit_identically() {
        let nl = ripple_adder(8);
        let ps = PatternSet::random(&nl, 96, 17);
        let universe = universe_stuck_at(&nl);
        let exec = Executor::serial();
        let mut clean = FaultList::new(universe.clone());
        TapeKernel::compile(&nl).fault_batch(&ps, &mut clean, &exec);
        // Trip partway through the pass: nothing may be marked.
        let tok = CancelToken::new();
        tok.trip_after_polls(universe.len() as u64 / 2);
        let sim = TapeKernel::compile(&nl).with_cancel(tok.clone());
        let mut list = FaultList::new(universe.clone());
        let stats = sim.fault_batch(&ps, &mut list, &exec);
        assert!(stats.interrupted);
        assert!(tok.is_cancelled());
        assert_eq!(list.num_detected(), 0);
        // Repeating the pass on the untouched list matches the clean run.
        TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &exec);
        assert_eq!(statuses(&list), statuses(&clean));
    }

    #[test]
    fn chaos_panics_hit_the_same_faults_at_any_thread_count() {
        let nl = ripple_adder(8);
        let ps = PatternSet::random(&nl, 96, 17);
        let universe = universe_stuck_at(&nl);
        let chaos = ChaosConfig::parse("panic=0.05,seed=11").unwrap();
        let mut results = Vec::new();
        for threads in [1usize, 4] {
            let sim = TapeKernel::compile(&nl).with_chaos(chaos);
            let mut list = FaultList::new(universe.clone());
            let stats = sim.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
            assert!(stats.failed_batches > 0, "threads={threads}");
            results.push((stats.failed_batches, statuses(&list)));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn faulty_response_differs_exactly_when_detected() {
        let nl = c17();
        let sim = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 16, 9);
        let good = sim.eval_batch(&ps);
        for &fault in &universe_stuck_at(&nl) {
            let faulty = sim.faulty_responses(&ps, fault);
            for (i, p) in ps.iter().enumerate() {
                assert_eq!(good[i] != faulty[i], sim.detects(p, fault), "{fault}");
            }
        }
    }
}
