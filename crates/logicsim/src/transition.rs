//! Transition-delay fault simulation over launch/capture pattern pairs.
//!
//! A slow-to-rise fault at a net is detected by a pattern pair `(v1, v2)`
//! when `v1` sets the net to 0 (initialization), `v2` attempts a rising
//! transition, and the late value (which behaves as stuck-at-0 during the
//! capture cycle) propagates to an observation point. At-speed testing of
//! the dense MAC arrays in AI chips is transition-dominated, which is why
//! the tutorial calls it out.
//!
//! [`crate::SimKernel::transition_batch`] simulates the pairs;
//! [`TapeKernel::broadside_pairs`] derives launch-on-capture pairs from
//! scan patterns. [`TapeKernel::clock`] is the same next-state step for
//! one functional cycle at a time: what scan-chain checks, chain
//! diagnosis and STUMPS sessions clock.

use dft_fault::Fault;

use crate::{Pattern, PatternSet, Response, SimKernel, TapeKernel};

impl TapeKernel<'_> {
    /// Clocks the design one cycle: `inputs` drive the primary inputs and
    /// `state` holds every flop's value, both in netlist order. Returns
    /// the primary outputs and leaves each flop's D-pin capture in
    /// `state`. A stuck-at `fault`, stem or pin, is injected through
    /// [`TapeKernel::faulty_responses`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `state` does not match the netlist's input
    /// or flop count.
    pub fn clock(&self, inputs: &[bool], state: &mut [bool], fault: Option<Fault>) -> Response {
        let pattern: Pattern = inputs.iter().chain(&*state).copied().collect();
        let single: PatternSet = std::iter::once(pattern).collect();
        let mut response = match fault {
            Some(f) => self.faulty_responses(&single, f),
            None => self.eval_batch(&single),
        }
        .remove(0);
        // Response layout: POs first, then flop D-pin captures.
        let num_po = self.netlist().num_outputs();
        state.copy_from_slice(&response[num_po..]);
        response.truncate(num_po);
        response
    }

    /// Derives broadside (launch-on-capture) pairs from scan patterns: the
    /// launch vector is the scan-loaded pattern; the capture vector keeps
    /// the primary inputs and replaces the pseudo-PI (flop) bits with the
    /// functional response captured from the launch cycle.
    pub fn broadside_pairs(&self, patterns: &PatternSet) -> Vec<(Pattern, Pattern)> {
        let num_pi = self.netlist().num_inputs();
        let num_po = self.netlist().num_outputs();
        let responses = self.eval_batch(patterns);
        patterns
            .iter()
            .zip(&responses)
            .map(|(p, r)| {
                let mut v2 = p.clone();
                // Response layout: POs first, then flop D-pin captures.
                for (ff, &bit) in r[num_po..].iter().enumerate() {
                    v2[num_pi + ff] = bit;
                }
                (p.clone(), v2)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use dft_fault::{
        universe_stuck_at, universe_transition, Fault, FaultKind, FaultList, FaultSite, FaultStatus,
    };
    use dft_netlist::generators::{counter, ripple_adder};
    use dft_netlist::{GateKind, Netlist};

    /// Does the pair `(launch, capture)` detect transition fault `fault`?
    fn pair_detects(
        sim: &TapeKernel<'_>,
        launch: &Pattern,
        capture: &Pattern,
        fault: Fault,
    ) -> bool {
        let mut list = FaultList::new(vec![fault]);
        let pair = [(launch.clone(), capture.clone())];
        sim.transition_batch(&pair, &mut list, &Executor::serial());
        list.num_detected() == 1
    }

    fn consecutive_pairs(ps: &PatternSet) -> Vec<(Pattern, Pattern)> {
        (0..ps.len() - 1)
            .map(|i| (ps.pattern(i).clone(), ps.pattern(i + 1).clone()))
            .collect()
    }

    #[test]
    fn str_requires_zero_then_one() {
        // Single buffer: STR on input `a`.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, vec![a], "b");
        nl.add_output(buf, "po");
        let sim = TapeKernel::compile(&nl);
        let f = Fault {
            site: FaultSite::output(a),
            kind: FaultKind::SlowToRise,
        };
        assert!(pair_detects(&sim, &vec![false], &vec![true], f));
        assert!(!pair_detects(&sim, &vec![true], &vec![true], f)); // no launch 0
        assert!(!pair_detects(&sim, &vec![false], &vec![false], f)); // no capture 1

        // Launched but not captured by any pair of the first 256-pair
        // block, the fault is carried into the next: only pair 280 rises.
        let mut pairs = vec![(vec![false], vec![false]); 300];
        pairs[280].1 = vec![true];
        let mut list = FaultList::new(vec![f]);
        sim.transition_batch(&pairs, &mut list, &Executor::serial());
        assert_eq!(list.status(0), FaultStatus::Detected(280));
        let f = Fault {
            site: FaultSite::output(a),
            kind: FaultKind::SlowToFall,
        };
        assert!(pair_detects(&sim, &vec![true], &vec![false], f));
        assert!(!pair_detects(&sim, &vec![false], &vec![true], f));
    }

    #[test]
    fn run_matches_detects() {
        let nl = ripple_adder(4);
        let sim = TapeKernel::compile(&nl);
        let pairs = consecutive_pairs(&PatternSet::random(&nl, 40, 21));
        let faults = universe_transition(&nl);
        let mut list = FaultList::new(faults.clone());
        sim.transition_batch(&pairs, &mut list, &Executor::serial());
        for (i, &f) in faults.iter().enumerate() {
            if let FaultStatus::Detected(p) = list.status(i) {
                let (l, c) = &pairs[p as usize];
                assert!(pair_detects(&sim, l, c, f), "{f} at pair {p}");
            }
        }
        // Sanity: random pairs detect a decent share on an adder.
        assert!(list.fault_coverage() > 0.5, "{}", list.fault_coverage());
    }

    #[test]
    fn broadside_pairs_use_functional_next_state() {
        let nl = counter(4);
        let ps = PatternSet::random(&nl, 8, 3);
        let sim = TapeKernel::compile(&nl);
        let pairs = sim.broadside_pairs(&ps);
        assert_eq!(pairs.len(), 8);
        // PI part held constant.
        for (l, c) in &pairs {
            assert_eq!(l[0], c[0], "PI must be held in broadside");
        }
        // The capture PPI bits must equal the launch response: re-simulate.
        let responses = sim.eval_batch(&ps);
        for ((_, c), r) in pairs.iter().zip(&responses) {
            for ff in 0..4 {
                assert_eq!(c[1 + ff], r[4 + ff]);
            }
        }
    }

    #[test]
    fn clock_counts_and_injects_at_one_capture() {
        // counter(4) with en = 1: each cycle outputs the count and leaves
        // the next count in the flops.
        let nl = counter(4);
        let sim = TapeKernel::compile(&nl);
        let value = |bits: &[bool]| bits.iter().rev().fold(0, |v, &b| v << 1 | u32::from(b));
        let bits = |v: u32| (0..4).map(|i| v >> i & 1 == 1).collect::<Vec<_>>();
        let mut state = vec![false; 4];
        for cycle in 0..20 {
            let outputs = sim.clock(&[true], &mut state, None);
            assert_eq!(value(&outputs), cycle % 16);
            assert_eq!(value(&state), (cycle + 1) % 16);
        }
        // A stuck-at on one flop's D pin changes that flop's capture and
        // nothing else.
        for stuck in [false, true] {
            let fault = Fault::stuck_at_input(nl.dffs()[2], 0, stuck);
            for count in 0..16 {
                let (mut good, mut bad) = (bits(count), bits(count));
                let outputs = sim.clock(&[true], &mut good, None);
                assert_eq!(sim.clock(&[true], &mut bad, Some(fault)), outputs);
                good[2] = stuck;
                assert_eq!(bad, good, "count {count}, stuck-at-{}", u8::from(stuck));
            }
        }
    }

    #[test]
    fn parallel_run_matches_serial() {
        let nl = ripple_adder(8);
        let sim = TapeKernel::compile(&nl);
        let pairs = consecutive_pairs(&PatternSet::random(&nl, 96, 11));
        let faults = universe_transition(&nl);
        let mut serial = FaultList::new(faults.clone());
        sim.transition_batch(&pairs, &mut serial, &Executor::serial());
        for threads in [1usize, 2, 3, 8] {
            let mut par = FaultList::new(faults.clone());
            sim.transition_batch(&pairs, &mut par, &Executor::with_threads(threads));
            for i in 0..faults.len() {
                assert_eq!(
                    serial.status(i),
                    par.status(i),
                    "threads={threads} fault {i}"
                );
            }
        }
    }

    #[test]
    fn transition_coverage_lower_than_stuck_at_on_same_patterns() {
        let nl = ripple_adder(8);
        let sim = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 64, 5);
        let mut tf_list = FaultList::new(universe_transition(&nl));
        sim.transition_batch(&consecutive_pairs(&ps), &mut tf_list, &Executor::serial());
        let mut sa_list = FaultList::new(universe_stuck_at(&nl));
        sim.fault_batch(&ps, &mut sa_list, &Executor::serial());
        // Transition detection needs launch + capture: strictly harder.
        assert!(tf_list.fault_coverage() <= sa_list.fault_coverage() + 1e-9);
    }
}
