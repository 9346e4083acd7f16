//! Broadside (launch-on-capture) transition-fault ATPG via two-frame
//! circuit expansion.
//!
//! The sequential behaviour of one launch clock is unrolled into a purely
//! combinational circuit: frame 1 is driven by the scan-loaded state and
//! the (held) primary inputs; frame 2's pseudo inputs are frame 1's
//! next-state functions. A slow-to-rise fault at net `s` is then generated
//! as a stuck-at-0 at `s` in frame 2 under the constraint `s == 0` in
//! frame 1 (symmetrically for slow-to-fall), which is exactly the
//! broadside launch condition.

use dft_fault::{Fault, FaultKind, FaultList, FaultSite, FaultStatus};
use dft_logicsim::{broadside_pairs, Executor, PatternSet, SimKernel, TapeKernel};
use dft_netlist::{GateId, GateKind, Netlist};

use crate::{AtpgResult, Podem};

/// A two-frame expansion of a sequential netlist.
#[derive(Debug)]
pub struct TwoFrame {
    /// The expanded combinational netlist.
    pub netlist: Netlist,
    /// Frame-1 copy of every original gate.
    pub frame1: Vec<GateId>,
    /// Frame-2 copy of every original gate.
    pub frame2: Vec<GateId>,
}

/// Expands `nl` into the two-frame combinational circuit used for
/// broadside transition ATPG. Primary inputs are shared (held) across
/// frames; frame 2's state comes from frame 1's next-state logic; only
/// frame 2 is observed.
pub fn expand_two_frames(nl: &Netlist) -> TwoFrame {
    let mut out = Netlist::new(format!("{}_2frame", nl.name()));
    let n = nl.num_gates();
    let mut f1 = vec![GateId(u32::MAX); n];
    let mut f2 = vec![GateId(u32::MAX); n];

    // Shared primary inputs.
    for &pi in nl.inputs() {
        let id = out.add_input(&nl.gate(pi).name);
        f1[pi.index()] = id;
        f2[pi.index()] = id;
    }
    // Frame-1 state: free pseudo inputs (scan-loaded).
    for &ff in nl.dffs() {
        let id = out.add_input(&format!("{}_ld", nl.gate(ff).name));
        f1[ff.index()] = id;
    }
    // Frame-1 combinational logic, in level order.
    let lv = dft_netlist::Levelization::compute(nl).expect("acyclic");
    for &id in lv.order() {
        let g = nl.gate(id);
        match g.kind {
            GateKind::Input | GateKind::Dff => {}
            GateKind::Output => {
                // Launch-cycle POs are not strobed; keep the net but no
                // marker (map to the driver).
                f1[id.index()] = f1[g.fanins[0].index()];
            }
            _ => {
                let fanins = g.fanins.iter().map(|&f| f1[f.index()]).collect();
                f1[id.index()] = out.add_gate(g.kind, fanins, &format!("{}_f1", g.name));
            }
        }
    }
    // Frame-2 state = frame-1 next-state nets.
    for &ff in nl.dffs() {
        let d = nl.gate(ff).fanins[0];
        f2[ff.index()] = f1[d.index()];
    }
    // Frame-2 logic and observation.
    for &id in lv.order() {
        let g = nl.gate(id);
        match g.kind {
            GateKind::Input | GateKind::Dff => {}
            GateKind::Output => {
                let src = f2[g.fanins[0].index()];
                f2[id.index()] = out.add_output(src, &format!("{}_f2", g.name));
            }
            _ => {
                let fanins = g.fanins.iter().map(|&f| f2[f.index()]).collect();
                f2[id.index()] = out.add_gate(g.kind, fanins, &format!("{}_f2", g.name));
            }
        }
    }
    // Frame-2 captures: expose every flop's next-state as an output.
    for &ff in nl.dffs() {
        let d = nl.gate(ff).fanins[0];
        out.add_output(f2[d.index()], &format!("{}_cap", nl.gate(ff).name));
    }
    TwoFrame {
        netlist: out,
        frame1: f1,
        frame2: f2,
    }
}

/// Results of a transition-fault ATPG run.
#[derive(Debug)]
pub struct TransitionAtpgRun {
    /// Launch/capture pattern pairs, as scan patterns of the original
    /// netlist (the capture vector is implied by broadside operation; it
    /// is included for simulation convenience).
    pub pairs: Vec<(Vec<bool>, Vec<bool>)>,
    /// Per-fault status on the transition universe.
    pub fault_list: FaultList,
    /// Faults proven untestable under broadside constraints.
    pub untestable: usize,
    /// Aborted faults.
    pub aborted: usize,
}

/// Broadside transition-fault ATPG driver.
#[derive(Debug)]
pub struct TransitionAtpg<'a> {
    nl: &'a Netlist,
    expanded: TwoFrame,
}

impl<'a> TransitionAtpg<'a> {
    /// Builds the driver (performs the two-frame expansion).
    pub fn new(nl: &'a Netlist) -> TransitionAtpg<'a> {
        TransitionAtpg {
            nl,
            expanded: expand_two_frames(nl),
        }
    }

    /// The expanded two-frame view.
    pub fn two_frame(&self) -> &TwoFrame {
        &self.expanded
    }

    /// Generates broadside pairs for every fault in `universe`
    /// (transition kinds only), with `random_pairs` random pairs first and
    /// PODEM top-off after.
    pub fn run(
        &self,
        universe: Vec<Fault>,
        random_pairs: usize,
        backtrack_limit: u32,
        seed: u64,
    ) -> TransitionAtpgRun {
        let tsim = TapeKernel::compile(self.nl);
        let exec = Executor::serial();
        let mut list = FaultList::new(universe);

        // Phase 1: random scan patterns -> broadside pairs.
        let mut pairs: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        if random_pairs > 0 {
            let ps = PatternSet::random(self.nl, random_pairs, seed);
            pairs = broadside_pairs(self.nl, &ps);
            tsim.transition_batch(&pairs, &mut list, &exec);
        }

        // Phase 2: deterministic top-off on the expanded circuit.
        let mut podem = Podem::new(&self.expanded.netlist);
        let exp_sources = self.expanded.netlist.combinational_sources();
        let mut untestable = 0;
        let mut aborted = 0;
        let mut fill_seed = seed ^ 0xABCD;
        loop {
            let idx = match list.undetected().next() {
                Some(i) => i,
                None => break,
            };
            let fault = list.faults()[idx];
            let launch = match fault.kind.launch_value() {
                Some(v) => v,
                None => {
                    // Not a transition fault: ignore it.
                    list.set_status(idx, FaultStatus::Untestable);
                    untestable += 1;
                    continue;
                }
            };
            // Map the site into frame 2 and the launch constraint into
            // frame 1.
            let site_f2 = self.map_site(fault.site, &self.expanded.frame2);
            let site_net_f1 = {
                let net = fault.site.net(self.nl);
                self.expanded.frame1[net.index()]
            };
            let stuck = Fault {
                site: site_f2,
                kind: if fault.kind.stuck_value() {
                    FaultKind::StuckAt1
                } else {
                    FaultKind::StuckAt0
                },
            };
            let (result, _) =
                podem.generate_constrained(stuck, &[(site_net_f1, launch)], backtrack_limit, None);
            match result {
                AtpgResult::Test(cube) => {
                    fill_seed = fill_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                    let exp_pattern = cube.random_fill(fill_seed);
                    // Project the expanded pattern back to a scan pattern
                    // of the original netlist: PIs + frame-1 state loads.
                    let launch_vec = self.project_pattern(&exp_pattern, &exp_sources);
                    let mut single = PatternSet::for_netlist(self.nl);
                    single.push(launch_vec);
                    let new_pairs = broadside_pairs(self.nl, &single);
                    tsim.transition_batch(&new_pairs, &mut list, &exec);
                    if !list.status(idx).is_detected() {
                        // Two-frame model and pair simulation disagree —
                        // should not happen; fail safe.
                        list.set_status(idx, FaultStatus::Aborted);
                        aborted += 1;
                    }
                    // Detection indices recorded against `new_pairs` are
                    // provisional; the sign-off pass below rebuilds them
                    // against the full pair list.
                    pairs.extend(new_pairs);
                }
                AtpgResult::Untestable => {
                    list.set_status(idx, FaultStatus::Untestable);
                    untestable += 1;
                }
                AtpgResult::Aborted => {
                    list.set_status(idx, FaultStatus::Aborted);
                    aborted += 1;
                }
            }
        }

        // Final sign-off: re-simulate the whole pair list against a fresh
        // fault list so Detected(pattern) indices are globally consistent.
        let mut final_list = FaultList::new(list.faults().to_vec());
        tsim.transition_batch(&pairs, &mut final_list, &exec);
        for i in 0..list.len() {
            match list.status(i) {
                FaultStatus::Untestable => final_list.set_status(i, FaultStatus::Untestable),
                FaultStatus::Aborted if !final_list.status(i).is_detected() => {
                    final_list.set_status(i, FaultStatus::Aborted);
                }
                _ => {}
            }
        }

        TransitionAtpgRun {
            pairs,
            fault_list: final_list,
            untestable,
            aborted,
        }
    }

    /// Maps an original-netlist fault site into a frame copy.
    fn map_site(&self, site: FaultSite, frame: &[GateId]) -> FaultSite {
        match site.pin {
            None => FaultSite::output(frame[site.gate.index()]),
            Some(p) => FaultSite::input(frame[site.gate.index()], p),
        }
    }

    /// Converts an expanded-circuit pattern into an original-netlist scan
    /// pattern (launch vector): PIs then flop loads, which is exactly the
    /// expanded circuit's source order.
    fn project_pattern(&self, exp_pattern: &[bool], exp_sources: &[GateId]) -> Vec<bool> {
        // Expanded sources: original PIs (shared), then `_ld` inputs in
        // dff order — the same order as the original scan pattern.
        assert_eq!(
            exp_sources.len(),
            self.nl.num_inputs() + self.nl.num_dffs(),
            "expanded circuit must be purely combinational"
        );
        exp_pattern.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe_transition;
    use dft_netlist::generators::{counter, s27, shift_register};
    use dft_netlist::{GateKind, Levelization, NetlistStats};

    #[test]
    fn expansion_is_combinational_and_doubled() {
        let nl = s27();
        let tf = expand_two_frames(&nl);
        assert_eq!(tf.netlist.num_dffs(), 0);
        Levelization::compute(&tf.netlist).unwrap();
        let orig = NetlistStats::of(&nl);
        let exp = NetlistStats::of(&tf.netlist);
        assert!(exp.logic_gates >= 2 * orig.logic_gates - 2);
        // PIs shared; state loads appear once.
        assert_eq!(tf.netlist.num_inputs(), nl.num_inputs() + nl.num_dffs());
        // Outputs: frame-2 POs + captures.
        assert_eq!(tf.netlist.num_outputs(), nl.num_outputs() + nl.num_dffs());
    }

    #[test]
    fn frame2_state_is_frame1_next_state() {
        let nl = counter(2);
        let tf = expand_two_frames(&nl);
        // In the counter, q0's next state is d0_f1; frame2's q0 must map
        // to that net.
        let q0 = nl.find("q0").unwrap();
        let d0 = nl.gate(q0).fanins[0];
        assert_eq!(tf.frame2[q0.index()], tf.frame1[d0.index()]);
    }

    #[test]
    fn transition_atpg_on_shift_register() {
        // A shift register propagates everything: transition faults on
        // stage outputs are easily testable broadside.
        let nl = shift_register(4);
        let atpg = TransitionAtpg::new(&nl);
        let run = atpg.run(universe_transition(&nl), 16, 200, 3);
        // The two faults on the serial input are untestable broadside
        // (held PIs cannot transition); everything else must be covered.
        assert_eq!(run.untestable, 2);
        assert!(
            run.fault_list.test_coverage() > 0.99,
            "test coverage {} aborted {}",
            run.fault_list.test_coverage(),
            run.aborted
        );
    }

    #[test]
    fn detected_pairs_verify_under_simulation() {
        let nl = s27();
        let atpg = TransitionAtpg::new(&nl);
        let run = atpg.run(universe_transition(&nl), 8, 200, 5);
        let tsim = TapeKernel::compile(&nl);
        for i in 0..run.fault_list.len() {
            if let FaultStatus::Detected(p) = run.fault_list.status(i) {
                let fault = run.fault_list.faults()[i];
                // Re-simulate the one claimed pair on its own.
                let mut single = FaultList::new(vec![fault]);
                let pair = [run.pairs[p as usize].clone()];
                tsim.transition_batch(&pair, &mut single, &Executor::serial());
                assert_eq!(single.num_detected(), 1, "fault {fault} pair {p}");
            }
        }
    }

    #[test]
    fn held_pi_transitions_are_untestable_broadside() {
        // A transition fault on a PI can never launch in LOC with held
        // PIs; ATPG must prove it untestable rather than abort.
        let mut nl = dft_netlist::Netlist::new("t");
        let a = nl.add_input("a");
        let q = nl.add_dff(a, "q");
        let x = nl.add_gate(GateKind::Xor, vec![a, q], "x");
        nl.add_output(x, "po");
        let atpg = TransitionAtpg::new(&nl);
        let universe: Vec<Fault> = universe_transition(&nl)
            .into_iter()
            .filter(|f| f.site.gate == a)
            .collect();
        let run = atpg.run(universe, 0, 500, 1);
        assert_eq!(run.untestable, run.fault_list.len());
    }
}
