//! The two-frame circuit expansion that broadside (launch-on-capture)
//! transition faults are searched on.
//!
//! The sequential behaviour of one launch clock is unrolled into a purely
//! combinational circuit: frame 1 is driven by the scan-loaded state and
//! the (held) primary inputs; frame 2's pseudo inputs are frame 1's
//! next-state functions. A gate no flop feeds sees only the held primary
//! inputs, so frame 2 shares its frame-1 copy. A slow-to-rise fault at
//! net `s` is then generated as a stuck-at-0 at `s` in frame 2 under the
//! constraint `s == 0` in frame 1 (symmetrically for slow-to-fall), which
//! is exactly the broadside launch condition ([`TwoFrame::target`]).

use dft_fault::{Fault, FaultKind, FaultSite};
use dft_netlist::{GateId, GateKind, Netlist};

/// A two-frame expansion of a sequential netlist.
#[derive(Debug)]
pub struct TwoFrame {
    /// The expanded combinational netlist.
    pub netlist: Netlist,
    /// Frame-1 copy of every original gate.
    pub frame1: Vec<GateId>,
    /// Frame-2 copy of every original gate: the frame-1 copy itself for
    /// a gate no flop feeds.
    pub frame2: Vec<GateId>,
}

/// Expands `nl` into the two-frame combinational circuit used for
/// broadside transition ATPG. Primary inputs are shared (held) across
/// frames, and so is every gate no flop feeds, whose frame-2 value is its
/// frame-1 value; each flop's frame-2 output is a buffer of its frame-1
/// next-state net; only frame 2 is observed. The expansion's sources are
/// the primary inputs then one state load per flop, in the design's
/// order, so a test cube of it is a launch scan pattern of `nl`.
pub fn expand_two_frames(nl: &Netlist) -> TwoFrame {
    let mut out = Netlist::new(format!("{}_2frame", nl.name()));
    let n = nl.num_gates();
    let mut f1 = vec![GateId(u32::MAX); n];
    let mut f2 = vec![GateId(u32::MAX); n];
    // Gates with a flop in their transitive fanin.
    let mut flop_fed = vec![false; n];

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
        flop_fed[ff.index()] = true;
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
                flop_fed[id.index()] = g.fanins.iter().any(|f| flop_fed[f.index()]);
                let fanins = g.fanins.iter().map(|&f| f1[f.index()]).collect();
                f1[id.index()] = out.add_gate(g.kind, fanins, &format!("{}_f1", g.name));
            }
        }
    }
    // Frame-2 state: frame-1 next state, through a buffer of its own, so
    // a fault at a flop's frame-2 output reaches no frame-1 reader of its
    // D net.
    for &ff in nl.dffs() {
        let d = f1[nl.gate(ff).fanins[0].index()];
        f2[ff.index()] = out.add_gate(GateKind::Buf, vec![d], &format!("{}_f2", nl.gate(ff).name));
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
            _ if !flop_fed[id.index()] => f2[id.index()] = f1[id.index()],
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

impl TwoFrame {
    /// Transition fault `fault` of `nl` as a search target on the
    /// expansion: its site's frame-2 copy stuck at the launch value, and
    /// the constraint that the site's frame-1 net holds that value.
    ///
    /// # Panics
    ///
    /// Panics if `fault` is a stuck-at fault.
    pub(crate) fn target(&self, nl: &Netlist, fault: Fault) -> (Fault, (GateId, bool)) {
        let launch = fault
            .kind
            .launch_value()
            .expect("a transition fault has a launch value");
        let stuck = Fault {
            site: FaultSite {
                gate: self.frame2[fault.site.gate.index()],
                ..fault.site
            },
            kind: if launch {
                FaultKind::StuckAt1
            } else {
                FaultKind::StuckAt0
            },
        };
        (stuck, (self.frame1[fault.site.net(nl).index()], launch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atpg, AtpgConfig, FaultModel};
    use dft_fault::{FaultList, FaultStatus};
    use dft_logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
    use dft_netlist::generators::{benchmark_suite, counter, mac_pe, s27, shift_register};
    use dft_netlist::{GateKind, Levelization, NetlistStats};

    fn transition(random_patterns: usize, seed: u64) -> AtpgConfig {
        AtpgConfig::new()
            .fault_model(FaultModel::Transition)
            .random_patterns(random_patterns)
            .seed(seed)
    }

    #[test]
    fn expansion_is_combinational_and_doubled() {
        for nl in [s27(), mac_pe(4)] {
            let tf = expand_two_frames(&nl);
            assert_eq!(tf.netlist.num_dffs(), 0);
            Levelization::compute(&tf.netlist).unwrap();
            // Frame 2 has its own copy of exactly the gates a flop feeds.
            let mut flop_fed = vec![false; nl.num_gates()];
            let mut own = 0;
            for &id in Levelization::compute(&nl).unwrap().order() {
                let g = nl.gate(id);
                flop_fed[id.index()] = g.kind == GateKind::Dff
                    || (g.kind.is_logic() && g.fanins.iter().any(|f| flop_fed[f.index()]));
                if g.kind.is_logic() {
                    let shared = tf.frame2[id.index()] == tf.frame1[id.index()];
                    assert_eq!(shared, !flop_fed[id.index()], "{} {}", nl.name(), g.name);
                    own += usize::from(!shared);
                }
            }
            let orig = NetlistStats::of(&nl);
            assert!(0 < own && own < orig.logic_gates, "{}", nl.name());
            // Logic: frame 1, frame 2's own copies, and a frame-2 state
            // buffer per flop.
            let exp = NetlistStats::of(&tf.netlist);
            assert_eq!(exp.logic_gates, orig.logic_gates + own + nl.num_dffs());
            // PIs shared; state loads appear once.
            assert_eq!(tf.netlist.num_inputs(), nl.num_inputs() + nl.num_dffs());
            // Outputs: frame-2 POs + captures.
            assert_eq!(tf.netlist.num_outputs(), nl.num_outputs() + nl.num_dffs());
        }
    }

    #[test]
    fn frame2_state_is_frame1_next_state() {
        let nl = counter(2);
        let tf = expand_two_frames(&nl);
        // In the counter, q0's next state is d0_f1; frame2's q0 must be a
        // buffer of that net.
        let q0 = nl.find("q0").unwrap();
        let d0 = nl.gate(q0).fanins[0];
        let q0_f2 = tf.netlist.gate(tf.frame2[q0.index()]);
        assert_eq!(q0_f2.kind, GateKind::Buf);
        assert_eq!(q0_f2.fanins, vec![tf.frame1[d0.index()]]);
    }

    #[test]
    fn transition_atpg_on_shift_register() {
        // A shift register propagates everything: transition faults on
        // stage outputs are easily testable broadside.
        let nl = shift_register(4);
        let run = Atpg::new(&nl).run(&transition(16, 3));
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
        let run = Atpg::new(&nl).run(&transition(8, 5));
        let tsim = TapeKernel::compile(&nl);
        for i in 0..run.fault_list.len() {
            if let FaultStatus::Detected(p) = run.fault_list.status(i) {
                let fault = run.fault_list.faults()[i];
                // Re-simulate the one claimed pair on its own.
                let mut single = FaultList::new(vec![fault]);
                let mut launch = PatternSet::for_netlist(&nl);
                launch.push(run.patterns.pattern(p as usize).clone());
                let pair = tsim.broadside_pairs(&launch);
                tsim.transition_batch(&pair, &mut single, &Executor::serial());
                assert_eq!(single.num_detected(), 1, "fault {fault} pair {p}");
            }
        }
    }

    #[test]
    fn mac8_transition_run_leaves_nothing_aborted() {
        // E11's mac8 run. Its multiplier reads only primary inputs, so
        // each of its transition faults is untestable broadside; with the
        // multiplier shared between the frames, PODEM and SAT prove it
        // instead of exhausting the SAT budget on a two-copy miter.
        let nl = benchmark_suite()
            .into_iter()
            .find(|c| c.name == "mac8")
            .expect("mac8 in suite")
            .netlist;
        let run = Atpg::new(&nl).run(&transition(128, 0xE11));
        assert_eq!(run.aborted, 0);
        assert!((run.test_coverage() - 1.0).abs() < 1e-12);
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
        let run = Atpg::new(&nl).run(&transition(0, 1));
        let list = &run.fault_list;
        let on_a: Vec<usize> = (0..list.len())
            .filter(|&i| list.faults()[i].site.gate == a)
            .collect();
        assert_eq!(on_a.len(), 2);
        for i in on_a {
            assert_eq!(list.status(i), FaultStatus::Untestable);
        }
    }
}
