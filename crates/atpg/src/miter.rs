//! Complete test generation for one stuck-at fault by SAT (T. Larrabee,
//! "Test pattern generation using Boolean satisfiability", IEEE TCAD
//! 1992).
//!
//! The miter of a fault has a good copy of the circuit over the fanin
//! closure of the fault's fanout cone, a faulty copy over the cone, and
//! one *active-path* variable per cone gate. The site is active; an
//! active gate's good and faulty values differ; and an active gate whose
//! value no sink reads has an active reader. A model therefore holds a
//! sensitised path from the site to a primary output or a flop's D pin,
//! which is a test, and an unsatisfiable miter proves the fault
//! untestable. Requiring instead that every difference reach a reader
//! would be unsound: an effect may die on one branch and be observed on
//! another. A fault on a flop's D pin is observed only at its own flop,
//! as the fault simulator models it.
//!
//! Constraints (required good values on arbitrary nets, such as a
//! broadside transition's launch value) are unit clauses over their
//! nets, which join the good copy.

use dft_checkpoint::CancelToken;
use dft_fault::Fault;
use dft_logicsim::TestCube;
use dft_netlist::{GateId, GateKind, Levelization, Netlist};

use crate::sat::{Lit, Outcome, Solver};
use crate::AtpgResult;

/// Conflict budget of the SAT call the ATPG driver makes for each
/// PODEM-aborted target. Only a miter that exhausts it leaves its fault
/// aborted.
pub const SAT_CONFLICT_BUDGET: u64 = 10_000;

/// SAT-based test generator for single stuck-at faults: stem and branch
/// pins of every gate, flop D pins and flop outputs.
///
/// Each call builds and solves its own miter, so a verdict and its cube
/// are a pure function of the netlist and the fault.
#[derive(Debug)]
pub struct SatAtpg<'a> {
    nl: &'a Netlist,
    /// Each gate's position in a levelized order: fanins rank lower.
    rank: Vec<u32>,
    source_index: Vec<Option<u32>>,
    /// The gate's value is a sink value: a primary-output marker, or a
    /// net a flop's D pin reads.
    observed: Vec<bool>,
    /// Cooperative cancellation, checked at every decision and conflict.
    /// A cancelled search returns [`AtpgResult::Aborted`].
    cancel: CancelToken,
}

impl<'a> SatAtpg<'a> {
    /// Builds a generator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> SatAtpg<'a> {
        let lv = Levelization::compute(nl).expect("netlist must be acyclic");
        let mut rank = vec![0; nl.num_gates()];
        for (i, g) in lv.order().iter().enumerate() {
            rank[g.index()] = i as u32;
        }
        let mut source_index = vec![None; nl.num_gates()];
        for (i, s) in nl.combinational_sources().iter().enumerate() {
            source_index[s.index()] = Some(i as u32);
        }
        let observed = nl
            .iter()
            .map(|(_, g)| {
                g.kind == GateKind::Output || g.fanouts.iter().any(|&f| nl.gate(f).kind.is_dff())
            })
            .collect();
        SatAtpg {
            nl,
            rank,
            source_index,
            observed,
            cancel: CancelToken::new(),
        }
    }

    /// Shares the driver's cancellation token.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Generates a test for `fault` subject to `constraints` (required
    /// good values on arbitrary nets) within `max_conflicts` solver
    /// conflicts. Returns the result and the conflicts spent:
    /// [`AtpgResult::Test`] carries the model's values of the sources the
    /// miter reads, [`AtpgResult::Untestable`] is a proof, and
    /// [`AtpgResult::Aborted`] means the budget ran out (or the token
    /// fired).
    pub fn generate(
        &self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        max_conflicts: u64,
    ) -> (AtpgResult, u64) {
        let nl = self.nl;
        let n = nl.num_gates();
        let stuck = fault.kind.stuck_value();
        let (site, net) = (fault.site.gate, fault.site.net(nl));
        // The gate whose output the fault changes; a flop D-pin fault
        // changes only what the flop captures.
        let root = match fault.site.pin {
            Some(_) if matches!(nl.gate(site).kind, GateKind::Dff | GateKind::Output) => None,
            _ => Some(site),
        };

        let (cone, in_cone) = match root {
            Some(r) => self.live_cone(r),
            None => (Vec::new(), vec![false; n]),
        };
        if root.is_some() && cone.is_empty() {
            return (AtpgResult::Untestable, 0);
        }

        // The good copy: the fanin closure of the cone, the site net and
        // the constrained nets.
        let mut in_region = vec![false; n];
        let mut region = Vec::new();
        let mut stack: Vec<GateId> = cone
            .iter()
            .copied()
            .chain([net])
            .chain(constraints.iter().map(|&(c, _)| c))
            .collect();
        while let Some(g) = stack.pop() {
            if std::mem::replace(&mut in_region[g.index()], true) {
                continue;
            }
            region.push(g);
            let gate = nl.gate(g);
            if gate.kind.is_logic() || gate.kind == GateKind::Output {
                stack.extend(gate.fanins.iter().copied());
            }
        }
        region.sort_unstable_by_key(|g| self.rank[g.index()]);

        let mut s = Solver::new();
        let t = s.new_var();
        s.add_clause(&[Lit::pos(t)]);
        let konst = |b: bool| Lit::of(t, b);
        let mut good = vec![konst(false); n];
        let mut ins = Vec::new();
        for &g in &region {
            let gate = nl.gate(g);
            good[g.index()] = match gate.kind {
                GateKind::Input | GateKind::Dff => Lit::pos(s.new_var()),
                GateKind::Const0 => konst(false),
                GateKind::Const1 => konst(true),
                kind => {
                    ins.clear();
                    ins.extend(gate.fanins.iter().map(|f| good[f.index()]));
                    encode(&mut s, kind, &ins)
                }
            };
        }
        // Activation.
        s.add_clause(&[lit_if(good[net.index()], !stuck)]);
        for &(c, v) in constraints {
            s.add_clause(&[lit_if(good[c.index()], v)]);
        }

        if let Some(r) = root {
            // The faulty copy: good values outside the cone.
            let mut bad = good.clone();
            for &g in &cone {
                let gate = nl.gate(g);
                bad[g.index()] = if g == r && fault.site.pin.is_none() {
                    konst(stuck)
                } else {
                    ins.clear();
                    for (pin, f) in gate.fanins.iter().enumerate() {
                        ins.push(if g == r && fault.site.pin == Some(pin as u8) {
                            konst(stuck)
                        } else {
                            bad[f.index()]
                        });
                    }
                    encode(&mut s, gate.kind, &ins)
                };
            }
            let mut active = vec![konst(false); n];
            for &g in &cone {
                active[g.index()] = Lit::pos(s.new_var());
            }
            s.add_clause(&[active[r.index()]]);
            let mut readers = Vec::new();
            for &g in &cone {
                let (a, x, y) = (active[g.index()], good[g.index()], bad[g.index()]);
                s.add_clause(&[!a, x, y]);
                s.add_clause(&[!a, !x, !y]);
                if !self.observed[g.index()] {
                    readers.clear();
                    readers.push(!a);
                    readers.extend(
                        nl.gate(g)
                            .fanouts
                            .iter()
                            .filter(|f| in_cone[f.index()])
                            .map(|f| active[f.index()]),
                    );
                    s.add_clause(&readers);
                }
            }
        }

        let result = match s.solve(max_conflicts, &self.cancel) {
            Outcome::Sat => {
                let mut cube = TestCube::all_x(nl.num_inputs() + nl.num_dffs());
                for &g in &region {
                    if let Some(i) = self.source_index[g.index()] {
                        cube.set(i as usize, s.model(good[g.index()]));
                    }
                }
                AtpgResult::Test(cube)
            }
            Outcome::Unsat => AtpgResult::Untestable,
            Outcome::Unknown => AtpgResult::Aborted,
        };
        (result, s.conflicts())
    }

    /// The fanout cone of `root` in rank order, pruned to the gates with
    /// a path to a sink, and its membership by gate index. Empty when no
    /// sink observes `root`.
    fn live_cone(&self, root: GateId) -> (Vec<GateId>, Vec<bool>) {
        let nl = self.nl;
        let mut in_cone = vec![false; nl.num_gates()];
        in_cone[root.index()] = true;
        let mut cone = vec![root];
        let mut next = 0;
        while let Some(&g) = cone.get(next) {
            next += 1;
            for &f in &nl.gate(g).fanouts {
                if !in_cone[f.index()] && !nl.gate(f).kind.is_dff() {
                    in_cone[f.index()] = true;
                    cone.push(f);
                }
            }
        }
        cone.sort_unstable_by_key(|g| self.rank[g.index()]);
        // Readers rank higher, so one reverse pass settles liveness.
        for &g in cone.iter().rev() {
            in_cone[g.index()] =
                self.observed[g.index()] || nl.gate(g).fanouts.iter().any(|f| in_cone[f.index()]);
        }
        if !in_cone[root.index()] {
            cone.clear();
        }
        cone.retain(|g| in_cone[g.index()]);
        (cone, in_cone)
    }
}

/// `l` when `value`, else its negation.
fn lit_if(l: Lit, value: bool) -> Lit {
    if value {
        l
    } else {
        !l
    }
}

/// Adds the clauses of one gate over input literals `ins` and returns
/// its output literal (buffers and inverters add nothing).
fn encode(s: &mut Solver, kind: GateKind, ins: &[Lit]) -> Lit {
    match kind {
        GateKind::Buf | GateKind::Output => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            // OR is an AND of complemented inputs, complemented.
            let or = matches!(kind, GateKind::Or | GateKind::Nor);
            let and = Lit::pos(s.new_var());
            let mut all = Vec::with_capacity(ins.len() + 1);
            for &i in ins {
                let i = lit_if(i, !or);
                s.add_clause(&[!and, i]);
                all.push(!i);
            }
            all.push(and);
            s.add_clause(&all);
            lit_if(and, or == kind.is_inverting())
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = ins[0];
            for &b in &ins[1..] {
                let z = Lit::pos(s.new_var());
                s.add_clause(&[!z, acc, b]);
                s.add_clause(&[!z, !acc, !b]);
                s.add_clause(&[z, !acc, b]);
                s.add_clause(&[z, acc, !b]);
                acc = z;
            }
            lit_if(acc, kind == GateKind::Xor)
        }
        GateKind::Mux2 => {
            let (sel, a, b) = (ins[0], ins[1], ins[2]);
            let o = Lit::pos(s.new_var());
            s.add_clause(&[sel, !a, o]);
            s.add_clause(&[sel, a, !o]);
            s.add_clause(&[!sel, !b, o]);
            s.add_clause(&[!sel, b, !o]);
            s.add_clause(&[!a, !b, o]);
            s.add_clause(&[a, b, !o]);
            o
        }
        GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => {
            unreachable!("{kind:?} is a source, not an encoded gate")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Podem;
    use dft_fault::universe_stuck_at;
    use dft_logicsim::{SimKernel, TapeKernel};
    use dft_netlist::generators::{c17, decoder, parity_tree, ripple_adder, s27};

    /// Every fault of `nl` ends in a test or a proof, and every test's
    /// fill detects its fault. Returns the number of tests.
    fn tests_confirmed(nl: &Netlist) -> usize {
        let sat = SatAtpg::new(nl);
        let sim = TapeKernel::compile(nl);
        let mut tested = 0;
        for fault in universe_stuck_at(nl) {
            match sat.generate(fault, &[], 1000).0 {
                AtpgResult::Test(cube) => {
                    assert!(sim.detects(&cube.random_fill(3), fault), "{fault}: {cube}");
                    tested += 1;
                }
                AtpgResult::Untestable => {}
                AtpgResult::Aborted => panic!("{fault}: aborted"),
            }
        }
        tested
    }

    #[test]
    fn sat_cubes_detect_their_faults_on_c17() {
        let nl = c17();
        assert_eq!(tests_confirmed(&nl), universe_stuck_at(&nl).len());
    }

    #[test]
    fn sat_agrees_with_podem_on_testability() {
        let nl = ripple_adder(4);
        let sat = SatAtpg::new(&nl);
        let mut podem = Podem::new(&nl);
        for fault in universe_stuck_at(&nl) {
            match (
                sat.generate(fault, &[], 1000).0,
                podem.generate(fault, 2000).0,
            ) {
                (AtpgResult::Test(_), AtpgResult::Test(_))
                | (AtpgResult::Untestable, AtpgResult::Untestable)
                | (_, AtpgResult::Aborted) => {}
                (a, b) => panic!("{fault}: SAT {a:?} vs PODEM {b:?}"),
            }
        }
        tests_confirmed(&nl);
    }

    #[test]
    fn sat_solves_random_resistant_decoder() {
        let nl = decoder(4);
        let y0 = nl.find("y0_g").expect("decoder output gate");
        let fault = Fault::stuck_at_output(y0, false);
        let (AtpgResult::Test(cube), _) = SatAtpg::new(&nl).generate(fault, &[], 1000) else {
            panic!("decoder fault should be testable");
        };
        assert!(TapeKernel::compile(&nl).detects(&cube.random_fill(9), fault));
        tests_confirmed(&nl);
    }

    #[test]
    fn sat_handles_xor_trees() {
        // Parity trees have no redundancy: everything is testable.
        let nl = parity_tree(8);
        assert_eq!(tests_confirmed(&nl), universe_stuck_at(&nl).len());
    }

    #[test]
    fn sat_tests_flop_sites_on_s27() {
        // Flop outputs are sources and flop D pins sinks of the full-scan
        // view; a D-pin fault is observed at its own flop only.
        let nl = s27();
        assert!(tests_confirmed(&nl) > 0);
    }

    #[test]
    fn sat_proves_redundancy() {
        // y = OR(a, AND(a, b)): the AND output SA0 is absorbed.
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, and], "or");
        nl.add_output(or, "po");
        let sat = SatAtpg::new(&nl);
        let (result, _) = sat.generate(Fault::stuck_at_output(and, false), &[], 1000);
        assert_eq!(result, AtpgResult::Untestable);
        assert!(sat
            .generate(Fault::stuck_at_output(and, true), &[], 1000)
            .0
            .is_test());
    }

    #[test]
    fn a_fired_token_aborts() {
        let nl = c17();
        let mut sat = SatAtpg::new(&nl);
        let cancel = CancelToken::new();
        cancel.cancel();
        sat.set_cancel(cancel);
        let fault = universe_stuck_at(&nl)[0];
        assert_eq!(sat.generate(fault, &[], 1000).0, AtpgResult::Aborted);
    }
}
