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
/// An engine answers one call at a time and keeps its solver and miter
/// buffers from call to call, as a [`crate::Podem`] keeps its own; a
/// top-off worker owns one of each. Each call builds its miter into an
/// emptied solver, so a verdict, its cube and its conflict count are a
/// pure function of the netlist and the fault, whatever the engine
/// answered before.
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
    /// The solver, emptied at the start of each call.
    solver: Solver,
    /// The last call's live fanout cone and good-copy region, each in
    /// rank order, and their membership by gate index. A gate is marked
    /// only while it is on its list, so a call clears the marks its
    /// predecessor left by walking the lists.
    cone: Vec<GateId>,
    in_cone: Vec<bool>,
    region: Vec<GateId>,
    in_region: Vec<bool>,
    /// Per gate: its literal in the good copy (read only for region
    /// gates), the faulty copy and the active path (cone gates only).
    good: Vec<Lit>,
    bad: Vec<Lit>,
    active: Vec<Lit>,
    /// Scratch: the region walk's stack, one gate's input literals and
    /// one clause.
    stack: Vec<GateId>,
    ins: Vec<Lit>,
    clause: Vec<Lit>,
}

impl<'a> SatAtpg<'a> {
    /// Builds a generator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> SatAtpg<'a> {
        let n = nl.num_gates();
        let lv = Levelization::compute(nl).expect("netlist must be acyclic");
        let mut rank = vec![0; n];
        for (i, g) in lv.order().iter().enumerate() {
            rank[g.index()] = i as u32;
        }
        let mut source_index = vec![None; n];
        for (i, s) in nl.combinational_sources().iter().enumerate() {
            source_index[s.index()] = Some(i as u32);
        }
        let observed = nl
            .iter()
            .map(|(_, g)| {
                g.kind == GateKind::Output || g.fanouts.iter().any(|&f| nl.gate(f).kind.is_dff())
            })
            .collect();
        let unset = Lit::pos(0);
        SatAtpg {
            nl,
            rank,
            source_index,
            observed,
            cancel: CancelToken::new(),
            solver: Solver::new(),
            cone: Vec::new(),
            in_cone: vec![false; n],
            region: Vec::new(),
            in_region: vec![false; n],
            good: vec![unset; n],
            bad: vec![unset; n],
            active: vec![unset; n],
            stack: Vec::new(),
            ins: Vec::new(),
            clause: Vec::new(),
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
        &mut self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        max_conflicts: u64,
    ) -> (AtpgResult, u64) {
        let nl = self.nl;
        let stuck = fault.kind.stuck_value();
        let (site, net) = (fault.site.gate, fault.site.net(nl));
        // The gate whose output the fault changes; a flop D-pin fault
        // changes only what the flop captures.
        let root = match fault.site.pin {
            Some(_) if matches!(nl.gate(site).kind, GateKind::Dff | GateKind::Output) => None,
            _ => Some(site),
        };

        // Clear the marks the previous call left: exactly its lists.
        for g in self.cone.drain(..) {
            self.in_cone[g.index()] = false;
        }
        for g in self.region.drain(..) {
            self.in_region[g.index()] = false;
        }
        if let Some(r) = root {
            self.live_cone(r);
            if self.cone.is_empty() {
                return (AtpgResult::Untestable, 0);
            }
        }

        // The good copy: the fanin closure of the cone, the site net and
        // the constrained nets.
        self.stack.clear();
        self.stack.extend(
            self.cone
                .iter()
                .copied()
                .chain([net])
                .chain(constraints.iter().map(|&(c, _)| c)),
        );
        while let Some(g) = self.stack.pop() {
            if std::mem::replace(&mut self.in_region[g.index()], true) {
                continue;
            }
            self.region.push(g);
            let gate = nl.gate(g);
            if gate.kind.is_logic() || gate.kind == GateKind::Output {
                self.stack.extend(gate.fanins.iter().copied());
            }
        }
        let rank = &self.rank;
        self.region.sort_unstable_by_key(|g| rank[g.index()]);

        let s = &mut self.solver;
        s.reset();
        let t = s.new_var();
        s.add_clause(&[Lit::pos(t)]);
        let konst = |b: bool| Lit::of(t, b);
        let good = &mut self.good;
        for &g in &self.region {
            let gate = nl.gate(g);
            good[g.index()] = match gate.kind {
                GateKind::Input | GateKind::Dff => Lit::pos(s.new_var()),
                GateKind::Const0 => konst(false),
                GateKind::Const1 => konst(true),
                kind => {
                    self.ins.clear();
                    self.ins.extend(gate.fanins.iter().map(|f| good[f.index()]));
                    encode(s, &mut self.clause, kind, &self.ins)
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
            let bad = &mut self.bad;
            for &g in &self.cone {
                let gate = nl.gate(g);
                bad[g.index()] = if g == r && fault.site.pin.is_none() {
                    konst(stuck)
                } else {
                    self.ins.clear();
                    for (pin, f) in gate.fanins.iter().enumerate() {
                        self.ins
                            .push(if g == r && fault.site.pin == Some(pin as u8) {
                                konst(stuck)
                            } else if self.in_cone[f.index()] {
                                bad[f.index()]
                            } else {
                                good[f.index()]
                            });
                    }
                    encode(s, &mut self.clause, gate.kind, &self.ins)
                };
            }
            let active = &mut self.active;
            for &g in &self.cone {
                active[g.index()] = Lit::pos(s.new_var());
            }
            s.add_clause(&[active[r.index()]]);
            for &g in &self.cone {
                let (a, x, y) = (active[g.index()], good[g.index()], bad[g.index()]);
                s.add_clause(&[!a, x, y]);
                s.add_clause(&[!a, !x, !y]);
                if !self.observed[g.index()] {
                    self.clause.clear();
                    self.clause.push(!a);
                    self.clause.extend(
                        nl.gate(g)
                            .fanouts
                            .iter()
                            .filter(|f| self.in_cone[f.index()])
                            .map(|f| active[f.index()]),
                    );
                    s.add_clause(&self.clause);
                }
            }
        }

        let result = match s.solve(max_conflicts, &self.cancel) {
            Outcome::Sat => {
                let mut cube = TestCube::all_x(nl.num_inputs() + nl.num_dffs());
                for &g in &self.region {
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

    /// Fills the empty `self.cone` with the fanout cone of `root` in rank
    /// order, pruned to the gates with a path to a sink, and marks
    /// exactly those in `self.in_cone`. Leaves it empty when no sink
    /// observes `root`.
    fn live_cone(&mut self, root: GateId) {
        let nl = self.nl;
        let (cone, in_cone) = (&mut self.cone, &mut self.in_cone);
        in_cone[root.index()] = true;
        cone.push(root);
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
        let rank = &self.rank;
        cone.sort_unstable_by_key(|g| rank[g.index()]);
        // Readers rank higher, so one reverse pass settles liveness; a
        // dead root leaves every gate of its cone dead.
        for &g in cone.iter().rev() {
            in_cone[g.index()] =
                self.observed[g.index()] || nl.gate(g).fanouts.iter().any(|f| in_cone[f.index()]);
        }
        cone.retain(|g| in_cone[g.index()]);
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
/// its output literal (buffers and inverters add nothing). `clause` is
/// scratch.
fn encode(s: &mut Solver, clause: &mut Vec<Lit>, kind: GateKind, ins: &[Lit]) -> Lit {
    match kind {
        GateKind::Buf | GateKind::Output => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            // OR is an AND of complemented inputs, complemented.
            let or = matches!(kind, GateKind::Or | GateKind::Nor);
            let and = Lit::pos(s.new_var());
            clause.clear();
            for &i in ins {
                let i = lit_if(i, !or);
                s.add_clause(&[!and, i]);
                clause.push(!i);
            }
            clause.push(and);
            s.add_clause(clause);
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
    use crate::{expand_two_frames, Podem};
    use dft_fault::{universe_stuck_at, universe_transition};
    use dft_logicsim::{SimKernel, TapeKernel};
    use dft_netlist::generators::{c17, decoder, parity_tree, random_logic, ripple_adder, s27};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A query: a fault, the good values a test must also set, and a
    /// conflict budget.
    type Query = (Fault, Vec<(GateId, bool)>, u64);

    /// What a fresh engine answers to `q`.
    fn fresh(nl: &Netlist, q: &Query) -> (AtpgResult, u64) {
        SatAtpg::new(nl).generate(q.0, &q.1, q.2)
    }

    /// Answers `queries` in a shuffled order on `sat` and checks every
    /// answer against a fresh engine's. Returns the answers in query
    /// order.
    fn reused_matches_fresh(
        nl: &Netlist,
        sat: &mut SatAtpg<'_>,
        queries: &[Query],
        seed: u64,
    ) -> Vec<(AtpgResult, u64)> {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut answers = vec![(AtpgResult::Aborted, 0); queries.len()];
        for i in order {
            let q = &queries[i];
            answers[i] = sat.generate(q.0, &q.1, q.2);
            assert_eq!(answers[i], fresh(nl, q), "{}: reused engine differs", q.0);
        }
        answers
    }

    fn stuck_at_queries(nl: &Netlist) -> Vec<Query> {
        universe_stuck_at(nl)
            .into_iter()
            .map(|f| (f, Vec::new(), SAT_CONFLICT_BUDGET))
            .collect()
    }

    #[test]
    fn a_reused_engine_answers_as_a_fresh_one() {
        for nl in [c17(), s27()] {
            let mut sat = SatAtpg::new(&nl);
            let answers = reused_matches_fresh(&nl, &mut sat, &stuck_at_queries(&nl), 1);
            assert!(answers.iter().any(|a| a.0.is_test()), "{}", nl.name());
        }
        // s27's flop D-pin faults have no faulty copy.
        let nl = s27();
        assert!(universe_stuck_at(&nl)
            .iter()
            .any(|f| { f.site.pin.is_some() && nl.gate(f.site.gate).kind == GateKind::Dff }));
        // Redundant random logic: tests, proofs and real searches.
        let nl = random_logic(8, 120, 3);
        let mut sat = SatAtpg::new(&nl);
        let answers = reused_matches_fresh(&nl, &mut sat, &stuck_at_queries(&nl), 2);
        assert!(answers.iter().any(|a| a.0 == AtpgResult::Untestable));
        assert!(answers.iter().any(|a| a.0.is_test()));
        assert!(answers.iter().any(|a| a.1 > 1));
    }

    #[test]
    fn a_reused_engine_answers_launch_constrained_targets_as_a_fresh_one() {
        let nl = s27();
        let tf = expand_two_frames(&nl);
        let queries: Vec<Query> = universe_transition(&nl)
            .into_iter()
            .map(|f| {
                let (stuck, launch) = tf.target(&nl, f);
                (stuck, vec![launch], SAT_CONFLICT_BUDGET)
            })
            .collect();
        let mut sat = SatAtpg::new(&tf.netlist);
        let answers = reused_matches_fresh(&tf.netlist, &mut sat, &queries, 3);
        assert!(answers.iter().any(|a| a.0 == AtpgResult::Untestable));
        assert!(answers.iter().any(|a| a.0.is_test()));
    }

    #[test]
    fn a_cut_short_call_leaves_nothing_behind() {
        let nl = random_logic(8, 120, 3);
        let queries = stuck_at_queries(&nl);
        let answers: Vec<_> = queries.iter().map(|q| fresh(&nl, q)).collect();
        let hardest = (0..queries.len())
            .max_by_key(|&i| answers[i].1)
            .expect("faults");
        assert!(answers[hardest].1 > 1, "no query needs a second conflict");
        let mut sat = SatAtpg::new(&nl);
        reused_matches_fresh(&nl, &mut sat, &queries[..20], 4);
        // The budget runs out at the first conflict.
        let starved = (queries[hardest].0, Vec::new(), 1);
        assert_eq!(sat.generate(starved.0, &[], 1), (AtpgResult::Aborted, 1));
        assert_eq!(sat.generate(starved.0, &[], 1), fresh(&nl, &starved));
        reused_matches_fresh(&nl, &mut sat, &queries, 5);
        // A fired token stops the search before its first decision.
        let cancel = CancelToken::new();
        cancel.cancel();
        sat.set_cancel(cancel);
        assert_eq!(
            sat.generate(queries[hardest].0, &[], SAT_CONFLICT_BUDGET).0,
            AtpgResult::Aborted
        );
        sat.set_cancel(CancelToken::new());
        reused_matches_fresh(&nl, &mut sat, &queries, 6);
    }

    /// Every fault of `nl` ends in a test or a proof, and every test's
    /// fill detects its fault. Returns the number of tests.
    fn tests_confirmed(nl: &Netlist) -> usize {
        let mut sat = SatAtpg::new(nl);
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
        let mut sat = SatAtpg::new(&nl);
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
        let mut sat = SatAtpg::new(&nl);
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
