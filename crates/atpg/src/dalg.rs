//! The D-algorithm (Roth 1966): ATPG with decisions at internal gates.
//!
//! Where PODEM decides only at the circuit inputs, the D-algorithm
//! maintains a *D-frontier* (gates whose output can still propagate the
//! fault effect) and a *J-frontier* (gates whose assigned binary output is
//! not yet justified by their inputs) and makes decisions at both. It is
//! implemented here for stem (output-site) faults as the historical
//! companion to PODEM; the production driver uses PODEM, and the test
//! suite cross-validates the two engines on common fault universes.
//!
//! Implication model: forward five-valued evaluation plus backward binary
//! implication (unique-justification rules); fault-effect (`D`/`D̄`)
//! values are produced only by forward evaluation, which keeps the
//! implication engine simple and sound.

use dft_checkpoint::CancelToken;
use dft_fault::Fault;
use dft_logicsim::TestCube;
use dft_metrics::MetricsHandle;
use dft_netlist::{Gate, GateId, GateKind, Levelization, Logic, Netlist};

use crate::AtpgResult;

/// D-algorithm test generator for stem stuck-at faults.
#[derive(Debug)]
pub struct DAlgorithm<'a> {
    nl: &'a Netlist,
    source_index: Vec<Option<u32>>,
    /// The combinational sinks, computed once.
    sinks: Vec<GateId>,
    metrics: MetricsHandle,
    /// Cooperative cancellation, checked at each recursion step. A
    /// cancelled search aborts; the driver discards the result.
    cancel: CancelToken,
}

struct Search<'a> {
    nl: &'a Netlist,
    sinks: &'a [GateId],
    fault: Fault,
    vals: Vec<Logic>,
    /// Fanin gather buffer, reused by every gate evaluation.
    ins: Vec<Logic>,
    backtracks: u32,
    limit: u32,
    cancel: &'a CancelToken,
}

impl<'a> DAlgorithm<'a> {
    /// Builds a generator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> DAlgorithm<'a> {
        Levelization::compute(nl).expect("acyclic");
        let mut source_index = vec![None; nl.num_gates()];
        for (i, &s) in nl.combinational_sources().iter().enumerate() {
            source_index[s.index()] = Some(i as u32);
        }
        DAlgorithm {
            nl,
            source_index,
            sinks: nl.combinational_sinks(),
            metrics: MetricsHandle::disabled(),
            cancel: CancelToken::new(),
        }
    }

    /// Points per-call counters at `metrics`.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// Shares the driver's cancellation token; a cancelled search
    /// returns [`AtpgResult::Aborted`] at its next recursion step.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Generates a test for a stem fault.
    ///
    /// # Panics
    ///
    /// Panics if `fault` is an input-pin (branch) fault — use PODEM for
    /// those.
    pub fn generate(&self, fault: Fault, backtrack_limit: u32) -> AtpgResult {
        let (result, backtracks) = self.search(fault, backtrack_limit);
        record(backtracks, &result, &self.metrics);
        result
    }

    /// [`DAlgorithm::generate`] without recording metrics; also returns
    /// the backtracks taken.
    pub(crate) fn search(&self, fault: Fault, backtrack_limit: u32) -> (AtpgResult, u32) {
        assert!(
            fault.site.pin.is_none(),
            "D-algorithm implementation handles stem faults only"
        );
        let mut search = Search {
            nl: self.nl,
            sinks: &self.sinks,
            fault,
            vals: vec![Logic::X; self.nl.num_gates()],
            ins: Vec::with_capacity(8),
            backtracks: 0,
            limit: backtrack_limit,
            cancel: &self.cancel,
        };
        // Activation: the site carries D (good 1 / faulty 0) for SA0,
        // D̄ for SA1; the good value must be justified through the site
        // gate's inputs, which the J-frontier handles via a binary
        // pseudo-assignment on the site's *good* value.
        let site = fault.site.gate;
        let effect = if fault.kind.stuck_value() {
            Logic::Dbar
        } else {
            Logic::D
        };
        search.vals[site.index()] = effect;

        let solved = search.solve();
        let result = match solved {
            Some(true) => {
                let mut cube = TestCube::all_x(self.nl.combinational_sources().len());
                for (g, &v) in search.vals.iter().enumerate() {
                    if let Some(src) = self.source_index[g] {
                        if let Some(b) = v.good() {
                            cube.set(src as usize, b);
                        }
                    }
                }
                AtpgResult::Test(cube)
            }
            Some(false) => AtpgResult::Untestable,
            None => AtpgResult::Aborted,
        };
        (result, search.backtracks)
    }
}

/// Adds one D-algorithm search's counters to `metrics`: right after the
/// search in [`DAlgorithm::generate`], at commit in the ATPG driver.
pub(crate) fn record(backtracks: u32, result: &AtpgResult, metrics: &MetricsHandle) {
    if let Some(m) = metrics.get() {
        m.dalg_calls.inc();
        m.dalg_backtracks.add(backtracks as u64);
        if result.is_test() {
            m.dalg_tests.inc();
        }
    }
}

impl<'a> Search<'a> {
    /// Top-level recursive search. `Some(true)` = test found, `Some(false)`
    /// = exhausted, `None` = aborted at the backtrack limit.
    fn solve(&mut self) -> Option<bool> {
        if self.cancel.is_cancelled() {
            return None; // aborted; the driver discards this result
        }
        if !self.imply() {
            return Some(false);
        }
        // Success: effect observed and everything justified.
        if self.effect_at_sink() {
            match self.pick_j_frontier() {
                None => return Some(true),
                Some(j) => return self.justify(j),
            }
        }
        // Propagate: pick a D-frontier gate and push the effect through.
        let frontier = self.d_frontier();
        if frontier.is_empty() {
            return Some(false);
        }
        for gate in frontier {
            let g = self.nl.gate(gate);
            // Propagation alternatives. AND/OR families force every X
            // side input to the non-controlling value (one alternative);
            // XOR/MUX propagate under any binary side values, so the
            // first X input is branched both ways (deeper recursion
            // handles the rest — the gate stays on the frontier until its
            // output resolves).
            let alternatives: Vec<Vec<(GateId, bool)>> = match g.kind.controlling_value() {
                Some(cv) => vec![g
                    .fanins
                    .iter()
                    .filter(|f| self.vals[f.index()] == Logic::X)
                    .map(|&f| (f, !cv))
                    .collect()],
                None => match g.fanins.iter().find(|f| self.vals[f.index()] == Logic::X) {
                    Some(&f) => vec![vec![(f, false)], vec![(f, true)]],
                    None => continue, // imply will resolve this gate
                },
            };
            for alt in alternatives {
                let saved = self.vals.clone();
                let mut ok = true;
                for (f, v) in alt {
                    if !self.assign(f, v) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    match self.solve() {
                        Some(true) => return Some(true),
                        None => return None,
                        Some(false) => {}
                    }
                }
                self.vals = saved;
                self.backtracks += 1;
                if self.backtracks > self.limit {
                    return None;
                }
            }
        }
        Some(false)
    }

    /// Justify the output of J-frontier gate `j`, then continue solving.
    fn justify(&mut self, j: GateId) -> Option<bool> {
        let g = self.nl.gate(j);
        let want = self.vals[j.index()].good().expect("binary J entry");
        // Decision alternatives: when `want` is the gate's controlled
        // response, any single X input at the controlling value justifies
        // it (one alternative per X input); otherwise enumerate the first
        // X input both ways and let implication narrow the rest.
        let alternatives: Vec<Vec<(GateId, bool)>> =
            match (g.kind.controlling_value(), controlled_output(g.kind)) {
                (Some(cv), Some(resp)) if want == resp => g
                    .fanins
                    .iter()
                    .filter(|f| self.vals[f.index()] == Logic::X)
                    .map(|&f| vec![(f, cv)])
                    .collect(),
                _ => match g.fanins.iter().find(|f| self.vals[f.index()] == Logic::X) {
                    Some(&f) => vec![vec![(f, false)], vec![(f, true)]],
                    None => vec![],
                },
            };
        if alternatives.is_empty() {
            return Some(false);
        }
        for alt in alternatives {
            let saved = self.vals.clone();
            let mut ok = true;
            for (net, v) in alt {
                if !self.assign(net, v) {
                    ok = false;
                    break;
                }
            }
            if ok {
                match self.solve() {
                    Some(true) => return Some(true),
                    None => return None,
                    Some(false) => {}
                }
            }
            self.vals = saved;
            self.backtracks += 1;
            if self.backtracks > self.limit {
                return None;
            }
        }
        Some(false)
    }

    /// Assigns a binary value to a net, rejecting conflicts.
    fn assign(&mut self, net: GateId, v: bool) -> bool {
        match self.vals[net.index()] {
            Logic::X => {
                self.vals[net.index()] = Logic::from_bool(v);
                true
            }
            cur => cur.good() == Some(v) && !cur.is_fault_effect(),
        }
    }

    /// Implication to fixpoint: forward evaluation plus unique backward
    /// justification. Returns `false` on conflict.
    fn imply(&mut self) -> bool {
        let nl = self.nl;
        loop {
            let mut changed = false;
            for (id, g) in nl.iter() {
                if !g.kind.is_logic() && !matches!(g.kind, GateKind::Output) {
                    continue;
                }
                // The faulty site keeps its injected effect; its *good*
                // value constrains the inputs via the J-frontier instead.
                if id == self.fault.site.gate {
                    continue;
                }
                let out = self.eval(g);
                let cur = self.vals[id.index()];
                if out != Logic::X {
                    if cur == Logic::X {
                        self.vals[id.index()] = out;
                        changed = true;
                    } else if cur != out {
                        return false;
                    }
                }
                // Backward: unique justification for binary outputs.
                if let Some(want) = self.vals[id.index()].good() {
                    if self.vals[id.index()].is_fault_effect() {
                        continue;
                    }
                    if let Some(nc_out) = noncontrolled_output(g.kind) {
                        if want == nc_out {
                            // All inputs must take the non-controlling value.
                            let nc = !g.kind.controlling_value().unwrap();
                            for &f in &g.fanins {
                                if self.vals[f.index()] == Logic::X {
                                    self.vals[f.index()] = Logic::from_bool(nc);
                                    changed = true;
                                } else if self.vals[f.index()].good() == Some(!nc) {
                                    // A controlling input contradicts the
                                    // non-controlled output — conflict,
                                    // unless a fault effect is involved
                                    // (conservatively allowed).
                                    if !self.vals[f.index()].is_fault_effect() {
                                        return false;
                                    }
                                }
                            }
                        }
                    }
                    // Single-input gates invert/copy backwards.
                    if matches!(g.kind, GateKind::Not | GateKind::Buf | GateKind::Output) {
                        let need = want ^ matches!(g.kind, GateKind::Not);
                        let f = g.fanins[0];
                        match self.vals[f.index()] {
                            Logic::X => {
                                self.vals[f.index()] = Logic::from_bool(need);
                                changed = true;
                            }
                            v if v.is_fault_effect() => {}
                            v => {
                                if v.good() != Some(need) {
                                    return false;
                                }
                            }
                        }
                    }
                }
            }
            // Activation justification: the site's good value must be
            // producible by its inputs. Treat the site as a J-frontier
            // entry with the good value.
            if !changed {
                return true;
            }
        }
    }

    /// Gates whose output is X with a fault effect on some input, or the
    /// (injected) site gate's own justification pending.
    fn d_frontier(&self) -> Vec<GateId> {
        self.nl
            .iter()
            .filter(|(id, g)| {
                g.kind.is_logic()
                    && self.vals[id.index()] == Logic::X
                    && g.fanins
                        .iter()
                        .any(|&f| self.vals[f.index()].is_fault_effect())
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// The next unjustified binary gate output (J-frontier entry),
    /// including the fault site's good-value justification.
    fn pick_j_frontier(&mut self) -> Option<GateId> {
        let nl = self.nl;
        // Fault-site good value first.
        let site = self.fault.site.gate;
        let sg = nl.gate(site);
        if sg.kind.is_logic() {
            let want = !self.fault.kind.stuck_value();
            match self.eval(sg).good() {
                Some(v) if v == want => {}
                _ => return Some(site),
            }
        }
        for (id, g) in nl.iter() {
            if !g.kind.is_logic() || id == site {
                continue;
            }
            let v = self.vals[id.index()];
            if !v.is_binary() {
                continue;
            }
            if self.eval(g) != v {
                return Some(id);
            }
        }
        None
    }

    /// Evaluates `g` over the current values of its fanins.
    fn eval(&mut self, g: &Gate) -> Logic {
        self.ins.clear();
        self.ins
            .extend(g.fanins.iter().map(|&f| self.vals[f.index()]));
        Logic::eval_gate(g.kind, &self.ins)
    }

    /// Justify the J-frontier entry, accounting for the fault site whose
    /// target is its *good* value rather than `vals`.
    fn effect_at_sink(&self) -> bool {
        for &s in self.sinks {
            let g = self.nl.gate(s);
            let v = if matches!(g.kind, GateKind::Dff) {
                self.vals[g.fanins[0].index()]
            } else {
                self.vals[s.index()]
            };
            if v.is_fault_effect() {
                return true;
            }
        }
        false
    }
}

/// The output value an AND/OR-family gate produces when NO input carries
/// the controlling value (`None` for other kinds).
fn noncontrolled_output(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And => Some(true),
        GateKind::Nand => Some(false),
        GateKind::Or => Some(false),
        GateKind::Nor => Some(true),
        _ => None,
    }
}

/// The controlled response as an output value (`None` for gates without a
/// controlling value).
fn controlled_output(kind: GateKind) -> Option<bool> {
    kind.controlled_response()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe_stuck_at;
    use dft_logicsim::{SimKernel, TapeKernel};
    use dft_netlist::generators::{c17, decoder, parity_tree, ripple_adder};

    fn stem_faults(nl: &Netlist) -> Vec<Fault> {
        universe_stuck_at(nl)
            .into_iter()
            .filter(|f| f.site.pin.is_none())
            .collect()
    }

    #[test]
    fn dalg_cubes_detect_their_faults_on_c17() {
        let nl = c17();
        let dalg = DAlgorithm::new(&nl);
        let sim = TapeKernel::compile(&nl);
        for fault in stem_faults(&nl) {
            match dalg.generate(fault, 500) {
                AtpgResult::Test(cube) => {
                    assert!(
                        sim.detects(&cube.random_fill(3), fault),
                        "{fault}: cube {cube} fails"
                    );
                }
                other => panic!("{fault}: expected a test, got {other:?}"),
            }
        }
    }

    #[test]
    fn dalg_agrees_with_podem_on_testability() {
        use crate::Podem;
        let nl = ripple_adder(4);
        let dalg = DAlgorithm::new(&nl);
        let mut podem = Podem::new(&nl);
        let sim = TapeKernel::compile(&nl);
        for fault in stem_faults(&nl) {
            let d = dalg.generate(fault, 2000);
            let (p, _) = podem.generate(fault, 2000);
            match (&d, &p) {
                (AtpgResult::Test(dc), AtpgResult::Test(_)) => {
                    assert!(sim.detects(&dc.random_fill(1), fault), "{fault}");
                }
                (AtpgResult::Untestable, AtpgResult::Untestable) => {}
                // Aborts are allowed to disagree.
                (AtpgResult::Aborted, _) | (_, AtpgResult::Aborted) => {}
                (a, b) => panic!("{fault}: D-alg {a:?} vs PODEM {b:?}"),
            }
        }
    }

    #[test]
    fn dalg_solves_random_resistant_decoder() {
        let nl = decoder(4);
        let dalg = DAlgorithm::new(&nl);
        let sim = TapeKernel::compile(&nl);
        let y0 = nl.find("y0_g").unwrap();
        let f = Fault::stuck_at_output(y0, false);
        let AtpgResult::Test(cube) = dalg.generate(f, 2000) else {
            panic!("decoder fault should be testable");
        };
        assert!(sim.detects(&cube.random_fill(9), f));
    }

    #[test]
    fn dalg_handles_xor_trees() {
        let nl = parity_tree(8);
        let dalg = DAlgorithm::new(&nl);
        let sim = TapeKernel::compile(&nl);
        let mut tested = 0;
        for fault in stem_faults(&nl) {
            if let AtpgResult::Test(cube) = dalg.generate(fault, 2000) {
                assert!(sim.detects(&cube.random_fill(2), fault), "{fault}");
                tested += 1;
            }
        }
        // Parity trees have no redundancy: everything testable.
        assert_eq!(tested, stem_faults(&nl).len());
    }

    #[test]
    fn dalg_proves_redundancy() {
        use dft_netlist::{GateKind, Netlist};
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, and], "or");
        nl.add_output(or, "po");
        let dalg = DAlgorithm::new(&nl);
        assert_eq!(
            dalg.generate(Fault::stuck_at_output(and, false), 5000),
            AtpgResult::Untestable
        );
    }
}
