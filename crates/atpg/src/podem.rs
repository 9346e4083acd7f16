//! PODEM: path-oriented decision making test generation.
//!
//! The search makes decisions only at combinational sources (primary
//! inputs and scan flops), derives every internal value by five-valued
//! implication on the gate tape ([`Implication`]: one full pass per
//! search, then only the readers of each changed source), and backtracks
//! chronologically. Objectives are chosen in the textbook order: excite
//! the fault, then drive a D-frontier gate towards an observation point;
//! the backtrace is guided by SCOAP costs. Optional *constraints*
//! (required values on arbitrary nets) support the launch condition of
//! broadside transition ATPG.

use dft_checkpoint::CancelToken;
use dft_fault::Fault;
use dft_logicsim::testability::{scoap, Scoap};
use dft_logicsim::{Implication, TestCube};
use dft_metrics::MetricsHandle;
use dft_netlist::{GateId, GateKind, Logic, Netlist};

/// Outcome of test generation for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtpgResult {
    /// A test cube that detects the fault (care bits only).
    Test(TestCube),
    /// The fault is proven untestable (search space exhausted).
    Untestable,
    /// The backtrack limit was exceeded; testability unknown.
    Aborted,
}

impl AtpgResult {
    /// `true` for [`AtpgResult::Test`].
    pub fn is_test(&self) -> bool {
        matches!(self, AtpgResult::Test(_))
    }
}

/// Counters describing one PODEM invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodemStats {
    /// Chronological backtracks performed.
    pub backtracks: u32,
    /// Five-valued implications: one per search iteration.
    pub simulations: u32,
    /// Decisions (source assignments) made.
    pub decisions: u32,
    /// Gate evaluations by the implication engine: the start pass plus
    /// every event-driven re-evaluation ([`Implication::gate_evals`]).
    pub gate_evals: u64,
}

impl std::ops::AddAssign for PodemStats {
    fn add_assign(&mut self, other: PodemStats) {
        self.backtracks += other.backtracks;
        self.simulations += other.simulations;
        self.decisions += other.decisions;
        self.gate_evals += other.gate_evals;
    }
}

impl PodemStats {
    /// The counters as a checkpoint stores them:
    /// `[backtracks, simulations, decisions, gate_evals]`.
    pub(crate) fn to_array(self) -> [u64; 4] {
        [
            self.backtracks.into(),
            self.simulations.into(),
            self.decisions.into(),
            self.gate_evals,
        ]
    }

    /// The inverse of [`PodemStats::to_array`] on a parsed checkpoint,
    /// which holds the first three counters below `2^32`.
    pub(crate) fn from_array(a: [u64; 4]) -> PodemStats {
        let counter = |v: u64| u32::try_from(v).expect("a parsed checkpoint bounds it to u32");
        PodemStats {
            backtracks: counter(a[0]),
            simulations: counter(a[1]),
            decisions: counter(a[2]),
            gate_evals: a[3],
        }
    }

    /// Adds one search's counters and outcome to `metrics`. Every PODEM
    /// call is recorded here: [`Podem::generate_constrained`] right after
    /// its search, the ATPG driver's top-off only when it commits the
    /// result.
    pub(crate) fn record(&self, result: &AtpgResult, metrics: &MetricsHandle) {
        if let Some(m) = metrics.get() {
            m.podem_calls.inc();
            m.podem_decisions.add(self.decisions as u64);
            m.podem_backtracks.add(self.backtracks as u64);
            m.podem_simulations.add(self.simulations as u64);
            m.podem_gate_evals.add(self.gate_evals);
            m.podem_backtracks_per_call.record(self.backtracks as u64);
            match result {
                AtpgResult::Test(_) => m.podem_tests.inc(),
                AtpgResult::Untestable => m.podem_untestable.inc(),
                AtpgResult::Aborted => m.podem_aborted.inc(),
            }
        }
    }
}

/// A PODEM test generator bound to one netlist.
#[derive(Debug)]
pub struct Podem<'a> {
    nl: &'a Netlist,
    engine: Implication,
    scoap: Scoap,
    /// Map from source gate to its index in the assignment vector.
    source_index: Vec<Option<u32>>,
    /// Whether backtrace uses SCOAP guidance (`true`) or naive first-X
    /// selection (`false`) — the E3 ablation knob.
    pub guided: bool,
    metrics: MetricsHandle,
    /// Cooperative cancellation, checked once per search iteration. A
    /// cancelled search returns [`AtpgResult::Aborted`]; the driver
    /// discards that result rather than classifying the fault. Never
    /// fires unless [`Podem::set_cancel`] shares a token that does.
    cancel: CancelToken,
    /// The decision stack and the start assignment, reused by every
    /// search.
    stack: Vec<Decision>,
    start: Vec<Logic>,
}

#[derive(Debug)]
struct Decision {
    /// The implication trail before this decision was assigned.
    mark: usize,
    source: usize,
    value: bool,
    flipped: bool,
}

impl<'a> Podem<'a> {
    /// Builds a generator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> Podem<'a> {
        let mut source_index = vec![None; nl.num_gates()];
        for (i, &s) in nl.combinational_sources().iter().enumerate() {
            source_index[s.index()] = Some(i as u32);
        }
        Podem {
            nl,
            engine: Implication::new(nl),
            scoap: scoap(nl),
            source_index,
            guided: true,
            metrics: MetricsHandle::disabled(),
            cancel: CancelToken::new(),
            stack: Vec::new(),
            start: Vec::new(),
        }
    }

    /// Shares the driver's cancellation token: a search it cuts short
    /// returns [`AtpgResult::Aborted`], which the driver discards.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.cancel = cancel;
    }

    /// Points per-call counters (calls, decisions, backtracks, outcomes)
    /// at `metrics`. The search loop still accumulates into the local
    /// [`PodemStats`]; the registry is flushed once per generate call.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The netlist this generator works on.
    pub fn netlist(&self) -> &Netlist {
        self.nl
    }

    /// Generates a test for `fault`, backtracking at most
    /// `backtrack_limit` times.
    pub fn generate(&mut self, fault: Fault, backtrack_limit: u32) -> (AtpgResult, PodemStats) {
        self.generate_constrained(fault, &[], backtrack_limit, None)
    }

    /// Generates a test for `fault` subject to `constraints` (required
    /// binary values on arbitrary nets) and optionally starting from a
    /// pre-assigned cube (for dynamic compaction). The initial assignment
    /// bits are treated as unretractable.
    pub fn generate_constrained(
        &mut self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        backtrack_limit: u32,
        initial: Option<&TestCube>,
    ) -> (AtpgResult, PodemStats) {
        let (result, stats) = self.search(fault, constraints, backtrack_limit, initial);
        stats.record(&result, &self.metrics);
        (result, stats)
    }

    /// [`Podem::generate_constrained`] without recording metrics: a
    /// pure function of the netlist, the fault and the limits, whatever
    /// this engine searched before.
    pub(crate) fn search(
        &mut self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        backtrack_limit: u32,
        initial: Option<&TestCube>,
    ) -> (AtpgResult, PodemStats) {
        let (result, mut stats) = self.search_loop(fault, constraints, backtrack_limit, initial);
        stats.gate_evals = self.engine.gate_evals();
        (result, stats)
    }

    /// The PODEM search loop behind [`Podem::search`].
    fn search_loop(
        &mut self,
        fault: Fault,
        constraints: &[(GateId, bool)],
        backtrack_limit: u32,
        initial: Option<&TestCube>,
    ) -> (AtpgResult, PodemStats) {
        let num_sources = self.engine.assignment().len();
        self.start.clear();
        self.start.resize(num_sources, Logic::X);
        if let Some(cube) = initial {
            assert_eq!(cube.width(), num_sources, "initial cube width");
            for (i, b) in cube.bits().iter().enumerate() {
                if let Some(v) = b {
                    self.start[i] = Logic::from_bool(*v);
                }
            }
        }
        self.engine.start(&self.start, fault);
        self.stack.clear();
        let mut stats = PodemStats::default();
        // Cheap sanity guard against pathological loops (in u64: the
        // product overflows u32 for large backtrack limits).
        let max_decisions = 4 * (num_sources as u64 + 4) * (backtrack_limit as u64 + 4);

        loop {
            if self.cancel.is_cancelled() {
                return (AtpgResult::Aborted, stats);
            }
            stats.simulations += 1;
            self.engine.imply();

            if self.engine.fault_observed()
                && constraints_satisfiable(&self.engine, constraints) == Tri::Satisfied
            {
                let mut cube = TestCube::all_x(num_sources);
                for (i, &v) in self.engine.assignment().iter().enumerate() {
                    if let Some(b) = v.good() {
                        cube.set(i, b);
                    }
                }
                return (AtpgResult::Test(cube), stats);
            }

            // Choose the next objective and backtrace it to an unassigned
            // source; a failed objective or a backtrace that finds no X
            // path to a source is a failed branch.
            let decision = match self.objective(fault, constraints) {
                Objective::Assign(net, val) => self.backtrace(net, val),
                Objective::Fail => None,
            };
            match decision {
                Some((src, val)) => {
                    stats.decisions += 1;
                    self.stack.push(Decision {
                        mark: self.engine.mark(),
                        source: src,
                        value: val,
                        flipped: false,
                    });
                    self.engine.assign(src, Logic::from_bool(val));
                }
                None => {
                    if !backtrack(&mut self.stack, &mut self.engine) {
                        return (AtpgResult::Untestable, stats);
                    }
                    stats.backtracks += 1;
                    if stats.backtracks > backtrack_limit {
                        return (AtpgResult::Aborted, stats);
                    }
                }
            }

            if stats.decisions as u64 > max_decisions {
                return (AtpgResult::Aborted, stats);
            }
        }
    }

    /// Selects the next objective per the PODEM priority order.
    fn objective(&mut self, fault: Fault, constraints: &[(GateId, bool)]) -> Objective {
        let nl = self.nl;
        // 0. Constraints: any violated -> fail; any unassigned -> objective.
        match constraints_satisfiable(&self.engine, constraints) {
            Tri::Violated => return Objective::Fail,
            Tri::Pending(net, val) => return Objective::Assign(net, val),
            Tri::Satisfied => {}
        }

        // 1. Excitation: the fault site's driving net must carry !stuck.
        let site_net = fault.site.net(nl);
        let stuck = fault.kind.stuck_value();
        let site_val = self.engine.value(site_net);
        match site_val {
            Logic::X => return Objective::Assign(site_net, !stuck),
            v if v.is_binary() => {
                if v.good() == Some(stuck) {
                    return Objective::Fail;
                }
                // Excited at the driver. For stem faults the injected site
                // shows D/Dbar via implication; binary !stuck here happens
                // only for branch faults (driver keeps its good value).
                if fault.site.pin.is_none() {
                    // A stem site with a binary value should be impossible
                    // (injection turns it into D/Dbar); defensive fail.
                    return Objective::Fail;
                }
            }
            _ => {} // D or Dbar: excited.
        }

        // 2. Propagation: pick the D-frontier gate with an X path to a
        // sink and the lowest SCOAP observability cost (ties to the
        // lowest id), and a non-controlling objective on one of its X
        // inputs. A fault effect already on a sink-feeding net is caught
        // by `fault_observed` before objective selection, so an empty
        // D-frontier here means failure.
        let gate = match self.engine.pick_d_frontier(&self.scoap.co) {
            Some(g) => g,
            None => return Objective::Fail,
        };
        let g = nl.gate(gate);
        // Objective: set an X input to the gate's non-controlling value.
        let noncontrolling = g.kind.controlling_value().map(|c| !c).unwrap_or(true);
        let mut candidate: Option<(GateId, u32)> = None;
        for &f in &g.fanins {
            if self.engine.value(f) == Logic::X {
                let cost = if noncontrolling {
                    self.scoap.cc1[f.index()]
                } else {
                    self.scoap.cc0[f.index()]
                };
                if candidate.map(|(_, c)| cost < c).unwrap_or(true) {
                    candidate = Some((f, cost));
                }
            }
        }
        match candidate {
            Some((net, _)) => Objective::Assign(net, noncontrolling),
            None => Objective::Fail,
        }
    }

    /// Walks an objective `(net, value)` backwards through X-valued gates
    /// to an unassigned source; returns the source index and value to
    /// assign.
    fn backtrace(&self, mut net: GateId, mut value: bool) -> Option<(usize, bool)> {
        let nl = self.nl;
        let is_x = |f: &GateId| self.engine.value(*f) == Logic::X;
        loop {
            if let Some(src) = self.source_index[net.index()] {
                // Only X sources are decidable.
                if self.engine.value(net) == Logic::X {
                    return Some((src as usize, value));
                }
                return None;
            }
            let g = nl.gate(net);
            if matches!(g.kind, GateKind::Output) {
                net = g.fanins[0];
                continue;
            }
            if !g.kind.is_logic() {
                return None; // constants cannot be controlled
            }
            if g.kind.is_inverting() {
                value = !value;
            }
            // Choose which X input to pursue.
            let x_inputs = || g.fanins.iter().copied().filter(is_x);
            let first = x_inputs().next()?;
            let next = match g.kind {
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // After inversion handling, `value` is the objective for
                    // the underlying AND/OR. Controlling objective -> one
                    // (easiest) input suffices; non-controlling -> all
                    // inputs needed, pursue the hardest first.
                    let base_and = matches!(g.kind, GateKind::And | GateKind::Nand);
                    let controlling = if base_and { !value } else { value };
                    let cost = |f: &GateId| {
                        if value {
                            self.scoap.cc1[f.index()]
                        } else {
                            self.scoap.cc0[f.index()]
                        }
                    };
                    if !self.guided {
                        first
                    } else if controlling {
                        // easiest (the first of equals)
                        x_inputs().min_by_key(cost).unwrap_or(first)
                    } else {
                        // hardest (the last of equals)
                        x_inputs().max_by_key(cost).unwrap_or(first)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Heuristic: aim the first X input at `value` adjusted
                    // by the parity of the known inputs.
                    let known_parity = g
                        .fanins
                        .iter()
                        .filter_map(|&f| self.engine.value(f).good())
                        .fold(false, |acc, b| acc ^ b);
                    value ^= known_parity;
                    // Remaining X inputs besides the chosen one are assumed
                    // 0 by this heuristic; implication corrects any error.
                    first
                }
                // Mux2 (steering through an X select first), Buf, Not.
                _ => first,
            };
            net = next;
        }
    }
}

enum Objective {
    Assign(GateId, bool),
    Fail,
}

#[derive(PartialEq, Eq)]
enum Tri {
    Satisfied,
    Violated,
    Pending(GateId, bool),
}

fn constraints_satisfiable(engine: &Implication, constraints: &[(GateId, bool)]) -> Tri {
    for &(net, want) in constraints {
        match engine.value(net).good() {
            Some(v) if v == want => {}
            Some(_) => return Tri::Violated,
            None => return Tri::Pending(net, want),
        }
    }
    Tri::Satisfied
}

/// Flips the most recent unflipped decision; pops exhausted ones. The
/// flip first undoes everything implied since that decision, which also
/// returns the popped decisions' sources to X. Returns `false` when the
/// stack empties (search space exhausted).
fn backtrack(stack: &mut Vec<Decision>, engine: &mut Implication) -> bool {
    while let Some(top) = stack.last_mut() {
        if top.flipped {
            stack.pop();
            continue;
        }
        top.flipped = true;
        top.value = !top.value;
        engine.undo_to(top.mark);
        engine.assign(top.source, Logic::from_bool(top.value));
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{universe_stuck_at, Fault};
    use dft_logicsim::{SimKernel, TapeKernel};
    use dft_netlist::generators::{c17, decoder, ripple_adder};
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn podem_finds_test_for_every_c17_fault() {
        let nl = c17();
        let mut podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        for fault in universe_stuck_at(&nl) {
            let (result, _) = podem.generate(fault, 100);
            match result {
                AtpgResult::Test(cube) => {
                    let pattern = cube.random_fill(1);
                    assert!(
                        fsim.detects(&pattern, fault),
                        "cube {cube} does not detect {fault}"
                    );
                }
                other => panic!("{fault}: expected test, got {other:?}"),
            }
        }
    }

    #[test]
    fn largest_backtrack_limits_do_not_overflow_the_loop_guard() {
        // The guard's bound 4 * (sources + 4) * (limit + 4) overflows u32
        // for limits near u32::MAX: a panic under debug assertions, and a
        // bound that wraps to 0 (abort after one decision) in release.
        let nl = c17();
        let mut podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        for fault in universe_stuck_at(&nl) {
            for limit in [u32::MAX, u32::MAX - 3] {
                let (result, _) = podem.generate(fault, limit);
                let AtpgResult::Test(cube) = result else {
                    panic!("{fault}: expected a test at limit {limit}, got {result:?}");
                };
                assert!(fsim.detects(&cube.random_fill(1), fault), "{fault}");
            }
        }
    }

    #[test]
    fn podem_proves_redundant_fault_untestable() {
        // y = OR(a, AND(a, b)): the AND output SA0 is redundant (absorbed).
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, and], "or");
        nl.add_output(or, "po");
        let mut podem = Podem::new(&nl);
        let (result, _) = podem.generate(Fault::stuck_at_output(and, false), 1000);
        assert_eq!(result, AtpgResult::Untestable);
        // But the AND SA1 is testable: a=0,b=1 -> or flips 0->1? AND(0,1)=0
        // good, SA1 makes it 1 -> or=1 vs 0. Yes.
        let (result, _) = podem.generate(Fault::stuck_at_output(and, true), 1000);
        assert!(result.is_test());
    }

    #[test]
    fn decoder_hard_faults_need_deterministic_patterns() {
        let nl = decoder(4);
        let mut podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        // Output y0 SA0 requires the exact code 0 with enable: random
        // patterns rarely hit it; PODEM must.
        let y0 = nl.find("y0_g").unwrap();
        let f = Fault::stuck_at_output(y0, false);
        let (result, stats) = podem.generate(f, 1000);
        let AtpgResult::Test(cube) = result else {
            panic!("expected test, stats {stats:?}");
        };
        assert!(fsim.detects(&cube.random_fill(7), f));
        // The cube must pin all 4 address bits + enable.
        assert!(cube.care_bits() >= 5, "cube {cube}");
    }

    #[test]
    fn cube_care_bits_are_minimal_ish() {
        // For a wide OR, exciting an input SA1 only needs that input at 0
        // and the others at 0 (to propagate): all needed. For AND SA0 on
        // one input, the cube needs all inputs 1.
        let mut nl = Netlist::new("t");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(GateKind::And, ins, "g");
        nl.add_output(g, "po");
        let mut podem = Podem::new(&nl);
        let (result, _) = podem.generate(Fault::stuck_at_input(g, 2, false), 100);
        let AtpgResult::Test(cube) = result else {
            panic!()
        };
        assert_eq!(cube.care_bits(), 6);
        assert_eq!(cube.bits().iter().filter(|b| **b == Some(true)).count(), 6);
    }

    #[test]
    fn constraint_steers_generation() {
        let nl = ripple_adder(4);
        let mut podem = Podem::new(&nl);
        let fsim = TapeKernel::compile(&nl);
        let cin = nl.find("cin").unwrap();
        // Any testable fault, but require cin = 1.
        let s0 = nl.find("add_fa0_s").unwrap();
        let f = Fault::stuck_at_output(s0, false);
        let (result, _) = podem.generate_constrained(f, &[(cin, true)], 1000, None);
        let AtpgResult::Test(cube) = result else {
            panic!()
        };
        let sources = nl.combinational_sources();
        let cin_idx = sources.iter().position(|&s| s == cin).unwrap();
        assert_eq!(cube.get(cin_idx), Some(true));
        assert!(fsim.detects(&cube.random_fill(3), f));
    }

    #[test]
    fn impossible_constraint_is_untestable() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        let and = nl.add_gate(GateKind::And, vec![a, inv], "and"); // always 0
        nl.add_output(and, "po");
        let mut podem = Podem::new(&nl);
        // Constrain and=1: impossible.
        let b = nl.find("po").unwrap();
        let f = Fault::stuck_at_output(a, false);
        let (result, _) = podem.generate_constrained(f, &[(b, true)], 1000, None);
        assert_eq!(result, AtpgResult::Untestable);
    }

    #[test]
    fn initial_cube_is_respected() {
        let nl = c17();
        let mut podem = Podem::new(&nl);
        let g1 = nl.find("G1").unwrap();
        let sources = nl.combinational_sources();
        let g1_idx = sources.iter().position(|&s| s == g1).unwrap();
        let mut initial = TestCube::all_x(sources.len());
        initial.set(g1_idx, true);
        // Target a fault not involving G1's value directly.
        let g11 = nl.find("G11").unwrap();
        let f = Fault::stuck_at_output(g11, true);
        let (result, _) = podem.generate_constrained(f, &[], 1000, Some(&initial));
        if let AtpgResult::Test(cube) = result {
            assert_eq!(cube.get(g1_idx), Some(true), "initial bit dropped");
        }
    }

    #[test]
    fn unguided_backtrace_still_correct() {
        let nl = ripple_adder(4);
        let mut podem = Podem::new(&nl);
        podem.guided = false;
        let fsim = TapeKernel::compile(&nl);
        let mut tested = 0;
        for fault in universe_stuck_at(&nl) {
            let (result, _) = podem.generate(fault, 500);
            if let AtpgResult::Test(cube) = result {
                assert!(fsim.detects(&cube.random_fill(5), fault), "{fault}");
                tested += 1;
            }
        }
        assert!(tested > 0);
    }
}
