//! Five-valued full-pass simulation with single-fault injection: the
//! oracle that the tape and PODEM's [`crate::Implication`] are checked
//! against.

use dft_fault::{Fault, FaultSite};
use dft_netlist::{GateId, GateKind, Levelization, Logic, Netlist};

use crate::{Pattern, Response};

/// Five-valued full-pass simulator over the combinational view.
///
/// Given a (partial) assignment of the combinational sources and an
/// optional injected fault, computes the `Logic` value of every net in
/// Roth's D-calculus, one whole levelized pass per call.
#[derive(Debug)]
pub struct FiveSim<'a> {
    nl: &'a Netlist,
    lv: Levelization,
    sources: Vec<GateId>,
    sinks: Vec<GateId>,
}

impl<'a> FiveSim<'a> {
    /// Builds a simulator for `nl`.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &'a Netlist) -> FiveSim<'a> {
        FiveSim {
            nl,
            lv: Levelization::compute(nl).expect("netlist must be acyclic"),
            sources: nl.combinational_sources(),
            sinks: nl.combinational_sinks(),
        }
    }

    /// Simulates `assignment` (one `Logic` per source; `X` = unassigned)
    /// with `fault` injected (or fault-free if `None`). Returns the value
    /// of every net, indexed by `GateId`.
    pub fn simulate(&self, assignment: &[Logic], fault: Option<Fault>) -> Vec<Logic> {
        assert_eq!(assignment.len(), self.sources.len(), "assignment width");
        let mut vals = vec![Logic::X; self.nl.num_gates()];
        for (s, &g) in self.sources.iter().enumerate() {
            vals[g.index()] = assignment[s];
        }
        // Inject a stem fault on a source immediately.
        if let Some(f) = fault {
            if f.site.pin.is_none() {
                let g = f.site.gate;
                if matches!(self.nl.gate(g).kind, GateKind::Input | GateKind::Dff) {
                    vals[g.index()] = inject(vals[g.index()], f.kind.stuck_value());
                }
            }
        }
        let mut ins: Vec<Logic> = Vec::with_capacity(8);
        for &id in self.lv.order() {
            let g = self.nl.gate(id);
            if matches!(g.kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            ins.clear();
            ins.extend(g.fanins.iter().map(|&f| vals[f.index()]));
            // Branch fault on one of this gate's pins?
            if let Some(f) = fault {
                if let FaultSite {
                    gate,
                    pin: Some(pin),
                } = f.site
                {
                    if gate == id {
                        ins[pin as usize] = inject(ins[pin as usize], f.kind.stuck_value());
                    }
                }
            }
            let mut v = Logic::eval_gate(g.kind, &ins);
            // Stem fault on this gate's output?
            if let Some(f) = fault {
                if f.site == FaultSite::output(id) {
                    v = inject(v, f.kind.stuck_value());
                }
            }
            vals[id.index()] = v;
        }
        vals
    }

    /// Observed sink values from a [`FiveSim::simulate`] result, taking the
    /// injected fault (if it sits on a flop D pin) into account.
    pub fn sink_values(&self, vals: &[Logic], fault: Option<Fault>) -> Vec<Logic> {
        self.sinks
            .iter()
            .map(|&s| {
                let g = self.nl.gate(s);
                if matches!(g.kind, GateKind::Dff) {
                    let mut v = vals[g.fanins[0].index()];
                    if let Some(f) = fault {
                        if f.site == FaultSite::input(s, 0) {
                            v = inject(v, f.kind.stuck_value());
                        }
                    }
                    v
                } else {
                    vals[s.index()]
                }
            })
            .collect()
    }

    /// `true` if any sink carries a fault effect (`D`/`D̄`) — i.e. the
    /// assignment is a test for the injected fault.
    pub fn fault_observed(&self, vals: &[Logic], fault: Option<Fault>) -> bool {
        self.sink_values(vals, fault)
            .iter()
            .any(|v| v.is_fault_effect())
    }

    /// The faulty machine's response to one fully specified `pattern`
    /// with `fault` injected (the good machine for `None`), in sink order.
    pub fn response(&self, pattern: &Pattern, fault: Option<Fault>) -> Response {
        let assignment: Vec<Logic> = pattern.iter().map(|&b| Logic::from_bool(b)).collect();
        let vals = self.simulate(&assignment, fault);
        self.sink_values(&vals, fault)
            .iter()
            .map(|v| v.faulty().expect("a fully specified pattern has no X"))
            .collect()
    }
}

/// Injects a stuck-at effect into a good value: `D` when the good machine
/// drives 1 over a stuck-0, `D̄` for 0 over stuck-1, unchanged when the
/// good value equals the stuck value, `X` stays `X`.
#[inline]
fn inject(v: Logic, stuck: bool) -> Logic {
    match v.good() {
        Some(g) if g != stuck => {
            if g {
                Logic::D
            } else {
                Logic::Dbar
            }
        }
        Some(g) => Logic::from_bool(g),
        None => Logic::X,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::c17;
    use dft_netlist::Netlist;

    #[test]
    fn fault_free_matches_boolean_semantics() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, vec![a, b], "g");
        nl.add_output(g, "po");
        let sim = FiveSim::new(&nl);
        let vals = sim.simulate(&[Logic::One, Logic::One], None);
        assert_eq!(vals[g.index()], Logic::One);
        let vals = sim.simulate(&[Logic::One, Logic::X], None);
        assert_eq!(vals[g.index()], Logic::X);
        let vals = sim.simulate(&[Logic::Zero, Logic::X], None);
        assert_eq!(vals[g.index()], Logic::Zero);
    }

    #[test]
    fn stem_fault_produces_d() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        nl.add_output(inv, "po");
        let sim = FiveSim::new(&nl);
        // inv SA0 with a=0: good inv=1, faulty 0 -> D at inv and PO.
        let f = Fault::stuck_at_output(inv, false);
        let vals = sim.simulate(&[Logic::Zero], Some(f));
        assert_eq!(vals[inv.index()], Logic::D);
        assert!(sim.fault_observed(&vals, Some(f)));
        // a=1: good inv=0 == stuck -> no effect.
        let vals = sim.simulate(&[Logic::One], Some(f));
        assert_eq!(vals[inv.index()], Logic::Zero);
        assert!(!sim.fault_observed(&vals, Some(f)));
    }

    #[test]
    fn pi_fault_injection() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, vec![a], "buf");
        nl.add_output(buf, "po");
        let sim = FiveSim::new(&nl);
        let f = Fault::stuck_at_output(a, true);
        let vals = sim.simulate(&[Logic::Zero], Some(f));
        assert_eq!(vals[a.index()], Logic::Dbar);
        assert_eq!(vals[buf.index()], Logic::Dbar);
    }

    #[test]
    fn branch_fault_stays_on_branch() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, b], "or");
        nl.add_output(and, "po1");
        nl.add_output(or, "po2");
        let sim = FiveSim::new(&nl);
        let f = Fault::stuck_at_input(and, 0, true);
        let vals = sim.simulate(&[Logic::Zero, Logic::One], Some(f));
        // AND sees a=Dbar (good 0 / faulty 1), b=1 -> Dbar.
        assert_eq!(vals[and.index()], Logic::Dbar);
        // OR sees the true a=0, b=1 -> 1: unaffected.
        assert_eq!(vals[or.index()], Logic::One);
    }

    #[test]
    fn d_propagation_requires_noncontrolling_side_inputs() {
        let nl = c17();
        let sim = FiveSim::new(&nl);
        // G10 = NAND(G1, G3). Fault G1 SA0, set G1=1 -> G1 carries D.
        // With G3=X, NAND(D, X) = X (cannot conclude propagation).
        let g1 = nl.find("G1").unwrap();
        let g10 = nl.find("G10").unwrap();
        let f = Fault::stuck_at_output(g1, false);
        let mut asg = vec![Logic::X; 5];
        asg[0] = Logic::One; // G1 is the first input
        let vals = sim.simulate(&asg, Some(f));
        assert_eq!(vals[g1.index()], Logic::D);
        assert_eq!(vals[g10.index()], Logic::X);
        // Setting G3=1 lets the effect through: NAND(D,1) = Dbar.
        asg[2] = Logic::One; // G3 is the third input
        let vals = sim.simulate(&asg, Some(f));
        assert_eq!(vals[g10.index()], Logic::Dbar);
    }

    #[test]
    fn flop_d_pin_fault_observed_at_sink() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff(a, "q");
        nl.add_output(q, "po");
        let sim = FiveSim::new(&nl);
        let f = Fault::stuck_at_input(q, 0, false);
        // a=1: D pin good 1, faulty 0 -> D observed at the flop sink.
        let vals = sim.simulate(&[Logic::One, Logic::X], Some(f));
        assert!(sim.fault_observed(&vals, Some(f)));
        let vals = sim.simulate(&[Logic::Zero, Logic::X], Some(f));
        assert!(!sim.fault_observed(&vals, Some(f)));
    }
}
