//! Structural fault collapsing (equivalence and dominance).
//!
//! Equivalence rules (two faults are equivalent when every test for one
//! detects the other, in both directions):
//!
//! * A branch fault on a pin whose driver has a single fanout is equivalent
//!   to the driver's output fault.
//! * `AND`: any input SA0 ≡ output SA0. `OR`: input SA1 ≡ output SA1.
//!   `NAND`: input SA0 ≡ output SA1. `NOR`: input SA1 ≡ output SA0.
//! * `NOT`/`BUF`: input SA-v ≡ output SA-v (inverted for NOT).
//!
//! A flop's D-pin and Q faults are never merged: under full scan the D
//! pin is a pseudo-output (captured) and Q a pseudo-input (loaded), so
//! different patterns detect them.
//!
//! Dominance rules (fault `f` dominates `g` when every test for `g` also
//!   detects `f`; the dominating fault can be dropped):
//!
//! * `AND`: output SA1 dominates each input SA1. `OR`: output SA0 dominates
//!   input SA0. `NAND`: output SA0 dominates input SA1. `NOR`: output SA1
//!   dominates input SA0.

use std::collections::HashMap;

use dft_netlist::{GateKind, Netlist};

use crate::{Fault, FaultKind, FaultSite};

/// Result of fault collapsing: representative faults plus the mapping from
/// every original fault to its representative.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    reps: Vec<Fault>,
    class_of: HashMap<Fault, Fault>,
}

impl CollapsedFaults {
    /// The collapsed fault list (one representative per equivalence class).
    pub fn representatives(&self) -> &[Fault] {
        &self.reps
    }

    /// Maps a fault from the original universe to its representative.
    /// Returns the fault itself if it was not part of the collapsed
    /// universe.
    pub fn representative(&self, f: Fault) -> Fault {
        self.class_of.get(&f).copied().unwrap_or(f)
    }

    /// Collapse ratio: `representatives / original`, e.g. `0.55` means the
    /// collapsed list is 55% of the original.
    pub fn ratio(&self, original_len: usize) -> f64 {
        if original_len == 0 {
            return 1.0;
        }
        self.reps.len() as f64 / original_len as f64
    }
}

/// Union-find over faults.
struct Dsu {
    parent: HashMap<Fault, Fault>,
}

impl Dsu {
    fn new(faults: &[Fault]) -> Dsu {
        Dsu {
            parent: faults.iter().map(|&f| (f, f)).collect(),
        }
    }

    fn find(&mut self, f: Fault) -> Fault {
        let p = match self.parent.get(&f) {
            Some(&p) => p,
            None => return f,
        };
        if p == f {
            return f;
        }
        let root = self.find(p);
        self.parent.insert(f, root);
        root
    }

    fn union(&mut self, a: Fault, b: Fault) {
        if !self.parent.contains_key(&a) || !self.parent.contains_key(&b) {
            return; // only collapse faults present in the universe
        }
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Prefer output-site, lower-id representatives for stable,
            // human-friendly collapsed lists.
            let (keep, drop) =
                if (ra.site.pin.is_none(), ra.site) <= (rb.site.pin.is_none(), rb.site) {
                    (rb, ra)
                } else {
                    (ra, rb)
                };
            self.parent.insert(drop, keep);
        }
    }
}

/// Equivalence-collapses a stuck-at fault universe.
///
/// Only stuck-at faults participate; transition faults are returned
/// unchanged (their standard universe is already stem-only).
pub fn collapse_equivalent(nl: &Netlist, faults: &[Fault]) -> CollapsedFaults {
    let mut dsu = Dsu::new(faults);
    for (id, g) in nl.iter() {
        // Rule 1: single-fanout branch ≡ stem.
        for (pin, &drv) in g.fanins.iter().enumerate() {
            if nl.gate(drv).num_fanouts() == 1 {
                for value in [false, true] {
                    dsu.union(
                        Fault::stuck_at_input(id, pin as u8, value),
                        Fault::stuck_at_output(drv, value),
                    );
                }
            }
        }
        // Rule 2: gate-local equivalences.
        let (in_val, out_val) = match g.kind {
            GateKind::And => (false, false),
            GateKind::Or => (true, true),
            GateKind::Nand => (false, true),
            GateKind::Nor => (true, false),
            GateKind::Buf => {
                for v in [false, true] {
                    dsu.union(
                        Fault::stuck_at_input(id, 0, v),
                        Fault::stuck_at_output(id, v),
                    );
                }
                continue;
            }
            GateKind::Not => {
                for v in [false, true] {
                    dsu.union(
                        Fault::stuck_at_input(id, 0, v),
                        Fault::stuck_at_output(id, !v),
                    );
                }
                continue;
            }
            _ => continue,
        };
        for pin in 0..g.fanins.len() {
            dsu.union(
                Fault::stuck_at_input(id, pin as u8, in_val),
                Fault::stuck_at_output(id, out_val),
            );
        }
    }

    let mut class_of = HashMap::with_capacity(faults.len());
    let mut reps = Vec::new();
    let mut seen: HashMap<Fault, ()> = HashMap::new();
    for &f in faults {
        let r = dsu.find(f);
        class_of.insert(f, r);
        if seen.insert(r, ()).is_none() {
            reps.push(r);
        }
    }
    CollapsedFaults { reps, class_of }
}

/// Applies dominance collapsing on top of an equivalence-collapsed list:
/// removes output faults dominated by (i.e. detected by every test of) an
/// input fault of the same gate, per the rules in the module docs.
///
/// The returned list is suitable for test generation (a test set detecting
/// it detects the full universe) but **not** for coverage reporting —
/// report coverage on the equivalence classes instead.
pub fn collapse_dominance(nl: &Netlist, collapsed: &CollapsedFaults) -> Vec<Fault> {
    let mut drop: HashMap<Fault, ()> = HashMap::new();
    for (id, g) in nl.iter() {
        if g.fanins.is_empty() {
            continue;
        }
        let out_kind = match g.kind {
            GateKind::And => FaultKind::StuckAt1,
            GateKind::Or => FaultKind::StuckAt0,
            GateKind::Nand => FaultKind::StuckAt0,
            GateKind::Nor => FaultKind::StuckAt1,
            _ => continue,
        };
        // The dominating output fault may be dropped only if at least one
        // dominated input fault remains in the collapsed list.
        let out_fault = Fault {
            site: FaultSite::output(id),
            kind: out_kind,
        };
        let rep = collapsed.representative(out_fault);
        let in_val = !g.kind.controlling_value().expect("gate has cv");
        let any_input_kept = (0..g.fanins.len()).any(|pin| {
            let f = Fault::stuck_at_input(id, pin as u8, in_val);
            let r = collapsed.representative(f);
            r != rep && !drop.contains_key(&r)
        });
        if any_input_kept {
            drop.insert(rep, ());
        }
    }
    collapsed
        .representatives()
        .iter()
        .copied()
        .filter(|f| !drop.contains_key(f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe_stuck_at;
    use dft_netlist::generators::{benchmark_suite, c17};
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn c17_collapse_matches_textbook() {
        // The classic result: c17's 46-fault universe equivalence-collapses
        // to 22 faults.
        let nl = c17();
        let faults = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &faults);
        assert_eq!(col.representatives().len(), 22);
    }

    #[test]
    fn single_fanout_branch_collapses_to_stem() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        nl.add_output(inv, "po");
        let faults = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &faults);
        // a-SA0 ≡ inv.in0-SA0 ≡ inv-SA1; a-SA1 ≡ inv.in0-SA1 ≡ inv-SA0.
        assert_eq!(col.representatives().len(), 2);
        let r1 = col.representative(Fault::stuck_at_output(a, false));
        let r2 = col.representative(Fault::stuck_at_input(inv, 0, false));
        let r3 = col.representative(Fault::stuck_at_output(inv, true));
        assert_eq!(r1, r2);
        assert_eq!(r2, r3);
    }

    #[test]
    fn and_gate_equivalence() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, vec![a, b], "g");
        nl.add_output(g, "po");
        let faults = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &faults);
        // Full universe: a(2) b(2) g out(2) g.in0(2) g.in1(2) = 10.
        // a-SA0 ≡ g.in0-SA0 ≡ g-SA0 ≡ g.in1-SA0 ≡ b-SA0. Classes:
        // {all SA0 on the cone + g SA0} (1), a-SA1≡in0-SA1 (1),
        // b-SA1≡in1-SA1 (1), g-SA1 (1) -> 4.
        assert_eq!(col.representatives().len(), 4);
    }

    #[test]
    fn dominance_drops_and_output_sa1() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, vec![a, b], "g");
        nl.add_output(g, "po");
        let faults = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &faults);
        let dom = collapse_dominance(&nl, &col);
        assert_eq!(dom.len(), 3);
        // The dropped fault must be the class containing g-SA1.
        let g_sa1_rep = col.representative(Fault::stuck_at_output(g, true));
        assert!(!dom.contains(&g_sa1_rep));
    }

    #[test]
    fn every_fault_maps_to_a_representative_in_the_list() {
        let nl = c17();
        let faults = universe_stuck_at(&nl);
        let col = collapse_equivalent(&nl, &faults);
        for &f in &faults {
            let r = col.representative(f);
            assert!(col.representatives().contains(&r), "{f}");
        }
    }

    #[test]
    fn ratio_is_sane_on_the_whole_suite() {
        for c in benchmark_suite() {
            let faults = universe_stuck_at(&c.netlist);
            let col = collapse_equivalent(&c.netlist, &faults);
            let ratio = col.ratio(faults.len());
            assert!(
                ratio > 0.2 && ratio <= 1.0,
                "{}: suspicious collapse ratio {ratio}",
                c.name
            );
        }
    }
}
