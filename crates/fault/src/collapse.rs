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
//!
//! The bookkeeping is array arithmetic, with no map keyed by fault: a
//! per-gate offset table numbers every `(gate, pin, kind)` slot, one
//! slot→position vector places a fault in the slice being collapsed, and
//! the union-find runs over slice positions.

use dft_netlist::{GateKind, Netlist};

use crate::{Fault, FaultKind, FaultSite};

/// Marks an empty slot or an unassigned class.
const NONE: u32 = u32::MAX;

/// Dense numbering of a netlist's faults: gate `g`'s sites are numbered
/// from `first[g]` (its output, then each input pin), and each site holds
/// one slot per [`FaultKind`], so `(gate, pin, kind)` maps to a slot by
/// arithmetic.
#[derive(Debug, Clone)]
struct Slots {
    /// First site of each gate, plus one entry past the last gate.
    first: Vec<u32>,
}

impl Slots {
    const KINDS: usize = 4;

    fn new(nl: &Netlist) -> Slots {
        let mut first = Vec::with_capacity(nl.num_gates() + 1);
        let mut next = 0u32;
        for (_, g) in nl.iter() {
            first.push(next);
            next += 1 + g.fanins.len() as u32;
        }
        first.push(next);
        Slots { first }
    }

    fn len(&self) -> usize {
        *self.first.last().expect("one entry past the last gate") as usize * Slots::KINDS
    }

    /// The slot of `f`, or `None` when the netlist has no such gate or
    /// pin.
    fn of(&self, f: Fault) -> Option<usize> {
        let g = f.site.gate.index();
        let (&start, &end) = (self.first.get(g)?, self.first.get(g + 1)?);
        let site = start + f.site.pin.map_or(0, |p| 1 + u32::from(p));
        (site < end).then(|| site as usize * Slots::KINDS + f.kind as usize)
    }
}

/// Result of fault collapsing: representative faults plus the class of
/// every fault of the collapsed slice.
#[derive(Debug, Clone)]
pub struct CollapsedFaults {
    reps: Vec<Fault>,
    /// Class (index into `reps`) of the fault at each slice position.
    class: Vec<u32>,
    slots: Slots,
    /// Slice position of the first fault in each slot, or `NONE`.
    pos: Vec<u32>,
}

impl CollapsedFaults {
    /// The collapsed fault list (one representative per equivalence class).
    pub fn representatives(&self) -> &[Fault] {
        &self.reps
    }

    /// The class of the fault at position `i` of the collapsed slice: an
    /// index into [`CollapsedFaults::representatives`].
    pub fn class_of(&self, i: usize) -> usize {
        self.class[i] as usize
    }

    /// Maps a fault from the original universe to its representative.
    /// Returns the fault itself if it was not part of the collapsed
    /// universe.
    pub fn representative(&self, f: Fault) -> Fault {
        self.class_of_fault(f).map_or(f, |c| self.reps[c])
    }

    /// The class of `f`, or `None` if no fault of the slice sits in its
    /// slot.
    fn class_of_fault(&self, f: Fault) -> Option<usize> {
        let p = self.pos[self.slots.of(f)?];
        (p != NONE).then(|| self.class_of(p as usize))
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

/// Union-find over slice positions.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let up = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = up;
            x = up;
        }
        x
    }

    /// Merges the classes of positions `a` and `b`. The root is the
    /// member whose site sorts last by `(pin.is_none(), site)`: an output
    /// site over a pin, then the higher gate id.
    fn union(&mut self, a: u32, b: u32, faults: &[Fault]) {
        let (ra, rb) = (self.find(a), self.find(b));
        let key = |r: u32| {
            let site = faults[r as usize].site;
            (site.pin.is_none(), site)
        };
        if ra != rb {
            let (keep, drop) = if key(ra) <= key(rb) {
                (rb, ra)
            } else {
                (ra, rb)
            };
            self.parent[drop as usize] = keep;
        }
    }
}

/// Equivalence-collapses a stuck-at fault universe.
///
/// Only stuck-at faults participate; transition faults are returned
/// unchanged (their standard universe is already stem-only). A fault
/// listed twice is one fault, and a fault on a gate or pin `nl` lacks is
/// its own class.
///
/// # Panics
///
/// Panics if `faults` holds `u32::MAX` faults or more.
pub fn collapse_equivalent(nl: &Netlist, faults: &[Fault]) -> CollapsedFaults {
    assert!(
        faults.len() < NONE as usize,
        "{} faults overflow the u32 positions",
        faults.len()
    );
    let slots = Slots::new(nl);
    let mut pos = vec![NONE; slots.len()];
    // Each position starts as the position of its fault's first
    // occurrence: the one union-find node of that fault.
    let mut foreign = Vec::new();
    let mut class: Vec<u32> = (0u32..)
        .zip(faults)
        .map(|(i, &f)| match slots.of(f) {
            Some(s) => {
                if pos[s] == NONE {
                    pos[s] = i;
                }
                pos[s]
            }
            None => match foreign.iter().find(|&&j| faults[j as usize] == f) {
                Some(&j) => j,
                None => {
                    foreign.push(i);
                    i
                }
            },
        })
        .collect();
    let mut dsu = Dsu {
        parent: (0..faults.len() as u32).collect(),
    };
    let mut unite = |a: Fault, b: Fault| {
        let at = |f: Fault| slots.of(f).map(|s| pos[s]).filter(|&p| p != NONE);
        // Only collapse faults present in the slice.
        if let (Some(a), Some(b)) = (at(a), at(b)) {
            dsu.union(a, b, faults);
        }
    };
    for (id, g) in nl.iter() {
        // Rule 1: single-fanout branch ≡ stem.
        for (pin, &drv) in g.fanins.iter().enumerate() {
            if nl.gate(drv).num_fanouts() == 1 {
                for value in [false, true] {
                    unite(
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
                    unite(
                        Fault::stuck_at_input(id, 0, v),
                        Fault::stuck_at_output(id, v),
                    );
                }
                continue;
            }
            GateKind::Not => {
                for v in [false, true] {
                    unite(
                        Fault::stuck_at_input(id, 0, v),
                        Fault::stuck_at_output(id, !v),
                    );
                }
                continue;
            }
            _ => continue,
        };
        for pin in 0..g.fanins.len() {
            unite(
                Fault::stuck_at_input(id, pin as u8, in_val),
                Fault::stuck_at_output(id, out_val),
            );
        }
    }

    // Number the classes in the order their first member appears.
    let mut class_at_root = vec![NONE; faults.len()];
    let mut reps = Vec::new();
    for c in &mut class {
        let root = dsu.find(*c) as usize;
        if class_at_root[root] == NONE {
            class_at_root[root] = reps.len() as u32;
            reps.push(faults[root]);
        }
        *c = class_at_root[root];
    }
    CollapsedFaults {
        reps,
        class,
        slots,
        pos,
    }
}

/// Applies dominance collapsing on top of an equivalence-collapsed list:
/// removes output faults dominated by (i.e. detected by every test of) an
/// input fault of the same gate, per the rules in the module docs.
///
/// The returned list is suitable for test generation (a test set detecting
/// it detects the full universe) but **not** for coverage reporting —
/// report coverage on the equivalence classes instead.
pub fn collapse_dominance(nl: &Netlist, collapsed: &CollapsedFaults) -> Vec<Fault> {
    let mut drop = vec![false; collapsed.reps.len()];
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
        // dominated input fault remains in the collapsed list. An input
        // fault outside the slice counts as kept.
        let out_class = collapsed.class_of_fault(Fault {
            site: FaultSite::output(id),
            kind: out_kind,
        });
        let in_val = !g.kind.controlling_value().expect("gate has cv");
        let any_input_kept = (0..g.fanins.len()).any(|pin| {
            match collapsed.class_of_fault(Fault::stuck_at_input(id, pin as u8, in_val)) {
                Some(c) => Some(c) != out_class && !drop[c],
                None => true,
            }
        });
        if let (true, Some(c)) = (any_input_kept, out_class) {
            drop[c] = true;
        }
    }
    collapsed
        .representatives()
        .iter()
        .zip(&drop)
        .filter(|(_, &dropped)| !dropped)
        .map(|(&f, _)| f)
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
