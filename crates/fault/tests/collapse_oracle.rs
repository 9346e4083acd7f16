//! The dense equivalence collapse against a reference: the union-find
//! over faults in a `HashMap` that `collapse_equivalent` used to run,
//! kept here as the oracle. Both must give the same representatives in
//! the same order and the same representative for every fault, and
//! `class_of(i)` must point at that representative.

use std::collections::{HashMap, HashSet};

use dft_fault::{collapse_equivalent, universe_stuck_at, universe_transition, Fault};
use dft_netlist::generators::{benchmark_suite, random_logic};
use dft_netlist::{GateId, GateKind, Netlist};

/// Union-find over faults.
struct Dsu {
    parent: HashMap<Fault, Fault>,
}

impl Dsu {
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

/// The representatives of `faults` in order of first appearance, and the
/// representative of each fault of the slice.
fn oracle(nl: &Netlist, faults: &[Fault]) -> (Vec<Fault>, HashMap<Fault, Fault>) {
    let mut dsu = Dsu {
        parent: faults.iter().map(|&f| (f, f)).collect(),
    };
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
    let mut rep_of = HashMap::with_capacity(faults.len());
    let mut reps = Vec::new();
    let mut seen = HashSet::new();
    for &f in faults {
        let r = dsu.find(f);
        rep_of.insert(f, r);
        if seen.insert(r) {
            reps.push(r);
        }
    }
    (reps, rep_of)
}

/// The dense collapse of `faults` agrees with [`oracle`], and every fault
/// of `outside` (none of which is in the slice) is its own
/// representative.
fn assert_matches_oracle(nl: &Netlist, faults: &[Fault], outside: &[Fault], what: &str) {
    let col = collapse_equivalent(nl, faults);
    let (reps, rep_of) = oracle(nl, faults);
    assert_eq!(col.representatives(), &reps[..], "{what}: representatives");
    for (i, &f) in faults.iter().enumerate() {
        assert_eq!(col.representative(f), rep_of[&f], "{what}: {f}");
        assert_eq!(
            col.representatives()[col.class_of(i)],
            rep_of[&f],
            "{what}: class of position {i}"
        );
    }
    for &f in outside {
        assert!(!rep_of.contains_key(&f), "{what}: {f} is in the slice");
        assert_eq!(col.representative(f), f, "{what}: {f} outside the slice");
    }
}

#[test]
fn dense_collapse_matches_the_hashmap_oracle() {
    let mut designs: Vec<(String, Netlist)> = benchmark_suite()
        .into_iter()
        .map(|c| (c.name.to_owned(), c.netlist))
        .collect();
    for seed in [1, 2, 3] {
        designs.push((format!("rand500_s{seed}"), random_logic(32, 500, seed)));
    }
    for (name, nl) in &designs {
        let stuck = universe_stuck_at(nl);
        let transition = universe_transition(nl);
        assert_matches_oracle(nl, &stuck, &transition, &format!("{name} stuck-at"));
        assert_matches_oracle(nl, &transition, &stuck, &format!("{name} transition"));
        // Every third stuck-at fault, back to front and each listed
        // twice, mixed with transition faults and with faults on a gate
        // and on a pin `nl` lacks, some of those twice too.
        let beyond = GateId(nl.num_gates() as u32 + 3);
        let mut slice = Vec::new();
        for (k, &f) in stuck.iter().rev().step_by(3).enumerate() {
            slice.push(f);
            if k % 5 == 0 {
                slice.push(transition[k % transition.len()]);
                slice.push(Fault::stuck_at_output(beyond, k % 2 == 0));
                slice.push(Fault::stuck_at_input(GateId(k as u32), 200, true));
            }
            slice.push(f);
        }
        let outside: Vec<Fault> = stuck
            .iter()
            .copied()
            .filter(|f| !slice.contains(f))
            .take(50)
            .chain([Fault::stuck_at_input(beyond, 1, false)])
            .collect();
        assert_matches_oracle(nl, &slice, &outside, &format!("{name} mixed slice"));
    }
}
