//! The flat gate-level [`Netlist`] container.

use std::collections::HashMap;

use crate::{Gate, GateId, GateKind, NetlistError};

/// A flat gate-level netlist.
///
/// Gates are stored in a dense table indexed by [`GateId`]; each gate drives
/// exactly one net, so the gate id doubles as the net id. Primary inputs,
/// primary outputs and flip-flops are tracked in dedicated index lists.
///
/// The structure is append-only: gates are never deleted, which keeps every
/// `GateId` (and every fault site derived from one) stable across transforms
/// such as scan insertion or test-point insertion.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    pis: Vec<GateId>,
    pos: Vec<GateId>,
    dffs: Vec<GateId>,
    by_name: HashMap<String, GateId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of gates (including inputs, output markers and DFFs).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.pis.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.pos.len()
    }

    /// Number of D flip-flops.
    #[inline]
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Primary input gate ids, in creation order.
    #[inline]
    pub fn inputs(&self) -> &[GateId] {
        &self.pis
    }

    /// Primary output marker gate ids, in creation order.
    #[inline]
    pub fn outputs(&self) -> &[GateId] {
        &self.pos
    }

    /// Flip-flop gate ids, in creation order. The scan-chain order used by
    /// the `dft-scan` crate is defined over this list.
    #[inline]
    pub fn dffs(&self) -> &[GateId] {
        &self.dffs
    }

    /// Borrows a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Looks up a gate id by net name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Iterates over `(GateId, &Gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    fn intern_name(&mut self, requested: &str, id: GateId) -> String {
        let name = if requested.is_empty() || self.by_name.contains_key(requested) {
            // Deduplicate silently: transforms frequently clone cell names.
            let mut n = 0usize;
            loop {
                let candidate = if requested.is_empty() {
                    format!("n{}", id.0)
                } else {
                    format!("{requested}_{n}")
                };
                if !self.by_name.contains_key(&candidate) {
                    break candidate;
                }
                n += 1;
            }
        } else {
            requested.to_owned()
        };
        self.by_name.insert(name.clone(), id);
        name
    }

    fn push_gate(&mut self, kind: GateKind, fanins: Vec<GateId>, name: &str) -> GateId {
        let id = GateId(self.gates.len() as u32);
        let name = self.intern_name(name, id);
        for &f in &fanins {
            self.gates[f.index()].fanouts.push(id);
        }
        self.gates.push(Gate {
            kind,
            fanins,
            fanouts: Vec::new(),
            name,
        });
        id
    }

    /// Adds a primary input and returns its id.
    pub fn add_input(&mut self, name: &str) -> GateId {
        let id = self.push_gate(GateKind::Input, Vec::new(), name);
        self.pis.push(id);
        id
    }

    /// Adds a primary output marker reading `src` and returns its id.
    pub fn add_output(&mut self, src: GateId, name: &str) -> GateId {
        let id = self.push_gate(GateKind::Output, vec![src], name);
        self.pos.push(id);
        id
    }

    /// Adds a D flip-flop whose D pin reads `d` and returns its id (the Q
    /// net).
    pub fn add_dff(&mut self, d: GateId, name: &str) -> GateId {
        let id = self.push_gate(GateKind::Dff, vec![d], name);
        self.dffs.push(id);
        id
    }

    /// Adds a D flip-flop whose D pin reads its own Q net, for a caller
    /// that wires D with [`Netlist::rewire_fanin`] once its source exists.
    pub(crate) fn add_dff_unwired(&mut self, name: &str) -> GateId {
        let id = self.push_gate(GateKind::Dff, Vec::new(), name);
        let gate = &mut self.gates[id.index()];
        gate.fanins.push(id);
        gate.fanouts.push(id);
        self.dffs.push(id);
        id
    }

    /// Adds a combinational gate and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the fanin count violates the kind's arity (use
    /// [`Netlist::try_add_gate`] for a fallible version), or if `kind` is
    /// `Input`/`Output`/`Dff` (use the dedicated methods).
    pub fn add_gate(&mut self, kind: GateKind, fanins: Vec<GateId>, name: &str) -> GateId {
        self.try_add_gate(kind, fanins, name)
            .expect("invalid gate construction")
    }

    /// Fallible variant of [`Netlist::add_gate`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the fanin count does not match
    /// the kind's arity, or if a variadic gate has no fanins.
    pub fn try_add_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<GateId>,
        name: &str,
    ) -> Result<GateId, NetlistError> {
        assert!(
            !matches!(kind, GateKind::Input | GateKind::Output | GateKind::Dff),
            "use add_input/add_output/add_dff for {kind}"
        );
        match kind.arity() {
            Some(n) if fanins.len() != n => {
                return Err(NetlistError::BadArity {
                    kind: kind.bench_name(),
                    expected: n,
                    got: fanins.len(),
                })
            }
            None if fanins.is_empty() => {
                return Err(NetlistError::BadArity {
                    kind: kind.bench_name(),
                    expected: 1,
                    got: 0,
                })
            }
            _ => {}
        }
        for &f in &fanins {
            assert!(f.index() < self.gates.len(), "fanin {f} out of range");
        }
        Ok(self.push_gate(kind, fanins, name))
    }

    /// Replaces pin `pin` of gate `gate` so it reads `new_src` instead,
    /// updating fanout lists on both the old and new drivers.
    ///
    /// This is the primitive used by scan insertion and test-point insertion.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the gate.
    pub fn rewire_fanin(&mut self, gate: GateId, pin: usize, new_src: GateId) {
        let old_src = self.gates[gate.index()].fanins[pin];
        if old_src == new_src {
            return;
        }
        // Remove ONE occurrence of `gate` from the old driver's fanout list.
        let fanouts = &mut self.gates[old_src.index()].fanouts;
        if let Some(pos) = fanouts.iter().position(|&g| g == gate) {
            fanouts.swap_remove(pos);
        }
        self.gates[gate.index()].fanins[pin] = new_src;
        self.gates[new_src.index()].fanouts.push(gate);
    }

    /// The sources of the combinational view: primary inputs plus flip-flop
    /// Q nets (pseudo primary inputs), in that order.
    ///
    /// This ordering defines the meaning of a *test pattern slot*: pattern
    /// bit `i` drives `combinational_sources()[i]`.
    pub fn combinational_sources(&self) -> Vec<GateId> {
        let mut v = Vec::with_capacity(self.pis.len() + self.dffs.len());
        v.extend_from_slice(&self.pis);
        v.extend_from_slice(&self.dffs);
        v
    }

    /// The sinks of the combinational view: primary output markers plus
    /// flip-flop gate ids (whose D-pin values are the pseudo primary
    /// outputs), in that order.
    ///
    /// Response bit `i` of a test pattern is observed at
    /// `combinational_sinks()[i]`.
    pub fn combinational_sinks(&self) -> Vec<GateId> {
        let mut v = Vec::with_capacity(self.pos.len() + self.dffs.len());
        v.extend_from_slice(&self.pos);
        v.extend_from_slice(&self.dffs);
        v
    }

    /// Validates structural invariants (fanin/fanout symmetry, name table
    /// consistency). Intended for tests and after hand-built construction.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, g) in self.iter() {
            for &f in &g.fanins {
                if !self.gates[f.index()].fanouts.contains(&id) {
                    return Err(NetlistError::UndefinedNet(format!(
                        "{} missing fanout link to {}",
                        self.gates[f.index()].name,
                        g.name
                    )));
                }
            }
            match self.by_name.get(&g.name) {
                Some(&found) if found == id => {}
                _ => return Err(NetlistError::DuplicateName(g.name.clone())),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("ha");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_gate(GateKind::Xor, vec![a, b], "s");
        let c = nl.add_gate(GateKind::And, vec![a, b], "c");
        nl.add_output(s, "s_po");
        nl.add_output(c, "c_po");
        nl
    }

    #[test]
    fn construction_and_counts() {
        let nl = half_adder();
        assert_eq!(nl.num_gates(), 6);
        assert_eq!(nl.num_inputs(), 2);
        assert_eq!(nl.num_outputs(), 2);
        assert_eq!(nl.num_dffs(), 0);
        nl.validate().unwrap();
    }

    #[test]
    fn fanout_lists_are_maintained() {
        let nl = half_adder();
        let a = nl.find("a").unwrap();
        // `a` feeds both the XOR and the AND.
        assert_eq!(nl.gate(a).num_fanouts(), 2);
        assert!(nl.gate(a).is_stem());
    }

    #[test]
    fn name_lookup_and_dedup() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("x");
        let b = nl.add_input("x"); // duplicate request gets a fresh name
        assert_ne!(nl.gate(a).name, nl.gate(b).name);
        assert_eq!(nl.find("x"), Some(a));
        nl.validate().unwrap();
    }

    #[test]
    fn rewire_updates_both_sides() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        nl.rewire_fanin(inv, 0, b);
        assert_eq!(nl.gate(inv).fanins, vec![b]);
        assert!(nl.gate(a).fanouts.is_empty());
        assert_eq!(nl.gate(b).fanouts, vec![inv]);
        nl.validate().unwrap();
    }

    #[test]
    fn rewire_same_source_is_noop() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        nl.rewire_fanin(inv, 0, a);
        assert_eq!(nl.gate(a).fanouts, vec![inv]);
    }

    #[test]
    fn bad_arity_is_reported() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let err = nl
            .try_add_gate(GateKind::Not, vec![a, a], "bad")
            .unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 2, .. }));
        let err = nl.try_add_gate(GateKind::And, vec![], "bad2").unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 0, .. }));
    }

    #[test]
    fn combinational_view_ordering() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff(a, "q");
        let x = nl.add_gate(GateKind::Xor, vec![a, q], "x");
        nl.add_output(x, "po");
        let sources = nl.combinational_sources();
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[0], a);
        assert_eq!(sources[1], q);
        let sinks = nl.combinational_sinks();
        assert_eq!(sinks.len(), 2);
        assert_eq!(sinks[1], q);
    }
}
