//! Event-driven five-valued implication on the gate tape (PODEM's engine).
//!
//! [`Implication`] holds the value of every tape position in Roth's
//! five-valued D-calculus for one partial source assignment with one
//! stuck-at fault injected. A search starts with one full levelized pass
//! ([`Implication::start`]). After that, each source change
//! ([`Implication::assign`]) schedules only that source's readers, and
//! [`Implication::imply`] re-evaluates the scheduled positions in
//! increasing position order through a bitset frontier, as the tape's
//! fault propagation does: fanouts point strictly forward, so every gate
//! is evaluated once, after all of its changed fanins are final, and the
//! values equal a full pass over the new assignment.
//!
//! Every write since the start goes on an undo trail, so a backtracking
//! search returns to the state before a decision
//! ([`Implication::undo_to`] a [`Implication::mark`]) by restoring the
//! values that decision changed, without evaluating any gate.
//!
//! Gates fold their fanins pairwise, left to right, through 5×5 tables
//! built from [`Logic::and`], [`Logic::or`] and [`Logic::xor`], which is
//! exactly [`Logic::eval_gate`]. The pairwise fold is not the
//! componentwise (dual-rail) result: AND(D, X, D̄) folds to X, where
//! evaluating the good and faulty machines separately gives 0. PODEM's
//! decisions depend on that difference, so the engine keeps the fold.
//!
//! Alongside the values the engine keeps what PODEM reads every step:
//! the positions holding D/D̄ (the D-frontier is their X-valued readers)
//! and how many of them are observable, so "is the fault observed" is a
//! counter test instead of a sink scan.

use dft_fault::Fault;
use dft_netlist::{GateId, GateKind, Logic, Netlist};

use crate::tape::{GateTape, OP_AND, OP_OR, OP_OTHER, OP_XOR};

const NONE: usize = usize::MAX;

/// Five-valued implication state over a compiled [`GateTape`]; see the
/// module docs.
#[derive(Debug)]
pub struct Implication {
    tape: GateTape,
    /// Value per tape position.
    vals: Vec<Logic>,
    /// Current source assignment (before fault injection), source order.
    assignment: Vec<Logic>,
    fault: Injection,
    /// `fold[op][acc][input]` for the tape's `OP_AND`/`OP_OR`/`OP_XOR`.
    fold: [[[Logic; 5]; 5]; 3],
    /// Positions holding D or D̄, unordered.
    effects: Vec<u32>,
    /// Index of a position in `effects` while it holds D or D̄.
    effect_slot: Vec<u32>,
    /// How many observable positions hold D or D̄.
    observed: u32,
    /// Position-indexed frontier bitset; all zero after `imply`.
    sched: Vec<u64>,
    /// Scheduled positions not yet evaluated.
    pending: u32,
    /// Lowest bitset word that can hold a scheduled position.
    low_word: usize,
    /// Fanin gather buffer for the fault-site gate.
    ins: Vec<Logic>,
    /// X-path search buffers: visit stamps, their epoch, the DFS stack.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    /// Undo trail: `(position, previous value)` of every value written
    /// since the start; source assignments are tagged with `ASSIGNED`.
    trail: Vec<(u32, Logic)>,
    /// Gate evaluations since the start, the start pass included.
    evals: u64,
}

/// Trail tag for an assignment entry (its index is a source index).
const ASSIGNED: u32 = 1 << 31;

/// The injected fault, resolved to tape positions.
#[derive(Debug, Clone, Copy)]
struct Injection {
    stuck: bool,
    /// Position of the faulted gate; `NONE` when fault-free.
    site: usize,
    /// The faulted input pin; `None` for a stem fault.
    pin: Option<usize>,
    /// For a stuck flop D pin, the position driving it: that fault
    /// changes only the flop's capture, never a net value.
    capture: usize,
}

impl Injection {
    const FREE: Injection = Injection {
        stuck: false,
        site: NONE,
        pin: None,
        capture: NONE,
    };
}

/// Injects a stuck-at value into a fault-free value: `D` where the good
/// machine drives 1 over a stuck-0, `D̄` for 0 over a stuck-1, the value
/// itself where it equals the stuck value, and `X` stays `X`.
#[inline]
fn inject(v: Logic, stuck: bool) -> Logic {
    match v.good() {
        Some(true) if !stuck => Logic::D,
        Some(false) if stuck => Logic::Dbar,
        Some(g) => Logic::from_bool(g),
        None => Logic::X,
    }
}

impl Implication {
    /// Compiles `nl` and builds a fault-free, all-X state.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn new(nl: &Netlist) -> Implication {
        let tape = GateTape::compile(nl);
        let n = tape.num_positions();
        let mut fold = [[[Logic::X; 5]; 5]; 3];
        for (op, f) in [
            (OP_AND, Logic::and as fn(Logic, Logic) -> Logic),
            (OP_OR, Logic::or),
            (OP_XOR, Logic::xor),
        ] {
            for a in Logic::ALL {
                for b in Logic::ALL {
                    fold[op as usize][a as usize][b as usize] = f(a, b);
                }
            }
        }
        Implication {
            vals: vec![Logic::X; n],
            assignment: vec![Logic::X; tape.sources.len()],
            fault: Injection::FREE,
            fold,
            effects: Vec::new(),
            effect_slot: vec![0; n],
            observed: 0,
            sched: vec![0; n.div_ceil(64)],
            pending: 0,
            low_word: NONE,
            ins: Vec::with_capacity(8),
            seen: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            trail: Vec::new(),
            evals: 0,
            tape,
        }
    }

    /// The current source assignment (before fault injection), in
    /// [`Netlist::combinational_sources`] order.
    pub fn assignment(&self) -> &[Logic] {
        &self.assignment
    }

    /// The implied value of gate `id`.
    #[inline]
    pub fn value(&self, id: GateId) -> Logic {
        self.vals[self.tape.pos_of[id.index()] as usize]
    }

    /// Starts a search: injects `fault` and evaluates `assignment` (one
    /// value per source, `X` = unassigned) with one full levelized pass.
    /// Pending assignments and the undo trail are dropped.
    pub fn start(&mut self, assignment: &[Logic], fault: Fault) {
        assert_eq!(assignment.len(), self.assignment.len(), "assignment width");
        let site = self.tape.position(fault.site.gate);
        let pin = fault.site.pin.map(|p| p as usize);
        self.fault = Injection {
            stuck: fault.kind.stuck_value(),
            site,
            pin,
            capture: match pin {
                Some(_) if self.tape.kinds[site] == GateKind::Dff => {
                    self.tape.site_position(fault.site)
                }
                _ => NONE,
            },
        };
        if self.pending > 0 {
            self.sched.fill(0);
            self.pending = 0;
        }
        self.low_word = NONE;
        self.trail.clear();
        self.assignment.copy_from_slice(assignment);
        for s in 0..self.assignment.len() {
            let p = self.tape.sources[s] as usize;
            let v = self.source_value(s);
            self.write(p, v);
        }
        for k in 0..self.tape.eval_list.len() {
            let p = self.tape.eval_list[k] as usize;
            let v = self.eval_at(p);
            self.write(p, v);
        }
        self.evals = self.tape.eval_list.len() as u64;
    }

    /// Gate evaluations since the last [`Implication::start`]: its full
    /// pass plus every position [`Implication::imply`] re-evaluated. A
    /// deterministic measure of implication work, independent of the
    /// clock.
    pub fn gate_evals(&self) -> u64 {
        self.evals
    }

    /// The current point of the undo trail, to return to with
    /// [`Implication::undo_to`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores the values and the assignment to what they were at
    /// `mark`, newest write first.
    ///
    /// # Panics
    ///
    /// Panics if an assignment has not been implied yet.
    pub fn undo_to(&mut self, mark: usize) {
        assert_eq!(self.pending, 0, "undo with assignments not implied");
        while self.trail.len() > mark {
            let (p, old) = self.trail.pop().expect("trail is longer than mark");
            if p & ASSIGNED != 0 {
                self.assignment[(p & !ASSIGNED) as usize] = old;
            } else {
                self.write(p as usize, old);
            }
        }
    }

    /// Assigns `value` to source `source` (an index into
    /// [`Implication::assignment`]). Its readers are re-evaluated by the
    /// next [`Implication::imply`].
    pub fn assign(&mut self, source: usize, value: Logic) {
        let old = std::mem::replace(&mut self.assignment[source], value);
        self.trail.push((source as u32 | ASSIGNED, old));
        let p = self.tape.sources[source] as usize;
        let v = self.source_value(source);
        if v != self.vals[p] {
            self.set(p, v);
            self.low_word = self.low_word.min(p >> 6);
            self.schedule_fanouts(p);
        }
    }

    /// Re-evaluates every gate whose inputs changed since the last call,
    /// in position order, until the events die out.
    pub fn imply(&mut self) {
        let mut w = self.low_word;
        while self.pending > 0 {
            // Re-read the word every iteration: an evaluated gate may
            // schedule readers into its own word, always above it.
            let bits = self.sched[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.sched[w] = bits & (bits - 1);
            self.pending -= 1;
            self.evals += 1;
            let p = (w << 6) | bits.trailing_zeros() as usize;
            let v = self.eval_at(p);
            if v != self.vals[p] {
                self.set(p, v);
                self.schedule_fanouts(p);
            }
        }
        self.low_word = NONE;
    }

    /// `true` if the fault effect reaches an observation point: a PO
    /// marker or a flop D pin carries D or D̄.
    pub fn fault_observed(&self) -> bool {
        self.observed > 0
            || (self.fault.capture != NONE
                && inject(self.vals[self.fault.capture], self.fault.stuck).is_fault_effect())
    }

    /// The D-frontier gate with an X-path to an observation point that has
    /// the lowest `cost` (indexed by [`GateId`]), ties going to the lowest
    /// id.
    ///
    /// The D-frontier is every X-valued logic gate with D or D̄ on an
    /// input: a reader of a position holding an effect, or the site gate
    /// of an input-pin fault whose driver carries the excitation value.
    /// The X-path check (a path of X-valued gates to a PO marker or a flop
    /// D pin) runs only for candidates that would beat the current best.
    pub fn pick_d_frontier(&mut self, cost: &[u32]) -> Option<GateId> {
        let mut best = None;
        for i in 0..self.effects.len() {
            let e = self.effects[i] as usize;
            let (lo, hi) = (
                self.tape.nodes[e].fanout_start,
                self.tape.nodes[e + 1].fanout_start,
            );
            for k in lo as usize..hi as usize {
                let fo = self.tape.fanouts[k] as usize;
                self.consider(fo, cost, &mut best);
            }
        }
        let f = self.fault;
        if let Some(pin) = f.pin {
            if self.tape.kinds[f.site].is_logic() {
                let driver = self.tape.fanin_range(f.site)[pin] as usize;
                if self.vals[driver].good() == Some(!f.stuck) {
                    self.consider(f.site, cost, &mut best);
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Makes position `p` the best D-frontier gate if it is one, beats
    /// `best` on `(cost, id)` and has an X-path.
    fn consider(&mut self, p: usize, cost: &[u32], best: &mut Option<(u32, GateId)>) {
        if self.vals[p] != Logic::X || !self.tape.kinds[p].is_logic() {
            return;
        }
        let id = self.tape.gate_at(p);
        let key = (cost[id.index()], id);
        if best.is_none_or(|b| key < b) && self.x_path_to_sink(p) {
            *best = Some(key);
        }
    }

    /// `true` if a path of X-valued gates leads from position `from` to a
    /// PO marker or a flop D pin.
    fn x_path_to_sink(&mut self, from: usize) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.stack.push(from as u32);
        self.seen[from] = self.epoch;
        while let Some(p) = self.stack.pop() {
            let p = p as usize;
            // A pushed gate is never a PO marker, so observable means it
            // feeds a flop D pin.
            if self.tape.observable[p] {
                return true;
            }
            for &fo in self.tape.fanout_range(p) {
                let fo = fo as usize;
                if self.tape.kinds[fo] == GateKind::Output {
                    return true;
                }
                if self.seen[fo] != self.epoch {
                    self.seen[fo] = self.epoch;
                    if self.vals[fo] == Logic::X {
                        self.stack.push(fo as u32);
                    }
                }
            }
        }
        false
    }

    /// Source `s`'s value with a stem fault on it injected.
    #[inline]
    fn source_value(&self, s: usize) -> Logic {
        let v = self.assignment[s];
        if self.tape.sources[s] as usize == self.fault.site && self.fault.pin.is_none() {
            inject(v, self.fault.stuck)
        } else {
            v
        }
    }

    /// Evaluates the gate at position `p` from the current values.
    #[inline]
    fn eval_at(&mut self, p: usize) -> Logic {
        if p == self.fault.site {
            return self.eval_site(p);
        }
        let nd = self.tape.nodes[p];
        let fr =
            &self.tape.fanins[nd.fanin_start as usize..self.tape.nodes[p + 1].fanin_start as usize];
        let vals = &self.vals;
        if nd.op != OP_OTHER {
            let t = &self.fold[nd.op as usize];
            let mut acc = vals[fr[0] as usize];
            for &f in &fr[1..] {
                acc = t[acc as usize][vals[f as usize] as usize];
            }
            if nd.inv != 0 {
                !acc
            } else {
                acc
            }
        } else {
            match nd.kind {
                GateKind::Mux2 => {
                    let (and, or) = (&self.fold[OP_AND as usize], &self.fold[OP_OR as usize]);
                    let (s, a, b) = (
                        vals[fr[0] as usize],
                        vals[fr[1] as usize],
                        vals[fr[2] as usize],
                    );
                    or[and[(!s) as usize][a as usize] as usize]
                        [and[s as usize][b as usize] as usize]
                }
                GateKind::Const0 => Logic::Zero,
                GateKind::Const1 => Logic::One,
                _ => unreachable!("sources are never evaluated"),
            }
        }
    }

    /// Evaluates the faulted gate: the stuck pin's value injected before
    /// the gate function, a stuck output after it.
    fn eval_site(&mut self, p: usize) -> Logic {
        let f = self.fault;
        self.ins.clear();
        for &fi in self.tape.fanin_range(p) {
            self.ins.push(self.vals[fi as usize]);
        }
        if let Some(pin) = f.pin {
            self.ins[pin] = inject(self.ins[pin], f.stuck);
        }
        let v = Logic::eval_gate(self.tape.kinds[p], &self.ins);
        match f.pin {
            None => inject(v, f.stuck),
            Some(_) => v,
        }
    }

    /// Writes `v` at `p` and records the old value on the undo trail.
    #[inline]
    fn set(&mut self, p: usize, v: Logic) {
        self.trail.push((p as u32, self.vals[p]));
        self.write(p, v);
    }

    /// Writes `v` at `p`, keeping the effect set and observed count.
    #[inline]
    fn write(&mut self, p: usize, v: Logic) {
        let old = std::mem::replace(&mut self.vals[p], v);
        match (old.is_fault_effect(), v.is_fault_effect()) {
            (false, true) => {
                self.effect_slot[p] = self.effects.len() as u32;
                self.effects.push(p as u32);
                self.observed += self.tape.observable[p] as u32;
            }
            (true, false) => {
                let i = self.effect_slot[p] as usize;
                let last = self.effects.pop().expect("effect set holds p");
                if last as usize != p {
                    self.effects[i] = last;
                    self.effect_slot[last as usize] = i as u32;
                }
                self.observed -= self.tape.observable[p] as u32;
            }
            _ => {}
        }
    }

    #[inline]
    fn schedule_fanouts(&mut self, p: usize) {
        let (a, b) = (
            self.tape.nodes[p].fanout_start,
            self.tape.nodes[p + 1].fanout_start,
        );
        for &fo in &self.tape.fanouts[a as usize..b as usize] {
            let wi = (fo >> 6) as usize;
            let m = 1u64 << (fo & 63);
            self.pending += (self.sched[wi] & m == 0) as u32;
            self.sched[wi] |= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FiveSim;

    #[test]
    fn gate_evals_count_the_start_pass_and_each_re_evaluation() {
        // a -> n1 -> n2 -> po, and b -> n3 -> po2: four logic positions
        // plus two PO markers.
        let mut nl = Netlist::new("evals");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_gate(GateKind::Not, vec![a], "n1");
        let n2 = nl.add_gate(GateKind::Not, vec![n1], "n2");
        let n3 = nl.add_gate(GateKind::Buf, vec![b], "n3");
        nl.add_output(n2, "po");
        nl.add_output(n3, "po2");
        let mut engine = Implication::new(&nl);
        engine.start(&[Logic::X, Logic::X], Fault::stuck_at_output(n3, false));
        let full = engine.gate_evals();
        assert_eq!(full, 5, "one evaluation per non-source position");
        // Assigning `a` re-evaluates its cone only: n1, n2 and po.
        engine.assign(0, Logic::One);
        engine.imply();
        assert_eq!(engine.gate_evals(), full + 3);
        // An undo evaluates nothing; a new start resets the count.
        engine.undo_to(0);
        assert_eq!(engine.gate_evals(), full + 3);
        engine.start(&[Logic::Zero, Logic::X], Fault::stuck_at_output(n3, false));
        assert_eq!(engine.gate_evals(), full);
    }

    #[test]
    fn and_folds_pairwise_not_dual_rail() {
        // a stuck-at-0 with a = 1 puts D on `a` and D̄ on `na`; `x` stays X.
        // AND(D, X, D̄) folds to X (D·X = X, X·D̄ = X); evaluating the good
        // and faulty machines separately would give 0 (1·X·0, 0·X·1).
        let mut nl = Netlist::new("fold");
        let a = nl.add_input("a");
        let x = nl.add_input("x");
        let na = nl.add_gate(GateKind::Not, vec![a], "na");
        let g = nl.add_gate(GateKind::And, vec![a, x, na], "g");
        nl.add_output(g, "po");
        let fault = Fault::stuck_at_output(a, false);
        let assignment = [Logic::One, Logic::X];
        let mut engine = Implication::new(&nl);
        engine.start(&assignment, fault);
        assert_eq!(engine.value(a), Logic::D);
        assert_eq!(engine.value(na), Logic::Dbar);
        assert_eq!(engine.value(g), Logic::X);
        assert_eq!(
            FiveSim::new(&nl).simulate(&assignment, Some(fault))[g.index()],
            Logic::X
        );
    }
}
