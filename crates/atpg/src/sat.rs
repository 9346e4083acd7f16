//! A small CDCL SAT solver (Eén & Sörensson, "An extensible SAT-solver",
//! SAT 2003) for the per-fault miters of [`crate::miter`].
//!
//! Two watched literals with blocking literals, first-UIP learning with
//! local minimisation, VSIDS decisions, Luby restarts and phase saving.
//! Learned clauses are never deleted: a solver answers one query at a
//! time, and its conflict budget bounds how many it learns. Clauses live
//! in one flat arena. [`Solver::reset`] empties the solver for the next
//! query but keeps its memory, so a search never sees a learned clause,
//! an activity or a saved phase of an earlier one. Everything is
//! deterministic: the decision heap breaks activity ties by variable
//! index, nothing is random, and the budget counts conflicts, not time.

use dft_checkpoint::CancelToken;

/// A literal: variable `v` as `2v` (positive) or `2v + 1` (negated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Lit(u32);

impl Lit {
    /// The positive literal of variable `var`.
    pub(crate) fn pos(var: u32) -> Lit {
        Lit(var << 1)
    }

    /// The literal of `var` that is true when `var == value`.
    pub(crate) fn of(var: u32, value: bool) -> Lit {
        Lit(var << 1 | !value as u32)
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// How a query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// Satisfiable; [`Solver::model`] reads the model.
    Sat,
    /// Unsatisfiable.
    Unsat,
    /// The conflict budget ran out, or the cancel token fired.
    Unknown,
}

const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;
const NO_REASON: u32 = u32::MAX;
/// Conflicts in the first Luby restart interval.
const RESTART_BASE: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Watch {
    /// Arena offset of the clause (its length word).
    clause: u32,
    /// A literal of the clause other than the watched one: when it is
    /// true the clause need not be visited.
    blocker: Lit,
}

/// A SAT solver's state: one query's clauses and search, in buffers
/// that [`Solver::reset`] keeps for the next query.
#[derive(Debug, Default)]
pub(crate) struct Solver {
    /// Clause arena: a length word, then that many literals.
    arena: Vec<u32>,
    /// Per literal: the clauses watching it, visited when it turns false.
    /// Lists past the current variables are an earlier query's, kept for
    /// their capacity and emptied when [`Solver::new_var`] reuses them.
    watches: Vec<Vec<Watch>>,
    /// Per literal: `TRUE`, `FALSE` or `UNDEF`.
    values: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary max-heap of decision candidates, and each variable's slot.
    heap: Vec<u32>,
    heap_slot: Vec<u32>,
    /// Saved phase: the value each variable last held.
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch for [`Solver::add_clause`].
    scratch: Vec<Lit>,
    /// Scratch for [`Solver::analyze`]: the learned clause, and which
    /// of its literals minimisation keeps.
    learnt: Vec<Lit>,
    keep: Vec<bool>,
    /// An empty clause was added or derived at level 0.
    unsat: bool,
    conflicts: u64,
}

impl Solver {
    pub(crate) fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Empties the solver for a new query: no variable, clause, learned
    /// clause, activity or saved phase survives, but every buffer keeps
    /// its capacity.
    pub(crate) fn reset(&mut self) {
        self.arena.clear();
        self.values.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.heap.clear();
        self.heap_slot.clear();
        self.phase.clear();
        self.seen.clear();
        self.unsat = false;
        self.conflicts = 0;
    }

    /// Adds a fresh variable and returns it.
    pub(crate) fn new_var(&mut self) -> u32 {
        let v = self.level.len() as u32;
        let pos = Lit::pos(v).idx();
        if pos < self.watches.len() {
            self.watches[pos].clear();
            self.watches[pos + 1].clear();
        } else {
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
        self.values.extend([UNDEF, UNDEF]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.heap_slot.push(u32::MAX);
        self.heap_insert(v);
        v
    }

    /// Conflicts met so far.
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Whether `l` holds in the model after [`Outcome::Sat`].
    pub(crate) fn model(&self, l: Lit) -> bool {
        self.values[l.idx()] == TRUE
    }

    fn lit_value(&self, l: Lit) -> i8 {
        self.values[l.idx()]
    }

    /// Adds a clause before solving. Duplicate literals are merged and a
    /// clause holding a literal and its negation is dropped.
    pub(crate) fn add_clause(&mut self, lits: &[Lit]) {
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        if !c.windows(2).any(|w| w[0] == !w[1]) {
            match c.len() {
                0 => self.unsat = true,
                1 => match self.lit_value(c[0]) {
                    TRUE => {}
                    FALSE => self.unsat = true,
                    _ => self.assign(c[0], NO_REASON),
                },
                _ => {
                    self.attach(&c);
                }
            }
        }
        self.scratch = c;
    }

    /// Stores a clause of at least two literals and watches its first two.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        let at = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[lits[0].idx()].push(Watch {
            clause: at,
            blocker: lits[1],
        });
        self.watches[lits[1].idx()].push(Watch {
            clause: at,
            blocker: lits[0],
        });
        at
    }

    fn clause(&self, at: u32) -> &[u32] {
        let at = at as usize;
        &self.arena[at + 1..at + 1 + self.arena[at] as usize]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn assign(&mut self, l: Lit, reason: u32) {
        let v = l.var();
        self.values[l.idx()] = TRUE;
        self.values[(!l).idx()] = FALSE;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let falsified = !self.trail[self.qhead];
            self.qhead += 1;
            let mut ws = std::mem::take(&mut self.watches[falsified.idx()]);
            let (mut i, mut kept) = (0, 0);
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == TRUE {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let base = w.clause as usize + 1;
                let len = self.arena[w.clause as usize] as usize;
                // Keep the falsified literal in slot 1.
                if self.arena[base] == falsified.0 {
                    self.arena.swap(base, base + 1);
                }
                let first = Lit(self.arena[base]);
                let watch = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == TRUE {
                    ws[kept] = watch;
                    kept += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let replacement =
                    (2..len).find(|&k| self.lit_value(Lit(self.arena[base + k])) != FALSE);
                if let Some(k) = replacement {
                    self.arena.swap(base + 1, base + k);
                    let moved = Lit(self.arena[base + 1]);
                    self.watches[moved.idx()].push(watch);
                    continue;
                }
                ws[kept] = watch;
                kept += 1;
                if self.lit_value(first) == FALSE {
                    conflict = Some(w.clause);
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                } else {
                    self.assign(first, w.clause);
                }
            }
            ws.truncate(kept);
            self.watches[falsified.idx()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: leaves the learned clause in
    /// `self.learnt` (its asserting literal first, a literal of the
    /// backjump level second) and returns the backjump level.
    fn analyze(&mut self, mut conflict: u32) -> u32 {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit(0));
        let mut pending = 0;
        let mut index = self.trail.len();
        let mut implied: Option<Lit> = None;
        loop {
            let at = conflict as usize;
            // A reason clause's first literal is the one it implied.
            let skip = usize::from(implied.is_some());
            for k in at + 1 + skip..at + 1 + self.arena[at] as usize {
                let q = Lit(self.arena[k]);
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= self.decision_level() {
                        pending += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var()] {
                    break;
                }
            }
            let p = self.trail[index];
            self.seen[p.var()] = false;
            pending -= 1;
            implied = Some(p);
            if pending == 0 {
                learnt[0] = !p;
                break;
            }
            conflict = self.reason[p.var()];
        }
        // Local minimisation: drop a literal whose reason's other
        // literals are all in the clause already (or fixed at level 0).
        let mut keep = std::mem::take(&mut self.keep);
        keep.clear();
        keep.extend(learnt.iter().enumerate().map(|(i, &q)| {
            let r = self.reason[q.var()];
            i == 0
                || r == NO_REASON
                || self.clause(r)[1..].iter().any(|&l| {
                    let v = Lit(l).var();
                    !self.seen[v] && self.level[v] > 0
                })
        }));
        for q in &learnt[1..] {
            self.seen[q.var()] = false;
        }
        let mut kept = 0;
        for i in 0..learnt.len() {
            if keep[i] {
                learnt[kept] = learnt[i];
                kept += 1;
            }
        }
        learnt.truncate(kept);
        // Backjump to the highest level below the conflict's.
        let mut back = 0;
        if learnt.len() > 1 {
            let deepest = (1..learnt.len())
                .max_by_key(|&i| (self.level[learnt[i].var()], std::cmp::Reverse(i)))
                .expect("a clause of two or more literals");
            learnt.swap(1, deepest);
            back = self.level[learnt[1].var()];
        }
        self.learnt = learnt;
        self.keep = keep;
        back
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.phase[v] = self.values[Lit::pos(v as u32).idx()] == TRUE;
            self.values[l.idx()] = UNDEF;
            self.values[(!l).idx()] = UNDEF;
            self.reason[v] = NO_REASON;
            if self.heap_slot[v] == u32::MAX {
                self.heap_insert(v as u32);
            }
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = keep;
    }

    /// Solves the clauses added so far within `max_conflicts` conflicts,
    /// giving up early once `cancel` fires. Call once per query.
    pub(crate) fn solve(&mut self, max_conflicts: u64, cancel: &CancelToken) -> Outcome {
        if self.unsat || self.propagate().is_some() {
            return Outcome::Unsat;
        }
        let mut restart = 0u32;
        let mut restart_left = luby(restart) * RESTART_BASE;
        loop {
            if cancel.is_cancelled() {
                return Outcome::Unknown;
            }
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.decision_level() == 0 {
                    return Outcome::Unsat;
                }
                let back = self.analyze(conflict);
                self.cancel_until(back);
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    self.assign(learnt[0], NO_REASON);
                } else {
                    let at = self.attach(&learnt);
                    self.assign(learnt[0], at);
                }
                self.learnt = learnt;
                self.var_inc /= 0.95;
                if self.conflicts >= max_conflicts {
                    return Outcome::Unknown;
                }
                restart_left -= 1;
                if restart_left == 0 {
                    restart += 1;
                    restart_left = luby(restart) * RESTART_BASE;
                    self.cancel_until(0);
                }
                continue;
            }
            let Some(v) = self.pick_branch() else {
                return Outcome::Sat;
            };
            self.trail_lim.push(self.trail.len());
            self.assign(Lit::of(v, self.phase[v as usize]), NO_REASON);
        }
    }

    /// The unassigned variable of highest activity, if any.
    fn pick_branch(&mut self) -> Option<u32> {
        while let Some(&v) = self.heap.first() {
            self.heap_remove_top();
            if self.values[Lit::pos(v).idx()] == UNDEF {
                return Some(v);
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        let slot = self.heap_slot[v];
        if slot != u32::MAX {
            self.sift_up(slot as usize);
        }
    }

    /// Heap order: higher activity first, then the lower variable.
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_insert(&mut self, v: u32) {
        self.heap_slot[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn heap_remove_top(&mut self) {
        let top = self.heap.swap_remove(0);
        self.heap_slot[top as usize] = u32::MAX;
        if !self.heap.is_empty() {
            self.heap_slot[self.heap[0] as usize] = 0;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !self.before(v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.heap_slot[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_slot[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !self.before(self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.heap_slot[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.heap_slot[v as usize] = i as u32;
    }
}

/// The Luby sequence 1, 1, 2, 1, 1, 2, 4, ... at index `i`.
fn luby(mut i: u32) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < u64::from(i) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != u64::from(i) {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size as u32;
    }
    1 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn solve(vars: u32, clauses: &[Vec<Lit>]) -> (Outcome, Solver) {
        let mut s = Solver::new();
        for _ in 0..vars {
            s.new_var();
        }
        for c in clauses {
            s.add_clause(c);
        }
        let out = s.solve(u64::MAX, &CancelToken::new());
        (out, s)
    }

    fn satisfied(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
        clauses.iter().all(|c| c.iter().any(|&l| s.model(l)))
    }

    #[test]
    fn luby_sequence() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn pigeonhole_is_unsat() {
        // Five pigeons in four holes: var p*4 + h says pigeon p sits in h.
        let (pigeons, holes) = (5u32, 4u32);
        let var = |p: u32, h: u32| p * holes + h;
        let mut clauses = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    clauses.push(vec![!Lit::pos(var(a, h)), !Lit::pos(var(b, h))]);
                }
            }
        }
        let (out, s) = solve(pigeons * holes, &clauses);
        assert_eq!(out, Outcome::Unsat);
        assert!(s.conflicts() > 0);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let vars = rng.gen_range(3..=10u32);
            let n = rng.gen_range(1..=(5 * vars) as usize);
            let clauses: Vec<Vec<Lit>> = (0..n)
                .map(|_| {
                    (0..rng.gen_range(1..=3))
                        .map(|_| Lit::of(rng.gen_range(0..vars), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let brute = (0..1u32 << vars).any(|m| {
                clauses
                    .iter()
                    .all(|c| c.iter().any(|&l| (m >> l.var() & 1 == 1) == (l.0 & 1 == 0)))
            });
            let (out, s) = solve(vars, &clauses);
            assert_eq!(out == Outcome::Sat, brute, "{clauses:?}");
            assert_ne!(out, Outcome::Unknown);
            if out == Outcome::Sat {
                assert!(satisfied(&s, &clauses), "model violates {clauses:?}");
            }
        }
    }

    #[test]
    fn a_reset_solver_searches_as_a_fresh_one() {
        // Random 3-SAT near the threshold, so searches learn clauses,
        // bump activities and save phases that a reset must forget.
        let mut rng = StdRng::seed_from_u64(11);
        let mut reused = Solver::new();
        for round in 0..200 {
            let vars = rng.gen_range(8..=40u32);
            let n = (vars as f64 * 4.3) as usize;
            let clauses: Vec<Vec<Lit>> = (0..n)
                .map(|_| {
                    (0..3)
                        .map(|_| Lit::of(rng.gen_range(0..vars), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let budget = if round % 7 == 0 { 3 } else { u64::MAX };
            let mut fresh = Solver::new();
            reused.reset();
            for s in [&mut fresh, &mut reused] {
                for _ in 0..vars {
                    s.new_var();
                }
                for c in &clauses {
                    s.add_clause(c);
                }
            }
            let out = fresh.solve(budget, &CancelToken::new());
            assert_eq!(reused.solve(budget, &CancelToken::new()), out);
            assert_eq!(reused.conflicts(), fresh.conflicts());
            let model = |s: &Solver| (0..vars).map(|v| s.model(Lit::pos(v))).collect::<Vec<_>>();
            if out == Outcome::Sat {
                assert_eq!(model(&reused), model(&fresh));
            }
        }
    }

    #[test]
    fn budget_and_cancel_give_unknown() {
        let (pigeons, holes) = (7u32, 6u32);
        let var = |p: u32, h: u32| p * holes + h;
        let mut s = Solver::new();
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            s.add_clause(&(0..holes).map(|h| Lit::pos(var(p, h))).collect::<Vec<_>>());
        }
        for h in 0..holes {
            for a in 0..pigeons {
                for b in a + 1..pigeons {
                    s.add_clause(&[!Lit::pos(var(a, h)), !Lit::pos(var(b, h))]);
                }
            }
        }
        assert_eq!(s.solve(10, &CancelToken::new()), Outcome::Unknown);
        assert_eq!(s.conflicts(), 10);
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut t = Solver::new();
        let v = t.new_var();
        t.add_clause(&[Lit::pos(v)]);
        assert_eq!(t.solve(10, &cancel), Outcome::Unknown);
    }
}
