//! Compile-once levelized gate tape with 256-pattern-wide evaluation.
//!
//! [`GateTape::compile`] makes one pass over a [`Netlist`] and produces a
//! flat, levelized, structure-of-arrays instruction tape: gates renumbered
//! into `(level, GateId)` order, fanin/fanout adjacency flattened into
//! `u32` range arrays, and per-level slices precomputed. The tape is
//! immutable and reused across every pattern set, so the graph walk is
//! paid exactly once per design.
//!
//! Evaluation is 256 patterns per pass: values are [`WideWord`]s —
//! `[u64; 4]` lanes, laid out so each lane is one 64-pattern block
//! (`std::simd`-ready; the lane loops vectorize as straight-line code).
//! Fault propagation walks a position-ordered bitset frontier, so there
//! is no frontier insert and no per-gate fanin allocation on the hot
//! path.
//!
//! Detection is exact: the detect word of a (defect, pattern block) is a
//! function of both alone, and first-detection order falls out of
//! scanning blocks (and lanes within a wide block) in pattern order.

use dft_fault::{Fault, FaultSite};
use dft_netlist::{GateId, GateKind, Levelization, Netlist};

use crate::{Defect, PatternSet};

/// Number of 64-bit lanes in a [`WideWord`].
pub const LANES: usize = 4;

/// Patterns evaluated per wide pass.
pub const WIDE_PATTERNS: usize = 64 * LANES;

/// One simulation value for 256 patterns: lane `l` carries patterns
/// `64*l .. 64*(l+1)` of the wide block, bit `k` of a lane being pattern
/// `64*l + k` (the [`PatternSet::pack_block`] layout).
pub type WideWord = [u64; LANES];

const WIDE_ZERO: WideWord = [0; LANES];

#[inline]
fn wide_all_zero(w: &WideWord) -> bool {
    w.iter().all(|&x| x == 0)
}

/// `(a ^ b) & mask`, lane-wise.
#[inline]
fn wide_diff(a: &WideWord, b: &WideWord, mask: &WideWord) -> WideWord {
    std::array::from_fn(|l| (a[l] ^ b[l]) & mask[l])
}

/// Evaluates `kind` over gathered wide fanin values (mirror of
/// [`GateKind::eval_word`], lane-parallel).
fn eval_wide_ins(kind: GateKind, ins: &[WideWord]) -> WideWord {
    match kind {
        GateKind::Input => unreachable!("eval on Input gate"),
        GateKind::Const0 => WIDE_ZERO,
        GateKind::Const1 => [!0; LANES],
        GateKind::Output | GateKind::Buf | GateKind::Dff => ins[0],
        GateKind::Not => std::array::from_fn(|l| !ins[0][l]),
        GateKind::And => ins
            .iter()
            .fold([!0; LANES], |acc, w| std::array::from_fn(|l| acc[l] & w[l])),
        GateKind::Nand => {
            let v = ins
                .iter()
                .fold([!0; LANES], |acc, w| std::array::from_fn(|l| acc[l] & w[l]));
            std::array::from_fn(|l| !v[l])
        }
        GateKind::Or => ins
            .iter()
            .fold(WIDE_ZERO, |acc, w| std::array::from_fn(|l| acc[l] | w[l])),
        GateKind::Nor => {
            let v = ins
                .iter()
                .fold(WIDE_ZERO, |acc, w| std::array::from_fn(|l| acc[l] | w[l]));
            std::array::from_fn(|l| !v[l])
        }
        GateKind::Xor => ins
            .iter()
            .fold(WIDE_ZERO, |acc, w| std::array::from_fn(|l| acc[l] ^ w[l])),
        GateKind::Xnor => {
            let v = ins
                .iter()
                .fold(WIDE_ZERO, |acc, w| std::array::from_fn(|l| acc[l] ^ w[l]));
            std::array::from_fn(|l| !v[l])
        }
        GateKind::Mux2 => {
            std::array::from_fn(|l| (!ins[0][l] & ins[1][l]) | (ins[0][l] & ins[2][l]))
        }
    }
}

/// A compiled, levelized, SoA representation of a netlist's combinational
/// view. Build once with [`GateTape::compile`], then evaluate any number
/// of pattern sets against it.
///
/// Gates are renumbered into dense *tape positions* sorted by
/// `(level, GateId)`; every adjacency array below is indexed by position,
/// so the forward pass is a single cache-friendly sweep and fault events
/// always flow toward strictly higher positions.
#[derive(Debug)]
pub struct GateTape {
    /// Gate function per position.
    pub(crate) kinds: Vec<GateKind>,
    /// CSR ranges into `fanins`; position `p`'s fanins are
    /// `fanins[fanin_start[p]..fanin_start[p+1]]` (pin order preserved;
    /// a flop's single fanin is its D driver).
    fanin_start: Vec<u32>,
    pub(crate) fanins: Vec<u32>,
    /// CSR ranges into `fanouts`: the *combinational* readers of each
    /// position (flip-flop readers are excluded — their capture is
    /// observation, not propagation).
    fanout_start: Vec<u32>,
    pub(crate) fanouts: Vec<u32>,
    /// Number of levels (`max_level + 1`).
    num_levels: usize,
    /// Position → original [`GateId`].
    orig: Vec<GateId>,
    /// Original gate index → position.
    pub(crate) pos_of: Vec<u32>,
    /// Positions of the combinational sources, in pattern-bit order.
    pub(crate) sources: Vec<u32>,
    /// Positions of the sinks themselves, in response order.
    sink_pos: Vec<u32>,
    /// Position whose value each sink reports: the sink itself for PO
    /// markers, the D driver for flip-flops.
    sink_value_pos: Vec<u32>,
    /// `true` when a change at this position is observable: the position
    /// is a PO marker, or its value is captured by a sink flop's D pin.
    pub(crate) observable: Vec<bool>,
    /// Positions evaluated by a forward pass (everything but
    /// inputs/flops), in tape order.
    pub(crate) eval_list: Vec<u32>,
    /// Hot-loop metadata packed per position (plus one sentinel record):
    /// the scalar propagation path reads `nodes[pos]`/`nodes[pos + 1]`
    /// instead of touching four parallel arrays, so one injection event
    /// costs two adjacent 12-byte loads for all of kind, observability,
    /// and both CSR ranges.
    pub(crate) nodes: Vec<Node>,
}

/// Per-position hot metadata; see [`GateTape::nodes`]. The CSR *ends*
/// live in the following record (`nodes[p + 1]`), like the `*_start`
/// arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) fanin_start: u32,
    pub(crate) fanout_start: u32,
    pub(crate) kind: GateKind,
    observable: bool,
    /// Branchless evaluation selector: `OP_AND`/`OP_OR`/`OP_XOR` fold the
    /// fanins with one bitwise op (single-fanin kinds degenerate to a
    /// copy), `OP_OTHER` falls back to a `kind` match (Mux2, constants).
    pub(crate) op: u8,
    /// 1 when the folded value is complemented (Nand/Nor/Xnor/Not).
    pub(crate) inv: u8,
}

pub(crate) const OP_AND: u8 = 0;
pub(crate) const OP_OR: u8 = 1;
pub(crate) const OP_XOR: u8 = 2;
pub(crate) const OP_OTHER: u8 = 3;

impl Node {
    fn classify(kind: GateKind) -> (u8, u8) {
        match kind {
            GateKind::And | GateKind::Buf | GateKind::Output | GateKind::Dff => (OP_AND, 0),
            GateKind::Nand | GateKind::Not => (OP_AND, 1),
            GateKind::Or => (OP_OR, 0),
            GateKind::Nor => (OP_OR, 1),
            GateKind::Xor => (OP_XOR, 0),
            GateKind::Xnor => (OP_XOR, 1),
            GateKind::Mux2 | GateKind::Const0 | GateKind::Const1 | GateKind::Input => (OP_OTHER, 0),
        }
    }
}

impl GateTape {
    /// Compiles `nl` into a tape. One pass: levelize, renumber, flatten.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    pub fn compile(nl: &Netlist) -> GateTape {
        let lv = Levelization::compute(nl).expect("netlist must be acyclic");
        let n = nl.num_gates();

        // Renumber into (level, GateId) order: a valid evaluation order
        // (every combinational fanin has a strictly lower level), and
        // deterministic within a level.
        let mut by_level: Vec<GateId> = (0..n as u32).map(GateId).collect();
        by_level.sort_by_key(|&id| (lv.level(id), id));
        let mut pos_of = vec![0u32; n];
        for (pos, &id) in by_level.iter().enumerate() {
            pos_of[id.index()] = pos as u32;
        }

        let sink_ids = nl.combinational_sinks();
        let mut is_sink = vec![false; n];
        for &s in &sink_ids {
            is_sink[s.index()] = true;
        }

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanins = Vec::new();
        let mut fanout_start = Vec::with_capacity(n + 1);
        let mut fanouts = Vec::new();
        let mut observes_dff = vec![false; n];
        let mut eval_list = Vec::new();
        fanin_start.push(0);
        fanout_start.push(0);
        for (pos, &id) in by_level.iter().enumerate() {
            let g = nl.gate(id);
            kinds.push(g.kind);
            fanins.extend(g.fanins.iter().map(|f| pos_of[f.index()]));
            fanin_start.push(fanins.len() as u32);
            for &fo in &g.fanouts {
                match nl.gate(fo).kind {
                    GateKind::Dff => {
                        if is_sink[fo.index()] {
                            observes_dff[pos] = true;
                        }
                    }
                    GateKind::Input => {}
                    _ => fanouts.push(pos_of[fo.index()]),
                }
            }
            fanout_start.push(fanouts.len() as u32);
            if !matches!(g.kind, GateKind::Input | GateKind::Dff) {
                eval_list.push(pos as u32);
            }
        }

        let observable: Vec<bool> = kinds
            .iter()
            .zip(&observes_dff)
            .map(|(k, &o)| matches!(k, GateKind::Output) || o)
            .collect();

        let mut nodes: Vec<Node> = (0..n)
            .map(|p| {
                let (op, inv) = Node::classify(kinds[p]);
                Node {
                    fanin_start: fanin_start[p],
                    fanout_start: fanout_start[p],
                    kind: kinds[p],
                    observable: observable[p],
                    op,
                    inv,
                }
            })
            .collect();
        // Sentinel: `nodes[p + 1]` is always a valid CSR end.
        nodes.push(Node {
            fanin_start: fanins.len() as u32,
            fanout_start: fanouts.len() as u32,
            kind: GateKind::Input,
            observable: false,
            op: OP_OTHER,
            inv: 0,
        });

        let sources: Vec<u32> = nl
            .combinational_sources()
            .iter()
            .map(|s| pos_of[s.index()])
            .collect();
        let sink_pos: Vec<u32> = sink_ids.iter().map(|s| pos_of[s.index()]).collect();
        let mut sink_value_pos = Vec::with_capacity(sink_ids.len());
        for &s in &sink_ids {
            let pos = pos_of[s.index()];
            sink_value_pos.push(if matches!(nl.gate(s).kind, GateKind::Dff) {
                pos_of[nl.gate(s).fanins[0].index()]
            } else {
                pos
            });
        }

        GateTape {
            kinds,
            fanin_start,
            fanins,
            fanout_start,
            fanouts,
            num_levels: lv.max_level() as usize + 1,
            orig: by_level,
            pos_of,
            sources,
            sink_pos,
            sink_value_pos,
            observable,
            eval_list,
            nodes,
        }
    }

    /// Number of tape positions (= gates).
    #[inline]
    pub fn num_positions(&self) -> usize {
        self.kinds.len()
    }

    /// Number of topological levels.
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Wide gate evaluations per forward pass (a constant of the tape).
    #[inline]
    pub fn evals_per_pass(&self) -> u64 {
        self.eval_list.len() as u64
    }

    /// Tape position of a gate.
    #[inline]
    pub fn position(&self, id: GateId) -> usize {
        self.pos_of[id.index()] as usize
    }

    /// Original gate at a tape position.
    #[inline]
    pub fn gate_at(&self, pos: usize) -> GateId {
        self.orig[pos]
    }

    /// Tape position of the net a fault site refers to (the gate's own
    /// net for stem faults, the driving net for pin faults).
    #[inline]
    pub fn site_position(&self, site: FaultSite) -> usize {
        let gate_pos = self.pos_of[site.gate.index()] as usize;
        match site.pin {
            None => gate_pos,
            Some(pin) => self.fanins[self.fanin_start[gate_pos] as usize + pin as usize] as usize,
        }
    }

    #[inline]
    pub(crate) fn fanin_range(&self, pos: usize) -> &[u32] {
        &self.fanins[self.fanin_start[pos] as usize..self.fanin_start[pos + 1] as usize]
    }

    #[inline]
    pub(crate) fn fanout_range(&self, pos: usize) -> &[u32] {
        &self.fanouts[self.fanout_start[pos] as usize..self.fanout_start[pos + 1] as usize]
    }

    /// Packs patterns `[start, start + 256)` into one [`WideWord`] per
    /// source bit; lane `l` holds patterns `start + 64*l ..`. Returns the
    /// number of valid patterns in the wide block (≤ 256).
    pub fn pack_wide(patterns: &PatternSet, start: usize) -> (Vec<WideWord>, usize) {
        let mut words = vec![WIDE_ZERO; patterns.width()];
        let mut count = 0usize;
        for (lane, s) in (start..start + 64 * LANES).step_by(64).enumerate() {
            if s >= patterns.len() {
                break;
            }
            let (w, c) = patterns.pack_block(s);
            for (src, &word) in w.iter().enumerate() {
                words[src][lane] = word;
            }
            count += c;
        }
        (words, count)
    }

    /// The valid-pattern mask for a wide block of `count` patterns.
    pub fn wide_mask(count: usize) -> WideWord {
        std::array::from_fn(|lane| {
            let c = count.saturating_sub(64 * lane).min(64);
            if c >= 64 {
                !0
            } else {
                (1u64 << c) - 1
            }
        })
    }

    /// Evaluates one wide block: `src[s]` carries 256 values of source
    /// `s`. Fills `vals` with one [`WideWord`] per tape position (flops
    /// carry their Q/source value; their D-pin capture is read from the D
    /// driver, see [`GateTape::sink_words_wide`]).
    pub fn eval_wide(&self, src: &[WideWord], vals: &mut Vec<WideWord>) {
        assert_eq!(src.len(), self.sources.len(), "source width");
        vals.clear();
        vals.resize(self.kinds.len(), WIDE_ZERO);
        for (s, &pos) in self.sources.iter().enumerate() {
            vals[pos as usize] = src[s];
        }
        for &pos in &self.eval_list {
            let p = pos as usize;
            let nd = self.nodes[p];
            let fr = &self.fanins[nd.fanin_start as usize..self.nodes[p + 1].fanin_start as usize];
            // Gather and evaluate fused, reading fanin values in place
            // (all fanins sit at strictly lower positions); same
            // branchless op-mask fold as the scalar propagation path.
            let read = |f: &u32| vals[*f as usize];
            let val = if nd.op != OP_OTHER {
                let m_or = ((nd.op == OP_OR) as u64).wrapping_neg();
                let m_xor = ((nd.op == OP_XOR) as u64).wrapping_neg();
                let m_and = !(m_or | m_xor);
                let inv = (nd.inv as u64).wrapping_neg();
                let mut acc = read(&fr[0]);
                for f in &fr[1..] {
                    let w = read(f);
                    acc = std::array::from_fn(|l| {
                        let both = acc[l] & w[l];
                        let x = acc[l] ^ w[l];
                        (both & m_and) | ((both | x) & m_or) | (x & m_xor)
                    });
                }
                acc.map(|x| x ^ inv)
            } else {
                match nd.kind {
                    GateKind::Mux2 => {
                        let s = read(&fr[0]);
                        let a = read(&fr[1]);
                        let b = read(&fr[2]);
                        std::array::from_fn(|l| (!s[l] & a[l]) | (s[l] & b[l]))
                    }
                    GateKind::Const0 => WIDE_ZERO,
                    GateKind::Const1 => [!0; LANES],
                    _ => unreachable!("inputs are not in the eval list"),
                }
            };
            vals[p] = val;
        }
    }

    /// Extracts the per-sink response words from an [`GateTape::eval_wide`]
    /// result (PO markers report their own value, flops their D pin).
    pub fn sink_words_wide(&self, vals: &[WideWord]) -> Vec<WideWord> {
        self.sink_value_pos
            .iter()
            .map(|&p| vals[p as usize])
            .collect()
    }

    /// Computes the 256-pattern detection word of `fault` against the
    /// wide good values `good` (from [`GateTape::eval_wide`]): bit `k` of
    /// lane `l` set means pattern `64*l + k` of the block detects the
    /// fault. Also returns the number of wide faulty gate evaluations.
    ///
    /// The detect word is exact (complete single-fault propagation), so
    /// lane `l` is bit-for-bit the [`GateTape::detect_lane`] word of the
    /// underlying 64-pattern block.
    pub fn detect_wide(
        &self,
        good: &[WideWord],
        mask: &WideWord,
        fault: Fault,
        ws: &mut TapeWorkspace,
    ) -> (WideWord, u64) {
        let forced = if fault.kind.stuck_value() {
            !0u64
        } else {
            0u64
        };

        // Activation: the site must differ from its good value somewhere.
        let site_pos = self.site_position(fault.site);
        if wide_all_zero(&wide_diff(&good[site_pos], &[forced; LANES], mask)) {
            return (WIDE_ZERO, 0);
        }

        ws.begin();
        let mut evals = 0u64;
        let gate_pos = self.pos_of[fault.site.gate.index()] as usize;
        match fault.site.pin {
            // Stem fault: force the net, propagate from it.
            None => ws.set(gate_pos, [forced; LANES]),
            // Branch fault: re-evaluate only the site gate with the
            // forced pin value.
            Some(pin) => match self.kinds[gate_pos] {
                // A fault on a flop's D pin (or a PO marker pin) is
                // observed directly in the captured value.
                GateKind::Dff | GateKind::Output => {
                    let d = good[self.fanin_range(gate_pos)[0] as usize];
                    return (wide_diff(&d, &[forced; LANES], mask), 0);
                }
                kind => {
                    ws.ins.clear();
                    for (i, &f) in self.fanin_range(gate_pos).iter().enumerate() {
                        ws.ins.push(if i == pin as usize {
                            [forced; LANES]
                        } else {
                            good[f as usize]
                        });
                    }
                    evals += 1;
                    let val = eval_wide_ins(kind, &ws.ins);
                    if wide_all_zero(&wide_diff(&val, &good[gate_pos], mask)) {
                        return (WIDE_ZERO, evals);
                    }
                    ws.set(gate_pos, val);
                }
            },
        }

        let (det, e) = self.propagate_and_detect(good, mask, ws);
        (det, evals + e)
    }

    /// [`GateTape::detect_wide`] for any single [`Defect`]. A bridge sets
    /// both nets to the values its model computes from their good values
    /// (one static pass) and propagates from both.
    pub(crate) fn detect_defect_wide(
        &self,
        good: &[WideWord],
        mask: &WideWord,
        defect: Defect,
        ws: &mut TapeWorkspace,
    ) -> (WideWord, u64) {
        let bridge = match defect {
            Defect::StuckAt(fault) => return self.detect_wide(good, mask, fault, ws),
            Defect::Bridge(bridge) => bridge,
        };
        let (pa, pb) = (self.position(bridge.a), self.position(bridge.b));
        let (va, vb) = (good[pa], good[pb]);
        let (mut fa, mut fb) = (WIDE_ZERO, WIDE_ZERO);
        for l in 0..LANES {
            (fa[l], fb[l]) = bridge.faulty_words(va[l], vb[l]);
        }
        let excited: WideWord = std::array::from_fn(|l| (fa[l] ^ va[l]) | (fb[l] ^ vb[l]));
        if wide_all_zero(&wide_diff(&excited, &WIDE_ZERO, mask)) {
            return (WIDE_ZERO, 0);
        }
        ws.begin();
        // Set BOTH nets, even one whose bridged value equals its good
        // value: a net inside the other net's cone keeps the static
        // bridged value instead of being re-evaluated.
        ws.set(pa, fa);
        ws.set(pb, fb);
        self.propagate_and_detect(good, mask, ws)
    }

    /// The faulty machine's sink words for one wide block with `defect`
    /// injected: [`GateTape::sink_words_wide`] of the faulty values, exact
    /// on every live pattern of `mask`.
    pub(crate) fn faulty_sink_words(
        &self,
        good: &[WideWord],
        mask: &WideWord,
        defect: Defect,
        ws: &mut TapeWorkspace,
    ) -> Vec<WideWord> {
        let mut sinks = self.sink_words_wide(good);
        // A stuck pin of a flop (or PO marker) changes only that sink's
        // capture; the net it reads keeps its good value.
        if let Defect::StuckAt(fault) = defect {
            let gate_pos = self.pos_of[fault.site.gate.index()];
            if fault.site.pin.is_some()
                && matches!(
                    self.kinds[gate_pos as usize],
                    GateKind::Dff | GateKind::Output
                )
            {
                let forced = [if fault.kind.stuck_value() { !0 } else { 0 }; LANES];
                for (sink, &p) in sinks.iter_mut().zip(&self.sink_pos) {
                    if p == gate_pos {
                        *sink = forced;
                    }
                }
                return sinks;
            }
        }
        let (det, _) = self.detect_defect_wide(good, mask, defect, ws);
        // An undetected defect leaves every sink at its good value on the
        // live patterns (and the workspace may hold an older injection).
        if !wide_all_zero(&det) {
            for (sink, &p) in sinks.iter_mut().zip(&self.sink_value_pos) {
                *sink = ws.value_or(p as usize, good);
            }
        }
        sinks
    }

    /// Extracts one 64-pattern lane of a wide evaluation into a packed
    /// `u64`-per-position array (the cache-dense input to
    /// [`TapeWorkspace::load_lane`]).
    pub fn lane_values(vals: &[WideWord], lane: usize) -> Vec<u64> {
        vals.iter().map(|w| w[lane]).collect()
    }

    /// Computes the 64-pattern detection word of `fault` against the lane
    /// of good values loaded via [`TapeWorkspace::load_lane`]: the exact
    /// scalar equivalent of [`GateTape::detect_wide`] restricted to one
    /// 64-pattern block.
    ///
    /// Faults are dropped on first detection and most drops happen in the
    /// first 64 patterns of a wide block, so propagating the first lane
    /// alone — packed u64 values, a quarter of the memory traffic —
    /// before paying for the remaining 192 patterns is the PPSFP fast
    /// path. The workspace keeps a current-value array that doubles as
    /// the good machine (changed entries are restored on the next
    /// injection), so the inner gather is one unconditional load per
    /// fanin — no per-fanin stamp branch.
    ///
    /// The frontier is a position-indexed bitset rather than the wide
    /// path's level buckets: positions are level-sorted and fanouts point
    /// strictly forward, so consuming set bits in increasing position
    /// order visits each gate exactly once, after all of its changed
    /// fanins are final — the same evaluation order the buckets produce.
    /// Scheduling is one idempotent OR (multi-fanin convergence needs no
    /// dedup array), and a consumed sweep leaves the bitset zeroed for
    /// the next injection. Detection folds into the event loop: a gate
    /// changes at most once per injection, so OR-ing the difference of
    /// observable positions as they are set equals the post-hoc scan.
    pub fn detect_lane(&self, mask: u64, fault: Fault, ws: &mut TapeWorkspace) -> (u64, u64) {
        let forced = if fault.kind.stuck_value() {
            !0u64
        } else {
            0u64
        };

        let site_pos = self.site_position(fault.site);
        if (ws.good_lane[site_pos] ^ forced) & mask == 0 {
            return (0, 0);
        }

        ws.begin_lane();
        let mut evals = 0u64;
        let mut det = 0u64;
        let gate_pos = self.pos_of[fault.site.gate.index()] as usize;
        let root = match fault.site.pin {
            None => {
                ws.cur[gate_pos] = forced;
                gate_pos
            }
            Some(pin) => match self.kinds[gate_pos] {
                GateKind::Dff | GateKind::Output => {
                    let d = ws.good_lane[self.fanin_range(gate_pos)[0] as usize];
                    return ((d ^ forced) & mask, 0);
                }
                kind => {
                    ws.ins_lane.clear();
                    for (i, &f) in self.fanin_range(gate_pos).iter().enumerate() {
                        ws.ins_lane.push(if i == pin as usize {
                            forced
                        } else {
                            ws.good_lane[f as usize]
                        });
                    }
                    evals += 1;
                    let val = kind.eval_word(&ws.ins_lane);
                    if (val ^ ws.good_lane[gate_pos]) & mask == 0 {
                        return (0, evals);
                    }
                    ws.cur[gate_pos] = val;
                    gate_pos
                }
            },
        };
        ws.changed.push(root as u32);
        if self.observable[root] {
            det |= (ws.cur[root] ^ ws.good_lane[root]) & mask;
        }

        // The root's fanouts all sit at strictly higher positions, so the
        // sweep starts at the root's word and the root itself can never
        // be rescheduled (no injection-root guard needed). `pending`
        // counts bits set but not yet consumed, so the sweep stops the
        // moment the frontier drains instead of scanning the zero tail of
        // the bitset (events usually die far from the end of the tape).
        ws.sched_dirty = true;
        let mut pending = 0u32;
        for &fo in self.fanout_range(root) {
            let wi = (fo >> 6) as usize;
            let m = 1u64 << (fo & 63);
            pending += (ws.sched[wi] & m == 0) as u32;
            ws.sched[wi] |= m;
        }
        let mut w = root >> 6;
        while pending > 0 {
            // Re-read the word every iteration: a consumed gate may
            // schedule fanouts into its own word (always above the bit
            // just cleared, so the scan never moves backwards, and never
            // below `w`, so `pending > 0` guarantees a bit at or above
            // `w` exists).
            let bits = ws.sched[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            ws.sched[w] = bits & (bits - 1);
            pending -= 1;
            let pos = (w << 6) | bits.trailing_zeros() as usize;
            // All hot per-position metadata comes from two adjacent
            // packed records; the gather is fused with evaluation: `cur`
            // carries faulty values for the current injection's changed
            // positions and good values everywhere else, so each fanin is
            // one load. A scheduled gate always has at least one changed
            // fanin, so there is no dead-input check to skip.
            let nd = self.nodes[pos];
            let nx = self.nodes[pos + 1];
            let fr = &self.fanins[nd.fanin_start as usize..nx.fanin_start as usize];
            let read = |f: &u32| ws.cur[*f as usize];
            evals += 1;
            // Branchless fold for the common kinds: with p = a & b and
            // x = a ^ b, AND = p, OR = p | x, XOR = x; the op masks
            // select one without a data-dependent branch (gate kinds
            // alternate unpredictably along a cone, so a `match` here
            // pays a mispredict per event).
            let val = if nd.op != OP_OTHER {
                let m_or = ((nd.op == OP_OR) as u64).wrapping_neg();
                let m_xor = ((nd.op == OP_XOR) as u64).wrapping_neg();
                let mut acc = read(&fr[0]);
                for f in &fr[1..] {
                    let b = read(f);
                    let p = acc & b;
                    let x = acc ^ b;
                    acc = (p & !(m_or | m_xor)) | ((p | x) & m_or) | (x & m_xor);
                }
                acc ^ (nd.inv as u64).wrapping_neg()
            } else {
                match nd.kind {
                    GateKind::Mux2 => {
                        let s = read(&fr[0]);
                        (!s & read(&fr[1])) | (s & read(&fr[2]))
                    }
                    GateKind::Const0 => 0,
                    GateKind::Const1 => !0,
                    _ => unreachable!("inputs are never scheduled"),
                }
            };
            let d = (val ^ ws.good_lane[pos]) & mask;
            if d == 0 {
                continue; // event died here
            }
            ws.cur[pos] = val;
            ws.changed.push(pos as u32);
            if nd.observable {
                det |= d;
            }
            for &fo in &self.fanouts[nd.fanout_start as usize..nx.fanout_start as usize] {
                let wi = (fo >> 6) as usize;
                let m = 1u64 << (fo & 63);
                pending += (ws.sched[wi] & m == 0) as u32;
                ws.sched[wi] |= m;
            }
        }
        ws.sched_dirty = false;
        (det, evals)
    }

    /// Position-ordered event propagation from the injected roots with
    /// detection folded in (same bitset frontier as the scalar path; see
    /// [`GateTape::detect_lane`]). An event dies where the recomputed
    /// value matches the good value on every live pattern; an injection
    /// root keeps its injected value even when another root's events
    /// reach it (a bridged net inside the other net's cone). Never
    /// allocates in the loop. Observability: PO markers observe their own
    /// value; any changed net feeding a sink flop's D pin is captured.
    fn propagate_and_detect(
        &self,
        good: &[WideWord],
        mask: &WideWord,
        ws: &mut TapeWorkspace,
    ) -> (WideWord, u64) {
        let mut evals = 0u64;
        let mut det = WIDE_ZERO;
        ws.sched_dirty = true;
        let mut pending = 0u32;
        let mut first = usize::MAX;
        for ri in 0..ws.changed.len() {
            let root = ws.changed[ri] as usize;
            first = first.min(root);
            if self.observable[root] {
                let d = wide_diff(&ws.faulty[root], &good[root], mask);
                for l in 0..LANES {
                    det[l] |= d[l];
                }
            }
            for &fo in self.fanout_range(root) {
                let wi = (fo >> 6) as usize;
                let m = 1u64 << (fo & 63);
                pending += (ws.sched[wi] & m == 0) as u32;
                ws.sched[wi] |= m;
            }
        }
        let mut w = if first == usize::MAX { 0 } else { first >> 6 };
        while pending > 0 {
            let bits = ws.sched[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            ws.sched[w] = bits & (bits - 1);
            pending -= 1;
            let pos = (w << 6) | bits.trailing_zeros() as usize;
            // Only roots are stamped before the sweep reaches them: any
            // other position is stamped when it changes, after its one
            // visit.
            if ws.stamp[pos] == ws.epoch {
                continue;
            }
            let nd = self.nodes[pos];
            let nx = self.nodes[pos + 1];
            // Gather: a fanin stamped this epoch reads its faulty value,
            // anything else the shared good slice. A scheduled gate
            // always has at least one changed fanin.
            ws.ins.clear();
            for &f in &self.fanins[nd.fanin_start as usize..nx.fanin_start as usize] {
                let fp = f as usize;
                ws.ins.push(if ws.stamp[fp] == ws.epoch {
                    ws.faulty[fp]
                } else {
                    good[fp]
                });
            }
            evals += 1;
            let val = eval_wide_ins(nd.kind, &ws.ins);
            let d = wide_diff(&val, &good[pos], mask);
            if wide_all_zero(&d) {
                continue; // event died here
            }
            ws.set(pos, val);
            if nd.observable {
                for l in 0..LANES {
                    det[l] |= d[l];
                }
            }
            for &fo in &self.fanouts[nd.fanout_start as usize..nx.fanout_start as usize] {
                let wi = (fo >> 6) as usize;
                let m = 1u64 << (fo & 63);
                pending += (ws.sched[wi] & m == 0) as u32;
                ws.sched[wi] |= m;
            }
        }
        ws.sched_dirty = false;
        (det, evals)
    }
}

/// Reusable, allocation-free scratch memory for tape fault propagation
/// (one per worker thread).
#[derive(Debug, Clone)]
pub struct TapeWorkspace {
    faulty: Vec<WideWord>,
    /// Current scalar values for [`GateTape::detect_lane`]: the loaded
    /// good lane with this epoch's changed positions overwritten by their
    /// faulty values. [`TapeWorkspace::begin`] restores changed entries,
    /// so reads never need a stamp check. Shares the stamp/changed
    /// machinery with the wide path (an injection uses one path or the
    /// other, never both within an epoch).
    cur: Vec<u64>,
    /// The packed good lane `cur` is restored against.
    good_lane: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    changed: Vec<u32>,
    /// Position-indexed frontier bitset, shared by both propagation
    /// paths (an injection uses one path at a time). Zero between
    /// injections; `sched_dirty` marks a sweep that was abandoned
    /// mid-flight (panic) and needs a full clear.
    sched: Vec<u64>,
    sched_dirty: bool,
    /// Fanin gather buffer.
    ins: Vec<WideWord>,
    /// Scalar fanin gather buffer.
    ins_lane: Vec<u64>,
}

impl TapeWorkspace {
    /// Creates a workspace sized for `tape`.
    pub fn new(tape: &GateTape) -> TapeWorkspace {
        let n = tape.num_positions();
        TapeWorkspace {
            faulty: vec![WIDE_ZERO; n],
            cur: vec![0; n],
            good_lane: vec![0; n],
            stamp: vec![0; n],
            // Starts at 1 so a fresh workspace has nothing marked.
            epoch: 1,
            changed: Vec::with_capacity(256),
            sched: vec![0; n.div_ceil(64)],
            sched_dirty: false,
            ins: Vec::with_capacity(8),
            ins_lane: Vec::with_capacity(8),
        }
    }

    /// Loads one packed good lane (from [`GateTape::lane_values`]) as the
    /// baseline for [`GateTape::detect_lane`] injections. Call once per
    /// (worker, block); the per-injection restore in `begin`
    /// keeps `cur` synced to it from then on.
    pub fn load_lane(&mut self, good: &[u64]) {
        self.good_lane.copy_from_slice(good);
        self.cur.copy_from_slice(good);
    }

    /// Re-arms the workspace for the next injection. Always restores a
    /// clean state, even if the previous propagation panicked mid-flight.
    fn begin(&mut self) {
        // Undo the previous injection's scalar writes (panic-safe: runs
        // before every injection, whatever happened to the last one).
        for i in 0..self.changed.len() {
            let pos = self.changed[i] as usize;
            self.cur[pos] = self.good_lane[pos];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: reset (rare; 4G injections).
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.changed.clear();
        if self.sched_dirty {
            self.sched.fill(0);
            self.sched_dirty = false;
        }
    }

    #[inline]
    fn set(&mut self, pos: usize, w: WideWord) {
        if self.stamp[pos] != self.epoch {
            self.stamp[pos] = self.epoch;
            self.changed.push(pos as u32);
        }
        self.faulty[pos] = w;
    }

    /// Re-arms the scalar-lane state for the next
    /// [`GateTape::detect_lane`] injection: undoes the previous
    /// injection's `cur` writes and clears the frontier bitset if a
    /// panic abandoned a sweep (a completed sweep consumes every bit it
    /// sets, so the bitset is normally already zero). The lane path
    /// tracks changes through `changed` alone — no stamps, no epochs —
    /// because the position-ordered sweep touches each gate at most
    /// once.
    fn begin_lane(&mut self) {
        for i in 0..self.changed.len() {
            let pos = self.changed[i] as usize;
            self.cur[pos] = self.good_lane[pos];
        }
        self.changed.clear();
        if self.sched_dirty {
            self.sched.fill(0);
            self.sched_dirty = false;
        }
    }

    /// Reads the faulty value of the gate at `pos` left by the most
    /// recent injection, falling back to the good value.
    #[inline]
    pub fn value_or(&self, pos: usize, good: &[WideWord]) -> WideWord {
        if self.stamp[pos] == self.epoch {
            self.faulty[pos]
        } else {
            good[pos]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe_stuck_at;
    use dft_netlist::generators::{c17, counter, mac_pe, ripple_adder};

    #[test]
    fn wide_good_eval_matches_gate_by_gate_reference() {
        // Reference: each pattern alone, one gate at a time in netlist
        // level order with scalar `eval_bool`.
        for nl in [c17(), ripple_adder(8), counter(6), mac_pe(4)] {
            let tape = GateTape::compile(&nl);
            let lv = Levelization::compute(&nl).unwrap();
            let sources = nl.combinational_sources();
            let ps = PatternSet::random(&nl, 300, 7);
            let mut vals = Vec::new();
            for start in (0..ps.len()).step_by(WIDE_PATTERNS) {
                let (src, count) = GateTape::pack_wide(&ps, start);
                tape.eval_wide(&src, &mut vals);
                for k in 0..count {
                    let mut want = vec![false; nl.num_gates()];
                    for (s, &g) in sources.iter().enumerate() {
                        want[g.index()] = ps.pattern(start + k)[s];
                    }
                    for &id in lv.order() {
                        let g = nl.gate(id);
                        if !matches!(g.kind, GateKind::Input | GateKind::Dff) {
                            let ins: Vec<bool> = g.fanins.iter().map(|f| want[f.index()]).collect();
                            want[id.index()] = g.kind.eval_bool(&ins);
                        }
                    }
                    for (idx, &w) in want.iter().enumerate() {
                        let got = vals[tape.position(GateId(idx as u32))][k / 64] >> (k % 64) & 1;
                        assert_eq!(
                            got == 1,
                            w,
                            "{} gate {idx} pattern {}",
                            nl.name(),
                            start + k
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_detect_words_match_scalar_lanes() {
        // The wide propagation and the scalar lane-0 fast path are two
        // implementations of one detect word: lane for lane they agree.
        for nl in [c17(), ripple_adder(6), counter(5), mac_pe(3)] {
            let tape = GateTape::compile(&nl);
            let ps = PatternSet::random(&nl, 200, 23);
            let mut ws = TapeWorkspace::new(&tape);
            let mut vals = Vec::new();
            for fault in universe_stuck_at(&nl) {
                for start in (0..ps.len()).step_by(WIDE_PATTERNS) {
                    let (src, count) = GateTape::pack_wide(&ps, start);
                    tape.eval_wide(&src, &mut vals);
                    let mask = GateTape::wide_mask(count);
                    let (wide, _) = tape.detect_wide(&vals, &mask, fault, &mut ws);
                    for lane in 0..count.div_ceil(64) {
                        ws.load_lane(&GateTape::lane_values(&vals, lane));
                        let (scalar, _) = tape.detect_lane(mask[lane], fault, &mut ws);
                        assert_eq!(
                            wide[lane],
                            scalar,
                            "{} fault {fault} lane {lane}",
                            nl.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_mask_covers_partial_blocks() {
        assert_eq!(GateTape::wide_mask(256), [!0; LANES]);
        assert_eq!(GateTape::wide_mask(64), [!0, 0, 0, 0]);
        assert_eq!(GateTape::wide_mask(65), [!0, 1, 0, 0]);
        assert_eq!(GateTape::wide_mask(3), [0b111, 0, 0, 0]);
        assert_eq!(GateTape::wide_mask(130), [!0, !0, 0b11, 0]);
    }

    #[test]
    fn tape_positions_are_level_sorted() {
        let nl = mac_pe(4);
        let tape = GateTape::compile(&nl);
        let lv = Levelization::compute(&nl).unwrap();
        for p in 1..tape.num_positions() {
            assert!(lv.level(tape.gate_at(p - 1)) <= lv.level(tape.gate_at(p)));
        }
        // Round-trip gate <-> position.
        for p in 0..tape.num_positions() {
            assert_eq!(tape.position(tape.gate_at(p)), p);
        }
    }
}
