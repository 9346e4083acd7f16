//! Compile-once levelized gate tape, and the one fault-propagation sweep
//! that runs on it.
//!
//! [`GateTape::compile`] makes one pass over a [`Netlist`] and produces a
//! flat, levelized, structure-of-arrays instruction tape: gates renumbered
//! into `(level, GateId)` order, fanin/fanout adjacency flattened into
//! `u32` range arrays, and per-level slices precomputed. The tape is
//! immutable and reused across every pattern set, so the graph walk is
//! paid exactly once per design.
//!
//! Good-machine evaluation is 256 patterns per pass: values are
//! [`WideWord`]s — `[u64; 4]` lanes, laid out so each lane is one
//! 64-pattern block (`std::simd`-ready; the lane loops vectorize as
//! straight-line code).
//!
//! Fault propagation is one routine at two widths, generic over a word of
//! `N` 64-pattern lanes: `N = 1` for the stuck-at batch's lane-0 fast
//! path, `N = 4` for everything else. Each worker keeps a current-value
//! array holding the loaded block's good values with the last injection's
//! changes on top, and undoes those changes at the next injection. One
//! injection sets the defect's roots (a stuck net, a re-evaluated gate
//! with a stuck pin, or both nets of a bridge), and one sweep walks a
//! position-ordered bitset frontier from them, so there is no frontier
//! insert, no per-gate fanin gather and no allocation on the hot path.
//! Every gate, good or faulty, is evaluated by the same branchless
//! op-mask fold.
//!
//! Detection is exact: the detect word of a (defect, pattern block) is a
//! function of both alone, and first-detection order falls out of
//! scanning blocks (and lanes within a wide block) in pattern order.

use dft_fault::FaultSite;
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

/// `(a ^ b) & mask`, lane-wise.
#[inline]
fn diff<const N: usize>(a: &[u64; N], b: &[u64; N], mask: &[u64; N]) -> [u64; N] {
    std::array::from_fn(|l| (a[l] ^ b[l]) & mask[l])
}

#[inline]
fn is_zero<const N: usize>(w: &[u64; N]) -> bool {
    w.iter().all(|&x| x == 0)
}

/// Evaluates the gate `nd` over words of `N` lanes, `read(pin, net)`
/// giving the value on each fanin pin (`fanins[pin]` is `net`). The one
/// gate function of the tape: good-machine passes, injected pin faults
/// and the propagation sweep all evaluate through it.
#[inline(always)]
fn eval_gate<const N: usize>(
    nd: Node,
    fanins: &[u32],
    read: impl Fn(usize, u32) -> [u64; N],
) -> [u64; N] {
    if nd.op != OP_OTHER {
        // Branchless fold for the common kinds: with p = a & b and
        // x = a ^ b, AND = p, OR = p | x, XOR = x; the op masks select
        // one without a data-dependent branch (gate kinds alternate
        // unpredictably along a cone, so a `match` here pays a mispredict
        // per event).
        let m_or = ((nd.op == OP_OR) as u64).wrapping_neg();
        let m_xor = ((nd.op == OP_XOR) as u64).wrapping_neg();
        let m_and = !(m_or | m_xor);
        let mut acc = read(0, fanins[0]);
        for (pin, &f) in fanins.iter().enumerate().skip(1) {
            let w = read(pin, f);
            acc = std::array::from_fn(|l| {
                let p = acc[l] & w[l];
                let x = acc[l] ^ w[l];
                (p & m_and) | ((p | x) & m_or) | (x & m_xor)
            });
        }
        let inv = (nd.inv as u64).wrapping_neg();
        acc.map(|a| a ^ inv)
    } else {
        match nd.kind {
            GateKind::Mux2 => {
                let s = read(0, fanins[0]);
                let a = read(1, fanins[1]);
                let b = read(2, fanins[2]);
                std::array::from_fn(|l| (!s[l] & a[l]) | (s[l] & b[l]))
            }
            GateKind::Const0 => [0; N],
            GateKind::Const1 => [!0; N],
            _ => unreachable!("inputs are never evaluated"),
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
    /// the propagation sweep reads `nodes[pos]`/`nodes[pos + 1]` instead
    /// of touching four parallel arrays, so one event costs two adjacent
    /// 12-byte loads for all of kind, observability, and both CSR
    /// ranges.
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
            // Fanin values are read in place: all of them sit at strictly
            // lower positions.
            let val = eval_gate(nd, fr, |_, f| vals[f as usize]);
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
}

/// One worker's fault-propagation state over words of `N` 64-pattern
/// lanes: `N = 1` for the stuck-at batch's lane-0 fast path, `N = LANES`
/// for its wide tail, transition pairs and single-defect simulation.
///
/// `cur` holds the loaded block's good values with the last injection's
/// changes on top. `changed` logs each changed position with its good
/// value, and the next injection undoes the log first (newest entry
/// first), so a fanin read is one unconditional load and a sweep that a
/// panic abandoned leaves nothing the next injection does not repair.
#[derive(Debug)]
pub(crate) struct Sweep<'t, const N: usize> {
    tape: &'t GateTape,
    cur: Vec<[u64; N]>,
    changed: Vec<(u32, [u64; N])>,
    /// Position-indexed frontier bitset. Zero between injections: a
    /// finished sweep consumes every bit it sets, and `sched_dirty` marks
    /// one that a panic abandoned mid-flight, which needs a full clear.
    sched: Vec<u64>,
    sched_dirty: bool,
}

impl<'t, const N: usize> Sweep<'t, N> {
    /// An empty sweep for `tape`; [`Sweep::load`] a block before
    /// injecting.
    pub(crate) fn new(tape: &'t GateTape) -> Self {
        Sweep {
            tape,
            cur: Vec::with_capacity(tape.num_positions()),
            changed: Vec::with_capacity(256),
            sched: vec![0; tape.num_positions().div_ceil(64)],
            sched_dirty: false,
        }
    }

    /// Loads one block's good values, one word per tape position. Call
    /// once per (worker, block); the undo at every injection keeps the
    /// values synced to the block from then on.
    pub(crate) fn load(&mut self, good: impl IntoIterator<Item = [u64; N]>) {
        self.cur.clear();
        self.cur.extend(good);
        self.changed.clear();
    }

    /// Undoes the last injection's changes and clears a frontier that a
    /// panic abandoned.
    fn undo(&mut self) {
        for &(pos, good) in self.changed.iter().rev() {
            self.cur[pos as usize] = good;
        }
        self.changed.clear();
        if self.sched_dirty {
            self.sched.fill(0);
            self.sched_dirty = false;
        }
    }

    #[inline]
    fn set(&mut self, pos: usize, w: [u64; N]) {
        self.changed.push((pos as u32, self.cur[pos]));
        self.cur[pos] = w;
    }

    /// Injects `defect` into the loaded block and propagates it: bit `k`
    /// of lane `l` of the returned detect word is set when pattern
    /// `64*l + k`, live in `mask`, changes a PO or a captured D pin. Also
    /// returns the number of faulty gate evaluations.
    ///
    /// A stem fault forces its net; a pin fault re-evaluates its gate
    /// with the pin forced (on a flop or PO marker it is observed
    /// directly in the captured value); a bridge sets both nets to the
    /// values its model computes from their good values, even one that
    /// keeps its good value, because a net inside the other net's cone
    /// keeps the static bridged value instead of being re-evaluated.
    pub(crate) fn detect(&mut self, defect: Defect, mask: [u64; N]) -> ([u64; N], u64) {
        self.undo();
        let tape = self.tape;
        let mut evals = 0u64;
        // The one position the sweep must not re-evaluate: the higher
        // root of a bridge, which the other root's events can reach. A
        // single root sits below all of its fanout cone.
        let mut hold = usize::MAX;
        match defect {
            Defect::StuckAt(fault) => {
                let forced = [if fault.kind.stuck_value() { !0 } else { 0 }; N];
                // Activation: the site must differ from its good value
                // somewhere.
                let site = tape.site_position(fault.site);
                if is_zero(&diff(&self.cur[site], &forced, &mask)) {
                    return ([0; N], 0);
                }
                let gate = tape.pos_of[fault.site.gate.index()] as usize;
                match fault.site.pin {
                    None => self.set(gate, forced),
                    Some(_) if matches!(tape.kinds[gate], GateKind::Dff | GateKind::Output) => {
                        return (diff(&self.cur[site], &forced, &mask), 0);
                    }
                    Some(pin) => {
                        let pin = pin as usize;
                        evals += 1;
                        let val = eval_gate(tape.nodes[gate], tape.fanin_range(gate), |k, f| {
                            if k == pin {
                                forced
                            } else {
                                self.cur[f as usize]
                            }
                        });
                        if is_zero(&diff(&val, &self.cur[gate], &mask)) {
                            return ([0; N], evals);
                        }
                        self.set(gate, val);
                    }
                }
            }
            Defect::Bridge(bridge) => {
                let (pa, pb) = (tape.position(bridge.a), tape.position(bridge.b));
                let (va, vb) = (self.cur[pa], self.cur[pb]);
                let (mut fa, mut fb) = ([0; N], [0; N]);
                for l in 0..N {
                    (fa[l], fb[l]) = bridge.faulty_words(va[l], vb[l]);
                }
                let excited: [u64; N] = std::array::from_fn(|l| (fa[l] ^ va[l]) | (fb[l] ^ vb[l]));
                if is_zero(&diff(&excited, &[0; N], &mask)) {
                    return ([0; N], 0);
                }
                self.set(pa, fa);
                self.set(pb, fb);
                hold = pa.max(pb);
            }
        }
        let (det, e) = self.propagate(&mask, hold);
        (det, evals + e)
    }

    /// Position-ordered event propagation from the injected roots (the
    /// positions `changed` holds), with detection folded in.
    ///
    /// The frontier is a position-indexed bitset: positions are
    /// level-sorted and fanouts point strictly forward, so consuming set
    /// bits in increasing position order visits each gate exactly once,
    /// after all of its changed fanins are final. Scheduling is one
    /// idempotent OR (multi-fanin convergence needs no dedup array), and
    /// a finished sweep leaves the bitset zeroed. An event dies where the
    /// recomputed value matches the good value on every live pattern. A
    /// gate changes at most once per injection, so OR-ing the difference
    /// of observable positions as they change equals a post-hoc scan of
    /// the sinks: PO markers observe their own value, and any changed net
    /// feeding a sink flop's D pin is captured.
    fn propagate(&mut self, mask: &[u64; N], hold: usize) -> ([u64; N], u64) {
        let tape = self.tape;
        let mut evals = 0u64;
        let mut det = [0; N];
        self.sched_dirty = true;
        // `pending` counts bits set but not yet consumed, so the sweep
        // stops the moment the frontier drains instead of scanning the
        // zero tail of the bitset (events usually die far from the end of
        // the tape).
        let mut pending = 0u32;
        let mut w = usize::MAX;
        for i in 0..self.changed.len() {
            let (root, good) = self.changed[i];
            let root = root as usize;
            w = w.min(root >> 6);
            if tape.nodes[root].observable {
                let d = diff(&self.cur[root], &good, mask);
                det = std::array::from_fn(|l| det[l] | d[l]);
            }
            for &fo in tape.fanout_range(root) {
                let wi = (fo >> 6) as usize;
                let m = 1u64 << (fo & 63);
                pending += (self.sched[wi] & m == 0) as u32;
                self.sched[wi] |= m;
            }
        }
        while pending > 0 {
            // Re-read the word every iteration: a consumed gate may
            // schedule fanouts into its own word (always above the bit
            // just cleared, so the scan never moves backwards, and never
            // below `w`, so `pending > 0` guarantees a bit at or above
            // `w` exists).
            let bits = self.sched[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.sched[w] = bits & (bits - 1);
            pending -= 1;
            let pos = (w << 6) | bits.trailing_zeros() as usize;
            if pos == hold {
                continue;
            }
            // All hot per-position metadata comes from two adjacent
            // packed records. `cur` holds this injection's faulty values
            // on the positions it changed and good values everywhere
            // else, including `pos` itself until it changes.
            let nd = tape.nodes[pos];
            let nx = tape.nodes[pos + 1];
            let fr = &tape.fanins[nd.fanin_start as usize..nx.fanin_start as usize];
            evals += 1;
            let val = eval_gate(nd, fr, |_, f| self.cur[f as usize]);
            let good = self.cur[pos];
            let d = diff(&val, &good, mask);
            if is_zero(&d) {
                continue; // event died here
            }
            self.changed.push((pos as u32, good));
            self.cur[pos] = val;
            if nd.observable {
                det = std::array::from_fn(|l| det[l] | d[l]);
            }
            for &fo in &tape.fanouts[nd.fanout_start as usize..nx.fanout_start as usize] {
                let wi = (fo >> 6) as usize;
                let m = 1u64 << (fo & 63);
                pending += (self.sched[wi] & m == 0) as u32;
                self.sched[wi] |= m;
            }
        }
        self.sched_dirty = false;
        (det, evals)
    }
}

impl Sweep<'_, LANES> {
    /// The faulty machine's sink words for the loaded block with `defect`
    /// injected: [`GateTape::sink_words_wide`] of the faulty values, exact
    /// on every live pattern of `mask`.
    pub(crate) fn faulty_sink_words(&mut self, defect: Defect, mask: WideWord) -> Vec<WideWord> {
        self.detect(defect, mask);
        let tape = self.tape;
        let mut sinks = tape.sink_words_wide(&self.cur);
        // A stuck pin of a flop (or PO marker) changes only that sink's
        // capture; the net it reads keeps its good value.
        if let Defect::StuckAt(fault) = defect {
            let gate = tape.pos_of[fault.site.gate.index()];
            if fault.site.pin.is_some()
                && matches!(tape.kinds[gate as usize], GateKind::Dff | GateKind::Output)
            {
                let forced = [if fault.kind.stuck_value() { !0 } else { 0 }; LANES];
                for (sink, &p) in sinks.iter_mut().zip(&tape.sink_pos) {
                    if p == gate {
                        *sink = forced;
                    }
                }
            }
        }
        sinks
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
    fn gate_fold_matches_eval_bool() {
        // The op-mask fold is the tape's only gate function: on every
        // kind it evaluates and every input combination up to four pins,
        // each bit of a word equals `eval_bool` (bit k of pin i is bit i
        // of k, so one word covers every combination).
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
            GateKind::Output,
            GateKind::Dff,
            GateKind::Mux2,
            GateKind::Const0,
            GateKind::Const1,
        ];
        for kind in kinds {
            let (op, inv) = Node::classify(kind);
            let nd = Node {
                fanin_start: 0,
                fanout_start: 0,
                kind,
                observable: false,
                op,
                inv,
            };
            let arities = match kind.arity() {
                Some(n) => n..=n,
                None => 1..=4,
            };
            for pins in arities {
                let fanins: Vec<u32> = (0..pins as u32).collect();
                let word = |pin: u32| -> u64 { (0..64).map(|k| (k >> pin & 1) << k).sum() };
                let got: [u64; 1] = eval_gate(nd, &fanins, |_, f| [word(f)]);
                for k in 0..1u64 << pins {
                    let ins: Vec<bool> = (0..pins).map(|i| k >> i & 1 == 1).collect();
                    let want = kind.eval_bool(&ins);
                    assert_eq!(got[0] >> k & 1 == 1, want, "{kind:?} inputs {ins:?}");
                }
            }
        }
    }

    #[test]
    fn wide_detect_words_match_scalar_lanes() {
        // The sweep at its two widths computes one detect word: the wide
        // word, lane for lane, equals the one-lane word of the same
        // 64-pattern block.
        for nl in [c17(), ripple_adder(6), counter(5), mac_pe(3)] {
            let tape = GateTape::compile(&nl);
            let ps = PatternSet::random(&nl, 200, 23);
            let mut wide = Sweep::<LANES>::new(&tape);
            let mut lane = Sweep::<1>::new(&tape);
            let mut vals = Vec::new();
            for start in (0..ps.len()).step_by(WIDE_PATTERNS) {
                let (src, count) = GateTape::pack_wide(&ps, start);
                tape.eval_wide(&src, &mut vals);
                let mask = GateTape::wide_mask(count);
                wide.load(vals.iter().copied());
                for l in 0..count.div_ceil(64) {
                    lane.load(vals.iter().map(|w| [w[l]]));
                    for fault in universe_stuck_at(&nl) {
                        let (word, _) = wide.detect(fault.into(), mask);
                        let (scalar, _) = lane.detect(fault.into(), [mask[l]]);
                        assert_eq!(word[l], scalar[0], "{} fault {fault} lane {l}", nl.name());
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
