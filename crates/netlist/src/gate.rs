//! Gate kinds and the [`Gate`] node stored in a [`crate::Netlist`].

use std::fmt;

/// Identifier of a gate (and, equivalently, of the net it drives).
///
/// `GateId`s are dense indices into the netlist's gate table, assigned in
/// creation order. They are stable for the lifetime of the netlist: gates are
/// never removed, only rewired (e.g. by scan insertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u32> for GateId {
    fn from(v: u32) -> Self {
        GateId(v)
    }
}

/// The function computed by a gate.
///
/// `Input` gates have no fanins. `Output` gates are one-input markers that
/// expose an internal net as a primary output. `Dff` gates have exactly one
/// fanin (the D pin); clocking is implicit because the toolkit uses the
/// standard full-scan combinational test model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Primary output marker (one fanin; output value equals the fanin).
    Output,
    /// Constant logic 0 (no fanins).
    Const0,
    /// Constant logic 1 (no fanins).
    Const1,
    /// Buffer (one fanin).
    Buf,
    /// Inverter (one fanin).
    Not,
    /// N-input AND.
    And,
    /// N-input NAND.
    Nand,
    /// N-input OR.
    Or,
    /// N-input NOR.
    Nor,
    /// N-input XOR (odd parity).
    Xor,
    /// N-input XNOR (even parity).
    Xnor,
    /// 2:1 multiplexer; fanins are `[sel, a, b]`, output is `a` when
    /// `sel == 0` and `b` when `sel == 1`.
    Mux2,
    /// D flip-flop (one fanin: the D pin). Output is the Q pin.
    Dff,
}

impl GateKind {
    /// Returns `true` for gate kinds whose output inverts the "controlled"
    /// response (NAND, NOR, XNOR, NOT).
    #[inline]
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// Controlling value of the gate, if it has one.
    ///
    /// A controlling value on any input determines the output regardless of
    /// the other inputs (0 for AND/NAND, 1 for OR/NOR). XOR-family gates and
    /// single-input gates have no controlling value.
    #[inline]
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// The output produced when a controlling value is present, i.e. the
    /// "controlled response". `None` when the gate has no controlling value.
    #[inline]
    pub fn controlled_response(self) -> Option<bool> {
        match self {
            GateKind::And => Some(false),
            GateKind::Nand => Some(true),
            GateKind::Or => Some(true),
            GateKind::Nor => Some(false),
            _ => None,
        }
    }

    /// Returns `true` if this kind is a state element.
    #[inline]
    pub fn is_dff(self) -> bool {
        matches!(self, GateKind::Dff)
    }

    /// Returns `true` if this kind is combinational logic (not an input,
    /// output marker, constant or flip-flop).
    #[inline]
    pub fn is_logic(self) -> bool {
        !matches!(
            self,
            GateKind::Input
                | GateKind::Output
                | GateKind::Dff
                | GateKind::Const0
                | GateKind::Const1
        )
    }

    /// Number of fanins this kind requires, or `None` for variadic kinds.
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Output | GateKind::Buf | GateKind::Not | GateKind::Dff => Some(1),
            GateKind::Mux2 => Some(3),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => None,
        }
    }

    /// Canonical lowercase name used by the `.bench` writer.
    pub fn bench_name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Output => "OUTPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux2 => "MUX",
            GateKind::Dff => "DFF",
        }
    }

    /// Evaluates the gate over plain boolean fanin values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for a variadic kind, or if called on
    /// `Input`/`Const*` kinds (which have no inputs to evaluate — use the
    /// simulator's source handling instead).
    pub fn eval_bool(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::Input => panic!("eval_bool on Input gate"),
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Output | GateKind::Buf | GateKind::Dff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |acc, &b| acc ^ b),
            GateKind::Mux2 => {
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Evaluates the gate over 64 patterns in parallel (one per bit).
    ///
    /// `Input`/`Const*` handling mirrors [`GateKind::eval_bool`].
    pub fn eval_word(self, inputs: &[u64]) -> u64 {
        match self {
            GateKind::Input => panic!("eval_word on Input gate"),
            GateKind::Const0 => 0,
            GateKind::Const1 => !0,
            GateKind::Output | GateKind::Buf | GateKind::Dff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Nand => !inputs.iter().fold(!0u64, |acc, &w| acc & w),
            GateKind::Or => inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Nor => !inputs.iter().fold(0u64, |acc, &w| acc | w),
            GateKind::Xor => inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Xnor => !inputs.iter().fold(0u64, |acc, &w| acc ^ w),
            GateKind::Mux2 => (!inputs[0] & inputs[1]) | (inputs[0] & inputs[2]),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.bench_name())
    }
}

/// A node of the netlist graph: one gate and the single net it drives.
#[derive(Debug, Clone)]
pub struct Gate {
    /// The function this gate computes.
    pub kind: GateKind,
    /// Driver gates of this gate's input pins, in pin order.
    pub fanins: Vec<GateId>,
    /// Gates that read this gate's output. Maintained by [`crate::Netlist`].
    pub fanouts: Vec<GateId>,
    /// Human-readable net name (unique within a netlist).
    pub name: String,
}

impl Gate {
    /// Number of reader gates.
    #[inline]
    pub fn num_fanouts(&self) -> usize {
        self.fanouts.len()
    }

    /// Returns `true` if the net driven by this gate branches (fans out to
    /// more than one reader) — i.e. it is a fanout stem.
    #[inline]
    pub fn is_stem(&self) -> bool {
        self.fanouts.len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Not.controlling_value(), None);
    }

    #[test]
    fn controlled_responses_match_truth_tables() {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor] {
            let cv = kind.controlling_value().unwrap();
            let resp = kind.controlled_response().unwrap();
            // With one input at the controlling value the output must be the
            // controlled response regardless of the other input.
            for other in [false, true] {
                assert_eq!(kind.eval_bool(&[cv, other]), resp, "{kind:?}");
                assert_eq!(kind.eval_bool(&[other, cv]), resp, "{kind:?}");
            }
        }
    }

    #[test]
    fn eval_bool_two_input_truth_tables() {
        let cases: [(GateKind, [bool; 4]); 6] = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let a = (i & 1) != 0;
                let b = (i & 2) != 0;
                assert_eq!(kind.eval_bool(&[a, b]), e, "{kind:?}({a},{b})");
            }
        }
    }

    #[test]
    fn eval_word_matches_eval_bool() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ];
        for kind in kinds {
            for pat in 0..8u64 {
                let bits = [(pat & 1) != 0, (pat & 2) != 0, (pat & 4) != 0];
                let words = [
                    if bits[0] { !0 } else { 0 },
                    if bits[1] { !0 } else { 0 },
                    if bits[2] { !0 } else { 0 },
                ];
                let wb = kind.eval_word(&words);
                let bb = kind.eval_bool(&bits);
                assert_eq!(wb == !0, bb, "{kind:?} pattern {pat}");
                assert!(wb == 0 || wb == !0);
            }
        }
    }

    #[test]
    fn mux_truth_table() {
        // fanins are [sel, a, b]
        assert!(!GateKind::Mux2.eval_bool(&[false, false, true]));
        assert!(GateKind::Mux2.eval_bool(&[false, true, false]));
        assert!(GateKind::Mux2.eval_bool(&[true, false, true]));
        assert!(!GateKind::Mux2.eval_bool(&[true, true, false]));
        assert_eq!(GateKind::Mux2.eval_word(&[0, 0xff, 0xf0f0]), 0xff);
        assert_eq!(GateKind::Mux2.eval_word(&[!0, 0xff, 0xf0f0]), 0xf0f0);
    }

    #[test]
    fn xor_is_odd_parity_for_wide_gates() {
        assert!(GateKind::Xor.eval_bool(&[true, true, true]));
        assert!(!GateKind::Xor.eval_bool(&[true, true, true, true]));
        assert!(GateKind::Xnor.eval_bool(&[true, true, true, true]));
    }

    #[test]
    fn arity_constraints() {
        assert_eq!(GateKind::Input.arity(), Some(0));
        assert_eq!(GateKind::Not.arity(), Some(1));
        assert_eq!(GateKind::Mux2.arity(), Some(3));
        assert_eq!(GateKind::And.arity(), None);
    }

    #[test]
    fn gate_id_display_and_index() {
        let id = GateId(42);
        assert_eq!(id.to_string(), "g42");
        assert_eq!(id.index(), 42);
        assert_eq!(GateId::from(7u32), GateId(7));
    }
}
