//! Five-valued logic (Roth's D-calculus) used by ATPG and the event-driven
//! simulator.

use std::fmt;
use std::ops::Not;

use crate::GateKind;

/// A value in Roth's five-valued algebra.
///
/// `D` means "1 in the good machine, 0 in the faulty machine"; `Dbar` is the
/// opposite. `X` is unknown/unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Logic 0 in both machines.
    Zero,
    /// Logic 1 in both machines.
    One,
    /// Unknown / unassigned.
    #[default]
    X,
    /// 1 in the good machine, 0 in the faulty machine.
    D,
    /// 0 in the good machine, 1 in the faulty machine.
    Dbar,
}

impl Logic {
    /// All five values, useful for exhaustive table tests.
    pub const ALL: [Logic; 5] = [Logic::Zero, Logic::One, Logic::X, Logic::D, Logic::Dbar];

    /// Converts a boolean to a known logic value.
    #[inline]
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// The good-machine component, or `None` for `X`.
    #[inline]
    pub fn good(self) -> Option<bool> {
        match self {
            Logic::Zero | Logic::Dbar => Some(false),
            Logic::One | Logic::D => Some(true),
            Logic::X => None,
        }
    }

    /// The faulty-machine component, or `None` for `X`.
    #[inline]
    pub fn faulty(self) -> Option<bool> {
        match self {
            Logic::Zero | Logic::D => Some(false),
            Logic::One | Logic::Dbar => Some(true),
            Logic::X => None,
        }
    }

    /// Builds a five-valued value from good/faulty components.
    #[inline]
    pub fn from_pair(good: Option<bool>, faulty: Option<bool>) -> Logic {
        match (good, faulty) {
            (Some(false), Some(false)) => Logic::Zero,
            (Some(true), Some(true)) => Logic::One,
            (Some(true), Some(false)) => Logic::D,
            (Some(false), Some(true)) => Logic::Dbar,
            _ => Logic::X,
        }
    }

    /// Returns `true` for `D` or `Dbar` (a propagating fault effect).
    #[inline]
    pub fn is_fault_effect(self) -> bool {
        matches!(self, Logic::D | Logic::Dbar)
    }

    /// Returns `true` for `0` or `1` (fully specified, no fault effect).
    #[inline]
    pub fn is_binary(self) -> bool {
        matches!(self, Logic::Zero | Logic::One)
    }

    /// Five-valued AND.
    pub fn and(self, rhs: Logic) -> Logic {
        Logic::from_pair(
            and3(self.good(), rhs.good()),
            and3(self.faulty(), rhs.faulty()),
        )
    }

    /// Five-valued OR.
    pub fn or(self, rhs: Logic) -> Logic {
        Logic::from_pair(
            or3(self.good(), rhs.good()),
            or3(self.faulty(), rhs.faulty()),
        )
    }

    /// Five-valued XOR.
    pub fn xor(self, rhs: Logic) -> Logic {
        Logic::from_pair(
            xor3(self.good(), rhs.good()),
            xor3(self.faulty(), rhs.faulty()),
        )
    }

    /// Evaluates `kind` over five-valued fanin values.
    ///
    /// # Panics
    ///
    /// Panics if called for [`GateKind::Input`] (inputs are sources, not
    /// functions of other nets).
    pub fn eval_gate(kind: GateKind, inputs: &[Logic]) -> Logic {
        match kind {
            GateKind::Input => panic!("eval_gate on Input"),
            GateKind::Const0 => Logic::Zero,
            GateKind::Const1 => Logic::One,
            GateKind::Output | GateKind::Buf | GateKind::Dff => inputs[0],
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().copied().fold(Logic::One, Logic::and),
            GateKind::Nand => !inputs.iter().copied().fold(Logic::One, Logic::and),
            GateKind::Or => inputs.iter().copied().fold(Logic::Zero, Logic::or),
            GateKind::Nor => !inputs.iter().copied().fold(Logic::Zero, Logic::or),
            GateKind::Xor => inputs.iter().copied().fold(Logic::Zero, Logic::xor),
            GateKind::Xnor => !inputs.iter().copied().fold(Logic::Zero, Logic::xor),
            GateKind::Mux2 => {
                let (s, a, b) = (inputs[0], inputs[1], inputs[2]);
                // out = (!s & a) | (s & b), evaluated in the 5-valued algebra.
                (!s).and(a).or(s.and(b))
            }
        }
    }
}

/// Three-valued AND over `Option<bool>` (None = X).
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued OR over `Option<bool>` (None = X).
fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Three-valued XOR over `Option<bool>` (None = X).
fn xor3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x ^ y),
        _ => None,
    }
}

impl Not for Logic {
    type Output = Logic;

    #[inline]
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
            Logic::D => Logic::Dbar,
            Logic::Dbar => Logic::D,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Logic::Zero => "0",
            Logic::One => "1",
            Logic::X => "X",
            Logic::D => "D",
            Logic::Dbar => "D'",
        };
        f.write_str(s)
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_is_involution() {
        for v in Logic::ALL {
            assert_eq!(!!v, v);
        }
    }

    #[test]
    fn d_calculus_and_table() {
        use Logic::*;
        assert_eq!(D.and(One), D);
        assert_eq!(D.and(Zero), Zero);
        assert_eq!(D.and(D), D);
        assert_eq!(D.and(Dbar), Zero); // good: 1&0=0, faulty: 0&1=0
        assert_eq!(D.and(X), X); // good: 1&X=X  -> X overall
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(X.and(X), X);
    }

    #[test]
    fn d_calculus_or_table() {
        use Logic::*;
        assert_eq!(D.or(Zero), D);
        assert_eq!(D.or(One), One);
        assert_eq!(D.or(Dbar), One);
        assert_eq!(D.or(D), D);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(X), X);
    }

    #[test]
    fn d_calculus_xor_table() {
        use Logic::*;
        assert_eq!(D.xor(Zero), D);
        assert_eq!(D.xor(One), Dbar);
        assert_eq!(D.xor(D), Zero);
        assert_eq!(D.xor(Dbar), One);
        assert_eq!(D.xor(X), X);
    }

    #[test]
    fn consistency_with_component_semantics() {
        // The 5-valued algebra is the componentwise 3-valued computation,
        // except that half-known pairs (one component known, the other X)
        // are not representable and conservatively collapse to X.
        fn check(result: Logic, g: Option<bool>, f: Option<bool>) {
            match (g, f) {
                (Some(_), Some(_)) => assert_eq!(result, Logic::from_pair(g, f)),
                _ => assert_eq!(result, Logic::X),
            }
        }
        for a in Logic::ALL {
            for b in Logic::ALL {
                check(
                    a.and(b),
                    and3(a.good(), b.good()),
                    and3(a.faulty(), b.faulty()),
                );
                check(
                    a.or(b),
                    or3(a.good(), b.good()),
                    or3(a.faulty(), b.faulty()),
                );
                check(
                    a.xor(b),
                    xor3(a.good(), b.good()),
                    xor3(a.faulty(), b.faulty()),
                );
            }
        }
    }

    #[test]
    fn eval_gate_mux() {
        use Logic::*;
        assert_eq!(Logic::eval_gate(GateKind::Mux2, &[Zero, D, One]), D);
        assert_eq!(Logic::eval_gate(GateKind::Mux2, &[One, D, One]), One);
        // Unknown select with differing data -> X
        assert_eq!(Logic::eval_gate(GateKind::Mux2, &[X, Zero, One]), X);
        // Unknown select with equal binary data: the gate-level AND/OR
        // expansion is conservative and yields X (a consensus-aware
        // evaluator would yield One; 5-valued ATPG accepts the pessimism).
        assert_eq!(Logic::eval_gate(GateKind::Mux2, &[X, One, One]), X);
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Logic::D.to_string(), "D");
        assert_eq!(Logic::Dbar.to_string(), "D'");
        assert_eq!(Logic::X.to_string(), "X");
    }
}
