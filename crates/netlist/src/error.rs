//! Error type for netlist construction and I/O.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating or parsing netlists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate was created with the wrong number of fanins for its kind.
    BadArity {
        /// The net the gate drives.
        net: String,
        /// The offending gate kind name.
        kind: &'static str,
        /// Fanins the kind requires.
        expected: usize,
        /// Fanins provided.
        got: usize,
    },
    /// A net name was used twice.
    DuplicateName(String),
    /// A referenced net name was never defined.
    UndefinedNet(String),
    /// The combinational view contains a cycle through the named gate.
    CombinationalLoop(String),
    /// A `.bench` file line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An unknown gate type name appeared in a `.bench` file.
    UnknownGateType {
        /// 1-based line number.
        line: usize,
        /// The unknown type token.
        name: String,
    },
    /// A `.bench` file could not be opened or read. Carries the path and
    /// the rendered cause (the error type is `Clone + Eq`, so the raw
    /// `io::Error` is flattened to text).
    Io {
        /// The path that failed to open.
        path: String,
        /// The underlying I/O error, rendered.
        message: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::BadArity {
                net,
                kind,
                expected,
                got,
            } => write!(
                f,
                "gate `{net}`: kind {kind} requires {expected} fanins, got {got}"
            ),
            NetlistError::DuplicateName(n) => write!(f, "duplicate net name `{n}`"),
            NetlistError::UndefinedNet(n) => write!(f, "undefined net `{n}`"),
            NetlistError::CombinationalLoop(n) => {
                write!(f, "combinational loop through gate `{n}`")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::UnknownGateType { line, name } => {
                write!(f, "unknown gate type `{name}` at line {line}")
            }
            NetlistError::Io { path, message } => write!(f, "read {path}: {message}"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetlistError::BadArity {
            net: "y".into(),
            kind: "NOT",
            expected: 1,
            got: 2,
        };
        assert_eq!(e.to_string(), "gate `y`: kind NOT requires 1 fanins, got 2");
        let e = NetlistError::Parse {
            line: 3,
            message: "missing `=`".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
