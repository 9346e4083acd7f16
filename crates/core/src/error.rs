//! Typed errors for the flow facade and the `aidft` CLI.

use std::fmt;
use std::io;
use std::path::PathBuf;

use dft_atpg::AtpgError;
use dft_checkpoint::CkptError;
use dft_diagnosis::JsonError;
use dft_netlist::NetlistError;

/// What a durable flow had accomplished when it was interrupted: the
/// progress counters an operator needs to decide whether to resume.
/// The *resumable state itself* lives in the checkpoint journal, not
/// here — an interrupted run's partial patterns are never trusted.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// Design name.
    pub design: String,
    /// The phase the interrupt landed in (`random`, `topoff`,
    /// `signoff`).
    pub phase: &'static str,
    /// Patterns accumulated so far.
    pub patterns: usize,
    /// Detected faults so far (collapsed).
    pub detected: usize,
    /// Total collapsed faults targeted.
    pub total_faults: usize,
    /// `true` when a phase deadline (not a signal) fired the token.
    pub deadline: bool,
}

/// Everything that can go wrong driving the toolkit from the outside:
/// file I/O, `.bench` parsing, failure-log parsing, bad arguments, a
/// failed test-floor client, interrupts and unusable checkpoints.
///
/// The [`fmt::Display`] impl renders exactly the operator-facing message
/// (`read <path>: ...`, `parse <path>: ...`), so CLI output is stable
/// across the `Result<(), String>` → `DftError` migration.
///
/// Marked `#[non_exhaustive]`: the hardened engines keep growing new
/// recoverable failure classes, so downstream matches must carry a
/// wildcard arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum DftError {
    /// A file read or write failed. `context` names the operation and
    /// target, e.g. `read designs/mac4.bench`.
    Io {
        /// Operation and target, prefix of the rendered message.
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A `.bench` netlist failed to parse. `context` names the source,
    /// e.g. `parse designs/mac4.bench`.
    Netlist {
        /// Operation and target, prefix of the rendered message.
        context: String,
        /// The underlying netlist error.
        source: NetlistError,
    },
    /// A tester failure log failed to parse.
    FailLog(JsonError),
    /// The command line did not make sense.
    Usage(String),
    /// A test-floor die client hit a non-recoverable error and the
    /// fleet stopped. Carries the rendered message so operators can file
    /// the underlying bug.
    DieClient {
        /// What was running, e.g. `serve mac4`.
        context: String,
        /// The client's error rendered as text.
        message: String,
    },
    /// A durable flow was interrupted (signal or phase deadline) and
    /// drained cleanly. When `checkpoint` is set, the journal holds a
    /// complete resume record and `aidft --resume <path>` reproduces the
    /// uninterrupted result bit-identically.
    Interrupted {
        /// Journal holding a complete resume checkpoint, when one was
        /// written.
        checkpoint: Option<PathBuf>,
        /// Progress at the point of interruption.
        partial: Box<PartialResult>,
    },
    /// A resume checkpoint could not be used: the journal is missing,
    /// has no complete record, or belongs to a different design or
    /// configuration.
    Checkpoint(CkptError),
    /// An `aidft fsck` verdict: the journal holds zero intact records
    /// and cannot be repaired. Maps to CLI exit code 5 so tooling can
    /// tell "restore from a replica or rerun" apart from ordinary
    /// checkpoint trouble.
    CorruptJournal {
        /// The journal path.
        path: String,
    },
}

impl DftError {
    /// An I/O error with its operation context, e.g.
    /// `DftError::io(format!("read {path}"), err)`.
    pub fn io(context: impl Into<String>, source: io::Error) -> DftError {
        DftError::Io {
            context: context.into(),
            source,
        }
    }

    /// A netlist parse error with its source context.
    pub fn netlist(context: impl Into<String>, source: NetlistError) -> DftError {
        DftError::Netlist {
            context: context.into(),
            source,
        }
    }

    /// A usage error carrying the message shown to the operator.
    pub fn usage(message: impl Into<String>) -> DftError {
        DftError::Usage(message.into())
    }

    /// Lifts an ATPG durability error, attaching the design name the
    /// ATPG interrupt does not carry: an interrupt becomes
    /// [`DftError::Interrupted`], a refused resume
    /// [`DftError::Checkpoint`].
    pub fn atpg(design: &str, e: AtpgError) -> DftError {
        match e {
            AtpgError::Interrupted(i) => DftError::Interrupted {
                checkpoint: i.checkpoint,
                partial: Box::new(PartialResult {
                    design: design.to_owned(),
                    phase: i.phase,
                    patterns: i.patterns,
                    detected: i.detected,
                    total_faults: i.total_faults,
                    deadline: i.deadline,
                }),
            },
            AtpgError::Resume(e) => e.into(),
        }
    }

    /// A failed die client with its operation context and error text.
    pub fn die_client(context: impl Into<String>, message: impl Into<String>) -> DftError {
        DftError::DieClient {
            context: context.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DftError::Io { context, source } => write!(f, "{context}: {source}"),
            DftError::Netlist { context, source } => write!(f, "{context}: {source}"),
            DftError::FailLog(e) => write!(f, "parse log: {e}"),
            DftError::Usage(msg) => write!(f, "{msg}"),
            DftError::DieClient { context, message } => {
                write!(f, "{context}: die client failed: {message}")
            }
            DftError::Interrupted {
                checkpoint,
                partial,
            } => {
                write!(
                    f,
                    "flow {} interrupted in {} phase ({}): {}/{} faults detected, {} patterns",
                    partial.design,
                    partial.phase,
                    if partial.deadline {
                        "phase deadline"
                    } else {
                        "cancelled"
                    },
                    partial.detected,
                    partial.total_faults,
                    partial.patterns
                )?;
                match checkpoint {
                    Some(path) => write!(f, "; resume with --resume {}", path.display()),
                    None => write!(f, "; no checkpoint written"),
                }
            }
            DftError::Checkpoint(e) => write!(f, "cannot resume: {e}"),
            DftError::CorruptJournal { path } => {
                write!(f, "{path}: corrupt beyond repair (no intact record)")
            }
        }
    }
}

impl std::error::Error for DftError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DftError::Io { source, .. } => Some(source),
            DftError::Netlist { source, .. } => Some(source),
            DftError::FailLog(e) => Some(e),
            DftError::Checkpoint(e) => Some(e),
            DftError::Usage(_)
            | DftError::DieClient { .. }
            | DftError::Interrupted { .. }
            | DftError::CorruptJournal { .. } => None,
        }
    }
}

impl From<CkptError> for DftError {
    fn from(e: CkptError) -> DftError {
        DftError::Checkpoint(e)
    }
}

impl From<JsonError> for DftError {
    fn from(e: JsonError) -> DftError {
        DftError::FailLog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_cli_conventions() {
        let e = DftError::io(
            "read x.bench",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        assert_eq!(e.to_string(), "read x.bench: gone");
        let e = DftError::usage("usage: aidft gen <name> <out.bench>");
        assert_eq!(e.to_string(), "usage: aidft gen <name> <out.bench>");
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e = DftError::io("write y", io::Error::other("disk"));
        assert!(e.source().is_some());
        assert!(DftError::usage("x").source().is_none());
    }

    #[test]
    fn recoverable_engine_faults_render_and_classify() {
        let e = DftError::die_client("serve mac4", "die 3: connection reset");
        assert!(matches!(e, DftError::DieClient { .. }));
        assert_eq!(
            e.to_string(),
            "serve mac4: die client failed: die 3: connection reset"
        );
    }

    #[test]
    fn interrupted_renders_progress_and_resume_hint() {
        let partial = PartialResult {
            design: "mac4".into(),
            phase: "topoff",
            patterns: 12,
            detected: 90,
            total_faults: 120,
            deadline: false,
        };
        let e = DftError::Interrupted {
            checkpoint: Some(PathBuf::from("/tmp/mac4.ckpt")),
            partial: Box::new(partial.clone()),
        };
        let msg = e.to_string();
        assert!(msg.contains("mac4"), "{msg}");
        assert!(msg.contains("topoff"), "{msg}");
        assert!(msg.contains("90/120"), "{msg}");
        assert!(msg.contains("--resume /tmp/mac4.ckpt"), "{msg}");

        let e = DftError::Interrupted {
            checkpoint: None,
            partial: Box::new(PartialResult {
                deadline: true,
                ..partial
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("phase deadline"), "{msg}");
        assert!(msg.contains("no checkpoint written"), "{msg}");
    }

    #[test]
    fn checkpoint_errors_chain_their_source() {
        use std::error::Error;
        let e: DftError = CkptError::NoValidRecord {
            path: "x.ckpt".to_owned(),
        }
        .into();
        assert!(e.to_string().starts_with("cannot resume:"));
        assert!(e.source().is_some());
    }
}
