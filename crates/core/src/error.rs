//! Typed errors for the flow facade and the `aidft` CLI.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use dft_atpg::{AtpgError, AtpgInterrupt};
use dft_checkpoint::CkptError;
use dft_diagnosis::JsonError;
use dft_netlist::NetlistError;
use dft_serve::ServeError;

/// How far an interrupted command got: what an operator needs to decide
/// whether to resume, and where the checkpoint is. The *resumable
/// state itself* lives in the checkpoint journal, not here — an
/// interrupted run's partial patterns are never trusted.
#[derive(Debug)]
pub enum Progress {
    /// An `atpg` or `flow` run: the ATPG engine's own account of where
    /// it stopped.
    Atpg(AtpgInterrupt),
    /// A `serve` fleet: `done` of its `dies` have a journaled verdict.
    Serve {
        /// Journal holding the recorded dies, when checkpointing was on.
        checkpoint: Option<PathBuf>,
        /// Dies with a recorded verdict.
        done: usize,
        /// Fleet size.
        dies: usize,
    },
}

impl Progress {
    /// The journal a resume continues from, when one was written.
    pub fn checkpoint(&self) -> Option<&Path> {
        match self {
            Progress::Atpg(i) => i.checkpoint.as_deref(),
            Progress::Serve { checkpoint, .. } => checkpoint.as_deref(),
        }
    }
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
    /// A durable command was interrupted (signal or phase deadline) and
    /// drained cleanly. When [`Progress::checkpoint`] is set, the
    /// journal holds a complete resume record and `aidft --resume
    /// <path>` reproduces the uninterrupted result bit-identically.
    Interrupted {
        /// The command and design that stopped, e.g. `atpg mac4`.
        context: String,
        /// How far it got.
        progress: Progress,
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

    /// Lifts an ATPG durability error, attaching the command and
    /// design the ATPG interrupt does not carry (`context`, e.g.
    /// `atpg mac4`): an interrupt becomes [`DftError::Interrupted`], a
    /// refused resume [`DftError::Checkpoint`].
    pub fn atpg(context: impl Into<String>, e: AtpgError) -> DftError {
        match e {
            AtpgError::Interrupted(i) => DftError::Interrupted {
                context: context.into(),
                progress: Progress::Atpg(i),
            },
            AtpgError::Resume(e) => e.into(),
        }
    }

    /// Lifts a fleet error of `aidft serve` on `design`: an interrupted
    /// fleet becomes [`DftError::Interrupted`] counting its dies, a
    /// refused resume [`DftError::Checkpoint`].
    pub fn serve(design: &str, e: ServeError) -> DftError {
        let context = format!("serve {design}");
        match e {
            ServeError::Interrupted {
                checkpoint,
                done,
                dies,
            } => DftError::Interrupted {
                context,
                progress: Progress::Serve {
                    checkpoint,
                    done,
                    dies,
                },
            },
            ServeError::Checkpoint(e) => e.into(),
            ServeError::Io(e) => DftError::io(context, e),
            ServeError::Client(msg) => DftError::die_client(context, msg),
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
            DftError::Interrupted { context, progress } => {
                match progress {
                    Progress::Atpg(i) => write!(f, "{context} {i}")?,
                    Progress::Serve { done, dies, .. } => write!(
                        f,
                        "{context} interrupted (cancelled): {done}/{dies} dies recorded"
                    )?,
                }
                match progress.checkpoint() {
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
        let interrupt = |checkpoint: Option<&str>, deadline| AtpgInterrupt {
            checkpoint: checkpoint.map(PathBuf::from),
            deadline,
            patterns: 12,
            detected: 90,
            total_faults: 120,
            phase: "topoff",
        };
        let e = DftError::atpg(
            "atpg mac4",
            AtpgError::Interrupted(interrupt(Some("/tmp/mac4.ckpt"), false)),
        );
        assert_eq!(
            e.to_string(),
            "atpg mac4 interrupted in topoff phase (cancelled): 90/120 faults detected, \
             12 patterns; resume with --resume /tmp/mac4.ckpt"
        );
        let e = DftError::atpg("flow mac4", AtpgError::Interrupted(interrupt(None, true)));
        let msg = e.to_string();
        assert!(msg.starts_with("flow mac4 interrupted"), "{msg}");
        assert!(msg.contains("phase deadline"), "{msg}");
        assert!(msg.contains("no checkpoint written"), "{msg}");
    }

    /// A fleet counts dies, not faults and patterns.
    #[test]
    fn an_interrupted_fleet_counts_its_dies() {
        let e = DftError::serve(
            "mac4",
            ServeError::Interrupted {
                checkpoint: Some(PathBuf::from("s.ckpt")),
                done: 17182,
                dies: 200_000,
            },
        );
        assert_eq!(
            e.to_string(),
            "serve mac4 interrupted (cancelled): 17182/200000 dies recorded; \
             resume with --resume s.ckpt"
        );
        let DftError::Interrupted { progress, .. } = &e else {
            panic!("{e:?}");
        };
        assert_eq!(progress.checkpoint(), Some(Path::new("s.ckpt")));
    }

    #[test]
    fn checkpoint_errors_chain_their_source() {
        use std::error::Error;
        let e: DftError = CkptError::NoValidRecord {
            path: "x.ckpt".to_owned(),
            format: "aidft-serve-v3",
        }
        .into();
        assert_eq!(
            e.to_string(),
            "cannot resume: x.ckpt: no complete aidft-serve-v3 record"
        );
        assert!(e.to_string().starts_with("cannot resume:"));
        assert!(e.source().is_some());
    }
}
