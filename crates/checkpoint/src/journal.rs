//! What every journal format shares: the [`fnv1a`] checksum, the
//! [`CkptError`] a load or resume fails with, and the run-identity check
//! ([`verify_identity`]). The record bodies are not here: each producer
//! owns its codec (`dft-atpg` the `aidft-ckpt-v3` checkpoint, `dft-serve`
//! the `aidft-serve-v3` fleet journal, `dft-telemetry` the
//! `aidft-telemetry-v1` event stream).

use std::fmt;
use std::io;

/// The toolkit's 64-bit checksum and fingerprint hash (also used by
/// callers to fingerprint their configuration into each record's
/// `config` line).
///
/// It is FNV-1a in form — FNV-64's offset basis `0xcbf2_9ce4_8422_2325`,
/// then per byte xor, then multiply — but its multiplier is
/// `0x1000_0000_01B3` (2^44 + 0x1b3), not the FNV-64 prime
/// `0x100_0000_01B3` (2^40 + 0x1b3), so its values are not standard
/// FNV-1a: `fnv1a(b"a")` is `0xaf74_d84c_8601_ec8c`, where FNV-1a gives
/// `0xaf63_dc4c_8601_ec8c`. Every journal record trailer, scrub entry,
/// config fingerprint and `aidft-wire-v1` frame checksum carries this
/// value, so changing the multiplier is a format change.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Why a journal could not produce a checkpoint.
#[derive(Debug)]
pub enum CkptError {
    /// The journal file could not be read.
    Io {
        /// Journal path.
        path: String,
        /// Underlying error.
        source: io::Error,
    },
    /// The file holds no complete, checksum-valid record.
    NoValidRecord {
        /// Journal path.
        path: String,
        /// The format the journal was opened with.
        format: &'static str,
    },
    /// The resuming run's identity does not match the record.
    Mismatch {
        /// Which field disagreed (`design` or `config`).
        what: &'static str,
        /// Value in the checkpoint.
        expected: String,
        /// Value of the resuming run.
        found: String,
    },
    /// The journal holds zero intact records and cannot be repaired —
    /// corrupt beyond repair (`aidft fsck` exit code 5).
    Corrupt {
        /// Journal path.
        path: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io { path, source } => write!(f, "read checkpoint {path}: {source}"),
            CkptError::NoValidRecord { path, format } => {
                write!(f, "{path}: no complete {format} record")
            }
            CkptError::Mismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {what} mismatch: checkpoint has `{expected}`, this run has `{found}`"
            ),
            CkptError::Corrupt { path } => {
                write!(f, "{path}: corrupt beyond repair (no intact record)")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Refuses a resume whose run identity differs from the checkpoint's:
/// `ckpt_design`/`ckpt_config` as recorded, `design`/`config` of the
/// resuming run. The one mismatch check every journal format shares —
/// resuming another design's or another configuration's record would
/// silently diverge from the original run.
pub fn verify_identity(
    ckpt_design: &str,
    ckpt_config: u64,
    design: &str,
    config: u64,
) -> Result<(), CkptError> {
    if ckpt_design != design {
        return Err(CkptError::Mismatch {
            what: "design",
            expected: ckpt_design.to_owned(),
            found: design.to_owned(),
        });
    }
    if ckpt_config != config {
        return Err(CkptError::Mismatch {
            what: "config",
            expected: format!("{ckpt_config:016x}"),
            found: format!("{config:016x}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        // The empty input is the FNV-64 offset basis; one byte shows the
        // multiplier 0x1000_0000_01B3 (standard FNV-1a of "a" is
        // 0xaf63dc4c8601ec8c).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }

    #[test]
    fn verify_checks_design_and_config() {
        let check = |design: &str, config: u64| {
            verify_identity("mac4", 0xDEAD_BEEF_0BAD_F00D, design, config)
        };
        assert!(check("mac4", 0xDEAD_BEEF_0BAD_F00D).is_ok());
        assert!(matches!(
            check("sys2x2", 0xDEAD_BEEF_0BAD_F00D),
            Err(CkptError::Mismatch { what: "design", .. })
        ));
        assert!(matches!(
            check("mac4", 1),
            Err(CkptError::Mismatch { what: "config", .. })
        ));
    }
}
