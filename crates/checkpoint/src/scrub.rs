//! The scrub-index sidecar: a cheap manifest of what a journal is
//! *supposed* to contain.
//!
//! Every successful journal append also appends one line to
//! `<journal>.scrub`:
//!
//! ```text
//! scrub <seq> <len> <crc16hex>
//! ```
//!
//! recording the record's seq, byte length, and the checksum from its
//! `end` trailer ([`crate::fnv1a`]: FNV-1a in form, multiplier
//! `0x1000_0000_01B3`). The sidecar is advisory — journal recovery
//! never needs it — but `aidft fsck` cross-checks it to tell *silent*
//! damage (a record present in the index but failing its checksum on
//! disk, or missing entirely) from records that simply were never
//! written. Sidecar writes are best-effort: a full disk must never
//! fail the journal append that just succeeded.

use std::io::Write;
use std::path::{Path, PathBuf};

/// One scrub-index line: the expected identity of a journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubEntry {
    /// Record seq from the `ckpt` header.
    pub seq: u64,
    /// Full framed record length in bytes (header through trailer).
    pub len: u64,
    /// Checksum from the record's `end` trailer ([`crate::fnv1a`]).
    pub crc: u64,
}

impl ScrubEntry {
    /// Renders the sidecar line (no trailing newline).
    pub fn to_line(&self) -> String {
        format!("scrub {} {} {:016x}", self.seq, self.len, self.crc)
    }

    /// Parses one sidecar line; `None` on any malformation (a damaged
    /// sidecar line is skipped, never fatal — the sidecar is advisory).
    pub fn parse_line(line: &str) -> Option<ScrubEntry> {
        let mut f = line.split_whitespace();
        if f.next()? != "scrub" {
            return None;
        }
        let entry = ScrubEntry {
            seq: f.next()?.parse().ok()?,
            len: f.next()?.parse().ok()?,
            crc: u64::from_str_radix(f.next()?, 16).ok()?,
        };
        f.next().is_none().then_some(entry)
    }

    /// Builds the entry for a fully-framed record (header through
    /// `end <crc>` trailer), reading the checksum out of the trailer.
    pub fn for_record(seq: u64, record: &str) -> Option<ScrubEntry> {
        let trailer = record.lines().next_back()?;
        let crc = u64::from_str_radix(trailer.strip_prefix("end ")?.trim(), 16).ok()?;
        Some(ScrubEntry {
            seq,
            len: record.len() as u64,
            crc,
        })
    }
}

/// The sidecar path for a journal: `<journal>.scrub`.
pub fn scrub_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".scrub");
    PathBuf::from(os)
}

/// Best-effort append of one entry to the journal's sidecar. Errors
/// are swallowed by design: the journal append already succeeded and
/// the sidecar must never turn that into a failure.
pub fn note_append(journal: &Path, entry: &ScrubEntry) {
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(scrub_path(journal))?;
        writeln!(f, "{}", entry.to_line())
    };
    let _ = write();
}

/// Reads the journal's scrub index, skipping damaged lines. A missing
/// sidecar is an empty index, not an error.
pub fn read_index(journal: &Path) -> Vec<ScrubEntry> {
    match std::fs::read(scrub_path(journal)) {
        Ok(bytes) => String::from_utf8_lossy(&bytes)
            .lines()
            .filter_map(ScrubEntry::parse_line)
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// Rewrites the sidecar to exactly `entries` (used by `fsck --repair`
/// after truncating a journal to its intact records).
pub fn rewrite_index(journal: &Path, entries: &[ScrubEntry]) -> std::io::Result<()> {
    let mut text = String::new();
    for e in entries {
        text.push_str(&e.to_line());
        text.push('\n');
    }
    std::fs::write(scrub_path(journal), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_roundtrip_and_record_extraction() {
        let e = ScrubEntry {
            seq: 7,
            len: 42,
            crc: 0xDEAD_BEEF,
        };
        assert_eq!(ScrubEntry::parse_line(&e.to_line()), Some(e));
        assert!(ScrubEntry::parse_line("scrub 1 2").is_none());
        assert!(ScrubEntry::parse_line("other 1 2 3").is_none());

        let record = crate::frame_record("test-v1", 3, "body\n");
        let e = ScrubEntry::for_record(3, &record).unwrap();
        assert_eq!(e.seq, 3);
        assert_eq!(e.len, record.len() as u64);
        let trailer = record.lines().next_back().unwrap();
        assert_eq!(format!("end {:016x}", e.crc), trailer);
    }

    #[test]
    fn sidecar_appends_and_survives_damage() {
        let dir = std::env::temp_dir().join(format!("aidft-scrub-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("scrubbed.ckpt");
        let _ = std::fs::remove_file(scrub_path(&journal));

        assert!(read_index(&journal).is_empty());
        let a = ScrubEntry {
            seq: 0,
            len: 10,
            crc: 1,
        };
        let b = ScrubEntry {
            seq: 1,
            len: 20,
            crc: 2,
        };
        note_append(&journal, &a);
        note_append(&journal, &b);
        assert_eq!(read_index(&journal), vec![a, b]);

        // A torn sidecar line is skipped, not fatal.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(scrub_path(&journal))
            .unwrap();
        f.write_all(b"scrub 2 3").unwrap();
        drop(f);
        assert_eq!(read_index(&journal), vec![a, b]);
        std::fs::remove_file(scrub_path(&journal)).unwrap();
    }
}
