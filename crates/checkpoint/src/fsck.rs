//! Journal integrity checking and repair — the library behind
//! `aidft fsck`.
//!
//! Works on any of the three framed formats (`aidft-ckpt-v3`,
//! `aidft-serve-v3`, `aidft-telemetry-v1`): the format id is
//! autodetected from the first `ckpt <format> <seq>` header, every
//! candidate record region gets a [`RecordVerdict`] (intact, checksum
//! failure, or torn framing), and the verdicts are cross-checked
//! against the scrub-index sidecar when one exists. [`repair`]
//! rewrites the journal as a clean copy holding exactly the intact
//! records (re-framed canonically, temp-file + rename so a crash
//! mid-repair never loses the original), or refuses with
//! [`CkptError::Corrupt`] when nothing intact survives — the CLI maps
//! that to exit code 5.

use std::fmt::Write as _;
use std::path::Path;

use crate::framed::{frame_record, parse_framed, read_text_lossy, record_regions, scan_all};
use crate::journal::CkptError;
use crate::scrub::{self, ScrubEntry};

/// What one candidate record region turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordStatus {
    /// Complete framing, checksum verified.
    Intact,
    /// Complete framing (`end <crc>` trailer present) but the checksum
    /// does not match — bit rot or in-place tampering.
    BadCrc,
    /// No complete trailer: a torn or short write.
    Torn,
}

impl RecordStatus {
    /// Short verdict token used in the rendered report.
    pub fn as_str(&self) -> &'static str {
        match self {
            RecordStatus::Intact => "intact",
            RecordStatus::BadCrc => "bad-crc",
            RecordStatus::Torn => "torn",
        }
    }
}

/// The verdict for one candidate record region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordVerdict {
    /// Region index in file order.
    pub index: usize,
    /// Seq from the header line, when it parsed.
    pub seq: Option<u64>,
    /// Byte offset of the region in the (lossily decoded) file.
    pub offset: usize,
    /// Region length in bytes.
    pub len: usize,
    /// The verdict.
    pub status: RecordStatus,
}

/// The full `fsck` result for one journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// The journal path.
    pub path: String,
    /// Autodetected format id, `None` when no header was found.
    pub format: Option<String>,
    /// Journal size in bytes.
    pub bytes: usize,
    /// Per-region verdicts, file order.
    pub records: Vec<RecordVerdict>,
    /// Scrub-index entries found in the sidecar.
    pub scrub_entries: usize,
    /// Scrub entries whose `(seq, crc)` matched an intact record.
    pub scrub_matched: usize,
    /// `true` when [`repair`] rewrote the file.
    pub repaired: bool,
}

impl FsckReport {
    /// Intact record count.
    pub fn intact(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.status == RecordStatus::Intact)
            .count()
    }

    /// Damaged (bad-crc or torn) record count.
    pub fn damaged(&self) -> usize {
        self.records.len() - self.intact()
    }

    /// Seq of the newest intact record, when any.
    pub fn newest_intact_seq(&self) -> Option<u64> {
        self.records
            .iter()
            .filter(|r| r.status == RecordStatus::Intact)
            .filter_map(|r| r.seq)
            .max()
    }

    /// `true` when every region is intact (an empty journal is clean —
    /// it simply has nothing to resume from).
    pub fn is_clean(&self) -> bool {
        self.damaged() == 0
    }

    /// Renders the line-oriented report (`fsck <path>` header, one
    /// `record` line per region, a `scrub` line when a sidecar exists,
    /// and the summary verdict line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fsck {} format={} bytes={}",
            self.path,
            self.format.as_deref().unwrap_or("unknown"),
            self.bytes
        );
        for r in &self.records {
            let _ = writeln!(
                out,
                "record {} seq={} offset={} len={} {}",
                r.index,
                r.seq.map_or_else(|| "?".to_owned(), |s| s.to_string()),
                r.offset,
                r.len,
                r.status.as_str()
            );
        }
        if self.scrub_entries > 0 {
            let _ = writeln!(
                out,
                "scrub entries={} matched={}",
                self.scrub_entries, self.scrub_matched
            );
        }
        let verdict = if self.records.is_empty() {
            "empty"
        } else if self.intact() == 0 {
            "corrupt-beyond-repair"
        } else if self.repaired {
            "repaired"
        } else if self.is_clean() {
            "clean"
        } else {
            "degraded"
        };
        let _ = writeln!(
            out,
            "summary intact={} damaged={} newest_seq={} verdict={}",
            self.intact(),
            self.damaged(),
            self.newest_intact_seq()
                .map_or_else(|| "-".to_owned(), |s| s.to_string()),
            verdict
        );
        out
    }
}

/// Autodetects the journal format from the first line-aligned
/// `ckpt <format> ` header in `text`.
fn detect_format(text: &str) -> Option<String> {
    let mut at = 0usize;
    while let Some(pos) = text[at..].find("ckpt ") {
        let abs = at + pos;
        if abs == 0 || text.as_bytes()[abs - 1] == b'\n' {
            let rest = &text[abs + 5..];
            let token: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
            if !token.is_empty() {
                return Some(token);
            }
        }
        at = abs + 5;
    }
    None
}

/// Classifies one region: intact if it parses, otherwise bad-crc when
/// a complete `end` trailer is present, torn when it is not.
fn classify(region: &str, format: &str) -> (Option<u64>, RecordStatus, Option<String>) {
    if let Some((seq, body)) = parse_framed(region, format) {
        return (Some(seq), RecordStatus::Intact, Some(body));
    }
    let seq = region
        .lines()
        .next()
        .and_then(|h| h.split_whitespace().nth(2))
        .and_then(|s| s.parse().ok());
    let has_trailer = region
        .rfind("\nend ")
        .and_then(|p| region[p + 1..].lines().next())
        .and_then(|l| l.strip_prefix("end "))
        .is_some_and(|hex| u64::from_str_radix(hex.trim(), 16).is_ok());
    let status = if has_trailer {
        RecordStatus::BadCrc
    } else {
        RecordStatus::Torn
    };
    (seq, status, None)
}

/// Scans the journal at `path` and returns the per-record verdicts.
/// Only an unreadable file is an error — a fully corrupt journal is a
/// report, and the caller decides whether zero intact records is
/// fatal.
pub fn scan(path: &Path) -> Result<FsckReport, CkptError> {
    let text = read_text_lossy(path).map_err(|e| CkptError::Io {
        path: path.display().to_string(),
        source: e,
    })?;
    let format = detect_format(&text);
    let mut records = Vec::new();
    let mut intact: Vec<(u64, String)> = Vec::new();
    if let Some(fmt) = &format {
        let header = format!("ckpt {fmt} ");
        for (i, &(start, end)) in record_regions(&text, &header).iter().enumerate() {
            let (seq, status, body) = classify(&text[start..end], fmt);
            if let (Some(s), Some(b)) = (seq, body) {
                intact.push((s, b));
            }
            records.push(RecordVerdict {
                index: i,
                seq,
                offset: start,
                len: end - start,
                status,
            });
        }
    }
    let scrub_index = scrub::read_index(path);
    let scrub_matched = scrub_index
        .iter()
        .filter(|e| {
            intact
                .iter()
                .any(|(s, b)| *s == e.seq && verify_scrub(e, format.as_deref(), *s, b))
        })
        .count();
    Ok(FsckReport {
        path: path.display().to_string(),
        format,
        bytes: text.len(),
        records,
        scrub_entries: scrub_index.len(),
        scrub_matched,
        repaired: false,
    })
}

/// `true` when re-framing `(seq, body)` reproduces the scrub entry's
/// length and checksum.
fn verify_scrub(entry: &ScrubEntry, format: Option<&str>, seq: u64, body: &str) -> bool {
    let Some(fmt) = format else { return false };
    let record = frame_record(fmt, seq, body);
    ScrubEntry::for_record(seq, &record).is_some_and(|e| e.len == entry.len && e.crc == entry.crc)
}

/// Repairs the journal at `path`: rewrites it as a clean copy holding
/// exactly the intact records, canonically re-framed, truncating any
/// torn or rotted regions, and regenerates the scrub-index sidecar to
/// match. The rewrite goes through a temp file and rename so a crash
/// mid-repair leaves the original untouched. A journal with zero
/// intact records is refused with [`CkptError::Corrupt`].
pub fn repair(path: &Path) -> Result<FsckReport, CkptError> {
    let before = scan(path)?;
    let Some(fmt) = before.format.clone() else {
        return Err(CkptError::Corrupt {
            path: path.display().to_string(),
        });
    };
    let text = read_text_lossy(path).map_err(|e| CkptError::Io {
        path: path.display().to_string(),
        source: e,
    })?;
    let mut clean = String::new();
    let mut entries = Vec::new();
    for (seq, body) in scan_all(&text, &fmt, |t| parse_framed(t, &fmt)) {
        let record = frame_record(&fmt, seq, &body);
        if let Some(e) = ScrubEntry::for_record(seq, &record) {
            entries.push(e);
        }
        clean.push_str(&record);
    }
    if entries.is_empty() {
        return Err(CkptError::Corrupt {
            path: path.display().to_string(),
        });
    }
    let io_err = |e: std::io::Error| CkptError::Io {
        path: path.display().to_string(),
        source: e,
    };
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".fsck-tmp");
        std::path::PathBuf::from(os)
    };
    std::fs::write(&tmp, &clean).map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)?;
    scrub::rewrite_index(path, &entries).map_err(io_err)?;
    let mut after = scan(path)?;
    after.repaired = true;
    Ok(after)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::FramedJournal;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aidft-fsck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(scrub::scrub_path(&p));
        p
    }

    #[test]
    fn clean_journal_scans_clean() {
        let j = FramedJournal::new(temp("clean.ckpt"), "test-v1");
        j.append(0, "a\n").unwrap();
        j.append(1, "b\n").unwrap();
        let r = scan(j.path()).unwrap();
        assert_eq!(r.format.as_deref(), Some("test-v1"));
        assert_eq!(r.intact(), 2);
        assert!(r.is_clean());
        assert_eq!(r.newest_intact_seq(), Some(1));
        assert_eq!(r.scrub_entries, 2);
        assert_eq!(r.scrub_matched, 2);
        assert!(r.render().contains("verdict=clean"));
    }

    #[test]
    fn damage_is_classified_and_repaired() {
        let j = FramedJournal::new(temp("damaged.ckpt"), "test-v1");
        j.append(0, "a\n").unwrap();
        j.append(1, "b\n").unwrap();
        assert!(crate::framed::tearing(&j).append(2, "torn\n").is_err());
        // Rot one byte of record 1's body in place.
        let mut bytes = std::fs::read(j.path()).unwrap();
        let pos = bytes
            .windows(3)
            .position(|w| w == b"\nb\n")
            .expect("body line present");
        bytes[pos + 1] ^= 0x01;
        std::fs::write(j.path(), &bytes).unwrap();

        let r = scan(j.path()).unwrap();
        assert_eq!(r.intact(), 1);
        assert_eq!(r.damaged(), 2);
        assert!(r.records.iter().any(|v| v.status == RecordStatus::BadCrc));
        assert!(r.records.iter().any(|v| v.status == RecordStatus::Torn));
        assert!(r.render().contains("verdict=degraded"));

        let repaired = repair(j.path()).unwrap();
        assert!(repaired.repaired);
        assert_eq!(repaired.intact(), 1);
        assert!(repaired.is_clean());
        // The repaired journal loads cleanly.
        assert_eq!(j.load_last().unwrap(), (0, "a\n".to_owned()));
        assert_eq!(scan(j.path()).unwrap().scrub_matched, 1);
    }

    #[test]
    fn zero_intact_records_is_corrupt_beyond_repair() {
        let p = temp("hopeless.ckpt");
        std::fs::write(&p, "ckpt test-v1 0\nbody with no trailer").unwrap();
        let r = scan(&p).unwrap();
        assert_eq!(r.intact(), 0);
        assert!(r.render().contains("verdict=corrupt-beyond-repair"));
        assert!(matches!(repair(&p), Err(CkptError::Corrupt { .. })));
        // The refused repair must not have touched the file.
        assert!(std::fs::read_to_string(&p).unwrap().contains("no trailer"));

        // A file with no header at all is equally hopeless.
        std::fs::write(&p, "not a journal\n").unwrap();
        let r = scan(&p).unwrap();
        assert_eq!(r.format, None);
        assert!(matches!(repair(&p), Err(CkptError::Corrupt { .. })));
    }
}
