//! The one journal type: framed, checksummed, append-only records.
//!
//! Every durable stream in the toolkit is a [`FramedJournal`]: the ATPG
//! checkpoints (`aidft-ckpt-v3`), the serve fleet journal
//! (`aidft-serve-v3`) and the telemetry event stream
//! (`aidft-telemetry-v1`). Each record is a `ckpt <format> <seq>`
//! header, a line-oriented body, and an `end <crc>` trailer whose
//! checksum covers everything above it: [`fnv1a`], FNV-1a in form but
//! with the multiplier `0x1000_0000_01B3`, not the FNV-64 prime. This
//! module owns the framing and the storage — torn-tail realignment,
//! replicas, disk chaos, and recovery across replicas — while each
//! producer owns its body codec (the ATPG checkpoint state's in
//! `dft-atpg`, the fleet state's in `dft-serve`, the event lines in
//! `dft-telemetry`) and hands a body parser to a load so a record counts
//! only when its framing *and* its body check out: the ATPG checkpoint
//! resumes from the newest such record
//! ([`FramedJournal::load_last_parsed`]), the fleet journal from all of
//! them ([`FramedJournal::load_all_replicas_parsed`]).

use std::cmp::Reverse;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::chaos::ChaosConfig;
use crate::io_chaos::{self, ChaosWriter, DiskFault};
use crate::journal::{fnv1a, CkptError};
use crate::scrub::{self, ScrubEntry};

/// Frames `body` (newline-terminated lines, no header/trailer) as one
/// journal record for `format`: `ckpt <format> <seq>` header, the body,
/// and the `end <crc>` trailer. The result is what
/// [`FramedJournal::append`] writes and [`parse_framed`] validates.
pub fn frame_record(format: &str, seq: u64, body: &str) -> String {
    let mut text = format!("ckpt {format} {seq}\n");
    text.push_str(body);
    if !body.is_empty() && !body.ends_with('\n') {
        text.push('\n');
    }
    let crc = fnv1a(text.as_bytes());
    text.push_str(&format!("end {crc:016x}\n"));
    text
}

/// Validates one framed record (header line through `end`) against
/// `format` and returns `(seq, body)` — the lines between header and
/// trailer. `None` on any framing, header, or checksum problem: a bad
/// record is treated as absent, never fatal.
pub fn parse_framed(text: &str, format: &str) -> Option<(u64, String)> {
    let end_pos = text.rfind("\nend ")?;
    let framed = &text[..end_pos + 1];
    let crc_line = text[end_pos + 1..].lines().next()?;
    let crc = u64::from_str_radix(crc_line.strip_prefix("end ")?.trim(), 16).ok()?;
    if fnv1a(framed.as_bytes()) != crc {
        return None;
    }
    let (header, body) = framed.split_once('\n')?;
    let mut h = header.split_whitespace();
    if h.next()? != "ckpt" || h.next()? != format {
        return None;
    }
    let seq: u64 = h.next()?.parse().ok()?;
    Some((seq, body.to_owned()))
}

/// Reads a journal file as text, replacing invalid UTF-8 (a bit-rotted
/// byte can leave any bit pattern on disk) with U+FFFD so damage stays
/// localized to the record it struck: intact regions still verify
/// their checksums, instead of one bad byte failing the whole read.
pub(crate) fn read_text_lossy(path: &Path) -> io::Result<String> {
    Ok(String::from_utf8_lossy(&std::fs::read(path)?).into_owned())
}

/// The on-disk path of replica `replica`: replica 0 is the journal
/// itself, replica `r > 0` is `<path>.r<r>`, so a journal opened with
/// `--checkpoint-replicas 1` and one opened with more agree on where
/// the primary lives.
pub fn replica_path(path: &Path, replica: u32) -> PathBuf {
    if replica == 0 {
        path.to_path_buf()
    } else {
        let mut os = path.as_os_str().to_owned();
        os.push(format!(".r{replica}"));
        PathBuf::from(os)
    }
}

/// How a journal load arrived at its answer: which replica served the
/// winning record and how much damage the scan stepped over. A
/// degraded report is the signal the self-healing path acts on (scrub
/// metric, telemetry `storage` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Replica files that existed and were scanned.
    pub replicas_scanned: u32,
    /// Damaged (torn or checksum-failing) record regions stepped over
    /// across all scanned replicas.
    pub damaged: u64,
    /// Replica index the winning record (for a load of every record,
    /// the newest) was read from (0 = primary).
    pub source_replica: u32,
    /// Seq of that record.
    pub seq: u64,
}

impl RecoveryReport {
    /// `true` when the load had to heal: damage was skipped or the
    /// primary could not serve the newest record itself.
    pub fn degraded(&self) -> bool {
        self.damaged > 0 || self.source_replica != 0
    }
}

/// `true` when the file at `path` ends mid-line (a torn tail from a
/// crash or injected write failure): the next record must be preceded
/// by a newline so its header starts at a line boundary and stays
/// visible to the newest-first scan.
pub(crate) fn needs_realignment(path: &Path) -> io::Result<bool> {
    let mut f = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    if f.metadata()?.len() == 0 {
        return Ok(false);
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    Ok(last[0] != b'\n')
}

/// Appends `record` (already framed) to one replica file, realigning
/// after a torn tail, with `fault` injected through the
/// [`ChaosWriter`] layer (a `shortwrite` fault leaves exactly the torn
/// tail a kill mid-write does).
fn append_one(path: &Path, record: &str, fault: DiskFault, key: u64) -> io::Result<()> {
    let realign = needs_realignment(path)?;
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut w = ChaosWriter::new(f, fault, key, record.len() as u64);
    if realign {
        w.write_all(b"\n")?;
    }
    w.write_all(record.as_bytes())?;
    w.flush()
}

/// Splits `text` into candidate record regions for `header` (e.g.
/// `"ckpt aidft-serve-v3 "`): each region runs from one line-aligned
/// header occurrence to the next. Damage never hides a later record —
/// a torn or rotted region simply fails its parse while the regions
/// around it stand alone.
pub(crate) fn record_regions(text: &str, header: &str) -> Vec<(usize, usize)> {
    let mut starts: Vec<usize> = Vec::new();
    let mut at = 0usize;
    while let Some(pos) = text[at..].find(header) {
        let abs = at + pos;
        if abs == 0 || text.as_bytes()[abs - 1] == b'\n' {
            starts.push(abs);
        }
        at = abs + header.len();
    }
    starts
        .iter()
        .enumerate()
        .map(|(i, &start)| (start, starts.get(i + 1).copied().unwrap_or(text.len())))
        .collect()
}

/// Scans `text` oldest-first and returns *every* record of `format`
/// that `parse` accepts, in file order. Torn tails and corrupt records
/// are skipped silently, as [`FramedJournal::load_last_parsed`] skips
/// them — a journal is allowed to carry damage, never to propagate it.
pub(crate) fn scan_all<T>(text: &str, format: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    let header = format!("ckpt {format} ");
    record_regions(text, &header)
        .iter()
        .filter_map(|&(start, end)| parse(&text[start..end]))
        .collect()
}

/// An append-only journal of [`frame_record`]-framed records for one
/// format id: torn-tail realignment on append, newest-first recovery
/// on load, and a body that is opaque text owned by the caller's
/// codec. Optionally writes N-way replicas
/// ([`FramedJournal::with_replicas`]) and injects seeded disk faults
/// ([`FramedJournal::with_disk_chaos`]).
#[derive(Debug, Clone)]
pub struct FramedJournal {
    path: PathBuf,
    format: &'static str,
    replicas: u32,
    chaos: ChaosConfig,
}

impl FramedJournal {
    /// A journal at `path` holding `format` records (created on first
    /// append), unreplicated and chaos-free.
    pub fn new(path: impl Into<PathBuf>, format: &'static str) -> FramedJournal {
        FramedJournal {
            path: path.into(),
            format,
            replicas: 1,
            chaos: ChaosConfig::disabled(),
        }
    }

    /// Writes every record to `n` replica files (`n` is clamped to at
    /// least 1); loads read the intact records of every replica, so a
    /// damaged copy falls back to an intact sibling. Replica 0 is the
    /// journal path itself, replica `r` is
    /// `<path>.r<r>`.
    pub fn with_replicas(mut self, n: u32) -> FramedJournal {
        self.replicas = n.max(1);
        self
    }

    /// Routes every append through the disk-fault chaos layer driven
    /// by `chaos` (the `eio=`/`shortwrite=`/`bitrot=`/`fsync_fail=`
    /// knobs). Decisions are keyed per `(seq, replica)` so replicas
    /// fail independently.
    pub fn with_disk_chaos(mut self, chaos: ChaosConfig) -> FramedJournal {
        self.chaos = chaos;
        self
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one framed record to every replica, drawing an
    /// independent disk-fault decision per replica (the ordinal mixes
    /// `seq` with the replica index). Succeeds when at least one
    /// replica took the full record — the durability contract replica
    /// fallback recovery restores from — and a success also notes the
    /// record in the scrub-index sidecar. Returns the record length, or
    /// the last per-replica error when every replica failed.
    pub fn append(&self, seq: u64, body: &str) -> io::Result<u64> {
        let record = frame_record(self.format, seq, body);
        let mut ok = false;
        let mut last_err = None;
        for r in 0..self.replicas {
            let ordinal = io_chaos::disk_ordinal(seq, r);
            let fault = if self.chaos.has_disk_faults() {
                io_chaos::decide(&self.chaos, ordinal)
            } else {
                DiskFault::None
            };
            let key = io_chaos::fault_key(&self.chaos, ordinal);
            match append_one(&replica_path(&self.path, r), &record, fault, key) {
                Ok(()) => ok = true,
                Err(e) => last_err = Some(e),
            }
        }
        if !ok {
            return Err(last_err
                .unwrap_or_else(|| io::Error::other("checkpoint append failed on every replica")));
        }
        if let Some(entry) = ScrubEntry::for_record(seq, &record) {
            scrub::note_append(&self.path, &entry);
        }
        Ok(record.len() as u64)
    }

    /// Every readable replica as `(replica, text)`, primary first. Only
    /// a journal with no readable replica at all is an error:
    /// [`CkptError::Io`] carrying the primary's failure.
    fn read_replicas(&self) -> Result<Vec<(u32, String)>, CkptError> {
        let mut texts = Vec::new();
        let mut primary_err = None;
        for r in 0..self.replicas {
            match read_text_lossy(&replica_path(&self.path, r)) {
                Ok(text) => texts.push((r, text)),
                Err(e) if r == 0 => primary_err = Some(e),
                Err(_) => {}
            }
        }
        if texts.is_empty() {
            return Err(CkptError::Io {
                path: self.path.display().to_string(),
                source: primary_err.unwrap_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, "no replica readable")
                }),
            });
        }
        Ok(texts)
    }

    /// Loads *every* complete, checksum-valid record as `(seq, body)`,
    /// oldest-first. Torn or corrupt records in the middle are skipped;
    /// an empty result is not an error (the caller decides whether a
    /// record-free journal is a problem). This is the replay primitive
    /// for append-only event streams (e.g. the `aidft-telemetry-v1`
    /// journal), where checkpoint recovery wants the newest record but
    /// an auditor wants the whole history. Replays the first readable
    /// replica (primary preferred) so history keeps its file order.
    pub fn load_all(&self) -> Result<Vec<(u64, String)>, CkptError> {
        let (_, text) = &self.read_replicas()?[0];
        Ok(scan_all(text, self.format, |t| {
            parse_framed(t, self.format)
        }))
    }

    /// The scan every replica load shares: each readable replica,
    /// primary first, is split into record regions whose framing is
    /// checked newest-first. `visit(replica, seq, body)` sees each
    /// framed record and returns `false` when it refuses the body.
    /// Returns how many replicas were read and how many regions failed
    /// their framing or were refused.
    fn scan_replicas(
        &self,
        mut visit: impl FnMut(u32, u64, String) -> bool,
    ) -> Result<(u32, u64), CkptError> {
        let texts = self.read_replicas()?;
        let header = format!("ckpt {} ", self.format);
        let mut damaged = 0u64;
        for (r, text) in &texts {
            for &(start, end) in record_regions(text, &header).iter().rev() {
                let intact = parse_framed(&text[start..end], self.format)
                    .is_some_and(|(seq, body)| visit(*r, seq, body));
                if !intact {
                    damaged += 1;
                }
            }
        }
        Ok((texts.len() as u32, damaged))
    }

    /// Loads the newest record whose framing checks out *and* whose
    /// body `parse` accepts, as `(seq, parsed body)`, plus the
    /// [`RecoveryReport`] describing how hard the load had to work —
    /// every record that fails its framing, or the body check on the
    /// way to the newest good one, counts as damaged. Per replica the
    /// last such record in file order wins; across replicas the highest
    /// seq wins, ties to the lowest replica index, so a rotted primary
    /// falls back to an intact sibling. This is how a producer whose
    /// every record holds its whole state (the ATPG checkpoint)
    /// resumes; the serve fleet journal, whose records each hold only
    /// new dies, resumes through [`FramedJournal::load_all_replicas_parsed`].
    ///
    /// Errors: [`CkptError::Io`] only when *no* replica file could be
    /// read, [`CkptError::NoValidRecord`] when the files hold no
    /// record that passes both checks.
    pub fn load_last_parsed<T>(
        &self,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<((u64, T), RecoveryReport), CkptError> {
        let mut best: Option<(u32, (u64, T))> = None;
        // The replica whose newest good record is already found: its
        // older records are not parsed.
        let mut served = None;
        let (replicas_scanned, damaged) = self.scan_replicas(|r, seq, body| {
            if served == Some(r) {
                return true;
            }
            let Some(value) = parse(&body) else {
                return false;
            };
            served = Some(r);
            if best.as_ref().is_none_or(|(_, (newest, _))| seq > *newest) {
                best = Some((r, (seq, value)));
            }
            true
        })?;
        let (source_replica, record) = best.ok_or_else(|| self.no_valid_record())?;
        let report = RecoveryReport {
            replicas_scanned,
            damaged,
            source_replica,
            seq: record.0,
        };
        Ok((record, report))
    }

    /// Loads every record of every readable replica whose framing
    /// checks out *and* whose body `parse` accepts, as `(seq, parsed
    /// body)` in ascending seq (ties in replica order), plus the
    /// [`RecoveryReport`]: every record that fails either check counts
    /// as damaged, and the report's `seq` and `source_replica` name the
    /// newest record (highest seq, ties to the lowest replica). A
    /// record mirrored on several replicas is returned once per copy.
    /// This is how a producer whose records each hold a part of its
    /// state (the serve fleet journal) folds them back into one.
    ///
    /// Errors: as [`FramedJournal::load_last_parsed`].
    pub fn load_all_replicas_parsed<T>(
        &self,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<(Vec<(u64, T)>, RecoveryReport), CkptError> {
        let mut records: Vec<(u32, u64, T)> = Vec::new();
        let (replicas_scanned, damaged) = self.scan_replicas(|r, seq, body| {
            parse(&body)
                .map(|value| records.push((r, seq, value)))
                .is_some()
        })?;
        let &(source_replica, seq, _) = records
            .iter()
            .min_by_key(|&&(r, seq, _)| (Reverse(seq), r))
            .ok_or_else(|| self.no_valid_record())?;
        // The scan reads each replica newest-first: reversing restores
        // file order, which the stable sort keeps for a seq repeated
        // within one replica.
        records.reverse();
        records.sort_by_key(|&(r, seq, _)| (seq, r));
        let report = RecoveryReport {
            replicas_scanned,
            damaged,
            source_replica,
            seq,
        };
        Ok((
            records
                .into_iter()
                .map(|(_, seq, value)| (seq, value))
                .collect(),
            report,
        ))
    }

    fn no_valid_record(&self) -> CkptError {
        CkptError::NoValidRecord {
            path: self.path.display().to_string(),
            format: self.format,
        }
    }
}

/// A journal on the same file whose every append is cut short at a
/// deterministic prefix and fails: the torn tail of a kill mid-write.
#[cfg(test)]
pub(crate) fn tearing(j: &FramedJournal) -> FramedJournal {
    j.clone()
        .with_disk_chaos(ChaosConfig::parse("shortwrite=1.0,seed=1").unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The newest intact record as `(seq, body)`, any body accepted.
    fn newest(j: &FramedJournal) -> Result<(u64, String), CkptError> {
        j.load_last_parsed(|body| Some(body.to_owned()))
            .map(|(record, _)| record)
    }

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aidft-framed-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn frame_and_parse_roundtrip() {
        let body = "dies 4\ndone 2\n";
        let text = frame_record("test-v1", 7, body);
        let (seq, back) = parse_framed(&text, "test-v1").expect("parses");
        assert_eq!(seq, 7);
        assert_eq!(back, body);
        // Wrong format id is rejected, as is any tampering.
        assert!(parse_framed(&text, "other-v1").is_none());
        assert!(parse_framed(&text.replace("done 2", "done 3"), "test-v1").is_none());
        assert!(parse_framed(&text[..text.len() / 2], "test-v1").is_none());
    }

    #[test]
    fn journal_recovers_newest_after_torn_tail() {
        let j = FramedJournal::new(temp("framed.ckpt"), "test-v1");
        j.append(0, "state a\n").unwrap();
        assert!(tearing(&j).append(1, "state b\n").is_err());
        assert_eq!(newest(&j).unwrap(), (0, "state a\n".to_owned()));
        // Realignment keeps the next record loadable.
        j.append(2, "state c\n").unwrap();
        assert_eq!(newest(&j).unwrap(), (2, "state c\n".to_owned()));
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn load_all_replays_history_and_skips_damage() {
        let j = FramedJournal::new(temp("framed-all.ckpt"), "test-v1");
        j.append(0, "a\n").unwrap();
        j.append(1, "b\n").unwrap();
        assert!(tearing(&j).append(2, "torn\n").is_err());
        j.append(3, "c\n").unwrap();
        let all = j.load_all().unwrap();
        assert_eq!(
            all,
            vec![
                (0, "a\n".to_owned()),
                (1, "b\n".to_owned()),
                (3, "c\n".to_owned()),
            ]
        );
        // The newest record is load_all's last.
        assert_eq!(newest(&j).unwrap(), all.last().unwrap().clone());
        std::fs::remove_file(j.path()).unwrap();
    }

    #[test]
    fn replica_fallback_recovers_newest_intact() {
        let j = FramedJournal::new(temp("replicated.ckpt"), "test-v1").with_replicas(2);
        j.append(0, "state a\n").unwrap();
        j.append(1, "state b\n").unwrap();
        let r1 = replica_path(j.path(), 1);
        assert!(r1.exists(), "replica file written alongside primary");

        // Rot the whole primary: the load falls back to replica 1 and
        // reports the recovery as degraded.
        std::fs::write(j.path(), "garbage where a journal used to be\n").unwrap();
        let ((seq, body), report) = j.load_last_parsed(|b| Some(b.to_owned())).unwrap();
        assert_eq!((seq, body.as_str()), (1, "state b\n"));
        assert_eq!(report.source_replica, 1);
        assert!(report.degraded());

        // Even a *deleted* primary is survivable.
        std::fs::remove_file(j.path()).unwrap();
        assert_eq!(newest(&j).unwrap(), (1, "state b\n".to_owned()));
        assert_eq!(j.load_all().unwrap().len(), 2);

        // But losing every replica is a clean Io error.
        std::fs::remove_file(&r1).unwrap();
        assert!(matches!(newest(&j), Err(CkptError::Io { .. })));
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
    }

    #[test]
    fn undamaged_replicated_load_is_not_degraded() {
        let j = FramedJournal::new(temp("replicated-clean.ckpt"), "test-v1").with_replicas(2);
        j.append(0, "state a\n").unwrap();
        let ((seq, _), report) = j.load_last_parsed(|_| Some(())).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(report.replicas_scanned, 2);
        assert_eq!(report.damaged, 0);
        assert!(!report.degraded());
        std::fs::remove_file(j.path()).unwrap();
        std::fs::remove_file(replica_path(j.path(), 1)).unwrap();
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
    }

    #[test]
    fn disk_chaos_bitrot_corrupts_one_replica_detectably() {
        let chaos = crate::ChaosConfig::parse("bitrot=1.0,seed=5").unwrap();
        let j = FramedJournal::new(temp("rotted.ckpt"), "test-v1")
            .with_replicas(2)
            .with_disk_chaos(chaos);
        // bitrot=1.0 rots *every* replica: the append reports success
        // (silent corruption) but nothing intact survives.
        j.append(0, "state a\n").unwrap();
        assert!(matches!(newest(&j), Err(CkptError::NoValidRecord { .. })));

        // At a partial probability the replicas draw independently;
        // scan seeds until exactly one replica is rotted, then prove
        // the intact sibling serves the record.
        let partial = (0..64)
            .map(|s| crate::ChaosConfig::parse(&format!("bitrot=0.5,seed={s}")).unwrap())
            .find(|c| {
                let p = crate::io_chaos::decide(c, crate::io_chaos::disk_ordinal(0, 0));
                let r = crate::io_chaos::decide(c, crate::io_chaos::disk_ordinal(0, 1));
                (p == DiskFault::BitRot) != (r == DiskFault::BitRot)
            })
            .expect("some seed rots exactly one replica");
        let j2 = FramedJournal::new(temp("rotted-one.ckpt"), "test-v1")
            .with_replicas(2)
            .with_disk_chaos(partial);
        j2.append(0, "state a\n").unwrap();
        let ((seq, body), report) = j2.load_last_parsed(|b| Some(b.to_owned())).unwrap();
        assert_eq!((seq, body.as_str()), (0, "state a\n"));
        assert_eq!(report.damaged, 1, "the rotted copy is detected");
        for p in [
            j.path().to_path_buf(),
            replica_path(j.path(), 1),
            j2.path().to_path_buf(),
            replica_path(j2.path(), 1),
        ] {
            let _ = std::fs::remove_file(&p);
        }
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j2.path()));
    }

    /// Every intact record of every replica comes back, oldest first,
    /// once per copy; the report names the newest and counts the
    /// damaged and refused ones.
    #[test]
    fn load_all_replicas_parsed_reads_every_replica_in_seq_order() {
        let j = FramedJournal::new(temp("all-replicas.ckpt"), "test-v1").with_replicas(2);
        let primary = FramedJournal::new(j.path(), "test-v1");
        let r1 = FramedJournal::new(replica_path(j.path(), 1), "test-v1");
        j.append(0, "a\n").unwrap();
        r1.append(1, "b\n").unwrap();
        assert!(tearing(&primary).append(2, "torn\n").is_err());
        primary.append(3, "refused\n").unwrap();
        primary.append(4, "c\n").unwrap();
        let (records, report) = j
            .load_all_replicas_parsed(|b| (b != "refused\n").then(|| b.to_owned()))
            .unwrap();
        let got: Vec<(u64, &str)> = records.iter().map(|(s, b)| (*s, b.as_str())).collect();
        assert_eq!(got, vec![(0, "a\n"), (0, "a\n"), (1, "b\n"), (4, "c\n")]);
        assert_eq!((report.seq, report.source_replica), (4, 0));
        assert_eq!((report.replicas_scanned, report.damaged), (2, 2));
        // Only the replica holds the newest record once the primary's
        // copy rots.
        r1.append(4, "c\n").unwrap();
        std::fs::write(j.path(), "rotted\n").unwrap();
        let (records, report) = j.load_all_replicas_parsed(|b| Some(b.to_owned())).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!((report.seq, report.source_replica), (4, 1));
        // Nothing that parses anywhere is the usual refusal.
        assert!(matches!(
            j.load_all_replicas_parsed(|_| None::<()>),
            Err(CkptError::NoValidRecord { .. })
        ));
        for r in 0..2 {
            let _ = std::fs::remove_file(replica_path(j.path(), r));
            let _ = std::fs::remove_file(crate::scrub::scrub_path(&replica_path(j.path(), r)));
        }
    }

    #[test]
    fn empty_body_and_missing_newline_are_framed() {
        let (seq, body) = parse_framed(&frame_record("t", 0, ""), "t").unwrap();
        assert_eq!((seq, body.as_str()), (0, ""));
        let (_, body) = parse_framed(&frame_record("t", 1, "no newline"), "t").unwrap();
        assert_eq!(body, "no newline\n");
    }
}
