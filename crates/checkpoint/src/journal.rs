//! The `aidft-ckpt-v3` checkpoint body: the ATPG resume state and its
//! codec.
//!
//! An ATPG checkpoint journal is a [`FramedJournal`] opened with
//! [`CKPT_FORMAT`]. The framing layer owns everything durable — the
//! `ckpt aidft-ckpt-v3 <seq>` header, the `end <crc>` trailer, torn-tail
//! realignment, replicas, disk chaos, newest-first recovery — and this
//! module owns only the body between header and trailer
//! ([`CkptState::to_body`] / [`CkptState::parse_body`]). Each record is
//! a complete resumable snapshot, so a process killed mid-write loses
//! at most the record it was writing.
//!
//! Body grammar (line-oriented text; `\n` separators):
//!
//! ```text
//! design <name>
//! config <hex16>            # caller-computed configuration hash
//! phase <init | topoff | signoff>
//! seed <u64>
//! fill_seed <u64>
//! ordinal <u64>
//! random_detected <u64>
//! failed_sim_batches <u64>  # batches lost to worker panics so far
//! podem <backtracks> <simulations> <decisions> <gate_evals>
//! width <usize>             # pattern width in bits
//! section main
//! tally <untestable> <aborted> <escalated> <rescued>
//! status <compact codes>    # u / d<pattern> / x / a, comma-separated
//! npat <count>
//! pat <0/1 bits>            # one line per pattern
//! ncube <count>
//! cube <0/1/X bits>         # one line per cube
//! ```
//!
//! Older records carry another tag, so a v3 journal never loads one:
//! `aidft-ckpt-v2` lacks the two effort counters (`failed_sim_batches`,
//! `podem`), so a run resumed from it would under-report both, and
//! `aidft-ckpt-v1` is ATPG with a second, rebuilding top-off round
//! (`phase topoff <round>` and an optional `section pre_compaction`).

use std::fmt;
use std::io;

use crate::framed::{FramedJournal, RecoveryReport};

/// The on-disk format identifier; bump on any incompatible change.
pub const CKPT_FORMAT: &str = "aidft-ckpt-v3";

/// The toolkit's 64-bit checksum and fingerprint hash (also used by
/// callers to fingerprint their configuration into
/// [`CkptState::config_hash`]).
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

/// Per-fault resume status (a plain-data mirror of the fault-list
/// status, without the `dft-fault` dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptStatus {
    /// Not yet detected.
    #[default]
    Undetected,
    /// Detected; payload is the first-detecting pattern index.
    Detected(u32),
    /// Proven untestable.
    Untestable,
    /// Aborted at the effort limit.
    Aborted,
}

/// Where a resumed run picks up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CkptPhase {
    /// Nothing durable happened yet; resume re-runs from scratch.
    #[default]
    Init,
    /// Mid deterministic top-off or the compaction pass after it.
    Topoff,
    /// Top-off and compaction complete; only sign-off simulation (and
    /// downstream compression) remain.
    Signoff,
}

/// One resumable snapshot of the mutable ATPG frontier: fault
/// partitions, the pattern set, and the deterministic cubes, plus the
/// top-off classification tally `[untestable, aborted, escalated,
/// rescued]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CkptSection {
    /// Per-collapsed-fault statuses, in fault-list order.
    pub statuses: Vec<CkptStatus>,
    /// Fully-specified patterns (random prefix + deterministic).
    pub patterns: Vec<Vec<bool>>,
    /// Deterministic cubes (`None` = don't-care bit).
    pub cubes: Vec<Vec<Option<bool>>>,
    /// `[untestable, aborted, escalated, rescued]` counters.
    pub tally: [u64; 4],
}

/// A complete `aidft-ckpt-v3` record: everything a run needs to resume
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CkptState {
    /// Design name (resume refuses a mismatch).
    pub design: String,
    /// Caller-computed configuration fingerprint (resume refuses a
    /// mismatch — a resumed run must use the exact seed/limits of the
    /// original).
    pub config_hash: u64,
    /// Resume point.
    pub phase: CkptPhase,
    /// Base RNG seed of the run.
    pub seed: u64,
    /// Current cube-fill RNG state.
    pub fill_seed: u64,
    /// Per-fault trace-sampling ordinal.
    pub fault_ordinal: u64,
    /// Collapsed faults detected by the random phase (for reporting).
    pub random_detected: u64,
    /// Fault-simulation batches lost to worker panics so far.
    pub failed_sim_batches: u64,
    /// PODEM effort so far: `[backtracks, simulations, decisions,
    /// gate_evals]`. A parsed record holds the first three below
    /// `2^32`.
    pub podem: [u64; 4],
    /// Pattern width in bits.
    pub width: usize,
    /// The live frontier.
    pub main: CkptSection,
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
            CkptError::NoValidRecord { path } => {
                write!(f, "{path}: no complete {CKPT_FORMAT} record")
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

impl CkptState {
    /// Renders the record body (the lines between the framing header
    /// and trailer, each newline-terminated).
    pub fn to_body(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("design {}\n", self.design));
        body.push_str(&format!("config {:016x}\n", self.config_hash));
        match self.phase {
            CkptPhase::Init => body.push_str("phase init\n"),
            CkptPhase::Topoff => body.push_str("phase topoff\n"),
            CkptPhase::Signoff => body.push_str("phase signoff\n"),
        }
        body.push_str(&format!("seed {}\n", self.seed));
        body.push_str(&format!("fill_seed {}\n", self.fill_seed));
        body.push_str(&format!("ordinal {}\n", self.fault_ordinal));
        body.push_str(&format!("random_detected {}\n", self.random_detected));
        body.push_str(&format!("failed_sim_batches {}\n", self.failed_sim_batches));
        let [backtracks, simulations, decisions, gate_evals] = self.podem;
        body.push_str(&format!(
            "podem {backtracks} {simulations} {decisions} {gate_evals}\n"
        ));
        body.push_str(&format!("width {}\n", self.width));
        write_section(&mut body, "main", &self.main);
        body
    }

    /// Parses a record body back. `None` on any field problem — the
    /// journal treats a record whose body does not parse as damaged,
    /// like one whose checksum fails.
    pub fn parse_body(body: &str) -> Option<CkptState> {
        let mut state = CkptState::default();
        let mut lines = body.lines().peekable();
        while let Some(line) = lines.next() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "design" => state.design = rest.to_owned(),
                "config" => state.config_hash = u64::from_str_radix(rest, 16).ok()?,
                "phase" => {
                    state.phase = match rest {
                        "init" => CkptPhase::Init,
                        "topoff" => CkptPhase::Topoff,
                        "signoff" => CkptPhase::Signoff,
                        _ => return None,
                    }
                }
                "seed" => state.seed = rest.parse().ok()?,
                "fill_seed" => state.fill_seed = rest.parse().ok()?,
                "ordinal" => state.fault_ordinal = rest.parse().ok()?,
                "random_detected" => state.random_detected = rest.parse().ok()?,
                "failed_sim_batches" => state.failed_sim_batches = rest.parse().ok()?,
                "podem" => state.podem = parse_podem(rest)?,
                "width" => state.width = rest.parse().ok()?,
                "section" if rest == "main" => state.main = parse_section(&mut lines)?,
                _ => return None,
            }
        }
        Some(state)
    }

    /// Loads the newest record of `journal` (a [`FramedJournal`] opened
    /// with [`CKPT_FORMAT`]) whose framing and body both parse, plus
    /// the [`RecoveryReport`] counting the damaged records the load
    /// stepped over. Only a journal with no such record on any replica
    /// is an error.
    pub fn load_last(journal: &FramedJournal) -> Result<(CkptState, RecoveryReport), CkptError> {
        journal
            .load_last_parsed(CkptState::parse_body)
            .map(|((_, state), report)| (state, report))
    }
}

/// The `podem` counters: three that fit in `u32`, then `gate_evals`.
fn parse_podem(rest: &str) -> Option<[u64; 4]> {
    let mut fields = rest.split(' ');
    let mut podem = [0u64; 4];
    for (i, slot) in podem.iter_mut().enumerate() {
        let field = fields.next()?;
        *slot = if i < 3 {
            u64::from(field.parse::<u32>().ok()?)
        } else {
            field.parse().ok()?
        };
    }
    fields.next().is_none().then_some(podem)
}

fn write_section(out: &mut String, name: &str, s: &CkptSection) {
    out.push_str(&format!("section {name}\n"));
    out.push_str(&format!(
        "tally {} {} {} {}\n",
        s.tally[0], s.tally[1], s.tally[2], s.tally[3]
    ));
    let mut codes = String::with_capacity(s.statuses.len() * 2);
    for (i, st) in s.statuses.iter().enumerate() {
        if i > 0 {
            codes.push(',');
        }
        match st {
            CkptStatus::Undetected => codes.push('u'),
            CkptStatus::Detected(p) => codes.push_str(&format!("d{p}")),
            CkptStatus::Untestable => codes.push('x'),
            CkptStatus::Aborted => codes.push('a'),
        }
    }
    out.push_str(&format!("status {codes}\n"));
    out.push_str(&format!("npat {}\n", s.patterns.len()));
    for p in &s.patterns {
        out.push_str("pat ");
        out.extend(p.iter().map(|&b| if b { '1' } else { '0' }));
        out.push('\n');
    }
    out.push_str(&format!("ncube {}\n", s.cubes.len()));
    for c in &s.cubes {
        out.push_str("cube ");
        out.extend(c.iter().map(|b| match b {
            Some(true) => '1',
            Some(false) => '0',
            None => 'X',
        }));
        out.push('\n');
    }
}

fn parse_section<'a, I: Iterator<Item = &'a str>>(
    lines: &mut std::iter::Peekable<I>,
) -> Option<CkptSection> {
    let mut s = CkptSection::default();
    let tally_line = lines.next()?.strip_prefix("tally ")?;
    for (i, v) in tally_line.split_whitespace().enumerate() {
        if i >= 4 {
            return None;
        }
        s.tally[i] = v.parse().ok()?;
    }
    let codes = lines.next()?.strip_prefix("status ")?;
    if !codes.is_empty() {
        for code in codes.split(',') {
            s.statuses.push(match code {
                "u" => CkptStatus::Undetected,
                "x" => CkptStatus::Untestable,
                "a" => CkptStatus::Aborted,
                d => CkptStatus::Detected(d.strip_prefix('d')?.parse().ok()?),
            });
        }
    }
    let npat: usize = lines.next()?.strip_prefix("npat ")?.parse().ok()?;
    for _ in 0..npat {
        let bits = lines.next()?.strip_prefix("pat ")?;
        s.patterns
            .push(bits.chars().map(|c| c == '1').collect::<Vec<bool>>());
    }
    let ncube: usize = lines.next()?.strip_prefix("ncube ")?.parse().ok()?;
    for _ in 0..ncube {
        let bits = lines.next()?.strip_prefix("cube ")?;
        let mut cube = Vec::with_capacity(bits.len());
        for c in bits.chars() {
            cube.push(match c {
                '1' => Some(true),
                '0' => Some(false),
                'X' => None,
                _ => return None,
            });
        }
        s.cubes.push(cube);
    }
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{frame_record, parse_framed, tearing};

    #[test]
    fn fnv1a_known_answers() {
        // The empty input is the FNV-64 offset basis; one byte shows the
        // multiplier 0x1000_0000_01B3 (standard FNV-1a of "a" is
        // 0xaf63dc4c8601ec8c).
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf74_d84c_8601_ec8c);
    }

    fn sample(seq: u64) -> CkptState {
        CkptState {
            design: "mac4".into(),
            config_hash: 0xDEAD_BEEF_0BAD_F00D,
            phase: CkptPhase::Topoff,
            seed: 0x5EED,
            fill_seed: 42 + seq,
            fault_ordinal: 17,
            random_detected: 301,
            failed_sim_batches: 2,
            podem: [5, 9, 7, 120],
            width: 5,
            main: CkptSection {
                statuses: vec![
                    CkptStatus::Undetected,
                    CkptStatus::Detected(7),
                    CkptStatus::Untestable,
                    CkptStatus::Aborted,
                ],
                patterns: vec![vec![true, false, true, true, false]],
                cubes: vec![vec![Some(true), None, Some(false), None, None]],
                tally: [1, 2, 3, 4],
            },
        }
    }

    fn journal(name: &str) -> FramedJournal {
        let dir = std::env::temp_dir().join(format!("aidft-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = FramedJournal::new(dir.join(name), CKPT_FORMAT);
        let _ = std::fs::remove_file(j.path());
        j
    }

    fn cleanup(j: &FramedJournal) {
        let _ = std::fs::remove_file(j.path());
        let _ = std::fs::remove_file(crate::scrub::scrub_path(j.path()));
    }

    #[test]
    fn record_roundtrip() {
        let s = sample(3);
        let text = frame_record(CKPT_FORMAT, 3, &s.to_body());
        let (seq, body) = parse_framed(&text, CKPT_FORMAT).expect("frame parses");
        assert_eq!(seq, 3);
        assert_eq!(CkptState::parse_body(&body), Some(s));
    }

    /// The record format, pinned byte for byte: it must parse, and
    /// re-framing the parsed state must reproduce it.
    #[test]
    fn framed_body_matches_the_ckpt_v3_record_format() {
        let record = "ckpt aidft-ckpt-v3 3\n\
            design mac4\n\
            config deadbeef0badf00d\n\
            phase topoff\n\
            seed 24301\n\
            fill_seed 45\n\
            ordinal 17\n\
            random_detected 301\n\
            failed_sim_batches 2\n\
            podem 5 9 7 120\n\
            width 5\n\
            section main\n\
            tally 1 2 3 4\n\
            status u,d7,x,a\n\
            npat 1\n\
            pat 10110\n\
            ncube 1\n\
            cube 1X0XX\n\
            end 22d0f20698054fcf\n";
        let (seq, body) = parse_framed(record, CKPT_FORMAT).expect("ckpt-v3 record parses");
        let state = CkptState::parse_body(&body).expect("ckpt-v3 body parses");
        assert_eq!((seq, &state), (3, &sample(3)));
        assert_eq!(frame_record(CKPT_FORMAT, seq, &state.to_body()), record);
    }

    #[test]
    fn checksum_rejects_bit_flips() {
        let text = frame_record(CKPT_FORMAT, 0, &sample(0).to_body());
        let tampered = text.replace("fill_seed 42", "fill_seed 43");
        assert!(parse_framed(&tampered, CKPT_FORMAT).is_none());
        assert!(parse_framed(&text[..text.len() / 2], CKPT_FORMAT).is_none());
        // A body that frames cleanly but is not a checkpoint is refused
        // by the codec.
        assert!(CkptState::parse_body("phase sideways\n").is_none());
        // So is the v1 grammar: a top-off round and a second section.
        assert!(CkptState::parse_body("phase topoff 1\n").is_none());
        assert!(CkptState::parse_body("section pre_compaction\ntally 0 0 0 0\n").is_none());
        assert!(CkptState::parse_body("section main\ntally 1 2\n").is_none());
        // PODEM's per-run counters are u32 except gate evaluations.
        assert!(CkptState::parse_body("podem 1 2 3\n").is_none());
        assert!(CkptState::parse_body("podem 4294967296 0 0 0\n").is_none());
        assert!(CkptState::parse_body("podem 1 2 3 4294967296\n").is_some());
    }

    #[test]
    fn journal_returns_newest_valid_record() {
        let j = journal("newest.ckpt");
        j.append(0, &sample(0).to_body()).unwrap();
        j.append(1, &sample(1).to_body()).unwrap();
        let (state, report) = CkptState::load_last(&j).unwrap();
        assert_eq!(state.fill_seed, 43);
        assert!(!report.degraded());
        // A newer record whose frame checks out but whose body is not a
        // checkpoint is skipped and counted as damage.
        j.append(2, "design mac4\nbogus line\n").unwrap();
        let (state, report) = CkptState::load_last(&j).unwrap();
        assert_eq!((state.fill_seed, report.seq, report.damaged), (43, 1, 1));
        cleanup(&j);
    }

    #[test]
    fn torn_tail_recovers_previous_record() {
        let j = journal("torn.ckpt");
        j.append(0, &sample(0).to_body()).unwrap();
        assert!(tearing(&j).append(1, &sample(1).to_body()).is_err());
        // The torn record is skipped; the complete one survives.
        assert_eq!(CkptState::load_last(&j).unwrap().0.fill_seed, 42);
        cleanup(&j);
    }

    #[test]
    fn append_after_torn_tail_realigns_and_stays_visible() {
        // A torn tail ends mid-line; the next append must put its
        // header back on a line boundary or the new record would be
        // glued into the torn one and become unloadable.
        let j = journal("realign.ckpt");
        assert!(tearing(&j).append(0, &sample(0).to_body()).is_err());
        assert!(tearing(&j).append(1, &sample(1).to_body()).is_err());
        let torn = std::fs::read(j.path()).unwrap();
        assert!(
            !torn.is_empty() && !torn.ends_with(b"\n"),
            "tail is torn mid-line"
        );
        j.append(2, &sample(2).to_body()).unwrap();
        assert_eq!(CkptState::load_last(&j).unwrap().0.fill_seed, 44);
        // And a torn tail *after* a realigned record still recovers it.
        assert!(tearing(&j).append(3, &sample(3).to_body()).is_err());
        assert_eq!(CkptState::load_last(&j).unwrap().0.fill_seed, 44);
        cleanup(&j);
    }

    #[test]
    fn empty_or_missing_journal_is_a_clean_error() {
        let j = FramedJournal::new("/nonexistent/aidft.ckpt", CKPT_FORMAT);
        assert!(matches!(
            CkptState::load_last(&j),
            Err(CkptError::Io { .. })
        ));
        let j = journal("empty.ckpt");
        std::fs::write(j.path(), "garbage\n").unwrap();
        assert!(matches!(
            CkptState::load_last(&j),
            Err(CkptError::NoValidRecord { .. })
        ));
        cleanup(&j);
    }

    #[test]
    fn verify_checks_design_and_config() {
        let s = sample(0);
        let check =
            |design: &str, config: u64| verify_identity(&s.design, s.config_hash, design, config);
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
