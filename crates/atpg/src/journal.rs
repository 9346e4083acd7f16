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
//! (`phase topoff <round>` and a second section, `pre_compaction`, after
//! `main`).

use std::fmt::Write as _;
use std::str::Lines;

use dft_checkpoint::{CkptError, FramedJournal, RecoveryReport};
use dft_fault::FaultStatus;
use dft_logicsim::{PatternSet, TestCube};

use crate::{PodemStats, TopoffTally};

/// The on-disk format identifier; bump on any incompatible change.
pub const CKPT_FORMAT: &str = "aidft-ckpt-v3";

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

/// A complete `aidft-ckpt-v3` record: everything a run needs to resume
/// bit-identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CkptState {
    /// Design name (resume refuses a mismatch).
    pub design: String,
    /// [`crate::AtpgConfig::fingerprint`] of the run (resume refuses a
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
    pub random_detected: usize,
    /// Fault-simulation batches lost to worker panics so far.
    pub failed_sim_batches: usize,
    /// PODEM effort so far.
    pub podem: PodemStats,
    /// Top-off classification counters so far.
    pub tally: TopoffTally,
    /// Per-collapsed-fault statuses, in fault-list order.
    pub statuses: Vec<FaultStatus>,
    /// The pattern set as generated (random prefix, then one pattern per
    /// cube); its width is the record's `width`.
    pub patterns: PatternSet,
    /// One cube per deterministic pattern.
    pub cubes: Vec<TestCube>,
}

impl CkptState {
    /// Renders the record body (the lines between the framing header
    /// and trailer, each newline-terminated).
    pub fn to_body(&self) -> String {
        let PodemStats {
            backtracks,
            simulations,
            decisions,
            gate_evals,
        } = self.podem;
        let TopoffTally {
            untestable,
            aborted,
            escalated,
            rescued,
        } = self.tally;
        let phase = match self.phase {
            CkptPhase::Init => "init",
            CkptPhase::Topoff => "topoff",
            CkptPhase::Signoff => "signoff",
        };
        let mut body = String::new();
        let _ = write!(
            body,
            "design {}\nconfig {:016x}\nphase {phase}\nseed {}\nfill_seed {}\nordinal {}\n\
             random_detected {}\nfailed_sim_batches {}\n\
             podem {backtracks} {simulations} {decisions} {gate_evals}\nwidth {}\n\
             section main\ntally {untestable} {aborted} {escalated} {rescued}\nstatus ",
            self.design,
            self.config_hash,
            self.seed,
            self.fill_seed,
            self.fault_ordinal,
            self.random_detected,
            self.failed_sim_batches,
            self.patterns.width(),
        );
        for (i, status) in self.statuses.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            match status {
                FaultStatus::Undetected => body.push('u'),
                FaultStatus::Detected(p) => {
                    let _ = write!(body, "d{p}");
                }
                FaultStatus::Untestable => body.push('x'),
                FaultStatus::Aborted => body.push('a'),
            }
        }
        let _ = writeln!(body, "\nnpat {}", self.patterns.len());
        for p in self.patterns.iter() {
            body.push_str("pat ");
            body.extend(p.iter().map(|&b| if b { '1' } else { '0' }));
            body.push('\n');
        }
        let _ = writeln!(body, "ncube {}", self.cubes.len());
        for cube in &self.cubes {
            let _ = writeln!(body, "cube {cube}");
        }
        body
    }

    /// Parses a record body back; `None` on any field problem and on
    /// any body [`CkptState::to_body`] would not write byte for byte, so
    /// every state has exactly one body. The journal treats a record
    /// whose body does not parse as damaged, like one whose checksum
    /// fails.
    pub fn parse_body(body: &str) -> Option<CkptState> {
        let lines = &mut body.lines();
        let design = field(lines, "design")?.to_owned();
        let config_hash = u64::from_str_radix(field(lines, "config")?, 16).ok()?;
        let phase = match field(lines, "phase")? {
            "init" => CkptPhase::Init,
            "topoff" => CkptPhase::Topoff,
            "signoff" => CkptPhase::Signoff,
            _ => return None,
        };
        let seed = field(lines, "seed")?.parse().ok()?;
        let fill_seed = field(lines, "fill_seed")?.parse().ok()?;
        let fault_ordinal = field(lines, "ordinal")?.parse().ok()?;
        let random_detected = field(lines, "random_detected")?.parse().ok()?;
        let failed_sim_batches = field(lines, "failed_sim_batches")?.parse().ok()?;
        let mut counts = field(lines, "podem")?.split(' ');
        let podem = PodemStats {
            backtracks: counts.next()?.parse().ok()?,
            simulations: counts.next()?.parse().ok()?,
            decisions: counts.next()?.parse().ok()?,
            gate_evals: counts.next()?.parse().ok()?,
        };
        let width = field(lines, "width")?.parse().ok()?;
        if lines.next()? != "section main" {
            return None;
        }
        let mut counts = field(lines, "tally")?.split(' ');
        let tally = TopoffTally {
            untestable: counts.next()?.parse().ok()?,
            aborted: counts.next()?.parse().ok()?,
            escalated: counts.next()?.parse().ok()?,
            rescued: counts.next()?.parse().ok()?,
        };
        let statuses = match field(lines, "status")? {
            "" => Vec::new(),
            codes => codes
                .split(',')
                .map(|code| match code {
                    "u" => Some(FaultStatus::Undetected),
                    "x" => Some(FaultStatus::Untestable),
                    "a" => Some(FaultStatus::Aborted),
                    d => Some(FaultStatus::Detected(d.strip_prefix('d')?.parse().ok()?)),
                })
                .collect::<Option<_>>()?,
        };
        let mut patterns = PatternSet::new(width);
        for _ in 0..field(lines, "npat")?.parse::<usize>().ok()? {
            let bits: Vec<bool> = field(lines, "pat")?.chars().map(|c| c == '1').collect();
            if bits.len() != width {
                return None;
            }
            patterns.push(bits);
        }
        let mut cubes = Vec::new();
        for _ in 0..field(lines, "ncube")?.parse::<usize>().ok()? {
            let bits: Vec<Option<bool>> = field(lines, "cube")?
                .chars()
                .map(|c| match c {
                    '1' => Some(Some(true)),
                    '0' => Some(Some(false)),
                    'X' => Some(None),
                    _ => None,
                })
                .collect::<Option<_>>()?;
            if bits.len() != width {
                return None;
            }
            cubes.push(TestCube::from_bits(bits));
        }
        let state = CkptState {
            design,
            config_hash,
            phase,
            seed,
            fill_seed,
            fault_ordinal,
            random_detected,
            failed_sim_batches,
            podem,
            tally,
            statuses,
            patterns,
            cubes,
        };
        (state.to_body() == body).then_some(state)
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

/// The value of the next line, which must be `<key> <value>`.
fn field<'a>(lines: &mut Lines<'a>, key: &str) -> Option<&'a str> {
    lines.next()?.strip_prefix(key)?.strip_prefix(' ')
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_checkpoint::{fnv1a, frame_record, parse_framed, CancelToken, ChaosConfig};
    use dft_netlist::generators::{systolic_array, SystolicConfig};

    use crate::{Atpg, AtpgConfig, Durability};

    fn sample(seq: u64) -> CkptState {
        let mut patterns = PatternSet::new(5);
        patterns.push(vec![true, false, true, true, false]);
        CkptState {
            design: "mac4".into(),
            config_hash: 0xDEAD_BEEF_0BAD_F00D,
            phase: CkptPhase::Topoff,
            seed: 0x5EED,
            fill_seed: 42 + seq,
            fault_ordinal: 17,
            random_detected: 301,
            failed_sim_batches: 2,
            podem: PodemStats {
                backtracks: 5,
                simulations: 9,
                decisions: 7,
                gate_evals: 120,
            },
            tally: TopoffTally {
                untestable: 1,
                aborted: 2,
                escalated: 3,
                rescued: 4,
            },
            statuses: vec![
                FaultStatus::Undetected,
                FaultStatus::Detected(7),
                FaultStatus::Untestable,
                FaultStatus::Aborted,
            ],
            patterns,
            cubes: vec![TestCube::from_bits(vec![
                Some(true),
                None,
                Some(false),
                None,
                None,
            ])],
        }
    }

    fn journal(name: &str) -> FramedJournal {
        let dir = std::env::temp_dir().join(format!("aidft-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let j = FramedJournal::new(dir.join(name), CKPT_FORMAT);
        let _ = std::fs::remove_file(j.path());
        j
    }

    /// A journal on the same file whose every append is cut short at a
    /// deterministic prefix and fails: the torn tail of a kill mid-write.
    fn tearing(j: &FramedJournal) -> FramedJournal {
        j.clone()
            .with_disk_chaos(ChaosConfig::parse("shortwrite=1.0,seed=1").unwrap())
    }

    fn cleanup(j: &FramedJournal) {
        let _ = std::fs::remove_file(j.path());
        let _ = std::fs::remove_file(dft_checkpoint::scrub::scrub_path(j.path()));
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
        let body = sample(0).to_body();
        let edit = |from: &str, to: &str| CkptState::parse_body(&body.replacen(from, to, 1));
        assert!(edit("phase topoff", "phase sideways").is_none());
        // So is the v1 grammar: a top-off round and a second section.
        assert!(edit("phase topoff", "phase topoff 1").is_none());
        assert!(CkptState::parse_body(&format!("{body}section pre_compaction\n")).is_none());
        assert!(edit("tally 1 2 3 4", "tally 1 2").is_none());
        // A pattern or cube of the wrong width (in bits, not bytes), and
        // a second spelling of a value.
        assert!(edit("pat 10110", "pat 1011").is_none());
        assert!(edit("pat 10110", "pat 1é11").is_none());
        assert!(edit("cube 1X0XX", "cube 1X0XX1").is_none());
        assert!(edit("seed 24301", "seed 024301").is_none());
        // PODEM's per-run counters are u32 except gate evaluations.
        assert!(edit("podem 5 9 7 120", "podem 5 9 7").is_none());
        assert!(edit("podem 5 9 7 120", "podem 4294967296 9 7 120").is_none());
        assert!(edit("podem 5 9 7 120", "podem 5 9 7 4294967296").is_some());
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
            Err(CkptError::NoValidRecord {
                format: CKPT_FORMAT,
                ..
            })
        ));
        cleanup(&j);
    }

    /// The whole journal of a real run, pinned: sys2x2 has untestable
    /// faults and cubes, and a checkpoint every 16 top-off faults gives
    /// five top-off records before the sign-off one. Any change to the
    /// field order, the status codes or the cube spelling moves the
    /// hash.
    #[test]
    fn a_durable_run_writes_the_pinned_journal() {
        let nl = systolic_array(SystolicConfig {
            rows: 2,
            cols: 2,
            width: 4,
        });
        let j = journal("pinned.ckpt");
        let mut dur = Durability::new(CancelToken::new())
            .with_journal(j.clone())
            .checkpoint_every(16);
        Atpg::new(&nl)
            .run_durable(&AtpgConfig::default(), &mut dur)
            .expect("no interruption");
        let bytes = std::fs::read(j.path()).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        let records = text.lines().filter(|l| l.starts_with("ckpt ")).count();
        assert_eq!(
            (fnv1a(&bytes), bytes.len(), records),
            (0x43d5_88af_e99b_744c, 123_759, 6)
        );
        let last = CkptState::load_last(&j).unwrap().0;
        assert_eq!(last.phase, CkptPhase::Signoff);
        assert!(last.statuses.contains(&FaultStatus::Untestable));
        assert!(!last.cubes.is_empty());
        cleanup(&j);
    }
}
