//! Property tests for the `aidft-ckpt-v3` body codec on a
//! `FramedJournal`: frame → parse is the identity for arbitrary states,
//! and the newest complete record always survives torn tails, bit rot
//! and garbage.

use proptest::prelude::*;

use dft_atpg::{CkptPhase, CkptState, PodemStats, TopoffTally, CKPT_FORMAT};
use dft_checkpoint::{frame_record, parse_framed, ChaosConfig, FramedJournal};
use dft_fault::FaultStatus;
use dft_logicsim::{PatternSet, TestCube};

/// SplitMix64: one seed → an arbitrary-but-deterministic state, the
/// same construction idiom the engines use.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn count(&mut self) -> usize {
        self.below(10_000) as usize
    }

    fn state(&mut self) -> CkptState {
        let width = 1 + self.below(24) as usize;
        let name_len = 1 + self.below(12) as usize;
        let design: String = (0..name_len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect();
        let statuses = (0..self.below(40))
            .map(|_| match self.below(4) {
                0 => FaultStatus::Undetected,
                1 => FaultStatus::Detected(self.below(5000) as u32),
                2 => FaultStatus::Untestable,
                _ => FaultStatus::Aborted,
            })
            .collect();
        let mut patterns = PatternSet::new(width);
        for _ in 0..self.below(10) {
            patterns.push((0..width).map(|_| self.next() & 1 == 1).collect());
        }
        let cubes = (0..self.below(8))
            .map(|_| {
                TestCube::from_bits(
                    (0..width)
                        .map(|_| match self.below(5) {
                            0 => Some(true),
                            1 => Some(false),
                            _ => None,
                        })
                        .collect(),
                )
            })
            .collect();
        CkptState {
            design,
            config_hash: self.next(),
            phase: match self.below(3) {
                0 => CkptPhase::Init,
                1 => CkptPhase::Topoff,
                _ => CkptPhase::Signoff,
            },
            seed: self.next(),
            fill_seed: self.next(),
            fault_ordinal: self.next(),
            random_detected: self.below(100_000) as usize,
            failed_sim_batches: self.below(1_000) as usize,
            podem: PodemStats {
                backtracks: self.next() as u32,
                simulations: self.next() as u32,
                decisions: self.next() as u32,
                gate_evals: self.next(),
            },
            tally: TopoffTally {
                untestable: self.count(),
                aborted: self.count(),
                escalated: self.count(),
                rescued: self.count(),
            },
            statuses,
            patterns,
            cubes,
        }
    }
}

fn temp_journal(tag: &str, case: u64) -> FramedJournal {
    let dir = std::env::temp_dir().join(format!("aidft-ckpt-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = FramedJournal::new(dir.join(format!("{tag}-{case}.ckpt")), CKPT_FORMAT);
    std::fs::remove_file(journal.path()).ok();
    journal
}

fn load_last(journal: &FramedJournal) -> Option<CkptState> {
    CkptState::load_last(journal).ok().map(|(state, _)| state)
}

fn cleanup(journal: &FramedJournal) {
    std::fs::remove_file(journal.path()).ok();
    std::fs::remove_file(dft_checkpoint::scrub::scrub_path(journal.path())).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Framing `to_body` and parsing it back is the identity: the
    /// resumable frontier (fault partitions, pattern set, cubes,
    /// tallies, seeds) survives a serialization roundtrip bit-for-bit.
    #[test]
    fn record_roundtrip_is_identity(seed in 0u64..1_000_000, seq in 0u64..1000) {
        let state = Gen(seed).state();
        let record = frame_record(CKPT_FORMAT, seq, &state.to_body());
        let (back_seq, body) = parse_framed(&record, CKPT_FORMAT).expect("own record frames");
        let parsed = CkptState::parse_body(&body).expect("own body parses");
        prop_assert_eq!(back_seq, seq);
        prop_assert_eq!(parsed, state);
    }

    /// Appending through a journal file and loading the last record
    /// returns the newest state, even with earlier records present.
    #[test]
    fn journal_returns_newest_record(seed in 0u64..1_000_000, n in 1u64..4) {
        let mut gen = Gen(seed);
        let states: Vec<CkptState> = (0..n).map(|_| gen.state()).collect();
        let journal = temp_journal("newest", seed);
        for (i, s) in states.iter().enumerate() {
            journal.append(i as u64, &s.to_body()).unwrap();
        }
        let loaded = load_last(&journal).expect("complete records on disk");
        prop_assert_eq!(&loaded, states.last().unwrap());
        cleanup(&journal);
    }

    /// A torn tail — the crash-mid-write case, cut by `shortwrite`
    /// chaos at a seeded length anywhere in the record — never hides
    /// the previous complete record.
    #[test]
    fn torn_tail_is_skipped(seed in 0u64..1_000_000) {
        let mut gen = Gen(seed);
        let good = gen.state();
        let torn = gen.state();
        let journal = temp_journal("torn", seed);
        journal.append(0, &good.to_body()).unwrap();
        let chaos = ChaosConfig::parse(&format!("shortwrite=1.0,seed={seed}")).unwrap();
        let tearing = journal.clone().with_disk_chaos(chaos);
        prop_assert!(tearing.append(1, &torn.to_body()).is_err());
        let loaded = load_last(&journal).expect("first record intact");
        prop_assert_eq!(loaded, good);
        cleanup(&journal);
    }

    /// A single bit flip at ANY byte offset — the silent-bitrot case —
    /// never panics the loader, is always detected by the record
    /// checksum, and never yields a silently-wrong state: `load_last`
    /// either errors (every record damaged) or returns one of the
    /// states that were actually written.
    #[test]
    fn single_bit_flip_is_never_silently_wrong(
        seed in 0u64..1_000_000,
        offset_pick in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let mut gen = Gen(seed);
        let a = gen.state();
        let b = gen.state();
        let journal = temp_journal("bitflip", seed);
        journal.append(0, &a.to_body()).unwrap();
        journal.append(1, &b.to_body()).unwrap();
        let mut bytes = std::fs::read(journal.path()).unwrap();
        let offset = offset_pick % bytes.len();
        bytes[offset] ^= 1 << bit;
        std::fs::write(journal.path(), &bytes).unwrap();
        // A flip in record 0 leaves `b` the newest intact record; a
        // flip in record 1 must surface `a`, never a mutated `b` — the
        // FNV trailer makes any single-byte change detectable. A flip
        // that damages the framing of both regions (e.g. the newline
        // gluing the records) is a detected `Err`, also acceptable.
        if let Some(loaded) = load_last(&journal) {
            prop_assert!(loaded == b || loaded == a);
        }
        cleanup(&journal);
    }

    /// Arbitrary garbage appended to the journal (partial lines, bit
    /// rot) is treated as absent, not fatal.
    #[test]
    fn trailing_garbage_is_ignored(seed in 0u64..1_000_000, glen in 0usize..200) {
        let mut gen = Gen(seed);
        let state = gen.state();
        let journal = temp_journal("garbage", seed);
        journal.append(7, &state.to_body()).unwrap();
        let garbage: Vec<u8> = (0..glen).map(|_| (gen.below(95) + 32) as u8).collect();
        let mut bytes = std::fs::read(journal.path()).unwrap();
        bytes.extend_from_slice(&garbage);
        std::fs::write(journal.path(), &bytes).unwrap();
        let loaded = load_last(&journal).expect("complete record survives");
        prop_assert_eq!(loaded, state);
        cleanup(&journal);
    }
}

/// Exhaustive companion to the proptest: flips one bit at EVERY byte
/// offset of a two-record journal and checks the same invariant at
/// each — never a panic, never a state that was not written.
#[test]
fn exhaustive_bit_flip_sweep_never_yields_wrong_state() {
    let mut gen = Gen(0xF11B);
    let a = gen.state();
    let b = gen.state();
    let journal = temp_journal("sweep", 0);
    journal.append(0, &a.to_body()).unwrap();
    journal.append(1, &b.to_body()).unwrap();
    let pristine = std::fs::read(journal.path()).unwrap();
    for offset in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[offset] ^= 0x01;
        std::fs::write(journal.path(), &bytes).unwrap();
        if let Some(loaded) = load_last(&journal) {
            assert!(
                loaded == b || loaded == a,
                "offset {offset}: flip produced a state that was never written"
            );
        }
    }
    cleanup(&journal);
}
