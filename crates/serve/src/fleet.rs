//! Durable fleet state: per-die outcomes, the `aidft-serve-v2`
//! checkpoint body, and the human-facing summary.
//!
//! The fleet journal is a [`dft_checkpoint::FramedJournal`], the same
//! journal type as the ATPG checkpoints: framed, checksummed,
//! append-only records; torn tails skipped on load; realignment on
//! append. This module owns only the body codec — a line-oriented dump
//! of every finished die, full signatures included, so a resumed run
//! restores the exact final state without re-testing completed dies.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use dft_checkpoint::CkptError;
use dft_compress::{packed_bytes, unpack_bits};
use dft_repair::ShipGrade;

/// Journal format id for fleet checkpoints. v2 added the quarantined
/// flag to each die record (and `-` for an empty signature list); v1
/// journals are refused by the framing layer's format check, exactly
/// like any other foreign checkpoint.
pub const SERVE_FORMAT: &str = "aidft-serve-v2";

/// The final record of one tested die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DieOutcome {
    /// Fleet index.
    pub die_id: u32,
    /// `true` when the die carries a seeded defect.
    pub defective: bool,
    /// `true` when every window's signature matched golden.
    pub passed: bool,
    /// `true` when mismatches triggered the adaptive retest pass.
    pub retested: bool,
    /// `true` when the circuit breaker tripped: the die exhausted its
    /// reconnect budget and is `Untestable` — no verdict on its
    /// silicon exists, only on its reachability.
    pub quarantined: bool,
    /// Ship grade from the harvest path (`Full` for passing dies,
    /// `Scrap` for quarantined ones — untestable silicon never ships).
    pub grade: ShipGrade,
    /// The die's uploaded MISR signature per window (post-retest).
    /// Empty for quarantined dies.
    pub signatures: Vec<Vec<bool>>,
}

/// The whole fleet's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetState {
    /// Design name (resume refuses a mismatch).
    pub design: String,
    /// [`crate::ServeConfig::fingerprint`] (resume refuses a mismatch).
    pub fingerprint: u64,
    /// Fleet size.
    pub dies: usize,
    /// Finished dies, keyed by id (deterministic order).
    pub done: BTreeMap<u32, DieOutcome>,
}

/// Appends the decimal spelling of `n` without the `fmt` machinery,
/// which dominated the cost of a body with a thousand dies.
fn push_decimal(out: &mut String, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `bits` as `<count>:<hex>`: the decimal bit count, then
/// [`dft_compress::pack_bits`]' bytes as lowercase hex pairs.
fn push_bits_hex(out: &mut String, bits: &[bool]) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    push_decimal(out, bits.len());
    out.push(':');
    for b in packed_bytes(bits) {
        out.push(char::from(HEX[usize::from(b >> 4)]));
        out.push(char::from(HEX[usize::from(b & 0xF)]));
    }
}

/// Inverts [`push_bits_hex`]: lowercase hex pairs, no set padding
/// bits. [`FleetState::parse_body`] refuses any other spelling of the
/// count.
fn hex_to_bits(text: &str) -> Option<Vec<bool>> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    }
    let (count, hex) = text.split_once(':')?;
    let bytes: Option<Vec<u8>> = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| match *pair {
            [hi, lo] => Some((nibble(hi)? << 4) | nibble(lo)?),
            _ => None,
        })
        .collect();
    unpack_bits(&bytes?, count.parse().ok()?)
}

impl FleetState {
    /// A fresh state for `design` with no dies finished.
    pub fn new(design: &str, fingerprint: u64, dies: usize) -> FleetState {
        FleetState {
            design: design.to_owned(),
            fingerprint,
            dies,
            done: BTreeMap::new(),
        }
    }

    /// Serializes to the `aidft-serve-v2` record body (the part between
    /// the framing header and trailer). A quarantined die has no
    /// signatures; the empty list serializes as `-`.
    pub fn to_body(&self) -> String {
        let mut body = String::with_capacity(64 + 48 * self.done.len());
        let _ = write!(
            body,
            "design {}\nconfig {:016x}\ndies {}\n",
            self.design, self.fingerprint, self.dies
        );
        for d in self.done.values() {
            body.push_str("die ");
            push_decimal(&mut body, d.die_id as usize);
            for flag in [d.defective, d.passed, d.retested, d.quarantined] {
                body.push_str(if flag { " 1" } else { " 0" });
            }
            let _ = write!(body, " {} ", d.grade);
            if d.signatures.is_empty() {
                body.push('-');
            }
            for (i, sig) in d.signatures.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                push_bits_hex(&mut body, sig);
            }
            body.push('\n');
        }
        body
    }

    /// Parses a record body back; `None` on any structural problem and
    /// on any body [`FleetState::to_body`] would not write byte for byte
    /// (the journal load skips such a record as damaged, like one whose
    /// checksum fails). Every state thus has exactly one body.
    pub fn parse_body(body: &str) -> Option<FleetState> {
        let mut lines = body.lines();
        let design = lines.next()?.strip_prefix("design ")?.to_owned();
        let fingerprint = u64::from_str_radix(lines.next()?.strip_prefix("config ")?, 16).ok()?;
        let dies: usize = lines.next()?.strip_prefix("dies ")?.parse().ok()?;
        let mut done = BTreeMap::new();
        for line in lines {
            let mut f = line.strip_prefix("die ")?.split(' ');
            let die_id: u32 = f.next()?.parse().ok()?;
            let defective = f.next()? == "1";
            let passed = f.next()? == "1";
            let retested = f.next()? == "1";
            let quarantined = f.next()? == "1";
            let grade: ShipGrade = f.next()?.parse().ok()?;
            let sigs_field = f.next()?;
            let signatures: Option<Vec<Vec<bool>>> = if sigs_field == "-" {
                Some(Vec::new())
            } else {
                sigs_field.split(',').map(hex_to_bits).collect()
            };
            if f.next().is_some() {
                return None;
            }
            done.insert(
                die_id,
                DieOutcome {
                    die_id,
                    defective,
                    passed,
                    retested,
                    quarantined,
                    grade,
                    signatures: signatures?,
                },
            );
        }
        let state = FleetState {
            design,
            fingerprint,
            dies,
            done,
        };
        (state.to_body() == body).then_some(state)
    }

    /// Loads the newest fleet record of `journal` whose framing and
    /// body both parse, refusing a design or config-fingerprint
    /// mismatch (resuming someone else's fleet would silently ship
    /// wrong verdicts).
    pub fn resume(
        journal: &dft_checkpoint::FramedJournal,
        design: &str,
        fingerprint: u64,
    ) -> Result<FleetState, CkptError> {
        Self::resume_with_report(journal, design, fingerprint).map(|(state, _)| state)
    }

    /// [`FleetState::resume`] plus the storage-layer
    /// [`dft_checkpoint::RecoveryReport`]: how many damaged records
    /// the load stepped over and which replica served the winning one.
    /// Any intact record resumes to a bit-identical final fleet, so a
    /// degraded report is an observability signal (scrub metric,
    /// `storage` telemetry event), never an error.
    pub fn resume_with_report(
        journal: &dft_checkpoint::FramedJournal,
        design: &str,
        fingerprint: u64,
    ) -> Result<(FleetState, dft_checkpoint::RecoveryReport), CkptError> {
        let ((_seq, state), report) = journal.load_last_parsed(FleetState::parse_body)?;
        dft_checkpoint::verify_identity(&state.design, state.fingerprint, design, fingerprint)?;
        Ok((state, report))
    }

    /// Aggregates the summary counters from the per-die outcomes.
    /// Quarantined dies are *not* failures — no verdict on their
    /// silicon exists — so they tally only as quarantined/scrapped;
    /// `untested` covers them plus any die without a recorded outcome,
    /// and `dppm_risk` prices the exposure of the quarantine set at
    /// the fleet's expected defect rate (defects per million if the
    /// untestable dies had shipped untested).
    pub fn summary(&self, windows_per_die: usize, defect_rate: f64) -> FleetSummary {
        let mut s = FleetSummary {
            dies: self.dies,
            windows_per_die,
            ..FleetSummary::default()
        };
        for d in self.done.values() {
            if d.quarantined {
                s.quarantined += 1;
                s.scrapped += 1;
                continue;
            }
            s.tested += 1;
            if d.passed {
                s.passed += 1;
            } else {
                s.failed += 1;
            }
            if d.defective {
                s.defective += 1;
            }
            if d.retested {
                s.retested += 1;
            }
            match d.grade {
                ShipGrade::Full => s.full += 1,
                ShipGrade::Degraded(_) => s.harvested += 1,
                ShipGrade::Scrap => s.scrapped += 1,
            }
            s.signatures += d.signatures.len();
        }
        s.untested = s.dies.saturating_sub(s.tested);
        s.dppm_risk = (defect_rate.clamp(0.0, 1.0) * 1e6 * s.quarantined as f64
            / s.dies.max(1) as f64)
            .round() as u64;
        s
    }
}

/// Deterministic fleet totals (the golden-test payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSummary {
    /// Fleet size.
    pub dies: usize,
    /// Dies that reached a verdict.
    pub tested: usize,
    /// Dies whose every signature matched golden.
    pub passed: usize,
    /// Dies with at least one confirmed mismatch.
    pub failed: usize,
    /// Dies carrying a seeded defect.
    pub defective: usize,
    /// Dies routed through the adaptive retest pass.
    pub retested: usize,
    /// Failing dies that shipped degraded (harvest path).
    pub harvested: usize,
    /// Failing dies scrapped by the harvesting floor.
    pub scrapped: usize,
    /// Dies shipped at full grade.
    pub full: usize,
    /// Dies quarantined `Untestable` by a tripped circuit breaker.
    pub quarantined: usize,
    /// Dies with no verdict on their silicon: quarantined plus any
    /// still pending (a completed fleet has `untested == quarantined`).
    pub untested: usize,
    /// Defect exposure of the quarantine set, in defects per million:
    /// what shipping the untestable dies blind would cost at the
    /// fleet's expected defect rate.
    pub dppm_risk: u64,
    /// Signatures uploaded and verified (final, post-retest).
    pub signatures: usize,
    /// Windows in the broadcast.
    pub windows_per_die: usize,
}

impl FleetSummary {
    /// Renders the human report. Only the wall-clock suffix varies
    /// between runs; CI strips it (the `( ... s)` form every flow report
    /// uses) before diffing.
    pub fn render(&self, wall: Duration) -> String {
        format!(
            "fleet: {} dies, {} windows each ({:.3} s)\n\
             tested {} | passed {} | failed {} | defective {}\n\
             retested {} | full {} | harvested {} | scrapped {}\n\
             quarantined {} | untested {} | dppm-risk {}\n\
             signatures verified {}\n",
            self.dies,
            self.windows_per_die,
            wall.as_secs_f64(),
            self.tested,
            self.passed,
            self.failed,
            self.defective,
            self.retested,
            self.full,
            self.harvested,
            self.scrapped,
            self.quarantined,
            self.untested,
            self.dppm_risk,
            self.signatures,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_compress::pack_bits;
    use proptest::prelude::*;

    /// The `format!`-per-byte signature writer: oracle for `to_body`.
    fn oracle_bits_to_hex(bits: &[bool]) -> String {
        let mut s = String::with_capacity(bits.len().div_ceil(8) * 2 + 8);
        s.push_str(&format!("{}:", bits.len()));
        for b in pack_bits(bits) {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// The `format!`/`join` body writer: the bytes every fleet journal
    /// record must keep.
    fn oracle_to_body(st: &FleetState) -> String {
        let mut body = format!(
            "design {}\nconfig {:016x}\ndies {}\n",
            st.design, st.fingerprint, st.dies
        );
        for d in st.done.values() {
            let sigs: Vec<String> = d.signatures.iter().map(|s| oracle_bits_to_hex(s)).collect();
            body.push_str(&format!(
                "die {} {} {} {} {} {} {}\n",
                d.die_id,
                u8::from(d.defective),
                u8::from(d.passed),
                u8::from(d.retested),
                u8::from(d.quarantined),
                d.grade,
                if sigs.is_empty() {
                    "-".to_owned()
                } else {
                    sigs.join(",")
                }
            ));
        }
        body
    }

    /// SplitMix64 state generator: one seed → one fleet state.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }

        fn flag(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// 0–64 finished dies: quarantined ones (`-`), and tested ones
        /// with every grade and 1–4 signatures of 1–100 bits.
        fn state(&mut self) -> FleetState {
            let finished = self.below(65) as u32;
            let mut st = FleetState::new(
                ["mac4", "sys2x2"][self.below(2) as usize],
                self.next(),
                finished as usize + self.below(8) as usize,
            );
            for die_id in 0..finished {
                let die_id = die_id * (1 + self.below(3) as u32);
                let out = if self.below(5) == 0 {
                    DieOutcome {
                        die_id,
                        defective: self.flag(),
                        passed: false,
                        retested: false,
                        quarantined: true,
                        grade: ShipGrade::Scrap,
                        signatures: Vec::new(),
                    }
                } else {
                    let width = 1 + self.below(100) as usize;
                    DieOutcome {
                        die_id,
                        defective: self.flag(),
                        passed: self.flag(),
                        retested: self.flag(),
                        quarantined: false,
                        grade: match self.below(3) {
                            0 => ShipGrade::Full,
                            1 => ShipGrade::Degraded(self.below(12) as usize),
                            _ => ShipGrade::Scrap,
                        },
                        signatures: (0..1 + self.below(4))
                            .map(|_| (0..width).map(|_| self.flag()).collect())
                            .collect(),
                    }
                };
                st.done.insert(die_id, out);
            }
            st
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `to_body` writes exactly the oracle's bytes, and
        /// `parse_body` reads them back to the same state.
        #[test]
        fn body_matches_the_oracle_and_roundtrips(seed in 0u64..u64::MAX) {
            let st = Gen(seed).state();
            let body = st.to_body();
            prop_assert_eq!(&body, &oracle_to_body(&st));
            prop_assert_eq!(FleetState::parse_body(&body), Some(st));
        }

        /// A body that passed its checksum is still outside input:
        /// arbitrary text and valid bodies with characters replaced,
        /// inserted or deleted parse to a state or to `None`, never a
        /// panic, and whatever parses writes back byte for byte.
        #[test]
        fn parse_body_never_panics(seed in 0u64..u64::MAX, edits in 0usize..8) {
            const PALETTE: &[char] = &[
                'é', '€', '+', '-', ' ', ',', ':', '\n', 'A', 'F', 'g', '0', '1', '9', 'f',
            ];
            let mut g = Gen(seed);
            let noise: String = (0..g.below(64))
                .map(|_| PALETTE[g.below(PALETTE.len() as u64) as usize])
                .collect();
            let mut text: Vec<char> = g.state().to_body().chars().collect();
            for _ in 0..edits {
                let at = g.below(text.len() as u64 + 1) as usize;
                let c = PALETTE[g.below(PALETTE.len() as u64) as usize];
                match g.below(3) {
                    0 if at < text.len() => text[at] = c,
                    1 if at < text.len() => {
                        text.remove(at);
                    }
                    _ => text.insert(at, c),
                }
            }
            let mutated: String = text.into_iter().collect();
            for body in [noise, mutated] {
                if let Some(st) = FleetState::parse_body(&body) {
                    prop_assert_eq!(st.to_body(), body);
                }
            }
        }
    }

    /// A multi-byte character inside the hex used to panic on a slice
    /// boundary, and a signed hex pair gave the same bits a second
    /// spelling. Both bodies are refused, and a journal holding one
    /// resumes from the intact record before it.
    #[test]
    fn non_canonical_signatures_are_refused() {
        let good = "design mac4\nconfig 00000000000000ff\ndies 4\ndie 0 0 1 0 0 full 8:a1\n";
        assert!(FleetState::parse_body(good).is_some());
        for sig in [
            "8:aé1", "8:+f", "+8:0f", "08:0f", "8:A1", "8:a", ":a1", "8:a1 ",
        ] {
            let body =
                format!("design mac4\nconfig 00000000000000ff\ndies 4\ndie 0 0 1 0 0 full {sig}\n");
            assert_eq!(FleetState::parse_body(&body), None, "{sig:?}");
        }
        let dir = std::env::temp_dir().join(format!("aidft-fleet-canon-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");
        let j = dft_checkpoint::FramedJournal::new(&path, SERVE_FORMAT);
        j.append(0, good).unwrap();
        let bad = "design mac4\nconfig 00000000000000ff\ndies 4\ndie 0 0 1 0 0 full 8:aé1\n";
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(&dft_checkpoint::frame_record(SERVE_FORMAT, 1, bad));
        std::fs::write(&path, text).unwrap();
        let resumed = FleetState::resume(&j, "mac4", 0xff).unwrap();
        assert_eq!(resumed, FleetState::parse_body(good).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each field has one spelling, the one `to_body` writes: a body
    /// that spells a state any other way is refused.
    #[test]
    fn non_canonical_records_are_refused() {
        let head = "design mac4\nconfig 00000000000000ff\ndies 4\n";
        let die0 = "die 0 0 1 0 0 full 8:a1\n";
        let die2 = "die 2 1 0 1 0 degraded-1 8:0f\n";
        let good = format!("{head}{die0}{die2}");
        assert_eq!(
            FleetState::parse_body(&good).map(|st| st.to_body()),
            Some(good.clone())
        );
        for (what, body) in [
            ("signed die id", good.replace("die 0 ", "die +0 ")),
            ("zero-padded die id", good.replace("die 0 ", "die 00 ")),
            ("zero-padded fleet size", good.replace("dies 4", "dies 04")),
            ("flag 2", good.replace("die 0 0 1", "die 0 0 2")),
            ("config FF", good.replace("00000000000000ff", "FF")),
            ("degraded-01", good.replace("degraded-1", "degraded-01")),
            ("repeated die", format!("{good}{die2}")),
            ("dies out of order", format!("{head}{die2}{die0}")),
            ("CRLF line endings", good.replace('\n', "\r\n")),
        ] {
            assert_eq!(FleetState::parse_body(&body), None, "{what}: {body:?}");
        }
    }

    fn sample() -> FleetState {
        let mut st = FleetState::new("mac4", 0xABCD, 4);
        st.done.insert(
            0,
            DieOutcome {
                die_id: 0,
                defective: false,
                passed: true,
                retested: false,
                quarantined: false,
                grade: ShipGrade::Full,
                signatures: vec![vec![true, false, true], vec![false; 3]],
            },
        );
        st.done.insert(
            2,
            DieOutcome {
                die_id: 2,
                defective: true,
                passed: false,
                retested: true,
                quarantined: false,
                grade: ShipGrade::Degraded(1),
                signatures: vec![vec![true; 3], vec![true, true, false]],
            },
        );
        // A tripped breaker: no signatures ever verified, `-` on the
        // wire, scrap disposition.
        st.done.insert(
            3,
            DieOutcome {
                die_id: 3,
                defective: true,
                passed: false,
                retested: false,
                quarantined: true,
                grade: ShipGrade::Scrap,
                signatures: Vec::new(),
            },
        );
        st
    }

    #[test]
    fn body_roundtrip() {
        let st = sample();
        assert_eq!(FleetState::parse_body(&st.to_body()), Some(st));
        assert!(FleetState::parse_body("design x\nbogus").is_none());
    }

    #[test]
    fn journal_roundtrip_and_mismatch_refusal() {
        let dir = std::env::temp_dir().join(format!("aidft-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");
        let _ = std::fs::remove_file(&path);
        let j = dft_checkpoint::FramedJournal::new(&path, SERVE_FORMAT);
        let st = sample();
        j.append(0, &st.to_body()).unwrap();
        assert_eq!(FleetState::resume(&j, "mac4", 0xABCD).unwrap(), st);
        assert!(FleetState::resume(&j, "other", 0xABCD).is_err());
        assert!(FleetState::resume(&j, "mac4", 0x1234).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn summary_counts() {
        let s = sample().summary(2, 0.25);
        assert_eq!(s.tested, 2);
        assert_eq!(s.passed, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.retested, 1);
        assert_eq!(s.harvested, 1);
        assert_eq!(s.full, 1);
        assert_eq!(s.signatures, 4);
        // The quarantined die is untested and scrapped, not failed.
        assert_eq!(s.quarantined, 1);
        assert_eq!(s.scrapped, 1);
        assert_eq!(s.untested, 2); // die 3 quarantined + die 1 pending
                                   // 0.25 defect rate * 1 quarantined / 4 dies = 62500 DPPM.
        assert_eq!(s.dppm_risk, 62_500);
        // Render is deterministic apart from the stripped time suffix.
        let r = s.render(Duration::from_millis(1));
        assert!(r.contains("tested 2 | passed 1 | failed 1"));
        assert!(r.contains("quarantined 1 | untested 2 | dppm-risk 62500"));
    }
}
