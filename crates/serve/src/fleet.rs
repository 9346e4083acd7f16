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
use std::time::Duration;

use dft_checkpoint::CkptError;
use dft_compress::{pack_bits, unpack_bits};
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

fn bits_to_hex(bits: &[bool]) -> String {
    let mut s = String::with_capacity(bits.len().div_ceil(8) * 2 + 8);
    s.push_str(&format!("{}:", bits.len()));
    for b in pack_bits(bits) {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_to_bits(text: &str) -> Option<Vec<bool>> {
    let (count, hex) = text.split_once(':')?;
    let count: usize = count.parse().ok()?;
    if hex.len() % 2 != 0 {
        return None;
    }
    let bytes: Option<Vec<u8>> = (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).ok())
        .collect();
    unpack_bits(&bytes?, count)
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
        let mut body = format!(
            "design {}\nconfig {:016x}\ndies {}\n",
            self.design, self.fingerprint, self.dies
        );
        for d in self.done.values() {
            let sigs: Vec<String> = d.signatures.iter().map(|s| bits_to_hex(s)).collect();
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

    /// Parses a record body back; `None` on any structural problem (the
    /// journal load skips such a record as damaged, like one whose
    /// checksum fails).
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
        Some(FleetState {
            design,
            fingerprint,
            dies,
            done,
        })
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
