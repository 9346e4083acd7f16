//! The `aidft-telemetry-v1` event stream: an append-only JSONL journal
//! of fleet state transitions.
//!
//! Where the scrape endpoint answers "what does the fleet look like
//! right now", the event stream answers "how did it get there": every
//! breaker transition, quarantine verdict, checkpoint write, retest
//! grant, and chaos injection is one JSON line. Lines are batched in
//! memory and flushed by the sampler tick as framed
//! [`FramedJournal`] records (`ckpt aidft-telemetry-v1 <seq>` … `end
//! <crc>`), so the stream inherits the checkpoint layer's torn-tail
//! discipline: a killed run leaves at worst one damaged record, and
//! [`read_events`] replays everything that survived, oldest-first.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dft_checkpoint::{CkptError, FramedJournal};

use crate::gauges::SessionState;

/// Journal format id for the event stream.
pub const EVENTS_FORMAT: &str = "aidft-telemetry-v1";

/// Event kinds recognised by [`validate_events`], in no particular
/// order. Kept in sync with [`TelemetryEvent::kind`].
pub const EVENT_KINDS: [&str; 6] = [
    "session",
    "quarantine",
    "checkpoint",
    "chaos",
    "retest",
    "storage",
];

/// One fleet state transition, serialised as a single JSON line:
/// `{"v":1,"seq":N,"ms":M,"kind":"...",...}` where `ms` is
/// milliseconds since the telemetry session started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryEvent {
    /// A die's breaker moved between states (attempt is the reconnect
    /// attempt ordinal driving the transition).
    Session {
        die: u32,
        from: SessionState,
        to: SessionState,
        attempt: u64,
    },
    /// The resilience layer issued a quarantine verdict for a die.
    Quarantine {
        die: u32,
        defective: bool,
        attempts: u32,
    },
    /// The server wrote (or failed to write) a fleet checkpoint.
    Checkpoint { seq: u64, bytes: u64, ok: bool },
    /// A chaos fault fired at a named injection site.
    Chaos {
        site: &'static str,
        die: u32,
        ordinal: u64,
    },
    /// A session was granted a retest stream of failing windows.
    Retest { die: u32, windows: u64 },
    /// The storage layer healed a journal load: damaged records were
    /// stepped over and/or the record came from a fallback replica.
    Storage {
        op: &'static str,
        damaged: u64,
        replica: u32,
    },
}

impl TelemetryEvent {
    /// The `kind` discriminator used in the JSON line.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::Session { .. } => "session",
            TelemetryEvent::Quarantine { .. } => "quarantine",
            TelemetryEvent::Checkpoint { .. } => "checkpoint",
            TelemetryEvent::Chaos { .. } => "chaos",
            TelemetryEvent::Retest { .. } => "retest",
            TelemetryEvent::Storage { .. } => "storage",
        }
    }

    /// Renders the event as one JSON line (no trailing newline), with
    /// keys in stable order.
    pub fn to_json_line(&self, seq: u64, ms: u64) -> String {
        let head = format!(
            "{{\"v\":1,\"seq\":{seq},\"ms\":{ms},\"kind\":\"{}\"",
            self.kind()
        );
        let tail = match self {
            TelemetryEvent::Session {
                die,
                from,
                to,
                attempt,
            } => format!(
                ",\"die\":{die},\"from\":\"{}\",\"to\":\"{}\",\"attempt\":{attempt}}}",
                from.as_str(),
                to.as_str()
            ),
            TelemetryEvent::Quarantine {
                die,
                defective,
                attempts,
            } => format!(",\"die\":{die},\"defective\":{defective},\"attempts\":{attempts}}}"),
            TelemetryEvent::Checkpoint { seq, bytes, ok } => {
                format!(",\"ckpt_seq\":{seq},\"bytes\":{bytes},\"ok\":{ok}}}")
            }
            TelemetryEvent::Chaos { site, die, ordinal } => {
                format!(",\"site\":\"{site}\",\"die\":{die},\"ordinal\":{ordinal}}}")
            }
            TelemetryEvent::Retest { die, windows } => {
                format!(",\"die\":{die},\"windows\":{windows}}}")
            }
            TelemetryEvent::Storage {
                op,
                damaged,
                replica,
            } => format!(",\"op\":\"{op}\",\"damaged\":{damaged},\"replica\":{replica}}}"),
        };
        head + &tail
    }
}

/// The buffered writer behind the event stream. `emit` is cheap (one
/// mutex push, no I/O); the sampler tick calls `EventLog::flush` to
/// append the batch as one framed record, keeping file writes off the
/// fleet's hot paths entirely.
#[derive(Debug)]
pub struct EventLog {
    journal: FramedJournal,
    buf: Mutex<Vec<String>>,
    next_seq: AtomicU64,
    next_record: AtomicU64,
    emitted: AtomicU64,
    dropped_writes: AtomicU64,
}

impl EventLog {
    /// An event log journaling to `path` (created on first flush).
    pub fn new(path: impl Into<PathBuf>) -> EventLog {
        EventLog {
            journal: FramedJournal::new(path, EVENTS_FORMAT),
            buf: Mutex::new(Vec::new()),
            next_seq: AtomicU64::new(0),
            next_record: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            dropped_writes: AtomicU64::new(0),
        }
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Total events emitted so far (buffered or flushed).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Queues one event line, stamped `ms` since session start. Seq
    /// allocation happens under the buffer lock so concurrent emitters
    /// can't interleave lines out of seq order within a batch.
    pub(crate) fn emit(&self, event: &TelemetryEvent, ms: u64) {
        let mut buf = self.buf.lock().unwrap();
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        buf.push(event.to_json_line(seq, ms));
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Appends all buffered lines as one framed record. Write failures
    /// are counted, not propagated — telemetry must never abort a fleet
    /// run over a full disk.
    pub(crate) fn flush(&self) {
        let batch: Vec<String> = {
            let mut buf = self.buf.lock().unwrap();
            if buf.is_empty() {
                return;
            }
            std::mem::take(&mut *buf)
        };
        let mut body = batch.join("\n");
        body.push('\n');
        let record = self.next_record.fetch_add(1, Ordering::Relaxed);
        if self.journal.append(record, &body).is_err() {
            self.dropped_writes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Replays every event line that survived in the journal at `path`,
/// oldest-first. Damaged records (torn tails from a kill) are skipped,
/// matching checkpoint recovery semantics.
pub fn read_events(path: &Path) -> Result<Vec<String>, CkptError> {
    let records = FramedJournal::new(path, EVENTS_FORMAT).load_all()?;
    Ok(records
        .into_iter()
        .flat_map(|(_, body)| body.lines().map(str::to_owned).collect::<Vec<_>>())
        .collect())
}

/// Summary of a validated event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventStreamStats {
    /// Event lines recovered.
    pub events: usize,
    /// Quarantine verdict events among them.
    pub quarantines: usize,
}

/// Structural validation of an event stream: every line must carry the
/// v1 envelope, a known `kind`, and strictly increasing `seq`. Returns
/// counts on success, a description of the first bad line otherwise.
pub fn validate_events(path: &Path) -> Result<EventStreamStats, String> {
    let lines = read_events(path).map_err(|e| e.to_string())?;
    let mut last_seq: Option<u64> = None;
    let mut quarantines = 0usize;
    for (i, line) in lines.iter().enumerate() {
        let rest = line
            .strip_prefix("{\"v\":1,\"seq\":")
            .ok_or_else(|| format!("line {i}: missing v1 envelope: {line}"))?;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        let seq: u64 = digits
            .parse()
            .map_err(|_| format!("line {i}: unparseable seq: {line}"))?;
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!("line {i}: seq {seq} not above {prev}"));
            }
        }
        last_seq = Some(seq);
        let kind = EVENT_KINDS
            .iter()
            .find(|k| line.contains(&format!("\"kind\":\"{k}\"")))
            .ok_or_else(|| format!("line {i}: unknown event kind: {line}"))?;
        if *kind == "quarantine" {
            quarantines += 1;
        }
    }
    Ok(EventStreamStats {
        events: lines.len(),
        quarantines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aidft-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn event_lines_carry_envelope_and_kind() {
        let ev = TelemetryEvent::Session {
            die: 3,
            from: SessionState::Closed,
            to: SessionState::Backoff,
            attempt: 1,
        };
        assert_eq!(
            ev.to_json_line(7, 120),
            "{\"v\":1,\"seq\":7,\"ms\":120,\"kind\":\"session\",\"die\":3,\
             \"from\":\"closed\",\"to\":\"backoff\",\"attempt\":1}"
        );
        let ev = TelemetryEvent::Checkpoint {
            seq: 2,
            bytes: 512,
            ok: true,
        };
        assert!(ev.to_json_line(0, 0).contains("\"ckpt_seq\":2"));
    }

    #[test]
    fn log_batches_flushes_and_replays() {
        let log = EventLog::new(temp("events.jsonl"));
        log.emit(
            &TelemetryEvent::Quarantine {
                die: 9,
                defective: true,
                attempts: 3,
            },
            5,
        );
        log.emit(&TelemetryEvent::Retest { die: 2, windows: 4 }, 6);
        log.flush();
        log.emit(
            &TelemetryEvent::Chaos {
                site: "drop-conn",
                die: 1,
                ordinal: 42,
            },
            9,
        );
        log.flush();
        log.flush(); // empty buffer: no extra record
        assert_eq!(log.emitted(), 3);

        let lines = read_events(log.path()).unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"quarantine\""));
        assert!(lines[2].contains("\"site\":\"drop-conn\""));
        let stats = validate_events(log.path()).unwrap();
        assert_eq!(
            stats,
            EventStreamStats {
                events: 3,
                quarantines: 1
            }
        );
        std::fs::remove_file(log.path()).unwrap();
    }

    #[test]
    fn validation_rejects_seq_regressions() {
        let path = temp("bad-events.jsonl");
        let j = FramedJournal::new(&path, EVENTS_FORMAT);
        j.append(
            0,
            "{\"v\":1,\"seq\":1,\"ms\":0,\"kind\":\"retest\",\"die\":0,\"windows\":1}\n",
        )
        .unwrap();
        j.append(
            1,
            "{\"v\":1,\"seq\":1,\"ms\":1,\"kind\":\"retest\",\"die\":0,\"windows\":1}\n",
        )
        .unwrap();
        let err = validate_events(&path).unwrap_err();
        assert!(err.contains("not above"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
