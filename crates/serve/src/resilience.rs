//! The fleet resilience layer: deterministic reconnect backoff and the
//! per-die circuit breaker.
//!
//! The test floor's failure model is richer than drops and tears: a
//! tester can stall mid-stream, a connection can go half-open, an
//! upload can arrive corrupted, and a die can be *unreachable for
//! good*. The service must degrade instead of hanging or lying:
//!
//! * **Backoff** — a reconnecting die sleeps a deterministic,
//!   per-`(die, attempt)` jittered exponential delay instead of
//!   hot-looping ([`BackoffPolicy`]). The schedule is a pure function
//!   of `(seed, die, attempt)`, so it is identical across thread
//!   counts and replays — timing changes, state never does.
//! * **Circuit breaker** — each die walks Closed → Backoff →
//!   Quarantined: a failed session re-arms the backoff, and once the
//!   reconnect budget ([`crate::ServeConfig::max_reconnects`]) is
//!   exhausted the breaker trips and the die is quarantined into the
//!   `Untestable` verdict class ([`ClientOutcome::Quarantined`]). The
//!   fleet always completes; quarantined dies are reported with
//!   DPPM-risk accounting instead of blocking the floor. The walk is
//!   mirrored live in the telemetry gauges
//!   ([`dft_telemetry::SessionState`]) and the `aidft-telemetry-v1`
//!   event stream — observation only, never consulted for a decision.
//! * **Deadlines** — sockets carry read/write timeouts
//!   ([`apply_deadlines`]) so a stalled or half-open peer surfaces as
//!   [`FrameError::Timeout`](crate::FrameError::Timeout) in bounded
//!   time and can never hang a connection thread.
//!
//! The load-bearing invariant: quarantine decisions key off
//! deterministic attempt counts and chaos ordinals, never wall clock.
//! Deadlines and backoff affect *liveness only* — which verdict a die
//! gets is decided by the same pure functions on every run.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

use crate::frame::FrameError;
use crate::stimulus::ServeConfig;

/// Exponent cap for the backoff schedule: delays grow `base * 2^n` up
/// to `base * 2^BACKOFF_EXP_CAP`, then stay in that slot.
const BACKOFF_EXP_CAP: u32 = 5;

/// Absolute ceiling on a single backoff delay, so even a misconfigured
/// base cannot stall fleet shutdown for long.
const MAX_BACKOFF: Duration = Duration::from_millis(200);

/// Deterministic seeded exponential backoff with per-`(die, attempt)`
/// hashed jitter. Two dies never share a schedule (no thundering-herd
/// reconnects), and the same `(seed, die, attempt)` always yields the
/// same delay — the schedule is replayable and thread-count invariant.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    base: Duration,
    seed: u64,
}

impl BackoffPolicy {
    /// Policy for one fleet run: base delay and jitter seed from the
    /// run configuration.
    pub fn from_config(cfg: &ServeConfig) -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(cfg.backoff_base_ms),
            seed: cfg.seed,
        }
    }

    /// A policy from raw parts (tests).
    pub fn new(base: Duration, seed: u64) -> BackoffPolicy {
        BackoffPolicy { base, seed }
    }

    /// The delay before reconnect `attempt` (1-based: the first
    /// reconnect is attempt 1) of `die_id`. Pure in
    /// `(seed, die_id, attempt)`; the value lies in
    /// `[slot/2, slot)` where `slot = base * 2^min(attempt-1, cap)`,
    /// clamped to 200 ms. A zero base disables backoff.
    pub fn delay(&self, die_id: u32, attempt: u32) -> Duration {
        if self.base.is_zero() || attempt == 0 {
            return Duration::ZERO;
        }
        let exp = (attempt - 1).min(BACKOFF_EXP_CAP);
        let slot_ns = (self.base.as_nanos() as u64).saturating_mul(1u64 << exp);
        let h = splitmix64(
            self.seed
                ^ 0x9E6C_63D0_876A_46ADu64
                ^ ((u64::from(die_id) << 32) | u64::from(attempt))
                    .wrapping_mul(0xA076_1D64_78BD_642F),
        );
        // Half deterministic floor, half hashed jitter: delays stay
        // exponential in envelope while decorrelating across dies.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let ns = slot_ns / 2 + ((slot_ns / 2) as f64 * unit) as u64;
        Duration::from_nanos(ns).min(MAX_BACKOFF)
    }
}

/// How one die's client run ended when it did not hit a fatal protocol
/// error.
#[derive(Debug)]
pub enum ClientOutcome {
    /// The server issued a verdict; `passed` is its value.
    Verdict {
        /// `true` when every window's signature matched golden.
        passed: bool,
    },
    /// The circuit breaker tripped: every session in the reconnect
    /// budget failed, so the die is quarantined `Untestable`. The last
    /// *actual* transport error is preserved (not collapsed to a
    /// generic torn-stream) so operators can tell a stalled tester
    /// from a half-open link from an I/O fault.
    Quarantined {
        /// Sessions attempted before the breaker tripped.
        attempts: u32,
        /// The failure observed on the final attempt.
        last_error: FrameError,
    },
}

impl ClientOutcome {
    /// The terminal breaker state this outcome leaves the die in, as
    /// mirrored by the live telemetry gauges: a verdict closes out of
    /// `Closed`, a tripped breaker parks in `Quarantined` permanently.
    pub fn final_state(&self) -> dft_telemetry::SessionState {
        match self {
            ClientOutcome::Verdict { .. } => dft_telemetry::SessionState::Closed,
            ClientOutcome::Quarantined { .. } => dft_telemetry::SessionState::Quarantined,
        }
    }
}

/// Arms the socket's read and write deadlines. `None` (or a zero
/// timeout upstream) leaves the socket blocking — liveness protection
/// off, exactly the pre-resilience behaviour.
pub fn apply_deadlines(stream: &TcpStream, timeout: Option<Duration>) {
    if let Some(t) = timeout {
        // A failed setsockopt degrades to a blocking socket; the
        // session still works, it just loses its deadline.
        stream.set_read_timeout(Some(t)).ok();
        stream.set_write_timeout(Some(t)).ok();
    }
}

/// One tester↔die connection, set up once and kept across the die
/// sessions it carries: Nagle off, both deadlines armed, buffered read
/// and write halves. The server and the die client build theirs the
/// same way; after a failed session both drop it, never resynchronise.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: BufWriter<TcpStream>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, timeout: Option<Duration>) -> Result<Conn, FrameError> {
        stream.set_nodelay(true).ok();
        apply_deadlines(&stream, timeout);
        Ok(Conn {
            reader: BufReader::new(stream.try_clone().map_err(FrameError::Io)?),
            writer: BufWriter::new(stream),
        })
    }
}

/// SplitMix64, the same finalizer-style mixer the chaos harness and
/// defect seeding use.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_exponential() {
        let p = BackoffPolicy::new(Duration::from_millis(1), 42);
        for die in 0..8u32 {
            for attempt in 1..12u32 {
                let d = p.delay(die, attempt);
                assert_eq!(d, p.delay(die, attempt), "pure function");
                let exp = (attempt - 1).min(BACKOFF_EXP_CAP);
                let slot = Duration::from_millis(1) * 2u32.pow(exp);
                assert!(
                    d >= slot / 2 || d == MAX_BACKOFF,
                    "die {die} a{attempt}: {d:?}"
                );
                assert!(d < slot || d == MAX_BACKOFF, "die {die} a{attempt}: {d:?}");
            }
        }
    }

    #[test]
    fn jitter_decorrelates_dies_and_caps_hold() {
        let p = BackoffPolicy::new(Duration::from_millis(2), 7);
        assert!(
            (0..32u32).any(|d| p.delay(d, 3) != p.delay(d + 32, 3)),
            "jitter must separate dies"
        );
        let huge = BackoffPolicy::new(Duration::from_secs(10), 7);
        assert_eq!(huge.delay(1, 9), MAX_BACKOFF);
        let off = BackoffPolicy::new(Duration::ZERO, 7);
        assert_eq!(off.delay(1, 1), Duration::ZERO);
        assert_eq!(p.delay(1, 0), Duration::ZERO);
    }

    #[test]
    fn outcomes_map_to_terminal_breaker_states() {
        let verdict = ClientOutcome::Verdict { passed: true };
        assert_eq!(verdict.final_state(), dft_telemetry::SessionState::Closed);
        let tripped = ClientOutcome::Quarantined {
            attempts: 3,
            last_error: FrameError::Torn,
        };
        assert_eq!(
            tripped.final_state(),
            dft_telemetry::SessionState::Quarantined
        );
    }
}
