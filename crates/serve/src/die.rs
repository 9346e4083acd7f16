//! The simulated die fleet: defect seeding, response computation, and
//! the TCP die client.
//!
//! Die `d` of a fleet is deterministically healthy or defective —
//! [`die_defect`] hashes `(seed, d)` against the configured defect rate
//! and, when it fires, picks [`dft_aichip::seeded_defect`]`(d)` from
//! the design's stuck-at universe. Tester and die agree on the fleet's
//! health from the seed alone; no out-of-band channel exists, exactly
//! like silicon.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dft_aichip::seeded_defect;
use dft_checkpoint::{CancelToken, ChaosConfig, ChaosSite};
use dft_fault::Fault;
use dft_logicsim::{PatternSet, Response, SimKernel, TapeKernel};
use dft_metrics::MetricsHandle;
use dft_netlist::Netlist;
use dft_telemetry::{SessionState, TelemetryEvent, TelemetryHandle};

use crate::frame::{
    read_frame, write_frame, write_frame_corrupt, Frame, FrameError, PROTOCOL_VERSION,
};
use crate::resilience::{BackoffPolicy, ClientOutcome, Conn};
use crate::stimulus::{
    misr_signature, window_signatures, ServeConfig, ServedStimulus, StimulusDecoder,
};

/// The defect seeded into die `die_id`, or `None` for a healthy die.
/// Pure in `(seed, defect_rate, die_id)`; the same splitmix64-style
/// unit-interval mapping the chaos harness uses.
pub fn die_defect(die_id: u32, seed: u64, defect_rate: f64, universe: &[Fault]) -> Option<Fault> {
    if defect_rate <= 0.0 || universe.is_empty() {
        return None;
    }
    let mut z = (seed ^ u64::from(die_id).wrapping_mul(0xA076_1D64_78BD_642F))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    (unit < defect_rate).then(|| seeded_defect(die_id as usize, universe))
}

/// The compile-once simulation kernel shared by the whole fleet: a
/// healthy die runs the good machine, a defective one injects its
/// defect, both 256 patterns per pass. All methods take `&self` and are
/// called from many client threads concurrently.
#[derive(Debug)]
pub struct DieSim<'nl> {
    kernel: TapeKernel<'nl>,
}

impl<'nl> DieSim<'nl> {
    /// Compiles the fleet kernel for `nl`, the design `stim` broadcasts.
    pub fn new(nl: &'nl Netlist, stim: &ServedStimulus<'nl>) -> DieSim<'nl> {
        debug_assert!(
            std::ptr::eq(nl, stim.netlist()),
            "dies must simulate the broadcast's design"
        );
        DieSim {
            kernel: TapeKernel::compile(nl),
        }
    }

    /// Responses of one die to `patterns`: the good machine for a
    /// healthy die, the faulty machine for a defective one.
    pub fn responses(&self, patterns: &PatternSet, defect: Option<Fault>) -> Vec<Response> {
        match defect {
            None => self.kernel.eval_batch(patterns),
            Some(f) => self.kernel.faulty_responses(patterns, f),
        }
    }

    /// One window's MISR signature for one die.
    pub fn window_signature(
        &self,
        patterns: &PatternSet,
        defect: Option<Fault>,
        misr_width: usize,
    ) -> Vec<bool> {
        misr_signature(&self.responses(patterns, defect), misr_width)
    }
}

/// Reference per-window signatures for one die, computed directly (no
/// server, no sockets) — what the fleet tests compare the served run
/// against bit-for-bit.
pub fn die_reference_signatures(
    stim: &ServedStimulus<'_>,
    sim: &DieSim<'_>,
    cfg: &ServeConfig,
    die_id: u32,
) -> Vec<Vec<bool>> {
    match die_defect(die_id, cfg.seed, cfg.defect_rate, &stim.universe) {
        None => stim.golden_sigs.clone(),
        Some(f) => {
            let responses = sim.responses(&stim.patterns, Some(f));
            window_signatures(&responses, cfg.window_patterns.max(1), stim.misr_width)
        }
    }
}

/// One die's client: handshakes on its client thread's connection
/// (connecting first if the thread holds none), evaluates streamed
/// windows, uploads signatures, and walks the circuit breaker — Closed
/// (a live session) → Backoff (deterministic jittered reconnect delays)
/// → Quarantined (reconnect budget exhausted, die declared
/// `Untestable`).
pub struct DieClient<'a> {
    /// Fleet index.
    pub die_id: u32,
    /// Server address.
    pub addr: SocketAddr,
    /// Shared broadcast content.
    pub stim: &'a ServedStimulus<'a>,
    /// The client thread's wire decoder, lent to each die it runs.
    pub decoder: &'a StimulusDecoder<'a>,
    /// Shared simulation engines.
    pub sim: &'a DieSim<'a>,
    /// Run configuration.
    pub cfg: &'a ServeConfig,
    /// Chaos knobs (the die honors `DelayDie` and `CorruptFrame`).
    pub chaos: ChaosConfig,
    /// Counter sink.
    pub metrics: MetricsHandle,
    /// Fleet cancel token: a cancelled run stops retrying immediately
    /// so an interrupted fleet never mistakes shutdown for a dead die.
    pub cancel: CancelToken,
    /// Live telemetry sink: breaker-state gauges and chaos events.
    /// Read-only observation — never consulted for any decision.
    pub telemetry: TelemetryHandle,
}

impl DieClient<'_> {
    /// Runs the die to an outcome: the server's verdict, or quarantine
    /// once the reconnect budget (`cfg.max_reconnects` reconnects after
    /// the initial attempt) is exhausted. Recoverable transport errors
    /// (torn streams, I/O faults, deadline expiries, corrupt frames)
    /// re-arm the breaker through a deterministic backoff sleep; only
    /// protocol-level errors escape as `Err`.
    ///
    /// `conn` is the client thread's connection. After a verdict it
    /// stays open for the thread's next die; after any failed session
    /// it is dropped, so every reconnect is a new connection.
    pub fn run(&self, conn: &mut Option<Conn>) -> Result<ClientOutcome, FrameError> {
        let defect = die_defect(
            self.die_id,
            self.cfg.seed,
            self.cfg.defect_rate,
            &self.stim.universe,
        );
        let backoff = BackoffPolicy::from_config(self.cfg);
        let mut breaker = self.telemetry.breaker(self.die_id);
        let mut last_err = FrameError::Torn;
        for attempt in 0..=self.cfg.max_reconnects {
            if attempt > 0 {
                // Shutdown beats retry: surface the transport error so
                // the interrupted fleet tears down instead of looping
                // toward a spurious quarantine.
                if self.cancel.is_cancelled() {
                    return Err(last_err);
                }
                breaker.set(SessionState::Backoff, u64::from(attempt));
                let delay = backoff.delay(self.die_id, attempt);
                if let Some(m) = self.metrics.get() {
                    m.serve_retries.inc();
                    m.serve_backoff_ns.add(delay.as_nanos() as u64);
                }
                std::thread::sleep(delay);
            }
            breaker.set(SessionState::Closed, u64::from(attempt));
            let result = self.session(conn, defect, attempt);
            if result.is_err() {
                // Never resynchronise a stream after a failed session.
                *conn = None;
            }
            match result {
                Ok(passed) => return Ok(ClientOutcome::Verdict { passed }),
                // Recoverable: reconnect and let the server resume from
                // the last verified window. The *actual* error is kept —
                // an operator needs to tell a stalled tester (Timeout)
                // from a half-open link (Torn) from an I/O fault.
                Err(e) if e.is_recoverable() => {
                    if let Some(m) = self.metrics.get() {
                        m.serve_conn_drops.inc();
                    }
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
        }
        let outcome = ClientOutcome::Quarantined {
            attempts: self.cfg.max_reconnects + 1,
            last_error: last_err,
        };
        // Quarantine is sticky in the gauges: the count survives the
        // guard, matching the die's `Untestable` verdict.
        breaker.set(
            outcome.final_state(),
            u64::from(self.cfg.max_reconnects) + 1,
        );
        Ok(outcome)
    }

    /// One session's worth of protocol, from `Hello` to `Bye` or a
    /// transport error. Connects only when `conn` holds no connection.
    fn session(
        &self,
        conn: &mut Option<Conn>,
        defect: Option<Fault>,
        attempt: u32,
    ) -> Result<bool, FrameError> {
        if conn.is_none() {
            let stream = TcpStream::connect(self.addr).map_err(FrameError::Io)?;
            *conn = Some(Conn::new(stream, self.cfg.io_timeout())?);
        }
        let Conn { reader, writer } = conn.as_mut().expect("connected above");
        write_frame(
            writer,
            &Frame::Hello {
                die_id: self.die_id,
                version: PROTOCOL_VERSION,
            },
        )?;
        match read_frame(reader)? {
            Frame::Welcome {
                die_id,
                pattern_width,
                misr_width,
                ..
            } => {
                if die_id != self.die_id
                    || pattern_width as usize != self.stim.pattern_width
                    || misr_width as usize != self.stim.misr_width
                {
                    return Err(FrameError::BadPayload("welcome geometry mismatch"));
                }
            }
            _ => return Err(FrameError::BadPayload("expected Welcome")),
        }
        let mut passed = false;
        loop {
            match read_frame(reader)? {
                Frame::Window {
                    window_idx,
                    stimuli,
                    ..
                } => {
                    // Chaos sites on the die keep the serve ordinal
                    // shape `(die, attempt, window)` so firings are a
                    // pure function of per-die protocol position —
                    // never of thread interleaving or wall clock.
                    let ordinal = (u64::from(self.die_id) << 32)
                        | (u64::from(attempt) << 16)
                        | u64::from(window_idx);
                    // Chaos: a slow die. A heartbeat goes out first so
                    // the server's idle reaper can tell "slow" from
                    // "gone"; the stall holds up only this die's session
                    // and its window pipeline.
                    let delayed = self.chaos.fires(ChaosSite::DelayDie, ordinal);
                    if delayed {
                        self.telemetry.emit(TelemetryEvent::Chaos {
                            site: "delay-die",
                            die: self.die_id,
                            ordinal,
                        });
                        write_frame(
                            writer,
                            &Frame::Heartbeat {
                                die_id: self.die_id,
                            },
                        )?;
                        if let Some(m) = self.metrics.get() {
                            m.serve_heartbeats.inc();
                        }
                    }
                    let patterns = self.decoder.decode_window(&stimuli)?;
                    let sig = self
                        .sim
                        .window_signature(&patterns, defect, self.stim.misr_width);
                    if delayed {
                        std::thread::sleep(self.chaos.delay.min(Duration::from_millis(50)));
                    }
                    let frame = Frame::Signature {
                        die_id: self.die_id,
                        window_idx,
                        bits: sig,
                    };
                    // Chaos: a corrupted upload. The server rejects it
                    // on checksum and tears the session down; the die
                    // reconnects and re-uploads from the last verified
                    // window, so state never sees the bad bits.
                    if self.chaos.fires(ChaosSite::CorruptFrame, ordinal) {
                        if let Some(m) = self.metrics.get() {
                            m.serve_corrupt_frames.inc();
                        }
                        self.telemetry.emit(TelemetryEvent::Chaos {
                            site: "corrupt-frame",
                            die: self.die_id,
                            ordinal,
                        });
                        write_frame_corrupt(writer, &frame)?;
                    } else {
                        write_frame(writer, &frame)?;
                    }
                }
                Frame::Verdict { passed: p, .. } => passed = p,
                Frame::Bye => return Ok(passed),
                _ => return Err(FrameError::BadPayload("unexpected frame in session")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defect_seeding_is_deterministic_and_tracks_rate() {
        let universe = vec![];
        assert!(die_defect(3, 7, 0.5, &universe).is_none());
        let nl = dft_netlist::parse_bench("c", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let universe = dft_fault::universe_stuck_at(&nl);
        let hits = (0..1000u32)
            .filter(|&d| die_defect(d, 7, 0.25, &universe).is_some())
            .count();
        assert!((180..320).contains(&hits), "hits {hits}");
        for d in 0..32 {
            assert_eq!(
                die_defect(d, 7, 0.25, &universe),
                die_defect(d, 7, 0.25, &universe)
            );
        }
        assert!((0..1000u32).all(|d| die_defect(d, 7, 0.0, &universe).is_none()));
        assert!((0..100u32).all(|d| die_defect(d, 7, 1.0, &universe).is_some()));
    }
}
