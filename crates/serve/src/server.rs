//! The fleet orchestrator: TCP pattern server + in-process die clients.
//!
//! [`run_fleet`] binds a loopback listener, spawns one session thread
//! per accepted die connection, and drives the configured number of
//! client worker threads through the die queue. Each session streams
//! pattern windows through a **bounded** channel (at most
//! [`WINDOW_PIPELINE`] windows in flight per die), so a slow or
//! chaos-delayed die stalls only its own pipeline, never the broadcast.
//! Failing dies get an adaptive retest pass, then route through the
//! BISR/harvest path for a ship grade. Fleet state checkpoints to an
//! `aidft-serve-v2` journal; cancellation and `AIDFT_CHAOS` faults
//! (dropped connections, torn frames, delayed dies, stalled servers,
//! half-open connections, corrupted uploads, torn checkpoint writes)
//! are first-class.
//!
//! Liveness is bounded on both sides: sockets carry read/write
//! deadlines, the verifier tolerates at most `max_heartbeats`
//! consecutive [`Frame::Heartbeat`]s before the idle-session reaper
//! closes the stream, and a die whose client exhausts its reconnect
//! budget is recorded quarantined (`Untestable`) instead of hanging
//! the fleet.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dft_aichip::{ssn_plan, DeliveryStyle};
use dft_checkpoint::{ChaosSite, CkptError, FramedJournal};
use dft_netlist::Netlist;
use dft_repair::{plan_degradation, ShipGrade};
use dft_telemetry::{bridge, TelemetryEvent};

use crate::die::{die_defect, DieClient, DieSim};
use crate::fleet::{DieOutcome, FleetState, FleetSummary};
use crate::frame::{
    read_frame, write_frame, write_frame_torn, Frame, FrameError, PROTOCOL_VERSION,
};
use crate::resilience::{apply_deadlines, ClientOutcome};
use crate::stimulus::{ServeConfig, ServedStimulus};

/// Ceiling on a chaos-injected stall or half-open hold, so the chaos
/// matrix can never park a session thread indefinitely.
const MAX_STALL: Duration = Duration::from_secs(1);

/// Windows in flight per die session before the writer blocks — the
/// bounded-channel backpressure knob.
pub(crate) const WINDOW_PIPELINE: usize = 4;

/// Everything [`run_fleet`] needs besides the design and config.
#[derive(Debug, Clone, Default)]
pub struct ServeOpts {
    /// Counter sink (shared by server, sessions, and die clients).
    pub metrics: dft_metrics::MetricsHandle,
    /// Span sink.
    pub trace: dft_trace::TraceHandle,
    /// Cooperative cancellation (SIGTERM lands here).
    pub cancel: dft_checkpoint::CancelToken,
    /// Chaos knobs (`drop`, `tear`, `delay`, `stall`, `halfopen`,
    /// `corrupt` fire in the serve paths; the disk knobs act through
    /// the journal's own [`FramedJournal::with_disk_chaos`]).
    pub chaos: dft_checkpoint::ChaosConfig,
    /// Fleet-state journal; `None` disables checkpointing.
    pub journal: Option<FramedJournal>,
    /// Resume from the journal's newest record instead of starting
    /// fresh.
    pub resume: bool,
    /// Live telemetry sink (fleet gauges, scrape sample, event stream);
    /// disabled by default. Strictly read-only with respect to fleet
    /// state: enabling it cannot change a verdict, a signature, or the
    /// deterministic metrics registry.
    pub telemetry: dft_telemetry::TelemetryHandle,
}

/// Why a fleet run did not complete.
#[derive(Debug)]
pub enum ServeError {
    /// Transport-level failure (bind, accept).
    Io(io::Error),
    /// Checkpoint journal failure (resume mismatch, unreadable file).
    Checkpoint(CkptError),
    /// Cancelled cooperatively; state up to `done` dies is journaled.
    Interrupted {
        /// Journal path, when checkpointing was on.
        checkpoint: Option<PathBuf>,
        /// Dies with a recorded verdict at cancellation.
        done: usize,
        /// Fleet size.
        dies: usize,
    },
    /// A die client failed in a non-recoverable way (protocol bug).
    Client(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
            ServeError::Checkpoint(e) => write!(f, "serve checkpoint error: {e}"),
            ServeError::Interrupted { done, dies, .. } => {
                write!(f, "serve interrupted after {done}/{dies} dies")
            }
            ServeError::Client(msg) => write!(f, "die client error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The completed run: final state, summary, and throughput inputs.
#[derive(Debug)]
pub struct FleetReport {
    /// Final fleet state (per-die signatures included).
    pub state: FleetState,
    /// Aggregated totals.
    pub summary: FleetSummary,
    /// Wall clock of the serve phase (stimulus build excluded).
    pub wall: Duration,
    /// Dies restored from the checkpoint instead of streamed.
    pub resumed_dies: usize,
    /// Patterns in the broadcast.
    pub patterns: usize,
    /// Cubes the EDT encoder accepted.
    pub edt_encoded: usize,
    /// Patterns shipped flat.
    pub edt_flat: usize,
}

/// Per-die in-flight progress, shared across reconnected sessions.
struct DieProgress {
    /// Consecutively verified initial-pass windows (the reconnect
    /// resume point).
    verified: u32,
    /// Uploaded signature per window (retest overwrites).
    sigs: Vec<Option<Vec<bool>>>,
    /// Windows whose signature mismatched golden.
    mismatched: BTreeSet<u32>,
    /// The retest pass completed.
    retest_done: bool,
    /// Sessions opened for this die (salts chaos ordinals so a
    /// reconnect does not replay the same injected fault forever).
    attempts: u64,
}

struct Shared<'a> {
    stim: &'a ServedStimulus<'a>,
    cfg: &'a ServeConfig,
    opts: &'a ServeOpts,
    state: Mutex<FleetState>,
    progress: Mutex<HashMap<u32, DieProgress>>,
    shutdown: AtomicBool,
    interrupted: AtomicBool,
    ckpt_seq: AtomicU64,
    client_error: Mutex<Option<String>>,
}

impl Shared<'_> {
    /// Appends the current fleet state to the journal. A failed
    /// (e.g. disk-chaos torn) write is non-fatal — the journal realigns
    /// on the next append.
    fn checkpoint(&self) {
        let Some(journal) = &self.opts.journal else {
            return;
        };
        let seq = self.ckpt_seq.fetch_add(1, Ordering::Relaxed);
        let body = self.state.lock().unwrap().to_body();
        let result = journal.append(seq, &body);
        if let Some(m) = self.opts.metrics.get() {
            match &result {
                Ok(bytes) => {
                    m.ckpt_writes.inc();
                    m.ckpt_bytes.add(*bytes);
                }
                Err(_) => m.ckpt_write_failures.inc(),
            }
        }
        self.opts.telemetry.emit(TelemetryEvent::Checkpoint {
            seq,
            bytes: result.as_ref().copied().unwrap_or(0),
            ok: result.is_ok(),
        });
    }

    /// Records one die's final outcome; checkpoints on cadence. First
    /// record wins: a server verdict (always issued before the client
    /// can observe the session's end) is never displaced by a late
    /// quarantine from the same die's client.
    fn record(&self, outcome: DieOutcome) {
        let done = {
            let mut st = self.state.lock().unwrap();
            st.done.entry(outcome.die_id).or_insert(outcome);
            st.done.len()
        };
        self.opts.telemetry.set_dies_done(done as u64);
        if done % self.cfg.checkpoint_every.max(1) == 0 {
            self.checkpoint();
        }
    }

    /// Records a tripped circuit breaker: the die is `Untestable` —
    /// no signatures, `Scrap` grade, `quarantined` flag set. Pure in
    /// deterministic inputs (defect seeding, attempt counts), so the
    /// quarantine verdict is identical on every run and resume.
    fn record_quarantine(&self, die_id: u32) {
        if let Some(m) = self.opts.metrics.get() {
            m.serve_quarantined.inc();
        }
        let defective = die_defect(
            die_id,
            self.cfg.seed,
            self.cfg.defect_rate,
            &self.stim.universe,
        )
        .is_some();
        bridge::mark_quarantine(
            &self.opts.trace,
            &self.opts.telemetry,
            die_id,
            defective,
            self.cfg.max_reconnects + 1,
        );
        self.record(DieOutcome {
            die_id,
            defective,
            passed: false,
            retested: false,
            quarantined: true,
            grade: ShipGrade::Scrap,
            signatures: Vec::new(),
        });
    }
}

/// Computes a failing die's ship grade through the harvest path: a
/// deterministic per-die bad-core map is screened against the
/// harvesting floor, with the retest cost modeled on the per-core SSN
/// schedule. One or three bad cores per failing die, so fleets exercise
/// both the degraded-ship and the scrap outcome.
fn harvest_grade(shared: &Shared<'_>, die_id: u32) -> ShipGrade {
    let cfg = shared.cfg;
    let cores = cfg.soc.num_cores.max(1);
    let mut z = (cfg.seed ^ u64::from(die_id).wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 31;
    let bad = (1 + ((z >> 7) & 1) * 2).min(cores as u64) as usize;
    let mut pass_map = vec![true; cores];
    for i in 0..bad {
        pass_map[(z as usize).wrapping_add(i * 5) % cores] = false;
    }
    let cells = shared.stim.netlist().num_dffs().max(1);
    let per_core_cycles = ssn_plan(
        DeliveryStyle::DaisyChain,
        1,
        cells,
        cfg.soc.chains_per_core.max(1),
        shared.stim.patterns.len(),
    )
    .total_cycles;
    let plan = plan_degradation(
        &pass_map,
        per_core_cycles,
        &cfg.soc,
        cfg.max_bad_cores,
        &shared.opts.metrics,
    );
    if let (Some(m), ShipGrade::Degraded(_)) = (shared.opts.metrics.get(), plan.grade) {
        m.serve_harvested.inc();
    }
    plan.grade
}

/// The signature-verifying half of a session: consumes `(window,
/// retest)` tickets in stream order, reads the matching upload, checks
/// it against golden, and updates the die's progress. A slow die may
/// interleave [`Frame::Heartbeat`]s before each signature; more than
/// `max_heartbeats` consecutive ones means the peer is idle, not slow,
/// and the reaper closes the session.
fn verify_uploads(
    shared: &Shared<'_>,
    die_id: u32,
    reader: &mut impl Read,
    rx: Receiver<(u32, bool, Option<Instant>)>,
    settled: &AtomicU64,
) -> Result<(), FrameError> {
    let tele = &shared.opts.telemetry;
    for (w, retest, sent_at) in rx {
        let read_start = tele.is_enabled().then(Instant::now);
        let mut heartbeats = 0u32;
        let (did, window_idx, bits) = loop {
            match read_frame(reader)? {
                Frame::Heartbeat { die_id: did } => {
                    if did != die_id {
                        return Err(FrameError::BadPayload("heartbeat from wrong die"));
                    }
                    heartbeats += 1;
                    if heartbeats > shared.cfg.max_heartbeats {
                        if let Some(m) = shared.opts.metrics.get() {
                            m.serve_idle_reaps.inc();
                        }
                        return Err(FrameError::Timeout);
                    }
                }
                Frame::Signature {
                    die_id,
                    window_idx,
                    bits,
                } => break (die_id, window_idx, bits),
                _ => return Err(FrameError::BadPayload("expected Signature")),
            }
        };
        if did != die_id || window_idx != w {
            return Err(FrameError::BadPayload("signature out of order"));
        }
        if bits.len() != shared.stim.misr_width {
            return Err(FrameError::BadPayload("signature width mismatch"));
        }
        let matched = bits == shared.stim.golden_sigs[w as usize];
        let mut prog = shared.progress.lock().unwrap();
        let p = prog.get_mut(&die_id).expect("progress entry");
        p.sigs[w as usize] = Some(bits);
        if !matched {
            p.mismatched.insert(w);
        }
        if !retest {
            p.verified = p.verified.max(w + 1);
        }
        drop(prog);
        if let Some(m) = shared.opts.metrics.get() {
            m.serve_signatures.inc();
            if !matched {
                m.serve_mismatches.inc();
            }
        }
        if let Some(at) = sent_at {
            tele.record_window_latency_us(at.elapsed().as_micros() as u64);
        }
        if let Some(at) = read_start {
            tele.record_signature_latency_us(at.elapsed().as_micros() as u64);
        }
        tele.windows_settled(1);
        settled.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Streams `windows` to the die with bounded in-flight backpressure,
/// verifying uploads concurrently. Chaos may drop the connection or
/// tear a frame mid-stream; cancellation is polled at every window.
fn stream_windows(
    shared: &Shared<'_>,
    die_id: u32,
    attempt: u64,
    windows: &[(u32, bool)],
    reader: &mut (impl Read + Send),
    writer: &mut impl Write,
) -> Result<(), FrameError> {
    let tele = &shared.opts.telemetry;
    let settled = AtomicU64::new(0);
    std::thread::scope(|s| {
        let (tx, rx): (SyncSender<(u32, bool, Option<Instant>)>, _) =
            std::sync::mpsc::sync_channel(WINDOW_PIPELINE);
        let verifier = s.spawn(|| verify_uploads(shared, die_id, reader, rx, &settled));
        let mut sent = 0u64;
        let mut write_result: Result<(), FrameError> = Ok(());
        for &(w, retest) in windows {
            if shared.opts.cancel.poll() {
                shared.interrupted.store(true, Ordering::SeqCst);
                write_result = Err(FrameError::Torn);
                break;
            }
            let ordinal = (u64::from(die_id) << 32) | (attempt << 16) | u64::from(w);
            // Chaos: a stalled tester. The stream goes silent past the
            // client's deadline, then tears — the die surfaces
            // `Timeout` (deadline armed) or `Torn` (EOF), both
            // recoverable, neither visible in state.
            if shared.opts.chaos.fires(ChaosSite::StallServer, ordinal) {
                bridge::mark_chaos(&shared.opts.trace, tele, "stall-server", die_id, ordinal);
                std::thread::sleep(shared.opts.chaos.stall.min(MAX_STALL));
                write_result = Err(FrameError::Timeout);
                break;
            }
            if shared.opts.chaos.fires(ChaosSite::DropConn, ordinal) {
                if let Some(m) = shared.opts.metrics.get() {
                    m.serve_conn_drops.inc();
                }
                bridge::mark_chaos(&shared.opts.trace, tele, "drop-conn", die_id, ordinal);
                write_result = Err(FrameError::Torn);
                break;
            }
            let frame = Frame::Window {
                window_idx: w,
                retest,
                stimuli: shared.stim.windows[w as usize].clone(),
            };
            if shared.opts.chaos.fires(ChaosSite::TornFrame, ordinal) {
                if let Some(m) = shared.opts.metrics.get() {
                    m.serve_torn_frames.inc();
                }
                bridge::mark_chaos(&shared.opts.trace, tele, "torn-frame", die_id, ordinal);
                write_result = write_frame_torn(writer, &frame)
                    .map_err(FrameError::from)
                    .and(Err(FrameError::Torn));
                break;
            }
            if let Err(e) = write_frame(writer, &frame) {
                write_result = Err(FrameError::from(e));
                break;
            }
            if let Some(m) = shared.opts.metrics.get() {
                m.serve_windows.inc();
                if retest {
                    m.serve_retests.inc();
                }
            }
            let sent_at = tele.is_enabled().then(Instant::now);
            tele.window_sent();
            sent += 1;
            if tx.send((w, retest, sent_at)).is_err() {
                // Verifier bailed (torn upload); its error wins below.
                break;
            }
        }
        drop(tx);
        let verify_result = verifier.join().expect("verifier never panics");
        // Tickets abandoned with a dying session still leave the
        // in-flight gauge (the verifier settles the processed ones).
        tele.windows_settled(sent.saturating_sub(settled.load(Ordering::Relaxed)));
        verify_result.and(write_result)
    })
}

/// One accepted connection: handshake, stream remaining windows, retest
/// mismatches, finalize. Errors end the session; the die reconnects and
/// resumes from its last verified window.
fn session(shared: &Shared<'_>, stream: TcpStream) -> Result<(), FrameError> {
    stream.set_nodelay(true).ok();
    // The server's own deadlines: a half-open *client* can never park
    // this session thread either.
    apply_deadlines(&stream, shared.cfg.io_timeout());
    let mut reader = BufReader::new(stream.try_clone().map_err(FrameError::Io)?);
    let mut writer = BufWriter::new(stream);
    let Frame::Hello { die_id, version } = read_frame(&mut reader)? else {
        return Err(FrameError::BadPayload("expected Hello"));
    };
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadPayload("protocol version mismatch"));
    }
    if let Some(m) = shared.opts.metrics.get() {
        m.serve_sessions.inc();
    }
    let _session_gauge = shared.opts.telemetry.session_scope();
    let _span = shared.opts.trace.span_arg("die_session", u64::from(die_id));
    let total = shared.stim.total_windows() as u32;

    // Every accepted session bumps the die's attempt counter — replay
    // sessions included — so chaos ordinals advance with each
    // connection and never replay the same injected fault forever.
    let (resume_window, attempt) = {
        let mut prog = shared.progress.lock().unwrap();
        let p = prog.entry(die_id).or_insert_with(|| DieProgress {
            verified: 0,
            sigs: vec![None; total as usize],
            mismatched: BTreeSet::new(),
            retest_done: false,
            attempts: 0,
        });
        p.attempts += 1;
        (p.verified, p.attempts)
    };

    // Chaos: a half-open connection — the server accepted and read
    // Hello, then went silent. The hold is bounded; the client's
    // deadline (or the close) surfaces it as Timeout/Torn.
    if shared
        .opts
        .chaos
        .fires(ChaosSite::HalfOpenConn, (u64::from(die_id) << 32) | attempt)
    {
        bridge::mark_chaos(
            &shared.opts.trace,
            &shared.opts.telemetry,
            "half-open",
            die_id,
            (u64::from(die_id) << 32) | attempt,
        );
        std::thread::sleep(shared.opts.chaos.stall.min(MAX_STALL));
        return Err(FrameError::Timeout);
    }

    // A die that already has a verdict (resume, or a drop between
    // recording and Bye) just gets its verdict replayed.
    let recorded = shared.state.lock().unwrap().done.get(&die_id).cloned();
    if let Some(out) = recorded {
        write_frame(
            &mut writer,
            &Frame::Welcome {
                die_id,
                resume_window: total,
                total_windows: total,
                pattern_width: shared.stim.pattern_width as u32,
                misr_width: shared.stim.misr_width as u32,
            },
        )?;
        write_frame(
            &mut writer,
            &Frame::Verdict {
                die_id,
                passed: out.passed,
                retested: out.retested,
                grade: out.grade.to_string(),
            },
        )?;
        return write_frame(&mut writer, &Frame::Bye).map_err(FrameError::from);
    }
    write_frame(
        &mut writer,
        &Frame::Welcome {
            die_id,
            resume_window,
            total_windows: total,
            pattern_width: shared.stim.pattern_width as u32,
            misr_width: shared.stim.misr_width as u32,
        },
    )?;

    // Initial pass: the windows not yet verified.
    let initial: Vec<(u32, bool)> = (resume_window..total).map(|w| (w, false)).collect();
    stream_windows(shared, die_id, attempt, &initial, &mut reader, &mut writer)?;

    // Adaptive retest: replay every mismatched window once.
    let retest: Vec<(u32, bool)> = {
        let prog = shared.progress.lock().unwrap();
        let p = &prog[&die_id];
        if p.retest_done {
            Vec::new()
        } else {
            p.mismatched.iter().map(|&w| (w, true)).collect()
        }
    };
    let retested = !retest.is_empty();
    if retested {
        bridge::mark_retest(
            &shared.opts.trace,
            &shared.opts.telemetry,
            die_id,
            retest.len() as u64,
        );
        stream_windows(shared, die_id, attempt, &retest, &mut reader, &mut writer)?;
        shared
            .progress
            .lock()
            .unwrap()
            .get_mut(&die_id)
            .expect("progress entry")
            .retest_done = true;
    }

    // Finalize: verdict, harvest for failures, record, close.
    let (passed, signatures) = {
        let prog = shared.progress.lock().unwrap();
        let p = &prog[&die_id];
        let sigs: Vec<Vec<bool>> = p
            .sigs
            .iter()
            .map(|s| s.clone().expect("all windows verified"))
            .collect();
        (p.mismatched.is_empty(), sigs)
    };
    let grade = if passed {
        ShipGrade::Full
    } else {
        harvest_grade(shared, die_id)
    };
    let defective = die_defect(
        die_id,
        shared.cfg.seed,
        shared.cfg.defect_rate,
        &shared.stim.universe,
    )
    .is_some();
    shared.record(DieOutcome {
        die_id,
        defective,
        passed,
        retested,
        quarantined: false,
        grade,
        signatures,
    });
    write_frame(
        &mut writer,
        &Frame::Verdict {
            die_id,
            passed,
            retested,
            grade: grade.to_string(),
        },
    )?;
    write_frame(&mut writer, &Frame::Bye).map_err(FrameError::from)
}

/// Runs a whole fleet: builds the broadcast, serves every die over
/// loopback TCP with `cfg.client_threads` concurrent die clients, and
/// returns the final state. The result is a pure function of
/// `(design, cfg, chaos config)` — bit-identical for any thread count,
/// wall-clock timing, and any kill/resume split. Dies whose
/// circuit breaker trips are quarantined, never hung on.
pub fn run_fleet(
    nl: &Netlist,
    cfg: &ServeConfig,
    opts: &ServeOpts,
) -> Result<FleetReport, ServeError> {
    let stim = ServedStimulus::build(nl, cfg, &opts.metrics, &opts.trace);
    let sim = DieSim::new(nl, &stim);
    let fingerprint = cfg.fingerprint(nl.name());
    let state = match (&opts.journal, opts.resume) {
        (Some(j), true) => {
            let (st, recovery) = FleetState::resume_with_report(j, nl.name(), fingerprint)
                .map_err(ServeError::Checkpoint)?;
            if let Some(m) = opts.metrics.get() {
                m.serve_resumes.inc();
                if recovery.degraded() {
                    m.ckpt_scrub_repairs.add(recovery.damaged.max(1));
                }
            }
            if recovery.degraded() {
                opts.telemetry.emit(TelemetryEvent::Storage {
                    op: "recover",
                    damaged: recovery.damaged,
                    replica: recovery.source_replica,
                });
            }
            st
        }
        _ => FleetState::new(nl.name(), fingerprint, cfg.dies),
    };
    let resumed_dies = state.done.len();
    opts.telemetry
        .begin_fleet(nl.name(), cfg.dies as u64, stim.total_windows() as u64);
    opts.telemetry.set_dies_done(resumed_dies as u64);
    let pending: VecDeque<u32> = (0..cfg.dies as u32)
        .filter(|d| !state.done.contains_key(d))
        .collect();

    let shared = Shared {
        stim: &stim,
        cfg,
        opts,
        state: Mutex::new(state),
        progress: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        interrupted: AtomicBool::new(false),
        ckpt_seq: AtomicU64::new(resumed_dies as u64),
        client_error: Mutex::new(None),
    };

    let listener = TcpListener::bind("127.0.0.1:0").map_err(ServeError::Io)?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let addr = listener.local_addr().map_err(ServeError::Io)?;
    let queue = Mutex::new(pending);

    let start = Instant::now();
    let _t = opts.trace.phase_span("serve_fleet");
    std::thread::scope(|s| {
        // Acceptor: one session thread per connection, drained on
        // shutdown.
        let shared_ref = &shared;
        s.spawn(move || loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    s.spawn(move || {
                        if session(shared_ref, stream).is_err() {
                            // Recoverable: the die reconnects and the
                            // session resumes from its verified windows.
                        }
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if shared_ref.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        });

        // Client worker pool.
        let mut workers = Vec::new();
        for _ in 0..cfg.client_threads.max(1) {
            let queue = &queue;
            let sim = &sim;
            let stim = &stim;
            workers.push(s.spawn(move || loop {
                if shared_ref.interrupted.load(Ordering::SeqCst) {
                    return;
                }
                let Some(die_id) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                let client = DieClient {
                    die_id,
                    addr,
                    stim,
                    sim,
                    cfg,
                    chaos: shared_ref.opts.chaos,
                    metrics: shared_ref.opts.metrics.clone(),
                    cancel: shared_ref.opts.cancel.clone(),
                    telemetry: shared_ref.opts.telemetry.clone(),
                };
                match client.run() {
                    Ok(ClientOutcome::Verdict { .. }) => {}
                    // Breaker tripped: quarantine the die so the fleet
                    // completes — unless the run is shutting down, in
                    // which case the "dead die" is really a cancelled
                    // server and recording would poison the resume.
                    Ok(ClientOutcome::Quarantined { .. }) => {
                        if !shared_ref.interrupted.load(Ordering::SeqCst)
                            && !shared_ref.opts.cancel.is_cancelled()
                        {
                            shared_ref.record_quarantine(die_id);
                        }
                    }
                    // Recoverable errors only escape `run()` on
                    // shutdown (the client stops retrying when the
                    // cancel token fires). The client may observe the
                    // token before any server session has polled it and
                    // set `interrupted`, so consult both — and latch
                    // the flag so sibling workers stop dequeuing.
                    Err(e)
                        if e.is_recoverable()
                            && (shared_ref.interrupted.load(Ordering::SeqCst)
                                || shared_ref.opts.cancel.is_cancelled()) =>
                    {
                        shared_ref.interrupted.store(true, Ordering::SeqCst);
                    }
                    Err(e) => {
                        let mut slot = shared_ref.client_error.lock().unwrap();
                        slot.get_or_insert_with(|| format!("die {die_id}: {e}"));
                        shared_ref.interrupted.store(true, Ordering::SeqCst);
                        return;
                    }
                }
            }));
        }
        for w in workers {
            let _ = w.join();
        }
        shared.shutdown.store(true, Ordering::SeqCst);
    });
    let wall = start.elapsed();

    // Final checkpoint: a complete run journals its full state; an
    // interrupted one journals everything recorded so far.
    shared.checkpoint();
    if let Some(msg) = shared.client_error.lock().unwrap().take() {
        return Err(ServeError::Client(msg));
    }
    let final_state = shared.state.lock().unwrap().clone();
    if shared.interrupted.load(Ordering::SeqCst) || opts.cancel.is_cancelled() {
        // Flush the event stream before unwinding: the sampler's next
        // tick will never come, and the final batch (the checkpoint
        // and session events of the interruption itself) must survive
        // for post-mortem replay.
        opts.telemetry.flush_events();
        return Err(ServeError::Interrupted {
            checkpoint: opts.journal.as_ref().map(|j| j.path().to_path_buf()),
            done: final_state.done.len(),
            dies: cfg.dies,
        });
    }
    let summary = final_state.summary(stim.total_windows(), cfg.defect_rate);
    Ok(FleetReport {
        state: final_state,
        summary,
        wall,
        resumed_dies,
        patterns: stim.patterns.len(),
        edt_encoded: stim.edt_encoded,
        edt_flat: stim.edt_flat,
    })
}
