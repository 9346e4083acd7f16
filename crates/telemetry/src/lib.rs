//! Live fleet telemetry for the `aidft serve` test floor: a sampler
//! thread, a scrapeable stats endpoint, and an append-only event
//! stream.
//!
//! The serve fleet's determinism contract is sacred: the final
//! `FleetState` is a pure function of (design, config, chaos plan),
//! bit-identical across client thread counts and kill/resume
//! cycles. Telemetry therefore follows one rule — **it only ever
//! reads**. Fleet threads update lock-free [`FleetGauges`] and queue
//! event lines; the sampler thread periodically snapshots the
//! deterministic [`dft_metrics`] registry, deltas it
//! ([`dft_metrics::MetricsSnapshot::delta`]) for rolling rates, and
//! publishes a [`TelemetrySample`] that the stats listener serves as
//! Prometheus text or stable-ordered JSON. No fleet thread ever blocks
//! on telemetry, so enabling it cannot change a single verdict — a
//! property the integration suites prove by byte-comparing summaries
//! with the sampler on and off, under chaos, across thread counts.
//!
//! Layout mirrors the handle discipline of [`dft_metrics`] and
//! [`dft_trace`]: a cheap, cloneable [`TelemetryHandle`] that is a
//! no-op when disabled (the default), and a [`TelemetrySession`] owning
//! the threads for the duration of one fleet run.
//!
//! | Piece | Role |
//! |---|---|
//! | [`FleetGauges`] | lock-free live state (sessions, breaker counts, in-flight, latency histograms) |
//! | [`sampler`](crate) | periodic snapshot→delta→publish loop |
//! | [`TelemetrySample`] | one published scrape payload (`aidft-stats-v1`) |
//! | stats listener | `/metrics` Prometheus, `/stats.json` JSON |
//! | [`TelemetryEvent`] stream | `aidft-telemetry-v1` framed JSONL journal |
//! | [`bridge`] | paired trace-instant + event markers |

mod gauges;
mod sample;
mod sampler;
mod stats_server;

pub mod bridge;
pub mod events;

pub use events::{
    read_events, validate_events, EventLog, EventStreamStats, TelemetryEvent, EVENTS_FORMAT,
};
pub use gauges::{FleetGauges, SessionState};
pub use sample::{
    escape_label, format_value, json_escape, pair_value, parse_prometheus, TelemetrySample,
    STATS_SCHEMA,
};
pub use stats_server::scrape;

use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use dft_metrics::MetricsHandle;

use sampler::Sampler;
use stats_server::StatsServer;

/// Shared state behind a telemetry session: gauges the fleet writes,
/// the published sample the endpoint reads, and the optional event log.
#[derive(Debug)]
pub(crate) struct Inner {
    start: Instant,
    pub(crate) gauges: FleetGauges,
    events: Option<EventLog>,
    published: RwLock<TelemetrySample>,
    scrapes: AtomicU64,
    samples: AtomicU64,
    peak_bits: AtomicU64,
}

impl Inner {
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    pub(crate) fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    pub(crate) fn publish(&self, sample: TelemetrySample) {
        *self.published.write().unwrap() = sample;
    }

    pub(crate) fn published_sample(&self) -> TelemetrySample {
        self.published.read().unwrap().clone()
    }

    pub(crate) fn count_scrape(&self) {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    pub(crate) fn next_sample_seq(&self) -> u64 {
        self.samples.fetch_add(1, Ordering::Relaxed)
    }

    /// Folds `rate` into the peak-dies/sec high-water mark and returns
    /// the (possibly updated) peak.
    pub(crate) fn update_peak(&self, rate: f64) -> f64 {
        let mut peak = f64::from_bits(self.peak_bits.load(Ordering::Relaxed));
        if rate > peak {
            self.peak_bits.store(rate.to_bits(), Ordering::Relaxed);
            peak = rate;
        }
        peak
    }
}

/// Cheap, cloneable entry point the serve crate threads telemetry
/// through — same discipline as [`dft_metrics::MetricsHandle`]. The
/// default handle is disabled and every hook is a no-op, so the fleet's
/// hot paths pay one branch when telemetry is off.
#[derive(Debug, Clone, Default)]
pub struct TelemetryHandle(Option<Arc<Inner>>);

impl TelemetryHandle {
    /// The disabled handle (all hooks no-op).
    pub fn disabled() -> TelemetryHandle {
        TelemetryHandle(None)
    }

    /// `true` when a live session backs this handle.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The live gauges, when enabled.
    pub fn gauges(&self) -> Option<&FleetGauges> {
        self.0.as_deref().map(|i| &i.gauges)
    }

    /// Installs the fleet shape at run start.
    pub fn begin_fleet(&self, design: &str, dies: u64, windows_per_die: u64) {
        if let Some(g) = self.gauges() {
            g.set_fleet(design, dies, windows_per_die);
        }
    }

    /// Publishes the authoritative recorded-verdict count.
    pub fn set_dies_done(&self, n: u64) {
        if let Some(g) = self.gauges() {
            g.set_dies_done(n);
        }
    }

    /// One window entered the verify pipeline.
    pub fn window_sent(&self) {
        if let Some(g) = self.gauges() {
            g.window_sent();
        }
    }

    /// `n` windows left the verify pipeline.
    pub fn windows_settled(&self, n: u64) {
        if let Some(g) = self.gauges() {
            g.windows_settled(n);
        }
    }

    /// Records one window round-trip latency, microseconds.
    pub fn record_window_latency_us(&self, us: u64) {
        if let Some(g) = self.gauges() {
            g.window_latency_us.record(us);
        }
    }

    /// Records one signature service latency, microseconds.
    pub fn record_signature_latency_us(&self, us: u64) {
        if let Some(g) = self.gauges() {
            g.signature_latency_us.record(us);
        }
    }

    /// Queues an event for the stream (dropped when events are off).
    pub fn emit(&self, event: TelemetryEvent) {
        if let Some(inner) = &self.0 {
            if let Some(log) = inner.events() {
                log.emit(&event, inner.uptime_ms());
            }
        }
    }

    /// Durably flushes any buffered event lines to the journal *now*.
    /// The SIGTERM/cancel path calls this before unwinding so an
    /// interrupted fleet's final batch of events is not lost waiting
    /// for a sampler tick that will never come.
    pub fn flush_events(&self) {
        if let Some(inner) = &self.0 {
            if let Some(log) = inner.events() {
                log.flush();
            }
        }
    }

    /// RAII guard bumping the active-session gauge for one server-side
    /// session.
    pub fn session_scope(&self) -> SessionScope {
        if let Some(g) = self.gauges() {
            g.session_opened();
        }
        SessionScope {
            handle: self.clone(),
        }
    }

    /// RAII breaker-state tracker for one die's client lifetime.
    pub fn breaker(&self, die: u32) -> BreakerGauge {
        BreakerGauge {
            handle: self.clone(),
            die,
            state: None,
        }
    }
}

/// Guard from [`TelemetryHandle::session_scope`]; decrements the
/// active-session gauge on drop.
#[derive(Debug)]
pub struct SessionScope {
    handle: TelemetryHandle,
}

impl Drop for SessionScope {
    fn drop(&mut self) {
        if let Some(g) = self.handle.gauges() {
            g.session_closed();
        }
    }
}

/// Tracks one die's circuit-breaker state in the fleet gauges and emits
/// a [`TelemetryEvent::Session`] per transition. Quarantine is sticky:
/// the quarantined count survives the guard (and the run), matching the
/// fleet's own verdicts. Any other state is released on drop.
#[derive(Debug)]
pub struct BreakerGauge {
    handle: TelemetryHandle,
    die: u32,
    state: Option<SessionState>,
}

impl BreakerGauge {
    /// Moves the die to `to` (no-op if already there). The first call
    /// arms the gauge without emitting an event — only real transitions
    /// make the stream.
    pub fn set(&mut self, to: SessionState, attempt: u64) {
        let Some(g) = self.handle.gauges() else {
            return;
        };
        if self.state == Some(to) {
            return;
        }
        if let Some(from) = self.state {
            g.state_leave(from);
            self.handle.emit(TelemetryEvent::Session {
                die: self.die,
                from,
                to,
                attempt,
            });
        }
        g.state_enter(to);
        self.state = Some(to);
    }
}

impl Drop for BreakerGauge {
    fn drop(&mut self) {
        if let (Some(g), Some(state)) = (self.handle.gauges(), self.state) {
            if state != SessionState::Quarantined {
                g.state_leave(state);
            }
        }
    }
}

/// Configuration for one telemetry session.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Bind address for the scrape endpoint (`127.0.0.1:0` picks an
    /// ephemeral port); `None` disables the listener.
    pub stats_addr: Option<String>,
    /// Path for the `aidft-telemetry-v1` event journal; `None`
    /// disables the stream.
    pub events_path: Option<PathBuf>,
    /// Sampler tick period (clamped to ≥ 5 ms).
    pub period: Duration,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            stats_addr: None,
            events_path: None,
            period: Duration::from_millis(100),
        }
    }
}

/// Final accounting returned by [`TelemetrySession::finish`].
#[derive(Debug, Clone)]
pub struct TelemetryFinal {
    /// Samples taken (including the startup and final samples).
    pub samples: u64,
    /// Scrapes served.
    pub scrapes: u64,
    /// Events emitted to the stream.
    pub events: u64,
    /// The last published sample, in full: its `peak_dies_per_sec` is 0
    /// when the run outpaced the sampler, and its `window_p99_us` is NaN
    /// when no windows were timed.
    pub final_sample: TelemetrySample,
}

/// One live telemetry session: owns the sampler thread, the optional
/// stats listener, and the optional event log for the duration of a
/// fleet run.
#[derive(Debug)]
pub struct TelemetrySession {
    inner: Arc<Inner>,
    sampler: Option<Sampler>,
    server: Option<StatsServer>,
}

impl TelemetrySession {
    /// Starts the session: publishes a synchronous startup sample (the
    /// endpoint is never empty), binds the listener if configured, and
    /// spawns the sampler.
    pub fn start(cfg: TelemetryConfig, metrics: MetricsHandle) -> io::Result<TelemetrySession> {
        let inner = Arc::new(Inner {
            start: Instant::now(),
            gauges: FleetGauges::default(),
            events: cfg.events_path.map(EventLog::new),
            published: RwLock::new(TelemetrySample::default()),
            scrapes: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            peak_bits: AtomicU64::new(0f64.to_bits()),
        });
        sampler::take_sample(&inner, &metrics, &mut VecDeque::new());
        let server = match &cfg.stats_addr {
            Some(addr) => Some(StatsServer::bind(addr, Arc::clone(&inner))?),
            None => None,
        };
        let sampler = Sampler::spawn(
            Arc::clone(&inner),
            metrics,
            cfg.period.max(Duration::from_millis(5)),
        );
        Ok(TelemetrySession {
            inner,
            sampler: Some(sampler),
            server,
        })
    }

    /// A handle for the fleet to thread through its hooks.
    pub fn handle(&self) -> TelemetryHandle {
        TelemetryHandle(Some(Arc::clone(&self.inner)))
    }

    /// The bound scrape address (resolved port), when the listener is
    /// up.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(|s| s.addr())
    }

    /// Takes a final sample, flushes the event stream, stops both
    /// threads, and returns the session accounting.
    pub fn finish(mut self) -> TelemetryFinal {
        if let Some(s) = self.sampler.take() {
            s.stop();
        }
        if let Some(s) = self.server.take() {
            s.stop();
        }
        TelemetryFinal {
            samples: self.inner.samples.load(Ordering::Relaxed),
            scrapes: self.inner.scrapes(),
            events: self.inner.events().map(EventLog::emitted).unwrap_or(0),
            final_sample: self.inner.published_sample(),
        }
    }
}

/// A session dropped without [`TelemetrySession::finish`] (an error
/// unwind or interrupted run) still stops its threads cleanly — and
/// the sampler's final tick flushes the event stream, so the journal
/// keeps everything emitted before the unwind.
impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if let Some(s) = self.sampler.take() {
            s.stop();
        }
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_total_no_op() {
        let h = TelemetryHandle::disabled();
        assert!(!h.is_enabled());
        h.begin_fleet("mac4", 4, 2);
        h.window_sent();
        h.windows_settled(1);
        h.record_window_latency_us(10);
        h.emit(TelemetryEvent::Retest { die: 0, windows: 1 });
        let _scope = h.session_scope();
        let mut b = h.breaker(0);
        b.set(SessionState::Closed, 0);
        b.set(SessionState::Quarantined, 1);
        assert!(h.gauges().is_none());
    }

    #[test]
    fn breaker_guard_tracks_transitions_and_sticks_quarantine() {
        let dir = std::env::temp_dir().join(format!("aidft-tele-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("breaker-events.jsonl");
        let _ = std::fs::remove_file(&events);
        let session = TelemetrySession::start(
            TelemetryConfig {
                events_path: Some(events.clone()),
                period: Duration::from_millis(5),
                ..TelemetryConfig::default()
            },
            MetricsHandle::disabled(),
        )
        .unwrap();
        let h = session.handle();
        let g = h.gauges().unwrap();
        {
            let mut ok = h.breaker(1);
            ok.set(SessionState::Closed, 0); // arm: no event
            assert_eq!(g.state_count(SessionState::Closed), 1);
        }
        assert_eq!(g.state_count(SessionState::Closed), 0);
        {
            let mut bad = h.breaker(2);
            bad.set(SessionState::Closed, 0);
            bad.set(SessionState::Backoff, 1); // event
            bad.set(SessionState::Closed, 1); // event
            bad.set(SessionState::Quarantined, 2); // event, sticky
        }
        assert_eq!(g.state_count(SessionState::Quarantined), 1);
        assert_eq!(g.state_count(SessionState::Closed), 0);
        let fin = session.finish();
        assert_eq!(fin.events, 3);
        let stats = validate_events(&events).unwrap();
        assert_eq!(stats.events, 3);
        std::fs::remove_file(&events).unwrap();
    }

    #[test]
    fn interrupted_session_keeps_its_events() {
        let dir = std::env::temp_dir().join(format!("aidft-tele-lib-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("interrupted-events.jsonl");
        let _ = std::fs::remove_file(&events);
        let session = TelemetrySession::start(
            TelemetryConfig {
                events_path: Some(events.clone()),
                // A period far longer than the test: without the
                // explicit flush / final-tick-on-drop, these events
                // would still be buffered when the session dies.
                period: Duration::from_secs(3600),
                ..TelemetryConfig::default()
            },
            MetricsHandle::disabled(),
        )
        .unwrap();
        let h = session.handle();
        h.emit(TelemetryEvent::Retest { die: 1, windows: 2 });
        h.flush_events();
        assert_eq!(read_events(&events).unwrap().len(), 1);

        // Events emitted after the flush survive a drop-without-finish
        // (the cancel/SIGTERM unwind path).
        h.emit(TelemetryEvent::Storage {
            op: "recover",
            damaged: 1,
            replica: 1,
        });
        drop(session);
        let lines = read_events(&events).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"kind\":\"storage\""));
        assert!(lines[1].contains("\"damaged\":1"));
        validate_events(&events).unwrap();
        std::fs::remove_file(&events).unwrap();
    }

    #[test]
    fn unscraped_listener_stops_without_counting_its_wake() {
        // The accept loop blocks; `finish` must still return promptly,
        // also for a listener bound to the unspecified address.
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let session = TelemetrySession::start(
                TelemetryConfig {
                    stats_addr: Some(addr.to_owned()),
                    ..TelemetryConfig::default()
                },
                MetricsHandle::disabled(),
            )
            .unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            let finisher = std::thread::spawn(move || tx.send(session.finish()).unwrap());
            let fin = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("{addr}: finish did not return: {e}"));
            finisher.join().unwrap();
            assert_eq!(
                fin.scrapes, 0,
                "{addr}: the wake-up connection is no scrape"
            );
        }
    }

    #[test]
    fn session_serves_scrapes_that_roundtrip() {
        let session = TelemetrySession::start(
            TelemetryConfig {
                stats_addr: Some("127.0.0.1:0".into()),
                period: Duration::from_millis(5),
                ..TelemetryConfig::default()
            },
            MetricsHandle::disabled(),
        )
        .unwrap();
        let h = session.handle();
        h.begin_fleet("mac4", 4, 2);
        h.set_dies_done(3);
        h.record_window_latency_us(100);
        h.record_window_latency_us(900);
        let addr = session.stats_addr().unwrap();

        let prom = scrape(addr, "/metrics").unwrap();
        let pairs = parse_prometheus(&prom);
        // Served at once; the values are the last published sample's,
        // which may predate `begin_fleet` until the sampler ticks.
        assert!(pair_value(&pairs, "aidft_fleet_dies").is_some());
        let json = scrape(addr, "/stats.json").unwrap();
        assert!(json.starts_with("{\"schema\":\"aidft-stats-v1\""));
        assert!(scrape(addr, "/nope").is_err());

        // The sampler publishes the fleet shape and the gauge updates
        // within a few ticks.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let pairs = parse_prometheus(&scrape(addr, "/metrics").unwrap());
            let json = scrape(addr, "/stats.json").unwrap();
            if json.contains("\"design\":\"mac4\"")
                && pair_value(&pairs, "aidft_fleet_dies") == Some(4.0)
                && pair_value(&pairs, "aidft_fleet_dies_done") == Some(3.0)
                && pair_value(&pairs, "aidft_window_latency_us_count") == Some(2.0)
            {
                break;
            }
            assert!(Instant::now() < deadline, "sampler never caught up");
            std::thread::sleep(Duration::from_millis(5));
        }
        let fin = session.finish();
        assert!(fin.scrapes >= 3);
        assert!(fin.samples >= 2);
        assert!(fin.final_sample.window_p99_us > 100.0);
        // Endpoint is down after finish.
        assert!(scrape(addr, "/metrics").is_err());
    }
}
