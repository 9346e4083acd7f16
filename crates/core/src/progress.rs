//! Terminal live-progress line for long flow runs.
//!
//! [`ProgressLine::spawn`] starts a background thread that polls the
//! flow's [`TraceHandle`] for the current phase
//! and the [`MetricsHandle`] for fault and
//! pattern counters, rewriting a single spinner line on stderr roughly
//! ten times a second. The line is only drawn when stderr is an
//! interactive terminal (or when forced for tests); in pipes and CI
//! logs the reporter is a silent no-op. [`ProgressLine::finish`] stops
//! the thread and clears the line so the final report starts on a
//! clean row.
//!
//! Two consumers beyond the flow commands live here too: a process-wide
//! suppression latch ([`set_suppressed`]) so the one-line spinner stays
//! out of the way when richer live output owns the terminal (`aidft
//! top`, or a serve run publishing a `--stats-addr` scrape endpoint),
//! and [`Dashboard`], the multi-line redraw primitive `aidft top`
//! renders its fleet view with.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dft_metrics::MetricsHandle;
use dft_trace::TraceHandle;

const SPINNER: [char; 4] = ['|', '/', '-', '\\'];
const POLL: Duration = Duration::from_millis(100);

/// Process-wide latch: while set, [`ProgressLine::spawn`] (and the
/// forced variant) return no-op handles and a live reporter stops
/// drawing. Set by commands whose own live output would fight the
/// spinner for the terminal.
static SUPPRESSED: AtomicBool = AtomicBool::new(false);

/// Suppresses (or re-enables) the progress line process-wide.
pub fn set_suppressed(on: bool) {
    SUPPRESSED.store(on, Ordering::Release);
}

/// `true` while the progress line is suppressed.
pub fn is_suppressed() -> bool {
    SUPPRESSED.load(Ordering::Acquire)
}

/// Handle to a running progress reporter thread.
///
/// Dropping the handle without calling [`ProgressLine::finish`] also
/// stops the thread and clears the line.
pub struct ProgressLine {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ProgressLine {
    /// Starts the reporter if stderr is a terminal; otherwise returns a
    /// no-op handle. `trace` supplies the phase name (use a
    /// `phases_only` session when full tracing is not wanted) and
    /// `metrics` the live counters.
    pub fn spawn(trace: TraceHandle, metrics: MetricsHandle) -> ProgressLine {
        ProgressLine::spawn_inner(trace, metrics, std::io::stderr().is_terminal())
    }

    /// Like [`ProgressLine::spawn`] but with an explicit TTY decision,
    /// so tests can exercise the thread without a terminal.
    pub fn spawn_forced(trace: TraceHandle, metrics: MetricsHandle) -> ProgressLine {
        ProgressLine::spawn_inner(trace, metrics, true)
    }

    fn spawn_inner(trace: TraceHandle, metrics: MetricsHandle, active: bool) -> ProgressLine {
        if !active || !trace.is_enabled() || is_suppressed() {
            return ProgressLine {
                stop: Arc::new(AtomicBool::new(true)),
                thread: None,
            };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut tick = 0usize;
            while !stop2.load(Ordering::Acquire) {
                if is_suppressed() {
                    std::thread::sleep(POLL);
                    continue;
                }
                let line = render(&trace, &metrics, SPINNER[tick % SPINNER.len()]);
                let mut err = std::io::stderr().lock();
                // Pad-and-return keeps a shrinking line from leaving
                // stale characters behind.
                let _ = write!(err, "\r{line:<70}\r");
                let _ = err.flush();
                tick += 1;
                std::thread::sleep(POLL);
            }
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\r{:70}\r", "");
            let _ = err.flush();
        });
        ProgressLine {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the reporter thread and clears the line.
    pub fn finish(mut self) {
        self.stop_thread();
    }

    fn stop_thread(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ProgressLine {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

/// Multi-line terminal redraw for live dashboards (`aidft top`): each
/// [`Dashboard::draw`] replaces the previously drawn block in place
/// (cursor-up + erase-below) when stderr is a TTY, and degrades to
/// plain appended lines in pipes and CI logs. Frames go to stderr so
/// stdout stays machine-readable.
pub struct Dashboard {
    tty: bool,
    lines_drawn: usize,
}

impl Dashboard {
    /// A dashboard that redraws in place when stderr is a terminal.
    pub fn new() -> Dashboard {
        Dashboard::with_tty(std::io::stderr().is_terminal())
    }

    /// Explicit TTY decision (tests, forced plain output).
    pub fn with_tty(tty: bool) -> Dashboard {
        Dashboard {
            tty,
            lines_drawn: 0,
        }
    }

    /// Draws one frame, replacing the previous one in TTY mode.
    pub fn draw(&mut self, lines: &[String]) {
        let mut err = std::io::stderr().lock();
        if self.tty && self.lines_drawn > 0 {
            let _ = write!(err, "\x1b[{}A\x1b[J", self.lines_drawn);
        }
        for line in lines {
            let _ = writeln!(err, "{line}");
        }
        let _ = err.flush();
        self.lines_drawn = if self.tty { lines.len() } else { 0 };
    }

    /// Erases the last frame (TTY mode; a no-op in pipes, where the
    /// frames are part of the log).
    pub fn clear(&mut self) {
        if self.tty && self.lines_drawn > 0 {
            let mut err = std::io::stderr().lock();
            let _ = write!(err, "\x1b[{}A\x1b[J", self.lines_drawn);
            let _ = err.flush();
            self.lines_drawn = 0;
        }
    }
}

impl Default for Dashboard {
    fn default() -> Dashboard {
        Dashboard::new()
    }
}

/// One progress-line snapshot (exposed for tests; the thread calls this
/// every poll).
pub fn render(trace: &TraceHandle, metrics: &MetricsHandle, spinner: char) -> String {
    let phase = trace.current_phase().unwrap_or("starting");
    match metrics.get() {
        Some(m) => {
            let patterns = m.atpg_patterns.get() + m.bist_patterns.get();
            let faults = m.faultsim_detected.get() + m.transition_detected.get();
            format!(
                "{spinner} {phase}: {} patterns, {} faults detected, {} podem calls",
                patterns,
                faults,
                m.podem_calls.get()
            )
        }
        None => format!("{spinner} {phase}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_trace::{TraceConfig, TraceSession};
    use std::sync::Mutex;

    /// Tests that spawn reporters or toggle the process-wide
    /// suppression latch serialize here — the harness runs tests
    /// concurrently in one process.
    static TTY_TESTS: Mutex<()> = Mutex::new(());

    #[test]
    fn render_reports_phase_and_counters() {
        let session = TraceSession::new(TraceConfig::phases_only());
        let trace = session.handle();
        let metrics = MetricsHandle::enabled();
        let _phase = trace.phase_span("atpg_random");
        metrics.get().unwrap().atpg_patterns.add(7);
        metrics.get().unwrap().podem_calls.add(3);
        let line = render(&trace, &metrics, '|');
        assert!(line.contains("atpg_random"), "line: {line}");
        assert!(line.contains("7 patterns"), "line: {line}");
        assert!(line.contains("3 podem calls"), "line: {line}");
    }

    #[test]
    fn disabled_trace_spawns_no_thread() {
        let p = ProgressLine::spawn_forced(TraceHandle::disabled(), MetricsHandle::disabled());
        assert!(p.thread.is_none());
        p.finish();
    }

    #[test]
    fn spawned_reporter_stops_cleanly() {
        let _lock = TTY_TESTS.lock().unwrap();
        let session = TraceSession::new(TraceConfig::phases_only());
        let p = ProgressLine::spawn_forced(session.handle(), MetricsHandle::enabled());
        assert!(p.thread.is_some());
        std::thread::sleep(Duration::from_millis(30));
        p.finish();
    }

    #[test]
    fn suppression_latch_blocks_the_reporter() {
        let _lock = TTY_TESTS.lock().unwrap();
        let session = TraceSession::new(TraceConfig::phases_only());
        set_suppressed(true);
        assert!(is_suppressed());
        let p = ProgressLine::spawn_forced(session.handle(), MetricsHandle::enabled());
        assert!(p.thread.is_none(), "suppressed spawn must be a no-op");
        p.finish();
        set_suppressed(false);
        let p = ProgressLine::spawn_forced(session.handle(), MetricsHandle::enabled());
        assert!(p.thread.is_some());
        p.finish();
    }

    #[test]
    fn dashboard_tracks_drawn_block_height() {
        let mut d = Dashboard::with_tty(false);
        d.draw(&["a".into(), "b".into()]);
        assert_eq!(d.lines_drawn, 0, "pipes never redraw in place");
        let mut d = Dashboard::with_tty(true);
        d.draw(&["a".into(), "b".into(), "c".into()]);
        assert_eq!(d.lines_drawn, 3);
        d.draw(&["a".into()]);
        assert_eq!(d.lines_drawn, 1);
        d.clear();
        assert_eq!(d.lines_drawn, 0);
    }
}
