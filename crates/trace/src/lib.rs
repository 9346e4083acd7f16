//! `dft-trace`: hierarchical span tracing for the DFT pipeline.
//!
//! Where `dft-metrics` answers *how much* work a run did (counters,
//! histograms), this crate answers *where the wall-clock went*: every
//! phase, worker batch, and (sampled) per-fault search records a span
//! into a per-thread ring buffer, and a finished session exports
//!
//! * Chrome/Perfetto `trace_event` JSON — load it in `ui.perfetto.dev`
//!   ([`TraceDump::to_perfetto_json`]), and
//! * a compact JSONL event journal with a stable schema for tooling
//!   ([`TraceDump::to_jsonl`], schema in `EXPERIMENTS.md`).
//!
//! The design rules mirror `dft-metrics`:
//!
//! 1. **Zero cost when disabled.** Instrumented code holds a
//!    [`TraceHandle`]; the disabled handle is `None` and every record
//!    site is a single untaken branch — no timestamp is read, no buffer
//!    is touched.
//! 2. **Lock-free hot path.** Each recording thread owns a
//!    [`single-writer ring buffer`](#ring-buffers): writes are plain
//!    relaxed atomic stores into pre-allocated slots, no locks, no
//!    allocation. The only locks are at worker registration (once per
//!    thread per session) and at export (after the workers joined).
//! 3. **Bounded volume.** Per-fault spans are sampled
//!    ([`TraceConfig::fault_span_every`]); rings overwrite their oldest
//!    events on overflow and count the loss ([`TraceDump::dropped`])
//!    instead of growing without bound.
//!
//! # Ring buffers
//!
//! A [`WorkerBuffer`] is written by exactly one thread (enforced by the
//! thread-local registration in `TraceHandle::recorder`) and read only
//! after that thread's work is joined, so relaxed atomics are sufficient
//! and every write is wait-free. Timestamps are monotonic nanoseconds
//! since the owning [`TraceSession`] started, so spans from different
//! workers land on one common timeline.
//!
//! # Example
//!
//! ```
//! use dft_trace::{span, TraceConfig, TraceSession};
//!
//! let session = TraceSession::new(TraceConfig::default());
//! let trace = session.handle();
//! {
//!     let _flow = span!(trace, "flow");
//!     let _atpg = span!(trace, "podem", 17); // arg = fault index
//! }
//! let dump = session.snapshot();
//! assert_eq!(dump.events.len(), 4); // two begins + two ends
//! assert!(dump.to_perfetto_json().contains("\"podem\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod journal;
mod perfetto;

pub use journal::{validate_journal, JournalError};

/// Tuning knobs for a [`TraceSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record one per-fault search span (PODEM / D-algorithm /
    /// per-pattern deductive) for every `n`-th fault targeted; `0`
    /// disables per-fault spans entirely. Batch and phase spans are
    /// never sampled. The default (16) bounds span volume to a few
    /// hundred per run while keeping the tail visible.
    pub fault_span_every: u64,
    /// Record per-chunk worker batch spans in the parallel
    /// fault-simulation paths (PPSFP, transition). Default `true`.
    pub batch_spans: bool,
    /// Ring capacity in events per worker buffer (rounded up to a power
    /// of two). On overflow the oldest events are overwritten and
    /// counted in [`TraceDump::dropped`].
    pub buffer_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            fault_span_every: 16,
            batch_spans: true,
            buffer_capacity: 1 << 13,
        }
    }
}

impl TraceConfig {
    /// A minimal config recording only phase/session spans: no per-fault
    /// spans, no worker batch spans, small rings. Used by the flow when
    /// tracing was not requested but phase timings (and the live
    /// progress phase) still need a span clock.
    pub fn phases_only() -> TraceConfig {
        TraceConfig {
            fault_span_every: 0,
            batch_spans: false,
            buffer_capacity: 1 << 9,
        }
    }
}

/// What one ring-buffer slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`arg` = user payload).
    Begin,
    /// The most recent unmatched [`EventKind::Begin`] of the same buffer
    /// closed.
    End,
    /// A point event.
    Instant,
    /// A sampled counter value (`arg` = value).
    Counter,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Begin => 0,
            EventKind::End => 1,
            EventKind::Instant => 2,
            EventKind::Counter => 3,
        }
    }

    fn from_code(c: u64) -> EventKind {
        match c {
            0 => EventKind::Begin,
            1 => EventKind::End,
            2 => EventKind::Instant,
            _ => EventKind::Counter,
        }
    }
}

/// A single-writer, lock-free event ring. Written only by its owning
/// thread (plain relaxed stores into pre-allocated slots), read by the
/// session after the owner's work is joined.
#[derive(Debug)]
pub struct WorkerBuffer {
    /// Session-local logical thread id (0 = first registrant, usually
    /// the main thread).
    tid: u32,
    /// Session start, copied so the hot path never dereferences the
    /// session to take a timestamp.
    start: Instant,
    /// Total events ever written (monotonic; slot = `head % capacity`).
    head: AtomicU64,
    /// Slot storage, `3` words per event: timestamp, packed
    /// kind/name-id, arg.
    slots: Box<[AtomicU64]>,
    /// Capacity in events (power of two).
    capacity: u64,
    /// Per-buffer name table: id = index. Only the owner writes (on
    /// first use of a name), only the exporter reads after join; the
    /// lock is never contended.
    names: Mutex<Vec<&'static str>>,
}

impl WorkerBuffer {
    fn new(tid: u32, start: Instant, capacity: usize) -> WorkerBuffer {
        let capacity = capacity.next_power_of_two().max(8) as u64;
        let slots = (0..capacity * 3).map(|_| AtomicU64::new(0)).collect();
        WorkerBuffer {
            tid,
            start,
            head: AtomicU64::new(0),
            slots,
            capacity,
            names: Mutex::new(Vec::new()),
        }
    }

    /// Interns `name` in this buffer's table (owner thread only; linear
    /// scan is fine — a buffer sees a handful of distinct names).
    fn name_id(&self, name: &'static str) -> u64 {
        let mut names = self.names.lock().unwrap();
        if let Some(i) = names
            .iter()
            .position(|&n| std::ptr::eq(n.as_ptr(), name.as_ptr()) || n == name)
        {
            return i as u64;
        }
        names.push(name);
        (names.len() - 1) as u64
    }

    /// Records one event (owner thread only).
    fn push(&self, kind: EventKind, name_id: u64, arg: u64) {
        let ts = self.start.elapsed().as_nanos() as u64;
        let h = self.head.load(Ordering::Relaxed);
        let base = ((h % self.capacity) * 3) as usize;
        self.slots[base].store(ts, Ordering::Relaxed);
        self.slots[base + 1].store(kind.code() << 32 | name_id, Ordering::Relaxed);
        self.slots[base + 2].store(arg, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Relaxed);
    }

    /// Drains the surviving events in write order, plus the number of
    /// overwritten (lost) events.
    fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let names = self.names.lock().unwrap();
        let head = self.head.load(Ordering::Relaxed);
        let lost = head.saturating_sub(self.capacity);
        let mut out = Vec::with_capacity((head - lost) as usize);
        for i in lost..head {
            let base = ((i % self.capacity) * 3) as usize;
            let packed = self.slots[base + 1].load(Ordering::Relaxed);
            out.push(TraceEvent {
                ts_ns: self.slots[base].load(Ordering::Relaxed),
                tid: self.tid,
                kind: EventKind::from_code(packed >> 32),
                name: names
                    .get((packed & 0xFFFF_FFFF) as usize)
                    .copied()
                    .unwrap_or("?"),
                arg: self.slots[base + 2].load(Ordering::Relaxed),
            });
        }
        (out, lost)
    }
}

/// The shared state behind one tracing session.
#[derive(Debug)]
struct TraceInner {
    /// Unique session id (thread-local recorder cache key).
    id: u64,
    start: Instant,
    cfg: TraceConfig,
    buffers: Mutex<Vec<Arc<WorkerBuffer>>>,
    /// Name of the innermost open *phase* span, for live progress.
    phase: Mutex<Option<&'static str>>,
}

static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread recorder cache: `(session id, buffer)`. Capped small;
    /// a thread rarely serves more than a couple of live sessions.
    static RECORDERS: RefCell<Vec<(u64, Arc<WorkerBuffer>)>> = const { RefCell::new(Vec::new()) };
}

/// Owns a tracing session: hand out [`TraceHandle`]s with
/// [`TraceSession::handle`], run the instrumented work, then export with
/// [`TraceSession::snapshot`].
#[derive(Debug)]
pub struct TraceSession {
    inner: Arc<TraceInner>,
}

impl TraceSession {
    /// Starts a session; its clock (timestamp zero) is *now*.
    pub fn new(cfg: TraceConfig) -> TraceSession {
        TraceSession {
            inner: Arc::new(TraceInner {
                id: SESSION_IDS.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
                cfg,
                buffers: Mutex::new(Vec::new()),
                phase: Mutex::new(None),
            }),
        }
    }

    /// A cheap, cloneable recording handle for this session.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle(Some(self.inner.clone()))
    }

    /// Collects every buffer's events onto the common timeline. Safe to
    /// call while the owning threads are still alive, but intended for
    /// after the instrumented work joined (events written concurrently
    /// with the snapshot may be missed).
    pub fn snapshot(&self) -> TraceDump {
        let buffers = self.inner.buffers.lock().unwrap();
        let mut events = Vec::new();
        let mut dropped = 0;
        for b in buffers.iter() {
            let (ev, lost) = b.drain();
            events.extend(ev);
            dropped += lost;
        }
        // Stable sort onto the session timeline; per-buffer write order
        // is preserved for equal timestamps, so per-thread Begin/End
        // pairing survives the merge.
        events.sort_by_key(|e| (e.ts_ns, e.tid));
        TraceDump { events, dropped }
    }
}

/// A cheap, cloneable reference to a [`TraceSession`] — or the disabled
/// no-op. Instrumented structs store one; every record site is one
/// branch when disabled.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Arc<TraceInner>>);

impl TraceHandle {
    /// The disabled handle: all instrumentation compiles to one branch.
    pub fn disabled() -> TraceHandle {
        TraceHandle(None)
    }

    /// `true` when recording.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// `true` when the `i`-th fault of a run should get a per-fault span
    /// (sampling knob [`TraceConfig::fault_span_every`]; always `false`
    /// when disabled).
    #[inline]
    pub fn fault_sampled(&self, i: u64) -> bool {
        match &self.0 {
            None => false,
            Some(inner) => {
                let n = inner.cfg.fault_span_every;
                n > 0 && i.is_multiple_of(n)
            }
        }
    }

    /// `true` when worker batch spans should be recorded.
    #[inline]
    pub fn batch_spans(&self) -> bool {
        self.0.as_ref().map(|i| i.cfg.batch_spans).unwrap_or(false)
    }

    /// This thread's ring buffer for the session (registering it on
    /// first use). `None` when disabled.
    fn recorder(&self) -> Option<Arc<WorkerBuffer>> {
        let inner = self.0.as_ref()?;
        RECORDERS.with(|cell| {
            let mut cache = cell.borrow_mut();
            if let Some((_, buf)) = cache.iter().find(|(id, _)| *id == inner.id) {
                return Some(buf.clone());
            }
            let mut buffers = inner.buffers.lock().unwrap();
            let buf = Arc::new(WorkerBuffer::new(
                buffers.len() as u32,
                inner.start,
                inner.cfg.buffer_capacity,
            ));
            buffers.push(buf.clone());
            drop(buffers);
            if cache.len() >= 8 {
                cache.remove(0);
            }
            cache.push((inner.id, buf.clone()));
            Some(buf)
        })
    }

    /// Opens a span; it closes when the returned guard drops. Nothing is
    /// recorded (and no clock is read) when disabled.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_arg(name, 0)
    }

    /// Opens a span carrying a `u64` payload (fault index, worker index,
    /// care bits, ...).
    #[inline]
    pub fn span_arg(&self, name: &'static str, arg: u64) -> Span {
        Span(self.recorder().map(|buf| {
            let id = buf.name_id(name);
            buf.push(EventKind::Begin, id, arg);
            (buf, id)
        }))
    }

    /// Opens a span that *also* reports its duration when finished —
    /// the clock runs even when tracing is disabled, so phase timings
    /// are available on every run. Use [`TimedSpan::finish`].
    pub fn timed_span(&self, name: &'static str) -> TimedSpan {
        TimedSpan {
            started: Instant::now(),
            rec: self.recorder().map(|buf| {
                let id = buf.name_id(name);
                buf.push(EventKind::Begin, id, 0);
                (buf, id)
            }),
        }
    }

    /// A [`TraceHandle::timed_span`] that additionally publishes `name`
    /// as the session's current phase (for the live progress line).
    pub fn phase_span(&self, name: &'static str) -> TimedSpan {
        if let Some(inner) = &self.0 {
            *inner.phase.lock().unwrap() = Some(name);
        }
        self.timed_span(name)
    }

    /// The innermost phase currently open (label of the most recent
    /// [`TraceHandle::phase_span`]); `None` when disabled or before the
    /// first phase.
    pub fn current_phase(&self) -> Option<&'static str> {
        self.0.as_ref().and_then(|i| *i.phase.lock().unwrap())
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&self, name: &'static str, arg: u64) {
        if let Some(buf) = self.recorder() {
            let id = buf.name_id(name);
            buf.push(EventKind::Instant, id, arg);
        }
    }

    /// Records a counter sample.
    #[inline]
    pub fn counter(&self, name: &'static str, value: u64) {
        if let Some(buf) = self.recorder() {
            let id = buf.name_id(name);
            buf.push(EventKind::Counter, id, value);
        }
    }
}

/// RAII guard from [`TraceHandle::span`]: records the matching
/// [`EventKind::End`] on drop. Never reads a clock when disabled.
#[derive(Debug)]
#[must_use = "a span closes when this guard drops"]
pub struct Span(Option<(Arc<WorkerBuffer>, u64)>);

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((buf, id)) = self.0.take() {
            buf.push(EventKind::End, id, 0);
        }
    }
}

/// RAII guard from [`TraceHandle::timed_span`]: records the matching end
/// event (when enabled) and reports the elapsed wall-clock.
#[derive(Debug)]
#[must_use = "a span closes when this guard drops"]
pub struct TimedSpan {
    started: Instant,
    rec: Option<(Arc<WorkerBuffer>, u64)>,
}

impl TimedSpan {
    /// Closes the span and returns its duration (measured even when
    /// tracing is disabled).
    pub fn finish(mut self) -> Duration {
        if let Some((buf, id)) = self.rec.take() {
            buf.push(EventKind::End, id, 0);
        }
        self.started.elapsed()
    }
}

impl Drop for TimedSpan {
    fn drop(&mut self) {
        if let Some((buf, id)) = self.rec.take() {
            buf.push(EventKind::End, id, 0);
        }
    }
}

/// Opens a span on a [`TraceHandle`]: `span!(trace, "name")` or
/// `span!(trace, "name", arg)`. Bind the result (`let _g = span!(...)`)
/// so it stays open for the scope.
#[macro_export]
macro_rules! span {
    ($handle:expr, $name:literal) => {
        $handle.span($name)
    };
    ($handle:expr, $name:literal, $arg:expr) => {
        $handle.span_arg($name, $arg as u64)
    };
}

/// One drained ring-buffer slot on the session timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the session started.
    pub ts_ns: u64,
    /// Logical thread id (session-local).
    pub tid: u32,
    /// Event kind.
    pub kind: EventKind,
    /// Interned span/event name.
    pub name: &'static str,
    /// User payload (`0` when unused).
    pub arg: u64,
}

/// A completed span reconstructed from a Begin/End pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// Logical thread id.
    pub tid: u32,
    /// Start, nanoseconds on the session timeline.
    pub start_ns: u64,
    /// End, nanoseconds on the session timeline.
    pub end_ns: u64,
    /// User payload from the Begin event.
    pub arg: u64,
    /// Nesting depth on its thread (0 = top level).
    pub depth: u32,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

/// All events of one [`TraceSession::snapshot`], merged and sorted onto
/// the session timeline.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// Events sorted by `(ts_ns, tid)`, per-thread write order preserved.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites across all buffers.
    pub dropped: u64,
}

/// A Begin event with no matching End (or vice versa) was found while
/// pairing a thread's events into spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestError {
    /// Thread the mismatch occurred on.
    pub tid: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ForestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid {}: {}", self.tid, self.message)
    }
}

impl std::error::Error for ForestError {}

impl TraceDump {
    /// The `arg` payloads of every [`EventKind::Instant`] named `name`,
    /// in timeline order. The lookup half of a span→event bridge: a
    /// subsystem marks point events (`quarantine`, `retest`, ...) on
    /// the trace timeline, and an observer joins them back out by name
    /// without walking the span forest.
    pub fn instants_named(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Instant && e.name == name)
            .map(|e| e.arg)
            .collect()
    }

    /// Pairs each thread's Begin/End events into a forest of
    /// [`SpanNode`]s (top-level spans of every thread, in start order).
    /// Errors on an unmatched Begin or End — which can only happen after
    /// ring overflow ([`TraceDump::dropped`] `> 0`) or a snapshot taken
    /// while spans were still open.
    pub fn build_forest(&self) -> Result<Vec<SpanNode>, ForestError> {
        let mut roots: Vec<SpanNode> = Vec::new();
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            // Stack of open spans; children accumulate per level.
            let mut stack: Vec<SpanNode> = Vec::new();
            let mut done: Vec<SpanNode> = Vec::new();
            for e in self.events.iter().filter(|e| e.tid == tid) {
                match e.kind {
                    EventKind::Begin => stack.push(SpanNode {
                        name: e.name,
                        tid,
                        start_ns: e.ts_ns,
                        end_ns: e.ts_ns,
                        arg: e.arg,
                        depth: stack.len() as u32,
                        children: Vec::new(),
                    }),
                    EventKind::End => {
                        let mut node = stack.pop().ok_or_else(|| ForestError {
                            tid,
                            message: format!("unmatched end of `{}`", e.name),
                        })?;
                        if node.name != e.name {
                            return Err(ForestError {
                                tid,
                                message: format!("end of `{}` closes span `{}`", e.name, node.name),
                            });
                        }
                        node.end_ns = e.ts_ns;
                        match stack.last_mut() {
                            Some(parent) => parent.children.push(node),
                            None => done.push(node),
                        }
                    }
                    EventKind::Instant | EventKind::Counter => {}
                }
            }
            if let Some(open) = stack.last() {
                return Err(ForestError {
                    tid,
                    message: format!("span `{}` never closed", open.name),
                });
            }
            roots.extend(done);
        }
        roots.sort_by_key(|n| (n.start_ns, n.tid));
        Ok(roots)
    }

    /// Flattens [`TraceDump::build_forest`] into all spans (any depth),
    /// in start order.
    pub fn spans(&self) -> Result<Vec<SpanNode>, ForestError> {
        fn walk(node: &SpanNode, out: &mut Vec<SpanNode>) {
            let mut flat = node.clone();
            flat.children = Vec::new();
            out.push(flat);
            for c in &node.children {
                walk(c, out);
            }
        }
        let mut out = Vec::new();
        for root in self.build_forest()? {
            walk(&root, &mut out);
        }
        out.sort_by_key(|n| (n.start_ns, n.tid, n.depth));
        Ok(out)
    }

    /// Serializes as Chrome/Perfetto `trace_event` JSON (see
    /// [`perfetto`](TraceDump::to_perfetto_json) module docs).
    pub fn to_perfetto_json(&self) -> String {
        perfetto::to_perfetto_json(self)
    }

    /// Serializes as the JSONL event journal (one object per line;
    /// schema `aidft-trace-v1`, documented in `EXPERIMENTS.md`).
    pub fn to_jsonl(&self) -> String {
        journal::to_jsonl(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_costs_no_clock() {
        let t = TraceHandle::disabled();
        assert!(!t.is_enabled());
        assert!(!t.fault_sampled(0));
        assert!(!t.batch_spans());
        assert!(t.current_phase().is_none());
        let _g = t.span("x");
        t.instant("i", 1);
        t.counter("c", 2);
        // TimedSpan still measures.
        let g = t.timed_span("phase");
        std::thread::sleep(Duration::from_millis(1));
        assert!(g.finish() >= Duration::from_millis(1));
    }

    #[test]
    fn instants_filter_by_name_in_timeline_order() {
        let session = TraceSession::new(TraceConfig::default());
        let t = session.handle();
        t.instant("quarantine", 3);
        t.instant("retest", 9);
        t.instant("quarantine", 7);
        t.counter("quarantine", 99); // a counter, not an instant
        let dump = session.snapshot();
        assert_eq!(dump.instants_named("quarantine"), vec![3, 7]);
        assert_eq!(dump.instants_named("retest"), vec![9]);
        assert!(dump.instants_named("absent").is_empty());
    }

    #[test]
    fn spans_nest_and_never_overlap_on_one_thread() {
        let session = TraceSession::new(TraceConfig::default());
        let t = session.handle();
        {
            let _a = span!(t, "a");
            {
                let _b = span!(t, "b", 7);
                let _c = span!(t, "c");
            }
            let _d = span!(t, "d");
        }
        let dump = session.snapshot();
        assert_eq!(dump.dropped, 0);
        let forest = dump.build_forest().unwrap();
        assert_eq!(forest.len(), 1);
        let a = &forest[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.depth, 0);
        assert_eq!(
            a.children.iter().map(|c| c.name).collect::<Vec<_>>(),
            ["b", "d"]
        );
        assert_eq!(a.children[0].arg, 7);
        assert_eq!(a.children[0].children[0].name, "c");
        assert_eq!(a.children[0].children[0].depth, 2);
        // Nesting: children lie within parents; siblings never overlap.
        for spans in dump.spans().unwrap().windows(2) {
            let (x, y) = (&spans[0], &spans[1]);
            assert!(x.start_ns <= x.end_ns);
            if x.tid == y.tid && y.depth <= x.depth {
                assert!(y.start_ns >= x.end_ns, "sibling overlap: {x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn concurrent_workers_merge_onto_one_timeline() {
        let session = TraceSession::new(TraceConfig::default());
        let t = session.handle();
        let _root = span!(t, "root");
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..10u64 {
                        let _g = t.span_arg("batch", w * 100 + i);
                    }
                });
            }
        });
        drop(_root);
        let dump = session.snapshot();
        let spans = dump.spans().unwrap();
        assert_eq!(spans.iter().filter(|s| s.name == "batch").count(), 40);
        // 4 workers + the main thread.
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 5);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let session = TraceSession::new(TraceConfig {
            buffer_capacity: 16,
            ..TraceConfig::default()
        });
        let t = session.handle();
        for i in 0..100 {
            t.instant("tick", i);
        }
        let dump = session.snapshot();
        assert_eq!(dump.events.len(), 16);
        assert_eq!(dump.dropped, 84);
        // Survivors are the newest.
        assert_eq!(dump.events.last().unwrap().arg, 99);
    }

    #[test]
    fn unbalanced_events_are_a_forest_error() {
        let session = TraceSession::new(TraceConfig::default());
        let t = session.handle();
        let g = t.span("open");
        let dump = session.snapshot();
        assert!(dump.build_forest().is_err());
        drop(g);
        assert!(session.snapshot().build_forest().is_ok());
    }

    #[test]
    fn phase_span_publishes_current_phase() {
        let session = TraceSession::new(TraceConfig::phases_only());
        let t = session.handle();
        assert_eq!(t.current_phase(), None);
        let p = t.phase_span("atpg");
        assert_eq!(t.current_phase(), Some("atpg"));
        let d = p.finish();
        assert!(d <= Instant::now().elapsed() + d); // smoke: finite
        let _p2 = t.phase_span("compress");
        assert_eq!(t.current_phase(), Some("compress"));
    }

    #[test]
    fn fault_sampling_respects_every_n() {
        let session = TraceSession::new(TraceConfig {
            fault_span_every: 4,
            ..TraceConfig::default()
        });
        let t = session.handle();
        let sampled: Vec<bool> = (0..8).map(|i| t.fault_sampled(i)).collect();
        assert_eq!(
            sampled,
            [true, false, false, false, true, false, false, false]
        );
        let off = TraceSession::new(TraceConfig {
            fault_span_every: 0,
            ..TraceConfig::default()
        });
        assert!((0..8).all(|i| !off.handle().fault_sampled(i)));
    }

    #[test]
    fn timed_span_duration_matches_recorded_span() {
        let session = TraceSession::new(TraceConfig::default());
        let t = session.handle();
        let g = t.timed_span("work");
        std::thread::sleep(Duration::from_millis(2));
        let d = g.finish();
        let spans = session.snapshot().spans().unwrap();
        let s = spans.iter().find(|s| s.name == "work").unwrap();
        let recorded = Duration::from_nanos(s.end_ns - s.start_ns);
        assert!(recorded >= Duration::from_millis(2));
        assert!(d >= recorded);
    }
}
