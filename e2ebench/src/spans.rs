//! In-memory span recorder for the traced run.
//!
//! Every span is recorded by the benchmark around a public library call
//! (`derived: false`), or synthesised from a duration the call itself
//! reports, laid out inside its parent (`derived: true`). A derived span
//! may be a residual: the part of its parent no measurement explains.
//! Spans stay in memory and are written as JSONL once the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Handle to a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug)]
struct Span {
    op: u32,
    parent: Option<usize>,
    name: &'static str,
    start: Duration,
    dur: Duration,
    derived: bool,
    residual: bool,
}

/// Shares of the operations' wall time, by self time (a span's duration
/// minus what its children cover), so nested spans count once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// In layer spans, residuals included.
    pub layers: f64,
    /// In layer spans that are not residuals.
    pub measured: f64,
}

/// The run's span store. A disabled tracer records nothing, so one code
/// path serves both runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    ops: u32,
}

impl Tracer {
    /// An empty store; span start times are offsets from now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
        }
    }

    /// A tracer whose every call is a no-op.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        self.ops += 1;
        self.push(self.ops - 1, None, "op")
    }

    /// Opens a child span of `parent`, starting now.
    pub fn open(&mut self, parent: SpanId, name: &'static str) -> SpanId {
        match self.spans.get(parent.0) {
            Some(p) => self.push(p.op, Some(parent.0), name),
            None => SpanId(usize::MAX),
        }
    }

    /// Closes `id` now and returns its duration (zero when disabled).
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.origin.elapsed();
        self.spans.get_mut(id.0).map_or(Duration::ZERO, |span| {
            span.dur = now.saturating_sub(span.start);
            span.dur
        })
    }

    /// Records a span whose duration a library call reported, starting
    /// `offset` after its parent's start.
    pub fn derived(
        &mut self,
        parent: SpanId,
        name: &'static str,
        offset: Duration,
        dur: Duration,
    ) -> SpanId {
        self.push_derived(parent, name, offset, dur, false)
    }

    /// Records the part of `parent` no measurement explains, starting
    /// `offset` after its start.
    pub fn residual(
        &mut self,
        parent: SpanId,
        name: &'static str,
        offset: Duration,
        dur: Duration,
    ) -> SpanId {
        self.push_derived(parent, name, offset, dur, true)
    }

    /// Operations recorded.
    pub fn ops(&self) -> u32 {
        self.ops
    }

    /// How much of the operations' wall time the spans named `layers`
    /// account for. Spans of other names only group.
    pub fn coverage(&self, layers: &[&str]) -> Coverage {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur;
            }
        }
        let (mut layered, mut measured, mut total) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for (s, &children) in self.spans.iter().zip(&child_time) {
            if s.parent.is_none() {
                total += s.dur;
            } else if layers.contains(&s.name) {
                let own = s.dur.saturating_sub(children);
                layered += own;
                if !s.residual {
                    measured += own;
                }
            }
        }
        let share = |d: Duration| {
            if total.is_zero() {
                0.0
            } else {
                d.as_secs_f64() / total.as_secs_f64()
            }
        };
        Coverage {
            layers: share(layered),
            measured: share(measured),
        }
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\": {}, \"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"dur_ns\": {}, \"derived\": {}, \"residual\": {}}}",
                s.op,
                s.name,
                s.start.as_nanos(),
                s.dur.as_nanos(),
                s.derived,
                s.residual
            );
        }
        out
    }

    fn push(&mut self, op: u32, parent: Option<usize>, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        self.spans.push(Span {
            op,
            parent,
            name,
            start: self.origin.elapsed(),
            dur: Duration::ZERO,
            derived: false,
            residual: false,
        });
        SpanId(self.spans.len() - 1)
    }

    fn push_derived(
        &mut self,
        parent: SpanId,
        name: &'static str,
        offset: Duration,
        dur: Duration,
        residual: bool,
    ) -> SpanId {
        let Some(p) = self.spans.get(parent.0) else {
            return SpanId(usize::MAX);
        };
        let span = Span {
            op: p.op,
            parent: Some(parent.0),
            name,
            start: p.start + offset,
            dur,
            derived: true,
            residual,
        };
        self.spans.push(span);
        SpanId(self.spans.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_only_layer_spans() {
        let mut tr = Tracer::new();
        let op = tr.begin_op();
        let flow = tr.open(op, "flow");
        std::thread::sleep(Duration::from_millis(40));
        tr.derived(
            flow,
            "atpg.topoff",
            Duration::ZERO,
            Duration::from_millis(10),
        );
        tr.residual(
            flow,
            "serve.overhead",
            Duration::from_millis(10),
            Duration::from_millis(10),
        );
        tr.close(flow);
        tr.close(op);
        // The group span's own 20+ ms count for nothing, however long.
        let c = tr.coverage(&["atpg.topoff", "serve.overhead"]);
        assert!(c.layers > 0.0 && c.layers <= 0.5, "{c:?}");
        assert!((c.layers - 2.0 * c.measured).abs() < 1e-9, "{c:?}");
        // A span whose name is not listed counts for nothing either.
        assert_eq!(tr.coverage(&["netlist.parse"]).layers, 0.0);
        assert_eq!(tr.ops(), 1);
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        assert!(jsonl.contains("\"name\": \"atpg.topoff\""));
        assert!(jsonl.contains("\"derived\": true, \"residual\": true"));
    }

    #[test]
    fn nested_layer_spans_count_once() {
        let mut tr = Tracer::new();
        let op = tr.begin_op();
        let serve = tr.open(op, "serve.fleet");
        std::thread::sleep(Duration::from_millis(10));
        let d = tr.close(serve);
        tr.derived(serve, "serve.die_compute", Duration::ZERO, d);
        tr.close(op);
        let c = tr.coverage(&["serve.fleet", "serve.die_compute"]);
        assert!(c.layers > 0.9 && c.layers <= 1.0, "{c:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let op = tr.begin_op();
        let s = tr.open(op, "netlist.parse");
        tr.derived(s, "x.y", Duration::ZERO, Duration::from_secs(1));
        assert_eq!(tr.close(s), Duration::ZERO);
        assert_eq!(tr.to_jsonl(), "");
        assert_eq!(tr.ops(), 0);
    }
}
