//! Chrome/Perfetto `trace_event` JSON export.
//!
//! The output is the JSON-object form (`{"traceEvents": [...]}`) of the
//! Trace Event Format, loadable directly in `ui.perfetto.dev` or
//! `chrome://tracing`:
//!
//! * paired Begin/End events are emitted as complete (`"ph":"X"`) slices
//!   with microsecond `ts`/`dur` (3 decimal places preserve the
//!   nanosecond resolution of the ring timestamps),
//! * [`EventKind::Instant`] becomes a thread-scoped instant (`"ph":"i"`),
//! * [`EventKind::Counter`] becomes a counter sample (`"ph":"C"`),
//! * one process metadata record names the process `aidft`.
//!
//! Span args travel in `"args":{"arg":N}`; the logical worker id is the
//! `tid`.

use crate::{EventKind, SpanNode, TraceDump};

/// Formats nanoseconds as microseconds with nanosecond precision
/// (`1234` ns -> `1.234`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_span(node: &SpanNode, out: &mut Vec<String>) {
    let mut ev = format!(
        "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"aidft\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
        node.name,
        node.tid,
        us(node.start_ns),
        us(node.end_ns.saturating_sub(node.start_ns)),
    );
    if node.arg != 0 {
        ev.push_str(&format!(",\"args\":{{\"arg\":{}}}", node.arg));
    }
    ev.push('}');
    out.push(ev);
    for c in &node.children {
        push_span(c, out);
    }
}

/// Serializes a dump as Perfetto-loadable `trace_event` JSON.
///
/// Unpaired Begin/End events (possible after ring overflow) degrade
/// gracefully: pairing is per-thread and best-effort, so intact threads
/// still render.
pub(crate) fn to_perfetto_json(dump: &TraceDump) -> String {
    let mut out: Vec<String> = Vec::with_capacity(dump.events.len() / 2 + 2);
    out.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"aidft\"}}"
            .to_string(),
    );
    match dump.build_forest() {
        Ok(forest) => {
            for root in &forest {
                push_span(root, &mut out);
            }
        }
        Err(_) => {
            // Overflowed or still-open session: fall back to raw
            // Begin/End ("B"/"E") events, which viewers pair leniently.
            for e in &dump.events {
                let ph = match e.kind {
                    EventKind::Begin => "B",
                    EventKind::End => "E",
                    _ => continue,
                };
                out.push(format!(
                    "{{\"ph\":\"{}\",\"name\":\"{}\",\"cat\":\"aidft\",\"pid\":1,\
                     \"tid\":{},\"ts\":{}}}",
                    ph,
                    e.name,
                    e.tid,
                    us(e.ts_ns)
                ));
            }
        }
    }
    for e in &dump.events {
        match e.kind {
            EventKind::Instant => out.push(format!(
                "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"aidft\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"s\":\"t\",\"args\":{{\"arg\":{}}}}}",
                e.name,
                e.tid,
                us(e.ts_ns),
                e.arg
            )),
            EventKind::Counter => out.push(format!(
                "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                e.name,
                e.tid,
                us(e.ts_ns),
                e.arg
            )),
            _ => {}
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        out.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use crate::{EventKind, TraceDump, TraceEvent};

    /// A dump of `(ts_ns, tid, kind, name, arg)` events, given in
    /// timeline order as a snapshot sorts them.
    fn dump(events: &[(u64, u32, EventKind, &'static str, u64)]) -> TraceDump {
        let events = events
            .iter()
            .map(|&(ts_ns, tid, kind, name, arg)| TraceEvent {
                ts_ns,
                tid,
                kind,
                name,
                arg,
            });
        TraceDump {
            events: events.collect(),
            dropped: 0,
        }
    }

    #[test]
    fn perfetto_json_has_complete_events_and_metadata() {
        use EventKind::{Begin, Counter, End, Instant};
        // Nested spans with and without an arg on two threads, one
        // instant and one counter.
        let dump = dump(&[
            (1_000, 0, Begin, "flow", 0),
            (1_200, 1, Begin, "batch", 7),
            (1_300, 1, Begin, "leaf", 0),
            (1_400, 1, End, "leaf", 0),
            (1_500, 0, Begin, "atpg", 42),
            (1_800, 1, End, "batch", 0),
            (2_000, 0, Instant, "topoff_done", 3),
            (2_500, 0, End, "atpg", 0),
            (2_600, 0, Counter, "faults_left", 17),
            (1_000_005, 0, End, "flow", 0),
        ]);
        let expected = r#"{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"aidft"}},
{"ph":"X","name":"flow","cat":"aidft","pid":1,"tid":0,"ts":1.000,"dur":999.005},
{"ph":"X","name":"atpg","cat":"aidft","pid":1,"tid":0,"ts":1.500,"dur":1.000,"args":{"arg":42}},
{"ph":"X","name":"batch","cat":"aidft","pid":1,"tid":1,"ts":1.200,"dur":0.600,"args":{"arg":7}},
{"ph":"X","name":"leaf","cat":"aidft","pid":1,"tid":1,"ts":1.300,"dur":0.100},
{"ph":"i","name":"topoff_done","cat":"aidft","pid":1,"tid":0,"ts":2.000,"s":"t","args":{"arg":3}},
{"ph":"C","name":"faults_left","pid":1,"tid":0,"ts":2.600,"args":{"value":17}}
]}
"#;
        assert_eq!(dump.to_perfetto_json(), expected);
    }

    #[test]
    fn open_session_falls_back_to_begin_end_events() {
        use EventKind::{Begin, End, Instant};
        // `still_running` never closed, so the dump has no forest: spans
        // are exported as raw Begin/End events, which carry no args.
        let dump = dump(&[
            (10, 0, Begin, "still_running", 0),
            (20, 0, Begin, "inner", 5),
            (30, 0, Instant, "mark", 1),
            (40, 0, End, "inner", 0),
        ]);
        let expected = r#"{"displayTimeUnit":"ns","traceEvents":[
{"ph":"M","name":"process_name","pid":1,"tid":0,"args":{"name":"aidft"}},
{"ph":"B","name":"still_running","cat":"aidft","pid":1,"tid":0,"ts":0.010},
{"ph":"B","name":"inner","cat":"aidft","pid":1,"tid":0,"ts":0.020},
{"ph":"E","name":"inner","cat":"aidft","pid":1,"tid":0,"ts":0.040},
{"ph":"i","name":"mark","cat":"aidft","pid":1,"tid":0,"ts":0.030,"s":"t","args":{"arg":1}}
]}
"#;
        assert!(dump.build_forest().is_err());
        assert_eq!(dump.to_perfetto_json(), expected);
    }
}
