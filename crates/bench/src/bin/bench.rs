//! `bench` — trace and telemetry validation tooling.
//!
//! ```text
//! bench validate-trace <trace.json> [--jsonl <journal.jsonl>]
//! bench validate-telemetry <scrape1.json> [scrape2.json] [--events <path>]
//! ```
//!
//! `validate-trace` checks a Perfetto `trace_event` export structurally
//! (JSON parses, `traceEvents` is a non-empty array, complete events
//! carry name/ts/dur) and, with `--jsonl`, validates an
//! `aidft-trace-v1` journal with the library validator.
//!
//! `validate-telemetry` checks one or two `aidft fleet-stats` JSON
//! scrapes structurally (schema tag, fleet/breaker/rates/latency
//! sections, bucket widths) and — when two are given — that the pair is
//! consistent with a single live run: sample seq, uptime, dies-done,
//! scrape count, and every shared counter must be monotone from the
//! first to the second. With `--events` it also validates an
//! `aidft-telemetry-v1` event journal (v1 envelope, known kinds,
//! strictly increasing seq). CI scrapes a serving fleet twice and gates
//! on the exit status.

use std::process::ExitCode;

use dft_bench::json::Json;
use dft_core::telemetry::{validate_events, STATS_SCHEMA};
use dft_core::trace::validate_journal;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("validate-trace") => run_validate(&args[1..]),
        Some("validate-telemetry") => run_validate_telemetry(&args[1..]),
        _ => {
            eprintln!(
                "usage: bench <validate-trace <trace.json> [--jsonl <journal.jsonl>] | \
                 validate-telemetry <scrape1.json> [scrape2.json] [--events <path>]>"
            );
            ExitCode::from(2)
        }
    }
}

fn run_validate(args: &[String]) -> ExitCode {
    let mut trace_path: Option<&str> = None;
    let mut jsonl_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jsonl" => match it.next() {
                Some(p) => jsonl_path = Some(p),
                None => return usage("--jsonl requires a path"),
            },
            p if trace_path.is_none() => trace_path = Some(p),
            other => return usage(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(trace_path) = trace_path else {
        return usage("validate-trace requires a <trace.json> path");
    };
    let text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench validate-trace: read {trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    match validate_perfetto(&text) {
        Ok((spans, instants)) => {
            println!("{trace_path}: ok ({spans} spans, {instants} other events)");
        }
        Err(e) => {
            eprintln!("bench validate-trace: {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(jsonl_path) = jsonl_path {
        let text = match std::fs::read_to_string(jsonl_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench validate-trace: read {jsonl_path}: {e}");
                return ExitCode::from(2);
            }
        };
        match validate_journal(&text) {
            Ok((spans, events)) => {
                println!("{jsonl_path}: ok ({spans} spans, {events} events)");
            }
            Err(e) => {
                eprintln!("bench validate-trace: {jsonl_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_validate_telemetry(args: &[String]) -> ExitCode {
    let mut scrapes: Vec<&str> = Vec::new();
    let mut events_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--events" => match it.next() {
                Some(p) => events_path = Some(p),
                None => return usage("--events requires a path"),
            },
            p if scrapes.len() < 2 => scrapes.push(p),
            other => return usage(&format!("unexpected argument `{other}`")),
        }
    }
    if scrapes.is_empty() {
        return usage("validate-telemetry requires at least one scrape JSON path");
    }
    let mut parsed: Vec<Json> = Vec::new();
    for path in &scrapes {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench validate-telemetry: read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match validate_scrape(&text) {
            Ok(doc) => {
                println!(
                    "{path}: ok (seq {}, {}/{} dies done)",
                    doc.get("seq").and_then(Json::as_u64).unwrap_or(0),
                    scrape_u64(&doc, "fleet", "dies_done"),
                    scrape_u64(&doc, "fleet", "dies"),
                );
                parsed.push(doc);
            }
            Err(e) => {
                eprintln!("bench validate-telemetry: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let [first, second] = parsed.as_slice() {
        if let Err(e) = check_monotone(first, second) {
            eprintln!(
                "bench validate-telemetry: {} -> {}: {e}",
                scrapes[0], scrapes[1]
            );
            return ExitCode::FAILURE;
        }
        println!(
            "{} -> {}: monotone (seq {} -> {})",
            scrapes[0],
            scrapes[1],
            first.get("seq").and_then(Json::as_u64).unwrap_or(0),
            second.get("seq").and_then(Json::as_u64).unwrap_or(0)
        );
    }
    if let Some(path) = events_path {
        match validate_events(std::path::Path::new(path)) {
            Ok(stats) => println!(
                "{path}: ok ({} events, {} quarantines)",
                stats.events, stats.quarantines
            ),
            Err(e) => {
                eprintln!("bench validate-telemetry: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Structural check of one `aidft-stats-v1` JSON scrape. Returns the
/// parsed document for cross-scrape checks.
fn validate_scrape(text: &str) -> Result<Json, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == STATS_SCHEMA => {}
        Some(s) => return Err(format!("schema `{s}`, expected `{STATS_SCHEMA}`")),
        None => return Err("missing `schema` tag".to_owned()),
    }
    if doc.get("seq").and_then(Json::as_u64).is_none() {
        return Err("missing numeric `seq`".to_owned());
    }
    if doc.get("uptime_ms").and_then(Json::as_u64).is_none() {
        return Err("missing numeric `uptime_ms`".to_owned());
    }
    for (section, keys) in [
        ("fleet", &["dies", "dies_done", "windows_in_flight"][..]),
        ("breaker", &["closed", "backoff", "quarantined"][..]),
    ] {
        let obj = doc
            .get(section)
            .ok_or(format!("missing `{section}` section"))?;
        for key in keys {
            if obj.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("missing numeric `{section}.{key}`"));
            }
        }
    }
    for section in ["rates", "latency_us", "counters"] {
        if doc.get(section).is_none() {
            return Err(format!("missing `{section}` section"));
        }
    }
    let latency = doc.get("latency_us").expect("checked above");
    for buckets in ["window_buckets", "signature_buckets"] {
        let n = latency
            .get(buckets)
            .and_then(Json::as_arr)
            .ok_or(format!("missing `latency_us.{buckets}` array"))?
            .len();
        if n != 17 {
            return Err(format!(
                "`latency_us.{buckets}` has {n} buckets, expected 17"
            ));
        }
    }
    Ok(doc)
}

/// Reads `doc.<section>.<key>` as an integer (0 when absent; the
/// structural check has already run).
fn scrape_u64(doc: &Json, section: &str, key: &str) -> u64 {
    doc.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Two scrapes of the same live run must move forward, never back:
/// sample seq, uptime, dies-done, served scrapes, and every counter
/// present in both.
fn check_monotone(first: &Json, second: &Json) -> Result<(), String> {
    let top = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0);
    for key in ["seq", "uptime_ms", "scrapes"] {
        if top(second, key) < top(first, key) {
            return Err(format!(
                "`{key}` went backwards: {} -> {}",
                top(first, key),
                top(second, key)
            ));
        }
    }
    if scrape_u64(second, "fleet", "dies_done") < scrape_u64(first, "fleet", "dies_done") {
        return Err("`fleet.dies_done` went backwards".to_owned());
    }
    let (Some(Json::Obj(before)), Some(after)) = (first.get("counters"), second.get("counters"))
    else {
        return Err("missing `counters` object".to_owned());
    };
    for (name, value) in before {
        let Some(was) = value.as_u64() else { continue };
        let now = after.get(name).and_then(Json::as_u64).unwrap_or(0);
        if now < was {
            return Err(format!("counter `{name}` went backwards: {was} -> {now}"));
        }
    }
    Ok(())
}

/// Structural check of a Chrome `trace_event` JSON document. Returns
/// (complete spans, other events).
fn validate_perfetto(text: &str) -> Result<(usize, usize), String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("empty `traceEvents`".to_owned());
    }
    let mut spans = 0usize;
    let mut others = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing `ph`"))?;
        if ev.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("event {i}: missing `name`"));
        }
        match ph {
            "X" => {
                for key in ["ts", "dur", "pid", "tid"] {
                    if ev.get(key).and_then(Json::as_f64).is_none() {
                        return Err(format!("event {i}: complete event missing `{key}`"));
                    }
                }
                spans += 1;
            }
            "B" | "E" | "i" | "C" | "M" => others += 1,
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    if spans == 0 {
        return Err("no complete (`X`) span events".to_owned());
    }
    Ok((spans, others))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench: {msg}");
    ExitCode::from(2)
}
