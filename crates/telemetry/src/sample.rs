//! Scrape payloads: one published [`TelemetrySample`] rendered as
//! Prometheus text exposition or stable-ordered JSON.
//!
//! The Prometheus text is built from one canonical ordered pair list
//! ([`TelemetrySample::expo_pairs`]), so its exposition order is
//! deterministic — scraping twice and diffing shows only the numbers
//! that moved. Label values are escaped at pair-construction time
//! (`\\`, `\"`, `\n`), so every pair renders as exactly one line and
//! [`parse_prometheus`]`(`[`TelemetrySample::to_prometheus`]`(s))`
//! round-trips the pair list exactly (f64 `Display` is shortest
//! round-trip in Rust). The JSON ([`TelemetrySample::to_json`]) is
//! written from the sample's fields directly, in a fixed key order,
//! with the same [`format_value`] number rendering.

use dft_metrics::{bucket_bounds, HISTOGRAM_BUCKETS};

/// Schema id carried by the JSON scrape payload.
pub const STATS_SCHEMA: &str = "aidft-stats-v1";

/// One published snapshot of the live fleet, assembled by the sampler
/// thread and served verbatim by the stats endpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySample {
    /// Sampler tick ordinal (0 is the synchronous startup sample).
    pub seq: u64,
    /// Milliseconds since the telemetry session started.
    pub uptime_ms: u64,
    /// Design name from the fleet gauges.
    pub design: String,
    /// Fleet shape and progress.
    pub dies: u64,
    pub dies_done: u64,
    pub windows_per_die: u64,
    pub sessions_active: u64,
    pub windows_in_flight: u64,
    /// Breaker-state population.
    pub closed: u64,
    pub backoff: u64,
    pub quarantined: u64,
    /// Rolling rates over the sampler's sliding window.
    pub dies_per_sec: f64,
    pub signatures_per_sec: f64,
    pub peak_dies_per_sec: f64,
    /// Latency quantile estimates (microseconds), derived from the log2
    /// bucket histograms below via [`dft_metrics::histogram_quantile`].
    pub window_p50_us: f64,
    pub window_p99_us: f64,
    pub signature_p50_us: f64,
    pub signature_p99_us: f64,
    /// Raw log2 latency buckets (non-cumulative).
    pub window_buckets: [u64; HISTOGRAM_BUCKETS],
    pub signature_buckets: [u64; HISTOGRAM_BUCKETS],
    /// Scrapes served so far.
    pub scrapes: u64,
    /// Full deterministic counter set from the metrics registry,
    /// registration order.
    pub counters: Vec<(String, u64)>,
}

/// Escapes a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n`. Applied when the pair *name* is built, so pairs and rendered
/// lines agree byte-for-byte.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn bucket_pairs(family: &str, buckets: &[u64; HISTOGRAM_BUCKETS], out: &mut Vec<(String, f64)>) {
    let mut cumulative = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        cumulative += count;
        let le = if i == HISTOGRAM_BUCKETS - 1 {
            "+Inf".to_owned()
        } else {
            bucket_bounds(i).1.to_string()
        };
        out.push((format!("{family}_bucket{{le=\"{le}\"}}"), cumulative as f64));
    }
    out.push((format!("{family}_count"), cumulative as f64));
}

impl TelemetrySample {
    /// The canonical ordered (metric-id, value) list behind both scrape
    /// formats. Metric ids include labels; order is fixed, never
    /// hash-dependent.
    pub fn expo_pairs(&self) -> Vec<(String, f64)> {
        let mut p: Vec<(String, f64)> = Vec::with_capacity(64 + self.counters.len());
        p.push((
            format!(
                "aidft_fleet_info{{design=\"{}\"}}",
                escape_label(&self.design)
            ),
            1.0,
        ));
        p.push(("aidft_sample_seq".into(), self.seq as f64));
        p.push(("aidft_uptime_ms".into(), self.uptime_ms as f64));
        p.push(("aidft_fleet_dies".into(), self.dies as f64));
        p.push(("aidft_fleet_dies_done".into(), self.dies_done as f64));
        p.push((
            "aidft_fleet_windows_per_die".into(),
            self.windows_per_die as f64,
        ));
        p.push(("aidft_sessions_active".into(), self.sessions_active as f64));
        p.push((
            "aidft_windows_in_flight".into(),
            self.windows_in_flight as f64,
        ));
        p.push(("aidft_breaker_closed".into(), self.closed as f64));
        p.push(("aidft_breaker_backoff".into(), self.backoff as f64));
        p.push(("aidft_breaker_quarantined".into(), self.quarantined as f64));
        p.push(("aidft_dies_per_sec".into(), self.dies_per_sec));
        p.push(("aidft_signatures_per_sec".into(), self.signatures_per_sec));
        p.push(("aidft_peak_dies_per_sec".into(), self.peak_dies_per_sec));
        p.push(("aidft_window_latency_us_p50".into(), self.window_p50_us));
        p.push(("aidft_window_latency_us_p99".into(), self.window_p99_us));
        p.push((
            "aidft_signature_latency_us_p50".into(),
            self.signature_p50_us,
        ));
        p.push((
            "aidft_signature_latency_us_p99".into(),
            self.signature_p99_us,
        ));
        bucket_pairs("aidft_window_latency_us", &self.window_buckets, &mut p);
        bucket_pairs(
            "aidft_signature_latency_us",
            &self.signature_buckets,
            &mut p,
        );
        p.push(("aidft_scrapes_total".into(), self.scrapes as f64));
        for (name, value) in &self.counters {
            p.push((format!("aidft_{name}_total"), *value as f64));
        }
        p
    }

    /// Prometheus text exposition (format 0.0.4): a short HELP/TYPE
    /// preamble, then one line per [`TelemetrySample::expo_pairs`] pair
    /// in canonical order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP aidft_fleet_info Fleet identity (design label).\n");
        out.push_str("# TYPE aidft_fleet_info gauge\n");
        out.push_str("# HELP aidft_window_latency_us Window round-trip latency, microseconds.\n");
        out.push_str("# TYPE aidft_window_latency_us histogram\n");
        out.push_str(
            "# HELP aidft_signature_latency_us Signature service latency, microseconds.\n",
        );
        out.push_str("# TYPE aidft_signature_latency_us histogram\n");
        for (name, value) in self.expo_pairs() {
            out.push_str(&name);
            out.push(' ');
            out.push_str(&format_value(value));
            out.push('\n');
        }
        out
    }

    /// Stable-ordered JSON scrape payload (`aidft-stats-v1`). Key order
    /// is fixed by construction; no map types are involved. Quantiles
    /// of an empty histogram are `null` here (JSON has no NaN; the
    /// Prometheus exposition renders the same value as `NaN`).
    pub fn to_json(&self) -> String {
        let jv = |v: f64| {
            if v.is_nan() {
                "null".to_owned()
            } else {
                format_value(v)
            }
        };
        let mut s = String::with_capacity(1024);
        s.push_str(&format!(
            "{{\"schema\":\"{STATS_SCHEMA}\",\"seq\":{},\"uptime_ms\":{},\"design\":\"{}\",",
            self.seq,
            self.uptime_ms,
            json_escape(&self.design)
        ));
        s.push_str(&format!(
            "\"fleet\":{{\"dies\":{},\"dies_done\":{},\"windows_per_die\":{},\
             \"sessions_active\":{},\"windows_in_flight\":{}}},",
            self.dies,
            self.dies_done,
            self.windows_per_die,
            self.sessions_active,
            self.windows_in_flight
        ));
        s.push_str(&format!(
            "\"breaker\":{{\"closed\":{},\"backoff\":{},\"quarantined\":{}}},",
            self.closed, self.backoff, self.quarantined
        ));
        s.push_str(&format!(
            "\"rates\":{{\"dies_per_sec\":{},\"signatures_per_sec\":{},\"peak_dies_per_sec\":{}}},",
            jv(self.dies_per_sec),
            jv(self.signatures_per_sec),
            jv(self.peak_dies_per_sec)
        ));
        s.push_str(&format!(
            "\"latency_us\":{{\"window_p50\":{},\"window_p99\":{},\
             \"signature_p50\":{},\"signature_p99\":{},",
            jv(self.window_p50_us),
            jv(self.window_p99_us),
            jv(self.signature_p50_us),
            jv(self.signature_p99_us)
        ));
        let join = |b: &[u64; HISTOGRAM_BUCKETS]| {
            b.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
        };
        s.push_str(&format!(
            "\"window_buckets\":[{}],\"signature_buckets\":[{}]}},",
            join(&self.window_buckets),
            join(&self.signature_buckets)
        ));
        s.push_str(&format!("\"scrapes\":{},", self.scrapes));
        s.push_str("\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{value}", json_escape(name)));
        }
        s.push_str("}}");
        s
    }
}

/// Renders an f64 the way both scrape formats expect: integral values
/// without a fraction, everything else via shortest-round-trip
/// `Display`. NaN (an empty histogram has no quantile) renders as
/// Prometheus `NaN`.
pub fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            _ => out.push(c),
        }
    }
    out
}

/// Parses Prometheus text exposition back into (metric-id, value)
/// pairs, preserving order and skipping comment lines. The inverse of
/// [`TelemetrySample::to_prometheus`] over its own output; also the
/// parser behind `aidft top`.
pub fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            let v = if value == "NaN" {
                f64::NAN
            } else {
                value.parse().ok()?
            };
            Some((name.to_owned(), v))
        })
        .collect()
}

/// Looks up a metric id in a parsed pair list (exact match on the full
/// id, labels included).
pub fn pair_value(pairs: &[(String, f64)], name: &str) -> Option<f64> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySample {
        let mut s = TelemetrySample {
            seq: 4,
            uptime_ms: 1250,
            design: "mac4".into(),
            dies: 16,
            dies_done: 9,
            windows_per_die: 2,
            sessions_active: 3,
            windows_in_flight: 7,
            closed: 3,
            backoff: 1,
            quarantined: 2,
            dies_per_sec: 12.5,
            signatures_per_sec: 110.25,
            peak_dies_per_sec: 14.0,
            window_p50_us: 80.0,
            window_p99_us: 900.5,
            signature_p50_us: 40.0,
            signature_p99_us: 300.0,
            scrapes: 6,
            counters: vec![
                ("serve_signatures".into(), 123),
                ("serve_retries".into(), 4),
            ],
            ..TelemetrySample::default()
        };
        s.window_buckets[5] = 10;
        s.window_buckets[9] = 2;
        s.signature_buckets[4] = 12;
        s
    }

    #[test]
    fn prometheus_roundtrips_and_orders_stably() {
        let s = sample();
        let text = s.to_prometheus();
        let parsed = parse_prometheus(&text);
        assert_eq!(parsed, s.expo_pairs());
        assert_eq!(pair_value(&parsed, "aidft_fleet_dies_done"), Some(9.0));
        assert_eq!(
            pair_value(&parsed, "aidft_serve_signatures_total"),
            Some(123.0)
        );
        // Cumulative buckets end at the total count.
        assert_eq!(
            pair_value(&parsed, "aidft_window_latency_us_bucket{le=\"+Inf\"}"),
            Some(12.0)
        );
        assert_eq!(
            pair_value(&parsed, "aidft_window_latency_us_count"),
            Some(12.0)
        );
        // Rendering twice is byte-identical (stable order).
        assert_eq!(text, s.to_prometheus());
    }

    #[test]
    fn labels_escape_to_single_lines() {
        let mut s = sample();
        s.design = "we\"ird\\de\nsign".into();
        let text = s.to_prometheus();
        let info = text
            .lines()
            .find(|l| l.starts_with("aidft_fleet_info"))
            .unwrap();
        assert_eq!(
            info,
            "aidft_fleet_info{design=\"we\\\"ird\\\\de\\nsign\"} 1"
        );
        assert_eq!(parse_prometheus(&text), s.expo_pairs());
    }

    #[test]
    fn json_is_stable_ordered_and_schema_tagged() {
        let s = sample();
        let j = s.to_json();
        // The whole `aidft-stats-v1` document: schema tag, every section
        // and key in order, and both 17-entry log2 bucket arrays.
        let expected = concat!(
            r#"{"schema":"aidft-stats-v1","seq":4,"uptime_ms":1250,"design":"mac4","#,
            r#""fleet":{"dies":16,"dies_done":9,"windows_per_die":2,"#,
            r#""sessions_active":3,"windows_in_flight":7},"#,
            r#""breaker":{"closed":3,"backoff":1,"quarantined":2},"#,
            r#""rates":{"dies_per_sec":12.5,"signatures_per_sec":110.25,"peak_dies_per_sec":14},"#,
            r#""latency_us":{"window_p50":80,"window_p99":900.5,"#,
            r#""signature_p50":40,"signature_p99":300,"#,
            r#""window_buckets":[0,0,0,0,0,10,0,0,0,2,0,0,0,0,0,0,0],"#,
            r#""signature_buckets":[0,0,0,0,12,0,0,0,0,0,0,0,0,0,0,0,0]},"#,
            r#""scrapes":6,"counters":{"serve_signatures":123,"serve_retries":4}}"#,
        );
        assert_eq!(j, expected);
        assert_eq!(j, s.to_json());
    }

    #[test]
    fn nan_quantiles_render_as_prometheus_nan() {
        let mut s = sample();
        s.window_p99_us = f64::NAN;
        let parsed = parse_prometheus(&s.to_prometheus());
        assert!(pair_value(&parsed, "aidft_window_latency_us_p99")
            .unwrap()
            .is_nan());
    }
}
