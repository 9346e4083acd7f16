//! Metric names, units and the one-line JSON result.
//!
//! The lists here are the contract with `BENCHMARK.json`: an untraced run
//! prints every [`END_TO_END`] metric, a traced run every [`PER_LAYER`]
//! metric. A per-layer metric of a layer the workload never calls reads 0.

use std::collections::BTreeMap;

use crate::spans::Tracer;

/// `(name, unit)` of each end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_s", "s"),
    ("coverage_pct", "%"),
    ("patterns", "count"),
    ("edt_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of each per-layer metric. Metrics in unit `count` are
/// taken from the first traced operation (input 0, so they repeat
/// exactly for a seed); every other one is the median over traced
/// operations.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("scan.insert_s", "s"),
    ("logicsim.compile_s", "s"),
    ("logicsim.random_sim_s", "s"),
    ("logicsim.gate_evals", "count"),
    ("logicsim.gate_evals_per_s", "1/s"),
    ("atpg.topoff_s", "s"),
    ("atpg.signoff_sim_s", "s"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_simulations", "count"),
    ("atpg.podem_backtracks", "count"),
    ("atpg.us_per_podem_sim", "us"),
    ("atpg.aborted", "count"),
    ("atpg.escalated", "count"),
    ("atpg.rescue_ratio", "ratio"),
    ("compress.encode_s", "s"),
    ("compress.encode_rate", "ratio"),
    ("serve.stimulus_build_s", "s"),
    ("serve.decode_us_per_window", "us"),
    ("serve.healthy_window_us", "us"),
    ("serve.defective_window_us", "us"),
    ("serve.fleet_s", "s"),
    ("serve.dies_per_s", "1/s"),
    ("serve.overhead_us_per_die", "us"),
    ("serve.sessions", "count"),
    ("serve.windows", "count"),
    ("serve.retests", "count"),
    ("serve.retries", "count"),
    ("serve.sessions_per_die", "ratio"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "count"),
    ("checkpoint.journal_mib", "MiB"),
    ("checkpoint.body_us", "us"),
    ("checkpoint.append_us", "us"),
    ("trace.ops", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.measured_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The spans a traced run records for a layer, each with the per-layer
/// metric it backs. Only these count towards `trace.coverage_pct`; other
/// spans (`op`, `flow`, `fleet`) group them.
pub const LAYER_SPANS: &[(&str, &str)] = &[
    ("netlist.parse", "netlist.parse_s"),
    ("scan.insert", "scan.insert_s"),
    ("logicsim.compile", "logicsim.compile_s"),
    ("logicsim.random_sim", "logicsim.random_sim_s"),
    ("atpg.topoff", "atpg.topoff_s"),
    ("atpg.signoff_sim", "atpg.signoff_sim_s"),
    ("compress.encode", "compress.encode_s"),
    ("serve.stimulus_build", "serve.stimulus_build_s"),
    ("serve.fleet", "serve.fleet_s"),
    ("serve.die_compute", "serve.defective_window_us"),
    ("serve.overhead", "serve.overhead_us_per_die"),
    ("checkpoint.write", "checkpoint.body_us"),
    ("checkpoint.final", "checkpoint.append_us"),
];

/// Per-metric values of one operation (or one whole run).
pub type Values = BTreeMap<&'static str, f64>;

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: flows, or dies across all fleets.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
    /// What the failed checks found (the first few per kind).
    pub problems: Vec<String>,
    /// Metric values, keyed by the names above.
    pub metrics: Values,
}

impl Outcome {
    /// Records a failed check; keeps the message list short.
    pub fn problem(&mut self, msg: String) {
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }

    /// One line per metric of the mode.
    pub fn summary(&self, traced: bool) -> String {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut out = String::new();
        for &(name, unit) in list {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("  {name:<28} {value:>16.6} {unit}\n"));
        }
        out
    }

    /// `true` when every operation passed every output check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Renders the result line: every metric of the mode's list, in
    /// declaration order. A missing end-to-end metric or a non-finite
    /// value is a benchmark bug and refuses to render.
    pub fn json_line(&self, traced: bool) -> Result<String, String> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// Folds per-operation layer values into run values: counts from the
/// first operation, everything else as the median over operations.
pub fn aggregate_layers(ops: &[Values]) -> Values {
    let mut out = Values::new();
    for &(name, unit) in PER_LAYER {
        let samples: Vec<f64> = ops.iter().filter_map(|v| v.get(name).copied()).collect();
        let value = if unit == "count" {
            samples.first().copied()
        } else {
            crate::stats::median(&samples)
        };
        if let Some(v) = value {
            out.insert(name, v);
        }
    }
    out
}

/// Adds the traced run's own metrics: the operations traced, the shares
/// of their time in [`LAYER_SPANS`], and the median tracing overhead.
pub fn insert_trace_metrics(m: &mut Values, tr: &Tracer, overhead_pct: &[f64]) {
    let names: Vec<&str> = LAYER_SPANS.iter().map(|&(span, _)| span).collect();
    let c = tr.coverage(&names);
    m.insert("trace.ops", f64::from(tr.ops()));
    m.insert("trace.coverage_pct", c.layers * 100.0);
    m.insert("trace.measured_pct", c.measured * 100.0);
    m.insert(
        "trace.overhead_pct",
        crate::stats::median(overhead_pct).unwrap_or(0.0),
    );
}

/// Name of a declared per-layer metric, for building [`Values`] maps;
/// panics on a name the contract does not declare.
pub fn layer(name: &'static str) -> &'static str {
    assert!(
        PER_LAYER.iter().any(|&(n, _)| n == name),
        "undeclared per-layer metric {name}"
    );
    name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let declared = END_TO_END.len() + PER_LAYER.len();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every metric entry of the file is one of the declared ones.
        assert_eq!(spec.matches("\"unit\": ").count(), declared);
    }

    #[test]
    fn every_layer_span_backs_a_declared_metric() {
        for &(span, metric) in LAYER_SPANS {
            assert!(
                PER_LAYER.iter().any(|&(n, _)| n == metric),
                "{span} backs undeclared metric {metric}"
            );
        }
    }

    #[test]
    fn json_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for &(name, _) in END_TO_END {
            o.metrics.insert(name, 1.25);
        }
        let line = o.json_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"job_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        // A traced run fills unexercised layers with 0.
        let traced = o.json_line(true).unwrap();
        assert!(traced.contains("\"serve.windows\": {\"value\": 0, \"unit\": \"count\"}"));
        o.metrics.remove("job_s");
        assert!(o.json_line(false).is_err());
        o.problem("x".into());
        assert!(!o.correct());
    }

    #[test]
    fn counts_come_from_the_first_op_times_are_medians() {
        let ops: Vec<Values> = [(7.0, 0.3), (9.0, 0.1), (8.0, 0.2)]
            .iter()
            .map(|&(calls, t)| {
                Values::from([
                    (layer("atpg.podem_calls"), calls),
                    (layer("atpg.topoff_s"), t),
                ])
            })
            .collect();
        let agg = aggregate_layers(&ops);
        assert_eq!(agg["atpg.podem_calls"], 7.0);
        assert_eq!(agg["atpg.topoff_s"], 0.2);
        assert!(!agg.contains_key("serve.fleet_s"));
    }
}
