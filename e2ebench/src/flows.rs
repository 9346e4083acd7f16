//! Sign-off workloads: a `.bench` text is parsed, then `DftFlow::run`
//! signs the design off, as `aidft flow` does.
//!
//! A run cycles through a fixed list of inputs (one ATPG seed each,
//! derived from the run's seed) until its time is up, and finishes the
//! first pass over the list whatever the time.

use std::time::{Duration, Instant};

use dft_core::atpg::AtpgConfig;
use dft_core::compress::ScanEdt;
use dft_core::metrics::MetricsSnapshot;
use dft_core::netlist::generators::{benchmark_suite, random_logic};
use dft_core::netlist::{parse_bench, write_bench, Netlist};
use dft_core::scan::{insert_scan, ScanConfig};
use dft_core::{DftFlow, FlowReport};

use crate::checks::check_flow;
use crate::report::{aggregate_layers, insert_trace_metrics, layer, Outcome, Values};
use crate::spans::Tracer;
use crate::stats::{mean, mean_over_inputs, median};
use crate::{input_seeds, Args, Workload};

/// Fault-simulation worker threads (the container's CPU count).
const THREADS: usize = 2;
/// `DftFlow`'s default scan and EDT geometry, pinned.
const CHAINS: usize = 4;
const CHANNELS: usize = 2;
const EDT_SEED: u64 = 0xED7;
/// Parses timed before each sign-off besides its own, so `setup_s` is a
/// median of many samples spread over the run even when few flows fit.
const SETUP_REPS: usize = 4;

/// The workload's design as `.bench` text, plus how many ATPG seeds a
/// run cycles through.
struct Design {
    name: String,
    text: String,
    inputs: usize,
    ring_len: usize,
}

impl Design {
    fn for_workload(args: &Args) -> Result<Design, String> {
        let (nl, inputs) = match args.workload {
            // One netlist: the run seed varies the ATPG seed only, since
            // random netlists differ up to 2x in PODEM time.
            Workload::AtpgRandom => (random_logic(32, 500, 2), 3),
            _ => (
                benchmark_suite()
                    .into_iter()
                    .find(|c| c.name == "sys4x4")
                    .ok_or("sys4x4 is missing from the benchmark suite")?
                    .netlist,
                3,
            ),
        };
        let mut design = Design {
            name: nl.name().to_owned(),
            text: write_bench(&nl),
            inputs,
            ring_len: 0,
        };
        let (parsed, _) = design.parse()?;
        // DftFlow's auto-sized ring, pinned so the EDT check rebuilds
        // the same codec.
        design.ring_len = insert_scan(&parsed, &ScanConfig::new().num_chains(CHAINS))
            .shift_cycles()
            .clamp(8, 32);
        Ok(design)
    }

    fn parse(&self) -> Result<(Netlist, Duration), String> {
        let t = Instant::now();
        let nl =
            parse_bench(&self.name, &self.text).map_err(|e| format!("parse {}: {e}", self.name))?;
        Ok((nl, t.elapsed()))
    }
}

/// The deterministic part of a sign-off, compared across repeats.
fn result_key(r: &FlowReport) -> (usize, usize, usize, usize) {
    (
        r.patterns,
        r.atpg_run.fault_list.num_detected(),
        r.untestable,
        r.aborted,
    )
}

struct Flows<'a> {
    args: &'a Args,
    design: Design,
    seeds: Vec<u64>,
    out: Outcome,
    parse_s: Vec<f64>,
    job_s: Vec<Vec<f64>>,
    /// The first sign-off of each input, kept for the output checks.
    first: Vec<Option<(Netlist, FlowReport)>>,
}

/// Runs a sign-off workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let design = Design::for_workload(args)?;
    let k = design.inputs;
    let mut f = Flows {
        args,
        seeds: input_seeds(args.seed, k),
        design,
        out: Outcome::default(),
        parse_s: Vec::new(),
        job_s: vec![Vec::new(); k],
        first: (0..k).map(|_| None).collect(),
    };
    if args.trace {
        f.traced()?;
    } else {
        f.untraced()?;
    }
    f.check_first_reports();
    Ok(f.out)
}

impl Flows<'_> {
    /// One user-visible sign-off: parse, then `DftFlow::run`, each in a
    /// span of `tr`, with the flow's reported phases as derived child
    /// spans. Returns the flow's wall time and its layer values.
    fn sign_off(&mut self, input: usize, tr: &mut Tracer) -> Result<(f64, Values), String> {
        for _ in 0..SETUP_REPS {
            let (_, t) = self.design.parse()?;
            self.parse_s.push(t.as_secs_f64());
        }
        let op = tr.begin_op();
        let s = tr.open(op, "netlist.parse");
        let (nl, parse) = self.design.parse()?;
        tr.close(s);
        self.parse_s.push(parse.as_secs_f64());
        let flow = tr.open(op, "flow");
        let t = Instant::now();
        let report = DftFlow::new(&nl)
            .chains(CHAINS)
            .channels(CHANNELS)
            .ring_len(self.design.ring_len)
            .threads(THREADS)
            .atpg_config(AtpgConfig::new().seed(self.seeds[input]).threads(THREADS))
            .run();
        let job = t.elapsed().as_secs_f64();
        tr.close(flow);
        tr.close(op);

        let run = &report.atpg_run;
        let phases = &report.phase_times;
        let mut offset = Duration::ZERO;
        for (name, dur) in [
            ("scan.insert", phases.scan),
            ("logicsim.compile", run.compile_time),
            ("logicsim.random_sim", run.random_time),
            ("atpg.topoff", run.deterministic_time),
            ("atpg.signoff_sim", run.signoff_time),
            ("compress.encode", phases.compression),
        ] {
            tr.derived(flow, name, offset, dur);
            offset += dur;
        }
        let mut values = atpg_layers(&report.metrics);
        values.extend([
            (layer("netlist.parse_s"), parse.as_secs_f64()),
            (layer("scan.insert_s"), phases.scan.as_secs_f64()),
            (layer("logicsim.compile_s"), run.compile_time.as_secs_f64()),
            (layer("compress.encode_s"), phases.compression.as_secs_f64()),
            (
                layer("compress.encode_rate"),
                report.compression.map_or(0.0, |c| c.encode_rate()),
            ),
        ]);

        self.job_s[input].push(job);
        self.out.attempted += 1;
        let repeat_differs = self.first[input]
            .as_ref()
            .is_some_and(|(_, first)| result_key(first) != result_key(&report));
        if report.failed_sim_batches > 0 || repeat_differs {
            self.out.failed += 1;
            self.out.problem(format!(
                "{} input {input}: repeat gave {:?} (lost sim batches {})",
                self.design.name,
                result_key(&report),
                report.failed_sim_batches
            ));
        }
        if self.first[input].is_none() {
            self.first[input] = Some((nl, report));
        }
        Ok((job, values))
    }

    fn untraced(&mut self) -> Result<(), String> {
        let start = Instant::now();
        let mut i = 0;
        while i < self.design.inputs || start.elapsed() < self.args.budget {
            self.sign_off(i % self.design.inputs, &mut Tracer::disabled())?;
            i += 1;
        }
        let m = &mut self.out.metrics;
        let firsts: Vec<&FlowReport> = self.first.iter().flatten().map(|(_, r)| r).collect();
        let per_input = |f: &dyn Fn(&FlowReport) -> f64| {
            mean(&firsts.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        m.insert("setup_s", median(&self.parse_s).unwrap_or(f64::NAN));
        m.insert(
            "job_s",
            mean_over_inputs(&self.job_s, median).unwrap_or(f64::NAN),
        );
        m.insert("coverage_pct", per_input(&|r| r.test_coverage * 100.0));
        m.insert("patterns", per_input(&|r| r.patterns as f64));
        m.insert(
            "edt_ratio",
            per_input(&|r| r.compression.map_or(1.0, |c| c.ratio())),
        );
        m.insert("peak_rss_mib", crate::peak_rss_mib()?);
        Ok(())
    }

    /// Alternates an untraced sign-off with a traced one on the same
    /// input, so the traced run measures its own overhead.
    fn traced(&mut self) -> Result<(), String> {
        let mut tr = Tracer::new();
        let (mut ops, mut overhead) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed() < self.args.budget {
            let input = i % self.design.inputs;
            let (plain, _) = self.sign_off(input, &mut Tracer::disabled())?;
            let (traced, values) = self.sign_off(input, &mut tr)?;
            overhead.push((traced / plain - 1.0) * 100.0);
            ops.push(values);
            i += 1;
        }
        let mut m = aggregate_layers(&ops);
        insert_trace_metrics(&mut m, &tr, &overhead);
        self.out.metrics = m;
        crate::write_spans(self.args, &tr)
    }

    /// Output checks on the first sign-off of every input (repeats were
    /// compared against it as they ran).
    fn check_first_reports(&mut self) {
        for (nl, report) in self.first.iter().flatten() {
            let scan_edt = report
                .compression
                .map(|_| ScanEdt::new(nl, &report.scan, CHANNELS, self.design.ring_len, EDT_SEED));
            if let Err(msg) = check_flow(nl, report, scan_edt.as_ref(), THREADS) {
                self.out.failed += 1;
                self.out.problem(msg);
            }
        }
    }
}

/// ATPG and simulation layer values from a metrics snapshot: the PODEM
/// counters and the ATPG phase timers every ATPG run records.
pub fn atpg_layers(m: &MetricsSnapshot) -> Values {
    let c = |name: &str| m.counter(name) as f64;
    let t = |name: &str| {
        m.timers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.nanos as f64 * 1e-9)
    };
    let (random, topoff, signoff) = (
        t("t_atpg_random"),
        t("t_atpg_deterministic"),
        t("t_atpg_signoff"),
    );
    let sims = c("podem_simulations");
    let gate_evals = c("goodsim_gate_evals") + c("faultsim_gate_evals");
    let atpg_s = random + topoff + signoff;
    Values::from([
        (layer("logicsim.random_sim_s"), random),
        (layer("logicsim.gate_evals"), gate_evals),
        (
            layer("logicsim.gate_evals_per_s"),
            if atpg_s > 0.0 {
                gate_evals / atpg_s
            } else {
                0.0
            },
        ),
        (layer("atpg.topoff_s"), topoff),
        (layer("atpg.signoff_sim_s"), signoff),
        (layer("atpg.podem_calls"), c("podem_calls")),
        (layer("atpg.podem_simulations"), sims),
        (layer("atpg.podem_backtracks"), c("podem_backtracks")),
        (
            layer("atpg.us_per_podem_sim"),
            if sims > 0.0 { topoff * 1e6 / sims } else { 0.0 },
        ),
        (layer("atpg.aborted"), c("atpg_aborted")),
        (layer("atpg.escalated"), c("atpg_escalations")),
        (
            layer("atpg.rescue_ratio"),
            if c("atpg_escalations") > 0.0 {
                c("atpg_rescued") / c("atpg_escalations")
            } else {
                0.0
            },
        ),
    ])
}
