//! Test-floor workloads: `run_fleet` tests a fleet of simulated dies
//! over loopback TCP, as `aidft serve` does.
//!
//! A run cycles through a fixed list of inputs (one `ServeConfig` seed
//! each, derived from the run's seed) until its time is up, and finishes
//! the first pass over the list whatever the time.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dft_core::checkpoint::FramedJournal;
use dft_core::fault::Fault;
use dft_core::metrics::{MetricsHandle, MetricsSnapshot};
use dft_core::netlist::generators::benchmark_suite;
use dft_core::netlist::{parse_bench, write_bench, Netlist};
use dft_core::serve::{
    die_defect, run_fleet, DieSim, FleetReport, FleetState, ServeConfig, ServeOpts, ServedStimulus,
    Stimulus, SERVE_FORMAT,
};
use dft_core::trace::TraceHandle;

use crate::checks::{check_fleet, FleetReference};
use crate::flows::atpg_layers;
use crate::report::{aggregate_layers, insert_trace_metrics, layer, Outcome, Values};
use crate::spans::{SpanId, Tracer};
use crate::stats::{mean, mean_over_inputs};
use crate::{input_seeds, Args, Workload};

/// Fleets a run cycles through.
const INPUTS: usize = 6;
/// Passes over the broadcast when timing per-window costs.
const PROBE_PASSES: usize = 5;
/// Defective dies whose windows are timed.
const PROBE_DIES: usize = 4;

/// One fleet workload's fixed shape.
struct Spec {
    design: &'static str,
    dies: usize,
    defect_rate: f64,
    clients: usize,
    journal: bool,
    random_patterns: usize,
    window_patterns: usize,
}

impl Spec {
    fn of(w: Workload) -> Spec {
        match w {
            Workload::FleetJournaled => Spec {
                design: "mac4",
                dies: 1024,
                defect_rate: 0.25,
                clients: 2,
                journal: true,
                random_patterns: 48,
                window_patterns: 32,
            },
            // Many patterns in one window per die, so the defective-die
            // simulation, not the per-die session round trips, sets the
            // time: with the default 62 patterns in 2 windows, wake-up
            // latency on a busy host moved the fleet time by 45 %.
            _ => Spec {
                design: "sys2x2",
                dies: 96,
                defect_rate: 1.0,
                clients: 1,
                journal: false,
                random_patterns: 720,
                window_patterns: 1024,
            },
        }
    }

    fn config(&self, seed: u64) -> ServeConfig {
        ServeConfig {
            dies: self.dies,
            defect_rate: self.defect_rate,
            client_threads: self.clients,
            checkpoint_every: 4,
            random_patterns: self.random_patterns,
            window_patterns: self.window_patterns,
            seed,
            ..ServeConfig::default()
        }
    }
}

/// What one input's fleet must produce, computed before timing starts.
struct Input {
    cfg: ServeConfig,
    reference: FleetReference,
    edt_ratio: f64,
}

/// Per-window costs of the die-side work, timed outside the fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitCosts {
    /// `StimulusDecoder::decode_window`, µs per window.
    pub decode_us: f64,
    /// `DieSim::window_signature` of a healthy die, µs per window.
    pub healthy_us: f64,
    /// `DieSim::window_signature` of a defective die, µs per window.
    pub defective_us: f64,
    /// `FleetState::to_body` at the final fleet size, µs.
    pub body_us: f64,
    /// `FramedJournal::append` of that body, µs.
    pub append_us: f64,
}

/// The work one fleet did, from its report and counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetWork {
    pub dies: f64,
    pub clients: f64,
    pub wall_s: f64,
    /// Windows streamed, retests included.
    pub windows: f64,
    pub windows_per_die: f64,
    pub defective_dies: f64,
    pub retests: f64,
    /// Journal records, the final one included.
    pub ckpt_writes: f64,
}

/// Where a fleet's time goes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieTime {
    /// Die compute per die, µs.
    pub compute_us: f64,
    /// Checkpoint writes during the serve phase per die, µs.
    pub ckpt_us: f64,
    /// The rest of a die's client time, µs: accept, handshake, transport
    /// and verify.
    pub overhead_us: f64,
    /// The final checkpoint, written once after the serve phase, µs.
    pub final_ckpt_us: f64,
}

/// Splits the client time per die (`wall × clients ÷ dies`) into die
/// compute (decode plus window simulation, retests included),
/// checkpoint writes, and the overhead left over. `run_fleet` writes its
/// last record after `wall` stops, at the final size; the records
/// before it grow linearly to that size, so one costs half the final
/// one on average.
pub fn split_die_time(w: &FleetWork, c: &UnitCosts) -> DieTime {
    let healthy_windows = (w.dies - w.defective_dies) * w.windows_per_die;
    let defective_windows = w.defective_dies * w.windows_per_die + w.retests;
    let compute = w.windows * c.decode_us
        + healthy_windows * c.healthy_us
        + defective_windows * c.defective_us;
    let record_us = c.body_us + c.append_us;
    let ckpt = (w.ckpt_writes - 1.0).max(0.0) * record_us / 2.0;
    let per_die = w.wall_s * 1e6 * w.clients / w.dies;
    DieTime {
        compute_us: compute / w.dies,
        ckpt_us: ckpt / w.dies,
        overhead_us: per_die - (compute + ckpt) / w.dies,
        final_ckpt_us: if w.ckpt_writes > 0.0 { record_us } else { 0.0 },
    }
}

struct Fleets<'a> {
    args: &'a Args,
    spec: Spec,
    text: String,
    inputs: Vec<Input>,
    workdir: PathBuf,
    out: Outcome,
    setup_s: Vec<Vec<f64>>,
    job_s: Vec<Vec<f64>>,
    /// Coverage and pattern count of each input's first fleet.
    first: Vec<Option<(f64, f64)>>,
}

/// The result of one fleet that passed its checks.
struct FleetOp {
    parse: Duration,
    /// `ServedStimulus::build` plus `DieSim::new`, timed on their own
    /// after the fleet: the set-up `run_fleet` does before serving.
    build: Duration,
    /// The `run_fleet` call.
    call: Duration,
    /// The span around the `run_fleet` call (traced fleets only).
    span: SpanId,
    report: FleetReport,
    snapshot: MetricsSnapshot,
}

/// A traced fleet, kept until the checkpoint costs are known.
struct TracedFleet {
    span: SpanId,
    serve: SpanId,
    after_serve: Duration,
    work: FleetWork,
    values: Values,
}

/// Runs a test-floor workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::of(args.workload);
    let nl = benchmark_suite()
        .into_iter()
        .find(|c| c.name == spec.design)
        .ok_or_else(|| format!("{} is missing from the benchmark suite", spec.design))?
        .netlist;
    let text = write_bench(&nl);
    let workdir = crate::work_dir(args)?;
    let mut f = Fleets {
        args,
        text,
        inputs: Vec::new(),
        workdir,
        out: Outcome::default(),
        setup_s: vec![Vec::new(); INPUTS],
        job_s: vec![Vec::new(); INPUTS],
        first: vec![None; INPUTS],
        spec,
    };
    let result = f.prepare().and_then(|costs| {
        if args.trace {
            f.traced(costs)
        } else {
            f.untraced()
        }
    });
    let _ = std::fs::remove_dir_all(&f.workdir);
    result.map(|()| f.out)
}

impl Fleets<'_> {
    fn parse(&self) -> Result<(Netlist, Duration), String> {
        let t = Instant::now();
        let nl = parse_bench(self.spec.design, &self.text)
            .map_err(|e| format!("parse {}: {e}", self.spec.design))?;
        Ok((nl, t.elapsed()))
    }

    /// Builds every input's reference untimed; in a traced run also
    /// times the die-side work per window on input 0.
    fn prepare(&mut self) -> Result<UnitCosts, String> {
        let (nl, _) = self.parse()?;
        let mut costs = UnitCosts::default();
        for (i, seed) in input_seeds(self.args.seed, INPUTS).into_iter().enumerate() {
            let cfg = self.spec.config(seed);
            let stim = ServedStimulus::build(
                &nl,
                &cfg,
                &MetricsHandle::disabled(),
                &TraceHandle::disabled(),
            );
            let sim = DieSim::new(&nl, &stim);
            if self.args.trace && i == 0 {
                costs = probe_windows(&stim, &sim, &cfg);
            }
            self.inputs.push(Input {
                cfg,
                reference: FleetReference::build(&stim, &sim, &cfg),
                edt_ratio: broadcast_ratio(&stim),
            });
        }
        Ok(costs)
    }

    /// One fleet: parse, then `run_fleet`, each in a span of `tr`; then
    /// checks every die and, with a journal, that its last record
    /// resumes to the final state. `None` when the fleet failed (its
    /// dies are counted failed).
    fn fleet(&mut self, input: usize, tr: &mut Tracer) -> Result<Option<FleetOp>, String> {
        let op = tr.begin_op();
        let s = tr.open(op, "netlist.parse");
        let (nl, parse) = self.parse()?;
        tr.close(s);
        let cfg = self.inputs[input].cfg;
        let dir = self.workdir.join("fleet");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let opts = ServeOpts {
            metrics: MetricsHandle::enabled(),
            journal: self
                .spec
                .journal
                .then(|| FramedJournal::new(dir.join("fleet.ckpt"), SERVE_FORMAT)),
            ..ServeOpts::default()
        };
        let span = tr.open(op, "fleet");
        let t = Instant::now();
        let result = run_fleet(&nl, &cfg, &opts);
        let call = t.elapsed();
        tr.close(span);
        tr.close(op);
        self.out.attempted += cfg.dies as u64;

        let checked = result.map_err(|e| e.to_string()).and_then(|report| {
            let (bad, note) = check_fleet(&report.state, &self.inputs[input].reference);
            if let Some(note) = note {
                self.out.problem(note);
            }
            self.out.failed += bad;
            match &opts.journal {
                Some(j) => match FleetState::resume(j, nl.name(), cfg.fingerprint(nl.name())) {
                    Ok(state) if state == report.state => Ok(report),
                    Ok(_) => Err("the journal's last record resumes to another state".into()),
                    Err(e) => Err(format!("the journal does not resume: {e}")),
                },
                None => Ok(report),
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        let report = match checked {
            Ok(report) => report,
            Err(msg) => {
                self.out.failed += cfg.dies as u64;
                self.out
                    .problem(format!("{} input {input}: {msg}", self.spec.design));
                return Ok(None);
            }
        };

        let t = Instant::now();
        let stim = ServedStimulus::build(
            &nl,
            &cfg,
            &MetricsHandle::disabled(),
            &TraceHandle::disabled(),
        );
        black_box(DieSim::new(&nl, &stim));
        let build = t.elapsed();

        self.setup_s[input].push((parse + build).as_secs_f64());
        self.job_s[input].push(report.wall.as_secs_f64());
        if self.first[input].is_none() {
            let (defective, caught) = report.state.done.values().fold((0, 0), |(d, c), die| {
                (
                    d + usize::from(die.defective),
                    c + usize::from(die.defective && !die.passed),
                )
            });
            let coverage = if defective == 0 {
                100.0
            } else {
                caught as f64 * 100.0 / defective as f64
            };
            self.first[input] = Some((coverage, report.patterns as f64));
        }
        let snapshot = opts.metrics.snapshot().expect("metrics handle is enabled");
        Ok(Some(FleetOp {
            parse,
            build,
            call,
            span,
            report,
            snapshot,
        }))
    }

    fn untraced(&mut self) -> Result<(), String> {
        let start = Instant::now();
        let mut i = 0;
        while i < INPUTS || start.elapsed() < self.args.budget {
            self.fleet(i % INPUTS, &mut Tracer::disabled())?;
            i += 1;
        }
        let firsts: Vec<(f64, f64)> = self.first.iter().flatten().copied().collect();
        let ratios: Vec<f64> = self.inputs.iter().map(|x| x.edt_ratio).collect();
        let m = &mut self.out.metrics;
        m.insert(
            "setup_s",
            mean_over_inputs(&self.setup_s, crate::stats::median).unwrap_or(f64::NAN),
        );
        m.insert(
            "job_s",
            mean_over_inputs(&self.job_s, crate::stats::median).unwrap_or(f64::NAN),
        );
        m.insert(
            "coverage_pct",
            mean(&firsts.iter().map(|f| f.0).collect::<Vec<_>>()).unwrap_or(f64::NAN),
        );
        m.insert(
            "patterns",
            mean(&firsts.iter().map(|f| f.1).collect::<Vec<_>>()).unwrap_or(f64::NAN),
        );
        m.insert("edt_ratio", mean(&ratios).unwrap_or(f64::NAN));
        m.insert("peak_rss_mib", crate::peak_rss_mib()?);
        Ok(())
    }

    /// Alternates an untraced fleet with a traced one on the same input.
    /// The traced fleet's `run_fleet` span holds the stimulus build (as
    /// timed on its own), the serve phase (`FleetReport.wall`), and the
    /// final checkpoint; [`split_die_time`] splits the serve phase
    /// further.
    fn traced(&mut self, mut costs: UnitCosts) -> Result<(), String> {
        let mut tr = Tracer::new();
        let mut fleets: Vec<TracedFleet> = Vec::new();
        let mut overhead = Vec::new();
        let start = Instant::now();
        let mut i = 0;
        while i == 0 || start.elapsed() < self.args.budget {
            let input = i % INPUTS;
            i += 1;
            let plain = self.fleet(input, &mut Tracer::disabled())?;
            let traced = self.fleet(input, &mut tr)?;
            let (Some(plain), Some(f)) = (plain, traced) else {
                continue;
            };
            overhead.push(
                (f.report.wall.as_secs_f64() / plain.report.wall.as_secs_f64() - 1.0) * 100.0,
            );
            // The build inside the call, estimated by the one timed on its
            // own; it cannot take longer than what the call spent outside
            // `wall`.
            let build = f.build.min(f.call.saturating_sub(f.report.wall));
            tr.derived(f.span, "serve.stimulus_build", Duration::ZERO, build);
            let serve = tr.derived(f.span, "serve.fleet", build, f.report.wall);
            if fleets.is_empty() && self.spec.journal {
                (costs.body_us, costs.append_us) =
                    probe_checkpoint(&f.report.state, &self.workdir)?;
            }
            let work = self.work(&f);
            fleets.push(TracedFleet {
                span: f.span,
                serve,
                after_serve: build + f.report.wall,
                work,
                values: self.fleet_layers(&f, &work),
            });
        }
        let mut ops = Vec::new();
        for mut f in fleets {
            let split = split_die_time(&f.work, &costs);
            f.values
                .insert(layer("serve.overhead_us_per_die"), split.overhead_us);
            ops.push(f.values);
            // The serve spans show one client's share of the serve phase.
            let span_of = |us_per_die: f64| {
                Duration::from_secs_f64((us_per_die * f.work.dies / f.work.clients * 1e-6).max(0.0))
            };
            let compute = span_of(split.compute_us);
            let ckpt = span_of(split.ckpt_us);
            tr.derived(f.serve, "serve.die_compute", Duration::ZERO, compute);
            tr.derived(f.serve, "checkpoint.write", compute, ckpt);
            tr.residual(
                f.serve,
                "serve.overhead",
                compute + ckpt,
                span_of(split.overhead_us),
            );
            if split.final_ckpt_us > 0.0 {
                tr.derived(
                    f.span,
                    "checkpoint.final",
                    f.after_serve,
                    Duration::from_secs_f64(split.final_ckpt_us * 1e-6),
                );
            }
        }
        let mut m = aggregate_layers(&ops);
        m.insert("serve.decode_us_per_window", costs.decode_us);
        m.insert("serve.healthy_window_us", costs.healthy_us);
        m.insert("serve.defective_window_us", costs.defective_us);
        m.insert("checkpoint.body_us", costs.body_us);
        m.insert("checkpoint.append_us", costs.append_us);
        insert_trace_metrics(&mut m, &tr, &overhead);
        self.out.metrics = m;
        crate::write_spans(self.args, &tr)
    }

    fn work(&self, f: &FleetOp) -> FleetWork {
        let c = |name: &str| f.snapshot.counter(name) as f64;
        FleetWork {
            dies: self.spec.dies as f64,
            clients: self.spec.clients as f64,
            wall_s: f.report.wall.as_secs_f64(),
            windows: c("serve_windows"),
            windows_per_die: f.report.summary.windows_per_die as f64,
            defective_dies: f.report.summary.defective as f64,
            retests: c("serve_retests"),
            ckpt_writes: c("ckpt_writes"),
        }
    }

    fn fleet_layers(&self, f: &FleetOp, w: &FleetWork) -> Values {
        let c = |name: &str| f.snapshot.counter(name) as f64;
        let mut v = atpg_layers(&f.snapshot);
        v.extend([
            (layer("netlist.parse_s"), f.parse.as_secs_f64()),
            (layer("serve.stimulus_build_s"), f.build.as_secs_f64()),
            (layer("serve.fleet_s"), w.wall_s),
            (layer("serve.dies_per_s"), w.dies / w.wall_s),
            (layer("serve.sessions"), c("serve_sessions")),
            (layer("serve.windows"), w.windows),
            (layer("serve.retests"), w.retests),
            (layer("serve.retries"), c("serve_retries")),
            (
                layer("serve.sessions_per_die"),
                c("serve_sessions") / w.dies,
            ),
            (layer("checkpoint.writes"), w.ckpt_writes),
            (layer("checkpoint.bytes"), c("ckpt_bytes")),
            (
                layer("checkpoint.journal_mib"),
                c("ckpt_bytes") / (1u64 << 20) as f64,
            ),
        ]);
        v
    }
}

/// Median µs per window of decoding the broadcast and of simulating it
/// on a healthy and on a defective die.
fn probe_windows(stim: &ServedStimulus<'_>, sim: &DieSim<'_>, cfg: &ServeConfig) -> UnitCosts {
    let decoder = stim.decoder();
    let faults: Vec<Fault> = (0..cfg.dies as u32)
        .filter_map(|d| die_defect(d, cfg.seed, cfg.defect_rate, &stim.universe))
        .take(PROBE_DIES)
        .collect();
    let per_window = |t: Instant, n: usize| t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64;
    let (mut decode, mut healthy, mut defective) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_PASSES {
        let t = Instant::now();
        let windows: Vec<_> = stim
            .windows
            .iter()
            .map(|w| decoder.decode_window(w).expect("the broadcast decodes"))
            .collect();
        decode.push(per_window(t, windows.len()));
        let t = Instant::now();
        for w in &windows {
            black_box(sim.window_signature(w, None, stim.misr_width));
        }
        healthy.push(per_window(t, windows.len()));
        if !faults.is_empty() {
            let t = Instant::now();
            for &f in &faults {
                for w in &windows {
                    black_box(sim.window_signature(w, Some(f), stim.misr_width));
                }
            }
            defective.push(per_window(t, faults.len() * windows.len()));
        }
    }
    let median = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
    UnitCosts {
        decode_us: median(&decode),
        healthy_us: median(&healthy),
        defective_us: median(&defective),
        ..UnitCosts::default()
    }
}

/// Median µs of `FleetState::to_body` on `state` and of appending that
/// body to a fresh journal.
fn probe_checkpoint(state: &FleetState, workdir: &Path) -> Result<(f64, f64), String> {
    let (mut body_us, mut append_us) = (Vec::new(), Vec::new());
    let dir = workdir.join("probe");
    for _ in 0..PROBE_PASSES {
        let t = Instant::now();
        let body = black_box(state.to_body());
        body_us.push(t.elapsed().as_secs_f64() * 1e6);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let journal = FramedJournal::new(dir.join("probe.ckpt"), SERVE_FORMAT);
        let t = Instant::now();
        journal
            .append(0, &body)
            .map_err(|e| format!("journal append: {e}"))?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let median = |xs: &[f64]| crate::stats::median(xs).unwrap_or(0.0);
    Ok((median(&body_us), median(&append_us)))
}

/// Stimulus compression of the broadcast as shipped: flat pattern bits
/// over the bits on the wire.
fn broadcast_ratio(stim: &ServedStimulus<'_>) -> f64 {
    let (mut flat, mut wire) = (0usize, 0usize);
    for s in stim.windows.iter().flatten() {
        flat += stim.pattern_width;
        wire += match s {
            Stimulus::Flat(bits) => bits.len(),
            Stimulus::Edt {
                pi_bits,
                channel_bits,
            } => pi_bits.len() + channel_bits.iter().map(Vec::len).sum::<usize>(),
        };
    }
    flat as f64 / wire.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_client_time_per_die_minus_work() {
        // 100 dies on 2 clients in 0.5 s: 10 000 µs of client time each.
        let w = FleetWork {
            dies: 100.0,
            clients: 2.0,
            wall_s: 0.5,
            windows: 310.0,
            windows_per_die: 3.0,
            defective_dies: 10.0,
            retests: 10.0,
            ckpt_writes: 26.0,
        };
        let c = UnitCosts {
            decode_us: 2.0,
            healthy_us: 10.0,
            defective_us: 100.0,
            body_us: 300.0,
            append_us: 100.0,
        };
        let t = split_die_time(&w, &c);
        // decode 310×2 + healthy 90×3×10 + defective (10×3 + 10)×100
        // = 620 + 2700 + 4000 = 7320 µs over 100 dies.
        assert!((t.compute_us - 73.2).abs() < 1e-9, "{t:?}");
        // 25 records inside `wall` at half of 400 µs: 5000 µs over 100
        // dies; the 26th, final record is written after `wall`.
        assert!((t.ckpt_us - 50.0).abs() < 1e-9, "{t:?}");
        assert_eq!(t.final_ckpt_us, 400.0);
        assert!(
            (t.overhead_us - (10_000.0 - 73.2 - 50.0)).abs() < 1e-9,
            "{t:?}"
        );
        // The parts inside `wall` add back up to the client time per die.
        let total = t.compute_us + t.ckpt_us + t.overhead_us;
        assert!((total - w.wall_s * 1e6 * w.clients / w.dies).abs() < 1e-9);
    }

    #[test]
    fn a_fleet_without_a_journal_has_no_checkpoint_share() {
        let w = FleetWork {
            dies: 10.0,
            clients: 1.0,
            wall_s: 0.01,
            ..FleetWork::default()
        };
        let c = UnitCosts {
            body_us: 300.0,
            append_us: 100.0,
            ..UnitCosts::default()
        };
        let t = split_die_time(&w, &c);
        assert_eq!((t.ckpt_us, t.final_ckpt_us), (0.0, 0.0));
        assert!((t.overhead_us - 1000.0).abs() < 1e-9, "{t:?}");
    }
}
