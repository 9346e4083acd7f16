//! `dft-core`: the end-to-end DFT flow for AI chips.
//!
//! This facade crate re-exports the whole `aidft` toolkit and adds
//! [`DftFlow`], the sign-off pipeline a user actually runs: scan
//! insertion → ATPG (random + deterministic, compaction) → EDT
//! compression → test-time accounting → coverage sign-off.
//!
//! # Quickstart
//!
//! ```
//! use dft_core::{DftFlow, netlist::generators::mac_pe};
//!
//! let core = mac_pe(4);
//! let report = DftFlow::new(&core).chains(4).channels(1).run();
//! assert!(report.test_coverage > 0.95);
//! println!("{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::Duration;

/// Re-export of `dft-checkpoint` (cooperative cancellation, the
/// `aidft-ckpt-v3` checkpoint journal, and the `AIDFT_CHAOS` fault
/// injection harness).
pub use dft_checkpoint as checkpoint;

/// Re-export of `dft-netlist`.
pub use dft_netlist as netlist;

/// Re-export of `dft-fault`.
pub use dft_fault as fault;

/// Re-export of `dft-logicsim`.
pub use dft_logicsim as logicsim;

/// Re-export of `dft-metrics` (counters, histograms, phase timers).
pub use dft_metrics as metrics;

/// Re-export of `dft-trace` (hierarchical span tracing, Perfetto/JSONL
/// export).
pub use dft_trace as trace;

/// Re-export of `dft-atpg`.
pub use dft_atpg as atpg;

/// Re-export of `dft-scan`.
pub use dft_scan as scan;

/// Re-export of `dft-compress`.
pub use dft_compress as compress;

/// Re-export of `dft-bist`.
pub use dft_bist as bist;

/// Re-export of `dft-diagnosis`.
pub use dft_diagnosis as diagnosis;

/// Re-export of `dft-aichip`.
pub use dft_aichip as aichip;

/// Re-export of `dft-repair` (memory BISR, core harvesting).
pub use dft_repair as repair;

/// Re-export of `dft-serve` (test-floor pattern server).
pub use dft_serve as serve;

/// Re-export of `dft-telemetry` (live fleet telemetry: scrape endpoint,
/// event stream, sampler).
pub use dft_telemetry as telemetry;

mod error;
pub mod progress;

pub use error::{DftError, PartialResult};

use dft_atpg::{Atpg, AtpgConfig, Durability};
use dft_compress::{CompressionStats, ScanEdt};
use dft_logicsim::Executor;
use dft_metrics::{MetricsHandle, MetricsSnapshot};
use dft_netlist::Netlist;
use dft_scan::{insert_scan, ScanConfig, ScanInsertion, TestTimeModel};
use dft_trace::TraceHandle;

/// The one-stop DFT sign-off flow.
///
/// Configure with the builder methods, then [`DftFlow::run`].
#[derive(Debug)]
pub struct DftFlow<'a> {
    nl: &'a Netlist,
    chains: usize,
    channels: usize,
    ring_len: Option<usize>,
    shift_mhz: u32,
    atpg: AtpgConfig,
    threads: Option<usize>,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl<'a> DftFlow<'a> {
    /// Starts a flow for `nl` with default settings (4 chains, 2
    /// channels, auto-sized ring generator, 100 MHz shift, default ATPG).
    pub fn new(nl: &'a Netlist) -> DftFlow<'a> {
        DftFlow {
            nl,
            chains: 4,
            channels: 2,
            ring_len: None,
            shift_mhz: 100,
            atpg: AtpgConfig::default(),
            threads: None,
            metrics: MetricsHandle::enabled(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Sets the scan-chain count.
    pub fn chains(mut self, chains: usize) -> Self {
        self.chains = chains;
        self
    }

    /// Sets the EDT channel count.
    pub fn channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Sets the ring-generator length (default: auto-sized to the scan
    /// chain length, clamped to `[8, 32]` — the warm-up cost scales with
    /// the ring, so small designs get small rings).
    pub fn ring_len(mut self, bits: usize) -> Self {
        self.ring_len = Some(bits);
        self
    }

    /// Sets the scan shift clock in MHz.
    pub fn shift_mhz(mut self, mhz: u32) -> Self {
        self.shift_mhz = mhz;
        self
    }

    /// Overrides the ATPG configuration.
    pub fn atpg_config(mut self, cfg: AtpgConfig) -> Self {
        self.atpg = cfg;
        self
    }

    /// Sets the worker-thread count for the fault-simulation phases and
    /// the ATPG top-off's test generation (`0` = one per hardware
    /// thread, `1` = serial). Takes precedence
    /// over [`AtpgConfig::threads`] regardless of call order. Results are
    /// bit-identical for any value — only wall-clock changes.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Points the flow at a tracing session (see [`trace`]): every phase
    /// records a span, ATPG adds sampled per-fault spans, and the
    /// fault-simulation engines add worker-tagged batch spans. The
    /// default disabled handle costs one untaken branch per record site.
    /// Phase *timings* in [`FlowReport`] are span-derived either way, so
    /// `sum(phases) <= total` always holds.
    pub fn trace(mut self, handle: TraceHandle) -> Self {
        self.trace = handle;
        self
    }

    /// Overrides the metrics registry. By default each flow run collects
    /// into a fresh registry surfaced as [`FlowReport::metrics`]; pass
    /// [`MetricsHandle::disabled`] to strip every instrument down to one
    /// untaken branch, or a shared handle to aggregate several runs.
    pub fn metrics(mut self, handle: MetricsHandle) -> Self {
        self.metrics = handle;
        self
    }

    /// Runs the full flow: scan insertion, ATPG, compression, timing.
    ///
    /// Every phase duration in [`FlowReport::phase_times`] is the length
    /// of that phase's trace span; the spans are opened and closed
    /// sequentially on one monotonic clock inside the enclosing `flow`
    /// span, so the per-phase times are disjoint and
    /// `sum(phases) <= total` holds by construction.
    pub fn run(self) -> FlowReport {
        match self.run_durable(&mut Durability::default()) {
            Ok(report) => report,
            // Nothing fires the default token and there is no resume
            // state, so the durable error paths cannot occur.
            Err(e) => unreachable!("flow without a cancellation source cannot fail: {e}"),
        }
    }

    /// Runs the flow durably: cancellation (signals, per-phase
    /// deadlines) drains cleanly into a checkpoint, and a resume state
    /// loaded into `dur` continues a prior run to the bit-identical
    /// final result. [`DftFlow::run`] is this with
    /// [`Durability::default`].
    ///
    /// On interruption the ATPG engine writes a final checkpoint and
    /// this returns [`DftError::Interrupted`] carrying the journal path
    /// and a [`PartialResult`] progress summary; a stale or mismatched
    /// resume state returns [`DftError::Checkpoint`]. EDT compression
    /// also polls the token — cubes skipped by a late cancel are counted
    /// in [`CompressionStats::skipped`] rather than failing the run,
    /// since by then the checkpoint already covers the full pattern set.
    pub fn run_durable(self, dur: &mut Durability) -> Result<FlowReport, DftError> {
        let design = self.nl.name().to_owned();
        let mut atpg_cfg = self.atpg.clone();
        if let Some(t) = self.threads {
            atpg_cfg.threads = t;
        }
        let t_flow = self.trace.phase_span("flow");
        let t_scan = self.trace.phase_span("scan_insertion");
        let scan = {
            let _t = self.metrics.get().map(|m| m.t_scan_insertion.timed());
            insert_scan(
                self.nl,
                &ScanConfig {
                    num_chains: self.chains,
                },
            )
        };
        let scan_time = t_scan.finish();
        let atpg = Atpg::new(self.nl)
            .with_metrics(self.metrics.clone())
            .with_trace(self.trace.clone());
        let run = atpg
            .run_durable(&atpg_cfg, dur)
            .map_err(|e| DftError::atpg(&design, e))?;
        let timing = TestTimeModel::for_architecture(&scan, run.patterns.len(), self.shift_mhz);
        let t_compress = self.trace.phase_span("compression");
        let compression = if self.nl.num_dffs() > 0 && !run.cubes.is_empty() {
            let _t = self.metrics.get().map(|m| m.t_edt_compress.timed());
            let ring_len = self
                .ring_len
                .unwrap_or_else(|| scan.shift_cycles().clamp(8, 32));
            let edt = ScanEdt::new(self.nl, &scan, self.channels, ring_len, 0xED7)
                .with_metrics(self.metrics.clone())
                .with_trace(self.trace.clone());
            Some(edt.compress_all(&run.cubes, dur.cancel()))
        } else {
            None
        };
        let compression_time = t_compress.finish();
        let phase_times = PhaseTimes {
            scan: scan_time,
            setup: run.setup_time,
            compile: run.compile_time,
            random_sim: run.random_time,
            deterministic: run.deterministic_time + run.signoff_time,
            compression: compression_time,
            total: t_flow.finish(),
            threads: Executor::with_threads(atpg_cfg.threads).threads(),
        };
        let metrics = self
            .metrics
            .snapshot()
            .unwrap_or_else(|| dft_metrics::Metrics::new().snapshot());
        Ok(FlowReport {
            phase_times,
            metrics,
            design,
            gates: self.nl.num_gates(),
            flops: self.nl.num_dffs(),
            scan_added_gates: scan.added_gates,
            chains: scan.chains.len(),
            max_chain_len: scan.shift_cycles(),
            patterns: run.patterns.len(),
            fault_coverage: run.fault_list.fault_coverage(),
            test_coverage: run.fault_list.test_coverage(),
            untestable: run.untestable,
            aborted: run.aborted,
            escalated: run.escalated,
            rescued: run.rescued,
            failed_sim_batches: run.failed_sim_batches,
            atpg_time: run.elapsed,
            test_cycles: timing.total_cycles(),
            test_time_ms: timing.test_time_ms(),
            compression,
            scan,
            atpg_run: run,
        })
    }
}

/// Wall-clock breakdown of one [`DftFlow::run`], per pipeline phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimes {
    /// Scan insertion.
    pub scan: Duration,
    /// ATPG setup: fault-universe enumeration, equivalence collapsing,
    /// and building the search engines.
    pub setup: Duration,
    /// Simulation-kernel compilation (tape levelization and layout;
    /// paid once per run, before the first simulation phase).
    pub compile: Duration,
    /// Random-pattern fault simulation (ATPG phase 1).
    pub random_sim: Duration,
    /// Deterministic ATPG: top-off, compaction, and sign-off simulation.
    pub deterministic: Duration,
    /// EDT compression of the deterministic cubes.
    pub compression: Duration,
    /// Whole-flow wall-clock (the `flow` trace span). The phases above
    /// are disjoint sub-intervals measured on the same clock, so their
    /// sum never exceeds this.
    pub total: Duration,
    /// Resolved worker-thread count the simulation phases ran with.
    pub threads: usize,
}

impl PhaseTimes {
    /// Sum of the per-phase durations (always `<=` [`PhaseTimes::total`]).
    pub fn sum_phases(&self) -> Duration {
        self.scan
            + self.setup
            + self.compile
            + self.random_sim
            + self.deterministic
            + self.compression
    }
}

/// The sign-off report produced by [`DftFlow::run`].
#[derive(Debug)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Gate count of the functional netlist.
    pub gates: usize,
    /// Flip-flop count.
    pub flops: usize,
    /// Gates added by scan insertion.
    pub scan_added_gates: usize,
    /// Scan chains built.
    pub chains: usize,
    /// Longest chain (shift cycles).
    pub max_chain_len: usize,
    /// Final pattern count.
    pub patterns: usize,
    /// Stuck-at fault coverage.
    pub fault_coverage: f64,
    /// Test coverage (untestable excluded).
    pub test_coverage: f64,
    /// Proven-untestable faults (collapsed).
    pub untestable: usize,
    /// Aborted faults (collapsed).
    pub aborted: usize,
    /// Faults PODEM aborted at its backtrack limit and handed to the SAT
    /// engine.
    pub escalated: usize,
    /// Escalated faults the SAT engine resolved (tested or proven
    /// untestable) instead of aborting.
    pub rescued: usize,
    /// Fault-simulation batches lost to an isolated worker panic. Zero
    /// on a healthy run; nonzero means coverage is a lower bound.
    pub failed_sim_batches: usize,
    /// ATPG wall-clock time.
    pub atpg_time: Duration,
    /// Tester cycles for the session.
    pub test_cycles: u64,
    /// Tester time at the configured shift clock.
    pub test_time_ms: f64,
    /// EDT compression statistics (designs with flops and deterministic
    /// cubes only).
    pub compression: Option<CompressionStats>,
    /// Per-phase wall-clock breakdown.
    pub phase_times: PhaseTimes,
    /// Hot-path observability snapshot (PODEM backtracks, gate
    /// evaluations, EDT encode stats, phase timers). All-zero when the
    /// flow was built with a disabled [`MetricsHandle`].
    pub metrics: MetricsSnapshot,
    /// The scan architecture (for downstream tooling).
    pub scan: ScanInsertion,
    /// The full ATPG run (patterns, cubes, fault list).
    pub atpg_run: dft_atpg::AtpgRun,
}

impl fmt::Display for FlowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DFT sign-off: {} ({} gates, {} flops)",
            self.design, self.gates, self.flops
        )?;
        writeln!(
            f,
            "  scan: {} chains, max length {}, +{} gates",
            self.chains, self.max_chain_len, self.scan_added_gates
        )?;
        writeln!(
            f,
            "  atpg: {} patterns, FC {:.2}%, TC {:.2}%, {} untestable, {} aborted ({:?})",
            self.patterns,
            self.fault_coverage * 100.0,
            self.test_coverage * 100.0,
            self.untestable,
            self.aborted,
            self.atpg_time
        )?;
        if self.escalated > 0 {
            writeln!(
                f,
                "  sat: {} PODEM aborts handed to SAT, {} resolved",
                self.escalated, self.rescued
            )?;
        }
        if self.failed_sim_batches > 0 {
            writeln!(
                f,
                "  WARNING: {} fault-simulation batch{} lost to worker panics; coverage is a lower bound",
                self.failed_sim_batches,
                if self.failed_sim_batches == 1 { "" } else { "es" }
            )?;
        }
        writeln!(
            f,
            "  tester: {} cycles ({:.3} ms)",
            self.test_cycles, self.test_time_ms
        )?;
        if let Some(c) = &self.compression {
            writeln!(
                f,
                "  edt: {:.1}x stimulus compression, {:.0}% cubes encoded",
                c.ratio(),
                c.encode_rate() * 100.0
            )?;
        }
        let t = &self.phase_times;
        writeln!(
            f,
            "  timing: scan {:?}, setup {:?}, compile {:?}, random sim {:?}, deterministic {:?}, compression {:?}, total {:?} ({} thread{})",
            t.scan,
            t.setup,
            t.compile,
            t.random_sim,
            t.deterministic,
            t.compression,
            t.total,
            t.threads,
            if t.threads == 1 { "" } else { "s" }
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::{c17, counter, mac_pe};

    #[test]
    fn flow_on_combinational_design() {
        let nl = c17();
        let report = DftFlow::new(&nl).run();
        assert!(report.test_coverage > 0.99);
        assert!(report.compression.is_none(), "no flops, no compression");
        assert!(report.to_string().contains("c17"));
    }

    #[test]
    fn flow_on_sequential_design_compresses() {
        let nl = mac_pe(4);
        let report = DftFlow::new(&nl).chains(4).channels(1).ring_len(24).run();
        assert!(report.test_coverage > 0.95);
        let c = report.compression.expect("flops present");
        assert!(c.encoded > 0);
        assert!(report.test_cycles > 0);
    }

    #[test]
    fn builder_knobs_apply() {
        let nl = counter(8);
        let report = DftFlow::new(&nl).chains(2).shift_mhz(50).run();
        assert_eq!(report.chains, 2);
        assert_eq!(report.max_chain_len, 4);
    }

    #[test]
    fn phase_times_sum_never_exceeds_total() {
        // The phase durations are span-derived sub-intervals of the one
        // `flow` span, all measured on the same monotonic clock, so the
        // report can never claim more phase time than wall-clock time.
        let nl = mac_pe(4);
        for _ in 0..3 {
            let report = DftFlow::new(&nl).chains(4).run();
            let t = &report.phase_times;
            assert!(
                t.sum_phases() <= t.total,
                "phase drift: {:?} + {:?} + {:?} + {:?} + {:?} + {:?} = {:?} > total {:?}",
                t.scan,
                t.setup,
                t.compile,
                t.random_sim,
                t.deterministic,
                t.compression,
                t.sum_phases(),
                t.total
            );
            assert!(t.total > std::time::Duration::ZERO);
            // The setup and kernel-compile phases are measured (their
            // spans ran), even if they round to zero on tiny designs.
            assert!(t.sum_phases() >= t.setup + t.compile);
        }
    }

    #[test]
    fn flow_trace_records_phase_and_worker_spans() {
        let session = dft_trace::TraceSession::new(dft_trace::TraceConfig::default());
        let nl = mac_pe(4);
        let report = DftFlow::new(&nl)
            .chains(4)
            .threads(4)
            .trace(session.handle())
            .run();
        assert!(report.patterns > 0);
        let dump = session.snapshot();
        let spans = dump.spans().expect("balanced span forest");
        let mut names: Vec<&'static str> = Vec::new();
        fn collect(nodes: &[dft_trace::SpanNode], out: &mut Vec<&'static str>) {
            for n in nodes {
                out.push(n.name);
                collect(&n.children, out);
            }
        }
        collect(&spans, &mut names);
        for phase in [
            "flow",
            "scan_insertion",
            "atpg_setup",
            "sim_compile",
            "atpg_random",
            "atpg_topoff",
            "atpg_signoff",
            "compression",
        ] {
            assert!(names.contains(&phase), "missing phase span {phase}");
        }
        assert!(
            names.iter().filter(|n| **n == "faultsim_batch").count() >= 2,
            "expected worker-tagged fault-sim batch spans, got names {names:?}"
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let nl = mac_pe(4);
        let serial = DftFlow::new(&nl).threads(1).run();
        let parallel = DftFlow::new(&nl).threads(8).run();
        assert_eq!(serial.patterns, parallel.patterns);
        assert_eq!(serial.fault_coverage, parallel.fault_coverage);
        assert_eq!(serial.test_coverage, parallel.test_coverage);
        assert_eq!(serial.untestable, parallel.untestable);
        assert_eq!(serial.aborted, parallel.aborted);
        assert_eq!(serial.phase_times.threads, 1);
        assert_eq!(parallel.phase_times.threads, 8);
        assert!(parallel.to_string().contains("timing: scan"));
        assert!(parallel.to_string().contains(", setup "));
        assert!(parallel.to_string().contains("8 threads"));
    }

    #[test]
    fn poisoned_sim_batch_is_reported_not_fatal() {
        // A worker panic inside fault simulation (injected by the chaos
        // harness) must not kill the flow: the batch is isolated,
        // surfaced in the report, and everything else signs off normally.
        let nl = mac_pe(4);
        let clean = DftFlow::new(&nl).threads(4).run();
        assert_eq!(clean.failed_sim_batches, 0);
        assert!(!clean.to_string().contains("WARNING"));
        let chaos = dft_checkpoint::ChaosConfig::parse("panic=0.005,seed=1").unwrap();
        for threads in [1, 4] {
            let mut dur = Durability::default().with_chaos(chaos);
            let poisoned = DftFlow::new(&nl)
                .threads(threads)
                .run_durable(&mut dur)
                .expect("a lost batch is not fatal");
            assert!(poisoned.failed_sim_batches > 0, "threads={threads}");
            assert!(poisoned.to_string().contains("WARNING"));
            // The lost batches cost at most a few faults' worth of coverage.
            assert!(poisoned.test_coverage > clean.test_coverage - 0.02);
        }
    }

    #[test]
    fn flow_threads_override_atpg_config() {
        let nl = c17();
        // threads() wins over atpg_config() regardless of call order.
        let report = DftFlow::new(&nl)
            .threads(3)
            .atpg_config(AtpgConfig::new().threads(1))
            .run();
        assert_eq!(report.phase_times.threads, 3);
    }
}
