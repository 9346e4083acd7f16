//! `aidft` — command-line front end for the DFT toolkit.
//!
//! ```text
//! aidft stats    <design.bench>            netlist statistics
//! aidft atpg     <design.bench>            run ATPG, print sign-off
//! aidft flow     <design.bench> [chains]   full flow (scan+ATPG+EDT)
//! aidft bist     <design.bench> [patterns] logic-BIST session
//! aidft gen      <name> <out.bench>        write a generated circuit
//! aidft diagnose <design.bench> <log.json> diagnose a failure log
//! aidft repair   [--max-bad-cores N]       BISR + core-harvesting demo
//! aidft serve    <design.bench>            test-floor fleet server
//! aidft top      <addr>                    live fleet dashboard
//! aidft fleet-stats <addr>                 one-shot stats scrape
//! aidft fsck     <journal> [--repair]      validate/repair a journal
//! ```
//!
//! `serve` streams compressed pattern windows to a simulated die fleet
//! over loopback TCP and verifies the uploaded MISR signatures. It
//! accepts `--dies N` (fleet size, default 16), `--window K` (patterns
//! per window, default 32), `--client-threads N` (concurrent die
//! clients, default from `--threads`), `--max-reconnects N` (circuit-
//! breaker budget per die before it is quarantined `Untestable`,
//! default 32), and `--backoff-base MS` (base of the deterministic
//! reconnect backoff schedule, default 1; `0` disables backoff), plus
//! the durability flags below but `--phase-timeout`
//! (`--checkpoint-every` counts dies, at least 1). The final fleet
//! state is bit-identical for any thread count and any kill/resume
//! split; a fleet with an unreachable die completes and reports it
//! quarantined instead of hanging.
//!
//! Live telemetry (strictly read-only — the final fleet state is
//! unchanged with it on or off):
//!
//! - `--stats-addr ADDR` — publish a scrape endpoint for the run
//!   (Prometheus text at `/metrics`, JSON at `/stats.json`; `:0` picks
//!   an ephemeral port, printed on stderr). Implies suppressing the
//!   one-line progress spinner.
//! - `--events PATH` — append an `aidft-telemetry-v1` JSONL event
//!   stream (session transitions, quarantines, checkpoints, chaos
//!   injections, retests) to a framed journal at PATH.
//!
//! `aidft top <addr> [--interval-ms N] [--frames N]` attaches to a
//! serving fleet's `--stats-addr` endpoint and redraws a multi-line
//! dashboard (fleet gauges, breaker states, rolling rates, latency
//! quantiles) until the run ends. `aidft fleet-stats <addr>
//! [--metrics]` scrapes once and prints the JSON (or raw Prometheus
//! text) to stdout.
//!
//! `atpg`, `flow`, and `bist` accept `--threads N` (`0` = one worker per
//! hardware thread, the default; `1` = serial); for `atpg` and `flow`
//! it also sets the ATPG top-off's test-generation workers. The
//! `AIDFT_THREADS` environment variable sets the default for all
//! commands. Any thread count produces bit-identical results.
//!
//! `atpg`, `flow`, `bist`, `repair`, and `serve` also accept:
//!
//! - `--metrics-json <path>` — the hot-path metric snapshot of the run
//!   (PODEM backtracks, fault-sim gate evaluations, EDT encode stats,
//!   `serve` transport counters, phase timers) as JSON. See
//!   EXPERIMENTS.md for the schema.
//! - `--trace <path>` — a Chrome `trace_event` file of the run's span
//!   tree, loadable in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Either path may be `-` to write the payload to stdout; the
//! human-readable report then moves to stderr so the machine output
//! stays clean. When stderr is an interactive terminal, the long
//! commands additionally show a one-line live progress spinner (current
//! phase plus pattern/fault counters), erased before the report prints.
//!
//! # Durability
//!
//! `atpg` and `flow` are durable: Ctrl-C (SIGINT) or SIGTERM drains the
//! engines cleanly at a fault boundary instead of killing the process
//! mid-write. They take the flags below, after the design; `serve`
//! takes all but `--phase-timeout`, and every other command rejects
//! them:
//!
//! - `--checkpoint <path>` — append resume checkpoints to an
//!   `aidft-ckpt-v3` journal (schema in EXPERIMENTS.md).
//! - `--checkpoint-every <n>` — checkpoint cadence in faults
//!   (default 64; `0` = phase boundaries only).
//! - `--phase-timeout <ms>` — per-phase deadline; an overrunning phase
//!   is drained and checkpointed like a signal.
//! - `--resume <path>` — continue from the newest complete checkpoint
//!   in the journal (for `serve`, from every intact record: each holds
//!   the dies finished since the previous one); the finished run is
//!   bit-identical to an uninterrupted one.
//! - `--checkpoint-replicas <n>` — mirror every checkpoint append to
//!   `n` journal replicas (`<path>`, `<path>.r1`, ...). Resume reads
//!   the intact records of all replicas, so one rotted or torn copy
//!   costs nothing.
//!
//! The `AIDFT_CHAOS` environment variable enables deterministic fault
//! injection (worker panics, delayed batches, torn checkpoint writes,
//! deadline-clock skips, and disk faults on journal appends — `eio=`,
//! `shortwrite=`, `bitrot=`, `fsync_fail=`) for durability testing;
//! see EXPERIMENTS.md for the knob table.
//!
//! `aidft fsck <journal> [--repair]` validates any of the three framed
//! journal formats (`aidft-ckpt-v3`, `aidft-serve-v3`,
//! `aidft-telemetry-v1`): per-record verdicts (intact / bad-crc /
//! torn), scrub-index cross-check, and a summary verdict. `--repair`
//! rewrites the journal as a clean copy holding exactly the intact
//! records. A journal with zero intact records exits `5`.
//!
//! An argument that neither the command nor a global flag takes is a
//! usage error (`unknown <cmd> argument`), and so is a non-numeric
//! `[chains]` or `[patterns]` count or a zero `serve` `--dies`,
//! `--window`, `--client-threads` or `--checkpoint-every`.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error,
//! `3` interrupted (a resume checkpoint path is printed when one was
//! written), `4` a `serve` die client failed, `5` journal corrupt
//! beyond repair (`fsck`).
//!
//! Generator names for `gen`: anything from the benchmark suite (`c17`,
//! `s27`, `add8`, `mult8`, `alu8`, `mac4`, `sys4x4`, ...).

use std::fs;
use std::io::{IsTerminal, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dft_core::atpg::{Atpg, AtpgConfig, Durability};
use dft_core::bist::LogicBist;
use dft_core::checkpoint::{
    fsck, CancelToken, ChaosConfig, CkptError, CkptState, FramedJournal, CKPT_FORMAT,
};
use dft_core::diagnosis::{diagnose, FailureLog};
use dft_core::logicsim::PatternSet;
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::benchmark_suite;
use dft_core::netlist::{kind_histogram, parse_bench, write_bench, Netlist, NetlistStats};
use dft_core::progress::{self, Dashboard, ProgressLine};
use dft_core::serve::{run_fleet, BackoffPolicy, ServeConfig, ServeError, ServeOpts, SERVE_FORMAT};
use dft_core::telemetry::{self, TelemetryConfig, TelemetrySession};
use dft_core::trace::{TraceConfig, TraceHandle, TraceSession};
use dft_core::{DftError, DftFlow, PartialResult};

/// Set by the `SIGINT`/`SIGTERM` handler; a watcher thread converts it
/// into a [`CancelToken`] fire so the engines drain cooperatively.
static SIGNAL_FIRED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handler() {
    extern "C" fn on_signal(_signum: i32) {
        SIGNAL_FIRED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the handler only touches an atomic flag, which is
    // async-signal-safe; `signal` itself is a plain libc call.
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handler() {}

/// Installs the signal handler and spawns the watcher thread that trips
/// `token` when a signal lands. The thread exits once the token fires
/// (from the signal or from a phase deadline).
fn cancel_on_signals(token: CancelToken) {
    install_signal_handler();
    std::thread::spawn(move || loop {
        if SIGNAL_FIRED.load(Ordering::SeqCst) {
            token.cancel();
            return;
        }
        if token.is_cancelled() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    });
}

/// Writes a human-readable report line: stdout normally, stderr when
/// some `-` flag routed a machine payload to stdout.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => { $out.line(format!($($arg)*)) };
}

/// The durability knobs of the `atpg`, `flow` and `serve` commands.
struct DurOpts {
    /// Journal path for new checkpoints (`--checkpoint`).
    checkpoint: Option<String>,
    /// Checkpoint cadence in faults (`--checkpoint-every`).
    every: Option<u64>,
    /// Per-phase deadline in milliseconds (`--phase-timeout`).
    timeout_ms: u64,
    /// Journal to resume from (`--resume`).
    resume: Option<String>,
    /// Replica count for journal appends (`--checkpoint-replicas`).
    replicas: Option<u64>,
    /// Parsed `AIDFT_CHAOS` configuration, when set and active.
    chaos: Option<ChaosConfig>,
}

impl DurOpts {
    /// Removes the durability flags from `rest`, the arguments after a
    /// command's design. `--phase-timeout` only when `phases`: a command
    /// without phases leaves it for its `no_more_args` to reject.
    fn extract(
        rest: &mut Vec<String>,
        phases: bool,
        chaos: Option<ChaosConfig>,
    ) -> Result<DurOpts, DftError> {
        Ok(DurOpts {
            checkpoint: extract_path_flag(rest, "--checkpoint")?,
            every: extract_u64_flag(rest, "--checkpoint-every")?,
            timeout_ms: if phases {
                extract_u64_flag(rest, "--phase-timeout")?.unwrap_or(0)
            } else {
                0
            },
            resume: extract_path_flag(rest, "--resume")?,
            replicas: extract_u64_flag(rest, "--checkpoint-replicas")?,
            chaos,
        })
    }

    /// The configured replica count (default 1, floor 1).
    fn replica_count(&self) -> u32 {
        self.replicas.unwrap_or(1).clamp(1, u64::from(u32::MAX)) as u32
    }

    /// A `format` journal at `path` with the replica count and disk
    /// chaos applied — the one constructor behind the `atpg`, `flow`
    /// and `serve` journals. Writes and resume loads must both go
    /// through this so recovery scans the same replica set the appends
    /// fed.
    fn journal(&self, path: &str, format: &'static str) -> FramedJournal {
        let mut j = FramedJournal::new(path, format).with_replicas(self.replica_count());
        if let Some(chaos) = self.chaos {
            j = j.with_disk_chaos(chaos);
        }
        j
    }

    /// Builds the engine-side [`Durability`] handle: cancellation token
    /// wired to the process signals, phase deadline, journal, cadence,
    /// chaos, and the loaded resume state.
    fn build(&self) -> Result<Durability, DftError> {
        let token = CancelToken::new();
        cancel_on_signals(token.clone());
        let mut dur = Durability::new(token).deadline_ms(self.timeout_ms);
        if let Some(path) = self.checkpoint.as_ref().or(self.resume.as_ref()) {
            dur = dur.with_journal(self.journal(path, CKPT_FORMAT));
        }
        if let Some(n) = self.every {
            dur = dur.checkpoint_every(n);
        }
        if let Some(chaos) = self.chaos {
            dur = dur.with_chaos(chaos);
        }
        if let Some(path) = &self.resume {
            let (state, recovery) = CkptState::load_last(&self.journal(path, CKPT_FORMAT))?;
            if recovery.degraded() {
                eprintln!(
                    "aidft: resume healed over {} damaged record(s) \
                     (served from replica {})",
                    recovery.damaged, recovery.source_replica
                );
            }
            dur = dur.resume_from(state);
        }
        Ok(dur)
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| -> Result<_, DftError> {
        let threads = extract_threads(&mut args)?;
        let metrics_path = extract_path_flag(&mut args, "--metrics-json")?;
        let trace_path = extract_path_flag(&mut args, "--trace")?;
        let chaos = ChaosConfig::from_env()
            .map_err(|e| DftError::usage(format!("bad AIDFT_CHAOS value: {e}")))?;
        Ok((threads, metrics_path, trace_path, chaos))
    })();
    let (threads, metrics_path, trace_path, chaos) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("aidft: {e}");
            return ExitCode::from(2);
        }
    };
    let out = Out {
        human_to_stderr: [&metrics_path, &trace_path]
            .iter()
            .any(|p| p.as_deref() == Some("-")),
    };
    // A full session when an export was requested, a phases-only one
    // when we just need phase names for the terminal progress line.
    let session = if trace_path.is_some() {
        Some(TraceSession::new(TraceConfig::default()))
    } else if std::io::stderr().is_terminal() {
        Some(TraceSession::new(TraceConfig::phases_only()))
    } else {
        None
    };
    let trace = session
        .as_ref()
        .map(|s| s.handle())
        .unwrap_or_else(TraceHandle::disabled);
    let result = match args.first().map(String::as_str) {
        Some("stats") => with_design(&args, |nl, rest| {
            no_more_args("stats", rest)?;
            println!("{}", NetlistStats::of(nl));
            for (kind, count) in kind_histogram(nl) {
                println!("  {kind:<8} {count}");
            }
            Ok(())
        }),
        Some("atpg") => with_design(&args, |nl, rest| {
            let mut rest = rest.to_vec();
            let dur_opts = DurOpts::extract(&mut rest, true, chaos)?;
            no_more_args("atpg", &rest)?;
            let handle = MetricsHandle::enabled();
            let progress = ProgressLine::spawn(trace.clone(), handle.clone());
            let mut dur = dur_opts.build()?;
            let cfg = AtpgConfig::new().threads(threads);
            let run = Atpg::new(nl)
                .with_metrics(handle.clone())
                .with_trace(trace.clone())
                .run_durable(&cfg, &mut dur)
                .map_err(|e| DftError::atpg(nl.name(), e));
            progress.finish();
            let run = run?;
            say!(
                out,
                "{}: {} patterns, FC {:.2}%, TC {:.2}%, {} untestable, {} aborted, {:?}",
                nl.name(),
                run.patterns.len(),
                run.fault_list.fault_coverage() * 100.0,
                run.test_coverage() * 100.0,
                run.untestable,
                run.aborted,
                run.elapsed
            );
            write_metrics(&out, &metrics_path, &handle)
        }),
        Some("flow") => with_design(&args, |nl, rest| {
            let mut rest = rest.to_vec();
            let dur_opts = DurOpts::extract(&mut rest, true, chaos)?;
            let chains = count_arg("flow", "chain count", &rest, 4)?;
            let handle = MetricsHandle::enabled();
            let progress = ProgressLine::spawn(trace.clone(), handle.clone());
            let mut dur = dur_opts.build()?;
            let report = DftFlow::new(nl)
                .chains(chains)
                .threads(threads)
                .metrics(handle)
                .trace(trace.clone())
                .run_durable(&mut dur);
            progress.finish();
            let report = report?;
            out.text(format!("{report}"));
            if let Some(path) = &metrics_path {
                out.payload(path, &report.metrics.to_json())?;
            }
            Ok(())
        }),
        Some("bist") => with_design(&args, |nl, rest| {
            let patterns = count_arg("bist", "pattern count", rest, 1024)?;
            let handle = MetricsHandle::enabled();
            let progress = ProgressLine::spawn(trace.clone(), handle.clone());
            let r = LogicBist::new(nl, 32)
                .metrics(handle.clone())
                .trace(trace.clone())
                .threads(threads)
                .run(patterns, 0xB157);
            progress.finish();
            say!(
                out,
                "{}: {} PRPG patterns, coverage {:.2}%, signature {:016x}, {} undetected",
                nl.name(),
                r.patterns,
                r.coverage * 100.0,
                r.signature,
                r.undetected
            );
            write_metrics(&out, &metrics_path, &handle)
        }),
        Some("gen") => {
            if args.len() != 3 {
                Err(DftError::usage("usage: aidft gen <name> <out.bench>"))
            } else {
                match benchmark_suite().into_iter().find(|c| c.name == args[1]) {
                    Some(c) => fs::write(&args[2], write_bench(&c.netlist))
                        .map_err(|e| DftError::io(format!("write {}", args[2]), e)),
                    None => Err(DftError::usage(format!(
                        "unknown circuit `{}`; available: {}",
                        args[1],
                        benchmark_suite()
                            .iter()
                            .map(|c| c.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))),
                }
            }
        }
        Some("diagnose") => with_design(&args, |nl, rest| {
            let Some(log_path) = rest.first() else {
                return Err(DftError::usage(
                    "usage: aidft diagnose <design.bench> <log.json>",
                ));
            };
            no_more_args("diagnose", &rest[1..])?;
            let text = fs::read_to_string(log_path)
                .map_err(|e| DftError::io(format!("read {log_path}"), e))?;
            let log = FailureLog::from_json(&text)?;
            // The pattern set must match the one used on the tester; the
            // CLI convention is the seeded default set.
            let patterns = PatternSet::random(nl, 256, 0xD1A6);
            let cands = diagnose(nl, &patterns, &log, 10);
            if cands.is_empty() {
                println!("clean log or no candidates");
            }
            for (i, c) in cands.iter().enumerate() {
                println!(
                    "#{:<2} {:<30} score {:<6} tfsf {} tpsf {} tfsp {}",
                    i + 1,
                    c.fault.describe(nl),
                    c.score(),
                    c.tfsf,
                    c.tpsf,
                    c.tfsp
                );
            }
            Ok(())
        }),
        Some("serve") => with_design(&args, |nl, rest| {
            let mut rest: Vec<String> = rest.to_vec();
            let dies = extract_count_flag(&mut rest, "--dies")?.unwrap_or(16);
            let window = extract_count_flag(&mut rest, "--window")?.unwrap_or(32);
            let client_threads = extract_count_flag(&mut rest, "--client-threads")?
                .unwrap_or_else(|| threads.clamp(1, 8));
            let max_reconnects = extract_u64_flag(&mut rest, "--max-reconnects")?;
            let backoff_base = extract_u64_flag(&mut rest, "--backoff-base")?;
            let stats_addr = extract_path_flag(&mut rest, "--stats-addr")?;
            let events_path = extract_path_flag(&mut rest, "--events")?;
            let dur_opts = DurOpts::extract(&mut rest, false, chaos)?;
            no_more_args("serve", &rest)?;
            // A fleet journals every `n` dies; `0` has no meaning there.
            if dur_opts.every == Some(0) {
                return Err(DftError::usage("`--checkpoint-every` must be at least 1"));
            }
            let handle = MetricsHandle::enabled();
            // Telemetry first: a bound scrape endpoint owns the live
            // view, so the one-line spinner must stay suppressed before
            // the reporter spawns.
            let tele = if stats_addr.is_some() || events_path.is_some() {
                if stats_addr.is_some() {
                    progress::set_suppressed(true);
                }
                let cfg = TelemetryConfig {
                    stats_addr: stats_addr.clone(),
                    events_path: events_path.as_ref().map(std::path::PathBuf::from),
                    ..TelemetryConfig::default()
                };
                let session = TelemetrySession::start(cfg, handle.clone())
                    .map_err(|e| DftError::io("start telemetry", e))?;
                if let Some(addr) = session.stats_addr() {
                    // Stderr only: the stdout summary must stay
                    // byte-identical to a run without telemetry.
                    eprintln!("aidft: stats endpoint listening on {addr}");
                }
                Some(session)
            } else {
                None
            };
            let progress = ProgressLine::spawn(trace.clone(), handle.clone());
            let token = CancelToken::new();
            cancel_on_signals(token.clone());
            let journal = dur_opts
                .checkpoint
                .as_ref()
                .or(dur_opts.resume.as_ref())
                .map(|p| dur_opts.journal(p, SERVE_FORMAT));
            let opts = ServeOpts {
                metrics: handle.clone(),
                trace: trace.clone(),
                cancel: token,
                chaos: dur_opts.chaos.unwrap_or_default(),
                journal,
                resume: dur_opts.resume.is_some(),
                telemetry: tele
                    .as_ref()
                    .map(TelemetrySession::handle)
                    .unwrap_or_default(),
            };
            let mut cfg = ServeConfig {
                dies,
                window_patterns: window,
                client_threads,
                ..ServeConfig::default()
            };
            if let Some(n) = dur_opts.every {
                cfg.checkpoint_every = n as usize;
            }
            if let Some(n) = max_reconnects {
                cfg.max_reconnects = n.min(u64::from(u32::MAX)) as u32;
            }
            if let Some(ms) = backoff_base {
                cfg.backoff_base_ms = ms;
            }
            let report = run_fleet(nl, &cfg, &opts);
            progress.finish();
            if let Some(session) = tele {
                let fin = session.finish();
                progress::set_suppressed(false);
                eprintln!(
                    "aidft: telemetry: {} samples, {} scrapes, {} events, \
                     peak {:.1} dies/s, p99 window {:.0} us",
                    fin.samples,
                    fin.scrapes,
                    fin.events,
                    fin.final_sample.peak_dies_per_sec,
                    fin.final_sample.window_p99_us
                );
            }
            let report = report.map_err(|e| lift_serve_error(nl.name(), e))?;
            if report.resumed_dies > 0 {
                say!(
                    out,
                    "resumed: {} dies restored from checkpoint",
                    report.resumed_dies
                );
            }
            out.text(report.summary.render(report.wall));
            write_metrics(&out, &metrics_path, &handle)
        }),
        Some("repair") => (|| {
            let mut rest: Vec<String> = args[1..].to_vec();
            // The harvesting floor: by default an N-2 part still ships.
            let max_bad_cores = extract_u64_flag(&mut rest, "--max-bad-cores")?.unwrap_or(2);
            no_more_args("repair", &rest)?;
            run_repair_demo(&out, threads, max_bad_cores as usize, &metrics_path, &trace)
        })(),
        Some("top") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            run_top(&mut rest)
        }
        Some("fleet-stats") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            run_fleet_stats(&mut rest)
        }
        Some("fsck") => {
            let mut rest: Vec<String> = args[1..].to_vec();
            run_fsck(&mut rest)
        }
        _ => Err(DftError::usage(
            "usage: aidft <stats|atpg|flow|bist|gen|diagnose|repair|serve|top|fleet-stats|fsck> \
             [--threads N] [--metrics-json <path>] [--trace <path>] <args>; \
             atpg, flow and serve also take [--checkpoint <path>] [--checkpoint-every <n>] \
             [--resume <path>] [--checkpoint-replicas <n>], atpg and flow [--phase-timeout <ms>]; \
             `-` as a path writes to stdout; see README",
        )),
    };
    let result = result.and_then(|()| match (&session, &trace_path) {
        (Some(session), Some(path)) => out.payload(path, &session.snapshot().to_perfetto_json()),
        _ => Ok(()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("aidft: {e}");
            if let DftError::Interrupted {
                checkpoint: Some(path),
                ..
            } = &e
            {
                eprintln!("aidft: checkpoint written to {}", path.display());
            }
            ExitCode::from(match e {
                DftError::Usage(_) => 2,
                DftError::Interrupted { .. } => 3,
                DftError::DieClient { .. } => 4,
                DftError::CorruptJournal { .. } => 5,
                _ => 1,
            })
        }
    }
}

/// Lifts a serve-layer fleet error into the CLI error type. An
/// interrupted fleet maps onto the standard interrupt shape (exit 3,
/// checkpoint path printed) with dies standing in for faults.
fn lift_serve_error(design: &str, e: ServeError) -> DftError {
    match e {
        ServeError::Interrupted {
            checkpoint,
            done,
            dies,
        } => DftError::Interrupted {
            checkpoint,
            partial: Box::new(PartialResult {
                design: design.to_owned(),
                phase: "serve",
                patterns: done,
                detected: done,
                total_faults: dies,
                deadline: false,
            }),
        },
        ServeError::Checkpoint(e) => DftError::Checkpoint(e),
        ServeError::Io(e) => DftError::io(format!("serve {design}"), e),
        ServeError::Client(msg) => DftError::die_client(format!("serve {design}"), msg),
    }
}

/// Where human-readable report text goes, and how machine payloads are
/// written. When the `--metrics-json` or `--trace` path is `-`, stdout
/// is reserved for that payload and the report moves to stderr.
#[derive(Clone, Copy)]
struct Out {
    human_to_stderr: bool,
}

impl Out {
    fn line(&self, s: String) {
        if self.human_to_stderr {
            eprintln!("{s}");
        } else {
            println!("{s}");
        }
    }

    /// Like [`Out::line`] but without a trailing newline (for payloads
    /// that already end in one, e.g. the flow report).
    fn text(&self, s: String) {
        if self.human_to_stderr {
            eprint!("{s}");
        } else {
            print!("{s}");
        }
    }

    /// Writes a machine payload to `path`, or to stdout when `path` is
    /// `-`.
    fn payload(&self, path: &str, content: &str) -> Result<(), DftError> {
        if path == "-" {
            let mut o = std::io::stdout().lock();
            o.write_all(content.as_bytes())
                .and_then(|()| o.flush())
                .map_err(|e| DftError::io("write stdout", e))
        } else {
            fs::write(path, content).map_err(|e| DftError::io(format!("write {path}"), e))
        }
    }
}

/// Removes `--threads N` from `args` and returns the worker count:
/// the flag wins, then `AIDFT_THREADS`, then `0` (one worker per
/// hardware thread).
fn extract_threads(args: &mut Vec<String>) -> Result<usize, DftError> {
    let mut threads: Option<usize> = None;
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        if pos + 1 >= args.len() {
            return Err(DftError::usage("--threads requires a value"));
        }
        let value = args[pos + 1]
            .parse()
            .map_err(|_| DftError::usage(format!("bad --threads value `{}`", args[pos + 1])))?;
        args.drain(pos..pos + 2);
        threads = Some(value);
    }
    if threads.is_none() {
        if let Ok(env) = std::env::var("AIDFT_THREADS") {
            threads = Some(
                env.parse()
                    .map_err(|_| DftError::usage(format!("bad AIDFT_THREADS value `{env}`")))?,
            );
        }
    }
    Ok(threads.unwrap_or(0))
}

/// The `repair` command: a self-contained demonstration of both halves
/// of the repair subsystem — memory BISR (detect → repair → re-verify on
/// a seeded faulty SRAM, plus a yield sweep) and core harvesting (screen
/// a replicated-core SoC, fuse off the bad cores, recompute the test
/// schedule, and check degraded inference accuracy).
fn run_repair_demo(
    out: &Out,
    threads: usize,
    max_bad_cores: usize,
    metrics_path: &Option<String>,
    trace: &TraceHandle,
) -> Result<(), DftError> {
    use dft_core::aichip::{broadcast_screen, hierarchical_plan, SocConfig};
    use dft_core::bist::SramModel;
    use dft_core::netlist::generators::mac_pe;
    use dft_core::repair::{
        plan_degradation, random_point_faults, run_inference_check, yield_sweep, BisrEngine,
        ShipGrade, SpareConfig, SramGeometry,
    };

    let handle = MetricsHandle::enabled();

    // --- Memory BISR ---
    let geom = SramGeometry { rows: 16, cols: 16 };
    let spares = SpareConfig {
        spare_rows: 2,
        spare_cols: 2,
    };
    say!(
        out,
        "memory BISR: {}x{} SRAM + {} spare rows, {} spare cols (March C-)",
        geom.rows,
        geom.cols,
        spares.spare_rows,
        spares.spare_cols
    );
    let engine = BisrEngine::new()
        .with_metrics(handle.clone())
        .with_trace(trace.clone());
    let faults = random_point_faults(geom, &spares, 3, 0xB15);
    let physical = SramModel::with_faults(spares.physical_size(&geom), faults);
    let report = engine.run(&physical, geom, &spares);
    say!(
        out,
        "  seeded die: {} failing cells -> {} spare(s) in {} round(s), {}",
        report.initial_fails,
        report.signature.spares_used(),
        report.rounds,
        if report.repaired {
            "repaired (re-March clean)"
        } else if report.unrepairable {
            "UNREPAIRABLE"
        } else {
            "clean, no repair needed"
        }
    );
    say!(out, "  yield sweep (20 dies per density):");
    say!(out, "    faults  clean  repaired  unrepairable  yield");
    for p in yield_sweep(&engine, geom, &spares, &[1, 2, 3, 4, 6, 8], 20, 0xD1E) {
        say!(
            out,
            "    {:<7} {:<6} {:<9} {:<13} {:.0}%",
            p.faults_injected,
            p.clean,
            p.repaired,
            p.unrepairable,
            p.yield_fraction() * 100.0
        );
    }

    // --- Core harvesting ---
    let core = mac_pe(4);
    let cfg = SocConfig {
        threads,
        ..SocConfig::default()
    };
    let atpg = AtpgConfig::new().threads(threads);
    let progress = ProgressLine::spawn(trace.clone(), handle.clone());
    let plan = hierarchical_plan(&core, &cfg, &atpg, trace);
    let defective = [4usize, 13];
    let pass_map = broadcast_screen(&plan, &defective);
    progress.finish();
    let hplan = plan_degradation(
        &pass_map,
        plan.per_core_cycles,
        &cfg,
        max_bad_cores,
        &handle,
    );
    say!(
        out,
        "core harvesting: {}-core SoC, seeded bad cores {:?}, floor --max-bad-cores {}",
        cfg.num_cores,
        defective,
        max_bad_cores
    );
    let grade = match hplan.grade {
        ShipGrade::Full => "full spec".to_owned(),
        ShipGrade::Degraded(n) => format!("degraded N-{n}"),
        ShipGrade::Scrap => "SCRAP".to_owned(),
    };
    say!(
        out,
        "  screen: {}/{} cores pass; disabled {:?}; grade {}",
        hplan.good_cores,
        hplan.total_cores,
        hplan.disabled,
        grade
    );
    say!(
        out,
        "  retest schedule for shipped part: {} broadcast cycles ({:.3} ms), {} flat cycles",
        hplan.broadcast_cycles,
        hplan.test_time_ms,
        hplan.flat_cycles
    );
    if hplan.ships {
        let check = run_inference_check(cfg.num_cores, &hplan.disabled, 0xC0DE);
        say!(
            out,
            "  inference: healthy {:.1}%, unfused-faulty {:.1}%, harvested {:.1}% \
             at {:.0}% throughput",
            check.healthy_accuracy * 100.0,
            check.faulty_accuracy * 100.0,
            check.harvested_accuracy * 100.0,
            check.throughput_fraction * 100.0
        );
    } else {
        say!(out, "  die does not ship at this harvesting floor");
    }

    write_metrics(out, metrics_path, &handle)
}

/// The `fsck` command: scan (or `--repair`) a framed journal and print
/// the per-record report. Zero intact records is the corrupt-beyond-
/// repair verdict, exit code 5.
fn run_fsck(rest: &mut Vec<String>) -> Result<(), DftError> {
    let repair = if let Some(pos) = rest.iter().position(|a| a == "--repair") {
        rest.remove(pos);
        true
    } else {
        false
    };
    let path = match rest.as_slice() {
        [path] => path.clone(),
        _ => return Err(DftError::usage("usage: aidft fsck <journal> [--repair]")),
    };
    let target = std::path::Path::new(&path);
    let report = if repair {
        fsck::repair(target)
    } else {
        fsck::scan(target)
    }
    .map_err(|e| match e {
        CkptError::Corrupt { path } => DftError::CorruptJournal { path },
        other => other.into(),
    })?;
    print!("{}", report.render());
    if !report.records.is_empty() && report.intact() == 0 {
        return Err(DftError::CorruptJournal { path });
    }
    Ok(())
}

/// Scrapes `addr` with a short retry window: connection-refused errors
/// are retried on the seeded deterministic backoff schedule for ~2 s
/// (covering a serve endpoint that has not finished binding yet); any
/// other error is returned immediately.
fn scrape_with_retry(addr: &str, path: &str) -> std::io::Result<String> {
    let policy = BackoffPolicy::new(Duration::from_millis(25), 0x5C8A_9E01);
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    let mut attempt = 0u32;
    loop {
        match telemetry::scrape(addr, path) {
            Ok(body) => return Ok(body),
            Err(e)
                if e.kind() == std::io::ErrorKind::ConnectionRefused
                    && std::time::Instant::now() < deadline =>
            {
                attempt += 1;
                std::thread::sleep(policy.delay(0, attempt));
            }
            Err(e) => return Err(e),
        }
    }
}

/// The `top` command: attach to a serving fleet's `--stats-addr`
/// endpoint and redraw a live dashboard until the run ends. Before the
/// first successful scrape the endpoint is polled patiently with the
/// connection-refused retry schedule (the serve may still be compiling
/// its stimulus); after it, the endpoint disappearing means the fleet
/// finished — a clean exit, not an error.
fn run_top(rest: &mut Vec<String>) -> Result<(), DftError> {
    let interval_ms = extract_u64_flag(rest, "--interval-ms")?
        .unwrap_or(500)
        .max(50);
    let frames_cap = extract_u64_flag(rest, "--frames")?;
    let addr = match rest.as_slice() {
        [addr] => addr.clone(),
        _ => {
            return Err(DftError::usage(
                "usage: aidft top <addr> [--interval-ms N] [--frames N]",
            ))
        }
    };
    let mut dash = Dashboard::new();
    let mut attached = false;
    let mut frames = 0u64;
    let mut misses = 0u32;
    loop {
        // Pre-attach scrapes absorb connection-refused internally (the
        // endpoint may still be binding), so the miss budget here only
        // has to cover slower failure modes.
        let scraped = if attached {
            telemetry::scrape(addr.as_str(), "/metrics")
        } else {
            scrape_with_retry(addr.as_str(), "/metrics")
        };
        match scraped {
            Ok(text) => {
                attached = true;
                misses = 0;
                frames += 1;
                dash.draw(&top_frame(&addr, &telemetry::parse_prometheus(&text)));
                if frames_cap.is_some_and(|cap| frames >= cap) {
                    return Ok(());
                }
            }
            Err(e) => {
                misses += 1;
                if attached {
                    dash.clear();
                    eprintln!("aidft top: endpoint {addr} closed after {frames} frame(s)");
                    return Ok(());
                }
                if misses >= 5 {
                    return Err(DftError::io(format!("scrape {addr}"), e));
                }
            }
        }
        std::thread::sleep(Duration::from_millis(if attached {
            interval_ms
        } else {
            200
        }));
    }
}

/// Renders one `aidft top` frame from parsed `/metrics` scrape pairs.
fn top_frame(addr: &str, pairs: &[(String, f64)]) -> Vec<String> {
    let v = |name: &str| telemetry::pair_value(pairs, name).unwrap_or(f64::NAN);
    // The info metric carries the design as a label, so it is matched
    // by prefix rather than by full name.
    let design = pairs
        .iter()
        .find_map(|(n, _)| {
            n.strip_prefix("aidft_fleet_info{design=\"")
                .and_then(|s| s.strip_suffix("\"}"))
        })
        .unwrap_or("?");
    vec![
        format!(
            "aidft top - {addr}  design {design}  sample #{:.0}  up {:.1}s",
            v("aidft_sample_seq"),
            v("aidft_uptime_ms") / 1000.0
        ),
        format!(
            "fleet    {:.0}/{:.0} dies done, {:.0} windows/die, {:.0} sessions active, \
             {:.0} windows in flight",
            v("aidft_fleet_dies_done"),
            v("aidft_fleet_dies"),
            v("aidft_fleet_windows_per_die"),
            v("aidft_sessions_active"),
            v("aidft_windows_in_flight")
        ),
        format!(
            "breaker  {:.0} closed, {:.0} backoff, {:.0} quarantined",
            v("aidft_breaker_closed"),
            v("aidft_breaker_backoff"),
            v("aidft_breaker_quarantined")
        ),
        format!(
            "rates    {:.1} dies/s (peak {:.1}), {:.1} signatures/s",
            v("aidft_dies_per_sec"),
            v("aidft_peak_dies_per_sec"),
            v("aidft_signatures_per_sec")
        ),
        format!(
            "latency  window p50 {:.0} us / p99 {:.0} us, signature p50 {:.0} us / p99 {:.0} us",
            v("aidft_window_latency_us_p50"),
            v("aidft_window_latency_us_p99"),
            v("aidft_signature_latency_us_p50"),
            v("aidft_signature_latency_us_p99")
        ),
    ]
}

/// The `fleet-stats` command: one scrape of a live endpoint, printed to
/// stdout (JSON by default, raw Prometheus text with `--metrics`).
fn run_fleet_stats(rest: &mut Vec<String>) -> Result<(), DftError> {
    let metrics = if let Some(pos) = rest.iter().position(|a| a == "--metrics") {
        rest.remove(pos);
        true
    } else {
        false
    };
    let addr = match rest.as_slice() {
        [addr] => addr.clone(),
        _ => {
            return Err(DftError::usage(
                "usage: aidft fleet-stats <addr> [--metrics]",
            ))
        }
    };
    let path = if metrics { "/metrics" } else { "/stats.json" };
    let body = scrape_with_retry(addr.as_str(), path)
        .map_err(|e| DftError::io(format!("scrape {addr}"), e))?;
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    Ok(())
}

/// Removes `<flag> <n>` from `args` and returns the parsed integer, if
/// given.
fn extract_u64_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, DftError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(DftError::usage(format!("{flag} requires a value")));
        }
        let value = args[pos + 1]
            .parse()
            .map_err(|_| DftError::usage(format!("bad {flag} value `{}`", args[pos + 1])))?;
        args.drain(pos..pos + 2);
        return Ok(Some(value));
    }
    Ok(None)
}

/// [`extract_u64_flag`] for a count that must be at least 1: `0` is a
/// usage error naming the flag, never silently raised to 1.
fn extract_count_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<usize>, DftError> {
    match extract_u64_flag(args, flag)? {
        Some(0) => Err(DftError::usage(format!("`{flag}` must be at least 1"))),
        Some(n) => usize::try_from(n)
            .map(Some)
            .map_err(|_| DftError::usage(format!("bad {flag} value `{n}`"))),
        None => Ok(None),
    }
}

/// Removes `<flag> <path>` from `args` and returns the path, if given.
fn extract_path_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, DftError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(DftError::usage(format!("{flag} requires a path")));
        }
        let path = args[pos + 1].clone();
        args.drain(pos..pos + 2);
        return Ok(Some(path));
    }
    Ok(None)
}

/// Writes the snapshot of `handle` to `path` as JSON (no-op when the flag
/// was not given).
fn write_metrics(out: &Out, path: &Option<String>, handle: &MetricsHandle) -> Result<(), DftError> {
    if let (Some(path), Some(snap)) = (path, handle.snapshot()) {
        out.payload(path, &snap.to_json())?;
    }
    Ok(())
}

/// Parses the design argument (`args[1]`) and hands off to `f` with the
/// arguments after it.
fn with_design(
    args: &[String],
    f: impl FnOnce(&Netlist, &[String]) -> Result<(), DftError>,
) -> Result<(), DftError> {
    let Some(path) = args.get(1) else {
        return Err(DftError::usage("missing <design.bench> argument"));
    };
    let text = fs::read_to_string(path).map_err(|e| DftError::io(format!("read {path}"), e))?;
    let name = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".bench");
    let nl = parse_bench(name, &text).map_err(|e| DftError::netlist(format!("parse {path}"), e))?;
    f(&nl, &args[2..])
}

/// Rejects the first argument `cmd` left unconsumed (usage error).
fn no_more_args(cmd: &str, rest: &[String]) -> Result<(), DftError> {
    match rest.first() {
        Some(extra) => Err(DftError::usage(format!("unknown {cmd} argument `{extra}`"))),
        None => Ok(()),
    }
}

/// The optional count after the design of `flow` (`[chains]`) and
/// `bist` (`[patterns]`): `default` when absent, a usage error when it
/// is not a number or anything follows it.
fn count_arg(cmd: &str, what: &str, rest: &[String], default: usize) -> Result<usize, DftError> {
    let Some(first) = rest.first().filter(|a| !a.starts_with('-')) else {
        no_more_args(cmd, rest)?;
        return Ok(default);
    };
    no_more_args(cmd, &rest[1..])?;
    first
        .parse()
        .map_err(|_| DftError::usage(format!("bad {what} `{first}`")))
}
