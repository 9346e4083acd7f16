//! Fleet-service integration: a real loopback TCP server and 64 die
//! clients, checked bit-for-bit against the no-server reference, across
//! client thread counts, chaos-injected transport faults, and a
//! kill/resume split. The invariant throughout: the final fleet state
//! is a pure function of `(design, ServeConfig, chaos config)` —
//! scheduling, wall-clock timing, and checkpointing must never leak
//! into it. Chaos that only perturbs transport is invisible; chaos
//! that makes a die unreachable produces the *same* quarantine verdict
//! on every run.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use dft_core::checkpoint::{
    decide_disk_fault, disk_ordinal, scrub, CancelToken, ChaosConfig, DiskFault, FramedJournal,
};
use dft_core::metrics::{MetricsHandle, MetricsSnapshot};
use dft_core::netlist::generators::mac_pe;
use dft_core::netlist::Netlist;
use dft_core::serve::{
    die_reference_signatures, run_fleet, DieSim, FleetReport, FleetState, ServeConfig, ServeError,
    ServeOpts, ServedStimulus, SERVE_FORMAT,
};
use dft_core::telemetry::{TelemetryConfig, TelemetrySession};
use dft_core::trace::TraceHandle;

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ckpt"));
    std::fs::remove_file(&path).ok();
    path
}

/// Runs a fleet with a fresh metrics registry and returns its report
/// with the counters the run left.
fn run_metered(nl: &Netlist, cfg: &ServeConfig, opts: ServeOpts) -> (FleetReport, MetricsSnapshot) {
    let opts = ServeOpts {
        metrics: MetricsHandle::enabled(),
        ..opts
    };
    let report = run_fleet(nl, cfg, &opts).unwrap();
    (report, opts.metrics.snapshot().unwrap())
}

/// A chaos-free 64-die fleet opens one session per die, and each client
/// thread keeps one connection across its dies: none is dropped or torn.
fn assert_one_connection_per_client(counters: &MetricsSnapshot, client_threads: u64) {
    assert_eq!(counters.counter("serve_sessions"), 64);
    let connections = counters.counter("serve_connections");
    assert!(
        (1..=client_threads).contains(&connections),
        "{connections} connections for {client_threads} client threads"
    );
    assert_eq!(counters.counter("serve_conn_drops"), 0);
    assert_eq!(counters.counter("serve_torn_frames"), 0);
}

/// Removes a fleet journal and its scrub index.
fn remove_journal(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(scrub::scrub_path(path)).ok();
}

/// Reads a fleet journal in file order and checks that its records
/// arrive in ascending seq, name each die of `state` exactly once, and
/// fold back to `state`.
fn assert_each_die_journaled_once(path: &Path, state: &FleetState) {
    let records = FramedJournal::new(path, SERVE_FORMAT).load_all().unwrap();
    let seqs: Vec<u64> = records.iter().map(|(seq, _)| *seq).collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "seqs in file order: {seqs:?}"
    );
    let mut folded = FleetState::new(&state.design, state.fingerprint, state.dies);
    for (seq, body) in records {
        let record = FleetState::parse_body(&body).expect("a fleet record body");
        for (id, outcome) in record.done {
            assert!(
                folded.done.insert(id, outcome).is_none(),
                "die {id} journaled again in record {seq}"
            );
        }
    }
    assert_eq!(&folded, state, "the records fold to the final state");
}

/// A journal at `path` and nothing else.
fn journaled(path: &Path) -> ServeOpts {
    ServeOpts {
        journal: Some(FramedJournal::new(path, SERVE_FORMAT)),
        ..ServeOpts::default()
    }
}

#[test]
fn sixty_four_dies_match_reference_across_thread_counts() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 64,
        client_threads: 1,
        ..ServeConfig::default()
    };
    let serial_path = ckpt_path("sixty-four-t1");
    let (serial, counters) = run_metered(&nl, &cfg, journaled(&serial_path));
    assert_eq!(serial.state.done.len(), 64, "every die reaches a verdict");
    assert_one_connection_per_client(&counters, 1);
    assert_each_die_journaled_once(&serial_path, &serial.state);
    let serial_bytes = counters.counter("ckpt_bytes");
    remove_journal(&serial_path);

    // Every die's uploaded signatures must be bit-identical to the
    // single-die reference computed without any server or socket.
    let stim = ServedStimulus::build(
        &nl,
        &cfg,
        &MetricsHandle::default(),
        &TraceHandle::disabled(),
    );
    let sim = DieSim::new(&nl, &stim);
    for (id, outcome) in &serial.state.done {
        let reference = die_reference_signatures(&stim, &sim, &cfg, *id);
        assert_eq!(outcome.signatures, reference, "die {id} signatures");
        assert_eq!(
            outcome.passed,
            reference == stim.golden_sigs,
            "die {id} verdict consistent with its signatures"
        );
    }

    // Four concurrent die clients: interleaving changes, state does not.
    let cfg4 = ServeConfig {
        client_threads: 4,
        ..cfg
    };
    let threaded_path = ckpt_path("sixty-four-t4");
    let (threaded, counters) = run_metered(&nl, &cfg4, journaled(&threaded_path));
    assert_eq!(threaded.state, serial.state, "client_threads 4 vs 1");
    assert_eq!(threaded.summary, serial.summary);
    assert_one_connection_per_client(&counters, 4);
    // Each die is journaled once, so only which record a die lands in
    // depends on the interleaving, not the journal's size.
    assert_each_die_journaled_once(&threaded_path, &threaded.state);
    assert_eq!(counters.counter("ckpt_bytes"), serial_bytes);
    remove_journal(&threaded_path);
}

/// Transport chaos is invisible in the state, and each fault is counted
/// once: a failed session drops its connection and the die's retry
/// opens a new one, while a successful session leaves it open for the
/// client thread's next die.
#[test]
fn chaos_transport_faults_do_not_change_the_verdict() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 4,
        ..ServeConfig::default()
    };
    let clean = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();
    let chaos = ChaosConfig::parse("drop=0.15,tear=0.15,delay=0.1,delay_ms=2,seed=3").unwrap();
    let opts = ServeOpts {
        chaos,
        ..ServeOpts::default()
    };
    let (noisy, counters) = run_metered(&nl, &cfg, opts);
    assert_eq!(
        noisy.state, clean.state,
        "chaos must be invisible in the state"
    );
    assert_eq!(noisy.summary, clean.summary);
    let retries = counters.counter("serve_retries");
    assert!(retries > 0, "chaos fired");
    assert_eq!(counters.counter("serve_conn_drops"), retries);
    let connections = counters.counter("serve_connections");
    assert!(
        retries < connections && connections <= 4 + retries,
        "{connections} connections for 4 client threads and {retries} retries"
    );

    // One client thread: every connection after its first follows a
    // failed session, and only `tear` tears frames. At 10 % the knobs
    // need more dies than above to fire.
    let cfg1 = ServeConfig {
        dies: 64,
        client_threads: 1,
        ..cfg
    };
    let clean = run_fleet(&nl, &cfg1, &ServeOpts::default()).unwrap();
    for (knobs, torn_per_retry) in [("drop=0.1,seed=3", 0), ("tear=0.1,seed=3", 1)] {
        let opts = ServeOpts {
            chaos: ChaosConfig::parse(knobs).unwrap(),
            ..ServeOpts::default()
        };
        let (noisy, counters) = run_metered(&nl, &cfg1, opts);
        assert_eq!(noisy.state, clean.state, "{knobs}");
        let retries = counters.counter("serve_retries");
        assert!(retries > 0, "{knobs}: chaos fired");
        assert_eq!(
            counters.counter("serve_connections"),
            1 + retries,
            "{knobs}"
        );
        assert_eq!(
            counters.counter("serve_torn_frames"),
            torn_per_retry * retries,
            "{knobs}"
        );
    }
}

/// Windows of 1, 4 and 8 patterns give each die 52, 13 and 7 windows,
/// more than a session keeps in flight (4), so the pipeline fills and
/// a failing session abandons windows mid-stream. Chaos stays invisible
/// in the state, every die matches its reference, and every window
/// written leaves the in-flight gauge.
#[test]
fn deep_window_pipeline_under_chaos_matches_reference() {
    let nl = mac_pe(4);
    for window_patterns in [1, 4, 8] {
        let cfg = ServeConfig {
            dies: 16,
            client_threads: 2,
            window_patterns,
            ..ServeConfig::default()
        };
        let stim = ServedStimulus::build(
            &nl,
            &cfg,
            &MetricsHandle::default(),
            &TraceHandle::disabled(),
        );
        assert!(stim.total_windows() > 4, "window {window_patterns}");
        let clean = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();

        let session =
            TelemetrySession::start(TelemetryConfig::default(), MetricsHandle::enabled()).unwrap();
        let opts = ServeOpts {
            chaos: ChaosConfig::parse(
                "drop=0.02,tear=0.02,corrupt=0.02,delay=0.05,delay_ms=1,seed=3",
            )
            .unwrap(),
            telemetry: session.handle(),
            metrics: MetricsHandle::enabled(),
            ..ServeOpts::default()
        };
        let noisy = run_fleet(&nl, &cfg, &opts).unwrap();
        let in_flight = opts.telemetry.gauges().unwrap().windows_in_flight();
        session.finish();
        let retries = opts.metrics.get().unwrap().serve_retries.get();
        assert!(retries > 0, "window {window_patterns}: chaos fired");
        assert_eq!(noisy.state, clean.state, "window {window_patterns}");
        assert_eq!(noisy.summary, clean.summary, "window {window_patterns}");
        assert_eq!(in_flight, 0, "window {window_patterns}: windows in flight");

        let sim = DieSim::new(&nl, &stim);
        for (id, outcome) in &noisy.state.done {
            assert_eq!(
                outcome.signatures,
                die_reference_signatures(&stim, &sim, &cfg, *id),
                "window {window_patterns} die {id}"
            );
        }
    }
}

#[test]
fn chaos_killed_fleet_resumes_to_the_identical_state() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 24,
        client_threads: 2,
        checkpoint_every: 1,
        ..ServeConfig::default()
    };
    let baseline = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();

    // Kill mid-stream: the cancel token trips on the Nth window poll
    // while chaos drops connections and tears frames.
    let path = ckpt_path("serve-resume");
    let token = CancelToken::new();
    token.trip_after_polls(20);
    let opts = ServeOpts {
        cancel: token,
        chaos: ChaosConfig::parse("drop=0.1,tear=0.1,seed=7").unwrap(),
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        ..ServeOpts::default()
    };
    match run_fleet(&nl, &cfg, &opts) {
        Err(ServeError::Interrupted {
            checkpoint,
            done,
            dies,
        }) => {
            assert_eq!(dies, 24);
            assert!(done < 24, "interrupt must land mid-fleet (done {done})");
            assert_eq!(checkpoint.as_deref(), Some(path.as_path()));
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }

    // Resume from the journal: restored dies are not re-streamed, and
    // the final state matches the uninterrupted baseline exactly.
    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        resume: true,
        ..ServeOpts::default()
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert!(resumed.resumed_dies > 0, "checkpoint must restore dies");
    assert_eq!(resumed.state, baseline.state, "resume vs uninterrupted");
    assert_eq!(resumed.summary, baseline.summary);
    std::fs::remove_file(&path).ok();
}

/// A permanently dead server path: every session goes half-open right
/// after Hello. The fleet must still complete — no hang — with every
/// die quarantined `Untestable`, and the verdicts must be bit-identical
/// across client thread counts.
#[test]
fn halfopen_dead_fleet_completes_and_quarantines_every_die() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 8,
        client_threads: 1,
        max_reconnects: 2,
        backoff_base_ms: 0,
        ..ServeConfig::default()
    };
    let chaos = ChaosConfig::parse("halfopen=1.0,stall_ms=5,seed=11").unwrap();
    let opts = ServeOpts {
        chaos,
        ..ServeOpts::default()
    };
    let serial = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(serial.state.done.len(), 8, "fleet completes, never hangs");
    assert!(
        serial.state.done.values().all(|d| d.quarantined),
        "every die is quarantined"
    );
    assert!(
        serial.state.done.values().all(|d| d.signatures.is_empty()),
        "quarantined dies carry no signatures"
    );
    assert_eq!(serial.summary.tested, 0);
    assert_eq!(serial.summary.quarantined, 8);
    assert_eq!(serial.summary.untested, 8);
    assert_eq!(serial.summary.scrapped, 8);
    // 0.25 defect rate, whole fleet quarantined: 250k DPPM exposure.
    assert_eq!(serial.summary.dppm_risk, 250_000);

    let cfg4 = ServeConfig {
        client_threads: 4,
        ..cfg
    };
    let threaded = run_fleet(&nl, &cfg4, &opts).unwrap();
    assert_eq!(threaded.state, serial.state, "client_threads 4 vs 1");
    assert_eq!(threaded.summary, serial.summary);
}

/// The full acceptance matrix for degraded verdicts: under a chaos mix
/// of half-open connections, stalled streams, and corrupted uploads
/// with a tight reconnect budget, some dies quarantine and some pass —
/// and the final state is bit-identical across client thread counts
/// AND across a kill/`--resume` split run under the *same* chaos.
#[test]
fn mixed_chaos_quarantine_is_identical_across_threads_and_resume() {
    let nl = mac_pe(4);
    let chaos_knobs = "halfopen=0.4,stall=0.2,corrupt=0.15,stall_ms=2,seed=9";
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 1,
        checkpoint_every: 1,
        max_reconnects: 2,
        backoff_base_ms: 0,
        ..ServeConfig::default()
    };
    let opts_with = || ServeOpts {
        chaos: ChaosConfig::parse(chaos_knobs).unwrap(),
        ..ServeOpts::default()
    };
    let baseline = run_fleet(&nl, &cfg, &opts_with()).unwrap();
    assert_eq!(baseline.state.done.len(), 16, "fleet completes");
    let q = baseline.summary.quarantined;
    assert!(q > 0, "chaos mix must trip at least one breaker");
    assert!(q < 16, "chaos mix must let some dies finish (got {q})");
    assert_eq!(baseline.summary.untested, q);

    // Thread-count invariance under the same chaos.
    let cfg4 = ServeConfig {
        client_threads: 4,
        ..cfg
    };
    let threaded = run_fleet(&nl, &cfg4, &opts_with()).unwrap();
    assert_eq!(threaded.state, baseline.state, "client_threads 4 vs 1");

    // Kill/resume split under the same chaos: quarantine decisions are
    // replayed from deterministic attempt counts, never persisted
    // half-made.
    let path = ckpt_path("serve-quarantine-resume");
    let token = CancelToken::new();
    token.trip_after_polls(12);
    let opts = ServeOpts {
        cancel: token,
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        ..opts_with()
    };
    match run_fleet(&nl, &cfg, &opts) {
        Err(ServeError::Interrupted { done, dies, .. }) => {
            assert_eq!(dies, 16);
            assert!(done < 16, "interrupt must land mid-fleet (done {done})");
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT)),
        resume: true,
        ..opts_with()
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(resumed.state, baseline.state, "resume vs uninterrupted");
    assert_eq!(resumed.summary, baseline.summary);
    std::fs::remove_file(&path).ok();
}

/// Liveness knobs never touch state: with tight socket deadlines and a
/// zero-tolerance idle reaper, stalls surface as client timeouts and
/// heartbeats get sessions reaped — yet with a full reconnect budget
/// every die still converges to exactly the clean-run verdict.
#[test]
fn deadlines_and_reaper_bound_liveness_without_changing_state() {
    let nl = mac_pe(4);
    let clean_cfg = ServeConfig {
        dies: 8,
        client_threads: 2,
        ..ServeConfig::default()
    };
    let clean = run_fleet(&nl, &clean_cfg, &ServeOpts::default()).unwrap();

    let cfg = ServeConfig {
        io_timeout_ms: 50,
        max_heartbeats: 0,
        ..clean_cfg
    };
    let chaos = ChaosConfig::parse("stall=0.3,delay=0.3,delay_ms=2,stall_ms=200,seed=5").unwrap();
    let handle = MetricsHandle::enabled();
    let opts = ServeOpts {
        chaos,
        metrics: handle.clone(),
        ..ServeOpts::default()
    };
    let noisy = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(
        noisy.state, clean.state,
        "deadlines and reaps are liveness-only — state must not move"
    );
    assert_eq!(noisy.summary.quarantined, 0);
    let snap = handle.snapshot().unwrap();
    assert!(
        snap.counter("serve_heartbeats") > 0,
        "delay chaos heartbeats"
    );
    assert!(snap.counter("serve_idle_reaps") > 0, "reaper fired");
    assert!(
        snap.counter("serve_retries") > 0,
        "backoff retries happened"
    );
}

/// Runs a fleet on its own thread and waits at most 30 s for it, so an
/// acceptor that is never woken fails the test instead of hanging
/// `cargo test`. Returns the result and the sessions the server opened.
fn run_fleet_bounded(cfg: ServeConfig, opts: ServeOpts) -> (Result<FleetReport, ServeError>, u64) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let opts = ServeOpts {
            metrics: MetricsHandle::enabled(),
            ..opts
        };
        let result = run_fleet(&mac_pe(4), &cfg, &opts);
        let sessions = opts.metrics.get().map_or(0, |m| m.serve_sessions.get());
        tx.send((result, sessions)).ok();
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("run_fleet must return within 30 s: the acceptor was never woken")
}

/// The acceptor blocks in `accept` and is woken by one connection after
/// the client pool joins. An empty fleet and a finished one end with no
/// die ever connecting, and a pre-cancelled one once each client's first
/// session has seen the token, so only that wake can end them.
#[test]
fn acceptor_is_woken_when_no_die_connects() {
    let cfg = ServeConfig {
        dies: 0,
        client_threads: 2,
        ..ServeConfig::default()
    };
    let (result, sessions) = run_fleet_bounded(cfg, ServeOpts::default());
    let report = result.expect("an empty fleet completes");
    assert_eq!(report.summary.dies, 0);
    assert!(report.state.done.is_empty());
    assert_eq!(sessions, 0, "no die connects to an empty fleet");

    // Resume of a fully journaled fleet: every die is restored, none is
    // streamed.
    let cfg = ServeConfig { dies: 16, ..cfg };
    let path = ckpt_path("serve-wake-full");
    let journal = || Some(FramedJournal::new(&path, SERVE_FORMAT));
    let (full, _) = run_fleet_bounded(
        cfg,
        ServeOpts {
            journal: journal(),
            ..ServeOpts::default()
        },
    );
    let full = full.expect("the journaled fleet completes");
    let (resumed, sessions) = run_fleet_bounded(
        cfg,
        ServeOpts {
            journal: journal(),
            resume: true,
            ..ServeOpts::default()
        },
    );
    let resumed = resumed.expect("a fully journaled fleet resumes");
    assert_eq!(resumed.resumed_dies, 16);
    assert_eq!(resumed.state, full.state);
    assert_eq!(sessions, 0, "no die connects to a finished fleet");
    std::fs::remove_file(&path).ok();

    // A token cancelled before the first die: the run is interrupted
    // with nothing recorded.
    let token = CancelToken::new();
    token.cancel();
    let (result, _) = run_fleet_bounded(
        cfg,
        ServeOpts {
            cancel: token,
            ..ServeOpts::default()
        },
    );
    match result {
        Err(ServeError::Interrupted { done, dies, .. }) => {
            assert_eq!((done, dies), (0, 16));
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

/// Disk chaos fails some appends with EIO before a byte lands. A failed
/// record's dies go back on the list and ride a later record, so the
/// journal still names every die once and resumes to the final state.
/// The seed is scanned for one that fails an append but lets the last
/// one take.
#[test]
fn dies_of_a_failed_append_ride_a_later_record() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 64,
        client_threads: 1,
        ..ServeConfig::default()
    };
    // One client: an append every `checkpoint_every` dies, then the
    // final one.
    let last = (cfg.dies / cfg.checkpoint_every) as u64;
    let eio = |c: &ChaosConfig, seq| decide_disk_fault(c, disk_ordinal(seq, 0)) == DiskFault::Eio;
    let chaos = (0..64)
        .map(|s| ChaosConfig::parse(&format!("eio=0.3,seed={s}")).unwrap())
        .find(|c| (0..last).any(|seq| eio(c, seq)) && !eio(c, last))
        .expect("some seed fails an append but not the last");
    let path = ckpt_path("journal-eio");
    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT).with_disk_chaos(chaos)),
        ..ServeOpts::default()
    };
    let (report, counters) = run_metered(&nl, &cfg, opts);
    assert!(counters.counter("ckpt_write_failures") > 0);
    assert_each_die_journaled_once(&path, &report.state);
    let journal = FramedJournal::new(&path, SERVE_FORMAT);
    let resumed = FleetState::resume(&journal, nl.name(), cfg.fingerprint(nl.name())).unwrap();
    assert_eq!(resumed, report.state);
    remove_journal(&path);
}

/// A resumed fleet continues the journal's seq after its newest record:
/// after a full run and a resume of it, the seqs in the journal and in
/// its scrub index strictly increase.
#[test]
fn a_resumed_fleet_continues_the_journal_seq() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 2,
        checkpoint_every: 1,
        ..ServeConfig::default()
    };
    let path = ckpt_path("journal-seq");
    let full = run_fleet(&nl, &cfg, &journaled(&path)).unwrap();
    let opts = ServeOpts {
        resume: true,
        ..journaled(&path)
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert_eq!(resumed.resumed_dies, 16);
    assert_eq!(resumed.state, full.state);
    assert_each_die_journaled_once(&path, &full.state);
    // 16 one-die records and the empty final one, then the resumed
    // run's empty final record.
    let indexed: Vec<u64> = scrub::read_index(&path).iter().map(|e| e.seq).collect();
    assert_eq!(indexed, (0..=17).collect::<Vec<u64>>());
    remove_journal(&path);
}
