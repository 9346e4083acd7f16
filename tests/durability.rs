//! Durability integration: kill-and-resume determinism across designs
//! and thread counts, top-off speculation that no output can observe,
//! randomized kill points that must never corrupt the journal, and
//! chaos-injected worker panics surfacing in the sign-off report.

use std::path::{Path, PathBuf};

use dft_core::atpg::{
    Atpg, AtpgConfig, AtpgError, AtpgRun, CompactionMode, Durability, FaultModel,
};
use dft_core::checkpoint::{
    frame_record, CancelToken, ChaosConfig, CkptPhase, CkptState, CkptStatus, FramedJournal,
    CKPT_FORMAT,
};
use dft_core::metrics::MetricsHandle;
use dft_core::netlist::generators::{
    alu, benchmark_suite, decoder, mac_pe, random_logic, systolic_array, SystolicConfig,
};
use dft_core::netlist::Netlist;
use dft_core::{DftError, DftFlow};

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ckpt"));
    std::fs::remove_file(&path).ok();
    path
}

fn journal(path: &Path) -> FramedJournal {
    FramedJournal::new(path, CKPT_FORMAT)
}

fn last_state(path: &Path) -> CkptState {
    CkptState::load_last(&journal(path))
        .expect("valid record")
        .0
}

/// Every deterministic `AtpgRun` field (all but the wall-clock ones):
/// the result, and the effort counters a resumed run restores from its
/// checkpoint.
fn assert_identical_runs(run: &AtpgRun, reference: &AtpgRun, context: &str) {
    assert_eq!(
        run.patterns.len(),
        reference.patterns.len(),
        "{context}: pattern count"
    );
    for (i, (a, b)) in run
        .patterns
        .iter()
        .zip(reference.patterns.iter())
        .enumerate()
    {
        assert_eq!(a, b, "{context}: pattern {i}");
    }
    for i in 0..reference.fault_list.len() {
        assert_eq!(
            run.fault_list.status(i),
            reference.fault_list.status(i),
            "{context}: fault {i}"
        );
    }
    assert_eq!(
        run.untestable, reference.untestable,
        "{context}: untestable"
    );
    assert_eq!(run.aborted, reference.aborted, "{context}: aborted");
    assert_eq!(
        run.fault_list.faults(),
        reference.fault_list.faults(),
        "{context}: fault list"
    );
    assert_eq!(run.cubes, reference.cubes, "{context}: cubes");
    assert_eq!(
        run.random_detected, reference.random_detected,
        "{context}: random_detected"
    );
    assert_eq!(
        run.deterministic_detected, reference.deterministic_detected,
        "{context}: deterministic_detected"
    );
    assert_eq!(run.escalated, reference.escalated, "{context}: escalated");
    assert_eq!(run.rescued, reference.rescued, "{context}: rescued");
    assert_eq!(
        run.failed_sim_batches, reference.failed_sim_batches,
        "{context}: failed_sim_batches"
    );
    assert_eq!(run.podem, reference.podem, "{context}: PODEM stats");
}

/// Where an interrupted run's checkpoint stopped. A top-off record with
/// no undetected collapsed fault left was written by the compaction
/// pass that follows top-off.
fn stage(state: &CkptState) -> &'static str {
    match state.phase {
        CkptPhase::Init => "random",
        CkptPhase::Topoff if state.main.statuses.contains(&CkptStatus::Undetected) => "topoff",
        CkptPhase::Topoff => "compaction",
        CkptPhase::Signoff => "signoff",
    }
}

fn sys2x2() -> Netlist {
    systolic_array(SystolicConfig {
        rows: 2,
        cols: 2,
        width: 4,
    })
}

/// The tentpole acceptance criterion: interrupt a durable flow at an
/// arbitrary point, resume from the checkpoint, and the final report is
/// bit-identical to an uninterrupted run — on mac4 and sys2x2, with 1
/// and 4 worker threads, and on sys4x4 with 2 and 4, always resuming on
/// another thread count.
///
/// sys4x4 has about 260 top-off targets, so its trips fire while
/// workers are mid-search on targets ahead of the commit point. A
/// result taken after the trip must never be classified, or the
/// checkpoint would carry it and the resumed run would differ. Two more
/// sys4x4 trips land inside the compaction pass, whose interrupted
/// simulation must leave the finished top-off to resume from.
#[test]
fn kill_and_resume_is_bit_identical_across_designs_and_threads() {
    let sys4x4 = benchmark_suite()
        .into_iter()
        .find(|c| c.name == "sys4x4")
        .expect("sys4x4 in suite")
        .netlist;
    // (design, (threads, resume threads) pairs, trip points). sys4x4's
    // polls span top-off from about 9.1k to 13.8k and the compaction
    // pass from there to about 27.7k, at any thread count.
    let cases = [
        (
            "mac4",
            mac_pe(4),
            &[(1usize, 4usize), (4, 1)][..],
            &[3u64, 57][..],
        ),
        ("sys2x2", sys2x2(), &[(1, 4), (4, 1)], &[3, 57]),
        (
            "sys4x4",
            sys4x4,
            &[(2, 4), (4, 2)],
            &[9_500, 11_000, 12_500, 13_500, 18_000, 25_000],
        ),
    ];
    let mut sys4x4_stages = Vec::new();
    for (name, nl, thread_pairs, trips) in &cases {
        for &(threads, resume_threads) in *thread_pairs {
            let reference = DftFlow::new(nl).threads(threads).run();
            for &kill_after in *trips {
                let context = format!("{name} t{threads} kill{kill_after}");
                let path = ckpt_path(&context.replace(' ', "-"));
                let token = CancelToken::new();
                token.trip_after_polls(kill_after);
                let mut dur = Durability::new(token).with_journal(journal(&path));
                let err = DftFlow::new(nl)
                    .threads(threads)
                    .run_durable(&mut dur)
                    .expect_err("trip point fires well before completion");
                let checkpoint = match err {
                    DftError::Interrupted {
                        checkpoint: Some(p),
                        partial,
                    } => {
                        assert_eq!(partial.design, nl.name(), "{context}");
                        assert!(partial.total_faults > 0, "{context}");
                        p
                    }
                    other => panic!("{context}: expected checkpointed interrupt, got {other}"),
                };
                // Resume on another thread count: the checkpoint
                // fingerprint deliberately excludes parallelism.
                let state = last_state(&checkpoint);
                if *name == "sys4x4" {
                    sys4x4_stages.push(stage(&state));
                }
                let mut dur = Durability::new(CancelToken::new())
                    .with_journal(journal(&checkpoint))
                    .resume_from(state);
                let resumed = DftFlow::new(nl)
                    .threads(resume_threads)
                    .run_durable(&mut dur)
                    .expect("resume completes");
                assert_eq!(resumed.patterns, reference.patterns, "{context}");
                assert_eq!(
                    resumed.fault_coverage, reference.fault_coverage,
                    "{context}"
                );
                assert_eq!(resumed.test_coverage, reference.test_coverage, "{context}");
                assert_identical_runs(&resumed.atpg_run, &reference.atpg_run, &context);
                std::fs::remove_file(&checkpoint).ok();
            }
        }
    }
    for stage in ["topoff", "compaction"] {
        assert!(
            sys4x4_stages.contains(&stage),
            "no sys4x4 trip landed in {stage}: re-pick the trip points"
        );
    }
}

/// Top-off workers search targets ahead of their turn and the results
/// are committed in target order, so the thread count must be
/// invisible. These designs give the workers' results a real chance of
/// being discarded because an earlier commit detected their target:
/// `atpg_random`'s netlist after the random phase, and mac8 and alu8
/// with no random phase at all (the first patterns detect many targets
/// already claimed), plus alu8 under dynamic compaction and sys2x2's
/// broadside transition faults. Every run field, every counter and
/// histogram, and a journal holding a record per committed target must
/// match the serial run.
#[test]
fn topoff_speculation_is_invisible_at_any_thread_count() {
    let deterministic = AtpgConfig::new().random_patterns(0);
    let cases = [
        ("random_logic", random_logic(32, 500, 2), AtpgConfig::new()),
        ("mac8", mac_pe(8), deterministic.clone()),
        ("alu8", alu(8), deterministic.clone()),
        (
            "alu8-dynamic",
            alu(8),
            deterministic.compaction(CompactionMode::Dynamic),
        ),
        (
            "sys2x2-transition",
            sys2x2(),
            AtpgConfig::new().fault_model(FaultModel::Transition),
        ),
    ];
    let mut discarded = 0;
    for (name, nl, cfg) in &cases {
        let mut reference = None;
        for threads in [1usize, 2, 3, 8] {
            let context = format!("{name} t{threads}");
            let cfg = cfg.clone().threads(threads);
            let metrics = MetricsHandle::enabled();
            let run = Atpg::new(nl).with_metrics(metrics.clone()).run(&cfg);
            let snap = metrics.snapshot().expect("enabled");
            discarded += snap
                .timers
                .iter()
                .find(|(n, _)| *n == "t_atpg_discarded")
                .map_or(0, |(_, t)| t.count);
            // A record at every commit boundary: the journal is the
            // commit sequence itself.
            let path = ckpt_path(&context.replace(' ', "-"));
            let mut dur = Durability::new(CancelToken::new())
                .with_journal(journal(&path))
                .checkpoint_every(1);
            let durable = Atpg::new(nl)
                .run_durable(&cfg, &mut dur)
                .expect("no interruption");
            assert_identical_runs(&durable, &run, &format!("{context} durable"));
            let records = std::fs::read(&path).expect("journal written");
            std::fs::remove_file(&path).ok();
            match &reference {
                None => reference = Some((run, snap, records)),
                Some((run_1, snap_1, records_1)) => {
                    assert_identical_runs(&run, run_1, &context);
                    assert!(
                        snap.deterministic_eq(snap_1),
                        "{context}: counters/histograms differ from serial"
                    );
                    assert!(
                        records == *records_1,
                        "{context}: journal differs from serial"
                    );
                }
            }
        }
    }
    assert!(
        discarded > 0,
        "no speculative result was discarded: the cases no longer test it"
    );
}

/// A broadside transition run tripped mid-top-off resumes, on another
/// thread count, to the uninterrupted result. A transition run polls the
/// token once per committed target, so trip `k` lands at the `k`-th.
#[test]
fn broadside_kill_and_resume_is_bit_identical_across_threads() {
    let nl = sys2x2();
    let cfg = AtpgConfig::new().fault_model(FaultModel::Transition);
    for (threads, resume_threads) in [(1usize, 4usize), (4, 1)] {
        let reference = Atpg::new(&nl).run(&cfg.clone().threads(threads));
        for kill_after in [2u64, 40, 90] {
            let context = format!("sys2x2 transition t{threads} kill{kill_after}");
            let path = ckpt_path(&context.replace(' ', "-"));
            let token = CancelToken::new();
            token.trip_after_polls(kill_after);
            let mut dur = Durability::new(token)
                .with_journal(journal(&path))
                .checkpoint_every(16);
            match Atpg::new(&nl).run_durable(&cfg.clone().threads(threads), &mut dur) {
                Err(AtpgError::Interrupted(int)) => {
                    assert_eq!(int.phase, "topoff", "{context}");
                    assert!(int.checkpoint.is_some(), "{context}");
                }
                other => panic!("{context}: expected an interrupt, got {other:?}"),
            }
            let state = last_state(&path);
            assert_eq!(stage(&state), "topoff", "{context}");
            let mut dur = Durability::new(CancelToken::new())
                .with_journal(journal(&path))
                .resume_from(state);
            let resumed = Atpg::new(&nl)
                .run_durable(&cfg.clone().threads(resume_threads), &mut dur)
                .expect("resume completes");
            assert_identical_runs(&resumed, &reference, &context);
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The chaos-suite acceptance criterion: >= 50 randomized kill points,
/// half of them with torn-checkpoint-write injection, must never panic,
/// never corrupt the journal, and always resume to the bit-identical
/// result.
#[test]
fn randomized_kill_points_never_corrupt_the_journal() {
    let nl = decoder(5);
    let cfg = AtpgConfig {
        random_patterns: 16,
        ..AtpgConfig::default()
    };
    let atpg = Atpg::new(&nl);
    let reference = atpg.run(&cfg);
    let mut interrupted = 0usize;
    for k in 0..50u64 {
        let context = format!("kill point {k}");
        let path = ckpt_path(&format!("rand-{k}"));
        // A deterministic spread of kill points across the whole run,
        // denser at the start where phase transitions cluster.
        let polls = 1 + (k * k * 7) % 900;
        let token = CancelToken::new();
        token.trip_after_polls(polls);
        let mut writes = journal(&path);
        if k % 2 == 1 {
            // Torn checkpoint writes on odd iterations: the journal must
            // still only ever expose complete records.
            let chaos = ChaosConfig::parse(&format!("shortwrite=0.4,seed={k}")).unwrap();
            writes = writes.with_disk_chaos(chaos);
        }
        let mut dur = Durability::new(token)
            .with_journal(writes)
            .checkpoint_every(8);
        match atpg.run_durable(&cfg, &mut dur) {
            Ok(run) => assert_identical_runs(&run, &reference, &context),
            Err(AtpgError::Interrupted(i)) => {
                interrupted += 1;
                if let Some(ckpt) = i.checkpoint {
                    let (state, _) = CkptState::load_last(&journal(&ckpt))
                        .unwrap_or_else(|e| panic!("{context}: corrupt journal: {e}"));
                    let mut dur = Durability::new(CancelToken::new())
                        .with_journal(journal(&ckpt))
                        .resume_from(state);
                    let resumed = atpg
                        .run_durable(&cfg, &mut dur)
                        .unwrap_or_else(|e| panic!("{context}: resume failed: {e}"));
                    assert_identical_runs(&resumed, &reference, &context);
                }
            }
            Err(other) => panic!("{context}: unexpected error {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
    assert!(
        interrupted >= 25,
        "kill schedule too lax: only {interrupted}/50 runs interrupted"
    );
}

/// Chaos-forced worker panics surface as `failed_sim_batches` in the
/// flow report with the WARNING line, instead of killing the run.
#[test]
fn chaos_worker_panics_surface_in_the_flow_report() {
    let nl = mac_pe(4);
    let chaos = ChaosConfig::parse("panic=0.08,seed=11").unwrap();
    let mut dur = Durability::new(CancelToken::new()).with_chaos(chaos);
    let report = DftFlow::new(&nl)
        .threads(4)
        .run_durable(&mut dur)
        .expect("panics are isolated, not fatal");
    assert!(
        report.failed_sim_batches > 0,
        "chaos panic=0.08 seed=11 injected no worker panics"
    );
    assert!(report.to_string().contains("WARNING"));
    // Lost batches cost coverage but never sign-off integrity.
    assert!(report.test_coverage > 0.5);
}

/// Torn-write chaos on every checkpoint is survivable: failed writes
/// are counted, and whenever an interrupt still manages to produce a
/// checkpoint, it resumes to the reference result.
#[test]
fn torn_checkpoint_writes_are_counted_and_survivable() {
    let nl = mac_pe(4);
    let cfg = AtpgConfig::default();
    let atpg = Atpg::new(&nl);
    let path = ckpt_path("torn-every");
    let chaos = ChaosConfig::parse("shortwrite=1.0,seed=3").unwrap();
    let token = CancelToken::new();
    token.trip_after_polls(40);
    let mut dur = Durability::new(token)
        .with_journal(journal(&path).with_disk_chaos(chaos))
        .checkpoint_every(4);
    match atpg.run_durable(&cfg, &mut dur) {
        Err(AtpgError::Interrupted(i)) => {
            // shortwrite=1.0 tears every write: no checkpoint can
            // exist, and the journal must hold no complete record.
            assert!(i.checkpoint.is_none(), "all writes torn");
            assert!(CkptState::load_last(&journal(&path)).is_err());
        }
        other => panic!("expected interrupt, got {other:?}"),
    }
    assert!(dur.checkpoint_write_failures() > 0);
    std::fs::remove_file(&path).ok();
}

/// A deadline interrupt at the flow level carries `deadline = true` and
/// a checkpoint that a plain (no-deadline) run resumes bit-identically.
#[test]
fn flow_phase_deadline_interrupts_and_resumes() {
    let nl = sys2x2();
    let reference = DftFlow::new(&nl).threads(1).run();
    let path = ckpt_path("flow-deadline");
    // The first checkpoint write skips the deadline clock past the
    // minute-long deadline, so it fires however fast the host runs.
    let chaos = ChaosConfig::parse("clock=1.0,clock_ms=600000").unwrap();
    let mut dur = Durability::new(CancelToken::new())
        .deadline_ms(60_000)
        .with_journal(journal(&path))
        .with_chaos(chaos);
    let err = DftFlow::new(&nl)
        .threads(1)
        .run_durable(&mut dur)
        .expect_err("skipped deadline fires");
    let checkpoint = match err {
        DftError::Interrupted {
            checkpoint: Some(p),
            partial,
        } => {
            assert!(partial.deadline, "cause must be the phase deadline");
            p
        }
        other => panic!("expected checkpointed interrupt, got {other}"),
    };
    let state = last_state(&checkpoint);
    let mut dur = Durability::new(CancelToken::new())
        .with_journal(journal(&checkpoint))
        .resume_from(state);
    let resumed = DftFlow::new(&nl)
        .threads(1)
        .run_durable(&mut dur)
        .expect("resume without deadline completes");
    assert_identical_runs(&resumed.atpg_run, &reference.atpg_run, "flow deadline");
    std::fs::remove_file(&checkpoint).ok();
}

/// Fault-simulation batches lost before an interrupt are in the
/// checkpoint, and an interrupted pass counts none: a chaos run stopped
/// by its phase deadline, or killed in the random phase, top-off, the
/// compaction pass or sign-off, and resumed under the same worker panics
/// reports the uninterrupted run's lost batches and PODEM effort.
#[test]
fn chaos_resume_keeps_the_lost_batch_count() {
    let nl = mac_pe(4);
    let panics = ChaosConfig::parse("panic=0.05,seed=11").unwrap();
    let reference = DftFlow::new(&nl)
        .threads(2)
        .run_durable(&mut Durability::new(CancelToken::new()).with_chaos(panics))
        .expect("panics are isolated");
    assert!(reference.failed_sim_batches > 0);
    let deadline = ChaosConfig::parse("panic=0.05,seed=11,clock=1.0,clock_ms=600000").unwrap();
    let mut cases = vec![(
        "deadline".to_owned(),
        Durability::new(CancelToken::new())
            .deadline_ms(60_000)
            .with_chaos(deadline),
    )];
    // The run polls about 3100 times: these trips land in the random
    // phase, top-off, the compaction pass and sign-off.
    for kill in [300u64, 900, 1700, 2600] {
        let token = CancelToken::new();
        token.trip_after_polls(kill);
        cases.push((
            format!("kill{kill}"),
            Durability::new(token).with_chaos(panics),
        ));
    }
    let mut stages = Vec::new();
    for (context, dur) in cases {
        let path = ckpt_path(&format!("chaos-{context}"));
        let mut dur = dur.with_journal(journal(&path));
        let checkpoint = match DftFlow::new(&nl).threads(2).run_durable(&mut dur) {
            Err(DftError::Interrupted {
                checkpoint: Some(p),
                ..
            }) => p,
            other => panic!("{context}: expected checkpointed interrupt, got {other:?}"),
        };
        let state = last_state(&checkpoint);
        stages.push(stage(&state));
        let mut dur = Durability::new(CancelToken::new())
            .with_journal(journal(&checkpoint))
            .with_chaos(panics)
            .resume_from(state);
        let resumed = DftFlow::new(&nl)
            .threads(2)
            .run_durable(&mut dur)
            .expect("resume completes");
        assert_identical_runs(&resumed.atpg_run, &reference.atpg_run, &context);
        std::fs::remove_file(&checkpoint).ok();
    }
    for stage in ["random", "topoff", "compaction", "signoff"] {
        assert!(
            stages.contains(&stage),
            "no chaos trip landed in {stage}: re-pick the trip points"
        );
    }
}

/// A journal of the rebuilding compaction that reverse-order
/// compaction replaced (`aidft-ckpt-v1`: a second top-off round and a
/// pre-compaction snapshot) is refused by its tag, with an error naming
/// the format this build reads, instead of resuming under the new pass.
#[test]
fn resume_refuses_a_v1_checkpoint() {
    let path = ckpt_path("v1");
    let v1 = frame_record(
        "aidft-ckpt-v1",
        3,
        "design mac4\nconfig deadbeef0badf00d\nphase topoff 1\nseed 24301\n\
         fill_seed 45\nordinal 17\nrandom_detected 301\nwidth 5\n\
         section main\ntally 1 2 3 4\nstatus u,d7,x,a\nnpat 1\npat 10110\nncube 1\n\
         cube 1X0XX\nsection pre_compaction\ntally 0 0 0 0\nstatus d0\nnpat 1\n\
         pat 00000\nncube 0\n",
    );
    assert!(v1.ends_with("end feb3453b6ac05399\n"), "{v1}");
    std::fs::write(&path, v1).unwrap();
    let err = CkptState::load_last(&journal(&path)).expect_err("a v1 record does not load");
    assert!(err.to_string().contains("aidft-ckpt-v3"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// A journal written before checkpoints recorded the run's effort
/// counters (`aidft-ckpt-v2`: no `failed_sim_batches`, no `podem`) is
/// refused by its tag, with an error naming the format this build reads,
/// instead of resuming to a report that under-counts both.
#[test]
fn resume_refuses_a_v2_checkpoint() {
    let path = ckpt_path("v2");
    let v2 = frame_record(
        "aidft-ckpt-v2",
        3,
        "design mac4\nconfig deadbeef0badf00d\nphase topoff\nseed 24301\n\
         fill_seed 45\nordinal 17\nrandom_detected 301\nwidth 5\n\
         section main\ntally 1 2 3 4\nstatus u,d7,x,a\nnpat 1\npat 10110\nncube 1\n\
         cube 1X0XX\n",
    );
    assert!(v2.ends_with("end 9cd694c3404c06c1\n"), "{v2}");
    std::fs::write(&path, v2).unwrap();
    let err = CkptState::load_last(&journal(&path)).expect_err("a v2 record does not load");
    assert!(err.to_string().contains("aidft-ckpt-v3"), "{err}");
    std::fs::remove_file(&path).ok();
}

/// Resume from a journal belonging to a different design is refused
/// with a typed checkpoint error, not undefined behaviour.
#[test]
fn resume_refuses_a_foreign_checkpoint() {
    let mac = mac_pe(4);
    let path = ckpt_path("foreign");
    let token = CancelToken::new();
    token.trip_after_polls(5);
    let mut dur = Durability::new(token).with_journal(journal(&path));
    let err = DftFlow::new(&mac)
        .threads(1)
        .run_durable(&mut dur)
        .expect_err("trip fires");
    let checkpoint = match err {
        DftError::Interrupted {
            checkpoint: Some(p),
            ..
        } => p,
        other => panic!("expected checkpointed interrupt, got {other}"),
    };
    let state = last_state(&checkpoint);
    let other = decoder(5);
    let mut dur = Durability::new(CancelToken::new()).resume_from(state);
    match DftFlow::new(&other).threads(1).run_durable(&mut dur) {
        Err(DftError::Checkpoint(e)) => {
            assert!(e.to_string().contains("mismatch"), "{e}");
        }
        other => panic!("expected checkpoint mismatch, got {other:?}"),
    }
    std::fs::remove_file(&checkpoint).ok();
}
