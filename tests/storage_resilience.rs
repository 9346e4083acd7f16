//! Storage-resilience acceptance: disk-fault chaos on journal appends,
//! N-way replica fallback, and `aidft fsck` — the invariant throughout
//! is that kill-and-resume stays bit-identical to the uninterrupted
//! reference whenever at least one intact replica record survives, for
//! both the ATPG flow (`aidft-ckpt-v3`) and the serve fleet
//! (`aidft-serve-v3`), across thread counts.

use std::path::{Path, PathBuf};
use std::process::Command;

use dft_core::checkpoint::{
    fsck, replica_path, scrub, CancelToken, ChaosConfig, CkptState, FramedJournal, CKPT_FORMAT,
};
use dft_core::netlist::generators::mac_pe;
use dft_core::serve::{run_fleet, ServeConfig, ServeError, ServeOpts, SERVE_FORMAT};
use dft_core::{atpg::Durability, DftError, DftFlow};

fn ckpt_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-storage-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}.ckpt"));
    cleanup(&path);
    path
}

/// Appends record `seq`, then cuts the file back to the first half of
/// it: the torn tail a kill mid-write leaves behind.
fn append_then_tear(j: &FramedJournal, seq: u64, body: &str) {
    let before = std::fs::metadata(j.path()).map_or(0, |m| m.len());
    let len = j.append(seq, body).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(j.path())
        .and_then(|f| f.set_len(before + len / 2))
        .unwrap();
}

/// Removes the journal, its replicas, and the scrub sidecars.
fn cleanup(path: &Path) {
    for r in 0..4 {
        let p = replica_path(path, r);
        std::fs::remove_file(scrub::scrub_path(&p)).ok();
        std::fs::remove_file(&p).ok();
    }
}

/// Kill-and-resume of the mac4 durable flow with bitrot chaos on every
/// journal append and two replicas: the final report is bit-identical
/// to the chaos-free reference, resuming across thread counts.
#[test]
fn atpg_resume_with_bitrot_chaos_and_replicas_is_bit_identical() {
    let nl = mac_pe(4);
    let chaos = ChaosConfig::parse("bitrot=0.4,seed=5").unwrap();
    for threads in [1usize, 4] {
        let reference = DftFlow::new(&nl).threads(threads).run();
        let context = format!("mac4 t{threads} bitrot");
        let path = ckpt_path(&context.replace(' ', "-"));
        let journal = FramedJournal::new(&path, CKPT_FORMAT)
            .with_replicas(2)
            .with_disk_chaos(chaos);
        let token = CancelToken::new();
        token.trip_after_polls(40);
        let mut dur = Durability::new(token)
            .with_journal(journal)
            .checkpoint_every(8);
        let err = DftFlow::new(&nl)
            .threads(threads)
            .run_durable(&mut dur)
            .expect_err("trip point fires well before completion");
        let checkpoint = match err {
            DftError::Interrupted {
                checkpoint: Some(p),
                ..
            } => p,
            other => panic!("{context}: expected checkpointed interrupt, got {other}"),
        };
        // Resume on the other thread count, scanning both replicas.
        let resume_threads = if threads == 1 { 4 } else { 1 };
        let journal = FramedJournal::new(&checkpoint, CKPT_FORMAT).with_replicas(2);
        let (state, recovery) = CkptState::load_last(&journal).expect("an intact replica record");
        assert_eq!(recovery.replicas_scanned, 2, "{context}");
        let mut dur = Durability::new(CancelToken::new())
            .with_journal(journal.with_disk_chaos(chaos))
            .resume_from(state);
        let resumed = DftFlow::new(&nl)
            .threads(resume_threads)
            .run_durable(&mut dur)
            .expect("resume completes");
        assert_eq!(resumed.patterns, reference.patterns, "{context}");
        assert_eq!(
            resumed.atpg_run.patterns, reference.atpg_run.patterns,
            "{context}"
        );
        assert_eq!(
            resumed.fault_coverage, reference.fault_coverage,
            "{context}"
        );
        cleanup(&path);
    }
}

/// Kill-and-resume of a 16-die serve fleet with two checkpoint
/// replicas, one of which is then corrupted wholesale: resume falls
/// back to the intact sibling and finishes bit-identical to the
/// uninterrupted no-chaos reference.
#[test]
fn serve_fleet_resumes_from_the_surviving_replica() {
    let nl = mac_pe(4);
    let cfg = ServeConfig {
        dies: 16,
        client_threads: 2,
        checkpoint_every: 1,
        ..ServeConfig::default()
    };
    let baseline = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();

    let path = ckpt_path("serve-replica");
    let token = CancelToken::new();
    token.trip_after_polls(14);
    let opts = ServeOpts {
        cancel: token,
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT).with_replicas(2)),
        ..ServeOpts::default()
    };
    match run_fleet(&nl, &cfg, &opts) {
        Err(ServeError::Interrupted { done, dies, .. }) => {
            assert_eq!(dies, 16);
            assert!(done < 16, "interrupt must land mid-fleet (done {done})");
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
    // Trash the primary replica completely; only `<path>.r1` survives.
    std::fs::write(&path, "xxxx not a journal xxxx\n").unwrap();

    let opts = ServeOpts {
        journal: Some(FramedJournal::new(&path, SERVE_FORMAT).with_replicas(2)),
        resume: true,
        ..ServeOpts::default()
    };
    let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
    assert!(resumed.resumed_dies > 0, "checkpoint must restore dies");
    assert_eq!(resumed.state, baseline.state, "resume vs uninterrupted");
    assert_eq!(resumed.summary, baseline.summary);
    cleanup(&path);
}

/// The same fleet with deterministic bitrot chaos corrupting a share of
/// replica appends end-to-end: with two replicas the fleet still
/// resumes to the bit-identical baseline, across client thread counts.
#[test]
fn serve_fleet_survives_bitrot_chaos_with_two_replicas() {
    let nl = mac_pe(4);
    let chaos = ChaosConfig::parse("bitrot=0.4,seed=9").unwrap();
    for client_threads in [1usize, 4] {
        let cfg = ServeConfig {
            dies: 16,
            client_threads,
            checkpoint_every: 1,
            ..ServeConfig::default()
        };
        let context = format!("serve t{client_threads} bitrot");
        let baseline = run_fleet(&nl, &cfg, &ServeOpts::default()).unwrap();

        let path = ckpt_path(&context.replace(' ', "-"));
        let token = CancelToken::new();
        token.trip_after_polls(14);
        let opts = ServeOpts {
            cancel: token,
            journal: Some(
                FramedJournal::new(&path, SERVE_FORMAT)
                    .with_replicas(2)
                    .with_disk_chaos(chaos),
            ),
            ..ServeOpts::default()
        };
        match run_fleet(&nl, &cfg, &opts) {
            Err(ServeError::Interrupted { done, dies, .. }) => {
                assert_eq!(dies, 16, "{context}");
                assert!(done < 16, "{context}: interrupt must land mid-fleet");
            }
            other => panic!("{context}: expected Interrupted, got {other:?}"),
        }
        let opts = ServeOpts {
            journal: Some(
                FramedJournal::new(&path, SERVE_FORMAT)
                    .with_replicas(2)
                    .with_disk_chaos(chaos),
            ),
            resume: true,
            ..ServeOpts::default()
        };
        let resumed = run_fleet(&nl, &cfg, &opts).unwrap();
        assert!(resumed.resumed_dies > 0, "{context}");
        assert_eq!(resumed.state, baseline.state, "{context}");
        assert_eq!(resumed.summary, baseline.summary, "{context}");
        cleanup(&path);
    }
}

/// `fsck` over a journal with mixed damage: the scan classifies every
/// region, `repair` rewrites a clean copy that loads, and the repaired
/// journal passes a second scan.
#[test]
fn fsck_scan_and_repair_roundtrip() {
    let path = ckpt_path("fsck-lib");
    let j = FramedJournal::new(&path, SERVE_FORMAT);
    j.append(0, "alpha\n").unwrap();
    j.append(1, "beta\n").unwrap();
    append_then_tear(&j, 2, "gamma\n");

    let report = fsck::scan(&path).unwrap();
    assert_eq!(report.format.as_deref(), Some(SERVE_FORMAT));
    assert_eq!(report.intact(), 2);
    assert_eq!(report.damaged(), 1);
    assert!(report.render().contains("verdict=degraded"));

    let repaired = fsck::repair(&path).unwrap();
    assert!(repaired.repaired);
    assert!(repaired.is_clean());
    assert_eq!(repaired.intact(), 2);
    assert_eq!(j.load_last().unwrap(), (1, "beta\n".to_owned()));
    cleanup(&path);
}

fn aidft_fsck(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_aidft"))
        .arg("fsck")
        .args(args)
        .output()
        .expect("spawn aidft fsck")
}

/// The CLI contract: `fsck` on a damaged-but-salvageable journal
/// reports degraded (exit 0), `--repair` rewrites it so a rescan is
/// clean, and a journal with zero intact records exits 5.
#[test]
fn fsck_cli_exit_codes() {
    let path = ckpt_path("fsck-cli");
    let j = FramedJournal::new(&path, SERVE_FORMAT);
    j.append(0, "alpha\n").unwrap();
    append_then_tear(&j, 1, "beta\n");
    let p = path.to_str().unwrap();

    let out = aidft_fsck(&[p]);
    assert_eq!(out.status.code(), Some(0), "degraded scan still exits 0");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verdict=degraded"), "{text}");

    let out = aidft_fsck(&[p, "--repair"]);
    assert_eq!(out.status.code(), Some(0), "successful repair exits 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict=repaired"));
    // The repaired journal loads cleanly and rescans clean.
    assert_eq!(j.load_last().unwrap(), (0, "alpha\n".to_owned()));
    let out = aidft_fsck(&[p]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("verdict=clean"));

    // Zero intact records: corrupt beyond repair, exit 5, with or
    // without --repair.
    std::fs::write(&path, "ckpt aidft-serve-v2 0\nno trailer here").unwrap();
    std::fs::remove_file(scrub::scrub_path(&path)).ok();
    let out = aidft_fsck(&[p]);
    assert_eq!(out.status.code(), Some(5), "hopeless journal exits 5");
    assert!(String::from_utf8_lossy(&out.stdout).contains("corrupt-beyond-repair"));
    let out = aidft_fsck(&[p, "--repair"]);
    assert_eq!(out.status.code(), Some(5), "hopeless repair exits 5");
    cleanup(&path);
}
