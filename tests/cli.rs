//! The `aidft` command line through the built binary: a stray argument
//! (a durability flag the command does not honour included) or a zero
//! `serve` count is a usage error (exit 2) that names the argument, a
//! design that cannot be read or parsed exits 1 naming its path once,
//! `diagnose` runs on its documented usage, chaos-injected worker panics
//! are counted without a panic report, an interrupt names the command it
//! stopped, and the repair demo runs its core ATPG once.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dft_core::diagnosis::{build_failure_log, FailureLog};
use dft_core::fault::universe_stuck_at;
use dft_core::logicsim::PatternSet;
use dft_core::netlist::generators::mac_pe;
use dft_core::netlist::{parse_bench, write_bench, Netlist};

fn aidft(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aidft"))
        .args(args)
        .output()
        .expect("spawn aidft")
}

/// A fresh scratch directory for one test.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aidft-cli-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `log` into `dir` and returns its path.
fn write_log(dir: &Path, name: &str, log: &FailureLog) -> String {
    let path = dir.join(name);
    std::fs::write(&path, log.to_json()).unwrap();
    path.to_str().unwrap().to_owned()
}

/// Writes mac4 as `dir/mac4.bench` and returns its path with the
/// netlist parsed back out of that text, as the CLI sees it.
fn mac4_design(dir: &Path) -> (String, Netlist) {
    let path = dir.join("mac4.bench");
    let text = write_bench(&mac_pe(4));
    std::fs::write(&path, &text).unwrap();
    let nl = parse_bench("mac4", &text).unwrap();
    (path.to_str().unwrap().to_owned(), nl)
}

#[test]
fn stray_arguments_are_usage_errors_that_name_the_argument() {
    let dir = scratch_dir("stray");
    let (d, _) = mac4_design(&dir);
    let log = write_log(&dir, "clean.json", &FailureLog::default());
    let ckpt = dir.join("s.ckpt").to_str().unwrap().to_owned();
    let cases: &[(&[&str], &str)] = &[
        (&["atpg", &d, "--bogus-flag", "7"], "--bogus-flag"),
        (&["flow", &d, "eight"], "eight"),
        (&["flow", &d, "4", "5"], "5"),
        (&["flow", &d, "--trace-jsonl", "x.jsonl"], "--trace-jsonl"),
        (&["bist", &d, "lots"], "lots"),
        (&["bist", &d, "64", "--bogus"], "--bogus"),
        (&["stats", &d, "extra"], "extra"),
        (&["diagnose", &d, &log, "extra"], "extra"),
        (&["repair", "--max-bad-cores", "2", "--bogus"], "--bogus"),
        (&["serve", &d, "--bogus"], "--bogus"),
        (&["serve", &d, "--dies", "0"], "--dies"),
        (&["serve", &d, "--window", "0"], "--window"),
        (&["serve", &d, "--client-threads", "0"], "--client-threads"),
        (
            &["serve", &d, "--checkpoint-every", "0"],
            "--checkpoint-every",
        ),
        // Durability flags only where a command honours them.
        (
            &["stats", &d, "--checkpoint", &ckpt, "--phase-timeout", "5"],
            "--checkpoint",
        ),
        (&["bist", &d, "--resume", "nonexistent.ckpt"], "--resume"),
        (
            &[
                "serve",
                &d,
                "--dies",
                "64",
                "--client-threads",
                "2",
                "--phase-timeout",
                "1",
            ],
            "--phase-timeout",
        ),
    ];
    for (args, stray) in cases {
        let out = aidft(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(&format!("`{stray}`")), "{args:?}: {err}");
    }
    assert!(
        !Path::new(&ckpt).exists(),
        "a refused command wrote a journal"
    );
    for args in [&["flow", &d, "4"][..], &["stats", &d]] {
        let out = aidft(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreadable_or_malformed_design_exits_1_naming_its_path_once() {
    let dir = scratch_dir("design");
    let missing = dir.join("absent.bench").to_str().unwrap().to_owned();
    let bad = dir.join("bad.bench");
    std::fs::write(&bad, "INPUT(a)\nOUTPUT(z)\nz = FOO(a)\n").unwrap();
    let bad = bad.to_str().unwrap().to_owned();
    for (path, op) in [(&missing, "read"), (&bad, "parse")] {
        for cmd in ["stats", "atpg", "flow", "serve"] {
            let out = aidft(&[cmd, path]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {path}: {err}");
            assert!(
                err.starts_with(&format!("aidft: {op} {path}: ")),
                "{cmd}: {err}"
            );
            assert_eq!(err.matches(path.as_str()).count(), 1, "{cmd}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diagnose_ranks_candidates_for_a_failing_die_and_passes_a_clean_one() {
    let dir = scratch_dir("diagnose");
    let (d, nl) = mac4_design(&dir);
    let clean = write_log(&dir, "clean.json", &FailureLog::default());
    let out = aidft(&["diagnose", &d, &clean]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(text.contains("clean log or no candidates"), "{text}");

    // A stuck-at defect logged under the CLI's pattern convention.
    let patterns = PatternSet::random(&nl, 256, 0xD1A6);
    let log = universe_stuck_at(&nl)
        .into_iter()
        .map(|f| build_failure_log(&nl, &patterns, f))
        .find(|log| !log.is_clean())
        .expect("some stuck-at fault fails a pattern");
    let failing = write_log(&dir, "failing.json", &log);
    let out = aidft(&["diagnose", &d, &failing]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(text.lines().any(|l| l.starts_with("#1 ")), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_worker_panics_are_counted_without_a_panic_report() {
    let dir = scratch_dir("chaos-panic");
    let (d, _) = mac4_design(&dir);
    for threads in ["1", "4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_aidft"))
            .args(["flow", &d, "--threads", threads])
            .env("AIDFT_CHAOS", "panic=0.05,seed=11")
            .output()
            .expect("spawn aidft");
        let text = String::from_utf8_lossy(&out.stdout);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "--threads {threads}: {err}");
        assert!(
            text.contains(
                "WARNING: 435 fault-simulation batches lost to worker panics; \
                 coverage is a lower bound"
            ),
            "--threads {threads}: {text}"
        );
        assert!(!err.contains("panicked at"), "--threads {threads}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A minute-long phase deadline that a ten-minute chaos clock skip at
/// the first checkpoint write overruns: exit 3, and the message names
/// `atpg`, not the flow.
#[test]
fn an_interrupt_names_the_command_it_stopped() {
    let dir = scratch_dir("interrupt");
    let (d, _) = mac4_design(&dir);
    let ckpt = dir.join("d.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_aidft"))
        .args(["atpg", &d, "--phase-timeout", "60000", "--checkpoint", ckpt])
        .env("AIDFT_CHAOS", "clock=1.0,clock_ms=600000")
        .output()
        .expect("spawn aidft");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(
        err.starts_with("aidft: atpg mac4 interrupted in topoff phase (phase deadline): "),
        "{err}"
    );
    assert!(
        err.contains(&format!(
            "; resume with --resume {ckpt}\naidft: checkpoint written to {ckpt}\n"
        )),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repair_screens_cores_with_the_plans_single_atpg_run() {
    let dir = scratch_dir("repair-trace");
    let trace = dir.join("repair.json");
    let out = aidft(&["repair", "--trace", trace.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    assert_eq!(json.matches(r#""name":"atpg_random""#).count(), 1, "{json}");
    std::fs::remove_dir_all(&dir).ok();
}
