//! `e2ebench`: the end-to-end sign-off and test-floor benchmark for
//! `aidft`, split by layer.
//!
//! One run drives one workload through the public library API for a
//! fixed wall-clock budget, checks every output, and prints one JSON
//! result line. See `README.md` in this directory for the workloads, the
//! metrics and how each layer metric maps onto an end-to-end one.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod checks;
mod fleets;
mod flows;
mod report;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

const USAGE: &str =
    "usage: e2ebench --workload <atpg_random|signoff_systolic|fleet_journaled|fleet_defective> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Environment knobs that change what the library does. The benchmark
/// pins every knob itself and refuses to run under any of them.
const REFUSED_ENV: [&str; 3] = ["AIDFT_CHAOS", "AIDFT_KERNEL", "AIDFT_THREADS"];

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AtpgRandom,
    SignoffSystolic,
    FleetJournaled,
    FleetDefective,
}

impl Workload {
    const ALL: [(Workload, &'static str); 4] = [
        (Workload::AtpgRandom, "atpg_random"),
        (Workload::SignoffSystolic, "signoff_systolic"),
        (Workload::FleetJournaled, "fleet_journaled"),
        (Workload::FleetDefective, "fleet_defective"),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map(|(_, n)| *n)
            .expect("every workload is listed")
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
            match flag.as_str() {
                "--workload" => {
                    let w = Workload::ALL
                        .iter()
                        .find(|(_, n)| *n == value)
                        .map(|(w, _)| *w);
                    workload = Some(w.ok_or_else(|| bad("a workload"))?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad("a positive duration"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            budget: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The `k` input seeds a run cycles through, derived from the run seed
/// (splitmix64), so one seed always gives the same inputs.
pub fn input_seeds(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64)
        .map(|i| {
            let mut z = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i.wrapping_add(1).wrapping_mul(0xD1B5_4A32_D192_ED03));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Peak resident memory of this process, which ran only one workload.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Where the benchmark's files go: under the Cargo target directory,
/// which is ignored by git.
fn output_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("e2ebench")
}

/// A fresh working directory for this run's journals.
pub fn work_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = output_root().join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes the traced run's spans as JSONL and names the file on stderr.
pub fn write_spans(args: &Args, tr: &spans::Tracer) -> Result<(), String> {
    let root = output_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let path = root.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tr.to_jsonl()).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("e2ebench: spans written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("e2ebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("e2ebench: refusing to run with {var} set; the benchmark pins every knob itself");
        return ExitCode::from(2);
    }
    let outcome = match args.workload {
        Workload::AtpgRandom | Workload::SignoffSystolic => flows::run(&args),
        Workload::FleetJournaled | Workload::FleetDefective => fleets::run(&args),
    };
    let outcome: Outcome = match outcome {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let line = match outcome.json_line(args.trace) {
        Ok(line) => line,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", outcome.summary(args.trace));
    for p in &outcome.problems {
        eprintln!("e2ebench: check failed: {p}");
    }
    eprintln!(
        "e2ebench: {} {} operations, {} failed",
        args.workload.name(),
        outcome.attempted,
        outcome.failed
    );
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet_defective --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FleetDefective);
        assert_eq!(
            (a.seed, a.budget, a.trace),
            (7, Duration::from_secs(20), true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload atpg_random --seed 1 --seconds 1").is_err());
        assert!(args("--workload atpg_random --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload atpg_random --seed 1 --seconds 1 --trace 0 --x 3").is_err());
    }

    #[test]
    fn input_seeds_are_a_function_of_the_seed() {
        assert_eq!(input_seeds(5, 4), input_seeds(5, 4));
        assert_ne!(input_seeds(5, 4), input_seeds(6, 4));
        let s = input_seeds(5, 4);
        assert_eq!(s[..2], input_seeds(5, 2)[..]);
        assert!(s.iter().all(|x| s.iter().filter(|y| *y == x).count() == 1));
    }

    #[test]
    fn workload_names_round_trip() {
        for (w, n) in Workload::ALL {
            assert_eq!(w.name(), n);
        }
    }
}
