//! `experiments` — regenerates every table/figure of the reproduction
//! (E1-E12 and `repair`, see DESIGN.md). Run a single experiment by id
//! or `all`:
//!
//! ```sh
//! cargo run --release -p dft-bench --bin experiments -- e1
//! cargo run --release -p dft-bench --bin experiments -- all --threads 8
//! ```
//!
//! `--threads N` parallelizes the simulation- and ATPG-heavy experiments
//! (E1, E5, E11); `0` = one worker per hardware thread. All numbers are bit-identical
//! for any thread count.

use std::env;

mod experiments;

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let mut threads = 1usize;
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        match args.get(pos + 1).and_then(|v| v.parse().ok()) {
            Some(n) => threads = n,
            None => {
                eprintln!("--threads requires a number");
                std::process::exit(2);
            }
        }
        args.drain(pos..pos + 2);
    }
    experiments::set_threads(threads);
    let which = args.first().map(String::as_str).unwrap_or("all");
    let all = [
        ("e1", experiments::e1_random_coverage as fn()),
        ("e2", experiments::e2_collapse_table),
        ("e3", experiments::e3_atpg_signoff),
        ("e4", experiments::e4_compression),
        ("e5", experiments::e5_lbist),
        ("e6", experiments::e6_march_matrix),
        ("e7", experiments::e7_core_reuse),
        ("e8", experiments::e8_diagnosis),
        ("e9", experiments::e9_criticality),
        ("e10", experiments::e10_scan_tradeoff),
        ("e11", experiments::e11_transition),
        ("e12", experiments::e12_ssn),
        ("repair", experiments::repair_report),
    ];
    match which {
        "all" => {
            for (name, f) in all {
                println!(
                    "\n================ {} ================",
                    name.to_uppercase()
                );
                f();
            }
        }
        id => match all.iter().find(|(n, _)| *n == id) {
            Some((_, f)) => f(),
            None => {
                eprintln!("unknown experiment `{id}`; use e1..e12, repair, or all");
                std::process::exit(2);
            }
        },
    }
}
