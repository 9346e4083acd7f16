//! Output checks: every measured result is verified independently of the
//! code path that produced it.

use dft_core::compress::ScanEdt;
use dft_core::fault::{universe_stuck_at, FaultList};
use dft_core::logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
use dft_core::netlist::Netlist;
use dft_core::serve::{
    die_defect, die_reference_signatures, DieSim, FleetState, ServeConfig, ServedStimulus,
};
use dft_core::FlowReport;

/// Faults of the full stuck-at universe that `patterns` detect, by a
/// fresh fault simulation from scratch.
pub fn detected_by(nl: &Netlist, patterns: &PatternSet, threads: usize) -> usize {
    let mut list = FaultList::new(universe_stuck_at(nl));
    TapeKernel::compile(nl).fault_batch(patterns, &mut list, &Executor::with_threads(threads));
    list.num_detected()
}

/// Checks a sign-off: the final pattern set re-simulated from scratch
/// detects exactly the faults the report claims, and every cube the EDT
/// encoder accepts expands to stimulus that satisfies the cube.
pub fn check_flow(
    nl: &Netlist,
    report: &FlowReport,
    edt: Option<&ScanEdt<'_>>,
    threads: usize,
) -> Result<(), String> {
    let run = &report.atpg_run;
    let claimed = run.fault_list.num_detected();
    let resim = detected_by(nl, &run.patterns, threads);
    if resim != claimed {
        return Err(format!(
            "{}: {} patterns detect {resim} faults on re-simulation, report claims {claimed}",
            report.design,
            run.patterns.len()
        ));
    }
    if let (Some(stats), Some(edt)) = (&report.compression, edt) {
        let codec = edt.codec();
        let mut encoded = 0;
        for (i, cube) in run.cubes.iter().enumerate() {
            let cells = edt.to_cell_cube(cube);
            if let Some(channel_bits) = codec.encode(&cells) {
                if !codec.satisfies(&cells, &codec.expand(&channel_bits)) {
                    return Err(format!(
                        "{}: EDT expansion of cube {i} violates it",
                        report.design
                    ));
                }
                encoded += 1;
            }
        }
        if encoded != stats.encoded {
            return Err(format!(
                "{}: {encoded} cubes encode, report claims {}",
                report.design, stats.encoded
            ));
        }
    }
    Ok(())
}

/// What every die of a fleet must report: its signatures computed
/// directly (no server, no sockets) and whether it carries a defect.
#[derive(Debug, Clone)]
pub struct FleetReference {
    golden: Vec<Vec<bool>>,
    dies: Vec<(bool, Vec<Vec<bool>>)>,
}

impl FleetReference {
    /// Computes the reference for every die of `cfg`.
    pub fn build(stim: &ServedStimulus<'_>, sim: &DieSim<'_>, cfg: &ServeConfig) -> FleetReference {
        let dies = (0..cfg.dies as u32)
            .map(|d| {
                let defective = die_defect(d, cfg.seed, cfg.defect_rate, &stim.universe).is_some();
                (defective, die_reference_signatures(stim, sim, cfg, d))
            })
            .collect();
        FleetReference {
            golden: stim.golden_sigs.clone(),
            dies,
        }
    }
}

/// Dies of `state` that fail the reference (missing, quarantined, wrong
/// signature, wrong verdict, wrong defect flag), with a note on the
/// first one.
pub fn check_fleet(state: &FleetState, reference: &FleetReference) -> (u64, Option<String>) {
    let mut bad = 0;
    let mut first = None;
    for (id, (defective, sigs)) in reference.dies.iter().enumerate() {
        let why = match state.done.get(&(id as u32)) {
            None => Some("untested"),
            Some(d) if d.quarantined => Some("quarantined"),
            Some(d) if d.signatures != *sigs => Some("signatures differ from the reference"),
            Some(d) if d.passed != (*sigs == reference.golden) => {
                Some("verdict contradicts its signatures")
            }
            Some(d) if d.defective != *defective => Some("defect flag differs from the seeding"),
            Some(_) => None,
        };
        if let Some(why) = why {
            bad += 1;
            first.get_or_insert_with(|| format!("{}: die {id} {why}", state.design));
        }
    }
    let extra = state.done.len().saturating_sub(reference.dies.len()) as u64;
    (bad + extra, first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_core::metrics::MetricsHandle;
    use dft_core::netlist::generators::mac_pe;
    use dft_core::serve::{run_fleet, ServeOpts};
    use dft_core::trace::TraceHandle;
    use dft_core::DftFlow;

    #[test]
    fn dropped_pattern_fails_the_flow_check() {
        let nl = mac_pe(4);
        let mut report = DftFlow::new(&nl).threads(1).run();
        assert_eq!(check_flow(&nl, &report, None, 1), Ok(()));
        // The last pattern is a top-off pattern for a fault nothing
        // earlier detected, so dropping it must lose that fault.
        let full = report.atpg_run.patterns.clone();
        let mut dropped = PatternSet::new(full.width());
        for p in full.iter().take(full.len() - 1) {
            dropped.push(p.clone());
        }
        report.atpg_run.patterns = dropped;
        let err = check_flow(&nl, &report, None, 1).unwrap_err();
        assert!(err.contains("re-simulation"), "{err}");
    }

    #[test]
    fn tampered_signature_fails_the_fleet_check() {
        let nl = mac_pe(4);
        let cfg = ServeConfig {
            dies: 6,
            defect_rate: 0.5,
            client_threads: 1,
            ..ServeConfig::default()
        };
        let stim = ServedStimulus::build(
            &nl,
            &cfg,
            &MetricsHandle::disabled(),
            &TraceHandle::disabled(),
        );
        let sim = DieSim::new(&nl, &stim);
        let reference = FleetReference::build(&stim, &sim, &cfg);
        let report = run_fleet(&nl, &cfg, &ServeOpts::default()).expect("fleet runs");
        assert_eq!(check_fleet(&report.state, &reference), (0, None));

        let mut tampered = report.state.clone();
        let die = tampered.done.get_mut(&3).expect("die 3 tested");
        die.signatures[0][0] = !die.signatures[0][0];
        let (bad, note) = check_fleet(&tampered, &reference);
        assert_eq!(bad, 1);
        assert!(note.unwrap().contains("die 3 signatures differ"));

        let mut missing = report.state.clone();
        missing.done.remove(&0);
        missing.done.get_mut(&1).expect("die 1 tested").quarantined = true;
        assert_eq!(check_fleet(&missing, &reference).0, 2);
    }
}
