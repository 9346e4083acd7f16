//! Reverse-order pattern compaction (Bushnell & Agrawal, *Essentials of
//! Electronic Testing*, 2000): fault-simulate the final pattern set last
//! pattern first, with fault dropping, and keep only the patterns that
//! are some fault's first detector in that order. Every fault the set
//! detects keeps a detector, so the kept set detects exactly the faults
//! the whole set does; the top-off patterns, generated last for the
//! hardest faults, get the first chance to claim the easy ones too.

use dft_fault::{Fault, FaultList, FaultStatus};
use dft_logicsim::{Executor, PatternSet, SimStats, TapeKernel};

use crate::FaultModel;

/// One reverse-order pass of `sim` over `patterns` against `faults` of
/// `model`: returns which patterns to keep (`keep[i]` for pattern `i`)
/// and the pass's statistics. An interrupted pass
/// ([`SimStats::interrupted`]) detects nothing, so it keeps nothing; a
/// pass that lost a batch ([`SimStats::failed_batches`]) does not know
/// every fault's detector, so its mask must not be applied.
pub fn reverse_order_compaction(
    sim: &TapeKernel<'_>,
    model: FaultModel,
    patterns: &PatternSet,
    faults: Vec<Fault>,
    exec: &Executor,
) -> (Vec<bool>, SimStats) {
    let mut reversed = PatternSet::new(patterns.width());
    for i in (0..patterns.len()).rev() {
        reversed.push(patterns.pattern(i).clone());
    }
    let mut list = FaultList::new(faults);
    let stats = model.simulate(sim, &reversed, &mut list, exec);
    let mut keep = vec![false; patterns.len()];
    for i in 0..list.len() {
        if let FaultStatus::Detected(p) = list.status(i) {
            keep[patterns.len() - 1 - p as usize] = true;
        }
    }
    (keep, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe_stuck_at;
    use dft_logicsim::SimKernel;
    use dft_netlist::generators::c17;

    #[test]
    fn reverse_compaction_never_loses_coverage() {
        let nl = c17();
        let sim = TapeKernel::compile(&nl);
        let exec = Executor::serial();
        let ps = PatternSet::random(&nl, 64, 13);
        let faults = universe_stuck_at(&nl);
        let (keep, stats) =
            reverse_order_compaction(&sim, FaultModel::StuckAt, &ps, faults.clone(), &exec);
        // A pattern is kept exactly when it is some fault's last
        // detector in forward order, by a simulation without dropping.
        let mut last_detectors = vec![false; ps.len()];
        for row in sim.detection_matrix(&ps, &faults) {
            if let Some(&p) = row.last() {
                last_detectors[p as usize] = true;
            }
        }
        assert_eq!(keep, last_detectors);
        let mut compacted = PatternSet::new(ps.width());
        for (p, _) in ps.iter().zip(&keep).filter(|(_, &k)| k) {
            compacted.push(p.clone());
        }
        assert!(compacted.len() < ps.len());
        let mut before = FaultList::new(faults.clone());
        sim.fault_batch(&ps, &mut before, &exec);
        let mut after = FaultList::new(faults);
        sim.fault_batch(&compacted, &mut after, &exec);
        assert_eq!(stats.detected, before.num_detected());
        for i in 0..after.len() {
            assert_eq!(
                after.status(i).is_detected(),
                before.status(i).is_detected(),
                "fault {i}"
            );
        }
    }
}
