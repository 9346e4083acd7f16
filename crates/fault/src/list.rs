//! Fault-list bookkeeping shared by fault simulation, ATPG and BIST.

use crate::Fault;

/// Lifecycle status of a fault during test generation / simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultStatus {
    /// Not yet detected by any pattern.
    #[default]
    Undetected,
    /// Detected; the payload is the index of the first detecting pattern.
    Detected(u32),
    /// Proven untestable (redundant) by exhaustive ATPG search.
    Untestable,
    /// ATPG gave up within its backtrack limit; testability unknown.
    Aborted,
}

impl FaultStatus {
    /// `true` for `Detected`.
    #[inline]
    pub fn is_detected(self) -> bool {
        matches!(self, FaultStatus::Detected(_))
    }
}

/// A fault list with per-fault status and coverage accounting.
///
/// Coverage definitions follow industry convention:
/// * **fault coverage** = detected / total
/// * **test coverage** = detected / (total - untestable)
#[derive(Debug, Clone)]
pub struct FaultList {
    faults: Vec<Fault>,
    status: Vec<FaultStatus>,
}

impl FaultList {
    /// Builds a list with every fault `Undetected`.
    pub fn new(faults: Vec<Fault>) -> FaultList {
        let status = vec![FaultStatus::Undetected; faults.len()];
        FaultList { faults, status }
    }

    /// Number of faults.
    #[inline]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` if the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults, in list order.
    #[inline]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Status of the fault at `idx`.
    #[inline]
    pub fn status(&self, idx: usize) -> FaultStatus {
        self.status[idx]
    }

    /// Sets the status of the fault at `idx`. Detected faults are never
    /// downgraded (first detection wins).
    pub fn set_status(&mut self, idx: usize, status: FaultStatus) {
        if self.status[idx].is_detected() {
            return;
        }
        self.status[idx] = status;
    }

    /// Marks the fault at `idx` detected by `pattern` unless already
    /// detected.
    pub fn mark_detected(&mut self, idx: usize, pattern: u32) {
        if !self.status[idx].is_detected() {
            self.status[idx] = FaultStatus::Detected(pattern);
        }
    }

    /// Iterates over indices of still-undetected (and non-untestable,
    /// non-aborted) faults.
    pub fn undetected(&self) -> impl Iterator<Item = usize> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, FaultStatus::Undetected))
            .map(|(i, _)| i)
    }

    /// Count of detected faults.
    pub fn num_detected(&self) -> usize {
        self.status.iter().filter(|s| s.is_detected()).count()
    }

    /// Count of untestable faults.
    pub fn num_untestable(&self) -> usize {
        self.status
            .iter()
            .filter(|s| matches!(s, FaultStatus::Untestable))
            .count()
    }

    /// Fault coverage: detected / total (0.0 for an empty list).
    pub fn fault_coverage(&self) -> f64 {
        if self.faults.is_empty() {
            return 0.0;
        }
        self.num_detected() as f64 / self.faults.len() as f64
    }

    /// Test coverage: detected / (total - untestable).
    pub fn test_coverage(&self) -> f64 {
        let denom = self.faults.len() - self.num_untestable();
        if denom == 0 {
            return 0.0;
        }
        self.num_detected() as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::GateId;

    fn mk(n: u32) -> FaultList {
        FaultList::new(
            (0..n)
                .flat_map(|i| {
                    [
                        Fault::stuck_at_output(GateId(i), false),
                        Fault::stuck_at_output(GateId(i), true),
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn coverage_accounting() {
        let mut fl = mk(5); // 10 faults
        assert_eq!(fl.fault_coverage(), 0.0);
        fl.mark_detected(0, 7);
        fl.mark_detected(1, 9);
        fl.set_status(2, FaultStatus::Untestable);
        assert_eq!(fl.num_detected(), 2);
        assert!((fl.fault_coverage() - 0.2).abs() < 1e-12);
        assert!((fl.test_coverage() - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn first_detection_wins() {
        let mut fl = mk(1);
        fl.mark_detected(0, 3);
        fl.mark_detected(0, 9);
        assert_eq!(fl.status(0), FaultStatus::Detected(3));
        // set_status cannot downgrade a detection.
        fl.set_status(0, FaultStatus::Aborted);
        assert_eq!(fl.status(0), FaultStatus::Detected(3));
    }

    #[test]
    fn undetected_iterator_skips_resolved() {
        let mut fl = mk(3); // 6 faults
        fl.mark_detected(0, 0);
        fl.set_status(1, FaultStatus::Untestable);
        fl.set_status(2, FaultStatus::Aborted);
        let und: Vec<usize> = fl.undetected().collect();
        assert_eq!(und, vec![3, 4, 5]);
    }
}
