//! Memory built-in self-repair: redundancy analysis and spare mapping.
//!
//! The physical SRAM is a `(rows + spare_rows) × (cols + spare_cols)`
//! bit array; the logical address space the system sees is the
//! `rows × cols` main array. MBIST (a March test with a failure map)
//! locates failing logical cells; redundancy analysis decides which
//! failing rows/columns to swap for spares; the repair signature is
//! applied as an address remap ([`RepairedSram`]); a confirming re-March
//! proves the repaired memory clean. Spare rows/columns themselves are
//! assumed defect-free (the standard first-order redundancy model —
//! spares are a few percent of the array and are testable pre-fuse).
//!
//! The allocation pass implements the classic two-stage scheme:
//!
//! 1. **Must-repair fixpoint** — a row whose uncovered fail count
//!    exceeds the remaining spare columns can only be fixed by a spare
//!    row (and symmetrically for columns); applying one must-repair can
//!    create another, so iterate to a fixpoint.
//! 2. **Essential-spare greedy** — remaining fails are covered
//!    highest-count-line first, spending whichever spare dimension
//!    covers more (ties prefer rows).
//!
//! Exact minimum spare allocation is NP-complete; must-repair + greedy
//! is the production heuristic and is optimal whenever the must-repair
//! stage resolves everything.

use dft_bist::{
    run_march, run_march_with_map, MarchAlgorithm, MarchResult, MemFault, MemFaultKind,
    MemoryModel, SramModel,
};
use dft_metrics::MetricsHandle;
use dft_trace::TraceHandle;

/// Logical dimensions of the main (visible) array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SramGeometry {
    /// Logical rows.
    pub rows: usize,
    /// Logical columns (bits per row).
    pub cols: usize,
}

impl SramGeometry {
    /// Logical size in bits.
    pub fn size(&self) -> usize {
        self.rows * self.cols
    }
}

/// The redundancy budget: spare lines available for repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpareConfig {
    /// Spare rows.
    pub spare_rows: usize,
    /// Spare columns.
    pub spare_cols: usize,
}

impl SpareConfig {
    /// Physical size in bits of the array carrying this budget over
    /// `geom`.
    pub fn physical_size(&self, geom: &SramGeometry) -> usize {
        (geom.rows + self.spare_rows) * (geom.cols + self.spare_cols)
    }
}

/// A per-logical-address failure bitmap from an MBIST run, viewed as a
/// `rows × cols` grid.
#[derive(Debug, Clone)]
pub struct FailureBitmap {
    geom: SramGeometry,
    fails: Vec<bool>,
}

impl FailureBitmap {
    /// Wraps a flat per-address map (as returned by
    /// [`dft_bist::run_march_with_map`]) for `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != geom.size()`.
    pub fn from_map(geom: SramGeometry, map: Vec<bool>) -> FailureBitmap {
        assert_eq!(map.len(), geom.size(), "map/geometry mismatch");
        FailureBitmap { geom, fails: map }
    }

    /// An all-clean bitmap.
    pub fn clean(geom: SramGeometry) -> FailureBitmap {
        FailureBitmap {
            geom,
            fails: vec![false; geom.size()],
        }
    }

    /// The grid geometry.
    pub fn geometry(&self) -> SramGeometry {
        self.geom
    }

    /// Whether `(row, col)` failed.
    pub fn at(&self, row: usize, col: usize) -> bool {
        self.fails[row * self.geom.cols + col]
    }

    /// Total failing cells.
    pub fn fail_count(&self) -> usize {
        self.fails.iter().filter(|&&b| b).count()
    }

    /// `true` when nothing failed.
    pub fn is_clean(&self) -> bool {
        !self.fails.iter().any(|&b| b)
    }

    /// Merges another run's fails into this bitmap (logical OR).
    pub fn merge(&mut self, other: &FailureBitmap) {
        assert_eq!(self.geom, other.geom);
        for (a, &b) in self.fails.iter_mut().zip(&other.fails) {
            *a |= b;
        }
    }
}

/// The repair signature: which logical rows/columns are replaced by
/// spares. This is what a BISR controller burns into repair fuses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairSignature {
    /// Logical rows remapped to spare rows (spare `i` serves `rows[i]`).
    pub rows: Vec<usize>,
    /// Logical columns remapped to spare columns.
    pub cols: Vec<usize>,
}

impl RepairSignature {
    /// Total spare lines this signature consumes.
    pub fn spares_used(&self) -> usize {
        self.rows.len() + self.cols.len()
    }

    /// `true` when no repair is applied (identity mapping).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.cols.is_empty()
    }

    /// Whether every fail in `bitmap` lies on a repaired row or column.
    pub fn covers(&self, bitmap: &FailureBitmap) -> bool {
        let geom = bitmap.geometry();
        for r in 0..geom.rows {
            for c in 0..geom.cols {
                if bitmap.at(r, c) && !self.rows.contains(&r) && !self.cols.contains(&c) {
                    return false;
                }
            }
        }
        true
    }
}

/// Runs must-repair + essential-spare allocation over `bitmap`.
/// Returns the repair signature, or `None` when the fail map exceeds the
/// spare budget (the die is unrepairable).
pub fn analyze_redundancy(bitmap: &FailureBitmap, spares: &SpareConfig) -> Option<RepairSignature> {
    let geom = bitmap.geometry();
    let mut sig = RepairSignature::default();
    let uncovered_in_row = |sig: &RepairSignature, r: usize| {
        (0..geom.cols)
            .filter(|&c| bitmap.at(r, c) && !sig.cols.contains(&c))
            .count()
    };
    let uncovered_in_col = |sig: &RepairSignature, c: usize| {
        (0..geom.rows)
            .filter(|&r| bitmap.at(r, c) && !sig.rows.contains(&r))
            .count()
    };

    // Stage 1: must-repair fixpoint. A line whose uncovered fails exceed
    // the *remaining* spares of the other dimension has no alternative.
    loop {
        let mut changed = false;
        for r in 0..geom.rows {
            if sig.rows.contains(&r) {
                continue;
            }
            if uncovered_in_row(&sig, r) > spares.spare_cols - sig.cols.len() {
                if sig.rows.len() >= spares.spare_rows {
                    return None;
                }
                sig.rows.push(r);
                changed = true;
            }
        }
        for c in 0..geom.cols {
            if sig.cols.contains(&c) {
                continue;
            }
            if uncovered_in_col(&sig, c) > spares.spare_rows - sig.rows.len() {
                if sig.cols.len() >= spares.spare_cols {
                    return None;
                }
                sig.cols.push(c);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Stage 2: essential-spare greedy — cover the line with the most
    // uncovered fails first, from whichever dimension still has spares.
    loop {
        let best_row = (0..geom.rows)
            .filter(|r| !sig.rows.contains(r) && sig.rows.len() < spares.spare_rows)
            .map(|r| (uncovered_in_row(&sig, r), r))
            .max();
        let best_col = (0..geom.cols)
            .filter(|c| !sig.cols.contains(c) && sig.cols.len() < spares.spare_cols)
            .map(|c| (uncovered_in_col(&sig, c), c))
            .max();
        let remaining = match (best_row, best_col) {
            (Some((nr, _)), Some((nc, _))) => nr.max(nc),
            (Some((nr, _)), None) => nr,
            (None, Some((nc, _))) => nc,
            (None, None) => 0,
        };
        if remaining == 0 {
            // No uncovered fail is reachable with the spares left: done
            // if the map is fully covered, unrepairable otherwise.
            return if sig.covers(bitmap) { Some(sig) } else { None };
        }
        match (best_row, best_col) {
            (Some((nr, r)), Some((nc, c))) => {
                if nr >= nc {
                    sig.rows.push(r);
                } else {
                    sig.cols.push(c);
                }
            }
            (Some((_, r)), None) => sig.rows.push(r),
            (None, Some((_, c))) => sig.cols.push(c),
            (None, None) => unreachable!("remaining > 0 implies a candidate"),
        }
    }
}

/// The repaired view of a physical SRAM: logical `rows × cols` accesses
/// are remapped through the repair signature onto the
/// `(rows + spare_rows) × (cols + spare_cols)` physical array
/// underneath, exactly like the fuse-programmed address decoder of a
/// hardware BISR controller.
#[derive(Debug, Clone)]
pub struct RepairedSram {
    inner: SramModel,
    geom: SramGeometry,
    phys_cols: usize,
    /// Logical row -> physical row.
    row_map: Vec<usize>,
    /// Logical column -> physical column.
    col_map: Vec<usize>,
}

impl RepairedSram {
    /// Wraps `inner` (the physical array, sized
    /// [`SpareConfig::physical_size`]) with `sig` applied.
    ///
    /// # Panics
    ///
    /// Panics on a size mismatch, a signature exceeding the spare
    /// budget, or an out-of-range repaired line.
    pub fn new(
        inner: SramModel,
        geom: SramGeometry,
        spares: &SpareConfig,
        sig: &RepairSignature,
    ) -> RepairedSram {
        assert_eq!(inner.size(), spares.physical_size(&geom), "physical size");
        assert!(sig.rows.len() <= spares.spare_rows, "spare rows exceeded");
        assert!(sig.cols.len() <= spares.spare_cols, "spare cols exceeded");
        let mut row_map: Vec<usize> = (0..geom.rows).collect();
        for (i, &r) in sig.rows.iter().enumerate() {
            assert!(r < geom.rows, "repaired row out of range");
            row_map[r] = geom.rows + i;
        }
        let mut col_map: Vec<usize> = (0..geom.cols).collect();
        for (i, &c) in sig.cols.iter().enumerate() {
            assert!(c < geom.cols, "repaired col out of range");
            col_map[c] = geom.cols + i;
        }
        RepairedSram {
            inner,
            geom,
            phys_cols: geom.cols + spares.spare_cols,
            row_map,
            col_map,
        }
    }

    /// The logical geometry of the view.
    pub fn geometry(&self) -> SramGeometry {
        self.geom
    }

    fn physical(&self, addr: usize) -> usize {
        let (r, c) = (addr / self.geom.cols, addr % self.geom.cols);
        self.row_map[r] * self.phys_cols + self.col_map[c]
    }
}

impl MemoryModel for RepairedSram {
    fn size(&self) -> usize {
        self.geom.size()
    }
    fn read(&self, addr: usize) -> bool {
        self.inner.read(self.physical(addr))
    }
    fn write(&mut self, addr: usize, value: bool) {
        self.inner.write(self.physical(addr), value)
    }
}

/// The outcome of one BISR detect → repair → re-verify loop.
#[derive(Debug, Clone)]
pub struct BisrReport {
    /// Failing logical cells found by the initial MBIST pass.
    pub initial_fails: usize,
    /// Repair rounds executed (1 = single pass sufficed).
    pub rounds: usize,
    /// The final repair signature (empty when nothing failed).
    pub signature: RepairSignature,
    /// `true` when the confirming March on the repaired view was clean.
    pub repaired: bool,
    /// `true` when the fail map exceeded the spare budget (or kept
    /// producing new fails past the round limit). Mutually exclusive
    /// with `repaired`; both `false` means the memory needed no repair.
    pub unrepairable: bool,
    /// The initial (pre-repair) March outcome.
    pub pre_march: MarchResult,
    /// The confirming (post-repair) March outcome, when a repair was
    /// attempted and allocation succeeded.
    pub post_march: Option<MarchResult>,
}

impl BisrReport {
    /// `true` when the die ships: either clean from the start or
    /// repaired to a clean re-March.
    pub fn ships(&self) -> bool {
        !self.unrepairable && (self.repaired || self.signature.is_empty())
    }
}

/// The BISR engine: March C- plus the iteration policy.
///
/// Repair is iterative because coupling faults can mask one another: the
/// first March sees one projection of the defect cluster, repairing it
/// can expose a previously-masked fail, so the engine re-runs MBIST on
/// the repaired view and extends the analysis over the *merged* fail map
/// until the confirming March is clean (or rounds run out).
#[derive(Debug, Clone)]
pub struct BisrEngine {
    max_rounds: usize,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl Default for BisrEngine {
    /// March C- (the 10n workhorse), up to 4 repair rounds.
    fn default() -> BisrEngine {
        BisrEngine::new()
    }
}

impl BisrEngine {
    /// The default engine: March C-, up to 4 repair rounds.
    pub fn new() -> BisrEngine {
        BisrEngine {
            max_rounds: 4,
            metrics: MetricsHandle::disabled(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Sets the repair-round limit.
    pub fn with_max_rounds(mut self, rounds: usize) -> BisrEngine {
        self.max_rounds = rounds.max(1);
        self
    }

    /// Points the engine at `metrics` (bisr_* counters).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> BisrEngine {
        self.metrics = metrics;
        self
    }

    /// Points span recording at `trace`: each run records a `bisr_run`
    /// span around per-iteration `bisr_round` spans (`arg` = round
    /// number) and `mbist_march` spans for the detect/confirm Marches.
    pub fn with_trace(mut self, trace: TraceHandle) -> BisrEngine {
        self.trace = trace;
        self
    }

    fn march(&self, ordinal: u64, view: &mut RepairedSram) -> (MarchResult, Vec<bool>) {
        let _march = self.trace.span_arg("mbist_march", ordinal);
        run_march_with_map(&dft_bist::march_c_minus(), view)
    }

    /// Runs the full loop against `physical` (an array sized
    /// [`SpareConfig::physical_size`], with whatever faults injected):
    /// March → failure map → redundancy analysis → repaired view →
    /// confirming March, iterating while new fails appear.
    pub fn run(
        &self,
        physical: &SramModel,
        geom: SramGeometry,
        spares: &SpareConfig,
    ) -> BisrReport {
        assert_eq!(
            physical.size(),
            spares.physical_size(&geom),
            "physical array does not match geometry + spares"
        );
        let _run = self.trace.span("bisr_run");
        // Round 0: MBIST through the identity mapping.
        let mut view =
            RepairedSram::new(physical.clone(), geom, spares, &RepairSignature::default());
        let (pre_march, map) = self.march(0, &mut view);
        let mut merged = FailureBitmap::from_map(geom, map);
        let initial_fails = merged.fail_count();
        let mut report = BisrReport {
            initial_fails,
            rounds: 0,
            signature: RepairSignature::default(),
            repaired: false,
            unrepairable: false,
            pre_march,
            post_march: None,
        };
        if !pre_march.detected {
            self.flush(&report);
            return report; // clean die, no repair needed
        }
        for _ in 0..self.max_rounds {
            report.rounds += 1;
            let _round = self.trace.span_arg("bisr_round", report.rounds as u64);
            let sig = match analyze_redundancy(&merged, spares) {
                Some(sig) => sig,
                None => {
                    report.unrepairable = true;
                    self.flush(&report);
                    return report;
                }
            };
            let mut view = RepairedSram::new(physical.clone(), geom, spares, &sig);
            let (post, map) = self.march(report.rounds as u64, &mut view);
            report.signature = sig;
            report.post_march = Some(post);
            if !post.detected {
                report.repaired = true;
                self.flush(&report);
                return report;
            }
            // New fails surfaced on the repaired view: extend the map and
            // re-analyze. (Addresses remapped to spares cannot fail —
            // spares are clean — so the merge is coherent.)
            merged.merge(&FailureBitmap::from_map(geom, map));
        }
        report.unrepairable = true;
        self.flush(&report);
        report
    }

    fn flush(&self, report: &BisrReport) {
        if let Some(m) = self.metrics.get() {
            m.bisr_runs.inc();
            if report.repaired {
                m.bisr_repaired.inc();
            }
            if report.unrepairable {
                m.bisr_unrepairable.inc();
            }
            m.bisr_spares_used
                .add(report.signature.spares_used() as u64);
        }
    }
}

/// Generates `k` distinct seeded point faults (SAF/TF only — the
/// row/column-repairable classes) at physical main-array cells. The
/// SplitMix64 stream makes the set a pure function of `seed`.
pub fn random_point_faults(
    geom: SramGeometry,
    spares: &SpareConfig,
    k: usize,
    seed: u64,
) -> Vec<MemFault> {
    assert!(k <= geom.size(), "more faults than cells");
    let phys_cols = geom.cols + spares.spare_cols;
    let mut faults: Vec<MemFault> = Vec::with_capacity(k);
    let mut used = vec![false; geom.size()];
    let mut z = seed;
    let mut next = move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    while faults.len() < k {
        let cell = (next() as usize) % geom.size();
        if used[cell] {
            continue;
        }
        used[cell] = true;
        let (r, c) = (cell / geom.cols, cell % geom.cols);
        let phys = r * phys_cols + c;
        let roll = next();
        let kind = match roll % 4 {
            0 => MemFaultKind::StuckAt { value: false },
            1 => MemFaultKind::StuckAt { value: true },
            2 => MemFaultKind::Transition { rising: true },
            _ => MemFaultKind::Transition { rising: false },
        };
        faults.push(MemFault { cell: phys, kind });
    }
    faults
}

/// One point of the yield-vs-fault-density sweep.
#[derive(Debug, Clone, Copy)]
pub struct YieldPoint {
    /// Faults injected per die at this density.
    pub faults_injected: usize,
    /// Dies attempted.
    pub attempts: usize,
    /// Dies clean without repair.
    pub clean: usize,
    /// Dies repaired to a clean re-March.
    pub repaired: usize,
    /// Dies beyond the spare budget.
    pub unrepairable: usize,
}

impl YieldPoint {
    /// Shippable fraction (clean + repaired) of attempts.
    pub fn yield_fraction(&self) -> f64 {
        if self.attempts == 0 {
            return 1.0;
        }
        (self.clean + self.repaired) as f64 / self.attempts as f64
    }
}

/// Sweeps injected fault count, running `attempts` seeded dies per
/// density through `engine`, and tallies the repair outcomes. This is
/// the repairable-vs-unrepairable yield table of the `repair` benchmark
/// experiment.
pub fn yield_sweep(
    engine: &BisrEngine,
    geom: SramGeometry,
    spares: &SpareConfig,
    densities: &[usize],
    attempts: usize,
    seed: u64,
) -> Vec<YieldPoint> {
    densities
        .iter()
        .map(|&k| {
            let mut point = YieldPoint {
                faults_injected: k,
                attempts,
                clean: 0,
                repaired: 0,
                unrepairable: 0,
            };
            for die in 0..attempts {
                let die_seed = seed ^ ((k as u64) << 32) ^ die as u64;
                let faults = random_point_faults(geom, spares, k, die_seed);
                let physical = SramModel::with_faults(spares.physical_size(&geom), faults);
                let report = engine.run(&physical, geom, spares);
                if report.signature.is_empty() && !report.unrepairable && !report.repaired {
                    point.clean += 1;
                } else if report.repaired {
                    point.repaired += 1;
                } else {
                    point.unrepairable += 1;
                }
            }
            point
        })
        .collect()
}

/// Convenience for tests and the CLI demo: March the raw physical array
/// restricted to an identity-mapped view (no repair applied).
pub fn march_unrepaired(
    algo: &MarchAlgorithm,
    physical: &SramModel,
    geom: SramGeometry,
    spares: &SpareConfig,
) -> MarchResult {
    let mut view = RepairedSram::new(physical.clone(), geom, spares, &RepairSignature::default());
    run_march(algo, &mut view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_bist::march_c_minus;

    const GEOM: SramGeometry = SramGeometry { rows: 8, cols: 8 };
    const SPARES: SpareConfig = SpareConfig {
        spare_rows: 2,
        spare_cols: 2,
    };

    fn saf(geom: SramGeometry, spares: &SpareConfig, r: usize, c: usize) -> MemFault {
        MemFault {
            cell: r * (geom.cols + spares.spare_cols) + c,
            kind: MemFaultKind::StuckAt { value: true },
        }
    }

    #[test]
    fn clean_memory_needs_no_repair() {
        let physical = SramModel::new(SPARES.physical_size(&GEOM));
        let report = BisrEngine::new().run(&physical, GEOM, &SPARES);
        assert!(!report.pre_march.detected);
        assert!(report.ships());
        assert!(report.signature.is_empty());
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn single_fault_repaired_in_one_round() {
        let physical =
            SramModel::with_faults(SPARES.physical_size(&GEOM), vec![saf(GEOM, &SPARES, 3, 5)]);
        let report = BisrEngine::new().run(&physical, GEOM, &SPARES);
        assert!(report.pre_march.detected);
        assert!(report.repaired, "{report:?}");
        assert_eq!(report.rounds, 1);
        assert_eq!(report.signature.spares_used(), 1);
        assert!(!report.post_march.unwrap().detected);
    }

    #[test]
    fn row_cluster_forces_a_spare_row() {
        // 4 fails in one row > 2 spare cols: must-repair picks the row.
        let faults: Vec<MemFault> = (0..4).map(|c| saf(GEOM, &SPARES, 2, c * 2)).collect();
        let physical = SramModel::with_faults(SPARES.physical_size(&GEOM), faults);
        let report = BisrEngine::new().run(&physical, GEOM, &SPARES);
        assert!(report.repaired);
        assert_eq!(report.signature.rows, vec![2]);
        assert!(report.signature.cols.is_empty());
    }

    #[test]
    fn beyond_budget_is_reported_unrepairable_without_panicking() {
        // A 5-row × 5-col diagonal-free cross pattern needing 5 lines.
        let faults: Vec<MemFault> = (0..5).map(|i| saf(GEOM, &SPARES, i, i)).collect();
        let physical = SramModel::with_faults(SPARES.physical_size(&GEOM), faults);
        let report = BisrEngine::new().run(&physical, GEOM, &SPARES);
        assert!(report.unrepairable);
        assert!(!report.ships());
    }

    #[test]
    fn march_detects_what_analysis_repairs() {
        let faults = vec![saf(GEOM, &SPARES, 1, 1), saf(GEOM, &SPARES, 6, 2)];
        let physical = SramModel::with_faults(SPARES.physical_size(&GEOM), faults);
        let pre = march_unrepaired(&march_c_minus(), &physical, GEOM, &SPARES);
        assert!(pre.detected);
        let report = BisrEngine::new().run(&physical, GEOM, &SPARES);
        assert!(report.repaired);
        assert_eq!(report.signature.spares_used(), 2);
    }

    #[test]
    fn yield_sweep_degrades_monotonically_in_expectation() {
        let engine = BisrEngine::new();
        let points = yield_sweep(&engine, GEOM, &SPARES, &[0, 1, 8], 6, 0xD1E5);
        assert_eq!(points[0].clean, 6);
        assert!((points[0].yield_fraction() - 1.0).abs() < 1e-12);
        // k=1 is always repairable (one spare suffices).
        assert!((points[1].yield_fraction() - 1.0).abs() < 1e-12);
        // 8 random point faults on an 8x8 with 4 spares: mostly scrap.
        assert!(points[2].yield_fraction() < 1.0);
    }

    #[test]
    fn persistent_spare_fault_terminates_at_the_round_limit() {
        // A defective spare row: the must-repair remap of logical row 2
        // lands on a stuck cell inside the spare region, so every
        // confirming March keeps detecting and no repair converges. The
        // loop must still terminate at max_rounds with an unrepairable
        // verdict rather than iterating forever.
        let phys_cols = GEOM.cols + SPARES.spare_cols;
        let mut faults: Vec<MemFault> = (0..4).map(|c| saf(GEOM, &SPARES, 2, c * 2)).collect();
        for spare_row in GEOM.rows..GEOM.rows + SPARES.spare_rows {
            faults.push(MemFault {
                cell: spare_row * phys_cols + 1,
                kind: MemFaultKind::StuckAt { value: true },
            });
        }
        let physical = SramModel::with_faults(SPARES.physical_size(&GEOM), faults);
        let report = BisrEngine::new()
            .with_max_rounds(3)
            .run(&physical, GEOM, &SPARES);
        assert!(report.rounds <= 3);
        assert!(!report.repaired);
        assert!(!report.ships());
    }

    #[test]
    fn repaired_view_remaps_only_repaired_lines() {
        let sig = RepairSignature {
            rows: vec![1],
            cols: vec![3],
        };
        let physical = SramModel::new(SPARES.physical_size(&GEOM));
        let mut view = RepairedSram::new(physical, GEOM, &SPARES, &sig);
        // Writes through the view are readable back through the view.
        for addr in [0usize, 9, 11, 63] {
            view.write(addr, true);
            assert!(view.read(addr), "addr {addr}");
        }
        assert_eq!(MemoryModel::size(&view), 64);
    }
}
