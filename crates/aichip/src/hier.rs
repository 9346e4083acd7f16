//! Hierarchical test of replicated identical cores.
//!
//! AI chips replicate one PE/core design tens to hundreds of times. The
//! case-study methodology the tutorial presents: run ATPG **once** on the
//! core, then *broadcast* the same stimulus to every core in parallel and
//! compare/compact each core's responses locally — turning an `N x`
//! pattern cost into `~1x` plus a constant.

use std::time::Duration;

use dft_atpg::{Atpg, AtpgConfig};
use dft_fault::{universe_stuck_at, FaultList};
use dft_logicsim::{Executor, SimKernel, TapeKernel};
use dft_netlist::Netlist;
use dft_scan::{insert_scan, ScanConfig, TestTimeModel};
use dft_trace::TraceHandle;

/// SoC description: one core design replicated `num_cores` times.
#[derive(Debug, Clone, Copy)]
pub struct SocConfig {
    /// Number of identical core instances.
    pub num_cores: usize,
    /// Scan chains inside each core.
    pub chains_per_core: usize,
    /// Scan shift clock (MHz).
    pub shift_mhz: u32,
    /// Scan pins available at the SoC level (limits how many cores can be
    /// accessed in parallel without broadcast).
    pub soc_scan_pins: usize,
    /// Worker threads for the per-core verification loop (`0` = one per
    /// hardware thread, `1` = serial). The plan is bit-identical for any
    /// value.
    pub threads: usize,
}

impl Default for SocConfig {
    fn default() -> Self {
        SocConfig {
            num_cores: 16,
            chains_per_core: 4,
            shift_mhz: 100,
            soc_scan_pins: 16,
            threads: 0,
        }
    }
}

/// Comparison of flat (per-core sequential) vs broadcast (hierarchical
/// pattern reuse) test application.
#[derive(Debug, Clone)]
pub struct CoreTestPlan {
    /// Patterns generated for one core.
    pub patterns_per_core: usize,
    /// Core-level stuck-at test coverage.
    pub core_coverage: f64,
    /// Tester cycles when each core is tested one after another through
    /// the shared scan pins.
    pub flat_cycles: u64,
    /// Tester cycles when stimulus is broadcast to all cores in parallel
    /// (responses compacted per core).
    pub broadcast_cycles: u64,
    /// Tester cycles to apply the pattern set to a single core (the unit
    /// cost both schedules are built from — degradation planners rebuild
    /// schedules for surviving-core subsets via [`schedule_cycles`]).
    pub per_core_cycles: u64,
    /// ATPG wall-clock for the single core (reused for all).
    pub atpg_time: Duration,
    /// Outcome of the per-core broadcast verification: one entry per core
    /// instance, `true` when that core's seeded defect is flagged by the
    /// local compare of the broadcast stimulus.
    pub defects_flagged: Vec<bool>,
}

impl CoreTestPlan {
    /// Test-time speedup of broadcast over flat.
    pub fn speedup(&self) -> f64 {
        if self.broadcast_cycles == 0 {
            return 1.0;
        }
        self.flat_cycles as f64 / self.broadcast_cycles as f64
    }

    /// Fraction of per-core seeded defects the broadcast compare flags.
    pub fn defect_flag_rate(&self) -> f64 {
        if self.defects_flagged.is_empty() {
            return 1.0;
        }
        let hits = self.defects_flagged.iter().filter(|&&b| b).count();
        hits as f64 / self.defects_flagged.len() as f64
    }
}

/// Builds the hierarchical test plan for `core` replicated per `cfg`:
/// runs core-level ATPG once, verifies the broadcast compare against one
/// seeded defect per core instance (in parallel across cores), and
/// derives both application schedules.
///
/// Records spans on `trace`: a `hier_plan` root span wraps the
/// single-core ATPG (with its phase spans), a `broadcast_verify` span
/// over the fan-out, and per-core `core_screen` spans (`arg` = core
/// index) on the worker threads.
pub fn hierarchical_plan(
    core: &Netlist,
    cfg: &SocConfig,
    atpg: &AtpgConfig,
    trace: &TraceHandle,
) -> CoreTestPlan {
    let _plan = trace.span_arg("hier_plan", cfg.num_cores as u64);
    let run = Atpg::new(core).with_trace(trace.clone()).run(atpg);

    // Per-core verification of the broadcast scheme: every core receives
    // the same stimulus, so a defective core is caught only if its local
    // compare (MISR/comparator) sees a response mismatch. Seed one
    // stuck-at defect per instance (deterministic in the core index) and
    // fault-simulate the shared pattern set against it — each core is an
    // independent simulation, fanned out across `cfg.threads` workers.
    let universe = universe_stuck_at(core);
    // Compile the kernel once; every core screens against the same tape.
    let sim = TapeKernel::compile(core);
    let exec = Executor::with_threads(cfg.threads);
    let cores: Vec<usize> = (0..cfg.num_cores).collect();
    let _verify = trace.span_arg("broadcast_verify", cfg.num_cores as u64);
    let defects_flagged = exec.map(&cores, |_, &core_idx| {
        let _core = trace.span_arg("core_screen", core_idx as u64);
        if universe.is_empty() {
            return true;
        }
        let defect = seeded_defect(core_idx, &universe);
        let mut list = FaultList::new(vec![defect]);
        sim.fault_batch(&run.patterns, &mut list, &Executor::serial());
        list.num_detected() == 1
    });

    let scan = insert_scan(
        core,
        &ScanConfig {
            num_chains: cfg.chains_per_core,
        },
    );
    let per_core = TestTimeModel::for_architecture(&scan, run.patterns.len(), cfg.shift_mhz);
    let per_core_cycles = per_core.total_cycles();
    let (flat_cycles, broadcast_cycles) = schedule_cycles(per_core_cycles, cfg.num_cores, cfg);

    CoreTestPlan {
        patterns_per_core: run.patterns.len(),
        core_coverage: run.fault_list.fault_coverage(),
        flat_cycles,
        broadcast_cycles,
        per_core_cycles,
        atpg_time: run.elapsed,
        defects_flagged,
    }
}

/// Derives both application schedules for `num_cores` instances sharing
/// `cfg`'s SoC scan pins, given the tester cycles to test one core.
/// Returns `(flat_cycles, broadcast_cycles)`. Split out so degradation
/// planners can recompute the schedule for a surviving-core subset
/// without re-running ATPG.
pub fn schedule_cycles(per_core_cycles: u64, num_cores: usize, cfg: &SocConfig) -> (u64, u64) {
    // Flat: cores share the SoC scan pins; at most
    // `soc_scan_pins / (2 * chains_per_core)` cores can shift at once.
    let concurrent = (cfg.soc_scan_pins / (2 * cfg.chains_per_core)).max(1);
    let sequential_groups = num_cores.div_ceil(concurrent);
    let flat_cycles = per_core_cycles * sequential_groups as u64;

    // Broadcast: every core receives the same stimulus simultaneously;
    // one application suffices. Responses are compacted on-core (MISR),
    // adding a constant signature-unload tail per core group.
    let signature_unload = 32u64; // cycles to stream out one MISR signature
    let broadcast_cycles =
        per_core_cycles + signature_unload * num_cores as u64 / concurrent.max(1) as u64;
    (flat_cycles, broadcast_cycles)
}

/// Screens every core instance with the broadcast pattern set and
/// returns the per-core pass map: `true` = the core's local compare saw
/// no mismatch (the core ships), `false` = the core failed screening.
/// Cores listed in `defective_cores` carry one seeded stuck-at defect
/// (deterministic in the core index, same seeding as
/// [`hierarchical_plan`]); a defective core still *passes* when the
/// broadcast patterns miss its defect — a genuine test escape, which is
/// why the flag rate in [`CoreTestPlan::defect_flag_rate`] matters.
///
/// Records spans on `trace`: a `broadcast_screen` root span wraps the
/// shared ATPG and per-core `core_screen` spans (`arg` = core index) on
/// the worker threads.
pub fn broadcast_screen(
    core: &Netlist,
    cfg: &SocConfig,
    atpg: &AtpgConfig,
    defective_cores: &[usize],
    trace: &TraceHandle,
) -> Vec<bool> {
    let _screen = trace.span_arg("broadcast_screen", cfg.num_cores as u64);
    let run = Atpg::new(core).with_trace(trace.clone()).run(atpg);
    let universe = universe_stuck_at(core);
    // Compile the kernel once; every core screens against the same tape.
    let sim = TapeKernel::compile(core);
    let exec = Executor::with_threads(cfg.threads);
    let cores: Vec<usize> = (0..cfg.num_cores).collect();
    exec.map(&cores, |_, &core_idx| {
        let _core = trace.span_arg("core_screen", core_idx as u64);
        if !defective_cores.contains(&core_idx) || universe.is_empty() {
            return true;
        }
        let defect = seeded_defect(core_idx, &universe);
        let mut list = FaultList::new(vec![defect]);
        sim.fault_batch(&run.patterns, &mut list, &Executor::serial());
        // Detected defect -> local compare mismatches -> core fails.
        list.num_detected() == 0
    })
}

/// SplitMix64 of the instance index picks that instance's seeded
/// defect. Pure in the index and the fault universe, so every consumer
/// that seeds "identical cores, distinct defects" — broadcast screening
/// here, per-die fault seeding in the serve layer — agrees on which
/// instance carries which fault.
pub fn seeded_defect(core_idx: usize, universe: &[dft_fault::Fault]) -> dft_fault::Fault {
    let mut z = (core_idx as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    universe[(z ^ (z >> 31)) as usize % universe.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_atpg::AtpgConfig;
    use dft_netlist::generators::mac_pe;

    fn quick_atpg() -> AtpgConfig {
        AtpgConfig {
            random_patterns: 64,
            ..AtpgConfig::default()
        }
    }

    #[test]
    fn broadcast_beats_flat_and_scales() {
        let core = mac_pe(4);
        let plan16 = hierarchical_plan(
            &core,
            &SocConfig {
                num_cores: 16,
                ..SocConfig::default()
            },
            &quick_atpg(),
            &TraceHandle::disabled(),
        );
        assert!(plan16.core_coverage > 0.95);
        assert!(
            plan16.speedup() > 4.0,
            "speedup {} (flat {} vs broadcast {})",
            plan16.speedup(),
            plan16.flat_cycles,
            plan16.broadcast_cycles
        );
        let plan64 = hierarchical_plan(
            &core,
            &SocConfig {
                num_cores: 64,
                ..SocConfig::default()
            },
            &quick_atpg(),
            &TraceHandle::disabled(),
        );
        // Speedup grows with core count (broadcast cost is ~constant).
        assert!(plan64.speedup() > plan16.speedup());
    }

    #[test]
    fn per_core_verification_is_thread_invariant() {
        let core = mac_pe(4);
        let base = SocConfig {
            num_cores: 24,
            threads: 1,
            ..SocConfig::default()
        };
        let serial = hierarchical_plan(&core, &base, &quick_atpg(), &TraceHandle::disabled());
        assert_eq!(serial.defects_flagged.len(), 24);
        // A >95%-coverage pattern set should flag nearly every seeded defect.
        assert!(
            serial.defect_flag_rate() > 0.9,
            "flag rate {}",
            serial.defect_flag_rate()
        );
        for threads in [2usize, 8] {
            let plan = hierarchical_plan(
                &core,
                &SocConfig { threads, ..base },
                &quick_atpg(),
                &TraceHandle::disabled(),
            );
            assert_eq!(
                plan.defects_flagged, serial.defects_flagged,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn single_core_soc_has_no_benefit() {
        let core = mac_pe(4);
        let plan = hierarchical_plan(
            &core,
            &SocConfig {
                num_cores: 1,
                ..SocConfig::default()
            },
            &quick_atpg(),
            &TraceHandle::disabled(),
        );
        assert!(plan.speedup() <= 1.0 + 1e-9);
    }
}
