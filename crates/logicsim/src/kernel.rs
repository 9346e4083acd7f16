//! The simulation-kernel API.
//!
//! [`SimKernel`] is the single entry point every simulation consumer
//! (ATPG, LBIST, EDT verification, the aichip broadcast screen, the
//! test-floor dies, diagnosis) goes through: compile a netlist once, then
//! run good-machine, stuck-at, and transition batches against the
//! compiled design. [`TapeKernel`] implements it on a compile-once
//! levelized [`GateTape`] evaluated 256 patterns per pass (see
//! [`crate::tape`]); its single-defect entry points (every detecting
//! pattern, whole faulty responses) live in [`crate::ppsfp`].
//!
//! Determinism contract: the detected-fault set, each fault's first
//! detecting pattern, and the coverage numbers are bit-identical for any
//! thread count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use dft_checkpoint::{CancelToken, ChaosConfig, ChaosSite};
use dft_fault::{Fault, FaultKind, FaultList};
use dft_metrics::MetricsHandle;
use dft_netlist::Netlist;
use dft_trace::TraceHandle;

use crate::goodsim::push_responses;
use crate::patterns::pack_bits;
use crate::tape::{GateTape, Sweep, WideWord, LANES, WIDE_PATTERNS};
use crate::{Defect, Executor, Pattern, PatternSet, Response, SimStats};

/// Below this many fault×pattern propagations the spawn/merge cost
/// dominates; batches fall back to the calling thread.
const PARALLEL_THRESHOLD: usize = 1 << 12;

/// A compiled simulation engine for one netlist.
///
/// Compile once, evaluate many: the constructor pays any per-design
/// analysis (levelization, tape layout) exactly once, and every batch
/// call reuses it. All batch methods take `&self` and are safe to call
/// from multiple threads.
pub trait SimKernel<'nl>: Sized {
    /// Compiles `nl` into an engine-specific design representation.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has a combinational loop.
    fn compile(nl: &'nl Netlist) -> Self;

    /// The netlist this kernel was compiled from.
    fn netlist(&self) -> &'nl Netlist;

    /// Good-machine simulation of every pattern: returns one
    /// [`Response`] per pattern (primary outputs first, then flop D-pin
    /// captures, in netlist source order).
    fn eval_batch(&self, patterns: &PatternSet) -> Vec<Response>;

    /// PPSFP stuck-at fault simulation: runs all `patterns` against the
    /// undetected faults in `list`, marking first detections (fault
    /// dropping) and returning run statistics. Bit-identical results for
    /// any thread count.
    fn fault_batch(&self, patterns: &PatternSet, list: &mut FaultList, exec: &Executor)
        -> SimStats;

    /// Transition-delay fault simulation over launch/capture pairs
    /// (`pairs[i]` launches with `.0` and captures with `.1`), marking
    /// first detections in `list`. Bit-identical across thread counts.
    fn transition_batch(
        &self,
        pairs: &[(Pattern, Pattern)],
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats;
}

/// The compile-once gate-tape engine behind the [`SimKernel`] API.
///
/// [`TapeKernel::compile`] levelizes and flattens the netlist into a
/// [`GateTape`]; every batch then evaluates 256 patterns per pass and
/// propagates faults over a position-ordered event frontier. Fault
/// batches poll a cancel token, honour the chaos harness, and contain a
/// panic to the one fault whose batch raised it.
#[derive(Debug)]
pub struct TapeKernel<'nl> {
    nl: &'nl Netlist,
    tape: GateTape,
    metrics: MetricsHandle,
    trace: TraceHandle,
    cancel: CancelToken,
    chaos: Option<ChaosConfig>,
}

impl<'nl> TapeKernel<'nl> {
    /// Shares a cancellation token (a compiled kernel holds one that
    /// never fires). Fault-batch workers poll it once per fault; when it
    /// fires, the pass drains and **discards** its detections (see
    /// [`SimStats::interrupted`]), leaving the fault list untouched so
    /// the pass can be repeated bit-identically.
    pub fn with_cancel(mut self, cancel: CancelToken) -> TapeKernel<'nl> {
        self.cancel = cancel;
        self
    }

    /// Attaches the chaos harness: worker-panic and batch-delay
    /// injections fire deterministically per fault-list index, so the
    /// same faults are hit regardless of thread count.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> TapeKernel<'nl> {
        self.chaos = chaos.is_active().then_some(chaos);
        self
    }

    /// Points run counters at `metrics`: `goodsim_*` per wide
    /// good-machine pass, `faultsim_*`/`transition_*` once per batch
    /// (`*_gate_evals` count wide evaluations).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> TapeKernel<'nl> {
        self.metrics = metrics;
        self
    }

    /// Points span recording at `trace`: a fault batch records a
    /// `faultsim_run` span, a `goodsim_eval` span for the shared
    /// good-machine precompute, and one worker-tagged `faultsim_batch`
    /// span per executor chunk (`arg` = worker index); transition batches
    /// record `transition_run` and `transition_batch`.
    pub fn with_trace(mut self, trace: TraceHandle) -> TapeKernel<'nl> {
        self.trace = trace;
        self
    }

    /// The compiled tape.
    pub fn tape(&self) -> &GateTape {
        &self.tape
    }

    /// Counts one good-machine wide pass into the `goodsim_*` family.
    pub(crate) fn note_good_pass(&self) {
        if let Some(m) = self.metrics.get() {
            m.goodsim_blocks.inc();
            m.goodsim_gate_evals.add(self.tape.evals_per_pass());
        }
    }

    /// Flushes one fault run's [`SimStats`] into the registry.
    fn flush_fault_stats(&self, stats: &SimStats) {
        if let Some(m) = self.metrics.get() {
            m.faultsim_runs.inc();
            m.faultsim_patterns.add(stats.patterns as u64);
            m.faultsim_faults.add(stats.faults_simulated as u64);
            m.faultsim_detected.add(stats.detected as u64);
            m.faultsim_gate_evals.add(stats.gate_evals);
            m.faultsim_failed_batches.add(stats.failed_batches as u64);
        }
    }

    /// Flushes one transition run's [`SimStats`] into the registry.
    fn flush_transition_stats(&self, stats: &SimStats) {
        if let Some(m) = self.metrics.get() {
            m.transition_runs.inc();
            m.transition_pairs.add(stats.patterns as u64);
            m.transition_detected.add(stats.detected as u64);
            m.transition_gate_evals.add(stats.gate_evals);
        }
    }

    /// First detecting pattern within a wide block, if any: lanes are
    /// consecutive 64-pattern sub-blocks, so the first non-zero lane's
    /// lowest set bit is the earliest detecting pattern.
    #[inline]
    fn first_detection(start: usize, det: &WideWord) -> Option<u32> {
        (0..LANES)
            .find(|&l| det[l] != 0)
            .map(|l| (start + 64 * l) as u32 + det[l].trailing_zeros())
    }
}

impl<'nl> SimKernel<'nl> for TapeKernel<'nl> {
    fn compile(nl: &'nl Netlist) -> Self {
        TapeKernel {
            nl,
            tape: GateTape::compile(nl),
            metrics: MetricsHandle::disabled(),
            trace: TraceHandle::disabled(),
            cancel: CancelToken::new(),
            chaos: None,
        }
    }

    fn netlist(&self) -> &'nl Netlist {
        self.nl
    }

    fn eval_batch(&self, patterns: &PatternSet) -> Vec<Response> {
        let mut out = Vec::with_capacity(patterns.len());
        self.for_each_block(patterns, |_, count, vals| {
            push_responses(&self.tape.sink_words_wide(vals), count, &mut out);
        });
        out
    }

    fn fault_batch(
        &self,
        patterns: &PatternSet,
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats {
        let active: Vec<usize> = list.undetected().collect();
        let mut stats = SimStats {
            patterns: patterns.len(),
            faults_simulated: active.len(),
            ..SimStats::default()
        };
        let exec = if active.len() * patterns.len() < PARALLEL_THRESHOLD {
            Executor::serial()
        } else {
            *exec
        };
        let _run = self.trace.span_arg("faultsim_run", active.len() as u64);
        // Precompute wide good values for every 256-pattern block
        // (shared read-only across workers).
        let blocks: Vec<(usize, Vec<WideWord>, WideWord)> = {
            let _g = self.trace.span_arg(
                "goodsim_eval",
                patterns.len().div_ceil(WIDE_PATTERNS) as u64,
            );
            let mut blocks = Vec::new();
            self.for_each_block(patterns, |start, count, vals| {
                blocks.push((start, vals.to_vec(), GateTape::wide_mask(count)));
            });
            blocks
        };
        let faults = list.faults();
        // One result per chunk, in chunk (= fault) order.
        type ChunkResult = (Vec<(usize, u32)>, u64, usize);
        let chunk_len = active.len().div_ceil(exec.threads()).max(1);
        let chunks: Vec<ChunkResult> = exec.map_chunks(&active, |base, part| {
            let _batch = if self.trace.batch_spans() {
                Some(
                    self.trace
                        .span_arg("faultsim_batch", (base / chunk_len) as u64),
                )
            } else {
                None
            };
            let mut lane0 = Sweep::<1>::new(&self.tape);
            let mut wide = Sweep::<LANES>::new(&self.tape);
            let mut detections = Vec::new();
            let mut evals = 0u64;
            let mut failed = 0usize;
            // Block-major over the chunk: faults still alive (undetected,
            // not failed) carry over to the next wide block. Per-fault
            // work and results are identical to fault-major order; this
            // order lets each sweep keep one block's good values loaded
            // across the whole fault loop.
            let mut alive: Vec<usize> = part.to_vec();
            'blocks: for (start, good, mask) in &blocks {
                if alive.is_empty() {
                    break;
                }
                lane0.load(good.iter().map(|w| [w[0]]));
                if mask[1] != 0 {
                    wide.load(good.iter().copied());
                }
                let mut kept = Vec::with_capacity(alive.len());
                for &idx in &alive {
                    // Cooperative cancellation: drain at the next fault
                    // boundary. Whatever this chunk found is discarded at
                    // merge time, so breaking early is always consistent.
                    if self.cancel.poll() {
                        break 'blocks;
                    }
                    if let Some(chaos) = &self.chaos {
                        if chaos.fires(ChaosSite::DelayBatch, idx as u64) {
                            std::thread::sleep(chaos.delay);
                        }
                    }
                    let fault = faults[idx];
                    // One fault = one batch: contain any panic to it. The
                    // sweeps are safe to reuse after a mid-propagation
                    // panic because the next injection's undo restores
                    // the current-value array and frontier bitset.
                    let batch = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(chaos) = &self.chaos {
                            if chaos.fires(ChaosSite::WorkerPanic, idx as u64) {
                                // `resume_unwind` skips the panic hook: the
                                // report counts an injected panic, so it
                                // prints nothing. A real panic still prints.
                                resume_unwind(Box::new(format!(
                                    "chaos: injected worker panic at fault {idx}"
                                )));
                            }
                        }
                        // Fast path: most drops happen within the first
                        // 64 patterns of a block, so propagate lane 0
                        // alone (one-lane words, a quarter of the
                        // traffic). Survivors pay one wide pass for the
                        // remaining three lanes together instead of three
                        // one-lane passes.
                        let (det0, mut e) = lane0.detect(fault.into(), [mask[0]]);
                        if det0[0] != 0 {
                            return (Some(*start as u32 + det0[0].trailing_zeros()), e);
                        }
                        if mask[1] != 0 {
                            let tail = [0, mask[1], mask[2], mask[3]];
                            let (det, de) = wide.detect(fault.into(), tail);
                            e += de;
                            if let Some(pattern) = Self::first_detection(*start, &det) {
                                return (Some(pattern), e);
                            }
                        }
                        (None, e)
                    }));
                    match batch {
                        Ok((hit, e)) => {
                            evals += e;
                            match hit {
                                Some(pattern) => detections.push((idx, pattern)),
                                None => kept.push(idx),
                            }
                        }
                        // A failed batch is not retried on later blocks.
                        Err(_) => failed += 1,
                    }
                }
                alive = kept;
            }
            (detections, evals, failed)
        });
        stats.interrupted = self.cancel.is_cancelled();
        for (detections, evals, failed) in chunks {
            stats.gate_evals += evals;
            stats.failed_batches += failed;
            if stats.interrupted {
                // Discard every detection (see SimStats::interrupted).
                continue;
            }
            for (idx, pattern) in detections {
                list.mark_detected(idx, pattern);
                stats.detected += 1;
            }
        }
        self.flush_fault_stats(&stats);
        stats
    }

    fn transition_batch(
        &self,
        pairs: &[(Pattern, Pattern)],
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats {
        let active: Vec<usize> = list.undetected().collect();
        let mut stats = SimStats {
            patterns: pairs.len(),
            faults_simulated: active.len(),
            ..SimStats::default()
        };
        let exec = if active.len() * pairs.len() < PARALLEL_THRESHOLD {
            Executor::serial()
        } else {
            *exec
        };
        let _run = self.trace.span_arg("transition_run", pairs.len() as u64);
        // Wide launch/capture good values per 256-pair block.
        struct Block {
            start: usize,
            good1: Vec<WideWord>,
            good2: Vec<WideWord>,
            mask: WideWord,
        }
        let mut blocks = Vec::new();
        let width = pairs.first().map_or(0, |(launch, _)| launch.len());
        for (b, block) in pairs.chunks(WIDE_PATTERNS).enumerate() {
            let mut w1 = vec![[0u64; LANES]; width];
            let mut w2 = vec![[0u64; LANES]; width];
            for (lane, lane_pairs) in block.chunks(64).enumerate() {
                let launch = pack_bits(lane_pairs.iter().map(|(l, _)| l), width);
                let capture = pack_bits(lane_pairs.iter().map(|(_, c)| c), width);
                for (s, (l, c)) in launch.into_iter().zip(capture).enumerate() {
                    w1[s][lane] = l;
                    w2[s][lane] = c;
                }
            }
            let mut good1 = Vec::new();
            self.tape.eval_wide(&w1, &mut good1);
            self.note_good_pass();
            let mut good2 = Vec::new();
            self.tape.eval_wide(&w2, &mut good2);
            self.note_good_pass();
            blocks.push(Block {
                start: b * WIDE_PATTERNS,
                good1,
                good2,
                mask: GateTape::wide_mask(block.len()),
            });
        }
        let faults = list.faults();
        type ChunkResult = (Vec<(usize, u32)>, u64);
        let chunk_len = active.len().div_ceil(exec.threads()).max(1);
        let chunks: Vec<ChunkResult> = exec.map_chunks(&active, |base, part| {
            let _batch = if self.trace.batch_spans() {
                Some(
                    self.trace
                        .span_arg("transition_batch", (base / chunk_len) as u64),
                )
            } else {
                None
            };
            let mut sweep = Sweep::<LANES>::new(&self.tape);
            let mut out = Vec::new();
            let mut evals = 0u64;
            // Block-major, as in `fault_batch`: faults still undetected
            // carry over to the next block, and the sweep loads each
            // block's capture values once. A fault that is not a
            // transition fault is never simulated.
            let mut alive: Vec<usize> = part
                .iter()
                .copied()
                .filter(|&idx| faults[idx].kind.launch_value().is_some())
                .collect();
            for b in &blocks {
                if alive.is_empty() {
                    break;
                }
                sweep.load(b.good2.iter().copied());
                alive.retain(|&idx| {
                    let fault = faults[idx];
                    // Launch condition: the site holds the pre-transition
                    // value during v1.
                    let lvv = fault.kind.launch_value() == Some(true);
                    let g1 = &b.good1[self.tape.site_position(fault.site)];
                    let launch_ok: WideWord =
                        std::array::from_fn(|l| (if lvv { g1[l] } else { !g1[l] }) & b.mask[l]);
                    if launch_ok.iter().all(|&w| w == 0) {
                        return true;
                    }
                    // The capture cycle sees the late value as stuck at
                    // the pre-transition value.
                    let stuck = Fault {
                        site: fault.site,
                        kind: if fault.kind.stuck_value() {
                            FaultKind::StuckAt1
                        } else {
                            FaultKind::StuckAt0
                        },
                    };
                    let (det, e) = sweep.detect(Defect::StuckAt(stuck), b.mask);
                    evals += e;
                    let det: WideWord = std::array::from_fn(|l| det[l] & launch_ok[l]);
                    match Self::first_detection(b.start, &det) {
                        Some(pair) => {
                            out.push((idx, pair));
                            false
                        }
                        None => true,
                    }
                });
            }
            (out, evals)
        });
        for (detections, evals) in chunks {
            stats.gate_evals += evals;
            for (idx, pattern) in detections {
                list.mark_detected(idx, pattern);
                stats.detected += 1;
            }
        }
        self.flush_transition_stats(&stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeductiveSim, FiveSim};
    use dft_fault::{universe_stuck_at, universe_transition, FaultKind, FaultStatus};
    use dft_netlist::generators::{c17, counter, mac_pe, ripple_adder};
    use dft_netlist::Logic;

    fn first_detections(list: &FaultList) -> Vec<Option<u32>> {
        (0..list.len())
            .map(|i| match list.status(i) {
                FaultStatus::Detected(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn kernels_agree_on_fault_batches_across_threads() {
        // Deductive fault simulation is a different algorithm: the tape
        // must find the same first detecting pattern for every fault, at
        // every worker count.
        for nl in [c17(), ripple_adder(8), counter(6), mac_pe(4)] {
            let ps = PatternSet::random(&nl, 200, 99);
            let faults = universe_stuck_at(&nl);
            let want = DeductiveSim::new(&nl).first_detections(&ps, &faults);
            let tape = TapeKernel::compile(&nl);
            for threads in [1usize, 2, 7] {
                let mut list = FaultList::new(faults.clone());
                let s = tape.fault_batch(&ps, &mut list, &Executor::with_threads(threads));
                assert_eq!(first_detections(&list), want, "{}", nl.name());
                assert_eq!(s.detected, want.iter().flatten().count());
                assert_eq!((s.patterns, s.faults_simulated), (ps.len(), faults.len()));
            }
        }
    }

    #[test]
    fn kernels_agree_on_good_eval() {
        // Five-valued simulation of each pattern alone is the reference.
        for nl in [c17(), counter(5), mac_pe(3)] {
            let ps = PatternSet::random(&nl, 137, 3);
            let five = FiveSim::new(&nl);
            let want: Vec<Response> = ps.iter().map(|p| five.response(p, None)).collect();
            assert_eq!(
                TapeKernel::compile(&nl).eval_batch(&ps),
                want,
                "{}",
                nl.name()
            );
        }
    }

    #[test]
    fn kernels_agree_on_transition_batches() {
        // A pair detects a transition fault iff the launch pattern holds
        // the site at its initial value (five-valued good machine) and the
        // capture pattern detects the matching stuck-at (deductive).
        for nl in [ripple_adder(8), counter(6), mac_pe(4)] {
            let ps = PatternSet::random(&nl, 150, 17);
            let pairs: Vec<(Pattern, Pattern)> = (0..ps.len() - 1)
                .map(|i| (ps.pattern(i).clone(), ps.pattern(i + 1).clone()))
                .collect();
            let faults = universe_transition(&nl);
            let stuck: Vec<Fault> = faults
                .iter()
                .map(|f| Fault {
                    site: f.site,
                    kind: if f.kind.stuck_value() {
                        FaultKind::StuckAt1
                    } else {
                        FaultKind::StuckAt0
                    },
                })
                .collect();
            let five = FiveSim::new(&nl);
            let deductive = DeductiveSim::new(&nl);
            let mut want = vec![None; faults.len()];
            for (i, (launch, capture)) in pairs.iter().enumerate() {
                let assign: Vec<Logic> = launch.iter().map(|&b| Logic::from_bool(b)).collect();
                let launched = five.simulate(&assign, None);
                let detected = deductive.detected(capture, &stuck);
                for (fi, f) in faults.iter().enumerate() {
                    let site = f.site.net(&nl);
                    if want[fi].is_none()
                        && detected[fi]
                        && launched[site.index()].good() == f.kind.launch_value()
                    {
                        want[fi] = Some(i as u32);
                    }
                }
            }
            let tape = TapeKernel::compile(&nl);
            for threads in [1usize, 3] {
                let mut list = FaultList::new(faults.clone());
                let s = tape.transition_batch(&pairs, &mut list, &Executor::with_threads(threads));
                assert_eq!(first_detections(&list), want, "{}", nl.name());
                assert_eq!(s.detected, want.iter().flatten().count());
            }
        }
    }

    #[test]
    fn tape_poisoned_fault_is_isolated() {
        // The chaos harness poisons the batches of the faults it picks by
        // list index: each panics, is counted, and stays undetected, and
        // every other fault keeps its clean-run status.
        let nl = mac_pe(3);
        let ps = PatternSet::random(&nl, 96, 5);
        let faults = universe_stuck_at(&nl);
        let chaos = ChaosConfig::parse("panic=0.02,seed=3").unwrap();
        let mut want = FaultList::new(faults.clone());
        TapeKernel::compile(&nl).fault_batch(&ps, &mut want, &Executor::serial());
        let sim = TapeKernel::compile(&nl).with_chaos(chaos);
        let mut list = FaultList::new(faults.clone());
        let stats = sim.fault_batch(&ps, &mut list, &Executor::with_threads(4));
        let mut poisoned = 0;
        for i in 0..faults.len() {
            if chaos.fires(ChaosSite::WorkerPanic, i as u64) {
                poisoned += 1;
                assert_eq!(list.status(i), FaultStatus::Undetected, "fault {i}");
            } else {
                assert_eq!(list.status(i), want.status(i), "fault {i}");
            }
        }
        assert!(poisoned > 0);
        assert_eq!(stats.failed_batches, poisoned);
    }
}
