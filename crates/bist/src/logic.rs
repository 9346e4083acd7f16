//! Logic BIST: STUMPS-style self-test session.

use dft_fault::{universe_stuck_at, FaultList};
use dft_logicsim::{Executor, PatternSet, SimKernel, TapeKernel};
use dft_metrics::MetricsHandle;
use dft_netlist::Netlist;
use dft_trace::TraceHandle;

use crate::Lfsr;

/// Outcome of a logic-BIST session.
#[derive(Debug, Clone)]
pub struct BistResult {
    /// Patterns applied.
    pub patterns: usize,
    /// Stuck-at fault coverage achieved by the session.
    pub coverage: f64,
    /// The fault-free MISR-style signature (XOR-folded response digest)
    /// that a tester compares against.
    pub signature: u64,
    /// Faults left undetected (random-pattern-resistant residue).
    pub undetected: usize,
}

/// A STUMPS-style logic-BIST controller: an LFSR expands into scan loads,
/// the response digest emulates the MISR.
///
/// The pattern source is modeled at the pattern level (each source bit
/// drawn from the PRPG stream), which is behaviourally equivalent to the
/// hardware PRPG + phase-shifter for coverage purposes.
#[derive(Debug)]
pub struct LogicBist<'a> {
    nl: &'a Netlist,
    prpg_width: u32,
    exec: Executor,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl<'a> LogicBist<'a> {
    /// Creates a controller for `nl` with a `prpg_width`-bit PRPG.
    pub fn new(nl: &'a Netlist, prpg_width: u32) -> LogicBist<'a> {
        LogicBist {
            nl,
            prpg_width,
            exec: Executor::serial(),
            metrics: MetricsHandle::disabled(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Points session/LFSR/MISR cycle counters (and the fault simulators
    /// underneath) at `metrics`.
    pub fn metrics(mut self, metrics: MetricsHandle) -> LogicBist<'a> {
        self.metrics = metrics;
        self
    }

    /// Points span recording at `trace`: each session records an
    /// `lbist_session` span (`arg` = pattern count) around the
    /// fault-simulation and signature spans underneath.
    pub fn trace(mut self, trace: TraceHandle) -> LogicBist<'a> {
        self.trace = trace;
        self
    }

    /// Sets the fault-simulation worker count (`0` = one per hardware
    /// thread, `1` = serial). Coverage, signatures, and weight sets are
    /// bit-identical for any value.
    pub fn threads(mut self, n: usize) -> LogicBist<'a> {
        self.exec = Executor::with_threads(n);
        self
    }

    /// Generates the first `n` PRPG patterns.
    pub fn patterns(&self, n: usize, seed: u64) -> PatternSet {
        let width = self.nl.num_inputs() + self.nl.num_dffs();
        let mut lfsr = Lfsr::new(self.prpg_width, seed);
        let mut ps = PatternSet::new(width);
        for _ in 0..n {
            ps.push(lfsr.bits(width));
        }
        if let Some(m) = self.metrics.get() {
            m.bist_patterns.add(n as u64);
            // One LFSR shift per drawn bit.
            m.lfsr_cycles.add((n * width) as u64);
        }
        ps
    }

    /// Runs a BIST session of `n` patterns: measures stuck-at coverage and
    /// computes the fault-free signature.
    pub fn run(&self, n: usize, seed: u64) -> BistResult {
        let _session = self.trace.span_arg("lbist_session", n as u64);
        if let Some(m) = self.metrics.get() {
            m.bist_sessions.inc();
        }
        let ps = self.patterns(n, seed);
        let sim = TapeKernel::compile(self.nl)
            .with_metrics(self.metrics.clone())
            .with_trace(self.trace.clone());
        let mut list = FaultList::new(universe_stuck_at(self.nl));
        sim.fault_batch(&ps, &mut list, &self.exec);
        let signature = self.signature(&ps);
        BistResult {
            patterns: n,
            coverage: list.fault_coverage(),
            signature,
            undetected: list.len() - list.num_detected(),
        }
    }

    /// Computes the response digest of a pattern set (the fault-free
    /// signature): a rotating XOR fold of all response bits, equivalent in
    /// detection behaviour to a MISR for fully-specified responses.
    pub fn signature(&self, ps: &PatternSet) -> u64 {
        let _span = self.trace.span_arg("misr_signature", ps.len() as u64);
        let sim = TapeKernel::compile(self.nl).with_metrics(self.metrics.clone());
        if let Some(m) = self.metrics.get() {
            // One MISR absorb cycle per response shifted out.
            m.misr_cycles.add(ps.len() as u64);
        }
        let mut sig = 0u64;
        for resp in sim.eval_batch(ps) {
            for (i, bit) in resp.iter().enumerate() {
                sig = sig.rotate_left(1) ^ ((*bit as u64) << (i % 7));
            }
            sig = sig.rotate_left(11);
        }
        sig
    }

    /// Derives a weighted-random *weight set* from the residual faults of
    /// a `base_patterns`-long unweighted session: the still-undetected
    /// faults are targeted with PODEM and each source's weight is the
    /// (Laplace-smoothed) fraction of 1s among the resulting cube care
    /// bits — the industrial "cube-profiling" recipe for weighted LBIST.
    pub fn weight_set_from_residual(
        &self,
        base_patterns: usize,
        seed: u64,
        backtrack_limit: u32,
    ) -> Vec<f64> {
        use dft_atpg::{AtpgResult, Podem};
        let ps = self.patterns(base_patterns, seed);
        let sim = TapeKernel::compile(self.nl).with_metrics(self.metrics.clone());
        let mut list = FaultList::new(universe_stuck_at(self.nl));
        sim.fault_batch(&ps, &mut list, &self.exec);
        let mut podem = Podem::new(self.nl);
        podem.set_metrics(self.metrics.clone());
        let width = self.nl.num_inputs() + self.nl.num_dffs();
        let mut ones = vec![0u32; width];
        let mut cares = vec![0u32; width];
        for idx in list.undetected() {
            let fault = list.faults()[idx];
            if let (AtpgResult::Test(cube), _) = podem.generate(fault, backtrack_limit) {
                for (s, bit) in cube.bits().iter().enumerate() {
                    if let Some(v) = bit {
                        cares[s] += 1;
                        if *v {
                            ones[s] += 1;
                        }
                    }
                }
            }
        }
        ones.iter()
            .zip(&cares)
            .map(|(&o, &c)| (o as f64 + 1.0) / (c as f64 + 2.0))
            .collect()
    }

    /// Generates `n` weighted-random patterns (behavioural model of a
    /// weighted PRPG: bit `s` is 1 with probability `weights[s]`).
    pub fn weighted_patterns(&self, n: usize, seed: u64, weights: &[f64]) -> PatternSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let width = self.nl.num_inputs() + self.nl.num_dffs();
        assert_eq!(weights.len(), width, "weight set width");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = PatternSet::new(width);
        for _ in 0..n {
            ps.push(
                weights
                    .iter()
                    .map(|&w| rng.gen_bool(w.clamp(0.02, 0.98)))
                    .collect(),
            );
        }
        ps
    }

    /// Runs a weighted BIST session (same accounting as [`LogicBist::run`]).
    pub fn run_weighted(&self, n: usize, seed: u64, weights: &[f64]) -> BistResult {
        let _session = self.trace.span_arg("lbist_weighted_session", n as u64);
        if let Some(m) = self.metrics.get() {
            m.bist_sessions.inc();
            m.bist_patterns.add(n as u64);
        }
        let ps = self.weighted_patterns(n, seed, weights);
        let sim = TapeKernel::compile(self.nl)
            .with_metrics(self.metrics.clone())
            .with_trace(self.trace.clone());
        let mut list = FaultList::new(universe_stuck_at(self.nl));
        sim.fault_batch(&ps, &mut list, &self.exec);
        BistResult {
            patterns: n,
            coverage: list.fault_coverage(),
            signature: self.signature(&ps),
            undetected: list.len() - list.num_detected(),
        }
    }

    /// Coverage as a function of pattern count, evaluated at the given
    /// checkpoints (shares fault-dropping work across checkpoints).
    pub fn coverage_curve(&self, checkpoints: &[usize], seed: u64) -> Vec<(usize, f64)> {
        let max = checkpoints.iter().copied().max().unwrap_or(0);
        let ps = self.patterns(max, seed);
        let sim = TapeKernel::compile(self.nl).with_metrics(self.metrics.clone());
        let mut list = FaultList::new(universe_stuck_at(self.nl));
        sim.fault_batch(&ps, &mut list, &self.exec);
        // First-detection indices give the whole curve in one pass.
        checkpoints
            .iter()
            .map(|&n| {
                let detected = (0..list.len())
                    .filter(|&i| match list.status(i) {
                        dft_fault::FaultStatus::Detected(p) => (p as usize) < n,
                        _ => false,
                    })
                    .count();
                (n, detected as f64 / list.len().max(1) as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{universe_stuck_at, FaultList};
    use dft_netlist::generators::{decoder, parity_tree};
    use dft_netlist::GateKind;

    #[test]
    fn parity_tree_reaches_high_coverage_fast() {
        let nl = parity_tree(16);
        let bist = LogicBist::new(&nl, 32);
        let r = bist.run(128, 0xB00);
        assert!(r.coverage > 0.95, "coverage {}", r.coverage);
    }

    #[test]
    fn decoder_is_random_resistant() {
        let nl = decoder(6);
        let bist = LogicBist::new(&nl, 32);
        let short = bist.run(64, 0xB01);
        let long = bist.run(2048, 0xB01);
        assert!(long.coverage > short.coverage);
        // Even 2k patterns struggle with 1-of-64 decodes plus enable.
        assert!(short.coverage < 0.999);
    }

    #[test]
    fn signature_distinguishes_seeds_and_is_stable() {
        let nl = parity_tree(8);
        let bist = LogicBist::new(&nl, 24);
        let r1 = bist.run(64, 1);
        let r2 = bist.run(64, 1);
        let r3 = bist.run(64, 2);
        assert_eq!(r1.signature, r2.signature);
        assert_ne!(r1.signature, r3.signature);
    }

    #[test]
    fn weighted_session_lifts_residual_coverage_on_decoder() {
        // Industrial usage: a flat session first, then a weighted session
        // aimed at the residue. The two-session coverage must beat an
        // all-flat budget of the same total length. The canonical
        // weighted-random showcase: wide AND/OR gates whose controlling
        // cubes random patterns essentially never hit (p = 2^-24).
        let mut nl = dft_netlist::Netlist::new("wide");
        let ins: Vec<_> = (0..24).map(|i| nl.add_input(&format!("x{i}"))).collect();
        let and = nl.add_gate(GateKind::And, ins.clone(), "wide_and");
        let or = nl.add_gate(GateKind::Or, ins, "wide_or");
        nl.add_output(and, "po_and");
        nl.add_output(or, "po_or");
        let bist = LogicBist::new(&nl, 32);
        let sim = TapeKernel::compile(&nl);
        let exec = Executor::serial();

        let all_flat = {
            let ps = bist.patterns(512, 0xAA);
            let mut list = FaultList::new(universe_stuck_at(&nl));
            sim.fault_batch(&ps, &mut list, &exec);
            list.fault_coverage()
        };
        let mixed = {
            let mut list = FaultList::new(universe_stuck_at(&nl));
            sim.fault_batch(&bist.patterns(256, 0xAA), &mut list, &exec);
            let weights = bist.weight_set_from_residual(256, 0xAA, 64);
            sim.fault_batch(
                &bist.weighted_patterns(256, 0xAB, &weights),
                &mut list,
                &exec,
            );
            list.fault_coverage()
        };
        assert!(
            mixed >= all_flat,
            "all-flat {all_flat} vs flat+weighted {mixed}"
        );
    }

    #[test]
    fn weight_set_shape_matches_structure() {
        // The decoder's enable input should get a high weight (every
        // residual cube wants en=1).
        let nl = decoder(6);
        let bist = LogicBist::new(&nl, 32);
        let weights = bist.weight_set_from_residual(64, 0x5, 64);
        let en_idx = nl
            .combinational_sources()
            .iter()
            .position(|&s| s == nl.find("en").unwrap())
            .unwrap();
        assert!(weights[en_idx] > 0.6, "en weight {}", weights[en_idx]);
    }

    #[test]
    fn coverage_curve_is_monotonic() {
        let nl = decoder(4);
        let bist = LogicBist::new(&nl, 32);
        let curve = bist.coverage_curve(&[16, 64, 256, 1024], 5);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "curve must not decrease: {curve:?}");
        }
        assert!(curve.last().unwrap().1 > curve[0].1);
    }
}
