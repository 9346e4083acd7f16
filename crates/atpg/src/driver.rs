//! The production-shaped ATPG flow: random phase, deterministic top-off,
//! reverse-order compaction, and sign-off fault simulation, for stuck-at
//! or broadside transition faults ([`FaultModel`]).
//!
//! There is one execution path, and it is durable: [`Atpg::run_durable`]
//! polls a [`dft_checkpoint::CancelToken`] at fault boundaries, applies
//! per-phase deadlines, appends periodic `aidft-ckpt-v3` journal
//! checkpoints, and resumes from a prior checkpoint to a
//! **bit-identical** final result. [`Atpg::run`] is the same path with
//! [`Durability::default`]: a token that never fires and no journal,
//! which costs a few atomic loads per fault. Checkpoints are only ever
//! taken at consistent boundaries (between faults, between phases); an
//! interrupted fault-simulation pass is wholly discarded, so a resumed
//! run re-executes it deterministically.
//!
//! Top-off is fault-parallel (Patil & Banerjee, ITC 1989) and still
//! deterministic: workers search top-off's targets ahead of their
//! turn, and one committing thread applies the results strictly in
//! target order, discarding a result whose target an earlier commit
//! detected. Every output, counter and checkpoint is the same for any
//! [`AtpgConfig::threads`].

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dft_checkpoint::{
    fnv1a, verify_identity, CancelToken, ChaosConfig, ChaosSite, CkptError, FramedJournal,
};
use dft_fault::{
    collapse_equivalent, universe_stuck_at, universe_transition, Fault, FaultList, FaultStatus,
};
use dft_logicsim::{Executor, PatternSet, SimKernel, SimStats, TapeKernel, TestCube};
use dft_metrics::MetricsHandle;
use dft_netlist::{GateId, Netlist};
use dft_trace::TraceHandle;

use crate::speculate::{Board, StopOnDrop};
use crate::{
    expand_two_frames, reverse_order_compaction, AtpgResult, CkptPhase, CkptState, Podem,
    PodemStats, SatAtpg, TwoFrame, SAT_CONFLICT_BUDGET,
};

/// The faults a run targets, and what a pattern of the run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultModel {
    /// Single stuck-at faults, equivalence-collapsed; a pattern is one
    /// scan pattern.
    #[default]
    StuckAt,
    /// Broadside (launch-on-capture) transition faults on every stem. A
    /// pattern is the scan-loaded launch vector, and the capture vector
    /// is the design's response to it with the primary inputs held
    /// ([`TapeKernel::broadside_pairs`]). PODEM and SAT search the
    /// two-frame expansion ([`expand_two_frames`]) with the site's
    /// frame-1 launch value as a constraint.
    Transition,
}

impl FaultModel {
    fn universe(self, nl: &Netlist) -> Vec<Fault> {
        match self {
            FaultModel::StuckAt => universe_stuck_at(nl),
            FaultModel::Transition => universe_transition(nl),
        }
    }

    /// Fault-simulates `patterns` against the undetected faults in
    /// `list`: [`SimKernel::fault_batch`], or
    /// [`SimKernel::transition_batch`] on the broadside pairs `sim`
    /// derives from them.
    pub(crate) fn simulate(
        self,
        sim: &TapeKernel<'_>,
        patterns: &PatternSet,
        list: &mut FaultList,
        exec: &Executor,
    ) -> SimStats {
        match self {
            FaultModel::StuckAt => sim.fault_batch(patterns, list, exec),
            FaultModel::Transition => {
                sim.transition_batch(&sim.broadside_pairs(patterns), list, exec)
            }
        }
    }
}

/// How the driver compacts the test set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionMode {
    /// The random prefix plus one pattern per generated cube, signed off
    /// as generated.
    None,
    /// After top-off, one reverse-order fault simulation of the whole set
    /// against the full fault universe keeps only the patterns that
    /// are some fault's first detector in that order (see
    /// [`reverse_order_compaction`]). The kept set detects exactly the
    /// faults the whole set does.
    #[default]
    Static,
    /// Multi-target cube filling during generation (each cube is extended
    /// with tests for additional faults before fill), then the
    /// [`CompactionMode::Static`] pass.
    Dynamic,
}

/// Secondary targets attempted per cube under
/// [`CompactionMode::Dynamic`].
const DYNAMIC_TARGETS: usize = 16;

/// Configuration of an ATPG run.
#[derive(Debug, Clone)]
pub struct AtpgConfig {
    /// The faults targeted: stuck-at (the default) or broadside
    /// transition.
    pub fault_model: FaultModel,
    /// Number of random patterns simulated before deterministic top-off.
    /// Zero disables the random phase.
    pub random_patterns: usize,
    /// Seed for random patterns and cube fill.
    pub seed: u64,
    /// PODEM backtrack limit per fault. A target PODEM aborts goes to the
    /// SAT engine, so the limit trades PODEM time against SAT calls, not
    /// coverage.
    pub backtrack_limit: u32,
    /// Test-set compaction mode.
    pub compaction: CompactionMode,
    /// Use SCOAP-guided backtrace (`false` = naive; the E3 ablation).
    pub guided_backtrace: bool,
    /// Worker threads for the fault-simulation phases and for top-off's
    /// test generation: `0` = one per hardware thread, `1` = serial. Any
    /// value produces bit-identical results (see
    /// [`dft_logicsim::Executor`]; top-off searches targets ahead of
    /// their turn and commits the results in target order).
    pub threads: usize,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            fault_model: FaultModel::StuckAt,
            random_patterns: 128,
            seed: 0x5EED,
            backtrack_limit: 16,
            compaction: CompactionMode::Static,
            guided_backtrace: true,
            threads: 0,
        }
    }
}

impl AtpgConfig {
    /// The default configuration, as a builder seed: chain the setters
    /// below, e.g. `AtpgConfig::new().random_patterns(64).threads(8)`.
    /// All fields remain public for direct struct updates.
    pub fn new() -> AtpgConfig {
        AtpgConfig::default()
    }

    /// Sets the targeted fault model.
    pub fn fault_model(mut self, model: FaultModel) -> AtpgConfig {
        self.fault_model = model;
        self
    }

    /// Sets the number of random patterns before deterministic top-off.
    pub fn random_patterns(mut self, n: usize) -> AtpgConfig {
        self.random_patterns = n;
        self
    }

    /// Sets the seed for random patterns and cube fill.
    pub fn seed(mut self, seed: u64) -> AtpgConfig {
        self.seed = seed;
        self
    }

    /// Sets the PODEM backtrack limit per fault.
    pub fn backtrack_limit(mut self, limit: u32) -> AtpgConfig {
        self.backtrack_limit = limit;
        self
    }

    /// Sets the test-set compaction mode.
    pub fn compaction(mut self, mode: CompactionMode) -> AtpgConfig {
        self.compaction = mode;
        self
    }

    /// Enables or disables SCOAP-guided backtrace.
    pub fn guided_backtrace(mut self, guided: bool) -> AtpgConfig {
        self.guided_backtrace = guided;
        self
    }

    /// Sets the fault-simulation and top-off worker count (`0` = auto,
    /// `1` = serial).
    pub fn threads(mut self, n: usize) -> AtpgConfig {
        self.threads = n;
        self
    }

    /// [`fnv1a`] fingerprint (FNV-1a in form, multiplier
    /// `0x1000_0000_01B3`) of every knob that affects the *result* of a
    /// run, plus the design name and fault-universe size. Stored in each
    /// checkpoint; resume refuses a mismatch, because replaying with a
    /// different seed or search limit would silently diverge from the
    /// original run. `threads` is excluded, since any thread count
    /// produces bit-identical results, and so is everything on
    /// [`Durability`]: a resumed run may legitimately use another
    /// checkpoint cadence or drop the deadline that interrupted it. The
    /// slot after `guided_backtrace` holds dynamic compaction's target
    /// count (a constant 16), so checkpoints written while it was
    /// configurable still resume. The last two slots name the engine
    /// behind PODEM and its conflict budget, so a checkpoint of a run
    /// that settled aborts another way is refused. A transition run
    /// appends a slot naming its model, so a checkpoint never resumes a
    /// run of the other model; stuck-at runs have no such slot, so their
    /// checkpoints written before the model was configurable still
    /// resume.
    pub fn fingerprint(&self, design: &str, universe_len: usize) -> u64 {
        let mut text = format!(
            "{design}|{universe_len}|{}|{}|{}|{:?}|{}|{DYNAMIC_TARGETS}|sat|{SAT_CONFLICT_BUDGET}",
            self.random_patterns,
            self.seed,
            self.backtrack_limit,
            self.compaction,
            self.guided_backtrace,
        );
        if self.fault_model == FaultModel::Transition {
            text.push_str("|transition");
        }
        fnv1a(text.as_bytes())
    }
}

/// Counters and results of a full ATPG run.
#[derive(Debug)]
pub struct AtpgRun {
    /// The final pattern set: the random and deterministic patterns that
    /// compaction kept, in generation order.
    pub patterns: PatternSet,
    /// Status of every fault in the *full* (uncollapsed) universe after
    /// sign-off fault simulation of `patterns`.
    pub fault_list: FaultList,
    /// The cubes of the kept deterministic patterns, in pattern order,
    /// for the compression crate.
    pub cubes: Vec<TestCube>,
    /// Faults detected by the random phase (collapsed universe).
    pub random_detected: usize,
    /// Faults detected during deterministic top-off (collapsed universe).
    pub deterministic_detected: usize,
    /// Collapsed faults proven untestable.
    pub untestable: usize,
    /// Collapsed faults left aborted: the SAT engine exhausted its
    /// conflict budget, or a test failed its fault-simulation check.
    pub aborted: usize,
    /// PODEM-aborted targets handed to the SAT engine.
    pub escalated: usize,
    /// Escalated targets the SAT engine resolved (a confirmed test or
    /// an untestability proof) instead of leaving them aborted.
    pub rescued: usize,
    /// Fault-simulation batches lost to an isolated worker panic across
    /// every sim pass of the run (see
    /// [`dft_logicsim::SimStats::failed_batches`]). Always zero in a
    /// healthy run.
    pub failed_sim_batches: usize,
    /// Aggregate PODEM effort.
    pub podem: PodemStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Wall-clock time of the run's setup: fault-universe enumeration,
    /// equivalence collapsing, and building the search engines (the
    /// two-frame expansion, PODEM and SAT).
    pub setup_time: Duration,
    /// Wall-clock time spent compiling the simulation kernel (tape
    /// levelization and layout; paid once per run, before phase 1).
    pub compile_time: Duration,
    /// Wall-clock time of the random-pattern phase (phase 1).
    pub random_time: Duration,
    /// Wall-clock time of deterministic top-off and compaction (phase 2).
    pub deterministic_time: Duration,
    /// Wall-clock time of the sign-off fault simulation.
    pub signoff_time: Duration,
}

impl AtpgRun {
    /// Test coverage (detected / (total - untestable)) on the full
    /// universe.
    pub fn test_coverage(&self) -> f64 {
        self.fault_list.test_coverage()
    }
}

/// Top-off classification counters, restored as a unit around each
/// fault under durable execution and recorded in every checkpoint
/// ([`CkptState::tally`]). The final values are [`AtpgRun`]'s fields of
/// the same names.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopoffTally {
    /// Collapsed faults proven untestable.
    pub untestable: usize,
    /// Collapsed faults left aborted.
    pub aborted: usize,
    /// PODEM-aborted targets handed to the SAT engine.
    pub escalated: usize,
    /// Escalated targets the SAT engine resolved.
    pub rescued: usize,
}

/// Durable-execution controls for [`Atpg::run_durable`]: the
/// cancellation token, the per-phase deadline, the checkpoint journal
/// and cadence, the chaos harness, and an optional checkpoint to resume
/// from. The default is what [`Atpg::run`] uses: a token that never
/// fires, no deadline, no journal.
#[derive(Debug)]
pub struct Durability {
    cancel: CancelToken,
    /// Per-phase deadline in milliseconds (0 = none).
    deadline_ms: u64,
    journal: Option<FramedJournal>,
    /// Checkpoint cadence: a record every N top-off faults (0 = phase
    /// boundaries only).
    every_faults: u64,
    chaos: Option<ChaosConfig>,
    resume: Option<CkptState>,
    seq: u64,
    has_record: bool,
    write_failures: u64,
}

impl Default for Durability {
    fn default() -> Durability {
        Durability::new(CancelToken::new())
    }
}

impl Durability {
    /// Durability with `cancel` as the interrupt source, no journal, and
    /// the default checkpoint cadence (every 64 top-off faults once a
    /// journal is attached).
    pub fn new(cancel: CancelToken) -> Durability {
        Durability {
            cancel,
            deadline_ms: 0,
            journal: None,
            every_faults: 64,
            chaos: None,
            resume: None,
            seq: 0,
            has_record: false,
            write_failures: 0,
        }
    }

    /// Sets the per-phase wall-clock deadline in milliseconds (`0` =
    /// none). Each phase — random, top-off, sign-off — re-arms the
    /// deadline on entry; when it expires the run drains cooperatively
    /// at the next fault boundary, writes a checkpoint, and returns
    /// [`AtpgError::Interrupted`] with [`AtpgInterrupt::deadline`] set.
    pub fn deadline_ms(mut self, ms: u64) -> Durability {
        self.deadline_ms = ms;
        self
    }

    /// Attaches a checkpoint journal — a [`FramedJournal`] opened with
    /// [`crate::CKPT_FORMAT`]; the run appends periodic
    /// [`CkptState`] records and a final one on interruption. Torn and
    /// rotted writes come from the journal's own disk chaos
    /// ([`FramedJournal::with_disk_chaos`]).
    pub fn with_journal(mut self, journal: FramedJournal) -> Durability {
        self.journal = Some(journal);
        self
    }

    /// Sets the checkpoint cadence in top-off faults (`0` = checkpoints
    /// only at phase boundaries and on interruption).
    pub fn checkpoint_every(mut self, faults: u64) -> Durability {
        self.every_faults = faults;
        self
    }

    /// Attaches the chaos harness: deadline clock skips inject here;
    /// worker panics and batch delays are forwarded to the fault
    /// simulator.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Durability {
        self.chaos = chaos.is_active().then_some(chaos);
        self
    }

    /// Resumes from `state` (typically [`CkptState::load_last`])
    /// instead of starting fresh. The run verifies the design name and
    /// configuration fingerprint before touching any state and refuses
    /// a mismatch with [`AtpgError::Resume`].
    pub fn resume_from(mut self, state: CkptState) -> Durability {
        self.resume = Some(state);
        self
    }

    /// The shared cancellation token (clone it into signal handlers).
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Checkpoint writes that failed (disk chaos or real I/O). The
    /// run continues past a failed periodic write — the journal still
    /// holds the previous record.
    pub fn checkpoint_write_failures(&self) -> u64 {
        self.write_failures
    }
}

/// What an interrupted durable run managed to save.
#[derive(Debug)]
pub struct AtpgInterrupt {
    /// Journal holding a complete resume checkpoint, when one was
    /// written. `None` when the run had no journal or every final write
    /// attempt failed.
    pub checkpoint: Option<PathBuf>,
    /// `true` when a phase deadline (rather than an explicit cancel)
    /// fired the token.
    pub deadline: bool,
    /// Patterns accumulated at the interrupt point.
    pub patterns: usize,
    /// Collapsed faults detected at the interrupt point.
    pub detected: usize,
    /// Size of the collapsed fault list.
    pub total_faults: usize,
    /// Phase that observed the interrupt: `random`, `topoff` (the
    /// compaction pass included), or `signoff`.
    pub phase: &'static str,
}

/// Why a durable run returned early.
#[derive(Debug)]
pub enum AtpgError {
    /// The cancellation token fired (signal or phase deadline); the run
    /// drained cleanly at a fault boundary and checkpointed.
    Interrupted(AtpgInterrupt),
    /// The resume checkpoint could not be used (wrong design, wrong
    /// configuration, or wrong shape).
    Resume(CkptError),
}

/// `interrupted in <phase> phase (<cause>): <detected>/<total> faults
/// detected, <n> patterns`, the cause being `phase deadline` or
/// `cancelled`; whoever reports it names the run and the checkpoint.
impl fmt::Display for AtpgInterrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cause = if self.deadline {
            "phase deadline"
        } else {
            "cancelled"
        };
        write!(
            f,
            "interrupted in {} phase ({cause}): {}/{} faults detected, {} patterns",
            self.phase, self.detected, self.total_faults, self.patterns
        )
    }
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::Interrupted(i) => {
                write!(f, "ATPG {i}")?;
                match &i.checkpoint {
                    Some(path) => write!(f, "; checkpoint at {}", path.display()),
                    None => write!(f, "; no checkpoint written"),
                }
            }
            AtpgError::Resume(e) => write!(f, "cannot resume: {e}"),
        }
    }
}

impl std::error::Error for AtpgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AtpgError::Resume(e) => Some(e),
            AtpgError::Interrupted(_) => None,
        }
    }
}

/// The mutable frontier of a run — everything a checkpoint must capture
/// and a resume must restore.
struct Working {
    /// The collapsed fault list. A detection's pattern index refers to
    /// the set as generated, before compaction.
    reps: FaultList,
    patterns: PatternSet,
    /// One cube per deterministic pattern: `cubes[j]` generated pattern
    /// `patterns.len() - cubes.len() + j`, after the random prefix.
    cubes: Vec<TestCube>,
    tally: TopoffTally,
    fill_seed: u64,
    fault_ordinal: u64,
    random_detected: usize,
    podem: PodemStats,
    failed_sim_batches: usize,
}

impl Working {
    /// Keeps pattern `i` where `keep[i]`, together with its cube.
    fn retain(&mut self, keep: &[bool]) {
        let mut patterns = PatternSet::new(self.patterns.width());
        for (p, _) in self.patterns.iter().zip(keep).filter(|(_, &k)| k) {
            patterns.push(p.clone());
        }
        let mut cube_kept = keep[self.patterns.len() - self.cubes.len()..].iter();
        self.cubes
            .retain(|_| *cube_kept.next().expect("one flag per cube"));
        self.patterns = patterns;
    }
}

/// Per-run durable context: the caller's [`Durability`] plus the run
/// identity a checkpoint records.
struct DurCtx<'d> {
    d: &'d mut Durability,
    design: String,
    config_hash: u64,
    seed: u64,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl DurCtx<'_> {
    /// Arms the per-phase deadline on phase entry (no-op for a zero
    /// budget).
    fn arm(&self) {
        if self.d.deadline_ms != 0 {
            self.d
                .cancel
                .arm_deadline(Duration::from_millis(self.d.deadline_ms));
        }
    }

    fn state_of(&self, phase: CkptPhase, w: &Working) -> CkptState {
        CkptState {
            design: self.design.clone(),
            config_hash: self.config_hash,
            phase,
            seed: self.seed,
            fill_seed: w.fill_seed,
            fault_ordinal: w.fault_ordinal,
            random_detected: w.random_detected,
            failed_sim_batches: w.failed_sim_batches,
            podem: w.podem,
            tally: w.tally,
            statuses: (0..w.reps.len()).map(|i| w.reps.status(i)).collect(),
            patterns: w.patterns.clone(),
            cubes: w.cubes.clone(),
        }
    }

    /// Appends one checkpoint record. Returns `true` on success; a
    /// failed write is counted and survived — the journal still holds
    /// the previous record.
    fn write(&mut self, phase: CkptPhase, w: &Working) -> bool {
        let Some(journal) = self.d.journal.clone() else {
            return false;
        };
        self.d.seq += 1;
        let seq = self.d.seq;
        let _span = self.trace.span_arg("ckpt_write", seq);
        if let Some(chaos) = self.d.chaos {
            if chaos.fires(ChaosSite::ClockSkip, seq) {
                self.d.cancel.skip_clock(chaos.clock_skip);
                if let Some(m) = self.metrics.get() {
                    m.chaos_clock_skips.inc();
                }
            }
        }
        let state = self.state_of(phase, w);
        let t0 = Instant::now();
        match journal.append(seq, &state.to_body()) {
            Ok(bytes) => {
                self.d.has_record = true;
                if let Some(m) = self.metrics.get() {
                    m.ckpt_writes.inc();
                    m.ckpt_bytes.add(bytes);
                    m.t_ckpt_write.record(t0.elapsed());
                }
                true
            }
            Err(_) => {
                self.d.write_failures += 1;
                if let Some(m) = self.metrics.get() {
                    m.ckpt_write_failures.inc();
                }
                false
            }
        }
    }

    /// The interrupt-time record must land if at all possible: retry a
    /// few times, each attempt under a fresh sequence number (so a
    /// disk-chaos failure rolls fresh dice).
    fn write_final(&mut self, phase: CkptPhase, w: &Working) {
        if self.d.journal.is_none() {
            return;
        }
        for _ in 0..3 {
            if self.write(phase, w) {
                return;
            }
        }
    }

    /// Builds the interrupt error for a drained run: writes the final
    /// checkpoint and reports where (and why) the run stopped.
    fn interrupt(
        &mut self,
        phase_name: &'static str,
        ckpt_phase: CkptPhase,
        w: &Working,
    ) -> AtpgError {
        if let Some(m) = self.metrics.get() {
            m.cancel_requests.inc();
        }
        self.write_final(ckpt_phase, w);
        AtpgError::Interrupted(AtpgInterrupt {
            checkpoint: if self.d.has_record {
                self.d.journal.as_ref().map(|j| j.path().to_path_buf())
            } else {
                None
            },
            deadline: self.d.cancel.deadline_exceeded(),
            patterns: w.patterns.len(),
            detected: w.reps.num_detected(),
            total_faults: w.reps.len(),
            phase: phase_name,
        })
    }
}

/// What searching one top-off target produced, held until its commit.
struct Resolved {
    /// The answer: PODEM's, or the SAT engine's after an escalation.
    result: AtpgResult,
    podem: PodemStats,
    /// The SAT call's conflicts and wall-clock, when PODEM aborted and
    /// the target escalated.
    escalation: Option<(u64, Duration)>,
    /// Search wall-clock, charged to `t_atpg_discarded` when the result
    /// is never committed.
    elapsed: Duration,
}

/// One top-off worker's engines: PODEM, and the SAT engine its aborts
/// escalate to. Each keeps its buffers from target to target.
struct Engines<'n> {
    podem: Podem<'n>,
    sat: SatAtpg<'n>,
}

/// Top-off's targets and how to search one.
struct TopoffSearch<'r, 'n> {
    config: &'r AtpgConfig,
    design: &'n Netlist,
    /// The netlist a transition run searches; `None` for stuck-at.
    expanded: Option<&'n TwoFrame>,
    trace: &'r TraceHandle,
    /// The faults undetected when top-off starts, in list order, as
    /// `(index in the fault list, fault)`.
    targets: Vec<(usize, Fault)>,
    /// Fault ordinal of the first target; target `j` is
    /// trace-sampled as ordinal `base + j`, which any worker can compute
    /// without knowing what earlier commits will discard.
    base: u64,
}

impl TopoffSearch<'_, '_> {
    /// `fault` as PODEM and SAT search it, with the net value a test must
    /// also set: the fault itself, or a transition fault's frame-2
    /// stuck-at fault and its frame-1 launch value.
    fn target(&self, fault: Fault) -> (Fault, Option<(GateId, bool)>) {
        match self.expanded {
            None => (fault, None),
            Some(tf) => {
                let (stuck, launch) = tf.target(self.design, fault);
                (stuck, Some(launch))
            }
        }
    }

    /// Searches target `j` on a worker's engines: PODEM, then the SAT
    /// engine on a PODEM abort. A pure function of the netlist, the
    /// configuration and the fault, so any worker may run it ahead of
    /// the target's turn; nothing is recorded but a sampled trace span,
    /// which covers the PODEM attempt and any SAT call.
    fn resolve(&self, engines: &mut Engines<'_>, j: usize) -> Resolved {
        let Engines { podem, sat } = engines;
        let started = Instant::now();
        let (idx, fault) = self.targets[j];
        let sampled = self.trace.fault_sampled(self.base + j as u64);
        let _span = sampled.then(|| self.trace.span_arg("podem", idx as u64));
        let (fault, launch) = self.target(fault);
        let constraints = launch.as_slice();
        let (result, podem_stats) =
            podem.search(fault, constraints, self.config.backtrack_limit, None);
        let (result, escalation) = match result {
            AtpgResult::Aborted => {
                let _span = sampled.then(|| self.trace.span_arg("sat", idx as u64));
                let sat_started = Instant::now();
                let (result, conflicts) = sat.generate(fault, constraints, SAT_CONFLICT_BUDGET);
                (result, Some((conflicts, sat_started.elapsed())))
            }
            other => (other, None),
        };
        Resolved {
            result,
            podem: podem_stats,
            escalation,
            elapsed: started.elapsed(),
        }
    }
}

/// The ATPG driver bound to one netlist.
#[derive(Debug)]
pub struct Atpg<'a> {
    nl: &'a Netlist,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl<'a> Atpg<'a> {
    /// Creates a driver for `nl`.
    pub fn new(nl: &'a Netlist) -> Atpg<'a> {
        Atpg {
            nl,
            metrics: MetricsHandle::disabled(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Points run counters, phase timers, and the engines underneath
    /// (PODEM, fault simulation) at `metrics`.
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Atpg<'a> {
        self.metrics = metrics;
        self
    }

    /// Points span recording at `trace`: the run records
    /// `atpg_setup`/`sim_compile`/`atpg_random`/`atpg_topoff`/`atpg_signoff`
    /// phase spans (whose durations are what [`AtpgRun`] reports, so
    /// phase times and trace spans always agree), sampled per-fault
    /// `podem`/`sat` spans, and the fault-simulation spans underneath.
    /// Durable runs add a `ckpt_write` span per journal append.
    pub fn with_trace(mut self, trace: TraceHandle) -> Atpg<'a> {
        self.trace = trace;
        self
    }

    /// Runs the full flow on the universe of
    /// [`AtpgConfig::fault_model`]: [`Atpg::run_durable`] with
    /// [`Durability::default`].
    pub fn run(&self, config: &AtpgConfig) -> AtpgRun {
        match self.run_durable(config, &mut Durability::default()) {
            Ok(run) => run,
            // Nothing fires the default token and there is no resume
            // state, so neither error can occur.
            Err(e) => unreachable!("ATPG run without a cancellation source cannot fail: {e}"),
        }
    }

    /// Runs the full flow durably on the universe of
    /// [`AtpgConfig::fault_model`]: the token in `dur` is polled at
    /// fault boundaries, phase deadlines
    /// apply, checkpoints stream to the journal, and a fired token
    /// drains the run into [`AtpgError::Interrupted`]. A run resumed
    /// via [`Durability::resume_from`] replays to a result
    /// bit-identical to the uninterrupted run.
    pub fn run_durable(
        &self,
        config: &AtpgConfig,
        dur: &mut Durability,
    ) -> Result<AtpgRun, AtpgError> {
        let model = config.fault_model;
        let start = Instant::now();
        let exec = Executor::with_threads(config.threads);
        // Setup: the fault universe and its collapse, then top-off's
        // engines, on the design or its two-frame expansion: a PODEM
        // engine and a SAT engine per worker (the first pair is the
        // committing thread's), each reused from target to target.
        let t_setup = self.trace.timed_span("atpg_setup");
        let universe = model.universe(self.nl);
        let collapsed = collapse_equivalent(self.nl, &universe);
        let expanded = (model == FaultModel::Transition).then(|| expand_two_frames(self.nl));
        let search_nl = expanded.as_ref().map_or(self.nl, |tf| &tf.netlist);
        let mut engines: Vec<Engines> = (0..exec.threads())
            .map(|_| {
                let mut podem = Podem::new(search_nl);
                podem.guided = config.guided_backtrace;
                podem.set_metrics(self.metrics.clone());
                podem.set_cancel(dur.cancel.clone());
                let mut sat = SatAtpg::new(search_nl);
                sat.set_cancel(dur.cancel.clone());
                Engines { podem, sat }
            })
            .collect();
        let setup_time = t_setup.finish();
        let mut dur = DurCtx {
            design: self.nl.name().to_owned(),
            config_hash: config.fingerprint(self.nl.name(), universe.len()),
            seed: config.seed,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            d: dur,
        };
        // Compile the simulation kernel once per run; the span is the
        // timing source for the reported compile phase.
        let t_compile = self.trace.timed_span("sim_compile");
        let compiled = TapeKernel::compile(self.nl);
        let compile_time = t_compile.finish();
        let mut sim = compiled
            .with_metrics(self.metrics.clone())
            .with_trace(self.trace.clone())
            .with_cancel(dur.d.cancel.clone());
        if let Some(chaos) = dur.d.chaos {
            sim = sim.with_chaos(chaos);
        }
        let sim = sim;

        let mut w = Working {
            reps: FaultList::new(collapsed.representatives().to_vec()),
            patterns: PatternSet::for_netlist(self.nl),
            cubes: Vec::new(),
            tally: TopoffTally::default(),
            fill_seed: config.seed ^ 0xF111,
            fault_ordinal: 0,
            random_detected: 0,
            podem: PodemStats::default(),
            failed_sim_batches: 0,
        };

        // Resume: verify the checkpoint's identity, then restore the
        // frontier. `Init` means nothing durable happened before the
        // interrupt — rerun from scratch.
        let mut resume_signoff = false;
        let mut restored = false;
        if let Some(state) = dur.d.resume.take() {
            verify_identity(
                &state.design,
                state.config_hash,
                &dur.design,
                dur.config_hash,
            )
            .map_err(AtpgError::Resume)?;
            let shape = |faults: usize, patterns: &PatternSet| {
                format!("{faults} faults x {} bits", patterns.width())
            };
            if state.statuses.len() != w.reps.len() || state.patterns.width() != w.patterns.width()
            {
                return Err(AtpgError::Resume(CkptError::Mismatch {
                    what: "shape",
                    expected: shape(state.statuses.len(), &state.patterns),
                    found: shape(w.reps.len(), &w.patterns),
                }));
            }
            if state.phase != CkptPhase::Init {
                for (i, &status) in state.statuses.iter().enumerate() {
                    w.reps.set_status(i, status);
                }
                resume_signoff = state.phase == CkptPhase::Signoff;
                restored = true;
                w = Working {
                    reps: w.reps,
                    patterns: state.patterns,
                    cubes: state.cubes,
                    tally: state.tally,
                    fill_seed: state.fill_seed,
                    fault_ordinal: state.fault_ordinal,
                    random_detected: state.random_detected,
                    podem: state.podem,
                    failed_sim_batches: state.failed_sim_batches,
                };
            }
            dur.d.has_record = true;
            if let Some(m) = self.metrics.get() {
                m.ckpt_resumes.inc();
            }
        }

        // Phase 1: random patterns with fault dropping. The phase span
        // is the timing source, so the reported time and the trace span
        // are one measurement. Skipped on resume — the checkpointed
        // frontier already includes the random-phase detections.
        let t_random = self.trace.timed_span("atpg_random");
        if !restored {
            dur.arm();
            if config.random_patterns > 0 {
                let random = PatternSet::random(self.nl, config.random_patterns, config.seed);
                let stats = model.simulate(&sim, &random, &mut w.reps, &exec);
                if stats.interrupted {
                    // The interrupted pass marked nothing, so the state
                    // is still the pristine Init state.
                    return Err(dur.interrupt("random", CkptPhase::Init, &w));
                }
                w.failed_sim_batches += stats.failed_batches;
                w.patterns.extend_from(&random);
            }
            w.random_detected = w.reps.num_detected();
        }
        let random_time = t_random.finish();

        // Phase 2: deterministic top-off, then one reverse-order fault
        // simulation of the whole set against the full universe. An
        // interrupted pass marks nothing and counts no lost batch, so
        // its checkpoint is the finished top-off, and a resumed run
        // repeats the pass.
        let t_deterministic = self.trace.timed_span("atpg_topoff");
        dur.arm();
        if !resume_signoff {
            let search = TopoffSearch {
                config,
                design: self.nl,
                expanded: expanded.as_ref(),
                trace: &self.trace,
                targets: w
                    .reps
                    .undetected()
                    .map(|i| (i, w.reps.faults()[i]))
                    .collect(),
                base: w.fault_ordinal,
            };
            self.topoff(&search, &mut engines, &sim, &mut w, &mut dur)?;
            if config.compaction != CompactionMode::None {
                let _span = self.trace.span_arg("atpg_compact", w.patterns.len() as u64);
                let (keep, stats) =
                    reverse_order_compaction(&sim, model, &w.patterns, universe.clone(), &exec);
                if stats.interrupted {
                    return Err(dur.interrupt("topoff", CkptPhase::Topoff, &w));
                }
                w.failed_sim_batches += stats.failed_batches;
                // A lost batch hides its fault's detector, so the pass
                // could drop that fault's only test: keep the whole set.
                if stats.failed_batches == 0 {
                    w.retain(&keep);
                }
            }
        }
        let deterministic_detected = w.reps.num_detected().saturating_sub(w.random_detected);
        let deterministic_time = t_deterministic.finish();

        // Sign-off: fault-simulate the final pattern set against the full
        // universe, then project untestable/aborted statuses from the
        // collapsed list. The frontier is final here, so the phase opens
        // with a `signoff` checkpoint — a kill anywhere past this point
        // resumes straight into sign-off.
        let t_signoff = self.trace.timed_span("atpg_signoff");
        dur.arm();
        dur.write(CkptPhase::Signoff, &w);
        if dur.d.cancel.poll() {
            return Err(dur.interrupt("signoff", CkptPhase::Signoff, &w));
        }
        let mut fault_list = FaultList::new(universe);
        let stats = model.simulate(&sim, &w.patterns, &mut fault_list, &exec);
        if stats.interrupted {
            return Err(dur.interrupt("signoff", CkptPhase::Signoff, &w));
        }
        w.failed_sim_batches += stats.failed_batches;
        for i in 0..fault_list.len() {
            match w.reps.status(collapsed.class_of(i)) {
                FaultStatus::Untestable => fault_list.set_status(i, FaultStatus::Untestable),
                FaultStatus::Aborted if !fault_list.status(i).is_detected() => {
                    fault_list.set_status(i, FaultStatus::Aborted);
                }
                _ => {}
            }
        }

        let signoff_time = t_signoff.finish();
        dur.d.cancel.clear_deadline();
        if let Some(m) = self.metrics.get() {
            m.atpg_runs.inc();
            m.atpg_patterns.add(w.patterns.len() as u64);
            m.atpg_untestable.add(w.tally.untestable as u64);
            m.atpg_aborted.add(w.tally.aborted as u64);
            m.atpg_escalations.add(w.tally.escalated as u64);
            m.atpg_rescued.add(w.tally.rescued as u64);
            m.t_atpg_random.record(random_time);
            m.t_atpg_deterministic.record(deterministic_time);
            m.t_atpg_signoff.record(signoff_time);
        }

        Ok(AtpgRun {
            patterns: w.patterns,
            fault_list,
            cubes: w.cubes,
            random_detected: w.random_detected,
            deterministic_detected,
            untestable: w.tally.untestable,
            aborted: w.tally.aborted,
            escalated: w.tally.escalated,
            rescued: w.tally.rescued,
            failed_sim_batches: w.failed_sim_batches,
            podem: w.podem,
            elapsed: start.elapsed(),
            setup_time,
            compile_time,
            random_time,
            deterministic_time,
            signoff_time,
        })
    }

    /// Deterministic top-off: PODEM every fault undetected after the
    /// random phase (escalating aborts to the SAT engine) and fault-drop
    /// each new pattern against the list.
    ///
    /// Up to one worker per entry of `engines`, the calling thread
    /// included, search the targets ahead of their turn on a
    /// [`Board`]. The calling thread commits the results strictly in
    /// target order, exactly as a serial loop would, so a result whose
    /// target an earlier commit detected is discarded. The commit loop
    /// polls the cancellation token and checkpoints at the configured
    /// fault cadence, both at commit
    /// boundaries; an interrupt returns only after every worker has
    /// joined, and a result taken after the token fired is never
    /// classified, so the checkpoint always sits at a fault boundary.
    fn topoff(
        &self,
        search: &TopoffSearch<'_, '_>,
        engines: &mut [Engines<'_>],
        sim: &TapeKernel<'_>,
        w: &mut Working,
        dur: &mut DurCtx<'_>,
    ) -> Result<(), AtpgError> {
        let board = Board::new(search.targets.len());
        let workers = engines.len().min(search.targets.len()).max(1);
        let (own, helpers) = engines
            .split_first_mut()
            .expect("a run builds at least one worker's engines");
        let outcome = std::thread::scope(|scope| {
            for helper in &mut helpers[..workers - 1] {
                let board = &board;
                scope.spawn(move || board.work(|j| search.resolve(helper, j)));
            }
            // However the commit loop leaves (an interrupt or a panic
            // included), workers claim nothing more and the scope joins
            // them after at most their current search.
            let _stop = StopOnDrop(&board);
            self.commit_targets(own, &board, search, sim, w, dur)
        });
        if let Some(m) = self.metrics.get() {
            for r in board.into_untaken() {
                m.t_atpg_discarded.record(r.elapsed);
            }
        }
        outcome
    }

    /// The commit loop of [`Atpg::topoff`]: takes each target's
    /// result in order and applies it.
    fn commit_targets(
        &self,
        engines: &mut Engines<'_>,
        board: &Board<Resolved>,
        search: &TopoffSearch<'_, '_>,
        sim: &TapeKernel<'_>,
        w: &mut Working,
        dur: &mut DurCtx<'_>,
    ) -> Result<(), AtpgError> {
        let mut next = 0;
        loop {
            if dur.d.cancel.poll() {
                return Err(dur.interrupt("topoff", CkptPhase::Topoff, w));
            }
            let every = dur.d.every_faults;
            if every != 0 && w.fault_ordinal.is_multiple_of(every) {
                dur.write(CkptPhase::Topoff, w);
            }
            // Skip the targets earlier commits detected; their results,
            // if any worker produced one, are discarded.
            while search
                .targets
                .get(next)
                .is_some_and(|&(i, _)| w.reps.status(i) != FaultStatus::Undetected)
            {
                next += 1;
            }
            let Some(&(target_idx, _)) = search.targets.get(next) else {
                break;
            };
            let resolved = board.take(next, |j| search.resolve(engines, j));
            next += 1;
            // A search the token cut short returns Aborted — a result
            // that must not be classified. Nothing was applied yet, so
            // the state is still the previous fault boundary: drain.
            if dur.d.cancel.is_cancelled() {
                return Err(dur.interrupt("topoff", CkptPhase::Topoff, w));
            }
            // Counters describe committed results only, so they are the
            // same for any thread count.
            let podem_result = match resolved.escalation {
                Some(_) => &AtpgResult::Aborted,
                None => &resolved.result,
            };
            resolved.podem.record(podem_result, &self.metrics);
            // Everything a cancelled fault simulation may have
            // half-mutated, restored before checkpointing so the record
            // sits exactly at the previous fault boundary.
            let saved = (w.fill_seed, w.fault_ordinal, w.tally, w.podem);
            w.podem += resolved.podem;
            w.fault_ordinal += 1;
            let escalated = resolved.escalation.is_some();
            if let Some((conflicts, sat_time)) = resolved.escalation {
                if let Some(m) = self.metrics.get() {
                    m.sat_conflicts.add(conflicts);
                    m.t_atpg_sat.record(sat_time);
                }
                w.tally.escalated += 1;
            }
            match resolved.result {
                AtpgResult::Test(mut cube) => {
                    if search.config.compaction == CompactionMode::Dynamic {
                        cube = self.extend_cube(
                            &mut engines.podem,
                            cube,
                            &w.reps,
                            target_idx,
                            search,
                            &mut w.podem,
                        );
                    }
                    w.fill_seed = w.fill_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
                    let pattern = cube.random_fill(w.fill_seed);
                    let mut single = PatternSet::for_netlist(self.nl);
                    single.push(pattern.clone());
                    let stats = search.config.fault_model.simulate(
                        sim,
                        &single,
                        &mut w.reps,
                        &Executor::serial(),
                    );
                    if stats.interrupted {
                        // The interrupted pass marked nothing and the
                        // pattern was not pushed: rolling back the
                        // per-fault counters restores the boundary.
                        (w.fill_seed, w.fault_ordinal, w.tally, w.podem) = saved;
                        return Err(dur.interrupt("topoff", CkptPhase::Topoff, w));
                    }
                    w.failed_sim_batches += stats.failed_batches;
                    // Guard against a generator/fault-sim disagreement:
                    // a target its own test misses is classified aborted,
                    // not retargeted.
                    if !w.reps.status(target_idx).is_detected() {
                        w.reps.set_status(target_idx, FaultStatus::Aborted);
                        w.tally.aborted += 1;
                    } else if escalated {
                        // The SAT engine produced a sim-confirmed test.
                        w.tally.rescued += 1;
                    }
                    w.patterns.push(pattern);
                    w.cubes.push(cube);
                    // Targets the pattern detected need no search: spare
                    // the workers the ones nobody has claimed yet.
                    for (j, &(i, _)) in search.targets.iter().enumerate().skip(next) {
                        if w.reps.status(i) != FaultStatus::Undetected {
                            board.withdraw(j);
                        }
                    }
                }
                AtpgResult::Untestable => {
                    w.reps.set_status(target_idx, FaultStatus::Untestable);
                    w.tally.untestable += 1;
                    if escalated {
                        w.tally.rescued += 1;
                    }
                }
                AtpgResult::Aborted => {
                    w.reps.set_status(target_idx, FaultStatus::Aborted);
                    w.tally.aborted += 1;
                }
            }
        }
        Ok(())
    }

    /// Dynamic compaction: extend `cube` with tests for additional
    /// undetected faults while the merged cube stays consistent.
    fn extend_cube(
        &self,
        podem: &mut Podem<'_>,
        mut cube: TestCube,
        reps: &FaultList,
        primary_idx: usize,
        search: &TopoffSearch<'_, '_>,
        stats: &mut PodemStats,
    ) -> TestCube {
        let mut tried = 0usize;
        for idx in reps.undetected() {
            if idx == primary_idx {
                continue;
            }
            if tried >= DYNAMIC_TARGETS {
                break;
            }
            tried += 1;
            let (secondary, launch) = search.target(reps.faults()[idx]);
            // A short-leash attempt: secondary targets must be cheap.
            let limit = (search.config.backtrack_limit / 8).max(8);
            let (result, st) =
                podem.generate_constrained(secondary, launch.as_slice(), limit, Some(&cube));
            *stats += st;
            if let AtpgResult::Test(extended) = result {
                cube = extended;
            }
        }
        cube
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::{alu, c17, decoder, mac_pe, ripple_adder, s27};

    #[test]
    fn c17_full_coverage_few_patterns() {
        let nl = c17();
        let run = Atpg::new(&nl).run(&AtpgConfig {
            random_patterns: 0, // pure deterministic
            ..AtpgConfig::default()
        });
        assert!((run.test_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(run.untestable, 0);
        assert_eq!(run.aborted, 0);
        // Deterministic c17 test sets are classically under 10 patterns.
        assert!(run.patterns.len() <= 12, "{} patterns", run.patterns.len());
    }

    #[test]
    fn decoder_needs_topoff_after_random() {
        let nl = decoder(5);
        let cfg = AtpgConfig {
            random_patterns: 32,
            ..AtpgConfig::default()
        };
        let run = Atpg::new(&nl).run(&cfg);
        assert!(
            run.deterministic_detected > 0,
            "decoder should be random-resistant"
        );
        assert!((run.test_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_logic_is_classified_untestable() {
        use dft_netlist::{GateKind, Netlist};
        let mut nl = Netlist::new("red");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let and = nl.add_gate(GateKind::And, vec![a, b], "and");
        let or = nl.add_gate(GateKind::Or, vec![a, and], "or");
        nl.add_output(or, "po");
        let run = Atpg::new(&nl).run(&AtpgConfig::default());
        assert!(run.untestable >= 1);
        // Test coverage can still be 100% (untestable excluded).
        assert!((run.test_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn static_compaction_reduces_pattern_count() {
        let nl = alu(8);
        let base = AtpgConfig {
            random_patterns: 0,
            compaction: CompactionMode::None,
            ..AtpgConfig::default()
        };
        let run_none = Atpg::new(&nl).run(&base);
        let run_static = Atpg::new(&nl).run(&AtpgConfig {
            compaction: CompactionMode::Static,
            ..base.clone()
        });
        // Compaction may be a wash on cube-dense circuits but must never
        // make the set larger (the driver falls back if it would).
        assert!(
            run_static.patterns.len() <= run_none.patterns.len(),
            "static {} vs none {}",
            run_static.patterns.len(),
            run_none.patterns.len()
        );
        assert!(run_static.test_coverage() >= run_none.test_coverage() - 1e-9);
    }

    #[test]
    fn dynamic_compaction_beats_none() {
        let nl = ripple_adder(8);
        let base = AtpgConfig {
            random_patterns: 0,
            ..AtpgConfig::default()
        };
        let run_dyn = Atpg::new(&nl).run(&AtpgConfig {
            compaction: CompactionMode::Dynamic,
            ..base.clone()
        });
        let run_none = Atpg::new(&nl).run(&AtpgConfig {
            compaction: CompactionMode::None,
            ..base
        });
        assert!(run_dyn.patterns.len() <= run_none.patterns.len());
        assert!((run_dyn.test_coverage() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_s27_full_scan_coverage() {
        let nl = s27();
        let run = Atpg::new(&nl).run(&AtpgConfig::default());
        assert!(
            run.test_coverage() > 0.99,
            "s27 coverage {}",
            run.test_coverage()
        );
    }

    #[test]
    fn sat_leaves_nothing_aborted_at_any_backtrack_limit() {
        // PODEM aborts most targets at a limit of one backtrack; the SAT
        // engine must settle every one of them, and prove exactly the
        // faults the default limit leaves untestable.
        let untestable = |run: &AtpgRun| -> Vec<Fault> {
            let list = &run.fault_list;
            (0..list.len())
                .filter(|&i| list.status(i) == FaultStatus::Untestable)
                .map(|i| list.faults()[i])
                .collect()
        };
        for nl in [mac_pe(8), dft_netlist::generators::random_logic(32, 500, 1)] {
            let default = Atpg::new(&nl).run(&AtpgConfig::default());
            let tight = Atpg::new(&nl).run(&AtpgConfig::default().backtrack_limit(1));
            assert!(tight.escalated > default.escalated, "{}", nl.name());
            for run in [&default, &tight] {
                assert_eq!(run.aborted, 0, "{}", nl.name());
                assert_eq!(run.rescued, run.escalated, "{}", nl.name());
            }
            assert_eq!(untestable(&tight), untestable(&default), "{}", nl.name());
            assert!(!untestable(&default).is_empty(), "{}", nl.name());
        }
    }

    #[test]
    fn zero_fault_budget_means_unlimited_escalation() {
        let nl = ripple_adder(4);
        let run = Atpg::new(&nl).run(&AtpgConfig::default());
        assert!((run.test_coverage() - 1.0).abs() < 1e-9);
        assert_eq!(run.failed_sim_batches, 0);
    }

    #[test]
    fn poisoned_sim_batch_does_not_abort_the_run() {
        let nl = ripple_adder(4);
        let clean = Atpg::new(&nl).run(&AtpgConfig::default());
        assert_eq!(clean.failed_sim_batches, 0);
        // The chaos harness poisons fault-simulation batches by
        // fault-list index in every phase. The run completes and counts
        // the lost batches, identically at any thread count.
        let chaos = ChaosConfig::parse("panic=0.05,seed=11").unwrap();
        let runs: Vec<AtpgRun> = [1, 4]
            .into_iter()
            .map(|threads| {
                let mut dur = Durability::default().with_chaos(chaos);
                Atpg::new(&nl)
                    .run_durable(&AtpgConfig::default().threads(threads), &mut dur)
                    .expect("a lost batch is not fatal")
            })
            .collect();
        assert!(runs[0].failed_sim_batches > 0);
        assert_eq!(runs[1].failed_sim_batches, runs[0].failed_sim_batches);
        assert_same_result(&runs[1], &runs[0], "chaos at 4 threads");
        // Sign-off loses exactly the poisoned faults; every other fault
        // is detected as in the clean run.
        let list = &runs[0].fault_list;
        for i in 0..list.len() {
            let poisoned = chaos.fires(ChaosSite::WorkerPanic, i as u64);
            let want = !poisoned && clean.fault_list.status(i).is_detected();
            assert_eq!(list.status(i).is_detected(), want, "fault {i}");
        }
    }

    #[test]
    fn mac_pe_signoff() {
        let nl = mac_pe(4);
        let run = Atpg::new(&nl).run(&AtpgConfig::default());
        assert!(
            run.test_coverage() > 0.98,
            "mac coverage {} aborted {}",
            run.test_coverage(),
            run.aborted
        );
    }

    // ---- durable execution --------------------------------------------

    fn journal(path: &std::path::Path) -> FramedJournal {
        FramedJournal::new(path, crate::CKPT_FORMAT)
    }

    fn last_state(path: &std::path::Path) -> CkptState {
        CkptState::load_last(&journal(path))
            .expect("valid record")
            .0
    }

    fn ckpt_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("aidft-atpg-dur-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn assert_same_result(run: &AtpgRun, reference: &AtpgRun, context: &str) {
        assert_eq!(
            run.patterns.len(),
            reference.patterns.len(),
            "{context}: pattern count"
        );
        for (i, (a, b)) in run
            .patterns
            .iter()
            .zip(reference.patterns.iter())
            .enumerate()
        {
            assert_eq!(a, b, "{context}: pattern {i}");
        }
        for i in 0..reference.fault_list.len() {
            assert_eq!(
                run.fault_list.status(i),
                reference.fault_list.status(i),
                "{context}: fault {i}"
            );
        }
        assert_eq!(run.untestable, reference.untestable, "{context}");
        assert_eq!(run.aborted, reference.aborted, "{context}");
        assert_eq!(run.escalated, reference.escalated, "{context}");
        assert_eq!(run.rescued, reference.rescued, "{context}");
    }

    #[test]
    fn durable_run_without_interruption_matches_plain_run() {
        let nl = ripple_adder(4);
        let cfg = AtpgConfig::default();
        let plain = Atpg::new(&nl).run(&cfg);
        let path = ckpt_path("clean.ckpt");
        let mut dur = Durability::new(CancelToken::new())
            .with_journal(journal(&path))
            .checkpoint_every(8);
        let run = Atpg::new(&nl)
            .run_durable(&cfg, &mut dur)
            .expect("no interruption");
        assert_same_result(&run, &plain, "clean durable run");
        assert_eq!(dur.checkpoint_write_failures(), 0);
        // The journal closed with a sign-off-phase record.
        let last = last_state(&path);
        assert_eq!(last.phase, CkptPhase::Signoff);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let nl = decoder(5);
        let cfg = AtpgConfig {
            random_patterns: 32,
            ..AtpgConfig::default()
        };
        let plain = Atpg::new(&nl).run(&cfg);
        for &kill in &[1u64, 3, 7, 25] {
            let path = ckpt_path(&format!("kill{kill}.ckpt"));
            let cancel = CancelToken::new();
            cancel.trip_after_polls(kill);
            let mut dur = Durability::new(cancel)
                .with_journal(journal(&path))
                .checkpoint_every(4);
            let run = match Atpg::new(&nl).run_durable(&cfg, &mut dur) {
                Err(AtpgError::Interrupted(int)) => {
                    assert!(
                        int.checkpoint.is_some(),
                        "interrupt at kill point {kill} wrote no checkpoint"
                    );
                    let state = last_state(&path);
                    let mut resumed = Durability::new(CancelToken::new())
                        .with_journal(journal(&path))
                        .checkpoint_every(4)
                        .resume_from(state);
                    Atpg::new(&nl)
                        .run_durable(&cfg, &mut resumed)
                        .expect("resume completes")
                }
                Ok(run) => run, // kill point past the end of the run
                Err(e) => panic!("unexpected error at kill point {kill}: {e}"),
            };
            assert_same_result(&run, &plain, &format!("kill point {kill}"));
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn phase_deadline_interrupts_and_resume_completes() {
        let nl = mac_pe(4);
        let cfg = AtpgConfig::default();
        let path = ckpt_path("deadline.ckpt");
        // The first checkpoint write skips the deadline clock ten minutes
        // ahead, so the minute-long deadline fires at the next poll
        // however fast the host runs.
        let chaos = ChaosConfig::parse("clock=1.0,clock_ms=600000").unwrap();
        let mut dur = Durability::new(CancelToken::new())
            .deadline_ms(60_000)
            .with_journal(journal(&path))
            .checkpoint_every(16)
            .with_chaos(chaos);
        let err = Atpg::new(&nl).run_durable(&cfg, &mut dur);
        let int = match err {
            Err(AtpgError::Interrupted(int)) => int,
            other => panic!("skipped phase deadline did not interrupt: {other:?}"),
        };
        assert!(int.deadline, "cause should be the phase deadline");
        assert!(int.checkpoint.is_some());
        // Resume without the deadline: the fingerprint excludes
        // durability knobs, so this is the "same run".
        let plain_cfg = AtpgConfig::default();
        let plain = Atpg::new(&nl).run(&plain_cfg);
        let state = last_state(&path);
        let mut resumed = Durability::new(CancelToken::new())
            .with_journal(journal(&path))
            .resume_from(state);
        let run = Atpg::new(&nl)
            .run_durable(&plain_cfg, &mut resumed)
            .expect("resume without deadline completes");
        assert_same_result(&run, &plain, "deadline resume");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_a_transition_fingerprint_names_its_model() {
        let stuck_at = AtpgConfig::default();
        let text = format!("mac4|100|128|{}|16|Static|true|16|sat|10000", 0x5EED);
        assert_eq!(stuck_at.fingerprint("mac4", 100), fnv1a(text.as_bytes()));
        let transition = stuck_at.fault_model(FaultModel::Transition);
        assert_eq!(
            transition.fingerprint("mac4", 100),
            fnv1a(format!("{text}|transition").as_bytes())
        );
    }

    #[test]
    fn resume_refuses_mismatched_config() {
        let nl = ripple_adder(4);
        let cfg = AtpgConfig::default();
        let path = ckpt_path("mismatch.ckpt");
        let cancel = CancelToken::new();
        cancel.trip_after_polls(2);
        let mut dur = Durability::new(cancel)
            .with_journal(journal(&path))
            .checkpoint_every(2);
        let _ = Atpg::new(&nl).run_durable(&cfg, &mut dur);
        let state = last_state(&path);
        let other = AtpgConfig {
            seed: 0xBAD,
            ..AtpgConfig::default()
        };
        let mut resumed = Durability::new(CancelToken::new()).resume_from(state);
        let err = Atpg::new(&nl).run_durable(&other, &mut resumed);
        assert!(matches!(
            err,
            Err(AtpgError::Resume(CkptError::Mismatch {
                what: "config",
                ..
            }))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
