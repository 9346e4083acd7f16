//! Property tests: the compiled gate tape agrees with engines that share
//! none of its code, on random netlists across thread counts:
//!
//! - good values, gate for gate, and stuck-at faulty responses, sink for
//!   sink, against five-valued simulation ([`FiveSim`], one scalar full
//!   pass per pattern);
//! - PPSFP fault statuses (detected / first-detecting pattern) against
//!   deductive fault simulation ([`DeductiveSim`], fault-list
//!   propagation);
//! - transition statuses of broadside pairs on sequential netlists
//!   against the launch value (five-valued) plus capture-cycle stuck-at
//!   detection (deductive);
//! - bridge responses against a one-pass scalar walk with both bridged
//!   nets held at their bridged values;
//! - PODEM's event-driven [`Implication`] against a full five-valued
//!   pass after every assign/flip/pop step of a decision stack: every
//!   gate's value, the observed flag, and the D-frontier pick.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dft_fault::{
    bridge_universe, universe_stuck_at, universe_transition, BridgeFault, Fault, FaultKind,
    FaultList, FaultStatus,
};
use dft_logicsim::testability::scoap;
use dft_logicsim::{
    DeductiveSim, Executor, FiveSim, GateTape, Implication, Pattern, PatternSet, Response,
    SimKernel, TapeKernel,
};
use dft_netlist::generators::{counter, mac_pe, random_logic, s27};
use dft_netlist::{GateId, GateKind, Levelization, Logic, Netlist};

fn first_detections(list: &FaultList) -> Vec<Option<u32>> {
    (0..list.len())
        .map(|i| match list.status(i) {
            FaultStatus::Detected(p) => Some(p),
            _ => None,
        })
        .collect()
}

/// Sink values of `pattern` with `bridge` injected: one scalar pass in
/// level order with both nets held at the values the bridge model
/// computes from their good values.
fn bridge_response(nl: &Netlist, pattern: &Pattern, bridge: BridgeFault) -> Response {
    let lv = Levelization::compute(nl).unwrap();
    let mut vals = vec![false; nl.num_gates()];
    for (s, &g) in nl.combinational_sources().iter().enumerate() {
        vals[g.index()] = pattern[s];
    }
    let eval = |vals: &mut Vec<bool>, hold: Option<(bool, bool)>| {
        if let Some((fa, fb)) = hold {
            vals[bridge.a.index()] = fa;
            vals[bridge.b.index()] = fb;
        }
        for &id in lv.order() {
            let g = nl.gate(id);
            let held = hold.is_some() && (id == bridge.a || id == bridge.b);
            if !held && !matches!(g.kind, GateKind::Input | GateKind::Dff) {
                let ins: Vec<bool> = g.fanins.iter().map(|f| vals[f.index()]).collect();
                vals[id.index()] = g.kind.eval_bool(&ins);
            }
        }
    };
    eval(&mut vals, None);
    let word = |b: bool| if b { !0u64 } else { 0 };
    let (fa, fb) = bridge.faulty_words(word(vals[bridge.a.index()]), word(vals[bridge.b.index()]));
    eval(&mut vals, Some((fa & 1 == 1, fb & 1 == 1)));
    nl.combinational_sinks()
        .iter()
        .map(|&s| match nl.gate(s).kind {
            GateKind::Dff => vals[nl.gate(s).fanins[0].index()],
            _ => vals[s.index()],
        })
        .collect()
}

/// A random netlist over every gate kind the implication engine
/// evaluates (the random-logic kinds plus buffers, Mux2 and constants,
/// repeated fanins allowed) with flops in the middle: a flop's D pin reads
/// earlier logic (sometimes an input or another flop) and its Q feeds
/// later logic. Dangling nets become primary outputs.
fn mixed_logic(seed: u64, gates: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("mixed{gates}_s{seed}"));
    let mut nets: Vec<GateId> = (0..rng.gen_range(2..7))
        .map(|i| nl.add_input(&format!("i{i}")))
        .collect();
    for g in 0..gates {
        let pick = |rng: &mut StdRng, nets: &[GateId]| nets[rng.gen_range(0..nets.len())];
        if rng.gen_range(0..12) == 0 {
            let d = pick(&mut rng, &nets);
            nets.push(nl.add_dff(d, &format!("q{g}")));
            continue;
        }
        let kind = match rng.gen_range(0..13) {
            0 => GateKind::And,
            1 => GateKind::Nand,
            2 => GateKind::Or,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Not,
            7 => GateKind::Buf,
            8 | 9 => GateKind::Mux2,
            10 => GateKind::Const0,
            11 => GateKind::Const1,
            _ => GateKind::Nand,
        };
        let arity = kind.arity().unwrap_or_else(|| rng.gen_range(2..5));
        let fanins = (0..arity).map(|_| pick(&mut rng, &nets)).collect();
        nets.push(nl.add_gate(kind, fanins, &format!("g{g}")));
    }
    let dangling: Vec<GateId> = nl
        .iter()
        .filter(|(_, g)| g.fanouts.is_empty() && !matches!(g.kind, GateKind::Output))
        .map(|(id, _)| id)
        .collect();
    for (i, id) in dangling.into_iter().enumerate() {
        nl.add_output(id, &format!("o{i}"));
    }
    nl
}

/// The D-frontier pick PODEM made on a full five-valued pass: scan every
/// gate in id order for X-valued logic gates with a fault effect on an
/// input (or the injected pin of a branch fault), keep those with an
/// X path to a PO or flop, and take the lowest `co` (first id on ties).
fn reference_d_frontier(nl: &Netlist, vals: &[Logic], fault: Fault, co: &[u32]) -> Option<GateId> {
    let sink = |id: GateId| matches!(nl.gate(id).kind, GateKind::Output | GateKind::Dff);
    let x_path = |from: GateId| {
        let mut seen = vec![false; nl.num_gates()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(id) = stack.pop() {
            for &fo in &nl.gate(id).fanouts {
                if sink(fo) {
                    return true;
                }
                if !seen[fo.index()] && vals[fo.index()] == Logic::X {
                    stack.push(fo);
                }
                seen[fo.index()] = true;
            }
        }
        false
    };
    let mut best: Option<(GateId, u32)> = None;
    for (id, g) in nl.iter() {
        if vals[id.index()] != Logic::X || !g.kind.is_logic() {
            continue;
        }
        let branch_site = fault.site.pin.is_some()
            && fault.site.gate == id
            && vals[fault.site.net(nl).index()].good() == Some(!fault.kind.stuck_value());
        let has_effect = branch_site || g.fanins.iter().any(|f| vals[f.index()].is_fault_effect());
        if has_effect && x_path(id) && best.is_none_or(|(_, c)| co[id.index()] < c) {
            best = Some((id, co[id.index()]));
        }
    }
    best.map(|(id, _)| id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Good-machine values agree gate for gate: every bit of every wide
    /// tape pass equals the five-valued value of that gate.
    #[test]
    fn tape_good_values_match_fivesim_gate_for_gate(
        seed in 0u64..400,
        gates in 20usize..220,
        inputs in 4usize..20,
    ) {
        let nl = random_logic(inputs, gates, seed);
        let five = FiveSim::new(&nl);
        let tape = GateTape::compile(&nl);
        // 300 patterns straddles a 256-wide boundary, so the final pass
        // exercises partial lanes.
        let ps = PatternSet::random(&nl, 300, seed ^ 0x5A);
        let mut vals = Vec::new();
        for start in (0..ps.len()).step_by(256) {
            let (wide, count) = GateTape::pack_wide(&ps, start);
            tape.eval_wide(&wide, &mut vals);
            for k in 0..count {
                let assign: Vec<Logic> =
                    ps.pattern(start + k).iter().map(|&b| Logic::from_bool(b)).collect();
                for (idx, v) in five.simulate(&assign, None).iter().enumerate() {
                    let bit = vals[tape.position(GateId(idx as u32))][k / 64] >> (k % 64) & 1;
                    prop_assert_eq!(
                        Some(bit == 1), v.good(),
                        "gate {} pattern {}", idx, start + k
                    );
                }
            }
        }
    }

    /// PPSFP fault statuses (detected / first-detecting pattern) agree
    /// with deductive simulation for every fault, at any worker count.
    #[test]
    fn tape_fault_batch_matches_deductive_across_threads(
        seed in 0u64..400,
        gates in 20usize..220,
        threads in prop::select(vec![1usize, 2, 4]),
        patterns in prop::select(vec![150usize, 600]),
    ) {
        let nl = random_logic(8, gates, seed);
        let faults = universe_stuck_at(&nl);
        // 150 patterns: the lane-0 fast path plus a partial wide tail in
        // one block. 600: three blocks, so undetected faults carry from
        // block to block and each worker reloads its good values.
        let ps = PatternSet::random(&nl, patterns, seed ^ 0xC3);
        let want = DeductiveSim::new(&nl).first_detections(&ps, &faults);
        let mut list = FaultList::new(faults.clone());
        let stats = TapeKernel::compile(&nl).fault_batch(&ps, &mut list, &Executor::with_threads(threads));
        prop_assert_eq!(stats.detected, want.iter().flatten().count());
        prop_assert_eq!(first_detections(&list), want, "threads={}", threads);
    }

    /// Transition (broadside pair) detection agrees with the launch
    /// value plus capture-cycle stuck-at detection for every fault.
    #[test]
    fn tape_transition_batch_matches_launch_and_capture_oracle(
        seed in 0u64..200,
        gates in 20usize..150,
        count in prop::select(vec![96usize, 300]),
    ) {
        // 300 pairs span two blocks, so undetected faults carry over.
        let (want, got) = transition_statuses(&mixed_logic(seed, gates), count, seed ^ 0x77);
        prop_assert_eq!(got, want);
    }

    /// Stuck-at faulty responses agree sink for sink with five-valued
    /// simulation, and the detection lists name exactly the patterns
    /// whose response differs from the good one.
    #[test]
    fn tape_faulty_responses_match_fivesim(seed in 0u64..300, gates in 20usize..150) {
        let nl = random_logic(8, gates, seed);
        let five = FiveSim::new(&nl);
        let tape = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 70, seed ^ 0xF5);
        let good = tape.eval_batch(&ps);
        let faults: Vec<Fault> = universe_stuck_at(&nl).into_iter().step_by(3).collect();
        let matrix = tape.detection_matrix(&ps, &faults);
        for (&fault, detecting) in faults.iter().zip(&matrix) {
            let faulty = tape.faulty_responses(&ps, fault);
            for (k, p) in ps.iter().enumerate() {
                prop_assert_eq!(&faulty[k], &five.response(p, Some(fault)), "{} pattern {}", fault, k);
                prop_assert_eq!(
                    faulty[k] != good[k], detecting.contains(&(k as u32)),
                    "{} pattern {}", fault, k
                );
            }
        }
    }

    /// Bridge responses agree with the scalar held-nets reference.
    #[test]
    fn tape_bridge_responses_match_reference(seed in 0u64..300, gates in 20usize..150) {
        let nl = random_logic(8, gates, seed);
        let tape = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 40, seed ^ 0xB2);
        for bridge in bridge_universe(&nl, 3).into_iter().step_by(5) {
            let faulty = tape.faulty_responses(&ps, bridge);
            for (k, p) in ps.iter().enumerate() {
                prop_assert_eq!(&faulty[k], &bridge_response(&nl, p, bridge), "{} pattern {}", bridge, k);
            }
        }
    }
}

/// First detecting broadside pair of every transition fault of `nl` over
/// `count` random scan patterns: `(oracle, tape)`. The oracle is the
/// launch value (five-valued) plus capture-cycle stuck-at detection
/// (deductive). The netlist must be sequential: on a combinational one
/// each capture vector equals its launch vector and nothing is detected.
fn transition_statuses(
    nl: &Netlist,
    count: usize,
    seed: u64,
) -> (Vec<Option<u32>>, Vec<Option<u32>>) {
    let faults = universe_transition(nl);
    let ps = PatternSet::random(nl, count, seed);
    let tape = TapeKernel::compile(nl);
    let pairs = tape.broadside_pairs(&ps);
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
    let five = FiveSim::new(nl);
    let deductive = DeductiveSim::new(nl);
    let mut want = vec![None; faults.len()];
    for (i, (launch, capture)) in pairs.iter().enumerate() {
        let assign: Vec<Logic> = launch.iter().map(|&b| Logic::from_bool(b)).collect();
        let launched = five.simulate(&assign, None);
        let detected = deductive.detected(capture, &stuck);
        for (fi, f) in faults.iter().enumerate() {
            let site = f.site.net(nl);
            if want[fi].is_none()
                && detected[fi]
                && launched[site.index()].good() == f.kind.launch_value()
            {
                want[fi] = Some(i as u32);
            }
        }
    }
    let mut list = FaultList::new(faults);
    tape.transition_batch(&pairs, &mut list, &Executor::serial());
    (want, first_detections(&list))
}

/// The transition property checks detections, not only their absence: on
/// a fixed sequential netlist the oracle expects some, two of them past
/// the first 256-pair block, and the tape finds the same first pairs.
#[test]
fn transition_oracle_expects_detections_on_a_sequential_netlist() {
    let (want, got) = transition_statuses(&mixed_logic(17, 120), 300, 17 ^ 0x77);
    let late = want.iter().flatten().filter(|&&p| p >= 256).count();
    assert_eq!(late, 2, "detections past the first block");
    assert_eq!(got, want);
}

/// Flop D-pin and Q faults only occur in sequential designs, which the
/// random generator does not build: check every fault of a few.
#[test]
fn tape_faulty_responses_match_fivesim_on_sequential_designs() {
    for nl in [s27(), counter(5), mac_pe(3)] {
        let five = FiveSim::new(&nl);
        let tape = TapeKernel::compile(&nl);
        let ps = PatternSet::random(&nl, 40, 0x5E9);
        for fault in universe_stuck_at(&nl) {
            let faulty = tape.faulty_responses(&ps, fault);
            for (k, p) in ps.iter().enumerate() {
                assert_eq!(
                    faulty[k],
                    five.response(p, Some(fault)),
                    "{} {fault} pattern {k}",
                    nl.name()
                );
            }
        }
    }
}

proptest! {
    // Cheap cases; enough of them that multi-input gates see D, X and D̄
    // together (where a dual-rail fold would differ from the pairwise one).
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// After every decision, backtrack and pop of a PODEM-shaped decision
    /// stack (pops both through the undo trail and through events), the
    /// engine holds exactly the values of a full five-valued pass on the
    /// same assignment, reports the same observed flag, and picks the same
    /// D-frontier gate as a full scan, for any stuck-at fault: source and
    /// gate stems, branch pins and flop D pins.
    #[test]
    fn implication_matches_fivesim_after_every_step(
        design in 0usize..5,
        seed in 0u64..1000,
        gates in 5usize..120,
        run_seed in 0u64..1 << 40,
    ) {
        let nl = match design {
            0 => s27(),
            1 => counter(4),
            2 => mac_pe(2),
            3 => random_logic(6, gates, seed),
            _ => mixed_logic(seed, gates),
        };
        let mut rng = StdRng::seed_from_u64(run_seed);
        let faults = universe_stuck_at(&nl);
        let fault = faults[rng.gen_range(0..faults.len())];
        let five = FiveSim::new(&nl);
        let co = scoap(&nl).co;
        let mut engine = Implication::new(&nl);
        // A partial start assignment, as dynamic compaction passes in.
        let mut asg: Vec<Logic> = (0..nl.combinational_sources().len())
            .map(|_| match rng.gen_range(0..4) {
                0 => Logic::from_bool(rng.gen_bool(0.5)),
                _ => Logic::X,
            })
            .collect();
        engine.start(&asg, fault);
        // PODEM's decision stack: the trail mark and assignment before
        // the decision, its source and value, and whether it was flipped.
        let mut stack: Vec<(usize, Vec<Logic>, usize, bool, bool)> = Vec::new();
        for step in 0..rng.gen_range(1..40) {
            match rng.gen_range(0..6) {
                // Decide: assign an unassigned source.
                0..=2 => {
                    let free: Vec<usize> = (0..asg.len()).filter(|&s| asg[s] == Logic::X).collect();
                    if !free.is_empty() {
                        let (s, v) = (free[rng.gen_range(0..free.len())], rng.gen_bool(0.5));
                        stack.push((engine.mark(), asg.clone(), s, v, false));
                        asg[s] = Logic::from_bool(v);
                        engine.assign(s, asg[s]);
                    }
                }
                // PODEM's backtrack: pop flipped decisions, undo to the
                // newest other one and flip it.
                3 => {
                    while let Some((mark, before, s, v, flipped)) = stack.last_mut() {
                        if *flipped {
                            stack.pop();
                        } else {
                            (*v, *flipped) = (!*v, true);
                            engine.undo_to(*mark);
                            asg.clone_from(before);
                            asg[*s] = Logic::from_bool(*v);
                            engine.assign(*s, asg[*s]);
                            break;
                        }
                    }
                }
                // Pop the newest decision through the trail.
                4 => {
                    if let Some((mark, before, _, _, _)) = stack.pop() {
                        engine.undo_to(mark);
                        asg = before;
                    }
                }
                // Pop the newest decision by returning its source to X
                // through events.
                _ => {
                    if let Some((_, _, s, _, _)) = stack.pop() {
                        asg[s] = Logic::X;
                        engine.assign(s, Logic::X);
                    }
                }
            }
            engine.imply();
            prop_assert_eq!(engine.assignment(), &asg[..], "{} {} step {}", nl.name(), fault, step);
            let want = five.simulate(&asg, Some(fault));
            for (id, _) in nl.iter() {
                prop_assert_eq!(
                    engine.value(id), want[id.index()],
                    "{} {} step {}: gate {:?}", nl.name(), fault, step, id
                );
            }
            prop_assert_eq!(
                engine.fault_observed(), five.fault_observed(&want, Some(fault)),
                "{} {} step {}", nl.name(), fault, step
            );
            prop_assert_eq!(
                engine.pick_d_frontier(&co),
                reference_d_frontier(&nl, &want, fault, &co),
                "{} {} step {}", nl.name(), fault, step
            );
        }
    }
}
