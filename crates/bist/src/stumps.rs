//! Gate-level STUMPS hardware: the self-test logic itself as a netlist.
//!
//! [`LogicBist`] models BIST at the pattern level; this module builds the
//! actual hardware — a PRPG (LFSR flops), a phase shifter (XOR spread)
//! feeding the scan chains of a scan-inserted core, and a MISR compacting
//! the scan-outs — and simulates whole self-test *sessions* clock by
//! clock on the gate tape, with optional stuck-at fault injection in the
//! core. This is the structure an AI chip tapes out for in-field
//! self-test of its MAC arrays.
//!
//! [`LogicBist`]: crate::LogicBist

use dft_fault::Fault;
use dft_logicsim::{SimKernel, TapeKernel};
use dft_netlist::{GateId, GateKind, Netlist};
use dft_scan::{insert_scan, ScanConfig, ScanInsertion};

/// A netlist with embedded STUMPS self-test hardware.
#[derive(Debug)]
pub struct StumpsBist {
    /// Core + scan + PRPG + phase shifter + MISR.
    pub netlist: Netlist,
    /// PRPG register flops, shift order.
    pub prpg: Vec<GateId>,
    /// MISR register flops.
    pub misr: Vec<GateId>,
    /// The `bist_rst` control input (1 = load seed / clear MISR).
    pub rst: GateId,
    /// The scan-enable input (1 = shift, 0 = capture).
    pub se: GateId,
    /// Shift cycles per pattern (longest chain).
    pub shift_len: usize,
}

/// Builds STUMPS hardware around `core`.
///
/// * `chains` — internal scan chains.
/// * `prpg_len` — PRPG register length (≥ 8).
/// * `seed` — PRPG reset seed (also randomizes phase-shifter taps).
///
/// The core's functional primary inputs are driven by extra phase-shifter
/// outputs (standard practice: everything random during BIST). The
/// original PI gates remain in the netlist but drive nothing.
pub fn build_stumps(core: &Netlist, chains: usize, prpg_len: usize, seed: u64) -> StumpsBist {
    assert!((8..=64).contains(&prpg_len));
    let scan: ScanInsertion = insert_scan(core, &ScanConfig { num_chains: chains });
    let mut nl = scan.netlist.clone();
    let se = scan.scan_enable;
    let rst = nl.add_input("bist_rst");
    let nrst = nl.add_gate(GateKind::Not, vec![rst], "bist_nrst");

    // --- PRPG: Galois-style LFSR built from flops + XORs ---------------
    // p[i].D = mux(rst, p[i+1] ^ (tap_i & p[0]), seed_i). We realize the
    // Galois form: when the output bit (p[0]) is 1, tapped stages XOR it
    // in. seed/taps derived from the seed value.
    let taps = 0xB400_u64 | (1 << (prpg_len - 1)); // dense known-good base
    let tmp = nl.add_gate(GateKind::Const0, vec![], "prpg_tmp");
    let prpg: Vec<GateId> = (0..prpg_len)
        .map(|i| nl.add_dff(tmp, &format!("prpg{i}")))
        .collect();
    let out_bit = prpg[0];
    for i in 0..prpg_len {
        let shifted = if i + 1 < prpg_len {
            prpg[i + 1]
        } else {
            // Top bit receives only feedback.
            nl.add_gate(GateKind::Const0, vec![], "prpg_top0")
        };
        let with_fb = if (taps >> i) & 1 == 1 {
            nl.add_gate(
                GateKind::Xor,
                vec![shifted, out_bit],
                &format!("prpg_fb{i}"),
            )
        } else {
            shifted
        };
        // Reset loads the seed bit.
        let seed_bit = if (seed >> (i % 64)) & 1 == 1 || i == 0 {
            nl.add_gate(GateKind::Const1, vec![], &format!("prpg_s1_{i}"))
        } else {
            nl.add_gate(GateKind::Const0, vec![], &format!("prpg_s0_{i}"))
        };
        let d = nl.add_gate(
            GateKind::Mux2,
            vec![rst, with_fb, seed_bit],
            &format!("prpg_d{i}"),
        );
        nl.rewire_fanin(prpg[i], 0, d);
    }

    // --- Phase shifter: XOR spread driving chain scan-ins and PIs ------
    let mut ps_tap = {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % prpg_len
        }
    };
    let mut ps_outputs = Vec::new();
    let num_ps = scan.scan_in.len() + core.num_inputs();
    for o in 0..num_ps {
        let (a, b, c) = (ps_tap(), ps_tap(), ps_tap());
        let x1 = nl.add_gate(GateKind::Xor, vec![prpg[a], prpg[b]], &format!("ps{o}_x1"));
        let x2 = nl.add_gate(GateKind::Xor, vec![x1, prpg[c]], &format!("ps{o}_x2"));
        ps_outputs.push(x2);
    }
    // Drive chain scan-ins.
    for (c, &si) in scan.scan_in.iter().enumerate() {
        rewire_readers_of_input(&mut nl, si, ps_outputs[c]);
    }
    // Drive the core's functional PIs from the remaining outputs.
    for (k, &pi) in core.inputs().iter().enumerate() {
        let ps = ps_outputs[scan.scan_in.len() + k];
        // The PI id is identical in the cloned netlist.
        rewire_readers_of_input(&mut nl, pi, ps);
    }

    // --- MISR: one stage per chain (min 8), XORing the scan-outs -------
    let misr_len = chains.max(8);
    let misr: Vec<GateId> = (0..misr_len)
        .map(|i| nl.add_dff(tmp, &format!("misr{i}")))
        .collect();
    let misr_fb = nl.add_gate(
        GateKind::Xor,
        vec![misr[misr_len - 1], misr[misr_len / 2]],
        "misr_fb",
    );
    for i in 0..misr_len {
        let prev = if i == 0 { misr_fb } else { misr[i - 1] };
        // XOR in a chain output where one exists for this stage.
        let with_so = if i < scan.scan_out.len() {
            let so_src = nl.gate(scan.scan_out[i]).fanins[0];
            nl.add_gate(GateKind::Xor, vec![prev, so_src], &format!("misr_in{i}"))
        } else {
            prev
        };
        // Reset clears.
        let d = nl.add_gate(GateKind::And, vec![with_so, nrst], &format!("misr_d{i}"));
        nl.rewire_fanin(misr[i], 0, d);
    }
    for (i, &m) in misr.iter().enumerate() {
        nl.add_output(m, &format!("misr_q{i}"));
    }

    StumpsBist {
        netlist: nl,
        prpg,
        misr,
        rst,
        se,
        shift_len: scan.shift_cycles(),
    }
}

/// Rewires every reader of an `Input` gate to read `new_src` instead
/// (the input gate remains, undriven and unread).
fn rewire_readers_of_input(nl: &mut Netlist, input: GateId, new_src: GateId) {
    let readers: Vec<GateId> = nl.gate(input).fanouts.to_vec();
    for r in readers {
        let pins: Vec<usize> = nl
            .gate(r)
            .fanins
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f == input)
            .map(|(i, _)| i)
            .collect();
        for pin in pins {
            nl.rewire_fanin(r, pin, new_src);
        }
    }
}

impl StumpsBist {
    /// Runs a self-test session of `patterns` pattern slots, clock by
    /// clock on the gate tape ([`TapeKernel::clock`]), optionally with a
    /// stuck-at fault (stem or pin) in the core. Returns the final MISR
    /// signature.
    pub fn run_session(&self, patterns: usize, fault: Option<Fault>) -> Vec<bool> {
        let nl = &self.netlist;
        let sim = TapeKernel::compile(nl);
        let rst = index_of(nl.inputs(), self.rst);
        let se = index_of(nl.inputs(), self.se);
        let mut inputs = vec![false; nl.num_inputs()];
        let mut state = vec![false; nl.num_dffs()];
        let mut cycle = |reset: bool, shift: bool| {
            inputs[rst] = reset;
            inputs[se] = shift;
            sim.clock(&inputs, &mut state, fault);
        };

        // Reset cycle.
        cycle(true, true);
        for _ in 0..patterns {
            for _ in 0..self.shift_len {
                cycle(false, true);
            }
            cycle(false, false); // capture
        }
        self.misr
            .iter()
            .map(|&m| state[index_of(nl.dffs(), m)])
            .collect()
    }
}

/// The index of `id` in `ids`, a netlist's input or flop list.
fn index_of(ids: &[GateId], id: GateId) -> usize {
    ids.iter().position(|&g| g == id).expect("STUMPS pin")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe_stuck_at;
    use dft_netlist::generators::{counter, mac_pe};
    use dft_netlist::Levelization;

    #[test]
    fn stumps_netlist_is_well_formed() {
        let core = counter(8);
        let bist = build_stumps(&core, 2, 16, 0xB1);
        bist.netlist.validate().unwrap();
        Levelization::compute(&bist.netlist).unwrap();
        assert_eq!(bist.prpg.len(), 16);
        assert!(bist.misr.len() >= 8);
    }

    #[test]
    fn signature_is_deterministic_and_seed_sensitive() {
        let core = counter(8);
        let b1 = build_stumps(&core, 2, 16, 0xB1);
        let s1 = b1.run_session(32, None);
        let s1b = b1.run_session(32, None);
        assert_eq!(s1, s1b);
        let b2 = build_stumps(&core, 2, 16, 0xB2);
        let s2 = b2.run_session(32, None);
        assert_ne!(s1, s2);
        // And the signature is not degenerate.
        assert!(s1.iter().any(|&b| b) || s2.iter().any(|&b| b));
    }

    #[test]
    fn injected_core_faults_corrupt_the_signature() {
        let core = mac_pe(4);
        let bist = build_stumps(&core, 4, 24, 0x5EED);
        let golden = bist.run_session(48, None);
        let universe = universe_stuck_at(&core);
        let mut flagged = 0usize;
        let mut trials = 0usize;
        for (i, &f) in universe.iter().enumerate() {
            if f.site.pin.is_some() || i % 11 != 0 {
                continue;
            }
            // Only core-internal stem faults (ids valid in the core) —
            // the bist netlist shares those ids.
            trials += 1;
            let sig = bist.run_session(48, Some(f));
            if sig != golden {
                flagged += 1;
            }
        }
        assert!(trials >= 10);
        assert!(
            flagged * 10 >= trials * 8,
            "only {flagged}/{trials} faults flagged by signature"
        );
    }

    #[test]
    fn stem_fault_signatures_are_pinned() {
        // Golden MISR and the number of core stem faults whose session
        // signature differs from it, pinned per core and configuration.
        let check = |core: Netlist, chains, prpg_len, seed, patterns, golden, flagged| {
            let bist = build_stumps(&core, chains, prpg_len, seed);
            let sig = bist.run_session(patterns, None);
            let bits: String = sig.iter().map(|&b| if b { '1' } else { '0' }).collect();
            assert_eq!(bits, golden, "{}", core.name());
            let faults: Vec<_> = universe_stuck_at(&core)
                .into_iter()
                .filter(|f| f.site.pin.is_none())
                .collect();
            let hits = faults
                .iter()
                .filter(|&&f| bist.run_session(patterns, Some(f)) != sig)
                .count();
            assert_eq!((hits, faults.len()), flagged, "{}", core.name());
        };
        check(mac_pe(4), 4, 24, 0x5EED, 64, "01100100", (293, 326));
        check(counter(8), 2, 16, 0xB1, 32, "01011001", (46, 48));
    }

    #[test]
    fn pin_faults_are_injected_like_stems() {
        // A stuck pin on a net with one reader is the stuck stem of its
        // driver: both sessions end in the same signature.
        let core = counter(8);
        let bist = build_stumps(&core, 2, 16, 0xB1);
        let golden = bist.run_session(32, None);
        let (mut flagged, mut single_reader) = (0, 0);
        for f in universe_stuck_at(&core) {
            let Some(pin) = f.site.pin else { continue };
            let sig = bist.run_session(32, Some(f));
            let driver = bist.netlist.gate(f.site.gate).fanins[pin as usize];
            if bist.netlist.gate(driver).fanouts.len() == 1 {
                let stem = Fault::stuck_at_output(driver, f.kind.stuck_value());
                assert_eq!(sig, bist.run_session(32, Some(stem)), "{f}");
                single_reader += 1;
            }
            flagged += usize::from(sig != golden);
        }
        assert!(
            single_reader > 0 && flagged > 0,
            "{single_reader} {flagged}"
        );
    }

    #[test]
    fn prpg_actually_toggles_the_chains() {
        // After a session, the MISR must have absorbed nonconstant data:
        // two different pattern counts give different signatures.
        let core = counter(4);
        let bist = build_stumps(&core, 1, 16, 0x77);
        let s16 = bist.run_session(16, None);
        let s17 = bist.run_session(17, None);
        assert_ne!(s16, s17);
    }
}
