//! Scan-chain diagnosis: locating a broken scan cell.
//!
//! With thousands of flops per chain in an AI chip, a single defective
//! scan cell blocks everything upstream of it — the tester sees a
//! characteristic "flush" failure rather than functional miscompares.
//! The standard first step of chain diagnosis: apply flush patterns
//! (shift-only, no capture) and deduce the defect position and polarity
//! from the corrupted unload image.

use dft_logicsim::{SimKernel, TapeKernel};
use dft_netlist::GateId;
use dft_scan::ScanInsertion;

/// Behaviour of a defective scan cell during shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainDefect {
    /// The cell's scan path output is stuck at a value: every bit shifted
    /// through it reads that value downstream.
    StuckAt(bool),
    /// The cell inverts what it passes along.
    Inversion,
}

/// A located chain defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainDiagnosis {
    /// Chain index.
    pub chain: usize,
    /// Cell position from scan-in (0 = first cell after `si`).
    pub position: usize,
    /// Deduced defect behaviour.
    pub defect: ChainDefect,
}

/// Simulates a flush test on the scan-inserted netlist with a defective
/// cell injected, clocked on the gate tape, returning the unload image
/// observed at `so{chain}`: `image[k]` is the bit emerging at shift cycle
/// `k` (for `2 * len` cycles, the flush vector being `pattern`).
pub fn flush_unload(
    scan: &ScanInsertion,
    chain: usize,
    defect_pos: Option<(usize, ChainDefect)>,
    pattern: &[bool],
) -> Vec<bool> {
    let nl = &scan.netlist;
    let len = scan.chains[chain].len();
    assert_eq!(
        pattern.len(),
        2 * len,
        "flush vector must cover 2*len cycles"
    );
    let sim = TapeKernel::compile(nl);
    let so = index_of(nl.outputs(), scan.scan_out[chain]);
    // The defective cell's index in the flop state, if it is in the chain.
    let cell = defect_pos.and_then(|(pos, defect)| {
        Some((index_of(nl.dffs(), *scan.chains[chain].get(pos)?), defect))
    });
    let mut inputs = vec![false; nl.num_inputs()];
    inputs[index_of(nl.inputs(), scan.scan_enable)] = true;
    let si = index_of(nl.inputs(), scan.scan_in[chain]);
    let mut state = vec![false; nl.num_dffs()];
    let mut out = Vec::with_capacity(2 * len);
    for &bit in pattern {
        inputs[si] = bit;
        out.push(sim.clock(&inputs, &mut state, None)[so]);
        // Inject the shift-path defect at the cell's capture.
        if let Some((k, defect)) = cell {
            state[k] = match defect {
                ChainDefect::StuckAt(s) => s,
                ChainDefect::Inversion => !state[k],
            };
        }
    }
    out
}

/// The index of `id` in `ids`, a netlist's input, output or flop list.
fn index_of(ids: &[GateId], id: GateId) -> usize {
    ids.iter().position(|&g| g == id).expect("scan pin or cell")
}

/// Diagnoses a chain from its flush unload image.
///
/// The flush vector convention: first `len` cycles shift in alternating
/// `0011...`-style bits (provided by the caller as `pattern`); a healthy
/// chain echoes `pattern` delayed by `len` cycles. A stuck cell at
/// position `p` (0 = nearest scan-in) forces every bit that passes
/// through it, so the unload is constant from the point the wavefront
/// reaches the scan-out; an inverting cell flips the whole delayed image.
/// Position is recovered from where the constant region begins.
pub fn diagnose_chain(
    scan: &ScanInsertion,
    chain: usize,
    observed: &[bool],
    pattern: &[bool],
) -> Option<ChainDiagnosis> {
    let len = scan.chains[chain].len();
    assert_eq!(observed.len(), 2 * len);
    let healthy: Vec<bool> = (0..2 * len)
        .map(|t| if t < len { false } else { pattern[t - len] })
        .collect();
    // Healthy chains initially hold 0s; compare the echo region.
    if observed[len..] == healthy[len..] {
        return None;
    }
    // Stuck cell: the echo region is constant. A cell at position p
    // passes its forced value through the remaining len-1-p cells, so
    // every observed bit after the initial flush is that constant.
    let echo = &observed[len..];
    if echo.iter().all(|&b| b == echo[0]) {
        let stuck = echo[0];
        // Refine position: bits shifted BEFORE the wavefront reaches the
        // defect are already forced; the defect also forces the initial
        // zeros, so the earliest observed cycles are `stuck` too. The
        // number of leading cycles equal to the healthy image (all-0
        // prefix) reveals the distance from the defect to the scan-out:
        // cells downstream of the defect still deliver their original 0s
        // for (len-1-p) cycles when stuck==1.
        let position = if stuck {
            // After t clocks the forced value occupies positions
            // `p..p+t-1`; it reaches the scan-out cell (position len-1)
            // after `len-p` clocks, so the unload shows exactly `len-p`
            // leading original zeros: p = len - leading_zeros.
            let leading_zeros = observed.iter().take_while(|&&b| !b).count();
            len.saturating_sub(leading_zeros)
        } else {
            // Stuck-0 against an all-0 initial image carries no position
            // information from the flush alone; report the scan-in side
            // (industry practice: bound = "at or before first failing
            // cell", refined later by capture-based patterns).
            0
        };
        return Some(ChainDiagnosis {
            chain,
            position,
            defect: ChainDefect::StuckAt(stuck),
        });
    }
    // Inversion: echo equals the complemented pattern.
    let inverted: Vec<bool> = pattern[..len].iter().map(|&b| !b).collect();
    if echo == &inverted[..] {
        return Some(ChainDiagnosis {
            chain,
            position: 0, // flush alone cannot localize an inversion
            defect: ChainDefect::Inversion,
        });
    }
    // Unrecognized image: report as stuck at the majority value.
    let ones = echo.iter().filter(|&&b| b).count();
    Some(ChainDiagnosis {
        chain,
        position: 0,
        defect: ChainDefect::StuckAt(ones * 2 > echo.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::shift_register;
    use dft_scan::{insert_scan, ScanConfig};

    fn setup() -> ScanInsertion {
        let nl = shift_register(12);
        insert_scan(&nl, &ScanConfig { num_chains: 1 })
    }

    fn flush_vec(len: usize) -> Vec<bool> {
        (0..2 * len).map(|t| (t / 2) % 2 == 1).collect()
    }

    #[test]
    fn healthy_chain_reports_none() {
        let scan = setup();
        let len = scan.chains[0].len();
        let pattern = flush_vec(len);
        let image = flush_unload(&scan, 0, None, &pattern);
        assert!(diagnose_chain(&scan, 0, &image, &pattern).is_none());
    }

    #[test]
    fn stuck_one_cell_is_localized() {
        let scan = setup();
        let len = scan.chains[0].len();
        let pattern = flush_vec(len);
        for pos in 0..len {
            let image = flush_unload(&scan, 0, Some((pos, ChainDefect::StuckAt(true))), &pattern);
            let d = diagnose_chain(&scan, 0, &image, &pattern)
                .unwrap_or_else(|| panic!("defect at {pos} not flagged"));
            assert_eq!(d.defect, ChainDefect::StuckAt(true));
            assert_eq!(d.position, pos, "stuck-1 localization at {pos}");
        }
    }

    #[test]
    fn stuck_zero_is_flagged_with_scanin_bound() {
        let scan = setup();
        let len = scan.chains[0].len();
        let pattern = flush_vec(len);
        let image = flush_unload(&scan, 0, Some((5, ChainDefect::StuckAt(false))), &pattern);
        let d = diagnose_chain(&scan, 0, &image, &pattern).expect("flagged");
        assert_eq!(d.defect, ChainDefect::StuckAt(false));
    }

    #[test]
    fn inversion_is_recognized() {
        let scan = setup();
        let len = scan.chains[0].len();
        let pattern = flush_vec(len);
        let image = flush_unload(&scan, 0, Some((3, ChainDefect::Inversion)), &pattern);
        let d = diagnose_chain(&scan, 0, &image, &pattern).expect("flagged");
        assert_eq!(d.defect, ChainDefect::Inversion);
    }
}
