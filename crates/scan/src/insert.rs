//! Structural scan insertion.

use dft_logicsim::{SimKernel, TapeKernel};
use dft_netlist::{GateId, GateKind, Levelization, Netlist};

/// Scan-architecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanConfig {
    /// Number of scan chains. Flops are partitioned into contiguous
    /// blocks of balanced length (difference ≤ 1).
    pub num_chains: usize,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig { num_chains: 1 }
    }
}

impl ScanConfig {
    /// The default configuration, as a builder seed: chain the setters
    /// below, e.g. `ScanConfig::new().num_chains(8)`. All fields remain
    /// public for direct struct updates.
    pub fn new() -> ScanConfig {
        ScanConfig::default()
    }

    /// Sets the scan-chain count.
    pub fn num_chains(mut self, chains: usize) -> ScanConfig {
        self.num_chains = chains;
        self
    }
}

/// The result of scan insertion.
#[derive(Debug)]
pub struct ScanInsertion {
    /// The scan-inserted netlist: every flop D pin goes through a
    /// `MUX(se, d_func, si)`; new pins `se`, `si{c}`, `so{c}`.
    pub netlist: Netlist,
    /// Chains of flop ids **in the scan-inserted netlist**, scan-in side
    /// first.
    pub chains: Vec<Vec<GateId>>,
    /// Scan-in input per chain.
    pub scan_in: Vec<GateId>,
    /// Scan-out output marker per chain.
    pub scan_out: Vec<GateId>,
    /// The shared scan-enable input.
    pub scan_enable: GateId,
    /// Logic gates added by insertion (the area-overhead numerator).
    pub added_gates: usize,
}

impl ScanInsertion {
    /// Shift cycles per load/unload: the length of the longest chain.
    pub fn shift_cycles(&self) -> usize {
        self.chains.iter().map(|c| c.len()).max().unwrap_or(0)
    }

    /// Verifies chain connectivity by shifting a marker sequence through
    /// every chain with `se = 1`, clocked on the gate tape, and checking
    /// it emerges at the scan outputs in order. Returns `true` when every
    /// chain shifts correctly, and `false` on a combinational loop.
    pub fn verify_chains(&self) -> bool {
        let nl = &self.netlist;
        // The tape compiles acyclic netlists only.
        if Levelization::compute(nl).is_err() {
            return false;
        }
        let sim = TapeKernel::compile(nl);
        let mut inputs = vec![false; nl.num_inputs()];
        inputs[index_of(nl.inputs(), self.scan_enable)] = true;
        let mut state = vec![false; nl.num_dffs()];
        // Shift in a pseudo-random but per-chain-distinct sequence.
        let seq = |c: usize, t: usize| -> bool { ((t * 7 + c * 3 + 1) % 5) < 2 };
        for t in 0..2 * self.shift_cycles() {
            for (c, &si) in self.scan_in.iter().enumerate() {
                inputs[index_of(nl.inputs(), si)] = seq(c, t);
            }
            let outputs = sim.clock(&inputs, &mut state, None);
            // The scan-out is combinational from the last flop, so the
            // bit out at time t went in at t - chain length.
            for (c, (chain, &so)) in self.chains.iter().zip(&self.scan_out).enumerate() {
                if t >= chain.len()
                    && outputs[index_of(nl.outputs(), so)] != seq(c, t - chain.len())
                {
                    return false;
                }
            }
        }
        true
    }
}

/// The index of `id` in `ids`, a netlist's input, output or flop list.
fn index_of(ids: &[GateId], id: GateId) -> usize {
    ids.iter().position(|&g| g == id).expect("scan pin")
}

/// Inserts full scan into a copy of `nl`.
///
/// The returned netlist contains the original logic plus, per flop, a
/// scan mux `MUX(se, d_func, si)` rewired into the D pin; flops are
/// stitched Q→SI in balanced chains. New primary pins: one `se`, and
/// `si{c}`/`so{c}` per chain.
///
/// # Panics
///
/// Panics if `cfg.num_chains == 0`.
pub fn insert_scan(nl: &Netlist, cfg: &ScanConfig) -> ScanInsertion {
    assert!(cfg.num_chains > 0, "at least one chain required");
    let mut out = nl.clone();
    let before = out.num_gates();
    let se = out.add_input("se");

    let ffs: Vec<GateId> = out.dffs().to_vec();
    let num_chains = cfg.num_chains.min(ffs.len().max(1));
    let mut chains: Vec<Vec<GateId>> = Vec::with_capacity(num_chains);
    let mut scan_in = Vec::with_capacity(num_chains);
    let mut scan_out = Vec::with_capacity(num_chains);

    if ffs.is_empty() {
        // Combinational design: produce a degenerate architecture.
        return ScanInsertion {
            netlist: out,
            chains: vec![],
            scan_in: vec![],
            scan_out: vec![],
            scan_enable: se,
            added_gates: 1,
        };
    }

    // Balanced contiguous partition.
    let base = ffs.len() / num_chains;
    let extra = ffs.len() % num_chains;
    let mut idx = 0;
    for c in 0..num_chains {
        let len = base + usize::from(c < extra);
        let chain: Vec<GateId> = ffs[idx..idx + len].to_vec();
        idx += len;
        let si = out.add_input(&format!("si{c}"));
        scan_in.push(si);
        let mut prev = si;
        for &ff in &chain {
            let d_func = out.gate(ff).fanins[0];
            let mux = out.add_gate(
                GateKind::Mux2,
                vec![se, d_func, prev],
                &format!("scanmux_{}", out.gate(ff).name),
            );
            out.rewire_fanin(ff, 0, mux);
            prev = ff;
        }
        let so = out.add_output(prev, &format!("so{c}"));
        scan_out.push(so);
        chains.push(chain);
    }

    let added = out.num_gates() - before;
    ScanInsertion {
        netlist: out,
        chains,
        scan_in,
        scan_out,
        scan_enable: se,
        added_gates: added,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::{counter, s27, shift_register, systolic_array, SystolicConfig};
    use dft_netlist::NetlistStats;

    #[test]
    fn single_chain_counter() {
        let nl = counter(8);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 1 });
        assert_eq!(scan.chains.len(), 1);
        assert_eq!(scan.chains[0].len(), 8);
        assert_eq!(scan.shift_cycles(), 8);
        scan.netlist.validate().unwrap();
        assert!(scan.verify_chains());
    }

    #[test]
    fn balanced_multi_chain_partition() {
        let nl = shift_register(10);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 3 });
        let lens: Vec<usize> = scan.chains.iter().map(|c| c.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 10);
        assert_eq!(*lens.iter().max().unwrap(), 4);
        assert_eq!(*lens.iter().min().unwrap(), 3);
        assert!(scan.verify_chains());
    }

    #[test]
    fn more_chains_than_flops_clamps() {
        let nl = counter(3);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 8 });
        assert_eq!(scan.chains.len(), 3);
        assert!(scan.chains.iter().all(|c| c.len() == 1));
        assert!(scan.verify_chains());
    }

    #[test]
    fn functional_behaviour_preserved_with_se_low() {
        // With se=0 the scan-inserted counter must still count.
        let nl = counter(4);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 1 });
        let snl = &scan.netlist;
        let sim = TapeKernel::compile(snl);
        let en = snl.find("en").unwrap();
        let inputs: Vec<bool> = snl.inputs().iter().map(|&g| g == en).collect();
        let mut state = vec![false; snl.num_dffs()];
        for clock in 0..20u64 {
            // Outputs qo0..qo3 show the count, so0 comes after them.
            let outputs = sim.clock(&inputs, &mut state, None);
            let count: u64 = (0..4).map(|i| (outputs[i] as u64) << i).sum();
            assert_eq!(count, clock % 16);
        }
    }

    #[test]
    fn combinational_loop_fails_verification() {
        // Closing a loop through a scan mux: verification says no rather
        // than panicking in the tape compiler.
        let mut scan = insert_scan(&counter(4), &ScanConfig { num_chains: 1 });
        let mux = scan.netlist.gate(scan.chains[0][0]).fanins[0];
        let d_func = scan.netlist.gate(mux).fanins[1];
        scan.netlist.rewire_fanin(d_func, 0, mux);
        assert!(Levelization::compute(&scan.netlist).is_err());
        assert!(!scan.verify_chains());
    }

    #[test]
    fn area_overhead_is_one_mux_per_flop() {
        let nl = s27();
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 1 });
        // 1 se input + 1 si + 3 muxes + 1 so marker = 6 new gates.
        assert_eq!(scan.added_gates, 6);
    }

    #[test]
    fn systolic_array_scan_inserts_cleanly() {
        let nl = systolic_array(SystolicConfig {
            rows: 2,
            cols: 2,
            width: 4,
        });
        let flops = nl.num_dffs();
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 4 });
        assert_eq!(scan.chains.iter().map(|c| c.len()).sum::<usize>(), flops);
        assert!(scan.verify_chains());
        let st = NetlistStats::of(&scan.netlist);
        assert_eq!(st.dffs, flops);
    }
}
