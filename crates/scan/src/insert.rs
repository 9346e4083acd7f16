//! Structural scan insertion.

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
    /// every chain with `se = 1` and checking it emerges at the scan
    /// outputs in order. Returns `true` when every chain shifts correctly.
    pub fn verify_chains(&self) -> bool {
        let nl = &self.netlist;
        let lv = match Levelization::compute(nl) {
            Ok(lv) => lv,
            Err(_) => return false,
        };
        let mut state = vec![false; nl.num_gates()];
        state[self.scan_enable.index()] = true;
        // Shift in a pseudo-random but per-chain-distinct sequence.
        let len = self.shift_cycles();
        let seq = |c: usize, t: usize| -> bool { ((t * 7 + c * 3 + 1) % 5) < 2 };
        let mut outputs: Vec<Vec<bool>> = vec![Vec::new(); self.chains.len()];
        for t in 0..2 * len {
            for (c, &si) in self.scan_in.iter().enumerate() {
                state[si.index()] = seq(c, t);
            }
            // Combinational settle.
            let mut vals = state.clone();
            for &id in lv.order() {
                let g = nl.gate(id);
                if matches!(g.kind, GateKind::Input | GateKind::Dff) {
                    continue;
                }
                let ins: Vec<bool> = g.fanins.iter().map(|&f| vals[f.index()]).collect();
                vals[id.index()] = g.kind.eval_bool(&ins);
            }
            for (c, &so) in self.scan_out.iter().enumerate() {
                outputs[c].push(vals[so.index()]);
            }
            // Clock.
            for &ff in nl.dffs() {
                let d = nl.gate(ff).fanins[0];
                state[ff.index()] = vals[d.index()];
            }
        }
        // After `chain_len` cycles of latency, the input sequence appears
        // at the output. The scan-out is combinational from the last flop,
        // so output at time t equals input at time t - chain_len.
        for (c, chain) in self.chains.iter().enumerate() {
            let lat = chain.len();
            for (t, &bit) in outputs[c].iter().enumerate().take(2 * len).skip(lat) {
                if bit != seq(c, t - lat) {
                    return false;
                }
            }
        }
        true
    }
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
        let lv = Levelization::compute(snl).unwrap();
        let en = snl.find("en").unwrap();
        let q: Vec<GateId> = (0..4)
            .map(|i| snl.find(&format!("q{i}")).unwrap())
            .collect();
        let mut state = vec![false; snl.num_gates()];
        state[en.index()] = true;
        for clock in 0..20u64 {
            let mut vals = state.clone();
            for &id in lv.order() {
                let g = snl.gate(id);
                if matches!(g.kind, GateKind::Input | GateKind::Dff) {
                    continue;
                }
                let ins: Vec<bool> = g.fanins.iter().map(|&f| vals[f.index()]).collect();
                vals[id.index()] = g.kind.eval_bool(&ins);
            }
            let count: u64 = q
                .iter()
                .enumerate()
                .map(|(i, &g)| (state[g.index()] as u64) << i)
                .sum();
            assert_eq!(count, clock % 16);
            for &ff in snl.dffs() {
                let d = snl.gate(ff).fanins[0];
                state[ff.index()] = vals[d.index()];
            }
            state[en.index()] = true;
        }
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
