//! Good-machine simulation on the gate tape: the 256-pattern block loop
//! every simulation mode starts from, and the unpacking of per-sink wide
//! words into one [`Response`] per pattern.

use crate::tape::{GateTape, WideWord, WIDE_PATTERNS};
use crate::{PatternSet, Response, TapeKernel};

impl TapeKernel<'_> {
    /// Runs the good machine over `patterns`, one 256-pattern wide block
    /// per pass, calling `f(start, count, values)` with the block's first
    /// pattern index, its number of valid patterns, and the wide value of
    /// every tape position.
    pub(crate) fn for_each_block(
        &self,
        patterns: &PatternSet,
        mut f: impl FnMut(usize, usize, &[WideWord]),
    ) {
        let mut vals = Vec::new();
        for start in (0..patterns.len()).step_by(WIDE_PATTERNS) {
            let (src, count) = GateTape::pack_wide(patterns, start);
            self.tape().eval_wide(&src, &mut vals);
            self.note_good_pass();
            f(start, count, &vals);
        }
    }
}

/// Appends the responses of a wide block's first `count` patterns, read
/// from its per-sink words.
///
/// Lane-major: one lane's sink words are copied into a contiguous buffer
/// first, so building each of that lane's responses reads adjacent words
/// rather than one word from every sink's 32-byte [`WideWord`].
pub(crate) fn push_responses(sinks: &[WideWord], count: usize, out: &mut Vec<Response>) {
    let mut lane_words = Vec::with_capacity(sinks.len());
    for lane in 0..count.div_ceil(64) {
        lane_words.clear();
        lane_words.extend(sinks.iter().map(|w| w[lane]));
        let patterns = (count - 64 * lane).min(64);
        out.extend((0..patterns).map(|k| {
            lane_words
                .iter()
                .map(|&w| (w >> k) & 1 == 1)
                .collect::<Response>()
        }));
    }
}

#[cfg(test)]
mod tests {
    use crate::{Pattern, PatternSet, Response, SimKernel, TapeKernel};
    use dft_netlist::generators::{c17, ripple_adder};
    use dft_netlist::{GateKind, Netlist};

    fn simulate(sim: &TapeKernel<'_>, p: &Pattern) -> Response {
        sim.eval_batch(&std::iter::once(p.clone()).collect())
            .remove(0)
    }

    #[test]
    fn c17_known_vector() {
        let nl = c17();
        let sim = TapeKernel::compile(&nl);
        // All inputs 1: G10 = NAND(1,1)=0, G11=0, G16=NAND(1,0)=1,
        // G19=NAND(0,1)=1, G22=NAND(0,1)=1, G23=NAND(1,1)=0.
        assert_eq!(simulate(&sim, &vec![true; 5]), vec![true, false]);
        // All inputs 0: G10=1, G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1,
        // G22=NAND(1,1)=0, G23=0... NAND(1,1)=0 -> [false,false].
        assert_eq!(simulate(&sim, &vec![false; 5]), vec![false, false]);
    }

    #[test]
    fn bit_parallel_matches_scalar() {
        let nl = ripple_adder(8);
        let sim = TapeKernel::compile(&nl);
        // 300 patterns: one full wide block plus a partial one.
        let set = PatternSet::random(&nl, 300, 99);
        let parallel = sim.eval_batch(&set);
        for (i, p) in set.iter().enumerate() {
            assert_eq!(parallel[i], simulate(&sim, p), "pattern {i}");
        }
    }

    #[test]
    fn adder_block_arithmetic() {
        let nl = ripple_adder(8);
        let sim = TapeKernel::compile(&nl);
        // sources are a0..a7, b0..b7, cin in creation order.
        let set = PatternSet::random(&nl, 64, 5);
        let responses = sim.eval_batch(&set);
        for (p, r) in set.iter().zip(&responses) {
            let a: u64 = (0..8).map(|i| (p[i] as u64) << i).sum();
            let b: u64 = (0..8).map(|i| (p[8 + i] as u64) << i).sum();
            let cin = p[16] as u64;
            let sum: u64 = (0..8).map(|i| (r[i] as u64) << i).sum::<u64>() + ((r[8] as u64) << 8);
            assert_eq!(sum, a + b + cin);
        }
    }

    /// `push_responses` against `(w[k / 64] >> (k % 64)) & 1`, one wide
    /// block at a time, at pattern counts on each side of a lane and of a
    /// wide block, for sink counts on each side of a word.
    #[test]
    fn push_responses_matches_bit_reads_at_block_edges() {
        use crate::goodsim::push_responses;
        use crate::patterns::split_mix;
        use crate::tape::{WideWord, WIDE_PATTERNS};
        let mut z = 0x5EED_u64;
        for sinks in [1, 63, 64, 65, 144] {
            for total in [1, 63, 64, 65, 255, 256, 257, 720] {
                let mut got = Vec::new();
                let mut expect = Vec::new();
                for start in (0..total).step_by(WIDE_PATTERNS) {
                    let count = (total - start).min(WIDE_PATTERNS);
                    let words: Vec<WideWord> = (0..sinks)
                        .map(|_| std::array::from_fn(|_| split_mix(&mut z)))
                        .collect();
                    push_responses(&words, count, &mut got);
                    expect.extend((0..count).map(|k| {
                        words
                            .iter()
                            .map(|w| (w[k / 64] >> (k % 64)) & 1 == 1)
                            .collect::<Response>()
                    }));
                }
                assert_eq!(got.len(), total, "sinks {sinks} patterns {total}");
                assert_eq!(got, expect, "sinks {sinks} patterns {total}");
            }
        }
    }

    #[test]
    fn dff_sink_reads_d_pin() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, vec![a], "inv");
        let q = nl.add_dff(inv, "q");
        nl.add_output(q, "po");
        let sim = TapeKernel::compile(&nl);
        // Pattern: [a, q]. Response: [po, q_dpin].
        let resp = simulate(&sim, &vec![true, false]);
        assert!(!resp[0]); // po reflects current q
        assert!(!resp[1]); // D pin = !a = 0
        let resp = simulate(&sim, &vec![false, true]);
        assert!(resp[0]);
        assert!(resp[1]);
    }
}
