//! Test patterns and responses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dft_netlist::Netlist;

/// One fully-specified test pattern: a bit per combinational source
/// (primary inputs followed by pseudo primary inputs, in
/// [`Netlist::combinational_sources`] order).
///
/// [`Netlist::combinational_sources`]: dft_netlist::Netlist::combinational_sources
pub type Pattern = Vec<bool>;

/// One captured response: a bit per combinational sink (primary outputs
/// followed by pseudo primary outputs, in
/// [`Netlist::combinational_sinks`] order).
///
/// [`Netlist::combinational_sinks`]: dft_netlist::Netlist::combinational_sinks
pub type Response = Vec<bool>;

/// An ordered set of fully-specified test patterns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternSet {
    width: usize,
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Creates an empty set for patterns of `width` bits.
    pub fn new(width: usize) -> PatternSet {
        PatternSet {
            width,
            patterns: Vec::new(),
        }
    }

    /// Creates an empty set sized for `nl`'s combinational sources.
    pub fn for_netlist(nl: &Netlist) -> PatternSet {
        PatternSet::new(nl.num_inputs() + nl.num_dffs())
    }

    /// Generates `n` uniformly random patterns for `nl` (seeded, so
    /// reproducible).
    pub fn random(nl: &Netlist, n: usize, seed: u64) -> PatternSet {
        let width = nl.num_inputs() + nl.num_dffs();
        let mut rng = StdRng::seed_from_u64(seed);
        let patterns = (0..n)
            .map(|_| (0..width).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        PatternSet { width, patterns }
    }

    /// Pattern width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of patterns.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when the set holds no patterns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Appends a pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match the set width.
    pub fn push(&mut self, p: Pattern) {
        assert_eq!(p.len(), self.width, "pattern width mismatch");
        self.patterns.push(p);
    }

    /// The pattern at `idx`.
    #[inline]
    pub fn pattern(&self, idx: usize) -> &Pattern {
        &self.patterns[idx]
    }

    /// Iterates over the patterns in order.
    pub fn iter(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns.iter()
    }

    /// Appends all patterns of `other`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn extend_from(&mut self, other: &PatternSet) {
        assert_eq!(self.width, other.width);
        self.patterns.extend_from_slice(&other.patterns);
    }

    /// Packs patterns `[start, start+64)` into one word per source bit:
    /// bit `k` of `words[s]` is source `s` of pattern `start + k`.
    /// The returned `count` is the number of valid patterns in the block
    /// (≤ 64); unused high bits are zero.
    pub fn pack_block(&self, start: usize) -> (Vec<u64>, usize) {
        let count = (self.patterns.len() - start).min(64);
        let words = pack_bits(&self.patterns[start..start + count], self.width);
        (words, count)
    }

    /// Iterates over `(start_index, packed_words, count)` blocks of up to
    /// 64 patterns.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, Vec<u64>, usize)> + '_ {
        (0..self.patterns.len()).step_by(64).map(move |start| {
            let (words, count) = self.pack_block(start);
            (start, words, count)
        })
    }
}

/// Packs at most 64 patterns of `width` bits into one word per source
/// bit: bit `k` of `words[s]` is source `s` of the `k`-th pattern, and
/// unused high bits are zero. The packer behind
/// [`PatternSet::pack_block`] and transition simulation's launch and
/// capture vectors.
pub(crate) fn pack_bits<'a>(
    patterns: impl IntoIterator<Item = &'a Pattern>,
    width: usize,
) -> Vec<u64> {
    let mut words = vec![0u64; width];
    // OR every bit in rather than branch on it: random patterns
    // mispredict half of those branches, and this loop vectorises.
    for (k, p) in patterns.into_iter().enumerate() {
        for (w, &bit) in words.iter_mut().zip(p) {
            *w |= u64::from(bit) << k;
        }
    }
    words
}

impl FromIterator<Pattern> for PatternSet {
    /// Collects patterns into a set, inferring the width from the first
    /// pattern (empty iterator yields an empty zero-width set).
    fn from_iter<I: IntoIterator<Item = Pattern>>(iter: I) -> PatternSet {
        let patterns: Vec<Pattern> = iter.into_iter().collect();
        let width = patterns.first().map(|p| p.len()).unwrap_or(0);
        for p in &patterns {
            assert_eq!(p.len(), width, "inconsistent pattern widths");
        }
        PatternSet { width, patterns }
    }
}

/// SplitMix64: advances `state` and returns the next pseudo-random word
/// (test data whose bits mix ones and zeros everywhere).
#[cfg(test)]
pub(crate) fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::generators::c17;

    #[test]
    fn random_is_reproducible() {
        let nl = c17();
        let a = PatternSet::random(&nl, 10, 7);
        let b = PatternSet::random(&nl, 10, 7);
        assert_eq!(a, b);
        let c = PatternSet::random(&nl, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn pack_block_layout() {
        let mut ps = PatternSet::new(3);
        ps.push(vec![true, false, true]); // pattern 0
        ps.push(vec![false, true, true]); // pattern 1
        let (words, count) = ps.pack_block(0);
        assert_eq!(count, 2);
        assert_eq!(words[0], 0b01); // source 0: p0=1, p1=0
        assert_eq!(words[1], 0b10);
        assert_eq!(words[2], 0b11);
    }

    /// `n` SplitMix64 bits, so every source and pattern mixes ones and
    /// zeros.
    fn split_mix_bits(seed: u64, n: usize) -> Vec<bool> {
        let mut z = seed;
        let mut word = 0u64;
        (0..n)
            .map(|i| {
                if i % 64 == 0 {
                    word = split_mix(&mut z);
                }
                (word >> (i % 64)) & 1 == 1
            })
            .collect()
    }

    /// `pack_block` against the bit-at-a-time loop at the block edges:
    /// a source count on each side of a word and a pattern count on each
    /// side of a full block, packed from a non-zero start.
    #[test]
    fn pack_block_matches_bit_loop_at_block_edges() {
        const START: usize = 3;
        for width in [1, 7, 8, 63, 64, 65, 97] {
            for count in [1, 63, 64] {
                let mut ps = PatternSet::new(width);
                for i in 0..START + count {
                    ps.push(split_mix_bits((width * 1000 + i) as u64, width));
                }
                let mut expect = vec![0u64; width];
                for k in 0..count {
                    for (s, &bit) in ps.pattern(START + k).iter().enumerate() {
                        if bit {
                            expect[s] |= 1u64 << k;
                        }
                    }
                }
                let (words, got) = ps.pack_block(START);
                assert_eq!(got, count, "width {width} count {count}");
                assert_eq!(words, expect, "width {width} count {count}");
            }
        }
    }

    #[test]
    fn blocks_cover_all_patterns() {
        let nl = c17();
        let ps = PatternSet::random(&nl, 130, 1);
        let blocks: Vec<_> = ps.blocks().collect();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].2, 64);
        assert_eq!(blocks[1].0, 64);
        assert_eq!(blocks[2].2, 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn push_checks_width() {
        let mut ps = PatternSet::new(3);
        ps.push(vec![true]);
    }

    #[test]
    fn from_iterator_infers_width() {
        let ps: PatternSet = vec![vec![true, false], vec![false, true]]
            .into_iter()
            .collect();
        assert_eq!(ps.width(), 2);
        assert_eq!(ps.len(), 2);
    }
}
