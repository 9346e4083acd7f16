//! Partially-specified test cubes.
//!
//! ATPG produces *cubes* — assignments where only the care bits needed to
//! detect the target fault are specified. Cubes are the currency of
//! dynamic compaction (a cube extended with tests for more faults) and of
//! EDT compression (the GF(2) solver encodes only care bits).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Pattern;

/// A partially-specified test pattern: `Some(bit)` for care bits, `None`
/// for don't-cares.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TestCube {
    bits: Vec<Option<bool>>,
}

impl TestCube {
    /// All-X cube of the given width.
    pub fn all_x(width: usize) -> TestCube {
        TestCube {
            bits: vec![None; width],
        }
    }

    /// Builds a cube from raw bits.
    pub fn from_bits(bits: Vec<Option<bool>>) -> TestCube {
        TestCube { bits }
    }

    /// Cube width.
    #[inline]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The bit at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<bool> {
        self.bits[idx]
    }

    /// Sets the bit at `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, v: bool) {
        self.bits[idx] = Some(v);
    }

    /// Clears the bit at `idx` back to X.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        self.bits[idx] = None;
    }

    /// Raw access to the bits.
    #[inline]
    pub fn bits(&self) -> &[Option<bool>] {
        &self.bits
    }

    /// Number of specified (care) bits.
    pub fn care_bits(&self) -> usize {
        self.bits.iter().filter(|b| b.is_some()).count()
    }

    /// Care-bit density in `[0, 1]`.
    pub fn care_density(&self) -> f64 {
        if self.bits.is_empty() {
            return 0.0;
        }
        self.care_bits() as f64 / self.bits.len() as f64
    }

    /// Fills don't-cares with seeded random values, producing a
    /// fully-specified pattern. Random fill is the industry default: it
    /// lets one deterministic cube detect many untargeted faults.
    pub fn random_fill(&self, seed: u64) -> Pattern {
        let mut rng = StdRng::seed_from_u64(seed);
        self.bits
            .iter()
            .map(|b| b.unwrap_or_else(|| rng.gen_bool(0.5)))
            .collect()
    }

    /// Fills don't-cares with a constant value.
    pub fn fill_with(&self, value: bool) -> Pattern {
        self.bits.iter().map(|b| b.unwrap_or(value)).collect()
    }
}

impl From<Pattern> for TestCube {
    fn from(p: Pattern) -> TestCube {
        TestCube {
            bits: p.into_iter().map(Some).collect(),
        }
    }
}

impl std::fmt::Display for TestCube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.bits {
            let c = match b {
                Some(true) => '1',
                Some(false) => '0',
                None => 'X',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn care_accounting() {
        let mut c = TestCube::all_x(10);
        assert_eq!(c.care_bits(), 0);
        c.set(3, true);
        c.set(7, false);
        assert_eq!(c.care_bits(), 2);
        assert!((c.care_density() - 0.2).abs() < 1e-12);
        c.clear(3);
        assert_eq!(c.care_bits(), 1);
    }

    #[test]
    fn random_fill_respects_care_bits() {
        let mut c = TestCube::all_x(64);
        c.set(5, true);
        c.set(40, false);
        for seed in 0..10 {
            let p = c.random_fill(seed);
            assert!(p[5]);
            assert!(!p[40]);
        }
        // Different seeds give different fills (overwhelmingly likely).
        assert_ne!(c.random_fill(1), c.random_fill(2));
    }

    #[test]
    fn display_format() {
        let mut c = TestCube::all_x(3);
        c.set(1, true);
        assert_eq!(c.to_string(), "X1X");
    }

    #[test]
    fn from_pattern_is_fully_specified() {
        let c: TestCube = vec![true, false].into();
        assert_eq!(c.care_bits(), 2);
        assert_eq!(c.fill_with(false), vec![true, false]);
    }
}
