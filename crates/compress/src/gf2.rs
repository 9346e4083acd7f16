//! Dense GF(2) linear-system solver (Gaussian elimination with partial
//! pivoting over bit-packed rows).

/// A linear system `A x = b` over GF(2), built row by row.
///
/// Rows are bit-packed into `u64` words; the solver performs in-place
/// forward elimination and back-substitution. Free variables are set to 0.
#[derive(Debug, Clone)]
pub struct Gf2System {
    vars: usize,
    words: usize,
    /// Each row: coefficient words followed by the RHS bit stored
    /// separately.
    rows: Vec<(Vec<u64>, bool)>,
}

impl Gf2System {
    /// Creates an empty system over `vars` variables.
    pub fn new(vars: usize) -> Gf2System {
        Gf2System {
            vars,
            words: vars.div_ceil(64),
            rows: Vec::new(),
        }
    }

    /// Number of equations added.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds the equation `sum(coeffs) = rhs`, where `coeffs` is the
    /// bit-packed coefficient vector (one bit per variable, so
    /// `vars.div_ceil(64)` words for a system built with `new(vars)`).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` has the wrong length.
    pub fn add_equation(&mut self, coeffs: Vec<u64>, rhs: bool) {
        assert_eq!(coeffs.len(), self.words, "coefficient width");
        self.rows.push((coeffs, rhs));
    }

    /// Convenience: adds an equation from variable indices.
    pub fn add_equation_vars(&mut self, vars: &[usize], rhs: bool) {
        let mut coeffs = vec![0u64; self.words];
        for &v in vars {
            assert!(v < self.vars);
            coeffs[v / 64] ^= 1 << (v % 64);
        }
        self.rows.push((coeffs, rhs));
    }

    /// Solves the system. Returns `None` when inconsistent; otherwise one
    /// solution (free variables 0).
    pub fn solve(self) -> Option<Vec<bool>> {
        self.solve_counted().0
    }

    /// Like [`Gf2System::solve`], also returning the number of row-XOR
    /// elimination operations performed (the solver's work measure).
    pub fn solve_counted(mut self) -> (Option<Vec<bool>>, u64) {
        let mut eliminations = 0u64;
        let mut pivot_of_col: Vec<Option<usize>> = vec![None; self.vars];
        let mut rank = 0usize;
        let nrows = self.rows.len();
        for (col, pivot_slot) in pivot_of_col.iter_mut().enumerate() {
            let (w, b) = (col / 64, col % 64);
            // Find a pivot row at or below `rank`.
            let mut pivot = None;
            for r in rank..nrows {
                if (self.rows[r].0[w] >> b) & 1 == 1 {
                    pivot = Some(r);
                    break;
                }
            }
            let Some(p) = pivot else { continue };
            self.rows.swap(rank, p);
            // Eliminate this column from every other row.
            let (pivot_coeffs, pivot_rhs) = self.rows[rank].clone();
            for (r, row) in self.rows.iter_mut().enumerate() {
                if r != rank && (row.0[w] >> b) & 1 == 1 {
                    for (dst, &pc) in row.0.iter_mut().zip(&pivot_coeffs) {
                        *dst ^= pc;
                    }
                    row.1 ^= pivot_rhs;
                    eliminations += 1;
                }
            }
            *pivot_slot = Some(rank);
            rank += 1;
            if rank == nrows {
                break;
            }
        }
        // Inconsistency: a zero row with RHS 1.
        for (coeffs, rhs) in &self.rows[rank..] {
            if *rhs && coeffs.iter().all(|&w| w == 0) {
                return (None, eliminations);
            }
        }
        // Read off the solution (rows are fully reduced).
        let mut x = vec![false; self.vars];
        for (col, p) in pivot_of_col.iter().enumerate() {
            if let Some(r) = p {
                x[col] = self.rows[*r].1;
            }
        }
        (Some(x), eliminations)
    }
}

/// Evaluates a bit-packed coefficient vector against an assignment
/// (dot product over GF(2)).
#[allow(dead_code)] // exercised by unit and property tests
pub(crate) fn dot(coeffs: &[u64], x: &[bool]) -> bool {
    let mut acc = false;
    for (i, &xi) in x.iter().enumerate() {
        if xi && (coeffs[i / 64] >> (i % 64)) & 1 == 1 {
            acc = !acc;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_simple_system() {
        // x0 ^ x1 = 1; x1 = 1  => x0 = 0, x1 = 1.
        let mut sys = Gf2System::new(2);
        sys.add_equation_vars(&[0, 1], true);
        sys.add_equation_vars(&[1], true);
        let x = sys.solve().unwrap();
        assert_eq!(x, vec![false, true]);
    }

    #[test]
    fn detects_inconsistency() {
        // x0 = 0; x0 = 1.
        let mut sys = Gf2System::new(1);
        sys.add_equation_vars(&[0], false);
        sys.add_equation_vars(&[0], true);
        assert!(sys.solve().is_none());
    }

    #[test]
    fn underdetermined_free_vars_zero() {
        let mut sys = Gf2System::new(4);
        sys.add_equation_vars(&[0, 2], true);
        let x = sys.solve().unwrap();
        assert!(x[0] ^ x[2]);
        assert!(!x[1] && !x[3]);
    }

    #[test]
    fn redundant_consistent_rows_ok() {
        let mut sys = Gf2System::new(3);
        sys.add_equation_vars(&[0, 1], true);
        sys.add_equation_vars(&[1, 2], false);
        sys.add_equation_vars(&[0, 2], true); // sum of the first two
        let x = sys.solve().unwrap();
        assert!(x[0] ^ x[1]);
        assert!(!(x[1] ^ x[2]));
    }

    #[test]
    fn random_systems_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..50 {
            let vars = rng.gen_range(1..100);
            let planted: Vec<bool> = (0..vars).map(|_| rng.gen_bool(0.5)).collect();
            let mut sys = Gf2System::new(vars);
            let mut saved_rows: Vec<(Vec<u64>, bool)> = Vec::new();
            for _ in 0..rng.gen_range(1..2 * vars + 1) {
                let mut coeffs = vec![0u64; vars.div_ceil(64)];
                for v in 0..vars {
                    if rng.gen_bool(0.3) {
                        coeffs[v / 64] ^= 1 << (v % 64);
                    }
                }
                let rhs = dot(&coeffs, &planted);
                saved_rows.push((coeffs.clone(), rhs));
                sys.add_equation(coeffs, rhs);
            }
            let x = sys
                .solve()
                .unwrap_or_else(|| panic!("trial {trial}: consistent system reported unsolvable"));
            for (coeffs, rhs) in &saved_rows {
                assert_eq!(dot(coeffs, &x), *rhs, "trial {trial}");
            }
        }
    }

    #[test]
    fn wide_systems_cross_word_boundaries() {
        let mut sys = Gf2System::new(130);
        sys.add_equation_vars(&[0, 64, 129], true);
        sys.add_equation_vars(&[64], true);
        sys.add_equation_vars(&[129], false);
        let x = sys.solve().unwrap();
        // x0 = 1 ^ x64 ^ x129 = 1 ^ 1 ^ 0 = 0.
        assert!(!x[0]);
        assert!(x[64]);
        assert!(!x[129]);
    }
}
