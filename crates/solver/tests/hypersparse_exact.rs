//! Pinned exactness of the sparse revised core on a fleet-shaped LP.
//!
//! A fleet slot relaxation is block-diagonal: a few rows and columns per
//! edge, tied together by one balance row. Its basis has thousands of rows,
//! and a typical FTRAN/BTRAN touches only a handful of them, which is where
//! the factor's reach traversal replaces the full scan (DESIGN.md §3). The
//! traversal must change the speed of a solve and nothing else: this test
//! pins the iteration count and the bits of the optimal point and objective
//! of one cold solve, as the full-scan kernels computed them. Any change in
//! pivot order, tie-break or summation order moves one of the pinned
//! values.

use birp_solver::lp::{LpProblem, RowCmp};
use birp_solver::simplex::{SimplexEngine, SimplexMode, SimplexOptions};
use birp_solver::LpStatus;

/// Deterministic SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `edges` blocks of 5 rows over 10 boxed columns each, plus one equality
/// row that balances every block's first column against the others' (the
/// fleet's inter-edge redistribution row). Coefficients are small integers
/// and the right-hand sides come from a point on a quarter grid inside the
/// box, so the LP is feasible and bounded; a mix of `=`, `>=` and `<=`
/// rows puts phase 1, phase 2 and the artificial drive-out on the path.
fn fleet_lp(edges: usize, seed: u64) -> LpProblem {
    const ROWS: usize = 5;
    const COLS: usize = 10;
    let mut rng = Rng(seed);
    let n = edges * COLS;
    let mut lp = LpProblem::with_columns(n);
    let mut x0 = vec![0.0; n];
    for (j, x) in x0.iter_mut().enumerate() {
        lp.upper[j] = (1 + rng.below(8)) as f64;
        *x = rng.below(4 * lp.upper[j] as u64 + 1) as f64 * 0.25;
        lp.objective[j] = rng.below(21) as f64 - 12.0;
    }
    let row_at = |coeffs: &[(usize, f64)]| -> f64 { coeffs.iter().map(|&(j, c)| c * x0[j]).sum() };
    for e in 0..edges {
        let base = e * COLS;
        for r in 0..ROWS {
            let mut coeffs: Vec<(usize, f64)> = Vec::new();
            for c in 0..COLS {
                if c == r || rng.below(10) < 4 {
                    let mut v = rng.below(7) as f64 - 3.0;
                    if v == 0.0 {
                        v = 1.0;
                    }
                    coeffs.push((base + c, v));
                }
            }
            let at = row_at(&coeffs);
            let (cmp, rhs) = match r {
                0 => (RowCmp::Eq, at),
                1 => (RowCmp::Ge, at - rng.below(3) as f64),
                _ => (RowCmp::Le, at + rng.below(3) as f64),
            };
            lp.push_row(coeffs, cmp, rhs);
        }
    }
    let balance: Vec<(usize, f64)> = (0..edges)
        .map(|e| (e * COLS, if e % 2 == 0 { 1.0 } else { -1.0 }))
        .collect();
    let at = row_at(&balance);
    lp.push_row(balance, RowCmp::Eq, at);
    lp
}

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

#[test]
fn fleet_relaxation_cold_solve_is_pinned() {
    let lp = fleet_lp(400, 7);
    assert!(lp.num_rows() >= 2000);
    let opts = SimplexOptions {
        mode: SimplexMode::Sparse,
        ..SimplexOptions::default()
    };
    let mut eng = SimplexEngine::new();
    let sol = eng
        .try_solve_cold(&lp, &lp.lower, &lp.upper, &opts)
        .expect("the sparse core solves the fleet LP without numerical trouble");
    assert_eq!(sol.status, LpStatus::Optimal);
    let (sparse, _, _) = eng.vertex_report().expect("solved");
    assert!(
        sparse,
        "the sparse revised core must have produced the solve"
    );
    let digest =
        fnv(std::iter::once(sol.objective.to_bits()).chain(sol.x.iter().map(|v| v.to_bits())));
    assert_eq!(sol.iterations, 5049, "pivot count moved");
    assert_eq!(
        digest, 0xa51e_3960_d257_614c,
        "optimal point or objective moved"
    );
}
