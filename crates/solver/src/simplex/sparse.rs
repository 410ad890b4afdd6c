//! Compressed sparse storage for the revised simplex engine.
//!
//! The constraint matrix of a BIRP per-slot LP is > 95 % zeros (each
//! variable touches one memory row, one compute row and one bandwidth
//! row), so the revised engine never materialises `B⁻¹A`. Instead it keeps
//! the original matrix once, in both column-major ([`SparseMatrix::col`])
//! and row-major form: FTRAN and pricing walk columns, the BTRAN pivot-row
//! pass walks rows. Indices are `u32` — half the memory traffic of `usize`
//! on the hot kernels, and per-slot problems are nowhere near 4 G nonzeros.
//!
//! Column layout matches the dense engine: structural columns first, then
//! one slack per `<=`/`>=` row in row order. Artificial columns are *not*
//! stored — an artificial for row `i` is the singleton `sign_i · e_i` and
//! is synthesised on the fly (see [`SparseMatrix::is_artificial`]).
//!
//! [`WorkVec`] is the shared hyper-sparse scatter workspace: a dense value
//! array plus an explicit nonzero list, with stamp-based occupancy marks so
//! clearing costs O(nnz) instead of O(n).

use crate::lp::{LpProblem, RowCmp};

/// Constraint matrix in CSC + CSR form, structural and slack columns only.
#[derive(Debug, Default)]
pub(crate) struct SparseMatrix {
    pub m: usize,
    /// Explicit columns: `nstruct + num_slacks`.
    pub ncols: usize,
    pub nstruct: usize,
    pub num_slacks: usize,
    // Column-major (CSC).
    col_ptr: Vec<u32>,
    row_idx: Vec<u32>,
    col_val: Vec<f64>,
    // Row-major (CSR), including slack entries.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    row_val: Vec<f64>,
}

impl SparseMatrix {
    /// (Re)build from `lp`, reusing this matrix's buffers.
    pub fn load(&mut self, lp: &LpProblem) {
        let n = lp.num_cols();
        let m = lp.num_rows();
        let num_slacks = lp.rows.iter().filter(|r| r.cmp != RowCmp::Eq).count();
        let ncols = n + num_slacks;
        let nnz: usize = lp.rows.iter().map(|r| r.coeffs.len()).sum::<usize>() + num_slacks;
        self.m = m;
        self.ncols = ncols;
        self.nstruct = n;
        self.num_slacks = num_slacks;

        // CSR first: rows arrive row-by-row, slack appended at the end of
        // its own row (column order within a row stays sorted because slack
        // columns come after every structural column).
        self.row_ptr.clear();
        self.col_idx.clear();
        self.row_val.clear();
        self.col_idx.reserve(nnz);
        self.row_val.reserve(nnz);
        self.row_ptr.reserve(m + 1);
        self.row_ptr.push(0);
        let mut slack = n as u32;
        for row in &lp.rows {
            for &(j, c) in &row.coeffs {
                self.col_idx.push(j as u32);
                self.row_val.push(c);
            }
            match row.cmp {
                RowCmp::Le => {
                    self.col_idx.push(slack);
                    self.row_val.push(1.0);
                    slack += 1;
                }
                RowCmp::Ge => {
                    self.col_idx.push(slack);
                    self.row_val.push(-1.0);
                    slack += 1;
                }
                RowCmp::Eq => {}
            }
            self.row_ptr.push(self.col_idx.len() as u32);
        }

        // CSC by counting sort over the CSR entries.
        self.col_ptr.clear();
        self.col_ptr.resize(ncols + 1, 0);
        for &j in &self.col_idx {
            self.col_ptr[j as usize + 1] += 1;
        }
        for j in 0..ncols {
            self.col_ptr[j + 1] += self.col_ptr[j];
        }
        self.row_idx.clear();
        self.row_idx.resize(nnz, 0);
        self.col_val.clear();
        self.col_val.resize(nnz, 0.0);
        let mut next = self.col_ptr.clone();
        for i in 0..m {
            let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            for k in s..e {
                let j = self.col_idx[k] as usize;
                let dst = next[j] as usize;
                self.row_idx[dst] = i as u32;
                self.col_val[dst] = self.row_val[k];
                next[j] += 1;
            }
        }
    }

    /// Total logical columns: explicit + one implicit artificial per row.
    #[inline]
    pub fn ntot(&self) -> usize {
        self.ncols + self.m
    }

    /// True when `j` addresses an implicit artificial column.
    #[inline]
    pub fn is_artificial(&self, j: usize) -> bool {
        j >= self.ncols
    }

    /// Row of the artificial column `j` (`j >= ncols`).
    #[inline]
    pub fn artificial_row(&self, j: usize) -> usize {
        debug_assert!(self.is_artificial(j));
        j - self.ncols
    }

    /// Explicit column `j` as parallel `(rows, values)` slices.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        debug_assert!(j < self.ncols);
        let (s, e) = (self.col_ptr[j] as usize, self.col_ptr[j + 1] as usize);
        (&self.row_idx[s..e], &self.col_val[s..e])
    }

    /// Row `i` (structural + slack entries) as `(cols, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        (&self.col_idx[s..e], &self.row_val[s..e])
    }

    /// Nonzeros of explicit column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        (self.col_ptr[j + 1] - self.col_ptr[j]) as usize
    }
}

/// Hyper-sparse scatter workspace: dense values + explicit nonzero list.
///
/// Occupancy is tracked with generation stamps, so [`WorkVec::clear`] is
/// O(nnz) and a full reset never touches the dense arrays.
#[derive(Debug, Default)]
pub(crate) struct WorkVec {
    val: Vec<f64>,
    /// Indices holding a (possibly cancelled-to-zero) scattered value.
    pub idx: Vec<u32>,
    stamp: Vec<u32>,
    gen: u32,
}

impl WorkVec {
    /// Resize for dimension `n` and clear.
    pub fn reset(&mut self, n: usize) {
        if self.val.len() < n {
            self.val.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
        self.clear();
    }

    pub fn clear(&mut self) {
        self.idx.clear();
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Stamp wrap-around: invalidate everything the slow way once
            // every 2^32 clears.
            self.stamp.fill(u32::MAX);
            self.gen = 1;
        }
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        if self.stamp[i] == self.gen {
            self.val[i]
        } else {
            0.0
        }
    }

    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        self.stamp[i] == self.gen
    }

    /// Add `v` at `i`, registering the index on first touch.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        if self.stamp[i] == self.gen {
            self.val[i] += v;
        } else {
            self.stamp[i] = self.gen;
            self.val[i] = v;
            self.idx.push(i as u32);
        }
    }

    /// Overwrite the value at `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        if self.stamp[i] != self.gen {
            self.stamp[i] = self.gen;
            self.idx.push(i as u32);
        }
        self.val[i] = v;
    }

    /// Drop registered entries whose value is exactly zero and order the
    /// rest by ascending index: afterwards [`iter`](Self::iter) visits what
    /// a scan of the equivalent dense array visits, in the same order.
    pub fn sort_nonzeros(&mut self) {
        let (val, stamp) = (&self.val, &mut self.stamp);
        let stale = self.gen.wrapping_sub(1);
        self.idx.retain(|&i| {
            let keep = val[i as usize] != 0.0;
            if !keep {
                stamp[i as usize] = stale;
            }
            keep
        });
        self.idx.sort_unstable();
    }

    /// Iterate the registered nonzeros (zero-cancelled entries included).
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.idx
            .iter()
            .map(move |&i| (i as usize, self.val[i as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LpProblem, RowCmp};

    fn sample() -> SparseMatrix {
        // 3 columns; rows: x0 + 2 x2 <= 4, x1 = 3, -x0 + x1 >= 1
        let mut lp = LpProblem::with_columns(3);
        lp.push_row(vec![(0, 1.0), (2, 2.0)], RowCmp::Le, 4.0);
        lp.push_row(vec![(1, 1.0)], RowCmp::Eq, 3.0);
        lp.push_row(vec![(0, -1.0), (1, 1.0)], RowCmp::Ge, 1.0);
        let mut a = SparseMatrix::default();
        a.load(&lp);
        a
    }

    #[test]
    fn csc_csr_agree() {
        let a = sample();
        assert_eq!((a.m, a.nstruct, a.num_slacks, a.ncols), (3, 3, 2, 5));
        // Column 0: rows 0 (+1) and 2 (-1).
        let (rows, vals) = a.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, -1.0]);
        // Slack of the Ge row is column 4 with a -1 in row 2.
        let (rows, vals) = a.col(4);
        assert_eq!(rows, &[2]);
        assert_eq!(vals, &[-1.0]);
        // Row 2 carries both structural entries and its slack.
        let (cols, vals) = a.row(2);
        assert_eq!(cols, &[0, 1, 4]);
        assert_eq!(vals, &[-1.0, 1.0, -1.0]);
        // Implicit artificials sit past the explicit columns.
        assert!(a.is_artificial(5));
        assert_eq!(a.artificial_row(6), 1);
    }

    #[test]
    fn workvec_scatter_and_stamp_clear() {
        let mut w = WorkVec::default();
        w.reset(8);
        w.add(3, 1.5);
        w.add(5, 2.0);
        w.add(3, 0.5);
        assert_eq!(w.nnz(), 2);
        assert_eq!(w.get(3), 2.0);
        assert_eq!(w.get(0), 0.0);
        w.clear();
        assert_eq!(w.nnz(), 0);
        assert_eq!(w.get(3), 0.0, "stamp clear must hide stale values");
        w.set(3, 7.0);
        assert_eq!(w.get(3), 7.0);
    }

    #[test]
    fn sort_nonzeros_matches_a_dense_scan() {
        let mut w = WorkVec::default();
        w.reset(8);
        w.add(6, 1.0);
        w.add(2, 4.0);
        w.add(5, 3.0);
        w.add(5, -3.0);
        w.add(0, -2.0);
        w.sort_nonzeros();
        let got: Vec<(usize, f64)> = w.iter().collect();
        assert_eq!(got, vec![(0, -2.0), (2, 4.0), (6, 1.0)]);
        // A dropped entry is unregistered: the next touch registers it anew.
        assert!(!w.is_set(5));
        w.add(5, 1.0);
        assert_eq!(w.nnz(), 4);
    }
}
