//! Sparse LU basis factorization with product-form eta updates.
//!
//! [`LuFactor`] represents `B⁻¹` for the revised simplex engine as a
//! sparse LU factorization of the basis matrix plus a *product-form eta
//! file* of rank-one updates appended by later pivots:
//!
//! ```text
//!   B_t = B_0 · E_1 · E_2 · … · E_t        (one eta per basis change)
//!   FTRAN:  x = E_t⁻¹ … E_1⁻¹ (U⁻¹ (L⁻¹ b))
//!   BTRAN:  y = L⁻ᵀ (U⁻ᵀ (E_1⁻ᵀ … E_t⁻¹ᵀ c))
//! ```
//!
//! The factorization is Markowitz-flavoured: basis columns are ordered by
//! ascending nonzero count (all slack/artificial singletons peel off
//! first, which triangularises the bulk of a BIRP basis), and within a
//! column the pivot row is chosen by threshold partial pivoting with a
//! minimum-static-row-count tie-break — stability first, sparsity second.
//! Lower solves run left-looking (Gilbert–Peierls style): each column is
//! eliminated against the factors computed so far, so fill is only paid
//! where it actually occurs.
//!
//! **Triangular solves walk the reach of the right-hand side.** Next to
//! the step-ordered L and U it stores a row → step map, a transposed U and
//! a row-wise mirror of L. With those, each of the four triangular passes
//! (L forward, U backward, Uᵀ forward, Lᵀ gather) visits only the
//! elimination steps a nonzero can reach (Hall & McKinnon's hyper-sparse
//! FTRAN/BTRAN): pending steps sit in a min-heap for the forward passes
//! and a max-heap for the backward ones, so a spike that touches ten rows
//! of an 8000-row basis costs O(touched · log touched), not O(m). The walk
//! visits exactly the steps the full scan visits, in the same order, so
//! both traversals compute bitwise-equal values and register nonzeros in
//! the same order; which one runs is a speed choice only. It is made per
//! call by a fixed rule: any basis below [`HYPER_MIN_ROWS`] rows, or a
//! right-hand side that already fills a tenth of the rows (whose result is
//! at least that dense), takes the full scan, and so does a sparse-input
//! BTRAN while earlier sparse-input BTRAN results averaged a tenth of the
//! rows (a pivot row often fills a coupled block).
//!
//! The `*_dense` kernels compute the same values over plain slices; a
//! caller that visits a stamped result in ascending index order with exact
//! zeros dropped (see [`WorkVec::sort_nonzeros`]) sees what a scan of the
//! dense result sees.
//!
//! The eta file survives across `solve_warm`/`resolve_with_bounds` calls;
//! [`LuFactor::should_refactor`] triggers a rebuild when the file grows
//! past the refactorization interval or past the LU's own footprint, and
//! [`LuFactor::spike_stable`] forces an early rebuild when an incoming
//! pivot element is too small relative to its spike (numerical safety).
//! Debug builds verify `B · FTRAN(b) = b` on a probe column after every
//! refactorization.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::sparse::{SparseMatrix, WorkVec};

/// Relative stability floor for an eta pivot element: refactorize when
/// `|w_p| < SPIKE_STAB_TOL * max|w|`.
const SPIKE_STAB_TOL: f64 = 1e-5;
/// Absolute floor below which a pivot is treated as structurally zero.
const ABS_PIVOT_TOL: f64 = 1e-10;
/// Threshold partial pivoting: rows within `PIVOT_THRESHOLD` of the
/// largest eliminated value are pivot candidates; the sparsest wins.
const PIVOT_THRESHOLD: f64 = 0.1;
/// Entries smaller than this are dropped from the stored factors.
const DROP_TOL: f64 = 1e-13;
/// Bases with fewer rows always take the full scan: below this size a scan
/// costs a few microseconds, and heap upkeep eats what the reach saves.
const HYPER_MIN_ROWS: usize = 1000;
/// A right-hand side with at least `m / HYPER_DENSITY_DIV` nonzeros takes
/// the full scan: its result is at least that dense (Hall & McKinnon's 10%
/// switch), and the reach walk would push most steps through a heap. A
/// sparse-input BTRAN takes it too while its predicted result is that dense.
const HYPER_DENSITY_DIV: usize = 10;
/// Weight of the latest result in the running BTRAN density prediction.
const DENSITY_DECAY: f64 = 0.1;

/// The basis matrix is numerically singular (or the engine fed an
/// incoherent basis); callers fall back to the dense engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularBasis;

/// Per-factorization counters, drained into telemetry by the engine.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FactorStats {
    pub refactorizations: u64,
    pub eta_updates: u64,
    pub ftran_nnz: u64,
    /// Refactorizations forced by a failed spike-stability check (the
    /// numerical-instability path), a subset of `refactorizations`.
    pub instability_rebuilds: u64,
}

#[derive(Debug, Default)]
pub(crate) struct LuFactor {
    m: usize,
    /// Pivot row of elimination step `k` (original row index).
    prow: Vec<u32>,
    /// Basis position eliminated at step `k`.
    cpos: Vec<u32>,
    /// Inverse of `cpos`: elimination step of each basis position.
    step_of_pos: Vec<u32>,
    /// L multipliers per step: rows `l_rows[l_ptr[k]..l_ptr[k+1]]` with
    /// values `l_vals[..]`, meaning `row -= l * pivot_row` at step `k`.
    l_ptr: Vec<u32>,
    l_rows: Vec<u32>,
    l_vals: Vec<f64>,
    /// U column per step: entries at *earlier* steps `u_steps` (`u_{k',k}`).
    u_ptr: Vec<u32>,
    u_steps: Vec<u32>,
    u_vals: Vec<f64>,
    udiag: Vec<f64>,
    /// Transposed mirror of U (`ut` row `k'` lists steps `k > k'` with
    /// `u_{k',k} != 0`), for the hyper-sparse BTRAN forward pass.
    ut_ptr: Vec<u32>,
    ut_steps: Vec<u32>,
    ut_vals: Vec<f64>,
    /// Elimination step that pivoted each row (inverse of `prow`).
    row_step: Vec<u32>,
    /// Row-wise mirror of L: `lt_steps[lt_ptr[r]..lt_ptr[r+1]]` are the
    /// steps whose L column has an entry in row `r`, all earlier than
    /// `row_step[r]`. The BTRAN Lᵀ gather reaches them from `y`'s nonzeros.
    lt_ptr: Vec<u32>,
    lt_steps: Vec<u32>,
    /// Product-form eta file: eta `t` replaces basis position `e_pivot[t]`
    /// with the spike whose off-pivot entries are
    /// `(e_pos, e_val)[e_ptr[t]..e_ptr[t+1]]` and diagonal `e_diag[t]`.
    e_ptr: Vec<u32>,
    e_pos: Vec<u32>,
    e_val: Vec<f64>,
    e_pivot: Vec<u32>,
    e_diag: Vec<f64>,
    /// Static row nonzero counts of the factored basis (Markowitz tie-break).
    row_count: Vec<u32>,
    /// Column-ordering scratch.
    order: Vec<u32>,
    /// Running result density (nonzeros / m) of sparse-input BTRANs: the
    /// per-call prediction that sends a pivot-row BTRAN to the scan.
    btran_density: f64,
    // Reach scratch, reused so a solve allocates nothing.
    min_heap: BinaryHeap<Reverse<u32>>,
    max_heap: BinaryHeap<u32>,
    /// Steps already pushed by the current Lᵀ gather (`== mark_gen`).
    step_mark: Vec<u32>,
    mark_gen: u32,
    /// Column being eliminated during `refactor`.
    elim: WorkVec,
    /// Counting-sort cursors for the U and L mirrors.
    next: Vec<u32>,
    pub stats: FactorStats,
}

impl LuFactor {
    pub fn num_etas(&self) -> usize {
        self.e_pivot.len()
    }

    pub fn lu_nnz(&self) -> usize {
        self.l_rows.len() + self.u_steps.len() + self.udiag.len()
    }

    /// True when the eta file has outgrown its welcome: either more etas
    /// than `interval`, or the file's nonzeros exceed a multiple of the
    /// LU's own footprint. Each eta taxes every subsequent FTRAN/BTRAN by
    /// its nonzero count, but a refactorization costs a full left-looking
    /// elimination (roughly the LU's fill worth of work), so the file is
    /// allowed to grow a few LUs deep before a rebuild amortizes — a
    /// 1x threshold was measured to trigger every 2-3 pivots on dense-ish
    /// instances and made the solve refactorization-bound.
    pub fn should_refactor(&self, interval: usize) -> bool {
        self.num_etas() >= interval.max(1) || self.e_pos.len() > 4 * (self.lu_nnz() + self.m)
    }

    /// Spike stability probe for the incoming eta pivot at position `p`:
    /// a pivot element much smaller than the spike's largest entry would
    /// amplify error through every later apply.
    pub fn spike_stable(&self, p: usize, w: &WorkVec) -> bool {
        let piv = w.get(p).abs();
        if piv <= ABS_PIVOT_TOL {
            return false;
        }
        let max = w.iter().fold(0.0f64, |acc, (_, v)| acc.max(v.abs()));
        piv >= SPIKE_STAB_TOL * max
    }

    /// Factorize the basis `basis[pos] = column id` of `mat` (ids past
    /// `mat.ncols` address implicit artificials with sign `art_sign[row]`).
    /// Clears the eta file.
    pub fn refactor(
        &mut self,
        mat: &SparseMatrix,
        basis: &[u32],
        art_sign: &[f64],
    ) -> Result<(), SingularBasis> {
        let m = mat.m;
        debug_assert_eq!(basis.len(), m);
        self.m = m;
        self.stats.refactorizations += 1;
        self.prow.clear();
        self.cpos.clear();
        self.l_ptr.clear();
        self.l_rows.clear();
        self.l_vals.clear();
        self.u_ptr.clear();
        self.u_steps.clear();
        self.u_vals.clear();
        self.udiag.clear();
        self.e_ptr.clear();
        self.e_ptr.push(0);
        self.e_pos.clear();
        self.e_val.clear();
        self.e_pivot.clear();
        self.e_diag.clear();
        self.l_ptr.push(0);
        self.u_ptr.push(0);
        self.step_of_pos.clear();
        self.step_of_pos.resize(m, u32::MAX);

        // Static row counts + column ordering by ascending nonzero count
        // (counting sort; ties keep position order for determinism).
        self.row_count.clear();
        self.row_count.resize(m, 0);
        let col_nnz = |j: u32| -> usize {
            if mat.is_artificial(j as usize) {
                1
            } else {
                mat.col_nnz(j as usize)
            }
        };
        let mut max_nnz = 1usize;
        for &j in basis {
            let nnz = col_nnz(j);
            max_nnz = max_nnz.max(nnz);
            if mat.is_artificial(j as usize) {
                self.row_count[mat.artificial_row(j as usize)] += 1;
            } else {
                let (rows, _) = mat.col(j as usize);
                for &r in rows {
                    self.row_count[r as usize] += 1;
                }
            }
        }
        let mut buckets = vec![0u32; max_nnz + 2];
        for &j in basis {
            buckets[col_nnz(j) + 1] += 1;
        }
        for k in 0..max_nnz + 1 {
            buckets[k + 1] += buckets[k];
        }
        self.order.clear();
        self.order.resize(m, 0);
        for (pos, &j) in basis.iter().enumerate() {
            let b = col_nnz(j);
            self.order[buckets[b] as usize] = pos as u32;
            buckets[b] += 1;
        }

        // Left-looking elimination: for each basis position (sparsest
        // column first) solve L x = a, pick the pivot row among rows not
        // yet pivoted, split x into a U column (pivoted rows) and L
        // multipliers (remaining rows).
        let mut x = std::mem::take(&mut self.elim);
        x.reset(m);
        self.row_step.clear();
        self.row_step.resize(m, u32::MAX);
        let pivot_of_row = &mut self.row_step;
        let reach = &mut self.min_heap;
        reach.clear();
        let order = std::mem::take(&mut self.order);
        for (step, &pos) in order.iter().enumerate() {
            x.clear();
            let j = basis[pos as usize] as usize;
            if mat.is_artificial(j) {
                x.add(mat.artificial_row(j), art_sign[mat.artificial_row(j)]);
            } else {
                let (rows, vals) = mat.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    x.add(r as usize, v);
                }
            }
            // Reach-based partial lower solve (Gilbert–Peierls): only steps
            // whose pivot row actually carries a value are visited, in
            // ascending step order via a min-heap of pending steps. An L
            // application at step `k` can only fill rows pivoted at steps
            // `> k` (they were unpivoted when step `k` was formed) or not
            // pivoted at all, so pushes never land behind the cursor, and a
            // row transitions unset -> set at most once, so every pending
            // step is pushed exactly once. A slack column's solve is O(1)
            // instead of O(step).
            debug_assert!(reach.is_empty());
            for (r, _) in x.iter() {
                let k = pivot_of_row[r];
                if k != u32::MAX {
                    reach.push(Reverse(k));
                }
            }
            while let Some(Reverse(k)) = reach.pop() {
                let k = k as usize;
                let xp = x.get(self.prow[k] as usize);
                if xp == 0.0 {
                    continue;
                }
                let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                for idx in s..e {
                    let r = self.l_rows[idx] as usize;
                    if !x.is_set(r) {
                        let kr = pivot_of_row[r];
                        if kr != u32::MAX {
                            reach.push(Reverse(kr));
                        }
                    }
                    x.add(r, -self.l_vals[idx] * xp);
                }
            }
            // Pivot row: threshold partial pivoting, sparsest-row tie-break.
            let mut best: Option<(usize, f64, u32)> = None; // (row, |val|, row_count)
            let mut vmax = 0.0f64;
            for (r, v) in x.iter() {
                if pivot_of_row[r] == u32::MAX {
                    vmax = vmax.max(v.abs());
                }
            }
            for (r, v) in x.iter() {
                if pivot_of_row[r] != u32::MAX {
                    continue;
                }
                let a = v.abs();
                if a < ABS_PIVOT_TOL || a < PIVOT_THRESHOLD * vmax {
                    continue;
                }
                let rc = self.row_count[r];
                // Within the threshold band prefer the sparsest row
                // (Markowitz tie-break); among equally sparse rows prefer
                // the larger magnitude, then the lower row id (determinism).
                let better = match best {
                    None => true,
                    Some((br, ba, brc)) => {
                        rc < brc || (rc == brc && (a > ba || (a == ba && r < br)))
                    }
                };
                if better {
                    best = Some((r, a, rc));
                }
            }
            let Some((piv_row, _, _)) = best else {
                self.order = order;
                self.elim = x;
                return Err(SingularBasis);
            };
            let piv_val = x.get(piv_row);
            pivot_of_row[piv_row] = step as u32;
            self.prow.push(piv_row as u32);
            self.cpos.push(pos);
            self.step_of_pos[pos as usize] = step as u32;
            self.udiag.push(piv_val);
            for (r, v) in x.iter() {
                if r == piv_row || v.abs() <= DROP_TOL {
                    continue;
                }
                let k = pivot_of_row[r];
                if k != u32::MAX && (k as usize) < step {
                    self.u_steps.push(k);
                    self.u_vals.push(v);
                } else if k == u32::MAX {
                    self.l_rows.push(r as u32);
                    self.l_vals.push(v / piv_val);
                }
            }
            self.u_ptr.push(self.u_steps.len() as u32);
            self.l_ptr.push(self.l_rows.len() as u32);
        }
        self.order = order;
        self.elim = x;

        // Transposed mirror of U for the BTRAN forward pass.
        self.ut_ptr.clear();
        self.ut_ptr.resize(m + 1, 0);
        for &k in &self.u_steps {
            self.ut_ptr[k as usize + 1] += 1;
        }
        for k in 0..m {
            self.ut_ptr[k + 1] += self.ut_ptr[k];
        }
        self.ut_steps.clear();
        self.ut_steps.resize(self.u_steps.len(), 0);
        self.ut_vals.clear();
        self.ut_vals.resize(self.u_vals.len(), 0.0);
        self.next.clone_from(&self.ut_ptr);
        for k in 0..m {
            let (s, e) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
            for idx in s..e {
                let kp = self.u_steps[idx] as usize;
                let dst = self.next[kp] as usize;
                self.ut_steps[dst] = k as u32;
                self.ut_vals[dst] = self.u_vals[idx];
                self.next[kp] += 1;
            }
        }

        // Row-wise mirror of L (steps only) for the BTRAN Lᵀ reach.
        self.lt_ptr.clear();
        self.lt_ptr.resize(m + 1, 0);
        for &r in &self.l_rows {
            self.lt_ptr[r as usize + 1] += 1;
        }
        for r in 0..m {
            self.lt_ptr[r + 1] += self.lt_ptr[r];
        }
        self.lt_steps.clear();
        self.lt_steps.resize(self.l_rows.len(), 0);
        self.next.clone_from(&self.lt_ptr);
        for k in 0..m {
            let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
            for idx in s..e {
                let r = self.l_rows[idx] as usize;
                self.lt_steps[self.next[r] as usize] = k as u32;
                self.next[r] += 1;
            }
        }
        if self.step_mark.len() < m {
            self.step_mark.resize(m, 0);
        }

        #[cfg(debug_assertions)]
        self.debug_check_residual(mat, basis, art_sign);
        Ok(())
    }

    /// In debug builds, verify `B x = b` for a probe FTRAN after every
    /// refactorization (catches factor/solve mismatches in CI without
    /// taxing release benches).
    #[cfg(debug_assertions)]
    fn debug_check_residual(&mut self, mat: &SparseMatrix, basis: &[u32], art_sign: &[f64]) {
        let m = self.m;
        if m == 0 {
            return;
        }
        let probe_rows = [0usize, m / 2];
        for &pr in &probe_rows {
            let mut rhs = WorkVec::default();
            rhs.reset(m);
            rhs.add(pr, 1.0);
            let mut x = WorkVec::default();
            x.reset(m);
            self.ftran_walk(&mut rhs, &mut x, false);
            // Reassemble B x and compare against e_pr.
            let mut bx = vec![0.0f64; m];
            for (pos, v) in x.iter() {
                let j = basis[pos] as usize;
                if mat.is_artificial(j) {
                    bx[mat.artificial_row(j)] += art_sign[mat.artificial_row(j)] * v;
                } else {
                    let (rows, vals) = mat.col(j);
                    for (&r, &a) in rows.iter().zip(vals) {
                        bx[r as usize] += a * v;
                    }
                }
            }
            bx[pr] -= 1.0;
            let resid = bx.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            debug_assert!(
                resid < 1e-6,
                "LU residual {resid:.3e} after refactorization (m={m})"
            );
        }
    }

    /// Append a product-form eta replacing basis position `p` with the
    /// spike `w = B⁻¹ a_q` (position space, as produced by [`ftran`]).
    ///
    /// [`spike_stable`] must have been consulted first; this method only
    /// enforces the absolute floor.
    ///
    /// [`ftran`]: Self::ftran
    /// [`spike_stable`]: Self::spike_stable
    pub fn update(&mut self, p: usize, w: &WorkVec) -> Result<(), SingularBasis> {
        let diag = w.get(p);
        if diag.abs() <= ABS_PIVOT_TOL {
            return Err(SingularBasis);
        }
        for (pos, v) in w.iter() {
            if pos != p && v.abs() > DROP_TOL {
                self.e_pos.push(pos as u32);
                self.e_val.push(v);
            }
        }
        self.e_ptr.push(self.e_pos.len() as u32);
        self.e_pivot.push(p as u32);
        self.e_diag.push(diag);
        self.stats.eta_updates += 1;
        Ok(())
    }

    /// True when the basis is large enough for the reach walk (see the
    /// module doc). Callers holding a dense-slice kernel as the
    /// alternative for a sparse right-hand side ask this.
    #[inline]
    pub fn hypersparse(&self) -> bool {
        self.m >= HYPER_MIN_ROWS
    }

    /// The reach walk for a right-hand side with `nnz` nonzeros.
    #[inline]
    fn reach(&self, nnz: usize) -> bool {
        self.hypersparse() && nnz * HYPER_DENSITY_DIV < self.m
    }

    /// True when a sparse-input BTRAN is predicted to stay sparse: past
    /// the size floor, and earlier sparse-input results averaged under a
    /// tenth of the rows. A pivot row `ρ = B⁻ᵀe_r` fills a tenth of the
    /// rows far more often than a spike does, so BTRAN alone keeps a
    /// prediction (see DESIGN.md §3 for the measurement).
    #[inline]
    pub fn hyper_btran(&self) -> bool {
        self.hypersparse() && self.btran_density * (HYPER_DENSITY_DIV as f64) < 1.0
    }

    #[inline]
    fn track_btran(&mut self, nnz: usize) {
        let d = nnz as f64 / self.m.max(1) as f64;
        self.btran_density += DENSITY_DECAY * (d - self.btran_density);
    }

    /// Fold a unit-vector [`btran_dense`](Self::btran_dense) result into
    /// the BTRAN prediction, so a basis predicted dense can turn back.
    /// Below the size floor there is nothing to predict and nothing is
    /// counted.
    pub fn track_btran_dense(&mut self, y: &[f64]) {
        if self.hypersparse() {
            self.track_btran(y.iter().filter(|&&v| v != 0.0).count());
        }
    }

    /// FTRAN: solve `B x = b`. `rhs` holds `b` in row space and is
    /// destroyed; `x` (caller-cleared) receives the result in basis
    /// position space, its nonzeros registered in the order the full scan
    /// registers them.
    pub fn ftran(&mut self, rhs: &mut WorkVec, x: &mut WorkVec) {
        self.ftran_walk(rhs, x, self.reach(rhs.nnz()));
    }

    /// FTRAN by the reach walk or the full scan; both apply the same
    /// steps in the same order.
    fn ftran_walk(&mut self, rhs: &mut WorkVec, x: &mut WorkVec, reach: bool) {
        // L forward: apply the stored eliminations in ascending step order,
        // skipping steps whose pivot row carries no value. An L column at
        // step `k` only holds rows pivoted after `k`, so the reach pushes
        // land ahead of the cursor, and a row turns set once, so each step
        // is pushed at most once.
        if reach {
            let heap = &mut self.min_heap;
            heap.clear();
            heap.extend(rhs.idx.iter().map(|&r| Reverse(self.row_step[r as usize])));
            while let Some(Reverse(k)) = heap.pop() {
                let k = k as usize;
                let xp = rhs.get(self.prow[k] as usize);
                if xp == 0.0 {
                    continue;
                }
                let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                for idx in s..e {
                    let r = self.l_rows[idx] as usize;
                    if !rhs.is_set(r) {
                        heap.push(Reverse(self.row_step[r]));
                    }
                    rhs.add(r, -self.l_vals[idx] * xp);
                }
            }
        } else {
            for k in 0..self.m {
                let pr = self.prow[k] as usize;
                if !rhs.is_set(pr) {
                    continue;
                }
                let xp = rhs.get(pr);
                if xp == 0.0 {
                    continue;
                }
                let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                for idx in s..e {
                    rhs.add(self.l_rows[idx] as usize, -self.l_vals[idx] * xp);
                }
            }
        }
        // U backward: substitute in descending step order into position
        // space. A U column at step `k` only holds earlier steps.
        if reach {
            let heap = &mut self.max_heap;
            heap.clear();
            heap.extend(rhs.idx.iter().map(|&r| self.row_step[r as usize]));
            while let Some(k) = heap.pop() {
                let k = k as usize;
                let num = rhs.get(self.prow[k] as usize);
                if num == 0.0 {
                    continue;
                }
                let t = num / self.udiag[k];
                x.set(self.cpos[k] as usize, t);
                let (s, e) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
                for idx in s..e {
                    let kp = self.u_steps[idx];
                    let r = self.prow[kp as usize] as usize;
                    if !rhs.is_set(r) {
                        heap.push(kp);
                    }
                    rhs.add(r, -self.u_vals[idx] * t);
                }
            }
        } else {
            for k in (0..self.m).rev() {
                let pr = self.prow[k] as usize;
                if !rhs.is_set(pr) {
                    continue;
                }
                let num = rhs.get(pr);
                if num == 0.0 {
                    continue;
                }
                let t = num / self.udiag[k];
                x.set(self.cpos[k] as usize, t);
                let (s, e) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
                for idx in s..e {
                    let kp = self.u_steps[idx] as usize;
                    rhs.add(self.prow[kp] as usize, -self.u_vals[idx] * t);
                }
            }
        }
        // Product-form etas in creation order.
        for t in 0..self.e_pivot.len() {
            let p = self.e_pivot[t] as usize;
            if !x.is_set(p) {
                continue;
            }
            let xp = x.get(p);
            if xp == 0.0 {
                continue;
            }
            let scaled = xp / self.e_diag[t];
            x.set(p, scaled);
            let (s, e) = (self.e_ptr[t] as usize, self.e_ptr[t + 1] as usize);
            for idx in s..e {
                x.add(self.e_pos[idx] as usize, -self.e_val[idx] * scaled);
            }
        }
    }

    /// Dense-RHS FTRAN: same values as [`ftran`] but over plain `f64`
    /// slices — no stamp checks, every inner loop a branchless
    /// gather/scatter. Wins once the right-hand side (or the factor
    /// itself) is dense enough that most stamp probes would hit anyway;
    /// the engine picks per call. `rhs` holds `b` in row space (len `m`,
    /// destroyed), `x` (len `m`, caller-zeroed) receives the result in
    /// basis position space.
    ///
    /// [`ftran`]: Self::ftran
    pub fn ftran_dense(&self, rhs: &mut [f64], x: &mut [f64]) {
        for k in 0..self.m {
            let xp = rhs[self.prow[k] as usize];
            if xp == 0.0 {
                continue;
            }
            let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
            for idx in s..e {
                rhs[self.l_rows[idx] as usize] -= self.l_vals[idx] * xp;
            }
        }
        for k in (0..self.m).rev() {
            let num = rhs[self.prow[k] as usize];
            if num == 0.0 {
                continue;
            }
            let t = num / self.udiag[k];
            x[self.cpos[k] as usize] = t;
            let (s, e) = (self.u_ptr[k] as usize, self.u_ptr[k + 1] as usize);
            for idx in s..e {
                let kp = self.u_steps[idx] as usize;
                rhs[self.prow[kp] as usize] -= self.u_vals[idx] * t;
            }
        }
        for t in 0..self.e_pivot.len() {
            let p = self.e_pivot[t] as usize;
            let xp = x[p];
            if xp == 0.0 {
                continue;
            }
            let scaled = xp / self.e_diag[t];
            x[p] = scaled;
            let (s, e) = (self.e_ptr[t] as usize, self.e_ptr[t + 1] as usize);
            for idx in s..e {
                x[self.e_pos[idx] as usize] -= self.e_val[idx] * scaled;
            }
        }
    }

    /// Dense-RHS BTRAN: same values as [`btran`] over plain slices.
    /// `c` holds the input in basis position space (len `m`, destroyed),
    /// `y` (len `m`, caller-zeroed) receives the result in row space, `g`
    /// (len `m`, caller-zeroed) is step-space scratch.
    ///
    /// [`btran`]: Self::btran
    pub fn btran_dense(&self, c: &mut [f64], y: &mut [f64], g: &mut [f64]) {
        for t in (0..self.e_pivot.len()).rev() {
            let p = self.e_pivot[t] as usize;
            let (s, e) = (self.e_ptr[t] as usize, self.e_ptr[t + 1] as usize);
            let mut acc = c[p];
            for idx in s..e {
                acc -= self.e_val[idx] * c[self.e_pos[idx] as usize];
            }
            c[p] = acc / self.e_diag[t];
        }
        for pos in 0..self.m {
            g[self.step_of_pos[pos] as usize] = c[pos];
        }
        for k in 0..self.m {
            let num = g[k];
            if num == 0.0 {
                continue;
            }
            let t = num / self.udiag[k];
            g[k] = t;
            let (s, e) = (self.ut_ptr[k] as usize, self.ut_ptr[k + 1] as usize);
            for idx in s..e {
                g[self.ut_steps[idx] as usize] -= self.ut_vals[idx] * t;
            }
        }
        for k in 0..self.m {
            y[self.prow[k] as usize] = g[k];
        }
        for k in (0..self.m).rev() {
            let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
            if s == e {
                continue;
            }
            let mut acc = 0.0;
            for idx in s..e {
                acc += self.l_vals[idx] * y[self.l_rows[idx] as usize];
            }
            if acc != 0.0 {
                y[self.prow[k] as usize] -= acc;
            }
        }
    }

    /// BTRAN: solve `Bᵀ y = c`. `c` holds the input in basis position
    /// space and is destroyed; `y` (caller-cleared) receives the result in
    /// row space, its nonzeros registered in the order the full scan
    /// registers them. `g` is step-space scratch.
    pub fn btran(&mut self, c: &mut WorkVec, y: &mut WorkVec, g: &mut WorkVec) {
        let sparse_in = self.reach(c.nnz());
        self.btran_walk(c, y, g, sparse_in && self.hyper_btran());
        if sparse_in {
            self.track_btran(y.nnz());
        }
    }

    /// BTRAN by the reach walk or the full scan; both apply the same
    /// steps in the same order.
    fn btran_walk(&mut self, c: &mut WorkVec, y: &mut WorkVec, g: &mut WorkVec, reach: bool) {
        // Eta transposes in reverse creation order (gather form).
        for t in (0..self.e_pivot.len()).rev() {
            let p = self.e_pivot[t] as usize;
            let (s, e) = (self.e_ptr[t] as usize, self.e_ptr[t + 1] as usize);
            let mut acc = c.get(p);
            let mut touched = c.is_set(p) && acc != 0.0;
            for idx in s..e {
                let v = c.get(self.e_pos[idx] as usize);
                if v != 0.0 {
                    acc -= self.e_val[idx] * v;
                    touched = true;
                }
            }
            if touched {
                c.set(p, acc / self.e_diag[t]);
            }
        }
        // Map position space -> step space.
        g.clear();
        for (pos, v) in c.iter() {
            if v != 0.0 {
                let k = self.step_of_pos[pos];
                debug_assert!(k != u32::MAX);
                g.set(k as usize, v);
            }
        }
        // Uᵀ forward (scatter via the transposed mirror) in ascending step
        // order; `ut` row `k` only holds later steps.
        if reach {
            let heap = &mut self.min_heap;
            heap.clear();
            heap.extend(g.idx.iter().map(|&k| Reverse(k)));
            while let Some(Reverse(k)) = heap.pop() {
                let k = k as usize;
                let num = g.get(k);
                if num == 0.0 {
                    continue;
                }
                let t = num / self.udiag[k];
                g.set(k, t);
                let (s, e) = (self.ut_ptr[k] as usize, self.ut_ptr[k + 1] as usize);
                for idx in s..e {
                    let ks = self.ut_steps[idx];
                    if !g.is_set(ks as usize) {
                        heap.push(Reverse(ks));
                    }
                    g.add(ks as usize, -self.ut_vals[idx] * t);
                }
            }
        } else {
            for k in 0..self.m {
                if !g.is_set(k) {
                    continue;
                }
                let num = g.get(k);
                if num == 0.0 {
                    continue;
                }
                let t = num / self.udiag[k];
                g.set(k, t);
                let (s, e) = (self.ut_ptr[k] as usize, self.ut_ptr[k + 1] as usize);
                for idx in s..e {
                    g.add(self.ut_steps[idx] as usize, -self.ut_vals[idx] * t);
                }
            }
        }
        // Lᵀ backward (gather): y starts as g mapped to pivot rows.
        for (k, v) in g.iter() {
            if v != 0.0 {
                y.set(self.prow[k] as usize, v);
            }
        }
        if reach {
            // Step `k` gathers from rows pivoted after it and writes its own
            // pivot row, which only earlier steps read: in descending order
            // every step whose L column meets a set row of `y` is pushed
            // (once, by its mark) before the cursor reaches it.
            self.mark_gen = self.mark_gen.wrapping_add(1);
            if self.mark_gen == 0 {
                self.step_mark.fill(0);
                self.mark_gen = 1;
            }
            let gen = self.mark_gen;
            let heap = &mut self.max_heap;
            heap.clear();
            let (lt_ptr, lt_steps, mark) = (&self.lt_ptr, &self.lt_steps, &mut self.step_mark);
            let mut reach_row = |heap: &mut BinaryHeap<u32>, r: usize| {
                for &k in &lt_steps[lt_ptr[r] as usize..lt_ptr[r + 1] as usize] {
                    if mark[k as usize] != gen {
                        mark[k as usize] = gen;
                        heap.push(k);
                    }
                }
            };
            for &r in &y.idx {
                reach_row(heap, r as usize);
            }
            while let Some(k) = heap.pop() {
                let k = k as usize;
                let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                let mut acc = 0.0;
                for idx in s..e {
                    let v = y.get(self.l_rows[idx] as usize);
                    if v != 0.0 {
                        acc += self.l_vals[idx] * v;
                    }
                }
                if acc != 0.0 {
                    let r = self.prow[k] as usize;
                    if !y.is_set(r) {
                        reach_row(heap, r);
                    }
                    y.add(r, -acc);
                }
            }
        } else {
            for k in (0..self.m).rev() {
                let (s, e) = (self.l_ptr[k] as usize, self.l_ptr[k + 1] as usize);
                if s == e {
                    continue;
                }
                let mut acc = 0.0;
                for idx in s..e {
                    let v = y.get(self.l_rows[idx] as usize);
                    if v != 0.0 {
                        acc += self.l_vals[idx] * v;
                    }
                }
                if acc != 0.0 {
                    y.add(self.prow[k] as usize, -acc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LpProblem, RowCmp};

    /// Small fixed matrix, basis = mixed structural/slack/artificial.
    fn setup() -> (SparseMatrix, Vec<u32>, Vec<f64>) {
        // rows: 2x0 + x1 <= 10 ; x0 + 3x2 = 6 ; x1 + x2 >= 2
        let mut lp = LpProblem::with_columns(3);
        lp.push_row(vec![(0, 2.0), (1, 1.0)], RowCmp::Le, 10.0);
        lp.push_row(vec![(0, 1.0), (2, 3.0)], RowCmp::Eq, 6.0);
        lp.push_row(vec![(1, 1.0), (2, 1.0)], RowCmp::Ge, 2.0);
        let mut mat = SparseMatrix::default();
        mat.load(&lp);
        // basis: x0 (col 0), slack of row 0 (col 3), artificial of row 2.
        let basis = vec![0u32, 3, (mat.ncols + 2) as u32];
        let art_sign = vec![1.0, 1.0, 1.0];
        (mat, basis, art_sign)
    }

    fn dense_basis(mat: &SparseMatrix, basis: &[u32], art_sign: &[f64]) -> Vec<Vec<f64>> {
        let m = mat.m;
        let mut b = vec![vec![0.0; m]; m]; // b[row][pos]
        for (pos, &j) in basis.iter().enumerate() {
            if mat.is_artificial(j as usize) {
                let r = mat.artificial_row(j as usize);
                b[r][pos] = art_sign[r];
            } else {
                let (rows, vals) = mat.col(j as usize);
                for (&r, &v) in rows.iter().zip(vals) {
                    b[r as usize][pos] = v;
                }
            }
        }
        b
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index loops mirror the math: b[row][pos]
    fn ftran_btran_invert_the_basis() {
        let (mat, basis, art) = setup();
        let mut f = LuFactor::default();
        f.refactor(&mat, &basis, &art).expect("nonsingular");
        let b = dense_basis(&mat, &basis, &art);
        let m = mat.m;
        for unit in 0..m {
            // FTRAN(e_unit): B x = e_unit.
            let mut rhs = WorkVec::default();
            rhs.reset(m);
            rhs.add(unit, 1.0);
            let mut x = WorkVec::default();
            x.reset(m);
            f.ftran(&mut rhs, &mut x);
            for row in 0..m {
                let got: f64 = (0..m).map(|pos| b[row][pos] * x.get(pos)).sum();
                let want = if row == unit { 1.0 } else { 0.0 };
                assert!((got - want).abs() < 1e-10, "ftran row {row}: {got}");
            }
            // BTRAN(e_unit): Bᵀ y = e_unit (unit in position space).
            let mut c = WorkVec::default();
            c.reset(m);
            c.add(unit, 1.0);
            let mut y = WorkVec::default();
            y.reset(m);
            let mut g = WorkVec::default();
            g.reset(m);
            f.btran(&mut c, &mut y, &mut g);
            for pos in 0..m {
                let got: f64 = (0..m).map(|row| b[row][pos] * y.get(row)).sum();
                let want = if pos == unit { 1.0 } else { 0.0 };
                assert!((got - want).abs() < 1e-10, "btran pos {pos}: {got}");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index loops mirror the math: b[row][pos]
    fn eta_update_tracks_basis_change() {
        let (mat, mut basis, art) = setup();
        let mut f = LuFactor::default();
        f.refactor(&mat, &basis, &art).unwrap();
        // Replace position 2 (the artificial) with structural column 2.
        let q = 2usize;
        let mut rhs = WorkVec::default();
        rhs.reset(mat.m);
        let (rows, vals) = mat.col(q);
        for (&r, &v) in rows.iter().zip(vals) {
            rhs.add(r as usize, v);
        }
        let mut w = WorkVec::default();
        w.reset(mat.m);
        f.ftran(&mut rhs, &mut w);
        assert!(f.spike_stable(2, &w));
        f.update(2, &w).unwrap();
        basis[2] = q as u32;
        assert_eq!(f.num_etas(), 1);

        // The eta-updated operator must invert the *new* basis.
        let b = dense_basis(&mat, &basis, &art);
        let m = mat.m;
        for unit in 0..m {
            let mut rhs = WorkVec::default();
            rhs.reset(m);
            rhs.add(unit, 1.0);
            let mut x = WorkVec::default();
            x.reset(m);
            f.ftran(&mut rhs, &mut x);
            for row in 0..m {
                let got: f64 = (0..m).map(|pos| b[row][pos] * x.get(pos)).sum();
                let want = if row == unit { 1.0 } else { 0.0 };
                assert!((got - want).abs() < 1e-9, "eta ftran row {row}: {got}");
            }
            let mut c = WorkVec::default();
            c.reset(m);
            c.add(unit, 1.0);
            let mut y = WorkVec::default();
            y.reset(m);
            let mut g = WorkVec::default();
            g.reset(m);
            f.btran(&mut c, &mut y, &mut g);
            for pos in 0..m {
                let got: f64 = (0..m).map(|row| b[row][pos] * y.get(row)).sum();
                let want = if pos == unit { 1.0 } else { 0.0 };
                assert!((got - want).abs() < 1e-9, "eta btran pos {pos}: {got}");
            }
        }

        // After refactorizing on the new basis the eta file is gone and
        // the operator still inverts it.
        f.refactor(&mat, &basis, &art).unwrap();
        assert_eq!(f.num_etas(), 0);
        let mut rhs = WorkVec::default();
        rhs.reset(m);
        rhs.add(1, 1.0);
        let mut x = WorkVec::default();
        x.reset(m);
        f.ftran(&mut rhs, &mut x);
        for row in 0..m {
            let got: f64 = (0..m).map(|pos| b[row][pos] * x.get(pos)).sum();
            let want = if row == 1 { 1.0 } else { 0.0 };
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_basis_is_reported() {
        let (mat, _, art) = setup();
        // Two copies of the same column can never span the row space.
        let basis = vec![0u32, 0, 3];
        let mut f = LuFactor::default();
        assert_eq!(f.refactor(&mat, &basis, &art), Err(SingularBasis));
    }

    /// Deterministic SplitMix64 stream for the generated bases.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A nonzero value in `[-3, 3]` on a 1/8 grid.
        fn value(&mut self) -> f64 {
            let v = self.below(48) as f64 / 8.0 - 3.0;
            if v == 0.0 {
                0.5
            } else {
                v
            }
        }
    }

    /// A random nonsingular block-diagonal basis with one coupling row,
    /// the shape of a fleet slot relaxation. Each block of 1..=`max_block`
    /// rows gets as many column-diagonally-dominant structural columns
    /// (the basis) and as many free ones (eta-update candidates), any of
    /// which may also touch the coupling row; the coupling row's slack
    /// completes the basis, so `B = [D 0; cᵀ 1]` is nonsingular. Basis
    /// positions are shuffled. Returns the matrix, the basis and the
    /// candidate columns.
    fn fleet_basis(
        rng: &mut Mix,
        rows: usize,
        max_block: usize,
    ) -> (SparseMatrix, Vec<u32>, Vec<usize>) {
        let mut blocks = Vec::new();
        let mut m = 0;
        while m < rows {
            let b = 1 + rng.below(max_block);
            blocks.push((m, b));
            m += b;
        }
        let coupling = m;
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::new();
        let (mut basic, mut free) = (Vec::new(), Vec::new());
        for &(start, b) in &blocks {
            for (kind, diag) in [(&mut basic, true), (&mut free, false)] {
                for i in 0..b {
                    let mut col = Vec::new();
                    let mut off = 0.0;
                    for r in start..start + b {
                        if r != start + i && rng.below(2) == 0 {
                            let v = rng.value();
                            off += f64::abs(v);
                            col.push((r, v));
                        }
                    }
                    if diag || rng.below(2) == 0 {
                        let v = if diag {
                            off + 1.0 + rng.below(4) as f64
                        } else {
                            rng.value()
                        };
                        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                        col.push((start + i, sign * v));
                    }
                    if rng.below(3) == 0 {
                        col.push((coupling, rng.value()));
                    }
                    if col.is_empty() {
                        col.push((start + i, 1.0));
                    }
                    kind.push(cols.len());
                    cols.push(col);
                }
            }
        }
        let mut lp = LpProblem::with_columns(cols.len());
        let mut row_coeffs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m + 1];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                row_coeffs[r].push((j, v));
            }
        }
        for coeffs in row_coeffs {
            lp.push_row(coeffs, RowCmp::Le, 1.0);
        }
        let mut mat = SparseMatrix::default();
        mat.load(&lp);
        // The coupling row is the last row, so its slack is the last column.
        let mut basis: Vec<u32> = basic.iter().map(|&j| j as u32).collect();
        basis.push((mat.ncols - 1) as u32);
        for i in (1..basis.len()).rev() {
            basis.swap(i, rng.below(i + 1));
        }
        (mat, basis, free)
    }

    /// A random sparse vector of dimension `m` with 1..=`max_nnz` entries.
    fn sparse_rhs(rng: &mut Mix, m: usize, max_nnz: usize) -> Vec<(usize, f64)> {
        (0..1 + rng.below(max_nnz))
            .map(|_| (rng.below(m), rng.value()))
            .collect()
    }

    fn scatter(m: usize, entries: &[(usize, f64)]) -> WorkVec {
        let mut w = WorkVec::default();
        w.reset(m);
        for &(i, v) in entries {
            w.add(i, v);
        }
        w
    }

    /// A stamped result in registration order, as value bits.
    fn registered(w: &WorkVec) -> Vec<(usize, u64)> {
        w.iter().map(|(i, v)| (i, v.to_bits())).collect()
    }

    /// A dense result's nonzeros in ascending order, as value bits.
    fn dense_nonzeros(v: &[f64]) -> Vec<(usize, u64)> {
        v.iter()
            .enumerate()
            .filter(|&(_, &x)| x != 0.0)
            .map(|(i, x)| (i, x.to_bits()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The reach walk and the full scan are one computation: on random
        /// fleet-shaped bases with random eta files, FTRAN and BTRAN give
        /// the same value bits registered in the same order either way, and
        /// the reach result visited in ascending order with zeros dropped
        /// is exactly the dense-slice kernel's result. One case in four has
        /// m >= 2000 rows, where `ftran`/`btran` choose the reach walk.
        #[test]
        fn reach_walk_matches_full_scan_bitwise(seed in 0u64..u64::MAX, class in 0u8..4) {
            let mut rng = Mix(seed);
            let (rows, max_block) = if class == 0 { (2000, 8) } else { (4 + rng.below(60), 6) };
            let (mat, mut basis, free) = fleet_basis(&mut rng, rows, max_block);
            let m = mat.m;
            let art = vec![1.0; m];
            let mut f = LuFactor::default();
            proptest::prop_assert!(f.refactor(&mat, &basis, &art).is_ok());
            // Random eta file: enter free columns at their largest spike entry.
            for _ in 0..rng.below(16) {
                let q = free[rng.below(free.len())];
                let (rows, vals) = mat.col(q);
                let mut rhs = WorkVec::default();
                rhs.reset(m);
                for (&r, &v) in rows.iter().zip(vals) {
                    rhs.add(r as usize, v);
                }
                let mut w = WorkVec::default();
                w.reset(m);
                f.ftran(&mut rhs, &mut w);
                let Some((p, _)) = w.iter().max_by(|a, b| a.1.abs().total_cmp(&b.1.abs())) else {
                    continue;
                };
                if basis.contains(&(q as u32)) || !f.spike_stable(p, &w) {
                    continue;
                }
                proptest::prop_assert!(f.update(p, &w).is_ok());
                basis[p] = q as u32;
            }
            // Sparse right-hand sides take the reach walk exactly from the
            // size floor on; a tenth of m in nonzeros always takes the scan.
            proptest::prop_assert_eq!(f.reach(6), m >= HYPER_MIN_ROWS);
            proptest::prop_assert_eq!(f.hyper_btran(), m >= HYPER_MIN_ROWS);
            proptest::prop_assert!(!f.reach(m.div_ceil(HYPER_DENSITY_DIV)));
            for _ in 0..4 {
                // FTRAN, row-space input.
                let b = sparse_rhs(&mut rng, m, 6);
                let (mut rs, mut rr) = (scatter(m, &b), scatter(m, &b));
                let (mut xs, mut xr) = (scatter(m, &[]), scatter(m, &[]));
                f.ftran_walk(&mut rs, &mut xs, false);
                f.ftran_walk(&mut rr, &mut xr, true);
                proptest::prop_assert_eq!(registered(&xs), registered(&xr));
                proptest::prop_assert_eq!(registered(&rs), registered(&rr));
                let mut dense_rhs = vec![0.0; m];
                for &(i, v) in &b {
                    dense_rhs[i] += v;
                }
                let mut dense_x = vec![0.0; m];
                f.ftran_dense(&mut dense_rhs, &mut dense_x);
                xr.sort_nonzeros();
                proptest::prop_assert_eq!(registered(&xr), dense_nonzeros(&dense_x));

                // BTRAN, position-space input.
                let c = sparse_rhs(&mut rng, m, 6);
                let (mut cs, mut cr) = (scatter(m, &c), scatter(m, &c));
                let (mut ys, mut yr) = (scatter(m, &[]), scatter(m, &[]));
                let (mut gs, mut gr) = (scatter(m, &[]), scatter(m, &[]));
                f.btran_walk(&mut cs, &mut ys, &mut gs, false);
                f.btran_walk(&mut cr, &mut yr, &mut gr, true);
                proptest::prop_assert_eq!(registered(&ys), registered(&yr));
                proptest::prop_assert_eq!(registered(&gs), registered(&gr));
                let mut dense_c = vec![0.0; m];
                for &(i, v) in &c {
                    dense_c[i] += v;
                }
                let (mut dense_y, mut dense_g) = (vec![0.0; m], vec![0.0; m]);
                f.btran_dense(&mut dense_c, &mut dense_y, &mut dense_g);
                yr.sort_nonzeros();
                proptest::prop_assert_eq!(registered(&yr), dense_nonzeros(&dense_y));
            }
        }
    }

    #[test]
    fn refactor_trigger_math() {
        let f = LuFactor {
            e_pivot: vec![0; 5],
            ..LuFactor::default()
        };
        assert!(f.should_refactor(5));
        assert!(!f.should_refactor(6));
    }
}
