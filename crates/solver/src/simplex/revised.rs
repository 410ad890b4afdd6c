//! Sparse revised simplex core with bounded variables.
//!
//! Same contract as the dense tableau core in [`bounded`](super::bounded)
//! — two-phase primal with native bounds, dual-simplex warm restarts, the
//! same tolerances — but per-iteration work scales with *nonzeros touched*
//! instead of `m × ncols`:
//!
//! * the constraint matrix lives once in CSC/CSR form ([`SparseMatrix`]),
//!   never as `B⁻¹A`;
//! * `B⁻¹` is a sparse LU factorization plus a product-form eta file
//!   ([`LuFactor`]) that survives across `solve_warm` /
//!   `resolve_with_bounds` dive chains — a chained re-solve pays a couple
//!   of FTRAN/BTRANs, not a refactorization;
//! * entering columns are priced with **devex** reference weights layered
//!   on the candidate-list partial pricing scheme of the dense engine
//!   (score `z²/γ` instead of `|z|`), which cuts iteration counts on the
//!   long thin BIRP relaxations;
//! * the dual ratio test is a **bound-flipping** long-step test: boxed
//!   non-basic variables whose reduced cost would flip sign are flipped in
//!   bulk (one combined FTRAN) and the dual step continues to a later
//!   breakpoint, so a single dual iteration can traverse many bound
//!   breakpoints;
//! * a slack **crash basis** seats slacks of feasible rows directly, so
//!   phase 1 is skipped entirely whenever the all-at-lower-bound point
//!   satisfies every inequality row (true for all BIRP slot relaxations
//!   at the root).
//!
//! Reduced costs are maintained incrementally from the BTRAN pivot row
//! (`z' = z − θ·α_r`); optimality is only declared after an exact
//! recompute confirms it, so drift cannot produce a wrong optimum.
//! Numerical trouble at any point returns `None` and the facade falls
//! back to the dense tableau core (and from there to the reference
//! engine) — the sparse path never has to limp through a sick basis.

use std::time::{Duration, Instant};

use birp_telemetry as telemetry;

use super::factor::LuFactor;
use super::sparse::{SparseMatrix, WorkVec};
use super::VState;
use crate::lp::{LpProblem, LpSolution, LpStatus};
use crate::simplex::{COST_TOL, PIVOT_TOL};

/// Primal feasibility tolerance for warm-restore bound violations
/// (matches the dense engine).
const WARM_FEAS_TOL: f64 = 1e-7;
/// Devex weights above this trigger a reference-framework reset.
const DEVEX_RESET: f64 = 1e10;
/// Ceiling on the partial-pricing candidate list. This core prices
/// candidates on demand against the current multipliers, so a short list
/// that refills often keeps devex scores fresher than a long one coasting
/// on stale weights: measurably fewer iterations on the dense-ish bench
/// instances. Applied as `min(candidate_cap, SPARSE_CAND_CAP)`, so configs
/// that pin `candidate_cap` to 1 still exercise this core at that extreme.
const SPARSE_CAND_CAP: usize = 8;

/// The simplex kernels [`KernelClock`] times, in the order of the
/// histograms they are flushed to (`telemetry::profile::KERNEL_TIMERS`).
#[derive(Clone, Copy)]
enum Kernel {
    Ftran,
    Btran,
    Refactor,
    Price,
}

/// Trace-level wall-clock totals of the simplex kernels over one public
/// solve, flushed once per solve with the factor counters. Below trace
/// level `on` is false and a kernel call pays one branch, no clock read.
#[derive(Debug, Default)]
struct KernelClock {
    on: bool,
    total: [Duration; telemetry::profile::KERNEL_TIMERS.len()],
}

impl KernelClock {
    #[inline]
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    #[inline]
    fn stop(&mut self, kernel: Kernel, started: Option<Instant>) {
        if let Some(t0) = started {
            self.total[kernel as usize] += t0.elapsed();
        }
    }
}

pub(crate) enum PhaseOutcome {
    Optimal,
    Unbounded,
    NumericalTrouble,
}

enum DualOutcome {
    PrimalFeasible,
    Infeasible,
    NumericalTrouble,
}

/// O(m + n) snapshot of a solved sparse core: basis, variable states,
/// bounds and solution vectors. Restoring refactorizes from the basis —
/// a few hundred microseconds against the dense engine's O(m·ncols)
/// tableau copy, and ~50x less frontier memory per branch-and-bound node.
#[derive(Debug, Clone)]
pub(crate) struct SparseSnapshot {
    basis: Vec<u32>,
    state: Vec<VState>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    xb: Vec<f64>,
    z: Vec<f64>,
    art_sign: Vec<f64>,
    rhs: Vec<f64>,
    m: usize,
    ncols: usize,
    nstruct: usize,
    num_slacks: usize,
}

impl SparseSnapshot {
    pub fn bytes(&self) -> usize {
        (self.lower.capacity()
            + self.upper.capacity()
            + self.xb.capacity()
            + self.z.capacity()
            + self.art_sign.capacity()
            + self.rhs.capacity())
            * std::mem::size_of::<f64>()
            + self.basis.capacity() * std::mem::size_of::<u32>()
            + self.state.capacity()
    }

    /// Estimated snapshot footprint for a problem shape, without solving.
    pub fn estimate_bytes(m: usize, nstruct: usize, num_slacks: usize) -> usize {
        let ntot = nstruct + num_slacks + m;
        // lower/upper/z over all logical columns, xb/art_sign/rhs/basis per
        // row, one state byte per column.
        (2 * ntot + (nstruct + num_slacks) + 4 * m) * std::mem::size_of::<f64>() + ntot
    }
}

/// Persistent sparse revised simplex core. One per [`SimplexEngine`]
/// (itself thread-local), so every buffer below is reused across solves.
///
/// [`SimplexEngine`]: super::bounded::SimplexEngine
#[derive(Debug, Default)]
pub(crate) struct RevisedCore {
    mat: SparseMatrix,
    factor: LuFactor,
    /// Basic column per position (`>= mat.ncols` addresses artificials).
    basis: Vec<u32>,
    /// Per-column resting state, all logical columns.
    state: Vec<VState>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Basic variable values per position.
    xb: Vec<f64>,
    /// Reduced costs, explicit columns only (artificials never re-enter).
    /// Maintained incrementally by the *dual* simplex (which expands the
    /// pivot row anyway) and recomputed once in `finish`; the primal prices
    /// on demand from `y` instead and leaves this array stale mid-run.
    z: Vec<f64>,
    /// Dense simplex multipliers `y = B⁻ᵀ c_B`, one per row. The primal
    /// prices columns on demand as `z_j = c_j − yᵀa_j` — O(col nnz) per
    /// candidate — instead of maintaining all of `z` through an O(nnz)
    /// pivot-row expansion every iteration. Updated per pivot by the
    /// rank-one `y += θ·ρ` (ρ is the BTRAN'd pivot row, already needed for
    /// the devex weights).
    y: Vec<f64>,
    /// Phase cost vector, explicit columns.
    costs: Vec<f64>,
    /// Phase cost of the artificial columns (1.0 in phase 1, then 0).
    art_cost: f64,
    /// Artificial column signs per row.
    art_sign: Vec<f64>,
    /// Row right-hand sides (for `recompute_xb`).
    rhs: Vec<f64>,
    /// Devex reference weights, explicit columns.
    devex: Vec<f64>,
    cands: Vec<u32>,
    cursor: usize,
    cand_cap: usize,
    refactor_interval: usize,
    /// True when `y` was recomputed exactly since the last pivot, so a
    /// no-candidate pricing scan is a trustworthy optimality certificate.
    y_exact: bool,
    // Scratch (see the FTRAN/BTRAN conventions in `factor.rs`).
    wrow: WorkVec,
    wpos: WorkVec,
    wrow2: WorkVec,
    wpos2: WorkVec,
    wstep: WorkVec,
    alpha: WorkVec,
    /// Dense accumulator for the pivot-row expansion `α = Aᵀρ`. The
    /// scatter into this buffer is branchless (plain `+=`), which beats
    /// the stamp-checked [`WorkVec`] scatter by ~2x on the row-expansion
    /// pass — the single hottest loop of the revised engine. Kept
    /// all-zero between calls; `pivot_row` re-zeroes what it touched.
    alpha_dense: Vec<f64>,
    /// Dense `m`-length scratch for the branchless FTRAN/BTRAN kernels
    /// ([`LuFactor::ftran_dense`] / [`btran_dense`]); re-zeroed at each
    /// use, so no cross-call invariant.
    ///
    /// [`btran_dense`]: LuFactor::btran_dense
    dvec_a: Vec<f64>,
    dvec_b: Vec<f64>,
    dvec_c: Vec<f64>,
    brk: Vec<(f64, u32, f64)>,
    flips: Vec<(u32, f64)>,
    iterations: usize,
    clock: KernelClock,
    pub ready: bool,
}

impl RevisedCore {
    pub fn last_iterations(&self) -> usize {
        self.iterations
    }

    /// Test support: structural-column rest states (-1 lower / 0 basic /
    /// +1 upper) and reduced costs of the last successful solve.
    pub fn vertex_report(&self) -> Option<(Vec<i8>, Vec<f64>)> {
        if !self.ready {
            return None;
        }
        let n = self.mat.nstruct;
        let states = self.state[..n]
            .iter()
            .map(|s| match s {
                VState::Basic => 0i8,
                VState::AtLower => -1,
                VState::AtUpper => 1,
            })
            .collect();
        Some((states, self.z[..n].to_vec()))
    }

    pub fn snapshot(&self) -> Option<SparseSnapshot> {
        if !self.ready {
            return None;
        }
        Some(SparseSnapshot {
            basis: self.basis.clone(),
            state: self.state.clone(),
            lower: self.lower.clone(),
            upper: self.upper.clone(),
            xb: self.xb.clone(),
            z: self.z.clone(),
            art_sign: self.art_sign.clone(),
            rhs: self.rhs.clone(),
            m: self.mat.m,
            ncols: self.mat.ncols,
            nstruct: self.mat.nstruct,
            num_slacks: self.mat.num_slacks,
        })
    }

    /// Drain factorization counters into the telemetry registry; called
    /// once per public solve entry point, never per pivot.
    fn flush_stats(&mut self) {
        let s = std::mem::take(&mut self.factor.stats);
        if telemetry::enabled() {
            if s.refactorizations > 0 {
                telemetry::counter("solver.refactorizations", s.refactorizations);
            }
            if s.eta_updates > 0 {
                telemetry::counter("solver.eta_updates", s.eta_updates);
            }
            if s.ftran_nnz > 0 {
                telemetry::counter("solver.ftran_nnz", s.ftran_nnz);
            }
            if s.instability_rebuilds > 0 {
                telemetry::counter("solver.lu_instability", s.instability_rebuilds);
            }
        }
        let total = std::mem::take(&mut self.clock.total);
        if self.clock.on {
            for (name, spent) in telemetry::profile::KERNEL_TIMERS.iter().zip(total) {
                if !spent.is_zero() {
                    telemetry::observe(name, spent.as_secs_f64() * 1e3);
                }
            }
        }
    }

    /// Arm the kernel timers for one public solve (trace level only).
    fn start_clock(&mut self) {
        self.clock.on = telemetry::trace_spans();
    }

    // --- kernels --------------------------------------------------------

    /// True once the factorization carries real fill. The primal and the
    /// dual then visit FTRAN/BTRAN results in ascending index order with
    /// exact zeros dropped, the order of the branchless dense-slice
    /// kernels, which beat the stamp-checked ones once vectors densify
    /// inside the triangular solves. A slack crash basis has
    /// `lu_nnz == m`, so hypersparse warm dives keep the stamped kernels
    /// and their registration order.
    #[inline]
    fn dense_factor(&self) -> bool {
        self.factor.lu_nnz() > 2 * self.mat.m
    }

    /// Scatter explicit column `q` into `wrow` and FTRAN it into `wpos`
    /// (the spike `w = B⁻¹ a_q`). A dense column, or a dense factor below
    /// the reach walk's size floor, takes the dense-slice kernel; the reach
    /// walk computes the same values, and sorting its nonzeros reproduces
    /// the dense kernel's visit order.
    fn ftran_column(&mut self, q: usize) {
        let started = self.clock.start();
        let m = self.mat.m;
        let dense = self.dense_factor();
        let (rows, vals) = self.mat.col(q);
        if rows.len() * 4 > m || (dense && !self.factor.hypersparse()) {
            let mut rhs = std::mem::take(&mut self.dvec_a);
            let mut x = std::mem::take(&mut self.dvec_b);
            rhs.clear();
            rhs.resize(m, 0.0);
            x.clear();
            x.resize(m, 0.0);
            for (&r, &v) in rows.iter().zip(vals) {
                rhs[r as usize] = v;
            }
            self.factor.ftran_dense(&mut rhs, &mut x);
            self.wpos.clear();
            for (p, &v) in x.iter().enumerate() {
                if v != 0.0 {
                    self.wpos.set(p, v);
                }
            }
            self.dvec_a = rhs;
            self.dvec_b = x;
        } else {
            self.wrow.clear();
            for (&r, &v) in rows.iter().zip(vals) {
                self.wrow.add(r as usize, v);
            }
            self.wpos.clear();
            self.factor.ftran(&mut self.wrow, &mut self.wpos);
            if dense {
                self.wpos.sort_nonzeros();
            }
        }
        self.factor.stats.ftran_nnz += self.wpos.nnz() as u64;
        self.clock.stop(Kernel::Ftran, started);
    }

    /// BTRAN the position unit vector `e_r` into dense row-space `ρ`
    /// (`dvec_b`) with the branchless kernels. Caller takes the buffers.
    fn btran_unit_dense(&mut self, r: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let m = self.mat.m;
        let mut c = std::mem::take(&mut self.dvec_a);
        let mut rho = std::mem::take(&mut self.dvec_b);
        let mut g = std::mem::take(&mut self.dvec_c);
        for buf in [&mut c, &mut rho, &mut g] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        c[r] = 1.0;
        self.factor.btran_dense(&mut c, &mut rho, &mut g);
        self.factor.track_btran_dense(&rho);
        (c, rho, g)
    }

    /// BTRAN the position unit vector `e_r` into the row-space pivot
    /// multipliers `ρ` (`wrow2`), then expand the pivot row
    /// `α = Aᵀρ` over explicit columns into `alpha`.
    fn pivot_row(&mut self, r: usize) {
        self.alpha_dense.resize(self.mat.ncols, 0.0);
        let dense = self.dense_factor();
        if dense && !self.factor.hyper_btran() {
            let started = self.clock.start();
            let (c, rho, g) = self.btran_unit_dense(r);
            self.clock.stop(Kernel::Btran, started);
            let alpha_dense = &mut self.alpha_dense[..self.mat.ncols];
            for (i, &rv) in rho.iter().enumerate() {
                if rv == 0.0 {
                    continue;
                }
                let (cols, vals) = self.mat.row(i);
                for (&j, &a) in cols.iter().zip(vals) {
                    alpha_dense[j as usize] += a * rv;
                }
            }
            self.dvec_a = c;
            self.dvec_b = rho;
            self.dvec_c = g;
        } else {
            // A dense factor visits ρ in the dense kernel's order, so every
            // α_j sums its terms in the same order on either kernel.
            self.btran_unit(r);
            if dense {
                self.wrow2.sort_nonzeros();
            }
            let alpha_dense = &mut self.alpha_dense[..self.mat.ncols];
            for (i, rho) in self.wrow2.iter() {
                if rho == 0.0 {
                    continue;
                }
                let (cols, vals) = self.mat.row(i);
                for (&j, &a) in cols.iter().zip(vals) {
                    alpha_dense[j as usize] += a * rho;
                }
            }
        }
        // Collect nonzeros and restore the all-zero invariant in one pass.
        // The O(ncols) sweep is cheap next to the expansion above, and the
        // branchless `+=` it buys is the difference between ~34us and
        // ~20us per iteration on the 300x200 bench instance.
        self.alpha.clear();
        for (j, v) in self.alpha_dense[..self.mat.ncols].iter_mut().enumerate() {
            if *v != 0.0 {
                self.alpha.add(j, *v);
                *v = 0.0;
            }
        }
    }

    /// BTRAN the position unit vector `e_r` into `wrow2` with the stamped
    /// kernels.
    fn btran_unit(&mut self, r: usize) {
        let started = self.clock.start();
        self.wpos2.clear();
        self.wpos2.add(r, 1.0);
        self.wrow2.clear();
        self.factor
            .btran(&mut self.wpos2, &mut self.wrow2, &mut self.wstep);
        self.clock.stop(Kernel::Btran, started);
    }

    /// Exact simplex multipliers from scratch: `y = B⁻ᵀ c_B`, one BTRAN.
    fn recompute_y(&mut self) {
        let started = self.clock.start();
        let m = self.mat.m;
        self.y.clear();
        self.y.resize(m, 0.0);
        if self.dense_factor() {
            let mut c = std::mem::take(&mut self.dvec_a);
            let mut g = std::mem::take(&mut self.dvec_c);
            for buf in [&mut c, &mut g] {
                buf.clear();
                buf.resize(m, 0.0);
            }
            for (p, cp) in c.iter_mut().enumerate() {
                let j = self.basis[p] as usize;
                *cp = if self.mat.is_artificial(j) {
                    self.art_cost
                } else {
                    self.costs[j]
                };
            }
            self.factor.btran_dense(&mut c, &mut self.y, &mut g);
            self.dvec_a = c;
            self.dvec_c = g;
        } else {
            self.wpos2.clear();
            for p in 0..m {
                let j = self.basis[p] as usize;
                let cb = if self.mat.is_artificial(j) {
                    self.art_cost
                } else {
                    self.costs[j]
                };
                if cb != 0.0 {
                    self.wpos2.add(p, cb);
                }
            }
            self.wrow2.clear();
            self.factor
                .btran(&mut self.wpos2, &mut self.wrow2, &mut self.wstep);
            for (i, v) in self.wrow2.iter() {
                self.y[i] = v;
            }
        }
        self.y_exact = true;
        self.clock.stop(Kernel::Btran, started);
    }

    /// On-demand reduced cost of explicit column `j`: `z_j = c_j − yᵀa_j`.
    #[inline]
    fn price_col(&self, j: usize) -> f64 {
        let mut z = self.costs[j];
        let (rows, vals) = self.mat.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            z -= v * self.y[i as usize];
        }
        z
    }

    /// Exact reduced costs for every explicit column (`z = c − Aᵀy`).
    /// Only called once per solve (in `finish`) and at dual entry points;
    /// the primal loop never pays this O(nnz) sweep.
    fn recompute_z(&mut self) {
        self.recompute_y();
        for j in 0..self.mat.ncols {
            self.z[j] = self.price_col(j);
        }
    }

    /// Recompute basic values from scratch: `x_B = B⁻¹ (b − N x_N)`.
    /// Called after each refactorization to shed accumulated drift.
    fn recompute_xb(&mut self) {
        let started = self.clock.start();
        // Non-basic artificials rest at 0: no contribution either way.
        if self.dense_factor() {
            let m = self.mat.m;
            let mut rhs = std::mem::take(&mut self.dvec_a);
            let mut x = std::mem::take(&mut self.dvec_b);
            rhs.clear();
            rhs.extend_from_slice(&self.rhs);
            x.clear();
            x.resize(m, 0.0);
            for j in 0..self.mat.ncols {
                let xj = match self.state[j] {
                    VState::Basic => continue,
                    VState::AtLower => self.lower[j],
                    VState::AtUpper => self.upper[j],
                };
                if xj != 0.0 {
                    let (rows, vals) = self.mat.col(j);
                    for (&r, &v) in rows.iter().zip(vals) {
                        rhs[r as usize] -= v * xj;
                    }
                }
            }
            self.factor.ftran_dense(&mut rhs, &mut x);
            self.xb.copy_from_slice(&x);
            self.dvec_a = rhs;
            self.dvec_b = x;
        } else {
            self.wrow.clear();
            for (i, &b) in self.rhs.iter().enumerate() {
                if b != 0.0 {
                    self.wrow.add(i, b);
                }
            }
            for j in 0..self.mat.ncols {
                let xj = match self.state[j] {
                    VState::Basic => continue,
                    VState::AtLower => self.lower[j],
                    VState::AtUpper => self.upper[j],
                };
                if xj != 0.0 {
                    let (rows, vals) = self.mat.col(j);
                    for (&r, &v) in rows.iter().zip(vals) {
                        self.wrow.add(r as usize, -v * xj);
                    }
                }
            }
            self.wpos.clear();
            self.factor.ftran(&mut self.wrow, &mut self.wpos);
            for p in 0..self.mat.m {
                self.xb[p] = self.wpos.get(p);
            }
        }
        self.clock.stop(Kernel::Ftran, started);
    }

    /// Rebuild the LU from the current basis and refresh `x_B`. Used at
    /// solve entries and instability rebuilds, where shedding accumulated
    /// drift is the point.
    fn refactor_now(&mut self) -> Result<(), ()> {
        self.refactor_light()?;
        self.recompute_xb();
        Ok(())
    }

    /// Rebuild the LU only, keeping the incrementally-maintained `x_B`
    /// (a refactorization represents the *same* basis, so `x_B` is still
    /// mathematically current — recomputing it is drift hygiene, not a
    /// correctness requirement, and costs a full O(nnz) sweep the
    /// scheduled mid-solve rebuilds don't need to pay; the dense engine
    /// never sheds drift mid-solve either, and `finish` guards the final
    /// answer with a feasibility check).
    fn refactor_light(&mut self) -> Result<(), ()> {
        let started = self.clock.start();
        let out = self
            .factor
            .refactor(&self.mat, &self.basis, &self.art_sign)
            .map_err(|_| ());
        self.clock.stop(Kernel::Refactor, started);
        out
    }

    // --- pricing --------------------------------------------------------

    /// On-demand eligibility of column `j` against the current `y`:
    /// `Some((delta, z_j))` when the column prices in. One O(col nnz)
    /// gather per call — never a stored-z lookup.
    #[inline]
    fn eligible_delta(&self, j: usize) -> Option<(f64, f64)> {
        if self.upper[j] - self.lower[j] < PIVOT_TOL {
            return None;
        }
        match self.state[j] {
            VState::Basic => None,
            VState::AtLower => {
                let z = self.price_col(j);
                (z < -COST_TOL).then_some((1.0, z))
            }
            VState::AtUpper => {
                let z = self.price_col(j);
                (z > COST_TOL).then_some((-1.0, z))
            }
        }
    }

    /// Candidate-list partial pricing with devex scoring (`z²/γ`);
    /// Bland mode falls back to lowest-index full scan for anti-cycling.
    /// Mirrors the dense engine's list/section mechanics so both engines
    /// share the conformance-exercised pricing semantics. Returns
    /// `(column, delta, z)` with `z` priced against the current `y`.
    fn price(&mut self, bland: bool) -> Option<(usize, f64, f64)> {
        let n = self.mat.ncols;
        if bland {
            self.cands.clear();
            return (0..n).find_map(|j| self.eligible_delta(j).map(|(d, z)| (j, d, z)));
        }
        let mut cands = std::mem::take(&mut self.cands);
        let mut best: Option<(usize, f64, f64, f64)> = None; // (j, score, delta, z)
        cands.retain(|&j| {
            let j = j as usize;
            match self.eligible_delta(j) {
                Some((delta, z)) => {
                    let score = z * z / self.devex[j].max(1e-12);
                    match best {
                        Some((_, s, _, _)) if s >= score => {}
                        _ => best = Some((j, score, delta, z)),
                    }
                    true
                }
                None => false,
            }
        });
        if cands.is_empty() {
            best = None;
            let section = (n / 8).max(64).min(n).max(1);
            let start = self.cursor.min(n.saturating_sub(1));
            let mut scanned = 0usize;
            while scanned < n {
                let mut j = start + scanned;
                if j >= n {
                    j -= n;
                }
                scanned += 1;
                if let Some((delta, z)) = self.eligible_delta(j) {
                    let score = z * z / self.devex[j].max(1e-12);
                    match best {
                        Some((_, s, _, _)) if s >= score => {}
                        _ => best = Some((j, score, delta, z)),
                    }
                    cands.push(j as u32);
                    if cands.len() >= self.cand_cap.max(1) {
                        break;
                    }
                }
                if !cands.is_empty() && scanned.is_multiple_of(section) {
                    break;
                }
            }
            self.cursor = (start + scanned) % n.max(1);
        }
        self.cands = cands;
        best.map(|(j, _, d, z)| (j, d, z))
    }

    fn timed_price(&mut self, bland: bool) -> Option<(usize, f64, f64)> {
        let started = self.clock.start();
        let out = self.price(bland);
        self.clock.stop(Kernel::Price, started);
        out
    }

    fn reset_devex(&mut self) {
        self.devex.clear();
        self.devex.resize(self.mat.ncols, 1.0);
    }

    fn note_cap_hit(&self, cap: usize, phase: &'static str) {
        telemetry::counter("solver.pivot_cap_hit", 1);
        if telemetry::enabled() {
            telemetry::event(
                telemetry::Level::Warn,
                "solver.pivot_cap_hit",
                &[
                    ("phase", phase.into()),
                    ("m", (self.mat.m as u64).into()),
                    ("ncols", (self.mat.ncols as u64).into()),
                    ("cap", (cap as u64).into()),
                ],
            );
        }
    }

    // --- primal ---------------------------------------------------------

    /// Run one primal phase to optimality for the loaded cost vector.
    fn run(&mut self, cap: usize) -> PhaseOutcome {
        let m = self.mat.m;
        let mut since_improve = 0usize;
        let stall_limit = 2 * (m + self.mat.ncols);
        self.recompute_y();
        loop {
            self.iterations += 1;
            if self.iterations > cap {
                self.note_cap_hit(cap, "primal");
                return PhaseOutcome::NumericalTrouble;
            }
            let bland = since_improve > stall_limit;

            // --- entering column, optimality only on exact y ------------
            let Some((q, delta, zq)) = self.timed_price(bland) else {
                if self.y_exact {
                    return PhaseOutcome::Optimal;
                }
                self.recompute_y();
                self.cands.clear();
                self.cursor = 0;
                if self.timed_price(bland).is_none() {
                    return PhaseOutcome::Optimal;
                }
                continue;
            };
            if !zq.is_finite() {
                return PhaseOutcome::NumericalTrouble;
            }

            // --- spike + ratio test -------------------------------------
            self.ftran_column(q);
            let mut t = self.upper[q] - self.lower[q]; // bound-flip distance
            let mut leave: Option<(usize, VState)> = None;
            for (p, wp) in self.wpos.iter() {
                let alpha = delta * wp;
                let bi = self.basis[p] as usize;
                let (limit, hits) = if alpha > PIVOT_TOL {
                    (
                        ((self.xb[p] - self.lower[bi]) / alpha).max(0.0),
                        VState::AtLower,
                    )
                } else if alpha < -PIVOT_TOL {
                    if self.upper[bi].is_finite() {
                        (
                            ((self.upper[bi] - self.xb[p]) / -alpha).max(0.0),
                            VState::AtUpper,
                        )
                    } else {
                        continue;
                    }
                } else {
                    continue;
                };
                let better = match leave {
                    None => limit < t,
                    Some((lp_, _)) => {
                        limit < t - PIVOT_TOL
                            || (limit < t + PIVOT_TOL && (bi as u32) < self.basis[lp_])
                    }
                };
                if better {
                    t = limit.min(t);
                    leave = Some((p, hits));
                }
            }
            if t.is_infinite() {
                return PhaseOutcome::Unbounded;
            }
            if !t.is_finite() {
                return PhaseOutcome::NumericalTrouble;
            }
            if zq.abs() * t > COST_TOL {
                since_improve = 0;
            } else {
                since_improve += 1;
            }

            match leave {
                None => {
                    // Bound flip: x_q to its opposite bound; basis, factor
                    // and reduced costs are all untouched.
                    let step = delta * t;
                    for (p, wp) in self.wpos.iter() {
                        if wp != 0.0 {
                            self.xb[p] -= step * wp;
                        }
                    }
                    self.state[q] = if delta > 0.0 {
                        VState::AtUpper
                    } else {
                        VState::AtLower
                    };
                }
                Some((r, hits)) => {
                    // Early stability peek: a spike whose pivot element is
                    // drowned by the eta file means the factorization has
                    // degraded — rebuild and retry this iteration.
                    if !self.factor.spike_stable(r, &self.wpos) && self.factor.num_etas() > 0 {
                        self.factor.stats.instability_rebuilds += 1;
                        if self.refactor_now().is_err() {
                            return PhaseOutcome::NumericalTrouble;
                        }
                        continue;
                    }
                    let w_r = self.wpos.get(r);
                    if w_r.abs() <= PIVOT_TOL {
                        return PhaseOutcome::NumericalTrouble;
                    }
                    if self.pivot_commit(r, q, delta, t, hits, zq).is_err() {
                        return PhaseOutcome::NumericalTrouble;
                    }
                }
            }
        }
    }

    /// Commit the basis change `basis[r] <- q` after a successful primal
    /// ratio test: rank-one `y` update and lazy devex refresh from the
    /// BTRAN'd pivot row, x_B update from the spike, eta append,
    /// refactorization bookkeeping. Unlike the dual pivot this never
    /// expands the full pivot row `α = Aᵀρ` — only the candidate-list
    /// columns get their devex weights refreshed (the rest keep a stale
    /// weight until they re-enter a pricing section, which is the standard
    /// partial-devex compromise and costs O(cands · col nnz), not O(nnz)).
    fn pivot_commit(
        &mut self,
        r: usize,
        q: usize,
        delta: f64,
        t: f64,
        hits: VState,
        zq: f64,
    ) -> Result<(), ()> {
        let w_r = self.wpos.get(r);
        let theta = zq / w_r;
        let gamma_q = self.devex[q].max(1.0);
        let mut devex_overflow = false;
        // ρ = B⁻ᵀe_r BEFORE the basis changes (ρ refers to B, not B').
        // The two branches are the same math over the two ρ storages, and
        // neither depends on the order ρ's nonzeros are visited in.
        if self.dense_factor() && !self.factor.hyper_btran() {
            let started = self.clock.start();
            let (c, rho, g) = self.btran_unit_dense(r);
            self.clock.stop(Kernel::Btran, started);
            for (yi, &rv) in self.y.iter_mut().zip(rho.iter()) {
                *yi += theta * rv;
            }
            let cands = std::mem::take(&mut self.cands);
            for &j32 in &cands {
                let j = j32 as usize;
                if j == q || self.state[j] == VState::Basic {
                    continue;
                }
                let (rows, vals) = self.mat.col(j);
                let mut aj = 0.0;
                for (&i, &v) in rows.iter().zip(vals) {
                    aj += v * rho[i as usize];
                }
                let ratio = aj / w_r;
                let cand = ratio * ratio * gamma_q;
                if cand > self.devex[j] {
                    self.devex[j] = cand;
                    devex_overflow |= cand > DEVEX_RESET;
                }
            }
            self.cands = cands;
            self.dvec_a = c;
            self.dvec_b = rho;
            self.dvec_c = g;
        } else {
            self.btran_unit(r);
            for (i, rho) in self.wrow2.iter() {
                if rho != 0.0 {
                    self.y[i] += theta * rho;
                }
            }
            let cands = std::mem::take(&mut self.cands);
            for &j32 in &cands {
                let j = j32 as usize;
                if j == q || self.state[j] == VState::Basic {
                    continue;
                }
                let (rows, vals) = self.mat.col(j);
                let mut aj = 0.0;
                for (&i, &v) in rows.iter().zip(vals) {
                    aj += v * self.wrow2.get(i as usize);
                }
                let ratio = aj / w_r;
                let cand = ratio * ratio * gamma_q;
                if cand > self.devex[j] {
                    self.devex[j] = cand;
                    devex_overflow |= cand > DEVEX_RESET;
                }
            }
            self.cands = cands;
        }
        self.y_exact = false;
        let leaving = self.basis[r] as usize;
        if !self.mat.is_artificial(leaving) {
            self.devex[leaving] = (gamma_q / (w_r * w_r)).max(1.0);
        }
        if devex_overflow {
            self.reset_devex();
        }

        // x_B update from the spike, entering value into row r.
        let step = delta * t;
        let new_val = if delta > 0.0 {
            self.lower[q] + t
        } else {
            self.upper[q] - t
        };
        for (p, wp) in self.wpos.iter() {
            if p != r && wp != 0.0 {
                self.xb[p] -= step * wp;
            }
        }
        self.state[leaving] = hits;
        self.state[q] = VState::Basic;
        self.xb[r] = new_val;
        self.basis[r] = q as u32;

        // Eta append against the pre-pivot factorization, then the
        // scheduled refactorization check.
        if self.factor.update(r, &self.wpos).is_err() {
            return Err(());
        }
        if self.factor.should_refactor(self.refactor_interval) {
            self.refactor_light()?;
        }
        Ok(())
    }

    // --- dual -----------------------------------------------------------

    /// Dual simplex with a bound-flipping ratio test: restore primal
    /// feasibility after bound shifts while keeping dual feasibility.
    fn dual_run(&mut self, cap: usize) -> DualOutcome {
        let m = self.mat.m;
        loop {
            // --- leaving: most violated basic ---------------------------
            let mut leave: Option<(usize, f64, bool)> = None;
            for p in 0..m {
                let bi = self.basis[p] as usize;
                let v = self.xb[p];
                if !v.is_finite() {
                    return DualOutcome::NumericalTrouble;
                }
                let below = self.lower[bi] - v;
                let above = v - self.upper[bi];
                let (viol, too_low) = if below > above {
                    (below, true)
                } else {
                    (above, false)
                };
                if viol > WARM_FEAS_TOL {
                    match leave {
                        Some((_, worst, _)) if worst >= viol => {}
                        _ => leave = Some((p, viol, too_low)),
                    }
                }
            }
            let Some((r, _, too_low)) = leave else {
                return DualOutcome::PrimalFeasible;
            };
            self.iterations += 1;
            if self.iterations > cap {
                self.note_cap_hit(cap, "dual");
                return DualOutcome::NumericalTrouble;
            }

            // --- pivot row + breakpoint collection ----------------------
            self.pivot_row(r);
            let mut brk = std::mem::take(&mut self.brk);
            brk.clear();
            for (j, a) in self.alpha.iter() {
                if self.upper[j] - self.lower[j] < PIVOT_TOL {
                    continue;
                }
                let (ok, delta) = match (self.state[j], too_low) {
                    (VState::Basic, _) => (false, 0.0),
                    (VState::AtLower, true) => (a < -PIVOT_TOL, 1.0),
                    (VState::AtUpper, true) => (a > PIVOT_TOL, -1.0),
                    (VState::AtLower, false) => (a > PIVOT_TOL, 1.0),
                    (VState::AtUpper, false) => (a < -PIVOT_TOL, -1.0),
                };
                if ok {
                    brk.push((self.z[j].abs() / a.abs(), j as u32, delta));
                }
            }
            if brk.is_empty() {
                self.brk = brk;
                // Farkas-style certificate: nothing can move x_B(r) toward
                // its bound. Nothing was committed this iteration, so the
                // basis stays coherent for further warm restarts.
                return DualOutcome::Infeasible;
            }
            brk.sort_unstable_by(|x, y| {
                x.0.partial_cmp(&y.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.1.cmp(&y.1))
            });

            // --- bound-flipping walk ------------------------------------
            // Walk breakpoints in ratio order; flip boxed variables whose
            // full traversal still leaves the row violated, enter at the
            // first breakpoint that closes the gap (or the first unboxed
            // column). All effects are recorded first and committed only
            // once an entering column is locked in.
            let bi = self.basis[r] as usize;
            let target = if too_low {
                self.lower[bi]
            } else {
                self.upper[bi]
            };
            let mut remaining = (target - self.xb[r]).abs();
            let mut flips = std::mem::take(&mut self.flips);
            flips.clear();
            let mut entering: Option<(usize, f64)> = None;
            for &(_, j32, delta) in brk.iter() {
                let j = j32 as usize;
                let a = self.alpha.get(j);
                let range = self.upper[j] - self.lower[j];
                let closes = range.is_finite() && range * a.abs() < remaining - WARM_FEAS_TOL;
                if closes {
                    remaining -= range * a.abs();
                    flips.push((j32, delta * range));
                } else {
                    entering = Some((j, delta));
                    break;
                }
            }
            self.brk = brk;
            let Some((q, delta)) = entering else {
                self.flips = flips;
                // Every eligible column flipped and the row is still
                // violated: dual ray, primal infeasible. Nothing committed.
                return DualOutcome::Infeasible;
            };

            // --- commit flips (one combined FTRAN) ----------------------
            if !flips.is_empty() {
                self.wrow.clear();
                for &(j32, dx) in &flips {
                    let j = j32 as usize;
                    self.state[j] = match self.state[j] {
                        VState::AtLower => VState::AtUpper,
                        VState::AtUpper => VState::AtLower,
                        VState::Basic => unreachable!("flipped column was basic"),
                    };
                    let (rows, vals) = self.mat.col(j);
                    for (&i, &v) in rows.iter().zip(vals) {
                        self.wrow.add(i as usize, v * dx);
                    }
                }
                let started = self.clock.start();
                self.wpos.clear();
                self.factor.ftran(&mut self.wrow, &mut self.wpos);
                self.clock.stop(Kernel::Ftran, started);
                self.factor.stats.ftran_nnz += self.wpos.nnz() as u64;
                for (p, fp) in self.wpos.iter() {
                    if fp != 0.0 {
                        self.xb[p] -= fp;
                    }
                }
            }
            self.flips = flips;

            // --- entering spike + pivot ---------------------------------
            self.ftran_column(q);
            if !self.factor.spike_stable(r, &self.wpos) && self.factor.num_etas() > 0 {
                self.factor.stats.instability_rebuilds += 1;
                if self.refactor_now().is_err() {
                    return DualOutcome::NumericalTrouble;
                }
                self.ftran_column(q);
            }
            let w_r = self.wpos.get(r);
            if w_r.abs() <= PIVOT_TOL {
                return DualOutcome::NumericalTrouble;
            }
            let t = (target - self.xb[r]) / (-w_r * delta);
            if !t.is_finite() || t < -WARM_FEAS_TOL {
                return DualOutcome::NumericalTrouble;
            }
            let t = t.max(0.0);

            let theta = self.z[q] / w_r;
            for (j, aj) in self.alpha.iter() {
                if aj != 0.0 && j != q {
                    self.z[j] -= theta * aj;
                }
            }
            self.z[q] = 0.0;
            let leaving = self.basis[r] as usize;
            if !self.mat.is_artificial(leaving) {
                self.z[leaving] = -theta;
                self.devex[leaving] = 1.0;
            }

            let step = delta * t;
            for (p, wp) in self.wpos.iter() {
                if p != r && wp != 0.0 {
                    self.xb[p] -= step * wp;
                }
            }
            self.state[leaving] = if too_low {
                VState::AtLower
            } else {
                VState::AtUpper
            };
            self.state[q] = VState::Basic;
            self.xb[r] = if delta > 0.0 {
                self.lower[q] + t
            } else {
                self.upper[q] - t
            };
            self.basis[r] = q as u32;
            if self.factor.update(r, &self.wpos).is_err() {
                return DualOutcome::NumericalTrouble;
            }
            if self.factor.should_refactor(self.refactor_interval) && self.refactor_light().is_err()
            {
                return DualOutcome::NumericalTrouble;
            }
        }
    }

    // --- cold path ------------------------------------------------------

    /// Build matrix, bounds and the slack crash basis for `lp` over the
    /// box `[lo, hi]`. Rows whose slack is feasible at the all-at-lower
    /// point seat the slack directly; only the rest get artificials.
    fn load(&mut self, lp: &LpProblem, lo: &[f64], hi: &[f64]) -> usize {
        self.mat.load(lp);
        let (m, ncols, n) = (self.mat.m, self.mat.ncols, self.mat.nstruct);
        let ntot = self.mat.ntot();
        self.iterations = 0;
        self.ready = false;
        self.cursor = 0;
        self.cands.clear();
        self.y_exact = false;

        self.lower.clear();
        self.lower.extend_from_slice(lo);
        self.upper.clear();
        self.upper.extend_from_slice(hi);
        for _ in n..ntot {
            self.lower.push(0.0);
            self.upper.push(f64::INFINITY);
        }
        self.state.clear();
        self.state.resize(ntot, VState::AtLower);
        self.rhs.clear();
        self.rhs.extend(lp.rows.iter().map(|r| r.rhs));
        self.art_sign.clear();
        self.art_sign.resize(m, 1.0);
        self.basis.clear();
        self.xb.clear();
        self.z.clear();
        self.z.resize(ncols, 0.0);
        self.y.clear();
        self.y.resize(m, 0.0);
        self.costs.clear();
        self.costs.resize(ncols, 0.0);

        self.wrow.reset(m);
        self.wpos.reset(m);
        self.wrow2.reset(m);
        self.wpos2.reset(m);
        self.wstep.reset(m);
        self.alpha.reset(ncols);

        let mut slack = n;
        let mut num_art = 0usize;
        for (i, row) in lp.rows.iter().enumerate() {
            let lhs_at_lower: f64 = row.coeffs.iter().map(|&(j, c)| c * lo[j]).sum();
            let resid = row.rhs - lhs_at_lower;
            use crate::lp::RowCmp;
            let slack_feasible = match row.cmp {
                RowCmp::Le => resid >= 0.0,
                RowCmp::Ge => resid <= 0.0,
                RowCmp::Eq => false,
            };
            if slack_feasible {
                // Slack value solves the row: +resid for Le, -resid for Ge.
                let sv = match row.cmp {
                    RowCmp::Le => resid,
                    _ => -resid,
                };
                self.basis.push(slack as u32);
                self.state[slack] = VState::Basic;
                self.xb.push(sv);
            } else {
                let art = ncols + i;
                self.art_sign[i] = if resid >= 0.0 { 1.0 } else { -1.0 };
                self.basis.push(art as u32);
                self.state[art] = VState::Basic;
                self.xb.push(resid.abs());
                num_art += 1;
            }
            if row.cmp != RowCmp::Eq {
                slack += 1;
            }
        }
        num_art
    }

    /// Degenerate pivots to push any basic artificial out of the basis
    /// after phase 1; redundant rows keep theirs, pinned by [0,0] bounds.
    fn drive_out_artificials(&mut self) -> Result<(), ()> {
        for r in 0..self.mat.m {
            let b = self.basis[r] as usize;
            if !self.mat.is_artificial(b) {
                continue;
            }
            self.pivot_row(r);
            let mut pick: Option<usize> = None;
            for (j, a) in self.alpha.iter() {
                if self.state[j] != VState::Basic && a.abs() > 1e-7 {
                    match pick {
                        Some(pj) if pj <= j => {}
                        _ => pick = Some(j),
                    }
                }
            }
            let Some(q) = pick else { continue };
            self.ftran_column(q);
            let w_r = self.wpos.get(r);
            if w_r.abs() <= PIVOT_TOL {
                continue;
            }
            // Degenerate pivot: entering stays at its resting value.
            let resting = match self.state[q] {
                VState::AtLower => self.lower[q],
                VState::AtUpper => self.upper[q],
                VState::Basic => unreachable!(),
            };
            self.state[b] = VState::AtLower;
            self.state[q] = VState::Basic;
            self.xb[r] = resting;
            self.basis[r] = q as u32;
            if self.factor.update(r, &self.wpos).is_err() {
                return Err(());
            }
            if self.factor.should_refactor(self.refactor_interval) {
                self.refactor_light()?;
            }
        }
        // Freeze every artificial at zero for phase 2.
        for i in 0..self.mat.m {
            let art = self.mat.ncols + i;
            self.lower[art] = 0.0;
            self.upper[art] = 0.0;
        }
        Ok(())
    }

    /// Full two-phase cold solve. `None` signals numerical trouble — the
    /// facade then falls back to the dense tableau core.
    pub fn try_solve_cold(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        self.start_clock();
        self.cand_cap = opts.candidate_cap.min(SPARSE_CAND_CAP);
        self.refactor_interval = opts.refactor_interval;
        let num_art = self.load(lp, lo, hi);
        let cap = opts.pivot_cap(self.mat.m, self.mat.ncols + self.mat.m);
        if self.refactor_now().is_err() {
            self.flush_stats();
            return None;
        }

        if num_art > 0 {
            let infeas: f64 = (0..self.mat.m)
                .filter(|&p| self.mat.is_artificial(self.basis[p] as usize))
                .map(|p| self.xb[p])
                .sum();
            if infeas > 1e-9 {
                // --- phase 1: minimise total artificial value -----------
                // (`run` computes fresh multipliers `y` on entry.)
                self.art_cost = 1.0;
                self.reset_devex();
                match self.run(cap) {
                    PhaseOutcome::Optimal => {}
                    // The phase-1 objective is bounded below by zero, so
                    // "unbounded" can only mean a numerically sick basis.
                    PhaseOutcome::Unbounded | PhaseOutcome::NumericalTrouble => {
                        self.flush_stats();
                        return None;
                    }
                }
                let infeas: f64 = (0..self.mat.m)
                    .filter(|&p| self.mat.is_artificial(self.basis[p] as usize))
                    .map(|p| self.xb[p].max(0.0))
                    .sum();
                if infeas > 1e-6 {
                    self.flush_stats();
                    return Some(LpSolution {
                        status: LpStatus::Infeasible,
                        objective: f64::INFINITY,
                        x: Vec::new(),
                        iterations: self.iterations,
                    });
                }
            }
            if self.drive_out_artificials().is_err() {
                self.flush_stats();
                return None;
            }
        } else {
            // Pure slack crash: freeze the (unused) artificials outright.
            for i in 0..self.mat.m {
                let art = self.mat.ncols + i;
                self.lower[art] = 0.0;
                self.upper[art] = 0.0;
            }
        }

        // --- phase 2 ----------------------------------------------------
        self.art_cost = 0.0;
        self.costs[..self.mat.nstruct].copy_from_slice(&lp.objective);
        for c in self.costs[self.mat.nstruct..].iter_mut() {
            *c = 0.0;
        }
        self.reset_devex();
        self.cursor = 0;
        self.cands.clear();
        let out = match self.run(cap) {
            PhaseOutcome::Optimal => self.finish(lp, lo, hi),
            PhaseOutcome::Unbounded => Some(LpSolution::unbounded()),
            PhaseOutcome::NumericalTrouble => None,
        };
        self.flush_stats();
        out
    }

    // --- warm path ------------------------------------------------------

    /// Restore `snap` (O(m+n) copy + one refactorization), shift bounds to
    /// `[lo, hi]` and re-optimise. `None` on shape mismatch or numerical
    /// trouble; callers fall back to a cold solve.
    pub fn solve_warm(
        &mut self,
        lp: &LpProblem,
        snap: &SparseSnapshot,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        if snap.nstruct != lp.num_cols() || snap.m != lp.num_rows() {
            return None;
        }
        self.start_clock();
        self.ready = false;
        self.iterations = 0;
        self.cursor = 0;
        self.cands.clear();
        self.y_exact = false;
        self.mat.load(lp);
        if self.mat.ncols != snap.ncols || self.mat.num_slacks != snap.num_slacks {
            return None;
        }
        self.basis.clone_from(&snap.basis);
        self.state.clone_from(&snap.state);
        self.lower.clone_from(&snap.lower);
        self.upper.clone_from(&snap.upper);
        self.xb.clone_from(&snap.xb);
        self.z.clone_from(&snap.z);
        self.art_sign.clone_from(&snap.art_sign);
        self.rhs.clone_from(&snap.rhs);
        self.costs.clear();
        self.costs.resize(self.mat.ncols, 0.0);
        self.costs[..self.mat.nstruct].copy_from_slice(&lp.objective);
        self.art_cost = 0.0;
        let m = self.mat.m;
        self.wrow.reset(m);
        self.wpos.reset(m);
        self.wrow2.reset(m);
        self.wpos2.reset(m);
        self.wstep.reset(m);
        self.alpha.reset(self.mat.ncols);
        self.reset_devex();
        if self.refactor_now().is_err() {
            self.flush_stats();
            return None;
        }
        self.apply_bound_deltas(lo, hi);
        let out = self.reoptimize(lp, lo, hi, opts);
        self.flush_stats();
        out
    }

    /// Re-optimise the currently loaded problem in place after a bound
    /// shift — the dive-chain fast path. The factorization and its eta
    /// file carry over untouched: the chain pays FTRAN/BTRANs and a few
    /// dual pivots, not a refactorization.
    pub fn resolve_with_bounds(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        if !self.ready || self.mat.nstruct != lp.num_cols() || self.mat.m != lp.num_rows() {
            return None;
        }
        self.start_clock();
        self.ready = false;
        self.iterations = 0;
        self.cursor = 0;
        self.cands.clear();
        self.y_exact = false;
        self.apply_bound_deltas(lo, hi);
        let out = self.reoptimize(lp, lo, hi, opts);
        self.flush_stats();
        out
    }

    /// Re-optimise in place after the caller edited row right-hand sides
    /// (and possibly bounds) of the loaded problem. Contract: the
    /// coefficient matrix and objective of `lp` are unchanged since the
    /// last successful solve — only `rhs` and the `[lo, hi]` box may
    /// differ. The basis, LU factorization and eta file carry over
    /// untouched (an RHS change moves `x_B = B⁻¹b`, not `B`); the reduced
    /// costs from the last `finish` stay exact because they depend only on
    /// `A` and `c`. One `recompute_xb` FTRAN refreshes the basic values,
    /// then the usual dual/primal tail restores optimality.
    pub fn resolve_with_rhs(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        if !self.ready || self.mat.nstruct != lp.num_cols() || self.mat.m != lp.num_rows() {
            return None;
        }
        self.start_clock();
        self.ready = false;
        self.iterations = 0;
        self.cursor = 0;
        self.cands.clear();
        self.y_exact = false;
        self.rhs.clear();
        self.rhs.extend(lp.rows.iter().map(|r| r.rhs));
        self.apply_bound_deltas(lo, hi);
        self.recompute_xb();
        let out = self.reoptimize(lp, lo, hi, opts);
        self.flush_stats();
        out
    }

    /// Re-optimise in place after the caller *appended* structural columns
    /// to the loaded problem (existing columns, rows and row comparisons
    /// unchanged; `rhs`, objective entries of old columns and the box may
    /// also have moved). The basis matrix `B` is untouched — appended
    /// columns enter non-basic at their lower bound — so the LU
    /// factorization and eta file stay valid; only the basis *indices*
    /// are renumbered (slacks and artificials shift up by the number of
    /// new columns). Returns `None` (caller falls back to a cold solve)
    /// on shape mismatch.
    pub fn resolve_with_new_cols(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        let n0 = self.mat.nstruct;
        let (old_slacks, old_m) = (self.mat.num_slacks, self.mat.m);
        if !self.ready || lp.num_cols() < n0 || old_m != lp.num_rows() {
            return None;
        }
        self.start_clock();
        self.ready = false;
        let k = lp.num_cols() - n0;
        self.mat.load(lp);
        if self.mat.num_slacks != old_slacks || self.mat.m != old_m {
            return None; // row structure changed under us: not an append
        }
        // Renumber the basis: structural indices `< n0` are stable, slacks
        // and artificials both shift by `k` (artificial `i` lives at
        // `ncols + i` and `ncols` grew by exactly `k`).
        for b in &mut self.basis {
            if *b as usize >= n0 {
                *b += k as u32;
            }
        }
        self.rebind_loaded(lp, lo, hi, |state| {
            state.splice(n0..n0, std::iter::repeat_n(VState::AtLower, k));
        });
        let out = self.reoptimize(lp, lo, hi, opts);
        self.flush_stats();
        out
    }

    /// Re-optimise in place after the caller removed the *last* `k`
    /// structural columns of the loaded problem. Valid only when none of
    /// the removed columns is basic — a basic removal would change `B`
    /// itself, which is exactly the existing refactorization trigger, so
    /// the method returns `None` and the caller rebuilds cold. Non-basic
    /// removals leave `B` intact: the LU factorization and eta file carry
    /// over, basis indices past the removed range shift down.
    pub fn resolve_after_col_removal(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        let n0 = self.mat.nstruct;
        let n1 = lp.num_cols();
        let (old_slacks, old_m) = (self.mat.num_slacks, self.mat.m);
        if !self.ready || n1 > n0 || old_m != lp.num_rows() {
            return None;
        }
        let k = n0 - n1;
        if self.basis.iter().any(|&b| (n1..n0).contains(&(b as usize))) {
            return None; // a removed column is basic: refactorization case
        }
        self.start_clock();
        self.ready = false;
        self.mat.load(lp);
        if self.mat.num_slacks != old_slacks || self.mat.m != old_m {
            return None;
        }
        for b in &mut self.basis {
            if *b as usize >= n0 {
                *b -= k as u32;
            }
        }
        self.rebind_loaded(lp, lo, hi, |state| {
            state.drain(n1..n0);
        });
        let out = self.reoptimize(lp, lo, hi, opts);
        self.flush_stats();
        out
    }

    /// Shared tail of the column add/remove paths: after `self.mat` was
    /// reloaded and the basis renumbered, rebuild every per-column array
    /// for the new column count (the `reseat` closure splices the state
    /// vector so surviving columns keep their rest states), refresh `rhs`,
    /// and recompute `x_B` and exact reduced costs through the *existing*
    /// factorization — `B` did not change, so no refactorization.
    fn rebind_loaded(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        reseat: impl FnOnce(&mut Vec<VState>),
    ) {
        let (m, ncols, n) = (self.mat.m, self.mat.ncols, self.mat.nstruct);
        self.iterations = 0;
        self.cursor = 0;
        self.cands.clear();
        self.y_exact = false;
        reseat(&mut self.state);
        debug_assert_eq!(self.state.len(), self.mat.ntot());
        self.lower.clear();
        self.lower.extend_from_slice(lo);
        self.upper.clear();
        self.upper.extend_from_slice(hi);
        for _ in n..ncols {
            self.lower.push(0.0);
            self.upper.push(f64::INFINITY);
        }
        for _ in 0..m {
            // Artificials stay frozen at zero (post-phase-1 invariant).
            self.lower.push(0.0);
            self.upper.push(0.0);
        }
        // A column resting on an upper bound that is now infinite has no
        // finite resting value; re-seat it at its lower bound (mirrors
        // `apply_bound_deltas`).
        for j in 0..ncols {
            if matches!(self.state[j], VState::AtUpper) && !self.upper[j].is_finite() {
                self.state[j] = VState::AtLower;
            }
        }
        self.rhs.clear();
        self.rhs.extend(lp.rows.iter().map(|r| r.rhs));
        self.costs.clear();
        self.costs.resize(ncols, 0.0);
        self.costs[..n].copy_from_slice(&lp.objective);
        self.art_cost = 0.0;
        self.z.clear();
        self.z.resize(ncols, 0.0);
        self.alpha.reset(ncols);
        self.reset_devex();
        self.recompute_xb();
        self.recompute_z();
    }

    /// Move structural bounds to `[lo, hi]`; non-basic variables resting
    /// on a moved bound shift, and the basics absorb the combined effect
    /// through a single FTRAN.
    fn apply_bound_deltas(&mut self, lo: &[f64], hi: &[f64]) {
        self.wrow.clear();
        let mut any = false;
        for j in 0..self.mat.nstruct {
            let (ol, ou) = (self.lower[j], self.upper[j]);
            let (nl, nu) = (lo[j], hi[j]);
            if nl == ol && nu == ou {
                continue;
            }
            self.lower[j] = nl;
            self.upper[j] = nu;
            let delta = match self.state[j] {
                VState::Basic => continue,
                VState::AtLower => {
                    if nl != ol {
                        nl - ol
                    } else {
                        continue;
                    }
                }
                VState::AtUpper => {
                    if nu == ou {
                        continue;
                    }
                    if nu.is_finite() {
                        nu - ou
                    } else {
                        // Upper bound relaxed to infinity: re-seat at lower.
                        self.state[j] = VState::AtLower;
                        nl - ou
                    }
                }
            };
            if delta == 0.0 || !delta.is_finite() {
                continue;
            }
            any = true;
            let (rows, vals) = self.mat.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                self.wrow.add(i as usize, v * delta);
            }
        }
        if any {
            let started = self.clock.start();
            self.wpos.clear();
            self.factor.ftran(&mut self.wrow, &mut self.wpos);
            self.clock.stop(Kernel::Ftran, started);
            self.factor.stats.ftran_nnz += self.wpos.nnz() as u64;
            for (p, fp) in self.wpos.iter() {
                if fp != 0.0 {
                    self.xb[p] -= fp;
                }
            }
        }
    }

    /// Shared warm tail: dual clean-up, primal polish, extraction.
    fn reoptimize(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &crate::simplex::SimplexOptions,
    ) -> Option<LpSolution> {
        self.cand_cap = opts.candidate_cap.min(SPARSE_CAND_CAP);
        self.refactor_interval = opts.refactor_interval;
        let cap = opts.pivot_cap(self.mat.m, self.mat.ncols + self.mat.m);
        match self.dual_run(cap) {
            DualOutcome::PrimalFeasible => {}
            DualOutcome::Infeasible => {
                // Basis and factorization are still coherent: further warm
                // restarts from this state remain valid.
                self.ready = true;
                return Some(LpSolution {
                    status: LpStatus::Infeasible,
                    objective: f64::INFINITY,
                    x: Vec::new(),
                    iterations: self.iterations,
                });
            }
            DualOutcome::NumericalTrouble => return None,
        }
        match self.run(cap) {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => return Some(LpSolution::unbounded()),
            PhaseOutcome::NumericalTrouble => return None,
        }
        self.finish(lp, lo, hi)
    }

    /// Extraction + feasibility guard, shared by cold and warm tails.
    fn finish(&mut self, lp: &LpProblem, lo: &[f64], hi: &[f64]) -> Option<LpSolution> {
        // The primal leaves `z` stale (it prices from `y`); recompute it
        // exactly once here so vertex reports, snapshots and follow-up
        // dual runs all start from exact reduced costs.
        self.recompute_z();
        if self.xb.iter().any(|v| !v.is_finite()) || self.z.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let n = self.mat.nstruct;
        let mut x = vec![0.0; n];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = match self.state[j] {
                VState::AtLower => self.lower[j],
                VState::AtUpper => self.upper[j],
                VState::Basic => 0.0,
            };
        }
        for p in 0..self.mat.m {
            let j = self.basis[p] as usize;
            if j < n {
                x[j] = self.xb[p];
            }
        }
        if lp.max_violation_with_bounds(&x, lo, hi) > 1e-5 {
            return None;
        }
        let objective = lp.objective_at(&x);
        self.ready = true;
        Some(LpSolution {
            status: LpStatus::Optimal,
            objective,
            x,
            iterations: self.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::RowCmp;
    use crate::simplex::{SimplexMode, SimplexOptions};

    fn opts() -> SimplexOptions {
        SimplexOptions {
            mode: SimplexMode::Sparse,
            ..SimplexOptions::default()
        }
    }

    fn solve(core: &mut RevisedCore, lp: &LpProblem) -> LpSolution {
        core.try_solve_cold(lp, &lp.lower, &lp.upper, &opts())
            .expect("sparse solve must not hit numerical trouble on these")
    }

    #[test]
    fn simple_bounded_max() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-3.0, -2.0];
        lp.upper[0] = 2.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let mut core = RevisedCore::default();
        let sol = solve(&mut core, &lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 10.0).abs() < 1e-7, "obj={}", sol.objective);
    }

    #[test]
    fn bound_flip_and_crash_skip_phase1() {
        // Pure Le rows with positive rhs: the slack crash must seat every
        // row; both variables flip to their upper bound.
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-1.0, -1.0];
        lp.upper = vec![1.0, 1.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 10.0);
        let mut core = RevisedCore::default();
        let sol = solve(&mut core, &lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 2.0).abs() < 1e-7);
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_ge_and_infeasible() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![2.0, 3.0];
        lp.upper[1] = 10.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Eq, 5.0);
        lp.push_row(vec![(0, 1.0)], RowCmp::Ge, 1.0);
        let mut core = RevisedCore::default();
        let sol = solve(&mut core, &lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 10.0).abs() < 1e-7);

        let mut bad = LpProblem::with_columns(1);
        bad.upper[0] = 1.0;
        bad.push_row(vec![(0, 1.0)], RowCmp::Ge, 2.0);
        assert_eq!(solve(&mut core, &bad).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-1.0, 0.0];
        lp.push_row(vec![(1, 1.0)], RowCmp::Le, 3.0);
        let mut core = RevisedCore::default();
        assert_eq!(solve(&mut core, &lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn warm_restart_and_resolve_chain() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-3.0, -2.0];
        lp.upper[0] = 2.0;
        lp.upper[1] = 10.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let mut core = RevisedCore::default();
        let cold = solve(&mut core, &lp);
        assert_eq!(cold.status, LpStatus::Optimal);
        let snap = core.snapshot().expect("solved core must snapshot");

        let lo = lp.lower.clone();
        let mut hi = lp.upper.clone();
        hi[0] = 1.0;
        let warm = core
            .solve_warm(&lp, &snap, &lo, &hi, &opts())
            .expect("warm restart on a plain bound shift");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective + 9.0).abs() < 1e-7,
            "obj={}",
            warm.objective
        );
        assert!((warm.x[0] - 1.0).abs() < 1e-7);

        // Chain another tightening in place (no snapshot restore).
        let mut hi2 = hi.clone();
        hi2[1] = 2.5;
        let chained = core
            .resolve_with_bounds(&lp, &lo, &hi2, &opts())
            .expect("in-place re-solve");
        assert_eq!(chained.status, LpStatus::Optimal);
        assert!(
            (chained.objective + 8.0).abs() < 1e-7,
            "obj={}",
            chained.objective
        );
    }

    #[test]
    fn warm_restart_detects_infeasible_child() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 1.0];
        lp.upper = vec![2.0, 2.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 3.0);
        let mut core = RevisedCore::default();
        let cold = solve(&mut core, &lp);
        assert_eq!(cold.status, LpStatus::Optimal);
        let snap = core.snapshot().unwrap();
        let lo = lp.lower.clone();
        let hi = vec![0.5, 0.5];
        let warm = core
            .solve_warm(&lp, &snap, &lo, &hi, &opts())
            .expect("dual simplex must certify infeasibility");
        assert_eq!(warm.status, LpStatus::Infeasible);
        // The infeasible state stays warm-startable.
        assert!(core.ready);
    }

    #[test]
    fn forced_refactorization_is_stable() {
        // A chain of pivots under refactor_interval=2 exercises the
        // eta-file rebuild path mid-solve; results must match defaults.
        let mut lp = LpProblem::with_columns(4);
        lp.objective = vec![1.0, -2.0, 3.0, -1.0];
        lp.upper = vec![10.0, 4.0, f64::INFINITY, 6.0];
        lp.push_row(vec![(0, 1.0), (1, 2.0), (2, 1.0)], RowCmp::Le, 14.0);
        lp.push_row(vec![(1, 1.0), (3, 1.0)], RowCmp::Ge, 3.0);
        lp.push_row(vec![(0, 1.0), (2, -1.0), (3, 2.0)], RowCmp::Eq, 5.0);
        let tight = SimplexOptions {
            refactor_interval: 2,
            ..opts()
        };
        let mut core = RevisedCore::default();
        let a = core
            .try_solve_cold(&lp, &lp.lower, &lp.upper, &tight)
            .unwrap();
        let b = core
            .try_solve_cold(&lp, &lp.lower, &lp.upper, &opts())
            .unwrap();
        assert_eq!(a.status, LpStatus::Optimal);
        assert!((a.objective - b.objective).abs() < 1e-9);
    }

    #[test]
    fn degenerate_terminates() {
        let mut lp = LpProblem::with_columns(3);
        lp.objective = vec![-0.75, 150.0, -0.02];
        lp.push_row(vec![(0, 0.25), (1, -60.0), (2, -0.04)], RowCmp::Le, 0.0);
        lp.push_row(vec![(0, 0.5), (1, -90.0), (2, -0.02)], RowCmp::Le, 0.0);
        lp.push_row(vec![(2, 1.0)], RowCmp::Le, 1.0);
        let mut core = RevisedCore::default();
        let sol = solve(&mut core, &lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 0.05).abs() < 1e-6, "obj={}", sol.objective);
    }
}
