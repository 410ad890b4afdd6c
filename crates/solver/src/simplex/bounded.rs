//! Two-phase primal simplex with native variable bounds and warm restarts.
//!
//! This is the production LP engine. Unlike the [`reference`](crate::simplex::reference)
//! solver it keeps `l <= x <= u` out of the constraint matrix: non-basic
//! variables rest at one of their bounds, and the ratio test allows *bound
//! flips* (a non-basic variable travelling from one bound to the other
//! without a basis change). On BIRP's per-slot scheduling LPs this shrinks
//! the tableau by ~4x per dimension, i.e. ~16x less work per pivot.
//!
//! The engine is a persistent object ([`SimplexEngine`]): its tableau,
//! basis and variable-state buffers survive across solves, so a worker
//! thread solving thousands of branch-and-bound node LPs pays for its
//! allocations once ([`with_engine`] hands out a thread-local instance).
//! After a successful solve the full engine state can be captured as an
//! [`EngineSnapshot`] and later *warm-restored* with changed variable
//! bounds ([`SimplexEngine::solve_warm`]): since branching only shifts
//! bounds, the constraint matrix — and therefore `B⁻¹A` — is unchanged, the
//! parent's optimal basis stays dual-feasible, and a short dual-simplex
//! clean-up re-optimises in a few pivots instead of a full two-phase solve.
//!
//! Pricing: candidate-list partial pricing — each pivot re-scores a small
//! list of previously attractive columns and only falls back to a sectional
//! scan (round-robin cursor over the column range) when the list runs dry.
//! Optimality is still only declared after a full wrap finds no eligible
//! column. After a stall the engine switches to Bland's rule (full scan,
//! lowest index), which guarantees finite termination. If the tableau ever
//! turns non-finite (pathological scaling), the solver transparently falls
//! back to the slow-but-hardy reference engine.

use std::cell::RefCell;

use birp_telemetry as telemetry;

use crate::lp::{LpProblem, LpSolution, LpStatus, RowCmp};
use crate::simplex::revised::{RevisedCore, SparseSnapshot};
use crate::simplex::{reference, VState, COST_TOL, PIVOT_TOL};

/// Primal feasibility tolerance for warm-restore bound violations.
const WARM_FEAS_TOL: f64 = 1e-7;

/// Default upper bound on the candidate list kept by partial pricing.
const CAND_MAX: usize = 24;

/// Above this `m × ncols` work product, `SimplexMode::Auto` routes a cold
/// solve to the sparse revised core; at or below it the dense tableau core
/// wins on constant factors (the whole tableau fits in L2) and keeps its
/// PR 4 golden traces bitwise identical.
const AUTO_DENSE_CUTOVER: usize = 8192;

/// Which simplex core executes a solve.
///
/// `Auto` picks per problem by the `m × ncols` work product (see
/// [`AUTO_DENSE_CUTOVER`]); warm restarts follow the core that produced the
/// snapshot. The dense tableau core remains fully supported as the
/// differential anchor for the sparse rewrite: force it with `Dense`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimplexMode {
    /// Choose per problem size (default).
    #[default]
    Auto,
    /// Always the dense tableau core.
    Dense,
    /// Always the sparse revised core (still falls back to dense, then
    /// reference, on numerical trouble).
    Sparse,
}

/// Tunables for the bounded-variable engine.
///
/// The pivot cap bounds the total simplex iterations of one solve
/// (`pivot_cap_base + pivot_cap_per_dim * (m + ncols)`); hitting it is
/// reported through the `solver.pivot_cap_hit` telemetry counter/event and
/// makes the solve fall back to the reference engine instead of silently
/// spinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimplexOptions {
    /// Flat component of the pivot cap.
    pub pivot_cap_base: usize,
    /// Per-dimension component of the pivot cap (multiplies `m + ncols`).
    pub pivot_cap_per_dim: usize,
    /// Partial-pricing candidate-list size. `1` degenerates to
    /// single-candidate sectional pricing, large values approach full
    /// Dantzig pricing; either extreme must produce the same optimum, which
    /// the conformance suite exercises. The sparse core caps it further
    /// (see `SPARSE_CAND_CAP` in `revised.rs`).
    pub candidate_cap: usize,
    /// Which core runs the solve (see [`SimplexMode`]).
    pub mode: SimplexMode,
    /// Sparse core: scheduled refactorization cadence — rebuild the LU
    /// after this many eta updates (fill-in and instability can trigger
    /// one sooner). Tiny values are a test hook for the rebuild path.
    pub refactor_interval: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            pivot_cap_base: 200_000,
            pivot_cap_per_dim: 100,
            candidate_cap: CAND_MAX,
            mode: SimplexMode::default(),
            refactor_interval: 64,
        }
    }
}

impl SimplexOptions {
    /// Iteration cap for a problem with `m` rows and `ncols` tableau columns.
    #[inline]
    pub fn pivot_cap(&self, m: usize, ncols: usize) -> usize {
        self.pivot_cap_base + self.pivot_cap_per_dim * (m + ncols)
    }
}

/// Frozen engine state captured at a solved vertex, sufficient to restore
/// the solve in O(copy) and re-optimise after bound shifts. Opaque outside
/// the engine; obtain one with [`SimplexEngine::snapshot`]. Wraps either
/// core's state: a dense tableau copy, or the sparse core's O(m+n) basis
/// record (which refactorizes on restore). Warm restarts always resume on
/// the core that produced the snapshot.
#[derive(Debug, Clone)]
pub struct EngineSnapshot(SnapKind);

#[derive(Debug, Clone)]
enum SnapKind {
    Dense(DenseSnapshot),
    Sparse(SparseSnapshot),
}

#[derive(Debug, Clone)]
struct DenseSnapshot {
    d: Vec<f64>,
    xb: Vec<f64>,
    basis: Vec<usize>,
    state: Vec<VState>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    z: Vec<f64>,
    m: usize,
    ncols: usize,
    nstruct: usize,
    num_slacks: usize,
}

impl EngineSnapshot {
    /// Approximate heap footprint, used by branch and bound to budget how
    /// many node snapshots may live on the frontier at once.
    pub fn bytes(&self) -> usize {
        match &self.0 {
            SnapKind::Dense(s) => {
                (s.d.capacity() + s.xb.capacity() + s.lower.capacity() + s.upper.capacity())
                    * std::mem::size_of::<f64>()
                    + s.z.capacity() * std::mem::size_of::<f64>()
                    + s.basis.capacity() * std::mem::size_of::<usize>()
                    + s.state.capacity()
            }
            SnapKind::Sparse(s) => s.bytes(),
        }
    }

    /// Estimate the snapshot footprint for `lp` without solving it, under
    /// the engine-selection policy of `opts`.
    pub fn estimate_bytes(lp: &LpProblem, opts: &SimplexOptions) -> usize {
        let m = lp.num_rows();
        let n = lp.num_cols();
        let num_slacks = lp.rows.iter().filter(|r| r.cmp != RowCmp::Eq).count();
        if wants_sparse(opts.mode, m, n + num_slacks) {
            SparseSnapshot::estimate_bytes(m, n, num_slacks)
        } else {
            // Post-compaction column count: structural + slacks + a handful
            // of surviving artificials (bounded by m, usually ~0).
            let ncols = n + num_slacks;
            (m * ncols + 4 * ncols + 2 * m) * std::mem::size_of::<f64>()
        }
    }
}

/// Engine-selection policy: which core should a cold solve of an
/// `m × ncols` problem use?
#[inline]
fn wants_sparse(mode: SimplexMode, m: usize, ncols: usize) -> bool {
    match mode {
        SimplexMode::Dense => false,
        SimplexMode::Sparse => true,
        SimplexMode::Auto => m * ncols > AUTO_DENSE_CUTOVER,
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    NumericalTrouble,
}

enum DualOutcome {
    PrimalFeasible,
    Infeasible,
    NumericalTrouble,
}

/// Persistent bounded-variable simplex engine.
///
/// All buffers are reused across solves; create one per worker thread (or
/// use [`with_engine`]) and call [`solve_cold`](Self::solve_cold) /
/// [`solve_warm`](Self::solve_warm) repeatedly.
#[derive(Debug, Default)]
pub struct SimplexEngine {
    /// Dense `m x ncols` matrix `B^{-1} A`, row-major.
    d: Vec<f64>,
    /// Values of the basic variables, one per row.
    xb: Vec<f64>,
    /// Basic variable per row.
    basis: Vec<usize>,
    state: Vec<VState>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Reduced costs for the current phase.
    z: Vec<f64>,
    /// Cost vector staging area for [`reset_costs`](Self::reset_costs).
    costs: Vec<f64>,
    /// Pivot-row copy reused by [`pivot`](Self::pivot).
    scratch: Vec<f64>,
    /// Full-width solution buffer reused by [`extract`](Self::extract) —
    /// dive chains call it once per re-solve, so a fresh `vec![0.0; ncols]`
    /// per call shows up as allocator traffic.
    xfull: Vec<f64>,
    /// Surviving-column list and old→new index map reused by
    /// [`compact`](Self::compact).
    keep: Vec<usize>,
    remap: Vec<usize>,
    /// Compaction staging for the tableau (swapped with `d`).
    dscratch: Vec<f64>,
    /// Partial-pricing candidate list and round-robin scan cursor.
    cands: Vec<usize>,
    cursor: usize,
    /// Candidate-list cap for this solve (from [`SimplexOptions`]).
    cand_cap: usize,
    m: usize,
    ncols: usize,
    /// Structural column count (`lp.num_cols()`).
    nstruct: usize,
    num_slacks: usize,
    iterations: usize,
    /// True iff the buffers hold a coherent post-solve state (optimal, or a
    /// dual-feasible infeasibility certificate), i.e. a snapshot taken now
    /// can seed warm restarts.
    ready: bool,
    /// Sparse revised core; shares this engine's lifetime so its matrix,
    /// factorization and work vectors are reused across solves too.
    sparse: RevisedCore,
    /// Which core produced the most recent solve (drives `snapshot()`,
    /// `resolve_with_bounds` and `last_iterations` dispatch).
    sparse_active: bool,
}

impl SimplexEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Simplex iterations spent by the most recent solve (both phases, or
    /// dual + primal clean-up for warm solves).
    pub fn last_iterations(&self) -> usize {
        if self.sparse_active {
            self.sparse.last_iterations()
        } else {
            self.iterations
        }
    }

    /// Test support: which core produced the last solve, plus its
    /// structural-column rest states (-1 lower / 0 basic / +1 upper) and
    /// reduced costs. Used by the sparse-vs-dense parity suite to check
    /// each engine's dual certificate; not a stable API.
    #[doc(hidden)]
    pub fn vertex_report(&self) -> Option<(bool, Vec<i8>, Vec<f64>)> {
        if self.sparse_active {
            return self.sparse.vertex_report().map(|(s, z)| (true, s, z));
        }
        if !self.ready {
            return None;
        }
        let states = self.state[..self.nstruct]
            .iter()
            .map(|s| match s {
                VState::Basic => 0i8,
                VState::AtLower => -1,
                VState::AtUpper => 1,
            })
            .collect();
        Some((false, states, self.z[..self.nstruct].to_vec()))
    }

    /// Capture the current optimal state for later warm restarts. Returns
    /// `None` unless the engine just finished a successful solve (a
    /// reference fallback or failed solve leaves no usable state).
    pub fn snapshot(&self) -> Option<EngineSnapshot> {
        if self.sparse_active {
            return self
                .sparse
                .snapshot()
                .map(|s| EngineSnapshot(SnapKind::Sparse(s)));
        }
        if !self.ready {
            return None;
        }
        Some(EngineSnapshot(SnapKind::Dense(DenseSnapshot {
            d: self.d.clone(),
            xb: self.xb.clone(),
            basis: self.basis.clone(),
            state: self.state.clone(),
            lower: self.lower.clone(),
            upper: self.upper.clone(),
            z: self.z.clone(),
            m: self.m,
            ncols: self.ncols,
            nstruct: self.nstruct,
            num_slacks: self.num_slacks,
        })))
    }

    // --- shared pivoting machinery ------------------------------------

    /// Recompute reduced costs `z = c - c_B B^{-1} A` from `self.costs`.
    fn reset_costs(&mut self) {
        let n = self.ncols;
        self.z.copy_from_slice(&self.costs);
        for i in 0..self.m {
            let cb = self.costs[self.basis[i]];
            if cb != 0.0 {
                let row = &self.d[i * n..(i + 1) * n];
                for (zj, dj) in self.z.iter_mut().zip(row) {
                    *zj -= cb * dj;
                }
            }
        }
    }

    /// Perform the basis change `basis[r] <- q`, assuming the entering
    /// variable's new value has already been written into `xb[r]`.
    fn pivot(&mut self, r: usize, q: usize) {
        let n = self.ncols;
        let piv = self.d[r * n + q];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        // Normalise the pivot row.
        {
            let row = &mut self.d[r * n..(r + 1) * n];
            for v in row.iter_mut() {
                *v *= inv;
            }
            row[q] = 1.0;
        }
        // Eliminate the pivot column from every other row and from z.
        // Split borrows: copy the pivot row once into the reusable scratch
        // buffer (m is a few hundred, the copy is cheap compared to the
        // O(m n) elimination).
        let mut pivot_row = std::mem::take(&mut self.scratch);
        pivot_row.clear();
        pivot_row.extend_from_slice(&self.d[r * n..(r + 1) * n]);
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let factor = self.d[i * n + q];
            if factor != 0.0 {
                let row = &mut self.d[i * n..(i + 1) * n];
                for (v, p) in row.iter_mut().zip(&pivot_row) {
                    *v -= factor * p;
                }
                row[q] = 0.0;
            }
        }
        let zq = self.z[q];
        if zq != 0.0 {
            for (zj, p) in self.z.iter_mut().zip(&pivot_row) {
                *zj -= zq * p;
            }
            self.z[q] = 0.0;
        }
        self.scratch = pivot_row;
        self.basis[r] = q;
    }

    /// Direction a non-basic column may profitably move in, if any.
    #[inline]
    fn eligible_delta(&self, j: usize) -> Option<f64> {
        if self.upper[j] - self.lower[j] < PIVOT_TOL {
            return None;
        }
        match self.state[j] {
            VState::Basic => None,
            VState::AtLower => (self.z[j] < -COST_TOL).then_some(1.0),
            VState::AtUpper => (self.z[j] > COST_TOL).then_some(-1.0),
        }
    }

    /// Choose the entering column.
    ///
    /// Normal mode: candidate-list partial pricing — re-score the retained
    /// candidates, and only when none remain eligible refill the list by a
    /// sectional scan from the round-robin cursor. A full wrap with no
    /// eligible column proves optimality. Bland mode: full scan, lowest
    /// eligible index (anti-cycling).
    fn price(&mut self, bland: bool) -> Option<(usize, f64)> {
        let n = self.ncols;
        if bland {
            self.cands.clear();
            return (0..n).find_map(|j| self.eligible_delta(j).map(|d| (j, d)));
        }
        let mut cands = std::mem::take(&mut self.cands);
        cands.retain(|&j| self.eligible_delta(j).is_some());
        if cands.is_empty() {
            let section = (n / 8).max(64).min(n).max(1);
            let start = self.cursor.min(n.saturating_sub(1));
            let mut scanned = 0usize;
            while scanned < n {
                let mut j = start + scanned;
                if j >= n {
                    j -= n;
                }
                scanned += 1;
                if self.eligible_delta(j).is_some() {
                    cands.push(j);
                    if cands.len() >= self.cand_cap.max(1) {
                        break;
                    }
                }
                // Stop at a section boundary once something was found.
                if !cands.is_empty() && scanned.is_multiple_of(section) {
                    break;
                }
            }
            self.cursor = (start + scanned) % n.max(1);
        }
        // Dantzig among the candidates (ties -> earliest listed).
        let mut best: Option<(usize, f64, f64)> = None;
        for &j in &cands {
            if let Some(delta) = self.eligible_delta(j) {
                let score = self.z[j].abs();
                match best {
                    Some((_, s, _)) if s >= score => {}
                    _ => best = Some((j, score, delta)),
                }
            }
        }
        self.cands = cands;
        best.map(|(j, _, d)| (j, d))
    }

    fn note_cap_hit(&self, cap: usize, phase: &'static str) {
        telemetry::counter("solver.pivot_cap_hit", 1);
        if telemetry::enabled() {
            telemetry::event(
                telemetry::Level::Warn,
                "solver.pivot_cap_hit",
                &[
                    ("phase", phase.into()),
                    ("m", (self.m as u64).into()),
                    ("ncols", (self.ncols as u64).into()),
                    ("cap", (cap as u64).into()),
                ],
            );
        }
    }

    /// Run one primal simplex phase to optimality for the already-loaded `z`.
    fn run(&mut self, cap: usize) -> PhaseOutcome {
        let n = self.ncols;
        let mut since_improve = 0usize;
        let stall_limit = 2 * (self.m + n);
        loop {
            self.iterations += 1;
            if self.iterations > cap {
                self.note_cap_hit(cap, "primal");
                return PhaseOutcome::NumericalTrouble;
            }
            let bland = since_improve > stall_limit;

            // --- choose entering column -----------------------------------
            let Some((q, delta)) = self.price(bland) else {
                return PhaseOutcome::Optimal;
            };
            if !self.z[q].is_finite() {
                return PhaseOutcome::NumericalTrouble;
            }

            // --- ratio test ------------------------------------------------
            // Moving x_q by `delta * t`, basic x_B(i) moves by `-alpha_i t`
            // where alpha_i = delta * d[i][q].
            let mut t = self.upper[q] - self.lower[q]; // bound-flip distance
            let mut leave: Option<(usize, VState)> = None; // (row, bound the leaver hits)
            for i in 0..self.m {
                let alpha = delta * self.d[i * n + q];
                let bi = self.basis[i];
                let (limit, hits) = if alpha > PIVOT_TOL {
                    (
                        ((self.xb[i] - self.lower[bi]) / alpha).max(0.0),
                        VState::AtLower,
                    )
                } else if alpha < -PIVOT_TOL {
                    if self.upper[bi].is_finite() {
                        (
                            ((self.upper[bi] - self.xb[i]) / -alpha).max(0.0),
                            VState::AtUpper,
                        )
                    } else {
                        continue;
                    }
                } else {
                    continue;
                };
                // Strict `<` with Bland-style lowest-variable tie-break keeps
                // the leaving choice deterministic and cycle-free.
                let better = match leave {
                    None => limit < t,
                    Some((li, _)) => {
                        limit < t - PIVOT_TOL || (limit < t + PIVOT_TOL && bi < self.basis[li])
                    }
                };
                if better {
                    t = limit.min(t);
                    leave = Some((i, hits));
                }
            }

            if t.is_infinite() {
                return PhaseOutcome::Unbounded;
            }
            if !t.is_finite() {
                return PhaseOutcome::NumericalTrouble;
            }
            if self.z[q].abs() * t > COST_TOL {
                since_improve = 0;
            } else {
                since_improve += 1;
            }

            match leave {
                None => {
                    // Bound flip: x_q travels to its opposite bound.
                    let step = delta * t;
                    for i in 0..self.m {
                        let dq = self.d[i * n + q];
                        if dq != 0.0 {
                            self.xb[i] -= step * dq;
                        }
                    }
                    self.state[q] = if delta > 0.0 {
                        VState::AtUpper
                    } else {
                        VState::AtLower
                    };
                }
                Some((r, hits)) => {
                    let step = delta * t;
                    let new_val = if delta > 0.0 {
                        self.lower[q] + t
                    } else {
                        self.upper[q] - t
                    };
                    for i in 0..self.m {
                        if i == r {
                            continue;
                        }
                        let dq = self.d[i * n + q];
                        if dq != 0.0 {
                            self.xb[i] -= step * dq;
                        }
                    }
                    let leaving = self.basis[r];
                    self.state[leaving] = hits;
                    self.state[q] = VState::Basic;
                    self.xb[r] = new_val;
                    self.pivot(r, q);
                }
            }
        }
    }

    /// Dual simplex: restore primal feasibility after bound shifts while
    /// keeping dual feasibility. The entry invariant is a dual-feasible
    /// basis (`z` sign-correct for every non-basic state), which holds at
    /// any snapshot of an optimal solve; bound changes never disturb `z`.
    fn dual_run(&mut self, cap: usize) -> DualOutcome {
        let n = self.ncols;
        loop {
            // --- choose leaving row: most violated basic ------------------
            let mut leave: Option<(usize, f64, bool)> = None; // (row, viol, too_low)
            for i in 0..self.m {
                let bi = self.basis[i];
                let v = self.xb[i];
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
                        _ => leave = Some((i, viol, too_low)),
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

            // --- dual ratio test ------------------------------------------
            // The leaving basic must travel towards its violated bound; a
            // non-basic q is eligible if moving it in its own feasible
            // direction pushes xb[r] the right way. Among eligible columns
            // the smallest |z_q| / |a_rq| keeps every reduced cost
            // sign-correct after the pivot.
            let row = &self.d[r * n..(r + 1) * n];
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, delta)
            for (j, &a) in row.iter().enumerate() {
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
                if !ok {
                    continue;
                }
                let ratio = self.z[j].abs() / a.abs();
                let better = match best {
                    None => true,
                    Some((bj, br, _)) => ratio < br - 1e-12 || (ratio < br + 1e-12 && j < bj),
                };
                if better {
                    best = Some((j, ratio, delta));
                }
            }
            // No column can move xb[r] towards its bound: Farkas-style
            // certificate that the shifted box is infeasible.
            let Some((q, _, delta)) = best else {
                return DualOutcome::Infeasible;
            };

            // --- pivot -----------------------------------------------------
            let bi = self.basis[r];
            let target = if too_low {
                self.lower[bi]
            } else {
                self.upper[bi]
            };
            let a_rq = self.d[r * n + q];
            let t = (target - self.xb[r]) / (-a_rq * delta);
            if !t.is_finite() || t < 0.0 {
                return DualOutcome::NumericalTrouble;
            }
            let step = delta * t;
            for i in 0..self.m {
                if i == r {
                    continue;
                }
                let dq = self.d[i * n + q];
                if dq != 0.0 {
                    self.xb[i] -= step * dq;
                }
            }
            let entering_val = if delta > 0.0 {
                self.lower[q] + t
            } else {
                self.upper[q] - t
            };
            self.state[bi] = if too_low {
                VState::AtLower
            } else {
                VState::AtUpper
            };
            self.state[q] = VState::Basic;
            self.xb[r] = entering_val;
            self.pivot(r, q);
        }
    }

    /// Fill `self.xfull` with the dense solution vector for the current
    /// basis/state. Returns it as a slice; the buffer is engine-owned so
    /// dive chains don't allocate per re-solve.
    fn extract(&mut self) -> &[f64] {
        self.xfull.clear();
        self.xfull.resize(self.ncols, 0.0);
        for (j, xj) in self.xfull.iter_mut().enumerate() {
            *xj = match self.state[j] {
                VState::AtLower => self.lower[j],
                VState::AtUpper => self.upper[j],
                VState::Basic => 0.0, // filled below
            };
        }
        for i in 0..self.m {
            self.xfull[self.basis[i]] = self.xb[i];
        }
        &self.xfull
    }

    fn has_nan(&self) -> bool {
        self.xb.iter().any(|v| !v.is_finite()) || self.z.iter().any(|v| !v.is_finite())
    }

    // --- cold path ------------------------------------------------------

    /// Assemble the phase-1 tableau for `lp` restricted to the box
    /// `[lo, hi]` (structural bounds; rows are read in place, never cloned).
    fn load(&mut self, lp: &LpProblem, lo: &[f64], hi: &[f64]) {
        let n = lp.num_cols();
        let m = lp.num_rows();
        let num_slacks = lp.rows.iter().filter(|r| r.cmp != RowCmp::Eq).count();
        let ncols = n + num_slacks + m; // structural + slack + artificial
        self.m = m;
        self.ncols = ncols;
        self.nstruct = n;
        self.num_slacks = num_slacks;
        self.iterations = 0;
        self.ready = false;
        self.cursor = 0;
        self.cands.clear();

        self.lower.clear();
        self.lower.extend_from_slice(lo);
        self.upper.clear();
        self.upper.extend_from_slice(hi);
        for _ in 0..num_slacks + m {
            self.lower.push(0.0);
            self.upper.push(f64::INFINITY);
        }

        // Assemble D = B^{-1} A where B = diag(sign(resid)) over artificials:
        // row i of D is sign_i * (original row i), with residuals taken at
        // the all-at-lower-bound point.
        self.d.clear();
        self.d.resize(m * ncols, 0.0);
        self.state.clear();
        self.state.resize(ncols, VState::AtLower);
        self.basis.clear();
        self.xb.clear();
        let mut slack = n;
        for (i, row) in lp.rows.iter().enumerate() {
            let lhs_at_lower: f64 = row.coeffs.iter().map(|&(j, c)| c * lo[j]).sum();
            let resid = row.rhs - lhs_at_lower;
            let sign = if resid >= 0.0 { 1.0 } else { -1.0 };
            let drow = &mut self.d[i * ncols..(i + 1) * ncols];
            for &(j, c) in &row.coeffs {
                drow[j] = sign * c;
            }
            match row.cmp {
                RowCmp::Le => {
                    drow[slack] = sign;
                    slack += 1;
                }
                RowCmp::Ge => {
                    drow[slack] = -sign;
                    slack += 1;
                }
                RowCmp::Eq => {}
            }
            let art = n + num_slacks + i;
            drow[art] = 1.0; // sign * sign
            self.basis.push(art);
            self.state[art] = VState::Basic;
            self.xb.push(resid.abs());
        }
        self.z.clear();
        self.z.resize(ncols, 0.0);
    }

    /// Drop every non-basic artificial column after phase 1. Pivots cost
    /// O(m * ncols), so phase 2 runs ~(m/ncols) faster without them. Basic
    /// artificials (redundant rows) survive with frozen [0, 0] bounds.
    fn compact(&mut self) {
        let m = self.m;
        let mut keep = std::mem::take(&mut self.keep);
        keep.clear();
        keep.extend(
            (0..self.ncols)
                .filter(|&j| j < self.nstruct + self.num_slacks || self.state[j] == VState::Basic),
        );
        if keep.len() < self.ncols {
            self.remap.clear();
            self.remap.resize(self.ncols, usize::MAX);
            for (new_j, &old_j) in keep.iter().enumerate() {
                self.remap[old_j] = new_j;
            }
            let new_c = keep.len();
            // Compact the tableau into the staging buffer, then swap — the
            // two buffers ping-pong across solves, so after the first solve
            // neither is reallocated.
            self.dscratch.clear();
            self.dscratch.resize(m * new_c, 0.0);
            for i in 0..m {
                let src = &self.d[i * self.ncols..(i + 1) * self.ncols];
                let dst = &mut self.dscratch[i * new_c..(i + 1) * new_c];
                for (new_j, &old_j) in keep.iter().enumerate() {
                    dst[new_j] = src[old_j];
                }
            }
            std::mem::swap(&mut self.d, &mut self.dscratch);
            // `keep` is ascending, so bounds/state compact in place.
            for (new_j, &old_j) in keep.iter().enumerate() {
                self.lower[new_j] = self.lower[old_j];
                self.upper[new_j] = self.upper[old_j];
                self.state[new_j] = self.state[old_j];
            }
            self.lower.truncate(new_c);
            self.upper.truncate(new_c);
            self.state.truncate(new_c);
            for b in self.basis.iter_mut() {
                *b = self.remap[*b];
                debug_assert!(*b != usize::MAX, "basic column dropped");
            }
            self.z.clear();
            self.z.resize(new_c, 0.0);
            self.ncols = new_c;
        }
        self.keep = keep;
        // Freeze surviving artificials at zero for phase 2.
        for j in self.nstruct + self.num_slacks..self.ncols {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
        }
    }

    /// Full solve of `lp` over the box `[lo, hi]`, reusing this engine's
    /// buffers. Dispatches to the sparse revised core or the dense tableau
    /// core per `opts.mode`; a sparse numerical failure falls through to
    /// the dense core before giving up. `None` signals numerical trouble in
    /// every core; the caller decides the final (reference) fallback.
    pub fn try_solve_cold(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        for j in 0..lp.num_cols() {
            if !lo[j].is_finite() || hi[j] < lo[j] || hi[j].is_nan() {
                panic!("invalid bounds on column {j}; validate before solving");
            }
        }
        let num_slacks = lp.rows.iter().filter(|r| r.cmp != RowCmp::Eq).count();
        if wants_sparse(opts.mode, lp.num_rows(), lp.num_cols() + num_slacks) {
            if let Some(sol) = self.sparse.try_solve_cold(lp, lo, hi, opts) {
                telemetry::counter("solver.pricing_mode.devex", 1);
                self.sparse_active = true;
                self.ready = false;
                return Some(sol);
            }
            // Sick basis in the sparse core: the dense tableau core is the
            // first fallback tier (reference engine is the second).
            telemetry::counter("solver.sparse_fallback", 1);
        }
        self.sparse_active = false;
        self.sparse.ready = false;
        telemetry::counter("solver.pricing_mode.dantzig", 1);
        self.dense_try_solve_cold(lp, lo, hi, opts)
    }

    /// Dense-core two-phase solve (the pre-sparse production path, kept as
    /// the differential anchor and fallback tier).
    fn dense_try_solve_cold(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        self.load(lp, lo, hi);
        self.cand_cap = opts.candidate_cap;
        let n = self.nstruct;
        let num_slacks = self.num_slacks;
        let cap = opts.pivot_cap(self.m, self.ncols);

        // --- phase 1 -------------------------------------------------------
        self.costs.clear();
        self.costs.resize(self.ncols, 0.0);
        for c in self.costs.iter_mut().skip(n + num_slacks) {
            *c = 1.0;
        }
        self.reset_costs();
        match self.run(cap) {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => unreachable!("phase 1 objective is bounded below"),
            PhaseOutcome::NumericalTrouble => return None,
        }
        if self.has_nan() {
            return None;
        }
        let infeasibility: f64 = (0..self.m)
            .filter(|&i| self.basis[i] >= n + num_slacks)
            .map(|i| self.xb[i])
            .sum();
        if infeasibility > 1e-6 {
            return Some(LpSolution {
                status: LpStatus::Infeasible,
                objective: f64::INFINITY,
                x: Vec::new(),
                iterations: self.iterations,
            });
        }

        // Drive basic artificials out (degenerate pivots); redundant rows
        // keep their artificial basic at 0, pinned by the frozen bounds.
        for i in 0..self.m {
            if self.basis[i] >= n + num_slacks {
                let col = (0..n + num_slacks).find(|&j| {
                    self.state[j] != VState::Basic && self.d[i * self.ncols + j].abs() > 1e-7
                });
                if let Some(q) = col {
                    let leaving = self.basis[i];
                    // xb[i] is ~0; a degenerate pivot keeps values unchanged.
                    self.state[leaving] = VState::AtLower;
                    self.state[q] = VState::Basic;
                    self.pivot(i, q);
                }
            }
        }
        self.compact();

        // --- phase 2 -------------------------------------------------------
        self.costs.clear();
        self.costs.resize(self.ncols, 0.0);
        self.costs[..n].copy_from_slice(&lp.objective);
        self.reset_costs();
        self.cursor = 0;
        self.cands.clear();
        match self.run(cap) {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => return Some(LpSolution::unbounded()),
            PhaseOutcome::NumericalTrouble => return None,
        }
        self.finish(lp, lo, hi)
    }

    /// Shared tail of the cold and warm paths: extract, validate, report.
    fn finish(&mut self, lp: &LpProblem, lo: &[f64], hi: &[f64]) -> Option<LpSolution> {
        if self.has_nan() {
            return None;
        }
        let nstruct = self.nstruct;
        let x = self.extract()[..nstruct].to_vec();
        // Guard: numerical drift can leave tiny violations; if they are
        // large the fast path is not trustworthy and the caller falls back.
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

    /// Cold solve with fallback to the reference engine on numerical
    /// trouble (the rare emergency path).
    pub fn solve_cold(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> LpSolution {
        match self.try_solve_cold(lp, lo, hi, opts) {
            Some(sol) => sol,
            None => {
                self.ready = false;
                telemetry::counter("solver.reference_fallback", 1);
                let mut scoped = lp.clone();
                scoped.lower.clear();
                scoped.lower.extend_from_slice(lo);
                scoped.upper.clear();
                scoped.upper.extend_from_slice(hi);
                reference::solve(&scoped)
            }
        }
    }

    // --- warm path ------------------------------------------------------

    /// Re-solve `lp` over the shifted box `[lo, hi]` starting from `snap`,
    /// a snapshot of an optimal solve of the *same rows* under different
    /// bounds. Restores the tableau in O(copy), shifts the resting point of
    /// every non-basic variable whose bound moved, re-establishes primal
    /// feasibility with the dual simplex, and polishes with the primal.
    ///
    /// Returns `None` when the snapshot does not match the problem shape or
    /// the re-optimisation hits numerical trouble — callers then fall back
    /// to [`solve_cold`](Self::solve_cold). Never panics on a mismatched
    /// snapshot.
    pub fn solve_warm(
        &mut self,
        lp: &LpProblem,
        snap: &EngineSnapshot,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        match &snap.0 {
            SnapKind::Sparse(s) => {
                let sol = self.sparse.solve_warm(lp, s, lo, hi, opts);
                if sol.is_some() {
                    telemetry::counter("solver.pricing_mode.devex", 1);
                    self.sparse_active = true;
                    self.ready = false;
                } else {
                    self.sparse_active = false;
                }
                sol
            }
            SnapKind::Dense(s) => {
                self.sparse_active = false;
                self.sparse.ready = false;
                let sol = self.dense_solve_warm(lp, s, lo, hi, opts);
                if sol.is_some() {
                    telemetry::counter("solver.pricing_mode.dantzig", 1);
                }
                sol
            }
        }
    }

    fn dense_solve_warm(
        &mut self,
        lp: &LpProblem,
        snap: &DenseSnapshot,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        if snap.nstruct != lp.num_cols() || snap.m != lp.num_rows() {
            return None;
        }
        self.ready = false;
        self.m = snap.m;
        self.ncols = snap.ncols;
        self.nstruct = snap.nstruct;
        self.num_slacks = snap.num_slacks;
        self.iterations = 0;
        self.cursor = 0;
        self.cands.clear();
        self.d.clone_from(&snap.d);
        self.xb.clone_from(&snap.xb);
        self.basis.clone_from(&snap.basis);
        self.state.clone_from(&snap.state);
        self.lower.clone_from(&snap.lower);
        self.upper.clone_from(&snap.upper);
        self.z.clone_from(&snap.z);

        self.apply_bound_deltas(lo, hi);
        self.reoptimize(lp, lo, hi, opts)
    }

    /// Re-solve the *currently loaded* problem under a shifted box without
    /// going through a snapshot — the engine's own state after a successful
    /// solve is the warm-start source. This is what the diving heuristic
    /// chains: each fixing re-optimises in place in a handful of dual
    /// pivots.
    ///
    /// Returns `None` when the engine holds no usable state (fresh engine,
    /// prior fallback/numerical failure, or different problem shape).
    pub fn resolve_with_bounds(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        if self.sparse_active {
            // Dive-chain fast path on the sparse core: the factorization
            // and eta file carry over untouched.
            let sol = self.sparse.resolve_with_bounds(lp, lo, hi, opts);
            if sol.is_none() {
                self.sparse_active = false;
            }
            return sol;
        }
        if !self.ready || self.nstruct != lp.num_cols() || self.m != lp.num_rows() {
            return None;
        }
        self.ready = false;
        self.iterations = 0;
        self.cursor = 0;
        self.cands.clear();
        self.apply_bound_deltas(lo, hi);
        self.reoptimize(lp, lo, hi, opts)
    }

    /// Re-optimise the currently loaded problem after the caller edited
    /// row right-hand sides (demand-drift / budget-change deltas). Sparse
    /// core only: the dense tableau drops the `B⁻¹` columns of non-basic
    /// artificials at `compact()`, so it cannot absorb an RHS move —
    /// `None` sends the caller down the cold path.
    pub fn resolve_with_rhs(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        if !self.sparse_active {
            return None;
        }
        let sol = self.sparse.resolve_with_rhs(lp, lo, hi, opts);
        if sol.is_none() {
            self.sparse_active = false;
        }
        sol
    }

    /// Re-optimise after structural columns were appended to the loaded
    /// problem (catalog-change delta). Sparse core only; `None` on any
    /// shape surprise and the caller re-solves cold.
    pub fn resolve_with_new_cols(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        if !self.sparse_active {
            return None;
        }
        let sol = self.sparse.resolve_with_new_cols(lp, lo, hi, opts);
        if sol.is_none() {
            self.sparse_active = false;
        }
        sol
    }

    /// Re-optimise after the last structural columns were removed from the
    /// loaded problem (catalog-change delta). Sparse core only; refuses —
    /// returning `None`, the existing refactorization trigger — when a
    /// removed column sits in the basis.
    pub fn resolve_after_col_removal(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        if !self.sparse_active {
            return None;
        }
        let sol = self.sparse.resolve_after_col_removal(lp, lo, hi, opts);
        if sol.is_none() {
            self.sparse_active = false;
        }
        sol
    }

    /// Move the structural bounds to `[lo, hi]`, shifting the resting value
    /// of every non-basic variable whose active bound moved. Basic
    /// variables only need the bound arrays updated (violations are the
    /// dual simplex's job); non-basic variables rest *at* a bound, so a
    /// moved bound shifts their value and the basic values absorb the
    /// difference.
    fn apply_bound_deltas(&mut self, lo: &[f64], hi: &[f64]) {
        for j in 0..self.nstruct {
            let (ol, ou) = (self.lower[j], self.upper[j]);
            let (nl, nu) = (lo[j], hi[j]);
            if nl == ol && nu == ou {
                continue;
            }
            self.lower[j] = nl;
            self.upper[j] = nu;
            match self.state[j] {
                VState::Basic => {}
                VState::AtLower => {
                    if nl != ol {
                        self.shift_nonbasic(j, nl - ol);
                    }
                }
                VState::AtUpper => {
                    if nu != ou {
                        if nu.is_finite() {
                            self.shift_nonbasic(j, nu - ou);
                        } else {
                            // Upper bound relaxed to infinity: re-seat the
                            // variable at its lower bound.
                            self.state[j] = VState::AtLower;
                            self.shift_nonbasic(j, nl - ou);
                        }
                    }
                }
            }
        }
    }

    /// Shared warm-path tail: dual clean-up, primal polish, extraction.
    fn reoptimize(
        &mut self,
        lp: &LpProblem,
        lo: &[f64],
        hi: &[f64],
        opts: &SimplexOptions,
    ) -> Option<LpSolution> {
        self.cand_cap = opts.candidate_cap;
        let cap = opts.pivot_cap(self.m, self.ncols);
        match self.dual_run(cap) {
            DualOutcome::PrimalFeasible => {}
            DualOutcome::Infeasible => {
                // The tableau is still coherent (dual-feasible basis, bound
                // arrays match the box), so further warm restarts from this
                // state remain valid.
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
        // Dual feasibility can erode at tolerance level; the primal run
        // usually exits on its first pricing pass.
        match self.run(cap) {
            PhaseOutcome::Optimal => {}
            PhaseOutcome::Unbounded => return Some(LpSolution::unbounded()),
            PhaseOutcome::NumericalTrouble => return None,
        }
        self.finish(lp, lo, hi)
    }

    /// Move non-basic `j`'s resting value by `delta`; basics absorb it.
    fn shift_nonbasic(&mut self, j: usize, delta: f64) {
        if delta == 0.0 || !delta.is_finite() {
            return;
        }
        let n = self.ncols;
        for i in 0..self.m {
            let a = self.d[i * n + j];
            if a != 0.0 {
                self.xb[i] -= a * delta;
            }
        }
    }
}

thread_local! {
    static TL_ENGINE: RefCell<SimplexEngine> = RefCell::new(SimplexEngine::new());
}

/// Run `f` with this thread's reusable [`SimplexEngine`]. Rayon worker
/// threads each get their own engine, so branch-and-bound waves amortise
/// tableau allocations across every node a worker touches.
///
/// Do not call [`with_engine`] re-entrantly from inside `f` — the engine is
/// a single thread-local slot.
pub fn with_engine<R>(f: impl FnOnce(&mut SimplexEngine) -> R) -> R {
    TL_ENGINE.with(|cell| f(&mut cell.borrow_mut()))
}

/// Solve `lp` with the bounded-variable engine (thread-local instance).
///
/// # Panics
/// Panics if a lower bound is non-finite; callers must pre-validate with
/// [`LpProblem::validate_bounds`].
pub fn solve(lp: &LpProblem) -> LpSolution {
    with_engine(|eng| eng.solve_cold(lp, &lp.lower, &lp.upper, &SimplexOptions::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LpProblem, RowCmp};

    #[test]
    fn simple_bounded_max() {
        // max 3x + 2y st x + y <= 4, 0 <= x <= 2
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-3.0, -2.0];
        lp.upper[0] = 2.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 10.0).abs() < 1e-7, "obj={}", sol.objective);
    }

    #[test]
    fn bound_flip_path() {
        // min -x - y with x,y in [0, 1] and x + y <= 10: both flip to upper.
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-1.0, -1.0];
        lp.upper = vec![1.0, 1.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 10.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 2.0).abs() < 1e-7);
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_and_ge_rows() {
        // min 2x + 3y st x + y = 5, x >= 1 (row), y <= 10
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![2.0, 3.0];
        lp.upper[1] = 10.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Eq, 5.0);
        lp.push_row(vec![(0, 1.0)], RowCmp::Ge, 1.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        // all mass on x (cheaper): x = 5, y = 0
        assert!((sol.objective - 10.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::with_columns(1);
        lp.upper[0] = 1.0;
        lp.push_row(vec![(0, 1.0)], RowCmp::Ge, 2.0);
        assert_eq!(solve(&lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-1.0, 0.0];
        lp.push_row(vec![(1, 1.0)], RowCmp::Le, 3.0);
        assert_eq!(solve(&lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y with x in [2, 5], y in [3, 9], x + y >= 7
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 1.0];
        lp.lower = vec![2.0, 3.0];
        lp.upper = vec![5.0, 9.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 7.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 7.0).abs() < 1e-7);
        assert!(lp.max_violation(&sol.x) < 1e-7);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // y fixed at 4; min x st x + y >= 6 -> x = 2
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 0.0];
        lp.lower[1] = 4.0;
        lp.upper[1] = 4.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 6.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.x[0] - 2.0).abs() < 1e-7);
        assert!((sol.x[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn matches_reference_on_small_instance() {
        let mut lp = LpProblem::with_columns(4);
        lp.objective = vec![1.0, -2.0, 3.0, -1.0];
        lp.upper = vec![10.0, 4.0, f64::INFINITY, 6.0];
        lp.push_row(vec![(0, 1.0), (1, 2.0), (2, 1.0)], RowCmp::Le, 14.0);
        lp.push_row(vec![(1, 1.0), (3, 1.0)], RowCmp::Ge, 3.0);
        lp.push_row(vec![(0, 1.0), (2, -1.0), (3, 2.0)], RowCmp::Eq, 5.0);
        let fast = solve(&lp);
        let slow = reference::solve(&lp);
        assert_eq!(fast.status, slow.status);
        assert!((fast.objective - slow.objective).abs() < 1e-6);
    }

    #[test]
    fn degenerate_terminates() {
        let mut lp = LpProblem::with_columns(3);
        lp.objective = vec![-0.75, 150.0, -0.02];
        lp.push_row(vec![(0, 0.25), (1, -60.0), (2, -0.04)], RowCmp::Le, 0.0);
        lp.push_row(vec![(0, 0.5), (1, -90.0), (2, -0.02)], RowCmp::Le, 0.0);
        lp.push_row(vec![(2, 1.0)], RowCmp::Le, 1.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 0.05).abs() < 1e-6, "obj={}", sol.objective);
    }

    #[test]
    fn engine_reuse_is_clean() {
        // Two different problems through the same engine: no state leaks.
        let mut eng = SimplexEngine::new();
        let mut lp1 = LpProblem::with_columns(2);
        lp1.objective = vec![-3.0, -2.0];
        lp1.upper[0] = 2.0;
        lp1.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let s1 = eng.solve_cold(&lp1, &lp1.lower, &lp1.upper, &SimplexOptions::default());
        assert!((s1.objective + 10.0).abs() < 1e-7);

        let mut lp2 = LpProblem::with_columns(3);
        lp2.objective = vec![1.0, 1.0, 1.0];
        lp2.upper = vec![9.0; 3];
        lp2.push_row(vec![(0, 1.0), (1, 1.0), (2, 1.0)], RowCmp::Ge, 6.0);
        let s2 = eng.solve_cold(&lp2, &lp2.lower, &lp2.upper, &SimplexOptions::default());
        assert_eq!(s2.status, LpStatus::Optimal);
        assert!((s2.objective - 6.0).abs() < 1e-7);

        // And back to the first problem.
        let s3 = eng.solve_cold(&lp1, &lp1.lower, &lp1.upper, &SimplexOptions::default());
        assert!((s3.objective - s1.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_restart_after_bound_tightening() {
        // max 3x + 2y st x + y <= 4, x <= 2 -> x=2, y=2, obj=-10.
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-3.0, -2.0];
        lp.upper[0] = 2.0;
        lp.upper[1] = 10.0;
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 4.0);
        let mut eng = SimplexEngine::new();
        let cold = eng.solve_cold(&lp, &lp.lower, &lp.upper, &SimplexOptions::default());
        assert_eq!(cold.status, LpStatus::Optimal);
        let snap = eng.snapshot().expect("solved engine must snapshot");

        // Tighten x <= 1 (like a branching step): optimum moves to x=1, y=3.
        let lo = lp.lower.clone();
        let mut hi = lp.upper.clone();
        hi[0] = 1.0;
        let warm = eng
            .solve_warm(&lp, &snap, &lo, &hi, &SimplexOptions::default())
            .expect("warm restart must succeed on a plain bound shift");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!(
            (warm.objective + 9.0).abs() < 1e-7,
            "obj={}",
            warm.objective
        );
        assert!((warm.x[0] - 1.0).abs() < 1e-7);
        assert!((warm.x[1] - 3.0).abs() < 1e-7);

        // Cross-check against a cold solve of the tightened problem.
        let mut tight = lp.clone();
        tight.upper[0] = 1.0;
        let cold2 = solve(&tight);
        assert!((warm.objective - cold2.objective).abs() < 1e-7);
    }

    #[test]
    fn warm_restart_detects_infeasible_child() {
        // x + y >= 3 with x,y in [0,2]; fix both to 0 via bounds -> infeasible.
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 1.0];
        lp.upper = vec![2.0, 2.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 3.0);
        let mut eng = SimplexEngine::new();
        let cold = eng.solve_cold(&lp, &lp.lower, &lp.upper, &SimplexOptions::default());
        assert_eq!(cold.status, LpStatus::Optimal);
        let snap = eng.snapshot().unwrap();
        let lo = lp.lower.clone();
        let hi = vec![0.5, 0.5]; // x + y <= 1 < 3
        let warm = eng
            .solve_warm(&lp, &snap, &lo, &hi, &SimplexOptions::default())
            .expect("dual simplex must certify infeasibility");
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn resolve_in_place_chains_fixings() {
        // Dive-style chain: solve, fix a variable, re-solve in place, fix
        // another, re-solve again; every step must match a cold solve.
        let mut lp = LpProblem::with_columns(3);
        lp.objective = vec![-10.0, -13.0, -7.0];
        lp.upper = vec![1.0; 3];
        lp.push_row(vec![(0, 3.0), (1, 4.0), (2, 2.0)], RowCmp::Le, 5.0);
        let mut eng = SimplexEngine::new();
        let opts = SimplexOptions::default();
        let s0 = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts);
        assert_eq!(s0.status, LpStatus::Optimal);

        let mut lo = lp.lower.clone();
        let mut hi = lp.upper.clone();
        lo[0] = 1.0; // fix x0 = 1
        hi[0] = 1.0;
        let s1 = eng
            .resolve_with_bounds(&lp, &lo, &hi, &opts)
            .expect("in-place re-solve after a fixing");
        let mut cold = lp.clone();
        cold.lower.clone_from(&lo);
        cold.upper.clone_from(&hi);
        let c1 = solve(&cold);
        assert_eq!(s1.status, c1.status);
        assert!((s1.objective - c1.objective).abs() < 1e-7);

        lo[1] = 0.0; // then fix x1 = 0
        hi[1] = 0.0;
        let s2 = eng
            .resolve_with_bounds(&lp, &lo, &hi, &opts)
            .expect("second chained re-solve");
        cold.lower.clone_from(&lo);
        cold.upper.clone_from(&hi);
        let c2 = solve(&cold);
        assert_eq!(s2.status, c2.status);
        assert!((s2.objective - c2.objective).abs() < 1e-7);
    }

    #[test]
    fn warm_restart_rejects_mismatched_snapshot() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-1.0, -1.0];
        lp.upper = vec![1.0, 1.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Le, 10.0);
        let mut eng = SimplexEngine::new();
        eng.solve_cold(&lp, &lp.lower, &lp.upper, &SimplexOptions::default());
        let snap = eng.snapshot().unwrap();

        let other = LpProblem::with_columns(3);
        let sol = eng.solve_warm(
            &other,
            &snap,
            &other.lower,
            &other.upper,
            &SimplexOptions::default(),
        );
        assert!(sol.is_none(), "shape mismatch must be rejected");
    }

    #[test]
    fn tiny_pivot_cap_falls_back_not_hangs() {
        let mut lp = LpProblem::with_columns(4);
        lp.objective = vec![-1.0, -2.0, -3.0, -4.0];
        lp.upper = vec![5.0; 4];
        lp.push_row(
            vec![(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            RowCmp::Le,
            8.0,
        );
        let opts = SimplexOptions {
            pivot_cap_base: 1,
            pivot_cap_per_dim: 0,
            ..SimplexOptions::default()
        };
        let mut eng = SimplexEngine::new();
        // try_solve_cold must give up (None) under a 1-pivot cap…
        assert!(eng
            .try_solve_cold(&lp, &lp.lower, &lp.upper, &opts)
            .is_none());
        // …and solve_cold must still produce the right answer via fallback.
        let sol = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 29.0).abs() < 1e-6, "obj={}", sol.objective);
    }
}
