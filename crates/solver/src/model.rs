//! The user-facing modelling layer.
//!
//! [`Model`] collects variables and linear constraints, plus *exactly
//! linearised products* of a binary variable with a bounded variable
//! ([`Model::linearized_product`]). This is precisely the structure of the
//! BIRP per-slot problem: the paper's "integer quadratic program" contains
//! only `x_ijk * b_ijk` terms with `x` binary, which the McCormick envelope
//! represents without any approximation. Solving therefore reduces to a
//! MILP handled by [`crate::milp::branch_and_bound`].

use std::collections::HashMap;

use crate::error::SolverError;
use crate::expr::{LinExpr, VarId, VarKind};
use crate::lp::{LpProblem, LpSolution, LpStatus, RowCmp};
use crate::milp::{
    branch_and_bound, BudgetHit, MilpProblem, MilpResult, MilpStatus, RootDive, SolverConfig,
    WarmStart,
};
use crate::simplex::{with_engine, EngineSnapshot, SimplexOptions};

/// Terminal status of a model solve that produced a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelStatus {
    /// Proven optimal within the configured gap.
    Optimal,
    /// Feasible incumbent; node budget exhausted before the gap closed.
    Feasible,
}

/// A feasible (possibly optimal) solution to a [`Model`].
#[derive(Debug, Clone)]
pub struct Solution {
    pub status: ModelStatus,
    pub objective: f64,
    pub values: Vec<f64>,
    /// Best proven bound (same sense as the objective).
    pub bound: f64,
    /// Relative gap between objective and bound.
    pub gap: f64,
    /// LP relaxations solved.
    pub nodes: usize,
    /// The solve budget ran out before the gap closed: the point is the best
    /// incumbent found, not a proven (near-)optimum.
    pub degraded: bool,
    /// The budget that truncated a degraded solve (see
    /// [`crate::milp::MilpResult::budget`]).
    pub budget: BudgetHit,
    /// Incumbent trajectory `(nodes_solved, objective, gap)` in install
    /// order (see [`crate::milp::MilpResult::incumbents`]).
    pub incumbents: Vec<(u64, f64, f64)>,
    /// Outcome of the root dive.
    pub root_dive: RootDive,
    /// The root LP was restored from the warm start's basis instead of
    /// solved cold.
    pub root_restored: bool,
}

impl Solution {
    /// Value of a variable in this solution.
    #[inline]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.index()]
    }

    /// Value rounded to the nearest integer (for integer/binary variables).
    #[inline]
    pub fn int_value(&self, v: VarId) -> i64 {
        self.values[v.index()].round() as i64
    }
}

/// Opaque handle to a constraint row inside a [`Model`], returned by
/// [`Model::add_le`]/[`add_ge`](Model::add_ge)/[`add_eq`](Model::add_eq) and
/// consumed by the in-place edit API ([`Model::set_rhs`],
/// [`Model::set_row_coeff`]). Handles are dense insertion indices and stay
/// valid for the life of the model — rows are never removed or reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub(crate) usize);

impl RowId {
    /// The dense row index of this constraint (insertion order).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct VarInfo {
    name: String,
    kind: VarKind,
    lower: f64,
    upper: f64,
    obj: f64,
}

#[derive(Debug, Clone)]
struct RowInfo {
    name: String,
    expr: LinExpr,
    cmp: RowCmp,
    rhs: f64,
}

/// Mixed-integer model builder. Minimisation sense.
#[derive(Debug, Clone, Default)]
pub struct Model {
    vars: Vec<VarInfo>,
    rows: Vec<RowInfo>,
    products: HashMap<(VarId, VarId), VarId>,
}

impl Model {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable; returns its handle.
    ///
    /// For `VarKind::Binary` the bounds are clamped into `[0, 1]`.
    pub fn add_var(
        &mut self,
        name: &str,
        kind: VarKind,
        lower: f64,
        upper: f64,
        obj: f64,
    ) -> VarId {
        let (lower, upper) = match kind {
            VarKind::Binary => (lower.max(0.0), upper.min(1.0)),
            _ => (lower, upper),
        };
        let id = VarId(self.vars.len());
        self.vars.push(VarInfo {
            name: name.to_string(),
            kind,
            lower,
            upper,
            obj,
        });
        id
    }

    /// Shorthand: continuous variable in `[0, +inf)` with objective `obj`.
    pub fn add_nonneg(&mut self, name: &str, obj: f64) -> VarId {
        self.add_var(name, VarKind::Continuous, 0.0, f64::INFINITY, obj)
    }

    /// Shorthand: binary variable with objective `obj`.
    pub fn add_binary(&mut self, name: &str, obj: f64) -> VarId {
        self.add_var(name, VarKind::Binary, 0.0, 1.0, obj)
    }

    /// Change the objective coefficient of `v`.
    pub fn set_objective(&mut self, v: VarId, obj: f64) {
        self.vars[v.index()].obj = obj;
    }

    /// Add to the objective coefficient of `v`.
    pub fn add_objective(&mut self, v: VarId, obj: f64) {
        self.vars[v.index()].obj += obj;
    }

    /// Tighten (replace) the bounds of `v`.
    pub fn set_bounds(&mut self, v: VarId, lower: f64, upper: f64) {
        self.vars[v.index()].lower = lower;
        self.vars[v.index()].upper = upper;
    }

    pub fn bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.index()].lower, self.vars[v.index()].upper)
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Name of the `i`-th constraint (insertion order).
    pub fn constraint_name(&self, i: usize) -> &str {
        &self.rows[i].name
    }

    fn add_row(&mut self, name: &str, expr: impl Into<LinExpr>, cmp: RowCmp, rhs: f64) -> RowId {
        let mut expr = expr.into();
        expr.compact();
        let adj_rhs = rhs - expr.constant;
        expr.constant = 0.0;
        let id = RowId(self.rows.len());
        self.rows.push(RowInfo {
            name: name.to_string(),
            expr,
            cmp,
            rhs: adj_rhs,
        });
        id
    }

    /// Add constraint `expr <= rhs`; returns the row's handle.
    pub fn add_le(&mut self, name: &str, expr: impl Into<LinExpr>, rhs: f64) -> RowId {
        self.add_row(name, expr, RowCmp::Le, rhs)
    }

    /// Add constraint `expr >= rhs`; returns the row's handle.
    pub fn add_ge(&mut self, name: &str, expr: impl Into<LinExpr>, rhs: f64) -> RowId {
        self.add_row(name, expr, RowCmp::Ge, rhs)
    }

    /// Add constraint `expr == rhs`; returns the row's handle.
    pub fn add_eq(&mut self, name: &str, expr: impl Into<LinExpr>, rhs: f64) -> RowId {
        self.add_row(name, expr, RowCmp::Eq, rhs)
    }

    /// Replace the right-hand side of a constraint in place.
    ///
    /// Note [`add_le`](Self::add_le) et al. fold the expression's constant
    /// into the stored rhs at insertion; `set_rhs` sets the *folded* value
    /// directly, so callers whose original expression carried a constant
    /// must subtract it themselves (the BIRP slot rows carry none).
    pub fn set_rhs(&mut self, row: RowId, rhs: f64) {
        self.rows[row.0].rhs = rhs;
    }

    /// The (folded) right-hand side of a constraint.
    pub fn rhs(&self, row: RowId) -> f64 {
        self.rows[row.0].rhs
    }

    /// Set (insert, update, or — when `c == 0` — remove) the coefficient of
    /// `v` in `row`, preserving the compacted sorted-unique-nonzero term
    /// invariant. An edited row therefore lowers through
    /// [`to_milp`](Self::to_milp) to exactly the bytes a fresh build with
    /// the same values would produce, which is the invariant the
    /// incremental re-solve differential suites pin down.
    pub fn set_row_coeff(&mut self, row: RowId, v: VarId, c: f64) {
        let terms = &mut self.rows[row.0].expr.terms;
        match terms.binary_search_by_key(&v, |&(tv, _)| tv) {
            Ok(pos) => {
                if c == 0.0 {
                    terms.remove(pos);
                } else {
                    terms[pos].1 = c;
                }
            }
            Err(pos) => {
                if c != 0.0 {
                    terms.insert(pos, (v, c));
                }
            }
        }
    }

    /// The coefficient of `v` in `row` (0 when absent).
    pub fn row_coeff(&self, row: RowId, v: VarId) -> f64 {
        self.rows[row.0]
            .expr
            .terms
            .iter()
            .find(|&&(tv, _)| tv == v)
            .map_or(0.0, |&(_, c)| c)
    }

    /// Return a variable `w` that equals `a * b` at every feasible integer
    /// point, where at least one of `a`, `b` is binary and the other has
    /// finite bounds.
    ///
    /// Uses the exact McCormick envelope for a binary factor:
    /// `w <= u*bin`, `w >= l*bin`, `w <= other - l*(1-bin)`,
    /// `w >= other - u*(1-bin)`. Results are memoised, so requesting the
    /// same product twice returns the same variable.
    pub fn linearized_product(&mut self, a: VarId, b: VarId) -> Result<VarId, SolverError> {
        for v in [a, b] {
            if v.index() >= self.vars.len() {
                return Err(SolverError::UnknownVariable { var: v.index() });
            }
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&w) = self.products.get(&key) {
            return Ok(w);
        }
        // Squared binary: x*x = x.
        if a == b && self.vars[a.index()].kind == VarKind::Binary {
            self.products.insert(key, a);
            return Ok(a);
        }
        let (bin, other) = if self.vars[a.index()].kind == VarKind::Binary {
            (a, b)
        } else if self.vars[b.index()].kind == VarKind::Binary {
            (b, a)
        } else {
            return Err(SolverError::NonLinearizable {
                detail: format!(
                    "product {} * {} has no binary factor",
                    self.vars[a.index()].name,
                    self.vars[b.index()].name
                ),
            });
        };
        let (l, u) = self.bounds(other);
        if !l.is_finite() || !u.is_finite() {
            return Err(SolverError::NonLinearizable {
                detail: format!(
                    "non-binary factor {} has unbounded domain [{l}, {u}]",
                    self.vars[other.index()].name
                ),
            });
        }
        let wname = format!(
            "prod({},{})",
            self.vars[bin.index()].name,
            self.vars[other.index()].name
        );
        let w = self.add_var(&wname, VarKind::Continuous, l.min(0.0), u.max(0.0), 0.0);
        self.add_le(
            &format!("{wname}:ub_bin"),
            LinExpr::term(w, 1.0) - LinExpr::term(bin, u),
            0.0,
        );
        self.add_ge(
            &format!("{wname}:lb_bin"),
            LinExpr::term(w, 1.0) - LinExpr::term(bin, l),
            0.0,
        );
        self.add_le(
            &format!("{wname}:ub_other"),
            LinExpr::term(w, 1.0) - LinExpr::term(other, 1.0) - LinExpr::term(bin, l),
            -l,
        );
        self.add_ge(
            &format!("{wname}:lb_other"),
            LinExpr::term(w, 1.0) - LinExpr::term(other, 1.0) - LinExpr::term(bin, u),
            -u,
        );
        self.products.insert(key, w);
        Ok(w)
    }

    /// Lower this model to a [`MilpProblem`].
    pub fn to_milp(&self) -> Result<MilpProblem, SolverError> {
        let n = self.vars.len();
        let mut lp = LpProblem::with_columns(n);
        for (j, v) in self.vars.iter().enumerate() {
            if v.lower > v.upper || !v.lower.is_finite() || v.upper.is_nan() {
                return Err(SolverError::InvalidBounds {
                    var: j,
                    lower: v.lower,
                    upper: v.upper,
                });
            }
            lp.lower[j] = v.lower;
            lp.upper[j] = v.upper;
            lp.objective[j] = v.obj;
        }
        for row in &self.rows {
            if let Some(mv) = row.expr.max_var() {
                if mv >= n {
                    return Err(SolverError::UnknownVariable { var: mv });
                }
            }
            lp.push_row(
                row.expr
                    .terms
                    .iter()
                    .map(|&(v, c)| (v.index(), c))
                    .collect(),
                row.cmp,
                row.rhs,
            );
        }
        let integers: Vec<usize> = self
            .vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.kind.is_integral())
            .map(|(j, _)| j)
            .collect();
        Ok(MilpProblem { lp, integers })
    }

    /// Solve the model to (near-)optimality.
    pub fn solve(&self, cfg: &SolverConfig) -> Result<Solution, SolverError> {
        self.solve_warm(cfg, WarmStart::default())
    }

    /// Solve from a warm start: a known-feasible point (dense, one value
    /// per variable) and/or the basis of this model's solved relaxation
    /// (see [`WarmStart`]). An invalid point or a basis that does not fit
    /// is silently ignored.
    pub fn solve_warm(
        &self,
        cfg: &SolverConfig,
        warm: WarmStart<'_>,
    ) -> Result<Solution, SolverError> {
        let milp = self.to_milp()?;
        Self::solution(branch_and_bound(&milp, cfg, warm))
    }

    fn solution(res: MilpResult) -> Result<Solution, SolverError> {
        match res.status {
            MilpStatus::Infeasible => Err(SolverError::Infeasible),
            MilpStatus::Unbounded => Err(SolverError::Unbounded),
            MilpStatus::Feasible if !res.objective.is_finite() => {
                Err(SolverError::BudgetExhausted { nodes: res.nodes })
            }
            MilpStatus::Optimal | MilpStatus::Feasible => Ok(Solution {
                status: if res.status == MilpStatus::Optimal {
                    ModelStatus::Optimal
                } else {
                    ModelStatus::Feasible
                },
                objective: res.objective,
                values: res.x,
                bound: res.bound,
                gap: res.gap,
                nodes: res.nodes,
                degraded: res.degraded,
                budget: res.budget,
                incumbents: res.incumbents,
                root_dive: res.root_dive,
                root_restored: res.root_restored,
            }),
        }
    }

    /// Solve the continuous relaxation only (integrality dropped), cold.
    /// Next to the solution comes the engine snapshot of its optimal basis
    /// (`None` unless optimal), which [`WarmStart::basis`] hands to branch
    /// and bound so its root LP starts there instead of from scratch.
    pub fn solve_relaxation(&self) -> Result<(LpSolution, Option<EngineSnapshot>), SolverError> {
        let milp = self.to_milp()?;
        let lp = &milp.lp;
        Ok(with_engine(|eng| {
            let sol = eng.solve_cold(lp, &lp.lower, &lp.upper, &SimplexOptions::default());
            let basis = (sol.status == LpStatus::Optimal)
                .then(|| eng.snapshot())
                .flatten();
            (sol, basis)
        }))
    }

    /// Objective value `c · x` at a point (no feasibility check).
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, &xi)| v.obj * xi).sum()
    }

    /// Maximum violation of this model's rows and bounds at `x`
    /// (0 means feasible; integrality is not checked).
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        match self.to_milp() {
            Ok(milp) => milp.lp.max_violation(x),
            Err(_) => f64::INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_mip_via_model() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, -5.0);
        let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, -4.0);
        m.add_le("r1", 6.0 * x + 4.0 * y, 24.0);
        m.add_le("r2", x + 2.0 * y, 6.0);
        let sol = m.solve(&SolverConfig::default()).unwrap();
        // LP optimum (3, 1.5) obj -21; integer x: x=3 -> y = 1.5 feasible
        assert_eq!(sol.int_value(x), 3);
        assert!((sol.value(y) - 1.5).abs() < 1e-6);
        assert!((sol.objective + 21.0).abs() < 1e-6);
    }

    #[test]
    fn binary_bounds_clamped() {
        let mut m = Model::new();
        let b = m.add_var("b", VarKind::Binary, -3.0, 7.0, 1.0);
        assert_eq!(m.bounds(b), (0.0, 1.0));
    }

    #[test]
    fn linearized_product_binary_times_integer() {
        // maximise w = x*b with b in [0, 5] integer, but x costs 6:
        // objective min 6x - w. With w = 5 when x=1: 6 - 5 = 1 > 0, so x=0.
        let mut m = Model::new();
        let x = m.add_binary("x", 6.0);
        let b = m.add_var("b", VarKind::Integer, 0.0, 5.0, 0.0);
        let w = m.linearized_product(x, b).unwrap();
        m.set_objective(w, -1.0);
        let sol = m.solve(&SolverConfig::default()).unwrap();
        assert_eq!(sol.int_value(x), 0);
        assert!(sol.value(w).abs() < 1e-6, "w must be 0 when x = 0");

        // Now make x cheap: x=1 and w = b = 5.
        let mut m2 = Model::new();
        let x2 = m2.add_binary("x", 0.5);
        let b2 = m2.add_var("b", VarKind::Integer, 0.0, 5.0, 0.0);
        let w2 = m2.linearized_product(x2, b2).unwrap();
        m2.set_objective(w2, -1.0);
        let sol2 = m2.solve(&SolverConfig::default()).unwrap();
        assert_eq!(sol2.int_value(x2), 1);
        assert!((sol2.value(w2) - 5.0).abs() < 1e-6);
        assert!((sol2.value(b2) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn product_forces_w_to_track_b_when_binary_on() {
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let b = m.add_var("b", VarKind::Integer, 0.0, 8.0, 0.0);
        let w = m.linearized_product(x, b).unwrap();
        m.add_eq("fix_x", LinExpr::from(x), 1.0);
        m.add_eq("fix_b", LinExpr::from(b), 3.0);
        m.set_objective(w, 1.0); // push w down; equality must hold anyway
        let sol = m.solve(&SolverConfig::default()).unwrap();
        assert!((sol.value(w) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn product_is_memoised_and_symmetric() {
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let b = m.add_var("b", VarKind::Integer, 0.0, 5.0, 0.0);
        let w1 = m.linearized_product(x, b).unwrap();
        let w2 = m.linearized_product(b, x).unwrap();
        assert_eq!(w1, w2);
        let nvars = m.num_vars();
        let _ = m.linearized_product(x, b).unwrap();
        assert_eq!(m.num_vars(), nvars);
    }

    #[test]
    fn binary_square_is_identity() {
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let w = m.linearized_product(x, x).unwrap();
        assert_eq!(w, x);
    }

    #[test]
    fn product_of_two_continuous_rejected() {
        let mut m = Model::new();
        let a = m.add_var("a", VarKind::Continuous, 0.0, 1.0, 0.0);
        let b = m.add_var("b", VarKind::Continuous, 0.0, 1.0, 0.0);
        assert!(matches!(
            m.linearized_product(a, b),
            Err(SolverError::NonLinearizable { .. })
        ));
    }

    #[test]
    fn product_with_unbounded_factor_rejected() {
        let mut m = Model::new();
        let x = m.add_binary("x", 0.0);
        let b = m.add_nonneg("b", 0.0); // upper = +inf
        assert!(matches!(
            m.linearized_product(x, b),
            Err(SolverError::NonLinearizable { .. })
        ));
    }

    #[test]
    fn infeasible_model_errors() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        m.add_ge("impossible", LinExpr::from(x), 5.0);
        assert!(matches!(
            m.solve(&SolverConfig::default()),
            Err(SolverError::Infeasible)
        ));
    }

    #[test]
    fn invalid_bounds_detected_at_lowering() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 1.0, 0.0);
        m.set_bounds(x, 2.0, 1.0);
        assert!(matches!(
            m.solve(&SolverConfig::default()),
            Err(SolverError::InvalidBounds { var: 0, .. })
        ));
    }

    #[test]
    fn expression_constant_folds_into_rhs() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Continuous, 0.0, 10.0, 1.0);
        // x + 3 >= 5  <=>  x >= 2
        m.add_ge("shifted", LinExpr::from(x) + 3.0, 5.0);
        let sol = m.solve(&SolverConfig::default()).unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn edited_model_lowers_identically_to_fresh_build() {
        // Build a model, mutate rhs / coefficients / bounds / objective in
        // place, and require the lowering to match — bitwise — a model built
        // fresh with the final values. This is the core invariant of the
        // incremental re-solve path: delta-edited models are
        // indistinguishable from rebuilds at the LpProblem level.
        let build = |rhs: f64, c0: f64, c2: f64, ub: f64, obj: f64| {
            let mut m = Model::new();
            let x = m.add_var("x", VarKind::Integer, 0.0, ub, obj);
            let y = m.add_var("y", VarKind::Continuous, 0.0, 10.0, -4.0);
            let z = m.add_var("z", VarKind::Continuous, 0.0, 10.0, 0.0);
            let mut e = LinExpr::new();
            if c0 != 0.0 {
                e.add_term(x, c0);
            }
            e.add_term(y, 4.0);
            if c2 != 0.0 {
                e.add_term(z, c2);
            }
            let r = m.add_le("r1", e, rhs);
            m.add_le("r2", x + 2.0 * y, 6.0);
            (m, x, z, r)
        };
        let (mut edited, x, z, r1) = build(24.0, 6.0, 0.0, 10.0, -5.0);
        edited.set_rhs(r1, 30.0);
        edited.set_row_coeff(r1, x, 0.0); // remove
        edited.set_row_coeff(r1, z, 2.5); // insert
        edited.set_bounds(x, 0.0, 8.0);
        edited.set_objective(x, -6.0);
        let (fresh, _, _, _) = build(30.0, 0.0, 2.5, 8.0, -6.0);
        assert_eq!(edited.to_milp().unwrap(), fresh.to_milp().unwrap());
        assert_eq!(edited.rhs(r1), 30.0);
        assert_eq!(edited.row_coeff(r1, x), 0.0);
        assert_eq!(edited.row_coeff(r1, z), 2.5);
    }

    #[test]
    fn set_row_coeff_update_keeps_sorted_terms() {
        let mut m = Model::new();
        let a = m.add_nonneg("a", 0.0);
        let b = m.add_nonneg("b", 0.0);
        let c = m.add_nonneg("c", 0.0);
        let r = m.add_ge("r", a + c, 1.0);
        m.set_row_coeff(r, b, 3.0);
        m.set_row_coeff(r, a, 2.0);
        let milp = m.to_milp().unwrap();
        assert_eq!(milp.lp.rows[0].coeffs, vec![(0, 2.0), (1, 3.0), (2, 1.0)]);
    }

    #[test]
    fn relaxation_ignores_integrality() {
        let mut m = Model::new();
        let x = m.add_var("x", VarKind::Integer, 0.0, 10.0, -1.0);
        m.add_le("half", 2.0 * x, 7.0);
        let (rel, basis) = m.solve_relaxation().unwrap();
        assert!((rel.x[0] - 3.5).abs() < 1e-6);
        assert!(basis.is_some(), "an optimal relaxation leaves its basis");
        let int = m.solve(&SolverConfig::default()).unwrap();
        assert_eq!(int.int_value(x), 3);
    }
}
