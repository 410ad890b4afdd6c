//! # birp-solver
//!
//! Mathematical-programming substrate for the BIRP reproduction.
//!
//! The BIRP paper solves, every time slot, an integer program with bilinear
//! (binary × integer) terms using Gurobi. This crate replaces Gurobi with a
//! from-scratch, dependency-light solver stack:
//!
//! * [`expr`] — variables ([`VarId`], [`VarKind`]) and linear expressions
//!   ([`LinExpr`]) with operator overloading,
//! * [`lp`] — the standard-form linear-program container handed to the
//!   simplex engines,
//! * [`simplex`] — three simplex cores behind one engine: the default
//!   *sparse revised* core (sparse LU, hyper-sparse FTRAN/BTRAN), the
//!   *dense tableau* core for small instances and as first fallback, and a
//!   slow, obviously correct *reference* solver (bounds as rows, Bland's
//!   rule) that cross-validates the other two and is the last fallback,
//! * [`milp`] — branch-and-bound over the LP relaxation with best-first
//!   search, an LP-guided diving heuristic, and rayon-parallel node
//!   evaluation in fixed-width waves with a shared incumbent,
//! * [`model`] — the user-facing [`Model`] builder, including
//!   [`Model::linearized_product`], the exact McCormick linearisation of
//!   binary × bounded-variable products that turns BIRP's per-slot
//!   "integer quadratic program" into a MILP.
//!
//! ## Quick example
//!
//! ```
//! use birp_solver::{Model, VarKind, SolverConfig};
//!
//! // maximise 3x + 2y  s.t.  x + y <= 4, x <= 2, x,y integer >= 0
//! let mut m = Model::new();
//! let x = m.add_var("x", VarKind::Integer, 0.0, 2.0, -3.0);
//! let y = m.add_var("y", VarKind::Integer, 0.0, f64::INFINITY, -2.0);
//! m.add_le("cap", x + y, 4.0);
//! let sol = m.solve(&SolverConfig::default()).unwrap();
//! assert_eq!(sol.value(x).round() as i64, 2);
//! assert_eq!(sol.value(y).round() as i64, 2);
//! assert!((sol.objective - (-10.0)).abs() < 1e-6);
//! ```

pub mod error;
pub mod expr;
pub mod heuristic;
pub mod lp;
pub mod milp;
pub mod model;
pub mod presolve;
pub mod simplex;

pub use error::SolverError;
pub use expr::{LinExpr, VarId, VarKind};
pub use lp::{LpProblem, LpSolution, LpStatus};
pub use milp::{BudgetHit, MilpProblem, MilpResult, MilpStatus, RootDive, SolverConfig, WarmStart};
pub use model::{Model, ModelStatus, RowId, Solution};
pub use presolve::{presolve, PresolveStatus, Reduction};
pub use simplex::{EngineSnapshot, SimplexEngine, SimplexOptions};

/// Numerical tolerance used throughout the solver for feasibility checks.
pub const FEAS_TOL: f64 = 1e-7;
/// Tolerance under which a value is considered integral.
pub const INT_TOL: f64 = 1e-6;
