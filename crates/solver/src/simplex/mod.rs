//! Simplex engines.
//!
//! Three cores solve the same [`LpProblem`](crate::lp::LpProblem):
//!
//! * `revised` — the default production core: a sparse revised simplex
//!   over a CSC/CSR matrix (`sparse`) and a sparse LU with a
//!   product-form eta file (`factor`), whose FTRAN/BTRAN walk only the
//!   reach of their right-hand side. Per-iteration work follows the
//!   nonzeros touched, not `m × ncols`.
//! * [`bounded`] — the dense tableau core. It treats variable bounds
//!   natively (non-basic variables rest at either bound, the ratio test
//!   includes bound flips), keeps small instances (`m × ncols` up to the
//!   `Auto` cutover) and is the first fallback when the sparse core hits
//!   numerical trouble. [`SimplexEngine`] (defined there) is the facade
//!   over both production cores.
//! * [`reference`] — a deliberately simple textbook two-phase tableau
//!   simplex with Bland's rule everywhere. Bounds are rewritten as explicit
//!   rows, so the core loop only ever deals with `x >= 0`. It is slow but
//!   easy to audit; it is the last fallback and the oracle in the
//!   property-based cross-validation tests.
//!
//! All three return the same *statuses* and objective values within
//! tolerance; `tests/simplex_cross.rs` and `tests/sparse_parity.rs` enforce
//! this on thousands of random LPs.

pub mod bounded;
pub(crate) mod factor;
pub mod reference;
pub(crate) mod revised;
pub(crate) mod sparse;

pub use bounded::solve as solve_bounded;
pub use bounded::{with_engine, EngineSnapshot, SimplexEngine, SimplexMode, SimplexOptions};
pub use reference::solve as solve_reference;

/// Pivot tolerance shared by the production cores.
pub(crate) const PIVOT_TOL: f64 = 1e-9;
/// Tolerance for reduced-cost optimality tests.
pub(crate) const COST_TOL: f64 = 1e-9;

/// Where a non-basic variable currently rests. Shared by the dense tableau
/// core and the sparse revised core so snapshots can carry either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VState {
    Basic,
    AtLower,
    AtUpper,
}
