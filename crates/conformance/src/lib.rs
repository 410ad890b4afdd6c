//! # birp-conformance
//!
//! The repo's ground-truth layer. The production stack solves the per-slot
//! MILP (paper Eq. 10 s.t. Eqs. 6–9) with a warm-started, budgeted branch
//! and bound — exactly the kind of fast path that can silently drift from
//! the exact optimum. This crate keeps it honest:
//!
//! * [`oracle`] — a brute-force solver for *tiny* instances (≤ 3 edges,
//!   ≤ 2 apps, ≤ 2 versions, batches ≤ β) that enumerates every deployment
//!   `x`/batch `b` assignment and solves the residual routing exactly. The
//!   differential proptests in `tests/` assert the MILP incumbent matches
//!   it under every solver toggle (warm starts, presolve, partial pricing,
//!   node-budget degradation),
//! * [`tiny`] — the tiny-instance model and its generator, shared between
//!   the proptests and the `birp conformance` CLI smoke,
//! * [`transform`] — metamorphic transforms (edge permutation, budget
//!   relaxation, edge-subset extraction) with the invariants they must
//!   preserve documented on each function,
//! * [`golden`] — the golden-trace replay harness: canonical JSONL
//!   snapshots of per-slot decisions + end-of-run metrics under
//!   `tests/golden/`, diffed bitwise (`birp conformance --check`, CI), and
//!   regenerated via `birp conformance --update-golden`,
//! * [`strategies`] — the shared `Arbitrary`-style generators the solver /
//!   core / sim proptests previously each duplicated.
//!
//! The crate sits above every production crate and below their test suites
//! (they consume it as a dev-dependency; Cargo permits that cycle).

pub mod golden;
pub mod oracle;
pub mod strategies;
pub mod tiny;
pub mod transform;

pub use oracle::{oracle_report, oracle_solve, OracleReport};
pub use tiny::{arb_tiny_instance, sample_tiny_instance, TinyInstance};
