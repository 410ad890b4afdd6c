//! Property-based validation of the warm-start machinery.
//!
//! Two layers:
//!
//! 1. **Engine level** — a warm-started re-solve from a parent snapshot
//!    must agree (status + objective) with a cold two-phase solve of the
//!    same bound-tightened LP. The tightenings mimic branching: a random
//!    subset of columns gets its box shrunk (floor/ceil style).
//! 2. **Branch-and-bound level** — `branch_and_bound` with warm node
//!    re-solves enabled must return the same status and objective as the
//!    cold configuration on random MILPs, and the same seeded run must be
//!    bitwise reproducible (same incumbent vector), warm or not.

use birp_conformance::strategies::arb_ip;
use birp_solver::lp::{LpProblem, RowCmp};
use birp_solver::milp::{branch_and_bound, MilpProblem, MilpStatus, WarmStart};
use birp_solver::simplex::solve_bounded;
use birp_solver::{LpStatus, SimplexEngine, SimplexOptions, SolverConfig};
use proptest::prelude::*;

/// A random LP mirroring the cross-validation generator: n in 1..=6
/// columns, m in 0..=6 rows, integer-ish coefficients.
fn arb_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=6, 0usize..=6).prop_flat_map(|(n, m)| {
        let bounds = proptest::collection::vec((0.0f64..3.0, 0.5f64..5.0), n);
        let objs = proptest::collection::vec(-5.0f64..5.0, n);
        let rows = proptest::collection::vec(
            (
                proptest::collection::vec(-4i32..=4, n),
                prop_oneof![Just(RowCmp::Le), Just(RowCmp::Ge), Just(RowCmp::Eq)],
                -6.0f64..12.0,
            ),
            m,
        );
        (bounds, objs, rows).prop_map(move |(bounds, objs, rows)| {
            let mut lp = LpProblem::with_columns(n);
            for (j, (lo, extra)) in bounds.into_iter().enumerate() {
                lp.lower[j] = lo;
                lp.upper[j] = lo + extra;
            }
            lp.objective = objs;
            for (coeffs, cmp, rhs) in rows {
                let sparse: Vec<(usize, f64)> = coeffs
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, c)| c != 0)
                    .map(|(j, c)| (j, c as f64))
                    .collect();
                lp.push_row(sparse, cmp, rhs);
            }
            lp
        })
    })
}

/// An LP plus a branching-style tightening: for each selected column,
/// shrink the box towards one end by a fraction of its width.
fn arb_tightened_lp() -> impl Strategy<Value = (LpProblem, Vec<f64>, Vec<f64>)> {
    arb_lp().prop_flat_map(|lp| {
        let n = lp.num_cols();
        let cuts = proptest::collection::vec((0u8..=2, 0.0f64..1.0), n);
        (Just(lp), cuts).prop_map(|(lp, cuts)| {
            let mut lo = lp.lower.clone();
            let mut hi = lp.upper.clone();
            for (j, (kind, frac)) in cuts.into_iter().enumerate() {
                let width = hi[j] - lo[j];
                match kind {
                    1 => hi[j] = lo[j] + width * frac, // x_j <= shrunken upper
                    2 => lo[j] = hi[j] - width * frac, // x_j >= raised lower
                    _ => {}                            // untouched
                }
            }
            (lp, lo, hi)
        })
    })
}

fn check_warm_child(lp: LpProblem, lo: Vec<f64>, hi: Vec<f64>) -> Result<(), String> {
    let opts = SimplexOptions::default();
    let mut eng = SimplexEngine::new();
    let parent = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts);
    // Only optimal parents leave a snapshot (matching what B&B does).
    if parent.status != LpStatus::Optimal {
        return Ok(());
    }
    let snap = eng.snapshot().expect("optimal solve must snapshot");

    let mut cold_lp = lp.clone();
    cold_lp.lower.clone_from(&lo);
    cold_lp.upper.clone_from(&hi);
    let cold = solve_bounded(&cold_lp);

    if let Some(warm) = eng.solve_warm(&lp, &snap, &lo, &hi, &opts) {
        prop_assert_eq!(warm.status, cold.status, "warm/cold status disagree");
        if warm.status == LpStatus::Optimal {
            let scale = cold.objective.abs().max(1.0);
            prop_assert!(
                (warm.objective - cold.objective).abs() / scale < 1e-6,
                "objective mismatch: warm={} cold={}",
                warm.objective,
                cold.objective
            );
            prop_assert!(
                lp.max_violation_with_bounds(&warm.x, &lo, &hi) < 1e-6,
                "warm point violates the child box"
            );
        }
    }
    // A None from solve_warm (numerical retreat) is acceptable: B&B falls
    // back to a cold solve, which `cold` already validates.
    Ok(())
}

fn check_chained_resolve(lp: LpProblem, lo: Vec<f64>, hi: Vec<f64>) -> Result<(), String> {
    let opts = SimplexOptions::default();
    let mut eng = SimplexEngine::new();
    let parent = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts);
    if parent.status != LpStatus::Optimal {
        return Ok(());
    }

    let mut cold_lp = lp.clone();
    cold_lp.lower.clone_from(&lo);
    cold_lp.upper.clone_from(&hi);
    let cold = solve_bounded(&cold_lp);

    if let Some(warm) = eng.resolve_with_bounds(&lp, &lo, &hi, &opts) {
        prop_assert_eq!(warm.status, cold.status, "in-place/cold status disagree");
        if warm.status == LpStatus::Optimal {
            let scale = cold.objective.abs().max(1.0);
            prop_assert!(
                (warm.objective - cold.objective).abs() / scale < 1e-6,
                "objective mismatch: warm={} cold={}",
                warm.objective,
                cold.objective
            );
        }
    }
    Ok(())
}

fn check_bnb_warm_vs_cold(p: MilpProblem) -> Result<(), String> {
    let warm_cfg = SolverConfig {
        warm_nodes: true,
        ..Default::default()
    };
    let cold_cfg = SolverConfig {
        warm_nodes: false,
        ..Default::default()
    };
    let warm = branch_and_bound(&p, &warm_cfg, WarmStart::default());
    let cold = branch_and_bound(&p, &cold_cfg, WarmStart::default());
    prop_assert_eq!(warm.status, cold.status, "status disagree");
    if warm.status == MilpStatus::Optimal {
        prop_assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "objective mismatch: warm={} cold={}",
            warm.objective,
            cold.objective
        );
    }
    Ok(())
}

fn check_bnb_determinism(p: MilpProblem) -> Result<(), String> {
    for warm_nodes in [false, true] {
        let cfg = SolverConfig {
            warm_nodes,
            ..Default::default()
        };
        let a = branch_and_bound(&p, &cfg, WarmStart::default());
        let b = branch_and_bound(&p, &cfg, WarmStart::default());
        prop_assert_eq!(a.status, b.status, "status differs between identical runs");
        prop_assert_eq!(
            a.nodes,
            b.nodes,
            "node count differs between identical runs"
        );
        prop_assert!(
            a.objective.to_bits() == b.objective.to_bits()
                || (a.objective.is_nan() && b.objective.is_nan()),
            "objective not bitwise stable: {} vs {}",
            a.objective,
            b.objective
        );
        prop_assert_eq!(a.x.len(), b.x.len());
        for (va, vb) in a.x.iter().zip(&b.x) {
            prop_assert!(
                va.to_bits() == vb.to_bits(),
                "incumbent differs: {} vs {}",
                va,
                vb
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Warm re-solve from the parent's snapshot == cold solve of the child.
    #[test]
    fn warm_child_matches_cold_solve(case in arb_tightened_lp()) {
        let (lp, lo, hi) = case;
        check_warm_child(lp, lo, hi)?;
    }

    /// In-place chained re-solve (the dive path) == cold solve.
    #[test]
    fn chained_resolve_matches_cold_solve(case in arb_tightened_lp()) {
        let (lp, lo, hi) = case;
        check_chained_resolve(lp, lo, hi)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Warm node re-solves never change what branch and bound returns.
    #[test]
    fn bnb_warm_matches_cold(p in arb_ip()) {
        check_bnb_warm_vs_cold(p)?;
    }

    /// Seeded runs are bitwise reproducible, warm or cold: the exact
    /// incumbent vector must come out identical on a repeat run with the
    /// same configuration.
    #[test]
    fn bnb_is_deterministic(p in arb_ip()) {
        check_bnb_determinism(p)?;
    }
}
