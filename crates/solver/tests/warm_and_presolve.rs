//! Property tests for the newer solver layers: presolve soundness and
//! warm-start handling, cross-validated against brute force.
//!
//! The IP generator and lattice brute force live in
//! `birp_conformance::strategies`, shared with the other solver proptests.

use birp_conformance::strategies::{arb_ip, brute_force_milp as brute_force};
use birp_solver::milp::{branch_and_bound, MilpProblem, MilpStatus};
use birp_solver::presolve::{presolve, PresolveStatus};
use birp_solver::simplex::{solve_bounded, solve_reference};
use birp_solver::{LpStatus, SolverConfig};
use proptest::prelude::*;

/// Promoted from `warm_and_presolve.proptest-regressions`: a single binary
/// variable with zero objective constrained by the equality row
/// `x = 0.3150751831996301`. The LP relaxation is feasible (and optimal at
/// the fractional point) while the integer lattice is empty — the exact
/// shape that once tripped the presolve/bnb infeasibility handshake. Runs
/// unconditionally so the seed can never rot in a sidecar file.
#[test]
fn regression_fractional_equality_is_integer_infeasible() {
    let mut lp = birp_solver::lp::LpProblem::with_columns(1);
    lp.upper[0] = 1.0;
    lp.push_row(
        vec![(0, 1.0)],
        birp_solver::lp::RowCmp::Eq,
        0.3150751831996301,
    );
    let p = MilpProblem {
        lp,
        integers: vec![0],
    };
    assert!(
        brute_force(&p).is_none(),
        "no lattice point satisfies the row"
    );
    let r = branch_and_bound(&p, &SolverConfig::default(), None);
    assert_eq!(r.status, MilpStatus::Infeasible);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Presolve is integer-aware (bounds round inward on integer columns),
    /// so it preserves the *MILP*, not the LP relaxation: an infeasibility
    /// verdict must match brute force over the lattice, and a surviving
    /// relaxation may only get tighter (never better) than the original.
    #[test]
    fn presolve_preserves_milp(p in arb_ip()) {
        let before = solve_reference(&p.lp);
        let mut reduced = p.lp.clone();
        let (st, _) = presolve(&mut reduced, &p.integers);
        match st {
            PresolveStatus::Infeasible => {
                prop_assert!(
                    brute_force(&p).is_none(),
                    "presolve declared infeasible but an integer point exists"
                );
            }
            PresolveStatus::Reduced => {
                let after = solve_bounded(&reduced);
                if after.status == LpStatus::Optimal {
                    prop_assert_eq!(before.status, LpStatus::Optimal);
                    prop_assert!(after.objective >= before.objective - 1e-6,
                        "presolve relaxed the problem: {} < {}", after.objective, before.objective);
                }
            }
        }
    }

    /// Branch and bound (with presolve inside) still matches brute force.
    #[test]
    fn bnb_with_presolve_matches_brute_force(p in arb_ip()) {
        let r = branch_and_bound(&p, &SolverConfig::default(), None);
        match brute_force(&p) {
            None => prop_assert_eq!(r.status, MilpStatus::Infeasible),
            Some((best, _)) => {
                prop_assert_eq!(r.status, MilpStatus::Optimal);
                prop_assert!((r.objective - best).abs() < 1e-6,
                    "bnb={} brute={}", r.objective, best);
            }
        }
    }

    /// A brute-force optimal point supplied as warm start is never rejected
    /// and never made worse.
    #[test]
    fn warm_start_is_honoured(p in arb_ip()) {
        if let Some((best, point)) = brute_force(&p) {
            let cfg = SolverConfig {
                // Zero search budget beyond the root: the warm start must
                // carry the result on its own.
                node_limit: 1,
                root_dive: false,
                ..Default::default()
            };
            let r = branch_and_bound(&p, &cfg, Some(point.as_slice()));
            prop_assert!(matches!(r.status, MilpStatus::Optimal | MilpStatus::Feasible));
            prop_assert!(r.objective <= best + 1e-6,
                "warm start lost: got {} expected <= {}", r.objective, best);
            prop_assert!(p.lp.max_violation(&r.x) < 1e-6);
        }
    }

    /// Garbage warm starts are ignored, not trusted.
    #[test]
    fn invalid_warm_start_is_rejected(p in arb_ip()) {
        let n = p.lp.num_cols();
        // A point far outside every bound.
        let bad = vec![1e9; n];
        let r = branch_and_bound(&p, &SolverConfig::default(), Some(bad.as_slice()));
        match brute_force(&p) {
            None => prop_assert_eq!(r.status, MilpStatus::Infeasible),
            Some((best, _)) => {
                prop_assert_eq!(r.status, MilpStatus::Optimal);
                prop_assert!((r.objective - best).abs() < 1e-6);
            }
        }
    }
}
