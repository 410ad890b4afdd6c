//! Property tests for the newer solver layers: presolve soundness and
//! warm-start handling (incumbent points and the root basis),
//! cross-validated against brute force and the cold root.
//!
//! The IP generator and lattice brute force live in
//! `birp_conformance::strategies`, shared with the other solver proptests.

use birp_conformance::strategies::{arb_ip, brute_force_milp as brute_force};
use birp_solver::lp::{LpProblem, RowCmp};
use birp_solver::milp::{branch_and_bound, MilpProblem, MilpStatus, WarmStart};
use birp_solver::presolve::{presolve, PresolveStatus};
use birp_solver::simplex::{solve_bounded, solve_reference};
use birp_solver::{EngineSnapshot, LpStatus, SimplexEngine, SimplexOptions, SolverConfig};
use proptest::prelude::*;

/// The basis of an optimal cold solve of `lp`, captured as
/// `Model::solve_relaxation` captures it. `None` unless optimal.
fn relaxation_basis(lp: &LpProblem) -> Option<EngineSnapshot> {
    let mut eng = SimplexEngine::new();
    let sol = eng.solve_cold(lp, &lp.lower, &lp.upper, &SimplexOptions::default());
    (sol.status == LpStatus::Optimal)
        .then(|| eng.snapshot())
        .flatten()
}

/// Large node budget, tiny gap: every solve ends proven optimal, so two
/// roots that start from different vertices must agree on the optimum.
fn certifying(presolve: bool) -> SolverConfig {
    SolverConfig {
        node_limit: 50_000,
        rel_gap: 1e-9,
        presolve,
        ..Default::default()
    }
}

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
    let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
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
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
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
            let r = branch_and_bound(&p, &cfg, WarmStart::point(point.as_slice()));
            prop_assert!(matches!(r.status, MilpStatus::Optimal | MilpStatus::Feasible));
            prop_assert!(r.objective <= best + 1e-6,
                "warm start lost: got {} expected <= {}", r.objective, best);
            prop_assert!(p.lp.max_violation(&r.x) < 1e-6);
        }
    }

    /// A root restored from the relaxation's optimal basis reaches the
    /// cold root's verdict: same status, same optimum. With presolve off
    /// the rows always match, so the restore must actually happen.
    #[test]
    fn root_basis_reaches_the_cold_optimum(p in arb_ip(), presolve_bit in 0usize..2) {
        let presolve_on = presolve_bit == 1;
        let cfg = certifying(presolve_on);
        let basis = relaxation_basis(&p.lp);
        let cold = branch_and_bound(&p, &cfg, WarmStart::default());
        let warm = branch_and_bound(&p, &cfg, WarmStart { point: None, basis: basis.as_ref() });
        prop_assert!(!cold.root_restored);
        prop_assert_eq!(warm.status, cold.status);
        if matches!(cold.status, MilpStatus::Optimal | MilpStatus::Feasible) {
            prop_assert!((warm.objective - cold.objective).abs() < 1e-6,
                "restored root {} vs cold root {}", warm.objective, cold.objective);
        }
        if !presolve_on && basis.is_some() {
            prop_assert!(warm.root_restored, "rows match but the root solved cold");
        }
    }

    /// A basis with more rows than the presolved LP (here: the relaxation
    /// of the problem plus one redundant row) is ignored, and the search
    /// is bitwise the one that got no basis at all.
    #[test]
    fn root_basis_that_does_not_fit_is_ignored(p in arb_ip(), presolve_bit in 0usize..2) {
        let presolve_on = presolve_bit == 1;
        let cfg = certifying(presolve_on);
        let mut wider = p.lp.clone();
        let n = wider.num_cols();
        wider.push_row((0..n).map(|j| (j, 1.0)).collect(), RowCmp::Le, 1e3);
        let basis = relaxation_basis(&wider);
        let none = branch_and_bound(&p, &cfg, WarmStart::default());
        let misfit = branch_and_bound(&p, &cfg, WarmStart { point: None, basis: basis.as_ref() });
        // Debug prints every float in its round-trip form: bitwise.
        prop_assert_eq!(format!("{:?}", none), format!("{:?}", misfit));
        prop_assert!(!misfit.root_restored);
    }

    /// Garbage warm starts are ignored, not trusted.
    #[test]
    fn invalid_warm_start_is_rejected(p in arb_ip()) {
        let n = p.lp.num_cols();
        // A point far outside every bound.
        let bad = vec![1e9; n];
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::point(bad.as_slice()));
        match brute_force(&p) {
            None => prop_assert_eq!(r.status, MilpStatus::Infeasible),
            Some((best, _)) => {
                prop_assert_eq!(r.status, MilpStatus::Optimal);
                prop_assert!((r.objective - best).abs() < 1e-6);
            }
        }
    }
}
