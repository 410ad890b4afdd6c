//! Property-based validation of branch and bound against brute-force
//! enumeration on small pure-integer programs.

use birp_conformance::strategies::{arb_ip, brute_force_milp};
use birp_solver::milp::{branch_and_bound, MilpProblem, MilpStatus, WarmStart};
use birp_solver::SolverConfig;
use proptest::prelude::*;

/// Best lattice objective only (this file never needs the witness point).
/// Note the shared generator also emits `Eq` rows, which this file's old
/// private copy did not — strictly more coverage.
fn brute_force(p: &MilpProblem) -> Option<f64> {
    brute_force_milp(p).map(|(obj, _)| obj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bnb_matches_brute_force(p in arb_ip()) {
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
        match brute_force(&p) {
            None => prop_assert_eq!(r.status, MilpStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(r.status, MilpStatus::Optimal,
                    "expected optimal, got {:?} (brute force best {})", r.status, best);
                prop_assert!((r.objective - best).abs() < 1e-6,
                    "bnb={} brute={}", r.objective, best);
                // The returned point must be integral and feasible.
                prop_assert!(p.lp.max_violation(&r.x) < 1e-6);
                for &j in &p.integers {
                    prop_assert!((r.x[j] - r.x[j].round()).abs() < 1e-9);
                }
            }
        }
    }

    /// The reported bound is always a valid lower bound on the incumbent.
    #[test]
    fn bound_below_objective(p in arb_ip()) {
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
        if (r.status == MilpStatus::Optimal || r.status == MilpStatus::Feasible)
            && r.objective.is_finite()
        {
            prop_assert!(r.bound <= r.objective + 1e-6);
        }
    }
}
