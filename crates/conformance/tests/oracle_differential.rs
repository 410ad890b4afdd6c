//! Differential testing: the production branch and bound against the
//! brute-force oracle, under every solver toggle.
//!
//! 125 proptest cases x 5 solver configurations = 625 oracle-checked solves
//! per default run (the nightly CI job raises `PROPTEST_CASES` to 4096).
//! Each configuration flips exactly one fast-path feature relative to the
//! baseline, so a regression in (say) the warm-node dual simplex shows up as
//! "cold-nodes passes, default fails" rather than a generic mismatch.

use birp_conformance::{arb_tiny_instance, oracle_report};
use birp_solver::{SimplexOptions, SolverConfig};
use proptest::prelude::*;

/// Exact-solve baseline: gap tight enough that the only admissible
/// incumbent is the true optimum, node budget far beyond what tiny
/// instances need.
fn exact_base() -> SolverConfig {
    SolverConfig {
        node_limit: 50_000,
        rel_gap: 1e-9,
        root_dive: true,
        trust_warm: false,
        warm_nodes: true,
        presolve: true,
        max_pivots: None,
        simplex: SimplexOptions::default(),
    }
}

/// The toggle matrix. Every entry must reach the same optimum.
fn toggle_configs() -> Vec<(&'static str, SolverConfig)> {
    let base = exact_base();
    vec![
        ("default", base.clone()),
        (
            "cold-nodes",
            SolverConfig {
                warm_nodes: false,
                ..base.clone()
            },
        ),
        (
            "no-presolve",
            SolverConfig {
                presolve: false,
                ..base.clone()
            },
        ),
        (
            "no-dive",
            SolverConfig {
                root_dive: false,
                ..base.clone()
            },
        ),
        (
            "degenerate-pricing",
            SolverConfig {
                simplex: SimplexOptions {
                    candidate_cap: 1,
                    ..SimplexOptions::default()
                },
                ..base
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(125))]

    /// Under every toggle the incumbent objective equals the brute-force
    /// optimum and the decoded schedule conserves requests.
    #[test]
    fn solver_matches_oracle_under_all_toggles(inst in arb_tiny_instance()) {
        let oracle = oracle_report(&inst);
        let total = inst.demand.total();
        let tol = 1e-6 * (1.0 + oracle.objective.abs());
        for (name, cfg) in toggle_configs() {
            let (schedule, stats) = inst.problem().solve(&cfg).expect("tiny solve failed");
            prop_assert!(
                (stats.objective - oracle.objective).abs() <= tol,
                "[{name}] solver objective {} != oracle {} (leaves={}, best batches {:?})",
                stats.objective, oracle.objective, oracle.leaves_checked, oracle.best_batches,
            );
            prop_assert_eq!(
                schedule.served() + schedule.total_unserved(),
                total,
                "[{}] schedule does not conserve requests", name,
            );
        }
    }

    /// Under a starved node budget the solve must degrade, not break:
    /// it still returns a conservation-clean schedule whose objective is
    /// no better than the true optimum (nothing can beat the oracle) and
    /// no worse than serving nothing at all.
    #[test]
    fn budget_degradation_is_graceful(inst in arb_tiny_instance()) {
        let oracle = oracle_report(&inst);
        let cfg = SolverConfig {
            node_limit: 1,
            ..exact_base()
        };
        let (schedule, stats) = inst.problem().solve(&cfg).expect("degraded solve failed");
        let total = inst.demand.total();
        let tol = 1e-6 * (1.0 + oracle.objective.abs());
        let all_drop = inst.cfg.drop_penalty * total as f64;
        prop_assert!(
            stats.objective >= oracle.objective - tol,
            "degraded incumbent {} beats the oracle optimum {}",
            stats.objective, oracle.objective,
        );
        prop_assert!(
            stats.objective <= all_drop + tol,
            "degraded incumbent {} is worse than dropping everything ({})",
            stats.objective, all_drop,
        );
        prop_assert_eq!(schedule.served() + schedule.total_unserved(), total);
    }
}
