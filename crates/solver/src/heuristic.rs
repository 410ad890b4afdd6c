//! Primal heuristics for branch and bound.
//!
//! [`dive`] implements LP-guided diving: repeatedly solve the relaxation,
//! fix the most fractional integer variable to its nearest integer (trying
//! the other rounding direction on infeasibility), and recurse until the
//! relaxation is integral. This is how branch and bound gets a good first
//! incumbent after a single-digit number of LP solves, which in turn is what
//! lets the BIRP per-slot solves run with small node budgets at a bounded,
//! reported optimality gap.
//!
//! Dives dominate the LP-solve count under the small per-slot node budgets,
//! so they are the main beneficiary of the warm-start machinery: after the
//! first relaxation, every fixing re-optimises the engine *in place*
//! ([`SimplexEngine::resolve_with_bounds`]) — a few dual-simplex pivots
//! instead of a full two-phase solve per round.

use birp_telemetry as telemetry;

use crate::lp::{LpProblem, LpSolution, LpStatus};
use crate::milp::snap_integers;
use crate::simplex::{with_engine, EngineSnapshot, SimplexEngine, SimplexOptions};

/// Solve the relaxation over `[lo, hi]`, warm when possible: first from the
/// engine's own state (the previous round of this dive), then from `seed`
/// (the B&B node snapshot that launched the dive), and cold as the last
/// resort. Tracks warm/cold counts for the solver telemetry ratio.
fn dive_solve(
    eng: &mut SimplexEngine,
    lp: &LpProblem,
    lo: &[f64],
    hi: &[f64],
    seed: Option<&EngineSnapshot>,
    opts: &SimplexOptions,
    allow_chain: bool,
) -> LpSolution {
    // `allow_chain` guards against stale thread-local state: the engine may
    // still hold a coincidentally shape-compatible tableau from a *different*
    // problem, so in-place re-solves are only trusted once this dive has
    // loaded `lp` itself.
    if allow_chain {
        if let Some(sol) = eng.resolve_with_bounds(lp, lo, hi, opts) {
            telemetry::counter("solver.lp_warm", 1);
            telemetry::counter("solver.warm_pivots", sol.iterations as u64);
            return sol;
        }
    }
    if let Some(snap) = seed {
        if let Some(sol) = eng.solve_warm(lp, snap, lo, hi, opts) {
            telemetry::counter("solver.lp_warm", 1);
            telemetry::counter("solver.warm_pivots", sol.iterations as u64);
            return sol;
        }
    }
    let sol = eng.solve_cold(lp, lo, hi, opts);
    telemetry::counter("solver.lp_cold", 1);
    telemetry::counter("solver.cold_pivots", sol.iterations as u64);
    sol
}

/// Attempt to find an integral feasible point inside the box
/// `[lower, upper]` whose objective beats `cutoff` (pass `f64::INFINITY`
/// for no cutoff). Returns `(objective, x)` on success. `seed` may carry
/// the engine snapshot of the B&B node the dive starts from, warm-starting
/// even the first relaxation.
///
/// Strategy: *guided fractional diving* in two phases.
///
/// 1. **Binaries first.** Indicator-style structures (`b <= cap * x`) wedge
///    a binary between its coupled general integers once those are fixed:
///    with `b` pinned at 9, neither `x = 0` (violates the cap) nor `x = 1`
///    (may violate a resource row) need be feasible, even though fractional
///    `x` was. Rounding every binary while the general integers are still
///    free avoids the wedge entirely.
/// 2. **Generals floor-first.** Rounding a general integer *down* only
///    relaxes resource rows (and equality rows re-balance through the
///    remaining continuous columns), so the floor direction almost always
///    survives; ceiling is the fallback.
///
/// Within each phase the least-fractional variable goes first (its rounding
/// perturbs the relaxation least).
///
/// **One LP per round.** The box a round's fixing solved is the box the
/// next round starts from, so that solution is carried over instead of
/// re-solved. Only a skipped variable (both roundings infeasible) restores
/// the round's own box, and then the next round solves it again.
///
/// **Cutoff exit** (DESIGN.md §15). Every box the dive solves lies inside
/// the box before it (a skip only restores the round's own box), so the
/// LP value never falls along the chain; snapping an integral LP point
/// moves its objective by at most `INT_TOL · Σ_{j∈ints} |c_j|`. Once an
/// optimal LP in the chain reaches `cutoff` plus that snap slack (and a
/// `1e-6` relative tolerance for LP round-off), every point the dive could
/// still return has objective `>= cutoff`, so it stops with `None`: for
/// every `c`, `dive(.., c)` filtered to `obj < c` equals the uncut dive
/// filtered the same way.
pub fn dive(
    lp: &LpProblem,
    integers: &[usize],
    lower: &[f64],
    upper: &[f64],
    seed: Option<&EngineSnapshot>,
    opts: &SimplexOptions,
    cutoff: f64,
) -> Option<(f64, Vec<f64>)> {
    let mut lo = lower.to_vec();
    let mut hi = upper.to_vec();

    let snap_slack: f64 = integers.iter().map(|&j| lp.objective[j].abs()).sum();
    let prune_at = cutoff + crate::INT_TOL * snap_slack + 1e-6 * cutoff.abs().max(1.0);

    // Binary classification against the *entry* box (fixed variables would
    // otherwise masquerade as binaries).
    let is_binary: Vec<bool> = (0..lp.num_cols())
        .map(|j| upper[j] - lower[j] <= 1.0 + crate::INT_TOL)
        .collect();

    // Variables whose rounding turned out infeasible both ways; they are
    // left to drift with the relaxation and re-checked at the end (often
    // they become integral once everything around them is fixed).
    let mut skipped: Vec<bool> = vec![false; lp.num_cols()];
    let mut skips_left = 6usize;

    // Each successful round fixes one variable; rounds needed track the
    // *fractional* count of the relaxation (typically far below the integer
    // count), so a fixed cap keeps worst-case dive cost bounded on the
    // 400-variable large-scale problems.
    let max_rounds = integers.len().min(96) + 8;
    with_engine(|eng| {
        let mut chained = false;
        // The previous round's solve of the box this round starts from.
        let mut carried: Option<LpSolution> = None;
        for _ in 0..max_rounds {
            let sol = match carried.take() {
                Some(sol) => sol,
                None => {
                    let sol = dive_solve(eng, lp, &lo, &hi, seed, opts, chained);
                    chained = true;
                    sol
                }
            };
            if sol.status != LpStatus::Optimal {
                telemetry::counter("solver.dive_infeasible", 1);
                return None;
            }
            if sol.objective >= prune_at {
                telemetry::counter("solver.dive_cutoff", 1);
                return None;
            }

            // Find the least-fractional unfixed variable, binaries strictly
            // first (see the phase discussion above). Deliberately do NOT
            // freeze variables that merely happen to be integral right now:
            // slack-like columns — overflow, routing — often sit at 0 in early
            // relaxations but must move once batches get rounded.
            let mut bin_target: Option<(usize, f64, f64)> = None; // (var, value, frac)
            let mut gen_target: Option<(usize, f64, f64)> = None;
            let mut all_integral = true;
            for &j in integers {
                let v = sol.x[j];
                let frac = (v - v.round()).abs();
                if frac > crate::INT_TOL {
                    all_integral = false;
                    if skipped[j] {
                        continue;
                    }
                    let slot = if is_binary[j] {
                        &mut bin_target
                    } else {
                        &mut gen_target
                    };
                    match slot {
                        Some((_, _, bf)) if *bf <= frac => {}
                        _ => *slot = Some((j, v, frac)),
                    }
                }
            }
            let target = bin_target.or(gen_target);
            if all_integral {
                let mut x = sol.x;
                snap_integers(&mut x, integers);
                // Snapping can disturb rows; verify before claiming feasibility.
                if lp.max_violation_with_bounds(&x, &lo, &hi) > 1e-6 {
                    telemetry::counter("solver.dive_infeasible", 1);
                    return None;
                }
                let obj = lp.objective_at(&x);
                return Some((obj, x));
            }
            let Some((j, v, _)) = target else {
                // Only skipped variables remain fractional.
                telemetry::counter("solver.dive_stuck", 1);
                return None;
            };

            // Binaries: ceiling first — a fractional indicator usually guards
            // capacity the relaxation is actively using, and switching it off
            // forfeits that capacity (expensive), while switching it on only
            // costs its resource footprint. Generals: floor first
            // (resource-safe).
            let (near, far) = if is_binary[j] {
                let up = v.ceil().clamp(lo[j], hi[j]);
                (up, up - 1.0)
            } else {
                let down = v.floor().clamp(lo[j], hi[j]);
                (down, down + 1.0)
            };

            let (old_lo, old_hi) = (lo[j], hi[j]);
            lo[j] = near;
            hi[j] = near;
            let near_sol = dive_solve(eng, lp, &lo, &hi, seed, opts, chained);
            if near_sol.status == LpStatus::Optimal {
                carried = Some(near_sol);
                continue;
            }
            if far >= old_lo - 1e-12 && far <= old_hi + 1e-12 {
                lo[j] = far;
                hi[j] = far;
                let far_sol = dive_solve(eng, lp, &lo, &hi, seed, opts, chained);
                if far_sol.status == LpStatus::Optimal {
                    carried = Some(far_sol);
                    continue;
                }
            }
            // Both roundings infeasible: restore the variable and move on.
            if skips_left == 0 {
                telemetry::counter("solver.dive_stuck", 1);
                return None;
            }
            skips_left -= 1;
            lo[j] = old_lo;
            hi[j] = old_hi;
            skipped[j] = true;
        }
        telemetry::counter("solver.dive_exhausted", 1);
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::RowCmp;

    fn opts() -> SimplexOptions {
        SimplexOptions::default()
    }

    #[test]
    fn dive_finds_integral_point_on_knapsack() {
        let mut lp = LpProblem::with_columns(3);
        lp.objective = vec![-10.0, -13.0, -7.0];
        lp.upper = vec![1.0; 3];
        lp.push_row(vec![(0, 3.0), (1, 4.0), (2, 2.0)], RowCmp::Le, 5.0);
        let ints = [0, 1, 2];
        let (obj, x) = dive(
            &lp,
            &ints,
            &lp.lower.clone(),
            &lp.upper.clone(),
            None,
            &opts(),
            f64::INFINITY,
        )
        .unwrap();
        assert!(lp.max_violation(&x) < 1e-6);
        for &j in &ints {
            assert!((x[j] - x[j].round()).abs() < 1e-9);
        }
        // Not necessarily optimal (-17), but feasible and better than empty.
        assert!(obj <= 0.0);
    }

    #[test]
    fn dive_handles_already_integral_relaxation() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 1.0];
        lp.upper = vec![3.0, 3.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 2.0);
        let (obj, _x) = dive(
            &lp,
            &[0, 1],
            &lp.lower.clone(),
            &lp.upper.clone(),
            None,
            &opts(),
            f64::INFINITY,
        )
        .unwrap();
        assert!((obj - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dive_returns_none_on_infeasible_box() {
        let mut lp = LpProblem::with_columns(1);
        lp.upper = vec![1.0];
        lp.push_row(vec![(0, 1.0)], RowCmp::Ge, 5.0);
        assert!(dive(
            &lp,
            &[0],
            &lp.lower.clone(),
            &lp.upper.clone(),
            None,
            &opts(),
            f64::INFINITY
        )
        .is_none());
    }

    #[test]
    fn dive_respects_tightened_box() {
        // Force x0 = 1 through the box even though the relaxation prefers 0.
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![5.0, 1.0];
        lp.upper = vec![1.0, 4.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 1.5);
        let lower = vec![1.0, 0.0];
        let upper = vec![1.0, 4.0];
        let (_, x) = dive(&lp, &[0, 1], &lower, &upper, None, &opts(), f64::INFINITY).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dive_accepts_seed_snapshot() {
        // Seeding with the root relaxation snapshot must not change the
        // qualitative outcome (feasible point on the knapsack).
        let mut lp = LpProblem::with_columns(3);
        lp.objective = vec![-10.0, -13.0, -7.0];
        lp.upper = vec![1.0; 3];
        lp.push_row(vec![(0, 3.0), (1, 4.0), (2, 2.0)], RowCmp::Le, 5.0);
        let snap = {
            let mut eng = SimplexEngine::new();
            let s = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts());
            assert_eq!(s.status, LpStatus::Optimal);
            eng.snapshot().unwrap()
        };
        let (obj, x) = dive(
            &lp,
            &[0, 1, 2],
            &lp.lower.clone(),
            &lp.upper.clone(),
            Some(&snap),
            &opts(),
            f64::INFINITY,
        )
        .unwrap();
        assert!(lp.max_violation(&x) < 1e-6);
        assert!(obj <= 0.0);
    }
}
