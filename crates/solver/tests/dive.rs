//! The diving heuristic's two exact speedups (DESIGN.md §15).
//!
//! - **Cutoff exit.** A dive handed the caller's incumbent objective `c`
//!   stops once its LP chain proves it cannot return a point below `c`.
//!   Whatever the caller keeps (`obj < c`) must be bitwise what the uncut
//!   dive would have given it.
//! - **One LP per round.** The box a round's fixing solved is the next
//!   round's box, so a dive of `k` successful roundings solves `k + 1` LPs,
//!   not `2k + 1`.
//!
//! The LP counts read the process-global telemetry counters, so every test
//! takes one lock: a concurrent dive would otherwise add to a count.

use std::sync::{Arc, Mutex};

use birp_solver::heuristic::dive;
use birp_solver::lp::{LpProblem, RowCmp};
use birp_solver::simplex::{SimplexEngine, SimplexOptions};
use birp_solver::LpStatus;
use birp_telemetry as telemetry;
use proptest::prelude::*;

static TELEMETRY: Mutex<()> = Mutex::new(());

type Point = Option<(u64, Vec<u64>)>;

/// The bit pattern of a dive result the caller would keep under cutoff `c`.
fn kept(res: &Option<(f64, Vec<f64>)>, c: f64) -> Point {
    res.as_ref()
        .filter(|(obj, _)| *obj < c)
        .map(|(obj, x)| (obj.to_bits(), x.iter().map(|v| v.to_bits()).collect()))
}

/// A small mixed-integer program with binary, general and continuous
/// columns under knapsack-like rows, so that dives run several rounds,
/// skip variables and sometimes fail.
fn arb_milp() -> impl Strategy<Value = (LpProblem, Vec<usize>)> {
    (2usize..=9, 1usize..=4).prop_flat_map(|(n, m)| {
        let cols = proptest::collection::vec((0u8..=5, -9i32..=9, 0u8..=3), n);
        let rows = proptest::collection::vec(
            (
                proptest::collection::vec(-2i32..=5, n),
                prop_oneof![Just(RowCmp::Le), Just(RowCmp::Le), Just(RowCmp::Ge)],
                0.5f64..14.0,
            ),
            m,
        );
        (cols, rows).prop_map(move |(cols, rows)| {
            let mut lp = LpProblem::with_columns(n);
            let mut ints = Vec::new();
            for (j, &(ub, c, kind)) in cols.iter().enumerate() {
                // kind 0: binary, 1–2: general integer, 3: continuous.
                lp.upper[j] = if kind == 0 { 1.0 } else { f64::from(ub) + 0.5 };
                lp.objective[j] = f64::from(c) + 0.25 * f64::from(kind);
                if kind < 3 {
                    ints.push(j);
                }
            }
            for (coeffs, cmp, rhs) in rows {
                let sparse: Vec<(usize, f64)> = coeffs
                    .into_iter()
                    .enumerate()
                    .filter(|&(_, a)| a != 0)
                    .map(|(j, a)| (j, f64::from(a)))
                    .collect();
                lp.push_row(sparse, cmp, rhs);
            }
            (lp, ints)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For cutoffs on both sides of the uncut dive's objective (and around
    /// the root relaxation when the uncut dive fails), a cut dive keeps
    /// exactly what the uncut dive would have kept, bit for bit — with and
    /// without a root snapshot seeding the first LP.
    #[test]
    fn cutoff_dive_keeps_what_the_uncut_dive_keeps(
        milp in arb_milp(),
        seeded in 0u8..=1,
        offsets in proptest::collection::vec(-4.0f64..4.0, 3),
    ) {
        let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let (lp, ints) = milp;
        let opts = SimplexOptions::default();
        let mut eng = SimplexEngine::new();
        let root = eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts);
        let snap = if seeded == 1 && root.status == LpStatus::Optimal {
            eng.snapshot()
        } else {
            None
        };
        let run = |c: f64| dive(&lp, &ints, &lp.lower, &lp.upper, snap.as_ref(), &opts, c);
        let uncut = run(f64::INFINITY);
        let anchor = match (&uncut, root.status) {
            (Some((obj, _)), _) => *obj,
            (None, LpStatus::Optimal) => root.objective,
            (None, _) => 0.0,
        };
        let mut cutoffs = vec![anchor, anchor - 1e-9, anchor + 1e-9, anchor - 0.5, anchor + 0.5];
        cutoffs.extend(offsets.iter().map(|d| anchor + d));
        for c in cutoffs {
            let cut = run(c);
            prop_assert_eq!(kept(&cut, c), kept(&uncut, c), "cutoff {}", c);
        }
    }
}

/// `k` general integers, each capped by its own fractional row `x_j <=
/// j + 0.5` and pushed up by the objective: every relaxation is fractional
/// in each unfixed column, and rounding it down (the near direction for a
/// general integer) is always feasible. The dive therefore fixes one column
/// per round for `k` rounds and finds the integral point on the LP it
/// carried out of the last round: `k + 1` LP solves in all.
#[test]
fn dive_solves_one_lp_per_round() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let k = 6;
    let mut lp = LpProblem::with_columns(k);
    for j in 0..k {
        lp.upper[j] = 10.0;
        lp.objective[j] = -1.0 - j as f64;
        lp.push_row(vec![(j, 1.0)], RowCmp::Le, j as f64 + 0.5);
    }
    let ints: Vec<usize> = (0..k).collect();
    let opts = SimplexOptions::default();

    telemetry::init(
        Arc::new(telemetry::MemorySink::new()),
        telemetry::Level::Info,
    );
    let res = dive(&lp, &ints, &lp.lower, &lp.upper, None, &opts, f64::INFINITY);
    let summary = telemetry::summary();
    telemetry::reset();

    let (obj, x) = res.expect("rounding every column down stays feasible");
    for (j, v) in x.iter().enumerate() {
        assert_eq!(*v, j as f64, "column {j} rounds down to its floor");
    }
    let want: f64 = (0..k).map(|j| -(1.0 + j as f64) * j as f64).sum();
    assert_eq!(obj, want);
    let lps = summary.counter("solver.lp_warm").unwrap_or(0)
        + summary.counter("solver.lp_cold").unwrap_or(0);
    assert_eq!(lps, k as u64 + 1, "a {k}-round dive solves k + 1 LPs");
    for exit in [
        "solver.dive_cutoff",
        "solver.dive_exhausted",
        "solver.dive_infeasible",
        "solver.dive_stuck",
    ] {
        assert_eq!(
            summary.counter(exit),
            None,
            "{exit} on a dive that found a point"
        );
    }
}

/// A cutoff below the root relaxation's value stops the dive on its first
/// LP and records the exit as `solver.dive_cutoff`.
#[test]
fn cutoff_below_the_root_stops_at_the_first_lp() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let mut lp = LpProblem::with_columns(3);
    lp.objective = vec![-10.0, -13.0, -7.0];
    lp.upper = vec![1.0; 3];
    lp.push_row(vec![(0, 3.0), (1, 4.0), (2, 2.0)], RowCmp::Le, 5.0);
    let opts = SimplexOptions::default();

    telemetry::init(
        Arc::new(telemetry::MemorySink::new()),
        telemetry::Level::Info,
    );
    // The relaxation's optimum is -17; nothing in the box reaches -30.
    let res = dive(&lp, &[0, 1, 2], &lp.lower, &lp.upper, None, &opts, -30.0);
    let summary = telemetry::summary();
    telemetry::reset();

    assert!(res.is_none());
    assert_eq!(summary.counter("solver.dive_cutoff"), Some(1));
    let lps = summary.counter("solver.lp_warm").unwrap_or(0)
        + summary.counter("solver.lp_cold").unwrap_or(0);
    assert_eq!(lps, 1);
}
