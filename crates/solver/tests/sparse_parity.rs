//! Sparse-vs-dense simplex engine parity.
//!
//! The sparse revised core must be observationally equivalent to the dense
//! tableau core it replaced:
//!
//! * **LP level** — on random LPs both engines agree on status and
//!   objective (within 1e-7), both solutions are primal feasible, and each
//!   engine's own vertex certificate (basis status + reduced costs) is
//!   dual-sign-consistent. Reduced costs are checked against each engine's
//!   *own* basis, not cross-engine: degenerate LPs admit multiple optimal
//!   bases and the two algorithms may legitimately land on different ones.
//! * **MILP level** — the full branch-and-bound stack under every
//!   conformance toggle config reaches the same optimum with
//!   `SimplexMode::Sparse` as with `SimplexMode::Dense`.
//! * **Numerics** — a near-degenerate instance with `refactor_interval: 1`
//!   forces mid-solve refactorizations on every eta append; the result must
//!   be bitwise-identical across two runs (the rebuild path is fully
//!   deterministic: pivot order, tie-breaks and counting sorts are all
//!   data-independent).

use birp_solver::lp::{LpProblem, RowCmp};
use birp_solver::simplex::{SimplexEngine, SimplexMode, SimplexOptions};
use birp_solver::{LpStatus, SolverConfig};
use proptest::prelude::*;

fn opts(mode: SimplexMode) -> SimplexOptions {
    SimplexOptions {
        mode,
        ..SimplexOptions::default()
    }
}

/// Random LP over a wider shape range than `simplex_cross` (the sparse
/// kernels have corner cases — empty FTRAN results, singleton columns —
/// that only appear with some room to move).
fn arb_lp() -> impl Strategy<Value = LpProblem> {
    (1usize..=12, 0usize..=10).prop_flat_map(|(n, m)| {
        let bounds = proptest::collection::vec((0.0f64..3.0, 0.0f64..5.0), n);
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

/// Dual sign consistency of one engine's vertex certificate: at an optimum
/// a variable resting at its lower bound must not price in (z >= -tol),
/// one at its upper bound must not price in the other way (z <= tol), and
/// a basic variable's reduced cost is zero.
fn assert_dual_signs(states: &[i8], z: &[f64], tag: &str) {
    for (j, (&s, &zj)) in states.iter().zip(z).enumerate() {
        match s {
            0 => assert!(zj.abs() <= 1e-7, "[{tag}] basic col {j} has z={zj}"),
            -1 => assert!(zj >= -1e-7, "[{tag}] at-lower col {j} has z={zj}"),
            1 => assert!(zj <= 1e-7, "[{tag}] at-upper col {j} has z={zj}"),
            _ => unreachable!(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Forced-sparse and forced-dense solves of the same LP agree on
    /// status and objective; both certificates are dual-sign-consistent.
    #[test]
    fn lp_parity_sparse_vs_dense(lp in arb_lp()) {
        let mut dense_eng = SimplexEngine::new();
        let mut sparse_eng = SimplexEngine::new();
        let dense = dense_eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts(SimplexMode::Dense));
        let sparse = sparse_eng.solve_cold(&lp, &lp.lower, &lp.upper, &opts(SimplexMode::Sparse));
        prop_assert_eq!(dense.status, sparse.status, "status mismatch");
        if dense.status == LpStatus::Optimal {
            let scale = dense.objective.abs().max(1.0);
            prop_assert!(
                (dense.objective - sparse.objective).abs() / scale < 1e-7,
                "objective mismatch: dense={} sparse={}",
                dense.objective,
                sparse.objective
            );
            prop_assert!(lp.max_violation(&sparse.x) < 1e-6,
                "sparse solution violates by {}", lp.max_violation(&sparse.x));
            prop_assert!(lp.max_violation(&dense.x) < 1e-6,
                "dense solution violates by {}", lp.max_violation(&dense.x));
            if let Some((_, states, z)) = dense_eng.vertex_report() {
                assert_dual_signs(&states, &z, "dense");
            }
            if let Some((_, states, z)) = sparse_eng.vertex_report() {
                assert_dual_signs(&states, &z, "sparse");
            }
        }
    }

    /// Warm restarts must agree across engines too: tighten a random
    /// column's bounds and re-solve from each engine's own snapshot.
    #[test]
    fn warm_parity_sparse_vs_dense(lp in arb_lp(), pick in 0usize..64) {
        let mut dense_eng = SimplexEngine::new();
        let mut sparse_eng = SimplexEngine::new();
        let d0 = dense_eng.try_solve_cold(&lp, &lp.lower, &lp.upper, &opts(SimplexMode::Dense));
        let s0 = sparse_eng.try_solve_cold(&lp, &lp.lower, &lp.upper, &opts(SimplexMode::Sparse));
        let (Some(d0), Some(s0)) = (d0, s0) else { return Ok(()); };
        if d0.status != LpStatus::Optimal || s0.status != LpStatus::Optimal {
            return Ok(());
        }
        let (Some(dsnap), Some(ssnap)) = (dense_eng.snapshot(), sparse_eng.snapshot()) else {
            return Ok(());
        };
        // Tighten one column to the floor of its optimal value (a branching
        // step in miniature).
        let j = pick % lp.num_cols();
        let mut lo = lp.lower.clone();
        let mut hi = lp.upper.clone();
        let v = d0.x[j].floor().clamp(lo[j], hi[j]);
        lo[j] = v;
        hi[j] = v;
        let dw = dense_eng.solve_warm(&lp, &dsnap, &lo, &hi, &opts(SimplexMode::Dense));
        let sw = sparse_eng.solve_warm(&lp, &ssnap, &lo, &hi, &opts(SimplexMode::Sparse));
        let (Some(dw), Some(sw)) = (dw, sw) else { return Ok(()); };
        prop_assert_eq!(dw.status, sw.status, "warm status mismatch");
        if dw.status == LpStatus::Optimal {
            let scale = dw.objective.abs().max(1.0);
            prop_assert!(
                (dw.objective - sw.objective).abs() / scale < 1e-7,
                "warm objective mismatch: dense={} sparse={}",
                dw.objective,
                sw.objective
            );
        }
    }
}

/// The five conformance toggle configurations (mirrors
/// `oracle_differential.rs`), parameterised by simplex mode.
fn toggle_configs(mode: SimplexMode) -> Vec<(&'static str, SolverConfig)> {
    let base = SolverConfig {
        node_limit: 50_000,
        rel_gap: 1e-9,
        root_dive: true,
        trust_warm: false,
        warm_nodes: true,
        presolve: true,
        max_pivots: None,
        simplex: opts(mode),
    };
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
                    ..opts(mode)
                },
                ..base
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Full-stack MILP parity: under every toggle config, forcing the
    /// sparse engine reaches the same optimum as forcing the dense engine.
    #[test]
    fn milp_toggle_parity(inst in birp_conformance::arb_tiny_instance()) {
        for ((name, dense_cfg), (_, sparse_cfg)) in
            toggle_configs(SimplexMode::Dense)
                .into_iter()
                .zip(toggle_configs(SimplexMode::Sparse))
        {
            let (_, dstats) = inst.problem().solve(&dense_cfg).expect("dense solve failed");
            let (_, sstats) = inst.problem().solve(&sparse_cfg).expect("sparse solve failed");
            let tol = 1e-6 * (1.0 + dstats.objective.abs());
            prop_assert!(
                (dstats.objective - sstats.objective).abs() <= tol,
                "[{name}] dense objective {} != sparse objective {}",
                dstats.objective,
                sstats.objective,
            );
        }
    }
}

/// Near-degenerate instance: every pairwise row has the same slack, so the
/// primal ratio test hits ties on almost every pivot, and a coupling
/// equality forces phase-1 artificials through the LU.
fn near_degenerate_lp() -> LpProblem {
    let n = 12;
    let mut lp = LpProblem::with_columns(n);
    for j in 0..n {
        // Near-identical costs: pricing ties at 1e-12 scale.
        lp.objective[j] = -1.0 - (j % 3) as f64 * 1e-12;
        lp.upper[j] = 1.0;
    }
    for j in 0..n - 1 {
        lp.push_row(vec![(j, 1.0), (j + 1, 1.0)], RowCmp::Le, 1.0);
    }
    lp.push_row((0..n).map(|j| (j, 1.0)).collect(), RowCmp::Eq, 5.0);
    lp
}

/// `refactor_interval: 1` rebuilds the LU after every eta append, so any
/// solve that pivots at all refactorizes mid-solve. Two runs must agree
/// bitwise — the factorization path has no data-dependent nondeterminism.
#[test]
fn forced_refactorization_is_bitwise_stable() {
    let lp = near_degenerate_lp();
    let stress = SimplexOptions {
        refactor_interval: 1,
        ..opts(SimplexMode::Sparse)
    };
    let run = || {
        let mut eng = SimplexEngine::new();
        let sol = eng
            .try_solve_cold(&lp, &lp.lower, &lp.upper, &stress)
            .expect("stress instance must solve on the fast path");
        let (sparse_active, _, z) = eng.vertex_report().expect("ready engine");
        assert!(sparse_active, "sparse core must survive the stress solve");
        (sol, z)
    };
    let (a, za) = run();
    let (b, zb) = run();
    assert_eq!(a.status, LpStatus::Optimal);
    assert!(
        (a.objective + 5.0).abs() < 1e-9,
        "expected optimum -5, got {}",
        a.objective
    );
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "objective must be bitwise stable across runs"
    );
    assert_eq!(a.x.len(), b.x.len());
    for (j, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(
            xa.to_bits(),
            xb.to_bits(),
            "x[{j}] differs across identical runs: {xa} vs {xb}"
        );
    }
    for (j, (va, vb)) in za.iter().zip(&zb).enumerate() {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "z[{j}] differs across identical runs: {va} vs {vb}"
        );
    }
    // And the stressed cadence must not change the answer vs the default.
    let mut eng = SimplexEngine::new();
    let normal = eng
        .try_solve_cold(&lp, &lp.lower, &lp.upper, &opts(SimplexMode::Sparse))
        .expect("default cadence solve");
    assert!((normal.objective - a.objective).abs() < 1e-9);
}
