//! Sharded-vs-monolithic conformance parity (DESIGN.md §14).
//!
//! The sharded decomposition scheduler replaces one monolithic slot MILP by
//! per-cluster sub-MILPs coupled through Lagrangian redistribution prices.
//! That is only admissible if it provably brackets the monolithic optimum:
//!
//! * **Bound parity** — on every tiny instance, under every solver toggle
//!   configuration, the coordinator's Lagrangian lower bound never exceeds
//!   the monolithic optimum and its primal upper bound never beats it
//!   (weak duality + primal feasibility).
//! * **Fallback parity** — with the monolithic fallback armed, the shipped
//!   objective lands within the configured duality-gap tolerance of the
//!   monolithic optimum.
//! * **Decoupled exactness** — when redistribution is priced out of the
//!   instance entirely (request size above every network budget), the
//!   decomposition is exact: stitched points are feasible unrepaired and
//!   the bounds collapse onto the monolithic optimum.
//! * **Partition invariance** — a partition with a single cluster is the
//!   monolithic scheduler, bitwise (same `Schedule` values, slot by slot).
//! * **Overlapped fallback** — the fallback solves the coordinator's own
//!   lowering with its guide LP beside presolve and the root LP; schedule
//!   and stats must equal a fresh guided build and solve, bitwise.
//!
//! The teeth test arms the stale-coupling-price fault
//! ([`birp_core::shard_fault_stale_price`]) — the classic dual-decomposition
//! bug where the price update lands in the coordinator but never reaches the
//! cluster models — and asserts this suite's instruments catch it: the gap
//! certificate collapses and the refresh≡rebuild cluster check breaks.

use birp_conformance::arb_tiny_instance;
use birp_core::problem::{RootDiveOutcome, SolveStats};
use birp_core::{
    shard_fault_stale_price, Birp, DemandMatrix, ProblemConfig, Scheduler, ShardConfig,
    ShardCoordinator, SlotProblem, TirMatrix,
};
use birp_mab::MabConfig;
use birp_models::{AppId, Catalog, EdgeId};
use birp_solver::{SimplexOptions, SolveBudget, SolverConfig};
use proptest::prelude::*;

/// Exact-solve baseline (mirrors `oracle_differential::exact_base`).
fn exact_base() -> SolverConfig {
    SolverConfig {
        node_limit: 50_000,
        rel_gap: 1e-9,
        parallel: false,
        root_dive: true,
        trust_warm: false,
        warm_nodes: true,
        presolve: true,
        simplex: SimplexOptions::default(),
        budget: SolveBudget::unlimited(),
    }
}

/// The same five-way toggle matrix the oracle differential runs.
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
            "parallel-no-dive",
            SolverConfig {
                parallel: true,
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

/// Singleton clusters: the finest partition, i.e. the hardest case for the
/// coupling relaxation (every redistribution crosses a cluster boundary).
fn singleton_shards() -> ShardConfig {
    ShardConfig {
        cluster_size: 1,
        max_iters: 6,
        gap_tol: 0.05,
        fallback: false,
    }
}

/// Bit patterns of every `SolveStats` field, for bitwise comparison.
type StatsBits = (
    u64,
    u64,
    usize,
    bool,
    bool,
    Vec<(u64, u64, u64)>,
    RootDiveOutcome,
);

fn stats_bits(s: &SolveStats) -> StatsBits {
    (
        s.objective.to_bits(),
        s.gap.to_bits(),
        s.nodes,
        s.optimal,
        s.degraded,
        s.incumbents
            .iter()
            .map(|&(n, o, g)| (n, o.to_bits(), g.to_bits()))
            .collect(),
        s.root_dive,
    )
}

/// Sharded decide with `gap_tol: 0.0`, so any positive duality gap takes
/// the fallback; checks it against the serial fallback (a full guided
/// build, then its solve). Returns whether the fallback ran.
#[allow(clippy::too_many_arguments)]
fn fallback_matches_serial(
    catalog: &Catalog,
    t: usize,
    demand: &DemandMatrix,
    tir: &TirMatrix,
    prev: Option<&birp_sim::Schedule>,
    cfg: &ProblemConfig,
    solver: &SolverConfig,
    cluster_size: usize,
) -> Result<bool, String> {
    let shard_cfg = ShardConfig {
        cluster_size,
        max_iters: 3,
        gap_tol: 0.0,
        fallback: true,
    };
    let mut coord = ShardCoordinator::new(catalog, shard_cfg);
    let out = coord.decide(catalog, t, demand, tir, prev, cfg, solver);
    if !out.fallback_used {
        return Ok(false);
    }
    let (schedule, stats) = SlotProblem::build_with_reuse(catalog, t, demand, tir, prev, cfg, None)
        .solve(solver)
        .map_err(|e| format!("serial fallback failed: {e:?}"))?;
    if out.schedule != schedule {
        return Err("overlapped fallback schedule differs from the serial one".into());
    }
    if stats_bits(&out.stats) != stats_bits(&stats) {
        return Err(format!(
            "overlapped fallback stats {:?} differ from the serial {:?}",
            out.stats, stats
        ));
    }
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The overlapped fallback is bitwise the serial one, under every
    /// solver toggle.
    #[test]
    fn overlapped_fallback_is_bitwise_the_serial_fallback(inst in arb_tiny_instance()) {
        for (name, cfg) in toggle_configs() {
            let checked = fallback_matches_serial(
                &inst.catalog,
                inst.slot(),
                &inst.demand,
                &inst.tir,
                inst.prev.as_ref(),
                &inst.cfg,
                &cfg,
                1,
            );
            prop_assert!(checked.is_ok(), "[{}] {}", name, checked.unwrap_err());
        }
    }

    /// Weak duality and primal feasibility against the monolithic exact
    /// optimum, under every solver toggle.
    #[test]
    fn sharded_bounds_bracket_monolithic_under_all_toggles(inst in arb_tiny_instance()) {
        let total = inst.demand.total();
        for (name, cfg) in toggle_configs() {
            let (_, mono) = inst.problem().solve(&cfg).expect("monolithic solve failed");
            let tol = 1e-6 * (1.0 + mono.objective.abs());
            let mut coord = ShardCoordinator::new(&inst.catalog, singleton_shards());
            let out = coord.decide(
                &inst.catalog,
                inst.slot(),
                &inst.demand,
                &inst.tir,
                inst.prev.as_ref(),
                &inst.cfg,
                &cfg,
            );
            prop_assert!(!out.fallback_used, "[{}] fallback disabled but used", name);
            prop_assert!(
                out.lower_bound <= mono.objective + tol,
                "[{name}] Lagrangian LB {} exceeds monolithic optimum {}",
                out.lower_bound, mono.objective,
            );
            prop_assert!(
                out.upper_bound >= mono.objective - tol,
                "[{name}] primal UB {} beats monolithic optimum {}",
                out.upper_bound, mono.objective,
            );
            prop_assert_eq!(
                out.schedule.served() + out.schedule.total_unserved(),
                total,
                "[{}] sharded schedule does not conserve requests", name,
            );
        }
    }

    /// With the monolithic fallback armed the shipped objective is within
    /// the configured duality-gap tolerance of the monolithic optimum.
    #[test]
    fn sharded_with_fallback_matches_monolithic_within_gap_tol(inst in arb_tiny_instance()) {
        let cfg = exact_base();
        let (_, mono) = inst.problem().solve(&cfg).expect("monolithic solve failed");
        let shard_cfg = ShardConfig { fallback: true, ..singleton_shards() };
        let mut coord = ShardCoordinator::new(&inst.catalog, shard_cfg);
        let out = coord.decide(
            &inst.catalog,
            inst.slot(),
            &inst.demand,
            &inst.tir,
            inst.prev.as_ref(),
            &inst.cfg,
            &cfg,
        );
        let tol = 1e-6 * (1.0 + mono.objective.abs());
        let slack = shard_cfg.gap_tol * out.upper_bound.abs().max(1.0) + tol;
        prop_assert!(
            (out.stats.objective - mono.objective).abs() <= slack,
            "shipped objective {} outside gap tolerance of monolithic {} (gap {}, fallback {})",
            out.stats.objective, mono.objective, out.duality_gap, out.fallback_used,
        );
        prop_assert_eq!(
            out.schedule.served() + out.schedule.total_unserved(),
            inst.demand.total(),
        );
    }

    /// Pricing redistribution out of the instance decouples the clusters:
    /// the decomposition must then be exact, with a feasible stitched point
    /// and bounds collapsing onto the monolithic optimum.
    #[test]
    fn decoupled_instances_are_exact(inst in arb_tiny_instance()) {
        let mut inst = inst;
        // One request is heavier than any edge's whole network window, so
        // no flow (and no model transfer ordering issue: transfers use the
        // same budget, making local redeploys strictly dominant).
        let max_budget = inst
            .catalog
            .edges
            .iter()
            .map(|e| e.network_budget_mb)
            .fold(0.0f64, f64::max);
        for app in &mut inst.catalog.apps {
            app.request_mb = max_budget + 1.0;
        }
        let cfg = exact_base();
        let (_, mono) = inst.problem().solve(&cfg).expect("monolithic solve failed");
        let mut coord = ShardCoordinator::new(&inst.catalog, singleton_shards());
        let out = coord.decide(
            &inst.catalog,
            inst.slot(),
            &inst.demand,
            &inst.tir,
            inst.prev.as_ref(),
            &inst.cfg,
            &cfg,
        );
        let tol = 1e-6 * (1.0 + mono.objective.abs());
        prop_assert!(!out.fallback_used);
        prop_assert!(
            out.stitched_feasible >= 1,
            "decoupled stitch should be feasible unrepaired (repaired {} times)",
            out.repair_used,
        );
        prop_assert!(
            (out.upper_bound - mono.objective).abs() <= tol,
            "decoupled UB {} != monolithic optimum {}",
            out.upper_bound, mono.objective,
        );
        prop_assert!(
            out.lower_bound >= mono.objective - tol,
            "decoupled LB {} below monolithic optimum {}",
            out.lower_bound, mono.objective,
        );
    }
}

/// A partition with fewer than two clusters IS the monolithic scheduler:
/// `Birp::with_shards` disables the coordinator and the decide path is the
/// unmodified monolithic one, so the schedules agree bitwise.
#[test]
fn single_cluster_partition_is_monolithic_bitwise() {
    let catalog = Catalog::small_scale(42);
    let solver = SolverConfig::scheduling();
    let mut plain =
        Birp::new(catalog.clone(), MabConfig::paper_preset()).with_solver(solver.clone());
    let mut sharded = Birp::new(catalog.clone(), MabConfig::paper_preset())
        .with_solver(solver)
        .with_shards(ShardConfig::new(catalog.num_edges()));
    assert!(
        sharded.shard_coordinator().is_none(),
        "a fleet-sized cluster must disable the coordinator entirely"
    );

    let mut prev_a = None;
    let mut prev_b = None;
    for t in 0..4 {
        let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        for k in 0..catalog.num_edges() {
            demand.set(AppId(0), EdgeId(k), ((t * 7 + k * 3) % 9) as u32);
        }
        let a = plain.decide(t, &demand, prev_a.as_ref());
        let b = sharded.decide(t, &demand, prev_b.as_ref());
        assert_eq!(a, b, "slot {t} diverged under a single-cluster partition");
        prev_a = Some(a);
        prev_b = Some(b);
    }
}

/// The overlapped fallback on a coupled instance that always takes it, at
/// the scheduling budget (parallel waves, truncated search) and exactly.
#[test]
fn overlapped_fallback_matches_serial_on_a_coupled_slot() {
    let catalog = Catalog::small_scale(42);
    let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
    demand.set(AppId(0), EdgeId(0), 40);
    demand.set(AppId(0), EdgeId(5), 9);
    let tir = TirMatrix::oracle(&catalog);
    let cfg = ProblemConfig::default();
    for solver in [SolverConfig::scheduling(), exact_base()] {
        let ran = fallback_matches_serial(&catalog, 0, &demand, &tir, None, &cfg, &solver, 2)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(ran, "a coupled slot at gap_tol 0 must take the fallback");
    }
}

/// Teeth: the armed stale-coupling-price fault (dual updates never reach
/// the cluster models) must be caught by this suite's instruments. On a
/// deliberately coupled instance — the whole fleet's demand lands on one
/// edge, so every serve crosses a cluster boundary — healthy pricing moves
/// the duals and closes the gap certificate, while the stale-price run is
/// stuck at the λ=0 relaxation: free exports, a vacuous lower bound, and a
/// gap near 1.
#[test]
fn stale_price_fault_collapses_gap_certificate() {
    let catalog = Catalog::small_scale(42);
    let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
    demand.set(AppId(0), EdgeId(0), 40);
    let tir = TirMatrix::oracle(&catalog);
    let cfg = ProblemConfig::default();
    let solver = exact_base();
    let shard_cfg = ShardConfig {
        cluster_size: 2,
        max_iters: 6,
        gap_tol: 0.01,
        fallback: false,
    };

    let mut healthy = ShardCoordinator::new(&catalog, shard_cfg);
    let ok = healthy.decide(&catalog, 0, &demand, &tir, None, &cfg, &solver);
    assert!(
        healthy.prices() != vec![0.0; catalog.num_apps()],
        "coupled instance must move the dual prices"
    );
    assert!(
        healthy.clusters_match_fresh_build(0, &demand, &tir, None, &cfg, catalog.num_models()),
        "healthy clusters must reflect the coordinator's current prices"
    );

    let mut stale = ShardCoordinator::new(&catalog, shard_cfg);
    shard_fault_stale_price(true);
    let bad = stale.decide(&catalog, 0, &demand, &tir, None, &cfg, &solver);
    shard_fault_stale_price(false);
    assert!(
        !stale.clusters_match_fresh_build(0, &demand, &tir, None, &cfg, catalog.num_models()),
        "stale clusters must diverge from a fresh build at current prices"
    );

    assert!(
        bad.duality_gap > 0.5,
        "stale prices must leave the λ=0 vacuous bound (gap {})",
        bad.duality_gap
    );
    assert!(
        ok.duality_gap < 0.5,
        "healthy pricing must tighten the certificate (gap {})",
        ok.duality_gap
    );
    assert!(
        ok.duality_gap < bad.duality_gap,
        "healthy gap {} not tighter than stale gap {}",
        ok.duality_gap,
        bad.duality_gap
    );
}
