//! Metamorphic invariants of the slot solver and the runner.
//!
//! These tests never need to know the right answer — they check relations
//! between solves on related inputs (see `birp_conformance::transform` for
//! the argument behind each invariant), plus two analytic facts about the
//! TIR Taylor linearisation and end-to-end request conservation through the
//! runner.

use birp_conformance::transform::{permute_edges, relax_budgets, restrict_edges};
use birp_conformance::{arb_tiny_instance, TinyInstance};
use birp_core::{run_scheduler, BirpOff, RunConfig};
use birp_models::Catalog;
use birp_solver::{SimplexOptions, SolverConfig};
use birp_tir::{latency, linearized_latency, max_abs_error, TirParams};
use birp_workload::TraceConfig;
use proptest::prelude::*;

fn exact() -> SolverConfig {
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

fn optimum(inst: &TinyInstance) -> f64 {
    inst.problem()
        .solve(&exact())
        .expect("tiny solve failed")
        .1
        .objective
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Edge identity is meaningless: relabelling edges (with all their
    /// attached data) must not move the optimum.
    #[test]
    fn edge_permutation_leaves_optimum_unchanged(
        inst in arb_tiny_instance(),
        rot in 0usize..3,
    ) {
        let ne = inst.catalog.num_edges();
        // A rotation exercises every cycle type reachable with ne <= 3 when
        // combined over runs; identity rotations still smoke the transform.
        let perm: Vec<usize> = (0..ne).map(|j| (j + rot) % ne).collect();
        let base = optimum(&inst);
        let permuted = optimum(&permute_edges(&inst, &perm));
        let tol = 1e-6 * (1.0 + base.abs());
        prop_assert!(
            (base - permuted).abs() <= tol,
            "perm {:?}: optimum moved {} -> {}", perm, base, permuted,
        );
    }

    /// Loosening memory / network / compute budgets can only help: the
    /// objective is monotone non-increasing under relaxation.
    #[test]
    fn relaxing_budgets_never_hurts(
        inst in arb_tiny_instance(),
        mem_f in 1.0f64..3.0,
        net_f in 1.0f64..3.0,
        slot_f in 1.0f64..3.0,
    ) {
        let base = optimum(&inst);
        let relaxed = optimum(&relax_budgets(&inst, mem_f, net_f, slot_f));
        let tol = 1e-6 * (1.0 + base.abs());
        prop_assert!(
            relaxed <= base + tol,
            "relaxation worsened the optimum: {} -> {}", base, relaxed,
        );
    }

    /// Masking an edge with zero demand is equivalent to deleting it from
    /// the instance.
    #[test]
    fn mask_equals_submatrix_for_demandless_edge(
        inst in arb_tiny_instance(),
        pick in 0usize..3,
    ) {
        let ne = inst.catalog.num_edges();
        if ne < 2 {
            // Single-edge instances have no submatrix to compare against.
            return Ok(());
        }
        let victim = pick % ne;

        // Zero the victim's demand column, clear any sampled mask, and
        // strip warm deployments from the victim (a fresh deployment there
        // is worthless anyway, but a warm one would differ from deletion
        // only through the transfer term — keep the equivalence exact).
        let mut masked = inst.clone();
        for i in 0..masked.catalog.num_apps() {
            masked.demand.set(birp_models::AppId(i), birp_models::EdgeId(victim), 0);
        }
        if let Some(p) = masked.prev.as_mut() {
            p.deployments[victim].clear();
        }
        let sub_source = masked.clone();
        // OR the victim into any mask the instance already carries — the
        // submatrix keeps those other masked edges, so both sides must
        // agree about them.
        let mut mask = masked
            .cfg
            .masked_edges
            .clone()
            .unwrap_or_else(|| vec![false; ne]);
        mask[victim] = true;
        masked.cfg.masked_edges = Some(mask);

        let keep: Vec<usize> = (0..ne).filter(|&j| j != victim).collect();
        let sub = restrict_edges(&sub_source, &keep);

        let a = optimum(&masked);
        let b = optimum(&sub);
        let tol = 1e-6 * (1.0 + a.abs());
        prop_assert!(
            (a - b).abs() <= tol,
            "mask(edge {}) optimum {} != submatrix optimum {}", victim, a, b,
        );
    }

    /// Every decoded schedule conserves requests within the slot:
    /// served + unserved == offered.
    #[test]
    fn slot_solutions_conserve_requests(inst in arb_tiny_instance()) {
        let (schedule, _) = inst.problem().solve(&exact()).expect("tiny solve failed");
        prop_assert_eq!(
            schedule.served() + schedule.total_unserved(),
            inst.demand.total(),
        );
    }

    /// Taylor linearisation of the batch latency: exact at `b = 1`,
    /// conservative (over-estimating) for `b >= 1`, and everywhere within
    /// the reported `max_abs_error` envelope.
    #[test]
    fn taylor_linearisation_bounds(
        gamma in 5.0f64..200.0,
        eta in 0.01f64..0.5,
        beta in 1u32..16,
    ) {
        let p = TirParams::consistent(eta, beta);
        let err = max_abs_error(gamma, &p);
        prop_assert!((linearized_latency(gamma, eta, 1.0) - gamma).abs() < 1e-9);
        for b in 1..=beta {
            // On b <= beta, latency() is exactly gamma * b^(1-eta).
            let exact = latency(gamma, b, &p);
            prop_assert!((exact - gamma * (b as f64).powf(1.0 - eta)).abs() < 1e-9);
            let h = linearized_latency(gamma, eta, b as f64);
            prop_assert!(h >= exact - 1e-9, "b={}: h={} under-estimates {}", b, h, exact);
            prop_assert!(
                (h - exact).abs() <= err + 1e-9,
                "b={}: |h - exact| = {} exceeds max_abs_error {}", b, (h - exact).abs(), err,
            );
        }
    }

    /// End to end through the runner: every offered request is eventually
    /// served or dropped — nothing leaks in the carry-over queue.
    #[test]
    fn runner_conserves_requests(seed in 0u64..1000) {
        let catalog = Catalog::small_scale(seed);
        let trace = TraceConfig {
            num_slots: 6,
            mean_rate: 4.0,
            ..TraceConfig::small_scale(seed)
        }
        .generate();
        let mut sched = BirpOff::new(catalog.clone());
        let result = run_scheduler(&catalog, &trace, &mut sched, &RunConfig::default());
        prop_assert_eq!(
            result.metrics.served + result.metrics.dropped,
            result.offered,
            "served + dropped != offered",
        );
    }
}
