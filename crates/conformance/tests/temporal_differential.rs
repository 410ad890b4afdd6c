//! Differential testing of cross-slot temporal reuse (DESIGN.md §11).
//!
//! The reuse layer installs slot `t-1`'s repaired schedule as the
//! branch-and-bound incumbent, and that must be *behaviour-preserving*: at a
//! certifying solver tolerance the per-slot objective with reuse on equals
//! the objective with reuse off, on every slot of a multi-slot trace. (The
//! heuristic-regime skip only fires after degraded solves, which a
//! certifying configuration never returns.)
//!
//! Both schedulers are replayed over identical per-slot inputs: the
//! reuse-off trajectory's schedule is fed to both as `prev`. (Letting each
//! follow its own trajectory would compare different problems the moment an
//! alternate optimum is picked — equality of objectives per identical
//! input, not equality of trajectories, is the contract.)
//!
//! The bug-sensitivity test pins down the repair pass: a deliberately stale
//! incumbent — a schedule for yesterday's demand pushed at today's problem
//! — must be projected back to feasibility rather than installed raw.

use birp_conformance::strategies::arb_demand;
use birp_conformance::{arb_tiny_instance, TinyInstance};
use birp_core::{
    BirpOff, DeltaOutcome, DemandMatrix, ExecutionMode, RebuildReason, Scheduler, SlotProblem,
    TemporalReuse, TirMatrix,
};
use birp_models::{AppId, EdgeId, ModelId, ModelVersion, UtilProfile};
use birp_sim::{validate, Deployment, Schedule};
use birp_solver::{SimplexOptions, SolverConfig};
use birp_tir::TirParams;
use proptest::prelude::*;

const SLOTS: usize = 4;

/// Certifying configuration (mirrors `oracle_differential::exact_base`):
/// the gap is tight enough that any admitted incumbent — warm-started or
/// not — is the true optimum, so objective equality is exact up to float
/// noise.
fn certifying() -> SolverConfig {
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

/// A tiny world plus a short demand trace over it.
fn arb_world_and_trace() -> impl Strategy<Value = (TinyInstance, Vec<DemandMatrix>)> {
    arb_tiny_instance().prop_flat_map(|inst| {
        let (na, ne) = (inst.catalog.num_apps(), inst.catalog.num_edges());
        (
            Just(inst),
            proptest::collection::vec(arb_demand(na, ne, 3), SLOTS),
        )
    })
}

fn scheduler(inst: &TinyInstance, reuse: TemporalReuse) -> BirpOff {
    BirpOff::new(inst.catalog.clone())
        .with_solver(certifying())
        .with_reuse(reuse)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reuse-on and reuse-off agree on every slot's objective, and both
    /// schedules stay structurally valid, over a multi-slot trace.
    #[test]
    fn reuse_preserves_per_slot_objectives(world in arb_world_and_trace()) {
        let (inst, trace) = world;
        let mut off = scheduler(&inst, TemporalReuse::disabled());
        let mut on = scheduler(&inst, TemporalReuse::default());
        let mut prev: Option<Schedule> = inst.prev.clone();
        for (t, demand) in trace.iter().enumerate() {
            let s_off = off.decide(t, demand, prev.as_ref());
            let s_on = on.decide(t, demand, prev.as_ref());
            let obj_off = off.last_stats().expect("off stats").objective;
            let obj_on = on.last_stats().expect("on stats").objective;
            let tol = 1e-6 * (1.0 + obj_off.abs());
            prop_assert!(
                (obj_on - obj_off).abs() <= tol,
                "slot {t}: reuse-on objective {obj_on} != reuse-off {obj_off}",
            );
            let d = |a: AppId, e: EdgeId| demand.get(a, e);
            validate(&inst.catalog, &d, &s_off, prev.as_ref()).expect("reuse-off schedule valid");
            validate(&inst.catalog, &d, &s_on, prev.as_ref()).expect("reuse-on schedule valid");
            // Both trajectories continue from the reuse-off decision so the
            // next slot's inputs stay identical.
            prev = Some(s_off);
        }
    }
}

/// A deterministic world where the first solve serves requests, for the
/// stale-incumbent test below.
fn served_instance() -> (TinyInstance, Schedule) {
    for seed in 0..64u64 {
        let mut rng = proptest::TestRng::from_name(&format!("temporal-differential-stale-{seed}"));
        let mut inst = birp_conformance::sample_tiny_instance(&mut rng);
        // Pin the structural knobs the test does not probe.
        inst.cfg.masked_edges = None;
        inst.demand.set(AppId(0), EdgeId(0), 3);
        let (schedule, _) = match inst.problem().solve(&certifying()) {
            Ok(r) => r,
            Err(_) => continue,
        };
        if schedule.served() > 0 {
            return (inst, schedule);
        }
    }
    panic!("no tiny instance with served demand in 64 seeds");
}

/// The repair pass projects a stale schedule onto the current constraints:
/// building with a stale reuse hint must still produce the same certified
/// optimum as building without it.
#[test]
fn repair_projects_stale_incumbent_onto_current_constraints() {
    let (inst, schedule) = served_instance();
    let mut stale_world = inst.clone();
    stale_world.demand = DemandMatrix::zeros(inst.catalog.num_apps(), inst.catalog.num_edges());

    let with_hint = SlotProblem::build_with_reuse(
        &stale_world.catalog,
        stale_world.slot(),
        &stale_world.demand,
        &stale_world.tir,
        stale_world.prev.as_ref(),
        &stale_world.cfg,
        Some(&schedule),
    );
    let (repaired, stats_hint) = with_hint
        .solve(&certifying())
        .expect("solve with stale hint");
    let (_, stats_cold) = stale_world
        .problem()
        .solve(&certifying())
        .expect("cold solve");
    let tol = 1e-6 * (1.0 + stats_cold.objective.abs());
    assert!(
        (stats_hint.objective - stats_cold.objective).abs() <= tol,
        "stale hint changed the certified optimum: {} vs {}",
        stats_hint.objective,
        stats_cold.objective
    );
    let d = |a: AppId, e: EdgeId| stale_world.demand.get(a, e);
    validate(
        &stale_world.catalog,
        &d,
        &repaired,
        stale_world.prev.as_ref(),
    )
    .expect("repaired schedule valid");
}

// ---------------------------------------------------------------------------
// Incremental re-solve (DESIGN.md §13): the persistent slot model refreshed
// with typed deltas must be indistinguishable — bitwise, not just up to
// tolerance — from one lowered from scratch with the same inputs, across
// every delta kind and every solver toggle configuration.
// ---------------------------------------------------------------------------

/// The five solver toggle configurations (mirrors
/// `oracle_differential::toggle_configs`): bitwise problem equality makes
/// solve equality config-independent in principle, but running all five
/// keeps the claim empirical — warm node starts, presolve, the root dive
/// and degenerate pricing all consume the lowering differently.
fn toggle_configs() -> Vec<(&'static str, SolverConfig)> {
    let base = certifying();
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

/// One world edit of a specific delta kind, applied to a [`TinyInstance`]
/// between slots.
#[derive(Debug, Clone)]
enum DeltaMutation {
    /// Demand drift: one demand cell moves.
    Demand { cell: usize, v: u32 },
    /// Quarantine mask add/remove: one edge toggles.
    MaskToggle { edge: usize },
    /// TIR estimate move: one (edge, model) cell gets fresh `(eta, beta)`.
    Tir { cell: usize, eta: f64, beta: u32 },
    /// Previous-deployment flip: `x^{t-1}` toggles for one (edge, model).
    PrevToggle { edge: usize, model: usize },
    /// Budget change: every memory/network budget rescales.
    Budget { mem: f64, net: f64 },
}

fn arb_mutation(na: usize, ne: usize, nm: usize) -> impl Strategy<Value = DeltaMutation> {
    // The vendored proptest's `prop_oneof!` needs same-typed options, so
    // sample every kind's randomness up front and pick a kind by index.
    (
        0..5usize,
        (0..na * ne, 0u32..=4),
        0..ne,
        (0..ne * nm, 0.12f64..0.36, 1u32..=3),
        (0..ne, 0..nm),
        (0.5f64..1.5, 0.5f64..1.5),
    )
        .prop_map(
            |(kind, (cell, v), edge, (tcell, eta, beta), (pe, pm), (mem, net))| match kind {
                0 => DeltaMutation::Demand { cell, v },
                1 => DeltaMutation::MaskToggle { edge },
                2 => DeltaMutation::Tir {
                    cell: tcell,
                    eta,
                    beta,
                },
                3 => DeltaMutation::PrevToggle {
                    edge: pe,
                    model: pm,
                },
                _ => DeltaMutation::Budget { mem, net },
            },
        )
}

/// Apply one mutation to the world in place.
fn apply_mutation(inst: &mut TinyInstance, m: &DeltaMutation) {
    let (na, ne, nm) = (
        inst.catalog.num_apps(),
        inst.catalog.num_edges(),
        inst.catalog.num_models(),
    );
    match *m {
        DeltaMutation::Demand { cell, v } => {
            inst.demand.set(AppId(cell / ne), EdgeId(cell % ne), v);
        }
        DeltaMutation::MaskToggle { edge } => {
            let mask = inst.cfg.masked_edges.get_or_insert(vec![false; ne]);
            mask[edge] = !mask[edge];
        }
        DeltaMutation::Tir { cell, eta, beta } => {
            let p = TirParams::consistent(eta, beta);
            let old = inst.tir.clone();
            inst.tir = TirMatrix::from_fn(ne, nm, |e, m| {
                if e * nm + m == cell {
                    p
                } else {
                    *old.get(EdgeId(e), ModelId(m))
                }
            });
        }
        DeltaMutation::PrevToggle { edge, model } => {
            let prev = inst.prev.get_or_insert_with(|| Schedule::empty(0, na, ne));
            let ds = &mut prev.deployments[edge];
            match ds.iter().position(|d| d.model.index() == model) {
                Some(i) => {
                    ds.remove(i);
                }
                None => ds.push(Deployment {
                    app: inst.catalog.models[model].app,
                    model: ModelId(model),
                    batch: 1,
                }),
            }
        }
        DeltaMutation::Budget { mem, net } => {
            for e in &mut inst.catalog.edges {
                e.memory_mb *= mem;
                e.network_budget_mb *= net;
            }
        }
    }
}

/// Refresh the persistent model for the instance's current state and build
/// the same problem from scratch; assert the two are bitwise identical in
/// lowering, warm start, root bound, reuse outcome and input fingerprint.
fn refresh_and_check(
    persistent: &mut SlotProblem,
    inst: &TinyInstance,
    t: usize,
) -> Result<(DeltaOutcome, SlotProblem), String> {
    let outcome = persistent.refresh_with_reuse(
        &inst.catalog,
        t,
        &inst.demand,
        &inst.tir,
        inst.prev.as_ref(),
        &inst.cfg,
        inst.prev.as_ref(),
        true,
    );
    let fresh = SlotProblem::build_with_reuse(
        &inst.catalog,
        t,
        &inst.demand,
        &inst.tir,
        inst.prev.as_ref(),
        &inst.cfg,
        inst.prev.as_ref(),
    );
    prop_assert!(
        persistent.debug_milp() == fresh.debug_milp(),
        "slot {t}: refreshed lowering != scratch lowering ({outcome:?})",
    );
    prop_assert_eq!(
        persistent.warm_point(),
        fresh.warm_point(),
        "slot {}: warm-start point diverged ({:?})",
        t,
        outcome
    );
    prop_assert_eq!(
        persistent.root_bound().map(f64::to_bits),
        fresh.root_bound().map(f64::to_bits),
        "slot {}: root bound diverged",
        t
    );
    prop_assert_eq!(persistent.reuse_outcome(), fresh.reuse_outcome());
    prop_assert!(
        persistent.inputs() == fresh.inputs(),
        "slot {t}: input fingerprints diverged",
    );
    Ok((outcome, fresh))
}

proptest! {
    // 16 default cases: each walks up to 4 edits × 5 solver configs × 2
    // certified solves. `PROPTEST_CASES` overrides for the nightly sweep.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A walk of single-kind world edits: after every edit the refreshed
    /// persistent model must equal a scratch build bitwise, every edit must
    /// be absorbed as deltas (none of these mutations is structural), and
    /// solving both problems under all five toggle configurations must
    /// produce identical schedules and objectives.
    #[test]
    fn delta_refresh_matches_rebuild_bitwise(
        world in arb_tiny_instance().prop_flat_map(|inst| {
            let (na, ne, nm) = (
                inst.catalog.num_apps(),
                inst.catalog.num_edges(),
                inst.catalog.num_models(),
            );
            (
                Just(inst),
                proptest::collection::vec(arb_mutation(na, ne, nm), 1..=4),
            )
        }),
    ) {
        let (mut inst, mutations) = world;
        let mut persistent = SlotProblem::build_with_reuse(
            &inst.catalog,
            0,
            &inst.demand,
            &inst.tir,
            inst.prev.as_ref(),
            &inst.cfg,
            inst.prev.as_ref(),
        );
        for (step, m) in mutations.iter().enumerate() {
            apply_mutation(&mut inst, m);
            let (outcome, fresh) = refresh_and_check(&mut persistent, &inst, step + 1)?;
            prop_assert!(
                matches!(outcome, DeltaOutcome::Applied(_)),
                "non-structural edit {m:?} forced a rebuild: {outcome:?}",
            );
            for (name, cfg) in toggle_configs() {
                let (s_delta, st_delta) =
                    persistent.solve(&cfg).expect("delta-path solve");
                let (s_scratch, st_scratch) = fresh.solve(&cfg).expect("scratch solve");
                prop_assert_eq!(
                    st_delta.objective.to_bits(),
                    st_scratch.objective.to_bits(),
                    "[{}] step {}: objective diverged", name, step,
                );
                prop_assert!(
                    s_delta == s_scratch,
                    "[{name}] step {step}: schedules diverged",
                );
            }
        }
    }

    /// Composed refresh: several mixed-kind edits land between two slots and
    /// one refresh absorbs them all. The applied summary must report at
    /// least three distinct delta kinds, and the refreshed model must still
    /// equal the scratch build bitwise.
    #[test]
    fn composed_mixed_deltas_match_rebuild(inst in arb_tiny_instance()) {
        let mut inst = inst;
        let ne = inst.catalog.num_edges();
        let mut persistent = SlotProblem::build_with_reuse(
            &inst.catalog,
            0,
            &inst.demand,
            &inst.tir,
            inst.prev.as_ref(),
            &inst.cfg,
            inst.prev.as_ref(),
        );
        // Guaranteed-effective edits of four distinct kinds.
        let bump = inst.demand.get(AppId(0), EdgeId(0)) + 1;
        apply_mutation(&mut inst, &DeltaMutation::Demand { cell: 0, v: bump });
        apply_mutation(&mut inst, &DeltaMutation::MaskToggle { edge: ne - 1 });
        apply_mutation(&mut inst, &DeltaMutation::PrevToggle { edge: 0, model: 0 });
        apply_mutation(&mut inst, &DeltaMutation::Budget { mem: 0.75, net: 1.25 });
        let (outcome, _fresh) = refresh_and_check(&mut persistent, &inst, 1)?;
        let DeltaOutcome::Applied(summary) = outcome else {
            return Err(format!("composed edit forced a rebuild: {outcome:?}"));
        };
        prop_assert!(summary.demand >= 1, "demand edit not counted: {summary:?}");
        prop_assert!(summary.mask >= 1, "mask edit not counted: {summary:?}");
        prop_assert!(
            summary.prev_deploy >= 1,
            "prev-deploy edit not counted: {summary:?}"
        );
        prop_assert_eq!(summary.budget, 1, "budget edit not counted: {:?}", summary);
        prop_assert!(summary.total() >= 4);
        // And the composed refresh still solves identically (default config
        // suffices here; the single-kind walk covers the full toggle grid).
        let (s_delta, st_delta) = persistent.solve(&certifying()).expect("delta solve");
        let (s_scratch, st_scratch) = _fresh.solve(&certifying()).expect("scratch solve");
        prop_assert_eq!(st_delta.objective.to_bits(), st_scratch.objective.to_bits());
        prop_assert!(s_delta == s_scratch);
    }
}

/// Catalog change — the column add/remove fingerprint: a coefficient move
/// (loss) and a model-set change (new version appended) must both force a
/// full rebuild, after which the rebuilt model again matches a scratch
/// build bitwise. An execution-mode flip is the structural analogue.
#[test]
fn catalog_and_mode_changes_force_full_rebuild() {
    let (inst, _) = served_instance();
    let build = |w: &TinyInstance, t: usize| {
        SlotProblem::build_with_reuse(
            &w.catalog,
            t,
            &w.demand,
            &w.tir,
            w.prev.as_ref(),
            &w.cfg,
            w.prev.as_ref(),
        )
    };
    let refresh = |p: &mut SlotProblem, w: &TinyInstance, t: usize| {
        p.refresh_with_reuse(
            &w.catalog,
            t,
            &w.demand,
            &w.tir,
            w.prev.as_ref(),
            &w.cfg,
            w.prev.as_ref(),
            true,
        )
    };

    // Coefficient move: same dimensions, different statics digest.
    let mut persistent = build(&inst, 0);
    let mut coeff = inst.clone();
    coeff.catalog.models[0].loss = (coeff.catalog.models[0].loss + 0.01).min(0.49);
    let outcome = refresh(&mut persistent, &coeff, 1);
    assert_eq!(
        outcome,
        DeltaOutcome::Rebuilt(RebuildReason::CatalogChanged),
        "a catalog coefficient move must force a rebuild"
    );
    assert!(persistent.debug_milp() == build(&coeff, 1).debug_milp());

    // Column add: a new model version joins app 0 — every per-model column
    // family grows. The refresh must detect the dimension change and
    // re-lower rather than patch.
    let mut persistent = build(&inst, 0);
    let mut grown = inst.clone();
    let new_id = ModelId(grown.catalog.models.len());
    let template = grown.catalog.models[0].clone();
    grown.catalog.models.push(ModelVersion {
        id: new_id,
        name: "tiny-added".into(),
        ..template
    });
    grown.catalog.apps[0].models.push(new_id);
    let p = TirParams::consistent(0.2, 2);
    for e in &mut grown.catalog.edges {
        e.gamma_ms.push(e.gamma_ms[0]);
        e.tir_truth.push(p);
        e.util.push(UtilProfile::zero());
    }
    let (ne, nm) = (grown.catalog.num_edges(), grown.catalog.num_models());
    let old_tir = grown.tir.clone();
    grown.tir = TirMatrix::from_fn(ne, nm, |e, m| {
        if m == nm - 1 {
            p
        } else {
            *old_tir.get(EdgeId(e), ModelId(m))
        }
    });
    let outcome = refresh(&mut persistent, &grown, 1);
    assert_eq!(
        outcome,
        DeltaOutcome::Rebuilt(RebuildReason::CatalogChanged),
        "a model-set change must force a rebuild"
    );
    assert!(persistent.debug_milp() == build(&grown, 1).debug_milp());

    // Execution-mode flip: structural, not a catalog change.
    let mut persistent = build(&inst, 0);
    let mut flipped = inst.clone();
    flipped.cfg.mode = match flipped.cfg.mode {
        ExecutionMode::Batched => ExecutionMode::Serial { max_serial: 2 },
        ExecutionMode::Serial { .. } => ExecutionMode::Batched,
    };
    let outcome = refresh(&mut persistent, &flipped, 1);
    assert_eq!(
        outcome,
        DeltaOutcome::Rebuilt(RebuildReason::StructureChanged),
        "an execution-mode flip must force a rebuild"
    );
    assert!(persistent.debug_milp() == build(&flipped, 1).debug_milp());
}
