//! Sensitivity check for the delta differential harness itself.
//!
//! `temporal_differential` proves refresh ≡ rebuild by comparing the
//! refreshed persistent model against a scratch build, bitwise. That proof
//! is only worth something if the comparison would actually notice a buggy
//! delta applier. This suite arms the test-only stale-RHS fault
//! ([`birp_core::problem::delta_fault_stale_rhs`]) — the classic
//! incremental-solver bug where an edit updates the model's bookkeeping but
//! leaves one constraint row's right-hand side at its previous value — and
//! asserts the differential comparison catches it:
//!
//! * bitwise, on **every** drifted instance (the stale row is literally a
//!   different number in the lowering), and
//! * at the decision level on at least one instance (the stale demand row
//!   admits a different optimal schedule), so the gate does not depend on
//!   inspecting lowering internals alone.
//!
//! A disarmed control run over the same instances must show zero
//! divergence, pinning the signal to the fault rather than the harness.

use birp_conformance::{sample_tiny_instance, TinyInstance};
use birp_core::problem::delta_fault_stale_rhs;
use birp_core::{DeltaOutcome, SlotProblem};
use birp_models::{AppId, EdgeId};
use birp_solver::{SimplexOptions, SolverConfig};
use proptest::TestRng;

/// Certifying configuration (mirrors `temporal_differential::certifying`).
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

fn build(inst: &TinyInstance, t: usize) -> SlotProblem {
    SlotProblem::build_with_reuse(
        &inst.catalog,
        t,
        &inst.demand,
        &inst.tir,
        inst.prev.as_ref(),
        &inst.cfg,
        inst.prev.as_ref(),
    )
}

/// The drifted next slot: the first demand cell moves by +3, so the refresh
/// must issue at least one flow-row RHS update — exactly the update the
/// armed fault swallows.
fn drifted(inst: &TinyInstance) -> TinyInstance {
    let mut next = inst.clone();
    let v = next.demand.get(AppId(0), EdgeId(0));
    next.demand.set(AppId(0), EdgeId(0), v + 3);
    next
}

/// Run one refresh-vs-rebuild differential step, optionally with the
/// stale-RHS fault armed, and report which comparison layers diverged:
/// `(lowering_diverged, decision_diverged)`.
fn differential_step(inst: &TinyInstance, armed: bool) -> (bool, bool) {
    let mut persistent = build(inst, 0);
    let next = drifted(inst);
    if armed {
        delta_fault_stale_rhs(true);
    }
    let outcome = persistent.refresh_with_reuse(
        &next.catalog,
        1,
        &next.demand,
        &next.tir,
        next.prev.as_ref(),
        &next.cfg,
        next.prev.as_ref(),
        true,
    );
    delta_fault_stale_rhs(false);
    assert!(
        matches!(outcome, DeltaOutcome::Applied(_)),
        "demand drift must stay on the delta path (got {outcome:?})"
    );
    let fresh = build(&next, 1);

    let lowering_diverged = persistent.debug_milp() != fresh.debug_milp();
    let cfg = certifying();
    let (s_refresh, st_refresh) = persistent.solve(&cfg).expect("refreshed solve");
    let (s_fresh, st_fresh) = fresh.solve(&cfg).expect("scratch solve");
    let decision_diverged =
        st_refresh.objective.to_bits() != st_fresh.objective.to_bits() || s_refresh != s_fresh;
    (lowering_diverged, decision_diverged)
}

#[test]
fn stale_rhs_fault_is_caught_by_the_differential_comparison() {
    let mut rng = TestRng::from_name("delta_catches_bugs");
    const N: usize = 24;
    let mut decision_caught = 0usize;
    for case in 0..N {
        let inst = sample_tiny_instance(&mut rng);

        // Control: disarmed, the differential must be silent.
        let (lowering, decision) = differential_step(&inst, false);
        assert!(
            !lowering && !decision,
            "case {case}: clean refresh diverged from rebuild — harness broken"
        );

        // Armed: the bitwise layer must fire on every drifted instance.
        let (lowering, decision) = differential_step(&inst, true);
        assert!(
            lowering,
            "case {case}: stale RHS survived the bitwise lowering comparison"
        );
        decision_caught += usize::from(decision);
    }
    assert!(
        decision_caught >= 1,
        "stale RHS never changed a decision across {N} instances — the tiny \
         distribution no longer discriminates a broken delta applier",
    );
}
