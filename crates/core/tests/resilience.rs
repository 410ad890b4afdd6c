//! Robustness integration tests (DESIGN.md §10):
//!
//! * request conservation under quarantine-and-reroute for every fault
//!   shape the plan can express,
//! * the information-asymmetry guarantee — two differently-written but
//!   behaviourally identical fault plans must produce bitwise-identical
//!   runs, so no scheduler or detector code can be reading the plan,
//! * graceful solver degradation — a starved solve budget must never
//!   panic or leave a slot unserved, and must announce itself through the
//!   `solver.degraded` telemetry counter.

use birp_core::{run_scheduler, BirpOff, HealthConfig, RunConfig};
use birp_models::{Catalog, EdgeId};
use birp_sim::{FaultPlan, SimConfig};
use birp_solver::SolverConfig;
use birp_telemetry as telemetry;
use birp_workload::{Trace, TraceConfig};

fn setup(slots: usize) -> (Catalog, Trace) {
    let catalog = Catalog::small_scale(42);
    let trace = TraceConfig {
        num_slots: slots,
        mean_rate: 7.0,
        ..TraceConfig::small_scale(13)
    }
    .generate();
    (catalog, trace)
}

fn run_with(catalog: &Catalog, trace: &Trace, faults: FaultPlan, resilient: bool) -> String {
    let cfg = RunConfig {
        sim: SimConfig {
            faults,
            ..SimConfig::default()
        },
        resilience: resilient.then(HealthConfig::default),
        ..RunConfig::default()
    };
    let mut s = BirpOff::new(catalog.clone()).with_solver(SolverConfig::scheduling());
    let r = run_scheduler(catalog, trace, &mut s, &cfg);
    assert_eq!(
        r.metrics.served + r.metrics.dropped,
        r.offered,
        "conservation broken (resilient={resilient})"
    );
    serde_json::to_string(&r).unwrap()
}

/// `served + dropped == offered` must hold under every fault shape, with
/// and without the resilience layer.
#[test]
fn resilience_conserves_requests_under_every_fault_plan() {
    let (catalog, trace) = setup(18);
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().with_outage(EdgeId(2), 3, 12),
        FaultPlan::none().with_degradation(EdgeId(0), 2, 14, 3.0),
        FaultPlan::none().with_link_fault(EdgeId(1), EdgeId(3), 4, 10, 0.0),
        FaultPlan::none().with_flaky(EdgeId(4), 5, 15, 3, 2),
        FaultPlan::none()
            .with_outage(EdgeId(2), 3, 9)
            .with_link_fault(EdgeId(0), EdgeId(1), 2, 8, 0.25)
            .with_flaky(EdgeId(5), 8, 16, 2, 1)
            .with_degradation(EdgeId(1), 0, 18, 2.0),
    ];
    for plan in plans {
        run_with(&catalog, &trace, plan.clone(), false);
        run_with(&catalog, &trace, plan, true);
    }
}

/// Two plans that describe the same physical behaviour differently (one
/// outage window vs two adjacent ones) must yield bitwise-identical run
/// results: schedulers and the detector only ever see outcomes, so the
/// plan's *representation* cannot leak into decisions.
#[test]
fn resilience_sees_outcomes_not_the_fault_plan() {
    let (catalog, trace) = setup(16);
    let one_window = FaultPlan::none().with_outage(EdgeId(2), 3, 9);
    let split_windows = FaultPlan::none()
        .with_outage(EdgeId(2), 3, 6)
        .with_outage(EdgeId(2), 6, 9);
    for resilient in [false, true] {
        let a = run_with(&catalog, &trace, one_window.clone(), resilient);
        let b = run_with(&catalog, &trace, split_windows.clone(), resilient);
        assert_eq!(
            a, b,
            "equivalent fault plans diverged (resilient={resilient}): \
             something is reading the plan, not the outcomes"
        );
    }
}

/// A starved solve budget (1 node, 1 pivot) must degrade, not panic:
/// every slot still gets a feasible schedule (conservation holds for the
/// whole run) and the solver announces the degradation via telemetry.
#[test]
fn resilience_budget_exhaustion_degrades_gracefully() {
    let (catalog, trace) = setup(10);
    telemetry::init(
        std::sync::Arc::new(telemetry::MemorySink::new()),
        telemetry::Level::Warn,
    );
    let starved = SolverConfig {
        node_limit: 1,
        max_pivots: Some(1),
        ..SolverConfig::scheduling()
    };
    let mut s = BirpOff::new(catalog.clone()).with_solver(starved);
    let r = run_scheduler(&catalog, &trace, &mut s, &RunConfig::default());
    let degraded = telemetry::summary().counter("solver.degraded");
    telemetry::reset();
    assert_eq!(
        r.metrics.served + r.metrics.dropped,
        r.offered,
        "a starved solver must still serve every slot"
    );
    assert!(
        degraded.unwrap_or(0) > 0,
        "budget exhaustion must be visible as solver.degraded telemetry, got {degraded:?}"
    );
}
