//! Telemetry coverage for budget-exhausted solves.
//!
//! Like `crates/telemetry/tests/facade.rs`, everything touching the
//! process-global telemetry registry lives in one `#[test]` (integration
//! test files run as their own process, so this file cannot race the
//! facade tests, but two `#[test]`s here could race each other).

use birp_solver::{Model, SolverConfig, SolverError};
use birp_telemetry as telemetry;

/// A solve that dies on its pivot budget with open nodes and no incumbent
/// must still land in the `solver.final_gap` record (clamped, since the
/// formal gap is infinite) and report the dual bound its frontier proved.
#[test]
fn budget_exhausted_solve_still_records_final_gap() {
    let path = std::env::temp_dir().join(format!(
        "birp-solver-degraded-telemetry-{}.jsonl",
        std::process::id()
    ));
    telemetry::init_jsonl(&path, telemetry::Level::Debug).expect("open sink");

    // min -x - y s.t. x + y <= 1.5, x and y binary: the root LP is
    // fractional (x = 1, y = 0.5), so branching is required. A one-pivot
    // budget is spent entirely on the root relaxation; the search stops
    // with two open children and no incumbent, which is exactly the
    // `BudgetExhausted` path (no warm start is supplied).
    let mut m = Model::new();
    let x = m.add_binary("x", -1.0);
    let y = m.add_binary("y", -1.0);
    m.add_le("cap", x + y, 1.5);
    let cfg = SolverConfig {
        presolve: false,
        root_dive: false,
        max_pivots: Some(1),
        ..SolverConfig::default()
    };
    let err = m
        .solve(&cfg)
        .expect_err("one pivot cannot close this solve");
    assert!(
        matches!(err, SolverError::BudgetExhausted { .. }),
        "expected BudgetExhausted, got {err:?}"
    );

    let summary = telemetry::summary();
    let gap = summary
        .histogram("solver.final_gap")
        .expect("degraded solve must still record solver.final_gap");
    assert_eq!(gap.count, 1);
    assert!(
        (gap.max - 1.0).abs() < 1e-12,
        "clamped gap, got {}",
        gap.max
    );
    let bound = summary
        .histogram("solver.final_bound")
        .expect("degraded solve must record its proven dual bound");
    // The root relaxation optimum is -1.5 and the frontier can only
    // tighten it, so the recorded bound lies in [-1.5, 0].
    assert!(
        bound.min >= -1.5 - 1e-9 && bound.max <= 1e-9,
        "bound outside [-1.5, 0]: [{}, {}]",
        bound.min,
        bound.max
    );

    telemetry::shutdown();
    telemetry::reset();

    // The JSONL capture must carry the record: every line parses, and the
    // final `telemetry.summary` snapshot holds the `solver.final_gap`
    // histogram a report would render.
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    let lines: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("every line is valid JSON"))
        .collect();
    let last = lines.last().expect("at least the summary line");
    assert_eq!(
        last.get("name").and_then(|n| n.as_str()),
        Some("telemetry.summary")
    );
    let parsed: telemetry::TelemetrySummary =
        serde_json::from_value(last.get("summary").expect("summary field"))
            .expect("summary deserializes");
    assert_eq!(
        parsed.histogram("solver.final_gap").map(|h| h.count),
        Some(1),
        "solver.final_gap missing from the JSONL summary record"
    );
    assert!(parsed.histogram("solver.final_bound").is_some());
}
