//! Span trees of a parallel branch-and-bound decide are deterministic:
//! each wave fans its node LPs out over the worker pool, and every node
//! opens an item-indexed `solver.node_lp` span under its `solver.wave`, so
//! every span id is the same whichever pool thread ran which node, and no
//! node span is left as an orphan root.
//!
//! This lives in its own integration-test binary because the telemetry
//! facade is process-global.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use birp_core::{Birp, DemandMatrix, Scheduler, TemporalReuse};
use birp_mab::MabConfig;
use birp_models::{AppId, Catalog, EdgeId};
use birp_solver::SolverConfig;
use birp_telemetry as telemetry;
use telemetry::{Level, MemorySink, Value};

/// Structure-only view of a span event: (name, id, parent, seq).
type Shape = (String, u64, u64, u64);

fn field<'a>(fields: &'a [(&'static str, Value)], key: &str) -> &'a Value {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("span event missing field {key}"))
}

/// Two full-solve slots of a 12-edge fleet under the parallel scheduling
/// solver, each inside a root span, traced at the level that adds per-wave
/// and per-node spans. Returns the sorted span shapes.
fn traced_decides() -> Vec<Shape> {
    let catalog = Catalog::fleet_scale(42, 12);
    let mut birp = Birp::new(catalog.clone(), MabConfig::paper_preset())
        .with_solver(SolverConfig::scheduling())
        .with_reuse(TemporalReuse::disabled());
    let sink = Arc::new(MemorySink::new());
    telemetry::init(sink.clone(), Level::Trace);
    let mut prev = None;
    for t in 0..2 {
        let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        demand.set(AppId(0), EdgeId(0), 30 + 5 * t as u32);
        for k in 1..catalog.num_edges() {
            demand.set(AppId(0), EdgeId(k), ((k * 5 + t) % 4) as u32);
        }
        let _decide = telemetry::span("test.decide");
        prev = Some(birp.decide(t, &demand, prev.as_ref()));
    }
    telemetry::shutdown();
    let mut shapes: Vec<Shape> = sink
        .drain()
        .into_iter()
        .filter(|e| e.name == "span")
        .map(|e| {
            (
                field(&e.fields, "span").as_str().unwrap().to_string(),
                field(&e.fields, "id").as_u64().unwrap(),
                field(&e.fields, "parent").as_u64().unwrap(),
                field(&e.fields, "seq").as_u64().unwrap(),
            )
        })
        .collect();
    telemetry::reset();
    shapes.sort();
    shapes
}

#[test]
fn parallel_decide_span_trees_are_identical_across_runs() {
    let a = traced_decides();
    let b = traced_decides();
    assert_eq!(a, b, "span trees of two identical decides differ");

    // Well-formed: unique ids, every parent recorded, and the two decides
    // are the only roots (node work on pool threads is never an orphan).
    let ids: BTreeSet<u64> = a.iter().map(|s| s.1).collect();
    assert_eq!(ids.len(), a.len(), "span ids must be unique");
    for (name, _, parent, _) in &a {
        assert!(
            *parent == 0 || ids.contains(parent),
            "span {name} has dangling parent {parent}"
        );
    }
    let roots: Vec<&str> = a
        .iter()
        .filter(|s| s.2 == 0)
        .map(|s| s.0.as_str())
        .collect();
    assert_eq!(roots, ["test.decide", "test.decide"]);

    // Every node span hangs off a wave, and each wave's node spans are
    // indexed exactly 0..n by wave item.
    let waves: BTreeSet<u64> = a
        .iter()
        .filter(|s| s.0 == "solver.wave")
        .map(|s| s.1)
        .collect();
    let mut seqs: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for node in a.iter().filter(|s| s.0 == "solver.node_lp") {
        assert!(
            waves.contains(&node.2),
            "solver.node_lp must parent to solver.wave"
        );
        seqs.entry(node.2).or_default().push(node.3);
    }
    for (wave, s) in seqs.iter_mut() {
        s.sort_unstable();
        assert_eq!(*s, (0..s.len() as u64).collect::<Vec<_>>(), "wave {wave}");
    }
    assert!(
        seqs.values().any(|s| s.len() >= 2),
        "no wave fanned out more than one node"
    );
}
