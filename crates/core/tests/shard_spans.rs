//! Span trees of the sharded coordinator are deterministic: cluster work
//! opens an item-indexed `shard.cluster` span under its dual iteration's
//! `shard.iteration`, so every span id is the same whichever pool thread
//! ran which cluster, and no cluster span is left as an orphan root.
//!
//! This lives in its own integration-test binary because the telemetry
//! facade is process-global.

use std::collections::BTreeSet;
use std::sync::Arc;

use birp_core::{DemandMatrix, ProblemConfig, ShardConfig, ShardCoordinator, TirMatrix};
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

/// Two slots of a coupled fleet through one coordinator, traced at the
/// level that adds per-wave and per-node spans. Returns the sorted span
/// shapes.
fn traced_decides() -> Vec<Shape> {
    let catalog = Catalog::fleet_scale(42, 12);
    let tir = TirMatrix::oracle(&catalog);
    let cfg = ProblemConfig::default();
    let solver = SolverConfig::scheduling();
    let shard_cfg = ShardConfig {
        cluster_size: 3,
        max_iters: 3,
        gap_tol: 0.0,
        fallback: true,
    };
    let sink = Arc::new(MemorySink::new());
    telemetry::init(sink.clone(), Level::Trace);
    let mut coord = ShardCoordinator::new(&catalog, shard_cfg);
    let mut prev = None;
    for t in 0..2 {
        let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        demand.set(AppId(0), EdgeId(0), 30 + 5 * t as u32);
        for k in 1..catalog.num_edges() {
            demand.set(AppId(0), EdgeId(k), ((k * 5 + t) % 4) as u32);
        }
        let out = coord.decide(&catalog, t, &demand, &tir, prev.as_ref(), &cfg, &solver);
        prev = Some(out.schedule);
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
fn sharded_decide_span_trees_are_identical_across_runs() {
    let a = traced_decides();
    let b = traced_decides();
    assert_eq!(a, b, "span trees of two identical sharded decides differ");

    // Well-formed: unique ids, every parent recorded, and the two decides
    // are the only roots (cluster work is never an orphan).
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
    assert_eq!(roots, ["shard.decide", "shard.decide"]);

    // Every iteration has one span per cluster, indexed by cluster.
    let iterations: BTreeSet<u64> = a
        .iter()
        .filter(|s| s.0 == "shard.iteration")
        .map(|s| s.1)
        .collect();
    let clusters: Vec<&Shape> = a.iter().filter(|s| s.0 == "shard.cluster").collect();
    assert!(!iterations.is_empty(), "no shard.iteration spans recorded");
    assert_eq!(clusters.len(), 4 * iterations.len());
    for c in &clusters {
        assert!(
            iterations.contains(&c.2),
            "shard.cluster must parent to shard.iteration"
        );
        assert!(c.3 < 4, "cluster index {} out of range", c.3);
    }
    assert!(
        a.iter().any(|s| s.0 == "problem.guide_lp"),
        "the coupled slots should take the guided fallback"
    );
}
