//! The `runner.checkpoint` span times what durable checkpoints cost the slot
//! loop: each periodic snapshot hand-off and the synchronous shutdown save.
//! It opens only under a `CheckpointPolicy`, so a run without one records
//! nothing under that name.
//!
//! This lives in its own integration-test binary because the telemetry
//! facade is process-global.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use birp_core::{run_scheduler_resumable, Birp, CheckpointPolicy, RunConfig, RunOutcome};
use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_telemetry as telemetry;
use birp_workload::TraceConfig;

/// Run 7 small-scale slots traced under `policy` (shutdown raised before the
/// first slot when `stop`), returning how often `runner.checkpoint` was
/// recorded and how the run ended.
fn checkpoint_spans(policy: Option<&CheckpointPolicy>, stop: bool) -> (u64, RunOutcome) {
    let catalog = Catalog::small_scale(42);
    let trace = TraceConfig {
        num_slots: 7,
        mean_rate: 5.0,
        ..TraceConfig::small_scale(7)
    }
    .generate();
    let mut birp = Birp::new(catalog.clone(), MabConfig::paper_preset());
    let shutdown = AtomicBool::new(stop);
    telemetry::init(Arc::new(telemetry::NullSink), telemetry::Level::Debug);
    let outcome = run_scheduler_resumable(
        &catalog,
        &trace,
        &mut birp,
        &RunConfig::default(),
        policy,
        None,
        Some(&shutdown),
    )
    .unwrap();
    let count = telemetry::summary()
        .histogram("runner.checkpoint")
        .map_or(0, |h| h.count);
    telemetry::reset();
    (count, outcome)
}

#[test]
fn checkpoint_span_counts_each_save_and_only_under_a_policy() {
    let dir = std::env::temp_dir().join(format!("birp-ckptspan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let policy = |every| CheckpointPolicy {
        path: dir.join(format!("every{every}.ckpt")),
        every,
        spec: Default::default(),
    };

    // Saves after slots 2, 4 and 6; none after the last slot.
    let (count, outcome) = checkpoint_spans(Some(&policy(2)), false);
    assert!(matches!(outcome, RunOutcome::Complete(_)));
    assert_eq!(count, 3);

    let (count, outcome) = checkpoint_spans(None, false);
    assert!(matches!(outcome, RunOutcome::Complete(_)));
    assert_eq!(count, 0);

    // A shutdown before the first slot makes exactly one synchronous save.
    let (count, outcome) = checkpoint_spans(Some(&policy(0)), true);
    assert!(matches!(outcome, RunOutcome::Interrupted { next_slot: 0 }));
    assert_eq!(count, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
