//! Crash-safety properties of the resumable runner (DESIGN.md §12).
//!
//! The headline guarantee: killing a run at *any* slot boundary and
//! resuming from its checkpoint produces a bitwise-identical remaining
//! trace and final `RunResult` versus the uninterrupted run — for every
//! scheduler, with and without the resilience layer. Alongside it: the
//! checkpoint parser never panics on corrupted bytes, resume validation
//! rejects mismatched runs with typed errors, and a panicking scheduler is
//! isolated to its slot instead of aborting the process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use birp_core::checkpoint::{self, ResumeError};
use birp_core::{
    run_scheduler, run_scheduler_resumable, Birp, BirpOff, CheckpointPolicy, HealthConfig,
    MaxBatch, Oaei, RunCheckpoint, RunConfig, RunOutcome, RunResult, RunnerCheckpoint, Scheduler,
    ShardConfig, TemporalReuse,
};
use birp_mab::MabConfig;
use birp_models::{Catalog, EdgeId};
use birp_sim::{FaultPlan, Schedule, SimConfig, SlotOutcome};
use birp_solver::SolverConfig;
use birp_workload::{Trace, TraceConfig};
use serde::{DeError, Serialize, Value};

const SLOTS: usize = 8;

fn setup() -> (Catalog, Trace) {
    let catalog = Catalog::small_scale(42);
    let trace = TraceConfig {
        num_slots: SLOTS,
        mean_rate: 5.0,
        ..TraceConfig::small_scale(7)
    }
    .generate();
    (catalog, trace)
}

fn make_scheduler(catalog: &Catalog, which: usize) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(Birp::new(catalog.clone(), MabConfig::paper_preset())),
        1 => Box::new(BirpOff::new(catalog.clone())),
        2 => Box::new(Oaei::new(catalog.clone(), 3)),
        _ => Box::new(MaxBatch::paper_default(catalog.clone())),
    }
}

/// BIRP variants with the incremental re-solve path leaned on hard: deltas
/// on (the default) plus a skip streak longer than the trace, so the
/// persistent slot model is refreshed — never rebuilt — across every slot a
/// kill can land between.
fn delta_scheduler(catalog: &Catalog, which: usize) -> Box<dyn Scheduler> {
    let reuse = TemporalReuse {
        max_skip_streak: 6,
        ..TemporalReuse::default()
    };
    match which {
        0 => Box::new(Birp::new(catalog.clone(), MabConfig::paper_preset()).with_reuse(reuse)),
        _ => Box::new(BirpOff::new(catalog.clone()).with_reuse(reuse)),
    }
}

/// BIRP variants with temporal reuse off: no warm-start install, no skip
/// and no persistent slot model, so every slot lowers from scratch and the
/// checkpoint carries no slot inputs. BIRP comes through the `with_shards`
/// shim, as the end-to-end fleet benchmark builds it.
fn reuse_off_scheduler(catalog: &Catalog, which: usize) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(
            Birp::new(catalog.clone(), MabConfig::paper_preset()).with_shards(ShardConfig::new(2)),
        ),
        _ => Box::new(BirpOff::new(catalog.clone()).with_reuse(TemporalReuse::disabled())),
    }
}

fn config(resilience: bool) -> RunConfig {
    RunConfig {
        sim: SimConfig {
            faults: if resilience {
                FaultPlan::default().with_outage(EdgeId(2), 2, 6)
            } else {
                FaultPlan::default()
            },
            ..SimConfig::default()
        },
        resilience: resilience.then(HealthConfig::default),
        ..RunConfig::default()
    }
}

/// Delegating wrapper that raises the shutdown flag while deciding slot
/// `kill_at` — the runner then observes it at the top of slot `kill_at + 1`,
/// checkpointing exactly there. Models a SIGTERM landing mid-run.
struct KillAt {
    inner: Box<dyn Scheduler>,
    kill_at: usize,
    flag: Arc<AtomicBool>,
}

impl Scheduler for KillAt {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn decide(
        &mut self,
        t: usize,
        demand: &birp_core::DemandMatrix,
        prev: Option<&Schedule>,
    ) -> Schedule {
        if t == self.kill_at {
            self.flag.store(true, Ordering::SeqCst);
        }
        self.inner.decide(t, demand, prev)
    }
    fn observe(&mut self, outcome: &SlotOutcome) {
        self.inner.observe(outcome);
    }
    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        self.inner.set_edge_mask(mask);
    }
    fn export_state(&self) -> Value {
        self.inner.export_state()
    }
    fn import_state(&mut self, state: &Value) -> Result<(), DeError> {
        self.inner.import_state(state)
    }
}

fn tmp_ckpt(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("birp-crash-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("run.ckpt")
}

fn result_json(r: &RunResult) -> String {
    serde_json::to_string(&Serialize::to_value(r)).unwrap()
}

/// Kill at `kill_at` and return the checkpoint the interrupted run wrote.
fn killed(
    catalog: &Catalog,
    trace: &Trace,
    cfg: &RunConfig,
    mk: &dyn Fn(&Catalog) -> Box<dyn Scheduler>,
    kill_at: usize,
    tag: &str,
) -> RunnerCheckpoint {
    let path = tmp_ckpt(tag);
    let flag = Arc::new(AtomicBool::new(false));
    let mut killed = KillAt {
        inner: mk(catalog),
        kill_at,
        flag: Arc::clone(&flag),
    };
    let policy = CheckpointPolicy {
        path: path.clone(),
        every: 0,
        spec: Value::Null,
    };
    let outcome = run_scheduler_resumable(
        catalog,
        trace,
        &mut killed,
        cfg,
        Some(&policy),
        None,
        Some(&flag),
    )
    .unwrap();
    match outcome {
        RunOutcome::Interrupted { next_slot } => assert_eq!(next_slot, kill_at + 1),
        RunOutcome::Complete(_) => panic!("run was never interrupted"),
    }

    let ck = checkpoint::load(&path).unwrap();
    assert_eq!(ck.runner.next_slot, kill_at + 1);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    ck.runner
}

/// Kill at `kill_at`, resume from the written checkpoint on a freshly built
/// scheduler, and return the resumed run's final result.
fn killed_and_resumed(
    catalog: &Catalog,
    trace: &Trace,
    cfg: &RunConfig,
    mk: &dyn Fn(&Catalog) -> Box<dyn Scheduler>,
    kill_at: usize,
    tag: &str,
) -> RunResult {
    let ck = killed(catalog, trace, cfg, mk, kill_at, tag);
    let mut fresh = mk(catalog);
    let resumed =
        run_scheduler_resumable(catalog, trace, fresh.as_mut(), cfg, None, Some(ck), None).unwrap();
    match resumed {
        RunOutcome::Complete(r) => *r,
        RunOutcome::Interrupted { .. } => panic!("resumed run interrupted again"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: kill anywhere, resume, get the exact same
    /// final result as the uninterrupted run — any scheduler, resilience on
    /// or off.
    #[test]
    fn kill_resume_is_bitwise_equivalent(
        kill_at in 0..SLOTS - 1,
        which in 0usize..4,
        resilience_bit in 0usize..2,
    ) {
        let resilience = resilience_bit == 1;
        let (catalog, trace) = setup();
        let cfg = config(resilience);
        let baseline = run_scheduler(&catalog, &trace, make_scheduler(&catalog, which).as_mut(), &cfg);
        let resumed = killed_and_resumed(
            &catalog, &trace, &cfg, &|c| make_scheduler(c, which), kill_at,
            &format!("prop-{which}-{kill_at}-{resilience}"),
        );
        prop_assert_eq!(result_json(&baseline), result_json(&resumed));
    }

    /// Delta-path kill–resume (DESIGN.md §13): with the persistent slot
    /// model refreshing across every slot, a kill lands mid-delta-sequence
    /// by construction. The checkpoint carries only the model's input
    /// fingerprint; the resumed scheduler re-lowers from it and refreshes
    /// on, and the final result must still be bitwise identical to the
    /// uninterrupted run.
    #[test]
    fn kill_resume_mid_delta_sequence_is_bitwise_equivalent(
        kill_at in 0..SLOTS - 1,
        which in 0usize..2,
        resilience_bit in 0usize..2,
    ) {
        let resilience = resilience_bit == 1;
        let (catalog, trace) = setup();
        let cfg = config(resilience);
        let baseline = run_scheduler(
            &catalog, &trace, delta_scheduler(&catalog, which).as_mut(), &cfg,
        );
        let resumed = killed_and_resumed(
            &catalog, &trace, &cfg, &|c| delta_scheduler(c, which), kill_at,
            &format!("delta-{which}-{kill_at}-{resilience}"),
        );
        prop_assert_eq!(result_json(&baseline), result_json(&resumed));
    }

    /// Reuse-off kill–resume: the decide path the fleet runs, where every
    /// slot is a cold full solve and the only scheduler state across a kill
    /// is the tuner, the dive gate and the mask.
    #[test]
    fn kill_resume_reuse_off_is_bitwise_equivalent(
        kill_at in 0..SLOTS - 1,
        which in 0usize..2,
        resilience_bit in 0usize..2,
    ) {
        let resilience = resilience_bit == 1;
        let (catalog, trace) = setup();
        let cfg = config(resilience);
        let baseline = run_scheduler(
            &catalog, &trace, reuse_off_scheduler(&catalog, which).as_mut(), &cfg,
        );
        let resumed = killed_and_resumed(
            &catalog, &trace, &cfg, &|c| reuse_off_scheduler(c, which), kill_at,
            &format!("reuse-off-{which}-{kill_at}-{resilience}"),
        );
        prop_assert_eq!(result_json(&baseline), result_json(&resumed));
    }

    /// Corruption fuzz: arbitrary byte flips and truncations of a valid
    /// checkpoint file either parse or fail with a typed error — never
    /// panic the loader.
    #[test]
    fn corrupted_checkpoints_never_panic(ix in 0usize..4096, bit in 0u8..8, cut in 0usize..4096) {
        let ck = RunCheckpoint {
            spec: Value::Null,
            runner: RunnerCheckpoint::fresh(2, 3),
        };
        let payload = serde_json::to_string(&Serialize::to_value(&ck)).unwrap();
        let header = format!(
            "{} v{} crc32={:08x} len={}\n",
            checkpoint::MAGIC,
            checkpoint::VERSION,
            checkpoint::crc32(payload.as_bytes()),
            payload.len()
        );
        let mut bytes: Vec<u8> = header.into_bytes();
        bytes.extend_from_slice(payload.as_bytes());

        let mut flipped = bytes.clone();
        let at = ix % flipped.len();
        flipped[at] ^= 1 << bit;
        let _ = checkpoint::parse(&flipped);

        let truncated = &bytes[..cut % (bytes.len() + 1)];
        let _ = checkpoint::parse(truncated);
    }
}

/// Every kill point of a resilience run (quarantine + reroute + probes all
/// active) resumes exactly — the FSM, the reroute counters and the probe
/// schedule all live in the checkpoint.
#[test]
fn every_kill_point_resumes_exactly_under_faults() {
    let (catalog, trace) = setup();
    let cfg = config(true);
    let baseline = run_scheduler(&catalog, &trace, make_scheduler(&catalog, 1).as_mut(), &cfg);
    let expected = result_json(&baseline);
    for kill_at in 0..SLOTS - 1 {
        let resumed = killed_and_resumed(
            &catalog,
            &trace,
            &cfg,
            &|c| make_scheduler(c, 1),
            kill_at,
            &format!("all-{kill_at}"),
        );
        assert_eq!(expected, result_json(&resumed), "kill_at={kill_at}");
    }
}

/// Resume validation rejects checkpoints that do not match the run.
#[test]
fn resume_validation_catches_mismatches() {
    let (catalog, trace) = setup();
    let cfg = RunConfig::default();

    // Wrong scheduler.
    let mut ck = RunnerCheckpoint::fresh(catalog.num_apps(), catalog.num_edges());
    ck.scheduler_name = "OAEI".to_string();
    let mut birp = BirpOff::new(catalog.clone());
    let err = run_scheduler_resumable(&catalog, &trace, &mut birp, &cfg, None, Some(ck), None)
        .unwrap_err();
    assert!(matches!(err, ResumeError::SpecMismatch(_)), "{err}");

    // Wrong queue shape.
    let ck = RunnerCheckpoint::fresh(catalog.num_apps() + 1, catalog.num_edges());
    let err = run_scheduler_resumable(&catalog, &trace, &mut birp, &cfg, None, Some(ck), None)
        .unwrap_err();
    assert!(matches!(err, ResumeError::SpecMismatch(_)), "{err}");

    // Slot index beyond the trace.
    let mut ck = RunnerCheckpoint::fresh(catalog.num_apps(), catalog.num_edges());
    ck.next_slot = trace.num_slots() + 1;
    let err = run_scheduler_resumable(&catalog, &trace, &mut birp, &cfg, None, Some(ck), None)
        .unwrap_err();
    assert!(matches!(err, ResumeError::SpecMismatch(_)), "{err}");

    // Resilience setting differs from the checkpointed run.
    let ck = RunnerCheckpoint::fresh(catalog.num_apps(), catalog.num_edges());
    let cfg_res = RunConfig {
        resilience: Some(HealthConfig::default()),
        ..RunConfig::default()
    };
    let err = run_scheduler_resumable(&catalog, &trace, &mut birp, &cfg_res, None, Some(ck), None)
        .unwrap_err();
    assert!(matches!(err, ResumeError::SpecMismatch(_)), "{err}");

    // Garbage scheduler state payload.
    let mut ck = RunnerCheckpoint::fresh(catalog.num_apps(), catalog.num_edges());
    ck.scheduler_state = Value::Str("not a scheduler state".to_string());
    let mut oaei = Oaei::new(catalog.clone(), 3);
    let err = run_scheduler_resumable(&catalog, &trace, &mut oaei, &cfg, None, Some(ck), None)
        .unwrap_err();
    assert!(matches!(err, ResumeError::Parse(_)), "{err}");
}

/// A scheduler that panics mid-run loses only that slot: the greedy-LOCAL
/// fallback serves it, the run completes, and the isolation count lands in
/// the next checkpoint.
#[test]
fn panicking_scheduler_is_isolated_to_its_slot() {
    struct PanicAt {
        inner: BirpOff,
        panic_on: Vec<usize>,
    }
    impl Scheduler for PanicAt {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn decide(
            &mut self,
            t: usize,
            demand: &birp_core::DemandMatrix,
            prev: Option<&Schedule>,
        ) -> Schedule {
            assert!(!self.panic_on.contains(&t), "injected panic at t={t}");
            self.inner.decide(t, demand, prev)
        }
        fn observe(&mut self, outcome: &SlotOutcome) {
            self.inner.observe(outcome);
        }
        fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
            self.inner.set_edge_mask(mask);
        }
    }

    let (catalog, trace) = setup();
    let path = tmp_ckpt("panic");
    let policy = CheckpointPolicy {
        path: path.clone(),
        every: SLOTS - 1,
        spec: Value::Null,
    };
    let mut s = PanicAt {
        inner: BirpOff::new(catalog.clone()),
        panic_on: vec![1, 4],
    };
    // Injected panics print through the default hook; silence is not worth a
    // global hook swap, so the test output simply shows two panic banners.
    let outcome = run_scheduler_resumable(
        &catalog,
        &trace,
        &mut s,
        &RunConfig::default(),
        Some(&policy),
        None,
        None,
    )
    .unwrap();
    let RunOutcome::Complete(r) = outcome else {
        panic!("run did not complete");
    };
    assert_eq!(
        r.metrics.served + r.metrics.dropped,
        r.offered,
        "conservation must hold across isolated panics"
    );
    let ck = checkpoint::load(&path).unwrap();
    assert_eq!(ck.runner.panic_isolated, 2);
    let _ = std::fs::remove_dir_all(path.parent().unwrap());

    // With isolation off the same panic is fatal.
    let mut s = PanicAt {
        inner: BirpOff::new(catalog.clone()),
        panic_on: vec![1],
    };
    let cfg = RunConfig {
        isolate_panics: false,
        ..RunConfig::default()
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_scheduler(&catalog, &trace, &mut s, &cfg)
    }));
    assert!(caught.is_err(), "isolation off must propagate the panic");
}

/// Periodic checkpoints land on the configured cadence and resume exactly
/// like shutdown checkpoints do.
#[test]
fn periodic_checkpoint_resumes_exactly() {
    let (catalog, trace) = setup();
    let cfg = RunConfig::default();
    let baseline = run_scheduler(&catalog, &trace, make_scheduler(&catalog, 0).as_mut(), &cfg);

    let path = tmp_ckpt("periodic");
    let policy = CheckpointPolicy {
        path: path.clone(),
        every: 3,
        spec: Value::Object(vec![("scale".into(), Value::Str("small".into()))]),
    };
    let mut s = make_scheduler(&catalog, 0);
    let outcome = run_scheduler_resumable(
        &catalog,
        &trace,
        s.as_mut(),
        &cfg,
        Some(&policy),
        None,
        None,
    )
    .unwrap();
    let RunOutcome::Complete(full) = outcome else {
        panic!("run did not complete");
    };
    assert_eq!(result_json(&baseline), result_json(&full));

    // The file on disk is the *last* periodic save: slot 6 of 8 (slot 3's
    // save was overwritten, the would-be slot-9 save is out of range).
    let ck = checkpoint::load(&path).unwrap();
    assert_eq!(ck.runner.next_slot, 6);
    assert_eq!(ck.spec.get("scale").and_then(Value::as_str), Some("small"));

    let mut fresh = make_scheduler(&catalog, 0);
    let resumed = run_scheduler_resumable(
        &catalog,
        &trace,
        fresh.as_mut(),
        &cfg,
        None,
        Some(ck.runner),
        None,
    )
    .unwrap();
    let RunOutcome::Complete(r) = resumed else {
        panic!("resumed run did not complete");
    };
    assert_eq!(result_json(&baseline), result_json(&r));
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Root-dive gate (DESIGN.md §15) across a kill. On the large catalog the
/// root dive misses on every budget-truncated solve, so the gate closes
/// after eight full solves and then only probes. A checkpoint taken while
/// it is closed must restore it closed, or the resumed run would dive where
/// the uninterrupted one did not.
#[test]
fn kill_resume_with_the_dive_gate_closed_is_bitwise_equivalent() {
    const KILL_AT: usize = 40;
    let catalog = Catalog::large_scale(42);
    let trace = TraceConfig {
        num_slots: 48,
        ..TraceConfig::large_scale(42)
    }
    .generate();
    // `birp run --scale large`: the scheduling preset, 16 nodes, dive on.
    let solver = SolverConfig {
        node_limit: 16,
        ..SolverConfig::scheduling()
    };
    let mk = |c: &Catalog| -> Box<dyn Scheduler> {
        Box::new(Birp::new(c.clone(), MabConfig::paper_preset()).with_solver(solver.clone()))
    };
    let cfg = RunConfig::default();
    let mut whole = mk(&catalog);
    let expected = result_json(&run_scheduler(&catalog, &trace, whole.as_mut(), &cfg));

    let ck = killed(&catalog, &trace, &cfg, &mk, KILL_AT, "dive-gate");
    let gate = |key: &str| {
        ck.scheduler_state
            .get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("checkpoint lacks {key}"))
    };
    let (misses, since) = (gate("dive_misses"), gate("solves_since_dive"));
    assert!(
        misses >= 8 && since + 1 < 16,
        "gate open at the kill: {misses} misses, {since} solves since the last dive"
    );
    let mut fresh = mk(&catalog);
    let outcome =
        run_scheduler_resumable(&catalog, &trace, fresh.as_mut(), &cfg, None, Some(ck), None)
            .unwrap();
    let RunOutcome::Complete(result) = outcome else {
        panic!("resumed run interrupted again");
    };
    assert_eq!(expected, result_json(&result));
    // The dive never hits here, so a gate reset by the resume would leave
    // the decisions alone; the gate counters at the end would differ.
    let state = |s: &dyn Scheduler| serde_json::to_string(&s.export_state()).unwrap();
    assert_eq!(state(whole.as_ref()), state(fresh.as_ref()));
}
