//! Multi-slot decide-latency benchmark for cross-slot temporal reuse
//! (DESIGN.md §11).
//!
//! Runs the Fig. 6 small-scale BIRP workload twice over the same trace —
//! temporal reuse on and off — timing every `decide` call, and writes the
//! mean per-slot latencies plus their ratio to `BENCH_runner.json` at the
//! repo root (`BIRP_BENCH_RUNNER_OUT` overrides the destination, which is
//! how the `bench-diff` regression gate takes a fresh measurement without
//! clobbering the committed baseline). The acceptance bar is a ≥ 1.5× mean
//! improvement with reuse on, while the conformance layer (reuse-on
//! goldens, the `temporal_differential` suite) pins the objectives to
//! equality.
//!
//! A third pass re-runs the reuse-on workload with the telemetry facade
//! enabled at its default (`debug`) level to measure the flight recorder's
//! decide-path overhead — the observability acceptance bar is ≤ 5%.
//!
//! A fourth pass measures the durability layer (DESIGN.md §12): the Fig. 7
//! large-scale workload driven through `run_scheduler_resumable` with a
//! `--checkpoint-every 10` policy writing to a scratch file, timed on whole
//! run wall clock (checkpoint serialisation happens *between* slots, so
//! decide-only timing would not see it). It uses the large scale because
//! that is the production-shaped denominator: per-slot decide there is
//! ~10 ms, while the small-scale toy slots are sub-ms and would measure the
//! fixed per-save cost against almost no work. The acceptance bar is ≤ 3%
//! run overhead; `birp bench-diff` enforces it as an absolute bound on the
//! fresh record.
//!
//! A fifth pass measures the incremental re-solve layer (DESIGN.md §13):
//! a drift-only 64-slot sequence in the skip-heavy regime (tight pivot
//! budget, long skip streak — the regime where per-slot model construction
//! dominates decide), persistent slot model refreshed with typed deltas vs
//! lowered from scratch every slot. The two variants must make bitwise-
//! identical decisions (asserted on total loss); the acceptance bar is a
//! ≥ 1.5× mean decide improvement with the delta path on, enforced by
//! `birp bench-diff` as an absolute bound on the fresh record.

use std::sync::Arc;
use std::time::Instant;

use birp_core::{
    run_scheduler, run_scheduler_resumable, Birp, CheckpointPolicy, DemandMatrix, RunConfig,
    RunOutcome, Scheduler, TemporalReuse,
};
use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_sim::{Schedule, SlotOutcome};
use birp_solver::{SolveBudget, SolverConfig};
use birp_telemetry as telemetry;
use birp_workload::{Trace, TraceConfig};
use serde::Serialize;

const SLOTS: usize = 32;
const MEAN_RATE: f64 = 7.0;
const SEED: u64 = 42;
const REPS: usize = 5;
/// Slots for the checkpoint-overhead pass (Fig. 7 large scale, ~10 ms/slot):
/// two periodic saves at `--checkpoint-every 10` land inside the horizon.
const CKPT_SLOTS: usize = 24;
/// Slots for the delta-path pass: long enough that the one unavoidable
/// first-slot full lowering is noise against the drift-only refreshes.
const DELTA_SLOTS: usize = 64;
/// Skip streak for the delta-path pass: with the tight pivot budget below,
/// the solver stays in the heuristic regime and almost every slot is a lean
/// refresh — the regime where per-slot model construction is the dominant
/// decide cost and the delta path has something to win.
const DELTA_SKIP_STREAK: usize = 16;
/// Pivot budget forcing degraded (budget-truncated) solves so the
/// heuristic-regime skip actually fires on the small-scale workload.
const DELTA_MAX_PIVOTS: u64 = 40;

/// Times every `decide` call, delegating everything else unchanged.
struct TimedDecide<S> {
    inner: S,
    total_ms: f64,
    calls: usize,
}

impl<S: Scheduler> Scheduler for TimedDecide<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        let start = Instant::now();
        let s = self.inner.decide(t, demand, prev);
        self.total_ms += start.elapsed().as_secs_f64() * 1e3;
        self.calls += 1;
        s
    }

    fn observe(&mut self, outcome: &SlotOutcome) {
        self.inner.observe(outcome);
    }

    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        self.inner.set_edge_mask(mask);
    }
}

/// One full run; returns (mean decide ms, total loss).
fn run_once(catalog: &Catalog, trace: &Trace, reuse: TemporalReuse) -> (f64, f64) {
    let mut timed = TimedDecide {
        inner: Birp::new(catalog.clone(), MabConfig::paper_preset())
            .with_solver(SolverConfig::scheduling())
            .with_reuse(reuse),
        total_ms: 0.0,
        calls: 0,
    };
    let result = run_scheduler(catalog, trace, &mut timed, &RunConfig::default());
    (
        timed.total_ms / timed.calls.max(1) as f64,
        result.metrics.total_loss,
    )
}

/// One drift-regime run for the delta-path pass (DESIGN.md §13): tight
/// pivot budget + long skip streak keep the scheduler on lean refreshes,
/// with the persistent slot model either absorbing each slot as typed
/// deltas (`deltas: true`) or lowering from scratch every slot
/// (`deltas: false`, the pre-delta decision path). Returns
/// (mean decide ms, total loss); the loss must be bit-identical between the
/// two variants — the delta path is a build-cost lever, not a policy.
fn run_drift_once(catalog: &Catalog, trace: &Trace, deltas: bool) -> (f64, f64) {
    let solver_cfg = SolverConfig {
        budget: SolveBudget {
            max_pivots: Some(DELTA_MAX_PIVOTS),
            ..SolveBudget::default()
        },
        ..SolverConfig::scheduling()
    };
    let reuse = TemporalReuse {
        max_skip_streak: DELTA_SKIP_STREAK,
        deltas,
        ..TemporalReuse::default()
    };
    let mut timed = TimedDecide {
        inner: Birp::new(catalog.clone(), MabConfig::paper_preset())
            .with_solver(solver_cfg)
            .with_reuse(reuse),
        total_ms: 0.0,
        calls: 0,
    };
    let result = run_scheduler(catalog, trace, &mut timed, &RunConfig::default());
    (
        timed.total_ms / timed.calls.max(1) as f64,
        result.metrics.total_loss,
    )
}

/// One full reuse-on run timed on wall clock, optionally checkpointing.
/// Returns mean wall ms per slot (includes serialisation + atomic writes).
fn run_wall_once(catalog: &Catalog, trace: &Trace, policy: Option<&CheckpointPolicy>) -> f64 {
    let mut scheduler = Birp::new(catalog.clone(), MabConfig::paper_preset())
        .with_solver(SolverConfig::scheduling())
        .with_reuse(TemporalReuse::default());
    let start = Instant::now();
    let outcome = run_scheduler_resumable(
        catalog,
        trace,
        &mut scheduler,
        &RunConfig::default(),
        policy,
        None,
        None,
    )
    .expect("bench run cannot fail to checkpoint to a scratch file");
    assert!(matches!(outcome, RunOutcome::Complete(_)));
    start.elapsed().as_secs_f64() * 1e3 / trace.num_slots() as f64
}

#[derive(Serialize)]
struct Workload {
    scale: &'static str,
    slots: usize,
    mean_rate: f64,
    seed: u64,
}

#[derive(Serialize)]
struct Losses {
    reuse_off: f64,
    reuse_on: f64,
}

#[derive(Serialize)]
struct Acceptance {
    decide_speedup_required: f64,
    decide_speedup_measured: f64,
    objective_equality: &'static str,
    /// Absolute bound on `checkpoint_overhead_pct`, enforced by
    /// `birp bench-diff` on the fresh record (not a baseline ratio).
    checkpoint_overhead_max_pct: f64,
    /// Minimum `delta_speedup` (drift regime, delta path on vs off),
    /// enforced by `birp bench-diff` on the fresh record.
    delta_speedup_required: f64,
    delta_speedup_measured: f64,
}

#[derive(Serialize)]
struct Record {
    description: &'static str,
    workload: Workload,
    reuse_off_mean_decide_ms: f64,
    reuse_on_mean_decide_ms: f64,
    speedup: f64,
    /// Delta-path pass (DESIGN.md §13): mean decide latency on the
    /// drift-only 64-slot regime with the persistent slot model rebuilt
    /// from scratch every slot...
    delta_off_mean_decide_ms: f64,
    /// ...vs refreshed in place with typed deltas.
    delta_on_mean_decide_ms: f64,
    delta_speedup: f64,
    /// Decide-path slowdown with telemetry enabled at the default (`debug`)
    /// level, percent relative to the facade-disabled run.
    telemetry_overhead_pct: f64,
    /// Whole-run wall-clock slowdown with `--checkpoint-every 10` durable
    /// snapshots enabled, percent relative to the checkpoint-free run.
    checkpoint_overhead_pct: f64,
    total_loss: Losses,
    acceptance: Acceptance,
}

fn main() {
    // `cargo bench` passes harness flags (e.g. --bench); a bare `--no-run`
    // compile guard never executes this, and any argument beyond the binary
    // name is ignored.
    let catalog = Catalog::small_scale(SEED);
    let trace = TraceConfig {
        num_slots: SLOTS,
        mean_rate: MEAN_RATE,
        ..TraceConfig::small_scale(SEED)
    }
    .generate();

    // Warm-up: populate caches/codegen so neither variant pays first-run
    // costs.
    run_once(&catalog, &trace, TemporalReuse::disabled());

    let mut on_ms = f64::INFINITY;
    let mut off_ms = f64::INFINITY;
    let (mut on_loss, mut off_loss) = (0.0, 0.0);
    for _ in 0..REPS {
        let (ms, loss) = run_once(&catalog, &trace, TemporalReuse::disabled());
        if ms < off_ms {
            off_ms = ms;
        }
        off_loss = loss;
        let (ms, loss) = run_once(&catalog, &trace, TemporalReuse::default());
        if ms < on_ms {
            on_ms = ms;
        }
        on_loss = loss;
    }
    let speedup = off_ms / on_ms;

    // Delta-path pass (DESIGN.md §13): drift-only slot sequence under the
    // skip-heavy regime, persistent-model refresh on vs scratch lowering
    // every slot. The decisions must be identical — only the build cost
    // moves.
    let delta_trace = TraceConfig {
        num_slots: DELTA_SLOTS,
        mean_rate: MEAN_RATE,
        ..TraceConfig::small_scale(SEED)
    }
    .generate();
    run_drift_once(&catalog, &delta_trace, false); // warm-up
    let mut delta_off_ms = f64::INFINITY;
    let mut delta_on_ms = f64::INFINITY;
    let (mut delta_off_loss, mut delta_on_loss) = (0.0, 0.0);
    for _ in 0..REPS {
        let (ms, loss) = run_drift_once(&catalog, &delta_trace, false);
        delta_off_ms = delta_off_ms.min(ms);
        delta_off_loss = loss;
        let (ms, loss) = run_drift_once(&catalog, &delta_trace, true);
        delta_on_ms = delta_on_ms.min(ms);
        delta_on_loss = loss;
    }
    assert_eq!(
        delta_off_loss.to_bits(),
        delta_on_loss.to_bits(),
        "delta-refreshed and scratch-built runs must make identical decisions"
    );
    let delta_speedup = delta_off_ms / delta_on_ms;

    // Telemetry overhead: same reuse-on workload with the facade enabled at
    // its default level into a null sink (counters/histograms/events run the
    // full recording path; only the final write is free). Best-of-REPS on
    // both sides so scheduler noise cancels the same way.
    let mut instr_ms = f64::INFINITY;
    for _ in 0..REPS {
        telemetry::init(Arc::new(telemetry::NullSink), telemetry::Level::Debug);
        let (ms, _) = run_once(&catalog, &trace, TemporalReuse::default());
        telemetry::shutdown();
        telemetry::reset();
        if ms < instr_ms {
            instr_ms = ms;
        }
    }
    let overhead_pct = (instr_ms / on_ms - 1.0) * 100.0;

    // Checkpoint overhead: whole-run wall clock (snapshotting runs between
    // slots, outside `decide`), plain vs `every: 10` durable checkpoints to
    // a scratch file, on the Fig. 7 large-scale workload (see module docs
    // for why the denominator is the large scale). Best-of-REPS both sides.
    let large_catalog = Catalog::large_scale(SEED);
    let large_trace = TraceConfig {
        num_slots: CKPT_SLOTS,
        ..TraceConfig::large_scale(SEED)
    }
    .generate();
    let ckpt_path = std::env::temp_dir().join(format!("birp-bench-ckpt-{}", std::process::id()));
    let policy = CheckpointPolicy {
        path: ckpt_path.clone(),
        every: 10,
        spec: serde::Value::Null,
    };
    run_wall_once(&large_catalog, &large_trace, None); // warm-up
    let mut plain_wall_ms = f64::INFINITY;
    let mut ckpt_wall_ms = f64::INFINITY;
    for _ in 0..REPS {
        plain_wall_ms = plain_wall_ms.min(run_wall_once(&large_catalog, &large_trace, None));
        ckpt_wall_ms = ckpt_wall_ms.min(run_wall_once(&large_catalog, &large_trace, Some(&policy)));
    }
    let _ = std::fs::remove_file(&ckpt_path);
    let ckpt_overhead_pct = (ckpt_wall_ms / plain_wall_ms - 1.0) * 100.0;

    println!("--- runner decide latency (Fig. 6 small scale, {SLOTS} slots) ---");
    println!("reuse off  mean decide {off_ms:.3} ms/slot   total loss {off_loss:.2}");
    println!("reuse on   mean decide {on_ms:.3} ms/slot   total loss {on_loss:.2}");
    println!("speedup    {speedup:.2}x (acceptance: >= 1.5x)");
    println!(
        "--- delta path (drift regime, {DELTA_SLOTS} slots, skip streak {DELTA_SKIP_STREAK}) ---"
    );
    println!("delta off  mean decide {delta_off_ms:.4} ms/slot");
    println!("delta on   mean decide {delta_on_ms:.4} ms/slot");
    println!("speedup    {delta_speedup:.2}x (acceptance: >= 1.5x)");
    println!("telemetry  mean decide {instr_ms:.3} ms/slot at debug level");
    println!("overhead   {overhead_pct:.1}% (acceptance: <= 5%)");
    println!(
        "checkpoint mean wall {ckpt_wall_ms:.3} ms/slot at --checkpoint-every 10 \
         (plain {plain_wall_ms:.3}, Fig. 7 large scale, {CKPT_SLOTS} slots)"
    );
    println!("overhead   {ckpt_overhead_pct:.1}% (acceptance: <= 3%)");

    let record = Record {
        description: "Mean per-slot BIRP decide latency on the Fig. 6 small-scale workload \
                      (crates/bench/benches/runner_decide.rs), temporal reuse on vs off, same \
                      trace, best of 5 runs. checkpoint_overhead_pct is whole-run wall overhead \
                      of --checkpoint-every 10 durable snapshots on the Fig. 7 large-scale \
                      workload (24 slots). delta_* is the incremental re-solve pass: mean decide \
                      on a drift-only 64-slot sequence in the skip-heavy regime (pivot budget 40, \
                      skip streak 16), persistent slot model refreshed with typed deltas vs \
                      lowered from scratch every slot, identical decisions asserted.",
        workload: Workload {
            scale: "small",
            slots: SLOTS,
            mean_rate: MEAN_RATE,
            seed: SEED,
        },
        reuse_off_mean_decide_ms: off_ms,
        reuse_on_mean_decide_ms: on_ms,
        speedup,
        delta_off_mean_decide_ms: delta_off_ms,
        delta_on_mean_decide_ms: delta_on_ms,
        delta_speedup,
        telemetry_overhead_pct: overhead_pct,
        checkpoint_overhead_pct: ckpt_overhead_pct,
        total_loss: Losses {
            reuse_off: off_loss,
            reuse_on: on_loss,
        },
        acceptance: Acceptance {
            decide_speedup_required: 1.5,
            decide_speedup_measured: speedup,
            objective_equality: "temporal_differential proptests + reuse-on golden snapshots",
            checkpoint_overhead_max_pct: 3.0,
            delta_speedup_required: 1.5,
            delta_speedup_measured: delta_speedup,
        },
    };
    let path = std::env::var("BIRP_BENCH_RUNNER_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runner.json").to_string()
    });
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serialisable"),
    )
    .expect("write BENCH_runner.json");
    println!("wrote {path}");
}
