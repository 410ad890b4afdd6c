//! Drives a scheduler over a trace, slot by slot.
//!
//! Responsibilities beyond calling `decide` / `execute_slot` / `observe`:
//!
//! * **carry-over** — requests a schedule leaves unserved re-enter the next
//!   slot's demand (FIFO, oldest first); their eventual completion time is
//!   `age + within-slot completion`, which is where the CDF mass beyond 1.0
//!   in paper Figs. 6a/7a comes from. Requests older than
//!   [`RunConfig::max_carryover`] slots are dropped and counted as SLO
//!   failures,
//! * **validation** — every schedule is checked against the structural
//!   constraints before execution (a scheduler bug fails fast, loudly),
//! * **resilience** (opt-in via [`RunConfig::resilience`]) — a
//!   [`HealthMonitor`] watches executor outcomes, masks quarantined edges
//!   out of planning, reroutes demand stranded on them back into the
//!   global queue, and places single-request recovery probes (DESIGN.md
//!   §10). The monitor never sees the fault plan — outcomes only,
//! * **metrics** — per-slot loss, cumulative loss, completion CDF, `p%`,
//! * **durability** (opt-in via [`CheckpointPolicy`]) — periodic atomic
//!   checkpoints plus a cooperative shutdown flag, so a killed run resumes
//!   mid-trace with bitwise-identical remaining output (DESIGN.md §12).
//!   This includes the MILP schedulers' persistent slot model: its input
//!   fingerprint rides in the exported scheduler state, so a resumed run
//!   re-lowers once and continues the interrupted delta sequence
//!   (DESIGN.md §13) exactly as the uninterrupted run would,
//! * **panic isolation** (on by default) — a panicking `decide` is caught,
//!   the slot falls back to the loss-greedy strictly-local packing, and the
//!   run continues instead of taking the process down.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use birp_models::{AppId, Catalog, EdgeId, ModelId};
use birp_sim::{
    network_usage_mb, validate, Deployment, EdgeSim, MetricsCollector, RunMetrics, Schedule,
    SimConfig,
};
use birp_telemetry as telemetry;
use birp_telemetry::{HistogramSummary, Level, LogHistogram};
use birp_tir::TirParams;
use birp_workload::Trace;
use serde::{Deserialize, Serialize, Value};

use crate::checkpoint::{self, ResumeError, RunCheckpoint};
use crate::demand::DemandMatrix;
use crate::health::{HealthConfig, HealthMonitor, QuarantineEvent};
use crate::schedulers::{greedy_local, Scheduler, TemporalReuse};

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub sim: SimConfig,
    /// Maximum whole slots a request may wait before it is dropped.
    pub max_carryover: usize,
    /// Panic on structurally invalid schedules (on by default; experiments
    /// should never proceed on garbage decisions).
    pub strict: bool,
    /// Enable the failure detector / quarantine-and-reroute layer with the
    /// given tuning. `None` (the default) runs fault-blind: the exact
    /// pre-resilience behaviour.
    pub resilience: Option<HealthConfig>,
    /// Cross-slot temporal reuse for the MILP schedulers (DESIGN.md §11).
    /// The runner itself never reads this — it is the canonical place an
    /// experiment carries the knob so scheduler builders (and the CLI's
    /// `--no-reuse`) agree on one setting.
    pub reuse: TemporalReuse,
    /// Catch panics escaping `scheduler.decide` and serve the slot with the
    /// greedy-LOCAL fallback instead of aborting the run (on by default).
    /// The runner's own strict-validation panic is *not* isolated — an
    /// invalid schedule is a bug, not a transient.
    pub isolate_panics: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sim: SimConfig::default(),
            max_carryover: 1,
            strict: true,
            resilience: None,
            reuse: TemporalReuse::default(),
            isolate_panics: true,
        }
    }
}

/// When and where [`run_scheduler_resumable`] persists checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written atomically: `<path>.tmp` + rename).
    pub path: PathBuf,
    /// Write after every `every`-th slot, on the *absolute* slot index, so
    /// the cadence is stable across kill–resume cycles. `0` disables
    /// periodic writes (the shutdown flag still triggers one).
    pub every: usize,
    /// Opaque embedder spec stored verbatim in the file — whatever the
    /// caller needs to rebuild catalog/trace/scheduler for `resume`.
    pub spec: Value,
}

/// How a resumable run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The trace ran to completion.
    Complete(Box<RunResult>),
    /// The shutdown flag was observed; state up to (not including)
    /// `next_slot` was checkpointed and the run stopped early.
    Interrupted { next_slot: usize },
}

/// Output of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    pub scheduler: String,
    pub metrics: RunMetrics,
    pub slots: usize,
    /// Total requests the trace generated.
    pub offered: u64,
    /// Per-run observability aggregates; `None` when the telemetry facade
    /// was disabled during the run (results serialized before this field
    /// existed also deserialize to `None`).
    pub telemetry: Option<RunTelemetry>,
    /// Resilience-layer summary; `None` when [`RunConfig::resilience`] was
    /// off (older serialized results also deserialize to `None`).
    pub health: Option<HealthReport>,
}

/// What the resilience layer did over one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthReport {
    /// Every quarantine episode (open episodes have `released == None`).
    pub events: Vec<QuarantineEvent>,
    /// Requests moved off masked edges back into the global queue.
    pub rerouted: u64,
    /// Single-request recovery probes placed.
    pub probes: u64,
}

/// Runner-level telemetry aggregated over one run. Unlike the global
/// registry (which accumulates across every run in the process), these
/// figures cover exactly this `run_scheduler` call.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunTelemetry {
    /// Wall-clock latency of `scheduler.decide` per slot (ms).
    pub decide_ms: HistogramSummary,
    /// Wall-clock latency of `sim.execute_slot` per slot (ms).
    pub execute_ms: HistogramSummary,
    /// Total requests shipped between edges over the run (`Σ y`).
    pub redistributed: u64,
    /// Requests dropped after exceeding the carry-over budget.
    pub dropped: u64,
    /// Largest carry-over queue depth observed at any slot start.
    pub carried_peak: u64,
    /// Slots whose `decide` panicked and were served by the greedy-LOCAL
    /// fallback instead (`RunConfig::isolate_panics`). Older serialized
    /// results deserialize to `0`.
    #[serde(default)]
    pub panic_isolated: u64,
}

/// Requests waiting at (app, edge), grouped by age in slots.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PendingCell {
    /// `by_age[a]` = requests that have already waited `a+1` slots... index 0
    /// holds requests that arrived in the previous slot.
    pub by_age: Vec<u32>,
}

impl PendingCell {
    fn total(&self) -> u32 {
        self.by_age.iter().sum()
    }
}

/// The runner's complete mid-trace state: everything
/// [`run_scheduler_resumable`] mutates across slots, snapshotted at the
/// *top* of slot `next_slot` (before demand assembly). Resuming from it on
/// freshly rebuilt catalog/trace/scheduler reproduces the uninterrupted
/// run's remaining trace bitwise — the kill–resume property the proptests
/// certify.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerCheckpoint {
    /// First slot the resumed run will execute.
    pub next_slot: usize,
    /// Carry-over queues, `[app][edge]`.
    pub pending: Vec<Vec<PendingCell>>,
    /// The previous slot's *executed* schedule (drives transfer costs).
    pub prev: Option<Schedule>,
    /// Streaming metric state (losses, CDF, drop counts).
    pub collector: MetricsCollector,
    /// Health-monitor FSM, present iff the run had resilience on.
    pub monitor: Option<HealthMonitor>,
    pub decide_hist: LogHistogram,
    pub execute_hist: LogHistogram,
    pub total_redistributed: u64,
    pub total_dropped: u64,
    pub carried_peak: u64,
    pub total_rerouted: u64,
    pub total_probes: u64,
    #[serde(default)]
    pub panic_isolated: u64,
    /// Name of the scheduler that produced `scheduler_state`; resume
    /// refuses a different scheduler (empty = fresh, matches any).
    pub scheduler_name: String,
    /// The scheduler's own exported state ([`Scheduler::export_state`]).
    pub scheduler_state: Value,
}

impl RunnerCheckpoint {
    /// The state of a run that has not executed any slot yet.
    pub fn fresh(num_apps: usize, num_edges: usize) -> Self {
        RunnerCheckpoint {
            next_slot: 0,
            pending: vec![vec![PendingCell::default(); num_edges]; num_apps],
            prev: None,
            collector: MetricsCollector::new(),
            monitor: None,
            decide_hist: LogHistogram::new(),
            execute_hist: LogHistogram::new(),
            total_redistributed: 0,
            total_dropped: 0,
            carried_peak: 0,
            total_rerouted: 0,
            total_probes: 0,
            panic_isolated: 0,
            scheduler_name: String::new(),
            scheduler_state: Value::Null,
        }
    }
}

/// Snapshot the loop state at the top of `next_slot`.
#[allow(clippy::too_many_arguments)]
fn snapshot(
    next_slot: usize,
    pending: &[Vec<PendingCell>],
    prev: Option<&Schedule>,
    collector: &MetricsCollector,
    monitor: Option<&HealthMonitor>,
    decide_hist: &LogHistogram,
    execute_hist: &LogHistogram,
    aggregates: [u64; 6],
    scheduler: &dyn Scheduler,
) -> RunnerCheckpoint {
    let [total_redistributed, total_dropped, carried_peak, total_rerouted, total_probes, panic_isolated] =
        aggregates;
    RunnerCheckpoint {
        next_slot,
        pending: pending.to_vec(),
        prev: prev.cloned(),
        collector: collector.clone(),
        monitor: monitor.cloned(),
        decide_hist: decide_hist.clone(),
        execute_hist: execute_hist.clone(),
        total_redistributed,
        total_dropped,
        carried_peak,
        total_rerouted,
        total_probes,
        panic_isolated,
        scheduler_name: scheduler.name().to_string(),
        scheduler_state: scheduler.export_state(),
    }
}

/// Background writer for *periodic* checkpoints: Value conversion, JSON,
/// the atomic write protocol, and the fsync all run off the slot loop's
/// critical path — the loop only pays for the in-memory [`snapshot`]
/// (~tens of µs) instead of the full save (~ms, fsync-dominated). A single
/// worker applies saves in submission order, so the file on disk is always
/// the latest fully-written snapshot. *Shutdown* saves stay synchronous:
/// the process is about to exit and durability beats latency there.
struct AsyncCheckpointer {
    tx: Option<mpsc::Sender<RunCheckpoint>>,
    worker: Option<thread::JoinHandle<()>>,
    /// Last write error; taken by the loop and surfaced as a warn event
    /// (one save late — the warn-and-continue semantics are unchanged).
    error: Arc<Mutex<Option<String>>>,
}

impl AsyncCheckpointer {
    fn new(path: PathBuf) -> Self {
        let (tx, rx) = mpsc::channel::<RunCheckpoint>();
        let error = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&error);
        let worker = thread::spawn(move || {
            while let Ok(ck) = rx.recv() {
                if let Err(e) = checkpoint::save(&path, &ck) {
                    *slot.lock().unwrap() = Some(e.to_string());
                }
            }
        });
        AsyncCheckpointer {
            tx: Some(tx),
            worker: Some(worker),
            error,
        }
    }

    fn submit(&self, ck: RunCheckpoint) {
        // A send only fails if the worker died; the error slot then already
        // carries the diagnosis from its last save.
        if let Some(tx) = &self.tx {
            let _ = tx.send(ck);
        }
    }

    fn take_error(&self) -> Option<String> {
        self.error.lock().unwrap().take()
    }

    /// Drain queued saves, join the worker, and report its last error.
    fn finish(mut self) -> Option<String> {
        drop(self.tx.take());
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        self.error.lock().unwrap().take()
    }
}

/// Run `scheduler` over the full `trace`.
pub fn run_scheduler(
    catalog: &Catalog,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    cfg: &RunConfig,
) -> RunResult {
    match run_scheduler_resumable(catalog, trace, scheduler, cfg, None, None, None) {
        Ok(RunOutcome::Complete(r)) => *r,
        Ok(RunOutcome::Interrupted { .. }) => {
            unreachable!("no shutdown flag was supplied")
        }
        Err(e) => unreachable!("checkpointing was off but failed: {e}"),
    }
}

/// Run `scheduler` over `trace`, optionally writing durable checkpoints
/// (`policy`), starting from a prior checkpoint (`resume`), and honouring a
/// cooperative shutdown flag (`shutdown`, e.g. set from a SIGTERM handler).
///
/// With all three `None` this is exactly [`run_scheduler`]. On shutdown the
/// state is checkpointed (when a policy is given) and
/// [`RunOutcome::Interrupted`] returned; a failed *shutdown* save is an
/// error (the state would be lost), while a failed *periodic* save only
/// warns and continues (the run itself is still healthy).
///
/// Periodic saves are written by a background thread ([`AsyncCheckpointer`])
/// so the slot loop only pays for the in-memory snapshot; the writer is
/// joined before this function returns, so callers always observe the final
/// fully-written checkpoint on disk.
pub fn run_scheduler_resumable(
    catalog: &Catalog,
    trace: &Trace,
    scheduler: &mut dyn Scheduler,
    cfg: &RunConfig,
    policy: Option<&CheckpointPolicy>,
    resume: Option<RunnerCheckpoint>,
    shutdown: Option<&AtomicBool>,
) -> Result<RunOutcome, ResumeError> {
    assert_eq!(
        trace.num_apps(),
        catalog.num_apps(),
        "trace/catalog app mismatch"
    );
    assert_eq!(
        trace.num_edges(),
        catalog.num_edges(),
        "trace/catalog edge mismatch"
    );

    let na = catalog.num_apps();
    let ne = catalog.num_edges();
    let sim = EdgeSim::new(catalog.clone(), cfg.sim.clone());

    // Resume (or start fresh). Validation order: cheap structural checks
    // first, then the scheduler's own state import — so a checkpoint from a
    // different run shape fails with a `SpecMismatch` before any state is
    // half-applied.
    let resumed = resume.is_some();
    let ck = match resume {
        Some(ck) => {
            if !ck.scheduler_name.is_empty() && ck.scheduler_name != scheduler.name() {
                return Err(ResumeError::SpecMismatch(format!(
                    "checkpoint was written by scheduler {:?}, resuming with {:?}",
                    ck.scheduler_name,
                    scheduler.name()
                )));
            }
            if ck.pending.len() != na || ck.pending.iter().any(|row| row.len() != ne) {
                return Err(ResumeError::SpecMismatch(format!(
                    "checkpoint queue shape {}x{} does not match catalog {na}x{ne}",
                    ck.pending.len(),
                    ck.pending.first().map_or(0, Vec::len),
                )));
            }
            if ck.next_slot > trace.num_slots() {
                return Err(ResumeError::SpecMismatch(format!(
                    "checkpoint next_slot {} exceeds trace length {}",
                    ck.next_slot,
                    trace.num_slots()
                )));
            }
            if ck.monitor.is_some() != cfg.resilience.is_some() {
                return Err(ResumeError::SpecMismatch(
                    "checkpoint and run disagree on resilience (health monitor presence)".into(),
                ));
            }
            scheduler.import_state(&ck.scheduler_state)?;
            ck
        }
        None => RunnerCheckpoint::fresh(na, ne),
    };
    let start = ck.next_slot;
    let mut pending = ck.pending;
    let mut prev = ck.prev;
    let mut collector = ck.collector;
    // Resilience layer (opt-in). The monitor only ever sees executed
    // outcomes — never `cfg.sim.faults`. A resumed run continues the
    // checkpointed monitor FSM rather than re-learning health from scratch.
    let mut monitor = if resumed {
        ck.monitor
    } else {
        cfg.resilience.map(|hc| HealthMonitor::new(ne, hc))
    };

    // Per-run observability state. Only touched when the global facade is
    // enabled, so a disabled run takes the exact same decision path.
    let instrument = telemetry::enabled();
    let mut decide_hist = ck.decide_hist;
    let mut execute_hist = ck.execute_hist;
    let mut total_redistributed = ck.total_redistributed;
    let mut total_dropped = ck.total_dropped;
    let mut carried_peak = ck.carried_peak;
    let mut total_rerouted = ck.total_rerouted;
    let mut total_probes = ck.total_probes;
    let mut panic_isolated = ck.panic_isolated;

    // Spawned lazily at the first periodic save; joined before returning so
    // the on-disk checkpoint is final when the caller regains control.
    let mut writer: Option<AsyncCheckpointer> = None;

    for t in start..trace.num_slots() {
        // --- cooperative shutdown ------------------------------------------
        // Checked at the slot boundary: the checkpoint always captures a
        // whole number of executed slots, never a torn slot.
        if shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
            if let Some(p) = policy {
                let _checkpoint_span = telemetry::span("runner.checkpoint");
                // Flush any in-flight periodic save first so the synchronous
                // shutdown save below lands last (and therefore wins).
                if let Some(e) = writer.take().and_then(AsyncCheckpointer::finish) {
                    telemetry::event(
                        Level::Warn,
                        "runner.checkpoint_failed",
                        &[("t", (t as u64).into()), ("error", e.into())],
                    );
                }
                checkpoint::save(
                    &p.path,
                    &RunCheckpoint {
                        spec: p.spec.clone(),
                        runner: snapshot(
                            t,
                            &pending,
                            prev.as_ref(),
                            &collector,
                            monitor.as_ref(),
                            &decide_hist,
                            &execute_hist,
                            [
                                total_redistributed,
                                total_dropped,
                                carried_peak,
                                total_rerouted,
                                total_probes,
                                panic_isolated,
                            ],
                            scheduler,
                        ),
                    },
                )?;
            }
            return Ok(RunOutcome::Interrupted { next_slot: t });
        }
        // --- quarantine: mask planning, reroute stranded work --------------
        let mask = monitor.as_ref().and_then(|m| m.mask());
        scheduler.set_edge_mask(mask.as_deref());

        // --- assemble demand: fresh + carried over -------------------------
        let mut demand = DemandMatrix::from_trace(trace, t);
        if let Some(mask) = &mask {
            let healthy: Vec<usize> = (0..ne).filter(|&k| !mask[k]).collect();
            if !healthy.is_empty() {
                let mut moved = 0u64;
                for k in (0..ne).filter(|&k| mask[k]) {
                    for i in 0..na {
                        let dest = healthy[(i + k + t) % healthy.len()];
                        // Fresh arrivals at a masked edge enter the global
                        // queue at a healthy edge instead.
                        let fresh = demand.get(AppId(i), EdgeId(k));
                        if fresh > 0 {
                            demand.set(AppId(i), EdgeId(k), 0);
                            demand.add(AppId(i), EdgeId(dest), fresh);
                            moved += fresh as u64;
                        }
                        // Carried requests stranded on the masked edge
                        // follow, keeping their ages (they would otherwise
                        // wait out the quarantine and age into drops).
                        let cell = std::mem::take(&mut pending[i][k]);
                        if cell.total() > 0 {
                            moved += cell.total() as u64;
                            let dst = &mut pending[i][dest];
                            if dst.by_age.len() < cell.by_age.len() {
                                dst.by_age.resize(cell.by_age.len(), 0);
                            }
                            for (age, c) in cell.by_age.into_iter().enumerate() {
                                dst.by_age[age] += c;
                            }
                        }
                    }
                }
                if moved > 0 {
                    total_rerouted += moved;
                    telemetry::counter("runner.rerouted", moved);
                }
            }
        }
        let mut carried_total = 0u64;
        for (i, row) in pending.iter().enumerate() {
            for (k, cell) in row.iter().enumerate() {
                let carried = cell.total();
                if carried > 0 {
                    carried_total += carried as u64;
                    demand.add(AppId(i), EdgeId(k), carried);
                }
            }
        }
        carried_peak = carried_peak.max(carried_total);

        // --- decide + validate ---------------------------------------------
        let decide_start = instrument.then(Instant::now);
        let schedule = if cfg.isolate_panics {
            // A panicking scheduler loses this slot's optimisation, not the
            // run: fall back to the loss-greedy strictly-local packing (the
            // same engine LocalOnly uses) and keep going. The provenance
            // event carries the panic message so `birp report` can attribute
            // the fallback decision.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let _decide_span = telemetry::span("runner.decide");
                scheduler.decide(t, &demand, prev.as_ref())
            }));
            match caught {
                Ok(s) => s,
                Err(payload) => {
                    panic_isolated += 1;
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    telemetry::counter("runner.panic_isolated", 1);
                    telemetry::event(
                        Level::Warn,
                        "runner.panic_isolated",
                        &[
                            ("t", (t as u64).into()),
                            ("scheduler", scheduler.name().to_string().into()),
                            ("panic", msg.into()),
                        ],
                    );
                    greedy_local(
                        catalog,
                        &TirParams::paper_initial(),
                        t,
                        &demand,
                        prev.as_ref(),
                        mask.as_deref(),
                    )
                }
            }
        } else {
            // Root of the per-slot causal trace: everything the scheduler
            // does (reuse probes, problem build, branch and bound) nests
            // under this span.
            let _decide_span = telemetry::span("runner.decide");
            scheduler.decide(t, &demand, prev.as_ref())
        };
        let decide_ms = decide_start.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1000.0);
        let demand_fn = |a: AppId, e: EdgeId| demand.get(a, e);
        if let Err(err) = validate(catalog, &demand_fn, &schedule, prev.as_ref()) {
            if cfg.strict {
                panic!(
                    "{} produced an invalid schedule at t={t}: {err}",
                    scheduler.name()
                );
            }
        }

        // --- recovery probes -------------------------------------------------
        // Masked edges execute nothing, so recovery would be unobservable;
        // place a single-request batch of the edge's cheapest model on each
        // edge owed a probe. Probes ride the executed schedule only — the
        // scheduler's decision (already validated) is untouched.
        let probe_edges: Vec<EdgeId> = monitor.as_ref().map_or_else(Vec::new, |m| m.probes_due(t));
        let exec_schedule = if probe_edges.is_empty() {
            None
        } else {
            let mut s = schedule.clone();
            for &pe in &probe_edges {
                let k = pe.index();
                let m = (0..catalog.num_models())
                    .min_by(|&a, &b| {
                        catalog.edges[k].gamma_ms[a]
                            .partial_cmp(&catalog.edges[k].gamma_ms[b])
                            .unwrap()
                    })
                    .expect("catalog has at least one model");
                s.deployments[k].push(Deployment {
                    app: catalog.models[m].app,
                    model: ModelId(m),
                    batch: 1,
                });
                monitor.as_mut().unwrap().mark_probed(pe, t);
                total_probes += 1;
            }
            Some(s)
        };

        // --- execute ---------------------------------------------------------
        let execute_start = instrument.then(Instant::now);
        let outcome = {
            let _execute_span = telemetry::span("runner.execute");
            sim.execute_slot(exec_schedule.as_ref().unwrap_or(&schedule), prev.as_ref())
        };
        let execute_ms = execute_start.map_or(0.0, |s| s.elapsed().as_secs_f64() * 1000.0);
        // The monitor digests the full outcome (probe batches included —
        // they are its recovery evidence) ...
        if let Some(mon) = monitor.as_mut() {
            mon.observe(&outcome);
        }
        // ... but probes are diagnostics, not served traffic: strip them
        // before anything that feeds metrics or scheduler feedback.
        let outcome = if probe_edges.is_empty() {
            outcome
        } else {
            let mut o = outcome;
            o.batches.retain(|b| !probe_edges.contains(&b.edge));
            o.loss = schedule.loss(catalog);
            o.slo_violations = o
                .batches
                .iter()
                .filter(|b| b.completion_norm > 1.0)
                .map(|b| b.batch as u64)
                .sum();
            o
        };
        scheduler.observe(&outcome);
        collector.begin_slot();
        collector.record_loss(outcome.loss);

        let mut slot_dropped = 0u64;
        let redistributed: u64 = if instrument {
            (0..na)
                .flat_map(|i| (0..ne).map(move |k| (i, k)))
                .map(|(i, k)| schedule.routing.outbound(AppId(i), EdgeId(k)) as u64)
                .sum()
        } else {
            0
        };

        // --- attribute completions to request ages ---------------------------
        // Per app: pool this slot's completion samples, serve the oldest
        // waiting requests with the earliest completions (schedulers
        // prioritise aged requests implicitly through FIFO consumption).
        for (i, pending_row) in pending.iter_mut().enumerate() {
            let mut samples: Vec<f64> = outcome
                .batches
                .iter()
                .filter(|b| b.app == AppId(i))
                .flat_map(|b| std::iter::repeat_n(b.completion_norm, b.batch as usize))
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());

            // Build the served-age profile: for each edge, served = demand -
            // unserved; consume pending oldest-first, remainder is fresh.
            let mut age_counts: Vec<(usize, u32)> = Vec::new(); // (age, count)
            for (k, cell) in pending_row.iter_mut().enumerate() {
                let d = demand.get(AppId(i), EdgeId(k));
                let unserved = schedule.unserved[i][k];
                let mut served = d - unserved.min(d);
                // Oldest first: highest age index first.
                for age_ix in (0..cell.by_age.len()).rev() {
                    let take = cell.by_age[age_ix].min(served);
                    if take > 0 {
                        age_counts.push((age_ix + 1, take));
                        cell.by_age[age_ix] -= take;
                        served -= take;
                    }
                }
                if served > 0 {
                    age_counts.push((0, served));
                }
                // Whatever remains waiting ages by one slot; too-old drops.
                // Service is FIFO, so `unserved` splits into old requests
                // not consumed above (they keep their incremented age) and
                // the youngest fresh arrivals (entering at age index 0).
                let leftover_old: u32 = cell.by_age.iter().sum();
                let fresh_unserved = unserved.min(d) - leftover_old.min(unserved.min(d));
                let mut next = vec![0u32; cell.by_age.len() + 1];
                next[0] = fresh_unserved;
                for (age_ix, &cnt) in cell.by_age.iter().enumerate() {
                    if cnt > 0 {
                        next[age_ix + 1] = cnt;
                    }
                }
                // Drop anything beyond the carry-over budget.
                while next.len() > cfg.max_carryover {
                    let dropped = next.pop().unwrap();
                    if dropped > 0 {
                        slot_dropped += dropped as u64;
                        collector.record_dropped(dropped as u64);
                    }
                }
                cell.by_age = next;
            }

            // Oldest requests get the earliest completions.
            age_counts.sort_by_key(|&(age, _)| std::cmp::Reverse(age));
            let mut s = samples.into_iter();
            for (age, count) in age_counts {
                for _ in 0..count {
                    match s.next() {
                        Some(c) => collector.record_completion(age as f64 + c),
                        None => break,
                    }
                }
            }
        }

        if instrument {
            decide_hist.observe(decide_ms);
            execute_hist.observe(execute_ms);
            total_redistributed += redistributed;
            total_dropped += slot_dropped;
            telemetry::observe("runner.decide_ms", decide_ms);
            telemetry::observe("runner.execute_ms", execute_ms);
            telemetry::observe("runner.carryover_depth", carried_total as f64);
            telemetry::counter("runner.slots", 1);
            telemetry::counter("runner.redistributed", redistributed);
            telemetry::counter("runner.dropped", slot_dropped);
            telemetry::event(
                Level::Info,
                "runner.slot",
                &[
                    ("t", (t as u64).into()),
                    ("demand", demand.total().into()),
                    ("served", schedule.served().into()),
                    ("unserved", schedule.total_unserved().into()),
                    ("carried", carried_total.into()),
                    ("redistributed", redistributed.into()),
                    ("dropped", slot_dropped.into()),
                    ("loss", outcome.loss.into()),
                    ("decide_ms", decide_ms.into()),
                    ("execute_ms", execute_ms.into()),
                ],
            );
            audit_slot(catalog, &schedule, prev.as_ref());
        }

        // Next slot's transfer accounting must see what actually ran —
        // including probe deployments.
        prev = Some(exec_schedule.unwrap_or(schedule));

        // --- periodic checkpoint -------------------------------------------
        // Cadence on the *absolute* slot index so it is identical across
        // kill–resume cycles; skipped on the final slot (the run result is
        // about to land anyway). Only the in-memory snapshot happens here —
        // serialisation and the fsynced atomic write run on the background
        // writer. A failed periodic save must not kill a healthy run: warn
        // and carry on. The `runner.checkpoint` span is what checkpointing
        // costs the slot loop; it opens only under a policy.
        if let Some(p) = policy {
            if p.every > 0 && (t + 1) % p.every == 0 && t + 1 < trace.num_slots() {
                let _checkpoint_span = telemetry::span("runner.checkpoint");
                let ck = RunCheckpoint {
                    spec: p.spec.clone(),
                    runner: snapshot(
                        t + 1,
                        &pending,
                        prev.as_ref(),
                        &collector,
                        monitor.as_ref(),
                        &decide_hist,
                        &execute_hist,
                        [
                            total_redistributed,
                            total_dropped,
                            carried_peak,
                            total_rerouted,
                            total_probes,
                            panic_isolated,
                        ],
                        scheduler,
                    ),
                };
                let w = writer.get_or_insert_with(|| AsyncCheckpointer::new(p.path.clone()));
                w.submit(ck);
                if let Some(e) = w.take_error() {
                    telemetry::event(
                        Level::Warn,
                        "runner.checkpoint_failed",
                        &[("t", (t as u64).into()), ("error", e.into())],
                    );
                }
            }
        }
    }

    // Join the writer: when this function returns the checkpoint on disk is
    // the last periodic snapshot, fully written.
    if let Some(e) = writer.and_then(AsyncCheckpointer::finish) {
        telemetry::event(
            Level::Warn,
            "runner.checkpoint_failed",
            &[("error", e.into())],
        );
    }

    // Anything still waiting at the end of the horizon was never served.
    for row in &pending {
        for cell in row {
            let left = cell.total();
            if left > 0 {
                if instrument {
                    total_dropped += left as u64;
                    telemetry::counter("runner.dropped", left as u64);
                }
                collector.record_dropped(left as u64);
            }
        }
    }

    Ok(RunOutcome::Complete(Box::new(RunResult {
        scheduler: scheduler.name().to_string(),
        metrics: collector.finish(),
        slots: trace.num_slots(),
        offered: trace.total(),
        telemetry: instrument.then(|| RunTelemetry {
            decide_ms: decide_hist.summarize(),
            execute_ms: execute_hist.summarize(),
            redistributed: total_redistributed,
            dropped: total_dropped,
            carried_peak,
            panic_isolated,
        }),
        health: monitor.map(|m| HealthReport {
            events: m.events().to_vec(),
            rerouted: total_rerouted,
            probes: total_probes,
        }),
    })))
}

/// Emit the per-slot decision audit record: the chosen `x`/`b` digest and
/// which capacity constraints the decision is pressed up against. Debug
/// level — enable `--log-level debug` to capture these.
fn audit_slot(catalog: &Catalog, schedule: &Schedule, prev: Option<&Schedule>) {
    if (Level::Debug as u8) < (telemetry::min_level() as u8) {
        return;
    }
    // Digest: "e0:m2b8;e1:m0b4;..." — one entry per deployment.
    let mut digest = String::new();
    for (k, deps) in schedule.deployments.iter().enumerate() {
        for d in deps {
            if !digest.is_empty() {
                digest.push(';');
            }
            digest.push_str(&format!("e{k}:m{}b{}", d.model.index(), d.batch));
        }
    }
    // Binding constraints: memory/network loaded to >= 95% of budget.
    let mut binding = String::new();
    for k in 0..catalog.num_edges() {
        let edge = EdgeId(k);
        let mem_used: f64 = schedule.deployments[k]
            .iter()
            .map(|d| {
                let eff_batch = if schedule.serial { 1 } else { d.batch };
                catalog.model(d.model).memory_mb(eff_batch)
            })
            .sum();
        let net_used = network_usage_mb(catalog, schedule, prev, edge);
        for (name, used, cap) in [
            ("mem", mem_used, catalog.edge(edge).memory_mb),
            ("net", net_used, catalog.edge(edge).network_budget_mb),
        ] {
            if cap > 0.0 && used >= 0.95 * cap {
                if !binding.is_empty() {
                    binding.push(',');
                }
                binding.push_str(&format!("{name}[{k}]"));
            }
        }
    }
    telemetry::event(
        Level::Debug,
        "runner.audit",
        &[
            ("t", (schedule.t as u64).into()),
            ("deployments", digest.into()),
            ("binding", binding.into()),
            ("serial", schedule.serial.into()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedulers::{Birp, BirpOff, MaxBatch, Oaei};
    use birp_mab::MabConfig;
    use birp_workload::TraceConfig;

    fn small_trace(slots: usize, rate: f64) -> (Catalog, Trace) {
        let catalog = Catalog::small_scale(42);
        let trace = TraceConfig {
            num_slots: slots,
            mean_rate: rate,
            ..TraceConfig::small_scale(7)
        }
        .generate();
        (catalog, trace)
    }

    #[test]
    fn birp_run_conserves_requests() {
        let (catalog, trace) = small_trace(12, 6.0);
        let mut birp = Birp::new(catalog.clone(), MabConfig::paper_preset());
        let r = run_scheduler(&catalog, &trace, &mut birp, &RunConfig::default());
        // served + dropped == offered
        assert_eq!(
            r.metrics.served + r.metrics.dropped,
            r.offered,
            "request conservation broken"
        );
        assert_eq!(r.metrics.loss_per_slot.len(), 12);
        assert!(r.metrics.total_loss > 0.0);
    }

    #[test]
    fn all_schedulers_complete_a_short_run() {
        let (catalog, trace) = small_trace(6, 5.0);
        let cfg = RunConfig::default();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(Birp::new(catalog.clone(), MabConfig::paper_preset())),
            Box::new(BirpOff::new(catalog.clone())),
            Box::new(Oaei::new(catalog.clone(), 3)),
            Box::new(MaxBatch::paper_default(catalog.clone())),
        ];
        for s in schedulers.iter_mut() {
            let r = run_scheduler(&catalog, &trace, s.as_mut(), &cfg);
            assert_eq!(
                r.metrics.served + r.metrics.dropped,
                r.offered,
                "{}",
                r.scheduler
            );
            assert!(r.metrics.failure_rate_pct >= 0.0);
        }
    }

    #[test]
    fn carried_requests_age_in_the_cdf() {
        // Overload then idle: slot 0 floods one edge, slot 1 is empty, so
        // carried requests complete with age >= 1.
        let catalog = Catalog::small_scale(42);
        let mut trace = Trace::zeros(3, 1, catalog.num_edges());
        trace.set_demand(0, AppId(0), EdgeId(2), 60);
        let mut birp = BirpOff::new(catalog.clone());
        let r = run_scheduler(&catalog, &trace, &mut birp, &RunConfig::default());
        // Some requests must have completed with completion > 1.0.
        assert!(
            r.metrics.cdf.at(1.0) < 1.0 || r.metrics.dropped > 0,
            "expected aged completions or drops under overload"
        );
        assert_eq!(r.metrics.served + r.metrics.dropped, 60);
    }

    #[test]
    fn resilience_quarantines_outage_and_conserves_requests() {
        let (catalog, trace) = small_trace(24, 6.0);
        let cfg = RunConfig {
            sim: SimConfig {
                faults: birp_sim::FaultPlan::default().with_outage(EdgeId(2), 4, 16),
                ..SimConfig::default()
            },
            resilience: Some(HealthConfig::default()),
            ..RunConfig::default()
        };
        let mut birp = BirpOff::new(catalog.clone());
        let r = run_scheduler(&catalog, &trace, &mut birp, &cfg);
        assert_eq!(
            r.metrics.served + r.metrics.dropped,
            r.offered,
            "conservation must hold under quarantine-and-reroute"
        );
        let health = r.health.expect("resilience was on");
        assert!(
            health.events.iter().any(|e| e.edge == EdgeId(2)),
            "outage edge never quarantined: {:?}",
            health.events
        );
        assert!(health.probes > 0, "quarantined edge was never probed");
    }

    #[test]
    fn resilience_fault_free_run_never_quarantines() {
        let (catalog, trace) = small_trace(16, 6.0);
        let cfg = RunConfig {
            resilience: Some(HealthConfig::default()),
            ..RunConfig::default()
        };
        let mut birp = BirpOff::new(catalog.clone());
        let r = run_scheduler(&catalog, &trace, &mut birp, &cfg);
        let health = r.health.expect("resilience was on");
        assert!(
            health.events.is_empty(),
            "false-positive quarantine on a fault-free run: {:?}",
            health.events
        );
        assert_eq!(health.rerouted, 0);
        assert_eq!(health.probes, 0);
    }

    #[test]
    fn resilience_off_reports_no_health() {
        let (catalog, trace) = small_trace(4, 4.0);
        let mut birp = BirpOff::new(catalog.clone());
        let r = run_scheduler(&catalog, &trace, &mut birp, &RunConfig::default());
        assert!(r.health.is_none());
    }

    #[test]
    fn empty_trace_runs_cleanly() {
        let catalog = Catalog::small_scale(42);
        let trace = Trace::zeros(4, 1, catalog.num_edges());
        let mut birp = Birp::new(catalog.clone(), MabConfig::paper_preset());
        let r = run_scheduler(&catalog, &trace, &mut birp, &RunConfig::default());
        assert_eq!(r.metrics.served, 0);
        assert_eq!(r.metrics.total_loss, 0.0);
        assert_eq!(r.metrics.failure_rate_pct, 0.0);
    }
}
