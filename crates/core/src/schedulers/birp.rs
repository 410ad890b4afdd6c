//! BIRP and its offline-oracle variant.
//!
//! BIRP (paper Fig. 3) per slot:
//!
//! 1. read the MAB tuner's lower-confidence-bound estimates of every
//!    (edge, model) TIR curve,
//! 2. build the batch-aware problem `P1^t`/`P2^t` with the Taylor-linearised
//!    compute constraint,
//! 3. solve the resulting MILP (the paper calls Gurobi; we call
//!    `birp_solver`),
//! 4. dispatch, then feed the observed per-batch TIRs back into the tuner
//!    (Eqs. 15–23).
//!
//! BIRP-OFF seeds the same machinery with offline-profiled ground truth and
//! disables tuning (paper Section 5.2).

use birp_mab::{MabConfig, Tuner};
use birp_models::Catalog;
use birp_sim::{Schedule, SlotOutcome};
use birp_solver::SolverConfig;
use birp_telemetry as telemetry;
use birp_tir::TirParams;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::demand::DemandMatrix;
use crate::problem::{
    DeltaOutcome, ExecutionMode, ProblemConfig, RebuildReason, ReuseOutcome, RootDiveOutcome,
    SlotInputs, SlotProblem, SolveStats, TirMatrix,
};
use crate::schedulers::local::greedy_local;
use crate::schedulers::Scheduler;

/// Root-dive gate (DESIGN.md §15): after this many consecutive full solves
/// that ended degraded after a root dive that missed, full solves stop
/// running the root dive.
const DIVE_MISS_LIMIT: usize = 8;
/// While the root-dive gate is closed, the full solve this many after the
/// last root dive runs it again as a probe.
const DIVE_PROBE_EVERY: usize = 16;

/// Cross-slot temporal reuse knobs (DESIGN.md §11).
///
/// Consecutive slots differ by smooth demand drift and occasional MAB
/// updates, so the previous slot's schedule is almost always a strong
/// starting incumbent. A full solve installs its repaired projection as the
/// warm start; while the budgeted solver is returning degraded incumbents,
/// the heuristic-regime skip serves that warm start without a search.
#[derive(Debug, Clone)]
pub struct TemporalReuse {
    /// Master switch (`--no-reuse` from the CLI). Off reproduces the
    /// pre-reuse decision path exactly.
    pub enabled: bool,
    /// Maximum consecutive slots the heuristic-regime skip may serve from
    /// the repaired previous-slot schedule before a true solve is forced.
    /// The skip only ever activates while the budgeted solver is returning
    /// degraded (budget-truncated) incumbents — in a regime where the
    /// solver proves optimality it is structurally inert, so `0` is only
    /// needed to ablate it explicitly.
    pub max_skip_streak: usize,
    /// Incremental re-solve (DESIGN.md §13): keep one persistent
    /// [`SlotProblem`] alive across slots and absorb each new slot as typed
    /// deltas (demand drift, quarantine mask, TIR estimate moves, previous
    /// deployments, budgets) instead of lowering from scratch. The refreshed
    /// model is bitwise-identical to a rebuild (the `temporal_differential`
    /// delta suite pins this), so this is purely a build-cost lever.
    pub deltas: bool,
}

impl Default for TemporalReuse {
    fn default() -> Self {
        TemporalReuse {
            enabled: true,
            max_skip_streak: 3,
            deltas: true,
        }
    }
}

impl TemporalReuse {
    /// The escape hatch (`--no-reuse`): no warm-start install, no skip and
    /// no persistent slot model — every slot lowers from scratch and runs a
    /// full solve.
    pub fn disabled() -> Self {
        TemporalReuse {
            enabled: false,
            deltas: false,
            ..TemporalReuse::default()
        }
    }
}

/// Fleet partition of [`Birp::with_shards`], the shim left by the deleted
/// sharded decide (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Edges per contiguous cluster; `0` means no partition.
    pub cluster_size: usize,
}

impl ShardConfig {
    pub fn new(cluster_size: usize) -> Self {
        ShardConfig { cluster_size }
    }
}

/// Everything [`Birp`] mutates across slots, in serializable form — the
/// scheduler half of a run checkpoint (DESIGN.md §12). The stored quarantine
/// `mask` is part of it deliberately: [`Birp::set_edge_mask`] resets the
/// skip streak on mask *change*, so a resumed scheduler must remember the
/// mask it last planned under or the first post-resume slot would spuriously
/// re-anchor. Checkpoints from before the schedule cache and the sharded
/// decide were removed still carry a `cache` or `shard_prices` field;
/// fields are looked up by name, so both are ignored.
#[derive(Serialize, Deserialize)]
struct BirpState {
    tuner: Tuner,
    cum_regret: f64,
    mask: Option<Vec<bool>>,
    skip_streak: usize,
    heuristic_regime: bool,
    /// Input fingerprint of the persistent slot model (DESIGN.md §13), when
    /// one was alive at checkpoint time. Restore re-lowers the skeleton from
    /// it and lets the first post-resume refresh recompute the derived
    /// state — so a resumed run diffs against exactly the inputs the
    /// uninterrupted run would have diffed against. `default` keeps
    /// pre-delta checkpoints readable (absent field → no persistent model).
    #[serde(default)]
    slot_inputs: Option<SlotInputs>,
    /// Root-dive gate counters (DESIGN.md §15). `default` keeps earlier
    /// checkpoints readable, with the gate open.
    #[serde(default)]
    dive_misses: usize,
    #[serde(default)]
    solves_since_dive: usize,
}

/// Warm/cold LP counter values at decide entry, for per-slot deltas in the
/// provenance record.
fn lp_counter_snapshot() -> (u64, u64) {
    (
        telemetry::counter_value("solver.lp_warm").unwrap_or(0),
        telemetry::counter_value("solver.lp_cold").unwrap_or(0),
    )
}

/// Emit the per-slot decision provenance record: exactly one Info-level
/// `birp.provenance` event per decide, tagged with the path that produced
/// the schedule (`skip` | `full_solve` | `fallback`) plus the evidence
/// behind it — objective/gap/node counts, warm/cold LP deltas since decide
/// entry, the quarantine mask in force, the incumbent trajectory and what
/// the root dive did (`not_run` | `missed` | `hit`, or `gated` when the
/// dive gate switched it off). The path tag is mirrored into a
/// `reuse.<path>` counter so aggregate reports cross-check against the
/// per-slot records.
fn emit_provenance(
    t: usize,
    path: &'static str,
    stats: Option<&SolveStats>,
    mask: Option<&[bool]>,
    lp0: (u64, u64),
    dive_gated: bool,
) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::counter(&format!("reuse.{path}"), 1);
    let lp_warm = telemetry::counter_value("solver.lp_warm")
        .unwrap_or(0)
        .saturating_sub(lp0.0);
    let lp_cold = telemetry::counter_value("solver.lp_cold")
        .unwrap_or(0)
        .saturating_sub(lp0.1);
    let masked = mask.map_or(0, |m| m.iter().filter(|&&q| q).count()) as u64;
    let root_dive = if dive_gated {
        "gated"
    } else {
        stats
            .map_or(RootDiveOutcome::NotRun, |s| s.root_dive)
            .label()
    };
    let num = |v: Option<f64>| v.map_or(telemetry::Value::Null, telemetry::Value::Float);
    let incumbents = telemetry::Value::Array(
        stats
            .map(|s| s.incumbents.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&(n, obj, gap)| {
                telemetry::Value::Array(vec![
                    telemetry::Value::UInt(n),
                    telemetry::Value::Float(obj),
                    telemetry::Value::Float(gap),
                ])
            })
            .collect(),
    );
    telemetry::event(
        telemetry::Level::Info,
        "birp.provenance",
        &[
            ("slot", (t as u64).into()),
            ("path", path.into()),
            ("objective", num(stats.map(|s| s.objective))),
            ("gap", num(stats.map(|s| s.gap))),
            (
                "nodes",
                telemetry::Value::UInt(stats.map_or(0, |s| s.nodes as u64)),
            ),
            ("optimal", stats.is_some_and(|s| s.optimal).into()),
            ("degraded", stats.is_some_and(|s| s.degraded).into()),
            ("lp_warm", telemetry::Value::UInt(lp_warm)),
            ("lp_cold", telemetry::Value::UInt(lp_cold)),
            ("masked_edges", telemetry::Value::UInt(masked)),
            ("incumbents", incumbents),
            ("root_dive", root_dive.into()),
        ],
    );
}

/// Emit the per-slot delta provenance record (DESIGN.md §13): exactly one
/// `birp.delta` event per decide saying how this slot's problem came to be —
/// `path: "delta"` with per-kind edit counts when the persistent model
/// absorbed the slot, `path: "rebuild"` with the reason when it was lowered
/// from scratch. Mirrored into the `solver.delta_applied` /
/// `solver.full_rebuild` counters so aggregate reports cross-check against
/// the per-slot records.
fn emit_delta(t: usize, outcome: &DeltaOutcome) {
    match outcome {
        DeltaOutcome::Applied(s) => {
            telemetry::counter("solver.delta_applied", 1);
            if telemetry::enabled() {
                telemetry::event(
                    telemetry::Level::Info,
                    "birp.delta",
                    &[
                        ("slot", (t as u64).into()),
                        ("path", "delta".into()),
                        ("demand", (s.demand as u64).into()),
                        ("mask", (s.mask as u64).into()),
                        ("tir", (s.tir as u64).into()),
                        ("prev_deploy", (s.prev_deploy as u64).into()),
                        ("budget", (s.budget as u64).into()),
                        ("total", (s.total() as u64).into()),
                    ],
                );
            }
        }
        DeltaOutcome::Rebuilt(reason) => {
            telemetry::counter("solver.full_rebuild", 1);
            if telemetry::enabled() {
                let reason = match reason {
                    RebuildReason::FirstBuild => "first_build",
                    RebuildReason::Disabled => "disabled",
                    RebuildReason::StructureChanged => "structure_changed",
                    RebuildReason::CatalogChanged => "catalog_changed",
                };
                telemetry::event(
                    telemetry::Level::Info,
                    "birp.delta",
                    &[
                        ("slot", (t as u64).into()),
                        ("path", "rebuild".into()),
                        ("reason", reason.into()),
                    ],
                );
            }
        }
    }
}

/// The batch-aware, MAB-tuned scheduler (the paper's contribution).
pub struct Birp {
    catalog: Catalog,
    tuner: Tuner,
    solver_cfg: SolverConfig,
    problem_cfg: ProblemConfig,
    /// When false the tuner is frozen (BIRP-OFF behaviour).
    tune: bool,
    /// When false, plan with the running-mean estimates instead of the
    /// lower-confidence bounds — the exploration-ablation variant
    /// ("BIRP-MEAN"). The paper's Eq. 17/22 argue the LCB avoids local
    /// optima; this switch lets the benches quantify that.
    use_lcb: bool,
    /// Quarantine mask from the runner's health monitor (see
    /// [`Scheduler::set_edge_mask`]).
    mask: Option<Vec<bool>>,
    /// Cross-slot temporal reuse configuration (DESIGN.md §11).
    reuse: TemporalReuse,
    /// Consecutive slots served by the heuristic-regime skip since the last
    /// true solve (bounded by [`TemporalReuse::max_skip_streak`]).
    skip_streak: usize,
    /// True while the budgeted solver is returning degraded
    /// (budget-truncated) incumbents — the only regime in which the
    /// heuristic-regime skip is allowed to fire.
    heuristic_regime: bool,
    /// Root-dive gate (DESIGN.md §15): consecutive full solves that ended
    /// degraded after a root dive that missed.
    dive_misses: usize,
    /// Root-dive gate: full solves since the last one that ran the root dive.
    solves_since_dive: usize,
    /// The persistent slot model (DESIGN.md §13): lowered once, then
    /// refreshed in place with typed deltas each slot while
    /// [`TemporalReuse::deltas`] is on. `None` until the first decide, and
    /// whenever the delta path is off.
    slot_model: Option<SlotProblem>,
    /// Input fingerprint restored from a checkpoint, consumed by the first
    /// decide after resume to re-lower the persistent model skeleton.
    restored_inputs: Option<SlotInputs>,
    /// Solve statistics of the most recent slot (for experiment logs).
    pub last_stats: Option<SolveStats>,
    /// Cumulative absolute TIR estimation error (LCB estimate vs ground
    /// truth, evaluated at each executed batch size) — the tuner's regret
    /// trajectory. Only meaningful while tuning.
    pub cum_regret: f64,
}

impl Birp {
    /// Standard BIRP with the paper's initial estimates (Eq. 23).
    pub fn new(catalog: Catalog, mab: MabConfig) -> Self {
        let tuner = Tuner::new(catalog.num_edges(), catalog.num_models(), mab);
        Birp {
            catalog,
            tuner,
            solver_cfg: SolverConfig::scheduling(),
            problem_cfg: ProblemConfig {
                mode: ExecutionMode::Batched,
                ..Default::default()
            },
            tune: true,
            use_lcb: true,
            mask: None,
            reuse: TemporalReuse::default(),
            skip_streak: 0,
            heuristic_regime: false,
            dive_misses: 0,
            solves_since_dive: 0,
            slot_model: None,
            restored_inputs: None,
            last_stats: None,
            cum_regret: 0.0,
        }
    }

    /// The exploration-ablation variant: identical machinery but planning
    /// with the running-mean TIR estimates instead of the LCBs.
    pub fn without_lcb(catalog: Catalog, mab: MabConfig) -> Self {
        let mut s = Self::new(catalog, mab);
        s.use_lcb = false;
        s
    }

    /// Override the branch-and-bound configuration.
    pub fn with_solver(mut self, cfg: SolverConfig) -> Self {
        self.solver_cfg = cfg;
        self
    }

    /// Override the temporal-reuse configuration (e.g. [`TemporalReuse::disabled`]).
    pub fn with_reuse(mut self, reuse: TemporalReuse) -> Self {
        self.reuse = reuse;
        self.skip_streak = 0;
        self.heuristic_regime = false;
        self.slot_model = None;
        self.restored_inputs = None;
        self
    }

    /// Shim left by the deleted sharded decide (DESIGN.md §14). A
    /// partition of the fleet into at least two clusters of
    /// `cfg.cluster_size` edges ran the Lagrangian coordinator, whose
    /// decision was always its fallback: one guided monolithic solve per
    /// slot, which is the reuse-off decide. So such a partition returns
    /// `self.with_reuse(TemporalReuse::disabled())`; cluster size 0, or at
    /// least the fleet size, returns the scheduler unchanged. The
    /// end-to-end benchmark still builds its fleet through this call; the
    /// next change to the benchmark replaces the call and deletes the shim.
    pub fn with_shards(self, cfg: ShardConfig) -> Self {
        let edges = self.catalog.num_edges();
        if cfg.cluster_size > 0 && edges.div_ceil(cfg.cluster_size) >= 2 {
            self.with_reuse(TemporalReuse::disabled())
        } else {
            self
        }
    }

    /// Access the tuner (diagnostics and tests).
    pub fn tuner(&self) -> &Tuner {
        &self.tuner
    }

    fn estimates(&self) -> TirMatrix {
        TirMatrix::from_fn(
            self.catalog.num_edges(),
            self.catalog.num_models(),
            |e, m| {
                if self.use_lcb {
                    self.tuner.estimate(e, m)
                } else {
                    self.tuner.arm(e, m).mean_estimate()
                }
            },
        )
    }

    /// Produce this slot's lowered problem. While the delta path is on
    /// ([`TemporalReuse::deltas`]) the persistent model is refreshed in
    /// place — consecutive slots are diffed into typed deltas and a full
    /// rebuild only happens on a structure/catalog fingerprint mismatch.
    /// Otherwise (or on the very first slot) the problem is lowered from
    /// scratch, exactly as the pre-delta decision path did. Also the
    /// restore half of the persistent-model checkpoint: a fingerprint
    /// imported by [`Scheduler::import_state`] is re-lowered here, and the
    /// refresh that follows recomputes the derived state just as the
    /// uninterrupted run's refresh would have.
    #[allow(clippy::too_many_arguments)]
    fn acquire_problem(
        &mut self,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        reuse: Option<&Schedule>,
        guide_lp: bool,
    ) -> (SlotProblem, DeltaOutcome) {
        let deltas_on = self.reuse.enabled && self.reuse.deltas;
        if deltas_on {
            if self.slot_model.is_none() {
                if let Some(inputs) = self.restored_inputs.take() {
                    // Dimension guard: a fingerprint from a checkpoint taken
                    // under a different catalog cannot be re-lowered (the
                    // refresh would reject it anyway via the statics digest).
                    if inputs.num_apps == self.catalog.num_apps()
                        && inputs.num_edges == self.catalog.num_edges()
                        && inputs.num_models == self.catalog.num_models()
                    {
                        self.slot_model = Some(SlotProblem::from_inputs(&self.catalog, inputs));
                    }
                }
            }
            if let Some(mut model) = self.slot_model.take() {
                let outcome = model.refresh_with_reuse(
                    &self.catalog,
                    t,
                    demand,
                    tir,
                    prev,
                    cfg,
                    reuse,
                    guide_lp,
                );
                return (model, outcome);
            }
        } else {
            self.slot_model = None;
            self.restored_inputs = None;
        }
        let problem = if guide_lp {
            SlotProblem::build_with_reuse(&self.catalog, t, demand, tir, prev, cfg, reuse)
        } else {
            SlotProblem::build_reuse_lean(&self.catalog, t, demand, tir, prev, cfg, reuse)
        };
        let reason = if deltas_on {
            RebuildReason::FirstBuild
        } else {
            RebuildReason::Disabled
        };
        (problem, DeltaOutcome::Rebuilt(reason))
    }

    /// Whether the root-dive gate switches the dive off for the next full
    /// solve: closed after [`DIVE_MISS_LIMIT`] consecutive degraded misses,
    /// except on every [`DIVE_PROBE_EVERY`]th full solve since the last
    /// dive, which probes.
    fn dive_gate_closed(&self) -> bool {
        self.dive_misses >= DIVE_MISS_LIMIT && self.solves_since_dive + 1 < DIVE_PROBE_EVERY
    }

    /// Fold one full solve's root-dive outcome into the gate: a dive resets
    /// the probe count; a hit or an undegraded solve reopens the gate; a
    /// degraded miss counts toward closing it.
    fn record_dive(&mut self, stats: &SolveStats) {
        if stats.root_dive == RootDiveOutcome::NotRun {
            self.solves_since_dive += 1;
        } else {
            self.solves_since_dive = 0;
        }
        if stats.root_dive == RootDiveOutcome::Hit || !stats.degraded {
            self.dive_misses = 0;
        } else if stats.root_dive == RootDiveOutcome::Missed {
            self.dive_misses += 1;
        }
    }

    fn decide_inner(
        &mut self,
        t: usize,
        demand: &DemandMatrix,
        prev: Option<&Schedule>,
    ) -> Schedule {
        let tir = self.estimates();
        let lp0 = lp_counter_snapshot();
        let cfg = ProblemConfig {
            masked_edges: self.mask.clone(),
            ..self.problem_cfg.clone()
        };
        // Heuristic-regime skip: while the budgeted solver is returning
        // degraded (budget-truncated) incumbents, its output carries no
        // optimality proof — its guaranteed floor is the warm-start point
        // it was handed. A lean refresh (no guide-LP solve — the skip path
        // never certifies and never branches, so the root relaxation is
        // pure overhead here) produces exactly that floor: the greedy
        // packing, improved by the repaired previous-slot schedule whenever
        // that carries a lower objective. Serve it directly and save the
        // whole branch-and-bound run. The streak bound forces a true
        // re-solve every few slots so quality re-anchors on fresh search,
        // and the gate is structurally inert wherever the solver proves
        // optimality (no degraded solves → no skips), which is what keeps
        // the certifying-config differential suite exact.
        let skip = self.reuse.enabled
            && self.heuristic_regime
            && self.skip_streak < self.reuse.max_skip_streak;
        let candidate = if self.reuse.enabled { prev } else { None };
        let (problem, delta) = self.acquire_problem(t, demand, &tir, prev, &cfg, candidate, !skip);
        emit_delta(t, &delta);
        match problem.reuse_outcome() {
            Some(ReuseOutcome::Installed) => telemetry::counter("scheduler.reuse_install", 1),
            Some(ReuseOutcome::RepairFail) => telemetry::counter("scheduler.reuse_repair_fail", 1),
            _ => {}
        }
        if skip {
            let (schedule, stats) = problem.warm_schedule();
            self.skip_streak += 1;
            telemetry::counter("scheduler.reuse_budget_skip", 1);
            if telemetry::enabled() {
                telemetry::event(
                    telemetry::Level::Debug,
                    "birp.slot_reused",
                    &[
                        ("t", (t as u64).into()),
                        ("objective", stats.objective.into()),
                        ("gap", stats.gap.into()),
                    ],
                );
            }
            emit_provenance(t, "skip", Some(&stats), self.mask.as_deref(), lp0, false);
            self.last_stats = Some(stats);
            self.slot_model = Some(problem);
            return schedule;
        }

        // When the repair pass installed the previous slot's schedule as the
        // incumbent, branch and bound no longer needs its diving heuristics
        // (their only role is incumbent supply, and they dominate the LP
        // count under the scheduling node budget) — trust the incumbent and
        // spend the whole budget on the tree. A warm start already within
        // `rel_gap` of the root bound is accepted on the tree's first gap
        // check, so such a slot costs one root LP and no search.
        let mut solver_cfg = self.solver_cfg.clone();
        if matches!(problem.reuse_outcome(), Some(ReuseOutcome::Installed)) {
            solver_cfg.trust_warm = true;
        }
        // Root-dive gate (DESIGN.md §15): while the dive keeps missing on
        // budget-truncated solves, it only costs time, so switch it off
        // and probe it every few full solves instead.
        let dive_gated = solver_cfg.root_dive && !solver_cfg.trust_warm && self.dive_gate_closed();
        if dive_gated {
            solver_cfg.root_dive = false;
            telemetry::counter("birp.dive_gated", 1);
        }
        match problem.solve(&solver_cfg) {
            Ok((schedule, stats)) => {
                if telemetry::enabled() {
                    telemetry::event(
                        telemetry::Level::Debug,
                        "birp.slot_solved",
                        &[
                            ("t", (t as u64).into()),
                            ("objective", stats.objective.into()),
                            ("gap", stats.gap.into()),
                            ("nodes", (stats.nodes as u64).into()),
                            ("optimal", stats.optimal.into()),
                        ],
                    );
                }
                emit_provenance(
                    t,
                    "full_solve",
                    Some(&stats),
                    self.mask.as_deref(),
                    lp0,
                    dive_gated,
                );
                self.record_dive(&stats);
                self.skip_streak = 0;
                self.heuristic_regime = stats.degraded;
                self.last_stats = Some(stats);
                self.slot_model = Some(problem);
                schedule
            }
            Err(err) => {
                // The problem is always feasible (overflow absorbs demand);
                // reaching this means the solve budget produced no incumbent.
                // Degrade to the loss-greedy strictly-local packing — still a
                // valid, demand-balanced schedule — rather than stall a slot.
                self.skip_streak = 0;
                self.heuristic_regime = false;
                telemetry::counter("birp.fallback_local", 1);
                if telemetry::enabled() {
                    telemetry::event(
                        telemetry::Level::Warn,
                        "birp.fallback_local",
                        &[
                            ("t", (t as u64).into()),
                            ("error", format!("{err:?}").into()),
                        ],
                    );
                }
                emit_provenance(t, "fallback", None, self.mask.as_deref(), lp0, dive_gated);
                self.last_stats = None;
                self.slot_model = Some(problem);
                greedy_local(
                    &self.catalog,
                    &TirParams::paper_initial(),
                    t,
                    demand,
                    prev,
                    self.mask.as_deref(),
                )
            }
        }
    }

    fn observe_inner(&mut self, outcome: &SlotOutcome) {
        if !self.tune {
            return;
        }
        for b in &outcome.batches {
            if b.batch >= 2 {
                let (e, m) = (b.edge.index(), b.model.index());
                // Regret sample: how far the planning estimate was from the
                // ground-truth TIR at the batch size actually executed.
                let est = if self.use_lcb {
                    self.tuner.estimate(e, m)
                } else {
                    self.tuner.arm(e, m).mean_estimate()
                };
                let truth = self.catalog.edges[e].tir_truth[m];
                self.cum_regret += (est.tir(b.batch) - truth.tir(b.batch)).abs();
                self.tuner
                    .observe(outcome.t as u64, e, m, b.batch, b.observed_tir);
            }
        }
        if telemetry::enabled() {
            // Mean absolute parameter error across all arms vs ground truth
            // — the convergence trajectory of the (eta, beta, C) estimates.
            let (mut eta_err, mut beta_err, mut c_err) = (0.0f64, 0.0f64, 0.0f64);
            let (ne, nm) = (self.catalog.num_edges(), self.catalog.num_models());
            for e in 0..ne {
                for m in 0..nm {
                    let est = self.tuner.arm(e, m).mean_estimate();
                    let truth = self.catalog.edges[e].tir_truth[m];
                    eta_err += (est.eta - truth.eta).abs();
                    beta_err += (est.beta as f64 - truth.beta as f64).abs();
                    c_err += (est.c - truth.c).abs();
                }
            }
            let arms = (ne * nm) as f64;
            telemetry::event(
                telemetry::Level::Debug,
                "mab.slot",
                &[
                    ("t", (outcome.t as u64).into()),
                    ("cum_regret", self.cum_regret.into()),
                    ("mean_abs_eta_err", (eta_err / arms).into()),
                    ("mean_abs_beta_err", (beta_err / arms).into()),
                    ("mean_abs_c_err", (c_err / arms).into()),
                ],
            );
        }
    }
}

impl Scheduler for Birp {
    fn name(&self) -> &'static str {
        if self.use_lcb {
            "BIRP"
        } else {
            "BIRP-MEAN"
        }
    }

    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        self.decide_inner(t, demand, prev)
    }

    fn observe(&mut self, outcome: &SlotOutcome) {
        self.observe_inner(outcome);
    }

    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        let mask = mask.map(|m| m.to_vec());
        if mask != self.mask {
            // A quarantine change is a structural break: the previous
            // slot's schedule was planned for a different edge set, so
            // cross-slot continuity — the whole premise of the
            // heuristic-regime skip — no longer holds. Force a true solve.
            self.heuristic_regime = false;
            self.skip_streak = 0;
        }
        self.mask = mask;
    }

    fn export_state(&self) -> Value {
        Serialize::to_value(&BirpState {
            tuner: self.tuner.clone(),
            cum_regret: self.cum_regret,
            mask: self.mask.clone(),
            skip_streak: self.skip_streak,
            heuristic_regime: self.heuristic_regime,
            slot_inputs: self.slot_model.as_ref().map(|p| p.inputs().clone()),
            dive_misses: self.dive_misses,
            solves_since_dive: self.solves_since_dive,
        })
    }

    fn import_state(&mut self, state: &Value) -> Result<(), DeError> {
        if state.is_null() {
            return Ok(());
        }
        let s = BirpState::from_value(state)?;
        if s.tuner.num_arms() != self.tuner.num_arms() {
            return Err(DeError::custom(format!(
                "BIRP state arm count {} does not match catalog ({} arms)",
                s.tuner.num_arms(),
                self.tuner.num_arms()
            )));
        }
        self.tuner = s.tuner;
        self.cum_regret = s.cum_regret;
        self.mask = s.mask;
        self.skip_streak = s.skip_streak;
        self.heuristic_regime = s.heuristic_regime;
        self.dive_misses = s.dive_misses;
        self.solves_since_dive = s.solves_since_dive;
        self.slot_model = None;
        self.restored_inputs = s.slot_inputs;
        self.last_stats = None;
        Ok(())
    }
}

/// BIRP with offline-profiled (oracle) TIR curves and no online tuning.
pub struct BirpOff {
    inner: Birp,
}

impl BirpOff {
    pub fn new(catalog: Catalog) -> Self {
        let tuner = Tuner::with_ground_truth(
            catalog.num_edges(),
            catalog.num_models(),
            MabConfig::paper_preset(),
            |e, m| catalog.edges[e].tir_truth[m],
        );
        let mut inner = Birp::new(catalog, MabConfig::paper_preset());
        inner.tuner = tuner;
        inner.tune = false;
        BirpOff { inner }
    }

    pub fn with_solver(mut self, cfg: SolverConfig) -> Self {
        self.inner.solver_cfg = cfg;
        self
    }

    /// Override the temporal-reuse configuration (e.g. [`TemporalReuse::disabled`]).
    pub fn with_reuse(mut self, reuse: TemporalReuse) -> Self {
        self.inner = self.inner.with_reuse(reuse);
        self
    }

    pub fn last_stats(&self) -> Option<&SolveStats> {
        self.inner.last_stats.as_ref()
    }
}

impl Scheduler for BirpOff {
    fn name(&self) -> &'static str {
        "BIRP-OFF"
    }

    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        self.inner.decide_inner(t, demand, prev)
    }

    fn observe(&mut self, _outcome: &SlotOutcome) {
        // Oracle mode: nothing to learn.
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

#[cfg(test)]
mod tests {
    use super::*;
    use birp_models::{AppId, EdgeId};
    use birp_sim::{EdgeSim, SimConfig};

    fn demand(catalog: &Catalog, cells: &[(usize, usize, u32)]) -> DemandMatrix {
        let mut d = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        for &(i, k, v) in cells {
            d.set(AppId(i), EdgeId(k), v);
        }
        d
    }

    #[test]
    fn birp_serves_demand_and_batches() {
        let catalog = Catalog::small_scale(42);
        let mut birp = Birp::new(catalog.clone(), MabConfig::paper_preset());
        let d = demand(&catalog, &[(0, 0, 10), (0, 1, 6)]);
        let s = birp.decide(0, &d, None);
        assert!(!s.serial);
        assert_eq!(s.served() + s.total_unserved(), 16);
        assert!(s.served() > 0);
        assert!(birp.last_stats.is_some());
    }

    #[test]
    fn observe_updates_tuner_state() {
        let catalog = Catalog::small_scale(42);
        let mut birp = Birp::new(catalog.clone(), MabConfig::paper_preset());
        let d = demand(&catalog, &[(0, 0, 12)]);
        let s = birp.decide(0, &d, None);
        let sim = EdgeSim::new(catalog, SimConfig::default());
        let out = sim.execute_slot(&s, None);
        let before: Vec<u64> = (0..birp.tuner().num_arms()).map(|_| 0).collect();
        birp.observe(&out);
        // At least one arm observed a batch >= 2 under this demand.
        let touched = (0..6)
            .flat_map(|e| (0..3).map(move |m| (e, m)))
            .any(|(e, m)| {
                let a = birp.tuner().arm(e, m);
                a.n1 + a.n2 > 0
            });
        assert!(touched, "no arm updated (before: {before:?})");
    }

    #[test]
    fn birp_off_never_learns() {
        let catalog = Catalog::small_scale(42);
        let mut off = BirpOff::new(catalog.clone());
        let d = demand(&catalog, &[(0, 0, 10)]);
        let s = off.decide(0, &d, None);
        let sim = EdgeSim::new(catalog.clone(), SimConfig::default());
        let out = sim.execute_slot(&s, None);
        off.observe(&out);
        for e in 0..catalog.num_edges() {
            for m in 0..catalog.num_models() {
                let a = off.inner.tuner().arm(e, m);
                assert_eq!(a.n1 + a.n2, 0);
                // Oracle arms carry the ground truth.
                assert_eq!(a.estimate(), catalog.edges[e].tir_truth[m]);
            }
        }
    }

    #[test]
    fn scheduler_names() {
        let catalog = Catalog::small_scale(1);
        assert_eq!(
            Birp::new(catalog.clone(), MabConfig::paper_preset()).name(),
            "BIRP"
        );
        assert_eq!(
            Birp::without_lcb(catalog.clone(), MabConfig::paper_preset()).name(),
            "BIRP-MEAN"
        );
        assert_eq!(BirpOff::new(catalog).name(), "BIRP-OFF");
    }

    fn full_solve(root_dive: RootDiveOutcome, degraded: bool) -> SolveStats {
        SolveStats {
            objective: 1.0,
            gap: if degraded { 0.1 } else { 0.0 },
            nodes: 16,
            optimal: !degraded,
            degraded,
            incumbents: Vec::new(),
            root_dive,
        }
    }

    fn gate_test_birp() -> Birp {
        Birp::new(Catalog::small_scale(42), MabConfig::paper_preset())
    }

    /// Run the gate through one full solve the way `decide` does: a gated
    /// solve runs no dive, so its outcome is `NotRun`.
    fn step(b: &mut Birp, dive: RootDiveOutcome, degraded: bool) -> bool {
        let gated = b.dive_gate_closed();
        let dive = if gated { RootDiveOutcome::NotRun } else { dive };
        b.record_dive(&full_solve(dive, degraded));
        gated
    }

    #[test]
    fn dive_gate_closes_after_exactly_eight_degraded_misses() {
        let mut b = gate_test_birp();
        for i in 0..DIVE_MISS_LIMIT {
            assert!(!step(&mut b, RootDiveOutcome::Missed, true), "miss {i}");
        }
        assert!(
            b.dive_gate_closed(),
            "closed after {DIVE_MISS_LIMIT} misses"
        );
        // Solves whose dive did not run (a trusted warm start) neither
        // count toward the limit nor reset it.
        let mut b = gate_test_birp();
        for _ in 0..DIVE_MISS_LIMIT - 1 {
            step(&mut b, RootDiveOutcome::Missed, true);
            step(&mut b, RootDiveOutcome::NotRun, true);
        }
        assert!(!b.dive_gate_closed());
        step(&mut b, RootDiveOutcome::Missed, true);
        assert!(b.dive_gate_closed());
    }

    #[test]
    fn dive_gate_probes_on_the_sixteenth_full_solve() {
        let mut b = gate_test_birp();
        for _ in 0..DIVE_MISS_LIMIT {
            step(&mut b, RootDiveOutcome::Missed, true);
        }
        for round in 0..3 {
            for i in 1..DIVE_PROBE_EVERY {
                assert!(
                    step(&mut b, RootDiveOutcome::Missed, true),
                    "round {round}: full solve {i} after the last dive is gated"
                );
            }
            assert!(
                !step(&mut b, RootDiveOutcome::Missed, true),
                "round {round}: full solve {DIVE_PROBE_EVERY} probes"
            );
        }
        // A probe that cannot dive (trusted warm start) leaves the probe due.
        for _ in 1..DIVE_PROBE_EVERY {
            step(&mut b, RootDiveOutcome::Missed, true);
        }
        assert!(!step(&mut b, RootDiveOutcome::NotRun, true));
        assert!(!step(&mut b, RootDiveOutcome::Missed, true));
        assert!(b.dive_gate_closed());
    }

    #[test]
    fn dive_gate_reopens_on_a_hit_or_an_undegraded_solve() {
        let close = |b: &mut Birp| {
            for _ in 0..DIVE_MISS_LIMIT {
                step(b, RootDiveOutcome::Missed, true);
            }
            assert!(b.dive_gate_closed());
        };
        // A probe that hits.
        let mut b = gate_test_birp();
        close(&mut b);
        for _ in 1..DIVE_PROBE_EVERY {
            step(&mut b, RootDiveOutcome::Missed, true);
        }
        assert!(!step(&mut b, RootDiveOutcome::Hit, true));
        assert!(!b.dive_gate_closed());
        // A gated solve that finishes undegraded.
        let mut b = gate_test_birp();
        close(&mut b);
        assert!(step(&mut b, RootDiveOutcome::Missed, false));
        assert!(!b.dive_gate_closed());
        // A probe that misses but finishes undegraded.
        let mut b = gate_test_birp();
        close(&mut b);
        for _ in 1..DIVE_PROBE_EVERY {
            step(&mut b, RootDiveOutcome::Missed, true);
        }
        assert!(!step(&mut b, RootDiveOutcome::Missed, false));
        assert!(!b.dive_gate_closed());
    }

    /// Whatever the first eight full solves report, none of them is gated:
    /// goldens and differential suites of eight slots or fewer cannot see
    /// the gate.
    #[test]
    fn dive_gate_never_closes_within_eight_full_solves() {
        const OUTCOMES: [(RootDiveOutcome, bool); 6] = [
            (RootDiveOutcome::NotRun, false),
            (RootDiveOutcome::NotRun, true),
            (RootDiveOutcome::Missed, false),
            (RootDiveOutcome::Missed, true),
            (RootDiveOutcome::Hit, false),
            (RootDiveOutcome::Hit, true),
        ];
        let n = OUTCOMES.len();
        let mut b = gate_test_birp();
        for mut code in 0..n.pow(DIVE_MISS_LIMIT as u32) {
            b.dive_misses = 0;
            b.solves_since_dive = 0;
            for i in 0..DIVE_MISS_LIMIT {
                let (dive, degraded) = OUTCOMES[code % n];
                code /= n;
                assert!(!step(&mut b, dive, degraded), "full solve {i} was gated");
            }
        }
    }

    /// A checkpoint taken before the gate existed imports with the gate
    /// open; one taken with the gate closed restores it closed. A checkpoint
    /// that still carries the removed schedule cache imports with the cache
    /// ignored and the gate intact.
    #[test]
    fn dive_gate_state_round_trips_and_defaults_open() {
        let mut b = gate_test_birp();
        for _ in 0..DIVE_MISS_LIMIT + 3 {
            step(&mut b, RootDiveOutcome::Missed, true);
        }
        assert!(b.dive_gate_closed());
        let state = b.export_state();

        let mut restored = gate_test_birp();
        restored.import_state(&state).unwrap();
        assert_eq!(restored.dive_misses, b.dive_misses);
        assert_eq!(restored.solves_since_dive, b.solves_since_dive);
        assert!(restored.dive_gate_closed());

        let Value::Object(fields) = state else {
            panic!("BirpState exports an object");
        };
        // The cache as earlier checkpoints wrote it: one entry of a slot
        // fingerprint (abridged) and the schedule solved for it.
        let catalog = Catalog::small_scale(42);
        let schedule = Birp::new(catalog.clone(), MabConfig::paper_preset()).decide(
            0,
            &demand(&catalog, &[(0, 0, 4)]),
            None,
        );
        let ints = |v: &[u64]| Value::Array(v.iter().map(|&x| Value::UInt(x)).collect());
        let entry = Value::Object(vec![
            (
                "key".to_string(),
                Value::Object(vec![
                    ("demand".to_string(), ints(&[4, 0, 0, 0, 0, 0])),
                    ("mask".to_string(), Value::Array(Vec::new())),
                    ("tir".to_string(), ints(&[0.1f64.to_bits(), 16, 0])),
                    ("prev".to_string(), Value::Array(Vec::new())),
                ]),
            ),
            ("schedule".to_string(), Serialize::to_value(&schedule)),
        ]);
        let mut with_cache = fields.clone();
        with_cache.push(("cache".to_string(), Value::Array(vec![entry])));
        let mut restored = gate_test_birp();
        restored
            .import_state(&Value::Object(with_cache))
            .expect("a checkpoint with a schedule cache imports");
        assert_eq!(restored.dive_misses, b.dive_misses);
        assert_eq!(restored.solves_since_dive, b.solves_since_dive);
        assert!(restored.dive_gate_closed());

        let legacy = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "dive_misses" && k != "solves_since_dive")
                .collect(),
        );
        let mut restored = gate_test_birp();
        restored.dive_misses = DIVE_MISS_LIMIT;
        restored.import_state(&legacy).unwrap();
        assert_eq!((restored.dive_misses, restored.solves_since_dive), (0, 0));
        assert!(!restored.dive_gate_closed());

        // A state as the sharded decide wrote it: coordinator prices beside
        // a persistent slot model whose fingerprint carries the (empty, on
        // the monolithic model) coupling inputs. It imports with both
        // ignored, and the fingerprint restores unchanged.
        let mut live = gate_test_birp();
        let d = demand(&catalog, &[(0, 0, 4), (0, 3, 2)]);
        live.decide(0, &d, None);
        let Value::Object(fields) = live.export_state() else {
            panic!("BirpState exports an object");
        };
        let sharded: Vec<(String, Value)> = fields
            .into_iter()
            .map(|(k, v)| match (k.as_str(), v) {
                ("slot_inputs", Value::Object(mut inputs)) => {
                    inputs.push(("coupling_price_bits".to_string(), Value::Array(Vec::new())));
                    inputs.push(("coupling_outside".to_string(), Value::Array(Vec::new())));
                    (k, Value::Object(inputs))
                }
                (_, v) => (k, v),
            })
            .chain([("shard_prices".to_string(), ints(&[0.25f64.to_bits()]))])
            .collect();
        let mut restored = gate_test_birp();
        restored
            .import_state(&Value::Object(sharded))
            .expect("a checkpoint of the sharded decide imports");
        assert_eq!(
            restored.restored_inputs.as_ref(),
            live.slot_model.as_ref().map(|p| p.inputs())
        );
        assert_eq!(
            restored.decide(1, &d, None),
            live.decide(1, &d, None),
            "the restored slot model decides as the live one"
        );
    }

    /// The `with_shards` shim: a partition into two or more clusters is the
    /// reuse-off decide, bitwise; cluster size 0, or a size of at least the
    /// fleet size, leaves the scheduler as it was.
    #[test]
    fn with_shards_turns_reuse_off_for_two_or_more_clusters() {
        let catalog = Catalog::small_scale(42);
        let edges = catalog.num_edges();
        let custom = TemporalReuse {
            max_skip_streak: 6,
            ..TemporalReuse::default()
        };
        let birp =
            || Birp::new(catalog.clone(), MabConfig::paper_preset()).with_reuse(custom.clone());
        let reuse_of = |r: &TemporalReuse| (r.enabled, r.max_skip_streak, r.deltas);
        for size in [0, edges, edges + 1] {
            let b = birp().with_shards(ShardConfig::new(size));
            assert_eq!(reuse_of(&b.reuse), reuse_of(&custom), "cluster size {size}");
        }
        for size in [1, 2, edges - 1] {
            let b = birp().with_shards(ShardConfig::new(size));
            let off = TemporalReuse::disabled();
            assert_eq!(reuse_of(&b.reuse), reuse_of(&off), "cluster size {size}");
        }

        let mut shim = birp().with_shards(ShardConfig::new(2));
        let mut off = birp().with_reuse(TemporalReuse::disabled());
        let mut prev = None;
        for t in 0..3 {
            let k = t as u32;
            let d = demand(&catalog, &[(0, 0, 6 + 3 * k), (0, 2, 4), (0, 5, 2 * k)]);
            let s = shim.decide(t, &d, prev.as_ref());
            assert_eq!(s, off.decide(t, &d, prev.as_ref()), "slot {t}");
            prev = Some(s);
        }
    }

    #[test]
    fn mean_variant_plans_with_means() {
        let catalog = Catalog::small_scale(42);
        let mean = Birp::without_lcb(catalog.clone(), MabConfig::paper_preset());
        // Fresh arms: mean estimate equals the Eq. 23 initialisation.
        let est = mean.estimates();
        let m0 = est.get(EdgeId(0), birp_models::ModelId(0));
        assert_eq!(m0.beta, 16);
        assert!((m0.eta - 0.1).abs() < 1e-12);
    }
}
