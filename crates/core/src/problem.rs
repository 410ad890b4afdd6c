//! The per-slot optimisation problem `P1^t` / `P2^t` (paper Section 4).
//!
//! Decision variables (paper Section 3.1):
//!
//! * `x[k][m] in {0,1}` — deploy model `m` on edge `k` this slot,
//! * `b[k][m] in N` — its batch size,
//! * `y[i][k][k'] in N` — requests of app `i` moved from `k` to `k'`,
//! * `o[i][k] in N` — requests left unserved (carried to the next slot);
//!   the paper's formulation implicitly assumes capacity suffices, the
//!   overflow variable makes the problem always feasible and its penalty
//!   (`> max loss`) guarantees serving is preferred whenever possible.
//!
//! Constraints: flow conservation (Eq. 3), deployment/batch coupling
//! (Eq. 4), batch/arrival balance (Eq. 5), memory (Eq. 6), the
//! Taylor-linearised compute constraint (Eqs. 12, 24, 25) and the
//! network constraint with the `x^{t-1}`-dependent model-transfer term
//! (Eqs. 9, 13, 14).
//!
//! The bilinear objective `Σ loss * x * b` of Eq. 10 collapses to the
//! linear `Σ loss * b` on the feasible set because Eq. 4 forces `b = 0`
//! whenever `x = 0` — the same exact reduction a MIQP solver applies
//! internally (see `birp_solver::Model::linearized_product` for the general
//! machinery, which this builder does not need).

use birp_models::catalog::MAX_BATCH;
use birp_models::{Catalog, EdgeId, ModelId};
use birp_sim::{Deployment, Schedule};
use birp_solver::{
    BudgetHit, EngineSnapshot, LinExpr, LpSolution, LpStatus, Model, ModelStatus, RootDive, RowId,
    Solution, SolverConfig, SolverError, VarId, VarKind, WarmStart,
};
use birp_telemetry as telemetry;
use birp_tir::{linear_coeffs, TirParams};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

use crate::demand::DemandMatrix;

/// Per-(edge, model) TIR parameter estimates used by the planner.
#[derive(Debug, Clone)]
pub struct TirMatrix {
    num_models: usize,
    params: Vec<TirParams>,
}

impl TirMatrix {
    /// Build from a function of (edge index, model index).
    pub fn from_fn(
        num_edges: usize,
        num_models: usize,
        f: impl Fn(usize, usize) -> TirParams,
    ) -> Self {
        let mut params = Vec::with_capacity(num_edges * num_models);
        for e in 0..num_edges {
            for m in 0..num_models {
                params.push(f(e, m));
            }
        }
        TirMatrix { num_models, params }
    }

    /// The ground truth (for the BIRP-OFF oracle and tests).
    pub fn oracle(catalog: &Catalog) -> Self {
        Self::from_fn(catalog.num_edges(), catalog.num_models(), |e, m| {
            catalog.edges[e].tir_truth[m]
        })
    }

    /// The paper's conservative initialisation for every arm (Eq. 23).
    pub fn initial(catalog: &Catalog) -> Self {
        Self::from_fn(catalog.num_edges(), catalog.num_models(), |_, _| {
            TirParams::paper_initial()
        })
    }

    #[inline]
    pub fn get(&self, e: EdgeId, m: ModelId) -> &TirParams {
        &self.params[e.index() * self.num_models + m.index()]
    }
}

/// Whether the planned schedule executes batched (BIRP family) or serially
/// (the OAEI baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Batch-aware: compute follows the Taylor-linearised TIR model and
    /// batches are capped by the TIR threshold `beta`.
    Batched,
    /// Serial: no batching benefit (`TIR = 1`), per-request memory, batch
    /// variable bounded by `max_serial` only.
    Serial { max_serial: u32 },
}

/// Builder knobs.
#[derive(Debug, Clone)]
pub struct ProblemConfig {
    pub mode: ExecutionMode,
    /// Objective penalty per unserved request; must exceed the worst model
    /// loss (0.49) so that serving always dominates dropping.
    pub drop_penalty: f64,
    /// Quarantine mask (`masked_edges[k] == true` ⇒ edge `k` is excluded):
    /// a masked edge deploys no models, runs no batches, serves nothing
    /// locally and receives no redistributed requests. Its own arrivals may
    /// still ship out or overflow, so the problem stays feasible. `None`
    /// means no edge is masked.
    pub masked_edges: Option<Vec<bool>>,
}

impl Default for ProblemConfig {
    fn default() -> Self {
        ProblemConfig {
            mode: ExecutionMode::Batched,
            drop_penalty: 1.0,
            masked_edges: None,
        }
    }
}

/// What happened to the temporal-reuse candidate a
/// [`SlotProblem::build_with_reuse`] call was given (DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseOutcome {
    /// The repaired previous-slot schedule beat the LP-guided greedy point
    /// and was installed as the solver's starting incumbent.
    Installed,
    /// The repaired point was feasible but no better than the LP-guided
    /// greedy warm start, which was kept instead.
    NotBetter,
    /// The repair pass produced an infeasible point (defensive check — the
    /// projection is feasible by construction); the greedy warm start was
    /// kept.
    RepairFail,
}

/// What the root dive of a solve did (DESIGN.md §15): the serializable
/// mirror of [`birp_solver::RootDive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RootDiveOutcome {
    /// Not run: switched off, gated, a trusted warm start, an integral root,
    /// a budget spent on the root LP, or no branch and bound at all.
    #[default]
    NotRun,
    /// Ran and found no point better than its warm start.
    Missed,
    /// Ran and its point became the incumbent.
    Hit,
}

impl From<RootDive> for RootDiveOutcome {
    fn from(d: RootDive) -> Self {
        match d {
            RootDive::NotRun => RootDiveOutcome::NotRun,
            RootDive::Missed => RootDiveOutcome::Missed,
            RootDive::Hit => RootDiveOutcome::Hit,
        }
    }
}

impl RootDiveOutcome {
    /// The label the `birp.provenance` record carries.
    pub fn label(self) -> &'static str {
        match self {
            RootDiveOutcome::NotRun => "not_run",
            RootDiveOutcome::Missed => "missed",
            RootDiveOutcome::Hit => "hit",
        }
    }
}

/// Which budget truncated a solve: the serializable mirror of
/// [`birp_solver::BudgetHit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BudgetOutcome {
    /// Not truncated, or no branch and bound at all.
    #[default]
    None,
    /// The node limit ran out.
    Nodes,
    /// The pivot budget ran out.
    Pivots,
}

impl From<BudgetHit> for BudgetOutcome {
    fn from(b: BudgetHit) -> Self {
        match b {
            BudgetHit::None => BudgetOutcome::None,
            BudgetHit::Nodes => BudgetOutcome::Nodes,
            BudgetHit::Pivots => BudgetOutcome::Pivots,
        }
    }
}

impl BudgetOutcome {
    /// The label the `birp.provenance` record carries.
    pub fn label(self) -> &'static str {
        match self {
            BudgetOutcome::None => "none",
            BudgetOutcome::Nodes => "nodes",
            BudgetOutcome::Pivots => "pivots",
        }
    }
}

/// Solve statistics surfaced to experiment logs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveStats {
    pub objective: f64,
    pub gap: f64,
    pub nodes: usize,
    pub optimal: bool,
    /// The solve budget ran out: the schedule decodes the best incumbent,
    /// not a proven (near-)optimum.
    #[serde(default)]
    pub degraded: bool,
    /// The budget that truncated a degraded solve; `None` exactly when
    /// `degraded` is false.
    #[serde(default)]
    pub budget: BudgetOutcome,
    /// Incumbent trajectory `(nodes_solved, objective, gap)` in install
    /// order — the convergence signature surfaced by the per-slot decision
    /// provenance record. A schedule served without branch and bound (the
    /// heuristic-regime skip) carries a single synthetic point.
    #[serde(default)]
    pub incumbents: Vec<(u64, f64, f64)>,
    /// Outcome of the solve's root dive.
    #[serde(default)]
    pub root_dive: RootDiveOutcome,
    /// The solve's root LP was restored from the guide LP's basis instead
    /// of solved cold (DESIGN.md §3).
    #[serde(default)]
    pub root_restored: bool,
}

/// Everything that varies slot-to-slot and enters the lowered model: the
/// exact fingerprint of a [`SlotProblem::build`] call's inputs, stored in
/// lowering order (DESIGN.md §13).
///
/// Two equal `SlotInputs` (plus an equal `statics_digest`, which pins the
/// catalog coefficient statics) lower to bitwise-identical models — the
/// invariant the delta path rests on. `f64` inputs are stored as IEEE-754
/// bit patterns so equality is exact and the checkpoint round-trip (JSON
/// integers are lossless for `u64`) cannot perturb them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotInputs {
    /// Slot index (metadata only: no variable or row name contains it).
    pub t: usize,
    pub num_apps: usize,
    pub num_edges: usize,
    pub num_models: usize,
    /// Serial (OAEI) vs batched lowering.
    pub serial: bool,
    /// Batch bound in serial mode (unused when batched).
    pub max_serial: u32,
    /// Objective penalty per unserved request, as a bit pattern.
    pub drop_penalty_bits: u64,
    /// Owning app index of each model (pins the serve-row structure).
    pub model_app: Vec<usize>,
    /// Demand `r[i][k]`, row-major by app.
    pub supply: Vec<u32>,
    /// Quarantine mask per edge.
    pub mask: Vec<bool>,
    /// TIR `eta` estimates per (edge, model), row-major, as bit patterns.
    pub tir_eta_bits: Vec<u64>,
    /// TIR `beta` estimates per (edge, model), row-major.
    pub tir_beta: Vec<u32>,
    /// `x^{t-1}`: whether (edge, model) was deployed in the previous slot.
    pub prev_dep: Vec<bool>,
    /// Per-edge memory budgets, as bit patterns.
    pub mem_budget_bits: Vec<u64>,
    /// Per-edge network budgets, as bit patterns.
    pub net_budget_bits: Vec<u64>,
    /// Per-slot compute budget, as a bit pattern.
    pub slot_ms_bits: u64,
    /// FNV-1a digest of the catalog coefficient statics the lowering reads
    /// (losses, memory/transfer sizes, request sizes, gamma tables, app
    /// ownership). A mismatch means the catalog changed under the model.
    pub statics_digest: u64,
}

impl SlotInputs {
    #[inline]
    fn supply(&self, i: usize, k: usize) -> u32 {
        self.supply[i * self.num_edges + k]
    }

    /// Total demand of app `i` (same u64 summation as the builder).
    fn app_total(&self, i: usize) -> f64 {
        (0..self.num_edges)
            .map(|k| self.supply(i, k) as u64)
            .sum::<u64>() as f64
    }

    fn batch_cap(&self, e: usize, m: usize) -> u32 {
        if self.serial {
            self.max_serial.max(1)
        } else {
            self.tir_beta[e * self.num_models + m].clamp(1, MAX_BATCH)
        }
    }

    fn eta(&self, e: usize, m: usize) -> f64 {
        f64::from_bits(self.tir_eta_bits[e * self.num_models + m])
    }

    /// Fields no delta can absorb: a mismatch forces a full rebuild.
    fn same_structure(&self, other: &SlotInputs) -> bool {
        self.num_apps == other.num_apps
            && self.num_edges == other.num_edges
            && self.num_models == other.num_models
            && self.serial == other.serial
            && self.max_serial == other.max_serial
            && self.drop_penalty_bits == other.drop_penalty_bits
            && self.model_app == other.model_app
            && self.statics_digest == other.statics_digest
    }

    /// The typed edits turning a model lowered from `self` into one
    /// lowered from `new`. Requires [`same_structure`](Self::same_structure).
    fn diff(&self, new: &SlotInputs) -> Vec<SlotDelta> {
        let (na, ne, nm) = (self.num_apps, self.num_edges, self.num_models);
        let mut ds = Vec::new();
        for i in 0..na {
            if self.supply[i * ne..(i + 1) * ne] != new.supply[i * ne..(i + 1) * ne] {
                ds.push(SlotDelta::DemandDrift { app: i });
            }
        }
        for e in 0..ne {
            if self.mask[e] != new.mask[e] {
                ds.push(SlotDelta::QuarantineMask {
                    edge: e,
                    masked: new.mask[e],
                });
            }
        }
        // TIR estimates only enter the batched lowering (serial batch caps
        // come from `max_serial`), so estimate drift is a no-op there.
        if !new.serial {
            for e in 0..ne {
                for m in 0..nm {
                    let j = e * nm + m;
                    if self.tir_eta_bits[j] != new.tir_eta_bits[j]
                        || self.tir_beta[j] != new.tir_beta[j]
                    {
                        ds.push(SlotDelta::TirChange { edge: e, model: m });
                    }
                }
            }
        }
        for e in 0..ne {
            for m in 0..nm {
                let j = e * nm + m;
                if self.prev_dep[j] != new.prev_dep[j] {
                    ds.push(SlotDelta::PrevDeploy {
                        edge: e,
                        model: m,
                        deployed: new.prev_dep[j],
                    });
                }
            }
        }
        if self.mem_budget_bits != new.mem_budget_bits
            || self.net_budget_bits != new.net_budget_bits
            || self.slot_ms_bits != new.slot_ms_bits
        {
            ds.push(SlotDelta::BudgetChange);
        }
        ds
    }
}

/// One typed edit between consecutive slot fingerprints (DESIGN.md §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotDelta {
    /// App `app`'s demand row moved: flow-row RHS updates plus
    /// `local`/`out`/`in`/overflow bound updates.
    DemandDrift { app: usize },
    /// Edge `edge` entered or left quarantine: bound fixes on every column
    /// the mask pins (`x`, `b`, `local`, `in`).
    QuarantineMask { edge: usize, masked: bool },
    /// An `(eta, beta)` estimate moved: batch bound, coupling-row and
    /// compute-row coefficient updates.
    TirChange { edge: usize, model: usize },
    /// `x^{t-1}` flipped for (edge, model): the model-transfer charge
    /// appears in or vanishes from the network row.
    PrevDeploy {
        edge: usize,
        model: usize,
        deployed: bool,
    },
    /// Memory/network/compute budgets moved: RHS updates on budget rows.
    BudgetChange,
}

/// Per-kind counts of the deltas one refresh applied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    pub demand: usize,
    pub mask: usize,
    pub tir: usize,
    pub prev_deploy: usize,
    pub budget: usize,
}

impl DeltaSummary {
    pub fn total(&self) -> usize {
        self.demand + self.mask + self.tir + self.prev_deploy + self.budget
    }
}

/// Why a refresh fell back to a full rebuild instead of applying deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// No persistent model existed yet (first slot, or none restored).
    FirstBuild,
    /// A structural input changed (execution mode, drop penalty, serial
    /// batch bound) — the lowering differs beyond what deltas cover.
    StructureChanged,
    /// The catalog changed under the model (dimensions, app ownership or
    /// coefficient statics — the column add/remove fingerprint).
    CatalogChanged,
}

/// What [`SlotProblem::refresh_with_reuse`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The persistent model absorbed the slot as typed deltas.
    Applied(DeltaSummary),
    /// The model was rebuilt from scratch.
    Rebuilt(RebuildReason),
}

thread_local! {
    /// Test-only fault injection: when armed, the next demand-drift
    /// application deliberately leaves one flow-row RHS stale (one-shot).
    /// Exists so the differential suites can prove they catch a buggy
    /// delta applier; never armed outside tests.
    static DELTA_FAULT_STALE_RHS: Cell<bool> = const { Cell::new(false) };
}

/// Test-only: arm (or disarm) the stale-RHS delta fault. While armed, the
/// next [`SlotDelta::DemandDrift`] application skips the first flow-row
/// RHS update it should have made, then disarms itself.
#[doc(hidden)]
pub fn delta_fault_stale_rhs(armed: bool) {
    DELTA_FAULT_STALE_RHS.with(|c| c.set(armed));
}

/// The lowered per-slot problem plus the variable maps needed to decode.
///
/// ## Routing aggregation
///
/// The paper's `y[i][k][k']` tensor only ever enters the constraints as
/// per-edge sums — outbound `Σ_{k'} y[i][k][k']`, arriving
/// `Σ_k y[i][k][k']`, and the network charge on both. The builder therefore
/// lowers three aggregate variables per (app, edge) instead of `K^2` flows:
///
/// * `local[i][k]` — served where generated,
/// * `out[i][k]` — shipped away from `k`,
/// * `inn[i][k]` — received by `k` from elsewhere,
///
/// with a per-app balance `Σ_k out = Σ_k inn`. This shrinks the large-scale
/// problem by ~90 integer variables and is exactly equivalent: `decode`
/// reconstructs a pairwise routing with the same sums (any such routing has
/// identical loss, memory, compute and network behaviour).
pub struct SlotProblem {
    model: Model,
    t: usize,
    num_apps: usize,
    num_edges: usize,
    num_models: usize,
    serial: bool,
    /// Owning app of each model (decode lookup).
    model_app: Vec<birp_models::AppId>,
    x: Vec<Vec<VarId>>,
    b: Vec<Vec<VarId>>,
    local: Vec<Vec<VarId>>,
    out: Vec<Vec<VarId>>,
    inn: Vec<Vec<VarId>>,
    o: Vec<Vec<VarId>>,
    /// Feasible-by-construction warm start (loss-greedy local packing)
    /// computed at build time; branch and bound starts from its objective
    /// as the incumbent cutoff.
    warm: Vec<f64>,
    /// The guide LP, when it solved to optimality: the relaxation's point
    /// (it steers the packing and is OAEI's rounding input), its objective
    /// (the root bound any integer point is certified against) and its
    /// basis (the branch-and-bound root starts there). Derived state: every
    /// `derive` sets or clears it, and it is never serialized.
    guide: Option<Guide>,
    /// Outcome of the temporal-reuse repair pass, when one ran.
    reuse_outcome: Option<ReuseOutcome>,
    /// Objective coefficient per variable (point-evaluation without
    /// re-lowering the model).
    obj_coeffs: Vec<f64>,
    /// The input fingerprint this model was lowered from; the baseline the
    /// next slot is diffed against (DESIGN.md §13).
    inputs: SlotInputs,
    /// Row handles for the delta appliers. Rows without a handle
    /// (`balance`, `serve`) are static under every delta kind.
    flow_rows: Vec<Vec<RowId>>,
    cap_rows: Vec<Vec<RowId>>,
    mem_rows: Vec<RowId>,
    compute_rows: Vec<RowId>,
    net_rows: Vec<RowId>,
}

/// The optimal guide LP of one derive: the cold relaxation solve and the
/// engine snapshot of its basis.
struct Guide {
    lp: LpSolution,
    basis: Option<EngineSnapshot>,
}

impl SlotProblem {
    /// Lower the slot-`t` problem. `prev` supplies `x^{t-1}` (Eqs. 13/14);
    /// `tir` supplies the `(eta, beta)` estimates of Eq. 12.
    pub fn build(
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
    ) -> SlotProblem {
        Self::build_with_reuse(catalog, t, demand, tir, prev, cfg, None)
    }

    /// [`build`](Self::build), plus a temporal-reuse candidate: `reuse` is
    /// the previous slot's executed schedule, repaired onto this slot's
    /// constraints (current demand, masks and TIR estimates) by replaying
    /// its routing/deployment structure through the same budget-disciplined
    /// packing that produces the greedy warm start. Whichever point is
    /// better becomes the installed incumbent; [`reuse_outcome`]
    /// (Self::reuse_outcome) reports what happened.
    pub fn build_with_reuse(
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        reuse: Option<&Schedule>,
    ) -> SlotProblem {
        Self::build_inner(catalog, t, demand, tir, prev, cfg, reuse, true)
    }

    /// [`build_with_reuse`](Self::build_with_reuse) without the guide-LP
    /// solve. The heuristic-regime skip path (DESIGN.md §11) only needs the
    /// repaired candidate checked against current-slot feasibility and the
    /// greedy warm floor — paying for the root relaxation on a slot that
    /// will never run branch and bound is pure overhead. The floor here is
    /// the *unguided* greedy packing and [`root_bound`](Self::root_bound)
    /// is `None`, so certification-based paths are unavailable on a lean
    /// problem; callers that end up solving must rebuild with
    /// [`build_with_reuse`](Self::build_with_reuse).
    pub fn build_reuse_lean(
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        reuse: Option<&Schedule>,
    ) -> SlotProblem {
        Self::build_inner(catalog, t, demand, tir, prev, cfg, reuse, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn build_inner(
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        reuse: Option<&Schedule>,
        guide_lp: bool,
    ) -> SlotProblem {
        let _build_span = telemetry::span("problem.build");
        let inputs = Self::compute_inputs(catalog, t, demand, tir, prev, cfg);
        let mut p = Self::construct(catalog, inputs);
        p.derive(catalog, reuse, guide_lp);
        p
    }

    /// Absorb slot `t` into the persistent model as typed deltas instead
    /// of rebuilding it (DESIGN.md §13). The new inputs are fingerprinted
    /// and diffed against the fingerprint this model was lowered from;
    /// each difference becomes a targeted RHS/bound/coefficient edit that
    /// lands the model exactly where a fresh [`build_with_reuse`]
    /// (Self::build_with_reuse) would have — same lowering (bitwise), same
    /// warm start, same root bound, same reuse outcome, which the delta
    /// differential suites pin down. A structural mismatch (mode change,
    /// catalog change) cannot be expressed as deltas; the model is rebuilt
    /// from scratch and the reason reported.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh_with_reuse(
        &mut self,
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        reuse: Option<&Schedule>,
        guide_lp: bool,
    ) -> DeltaOutcome {
        let new = Self::compute_inputs(catalog, t, demand, tir, prev, cfg);
        if !self.inputs.same_structure(&new) {
            let catalog_changed = self.inputs.statics_digest != new.statics_digest
                || self.inputs.num_apps != new.num_apps
                || self.inputs.num_edges != new.num_edges
                || self.inputs.num_models != new.num_models
                || self.inputs.model_app != new.model_app;
            let reason = if catalog_changed {
                RebuildReason::CatalogChanged
            } else {
                RebuildReason::StructureChanged
            };
            *self = Self::build_inner(catalog, t, demand, tir, prev, cfg, reuse, guide_lp);
            return DeltaOutcome::Rebuilt(reason);
        }
        let _refresh_span = telemetry::span("problem.refresh");
        let deltas = self.inputs.diff(&new);
        self.inputs = new;
        self.t = t;
        let mut summary = DeltaSummary::default();
        for d in &deltas {
            match *d {
                SlotDelta::DemandDrift { app } => {
                    summary.demand += 1;
                    self.apply_demand_drift(app);
                }
                SlotDelta::QuarantineMask { edge, masked } => {
                    summary.mask += 1;
                    self.apply_mask(edge, masked);
                }
                SlotDelta::TirChange { edge, model } => {
                    summary.tir += 1;
                    self.apply_tir(catalog, edge, model);
                }
                SlotDelta::PrevDeploy {
                    edge,
                    model,
                    deployed,
                } => {
                    summary.prev_deploy += 1;
                    self.apply_prev_deploy(catalog, edge, model, deployed);
                }
                SlotDelta::BudgetChange => {
                    summary.budget += 1;
                    self.apply_budgets();
                }
            }
        }
        // Even a zero-delta slot re-derives: the warm start and reuse
        // outcome depend on the reuse candidate, which changes every slot.
        self.derive(catalog, reuse, guide_lp);
        DeltaOutcome::Applied(summary)
    }

    /// [`SlotDelta::DemandDrift`]: re-point app `i`'s flow-row RHS and the
    /// supply-derived bounds at the stored (new) inputs, replicating the
    /// builder's formulas — including the mask overrides on `local`/`in`.
    fn apply_demand_drift(&mut self, i: usize) {
        let mut fault = DELTA_FAULT_STALE_RHS.with(|c| c.get());
        let inn_cap = self.inputs.app_total(i);
        for k in 0..self.num_edges {
            let supply = self.inputs.supply(i, k) as f64;
            let masked = self.inputs.mask[k];
            if fault && self.model.rhs(self.flow_rows[i][k]) != supply {
                // Armed fault: leave this one RHS stale, then disarm.
                fault = false;
                DELTA_FAULT_STALE_RHS.with(|c| c.set(false));
            } else {
                self.model.set_rhs(self.flow_rows[i][k], supply);
            }
            self.model
                .set_bounds(self.local[i][k], 0.0, if masked { 0.0 } else { supply });
            self.model.set_bounds(self.out[i][k], 0.0, supply);
            self.model.set_bounds(self.o[i][k], 0.0, supply);
            self.model
                .set_bounds(self.inn[i][k], 0.0, if masked { 0.0 } else { inn_cap });
        }
    }

    /// [`SlotDelta::QuarantineMask`]: pin (or release) every column the
    /// mask fixes on edge `e`. Rows are untouched — the builder masks
    /// through bounds only.
    fn apply_mask(&mut self, e: usize, masked: bool) {
        for m in 0..self.num_models {
            if masked {
                self.model.set_bounds(self.x[e][m], 0.0, 0.0);
                self.model.set_bounds(self.b[e][m], 0.0, 0.0);
            } else {
                self.model.set_bounds(self.x[e][m], 0.0, 1.0);
                self.model
                    .set_bounds(self.b[e][m], 0.0, self.inputs.batch_cap(e, m) as f64);
            }
        }
        for i in 0..self.num_apps {
            let supply = self.inputs.supply(i, e) as f64;
            let inn_cap = self.inputs.app_total(i);
            self.model
                .set_bounds(self.local[i][e], 0.0, if masked { 0.0 } else { supply });
            self.model
                .set_bounds(self.inn[i][e], 0.0, if masked { 0.0 } else { inn_cap });
        }
    }

    /// [`SlotDelta::TirChange`]: the `beta` estimate moves the batch bound
    /// and the coupling-row coefficient, the `eta` estimate moves the
    /// Taylor-linearised compute coefficients.
    fn apply_tir(&mut self, catalog: &Catalog, e: usize, m: usize) {
        let cap = self.inputs.batch_cap(e, m) as f64;
        let masked = self.inputs.mask[e];
        self.model
            .set_bounds(self.b[e][m], 0.0, if masked { 0.0 } else { cap });
        self.model
            .set_row_coeff(self.cap_rows[e][m], self.x[e][m], -cap);
        if !self.serial {
            let gamma = catalog.edges[e].gamma_ms[m];
            let (slope, intercept) = linear_coeffs(gamma, self.inputs.eta(e, m));
            self.model
                .set_row_coeff(self.compute_rows[e], self.b[e][m], slope);
            self.model
                .set_row_coeff(self.compute_rows[e], self.x[e][m], intercept);
        }
    }

    /// [`SlotDelta::PrevDeploy`]: the `[x^t - x^{t-1}]^+` transfer charge
    /// is `compressed_mb` exactly when the model was *not* deployed last
    /// slot; a zero coefficient is removed from the row, matching the
    /// builder (which never lowers zero terms).
    fn apply_prev_deploy(&mut self, catalog: &Catalog, k: usize, m: usize, deployed: bool) {
        let c = if deployed {
            0.0
        } else {
            catalog.models[m].compressed_mb
        };
        self.model.set_row_coeff(self.net_rows[k], self.x[k][m], c);
    }

    /// [`SlotDelta::BudgetChange`]: RHS updates on the three budget row
    /// families.
    fn apply_budgets(&mut self) {
        for e in 0..self.num_edges {
            self.model.set_rhs(
                self.mem_rows[e],
                f64::from_bits(self.inputs.mem_budget_bits[e]),
            );
            self.model.set_rhs(
                self.net_rows[e],
                f64::from_bits(self.inputs.net_budget_bits[e]),
            );
            self.model.set_rhs(
                self.compute_rows[e],
                f64::from_bits(self.inputs.slot_ms_bits),
            );
        }
    }

    /// Fingerprint one slot's inputs (the delta-diff baseline).
    fn compute_inputs(
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
    ) -> SlotInputs {
        let na = catalog.num_apps();
        let ne = catalog.num_edges();
        let nm = catalog.num_models();
        let (serial, max_serial) = match cfg.mode {
            ExecutionMode::Batched => (false, 0),
            ExecutionMode::Serial { max_serial } => (true, max_serial),
        };
        let masked = |k: usize| -> bool {
            cfg.masked_edges
                .as_ref()
                .is_some_and(|m| m.get(k).copied().unwrap_or(false))
        };
        let mut supply = Vec::with_capacity(na * ne);
        for i in 0..na {
            for k in 0..ne {
                supply.push(demand.get(birp_models::AppId(i), EdgeId(k)));
            }
        }
        let mut tir_eta_bits = Vec::with_capacity(ne * nm);
        let mut tir_beta = Vec::with_capacity(ne * nm);
        let mut prev_dep = Vec::with_capacity(ne * nm);
        for e in 0..ne {
            for m in 0..nm {
                let p = tir.get(EdgeId(e), ModelId(m));
                tir_eta_bits.push(p.eta.to_bits());
                tir_beta.push(p.beta);
                prev_dep.push(prev.is_some_and(|s| s.is_deployed(EdgeId(e), ModelId(m))));
            }
        }
        SlotInputs {
            t,
            num_apps: na,
            num_edges: ne,
            num_models: nm,
            serial,
            max_serial,
            drop_penalty_bits: cfg.drop_penalty.to_bits(),
            model_app: catalog.models.iter().map(|m| m.app.index()).collect(),
            supply,
            mask: (0..ne).map(masked).collect(),
            tir_eta_bits,
            tir_beta,
            prev_dep,
            mem_budget_bits: catalog
                .edges
                .iter()
                .map(|e| e.memory_mb.to_bits())
                .collect(),
            net_budget_bits: catalog
                .edges
                .iter()
                .map(|e| e.network_budget_mb.to_bits())
                .collect(),
            slot_ms_bits: catalog.slot_ms.to_bits(),
            statics_digest: Self::statics_digest(catalog),
        }
    }

    /// FNV-1a over every catalog coefficient the lowering reads but the
    /// fingerprint does not store verbatim.
    fn statics_digest(catalog: &Catalog) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(catalog.num_apps() as u64);
        eat(catalog.num_edges() as u64);
        eat(catalog.num_models() as u64);
        eat(MAX_BATCH as u64);
        for m in &catalog.models {
            eat(m.app.index() as u64);
            eat(m.loss.to_bits());
            eat(m.weight_mb.to_bits());
            eat(m.intermediate_mb.to_bits());
            eat(m.compressed_mb.to_bits());
        }
        for a in &catalog.apps {
            eat(a.request_mb.to_bits());
        }
        for e in &catalog.edges {
            for &g in &e.gamma_ms {
                eat(g.to_bits());
            }
        }
        h
    }

    /// Lower the model skeleton from an input fingerprint. A pure function
    /// of `(catalog statics, inputs)`: the fresh-build path and the
    /// checkpoint-restore path both come through here, which is what makes
    /// "refresh equals rebuild" checkable by fingerprint comparison alone.
    /// The derived state (warm start, root bound, objective coefficients)
    /// is left empty; [`derive`](Self::derive) fills it.
    fn construct(catalog: &Catalog, inputs: SlotInputs) -> SlotProblem {
        let na = inputs.num_apps;
        let ne = inputs.num_edges;
        let nm = inputs.num_models;
        let mut model = Model::new();

        let serial = inputs.serial;
        let drop_penalty = f64::from_bits(inputs.drop_penalty_bits);
        let batch_cap = |e: usize, m: usize| -> u32 { inputs.batch_cap(e, m) };

        // --- variables ----------------------------------------------------
        let x: Vec<Vec<VarId>> = (0..ne)
            .map(|e| {
                (0..nm)
                    .map(|m| model.add_binary(&format!("x[{e}][{m}]"), 0.0))
                    .collect()
            })
            .collect();
        let b: Vec<Vec<VarId>> = (0..ne)
            .map(|e| {
                (0..nm)
                    .map(|m| {
                        model.add_var(
                            &format!("b[{e}][{m}]"),
                            VarKind::Integer,
                            0.0,
                            batch_cap(e, m) as f64,
                            catalog.models[m].loss, // objective: loss * b
                        )
                    })
                    .collect()
            })
            .collect();
        let mut local = Vec::with_capacity(na);
        let mut out = Vec::with_capacity(na);
        let mut inn = Vec::with_capacity(na);
        for i in 0..na {
            let inn_cap = inputs.app_total(i);
            let mut l_row = Vec::with_capacity(ne);
            let mut o_row = Vec::with_capacity(ne);
            let mut i_row = Vec::with_capacity(ne);
            for k in 0..ne {
                let supply = inputs.supply(i, k) as f64;
                l_row.push(model.add_var(
                    &format!("local[{i}][{k}]"),
                    VarKind::Integer,
                    0.0,
                    supply,
                    0.0,
                ));
                o_row.push(model.add_var(
                    &format!("out[{i}][{k}]"),
                    VarKind::Integer,
                    0.0,
                    supply,
                    0.0,
                ));
                i_row.push(model.add_var(
                    &format!("in[{i}][{k}]"),
                    VarKind::Integer,
                    0.0,
                    inn_cap,
                    0.0,
                ));
            }
            local.push(l_row);
            out.push(o_row);
            inn.push(i_row);
        }
        let o: Vec<Vec<VarId>> = (0..na)
            .map(|i| {
                (0..ne)
                    .map(|k| {
                        let supply = inputs.supply(i, k);
                        model.add_var(
                            &format!("o[{i}][{k}]"),
                            VarKind::Integer,
                            0.0,
                            supply as f64,
                            drop_penalty,
                        )
                    })
                    .collect()
            })
            .collect();
        // --- quarantine mask -----------------------------------------------
        // A masked edge hosts nothing and receives nothing; its own supply
        // keeps `out`/`o` open so the flow rows stay feasible.
        let masked = |k: usize| -> bool { inputs.mask[k] };
        for e in (0..ne).filter(|&e| masked(e)) {
            for m in 0..nm {
                model.set_bounds(x[e][m], 0.0, 0.0);
                model.set_bounds(b[e][m], 0.0, 0.0);
            }
            for i in 0..na {
                model.set_bounds(local[i][e], 0.0, 0.0);
                model.set_bounds(inn[i][e], 0.0, 0.0);
            }
        }

        // --- Eq. 3: flow conservation + overflow ---------------------------
        // local + out + o = r per (app, edge).
        let mut flow_rows = Vec::with_capacity(na);
        for i in 0..na {
            let mut handles = Vec::with_capacity(ne);
            for k in 0..ne {
                let supply = inputs.supply(i, k);
                let expr = local[i][k] + out[i][k] + o[i][k];
                handles.push(model.add_eq(&format!("flow[{i}][{k}]"), expr, supply as f64));
            }
            flow_rows.push(handles);
        }

        // Per-app routing balance: everything shipped is received somewhere.
        // The row is static under every delta kind, so it needs no handle.
        for i in 0..na {
            let expr = LinExpr::sum(out[i].iter().copied()) - LinExpr::sum(inn[i].iter().copied());
            model.add_eq(&format!("balance[{i}]"), expr, 0.0);
        }

        // --- Eq. 4: deployment/batch coupling ------------------------------
        // Only `b <= cap * x` is lowered; the paper's `b >= x` merely forbids
        // idle deployments (x = 1, b = 0), which are weakly dominated and
        // pruned at decode time — dropping the row halves the coupling
        // constraints.
        let mut cap_rows = Vec::with_capacity(ne);
        for e in 0..ne {
            let mut handles = Vec::with_capacity(nm);
            for m in 0..nm {
                let cap = batch_cap(e, m) as f64;
                handles.push(model.add_le(
                    &format!("cap[{e}][{m}]"),
                    LinExpr::term(b[e][m], 1.0) - LinExpr::term(x[e][m], cap),
                    0.0,
                ));
            }
            cap_rows.push(handles);
        }

        // --- Eq. 5: batches equal arriving workload ------------------------
        // Σ_j b[k][j of app i] = local[i][k] + in[i][k].
        for i in 0..na {
            for k in 0..ne {
                let mut expr = LinExpr::new();
                for &m in catalog.models_of(birp_models::AppId(i)) {
                    expr.add_term(b[k][m.index()], 1.0);
                }
                expr.add_term(local[i][k], -1.0);
                expr.add_term(inn[i][k], -1.0);
                model.add_eq(&format!("serve[{i}][{k}]"), expr, 0.0);
            }
        }

        // --- Eq. 6: memory --------------------------------------------------
        let mut mem_rows = Vec::with_capacity(ne);
        for e in 0..ne {
            let mut expr = LinExpr::new();
            for m in 0..nm {
                let mv = &catalog.models[m];
                if serial {
                    // One request's intermediates at a time.
                    expr.add_term(x[e][m], mv.weight_mb + mv.intermediate_mb);
                } else {
                    expr.add_term(x[e][m], mv.weight_mb);
                    expr.add_term(b[e][m], mv.intermediate_mb);
                }
            }
            mem_rows.push(model.add_le(
                &format!("mem[{e}]"),
                expr,
                f64::from_bits(inputs.mem_budget_bits[e]),
            ));
        }

        // --- Eqs. 12/24/25: compute -----------------------------------------
        let mut compute_rows = Vec::with_capacity(ne);
        for e in 0..ne {
            let mut expr = LinExpr::new();
            for m in 0..nm {
                let gamma = catalog.edges[e].gamma_ms[m];
                if serial {
                    expr.add_term(b[e][m], gamma);
                } else {
                    // x * h(b) = gamma[(1-eta) b + eta x] using x*b = b.
                    let (slope, intercept) = linear_coeffs(gamma, inputs.eta(e, m));
                    expr.add_term(b[e][m], slope);
                    expr.add_term(x[e][m], intercept);
                }
            }
            compute_rows.push(model.add_le(
                &format!("compute[{e}]"),
                expr,
                f64::from_bits(inputs.slot_ms_bits),
            ));
        }

        // --- Eqs. 9/13/14: network -------------------------------------------
        let mut net_rows = Vec::with_capacity(ne);
        for k in 0..ne {
            let mut expr = LinExpr::new();
            for i in 0..na {
                let zeta = catalog.apps[i].request_mb;
                expr.add_term(out[i][k], zeta);
                expr.add_term(inn[i][k], zeta);
            }
            for (m, &xkm) in x[k].iter().enumerate() {
                if !inputs.prev_dep[k * nm + m] {
                    // [x^t - x^{t-1}]^+ = x^t when x^{t-1} = 0, else 0.
                    expr.add_term(xkm, catalog.models[m].compressed_mb);
                }
            }
            net_rows.push(model.add_le(
                &format!("net[{k}]"),
                expr,
                f64::from_bits(inputs.net_budget_bits[k]),
            ));
        }

        SlotProblem {
            model,
            t: inputs.t,
            num_apps: na,
            num_edges: ne,
            num_models: nm,
            serial,
            model_app: catalog.models.iter().map(|m| m.app).collect(),
            x,
            b,
            local,
            out,
            inn,
            o,
            warm: Vec::new(),
            guide: None,
            reuse_outcome: None,
            obj_coeffs: Vec::new(),
            inputs,
            flow_rows,
            cap_rows,
            mem_rows,
            compute_rows,
            net_rows,
        }
    }

    /// Recompute the derived state — guide LP (root bound and basis),
    /// packed warm start, objective coefficients, temporal-reuse repair
    /// outcome — on the current model. Reads only the lowered model, the
    /// stored input fingerprint, the catalog statics and its own
    /// arguments, so a refreshed model derives exactly what a fresh build
    /// would (the LP guide stays a cold solve on purpose: warm-starting it
    /// could land on a different optimal vertex and break bitwise
    /// reproducibility). A lean derive (`guide_lp` off) clears the guide,
    /// so no stale basis reaches a later solve.
    fn derive(&mut self, catalog: &Catalog, reuse: Option<&Schedule>, guide_lp: bool) {
        // --- warm start: LP-guided greedy packing with redistribution ---
        // The LP relaxation knows the right *structure* (which models carry
        // which cell's traffic, what ships where); the greedy `place()`
        // machinery adds the integrality and budget discipline the LP
        // lacks. Feasible by construction — the incumbent cutoff branch
        // and bound starts from.
        self.guide = if guide_lp {
            let _guide_span = telemetry::span("problem.guide_lp");
            self.model.solve_relaxation().ok().and_then(|(lp, basis)| {
                telemetry::counter("problem.guide_pivots", lp.iterations as u64);
                (lp.status == LpStatus::Optimal).then_some(Guide { lp, basis })
            })
        } else {
            None
        };
        let mut warm = self.packed_point(catalog, self.guide.as_ref().map(|g| &g.lp.x));

        // Point objective without re-lowering: `Σ loss·b + penalty·o` (the
        // only variables with objective coefficients).
        let drop_penalty = f64::from_bits(self.inputs.drop_penalty_bits);
        let mut obj_coeffs = vec![0.0; self.model.num_vars()];
        for e in 0..self.num_edges {
            for m in 0..self.num_models {
                obj_coeffs[self.b[e][m].index()] = catalog.models[m].loss;
            }
        }
        for row in &self.o {
            for &ov in row {
                obj_coeffs[ov.index()] = drop_penalty;
            }
        }
        let point_obj = |p: &[f64]| -> f64 { obj_coeffs.iter().zip(p).map(|(&c, &v)| c * v).sum() };

        // --- temporal reuse: repair the previous schedule into a candidate -
        // Encode the reused schedule into this slot's variable space and
        // run it through the same packing passes: stale structure (masked
        // edges, shrunken batch caps, vanished demand) is projected onto
        // the current constraints instead of carried over verbatim.
        self.reuse_outcome = None;
        if let Some(reused) = reuse.filter(|r| r.serial == self.serial) {
            let mut g = vec![0.0; self.model.num_vars()];
            for (e, ds) in reused.deployments.iter().enumerate().take(self.num_edges) {
                for d in ds {
                    let m = d.model.index();
                    if m < self.num_models {
                        g[self.x[e][m].index()] = 1.0;
                        g[self.b[e][m].index()] += d.batch as f64;
                    }
                }
            }
            for i in 0..self.num_apps.min(reused.unserved.len()) {
                let app = birp_models::AppId(i);
                for src in 0..self.num_edges {
                    for dst in 0..self.num_edges {
                        let r = reused.routing.get(app, EdgeId(src), EdgeId(dst)) as f64;
                        if r == 0.0 {
                            continue;
                        }
                        if src == dst {
                            g[self.local[i][src].index()] += r;
                        } else {
                            g[self.out[i][src].index()] += r;
                            g[self.inn[i][dst].index()] += r;
                        }
                    }
                }
            }
            let temporal = self.packed_point(catalog, Some(&g));
            let violation = self.model.max_violation(&temporal);
            self.reuse_outcome = Some(if violation >= 1e-6 {
                ReuseOutcome::RepairFail
            } else if point_obj(&temporal) <= point_obj(&warm) + 1e-12 {
                warm = temporal;
                ReuseOutcome::Installed
            } else {
                ReuseOutcome::NotBetter
            });
        }
        self.warm = warm;
        self.obj_coeffs = obj_coeffs;
    }

    /// Guide-driven greedy packing, shared by the LP warm start and the
    /// temporal-reuse repair pass: the guide says which models should
    /// carry which cell's traffic and what ships where; the passes add
    /// the integrality and budget discipline, so the result is feasible
    /// by construction whatever the guide. Pass 1 serves locally following
    /// the guide's local shares and model preferences, pass 2 ships
    /// leftovers to the guide's preferred receivers, pass 3 mops up
    /// anywhere with spare compute.
    fn packed_point(&self, catalog: &Catalog, guide_vec: Option<&Vec<f64>>) -> Vec<f64> {
        let na = self.num_apps;
        let ne = self.num_edges;
        let nm = self.num_models;
        let serial = self.serial;
        let inputs = &self.inputs;
        let (x, b, local, out, inn, o) =
            (&self.x, &self.b, &self.local, &self.out, &self.inn, &self.o);
        let masked = |k: usize| -> bool { inputs.mask[k] };
        let batch_cap = |e: usize, m: usize| -> u32 { inputs.batch_cap(e, m) };

        let mut warm = vec![0.0; self.model.num_vars()];
        let guide = |v: VarId| -> f64 { guide_vec.map_or(0.0, |g| g[v.index()]) };
        let mut mem_left: Vec<f64> = (0..ne)
            .map(|e| f64::from_bits(inputs.mem_budget_bits[e]))
            .collect();
        let mut compute_left = vec![f64::from_bits(inputs.slot_ms_bits); ne];
        let mut net_left: Vec<f64> = (0..ne)
            .map(|e| f64::from_bits(inputs.net_budget_bits[e]))
            .collect();
        let mut batches = vec![vec![0u32; nm]; ne];

        // Place up to `want` requests of `app` on edge `k`; returns the
        // number placed. Most accurate (lowest loss) versions first.
        let place = |k: usize,
                     app: birp_models::AppId,
                     want: u32,
                     mem_left: &mut [f64],
                     compute_left: &mut [f64],
                     net_left: &mut [f64],
                     batches: &mut [Vec<u32>]|
         -> u32 {
            if masked(k) {
                return 0;
            }
            let mut left = want;
            // Guide-preferred models first (largest fractional batch),
            // then by accuracy.
            let mut order: Vec<ModelId> = catalog.models_of(app).to_vec();
            order.sort_by(|ma, mb| {
                let ga = guide(b[k][ma.index()]);
                let gb = guide(b[k][mb.index()]);
                gb.partial_cmp(&ga).unwrap().then_with(|| {
                    catalog
                        .model(*ma)
                        .loss
                        .partial_cmp(&catalog.model(*mb).loss)
                        .unwrap()
                })
            });
            for mid in order {
                let m = mid.index();
                let mv = &catalog.models[m];
                let cap = batch_cap(k, m);
                let gamma = catalog.edges[k].gamma_ms[m];
                while left > 0 && batches[k][m] < cap {
                    let fresh = batches[k][m] == 0;
                    let (dc, dm);
                    if serial {
                        dc = gamma;
                        dm = if fresh {
                            mv.weight_mb + mv.intermediate_mb
                        } else {
                            0.0
                        };
                    } else {
                        let (slope, intercept) = linear_coeffs(gamma, inputs.eta(k, m));
                        dc = slope + if fresh { intercept } else { 0.0 };
                        dm = if fresh {
                            mv.weight_mb + mv.intermediate_mb
                        } else {
                            mv.intermediate_mb
                        };
                    }
                    let dn = if fresh && !inputs.prev_dep[k * nm + m] {
                        mv.compressed_mb
                    } else {
                        0.0
                    };
                    if dc <= compute_left[k] && dm <= mem_left[k] && dn <= net_left[k] {
                        compute_left[k] -= dc;
                        mem_left[k] -= dm;
                        net_left[k] -= dn;
                        batches[k][m] += 1;
                        left -= 1;
                    } else {
                        break;
                    }
                }
            }
            want - left
        };

        // Pass 1: local service, following the guide's local share for the
        // cell (leave the guide's shipped share for pass 2, so receiving
        // edges' capacity is not consumed by greedy local overreach).
        let mut leftover = vec![vec![0u32; ne]; na];
        for k in 0..ne {
            for i in 0..na {
                let app = birp_models::AppId(i);
                let d = inputs.supply(i, k);
                let want = if guide_vec.is_some() {
                    d.min((guide(local[i][k]) + 0.999).floor() as u32)
                } else {
                    d
                };
                let served = place(
                    k,
                    app,
                    want,
                    &mut mem_left,
                    &mut compute_left,
                    &mut net_left,
                    &mut batches,
                );
                warm[local[i][k].index()] = served as f64;
                leftover[i][k] = d - served;
            }
        }

        // Pass 2 ships leftovers to the guide's preferred receivers; pass 3
        // retries everything left: more local service, then any edge
        // with spare compute.
        for pass in [2, 3] {
            for i in 0..na {
                let app = birp_models::AppId(i);
                let zeta = catalog.apps[i].request_mb;
                for src in 0..ne {
                    if pass == 3 && leftover[i][src] > 0 {
                        // Extra local service beyond the guide's share.
                        let extra = place(
                            src,
                            app,
                            leftover[i][src],
                            &mut mem_left,
                            &mut compute_left,
                            &mut net_left,
                            &mut batches,
                        );
                        warm[local[i][src].index()] += extra as f64;
                        leftover[i][src] -= extra;
                    }
                    while leftover[i][src] > 0 {
                        let mut order: Vec<usize> = (0..ne).filter(|&d| d != src).collect();
                        if pass == 2 {
                            // Guide's receivers first.
                            order.sort_by(|&a, &c| {
                                guide(inn[i][c]).partial_cmp(&guide(inn[i][a])).unwrap()
                            });
                        } else {
                            order.sort_by(|&a, &c| {
                                compute_left[c].partial_cmp(&compute_left[a]).unwrap()
                            });
                        }
                        let mut moved_any = false;
                        for dest in order {
                            if pass == 2 && guide(inn[i][dest]) < 0.5 {
                                continue; // not a guide receiver
                            }
                            let net_cap = ((net_left[src] / zeta).min(net_left[dest] / zeta))
                                .floor()
                                .max(0.0) as u32;
                            let block = leftover[i][src].min(net_cap);
                            if block == 0 {
                                continue;
                            }
                            // Reserve the forwarding budget before
                            // placing: `place` may also spend
                            // `net_left[dest]` on a fresh model transfer,
                            // and deducting the forwarding cost only
                            // afterwards let the two overdraw the edge's
                            // network budget (making the "feasible by
                            // construction" warm start infeasible).
                            let reserve = zeta * block as f64;
                            net_left[src] -= reserve;
                            net_left[dest] -= reserve;
                            let placed = place(
                                dest,
                                app,
                                block,
                                &mut mem_left,
                                &mut compute_left,
                                &mut net_left,
                                &mut batches,
                            );
                            let refund = zeta * (block - placed) as f64;
                            net_left[src] += refund;
                            net_left[dest] += refund;
                            if placed > 0 {
                                warm[out[i][src].index()] += placed as f64;
                                warm[inn[i][dest].index()] += placed as f64;
                                leftover[i][src] -= placed;
                                moved_any = true;
                                break;
                            }
                        }
                        if !moved_any {
                            break;
                        }
                    }
                    if pass == 3 {
                        warm[o[i][src].index()] = leftover[i][src] as f64;
                    }
                }
            }
        }

        for k in 0..ne {
            for m in 0..nm {
                if batches[k][m] > 0 {
                    warm[x[k][m].index()] = 1.0;
                    warm[b[k][m].index()] = batches[k][m] as f64;
                }
            }
        }
        warm
    }

    pub fn num_vars(&self) -> usize {
        self.model.num_vars()
    }

    pub fn num_constraints(&self) -> usize {
        self.model.num_constraints()
    }

    /// What the temporal-reuse repair pass did (`None` when
    /// [`build`](Self::build) ran without a reuse candidate).
    pub fn reuse_outcome(&self) -> Option<ReuseOutcome> {
        self.reuse_outcome
    }

    /// Objective of the root LP relaxation — a lower bound on every
    /// feasible integer point. `None` when the guide LP failed.
    pub fn root_bound(&self) -> Option<f64> {
        self.guide.as_ref().map(|g| g.lp.objective)
    }

    /// The slot-varying input fingerprint this model was lowered from —
    /// the snapshot half of the persistent-model checkpoint.
    pub fn inputs(&self) -> &SlotInputs {
        &self.inputs
    }

    /// Rebuild the model skeleton from a checkpointed fingerprint — the
    /// restore half of the persistent-model checkpoint. Derived state
    /// (warm start, root bound, reuse outcome) is *not* reconstructed: the
    /// first [`refresh_with_reuse`](Self::refresh_with_reuse) on the
    /// restored problem recomputes it, exactly as the uninterrupted run's
    /// refresh would have. Callers must refresh before solving.
    pub fn from_inputs(catalog: &Catalog, inputs: SlotInputs) -> SlotProblem {
        Self::construct(catalog, inputs)
    }

    /// The packed warm-start point (debug/differential-test accessor).
    pub fn warm_point(&self) -> &[f64] {
        &self.warm
    }

    /// Objective value of a point in this problem's variable space.
    pub fn point_objective(&self, p: &[f64]) -> f64 {
        self.obj_coeffs.iter().zip(p).map(|(&c, &v)| c * v).sum()
    }

    /// Decode the built warm-start point into a schedule *without* running
    /// branch and bound or certifying anything: the greedy packing, improved
    /// by the repaired previous-slot schedule whenever that carried a lower
    /// objective ([`ReuseOutcome::Installed`]). This point is feasible by
    /// construction and is exactly the floor a budget-exhausted
    /// branch-and-bound run falls back to, which is why the heuristic-regime
    /// skip path (DESIGN.md §11) may serve it while the solver is returning
    /// degraded incumbents anyway. The returned stats carry the honest
    /// (possibly large, or unbounded on a lean build) gap against the LP
    /// root bound and are never marked optimal — this is a floor, not a
    /// proof.
    pub fn warm_schedule(&self) -> (Schedule, SolveStats) {
        let obj = self.point_objective(&self.warm);
        let root = self.root_bound();
        let gap = root.map_or(f64::INFINITY, |root| {
            (obj - root).max(0.0) / obj.abs().max(1.0)
        });
        let sol = Solution {
            status: ModelStatus::Feasible,
            objective: obj,
            values: self.warm.clone(),
            bound: root.unwrap_or(f64::NEG_INFINITY),
            gap,
            nodes: 0,
            degraded: false,
            budget: BudgetHit::None,
            incumbents: vec![(0, obj, gap)],
            root_dive: RootDive::NotRun,
            root_restored: false,
        };
        let stats = SolveStats {
            objective: obj,
            gap,
            nodes: 0,
            optimal: false,
            degraded: false,
            budget: BudgetOutcome::None,
            incumbents: vec![(0, obj, gap)],
            root_dive: RootDiveOutcome::NotRun,
            root_restored: false,
        };
        (self.decode(&sol), stats)
    }

    /// Solve and decode into a schedule. The loss-greedy warm start built
    /// alongside the model guarantees branch and bound always holds a
    /// usable incumbent, even under the tightest node budgets; the guide
    /// LP's basis lets the root LP start at the relaxation's optimum.
    pub fn solve(&self, solver_cfg: &SolverConfig) -> Result<(Schedule, SolveStats), SolverError> {
        let warm = WarmStart {
            point: Some(&self.warm),
            basis: self.guide.as_ref().and_then(|g| g.basis.as_ref()),
        };
        let sol = self.model.solve_warm(solver_cfg, warm)?;
        Ok(self.decode_with_stats(&sol))
    }

    fn decode_with_stats(&self, sol: &Solution) -> (Schedule, SolveStats) {
        let stats = SolveStats {
            objective: sol.objective,
            gap: sol.gap,
            nodes: sol.nodes,
            optimal: sol.status == ModelStatus::Optimal,
            degraded: sol.degraded,
            budget: sol.budget.into(),
            incumbents: sol.incumbents.clone(),
            root_dive: sol.root_dive.into(),
            root_restored: sol.root_restored,
        };
        (self.decode(sol), stats)
    }

    /// Fractional deployment variables of the LP relaxation — the input to
    /// OAEI's randomised rounding. Served from the guide LP when one
    /// solved; solved here otherwise, so an infeasible or unbounded
    /// relaxation still reports its error.
    pub fn relaxation_x(&self) -> Result<Vec<Vec<f64>>, SolverError> {
        let solved;
        let lp = match &self.guide {
            Some(guide) => &guide.lp,
            None => {
                solved = self.model.solve_relaxation()?.0;
                match solved.status {
                    LpStatus::Optimal => &solved,
                    LpStatus::Infeasible => return Err(SolverError::Infeasible),
                    LpStatus::Unbounded => return Err(SolverError::Unbounded),
                }
            }
        };
        Ok((0..self.num_edges)
            .map(|e| {
                (0..self.num_models)
                    .map(|m| lp.x[self.x[e][m].index()])
                    .collect()
            })
            .collect())
    }

    /// Solve with the deployment variables pinned to `fixed` (OAEI's second
    /// stage after rounding).
    pub fn solve_with_fixed_x(
        &self,
        fixed: &[Vec<bool>],
        solver_cfg: &SolverConfig,
    ) -> Result<(Schedule, SolveStats), SolverError> {
        let mut pinned = self.model.clone();
        // Warm start consistent with the pinned deployments: serve nothing,
        // overflow everything (valid whenever the pinned deployments fit in
        // memory/network on their own; if they do not, the pinned problem
        // is infeasible and the caller's fallback path takes over).
        let mut warm = vec![0.0; pinned.num_vars()];
        for e in 0..self.num_edges {
            for m in 0..self.num_models {
                let v = if fixed[e][m] { 1.0 } else { 0.0 };
                pinned.set_bounds(self.x[e][m], v, v);
                warm[self.x[e][m].index()] = v;
            }
        }
        for row in &self.o {
            for &ov in row {
                warm[ov.index()] = pinned.bounds(ov).1;
            }
        }
        let sol = pinned.solve_warm(solver_cfg, WarmStart::point(&warm))?;
        Ok(self.decode_with_stats(&sol))
    }

    /// Translate a solver point into a [`Schedule`].
    ///
    /// Deployments with `x = 1, b = 0` are pruned (see the Eq. 4 note in
    /// `build`). The aggregate `local/out/in` solution is expanded into a
    /// concrete pairwise routing: same-edge out/in pairs are first cancelled
    /// into local service (never worse — it only releases network budget),
    /// then sources and sinks are matched greedily in index order. Any such
    /// matching realises exactly the aggregate sums the constraints were
    /// enforced on.
    pub fn decode(&self, sol: &Solution) -> Schedule {
        let mut schedule = Schedule::empty(self.t, self.num_apps, self.num_edges);
        schedule.serial = self.serial;
        for e in 0..self.num_edges {
            for m in 0..self.num_models {
                let deployed = sol.int_value(self.x[e][m]) == 1;
                let batch = sol.int_value(self.b[e][m]).max(0) as u32;
                if deployed && batch > 0 {
                    schedule.deployments[e].push(Deployment {
                        app: self.model_app[m],
                        model: ModelId(m),
                        batch,
                    });
                }
            }
        }
        for i in 0..self.num_apps {
            let app = birp_models::AppId(i);
            let ne = self.num_edges;
            let mut local: Vec<i64> = (0..ne)
                .map(|k| sol.int_value(self.local[i][k]).max(0))
                .collect();
            let mut out: Vec<i64> = (0..ne)
                .map(|k| sol.int_value(self.out[i][k]).max(0))
                .collect();
            let mut inn: Vec<i64> = (0..ne)
                .map(|k| sol.int_value(self.inn[i][k]).max(0))
                .collect();

            // Cancel same-edge ship-and-receive into local service.
            for k in 0..ne {
                let c = out[k].min(inn[k]);
                if c > 0 {
                    local[k] += c;
                    out[k] -= c;
                    inn[k] -= c;
                }
            }
            for (k, &lk) in local.iter().enumerate() {
                if lk > 0 {
                    schedule.routing.set(app, EdgeId(k), EdgeId(k), lk as u32);
                }
                schedule.unserved[i][k] = sol.int_value(self.o[i][k]).max(0) as u32;
            }
            // Greedy source/sink matching (disjoint after cancellation).
            // Indexing is clearer than iterators here: `out`/`inn` advance
            // on different cursors and are both mutated.
            let mut sink = 0usize;
            #[allow(clippy::needless_range_loop)]
            for src in 0..ne {
                while out[src] > 0 {
                    while sink < ne && inn[sink] == 0 {
                        sink += 1;
                    }
                    if sink >= ne {
                        break; // sums matched by the balance row; defensive
                    }
                    let amount = out[src].min(inn[sink]);
                    schedule
                        .routing
                        .add(app, EdgeId(src), EdgeId(sink), amount as u32);
                    out[src] -= amount;
                    inn[sink] -= amount;
                }
            }
        }
        schedule
    }
}

impl SlotProblem {
    /// Debug-only: the lowered MILP. Tests compare two lowerings through it
    /// and feed it to reference solvers; `solver_micro` benchmarks the
    /// branch and bound on it.
    pub fn debug_milp(&self) -> birp_solver::MilpProblem {
        self.model.to_milp().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birp_models::AppId;
    use birp_sim::schedule::validate_against_trace;
    use birp_workload::Trace;

    fn demand_of(catalog: &Catalog, cells: &[(usize, usize, u32)]) -> DemandMatrix {
        let mut d = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        for &(i, k, v) in cells {
            d.set(AppId(i), EdgeId(k), v);
        }
        d
    }

    fn trace_of(catalog: &Catalog, t: usize, d: &DemandMatrix) -> Trace {
        let mut tr = Trace::zeros(t + 1, catalog.num_apps(), catalog.num_edges());
        for i in 0..catalog.num_apps() {
            for k in 0..catalog.num_edges() {
                tr.set_demand(t, AppId(i), EdgeId(k), d.get(AppId(i), EdgeId(k)));
            }
        }
        tr
    }

    #[test]
    fn batched_problem_serves_everything_under_light_load() {
        let catalog = Catalog::small_scale(42);
        let demand = demand_of(&catalog, &[(0, 0, 6), (0, 3, 4)]);
        let tir = TirMatrix::oracle(&catalog);
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        let (schedule, stats) = p.solve(&SolverConfig::default()).unwrap();
        assert_eq!(
            schedule.total_unserved(),
            0,
            "light load must be fully served"
        );
        assert_eq!(schedule.served(), 10);
        assert!(stats.objective > 0.0);
        // The decoded schedule satisfies every structural constraint.
        let trace = trace_of(&catalog, 0, &demand);
        validate_against_trace(&catalog, &trace, &schedule, None).unwrap();
    }

    #[test]
    fn light_load_prefers_accurate_models() {
        // With tiny demand and ample compute, the lowest-loss model should
        // carry the traffic.
        let catalog = Catalog::small_scale(42);
        let demand = demand_of(&catalog, &[(0, 0, 2)]);
        let tir = TirMatrix::oracle(&catalog);
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        let (schedule, _) = p.solve(&SolverConfig::default()).unwrap();
        let best_loss = catalog
            .models
            .iter()
            .map(|m| m.loss)
            .fold(f64::INFINITY, f64::min);
        let expected = best_loss * 2.0;
        assert!(
            (schedule.loss(&catalog) - expected).abs() < 1e-6,
            "loss {} vs expected {expected}",
            schedule.loss(&catalog)
        );
    }

    #[test]
    fn heavy_load_spills_to_other_edges_or_overflow() {
        let catalog = Catalog::small_scale(42);
        // Far beyond one edge's capacity: must redistribute.
        let demand = demand_of(&catalog, &[(0, 2, 40)]);
        let tir = TirMatrix::oracle(&catalog);
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        let (schedule, _) = p.solve(&SolverConfig::scheduling()).unwrap();
        let moved: u32 = (0..catalog.num_edges())
            .filter(|&k2| k2 != 2)
            .map(|k2| schedule.routing.get(AppId(0), EdgeId(2), EdgeId(k2)))
            .sum();
        assert!(moved > 0, "expected redistribution away from the hot edge");
        let trace = trace_of(&catalog, 0, &demand);
        validate_against_trace(&catalog, &trace, &schedule, None).unwrap();
    }

    #[test]
    fn batch_sizes_respect_beta_estimates() {
        let catalog = Catalog::small_scale(42);
        let demand = demand_of(&catalog, &[(0, 0, 30)]);
        // Pessimistic estimates: beta = 2 everywhere.
        let tir = TirMatrix::from_fn(catalog.num_edges(), catalog.num_models(), |_, _| {
            TirParams::consistent(0.2, 2)
        });
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        let (schedule, _) = p.solve(&SolverConfig::scheduling()).unwrap();
        for d in schedule.deployments.iter().flatten() {
            assert!(d.batch <= 2, "batch {} exceeds beta estimate", d.batch);
        }
    }

    #[test]
    fn serial_mode_produces_serial_schedule() {
        let catalog = Catalog::small_scale(42);
        let demand = demand_of(&catalog, &[(0, 0, 12)]);
        let tir = TirMatrix::initial(&catalog);
        let cfg = ProblemConfig {
            mode: ExecutionMode::Serial { max_serial: 256 },
            ..Default::default()
        };
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &cfg);
        let (schedule, _) = p.solve(&SolverConfig::scheduling()).unwrap();
        assert!(schedule.serial);
        assert_eq!(schedule.served() + schedule.total_unserved(), 12);
        let trace = trace_of(&catalog, 0, &demand);
        validate_against_trace(&catalog, &trace, &schedule, None).unwrap();
    }

    #[test]
    fn network_constraint_limits_model_churn() {
        let catalog = Catalog::small_scale(42);
        let demand = demand_of(&catalog, &[(0, 0, 4)]);
        let tir = TirMatrix::oracle(&catalog);
        // Previous slot deployed model 0 on edge 0; redeploying it is free,
        // any other model pays its compressed weight.
        let mut prev = Schedule::empty(0, catalog.num_apps(), catalog.num_edges());
        prev.deployments[0].push(Deployment {
            app: AppId(0),
            model: ModelId(0),
            batch: 1,
        });
        let p = SlotProblem::build(
            &catalog,
            1,
            &demand,
            &tir,
            Some(&prev),
            &ProblemConfig::default(),
        );
        let (schedule, _) = p.solve(&SolverConfig::default()).unwrap();
        let trace = trace_of(&catalog, 1, &demand);
        validate_against_trace(&catalog, &trace, &schedule, Some(&prev)).unwrap();
    }

    #[test]
    fn zero_demand_yields_empty_schedule() {
        let catalog = Catalog::small_scale(42);
        let demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        let tir = TirMatrix::initial(&catalog);
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        let (schedule, stats) = p.solve(&SolverConfig::default()).unwrap();
        assert_eq!(schedule.served(), 0);
        assert_eq!(schedule.total_unserved(), 0);
        assert!(schedule.deployments.iter().all(|d| d.is_empty()));
        assert!(stats.objective.abs() < 1e-9);
    }

    #[test]
    fn masked_edge_hosts_nothing_and_receives_nothing() {
        let catalog = Catalog::small_scale(42);
        // Demand on the masked edge itself and on a healthy neighbour.
        let demand = demand_of(&catalog, &[(0, 2, 8), (0, 0, 5)]);
        let tir = TirMatrix::oracle(&catalog);
        let mut mask = vec![false; catalog.num_edges()];
        mask[2] = true;
        let cfg = ProblemConfig {
            masked_edges: Some(mask),
            ..Default::default()
        };
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &cfg);
        let (schedule, _) = p.solve(&SolverConfig::scheduling()).unwrap();
        assert!(
            schedule.deployments[2].is_empty(),
            "masked edge must deploy nothing"
        );
        for i in 0..catalog.num_apps() {
            for src in 0..catalog.num_edges() {
                assert_eq!(
                    schedule.routing.get(AppId(i), EdgeId(src), EdgeId(2)),
                    0,
                    "no route into the masked edge"
                );
            }
        }
        // The masked edge's own arrivals are shipped out or dropped, never
        // lost from the accounting.
        let trace = trace_of(&catalog, 0, &demand);
        validate_against_trace(&catalog, &trace, &schedule, None).unwrap();
        assert_eq!(schedule.served() + schedule.total_unserved(), 13);
    }

    // --- delta-path differential tests (DESIGN.md §13) ------------------

    /// The full "refresh equals rebuild" contract: bitwise-equal lowering
    /// plus equal derived state.
    fn assert_same_problem(a: &SlotProblem, b: &SlotProblem) {
        assert_eq!(a.debug_milp(), b.debug_milp(), "lowering diverged");
        assert_eq!(a.warm_point(), b.warm_point(), "warm start diverged");
        assert_eq!(a.root_bound(), b.root_bound(), "root bound diverged");
        assert_eq!(
            a.reuse_outcome(),
            b.reuse_outcome(),
            "reuse outcome diverged"
        );
        assert_eq!(a.inputs(), b.inputs(), "fingerprint diverged");
    }

    #[test]
    fn refresh_demand_drift_matches_rebuild_bitwise() {
        let catalog = Catalog::small_scale(42);
        let tir = TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let d0 = demand_of(&catalog, &[(0, 0, 6), (0, 3, 4)]);
        let mut p = SlotProblem::build(&catalog, 0, &d0, &tir, None, &cfg);
        let (s0, _) = p.solve(&SolverConfig::default()).unwrap();

        let d1 = demand_of(&catalog, &[(0, 0, 9), (0, 3, 4), (0, 1, 5)]);
        let out = p.refresh_with_reuse(&catalog, 1, &d1, &tir, Some(&s0), &cfg, Some(&s0), true);
        match out {
            DeltaOutcome::Applied(s) => {
                assert!(s.demand >= 1, "expected demand deltas, got {s:?}")
            }
            other => panic!("expected Applied, got {other:?}"),
        }
        let fresh =
            SlotProblem::build_with_reuse(&catalog, 1, &d1, &tir, Some(&s0), &cfg, Some(&s0));
        assert_same_problem(&p, &fresh);
    }

    #[test]
    fn refresh_composed_deltas_match_rebuild_bitwise() {
        let catalog = Catalog::small_scale(7);
        let tir0 = TirMatrix::initial(&catalog);
        let cfg0 = ProblemConfig::default();
        let d0 = demand_of(&catalog, &[(0, 0, 5), (0, 2, 7)]);
        let mut p = SlotProblem::build(&catalog, 0, &d0, &tir0, None, &cfg0);
        let (s0, _) = p.solve(&SolverConfig::scheduling()).unwrap();

        // Slot 1 composes four delta kinds: demand drift, a quarantined
        // edge, TIR estimate drift on edge 0 and the x^{t-1} flips from
        // the executed schedule.
        let d1 = demand_of(&catalog, &[(0, 0, 11), (0, 2, 7), (0, 4, 3)]);
        let tir1 = TirMatrix::from_fn(catalog.num_edges(), catalog.num_models(), |e, _| {
            if e == 0 {
                TirParams::consistent(0.3, 4)
            } else {
                TirParams::paper_initial()
            }
        });
        let mut mask = vec![false; catalog.num_edges()];
        mask[3] = true;
        let cfg1 = ProblemConfig {
            masked_edges: Some(mask),
            ..Default::default()
        };
        let out = p.refresh_with_reuse(&catalog, 1, &d1, &tir1, Some(&s0), &cfg1, Some(&s0), true);
        let summary = match out {
            DeltaOutcome::Applied(s) => s,
            other => panic!("expected Applied, got {other:?}"),
        };
        assert!(
            summary.demand >= 1 && summary.mask == 1 && summary.tir >= 1,
            "expected composed deltas, got {summary:?}"
        );
        let fresh =
            SlotProblem::build_with_reuse(&catalog, 1, &d1, &tir1, Some(&s0), &cfg1, Some(&s0));
        assert_same_problem(&p, &fresh);

        // Slot 2 lifts the mask again and refreshes the already-refreshed
        // model (chained edits, lean build this time).
        let d2 = demand_of(&catalog, &[(0, 0, 2)]);
        let (s1, _) = fresh.solve(&SolverConfig::scheduling()).unwrap();
        let out2 =
            p.refresh_with_reuse(&catalog, 2, &d2, &tir1, Some(&s1), &cfg0, Some(&s1), false);
        assert!(matches!(out2, DeltaOutcome::Applied(_)));
        let fresh2 =
            SlotProblem::build_reuse_lean(&catalog, 2, &d2, &tir1, Some(&s1), &cfg0, Some(&s1));
        assert_same_problem(&p, &fresh2);
    }

    #[test]
    fn refresh_budget_change_matches_rebuild_bitwise() {
        let catalog = Catalog::small_scale(42);
        let tir = TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let d = demand_of(&catalog, &[(0, 0, 6)]);
        let mut p = SlotProblem::build(&catalog, 0, &d, &tir, None, &cfg);

        let mut tight = catalog.clone();
        for e in &mut tight.edges {
            e.memory_mb *= 0.5;
            e.network_budget_mb *= 0.75;
        }
        let out = p.refresh_with_reuse(&tight, 1, &d, &tir, None, &cfg, None, true);
        match out {
            DeltaOutcome::Applied(s) => assert_eq!(s.budget, 1, "expected a budget delta"),
            other => panic!("expected Applied, got {other:?}"),
        }
        let fresh = SlotProblem::build(&tight, 1, &d, &tir, None, &cfg);
        assert_same_problem(&p, &fresh);
    }

    #[test]
    fn refresh_rebuilds_on_catalog_or_mode_change() {
        let catalog = Catalog::small_scale(42);
        let tir = TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let d = demand_of(&catalog, &[(0, 0, 6)]);
        let mut p = SlotProblem::build(&catalog, 0, &d, &tir, None, &cfg);

        // A coefficient-statics change (the catalog column fingerprint)
        // cannot be expressed as a delta.
        let mut altered = catalog.clone();
        altered.models[0].loss += 0.01;
        let out = p.refresh_with_reuse(&altered, 1, &d, &tir, None, &cfg, None, true);
        assert_eq!(out, DeltaOutcome::Rebuilt(RebuildReason::CatalogChanged));
        let fresh = SlotProblem::build(&altered, 1, &d, &tir, None, &cfg);
        assert_same_problem(&p, &fresh);

        // An execution-mode flip is structural, not a delta.
        let serial_cfg = ProblemConfig {
            mode: ExecutionMode::Serial { max_serial: 64 },
            ..Default::default()
        };
        let out = p.refresh_with_reuse(&altered, 2, &d, &tir, None, &serial_cfg, None, true);
        assert_eq!(out, DeltaOutcome::Rebuilt(RebuildReason::StructureChanged));
        let fresh = SlotProblem::build(&altered, 2, &d, &tir, None, &serial_cfg);
        assert_same_problem(&p, &fresh);
    }

    #[test]
    fn restore_from_inputs_then_refresh_matches_uninterrupted() {
        let catalog = Catalog::small_scale(42);
        let tir = TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let d0 = demand_of(&catalog, &[(0, 0, 6), (0, 3, 4)]);
        let mut live = SlotProblem::build(&catalog, 0, &d0, &tir, None, &cfg);
        let (s0, _) = live.solve(&SolverConfig::default()).unwrap();

        // Checkpoint: only the fingerprint survives the kill.
        let snapshot = live.inputs().clone();
        let mut restored = SlotProblem::from_inputs(&catalog, snapshot);

        let d1 = demand_of(&catalog, &[(0, 0, 3), (0, 5, 9)]);
        let a = live.refresh_with_reuse(&catalog, 1, &d1, &tir, Some(&s0), &cfg, Some(&s0), true);
        let b =
            restored.refresh_with_reuse(&catalog, 1, &d1, &tir, Some(&s0), &cfg, Some(&s0), true);
        assert_eq!(a, b, "restored refresh must take the same path");
        assert_same_problem(&live, &restored);
    }

    /// Fig. 7 scale, where presolve keeps every row of the guide LP, so
    /// each full solve's root restores the guide's basis (DESIGN.md §3).
    /// Over eight slots of the large trace, with the reuse candidate on
    /// and off, the persistent model's refresh and a scratch rebuild
    /// decide bitwise alike with the root restored on both. A lean
    /// (skip-path) refresh clears the basis: solving the lean problem
    /// starts the root cold, and the next full refresh restores again.
    #[test]
    fn large_scale_root_restores_the_guide_basis_on_refresh_and_rebuild() {
        const SLOTS: usize = 8;
        let catalog = Catalog::large_scale(42);
        let trace = birp_workload::TraceConfig {
            num_slots: SLOTS,
            ..birp_workload::TraceConfig::large_scale(42)
        }
        .generate();
        let tir = TirMatrix::initial(&catalog);
        let cfg = ProblemConfig::default();
        // `birp run --scale large`: the scheduling preset, 16 nodes.
        let solver = SolverConfig {
            node_limit: 16,
            ..SolverConfig::scheduling()
        };
        for reuse in [false, true] {
            let mut live: Option<SlotProblem> = None;
            let mut prev: Option<Schedule> = None;
            for t in 0..SLOTS {
                let demand = DemandMatrix::from_trace(&trace, t);
                let cand = if reuse { prev.as_ref() } else { None };
                let fresh = SlotProblem::build_with_reuse(
                    &catalog,
                    t,
                    &demand,
                    &tir,
                    prev.as_ref(),
                    &cfg,
                    cand,
                );
                let p = match live.as_mut() {
                    Some(p) => {
                        let out = p.refresh_with_reuse(
                            &catalog,
                            t,
                            &demand,
                            &tir,
                            prev.as_ref(),
                            &cfg,
                            cand,
                            true,
                        );
                        assert!(matches!(out, DeltaOutcome::Applied(_)), "slot {t}: {out:?}");
                        p
                    }
                    None => live.insert(SlotProblem::build_with_reuse(
                        &catalog,
                        t,
                        &demand,
                        &tir,
                        prev.as_ref(),
                        &cfg,
                        cand,
                    )),
                };
                assert_same_problem(p, &fresh);
                let (sa, a) = p.solve(&solver).unwrap();
                let (sb, b) = fresh.solve(&solver).unwrap();
                assert_eq!(sa, sb, "reuse {reuse}, slot {t}: schedules diverged");
                // Debug prints every float in its round-trip form: bitwise.
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "reuse {reuse}, slot {t}"
                );
                assert!(a.root_restored, "reuse {reuse}, slot {t}: root solved cold");
                prev = Some(sa);
            }

            // Skip path: a lean refresh leaves no basis behind.
            let p = live.as_mut().unwrap();
            let demand = DemandMatrix::from_trace(&trace, SLOTS - 1);
            let cand = if reuse { prev.as_ref() } else { None };
            p.refresh_with_reuse(
                &catalog,
                SLOTS,
                &demand,
                &tir,
                prev.as_ref(),
                &cfg,
                cand,
                false,
            );
            assert!(p.guide.is_none(), "a lean refresh kept the guide");
            let (_, lean) = p.solve(&solver).unwrap();
            assert!(
                !lean.root_restored,
                "reuse {reuse}: stale basis reached the solve"
            );
            p.refresh_with_reuse(
                &catalog,
                SLOTS,
                &demand,
                &tir,
                prev.as_ref(),
                &cfg,
                cand,
                true,
            );
            let (_, full) = p.solve(&solver).unwrap();
            assert!(
                full.root_restored,
                "reuse {reuse}: the full refresh solved cold"
            );
        }
    }

    #[test]
    fn stale_rhs_fault_makes_refresh_diverge_from_rebuild() {
        let catalog = Catalog::small_scale(42);
        let tir = TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let d0 = demand_of(&catalog, &[(0, 0, 6)]);
        let mut p = SlotProblem::build(&catalog, 0, &d0, &tir, None, &cfg);
        let d1 = demand_of(&catalog, &[(0, 0, 9)]);
        super::delta_fault_stale_rhs(true);
        let out = p.refresh_with_reuse(&catalog, 1, &d1, &tir, None, &cfg, None, true);
        super::delta_fault_stale_rhs(false);
        assert!(matches!(out, DeltaOutcome::Applied(_)));
        let fresh = SlotProblem::build(&catalog, 1, &d1, &tir, None, &cfg);
        assert_ne!(
            p.debug_milp(),
            fresh.debug_milp(),
            "armed fault must leave a stale RHS the differential suite can catch"
        );
    }

    #[test]
    fn problem_dimensions_scale_with_catalog() {
        let catalog = Catalog::small_scale(42);
        let demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        let tir = TirMatrix::initial(&catalog);
        let p = SlotProblem::build(&catalog, 0, &demand, &tir, None, &ProblemConfig::default());
        // x: 18, b: 18, local/out/in: 3 x 6, o: 6.
        assert_eq!(p.num_vars(), 18 + 18 + 18 + 6);
        assert!(p.num_constraints() > 0);
    }
}
