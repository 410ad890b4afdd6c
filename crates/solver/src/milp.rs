//! Branch-and-bound mixed-integer linear programming.
//!
//! Best-first search over LP relaxations solved by the bounded-variable
//! simplex. Branching variable: most fractional. Incumbents come from three
//! sources: integral LP relaxations, the LP-guided diving heuristic
//! ([`crate::heuristic::dive`]) run at the root, and leaves of the search.
//!
//! The search proceeds in *waves* of `WAVE_WIDTH` nodes: they are popped
//! from the frontier, their LPs are solved with rayon, and the results are
//! folded back in pop order, not completion order. The width is a constant
//! and the fold order is fixed, so a seeded solve gives the same result on
//! any host, whatever its core count.
//!
//! Node LPs are solved on per-thread persistent [`SimplexEngine`]s
//! ([`with_engine`]): the shared `LpProblem` rows are never cloned per
//! node, and each solved node leaves an [`EngineSnapshot`] that its two
//! children restore and re-optimise with the dual simplex — a few pivots
//! instead of a full two-phase solve, since branching only shifts one
//! bound and the parent basis stays dual-feasible. Snapshot memory on the
//! frontier is capped by a fixed memory budget with a deterministic gate,
//! so behaviour is reproducible.
//!
//! [`SimplexEngine`]: crate::simplex::SimplexEngine

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use birp_telemetry as telemetry;
use rayon::prelude::*;

use crate::heuristic::dive;
use crate::lp::{LpProblem, LpStatus};
use crate::simplex::{with_engine, EngineSnapshot, SimplexOptions};
use crate::INT_TOL;

/// A MILP: an [`LpProblem`] plus the set of columns required to be integral.
///
/// `PartialEq` is bitwise over the LP and the integer set — the
/// incremental-edit differential suites use it to prove an edited model
/// lowers to exactly the problem a fresh build produces.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpProblem {
    pub lp: LpProblem,
    /// Column indices with integrality requirements, strictly increasing.
    pub integers: Vec<usize>,
}

/// Approximate cap, in bytes, on frontier memory spent on engine snapshots.
/// When the estimated footprint of the open nodes would exceed it, new
/// nodes are pushed without snapshots and re-solve cold: a deterministic
/// degradation, never an OOM.
const WARM_MEMORY_BUDGET: usize = 256 << 20;

/// Frontier nodes popped per wave. Fixed, so threads execute a wave but
/// never decide what is in it.
const WAVE_WIDTH: usize = 2;

/// The one options struct of the solver: branch-and-bound search
/// parameters, its deterministic work budget and the simplex tunables.
///
/// When the node limit or the pivot budget trips, the search stops and
/// returns its best incumbent with [`MilpResult::degraded`] set: graceful
/// degradation instead of an unbounded solve. Both limits are counted on
/// the main search thread in fold order, so a seeded solve is reproducible.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum number of LP relaxations solved before giving up on proving
    /// optimality. The best incumbent found so far is still returned.
    pub node_limit: usize,
    /// Terminate when `(incumbent - bound) / max(1, |incumbent|)` drops
    /// below this.
    pub rel_gap: f64,
    /// Run the diving heuristic at the root for a fast first incumbent.
    pub root_dive: bool,
    /// Treat an *accepted* warm start as a strong incumbent: skip the root
    /// and in-tree diving heuristics, whose only role is incumbent supply.
    /// Under tight node budgets the dives dominate the LP-solve count, so
    /// a caller that already holds a high-quality incumbent (e.g. the
    /// repaired previous-slot schedule of the temporal-reuse layer) buys a
    /// large constant-factor speedup. Ignored when the warm start is
    /// rejected or absent: the dives then run as usual.
    pub trust_warm: bool,
    /// Warm-start node LPs from an engine snapshot — each child from its
    /// parent's, the root from the [`WarmStart::basis`] it was handed
    /// (dual-simplex bound-shift re-optimisation instead of a full
    /// two-phase solve). Off is only useful for A/B validation.
    pub warm_nodes: bool,
    /// Run the presolve reductions before the search (recommended; on the
    /// BIRP per-slot problems it cuts node LP time several-fold). Off is
    /// only useful for A/B validation.
    pub presolve: bool,
    /// Cap on cumulative simplex pivots across every node LP. Checked at
    /// node boundaries: the in-flight LP always completes, so the root
    /// relaxation runs even under `Some(1)`.
    pub max_pivots: Option<u64>,
    /// Tunables forwarded to the simplex engine (pivot cap, pricing).
    pub simplex: SimplexOptions,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_limit: 20_000,
            rel_gap: 1e-6,
            root_dive: true,
            trust_warm: false,
            warm_nodes: true,
            presolve: true,
            max_pivots: None,
            simplex: SimplexOptions::default(),
        }
    }
}

impl SolverConfig {
    /// Preset used by the BIRP experiment runner: bounded node budget and
    /// modest gap. Gurobi-with-a-time-limit moral equivalent.
    pub fn scheduling() -> Self {
        SolverConfig {
            node_limit: 96,
            rel_gap: 5e-3,
            ..Self::default()
        }
    }

    /// Which budget `nodes` solved LPs or `pivots` spent pivots exhaust;
    /// the node limit wins when both do.
    fn exhausted(&self, nodes: usize, pivots: u64) -> BudgetHit {
        if nodes >= self.node_limit {
            BudgetHit::Nodes
        } else if self.max_pivots.is_some_and(|cap| pivots >= cap) {
            BudgetHit::Pivots
        } else {
            BudgetHit::None
        }
    }
}

/// Which budget of [`SolverConfig`] truncated a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetHit {
    /// No budget truncated the search: it closed its gap, emptied its
    /// frontier or stopped on an infeasible or unbounded relaxation.
    #[default]
    None,
    /// [`SolverConfig::node_limit`] ran out.
    Nodes,
    /// [`SolverConfig::max_pivots`] ran out.
    Pivots,
}

/// Outcome classification of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Optimal within the configured gap.
    Optimal,
    /// Feasible incumbent returned, but the node budget ran out before the
    /// gap closed.
    Feasible,
    Infeasible,
    Unbounded,
}

/// What the root diving heuristic did in one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootDive {
    /// The dive did not run: switched off, a trusted warm start, an
    /// integral root relaxation or a budget spent on the root LP.
    NotRun,
    /// The dive ran and returned no point better than the incumbent it
    /// was handed (or none at all).
    Missed,
    /// The dive ran and its point became the incumbent.
    Hit,
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct MilpResult {
    pub status: MilpStatus,
    /// Objective of the incumbent (meaningful for Optimal/Feasible).
    pub objective: f64,
    /// Incumbent point with integer columns snapped exactly.
    pub x: Vec<f64>,
    /// Best proven lower bound on the optimum.
    pub bound: f64,
    /// `(objective - bound) / max(1, |objective|)`.
    pub gap: f64,
    /// LP relaxations solved.
    pub nodes: usize,
    /// The search stopped on its node or pivot budget before proving
    /// optimality — the incumbent (if any) is best-effort.
    pub degraded: bool,
    /// The budget that truncated a degraded search; [`BudgetHit::None`]
    /// exactly when `degraded` is false.
    pub budget: BudgetHit,
    /// Incumbent trajectory: one `(nodes_solved, objective, gap)` point per
    /// incumbent installed, in installation order. The gap series is the
    /// solve's convergence signature, surfaced per slot by the decision
    /// provenance record.
    pub incumbents: Vec<(u64, f64, f64)>,
    /// Outcome of the root dive.
    pub root_dive: RootDive,
    /// The root LP was restored from [`WarmStart::basis`] instead of
    /// solved cold.
    pub root_restored: bool,
}

/// What the caller already knows when branch and bound starts. Both parts
/// are optional and neither is trusted: a point that fails the bounds, the
/// rows or integrality is rejected, and a basis that does not fit the
/// presolved LP is ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmStart<'a> {
    /// A known-feasible point, installed as the initial incumbent when it
    /// validates. It guarantees the search returns *something* under tight
    /// node budgets.
    pub point: Option<&'a [f64]>,
    /// The engine snapshot of an optimal solve of this problem's LP
    /// relaxation ([`Model::solve_relaxation`](crate::Model::solve_relaxation)).
    /// Presolve keeps every column and only tightens bounds and drops rows,
    /// so while it drops no row the root LP is that relaxation with shifted
    /// bounds: the root restores the basis and re-optimises with the dual
    /// simplex, as a child node does from its parent. When presolve drops
    /// rows the row count no longer matches and the root solves cold.
    pub basis: Option<&'a EngineSnapshot>,
}

impl<'a> WarmStart<'a> {
    /// A warm start holding only a known-feasible point.
    pub fn point(point: &'a [f64]) -> Self {
        WarmStart {
            point: Some(point),
            basis: None,
        }
    }
}

/// Frontier node: a box (bound vectors) plus an optimistic objective bound
/// inherited from the parent LP, and (optionally) the parent's solved
/// engine snapshot so the node LP can warm-start. Siblings share the
/// snapshot through the `Arc`.
#[derive(Debug, Clone)]
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    bound: f64,
    snap: Option<Arc<EngineSnapshot>>,
}

/// Min-heap ordering on the optimistic bound (best-first).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest bound on top.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
    }
}

/// Index of the integer column whose value is farthest from integral, if any.
/// (The search itself now uses [`branch_var`]; this simpler selector remains
/// for unit tests and external diagnostics.)
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn most_fractional(x: &[f64], integers: &[usize]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &j in integers {
        let v = x[j];
        let frac = (v - v.round()).abs();
        if frac > INT_TOL {
            let dist = (v - v.floor() - 0.5).abs(); // 0 = perfectly half-integral
            match best {
                Some((_, d)) if d <= dist => {}
                _ => best = Some((j, dist)),
            }
        }
    }
    best.map(|(j, _)| (j, x[j]))
}

/// Branching-variable choice: prefer fractional *binary-like* columns
/// (domain width <= 1) — on the BIRP per-slot problems the deployment bits
/// drive everything, and once they are integral the rest of the relaxation
/// is transportation-like and nearly integral. Falls back to the most
/// fractional general integer. Also returns the total fractional count.
fn branch_var(
    x: &[f64],
    integers: &[usize],
    lower: &[f64],
    upper: &[f64],
) -> (Option<(usize, f64)>, usize) {
    let mut best_binary: Option<(usize, f64)> = None;
    let mut best_general: Option<(usize, f64)> = None;
    let mut frac_count = 0usize;
    for &j in integers {
        let v = x[j];
        let frac = (v - v.round()).abs();
        if frac <= INT_TOL {
            continue;
        }
        frac_count += 1;
        let dist = (v - v.floor() - 0.5).abs();
        let slot = if upper[j] - lower[j] <= 1.0 + INT_TOL {
            &mut best_binary
        } else {
            &mut best_general
        };
        match slot {
            Some((_, d)) if *d <= dist => {}
            _ => *slot = Some((j, dist)),
        }
    }
    let pick = best_binary.or(best_general).map(|(j, _)| (j, x[j]));
    (pick, frac_count)
}

/// Snap integer columns of `x` to the nearest integer in place.
pub(crate) fn snap_integers(x: &mut [f64], integers: &[usize]) {
    for &j in integers {
        x[j] = x[j].round();
    }
}

fn incumbent_gap(objective: f64, bound: f64) -> f64 {
    (objective - bound).max(0.0) / objective.abs().max(1.0)
}

/// Record an incumbent-trajectory point (objective / bound / gap after
/// `nodes` LPs) into `traj` and emit it as a trace event. The gap series is
/// the solver's convergence signature.
fn note_incumbent(
    traj: &mut Vec<(u64, f64, f64)>,
    source: &'static str,
    objective: f64,
    bound: f64,
    nodes: usize,
) {
    traj.push((nodes as u64, objective, incumbent_gap(objective, bound)));
    if telemetry::enabled() {
        telemetry::event(
            telemetry::Level::Trace,
            "solver.incumbent",
            &[
                ("source", source.into()),
                ("objective", objective.into()),
                ("bound", bound.into()),
                ("gap", incumbent_gap(objective, bound).into()),
                ("nodes", (nodes as u64).into()),
            ],
        );
    }
}

/// Solve the MILP by branch and bound, starting from what `warm` knows
/// (see [`WarmStart`]).
pub fn branch_and_bound(
    original: &MilpProblem,
    cfg: &SolverConfig,
    warm: WarmStart<'_>,
) -> MilpResult {
    let _solve_span = telemetry::span("solver.solve");
    telemetry::counter("solver.solves", 1);
    let mut pivots_total = 0u64;
    // Presolve never removes columns, so indices and solutions line up with
    // the caller's problem; it only tightens bounds and drops rows, which
    // shrinks every node LP.
    let mut reduced = original.clone();
    if cfg.presolve {
        let _presolve_span = telemetry::span("solver.presolve_ms");
        let (status, red) = crate::presolve::presolve(&mut reduced.lp, &reduced.integers);
        if telemetry::enabled() {
            telemetry::counter("solver.presolve_rows_removed", red.rows_removed as u64);
            telemetry::counter("solver.presolve_vars_fixed", red.vars_fixed as u64);
            telemetry::event(
                telemetry::Level::Debug,
                "solver.presolve",
                &[
                    ("rows_removed", (red.rows_removed as u64).into()),
                    ("bounds_tightened", (red.bounds_tightened as u64).into()),
                    ("vars_fixed", (red.vars_fixed as u64).into()),
                    ("rounds", (red.rounds as u64).into()),
                    ("nnz_removed", (red.nnz_removed as u64).into()),
                    ("nnz_after", (reduced.lp.nnz() as u64).into()),
                ],
            );
        }
        if status == crate::presolve::PresolveStatus::Infeasible {
            return MilpResult {
                status: MilpStatus::Infeasible,
                objective: f64::INFINITY,
                x: Vec::new(),
                bound: f64::INFINITY,
                gap: 0.0,
                nodes: 0,
                degraded: false,
                budget: BudgetHit::None,
                incumbents: Vec::new(),
                root_dive: RootDive::NotRun,
                root_restored: false,
            };
        }
    }
    let root = Node {
        lower: reduced.lp.lower.clone(),
        upper: reduced.lp.upper.clone(),
        bound: f64::NEG_INFINITY,
        snap: None,
    };
    let root_basis = warm.basis.filter(|_| cfg.warm_nodes);
    let (root_sol, root_snap, root_restored) = {
        let _root_span = telemetry::span("solver.root_lp");
        solve_node_lp(&reduced.lp, &root, root_basis, &cfg.simplex, cfg.warm_nodes)
    };
    let problem = &reduced;
    let n = problem.lp.num_cols();
    // Deterministic snapshot budget: estimated per-snapshot footprint,
    // computed once from the (presolved) problem shape.
    let est_snap_bytes = EngineSnapshot::estimate_bytes(&problem.lp, &cfg.simplex).max(1);

    let mut nodes_solved = 0usize;
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut traj: Vec<(u64, f64, f64)> = Vec::new();
    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    let mut warm_installed = false;

    // Install a validated warm start as the initial incumbent.
    if let Some(ws) = warm.point {
        let mut installed = false;
        if ws.len() == n {
            let integral = problem
                .integers
                .iter()
                .all(|&j| (ws[j] - ws[j].round()).abs() < INT_TOL);
            let mut snapped = ws.to_vec();
            snap_integers(&mut snapped, &problem.integers);
            let violation = problem.lp.max_violation(&snapped);
            if integral && violation < 1e-6 {
                let obj = problem.lp.objective_at(&snapped);
                note_incumbent(&mut traj, "warm_start", obj, f64::NEG_INFINITY, 0);
                incumbent = Some((obj, snapped));
                installed = true;
            } else if telemetry::enabled() {
                // A rejected warm start leaves the search without a safety
                // net under tight node budgets — worth shouting about.
                telemetry::event(
                    telemetry::Level::Warn,
                    "solver.warm_start_rejected",
                    &[
                        ("integral", integral.into()),
                        ("violation", violation.into()),
                    ],
                );
            }
        }
        telemetry::counter(
            if installed {
                "solver.warm_start_accepted"
            } else {
                "solver.warm_start_rejected"
            },
            1,
        );
        warm_installed = installed;
    }
    // Dives exist to manufacture an incumbent; a trusted warm start already
    // is one, so the dive budget collapses to zero.
    let trust_dives_off = cfg.trust_warm && warm_installed;
    if trust_dives_off {
        telemetry::counter("solver.trusted_warm", 1);
    }

    // --- root -----------------------------------------------------------
    let mut root_dive = RootDive::NotRun;
    nodes_solved += 1;
    pivots_total += root_sol.iterations as u64;
    telemetry::counter("solver.pivots", root_sol.iterations as u64);
    match root_sol.status {
        LpStatus::Infeasible => {
            return MilpResult {
                status: MilpStatus::Infeasible,
                objective: f64::INFINITY,
                x: Vec::new(),
                bound: f64::INFINITY,
                gap: 0.0,
                nodes: nodes_solved,
                degraded: false,
                budget: BudgetHit::None,
                incumbents: traj,
                root_dive,
                root_restored,
            };
        }
        LpStatus::Unbounded => {
            return MilpResult {
                status: MilpStatus::Unbounded,
                objective: f64::NEG_INFINITY,
                x: Vec::new(),
                bound: f64::NEG_INFINITY,
                gap: 0.0,
                nodes: nodes_solved,
                degraded: false,
                budget: BudgetHit::None,
                incumbents: traj,
                root_dive,
                root_restored,
            };
        }
        LpStatus::Optimal => {}
    }
    let root_bound = root_sol.objective;

    let (root_branch, _) = branch_var(&root_sol.x, &problem.integers, &root.lower, &root.upper);
    let mut budget_hit;
    if let Some((j, v)) = root_branch {
        // A budget spent on the root alone skips the dive (it is dozens of
        // LP solves) and falls straight through to the report with
        // whatever incumbent the warm start installed.
        budget_hit = cfg.exhausted(nodes_solved, pivots_total);
        if budget_hit == BudgetHit::None && cfg.root_dive && !trust_dives_off {
            let _dive_span = telemetry::span("solver.root_dive");
            telemetry::counter("solver.dive_attempts", 1);
            let cutoff = incumbent.as_ref().map_or(f64::INFINITY, |(o, _)| *o);
            root_dive = RootDive::Missed;
            if let Some((obj, x)) = dive(
                &problem.lp,
                &problem.integers,
                &root.lower,
                &root.upper,
                root_snap.as_deref(),
                &cfg.simplex,
                cutoff,
            )
            .filter(|(obj, _)| *obj < cutoff)
            {
                telemetry::counter("solver.dive_hits", 1);
                note_incumbent(&mut traj, "root_dive", obj, root_bound, nodes_solved);
                incumbent = Some((obj, x));
                root_dive = RootDive::Hit;
            }
        }
        push_children(&mut heap, &root, j, v, root_sol.objective, root_snap);
    } else {
        let mut x = root_sol.x;
        snap_integers(&mut x, &problem.integers);
        let obj = problem.lp.objective_at(&x);
        telemetry::counter("solver.nodes", nodes_solved as u64);
        note_incumbent(&mut traj, "integral_root", obj, root_bound, nodes_solved);
        return MilpResult {
            status: MilpStatus::Optimal,
            objective: obj,
            x,
            bound: root_bound,
            gap: 0.0,
            nodes: nodes_solved,
            degraded: false,
            budget: BudgetHit::None,
            incumbents: traj,
            root_dive,
            root_restored,
        };
    }

    // --- search -----------------------------------------------------------
    // In-tree dives are expensive (a dive is dozens of LP solves); a few
    // well-placed ones capture nearly all their value.
    let mut tree_dives_left = if trust_dives_off { 0 } else { 3 };
    'outer: while budget_hit == BudgetHit::None && !heap.is_empty() {
        budget_hit = cfg.exhausted(nodes_solved, pivots_total);
        if budget_hit != BudgetHit::None {
            break;
        }
        // Prune against the incumbent, then pop a wave.
        let cutoff = incumbent.as_ref().map_or(f64::INFINITY, |(o, _)| *o);
        let mut wave: Vec<Node> = Vec::with_capacity(WAVE_WIDTH);
        while wave.len() < WAVE_WIDTH {
            match heap.pop() {
                Some(node) => {
                    if node.bound < cutoff - 1e-12 {
                        wave.push(node);
                    }
                    // else: dominated, dropped
                }
                None => break,
            }
        }
        if wave.is_empty() {
            break;
        }
        if let Some((obj, _)) = &incumbent {
            let frontier_bound = wave[0]
                .bound
                .min(heap.peek().map_or(f64::INFINITY, |n| n.bound));
            if incumbent_gap(*obj, frontier_bound.max(root_bound)) <= cfg.rel_gap {
                heap.push(wave.swap_remove(0)); // keep bound info for reporting
                for node in wave {
                    heap.push(node);
                }
                break 'outer;
            }
        }

        // Deterministic memory gate: would snapshotting this wave (each
        // node's children share one snapshot) blow the budget, given what
        // the frontier may already be holding? Computed from heap/wave
        // sizes on the main thread, so seeded runs always agree.
        let want_snaps = cfg.warm_nodes
            && (heap.len() + 2 * wave.len()).saturating_mul(est_snap_bytes) <= WARM_MEMORY_BUDGET;
        if cfg.warm_nodes && !want_snaps {
            telemetry::counter("solver.warm_budget_skips", wave.len() as u64);
        }
        // Per-wave and per-node spans only at trace level: the gate keeps
        // the default-level per-node cost at zero. Node spans derive their
        // child index from the wave *item* index through the captured
        // context, so the tree is identical whichever worker ran the node.
        let wave_span = telemetry::trace_spans().then(|| telemetry::span("solver.wave"));
        let wave_ctx = wave_span.as_ref().map(|s| s.context());
        let indexed: Vec<(usize, &Node)> = wave.iter().enumerate().collect();
        let solved: Vec<_> = indexed
            .par_iter()
            .map(|&(i, node): &(usize, &Node)| {
                let _node_span = wave_ctx.map(|c| c.span_at("solver.node_lp", i as u32));
                solve_node_lp(
                    &problem.lp,
                    node,
                    node.snap.as_deref(),
                    &cfg.simplex,
                    want_snaps,
                )
            })
            .collect();
        drop(indexed);
        nodes_solved += wave.len();
        pivots_total += solved
            .iter()
            .map(|(s, ..)| s.iterations as u64)
            .sum::<u64>();
        if telemetry::enabled() {
            telemetry::observe("solver.wave_size", wave.len() as f64);
            telemetry::counter(
                "solver.pivots",
                solved.iter().map(|(s, ..)| s.iterations as u64).sum(),
            );
        }

        for (node, (sol, node_snap, _)) in wave.into_iter().zip(solved) {
            match sol.status {
                LpStatus::Infeasible => continue,
                LpStatus::Unbounded => {
                    // Only possible with unbounded continuous directions that
                    // the root somehow missed; treat conservatively.
                    return MilpResult {
                        status: MilpStatus::Unbounded,
                        objective: f64::NEG_INFINITY,
                        x: Vec::new(),
                        bound: f64::NEG_INFINITY,
                        gap: 0.0,
                        nodes: nodes_solved,
                        degraded: false,
                        budget: BudgetHit::None,
                        incumbents: traj,
                        root_dive,
                        root_restored,
                    };
                }
                LpStatus::Optimal => {}
            }
            let cutoff = incumbent.as_ref().map_or(f64::INFINITY, |(o, _)| *o);
            if sol.objective >= cutoff - 1e-12 {
                continue; // bound-dominated
            }
            let (pick, frac_count) =
                branch_var(&sol.x, &problem.integers, &node.lower, &node.upper);
            match pick {
                None => {
                    let mut x = sol.x;
                    snap_integers(&mut x, &problem.integers);
                    let obj = problem.lp.objective_at(&x);
                    if obj < cutoff {
                        note_incumbent(&mut traj, "leaf", obj, root_bound, nodes_solved);
                        incumbent = Some((obj, x));
                    }
                }
                Some((j, v)) => {
                    // Nearly-integral nodes are cheap to finish off with a
                    // dive — the main source of strong incumbents under
                    // tight node budgets.
                    if frac_count <= 8 && tree_dives_left > 0 {
                        tree_dives_left -= 1;
                        telemetry::counter("solver.dive_attempts", 1);
                        if let Some((obj, x)) = dive(
                            &problem.lp,
                            &problem.integers,
                            &node.lower,
                            &node.upper,
                            node_snap.as_deref(),
                            &cfg.simplex,
                            cutoff,
                        ) {
                            if obj < cutoff {
                                telemetry::counter("solver.dive_hits", 1);
                                note_incumbent(
                                    &mut traj,
                                    "tree_dive",
                                    obj,
                                    root_bound,
                                    nodes_solved,
                                );
                                incumbent = Some((obj, x));
                            }
                        }
                    }
                    push_children(&mut heap, &node, j, v, sol.objective, node_snap);
                }
            }
        }
    }

    // --- report -----------------------------------------------------------
    let frontier_bound = heap
        .iter()
        .map(|n| n.bound)
        .fold(f64::INFINITY, f64::min)
        .max(root_bound);
    let result = match incumbent {
        Some((obj, x)) => {
            let bound = if heap.is_empty() {
                obj
            } else {
                frontier_bound.min(obj)
            };
            let gap = incumbent_gap(obj, bound);
            let status = if gap <= cfg.rel_gap {
                MilpStatus::Optimal
            } else {
                MilpStatus::Feasible
            };
            let degraded = budget_hit != BudgetHit::None && status != MilpStatus::Optimal;
            MilpResult {
                status,
                objective: obj,
                x,
                bound,
                gap,
                nodes: nodes_solved,
                degraded,
                budget: if degraded {
                    budget_hit
                } else {
                    BudgetHit::None
                },
                incumbents: traj,
                root_dive,
                root_restored,
            }
        }
        None => {
            if heap.is_empty() {
                MilpResult {
                    status: MilpStatus::Infeasible,
                    objective: f64::INFINITY,
                    x: vec![0.0; n],
                    bound: f64::INFINITY,
                    gap: 0.0,
                    nodes: nodes_solved,
                    degraded: false,
                    budget: BudgetHit::None,
                    incumbents: Vec::new(),
                    root_dive,
                    root_restored,
                }
            } else {
                // Budget ran out with open nodes and no incumbent.
                MilpResult {
                    status: MilpStatus::Feasible,
                    objective: f64::INFINITY,
                    x: vec![0.0; n],
                    bound: frontier_bound,
                    gap: f64::INFINITY,
                    nodes: nodes_solved,
                    degraded: true,
                    budget: budget_hit,
                    incumbents: Vec::new(),
                    root_dive,
                    root_restored,
                }
            }
        }
    };
    if result.degraded {
        telemetry::counter("solver.degraded", 1);
    }
    if telemetry::enabled() {
        telemetry::counter("solver.nodes", result.nodes as u64);
        telemetry::observe("solver.nodes_per_solve", result.nodes as f64);
        if result.gap.is_finite() {
            telemetry::observe("solver.final_gap", result.gap);
        } else if result.bound.is_finite() {
            // Budget exhausted with no incumbent: the formal gap is infinite
            // and the log histogram drops non-finite samples, which used to
            // erase these solves from the gap record entirely. Clamp to 1.0
            // (100%) so they stay visible, and keep the dual bound the
            // frontier did prove.
            telemetry::observe("solver.final_gap", 1.0);
            telemetry::observe("solver.final_bound", result.bound);
        }
        telemetry::event(
            telemetry::Level::Debug,
            "solver.done",
            &[
                ("status", format!("{:?}", result.status).into()),
                ("objective", result.objective.into()),
                ("bound", result.bound.into()),
                ("gap", result.gap.into()),
                ("nodes", (result.nodes as u64).into()),
                ("degraded", result.degraded.into()),
                ("pivots", pivots_total.into()),
            ],
        );
    }
    result
}

/// Solve one node's LP relaxation on this worker's thread-local engine.
///
/// The `LpProblem` rows are shared by reference — nodes only differ in
/// their bound vectors, so nothing is cloned per node. Warm path: restore
/// `basis` (the parent's snapshot, or the caller's relaxation basis at the
/// root) and dual-simplex the shifted bounds back to feasibility; cold
/// path, also taken when the basis does not fit `lp`: full two-phase
/// solve. When `want_snapshot` is set and the node solved to optimality,
/// the solved engine state is captured for this node's children. The
/// flag says whether the warm path ran.
fn solve_node_lp(
    lp: &LpProblem,
    node: &Node,
    basis: Option<&EngineSnapshot>,
    opts: &SimplexOptions,
    want_snapshot: bool,
) -> (crate::lp::LpSolution, Option<Arc<EngineSnapshot>>, bool) {
    with_engine(|eng| {
        let mut warm = false;
        let sol = match basis {
            Some(snap) => match eng.solve_warm(lp, snap, &node.lower, &node.upper, opts) {
                Some(sol) => {
                    warm = true;
                    sol
                }
                None => eng.solve_cold(lp, &node.lower, &node.upper, opts),
            },
            None => eng.solve_cold(lp, &node.lower, &node.upper, opts),
        };
        if telemetry::enabled() {
            if warm {
                telemetry::counter("solver.lp_warm", 1);
                telemetry::counter("solver.warm_pivots", sol.iterations as u64);
            } else {
                telemetry::counter("solver.lp_cold", 1);
                telemetry::counter("solver.cold_pivots", sol.iterations as u64);
            }
        }
        let snap = if want_snapshot && sol.status == LpStatus::Optimal {
            eng.snapshot().map(Arc::new)
        } else {
            None
        };
        (sol, snap, warm)
    })
}

fn push_children(
    heap: &mut BinaryHeap<Node>,
    parent: &Node,
    j: usize,
    v: f64,
    parent_obj: f64,
    snap: Option<Arc<EngineSnapshot>>,
) {
    let floor = v.floor();
    // Down child: x_j <= floor(v)
    if floor >= parent.lower[j] - 1e-12 {
        let mut child = parent.clone();
        child.upper[j] = floor.min(child.upper[j]);
        child.bound = parent_obj;
        child.snap = snap.clone();
        if child.lower[j] <= child.upper[j] + 1e-12 {
            child.upper[j] = child.upper[j].max(child.lower[j]);
            heap.push(child);
        }
    }
    // Up child: x_j >= ceil(v)
    let ceil = floor + 1.0;
    if ceil <= parent.upper[j] + 1e-12 {
        let mut child = parent.clone();
        child.lower[j] = ceil.max(child.lower[j]);
        child.bound = parent_obj;
        child.snap = snap;
        if child.lower[j] <= child.upper[j] + 1e-12 {
            child.lower[j] = child.lower[j].min(child.upper[j]);
            heap.push(child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::RowCmp;

    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> MilpProblem {
        let n = values.len();
        let mut lp = LpProblem::with_columns(n);
        lp.objective = values.iter().map(|v| -v).collect();
        lp.upper = vec![1.0; n];
        lp.push_row(
            weights.iter().cloned().enumerate().collect(),
            RowCmp::Le,
            cap,
        );
        MilpProblem {
            lp,
            integers: (0..n).collect(),
        }
    }

    #[test]
    fn knapsack_small() {
        // values 10, 13, 7; weights 3, 4, 2; cap 5 -> best = {10, 7} = 17
        let p = knapsack(&[10.0, 13.0, 7.0], &[3.0, 4.0, 2.0], 5.0);
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!(!r.degraded);
        assert!((r.objective + 17.0).abs() < 1e-6, "obj={}", r.objective);
    }

    #[test]
    fn integer_equality_rounding() {
        // min x + y st 2x + 2y = 7 has no integer solution.
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 1.0];
        lp.upper = vec![10.0, 10.0];
        lp.push_row(vec![(0, 2.0), (1, 2.0)], RowCmp::Eq, 7.0);
        let p = MilpProblem {
            lp,
            integers: vec![0, 1],
        };
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min -x - 10 y, x continuous in [0, 3.7], y integer in [0, 2],
        // x + 4y <= 8.5 -> y = 2, x = 0.5
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![-1.0, -10.0];
        lp.upper = vec![3.7, 2.0];
        lp.push_row(vec![(0, 1.0), (1, 4.0)], RowCmp::Le, 8.5);
        let p = MilpProblem {
            lp,
            integers: vec![1],
        };
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.x[1] - 2.0).abs() < 1e-9);
        assert!((r.x[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn node_limit_returns_feasible_incumbent() {
        // Larger knapsack with a tiny node budget: must return Feasible with
        // a valid (if not proven optimal) incumbent from the dive.
        let values: Vec<f64> = (1..=20).map(|i| (i as f64 * 7.3) % 13.0 + 1.0).collect();
        let weights: Vec<f64> = (1..=20).map(|i| (i as f64 * 3.1) % 9.0 + 1.0).collect();
        let p = knapsack(&values, &weights, 30.0);
        let r = branch_and_bound(
            &p,
            &SolverConfig {
                node_limit: 3,
                ..Default::default()
            },
            WarmStart::default(),
        );
        assert!(r.nodes <= 3, "nodes={}", r.nodes);
        assert!(matches!(
            r.status,
            MilpStatus::Feasible | MilpStatus::Optimal
        ));
        let expected = if r.degraded {
            BudgetHit::Nodes
        } else {
            BudgetHit::None
        };
        assert_eq!(r.budget, expected);
        if r.status == MilpStatus::Feasible {
            assert!(r.objective.is_finite());
            assert!(p.lp.max_violation(&r.x) < 1e-6);
            assert!(r.gap >= 0.0);
        }
    }

    #[test]
    fn already_integral_root_short_circuits() {
        let mut lp = LpProblem::with_columns(2);
        lp.objective = vec![1.0, 1.0];
        lp.upper = vec![4.0, 4.0];
        lp.push_row(vec![(0, 1.0), (1, 1.0)], RowCmp::Ge, 4.0);
        let p = MilpProblem {
            lp,
            integers: vec![0, 1],
        };
        let r = branch_and_bound(&p, &SolverConfig::default(), WarmStart::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert_eq!(r.nodes, 1);
        assert!((r.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn pivot_budget_returns_degraded_incumbent_or_exhausted() {
        let values: Vec<f64> = (1..=24).map(|i| (i as f64 * 7.3) % 13.0 + 1.0).collect();
        let weights: Vec<f64> = (1..=24).map(|i| (i as f64 * 3.1) % 9.0 + 1.0).collect();
        let p = knapsack(&values, &weights, 35.0);
        let r = branch_and_bound(
            &p,
            &SolverConfig {
                max_pivots: Some(1),
                ..Default::default()
            },
            WarmStart::default(),
        );
        // Never a panic: either a (degraded) incumbent from the root dive or
        // an explicitly exhausted Feasible with infinite objective.
        assert_eq!(r.status, MilpStatus::Feasible);
        if r.objective.is_finite() {
            assert!(p.lp.max_violation(&r.x) < 1e-6);
        }
        assert!(r.degraded);
        assert_eq!(r.budget, BudgetHit::Pivots);
    }

    #[test]
    fn budget_names_the_limit_that_stopped_the_search() {
        let values: Vec<f64> = (1..=24).map(|i| (i as f64 * 7.3) % 13.0 + 1.0).collect();
        let weights: Vec<f64> = (1..=24).map(|i| (i as f64 * 3.1) % 9.0 + 1.0).collect();
        let p = knapsack(&values, &weights, 35.0);
        let solve = |cfg: SolverConfig| branch_and_bound(&p, &cfg, WarmStart::default());
        let open = solve(SolverConfig::default());
        assert!(!open.degraded);
        assert_eq!(open.budget, BudgetHit::None);
        // Both limits spent on the root: the node limit is checked first.
        let both = solve(SolverConfig {
            node_limit: 1,
            max_pivots: Some(1),
            ..Default::default()
        });
        assert!(both.degraded);
        assert_eq!(both.budget, BudgetHit::Nodes);
    }

    #[test]
    fn most_fractional_picks_closest_to_half() {
        let x = [1.0, 2.3, 3.5, 0.9];
        let ints = [0, 1, 2, 3];
        let (j, v) = most_fractional(&x, &ints).unwrap();
        assert_eq!(j, 2);
        assert!((v - 3.5).abs() < 1e-12);
        assert!(most_fractional(&[1.0, 2.0], &[0, 1]).is_none());
    }
}
