//! Sharded Lagrangian decomposition of the per-slot MILP (DESIGN.md §14).
//!
//! The monolithic lowering couples edges through exactly one row family:
//! the per-app routing balance `Σ_k out[i][k] = Σ_k in[i][k]`. Every other
//! row (flow, cap, serve, memory, compute, network) is per-edge. Partition
//! the fleet into contiguous clusters and relax that single coupling with
//! per-app Lagrangian bandwidth prices `λ_i`, and the slot decomposes into
//! independent cluster sub-MILPs:
//!
//! * each cluster gains two integer columns per app — `exp[i]` (requests
//!   exported to the rest of the fleet, priced `+λ_i`) and `imp[i]`
//!   (requests imported, credited `−λ_i`) — and its balance row becomes
//!   `Σout − Σin − exp + imp = 0`;
//! * the coordinator runs a dual loop: solve all clusters concurrently
//!   (rayon, on the solver's existing thread-local engine pools), read the
//!   per-app imbalance `g_i = Σ_c (exp_c − imp_c)` off the cluster flows,
//!   and take a Polyak subgradient step `λ += step·g` clamped to
//!   `[0, drop_penalty]` (exporting can never be priced above the cost of
//!   simply dropping the request, so higher prices are never active). The
//!   loop ends at the gap target, at `max_iters`, or at a price fixed
//!   point, where a step leaves every price bitwise unchanged and another
//!   iteration would repeat the same solves;
//! * primal recovery stitches the cluster points into the monolithic
//!   variable space; when every `g_i = 0` the stitched point is globally
//!   feasible as-is (cluster balances sum to the global balance), otherwise
//!   it is repaired by the same budget-disciplined greedy packing that
//!   builds warm starts, using the stitched point as the guide.
//!
//! `Σ_c bound_c ≤ Σ_c min_c = L(λ) ≤ OPT` holds even when cluster solves
//! are budget-degraded, so the reported duality gap is a true certificate.
//! Above the gap target the monolithic fallback solves the coordinator's
//! own lowering with the guide LP running beside presolve and the root LP
//! ([`SlotProblem::solve_guided`]).
//!
//! Each cluster keeps its own persistent [`SlotProblem`] across price
//! iterations and slots; a price move is a pure objective-coefficient edit
//! ([`SlotDelta::CouplingPrice`]), so the per-iteration refresh cost is a
//! handful of typed deltas, not a rebuild.

use std::cell::Cell;
use std::ops::Range;

use birp_models::{AppId, Catalog, EdgeId, ModelId};
use birp_sim::Schedule;
use birp_solver::{ModelStatus, RootDive, Solution, SolverConfig};
use birp_telemetry as telemetry;
use rayon::prelude::*;

use crate::demand::DemandMatrix;
use crate::problem::{
    ProblemConfig, RootDiveOutcome, ShardCoupling, SlotProblem, SolveStats, TirMatrix,
};

#[allow(unused_imports)]
use crate::problem::SlotDelta; // doc links

/// Knobs of the sharded decomposition scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Edges per cluster (contiguous partition). `0` disables sharding; a
    /// partition with fewer than two clusters falls through to the
    /// monolithic path bitwise.
    pub cluster_size: usize,
    /// Dual-price iterations per slot, at most. The loop stops earlier at
    /// `gap_tol`, or at a price fixed point: once a dual step leaves every
    /// price bitwise where the clusters were last refreshed, further
    /// iterations would repeat the same solves.
    pub max_iters: usize,
    /// Relative duality-gap target; the dual loop stops early once
    /// `(UB − LB) / max(1, |UB|)` reaches it.
    pub gap_tol: f64,
    /// When the loop ends above `gap_tol`, fall back to one monolithic
    /// solve instead of shipping the repaired primal point.
    pub fallback: bool,
}

impl ShardConfig {
    pub fn new(cluster_size: usize) -> Self {
        ShardConfig {
            cluster_size,
            max_iters: 4,
            gap_tol: 0.05,
            fallback: true,
        }
    }
}

/// One slot decision of the sharded coordinator, with its gap certificate.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    pub schedule: Schedule,
    pub stats: SolveStats,
    /// Dual iterations actually run.
    pub iterations: usize,
    /// Final `(UB − LB) / max(1, |UB|)`.
    pub duality_gap: f64,
    /// Best Lagrangian lower bound `max_it Σ_c bound_c`.
    pub lower_bound: f64,
    /// Best feasible (primal) objective found.
    pub upper_bound: f64,
    /// Iterations whose stitched point was globally feasible unrepaired.
    pub stitched_feasible: usize,
    /// Iterations that needed the greedy feasibility repair.
    pub repair_used: usize,
    /// The decision came from the monolithic fallback solve.
    pub fallback_used: bool,
}

thread_local! {
    /// Test-only fault injection: while armed, every cluster refresh uses
    /// the prices the coordinator held at the *start* of the decide — the
    /// dual updates never reach the cluster models. Exists so the shard
    /// parity suite can prove it catches a stale-price bug; never armed
    /// outside tests.
    static SHARD_FAULT_STALE_PRICE: Cell<bool> = const { Cell::new(false) };
}

/// Test-only: arm (or disarm) the stale-coupling-price fault. While armed,
/// cluster models are refreshed with the decide-entry prices regardless of
/// how the dual loop moves them.
#[doc(hidden)]
pub fn shard_fault_stale_price(armed: bool) {
    SHARD_FAULT_STALE_PRICE.with(|c| c.set(armed));
}

/// Contiguous partition of `0..num_edges` into clusters of `cluster_size`
/// (the last cluster takes the remainder).
pub fn edge_clusters(num_edges: usize, cluster_size: usize) -> Vec<Range<usize>> {
    let size = cluster_size.max(1);
    (0..num_edges)
        .step_by(size)
        .map(|s| s..(s + size).min(num_edges))
        .collect()
}

/// Demand restricted to a cluster's edges (dense re-index).
pub fn restrict_demand(demand: &DemandMatrix, edges: &Range<usize>) -> DemandMatrix {
    let mut d = DemandMatrix::zeros(demand.num_apps(), edges.len());
    for i in 0..demand.num_apps() {
        for (le, ge) in edges.clone().enumerate() {
            d.set(AppId(i), EdgeId(le), demand.get(AppId(i), EdgeId(ge)));
        }
    }
    d
}

/// TIR estimates restricted to a cluster's edges.
pub fn restrict_tir(tir: &TirMatrix, num_models: usize, edges: &Range<usize>) -> TirMatrix {
    TirMatrix::from_fn(edges.len(), num_models, |e, m| {
        *tir.get(EdgeId(edges.start + e), ModelId(m))
    })
}

/// Previous schedule restricted to a cluster's edges. Only deployments
/// matter downstream (they drive the `x^{t-1}` model-transfer term);
/// routing and unserved counts are not read by the problem builder.
pub fn restrict_prev(prev: &Schedule, num_apps: usize, edges: &Range<usize>) -> Schedule {
    let mut s = Schedule::empty(prev.t, num_apps, edges.len());
    s.serial = prev.serial;
    for (le, ge) in edges.clone().enumerate() {
        if let Some(ds) = prev.deployments.get(ge) {
            s.deployments[le] = ds.clone();
        }
    }
    s
}

fn restrict_mask(mask: Option<&Vec<bool>>, edges: &Range<usize>) -> Option<Vec<bool>> {
    mask.map(|m| {
        edges
            .clone()
            .map(|ge| m.get(ge).copied().unwrap_or(false))
            .collect()
    })
}

/// One cluster: its global edge range, verbatim sub-catalog and persistent
/// slot model (refreshed via typed deltas across price iterations/slots).
struct Cluster {
    edges: Range<usize>,
    catalog: Catalog,
    model: Option<SlotProblem>,
}

/// Per-decide slot context of one cluster (everything that changes per
/// slot but not per price iteration).
struct ClusterCtx {
    demand: DemandMatrix,
    tir: TirMatrix,
    prev: Option<Schedule>,
    mask: Option<Vec<bool>>,
    /// Import cap per app: fleet demand outside this cluster.
    outside: Vec<u32>,
}

/// The dual-price coordinator of the sharded decomposition.
pub struct ShardCoordinator {
    cfg: ShardConfig,
    /// Per-app Lagrangian prices, persisted across slots (warm dual start;
    /// checkpointed as IEEE-754 bits by the scheduler state).
    prices: Vec<f64>,
    clusters: Vec<Cluster>,
}

impl ShardCoordinator {
    pub fn new(catalog: &Catalog, cfg: ShardConfig) -> Self {
        let clusters = edge_clusters(catalog.num_edges(), cfg.cluster_size)
            .into_iter()
            .map(|r| Cluster {
                catalog: catalog.restrict_edges(r.clone()),
                edges: r,
                model: None,
            })
            .collect();
        ShardCoordinator {
            cfg,
            prices: vec![0.0; catalog.num_apps()],
            clusters,
        }
    }

    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Current dual prices (checkpoint export).
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Restore dual prices from a checkpoint. Ignored on length mismatch
    /// (defensive: a coordinator built for a different catalog).
    pub fn set_prices(&mut self, prices: Vec<f64>) {
        if prices.len() == self.prices.len() {
            self.prices = prices;
        }
    }

    /// Build each cluster's per-slot context.
    fn contexts(
        &self,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        num_models: usize,
    ) -> Vec<ClusterCtx> {
        let na = demand.num_apps();
        self.clusters
            .iter()
            .map(|cl| {
                let d = restrict_demand(demand, &cl.edges);
                let outside = (0..na)
                    .map(|i| {
                        let total = demand.app_total(AppId(i));
                        let inside = d.app_total(AppId(i));
                        (total - inside).min(u32::MAX as u64) as u32
                    })
                    .collect();
                ClusterCtx {
                    tir: restrict_tir(tir, num_models, &cl.edges),
                    prev: prev.map(|p| restrict_prev(p, na, &cl.edges)),
                    mask: restrict_mask(cfg.masked_edges.as_ref(), &cl.edges),
                    outside,
                    demand: d,
                }
            })
            .collect()
    }

    /// Decide slot `t` via the dual-price loop. Never fails: the repaired
    /// primal point is feasible by construction, so there is always a
    /// schedule to decode.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &mut self,
        catalog: &Catalog,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        solver_cfg: &SolverConfig,
    ) -> ShardOutcome {
        let _span = telemetry::span("shard.decide");
        let na = catalog.num_apps();
        let nm = catalog.num_models();
        // Read once on the coordinator thread: cluster refreshes run on
        // rayon workers, whose own thread-local flag is never armed.
        let fault_stale = SHARD_FAULT_STALE_PRICE.with(|c| c.get());
        let frozen = self.prices.clone();

        let mono_cfg = ProblemConfig {
            coupling: None,
            ..cfg.clone()
        };
        // Monolithic lean model: primal floor, stitch target, feasibility
        // repairer, UB evaluator and final decoder. Rebuilt per decide —
        // it never runs branch and bound on the non-fallback path.
        let mono = SlotProblem::build_reuse_lean(catalog, t, demand, tir, prev, &mono_cfg, None);
        let mut best = mono.warm_point().to_vec();
        let mut ub = mono.point_objective(&best);
        let mut lb = f64::NEG_INFINITY;
        let mut gap = f64::INFINITY;
        let mut iterations = 0usize;
        let mut stitched_feasible = 0usize;
        let mut repair_used = 0usize;
        let mut nodes_total = 0usize;
        let mut cluster_failed = false;

        let ctxs = self.contexts(demand, tir, prev, cfg, nm);

        for it in 0..self.cfg.max_iters.max(1) {
            iterations = it + 1;
            let iteration_span = telemetry::span("shard.iteration");
            let iteration_ctx = iteration_span.context();
            let used_prices = if fault_stale {
                frozen.clone()
            } else {
                self.prices.clone()
            };
            let sols: Vec<Option<Solution>> = self
                .clusters
                .par_iter_mut()
                .enumerate()
                .map(|(ci, cl)| {
                    // Item-indexed span: the same id whichever thread runs
                    // the cluster (the cluster solve's waves nest under it).
                    let _cluster_span = iteration_ctx.span_at("shard.cluster", ci as u32);
                    let ctx = &ctxs[ci];
                    let sub_cfg = ProblemConfig {
                        mode: cfg.mode,
                        drop_penalty: cfg.drop_penalty,
                        masked_edges: ctx.mask.clone(),
                        coupling: Some(ShardCoupling {
                            prices: used_prices.clone(),
                            outside_demand: ctx.outside.clone(),
                        }),
                    };
                    match cl.model.as_mut() {
                        Some(m) => {
                            m.refresh_with_reuse(
                                &cl.catalog,
                                t,
                                &ctx.demand,
                                &ctx.tir,
                                ctx.prev.as_ref(),
                                &sub_cfg,
                                None,
                                false,
                            );
                        }
                        None => {
                            cl.model = Some(SlotProblem::build_reuse_lean(
                                &cl.catalog,
                                t,
                                &ctx.demand,
                                &ctx.tir,
                                ctx.prev.as_ref(),
                                &sub_cfg,
                                None,
                            ));
                        }
                    }
                    cl.model.as_ref().unwrap().solve_raw(solver_cfg).ok()
                })
                .collect();
            let Some(sols) = sols.into_iter().collect::<Option<Vec<_>>>() else {
                // A cluster solve failed outright (defensive — warm starts
                // make this unreachable in practice). The stitched-point
                // machinery has nothing to stitch; take the fallback.
                cluster_failed = true;
                break;
            };

            // Valid Lagrangian lower bound even under budget degradation:
            // each cluster's dual bound under-estimates its true minimum.
            let lb_it: f64 = sols.iter().map(|s| s.bound).sum();
            lb = lb.max(lb_it);

            // Stitch cluster points into the monolithic variable space and
            // read the per-app export/import imbalance off the flows
            // (`exp − imp = Σout − Σin` by the cluster balance row).
            let mut point = vec![0.0; mono.num_vars()];
            let mut g = vec![0i64; na];
            for (cl, sol) in self.clusters.iter().zip(&sols) {
                nodes_total += sol.nodes;
                let pm = cl.model.as_ref().unwrap();
                for (le, ge) in cl.edges.clone().enumerate() {
                    for m in 0..nm {
                        point[mono.vid_x(ge, m).index()] =
                            sol.int_value(pm.vid_x(le, m)).max(0) as f64;
                        point[mono.vid_b(ge, m).index()] =
                            sol.int_value(pm.vid_b(le, m)).max(0) as f64;
                    }
                    for i in 0..na {
                        point[mono.vid_local(i, ge).index()] =
                            sol.int_value(pm.vid_local(i, le)).max(0) as f64;
                        point[mono.vid_out(i, ge).index()] =
                            sol.int_value(pm.vid_out(i, le)).max(0) as f64;
                        point[mono.vid_inn(i, ge).index()] =
                            sol.int_value(pm.vid_inn(i, le)).max(0) as f64;
                        point[mono.vid_o(i, ge).index()] =
                            sol.int_value(pm.vid_o(i, le)).max(0) as f64;
                        g[i] += sol.int_value(pm.vid_out(i, le)) - sol.int_value(pm.vid_inn(i, le));
                    }
                }
            }

            // Primal recovery: balanced stitches are feasible as-is; the
            // rest go through the greedy repair with the stitch as guide.
            let balanced = g.iter().all(|&v| v == 0);
            let cand = if balanced && mono.violation_at(&point) < 1e-6 {
                stitched_feasible += 1;
                point
            } else {
                repair_used += 1;
                mono.repair_point(catalog, point)
            };
            let cand_obj = mono.point_objective(&cand);
            if cand_obj < ub - 1e-12 {
                ub = cand_obj;
                best = cand;
            }

            gap = (ub - lb).max(0.0) / ub.abs().max(1.0);
            if gap <= self.cfg.gap_tol {
                break;
            }
            // Polyak subgradient step towards the current primal level.
            // Skipped on the final iteration so the invariant "cluster
            // models reflect the coordinator's prices" holds at exit —
            // the property the stale-price teeth test pins down.
            if it + 1 < self.cfg.max_iters {
                let g2: f64 = g.iter().map(|&v| (v as f64) * (v as f64)).sum();
                if g2 > 0.0 {
                    let step = (ub - lb_it).max(0.0) / g2;
                    for (price, &gi) in self.prices.iter_mut().zip(&g) {
                        *price = (*price + step * gi as f64).clamp(0.0, cfg.drop_penalty);
                    }
                }
                // Price fixed point (g = 0, or every moved price clamped
                // back): the next iteration would refresh the clusters to
                // the prices they already hold and return bitwise the same
                // bound and candidate, so stop here.
                let unmoved = self
                    .prices
                    .iter()
                    .zip(&used_prices)
                    .all(|(p, u)| p.to_bits() == u.to_bits());
                if unmoved {
                    break;
                }
            }
        }

        let fallback_used = cluster_failed || (gap > self.cfg.gap_tol && self.cfg.fallback);
        let (schedule, stats) = if fallback_used {
            // `mono` already holds the monolithic lowering: solve it from
            // the guided warm start a full build would derive, with the
            // guide LP beside the search's presolve and root LP.
            match mono.solve_guided(catalog, solver_cfg) {
                Ok(pair) => pair,
                // Defensive: fall back to the repaired primal point, which
                // is always feasible.
                Err(_) => Self::decode_best(&mono, best.clone(), ub, lb, gap, nodes_total),
            }
        } else {
            Self::decode_best(&mono, best, ub, lb, gap, nodes_total)
        };

        telemetry::counter("shard.iterations", iterations as u64);
        telemetry::observe("shard.duality_gap", gap.min(1.0));
        telemetry::counter("shard.stitched_feasible", stitched_feasible as u64);
        telemetry::counter("shard.repair_used", repair_used as u64);
        if fallback_used {
            telemetry::counter("shard.fallback", 1);
        }

        ShardOutcome {
            schedule,
            stats,
            iterations,
            duality_gap: gap,
            lower_bound: lb,
            upper_bound: ub,
            stitched_feasible,
            repair_used,
            fallback_used,
        }
    }

    fn decode_best(
        mono: &SlotProblem,
        best: Vec<f64>,
        ub: f64,
        lb: f64,
        gap: f64,
        nodes: usize,
    ) -> (Schedule, SolveStats) {
        let degraded = !gap.is_finite() || gap > 1e-9;
        let sol = Solution {
            status: if degraded {
                ModelStatus::Feasible
            } else {
                ModelStatus::Optimal
            },
            objective: ub,
            values: best,
            bound: lb,
            gap,
            nodes,
            degraded,
            incumbents: vec![(nodes as u64, ub, gap)],
            root_dive: RootDive::NotRun,
        };
        let schedule = mono.decode(&sol);
        let stats = SolveStats {
            objective: ub,
            gap,
            nodes,
            optimal: !degraded,
            degraded,
            incumbents: sol.incumbents.clone(),
            root_dive: RootDiveOutcome::NotRun,
        };
        (schedule, stats)
    }

    /// Test support: does every persistent cluster model match a fresh
    /// lowering of the same slot under the coordinator's *current* prices,
    /// bitwise? After a healthy [`decide`](Self::decide) this holds by the
    /// price-update invariant (the final iteration refreshes before any
    /// further dual step); under the armed stale-price fault it breaks as
    /// soon as one dual update has happened.
    #[doc(hidden)]
    pub fn clusters_match_fresh_build(
        &self,
        t: usize,
        demand: &DemandMatrix,
        tir: &TirMatrix,
        prev: Option<&Schedule>,
        cfg: &ProblemConfig,
        num_models: usize,
    ) -> bool {
        let ctxs = self.contexts(demand, tir, prev, cfg, num_models);
        self.clusters.iter().zip(&ctxs).all(|(cl, ctx)| {
            let Some(model) = cl.model.as_ref() else {
                return false;
            };
            let sub_cfg = ProblemConfig {
                mode: cfg.mode,
                drop_penalty: cfg.drop_penalty,
                masked_edges: ctx.mask.clone(),
                coupling: Some(ShardCoupling {
                    prices: self.prices.to_vec(),
                    outside_demand: ctx.outside.clone(),
                }),
            };
            let fresh = SlotProblem::build(
                &cl.catalog,
                t,
                &ctx.demand,
                &ctx.tir,
                ctx.prev.as_ref(),
                &sub_cfg,
            );
            model.debug_milp() == fresh.debug_milp()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_clusters_partition_is_contiguous_and_complete() {
        let cs = edge_clusters(10, 3);
        assert_eq!(cs, vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(edge_clusters(6, 6), vec![0..6]);
        assert_eq!(edge_clusters(6, 100), vec![0..6]);
        // cluster_size 0 degrades to singleton-free single pass
        assert_eq!(edge_clusters(3, 0), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn restrict_demand_reindexes_densely() {
        let mut d = DemandMatrix::zeros(2, 6);
        d.set(AppId(0), EdgeId(4), 7);
        d.set(AppId(1), EdgeId(2), 3);
        let sub = restrict_demand(&d, &(2..5));
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(sub.get(AppId(0), EdgeId(2)), 7);
        assert_eq!(sub.get(AppId(1), EdgeId(0)), 3);
        assert_eq!(sub.total(), 10);
    }

    #[test]
    fn sharded_decide_serves_light_load_and_conserves_demand() {
        let catalog = Catalog::small_scale(42);
        let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        demand.set(AppId(0), EdgeId(0), 4);
        demand.set(AppId(0), EdgeId(3), 3);
        let tir = crate::TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let mut coord = ShardCoordinator::new(&catalog, ShardConfig::new(2));
        let out = coord.decide(
            &catalog,
            0,
            &demand,
            &tir,
            None,
            &cfg,
            &SolverConfig::scheduling(),
        );
        assert_eq!(
            out.schedule.served() + out.schedule.total_unserved(),
            7,
            "demand conservation"
        );
        assert!(out.iterations >= 1);
        assert!(out.upper_bound + 1e-9 >= out.lower_bound || out.fallback_used);
        // Light load on decoupled edges: first stitched point is feasible.
        assert!(out.stitched_feasible + out.repair_used >= 1 || out.fallback_used);
    }

    #[test]
    fn decoupled_light_load_stops_at_the_price_fixed_point() {
        // Every request outweighs every edge's network window: no cluster
        // can ship or receive, so g = 0 and the first dual step leaves the
        // prices where the clusters were refreshed.
        let mut catalog = Catalog::small_scale(42);
        let max_budget = catalog
            .edges
            .iter()
            .map(|e| e.network_budget_mb)
            .fold(0.0f64, f64::max);
        for app in &mut catalog.apps {
            app.request_mb = max_budget + 1.0;
        }
        let mut demand = DemandMatrix::zeros(catalog.num_apps(), catalog.num_edges());
        demand.set(AppId(0), EdgeId(0), 4);
        demand.set(AppId(0), EdgeId(3), 3);
        let tir = crate::TirMatrix::oracle(&catalog);
        let cfg = ProblemConfig::default();
        let shard_cfg = ShardConfig {
            cluster_size: 2,
            max_iters: 4,
            // Unreachable gap target: only the fixed point can stop early.
            gap_tol: -1.0,
            fallback: false,
        };
        let mut coord = ShardCoordinator::new(&catalog, shard_cfg);
        let out = coord.decide(
            &catalog,
            0,
            &demand,
            &tir,
            None,
            &cfg,
            &SolverConfig::scheduling(),
        );
        assert_eq!(out.iterations, 1, "decoupled prices cannot move");
        assert_eq!(out.stitched_feasible, 1);
        assert_eq!(out.schedule.served() + out.schedule.total_unserved(), 7);
        assert!(coord.clusters_match_fresh_build(
            0,
            &demand,
            &tir,
            None,
            &cfg,
            catalog.num_models()
        ));
    }
}
