//! Figs. 6 & 7 reproduction: head-to-head scheduler comparison.
//!
//! Small scale (Fig. 6): 1 application, 3 models, offline-profiled TIR,
//! schedulers BIRP / BIRP-OFF / OAEI / MAX. Large scale (Fig. 7): 5
//! applications, 25 models, schedulers BIRP / OAEI / MAX (the paper drops
//! BIRP-OFF at scale because offline profiling 25 models x 3 device kinds
//! "takes a long time").

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_solver::SolverConfig;
use birp_workload::{Trace, TraceConfig};

use crate::runner::{run_scheduler, RunConfig, RunResult};
use crate::schedulers::{Birp, BirpOff, MaxBatch, Oaei, Scheduler, TemporalReuse};

/// Which algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    Birp,
    BirpOff,
    Oaei,
    Max,
}

impl SchedulerKind {
    pub fn build(
        self,
        catalog: &Catalog,
        mab: MabConfig,
        seed: u64,
        solver: &SolverConfig,
        reuse: &TemporalReuse,
    ) -> Box<dyn Scheduler + Send> {
        match self {
            SchedulerKind::Birp => Box::new(
                Birp::new(catalog.clone(), mab)
                    .with_solver(solver.clone())
                    .with_reuse(reuse.clone()),
            ),
            SchedulerKind::BirpOff => Box::new(
                BirpOff::new(catalog.clone())
                    .with_solver(solver.clone())
                    .with_reuse(reuse.clone()),
            ),
            SchedulerKind::Oaei => {
                Box::new(Oaei::new(catalog.clone(), seed).with_solver(solver.clone()))
            }
            SchedulerKind::Max => Box::new(MaxBatch::paper_default(catalog.clone())),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Birp => "BIRP",
            SchedulerKind::BirpOff => "BIRP-OFF",
            SchedulerKind::Oaei => "OAEI",
            SchedulerKind::Max => "MAX",
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ComparisonConfig {
    pub catalog: Catalog,
    pub trace: TraceConfig,
    pub schedulers: Vec<SchedulerKind>,
    pub mab: MabConfig,
    pub run: RunConfig,
    /// Branch-and-bound budget for the MILP-based schedulers. The
    /// large-scale preset uses a smaller node budget: the LP-guided warm
    /// start already lands within a few percent of optimal and node LPs
    /// are ~10x more expensive at 25 models.
    pub solver: SolverConfig,
    pub seed: u64,
}

impl ComparisonConfig {
    /// The paper's small-scale setup (Fig. 6) with a configurable horizon.
    pub fn small_scale(seed: u64, slots: usize) -> Self {
        ComparisonConfig {
            catalog: Catalog::small_scale(seed),
            trace: TraceConfig {
                num_slots: slots,
                ..TraceConfig::small_scale(seed)
            },
            schedulers: vec![
                SchedulerKind::BirpOff,
                SchedulerKind::Birp,
                SchedulerKind::Oaei,
                SchedulerKind::Max,
            ],
            mab: MabConfig::paper_preset(),
            run: RunConfig::default(),
            solver: SolverConfig::scheduling(),
            seed,
        }
    }

    /// The paper's large-scale setup (Fig. 7).
    pub fn large_scale(seed: u64, slots: usize) -> Self {
        ComparisonConfig {
            catalog: Catalog::large_scale(seed),
            trace: TraceConfig {
                num_slots: slots,
                ..TraceConfig::large_scale(seed)
            },
            schedulers: vec![SchedulerKind::Birp, SchedulerKind::Oaei, SchedulerKind::Max],
            mab: MabConfig::paper_preset(),
            run: RunConfig::default(),
            solver: SolverConfig {
                node_limit: 16,
                ..SolverConfig::scheduling()
            },
            seed,
        }
    }
}

/// One scheduler's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonResult {
    pub kind: SchedulerKind,
    pub run: RunResult,
}

/// Run every configured scheduler over the same trace (rayon-parallel —
/// each run is independent).
pub fn compare_schedulers(cfg: &ComparisonConfig) -> Vec<ComparisonResult> {
    let trace: Trace = cfg.trace.generate();
    cfg.schedulers
        .par_iter()
        .map(|&kind| {
            let mut scheduler =
                kind.build(&cfg.catalog, cfg.mab, cfg.seed, &cfg.solver, &cfg.run.reuse);
            let run = run_scheduler(&cfg.catalog, &trace, scheduler.as_mut(), &cfg.run);
            ComparisonResult { kind, run }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down Fig. 6 must already show the paper's ordering:
    /// batch-aware schedulers lose less accuracy than serial OAEI, and MAX
    /// loses the most.
    #[test]
    fn small_scale_ordering_holds_on_short_run() {
        let mut cfg = ComparisonConfig::small_scale(42, 30);
        cfg.trace.mean_rate = 8.0;
        let results = compare_schedulers(&cfg);
        assert_eq!(results.len(), 4);
        let loss = |k: SchedulerKind| {
            results
                .iter()
                .find(|r| r.kind == k)
                .unwrap()
                .run
                .metrics
                .total_loss
        };
        let birp = loss(SchedulerKind::Birp);
        let max = loss(SchedulerKind::Max);
        assert!(
            birp < max,
            "BIRP loss {birp} should beat MAX {max} (small models only)"
        );
        // All runs conserve requests.
        for r in &results {
            assert_eq!(
                r.run.metrics.served + r.run.metrics.dropped,
                r.run.offered,
                "{}",
                r.run.scheduler
            );
        }
    }

    #[test]
    fn labels_match_kinds() {
        assert_eq!(SchedulerKind::Birp.label(), "BIRP");
        assert_eq!(SchedulerKind::BirpOff.label(), "BIRP-OFF");
        assert_eq!(SchedulerKind::Oaei.label(), "OAEI");
        assert_eq!(SchedulerKind::Max.label(), "MAX");
    }
}
