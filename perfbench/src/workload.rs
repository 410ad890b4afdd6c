//! The three workloads, built the way `birp run` builds them, and one timed
//! `run_scheduler` call with its output checks.

use std::time::Instant;

use birp_core::TemporalReuse;
use birp_core::{run_scheduler, Birp, DemandMatrix, RunConfig, RunResult, Scheduler, ShardConfig};
use birp_mab::MabConfig;
use birp_models::Catalog;
use birp_sim::{Schedule, SlotOutcome};
use birp_solver::SolverConfig;
use birp_workload::{Trace, TraceConfig};
use serde::Serialize;

/// Edges of the fleet workload.
const FLEET_EDGES: usize = 1000;
/// Mean requests per edge per slot on the fleet: the small-scale trace shape
/// stretched to 1000 edges at about 2.5 requests per edge.
const FLEET_RATE: f64 = 2.5;
/// Edges per cluster of `ShardConfig::new` on the fleet: 20 clusters.
const FLEET_CLUSTER: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper Fig. 6: `birp run --scale small`.
    Fig6Small,
    /// Paper Fig. 7: `birp run --scale large`.
    Fig7Large,
    /// 1000 edges through the sharded coordinator with its shipped defaults.
    Fleet1000,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Fig6Small, Kind::Fig7Large, Kind::Fleet1000];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6Small => "fig6-small",
            Kind::Fig7Large => "fig7-large",
            Kind::Fleet1000 => "fleet-1000",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instances per run and slots per instance. SLO failures of one
    /// 96-slot trace (one simulated day) vary by ±20% from seed to seed, so
    /// a run pools several traces to keep its figures within a few percent
    /// of any other run's. A fleet slot already pools 1000 edges; seven
    /// slots take about 30 s on a 2-core host.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Kind::Fig6Small => (24, 96),
            Kind::Fig7Large => (12, 96),
            Kind::Fleet1000 => (1, 7),
        }
    }

    pub fn catalog(self, seed: u64) -> Catalog {
        match self {
            Kind::Fig6Small => Catalog::small_scale(seed),
            Kind::Fig7Large => Catalog::large_scale(seed),
            Kind::Fleet1000 => Catalog::fleet_scale(seed, FLEET_EDGES),
        }
    }

    pub fn trace_config(self, seed: u64, slots: usize) -> TraceConfig {
        match self {
            Kind::Fig6Small => TraceConfig {
                num_slots: slots,
                ..TraceConfig::small_scale(seed)
            },
            Kind::Fig7Large => TraceConfig {
                num_slots: slots,
                ..TraceConfig::large_scale(seed)
            },
            Kind::Fleet1000 => TraceConfig {
                num_slots: slots,
                num_edges: FLEET_EDGES,
                mean_rate: FLEET_RATE,
                ..TraceConfig::small_scale(seed)
            },
        }
    }

    /// BIRP as `birp run` builds it: `solver_for(scale)` (the large scale
    /// keeps the root dive on, unlike `ComparisonConfig::large_scale`), the
    /// default temporal reuse, and on the fleet `ShardConfig::new(50)`.
    pub fn scheduler(self, catalog: &Catalog) -> Birp {
        let solver = match self {
            Kind::Fig7Large => SolverConfig {
                node_limit: 16,
                ..SolverConfig::scheduling()
            },
            Kind::Fig6Small | Kind::Fleet1000 => SolverConfig::scheduling(),
        };
        let birp = Birp::new(catalog.clone(), MabConfig::paper_preset())
            .with_solver(solver)
            .with_reuse(TemporalReuse::default());
        match self {
            Kind::Fleet1000 => birp.with_shards(ShardConfig::new(FLEET_CLUSTER)),
            Kind::Fig6Small | Kind::Fig7Large => birp,
        }
    }
}

/// Seed of every catalog: `birp run`'s default seed. The devices stay the
/// same from run to run and `--seed` drives the arrivals; a catalog drawn
/// per seed moves fleet decide time by ±20%.
pub const CATALOG_SEED: u64 = 42;

/// Trace seed of instance `j` in a run seeded `seed`. Instance 0 uses the
/// run seed itself, so at seed 42 a one-instance pool is exactly
/// `birp run --seed 42`.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The catalog of one run and its pre-generated arrival traces, one per
/// instance. Arrivals are fixed before the run, so load is open-loop in
/// simulated time: a slow decide shows as latency, not as less load.
pub struct Pool {
    pub catalog: Catalog,
    pub traces: Vec<Trace>,
}

impl Pool {
    /// A fresh scheduler per trace.
    pub fn schedulers(&self, kind: Kind) -> Vec<Birp> {
        self.traces
            .iter()
            .map(|_| kind.scheduler(&self.catalog))
            .collect()
    }
}

/// Set-up time of one pool, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Catalog::*` constructor.
    pub catalog_ms: f64,
    /// `TraceConfig::generate`, all traces.
    pub generate_ms: f64,
    /// Scheduler construction, `ShardCoordinator` included, all instances.
    pub scheduler_ms: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        (self.catalog_ms + self.generate_ms + self.scheduler_ms) / 1e3
    }
}

/// Build the pool of one run and a fresh scheduler per instance.
pub fn setup(kind: Kind, seed: u64) -> (Pool, Vec<Birp>, SetupTimes) {
    let (instances, slots) = kind.shape();
    let start = Instant::now();
    let catalog = kind.catalog(CATALOG_SEED);
    let catalog_ms = ms_since(start);
    let start = Instant::now();
    let traces = (0..instances)
        .map(|j| kind.trace_config(instance_seed(seed, j), slots).generate())
        .collect();
    let generate_ms = ms_since(start);
    let pool = Pool { catalog, traces };
    let start = Instant::now();
    let schedulers = pool.schedulers(kind);
    let times = SetupTimes {
        catalog_ms,
        generate_ms,
        scheduler_ms: ms_since(start),
    };
    (pool, schedulers, times)
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `decide` and `observe` from outside the scheduler and counts the
/// slots BIRP served without an incumbent (its greedy-LOCAL fallback).
struct Timed {
    inner: Birp,
    decide_ms: Vec<f64>,
    observe_ms: f64,
    started: usize,
    no_incumbent: usize,
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, t: usize, demand: &DemandMatrix, prev: Option<&Schedule>) -> Schedule {
        // A panic unwinds past the push below; the runner isolates it and
        // `started - decide_ms.len()` counts it.
        self.started += 1;
        let start = Instant::now();
        let schedule = self.inner.decide(t, demand, prev);
        self.decide_ms.push(ms_since(start));
        if self.inner.last_stats.is_none() {
            self.no_incumbent += 1;
        }
        schedule
    }

    fn observe(&mut self, outcome: &SlotOutcome) {
        let start = Instant::now();
        self.inner.observe(outcome);
        self.observe_ms += ms_since(start);
    }

    fn set_edge_mask(&mut self, mask: Option<&[bool]>) {
        self.inner.set_edge_mask(mask);
    }
}

/// One checked `run_scheduler` call.
pub struct Run {
    /// Wall time of the `run_scheduler` call.
    pub wall_s: f64,
    /// Per-slot `decide` latency, in slot order.
    pub decide_ms: Vec<f64>,
    /// Total `observe` time.
    pub observe_ms: f64,
    /// Slots whose decide panicked or found no incumbent.
    pub failed_slots: usize,
}

/// Run `scheduler` over `trace` with the runner's defaults (strict schedule
/// validation and panic isolation on) and check the outputs: one decision
/// per trace slot, and `served + dropped == offered`.
pub fn run(catalog: &Catalog, trace: &Trace, scheduler: Birp) -> Result<(Run, Quality), String> {
    let mut timed = Timed {
        inner: scheduler,
        decide_ms: Vec::with_capacity(trace.num_slots()),
        observe_ms: 0.0,
        started: 0,
        no_incumbent: 0,
    };
    let cfg = RunConfig::default();
    assert!(cfg.strict, "strict schedule validation must stay on");
    let start = Instant::now();
    let result = run_scheduler(catalog, trace, &mut timed, &cfg);
    let wall_s = start.elapsed().as_secs_f64();

    let slots = trace.num_slots();
    if timed.started != slots || result.slots != slots {
        return Err(format!(
            "{} decisions for {} trace slots (runner reports {})",
            timed.started, slots, result.slots
        ));
    }
    let m = &result.metrics;
    if m.served + m.dropped != result.offered {
        return Err(format!(
            "request conservation broken: served {} + dropped {} != offered {}",
            m.served, m.dropped, result.offered
        ));
    }
    let panicked = timed.started - timed.decide_ms.len();
    let run = Run {
        wall_s,
        failed_slots: panicked + timed.no_incumbent,
        decide_ms: timed.decide_ms,
        observe_ms: timed.observe_ms,
    };
    Ok((run, Quality::of(&result)))
}

/// The schedule-quality outputs of one run, compared bitwise across runs.
#[derive(Debug, Clone)]
pub struct Quality {
    pub total_loss: f64,
    pub offered: u64,
    pub served: u64,
    pub dropped: u64,
    pub slo_failures: u64,
    /// Normalised completion times, ascending.
    pub completions: Vec<f64>,
}

impl Quality {
    fn of(result: &RunResult) -> Quality {
        let m = &result.metrics;
        // The CDF keeps its samples private; its serialised form is the
        // sorted sample list.
        let completions = Serialize::to_value(&m.cdf)
            .get("samples")
            .and_then(|v| v.as_array())
            .map(|a| a.iter().filter_map(|v| v.as_f64()).collect())
            .unwrap_or_default();
        Quality {
            total_loss: m.total_loss,
            offered: result.offered,
            served: m.served,
            dropped: m.dropped,
            slo_failures: m.slo_failures,
            completions,
        }
    }

    /// Bitwise equality, floats included.
    pub fn same(&self, other: &Quality) -> bool {
        self.total_loss.to_bits() == other.total_loss.to_bits()
            && (self.offered, self.served, self.dropped, self.slo_failures)
                == (
                    other.offered,
                    other.served,
                    other.dropped,
                    other.slo_failures,
                )
            && self.completions.len() == other.completions.len()
            && self
                .completions
                .iter()
                .zip(&other.completions)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Quality pooled over the instances of one run.
#[derive(Debug, Clone, Copy)]
pub struct Pooled {
    /// Sum of `RunMetrics::total_loss`.
    pub total_loss: f64,
    /// Late or dropped requests per 100 served-or-dropped requests.
    pub slo_fail_pct: f64,
    /// Dropped requests per 100 offered.
    pub drop_pct: f64,
    /// p95 of the pooled normalised completion times.
    pub completion_p95: f64,
    pub dropped: u64,
    pub slo_failures: u64,
}

pub fn pool(qualities: &[Quality]) -> Pooled {
    let sum = |f: fn(&Quality) -> u64| qualities.iter().map(f).sum::<u64>();
    let (offered, served, dropped, failures) = (
        sum(|q| q.offered),
        sum(|q| q.served),
        sum(|q| q.dropped),
        sum(|q| q.slo_failures),
    );
    let mut completions: Vec<f64> = qualities
        .iter()
        .flat_map(|q| q.completions.iter().copied())
        .collect();
    completions.sort_by(f64::total_cmp);
    Pooled {
        total_loss: qualities.iter().map(|q| q.total_loss).sum(),
        slo_fail_pct: 100.0 * failures as f64 / (served + dropped).max(1) as f64,
        drop_pct: 100.0 * dropped as f64 / offered.max(1) as f64,
        completion_p95: crate::quantile(&completions, 0.95),
        dropped,
        slo_failures: failures,
    }
}
