//! Resilience head-to-head: BIRP with and without the failure-detection /
//! quarantine-and-reroute layer under a canned fault plan.
//!
//! Three runs over the same trace:
//!
//! 1. **blind** — BIRP with faults injected, resilience off (the
//!    pre-robustness behaviour: the scheduler keeps planning onto dark
//!    edges),
//! 2. **resilient** — same faults, [`RunConfig::resilience`] on,
//! 3. **fault-free** — no faults, resilience on (the false-positive
//!    control: the detector must stay silent).
//!
//! The headline numbers are SLO failures *inside* vs *outside* the plan's
//! down-windows, the detection latency in slots, and the false-positive
//! quarantine count. Only this experiment code reads the [`FaultPlan`] —
//! to split metrics by window after the fact; the detector and schedulers
//! never see it.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use birp_mab::MabConfig;
use birp_models::{Catalog, EdgeId};
use birp_sim::{FaultPlan, SimConfig};
use birp_solver::SolverConfig;
use birp_workload::{Trace, TraceConfig};

use crate::health::HealthConfig;
use crate::runner::{run_scheduler, RunConfig, RunResult};
use crate::schedulers::{Birp, Scheduler};

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    pub catalog: Catalog,
    pub trace: TraceConfig,
    /// The injected faults (executor-side only).
    pub faults: FaultPlan,
    /// Detector tuning for the resilient runs.
    pub health: HealthConfig,
    pub mab: MabConfig,
    pub solver: SolverConfig,
    pub seed: u64,
    /// The edge whose hard outage anchors the detection-latency metric.
    pub outage_edge: EdgeId,
    /// First slot of that outage.
    pub outage_from: usize,
}

impl ResilienceConfig {
    /// The canned plan, scaled to `slots`: a hard outage on edge 2 for the
    /// second quarter of the horizon, a degraded link into edge 3 inside
    /// that window, and a flaky (intermittent) edge 4 later on.
    pub fn with_horizon(seed: u64, slots: usize) -> Self {
        let outage_from = slots / 4;
        let outage_to = slots / 2;
        let flaky_from = slots * 5 / 8;
        let flaky_to = slots * 7 / 8;
        let faults = FaultPlan::default()
            .with_outage(EdgeId(2), outage_from, outage_to)
            .with_link_fault(EdgeId(1), EdgeId(3), outage_from + 2, outage_to, 0.25)
            .with_flaky(EdgeId(4), flaky_from, flaky_to, 3, 2);
        ResilienceConfig {
            catalog: Catalog::small_scale(seed),
            trace: TraceConfig {
                num_slots: slots,
                mean_rate: 8.0,
                ..TraceConfig::small_scale(seed)
            },
            faults,
            health: HealthConfig::default(),
            mab: MabConfig::paper_preset(),
            solver: SolverConfig::scheduling(),
            seed,
            outage_edge: EdgeId(2),
            outage_from,
        }
    }

    /// Full horizon (48 slots — outage [12,24), flaky [30,42)).
    pub fn paper_preset(seed: u64) -> Self {
        Self::with_horizon(seed, 48)
    }

    /// CI-sized horizon (28 slots).
    pub fn smoke(seed: u64) -> Self {
        Self::with_horizon(seed, 28)
    }
}

/// One run's headline figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    pub label: String,
    pub total_loss: f64,
    pub failure_rate_pct: f64,
    /// SLO failures during slots where the plan has some edge down.
    pub slo_failures_in_window: u64,
    /// SLO failures in fault-free slots.
    pub slo_failures_out_window: u64,
    pub served: u64,
    pub dropped: u64,
    pub offered: u64,
    /// Requests moved off masked edges (0 when resilience is off).
    pub rerouted: u64,
    /// Recovery probes placed (0 when resilience is off).
    pub probes: u64,
    pub quarantine_events: usize,
}

/// The experiment's serialisable record (written to `results/resilience.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResilienceResult {
    pub slots: usize,
    pub seed: u64,
    /// Slots in which the plan has at least one edge down.
    pub in_window_slots: usize,
    pub blind: RunSummary,
    pub resilient: RunSummary,
    pub fault_free: RunSummary,
    /// Slots from the anchor outage's start to its quarantine (`None` =
    /// never detected).
    pub detection_latency_slots: Option<usize>,
    /// Quarantine episodes on the fault-free control run (must be 0).
    pub false_positive_quarantines: usize,
}

fn summarize(label: &str, run: &RunResult, in_window: &[bool]) -> RunSummary {
    let mut inside = 0u64;
    let mut outside = 0u64;
    for (t, &f) in run.metrics.failures_by_slot.iter().enumerate() {
        if in_window.get(t).copied().unwrap_or(false) {
            inside += f;
        } else {
            outside += f;
        }
    }
    let health = run.health.as_ref();
    RunSummary {
        label: label.to_string(),
        total_loss: run.metrics.total_loss,
        failure_rate_pct: run.metrics.failure_rate_pct,
        slo_failures_in_window: inside,
        slo_failures_out_window: outside,
        served: run.metrics.served,
        dropped: run.metrics.dropped,
        offered: run.offered,
        rerouted: health.map_or(0, |h| h.rerouted),
        probes: health.map_or(0, |h| h.probes),
        quarantine_events: health.map_or(0, |h| h.events.len()),
    }
}

/// Run the three-way comparison.
pub fn resilience_experiment(cfg: &ResilienceConfig) -> ResilienceResult {
    let trace: Trace = cfg.trace.generate();
    let slots = cfg.trace.num_slots;
    let ne = cfg.catalog.num_edges();
    // Post-hoc window split — experiment bookkeeping, never scheduler input.
    let in_window: Vec<bool> = (0..slots)
        .map(|t| (0..ne).any(|k| cfg.faults.is_down(EdgeId(k), t)))
        .collect();

    let variants: [(&str, bool, bool); 3] = [
        ("BIRP (fault-blind)", true, false),
        ("BIRP + resilience", true, true),
        ("BIRP + resilience (fault-free)", false, true),
    ];
    let runs: Vec<RunResult> = variants
        .par_iter()
        .map(|&(_, faulted, resilient)| {
            let run_cfg = RunConfig {
                sim: SimConfig {
                    faults: if faulted {
                        cfg.faults.clone()
                    } else {
                        FaultPlan::default()
                    },
                    seed: cfg.seed,
                    ..SimConfig::default()
                },
                resilience: resilient.then_some(cfg.health),
                ..RunConfig::default()
            };
            let mut scheduler: Box<dyn Scheduler + Send> =
                Box::new(Birp::new(cfg.catalog.clone(), cfg.mab).with_solver(cfg.solver.clone()));
            run_scheduler(&cfg.catalog, &trace, scheduler.as_mut(), &run_cfg)
        })
        .collect();

    let detection_latency_slots = runs[1].health.as_ref().and_then(|h| {
        h.events
            .iter()
            .find(|e| e.edge == cfg.outage_edge && e.entered >= cfg.outage_from)
            .map(|e| e.entered - cfg.outage_from)
    });
    let false_positive_quarantines = runs[2].health.as_ref().map_or(0, |h| h.events.len());

    ResilienceResult {
        slots,
        seed: cfg.seed,
        in_window_slots: in_window.iter().filter(|&&w| w).count(),
        blind: summarize(variants[0].0, &runs[0], &in_window),
        resilient: summarize(variants[1].0, &runs[1], &in_window),
        fault_free: summarize(variants[2].0, &runs[2], &in_window),
        detection_latency_slots,
        false_positive_quarantines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_reduces_in_window_slo_failures() {
        let cfg = ResilienceConfig::smoke(42);
        let r = resilience_experiment(&cfg);
        assert!(
            r.resilient.slo_failures_in_window < r.blind.slo_failures_in_window,
            "resilient BIRP must strictly beat fault-blind BIRP inside fault \
             windows: resilient={} blind={}",
            r.resilient.slo_failures_in_window,
            r.blind.slo_failures_in_window
        );
        assert_eq!(
            r.false_positive_quarantines, 0,
            "the fault-free control run must never quarantine"
        );
        let latency = r
            .detection_latency_slots
            .expect("the anchor outage must be detected");
        assert!(latency <= 4, "detection took {latency} slots");
        for s in [&r.blind, &r.resilient, &r.fault_free] {
            assert_eq!(s.served + s.dropped, s.offered, "{}", s.label);
        }
    }

    #[test]
    fn resilience_experiment_is_bitwise_reproducible() {
        let cfg = ResilienceConfig::smoke(7);
        let a = serde_json::to_string(&resilience_experiment(&cfg)).unwrap();
        let b = serde_json::to_string(&resilience_experiment(&cfg)).unwrap();
        assert_eq!(a, b, "same seed must reproduce the exact result");
    }
}
