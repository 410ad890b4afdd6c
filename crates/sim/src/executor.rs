//! The slot executor: runs a [`Schedule`] against ground truth.
//!
//! Each edge owns an accelerator that executes its deployed batches
//! sequentially (the paper time-slices models within the slot; a serialised
//! order with the same total busy time gives the same completion-time
//! distribution family). A batch's execution time is the ground-truth
//! batch latency (paper Eq. 7 with the *true* TIR curve) times log-normal
//! measurement noise. Batches whose application received redistributed
//! requests cannot start before those requests arrive over the wireless
//! link.
//!
//! Edges are mutually independent within a slot, so the executor fans out
//! over them with rayon; per-(edge, slot) RNG streams keep results
//! bit-identical across thread counts.

use rand::RngExt;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use birp_models::{AppId, Catalog, EdgeId, ModelId};

use crate::noise::{exec_noise, stream_rng};
use crate::schedule::{network_usage_mb, Schedule};

/// Simulator knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    pub seed: u64,
    /// Sigma of the multiplicative log-normal execution noise.
    pub exec_noise_sigma: f64,
    /// Randomise per-edge batch execution order (seeded); otherwise batches
    /// run in planner order.
    pub shuffle_batches: bool,
    /// Injected outages / degradations (empty by default).
    #[serde(default)]
    pub faults: crate::faults::FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xB1E9,
            exec_noise_sigma: 0.08,
            shuffle_batches: true,
            faults: crate::faults::FaultPlan::none(),
        }
    }
}

/// One executed batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchOutcome {
    pub edge: EdgeId,
    pub app: AppId,
    pub model: ModelId,
    pub batch: u32,
    /// When the batch started on the accelerator, ms into the slot.
    pub start_ms: f64,
    /// Measured execution time, ms.
    pub exec_ms: f64,
    /// Completion time of every request in the batch, normalised by the
    /// slot duration (1.0 = the SLO boundary).
    pub completion_norm: f64,
    /// `b * gamma / exec_ms` — the throughput-improvement ratio the
    /// scheduler observes and feeds to the MAB tuner.
    pub observed_tir: f64,
}

/// Everything the simulator reports for one slot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotOutcome {
    pub t: usize,
    pub batches: Vec<BatchOutcome>,
    /// Inference loss of the slot (paper Eq. 10 restricted to `t`).
    pub loss: f64,
    /// Accelerator busy time per edge, ms.
    pub compute_used_ms: Vec<f64>,
    /// Network budget consumed per edge, MB.
    pub network_used_mb: Vec<f64>,
    pub served: u64,
    pub unserved: u64,
    /// Served requests that finished after the slot boundary.
    pub slo_violations: u64,
}

impl SlotOutcome {
    /// Iterator over per-request completion times (normalised).
    pub fn completions(&self) -> impl Iterator<Item = f64> + '_ {
        self.batches
            .iter()
            .flat_map(|b| std::iter::repeat_n(b.completion_norm, b.batch as usize))
    }
}

/// The simulator: a catalog plus noise configuration.
#[derive(Debug, Clone)]
pub struct EdgeSim {
    catalog: Catalog,
    cfg: SimConfig,
}

impl EdgeSim {
    pub fn new(catalog: Catalog, cfg: SimConfig) -> Self {
        EdgeSim { catalog, cfg }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Execute one slot. `prev` is last slot's schedule (for model-transfer
    /// network accounting).
    pub fn execute_slot(&self, schedule: &Schedule, prev: Option<&Schedule>) -> SlotOutcome {
        let ne = self.catalog.num_edges();
        let per_edge: Vec<EdgeOutcome> = (0..ne)
            .into_par_iter()
            .map(|e| self.execute_edge(EdgeId(e), schedule))
            .collect();

        let mut batches = Vec::new();
        let mut compute_used_ms = Vec::with_capacity(ne);
        let mut network_used_mb = Vec::with_capacity(ne);
        let mut slo_violations = 0u64;
        for (e, out) in per_edge.into_iter().enumerate() {
            compute_used_ms.push(out.busy_ms);
            network_used_mb.push(network_usage_mb(&self.catalog, schedule, prev, EdgeId(e)));
            slo_violations += out
                .batches
                .iter()
                .filter(|b| b.completion_norm > 1.0)
                .map(|b| b.batch as u64)
                .sum::<u64>();
            batches.extend(out.batches);
        }

        SlotOutcome {
            t: schedule.t,
            loss: schedule.loss(&self.catalog),
            served: schedule.served(),
            unserved: schedule.total_unserved(),
            batches,
            compute_used_ms,
            network_used_mb,
            slo_violations,
        }
    }

    /// Wireless arrival delay (ms) of app `a`'s redistributed requests at
    /// edge `k`: inbound bytes over the edge's bandwidth, accumulated per
    /// source link so injected link faults scale (or sever) each path
    /// independently. A dead link (`factor == 0`) means those requests
    /// never arrive within the slot: the batch waits far past the SLO.
    fn inbound_delay_ms(&self, schedule: &Schedule, a: AppId, k: EdgeId) -> f64 {
        let inbound = schedule.routing.inbound(a, k);
        if inbound == 0 {
            return 0.0;
        }
        let per_request_ms =
            self.catalog.app(a).request_mb * 8.0 / self.catalog.edge(k).bandwidth_mbps * 1000.0;
        let mut delay = 0.0;
        for src in 0..self.catalog.num_edges() {
            if src == k.index() {
                continue;
            }
            let n = schedule.routing.get(a, EdgeId(src), k);
            if n == 0 {
                continue;
            }
            let factor = self.cfg.faults.link_factor(EdgeId(src), k, schedule.t);
            if factor <= 0.0 {
                return crate::faults::OUTAGE_COMPLETION * self.catalog.slot_ms;
            }
            delay += per_request_ms * n as f64 / factor;
        }
        delay
    }

    fn execute_edge(&self, k: EdgeId, schedule: &Schedule) -> EdgeOutcome {
        let mut rng = stream_rng(self.cfg.seed, k.index(), schedule.t);
        let edge = self.catalog.edge(k);
        let slot_ms = self.catalog.slot_ms;

        // Expand deployments into executable units: whole batches in batch
        // mode, single-request units in serial mode (no TIR benefit).
        struct Unit {
            app: AppId,
            model: ModelId,
            batch: u32,
            offset_ms: f64,
            order_key: f64,
            /// Report this unit's observed TIR (single requests of a serial
            /// expansion do not constitute a batch measurement).
            is_batch: bool,
        }
        let mut units: Vec<Unit> = Vec::new();
        for d in &schedule.deployments[k.index()] {
            let offset = self.inbound_delay_ms(schedule, d.app, k);
            if schedule.serial {
                for _ in 0..d.batch {
                    units.push(Unit {
                        app: d.app,
                        model: d.model,
                        batch: 1,
                        offset_ms: offset,
                        order_key: 0.0,
                        is_batch: false,
                    });
                }
            } else {
                units.push(Unit {
                    app: d.app,
                    model: d.model,
                    batch: d.batch,
                    offset_ms: offset,
                    order_key: 0.0,
                    is_batch: true,
                });
            }
        }
        if self.cfg.shuffle_batches {
            for u in &mut units {
                u.order_key = rng.random_range(0.0..1.0);
            }
            units.sort_by(|a, b| a.order_key.partial_cmp(&b.order_key).unwrap());
        }

        // Fault state for this (edge, slot).
        let down = self.cfg.faults.is_down(k, schedule.t);
        let slowdown = self.cfg.faults.slowdown(k, schedule.t);

        let mut cur_ms = 0.0f64;
        let mut busy_ms = 0.0f64;
        let mut batches = Vec::with_capacity(units.len());
        for u in units {
            let gamma = edge.gamma_ms[u.model.index()];
            if down {
                // The edge is dark: the batch never executes. Its requests
                // blow far past the SLO and the observed TIR collapses —
                // exactly what a scheduler's monitoring would report.
                batches.push(BatchOutcome {
                    edge: k,
                    app: u.app,
                    model: u.model,
                    batch: u.batch,
                    start_ms: 0.0,
                    exec_ms: 0.0,
                    completion_norm: crate::faults::OUTAGE_COMPLETION,
                    observed_tir: 0.0,
                });
                continue;
            }
            let truth = &edge.tir_truth[u.model.index()];
            let ideal = birp_tir::latency(gamma, u.batch, truth) * slowdown;
            let exec = ideal * exec_noise(&mut rng, self.cfg.exec_noise_sigma);
            let start = cur_ms.max(u.offset_ms);
            let completion = start + exec;
            cur_ms = completion;
            busy_ms += exec;
            let observed_tir = if u.is_batch {
                u.batch as f64 * gamma / exec
            } else {
                1.0
            };
            batches.push(BatchOutcome {
                edge: k,
                app: u.app,
                model: u.model,
                batch: u.batch,
                start_ms: start,
                exec_ms: exec,
                completion_norm: completion / slot_ms,
                observed_tir,
            });
        }
        EdgeOutcome { batches, busy_ms }
    }
}

struct EdgeOutcome {
    batches: Vec<BatchOutcome>,
    busy_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Deployment;
    use birp_models::Catalog;

    fn setup() -> (EdgeSim, Schedule) {
        let catalog = Catalog::small_scale(5);
        let mut s = Schedule::empty(0, catalog.num_apps(), catalog.num_edges());
        s.routing.set(AppId(0), EdgeId(0), EdgeId(0), 6);
        s.routing.set(AppId(0), EdgeId(1), EdgeId(0), 2);
        s.deployments[0].push(Deployment {
            app: AppId(0),
            model: ModelId(0),
            batch: 8,
        });
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                ..Default::default()
            },
        );
        (sim, s)
    }

    #[test]
    fn noiseless_execution_matches_ground_truth() {
        let (sim, s) = setup();
        let out = sim.execute_slot(&s, None);
        assert_eq!(out.batches.len(), 1);
        let b = &out.batches[0];
        let expected = sim.catalog().edge(EdgeId(0)).true_batch_latency_ms(0, 8);
        assert!((b.exec_ms - expected).abs() < 1e-9);
        // Observed TIR equals the true TIR without noise.
        let truth = sim.catalog().true_tir(EdgeId(0), ModelId(0)).tir(8);
        assert!((b.observed_tir - truth).abs() < 1e-9);
        assert_eq!(out.served, 8);
    }

    #[test]
    fn inbound_requests_delay_start() {
        let (sim, s) = setup();
        let out = sim.execute_slot(&s, None);
        let b = &out.batches[0];
        // 2 requests x 1.5 MB inbound over edge-0 bandwidth.
        let expected_delay =
            2.0 * 1.5 * 8.0 / sim.catalog().edge(EdgeId(0)).bandwidth_mbps * 1000.0;
        assert!((b.start_ms - expected_delay).abs() < 1e-9);
    }

    #[test]
    fn serial_mode_expands_to_unit_batches() {
        let (sim, mut s) = setup();
        s.serial = true;
        let out = sim.execute_slot(&s, None);
        assert_eq!(out.batches.len(), 8);
        assert!(out.batches.iter().all(|b| b.batch == 1));
        // Serial total busy time = 8 * gamma (no TIR benefit).
        let gamma = sim.catalog().gamma_ms(EdgeId(0), ModelId(0));
        assert!((out.compute_used_ms[0] - 8.0 * gamma).abs() < 1e-6);
        // Batch mode is strictly faster.
        let mut s2 = s.clone();
        s2.serial = false;
        let out2 = sim.execute_slot(&s2, None);
        assert!(out2.compute_used_ms[0] < out.compute_used_ms[0]);
    }

    #[test]
    fn execution_is_deterministic_and_thread_count_independent() {
        let catalog = Catalog::small_scale(5);
        let mut s = Schedule::empty(0, catalog.num_apps(), catalog.num_edges());
        for e in 0..6 {
            s.routing.set(AppId(0), EdgeId(e), EdgeId(e), 4);
            s.deployments[e].push(Deployment {
                app: AppId(0),
                model: ModelId(0),
                batch: 4,
            });
        }
        let sim = EdgeSim::new(catalog.clone(), SimConfig::default());
        let a = sim.execute_slot(&s, None);
        // The same edges run one by one on this thread.
        let b: Vec<BatchOutcome> = (0..catalog.num_edges())
            .flat_map(|e| sim.execute_edge(EdgeId(e), &s).batches)
            .collect();
        assert_eq!(a.batches.len(), b.len());
        for (x, y) in a.batches.iter().zip(&b) {
            assert_eq!(x.edge, y.edge);
            assert_eq!(x.exec_ms, y.exec_ms);
        }
    }

    #[test]
    fn slo_violation_counting() {
        // Force an overload: a huge serial pile on one slow edge.
        let catalog = Catalog::small_scale(5);
        let slot_ms = catalog.slot_ms;
        let mut s = Schedule::empty(0, 1, catalog.num_edges());
        s.routing.set(AppId(0), EdgeId(2), EdgeId(2), 16);
        // model 2 is the xl model: 16 of them serially blow way past tau.
        s.deployments[2].push(Deployment {
            app: AppId(0),
            model: ModelId(2),
            batch: 16,
        });
        s.serial = true;
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                ..Default::default()
            },
        );
        let out = sim.execute_slot(&s, None);
        assert!(out.slo_violations > 0, "expected overruns");
        let last = out
            .batches
            .iter()
            .map(|b| b.completion_norm)
            .fold(0.0, f64::max);
        assert!(last > 1.0, "last completion {last} (slot_ms {slot_ms})");
    }

    #[test]
    fn outage_fails_batches_without_executing() {
        let (sim_base, s) = setup();
        let catalog = sim_base.catalog().clone();
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                faults: crate::faults::FaultPlan::none().with_outage(EdgeId(0), 0, 1),
                ..Default::default()
            },
        );
        let out = sim.execute_slot(&s, None);
        assert_eq!(out.batches.len(), 1);
        let b = &out.batches[0];
        assert_eq!(b.exec_ms, 0.0);
        assert_eq!(b.observed_tir, 0.0);
        assert!(b.completion_norm > 1.0, "outage must violate the SLO");
        assert_eq!(out.compute_used_ms[0], 0.0);
        assert!(out.slo_violations >= 8);
    }

    #[test]
    fn degradation_scales_execution_time() {
        let (sim_base, s) = setup();
        let catalog = sim_base.catalog().clone();
        let healthy = sim_base.execute_slot(&s, None);
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                faults: crate::faults::FaultPlan::none().with_degradation(EdgeId(0), 0, 1, 3.0),
                ..Default::default()
            },
        );
        let degraded = sim.execute_slot(&s, None);
        let h = healthy.batches[0].exec_ms;
        let d = degraded.batches[0].exec_ms;
        assert!(
            (d / h - 3.0).abs() < 1e-9,
            "expected 3x slowdown, got {}",
            d / h
        );
        // Observed TIR shrinks accordingly — the MAB sees the edge go bad.
        assert!(degraded.batches[0].observed_tir < healthy.batches[0].observed_tir);
    }

    #[test]
    fn degraded_link_stretches_inbound_delay() {
        let (sim_base, s) = setup();
        let catalog = sim_base.catalog().clone();
        let healthy = sim_base.execute_slot(&s, None);
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                faults: crate::faults::FaultPlan::none().with_link_fault(
                    EdgeId(1),
                    EdgeId(0),
                    0,
                    1,
                    0.25,
                ),
                ..Default::default()
            },
        );
        let degraded = sim.execute_slot(&s, None);
        // The 2 requests shipped 1 -> 0 take 4x longer to arrive.
        assert!(
            (degraded.batches[0].start_ms - 4.0 * healthy.batches[0].start_ms).abs() < 1e-9,
            "start {} vs healthy {}",
            degraded.batches[0].start_ms,
            healthy.batches[0].start_ms
        );
    }

    #[test]
    fn dead_link_blows_the_slo_without_killing_the_edge() {
        let (sim_base, s) = setup();
        let catalog = sim_base.catalog().clone();
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                faults: crate::faults::FaultPlan::none().with_link_fault(
                    EdgeId(1),
                    EdgeId(0),
                    0,
                    1,
                    0.0,
                ),
                ..Default::default()
            },
        );
        let out = sim.execute_slot(&s, None);
        let b = &out.batches[0];
        // The batch still executes (the edge is healthy) but cannot start
        // before its stranded inbound requests, far past the slot boundary.
        assert!(b.exec_ms > 0.0);
        assert!(
            b.completion_norm >= crate::faults::OUTAGE_COMPLETION,
            "completion {}",
            b.completion_norm
        );
        assert!(out.slo_violations >= 8);
    }

    #[test]
    fn flaky_edge_alternates_outage_slots() {
        let (sim_base, s) = setup();
        let catalog = sim_base.catalog().clone();
        let sim = EdgeSim::new(
            catalog,
            SimConfig {
                exec_noise_sigma: 0.0,
                faults: crate::faults::FaultPlan::none().with_flaky(EdgeId(0), 0, 10, 2, 1),
                ..Default::default()
            },
        );
        let mut s0 = s.clone();
        s0.t = 0; // down phase
        let mut s1 = s.clone();
        s1.t = 1; // up phase
        let down = sim.execute_slot(&s0, None);
        let up = sim.execute_slot(&s1, None);
        assert_eq!(down.batches[0].exec_ms, 0.0);
        assert_eq!(
            down.batches[0].completion_norm,
            crate::faults::OUTAGE_COMPLETION
        );
        assert!(up.batches[0].exec_ms > 0.0);
        assert!(up.batches[0].completion_norm < 1.0);
    }

    #[test]
    fn completions_iterator_length_matches_served() {
        let (sim, s) = setup();
        let out = sim.execute_slot(&s, None);
        assert_eq!(out.completions().count() as u64, out.served);
    }

    #[test]
    fn noise_changes_exec_but_preserves_mean() {
        let catalog = Catalog::small_scale(5);
        let mut s = Schedule::empty(0, 1, catalog.num_edges());
        s.routing.set(AppId(0), EdgeId(0), EdgeId(0), 4);
        s.deployments[0].push(Deployment {
            app: AppId(0),
            model: ModelId(0),
            batch: 4,
        });
        let ideal = catalog.edge(EdgeId(0)).true_batch_latency_ms(0, 4);
        let mut sum = 0.0;
        let n = 200;
        for t in 0..n {
            let mut st = s.clone();
            st.t = t;
            let sim = EdgeSim::new(
                catalog.clone(),
                SimConfig {
                    exec_noise_sigma: 0.15,
                    ..Default::default()
                },
            );
            sum += sim.execute_slot(&st, None).batches[0].exec_ms;
        }
        let mean = sum / n as f64;
        assert!(
            (mean / ideal - 1.0).abs() < 0.05,
            "mean ratio {}",
            mean / ideal
        );
    }
}
