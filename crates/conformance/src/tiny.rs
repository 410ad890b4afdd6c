//! Tiny randomized BIRP slot instances.
//!
//! "Tiny" means the full decision space — every deployment/batch assignment
//! plus the residual routing — fits a brute-force sweep: at most 3 edges,
//! 2 applications, 2 versions per application, batch thresholds of 2–3 and
//! per-cell demand of 2–4 requests. The generator still spans every
//! structural feature of the real problem: batched and serial modes, warm
//! previous deployments (free redeploys vs paid transfers), quarantine
//! masks, and drop penalties other than the default.
//!
//! The same sampler backs the differential proptests and the
//! `birp conformance --oracle` CLI smoke, so a failing case can be
//! re-examined outside the test harness by seed.

use birp_core::{DemandMatrix, ExecutionMode, ProblemConfig, SlotProblem, TirMatrix};
use birp_models::catalog::NETWORK_WINDOW_S;
use birp_models::{
    AppId, Application, Catalog, DeviceKind, EdgeDevice, EdgeId, ModelId, ModelVersion, UtilProfile,
};
use birp_sim::{Deployment, Schedule};
use birp_tir::TirParams;
use proptest::{Strategy, TestRng};

/// One fully-specified slot problem: the static world, the demand, the
/// planner's TIR estimates, the previous slot's deployments and the builder
/// knobs.
#[derive(Debug, Clone)]
pub struct TinyInstance {
    pub catalog: Catalog,
    pub demand: DemandMatrix,
    pub tir: TirMatrix,
    pub prev: Option<Schedule>,
    pub cfg: ProblemConfig,
}

impl TinyInstance {
    /// Slot index the instance solves (1 when a previous schedule exists,
    /// matching how the runner would reach this state).
    pub fn slot(&self) -> usize {
        usize::from(self.prev.is_some())
    }

    /// Lower the instance to its per-slot MILP.
    pub fn problem(&self) -> SlotProblem {
        SlotProblem::build(
            &self.catalog,
            self.slot(),
            &self.demand,
            &self.tir,
            self.prev.as_ref(),
            &self.cfg,
        )
    }
}

/// Sample one tiny instance from the shared deterministic test RNG.
pub fn sample_tiny_instance(rng: &mut TestRng) -> TinyInstance {
    let ne = (1usize..=3).sample(rng);
    let na = (1usize..=2).sample(rng);
    let nv = (1usize..=2).sample(rng);
    let nm = na * nv;
    // Keep the oracle's enumeration volume flat: larger shapes get smaller
    // batch thresholds and demand cells.
    let (beta_max, demand_max) = if ne * nm > 8 { (2u32, 2u32) } else { (3, 4) };

    // --- model zoo ------------------------------------------------------
    let mut apps = Vec::with_capacity(na);
    let mut models = Vec::with_capacity(nm);
    for a in 0..na {
        let mut ids = Vec::with_capacity(nv);
        for v in 0..nv {
            let id = ModelId(models.len());
            ids.push(id);
            models.push(ModelVersion {
                id,
                app: AppId(a),
                name: format!("tiny-a{a}-v{v}"),
                loss: (0.15f64..0.49).sample(rng),
                gamma_base_ms: (10.0f64..80.0).sample(rng),
                weight_mb: (40.0f64..160.0).sample(rng),
                compressed_mb: (8.0f64..30.0).sample(rng),
                intermediate_mb: (10.0f64..60.0).sample(rng),
            });
        }
        apps.push(Application {
            id: AppId(a),
            name: format!("tiny-app{a}"),
            request_mb: (0.2f64..1.5).sample(rng),
            models: ids,
        });
    }

    // --- edges ----------------------------------------------------------
    let slot_ms = (30.0f64..250.0).sample(rng);
    let mut tir_cells = Vec::with_capacity(ne * nm);
    let mut edges = Vec::with_capacity(ne);
    for e in 0..ne {
        let factor = (0.8f64..2.5).sample(rng);
        let gamma_ms: Vec<f64> = models.iter().map(|m| m.gamma_base_ms * factor).collect();
        let mut tir_truth = Vec::with_capacity(nm);
        for _ in 0..nm {
            let p = TirParams::consistent((0.12f64..0.36).sample(rng), (1..=beta_max).sample(rng));
            tir_truth.push(p);
            tir_cells.push(p);
        }
        let network_budget_mb = (2.0f64..60.0).sample(rng);
        edges.push(EdgeDevice {
            id: EdgeId(e),
            kind: DeviceKind::JetsonNX,
            name: format!("tiny-edge{e}"),
            memory_mb: (80.0f64..500.0).sample(rng),
            bandwidth_mbps: network_budget_mb * 8.0 / NETWORK_WINDOW_S,
            network_budget_mb,
            gamma_ms,
            tir_truth,
            util: vec![UtilProfile::zero(); nm],
        });
    }
    let catalog = Catalog {
        apps,
        models,
        edges,
        slot_ms,
        seed: 0,
    };
    debug_assert!(catalog.validate().is_ok(), "tiny catalog must validate");
    // The planner estimates equal the ground truth here; the differential
    // suite probes the solver, not the learning loop.
    let tir = TirMatrix::from_fn(ne, nm, |e, m| tir_cells[e * nm + m]);

    // --- demand ---------------------------------------------------------
    let mut demand = DemandMatrix::zeros(na, ne);
    for a in 0..na {
        for e in 0..ne {
            demand.set(AppId(a), EdgeId(e), (0..=demand_max).sample(rng));
        }
    }

    // --- previous deployments (half the instances) ----------------------
    let prev = if rng.next_f64() < 0.5 {
        let mut prev = Schedule::empty(0, na, ne);
        for e in 0..ne {
            for m in 0..nm {
                if rng.next_f64() < 0.25 {
                    prev.deployments[e].push(Deployment {
                        app: catalog.models[m].app,
                        model: ModelId(m),
                        batch: 1,
                    });
                }
            }
        }
        Some(prev)
    } else {
        None
    };

    // --- builder knobs --------------------------------------------------
    let mode = if rng.next_f64() < 0.25 {
        ExecutionMode::Serial {
            max_serial: (1u32..=3).sample(rng),
        }
    } else {
        ExecutionMode::Batched
    };
    let drop_penalty = if rng.next_f64() < 0.5 {
        1.0
    } else {
        // Always above the worst model loss (0.49) so serving dominates.
        (0.6f64..2.0).sample(rng)
    };
    let masked_edges = if ne >= 2 && rng.next_f64() < 0.25 {
        let mut mask = vec![false; ne];
        mask[(0..ne).sample(rng)] = true;
        Some(mask)
    } else {
        None
    };

    TinyInstance {
        catalog,
        demand,
        tir,
        prev,
        cfg: ProblemConfig {
            mode,
            drop_penalty,
            masked_edges,
        },
    }
}

/// [`Strategy`] adapter over [`sample_tiny_instance`] for `proptest!` use.
pub fn arb_tiny_instance() -> ArbTinyInstance {
    ArbTinyInstance
}

/// See [`arb_tiny_instance`].
#[derive(Debug, Clone, Copy)]
pub struct ArbTinyInstance;

impl Strategy for ArbTinyInstance {
    type Value = TinyInstance;
    fn sample(&self, rng: &mut TestRng) -> TinyInstance {
        sample_tiny_instance(rng)
    }
}
