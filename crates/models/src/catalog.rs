//! The [`Catalog`]: everything static about one experimental scenario.
//!
//! A catalog bundles the applications, the flattened model zoo, and the
//! edge devices with their per-model ground truth. Constructors mirror the
//! paper's evaluation setups:
//!
//! * [`Catalog::small_scale`] — 1 application, 3 model versions, 6 edges
//!   (Fig. 6, where the TIR functions were profiled offline),
//! * [`Catalog::large_scale`] — 5 applications x 5 versions = 25 models,
//!   6 edges (Fig. 7),
//! * [`Catalog::fig2`] — LeNet / GoogLeNet / ResNet-18 on a Jetson Nano
//!   with the exact fitted TIR parameters of Fig. 2,
//! * [`Catalog::table1`] — the four Table 1 models on Nano + Atlas with
//!   latencies implied by the published FPS numbers.
//!
//! ## Calibration notes (substitutions recorded in DESIGN.md)
//!
//! The paper uses 15-minute slots on physical hardware; the absolute scale
//! of `tau` is immaterial to the scheduling problem *except* through the
//! one-batch-per-model-per-slot semantics of Eq. 5: the slot must be short
//! enough that the compute constraint (not the batch threshold `beta`)
//! limits throughput, or batching could never beat serial execution. The
//! simulator uses `slot_ms = 2_500`, under which one edge serially executes
//! ~4 (BERT-class) to ~110 (tiny-class) requests per slot — the same
//! relative pressure as the testbed.
//!
//! The network budget is deliberately NOT `bandwidth * slot`: the paper's
//! 15-minute slots make any model transfer trivial, while 2.5 s would make
//! every transfer impossible. We charge a 30-second effective window
//! (`bandwidth_mbps * 30 / 8` MB), which keeps Eq. 9 meaningful — heavy
//! model churn is expensive, request forwarding is cheap — matching the
//! paper's "model weights are transmitted compressed and are not the
//! determining factor" observation (Section 4.1).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use birp_tir::TirParams;

use crate::device::{DeviceKind, EdgeDevice, UtilProfile};
use crate::ids::{AppId, EdgeId, ModelId};
use crate::table1::table1_reference;
use crate::zoo::{version_ladder, Application, ModelVersion};

/// Largest batch size any planner may select; matches the paper's
/// observation that thresholds `beta` stay below 16 (Section 4.2).
pub const MAX_BATCH: u32 = 16;

/// Effective seconds of wireless transfer capacity charged per slot (see
/// the calibration note above).
pub const NETWORK_WINDOW_S: f64 = 30.0;

/// One experimental scenario's static world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Catalog {
    pub apps: Vec<Application>,
    /// Flattened model zoo; `ModelId` indexes this vector.
    pub models: Vec<ModelVersion>,
    pub edges: Vec<EdgeDevice>,
    /// Compute budget per slot in ms (`tau`, paper Eq. 8). The SLO equals
    /// one slot: a request completing after `slot_ms` violates it.
    pub slot_ms: f64,
    /// Seed the ground truth was generated from (for provenance).
    pub seed: u64,
}

impl Catalog {
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    pub fn app(&self, a: AppId) -> &Application {
        &self.apps[a.index()]
    }

    pub fn model(&self, m: ModelId) -> &ModelVersion {
        &self.models[m.index()]
    }

    pub fn edge(&self, e: EdgeId) -> &EdgeDevice {
        &self.edges[e.index()]
    }

    /// Model versions of application `a`, smallest first.
    pub fn models_of(&self, a: AppId) -> &[ModelId] {
        &self.apps[a.index()].models
    }

    /// Ground-truth TIR of model `m` on edge `e` (oracle/simulator only).
    pub fn true_tir(&self, e: EdgeId, m: ModelId) -> &TirParams {
        &self.edges[e.index()].tir_truth[m.index()]
    }

    /// Ground-truth single-request latency of model `m` on edge `e`, ms.
    pub fn gamma_ms(&self, e: EdgeId, m: ModelId) -> f64 {
        self.edges[e.index()].gamma_ms[m.index()]
    }

    /// Internal consistency check; every cross-index must resolve.
    pub fn validate(&self) -> Result<(), String> {
        for (i, app) in self.apps.iter().enumerate() {
            if app.id.index() != i {
                return Err(format!("app {i} has id {}", app.id));
            }
            for &m in &app.models {
                if m.index() >= self.models.len() {
                    return Err(format!("app {i} references missing model {m}"));
                }
                if self.models[m.index()].app != app.id {
                    return Err(format!("model {m} does not back-reference app {i}"));
                }
            }
        }
        for (i, model) in self.models.iter().enumerate() {
            if model.id.index() != i {
                return Err(format!("model {i} has id {}", model.id));
            }
        }
        for (i, edge) in self.edges.iter().enumerate() {
            if edge.id.index() != i {
                return Err(format!("edge {i} has id {}", edge.id));
            }
            for (what, len) in [
                ("gamma_ms", edge.gamma_ms.len()),
                ("tir_truth", edge.tir_truth.len()),
                ("util", edge.util.len()),
            ] {
                if len != self.models.len() {
                    return Err(format!(
                        "edge {i}: {what} has {len} entries, expected {}",
                        self.models.len()
                    ));
                }
            }
            for (m, p) in edge.tir_truth.iter().enumerate() {
                if !p.is_valid() {
                    return Err(format!("edge {i} model {m}: invalid TIR params {p:?}"));
                }
            }
        }
        Ok(())
    }

    // --- scenario constructors -----------------------------------------

    /// The paper's testbed: two instances each of NX / Nano / Atlas.
    fn testbed_edges(models: &[ModelVersion], seed: u64, slot_ms: f64) -> Vec<EdgeDevice> {
        let mut edges = Vec::new();
        let mut idx = 0usize;
        for kind in DeviceKind::all() {
            for instance in 0..2 {
                edges.push(make_edge(
                    EdgeId(idx),
                    kind,
                    &format!(
                        "{}-{}",
                        kind.name().to_lowercase().replace(' ', "-"),
                        instance
                    ),
                    models,
                    seed,
                    slot_ms,
                ));
                idx += 1;
            }
        }
        edges
    }

    /// Small-scale scenario of Fig. 6: 1 application, 3 model versions.
    pub fn small_scale(seed: u64) -> Catalog {
        let ladder = version_ladder(AppId(0), 0, 0.0);
        // Keep tiny / medium / xl, re-indexed densely.
        let mut models: Vec<ModelVersion> = [0usize, 2, 4]
            .iter()
            .enumerate()
            .map(|(new_id, &v)| {
                let mut m = ladder[v].clone();
                m.id = ModelId(new_id);
                m
            })
            .collect();
        for (i, m) in models.iter_mut().enumerate() {
            m.name = format!("det-v{i}");
        }
        let apps = vec![Application {
            id: AppId(0),
            name: "object-detection".into(),
            request_mb: 1.5,
            models: models.iter().map(|m| m.id).collect(),
        }];
        let slot_ms = 2_500.0;
        let edges = Self::testbed_edges(&models, seed, slot_ms);
        let cat = Catalog {
            apps,
            models,
            edges,
            slot_ms,
            seed,
        };
        debug_assert!(cat.validate().is_ok());
        cat
    }

    /// Large-scale scenario of Fig. 7: 5 applications x 5 versions.
    pub fn large_scale(seed: u64) -> Catalog {
        let app_names = [
            "object-detection",
            "face-recognition",
            "image-recognition",
            "nlu",
            "semantic-segmentation",
        ];
        let request_sizes = [1.5, 0.9, 0.4, 0.2, 3.0];
        let mut apps = Vec::new();
        let mut models = Vec::new();
        for (a, (name, req)) in app_names.iter().zip(request_sizes).enumerate() {
            let versions = version_ladder(AppId(a), models.len(), 1.0);
            apps.push(Application {
                id: AppId(a),
                name: (*name).into(),
                request_mb: req,
                models: versions.iter().map(|m| m.id).collect(),
            });
            models.extend(versions);
        }
        let slot_ms = 2_500.0;
        let edges = Self::testbed_edges(&models, seed, slot_ms);
        let cat = Catalog {
            apps,
            models,
            edges,
            slot_ms,
            seed,
        };
        debug_assert!(cat.validate().is_ok());
        cat
    }

    /// Fleet-scale scenario (the end-to-end benchmark's 1000-edge fleet):
    /// the small-scale app/model zoo replicated across `num_edges` devices
    /// cycling through the three testbed kinds. Edges keep per-id
    /// bandwidth draws, so two instances of a kind still differ in their
    /// network budgets exactly as in [`Catalog::small_scale`].
    pub fn fleet_scale(seed: u64, num_edges: usize) -> Catalog {
        let mut cat = Self::small_scale(seed);
        let kinds = DeviceKind::all();
        let models = cat.models.clone();
        cat.edges = (0..num_edges)
            .map(|i| {
                let kind = kinds[(i / 2) % kinds.len()];
                make_edge(
                    EdgeId(i),
                    kind,
                    &format!("fleet-{}-{i}", kind.name().to_lowercase().replace(' ', "-")),
                    &models,
                    seed,
                    cat.slot_ms,
                )
            })
            .collect();
        debug_assert!(cat.validate().is_ok());
        cat
    }

    /// Fig. 2 scenario: the three image-recognition models on one Jetson
    /// Nano, with the paper's exact fitted TIR parameters as ground truth.
    pub fn fig2(seed: u64) -> Catalog {
        let specs: [(&str, f64, TirParams); 3] = [
            ("LeNet", 4.0, TirParams::new(0.32, 5, 1.68)),
            ("GoogLeNet", 24.0, TirParams::new(0.12, 10, 1.30)),
            ("ResNet-18", 31.0, TirParams::new(0.12, 8, 1.28)),
        ];
        let models: Vec<ModelVersion> = specs
            .iter()
            .enumerate()
            .map(|(i, (name, gamma, _))| ModelVersion {
                id: ModelId(i),
                app: AppId(0),
                name: (*name).into(),
                loss: 0.30 - 0.05 * i as f64,
                gamma_base_ms: *gamma,
                weight_mb: 33.0 + 40.0 * i as f64,
                compressed_mb: 7.0 + 8.0 * i as f64,
                intermediate_mb: 55.0 + 30.0 * i as f64,
            })
            .collect();
        let apps = vec![Application {
            id: AppId(0),
            name: "image-recognition".into(),
            request_mb: 0.4,
            models: models.iter().map(|m| m.id).collect(),
        }];
        let slot_ms = 2_500.0;
        let mut edge = make_edge(
            EdgeId(0),
            DeviceKind::JetsonNano,
            "jetson-nano-0",
            &models,
            seed,
            slot_ms,
        );
        // Override generated ground truth with the paper's fitted curves and
        // Nano-measured latencies (gamma_base already Nano-scale here).
        for (m, (_, gamma, tir)) in specs.iter().enumerate() {
            edge.gamma_ms[m] = *gamma;
            edge.tir_truth[m] = *tir;
        }
        let cat = Catalog {
            apps,
            models,
            edges: vec![edge],
            slot_ms,
            seed,
        };
        debug_assert!(cat.validate().is_ok());
        cat
    }

    /// Table 1 scenario: Yolov4-t / Yolov4-n / ResNet-18 / BERT on one
    /// Jetson Nano and one Atlas 200DK, with per-device latency implied by
    /// the published FPS and the published utilisation profiles.
    pub fn table1(seed: u64) -> Catalog {
        let names = ["Yolov4-t", "Yolov4-n", "ResNet-18", "BERT"];
        let losses = [0.42, 0.27, 0.33, 0.17];
        let models: Vec<ModelVersion> = names
            .iter()
            .enumerate()
            .map(|(i, name)| ModelVersion {
                id: ModelId(i),
                app: AppId(0),
                name: (*name).into(),
                loss: losses[i],
                gamma_base_ms: 30.0, // replaced per-device below
                weight_mb: 100.0,
                compressed_mb: 20.0,
                intermediate_mb: 100.0,
            })
            .collect();
        let apps = vec![Application {
            id: AppId(0),
            name: "mixed".into(),
            request_mb: 1.0,
            models: models.iter().map(|m| m.id).collect(),
        }];
        let slot_ms = 2_500.0;
        let reference = table1_reference();
        let mut edges = Vec::new();
        for (e, kind) in [DeviceKind::JetsonNano, DeviceKind::Atlas200DK]
            .into_iter()
            .enumerate()
        {
            let mut edge = make_edge(
                EdgeId(e),
                kind,
                &format!("{}-0", kind.name().to_lowercase().replace(' ', "-")),
                &models,
                seed,
                slot_ms,
            );
            for (m, name) in names.iter().enumerate() {
                let row = reference
                    .iter()
                    .find(|r| r.model == *name && r.device == kind)
                    .expect("table1 reference row");
                edge.gamma_ms[m] = row.gamma_ms();
                edge.util[m] = row.util;
            }
            edges.push(edge);
        }
        let cat = Catalog {
            apps,
            models,
            edges,
            slot_ms,
            seed,
        };
        debug_assert!(cat.validate().is_ok());
        cat
    }
}

/// Deterministic per-(edge-kind, model) stream so both instances of a device
/// kind share ground truth, as two identical boards would.
fn kind_rng(seed: u64, kind: DeviceKind, model: usize) -> StdRng {
    let kind_ix = match kind {
        DeviceKind::JetsonNX => 0u64,
        DeviceKind::JetsonNano => 1,
        DeviceKind::Atlas200DK => 2,
    };
    StdRng::seed_from_u64(seed ^ (kind_ix << 32) ^ ((model as u64) << 8) ^ 0x5157_4F2D)
}

fn make_edge(
    id: EdgeId,
    kind: DeviceKind,
    name: &str,
    models: &[ModelVersion],
    seed: u64,
    slot_ms: f64,
) -> EdgeDevice {
    let mut gamma_ms = Vec::with_capacity(models.len());
    let mut tir_truth = Vec::with_capacity(models.len());
    let mut util = Vec::with_capacity(models.len());
    for (m, model) in models.iter().enumerate() {
        let mut rng = kind_rng(seed, kind, m);
        let jitter: f64 = rng.random_range(0.9..1.1);
        let gamma = model.gamma_base_ms * kind.speed_factor() * jitter;
        gamma_ms.push(gamma);
        // Ground-truth TIR: smaller models have somewhat more batching
        // headroom (Fig. 2's LeNet eta=0.32 vs ResNet eta=0.12 on a Nano),
        // but accelerator-bound large models still batch well — kernel
        // launch amortisation grows with model size. The mild size penalty
        // keeps both effects.
        let size_factor = (model.gamma_base_ms / 770.0).clamp(0.0, 1.0);
        let eta = (0.32 - 0.10 * size_factor) * rng.random_range(0.85..1.15);
        let eta = eta.clamp(0.12, 0.36);
        let beta = rng.random_range(6..=16u32);
        tir_truth.push(TirParams::consistent(eta, beta));
        // Utilisation ground truth: accelerator utilisation rises with model
        // size; CPU is the bottleneck for small models (Table 1 pattern).
        let acc_util = (25.0 + 75.0 * (1.0 - (-gamma / 250.0).exp())).clamp(10.0, 99.9);
        let cpu_util = (105.0 - 0.105 * gamma).clamp(25.0, 99.9);
        util.push(match kind.accelerator() {
            crate::device::Accelerator::Gpu => UtilProfile {
                cpu_pct: cpu_util,
                gpu_pct: acc_util,
                npu_pct: 0.0,
                npu_core_pct: 0.0,
            },
            crate::device::Accelerator::Npu => UtilProfile {
                cpu_pct: cpu_util,
                gpu_pct: 0.0,
                npu_pct: acc_util * 0.15,
                npu_core_pct: acc_util,
            },
        });
    }
    let _ = slot_ms; // network budget is decoupled from the slot (see above)
    let mut rng = StdRng::seed_from_u64(seed ^ (id.index() as u64) << 16 ^ 0xBEEF);
    let bandwidth = rng.random_range(50.0..100.0);
    EdgeDevice {
        id,
        kind,
        name: name.to_string(),
        memory_mb: kind.memory_mb(),
        bandwidth_mbps: bandwidth,
        network_budget_mb: bandwidth * NETWORK_WINDOW_S / 8.0,
        gamma_ms,
        tir_truth,
        util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_shape() {
        let c = Catalog::small_scale(42);
        assert_eq!(c.num_apps(), 1);
        assert_eq!(c.num_models(), 3);
        assert_eq!(c.num_edges(), 6);
        c.validate().unwrap();
    }

    #[test]
    fn large_scale_shape() {
        let c = Catalog::large_scale(42);
        assert_eq!(c.num_apps(), 5);
        assert_eq!(c.num_models(), 25);
        assert_eq!(c.num_edges(), 6);
        c.validate().unwrap();
        // Each app owns exactly 5 versions, disjoint.
        let mut seen = std::collections::HashSet::new();
        for app in &c.apps {
            assert_eq!(app.num_versions(), 5);
            for &m in &app.models {
                assert!(seen.insert(m), "model {m} shared between apps");
            }
        }
    }

    #[test]
    fn catalog_generation_is_deterministic() {
        let a = Catalog::large_scale(7);
        let b = Catalog::large_scale(7);
        for (ea, eb) in a.edges.iter().zip(&b.edges) {
            assert_eq!(ea.gamma_ms, eb.gamma_ms);
            for (ta, tb) in ea.tir_truth.iter().zip(&eb.tir_truth) {
                assert_eq!(ta, tb);
            }
        }
        let c = Catalog::large_scale(8);
        assert!(
            a.edges[0].gamma_ms != c.edges[0].gamma_ms,
            "different seeds must differ"
        );
    }

    #[test]
    fn same_kind_instances_share_ground_truth() {
        let c = Catalog::large_scale(42);
        // Edges 0,1 are NX; 2,3 Nano; 4,5 Atlas.
        assert_eq!(c.edges[0].kind, c.edges[1].kind);
        assert_eq!(c.edges[0].gamma_ms, c.edges[1].gamma_ms);
        assert_ne!(c.edges[0].gamma_ms, c.edges[2].gamma_ms);
    }

    #[test]
    fn nano_is_slower_than_nx() {
        let c = Catalog::small_scale(42);
        let nx = &c.edges[0];
        let nano = &c.edges[2];
        assert_eq!(nx.kind, DeviceKind::JetsonNX);
        assert_eq!(nano.kind, DeviceKind::JetsonNano);
        for m in 0..c.num_models() {
            assert!(nano.gamma_ms[m] > nx.gamma_ms[m], "model {m}");
        }
    }

    #[test]
    fn fig2_uses_paper_parameters() {
        let c = Catalog::fig2(1);
        assert_eq!(c.num_edges(), 1);
        let e = &c.edges[0];
        assert_eq!(e.kind, DeviceKind::JetsonNano);
        assert_eq!(e.tir_truth[0], TirParams::new(0.32, 5, 1.68));
        assert_eq!(e.tir_truth[1], TirParams::new(0.12, 10, 1.30));
        assert_eq!(e.tir_truth[2], TirParams::new(0.12, 8, 1.28));
        c.validate().unwrap();
    }

    #[test]
    fn table1_latency_matches_published_fps() {
        let c = Catalog::table1(1);
        c.validate().unwrap();
        let nano = &c.edges[0];
        // Yolov4-t on Nano: 23.6 FPS -> gamma = 42.37 ms.
        assert!((nano.gamma_ms[0] - 1000.0 / 23.6).abs() < 1e-9);
        assert!((nano.serial_fps(0) - 23.6).abs() < 1e-9);
        // BERT on Nano: 1.1 FPS.
        assert!((nano.serial_fps(3) - 1.1).abs() < 1e-9);
    }

    #[test]
    fn tir_ground_truth_within_motivation_ranges() {
        let c = Catalog::large_scale(3);
        for e in &c.edges {
            for p in &e.tir_truth {
                assert!(p.eta >= 0.12 && p.eta <= 0.36, "eta {}", p.eta);
                assert!(p.beta >= 6 && p.beta <= 16, "beta {}", p.beta);
                assert!(p.c >= 1.0 && p.c < 3.0, "c {}", p.c);
            }
        }
    }

    #[test]
    fn network_budget_calibration() {
        let c = Catalog::small_scale(42);
        for e in &c.edges {
            let expected = e.bandwidth_mbps * NETWORK_WINDOW_S / 8.0;
            assert!((e.network_budget_mb - expected).abs() < 1e-9);
            assert!(e.network_budget_mb >= 50.0 * NETWORK_WINDOW_S / 8.0 - 1e-9);
            assert!(e.network_budget_mb <= 100.0 * NETWORK_WINDOW_S / 8.0 + 1e-9);
        }
    }

    #[test]
    fn validate_catches_broken_backreference() {
        let mut c = Catalog::small_scale(42);
        c.models[0].app = AppId(7);
        assert!(c.validate().is_err());
    }

    #[test]
    fn fleet_scale_has_requested_shape() {
        let c = Catalog::fleet_scale(42, 25);
        assert_eq!(c.num_edges(), 25);
        assert_eq!(c.num_apps(), 1);
        assert_eq!(c.num_models(), 3);
        c.validate().unwrap();
        // First 6 edges match the testbed kind layout of small_scale.
        let small = Catalog::small_scale(42);
        for i in 0..6 {
            assert_eq!(c.edges[i].kind, small.edges[i].kind);
        }
    }
}
