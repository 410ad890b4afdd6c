//! Reference data of paper Table 1: serial-execution resource utilisation
//! and FPS of four models on two edge device types.
//!
//! These published measurements serve two roles in the reproduction:
//!
//! 1. the simulator's utilisation model is calibrated against them
//!    (mean utilisation + measurement noise), and
//! 2. `birp repro table1` re-measures them in simulation and checks
//!    the motivating observation — no accelerator exceeds ~75 % utilisation
//!    on small models — still holds.

use serde::{Deserialize, Serialize};

use crate::device::{DeviceKind, UtilProfile};

/// One row of Table 1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    pub model: &'static str,
    pub device: DeviceKind,
    pub util: UtilProfile,
    pub avg_fps: f64,
}

impl Table1Row {
    /// Single-request latency implied by the FPS column, ms.
    pub fn gamma_ms(&self) -> f64 {
        1000.0 / self.avg_fps
    }
}

/// The eight rows of paper Table 1, verbatim.
pub fn table1_reference() -> Vec<Table1Row> {
    use DeviceKind::{Atlas200DK, JetsonNano};
    let row = |model, device, cpu, gpu, npu, core, fps| Table1Row {
        model,
        device,
        util: UtilProfile {
            cpu_pct: cpu,
            gpu_pct: gpu,
            npu_pct: npu,
            npu_core_pct: core,
        },
        avg_fps: fps,
    };
    vec![
        row("Yolov4-t", JetsonNano, 97.9, 72.4, 0.0, 0.0, 23.6),
        row("Yolov4-t", Atlas200DK, 99.1, 0.0, 12.6, 31.2, 64.6),
        row("Yolov4-n", JetsonNano, 37.5, 99.9, 0.0, 0.0, 4.4),
        row("Yolov4-n", Atlas200DK, 45.5, 0.0, 3.1, 71.5, 18.7),
        row("ResNet-18", JetsonNano, 99.9, 61.2, 0.0, 0.0, 32.2),
        row("ResNet-18", Atlas200DK, 99.9, 0.0, 11.2, 25.1, 78.8),
        row("BERT", JetsonNano, 29.2, 98.5, 0.0, 0.0, 1.1),
        row("BERT", Atlas200DK, 36.7, 0.0, 0.0, 82.3, 9.1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Accelerator;

    #[test]
    fn has_eight_rows() {
        assert_eq!(table1_reference().len(), 8);
    }

    #[test]
    fn paper_headline_utilisations_present() {
        // "the utilization rates of CPU, GPU, and NPU are limited to
        //  29.2%, 72.4%, and 31.2% respectively" (BERT CPU on Nano,
        //  Yolov4-t GPU on Nano, Yolov4-t NPU-core on Atlas).
        let rows = table1_reference();
        let bert_nano = rows
            .iter()
            .find(|r| r.model == "BERT" && r.device == DeviceKind::JetsonNano)
            .unwrap();
        assert_eq!(bert_nano.util.cpu_pct, 29.2);
        let yolo_nano = rows
            .iter()
            .find(|r| r.model == "Yolov4-t" && r.device == DeviceKind::JetsonNano)
            .unwrap();
        assert_eq!(yolo_nano.util.gpu_pct, 72.4);
        let yolo_atlas = rows
            .iter()
            .find(|r| r.model == "Yolov4-t" && r.device == DeviceKind::Atlas200DK)
            .unwrap();
        assert_eq!(yolo_atlas.util.npu_core_pct, 31.2);
    }

    #[test]
    fn atlas_is_faster_than_nano_on_every_model() {
        let rows = table1_reference();
        for model in ["Yolov4-t", "Yolov4-n", "ResNet-18", "BERT"] {
            let nano = rows
                .iter()
                .find(|r| r.model == model && r.device == DeviceKind::JetsonNano)
                .unwrap();
            let atlas = rows
                .iter()
                .find(|r| r.model == model && r.device == DeviceKind::Atlas200DK)
                .unwrap();
            assert!(atlas.avg_fps > nano.avg_fps, "{model}");
        }
    }

    #[test]
    fn small_models_underutilise_accelerators() {
        // The motivation: Yolov4-t never drives its accelerator past 75 %.
        for r in table1_reference().iter().filter(|r| r.model == "Yolov4-t") {
            let acc = r.device.accelerator();
            assert!(r.util.bottleneck(acc) < 75.0);
        }
        // ...whereas the big models do saturate it.
        for r in table1_reference() {
            if r.model == "Yolov4-n" || r.model == "BERT" {
                let acc = r.device.accelerator();
                assert!(r.util.bottleneck(acc) > 70.0, "{} {:?}", r.model, r.device);
            }
        }
    }

    #[test]
    fn gamma_inverts_fps() {
        let rows = table1_reference();
        let bert = rows
            .iter()
            .find(|r| r.model == "BERT" && r.device == DeviceKind::JetsonNano)
            .unwrap();
        assert!((bert.gamma_ms() - 909.09).abs() < 0.01);
    }

    #[test]
    fn gpu_devices_have_no_npu_numbers_and_vice_versa() {
        for r in table1_reference() {
            match r.device.accelerator() {
                Accelerator::Gpu => {
                    assert_eq!(r.util.npu_pct, 0.0);
                    assert_eq!(r.util.npu_core_pct, 0.0);
                }
                Accelerator::Npu => assert_eq!(r.util.gpu_pct, 0.0),
            }
        }
    }
}
