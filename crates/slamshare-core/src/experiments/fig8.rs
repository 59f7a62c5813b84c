//! **Fig. 8**: tracking latency — default ORB-SLAM3 on CPU vs. SLAM-Share
//! on the (simulated) GPU.
//!
//! Paper: the GPU path cuts ORB extraction by >50 % and *search local
//! points* by 25–50 %, bringing total tracking under 33 ms (real-time) —
//! ~40 % total reduction mono, >50 % stereo. We run the identical
//! measurement as Fig. 5 on both devices.

use super::fig5::{measure_tracking, Fig5Row};
use super::Effort;
use serde::Serialize;
use slamshare_gpu::GpuModel;
use slamshare_sim::dataset::TracePreset;

#[derive(Debug, Clone, Serialize)]
pub struct Fig8Row {
    pub cpu: Fig5Row,
    pub gpu: Fig5Row,
    pub total_reduction_percent: f64,
    pub extract_reduction_percent: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    pub rows: Vec<Fig8Row>,
}

pub fn run(effort: Effort) -> Fig8Result {
    let frames = effort.frames(120);
    let configs: Vec<(TracePreset, bool)> = match effort {
        Effort::Smoke => vec![(TracePreset::V202, true)],
        _ => vec![
            (TracePreset::Kitti00, false),
            (TracePreset::Kitti00, true),
            (TracePreset::V202, false),
            (TracePreset::V202, true),
        ],
    };
    let rows = configs
        .into_iter()
        .map(|(preset, stereo)| {
            let cpu = measure_tracking(preset, stereo, frames, None);
            let gpu = measure_tracking(preset, stereo, frames, Some(&GpuModel::v100()));
            Fig8Row {
                total_reduction_percent: (1.0 - gpu.total_ms / cpu.total_ms.max(1e-9)) * 100.0,
                extract_reduction_percent: (1.0
                    - gpu.orb_extract_ms / cpu.orb_extract_ms.max(1e-9))
                    * 100.0,
                cpu,
                gpu,
            }
        })
        .collect();
    Fig8Result { rows }
}

impl Fig8Result {
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!(
                        "{}-{}",
                        r.cpu.dataset,
                        if r.cpu.stereo { "stereo" } else { "mono" }
                    ),
                    format!("{:.1}", r.cpu.total_ms),
                    format!("{:.1}", r.gpu.total_ms),
                    format!("{:.0}%", r.total_reduction_percent),
                    format!("{:.0}%", r.extract_reduction_percent),
                ]
            })
            .collect();
        format!(
            "Fig. 8: tracking latency, ORB-SLAM3 CPU vs SLAM-Share GPU (ms/frame)\n{}",
            super::render_table(
                &[
                    "dataset",
                    "OS3-CPU total",
                    "S-Sh GPU total",
                    "total cut",
                    "extract cut"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_reduces_tracking_latency() {
        // The GPU path reports *modeled* device latency (SM-scaled), so
        // the reduction shows regardless of host core count.
        let result = run(Effort::Smoke);
        let row = &result.rows[0];
        assert!(
            row.total_reduction_percent > 10.0,
            "GPU cut only {:.0}% (cpu {:.1} ms, gpu {:.1} ms)",
            row.total_reduction_percent,
            row.cpu.total_ms,
            row.gpu.total_ms
        );
        assert!(row.extract_reduction_percent > 10.0);
    }
}
