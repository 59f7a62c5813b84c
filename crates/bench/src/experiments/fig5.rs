//! **Fig. 5**: ORB-SLAM3 tracking-latency breakdown on the CPU.
//!
//! Paper: ORB extraction is >50 % and *search local points* ~30 % of
//! per-frame tracking time, across datasets and mono/stereo. We run the
//! CPU tracker over each dataset preset and average the per-stage wall
//! times.

use super::Effort;
use serde::Serialize;
use slamshare_gpu::model::charge;
use slamshare_gpu::{GpuExecutor, GpuModel};
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::ids::ClientId;
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use slamshare_slam::tracking::StageTimings;
use slamshare_slam::vocabulary;
use std::sync::Arc;

#[derive(Debug, Clone, Serialize)]
pub struct Fig5Row {
    pub dataset: String,
    pub stereo: bool,
    pub frames_timed: usize,
    pub orb_extract_ms: f64,
    pub orb_match_ms: f64,
    pub pose_predict_ms: f64,
    pub search_local_ms: f64,
    pub optimize_ms: f64,
    pub total_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Fig5Result {
    pub rows: Vec<Fig5Row>,
}

/// Average the tracker's stage timings over a dataset run: on the
/// sequential CPU executor at wall time (`gpu: None`), or on an executor
/// for the modeled `gpu` with both kernel stages charged on all its SMs.
/// Exposed for reuse by [`super::fig8`] (same measurement, other device).
pub fn measure_tracking(
    preset: TracePreset,
    stereo: bool,
    frames: usize,
    gpu: Option<&GpuModel>,
) -> Fig5Row {
    let ds = Dataset::build(DatasetConfig::new(preset).with_frames(frames).with_seed(3));
    let vocab = Arc::new(vocabulary::train_random(42));
    let config = if stereo {
        SlamConfig::stereo(ds.rig)
    } else {
        SlamConfig::mono(ds.rig)
    };
    let exec = gpu.map_or_else(GpuExecutor::cpu, GpuExecutor::for_model);
    let mut sys = SlamSystem::new(ClientId(1), config, vocab, Arc::new(exec));

    let mut sum = StageTimings::default();
    let mut timed = 0usize;
    for i in 0..frames {
        let (left, right) = if stereo {
            let (l, r) = ds.render_stereo_frame(i);
            (l, Some(r))
        } else {
            (ds.render_frame(i), None)
        };
        // Bootstrap hints: first frames only (gauge / mono init).
        let hint = (!sys.is_bootstrapped()).then(|| ds.gt_pose_cw(i));
        let step = sys.process_frame(FrameInput {
            timestamp: ds.frame_time(i),
            left: &left,
            right: right.as_ref(),
            imu: &[],
            pose_hint: hint,
        });
        // Only steady-state tracked frames count toward the breakdown
        // (bootstrap frames don't run the full pipeline).
        if step.tracked && sys.is_bootstrapped() && step.timings.search_local_ms > 0.0 {
            sum.accumulate(&step.timings);
            timed += 1;
        }
    }
    if let Some(model) = gpu {
        sum = sum.with_kernels_costed(|stats| charge(model, model.sm_count, stats));
    }
    let n = timed.max(1) as f64;
    Fig5Row {
        dataset: preset.name().to_string(),
        stereo,
        frames_timed: timed,
        orb_extract_ms: sum.orb_extract_ms / n,
        orb_match_ms: sum.orb_match_ms / n,
        pose_predict_ms: sum.pose_predict_ms / n,
        search_local_ms: sum.search_local_ms / n,
        optimize_ms: sum.optimize_ms / n,
        total_ms: sum.total_ms() / n,
    }
}

pub fn run(effort: Effort) -> Fig5Result {
    let frames = effort.frames(120);
    let configs: Vec<(TracePreset, bool)> = match effort {
        Effort::Smoke => vec![(TracePreset::V202, true)],
        _ => vec![
            (TracePreset::Kitti00, false),
            (TracePreset::Kitti00, true),
            (TracePreset::V202, false),
            (TracePreset::V202, true),
            (TracePreset::TumRoom, false),
            (TracePreset::RgbdOffice, true),
        ],
    };
    let rows = configs
        .into_iter()
        .map(|(preset, stereo)| measure_tracking(preset, stereo, frames, None))
        .collect();
    Fig5Result { rows }
}

impl Fig5Result {
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{}-{}", r.dataset, if r.stereo { "stereo" } else { "mono" }),
                    format!("{:.1}", r.orb_extract_ms),
                    format!("{:.1}", r.orb_match_ms),
                    format!("{:.2}", r.pose_predict_ms),
                    format!("{:.1}", r.search_local_ms),
                    format!("{:.1}", r.optimize_ms),
                    format!("{:.1}", r.total_ms),
                    format!("{:.0}%", r.orb_extract_ms / r.total_ms * 100.0),
                ]
            })
            .collect();
        format!(
            "Fig. 5: CPU tracking latency breakdown (ms/frame)\n{}",
            super::render_table(
                &[
                    "dataset",
                    "extract",
                    "stereo-match",
                    "pose-pred",
                    "search-local",
                    "optimize",
                    "total",
                    "extract%"
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
    fn extraction_dominates_cpu_tracking() {
        let result = run(Effort::Smoke);
        let row = &result.rows[0];
        assert!(row.frames_timed >= 2, "{row:?}");
        assert!(row.total_ms > 0.0);
        // The paper's core observation: extraction is the largest stage
        // (>50 %; a stereo frame extracts its right eye too only when it
        // inserts a keyframe).
        assert!(
            row.orb_extract_ms > 0.4 * row.total_ms,
            "extraction only {:.1} of {:.1} ms",
            row.orb_extract_ms,
            row.total_ms
        );
        // And search-local-points is a significant minority share.
        assert!(row.search_local_ms > 0.0);
    }
}
