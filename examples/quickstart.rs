//! Quickstart: single-user stereo SLAM over a synthetic drone trace.
//!
//! Builds a Vicon-room dataset, runs the full SLAM system (tracking +
//! mapping + local BA) for 60 frames, and reports the map and the
//! absolute trajectory error against ground truth.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use slamshare_gpu::GpuExecutor;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::eval;
use slamshare_slam::ids::ClientId;
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use slamshare_slam::vocabulary;
use std::sync::Arc;

fn main() {
    let frames = 60;
    println!("building synthetic V202 dataset ({frames} frames)…");
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(frames)
            .with_seed(1),
    );

    println!("training BoW vocabulary…");
    let vocab = Arc::new(vocabulary::train_on_dataset(&ds, 6, 2));

    let mut sys = SlamSystem::new(
        ClientId(1),
        SlamConfig::stereo(ds.rig),
        vocab,
        Arc::new(GpuExecutor::v100()), // simulated GPU; use ::cpu() for the sequential path
    );

    let mut gt = Vec::new();
    for i in 0..frames {
        let (left, right) = ds.render_stereo_frame(i);
        let step = sys.process_frame(FrameInput {
            timestamp: ds.frame_time(i),
            left: &left,
            right: Some(&right),
            imu: ds.imu_between(
                if i == 0 { 0.0 } else { ds.frame_time(i - 1) },
                ds.frame_time(i),
            ),
            pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)), // gauge anchor
        });
        gt.push((ds.frame_time(i), ds.gt_position(i)));
        if i % 15 == 0 {
            println!(
                "  frame {i:3}: tracked={} matches={:4} kf={} total_track_ms={:.1}",
                step.tracked,
                step.n_matches,
                step.keyframe_inserted,
                step.timings.total_ms()
            );
        }
    }

    println!(
        "\nmap: {} keyframes, {} map points (~{:.2} MB serialized)",
        sys.map.n_keyframes(),
        sys.map.n_mappoints(),
        sys.map.approx_bytes() as f64 / 1e6
    );
    match eval::ate(&sys.trajectory(), &gt, false, 1e-4) {
        Some(a) => println!(
            "absolute trajectory error: RMSE {:.3} m (mean {:.3}, max {:.3}, {} poses)",
            a.rmse, a.mean, a.max, a.n
        ),
        None => println!("trajectory too short for ATE"),
    }
}
