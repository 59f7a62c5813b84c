//! End-to-end, single user: synthetic camera → video codec → edge server
//! (decode, GPU tracking, mapping, shared-memory map) → pose replies →
//! client display chain. Crosses every crate in the workspace.

use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig};
use slam_share::core::ClientDevice;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::{eval, vocabulary};
use std::sync::Arc;

#[test]
fn camera_to_display_pipeline() {
    let frames = 12;
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(frames)
            .with_seed(33),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);
    server.try_register_client(7).unwrap();
    let mut device = ClientDevice::new(7);
    device.init_pose(ds.gt_pose_cw(0));

    let mut est = Vec::new();
    let mut gt = Vec::new();
    for i in 0..frames {
        let (l, r) = ds.render_stereo_frame(i);
        let t = ds.frame_time(i);
        let t_prev = if i == 0 { 0.0 } else { ds.frame_time(i - 1) };
        let imu: Vec<_> = ds.imu_between(t_prev, t).to_vec();

        // Client side: encode + IMU chain.
        let (upload, _) = device.on_frame(t, &l, Some(&r), &imu);
        assert_eq!(upload.messages.len(), 2);

        // Server side: decode + track + map (+ merge when ready).
        let frame = QueuedFrame {
            frame_idx: i,
            timestamp: t,
            left: upload.messages[0].payload.to_vec(),
            right: Some(upload.messages[1].payload.to_vec()),
            imu,
            pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
            ..QueuedFrame::default()
        };
        server.offer_frame(7, frame).expect("registered client");
        let (_, res) = server.process_queued_round().remove(0);
        // Pose reply reaches the device one frame later (ideal link).
        if let Some(pose) = res.pose {
            device.on_server_pose(t, i, pose);
        }
        if let Some(p) = device.display_pose(i) {
            est.push((t, p.camera_center()));
        }
        gt.push((t, ds.gt_position(i)));
    }

    assert!(
        server.is_merged(7),
        "client map never reached the global map"
    );
    let (kfs, mps, _) = server.global_map_stats();
    assert!(
        kfs >= 3 && mps > 200,
        "global map too thin: {kfs} KFs / {mps} MPs"
    );

    let ate = eval::ate(&est, &gt, false, 1e-4).expect("ate");
    assert!(ate.rmse < 0.25, "display-path ATE {} m", ate.rmse);
}
