//! Late joiner: the paper's §4.3.1 headline behaviour.
//!
//! Stock ORB-SLAM3 only checks *incoming* keyframes for merge
//! opportunities, so a client that already explored on its own would wait
//! until it happened to revisit a mapped view. SLAM-Share checks **all**
//! of a joining client's keyframes the moment it connects — its whole
//! existing map is welded into the global map immediately.
//!
//! This example builds an offline "existing map" for the late client
//! (local SLAM over its own past trajectory), connects it to a server
//! whose global map was produced by an earlier client, and times the
//! immediate whole-map merge.
//!
//! ```bash
//! cargo run --release --example late_joiner
//! ```

use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{EdgeServer, ServerConfig};
use slamshare_gpu::GpuExecutor;
use slamshare_net::codec::VideoEncoder;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::ids::ClientId;
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use slamshare_slam::vocabulary;
use std::sync::Arc;

fn main() {
    let frames = 40;
    let ds_a = Dataset::build(
        DatasetConfig::new(TracePreset::MH04)
            .with_frames(frames)
            .with_seed(1),
    );
    let ds_b = Dataset::build(
        DatasetConfig::new(TracePreset::MH05)
            .with_frames(frames)
            .with_seed(2),
    );
    let vocab = Arc::new(vocabulary::train_random(42));

    // ---- Phase 1: client A streams to the server; global map forms.
    println!("client A maps the hall through the server ({frames} frames)…");
    let mut server = EdgeServer::new(ServerConfig::stereo_default(ds_a.rig), vocab.clone());
    server.try_register_client(1).expect("fresh server");
    let (mut el, mut er) = (VideoEncoder::default(), VideoEncoder::default());
    for i in 0..frames {
        let (l, r) = ds_a.render_stereo_frame(i);
        let frame = QueuedFrame {
            frame_idx: i,
            timestamp: ds_a.frame_time(i),
            left: el.encode(&l).data.to_vec(),
            right: Some(er.encode(&r).data.to_vec()),
            pose_hint: (i == 0).then(|| ds_a.gt_pose_cw(0)),
            ..QueuedFrame::default()
        };
        server
            .offer_frame(1, frame)
            .expect("client 1 is registered");
        server.process_queued_round();
    }
    let (kfs, mps, bytes) = server.global_map_stats();
    println!(
        "global map: {kfs} keyframes, {mps} points, {:.1} MB\n",
        bytes as f64 / 1e6
    );

    // ---- Phase 2: client B explored OFFLINE, building its own map in its
    // own private coordinates (origin = wherever it powered on).
    println!("client B explored offline ({frames} frames, private origin)…");
    let mut offline = SlamSystem::new(
        ClientId(2),
        SlamConfig::stereo(ds_b.rig),
        vocab.clone(),
        Arc::new(GpuExecutor::cpu()),
    );
    for i in 0..frames {
        let (l, r) = ds_b.render_stereo_frame(i);
        offline.process_frame(FrameInput {
            timestamp: ds_b.frame_time(i),
            left: &l,
            right: Some(&r),
            imu: &[],
            pose_hint: None, // private origin: B's frame 0 is its identity
        });
    }
    println!(
        "B's private map: {} keyframes, {} points\n",
        offline.map.n_keyframes(),
        offline.map.n_mappoints()
    );

    // ---- Phase 3: B joins the session. The server checks ALL of B's
    // keyframes against the global map and welds immediately.
    println!("B joins the session — merging its whole existing map…");
    server.try_register_client(2).expect("unbounded server");
    // Hand B's offline map to its server process (in deployment this is
    // the map upload a late joiner performs once; here it is a move).
    server.adopt_local_map(2, offline.map);
    let outcome = server
        .merge_client_now(2, ds_a.frame_time(frames - 1))
        .expect("late joiner overlaps the mapped hall");
    println!(
        "merge: aligned={} checked {} keyframes, {} verified point pairs, {} fused, {:.0} ms",
        outcome.report.aligned,
        outcome.report.n_kf_checked,
        outcome.report.n_point_pairs,
        outcome.report.n_fused,
        outcome.merge_ms
    );
    let (kfs, mps, _) = server.global_map_stats();
    println!("global map now: {kfs} keyframes, {mps} points");

    // ---- Phase 4: B keeps tracking, now in the global frame.
    let mut errs = Vec::new();
    for i in 0..10 {
        let idx = frames - 10 + i;
        let (l, r) = ds_b.render_stereo_frame(idx);
        let frame = QueuedFrame {
            frame_idx: frames + i,
            timestamp: ds_b.frame_time(idx) + 10.0,
            left: VideoEncoder::default().encode(&l).data.to_vec(),
            right: Some(VideoEncoder::default().encode(&r).data.to_vec()),
            ..QueuedFrame::default()
        };
        server
            .offer_frame(2, frame)
            .expect("client 2 is registered");
        for (_, res) in server.process_queued_round() {
            if let Some(p) = res.pose {
                errs.push(p.center_distance(&ds_b.gt_pose_cw(idx)));
            }
        }
    }
    if !errs.is_empty() {
        println!(
            "B's post-merge global-frame error over {} frames: mean {:.3} m",
            errs.len(),
            errs.iter().sum::<f64>() / errs.len() as f64
        );
    }
}
