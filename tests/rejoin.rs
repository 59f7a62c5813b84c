//! A client that merged, left, and rejoins under its old id.
//!
//! Returning users of one persistent shared map are the normal case: the
//! same device id comes back to a server whose global map still holds
//! its first life's keyframes and map points. The second life must
//! continue the id space the first one used, or its merge overwrites the
//! first life's keyframes while the old points' `(keyframe, keypoint)`
//! observations still point into them.

use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::ids::ClientId;
use slam_share::slam::map::MapRead;
use slam_share::slam::vocabulary;
use std::ops::RangeInclusive;
use std::sync::Arc;

const REJOINER: u16 = 7;

/// One life of `client`: a fresh encoder pair (the stream starts with an
/// I-frame), the ground-truth pose hint on the life's first frame, no
/// IMU, one round per frame.
fn run_life(
    server: &EdgeServer,
    ds: &Dataset,
    client: u16,
    frames: RangeInclusive<usize>,
) -> Vec<ServerFrameResult> {
    let mut enc = (VideoEncoder::default(), VideoEncoder::default());
    let first = *frames.start();
    frames
        .map(|i| {
            let (l, r) = ds.render_stereo_frame(i);
            let frame = QueuedFrame {
                frame_idx: i,
                timestamp: ds.frame_time(i),
                left: enc.0.encode(&l).data.to_vec(),
                right: Some(enc.1.encode(&r).data.to_vec()),
                pose_hint: (i == first).then(|| ds.gt_pose_cw(i)),
                ..QueuedFrame::default()
            };
            server
                .offer_frame(client, frame)
                .expect("registered client");
            let (id, result) = server.process_queued_round().remove(0);
            assert_eq!(id, client);
            result
        })
        .collect()
}

/// Timestamps of `client`'s keyframes in the global map.
fn keyframe_times(server: &EdgeServer, client: u16) -> Vec<f64> {
    server.store.with_view(|view| {
        view.keyframes_iter()
            .filter(|kf| kf.id.client() == ClientId(client))
            .map(|kf| kf.timestamp)
            .collect()
    })
}

#[test]
fn rejoin_under_a_merged_id_keeps_both_lives_in_the_map() {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(70)
            .with_seed(33),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);

    server.try_register_client(1).unwrap();
    let resident = run_life(&server, &ds, 1, 0..=44);
    assert!(resident.last().is_some_and(|r| r.merged));

    server.try_register_client(REJOINER).unwrap();
    let first = run_life(&server, &ds, REJOINER, 2..=17);
    assert!(
        first.last().is_some_and(|r| r.merged),
        "first life never merged"
    );
    server.deregister_client(REJOINER);
    let first_life = keyframe_times(&server, REJOINER);
    assert!(!first_life.is_empty());
    server.store.check_invariants().unwrap();

    server.try_register_client(REJOINER).unwrap();
    let second = run_life(&server, &ds, REJOINER, 26..=55);
    assert!(
        second.iter().any(|r| r.merge.is_some()),
        "second life never merged"
    );
    if let Err(e) = server.store.check_invariants() {
        panic!("map invariant broken after the rejoin: {e}");
    }

    // Every first-life keyframe is still there, and the second life's
    // keyframes sit next to them.
    let t17 = ds.frame_time(17);
    let t26 = ds.frame_time(26);
    let all = keyframe_times(&server, REJOINER);
    let kept = all.iter().filter(|&&t| t <= t17).count();
    let added = all.iter().filter(|&&t| t >= t26).count();
    assert_eq!(kept, first_life.len(), "first-life keyframes overwritten");
    assert!(added > 0, "second life added no keyframes");
    assert_eq!(all.len(), first_life.len() + added);
}
