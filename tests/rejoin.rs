//! One client id across merges and lives.
//!
//! Returning users of one persistent shared map are the normal case: the
//! same device id comes back to a server whose global map still holds
//! its first life's keyframes and map points. The second life must
//! continue the id space the first one used, or its merge overwrites the
//! first life's keyframes while the old points' `(keyframe, keypoint)`
//! observations still point into them; and it must never collect a merge
//! its predecessor submitted.
//!
//! A joiner's merge is pause, weld, collect: while its job is in flight
//! on the merge thread the client keeps tracking but maps nothing, so
//! what lands in the global map is exactly the submitted snapshot.

use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::ids::ClientId;
use slam_share::slam::map::{Map, MapRead};
use slam_share::slam::vocabulary;
use std::ops::RangeInclusive;
use std::sync::Arc;

const REJOINER: u16 = 7;

/// One life of a device: an encoder pair (the stream starts with an
/// I-frame) and whether the life's first frame, which carries the
/// ground-truth pose hint, has been sent.
struct Device {
    enc: (VideoEncoder, VideoEncoder),
    started: bool,
}

impl Device {
    fn new() -> Device {
        Device {
            enc: (VideoEncoder::default(), VideoEncoder::default()),
            started: false,
        }
    }

    /// Frame `i` of `ds` as `client`'s only frame of one round; no IMU.
    fn round(
        &mut self,
        server: &EdgeServer,
        ds: &Dataset,
        client: u16,
        i: usize,
    ) -> ServerFrameResult {
        let (l, r) = ds.render_stereo_frame(i);
        let frame = QueuedFrame {
            frame_idx: i,
            timestamp: ds.frame_time(i),
            left: self.enc.0.encode(&l).data.to_vec(),
            right: Some(self.enc.1.encode(&r).data.to_vec()),
            pose_hint: (!self.started).then(|| ds.gt_pose_cw(i)),
            ..QueuedFrame::default()
        };
        self.started = true;
        server
            .offer_frame(client, frame)
            .expect("registered client");
        let (id, result) = server.process_queued_round().remove(0);
        assert_eq!(id, client);
        result
    }

    fn run(
        &mut self,
        server: &EdgeServer,
        ds: &Dataset,
        client: u16,
        frames: RangeInclusive<usize>,
    ) -> Vec<ServerFrameResult> {
        frames.map(|i| self.round(server, ds, client, i)).collect()
    }
}

/// One life of `client`, one round per frame.
fn run_life(
    server: &EdgeServer,
    ds: &Dataset,
    client: u16,
    frames: RangeInclusive<usize>,
) -> Vec<ServerFrameResult> {
    Device::new().run(server, ds, client, frames)
}

fn dataset() -> Dataset {
    Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(70)
            .with_seed(33),
    )
}

/// A server whose merges run on the merge thread and are submitted by
/// hand ([`EdgeServer::submit_merge`]), never by the commit trigger.
fn thread_merge_server(ds: &Dataset) -> EdgeServer {
    let mut config = ServerConfig::stereo_default(ds.rig);
    config.async_merge = true;
    config.merge_after_keyframes = usize::MAX;
    EdgeServer::new(config, Arc::new(vocabulary::train_random(42)))
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
    let ds = dataset();
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

/// A client that departs with its merge in flight or uncollected leaves
/// that merge behind: a rejoin under the same id is a new local session
/// that never submitted it, so it must not collect the completion and
/// switch to the shared phase under the old life's transform.
#[test]
fn a_departed_clients_merge_is_not_collected_by_its_rejoin() {
    let ds = dataset();
    let mut server = thread_merge_server(&ds);
    server.try_register_client(2).unwrap();
    run_life(&server, &ds, 2, 0..=3);
    assert!(
        server.submit_merge(2, ds.frame_time(3)),
        "client 2 not ready"
    );
    server.deregister_client(2);
    server.wait_merge_idle();

    server.try_register_client(2).unwrap();
    let rejoined = run_life(&server, &ds, 2, 10..=10);
    assert!(
        !rejoined[0].merged,
        "the rejoin collected its predecessor's merge"
    );
    let stats = server.merge_worker_stats().expect("every server has one");
    assert_eq!(stats.stale_completions, 1, "{stats:?}");
    if let Err(e) = server.store.check_invariants() {
        panic!("map invariant broken after the rejoin: {e}");
    }
}

/// While a joiner's job waits on the merge thread the joiner keeps
/// tracking but inserts no keyframe, so the global map gets exactly the
/// snapshot it submitted. The job is kept waiting without timing luck:
/// the test holds a read view of the whole map, which the job's write
/// over every region must wait for, while it runs rounds of the
/// local-phase joiner alone — rounds that take no map lock.
#[test]
fn a_joiner_maps_nothing_while_its_merge_is_in_flight() {
    let ds = dataset();
    let server = {
        let mut server = thread_merge_server(&ds);
        server.try_register_client(1).unwrap();
        server.try_register_client(2).unwrap();
        server
    };
    let mut resident = Device::new();
    resident.run(&server, &ds, 1, 0..=44);
    assert!(
        server.submit_merge(1, ds.frame_time(44)),
        "client 1 not ready"
    );
    server.wait_merge_idle();
    assert!(resident.round(&server, &ds, 1, 45).merged);

    let mut joiner = Device::new();
    joiner.run(&server, &ds, 2, 2..=9);
    let t_submit = ds.frame_time(9);
    let in_flight = server.store.with_view(|_| {
        assert!(server.submit_merge(2, t_submit), "client 2 not ready");
        joiner.run(&server, &ds, 2, 10..=15)
    });
    for r in &in_flight {
        assert!(r.tracked, "frame {} lost while paused", r.frame_idx);
        assert!(!r.merged, "frame {} merged under a held view", r.frame_idx);
    }
    server.wait_merge_idle();
    let collected = joiner.round(&server, &ds, 2, 16);
    let merge = collected.merge.expect("client 2's merge did not land");
    assert!(merge.report.aligned, "{:?}", merge.report);

    let joined = keyframe_times(&server, 2);
    assert_eq!(
        joined.len(),
        merge.report.n_kf_added,
        "keyframes mapped in flight reached the global map"
    );
    let t_collect = ds.frame_time(16);
    assert!(
        joined.iter().all(|&t| t <= t_submit || t > t_collect),
        "a keyframe from between submit ({t_submit}) and collect ({t_collect}): {joined:?}"
    );
    if let Err(e) = server.store.check_invariants() {
        panic!("map invariant broken after the merge: {e}");
    }
}

/// The local-map entry points refuse a client whose keyframes no longer
/// land in its own map: a merged client (it has no local map to submit,
/// adopt or report) and a joiner whose job is in flight (its map is the
/// submitted snapshot until the job is collected).
#[test]
fn merged_and_paused_clients_refuse_the_local_map_calls() {
    let ds = dataset();
    let server = {
        let mut server = thread_merge_server(&ds);
        server.try_register_client(1).unwrap();
        server.try_register_client(2).unwrap();
        server
    };
    let mut resident = Device::new();
    resident.run(&server, &ds, 1, 0..=44);
    assert!(
        server.submit_merge(1, ds.frame_time(44)),
        "client 1 not ready"
    );
    server.wait_merge_idle();
    assert!(resident.round(&server, &ds, 1, 45).merged);
    let mut joiner = Device::new();
    joiner.run(&server, &ds, 2, 2..=9);
    assert!(server.is_merged(1));
    assert!(!server.is_merged(2));

    // Merged client 1.
    let t = ds.frame_time(46);
    let merges = server.merge_log().len();
    assert!(!server.submit_merge(1, t), "a merged client submitted");
    assert!(server.merge_client_now(1, t).is_none());
    assert_eq!(server.merge_log().len(), merges);
    let stats = server.global_map_stats();
    server.adopt_local_map(1, Map::new(ClientId(1)));
    assert_eq!(server.global_map_stats(), stats);
    // It goes on mapping in its own id space.
    let kfs = keyframe_times(&server, 1).len();
    for r in resident.run(&server, &ds, 1, 46..=52) {
        assert!(r.merged && r.tracked, "frame {}: {r:?}", r.frame_idx);
    }
    assert!(keyframe_times(&server, 1).len() > kfs, "no keyframe added");

    let pending = server.pending_local_trajectories();
    let ids: Vec<u16> = pending.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, [2]);

    // Client 2, its job held on the merge thread by a read view of the
    // whole map. Nothing in here takes a store lock.
    let t = ds.frame_time(9);
    server.store.with_view(|_| {
        assert!(server.submit_merge(2, t), "client 2 not ready");
        server.adopt_local_map(2, Map::new(ClientId(2)));
        assert_eq!(
            server.pending_local_trajectories(),
            pending,
            "a paused map was replaced"
        );
        assert!(!server.submit_merge(2, t), "a second job in flight");
    });
    server.wait_merge_idle();
    assert!(joiner.round(&server, &ds, 2, 10).merged);
    if let Err(e) = server.store.check_invariants() {
        panic!("map invariant broken: {e}");
    }
}
