//! Determinism guarantees of the parallel pipeline (§4.2.1 makes the
//! same claim for the CUDA kernels): data-parallel CPU extraction is
//! bit-identical to the sequential extractor, and the server's
//! concurrent round pipeline reproduces sequential rounds of one exactly,
//! at any worker count.

use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slam_share::gpu::GpuExecutor;
use slam_share::math::SE3;
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::ids::ClientId;
use slam_share::slam::map::{Map, MapRead};
use slam_share::slam::optimize::{local_bundle_adjust_with, BaScratch};
use slam_share::slam::system::{FrameInput, SlamConfig, SlamSystem};
use slam_share::slam::tracking::{Tracker, TrackerConfig};
use slam_share::slam::vocabulary;
use std::sync::Arc;

#[test]
fn parallel_extraction_is_bit_identical_to_sequential() {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(3)
            .with_seed(11),
    );
    let sequential = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
    for workers in [2usize, 3, 8] {
        let parallel = Tracker::new(
            TrackerConfig::stereo(ds.rig),
            Arc::new(GpuExecutor::cpu_with_workers(workers)),
        );
        // Several frames so the warm-scratch (reused pyramid) path is
        // exercised on both sides too.
        for i in 0..3 {
            let (left, right) = ds.render_stereo_frame(i);
            for img in [&left, &right] {
                let (seq, _) = sequential.extract(img);
                let (par, _) = parallel.extract(img);
                assert_eq!(
                    seq.keypoints, par.keypoints,
                    "keypoints diverged at frame {i}, {workers} workers"
                );
                assert_eq!(
                    seq.descriptors, par.descriptors,
                    "descriptors diverged at frame {i}, {workers} workers"
                );
            }
        }
    }
}

/// Everything a frame result asserts about SLAM state, with wall-clock
/// timing fields (which legitimately vary run to run) excluded.
fn result_key(r: &ServerFrameResult) -> String {
    format!(
        "idx={} pose={:?} tracked={} merged={} n_matches={} merge_aligned={:?}",
        r.frame_idx,
        r.pose,
        r.tracked,
        r.merged,
        r.n_matches,
        r.merge
            .as_ref()
            .map(|m| (m.report.aligned, m.report.n_fused)),
    )
}

struct MultiClientRig {
    datasets: Vec<Dataset>,
    encoders: Vec<(VideoEncoder, VideoEncoder)>,
}

impl MultiClientRig {
    fn new(n: usize, frames: usize) -> MultiClientRig {
        let datasets: Vec<Dataset> = (0..n)
            .map(|c| {
                Dataset::build(
                    DatasetConfig::new(TracePreset::V202)
                        .with_frames(frames)
                        .with_seed(51 + c as u64),
                )
            })
            .collect();
        let encoders = (0..n).map(|_| Default::default()).collect();
        MultiClientRig { datasets, encoders }
    }

    fn server(&self) -> EdgeServer {
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(self.datasets[0].rig), vocab);
        for c in 0..self.datasets.len() {
            server.try_register_client(c as u16 + 1).unwrap();
        }
        server
    }

    /// Frame `i` of every client, in client order, ready to offer (codec
    /// state advances — call once per frame, in order).
    fn encode_tick(&mut self, i: usize) -> Vec<QueuedFrame> {
        self.datasets
            .iter()
            .zip(self.encoders.iter_mut())
            .enumerate()
            .map(|(c, (ds, (el, er)))| {
                let (l, r) = ds.render_stereo_frame(i);
                let hint = (c == 0 && i == 0).then(|| ds.gt_pose_cw(0));
                let payload = (el.encode(&l).data.to_vec(), er.encode(&r).data.to_vec());
                stereo_frame(i, ds.frame_time(i), payload, hint)
            })
            .collect()
    }
}

/// A stereo frame ready to offer.
fn stereo_frame(
    frame_idx: usize,
    timestamp: f64,
    (left, right): (Vec<u8>, Vec<u8>),
    pose_hint: Option<SE3>,
) -> QueuedFrame {
    QueuedFrame {
        frame_idx,
        timestamp,
        left,
        right: Some(right),
        pose_hint,
        ..QueuedFrame::default()
    }
}

/// A round of one stereo frame for a registered client.
fn process_one(server: &EdgeServer, client: u16, frame: QueuedFrame) -> ServerFrameResult {
    server
        .offer_frame(client, frame)
        .expect("registered client");
    let mut results = server.process_queued_round();
    assert_eq!(results.len(), 1, "a round of one");
    results.remove(0).1
}

/// Offer `(client, frame)` pairs in the order given, then run one round;
/// returns the results in client-id order.
fn offer_round(
    server: &EdgeServer,
    frames: impl IntoIterator<Item = (u16, QueuedFrame)>,
) -> Vec<ServerFrameResult> {
    for (client, frame) in frames {
        server
            .offer_frame(client, frame)
            .expect("registered client");
    }
    server
        .process_queued_round()
        .into_iter()
        .map(|(_, r)| r)
        .collect()
}

/// Client ids `1..` paired with a tick's frames.
fn numbered(frames: Vec<QueuedFrame>) -> impl Iterator<Item = (u16, QueuedFrame)> {
    (1..).zip(frames)
}

/// One round of one frame per client at tick `i`; returns the result keys.
fn run_round(server: &EdgeServer, rig: &mut MultiClientRig, i: usize) -> Vec<String> {
    offer_round(server, numbered(rig.encode_tick(i)))
        .iter()
        .map(result_key)
        .collect()
}

/// Every frame offered was served, and none was shed.
fn assert_queues_drained(server: &EdgeServer) {
    for (client, q) in server.metrics().queues {
        assert_eq!(q.offered, q.served, "client {client}: {q:?}");
        assert_eq!(q.dropped_overflow, 0, "client {client}: {q:?}");
    }
}

fn run_rounds(server: &EdgeServer, rig: &mut MultiClientRig, frames: usize) -> Vec<String> {
    (0..frames)
        .flat_map(|i| run_round(server, rig, i))
        .collect()
}

#[test]
fn round_pipeline_matches_sequential_process_video_exactly() {
    const CLIENTS: usize = 3;
    const FRAMES: usize = 8;

    // Reference: N sequential rounds of one per tick, in client order,
    // on a single worker.
    let mut rig = MultiClientRig::new(CLIENTS, FRAMES);
    let mut server = rig.server();
    server.set_round_workers(1);
    let mut sequential_keys = Vec::new();
    for i in 0..FRAMES {
        for (client, frame) in numbered(rig.encode_tick(i)) {
            sequential_keys.push(result_key(&process_one(&server, client, frame)));
        }
    }
    assert_queues_drained(&server);
    let sequential_stats = server.global_map_stats();
    let sequential_merges: Vec<(f64, u16)> = server
        .merge_log()
        .iter()
        .map(|(t, c, _)| (*t, *c))
        .collect();
    assert!(
        sequential_merges.iter().any(|(_, c)| *c == 1),
        "reference run never merged client 1 — test would be vacuous"
    );

    // One round of N per tick must reproduce it exactly, whatever the
    // worker count and whatever order the frames were offered in.
    for descending in [false, true] {
        for workers in [1usize, 2, 4] {
            let mut rig = MultiClientRig::new(CLIENTS, FRAMES);
            let mut server = rig.server();
            server.set_round_workers(workers);
            let keys: Vec<String> = (0..FRAMES)
                .flat_map(|i| {
                    let mut frames: Vec<_> = numbered(rig.encode_tick(i)).collect();
                    if descending {
                        frames.reverse();
                    }
                    offer_round(&server, frames)
                })
                .map(|r| result_key(&r))
                .collect();
            assert_queues_drained(&server);
            assert_eq!(
                sequential_keys, keys,
                "round pipeline diverged from sequential at {workers} workers \
                 (offered descending: {descending})"
            );
            assert_eq!(sequential_stats, server.global_map_stats());
            let merges: Vec<(f64, u16)> = server
                .merge_log()
                .iter()
                .map(|(t, c, _)| (*t, *c))
                .collect();
            assert_eq!(sequential_merges, merges);
        }
    }
}

#[test]
fn tracking_reads_run_concurrently_with_a_merge_write() {
    const FRAMES: usize = 20;
    let ds_a = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(FRAMES)
            .with_seed(61),
    );
    let ds_b = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(FRAMES)
            .with_seed(62),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(ds_a.rig);
    // Disable the automatic merge trigger: this test drives merges by
    // hand so the write lands while the other client is tracking.
    config.merge_after_keyframes = usize::MAX;
    let mut server = EdgeServer::new(config, vocab);
    server.try_register_client(1).unwrap();
    server.try_register_client(2).unwrap();

    let mut enc_a = (VideoEncoder::default(), VideoEncoder::default());
    let encoded_a: Vec<QueuedFrame> = (0..FRAMES)
        .map(|i| {
            let (l, r) = ds_a.render_stereo_frame(i);
            let payload = (
                enc_a.0.encode(&l).data.to_vec(),
                enc_a.1.encode(&r).data.to_vec(),
            );
            stereo_frame(
                i,
                ds_a.frame_time(i),
                payload,
                (i == 0).then(|| ds_a.gt_pose_cw(0)),
            )
        })
        .collect();
    let mut encoded_a = encoded_a.into_iter();

    // Client 1 builds a local map, then is merged into the (empty)
    // global map so its remaining frames track under read locks.
    for frame in encoded_a.by_ref().take(10) {
        process_one(&server, 1, frame);
    }
    server
        .merge_client_now(1, ds_a.frame_time(9))
        .expect("merge into empty global map");
    assert!(server.is_merged(1));

    // Client 2 builds its own local map (same scene, so a merge can
    // align it).
    let mut enc_b = (VideoEncoder::default(), VideoEncoder::default());
    for i in 0..10 {
        let (l, r) = ds_b.render_stereo_frame(i);
        let payload = (
            enc_b.0.encode(&l).data.to_vec(),
            enc_b.1.encode(&r).data.to_vec(),
        );
        let hint = Some(ds_b.gt_pose_cw(0)).filter(|_| i == 0);
        process_one(
            &server,
            2,
            stereo_frame(i, ds_b.frame_time(i), payload, hint),
        );
    }

    // Concurrently: client 1 tracks (global-map read locks, one per
    // frame) while client 2's map is merged (a long write-lock section).
    let server = &server;
    let tracked = std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            encoded_a
                .map(|frame| process_one(server, 1, frame).tracked)
                .collect::<Vec<bool>>()
        });
        let merge = server.merge_client_now(2, ds_b.frame_time(9));
        let tracked = reader.join().expect("tracking thread panicked");
        assert!(merge.is_some(), "client 2 failed to merge");
        tracked
    });
    assert!(
        tracked.iter().all(|&t| t),
        "client 1 lost tracking during the merge"
    );
    assert!(server.is_merged(2));

    let stats = server.store.lock_stats();
    assert!(stats.read_acquisitions > 0 && stats.write_acquisitions > 0);
}

/// Every map quantity local BA touches, at full bit precision (Debug
/// formatting of f64 round-trips exactly).
fn map_fingerprint(map: &Map) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, kf) in &map.keyframes {
        writeln!(s, "kf {id:?} {:?}", kf.pose_cw).unwrap();
    }
    for (id, mp) in &map.mappoints {
        writeln!(s, "mp {id:?} {:?} {:?}", mp.position, mp.normal).unwrap();
    }
    s
}

/// Local BA has one (inline) route, so what is left of the old
/// worker-count comparison is the scratch: a reused `BaScratch` must give
/// the bits a fresh one gives.
#[test]
fn parallel_local_ba_is_bit_identical_to_sequential() {
    // A real map with covisibility: run the full single-client pipeline
    // for a dozen frames so keyframes share tracked points.
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(12)
            .with_seed(71),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut system = SlamSystem::new(
        ClientId(1),
        SlamConfig::stereo(ds.rig),
        vocab,
        Arc::new(GpuExecutor::cpu()),
    );
    for i in 0..12 {
        let (l, r) = ds.render_stereo_frame(i);
        system.process_frame(FrameInput {
            timestamp: ds.frame_time(i),
            left: &l,
            right: Some(&r),
            imu: &[],
            pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
        });
    }
    let base = system.map.clone();
    assert!(base.n_keyframes() >= 3, "{} keyframes", base.n_keyframes());
    let center = base.latest_keyframe().expect("map has keyframes").id;

    // Reference: a cold scratch.
    let mut scratch = BaScratch::default();
    let mut cold = base.clone();
    let cold_stats = local_bundle_adjust_with(
        &mut cold,
        &ds.rig.cam,
        center,
        6,
        3,
        &GpuExecutor::cpu(),
        &mut scratch,
    );
    assert!(
        cold_stats.n_keyframes >= 2 && cold_stats.n_points > 0,
        "BA window too small to exercise both passes: {cold_stats:?}"
    );
    let cold_fp = map_fingerprint(&cold);
    assert_ne!(
        map_fingerprint(&base),
        cold_fp,
        "BA changed nothing — the comparison would be vacuous"
    );

    // The same adjustment on the now-warm scratch (what a long-lived
    // mapper runs) must not see anything the first call left behind.
    let mut warm = base.clone();
    let warm_stats = local_bundle_adjust_with(
        &mut warm,
        &ds.rig.cam,
        center,
        6,
        3,
        &GpuExecutor::cpu(),
        &mut scratch,
    );
    assert_eq!(
        cold_fp,
        map_fingerprint(&warm),
        "local BA on a reused scratch diverged from a cold one"
    );
    assert_eq!(
        cold_stats.final_cost.to_bits(),
        warm_stats.final_cost.to_bits(),
        "BA cost diverged on a reused scratch"
    );
    assert_eq!(cold_stats.n_observations, warm_stats.n_observations);
}

#[test]
fn async_merge_lands_mid_round_without_changing_committed_results() {
    const CLIENTS: usize = 2;
    const FRAMES: usize = 8;

    let build_server = |rig: &MultiClientRig, async_merge: bool| {
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut config = ServerConfig::stereo_default(rig.datasets[0].rig);
        // The test drives the merge by hand mid-run.
        config.merge_after_keyframes = usize::MAX;
        config.async_merge = async_merge;
        let mut server = EdgeServer::new(config, vocab);
        for c in 0..CLIENTS {
            server.try_register_client(c as u16 + 1).unwrap();
        }
        server.set_round_workers(2);
        server
    };
    let round = |server: &EdgeServer, rig: &mut MultiClientRig, i: usize| {
        offer_round(server, numbered(rig.encode_tick(i)))
    };

    // Reference: no merge ever happens. Client 1 stays on its private
    // local map, so its committed results cannot legitimately depend on
    // anything client 2 (or the merge worker) does.
    let mut rig = MultiClientRig::new(CLIENTS, FRAMES + 1);
    let server = build_server(&rig, false);
    let mut reference_keys = Vec::new();
    for i in 0..=FRAMES {
        reference_keys.push(result_key(&round(&server, &mut rig, i)[0]));
    }

    // Async run: client 2's merge is submitted mid-run and lands on the
    // worker thread while rounds keep committing.
    let mut rig = MultiClientRig::new(CLIENTS, FRAMES + 1);
    let server = build_server(&rig, true);
    let mut client1_keys = Vec::new();
    let mut submitted = false;
    for i in 0..FRAMES {
        client1_keys.push(result_key(&round(&server, &mut rig, i)[0]));
        if !submitted && i >= FRAMES / 2 {
            submitted = server.submit_merge(2, rig.datasets[1].frame_time(i));
        }
    }
    assert!(submitted, "client 2 never became ready to merge");
    server.wait_merge_idle();
    // One more round: client 2's commit collects the completion and the
    // client transitions to shared-map tracking.
    client1_keys.push(result_key(&round(&server, &mut rig, FRAMES)[0]));

    assert!(server.is_merged(2), "async merge never landed");
    assert_eq!(server.merge_log().len(), 1);
    let stats = server
        .merge_worker_stats()
        .expect("async server has a merge worker");
    assert_eq!(stats.submitted, 1, "{stats:?}");
    assert_eq!(stats.applied, 1, "{stats:?}");
    assert!(stats.p95_latency_ms > 0.0, "{stats:?}");
    let (kfs, mps, _) = server.global_map_stats();
    assert!(kfs > 0 && mps > 0, "merged map is empty");

    assert_eq!(
        reference_keys, client1_keys,
        "a background merge of client 2 changed client 1's committed results"
    );
}

/// FNV-1a 64-bit digest of a run transcript: one number per
/// configuration, printable in the failure message.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The mapping path (local BA, batched culling) must leave every
/// committed result and the final global map bit-identical however the
/// global map is sharded. Same style as the extraction determinism
/// test: the whole multi-client run is folded into one digest per
/// configuration and they must collide. Dataset and
/// vocabulary seeds are pinned (independent of `SLAMSHARE_TEST_SEED`)
/// so the digest is a true golden value for this host-independent
/// pipeline.
#[test]
fn mapping_digest_is_identical_across_shards() {
    const CLIENTS: usize = 3;
    const FRAMES: usize = 8;

    let mut digests: Vec<(usize, u64)> = Vec::new();
    for shards in [1usize, 16] {
        let mut rig = MultiClientRig::new(CLIENTS, FRAMES);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut config = ServerConfig::stereo_default(rig.datasets[0].rig);
        config.map_shards = shards;
        let mut server = EdgeServer::new(config, vocab);
        for c in 0..CLIENTS {
            server.try_register_client(c as u16 + 1).unwrap();
        }
        let keys = run_rounds(&server, &mut rig, FRAMES);
        assert!(
            server.merge_log().iter().any(|(_, c, _)| *c == 1),
            "run never merged client 1 — digest would skip shared-phase mapping"
        );
        let mut transcript = keys.join("\n");
        transcript.push('\n');
        transcript.push_str(&map_fingerprint(&server.store.snapshot_map()));
        digests.push((shards, fnv1a64(&transcript)));
    }
    let (s0, golden) = digests[0];
    for &(shards, d) in &digests[1..] {
        assert_eq!(
            d, golden,
            "mapping digest diverged: {shards} shards vs {s0} shards"
        );
    }
}

/// `ServerConfig::async_merge` picks the thread a merge job runs on, not
/// what the job does: the same two hand-driven merges (client 1 into the
/// empty global map, client 2 welded onto it) must leave the same merge
/// reports, the same committed results and the same final map whether
/// each job ran on the submitting caller or on the worker thread. The
/// test waits for the worker before the next round, so both placements
/// see the same global map at snapshot time and at collection.
#[test]
fn merge_is_the_same_on_either_thread() {
    const FRAMES: usize = 12;
    /// `(client, submit after this round)`.
    const SUBMITS: [(u16, usize); 2] = [(1, 3), (2, 7)];
    let seed: u64 = std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let run = |shards: usize, async_merge: bool| {
        let mut rig = MultiClientRig {
            datasets: (0..2)
                .map(|c| {
                    Dataset::build(
                        DatasetConfig::new(TracePreset::V202)
                            .with_frames(FRAMES)
                            .with_seed(seed.wrapping_mul(2).wrapping_add(c)),
                    )
                })
                .collect(),
            encoders: (0..2).map(|_| Default::default()).collect(),
        };
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut config = ServerConfig::stereo_default(rig.datasets[0].rig);
        // Merges are driven by hand, at the same rounds on either thread.
        config.merge_after_keyframes = usize::MAX;
        config.async_merge = async_merge;
        config.map_shards = shards;
        let mut server = EdgeServer::new(config, vocab);
        for c in 1..=2 {
            server.try_register_client(c).unwrap();
        }
        let mut keys = Vec::new();
        for i in 0..FRAMES {
            keys.extend(run_round(&server, &mut rig, i));
            for (client, after) in SUBMITS {
                if after == i {
                    let t = rig.datasets[client as usize - 1].frame_time(i);
                    assert!(server.submit_merge(client, t), "client {client} not ready");
                    server.wait_merge_idle();
                }
            }
        }
        let merges: Vec<String> = server
            .merge_log()
            .iter()
            .map(|(t, c, m)| {
                format!(
                    "t={t:?} client={c} transform={:?} fused={} kf={} mp={}",
                    m.report.transform, m.report.n_fused, m.report.n_kf_added, m.report.n_mp_added
                )
            })
            .collect();
        let stats = server.merge_worker_stats().expect("every server has one");
        assert_eq!((stats.submitted, stats.applied), (2, 2), "{stats:?}");
        (merges, keys, map_fingerprint(&server.store.snapshot_map()))
    };

    for shards in [1usize, 16] {
        let (merges, keys, map) = run(shards, false);
        assert_eq!(merges.len(), 2, "a hand-driven merge never landed");
        assert!(
            merges[1].contains("transform=Some"),
            "client 2 was not aligned onto client 1 — nothing welded: {merges:?}"
        );
        assert!(
            keys.iter().filter(|k| k.contains("merged=true")).count() > FRAMES - 8,
            "no post-merge frames to compare"
        );
        let (t_merges, t_keys, t_map) = run(shards, true);
        assert_eq!(merges, t_merges, "merge reports differ, {shards} shards");
        assert_eq!(keys, t_keys, "committed results differ, {shards} shards");
        assert!(map == t_map, "final map differs, {shards} shards");
    }
}
