//! Region-sharded global map: multi-writer stress and cross-shard
//! determinism.
//!
//! The sharded map's contract (crates/slamshare-core/src/gmap.rs) is that
//! shard placement is invisible to results — every write gathers its
//! locked component into one scratch map and runs the unchanged
//! mapping/merge code — so a client's committed results are bit-identical
//! at any shard count, while writers in disjoint regions hold disjoint
//! write locks. These tests drive the real server (video decode →
//! speculative track → commit) against 1-, 4- and 16-shard stores, with
//! concurrent and interleaved bulk absorbs into both disjoint and
//! overlapping region sets.

use slam_share::core::gmap::REGION_CELL_M;
use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slam_share::math::{Vec3, SE3};
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::ids::ClientId;
use slam_share::slam::map::{KeyFrame, Map, MapPoint, RegionAssigner};
use slam_share::slam::vocabulary;
use std::collections::BTreeSet;
use std::sync::Arc;

const FRAMES: usize = 16;
const MERGE_AT: usize = 9;
const N_SHARDS_MAX: usize = 16;

/// Everything a frame result asserts about SLAM state, timing excluded
/// (same shape as tests/determinism.rs).
fn result_key(r: &ServerFrameResult) -> String {
    format!(
        "idx={} pose={:?} tracked={} merged={} n_matches={}",
        r.frame_idx, r.pose, r.tracked, r.merged, r.n_matches,
    )
}

/// Full-bit-precision fingerprint of the global map's geometry.
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

/// A synthetic pre-built map fragment whose keyframes sit in the ~10 m
/// grid cells around world x-offset `x`: `n_kf` keyframes 0.5 m apart
/// sharing a handful of points (internal covisibility only, so absorbing
/// it never unions its regions with anyone else's). Timestamps are
/// negative so a fragment can never win a latest-keyframe tie anywhere.
fn make_fragment(client: u16, x: f64, n_kf: usize) -> Map {
    let mut m = Map::new(ClientId(client));
    let mut kfs = Vec::new();
    for i in 0..n_kf {
        let id = m.alloc.next_keyframe();
        let cx = x + i as f64 * 0.5;
        m.insert_keyframe(KeyFrame {
            id,
            pose_cw: SE3::from_translation(Vec3::new(-cx, 0.0, 0.0)),
            timestamp: -100.0 + i as f64 * 0.1,
            keypoints: Vec::new(),
            descriptors: Vec::new(),
            matched_points: Vec::new(),
            bow: Default::default(),
        });
        kfs.push(id);
    }
    for j in 0..4usize {
        let mp = m.alloc.next_mappoint();
        m.mappoints.insert(
            mp,
            MapPoint {
                id: mp,
                position: Vec3::new(x + j as f64 * 0.2, 1.0, 2.0),
                descriptor: Default::default(),
                normal: Vec3::new(0.0, 0.0, 1.0),
                observations: kfs.iter().map(|&k| (k, j)).collect(),
                replaced_by: None,
                created_frame: 0,
            },
        );
    }
    m
}

/// Region indices a fragment at offset `x` will occupy.
fn fragment_regions(assigner: &RegionAssigner, x: f64, n_kf: usize) -> BTreeSet<usize> {
    (0..n_kf)
        .map(|i| assigner.region_of(Vec3::new(x + i as f64 * 0.5, 0.0, 0.0)) as usize)
        .collect()
}

/// Every region the client's trajectory could possibly touch: the cells
/// of its ground-truth camera centers with a ±1 m guard band (estimated
/// centers track ground truth to centimeters, so only cell-boundary
/// straddling matters — a ±cell expansion would swallow most of the 16
/// hash buckets).
fn client_regions(assigner: &RegionAssigner, ds: &Dataset) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    for i in 0..FRAMES {
        let c = ds
            .gt_pose_cw(i)
            .inverse()
            .transform(Vec3::new(0.0, 0.0, 0.0));
        for dx in [-1.0, 0.0, 1.0] {
            for dy in [-1.0, 0.0, 1.0] {
                for dz in [-1.0, 0.0, 1.0] {
                    set.insert(
                        assigner.region_of(Vec3::new(c.x + dx, c.y + dy, c.z + dz)) as usize
                    );
                }
            }
        }
    }
    set
}

/// Deterministically pick `count` far x-offsets whose grid cells hash to
/// regions disjoint from the client's (fragments may share regions with
/// *each other* — only disjointness from the client matters for the
/// lock-isolation claims).
fn pick_far_offsets(
    assigner: &RegionAssigner,
    taken: &BTreeSet<usize>,
    n_kf: usize,
    count: usize,
) -> Vec<f64> {
    let mut out = Vec::new();
    let mut k = 1usize;
    while out.len() < count {
        let x = k as f64 * 1000.0;
        k += 1;
        let regions = fragment_regions(assigner, x, n_kf);
        if regions.iter().all(|r| !taken.contains(r)) {
            out.push(x);
        }
        assert!(k < 10_000, "no collision-free offsets in 10k candidates");
    }
    out
}

fn build_server(ds: &Dataset, shards: usize) -> EdgeServer {
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(ds.rig);
    config.map_shards = shards;
    // Merges are driven by hand at a fixed frame.
    config.merge_after_keyframes = usize::MAX;
    let mut server = EdgeServer::new(config, vocab);
    server.try_register_client(1).unwrap();
    server
}

/// A round of one stereo frame for client 1.
fn process_one(
    server: &EdgeServer,
    frame_idx: usize,
    timestamp: f64,
    (left, right): &(Vec<u8>, Vec<u8>),
    pose_hint: Option<SE3>,
) -> ServerFrameResult {
    let frame = QueuedFrame {
        frame_idx,
        timestamp,
        left: left.clone(),
        right: Some(right.clone()),
        pose_hint,
        ..QueuedFrame::default()
    };
    server.offer_frame(1, frame).expect("registered client");
    server.process_queued_round().remove(0).1
}

fn dataset() -> Dataset {
    Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(FRAMES)
            .with_seed(51),
    )
}

/// Run the single-client workload: local phase, sync merge at frame
/// `MERGE_AT`, then shared-phase commits. `absorb_after(frame)` supplies
/// fragments to bulk-absorb between frames; returns per-frame result
/// keys, absorb receipts (locked region sets) and the final map
/// fingerprint.
fn run_workload(
    ds: &Dataset,
    shards: usize,
    mut absorb_after: impl FnMut(usize) -> Vec<Map>,
) -> (Vec<String>, Vec<Vec<usize>>, String) {
    let server = build_server(ds, shards);
    let mut enc = (VideoEncoder::default(), VideoEncoder::default());
    let mut keys = Vec::new();
    let mut receipts = Vec::new();
    for i in 0..FRAMES {
        let (l, r) = ds.render_stereo_frame(i);
        let payload = (
            enc.0.encode(&l).data.to_vec(),
            enc.1.encode(&r).data.to_vec(),
        );
        let res = process_one(
            &server,
            i,
            ds.frame_time(i),
            &payload,
            (i == 0).then(|| ds.gt_pose_cw(0)),
        );
        keys.push(result_key(&res));
        if i == MERGE_AT {
            server
                .merge_client_now(1, ds.frame_time(i))
                .expect("merge into empty global map");
            assert!(server.is_merged(1));
        }
        for frag in absorb_after(i) {
            receipts.push(server.absorb_external_fragment(frag));
        }
        if let Err(e) = server.store.check_invariants() {
            panic!("map invariant broken after round {i} at {shards} shards: {e}");
        }
    }
    assert!(
        keys.iter()
            .skip(MERGE_AT + 1)
            .any(|k| k.contains("tracked=true")),
        "client never tracked on the shared map"
    );
    let fp = map_fingerprint(&server.store.snapshot_map());
    (keys, receipts, fp)
}

/// The same workload — shared-phase commits interleaved with bulk
/// absorbs into disjoint *and* overlapping (the client's own) region
/// sets — is bit-identical at 1, 4 and 16 shards: shard placement is
/// invisible to committed poses and to the final map geometry.
#[test]
fn commits_bit_identical_across_shard_counts() {
    let ds = dataset();
    let assigner = RegionAssigner::new(N_SHARDS_MAX, REGION_CELL_M);
    let own = client_regions(&assigner, &ds);
    let far = pick_far_offsets(&assigner, &own, 3, 2);
    // Client camera center at the merge frame: an *overlapping* fragment
    // lands in the client's own component.
    let overlap_at = ds
        .gt_pose_cw(MERGE_AT)
        .inverse()
        .transform(Vec3::new(0.0, 0.0, 0.0))
        .x;
    let absorbs = move |i: usize| -> Vec<Map> {
        match i {
            11 => vec![make_fragment(100, far[0], 3)],
            12 => vec![make_fragment(101, overlap_at, 3)],
            14 => vec![make_fragment(102, far[1], 3)],
            _ => Vec::new(),
        }
    };

    let (ref_keys, ref_receipts, ref_fp) = run_workload(&ds, 1, &absorbs);
    assert_eq!(ref_receipts.len(), 3);
    for shards in [4usize, 16] {
        let (keys, receipts, fp) = run_workload(&ds, shards, &absorbs);
        assert_eq!(
            ref_keys, keys,
            "committed results diverged at {shards} shards"
        );
        assert_eq!(ref_fp, fp, "map geometry diverged at {shards} shards");
        assert_eq!(receipts.len(), 3);
        // At 16 shards the far absorbs hold strict subsets of the write
        // locks, and never a region the client's component occupies.
        if shards == N_SHARDS_MAX {
            for (k, receipt) in receipts.iter().enumerate() {
                assert!(
                    receipt.len() < shards,
                    "absorb {k} write-locked every region: {receipt:?}"
                );
                if k != 1 {
                    assert!(
                        receipt.iter().all(|r| !own.contains(r)),
                        "far absorb {k} locked a client region: {receipt:?} vs {own:?}"
                    );
                }
            }
        }
    }
}

/// Disjoint-region writers run truly concurrently: a background thread
/// bulk-absorbs far-away fragments while the client's shared-phase
/// commits proceed. Because the absorbs never touch (or epoch-bump) the
/// client's regions, the client's committed results are bit-identical to
/// a run with no background writer at all.
#[test]
fn concurrent_disjoint_absorbs_leave_commits_bit_identical() {
    const N_FRAGMENTS: usize = 6;
    let ds = dataset();
    let assigner = RegionAssigner::new(N_SHARDS_MAX, REGION_CELL_M);
    let own = client_regions(&assigner, &ds);
    let far = pick_far_offsets(&assigner, &own, 3, N_FRAGMENTS);

    // Reference: same server config, no background writer.
    let (ref_keys, _, _) = run_workload(&ds, N_SHARDS_MAX, |_| Vec::new());

    let server = build_server(&ds, N_SHARDS_MAX);
    let mut enc = (VideoEncoder::default(), VideoEncoder::default());
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = (0..FRAMES)
        .map(|i| {
            let (l, r) = ds.render_stereo_frame(i);
            (
                enc.0.encode(&l).data.to_vec(),
                enc.1.encode(&r).data.to_vec(),
            )
        })
        .collect();

    // Local phase + merge first, so every frame of the measured stretch
    // commits into the sharded global map.
    let mut keys = Vec::new();
    for (i, payload) in encoded.iter().enumerate().take(MERGE_AT + 1) {
        let res = process_one(
            &server,
            i,
            ds.frame_time(i),
            payload,
            (i == 0).then(|| ds.gt_pose_cw(0)),
        );
        keys.push(result_key(&res));
    }
    server
        .merge_client_now(1, ds.frame_time(MERGE_AT))
        .expect("merge into empty global map");

    let server = &server;
    let receipts = std::thread::scope(|scope| {
        let absorber = scope.spawn(move || {
            far.iter()
                .map(|&x| server.absorb_external_fragment(make_fragment(100, x, 3)))
                .collect::<Vec<Vec<usize>>>()
        });
        for (i, payload) in encoded.iter().enumerate().skip(MERGE_AT + 1) {
            let res = process_one(server, i, ds.frame_time(i), payload, None);
            keys.push(result_key(&res));
        }
        absorber.join().expect("absorber thread panicked")
    });

    assert_eq!(
        ref_keys, keys,
        "concurrent disjoint-region absorbs changed the client's committed results"
    );
    for (k, receipt) in receipts.iter().enumerate() {
        assert!(
            receipt.len() < N_SHARDS_MAX,
            "absorb {k} locked every region"
        );
        assert!(
            receipt.iter().all(|r| !own.contains(r)),
            "far absorb {k} locked a client region: {receipt:?}"
        );
    }
    // All six fragments and the client's map coexist in the stitched map.
    let (kfs, _, _) = server.global_map_stats();
    assert!(
        kfs >= N_FRAGMENTS * 3,
        "absorbed fragments missing from the global map: {kfs} keyframes"
    );
}

/// Overlapping-region writers: fragments absorbed *into the client's own
/// component* while it commits. Writers serialize on the shared region
/// locks; nobody deadlocks, every frame still tracks, and all content
/// lands.
#[test]
fn concurrent_overlapping_absorbs_serialize_without_losing_content() {
    const N_FRAGMENTS: usize = 4;
    let ds = dataset();
    let server = build_server(&ds, N_SHARDS_MAX);
    let mut enc = (VideoEncoder::default(), VideoEncoder::default());
    let encoded: Vec<(Vec<u8>, Vec<u8>)> = (0..FRAMES)
        .map(|i| {
            let (l, r) = ds.render_stereo_frame(i);
            (
                enc.0.encode(&l).data.to_vec(),
                enc.1.encode(&r).data.to_vec(),
            )
        })
        .collect();
    for (i, payload) in encoded.iter().enumerate().take(MERGE_AT + 1) {
        process_one(
            &server,
            i,
            ds.frame_time(i),
            payload,
            (i == 0).then(|| ds.gt_pose_cw(0)),
        );
    }
    server
        .merge_client_now(1, ds.frame_time(MERGE_AT))
        .expect("merge into empty global map");
    let overlap_at = ds
        .gt_pose_cw(MERGE_AT)
        .inverse()
        .transform(Vec3::new(0.0, 0.0, 0.0))
        .x;

    let server = &server;
    let tracked = std::thread::scope(|scope| {
        scope.spawn(move || {
            for c in 0..N_FRAGMENTS {
                server.absorb_external_fragment(make_fragment(100 + c as u16, overlap_at, 2));
            }
        });
        encoded
            .iter()
            .enumerate()
            .skip(MERGE_AT + 1)
            .map(|(i, payload)| process_one(server, i, ds.frame_time(i), payload, None).tracked)
            .collect::<Vec<bool>>()
    });
    assert!(
        tracked.iter().all(|&t| t),
        "client lost tracking during overlapping absorbs: {tracked:?}"
    );
    let snap = server.store.snapshot_map();
    for c in 0..N_FRAGMENTS as u16 {
        assert_eq!(
            snap.keyframes
                .keys()
                .filter(|id| id.client().0 == 100 + c)
                .count(),
            2,
            "fragment of client {} lost content",
            100 + c
        );
    }
}
