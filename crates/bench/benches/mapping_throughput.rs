//! Bench (extension): the commit stage off the critical path — local
//! BA, the async merge worker, and what they do to per-frame commit
//! latency (the serialized half of the round pipeline measured by
//! `tracking_throughput`).
//!
//! Writes `results/BENCH_mapping.json` with four sections:
//!
//! * `ba` — local-BA wall time and its pose/point pass split on one
//!   real map;
//! * `keyframe_write` — one stereo keyframe component write (BA off)
//!   into components of ~5 k, ~15 k and ~30 k map points spanning two
//!   regions: what a keyframe insertion costs as the map grows. Only the
//!   largest row's 95th percentile (`largest_p95_ms`) is gated;
//! * `commit` — commit-stage p50/p95/max per frame with the merge inline
//!   and on the async merge worker, each row pooled over
//!   [`COMMIT_REPEATS`] two-client runs (sixteen merges). With the worker
//!   on, the merge contributes nothing to the commit block by
//!   construction;
//! * `merge` — merge latencies as the client sees them (inline) vs as
//!   the worker measures them (async, over the same pooled runs),
//!   cross-checked against the Table 4 reference in
//!   `results/table4_merge_latency.json`.
//!
//! Also writes `results/BENCH_map_sharding.json`: commit latency and
//! merge-apply stalls for the region-sharded global map at 1, 4 and 16
//! shards, with a background writer bulk-absorbing map fragments while a
//! merged client commits — the contention experiment for
//! `slamshare_core::gmap`. At one shard every absorb serializes against
//! every commit (the whole map behind one lock); with 16 shards the
//! absorbs hold only their own regions' locks and the commit path stops
//! waiting on them.

use bench::{bench_effort, results_dir, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slamshare_core::gmap::{LockSeeds, ShardedGlobalMap, REGION_CELL_M};
use slamshare_core::metrics::MergeWorkerSnapshot;
use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{EdgeServer, ServerConfig};
use slamshare_gpu::GpuExecutor;
use slamshare_net::codec::VideoEncoder;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::ids::{ClientId, IdAllocator};
use slamshare_slam::map::{KeyFrame, Map, MapPoint, MapRead, MapWrite};
use slamshare_slam::mapping::{LocalMapper, MappingConfig};
use slamshare_slam::optimize::{local_bundle_adjust_with, BaScratch};
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use slamshare_slam::tracking::{FrameObservation, SensorMode, Tracker, TrackerConfig};
use slamshare_slam::vocabulary;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BaSection {
    n_keyframes: usize,
    n_points: usize,
    wall_ms: f64,
    pose_pass_ms: f64,
    point_pass_ms: f64,
}

#[derive(Serialize)]
struct CommitRow {
    config: &'static str,
    async_merge: bool,
    /// Commit-block percentiles over frames that inserted a keyframe
    /// (mapping + any inline merge the commit had to wait for).
    p50_commit_ms: f64,
    p95_commit_ms: f64,
    max_commit_ms: f64,
    /// Largest single merge stall on the commit path. Zero when the
    /// worker handles merges — commits never wait on DetectCommonRegion.
    max_merge_block_ms: f64,
    merges: usize,
}

#[derive(Serialize)]
struct MergeSection {
    /// Inline merge latency as the committing frame saw it (sync runs).
    inline_mean_ms: f64,
    /// The async row's worker counters, summed over its runs, with the
    /// latency percentiles of every merge its clients collected.
    worker: Option<MergeWorkerSnapshot>,
    /// `s_merge` from Table 4, for cross-checking the worker latencies
    /// against the paper-reproduction experiment (absent until that
    /// bench has run).
    table4_reference_ms: Option<f64>,
}

#[derive(Serialize)]
struct KeyframeWriteRow {
    /// Map points in the component the keyframe is written into.
    points: usize,
    keyframes: usize,
    /// Regions the write locked.
    regions_locked: usize,
    /// Stereo points the keyframe creates.
    new_points: usize,
    p50_ms: f64,
    /// 95th percentile, ungated (`largest_p95_ms` gates the largest row).
    tail_ms: f64,
}

#[derive(Serialize)]
struct KeyframeWriteSection {
    /// Write calls timed per row.
    writes: usize,
    rows: Vec<KeyframeWriteRow>,
    /// The largest component's 95th percentile — the gated key.
    largest_p95_ms: f64,
}

#[derive(Serialize)]
struct BenchMapping {
    host_cores: usize,
    frames_per_client: usize,
    ba: BaSection,
    keyframe_write: KeyframeWriteSection,
    commit: Vec<CommitRow>,
    merge: MergeSection,
}

/// Build one real single-client map so BA has covisibility to chew on.
fn build_map(frames: usize) -> (Dataset, Map) {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(frames)
            .with_seed(71),
    );
    let mut system = SlamSystem::new(
        ClientId(1),
        SlamConfig::stereo(ds.rig),
        Arc::new(vocabulary::train_random(42)),
        Arc::new(GpuExecutor::cpu()),
    );
    for i in 0..frames {
        let (l, r) = ds.render_stereo_frame(i);
        system.process_frame(FrameInput {
            timestamp: ds.frame_time(i),
            left: &l,
            right: Some(&r),
            imu: &[],
            pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
        });
    }
    let map = system.map.clone();
    (ds, map)
}

fn ba_once(ds: &Dataset, base: &Map) -> BaSection {
    let center = base.latest_keyframe().expect("map has keyframes").id;
    let mut map = base.clone();
    let t0 = Instant::now();
    let stats = local_bundle_adjust_with(
        &mut map,
        &ds.rig.cam,
        center,
        6,
        3,
        &GpuExecutor::cpu(),
        &mut BaScratch::default(),
    );
    BaSection {
        n_keyframes: stats.n_keyframes,
        n_points: stats.n_points,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        pose_pass_ms: stats.pose_ms,
        point_pass_ms: stats.point_ms,
    }
}

/// Keypoint slots per synthetic component keyframe: the first
/// `OWN_POINTS` hold the keyframe's own points, the rest observe points of
/// the previous keyframe (in the other region), which joins the two
/// regions into one component.
const SLOTS: usize = 250;
const OWN_POINTS: usize = 240;

/// Time `writes` stereo keyframe component writes (BA off) into a
/// synthetic component of about `target_points` map points whose
/// keyframes alternate between the cell under `obs`'s camera and another
/// cell hashing to a different region. Each timed write is undone by an
/// untimed one, so every write sees the same component.
fn keyframe_write_row(
    ds: &Dataset,
    vocab: &slamshare_features::bow::Vocabulary,
    obs: &FrameObservation,
    target_points: usize,
    writes: usize,
) -> KeyframeWriteRow {
    use slamshare_features::{Descriptor, KeyPoint};
    use slamshare_math::{Vec2, Vec3, SE3};
    let gmap = ShardedGlobalMap::create(
        Arc::new(slamshare_shm::Segment::new(1 << 30)),
        "bench/keyframe_write",
        ServerConfig::stereo_default(ds.rig).map_shards,
        REGION_CELL_M,
    )
    .expect("fresh segment");
    let c0 = obs.pose_cw.camera_center();
    let r0 = gmap.region_of(c0);
    let c1 = (1..)
        .map(|k| c0 + Vec3::new(k as f64 * REGION_CELL_M, 0.0, 0.0))
        .find(|&c| gmap.region_of(c) != r0)
        .expect("a second region");
    let n_kf = (target_points / OWN_POINTS).max(2);
    let mut alloc = IdAllocator::new(ClientId(2));
    let ids: Vec<_> = (0..n_kf).map(|_| alloc.next_keyframe()).collect();
    let own: Vec<Vec<_>> = (0..n_kf)
        .map(|_| (0..OWN_POINTS).map(|_| alloc.next_mappoint()).collect())
        .collect();
    let shared = SLOTS - OWN_POINTS;
    gmap.with_component_write(&LockSeeds::all(), |m, _| {
        for (k, (&id, points)) in ids.iter().zip(&own).enumerate() {
            let c = if k % 2 == 0 { c0 } else { c1 };
            let mut matched_points: Vec<_> = points.iter().copied().map(Some).collect();
            matched_points.extend((0..shared).map(|j| k.checked_sub(1).map(|p| own[p][j])));
            m.put_keyframe(KeyFrame {
                id,
                pose_cw: SE3::from_translation(-c),
                timestamp: -1.0 - k as f64,
                keypoints: vec![KeyPoint::new(Vec2::ZERO, 0, 1.0); SLOTS],
                descriptors: vec![Descriptor::ZERO; SLOTS],
                matched_points,
                bow: Default::default(),
            });
            for (j, &mp) in points.iter().enumerate() {
                let mut observations = vec![(id, j)];
                if let Some(&next) = ids.get(k + 1).filter(|_| j < shared) {
                    observations.push((next, OWN_POINTS + j));
                }
                m.put_mappoint(MapPoint {
                    id: mp,
                    position: c + Vec3::new(j as f64 * 0.01, 0.0, 5.0),
                    descriptor: Descriptor::ZERO,
                    normal: Vec3::Z,
                    observations,
                    replaced_by: None,
                    created_frame: 0,
                });
            }
        }
        ((), true)
    });
    let (keyframes, points, _) = gmap.stats();

    let mut mapper = LocalMapper::new(
        SensorMode::Stereo,
        ds.rig,
        MappingConfig {
            ba_every: 0,
            ..MappingConfig::default()
        },
    );
    let seeds = LockSeeds {
        kfs: ids.last().copied().into_iter().collect(),
        positions: vec![c0],
        all: false,
    };
    let mut times = Vec::with_capacity(writes);
    let (mut regions_locked, mut new_points) = (0, 0);
    for _ in 0..writes {
        let t0 = Instant::now();
        let (report, locked) = gmap.with_component_write(&seeds, |m, _| {
            *m.alloc_mut() = alloc.clone();
            let report = mapper.insert_keyframe(m, vocab, obs);
            alloc = m.alloc_mut().clone();
            (report, true)
        });
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        regions_locked = locked.len();
        new_points = report.n_new_points;
        gmap.with_component_write(&seeds, |m, _| {
            if let Some(kf) = report.kf_id {
                m.remove_keyframe(kf);
            }
            ((), true)
        });
    }
    let pct = slamshare_math::stats::percentile;
    KeyframeWriteRow {
        points,
        keyframes,
        regions_locked,
        new_points,
        p50_ms: pct(&times, 50.0),
        tail_ms: pct(&times, 95.0),
    }
}

struct Workload {
    datasets: Vec<Dataset>,
    encoders: Vec<(VideoEncoder, VideoEncoder)>,
}

impl Workload {
    fn new(clients: usize, frames: usize) -> Workload {
        let datasets = (0..clients)
            .map(|c| {
                Dataset::build(
                    DatasetConfig::new(TracePreset::V202)
                        .with_frames(frames)
                        .with_seed(81 + c as u64),
                )
            })
            .collect();
        let encoders = (0..clients).map(|_| Default::default()).collect();
        Workload { datasets, encoders }
    }
}

/// Fresh two-client runs pooled into each commit row. Each run merges
/// twice — the first client's map becomes the global map, the second's
/// aligns onto it — so a row's p95s rest on sixteen merges, eight of them
/// aligned, rather than on the slower of two.
const COMMIT_REPEATS: usize = 8;

/// What one two-client run of a commit row records.
#[derive(Default)]
struct CommitSamples {
    /// Commit block of every frame that inserted a keyframe or waited on
    /// an inline merge, ms.
    commit_ms: Vec<f64>,
    /// Inline merge stalls, ms (sync runs only).
    merge_stalls: Vec<f64>,
    /// Wall time of every merge a client collected, ms.
    merge_ms: Vec<f64>,
    /// The merge worker's counters, summed over the runs.
    worker: MergeWorkerSnapshot,
}

/// One two-client run, its samples appended to `out`.
fn commit_run(async_merge: bool, frames: usize, out: &mut CommitSamples) {
    const CLIENTS: usize = 2;
    let mut load = Workload::new(CLIENTS, frames);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(load.datasets[0].rig);
    config.async_merge = async_merge;
    let mut server = EdgeServer::new(config, vocab);
    for c in 0..CLIENTS {
        server
            .try_register_client(c as u16 + 1)
            .expect("fresh server");
    }
    server.set_round_workers(CLIENTS);

    for i in 0..frames {
        let clients = load.datasets.iter().zip(load.encoders.iter_mut());
        for (c, (ds, (el, er))) in clients.enumerate() {
            let (l, r) = ds.render_stereo_frame(i);
            let frame = QueuedFrame {
                frame_idx: i,
                timestamp: ds.frame_time(i),
                left: el.encode(&l).data.to_vec(),
                right: Some(er.encode(&r).data.to_vec()),
                pose_hint: (c == 0 && i == 0).then(|| ds.gt_pose_cw(0)),
                ..QueuedFrame::default()
            };
            server
                .offer_frame(c as u16 + 1, frame)
                .expect("registered client");
        }
        for (_, r) in server.process_queued_round() {
            // The merge blocks the commit only on the inline path; the
            // worker plans it on its own thread.
            let merge_ms = r.merge.as_ref().map(|m| m.merge_ms);
            let inline_merge = if async_merge {
                0.0
            } else {
                merge_ms.unwrap_or(0.0)
            };
            if let Some(ms) = merge_ms {
                out.merge_ms.push(ms);
                if !async_merge {
                    out.merge_stalls.push(inline_merge);
                }
            }
            if r.mapping_ms > 0.0 || inline_merge > 0.0 {
                out.commit_ms.push(r.mapping_ms + inline_merge);
            }
        }
    }
    // Let any in-flight merge land so the counters and the sync/async
    // runs cover the same work.
    server.wait_merge_idle();
    if let Some(s) = server.merge_worker_stats() {
        let w = &mut out.worker;
        w.submitted += s.submitted;
        w.applied += s.applied;
        w.conflicts += s.conflicts;
        w.fallback_applies += s.fallback_applies;
        w.no_region += s.no_region;
        w.worker_lost += s.worker_lost;
        w.stale_completions += s.stale_completions;
    }
}

/// One commit row over [`COMMIT_REPEATS`] pooled runs; returns the row,
/// the inline merge stalls, and the worker's summed counters with
/// latency percentiles over every merge the clients collected.
fn run_commit_config(
    config_name: &'static str,
    async_merge: bool,
    frames: usize,
) -> (CommitRow, Vec<f64>, Option<MergeWorkerSnapshot>) {
    let mut samples = CommitSamples::default();
    for _ in 0..COMMIT_REPEATS {
        commit_run(async_merge, frames, &mut samples);
    }
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    };
    let pct = |sorted: &[f64], p: f64| -> f64 {
        if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
        }
    };
    let commit_ms = sorted(&samples.commit_ms);
    let merge_ms = sorted(&samples.merge_ms);
    let row = CommitRow {
        config: config_name,
        async_merge,
        p50_commit_ms: pct(&commit_ms, 0.50),
        p95_commit_ms: pct(&commit_ms, 0.95),
        max_commit_ms: pct(&commit_ms, 1.0),
        max_merge_block_ms: samples.merge_stalls.iter().copied().fold(0.0, f64::max),
        merges: merge_ms.len(),
    };
    let worker = MergeWorkerSnapshot {
        p50_latency_ms: pct(&merge_ms, 0.50),
        p95_latency_ms: pct(&merge_ms, 0.95),
        max_latency_ms: pct(&merge_ms, 1.0),
        ..samples.worker
    };
    (row, samples.merge_stalls, Some(worker))
}

#[derive(Serialize)]
struct ShardRow {
    shards: usize,
    /// Post-merge round-of-one wall time percentiles (speculative
    /// track + commit, including region-lock waits), ms.
    commit_p50_ms: f64,
    commit_p95_ms: f64,
    commit_max_ms: f64,
    /// Wall time of each background bulk absorb (the merge-apply analog:
    /// a write under the destination regions' locks), ms.
    absorb_p50_ms: f64,
    absorb_p95_ms: f64,
    absorb_max_ms: f64,
    /// Total time all threads spent waiting on region locks, ms.
    lock_wait_ms: f64,
    /// Mean regions write-locked per absorb (== shards at 1 shard;
    /// a strict subset once the map is sharded).
    mean_locked_regions: f64,
    n_components: usize,
}

#[derive(Serialize)]
struct BenchMapSharding {
    host_cores: usize,
    frames: usize,
    fragments: usize,
    fragment_keyframes: usize,
    rows: Vec<ShardRow>,
}

/// Synthetic pre-built fragment `frag_kfs` keyframes long near world
/// x-offset `x` (internal covisibility only; negative timestamps so it
/// never wins a latest-keyframe tie). Mirrors tests/map_sharding.rs.
fn make_fragment(client: u16, x: f64, frag_kfs: usize) -> Map {
    use slamshare_slam::map::{KeyFrame, MapPoint};
    let mut m = Map::new(ClientId(client));
    let mut kfs = Vec::new();
    for i in 0..frag_kfs {
        let id = m.alloc.next_keyframe();
        let cx = x + i as f64 * 0.1;
        m.insert_keyframe(KeyFrame {
            id,
            pose_cw: slamshare_math::SE3::from_translation(slamshare_math::Vec3::new(
                -cx, 0.0, 0.0,
            )),
            timestamp: -100.0 + i as f64 * 0.1,
            keypoints: Vec::new(),
            descriptors: Vec::new(),
            matched_points: Vec::new(),
            bow: Default::default(),
        });
        kfs.push(id);
    }
    for j in 0..(frag_kfs * 4) {
        let mp = m.alloc.next_mappoint();
        m.mappoints.insert(
            mp,
            MapPoint {
                id: mp,
                position: slamshare_math::Vec3::new(x + j as f64 * 0.05, 1.0, 2.0),
                descriptor: Default::default(),
                normal: slamshare_math::Vec3::new(0.0, 0.0, 1.0),
                observations: kfs.iter().map(|&k| (k, j)).collect(),
                replaced_by: None,
                created_frame: 0,
            },
        );
    }
    m
}

/// One shard-count configuration: a single client merges into the global
/// map, then commits its remaining frames while a background thread
/// bulk-absorbs `fragments` far-away map fragments.
fn run_sharding_config(
    shards: usize,
    frames: usize,
    fragments: usize,
    frag_kfs: usize,
) -> ShardRow {
    use slamshare_core::gmap::REGION_CELL_M;
    use slamshare_slam::map::RegionAssigner;
    const MERGE_AT: usize = 9;
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(frames)
            .with_seed(51),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(ds.rig);
    config.map_shards = shards;
    config.merge_after_keyframes = usize::MAX;
    let mut server = EdgeServer::new(config, vocab);
    server.try_register_client(1).expect("fresh server");
    let process_one = |server: &EdgeServer, frame: QueuedFrame| {
        server
            .offer_frame(1, frame)
            .expect("client 1 is registered");
        server.process_queued_round();
    };

    let mut enc: (VideoEncoder, VideoEncoder) = Default::default();
    // Encoded up front, so the timed rounds below time only the server.
    let encoded: Vec<QueuedFrame> = (0..frames)
        .map(|i| {
            let (l, r) = ds.render_stereo_frame(i);
            QueuedFrame {
                frame_idx: i,
                timestamp: ds.frame_time(i),
                left: enc.0.encode(&l).data.to_vec(),
                right: Some(enc.1.encode(&r).data.to_vec()),
                pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
                ..QueuedFrame::default()
            }
        })
        .collect();
    let mut encoded = encoded.into_iter();
    for frame in encoded.by_ref().take(MERGE_AT + 1) {
        process_one(&server, frame);
    }
    server
        .merge_client_now(1, ds.frame_time(MERGE_AT))
        .expect("merge into empty global map");

    // Far offsets whose cells hash outside the client's regions (always
    // region 0 == everything at one shard, where contention is the
    // point).
    let assigner = RegionAssigner::new(shards, REGION_CELL_M);
    let client_cells: Vec<usize> = (0..frames)
        .map(|i| {
            let c = ds
                .gt_pose_cw(i)
                .inverse()
                .transform(slamshare_math::Vec3::new(0.0, 0.0, 0.0));
            assigner.region_of(c) as usize
        })
        .collect();
    let offsets: Vec<f64> = (1..)
        .map(|k| k as f64 * 1000.0)
        .filter(|&x| {
            shards == 1
                || !client_cells.contains(
                    &(assigner.region_of(slamshare_math::Vec3::new(x, 0.0, 0.0)) as usize),
                )
        })
        .take(fragments)
        .collect();

    let server = &server;
    let mut commit_ms = Vec::new();
    let (absorb_ms, locked_counts) = std::thread::scope(|scope| {
        let absorber = scope.spawn(move || {
            let mut durations = Vec::new();
            let mut locked = Vec::new();
            for (k, &x) in offsets.iter().enumerate() {
                let frag = make_fragment(100 + k as u16, x, frag_kfs);
                let t0 = Instant::now();
                let receipt = server.absorb_external_fragment(frag);
                durations.push(t0.elapsed().as_secs_f64() * 1e3);
                locked.push(receipt.len());
            }
            (durations, locked)
        });
        for frame in encoded {
            let t0 = Instant::now();
            process_one(server, frame);
            commit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        absorber.join().expect("absorber thread panicked")
    });

    let snap = server.map_sharding_snapshot();
    let pct = slamshare_math::stats::percentile;
    ShardRow {
        shards,
        commit_p50_ms: pct(&commit_ms, 50.0),
        commit_p95_ms: pct(&commit_ms, 95.0),
        commit_max_ms: commit_ms.iter().copied().fold(0.0, f64::max),
        absorb_p50_ms: pct(&absorb_ms, 50.0),
        absorb_p95_ms: pct(&absorb_ms, 95.0),
        absorb_max_ms: absorb_ms.iter().copied().fold(0.0, f64::max),
        lock_wait_ms: snap.total_wait_ms(),
        mean_locked_regions: if locked_counts.is_empty() {
            0.0
        } else {
            locked_counts.iter().sum::<usize>() as f64 / locked_counts.len() as f64
        },
        n_components: snap.n_components,
    }
}

fn table4_reference() -> Option<f64> {
    // The vendored serde_json is serialize-only; the file is flat JSON,
    // so scan for the one number we need.
    let text = std::fs::read_to_string(results_dir().join("table4_merge_latency.json")).ok()?;
    let rest = &text[text.find("\"s_merge\"")?..];
    let tail = rest[rest.find(':')? + 1..].trim_start();
    let end = tail
        .find(|ch: char| !(ch.is_ascii_digit() || "+-.eE".contains(ch)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn bench(c: &mut Criterion) {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let frames = bench_effort().frames(40).clamp(12, 40);

    let (ds, base) = build_map(frames.min(16));
    let ba = ba_once(&ds, &base);
    println!(
        "ba: {:.2} ms wall (pose {:.2} + point {:.2})",
        ba.wall_ms, ba.pose_pass_ms, ba.point_pass_ms
    );

    let vocab = vocabulary::train_random(42);
    let obs = {
        let tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let (l, r) = ds.render_stereo_frame(0);
        tracker.extract_frame(&l, Some(&r)).into_seed_observation(
            0,
            ds.frame_time(0),
            ds.gt_pose_cw(0),
        )
    };
    let writes = 30;
    let rows: Vec<KeyframeWriteRow> = [5_000, 15_000, 30_000]
        .into_iter()
        .map(|target| {
            let row = keyframe_write_row(&ds, &vocab, &obs, target, writes);
            println!(
                "keyframe write into {} points ({} regions): p50 {:.2} ms, p95 {:.2} ms",
                row.points, row.regions_locked, row.p50_ms, row.tail_ms
            );
            row
        })
        .collect();
    let keyframe_write = KeyframeWriteSection {
        writes,
        largest_p95_ms: rows.last().map_or(0.0, |r| r.tail_ms),
        rows,
    };

    let mut commit = Vec::new();
    let mut inline_stalls = Vec::new();
    let mut worker_snapshot = None;
    for (name, async_merge) in [("inline_merge", false), ("async_merge", true)] {
        let (row, stalls, worker) = run_commit_config(name, async_merge, frames);
        println!(
            "commit [{name}]: p50 {:.2} ms, p95 {:.2} ms, max {:.2} ms, \
             worst merge stall {:.2} ms, {} merge(s)",
            row.p50_commit_ms,
            row.p95_commit_ms,
            row.max_commit_ms,
            row.max_merge_block_ms,
            row.merges,
        );
        commit.push(row);
        inline_stalls.extend(stalls);
        if let Some(w) = worker {
            worker_snapshot = Some(w);
        }
    }

    let merge = MergeSection {
        inline_mean_ms: if inline_stalls.is_empty() {
            0.0
        } else {
            inline_stalls.iter().sum::<f64>() / inline_stalls.len() as f64
        },
        worker: worker_snapshot,
        table4_reference_ms: table4_reference(),
    };

    save_json(
        "BENCH_mapping",
        &BenchMapping {
            host_cores,
            frames_per_client: frames,
            ba,
            keyframe_write,
            commit,
            merge,
        },
    );

    // Region-sharded global map: commit latency under a concurrent bulk
    // writer, vs shard count.
    let shard_frames = frames.clamp(14, 20);
    let fragments = 8;
    let fragment_keyframes = 24;
    let mut shard_rows = Vec::new();
    for shards in [1usize, 4, 16] {
        let row = run_sharding_config(shards, shard_frames, fragments, fragment_keyframes);
        println!(
            "sharding [{} shard(s)]: commit p50 {:.2} / p95 {:.2} / max {:.2} ms, \
             absorb p95 {:.2} ms, lock wait {:.2} ms, {:.1} regions/absorb",
            row.shards,
            row.commit_p50_ms,
            row.commit_p95_ms,
            row.commit_max_ms,
            row.absorb_p95_ms,
            row.lock_wait_ms,
            row.mean_locked_regions,
        );
        shard_rows.push(row);
    }
    save_json(
        "BENCH_map_sharding",
        &BenchMapSharding {
            host_cores,
            frames: shard_frames,
            fragments,
            fragment_keyframes,
            rows: shard_rows,
        },
    );

    // Kernel: one local-BA invocation.
    let center = base.latest_keyframe().expect("map has keyframes").id;
    let exec = GpuExecutor::cpu();
    c.bench_function("mapping/local_ba", |b| {
        let mut scratch = BaScratch::default();
        b.iter(|| {
            let mut m = base.clone();
            local_bundle_adjust_with(&mut m, &ds.rig.cam, center, 6, 3, &exec, &mut scratch)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
