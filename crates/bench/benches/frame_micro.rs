//! Bench (extension): per-frame micro-latencies of the zero-copy batched
//! tracking path — warm ORB extraction (frame arena + SoA describe) and
//! its four sub-stages, FAST alone over the frame's cells, FAST + NMS per
//! pyramid level (cells, retried cells, corners before and after NMS,
//! detect time), the server's plain and keyframe front halves on two
//! lanes,
//! batched stereo matching (row-bucket CSR + strip Hamming kernel), the
//! fused orient+describe kernel against its separate scalar pair, and
//! *search local points* through the keypoint grid against the full scan.
//!
//! Writes `results/BENCH_frame.json` with p50/p95 per stage; the p95s are
//! gated against `results/baselines/` by `scripts/bench_gate.sh`, so a
//! regression that slows any individual stage fails CI even when the
//! end-to-end round still squeaks under its own gate. All times are wall
//! clock on the recording host (`host_cores`).

use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slamshare_features::arena::CellScratch;
use slamshare_features::extractor::{CellTask, ExtractedFeatures, ExtractionTimings, OrbExtractor};
use slamshare_features::matching::{self, KeypointGrid, ProjectionQuery, StereoScratch, TH_LOW};
use slamshare_features::orb;
use slamshare_features::pyramid::{ImagePyramid, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR};
use slamshare_gpu::{kernels, GpuExecutor};
use slamshare_math::Vec2;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::tracking::{Tracker, TrackerConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BenchFrame {
    reps: usize,
    host_cores: usize,
    keypoints_per_frame: usize,
    /// Warm full-frame extraction (pyramid + FAST + distribute + describe),
    /// one image, one thread.
    extract_p50_ms: f64,
    extract_p95_ms: f64,
    /// The same extractions split by `ExtractionTimings` stage.
    pyramid_p50_ms: f64,
    pyramid_p95_ms: f64,
    detect_p50_ms: f64,
    detect_p95_ms: f64,
    distribute_p50_ms: f64,
    distribute_p95_ms: f64,
    describe_p50_ms: f64,
    describe_p95_ms: f64,
    /// FAST alone over every cell of the frame on one lane, with the
    /// low-threshold retry but without NMS or refinement: the key that
    /// catches a codegen regression in the block segment test.
    fast_p50_ms: f64,
    fast_p95_ms: f64,
    /// The detect stage per pyramid level, on one lane.
    levels: Vec<LevelDetect>,
    /// `Tracker::extract_left` with a 2-lane executor: the plain front
    /// half, the left eye on both lanes.
    frame_p50_ms: f64,
    frame_p95_ms: f64,
    /// `Tracker::extract_frame` on a stereo pair with a 2-lane executor:
    /// a keyframe's front half, the left eye and then the right on both
    /// lanes, plus the stereo match.
    stereo_frame_p50_ms: f64,
    stereo_frame_p95_ms: f64,
    /// Batched stereo matching of one extracted stereo pair.
    stereo_match_p50_ms: f64,
    stereo_match_p95_ms: f64,
    /// Fused orient+describe over every keypoint of the frame.
    fused_describe_p50_ms: f64,
    fused_describe_p95_ms: f64,
    /// Same keypoints through the separate scalar orientation+describe
    /// pair — the fused kernel's speedup denominator.
    scalar_describe_p50_ms: f64,
    /// Projection queries in the window-search rows: the ~3 000 a `solo`
    /// frame makes, each a keypoint's own descriptor at a jittered
    /// position.
    window_queries: usize,
    /// *Search local points* over the frame's left keypoints on one lane:
    /// grid rebuild plus `gpu_search_local_points_in`.
    window_search_p50_ms: f64,
    window_search_p95_ms: f64,
    /// The same queries through the full-scan reference
    /// `match_by_projection` — the grid's speedup denominator.
    window_scan_p50_ms: f64,
}

/// FAST + NMS over every cell of one pyramid level, through
/// `OrbExtractor::detect_cell_into`.
#[derive(Serialize)]
struct LevelDetect {
    level: usize,
    cells: usize,
    /// Cells whose primary threshold found nothing and that re-detected at
    /// the low one.
    retry_cells: usize,
    /// Corners before NMS (after the low-threshold retry where it ran).
    raw_corners: usize,
    /// Corners NMS kept: what the level hands to distribution.
    survivors: usize,
    detect_p50_ms: f64,
}

/// Projection queries per window-search rep: what the `solo` yardstick's
/// local map projects into a frame.
const WINDOW_QUERIES: usize = 3000;

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Time `f` for `reps` repetitions; returns sorted per-rep milliseconds.
fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ms
}

fn bench(c: &mut Criterion) {
    let reps = bench_effort().frames(40).clamp(15, 40);
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(1)
            .with_seed(71),
    );
    let (left, right) = ds.render_stereo_frame(0);
    let extractor = OrbExtractor::with_defaults();
    let max_disparity = ds.rig.disparity(0.3);

    // Warm every buffer to its high-water mark before timing.
    let mut feats_l = ExtractedFeatures::default();
    let mut feats_r = ExtractedFeatures::default();
    let mut stereo_scratch = StereoScratch::default();
    extractor.extract_into(&left, &mut feats_l);
    extractor.extract_into(&right, &mut feats_r);
    matching::stereo_match_rectified(
        &mut feats_l.keypoints,
        &feats_l.descriptors,
        &feats_r.keypoints,
        &feats_r.descriptors,
        max_disparity,
        |d| ds.rig.depth_from_disparity(d),
        &mut stereo_scratch,
    );

    let mut stages: Vec<ExtractionTimings> = Vec::with_capacity(reps);
    let extract_ms = time_reps(reps, || {
        stages.push(extractor.extract_into(&left, &mut feats_l));
    });
    let stage_ms = |stage: fn(&ExtractionTimings) -> f64| {
        let mut ms: Vec<f64> = stages.iter().map(stage).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (percentile(&ms, 0.50), percentile(&ms, 0.95))
    };
    let pyramid = stage_ms(|t| t.pyramid_ms);
    let detect = stage_ms(|t| t.detect_ms);
    let distribute = stage_ms(|t| t.distribute_ms);
    let describe = stage_ms(|t| t.describe_ms);

    let pyr = ImagePyramid::build(&left, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR);
    let mut tasks = Vec::new();
    extractor.cells_into(&pyr, &mut tasks);
    let mut raw = Vec::new();
    let mut fast_frame = || {
        for &task in &tasks {
            extractor.fast_cell_into(&pyr, task, &mut raw);
            std::hint::black_box(&raw);
        }
    };
    fast_frame();
    let fast_ms = time_reps(reps, fast_frame);
    let mut scratch = CellScratch::default();
    let mut kept = Vec::new();
    let levels: Vec<LevelDetect> = (0..pyr.num_levels())
        .map(|level| {
            let cells: Vec<CellTask> = tasks.iter().filter(|t| t.level == level).copied().collect();
            // Returns the level's raw corner count; survivors land in `kept`.
            let mut detect = || {
                kept.clear();
                let mut raw_corners = 0;
                for &task in &cells {
                    extractor.detect_cell_into(&pyr, task, &mut scratch, &mut kept);
                    raw_corners += scratch.raw.len();
                }
                raw_corners
            };
            let raw_corners = detect();
            let ms = time_reps(reps, || {
                detect();
            });
            let retry_cells = cells
                .iter()
                .filter(|&&task| extractor.fast_cell_into(&pyr, task, &mut scratch.raw))
                .count();
            LevelDetect {
                level,
                cells: cells.len(),
                retry_cells,
                raw_corners,
                survivors: kept.len(),
                detect_p50_ms: percentile(&ms, 0.50),
            }
        })
        .collect();

    let tracker = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        Arc::new(GpuExecutor::cpu_with_workers(2)),
    );
    tracker.extract_frame(&left, Some(&right));
    let frame_ms = time_reps(reps, || {
        std::hint::black_box(tracker.extract_left(&left));
    });
    let stereo_frame_ms = time_reps(reps, || {
        std::hint::black_box(tracker.extract_frame(&left, Some(&right)));
    });
    // Re-extract once so the stereo inputs are pristine.
    extractor.extract_into(&left, &mut feats_l);

    let stereo_ms = time_reps(reps, || {
        matching::stereo_match_rectified(
            &mut feats_l.keypoints,
            &feats_l.descriptors,
            &feats_r.keypoints,
            &feats_r.descriptors,
            max_disparity,
            |d| ds.rig.depth_from_disparity(d),
            &mut stereo_scratch,
        );
    });

    // The describe kernel alone, over the frame's keypoint positions on
    // the full-resolution image (the level-0 bulk of the describe stage).
    let positions: Vec<(f64, f64)> = feats_l
        .keypoints
        .iter()
        .map(|kp| (kp.pt.x, kp.pt.y))
        .collect();
    let fused_ms = time_reps(reps, || {
        for &(x, y) in &positions {
            std::hint::black_box(orb::orient_and_describe(&left, x, y));
        }
    });
    let scalar_ms = time_reps(reps, || {
        for &(x, y) in &positions {
            let angle = orb::intensity_centroid_angle(&left, x, y);
            std::hint::black_box(orb::describe(&left, x, y, angle));
        }
    });

    // Window search: seeded queries from the frame's own descriptors,
    // jittered by up to ±10 px, at the tracker's 14-px radius.
    let mut state = 0x5eed_0024u64;
    let mut next_unit = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let queries: Vec<ProjectionQuery> = (0..WINDOW_QUERIES)
        .map(|_| {
            let k = (next_unit() * feats_l.keypoints.len() as f64) as usize;
            let jitter = Vec2::new(next_unit() * 20.0 - 10.0, next_unit() * 20.0 - 10.0);
            ProjectionQuery {
                descriptor: feats_l.descriptors[k],
                predicted: feats_l.keypoints[k].pt + jitter,
                radius: 14.0,
            }
        })
        .collect();
    let kp_positions: Vec<Vec2> = feats_l.keypoints.iter().map(|k| k.pt).collect();
    let one_lane = GpuExecutor::cpu();
    let mut grid = KeypointGrid::default();
    let window_search_ms = time_reps(reps, || {
        grid.rebuild(kp_positions.iter().copied());
        std::hint::black_box(kernels::gpu_search_local_points_in(
            &one_lane,
            &queries,
            &grid,
            &feats_l.descriptors,
            TH_LOW,
        ));
    });
    let window_scan_ms = time_reps(reps, || {
        std::hint::black_box(matching::match_by_projection(
            &queries,
            &kp_positions,
            &feats_l.descriptors,
            TH_LOW,
        ));
    });

    let out = BenchFrame {
        reps,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        keypoints_per_frame: feats_l.keypoints.len(),
        extract_p50_ms: percentile(&extract_ms, 0.50),
        extract_p95_ms: percentile(&extract_ms, 0.95),
        pyramid_p50_ms: pyramid.0,
        pyramid_p95_ms: pyramid.1,
        detect_p50_ms: detect.0,
        detect_p95_ms: detect.1,
        distribute_p50_ms: distribute.0,
        distribute_p95_ms: distribute.1,
        describe_p50_ms: describe.0,
        describe_p95_ms: describe.1,
        fast_p50_ms: percentile(&fast_ms, 0.50),
        fast_p95_ms: percentile(&fast_ms, 0.95),
        levels,
        frame_p50_ms: percentile(&frame_ms, 0.50),
        frame_p95_ms: percentile(&frame_ms, 0.95),
        stereo_frame_p50_ms: percentile(&stereo_frame_ms, 0.50),
        stereo_frame_p95_ms: percentile(&stereo_frame_ms, 0.95),
        stereo_match_p50_ms: percentile(&stereo_ms, 0.50),
        stereo_match_p95_ms: percentile(&stereo_ms, 0.95),
        fused_describe_p50_ms: percentile(&fused_ms, 0.50),
        fused_describe_p95_ms: percentile(&fused_ms, 0.95),
        scalar_describe_p50_ms: percentile(&scalar_ms, 0.50),
        window_queries: queries.len(),
        window_search_p50_ms: percentile(&window_search_ms, 0.50),
        window_search_p95_ms: percentile(&window_search_ms, 0.95),
        window_scan_p50_ms: percentile(&window_scan_ms, 0.50),
    };
    println!(
        "extract p50 {:.2} ms (pyramid {:.2}, detect {:.2}, distribute {:.2}, describe {:.2}), \
         on 2 lanes: front half p50 {:.2} ms, keyframe front half p50 {:.2} ms",
        out.extract_p50_ms,
        out.pyramid_p50_ms,
        out.detect_p50_ms,
        out.distribute_p50_ms,
        out.describe_p50_ms,
        out.frame_p50_ms,
        out.stereo_frame_p50_ms,
    );
    println!(
        "FAST alone over the frame's cells p50 {:.2} ms",
        out.fast_p50_ms
    );
    println!(
        "stereo p50 {:.3} ms, fused describe p50 {:.3} ms \
         (scalar pair {:.3} ms) over {} keypoints",
        out.stereo_match_p50_ms,
        out.fused_describe_p50_ms,
        out.scalar_describe_p50_ms,
        out.keypoints_per_frame,
    );
    println!(
        "window search p50 {:.3} ms (full scan {:.3} ms) for {} queries",
        out.window_search_p50_ms, out.window_scan_p50_ms, out.window_queries,
    );
    for l in &out.levels {
        println!(
            "level {}: {} cells ({} retried), {} raw corners -> {} after NMS, detect p50 {:.3} ms",
            l.level, l.cells, l.retry_cells, l.raw_corners, l.survivors, l.detect_p50_ms,
        );
    }
    save_json("BENCH_frame", &out);

    c.bench_function("frame/extract_warm", |b| {
        b.iter(|| extractor.extract_into(&left, &mut feats_r))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
