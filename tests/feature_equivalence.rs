//! Property tests for the batched (SoA + strip-kernel) feature path: at
//! any seed, every batched component must be **bit-identical** to its
//! scalar reference. `SLAMSHARE_TEST_SEED` (set by `scripts/retest.sh`)
//! varies the inputs run to run, so CI's flake detector explores a
//! different corner of the input space on every pass.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slam_share::features::descriptor::DescriptorBlock;
use slam_share::features::matching::{self, MatchScratch, StereoScratch, TH_HIGH};
use slam_share::features::orb;
use slam_share::features::{Descriptor, GrayImage, KeyPoint};
use slam_share::gpu::{GpuExecutor, GpuModel};
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::tracking::{Tracker, TrackerConfig};
use slamshare_math::Vec2;
use std::sync::Arc;

fn seed() -> u64 {
    std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn random_descriptor(rng: &mut StdRng, density: f64) -> Descriptor {
    let mut d = Descriptor::ZERO;
    for b in 0..256 {
        if rng.gen_bool(density) {
            d.set_bit(b);
        }
    }
    d
}

fn random_keypoints(rng: &mut StdRng, n: usize) -> Vec<KeyPoint> {
    (0..n)
        .map(|_| {
            let mut kp = KeyPoint::new(
                Vec2::new(rng.gen_range(0.0..320.0), rng.gen_range(-2.0..240.0)),
                rng.gen_range(0..6),
                rng.gen_range(0.0..50.0),
            );
            kp.right_x = -1.0;
            kp
        })
        .collect()
}

/// SoA lane storage answers the exact same Hamming distances as the
/// array-of-structs descriptors, and the bounded strip scan picks the
/// same best/second pair as a scalar strict-`<` sweep.
#[test]
fn soa_block_distances_match_aos() {
    let mut rng = StdRng::seed_from_u64(seed());
    for _ in 0..20 {
        let n = rng.gen_range(1..200);
        let density = rng.gen_range(0.05..0.9);
        let descs: Vec<Descriptor> = (0..n)
            .map(|_| random_descriptor(&mut rng, density))
            .collect();
        let mut block = DescriptorBlock::new();
        block.rebuild(&descs);
        let q = random_descriptor(&mut rng, density);
        let qw = q.words();
        for (i, d) in descs.iter().enumerate() {
            assert_eq!(block.distance(i, &qw), q.distance(d));
        }
        // Scalar best-two sweep (strict <, ascending index).
        let (mut best, mut best_i, mut second) = (u32::MAX, 0usize, u32::MAX);
        for (i, d) in descs.iter().enumerate() {
            let dist = q.distance(d);
            if dist < best {
                second = best;
                best = dist;
                best_i = i;
            } else if dist < second {
                second = dist;
            }
        }
        assert_eq!(block.scan_best_two(&q), (best, best_i, second));
    }
}

/// The batched brute-force matcher returns exactly the matches of the
/// per-pair scalar algorithm, in the same order.
#[test]
fn batched_brute_force_matches_scalar() {
    #[derive(Debug, PartialEq)]
    struct M {
        query: usize,
        train: usize,
        distance: u32,
    }
    // The pre-SoA per-pair algorithm, verbatim.
    fn scalar(query: &[Descriptor], train: &[Descriptor], max_distance: u32, ratio: f64) -> Vec<M> {
        let mut provisional: Vec<M> = Vec::new();
        for (qi, qd) in query.iter().enumerate() {
            let mut best = u32::MAX;
            let mut best_ti = 0usize;
            let mut second = u32::MAX;
            for (ti, td) in train.iter().enumerate() {
                let d = qd.distance(td);
                if d < best {
                    second = best;
                    best = d;
                    best_ti = ti;
                } else if d < second {
                    second = d;
                }
            }
            if best <= max_distance && (best as f64) < ratio * second as f64 {
                provisional.push(M {
                    query: qi,
                    train: best_ti,
                    distance: best,
                });
            }
        }
        let mut best_for_train: Vec<Option<M>> = (0..train.len()).map(|_| None).collect();
        for m in provisional {
            let t = m.train;
            match &best_for_train[t] {
                Some(prev) if prev.distance <= m.distance => {}
                _ => best_for_train[t] = Some(m),
            }
        }
        let mut out: Vec<M> = best_for_train.into_iter().flatten().collect();
        out.sort_by_key(|m| m.query);
        out
    }

    let mut rng = StdRng::seed_from_u64(seed().wrapping_add(1));
    let mut scratch = MatchScratch::default();
    for _ in 0..15 {
        let nq = rng.gen_range(0..120);
        let nt = rng.gen_range(0..120);
        let density = rng.gen_range(0.05..0.5);
        let query: Vec<Descriptor> = (0..nq)
            .map(|_| random_descriptor(&mut rng, density))
            .collect();
        let mut train: Vec<Descriptor> = (0..nt)
            .map(|_| random_descriptor(&mut rng, density))
            .collect();
        // Plant duplicates so distance ties exercise the tie-breaks.
        let dup = nq.min(nt).min(8);
        train[..dup].copy_from_slice(&query[..dup]);
        let max_distance = rng.gen_range(20..200);
        let ratio = rng.gen_range(0.6..1.0);

        let want = scalar(&query, &train, max_distance, ratio);
        let mut got = Vec::new();
        matching::match_brute_force_into(
            &query,
            &train,
            max_distance,
            ratio,
            &mut scratch,
            &mut got,
        );
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                (g.query, g.train, g.distance),
                (w.query, w.train, w.distance)
            );
        }
    }
}

/// The row-bucketed batched stereo matcher fills the same `right_x` and
/// `depth` bits as the O(left × right) scalar scan.
#[test]
fn batched_stereo_matches_scalar() {
    fn scalar(
        left_kps: &mut [KeyPoint],
        left_descs: &[Descriptor],
        right_kps: &[KeyPoint],
        right_descs: &[Descriptor],
        max_disparity: f64,
        mut depth_of: impl FnMut(f64) -> Option<f64>,
    ) -> usize {
        let mut n = 0;
        for (i, kp) in left_kps.iter_mut().enumerate() {
            let scale = 1.2f64.powi(kp.octave as i32);
            let mut best = u32::MAX;
            let mut best_rx = -1.0f64;
            for (j, rkp) in right_kps.iter().enumerate() {
                if (rkp.pt.y - kp.pt.y).abs() > 2.0 * scale {
                    continue;
                }
                let disparity = kp.pt.x - rkp.pt.x;
                if disparity <= 0.1 || disparity > max_disparity {
                    continue;
                }
                let d = left_descs[i].distance(&right_descs[j]);
                if d < best {
                    best = d;
                    best_rx = rkp.pt.x;
                }
            }
            if best <= TH_HIGH {
                kp.right_x = best_rx;
                let disparity = kp.pt.x - best_rx;
                if let Some(depth) = depth_of(disparity) {
                    kp.depth = depth;
                    n += 1;
                }
            }
        }
        n
    }

    let mut rng = StdRng::seed_from_u64(seed().wrapping_add(2));
    let mut scratch = StereoScratch::default();
    let depth_of = |d: f64| if d > 0.4 { Some(42.0 / d) } else { None };
    for _ in 0..15 {
        let nl = rng.gen_range(0..150);
        let nr = rng.gen_range(0..150);
        let density = rng.gen_range(0.05..0.4);
        let base_kps = random_keypoints(&mut rng, nl);
        let left_descs: Vec<Descriptor> = (0..nl)
            .map(|_| random_descriptor(&mut rng, density))
            .collect();
        let right_kps = random_keypoints(&mut rng, nr);
        let mut right_descs: Vec<Descriptor> = (0..nr)
            .map(|_| random_descriptor(&mut rng, density))
            .collect();
        for j in 0..nr.min(12) {
            right_descs[j] = right_descs[nr - 1 - j];
        }
        let max_disparity = rng.gen_range(20.0..120.0);

        let mut want = base_kps.clone();
        let want_n = scalar(
            &mut want,
            &left_descs,
            &right_kps,
            &right_descs,
            max_disparity,
            depth_of,
        );
        let mut got = base_kps.clone();
        let got_n = matching::stereo_match_rectified(
            &mut got,
            &left_descs,
            &right_kps,
            &right_descs,
            max_disparity,
            depth_of,
            &mut scratch,
        );
        assert_eq!(got_n, want_n);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.right_x.to_bits(), w.right_x.to_bits());
            assert_eq!(g.depth.to_bits(), w.depth.to_bits());
        }
    }
}

/// The fused orient+describe kernel equals the separate scalar pair at
/// every position, including the border band where it falls back.
#[test]
fn fused_orient_describe_matches_scalar_pair() {
    let mut rng = StdRng::seed_from_u64(seed().wrapping_add(3));
    let img = GrayImage::from_fn(160, 120, |x, y| ((x * 13 + y * 7) % 251) as u8);
    for _ in 0..400 {
        let x = rng.gen_range(17.0..143.0);
        let y = rng.gen_range(17.0..103.0);
        let angle = orb::intensity_centroid_angle(&img, x, y);
        let want = orb::describe(&img, x, y, angle);
        let (got_angle, got) = orb::orient_and_describe(&img, x, y);
        assert_eq!(got_angle.to_bits(), angle.to_bits(), "at ({x}, {y})");
        assert_eq!(got, want, "at ({x}, {y})");
    }

    // Hashed noise, whose local structure is not linear like the ramp's,
    // at random positions, and on a grid of integer and half-pixel
    // positions on both sides of FUSED_BORDER, where the kernel switches
    // between its in-patch path and the scalar fallback.
    let salt = seed();
    let noise = GrayImage::from_fn(160, 120, |x, y| {
        let mut h = (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (y as u64).wrapping_mul(0xBF58476D1CE4E5B9)
            ^ salt;
        h ^= h >> 31;
        h = h.wrapping_mul(0x94D049BB133111EB);
        (h >> 24) as u8
    });
    let b = orb::FUSED_BORDER as f64;
    // The in-patch path runs for floor(x) in [b, width - b - 1].
    let edges = |len: f64| {
        let hi = len - b;
        [
            17.0,
            b - 0.5,
            b - 1e-9,
            b,
            b + 0.5,
            len / 2.0,
            len / 2.0 + 0.5,
            hi - 1.0,
            hi - 0.5,
            hi - 1e-9,
            hi,
            hi + 0.5,
            len - 18.0,
        ]
    };
    let grid = edges(160.0)
        .into_iter()
        .flat_map(|x| edges(120.0).into_iter().map(move |y| (x, y)));
    let random = (0..400).map(|_| (rng.gen_range(17.0..143.0), rng.gen_range(17.0..103.0)));
    for (x, y) in grid.chain(random) {
        let angle = orb::intensity_centroid_angle(&noise, x, y);
        let want = orb::describe(&noise, x, y, angle);
        let (got_angle, got) = orb::orient_and_describe(&noise, x, y);
        assert_eq!(got_angle.to_bits(), angle.to_bits(), "noise at ({x}, {y})");
        assert_eq!(got, want, "noise at ({x}, {y})");
    }
}

/// Full-frame extraction and stereo matching stay bit-identical at 1, 2
/// and 4 workers and on both simulated-GPU devices — the batched kernels
/// changed the arithmetic shape, and the executor changes the schedule and
/// the clock, not the results.
#[test]
fn extraction_deterministic_across_worker_counts() {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(2)
            .with_seed(seed().wrapping_add(4)),
    );
    let reference = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
    let executors = [
        ("workers=1", GpuExecutor::cpu_with_workers(1)),
        ("workers=2", GpuExecutor::cpu_with_workers(2)),
        ("workers=4", GpuExecutor::cpu_with_workers(4)),
        // An odd lane count: one lane per eye, the third unused.
        ("workers=3", GpuExecutor::cpu_with_workers(3)),
        ("v100", GpuExecutor::v100()),
        ("jetson", GpuExecutor::for_model(&GpuModel::jetson_like())),
    ];
    for (name, exec) in executors {
        let tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(exec));
        for i in 0..2 {
            let (left, right) = ds.render_stereo_frame(i);
            // Keypoints carry `right_x`/`depth`, so equality covers the
            // stereo matches too.
            let want = reference.extract_frame(&left, Some(&right)).features;
            let got = tracker.extract_frame(&left, Some(&right)).features;
            assert!(want.keypoints.iter().any(|k| k.has_stereo()));
            assert_eq!(got.keypoints, want.keypoints, "{name}");
            assert_eq!(got.descriptors, want.descriptors, "{name}");
        }
    }
    // A mono tracker extracts the left eye alone on all its lanes and
    // ignores a right image it is handed.
    let mono = Tracker::new(
        TrackerConfig::mono(ds.rig),
        Arc::new(GpuExecutor::cpu_with_workers(2)),
    );
    for i in 0..2 {
        let (left, right) = ds.render_stereo_frame(i);
        let (want, _) = reference.extract(&left);
        let got = mono.extract_frame(&left, Some(&right)).features;
        assert!(!got.keypoints.iter().any(|k| k.has_stereo()));
        assert_eq!(got.keypoints, want.keypoints, "mono");
        assert_eq!(got.descriptors, want.descriptors, "mono");
    }
}

/// Batched keyframe culling picks exactly the victim set a scalar
/// re-implementation of the snapshot rule picks.
#[test]
fn batched_kf_culling_matches_scalar_snapshot_rule() {
    use slam_share::slam::ids::{ClientId, KeyFrameId};
    use slam_share::slam::map::{KeyFrame, Map, MapWrite};
    use slam_share::slam::mapping::{
        LocalMapper, MappingConfig, KF_CULL_MIN_MATCHED, KF_CULL_MIN_OBS,
    };
    use slam_share::slam::tracking::SensorMode;

    let rig = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(1)
            .with_seed(5),
    )
    .rig;
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x6b66);
    let mut ever_culled = false;
    let mut ever_spared = false;
    for _round in 0..3 {
        const N_KP: usize = 64;
        let n_kf = rng.gen_range(70..100);
        let n_pts = rng.gen_range(30..N_KP);
        let mut map = Map::new(ClientId(1));
        let kf_ids: Vec<KeyFrameId> = (0..n_kf)
            .map(|i| {
                let id = map.alloc.next_keyframe();
                map.insert_keyframe(KeyFrame {
                    id,
                    pose_cw: slamshare_math::SE3::IDENTITY,
                    timestamp: i as f64,
                    keypoints: vec![KeyPoint::new(Vec2::ZERO, 0, 1.0); N_KP],
                    descriptors: vec![Descriptor::ZERO; N_KP],
                    matched_points: vec![None; N_KP],
                    bow: Default::default(),
                });
                id
            })
            .collect();
        let protect = kf_ids[0];
        // Every point is anchored on the protected keyframe; the others
        // observe a random subset, with per-keyframe match density low
        // enough that thin keyframes (< KF_CULL_MIN_MATCHED matches) and
        // rarely-seen points (< KF_CULL_MIN_OBS observations) both occur.
        let mps: Vec<_> = (0..n_pts)
            .map(|j| {
                map.create_mappoint(
                    slamshare_math::Vec3::new(j as f64, 0.0, 5.0),
                    Descriptor::ZERO,
                    protect,
                    j,
                )
            })
            .collect();
        for &kf in &kf_ids[1..] {
            let density = rng.gen_range(0.1..0.9);
            for (j, &mp) in mps.iter().enumerate() {
                if rng.gen_bool(density) {
                    map.add_observation(mp, kf, j);
                }
            }
        }

        // Scalar reference: the snapshot rule applied directly.
        let reference: Vec<KeyFrameId> = map
            .keyframes
            .iter()
            .filter(|(id, _)| **id != protect)
            .filter_map(|(id, kf)| {
                let counts: Vec<u32> = kf
                    .matched_points
                    .iter()
                    .flatten()
                    .filter_map(|mp| map.mappoints.get(mp))
                    .map(|mp| mp.observations.len() as u32)
                    .collect();
                if counts.len() < KF_CULL_MIN_MATCHED {
                    return None;
                }
                let well = counts.iter().filter(|&&c| c >= KF_CULL_MIN_OBS).count();
                (well * 10 >= counts.len() * 9).then_some(*id)
            })
            .collect();
        ever_culled |= !reference.is_empty();
        ever_spared |= reference.len() < n_kf - 1;

        let mut m = map.clone();
        let mut mapper = LocalMapper::new(SensorMode::Stereo, rig, MappingConfig::default());
        let culled = mapper.cull_keyframes(&mut m, protect);
        assert_eq!(
            culled,
            reference.len(),
            "cull count diverged from the scalar rule"
        );
        let survivors: Vec<KeyFrameId> = m.keyframes.keys().copied().collect();
        let expected: Vec<KeyFrameId> = kf_ids
            .iter()
            .copied()
            .filter(|id| !reference.contains(id))
            .collect();
        assert_eq!(
            survivors, expected,
            "victim set diverged from the scalar rule"
        );
    }
    assert!(
        ever_culled && ever_spared,
        "property never saw both verdicts — inputs too uniform to mean anything"
    );
}

/// *Search local points* through the keypoint grid, on a real extracted
/// frame, returns the full scan's answer for every query: the per-query
/// hit and the resolved matches, sequentially and fanned out on the
/// executor. Queries reuse the frame's own descriptors (so windows hold
/// exact and near matches, and ties) at jittered positions over the range
/// `project_in_image` admits, at the tracker's radius and wider.
#[test]
fn window_search_grid_matches_scan() {
    use slam_share::features::matching::{KeypointGrid, ProjectionQuery, TH_LOW};
    use slam_share::gpu::kernels;

    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::MH04)
            .with_frames(1)
            .with_seed(seed().wrapping_add(5)),
    );
    let (left, _) = ds.render_stereo_frame(0);
    let tracker = Tracker::new(TrackerConfig::mono(ds.rig), Arc::new(GpuExecutor::cpu()));
    let features = tracker.extract_frame(&left, None).features;
    let n = features.keypoints.len();
    assert!(n > 100, "{n} keypoints");
    let positions: Vec<Vec2> = features.keypoints.iter().map(|k| k.pt).collect();
    let (w, h) = (left.width as f64, left.height as f64);

    let mut rng = StdRng::seed_from_u64(seed().wrapping_add(6));
    let queries: Vec<ProjectionQuery> = (0..3000)
        .map(|i| {
            let k = rng.gen_range(0..n);
            let jitter = Vec2::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
            let predicted = if i % 10 == 0 {
                Vec2::new(
                    rng.gen_range(-14.0..w + 14.0),
                    rng.gen_range(-14.0..h + 14.0),
                )
            } else {
                positions[k] + jitter
            };
            ProjectionQuery {
                descriptor: features.descriptors[k],
                predicted,
                radius: if i % 7 == 0 { 40.0 } else { 14.0 },
            }
        })
        .collect();

    let grid = KeypointGrid::new(positions.iter().copied());
    let mut hits = 0;
    for q in &queries {
        let want = matching::best_in_window(q, &positions, &features.descriptors, TH_LOW);
        assert_eq!(grid.best_in_window(q, &features.descriptors, TH_LOW), want);
        hits += usize::from(want.is_some());
    }
    assert!(hits > queries.len() / 2, "{hits} hits");

    let want = matching::match_by_projection(&queries, &positions, &features.descriptors, TH_LOW);
    for exec in [GpuExecutor::cpu(), GpuExecutor::cpu_with_workers(2)] {
        let (got, _) = kernels::gpu_search_local_points_in(
            &exec,
            &queries,
            &grid,
            &features.descriptors,
            TH_LOW,
        );
        assert_eq!(got, want);
    }
}

/// The block FAST kernel finds exactly the corners a per-pixel segment
/// test finds, in the same raster order with the same score bits, on every
/// detection cell of a real MH04 pyramid at both thresholds the extractor
/// uses (20, and 7 for the retry).
#[test]
fn fast_blocks_match_per_pixel_test() {
    use slam_share::features::extractor::OrbExtractor;
    use slam_share::features::fast::{self, ARC_LEN, BORDER, CIRCLE};
    use slam_share::features::ImagePyramid;

    /// FAST-9/16 at one pixel: a circular run of `ARC_LEN` ring pixels all
    /// brighter than `p + t` or all darker than `p − t`, scored by the SAD
    /// of the whole ring.
    fn per_pixel(img: &GrayImage, x: usize, y: usize, t: u8) -> Option<f64> {
        if !img.in_interior(x, y, BORDER) {
            return None;
        }
        let p = i32::from(img.get(x, y));
        let ring =
            CIRCLE.map(|(dx, dy)| i32::from(img.get_clamped(x as isize + dx, y as isize + dy)));
        let t = i32::from(t);
        let arc = |hit: &dyn Fn(i32) -> bool| {
            let mut run = 0;
            (0..16 + ARC_LEN).any(|i| {
                run = if hit(ring[i % 16]) { run + 1 } else { 0 };
                run >= ARC_LEN
            })
        };
        (arc(&|v| v > p + t) || arc(&|v| v < p - t))
            .then(|| ring.iter().map(|&v| f64::from((v - p).abs())).sum())
    }

    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::MH04)
            .with_frames(1)
            .with_seed(seed().wrapping_add(7)),
    );
    let (left, _) = ds.render_stereo_frame(0);
    let extractor = OrbExtractor::with_defaults();
    let pyramid = ImagePyramid::build(
        &left,
        extractor.config.n_levels,
        extractor.config.scale_factor,
    );
    let mut tasks = Vec::new();
    extractor.cells_into(&pyramid, &mut tasks);
    let mut got = Vec::new();
    let mut corners = 0;
    for task in &tasks {
        let img = &pyramid.levels[task.level];
        for threshold in [20u8, 7] {
            got.clear();
            let (rect0, rect1) = ((task.x0, task.y0), (task.x1, task.y1));
            fast::detect_in_rect_into(img, rect0, rect1, threshold, task.level as u8, &mut got);
            let mut want = Vec::new();
            for y in task.y0..task.y1 {
                for x in task.x0..task.x1 {
                    if let Some(score) = per_pixel(img, x, y, threshold) {
                        want.push((x as f64, y as f64, task.level as u8, score.to_bits()));
                    }
                }
            }
            let got: Vec<_> = got
                .iter()
                .map(|k| (k.pt.x, k.pt.y, k.octave, k.response.to_bits()))
                .collect();
            assert_eq!(got, want, "{task:?} threshold {threshold}");
            corners += want.len();
        }
    }
    assert!(corners > 10_000, "{corners} corners");
}
