//! Multi-map merging — the paper's Algorithm 2.
//!
//! `MapMerge(CMap)`: add the client map's keyframes and map points into
//! the global map (ids never collide — see [`crate::ids`]), loop over
//! *every* client keyframe running `DetectCommonRegion` (the paper's
//! extension over stock ORB-SLAM3, which only checks the current incoming
//! keyframe), solve the 3D alignment from the verified point pairs,
//! transform the client map onto the global frame, fuse duplicate points,
//! and bundle-adjust the weld region.

use crate::ids::{KeyFrameId, MapPointId};
use crate::map::{Map, MapRead, MapWrite};
use crate::optimize::{local_bundle_adjust_with, BaStats, MappingArena};
use crate::recognition::{detect_common_region, CommonRegion, ShardedKeyframeDatabase};
use slamshare_features::bow::Vocabulary;
use slamshare_features::matching::{KeypointGrid, ProjectionQuery, TH_LOW};
use slamshare_features::Descriptor;
use slamshare_gpu::GpuExecutor;
use slamshare_math::align::umeyama_ransac;
use slamshare_math::{Sim3, Vec2, Vec3};
use slamshare_sim::camera::PinholeCamera;

/// Outcome of a merge attempt.
#[derive(Debug, Clone)]
pub struct MergeReport {
    /// The similarity applied to the client map (`None` when the global
    /// map was empty — the client map *became* the global map — or when no
    /// common region was found and the map was absorbed unaligned).
    pub transform: Option<Sim3>,
    /// Whether a common region was found and alignment applied.
    pub aligned: bool,
    /// Keyframes examined for common regions.
    pub n_kf_checked: usize,
    /// Total verified point pairs across detections.
    pub n_point_pairs: usize,
    /// Duplicate map points fused.
    pub n_fused: usize,
    /// Alignment residual RMSE (meters), when aligned.
    pub alignment_rmse: f64,
    /// Post-merge bundle-adjustment statistics, when run.
    pub ba: Option<BaStats>,
    /// Keyframes and points added to the global map.
    pub n_kf_added: usize,
    pub n_mp_added: usize,
}

/// Merge `cmap` into `gmap` (Algorithm 2), unconditionally: the
/// Edge-SLAM-style baseline's merge. (The SLAM-Share server instead
/// checks [`MergePlan::viable`] between the two halves and retries a
/// client with no common region later.)
///
/// `db` is the global map's BoW inverted index; it is updated with the
/// client keyframes at the end. `with_scale` selects Sim(3) alignment
/// (monocular client) vs SE(3) (stereo/inertial). The paper's
/// "check all of the keyframes in the client's map" behaviour is the
/// `detect_common_region` loop over every client keyframe.
pub fn map_merge(
    gmap: &mut Map,
    cmap: Map,
    db: &ShardedKeyframeDatabase,
    vocab: &Vocabulary,
    cam: &PinholeCamera,
    with_scale: bool,
) -> MergeReport {
    let plan = plan_merge(gmap, &cmap, db, vocab, with_scale);
    // Unconditional-merge semantics (the baseline server): with no common
    // region the plan carries no transform and the apply absorbs the
    // fragment unaligned.
    apply_merge_plan(gmap, db, cmap, &plan, cam)
}

/// A merge decision computed read-only — `DetectCommonRegion` over every
/// client keyframe plus the RANSAC alignment, i.e. everything in
/// Algorithm 2 that does *not* mutate the global map.
///
/// The split lets a caller decide between the two halves whether to
/// merge at all: the server's merge worker plans and applies under one
/// write of the global map, and applies only a [`MergePlan::viable`]
/// plan (see `slamshare_core::merge_worker`).
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// Alignment to apply to the client map, when a common region was
    /// found and verified.
    pub transform: Option<Sim3>,
    /// The global map was empty: the client map becomes the global map.
    pub become_global: bool,
    /// RANSAC-validated `(client_mp, global_mp)` duplicates to fuse.
    pub fuse_pairs: Vec<(MapPointId, MapPointId)>,
    /// The first detection's global-map keyframe — anchor for the weld.
    pub ba_anchor: Option<KeyFrameId>,
    pub alignment_rmse: f64,
    pub n_kf_checked: usize,
    pub n_point_pairs: usize,
}

impl MergePlan {
    /// Whether applying this plan merges the client map (as opposed to a
    /// no-common-region outcome the caller should retry later).
    pub fn viable(&self) -> bool {
        self.become_global || self.transform.is_some()
    }
}

/// Compute a [`MergePlan`] for welding `cmap` into `gmap` — the read-only
/// detect/align half of Algorithm 2. `db` may index keyframes `gmap` does
/// not hold (the live index runs ahead of a locked view); such a
/// candidate isn't found in `gmap` and is skipped.
pub fn plan_merge(
    gmap: &impl MapRead,
    cmap: &Map,
    db: &ShardedKeyframeDatabase,
    vocab: &Vocabulary,
    with_scale: bool,
) -> MergePlan {
    let mut plan = MergePlan {
        transform: None,
        become_global: gmap.n_keyframes() == 0,
        fuse_pairs: Vec::new(),
        ba_anchor: None,
        alignment_rmse: 0.0,
        n_kf_checked: 0,
        n_point_pairs: 0,
    };
    if plan.become_global {
        return plan;
    }

    // Alg. 2 lines 6–8: loop through every client keyframe, detect common
    // regions against the global map, and pool the verified point pairs.
    let mut detections: Vec<CommonRegion> = Vec::new();
    for kf in cmap.keyframes.values() {
        plan.n_kf_checked += 1;
        if let Some(region) = detect_common_region(kf, cmap, gmap, db, vocab, 3) {
            detections.push(region);
        }
    }
    plan.ba_anchor = detections.first().map(|d| d.target_kf);

    let mut src_pts: Vec<Vec3> = Vec::new();
    let mut dst_pts: Vec<Vec3> = Vec::new();
    let mut fuse_pairs: Vec<(MapPointId, MapPointId)> = Vec::new();
    for det in &detections {
        for (c_mp, g_mp) in &det.point_pairs {
            if let (Some(c), Some(g)) = (cmap.mappoints.get(c_mp), gmap.mappoint(*g_mp)) {
                src_pts.push(c.position);
                dst_pts.push(g.position);
                fuse_pairs.push((*c_mp, *g_mp));
            }
        }
    }
    plan.n_point_pairs = src_pts.len();

    // Alg. 2 lines 9–12: 3D alignment. RANSAC over the point pairs:
    // descriptor matching contributes both wrong pairs and far-range
    // triangulation noise, either of which would corrupt a plain
    // least-squares fit.
    if src_pts.len() >= 12 {
        let tol = crate::recognition::ransac_tolerance(&dst_pts);
        if let Some((alignment, mask)) =
            umeyama_ransac(&src_pts, &dst_pts, with_scale, tol, 250, 0x51A9)
        {
            let n_inliers = mask.iter().filter(|&&f| f).count();
            if n_inliers >= 12 {
                plan.transform = Some(alignment.transform);
                plan.alignment_rmse = alignment.rmse;
                // Only fuse pairs the consensus validated.
                plan.fuse_pairs = fuse_pairs
                    .into_iter()
                    .zip(&mask)
                    .filter(|(_, &keep)| keep)
                    .map(|(pair, _)| pair)
                    .collect();
            }
        }
    }
    plan
}

/// Apply a viable [`MergePlan`]: transform the client map, absorb it,
/// fuse the planned duplicates, weld by projection and bundle-adjust the
/// seam — the write half of Algorithm 2. Run it on the map the plan was
/// computed from, unchanged since: the server's merge worker plans and
/// applies under one write of the global map. The client map is welded
/// whole; the server pauses the client's mapping while its job is in
/// flight, so nothing it maps later needs reconciling with the weld.
pub fn apply_merge_plan(
    gmap: &mut Map,
    db: &ShardedKeyframeDatabase,
    cmap: Map,
    plan: &MergePlan,
    cam: &PinholeCamera,
) -> MergeReport {
    apply_merge_plan_with(gmap, db, cmap, plan, cam, &mut MappingArena::default())
}

/// [`apply_merge_plan`] on any [`MapWrite`] with a reusable mapping
/// arena: the projection weld searches the arena's keypoint grid and the
/// seam bundle adjustment runs on its BA buffers, so a long-lived caller
/// (the merge worker's thread) welds and adjusts without per-merge
/// allocation churn.
pub fn apply_merge_plan_with(
    gmap: &mut impl MapWrite,
    db: &ShardedKeyframeDatabase,
    mut cmap: Map,
    plan: &MergePlan,
    cam: &PinholeCamera,
    arena: &mut MappingArena,
) -> MergeReport {
    let mut report = MergeReport {
        transform: plan.transform,
        aligned: plan.transform.is_some(),
        n_kf_checked: plan.n_kf_checked,
        n_point_pairs: plan.n_point_pairs,
        n_fused: 0,
        alignment_rmse: plan.alignment_rmse,
        ba: None,
        n_kf_added: cmap.n_keyframes(),
        n_mp_added: cmap.n_mappoints(),
    };

    let Some(transform) = plan.transform else {
        // Empty-global (become_global) or forced-absorb semantics: plain
        // insertion, no alignment, no weld.
        absorb(gmap, cmap, db);
        return report;
    };
    cmap.transform_all(&transform);
    let client_kf_ids: Vec<KeyFrameId> = cmap.keyframes.keys().copied().collect();
    absorb(gmap, cmap, db);

    // Fuse duplicates (matched pairs are the same physical point).
    for (c_mp, g_mp) in &plan.fuse_pairs {
        gmap.fuse_mappoints(*g_mp, *c_mp);
        report.n_fused += 1;
    }

    // Weld by projection (ORB-SLAM3's SearchAndFuse): project the
    // global map's points around the weld region into every client
    // keyframe, adding cross-map observations / fusing duplicates the
    // BoW stage missed. Without this, the client's keyframes and its
    // own points stay self-consistent at the residual alignment offset
    // and bundle adjustment has nothing to pull them with.
    if let Some(anchor) = plan.ba_anchor {
        let t_fuse = std::time::Instant::now();
        report.n_fused += weld_by_projection(gmap, &client_kf_ids, anchor, cam, arena);
        slamshare_obs::observe_ms!("mapping.fuse", t_fuse.elapsed().as_secs_f64() * 1e3);
    }

    // Alg. 2 lines 13–15: "if a loop has been detected, run bundle
    // adjustment over the client keyframes and the local keyframes".
    if let Some(center) = client_kf_ids.last().copied().or(plan.ba_anchor) {
        report.ba = Some(local_bundle_adjust_with(
            gmap,
            cam,
            center,
            12,
            3,
            &GpuExecutor::cpu(),
            arena,
        ));
    }

    report
}

/// Project the global-map points near `anchor` into each client keyframe
/// and associate/fuse matches — the weld that makes post-merge bundle
/// adjustment effective. Returns the number of new cross-map
/// associations.
fn weld_by_projection(
    gmap: &mut impl MapWrite,
    client_kfs: &[KeyFrameId],
    anchor: KeyFrameId,
    cam: &PinholeCamera,
    arena: &mut MappingArena,
) -> usize {
    // Candidate points: the anchor's local map, restricted to points not
    // owned by the merging client.
    let client = match client_kfs.first() {
        Some(kf) => kf.client(),
        None => return 0,
    };
    let candidates: Vec<_> = gmap
        .local_map_points(anchor, 1)
        .into_iter()
        .filter(|mp| mp.client() != client)
        .collect();
    if candidates.is_empty() {
        return 0;
    }

    // Collected per keyframe, applied after its search (no aliasing with
    // the map borrow). The keyframe loop itself stays sequential: a fuse
    // in one keyframe can retarget `matched_points` entries a later
    // keyframe's search must see.
    enum Op {
        Fuse { keep: MapPointId, drop: MapPointId },
        Observe { mp: MapPointId, kp: usize },
    }
    let mut ops: Vec<Op> = Vec::new();

    let mut n_assoc = 0;
    for kf_id in client_kfs {
        ops.clear();
        {
            let Some(kf) = gmap.keyframe(*kf_id) else {
                continue;
            };
            // One grid per keyframe; each candidate then reads only the
            // cells its window overlaps.
            let grid = &mut arena.weld_grid;
            grid.rebuild(kf.keypoints.iter().map(|kp| kp.pt));
            for mp_id in &candidates {
                let Some(mp) = gmap.mappoint(*mp_id) else {
                    continue;
                };
                let q = kf.pose_cw.transform(mp.position);
                let Some(px) = cam.project_in_image(q, 0.0) else {
                    continue;
                };
                let Some(best_i) = weld_target(grid, &kf.descriptors, mp.descriptor, px) else {
                    continue;
                };
                match kf.matched_points.get(best_i).copied().flatten() {
                    Some(existing) if existing != *mp_id => {
                        // The keyframe already tracks its own copy of this
                        // physical point: fuse (global copy wins).
                        if existing.client() == client {
                            ops.push(Op::Fuse {
                                keep: *mp_id,
                                drop: existing,
                            });
                        }
                    }
                    Some(_) => {}
                    None => ops.push(Op::Observe {
                        mp: *mp_id,
                        kp: best_i,
                    }),
                }
            }
        }
        for op in ops.drain(..) {
            match op {
                Op::Fuse { keep, drop } => {
                    gmap.fuse_mappoints(keep, drop);
                    n_assoc += 1;
                }
                Op::Observe { mp, kp } => {
                    gmap.add_observation(mp, *kf_id, kp);
                    n_assoc += 1;
                }
            }
        }
    }
    n_assoc
}

/// The keypoint a point projecting to `px` with `descriptor` welds to:
/// among the keypoints `grid` holds within 18 px of `px` (`dist ≤ 18`,
/// the reference scan's test), the one of smallest descriptor distance,
/// the lowest index on a tie, if that distance is at most `TH_LOW`.
fn weld_target(
    grid: &KeypointGrid,
    descriptors: &[Descriptor],
    descriptor: Descriptor,
    px: Vec2,
) -> Option<usize> {
    let query = ProjectionQuery {
        descriptor,
        predicted: px,
        radius: 18.0,
    };
    grid.best_in_window_by(&query, descriptors, TH_LOW, |d| d.norm() <= 18.0)
        .map(|(i, _)| i)
}

/// Move every entity of `cmap` into `gmap` and index the keyframes in the
/// BoW database. Ids are globally unique so this is pure insertion — the
/// shared-memory version of this operation is pointer-only, which is what
/// Table 4 measures.
pub fn absorb(gmap: &mut impl MapWrite, cmap: Map, db: &ShardedKeyframeDatabase) {
    for (id, kf) in cmap.keyframes {
        db.add(id.0, kf.bow.clone());
        gmap.put_keyframe(kf);
    }
    for mp in cmap.mappoints.into_values() {
        gmap.put_mappoint(mp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::mapping::{LocalMapper, MappingConfig};
    use crate::tracking::{SensorMode, Tracker, TrackerConfig};
    use crate::vocabulary;
    use slamshare_gpu::GpuExecutor;
    use slamshare_math::Quat;
    use slamshare_math::SE3;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
    use std::sync::Arc;

    /// The weld's reference search: every keypoint in ascending index
    /// order, window test `dist ≤ 18`, the first of the smallest descriptor
    /// distances, accepted at `TH_LOW`.
    fn weld_target_scan(
        keypoints: &[Vec2],
        descriptors: &[Descriptor],
        descriptor: Descriptor,
        px: Vec2,
    ) -> Option<usize> {
        let mut best = (u32::MAX, usize::MAX);
        for (i, (pt, d)) in keypoints.iter().zip(descriptors).enumerate() {
            if pt.dist(px) <= 18.0 {
                let dist = descriptor.distance(d);
                if dist < best.0 {
                    best = (dist, i);
                }
            }
        }
        (best.1 != usize::MAX && best.0 <= TH_LOW).then_some(best.1)
    }

    /// A keypoint position `kp` with `(kp − px).norm_sq() > 18²` yet
    /// `(kp − px).norm() ≤ 18`: where the scan's window test and a
    /// squared-radius test disagree.
    fn just_past_the_square(px: Vec2) -> Option<Vec2> {
        (1..36).find_map(|k| {
            let dy = 0.5 * k as f64;
            let mut x = px.x + (324.0 - dy * dy).sqrt();
            for _ in 0..64 {
                let d = Vec2::new(x, px.y + dy) - px;
                if d.norm_sq() > 324.0 {
                    return (d.norm() <= 18.0).then_some(px + d);
                }
                x = x.next_up();
            }
            None
        })
    }

    /// The descriptor with bits `0..n` set: at distance `n` from zero.
    fn bits(n: usize) -> Descriptor {
        let mut d = Descriptor::ZERO;
        for b in 0..n {
            d.set_bit(b);
        }
        d
    }

    /// The window edge: a keypoint exactly 18 px away is in, one f64 step
    /// beyond it is out, and one whose squared offset rounds above 18²
    /// while its distance rounds to 18 is in, as the scan has it.
    #[test]
    fn weld_window_edge_is_the_scans() {
        let px = Vec2::new(0.5, 0.25);
        let past_square = just_past_the_square(px).expect("no such offset near px");
        let keypoints = [
            px + Vec2::new(18.0, 0.0),
            Vec2::new((px.x + 18.0).next_up(), px.y),
            past_square,
        ];
        assert_eq!((keypoints[0] - px).norm(), 18.0);
        assert!((keypoints[1] - px).norm() > 18.0);
        assert!((keypoints[2] - px).norm_sq() > 324.0);
        let descriptors = [bits(5), bits(0), bits(1)];
        let grid = KeypointGrid::new(keypoints.iter().copied());
        let query = Descriptor::ZERO;
        assert_eq!(
            weld_target_scan(&keypoints, &descriptors, query, px),
            Some(2)
        );
        assert_eq!(weld_target(&grid, &descriptors, query, px), Some(2));
        // A squared-radius window would drop keypoint 2 and pick 0.
        let squared = ProjectionQuery {
            descriptor: query,
            predicted: px,
            radius: 18.0,
        };
        assert_eq!(
            grid.best_in_window(&squared, &descriptors, TH_LOW),
            Some((0, 5))
        );
    }

    /// The grid weld picks the keypoint the scan picks for every point,
    /// on seeded random keyframes: keypoints over a 752×480 image and past
    /// its edges, descriptors from a small alphabet (ties across cells
    /// exercise the index tie-break, and distances straddle `TH_LOW`),
    /// points projected anywhere and onto the window's edge.
    #[test]
    fn grid_weld_matches_the_scan() {
        use rand::{Rng, SeedableRng};
        let mut edge_picks = 0;
        for seed in 0..40u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let alphabet: Vec<Descriptor> = (0..8)
                .map(|_| {
                    let mut d = Descriptor::ZERO;
                    for b in 0..256 {
                        if rng.gen_bool(0.1) {
                            d.set_bit(b);
                        }
                    }
                    d
                })
                .collect();
            let n = rng.gen_range(0..300);
            let mut keypoints: Vec<Vec2> = (0..n)
                .map(|_| Vec2::new(rng.gen_range(-14.0..766.0), rng.gen_range(-14.0..494.0)))
                .collect();
            let mut points: Vec<(Descriptor, Vec2)> = (0..200)
                .map(|_| {
                    let px = Vec2::new(rng.gen_range(-14.0..766.0), rng.gen_range(-14.0..494.0));
                    (alphabet[rng.gen_range(0..alphabet.len())], px)
                })
                .collect();
            // Points whose window edge lands on a keypoint: exactly 18 px,
            // one step beyond, and past the square.
            for &kp in keypoints.iter().take(30) {
                let d = alphabet[rng.gen_range(0..alphabet.len())];
                points.push((d, kp - Vec2::new(18.0, 0.0)));
                points.push((d, Vec2::new(kp.x, (kp.y + 18.0).next_up())));
            }
            let px = Vec2::new(rng.gen_range(0.0..4.0), rng.gen_range(0.0..4.0));
            if let Some(kp) = just_past_the_square(px) {
                keypoints.push(kp);
                points.push((alphabet[0], px));
            }
            let descriptors: Vec<Descriptor> = (0..keypoints.len())
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            let grid = KeypointGrid::new(keypoints.iter().copied());
            for (i, &(d, px)) in points.iter().enumerate() {
                let want = weld_target_scan(&keypoints, &descriptors, d, px);
                assert_eq!(
                    weld_target(&grid, &descriptors, d, px),
                    want,
                    "seed {seed}, point {i}"
                );
                edge_picks +=
                    usize::from(want.is_some_and(|k| (keypoints[k] - px).norm_sq() >= 324.0));
            }
        }
        assert!(edge_picks > 0, "no pick on the window's edge");
    }

    /// Build a small client map from dataset frames at ground-truth poses.
    /// The frame index a keyframe was made from, read off its timestamp
    /// (frames are at 1/30 s in the test datasets).
    fn frame_index_proxy(kf: &crate::map::KeyFrame) -> usize {
        (kf.timestamp * 30.0).round() as usize
    }

    fn client_map(client: u16, frames: &[usize], seed: u64) -> (Map, Dataset) {
        let max = frames.iter().max().unwrap() + 1;
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(max)
                .with_seed(seed),
        );
        let tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let vocab = vocabulary::train_random(42);
        let mut mapper = LocalMapper::new(
            SensorMode::Stereo,
            ds.rig,
            MappingConfig {
                ba_every: 0,
                ..Default::default()
            },
        );
        let mut map = Map::new(ClientId(client));
        for &f in frames {
            let (left, right) = ds.render_stereo_frame(f);
            let obs = tracker
                .extract_frame(&left, Some(&right))
                .into_seed_observation(f, ds.frame_time(f), ds.gt_pose_cw(f));
            mapper.insert_keyframe(&mut map, &vocab, &obs);
        }
        (map, ds)
    }

    #[test]
    fn first_map_becomes_global() {
        let (cmap, _) = client_map(1, &[0], 5);
        let mut gmap = Map::new(ClientId(0));
        let db = ShardedKeyframeDatabase::new();
        let cam = slamshare_sim::camera::PinholeCamera::euroc_like();
        let n_kf = cmap.n_keyframes();
        let n_mp = cmap.n_mappoints();
        let report = map_merge(
            &mut gmap,
            cmap,
            &db,
            &vocabulary::train_random(42),
            &cam,
            false,
        );
        assert!(!report.aligned);
        assert_eq!(gmap.n_keyframes(), n_kf);
        assert_eq!(gmap.n_mappoints(), n_mp);
        assert_eq!(db.len(), n_kf);
    }

    /// The paper's core merge scenario: client B's map is expressed in a
    /// different origin (displaced/rotated coordinates, as every client
    /// starts at its own (0,0,0)); merging must snap it onto the global
    /// map (Fig. 7).
    #[test]
    fn displaced_client_map_snaps_onto_global() {
        let (gmap_src, ds) = client_map(1, &[0, 3], 5);
        let (mut cmap, _) = client_map(2, &[1, 4], 6);

        // Displace the client map: simulate its private origin.
        let offset = Sim3::from_se3(SE3::new(
            Quat::from_axis_angle(Vec3::Z, 0.6),
            Vec3::new(4.0, -2.0, 0.7),
        ));
        cmap.transform_all(&offset);

        let mut gmap = Map::new(ClientId(0));
        let db = ShardedKeyframeDatabase::new();
        let cam = ds.rig.cam;
        map_merge(
            &mut gmap,
            gmap_src,
            &db,
            &vocabulary::train_random(42),
            &cam,
            false,
        );

        let n_before = gmap.n_mappoints();
        let report = map_merge(
            &mut gmap,
            cmap,
            &db,
            &vocabulary::train_random(42),
            &cam,
            false,
        );
        assert!(report.aligned, "no alignment found: {report:?}");
        assert!(report.n_point_pairs >= 12);
        assert!(report.n_fused > 0);
        assert!(
            report.alignment_rmse < 0.3,
            "rmse {}",
            report.alignment_rmse
        );
        // The recovered transform must invert the displacement.
        let t = report.transform.unwrap();
        let roundtrip = t * offset;
        let probe = Vec3::new(1.0, 2.0, 0.5);
        assert!(
            (roundtrip.transform(probe) - probe).norm() < 0.25,
            "merge transform does not undo the offset: {:?}",
            roundtrip.transform(probe) - probe
        );
        // Fusion removed duplicates: fewer points than the plain sum.
        assert!(gmap.n_mappoints() < n_before + report.n_mp_added);
        // Client keyframe centers now lie near their true (global-frame)
        // positions.
        for kf in gmap
            .keyframes
            .values()
            .filter(|kf| kf.id.client() == ClientId(2))
        {
            let truth = ds.gt_position(frame_index_proxy(kf));
            let err = (kf.pose_cw.camera_center() - truth).norm();
            assert!(err < 0.3, "client KF off by {err} m after merge");
        }
    }

    #[test]
    fn disjoint_maps_absorbed_without_alignment() {
        // KITTI world vs Vicon room: nothing in common.
        let (gmap_src, ds) = client_map(1, &[0], 5);
        let kitti = Dataset::build(
            DatasetConfig::new(TracePreset::Kitti05)
                .with_frames(1)
                .with_seed(9),
        );
        let tracker = Tracker::new(
            TrackerConfig::stereo(kitti.rig),
            Arc::new(GpuExecutor::cpu()),
        );
        let vocab = vocabulary::train_random(42);
        let mut mapper = LocalMapper::new(SensorMode::Stereo, kitti.rig, MappingConfig::default());
        let mut cmap = Map::new(ClientId(2));
        let (left, right) = kitti.render_stereo_frame(0);
        let obs = tracker
            .extract_frame(&left, Some(&right))
            .into_seed_observation(0, 0.0, kitti.gt_pose_cw(0));
        mapper.insert_keyframe(&mut cmap, &vocab, &obs);

        let mut gmap = Map::new(ClientId(0));
        let db = ShardedKeyframeDatabase::new();
        map_merge(
            &mut gmap,
            gmap_src,
            &db,
            &vocabulary::train_random(42),
            &ds.rig.cam,
            false,
        );
        let report = map_merge(
            &mut gmap,
            cmap,
            &db,
            &vocabulary::train_random(42),
            &ds.rig.cam,
            false,
        );
        // Either no detection at all or far too few pairs — never aligned.
        assert!(!report.aligned, "false-positive merge: {report:?}");
    }
}
