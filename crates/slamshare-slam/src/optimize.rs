//! Nonlinear optimization: pose-only Gauss–Newton, point refinement, and
//! local bundle adjustment.
//!
//! The heavy map refinement the paper keeps on the server lives here.
//! Pose-only optimization runs inside tracking (after *search local
//! points*); local BA runs in the mapping thread after keyframe insertion
//! and after map merges (Alg. 2 line 14).
//!
//! Local BA is implemented as block-coordinate descent: alternately solve
//! each keyframe's 6-DoF pose (dense 6×6 LDLT) against fixed points, then
//! each point's 3-DoF position (closed-form 3×3) against fixed poses, with
//! Huber-weighted residuals throughout. For the small local windows SLAM
//! adjusts (≤ ~10 keyframes) this converges in a few sweeps and avoids the
//! machinery of a sparse Schur solver while optimizing the same objective.

use crate::map::MapWrite;
use slamshare_features::matching::KeypointGrid;
use slamshare_gpu::GpuExecutor;
use slamshare_math::robust::{huber_weight, CHI2_2DOF_95};
use slamshare_math::{Mat3, Quat, Vec2, Vec3, SE3};
use slamshare_sim::camera::PinholeCamera;
use std::time::Instant;

use crate::ids::{KeyFrameId, MapPointId};

/// One 3D→2D correspondence for pose optimization.
#[derive(Debug, Clone, Copy)]
pub struct PoseObservation {
    pub point: Vec3,
    pub pixel: Vec2,
    /// Measurement sigma in pixels (grows with pyramid octave).
    pub sigma: f64,
}

impl PoseObservation {
    /// The χ² inlier predicate of the pose optimizer: in front of the
    /// camera, projects into the image, and reprojects within the 95 %
    /// 2-DoF gate at `pose`.
    #[inline]
    pub fn is_inlier(&self, cam: &PinholeCamera, pose: SE3) -> bool {
        let q = pose.transform(self.point);
        q.z >= cam.z_near
            && cam
                .project(q)
                .map(|px| {
                    let e = (px - self.pixel).norm() / self.sigma;
                    e * e < CHI2_2DOF_95
                })
                .unwrap_or(false)
    }
}

/// One view of a map point for point refinement: the (fixed) observing
/// camera pose and the measured pixel.
#[derive(Debug, Clone, Copy)]
pub struct PointView {
    pub pose_cw: SE3,
    pub pixel: Vec2,
    /// Measurement sigma in pixels (grows with pyramid octave).
    pub sigma: f64,
}

/// 2×3 Jacobian of the projection at camera-frame point `q`, times fx/fy.
#[inline]
fn proj_jacobian(cam: &PinholeCamera, q: Vec3) -> [[f64; 3]; 2] {
    let iz = 1.0 / q.z;
    let iz2 = iz * iz;
    [
        [cam.fx * iz, 0.0, -cam.fx * q.x * iz2],
        [0.0, cam.fy * iz, -cam.fy * q.y * iz2],
    ]
}

/// Stack-allocated 6×6 LDLT solve, arithmetic-identical to
/// [`slamshare_math::DMat::solve_ldlt`] (same elimination order, same
/// `1e-12` pivot guard, same in-order substitution loops; the property
/// test below keeps the heap-matrix solver as its reference) — it just
/// never touches the allocator.
#[inline]
fn solve_ldlt6(a: &[[f64; 6]; 6], b: &[f64; 6]) -> Option<[f64; 6]> {
    const N: usize = 6;
    let mut l = [[0.0f64; N]; N];
    for (i, row) in l.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    let mut d = [0.0f64; N];
    for j in 0..N {
        let mut dj = a[j][j];
        for k in 0..j {
            dj -= l[j][k] * l[j][k] * d[k];
        }
        if dj.abs() < 1e-12 {
            return None;
        }
        d[j] = dj;
        for i in (j + 1)..N {
            let mut v = a[i][j];
            for k in 0..j {
                v -= l[i][k] * l[j][k] * d[k];
            }
            l[i][j] = v / dj;
        }
    }
    let mut y = *b;
    for i in 0..N {
        for k in 0..i {
            y[i] -= l[i][k] * y[k];
        }
    }
    for i in 0..N {
        y[i] /= d[i];
    }
    for i in (0..N).rev() {
        for k in (i + 1)..N {
            y[i] -= l[k][i] * y[k];
        }
    }
    Some(y)
}

/// One Gauss–Newton round. `gate` restricts the round to the
/// observations that are inliers at that (fixed) pose; the predicate is
/// recomputed per observation instead of materializing a mask, so a
/// round never allocates. Observations behind the camera are skipped per
/// iteration (they can re-enter as the pose moves).
fn pose_round(
    cam: &PinholeCamera,
    initial: SE3,
    observations: &[PoseObservation],
    max_iterations: usize,
    gate: Option<SE3>,
) -> SE3 {
    let mut pose = initial;
    let huber_px = 3.0;

    for _it in 0..max_iterations {
        let mut h = [[0.0f64; 6]; 6];
        let mut b = [0.0f64; 6];
        let mut n_used = 0;

        for obs in observations {
            if let Some(g) = gate {
                if !obs.is_inlier(cam, g) {
                    continue;
                }
            }
            let q = pose.transform(obs.point);
            if q.z < cam.z_near {
                continue;
            }
            let Some(px) = cam.project(q) else { continue };
            let r = px - obs.pixel;
            let inv_sigma = 1.0 / obs.sigma;
            let w = huber_weight(r.norm() * inv_sigma, huber_px) * inv_sigma * inv_sigma;

            let jp = proj_jacobian(cam, q);
            // dq/dδ: [I | −hat(q)] for δ = (ρ, φ).
            let qh = Mat3::hat(q);
            // J is 2×6: columns 0..3 translation, 3..6 rotation.
            let mut j = [[0.0f64; 6]; 2];
            for row in 0..2 {
                for c in 0..3 {
                    j[row][c] = jp[row][c];
                }
                for c in 0..3 {
                    // (jp · (−qh)) column c.
                    j[row][3 + c] = -(jp[row][0] * qh.m[0][c]
                        + jp[row][1] * qh.m[1][c]
                        + jp[row][2] * qh.m[2][c]);
                }
            }
            let res = [r.x, r.y];
            for a in 0..6 {
                for bcol in 0..6 {
                    h[a][bcol] += w * (j[0][a] * j[0][bcol] + j[1][a] * j[1][bcol]);
                }
                b[a] += w * (j[0][a] * res[0] + j[1][a] * res[1]);
            }
            n_used += 1;
        }

        if n_used < 3 {
            break;
        }
        // Mild Levenberg damping keeps steps sane when geometry is thin.
        for (i, row) in h.iter_mut().enumerate() {
            row[i] += 1e-6;
        }
        let Some(delta) = solve_ldlt6(&h, &b) else {
            break;
        };
        let rho = Vec3::new(-delta[0], -delta[1], -delta[2]);
        let phi = Vec3::new(-delta[3], -delta[4], -delta[5]);
        let dr = Quat::exp(phi);
        pose = SE3 {
            rot: (dr * pose.rot).normalized(),
            trans: dr.rotate(pose.trans) + rho,
        };

        let mut s = 0.0;
        for v in delta {
            s += v * v;
        }
        if s.sqrt() < 1e-10 {
            break;
        }
    }
    pose
}

/// Pose-only Gauss–Newton: minimize Huber-robust reprojection error over
/// the 6-DoF world→camera pose. Left-multiplicative update
/// `T ← exp(δ)·T`, normal equations on the stack.
///
/// Two rounds, as ORB-SLAM's pose optimizer does: optimize on all
/// observations with a Huber kernel, drop χ² outliers, then re-optimize
/// on the surviving inliers (Huber bounds an outlier's influence but does
/// not null it; removal does). Returns the refined pose and the number of
/// observations that are inliers at it ([`PoseObservation::is_inlier`]
/// gives the per-observation flags).
pub fn optimize_pose(
    cam: &PinholeCamera,
    initial: SE3,
    observations: &[PoseObservation],
    max_iterations: usize,
) -> (SE3, usize) {
    let round1 = pose_round(cam, initial, observations, max_iterations, None);
    let pose = pose_round(cam, round1, observations, max_iterations, Some(round1));
    let n_inliers = observations
        .iter()
        .filter(|obs| obs.is_inlier(cam, pose))
        .count();
    (pose, n_inliers)
}

/// Refine one point's 3-DoF position against fixed camera poses.
pub fn refine_position(
    cam: &PinholeCamera,
    initial: Vec3,
    views: &[PointView],
    max_iterations: usize,
) -> Vec3 {
    let mut p = initial;
    for _ in 0..max_iterations {
        let mut h = Mat3::zeros();
        let mut b = Vec3::ZERO;
        let mut n = 0;
        for view in views {
            let q = view.pose_cw.transform(p);
            if q.z < cam.z_near {
                continue;
            }
            let Some(px) = cam.project(q) else { continue };
            let r = px - view.pixel;
            let inv_sigma = 1.0 / view.sigma;
            let w = huber_weight(r.norm() * inv_sigma, 3.0) * inv_sigma * inv_sigma;
            let jp = proj_jacobian(cam, q);
            let rot = view.pose_cw.rot.to_mat3();
            // J = jp · R (2×3).
            let mut j = [[0.0f64; 3]; 2];
            for (row, jr) in j.iter_mut().enumerate() {
                for (c, jc) in jr.iter_mut().enumerate() {
                    *jc = jp[row][0] * rot.m[0][c]
                        + jp[row][1] * rot.m[1][c]
                        + jp[row][2] * rot.m[2][c];
                }
            }
            for a in 0..3 {
                for c in 0..3 {
                    h.m[a][c] += w * (j[0][a] * j[0][c] + j[1][a] * j[1][c]);
                }
                b[a] += w * (j[0][a] * r.x + j[1][a] * r.y);
            }
            n += 1;
        }
        if n < 2 {
            break;
        }
        // Damped inverse.
        for i in 0..3 {
            h.m[i][i] += 1e-9;
        }
        let Some(hinv) = h.inverse() else { break };
        let delta = hinv * b;
        p -= delta;
        if delta.norm() < 1e-12 {
            break;
        }
    }
    p
}

/// Statistics from a local bundle adjustment.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaStats {
    pub n_keyframes: usize,
    pub n_points: usize,
    pub n_observations: usize,
    pub initial_cost: f64,
    pub final_cost: f64,
    pub sweeps: usize,
    /// Wall time spent in the pose passes, ms.
    pub pose_ms: f64,
    /// Wall time spent in the point passes, ms.
    pub point_ms: f64,
    /// Total wall time of the adjustment, ms.
    pub total_ms: f64,
}

/// Reusable scratch for the mapping passes, modeled on
/// `features::arena::FrameArena` and held by the caller (the
/// `LocalMapper` / merge worker) across invocations: every buffer local
/// BA and the merge weld need lives here and is `clear()`ed (never
/// shrunk) per use, so a warmed mapper runs the commit-side
/// mapping path without touching the allocator.
#[derive(Debug, Clone, Default)]
pub struct MappingArena {
    /// In-window keyframe ids (center first, then covisibles).
    kf_ids: Vec<KeyFrameId>,
    /// Sorted, deduplicated ids of every point the window observes.
    point_ids: Vec<MapPointId>,
    /// Observations of the keyframe the pose pass is solving.
    obs: Vec<PoseObservation>,
    /// Views of the point the point pass is solving.
    views: Vec<PointView>,
    /// The merge weld's keypoint grid over the client keyframe it is
    /// searching, rebuilt per keyframe.
    pub(crate) weld_grid: KeypointGrid,
}

/// The scratch's original name, kept for existing callers now that the
/// buffers serve the whole mapping path rather than just local BA.
pub type BaScratch = MappingArena;

/// Local bundle adjustment around `center`: adjusts the center keyframe,
/// its best covisible keyframes (up to `window`), and every point they
/// observe. Keyframes outside the window contribute fixed observations
/// (gauge anchors). The oldest keyframe in the window is additionally held
/// fixed so a pure gauge drift can't wander.
///
/// Block-coordinate descent: during the pose pass every keyframe reads
/// only its own pose plus the (fixed) point positions, and during the
/// point pass every point reads only its own position plus the (fixed)
/// keyframe poses, so each solve is written back as soon as it finishes.
/// `scratch` carries the reusable buffers.
///
/// `_exec` is unused — both passes run inline on the calling thread.
pub fn local_bundle_adjust_with<M: MapWrite>(
    map: &mut M,
    cam: &PinholeCamera,
    center: KeyFrameId,
    window: usize,
    sweeps: usize,
    _exec: &GpuExecutor,
    scratch: &mut BaScratch,
) -> BaStats {
    let t_total = Instant::now();
    let MappingArena {
        kf_ids,
        point_ids,
        obs,
        views,
        ..
    } = scratch;
    kf_ids.clear();
    kf_ids.push(center);
    kf_ids.extend(
        map.covisible_keyframes(center, 5)
            .into_iter()
            .take(window.saturating_sub(1))
            .map(|(k, _)| k),
    );
    // Hold the oldest in-window keyframe fixed (plus all out-of-window
    // observers, implicitly, since we never touch their poses).
    // `total_cmp` rather than `partial_cmp().unwrap()`: a NaN timestamp
    // must not panic the commit stage (it sorts last instead). A
    // covisible id can name a keyframe the map no longer holds (a point
    // may keep an observation of it), so it is looked up, not indexed.
    let fixed_kf = kf_ids
        .iter()
        .filter_map(|id| map.keyframe(*id).map(|kf| (*id, kf.timestamp)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(center, |(id, _)| id);

    // Collect the point set: sort + dedup on the reused buffer yields the
    // same ascending unique ids the old per-call `BTreeSet` produced.
    point_ids.clear();
    for kf_id in kf_ids.iter() {
        if let Some(kf) = map.keyframe(*kf_id) {
            point_ids.extend(kf.matched_points.iter().flatten().copied());
        }
    }
    point_ids.sort_unstable();
    point_ids.dedup();
    let kf_ids: &[KeyFrameId] = kf_ids;
    let point_ids: &[MapPointId] = point_ids;

    let sigma_for = |octave: u8| 1.2f64.powi(octave as i32);
    let cost_snapshot = |map: &M| -> (f64, usize) {
        let mut cost = 0.0;
        let mut n_obs = 0;
        for mp_id in point_ids {
            let Some(mp) = map.mappoint(*mp_id) else {
                continue;
            };
            for (kf_id, kp_idx) in &mp.observations {
                let Some(kf) = map.keyframe(*kf_id) else {
                    continue;
                };
                let q = kf.pose_cw.transform(mp.position);
                if q.z < cam.z_near {
                    continue;
                }
                if let Some(px) = cam.project(q) {
                    let kp = &kf.keypoints[*kp_idx];
                    let e = px.dist(kp.pt) / sigma_for(kp.octave);
                    cost += slamshare_math::robust::huber_loss(e, 3.0);
                    n_obs += 1;
                }
            }
        }
        (cost, n_obs)
    };

    let (initial_cost, n_observations) = cost_snapshot(map);
    let mut pose_ms = 0.0;
    let mut point_ms = 0.0;

    for _sweep in 0..sweeps {
        // 1. Pose pass over in-window keyframes (skip the anchor), each
        // against its matched points in ascending keypoint order.
        let t_pose = Instant::now();
        for kf_id in kf_ids.iter() {
            if *kf_id == fixed_kf {
                continue;
            }
            let Some(kf) = map.keyframe(*kf_id) else {
                continue;
            };
            obs.clear();
            for (kp_idx, mp_id) in kf.matched_points.iter().enumerate() {
                let Some(mp_id) = mp_id else { continue };
                let Some(mp) = map.mappoint(*mp_id) else {
                    continue;
                };
                let kp = &kf.keypoints[kp_idx];
                obs.push(PoseObservation {
                    point: mp.position,
                    pixel: kp.pt,
                    sigma: sigma_for(kp.octave),
                });
            }
            if obs.len() < 10 {
                continue;
            }
            let (pose, n_inliers) = optimize_pose(cam, kf.pose_cw, obs, 5);
            if n_inliers >= 10 {
                if let Some(kf) = map.keyframe_mut(*kf_id) {
                    kf.pose_cw = pose;
                }
            }
        }
        pose_ms += t_pose.elapsed().as_secs_f64() * 1e3;

        // 2. Point pass over the window's points in ascending id order,
        // each against its views in `mp.observations` order.
        let t_point = Instant::now();
        for mp_id in point_ids.iter() {
            let Some(mp) = map.mappoint(*mp_id) else {
                continue;
            };
            if mp.observations.len() < 2 {
                continue;
            }
            views.clear();
            for (kf_id, kp_idx) in &mp.observations {
                if let Some(kf) = map.keyframe(*kf_id) {
                    let kp = &kf.keypoints[*kp_idx];
                    views.push(PointView {
                        pose_cw: kf.pose_cw,
                        pixel: kp.pt,
                        sigma: sigma_for(kp.octave),
                    });
                }
            }
            let refined = refine_position(cam, mp.position, views, 3);
            if !refined.is_degenerate() {
                if let Some(mp) = map.mappoint_mut(*mp_id) {
                    mp.position = refined;
                }
            }
        }
        point_ms += t_point.elapsed().as_secs_f64() * 1e3;
    }

    let (final_cost, _) = cost_snapshot(map);
    let total_ms = t_total.elapsed().as_secs_f64() * 1e3;
    slamshare_obs::observe_ms!("ba.pose_pass", pose_ms);
    slamshare_obs::observe_ms!("ba.point_pass", point_ms);
    slamshare_obs::observe_ms!("ba.total", total_ms);
    BaStats {
        n_keyframes: kf_ids.len(),
        n_points: point_ids.len(),
        n_observations,
        initial_cost,
        final_cost,
        sweeps,
        pose_ms,
        point_ms,
        total_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapRead;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use slamshare_math::{DMat, DVec, Quat};

    fn scatter(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.gen_range(-3.0..3.0),
                    rng.gen_range(-2.0..2.0),
                    rng.gen_range(4.0..10.0),
                )
            })
            .collect()
    }

    #[test]
    fn local_ba_tolerates_an_observation_of_a_missing_keyframe() {
        // `Map::add_observation` records an observation even of a keyframe
        // the map does not hold; local BA then finds that keyframe
        // covisible with the center and must not index it.
        use crate::ids::ClientId;
        use crate::map::{KeyFrame, Map};
        use slamshare_features::{Descriptor, KeyPoint};
        let cam = PinholeCamera::euroc_like();
        let points = scatter(&mut StdRng::seed_from_u64(5), 8);
        let keypoints: Vec<KeyPoint> = points
            .iter()
            .filter_map(|&p| cam.project(p))
            .map(|px| KeyPoint::new(px, 0, 1.0))
            .collect();
        let n = keypoints.len();
        let mut map = Map::new(ClientId(1));
        let center = map.alloc.next_keyframe();
        map.insert_keyframe(KeyFrame {
            id: center,
            pose_cw: SE3::IDENTITY,
            timestamp: 0.0,
            descriptors: vec![Descriptor::ZERO; n],
            keypoints,
            matched_points: vec![None; n],
            bow: Default::default(),
        });
        let missing = map.alloc.next_keyframe();
        for (i, &p) in points.iter().take(n).enumerate() {
            let mp = map.create_mappoint(p, Descriptor::ZERO, center, i);
            map.add_observation(mp, missing, i);
        }
        assert_eq!(map.covisible_keyframes(center, 1), vec![(missing, n)]);
        let stats = local_bundle_adjust_with(
            &mut map,
            &cam,
            center,
            5,
            2,
            &GpuExecutor::cpu(),
            &mut BaScratch::default(),
        );
        assert_eq!(stats.n_keyframes, 2);
    }

    #[test]
    fn pose_recovered_from_perturbed_start() {
        let cam = PinholeCamera::euroc_like();
        let mut rng = StdRng::seed_from_u64(1);
        let truth = SE3::new(
            Quat::from_axis_angle(Vec3::new(0.1, 0.9, 0.2), 0.2),
            Vec3::new(0.3, -0.1, 0.5),
        );
        let world_pts: Vec<Vec3> = scatter(&mut rng, 60)
            .iter()
            .map(|p| truth.inverse().transform(*p))
            .collect();
        let obs: Vec<PoseObservation> = world_pts
            .iter()
            .map(|&p| PoseObservation {
                point: p,
                pixel: cam.project(truth.transform(p)).unwrap(),
                sigma: 1.0,
            })
            .collect();
        // Start from a noticeably wrong pose.
        let start = SE3::new(
            Quat::from_axis_angle(Vec3::new(0.1, 0.9, 0.2), 0.3),
            truth.trans + Vec3::new(0.2, 0.1, -0.15),
        );
        let (pose, n_inliers) = optimize_pose(&cam, start, &obs, 15);
        assert_eq!(n_inliers, 60);
        assert!(
            pose.center_distance(&truth) < 1e-6,
            "center err {}",
            pose.center_distance(&truth)
        );
        assert!(pose.rotation_angle_to(&truth) < 1e-6);
    }

    #[test]
    fn outliers_rejected_by_robust_kernel() {
        let cam = PinholeCamera::euroc_like();
        let mut rng = StdRng::seed_from_u64(2);
        let truth = SE3::new(Quat::IDENTITY, Vec3::new(0.1, 0.0, 0.0));
        let world_pts: Vec<Vec3> = scatter(&mut rng, 80)
            .iter()
            .map(|p| truth.inverse().transform(*p))
            .collect();
        let mut obs: Vec<PoseObservation> = world_pts
            .iter()
            .map(|&p| PoseObservation {
                point: p,
                pixel: cam.project(truth.transform(p)).unwrap(),
                sigma: 1.0,
            })
            .collect();
        // Corrupt 15 observations badly.
        for o in obs.iter_mut().take(15) {
            o.pixel = o.pixel + Vec2::new(rng.gen_range(40.0..80.0), rng.gen_range(-80.0..-40.0));
        }
        let start = SE3::new(Quat::IDENTITY, truth.trans + Vec3::new(0.1, -0.05, 0.1));
        let (pose, n_inliers) = optimize_pose(&cam, start, &obs, 15);
        assert!(
            pose.center_distance(&truth) < 1e-3,
            "center err {}",
            pose.center_distance(&truth)
        );
        // The corrupted ones must be classified outliers.
        for o in obs.iter().take(15) {
            assert!(!o.is_inlier(&cam, pose));
        }
        assert!(n_inliers >= 60);
    }

    #[test]
    fn degenerate_observation_count_keeps_initial() {
        let cam = PinholeCamera::euroc_like();
        let start = SE3::IDENTITY;
        let obs = [PoseObservation {
            point: Vec3::new(0.0, 0.0, 5.0),
            pixel: Vec2::new(10.0, 10.0),
            sigma: 1.0,
        }];
        let (pose, _) = optimize_pose(&cam, start, &obs, 10);
        assert_eq!(pose, start);
    }

    #[test]
    fn refine_position_converges_to_truth() {
        let cam = PinholeCamera::euroc_like();
        let truth = Vec3::new(0.5, -0.2, 6.0);
        let poses = [
            SE3::IDENTITY,
            SE3::from_translation(Vec3::new(-0.8, 0.0, 0.0)),
            SE3::from_translation(Vec3::new(0.0, -0.6, 0.1)),
        ];
        let views: Vec<PointView> = poses
            .iter()
            .map(|pose| PointView {
                pose_cw: *pose,
                pixel: cam.project(pose.transform(truth)).unwrap(),
                sigma: 1.0,
            })
            .collect();
        let got = refine_position(&cam, truth + Vec3::new(0.3, -0.2, 0.5), &views, 10);
        assert!((got - truth).norm() < 1e-6, "got {got:?}");
    }

    #[test]
    fn refine_position_single_view_is_noop() {
        let cam = PinholeCamera::euroc_like();
        let initial = Vec3::new(0.0, 0.0, 5.0);
        let views = [PointView {
            pose_cw: SE3::IDENTITY,
            pixel: Vec2::new(200.0, 200.0),
            sigma: 1.0,
        }];
        assert_eq!(refine_position(&cam, initial, &views, 5), initial);
    }

    /// `solve_ldlt6` against its reference, the heap-matrix
    /// `DMat::solve_ldlt`, bit for bit: `a = m·mᵀ + damping·I` is SPD for
    /// a healthy damping and numerically singular (rank ≤ `rank`, pivots
    /// at the `1e-12` guard) as both shrink, so the `None` branch is
    /// compared too.
    #[test]
    fn solve_ldlt6_is_bit_identical_to_dmat_solve_ldlt() {
        let seed = std::env::var("SLAMSHARE_TEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1d16);
        let (mut solved, mut refused) = (0, 0);
        for case in 0..600 {
            let rank = if case % 3 == 0 {
                rng.gen_range(1..6)
            } else {
                6
            };
            let damping = match case % 4 {
                0 => 0.0,
                1 => 1e-13,
                2 => 1e-6,
                _ => rng.gen_range(0.0..1.0),
            };
            let scale = 10f64.powi(rng.gen_range(-3..4));
            let mut m = [[0.0f64; 6]; 6];
            for row in m.iter_mut() {
                for v in row.iter_mut().take(rank) {
                    *v = rng.gen_range(-1.0..1.0) * scale;
                }
            }
            let mut a = [[0.0f64; 6]; 6];
            let mut b = [0.0f64; 6];
            let mut heap_a = DMat::zeros(6, 6);
            let mut heap_b = DVec::zeros(6);
            for i in 0..6 {
                for j in 0..6 {
                    // Products are summed in the same order for (i, j)
                    // and (j, i), so `a` is exactly symmetric.
                    a[i][j] = m[i].iter().zip(&m[j]).map(|(x, y)| x * y).sum();
                    if i == j {
                        a[i][j] += damping;
                    }
                    heap_a.add_at(i, j, a[i][j]);
                }
                b[i] = rng.gen_range(-1.0..1.0) * scale;
                heap_b[i] = b[i];
            }
            let stack = solve_ldlt6(&a, &b);
            let heap = heap_a.solve_ldlt(&heap_b);
            match (stack, heap) {
                (Some(x), Some(y)) => {
                    solved += 1;
                    for i in 0..6 {
                        assert_eq!(
                            x[i].to_bits(),
                            y[i].to_bits(),
                            "case {case} (seed {seed}): x[{i}] diverged"
                        );
                    }
                }
                (None, None) => refused += 1,
                (s, h) => panic!(
                    "case {case} (seed {seed}): pivot guard diverged: stack {:?} vs heap {:?}",
                    s.is_some(),
                    h.is_some()
                ),
            }
        }
        assert!(
            solved > 100 && refused > 20,
            "property saw {solved} solves / {refused} refusals — inputs too uniform"
        );
    }
}
