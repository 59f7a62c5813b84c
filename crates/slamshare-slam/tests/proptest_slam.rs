//! Property-based tests for SLAM invariants: pose optimization recovers
//! synthetic poses, ATE is invariant to the gauge, and map bookkeeping
//! stays consistent under arbitrary edit sequences.

use proptest::prelude::*;
use slamshare_math::{Quat, Vec3, SE3};
use slamshare_slam::eval;
use slamshare_slam::ids::ClientId;
use slamshare_slam::map::{Map, MapWrite};

fn arb_se3() -> impl Strategy<Value = SE3> {
    (
        (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        -2.5f64..2.5,
        (-5.0f64..5.0, -5.0f64..5.0, -5.0f64..5.0),
    )
        .prop_filter_map("nonzero axis", |(axis, angle, t)| {
            let a = Vec3::new(axis.0, axis.1, axis.2);
            (a.norm() > 1e-3)
                .then(|| SE3::new(Quat::from_axis_angle(a, angle), Vec3::new(t.0, t.1, t.2)))
        })
}

proptest! {
    /// ATE is gauge-invariant: rigidly moving the *whole* estimate does
    /// not change the error.
    #[test]
    fn ate_gauge_invariance(gauge in arb_se3(), n in 10usize..60) {
        let gt: Vec<(f64, Vec3)> = (0..n)
            .map(|i| {
                let t = i as f64 * 0.1;
                (t, Vec3::new(t.sin() * 2.0, t.cos(), 0.2 * t))
            })
            .collect();
        // A noisy estimate…
        let est: Vec<(f64, Vec3)> = gt
            .iter()
            .enumerate()
            .map(|(i, (t, p))| (*t, *p + Vec3::new(((i * 7) % 5) as f64, ((i * 3) % 7) as f64, 0.0) * 0.01))
            .collect();
        let moved: Vec<(f64, Vec3)> =
            est.iter().map(|(t, p)| (*t, gauge.transform(*p))).collect();
        let a = eval::ate(&est, &gt, false, 1e-6).unwrap();
        let b = eval::ate(&moved, &gt, false, 1e-6).unwrap();
        prop_assert!((a.rmse - b.rmse).abs() < 1e-6, "{} vs {}", a.rmse, b.rmse);
    }

    /// Pose optimization recovers an arbitrary true pose from clean
    /// observations of a well-spread cloud.
    #[test]
    fn pose_optimization_recovers_truth(truth in arb_se3(), seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        use slamshare_slam::optimize::{optimize_pose, PoseObservation};
        let cam = slamshare_sim::camera::PinholeCamera::euroc_like();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Points in the camera frame of `truth`, mapped back to world.
        let mut obs = Vec::new();
        for _ in 0..40 {
            let p_cam = Vec3::new(
                rng.gen_range(-2.0..2.0),
                rng.gen_range(-1.5..1.5),
                rng.gen_range(2.0..9.0),
            );
            let Some(px) = cam.project(p_cam) else { continue };
            obs.push(PoseObservation {
                point: truth.inverse().transform(p_cam),
                pixel: px,
                sigma: 1.0,
            });
        }
        prop_assume!(obs.len() >= 25);
        // Perturbed start.
        let start = SE3::new(
            truth.rot * Quat::from_axis_angle(Vec3::Y, 0.05),
            truth.trans + Vec3::new(0.05, -0.04, 0.06),
        );
        let (pose, _) = optimize_pose(&cam, start, &obs, 15);
        prop_assert!(pose.center_distance(&truth) < 1e-4,
            "center err {}", pose.center_distance(&truth));
    }

    /// Map bookkeeping: after arbitrary create/observe/remove sequences,
    /// keyframe back-references and point observations agree exactly.
    #[test]
    fn map_backrefs_consistent(ops in proptest::collection::vec((0u8..3, 0usize..8, 0usize..16), 0..120)) {
        use slamshare_features::bow::BowVector;
        use slamshare_features::{Descriptor, KeyPoint};
        use slamshare_slam::map::KeyFrame;
        use slamshare_math::Vec2;

        let mut map = Map::new(ClientId(1));
        let mut kfs = Vec::new();
        for k in 0..4 {
            let id = map.alloc.next_keyframe();
            map.insert_keyframe(KeyFrame {
                id,
                pose_cw: SE3::IDENTITY,
                timestamp: k as f64,
                keypoints: vec![KeyPoint::new(Vec2::ZERO, 0, 1.0); 16],
                descriptors: vec![Descriptor::ZERO; 16],
                matched_points: vec![None; 16],
                bow: BowVector::default(),
            });
            kfs.push(id);
        }
        let mut points = Vec::new();
        for (op, a, b) in ops {
            match op {
                0 => {
                    let kf = kfs[a % kfs.len()];
                    // Only create on a free keypoint slot.
                    if map.keyframes[&kf].matched_points[b].is_none() {
                        points.push(map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf, b));
                    }
                }
                1 => {
                    if !points.is_empty() {
                        let mp = points[a % points.len()];
                        let kf = kfs[b % kfs.len()];
                        if map.mappoints.contains_key(&mp)
                            && map.keyframes[&kf].matched_points[b].is_none()
                        {
                            map.add_observation(mp, kf, b);
                        }
                    }
                }
                _ => {
                    if !points.is_empty() {
                        let mp = points[a % points.len()];
                        map.remove_mappoint(mp);
                    }
                }
            }
        }
        // Invariant: every observation is mirrored by a keyframe slot and
        // vice versa.
        for (mp_id, mp) in &map.mappoints {
            for (kf, idx) in &mp.observations {
                prop_assert_eq!(map.keyframes[kf].matched_points[*idx], Some(*mp_id));
            }
        }
        for (kf_id, kf) in &map.keyframes {
            for (idx, slot) in kf.matched_points.iter().enumerate() {
                if let Some(mp) = slot {
                    let obs = &map.mappoints[mp].observations;
                    prop_assert!(obs.iter().any(|(k, i)| k == kf_id && *i == idx));
                }
            }
        }
    }
}
