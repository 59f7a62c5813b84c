//! Local mapping: keyframe insertion, map-point creation and local bundle
//! adjustment.
//!
//! In the paper this runs in the per-client server process ("Local
//! Mapping" in Fig. 3, Process A) and continuously feeds the shared global
//! map. The same code also runs client-side in the Edge-SLAM-style
//! baseline.

use crate::ids::KeyFrameId;
use crate::map::{KeyFrame, MapWrite};
use crate::optimize::{local_bundle_adjust_with, BaScratch, BaStats};
use crate::tracking::{FrameObservation, SensorMode};
use crate::triangulate;
use slamshare_features::bow::Vocabulary;
use slamshare_features::matching::{resolve_conflicts, KeypointGrid, ProjectionQuery, TH_LOW};
use slamshare_gpu::GpuExecutor;
use slamshare_sim::camera::StereoRig;

/// Minimum parallax (radians) to accept a mono triangulation.
const MIN_PARALLAX_RAD: f64 = 0.005;
/// Maximum reprojection error (pixels) for a new point.
const MAX_REPROJ_PX: f64 = 3.0;

/// Mapping tuning parameters.
#[derive(Debug, Clone)]
pub struct MappingConfig {
    /// Local-BA window size (keyframes).
    pub ba_window: usize,
    /// Run local BA every N keyframe insertions (1 = every time).
    pub ba_every: usize,
    /// Coordinate-descent sweeps per BA invocation.
    pub ba_sweeps: usize,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            ba_window: 6,
            ba_every: 2,
            ba_sweeps: 2,
        }
    }
}

/// Report from one keyframe insertion.
#[derive(Debug, Clone, Default)]
pub struct InsertionReport {
    pub kf_id: Option<KeyFrameId>,
    pub n_new_points: usize,
    pub n_observations_added: usize,
    pub ba: Option<BaStats>,
}

/// The local-mapping back end for one map.
#[derive(Debug, Clone)]
pub struct LocalMapper {
    pub config: MappingConfig,
    pub mode: SensorMode,
    pub rig: StereoRig,
    inserted: usize,
    /// Point/keyframe-id buffers reused across BA invocations.
    ba_scratch: BaScratch,
}

impl LocalMapper {
    pub fn new(mode: SensorMode, rig: StereoRig, config: MappingConfig) -> LocalMapper {
        LocalMapper {
            config,
            mode,
            rig,
            inserted: 0,
            ba_scratch: BaScratch::default(),
        }
    }

    /// Promote a tracked frame to a keyframe: insert it into the map,
    /// register its tracked-point observations, create new map points
    /// (stereo depth, or mono two-view triangulation against the best
    /// covisible keyframe), and periodically run local BA.
    pub fn insert_keyframe(
        &mut self,
        map: &mut impl MapWrite,
        vocab: &Vocabulary,
        obs: &FrameObservation,
    ) -> InsertionReport {
        let mut report = InsertionReport::default();
        // Advance the deterministic frame clock before creating points so
        // they stamp the insertion frame as their age reference. `max`
        // rather than assignment: interleaved multi-client commits may
        // present frame indices out of order.
        map.advance_frame_clock(obs.frame_idx as u64);
        let kf_id = map.alloc_mut().next_keyframe();
        let bow = vocab.transform(&obs.descriptors);
        let kf = KeyFrame {
            id: kf_id,
            pose_cw: obs.pose_cw,
            timestamp: obs.timestamp,
            keypoints: obs.keypoints.clone(),
            descriptors: obs.descriptors.clone(),
            matched_points: obs.matched.clone(),
            bow,
        };
        report.n_observations_added = kf.n_matched();
        map.insert_keyframe(kf);
        report.kf_id = Some(kf_id);

        // New map points.
        match self.mode {
            SensorMode::Stereo => {
                report.n_new_points = self.create_stereo_points(map, kf_id);
            }
            SensorMode::Mono => {
                report.n_new_points = self.create_mono_points(map, kf_id);
            }
        }

        self.inserted += 1;
        slamshare_obs::counter_inc!("mapping.keyframes_inserted");
        slamshare_obs::counter_add!("mapping.points_created", report.n_new_points as u64);
        if self.config.ba_every > 0 && self.inserted.is_multiple_of(self.config.ba_every) {
            report.ba = Some(local_bundle_adjust_with(
                map,
                &self.rig.cam,
                kf_id,
                self.config.ba_window,
                self.config.ba_sweeps,
                &GpuExecutor::cpu(),
                &mut self.ba_scratch,
            ));
        }
        report
    }

    /// Create points from the keyframe's stereo depths for keypoints not
    /// yet associated to the map.
    fn create_stereo_points(&self, map: &mut impl MapWrite, kf_id: KeyFrameId) -> usize {
        let Some(kf) = map.keyframe(kf_id) else {
            return 0;
        };
        let pose = kf.pose_cw;
        let mut todo = Vec::new();
        for (i, kp) in kf.keypoints.iter().enumerate() {
            if kf.matched_points[i].is_some() || !kp.has_stereo() {
                continue;
            }
            if let Some(p) = triangulate::stereo_point(&self.rig, &pose, kp.pt, kp.right_x) {
                todo.push((i, p, kf.descriptors[i]));
            }
        }
        let n = todo.len();
        for (i, p, d) in todo {
            map.create_mappoint(p, d, kf_id, i);
        }
        n
    }

    /// Mono: match this keyframe's unassociated keypoints against the best
    /// covisible keyframe's unassociated keypoints and triangulate.
    fn create_mono_points(&self, map: &mut impl MapWrite, kf_id: KeyFrameId) -> usize {
        let Some((other_id, _)) = map
            .covisible_keyframes(kf_id, 5)
            .into_iter()
            .next()
            .or_else(|| {
                // A fresh map may have no covisibility yet: fall back to
                // the previous keyframe by timestamp.
                let this_t = map.keyframe(kf_id)?.timestamp;
                map.keyframes_iter()
                    .filter(|k| k.id != kf_id && k.timestamp < this_t)
                    .max_by(|a, b| a.timestamp.total_cmp(&b.timestamp).then(a.id.cmp(&b.id)))
                    .map(|k| (k.id, 0))
            })
        else {
            return 0;
        };

        let (idx_pairs, points) = {
            let (Some(kf), Some(other)) = (map.keyframe(kf_id), map.keyframe(other_id)) else {
                return 0;
            };

            let free_a: Vec<usize> = (0..kf.keypoints.len())
                .filter(|&i| kf.matched_points[i].is_none())
                .collect();
            let free_b: Vec<usize> = (0..other.keypoints.len())
                .filter(|&i| other.matched_points[i].is_none())
                .collect();
            // Windowed search (as ORB-SLAM's initializer) instead of
            // global brute force: repeated scene texture makes a global
            // ratio test reject most true matches, while the spatial
            // window disambiguates them. Keyframes are close in time, so a
            // generous fixed window around the same pixel suffices; wrong
            // pairs die at the two-view reprojection gate below.
            let queries: Vec<ProjectionQuery> = free_a
                .iter()
                .map(|&i| ProjectionQuery {
                    descriptor: kf.descriptors[i],
                    predicted: kf.keypoints[i].pt,
                    radius: 90.0,
                })
                .collect();
            let grid = KeypointGrid::new(free_b.iter().map(|&i| other.keypoints[i].pt));
            let desc_b: Vec<_> = free_b.iter().map(|&i| other.descriptors[i]).collect();
            let matches = resolve_conflicts(
                queries
                    .iter()
                    .map(|q| grid.best_in_window(q, &desc_b, TH_LOW)),
            );

            let mut idx_pairs = Vec::new();
            let mut points = Vec::new();
            for m in matches {
                let ia = free_a[m.query];
                let ib = free_b[m.train];
                let Some(p) = triangulate::triangulate_midpoint(
                    &self.rig.cam,
                    &kf.pose_cw,
                    kf.keypoints[ia].pt,
                    &other.pose_cw,
                    other.keypoints[ib].pt,
                ) else {
                    continue;
                };
                if triangulate::parallax_angle(&kf.pose_cw, &other.pose_cw, p) < MIN_PARALLAX_RAD {
                    continue;
                }
                // Reprojection gate in both views.
                let ok = [
                    (&kf.pose_cw, kf.keypoints[ia].pt),
                    (&other.pose_cw, other.keypoints[ib].pt),
                ]
                .iter()
                .all(|(pose, px)| {
                    self.rig
                        .cam
                        .project(pose.transform(p))
                        .map(|proj| proj.dist(*px) < MAX_REPROJ_PX)
                        .unwrap_or(false)
                });
                if !ok {
                    continue;
                }
                idx_pairs.push((ia, ib));
                points.push((p, kf.descriptors[ia]));
            }
            (idx_pairs, points)
        };

        let n = points.len();
        for ((ia, ib), (p, d)) in idx_pairs.into_iter().zip(points) {
            let mp = map.create_mappoint(p, d, kf_id, ia);
            map.add_observation(mp, other_id, ib);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::map::Map;
    use crate::tracking::{Tracker, TrackerConfig};
    use crate::vocabulary;
    use slamshare_gpu::GpuExecutor;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(8)
                .with_seed(3),
        )
    }

    fn observation_at(ds: &Dataset, tracker: &mut Tracker, i: usize) -> FrameObservation {
        let (left, right) = ds.render_stereo_frame(i);
        tracker
            .extract_frame(&left, Some(&right))
            .into_seed_observation(i, ds.frame_time(i), ds.gt_pose_cw(i))
    }

    #[test]
    fn stereo_insertion_creates_points() {
        let ds = dataset();
        let mut tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let vocab = vocabulary::train_random(1);
        let mut mapper = LocalMapper::new(SensorMode::Stereo, ds.rig, MappingConfig::default());
        let mut map = Map::new(ClientId(1));

        let obs = observation_at(&ds, &mut tracker, 0);
        let report = mapper.insert_keyframe(&mut map, &vocab, &obs);
        assert!(report.kf_id.is_some());
        assert!(report.n_new_points > 100, "{} points", report.n_new_points);
        assert_eq!(map.n_keyframes(), 1);
        assert_eq!(map.n_mappoints(), report.n_new_points);
    }

    #[test]
    fn mono_insertion_triangulates_with_previous() {
        let ds = dataset();
        let mut tracker = Tracker::new(TrackerConfig::mono(ds.rig), Arc::new(GpuExecutor::cpu()));
        let vocab = vocabulary::train_random(2);
        let mut mapper = LocalMapper::new(SensorMode::Mono, ds.rig, MappingConfig::default());
        let mut map = Map::new(ClientId(1));

        // Two keyframes several frames apart (real baseline).
        let obs0 = observation_at(&ds, &mut tracker, 0);
        mapper.insert_keyframe(&mut map, &vocab, &obs0);
        let obs1 = observation_at(&ds, &mut tracker, 6);
        let report = mapper.insert_keyframe(&mut map, &vocab, &obs1);
        assert!(
            report.n_new_points > 50,
            "mono triangulated only {} points",
            report.n_new_points
        );
        // Triangulated points must be near landmarks (true world scale is
        // used since poses are ground truth here). Tolerance grows
        // quadratically with depth: two-view triangulation noise is
        // σ_z ≈ z²·σ_px/(f·b) for baseline b between the keyframes.
        let baseline = ds.gt_position(0).dist(ds.gt_position(6)).max(0.05);
        let cam_center = ds.gt_pose_cw(6).camera_center();
        let mut ok = 0;
        let mut total = 0;
        for mp in map.mappoints.values() {
            let nearest = ds
                .world
                .landmarks
                .iter()
                .map(|lm| (lm.center - mp.position).norm())
                .fold(f64::INFINITY, f64::min);
            total += 1;
            let z = (mp.position - cam_center).norm();
            let tol = 0.45 + 1.5 * z * z / (ds.rig.cam.fx * baseline);
            if nearest < tol {
                ok += 1;
            }
        }
        assert!(ok * 10 >= total * 8, "{ok}/{total} points near landmarks");
    }

    #[test]
    fn ba_runs_on_schedule() {
        let ds = dataset();
        let mut tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let vocab = vocabulary::train_random(3);
        let config = MappingConfig {
            ba_every: 2,
            ..Default::default()
        };
        let mut mapper = LocalMapper::new(SensorMode::Stereo, ds.rig, config);
        let mut map = Map::new(ClientId(1));

        let r1 = mapper.insert_keyframe(&mut map, &vocab, &observation_at(&ds, &mut tracker, 0));
        assert!(r1.ba.is_none());
        let r2 = mapper.insert_keyframe(&mut map, &vocab, &observation_at(&ds, &mut tracker, 3));
        let ba = r2.ba.expect("BA should run on the 2nd insertion");
        assert!(ba.n_keyframes >= 1);
        assert!(ba.n_points > 0);
        // BA must not blow up the map: final cost bounded by initial
        // (gt-posed keyframes start essentially optimal).
        assert!(ba.final_cost <= ba.initial_cost * 1.5 + 1.0);
    }
}
