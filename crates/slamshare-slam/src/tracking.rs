//! Per-frame tracking: the latency-critical path of the whole system.
//!
//! Mirrors ORB-SLAM3's tracking thread and instruments exactly the stages
//! the paper's Fig. 5/Fig. 8 break down:
//!
//! 1. **ORB-Extraction** — pyramid + FAST + descriptors (CPU or simulated
//!    GPU via `slamshare-gpu`), >50 % of CPU tracking time;
//! 2. **ORB-Matching** — stereo left↔right matching (stereo mode, and
//!    only for a frame that inserts a keyframe; see below);
//! 3. **Pose Prediction** — constant-velocity motion model, or an
//!    IMU/externally supplied hint;
//! 4. **Search Local Points** — project local map points, windowed
//!    descriptor search (~30 % of CPU tracking time; the second GPU
//!    kernel);
//! 5. **Pose Optimization** — robust Gauss–Newton on the 3D→2D matches.
//!
//! Stages 1–2 read neither the map nor the motion model; stages 3–5 read
//! both but cost a tenth as much. The tracker therefore runs in two
//! halves: [`Tracker::extract_left`] (1 on the left eye, the map-free
//! *front half*, once per frame) produces a [`FrontEnd`], and
//! [`Tracker::track_extracted`] (3–5, the map-bound *back half*) turns it
//! into a [`Tracked`] pose. The server runs the front half outside every
//! map lock and redoes only the back half when a speculative track went
//! stale; [`Tracker::track`] is the composition of the two.
//!
//! The back half reads left keypoints only and optimises a monocular
//! reprojection error, so nothing reads stereo depth but the mapper's
//! point creation. The right eye is therefore a second step,
//! [`Tracker::extract_right`] (1 on the right eye, then 2), taken only for
//! a frame whose track requests a keyframe, before it is inserted, and at
//! most once per frame; [`Tracker::extract_frame`] takes both steps at
//! once for a frame that is seeded as a keyframe. Each eye runs on all of
//! the executor's lanes, one after the other.

use crate::ids::{KeyFrameId, MapPointId};
use crate::map::MapRead;
use crate::optimize::{optimize_pose, PoseObservation};
use slamshare_features::extractor::{ExtractedFeatures, OrbExtractor};
use slamshare_features::matching::{self, ProjectionQuery, TH_LOW};
use slamshare_features::{Descriptor, GrayImage, KeyPoint};
use slamshare_gpu::{kernels, GpuExecutor, KernelStats};
use slamshare_math::{Vec2, Vec3, SE3};
use slamshare_sim::camera::StereoRig;
use std::sync::Arc;
use std::time::Instant;

/// Camera sensor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorMode {
    Mono,
    Stereo,
}

/// Projection-search window radius at octave 0, pixels.
const SEARCH_RADIUS_PX: f64 = 14.0;
/// Below this many pose-optimization inliers the frame counts as lost.
const MIN_MATCHES: usize = 15;
/// Request a keyframe when tracked points fall under this fraction of the
/// reference keyframe's count.
const KF_MATCH_RATIO: f64 = 0.6;
/// Never insert keyframes closer than this many frames apart.
const KF_MIN_INTERVAL: usize = 3;
/// Always insert a keyframe after this many frames.
const KF_MAX_INTERVAL: usize = 20;

/// Tracker tuning parameters.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    pub mode: SensorMode,
    pub rig: StereoRig,
}

impl TrackerConfig {
    pub fn mono(rig: StereoRig) -> TrackerConfig {
        TrackerConfig {
            mode: SensorMode::Mono,
            rig,
        }
    }

    pub fn stereo(rig: StereoRig) -> TrackerConfig {
        TrackerConfig {
            mode: SensorMode::Stereo,
            ..TrackerConfig::mono(rig)
        }
    }
}

/// Wall-clock stage timings for one tracked frame, milliseconds — the
/// rows of the paper's Fig. 5 / Fig. 8 breakdown — plus what the two
/// kernel stages ran, for callers that cost them on a modeled device
/// ([`StageTimings::with_kernels_costed`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    pub orb_extract_ms: f64,
    pub orb_match_ms: f64,
    pub pose_predict_ms: f64,
    pub search_local_ms: f64,
    pub optimize_ms: f64,
    /// The extraction kernels of the eyes that ran: the left, plus the
    /// right on a keyframe.
    pub extract: KernelStats,
    /// The search-local-points kernel and its host-side conflict pass.
    pub search: KernelStats,
}

impl StageTimings {
    pub fn total_ms(&self) -> f64 {
        self.orb_extract_ms
            + self.orb_match_ms
            + self.pose_predict_ms
            + self.search_local_ms
            + self.optimize_ms
    }

    pub fn accumulate(&mut self, o: &StageTimings) {
        self.orb_extract_ms += o.orb_extract_ms;
        self.orb_match_ms += o.orb_match_ms;
        self.pose_predict_ms += o.pose_predict_ms;
        self.search_local_ms += o.search_local_ms;
        self.optimize_ms += o.optimize_ms;
        self.extract.accumulate(o.extract);
        self.search.accumulate(o.search);
    }

    /// These timings with each kernel's wall share replaced by
    /// `cost(stats)`: the extraction stage, which is its kernels, whole;
    /// of the search stage, the kernel call but not the candidate
    /// gathering before it. The other stages keep their wall time.
    pub fn with_kernels_costed(&self, cost: impl Fn(&KernelStats) -> f64) -> StageTimings {
        StageTimings {
            orb_extract_ms: cost(&self.extract),
            search_local_ms: self.search_local_ms - self.search.wall_ms() + cost(&self.search),
            ..*self
        }
    }
}

/// Everything tracking produced for one frame.
#[derive(Debug, Clone)]
pub struct FrameObservation {
    pub frame_idx: usize,
    pub timestamp: f64,
    pub pose_cw: SE3,
    pub keypoints: Vec<KeyPoint>,
    pub descriptors: Vec<Descriptor>,
    /// Map point each keypoint was matched to during tracking.
    pub matched: Vec<Option<MapPointId>>,
    /// Pose-optimization inliers.
    pub n_tracked: usize,
    pub lost: bool,
    pub keyframe_requested: bool,
    pub timings: StageTimings,
}

/// The map-free front half of one frame ([`Tracker::extract_left`]):
/// left-image features, with stereo depth filled in once
/// [`Tracker::extract_right`] has run, plus what the stages cost. Depends
/// only on the images, so any number of [`Tracker::track_extracted`]
/// calls may share one.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    pub features: ExtractedFeatures,
    /// Wall time of the extraction: the left eye's, plus the right eye's
    /// once it ran.
    pub extract_ms: f64,
    /// What the extraction kernels ran, accumulated over the eyes that
    /// ran.
    pub extract: KernelStats,
    /// Wall time of the stereo match alone (0 until the right eye ran,
    /// and in mono).
    pub stereo_match_ms: f64,
    /// [`Tracker::extract_right`] has run on this frame.
    right_ran: bool,
}

impl FrontEnd {
    /// Whether the right eye has been extracted and matched into these
    /// features.
    pub fn right_ran(&self) -> bool {
        self.right_ran
    }

    /// `timings` with the front-half stages replaced by this front end's
    /// as they stand now: a track's timings made whole after the right
    /// eye ran behind it.
    pub fn timings_with(&self, timings: StageTimings) -> StageTimings {
        StageTimings {
            orb_extract_ms: self.extract_ms,
            orb_match_ms: self.stereo_match_ms,
            extract: self.extract,
            ..timings
        }
    }

    /// The observation of a frame placed at a known pose with nothing
    /// tracked yet and a keyframe requested — what bootstrap feeds the
    /// mapper before there is a map to track against.
    pub fn into_seed_observation(
        self,
        frame_idx: usize,
        timestamp: f64,
        pose_cw: SE3,
    ) -> FrameObservation {
        let tracked = Tracked {
            frame_idx,
            timestamp,
            pose_cw,
            matched: vec![None; self.features.keypoints.len()],
            n_tracked: 0,
            lost: false,
            keyframe_requested: true,
            timings: self.timings_with(StageTimings::default()),
        };
        self.into_observation(tracked)
    }

    /// The frame's observation once `tracked` is final: the features move
    /// in, nothing is copied, and the timings include a right eye that
    /// ran after the track.
    pub fn into_observation(self, tracked: Tracked) -> FrameObservation {
        let timings = self.timings_with(tracked.timings);
        FrameObservation {
            frame_idx: tracked.frame_idx,
            timestamp: tracked.timestamp,
            pose_cw: tracked.pose_cw,
            keypoints: self.features.keypoints,
            descriptors: self.features.descriptors,
            matched: tracked.matched,
            n_tracked: tracked.n_tracked,
            lost: tracked.lost,
            keyframe_requested: tracked.keyframe_requested,
            timings,
        }
    }
}

/// The map-bound back half's result for one [`FrontEnd`]
/// ([`Tracker::track_extracted`]): a [`FrameObservation`] minus the
/// features.
#[derive(Debug, Clone)]
pub struct Tracked {
    pub frame_idx: usize,
    pub timestamp: f64,
    pub pose_cw: SE3,
    /// Map point each of the front end's keypoints was matched to.
    pub matched: Vec<Option<MapPointId>>,
    /// Pose-optimization inliers.
    pub n_tracked: usize,
    pub lost: bool,
    pub keyframe_requested: bool,
    /// All five stages: the front end's two as they stood when tracked,
    /// plus this back half's three.
    pub timings: StageTimings,
}

/// The inter-frame state [`Tracker::track_extracted`] carries between
/// calls (see [`Tracker::motion_state`]).
#[derive(Debug, Clone, Copy)]
pub struct MotionState {
    last_pose: Option<SE3>,
    velocity: SE3,
    frames_since_kf: usize,
    ref_matches: usize,
    consecutive_lost: usize,
}

/// The tracking front end for one camera stream.
pub struct Tracker {
    pub config: TrackerConfig,
    /// One extractor for both eyes, one after the other.
    pub extractor: OrbExtractor,
    /// Kernel executor; `GpuExecutor::cpu()` gives the sequential paper
    /// baseline, `GpuExecutor::v100()` the accelerated path.
    pub exec: Arc<GpuExecutor>,
    last_pose: Option<SE3>,
    /// Constant-velocity model: `T_cw(i) ≈ velocity ∘ T_cw(i−1)`.
    velocity: SE3,
    frames_since_kf: usize,
    /// Matched-point count of the last keyframe (reference for the KF
    /// decision).
    ref_matches: usize,
    /// Frames in a row that came back lost — the tracking-lost state the
    /// recovery path (relocalization) keys off.
    consecutive_lost: usize,
    /// Reusable buffers for the batched stereo matcher (row buckets, SoA
    /// descriptor block) — zero allocations per frame once warm.
    stereo_scratch: parking_lot::Mutex<matching::StereoScratch>,
    /// The current frame's keypoint grid for *search local points*,
    /// rebuilt in place by every [`Tracker::track_extracted`].
    search_grid: matching::KeypointGrid,
}

impl Tracker {
    pub fn new(config: TrackerConfig, exec: Arc<GpuExecutor>) -> Tracker {
        Tracker {
            config,
            extractor: OrbExtractor::with_defaults(),
            exec,
            last_pose: None,
            velocity: SE3::IDENTITY,
            frames_since_kf: 0,
            ref_matches: 0,
            consecutive_lost: 0,
            stereo_scratch: parking_lot::Mutex::new(matching::StereoScratch::default()),
            search_grid: matching::KeypointGrid::default(),
        }
    }

    /// Reset motion state (e.g. after relocalization or merge).
    pub fn reset_motion(&mut self, pose: SE3) {
        self.last_pose = Some(pose);
        self.velocity = SE3::IDENTITY;
        self.consecutive_lost = 0;
    }

    /// Discard the motion model entirely — the stream skipped frames (a
    /// decode fault dropped them) so the constant-velocity prediction is
    /// no longer anchored to the previous frame. Tracking then needs an
    /// external hint (relocalization) to recover.
    pub fn invalidate_motion(&mut self) {
        self.last_pose = None;
        self.velocity = SE3::IDENTITY;
    }

    /// How many frames in a row tracking has been lost (0 while healthy).
    pub fn consecutive_lost(&self) -> usize {
        self.consecutive_lost
    }

    /// Snapshot the frame-to-frame state that
    /// [`Tracker::track_extracted`] mutates. The server's speculative
    /// round pipeline saves this before a parallel track and restores it
    /// when a frame must be re-tracked against a map that changed
    /// mid-round, so the redo is bit-identical to having tracked once at
    /// the right time.
    pub fn motion_state(&self) -> MotionState {
        MotionState {
            last_pose: self.last_pose,
            velocity: self.velocity,
            frames_since_kf: self.frames_since_kf,
            ref_matches: self.ref_matches,
            consecutive_lost: self.consecutive_lost,
        }
    }

    /// Restore state captured by [`Tracker::motion_state`].
    pub fn restore_motion_state(&mut self, state: MotionState) {
        self.last_pose = state.last_pose;
        self.velocity = state.velocity;
        self.frames_since_kf = state.frames_since_kf;
        self.ref_matches = state.ref_matches;
        self.consecutive_lost = state.consecutive_lost;
    }

    /// Record that a keyframe was inserted with `n_matched` tracked points.
    pub fn note_keyframe(&mut self, n_matched: usize) {
        self.frames_since_kf = 0;
        self.ref_matches = n_matched;
    }

    /// Extract features on the tracker's executor, with what the kernels
    /// ran. Exposed so the bootstrap path can reuse it.
    pub fn extract(&self, image: &GrayImage) -> (ExtractedFeatures, KernelStats) {
        kernels::gpu_extract(&self.exec, &self.extractor, image)
    }

    /// Stereo-match left features against right-image features, filling
    /// `right_x`/`depth` on the left keypoints. Returns the match count.
    ///
    /// Delegates to the batched row-bucketed matcher, which is bit-identical
    /// to the original O(left × right) scalar scan (see
    /// [`matching::stereo_match_rectified`]).
    pub fn stereo_match(&self, left: &mut ExtractedFeatures, right: &ExtractedFeatures) -> usize {
        let max_disparity = self.config.rig.disparity(0.3); // nothing closer than 30 cm
        matching::stereo_match_rectified(
            &mut left.keypoints,
            &left.descriptors,
            &right.keypoints,
            &right.descriptors,
            max_disparity,
            |d| self.config.rig.depth_from_disparity(d),
            &mut self.stereo_scratch.lock(),
        )
    }

    /// The map-free front half: ORB extraction on the left eye, on all of
    /// the executor's lanes. Reads neither the map nor the motion state,
    /// so it needs no map lock and its result survives any number of
    /// re-tracks.
    pub fn extract_left(&self, left: &GrayImage) -> FrontEnd {
        let t0 = Instant::now();
        let (features, extract) = self.extract(left);
        let extract_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Once per frame, however often the back half is redone.
        slamshare_obs::observe_ms!("track.extract", extract_ms);
        FrontEnd {
            features,
            extract_ms,
            extract,
            stereo_match_ms: 0.0,
            right_ran: false,
        }
    }

    /// The front half's second step, for a frame that inserts a keyframe:
    /// extract the right eye on all of the executor's lanes, after the
    /// left, and stereo-match it into the left keypoints' `right_x` /
    /// `depth`, adding both stages' cost to `front_end`. Runs at most once
    /// per front end; a repeat call, or any call in mono, does nothing.
    /// The back half reads no depth, so a track before and after this
    /// step is the same.
    pub fn extract_right(&self, front_end: &mut FrontEnd, right: &GrayImage) {
        if front_end.right_ran || self.config.mode != SensorMode::Stereo {
            return;
        }
        front_end.right_ran = true;
        let t0 = Instant::now();
        let (right_features, extract) = self.extract(right);
        let extract_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        self.stereo_match(&mut front_end.features, &right_features);
        let stereo_match_ms = t1.elapsed().as_secs_f64() * 1e3;
        front_end.extract_ms += extract_ms;
        front_end.extract.accumulate(extract);
        front_end.stereo_match_ms = stereo_match_ms;
        slamshare_obs::observe_ms!("track.extract_right", extract_ms);
        slamshare_obs::observe_ms!("track.stereo_match", stereo_match_ms);
    }

    /// The front half of a frame that inserts a keyframe, both steps at
    /// once: [`Tracker::extract_left`], then [`Tracker::extract_right`]
    /// when a right image is given. What bootstrap and seeded keyframes
    /// use.
    pub fn extract_frame(&self, left: &GrayImage, right: Option<&GrayImage>) -> FrontEnd {
        let mut front_end = self.extract_left(left);
        if let Some(right) = right {
            self.extract_right(&mut front_end, right);
        }
        front_end
    }

    /// Track one frame against `map`: [`Tracker::extract_left`], then
    /// [`Tracker::track_extracted`], then — only when the track requests a
    /// keyframe — [`Tracker::extract_right`].
    #[allow(clippy::too_many_arguments)]
    pub fn track(
        &mut self,
        frame_idx: usize,
        timestamp: f64,
        left: &GrayImage,
        right: Option<&GrayImage>,
        map: &impl MapRead,
        ref_kf: Option<KeyFrameId>,
        pose_hint: Option<SE3>,
    ) -> FrameObservation {
        let mut front_end = self.extract_left(left);
        let tracked =
            self.track_extracted(&front_end, frame_idx, timestamp, map, ref_kf, pose_hint);
        if let Some(right) = right.filter(|_| tracked.keyframe_requested) {
            self.extract_right(&mut front_end, right);
        }
        front_end.into_observation(tracked)
    }

    /// The map-bound back half: predict, search local points, optimize,
    /// then update the motion model and decide on a keyframe. `ref_kf`
    /// selects the local-map neighbourhood (defaults to the newest
    /// keyframe). `pose_hint` overrides the constant-velocity prediction
    /// (the IMU-assisted path). With the motion state restored
    /// ([`Tracker::restore_motion_state`]) a repeat call on the same
    /// `front_end` and map is bit-identical.
    pub fn track_extracted(
        &mut self,
        front_end: &FrontEnd,
        frame_idx: usize,
        timestamp: f64,
        map: &impl MapRead,
        ref_kf: Option<KeyFrameId>,
        pose_hint: Option<SE3>,
    ) -> Tracked {
        let features = &front_end.features;
        let mut timings = front_end.timings_with(StageTimings::default());

        // 3. Pose prediction.
        let t0 = Instant::now();
        let predicted = pose_hint.unwrap_or_else(|| match self.last_pose {
            Some(last) => self.velocity * last,
            None => SE3::IDENTITY,
        });
        timings.pose_predict_ms = t0.elapsed().as_secs_f64() * 1e3;

        // 4. Search local points.
        let t1 = Instant::now();
        let cam = &self.config.rig.cam;
        let ref_kf = ref_kf.or_else(|| map.latest_keyframe().map(|kf| kf.id));
        let local_points: Vec<MapPointId> = match ref_kf {
            Some(r) => map.local_map_points(r, 5),
            None => Vec::new(),
        };
        // One lookup per point: the query, and next to it what the
        // observations below need of the point.
        let mut queries: Vec<ProjectionQuery> = Vec::with_capacity(local_points.len());
        let mut query_points: Vec<(MapPointId, Vec3)> = Vec::with_capacity(local_points.len());
        for mp_id in local_points {
            let Some(mp) = map.mappoint(mp_id) else {
                continue;
            };
            let q = predicted.transform(mp.position);
            let Some(px) = cam.project_in_image(q, -SEARCH_RADIUS_PX) else {
                continue;
            };
            queries.push(ProjectionQuery {
                descriptor: mp.descriptor,
                predicted: Vec2::new(px.x, px.y),
                radius: SEARCH_RADIUS_PX,
            });
            query_points.push((mp_id, mp.position));
        }
        self.search_grid
            .rebuild(features.keypoints.iter().map(|k| k.pt));
        let (matches, search) = kernels::gpu_search_local_points_in(
            &self.exec,
            &queries,
            &self.search_grid,
            &features.descriptors,
            TH_LOW,
        );
        timings.search_local_ms = t1.elapsed().as_secs_f64() * 1e3;
        timings.search = search;

        // 5. Pose optimization.
        let t2 = Instant::now();
        let mut matched: Vec<Option<MapPointId>> = vec![None; features.keypoints.len()];
        let mut obs = Vec::with_capacity(matches.len());
        let mut obs_kp: Vec<usize> = Vec::with_capacity(matches.len());
        for m in &matches {
            let (mp_id, point) = query_points[m.query];
            let kp = &features.keypoints[m.train];
            obs.push(PoseObservation {
                point,
                pixel: kp.pt,
                sigma: 1.2f64.powi(kp.octave as i32),
            });
            obs_kp.push(m.train);
            matched[m.train] = Some(mp_id);
        }
        let (pose, n_tracked, lost) = if obs.len() >= MIN_MATCHES {
            let (optimized, n_inliers) = optimize_pose(cam, predicted, &obs, 10);
            // Clear outlier associations.
            for (o, &kp) in obs.iter().zip(&obs_kp) {
                if !o.is_inlier(cam, optimized) {
                    matched[kp] = None;
                }
            }
            let lost = n_inliers < MIN_MATCHES;
            (if lost { predicted } else { optimized }, n_inliers, lost)
        } else {
            (predicted, obs.len(), true)
        };
        timings.optimize_ms = t2.elapsed().as_secs_f64() * 1e3;

        // Motion model update.
        if let Some(last) = self.last_pose {
            if !lost {
                self.velocity = pose * last.inverse();
            }
        }
        self.last_pose = Some(pose);
        self.frames_since_kf += 1;
        self.consecutive_lost = if lost { self.consecutive_lost + 1 } else { 0 };

        // Keyframe decision.
        let keyframe_requested = !lost
            && self.frames_since_kf >= KF_MIN_INTERVAL
            && (self.frames_since_kf >= KF_MAX_INTERVAL
                || (self.ref_matches > 0
                    && (n_tracked as f64) < KF_MATCH_RATIO * self.ref_matches as f64)
                || self.ref_matches == 0);

        // Fold the already-measured stage times into the observability
        // layer — Fig. 5's per-stage breakdown as live histograms, all on
        // the wall clock.
        slamshare_obs::observe_ms!("track.predict", timings.pose_predict_ms);
        slamshare_obs::observe_ms!("track.search_local_points", timings.search_local_ms);
        slamshare_obs::observe_ms!("track.optimize", timings.optimize_ms);
        if lost {
            slamshare_obs::counter_inc!("track.lost");
        }

        Tracked {
            frame_idx,
            timestamp,
            pose_cw: pose,
            matched,
            n_tracked,
            lost,
            keyframe_requested,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::map::{KeyFrame, Map, MapWrite};
    use slamshare_features::bow::BowVector;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
    use slamshare_sim::imu::ImuNoise;

    /// Build a map seeded from ground truth for frame 0 of a dataset, then
    /// track frame 1 against it — tracking should recover a pose close to
    /// the ground truth of frame 1.
    fn seeded_map_and_dataset() -> (Map, Dataset, Tracker) {
        seeded_map_and_dataset_with(1)
    }

    fn seeded_map_and_dataset_with(seed: u64) -> (Map, Dataset, Tracker) {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(4)
                .with_seed(seed),
        );
        let mut tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));

        // Frame 0 at ground truth, map points from stereo depth.
        let (left, right) = ds.render_stereo_frame(0);
        let features = tracker.extract_frame(&left, Some(&right)).features;

        let mut map = Map::new(ClientId(1));
        let pose0 = ds.gt_pose_cw(0);
        let kf_id = map.alloc.next_keyframe();
        let n = features.keypoints.len();
        map.insert_keyframe(KeyFrame {
            id: kf_id,
            pose_cw: pose0,
            timestamp: 0.0,
            keypoints: features.keypoints.clone(),
            descriptors: features.descriptors.clone(),
            matched_points: vec![None; n],
            bow: BowVector::default(),
        });
        let mut created = 0;
        for (i, kp) in features.keypoints.iter().enumerate() {
            if kp.has_stereo() {
                if let Some(p) =
                    crate::triangulate::stereo_point(&ds.rig, &pose0, kp.pt, kp.right_x)
                {
                    map.create_mappoint(p, features.descriptors[i], kf_id, i);
                    created += 1;
                }
            }
        }
        assert!(created > 100, "only {created} stereo points");
        tracker.reset_motion(pose0);
        tracker.note_keyframe(created);
        (map, ds, tracker)
    }

    #[test]
    fn tracks_next_frame_close_to_ground_truth() {
        let (map, ds, mut tracker) = seeded_map_and_dataset();
        let (left, right) = ds.render_stereo_frame(1);
        let obs = tracker.track(1, ds.frame_time(1), &left, Some(&right), &map, None, None);
        assert!(!obs.lost, "tracking lost with {} matches", obs.n_tracked);
        assert!(obs.n_tracked > 50, "only {} inliers", obs.n_tracked);
        let gt = ds.gt_pose_cw(1);
        let err = obs.pose_cw.center_distance(&gt);
        assert!(err < 0.05, "pose error {err} m");
        assert!(obs.timings.total_ms() > 0.0);
    }

    fn test_seed() -> u64 {
        std::env::var("SLAMSHARE_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1)
    }

    /// Everything a frame's result carries except wall-clock timings; the
    /// pose as bits.
    fn bits(obs: &FrameObservation) -> impl PartialEq + std::fmt::Debug + '_ {
        let SE3 { rot, trans } = obs.pose_cw;
        let pose_bits = [rot.w, rot.x, rot.y, rot.z, trans.x, trans.y, trans.z].map(f64::to_bits);
        (
            (obs.frame_idx, obs.timestamp.to_bits(), pose_bits),
            (&obs.keypoints, &obs.descriptors, &obs.matched),
            (obs.n_tracked, obs.lost, obs.keyframe_requested),
        )
    }

    #[test]
    fn track_is_the_composition_of_its_two_halves() {
        let (map, ds, mut whole) = seeded_map_and_dataset_with(test_seed());
        let mut halves = Tracker::new(whole.config.clone(), whole.exec.clone());
        halves.restore_motion_state(whole.motion_state());
        for i in 1..4 {
            let (left, right) = ds.render_stereo_frame(i);
            let t = ds.frame_time(i);
            let want = whole.track(i, t, &left, Some(&right), &map, None, None);
            let mut front_end = halves.extract_left(&left);
            let tracked = halves.track_extracted(&front_end, i, t, &map, None, None);
            if tracked.keyframe_requested {
                halves.extract_right(&mut front_end, &right);
            }
            let got = front_end.into_observation(tracked);
            assert!(!want.lost, "frame {i} lost — comparison is vacuous");
            assert_eq!(bits(&got), bits(&want), "frame {i}");
        }
    }

    #[test]
    fn retrack_on_one_front_end_is_bit_identical_to_tracking_once() {
        let (map, ds, mut once) = seeded_map_and_dataset_with(test_seed());
        let mut twice = Tracker::new(once.config.clone(), once.exec.clone());
        twice.restore_motion_state(once.motion_state());
        for i in 1..4 {
            let (left, right) = ds.render_stereo_frame(i);
            let t = ds.frame_time(i);
            let front_end = once.extract_left(&left);
            let want = once.track_extracted(&front_end, i, t, &map, None, None);

            // The server's redo: speculative track, rewind, track again —
            // here against an emptied map in between, so the rewind has
            // real state (lost counter, velocity) to undo — with the right
            // eye run in between, as a speculative keyframe request does:
            // the back half reads no depth.
            let mut front_end = twice.extract_left(&left);
            let pre_track = twice.motion_state();
            let stale = twice.track_extracted(&front_end, i, t, &Map::new(ClientId(1)), None, None);
            assert!(stale.lost);
            twice.extract_right(&mut front_end, &right);
            assert!(front_end.features.keypoints.iter().any(|k| k.has_stereo()));
            twice.restore_motion_state(pre_track);
            let got = twice.track_extracted(&front_end, i, t, &map, None, None);

            assert!(!want.lost, "frame {i} lost — comparison is vacuous");
            let got = front_end.clone().into_observation(got);
            let want = front_end.into_observation(want);
            assert_eq!(bits(&got), bits(&want), "frame {i}");
        }
        // The motion models ended in the same state, too.
        assert_eq!(
            format!("{:?}", twice.motion_state()),
            format!("{:?}", once.motion_state())
        );
    }

    /// The lazy keyframe path — the left front half on two lanes, then the
    /// right-eye step — gives the eager oracle's features bit for bit:
    /// each eye extracted alone, then the stereo match.
    #[test]
    fn lazy_right_eye_matches_eager_extraction_bit_for_bit() {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(4)
                .with_seed(test_seed()),
        );
        let oracle = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let lazy = Tracker::new(
            TrackerConfig::stereo(ds.rig),
            Arc::new(GpuExecutor::cpu_with_workers(2)),
        );
        let stereo_bits = |f: &ExtractedFeatures| -> Vec<(u64, u64)> {
            f.keypoints
                .iter()
                .map(|k| (k.right_x.to_bits(), k.depth.to_bits()))
                .collect()
        };
        for i in 0..4 {
            let (left, right) = ds.render_stereo_frame(i);
            let (mut want, _) = oracle.extract(&left);
            let (want_right, _) = oracle.extract(&right);
            assert!(oracle.stereo_match(&mut want, &want_right) > 0);

            let mut front_end = lazy.extract_left(&left);
            assert!(!front_end.right_ran());
            assert!(
                !front_end.features.keypoints.iter().any(|k| k.has_stereo()),
                "frame {i}: stereo depth before the right eye ran"
            );
            assert_eq!(front_end.stereo_match_ms, 0.0);
            assert_eq!(front_end.extract.launches, 2);
            lazy.extract_right(&mut front_end, &right);
            assert!(front_end.right_ran());
            assert_eq!(front_end.extract.launches, 4);
            // A second call is a no-op.
            let before = stereo_bits(&front_end.features);
            lazy.extract_right(&mut front_end, &right);
            assert_eq!(front_end.extract.launches, 4);
            assert_eq!(stereo_bits(&front_end.features), before);

            let got = &front_end.features;
            assert_eq!(got.keypoints, want.keypoints, "frame {i}");
            assert_eq!(stereo_bits(got), stereo_bits(&want), "frame {i}");
            assert_eq!(got.descriptors, want.descriptors, "frame {i}");
        }
    }

    #[test]
    fn empty_map_reports_lost() {
        let ds = Dataset::build(DatasetConfig::new(TracePreset::V202).with_frames(2));
        let mut tracker = Tracker::new(TrackerConfig::mono(ds.rig), Arc::new(GpuExecutor::cpu()));
        let img = ds.render_frame(0);
        let map = Map::new(ClientId(1));
        let obs = tracker.track(0, 0.0, &img, None, &map, None, None);
        assert!(obs.lost);
        assert_eq!(obs.n_tracked, 0);
    }

    #[test]
    fn consecutive_lost_counts_and_resets() {
        let ds = Dataset::build(DatasetConfig::new(TracePreset::V202).with_frames(3));
        let mut tracker = Tracker::new(TrackerConfig::mono(ds.rig), Arc::new(GpuExecutor::cpu()));
        let img = ds.render_frame(0);
        let empty = Map::new(ClientId(1));
        assert_eq!(tracker.consecutive_lost(), 0);
        for i in 0..2 {
            let obs = tracker.track(i, 0.0, &img, None, &empty, None, None);
            assert!(obs.lost);
            assert_eq!(tracker.consecutive_lost(), i + 1);
        }
        // The counter travels through the snapshot/restore used by the
        // speculative round pipeline…
        let snap = tracker.motion_state();
        tracker.reset_motion(SE3::IDENTITY);
        assert_eq!(tracker.consecutive_lost(), 0);
        tracker.restore_motion_state(snap);
        assert_eq!(tracker.consecutive_lost(), 2);
        // …and a successful track clears it.
        let (map, ds2, mut healthy) = seeded_map_and_dataset();
        let state = healthy.motion_state();
        healthy.restore_motion_state(state);
        let (left, right) = ds2.render_stereo_frame(1);
        let obs = healthy.track(1, ds2.frame_time(1), &left, Some(&right), &map, None, None);
        assert!(!obs.lost);
        assert_eq!(healthy.consecutive_lost(), 0);
    }

    #[test]
    fn pose_hint_overrides_motion_model() {
        let (map, ds, mut tracker) = seeded_map_and_dataset();
        let (left, right) = ds.render_stereo_frame(1);
        // A hint close to the truth should work even though the motion
        // model was reset to a bogus pose.
        tracker.reset_motion(SE3::IDENTITY);
        let hint = ds.gt_pose_cw(1);
        let obs = tracker.track(
            1,
            ds.frame_time(1),
            &left,
            Some(&right),
            &map,
            None,
            Some(hint),
        );
        assert!(!obs.lost);
        assert!(obs.pose_cw.center_distance(&hint) < 0.05);
    }

    #[test]
    fn stereo_matching_recovers_true_depth() {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(1)
                .with_seed(2),
        );
        let tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let (left, right) = ds.render_stereo_frame(0);
        let (mut features, _) = tracker.extract(&left);
        let (rf, _) = tracker.extract(&right);
        let n = tracker.stereo_match(&mut features, &rf);
        assert!(n > 80, "only {n} stereo matches");
        // Verify recovered depths against the true geometry: unproject and
        // check the point lies near a landmark patch plane (within its
        // half-size plus triangulation tolerance).
        let pose = ds.gt_pose_cw(0);
        let mut checked = 0;
        let mut ok = 0;
        for kp in features.keypoints.iter().filter(|k| k.has_stereo()) {
            let p = crate::triangulate::stereo_point(&ds.rig, &pose, kp.pt, kp.right_x).unwrap();
            let nearest = ds
                .world
                .landmarks
                .iter()
                .map(|lm| (lm.center - p).norm())
                .fold(f64::INFINITY, f64::min);
            checked += 1;
            // Stereo depth noise is quadratic in range: σ_z ≈ z²σ_d/(f·b),
            // ~1.5 m per pixel of disparity error at z = 8 m on this rig.
            // Allow the patch extent plus 1.5 px of disparity error.
            let sigma_z = kp.depth * kp.depth / (ds.rig.cam.fx * ds.rig.baseline);
            let tol = 0.45 + 1.5 * sigma_z;
            if nearest < tol {
                ok += 1;
            }
        }
        assert!(checked > 50);
        assert!(
            ok * 10 >= checked * 8,
            "only {ok}/{checked} stereo points within range-adaptive tolerance"
        );
    }

    #[test]
    fn keyframe_requested_after_max_interval() {
        let (map, ds, mut tracker) = seeded_map_and_dataset();
        // A one-point reference: the match-ratio trigger never fires, so
        // only the interval can request a keyframe.
        tracker.note_keyframe(1);
        let (left, right) = ds.render_stereo_frame(1);
        let front_end = tracker.extract_frame(&left, Some(&right));
        for n in 1..=KF_MAX_INTERVAL {
            let t = tracker.track_extracted(
                &front_end,
                n,
                ds.frame_time(1),
                &map,
                None,
                Some(ds.gt_pose_cw(1)),
            );
            assert!(!t.lost, "frame {n} lost");
            assert_eq!(t.keyframe_requested, n == KF_MAX_INTERVAL, "frame {n}");
        }
    }

    #[test]
    fn gpu_tracking_matches_cpu_pose() {
        let (map, ds, mut cpu_tracker) = seeded_map_and_dataset();
        let mut gpu_tracker =
            Tracker::new(cpu_tracker.config.clone(), Arc::new(GpuExecutor::v100()));
        gpu_tracker.reset_motion(ds.gt_pose_cw(0));
        gpu_tracker.note_keyframe(cpu_tracker.ref_matches);

        let (left, right) = ds.render_stereo_frame(1);
        let a = cpu_tracker.track(1, ds.frame_time(1), &left, Some(&right), &map, None, None);
        let b = gpu_tracker.track(1, ds.frame_time(1), &left, Some(&right), &map, None, None);
        assert!(!a.lost && !b.lost);
        assert!(
            a.pose_cw.center_distance(&b.pose_cw) < 1e-9,
            "device changed the answer"
        );
        assert_eq!(a.n_tracked, b.n_tracked);
    }

    #[test]
    fn gpu_stereo_match_timing_is_wall_time_of_the_match_alone() {
        // On a simulated-GPU executor `orb_match_ms` must be the wall
        // time of the stereo match alone, not right-image extraction
        // booked under the wrong stage.
        let (_, ds, cpu_tracker) = seeded_map_and_dataset();
        let tracker = Tracker::new(cpu_tracker.config.clone(), Arc::new(GpuExecutor::v100()));
        let (left, right) = ds.render_stereo_frame(1);
        let (left_features, _) = tracker.extract(&left);
        let (right_features, _) = tracker.extract(&right);
        let direct_ms = (0..3)
            .map(|_| {
                let mut features = left_features.clone();
                let t0 = Instant::now();
                tracker.stereo_match(&mut features, &right_features);
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(0.0, f64::max);
        // A keyframe's front half, where the right eye and the match run.
        let obs = tracker
            .extract_frame(&left, Some(&right))
            .into_seed_observation(1, ds.frame_time(1), ds.gt_pose_cw(1));
        assert!(obs.timings.orb_match_ms > 0.0);
        assert!(
            obs.timings.orb_match_ms <= 10.0 * direct_ms + 5.0,
            "track booked {} ms of stereo matching; the match alone takes {direct_ms} ms",
            obs.timings.orb_match_ms
        );
    }

    #[test]
    fn noisy_imu_dataset_still_tracks() {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(3)
                .with_seed(7),
        );
        // Only exercises construction paths with non-default noise.
        assert!(ds.imu.len() > 10);
        let _ = ImuNoise::default();
    }
}
