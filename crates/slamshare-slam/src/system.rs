//! A complete single-user SLAM system: the "vanilla ORB-SLAM3" of the
//! paper's evaluation, and the per-client building block of both
//! SLAM-Share's server processes and the Edge-SLAM-style baseline.
//!
//! Drives [`tracking`](crate::tracking) + [`mapping`](crate::mapping) over
//! a frame stream, owns the map, and records the estimated per-frame
//! trajectory for ATE evaluation.
//!
//! ## Bootstrap
//!
//! * **Stereo**: metric depth is available immediately — the first frame
//!   becomes a keyframe with stereo-triangulated points.
//! * **Monocular**: two views are needed. The relative pose between the
//!   bootstrap frames comes from the caller-provided hint (ground truth in
//!   tests) or from IMU preintegration when samples are supplied —
//!   standing in for ORB-SLAM3's essential-matrix + inertial initializer,
//!   which is orthogonal to everything the paper evaluates (documented in
//!   DESIGN.md).

use crate::ids::{ClientId, IdAllocator};
use crate::imu::Preintegrated;
use crate::map::Map;
use crate::mapping::{LocalMapper, MappingConfig};
use crate::tracking::{FrameObservation, SensorMode, StageTimings, Tracker, TrackerConfig};
use slamshare_features::bow::Vocabulary;
use slamshare_features::GrayImage;
use slamshare_gpu::GpuExecutor;
use slamshare_math::{Vec3, SE3};
use slamshare_sim::camera::StereoRig;
use slamshare_sim::imu::ImuSample;
use std::sync::Arc;

/// System configuration.
#[derive(Debug, Clone)]
pub struct SlamConfig {
    pub tracker: TrackerConfig,
    pub mapping: MappingConfig,
}

impl SlamConfig {
    pub fn mono(rig: StereoRig) -> SlamConfig {
        SlamConfig {
            tracker: TrackerConfig::mono(rig),
            mapping: MappingConfig::default(),
        }
    }

    pub fn stereo(rig: StereoRig) -> SlamConfig {
        SlamConfig {
            tracker: TrackerConfig::stereo(rig),
            mapping: MappingConfig::default(),
        }
    }
}

/// Input for one frame step.
pub struct FrameInput<'a> {
    pub timestamp: f64,
    pub left: &'a GrayImage,
    pub right: Option<&'a GrayImage>,
    /// IMU samples since the previous frame (may be empty).
    pub imu: &'a [ImuSample],
    /// Optional externally-known pose (bootstrap hint / server pose).
    pub pose_hint: Option<SE3>,
}

/// Result of one frame step.
#[derive(Debug, Clone)]
pub struct StepResult {
    pub frame_idx: usize,
    pub pose_cw: Option<SE3>,
    pub tracked: bool,
    pub keyframe_inserted: bool,
    pub n_matches: usize,
    pub timings: StageTimings,
}

/// Pending monocular bootstrap state.
struct MonoInit {
    frame_idx: usize,
    timestamp: f64,
    obs: FrameObservation,
    pose_hint: Option<SE3>,
}

/// A full single-user SLAM system.
pub struct SlamSystem {
    pub config: SlamConfig,
    pub map: Map,
    pub tracker: Tracker,
    pub mapper: LocalMapper,
    pub vocab: Arc<Vocabulary>,
    /// Estimated per-frame trajectory `(timestamp, camera center)`.
    pub trajectory: Vec<(f64, Vec3)>,
    /// Per-frame poses (world→camera) for downstream consumers.
    pub frame_poses: Vec<(f64, SE3)>,
    frame_count: usize,
    mono_init: Option<MonoInit>,
    /// Accumulated IMU rotation state for mono bootstrap.
    imu_buffer: Vec<ImuSample>,
    bootstrapped: bool,
    /// Where the map's id space starts: a fresh allocator, or the one
    /// given to [`SlamSystem::continue_ids`]. A failed bootstrap restarts
    /// the map from here.
    id_seed: IdAllocator,
}

impl SlamSystem {
    pub fn new(
        client: ClientId,
        config: SlamConfig,
        vocab: Arc<Vocabulary>,
        exec: Arc<GpuExecutor>,
    ) -> SlamSystem {
        let tracker = Tracker::new(config.tracker.clone(), exec);
        let mapper = LocalMapper::new(
            config.tracker.mode,
            config.tracker.rig,
            config.mapping.clone(),
        );
        SlamSystem {
            config,
            map: Map::new(client),
            tracker,
            mapper,
            vocab,
            trajectory: Vec::new(),
            frame_poses: Vec::new(),
            frame_count: 0,
            mono_init: None,
            imu_buffer: Vec::new(),
            bootstrapped: false,
            id_seed: IdAllocator::new(client),
        }
    }

    /// Continue the id space `alloc` has reached instead of starting at
    /// 0: a client that rejoins a server whose global map still holds
    /// its earlier keyframes and map points must not reuse their ids.
    /// Call before the first frame.
    pub fn continue_ids(&mut self, alloc: IdAllocator) {
        self.map.alloc = alloc.clone();
        self.id_seed = alloc;
    }

    /// An empty map whose allocator starts at the id seed.
    fn fresh_map(&self) -> Map {
        Map {
            alloc: self.id_seed.clone(),
            ..Map::default()
        }
    }

    pub fn is_bootstrapped(&self) -> bool {
        self.bootstrapped
    }

    pub fn frames_processed(&self) -> usize {
        self.frame_count
    }

    /// Process one frame through tracking (+ mapping when a keyframe is
    /// requested).
    pub fn process_frame(&mut self, input: FrameInput<'_>) -> StepResult {
        let idx = self.frame_count;
        self.frame_count += 1;
        self.imu_buffer.extend_from_slice(input.imu);

        if !self.bootstrapped {
            return self.bootstrap_step(idx, input);
        }

        let obs = self.tracker.track(
            idx,
            input.timestamp,
            input.left,
            input.right,
            &self.map,
            None,
            input.pose_hint,
        );
        let mut keyframe_inserted = false;
        if !obs.lost && obs.keyframe_requested {
            let report = self
                .mapper
                .insert_keyframe(&mut self.map, &self.vocab, &obs);
            self.tracker
                .note_keyframe(obs.n_tracked + report.n_new_points);
            keyframe_inserted = true;
        }
        if !obs.lost {
            self.trajectory
                .push((input.timestamp, obs.pose_cw.camera_center()));
            self.frame_poses.push((input.timestamp, obs.pose_cw));
        }
        StepResult {
            frame_idx: idx,
            pose_cw: (!obs.lost).then_some(obs.pose_cw),
            tracked: !obs.lost,
            keyframe_inserted,
            n_matches: obs.n_tracked,
            timings: obs.timings,
        }
    }

    fn bootstrap_step(&mut self, idx: usize, input: FrameInput<'_>) -> StepResult {
        match self.config.tracker.mode {
            SensorMode::Stereo => self.bootstrap_stereo(idx, input),
            SensorMode::Mono => self.bootstrap_mono(idx, input),
        }
    }

    /// Stereo bootstrap: one frame suffices.
    fn bootstrap_stereo(&mut self, idx: usize, input: FrameInput<'_>) -> StepResult {
        let pose0 = input.pose_hint.unwrap_or(SE3::IDENTITY);
        let obs = self
            .tracker
            .extract_frame(input.left, input.right)
            .into_seed_observation(idx, input.timestamp, pose0);
        let report = self
            .mapper
            .insert_keyframe(&mut self.map, &self.vocab, &obs);
        let ok = report.n_new_points >= 50;
        if ok {
            self.bootstrapped = true;
            self.tracker.reset_motion(pose0);
            self.tracker.note_keyframe(report.n_new_points);
            self.trajectory
                .push((input.timestamp, pose0.camera_center()));
            self.frame_poses.push((input.timestamp, pose0));
        } else {
            // Not enough structure: drop the keyframe and retry next frame.
            self.map = self.fresh_map();
        }
        StepResult {
            frame_idx: idx,
            pose_cw: ok.then_some(pose0),
            tracked: ok,
            keyframe_inserted: ok,
            n_matches: report.n_new_points,
            timings: obs.timings,
        }
    }

    /// Monocular bootstrap: buffer the first frame; once a later frame has
    /// enough baseline, create two keyframes and triangulate.
    fn bootstrap_mono(&mut self, idx: usize, input: FrameInput<'_>) -> StepResult {
        let obs = self
            .tracker
            .extract_frame(input.left, None)
            .into_seed_observation(idx, input.timestamp, SE3::IDENTITY);
        let timings = obs.timings;

        let Some(init) = &self.mono_init else {
            self.mono_init = Some(MonoInit {
                frame_idx: idx,
                timestamp: input.timestamp,
                obs,
                pose_hint: input.pose_hint,
            });
            // The IMU buffer must span anchor → now.
            self.imu_buffer.clear();
            return StepResult {
                frame_idx: idx,
                pose_cw: None,
                tracked: false,
                keyframe_inserted: false,
                n_matches: 0,
                timings,
            };
        };
        let init_timestamp = init.timestamp;
        let init_hint = init.pose_hint;

        // Relative pose between the init frame and this frame: prefer
        // hints; otherwise integrate the buffered IMU.
        let pose0 = init_hint.unwrap_or(SE3::IDENTITY);
        let pose1 = match input.pose_hint {
            Some(h) => h,
            None => {
                let pre = Preintegrated::integrate(&self.imu_buffer, pose0.inverse().rot);
                let t_wc0 = pose0.inverse();
                let rot_wb = (t_wc0.rot * pre.d_rot).normalized();
                // Zero initial velocity assumption; adequate for the short
                // bootstrap window and corrected by BA afterwards.
                let pos = t_wc0.trans + t_wc0.rot.rotate(pre.d_pos);
                SE3 {
                    rot: rot_wb,
                    trans: pos,
                }
                .inverse()
            }
        };
        // Require enough baseline for stable triangulation (parallax at a
        // typical 5 m depth must clear the mapper's minimum). Keep the
        // *old* anchor frame while waiting — re-seeding here would pin the
        // baseline at one inter-frame step forever.
        if pose1.center_distance(&pose0) < 0.08 {
            // Refresh a stale anchor (scene may have changed entirely).
            if input.timestamp - init_timestamp > 3.0 {
                self.mono_init = Some(MonoInit {
                    frame_idx: idx,
                    timestamp: input.timestamp,
                    obs,
                    pose_hint: input.pose_hint,
                });
            }
            return StepResult {
                frame_idx: idx,
                pose_cw: None,
                tracked: false,
                keyframe_inserted: false,
                n_matches: 0,
                timings,
            };
        }

        let init = self.mono_init.take().unwrap();
        let mut obs0 = init.obs;
        obs0.pose_cw = pose0;
        let mut obs1 = obs;
        obs1.pose_cw = pose1;

        self.mapper
            .insert_keyframe(&mut self.map, &self.vocab, &obs0);
        let report = self
            .mapper
            .insert_keyframe(&mut self.map, &self.vocab, &obs1);

        if report.n_new_points >= 40 {
            self.bootstrapped = true;
            self.tracker.reset_motion(pose1);
            self.tracker.note_keyframe(report.n_new_points);
            self.trajectory
                .push((init.timestamp, pose0.camera_center()));
            self.trajectory
                .push((obs1.timestamp, pose1.camera_center()));
            self.frame_poses.push((init.timestamp, pose0));
            self.frame_poses.push((obs1.timestamp, pose1));
            let _ = init.frame_idx;
            StepResult {
                frame_idx: idx,
                pose_cw: Some(pose1),
                tracked: true,
                keyframe_inserted: true,
                n_matches: report.n_new_points,
                timings,
            }
        } else {
            // Failed despite sufficient baseline (too few matches /
            // parallax): reset and re-seed with the newer frame.
            self.map = self.fresh_map();
            self.mono_init = Some(MonoInit {
                frame_idx: idx,
                timestamp: obs1.timestamp,
                obs: FrameObservation {
                    matched: vec![None; obs1.keypoints.len()],
                    ..obs1
                },
                pose_hint: input.pose_hint,
            });
            self.imu_buffer.clear();
            StepResult {
                frame_idx: idx,
                pose_cw: None,
                tracked: false,
                keyframe_inserted: false,
                n_matches: report.n_new_points,
                timings,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use crate::vocabulary;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};

    fn run_stereo(frames: usize, every: usize) -> (SlamSystem, Dataset) {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(frames)
                .with_seed(11),
        );
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut sys = SlamSystem::new(
            ClientId(1),
            SlamConfig::stereo(ds.rig),
            vocab,
            Arc::new(GpuExecutor::cpu()),
        );
        let mut i = 0;
        while i < frames {
            let (left, right) = ds.render_stereo_frame(i);
            let t = ds.frame_time(i);
            let t_prev = if i == 0 {
                0.0
            } else {
                ds.frame_time(i - every)
            };
            let imu = ds.imu_between(t_prev, t);
            sys.process_frame(FrameInput {
                timestamp: t,
                left: &left,
                right: Some(&right),
                imu,
                pose_hint: None,
            });
            i += every;
        }
        (sys, ds)
    }

    #[test]
    fn stereo_system_tracks_sequence() {
        let (sys, ds) = run_stereo(12, 1);
        assert!(sys.is_bootstrapped());
        assert!(sys.map.n_keyframes() >= 2);
        assert!(sys.map.n_mappoints() > 150);
        assert_eq!(sys.frames_processed(), 12);
        // ATE vs ground truth (SE3 alignment, stereo scale is metric).
        let gt: Vec<(f64, Vec3)> = (0..12)
            .map(|i| (ds.frame_time(i), ds.gt_position(i)))
            .collect();
        let r = eval::ate(&sys.trajectory, &gt, false, 1e-3).expect("ate");
        assert!(r.rmse < 0.10, "stereo ATE {} m over 12 frames", r.rmse);
        assert!(r.n >= 10, "only {} frames tracked", r.n);
    }

    #[test]
    fn mono_system_bootstraps_with_hints_and_tracks() {
        let frames = 14;
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(frames)
                .with_seed(13),
        );
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut sys = SlamSystem::new(
            ClientId(2),
            SlamConfig::mono(ds.rig),
            vocab,
            Arc::new(GpuExecutor::cpu()),
        );
        for i in 0..frames {
            let left = ds.render_frame(i);
            // Hints only for the first two frames (bootstrap).
            let hint = (i < 8 && !sys.is_bootstrapped()).then(|| ds.gt_pose_cw(i));
            sys.process_frame(FrameInput {
                timestamp: ds.frame_time(i),
                left: &left,
                right: None,
                imu: &[],
                pose_hint: hint,
            });
        }
        assert!(sys.is_bootstrapped(), "mono bootstrap failed");
        let gt: Vec<(f64, Vec3)> = (0..frames)
            .map(|i| (ds.frame_time(i), ds.gt_position(i)))
            .collect();
        let r = eval::ate(&sys.trajectory, &gt, true, 1e-3).expect("ate");
        assert!(r.rmse < 0.15, "mono ATE {} m", r.rmse);
        assert!(r.n >= frames - 4, "only {} frames tracked", r.n);
    }

    /// IMU-only bootstrap assumes the device starts (near) rest — the
    /// preintegrated deltas cannot observe the initial velocity, which is
    /// why AR SDKs ask users to "hold still, then move". Build a custom
    /// trajectory that honours that: the duplicated first waypoint makes
    /// the spline start with zero velocity.
    #[test]
    fn mono_bootstraps_from_imu_without_hints() {
        use slamshare_sim::imu::ImuNoise;
        use slamshare_sim::trajectory::{GazePolicy, Trajectory};
        use slamshare_sim::world::World;
        let frames = 40;
        let world = World::room(10.0, 10.0, 5.0, 2.0, 0xE2);
        let trajectory = Trajectory::new(
            vec![
                Vec3::new(-3.0, -3.0, 1.2),
                Vec3::new(-3.0, -3.0, 1.2),
                Vec3::new(-1.0, -2.5, 1.4),
                Vec3::new(1.0, -2.0, 1.3),
            ],
            false,
            6.0,
            GazePolicy::AtTarget(Vec3::new(0.0, 0.0, 1.2)),
        );
        let ds = Dataset::custom(
            "rest-start",
            TracePreset::V202,
            world,
            trajectory,
            slamshare_sim::camera::StereoRig::euroc_like(),
            30.0,
            frames,
            500.0,
            ImuNoise::perfect(),
            17,
        );
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut sys = SlamSystem::new(
            ClientId(3),
            SlamConfig::mono(ds.rig),
            vocab,
            Arc::new(GpuExecutor::cpu()),
        );
        // Anchor frame 0 at ground truth (gauge only) and let the IMU
        // provide the bootstrap baseline.
        for i in 0..frames {
            let left = ds.render_frame(i);
            let t = ds.frame_time(i);
            let t_prev = if i == 0 { -0.5 } else { ds.frame_time(i - 1) };
            let imu = ds.imu_between(t_prev.max(0.0), t);
            let hint = (i == 0).then(|| ds.gt_pose_cw(0));
            sys.process_frame(FrameInput {
                timestamp: t,
                left: &left,
                right: None,
                imu,
                pose_hint: hint,
            });
            if sys.is_bootstrapped() {
                break;
            }
        }
        assert!(sys.is_bootstrapped(), "IMU-based mono bootstrap failed");
        assert!(sys.map.n_mappoints() >= 40);
    }

    #[test]
    fn timings_populated() {
        let (sys, _) = run_stereo(4, 1);
        let _ = sys; // timings are asserted per-frame below
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(3)
                .with_seed(11),
        );
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut sys = SlamSystem::new(
            ClientId(1),
            SlamConfig::stereo(ds.rig),
            vocab,
            Arc::new(GpuExecutor::cpu()),
        );
        let (l0, r0) = ds.render_stereo_frame(0);
        sys.process_frame(FrameInput {
            timestamp: 0.0,
            left: &l0,
            right: Some(&r0),
            imu: &[],
            pose_hint: None,
        });
        let (l1, r1) = ds.render_stereo_frame(1);
        let step = sys.process_frame(FrameInput {
            timestamp: ds.frame_time(1),
            left: &l1,
            right: Some(&r1),
            imu: &[],
            pose_hint: None,
        });
        assert!(step.timings.orb_extract_ms > 0.0);
        assert!(step.timings.search_local_ms > 0.0);
        assert!(step.timings.optimize_ms > 0.0);
    }
}
