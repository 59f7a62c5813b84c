//! Dataset presets mirroring the paper's traces.
//!
//! Names follow the paper (§5.1): EuRoC `MH04`/`MH05` (drone, machine
//! hall), `V202` (drone, Vicon room), `KITTI-00`/`KITTI-05` (vehicle),
//! plus `TUM`/`RGBD`-style indoor presets used by the Fig. 5 breakdown.
//! Every preset pairs a world, a ground-truth trajectory, a camera rig and
//! a synthesized IMU stream. **Presets sharing a world use the same world
//! seed** — that is what makes multi-client map merging geometrically
//! possible, exactly as the paper's clients share the physical machine
//! hall.

use crate::camera::StereoRig;
use crate::imu::{self, ImuNoise, ImuSample};
use crate::render::Renderer;
use crate::trajectory::{GazePolicy, Trajectory};
use crate::world::World;
use slamshare_features::GrayImage;
use slamshare_math::{Vec3, SE3};

/// The paper's evaluation traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TracePreset {
    /// EuRoC machine hall, trajectory 4 (68 s, 2032 frames in the paper).
    MH04,
    /// EuRoC machine hall, trajectory 5 (75 s, 2273 frames).
    MH05,
    /// EuRoC Vicon room 2-02 (fast drone motion in a small room).
    V202,
    /// KITTI odometry sequence 00 (151 s, 4541 frames).
    Kitti00,
    /// KITTI odometry sequence 05 (92 s, 2762 frames).
    Kitti05,
    /// TUM-style small office room (used in the Fig. 5 breakdown).
    TumRoom,
    /// RGBD-style office preset (Fig. 5 breakdown).
    RgbdOffice,
}

impl TracePreset {
    pub fn name(self) -> &'static str {
        match self {
            TracePreset::MH04 => "MH04",
            TracePreset::MH05 => "MH05",
            TracePreset::V202 => "V202",
            TracePreset::Kitti00 => "KITTI-00",
            TracePreset::Kitti05 => "KITTI-05",
            TracePreset::TumRoom => "TUM",
            TracePreset::RgbdOffice => "RGBD",
        }
    }

    /// Paper-faithful duration in seconds.
    pub fn default_duration(self) -> f64 {
        match self {
            TracePreset::MH04 => 68.0,
            TracePreset::MH05 => 75.0,
            TracePreset::V202 => 35.0,
            TracePreset::Kitti00 => 151.0,
            TracePreset::Kitti05 => 92.0,
            TracePreset::TumRoom => 30.0,
            TracePreset::RgbdOffice => 30.0,
        }
    }
}

/// Dataset construction parameters.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    pub preset: TracePreset,
    /// Number of frames to expose; `None` uses `duration × FPS`.
    pub frames: Option<usize>,
    /// World/noise seed. Presets sharing an environment ignore this for
    /// world generation (so clients can co-localize) but use it for sensor
    /// noise.
    pub seed: u64,
}

impl DatasetConfig {
    pub fn new(preset: TracePreset) -> DatasetConfig {
        DatasetConfig {
            preset,
            frames: None,
            seed: 0,
        }
    }

    /// Limit to the first `n` frames (the paper's merge experiments use
    /// 200-frame client maps).
    pub fn with_frames(mut self, n: usize) -> DatasetConfig {
        self.frames = Some(n);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> DatasetConfig {
        self.seed = seed;
        self
    }
}

/// A fully-instantiated synthetic dataset.
pub struct Dataset {
    pub name: String,
    pub preset: TracePreset,
    pub world: World,
    pub trajectory: Trajectory,
    pub rig: StereoRig,
    pub renderer: Renderer,
    pub fps: f64,
    pub n_frames: usize,
    pub imu: Vec<ImuSample>,
    seed: u64,
}

/// Camera frame rate of every preset, Hz.
const FPS: f64 = 30.0;
/// IMU sampling rate of every preset, Hz.
const IMU_RATE: f64 = 200.0;

/// World seed shared by every machine-hall trace.
const MACHINE_HALL_SEED: u64 = 0xEu64 * 0x1000 + 1;
/// World seed shared by the Vicon-room trace.
const VICON_SEED: u64 = 0xE2;
/// World seed shared by the KITTI-like street traces.
const KITTI_SEED: u64 = 0x0;
/// Office seed for TUM/RGBD presets.
const OFFICE_SEED: u64 = 0x7;

impl Dataset {
    /// Assemble a dataset from explicit parts (custom worlds/trajectories,
    /// e.g. controlled test scenarios the presets don't cover).
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: &str,
        preset: TracePreset,
        world: World,
        trajectory: Trajectory,
        rig: StereoRig,
        fps: f64,
        n_frames: usize,
        imu_rate: f64,
        imu_noise: ImuNoise,
        seed: u64,
    ) -> Dataset {
        let imu_t1 = n_frames as f64 / fps + 0.1;
        let imu = imu::synthesize(&trajectory, 0.0, imu_t1, imu_rate, &imu_noise, seed ^ 0xAB);
        let renderer = Renderer::new(rig.cam);
        Dataset {
            name: name.to_string(),
            preset,
            world,
            trajectory,
            rig,
            renderer,
            fps,
            n_frames,
            imu,
            seed,
        }
    }

    pub fn build(config: DatasetConfig) -> Dataset {
        let duration = config.preset.default_duration();
        let (world, trajectory, rig) = match config.preset {
            TracePreset::MH04 => {
                // Large hall: big wall patches (viewed from 3–6 m) and an
                // outward gaze so scene depth stays stereo-usable.
                let world =
                    World::room_sized(24.0, 18.0, 10.0, 0.9, MACHINE_HALL_SEED, (0.18, 0.40));
                // Counter-clockwise loop around the hall at varying height.
                let traj = Trajectory::new(
                    vec![
                        Vec3::new(-8.0, -6.0, 1.2),
                        Vec3::new(8.0, -6.0, 2.0),
                        Vec3::new(9.0, 0.0, 3.2),
                        Vec3::new(8.0, 6.0, 2.5),
                        Vec3::new(-8.0, 6.0, 1.8),
                        Vec3::new(-9.0, 0.0, 1.4),
                    ],
                    true,
                    duration,
                    GazePolicy::AwayFrom(Vec3::new(0.0, 0.0, 2.0)),
                );
                (world, traj, StereoRig::euroc_like())
            }
            TracePreset::MH05 => {
                let world =
                    World::room_sized(24.0, 18.0, 10.0, 0.9, MACHINE_HALL_SEED, (0.18, 0.40));
                // Different loop through the same hall, overlapping MH04's
                // coverage (figure-eight-ish).
                let traj = Trajectory::new(
                    vec![
                        Vec3::new(-8.0, -6.0, 1.5),
                        Vec3::new(0.0, -7.0, 2.2),
                        Vec3::new(8.0, -5.0, 3.0),
                        Vec3::new(7.0, 5.5, 2.0),
                        Vec3::new(0.0, 7.0, 2.6),
                        Vec3::new(-7.5, 5.0, 1.6),
                    ],
                    true,
                    duration,
                    GazePolicy::AwayFrom(Vec3::new(0.5, 0.0, 2.2)),
                );
                (world, traj, StereoRig::euroc_like())
            }
            TracePreset::V202 => {
                let world = World::room(10.0, 10.0, 5.0, 2.0, VICON_SEED);
                let traj = Trajectory::new(
                    vec![
                        Vec3::new(-3.0, -3.0, 1.0),
                        Vec3::new(3.0, -3.0, 1.8),
                        Vec3::new(3.0, 3.0, 1.2),
                        Vec3::new(-3.0, 3.0, 2.0),
                    ],
                    true,
                    duration,
                    GazePolicy::AtTarget(Vec3::new(0.0, 0.0, 1.2)),
                );
                (world, traj, StereoRig::euroc_like())
            }
            TracePreset::Kitti00 => {
                let route = vec![
                    Vec3::new(0.0, 0.0, 0.0),
                    Vec3::new(250.0, 0.0, 0.0),
                    Vec3::new(250.0, 200.0, 0.0),
                    Vec3::new(80.0, 200.0, 0.0),
                    Vec3::new(80.0, 60.0, 0.0),
                    Vec3::new(-60.0, 60.0, 0.0),
                    Vec3::new(-60.0, -80.0, 0.0),
                    Vec3::new(0.0, -80.0, 0.0),
                ];
                let world = World::street_sized(&route, 9.0, 7.0, 0.18, KITTI_SEED, (0.3, 0.7));
                let elevated: Vec<Vec3> = route
                    .iter()
                    .map(|p| *p + Vec3::new(0.0, 0.0, 1.65))
                    .collect();
                let traj = Trajectory::new(elevated, true, duration, GazePolicy::AlongVelocity);
                (world, traj, StereoRig::kitti_like())
            }
            TracePreset::Kitti05 => {
                let route = vec![
                    Vec3::new(0.0, 0.0, 0.0),
                    Vec3::new(180.0, 0.0, 0.0),
                    Vec3::new(180.0, 150.0, 0.0),
                    Vec3::new(40.0, 150.0, 0.0),
                    Vec3::new(40.0, 40.0, 0.0),
                    Vec3::new(-40.0, 40.0, 0.0),
                ];
                let world = World::street_sized(
                    &route,
                    9.0,
                    7.0,
                    0.18,
                    KITTI_SEED.wrapping_add(5),
                    (0.3, 0.7),
                );
                let elevated: Vec<Vec3> = route
                    .iter()
                    .map(|p| *p + Vec3::new(0.0, 0.0, 1.65))
                    .collect();
                let traj = Trajectory::new(elevated, true, duration, GazePolicy::AlongVelocity);
                (world, traj, StereoRig::kitti_like())
            }
            TracePreset::TumRoom | TracePreset::RgbdOffice => {
                let seed = if config.preset == TracePreset::TumRoom {
                    OFFICE_SEED
                } else {
                    OFFICE_SEED + 1
                };
                let world = World::room(8.0, 6.0, 3.0, 3.0, seed);
                let traj = Trajectory::new(
                    vec![
                        Vec3::new(-2.0, -1.5, 1.4),
                        Vec3::new(2.0, -1.5, 1.5),
                        Vec3::new(2.0, 1.5, 1.3),
                        Vec3::new(-2.0, 1.5, 1.6),
                    ],
                    true,
                    duration,
                    GazePolicy::AtTarget(Vec3::new(0.0, 0.0, 1.3)),
                );
                (world, traj, StereoRig::euroc_like())
            }
        };

        let n_frames = config.frames.unwrap_or((duration * FPS).round() as usize);
        let imu_t1 = (n_frames as f64 / FPS).min(duration) + 0.1;
        let imu = imu::synthesize(
            &trajectory,
            0.0,
            imu_t1,
            IMU_RATE,
            &ImuNoise::default(),
            config.seed ^ 0xAB,
        );
        let renderer = Renderer::new(rig.cam);

        Dataset {
            name: config.preset.name().to_string(),
            preset: config.preset,
            world,
            trajectory,
            rig,
            renderer,
            fps: FPS,
            n_frames,
            imu,
            seed: config.seed,
        }
    }

    pub fn frame_count(&self) -> usize {
        self.n_frames
    }

    /// Timestamp of frame `i`, seconds.
    pub fn frame_time(&self, i: usize) -> f64 {
        i as f64 / self.fps
    }

    /// Ground-truth world→camera pose of frame `i`.
    pub fn gt_pose_cw(&self, i: usize) -> SE3 {
        self.trajectory.pose_cw(self.frame_time(i))
    }

    /// Ground-truth camera position (world) of frame `i`.
    pub fn gt_position(&self, i: usize) -> Vec3 {
        self.trajectory.position(self.frame_time(i))
    }

    /// Render the monocular frame `i`.
    pub fn render_frame(&self, i: usize) -> GrayImage {
        let pose = self.gt_pose_cw(i);
        self.renderer.render(
            &self.world,
            &pose,
            self.seed.wrapping_mul(1_000_003) ^ i as u64,
        )
    }

    /// Render the stereo pair for frame `i`.
    pub fn render_stereo_frame(&self, i: usize) -> (GrayImage, GrayImage) {
        let pose = self.gt_pose_cw(i);
        self.renderer.render_stereo(
            &self.world,
            &self.rig,
            &pose,
            self.seed.wrapping_mul(1_000_003) ^ i as u64,
        )
    }

    /// IMU samples in the half-open interval `[t0, t1)` seconds.
    pub fn imu_between(&self, t0: f64, t1: f64) -> &[ImuSample] {
        let start = self.imu.partition_point(|s| s.t < t0);
        let end = self.imu.partition_point(|s| s.t < t1);
        &self.imu[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(preset: TracePreset) -> Dataset {
        Dataset::build(DatasetConfig::new(preset).with_frames(10))
    }

    #[test]
    fn machine_hall_presets_share_world() {
        let a = small(TracePreset::MH04);
        let b = small(TracePreset::MH05);
        assert_eq!(a.world.len(), b.world.len());
        assert!((a.world.landmarks[0].center - b.world.landmarks[0].center).norm() < 1e-12);
        // But trajectories differ.
        assert!((a.gt_position(5) - b.gt_position(5)).norm() > 0.1);
    }

    #[test]
    fn frame_counts_and_times() {
        let d = small(TracePreset::MH04);
        assert_eq!(d.frame_count(), 10);
        assert!((d.frame_time(3) - 0.1).abs() < 1e-12);
        let full = Dataset::build(DatasetConfig::new(TracePreset::MH04));
        assert_eq!(full.frame_count(), 2040); // 68 s × 30 fps
    }

    #[test]
    fn frames_render_with_texture() {
        let d = small(TracePreset::MH04);
        let img = d.render_frame(0);
        assert_eq!(img.width, d.rig.cam.width);
        // Some pixels must be landmark texture (outside the background
        // 100..150 band).
        let textured = img
            .data
            .iter()
            .filter(|&&v| !(100..=150).contains(&(v as i32)))
            .count();
        assert!(textured > 500, "only {textured} textured pixels");
    }

    #[test]
    fn vehicular_preset_renders_facades() {
        let d = small(TracePreset::Kitti05);
        let img = d.render_frame(2);
        let textured = img
            .data
            .iter()
            .filter(|&&v| !(100..=150).contains(&(v as i32)))
            .count();
        assert!(textured > 200, "only {textured} textured pixels");
    }

    #[test]
    fn imu_stream_covers_frames() {
        let d = small(TracePreset::MH05);
        let span = d.imu_between(0.0, d.frame_time(9));
        // 200 Hz over 0.3 s ≈ 60 samples.
        assert!(
            span.len() >= 55 && span.len() <= 65,
            "{} samples",
            span.len()
        );
        let empty = d.imu_between(5.0, 5.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn imu_between_is_sorted_and_bounded() {
        let d = small(TracePreset::V202);
        let s = d.imu_between(0.05, 0.25);
        for w in s.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
        assert!(s.first().unwrap().t >= 0.05);
        assert!(s.last().unwrap().t < 0.25);
    }

    #[test]
    fn gt_pose_consistent_with_position() {
        let d = small(TracePreset::MH04);
        for i in [0, 4, 9] {
            let pose = d.gt_pose_cw(i);
            assert!((pose.camera_center() - d.gt_position(i)).norm() < 1e-9);
        }
    }

    #[test]
    fn different_seeds_differ_only_in_noise() {
        let a = Dataset::build(
            DatasetConfig::new(TracePreset::MH04)
                .with_frames(3)
                .with_seed(1),
        );
        let b = Dataset::build(
            DatasetConfig::new(TracePreset::MH04)
                .with_frames(3)
                .with_seed(2),
        );
        // Same geometry...
        assert!((a.gt_position(2) - b.gt_position(2)).norm() < 1e-12);
        assert_eq!(a.world.len(), b.world.len());
        // ...different sensor noise.
        let ia = a.imu_between(0.0, 0.1);
        let ib = b.imu_between(0.0, 0.1);
        assert!((ia[5].gyro - ib[5].gyro).norm() > 0.0);
    }
}
