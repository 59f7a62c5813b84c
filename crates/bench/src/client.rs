//! The SLAM-Share client device.
//!
//! Deliberately thin — that is the paper's first contribution: the device
//! only (1) encodes camera frames as video and ships them, (2) integrates
//! its IMU through the Algorithm-1 motion model for an instant pose, and
//! (3) splices in the accurate server pose whenever one arrives (§4.2.2).
//! All CPU work is wall-clock measured and charged to the client's CPU
//! account, which is how Fig. 13's 35× client-CPU gap is reproduced.

use crate::accounting::{BandwidthAccounting, CpuAccounting};
use slamshare_features::GrayImage;
use slamshare_math::SE3;
use slamshare_net::codec::VideoEncoder;
use slamshare_net::framing::{Frame, MsgKind};
use slamshare_sim::imu::ImuSample;
use slamshare_slam::imu::{ClientMotionModel, Preintegrated};
use std::time::Instant;

/// One outgoing upload produced by the client for a camera frame.
#[derive(Debug, Clone)]
pub struct Upload {
    pub frame_idx: usize,
    pub timestamp: f64,
    /// Wire frames to ship (one per camera for stereo).
    pub messages: Vec<Frame>,
    /// Client-side encode time, ms.
    pub encode_ms: f64,
}

/// The thin AR client.
pub struct ClientDevice {
    pub id: u16,
    encoder_left: VideoEncoder,
    encoder_right: VideoEncoder,
    pub motion: ClientMotionModel,
    pub cpu: CpuAccounting,
    pub uplink_bw: BandwidthAccounting,
    /// Latest frame index whose pose the server has confirmed.
    pub last_server_frame: Option<usize>,
    frame_count: usize,
}

impl ClientDevice {
    pub fn new(id: u16) -> ClientDevice {
        ClientDevice {
            id,
            encoder_left: VideoEncoder::default(),
            encoder_right: VideoEncoder::default(),
            motion: ClientMotionModel::new(),
            cpu: CpuAccounting::new(),
            uplink_bw: BandwidthAccounting::new(),
            last_server_frame: None,
            frame_count: 0,
        }
    }

    /// Initialize the pose chain (session origin, e.g. identity or a
    /// shared anchor).
    pub fn init_pose(&mut self, pose0: SE3) {
        self.motion.init(pose0);
    }

    pub fn frames_sent(&self) -> usize {
        self.frame_count
    }

    /// The server asked for a stream resync: force the next encode of
    /// both eyes to be an I-frame so the server's decoder can re-anchor
    /// without a reference. Idempotent — safe to call once per dropped
    /// frame until the intra frame goes out.
    pub fn request_iframe(&mut self) {
        self.encoder_left.request_iframe();
        self.encoder_right.request_iframe();
    }

    /// Process a camera frame: encode as video, charge CPU + bandwidth,
    /// and return the upload. Also advances the IMU motion model with the
    /// samples since the previous frame, yielding the instant pose
    /// estimate the AR display uses *now*.
    pub fn on_frame(
        &mut self,
        timestamp: f64,
        left: &GrayImage,
        right: Option<&GrayImage>,
        imu_since_last: &[ImuSample],
    ) -> (Upload, Option<SE3>) {
        let idx = self.frame_count;
        self.frame_count += 1;

        // IMU step (Algorithm 1 ApproxPose_UpdateMM).
        let t0 = Instant::now();
        let instant_pose = if idx == 0 {
            self.motion.pose(0)
        } else if !self.motion.is_empty() {
            let start_rot = self
                .motion
                .pose(idx - 1)
                .map(|p| p.inverse().rot)
                .unwrap_or_default();
            let pre = Preintegrated::integrate(imu_since_last, start_rot);
            Some(self.motion.approx_pose_update_mm(pre, idx))
        } else {
            None
        };
        let imu_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Video encode.
        let t1 = Instant::now();
        let mut messages = Vec::new();
        let e_left = self.encoder_left.encode(left);
        messages.push(Frame::new(MsgKind::Video, e_left.data));
        if let Some(right_img) = right {
            let e_right = self.encoder_right.encode(right_img);
            messages.push(Frame::new(MsgKind::Video, e_right.data));
        }
        let encode_ms = t1.elapsed().as_secs_f64() * 1e3;

        self.cpu.charge(timestamp, imu_ms + encode_ms);
        let bytes: usize = messages.iter().map(|m| m.wire_len()).sum();
        self.uplink_bw.charge(timestamp, bytes);

        (
            Upload {
                frame_idx: idx,
                timestamp,
                messages,
                encode_ms,
            },
            instant_pose,
        )
    }

    /// A server pose reply arrived (possibly for an older frame):
    /// Algorithm 1 `Recv_SLAMPose`.
    pub fn on_server_pose(&mut self, timestamp: f64, frame_idx: usize, pose: SE3) {
        let t0 = Instant::now();
        if self.motion.is_empty() {
            self.motion.init(pose);
        } else {
            self.motion.recv_slam_pose(pose, frame_idx);
        }
        self.last_server_frame = Some(
            self.last_server_frame
                .map(|f| f.max(frame_idx))
                .unwrap_or(frame_idx),
        );
        self.cpu.charge(timestamp, t0.elapsed().as_secs_f64() * 1e3);
    }

    /// The pose the AR display would use right now for frame `idx`.
    pub fn display_pose(&self, idx: usize) -> Option<SE3> {
        self.motion.pose(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};

    fn dataset(frames: usize) -> Dataset {
        Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(frames)
                .with_seed(4),
        )
    }

    #[test]
    fn uploads_are_video_frames() {
        let ds = dataset(3);
        let mut client = ClientDevice::new(1);
        client.init_pose(ds.gt_pose_cw(0));
        let f0 = ds.render_frame(0);
        let (up0, pose0) = client.on_frame(0.0, &f0, None, &[]);
        assert_eq!(up0.messages.len(), 1);
        assert_eq!(up0.messages[0].kind, MsgKind::Video);
        assert!(pose0.is_some());
        // Second frame should be a (smaller) P-frame.
        let f1 = ds.render_frame(1);
        let imu: Vec<ImuSample> = ds.imu_between(0.0, ds.frame_time(1)).to_vec();
        let (up1, _) = client.on_frame(ds.frame_time(1), &f1, None, &imu);
        assert!(up1.messages[0].payload.len() < up0.messages[0].payload.len() / 2);
        assert_eq!(client.frames_sent(), 2);
        assert!(client.uplink_bw.total_bytes() > 0);
        assert!(client.cpu.total_work_ms() > 0.0);
    }

    #[test]
    fn imu_chain_tracks_between_server_poses() {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(16)
                .with_seed(5),
        );
        let mut client = ClientDevice::new(1);
        client.init_pose(ds.gt_pose_cw(0));
        for i in 0..12 {
            let f = ds.render_frame(i);
            let t = ds.frame_time(i);
            let t_prev = if i == 0 { 0.0 } else { ds.frame_time(i - 1) };
            let imu: Vec<ImuSample> = ds.imu_between(t_prev, t).to_vec();
            client.on_frame(t, &f, None, &imu);
            // Server replies with the true pose two frames late.
            if i >= 2 {
                client.on_server_pose(t, i - 2, ds.gt_pose_cw(i - 2));
            }
        }
        let est = client.display_pose(11).unwrap();
        let err = est.center_distance(&ds.gt_pose_cw(11));
        assert!(
            err < 0.2,
            "display pose error {err} m with 2-frame-late server poses"
        );
        assert_eq!(client.last_server_frame, Some(9));
    }

    #[test]
    fn stereo_upload_has_two_messages() {
        let ds = dataset(1);
        let mut client = ClientDevice::new(2);
        client.init_pose(ds.gt_pose_cw(0));
        let (l, r) = ds.render_stereo_frame(0);
        let (up, _) = client.on_frame(0.0, &l, Some(&r), &[]);
        assert_eq!(up.messages.len(), 2);
    }

    #[test]
    fn client_cpu_is_light() {
        // The whole point: per-frame client work must be a few ms, not a
        // full SLAM iteration (Fig. 13).
        let ds = dataset(6);
        let mut client = ClientDevice::new(3);
        client.init_pose(ds.gt_pose_cw(0));
        for i in 0..6 {
            let f = ds.render_frame(i);
            let t = ds.frame_time(i);
            let t_prev = if i == 0 { 0.0 } else { ds.frame_time(i - 1) };
            let imu: Vec<ImuSample> = ds.imu_between(t_prev, t).to_vec();
            client.on_frame(t, &f, None, &imu);
        }
        let per_frame = client.cpu.total_work_ms() / 6.0;
        assert!(
            per_frame < 25.0,
            "client work {per_frame} ms/frame is too heavy"
        );
    }
}
