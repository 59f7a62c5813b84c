//! **Table 3**: video vs. image transfer.
//!
//! Paper: shipping PNG images at 30 fps needs ~81–131 Mbit/s; H.264 video
//! needs ~1–2 Mbit/s; encode costs < 3 ms; decoded-video SLAM accuracy
//! equals raw-image accuracy. We measure our intra codec against the
//! inter-frame codec on the same rendered streams and run SLAM on the
//! decoded frames for the ATE row.

use super::Effort;
use serde::Serialize;
use slamshare_gpu::GpuExecutor;
use slamshare_net::codec::{ImageCodec, VideoDecoder, VideoEncoder};
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::eval;
use slamshare_slam::ids::ClientId;
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use slamshare_slam::vocabulary;
use std::sync::Arc;

#[derive(Debug, Clone, Serialize)]
pub struct Table3Column {
    pub dataset: String,
    pub stereo: bool,
    /// Intra-only ("image transfer") bitrate at 30 fps, Mbit/s.
    pub image_mbps: f64,
    /// Inter-frame ("SLAM-Share video") bitrate at 30 fps, Mbit/s.
    pub video_mbps: f64,
    pub video_encode_ms: f64,
    pub image_decode_ms: f64,
    pub video_decode_ms: f64,
    /// ATE RMSE (m) of SLAM on raw frames vs. on decoded video.
    pub ate_raw_m: f64,
    pub ate_video_m: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Table3Result {
    pub columns: Vec<Table3Column>,
}

fn run_one(preset: TracePreset, stereo: bool, frames: usize) -> Table3Column {
    let ds = Dataset::build(DatasetConfig::new(preset).with_frames(frames).with_seed(5));
    let fps = 30.0;

    // Bitrates + codec timings over the left-eye stream (the paper's
    // per-camera numbers; stereo doubles both sides equally).
    let mut video_enc = VideoEncoder::default();
    let mut video_dec = VideoDecoder::new();
    let mut image_bytes = 0usize;
    let mut video_bytes = 0usize;
    let mut enc_ms = 0.0;
    let mut img_dec_ms = 0.0;
    let mut vid_dec_ms = 0.0;
    let mut decoded_frames = Vec::with_capacity(frames);
    for i in 0..frames {
        let frame = ds.render_frame(i);
        let img = ImageCodec::encode(&frame);
        image_bytes += img.data.len();
        let (_, d_ms) = ImageCodec::decode(&img.data).unwrap();
        img_dec_ms += d_ms;
        let vid = video_enc.encode(&frame);
        enc_ms += vid.encode_ms;
        video_bytes += vid.data.len();
        let (decoded, vdec) = video_dec.decode(&vid.data).unwrap();
        vid_dec_ms += vdec;
        decoded_frames.push(decoded);
    }
    let eyes = if stereo { 2.0 } else { 1.0 };
    let to_mbps = |bytes: usize| bytes as f64 * 8.0 / (frames as f64 / fps) / 1e6 * eyes;

    // ATE on raw vs decoded-video frames. (Stereo runs use raw right-eye
    // frames in both cases; the left eye carries the comparison.)
    let ate_raw = slam_ate(&ds, stereo, frames, None);
    let ate_video = slam_ate(&ds, stereo, frames, Some(&decoded_frames));

    Table3Column {
        dataset: preset.name().to_string(),
        stereo,
        image_mbps: to_mbps(image_bytes),
        video_mbps: to_mbps(video_bytes),
        video_encode_ms: enc_ms / frames as f64,
        image_decode_ms: img_dec_ms / frames as f64,
        video_decode_ms: vid_dec_ms / frames as f64,
        ate_raw_m: ate_raw,
        ate_video_m: ate_video,
    }
}

fn slam_ate(
    ds: &Dataset,
    stereo: bool,
    frames: usize,
    decoded_left: Option<&[slamshare_features::GrayImage]>,
) -> f64 {
    let vocab = Arc::new(vocabulary::train_random(42));
    let config = if stereo {
        SlamConfig::stereo(ds.rig)
    } else {
        SlamConfig::mono(ds.rig)
    };
    let mut sys = SlamSystem::new(ClientId(1), config, vocab, Arc::new(GpuExecutor::cpu()));
    let mut gt = Vec::new();
    for i in 0..frames {
        let left_raw;
        let left = match decoded_left {
            Some(frames) => &frames[i],
            None => {
                left_raw = ds.render_frame(i);
                &left_raw
            }
        };
        let right = stereo.then(|| ds.render_stereo_frame(i).1);
        let hint = (!sys.is_bootstrapped()).then(|| ds.gt_pose_cw(i));
        sys.process_frame(FrameInput {
            timestamp: ds.frame_time(i),
            left,
            right: right.as_ref(),
            imu: &[],
            pose_hint: hint,
        });
        gt.push((ds.frame_time(i), ds.gt_position(i)));
    }
    eval::ate(&sys.trajectory(), &gt, !stereo, 1e-4)
        .map(|a| a.rmse)
        .unwrap_or(f64::NAN)
}

pub fn run(effort: Effort) -> Table3Result {
    // A GOP must amortize its I-frame for the bitrate gap to show.
    let frames = effort.frames(150).max(15);
    let configs: Vec<(TracePreset, bool)> = match effort {
        Effort::Smoke => vec![(TracePreset::V202, true)],
        _ => vec![(TracePreset::Kitti00, true), (TracePreset::MH05, false)],
    };
    Table3Result {
        columns: configs
            .into_iter()
            .map(|(p, s)| run_one(p, s, frames))
            .collect(),
    }
}

impl Table3Result {
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .columns
            .iter()
            .map(|c| {
                vec![
                    format!("{}-{}", c.dataset, if c.stereo { "stereo" } else { "mono" }),
                    format!("{:.1}", c.image_mbps),
                    format!("{:.2}", c.video_mbps),
                    format!("{:.1}", c.video_encode_ms),
                    format!("{:.1} / {:.1}", c.image_decode_ms, c.video_decode_ms),
                    format!("{:.3} / {:.3}", c.ate_raw_m, c.ate_video_m),
                ]
            })
            .collect();
        format!(
            "Table 3: video vs image transfer (30 fps)\n{}",
            super::render_table(
                &[
                    "dataset",
                    "image Mbit/s",
                    "video Mbit/s",
                    "encode ms",
                    "decode ms (img/vid)",
                    "ATE m (raw/video)"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_beats_images_and_preserves_ate() {
        let result = run(Effort::Smoke);
        let c = &result.columns[0];
        assert!(
            c.video_mbps * 2.0 < c.image_mbps,
            "video {:.1} vs image {:.1} Mbit/s",
            c.video_mbps,
            c.image_mbps
        );
        assert!(c.video_encode_ms < 30.0, "encode {} ms", c.video_encode_ms);
        // Accuracy preserved within noise.
        assert!(c.ate_raw_m.is_finite() && c.ate_video_m.is_finite());
        assert!(
            c.ate_video_m < c.ate_raw_m * 2.5 + 0.05,
            "video ATE {} vs raw {}",
            c.ate_video_m,
            c.ate_raw_m
        );
    }
}
