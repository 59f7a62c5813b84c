//! Layer replay: after a traced run, time each layer's public entry
//! points directly, single-threaded, on the workload's own frames.
//!
//! The run itself can only time whole rounds from outside. This gives the
//! split underneath, still by wall clock and still from outside: codec,
//! feature extraction, stereo matching, bag-of-words, a whole
//! `SlamSystem` step, local bundle adjustment and (for `join_churn`) the
//! two halves of a merge. Nothing here contends for cores, so these are
//! the layers' uncontended costs; the run's numbers are the same work
//! diluted by contention.

use crate::driver::Encoders;
use crate::trace::{Span, Tracer};
use crate::workloads::{Inputs, Kind, Track};
use crate::Metric;
use slamshare_features::bow::Vocabulary;
use slamshare_features::GrayImage;
use slamshare_gpu::{GpuExecutor, GpuModel, SharedGpu};
use slamshare_math::stats::{mean, percentile};
use slamshare_net::codec::VideoDecoder;
use slamshare_slam::merge::{apply_merge_plan, plan_merge};
use slamshare_slam::optimize::{local_bundle_adjust_with, BaScratch};
use slamshare_slam::recognition::ShardedKeyframeDatabase;
use slamshare_slam::system::FrameInput;
use slamshare_slam::tracking::Tracker;
use slamshare_slam::{ClientId, Map, SlamConfig, SlamSystem};
use std::sync::Arc;

/// Every `STRIDE`-th frame of the first resident's stream is replayed
/// through the stateless layers, up to `MAX_SAMPLES` of them.
const STRIDE: usize = 10;
const MAX_SAMPLES: usize = 16;
/// Consecutive frames the replay `SlamSystem` runs (tracking needs the
/// real 30 fps motion between frames, so these cannot be strided).
const SYSTEM_FRAMES: usize = 30;
/// Bundle adjustment is timed on a clone of the replay map at every
/// `BA_EVERY`-th keyframe.
const BA_EVERY: usize = 3;
/// Keyframes in the joiner map whose merge is timed, and how many times.
const JOINER_KEYFRAMES: usize = 10;
const MERGE_REPS: usize = 3;

struct Replay<'a> {
    tracer: &'a mut Tracer,
    root: Option<u32>,
    config: SlamConfig,
    vocab: &'a Arc<Vocabulary>,
    /// The executor kind the server hands a registered client.
    exec: Arc<GpuExecutor>,
}

impl Replay<'_> {
    /// Run `f`, record it as a span, return its result and duration, ms.
    fn time<R>(&mut self, name: &'static str, frame: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = self.tracer.now_ns();
        let out = f();
        let end_ns = self.tracer.now_ns();
        self.tracer.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            client: None,
            frame_idx: Some(frame),
        });
        (out, (end_ns - start_ns) as f64 / 1e6)
    }

    /// Run a fresh `SlamSystem` over consecutive frames of `track` until
    /// it has seen `frames` of them or holds `keyframes`, timing each
    /// step from outside. Returns the system and the step times, split by
    /// whether the step inserted a keyframe.
    fn run_system(
        &mut self,
        track: &Track,
        client: u16,
        frames: usize,
        keyframes: usize,
        mut after_keyframe: impl FnMut(&mut Self, &SlamSystem, usize),
    ) -> (SlamSystem, Vec<f64>, Vec<f64>) {
        let mut system = SlamSystem::new(
            ClientId(client),
            self.config.clone(),
            self.vocab.clone(),
            self.exec.clone(),
        );
        let (mut plain, mut keyframe) = (Vec::new(), Vec::new());
        for (i, (left, right)) in track.frames.iter().take(frames).enumerate() {
            let input = FrameInput {
                timestamp: track.timestamp(i),
                left,
                right: Some(right),
                imu: &[],
                pose_hint: (i == 0).then(|| track.ds.gt_pose_cw(track.first)),
            };
            let (step, ms) = self.time("slam.system.process_frame", i, || {
                system.process_frame(input)
            });
            if step.keyframe_inserted {
                keyframe.push(ms);
                after_keyframe(self, &system, i);
            } else {
                plain.push(ms);
            }
            if system.map.n_keyframes() >= keyframes {
                break;
            }
        }
        (system, plain, keyframe)
    }
}

fn keyframe_db(map: &Map) -> ShardedKeyframeDatabase {
    let db = ShardedKeyframeDatabase::new();
    for kf in map.keyframes.values() {
        db.add(kf.id.0, kf.bow.clone());
    }
    db
}

pub fn run(
    kind: Kind,
    inputs: &Inputs,
    vocab: &Arc<Vocabulary>,
    tracer: &mut Tracer,
) -> Vec<Metric> {
    let start_ns = tracer.now_ns();
    let root = tracer.push(Span {
        name: "replay",
        start_ns,
        end_ns: start_ns,
        parent: None,
        client: None,
        frame_idx: None,
    });
    let track = &inputs.tracks[0];
    let mut replay = Replay {
        tracer,
        root,
        config: SlamConfig::stereo(track.ds.rig),
        vocab,
        exec: SharedGpu::new(GpuModel::v100()).register(1),
    };

    // Stateless layers, on every STRIDE-th frame. The codec is timed on
    // the P-frame that follows its true predecessor.
    let tracker = Tracker::new(replay.config.tracker.clone(), replay.exec.clone());
    let mut decoded = GrayImage::new(0, 0);
    let (mut encode, mut decode, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut extract, mut stereo, mut bow, mut keypoints) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in (STRIDE..track.frames.len())
        .step_by(STRIDE)
        .take(MAX_SAMPLES)
    {
        let mut enc = Encoders::new();
        let (mut dec_l, mut dec_r) = (VideoDecoder::new(), VideoDecoder::new());
        let previous = enc.encode(&track.frames[i - 1]);
        for (dec, payload) in [(&mut dec_l, &previous.0), (&mut dec_r, &previous.1)] {
            dec.decode_into(payload, &mut decoded)
                .expect("own encoder's I-frame decodes");
        }
        let (payload, ms) = replay.time("net.codec.encode", i, || enc.encode(&track.frames[i]));
        encode.push(ms);
        bytes.push((payload.0.len() + payload.1.len()) as f64);
        let (_, ms) = replay.time("net.codec.decode", i, || {
            for (dec, payload) in [(&mut dec_l, &payload.0), (&mut dec_r, &payload.1)] {
                dec.decode_into(payload, &mut decoded)
                    .expect("own encoder's P-frame decodes");
            }
        });
        decode.push(ms);

        let (left, right) = &track.frames[i];
        let ((mut lf, _), ms) = replay.time("features.extract", i, || tracker.extract(left));
        extract.push(ms);
        let ((rf, _), ms) = replay.time("features.extract", i, || tracker.extract(right));
        extract.push(ms);
        keypoints.push(lf.keypoints.len() as f64);
        let (_, ms) = replay.time("features.stereo_match", i, || {
            tracker.stereo_match(&mut lf, &rf)
        });
        stereo.push(ms);
        let (_, ms) = replay.time("features.bow_transform", i, || {
            vocab.transform(&lf.descriptors)
        });
        bow.push(ms);
    }

    // The whole per-frame step, and bundle adjustment on its map.
    let cam = track.ds.rig.cam;
    let mut ba = Vec::new();
    let mut scratch = BaScratch::default();
    let mut inserted = 0;
    let (resident, plain, keyframe) =
        replay.run_system(track, 1, SYSTEM_FRAMES, usize::MAX, |replay, system, i| {
            inserted += 1;
            let centre = system.map.keyframes.keys().next_back().copied();
            let (true, Some(centre)) = (inserted % BA_EVERY == 0, centre) else {
                return;
            };
            let mut map = system.map.clone();
            let mapping = replay.config.mapping.clone();
            let exec = replay.exec.clone();
            let (_, ms) = replay.time("slam.optimize.local_ba", i, || {
                local_bundle_adjust_with(
                    &mut map,
                    &cam,
                    centre,
                    mapping.ba_window,
                    mapping.ba_sweeps,
                    &exec,
                    &mut scratch,
                )
            });
            ba.push(ms);
        });

    // The two halves of a late joiner's merge into the replay map.
    let (mut plan_ms, mut apply_ms) = (Vec::new(), Vec::new());
    if kind == Kind::JoinChurn {
        let (joiner, _, _) = replay.run_system(
            &inputs.joiner_tracks[1],
            2,
            usize::MAX,
            JOINER_KEYFRAMES,
            |_, _, _| {},
        );
        for rep in 0..MERGE_REPS {
            let mut gmap = resident.map.clone();
            let db = keyframe_db(&gmap);
            let (plan, ms) = replay.time("slam.merge.plan", rep, || {
                plan_merge(&gmap, &joiner.map, &db, vocab, false)
            });
            plan_ms.push(ms);
            let cmap = joiner.map.clone();
            let (_, ms) = replay.time("slam.merge.apply", rep, || {
                apply_merge_plan(&mut gmap, &db, cmap, &plan, &cam)
            });
            apply_ms.push(ms);
        }
    }

    let end_ns = replay.tracer.now_ns();
    if let Some(root) = root {
        replay.tracer.spans[root as usize].end_ns = end_ns;
    }
    vec![
        ("net.codec.encode_ms_p50", percentile(&encode, 50.0), "ms"),
        ("net.codec.decode_ms_p50", percentile(&decode, 50.0), "ms"),
        ("net.codec.bytes_per_frame", mean(&bytes), "B"),
        ("features.extract_ms_p50", percentile(&extract, 50.0), "ms"),
        ("features.keypoints_mean", mean(&keypoints), "count"),
        (
            "features.stereo_match_ms_p50",
            percentile(&stereo, 50.0),
            "ms",
        ),
        (
            "features.bow_transform_ms_p50",
            percentile(&bow, 50.0),
            "ms",
        ),
        (
            "slam.system.process_frame_ms_p50",
            percentile(&plain, 50.0),
            "ms",
        ),
        (
            "slam.system.keyframe_frame_ms_p50",
            percentile(&keyframe, 50.0),
            "ms",
        ),
        ("slam.optimize.local_ba_ms_p50", percentile(&ba, 50.0), "ms"),
        ("slam.merge.plan_ms_p50", percentile(&plan_ms, 50.0), "ms"),
        ("slam.merge.apply_ms_p50", percentile(&apply_ms, 50.0), "ms"),
    ]
}
