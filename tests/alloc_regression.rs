//! Zero-allocation guarantee for the steady-state per-frame path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up pass has grown every reusable buffer to its high-water mark,
//! the decode → extract → stereo-match → brute-force-match loop over
//! further (identical-resolution) frames must perform **zero** heap
//! allocations. This is the enforcement half of the frame-arena design
//! (see DESIGN.md): a regression that sneaks a per-frame `Vec::new` or
//! `clone` into the hot path fails this test, not a profiler session
//! three weeks later.
//!
//! A second measured phase holds the server's route to the same pipeline
//! (`Tracker::extract_frame` on a one-SM GPU-device executor) to the
//! returned features' own buffers, and a third holds the two-lane route,
//! where the eyes run side by side, to those plus one spawn per frame.
//!
//! A fourth phase decodes a moving stereo sequence, whose P-frames carry
//! tokens, so the decoder's validate-and-apply path runs while counted.
//!
//! One `#[test]` only: the counter is process-global, so a second
//! concurrently-running test would attribute its allocations to ours.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_frame_path_allocates_nothing() {
    use slam_share::features::extractor::{ExtractedFeatures, OrbExtractor};
    use slam_share::features::matching::{self, MatchScratch, StereoScratch, TH_LOW};
    use slam_share::features::GrayImage;
    use slam_share::net::codec::{VideoDecoder, VideoEncoder};
    use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};

    // ---- Setup (allocation-free-ness not required here) ----
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(1)
            .with_seed(5),
    );
    let (left_src, right_src) = ds.render_stereo_frame(0);
    // One I-frame then identical P-frames per eye: a fixed-resolution
    // stream, the case the buffer pools are designed for.
    const WARM: usize = 5;
    const MEASURED: usize = 25;
    let mut enc_l = VideoEncoder::default();
    let mut enc_r = VideoEncoder::default();
    let payloads: Vec<(Vec<u8>, Vec<u8>)> = (0..WARM + MEASURED)
        .map(|_| {
            (
                enc_l.encode(&left_src).data.to_vec(),
                enc_r.encode(&right_src).data.to_vec(),
            )
        })
        .collect();

    let extractor = OrbExtractor::with_defaults();
    let max_disparity = ds.rig.disparity(0.3);

    let mut dec_l = VideoDecoder::new();
    let mut dec_r = VideoDecoder::new();
    let mut left = GrayImage::new(0, 0);
    let mut right = GrayImage::new(0, 0);
    let mut feats_l = ExtractedFeatures::default();
    let mut feats_r = ExtractedFeatures::default();
    let mut stereo_scratch = StereoScratch::default();
    let mut match_scratch = MatchScratch::default();
    let mut matches = Vec::new();
    // A fixed "previous frame" descriptor set for frame-to-frame matching.
    let (prev, _) = extractor.extract(&left_src);

    let mut frame =
        |payload: &(Vec<u8>, Vec<u8>), dec_l: &mut VideoDecoder, dec_r: &mut VideoDecoder| {
            dec_l
                .decode_into(&payload.0, &mut left)
                .expect("left decode");
            dec_r
                .decode_into(&payload.1, &mut right)
                .expect("right decode");
            extractor.extract_into(&left, &mut feats_l);
            extractor.extract_into(&right, &mut feats_r);
            let n = matching::stereo_match_rectified(
                &mut feats_l.keypoints,
                &feats_l.descriptors,
                &feats_r.keypoints,
                &feats_r.descriptors,
                max_disparity,
                |d| ds.rig.depth_from_disparity(d),
                &mut stereo_scratch,
            );
            matching::match_brute_force_into(
                &feats_l.descriptors,
                &prev.descriptors,
                TH_LOW,
                0.9,
                &mut match_scratch,
                &mut matches,
            );
            assert!(n > 0, "stereo matching found nothing — test is vacuous");
            assert!(
                !matches.is_empty(),
                "frame-to-frame matching found nothing — test is vacuous"
            );
        };

    // ---- Warm-up: every buffer reaches its high-water capacity ----
    for p in &payloads[..WARM] {
        frame(p, &mut dec_l, &mut dec_r);
    }

    // ---- Measured: the same path must not touch the allocator ----
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for p in &payloads[WARM..] {
        frame(p, &mut dec_l, &mut dec_r);
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "steady-state frame path performed {delta} heap allocations over {MEASURED} frames"
    );

    // ---- Phase 2: the server's front half on a GPU-device executor ----
    // `Tracker::extract_frame` runs the same arena-backed pipeline through
    // the executor, so at one worker the only allocations left are the
    // returned features' own buffers: keypoints + descriptors, two eyes.
    use slam_share::gpu::{GpuExecutor, GpuModel};
    use slam_share::slam::tracking::{Tracker, TrackerConfig};
    const PER_FRAME_BUDGET: u64 = 4;
    let one_sm = GpuModel {
        sm_count: 1,
        ..GpuModel::v100()
    };
    let tracker = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        std::sync::Arc::new(GpuExecutor::for_model(&one_sm)),
    );
    for _ in 0..WARM {
        tracker.extract_frame(&left_src, Some(&right_src));
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        let front_end = tracker.extract_frame(&left_src, Some(&right_src));
        assert!(front_end.features.keypoints.iter().any(|k| k.has_stereo()));
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        delta <= PER_FRAME_BUDGET * MEASURED as u64,
        "GPU-device front half performed {delta} heap allocations over {MEASURED} frames \
         (budget {PER_FRAME_BUDGET} per frame)"
    );

    // ---- Phase 3: the same front half on two lanes ----
    // The eyes run side by side, one lane each and no scope inside either:
    // on top of phase 2's four buffers, one spawned thread and the
    // `par_map` stitch of the two results — 12 allocations, 14 under the
    // test harness's output capture, which every spawned thread inherits.
    // Opening a scope per batch per eye (four per frame) costs 52.
    const TWO_LANE_BUDGET: u64 = 14;
    let tracker = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        std::sync::Arc::new(GpuExecutor::cpu_with_workers(2)),
    );
    for _ in 0..WARM {
        tracker.extract_frame(&left_src, Some(&right_src));
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        let front_end = tracker.extract_frame(&left_src, Some(&right_src));
        assert!(front_end.features.keypoints.iter().any(|k| k.has_stereo()));
    }
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert!(
        delta <= TWO_LANE_BUDGET * MEASURED as u64,
        "two-lane front half performed {delta} heap allocations over {MEASURED} frames \
         (budget {TWO_LANE_BUDGET} per frame)"
    );

    // ---- Phase 4: the decoder's token path on a moving sequence ----
    // Phase 1's P-frames repeat one image and carry no tokens. Here
    // consecutive frames move, so every P-frame is validated and applied
    // token by token; the second pass over the same payloads (each pass
    // opens on its I-frame) must not touch the allocator.
    const MOVING: usize = 8;
    let moving = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(MOVING)
            .with_seed(5),
    );
    let mut enc_l = VideoEncoder::default();
    let mut enc_r = VideoEncoder::default();
    let stream: Vec<(Vec<u8>, Vec<u8>)> = (0..MOVING)
        .map(|i| {
            let (l, r) = moving.render_stereo_frame(i);
            (
                enc_l.encode(&l).data.to_vec(),
                enc_r.encode(&r).data.to_vec(),
            )
        })
        .collect();
    assert!(
        stream[1..].iter().all(|(l, r)| l.len() > 9 && r.len() > 9),
        "moving P-frames carry no tokens — phase 4 is vacuous"
    );
    let mut decode_pass = |dec_l: &mut VideoDecoder, dec_r: &mut VideoDecoder| {
        for (l, r) in &stream {
            dec_l.decode_into(l, &mut left).expect("left decode");
            dec_r.decode_into(r, &mut right).expect("right decode");
        }
    };
    decode_pass(&mut dec_l, &mut dec_r);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    decode_pass(&mut dec_l, &mut dec_r);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "decoding a moving sequence performed {delta} heap allocations over {MOVING} frames"
    );
}
