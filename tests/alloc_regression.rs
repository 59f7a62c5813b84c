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
//! on a one-SM GPU-device executor — the plain front half
//! (`Tracker::extract_left`) and a keyframe's (`Tracker::extract_frame`:
//! the left eye, then the right eye and the stereo match) — to the
//! returned features' own buffers, and a third holds the two-lane route
//! to those plus one scoped spawn per extraction batch: two per eye.
//!
//! A fourth phase decodes a moving stereo sequence the way the server
//! does — through a client's ingest, whose decoders advance their
//! reference in place and lend it — so the P-frames' validate-and-apply
//! path and the I-frames' scratch swap run while counted.
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

    // ---- Phases 2–3: the server's front half through the tracker ----
    // `Tracker::extract_left` (the plain front half) and
    // `Tracker::extract_frame` (the keyframe's: the left eye, then the
    // right eye and the stereo match) run the same arena-backed pipeline
    // through the executor, one eye after the other on all its lanes.
    use slam_share::gpu::{GpuExecutor, GpuModel};
    use slam_share::slam::tracking::{Tracker, TrackerConfig};
    // Allocations per frame over the measured frames, after warm-up.
    let per_frame = |tracker: &Tracker, keyframe: bool| {
        let run = || {
            let front_end = if keyframe {
                tracker.extract_frame(&left_src, Some(&right_src))
            } else {
                tracker.extract_left(&left_src)
            };
            let stereo = front_end.features.keypoints.iter().any(|k| k.has_stereo());
            assert_eq!(
                stereo, keyframe,
                "stereo depth on a plain front half, or none on a keyframe's"
            );
        };
        for _ in 0..WARM {
            run();
        }
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for _ in 0..MEASURED {
            run();
        }
        (ALLOC_CALLS.load(Ordering::Relaxed) - before) as f64 / MEASURED as f64
    };

    // Phase 2, one lane (a one-SM GPU-device executor): the only
    // allocations left are each eye's returned features, keypoints +
    // descriptors — two for the plain front half, four for a keyframe's.
    let one_sm = GpuModel {
        sm_count: 1,
        ..GpuModel::v100()
    };
    let tracker = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        std::sync::Arc::new(GpuExecutor::for_model(&one_sm)),
    );
    for (keyframe, budget) in [(false, 2.0), (true, 4.0)] {
        let got = per_frame(&tracker, keyframe);
        println!("one lane, keyframe {keyframe}: {got} allocations per frame");
        assert!(
            got <= budget,
            "one-lane front half (keyframe {keyframe}) performed {got} heap allocations \
             per frame (budget {budget})"
        );
    }

    // Phase 3, two lanes: each eye's extraction is two batches (FAST over
    // the cells, then describe), each one scoped spawn beyond the caller's
    // own chunk. On top of phase 2's buffers, a spawn costs five
    // allocations, seven under the test harness's output capture, which
    // every spawned thread inherits: 2 + 2 × 7 = 16 for the plain front
    // half, 4 + 4 × 7 = 32 for a keyframe's.
    let tracker = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        std::sync::Arc::new(GpuExecutor::cpu_with_workers(2)),
    );
    for (keyframe, budget) in [(false, 16.0), (true, 32.0)] {
        let got = per_frame(&tracker, keyframe);
        println!("two lanes, keyframe {keyframe}: {got} allocations per frame");
        assert!(
            got <= budget,
            "two-lane front half (keyframe {keyframe}) performed {got} heap allocations \
             per frame (budget {budget})"
        );
    }

    // ---- Phase 4: the server's lent decode path on a moving sequence ----
    // Phase 1's P-frames repeat one image and carry no tokens. Here
    // consecutive frames move, so every P-frame is validated and applied
    // token by token, and each pass opens on its I-frame, which decodes
    // into the decoder's scratch and is swapped in. Two warm passes grow
    // both the reference and the scratch; the third pass over the same
    // payloads must not touch the allocator.
    use slam_share::core::ingest::{DecodeOutcome, VideoIngest};
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
    let mut ingest = VideoIngest::new();
    let decode_pass = |ingest: &mut VideoIngest| {
        for (l, r) in &stream {
            let outcome = ingest.decode(l, Some(r));
            assert!(
                matches!(outcome, DecodeOutcome::Decoded { stereo: true, .. }),
                "clean stereo frame not decoded: {outcome:?}"
            );
            assert_eq!(ingest.left().data.len(), ingest.right().data.len());
        }
    };
    decode_pass(&mut ingest);
    decode_pass(&mut ingest);
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    decode_pass(&mut ingest);
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "decoding a moving sequence performed {delta} heap allocations over {MOVING} frames"
    );
}
