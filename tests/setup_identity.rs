//! Byte-identity pins for the two set-up kernels: the video encoder's
//! output over a fixed stream, and the serialized random vocabulary.
//!
//! Both fingerprints were recorded with the scalar implementations (a
//! per-pixel P-frame loop and a per-bit median) before they were rewritten
//! to work 16 pixels and one byte lane at a time. A rewrite that changes a
//! single output byte fails here.

use slam_share::features::GrayImage;
use slam_share::net::codec::{VideoDecoder, VideoEncoder, DEFAULT_DEADZONE};
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::vocabulary;

fn fnv1a64(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A deterministic noise image (64-bit LCG, high byte).
fn noise(width: usize, height: usize, seed: u64) -> GrayImage {
    let mut s = seed;
    GrayImage::from_fn(width, height, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 56) as u8
    })
}

/// Encodes `frames` (with a resync request before frame `resync_at`) and
/// decodes every payload, folding both the encoded bytes and the decoded
/// pixels into the two fingerprints.
fn fold_stream(
    enc: &mut VideoEncoder,
    frames: &[GrayImage],
    resync_at: Option<usize>,
    bytes_fp: &mut u64,
    pixels_fp: &mut u64,
) {
    let mut dec = VideoDecoder::new();
    for (i, f) in frames.iter().enumerate() {
        if resync_at == Some(i) {
            enc.request_iframe();
        }
        let e = enc.encode(f);
        fnv1a64(bytes_fp, &(e.data.len() as u64).to_le_bytes());
        fnv1a64(bytes_fp, &e.data);
        let (d, _) = dec.decode(&e.data).expect("encoder output decodes");
        fnv1a64(pixels_fp, &d.data);
    }
}

/// `(encoded-bytes fingerprint, decoded-pixels fingerprint)` of the golden
/// stream.
fn golden_stream() -> (u64, u64) {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::MH04)
            .with_frames(6)
            .with_seed(3),
    );
    let mut moving: Vec<GrayImage> = (0..6).map(|i| ds.render_frame(i)).collect();
    let (w, h) = (moving[0].width, moving[0].height);
    assert!(
        w * h > 2 * u16::MAX as usize,
        "a frame must hold a zero run > 65 535"
    );
    // Static except its last pixels: one zero run over the whole frame,
    // flushed in u16::MAX chunks.
    let mut static_tail = moving[5].clone();
    for v in &mut static_tail.data[w * h - 3..] {
        *v = v.wrapping_add(128);
    }
    moving.push(static_tail);
    // A 700-pixel band changes by more than the dead zone: literal groups
    // longer than 255 pixels.
    let mut band = moving[6].clone();
    for v in &mut band.data[w * 100 + 5..w * 100 + 705] {
        *v = v.wrapping_add(100);
    }
    moving.push(band);
    // An unchanged frame: a P-frame with no tokens at all.
    moving.push(moving[7].clone());

    let mut bytes_fp = FNV_OFFSET;
    let mut pixels_fp = FNV_OFFSET;
    fold_stream(
        &mut VideoEncoder::default(),
        &moving,
        Some(3),
        &mut bytes_fp,
        &mut pixels_fp,
    );
    // Widths that are not a multiple of 16, noise content, the default
    // and the extreme dead zones.
    for (deadzone, width, height) in [(DEFAULT_DEADZONE, 37, 23), (0, 53, 7), (255, 19, 5)] {
        let frames: Vec<GrayImage> = (0..5)
            .map(|i| noise(width, height, 17 + i as u64))
            .collect();
        fold_stream(
            &mut VideoEncoder::new(deadzone, 30),
            &frames,
            None,
            &mut bytes_fp,
            &mut pixels_fp,
        );
    }
    (bytes_fp, pixels_fp)
}

#[test]
fn golden_video_stream_is_byte_identical() {
    let (bytes_fp, pixels_fp) = golden_stream();
    assert_eq!(
        (bytes_fp, pixels_fp),
        (0x932e_1b4a_beb1_600f, 0x2f23_8156_3397_f5b2),
        "encoded-bytes / decoded-pixels fingerprints {bytes_fp:#018x} / {pixels_fp:#018x}"
    );
}

#[test]
fn random_vocabulary_serializes_byte_identically() {
    let json = serde_json::to_string(&vocabulary::train_random(42)).expect("serializes");
    let mut fp = FNV_OFFSET;
    fnv1a64(&mut fp, json.as_bytes());
    assert_eq!(
        (json.len(), fp),
        (89_218, 0x6550_7216_9f96_e963),
        "vocabulary JSON: {} bytes, fingerprint {fp:#018x}",
        json.len()
    );
}
