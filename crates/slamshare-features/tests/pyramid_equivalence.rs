//! The pyramid's separable resampler against the per-pixel definition:
//! every level of [`ImagePyramid::rebuild`] must equal
//! `sample_bilinear(..).round()` evaluated pixel by pixel on the level
//! above it, at random sizes, contents and scale factors and at the two
//! camera resolutions the workspace streams.

use proptest::prelude::*;
use slamshare_features::image::GrayImage;
use slamshare_features::pyramid::{ImagePyramid, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR};

/// Hash-textured content: every pixel independent, full 0..=255 range.
fn textured(width: usize, height: usize, seed: u64) -> GrayImage {
    GrayImage::from_fn(width, height, |x, y| {
        let mut h = (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (y as u64).wrapping_mul(0xBF58476D1CE4E5B9)
            ^ seed.wrapping_mul(0x94D049BB133111EB);
        h ^= h >> 31;
        h = h.wrapping_mul(0xD6E8FEB86659FD93);
        h ^= h >> 29;
        h as u8
    })
}

/// One level resampled the slow way: one `sample_bilinear` per pixel.
fn reference_level(src: &GrayImage, width: usize, height: usize) -> GrayImage {
    let sx = src.width as f64 / width as f64;
    let sy = src.height as f64 / height as f64;
    GrayImage::from_fn(width, height, |x, y| {
        let src_x = (x as f64 + 0.5) * sx - 0.5;
        let src_y = (y as f64 + 0.5) * sy - 0.5;
        src.sample_bilinear(src_x, src_y).round().clamp(0.0, 255.0) as u8
    })
}

/// Compare every level of `pyramid` (rebuilt from `base`) with the
/// reference cascade, level by level.
fn check_cascade(
    pyramid: &ImagePyramid,
    base: &GrayImage,
    n_levels: usize,
    scale_factor: f64,
) -> Result<(), String> {
    let mut prev = base.clone();
    if pyramid.levels[0] != prev {
        return Err("level 0 is not the base image".into());
    }
    let mut expected_levels = 1;
    for i in 1..n_levels {
        let s = scale_factor.powi(i as i32);
        let w = (base.width as f64 / s).round() as usize;
        let h = (base.height as f64 / s).round() as usize;
        if w < 32 || h < 32 {
            break;
        }
        let want = reference_level(&prev, w, h);
        let got = pyramid
            .levels
            .get(i)
            .ok_or_else(|| format!("level {i} missing"))?;
        if *got != want {
            let (x, y) = (0..w * h)
                .find(|&p| got.data.get(p) != want.data.get(p))
                .map(|p| (p % w, p / w))
                .unwrap_or_default();
            return Err(format!(
                "{}x{} level {i} ({w}x{h}) differs at ({x}, {y})",
                base.width, base.height
            ));
        }
        prev = want;
        expected_levels += 1;
    }
    if pyramid.num_levels() != expected_levels {
        return Err(format!(
            "{} levels, expected {expected_levels}",
            pyramid.num_levels()
        ));
    }
    Ok(())
}

proptest! {
    /// Random sizes, contents, level counts and scale factors, rebuilt
    /// into one warm pyramid so the column table is reused across sizes.
    #[test]
    fn rebuild_matches_per_pixel_bilinear(
        width in 32usize..220,
        height in 32usize..160,
        seed in any::<u64>(),
        n_levels in 1usize..9,
        scale_factor in 1.05f64..2.0,
    ) {
        let base = textured(width, height, seed);
        let mut warm = ImagePyramid::build_default(&textured(97, 61, !seed));
        warm.rebuild(&base, n_levels, scale_factor);
        let checked = check_cascade(&warm, &base, n_levels, scale_factor);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// The cascades of the two stream resolutions at the default settings,
/// cold and after a warm rebuild at the other resolution.
#[test]
fn camera_resolution_cascades_match_per_pixel_bilinear() {
    let mut warm = ImagePyramid::default();
    for (i, (width, height)) in [(512, 384), (752, 480), (512, 384)].into_iter().enumerate() {
        let base = textured(width, height, i as u64);
        let cold = ImagePyramid::build_default(&base);
        warm.rebuild(&base, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR);
        assert_eq!(cold.num_levels(), DEFAULT_LEVELS);
        for pyramid in [&cold, &warm] {
            if let Err(e) = check_cascade(pyramid, &base, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR) {
                panic!("{e}");
            }
        }
    }
}
