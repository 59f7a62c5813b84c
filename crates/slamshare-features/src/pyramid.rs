//! Image scale pyramids.
//!
//! ORB detects features at 8 scales separated by a factor of 1.2 so that a
//! map point remains matchable as the camera approaches or retreats. The
//! pyramid stores each downscaled level plus the cumulative scale factors
//! needed to map detections back to level-0 coordinates.

use crate::image::{ColumnTap, GrayImage};

/// Default number of pyramid levels (ORB-SLAM3's `nLevels`).
pub const DEFAULT_LEVELS: usize = 8;
/// Default scale factor between consecutive levels (ORB-SLAM3's
/// `scaleFactor`).
pub const DEFAULT_SCALE_FACTOR: f64 = 1.2;

/// A multi-scale image pyramid.
#[derive(Debug, Clone)]
pub struct ImagePyramid {
    pub levels: Vec<GrayImage>,
    /// `scale[i]` = cumulative downscale of level `i` relative to level 0
    /// (so `scale[0] == 1.0`, `scale[1] == 1.2`, ...).
    pub scales: Vec<f64>,
    pub scale_factor: f64,
    /// Column table of the level being resampled, reused level to level
    /// and frame to frame (see [`GrayImage::resize_into`]).
    columns: Vec<ColumnTap>,
}

/// A pyramid with no levels — scratch state for [`ImagePyramid::rebuild`].
impl Default for ImagePyramid {
    fn default() -> ImagePyramid {
        ImagePyramid {
            levels: Vec::new(),
            scales: Vec::new(),
            scale_factor: DEFAULT_SCALE_FACTOR,
            columns: Vec::new(),
        }
    }
}

impl ImagePyramid {
    /// Build a pyramid with the given number of levels and inter-level
    /// scale factor. Levels that would shrink below 32 pixels on a side are
    /// dropped (matching ORB-SLAM's minimum usable size).
    pub fn build(base: &GrayImage, n_levels: usize, scale_factor: f64) -> ImagePyramid {
        let mut p = ImagePyramid::default();
        p.rebuild(base, n_levels, scale_factor);
        p
    }

    /// Rebuild this pyramid for a new base frame, reusing the level
    /// buffers allocated by previous frames (video streams keep a fixed
    /// resolution, so after the first frame this allocates nothing).
    /// Output is bit-identical to [`ImagePyramid::build`].
    pub fn rebuild(&mut self, base: &GrayImage, n_levels: usize, scale_factor: f64) {
        assert!(scale_factor > 1.0, "scale factor must exceed 1");
        self.scale_factor = scale_factor;
        self.scales.clear();
        // Keep existing level images around as scratch; shrink later if
        // this frame produces fewer levels.
        let mut used = 0usize;
        let level_buf = |levels: &mut Vec<GrayImage>, used: usize| {
            if levels.len() <= used {
                levels.push(GrayImage {
                    width: 0,
                    height: 0,
                    data: Vec::new(),
                });
            }
        };
        level_buf(&mut self.levels, used);
        self.levels[used].copy_from(base);
        self.scales.push(1.0);
        used += 1;
        for i in 1..n_levels {
            let s = scale_factor.powi(i as i32);
            let w = (base.width as f64 / s).round() as usize;
            let h = (base.height as f64 / s).round() as usize;
            if w < 32 || h < 32 {
                break;
            }
            // Resample from the previous level (cheaper and closer to how
            // real pyramids cascade) rather than from the base every time.
            level_buf(&mut self.levels, used);
            let (prev, rest) = self.levels.split_at_mut(used);
            prev[used - 1].resize_into(w, h, &mut self.columns, &mut rest[0]);
            self.scales.push(s);
            used += 1;
        }
        self.levels.truncate(used);
    }

    /// Build with the ORB-SLAM default parameters (8 levels, factor 1.2).
    pub fn build_default(base: &GrayImage) -> ImagePyramid {
        Self::build(base, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR)
    }

    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Map a coordinate detected at `level` back to level-0 pixels.
    #[inline]
    pub fn to_level0(&self, x: f64, level: usize) -> f64 {
        x * self.scales[level]
    }

    /// Map a level-0 coordinate into `level` pixels.
    #[inline]
    pub fn from_level0(&self, x: f64, level: usize) -> f64 {
        x / self.scales[level]
    }

    /// Total number of pixels across all levels (used by the tracking cost
    /// model: extraction work is proportional to this).
    pub fn total_pixels(&self) -> usize {
        self.levels.iter().map(|l| l.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_levels() {
        let img = GrayImage::new(640, 480);
        let p = ImagePyramid::build_default(&img);
        assert_eq!(p.num_levels(), DEFAULT_LEVELS);
        assert_eq!(p.levels[0].width, 640);
        // Level 1 is 640/1.2 ≈ 533.
        assert!((p.levels[1].width as i64 - 533).abs() <= 1);
    }

    #[test]
    fn stops_at_minimum_size() {
        let img = GrayImage::new(64, 64);
        let p = ImagePyramid::build(&img, 16, 1.5);
        // 64 / 1.5^2 ≈ 28 < 32, so only levels 0 and 1 survive.
        assert_eq!(p.num_levels(), 2);
    }

    #[test]
    fn coordinate_roundtrip() {
        let img = GrayImage::new(320, 240);
        let p = ImagePyramid::build_default(&img);
        for lvl in 0..p.num_levels() {
            let x = 100.0;
            let up = p.to_level0(p.from_level0(x, lvl), lvl);
            assert!((up - x).abs() < 1e-9);
        }
    }

    #[test]
    fn scales_are_geometric() {
        let img = GrayImage::new(640, 480);
        let p = ImagePyramid::build_default(&img);
        for (i, s) in p.scales.iter().enumerate() {
            assert!((s - 1.2f64.powi(i as i32)).abs() < 1e-12);
        }
    }

    #[test]
    fn rebuild_matches_build_and_reuses_buffers() {
        let frame_a = GrayImage::from_fn(320, 240, |x, y| ((x * 7 + y * 13) % 251) as u8);
        let frame_b = GrayImage::from_fn(320, 240, |x, y| ((x * 3 + y * 29 + 91) % 247) as u8);
        let mut p = ImagePyramid::build_default(&frame_a);
        let cap_before: Vec<usize> = p.levels.iter().map(|l| l.data.capacity()).collect();
        p.rebuild(&frame_b, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR);
        let fresh = ImagePyramid::build_default(&frame_b);
        assert_eq!(p.num_levels(), fresh.num_levels());
        assert_eq!(p.scales, fresh.scales);
        for (got, want) in p.levels.iter().zip(&fresh.levels) {
            assert_eq!((got.width, got.height), (want.width, want.height));
            assert_eq!(got.data, want.data, "rebuild diverged from build");
        }
        // Same resolution → the level buffers were reused, not regrown.
        let cap_after: Vec<usize> = p.levels.iter().map(|l| l.data.capacity()).collect();
        assert_eq!(cap_before, cap_after);
    }

    #[test]
    fn rebuild_handles_shrinking_level_count() {
        let big = GrayImage::new(640, 480);
        let small = GrayImage::new(64, 64);
        let mut p = ImagePyramid::build_default(&big);
        assert_eq!(p.num_levels(), DEFAULT_LEVELS);
        p.rebuild(&small, 16, 1.5);
        assert_eq!(p.num_levels(), 2);
        let fresh = ImagePyramid::build(&small, 16, 1.5);
        assert_eq!(p.scales, fresh.scales);
        assert_eq!(p.levels[1].data, fresh.levels[1].data);
    }

    #[test]
    fn total_pixels_decreasing_sum() {
        let img = GrayImage::new(640, 480);
        let p = ImagePyramid::build_default(&img);
        let base = 640 * 480;
        let total = p.total_pixels();
        assert!(total > base);
        // Geometric series bound: sum < base * 1/(1 - 1/1.44) ≈ 3.27 base.
        assert!(total < base * 33 / 10);
    }
}
