//! The ORB extraction pipeline: one body, instrumented, whose two hot
//! loops are handed to a [`BatchRunner`].
//!
//! The paper's Fig. 5 shows ORB extraction is >50 % of tracking latency on a
//! CPU, and its GPU kernel parallelizes FAST over the image while
//! "performing identical computation as in the original CPU version"
//! (§4.2.1). Here that identity holds by construction:
//! [`OrbExtractor::extract_on`] is the only orchestration — pyramid rebuilt
//! in the [`FrameArena`], [`OrbExtractor::cells_into`], FAST and
//! score-grid NMS per cell ([`OrbExtractor::detect_cell_into`]), level
//! binning + quadtree distribution, orientation + BRIEF per survivor
//! ([`OrbExtractor::describe_keypoint`]) — and the runner decides only how
//! the two batches of pure, independent work items (cells, survivors) are
//! spread over lanes. [`Sequential`] is a plain loop (zero steady-state
//! allocations); `slamshare-gpu`'s executor fans contiguous chunks across
//! its simulated SMs, the first on the calling thread, and stitches them
//! back in item order, so every runner yields the same bits. The pyramid
//! is resampled through a per-level column table held in the arena
//! ([`crate::image::GrayImage::resize_into`]).
//!
//! One extractor serves one image stream at a time: its arena sits behind
//! a mutex, so a stereo tracker gives the right eye an extractor of its
//! own and extracts the two eyes side by side, each on a share of the
//! client's lanes.

use crate::arena::{CellScratch, FrameArena};
use crate::descriptor::Descriptor;
use crate::distribute::distribute_quadtree_into;
use crate::fast;
use crate::image::GrayImage;
use crate::keypoint::KeyPoint;
use crate::orb;
use crate::pyramid::{ImagePyramid, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR};
use slamshare_math::Vec2;
use std::time::Instant;

/// Initial FAST threshold (ORB-SLAM3's `iniThFAST`).
const FAST_THRESHOLD: u8 = 20;
/// Fallback threshold for cells where the initial one finds nothing
/// (ORB-SLAM's `minThFAST`).
const MIN_THRESHOLD: u8 = 7;

/// Features retained per image (~1000 in the paper, as in ORB-SLAM3's
/// settings files). The pyramid is [`crate::pyramid::DEFAULT_LEVELS`]
/// levels at [`crate::pyramid::DEFAULT_SCALE_FACTOR`].
const N_FEATURES: usize = 1000;
/// Detection cell edge in pixels — the GPU work-item granularity.
const CELL_SIZE: usize = 32;

/// One FAST detection work item: a cell of one pyramid level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTask {
    pub level: usize,
    pub x0: usize,
    pub y0: usize,
    pub x1: usize,
    pub y1: usize,
}

/// How a batch of independent work items is run — the one thing the
/// extraction pipeline leaves to its caller.
pub trait BatchRunner {
    /// Split `items` into contiguous chunks and call `f(chunk, lane)` once
    /// per chunk, each with its own lane. On return `lanes[i]` holds what
    /// the `i`-th chunk (in item order) produced and `lanes.len()` is the
    /// chunk count; lanes surviving from an earlier batch are handed out
    /// again so their buffers are reused, and `f` clears what it fills.
    fn for_each_chunk<T, S, F>(&self, items: &[T], lanes: &mut Vec<S>, f: F)
    where
        T: Sync,
        S: Send + Default,
        F: Fn(&[T], &mut S) + Sync;
}

/// The plain loop: one chunk, one lane, the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl BatchRunner for Sequential {
    fn for_each_chunk<T, S, F>(&self, items: &[T], lanes: &mut Vec<S>, f: F)
    where
        T: Sync,
        S: Send + Default,
        F: Fn(&[T], &mut S) + Sync,
    {
        lanes.resize_with(1, S::default);
        f(items, &mut lanes[0]);
    }
}

/// What one extraction cost, stage by stage (wall-clock milliseconds; the
/// four stages tile the call), and how much data its two batches moved.
/// These feed the Fig. 5 / Fig. 8 latency-breakdown experiments and the
/// simulated device's cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractionTimings {
    pub pyramid_ms: f64,
    /// FAST over every cell — the first batch handed to the runner.
    pub detect_ms: f64,
    /// Level binning, per-level budgets and quadtree distribution, on the
    /// calling thread between the two batches.
    pub distribute_ms: f64,
    /// Orientation + BRIEF over the survivors (the second batch), plus
    /// stitching them into the output.
    pub describe_ms: f64,
    /// Pixels over all pyramid levels: what the detect batch reads.
    pub pyramid_pixels: usize,
    /// Corners the describe batch was handed.
    pub survivors: usize,
}

impl ExtractionTimings {
    pub fn total_ms(&self) -> f64 {
        self.pyramid_ms + self.detect_ms + self.distribute_ms + self.describe_ms
    }
}

/// Extraction output: parallel arrays of keypoints (level-0 coordinates)
/// and their descriptors.
#[derive(Debug, Clone, Default)]
pub struct ExtractedFeatures {
    pub keypoints: Vec<KeyPoint>,
    pub descriptors: Vec<Descriptor>,
}

impl ExtractedFeatures {
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }

    /// Empty both arrays, keeping their capacity for the next frame.
    pub fn clear(&mut self) {
        self.keypoints.clear();
        self.descriptors.clear();
    }
}

/// The ORB feature extractor.
pub struct OrbExtractor {
    /// Per-frame buffer arena, behind a mutex so
    /// [`OrbExtractor::extract`] stays `&self` (the tracker calls it
    /// through shared references). Uncontended in practice: one extractor
    /// per eye of each client.
    arena: parking_lot::Mutex<FrameArena>,
}

impl Clone for OrbExtractor {
    fn clone(&self) -> OrbExtractor {
        // The arena is a per-instance cache; clones start cold.
        OrbExtractor::with_defaults()
    }
}

impl std::fmt::Debug for OrbExtractor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrbExtractor").finish_non_exhaustive()
    }
}

impl OrbExtractor {
    pub fn with_defaults() -> OrbExtractor {
        OrbExtractor {
            arena: parking_lot::Mutex::default(),
        }
    }

    /// Per-level feature budget, proportional to level area as in ORB-SLAM
    /// (each level gets budget ∝ 1/scale², normalized to `n_features`).
    /// `out` is overwritten. The two-pass form avoids a weights buffer;
    /// the f64 summation order matches the single-pass original.
    pub fn per_level_targets_into(&self, pyramid: &ImagePyramid, out: &mut Vec<usize>) {
        out.clear();
        let total: f64 = pyramid.scales.iter().map(|s| 1.0 / (s * s)).sum();
        for s in &pyramid.scales {
            let w = 1.0 / (s * s);
            out.push(((w / total) * N_FEATURES as f64).round().max(1.0) as usize);
        }
    }

    /// Enumerate all detection work items for a pyramid into `tasks`
    /// (overwritten), level by level.
    pub fn cells_into(&self, pyramid: &ImagePyramid, tasks: &mut Vec<CellTask>) {
        tasks.clear();
        let cs = CELL_SIZE;
        for (level, img) in pyramid.levels.iter().enumerate() {
            let mut y = 0;
            while y < img.height {
                let mut x = 0;
                while x < img.width {
                    tasks.push(CellTask {
                        level,
                        x0: x,
                        y0: y,
                        x1: (x + cs).min(img.width),
                        y1: (y + cs).min(img.height),
                    });
                    x += cs;
                }
                y += cs;
            }
        }
    }

    /// FAST alone in one cell, into `raw` (overwritten): the corners at the
    /// primary threshold, or at `MIN_THRESHOLD` when that yields nothing
    /// (low-contrast cells), mirroring ORB-SLAM. Returns whether the cell
    /// retried.
    pub fn fast_cell_into(
        &self,
        pyramid: &ImagePyramid,
        task: CellTask,
        raw: &mut Vec<KeyPoint>,
    ) -> bool {
        let img = &pyramid.levels[task.level];
        let rect0 = (task.x0, task.y0);
        let rect1 = (task.x1, task.y1);
        raw.clear();
        fast::detect_in_rect_into(img, rect0, rect1, FAST_THRESHOLD, task.level as u8, raw);
        let retry = raw.is_empty();
        if retry {
            fast::detect_in_rect_into(img, rect0, rect1, MIN_THRESHOLD, task.level as u8, raw);
        }
        retry
    }

    /// Run FAST in one cell ([`OrbExtractor::fast_cell_into`]), then the
    /// score-grid NMS. Pure: identical output regardless of execution
    /// order, so every runner agrees bit-for-bit. `scratch` is overwritten
    /// (its `raw` holds the cell's pre-NMS corners afterwards); NMS
    /// survivors are *appended* to `out` and subpixel-refined in place.
    pub fn detect_cell_into(
        &self,
        pyramid: &ImagePyramid,
        task: CellTask,
        scratch: &mut CellScratch,
        out: &mut Vec<KeyPoint>,
    ) {
        let img = &pyramid.levels[task.level];
        let rect0 = (task.x0, task.y0);
        let rect1 = (task.x1, task.y1);
        let CellScratch { raw, grid } = scratch;
        self.fast_cell_into(pyramid, task, raw);
        let kept_start = out.len();
        fast::non_max_suppress_grid_into(raw, rect0, rect1, grid, out);
        for kp in &mut out[kept_start..] {
            fast::refine_subpixel(img, kp);
        }
    }

    /// Orient and describe one detected corner (whose `pt` is still in its
    /// level's coordinates). Returns the finished level-0 keypoint and its
    /// descriptor, or `None` if the corner sits too close to the border for
    /// a stable descriptor.
    pub fn describe_keypoint(
        &self,
        pyramid: &ImagePyramid,
        kp: KeyPoint,
    ) -> Option<(KeyPoint, Descriptor)> {
        let level = kp.octave as usize;
        let img = &pyramid.levels[level];
        let (x, y) = (kp.pt.x, kp.pt.y);
        let m = orb::DESC_BORDER;
        if !img.in_interior(x as usize, y as usize, m) {
            return None;
        }
        let (angle, desc) = orb::orient_and_describe(img, x, y);
        let mut out = kp;
        out.angle = angle;
        out.pt = Vec2::new(pyramid.to_level0(x, level), pyramid.to_level0(y, level));
        Some((out, desc))
    }

    /// Sequential extraction with stage timing, reusing the extractor's
    /// internal [`FrameArena`].
    pub fn extract(&self, image: &GrayImage) -> (ExtractedFeatures, ExtractionTimings) {
        let mut features = ExtractedFeatures::default();
        let timings = self.extract_into(image, &mut features);
        (features, timings)
    }

    /// [`OrbExtractor::extract`] writing into a caller-reused output
    /// buffer. After a warm-up frame at a given resolution this path
    /// performs zero heap allocations per frame.
    pub fn extract_into(
        &self,
        image: &GrayImage,
        out: &mut ExtractedFeatures,
    ) -> ExtractionTimings {
        self.extract_on(&Sequential, image, out)
    }

    /// The extraction pipeline, its two batches run by `runner`. `out` is
    /// overwritten; the features are the same bits on every runner.
    pub fn extract_on(
        &self,
        runner: &impl BatchRunner,
        image: &GrayImage,
        out: &mut ExtractedFeatures,
    ) -> ExtractionTimings {
        let mut arena = self.arena.lock();
        let FrameArena {
            pyramid,
            tasks,
            lanes,
            raw,
            targets,
            survivors,
            distribute,
        } = &mut *arena;
        let mut timings = ExtractionTimings::default();

        let t0 = Instant::now();
        pyramid.rebuild(image, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR);
        let pyramid = &*pyramid;
        timings.pyramid_pixels = pyramid.total_pixels();
        timings.pyramid_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        self.cells_into(pyramid, tasks);
        runner.for_each_chunk(tasks, lanes, |cells, lane| {
            lane.detected.clear();
            for &task in cells {
                self.detect_cell_into(pyramid, task, &mut lane.cell, &mut lane.detected);
            }
        });
        timings.detect_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Cells are enumerated level by level and lanes hold contiguous
        // runs of them, so stitching lanes in order fills each level's bin
        // in cell order whatever the lane count.
        let t2 = Instant::now();
        raw.resize_with(pyramid.num_levels(), Vec::new);
        for bin in raw.iter_mut() {
            bin.clear();
        }
        for lane in lanes.iter() {
            for kp in &lane.detected {
                raw[kp.octave as usize].push(*kp);
            }
        }
        self.per_level_targets_into(pyramid, targets);
        survivors.clear();
        for ((kps, img), &target) in raw.iter().zip(&pyramid.levels).zip(targets.iter()) {
            distribute_quadtree_into(kps, img.width, img.height, target, distribute, survivors);
        }
        timings.survivors = survivors.len();
        timings.distribute_ms = t2.elapsed().as_secs_f64() * 1e3;

        let t3 = Instant::now();
        runner.for_each_chunk(survivors, lanes, |corners, lane| {
            lane.described.clear();
            for &kp in corners {
                if let Some((finished, desc)) = self.describe_keypoint(pyramid, kp) {
                    lane.described.keypoints.push(finished);
                    lane.described.descriptors.push(desc);
                }
            }
        });
        out.clear();
        for lane in lanes.iter() {
            out.keypoints.extend_from_slice(&lane.described.keypoints);
            out.descriptors
                .extend_from_slice(&lane.described.descriptors);
        }
        timings.describe_ms = t3.elapsed().as_secs_f64() * 1e3;
        timings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A procedurally textured image with plenty of corners.
    fn checkered(width: usize, height: usize, cell: usize) -> GrayImage {
        GrayImage::from_fn(width, height, |x, y| {
            let cx = (x / cell) as u64;
            let cy = (y / cell) as u64;
            // Mixed per-cell hash (splitmix-style) so neighbouring cells in
            // both axes get independent intensities.
            let mut h = cx.wrapping_mul(0x9E3779B97F4A7C15) ^ cy.wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 31;
            h = h.wrapping_mul(0x94D049BB133111EB);
            h ^= h >> 29;
            match h % 3 {
                0 => 220,
                1 => 40,
                _ => 130,
            }
        })
    }

    #[test]
    fn extracts_features_from_textured_image() {
        let img = checkered(320, 240, 12);
        let ex = OrbExtractor::with_defaults();
        let (features, timings) = ex.extract(&img);
        assert!(features.len() > 100, "only {} features", features.len());
        assert!(features.len() <= N_FEATURES + 64);
        assert_eq!(features.keypoints.len(), features.descriptors.len());
        assert!(timings.total_ms() > 0.0);
    }

    #[test]
    fn blank_image_yields_nothing() {
        let img = GrayImage::filled(320, 240, 100);
        let ex = OrbExtractor::with_defaults();
        let (features, _) = ex.extract(&img);
        assert!(features.is_empty());
    }

    #[test]
    fn keypoints_in_level0_bounds() {
        let img = checkered(320, 240, 10);
        let ex = OrbExtractor::with_defaults();
        let (features, _) = ex.extract(&img);
        for kp in &features.keypoints {
            assert!(kp.pt.x >= 0.0 && kp.pt.x < 320.0);
            assert!(kp.pt.y >= 0.0 && kp.pt.y < 240.0);
        }
    }

    #[test]
    fn warm_scratch_matches_cold_extractor_exactly() {
        // Frame-to-frame buffer reuse must not change a single bit of
        // output, including after a resolution change.
        let frames = [
            checkered(320, 240, 12),
            checkered(320, 240, 10),
            checkered(256, 192, 9),
        ];
        let warm = OrbExtractor::with_defaults();
        for (i, img) in frames.iter().enumerate() {
            let (got, _) = warm.extract(img);
            let (want, _) = OrbExtractor::with_defaults().extract(img);
            assert_eq!(got.keypoints, want.keypoints, "frame {i} keypoints");
            assert_eq!(got.descriptors, want.descriptors, "frame {i} descriptors");
        }
        // Same frame twice through the same extractor: identical.
        let (a, _) = warm.extract(&frames[0]);
        let (b, _) = warm.extract(&frames[0]);
        assert_eq!(a.keypoints, b.keypoints);
        assert_eq!(a.descriptors, b.descriptors);
    }

    #[test]
    fn cell_tasks_tile_every_level() {
        let img = GrayImage::new(320, 240);
        let ex = OrbExtractor::with_defaults();
        let pyr = ImagePyramid::build(&img, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR);
        let mut tasks = Vec::new();
        ex.cells_into(&pyr, &mut tasks);
        // Each level's cells must cover its full area exactly once.
        for (level, li) in pyr.levels.iter().enumerate() {
            let area: usize = tasks
                .iter()
                .filter(|t| t.level == level)
                .map(|t| (t.x1 - t.x0) * (t.y1 - t.y0))
                .sum();
            assert_eq!(area, li.width * li.height, "level {level} cover");
        }
    }

    #[test]
    fn per_level_budgets_sum_close_to_total() {
        let img = GrayImage::new(640, 480);
        let ex = OrbExtractor::with_defaults();
        let pyr = ImagePyramid::build_default(&img);
        let mut targets = Vec::new();
        ex.per_level_targets_into(&pyr, &mut targets);
        let sum: usize = targets.iter().sum();
        let n = N_FEATURES;
        assert!(sum >= n * 95 / 100 && sum <= n * 105 / 100, "sum = {sum}");
        // Budgets decrease with level (coarser levels get fewer).
        for w in targets.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn parallel_order_independence() {
        // Processing cells in any order must give the same final feature
        // set — the property that makes GPU scheduling legal.
        let img = checkered(256, 192, 9);
        let ex = OrbExtractor::with_defaults();
        let pyr = ImagePyramid::build(&img, DEFAULT_LEVELS, DEFAULT_SCALE_FACTOR);

        let mut tasks = Vec::new();
        ex.cells_into(&pyr, &mut tasks);
        let mut scratch = CellScratch::default();
        let mut raw_fwd: Vec<Vec<KeyPoint>> = vec![Vec::new(); pyr.num_levels()];
        for t in &tasks {
            ex.detect_cell_into(&pyr, *t, &mut scratch, &mut raw_fwd[t.level]);
        }
        let mut raw_rev: Vec<Vec<KeyPoint>> = vec![Vec::new(); pyr.num_levels()];
        for t in tasks.iter().rev() {
            ex.detect_cell_into(&pyr, *t, &mut scratch, &mut raw_rev[t.level]);
        }
        // Same multiset per level (order differs).
        for (f, r) in raw_fwd.iter().zip(&raw_rev) {
            assert_eq!(f.len(), r.len());
            let mut fs: Vec<_> = f
                .iter()
                .map(|k| (k.pt.x.to_bits(), k.pt.y.to_bits()))
                .collect();
            let mut rs: Vec<_> = r
                .iter()
                .map(|k| (k.pt.x.to_bits(), k.pt.y.to_bits()))
                .collect();
            fs.sort();
            rs.sort();
            assert_eq!(fs, rs);
        }
    }
}
