//! FAST segment-test corner detection.
//!
//! FAST (Features from Accelerated Segment Test, Rosten & Drummond 2006)
//! examines the 16-pixel Bresenham circle of radius 3 around a candidate
//! pixel `p`. `p` is a corner if at least [`ARC_LEN`] *contiguous* circle
//! pixels are all brighter than `I(p) + t` or all darker than `I(p) − t`.
//!
//! The paper's key GPU kernel parallelizes exactly this test over image
//! cells ("the parallelization of FAST corner detection with the GPU",
//! §4.2.1); [`detect_in_rect_into`] followed by
//! [`non_max_suppress_grid_into`] is the pure per-cell work item that
//! `slamshare-gpu` schedules.
//!
//! On the CPU the test runs at SIMD width: [`detect_in_rect_into`] takes
//! each row in blocks of 16 pixels held as byte lanes, written as
//! `[i8; 16]` arrays with lane-by-lane loops that LLVM lowers to SSE2 on
//! baseline x86-64 — portable, safe Rust, with no intrinsics and no build
//! flag. Its output is bit-identical to the per-pixel ring walk kept as
//! the test oracle `is_corner`. The lowering is sensitive to how the lane
//! loops are written, so `BENCH_frame`'s gated `fast_p95_ms` times the
//! kernel alone.

use crate::image::GrayImage;
use crate::keypoint::KeyPoint;
use slamshare_math::Vec2;

/// Bresenham circle of radius 3, clockwise from 12 o'clock — the classic
/// FAST-16 sampling pattern.
pub const CIRCLE: [(isize, isize); 16] = [
    (0, -3),
    (1, -3),
    (2, -2),
    (3, -1),
    (3, 0),
    (3, 1),
    (2, 2),
    (1, 3),
    (0, 3),
    (-1, 3),
    (-2, 2),
    (-3, 1),
    (-3, 0),
    (-3, -1),
    (-2, -2),
    (-1, -3),
];

/// Required contiguous arc length. We use the 9-16 variant (as OpenCV's
/// `FastFeatureDetector::TYPE_9_16`, which ORB builds on): FAST-12 cannot
/// fire on an exact axis-aligned 90° corner because only 11 of the 16
/// circle pixels lie outside the corner wedge.
pub const ARC_LEN: usize = 9;

/// Border margin inside which the circle fits entirely.
pub const BORDER: usize = 3;

/// Corner response: the sum of absolute differences between the centre
/// and all 16 circle pixels (not only those past the threshold), summed in
/// integers. At most 16·255, so it fits a `u16`.
#[inline]
fn corner_score(vals: &[u8; 16], p: u8) -> u16 {
    vals.iter().map(|&v| u16::from(v.abs_diff(p))).sum()
}

/// Pixels per block: one 128-bit register of byte lanes, which is SSE2 on
/// baseline x86-64.
const LANES: usize = 16;

/// Rows of the window a block reads: the ring spans `y − 3 ..= y + 3`.
const WINDOW_ROWS: usize = 2 * BORDER + 1;

/// The narrowest row one block reads in place: 16 lanes plus the ring's
/// reach on either side. Narrower images are copied into a padded window
/// on the stack.
const MIN_ROW: usize = LANES + 2 * BORDER;

/// One block of 16 consecutive pixels of a row, one per byte lane, with
/// each pixel's sign bit flipped: `p ^ 0x80` read as an `i8`. That maps
/// `0..=255` onto `−128..=127` in order, so an unsigned `>` on pixels is a
/// signed `>` on lanes, which SSE2 does in one `pcmpgtb`. Differences are
/// unchanged.
type Lanes = [i8; LANES];

/// A pixel as a lane value.
#[inline(always)]
fn flip(p: u8) -> i8 {
    (p ^ 0x80) as i8
}

/// `f` applied lane by lane.
#[inline(always)]
fn lanewise(a: &Lanes, b: &Lanes, f: impl Fn(i8, i8) -> i8) -> Lanes {
    let mut r = [0; LANES];
    for ((r, &a), &b) in r.iter_mut().zip(a).zip(b) {
        *r = f(a, b);
    }
    r
}

/// Per-lane `a > b`, as a lane mask (`−1` / `0`).
#[inline(always)]
fn gt(a: &Lanes, b: &Lanes) -> Lanes {
    lanewise(a, b, |a, b| -i8::from(a > b))
}

/// Per-lane bitwise or.
#[inline(always)]
fn or(a: &Lanes, b: &Lanes) -> Lanes {
    lanewise(a, b, |a, b| a | b)
}

/// The lanes where two of the compass masks `[a, b, c, d]` (ring pixels
/// 0/4/8/12) that are neighbours around the ring are both set. Each pair
/// is tested by summing its masks (`−1` each): as `i1` logic, LLVM moves
/// the masks out to scalar registers.
#[inline(always)]
fn adjacent_pair(a: &Lanes, b: &Lanes, c: &Lanes, d: &Lanes) -> Lanes {
    let mut r = [0; LANES];
    for (i, r) in r.iter_mut().enumerate() {
        *r = -i8::from(
            (a[i] + b[i] < -1) | (b[i] + c[i] < -1) | (c[i] + d[i] < -1) | (d[i] + a[i] < -1),
        );
    }
    r
}

/// True iff any lane is non-zero: an or-reduction, which on a lane mask
/// is `pmovmskb` and a test.
#[inline(always)]
fn any_set(v: &Lanes) -> bool {
    v.iter().fold(0, |acc, &x| acc | x) != 0
}

/// The 16 pixels of `win` from `at`.
#[inline(always)]
fn pixels(win: &[u8], at: usize) -> &[u8] {
    &win[at..at + LANES]
}

/// The 16 pixels of `win` from `at`, as lanes.
#[inline(always)]
fn load(win: &[u8], at: usize) -> Lanes {
    let mut v = [0; LANES];
    for (v, &p) in v.iter_mut().zip(pixels(win, at)) {
        *v = flip(p);
    }
    v
}

/// The lanes whose ring holds a circular run of at least [`ARC_LEN`]
/// pixels all brighter than `hi` or all darker than `lo`, as a lane mask:
/// per lane, a bright and a dark run counter go around the ring and over
/// its first `ARC_LEN` entries again, resetting where their test fails,
/// and keep their maxima — the circular runs the per-pixel walk finds.
#[inline(always)]
fn arc_lanes(ring: &[Lanes; 16], hi: &Lanes, lo: &Lanes) -> Lanes {
    let (mut bright, mut dark) = ([0; LANES], [0; LANES]);
    let (mut best_bright, mut best_dark) = ([0; LANES], [0; LANES]);
    // Counters stay within 0..=25, so the unsigned max (SSE2's `pmaxub`;
    // the signed one is SSE4.1) gives the same value.
    for i in 0..16 + ARC_LEN {
        let v = &ring[i % 16];
        bright = lanewise(&bright, &gt(v, hi), |r, m| (r + 1) & m);
        dark = lanewise(&dark, &gt(lo, v), |r, m| (r + 1) & m);
        best_bright = lanewise(&best_bright, &bright, |b, r| (b as u8).max(r as u8) as i8);
        best_dark = lanewise(&best_dark, &dark, |b, r| (b as u8).max(r as u8) as i8);
    }
    let arc = [ARC_LEN as i8 - 1; LANES];
    or(&gt(&best_bright, &arc), &gt(&best_dark, &arc))
}

/// Detect corners inside the half-open pixel rectangle
/// `[x0, x1) × [y0, y1)` of `img`, appending to `out`. Pure function of
/// its inputs — this is the unit of work the simulated GPU schedules
/// across its SMs.
///
/// `octave` is recorded on the keypoints; coordinates are in the *given
/// image's* pixel space (the extractor rescales to level 0 afterwards).
///
/// Each row is tested in blocks of 16 consecutive pixels held as byte
/// lanes. The thresholds are per-lane saturating `u8` sums, every compare
/// is a signed byte compare on sign-flipped lanes, and the compass
/// pretest (two neighbouring ones of ring pixels 0/4/8/12 both brighter
/// or both darker) skips a block none of whose lanes passes it. A
/// surviving block loads the whole ring and counts runs lane by lane
/// (`arc_lanes`); corner lanes are scored
/// as a `u16` sum and emitted lowest lane first, so the output is in
/// raster order. A row's last block is shifted left to end at
/// `width − 3` with its leading lanes masked off; an image too narrow for
/// one block is padded on the stack. Detections and scores are
/// bit-identical to the per-pixel ring walk kept as the test oracle
/// `is_corner`.
pub fn detect_in_rect_into(
    img: &GrayImage,
    (x0, y0): (usize, usize),
    (x1, y1): (usize, usize),
    threshold: u8,
    octave: u8,
    out: &mut Vec<KeyPoint>,
) {
    let x0 = x0.max(BORDER);
    let y0 = y0.max(BORDER);
    let x1 = x1.min(img.width.saturating_sub(BORDER));
    let y1 = y1.min(img.height.saturating_sub(BORDER));
    if x1 <= x0 || y1 <= y0 {
        return;
    }
    let w = img.width;
    let stride = w.max(MIN_ROW);
    // Each ring pixel's offset from the top-left of a block's window
    // (block start − 3, row y − 3), in CIRCLE order; then the centre's.
    let ring_at = CIRCLE.map(|(dx, dy)| (dy + 3) as usize * stride + (dx + 3) as usize);
    let centre_at = BORDER * stride + BORDER;
    // The rightmost block start: the block then ends at `stride − 3`.
    let last = stride - BORDER - LANES;
    let mut pad = [0u8; WINDOW_ROWS * MIN_ROW];
    for y in y0..y1 {
        let win: &[u8] = if w >= MIN_ROW {
            &img.data[(y - BORDER) * w..(y + BORDER + 1) * w]
        } else {
            for (r, dst) in pad.chunks_exact_mut(MIN_ROW).enumerate() {
                let src = (y - BORDER + r) * w;
                dst[..w].copy_from_slice(&img.data[src..src + w]);
            }
            &pad
        };
        let mut start = x0;
        while start < x1 {
            let bx = start.min(last);
            // Lanes `first..end` of the block are this pass's pixels: the
            // ones before were tested by the previous block, and those at
            // or past `x1` belong to the next cell.
            let (first, end) = (start - bx, (x1 - bx).min(LANES));
            start += LANES;
            let at = bx - BORDER;
            let centre = pixels(win, at + centre_at);
            let mut hi = [0; LANES];
            let mut lo = [0; LANES];
            for ((hi, lo), &c) in hi.iter_mut().zip(&mut lo).zip(centre) {
                *hi = flip(c.saturating_add(threshold));
                *lo = flip(c.saturating_sub(threshold));
            }
            // Compass pretest: 9 contiguous ring pixels include two
            // neighbouring compass pixels (0/4, 4/8, 8/12 or 12/0). The
            // oracle's looser "any 2 of the 4" is necessary too, so both
            // leave the same corners to the segment test.
            let [n, e, s, west] = [0, 4, 8, 12].map(|i| load(win, at + ring_at[i]));
            let candidate = or(
                &adjacent_pair(&gt(&n, &hi), &gt(&e, &hi), &gt(&s, &hi), &gt(&west, &hi)),
                &adjacent_pair(&gt(&lo, &n), &gt(&lo, &e), &gt(&lo, &s), &gt(&lo, &west)),
            );
            if !any_set(&candidate) {
                continue;
            }
            let ring = ring_at.map(|o| load(win, at + o));
            let corner = arc_lanes(&ring, &hi, &lo);
            if !any_set(&corner) {
                continue;
            }
            // The score re-reads the ring: with `ring` kept alive for it,
            // LLVM lowers the run counter to scalar code.
            let mut score = [0u16; LANES];
            for &o in &ring_at {
                for ((s, &v), &c) in score.iter_mut().zip(pixels(win, at + o)).zip(centre) {
                    *s += u16::from(v.abs_diff(c));
                }
            }
            for lane in first..end {
                if corner[lane] != 0 {
                    let pt = Vec2::new((bx + lane) as f64, y as f64);
                    out.push(KeyPoint::new(pt, octave, f64::from(score[lane])));
                }
            }
        }
    }
}

/// The corner score at an arbitrary pixel (no segment test): SAD between
/// the center and its circle. Used by subpixel refinement, which needs
/// scores at the neighbours of a detected corner whether or not they pass
/// the segment test themselves.
pub fn score_at(img: &GrayImage, x: usize, y: usize) -> f64 {
    if !img.in_interior(x, y, BORDER) {
        return 0.0;
    }
    let vals =
        CIRCLE.map(|(dx, dy)| img.get((x as isize + dx) as usize, (y as isize + dy) as usize));
    f64::from(corner_score(&vals, img.get(x, y)))
}

/// Refine a corner to subpixel precision by fitting a 1D parabola to the
/// corner-score profile along each axis. Integer-grid detection carries
/// ±0.5 px quantization noise which otherwise accumulates into visual-
/// odometry drift and stereo-depth error; the parabola peak recovers the
/// fractional offset (clamped to ±0.5).
pub fn refine_subpixel(img: &GrayImage, kp: &mut KeyPoint) {
    let x = kp.pt.x.round() as usize;
    let y = kp.pt.y.round() as usize;
    if !img.in_interior(x, y, BORDER + 1) {
        return;
    }
    let c = score_at(img, x, y);
    let lx = score_at(img, x - 1, y);
    let rx = score_at(img, x + 1, y);
    let uy = score_at(img, x, y - 1);
    let dy = score_at(img, x, y + 1);
    let peak = |lo: f64, mid: f64, hi: f64| -> f64 {
        let denom = lo - 2.0 * mid + hi;
        if denom.abs() < 1e-9 {
            0.0
        } else {
            (0.5 * (lo - hi) / denom).clamp(-0.5, 0.5)
        }
    };
    kp.pt = Vec2::new(x as f64 + peak(lx, c, rx), y as f64 + peak(uy, c, dy));
}

/// Chebyshev radius of the non-maximum suppression window (7×7).
const NMS_RADIUS: usize = 3;

/// Largest FAST score: the SAD of the 16 ring pixels against the centre.
const MAX_SCORE: f64 = (16 * 255) as f64;

/// Non-maximum suppression of one cell's corners over a score grid,
/// appending survivors to `out`. `corners` are what
/// [`detect_in_rect_into`] emitted for the rect `[x0, x1) × [y0, y1)`:
/// integer positions in raster order with integer scores in
/// `1..=16·255`. A corner survives unless a neighbour within Chebyshev
/// distance 3 scores strictly higher, or equally and earlier in raster
/// order.
///
/// Each corner writes its score at its position in the cell-local `grid`
/// (the rect plus a 3-px apron, so windows never wrap), then reads its
/// 7×7 window: O(n) where comparing every pair was O(n²). The output is
/// exactly the pairwise rule's, whose tie-break prefers the earlier corner
/// of the list, because the list is in raster order and no two corners
/// share a position. A score of 0 marks an empty pixel (a FAST corner
/// scores at least 9·8). `grid` is scratch that is all zero between
/// calls: it grows to the largest cell seen, and only the entries written
/// are reset.
pub fn non_max_suppress_grid_into(
    corners: &[KeyPoint],
    (x0, y0): (usize, usize),
    (x1, y1): (usize, usize),
    grid: &mut Vec<u16>,
    out: &mut Vec<KeyPoint>,
) {
    if corners.is_empty() {
        return;
    }
    let r = NMS_RADIUS;
    let gw = x1 - x0 + 2 * r;
    let cells = gw * (y1 - y0 + 2 * r);
    if grid.len() < cells {
        grid.resize(cells, 0);
    }
    let at = |kp: &KeyPoint| {
        debug_assert!((x0 as f64..x1 as f64).contains(&kp.pt.x));
        debug_assert!((y0 as f64..y1 as f64).contains(&kp.pt.y));
        (kp.pt.y as usize - y0 + r) * gw + (kp.pt.x as usize - x0 + r)
    };
    for kp in corners {
        debug_assert!(kp.response >= 1.0 && kp.response <= MAX_SCORE);
        debug_assert_eq!(kp.response.fract(), 0.0);
        grid[at(kp)] = kp.response as u16;
    }
    for kp in corners {
        let c = at(kp);
        let score = grid[c];
        let row = |centre: usize| &grid[centre - r..=centre + r];
        // The rows above and the left half of its own row come earlier in
        // raster order, so an equal score there suppresses it as well.
        let suppressed = (1..=r).any(|d| row(c - d * gw).iter().any(|&g| g >= score))
            || grid[c - r..c].iter().any(|&g| g >= score)
            || grid[c + 1..=c + r].iter().any(|&g| g > score)
            || (1..=r).any(|d| row(c + d * gw).iter().any(|&g| g > score));
        if !suppressed {
            out.push(*kp);
        }
    }
    for kp in corners {
        grid[at(kp)] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Oracle for the segment test: classify one pixel by walking the
    /// doubled circle. Returns the corner score if the test passes.
    fn is_corner(img: &GrayImage, x: usize, y: usize, threshold: u8) -> Option<f64> {
        if !img.in_interior(x, y, BORDER) {
            return None;
        }
        let p = img.get(x, y) as i16;
        let t = threshold as i16;
        let hi = p + t;
        let lo = p - t;

        // High-speed pretest on the 4 compass points: a contiguous arc of 9
        // always covers at least 2 of the 4 points spaced 4 apart, so fewer
        // than 2 consistent compass pixels rules the corner out.
        let compass = [CIRCLE[0], CIRCLE[4], CIRCLE[8], CIRCLE[12]];
        let mut brighter = 0;
        let mut darker = 0;
        for &(dx, dy) in &compass {
            let v = img.get((x as isize + dx) as usize, (y as isize + dy) as usize) as i16;
            if v > hi {
                brighter += 1;
            } else if v < lo {
                darker += 1;
            }
        }
        if brighter < 2 && darker < 2 {
            return None;
        }

        // Full segment test: walk the doubled circle looking for a contiguous
        // run of ARC_LEN brighter (or darker) pixels.
        let mut vals = [0i16; 16];
        for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
            vals[i] = img.get((x as isize + dx) as usize, (y as isize + dy) as usize) as i16;
        }
        let mut run_bright = 0usize;
        let mut run_dark = 0usize;
        let mut found = false;
        for i in 0..(16 + ARC_LEN) {
            let v = vals[i % 16];
            if v > hi {
                run_bright += 1;
                run_dark = 0;
            } else if v < lo {
                run_dark += 1;
                run_bright = 0;
            } else {
                run_bright = 0;
                run_dark = 0;
            }
            if run_bright >= ARC_LEN || run_dark >= ARC_LEN {
                found = true;
                break;
            }
        }
        if !found {
            return None;
        }
        Some(vals.iter().map(|&v| (v - p).abs() as f64).sum())
    }

    /// [`detect_in_rect_into`] collecting into a fresh vec.
    fn detect_in_rect(
        img: &GrayImage,
        (x0, y0): (usize, usize),
        (x1, y1): (usize, usize),
        threshold: u8,
        octave: u8,
    ) -> Vec<KeyPoint> {
        let mut out = Vec::new();
        detect_in_rect_into(img, (x0, y0), (x1, y1), threshold, octave, &mut out);
        out
    }

    /// Oracle for [`non_max_suppress_grid_into`]: every pair of corners
    /// compared, O(n²). A corner survives unless a strictly stronger corner,
    /// or an equal one earlier in `corners`, lies within a Chebyshev distance
    /// of `radius` pixels.
    fn non_max_suppress_into(corners: &[KeyPoint], radius: f64, out: &mut Vec<KeyPoint>) {
        'outer: for (i, a) in corners.iter().enumerate() {
            for (j, b) in corners.iter().enumerate() {
                if i == j {
                    continue;
                }
                let close = (a.pt.x - b.pt.x).abs() <= radius && (a.pt.y - b.pt.y).abs() <= radius;
                if close && (b.response > a.response || (b.response == a.response && j < i)) {
                    continue 'outer;
                }
            }
            out.push(*a);
        }
    }

    /// [`non_max_suppress_into`] collecting into a fresh vec.
    fn non_max_suppress(corners: &[KeyPoint], radius: f64) -> Vec<KeyPoint> {
        let mut keep = Vec::new();
        non_max_suppress_into(corners, radius, &mut keep);
        keep
    }

    /// Hashed per-pixel noise: dense FAST corners with uneven scores.
    fn noise_image(width: usize, height: usize) -> GrayImage {
        GrayImage::from_fn(width, height, |x, y| {
            let mut h = (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (y as u64).wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 31;
            h = h.wrapping_mul(0x94D049BB133111EB);
            (h >> 32) as u8
        })
    }

    /// The grid NMS of one rect's corners, checked against the pairwise
    /// oracle; `grid` must come back all zero.
    fn grid_matches_pairwise(
        corners: &[KeyPoint],
        rect0: (usize, usize),
        rect1: (usize, usize),
        grid: &mut Vec<u16>,
    ) -> Result<(), TestCaseError> {
        let mut got = Vec::new();
        non_max_suppress_grid_into(corners, rect0, rect1, grid, &mut got);
        prop_assert_eq!(got, non_max_suppress(corners, NMS_RADIUS as f64));
        prop_assert!(grid.iter().all(|&g| g == 0), "grid not reset");
        Ok(())
    }

    /// A bright square on a dark background: its corners are FAST corners.
    fn square_image() -> GrayImage {
        GrayImage::from_fn(40, 40, |x, y| {
            if (10..30).contains(&x) && (10..30).contains(&y) {
                220
            } else {
                30
            }
        })
    }

    #[test]
    fn detects_square_corners() {
        let img = square_image();
        let kps = detect_in_rect(&img, (0, 0), (40, 40), 40, 0);
        assert!(!kps.is_empty(), "no corners found");
        // Every detection should be near one of the 4 square corners, and
        // all 4 corners should attract detections.
        let corners = [(10.0, 10.0), (29.0, 10.0), (10.0, 29.0), (29.0, 29.0)];
        let mut seen = [false; 4];
        for kp in &kps {
            let mut near_any = false;
            for (i, &(cx, cy)) in corners.iter().enumerate() {
                if (kp.pt.x - cx).abs() <= 3.0 && (kp.pt.y - cy).abs() <= 3.0 {
                    near_any = true;
                    seen[i] = true;
                }
            }
            assert!(near_any, "spurious corner at {:?}", kp.pt);
        }
        assert!(seen.iter().all(|&s| s), "missing square corners: {seen:?}");
    }

    #[test]
    fn flat_image_has_no_corners() {
        let img = GrayImage::filled(50, 50, 128);
        assert!(detect_in_rect(&img, (0, 0), (50, 50), 20, 0).is_empty());
    }

    #[test]
    fn straight_edge_is_not_a_corner() {
        // A vertical step edge: only the circle pixels across the edge
        // differ from the centre, at most 7 of the 16 — no 9-contiguous
        // arc, so FAST-9/16 rejects every pixel.
        let img = GrayImage::from_fn(40, 40, |x, _| if x < 20 { 30 } else { 220 });
        let kps = detect_in_rect(&img, (0, 0), (40, 40), 40, 0);
        assert!(kps.is_empty(), "edge misdetected as corner: {kps:?}");
    }

    #[test]
    fn threshold_gates_detection() {
        let img = GrayImage::from_fn(40, 40, |x, y| {
            if (10..30).contains(&x) && (10..30).contains(&y) {
                140
            } else {
                100
            }
        });
        // Contrast is 40; a threshold of 50 must see nothing.
        assert!(detect_in_rect(&img, (0, 0), (40, 40), 50, 0).is_empty());
        assert!(!detect_in_rect(&img, (0, 0), (40, 40), 20, 0).is_empty());
    }

    #[test]
    fn rect_bounds_respected() {
        let img = square_image();
        // Only scan the left half: corners at x=29 must not appear.
        let kps = detect_in_rect(&img, (0, 0), (20, 40), 40, 0);
        assert!(kps.iter().all(|kp| kp.pt.x < 20.0));
    }

    /// The oracle over a rect: every pixel of `[x0, x1) × [y0, y1)` through
    /// [`is_corner`], in raster order.
    fn oracle_detect(
        img: &GrayImage,
        (x0, y0): (usize, usize),
        (x1, y1): (usize, usize),
        threshold: u8,
        octave: u8,
    ) -> Vec<KeyPoint> {
        let mut want = Vec::new();
        for y in y0..y1.min(img.height) {
            for x in x0..x1.min(img.width) {
                if let Some(score) = is_corner(img, x, y, threshold) {
                    want.push(KeyPoint::new(Vec2::new(x as f64, y as f64), octave, score));
                }
            }
        }
        want
    }

    /// [`detect_in_rect_into`] against [`oracle_detect`]: the same corners
    /// in the same order, with the same octave and score bits.
    fn blocks_match_oracle(
        img: &GrayImage,
        rect0: (usize, usize),
        rect1: (usize, usize),
        threshold: u8,
    ) -> Result<(), TestCaseError> {
        let got = detect_in_rect(img, rect0, rect1, threshold, 5);
        let want = oracle_detect(img, rect0, rect1, threshold, 5);
        let key = |kps: &[KeyPoint]| -> Vec<_> {
            kps.iter()
                .map(|k| (k.pt.x, k.pt.y, k.octave, k.response.to_bits()))
                .collect()
        };
        prop_assert_eq!(
            key(&got),
            key(&want),
            "{}x{} image, rect {:?}..{:?}, threshold {}",
            img.width,
            img.height,
            rect0,
            rect1,
            threshold
        );
        Ok(())
    }

    #[test]
    fn masked_detector_matches_scalar_reference() {
        // Pseudo-random textured image, whole and in 32-px cells.
        let img = noise_image(60, 47);
        for threshold in [5u8, 20, 60] {
            blocks_match_oracle(&img, (0, 0), (img.width, img.height), threshold).unwrap();
            for y0 in (0..img.height).step_by(32) {
                for x0 in (0..img.width).step_by(32) {
                    blocks_match_oracle(&img, (x0, y0), (x0 + 32, y0 + 32), threshold).unwrap();
                }
            }
        }
    }

    #[test]
    fn narrow_images_are_exact() {
        // Narrower than one block plus the ring, down to no interior at all.
        for width in 1..=23 {
            for height in [1, 6, 7, 9] {
                let img = noise_image(width, height);
                for threshold in [0u8, 5, 20] {
                    blocks_match_oracle(&img, (0, 0), (width, height), threshold).unwrap();
                }
            }
        }
    }

    #[test]
    fn nms_keeps_strongest() {
        let mk = |x: f64, y: f64, r: f64| KeyPoint::new(Vec2::new(x, y), 0, r);
        let kps = vec![
            mk(10.0, 10.0, 5.0),
            mk(11.0, 10.0, 9.0),
            mk(30.0, 30.0, 2.0),
        ];
        let kept = non_max_suppress(&kps, 2.0);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|k| k.response == 9.0));
        assert!(kept.iter().any(|k| k.response == 2.0));
        grid_matches_pairwise(&kps, (3, 3), (37, 37), &mut Vec::new()).unwrap();
    }

    #[test]
    fn nms_tie_break_is_deterministic() {
        let mk = |x: f64, r: f64| KeyPoint::new(Vec2::new(x, 0.0), 0, r);
        let kps = vec![mk(0.0, 5.0), mk(1.0, 5.0)];
        let kept = non_max_suppress(&kps, 2.0);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].pt.x, 0.0);
        // The grid agrees, also when the equal rival is on a later row but
        // further left.
        let later_row = [mk(3.0, 5.0), KeyPoint::new(Vec2::new(0.0, 3.0), 0, 5.0)];
        assert_eq!(non_max_suppress(&later_row, 3.0), [later_row[0]]);
        let mut grid = Vec::new();
        for corners in [&kps[..], &later_row[..]] {
            grid_matches_pairwise(corners, (0, 0), (8, 4), &mut grid).unwrap();
        }
    }

    #[test]
    fn grid_nms_empty_and_single_corner_cells() {
        let mut grid = Vec::new();
        grid_matches_pairwise(&[], (0, 0), (32, 32), &mut grid).unwrap();
        grid_matches_pairwise(&[], (3, 3), (3, 3), &mut grid).unwrap();
        for (x, y) in [
            (3.0, 3.0),
            (34.0, 3.0),
            (3.0, 34.0),
            (34.0, 34.0),
            (17.0, 20.0),
        ] {
            let one = [KeyPoint::new(Vec2::new(x, y), 0, 4080.0)];
            grid_matches_pairwise(&one, (3, 3), (35, 35), &mut grid).unwrap();
        }
    }

    #[test]
    fn grid_nms_matches_pairwise_on_detected_cells() {
        // Every 32-px cell of a noise image (edge cells narrower, border
        // cells clipped by BORDER) at thresholds dense and sparse, through
        // one grid reused across cells of different sizes.
        let img = noise_image(100, 77);
        let mut grid = Vec::new();
        let mut raw = Vec::new();
        for threshold in [5u8, 20, 60] {
            for y0 in (0..img.height).step_by(32) {
                for x0 in (0..img.width).step_by(32) {
                    let rect1 = ((x0 + 32).min(img.width), (y0 + 32).min(img.height));
                    raw.clear();
                    detect_in_rect_into(&img, (x0, y0), rect1, threshold, 0, &mut raw);
                    grid_matches_pairwise(&raw, (x0, y0), rect1, &mut grid).unwrap();
                }
            }
        }
    }

    proptest! {
        /// The block kernel against the per-pixel oracle on random images
        /// 7..=80 px wide (below, at and above one block plus the ring) and
        /// 7..=40 tall, over random rects (empty, clipped by `BORDER`,
        /// partial cells, so row spans end at every lane offset), at the
        /// thresholds {0, 1, 7, 20, 254, 255} and a random one. Pixels
        /// are drawn near 0 and 255 and exactly `t` or `t ± 1` from a base
        /// level, which probes the saturating thresholds and the strict `>`.
        #[test]
        fn block_detector_matches_oracle_on_random_images(
            size in (7usize..81, 7usize..41),
            base in any::<u8>(),
            design in 0usize..7,
            extra in any::<u8>(),
            draws in proptest::collection::vec((0u8..7, any::<u8>()), 80 * 40),
            rects in proptest::collection::vec(
                (0usize..84, 0usize..44, 0usize..40, 0usize..24),
                1..6,
            ),
        ) {
            let (width, height) = size;
            let thresholds = [0u8, 1, 7, 20, 254, 255, extra];
            let t = thresholds[design];
            let img = GrayImage::from_fn(width, height, |x, y| {
                let (kind, v) = draws[y * width + x];
                match kind {
                    0 => v % 4,
                    1 => 255 - v % 4,
                    2 => base.saturating_add(t).saturating_add(v % 2),
                    3 => base.saturating_sub(t).saturating_sub(v % 2),
                    4 => base,
                    _ => v,
                }
            });
            for &(x0, y0, dx, dy) in &rects {
                for threshold in thresholds {
                    blocks_match_oracle(&img, (x0, y0), (x0 + dx, y0 + dy), threshold)?;
                }
            }
        }

        /// Grid vs pairwise NMS on random cells of random images, with
        /// scores drawn from a tiny alphabet so ties are everywhere, and
        /// corners forced onto the clipped rect's first and last rows and
        /// columns.
        #[test]
        fn grid_nms_matches_pairwise_nms(
            size in (1usize..110, 1usize..110),
            cell in (0usize..4, 0usize..4),
            spots in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..8), 0..90),
            edges in proptest::collection::vec((0usize..4, 0.0f64..1.0, 0usize..8), 0..8),
        ) {
            let (width, height) = size;
            let cs = 32;
            let x0 = cs * (cell.0 % width.div_ceil(cs));
            let y0 = cs * (cell.1 % height.div_ceil(cs));
            let (x1, y1) = ((x0 + cs).min(width), (y0 + cs).min(height));
            // The rect detect_in_rect_into scans: the cell clipped by BORDER.
            let cx0 = x0.max(BORDER);
            let cy0 = y0.max(BORDER);
            let cx1 = x1.min(width.saturating_sub(BORDER));
            let cy1 = y1.min(height.saturating_sub(BORDER));
            let mut grid = Vec::new();
            if cx1 <= cx0 || cy1 <= cy0 {
                return grid_matches_pairwise(&[], (x0, y0), (x1, y1), &mut grid);
            }
            let scores = [1.0, 1.0, 2.0, 2.0, 3.0, 72.0, 4079.0, 4080.0];
            let pick = |lo: usize, hi: usize, f: f64| lo + ((hi - lo) as f64 * f) as usize;
            let mut at = std::collections::BTreeMap::new();
            for &(fx, fy, s) in &spots {
                at.insert((pick(cy0, cy1, fy), pick(cx0, cx1, fx)), scores[s]);
            }
            for &(side, f, s) in &edges {
                let pos = match side {
                    0 => (cy0, pick(cx0, cx1, f)),
                    1 => (cy1 - 1, pick(cx0, cx1, f)),
                    2 => (pick(cy0, cy1, f), cx0),
                    _ => (pick(cy0, cy1, f), cx1 - 1),
                };
                at.insert(pos, scores[s]);
            }
            // BTreeMap order on (y, x) is raster order, as detection emits.
            let corners: Vec<KeyPoint> = at
                .into_iter()
                .map(|((y, x), s)| KeyPoint::new(Vec2::new(x as f64, y as f64), 0, s))
                .collect();
            grid_matches_pairwise(&corners, (x0, y0), (x1, y1), &mut grid)?;
            // Reused warm: same answer, still reset.
            grid_matches_pairwise(&corners, (x0, y0), (x1, y1), &mut grid)?;
        }
    }
}
