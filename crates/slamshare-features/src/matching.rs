//! Descriptor matching.
//!
//! Two matchers mirror the two matching contexts in ORB-SLAM3:
//!
//! * [`match_brute_force_into`] — full cross-matching with Lowe's ratio
//!   test, used for map initialization and place-recognition verification;
//! * windowed search around predicted pixel positions — the *search local
//!   points* step that the paper identifies as ~30 % of tracking latency
//!   and accelerates on the GPU. A [`KeypointGrid`] buckets the frame's
//!   keypoints into [`GRID_CELL_PX`] cells once per frame, and the
//!   per-query work item [`KeypointGrid::best_in_window`] reads only the
//!   cells its window overlaps, as ORB-SLAM3's `GetFeaturesInArea` does.
//!   The work item is pure, so `slamshare-gpu` can fan it out across work
//!   items exactly like the paper's local-tracking CUDA kernel;
//!   [`resolve_conflicts`] then keeps one query per frame feature.
//!
//! The full scans [`best_in_window`] and [`match_by_projection`] are the
//! references the grid search is tested against: it returns the same
//! matches, bit for bit.

use crate::descriptor::{Descriptor, DescriptorBlock, STRIP};
use crate::keypoint::KeyPoint;
use slamshare_math::Vec2;

/// Default acceptance threshold on Hamming distance (ORB-SLAM's `TH_LOW`).
pub const TH_LOW: u32 = 50;
/// Relaxed threshold used by wider searches (ORB-SLAM's `TH_HIGH`).
pub const TH_HIGH: u32 = 100;
/// Lowe ratio: best must beat second-best by this factor.
pub const DEFAULT_RATIO: f64 = 0.9;

/// A correspondence between query index and train index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureMatch {
    pub query: usize,
    pub train: usize,
    pub distance: u32,
}

/// Reusable buffers for [`match_brute_force_into`]: the train-side SoA
/// descriptor block plus the `provisional` and `best_for_train` vecs that
/// were previously reallocated on every call.
#[derive(Debug, Default)]
pub struct MatchScratch {
    block: DescriptorBlock,
    provisional: Vec<FeatureMatch>,
    best_for_train: Vec<Option<FeatureMatch>>,
}

/// Brute-force matching with a ratio test: for each query descriptor, find
/// the best and second-best train descriptors; accept if
/// `best < max_distance` and `best < ratio * second_best`.
/// Mutual-best filtering removes double-assignments of a train feature.
///
/// The train set is scanned through `scratch`'s [`DescriptorBlock`] in
/// batched popcount strips bounded by the running second-best — the SoA
/// analogue of `distance_bounded`, with identical accept/tie semantics
/// (the reference-equivalence test below pins this). `out` is
/// overwritten.
pub fn match_brute_force_into(
    query: &[Descriptor],
    train: &[Descriptor],
    max_distance: u32,
    ratio: f64,
    scratch: &mut MatchScratch,
    out: &mut Vec<FeatureMatch>,
) {
    out.clear();
    let MatchScratch {
        block,
        provisional,
        best_for_train,
    } = scratch;
    block.rebuild(train);
    provisional.clear();
    for (qi, qd) in query.iter().enumerate() {
        let (best, best_ti, second) = block.scan_best_two(qd);
        if best_ti != usize::MAX
            && best <= max_distance
            && (second == u32::MAX || (best as f64) < ratio * second as f64)
        {
            provisional.push(FeatureMatch {
                query: qi,
                train: best_ti,
                distance: best,
            });
        }
    }
    // Keep only the best query per train index. Train indices are dense,
    // so a direct-index table beats hashing; queries arrive in ascending
    // order, so keeping the first strictly-smaller entry reproduces the
    // old map's tie-breaking exactly.
    best_for_train.clear();
    best_for_train.resize(train.len(), None);
    for &m in provisional.iter() {
        match &mut best_for_train[m.train] {
            Some(cur) if m.distance >= cur.distance => {}
            slot => *slot = Some(m),
        }
    }
    out.extend(best_for_train.iter().flatten());
    // Each query survives at most once, so keys are unique and the
    // unstable (allocation-free) sort is order-identical to a stable one.
    out.sort_unstable_by_key(|m| m.query);
}

/// One projection-search query: a descriptor we expect to find near
/// `predicted` within `radius` pixels.
#[derive(Debug, Clone, Copy)]
pub struct ProjectionQuery {
    pub descriptor: Descriptor,
    pub predicted: Vec2,
    pub radius: f64,
}

/// Side of one [`KeypointGrid`] cell, pixels: about the tracker's 14-px
/// search radius, so a window overlaps two or three cells a side.
pub const GRID_CELL_PX: f64 = 16.0;
/// Cap on cells per grid axis. Positions past it share the last cell,
/// which keeps the search exact (see [`KeypointGrid`]) and bounds the
/// grid's size for any input.
const GRID_MAX_CELLS: usize = 1024;
/// How far past `radius` a window reaches. The window test is rounded
/// (`norm_sq() > r²` on rounded differences), so a point the test accepts
/// can sit a few ulps outside `radius`; one pixel covers that for every
/// coordinate below 2⁵⁰ px.
const WINDOW_SLACK_PX: f64 = 1.0;

/// The cell of coordinate `v` on an axis starting at `origin` with `n ≥ 1`
/// cells. Monotone in `v`; the value is clamped to `[0, n − 1]` before it
/// is truncated, so truncation is its floor and no libm call is made.
#[inline]
fn grid_cell(v: f64, origin: f64, n: usize) -> usize {
    ((v - origin) * (1.0 / GRID_CELL_PX))
        .max(0.0)
        .min((n - 1) as f64) as usize
}

/// A frame's keypoint positions bucketed into a CSR grid of
/// [`GRID_CELL_PX`] cells, so a window search reads only the cells its
/// window overlaps — ORB-SLAM3's `Frame::GetFeaturesInArea`.
///
/// [`KeypointGrid::best_in_window`] returns exactly what the full scan
/// [`best_in_window`] returns for finite positions and query centres:
/// - the cell map is monotone, so every point inside
///   `[p − r − slack, p + r + slack]²` lies in a visited cell, and every
///   point the scan's rounded window test accepts lies inside that square;
/// - each visited point goes through the scan's own test,
///   `(pos − predicted).norm_sq() > r²`;
/// - the result is the lexicographic minimum of `(distance, index)`,
///   which is what the scan's ascending strict-`<` sweep keeps.
#[derive(Debug, Clone, Default)]
pub struct KeypointGrid {
    origin: Vec2,
    cols: usize,
    rows: usize,
    /// CSR offsets, `cols · rows + 1` of them: row-major cell `c` holds
    /// entries `start[c]..start[c + 1]`.
    start: Vec<u32>,
    /// Per entry, the keypoint index (ascending within a cell) and its
    /// position, so a cell row is one contiguous run.
    index: Vec<u32>,
    pos: Vec<Vec2>,
    /// Build scratch: each keypoint's position and cell, by index.
    points: Vec<Vec2>,
    cell_of: Vec<u32>,
}

impl KeypointGrid {
    /// A grid over `positions`.
    pub fn new(positions: impl IntoIterator<Item = Vec2>) -> KeypointGrid {
        let mut grid = KeypointGrid::default();
        grid.rebuild(positions);
        grid
    }

    /// Re-bucket the grid over `positions` (keypoint `i` is the `i`-th),
    /// reusing every buffer. The grid spans the positions' bounding box.
    pub fn rebuild(&mut self, positions: impl IntoIterator<Item = Vec2>) {
        self.points.clear();
        self.points.extend(positions);
        let points = &self.points;
        debug_assert!(points.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
        let mut lo = Vec2::new(f64::INFINITY, f64::INFINITY);
        let mut hi = -lo;
        for p in points {
            lo = Vec2::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Vec2::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let cells =
            |span: f64| ((span * (1.0 / GRID_CELL_PX)) as usize).min(GRID_MAX_CELLS - 1) + 1;
        (self.origin, self.cols, self.rows) = if points.is_empty() {
            (Vec2::ZERO, 0, 0)
        } else {
            (lo, cells(hi.x - lo.x), cells(hi.y - lo.y))
        };
        let (origin, cols, rows) = (self.origin, self.cols, self.rows);

        self.cell_of.clear();
        self.cell_of.extend(points.iter().map(|p| {
            (grid_cell(p.y, origin.y, rows) * cols + grid_cell(p.x, origin.x, cols)) as u32
        }));
        self.start.clear();
        self.start.resize(cols * rows + 1, 0);
        for &c in &self.cell_of {
            self.start[c as usize + 1] += 1;
        }
        for c in 1..self.start.len() {
            self.start[c] += self.start[c - 1];
        }
        // Scatter in index order, advancing each cell's offset as its
        // entries land, then shift the offsets back by one cell.
        self.index.clear();
        self.index.resize(points.len(), 0);
        self.pos.clear();
        self.pos.resize(points.len(), Vec2::ZERO);
        for (i, (&c, &p)) in self.cell_of.iter().zip(points).enumerate() {
            let slot = &mut self.start[c as usize];
            self.index[*slot as usize] = i as u32;
            self.pos[*slot as usize] = p;
            *slot += 1;
        }
        self.start.copy_within(..cols * rows, 1);
        if let Some(first) = self.start.first_mut() {
            *first = 0;
        }
    }

    /// [`best_in_window`] over the grid's keypoints, reading only the
    /// cells the query's window overlaps. `descriptors[i]` is keypoint
    /// `i`'s descriptor. The query centre must be finite, as
    /// `project_in_image` guarantees, and the radius a number.
    pub fn best_in_window(
        &self,
        query: &ProjectionQuery,
        descriptors: &[Descriptor],
        max_distance: u32,
    ) -> Option<(usize, u32)> {
        let p = query.predicted;
        debug_assert!(p.x.is_finite() && p.y.is_finite() && !query.radius.is_nan());
        if self.index.is_empty() {
            return None;
        }
        let r2 = query.radius * query.radius;
        let reach = query.radius.abs() + WINDOW_SLACK_PX;
        let (o, cols, rows) = (self.origin, self.cols, self.rows);
        let (cx0, cx1) = (
            grid_cell(p.x - reach, o.x, cols),
            grid_cell(p.x + reach, o.x, cols),
        );
        let (cy0, cy1) = (
            grid_cell(p.y - reach, o.y, rows),
            grid_cell(p.y + reach, o.y, rows),
        );
        let mut best = u32::MAX;
        let mut best_i = u32::MAX;
        for cy in cy0..=cy1 {
            let row = cy * cols;
            let run = self.start[row + cx0] as usize..self.start[row + cx1 + 1] as usize;
            for (&pos, &i) in self.pos[run.clone()].iter().zip(&self.index[run]) {
                if (pos - p).norm_sq() > r2 {
                    continue;
                }
                let Some(d) = descriptors.get(i as usize) else {
                    continue;
                };
                let dist = query.descriptor.distance(d);
                if dist < best || (dist == best && i < best_i) {
                    best = dist;
                    best_i = i;
                }
            }
        }
        (best_i != u32::MAX && best <= max_distance).then_some((best_i as usize, best))
    }
}

/// The reference for [`KeypointGrid::best_in_window`]: search one query
/// against every feature of the frame. `positions` and `descriptors` are
/// parallel arrays of the frame's features. Returns `(train_index,
/// distance)` of the best acceptable match. Kept public as the oracle the
/// grid and the executor's search kernel are tested against.
pub fn best_in_window(
    query: &ProjectionQuery,
    positions: &[Vec2],
    descriptors: &[Descriptor],
    max_distance: u32,
) -> Option<(usize, u32)> {
    debug_assert_eq!(positions.len(), descriptors.len());
    let mut best = u32::MAX;
    let mut best_i = usize::MAX;
    let r2 = query.radius * query.radius;
    for (i, (p, d)) in positions.iter().zip(descriptors).enumerate() {
        if (*p - query.predicted).norm_sq() > r2 {
            continue;
        }
        let dist = query.descriptor.distance(d);
        if dist < best {
            best = dist;
            best_i = i;
        }
    }
    if best_i != usize::MAX && best <= max_distance {
        Some((best_i, best))
    } else {
        None
    }
}

/// Turn per-query hits (`hits[qi]` = the best window match of query `qi`)
/// into matches: where two queries hit the same frame feature the smaller
/// distance wins (the earlier query on a tie); output is in query order.
pub fn resolve_conflicts(
    hits: impl IntoIterator<Item = Option<(usize, u32)>>,
) -> Vec<FeatureMatch> {
    // Train indices are dense keypoint indices: a table indexed by them,
    // filled in query order, keeps the first strictly-smaller hit.
    let mut per_train: Vec<Option<FeatureMatch>> = Vec::new();
    for (query, hit) in hits.into_iter().enumerate() {
        let Some((train, distance)) = hit else {
            continue;
        };
        if train >= per_train.len() {
            per_train.resize(train + 1, None);
        }
        match &mut per_train[train] {
            Some(cur) if distance >= cur.distance => {}
            slot => {
                *slot = Some(FeatureMatch {
                    query,
                    train,
                    distance,
                })
            }
        }
    }
    let mut out: Vec<FeatureMatch> = per_train.into_iter().flatten().collect();
    // Each query survives at most once, so keys are unique.
    out.sort_unstable_by_key(|m| m.query);
    out
}

/// The reference for the grid-indexed search: every projection query
/// through the full scan [`best_in_window`], conflicts resolved with
/// [`resolve_conflicts`]. The executor's search kernel is tested against
/// it.
pub fn match_by_projection(
    queries: &[ProjectionQuery],
    positions: &[Vec2],
    descriptors: &[Descriptor],
    max_distance: u32,
) -> Vec<FeatureMatch> {
    resolve_conflicts(
        queries
            .iter()
            .map(|q| best_in_window(q, positions, descriptors, max_distance)),
    )
}

/// Reusable buffers for [`stereo_match_rectified`]: the right image's SoA
/// descriptor block plus CSR row buckets over the right keypoints.
#[derive(Debug, Default)]
pub struct StereoScratch {
    block: DescriptorBlock,
    /// CSR offsets: `row_items[row_start[r]..row_start[r + 1]]` are the
    /// right-keypoint indices whose `floor(y)` (clamped at 0) is `r`,
    /// in ascending index order.
    row_start: Vec<u32>,
    row_cursor: Vec<u32>,
    row_items: Vec<u32>,
    /// Gathered candidate indices for the current left keypoint.
    cand: Vec<usize>,
}

/// Stereo matching on a rectified pair: for each left keypoint, find the
/// right keypoint on (nearly) the same scanline minimizing descriptor
/// distance, then recover depth from the disparity. Writes `right_x` and
/// `depth` on matched left keypoints and returns the number of keypoints
/// that got a depth.
///
/// Semantics are exactly those of the former O(N·M) scalar loop in
/// `Tracker::stereo_match` — same row gate (`|Δy| ≤ 2·1.2^octave`), same
/// disparity gate (`0.1 < d ≤ max_disparity`), same strict-`<` ascending
/// tie-break, same `TH_HIGH` accept — but candidates come from CSR row
/// buckets (only the scanlines the row gate can accept) and distances
/// from bounded SoA popcount strips. Both restrictions are conservative:
/// the float gates are re-applied per candidate and bounded strips only
/// discard candidates that could not beat the running best, so results
/// are bit-identical for the finite coordinates extraction produces.
///
/// `depth_of` maps an accepted disparity to a depth (the tracker passes
/// its rig's `depth_from_disparity`).
pub fn stereo_match_rectified(
    left_kps: &mut [KeyPoint],
    left_descs: &[Descriptor],
    right_kps: &[KeyPoint],
    right_descs: &[Descriptor],
    max_disparity: f64,
    mut depth_of: impl FnMut(f64) -> Option<f64>,
    scratch: &mut StereoScratch,
) -> usize {
    debug_assert_eq!(left_kps.len(), left_descs.len());
    debug_assert_eq!(right_kps.len(), right_descs.len());
    let StereoScratch {
        block,
        row_start,
        row_cursor,
        row_items,
        cand,
    } = scratch;
    block.rebuild(right_descs);

    // Bucket right keypoints by scanline. Negative y clamps into row 0;
    // a query range that could accept such a point also clamps to 0, so
    // no candidate is ever missed, and the exact row gate below discards
    // any spurious inclusion.
    let row_of = |y: f64| y.floor().max(0.0) as usize;
    let n_rows = right_kps
        .iter()
        .map(|kp| row_of(kp.pt.y) + 1)
        .max()
        .unwrap_or(0);
    row_start.clear();
    row_start.resize(n_rows + 1, 0);
    for rkp in right_kps.iter() {
        row_start[row_of(rkp.pt.y) + 1] += 1;
    }
    for r in 1..row_start.len() {
        row_start[r] += row_start[r - 1];
    }
    row_cursor.clear();
    row_cursor.extend_from_slice(&row_start[..n_rows]);
    row_items.clear();
    row_items.resize(right_kps.len(), 0);
    for (j, rkp) in right_kps.iter().enumerate() {
        let r = row_of(rkp.pt.y);
        row_items[row_cursor[r] as usize] = j as u32;
        row_cursor[r] += 1;
    }

    let mut n = 0;
    let mut strip = [0u32; STRIP];
    for (i, kp) in left_kps.iter_mut().enumerate() {
        let scale = 1.2f64.powi(kp.octave as i32);
        let band = 2.0 * scale;
        let mut best = u32::MAX;
        let mut best_rx = -1.0f64;
        if n_rows > 0 {
            let lo = (kp.pt.y - band).floor().max(0.0) as usize;
            let hi = ((kp.pt.y + band).floor().max(0.0) as usize).min(n_rows - 1);
            cand.clear();
            if lo <= hi {
                for r in lo..=hi {
                    let seg = &row_items[row_start[r] as usize..row_start[r + 1] as usize];
                    for &j in seg {
                        let rkp = &right_kps[j as usize];
                        // The exact gates of the scalar loop.
                        if (rkp.pt.y - kp.pt.y).abs() > band {
                            continue;
                        }
                        let disparity = kp.pt.x - rkp.pt.x;
                        if disparity <= 0.1 || disparity > max_disparity {
                            continue;
                        }
                        cand.push(j as usize);
                    }
                }
            }
            // Rows were visited in order but candidates must be consumed
            // in ascending right-keypoint order for the strict-< tie
            // break to match the scalar scan.
            cand.sort_unstable();
            let qw = left_descs[i].words();
            for chunk in cand.chunks(STRIP) {
                block.strip_distances_indexed(&qw, chunk, best, &mut strip);
                for (k, &d) in strip[..chunk.len()].iter().enumerate() {
                    if d < best {
                        best = d;
                        best_rx = right_kps[chunk[k]].pt.x;
                    }
                }
            }
        }
        if best <= TH_HIGH {
            kp.right_x = best_rx;
            let disparity = kp.pt.x - best_rx;
            if let Some(depth) = depth_of(disparity) {
                kp.depth = depth;
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`match_brute_force_into`] with one-shot buffers.
    fn match_brute_force(
        query: &[Descriptor],
        train: &[Descriptor],
        max_distance: u32,
        ratio: f64,
    ) -> Vec<FeatureMatch> {
        let mut scratch = MatchScratch::default();
        let mut out = Vec::new();
        match_brute_force_into(query, train, max_distance, ratio, &mut scratch, &mut out);
        out
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn desc_with_bits(bits: &[usize]) -> Descriptor {
        let mut d = Descriptor::ZERO;
        for &b in bits {
            d.set_bit(b);
        }
        d
    }

    #[test]
    fn brute_force_finds_exact_matches() {
        let a = desc_with_bits(&[1, 5, 9]);
        let b = desc_with_bits(&[100, 120, 140, 160]);
        let c = desc_with_bits(&[200, 210]);
        let query = vec![a, b];
        let train = vec![c, b, a];
        let ms = match_brute_force(&query, &train, TH_LOW, DEFAULT_RATIO);
        assert_eq!(ms.len(), 2);
        assert!(ms.contains(&FeatureMatch {
            query: 0,
            train: 2,
            distance: 0
        }));
        assert!(ms.contains(&FeatureMatch {
            query: 1,
            train: 1,
            distance: 0
        }));
    }

    #[test]
    fn ratio_test_rejects_ambiguous() {
        // Query equidistant from two train descriptors → ratio test fails.
        let q = desc_with_bits(&[0]);
        let t1 = desc_with_bits(&[0, 1]); // distance 1
        let t2 = desc_with_bits(&[0, 2]); // distance 1
        let ms = match_brute_force(&[q], &[t1, t2], TH_LOW, 0.9);
        assert!(ms.is_empty());
    }

    #[test]
    fn max_distance_gates() {
        let q = desc_with_bits(&(0..60).collect::<Vec<_>>());
        let t = Descriptor::ZERO; // distance 60 > TH_LOW
        let ms = match_brute_force(&[q], &[t], TH_LOW, 1.0);
        assert!(ms.is_empty());
        let ms2 = match_brute_force(&[q], &[t], TH_HIGH, 1.0);
        assert_eq!(ms2.len(), 1);
    }

    #[test]
    fn duplicate_train_resolved_by_distance() {
        let t = desc_with_bits(&[7]);
        let q_close = desc_with_bits(&[7]);
        let q_far = desc_with_bits(&[7, 8, 9]);
        let ms = match_brute_force(&[q_far, q_close], &[t], TH_LOW, 1.0);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].query, 1);
    }

    #[test]
    fn projection_search_respects_window() {
        let d = desc_with_bits(&[3]);
        let positions = vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 100.0)];
        let descriptors = vec![d, d];
        let q = ProjectionQuery {
            descriptor: d,
            predicted: Vec2::new(99.0, 99.0),
            radius: 5.0,
        };
        let got = best_in_window(&q, &positions, &descriptors, TH_LOW).unwrap();
        assert_eq!(got.0, 1);
        // Tiny radius: no candidates.
        let q2 = ProjectionQuery { radius: 0.5, ..q };
        assert!(best_in_window(&q2, &positions, &descriptors, TH_LOW).is_none());
    }

    #[test]
    fn projection_search_picks_best_descriptor_in_window() {
        let target = desc_with_bits(&[1, 2, 3]);
        let near_junk = desc_with_bits(&[100, 101, 102, 103, 104]);
        let positions = vec![Vec2::new(10.0, 10.0), Vec2::new(12.0, 10.0)];
        let descriptors = vec![near_junk, target];
        let q = ProjectionQuery {
            descriptor: target,
            predicted: Vec2::new(11.0, 10.0),
            radius: 5.0,
        };
        let got = best_in_window(&q, &positions, &descriptors, TH_LOW).unwrap();
        assert_eq!(got, (1, 0));
    }

    #[test]
    fn projection_conflicts_keep_closest() {
        let d = desc_with_bits(&[4]);
        let positions = vec![Vec2::new(0.0, 0.0)];
        let descriptors = vec![d];
        let exact = ProjectionQuery {
            descriptor: d,
            predicted: Vec2::ZERO,
            radius: 10.0,
        };
        let off = ProjectionQuery {
            descriptor: desc_with_bits(&[4, 9]),
            predicted: Vec2::ZERO,
            radius: 10.0,
        };
        let ms = match_by_projection(&[off, exact], &positions, &descriptors, TH_LOW);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].query, 1);
        assert_eq!(ms[0].distance, 0);
    }

    #[test]
    fn brute_force_matches_reference_implementation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Straight-line reference: full distances, HashMap mutual-best.
        fn reference(
            query: &[Descriptor],
            train: &[Descriptor],
            max_distance: u32,
            ratio: f64,
        ) -> Vec<FeatureMatch> {
            let mut provisional: Vec<FeatureMatch> = Vec::new();
            for (qi, qd) in query.iter().enumerate() {
                let mut best = u32::MAX;
                let mut second = u32::MAX;
                let mut best_ti = usize::MAX;
                for (ti, td) in train.iter().enumerate() {
                    let d = qd.distance(td);
                    if d < best {
                        second = best;
                        best = d;
                        best_ti = ti;
                    } else if d < second {
                        second = d;
                    }
                }
                if best_ti != usize::MAX
                    && best <= max_distance
                    && (second == u32::MAX || (best as f64) < ratio * second as f64)
                {
                    provisional.push(FeatureMatch {
                        query: qi,
                        train: best_ti,
                        distance: best,
                    });
                }
            }
            let mut per_train: std::collections::HashMap<usize, FeatureMatch> =
                std::collections::HashMap::new();
            for m in provisional {
                per_train
                    .entry(m.train)
                    .and_modify(|cur| {
                        if m.distance < cur.distance {
                            *cur = m;
                        }
                    })
                    .or_insert(m);
            }
            let mut out: Vec<FeatureMatch> = per_train.into_values().collect();
            out.sort_by_key(|m| m.query);
            out
        }

        let mut rng = StdRng::seed_from_u64(99);
        let random_desc = |rng: &mut StdRng| {
            let mut d = Descriptor::ZERO;
            for i in 0..256 {
                if rng.gen_bool(0.08) {
                    d.set_bit(i);
                }
            }
            d
        };
        for trial in 0..20 {
            let nq = rng.gen_range(0..40);
            let nt = rng.gen_range(0..40);
            let mut query: Vec<Descriptor> = (0..nq).map(|_| random_desc(&mut rng)).collect();
            let train: Vec<Descriptor> = (0..nt).map(|_| random_desc(&mut rng)).collect();
            // Plant near-duplicates so accepts/ties actually occur.
            for (qi, q) in query.iter_mut().enumerate() {
                if !train.is_empty() && qi % 3 == 0 {
                    *q = train[qi % train.len()];
                }
            }
            for (max_d, ratio) in [(TH_LOW, DEFAULT_RATIO), (TH_HIGH, 1.0), (5, 0.7)] {
                assert_eq!(
                    match_brute_force(&query, &train, max_d, ratio),
                    reference(&query, &train, max_d, ratio),
                    "trial {trial} max_d {max_d} ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn stereo_matches_scalar_reference_implementation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use slamshare_math::Vec2;

        // The former Tracker::stereo_match loop, verbatim.
        #[allow(clippy::too_many_arguments)]
        fn reference(
            left_kps: &mut [KeyPoint],
            left_descs: &[Descriptor],
            right_kps: &[KeyPoint],
            right_descs: &[Descriptor],
            max_disparity: f64,
            mut depth_of: impl FnMut(f64) -> Option<f64>,
        ) -> usize {
            let mut n = 0;
            for (i, kp) in left_kps.iter_mut().enumerate() {
                let scale = 1.2f64.powi(kp.octave as i32);
                let mut best = u32::MAX;
                let mut best_rx = -1.0f64;
                for (j, rkp) in right_kps.iter().enumerate() {
                    if (rkp.pt.y - kp.pt.y).abs() > 2.0 * scale {
                        continue;
                    }
                    let disparity = kp.pt.x - rkp.pt.x;
                    if disparity <= 0.1 || disparity > max_disparity {
                        continue;
                    }
                    let d = left_descs[i].distance(&right_descs[j]);
                    if d < best {
                        best = d;
                        best_rx = rkp.pt.x;
                    }
                }
                if best <= TH_HIGH {
                    kp.right_x = best_rx;
                    let disparity = kp.pt.x - best_rx;
                    if let Some(depth) = depth_of(disparity) {
                        kp.depth = depth;
                        n += 1;
                    }
                }
            }
            n
        }

        let mut rng = StdRng::seed_from_u64(4242);
        let mut scratch = StereoScratch::default();
        let depth_of = |d: f64| if d > 0.5 { Some(38.0 / d) } else { None };
        for trial in 0..15 {
            let nl = rng.gen_range(0..120);
            let nr = rng.gen_range(0..120);
            let mk_kps = |rng: &mut StdRng, n: usize| -> Vec<KeyPoint> {
                (0..n)
                    .map(|_| {
                        let mut kp = KeyPoint::new(
                            Vec2::new(rng.gen_range(0.0..320.0), rng.gen_range(-1.0..240.0)),
                            rng.gen_range(0..6),
                            rng.gen_range(0.0..50.0),
                        );
                        kp.right_x = -1.0;
                        kp
                    })
                    .collect()
            };
            let mk_descs = |rng: &mut StdRng, n: usize| -> Vec<Descriptor> {
                (0..n)
                    .map(|_| {
                        let mut d = Descriptor::ZERO;
                        for b in 0..256 {
                            if rng.gen_bool(0.12) {
                                d.set_bit(b);
                            }
                        }
                        d
                    })
                    .collect()
            };
            let want_kps_init = mk_kps(&mut rng, nl);
            let left_descs = mk_descs(&mut rng, nl);
            let right_kps = mk_kps(&mut rng, nr);
            let mut right_descs = mk_descs(&mut rng, nr);
            // Plant duplicate descriptors so distance ties occur.
            for j in 0..nr.min(10) {
                right_descs[j] = right_descs[nr - 1 - j];
            }
            let max_disparity = 90.0;

            let mut want_kps = want_kps_init.clone();
            let want_n = reference(
                &mut want_kps,
                &left_descs,
                &right_kps,
                &right_descs,
                max_disparity,
                depth_of,
            );
            let mut got_kps = want_kps_init.clone();
            let got_n = stereo_match_rectified(
                &mut got_kps,
                &left_descs,
                &right_kps,
                &right_descs,
                max_disparity,
                depth_of,
                &mut scratch,
            );
            assert_eq!(got_n, want_n, "trial {trial}");
            for (g, w) in got_kps.iter().zip(&want_kps) {
                assert_eq!(g.right_x.to_bits(), w.right_x.to_bits(), "trial {trial}");
                assert_eq!(g.depth.to_bits(), w.depth.to_bits(), "trial {trial}");
            }
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(match_brute_force(&[], &[], TH_LOW, 0.9).is_empty());
        let q = ProjectionQuery {
            descriptor: Descriptor::ZERO,
            predicted: Vec2::ZERO,
            radius: 10.0,
        };
        assert!(best_in_window(&q, &[], &[], TH_LOW).is_none());
        let mut grid = KeypointGrid::new(std::iter::empty());
        assert!(grid.best_in_window(&q, &[], u32::MAX).is_none());
        // Emptied after holding points.
        grid.rebuild([Vec2::ZERO]);
        assert_eq!(
            grid.best_in_window(&q, &[Descriptor::ZERO], TH_LOW),
            Some((0, 0))
        );
        grid.rebuild(std::iter::empty());
        assert!(grid
            .best_in_window(&q, &[Descriptor::ZERO], u32::MAX)
            .is_none());
    }

    #[test]
    fn conflict_tie_goes_to_the_earlier_query() {
        // Queries 1 and 3 hit keypoint 5 at the same distance; query 0
        // hits it farther away. Query 1 wins, and the other keypoint's
        // match keeps its place in query order.
        let hits = [Some((5, 9)), Some((5, 4)), Some((2, 7)), Some((5, 4)), None];
        assert_eq!(
            resolve_conflicts(hits),
            vec![
                FeatureMatch {
                    query: 1,
                    train: 5,
                    distance: 4
                },
                FeatureMatch {
                    query: 2,
                    train: 2,
                    distance: 7
                },
            ]
        );
        // Through the window search: two identical queries on one point.
        let d = desc_with_bits(&[4, 9]);
        let q = ProjectionQuery {
            descriptor: d,
            predicted: Vec2::new(3.0, 3.0),
            radius: 10.0,
        };
        let ms = match_by_projection(&[q, q], &[Vec2::ZERO], &[d], TH_LOW);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].query, 0);
    }

    #[test]
    fn capped_grid_stays_exact() {
        // A bounding box far wider than GRID_MAX_CELLS cells: positions
        // past the cap share the last cell, and the search still equals
        // the scan.
        let positions: Vec<Vec2> = [0.0, 10.0, 20_000.0, 20_010.0, 1e6, 1e6 + 5.0]
            .iter()
            .map(|&x| Vec2::new(x, x / 2.0))
            .collect();
        let descriptors: Vec<Descriptor> = (0..positions.len())
            .map(|i| desc_with_bits(&[i % 3]))
            .collect();
        let grid = KeypointGrid::new(positions.iter().copied());
        for (i, &p) in positions.iter().enumerate() {
            for radius in [3.0, 14.0, 40.0] {
                let q = ProjectionQuery {
                    descriptor: descriptors[i],
                    predicted: p + Vec2::new(2.0, -1.0),
                    radius,
                };
                assert_eq!(
                    grid.best_in_window(&q, &descriptors, TH_LOW),
                    best_in_window(&q, &positions, &descriptors, TH_LOW),
                    "point {i}, radius {radius}"
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Grid vs full scan on random frames: every query's hit and the
        /// resolved matches are identical. Keypoints and query centres
        /// span `[−14, W + 14)` (what `project_in_image` admits, windows
        /// hanging off every side), some snapped onto cell edges; some
        /// queries sit at exactly `r` from a keypoint; descriptors come
        /// from a 12-entry alphabet, so equal distances in different
        /// cells exercise the index tie-break; radii run from under a
        /// pixel to several cells; frames may be empty.
        #[test]
        fn grid_search_matches_scan(
            size in (1usize..640, 1usize..480),
            spots in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..4, 0usize..12), 0..150),
            probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..6, 0usize..12, 0usize..6), 0..80),
            max_pick in 0usize..3,
        ) {
            let (w, h) = (size.0 as f64, size.1 as f64);
            let span = |f: f64, len: f64| -14.0 + f * (len + 28.0);
            let mut positions: Vec<Vec2> = spots
                .iter()
                .map(|&(fx, fy, _, _)| Vec2::new(span(fx, w), span(fy, h)))
                .collect();
            // Snap a quarter of the points onto cell edges of the grid
            // that will be built (its origin is the bounding-box corner).
            let lo = positions.iter().fold(Vec2::new(f64::INFINITY, f64::INFINITY), |a, p| {
                Vec2::new(a.x.min(p.x), a.y.min(p.y))
            });
            let snap = |v: f64, o: f64| o + ((v - o) / GRID_CELL_PX).round() * GRID_CELL_PX;
            for (p, &(_, _, mode, _)) in positions.iter_mut().zip(&spots) {
                if mode == 0 {
                    *p = Vec2::new(snap(p.x, lo.x), snap(p.y, lo.y));
                }
            }
            let mut rng = StdRng::seed_from_u64(spots.len() as u64 * 31 + size.0 as u64);
            let alphabet: Vec<Descriptor> = (0..12)
                .map(|_| {
                    let mut d = Descriptor::ZERO;
                    for b in 0..256 {
                        if rng.gen_bool(0.1) {
                            d.set_bit(b);
                        }
                    }
                    d
                })
                .collect();
            let descriptors: Vec<Descriptor> =
                spots.iter().map(|&(_, _, _, k)| alphabet[k]).collect();
            let radii = [14.0, 15.0, 5.0, 40.0, 0.5, 100.0];
            let queries: Vec<ProjectionQuery> = probes
                .iter()
                .map(|&(fx, fy, mode, k, ri)| {
                    let r = radii[ri];
                    let at = |f: f64| positions[(f * positions.len() as f64) as usize % positions.len().max(1)];
                    let predicted = match mode {
                        _ if positions.is_empty() => Vec2::new(span(fx, w), span(fy, h)),
                        1 => at(fx) + Vec2::new(r, 0.0),
                        2 => at(fx) - Vec2::new(0.0, r),
                        3 => at(fx) + Vec2::new(0.6 * r, 0.8 * r),
                        4 => Vec2::new(snap(span(fx, w), lo.x), snap(span(fy, h), lo.y)),
                        5 => Vec2::new(if fx < 0.5 { -14.0 } else { w + 14.0 - 1e-9 }, span(fy, h)),
                        _ => Vec2::new(span(fx, w), span(fy, h)),
                    };
                    ProjectionQuery { descriptor: alphabet[k], predicted, radius: r }
                })
                .collect();
            let max_distance = [TH_LOW, TH_HIGH, u32::MAX][max_pick];
            let grid = KeypointGrid::new(positions.iter().copied());
            for q in &queries {
                prop_assert_eq!(
                    grid.best_in_window(q, &descriptors, max_distance),
                    best_in_window(q, &positions, &descriptors, max_distance)
                );
            }
            prop_assert_eq!(
                resolve_conflicts(queries.iter().map(|q| grid.best_in_window(q, &descriptors, max_distance))),
                match_by_projection(&queries, &positions, &descriptors, max_distance)
            );
        }
    }
}
