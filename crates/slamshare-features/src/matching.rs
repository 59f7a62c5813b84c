//! Descriptor matching.
//!
//! Two matchers mirror the two matching contexts in ORB-SLAM3:
//!
//! * [`match_brute_force`] — full cross-matching with Lowe's ratio test,
//!   used for map initialization and place-recognition verification;
//! * [`match_by_projection`] — windowed search around predicted pixel
//!   positions, the *search local points* step that the paper identifies as
//!   ~30 % of tracking latency and accelerates on the GPU. The per-query
//!   work item [`best_in_window`] is pure, so `slamshare-gpu` can fan it
//!   out across work items exactly like the paper's local-tracking CUDA
//!   kernel.

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

/// [`match_brute_force_into`] with one-shot buffers.
pub fn match_brute_force(
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

/// One projection-search query: a descriptor we expect to find near
/// `predicted` within `radius` pixels.
#[derive(Debug, Clone, Copy)]
pub struct ProjectionQuery {
    pub descriptor: Descriptor,
    pub predicted: Vec2,
    pub radius: f64,
}

/// Search one query against candidate features — the pure work item of the
/// *search local points* kernel. `positions` and `descriptors` are parallel
/// arrays of the frame's features. Returns `(train_index, distance)` of the
/// best acceptable match.
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

/// Turn per-query hits (`hits[qi]` = [`best_in_window`] of query `qi`)
/// into matches: where two queries hit the same frame feature the smaller
/// distance wins (the earlier query on a tie); output is in query order.
pub fn resolve_conflicts(
    hits: impl IntoIterator<Item = Option<(usize, u32)>>,
) -> Vec<FeatureMatch> {
    let mut per_train: std::collections::HashMap<usize, FeatureMatch> =
        std::collections::HashMap::new();
    for (query, hit) in hits.into_iter().enumerate() {
        if let Some((train, distance)) = hit {
            let m = FeatureMatch {
                query,
                train,
                distance,
            };
            per_train
                .entry(train)
                .and_modify(|cur| {
                    if distance < cur.distance {
                        *cur = m;
                    }
                })
                .or_insert(m);
        }
    }
    let mut out: Vec<FeatureMatch> = per_train.into_values().collect();
    out.sort_by_key(|m| m.query);
    out
}

/// Run all projection queries in a plain loop (mapping's fusion search,
/// and the reference the fanned-out *search local points* is tested
/// against), resolving conflicts with [`resolve_conflicts`].
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
    }
}
