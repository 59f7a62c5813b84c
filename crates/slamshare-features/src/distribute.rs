//! Spatially-uniform keypoint retention.
//!
//! Raw FAST output clusters on high-texture regions; SLAM wants features
//! spread over the whole image so pose estimation is well-conditioned.
//! ORB-SLAM uses a quadtree; we implement the same idea: recursively split
//! the image while more cells than requested features exist, then keep the
//! strongest corner per leaf cell.

use crate::keypoint::KeyPoint;

/// Reusable buffers for [`distribute_quadtree_into`]: the keypoint pool,
/// its partition auxiliary, the node list and the index buffers for the
/// overshoot trim's stable merge sort. Warm buffers make distribution
/// allocation-free in steady state.
#[derive(Debug, Default)]
pub struct DistributeScratch {
    pool: Vec<KeyPoint>,
    aux: Vec<KeyPoint>,
    nodes: Vec<NodeRange>,
    winners: Vec<KeyPoint>,
    sort_idx: Vec<u32>,
    sort_tmp: Vec<u32>,
}

/// A quadtree node as a range into `DistributeScratch::pool` — the
/// zero-allocation analogue of the reference implementation's per-node
/// keypoint vec.
#[derive(Debug, Clone, Copy)]
struct NodeRange {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
    start: usize,
    len: usize,
    splittable: bool,
}

/// Retain at most `target` keypoints, spatially distributed via recursive
/// quadtree subdivision over `[0, width) × [0, height)`, writing into `out`
/// with reusable scratch. Node-splitting order, cell-winner tie-breaks and
/// the overshoot trim's stable ordering all replicate the test-only
/// reference `distribute_quadtree` exactly, so the output is bit-identical
/// (the property test below compares them element-wise).
pub fn distribute_quadtree_into(
    keypoints: &[KeyPoint],
    width: usize,
    height: usize,
    target: usize,
    scratch: &mut DistributeScratch,
    out: &mut Vec<KeyPoint>,
) {
    if keypoints.len() <= target || target == 0 {
        out.extend_from_slice(keypoints);
        return;
    }
    let DistributeScratch {
        pool,
        aux,
        nodes,
        winners,
        sort_idx,
        sort_tmp,
    } = scratch;
    pool.clear();
    pool.extend_from_slice(keypoints);
    nodes.clear();
    nodes.push(NodeRange {
        x0: 0.0,
        y0: 0.0,
        x1: width as f64,
        y1: height as f64,
        start: 0,
        len: pool.len(),
        splittable: true,
    });

    while nodes.len() < target {
        // Split the node with the most keypoints first (last of equals,
        // as max_by_key returns).
        let mut best: Option<(usize, usize)> = None;
        for (i, n) in nodes.iter().enumerate() {
            if n.len > 1 && n.splittable {
                match best {
                    Some((_, best_len)) if n.len < best_len => {}
                    _ => best = Some((i, n.len)),
                }
            }
        }
        let Some((best, _)) = best else {
            break; // every cell holds a single (or inseparable) cluster
        };
        let node = nodes.swap_remove(best);
        let mx = (node.x0 + node.x1) / 2.0;
        let my = (node.y0 + node.y1) / 2.0;

        // Stable 4-way partition of pool[start..start+len] through aux:
        // children receive contiguous sub-ranges in quad order, keypoints
        // keeping their relative order — exactly the reference's
        // per-quadrant push semantics.
        aux.clear();
        aux.extend_from_slice(&pool[node.start..node.start + node.len]);
        let mut write = node.start;
        let mut counts = [0usize; 4];
        for (quad, count) in counts.iter_mut().enumerate() {
            let quad_start = write;
            for kp in aux.iter() {
                let right = kp.pt.x >= mx;
                let down = kp.pt.y >= my;
                if (down as usize) * 2 + right as usize == quad {
                    pool[write] = *kp;
                    write += 1;
                }
            }
            *count = write - quad_start;
        }
        let rects = [
            (node.x0, node.y0, mx, my),
            (mx, node.y0, node.x1, my),
            (node.x0, my, mx, node.y1),
            (mx, my, node.x1, node.y1),
        ];
        let n_nonempty = counts.iter().filter(|&&c| c > 0).count();
        let mut child_start = node.start;
        for (quad, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (x0, y0, x1, y1) = rects[quad];
            nodes.push(NodeRange {
                x0,
                y0,
                x1,
                y1,
                start: child_start,
                len: count,
                // Degenerate: all keypoints share a quadrant corner —
                // further splitting can never separate them.
                splittable: n_nonempty > 1,
            });
            child_start += count;
        }
    }

    winners.clear();
    for n in nodes.iter() {
        let seg = &pool[n.start..n.start + n.len];
        // Last of equals by (response, index) — max_by's behaviour in the
        // reference; total_cmp so NaN responses never panic.
        let mut wi = 0usize;
        for i in 1..seg.len() {
            if seg[i].response.total_cmp(&seg[wi].response) != std::cmp::Ordering::Less {
                wi = i;
            }
        }
        winners.push(seg[wi]);
    }

    if winners.len() > target {
        stable_sort_desc_by_response(winners, sort_idx, sort_tmp);
        out.extend(sort_idx[..target].iter().map(|&i| winners[i as usize]));
    } else {
        out.extend_from_slice(winners);
    }
}

/// Allocation-free (with warm buffers) bottom-up stable merge sort of
/// indices, ordered like `sort_by(|a, b| b.response.total_cmp(&a.response))`
/// — descending response, equal responses keeping input order.
fn stable_sort_desc_by_response(kps: &[KeyPoint], idx: &mut Vec<u32>, tmp: &mut Vec<u32>) {
    let n = kps.len();
    idx.clear();
    idx.extend(0..n as u32);
    tmp.clear();
    tmp.resize(n, 0);
    let mut width = 1usize;
    while width < n {
        let mut start = 0usize;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            let (mut a, mut b, mut o) = (start, mid, start);
            while a < mid && b < end {
                let (ai, bi) = (idx[a], idx[b]);
                // Take left on Less/Equal: stability.
                if kps[bi as usize]
                    .response
                    .total_cmp(&kps[ai as usize].response)
                    != std::cmp::Ordering::Greater
                {
                    tmp[o] = ai;
                    a += 1;
                } else {
                    tmp[o] = bi;
                    b += 1;
                }
                o += 1;
            }
            tmp[o..o + (mid - a)].copy_from_slice(&idx[a..mid]);
            let o = o + (mid - a);
            tmp[o..o + (end - b)].copy_from_slice(&idx[b..end]);
            start = end;
        }
        idx.copy_from_slice(tmp);
        width *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retain at most `target` keypoints, spatially distributed via recursive
    /// quadtree subdivision over the bounding box `[0, width) × [0, height)`.
    ///
    /// Invariants:
    /// * output length ≤ `target`;
    /// * every returned keypoint is from the input;
    /// * within each final cell, the strongest-response corner is kept.
    ///
    /// The reference [`distribute_quadtree_into`] is tested against.
    fn distribute_quadtree(
        keypoints: &[KeyPoint],
        width: usize,
        height: usize,
        target: usize,
    ) -> Vec<KeyPoint> {
        if keypoints.len() <= target || target == 0 {
            return keypoints.to_vec();
        }

        struct Node {
            x0: f64,
            y0: f64,
            x1: f64,
            y1: f64,
            kps: Vec<KeyPoint>,
            /// Cleared when a split fails to separate the keypoints
            /// (coincident points) — such a node must not be re-selected or
            /// the loop never progresses.
            splittable: bool,
        }

        impl Node {
            fn split(self) -> Vec<Node> {
                let mx = (self.x0 + self.x1) / 2.0;
                let my = (self.y0 + self.y1) / 2.0;
                let n_before = self.kps.len();
                let mk = |x0: f64, y0: f64, x1: f64, y1: f64| Node {
                    x0,
                    y0,
                    x1,
                    y1,
                    kps: Vec::new(),
                    splittable: true,
                };
                let mut quads = [
                    mk(self.x0, self.y0, mx, my),
                    mk(mx, self.y0, self.x1, my),
                    mk(self.x0, my, mx, self.y1),
                    mk(mx, my, self.x1, self.y1),
                ];
                for kp in self.kps {
                    let right = kp.pt.x >= mx;
                    let down = kp.pt.y >= my;
                    let idx = (down as usize) * 2 + right as usize;
                    quads[idx].kps.push(kp);
                }
                let mut out: Vec<Node> = quads.into_iter().filter(|q| !q.kps.is_empty()).collect();
                if out.len() == 1 && out[0].kps.len() == n_before {
                    // Degenerate: all keypoints share a quadrant corner —
                    // further splitting can never separate them.
                    out[0].splittable = false;
                }
                out
            }
        }

        let mut nodes = vec![Node {
            x0: 0.0,
            y0: 0.0,
            x1: width as f64,
            y1: height as f64,
            kps: keypoints.to_vec(),
            splittable: true,
        }];

        // Split until we have enough cells (or no cell can split further).
        loop {
            if nodes.len() >= target {
                break;
            }
            // Split the node with the most keypoints first so density is
            // equalized fastest.
            let Some(best) = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.kps.len() > 1 && n.splittable)
                .max_by_key(|(_, n)| n.kps.len())
                .map(|(i, _)| i)
            else {
                break; // every cell holds a single (or inseparable) cluster
            };
            let node = nodes.swap_remove(best);
            nodes.extend(node.split());
        }

        let mut out: Vec<KeyPoint> = nodes
            .into_iter()
            .filter_map(|n| {
                // total_cmp: a NaN response must never panic extraction. The
                // index tie-break keeps the winner deterministic (last of
                // equals, matching max_by's historical behaviour).
                n.kps
                    .into_iter()
                    .enumerate()
                    .max_by(|(i, a), (j, b)| a.response.total_cmp(&b.response).then(i.cmp(j)))
                    .map(|(_, kp)| kp)
            })
            .collect();

        // We may slightly overshoot (quadtree splits by 4); trim by response.
        // Stable sort on a NaN-safe key: equal responses keep their (already
        // deterministic) cell order.
        if out.len() > target {
            out.sort_by(|a, b| b.response.total_cmp(&a.response));
            out.truncate(target);
        }
        out
    }
    use slamshare_math::Vec2;

    fn kp(x: f64, y: f64, r: f64) -> KeyPoint {
        KeyPoint::new(Vec2::new(x, y), 0, r)
    }

    #[test]
    fn passthrough_when_under_target() {
        let kps = vec![kp(1.0, 1.0, 1.0), kp(2.0, 2.0, 2.0)];
        let out = distribute_quadtree(&kps, 100, 100, 10);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nan_responses_never_panic_distribution() {
        // Regression: cell-winner selection and the overshoot trim used
        // partial_cmp().unwrap() and panicked on a NaN corner response.
        let mut kps = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let r = if (i + j) % 3 == 0 {
                    f64::NAN
                } else {
                    (i * 6 + j) as f64
                };
                kps.push(kp(i as f64 * 15.0, j as f64 * 15.0, r));
            }
        }
        // Small target forces the trim path; NaN cells must survive it.
        let out = distribute_quadtree(&kps, 100, 100, 4);
        assert!(!out.is_empty() && out.len() <= kps.len());
        // Deterministic: same input, same output.
        let again = distribute_quadtree(&kps, 100, 100, 4);
        assert_eq!(out.len(), again.len());
        for (a, b) in out.iter().zip(&again) {
            assert_eq!(a.pt, b.pt);
        }
    }

    #[test]
    fn respects_target() {
        let mut kps = Vec::new();
        for i in 0..500 {
            kps.push(kp((i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0, i as f64));
        }
        let out = distribute_quadtree(&kps, 100, 100, 100);
        assert!(out.len() <= 100);
        assert!(out.len() >= 80, "kept only {}", out.len());
    }

    #[test]
    fn spreads_across_clusters() {
        // Dense cluster top-left, single strong point bottom-right: the
        // lone point must survive even though the cluster has many corners.
        let mut kps = Vec::new();
        for i in 0..200 {
            kps.push(kp((i % 20) as f64, (i / 20) as f64, 100.0 + i as f64));
        }
        kps.push(kp(95.0, 95.0, 1.0));
        let out = distribute_quadtree(&kps, 100, 100, 20);
        assert!(
            out.iter().any(|k| k.pt.x == 95.0),
            "isolated keypoint was starved out"
        );
    }

    #[test]
    fn keeps_strongest_in_cell() {
        // Two keypoints in the same tiny neighbourhood; with target 1 the
        // stronger must win.
        let kps = vec![
            kp(10.0, 10.0, 1.0),
            kp(10.5, 10.0, 9.0),
            kp(80.0, 80.0, 5.0),
        ];
        let out = distribute_quadtree(&kps, 100, 100, 2);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|k| k.response == 9.0));
        assert!(out.iter().any(|k| k.response == 5.0));
    }

    #[test]
    fn scratch_path_matches_reference_exactly() {
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut scratch = DistributeScratch::default();
        for trial in 0..40 {
            let n = 1 + (next() % 400) as usize;
            let mut kps = Vec::new();
            for _ in 0..n {
                let x = (next() % 1000) as f64 / 10.0;
                let y = (next() % 800) as f64 / 10.0;
                let r = match next() % 10 {
                    0 => f64::NAN,
                    1 => kps.last().map(|k: &KeyPoint| k.response).unwrap_or(3.0), // planted ties
                    v => v as f64 * 1.5,
                };
                kps.push(kp(x, y, r));
            }
            // Duplicate some points exactly to hit degenerate splits.
            for i in 0..(n / 10) {
                let dup = kps[i];
                kps.push(dup);
            }
            let target = (next() % 64) as usize;
            let want = distribute_quadtree(&kps, 100, 80, target);
            let mut got = Vec::new();
            distribute_quadtree_into(&kps, 100, 80, target, &mut scratch, &mut got);
            assert_eq!(got.len(), want.len(), "trial {trial} target {target}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.pt.x, g.pt.y, g.octave), (w.pt.x, w.pt.y, w.octave));
                assert_eq!(g.response.to_bits(), w.response.to_bits());
            }
        }
    }

    #[test]
    fn output_is_subset_of_input() {
        let mut kps = Vec::new();
        for i in 0..100 {
            kps.push(kp(i as f64, (i * 7 % 100) as f64, (i * 13 % 41) as f64));
        }
        let out = distribute_quadtree(&kps, 100, 100, 30);
        for o in &out {
            assert!(kps.iter().any(|k| k.pt == o.pt && k.response == o.response));
        }
    }
}
