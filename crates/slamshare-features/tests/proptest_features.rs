//! Property-based tests for the feature pipeline's core invariants.

use proptest::prelude::*;
use slamshare_features::descriptor::{Descriptor, DESC_BITS};
use slamshare_features::distribute::{distribute_quadtree_into, DistributeScratch};
use slamshare_features::image::GrayImage;
use slamshare_features::keypoint::KeyPoint;
use slamshare_math::Vec2;

fn arb_descriptor() -> impl Strategy<Value = Descriptor> {
    proptest::array::uniform32(any::<u8>()).prop_map(Descriptor)
}

fn arb_keypoints(max: usize) -> impl Strategy<Value = Vec<KeyPoint>> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0, 0.0f64..500.0), 0..max).prop_map(|v| {
        v.into_iter()
            .map(|(x, y, r)| KeyPoint::new(Vec2::new(x, y), 0, r))
            .collect()
    })
}

proptest! {
    /// Hamming distance is a metric: symmetry, identity, triangle.
    #[test]
    fn descriptor_distance_is_a_metric(
        a in arb_descriptor(),
        b in arb_descriptor(),
        c in arb_descriptor(),
    ) {
        prop_assert_eq!(a.distance(&a), 0);
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        prop_assert!(a.distance(&b) as usize <= DESC_BITS);
        prop_assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c));
    }

    /// The bit-median minimizes nothing exotic, but it must agree with a
    /// per-bit majority recount.
    #[test]
    fn bit_median_is_per_bit_majority(descs in proptest::collection::vec(arb_descriptor(), 1..9)) {
        let m = Descriptor::bit_median(&descs);
        for bit in 0..DESC_BITS {
            let count = descs.iter().filter(|d| d.get_bit(bit)).count();
            prop_assert_eq!(m.get_bit(bit), count * 2 > descs.len());
        }
    }

    /// Quadtree distribution: bounded output, subset of input, keeps the
    /// global maximum response.
    #[test]
    fn quadtree_invariants(kps in arb_keypoints(300), target in 1usize..120) {
        let mut out = Vec::new();
        distribute_quadtree_into(&kps, 100, 100, target, &mut DistributeScratch::default(), &mut out);
        prop_assert!(out.len() <= kps.len());
        if kps.len() > target {
            prop_assert!(out.len() <= target.max(4) + 4);
        }
        for kp in &out {
            prop_assert!(kps.iter().any(|k| k.pt == kp.pt && k.response == kp.response));
        }
        if let Some(best) = kps.iter().map(|k| k.response).reduce(f64::max) {
            if !out.is_empty() {
                // The strongest keypoint always survives.
                prop_assert!(out.iter().any(|k| k.response == best));
            }
        }
    }

    /// Bilinear sampling is bounded by the image's value range and exact
    /// at integer coordinates.
    #[test]
    fn bilinear_bounded_and_exact(
        seed in any::<u64>(),
        x in 0.0f64..31.0,
        y in 0.0f64..23.0,
    ) {
        let img = GrayImage::from_fn(32, 24, |px, py| {
            let mut h = (px as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (py as u64).wrapping_mul(seed | 1);
            h ^= h >> 31;
            (h % 256) as u8
        });
        let v = img.sample_bilinear(x, y);
        prop_assert!((0.0..=255.0).contains(&v));
        let xi = x.floor();
        let yi = y.floor();
        let exact = img.sample_bilinear(xi, yi);
        prop_assert!((exact - img.get(xi as usize, yi as usize) as f64).abs() < 1e-9);
    }
}
