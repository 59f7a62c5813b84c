//! ORB orientation and rotated-BRIEF description.
//!
//! * Orientation: the intensity-centroid method — the angle of the vector
//!   from a corner to the centroid of intensities in its circular patch.
//! * Description: 256 pairwise intensity comparisons at positions drawn from
//!   a fixed (seeded) Gaussian pattern, *steered* by the corner's
//!   orientation so descriptors stay comparable under in-plane rotation.

use crate::descriptor::{Descriptor, DESC_BITS};
use crate::image::GrayImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Radius of the orientation/description patch (ORB uses 15 → 31×31 patch).
pub const PATCH_RADIUS: isize = 15;

/// Margin from the image border required to compute a descriptor safely
/// even under worst-case pattern rotation.
pub const DESC_BORDER: usize = (PATCH_RADIUS + 2) as usize;

/// Seed for the BRIEF sampling pattern. Real ORB ships a pattern learned
/// offline for decorrelation; a seeded Gaussian pattern has nearly the same
/// matching behaviour and keeps the build self-contained.
const PATTERN_SEED: u64 = 0x0bb5_ee5d;

/// The fixed BRIEF comparison pattern: 256 point pairs in patch coordinates.
#[derive(Debug, Clone)]
pub struct BriefPattern {
    pub pairs: [((f64, f64), (f64, f64)); DESC_BITS],
}

impl BriefPattern {
    /// Generate the canonical pattern (deterministic).
    pub fn standard() -> &'static BriefPattern {
        use std::sync::OnceLock;
        static PATTERN: OnceLock<BriefPattern> = OnceLock::new();
        PATTERN.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(PATTERN_SEED);
            let sigma = PATCH_RADIUS as f64 / 2.0;
            let draw = |rng: &mut StdRng| -> f64 {
                // Box–Muller for a clipped Gaussian offset.
                let u1: f64 = rng.gen_range(1e-9..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (g * sigma).clamp(-(PATCH_RADIUS as f64) + 1.0, PATCH_RADIUS as f64 - 1.0)
            };
            let mut pairs = [((0.0, 0.0), (0.0, 0.0)); DESC_BITS];
            for pair in pairs.iter_mut() {
                *pair = (
                    (draw(&mut rng), draw(&mut rng)),
                    (draw(&mut rng), draw(&mut rng)),
                );
            }
            BriefPattern { pairs }
        })
    }
}

/// Intensity-centroid orientation of the patch around `(x, y)`, in radians.
///
/// Moments: `m10 = Σ x·I(x,y)`, `m01 = Σ y·I(x,y)` over the circular patch;
/// the angle is `atan2(m01, m10)`.
pub fn intensity_centroid_angle(img: &GrayImage, x: f64, y: f64) -> f64 {
    let cx = x.round() as isize;
    let cy = y.round() as isize;
    let mut m01 = 0.0f64;
    let mut m10 = 0.0f64;
    let r = PATCH_RADIUS;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy > r * r {
                continue;
            }
            let v = img.get_clamped(cx + dx, cy + dy) as f64;
            m10 += dx as f64 * v;
            m01 += dy as f64 * v;
        }
    }
    m01.atan2(m10)
}

/// Compute the rotated-BRIEF descriptor for a corner at `(x, y)` with
/// orientation `angle` in image `img` (the pyramid level the corner was
/// detected on, in that level's coordinates).
pub fn describe(img: &GrayImage, x: f64, y: f64, angle: f64) -> Descriptor {
    let pattern = BriefPattern::standard();
    let (s, c) = angle.sin_cos();
    let mut d = Descriptor::ZERO;
    for (i, &((ax, ay), (bx, by))) in pattern.pairs.iter().enumerate() {
        // Steer the sampling points by the keypoint orientation.
        let (rax, ray) = (c * ax - s * ay, s * ax + c * ay);
        let (rbx, rby) = (c * bx - s * by, s * bx + c * by);
        let va = img.sample_bilinear(x + rax, y + ray);
        let vb = img.sample_bilinear(x + rbx, y + rby);
        if va < vb {
            d.set_bit(i);
        }
    }
    d
}

/// Margin inside which the fused kernel's stack patch covers every pixel
/// either the orientation moments or a rotated BRIEF sample can touch.
/// Rotated offsets reach `14·√2 ≈ 19.8` px plus one for the bilinear
/// neighbour, so 22 is safe with a pixel to spare.
pub const FUSED_BORDER: usize = 22;

/// Side length of the fused kernel's stack patch: covers
/// `[⌊x⌋ − 20, ⌊x⌋ + 21] × [⌊y⌋ − 20, ⌊y⌋ + 21]`.
const FUSED_PATCH: usize = 42;

/// Half-widths of the orientation disc: row `dy` of the patch covers
/// `dx ∈ [−UMAX[|dy|], UMAX[|dy|]]`, exactly the pixels with
/// `dx² + dy² ≤ r²` (15, 14, 14, 14, 14, 14, 13, 13, 12, 12, 11, 10, 9,
/// 7, 5, 0 for r = 15).
const UMAX: [isize; PATCH_RADIUS as usize + 1] = {
    let r = PATCH_RADIUS;
    let mut umax = [0; PATCH_RADIUS as usize + 1];
    let mut dy = 0;
    while dy <= r {
        let mut dx = r;
        while dx * dx + dy * dy > r * r {
            dx -= 1;
        }
        umax[dy as usize] = dx;
        dy += 1;
    }
    umax
};

/// Intensity-centroid moments `(m10, m01)` of the disc centred at
/// `(cx, cy)` of a row-major patch `stride` pixels wide, in integers:
/// `m10 = Σ dx·v` and `m01 = Σ dy·(row sum)` over [`UMAX`]'s rows. Each
/// is at most 255 · Σ|d| = 255 · 4 528 over the 709-pixel disc, far inside
/// `i32`.
fn disc_moments(patch: &[u8], stride: usize, cx: usize, cy: usize) -> (i32, i32) {
    let mut m10 = 0i32;
    let mut m01 = 0i32;
    for dy in -PATCH_RADIUS..=PATCH_RADIUS {
        let u = UMAX[dy.unsigned_abs()];
        let start = (cy as isize + dy) as usize * stride + cx - u as usize;
        let row = &patch[start..=start + 2 * u as usize];
        let mut row_sum = 0i32;
        for (dx, &v) in (-u..=u).zip(row) {
            m10 += dx as i32 * i32::from(v);
            row_sum += i32::from(v);
        }
        m01 += dy as i32 * row_sum;
    }
    (m10, m01)
}

/// Fused orientation + description: one gather of the keypoint's patch
/// into a stack buffer feeds both the intensity-centroid moments and the
/// rotated-BRIEF sampling, instead of two separate passes of clamped
/// image loads. This is the per-keypoint work item the GPU executor
/// schedules in `gpu_extract`'s describe kernel.
///
/// Bit-identity with the scalar pair: inside [`FUSED_BORDER`] every
/// `get_clamped` / `sample_bilinear` clamp in it is a no-op, and
/// - the moments are summed in integers (`disc_moments`). The f64 loop
///   of [`intensity_centroid_angle`] is exact too — every product and
///   partial sum is an integer far below 2⁵³ — and never yields −0, so
///   both hand `atan2` the same two values;
/// - the 512 rotated sample points use `describe`'s expressions. Each is
///   then moved into the patch by subtracting its integer corner, which
///   is exact, and as the result is non-negative, truncation is its floor
///   and the fractional part equals the one
///   [`GrayImage::sample_bilinear`] computes in image space. The 4-tap
///   blend is the same expression in the same order.
///
/// Keypoints in the border band (possible: `DESC_BORDER` is 17) fall back
/// to the scalar pair.
pub fn orient_and_describe(img: &GrayImage, x: f64, y: f64) -> (f64, Descriptor) {
    let xi = x as usize;
    let yi = y as usize;
    if x < 0.0 || y < 0.0 || !img.in_interior(xi, yi, FUSED_BORDER) {
        let angle = intensity_centroid_angle(img, x, y);
        return (angle, describe(img, x, y, angle));
    }
    let bx = xi - 20;
    let by = yi - 20;
    let w = img.width;
    let mut patch = [0u8; FUSED_PATCH * FUSED_PATCH];
    for (py, prow) in patch.chunks_exact_mut(FUSED_PATCH).enumerate() {
        let src = (by + py) * w + bx;
        prow.copy_from_slice(&img.data[src..src + FUSED_PATCH]);
    }

    let (m10, m01) = disc_moments(
        &patch,
        FUSED_PATCH,
        x.round() as usize - bx,
        y.round() as usize - by,
    );
    let angle = f64::from(m01).atan2(f64::from(m10));

    // Rotated BRIEF in three passes: steer every sample point, sample each
    // in patch-local coordinates, then compare the pairs.
    let pattern = BriefPattern::standard();
    let (s, c) = angle.sin_cos();
    let mut sx = [0.0f64; 2 * DESC_BITS];
    let mut sy = [0.0f64; 2 * DESC_BITS];
    for (i, &((ax, ay), (pbx, pby))) in pattern.pairs.iter().enumerate() {
        sx[2 * i] = x + (c * ax - s * ay);
        sy[2 * i] = y + (s * ax + c * ay);
        sx[2 * i + 1] = x + (c * pbx - s * pby);
        sy[2 * i + 1] = y + (s * pbx + c * pby);
    }
    let (bxf, byf) = (bx as f64, by as f64);
    let mut vals = [0.0f64; 2 * DESC_BITS];
    for ((v, &px), &py) in vals.iter_mut().zip(&sx).zip(&sy) {
        let lx = px - bxf;
        let ly = py - byf;
        debug_assert!(lx >= 0.0 && ly >= 0.0);
        let x0 = lx as i32;
        let y0 = ly as i32;
        let fx = lx - f64::from(x0);
        let fy = ly - f64::from(y0);
        let row0 = y0 as usize * FUSED_PATCH + x0 as usize;
        let row1 = row0 + FUSED_PATCH;
        let p00 = patch[row0] as f64;
        let p10 = patch[row0 + 1] as f64;
        let p01 = patch[row1] as f64;
        let p11 = patch[row1 + 1] as f64;
        *v = p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy;
    }
    // Pack the comparisons without a branch: half of them go each way, so
    // a branch per bit would mispredict about every other one.
    let mut d = Descriptor::ZERO;
    for (byte, pairs) in d.0.iter_mut().zip(vals.chunks_exact(16)) {
        for (j, pair) in pairs.chunks_exact(2).enumerate() {
            *byte |= u8::from(pair[0] < pair[1]) << j;
        }
    }
    (angle, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A patch with a bright right half has orientation ≈ 0 (centroid to
    /// the +x side).
    #[test]
    fn orientation_points_at_bright_side() {
        let img = GrayImage::from_fn(64, 64, |x, _| if x >= 32 { 200 } else { 20 });
        let a = intensity_centroid_angle(&img, 32.0, 32.0);
        assert!(a.abs() < 0.2, "angle = {a}");
        // Bright bottom ⇒ +y ⇒ π/2.
        let img2 = GrayImage::from_fn(64, 64, |_, y| if y >= 32 { 200 } else { 20 });
        let a2 = intensity_centroid_angle(&img2, 32.0, 32.0);
        assert!(
            (a2 - std::f64::consts::FRAC_PI_2).abs() < 0.2,
            "angle = {a2}"
        );
    }

    #[test]
    fn fused_kernel_matches_scalar_pair_exactly() {
        let img = GrayImage::from_fn(100, 90, |x, y| {
            let mut h = (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (y as u64).wrapping_mul(0xBF58476D1CE4E5B9);
            h ^= h >> 31;
            h = h.wrapping_mul(0x94D049BB133111EB);
            (h >> 24) as u8
        });
        // Interior points (fast path), fractional positions, and points in
        // the DESC_BORDER..FUSED_BORDER band (scalar fallback).
        let points = [
            (50.0, 45.0),
            (22.0, 22.0),
            (77.9, 67.3),
            (30.25, 41.75),
            (18.0, 45.0), // x inside DESC_BORDER..FUSED_BORDER band
            (50.0, 70.5),
            (81.0, 19.5),
        ];
        for (x, y) in points {
            let want_angle = intensity_centroid_angle(&img, x, y);
            let want_desc = describe(&img, x, y, want_angle);
            let (angle, desc) = orient_and_describe(&img, x, y);
            assert_eq!(angle.to_bits(), want_angle.to_bits(), "angle at ({x},{y})");
            assert_eq!(desc, want_desc, "descriptor at ({x},{y})");
        }
    }

    #[test]
    fn umax_spans_exactly_the_disc() {
        let r = PATCH_RADIUS;
        for dy in -r..=r {
            for dx in -r..=r {
                let inside = dx.abs() <= UMAX[dy.unsigned_abs()];
                assert_eq!(inside, dx * dx + dy * dy <= r * r, "({dx}, {dy})");
            }
        }
    }

    #[test]
    fn integer_moments_equal_the_f64_loop() {
        // Random patches (uniform noise, and noise biased to one corner so
        // the moments are large), at every centre where the disc fits.
        let mut rng = StdRng::seed_from_u64(0x5eed_0003);
        for trial in 0..200 {
            let patch: Vec<u8> = (0..FUSED_PATCH * FUSED_PATCH)
                .map(|i| {
                    let v = rng.gen_range(0..256u32) as u8;
                    let (px, py) = (i % FUSED_PATCH, i / FUSED_PATCH);
                    if trial % 2 == 1 && px + py < FUSED_PATCH {
                        255
                    } else {
                        v
                    }
                })
                .collect();
            let cx = rng.gen_range(15..FUSED_PATCH - 15);
            let cy = rng.gen_range(15..FUSED_PATCH - 15);
            let (m10, m01) = disc_moments(&patch, FUSED_PATCH, cx, cy);
            // The f64 loop of intensity_centroid_angle over the same patch.
            let r = PATCH_RADIUS;
            let (mut f10, mut f01) = (0.0f64, 0.0f64);
            for dy in -r..=r {
                for dx in -r..=r {
                    if dx * dx + dy * dy > r * r {
                        continue;
                    }
                    let idx =
                        (cy as isize + dy) as usize * FUSED_PATCH + (cx as isize + dx) as usize;
                    let v = patch[idx] as f64;
                    f10 += dx as f64 * v;
                    f01 += dy as f64 * v;
                }
            }
            assert_eq!(
                f64::from(m10).to_bits(),
                f10.to_bits(),
                "m10, trial {trial}"
            );
            assert_eq!(
                f64::from(m01).to_bits(),
                f01.to_bits(),
                "m01, trial {trial}"
            );
            let img = GrayImage {
                width: FUSED_PATCH,
                height: FUSED_PATCH,
                data: patch,
            };
            let want = intensity_centroid_angle(&img, cx as f64, cy as f64);
            let got = f64::from(m01).atan2(f64::from(m10));
            assert_eq!(got.to_bits(), want.to_bits(), "angle, trial {trial}");
        }
    }

    #[test]
    fn pattern_is_deterministic() {
        let p1 = BriefPattern::standard();
        let p2 = BriefPattern::standard();
        assert_eq!(p1.pairs[0], p2.pairs[0]);
        assert_eq!(p1.pairs[255], p2.pairs[255]);
    }

    #[test]
    fn pattern_points_inside_patch() {
        for &((ax, ay), (bx, by)) in BriefPattern::standard().pairs.iter() {
            for v in [ax, ay, bx, by] {
                assert!(v.abs() < PATCH_RADIUS as f64);
            }
        }
    }

    /// The same textured patch must produce identical descriptors when
    /// sampled twice, and very different descriptors from an unrelated
    /// patch.
    #[test]
    fn descriptor_distinguishes_patches() {
        let textured = GrayImage::from_fn(64, 64, |x, y| (((x * 7 + y * 13) % 29) * 8) as u8);
        let other = GrayImage::from_fn(64, 64, |x, y| (((x * 3 + y * 31) % 17) * 15) as u8);
        let d1 = describe(&textured, 32.0, 32.0, 0.0);
        let d1_again = describe(&textured, 32.0, 32.0, 0.0);
        let d2 = describe(&other, 32.0, 32.0, 0.0);
        assert_eq!(d1.distance(&d1_again), 0);
        assert!(
            d1.distance(&d2) > 50,
            "unrelated patches too similar: {}",
            d1.distance(&d2)
        );
    }

    /// A small translation of the same texture keeps descriptors close; the
    /// descriptor shouldn't be hypersensitive to sub-pixel jitter.
    #[test]
    fn descriptor_tolerates_small_shift() {
        let textured = GrayImage::from_fn(96, 96, |x, y| {
            // Smooth-ish blobby texture.
            let fx = x as f64 / 9.0;
            let fy = y as f64 / 7.0;
            (128.0 + 100.0 * (fx.sin() * fy.cos())) as u8
        });
        let d0 = describe(&textured, 48.0, 48.0, 0.0);
        let d_shift = describe(&textured, 48.3, 47.8, 0.0);
        assert!(
            d0.distance(&d_shift) < 60,
            "jitter distance {}",
            d0.distance(&d_shift)
        );
    }

    /// Rotating the image and steering by the measured angle should keep
    /// the descriptor roughly stable (the point of *rotated* BRIEF).
    #[test]
    fn steering_compensates_rotation() {
        // Radially-varying texture rotated by 90°: rotating the image by
        // θ adds θ to the intensity-centroid angle, so describing with the
        // measured angle cancels the rotation.
        let tex = |u: f64, v: f64| -> u8 {
            let r = (u * u + v * v).sqrt();
            let a = v.atan2(u);
            (128.0 + 60.0 * (r * 0.8).sin() + 50.0 * (3.0 * a).cos()) as u8
        };
        let img0 = GrayImage::from_fn(96, 96, |x, y| tex(x as f64 - 48.0, y as f64 - 48.0));
        // 90° rotated copy: (u, v) -> (v, -u).
        let img90 = GrayImage::from_fn(96, 96, |x, y| {
            let (u, v) = (x as f64 - 48.0, y as f64 - 48.0);
            tex(v, -u)
        });
        let a0 = intensity_centroid_angle(&img0, 48.0, 48.0);
        let a90 = intensity_centroid_angle(&img90, 48.0, 48.0);
        let d0 = describe(&img0, 48.0, 48.0, a0);
        let d90 = describe(&img90, 48.0, 48.0, a90);
        let unsteered = describe(&img90, 48.0, 48.0, a0);
        assert!(
            d0.distance(&d90) < 70,
            "steered distance {} too high",
            d0.distance(&d90)
        );
        // And steering must actually help vs. ignoring the angle change.
        assert!(d0.distance(&d90) < d0.distance(&unsteered));
    }
}
