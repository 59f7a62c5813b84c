//! 8-bit grayscale images.
//!
//! The only image type in the workspace. The synthetic dataset renderer
//! (`slamshare-sim`) produces these, the feature extractor consumes them and
//! the video codec (`slamshare-net`) compresses them.

use serde::{Deserialize, Serialize};

/// One output column's horizontal half of a bilinear resample: the two
/// source columns it blends and their weights, tabulated once per
/// [`GrayImage::resize_into`] instead of once per pixel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnTap {
    x0: usize,
    x1: usize,
    fx: f64,
    /// `1 - fx`.
    gx: f64,
}

/// `v.round().clamp(0.0, 255.0) as u8` for `0 <= v < 2^32` without the
/// rounding call (a libm call on baseline x86-64). With `t = trunc(v)`,
/// `v - t` is exact (Sterbenz for `v >= 1`, `v - 0` below), so comparing
/// it with 0.5 rounds half away from zero exactly as `f64::round` does.
#[inline]
pub(crate) fn round_to_u8(v: f64) -> u8 {
    let t = v as u32;
    (t + u32::from(v - t as f64 >= 0.5)).min(255) as u8
}

/// A row-major 8-bit grayscale image (the default is 0×0).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GrayImage {
    pub width: usize,
    pub height: usize,
    pub data: Vec<u8>,
}

impl GrayImage {
    /// A black image.
    pub fn new(width: usize, height: usize) -> GrayImage {
        GrayImage {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// An image filled with `value`.
    pub fn filled(width: usize, height: usize, value: u8) -> GrayImage {
        GrayImage {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Build from a per-pixel function `(x, y) -> intensity`.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> u8,
    ) -> GrayImage {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        GrayImage {
            width,
            height,
            data,
        }
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Signed accessor used by detectors that index relative to a center
    /// pixel; clamps to the border.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> u8 {
        let x = x.clamp(0, self.width as isize - 1) as usize;
        let y = y.clamp(0, self.height as isize - 1) as usize;
        self.get(x, y)
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Bilinear sample at a real-valued position (clamped to the image).
    pub fn sample_bilinear(&self, x: f64, y: f64) -> f64 {
        let x = x.clamp(0.0, (self.width - 1) as f64);
        let y = y.clamp(0.0, (self.height - 1) as f64);
        // Clamped to >= 0, so truncation is the floor (without the libm
        // call `f64::floor` is on baseline x86-64).
        let x0 = x as usize;
        let y0 = y as usize;
        let x1 = (x0 + 1).min(self.width - 1);
        let y1 = (y0 + 1).min(self.height - 1);
        let fx = x - x0 as f64;
        let fy = y - y0 as f64;
        let p00 = self.get(x0, y0) as f64;
        let p10 = self.get(x1, y0) as f64;
        let p01 = self.get(x0, y1) as f64;
        let p11 = self.get(x1, y1) as f64;
        p00 * (1.0 - fx) * (1.0 - fy)
            + p10 * fx * (1.0 - fy)
            + p01 * (1.0 - fx) * fy
            + p11 * fx * fy
    }

    /// Downscale by an arbitrary factor `>= 1` with bilinear sampling.
    /// The pyramid uses factor 1.2 between levels, as ORB-SLAM does.
    pub fn resize(&self, new_width: usize, new_height: usize) -> GrayImage {
        let mut out = GrayImage {
            width: 0,
            height: 0,
            data: Vec::new(),
        };
        self.resize_into(new_width, new_height, &mut Vec::new(), &mut out);
        out
    }

    /// [`GrayImage::resize`] writing into an existing image, reusing its
    /// pixel buffer and the column table `columns` (overwritten) — the
    /// per-frame pyramid rebuild's allocation-free path. Same sampling
    /// math, bit-identical output.
    pub fn resize_into(
        &self,
        new_width: usize,
        new_height: usize,
        columns: &mut Vec<ColumnTap>,
        out: &mut GrayImage,
    ) {
        assert!(new_width > 0 && new_height > 0);
        let sx = self.width as f64 / new_width as f64;
        let sy = self.height as f64 / new_height as f64;
        out.width = new_width;
        out.height = new_height;
        out.data.clear();
        out.data.reserve(new_width * new_height);
        // Separable bilinear: the x-dependent half of sample_bilinear is
        // tabulated once per output column, the y-dependent half once per
        // output row, and the two source rows borrowed as slices, leaving
        // four loads and the blend per pixel. Every f64 operation matches
        // sample_bilinear's exactly (`1 - f` is the same value however
        // often it is computed), so the pixels are bit-identical to the
        // naive per-pixel path.
        let xmax = (self.width - 1) as f64;
        columns.clear();
        columns.extend((0..new_width).map(|x| {
            let src_x = ((x as f64 + 0.5) * sx - 0.5).clamp(0.0, xmax);
            let x0 = src_x.floor() as usize;
            let fx = src_x - x0 as f64;
            ColumnTap {
                x0,
                x1: (x0 + 1).min(self.width - 1),
                fx,
                gx: 1.0 - fx,
            }
        }));
        let ymax = (self.height - 1) as f64;
        for y in 0..new_height {
            let src_y = ((y as f64 + 0.5) * sy - 0.5).clamp(0.0, ymax);
            let y0 = src_y.floor() as usize;
            let y1 = (y0 + 1).min(self.height - 1);
            let fy = src_y - y0 as f64;
            let gy = 1.0 - fy;
            let row0 = &self.data[y0 * self.width..y0 * self.width + self.width];
            let row1 = &self.data[y1 * self.width..y1 * self.width + self.width];
            out.data.extend(columns.iter().map(|c| {
                let p00 = row0[c.x0] as f64;
                let p10 = row0[c.x1] as f64;
                let p01 = row1[c.x0] as f64;
                let p11 = row1[c.x1] as f64;
                let v = p00 * c.gx * gy + p10 * c.fx * gy + p01 * c.gx * fy + p11 * c.fx * fy;
                round_to_u8(v)
            }));
        }
    }

    /// Copy `src` into `self`, reusing `self`'s buffer.
    pub fn copy_from(&mut self, src: &GrayImage) {
        self.width = src.width;
        self.height = src.height;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Mean intensity, used by tests and by the video codec's rate model.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// True if the pixel is at least `margin` pixels away from every border.
    #[inline]
    pub fn in_interior(&self, x: usize, y: usize, margin: usize) -> bool {
        x >= margin && y >= margin && x + margin < self.width && y + margin < self.height
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_layout() {
        let img = GrayImage::from_fn(3, 2, |x, y| (y * 10 + x) as u8);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(2, 0), 2);
        assert_eq!(img.get(0, 1), 10);
        assert_eq!(img.get(2, 1), 12);
    }

    #[test]
    fn bilinear_interpolates_midpoints() {
        let img = GrayImage::from_fn(2, 1, |x, _| if x == 0 { 0 } else { 100 });
        assert!((img.sample_bilinear(0.5, 0.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bilinear_clamps_outside() {
        let img = GrayImage::filled(4, 4, 77);
        assert_eq!(img.sample_bilinear(-5.0, -5.0), 77.0);
        assert_eq!(img.sample_bilinear(100.0, 100.0), 77.0);
    }

    #[test]
    fn resize_preserves_constant_image() {
        let img = GrayImage::filled(100, 80, 42);
        let small = img.resize(83, 66);
        assert!(small.data.iter().all(|&v| v == 42));
    }

    #[test]
    fn resize_dimensions() {
        let img = GrayImage::new(120, 90);
        let s = img.resize(100, 75);
        assert_eq!((s.width, s.height), (100, 75));
    }

    #[test]
    fn resize_matches_per_pixel_bilinear_reference() {
        let img = GrayImage::from_fn(64, 48, |x, y| ((x * 7) ^ (y * 13) ^ (x * y / 3)) as u8);
        for (nw, nh) in [(53, 40), (64, 48), (11, 48), (64, 9), (1, 1)] {
            let got = img.resize(nw, nh);
            let sx = img.width as f64 / nw as f64;
            let sy = img.height as f64 / nh as f64;
            for y in 0..nh {
                for x in 0..nw {
                    let src_x = (x as f64 + 0.5) * sx - 0.5;
                    let src_y = (y as f64 + 0.5) * sy - 0.5;
                    let want = img.sample_bilinear(src_x, src_y).round().clamp(0.0, 255.0) as u8;
                    assert_eq!(got.get(x, y), want, "pixel ({x},{y}) of {nw}x{nh}");
                }
            }
        }
    }

    #[test]
    fn exact_rounding_matches_f64_round() {
        let check = |v: f64| {
            assert_eq!(
                round_to_u8(v),
                v.round().clamp(0.0, 255.0) as u8,
                "v = {v:e} ({:#x})",
                v.to_bits()
            );
        };
        // ±64 ulps around every tie the pyramid can produce, and the tie
        // itself. For positive f64s the bit pattern steps one ulp.
        for k in 0..=255u32 {
            let tie = (k as f64 + 0.5).to_bits();
            for bits in tie - 64..=tie + 64 {
                check(f64::from_bits(bits));
            }
        }
        // A dense grid over the whole range.
        for i in 0..256u32 << 16 {
            check(i as f64 / 65536.0);
        }
    }

    #[test]
    fn interior_check() {
        let img = GrayImage::new(10, 10);
        assert!(img.in_interior(5, 5, 3));
        assert!(!img.in_interior(2, 5, 3));
        assert!(!img.in_interior(5, 7, 3));
        assert!(img.in_interior(3, 6, 3));
    }
}
