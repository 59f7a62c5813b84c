//! Frame codecs: inter-frame video vs. intra-only image transfer.
//!
//! The paper streams client camera frames as H.264 video (~1–2 Mbit/s)
//! instead of individual PNG images (~80–130 Mbit/s) — Table 3. No H.264
//! encoder exists in this workspace, so we implement the *mechanism* that
//! produces that gap on our synthetic frames:
//!
//! * [`ImageCodec`] — lossless intra coding (left-prediction deltas +
//!   PackBits run-length), the PNG stand-in. Sensor dither makes raw
//!   frames barely compressible — faithfully matching EuRoC PNGs, which
//!   average ~92 % of raw size.
//! * [`VideoEncoder`]/[`VideoDecoder`] — an inter-frame codec: periodic
//!   intra-coded I-frames plus P-frames that encode the quantized
//!   difference against the previously *reconstructed* frame
//!   (zero-run/value tokens). The dead-zone quantizer suppresses sensor
//!   dither exactly as H.264's transform quantization does, so static
//!   background costs nothing and only moving texture edges are coded.
//!
//! The P-frame encoder scans 16-pixel blocks: an unchanged block is
//! skipped on one lane-wise compare, and a literal group's deltas are
//! written as one slice, while the reference is advanced in place. Its
//! bytes are the per-pixel scan's (kept as the test oracle). A P-frame
//! decodes only if its token stream consumes the whole payload, to the
//! byte; it is validated before it touches the reference, then applied
//! to the reference in place.
//!
//! The decoder reconstructs what the encoder reconstructed, so encoder
//! and decoder never drift. P-frame loss is bounded by the quantizer
//! dead-zone (texture contrast ≥ 45 ≫ dead-zone), which is why SLAM
//! accuracy on decoded video matches raw-image input (Table 3's ATE row).

use bytes::{BufMut, Bytes, BytesMut};
use slamshare_features::GrayImage;
use std::time::Instant;

/// Codec-layer decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    Truncated,
    BadMagic(u8),
    /// P-frame received with no reference frame.
    MissingReference,
    DimensionMismatch,
    /// The frame header declares dimensions that are zero or implausibly
    /// large (a corrupt header must not drive a huge allocation).
    BadDimensions {
        width: u32,
        height: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated encoded frame"),
            CodecError::BadMagic(m) => write!(f, "unknown frame magic {m:#04x}"),
            CodecError::MissingReference => write!(f, "P-frame with no reference frame"),
            CodecError::DimensionMismatch => {
                write!(f, "P-frame dimensions disagree with reference")
            }
            CodecError::BadDimensions { width, height } => {
                write!(f, "implausible frame dimensions {width}x{height}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

const MAGIC_INTRA: u8 = 0xA1;
const MAGIC_PREDICTED: u8 = 0xA2;

/// Upper bound on `width * height` accepted by the decoders. Far above
/// any camera this system simulates, far below what a corrupted header
/// could otherwise make the decoder allocate.
pub const MAX_DECODE_PIXELS: u64 = 1 << 25;

/// Whether an encoded payload is an intra (I-) frame — decodable with no
/// reference. The server's ingest gate uses this to wait out a desynced
/// stream until the client's resync I-frame arrives.
pub fn payload_is_iframe(data: &[u8]) -> bool {
    data.first() == Some(&MAGIC_INTRA)
}

/// Parse and validate the `width`/`height` header shared by both frame
/// kinds (`data` must already hold ≥ 9 bytes).
fn read_dims(data: &[u8]) -> Result<(usize, usize), CodecError> {
    let width = u32::from_le_bytes([data[1], data[2], data[3], data[4]]);
    let height = u32::from_le_bytes([data[5], data[6], data[7], data[8]]);
    if width == 0 || height == 0 || u64::from(width) * u64::from(height) > MAX_DECODE_PIXELS {
        return Err(CodecError::BadDimensions { width, height });
    }
    Ok((width as usize, height as usize))
}

/// Dead-zone threshold for P-frame residuals. Must exceed twice the
/// renderer's dither amplitude (±4) so static-but-noisy pixels code to
/// zero, and stay far below the texture palette contrast (≥ 45) so real
/// structure survives.
pub const DEFAULT_DEADZONE: u8 = 10;

/// One encoded frame.
#[derive(Debug, Clone)]
pub struct EncodedFrame {
    pub data: Bytes,
    pub is_iframe: bool,
    /// Wall-clock encode time, milliseconds.
    pub encode_ms: f64,
}

// ---------------------------------------------------------------------
// PackBits RLE (the classic scheme: control byte 0..=127 = n+1 literals,
// 129..=255 = repeat next byte 257−n times).
// ---------------------------------------------------------------------

pub fn packbits_encode(out: &mut BytesMut, data: &[u8]) {
    let mut i = 0;
    while i < data.len() {
        // Find a run.
        let mut run = 1;
        while i + run < data.len() && data[i + run] == data[i] && run < 128 {
            run += 1;
        }
        if run >= 3 {
            out.put_u8((257 - run) as u8);
            out.put_u8(data[i]);
            i += run;
        } else {
            // Collect literals until the next run of ≥3 (or 128 cap).
            let start = i;
            let mut j = i;
            while j < data.len() && j - start < 128 {
                let mut r = 1;
                while j + r < data.len() && data[j + r] == data[j] && r < 3 {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                j += 1;
            }
            let n = j - start;
            out.put_u8((n - 1) as u8);
            out.put_slice(&data[start..j]);
            i = j;
        }
    }
}

/// Decode a PackBits stream into exactly `expected` bytes. Total on
/// arbitrary input: any truncation, overshoot, or shortfall is an `Err`,
/// never a panic, and the output allocation is bounded by `expected`.
pub fn packbits_decode(data: &[u8], expected: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    packbits_decode_into(data, expected, &mut out)?;
    Ok(out)
}

/// [`packbits_decode`] into a caller-owned buffer: `out` is cleared and
/// refilled, reusing its capacity, so a warm decode loop performs no heap
/// allocation. On `Err` the contents of `out` are unspecified.
pub fn packbits_decode_into(
    data: &[u8],
    expected: usize,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    out.clear();
    out.reserve(expected);
    let mut i = 0;
    while i < data.len() && out.len() < expected {
        let ctrl = data[i];
        i += 1;
        if ctrl <= 127 {
            let n = ctrl as usize + 1;
            if i + n > data.len() {
                return Err(CodecError::Truncated);
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
        } else if ctrl >= 129 {
            let n = 257 - ctrl as usize;
            if i >= data.len() {
                return Err(CodecError::Truncated);
            }
            out.extend(std::iter::repeat_n(data[i], n));
            i += 1;
        }
        // ctrl == 128: no-op (reserved), skip.
    }
    if out.len() != expected {
        return Err(CodecError::Truncated);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Intra coding (the PNG stand-in).
// ---------------------------------------------------------------------

/// Lossless intra-only image codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ImageCodec;

impl ImageCodec {
    /// Encode one frame losslessly (left-prediction + PackBits).
    pub fn encode(img: &GrayImage) -> EncodedFrame {
        ImageCodec::encode_with(img, &mut Vec::new())
    }

    /// [`ImageCodec::encode`] with the left-prediction residuals built in
    /// `residuals`, scratch whose capacity is reused.
    fn encode_with(img: &GrayImage, residuals: &mut Vec<u8>) -> EncodedFrame {
        let t0 = Instant::now();
        let mut out = BytesMut::with_capacity(img.data.len() / 2 + 16);
        out.put_u8(MAGIC_INTRA);
        out.put_u32_le(img.width as u32);
        out.put_u32_le(img.height as u32);
        // Row-wise left-prediction residuals.
        residuals.clear();
        residuals.resize(img.data.len(), 0);
        let width = img.width.max(1);
        for (res, row) in residuals
            .chunks_exact_mut(width)
            .zip(img.data.chunks_exact(width))
        {
            res[0] = row[0];
            for ((r, &v), &left) in res[1..].iter_mut().zip(&row[1..]).zip(row) {
                *r = v.wrapping_sub(left);
            }
        }
        packbits_encode(&mut out, residuals);
        EncodedFrame {
            data: out.freeze(),
            is_iframe: true,
            encode_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Decode an intra frame. Returns `(image, decode_ms)`.
    pub fn decode(data: &[u8]) -> Result<(GrayImage, f64), CodecError> {
        let mut img = GrayImage::new(0, 0);
        let mut residuals = Vec::new();
        let ms = ImageCodec::decode_into(data, &mut residuals, &mut img)?;
        Ok((img, ms))
    }

    /// [`ImageCodec::decode`] into caller-owned buffers: `residuals` is
    /// codec scratch and `img` receives the frame, both reusing their
    /// capacity (a warm decode loop performs no heap allocation). The
    /// decoded pixels are identical to [`ImageCodec::decode`]'s. On `Err`
    /// the contents of both buffers are unspecified.
    pub fn decode_into(
        data: &[u8],
        residuals: &mut Vec<u8>,
        img: &mut GrayImage,
    ) -> Result<f64, CodecError> {
        let t0 = Instant::now();
        if data.len() < 9 {
            return Err(CodecError::Truncated);
        }
        if data[0] != MAGIC_INTRA {
            return Err(CodecError::BadMagic(data[0]));
        }
        let (width, height) = read_dims(data)?;
        packbits_decode_into(&data[9..], width * height, residuals)?;
        img.width = width;
        img.height = height;
        img.data.clear();
        img.data.resize(width * height, 0);
        for y in 0..height {
            let mut prev = 0u8;
            for x in 0..width {
                let v = prev.wrapping_add(residuals[y * width + x]);
                img.set(x, y, v);
                prev = v;
            }
        }
        Ok(t0.elapsed().as_secs_f64() * 1e3)
    }
}

// ---------------------------------------------------------------------
// Inter-frame video coding.
// ---------------------------------------------------------------------

/// Pixels per step of the P-frame scan: one 128-bit register of byte
/// lanes, which is SSE2 on baseline x86-64.
const LANES: usize = 16;

/// Byte `i` (little-endian) is `0xFF` iff pixel `i` of the block moved
/// by more than `dead` from the reference, else `0`: a lane-wise
/// `abs_diff > dead` (SSE2 `pmaxub`/`pminub`/`psubb`, then `pcmpeqb`),
/// read out as one 128-bit word whose `trailing_zeros() / 8` is the first
/// moved lane. Portable, safe Rust with no intrinsics and no build flag;
/// the lane loop is what LLVM lowers.
#[inline(always)]
fn changed_lanes(cur: &[u8; LANES], prev: &[u8; LANES], dead: u8) -> u128 {
    let mut moved = [0u8; LANES];
    for ((m, &c), &p) in moved.iter_mut().zip(cur).zip(prev) {
        *m = 0u8.wrapping_sub(u8::from(c.abs_diff(p) > dead));
    }
    u128::from_le_bytes(moved)
}

/// How many leading pixels of `cur` are all changed (`changed`) or all
/// unchanged (`!changed`) against `reference`, which may be longer. Whole
/// 16-pixel blocks of the run cost one [`changed_lanes`] each.
fn run_length(cur: &[u8], reference: &[u8], dead: u8, changed: bool) -> usize {
    // Lanes that end the run read non-zero.
    let flip = if changed { u128::MAX } else { 0 };
    let (blocks, tail) = cur.as_chunks::<LANES>();
    let (ref_blocks, _) = reference.as_chunks::<LANES>();
    for (b, (c, r)) in blocks.iter().zip(ref_blocks).enumerate() {
        let ends = changed_lanes(c, r, dead) ^ flip;
        if ends != 0 {
            return b * LANES + ends.trailing_zeros() as usize / 8;
        }
    }
    let at = blocks.len() * LANES;
    at + tail
        .iter()
        .zip(&reference[at..])
        .take_while(|(&c, &r)| (c.abs_diff(r) > dead) == changed)
        .count()
}

/// The P-frame token stream: the residual of `cur` against `reference`,
/// appended to `out`, with `reference` advanced in place to the
/// decoder-visible reconstruction.
///
/// Tokens are `(u16 zero-run, u8 literal-count, count × wrapping deltas)`.
/// Changed pixels cluster along moving edges (especially with
/// anti-aliased rendering), so grouping consecutive literals amortizes the
/// run header across the whole edge. A pixel is *changed* when it differs
/// from the reference by more than `dead`; a changed pixel is coded
/// exactly and copied into `reference`, an unchanged one keeps the
/// reference value. Zero runs over `u16::MAX` are flushed as empty-literal
/// tokens, literal groups stop at 255, and the zero run after the last
/// changed pixel is not coded.
///
/// Both runs are measured a block at a time ([`run_length`]): an
/// unchanged 16-pixel block costs one compare, not sixteen. The output is
/// byte for byte the per-pixel scan's (`encode_residuals_scalar`, the test
/// oracle).
fn encode_residuals(out: &mut Vec<u8>, cur: &[u8], reference: &mut [u8], dead: u8) {
    debug_assert_eq!(cur.len(), reference.len());
    let n = cur.len();
    let mut start = 0usize;
    loop {
        let mut zero_run = run_length(&cur[start..], &reference[start..], dead, false);
        start += zero_run;
        if start == n {
            return;
        }
        while zero_run > u16::MAX as usize {
            out.put_u16_le(u16::MAX);
            out.put_u8(0);
            zero_run -= u16::MAX as usize;
        }
        let end = start
            + run_length(
                &cur[start..n.min(start + 255)],
                &reference[start..],
                dead,
                true,
            );
        out.put_u16_le(zero_run as u16);
        out.put_u8((end - start) as u8);
        out.extend(
            cur[start..end]
                .iter()
                .zip(&mut reference[start..end])
                .map(|(&c, r)| {
                    let delta = c.wrapping_sub(*r);
                    *r = c;
                    delta
                }),
        );
        start = end;
    }
}

/// Streaming video encoder (I + P frames).
#[derive(Debug, Clone)]
pub struct VideoEncoder {
    /// Dead-zone quantizer threshold for P-frame residuals.
    pub deadzone: u8,
    /// Force an I-frame every this many frames.
    pub iframe_interval: usize,
    /// The decoder-visible previous frame (encoder-side reconstruction),
    /// advanced in place by each P-frame.
    reference: Option<GrayImage>,
    frames_since_iframe: usize,
    /// The receiver requested a resync: the next frame is intra-coded.
    force_iframe: bool,
    /// Intra residual scratch, reused across I-frames.
    residuals: Vec<u8>,
    /// Size of the last P-frame: the next one's capacity.
    last_pframe_len: usize,
}

impl Default for VideoEncoder {
    fn default() -> Self {
        VideoEncoder::new(DEFAULT_DEADZONE, 30)
    }
}

impl VideoEncoder {
    pub fn new(deadzone: u8, iframe_interval: usize) -> VideoEncoder {
        assert!(iframe_interval >= 1);
        VideoEncoder {
            deadzone,
            iframe_interval,
            reference: None,
            frames_since_iframe: 0,
            force_iframe: false,
            residuals: Vec::new(),
            last_pframe_len: 4096,
        }
    }

    /// Make the next encoded frame an I-frame regardless of the GOP
    /// schedule — the server's resync request after its decoder lost the
    /// stream (corrupt or dropped frames).
    pub fn request_iframe(&mut self) {
        self.force_iframe = true;
    }

    /// Encode the next frame of the stream.
    pub fn encode(&mut self, img: &GrayImage) -> EncodedFrame {
        let need_iframe = self.force_iframe
            || match &self.reference {
                None => true,
                Some(r) => {
                    r.width != img.width
                        || r.height != img.height
                        || self.frames_since_iframe + 1 >= self.iframe_interval
                }
            };
        let reference = match &mut self.reference {
            Some(r) if !need_iframe => r,
            _ => {
                let encoded = ImageCodec::encode_with(img, &mut self.residuals);
                self.reference
                    .get_or_insert_with(|| GrayImage::new(0, 0))
                    .copy_from(img);
                self.frames_since_iframe = 0;
                self.force_iframe = false;
                return encoded;
            }
        };
        let t0 = Instant::now();
        let mut out = Vec::with_capacity(self.last_pframe_len);
        out.put_u8(MAGIC_PREDICTED);
        out.put_u32_le(img.width as u32);
        out.put_u32_le(img.height as u32);
        encode_residuals(&mut out, &img.data, &mut reference.data, self.deadzone);
        self.last_pframe_len = out.len();
        self.frames_since_iframe += 1;
        EncodedFrame {
            data: Bytes::from(out),
            is_iframe: false,
            encode_ms: t0.elapsed().as_secs_f64() * 1e3,
        }
    }
}

/// Check a P-frame token stream against a `pixels`-pixel frame: every
/// token whole, every literal inside the frame, and the last token ending
/// exactly at the end of `tokens`.
fn validate_tokens(tokens: &[u8], pixels: usize) -> Result<(), CodecError> {
    let (mut i, mut idx) = (0usize, 0usize);
    while i < tokens.len() {
        let [lo, hi, count] = *tokens
            .get(i..i + 3)
            .and_then(|h| h.as_array())
            .ok_or(CodecError::Truncated)?;
        let count = count as usize;
        i += 3 + count;
        idx += u16::from_le_bytes([lo, hi]) as usize + count;
        if i > tokens.len() || idx > pixels {
            return Err(CodecError::Truncated);
        }
    }
    Ok(())
}

/// Add a validated token stream's deltas to `image` in place.
fn apply_tokens(tokens: &[u8], image: &mut [u8]) {
    let (mut i, mut idx) = (0usize, 0usize);
    while i + 3 <= tokens.len() {
        let run = u16::from_le_bytes([tokens[i], tokens[i + 1]]) as usize;
        let count = tokens[i + 2] as usize;
        i += 3;
        idx += run;
        for (p, &d) in image[idx..idx + count]
            .iter_mut()
            .zip(&tokens[i..i + count])
        {
            *p = p.wrapping_add(d);
        }
        idx += count;
        i += count;
    }
}

/// Streaming video decoder.
///
/// Decoding is **total**: any byte sequence returns `Ok` or a typed
/// [`CodecError`], never panics, and a failed decode leaves the decoder's
/// reference state untouched (the error is observable, the stream state
/// is not corrupted further). A P-frame decodes only if its token stream
/// consumes the whole payload: a frame cut anywhere inside a token, even
/// inside its 3-byte header, is `Truncated`.
///
/// The decoded frame *is* the reference, advanced in place and lent
/// ([`VideoDecoder::decode_lent`]) until the next decode: no copy.
#[derive(Debug, Clone, Default)]
pub struct VideoDecoder {
    /// The last decoded frame; empty (0×0) until the first I-frame, as
    /// no decoded frame is (`read_dims` refuses a zero side).
    reference: GrayImage,
    /// An I-frame decodes here and is swapped in only on success; the
    /// swapped-out buffer is the next I-frame's scratch.
    scratch: GrayImage,
    /// PackBits scratch for I-frame decodes, reused across frames.
    residuals: Vec<u8>,
}

impl VideoDecoder {
    pub fn new() -> VideoDecoder {
        VideoDecoder::default()
    }

    /// Decode the next frame of the stream. Returns `(image, decode_ms)`.
    pub fn decode(&mut self, data: &[u8]) -> Result<(GrayImage, f64), CodecError> {
        let (img, ms) = self.decode_lent(data)?;
        Ok((img.clone(), ms))
    }

    /// [`VideoDecoder::decode_lent`], then one copy into `out`, reusing its
    /// buffer; `out` is untouched on `Err`. Kept for `benchmark/`'s codec
    /// replay until that package next opens (ROADMAP item 8).
    pub fn decode_into(&mut self, data: &[u8], out: &mut GrayImage) -> Result<f64, CodecError> {
        let (img, ms) = self.decode_lent(data)?;
        out.copy_from(img);
        Ok(ms)
    }

    /// Decode the next frame of the stream in place and lend it with the
    /// decode time in ms. A P-frame's tokens are validated, then applied
    /// to the reference; an I-frame decodes into scratch that is swapped
    /// in. A failed decode of either kind leaves the lent frame untouched.
    pub fn decode_lent(&mut self, data: &[u8]) -> Result<(&GrayImage, f64), CodecError> {
        let t0 = Instant::now();
        match data.first() {
            None => return Err(CodecError::Truncated),
            Some(&MAGIC_INTRA) => {
                ImageCodec::decode_into(data, &mut self.residuals, &mut self.scratch)?;
                std::mem::swap(&mut self.reference, &mut self.scratch);
            }
            Some(&MAGIC_PREDICTED) => {
                if data.len() < 9 {
                    return Err(CodecError::Truncated);
                }
                let (width, height) = read_dims(data)?;
                if self.reference.data.is_empty() {
                    return Err(CodecError::MissingReference);
                }
                if self.reference.width != width || self.reference.height != height {
                    return Err(CodecError::DimensionMismatch);
                }
                // Only a whole, in-bounds token stream advances the
                // reference.
                validate_tokens(&data[9..], self.reference.data.len())?;
                apply_tokens(&data[9..], &mut self.reference.data);
            }
            Some(&m) => return Err(CodecError::BadMagic(m)),
        }
        Ok((&self.reference, t0.elapsed().as_secs_f64() * 1e3))
    }

    /// The frame the last successful decode lent (a 0×0 image before the
    /// first).
    pub fn frame(&self) -> &GrayImage {
        &self.reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};

    fn frames(n: usize) -> (Vec<GrayImage>, Dataset) {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(n)
                .with_seed(2),
        );
        ((0..n).map(|i| ds.render_frame(i)).collect(), ds)
    }

    /// The per-pixel P-frame scan: the oracle for [`encode_residuals`].
    fn encode_residuals_scalar(out: &mut Vec<u8>, cur: &[u8], reference: &mut [u8], dead: u8) {
        let mut zero_run: u32 = 0;
        let dead = dead as i16;
        let n = cur.len();
        let changed = |reference: &[u8], idx: usize| -> bool {
            (cur[idx] as i16 - reference[idx] as i16).abs() > dead
        };
        let mut idx = 0usize;
        while idx < n {
            if !changed(reference, idx) {
                zero_run += 1;
                idx += 1;
                continue;
            }
            while zero_run > u16::MAX as u32 {
                out.put_u16_le(u16::MAX);
                out.put_u8(0);
                zero_run -= u16::MAX as u32;
            }
            let start = idx;
            while idx < n && idx - start < 255 && changed(reference, idx) {
                idx += 1;
            }
            out.put_u16_le(zero_run as u16);
            out.put_u8((idx - start) as u8);
            for k in start..idx {
                let d = cur[k] as i16 - reference[k] as i16;
                out.put_u8((d as i32 & 0xFF) as u8);
                reference[k] = cur[k];
            }
            zero_run = 0;
        }
    }

    /// A reference of `n` pixels and a current frame that moved from it:
    /// most pixels by a little (dither), some by a lot (edges), in runs.
    fn moved_pair(seed: u64, n: usize) -> (Vec<u8>, Vec<u8>) {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let reference: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
        let mut cur = reference.clone();
        let mut i = 0;
        while i < n {
            let len = rng.gen_range(1..300).min(n - i);
            let big = rng.gen_bool(0.3);
            for p in &mut cur[i..i + len] {
                let step = if big {
                    rng.next_u32() as u8
                } else {
                    rng.gen_range(0..12)
                };
                *p = p.wrapping_add(step);
            }
            i += len;
        }
        (reference, cur)
    }

    proptest::proptest! {
        /// The block scan writes the per-pixel scan's bytes and leaves the
        /// same reconstruction, at every dead zone.
        #[test]
        fn block_scan_matches_per_pixel_scan(
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..3000,
            dead in proptest::prelude::any::<u8>(),
        ) {
            let (reference, cur) = moved_pair(seed, n);
            let (mut expected, mut expected_ref) = (vec![0xA2], reference.clone());
            encode_residuals_scalar(&mut expected, &cur, &mut expected_ref, dead);
            let (mut got, mut got_ref) = (vec![0xA2], reference);
            encode_residuals(&mut got, &cur, &mut got_ref, dead);
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(got_ref, expected_ref);
        }
    }

    #[test]
    fn zero_runs_past_u16_max_match_per_pixel_scan() {
        // One changed pixel after 200 000 unchanged ones, and a literal
        // group far longer than 255.
        let mut reference = vec![7u8; 200_700];
        let mut cur = reference.clone();
        cur[200_000..200_700].fill(200);
        let mut expected = Vec::new();
        encode_residuals_scalar(&mut expected, &cur, &mut reference.clone(), 10);
        let mut got = Vec::new();
        encode_residuals(&mut got, &cur, &mut reference, 10);
        assert_eq!(got, expected);
        assert_eq!(reference, cur);
    }

    #[test]
    fn pframe_cut_inside_its_last_token_is_truncated() {
        let (fs, _) = frames(2);
        let mut enc = VideoEncoder::default();
        let i0 = enc.encode(&fs[0]);
        let p = enc.encode(&fs[1]);
        let mut clean = VideoDecoder::new();
        clean.decode(&i0.data).unwrap();
        let (expected, _) = clean.decode(&p.data).unwrap();
        // Walk the tokens to the last one's first byte.
        let (mut i, mut last) = (9, 9);
        while i < p.data.len() {
            last = i;
            i += 3 + p.data[i + 2] as usize;
        }
        assert_eq!(i, p.data.len());
        assert!(p.data.len() - last > 3, "last token carries literals");
        let mut dec = VideoDecoder::new();
        dec.decode(&i0.data).unwrap();
        for cut in last + 1..p.data.len() {
            assert_eq!(
                dec.decode(&p.data[..cut]).map(|_| ()),
                Err(CodecError::Truncated),
                "cut at {cut} of {}",
                p.data.len()
            );
        }
        // The reference never moved: the intact frame decodes bit-exactly.
        let (d, _) = dec.decode(&p.data).unwrap();
        assert_eq!(d, expected);
    }

    #[test]
    fn intra_roundtrip_lossless() {
        let (fs, _) = frames(1);
        let enc = ImageCodec::encode(&fs[0]);
        let (dec, _) = ImageCodec::decode(&enc.data).unwrap();
        assert_eq!(dec, fs[0]);
    }

    #[test]
    fn packbits_roundtrip_edge_cases() {
        for data in [
            vec![],
            vec![5u8],
            vec![7u8; 1000],
            (0..=255u8).collect::<Vec<_>>(),
            vec![1, 1, 1, 2, 2, 3, 3, 3, 3, 0, 0, 0],
        ] {
            let mut enc = BytesMut::new();
            packbits_encode(&mut enc, &data);
            let dec = packbits_decode(&enc, data.len()).unwrap();
            assert_eq!(dec, data);
        }
    }

    #[test]
    fn video_stream_roundtrip_bounded_error() {
        let (fs, _) = frames(6);
        let mut enc = VideoEncoder::default();
        let mut dec = VideoDecoder::new();
        for (i, f) in fs.iter().enumerate() {
            let e = enc.encode(f);
            assert_eq!(e.is_iframe, i == 0);
            let (d, _) = dec.decode(&e.data).unwrap();
            // P-frame loss bounded by the dead zone; I-frames lossless.
            let max_err = d
                .data
                .iter()
                .zip(&f.data)
                .map(|(a, b)| (*a as i16 - *b as i16).abs())
                .max()
                .unwrap();
            let bound = if e.is_iframe {
                0
            } else {
                DEFAULT_DEADZONE as i16
            };
            assert!(max_err <= bound, "frame {i}: err {max_err} > {bound}");
        }
    }

    #[test]
    fn pframes_much_smaller_than_iframes() {
        let (fs, _) = frames(5);
        let mut enc = VideoEncoder::default();
        let iframe = enc.encode(&fs[0]);
        let mut p_total = 0;
        for f in &fs[1..] {
            let e = enc.encode(f);
            assert!(!e.is_iframe);
            p_total += e.data.len();
        }
        let p_avg = p_total / 4;
        // On the fast V202 drone with anti-aliased rendering, a P-frame
        // carries every moving edge (no motion compensation): ~3-4x under
        // the I-frame is the honest envelope.
        assert!(
            p_avg * 3 < iframe.data.len(),
            "P avg {} vs I {} — inter coding is not paying off",
            p_avg,
            iframe.data.len()
        );
    }

    #[test]
    fn video_bitrate_far_below_image_bitrate() {
        // One I-frame amortized over the GOP plus small P-frames must beat
        // intra-only transfer by a wide margin. (The paper's H.264 gap is
        // larger still thanks to motion compensation, which this codec
        // deliberately omits — see EXPERIMENTS.md.)
        let (fs, _) = frames(12);
        let mut enc = VideoEncoder::default();
        let video_bytes: usize = fs.iter().map(|f| enc.encode(f).data.len()).sum();
        let image_bytes: usize = fs.iter().map(|f| ImageCodec::encode(f).data.len()).sum();
        assert!(
            video_bytes * 2 < image_bytes,
            "video {video_bytes} vs image {image_bytes}"
        );
    }

    #[test]
    fn iframe_interval_respected() {
        let (fs, _) = frames(4);
        let mut enc = VideoEncoder::new(DEFAULT_DEADZONE, 2);
        assert!(enc.encode(&fs[0]).is_iframe);
        assert!(!enc.encode(&fs[1]).is_iframe);
        assert!(enc.encode(&fs[2]).is_iframe);
        assert!(!enc.encode(&fs[3]).is_iframe);
    }

    #[test]
    fn corrupt_dimension_header_rejected_without_allocation() {
        // A corrupted header must not make the decoder allocate
        // width*height bytes: u32::MAX² would abort the process.
        let mut data = vec![MAGIC_INTRA];
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.extend_from_slice(&u32::MAX.to_le_bytes());
        data.push(0);
        let err = ImageCodec::decode(&data).unwrap_err();
        assert!(matches!(err, CodecError::BadDimensions { .. }), "{err:?}");
        let mut dec = VideoDecoder::new();
        data[0] = MAGIC_PREDICTED;
        let err = dec.decode(&data).unwrap_err();
        assert!(matches!(err, CodecError::BadDimensions { .. }), "{err:?}");
        // Zero-sized frames are equally implausible.
        let mut zero = vec![MAGIC_INTRA];
        zero.extend_from_slice(&0u32.to_le_bytes());
        zero.extend_from_slice(&10u32.to_le_bytes());
        assert!(matches!(
            ImageCodec::decode(&zero),
            Err(CodecError::BadDimensions { .. })
        ));
    }

    #[test]
    fn failed_decode_leaves_reference_intact() {
        let (fs, _) = frames(3);
        let mut enc = VideoEncoder::default();
        let mut dec = VideoDecoder::new();
        let i0 = enc.encode(&fs[0]);
        dec.decode(&i0.data).unwrap();
        // Corrupt P-frame: valid magic + dims, garbage body cut short.
        let p = enc.encode(&fs[1]);
        let mut corrupt = p.data.to_vec();
        corrupt.truncate(corrupt.len().saturating_sub(1).max(10));
        corrupt[9] = 0xFF;
        corrupt[10] = 0xFF; // huge zero-run pushes idx out of range
        let _ = dec.decode(&corrupt);
        // Whatever the corrupt frame did, the real P-frame still decodes
        // against the intact reference.
        let (d, _) = dec.decode(&p.data).unwrap();
        assert_eq!(d.width, fs[1].width);
    }

    /// An I/P/P/fault/I stream, whose faults are a corrupt P-frame and a
    /// corrupt I-frame: the lent frame is `decode_into`'s output byte for
    /// byte, and a failed decode of either kind leaves it as it was.
    #[test]
    fn lent_frame_matches_decode_into_and_survives_faults() {
        let (fs, _) = frames(5);
        let mut enc = VideoEncoder::default();
        let i0 = enc.encode(&fs[0]);
        let p1 = enc.encode(&fs[1]);
        let p2 = enc.encode(&fs[2]);
        let p3 = enc.encode(&fs[3]);
        enc.request_iframe();
        let i4 = enc.encode(&fs[4]);
        assert!(i0.is_iframe && i4.is_iframe);
        assert!(!p1.is_iframe && !p2.is_iframe && !p3.is_iframe);
        assert!(
            p3.data.len() > 9,
            "the P-frame to corrupt carries no tokens"
        );
        let stream: [(&[u8], bool); 6] = [
            (&i0.data, true),
            (&p1.data, true),
            (&p2.data, true),
            (&p3.data[..p3.data.len() - 1], false),
            (&i4.data[..i4.data.len() / 2], false),
            (&i4.data, true),
        ];
        let mut lent = VideoDecoder::new();
        let mut copied = VideoDecoder::new();
        let mut out = GrayImage::new(0, 0);
        for (k, (payload, decodes)) in stream.into_iter().enumerate() {
            let before = lent.frame().clone();
            let got = lent.decode_lent(payload).map(|(img, _)| img.clone());
            let want = copied.decode_into(payload, &mut out).map(|_| out.clone());
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    assert!(decodes, "payload {k} decoded");
                    assert_eq!(got, want, "payload {k}: lent frame differs");
                    assert_eq!(lent.frame(), &got);
                }
                (Err(got), Err(want)) => {
                    assert!(!decodes, "payload {k} failed: {got:?}");
                    assert_eq!(got, want);
                    assert_eq!(lent.frame(), &before, "payload {k} moved the frame");
                }
                (got, want) => panic!("payload {k}: lent {got:?}, copied {want:?}"),
            }
        }
    }

    #[test]
    fn request_iframe_breaks_gop_schedule() {
        let (fs, _) = frames(3);
        let mut enc = VideoEncoder::default();
        assert!(enc.encode(&fs[0]).is_iframe);
        assert!(!enc.encode(&fs[1]).is_iframe);
        enc.request_iframe();
        let forced = enc.encode(&fs[2]);
        assert!(forced.is_iframe);
        assert!(payload_is_iframe(&forced.data));
        // One-shot: the schedule resumes afterwards.
        assert!(!enc.encode(&fs[0]).is_iframe);
    }

    #[test]
    fn decoder_without_reference_errors() {
        let (fs, _) = frames(2);
        let mut enc = VideoEncoder::default();
        enc.encode(&fs[0]);
        let p = enc.encode(&fs[1]);
        let mut dec = VideoDecoder::new();
        assert_eq!(dec.decode(&p.data), Err(CodecError::MissingReference));
    }

    #[test]
    fn corners_survive_video_compression() {
        // The point of Table 3's ATE row: features extracted from decoded
        // video match features from the raw frame.
        use slamshare_features::extractor::OrbExtractor;
        let (fs, _) = frames(3);
        let mut enc = VideoEncoder::default();
        let mut dec = VideoDecoder::new();
        let ex = OrbExtractor::with_defaults();
        for f in &fs {
            let e = enc.encode(f);
            let (d, _) = dec.decode(&e.data).unwrap();
            let (raw_features, _) = ex.extract(f);
            let (dec_features, _) = ex.extract(&d);
            let ratio = dec_features.len() as f64 / raw_features.len().max(1) as f64;
            assert!(
                (0.7..=1.3).contains(&ratio),
                "feature count changed too much: {} vs {}",
                dec_features.len(),
                raw_features.len()
            );
        }
    }
}
