//! 256-bit binary descriptors and Hamming distance.

use serde::{Deserialize, Serialize};

/// Number of bits in a descriptor (BRIEF-256, as in ORB).
pub const DESC_BITS: usize = 256;
/// Number of bytes in a descriptor.
pub const DESC_BYTES: usize = DESC_BITS / 8;
/// Number of u64 lanes in a descriptor.
pub const DESC_WORDS: usize = DESC_BYTES / 8;
/// Candidates per batched-Hamming strip in [`DescriptorBlock`].
pub const STRIP: usize = 8;

/// A 256-bit rotated-BRIEF descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Descriptor(pub [u8; DESC_BYTES]);

impl Default for Descriptor {
    fn default() -> Self {
        Descriptor([0; DESC_BYTES])
    }
}

impl Descriptor {
    pub const ZERO: Descriptor = Descriptor([0; DESC_BYTES]);

    /// The descriptor as four little-endian u64 lanes — the unit of work
    /// for both the pairwise popcount loops and the SoA block kernels.
    #[inline]
    pub fn words(&self) -> [u64; DESC_WORDS] {
        let (chunks, _) = self.0.as_chunks::<8>();
        let mut w = [0u64; DESC_WORDS];
        for (word, &chunk) in w.iter_mut().zip(chunks) {
            *word = u64::from_le_bytes(chunk);
        }
        w
    }

    /// Set bit `i` (0-based).
    #[inline]
    pub fn set_bit(&mut self, i: usize) {
        self.0[i / 8] |= 1 << (i % 8);
    }

    #[inline]
    pub fn get_bit(&self, i: usize) -> bool {
        (self.0[i / 8] >> (i % 8)) & 1 == 1
    }

    /// Hamming distance: number of differing bits, 0..=256.
    #[inline]
    pub fn distance(&self, other: &Descriptor) -> u32 {
        // Compare 8 bytes at a time via u64 popcount — this is the inner
        // loop of both brute-force matching and BoW quantization.
        let (a, b) = (self.words(), other.words());
        a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// Hamming distance with an early exit: returns the exact distance if
    /// it is below `bound`, otherwise some partial sum `>= bound` as soon
    /// as a u64 word pushes the running count over. Callers scanning for
    /// a best match pass their current best/second-best as the bound —
    /// any return `>= bound` would be rejected anyway, so match results
    /// are identical to using [`Descriptor::distance`] while skipping
    /// most of the popcount work on poor candidates.
    #[inline]
    pub fn distance_bounded(&self, other: &Descriptor, bound: u32) -> u32 {
        let mut d = 0u32;
        for (x, y) in self.words().iter().zip(&other.words()) {
            d += (x ^ y).count_ones();
            if d >= bound {
                return d;
            }
        }
        d
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.distance(&Descriptor::ZERO)
    }

    /// The component-wise *bit median* of a set of descriptors: bit `i` of
    /// the result is 1 iff more than half the inputs have bit `i` set. This
    /// is the centroid operation for k-medians clustering in Hamming space
    /// (used to train the BoW vocabulary) and for ORB-SLAM's "distinctive
    /// descriptor" selection.
    ///
    /// The count runs one bit plane at a time across all 32 byte lanes,
    /// adding `(byte >> bit) & 1` with no branch; the lane loops vectorize.
    pub fn bit_median(descs: &[Descriptor]) -> Descriptor {
        assert!(!descs.is_empty());
        // counts[bit][byte]: inputs with bit `bit` of byte `byte` set.
        let mut counts = [[0u32; DESC_BYTES]; 8];
        for d in descs {
            for (bit, plane) in counts.iter_mut().enumerate() {
                for (count, &byte) in plane.iter_mut().zip(&d.0) {
                    *count += u32::from((byte >> bit) & 1);
                }
            }
        }
        let half = descs.len() as u32 / 2;
        let mut out = Descriptor::ZERO;
        for (bit, plane) in counts.iter().enumerate() {
            for (byte, &count) in out.0.iter_mut().zip(plane) {
                *byte |= u8::from(count > half) << bit;
            }
        }
        out
    }

    /// The medoid: the member descriptor minimizing total distance to the
    /// rest. ORB-SLAM stores this as a map point's representative
    /// descriptor.
    pub fn medoid(descs: &[Descriptor]) -> Option<usize> {
        if descs.is_empty() {
            return None;
        }
        let mut best = (u64::MAX, 0usize);
        for (i, a) in descs.iter().enumerate() {
            let total: u64 = descs.iter().map(|b| a.distance(b) as u64).sum();
            if total < best.0 {
                best = (total, i);
            }
        }
        Some(best.1)
    }
}

/// Structure-of-arrays descriptor storage: lane `w` of every descriptor
/// lives contiguously in `lanes[w]`, so a query word is XOR-popcounted
/// against a run of candidate words with unit stride. This is the layout
/// the batched Hamming kernels below consume in strips of [`STRIP`]
/// candidates.
///
/// The strip kernels are *bounded* like [`Descriptor::distance_bounded`]:
/// when every partial sum in a strip has already reached the caller's
/// bound after some lane, the remaining lanes are skipped and the partial
/// sums are returned as-is. Any returned value `>= bound` would be
/// rejected by a best/second-best scan anyway, and values `< bound` are
/// exact, so scan results are bit-identical to the pairwise scalar path.
#[derive(Debug, Clone, Default)]
pub struct DescriptorBlock {
    lanes: [Vec<u64>; DESC_WORDS],
    len: usize,
}

impl DescriptorBlock {
    pub fn new() -> DescriptorBlock {
        DescriptorBlock::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.len = 0;
    }

    pub fn push(&mut self, d: &Descriptor) {
        let w = d.words();
        for (lane, word) in self.lanes.iter_mut().zip(w) {
            lane.push(word);
        }
        self.len += 1;
    }

    /// Reset the block to hold exactly `descs`, reusing lane capacity.
    pub fn rebuild(&mut self, descs: &[Descriptor]) {
        self.clear();
        for lane in &mut self.lanes {
            lane.reserve(descs.len());
        }
        for d in descs {
            self.push(d);
        }
    }

    /// Exact distance from `query` words to descriptor `i`.
    #[inline]
    pub fn distance(&self, i: usize, query: &[u64; DESC_WORDS]) -> u32 {
        let mut d = 0u32;
        for (lane, &qw) in self.lanes.iter().zip(query) {
            d += (lane[i] ^ qw).count_ones();
        }
        d
    }

    /// Bounded distances for the contiguous strip `base..base + n`
    /// (`n <= STRIP`), written into `out[..n]`. Returns `false` when the
    /// strip was abandoned early — every value in `out[..n]` is then a
    /// partial sum `>= bound`, safe to reject. Returns `true` when all
    /// lanes ran, making every value exact.
    #[inline]
    pub fn strip_distances(
        &self,
        query: &[u64; DESC_WORDS],
        base: usize,
        n: usize,
        bound: u32,
        out: &mut [u32; STRIP],
    ) -> bool {
        debug_assert!(n <= STRIP && base + n <= self.len);
        out[..n].fill(0);
        for (lane, &qw) in self.lanes.iter().zip(query) {
            let words = &lane[base..base + n];
            for (acc, &w) in out[..n].iter_mut().zip(words) {
                *acc += (w ^ qw).count_ones();
            }
            if out[..n].iter().all(|&d| d >= bound) {
                return false;
            }
        }
        true
    }

    /// Like [`DescriptorBlock::strip_distances`] but gathering the strip
    /// through an index list (`idx.len() <= STRIP`), for callers whose
    /// candidate set is non-contiguous (row-bucketed stereo, BoW node
    /// children).
    #[inline]
    pub fn strip_distances_indexed(
        &self,
        query: &[u64; DESC_WORDS],
        idx: &[usize],
        bound: u32,
        out: &mut [u32; STRIP],
    ) -> bool {
        let n = idx.len();
        debug_assert!(n <= STRIP);
        out[..n].fill(0);
        for (lane, &qw) in self.lanes.iter().zip(query) {
            for (acc, &i) in out[..n].iter_mut().zip(idx) {
                *acc += (lane[i] ^ qw).count_ones();
            }
            if out[..n].iter().all(|&d| d >= bound) {
                return false;
            }
        }
        true
    }

    /// Scan every descriptor in the block for the best and second-best
    /// distance to `query`, in ascending index order with strict-`<`
    /// updates — the exact tie-break of the scalar brute-force loop.
    /// Returns `(best, best_index, second)`; `best_index` is `usize::MAX`
    /// when the block is empty.
    pub fn scan_best_two(&self, query: &Descriptor) -> (u32, usize, u32) {
        let qw = query.words();
        let mut best = u32::MAX;
        let mut best_i = usize::MAX;
        let mut second = u32::MAX;
        let mut strip = [0u32; STRIP];
        let mut base = 0;
        while base < self.len {
            let n = STRIP.min(self.len - base);
            self.strip_distances(&qw, base, n, second, &mut strip);
            for (k, &d) in strip[..n].iter().enumerate() {
                if d < best {
                    second = best;
                    best = d;
                    best_i = base + k;
                } else if d < second {
                    second = d;
                }
            }
            base += n;
        }
        (best, best_i, second)
    }

    /// Scan the descriptors named by `idx` (in order) for the strict-`<`
    /// minimum distance to `query`, starting from `init_best`. Returns
    /// `(best, position_in_idx)`; the position is `usize::MAX` when no
    /// candidate beat `init_best`.
    pub fn scan_best_indexed(
        &self,
        query: &[u64; DESC_WORDS],
        idx: &[usize],
        init_best: u32,
    ) -> (u32, usize) {
        let mut best = init_best;
        let mut best_pos = usize::MAX;
        let mut strip = [0u32; STRIP];
        for (chunk_no, chunk) in idx.chunks(STRIP).enumerate() {
            self.strip_distances_indexed(query, chunk, best, &mut strip);
            for (k, &d) in strip[..chunk.len()].iter().enumerate() {
                if d < best {
                    best = d;
                    best_pos = chunk_no * STRIP + k;
                }
            }
        }
        (best, best_pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_zero_to_self() {
        let mut d = Descriptor::ZERO;
        d.set_bit(3);
        d.set_bit(100);
        assert_eq!(d.distance(&d), 0);
    }

    #[test]
    fn distance_counts_bits() {
        let mut a = Descriptor::ZERO;
        let mut b = Descriptor::ZERO;
        a.set_bit(0);
        a.set_bit(255);
        b.set_bit(255);
        b.set_bit(128);
        assert_eq!(a.distance(&b), 2); // bits 0 and 128 differ
    }

    #[test]
    fn distance_symmetric_and_bounded() {
        let a = Descriptor([0xFF; DESC_BYTES]);
        let b = Descriptor::ZERO;
        assert_eq!(a.distance(&b), DESC_BITS as u32);
        assert_eq!(b.distance(&a), DESC_BITS as u32);
    }

    #[test]
    fn bounded_distance_exact_below_bound() {
        let mut a = Descriptor::ZERO;
        let mut b = Descriptor::ZERO;
        for i in [0, 70, 140, 200] {
            a.set_bit(i);
        }
        for i in [1, 70, 141, 201, 250] {
            b.set_bit(i);
        }
        let exact = a.distance(&b);
        assert_eq!(a.distance_bounded(&b, exact + 1), exact);
        assert_eq!(a.distance_bounded(&b, u32::MAX), exact);
        // At or over the bound: the partial sum must itself be >= bound.
        for bound in [1, 2, exact] {
            assert!(a.distance_bounded(&b, bound) >= bound);
        }
        assert!(a.distance_bounded(&b, 0) >= exact.min(1));
    }

    #[test]
    fn bounded_distance_never_underreports() {
        // Partial sums are monotone: whatever the bound, the return value
        // never exceeds the exact distance... and equals it when allowed
        // to finish.
        let a = Descriptor([0xAB; DESC_BYTES]);
        let b = Descriptor([0x54; DESC_BYTES]);
        let exact = a.distance(&b);
        for bound in [0, 5, 64, 128, exact, exact + 1, 1000] {
            let d = a.distance_bounded(&b, bound);
            assert!(d <= exact);
            if exact < bound {
                assert_eq!(d, exact);
            } else {
                assert!(d >= bound.min(exact));
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut d = Descriptor::ZERO;
        for i in [0, 7, 8, 63, 64, 200, 255] {
            assert!(!d.get_bit(i));
            d.set_bit(i);
            assert!(d.get_bit(i));
        }
        assert_eq!(d.popcount(), 7);
    }

    #[test]
    fn bit_median_majority() {
        let mut a = Descriptor::ZERO;
        a.set_bit(1);
        let mut b = Descriptor::ZERO;
        b.set_bit(1);
        let mut c = Descriptor::ZERO;
        c.set_bit(2);
        let m = Descriptor::bit_median(&[a, b, c]);
        assert!(m.get_bit(1));
        assert!(!m.get_bit(2));
    }

    #[test]
    fn medoid_picks_central_member() {
        let mut a = Descriptor::ZERO; // dist 1 to b, 2 to c
        a.set_bit(0);
        let mut b = Descriptor::ZERO; // the center: dist 1 to both
        b.set_bit(0);
        b.set_bit(1);
        let mut c = Descriptor::ZERO;
        c.set_bit(0);
        c.set_bit(1);
        c.set_bit(2);
        assert_eq!(Descriptor::medoid(&[a, b, c]), Some(1));
        assert_eq!(Descriptor::medoid(&[]), None);
    }

    fn random_descriptors(seed: u64, n: usize) -> Vec<Descriptor> {
        // splitmix64 stream — deterministic, no dev-dep needed here.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| {
                let mut bytes = [0u8; DESC_BYTES];
                for chunk in bytes.chunks_mut(8) {
                    chunk.copy_from_slice(&next().to_le_bytes());
                }
                Descriptor(bytes)
            })
            .collect()
    }

    #[test]
    fn words_roundtrip_distance() {
        let descs = random_descriptors(7, 32);
        for a in &descs {
            for b in &descs {
                let mut d = 0u32;
                for (wa, wb) in a.words().iter().zip(b.words()) {
                    d += (wa ^ wb).count_ones();
                }
                assert_eq!(d, a.distance(b));
            }
        }
    }

    #[test]
    fn block_distance_matches_scalar() {
        let descs = random_descriptors(11, 37);
        let mut block = DescriptorBlock::new();
        block.rebuild(&descs);
        assert_eq!(block.len(), descs.len());
        let queries = random_descriptors(12, 9);
        for q in &queries {
            let qw = q.words();
            for (i, d) in descs.iter().enumerate() {
                assert_eq!(block.distance(i, &qw), q.distance(d));
            }
        }
    }

    #[test]
    fn strip_values_exact_or_rejectable() {
        let descs = random_descriptors(21, 40);
        let mut block = DescriptorBlock::new();
        block.rebuild(&descs);
        let q = random_descriptors(22, 1)[0];
        let qw = q.words();
        let mut out = [0u32; STRIP];
        for bound in [0u32, 30, 80, 128, 256, u32::MAX] {
            let mut base = 0;
            while base < block.len() {
                let n = STRIP.min(block.len() - base);
                let exact_all = block.strip_distances(&qw, base, n, bound, &mut out);
                for (k, &d) in out[..n].iter().enumerate() {
                    let exact = q.distance(&descs[base + k]);
                    if exact_all {
                        assert_eq!(d, exact);
                    } else {
                        assert!(d >= bound && d <= exact);
                    }
                }
                base += n;
            }
        }
    }

    #[test]
    fn scan_best_two_matches_scalar_scan() {
        for seed in 0..8u64 {
            let descs = random_descriptors(100 + seed, 1 + (seed as usize * 7) % 30);
            let mut with_dups = descs.clone();
            with_dups.extend(descs.iter().take(3).copied());
            let mut block = DescriptorBlock::new();
            block.rebuild(&with_dups);
            let q = random_descriptors(200 + seed, 1)[0];
            // Scalar reference: ascending order, strict-< updates.
            let mut best = u32::MAX;
            let mut best_i = usize::MAX;
            let mut second = u32::MAX;
            for (i, d) in with_dups.iter().enumerate() {
                let dist = q.distance(d);
                if dist < best {
                    second = best;
                    best = dist;
                    best_i = i;
                } else if dist < second {
                    second = dist;
                }
            }
            assert_eq!(block.scan_best_two(&q), (best, best_i, second));
        }
    }

    #[test]
    fn scan_best_indexed_matches_scalar_scan() {
        let descs = random_descriptors(300, 50);
        let mut block = DescriptorBlock::new();
        block.rebuild(&descs);
        let q = random_descriptors(301, 1)[0];
        let qw = q.words();
        let idx: Vec<usize> = (0..50).step_by(3).chain([4, 4, 10]).collect();
        for init in [u32::MAX, 100, 0] {
            let mut best = init;
            let mut best_pos = usize::MAX;
            for (pos, &i) in idx.iter().enumerate() {
                let d = q.distance(&descs[i]);
                if d < best {
                    best = d;
                    best_pos = pos;
                }
            }
            assert_eq!(block.scan_best_indexed(&qw, &idx, init), (best, best_pos));
        }
    }

    #[test]
    fn triangle_inequality_samples() {
        // Hamming distance is a metric; spot-check the triangle inequality.
        let mut a = Descriptor::ZERO;
        let mut b = Descriptor::ZERO;
        let mut c = Descriptor::ZERO;
        for i in 0..50 {
            a.set_bit(i);
        }
        for i in 25..80 {
            b.set_bit(i);
        }
        for i in 60..120 {
            c.set_bit(i);
        }
        assert!(a.distance(&c) <= a.distance(&b) + b.distance(&c));
    }
}
