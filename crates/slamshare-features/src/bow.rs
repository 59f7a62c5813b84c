//! Binary bag-of-words vocabulary.
//!
//! ORB-SLAM3's place recognition (`DetectCommonRegion` in the paper's
//! Alg. 2) quantizes each keyframe's descriptors against a pre-trained
//! hierarchical vocabulary (DBoW2) and looks up candidate keyframes through
//! an inverted index. This module is a from-scratch equivalent of the
//! vocabulary: a hierarchical k-medians tree in Hamming space and
//! tf-normalized BoW vectors with L1 similarity scoring. The inverted
//! index that retrieves merge/loop candidates is
//! `slamshare_slam::recognition::ShardedKeyframeDatabase`.

use crate::descriptor::{Descriptor, DescriptorBlock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A vocabulary word (leaf id).
pub type WordId = u32;

/// A tf-normalized bag-of-words vector: sparse `word → weight`,
/// `Σ weight = 1`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BowVector(pub BTreeMap<WordId, f64>);

impl BowVector {
    /// L1 similarity score in `[0, 1]` between two normalized vectors
    /// (the DBoW2 scoring: `1 − ½‖a − b‖₁`).
    pub fn similarity(&self, other: &BowVector) -> f64 {
        let mut l1 = 0.0;
        let mut ai = self.0.iter().peekable();
        let mut bi = other.0.iter().peekable();
        loop {
            match (ai.peek(), bi.peek()) {
                (Some((wa, va)), Some((wb, vb))) => {
                    if wa == wb {
                        l1 += (*va - *vb).abs();
                        ai.next();
                        bi.next();
                    } else if wa < wb {
                        l1 += (*va).abs();
                        ai.next();
                    } else {
                        l1 += (*vb).abs();
                        bi.next();
                    }
                }
                (Some((_, va)), None) => {
                    l1 += (*va).abs();
                    ai.next();
                }
                (None, Some((_, vb))) => {
                    l1 += (*vb).abs();
                    bi.next();
                }
                (None, None) => break,
            }
        }
        (1.0 - 0.5 * l1).max(0.0)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    centroid: Descriptor,
    children: Vec<usize>,
    /// Leaf nodes carry a word id.
    word: Option<WordId>,
}

/// A hierarchical k-medians vocabulary over binary descriptors.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    nodes: Vec<Node>,
    root_children: Vec<usize>,
    pub branching: usize,
    pub depth: usize,
    pub n_words: usize,
    /// SoA view of all node centroids (node id = block index), built
    /// lazily on first quantize. Not part of the serialized form — it is
    /// derived state, rebuilt on demand.
    block: OnceLock<DescriptorBlock>,
}

// Manual impls instead of derive: the derived Serialize would include the
// `block` cache, which is derived state and must stay out of the wire
// format.
impl Serialize for Vocabulary {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nodes".to_string(), self.nodes.to_value()),
            ("root_children".to_string(), self.root_children.to_value()),
            ("branching".to_string(), self.branching.to_value()),
            ("depth".to_string(), self.depth.to_value()),
            ("n_words".to_string(), self.n_words.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for Vocabulary {}

impl Vocabulary {
    /// Train a vocabulary by recursive k-medians clustering.
    ///
    /// `branching` clusters per node, `depth` levels, at most 8 rounds of
    /// assign-then-update per node. Training is deterministic given
    /// `seed`. Degenerate inputs (fewer descriptors than clusters) simply
    /// produce a smaller tree.
    ///
    /// Each update buckets a node's members in one pass and takes one
    /// branch-free [`Descriptor::bit_median`] per cluster, so a round
    /// costs a few adds per descriptor byte rather than a branch per bit.
    pub fn train(
        descriptors: &[Descriptor],
        branching: usize,
        depth: usize,
        seed: u64,
    ) -> Vocabulary {
        assert!(branching >= 2 && depth >= 1);
        let mut vocab = Vocabulary {
            nodes: Vec::new(),
            root_children: Vec::new(),
            branching,
            depth,
            n_words: 0,
            block: OnceLock::new(),
        };
        let idx: Vec<usize> = (0..descriptors.len()).collect();
        vocab.root_children = vocab.build_level(descriptors, &idx, 1, seed);
        vocab
    }

    fn build_level(
        &mut self,
        all: &[Descriptor],
        subset: &[usize],
        level: usize,
        seed: u64,
    ) -> Vec<usize> {
        if subset.is_empty() {
            return Vec::new();
        }
        let clusters = kmedians(all, subset, self.branching, seed);
        let mut node_ids = Vec::new();
        for (ci, (centroid, members)) in clusters.into_iter().enumerate() {
            let node_id = self.nodes.len();
            self.nodes.push(Node {
                centroid,
                children: Vec::new(),
                word: None,
            });
            if level >= self.depth || members.len() <= 1 {
                let w = self.n_words as WordId;
                self.n_words += 1;
                self.nodes[node_id].word = Some(w);
            } else {
                let children = self.build_level(
                    all,
                    &members,
                    level + 1,
                    seed.wrapping_mul(6364136223846793005)
                        .wrapping_add(ci as u64 + 1),
                );
                if children.is_empty() {
                    let w = self.n_words as WordId;
                    self.n_words += 1;
                    self.nodes[node_id].word = Some(w);
                } else {
                    self.nodes[node_id].children = children;
                }
            }
            node_ids.push(node_id);
        }
        node_ids
    }

    /// SoA view of all node centroids, built on first use.
    fn centroid_block(&self) -> &DescriptorBlock {
        self.block.get_or_init(|| {
            let mut b = DescriptorBlock::new();
            for n in &self.nodes {
                b.push(&n.centroid);
            }
            b
        })
    }

    /// Quantize one descriptor to its vocabulary word by greedy descent.
    ///
    /// Each level scans its sibling centroids with the batched strip
    /// kernel. `scan_best_indexed` keeps the scalar descent's strict-`<`
    /// first-wins tie-break over the candidate order, so the chosen path —
    /// and therefore the word — is identical to [`Self::quantize_scalar`].
    pub fn quantize(&self, d: &Descriptor) -> WordId {
        let block = self.centroid_block();
        let qw = d.words();
        let mut candidates = &self.root_children;
        loop {
            debug_assert!(!candidates.is_empty(), "vocabulary has no nodes");
            let (_, pos) = block.scan_best_indexed(&qw, candidates, u32::MAX);
            let best = candidates[pos];
            if let Some(w) = self.nodes[best].word {
                return w;
            }
            candidates = &self.nodes[best].children;
        }
    }

    /// Scalar reference descent, kept as the equivalence oracle for the
    /// batched [`Self::quantize`].
    #[cfg(test)]
    fn quantize_scalar(&self, d: &Descriptor) -> WordId {
        let mut candidates = &self.root_children;
        loop {
            debug_assert!(!candidates.is_empty(), "vocabulary has no nodes");
            let mut best = candidates[0];
            let mut best_d = u32::MAX;
            for &c in candidates {
                let dist = self.nodes[c].centroid.distance(d);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if let Some(w) = self.nodes[best].word {
                return w;
            }
            candidates = &self.nodes[best].children;
        }
    }

    /// Quantize a whole descriptor set into a normalized BoW vector.
    pub fn transform(&self, descriptors: &[Descriptor]) -> BowVector {
        let mut v = BowVector::default();
        if descriptors.is_empty() || self.n_words == 0 {
            return v;
        }
        for d in descriptors {
            *v.0.entry(self.quantize(d)).or_insert(0.0) += 1.0;
        }
        let total: f64 = v.0.values().sum();
        for w in v.0.values_mut() {
            *w /= total;
        }
        v
    }
}

/// One round of k-medians in Hamming space over `subset` indices of `all`.
/// Returns `(centroid, member_indices)` per non-empty cluster.
fn kmedians(
    all: &[Descriptor],
    subset: &[usize],
    k: usize,
    seed: u64,
) -> Vec<(Descriptor, Vec<usize>)> {
    if subset.len() <= k {
        return subset.iter().map(|&i| (all[i], vec![i])).collect();
    }
    // Deterministic spread-out seeding: strided picks over the subset,
    // ordered by a seed-dependent offset.
    let offset = (seed as usize) % subset.len();
    let mut centroids: Vec<Descriptor> = (0..k)
        .map(|j| all[subset[(offset + j * subset.len() / k) % subset.len()]])
        .collect();

    let mut assignment = vec![0usize; subset.len()];
    let mut buckets: Vec<Vec<Descriptor>> = vec![Vec::new(); k];
    for _iter in 0..8 {
        // Assign.
        let mut changed = false;
        for (si, &di) in subset.iter().enumerate() {
            let mut best = 0;
            let mut best_d = u32::MAX;
            for (ci, c) in centroids.iter().enumerate() {
                let d = c.distance(&all[di]);
                if d < best_d {
                    best_d = d;
                    best = ci;
                }
            }
            if assignment[si] != best {
                assignment[si] = best;
                changed = true;
            }
        }
        update_centroids(all, subset, &assignment, &mut centroids, &mut buckets);
        if !changed {
            break;
        }
    }
    let mut clusters: Vec<(Descriptor, Vec<usize>)> =
        centroids.into_iter().map(|c| (c, Vec::new())).collect();
    for (si, &di) in subset.iter().enumerate() {
        clusters[assignment[si]].1.push(di);
    }
    clusters.retain(|(_, m)| !m.is_empty());
    clusters
}

/// The k-medians update: each centroid with members becomes their
/// [`Descriptor::bit_median`]. One pass over `subset` buckets the members
/// (in subset order) into `buckets`, scratch kept across iterations.
fn update_centroids(
    all: &[Descriptor],
    subset: &[usize],
    assignment: &[usize],
    centroids: &mut [Descriptor],
    buckets: &mut [Vec<Descriptor>],
) {
    for bucket in buckets.iter_mut() {
        bucket.clear();
    }
    for (&ci, &di) in assignment.iter().zip(subset) {
        buckets[ci].push(all[di]);
    }
    for (centroid, members) in centroids.iter_mut().zip(buckets.iter()) {
        if !members.is_empty() {
            *centroid = Descriptor::bit_median(members);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_descriptor(rng: &mut StdRng) -> Descriptor {
        let mut d = Descriptor::ZERO;
        for i in 0..256 {
            if rng.gen_bool(0.5) {
                d.set_bit(i);
            }
        }
        d
    }

    /// A descriptor near `base` with `flips` random bits flipped.
    fn perturb(base: &Descriptor, flips: usize, rng: &mut StdRng) -> Descriptor {
        let mut d = *base;
        for _ in 0..flips {
            let i = rng.gen_range(0..256);
            let byte = i / 8;
            let bit = i % 8;
            d.0[byte] ^= 1 << bit;
        }
        d
    }

    fn training_set(rng: &mut StdRng, clusters: usize, per_cluster: usize) -> Vec<Descriptor> {
        let mut all = Vec::new();
        for _ in 0..clusters {
            let base = random_descriptor(rng);
            for _ in 0..per_cluster {
                all.push(perturb(&base, 10, rng));
            }
        }
        all
    }

    #[test]
    fn vocabulary_has_words() {
        let mut rng = StdRng::seed_from_u64(1);
        let descs = training_set(&mut rng, 20, 20);
        let v = Vocabulary::train(&descs, 4, 3, 42);
        assert!(v.n_words >= 20, "only {} words", v.n_words);
        assert!(v.n_words <= 4usize.pow(3));
    }

    #[test]
    fn similar_descriptors_share_words() {
        let mut rng = StdRng::seed_from_u64(2);
        let descs = training_set(&mut rng, 15, 30);
        let v = Vocabulary::train(&descs, 5, 3, 7);
        let base = random_descriptor(&mut rng);
        let a = perturb(&base, 4, &mut rng);
        let b = perturb(&base, 4, &mut rng);
        // Not guaranteed for every pair (quantization boundaries), so test
        // in aggregate: most near-duplicates land in the same word.
        let mut same = 0;
        for _ in 0..50 {
            let c = random_descriptor(&mut rng);
            let x = perturb(&c, 3, &mut rng);
            if v.quantize(&c) == v.quantize(&x) {
                same += 1;
            }
        }
        assert!(same >= 30, "only {same}/50 near-duplicates matched words");
        let _ = (a, b);
    }

    #[test]
    fn batched_quantize_matches_scalar_descent() {
        let mut rng = StdRng::seed_from_u64(77);
        let descs = training_set(&mut rng, 18, 25);
        let v = Vocabulary::train(&descs, 5, 3, 23);
        // Training descriptors (many land on exact centroids → ties) plus
        // fresh random ones.
        for d in &descs {
            assert_eq!(v.quantize(d), v.quantize_scalar(d));
        }
        for _ in 0..200 {
            let d = random_descriptor(&mut rng);
            assert_eq!(v.quantize(&d), v.quantize_scalar(&d));
        }
        // A clone carries the already-built cache; it must agree too.
        let v2 = v.clone();
        for _ in 0..50 {
            let d = random_descriptor(&mut rng);
            assert_eq!(v2.quantize(&d), v.quantize_scalar(&d));
        }
    }

    /// The update as one filter-and-collect pass per cluster: the oracle
    /// for [`update_centroids`].
    fn update_centroids_filtered(
        all: &[Descriptor],
        subset: &[usize],
        assignment: &[usize],
        centroids: &mut [Descriptor],
    ) {
        for (ci, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<Descriptor> = subset
                .iter()
                .enumerate()
                .filter(|(si, _)| assignment[*si] == ci)
                .map(|(_, &di)| all[di])
                .collect();
            if !members.is_empty() {
                *centroid = Descriptor::bit_median(&members);
            }
        }
    }

    proptest::proptest! {
        /// Bucketing in one pass moves every centroid exactly where the
        /// per-cluster filter does, including clusters left empty.
        #[test]
        fn bucketed_update_matches_filtered_update(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..300,
            k in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let all: Vec<Descriptor> = (0..n).map(|_| random_descriptor(&mut rng)).collect();
            let subset: Vec<usize> = (0..rng.gen_range(0..n + 1))
                .map(|_| rng.gen_range(0..n))
                .collect();
            let assignment: Vec<usize> = subset.iter().map(|_| rng.gen_range(0..k)).collect();
            let start: Vec<Descriptor> = (0..k).map(|_| random_descriptor(&mut rng)).collect();
            let mut expected = start.clone();
            update_centroids_filtered(&all, &subset, &assignment, &mut expected);
            let mut got = start;
            let mut buckets = vec![Vec::new(); k];
            update_centroids(&all, &subset, &assignment, &mut got, &mut buckets);
            proptest::prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn bow_self_similarity_is_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let descs = training_set(&mut rng, 10, 20);
        let v = Vocabulary::train(&descs, 4, 2, 9);
        let bow = v.transform(&descs[0..30]);
        assert!((bow.similarity(&bow) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_bows_score_zero() {
        let mut a = BowVector::default();
        a.0.insert(1, 0.5);
        a.0.insert(2, 0.5);
        let mut b = BowVector::default();
        b.0.insert(3, 1.0);
        assert!(a.similarity(&b).abs() < 1e-12);
    }

    #[test]
    fn same_scene_scores_higher_than_different() {
        let mut rng = StdRng::seed_from_u64(4);
        let descs = training_set(&mut rng, 25, 25);
        let v = Vocabulary::train(&descs, 5, 3, 11);

        // "Scene A" observed twice with noise, vs unrelated "scene B".
        let scene_a: Vec<Descriptor> = (0..80).map(|_| random_descriptor(&mut rng)).collect();
        let obs_a1: Vec<Descriptor> = scene_a.iter().map(|d| perturb(d, 5, &mut rng)).collect();
        let obs_a2: Vec<Descriptor> = scene_a.iter().map(|d| perturb(d, 5, &mut rng)).collect();
        let scene_b: Vec<Descriptor> = (0..80).map(|_| random_descriptor(&mut rng)).collect();

        let b1 = v.transform(&obs_a1);
        let b2 = v.transform(&obs_a2);
        let bb = v.transform(&scene_b);
        assert!(
            b1.similarity(&b2) > b1.similarity(&bb),
            "same-scene {} <= cross-scene {}",
            b1.similarity(&b2),
            b1.similarity(&bb)
        );
    }
}
