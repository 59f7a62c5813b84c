//! Place recognition: `DetectCommonRegion`.
//!
//! Given a keyframe from a client map, find keyframes in the global map
//! that view the same physical region: query the bag-of-words inverted
//! index for candidates, then geometrically verify by matching descriptors
//! of the *map-point-bearing* keypoints. The verified 3D↔3D point pairs
//! feed the Sim(3)/SE(3) alignment of Algorithm 2.

use crate::ids::{KeyFrameId, MapPointId};
use crate::map::{KeyFrame, Map, MapRead};
use parking_lot::RwLock;
use slamshare_features::bow::{BowVector, Vocabulary, WordId};
use slamshare_features::matching::TH_LOW;
use slamshare_features::Descriptor;
use std::collections::{BTreeSet, HashMap};

/// Default shard count for [`ShardedKeyframeDatabase`].
pub const DEFAULT_DB_SHARDS: usize = 16;

/// The place-recognition inverted index, split into word-bucket shards
/// with independent locks.
///
/// The server's concurrent trackers and the asynchronous merge worker all
/// hit the BoW index; a single lock around it would re-serialize exactly
/// the work the parallel round pipeline spreads out. Sharding by
/// `word % N` means a query only takes the locks of the words it actually
/// carries, and two keyframe insertions whose vocabularies don't collide
/// proceed entirely in parallel. All methods take `&self`.
///
/// Keyframe BoW vectors (needed to score candidates) are kept in a second
/// set of shards keyed by `kf_id % N`. Query results are deterministic:
/// candidates are gathered in ascending-id order and sorted by
/// `(score desc, id asc)`, independent of shard layout.
/// One inverted-index shard: word → keyframe ids.
type WordShard = RwLock<HashMap<WordId, Vec<u64>>>;

pub struct ShardedKeyframeDatabase {
    /// word → keyframe ids, sharded by `word % word_shards.len()`.
    word_shards: Box<[WordShard]>,
    /// keyframe id → BoW vector, sharded by `id % bow_shards.len()`.
    bow_shards: Box<[RwLock<HashMap<u64, BowVector>>]>,
}

impl Default for ShardedKeyframeDatabase {
    fn default() -> Self {
        ShardedKeyframeDatabase::new()
    }
}

impl ShardedKeyframeDatabase {
    pub fn new() -> ShardedKeyframeDatabase {
        ShardedKeyframeDatabase::with_shards(DEFAULT_DB_SHARDS)
    }

    pub fn with_shards(n: usize) -> ShardedKeyframeDatabase {
        let n = n.max(1);
        ShardedKeyframeDatabase {
            word_shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            bow_shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    #[inline]
    fn word_shard(&self, word: WordId) -> &RwLock<HashMap<WordId, Vec<u64>>> {
        &self.word_shards[word as usize % self.word_shards.len()]
    }

    #[inline]
    fn bow_shard(&self, kf_id: u64) -> &RwLock<HashMap<u64, BowVector>> {
        &self.bow_shards[kf_id as usize % self.bow_shards.len()]
    }

    /// Number of indexed keyframes.
    pub fn len(&self) -> usize {
        self.bow_shards.iter().map(|s| s.read().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.bow_shards.iter().all(|s| s.read().is_empty())
    }

    /// Index a keyframe's BoW vector (replacing any previous entry for
    /// the same id). At most one shard lock is held at a time.
    pub fn add(&self, kf_id: u64, bow: BowVector) {
        self.remove(kf_id);
        for &word in bow.0.keys() {
            self.word_shard(word)
                .write()
                .entry(word)
                .or_default()
                .push(kf_id);
        }
        self.bow_shard(kf_id).write().insert(kf_id, bow);
    }

    /// Drop a keyframe from the index.
    pub fn remove(&self, kf_id: u64) {
        let old = self.bow_shard(kf_id).write().remove(&kf_id);
        if let Some(old) = old {
            for word in old.0.keys() {
                let mut shard = self.word_shard(*word).write();
                if let Some(list) = shard.get_mut(word) {
                    list.retain(|&id| id != kf_id);
                    if list.is_empty() {
                        shard.remove(word);
                    }
                }
            }
        }
    }

    /// Keyframes sharing words with `query`, scored by BoW similarity,
    /// best first (ties broken by ascending id — deterministic regardless
    /// of shard layout or interleaved writers). `exclude` filters
    /// candidates before scoring.
    pub fn query(
        &self,
        query: &BowVector,
        min_score: f64,
        exclude: &dyn Fn(u64) -> bool,
    ) -> Vec<(u64, f64)> {
        let mut candidates: BTreeSet<u64> = BTreeSet::new();
        for word in query.0.keys() {
            let shard = self.word_shard(*word).read();
            if let Some(list) = shard.get(word) {
                candidates.extend(list.iter().copied().filter(|&id| !exclude(id)));
            }
        }
        let mut scored: Vec<(u64, f64)> = candidates
            .into_iter()
            .filter_map(|id| {
                let score = self
                    .bow_shard(id)
                    .read()
                    .get(&id)
                    .map(|b| query.similarity(b))?;
                (score >= min_score).then_some((id, score))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }
}

/// A verified common-region detection.
#[derive(Debug, Clone)]
pub struct CommonRegion {
    /// The matched keyframe in the target (global) map.
    pub target_kf: KeyFrameId,
    /// BoW similarity score.
    pub score: f64,
    /// Matched map-point pairs `(source_mp, target_mp)`.
    pub point_pairs: Vec<(MapPointId, MapPointId)>,
}

/// Minimum BoW similarity for a candidate to be verified at all.
pub const MIN_BOW_SCORE: f64 = 0.03;
/// Minimum verified point pairs to report a common region.
pub const MIN_POINT_PAIRS: usize = 12;

/// `DetectCommonRegion(KF, GMap)` (Alg. 2 line 7): returns the best
/// verified common region between `kf` (of `source_map`) and the keyframes
/// of `target_map` indexed in `db`, or `None`.
pub fn detect_common_region(
    kf: &KeyFrame,
    source_map: &Map,
    target_map: &impl MapRead,
    db: &ShardedKeyframeDatabase,
    vocab: &Vocabulary,
    max_candidates: usize,
) -> Option<CommonRegion> {
    let candidates = db.query(&kf.bow, MIN_BOW_SCORE, &|id| {
        // Exclude keyframes of the same client (intra-map loop closure is
        // a separate concern; merging wants cross-map regions).
        KeyFrameId(id).client() == kf.id.client()
    });

    let mut best: Option<CommonRegion> = None;
    for (cand_id, score) in candidates.into_iter().take(max_candidates) {
        let cand_kf_id = KeyFrameId(cand_id);
        let Some(cand_kf) = target_map.keyframe(cand_kf_id) else {
            continue;
        };
        let pairs = match_point_pairs(kf, source_map, cand_kf, target_map, vocab);
        if pairs.len() < MIN_POINT_PAIRS {
            continue;
        }
        // Geometric verification, as ORB-SLAM's Sim3-RANSAC inside
        // DetectCommonRegion: the descriptor pairs must be explainable by
        // one rigid/similarity transform. Keep only consensus inliers.
        // Every pair names a point of each map (match_point_pairs only
        // pairs points the maps hold).
        let (src, dst): (Vec<_>, Vec<_>) = pairs
            .iter()
            .filter_map(|(a, b)| {
                Some((
                    source_map.mappoints.get(a)?.position,
                    target_map.mappoint(*b)?.position,
                ))
            })
            .unzip();
        if src.len() != pairs.len() {
            continue;
        }
        let tol = ransac_tolerance(&dst);
        let Some((_, mask)) =
            slamshare_math::align::umeyama_ransac(&src, &dst, false, tol, 150, cand_id | 1)
        else {
            continue;
        };
        let verified: Vec<_> = pairs
            .into_iter()
            .zip(&mask)
            .filter(|(_, &keep)| keep)
            .map(|(p, _)| p)
            .collect();
        if verified.len() >= MIN_POINT_PAIRS
            && best
                .as_ref()
                .map(|b| verified.len() > b.point_pairs.len())
                .unwrap_or(true)
        {
            best = Some(CommonRegion {
                target_kf: cand_kf_id,
                score,
                point_pairs: verified,
            });
        }
    }
    best
}

/// Relocalize a lost tracker against the map: BoW-query `db` for the
/// keyframe most similar to the current frame and hand back its pose as a
/// tracking hint (ORB-SLAM's `Relocalization`, reduced to the
/// candidate-selection step — the subsequent guided search and pose
/// optimization are exactly what [`crate::tracking::Tracker::track`] does
/// with the hint).
///
/// Candidates not present in `map` (e.g. indexed by a client whose local
/// map was never merged, or culled) are skipped. Deterministic: inherits
/// [`ShardedKeyframeDatabase::query`]'s `(score desc, id asc)` order.
pub fn relocalize(
    db: &ShardedKeyframeDatabase,
    query: &BowVector,
    map: &impl MapRead,
) -> Option<(KeyFrameId, slamshare_math::SE3)> {
    db.query(query, MIN_BOW_SCORE, &|_| false)
        .into_iter()
        .find_map(|(id, _)| {
            let kf_id = KeyFrameId(id);
            map.keyframe(kf_id).map(|kf| (kf_id, kf.pose_cw))
        })
}

/// RANSAC inlier tolerance scaled to the scene: triangulation noise grows
/// quadratically with depth, so a fixed indoor-scale tolerance (0.35 m)
/// rejects every true pair in a street-scale map where points sit tens of
/// meters out. Scale with the point cloud's spread, clamped to
/// [0.35 m, 2.5 m].
pub fn ransac_tolerance(points: &[slamshare_math::Vec3]) -> f64 {
    if points.is_empty() {
        return 0.35;
    }
    let centroid = points
        .iter()
        .fold(slamshare_math::Vec3::ZERO, |a, &p| a + p)
        / points.len() as f64;
    let mut dists: Vec<f64> = points.iter().map(|p| (*p - centroid).norm()).collect();
    // total_cmp: a NaN coordinate must never panic place recognition. NaNs
    // sort last, and a NaN median clamps to the 0.35 m floor below.
    dists.sort_by(f64::total_cmp);
    let median = dists[dists.len() / 2];
    let scaled = 0.06 * median;
    if scaled.is_nan() {
        0.35
    } else {
        scaled.clamp(0.35, 2.5)
    }
}

/// Match the map points observed by two keyframes, **BoW-guided** like
/// ORB-SLAM's `SearchByBoW`: descriptors are compared only when they
/// quantize to the same vocabulary word. On scenes with repetitive
/// texture, a global brute-force match with a ratio test rejects nearly
/// every true pair (the second-best is always close); word-restricted
/// matching keeps the search local in descriptor space instead.
///
/// Only keypoints carrying a map-point association participate — the
/// output pairs are 3D↔3D correspondences `(a-point, b-point)`.
pub fn match_point_pairs(
    kf_a: &KeyFrame,
    map_a: &impl MapRead,
    kf_b: &KeyFrame,
    map_b: &impl MapRead,
    vocab: &Vocabulary,
) -> Vec<(MapPointId, MapPointId)> {
    // word → [(descriptor, map point)] for both keyframes.
    let index = |kf: &KeyFrame,
                 holds: &dyn Fn(MapPointId) -> bool|
     -> HashMap<u32, Vec<(Descriptor, MapPointId)>> {
        let mut by_word: HashMap<u32, Vec<(Descriptor, MapPointId)>> = HashMap::new();
        for (i, mp) in kf.matched_points.iter().enumerate() {
            if let Some(mp_id) = mp {
                if holds(*mp_id) {
                    let word = vocab.quantize(&kf.descriptors[i]);
                    by_word
                        .entry(word)
                        .or_default()
                        .push((kf.descriptors[i], *mp_id));
                }
            }
        }
        by_word
    };
    let words_a = index(kf_a, &|id| map_a.mappoint(id).is_some());
    let words_b = index(kf_b, &|id| map_b.mappoint(id).is_some());

    // Best match per a-descriptor within its word; dedup per b-point.
    let mut best_for_b: HashMap<MapPointId, (MapPointId, u32)> = HashMap::new();
    for (word, entries_a) in &words_a {
        let Some(entries_b) = words_b.get(word) else {
            continue;
        };
        for (desc_a, id_a) in entries_a {
            let mut best: Option<(MapPointId, u32)> = None;
            for (desc_b, id_b) in entries_b {
                let d = desc_a.distance(desc_b);
                if best.map(|(_, bd)| d < bd).unwrap_or(true) {
                    best = Some((*id_b, d));
                }
            }
            if let Some((id_b, d)) = best {
                if d <= TH_LOW {
                    best_for_b
                        .entry(id_b)
                        .and_modify(|cur| {
                            if d < cur.1 {
                                *cur = (*id_a, d);
                            }
                        })
                        .or_insert((*id_a, d));
                }
            }
        }
    }
    let mut out: Vec<(MapPointId, MapPointId)> = best_for_b
        .into_iter()
        .map(|(id_b, (id_a, _))| (id_a, id_b))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;
    use crate::mapping::{LocalMapper, MappingConfig};
    use crate::tracking::{SensorMode, Tracker, TrackerConfig};
    use crate::vocabulary;
    use slamshare_gpu::GpuExecutor;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
    use std::sync::Arc;

    fn build_client_map(client: u16, frame: usize, seed: u64) -> (Map, Dataset) {
        let ds = Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(frame + 1)
                .with_seed(seed),
        );
        let tracker = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
        let vocab = vocabulary::train_random(42);
        let mut mapper = LocalMapper::new(SensorMode::Stereo, ds.rig, MappingConfig::default());
        let mut map = Map::new(ClientId(client));
        let (left, right) = ds.render_stereo_frame(frame);
        let obs = tracker
            .extract_frame(&left, Some(&right))
            .into_seed_observation(frame, ds.frame_time(frame), ds.gt_pose_cw(frame));
        mapper.insert_keyframe(&mut map, &vocab, &obs);
        (map, ds)
    }

    /// `n` random descriptors, and each again with `flips` bits flipped.
    fn scene(rng: &mut rand::rngs::StdRng, n: usize, flips: usize) -> [Vec<Descriptor>; 2] {
        use rand::Rng;
        let base: Vec<Descriptor> = (0..n)
            .map(|_| {
                let mut d = Descriptor::ZERO;
                for bit in 0..256 {
                    if rng.gen_bool(0.5) {
                        d.set_bit(bit);
                    }
                }
                d
            })
            .collect();
        let noisy = base
            .iter()
            .map(|d| {
                let mut d = *d;
                for _ in 0..flips {
                    let bit = rng.gen_range(0..256);
                    d.0[bit / 8] ^= 1 << (bit % 8);
                }
                d
            })
            .collect();
        [base, noisy]
    }

    #[test]
    fn database_retrieves_best_match_first() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let vocab = vocabulary::train_random(42);
        let [view, same] = scene(&mut rng, 60, 4);
        let [other, _] = scene(&mut rng, 60, 0);

        let db = ShardedKeyframeDatabase::new();
        db.add(10, vocab.transform(&same));
        db.add(20, vocab.transform(&other));

        let hits = db.query(&vocab.transform(&view), 0.0, &|_| false);
        assert!(!hits.is_empty());
        assert_eq!(
            hits[0].0, 10,
            "expected same-scene keyframe first: {hits:?}"
        );
    }

    #[test]
    fn database_remove_and_exclude() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let [view, _] = scene(&mut rng, 40, 0);
        let bow = vocabulary::train_random(42).transform(&view);

        let db = ShardedKeyframeDatabase::new();
        db.add(1, bow.clone());
        db.add(2, bow.clone());
        assert_eq!(db.len(), 2);

        let hits = db.query(&bow, 0.0, &|id| id == 1);
        assert!(hits.iter().all(|(id, _)| *id != 1));

        db.remove(2);
        assert_eq!(db.len(), 1);
        let hits = db.query(&bow, 0.0, &|_| false);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn nan_bow_weights_never_panic_query() {
        // A NaN weight (e.g. from a degenerate tf-idf normalisation)
        // gives a NaN similarity, which must not panic the sort.
        let db = ShardedKeyframeDatabase::new();
        let mut finite = BowVector::default();
        finite.0.insert(1, 0.5);
        finite.0.insert(2, 0.5);
        let mut poisoned = BowVector::default();
        poisoned.0.insert(1, f64::NAN);
        poisoned.0.insert(3, 0.5);
        db.add(10, finite.clone());
        db.add(11, poisoned.clone());
        // Finite query against a NaN entry: the NaN score fails
        // min_score and drops out.
        let hits = db.query(&finite, 0.0, &|_| false);
        assert!(hits.iter().all(|(_, s)| s.is_finite()));
        // NaN query vector: every score is NaN — no panic, no results.
        assert!(db.query(&poisoned, 0.01, &|_| false).is_empty());
    }

    #[test]
    fn same_view_from_two_clients_detected() {
        // Clients 1 and 2 both observe frame 0 of the same world (different
        // sensor-noise seeds): DetectCommonRegion must find the overlap.
        let (map_a, _) = build_client_map(1, 0, 100);
        let (map_b, _) = build_client_map(2, 0, 200);

        let db = ShardedKeyframeDatabase::new();
        for kf in map_b.keyframes.values() {
            db.add(kf.id.0, kf.bow.clone());
        }
        let kf_a = map_a.keyframes.values().next().unwrap();
        let vocab = vocabulary::train_random(42);
        let region = detect_common_region(kf_a, &map_a, &map_b, &db, &vocab, 5)
            .expect("common region not detected");
        assert!(region.point_pairs.len() >= MIN_POINT_PAIRS);
        // Verify the pairs are genuinely the same physical points.
        let mut good = 0;
        for (a, b) in &region.point_pairs {
            let pa = map_a.mappoints[a].position;
            let pb = map_b.mappoints[b].position;
            if (pa - pb).norm() < 0.5 {
                good += 1;
            }
        }
        assert!(
            good * 10 >= region.point_pairs.len() * 7,
            "{good}/{} pairs geometrically consistent",
            region.point_pairs.len()
        );
    }

    #[test]
    fn same_client_keyframes_excluded() {
        let (map_a, _) = build_client_map(1, 0, 100);
        let db = ShardedKeyframeDatabase::new();
        for kf in map_a.keyframes.values() {
            db.add(kf.id.0, kf.bow.clone());
        }
        let kf_a = map_a.keyframes.values().next().unwrap();
        // The database only holds this client's own keyframes → no result.
        assert!(
            detect_common_region(kf_a, &map_a, &map_a, &db, &vocabulary::train_random(42), 5)
                .is_none()
        );
    }

    #[test]
    fn distinct_views_not_confused() {
        // Frame 0 vs a frame far along the trajectory (little overlap in
        // the small Vicon room is still possible, so assert only that any
        // detection is geometrically consistent rather than none at all).
        let (map_a, _) = build_client_map(1, 0, 100);
        let (map_b, _) = build_client_map(2, 30, 200);
        let db = ShardedKeyframeDatabase::new();
        for kf in map_b.keyframes.values() {
            db.add(kf.id.0, kf.bow.clone());
        }
        let kf_a = map_a.keyframes.values().next().unwrap();
        if let Some(region) =
            detect_common_region(kf_a, &map_a, &map_b, &db, &vocabulary::train_random(42), 5)
        {
            let mut good = 0;
            for (a, b) in &region.point_pairs {
                let pa = map_a.mappoints[a].position;
                let pb = map_b.mappoints[b].position;
                if (pa - pb).norm() < 0.5 {
                    good += 1;
                }
            }
            assert!(
                good * 2 >= region.point_pairs.len(),
                "detection dominated by bad pairs"
            );
        }
    }

    #[test]
    fn relocalize_returns_best_mapped_candidate() {
        let (map_b, _) = build_client_map(2, 0, 200);
        let db = ShardedKeyframeDatabase::new();
        for kf in map_b.keyframes.values() {
            db.add(kf.id.0, kf.bow.clone());
        }
        // A same-place query (client 1's view of the same frame) must
        // relocalize onto client 2's keyframe with its pose.
        let (map_a, _) = build_client_map(1, 0, 100);
        let kf_a = map_a.keyframes.values().next().unwrap();
        let (kf_id, pose) = relocalize(&db, &kf_a.bow, &map_b).expect("relocalization failed");
        assert_eq!(pose, map_b.keyframes[&kf_id].pose_cw);
        // Candidates indexed but absent from the map are skipped.
        let empty = Map::new(ClientId(3));
        assert!(relocalize(&db, &kf_a.bow, &empty).is_none());
        // An empty database yields nothing.
        let no_db = ShardedKeyframeDatabase::new();
        assert!(relocalize(&no_db, &kf_a.bow, &map_b).is_none());
    }

    #[test]
    fn ransac_tolerance_survives_nan_points() {
        // Regression: the median comparator was partial_cmp().unwrap().
        use slamshare_math::Vec3;
        let pts = vec![
            Vec3::new(f64::NAN, 0.0, 0.0),
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::ZERO,
        ];
        let tol = ransac_tolerance(&pts);
        assert!((0.35..=2.5).contains(&tol), "tol = {tol}");
        // All-NaN input falls back to the floor instead of propagating NaN.
        let all_nan = vec![Vec3::new(f64::NAN, f64::NAN, f64::NAN); 3];
        assert_eq!(ransac_tolerance(&all_nan), 0.35);
    }

    #[test]
    fn empty_maps_yield_nothing() {
        let (map_a, _) = build_client_map(1, 0, 100);
        let empty = Map::new(ClientId(2));
        let db = ShardedKeyframeDatabase::new();
        let kf_a = map_a.keyframes.values().next().unwrap();
        assert!(
            detect_common_region(kf_a, &map_a, &empty, &db, &vocabulary::train_random(42), 5)
                .is_none()
        );
    }
}
