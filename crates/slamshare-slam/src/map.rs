//! Map data structures: keyframes, map points, the covisibility graph.
//!
//! A [`Map`] is the unit of state SLAM-Share consolidates on the edge
//! server. The same structure serves as a client-local map in the baseline
//! (where it gets serialized across the network — `slamshare-net`) and as
//! the shared-memory global map (where it lives in `slamshare-core::gmap`'s
//! store and is reached by handle, zero-copy).

use crate::ids::{ClientId, IdAllocator, KeyFrameId, MapPointId};
use serde::{Deserialize, Serialize};
use slamshare_features::bow::BowVector;
use slamshare_features::{Descriptor, KeyPoint};
use slamshare_math::{Sim3, Vec3, SE3};
use std::collections::{BTreeMap, HashMap};

/// A 3D landmark estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapPoint {
    pub id: MapPointId,
    /// Position in the map's world frame.
    pub position: Vec3,
    /// Representative descriptor (medoid of its observations).
    pub descriptor: Descriptor,
    /// Mean viewing direction (unit, world frame).
    pub normal: Vec3,
    /// Keyframes observing this point, with the keypoint index within each.
    pub observations: Vec<(KeyFrameId, usize)>,
    /// Set when the point has been fused into another during merging; the
    /// id it was replaced by.
    pub replaced_by: Option<MapPointId>,
    /// Value of the map's [`Map::frame_clock`] when the point was
    /// created — the deterministic age reference point culling uses
    /// (wall-clock ages are not reproducible under a seeded replay).
    #[serde(default)]
    pub created_frame: u64,
}

impl MapPoint {
    pub fn n_observations(&self) -> usize {
        self.observations.len()
    }
}

/// A keyframe: a frame promoted to the map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeyFrame {
    pub id: KeyFrameId,
    /// World → camera pose.
    pub pose_cw: SE3,
    pub timestamp: f64,
    pub keypoints: Vec<KeyPoint>,
    pub descriptors: Vec<Descriptor>,
    /// For each keypoint, the map point it observes (if any).
    pub matched_points: Vec<Option<MapPointId>>,
    /// Bag-of-words vector for place recognition.
    pub bow: BowVector,
}

impl KeyFrame {
    /// Number of keypoints associated to map points.
    pub fn n_matched(&self) -> usize {
        self.matched_points.iter().filter(|m| m.is_some()).count()
    }
}

/// A SLAM map: keyframes + map points + derived covisibility.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Map {
    pub keyframes: BTreeMap<KeyFrameId, KeyFrame>,
    pub mappoints: BTreeMap<MapPointId, MapPoint>,
    /// The id allocator for locally-created entities.
    pub alloc: IdAllocator,
    /// Deterministic frame-index clock: the highest frame index whose
    /// keyframe insertion this map has seen. Advanced by the local
    /// mapper; new map points stamp it into
    /// [`MapPoint::created_frame`] so age-based culling is
    /// seed-reproducible.
    #[serde(default)]
    pub frame_clock: u64,
}

impl Map {
    pub fn new(client: ClientId) -> Map {
        Map {
            keyframes: BTreeMap::new(),
            mappoints: BTreeMap::new(),
            alloc: IdAllocator::new(client),
            frame_clock: 0,
        }
    }

    pub fn n_keyframes(&self) -> usize {
        self.keyframes.len()
    }

    pub fn n_mappoints(&self) -> usize {
        self.mappoints.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keyframes.is_empty()
    }

    /// Apply a similarity transform to every pose and point (used when a
    /// client map is snapped onto the global map; Alg. 2 lines 9–12).
    ///
    /// Poses transform via [`transform_pose_cw`], points as `p' = T(p)`.
    pub fn transform_all(&mut self, t: &Sim3) {
        for kf in self.keyframes.values_mut() {
            kf.pose_cw = transform_pose_cw(&kf.pose_cw, t);
        }
        for mp in self.mappoints.values_mut() {
            mp.position = t.transform(mp.position);
            mp.normal = t.rot.rotate(mp.normal);
        }
    }

    /// Approximate in-memory size in bytes (Table 1's "map size" metric —
    /// what serializing this map costs, dominated by descriptors and
    /// keypoints).
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0;
        for kf in self.keyframes.values() {
            total += 128; // pose, id, timestamp, bookkeeping
            total += kf.keypoints.len() * std::mem::size_of::<KeyPoint>();
            total += kf.descriptors.len() * 32;
            total += kf.matched_points.len() * 9;
            total += kf.bow.0.len() * 12;
        }
        for mp in self.mappoints.values() {
            total += 32 + 24 + 24 + 32; // id, position, normal, descriptor
            total += mp.observations.len() * 16;
        }
        total
    }

    /// Estimated trajectory: keyframe `(timestamp, camera center)` pairs in
    /// time order. The ATE evaluation consumes this.
    pub fn trajectory(&self) -> Vec<(f64, Vec3)> {
        let mut out: Vec<(f64, Vec3)> = self
            .keyframes
            .values()
            .map(|kf| (kf.timestamp, kf.pose_cw.camera_center()))
            .collect();
        // total_cmp: a NaN timestamp must never panic the comparator. NaNs
        // sort after finite times; BTreeMap iteration keeps ties in id order
        // (sort_by is stable).
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// Read-only access to map content, implemented both by [`Map`] and by
/// [`MapView`] (a stitched view over several region shards of the global
/// map). Tracking and relocalization run against `impl MapRead`, so the
/// same code path serves a single-lock map and a subset of region shards.
pub trait MapRead {
    fn keyframe(&self, id: KeyFrameId) -> Option<&KeyFrame>;
    fn mappoint(&self, id: MapPointId) -> Option<&MapPoint>;
    /// Iterate keyframes in ascending-id order (required for determinism of
    /// the default methods regardless of how content is sharded).
    fn keyframes_iter(&self) -> Box<dyn Iterator<Item = &KeyFrame> + '_>;
    fn n_keyframes(&self) -> usize;
    fn n_mappoints(&self) -> usize;

    /// The most recent keyframe. `total_cmp` + id tie-break: NaN-safe and
    /// deterministic under any sharding of the content.
    fn latest_keyframe(&self) -> Option<&KeyFrame> {
        self.keyframes_iter()
            .max_by(|a, b| a.timestamp.total_cmp(&b.timestamp).then(a.id.cmp(&b.id)))
    }

    /// Keyframes covisible with `kf_id` (sharing ≥ `min_shared` map
    /// points), sorted by shared count descending, id ascending on ties.
    fn covisible_keyframes(
        &self,
        kf_id: KeyFrameId,
        min_shared: usize,
    ) -> Vec<(KeyFrameId, usize)> {
        let Some(kf) = self.keyframe(kf_id) else {
            return Vec::new();
        };
        let mut counts: HashMap<KeyFrameId, usize> = HashMap::new();
        for mp_id in kf.matched_points.iter().flatten() {
            if let Some(mp) = self.mappoint(*mp_id) {
                for (other, _) in &mp.observations {
                    if *other != kf_id {
                        *counts.entry(*other).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut out: Vec<(KeyFrameId, usize)> = counts
            .into_iter()
            .filter(|(_, c)| *c >= min_shared)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The local map around a keyframe: ids of points observed by it and by
    /// its covisible keyframes.
    fn local_map_points(&self, kf_id: KeyFrameId, min_shared: usize) -> Vec<MapPointId> {
        let mut kfs = vec![kf_id];
        kfs.extend(
            self.covisible_keyframes(kf_id, min_shared)
                .into_iter()
                .map(|(k, _)| k),
        );
        // Collect, sort, dedup: the ascending id set a `BTreeSet` would
        // give, without a tree node per point.
        let mut points: Vec<MapPointId> = Vec::new();
        for k in kfs {
            if let Some(kf) = self.keyframe(k) {
                points.extend(kf.matched_points.iter().flatten());
            }
        }
        points.sort_unstable();
        points.dedup();
        points
    }
}

impl MapRead for Map {
    fn keyframe(&self, id: KeyFrameId) -> Option<&KeyFrame> {
        self.keyframes.get(&id)
    }

    fn mappoint(&self, id: MapPointId) -> Option<&MapPoint> {
        self.mappoints.get(&id)
    }

    fn keyframes_iter(&self) -> Box<dyn Iterator<Item = &KeyFrame> + '_> {
        Box::new(self.keyframes.values())
    }

    fn n_keyframes(&self) -> usize {
        self.keyframes.len()
    }

    fn n_mappoints(&self) -> usize {
        self.mappoints.len()
    }
}

/// Write access to map content, implemented by [`Map`] and by the global
/// map's component view (the locked region shards, written in place).
/// The write path — local mapping, local BA, merging — runs against
/// `impl MapWrite`, so one body serves a client-local map and a set of
/// region shards.
///
/// Implementors supply the primitives; the edge methods keep point
/// observations and keyframe back-references consistent on top of them.
pub trait MapWrite: MapRead {
    fn keyframe_mut(&mut self, id: KeyFrameId) -> Option<&mut KeyFrame>;
    fn mappoint_mut(&mut self, id: MapPointId) -> Option<&mut MapPoint>;
    /// Insert `kf` under its id, replacing any keyframe with that id. No
    /// observation bookkeeping (see [`MapWrite::insert_keyframe`]).
    fn put_keyframe(&mut self, kf: KeyFrame);
    /// Insert `mp` under its id, replacing any point with that id.
    fn put_mappoint(&mut self, mp: MapPoint);
    fn take_keyframe(&mut self, id: KeyFrameId) -> Option<KeyFrame>;
    fn take_mappoint(&mut self, id: MapPointId) -> Option<MapPoint>;
    /// Iterate map points in ascending-id order.
    fn mappoints_iter(&self) -> Box<dyn Iterator<Item = &MapPoint> + '_>;
    /// The allocator new entities draw their ids from.
    fn alloc_mut(&mut self) -> &mut IdAllocator;
    /// The deterministic frame clock (see [`Map::frame_clock`]).
    fn frame_clock(&self) -> u64;
    /// Advance the frame clock to `frame` if it is behind.
    fn advance_frame_clock(&mut self, frame: u64);

    /// Insert a keyframe built by the tracker. Registers its map-point
    /// observations on the points.
    fn insert_keyframe(&mut self, kf: KeyFrame) {
        for (kp_idx, mp_id) in kf.matched_points.iter().enumerate() {
            if let Some(mp_id) = mp_id {
                if let Some(mp) = self.mappoint_mut(*mp_id) {
                    if !mp
                        .observations
                        .iter()
                        .any(|(k, i)| *k == kf.id && *i == kp_idx)
                    {
                        mp.observations.push((kf.id, kp_idx));
                    }
                }
            }
        }
        self.put_keyframe(kf);
    }

    /// Create a new map point observed by `kf_id` at keypoint `kp_idx`.
    fn create_mappoint(
        &mut self,
        position: Vec3,
        descriptor: Descriptor,
        kf_id: KeyFrameId,
        kp_idx: usize,
    ) -> MapPointId {
        let id = self.alloc_mut().next_mappoint();
        let normal = self
            .keyframe(kf_id)
            .and_then(|kf| (position - kf.pose_cw.camera_center()).normalized())
            .unwrap_or(Vec3::Z);
        let created_frame = self.frame_clock();
        self.put_mappoint(MapPoint {
            id,
            position,
            descriptor,
            normal,
            observations: vec![(kf_id, kp_idx)],
            replaced_by: None,
            created_frame,
        });
        if let Some(kf) = self.keyframe_mut(kf_id) {
            kf.matched_points[kp_idx] = Some(id);
        }
        id
    }

    /// Add an observation of an existing point from a keyframe.
    fn add_observation(&mut self, mp_id: MapPointId, kf_id: KeyFrameId, kp_idx: usize) {
        if let Some(mp) = self.mappoint_mut(mp_id) {
            if !mp
                .observations
                .iter()
                .any(|(k, i)| *k == kf_id && *i == kp_idx)
            {
                mp.observations.push((kf_id, kp_idx));
            }
        }
        if let Some(kf) = self.keyframe_mut(kf_id) {
            kf.matched_points[kp_idx] = Some(mp_id);
        }
    }

    /// Remove a map point entirely (culling), clearing keyframe back-refs.
    fn remove_mappoint(&mut self, mp_id: MapPointId) {
        if let Some(mp) = self.take_mappoint(mp_id) {
            for (kf_id, kp_idx) in mp.observations {
                if let Some(kf) = self.keyframe_mut(kf_id) {
                    if kf.matched_points[kp_idx] == Some(mp_id) {
                        kf.matched_points[kp_idx] = None;
                    }
                }
            }
        }
    }

    /// Remove a keyframe entirely (culling): delete it, drop its
    /// observations from every point it matched, and delete any point
    /// that loses its last observation in the process.
    fn remove_keyframe(&mut self, kf_id: KeyFrameId) {
        let Some(kf) = self.take_keyframe(kf_id) else {
            return;
        };
        for mp_id in kf.matched_points.into_iter().flatten() {
            let Some(mp) = self.mappoint_mut(mp_id) else {
                continue;
            };
            mp.observations.retain(|(k, _)| *k != kf_id);
            if mp.observations.is_empty() {
                self.take_mappoint(mp_id);
            }
        }
    }

    /// Fuse `src` into `dst`: move observations, delete `src`. Used by
    /// merging when two clients observed the same physical point.
    fn fuse_mappoints(&mut self, dst: MapPointId, src: MapPointId) {
        if dst == src {
            return;
        }
        let Some(srcp) = self.take_mappoint(src) else {
            return;
        };
        for (kf_id, kp_idx) in srcp.observations {
            if let Some(kf) = self.keyframe_mut(kf_id) {
                if kf.matched_points[kp_idx] == Some(src) {
                    kf.matched_points[kp_idx] = Some(dst);
                }
            }
            if let Some(d) = self.mappoint_mut(dst) {
                if !d
                    .observations
                    .iter()
                    .any(|(k, i)| *k == kf_id && *i == kp_idx)
                {
                    d.observations.push((kf_id, kp_idx));
                }
            }
        }
    }
}

impl MapWrite for Map {
    fn keyframe_mut(&mut self, id: KeyFrameId) -> Option<&mut KeyFrame> {
        self.keyframes.get_mut(&id)
    }

    fn mappoint_mut(&mut self, id: MapPointId) -> Option<&mut MapPoint> {
        self.mappoints.get_mut(&id)
    }

    fn put_keyframe(&mut self, kf: KeyFrame) {
        self.keyframes.insert(kf.id, kf);
    }

    fn put_mappoint(&mut self, mp: MapPoint) {
        self.mappoints.insert(mp.id, mp);
    }

    fn take_keyframe(&mut self, id: KeyFrameId) -> Option<KeyFrame> {
        self.keyframes.remove(&id)
    }

    fn take_mappoint(&mut self, id: MapPointId) -> Option<MapPoint> {
        self.mappoints.remove(&id)
    }

    fn mappoints_iter(&self) -> Box<dyn Iterator<Item = &MapPoint> + '_> {
        Box::new(self.mappoints.values())
    }

    fn alloc_mut(&mut self) -> &mut IdAllocator {
        &mut self.alloc
    }

    fn frame_clock(&self) -> u64 {
        self.frame_clock
    }

    fn advance_frame_clock(&mut self, frame: u64) {
        self.frame_clock = self.frame_clock.max(frame);
    }
}

/// A read view stitched over several disjoint map fragments (region
/// shards). Lookups probe each part; iteration merges in id order.
pub struct MapView<'a> {
    pub parts: Vec<&'a Map>,
}

impl<'a> MapView<'a> {
    pub fn new(parts: Vec<&'a Map>) -> MapView<'a> {
        MapView { parts }
    }
}

impl MapRead for MapView<'_> {
    fn keyframe(&self, id: KeyFrameId) -> Option<&KeyFrame> {
        self.parts.iter().find_map(|m| m.keyframes.get(&id))
    }

    fn mappoint(&self, id: MapPointId) -> Option<&MapPoint> {
        self.parts.iter().find_map(|m| m.mappoints.get(&id))
    }

    fn keyframes_iter(&self) -> Box<dyn Iterator<Item = &KeyFrame> + '_> {
        let mut all: Vec<&KeyFrame> = self
            .parts
            .iter()
            .flat_map(|m| m.keyframes.values())
            .collect();
        all.sort_by_key(|kf| kf.id);
        Box::new(all.into_iter())
    }

    fn n_keyframes(&self) -> usize {
        self.parts.iter().map(|m| m.keyframes.len()).sum()
    }

    fn n_mappoints(&self) -> usize {
        self.parts.iter().map(|m| m.mappoints.len()).sum()
    }
}

/// Deterministic spatial region assignment: hash of the ~`cell_size`-meter
/// grid cell containing a camera center, modulo `n_regions`. Pure function
/// of content, so every shard count and every interleaving agrees on it.
#[derive(Debug, Clone)]
pub struct RegionAssigner {
    pub n_regions: u32,
    pub cell_size: f64,
}

impl RegionAssigner {
    pub fn new(n_regions: usize, cell_size: f64) -> RegionAssigner {
        RegionAssigner {
            n_regions: (n_regions.max(1)) as u32,
            cell_size: if cell_size > 0.0 { cell_size } else { 10.0 },
        }
    }

    pub fn region_of(&self, p: Vec3) -> u32 {
        if self.n_regions <= 1 {
            return 0;
        }
        let quant = |v: f64| -> i64 {
            if v.is_finite() {
                (v / self.cell_size).floor() as i64
            } else {
                0
            }
        };
        // FNV-1a over the quantized cell coordinates.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for c in [quant(p.x), quant(p.y), quant(p.z)] {
            h ^= c as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        (h % self.n_regions as u64) as u32
    }
}

/// Union-find over region indices tracking which regions share covisibility
/// edges. Components only ever merge (monotone), which is what makes a
/// speculative read of a component safe: any later growth of the component
/// must have write-locked (and epoch-bumped) one of its regions.
#[derive(Debug, Clone)]
pub struct RegionGraph {
    parent: Vec<u32>,
    /// Bumped on every effective union; cheap "did anything merge" probe.
    pub version: u64,
}

impl RegionGraph {
    pub fn new(n_regions: usize) -> RegionGraph {
        RegionGraph {
            parent: (0..n_regions.max(1) as u32).collect(),
            version: 0,
        }
    }

    pub fn n_regions(&self) -> usize {
        self.parent.len()
    }

    pub fn find(&self, mut r: u32) -> u32 {
        let n = self.parent.len() as u32;
        if r >= n {
            return r.min(n.saturating_sub(1));
        }
        while self.parent[r as usize] != r {
            r = self.parent[r as usize];
        }
        r
    }

    /// Merge the components of `a` and `b`. Deterministic: the smaller root
    /// index always becomes the representative.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        self.version += 1;
        true
    }

    /// All regions in `r`'s component, ascending.
    pub fn component(&self, r: u32) -> Vec<u32> {
        let root = self.find(r);
        (0..self.parent.len() as u32)
            .filter(|&i| self.find(i) == root)
            .collect()
    }

    pub fn n_components(&self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&i| self.find(i) == i)
            .count()
    }
}

/// Re-express a world→camera pose after its map is moved by similarity
/// `t`: the new camera center is `t(old center)`, orientation composes
/// with `t`'s rotation. (Scale cannot live in an SE(3) pose; camera-frame
/// coordinates scale uniformly by `t.scale`, leaving projections
/// unchanged.)
pub fn transform_pose_cw(pose_cw: &SE3, t: &Sim3) -> SE3 {
    let t_inv = t.inverse();
    let new_center = t.transform(pose_cw.camera_center());
    let new_rot = (pose_cw.rot * t_inv.rot).normalized();
    SE3 {
        rot: new_rot,
        trans: -(new_rot.rotate(new_center)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_math::Quat;

    fn blank_kf(map: &mut Map, t: f64, n_kp: usize) -> KeyFrameId {
        let id = map.alloc.next_keyframe();
        let kf = KeyFrame {
            id,
            pose_cw: SE3::IDENTITY,
            timestamp: t,
            keypoints: vec![KeyPoint::new(slamshare_math::Vec2::ZERO, 0, 1.0); n_kp],
            descriptors: vec![Descriptor::ZERO; n_kp],
            matched_points: vec![None; n_kp],
            bow: BowVector::default(),
        };
        map.insert_keyframe(kf);
        id
    }

    #[test]
    fn create_and_observe_point() {
        let mut map = Map::new(ClientId(1));
        let kf1 = blank_kf(&mut map, 0.0, 5);
        let kf2 = blank_kf(&mut map, 1.0, 5);
        let mp = map.create_mappoint(Vec3::new(1.0, 2.0, 3.0), Descriptor::ZERO, kf1, 0);
        map.add_observation(mp, kf2, 3);
        assert_eq!(map.mappoints[&mp].n_observations(), 2);
        assert_eq!(map.keyframes[&kf1].matched_points[0], Some(mp));
        assert_eq!(map.keyframes[&kf2].matched_points[3], Some(mp));
        assert_eq!(map.keyframes[&kf1].n_matched(), 1);
    }

    #[test]
    fn duplicate_observation_ignored() {
        let mut map = Map::new(ClientId(1));
        let kf = blank_kf(&mut map, 0.0, 3);
        let mp = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf, 0);
        map.add_observation(mp, kf, 0);
        assert_eq!(map.mappoints[&mp].n_observations(), 1);
    }

    #[test]
    fn remove_point_clears_backrefs() {
        let mut map = Map::new(ClientId(1));
        let kf = blank_kf(&mut map, 0.0, 3);
        let mp = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf, 1);
        map.remove_mappoint(mp);
        assert!(map.mappoints.is_empty());
        assert_eq!(map.keyframes[&kf].matched_points[1], None);
    }

    #[test]
    fn remove_keyframe_clears_observations_and_orphans() {
        let mut map = Map::new(ClientId(1));
        let kf1 = blank_kf(&mut map, 0.0, 4);
        let kf2 = blank_kf(&mut map, 1.0, 4);
        // `shared` survives kf1's removal with one observation left;
        // `solo` loses its only observer and must be deleted with it.
        let shared = map.create_mappoint(Vec3::new(0.0, 0.0, 4.0), Descriptor::ZERO, kf1, 0);
        map.add_observation(shared, kf2, 0);
        let solo = map.create_mappoint(Vec3::new(1.0, 0.0, 4.0), Descriptor::ZERO, kf1, 1);
        map.remove_keyframe(kf1);
        assert!(!map.keyframes.contains_key(&kf1));
        assert!(!map.mappoints.contains_key(&solo));
        let mp = &map.mappoints[&shared];
        assert_eq!(mp.observations, vec![(kf2, 0)]);
        // Removing a missing keyframe is a no-op.
        map.remove_keyframe(kf1);
        assert_eq!(map.n_keyframes(), 1);
    }

    #[test]
    fn created_frame_stamps_the_map_clock() {
        let mut map = Map::new(ClientId(1));
        let kf = blank_kf(&mut map, 0.0, 3);
        let early = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf, 0);
        map.frame_clock = 42;
        let late = map.create_mappoint(Vec3::X, Descriptor::ZERO, kf, 1);
        assert_eq!(map.mappoints[&early].created_frame, 0);
        assert_eq!(map.mappoints[&late].created_frame, 42);
    }

    #[test]
    fn fuse_moves_observations() {
        let mut map = Map::new(ClientId(1));
        let kf1 = blank_kf(&mut map, 0.0, 3);
        let kf2 = blank_kf(&mut map, 1.0, 3);
        let a = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf1, 0);
        let b = map.create_mappoint(Vec3::new(0.01, 0.0, 0.0), Descriptor::ZERO, kf2, 0);
        map.fuse_mappoints(a, b);
        assert!(!map.mappoints.contains_key(&b));
        assert_eq!(map.mappoints[&a].n_observations(), 2);
        assert_eq!(map.keyframes[&kf2].matched_points[0], Some(a));
    }

    #[test]
    fn covisibility_counts_shared_points() {
        let mut map = Map::new(ClientId(1));
        let kf1 = blank_kf(&mut map, 0.0, 10);
        let kf2 = blank_kf(&mut map, 1.0, 10);
        let kf3 = blank_kf(&mut map, 2.0, 10);
        for i in 0..4 {
            let mp = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf1, i);
            map.add_observation(mp, kf2, i);
        }
        let mp = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf1, 5);
        map.add_observation(mp, kf3, 5);

        let cov = map.covisible_keyframes(kf1, 1);
        assert_eq!(cov[0], (kf2, 4));
        assert_eq!(cov[1], (kf3, 1));
        let cov2 = map.covisible_keyframes(kf1, 2);
        assert_eq!(cov2.len(), 1);
    }

    #[test]
    fn local_map_points_unions_covisible() {
        let mut map = Map::new(ClientId(1));
        let kf1 = blank_kf(&mut map, 0.0, 10);
        let kf2 = blank_kf(&mut map, 1.0, 10);
        let shared = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf1, 0);
        map.add_observation(shared, kf2, 0);
        let only2 = map.create_mappoint(Vec3::X, Descriptor::ZERO, kf2, 1);
        let pts = map.local_map_points(kf1, 1);
        assert!(pts.contains(&shared));
        assert!(
            pts.contains(&only2),
            "covisible keyframe's points must be in the local map"
        );
    }

    #[test]
    fn transform_all_moves_centers_like_points() {
        let mut map = Map::new(ClientId(1));
        let kf = blank_kf(&mut map, 0.0, 1);
        let mp = map.create_mappoint(Vec3::new(0.0, 0.0, 5.0), Descriptor::ZERO, kf, 0);

        let before_center = map.keyframes[&kf].pose_cw.camera_center();
        let before_pt_cam = map.keyframes[&kf]
            .pose_cw
            .transform(map.mappoints[&mp].position);

        let t = Sim3::new(
            Quat::from_axis_angle(Vec3::Z, 0.7),
            Vec3::new(3.0, -1.0, 2.0),
            1.5,
        );
        map.transform_all(&t);

        let after_center = map.keyframes[&kf].pose_cw.camera_center();
        assert!((after_center - t.transform(before_center)).norm() < 1e-9);
        // Invariant: the point's camera-frame direction is unchanged
        // (up to the scale factor) because both moved together.
        let after_pt_cam = map.keyframes[&kf]
            .pose_cw
            .transform(map.mappoints[&mp].position);
        let dir_before = before_pt_cam.normalized().unwrap();
        let dir_after = after_pt_cam.normalized().unwrap();
        assert!(
            (dir_before - dir_after).norm() < 1e-9,
            "{dir_before:?} vs {dir_after:?}"
        );
        assert!((after_pt_cam.norm() / before_pt_cam.norm() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut map = Map::new(ClientId(1));
        let empty = map.approx_bytes();
        let kf = blank_kf(&mut map, 0.0, 100);
        let with_kf = map.approx_bytes();
        assert!(with_kf > empty + 100 * 32);
        for i in 0..10 {
            map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf, i);
        }
        assert!(map.approx_bytes() > with_kf);
    }

    #[test]
    fn trajectory_sorted_by_time() {
        let mut map = Map::new(ClientId(1));
        blank_kf(&mut map, 2.0, 1);
        blank_kf(&mut map, 0.5, 1);
        blank_kf(&mut map, 1.0, 1);
        let traj = map.trajectory();
        assert_eq!(traj.len(), 3);
        assert!(traj.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn nan_timestamps_never_panic_map_queries() {
        // Regression: latest_keyframe/trajectory used partial_cmp().unwrap()
        // and panicked on a NaN timestamp.
        let mut map = Map::new(ClientId(1));
        blank_kf(&mut map, f64::NAN, 1);
        let good = blank_kf(&mut map, 1.0, 1);
        blank_kf(&mut map, f64::NAN, 1);
        // NaN sorts after finite values under total_cmp, so the NaN frame
        // wins latest_keyframe — the policy is "no panic, deterministic",
        // not "NaN is ignored".
        assert!(map.latest_keyframe().is_some());
        assert_eq!(map.trajectory().len(), 3);
        assert!(map.keyframes.contains_key(&good));
    }

    #[test]
    fn latest_keyframe_breaks_timestamp_ties_by_id() {
        let mut map = Map::new(ClientId(1));
        blank_kf(&mut map, 1.0, 1);
        let b = blank_kf(&mut map, 1.0, 1);
        assert_eq!(map.latest_keyframe().map(|kf| kf.id), Some(b));
    }

    #[test]
    fn map_view_matches_single_map_queries() {
        // Split one map's content across two fragments; the stitched view
        // must answer every read-side query identically.
        let mut map = Map::new(ClientId(1));
        let kf1 = blank_kf(&mut map, 0.0, 10);
        let kf2 = blank_kf(&mut map, 1.0, 10);
        for i in 0..4 {
            let mp = map.create_mappoint(Vec3::ZERO, Descriptor::ZERO, kf1, i);
            map.add_observation(mp, kf2, i);
        }
        let mut a = Map::new(ClientId(1));
        let mut b = Map::new(ClientId(1));
        for (id, kf) in &map.keyframes {
            if *id == kf1 {
                a.keyframes.insert(*id, kf.clone());
            } else {
                b.keyframes.insert(*id, kf.clone());
            }
        }
        for (i, (id, mp)) in map.mappoints.iter().enumerate() {
            if i % 2 == 0 {
                a.mappoints.insert(*id, mp.clone());
            } else {
                b.mappoints.insert(*id, mp.clone());
            }
        }
        let view = MapView::new(vec![&b, &a]);
        assert_eq!(view.n_keyframes(), map.n_keyframes());
        assert_eq!(view.n_mappoints(), map.n_mappoints());
        assert_eq!(
            view.latest_keyframe().map(|kf| kf.id),
            map.latest_keyframe().map(|kf| kf.id)
        );
        assert_eq!(
            MapRead::covisible_keyframes(&view, kf1, 1),
            map.covisible_keyframes(kf1, 1)
        );
        assert_eq!(
            MapRead::local_map_points(&view, kf1, 1),
            map.local_map_points(kf1, 1)
        );
    }

    #[test]
    fn region_graph_unions_are_monotone_and_deterministic() {
        let mut g = RegionGraph::new(8);
        assert_eq!(g.n_components(), 8);
        assert!(g.union(3, 5));
        assert!(!g.union(5, 3));
        assert!(g.union(5, 1));
        assert_eq!(g.find(3), 1);
        assert_eq!(g.component(5), vec![1, 3, 5]);
        assert_eq!(g.n_components(), 6);
        assert_eq!(g.version, 2);
    }

    #[test]
    fn region_assigner_is_deterministic_and_nan_safe() {
        let a = RegionAssigner::new(16, 10.0);
        let p = Vec3::new(12.0, -3.0, 4.0);
        assert_eq!(a.region_of(p), a.region_of(p));
        assert!(a.region_of(p) < 16);
        let _ = a.region_of(Vec3::new(f64::NAN, 0.0, f64::INFINITY));
        assert_eq!(RegionAssigner::new(1, 10.0).region_of(p), 0);
    }
}
