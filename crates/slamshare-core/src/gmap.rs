//! The region-sharded global map.
//!
//! Partitions the global map's content into N spatial/covisibility
//! **regions**, each stored in its own shard of a `ShardedStore` (the
//! private `store` submodule: one lock + one epoch counter per region),
//! plus a top-level **directory** mapping keyframes to regions and tracking
//! which regions are connected by covisibility. Speculative tracks read
//! only the regions their local-map window can touch; commits write-lock
//! only the regions their component covers. Clients working in disjoint
//! areas of the map therefore stop contending on one map-wide lock; a
//! merge, which must search the whole map for a common region, plans and
//! applies under every region's write lock.
//!
//! # Regions and components
//!
//! A keyframe's **region** is a deterministic hash of the ~10 m spatial
//! grid cell containing its camera center ([`RegionAssigner`]); a map
//! point lives with its first observer. Both are decided once, when the
//! entity is created (below). Regions that share a covisibility edge (a
//! point observed from keyframes in both) are **unioned** in a monotone
//! union-find ([`RegionGraph`]): the lock unit is the connected
//! *component*, never a single region, which keeps every
//! covisibility-reachable entity inside the locked set.
//!
//! Closure invariant: *every observation edge implies its two regions
//! are already unioned.* Every write maintains it for the edges it adds
//! (below), and it is what makes component locking exact — a keyframe's
//! covisible neighbourhood, its local map points, the BA window around it
//! and the weld candidates around a merge anchor are all
//! covisibility-reachable, hence inside the component.
//! [`ShardedGlobalMap::check_invariants`] checks it, along with one shard
//! per entity and directory entries naming their shard.
//!
//! # Size
//!
//! The map is measured, not charged: its size is the sum of each shard's
//! [`Map::approx_bytes`], read by [`ShardedGlobalMap::stats`] under read
//! locks. Nothing keeps a second count on the write path.
//!
//! # Writes in place
//!
//! A component write hands its closure a [`ComponentMapMut`]: the locked
//! shards stitched into one mutable view implementing [`MapWrite`], so the
//! mapping/merge/BA code that runs on a client's [`Map`] runs on the
//! shards unchanged. Lookups probe the shards, iteration merges them in id
//! order, and an entity that exists stays in the shard that holds it. The
//! view records what the write creates and the map points it lends out
//! mutably; when the closure returns, each new entity is placed once — a
//! keyframe in the region under its camera center, a point with its first
//! observer, each in the first locked region when that region is not
//! locked — and each recorded point's region is unioned with its
//! observers' regions. The work is proportional to what the write
//! touched, not to the component. Placement is invisible to results
//! (every read stitches the locked shards back together), so **results
//! are bit-identical at any shard count by construction**.
//!
//! # Locking discipline
//!
//! * Shard locks are acquired in ascending index order (enforced by
//!   `ShardedStore` itself).
//! * The directory mutex is only ever taken **after** shard locks
//!   (validation, residency check, the end of a write) or alone
//!   (resolve) — never before them, and never across a write closure.
//! * Unions only happen at the end of a write, for the edges that write
//!   added, under the write locks of every region involved (reloads
//!   re-link theirs under the reloaded region's lock); and a dirty write
//!   bumps every locked region's epoch. Hence components grow
//!   monotonically and any growth visible to a reader bumps an epoch the
//!   reader stamped — the commit-side staleness check subsumes read-side
//!   revalidation.
//! * A component write validates, under the directory lock *while
//!   holding its shard locks*, that the seeds still resolve inside the
//!   locked set; if a concurrent write merged components first, it
//!   releases and retries (bounded, then falls back to all regions).
//!
//! # Residency
//!
//! A region's content is normally **resident** in its shm shard. The
//! lifecycle subsystem (`crate::lifecycle`) may serialize a cold
//! component out: each region's content becomes a compact
//! `slamshare-net` region snapshot held in a typed [`EvictedRegion`]
//! directory stub, and the emptied shard no longer counts towards the
//! map's size. Directory entries and unions are never removed by
//! eviction, so seed resolution is oblivious to residency; the track and
//! write paths call [`ShardedGlobalMap::ensure_resident`] on their
//! resolved region set before locking, which transparently decodes stubs
//! back into their shards (reload-on-demand). An eviction can still land
//! between that reload and the lock acquisition, so each path checks
//! again, under its shard locks, that no locked region is evicted; if one
//! is, it releases the locks and reloads. Eviction and reload both hold a
//! region's write lock, so the check is exact for as long as the caller
//! holds its locks, and the closure runs once, on resident content. The
//! retry ends because every stub in the directory decodes (one this map
//! encoded, or one [`ShardedGlobalMap::install_evicted`] checked).
//! Eviction is all-or-nothing per covisibility component, keeping every
//! observation edge on one side of the residency boundary.

use parking_lot::Mutex;
use slamshare_math::Vec3;
use slamshare_net::fed::{decode_region_snapshot, encode_region_snapshot, RegionSnapshot};
use slamshare_slam::ids::{ClientId, IdAllocator, KeyFrameId, MapPointId};
use slamshare_slam::map::{
    KeyFrame, Map, MapPoint, MapRead, MapView, MapWrite, RegionAssigner, RegionGraph,
};
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap};
use std::iter::Peekable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod store;

use store::ShardedStore;
pub use store::{LockStats, SharedMutex};

/// Component-write attempts before escalating to an all-region write:
/// a write whose components keep growing under it (a concurrent write
/// merged them) stops chasing them and locks everything.
pub const MAX_COMPONENT_RETRIES: usize = 3;

/// The typed directory stub left behind when a cold region's content is
/// serialized out of shared memory. The directory keeps its keyframe →
/// region entries and recorded covisibility unions (both monotone), so
/// seed resolution and component locking still work while the content
/// itself lives in `payload` — closure with stubs, the invariant
/// DESIGN.md §11 pins.
#[derive(Debug, Clone)]
pub struct EvictedRegion {
    /// `slamshare-net::fed` region-snapshot wire bytes (the compact form;
    /// also what federation ships on an ownership transfer). The
    /// snapshot carries the region, its content and the frame it was
    /// evicted at.
    pub payload: Vec<u8>,
}

/// What one [`ShardedGlobalMap::evict_component`] call did.
#[derive(Debug, Clone, Default)]
pub struct EvictReceipt {
    /// Regions whose content was serialized out (empty when the component
    /// had nothing resident or validation aborted the eviction).
    pub regions: Vec<usize>,
    pub keyframes: usize,
    pub mappoints: usize,
    /// Total size of the compact serialized payloads.
    pub serialized_bytes: usize,
    /// Approximate shm bytes the evicted content occupied.
    pub released_bytes: usize,
}

/// Keyframe→region index plus the covisibility-region graph. Lives
/// beside the store under its own mutex (the "directory" of the sharded
/// map). `kf_region` entries and recorded unions are monotone: they
/// survive map-point pruning and region eviction (an evicted keyframe's
/// entry keeps resolving to its region, whose content is reachable via
/// the [`EvictedRegion`] stub), and only `Map::remove_keyframe`-style
/// culling inside a component write can orphan an entry — stale entries
/// are harmless because resolution only widens the locked set.
struct Directory {
    kf_region: HashMap<KeyFrameId, u32>,
    graph: RegionGraph,
    assigner: RegionAssigner,
    /// Serialized stubs of evicted regions, keyed by region index.
    evicted: HashMap<u32, EvictedRegion>,
}

/// What a write operation wants locked: the components of these keyframes
/// plus the components of the regions containing these positions (new
/// content lands where its camera centers fall). `all` escalates to every
/// region (mono mapping, a keyframe with no reference).
#[derive(Debug, Clone, Default)]
pub struct LockSeeds {
    pub kfs: Vec<KeyFrameId>,
    pub positions: Vec<Vec3>,
    pub all: bool,
}

impl LockSeeds {
    /// Every region (a track with no reference keyframe, a merge job).
    /// A write over them first reloads every evicted region, so a merge
    /// plans against the whole map, as relocalization does.
    pub fn all() -> LockSeeds {
        LockSeeds {
            all: true,
            ..LockSeeds::default()
        }
    }
}

/// Lock context handed to a component-write closure: the locked region
/// indices (ascending) and their epochs as of lock acquisition — the
/// authoritative values for staleness stamps taken under read locks.
pub struct ComponentWrite<'a> {
    pub regions: &'a [usize],
    pub epochs: &'a [u64],
}

impl ComponentWrite<'_> {
    /// Epoch of `region` at lock time, `None` when it is not locked.
    pub fn epoch_of(&self, region: usize) -> Option<u64> {
        self.regions
            .iter()
            .position(|&r| r == region)
            .and_then(|i| self.epochs.get(i).copied())
    }
}

/// The region-sharded global map: the shm store of region shards and the
/// directory.
pub struct ShardedGlobalMap {
    store: ShardedStore<Map>,
    dir: Mutex<Directory>,
    /// Successful on-demand reloads (lifecycle telemetry).
    reloads: AtomicU64,
}

/// Edge length, meters, of the spatial grid cells every
/// [`crate::server::EdgeServer`] hashes its regions from.
pub const REGION_CELL_M: f64 = 10.0;

impl ShardedGlobalMap {
    /// The sharded map with `n_shards` regions of ~`cell_m`-meter grid
    /// cells.
    pub fn new(n_shards: usize, cell_m: f64) -> Arc<ShardedGlobalMap> {
        let n = n_shards.max(1);
        Arc::new(ShardedGlobalMap {
            store: ShardedStore::new((0..n).map(|_| Map::default()).collect()),
            dir: Mutex::new(Directory {
                kf_region: HashMap::new(),
                graph: RegionGraph::new(n),
                assigner: RegionAssigner::new(n, cell_m),
                evicted: HashMap::new(),
            }),
            reloads: AtomicU64::new(0),
        })
    }

    /// Successful on-demand region reloads so far.
    pub fn reload_count(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    pub fn n_shards(&self) -> usize {
        self.store.n_shards()
    }

    /// Number of covisibility-connected region components.
    pub fn n_components(&self) -> usize {
        self.dir.lock().graph.n_components()
    }

    /// Region index a world position falls in. The assigner is a pure
    /// function of `(n_shards, cell_m)`, so two servers built with the
    /// same config agree on every position's region — the property the
    /// federation ownership map is built on.
    pub fn region_of(&self, p: Vec3) -> usize {
        self.dir.lock().assigner.region_of(p) as usize
    }

    /// Current epoch of every region (lock-free).
    pub fn region_epochs(&self) -> Vec<u64> {
        (0..self.store.n_shards())
            .map(|i| self.store.epoch(i))
            .collect()
    }

    /// Whether every `(region, epoch)` entry of a staleness stamp still
    /// matches the live epochs. Lock-free — the cheap pre-check; the
    /// authoritative check re-reads epochs under the commit's write
    /// locks via [`ComponentWrite::epoch_of`].
    pub fn stamp_current(&self, stamp: &[(usize, u64)]) -> bool {
        stamp.iter().all(|&(i, e)| self.store.epoch(i) == e)
    }

    /// Aggregated lock statistics across the shards (same shape the
    /// single-lock store reported).
    pub fn lock_stats(&self) -> LockStats {
        self.store.lock_stats()
    }

    /// Per-region lock statistics (contention attribution).
    pub fn shard_lock_stats(&self) -> Vec<LockStats> {
        self.store.shard_lock_stats()
    }

    /// Resolve seeds to the sorted union of their components' regions.
    fn resolve(&self, seeds: &LockSeeds) -> Vec<usize> {
        let dir = self.dir.lock();
        self.resolve_in(&dir, seeds)
    }

    fn resolve_in(&self, dir: &Directory, seeds: &LockSeeds) -> Vec<usize> {
        let n = self.store.n_shards();
        if seeds.all || n <= 1 {
            return (0..n).collect();
        }
        let mut set: BTreeSet<usize> = BTreeSet::new();
        for kf in &seeds.kfs {
            if let Some(&r) = dir.kf_region.get(kf) {
                for c in dir.graph.component(r) {
                    set.insert(c as usize);
                }
            }
        }
        for p in &seeds.positions {
            let r = dir.assigner.region_of(*p);
            for c in dir.graph.component(r) {
                set.insert(c as usize);
            }
        }
        if set.is_empty() {
            // Nothing resolved (e.g. a seed keyframe unknown to the
            // directory): escalate rather than lock nothing.
            return (0..n).collect();
        }
        set.into_iter().collect()
    }

    /// Speculative-track read: locks the component of `seed` (all
    /// regions when there is no reference keyframe, since reference
    /// selection then scans the whole map). `f` receives a [`MapView`]
    /// over the locked shards plus the staleness stamp — the
    /// `(region, epoch)` pairs the track read under. `f` runs exactly
    /// once, on resident content.
    pub fn with_track_read<R>(
        &self,
        seed: Option<KeyFrameId>,
        f: impl FnOnce(&MapView, &[(usize, u64)]) -> R,
    ) -> R {
        let seeds = match seed {
            Some(kf) => LockSeeds {
                kfs: vec![kf],
                ..LockSeeds::default()
            },
            None => LockSeeds::all(),
        };
        let mut f = Some(f);
        loop {
            let regions = self.resolve(&seeds);
            // Reload-on-demand: a track whose component includes an
            // evicted region pulls the content back before taking read
            // locks, and again if an eviction lands before they are held.
            self.ensure_resident(&regions);
            let out = self.store.with_read(&regions, |order, shards| {
                if self.any_evicted(order) {
                    return None;
                }
                let f = f.take()?;
                // Epochs only move under a shard's write lock, so these
                // reads are stable for as long as the read locks are held.
                let stamp: Vec<(usize, u64)> =
                    order.iter().map(|&i| (i, self.store.epoch(i))).collect();
                let view = MapView::new(shards.to_vec());
                Some(f(&view, &stamp))
            });
            if let Some(r) = out {
                return r;
            }
        }
    }

    /// Whether any of `locked` is evicted — the residency check (module
    /// docs), run with those regions' shard locks held; the directory
    /// lock comes after them, the allowed order.
    fn any_evicted(&self, locked: &[usize]) -> bool {
        let dir = self.dir.lock();
        !dir.evicted.is_empty()
            && locked
                .iter()
                .any(|&r| dir.evicted.contains_key(&(r as u32)))
    }

    /// All-region read access as one stitched [`MapView`] (relocalization,
    /// map statistics, phase transitions).
    pub fn with_view<R>(&self, f: impl FnOnce(&MapView) -> R) -> R {
        self.store
            .with_read_all(|_, shards| f(&MapView::new(shards.to_vec())))
    }

    /// Clone `client`'s keyframes and map points out under read locks.
    /// Ids are client-namespaced, so they are one id range of each
    /// region; nothing else is copied.
    pub fn client_fragment(&self, client: ClientId) -> Map {
        self.store.with_read_all(|_, shards| {
            let mut frag = Map::new(client);
            for s in shards {
                for (id, kf) in s.keyframes.range(client.keyframe_ids()) {
                    frag.keyframes.insert(*id, kf.clone());
                }
                for (id, mp) in s.mappoints.range(client.mappoint_ids()) {
                    frag.mappoints.insert(*id, mp.clone());
                }
            }
            frag
        })
    }

    /// Clone the whole map out under read locks.
    pub fn snapshot_map(&self) -> Map {
        self.store.with_read_all(|_, shards| {
            let mut m = Map::default();
            for s in shards {
                for (id, kf) in &s.keyframes {
                    m.keyframes.insert(*id, kf.clone());
                }
                for (id, mp) in &s.mappoints {
                    m.mappoints.insert(*id, mp.clone());
                }
            }
            m
        })
    }

    /// `(n_keyframes, n_mappoints, approx_bytes)` of the whole map — the
    /// one measure of its size (module docs, "Size").
    pub fn stats(&self) -> (usize, usize, usize) {
        self.store.with_read_all(|_, shards| {
            let mut kfs = 0;
            let mut mps = 0;
            let mut bytes = 0;
            for s in shards {
                kfs += s.n_keyframes();
                mps += s.n_mappoints();
                bytes += s.approx_bytes();
            }
            (kfs, mps, bytes)
        })
    }

    /// Sorted regions of the covisibility component containing `region`.
    fn component_of(&self, region: usize) -> Vec<usize> {
        let dir = self.dir.lock();
        let mut v: Vec<usize> = dir
            .graph
            .component(region as u32)
            .into_iter()
            .map(|r| r as usize)
            .collect();
        v.sort_unstable();
        v
    }

    /// Every covisibility component, each sorted, ordered by smallest
    /// region index — the deterministic iteration order maintenance uses.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.store.n_shards();
        let dir = self.dir.lock();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for r in 0..n {
            if seen[r] {
                continue;
            }
            let mut comp: Vec<usize> = dir
                .graph
                .component(r as u32)
                .into_iter()
                .map(|x| x as usize)
                .collect();
            comp.sort_unstable();
            for &c in &comp {
                if let Some(s) = seen.get_mut(c) {
                    *s = true;
                }
            }
            out.push(comp);
        }
        out
    }

    /// Sorted indices of currently evicted regions.
    pub fn evicted_regions(&self) -> Vec<usize> {
        let dir = self.dir.lock();
        let mut v: Vec<usize> = dir.evicted.keys().map(|&r| r as usize).collect();
        v.sort_unstable();
        v
    }

    /// Whether any region is currently evicted (one lock, no allocation —
    /// the cheap pre-check relocalization uses).
    pub fn has_evicted(&self) -> bool {
        !self.dir.lock().evicted.is_empty()
    }

    /// `(evicted region count, total serialized payload bytes)`.
    pub fn evicted_stats(&self) -> (usize, usize) {
        let dir = self.dir.lock();
        (
            dir.evicted.len(),
            dir.evicted.values().map(|e| e.payload.len()).sum(),
        )
    }

    /// Smallest keyframe id resident in `region`, if any — the seed
    /// maintenance uses to lock a component through the validated
    /// component-write path.
    pub fn first_keyframe_in(&self, region: usize) -> Option<KeyFrameId> {
        self.store.with_read(&[region], |_, shards| {
            shards
                .first()
                .and_then(|s| s.keyframes.keys().next().copied())
        })
    }

    /// Serialize the covisibility component containing `seed_region` out
    /// of shared memory: each resident region's content becomes a compact
    /// `slamshare-net` region snapshot held in a typed [`EvictedRegion`]
    /// directory stub, the shards are emptied, and every locked region's
    /// epoch is bumped so stale stamps trip. Eviction is
    /// all-or-nothing per component — cross-region observation edges stay
    /// inside one payload set — and aborts (empty receipt) if a concurrent
    /// write grew the component between resolve and lock acquisition; the
    /// next maintenance tick retries.
    pub fn evict_component(&self, seed_region: usize, now_frame: u64) -> EvictReceipt {
        let regions = self.component_of(seed_region);
        if regions.is_empty() {
            return EvictReceipt::default();
        }
        self.store.with_write(&regions, |order, shards| {
            let mut dir = self.dir.lock();
            // Validate under the directory lock while holding the
            // shard locks, exactly like a component write: if the
            // component grew, evicting only part of it would strand
            // cross-region observation edges across the residency
            // boundary.
            let current: Vec<usize> = dir
                .graph
                .component(seed_region as u32)
                .into_iter()
                .map(|r| r as usize)
                .collect();
            if !current.iter().all(|r| order.binary_search(r).is_ok()) {
                return (EvictReceipt::default(), false);
            }
            let mut receipt = EvictReceipt::default();
            for (k, shard) in shards.iter_mut().enumerate() {
                let Some(&region) = order.get(k) else {
                    continue;
                };
                if shard.is_empty() && shard.n_mappoints() == 0 {
                    continue; // nothing resident (maybe already a stub)
                }
                receipt.released_bytes += shard.approx_bytes();
                let fragment = std::mem::take(&mut **shard);
                let snap = RegionSnapshot {
                    region: region as u32,
                    evicted_at_frame: now_frame,
                    fragment,
                };
                let payload = encode_region_snapshot(&snap).to_vec();
                receipt.serialized_bytes += payload.len();
                receipt.keyframes += snap.fragment.n_keyframes();
                receipt.mappoints += snap.fragment.n_mappoints();
                receipt.regions.push(region);
                dir.evicted.insert(region as u32, EvictedRegion { payload });
            }
            let dirty = !receipt.regions.is_empty();
            (receipt, dirty)
        })
    }

    /// Make every region in `regions` resident again, decoding and
    /// re-placing any [`EvictedRegion`] stubs. Returns the number of
    /// regions reloaded. Called on the track/commit path before locks are
    /// taken (see [`ShardedGlobalMap::with_track_read`] /
    /// [`ShardedGlobalMap::with_component_write`]), which is what makes
    /// eviction transparent: a query that resolves into an evicted region
    /// pays one reload, then proceeds as if the content never left.
    pub fn ensure_resident(&self, regions: &[usize]) -> usize {
        let hits: Vec<usize> = {
            let dir = self.dir.lock();
            if dir.evicted.is_empty() {
                return 0;
            }
            regions
                .iter()
                .copied()
                .filter(|&r| dir.evicted.contains_key(&(r as u32)))
                .collect()
        };
        let mut reloaded = 0;
        for region in hits {
            if self.reload_region(region) {
                reloaded += 1;
            }
        }
        if reloaded > 0 {
            slamshare_obs::counter_add!("lifecycle.reloads", reloaded as u64);
        }
        reloaded
    }

    /// Reload every evicted region (relocalization scans the whole map,
    /// so a reloc query against an evicted area needs everything back).
    pub fn ensure_all_resident(&self) -> usize {
        let all: Vec<usize> = (0..self.store.n_shards()).collect();
        self.ensure_resident(&all)
    }

    /// Decode one stub back into its shard. Under the shard's write lock:
    /// take the stub (directory lock after shard lock — the allowed
    /// order), decode, re-place verbatim, re-link directory entries, bump
    /// the epoch. Concurrent reloaders serialize on the shard lock; the
    /// loser finds no stub and no-ops. Returns whether a stub was
    /// reloaded.
    fn reload_region(&self, region: usize) -> bool {
        let _span = slamshare_obs::span!("lifecycle.reload");
        let ok = self.store.with_write(&[region], |order, shards| {
            let (Some(&r), Some(shard)) = (order.first(), shards.first_mut()) else {
                return (false, false);
            };
            let stub = {
                let mut dir = self.dir.lock();
                dir.evicted.remove(&(r as u32))
            };
            let Some(stub) = stub else {
                return (false, false);
            };
            let snap = match decode_region_snapshot(&stub.payload) {
                Ok(s) => s,
                Err(_) => {
                    // Our own encoder produced these bytes, so this is
                    // unreachable in practice — but a corrupt payload
                    // must not lose the stub or panic the server.
                    self.dir.lock().evicted.insert(r as u32, stub);
                    slamshare_obs::counter_inc!("lifecycle.reload_decode_errors");
                    return (false, false);
                }
            };
            let mut fragment = snap.fragment;
            // Re-link: at the origin server these directory writes are
            // no-ops (entries and unions are monotone and were never
            // removed). After a federation ownership transfer they
            // seed the destination's directory; a racing component
            // write re-validates under the directory lock, so unions
            // appearing here are caught by its retry path.
            {
                let mut dir = self.dir.lock();
                for id in fragment.keyframes.keys() {
                    dir.kf_region.insert(*id, r as u32);
                }
                for mp in fragment.mappoints.values() {
                    for (kf, _) in &mp.observations {
                        if let Some(&other) = dir.kf_region.get(kf) {
                            dir.graph.union(r as u32, other);
                        }
                    }
                }
            }
            shard.keyframes.append(&mut fragment.keyframes);
            shard.mappoints.append(&mut fragment.mappoints);
            shard.frame_clock = shard.frame_clock.max(fragment.frame_clock);
            (true, true)
        });
        if ok {
            self.reloads.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Remove and return `region`'s stub **without** reloading it — the
    /// federation ownership-transfer path: the origin ships the compact
    /// payload to the new owner instead of paying a decode + re-encode.
    /// The directory's kf→region entries stay (monotone), so stale seed
    /// resolution still works; content queries for the region now miss,
    /// which is correct — the region is no longer this server's.
    pub fn take_evicted(&self, region: usize) -> Option<EvictedRegion> {
        self.dir.lock().evicted.remove(&(region as u32))
    }

    /// Install a stub for `region` (federation ownership transfer,
    /// destination side). Refuses, handing the stub back, when the region
    /// already has a stub or resident content — the caller must merge
    /// instead — and when the payload does not decode: every stub in the
    /// directory must reload, or a track or commit on its region would
    /// wait for residency forever.
    pub fn install_evicted(&self, region: usize, stub: EvictedRegion) -> Result<(), EvictedRegion> {
        if region >= self.store.n_shards() || decode_region_snapshot(&stub.payload).is_err() {
            return Err(stub);
        }
        let resident = self
            .store
            .with_read(&[region], |_, shards| match shards.first() {
                Some(s) => !s.is_empty() || s.n_mappoints() > 0,
                None => true,
            });
        if resident {
            return Err(stub);
        }
        let mut dir = self.dir.lock();
        if dir.evicted.contains_key(&(region as u32)) {
            return Err(stub);
        }
        dir.evicted.insert(region as u32, stub);
        Ok(())
    }

    /// Write to the components covering `seeds`. The closure receives the
    /// locked shards as one [`ComponentMapMut`], written in place, and the
    /// lock context, and returns `(result, dirty)`; a dirty write bumps
    /// every locked region's epoch. When the closure returns, the write
    /// places the entities it inserted and records the covisibility
    /// unions of the points it inserted or lent out mutably (module docs,
    /// "Writes in place"). Returns the result plus the locked region set
    /// (the write-lock receipt).
    ///
    /// The closure runs **at most once**, on resident content: a
    /// validation failure releases the locks and retries. Either a
    /// concurrent write merged one of our components into a region
    /// outside the locked set — the retry takes the grown component,
    /// escalating to all regions after [`MAX_COMPONENT_RETRIES`] — or an
    /// eviction emptied a locked shard, and the retry reloads it.
    pub fn with_component_write<R>(
        &self,
        seeds: &LockSeeds,
        f: impl FnOnce(&mut ComponentMapMut<'_>, &ComponentWrite) -> (R, bool),
    ) -> (R, Vec<usize>) {
        let n = self.store.n_shards();
        let mut f = Some(f);
        let mut attempt = 0;
        loop {
            let regions: Vec<usize> = if attempt >= MAX_COMPONENT_RETRIES {
                (0..n).collect()
            } else {
                self.resolve(seeds)
            };
            let full = regions.len() == n;
            // Reload-on-demand: commits, merges, and federation deltas
            // that target an evicted region reload it before locking
            // (the "reload" arm of reload-or-queue — the write then
            // applies against resident content).
            self.ensure_resident(&regions);
            let mut grown = false;
            let out = self.store.with_write(&regions, |order, shards| {
                // Validate under the directory lock, while holding
                // the shard locks: components may have merged
                // between resolve and acquisition.
                grown = !full && {
                    let dir = self.dir.lock();
                    !self
                        .resolve_in(&dir, seeds)
                        .iter()
                        .all(|r| order.binary_search(r).is_ok())
                };
                if grown || self.any_evicted(order) {
                    return (None, false);
                }
                let Some(f) = f.take() else {
                    return (None, false);
                };
                let (r, dirty) = self.run_write(order, shards, f);
                (Some(r), dirty)
            });
            if let Some(r) = out {
                return (r, regions);
            }
            if grown {
                attempt += 1;
            }
        }
    }

    /// Run `f` on the locked shards in place, then settle what it
    /// inserted and lent out. The shard locks are already held; the
    /// directory lock is not held while `f` runs.
    fn run_write<R>(
        &self,
        order: &[usize],
        shards: &mut [&mut Map],
        f: impl FnOnce(&mut ComponentMapMut<'_>, &ComponentWrite) -> (R, bool),
    ) -> (R, bool) {
        let epochs: Vec<u64> = order.iter().map(|&i| self.store.epoch(i)).collect();
        let (kf_parts, mp_parts) = shards
            .iter_mut()
            .map(|s| (&mut s.keyframes, &mut s.mappoints))
            .unzip();
        // Starts as an empty `Map` would: frame clock 0 and a default
        // allocator (the closures install their own).
        let mut view = ComponentMapMut {
            keyframes: Stitched::new(kf_parts, false),
            mappoints: Stitched::new(mp_parts, true),
            alloc: IdAllocator::default(),
            frame_clock: 0,
        };
        let cw = ComponentWrite {
            regions: order,
            epochs: &epochs,
        };
        let out = f(&mut view, &cw);
        self.settle(order, view);
        out
    }

    /// The end of a component write. Each entity the write inserted is
    /// placed once: a keyframe in the region under its camera center, a
    /// point with its first observer, each in the first locked region
    /// when that region is not locked. Each inserted or lent-out point's
    /// region is then unioned with its observers' regions (among the
    /// locked ones), which keeps the closure invariant. Entities the
    /// write did not touch are not visited, and nothing that existed
    /// moves: placement is invisible to every read, which stitches the
    /// shards back together. The directory lock is taken here, after the
    /// shard locks.
    fn settle(&self, order: &[usize], view: ComponentMapMut<'_>) {
        let Stitched {
            parts: mut kf_parts,
            fresh: new_kfs,
            ..
        } = view.keyframes;
        let Stitched {
            parts: mut mp_parts,
            fresh: new_mps,
            lent,
        } = view.mappoints;
        let mut lent = lent.unwrap_or_default();
        if new_kfs.is_empty() && new_mps.is_empty() && lent.is_empty() {
            return;
        }
        let slot_of = |region: usize| order.binary_search(&region).unwrap_or(0);
        let mut dir = self.dir.lock();
        for (id, kf) in new_kfs {
            let slot = slot_of(dir.assigner.region_of(kf.pose_cw.camera_center()) as usize);
            if let (Some(&region), Some(part)) = (order.get(slot), kf_parts.get_mut(slot)) {
                dir.kf_region.insert(id, region as u32);
                part.insert(id, kf);
            }
        }
        for (id, mp) in new_mps {
            let slot = mp
                .observations
                .first()
                .and_then(|(kf, _)| dir.kf_region.get(kf))
                .map_or(0, |&r| slot_of(r as usize));
            let (Some(&home), Some(part)) = (order.get(slot), mp_parts.get_mut(slot)) else {
                continue;
            };
            dir.union_observers(order, home, &mp);
            part.insert(id, mp);
        }
        lent.sort_unstable();
        lent.dedup();
        for id in lent {
            let found = mp_parts
                .iter()
                .zip(order)
                .find_map(|(part, &region)| part.get(&id).map(|mp| (region, mp)));
            if let Some((home, mp)) = found {
                dir.union_observers(order, home, mp);
            }
        }
    }

    /// Check the sharded map's structural invariants under read locks on
    /// every shard (then the directory lock):
    ///
    /// * every resident keyframe and map point lives in exactly one shard;
    /// * every resident keyframe's directory entry names its shard;
    /// * closure: every resident observer of a resident point is in a
    ///   region unioned with the point's region.
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), MapInvariantError> {
        self.store.with_read_all(|order, shards| {
            let dir = self.dir.lock();
            let mut kf_home: HashMap<KeyFrameId, usize> = HashMap::new();
            let mut mp_home: HashMap<MapPointId, usize> = HashMap::new();
            for (&region, shard) in order.iter().zip(shards) {
                for &id in shard.keyframes.keys() {
                    if let Some(first) = kf_home.insert(id, region) {
                        return Err(MapInvariantError::DuplicateKeyframe {
                            id,
                            regions: [first, region],
                        });
                    }
                }
                for &id in shard.mappoints.keys() {
                    if let Some(first) = mp_home.insert(id, region) {
                        return Err(MapInvariantError::DuplicatePoint {
                            id,
                            regions: [first, region],
                        });
                    }
                }
            }
            for (&region, shard) in order.iter().zip(shards) {
                for &id in shard.keyframes.keys() {
                    let directory = dir.kf_region.get(&id).map(|&r| r as usize);
                    if directory != Some(region) {
                        return Err(MapInvariantError::MisfiledKeyframe {
                            id,
                            shard: region,
                            directory,
                        });
                    }
                }
                for mp in shard.mappoints.values() {
                    for (kf, _) in &mp.observations {
                        let Some(&observer_region) = kf_home.get(kf) else {
                            continue;
                        };
                        if dir.graph.find(observer_region as u32) != dir.graph.find(region as u32) {
                            return Err(MapInvariantError::OpenEdge {
                                point: mp.id,
                                point_region: region,
                                observer: *kf,
                                observer_region,
                            });
                        }
                    }
                }
            }
            Ok(())
        })
    }
}

impl Directory {
    /// Union `home` with the region of every observer of `mp` that lies
    /// in the locked set `locked` (ascending).
    fn union_observers(&mut self, locked: &[usize], home: usize, mp: &MapPoint) {
        for (kf, _) in &mp.observations {
            if let Some(&r) = self.kf_region.get(kf) {
                if locked.binary_search(&(r as usize)).is_ok() {
                    self.graph.union(home as u32, r);
                }
            }
        }
    }
}

/// A violated invariant of the sharded map
/// ([`ShardedGlobalMap::check_invariants`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapInvariantError {
    /// A keyframe is resident in two shards.
    DuplicateKeyframe { id: KeyFrameId, regions: [usize; 2] },
    /// A map point is resident in two shards.
    DuplicatePoint { id: MapPointId, regions: [usize; 2] },
    /// A resident keyframe's directory entry names another region, or none.
    MisfiledKeyframe {
        id: KeyFrameId,
        shard: usize,
        directory: Option<usize>,
    },
    /// An observation edge joins two regions that are not unioned.
    OpenEdge {
        point: MapPointId,
        point_region: usize,
        observer: KeyFrameId,
        observer_region: usize,
    },
}

impl std::fmt::Display for MapInvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sharded map invariant violated: {self:?}")
    }
}

impl std::error::Error for MapInvariantError {}

/// One entity kind of a component write — keyframes or map points —
/// stitched over the locked shards' maps. Lookups try the write's own new
/// entities first, then the shards; an entity that exists stays in the
/// shard that holds it. Entities the write inserts wait in `fresh` until
/// the write ends, when they are placed once (module docs, "Writes in
/// place"). Iteration merges the parts in ascending id order, as one map
/// would iterate.
struct Stitched<'a, K, V> {
    parts: Vec<&'a mut BTreeMap<K, V>>,
    fresh: BTreeMap<K, V>,
    /// Ids of existing entities handed out mutably, with repeats; `None`
    /// when the write's unions do not need them (keyframes).
    lent: Option<Vec<K>>,
}

impl<'a, K: Ord + Copy, V> Stitched<'a, K, V> {
    fn new(parts: Vec<&'a mut BTreeMap<K, V>>, track_lent: bool) -> Self {
        Stitched {
            parts,
            fresh: BTreeMap::new(),
            lent: track_lent.then(Vec::new),
        }
    }

    fn get(&self, k: &K) -> Option<&V> {
        self.fresh
            .get(k)
            .or_else(|| self.parts.iter().find_map(|p| p.get(k)))
    }

    fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        if let Some(v) = self.fresh.get_mut(k) {
            return Some(v);
        }
        let v = self.parts.iter_mut().find_map(|p| p.get_mut(k))?;
        if let Some(lent) = &mut self.lent {
            lent.push(*k);
        }
        Some(v)
    }

    /// Insert `v` under `k`, returning the entity it replaced. An existing
    /// entity is replaced where it is; a new one waits to be placed when
    /// the write ends.
    fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.get_mut(&k) {
            Some(slot) => Some(std::mem::replace(slot, v)),
            None => self.fresh.insert(k, v),
        }
    }

    fn remove(&mut self, k: &K) -> Option<V> {
        self.fresh
            .remove(k)
            .or_else(|| self.parts.iter_mut().find_map(|p| p.remove(k)))
    }

    fn len(&self) -> usize {
        self.parts.iter().map(|p| p.len()).sum::<usize>() + self.fresh.len()
    }

    /// Entities in ascending id order.
    fn values(&self) -> StitchedValues<'_, K, V> {
        StitchedValues {
            heads: self
                .parts
                .iter()
                .map(|p| p.iter().peekable())
                .chain(std::iter::once(self.fresh.iter().peekable()))
                .collect(),
        }
    }
}

/// Ascending-id merge over a [`Stitched`]'s parts.
struct StitchedValues<'s, K, V> {
    heads: Vec<Peekable<btree_map::Iter<'s, K, V>>>,
}

impl<'s, K: Ord, V> Iterator for StitchedValues<'s, K, V> {
    type Item = &'s V;

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, &'s K)> = None;
        for (i, head) in self.heads.iter_mut().enumerate() {
            if let Some(&(k, _)) = head.peek() {
                if best.is_none_or(|(_, b)| k < b) {
                    best = Some((i, k));
                }
            }
        }
        self.heads.get_mut(best?.0)?.next().map(|(_, v)| v)
    }
}

/// The closure argument of [`ShardedGlobalMap::with_component_write`]:
/// the locked component, written in place. It implements [`MapWrite`], so
/// the mapping, merge and BA code that runs on a client's [`Map`] runs on
/// it unchanged. It starts with frame clock 0 and a default allocator, as
/// an empty [`Map`] does; write closures install the client's allocator
/// themselves ([`MapWrite::alloc_mut`]).
pub struct ComponentMapMut<'a> {
    keyframes: Stitched<'a, KeyFrameId, KeyFrame>,
    mappoints: Stitched<'a, MapPointId, MapPoint>,
    alloc: IdAllocator,
    frame_clock: u64,
}

impl MapRead for ComponentMapMut<'_> {
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

impl MapWrite for ComponentMapMut<'_> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_math::SE3;
    use slamshare_slam::ids::ClientId;
    use slamshare_slam::map::MapRead;

    fn gmap(n: usize) -> Arc<ShardedGlobalMap> {
        ShardedGlobalMap::new(n, 10.0)
    }

    fn kf_at(map: &mut impl MapWrite, x: f64, t: f64) -> KeyFrameId {
        let id = map.alloc_mut().next_keyframe();
        map.insert_keyframe(KeyFrame {
            id,
            pose_cw: SE3::from_translation(slamshare_math::Vec3::new(-x, 0.0, 0.0)),
            timestamp: t,
            keypoints: Vec::new(),
            descriptors: Vec::new(),
            matched_points: Vec::new(),
            bow: Default::default(),
        });
        id
    }

    /// Insert a keyframe at world x-position `x` via a component write
    /// seeded by that position; returns (kf id, locked regions).
    fn insert_at(
        g: &ShardedGlobalMap,
        alloc_map: &mut Map,
        x: f64,
        t: f64,
    ) -> (KeyFrameId, Vec<usize>) {
        let seeds = LockSeeds {
            positions: vec![slamshare_math::Vec3::new(x, 0.0, 0.0)],
            ..LockSeeds::default()
        };
        let mut planted = None;
        let (_, locked) = g.with_component_write(&seeds, |scratch, _| {
            std::mem::swap(scratch.alloc_mut(), &mut alloc_map.alloc);
            let id = kf_at(scratch, x, t);
            std::mem::swap(scratch.alloc_mut(), &mut alloc_map.alloc);
            planted = Some(id);
            ((), true)
        });
        (planted.unwrap(), locked)
    }

    #[test]
    fn far_apart_writes_lock_disjoint_regions() {
        let g = gmap(16);
        let mut alloc = Map::new(ClientId(1));
        let (_, l1) = insert_at(&g, &mut alloc, 0.0, 0.0);
        let (_, l2) = insert_at(&g, &mut alloc, 1000.0, 1.0);
        assert!(l1.len() < 16 && l2.len() < 16);
        assert!(
            l1.iter().all(|r| !l2.contains(r)),
            "disjoint areas locked overlapping regions: {l1:?} vs {l2:?}"
        );
        // Both keyframes visible through the stitched view.
        assert_eq!(g.with_view(|v| v.n_keyframes()), 2);
    }

    #[test]
    fn dirty_component_write_bumps_only_its_regions() {
        let g = gmap(16);
        let mut alloc = Map::new(ClientId(1));
        let (_, l1) = insert_at(&g, &mut alloc, 0.0, 0.0);
        let epochs = g.region_epochs();
        for (i, &e) in epochs.iter().enumerate() {
            assert_eq!(e, u64::from(l1.contains(&i)), "region {i}");
        }
        // A track stamped on an untouched component survives a write to
        // a disjoint one.
        let stamp: Vec<(usize, u64)> = g
            .region_epochs()
            .iter()
            .enumerate()
            .map(|(i, &e)| (i, e))
            .collect();
        let (_, _) = insert_at(&g, &mut alloc, 1000.0, 1.0);
        let disjoint_stamp: Vec<(usize, u64)> = stamp
            .iter()
            .copied()
            .filter(|(i, _)| l1.contains(i))
            .collect();
        assert!(g.stamp_current(&disjoint_stamp));
        assert!(!g.stamp_current(&stamp) || g.n_shards() == 1);
    }

    #[test]
    fn observation_edges_union_regions() {
        let g = gmap(16);
        let n0 = g.n_components();
        let mut helper = Map::new(ClientId(1));
        // Two keyframes far apart observing one shared point: their
        // regions must end up in one component.
        let seeds = LockSeeds::all();
        let (_, _) = g.with_component_write(&seeds, |scratch, _| {
            std::mem::swap(scratch.alloc_mut(), &mut helper.alloc);
            let a = kf_at(scratch, 0.0, 0.0);
            let b = kf_at(scratch, 500.0, 1.0);
            let mp = scratch.alloc_mut().next_mappoint();
            scratch.put_mappoint(slamshare_slam::map::MapPoint {
                id: mp,
                position: slamshare_math::Vec3::new(250.0, 0.0, 0.0),
                descriptor: Default::default(),
                normal: slamshare_math::Vec3::new(0.0, 0.0, 1.0),
                observations: vec![(a, 0), (b, 0)],
                replaced_by: None,
                created_frame: 0,
            });
            std::mem::swap(scratch.alloc_mut(), &mut helper.alloc);
            ((), true)
        });
        assert!(g.n_components() < n0, "no union recorded");
        // A write seeded by either keyframe's position now locks the
        // merged component (both keyframes' regions).
        let (_, locked) = g.with_component_write(
            &LockSeeds {
                positions: vec![slamshare_math::Vec3::new(0.0, 0.0, 0.0)],
                ..LockSeeds::default()
            },
            |_, _| ((), false),
        );
        let (_, locked_b) = g.with_component_write(
            &LockSeeds {
                positions: vec![slamshare_math::Vec3::new(500.0, 0.0, 0.0)],
                ..LockSeeds::default()
            },
            |_, _| ((), false),
        );
        assert_eq!(locked, locked_b);
    }

    #[test]
    fn clean_write_changes_nothing() {
        let g = gmap(8);
        let mut alloc = Map::new(ClientId(1));
        let (kf, _) = insert_at(&g, &mut alloc, 3.0, 0.0);
        let epochs = g.region_epochs();
        let (n, locked) = g.with_component_write(
            &LockSeeds {
                kfs: vec![kf],
                ..LockSeeds::default()
            },
            |scratch, _| (scratch.n_keyframes(), false),
        );
        assert_eq!(n, 1);
        assert!(!locked.is_empty());
        assert_eq!(g.region_epochs(), epochs);
        assert!(g.with_view(|v| v.keyframe(kf).is_some()));
    }

    #[test]
    fn snapshot_equals_view() {
        let g = gmap(8);
        let mut alloc = Map::new(ClientId(1));
        for i in 0..6 {
            insert_at(&g, &mut alloc, i as f64 * 37.0, i as f64);
        }
        let snap = g.snapshot_map();
        g.with_view(|v| {
            assert_eq!(snap.n_keyframes(), v.n_keyframes());
            for kf in snap.keyframes.values() {
                assert!(v.keyframe(kf.id).is_some());
            }
        });
        let (kfs, _, _) = g.stats();
        assert_eq!(kfs, 6);
    }

    #[test]
    fn evict_reload_roundtrip_preserves_content_and_shrinks_the_map() {
        let g = ShardedGlobalMap::new(16, 10.0);
        let mut alloc = Map::new(ClientId(1));
        let (kf, locked) = insert_at(&g, &mut alloc, 0.0, 0.0);
        insert_at(&g, &mut alloc, 1000.0, 1.0);
        let before = g.snapshot_map();
        let bytes_before = g.stats().2;

        let receipt = g.evict_component(locked[0], 500);
        assert_eq!(receipt.regions, locked);
        assert_eq!(receipt.keyframes, 1);
        assert!(receipt.serialized_bytes > 0);
        assert_eq!(g.evicted_regions(), locked);
        assert!(g.has_evicted());
        // The measured size shrank by what the receipt released; the far
        // keyframe is untouched.
        assert_eq!(g.stats().2, bytes_before - receipt.released_bytes);
        assert_eq!(g.with_view(|v| v.n_keyframes()), 1);

        // A track seeded by the evicted keyframe transparently reloads.
        let n = g.with_track_read(Some(kf), |v, _| v.n_keyframes());
        assert_eq!(n, 1);
        assert!(!g.has_evicted());
        assert!(!g.evicted_regions().contains(&locked[0]));
        assert_eq!(g.stats().2, bytes_before);
        // Full content identical to the pre-eviction snapshot.
        let after = g.snapshot_map();
        assert_eq!(before.n_keyframes(), after.n_keyframes());
        for (id, kf) in &before.keyframes {
            let b = after.keyframes.get(id).expect("keyframe lost by eviction");
            assert_eq!(kf.timestamp, b.timestamp);
        }
    }

    #[test]
    fn evict_bumps_epochs_and_write_reloads() {
        let g = gmap(16);
        let mut alloc = Map::new(ClientId(1));
        let (kf, locked) = insert_at(&g, &mut alloc, 0.0, 0.0);
        let stamp: Vec<(usize, u64)> = locked.iter().map(|&r| (r, g.region_epochs()[r])).collect();
        let receipt = g.evict_component(locked[0], 1);
        assert!(!receipt.regions.is_empty());
        // A reader stamped on the region must see it go stale.
        assert!(!g.stamp_current(&stamp));
        // A component write seeded by the evicted keyframe reloads first
        // and sees the content.
        let (n, _) = g.with_component_write(
            &LockSeeds {
                kfs: vec![kf],
                ..LockSeeds::default()
            },
            |scratch, _| (scratch.n_keyframes(), false),
        );
        assert_eq!(n, 1);
    }

    #[test]
    fn double_evict_is_idempotent_and_empty_component_is_noop() {
        let g = gmap(8);
        let mut alloc = Map::new(ClientId(1));
        let (_, locked) = insert_at(&g, &mut alloc, 2.0, 0.0);
        let first = g.evict_component(locked[0], 1);
        assert!(!first.regions.is_empty());
        let second = g.evict_component(locked[0], 2);
        assert!(second.regions.is_empty(), "re-evicted an evicted region");
        assert_eq!(g.evicted_stats().0, 1);
        // ensure_resident on untouched regions is a no-op.
        assert_eq!(g.ensure_resident(&[]), 0);
    }

    #[test]
    fn take_and_install_evicted_transfers_content() {
        let g = gmap(16);
        let mut alloc = Map::new(ClientId(1));
        let (kf, locked) = insert_at(&g, &mut alloc, 0.0, 0.0);
        g.evict_component(locked[0], 7);
        let stub = g.take_evicted(locked[0]).expect("stub missing");
        assert!(g.take_evicted(locked[0]).is_none());

        // Same-shape destination server (the federation precondition: the
        // assigner is a pure function of config, so regions line up).
        let dest = gmap(16);
        // A stub that cannot reload is refused: a track on its region
        // would otherwise wait for residency forever.
        let garbage = EvictedRegion {
            payload: vec![0xFF; 16],
        };
        assert!(
            dest.install_evicted(locked[0], garbage).is_err(),
            "undecodable stub"
        );
        assert!(dest.install_evicted(locked[0], stub.clone()).is_ok());
        // A refused stub comes back whole.
        let refused = dest.install_evicted(locked[0], stub.clone());
        assert_eq!(
            refused.map_err(|s| s.payload),
            Err(stub.payload),
            "double install"
        );
        assert!(dest.evicted_regions().contains(&locked[0]));
        // A query on the destination reloads and re-links the directory.
        assert_eq!(dest.ensure_all_resident(), 1);
        assert!(dest.with_view(|v| v.keyframe(kf).is_some()));
        // Re-linked: a component write seeded by the transferred keyframe
        // resolves to its region.
        let (n, locked_dest) = dest.with_component_write(
            &LockSeeds {
                kfs: vec![kf],
                ..LockSeeds::default()
            },
            |scratch, _| (scratch.n_keyframes(), false),
        );
        assert_eq!(n, 1);
        assert_eq!(locked_dest, locked);
    }

    #[test]
    fn concurrent_disjoint_writers_make_progress() {
        let g = gmap(16);
        let mut handles = Vec::new();
        for w in 0..4u16 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                let mut alloc = Map::new(ClientId(w + 1));
                for i in 0..20 {
                    insert_at(&g, &mut alloc, w as f64 * 5000.0 + i as f64, i as f64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.with_view(|v| v.n_keyframes()), 80);
    }

    /// Two x-offsets whose keyframes land in different regions of `g`.
    fn distinct_offsets(g: &ShardedGlobalMap) -> (f64, f64) {
        let a = 0.0;
        let ra = g.region_of(slamshare_math::Vec3::new(a, 0.0, 0.0));
        let b = (1..)
            .map(|k| k as f64 * 100.0)
            .find(|&b| g.region_of(slamshare_math::Vec3::new(b, 0.0, 0.0)) != ra)
            .unwrap();
        (a, b)
    }

    /// A keyframe at world x-offset `x` with `n_kp` free keypoint slots.
    fn blank_kf(id: KeyFrameId, x: f64, n_kp: usize) -> KeyFrame {
        KeyFrame {
            id,
            pose_cw: SE3::from_translation(slamshare_math::Vec3::new(-x, 0.0, 0.0)),
            timestamp: x,
            keypoints: vec![
                slamshare_features::KeyPoint::new(slamshare_math::Vec2::ZERO, 0, 1.0);
                n_kp
            ],
            descriptors: vec![slamshare_features::Descriptor::ZERO; n_kp],
            matched_points: vec![None; n_kp],
            bow: Default::default(),
        }
    }

    /// `(id, region)` of every resident entity, ascending by id.
    type Placement<Id> = Vec<(Id, usize)>;

    /// Which region's shard holds each keyframe and map point.
    fn placement(g: &ShardedGlobalMap) -> (Placement<KeyFrameId>, Placement<MapPointId>) {
        g.store.with_read_all(|order, shards| {
            let mut kfs = Vec::new();
            let mut mps = Vec::new();
            for (&r, s) in order.iter().zip(shards) {
                kfs.extend(s.keyframes.keys().map(|&id| (id, r)));
                mps.extend(s.mappoints.keys().map(|&id| (id, r)));
            }
            kfs.sort_unstable();
            mps.sort_unstable();
            (kfs, mps)
        })
    }

    fn at(x: f64) -> LockSeeds {
        LockSeeds {
            positions: vec![slamshare_math::Vec3::new(x, 0.0, 0.0)],
            ..LockSeeds::default()
        }
    }

    #[test]
    fn lent_point_gaining_a_remote_observer_unions_its_region() {
        let g = gmap(16);
        let (xa, xb) = distinct_offsets(&g);
        let mut alloc = Map::new(ClientId(1));
        let (a, p) = g
            .with_component_write(&at(xa), |m, _| {
                let a = alloc.alloc.next_keyframe();
                m.insert_keyframe(blank_kf(a, xa, 2));
                *m.alloc_mut() = alloc.alloc.clone();
                let p = m.create_mappoint(
                    slamshare_math::Vec3::new(xa, 0.0, 5.0),
                    Default::default(),
                    a,
                    0,
                );
                alloc.alloc = m.alloc_mut().clone();
                ((a, p), true)
            })
            .0;
        let b = alloc.alloc.next_keyframe();
        g.with_component_write(&at(xb), |m, _| {
            m.insert_keyframe(blank_kf(b, xb, 2));
            ((), true)
        });
        let (ra, rb) = (
            g.region_of(slamshare_math::Vec3::new(xa, 0.0, 0.0)),
            g.region_of(slamshare_math::Vec3::new(xb, 0.0, 0.0)),
        );
        assert!(!g.component_of(ra).contains(&rb), "regions joined early");
        g.check_invariants().unwrap();

        // One write locking both components: the existing point `p`,
        // lent out by `add_observation`, gains an observer in the other
        // locked region.
        let (_, locked) = g.with_component_write(
            &LockSeeds {
                kfs: vec![a, b],
                ..LockSeeds::default()
            },
            |m, _| {
                m.add_observation(p, b, 1);
                ((), true)
            },
        );
        assert!(locked.contains(&ra) && locked.contains(&rb));
        assert!(
            g.component_of(ra).contains(&rb),
            "lent point's edge not unioned"
        );
        g.check_invariants().unwrap();
        // Nothing moved: `p` still lives with its first observer.
        let (kfs, mps) = placement(&g);
        assert_eq!(kfs, vec![(a, ra), (b, rb)]);
        assert_eq!(mps, vec![(p, ra)]);
    }

    #[test]
    fn dirty_write_leaves_untouched_entities_in_their_shard() {
        let g = gmap(16);
        let (xa, xb) = distinct_offsets(&g);
        let mut alloc = Map::new(ClientId(1));
        // One component over two regions: a point observed from both.
        let (a, b) = g
            .with_component_write(&LockSeeds::all(), |m, _| {
                std::mem::swap(m.alloc_mut(), &mut alloc.alloc);
                let a = kf_at(m, xa, 0.0);
                let b = kf_at(m, xb, 1.0);
                for k in [a, b] {
                    if let Some(kf) = m.keyframe_mut(k) {
                        kf.keypoints = vec![
                            slamshare_features::KeyPoint::new(
                                slamshare_math::Vec2::ZERO,
                                0,
                                1.0
                            );
                            4
                        ];
                        kf.descriptors = vec![slamshare_features::Descriptor::ZERO; 4];
                        kf.matched_points = vec![None; 4];
                    }
                }
                for i in 0..3 {
                    let p = m.create_mappoint(
                        slamshare_math::Vec3::new(xa, i as f64, 5.0),
                        Default::default(),
                        a,
                        i,
                    );
                    m.add_observation(p, b, i);
                }
                std::mem::swap(m.alloc_mut(), &mut alloc.alloc);
                ((a, b), true)
            })
            .0;
        let before = placement(&g);
        g.check_invariants().unwrap();

        // A dirty write that moves `a`'s camera into `b`'s cell and edits
        // one point: re-placing by the current pose would move both; in
        // place, every existing entity keeps its shard.
        let seeds = LockSeeds {
            kfs: vec![a],
            ..LockSeeds::default()
        };
        let c = alloc.alloc.next_keyframe();
        g.with_component_write(&seeds, |m, _| {
            if let Some(kf) = m.keyframe_mut(a) {
                kf.pose_cw = SE3::from_translation(slamshare_math::Vec3::new(-xb, 0.0, 0.0));
            }
            let first = m.mappoints_iter().next().map(|p| p.id);
            if let Some(p) = first.and_then(|p| m.mappoint_mut(p)) {
                p.position.z = 6.0;
            }
            m.insert_keyframe(blank_kf(c, xb, 1));
            ((), true)
        });
        let (kfs, mps) = placement(&g);
        let rb = g.region_of(slamshare_math::Vec3::new(xb, 0.0, 0.0));
        let mut want_kfs = before.0.clone();
        want_kfs.push((c, rb));
        want_kfs.sort_unstable();
        assert_eq!(kfs, want_kfs);
        assert_eq!(mps, before.1);
        assert!(kfs.contains(&(b, rb)));
        g.check_invariants().unwrap();
    }

    /// A random sequence of edits, each one component write seeded by the
    /// keyframes it touches, applied through the view at several shard
    /// counts and to a plain `Map`: the content is identical after every
    /// step and the sharded map's invariants hold.
    #[test]
    fn random_writes_through_the_view_match_a_plain_map() {
        use rand::{Rng, SeedableRng};
        const N_KP: usize = 6;
        fn fingerprint(m: &Map) -> String {
            format!("{:?}\n{:?}", m.keyframes, m.mappoints)
        }
        fn observer(m: &Map, p: MapPointId) -> Vec<KeyFrameId> {
            m.mappoints
                .get(&p)
                .and_then(|mp| mp.observations.first())
                .map(|&(k, _)| k)
                .into_iter()
                .collect()
        }
        enum Op {
            InsertKf(f64, Vec<(usize, MapPointId)>),
            Create(KeyFrameId, usize, f64),
            Observe(MapPointId, KeyFrameId, usize),
            RemovePoint(MapPointId),
            RemoveKf(KeyFrameId),
            Fuse(MapPointId, MapPointId),
        }
        fn run(m: &mut impl MapWrite, op: &Op, step: u64) {
            m.advance_frame_clock(step);
            match op {
                Op::InsertKf(x, matched) => {
                    let id = m.alloc_mut().next_keyframe();
                    let mut kf = blank_kf(id, *x, N_KP);
                    for &(i, p) in matched {
                        kf.matched_points[i] = Some(p);
                    }
                    m.insert_keyframe(kf);
                }
                Op::Create(k, i, y) => {
                    m.create_mappoint(
                        slamshare_math::Vec3::new(0.0, *y, 4.0),
                        Default::default(),
                        *k,
                        *i,
                    );
                }
                Op::Observe(p, k, i) => m.add_observation(*p, *k, *i),
                Op::RemovePoint(p) => m.remove_mappoint(*p),
                Op::RemoveKf(k) => m.remove_keyframe(*k),
                Op::Fuse(d, s) => m.fuse_mappoints(*d, *s),
            }
        }
        for shards in [1usize, 4, 16] {
            let g = gmap(shards);
            let mut plain = Map::new(ClientId(1));
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
            for step in 0..240u64 {
                let kfs: Vec<KeyFrameId> = plain.keyframes.keys().copied().collect();
                let mps: Vec<MapPointId> = plain.mappoints.keys().copied().collect();
                let pick_kf = |rng: &mut rand::rngs::StdRng| kfs[rng.gen_range(0..kfs.len())];
                let pick_mp = |rng: &mut rand::rngs::StdRng| mps[rng.gen_range(0..mps.len())];
                let free_slot = |k: KeyFrameId| {
                    plain.keyframes[&k]
                        .matched_points
                        .iter()
                        .position(Option::is_none)
                };
                let roll = if kfs.len() < 3 {
                    0
                } else {
                    rng.gen_range(0..10)
                };
                let op = match roll {
                    0 | 1 => {
                        let x = rng.gen_range(0.0..60.0);
                        let matched = if mps.is_empty() || rng.gen_bool(0.5) {
                            Vec::new()
                        } else {
                            vec![(rng.gen_range(0..N_KP), pick_mp(&mut rng))]
                        };
                        Op::InsertKf(x, matched)
                    }
                    2..=4 => {
                        let k = pick_kf(&mut rng);
                        match free_slot(k) {
                            Some(i) => Op::Create(k, i, rng.gen_range(0.0..60.0)),
                            None => Op::RemoveKf(k),
                        }
                    }
                    5 | 6 if !mps.is_empty() => {
                        let (p, k) = (pick_mp(&mut rng), pick_kf(&mut rng));
                        match free_slot(k) {
                            Some(i) => Op::Observe(p, k, i),
                            None => Op::RemovePoint(p),
                        }
                    }
                    7 if !mps.is_empty() => Op::RemovePoint(pick_mp(&mut rng)),
                    8 if mps.len() >= 2 => Op::Fuse(pick_mp(&mut rng), pick_mp(&mut rng)),
                    _ => Op::RemoveKf(pick_kf(&mut rng)),
                };
                let mut seeds = LockSeeds::default();
                match &op {
                    Op::InsertKf(x, matched) => {
                        seeds
                            .positions
                            .push(slamshare_math::Vec3::new(*x, 0.0, 0.0));
                        for (_, p) in matched {
                            seeds.kfs.extend(observer(&plain, *p));
                        }
                    }
                    Op::Create(k, _, _) | Op::RemoveKf(k) => seeds.kfs.push(*k),
                    Op::Observe(p, k, _) => {
                        seeds.kfs.push(*k);
                        seeds.kfs.extend(observer(&plain, *p));
                    }
                    Op::RemovePoint(p) => seeds.kfs.extend(observer(&plain, *p)),
                    Op::Fuse(d, s) => {
                        seeds.kfs.extend(observer(&plain, *d));
                        seeds.kfs.extend(observer(&plain, *s));
                    }
                }
                g.with_component_write(&seeds, |m, _| {
                    *m.alloc_mut() = plain.alloc.clone();
                    run(m, &op, step);
                    ((), true)
                });
                run(&mut plain, &op, step);
                assert_eq!(
                    fingerprint(&g.snapshot_map()),
                    fingerprint(&plain),
                    "content diverged at step {step} with {shards} shards"
                );
                if let Err(e) = g.check_invariants() {
                    panic!("step {step} with {shards} shards: {e}");
                }
            }
            assert!(plain.n_keyframes() > 3 && plain.n_mappoints() > 3);
        }
    }

    #[test]
    fn check_invariants_reports_each_violation() {
        let g = gmap(16);
        let (xa, xb) = distinct_offsets(&g);
        let mut alloc = Map::new(ClientId(1));
        let (a, _) = insert_at(&g, &mut alloc, xa, 0.0);
        let (b, _) = insert_at(&g, &mut alloc, xb, 1.0);
        g.check_invariants().unwrap();
        let ra = g.region_of(slamshare_math::Vec3::new(xa, 0.0, 0.0));
        let rb = g.region_of(slamshare_math::Vec3::new(xb, 0.0, 0.0));

        // A point in `a`'s shard observed by `b`, planted behind the
        // write path's back: an edge between regions never unioned.
        let mp = alloc.alloc.next_mappoint();
        g.store.with_write(&[ra], |_, shards| {
            shards[0].mappoints.insert(
                mp,
                slamshare_slam::map::MapPoint {
                    id: mp,
                    position: slamshare_math::Vec3::ZERO,
                    descriptor: Default::default(),
                    normal: slamshare_math::Vec3::Z,
                    observations: vec![(a, 0), (b, 0)],
                    replaced_by: None,
                    created_frame: 0,
                },
            );
            ((), true)
        });
        assert!(matches!(
            g.check_invariants(),
            Err(MapInvariantError::OpenEdge { point, .. }) if point == mp
        ));
        g.dir.lock().graph.union(ra as u32, rb as u32);
        g.check_invariants().unwrap();

        // A directory entry that names another region.
        g.dir.lock().kf_region.insert(b, ra as u32);
        assert!(matches!(
            g.check_invariants(),
            Err(MapInvariantError::MisfiledKeyframe { id, .. }) if id == b
        ));
        g.dir.lock().kf_region.insert(b, rb as u32);

        // The same keyframe resident twice.
        let copy = g.snapshot_map().keyframes[&a].clone();
        g.store.with_write(&[rb], |_, shards| {
            shards[0].keyframes.insert(a, copy);
            ((), true)
        });
        assert!(matches!(
            g.check_invariants(),
            Err(MapInvariantError::DuplicateKeyframe { id, .. }) if id == a
        ));
    }
}
