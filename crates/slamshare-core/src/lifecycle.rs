//! Lifelong-session map lifecycle: pruning, cold-region eviction, and
//! reload-on-demand.
//!
//! A day-long multi-user session grows the global map without bound,
//! but server memory is finite (the paper pre-allocates 2 GB). This
//! module keeps a long-running session's footprint bounded with three
//! mechanisms, all applied under only the affected `core::gmap` region
//! locks. It is a library, not a server thread: whoever owns the frame
//! clock — the [`soak`] harness, the lifecycle bench, a session driver —
//! builds a [`LifecycleManager`] on a map (an `EdgeServer`'s `store`, or
//! a bare [`ShardedGlobalMap`]) and calls [`LifecycleManager::tick`] off
//! the tracking critical path:
//!
//! * **Map-point pruning** — low-observation stale points, orphaned
//!   points, and fused-away tombstones are removed per covisibility
//!   component through the validated component-write path, so keyframe
//!   back-references stay consistent. Ages come from the deterministic
//!   [`Map::frame_clock`]-stamped `created_frame`, never wall clock, so
//!   prune decisions are seed-reproducible and identical at any worker
//!   or shard count.
//! * **Cold-region eviction** — a component whose regions' epochs have
//!   not moved for `evict_after_frames` of virtual time is serialized to
//!   the compact `slamshare-net` region-snapshot form and its shard
//!   emptied ([`crate::gmap::ShardedGlobalMap::evict_component`]).
//! * **Reload-on-demand** — lives in `core::gmap`: any track, commit or
//!   federation delta whose resolved regions include an
//!   [`crate::gmap::EvictedRegion`] stub reloads it transparently before
//!   taking locks, and reloads again if an eviction lands before its
//!   locks are held. Relocalization and merges resolve to every region,
//!   so a merge reloads every evicted region before it plans.
//!
//! The [`soak`] harness at the bottom drives a compressed day-long
//! virtual-time session (churning clients migrating across work areas,
//! then revisiting the first one) against a real sharded map + manager,
//! and is what the CI `soak` stage runs: the map's peak size must stay
//! under budget and the read-back trajectories must be bit-identical to
//! a never-evict run. See DESIGN.md §11 for the state machine and
//! invariants.
//!
//! The manager measures the map rather than charging it: each tick and
//! each report samples [`ShardedGlobalMap::stats`]' byte count and keeps
//! the largest sample. No map write pays for that.

use crate::gmap::{LockSeeds, ShardedGlobalMap};
use serde::Serialize;
use slamshare_slam::map::MapWrite;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Lifecycle policy. All times are in *virtual frames* (the same
/// deterministic clock `Map::frame_clock` advances); `0` disables the
/// corresponding mechanism.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Run the prune pass when at least this many frames passed since
    /// the last one (0 = never prune).
    pub prune_every_frames: u64,
    /// Points observed from fewer keyframes than this are prune
    /// candidates once stale.
    pub prune_min_obs: usize,
    /// A candidate must be at least this many frames old (by
    /// `created_frame`) before pruning — young points are still being
    /// triangulated into more views.
    pub prune_min_age_frames: u64,
    /// Evict a component when none of its regions saw a write for this
    /// many frames (0 = never evict).
    pub evict_after_frames: u64,
}

impl Default for LifecycleConfig {
    fn default() -> LifecycleConfig {
        LifecycleConfig {
            prune_every_frames: 30,
            prune_min_obs: 2,
            prune_min_age_frames: 60,
            evict_after_frames: 180,
        }
    }
}

impl LifecycleConfig {
    /// Maintenance fully disabled: a tick only refreshes the activity
    /// watch.
    pub fn disabled() -> LifecycleConfig {
        LifecycleConfig {
            prune_every_frames: 0,
            prune_min_obs: 0,
            prune_min_age_frames: 0,
            evict_after_frames: 0,
        }
    }

    /// Same pruning policy with eviction turned off — the soak's
    /// never-evict control arm.
    pub fn without_eviction(&self) -> LifecycleConfig {
        LifecycleConfig {
            evict_after_frames: 0,
            ..self.clone()
        }
    }
}

/// Running totals across every tick (relaxed atomics; read via
/// [`LifecycleManager::report`]).
#[derive(Debug, Default)]
struct LifecycleTotals {
    ticks: AtomicU64,
    pruned_points: AtomicU64,
    evicted_regions: AtomicU64,
    evicted_components: AtomicU64,
    serialized_bytes: AtomicU64,
    released_bytes: AtomicU64,
}

/// Serializable snapshot of lifecycle activity plus the map's measured
/// size — the soak stage's evidence.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct LifecycleReport {
    pub ticks: u64,
    pub pruned_points: u64,
    pub evicted_regions: u64,
    pub evicted_components: u64,
    pub serialized_bytes: u64,
    pub released_bytes: u64,
    /// Reloads the map performed on demand (tracks/commits hitting
    /// evicted regions).
    pub reloads: u64,
    /// The map's size when the report was taken
    /// ([`ShardedGlobalMap::stats`]' `approx_bytes`).
    pub map_bytes: u64,
    /// The largest `map_bytes` sampled so far, by a tick (before it
    /// prunes or evicts) or a report. Between ticks the map only grows
    /// (writes, reloads) and it shrinks only inside a tick (prune,
    /// evict), after that tick's sample, so the sampled peak is the
    /// real peak as of the last sample.
    pub map_bytes_high_water: u64,
    /// Regions currently evicted.
    pub evicted_now: u64,
}

/// What one [`LifecycleManager::tick`] did.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct TickReport {
    pub now_frame: u64,
    pub pruned_points: u64,
    pub evicted_regions: u64,
    pub evicted_components: u64,
    pub released_bytes: u64,
}

/// Per-region activity watch: epoch-change detection against a
/// deterministic frame clock, so coldness never depends on wall time.
struct Watch {
    last_epoch: Vec<u64>,
    last_active_frame: Vec<u64>,
    last_prune_frame: u64,
}

/// The maintenance driver for one [`ShardedGlobalMap`]. Owns no thread:
/// whoever owns the frame clock calls [`LifecycleManager::tick`] with the
/// current virtual frame, from any thread — ticks race live tracks,
/// commits and merges safely.
pub struct LifecycleManager {
    gmap: Arc<ShardedGlobalMap>,
    cfg: LifecycleConfig,
    watch: parking_lot::Mutex<Watch>,
    totals: LifecycleTotals,
    /// Largest map size sampled ([`LifecycleReport::map_bytes_high_water`]).
    high_water: AtomicU64,
}

impl LifecycleManager {
    pub fn new(gmap: Arc<ShardedGlobalMap>, cfg: LifecycleConfig) -> LifecycleManager {
        let n = gmap.n_shards();
        LifecycleManager {
            gmap,
            cfg,
            watch: parking_lot::Mutex::new(Watch {
                last_epoch: vec![0; n],
                last_active_frame: vec![0; n],
                last_prune_frame: 0,
            }),
            totals: LifecycleTotals::default(),
            high_water: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// One maintenance pass at virtual frame `now_frame`: sample the
    /// map's size, refresh the activity watch, prune if the cadence is
    /// due, evict components that went cold. Runs off the critical path;
    /// every map access goes through the validated locking paths of
    /// `core::gmap`.
    pub fn tick(&self, now_frame: u64) -> TickReport {
        let mut report = TickReport {
            now_frame,
            ..TickReport::default()
        };
        self.totals.ticks.fetch_add(1, Ordering::Relaxed);
        // Before pruning and evicting: those are the only shrinks, so
        // this sample sees the peak the map reached since the last tick.
        let bytes = self.sample_map_bytes();
        slamshare_obs::gauge_set!("lifecycle.map_bytes", bytes);

        // 1. Activity scan: an epoch that moved since the last tick means
        // a writer touched the region.
        {
            let mut w = self.watch.lock();
            let epochs = self.gmap.region_epochs();
            for (r, &e) in epochs.iter().enumerate() {
                if w.last_epoch.get(r).copied() != Some(e) {
                    w.last_active_frame[r] = now_frame;
                    w.last_epoch[r] = e;
                }
            }
        }

        // 2. Prune, component by component.
        let prune_due = self.cfg.prune_every_frames > 0 && {
            let w = self.watch.lock();
            now_frame.saturating_sub(w.last_prune_frame) >= self.cfg.prune_every_frames
        };
        if prune_due {
            report.pruned_points = self.prune(now_frame);
            self.watch.lock().last_prune_frame = now_frame;
            // Our own prune writes bumped epochs; absorb them so
            // maintenance never counts as client activity.
            self.absorb_own_epochs();
        }

        // 3. Evict cold components.
        if self.cfg.evict_after_frames > 0 {
            let (regions, components, released, serialized) = self.evict_cold(now_frame);
            report.evicted_regions = regions;
            report.evicted_components = components;
            report.released_bytes = released;
            self.totals
                .evicted_regions
                .fetch_add(regions, Ordering::Relaxed);
            self.totals
                .evicted_components
                .fetch_add(components, Ordering::Relaxed);
            self.totals
                .released_bytes
                .fetch_add(released, Ordering::Relaxed);
            self.totals
                .serialized_bytes
                .fetch_add(serialized, Ordering::Relaxed);
            if regions > 0 {
                self.absorb_own_epochs();
            }
        }

        report
    }

    /// The map's size now, folded into the high-water mark.
    fn sample_map_bytes(&self) -> u64 {
        let bytes = self.gmap.stats().2 as u64;
        self.high_water.fetch_max(bytes, Ordering::Relaxed);
        bytes
    }

    /// Re-read epochs into the watch without refreshing activity stamps
    /// (maintenance's own writes are not client activity).
    fn absorb_own_epochs(&self) {
        let epochs = self.gmap.region_epochs();
        let mut w = self.watch.lock();
        for (r, &e) in epochs.iter().enumerate() {
            if let Some(slot) = w.last_epoch.get_mut(r) {
                *slot = e;
            }
        }
    }

    /// Remove fused-away tombstones, orphaned points, and stale
    /// low-observation points. Per-point criteria depend only on the
    /// point itself and `now_frame`, so the pruned set is identical at
    /// any worker or shard count.
    fn prune(&self, now_frame: u64) -> u64 {
        let _span = slamshare_obs::span!("lifecycle.prune");
        let mut pruned = 0u64;
        for component in self.gmap.components() {
            // Seed through a resident keyframe so the validated
            // component-write path locks the *current* component (it may
            // have grown since `components()` snapshotted it). Fully
            // evicted or empty components have nothing to prune — and
            // skipping them is what keeps pruning from paying a reload.
            let Some(seed) = component
                .iter()
                .find_map(|&r| self.gmap.first_keyframe_in(r))
            else {
                continue;
            };
            let seeds = LockSeeds {
                kfs: vec![seed],
                ..LockSeeds::default()
            };
            let (n, _) = self.gmap.with_component_write(&seeds, |map, _| {
                let doomed: Vec<_> = map
                    .mappoints_iter()
                    .filter(|mp| {
                        mp.replaced_by.is_some()
                            || mp.observations.is_empty()
                            || (mp.observations.len() < self.cfg.prune_min_obs
                                && now_frame.saturating_sub(mp.created_frame)
                                    > self.cfg.prune_min_age_frames)
                    })
                    .map(|mp| mp.id)
                    .collect();
                let n = doomed.len() as u64;
                for id in doomed {
                    map.remove_mappoint(id);
                }
                (n, n > 0)
            });
            pruned += n;
        }
        if pruned > 0 {
            self.totals
                .pruned_points
                .fetch_add(pruned, Ordering::Relaxed);
            slamshare_obs::counter_add!("lifecycle.pruned_points", pruned);
        }
        pruned
    }

    /// Evict every component whose regions all sat idle past the
    /// threshold. Returns `(regions, components, released_bytes,
    /// serialized_bytes)`.
    fn evict_cold(&self, now_frame: u64) -> (u64, u64, u64, u64) {
        let _span = slamshare_obs::span!("lifecycle.evict");
        let already: std::collections::BTreeSet<usize> =
            self.gmap.evicted_regions().into_iter().collect();
        let cold_seeds: Vec<usize> = {
            let w = self.watch.lock();
            self.gmap
                .components()
                .into_iter()
                .filter(|comp| {
                    comp.iter().all(|&r| {
                        now_frame.saturating_sub(w.last_active_frame.get(r).copied().unwrap_or(0))
                            >= self.cfg.evict_after_frames
                    }) && comp.iter().any(|r| !already.contains(r))
                })
                .filter_map(|comp| comp.first().copied())
                .collect()
        };
        let (mut regions, mut components, mut released, mut serialized) = (0, 0, 0, 0);
        for seed in cold_seeds {
            let receipt = self.gmap.evict_component(seed, now_frame);
            if receipt.regions.is_empty() {
                continue;
            }
            regions += receipt.regions.len() as u64;
            components += 1;
            released += receipt.released_bytes as u64;
            serialized += receipt.serialized_bytes as u64;
            slamshare_obs::counter_add!("lifecycle.evicted_regions", receipt.regions.len() as u64);
        }
        (regions, components, released, serialized)
    }

    /// Current totals plus the map's live size and residency state.
    pub fn report(&self) -> LifecycleReport {
        let map_bytes = self.sample_map_bytes();
        let (evicted_now, _) = self.gmap.evicted_stats();
        LifecycleReport {
            ticks: self.totals.ticks.load(Ordering::Relaxed),
            pruned_points: self.totals.pruned_points.load(Ordering::Relaxed),
            evicted_regions: self.totals.evicted_regions.load(Ordering::Relaxed),
            evicted_components: self.totals.evicted_components.load(Ordering::Relaxed),
            serialized_bytes: self.totals.serialized_bytes.load(Ordering::Relaxed),
            released_bytes: self.totals.released_bytes.load(Ordering::Relaxed),
            reloads: self.gmap.reload_count(),
            map_bytes,
            map_bytes_high_water: self.high_water.load(Ordering::Relaxed),
            evicted_now: evicted_now as u64,
        }
    }
}

pub mod soak {
    //! The compressed day-long virtual-time soak scenario.
    //!
    //! Deterministic synthetic clients migrate through `areas` distinct
    //! work areas over a virtual day (one step ≈ one virtual minute),
    //! inserting keyframes + map points into a real [`ShardedGlobalMap`]
    //! through the component-write path while a [`LifecycleManager`]
    //! ticks on a cadence. In the revisit tail every surviving client
    //! returns to its first area — by then evicted — so the track seeded
    //! by its remembered first keyframe forces a reload and
    //! "relocalizes" against previously evicted content. Everything the
    //! run records is read **back from the map**, so the bit-identity
    //! comparison against a never-evict run proves eviction + reload is
    //! content-transparent, not merely that inputs were equal.

    use super::*;
    use crate::load::mix;
    use slamshare_features::{Descriptor, KeyPoint};
    use slamshare_math::{Vec2, Vec3, SE3};
    use slamshare_slam::ids::{ClientId, IdAllocator, KeyFrameId};
    use slamshare_slam::map::{KeyFrame, MapPoint, MapRead};
    use std::collections::BTreeMap;

    /// Soak scenario shape. Defaults model a compressed day: 1440 steps
    /// (one per virtual minute) across 6 work areas with a revisit tail.
    #[derive(Debug, Clone)]
    pub struct SoakConfig {
        pub seed: u64,
        pub n_clients: usize,
        /// Virtual minutes in the day.
        pub n_steps: usize,
        /// Distinct work areas the population migrates through.
        pub areas: usize,
        /// Map points created per keyframe.
        pub points_per_kf: usize,
        pub shards: usize,
        pub cell_m: f64,
        /// Maintenance cadence in steps.
        pub tick_every_steps: usize,
        /// Final steps spent back in area 0 (the re-entry phase).
        pub revisit_tail_steps: usize,
        pub lifecycle: LifecycleConfig,
    }

    impl SoakConfig {
        /// The CI soak: compressed day, churning clients, revisit tail.
        pub fn day(seed: u64) -> SoakConfig {
            SoakConfig {
                seed,
                n_clients: 6,
                n_steps: 1440,
                areas: 6,
                points_per_kf: 6,
                shards: 16,
                cell_m: 10.0,
                tick_every_steps: 10,
                revisit_tail_steps: 120,
                lifecycle: LifecycleConfig {
                    prune_every_frames: 30,
                    prune_min_obs: 2,
                    prune_min_age_frames: 60,
                    evict_after_frames: 180,
                },
            }
        }

        /// A small fast variant for unit/integration tests.
        pub fn smoke(seed: u64) -> SoakConfig {
            SoakConfig {
                n_clients: 3,
                n_steps: 240,
                areas: 3,
                revisit_tail_steps: 40,
                tick_every_steps: 5,
                lifecycle: LifecycleConfig {
                    prune_every_frames: 10,
                    prune_min_obs: 2,
                    prune_min_age_frames: 20,
                    evict_after_frames: 40,
                },
                ..SoakConfig::day(seed)
            }
        }
    }

    /// Everything a soak run produced. `trajectories` and `map_digest`
    /// are read back from the map, so two runs agreeing here agree on
    /// every byte of content the session can observe.
    #[derive(Debug, Clone, Serialize, PartialEq, Eq)]
    pub struct SoakOutcome {
        /// Per-client `(step, timestamp_bits, center_xyz_bits)` of the
        /// keyframe read back from the map right after insertion, plus
        /// the relocalization read-backs in the revisit tail.
        pub trajectories: BTreeMap<u16, Vec<(u64, u64, [u64; 3])>>,
        /// FNV-1a digest of the final map content (keyframes, points,
        /// observations, ages), with still-evicted payloads decoded
        /// outside the map and folded in.
        pub map_digest: u64,
        /// Relocalizations performed in the revisit tail.
        pub relocs: u64,
        /// Relocalizations that required reloading an evicted region.
        pub relocs_after_reload: u64,
        pub lifecycle: LifecycleReport,
    }

    fn fnv(h: u64, x: u64) -> u64 {
        (h ^ x).wrapping_mul(0x100_0000_01b3)
    }

    /// Digest the whole map deterministically (BTreeMap order).
    fn digest_map(map: &slamshare_slam::map::Map) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (id, kf) in &map.keyframes {
            h = fnv(h, id.0);
            h = fnv(h, kf.timestamp.to_bits());
            let c = kf.pose_cw.camera_center();
            h = fnv(h, c.x.to_bits());
            h = fnv(h, c.y.to_bits());
            h = fnv(h, c.z.to_bits());
            for m in &kf.matched_points {
                h = fnv(h, m.map_or(u64::MAX, |p| p.0));
            }
        }
        for (id, mp) in &map.mappoints {
            h = fnv(h, id.0);
            h = fnv(h, mp.position.x.to_bits());
            h = fnv(h, mp.position.y.to_bits());
            h = fnv(h, mp.position.z.to_bits());
            h = fnv(h, mp.created_frame);
            for (kf, idx) in &mp.observations {
                h = fnv(h, kf.0);
                h = fnv(h, *idx as u64);
            }
        }
        h
    }

    /// Pick grid cells for the work areas such that every area's cells
    /// land in **distinct regions**: the hash assigner can collide
    /// arbitrary cells onto one region, and a region shared between a
    /// departed area and an active one would keep the departed
    /// component hot forever. Each area gets two cells (clients split
    /// between them, unioned by a shared map point) so eviction of
    /// multi-region components is exercised. Returns the cells' min-x
    /// coordinates; purely a function of the map geometry, never the
    /// seed.
    fn probe_area_cells(cfg: &SoakConfig, gmap: &ShardedGlobalMap) -> Vec<[f64; 2]> {
        let mut cells: Vec<f64> = Vec::with_capacity(cfg.areas * 2);
        let mut used = std::collections::BTreeSet::new();
        let mut j = 0u64;
        // Probe consecutive cells: the assigner hashes quantized cell
        // coordinates, so striding by many cells at once can walk a
        // degenerate low-bit cycle that visits only a fraction of the
        // regions.
        while cells.len() < cfg.areas * 2 && j < 100_000 {
            let x = j as f64 * cfg.cell_m;
            let probe = Vec3::new(x + cfg.cell_m * 0.5, cfg.cell_m * 0.25, cfg.cell_m * 0.5);
            if used.insert(gmap.region_of(probe)) {
                cells.push(x);
            }
            j += 1;
        }
        // Pair the probed cells up; if the map has too few regions to
        // keep every area distinct (tiny shard counts), reuse the last
        // cell — the soak degrades to fewer separable areas but stays
        // deterministic.
        (0..cfg.areas)
            .map(|a| {
                let first = cells.get(a * 2).copied().unwrap_or(0.0);
                let second = cells.get(a * 2 + 1).copied().unwrap_or(first);
                [first, second]
            })
            .collect()
    }

    /// Deterministic per-client per-step world position: somewhere
    /// strictly inside the client's current area cell (client parity
    /// picks which of the area's two cells), jittered
    /// order-independently from `(seed, client, step)`. Staying inside
    /// the cell is what guarantees the position's region is the probed
    /// one.
    fn client_pos(cfg: &SoakConfig, cell_x: f64, client: usize, step: usize) -> Vec3 {
        let r1 = mix(cfg.seed, ((client as u64) << 32) | step as u64);
        let r2 = mix(cfg.seed ^ 0xA5A5, ((client as u64) << 32) | step as u64);
        let unit = |r: u64| (r % 1000) as f64 / 1000.0;
        Vec3::new(
            cell_x + cfg.cell_m * (0.25 + 0.5 * unit(r1)),
            cfg.cell_m * 0.25,
            cfg.cell_m * (0.25 + 0.5 * unit(r2)),
        )
    }

    /// Client churn: each client is active in a deterministic window of
    /// the day (early leavers rejoin for the revisit tail).
    fn active(cfg: &SoakConfig, client: usize, step: usize) -> bool {
        let span = mix(cfg.seed ^ 0x5EED, client as u64) as usize;
        let leave = cfg.n_steps * (60 + span % 40) / 100; // leaves at 60–99 % of the day
        step < leave || step >= cfg.n_steps.saturating_sub(cfg.revisit_tail_steps)
    }

    /// Run the scenario. Single-threaded and fully deterministic: the
    /// only inputs are `cfg` (including its seed).
    pub fn run(cfg: &SoakConfig) -> SoakOutcome {
        run_observed(cfg, |_| {})
    }

    /// [`run`], handing the map to `after_step` after every step of the
    /// day: every active client's write, then the maintenance tick (the
    /// smoke gate checks the map's invariants there).
    pub fn run_observed(
        cfg: &SoakConfig,
        mut after_step: impl FnMut(&ShardedGlobalMap),
    ) -> SoakOutcome {
        let gmap = ShardedGlobalMap::new(cfg.shards, cfg.cell_m);
        let manager = LifecycleManager::new(gmap.clone(), cfg.lifecycle.clone());
        let area_cells = probe_area_cells(cfg, &gmap);

        let mut allocs: Vec<IdAllocator> = (0..cfg.n_clients)
            .map(|c| IdAllocator::new(ClientId(c as u16 + 1)))
            .collect();
        let mut first_area_kf: Vec<Option<KeyFrameId>> = vec![None; cfg.n_clients];
        let mut trajectories: BTreeMap<u16, Vec<(u64, u64, [u64; 3])>> = BTreeMap::new();
        let mut relocs = 0u64;
        let mut relocs_after_reload = 0u64;

        let main_steps = cfg.n_steps.saturating_sub(cfg.revisit_tail_steps).max(1);
        for step in 0..cfg.n_steps {
            let in_tail = step >= cfg.n_steps.saturating_sub(cfg.revisit_tail_steps);
            let area = if in_tail {
                0
            } else {
                (step * cfg.areas.max(1) / main_steps).min(cfg.areas.saturating_sub(1))
            };
            for client in 0..cfg.n_clients {
                if !active(cfg, client, step) {
                    continue;
                }
                // Re-entry: the first revisit step relocalizes against the
                // client's remembered first-area keyframe before mapping —
                // the track seeded by it reloads that region on demand.
                if in_tail && step == cfg.n_steps - cfg.revisit_tail_steps {
                    if let Some(anchor) = first_area_kf[client] {
                        let reloads_before = gmap.reload_count();
                        let hit = gmap.with_track_read(Some(anchor), |v, _| {
                            v.keyframe(anchor).map(|kf| {
                                let c = kf.pose_cw.camera_center();
                                (
                                    kf.timestamp.to_bits(),
                                    [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()],
                                )
                            })
                        });
                        if let Some((ts, center)) = hit {
                            relocs += 1;
                            if gmap.reload_count() > reloads_before {
                                relocs_after_reload += 1;
                            }
                            trajectories.entry(client as u16 + 1).or_default().push((
                                step as u64,
                                ts,
                                center,
                            ));
                        }
                    }
                }

                let [cell_a, cell_b] = area_cells.get(area).copied().unwrap_or([0.0; 2]);
                let own_cell = if client % 2 == 0 { cell_a } else { cell_b };
                let sibling = if client % 2 == 0 { cell_b } else { cell_a };
                let pos = client_pos(cfg, own_cell, client, step);
                // The last map point lands in the area's sibling cell:
                // its observation edge unions the two regions into one
                // component, so eviction is exercised at component (not
                // single-region) granularity.
                let far_pt = Vec3::new(
                    sibling + cfg.cell_m * 0.5,
                    cfg.cell_m * 0.25,
                    cfg.cell_m * 0.5,
                );
                let seeds = LockSeeds {
                    positions: vec![pos, far_pt],
                    ..LockSeeds::default()
                };
                let alloc = &mut allocs[client];
                let kf_id = alloc.next_keyframe();
                let timestamp = step as f64 * 60.0 + client as f64;
                let n_pts = cfg.points_per_kf;
                let (readback, _) = gmap.with_component_write(&seeds, |map, _| {
                    map.advance_frame_clock(step as u64);
                    let mut keypoints = Vec::with_capacity(n_pts);
                    let mut descriptors = Vec::with_capacity(n_pts);
                    let mut matched = Vec::with_capacity(n_pts);
                    for i in 0..n_pts {
                        keypoints.push(KeyPoint {
                            pt: Vec2::new(i as f64 * 10.0, 5.0),
                            octave: 0,
                            angle: 0.0,
                            response: 1.0,
                            right_x: -1.0,
                            depth: 2.0,
                        });
                        descriptors.push(Descriptor::ZERO);
                        matched.push(None);
                    }
                    map.insert_keyframe(KeyFrame {
                        id: kf_id,
                        pose_cw: SE3::from_translation(Vec3::new(-pos.x, -pos.y, -pos.z)),
                        timestamp,
                        keypoints,
                        descriptors,
                        matched_points: matched,
                        bow: Default::default(),
                    });
                    // Point ages stamp the deterministic frame clock; a
                    // fraction are singles the prune pass later removes.
                    let stamp = map.frame_clock();
                    for i in 0..n_pts {
                        let mp_id = alloc.next_mappoint();
                        let pt_pos = if i + 1 == n_pts {
                            far_pt
                        } else {
                            // In-cell micro-offsets keep every other point
                            // in the keyframe's own region.
                            pos + Vec3::new(0.0, 0.01 * (1.0 + i as f64), 0.0)
                        };
                        map.put_mappoint(MapPoint {
                            id: mp_id,
                            position: pt_pos,
                            descriptor: Descriptor::ZERO,
                            normal: Vec3::Z,
                            observations: vec![(kf_id, i)],
                            replaced_by: None,
                            created_frame: stamp,
                        });
                        if let Some(kf) = map.keyframe_mut(kf_id) {
                            kf.matched_points[i] = Some(mp_id);
                        }
                    }
                    // Read the insertion back out of the map — the value
                    // the bit-identity comparison pins.
                    let rb = map.keyframe(kf_id).map(|kf| {
                        let c = kf.pose_cw.camera_center();
                        (
                            kf.timestamp.to_bits(),
                            [c.x.to_bits(), c.y.to_bits(), c.z.to_bits()],
                        )
                    });
                    (rb, true)
                });
                if let Some((ts, center)) = readback {
                    trajectories.entry(client as u16 + 1).or_default().push((
                        step as u64,
                        ts,
                        center,
                    ));
                }
                if area == 0 && first_area_kf[client].is_none() {
                    first_area_kf[client] = Some(kf_id);
                }
            }
            if cfg.tick_every_steps > 0 && step % cfg.tick_every_steps == 0 {
                manager.tick(step as u64);
            }
            after_step(&gmap);
        }

        // Terminal comparison pass. The report comes first so it keeps
        // the end-of-day residency state; the digest then folds in the
        // still-evicted payloads by decoding them *outside* the map —
        // reloading them back in would grow the map to the never-evict
        // size and erase the very bound the soak proves.
        let lifecycle = manager.report();
        let mut final_map = gmap.snapshot_map();
        for region in gmap.evicted_regions() {
            if let Some(stub) = gmap.take_evicted(region) {
                if let Ok(snap) = slamshare_net::fed::decode_region_snapshot(&stub.payload) {
                    let mut fragment = snap.fragment;
                    final_map.keyframes.append(&mut fragment.keyframes);
                    final_map.mappoints.append(&mut fragment.mappoints);
                }
            }
        }
        SoakOutcome {
            trajectories,
            map_digest: digest_map(&final_map),
            relocs,
            relocs_after_reload,
            lifecycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_never_acts() {
        let g = ShardedGlobalMap::new(8, 10.0);
        let m = LifecycleManager::new(g, LifecycleConfig::disabled());
        let r = m.tick(10_000);
        assert_eq!(r.pruned_points, 0);
        assert_eq!(r.evicted_regions, 0);
        assert_eq!(m.report().ticks, 1);
    }

    #[test]
    fn smoke_soak_bounds_map_bytes_and_matches_never_evict() {
        let cfg = soak::SoakConfig::smoke(7);
        let evict = soak::run(&cfg);
        assert!(evict.lifecycle.evicted_regions > 0, "nothing ever evicted");
        assert!(evict.lifecycle.reloads > 0, "nothing ever reloaded");
        assert!(evict.relocs > 0, "no revisit relocalization happened");
        assert!(
            evict.relocs_after_reload > 0,
            "revisit never hit an evicted region: {:?}",
            evict.lifecycle
        );

        let mut never_cfg = cfg.clone();
        never_cfg.lifecycle = cfg.lifecycle.without_eviction();
        let never = soak::run(&never_cfg);
        assert_eq!(never.lifecycle.evicted_regions, 0);
        assert_eq!(
            evict.trajectories, never.trajectories,
            "eviction changed an observable trajectory"
        );
        assert_eq!(
            evict.map_digest, never.map_digest,
            "eviction changed final map content"
        );
        // Eviction keeps the working set strictly below the never-evict
        // peak.
        assert!(
            evict.lifecycle.map_bytes_high_water < never.lifecycle.map_bytes_high_water,
            "eviction did not reduce the peak map size: {} vs {}",
            evict.lifecycle.map_bytes_high_water,
            never.lifecycle.map_bytes_high_water
        );
    }

    #[test]
    fn high_water_covers_every_step_of_the_soak() {
        // Sampling only at ticks and reports still sees the peak: the
        // map shrinks only inside a tick, after that tick's sample.
        let cfg = soak::SoakConfig::smoke(7);
        let mut seen = Vec::new();
        let out = soak::run_observed(&cfg, |g| seen.push(g.stats().2 as u64));
        assert_eq!(seen.len(), cfg.n_steps);
        let peak = seen.iter().copied().max().unwrap_or(0);
        assert!(peak > 0);
        assert!(
            out.lifecycle.map_bytes_high_water >= peak,
            "sampled high water {} below a step's size {peak}",
            out.lifecycle.map_bytes_high_water
        );
        assert_eq!(out.lifecycle.map_bytes, *seen.last().unwrap_or(&0));
    }

    #[test]
    fn prune_removes_stale_singles_deterministically() {
        let cfg = soak::SoakConfig::smoke(3);
        let a = soak::run(&cfg);
        let b = soak::run(&cfg);
        assert!(a.lifecycle.pruned_points > 0, "prune never fired");
        assert_eq!(a.lifecycle.pruned_points, b.lifecycle.pruned_points);
        assert_eq!(a.map_digest, b.map_digest);
        assert_eq!(a, b, "soak run is not deterministic");
    }
}
