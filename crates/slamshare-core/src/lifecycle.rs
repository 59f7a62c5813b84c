//! Lifelong-session map lifecycle: pruning, cold-region eviction, and
//! reload-on-demand.
//!
//! A day-long multi-user session grows the global map without bound,
//! but server memory is finite (the paper pre-allocates 2 GB). This
//! module keeps a long-running session's footprint bounded with three
//! mechanisms, all applied under only the affected `core::gmap` region
//! locks. It is a library, not a server thread: whoever owns the frame
//! clock — the soak harness, the lifecycle bench, a session driver —
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
//! The soak harness (`bench::soak`) drives a compressed day-long
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
}
