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

use crate::load::mix;
use serde::Serialize;
use slamshare_core::gmap::{LockSeeds, ShardedGlobalMap};
use slamshare_core::lifecycle::{LifecycleConfig, LifecycleManager, LifecycleReport};
use slamshare_features::{Descriptor, KeyPoint};
use slamshare_math::{Vec2, Vec3, SE3};
use slamshare_slam::ids::{ClientId, IdAllocator, KeyFrameId};
use slamshare_slam::map::{KeyFrame, MapPoint, MapRead, MapWrite};
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
                trajectories
                    .entry(client as u16 + 1)
                    .or_default()
                    .push((step as u64, ts, center));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_soak_bounds_map_bytes_and_matches_never_evict() {
        let cfg = SoakConfig::smoke(7);
        let evict = run(&cfg);
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
        let never = run(&never_cfg);
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
        let cfg = SoakConfig::smoke(7);
        let mut seen = Vec::new();
        let out = run_observed(&cfg, |g| seen.push(g.stats().2 as u64));
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
        let cfg = SoakConfig::smoke(3);
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.lifecycle.pruned_points > 0, "prune never fired");
        assert_eq!(a.lifecycle.pruned_points, b.lifecycle.pruned_points);
        assert_eq!(a.map_digest, b.map_digest);
        assert_eq!(a, b, "soak run is not deterministic");
    }
}
