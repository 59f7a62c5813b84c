//! Lifelong-session map lifecycle, tested end to end (DESIGN.md §11):
//!
//! * **worker/shard invariance** — the final map content after a full
//!   prune → evict → reload cycle is bit-identical whether the content
//!   was inserted by 1, 2, or 4 concurrent writers into 1 or 16 shards
//!   (golden digests compared across all six configurations);
//! * **reload equivalence** — the compressed-day soak with eviction on
//!   produces byte-identical trajectories and map digest to a
//!   never-evict control run, while peaking strictly lower in map bytes;
//! * **delta-to-evicted race** — a federation delta targeting an evicted
//!   region transparently reloads it before applying (the "reload" arm
//!   of reload-or-queue), at the public `EdgeServer` surface, with the
//!   test ticking a `LifecycleManager` on the server's store as the owner
//!   of the frame clock;
//! * **evict-during-handoff race** — maintenance ticks racing live
//!   writes (evict firing between a region going cold and the next
//!   delta landing in it) never lose content and never deadlock;
//! * **residency under eviction** — an eviction landing between a track
//!   read's or component write's reload and its shard locks sends the
//!   call back to reload; it never runs on the emptied shard;
//! * **ownership transfer** — an evicted region's compact stub moves to
//!   a new owner byte-for-byte; the destination reloads it on first
//!   touch, and a second transfer of the same region is refused.
//!
//! Seed-swept via `SLAMSHARE_TEST_SEED` (scripts/retest.sh).

use slam_share::core::federation::{Federation, ServerId};
use slam_share::core::gmap::{LockSeeds, ShardedGlobalMap};
use slam_share::core::lifecycle::{soak, LifecycleConfig, LifecycleManager};
use slam_share::core::server::ServerConfig;
use slam_share::features::{Descriptor, KeyPoint};
use slam_share::math::{Vec2, Vec3, SE3};
use slam_share::net::link::LinkConfig;
use slam_share::sim::camera::StereoRig;
use slam_share::sim::SimTime;
use slam_share::slam::ids::{ClientId, IdAllocator, KeyFrameId};
use slam_share::slam::map::{KeyFrame, Map, MapPoint, MapRead, MapWrite};
use slam_share::slam::vocabulary;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn seed() -> u64 {
    std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content digest over a snapshot: ids, poses, timestamps, point
/// positions, ages and observation edges, in `BTreeMap` order. Matches
/// what the soak digests, so it sees everything a client can read back.
fn digest_map(map: &Map) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, kf) in &map.keyframes {
        h = fnv(h, id.0);
        h = fnv(h, kf.timestamp.to_bits());
        let c = kf.pose_cw.camera_center();
        h = fnv(h, c.x.to_bits());
        h = fnv(h, c.y.to_bits());
        h = fnv(h, c.z.to_bits());
        h = fnv(h, kf.matched_points.iter().flatten().count() as u64);
    }
    for (id, mp) in &map.mappoints {
        h = fnv(h, id.0);
        h = fnv(h, mp.position.x.to_bits());
        h = fnv(h, mp.position.y.to_bits());
        h = fnv(h, mp.position.z.to_bits());
        h = fnv(h, mp.created_frame);
        h = fnv(h, mp.observations.len() as u64);
    }
    h
}

// ---------------------------------------------------------------------
// Worker × shard determinism
// ---------------------------------------------------------------------

const N_CLIENTS: usize = 4;
const PHASE_STEPS: usize = 24;

/// One client's keyframe + points at `step` into the ~10 m grid cell at
/// world x-offset `cell_x`. One point is a single-observation "stale
/// single" the prune pass must remove once aged; one carries two
/// observation slots and survives. Content depends only on
/// (client, step, seed) — never on scheduling.
fn insert_step(
    gmap: &ShardedGlobalMap,
    alloc: &mut IdAllocator,
    cell_x: f64,
    client: usize,
    step: usize,
    frame: u64,
) -> KeyFrameId {
    let u = ((seed() ^ (client as u64) << 32 ^ step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        >> 40) as f64
        / (1u64 << 24) as f64;
    let pos = Vec3::new(cell_x + 2.5 + 5.0 * u, 2.5, 2.5);
    let seeds = LockSeeds {
        positions: vec![pos],
        ..LockSeeds::default()
    };
    let kf_id = alloc.next_keyframe();
    let mp_single = alloc.next_mappoint();
    let mp_kept = alloc.next_mappoint();
    let timestamp = step as f64 * 60.0 + client as f64;
    gmap.with_component_write(&seeds, |map, _| {
        map.advance_frame_clock(frame);
        map.insert_keyframe(KeyFrame {
            id: kf_id,
            pose_cw: SE3::from_translation(Vec3::new(-pos.x, -pos.y, -pos.z)),
            timestamp,
            keypoints: (0..2)
                .map(|i| KeyPoint {
                    pt: Vec2::new(i as f64 * 10.0, 5.0),
                    octave: 0,
                    angle: 0.0,
                    response: 1.0,
                    right_x: -1.0,
                    depth: 2.0,
                })
                .collect(),
            descriptors: vec![Descriptor::ZERO; 2],
            matched_points: vec![Some(mp_single), Some(mp_kept)],
            bow: Default::default(),
        });
        let stamp = map.frame_clock();
        for (i, (mp_id, n_obs)) in [(mp_single, 1usize), (mp_kept, 2usize)].iter().enumerate() {
            map.put_mappoint(MapPoint {
                id: *mp_id,
                position: pos + Vec3::new(0.0, 0.01 * (1.0 + i as f64), 0.0),
                descriptor: Descriptor::ZERO,
                normal: Vec3::Z,
                observations: (0..*n_obs).map(|slot| (kf_id, slot)).collect(),
                replaced_by: None,
                created_frame: stamp,
            });
        }
        ((), true)
    });
    kf_id
}

/// Drive two phases of multi-writer insertion with maintenance ticks at
/// deterministic sync points between them, force reloads by reading the
/// first phase back, and digest the fully-resident final content.
fn run_maintained(workers: usize, shards: usize) -> (u64, u64, u64, u64) {
    let gmap = ShardedGlobalMap::new(shards, 10.0);
    let manager = LifecycleManager::new(
        gmap.clone(),
        LifecycleConfig {
            prune_every_frames: 10,
            prune_min_obs: 2,
            prune_min_age_frames: 20,
            evict_after_frames: 40,
        },
    );
    let mut allocs: Vec<Option<IdAllocator>> = (0..N_CLIENTS)
        .map(|c| Some(IdAllocator::new(ClientId(c as u16 + 1))))
        .collect();
    let mut first_kf: Vec<Option<KeyFrameId>> = vec![None; N_CLIENTS];

    // Phase A (frames 0..24, cells 0..4) then, after the cold window,
    // phase B (frames 100.., cells 8..12) while A's components get
    // evicted. Each worker thread owns a disjoint slice of clients, so
    // only the scheduling — never the content — varies with `workers`.
    for (phase, (cell_base, frame_base)) in [(0.0f64, 0u64), (80.0, 100)].iter().enumerate() {
        let mut slots: Vec<(usize, IdAllocator)> = allocs
            .iter_mut()
            .enumerate()
            .map(|(c, a)| (c, a.take().expect("alloc slot")))
            .collect();
        let firsts = std::thread::scope(|s| {
            let handles: Vec<_> = slots
                .chunks_mut(N_CLIENTS.div_ceil(workers))
                .map(|chunk| {
                    let gmap = &gmap;
                    s.spawn(move || {
                        let mut firsts = Vec::new();
                        for (client, alloc) in chunk.iter_mut() {
                            for step in 0..PHASE_STEPS {
                                let kf = insert_step(
                                    gmap,
                                    alloc,
                                    cell_base + *client as f64 * 10.0,
                                    *client,
                                    step,
                                    frame_base + step as u64,
                                );
                                if step == 0 {
                                    firsts.push((*client, kf));
                                }
                            }
                        }
                        firsts
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker"))
                .collect::<Vec<_>>()
        });
        for (client, alloc) in slots {
            allocs[client] = Some(alloc);
        }
        if phase == 0 {
            for (client, kf) in firsts {
                first_kf[client] = Some(kf);
            }
            // Ticks 30..=90: prune ages out phase-A singles, then the
            // cold window (evict_after 40) elapses and A is evicted.
            for t in 3..=9 {
                manager.tick(t * 10);
            }
        }
    }
    for t in 13..=17 {
        manager.tick(t * 10);
    }
    // Re-entry: reading each client's first keyframe reloads whatever
    // of phase A is still evicted.
    let mut readbacks = 0u64;
    for kf in first_kf.iter().flatten() {
        let hit = gmap.with_track_read(Some(*kf), |v, _| v.keyframe(*kf).is_some());
        assert!(hit, "first-phase keyframe lost across evict/reload");
        readbacks += 1;
    }
    gmap.ensure_all_resident();
    let report = manager.report();
    let digest = digest_map(&gmap.snapshot_map());
    (
        digest,
        report.pruned_points,
        report.evicted_regions,
        readbacks,
    )
}

#[test]
fn maintained_digest_is_worker_and_shard_invariant() {
    let mut goldens: Vec<(usize, usize, u64, u64)> = Vec::new();
    for shards in [1usize, 16] {
        for workers in [1usize, 2, 4] {
            let (digest, pruned, evicted, readbacks) = run_maintained(workers, shards);
            assert!(pruned > 0, "{workers}w/{shards}s: prune never fired");
            assert_eq!(readbacks as usize, N_CLIENTS);
            if shards > 1 {
                assert!(evicted > 0, "{workers}w/{shards}s: nothing evicted");
            }
            goldens.push((workers, shards, digest, pruned));
        }
    }
    let (_, _, d0, p0) = goldens[0];
    for (workers, shards, digest, pruned) in &goldens {
        assert_eq!(
            (*digest, *pruned),
            (d0, p0),
            "digest/prune diverged at {workers} workers x {shards} shards: {goldens:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Reload-vs-never-evict equivalence (the soak contract, seed-swept)
// ---------------------------------------------------------------------

#[test]
fn soak_reload_matches_never_evict() {
    let cfg = soak::SoakConfig::smoke(seed());
    let evicting = soak::run(&cfg);
    assert!(evicting.lifecycle.evicted_regions > 0, "soak never evicted");
    assert!(evicting.lifecycle.reloads > 0, "soak never reloaded");
    assert!(evicting.relocs > 0, "revisit tail never relocalized");

    let mut control = cfg.clone();
    control.lifecycle = cfg.lifecycle.without_eviction();
    let never = soak::run(&control);
    assert_eq!(never.lifecycle.evicted_regions, 0);
    assert_eq!(
        evicting.trajectories, never.trajectories,
        "evict/reload changed an observable trajectory"
    );
    assert_eq!(
        evicting.map_digest, never.map_digest,
        "evict/reload changed final map content"
    );
    assert!(
        evicting.lifecycle.map_bytes_high_water < never.lifecycle.map_bytes_high_water,
        "eviction did not lower the map-bytes peak: {} vs {}",
        evicting.lifecycle.map_bytes_high_water,
        never.lifecycle.map_bytes_high_water
    );
}

// ---------------------------------------------------------------------
// Federation: delta-to-evicted, evict-during-handoff, ownership moves
// ---------------------------------------------------------------------

/// Synthetic pre-built fragment in the cells around world x-offset `x`
/// (same shape as tests/map_sharding.rs: internal covisibility only).
fn make_fragment(client: u16, x: f64, n_kf: usize) -> Map {
    let mut m = Map::new(ClientId(client));
    let mut kfs = Vec::new();
    for i in 0..n_kf {
        let id = m.alloc.next_keyframe();
        let cx = x + i as f64 * 0.5;
        m.insert_keyframe(KeyFrame {
            id,
            pose_cw: SE3::from_translation(Vec3::new(-cx, 0.0, 0.0)),
            timestamp: -100.0 + i as f64 * 0.1,
            keypoints: Vec::new(),
            descriptors: Vec::new(),
            matched_points: Vec::new(),
            bow: Default::default(),
        });
        kfs.push(id);
    }
    for j in 0..4usize {
        let mp = m.alloc.next_mappoint();
        m.mappoints.insert(
            mp,
            MapPoint {
                id: mp,
                position: Vec3::new(x + j as f64 * 0.2, 1.0, 2.0),
                descriptor: Default::default(),
                normal: Vec3::new(0.0, 0.0, 1.0),
                observations: kfs.iter().map(|&k| (k, j)).collect(),
                replaced_by: None,
                created_frame: 0,
            },
        );
    }
    m
}

fn lifecycle_server_config() -> ServerConfig {
    let mut cfg = ServerConfig::stereo_default(StereoRig::euroc_like());
    cfg.map_shards = 16;
    cfg
}

/// Maintenance on a server's map, driven by the test as the owner of the
/// frame clock.
fn eviction_manager(store: &Arc<ShardedGlobalMap>, evict_after: u64) -> LifecycleManager {
    LifecycleManager::new(
        store.clone(),
        LifecycleConfig {
            prune_every_frames: 0, // pruning off: fragment points are synthetic
            prune_min_obs: 0,
            prune_min_age_frames: 0,
            evict_after_frames: evict_after,
        },
    )
}

#[test]
fn delta_to_evicted_region_reloads_on_demand() {
    let vocab = Arc::new(vocabulary::train_random(42));
    let server = slam_share::core::server::EdgeServer::new(lifecycle_server_config(), vocab);
    let lc = eviction_manager(&server.store, 10);
    let x = 300.0 + (seed() % 8) as f64 * 40.0;
    server.absorb_external_fragment(make_fragment(1, x, 3));
    let (kfs0, mps0, _) = server.global_map_stats();
    assert_eq!((kfs0, mps0), (3, 4));

    // Tick once to record activity, then far enough ahead that the
    // fragment's component is cold and gets evicted.
    lc.tick(0);
    lc.tick(50);
    let report = lc.report();
    assert!(report.evicted_regions > 0, "fragment never went cold");
    assert!(report.evicted_now > 0);
    assert!(report.released_bytes > 0);
    let (kfs_evicted, _, _) = server.global_map_stats();
    assert_eq!(kfs_evicted, 0, "evicted content still resident");

    // A delta landing in the evicted region reloads it before applying:
    // afterwards both fragments are resident and nothing is evicted in
    // that component.
    server.absorb_external_fragment(make_fragment(2, x, 2));
    let report = lc.report();
    assert!(report.reloads > 0, "delta did not force a reload");
    let (kfs1, mps1, _) = server.global_map_stats();
    assert_eq!((kfs1, mps1), (5, 8), "content lost across evict/reload");
}

#[test]
fn maintenance_races_with_live_deltas() {
    let vocab = Arc::new(vocabulary::train_random(42));
    let server = slam_share::core::server::EdgeServer::new(lifecycle_server_config(), vocab);
    let lc = eviction_manager(&server.store, 1);
    let base = 600.0 + (seed() % 8) as f64 * 40.0;
    const ROUNDS: usize = 60;

    // Writer thread streams fragments round-robin over four cells while
    // the maintenance thread ticks an aggressive one-frame cold window —
    // evictions fire between a cell's writes, so absorbs keep hitting
    // just-evicted regions. Any lost page release, double free, or
    // stub/directory inconsistency deadlocks or loses content here.
    std::thread::scope(|s| {
        let (srv, lc) = (&server, &lc);
        s.spawn(move || {
            for i in 0..ROUNDS {
                // Unique client per fragment: ids never collide, so the
                // final count pins that no absorb was lost.
                srv.absorb_external_fragment(make_fragment(
                    i as u16 + 1,
                    base + (i % 4) as f64 * 40.0 + (i / 4) as f64 * 2.0,
                    1,
                ));
            }
        });
        s.spawn(move || {
            for f in 0..ROUNDS as u64 {
                lc.tick(f);
            }
        });
    });
    // Post-race: force eviction of everything, then reload everything.
    lc.tick(10_000);
    lc.tick(10_001);
    let report = lc.report();
    assert!(report.evicted_regions > 0, "race never evicted");
    server.store.ensure_all_resident();
    let report = lc.report();
    assert!(report.reloads > 0);
    assert_eq!(report.evicted_now, 0);
    let (kfs, mps, _) = server.global_map_stats();
    assert_eq!(kfs, ROUNDS, "keyframes lost in the evict/write race");
    assert_eq!(mps, ROUNDS * 4, "map points lost in the evict/write race");
    let (_, _, used) = server.store.stats();
    assert!(used > 0);
}

#[test]
fn evicted_region_transfers_ownership_and_reloads_at_destination() {
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut fed = Federation::new(2, lifecycle_server_config(), vocab, LinkConfig::ten_gbe());
    let lc = eviction_manager(&fed.server(0).expect("server 0").store, 10);
    let x = 900.0 + (seed() % 8) as f64 * 40.0;
    fed.server(0)
        .expect("server 0")
        .absorb_external_fragment(make_fragment(1, x, 3));
    lc.tick(0);
    lc.tick(50);
    let evicted = fed.server(0).expect("server 0").store.evicted_regions();
    assert!(!evicted.is_empty(), "fragment never evicted on server 0");
    let region = evicted[0];

    // Transfer while evicted: the compact stub crosses the link and the
    // ownership map flips — this is the evict-during-handoff window,
    // where a region goes cold on the old home mid-migration.
    assert!(fed.transfer_evicted_region(region, 0, 1, SimTime(0)));
    assert_eq!(fed.ownership().owner_of(region), ServerId(1));
    assert_eq!(fed.metrics().evicted_transfers, 1);
    assert!(fed.metrics().evicted_transfer_bytes > 0);
    // The origin no longer holds the stub; a second transfer is refused.
    assert!(!fed.transfer_evicted_region(region, 0, 1, SimTime(0)));
    assert!(fed
        .server(0)
        .expect("server 0")
        .store
        .evicted_regions()
        .is_empty());

    // Destination holds it cold until first touch, then reloads.
    let dest = fed.server(1).expect("server 1");
    assert_eq!(dest.store.evicted_regions(), vec![region]);
    let before = dest.store.reload_count();
    dest.absorb_external_fragment(make_fragment(2, x, 1));
    assert!(dest.store.reload_count() > before, "no reload on touch");
    assert!(dest.store.evicted_regions().is_empty());
    let (kfs, mps, _) = dest.global_map_stats();
    assert_eq!((kfs, mps), (4, 8), "transferred content lost");
}

// ---------------------------------------------------------------------
// Residency: reads and writes never run on an evicted shard
// ---------------------------------------------------------------------

/// One thread evicts a keyframe's component in a tight loop while another
/// reads and writes through that keyframe for about a second. An eviction
/// that lands between a call's reload and its shard locks must send the
/// call back to reload instead of letting it run on the emptied shard:
/// every track read sees the keyframe and every component write gathers
/// it.
#[test]
fn track_reads_and_writes_never_run_on_an_evicted_shard() {
    let gmap = ShardedGlobalMap::new(16, 10.0);
    let mut alloc = IdAllocator::new(ClientId(1));
    let kf = insert_step(&gmap, &mut alloc, (seed() % 8) as f64 * 40.0, 0, 0, 0);
    let region = gmap.with_track_read(Some(kf), |_, stamp| stamp[0].0);
    let seeds = LockSeeds {
        kfs: vec![kf],
        ..LockSeeds::default()
    };

    let stop = AtomicBool::new(false);
    let (evictions, (reads, read_misses, writes, write_misses)) = std::thread::scope(|s| {
        let evictor = s.spawn(|| {
            let mut evictions = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if !gmap.evict_component(region, 0).regions.is_empty() {
                    evictions += 1;
                }
            }
            evictions
        });
        let (mut reads, mut read_misses, mut writes, mut write_misses) = (0u64, 0u64, 0u64, 0u64);
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(1) {
            reads += 1;
            if !gmap.with_track_read(Some(kf), |v, _| v.keyframe(kf).is_some()) {
                read_misses += 1;
            }
            writes += 1;
            let (held, _) =
                gmap.with_component_write(&seeds, |m, _| (m.keyframe(kf).is_some(), false));
            if !held {
                write_misses += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let evictions = evictor.join().expect("evictor");
        (evictions, (reads, read_misses, writes, write_misses))
    });
    assert!(
        evictions > 0 && gmap.reload_count() > 0,
        "the race never ran: {evictions} evictions, {} reloads",
        gmap.reload_count()
    );
    assert_eq!(
        (read_misses, write_misses),
        (0, 0),
        "{read_misses} of {reads} track reads and {write_misses} of {writes} component \
         writes ran on an evicted shard ({evictions} evictions)"
    );
    gmap.ensure_all_resident();
    let (kfs, mps, _) = gmap.stats();
    assert_eq!((kfs, mps), (1, 2), "content lost across the race");
}
