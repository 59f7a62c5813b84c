//! Bench (extension): map lifecycle maintenance (DESIGN.md §11).
//!
//! Writes `results/BENCH_lifecycle.json` with two kinds of metrics:
//!
//! * **maintenance tails** — wall-clock p95 of the three lifecycle
//!   operations as they run on the merge-worker cadence: a prune-due
//!   maintenance tick over live content, a cold component eviction
//!   (serialize + shard release), and the reload-on-demand a track pays
//!   when it re-enters an evicted region. The gate pins these like any
//!   other p95. They are wall-clock on the recording host (`host_cores`).
//! * **`steady_arena_max_bytes`** — the measured peak map size
//!   (`LifecycleReport::map_bytes_high_water`) of the fully deterministic
//!   compressed-day soak (`bench::soak`); the key keeps its old name
//!   so committed baselines stay comparable. This is a byte count, not a
//!   latency, so the gate treats it as an absolute ceiling: any growth
//!   over the committed baseline fails, with no jitter tolerance. It is
//!   the CI-durable form of the soak stage's "day-long sessions stay
//!   bounded" contract.

use bench::save_json;
use bench::soak;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slamshare_core::gmap::{LockSeeds, ShardedGlobalMap};
use slamshare_core::lifecycle::{LifecycleConfig, LifecycleManager};
use slamshare_features::{Descriptor, KeyPoint};
use slamshare_math::{Vec2, Vec3, SE3};
use slamshare_slam::ids::{ClientId, IdAllocator};
use slamshare_slam::map::{KeyFrame, MapPoint, MapWrite};
use std::time::Instant;

const SEED: u64 = 9;

/// Maintenance cycles sampled per effort tier.
fn cycles() -> usize {
    match std::env::var("SLAMSHARE_BENCH_EFFORT").as_deref() {
        Ok("full") => 120,
        Ok("smoke") => 12,
        _ => 48,
    }
}

fn p95(v: &[f64]) -> f64 {
    slamshare_math::stats::percentile(v, 95.0)
}

/// Insert `n_kf` keyframes (each with one prunable single and one kept
/// two-observation point) into the ~10 m cell at x-offset `cell_x`.
fn fill_cell(
    gmap: &ShardedGlobalMap,
    alloc: &mut IdAllocator,
    cell_x: f64,
    n_kf: usize,
    frame: u64,
) {
    for k in 0..n_kf {
        let pos = Vec3::new(
            cell_x + 1.0 + 8.0 * (k as f64 / n_kf.max(1) as f64),
            2.5,
            2.5,
        );
        let seeds = LockSeeds {
            positions: vec![pos],
            ..LockSeeds::default()
        };
        let kf_id = alloc.next_keyframe();
        let mp_a = alloc.next_mappoint();
        let mp_b = alloc.next_mappoint();
        gmap.with_component_write(&seeds, |map, _| {
            map.advance_frame_clock(frame);
            map.insert_keyframe(KeyFrame {
                id: kf_id,
                pose_cw: SE3::from_translation(Vec3::new(-pos.x, -pos.y, -pos.z)),
                timestamp: frame as f64 + k as f64 * 1e-3,
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
                matched_points: vec![Some(mp_a), Some(mp_b)],
                bow: Default::default(),
            });
            let stamp = map.frame_clock();
            for (i, (mp, n_obs)) in [(mp_a, 1usize), (mp_b, 2usize)].iter().enumerate() {
                map.put_mappoint(MapPoint {
                    id: *mp,
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
    }
}

#[derive(Serialize)]
struct SoakBlock {
    /// Deterministic day-soak peak map size — the gate's absolute
    /// ceiling.
    steady_arena_max_bytes: u64,
    /// The never-evict control arm's peak map size.
    never_evict_arena_peak_bytes: u64,
    pruned_points: u64,
    evicted_regions: u64,
    reloads: u64,
    relocs_after_reload: u64,
}

#[derive(Serialize)]
struct BenchLifecycle {
    seed: u64,
    /// Cores of the recording host: the p95s below are wall-clock.
    host_cores: usize,
    cycles: usize,
    kf_per_cycle: usize,
    /// Wall-clock p95 of a prune-due maintenance tick.
    prune_p95_ms: f64,
    /// Wall-clock p95 of a cold-component eviction.
    evict_p95_ms: f64,
    /// Wall-clock p95 of a reload-on-demand.
    reload_p95_ms: f64,
    evicted_payload_bytes_mean: f64,
    soak: SoakBlock,
}

fn bench(c: &mut Criterion) {
    let n = cycles();
    const KF_PER_CYCLE: usize = 24;

    let gmap = ShardedGlobalMap::new(16, 10.0);
    let manager = LifecycleManager::new(
        gmap.clone(),
        LifecycleConfig {
            prune_every_frames: 1, // every measured tick is prune-due
            prune_min_obs: 2,
            prune_min_age_frames: 1,
            evict_after_frames: 0, // eviction timed explicitly below
        },
    );
    let mut alloc = IdAllocator::new(ClientId(1));

    let mut prune_ms = Vec::with_capacity(n);
    let mut evict_ms = Vec::with_capacity(n);
    let mut reload_ms = Vec::with_capacity(n);
    let mut payload_bytes = 0u64;
    let mut evictions = 0u64;
    for i in 0..n {
        // Fresh content each cycle: the cell reuses one of 8 x-offsets,
        // so components stay small and cycle-to-cycle comparable.
        let cell_x = (i % 8) as f64 * 10.0;
        let frame = (i as u64 + 1) * 10;
        fill_cell(&gmap, &mut alloc, cell_x, KF_PER_CYCLE, frame);

        let t = Instant::now();
        manager.tick(frame + 5); // prune-due: ages exceed min_age
        prune_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let region = gmap.region_of(Vec3::new(cell_x + 5.0, 2.5, 2.5));
        let t = Instant::now();
        let receipt = gmap.evict_component(region, frame + 5);
        evict_ms.push(t.elapsed().as_secs_f64() * 1e3);
        payload_bytes += receipt.serialized_bytes as u64;
        evictions += receipt.regions.len() as u64;

        let t = Instant::now();
        gmap.ensure_resident(&[region]);
        reload_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    assert!(evictions > 0, "no cycle ever evicted");
    assert!(gmap.reload_count() > 0, "no cycle ever reloaded");

    // The deterministic day soak: same run the CI soak stage executes.
    let cfg = soak::SoakConfig::day(SEED);
    let evicting = soak::run(&cfg);
    let mut control = cfg.clone();
    control.lifecycle = cfg.lifecycle.without_eviction();
    let never = soak::run(&control);
    assert_eq!(evicting.map_digest, never.map_digest, "soak lost content");
    assert!(evicting.lifecycle.map_bytes_high_water < never.lifecycle.map_bytes_high_water);

    let report = BenchLifecycle {
        seed: SEED,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cycles: n,
        kf_per_cycle: KF_PER_CYCLE,
        prune_p95_ms: p95(&prune_ms),
        evict_p95_ms: p95(&evict_ms),
        reload_p95_ms: p95(&reload_ms),
        evicted_payload_bytes_mean: payload_bytes as f64 / evictions.max(1) as f64,
        soak: SoakBlock {
            steady_arena_max_bytes: evicting.lifecycle.map_bytes_high_water,
            never_evict_arena_peak_bytes: never.lifecycle.map_bytes_high_water,
            pruned_points: evicting.lifecycle.pruned_points,
            evicted_regions: evicting.lifecycle.evicted_regions,
            reloads: evicting.lifecycle.reloads,
            relocs_after_reload: evicting.relocs_after_reload,
        },
    };
    println!(
        "lifecycle: prune p95 {:.3} ms | evict p95 {:.3} ms | reload p95 {:.3} ms | \
         day soak peak {:.1} MiB (never-evict {:.1} MiB), {} pruned / {} evicted / {} reloads",
        report.prune_p95_ms,
        report.evict_p95_ms,
        report.reload_p95_ms,
        report.soak.steady_arena_max_bytes as f64 / (1 << 20) as f64,
        report.soak.never_evict_arena_peak_bytes as f64 / (1 << 20) as f64,
        report.soak.pruned_points,
        report.soak.evicted_regions,
        report.soak.reloads,
    );
    save_json("BENCH_lifecycle", &report);

    // Kernel: one evict → reload round trip of a resident component
    // (state-neutral, so every iteration measures the same work).
    let cell_x = 200.0;
    fill_cell(&gmap, &mut alloc, cell_x, KF_PER_CYCLE, 10_000);
    let region = gmap.region_of(Vec3::new(cell_x + 5.0, 2.5, 2.5));
    c.bench_function("lifecycle_evict_reload_roundtrip", |b| {
        b.iter(|| {
            let receipt = gmap.evict_component(region, 10_001);
            std::hint::black_box(gmap.ensure_resident(&[region]) + receipt.regions.len())
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
