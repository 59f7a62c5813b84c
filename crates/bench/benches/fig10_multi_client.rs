//! Bench: Fig. 10 — multi-client merge timelines (EuRoC + KITTI), plus
//! the map-merge kernel (Algorithm 2 in shared memory).

use bench::experiments::fig10;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_slam::ids::ClientId;
use slamshare_slam::map::Map;
use slamshare_slam::merge::map_merge;

fn build_client_map(
    client: u16,
    frames: &[usize],
    seed: u64,
) -> (Map, slamshare_sim::dataset::Dataset) {
    use slamshare_slam::mapping::{LocalMapper, MappingConfig};
    use slamshare_slam::tracking::{SensorMode, Tracker, TrackerConfig};
    let max = frames.iter().max().unwrap() + 1;
    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::V202)
            .with_frames(max)
            .with_seed(seed),
    );
    let tracker = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        std::sync::Arc::new(slamshare_gpu::GpuExecutor::cpu()),
    );
    let vocab = slamshare_slam::vocabulary::train_random(42);
    let mut mapper = LocalMapper::new(SensorMode::Stereo, ds.rig, MappingConfig::default());
    let mut map = Map::new(ClientId(client));
    for &f in frames {
        let (left, right) = ds.render_stereo_frame(f);
        let obs = tracker
            .extract_frame(&left, Some(&right))
            .into_seed_observation(f, ds.frame_time(f), ds.gt_pose_cw(f));
        mapper.insert_keyframe(&mut map, &vocab, &obs);
    }
    (map, ds)
}

fn bench(c: &mut Criterion) {
    let effort = bench_effort();
    let euroc = fig10::run_euroc(effort);
    println!("\n{}", euroc.render_text());
    save_json("fig10_euroc", &euroc);
    let kitti = fig10::run_kitti(effort);
    println!("\n{}", kitti.render_text());
    save_json("fig10_kitti", &kitti);

    // Kernel: merging a fresh client map into a global map (the <200 ms
    // claim).
    let (gsrc, ds) = build_client_map(1, &[0, 3, 6], 5);
    let (cmap, _) = build_client_map(2, &[1, 4, 7], 6);
    let vocab = slamshare_slam::vocabulary::train_random(42);
    c.bench_function("fig10/map_merge_shared_memory", |b| {
        b.iter(|| {
            let mut gmap = Map::new(ClientId(0));
            let db = slamshare_slam::recognition::ShardedKeyframeDatabase::new();
            map_merge(&mut gmap, gsrc.clone(), &db, &vocab, &ds.rig.cam, false);
            map_merge(&mut gmap, cmap.clone(), &db, &vocab, &ds.rig.cam, false)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
