//! Bench: Table 1 — map size vs. keyframes, plus the map-serialization
//! kernel the baseline pays on every exchange.

use bench::experiments::table1;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_net::wire;

fn bench(c: &mut Criterion) {
    let result = table1::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("table1_map_size", &result);

    // Kernel: serializing a grown map (what Table 1 sizes and the
    // baseline ships every round).
    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::MH04)
            .with_frames(24)
            .with_seed(1),
    );
    let vocab = std::sync::Arc::new(slamshare_slam::vocabulary::train_random(42));
    let mut sys = slamshare_slam::SlamSystem::new(
        slamshare_slam::ids::ClientId(1),
        slamshare_slam::SlamConfig::stereo(ds.rig),
        vocab,
        std::sync::Arc::new(slamshare_gpu::GpuExecutor::cpu()),
    );
    for i in 0..24 {
        let (l, r) = ds.render_stereo_frame(i);
        sys.process_frame(slamshare_slam::system::FrameInput {
            timestamp: ds.frame_time(i),
            left: &l,
            right: Some(&r),
            imu: &[],
            pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
        });
    }
    c.bench_function("table1/encode_map", |b| {
        b.iter(|| wire::encode_map(std::hint::black_box(&sys.map)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
