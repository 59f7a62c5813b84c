//! Bench: Table 4 — merge-latency breakdown, plus the serialize and
//! deserialize kernels the shared-memory design eliminates.

use bench::experiments::table4;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_net::wire;

fn bench(c: &mut Criterion) {
    let result = table4::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("table4_merge_latency", &result);

    // Kernels: the baseline's per-round map codec costs.
    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::MH04)
            .with_frames(20)
            .with_seed(1),
    );
    let vocab = std::sync::Arc::new(slamshare_slam::vocabulary::train_random(42));
    let mut sys = slamshare_slam::SlamSystem::new(
        slamshare_slam::ids::ClientId(1),
        slamshare_slam::SlamConfig::stereo(ds.rig),
        vocab,
        std::sync::Arc::new(slamshare_gpu::GpuExecutor::cpu()),
    );
    for i in 0..20 {
        let (l, r) = ds.render_stereo_frame(i);
        sys.process_frame(slamshare_slam::system::FrameInput {
            timestamp: ds.frame_time(i),
            left: &l,
            right: Some(&r),
            imu: &[],
            pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
        });
    }
    let encoded = wire::encode_map(&sys.map);
    c.bench_function("table4/baseline_serialize_map", |b| {
        b.iter(|| wire::encode_map(std::hint::black_box(&sys.map)))
    });
    c.bench_function("table4/baseline_deserialize_map", |b| {
        b.iter(|| wire::decode_map(std::hint::black_box(&encoded)).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
