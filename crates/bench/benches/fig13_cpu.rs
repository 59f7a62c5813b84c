//! Bench: Fig. 13 — client CPU utilization, plus the two per-frame client
//! workloads whose ratio the figure reports.

use bench::baseline::{BaselineClient, BaselineConfig};
use bench::client::ClientDevice;
use bench::experiments::fig13;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_slam::SlamConfig;

fn bench(c: &mut Criterion) {
    let result = fig13::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("fig13_cpu", &result);

    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::MH05)
            .with_frames(8)
            .with_seed(41),
    );
    let frames: Vec<_> = (0..8).map(|i| ds.render_stereo_frame(i)).collect();
    let vocab = std::sync::Arc::new(slamshare_slam::vocabulary::train_random(42));

    c.bench_function("fig13/thin_client_frame", |b| {
        b.iter(|| {
            let mut dev = ClientDevice::new(1);
            dev.init_pose(ds.gt_pose_cw(0));
            for (i, (l, r)) in frames.iter().enumerate() {
                dev.on_frame(ds.frame_time(i), l, Some(r), &[]);
            }
        })
    });
    c.bench_function("fig13/fat_client_frame", |b| {
        b.iter(|| {
            let mut fat = BaselineClient::new(
                1,
                SlamConfig::stereo(ds.rig),
                vocab.clone(),
                BaselineConfig::default(),
            );
            for (i, (l, r)) in frames.iter().enumerate() {
                fat.on_frame(
                    ds.frame_time(i),
                    l,
                    Some(r),
                    &[],
                    (i == 0).then(|| ds.gt_pose_cw(0)),
                );
            }
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
