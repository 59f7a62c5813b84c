//! Ablation benches: IMU assist on/off and GSlice GPU sharing under load
//! (DESIGN.md §5; the shared-memory and video ablations live in the
//! table4 and table3 benches respectively).

use bench::experiments::ablations;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let imu = ablations::run_imu_ablation(bench_effort());
    println!("\n{}", imu.render_text());
    save_json("ablation_imu", &imu);

    let sharing = ablations::run_gpu_sharing(bench_effort());
    println!("\n{}", sharing.render_text());
    save_json("ablation_gpu_sharing", &sharing);

    // Kernel: the whole IMU ablation replay is itself fast; time one
    // 240-frame replay.
    c.bench_function("ablations/imu_replay_240_frames", |b| {
        b.iter(|| ablations::run_imu_ablation(bench::experiments::Effort::Smoke))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
