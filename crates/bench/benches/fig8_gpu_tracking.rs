//! Bench: Fig. 8 — CPU vs. simulated-GPU tracking, plus both extraction
//! kernels for a direct device comparison.

use bench::experiments::fig8;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_gpu::{kernels, GpuExecutor};

fn bench(c: &mut Criterion) {
    let result = fig8::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("fig8_gpu_tracking", &result);

    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::V202)
            .with_frames(1)
            .with_seed(3),
    );
    let frame = ds.render_frame(0);
    let extractor = slamshare_features::OrbExtractor::with_defaults();
    let gpu = GpuExecutor::v100();
    c.bench_function("fig8/orb_extract_cpu", |b| {
        b.iter(|| extractor.extract(std::hint::black_box(&frame)))
    });
    c.bench_function("fig8/orb_extract_gpu", |b| {
        b.iter(|| kernels::gpu_extract(&gpu, &extractor, std::hint::black_box(&frame)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
