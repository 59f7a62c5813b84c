//! Bench: Fig. 5 — CPU tracking-latency breakdown, plus the per-frame
//! CPU tracking kernel.

use bench::experiments::fig5;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let result = fig5::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("fig5_tracking_breakdown", &result);

    // Kernel: one CPU ORB extraction (the dominant stage).
    let ds = slamshare_sim::dataset::Dataset::build(
        slamshare_sim::dataset::DatasetConfig::new(slamshare_sim::dataset::TracePreset::V202)
            .with_frames(1)
            .with_seed(3),
    );
    let frame = ds.render_frame(0);
    let extractor = slamshare_features::OrbExtractor::with_defaults();
    c.bench_function("fig5/orb_extract_cpu", |b| {
        b.iter(|| extractor.extract(std::hint::black_box(&frame)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
