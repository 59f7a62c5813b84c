//! Bench: Fig. 11 — hologram positioning with/without sharing, plus the
//! per-render perception kernel.

use bench::experiments::fig11;
use bench::hologram::perceived_position;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_math::{Quat, Vec3, SE3};

fn bench(c: &mut Criterion) {
    let result = fig11::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("fig11_hologram", &result);

    let h = Vec3::new(1.0, 2.0, 3.0);
    let est = SE3::new(
        Quat::from_axis_angle(Vec3::Y, 0.3),
        Vec3::new(0.1, 0.0, 0.0),
    );
    let truth = SE3::new(
        Quat::from_axis_angle(Vec3::Y, 0.29),
        Vec3::new(0.12, 0.01, 0.0),
    );
    c.bench_function("fig11/perceived_position", |b| {
        b.iter(|| perceived_position(std::hint::black_box(h), &est, &truth))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
