//! Bench (extension): shared-memory scalability — §4.3.2's "tens of
//! users" claim, measured as lock traffic and per-frame latency while N
//! client threads share one global map.

use bench::experiments::scalability;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_core::gmap::SharedMutex;

fn bench(c: &mut Criterion) {
    let result = scalability::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("scalability", &result);

    // Kernel: raw sharable-mutex throughput under a read-mostly load.
    c.bench_function("scalability/shared_mutex_read_mostly", |b| {
        let m = SharedMutex::new(vec![0u64; 1024]);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..100 {
                if i % 10 == 0 {
                    m.with_write(|v| v[i] += 1);
                } else {
                    acc += m.with_read(|v| v[i]);
                }
            }
            acc
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
