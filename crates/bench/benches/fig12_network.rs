//! Bench: Fig. 12 — network-condition sensitivity, plus the virtual-link
//! kernel used to shape every transfer.

use bench::experiments::fig12;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_net::link::{Link, LinkConfig};
use slamshare_sim::clock::SimTime;

fn bench(c: &mut Criterion) {
    let result = fig12::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("fig12_network", &result);

    c.bench_function("fig12/link_send_10k_msgs", |b| {
        b.iter(|| {
            let mut link = Link::new(LinkConfig::constrained_18_7mbps());
            let mut t = SimTime::ZERO;
            for i in 0..10_000u64 {
                t = link.send(SimTime(i * 33_000), 4096);
            }
            t
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
