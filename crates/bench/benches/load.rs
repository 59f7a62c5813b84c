//! Bench (extension): the thousand-client load harness.
//!
//! Writes `results/BENCH_load.json` from one overload run of
//! [`bench::load`]: ≥512 synthetic clients (effort-scaled) with
//! heterogeneous link tiers, scripted churn (graceful leaves, silent
//! crashes with rejoin, duplicate joins, garbage-byte faults), an
//! admission bound below the offered population, and fewer service lanes
//! than the offered frame rate needs — the regime where admission
//! control and the backpressure policy carry the server.
//!
//! The harness drives the real `EdgeServer`; only the clients and the
//! per-frame service time are modeled, so every latency is virtual time
//! and the run is fully deterministic (3–4 s of wall clock for the
//! 512 clients on 2 cores). The bench therefore asserts *exact*
//! properties, not statistical ones:
//!
//! * admission is typed — capacity and duplicate rejections are counted,
//!   nobody panics, and the peak live population never exceeds the bound;
//! * overload sheds frames by policy — the drop counters reconcile
//!   exactly against offered − served (no silent loss anywhere);
//! * the p99 round latency of interactive-class served frames holds the
//!   SLO (`slo.p99_latency_ms`), which the bench-regression gate then
//!   pins against the committed baseline.
//!
//! The Criterion kernel times one small smoke-scale run end to end
//! (about 0.3 s) — the harness must stay cheap enough to live in CI.

use bench::load::{self, LoadConfig, LoadReport};
use bench::save_json;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;

/// Offered client population per effort tier. The committed baseline is
/// generated at the default (`quick`) tier: 512 clients.
fn scale() -> usize {
    match std::env::var("SLAMSHARE_BENCH_EFFORT").as_deref() {
        Ok("full") => 1024,
        Ok("smoke") => 96,
        _ => 512,
    }
}

const SEED: u64 = 0x00C1_1E75;

#[derive(Serialize)]
struct SloBlock {
    /// The headline metric the gate pins (key contains `p99`).
    p99_latency_ms: f64,
    slo_p99_ms: f64,
    met: bool,
    served: u64,
    shed_frames: u64,
    /// dropped + purged + residual == offered − served, exactly.
    shed_matches_accounting: bool,
}

#[derive(Serialize)]
struct LoadBenchReport {
    clients_offered: usize,
    max_clients: Option<usize>,
    seed: u64,
    slo: SloBlock,
    overload: LoadReport,
}

fn bench(c: &mut Criterion) {
    let n = scale();
    let cfg = LoadConfig::overload(n, SEED);
    let out = load::run(&cfg);
    let r = out.report.clone();

    // -- Acceptance asserts: these are exact, not tolerances. ----------
    assert!(
        r.clients_offered >= n,
        "offered population shrank: {}",
        r.clients_offered
    );
    if let Some(max) = cfg.max_clients {
        assert!(
            r.peak_live <= max,
            "admission bound violated: {} > {max}",
            r.peak_live
        );
    }
    assert!(
        r.rejected_capacity > 0,
        "overload never hit the admission bound"
    );
    assert!(
        r.rejected_duplicate > 0,
        "churn script fired no duplicate joins"
    );
    assert!(r.queue_dropped > 0, "overload never shed a frame by policy");
    let shed = r.queue_dropped + r.queue_purged + r.queue_residual;
    assert_eq!(
        shed,
        r.queue_offered - r.queue_served,
        "drop counters do not reconcile with offered - served"
    );
    assert!(
        r.slo_met,
        "interactive p99 {:.1} ms blew the {:.0} ms SLO",
        r.latency.interactive.p99_ms, r.slo_p99_ms
    );

    let report = LoadBenchReport {
        clients_offered: r.clients_offered,
        max_clients: cfg.max_clients,
        seed: SEED,
        slo: SloBlock {
            p99_latency_ms: r.latency.interactive.p99_ms,
            slo_p99_ms: r.slo_p99_ms,
            met: r.slo_met,
            served: r.queue_served,
            shed_frames: shed,
            shed_matches_accounting: true,
        },
        overload: r,
    };
    println!(
        "load: {} clients offered, peak {} live | admitted {} rejected {}+{} | \
         served {} shed {} | interactive p99 {:.1} ms (SLO {:.0} ms)",
        report.clients_offered,
        report.overload.peak_live,
        report.overload.admitted,
        report.overload.rejected_capacity,
        report.overload.rejected_duplicate,
        report.slo.served,
        report.slo.shed_frames,
        report.slo.p99_latency_ms,
        report.slo.slo_p99_ms,
    );
    save_json("BENCH_load", &report);

    // Kernel: one smoke-scale harness run end to end.
    let small = LoadConfig::smoke(32, SEED);
    c.bench_function("load_harness_32_clients", |b| {
        b.iter(|| std::hint::black_box(load::run(&small).report.frames_tracked))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
