//! Small-N load-harness smoke for the CI gate: the full churn script —
//! heterogeneous links, leaves, crashes with rejoin, duplicate joins,
//! garbage-byte faults, an admission bound — at 64 virtual clients on
//! the real `EdgeServer`. Latencies are virtual time; every frame still
//! runs the server's real decode → track → commit path, so the run takes
//! about 0.35 s of wall clock on 2 cores. Asserts the same invariants
//! the full 512-client bench (`cargo bench -p bench --bench load`) pins.
//!
//! Usage: `load_smoke [n_clients]`; honors `SLAMSHARE_TEST_SEED`.

use bench::load::{self, LoadConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    let seed: u64 = std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let mut cfg = LoadConfig::smoke(n, seed);
    // An admission bound below the population so the typed capacity
    // path runs even at smoke scale.
    let bound = (n * 3 / 4).max(1);
    cfg.max_clients = Some(bound);

    // run() itself asserts frame conservation (delivered == offered ==
    // served + dropped + purged + residual) and the duplicate-join
    // no-leak property. The map's invariants are checked after every
    // round.
    let mut rounds = 0u64;
    let r = load::run_observed(&cfg, |fed| {
        rounds += 1;
        for server in (0..fed.n_servers()).filter_map(|i| fed.server(i)) {
            let checked = server.store.check_invariants();
            assert!(checked.is_ok(), "after round {rounds}: {checked:?}");
        }
    })
    .report;

    assert!(r.peak_live <= bound, "admission bound violated");
    assert!(r.rejected_capacity > 0, "capacity path never exercised");
    assert!(r.frames_tracked > 0, "nothing tracked");
    let churners = n - load::survivors(&cfg).len();
    if churners > 0 {
        assert!(
            r.departed + r.crash_evictions > 0,
            "churn scripted but never observed: {r:?}"
        );
    }
    assert!(
        r.slo_met,
        "interactive p99 {:.1} ms blew the {:.0} ms SLO",
        r.latency.interactive.p99_ms, r.slo_p99_ms
    );

    println!(
        "load-smoke ok: {n} clients (bound {bound}, peak {}), seed {seed} | \
         admitted {} rejected {}+{} | tracked {} shed {} | \
         interactive p99 {:.1} ms (SLO {:.0} ms) | map invariants held over {rounds} rounds",
        r.peak_live,
        r.admitted,
        r.rejected_capacity,
        r.rejected_duplicate,
        r.frames_tracked,
        r.queue_dropped + r.queue_purged,
        r.latency.interactive.p99_ms,
        r.slo_p99_ms,
    );
}
