//! Federation smoke for the CI gate: the multi-server load harness on
//! the real `Federation` — static ownership bands, scripted boundary
//! roamers, client handoffs with destination-first admission and exact
//! release accounting — plus the N=1 bit-identity guarantee. Latencies
//! are virtual time; the three runs take about 0.9 s of wall clock on 2
//! cores. Asserts the same invariants the
//! full federation bench (`cargo bench -p bench --bench federation`)
//! pins.
//!
//! Usage: `fed_smoke [n_clients] [n_servers]`; honors
//! `SLAMSHARE_TEST_SEED`.

use bench::load::{self, LoadConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(48);
    let servers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let seed: u64 = std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);

    // Federated run: roamers are pinned to ownership boundaries, so a
    // healthy population must produce completed handoffs.
    let r = load::run(&LoadConfig::federated(n, seed, servers)).report;
    assert_eq!(r.n_servers, servers);
    assert!(r.handoffs > 0, "no client ever handed off: {r:?}");
    assert_eq!(
        r.handoff_latency.n, r.handoffs,
        "every completed handoff must contribute a latency sample"
    );
    assert!(r.frames_tracked > 0, "federation stopped tracking");

    // N=1 federation must be bit-identical to the classic single-server
    // harness: same report bytes, same trajectories.
    let classic = load::run(&LoadConfig::smoke(n, seed));
    let single = load::run(&LoadConfig::federated(n, seed, 1));
    assert_eq!(
        serde_json::to_string(&classic.report).unwrap(),
        serde_json::to_string(&single.report).unwrap(),
        "N=1 federation diverged from the single-server harness"
    );
    assert_eq!(classic.trajectories, single.trajectories);

    println!(
        "fed-smoke ok: {n} clients on {servers} servers, seed {seed} | \
         handoffs {} (+{} refused) p99 {:.1} ms | tracked {} resyncs {} | \
         n=1 bit-identical",
        r.handoffs, r.handoffs_refused, r.handoff_latency.p99_ms, r.frames_tracked, r.resyncs,
    );
}
