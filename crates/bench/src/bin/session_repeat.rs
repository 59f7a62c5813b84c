//! Repeatability and golden check for the multi-client session driver:
//! runs `fig10::run_kitti` and `fig10::run_euroc` at smoke effort twice
//! each, asserts the two runs agree bit for bit on the global-map ATE
//! series and on the merge timeline (`(t, client, aligned)`; the merge's
//! wall-clock `merge_ms` is left out), and asserts that fingerprint's
//! FNV-1a 64 digest and merge count against the recorded goldens, so a
//! change that moves both runs alike fails too. About 2.5 s per run in
//! release.
//!
//! Usage: `session_repeat`.

use bench::experiments::{fig10, Effort};

/// What two runs of one scenario must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    ate_series: Vec<(u64, u64)>,
    merges: Vec<(u64, u16, bool)>,
}

fn fingerprint(r: &fig10::Fig10Result) -> Fingerprint {
    Fingerprint {
        ate_series: r
            .ate_series
            .iter()
            .map(|&(t, ate)| (t.to_bits(), ate.to_bits()))
            .collect(),
        merges: r
            .merges
            .iter()
            .map(|&(t, client, _, aligned)| (t.to_bits(), client, aligned))
            .collect(),
    }
}

/// FNV-1a 64 over the fingerprint's words (little-endian bytes): the ATE
/// series, then the merge timeline, in order.
fn digest(f: &Fingerprint) -> u64 {
    let ate = f.ate_series.iter().flat_map(|&(t, ate)| [t, ate]);
    let merges = f
        .merges
        .iter()
        .flat_map(|&(t, c, aligned)| [t, c.into(), aligned.into()]);
    ate.chain(merges)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

type Scenario = fn(Effort) -> fig10::Fig10Result;

/// `(name, session, fingerprint digest, merge count)`.
const GOLDENS: [(&str, Scenario, u64, usize); 2] = [
    // The one KITTI merge is client 1's adoption as the map's anchor:
    // the smoke session merges no joiner (ROADMAP item 10(c)).
    ("kitti", fig10::run_kitti, 0x0140_f5b9_d7c6_d1f3, 1),
    ("euroc", fig10::run_euroc, 0xbeb8_e53d_4648_63e9, 2),
];

fn main() {
    for (name, run, golden, n_merges) in GOLDENS {
        let first = run(Effort::Smoke);
        let second = run(Effort::Smoke);
        let (a, b) = (fingerprint(&first), fingerprint(&second));
        assert!(!a.ate_series.is_empty(), "{name}: empty map-ATE series");
        assert_eq!(a, b, "{name}: two runs of the same session differ");
        assert_eq!(a.merges.len(), n_merges, "{name}: merge count moved");
        let d = digest(&a);
        assert!(
            d == golden,
            "{name}: digest {d:#018x}, golden {golden:#018x}"
        );
        println!(
            "session_repeat {name}: {} ATE samples, {n_merges} merges, digest {golden:#018x}, \
             identical across 2 runs (final map ATE {:.4} m)",
            a.ate_series.len(),
            first.ate_series.last().map_or(f64::NAN, |&(_, ate)| ate),
        );
    }
}
