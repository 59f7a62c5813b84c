//! Repeatability check for the multi-client session driver: runs
//! `fig10::run_kitti` and `fig10::run_euroc` at smoke effort twice each
//! and asserts the two runs agree bit for bit on the global-map ATE
//! series and on the merge timeline (`(t, client, aligned)`; the merge's
//! wall-clock `merge_ms` is left out). About 2.5 s per run in release.
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

type Scenario = fn(Effort) -> fig10::Fig10Result;

fn main() {
    let scenarios: [(&str, Scenario); 2] =
        [("kitti", fig10::run_kitti), ("euroc", fig10::run_euroc)];
    for (name, run) in scenarios {
        let first = run(Effort::Smoke);
        let second = run(Effort::Smoke);
        let (a, b) = (fingerprint(&first), fingerprint(&second));
        assert!(!a.ate_series.is_empty(), "{name}: empty map-ATE series");
        assert_eq!(a, b, "{name}: two runs of the same session differ");
        println!(
            "session_repeat {name}: {} ATE samples, {} merges, identical across 2 runs \
             (final map ATE {:.4} m)",
            a.ate_series.len(),
            a.merges.len(),
            first.ate_series.last().map_or(f64::NAN, |&(_, ate)| ate),
        );
    }
}
