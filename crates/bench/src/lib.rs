//! The paper harness: everything that drives the SLAM-Share server from
//! outside, and the plumbing that regenerates every table and figure.
//!
//! `slamshare-core` is the server alone. This crate holds what runs it:
//!
//! * [`client`] — the thin AR device: IMU-only pose extrapolation between
//!   server replies (Algorithm 1), H.264-style video upload, pose fusion;
//! * [`baseline`] — the Edge-SLAM-style comparison system (Fig. 4b):
//!   full SLAM on the client, 5-second hold-down, serialize → ship →
//!   merge → ship-back map exchange;
//! * [`session`] — the multi-user virtual-time session driver that runs
//!   either system over synthetic datasets and network links and records
//!   timelines;
//! * [`hologram`] — shared-hologram placement/perception (Fig. 11);
//! * [`accounting`] — client CPU and bandwidth accounting (Fig. 13,
//!   Table 3);
//! * [`experiments`] — one runner per table/figure of the paper's
//!   evaluation (see DESIGN.md §3);
//! * [`load`] — the thousand-client virtual-time load harness on a real
//!   `Federation`;
//! * [`soak`] — the compressed day-long lifecycle soak;
//! * [`gate`] — the bench regression gate.
//!
//! Each bench target (one per table/figure) does two things when `cargo
//! bench` runs it:
//!
//! 1. runs the corresponding experiment from [`experiments`] once, prints
//!    the rendered table and writes the raw rows to
//!    `results/<name>.json`;
//! 2. times the experiment's hot kernel with Criterion so regressions in
//!    the underlying implementation are visible.
//!
//! Set `SLAMSHARE_BENCH_EFFORT=full` for paper-scale workloads (default is
//! `quick`, sized to finish the whole harness in minutes).

use experiments::Effort;
use std::path::PathBuf;

pub mod accounting;
pub mod baseline;
pub mod client;
pub mod experiments;
pub mod gate;
pub mod hologram;
pub mod load;
// The session drives a live server (and the baseline's fat clients) round
// after round; a config it cannot honour drops that client, never aborts
// the run.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod session;
pub mod soak;

pub use client::ClientDevice;
pub use session::{Session, SessionConfig, SystemKind};

/// Effort selected by the `SLAMSHARE_BENCH_EFFORT` env var.
pub fn bench_effort() -> Effort {
    match std::env::var("SLAMSHARE_BENCH_EFFORT").as_deref() {
        Ok("full") => Effort::Full,
        Ok("smoke") => Effort::Smoke,
        _ => Effort::Quick,
    }
}

/// Where experiment outputs land (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../../results"))
        .unwrap_or_else(|_| PathBuf::from("results"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Persist an experiment result as JSON next to the human-readable print.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_env_parsing_defaults_quick() {
        // Can't set env safely in parallel tests; just exercise default.
        let e = bench_effort();
        assert!(matches!(e, Effort::Quick | Effort::Full | Effort::Smoke));
    }

    #[test]
    fn save_json_roundtrip() {
        #[derive(serde::Serialize)]
        struct T {
            x: u32,
        }
        save_json("selftest", &T { x: 7 });
        let path = results_dir().join("selftest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("7"));
        let _ = std::fs::remove_file(path);
    }
}
