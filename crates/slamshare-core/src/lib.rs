//! # slamshare-core
//!
//! The SLAM-Share **system** (the paper's primary contribution), assembled
//! from the substrates:
//!
//! * [`server`] — the edge server: one tracking/mapping process per client
//!   (Fig. 3, Processes A/B) sharing a GSlice-partitioned simulated GPU,
//!   plus the merge process M operating on the global map in the
//!   shared-memory store;
//! * [`client`] — the thin AR device: IMU-only pose extrapolation between
//!   server replies (Algorithm 1), H.264-style video upload, pose fusion;
//! * [`baseline`] — the Edge-SLAM-style comparison system (Fig. 4b):
//!   full SLAM on the client, 5-second hold-down, serialize → ship →
//!   merge → ship-back map exchange;
//! * [`session`] — the multi-user virtual-time session driver that runs
//!   either system over synthetic datasets and network links and records
//!   timelines;
//! * [`hologram`] — shared-hologram placement/perception (Fig. 11);
//! * [`ingest`] — fault-isolated per-client video decode with the
//!   I-frame resync protocol (no malformed byte may panic the server);
//! * [`metrics`] — CPU/bandwidth accounting and ATE re-exports;
//! * [`experiments`] — one runner per table/figure of the paper's
//!   evaluation (see DESIGN.md §3), shared by the Criterion benches and
//!   the examples.

pub mod baseline;
pub mod client;
pub mod experiments;
// Federation moves state between servers' shared maps; a panic here
// strands a client mid-transfer, so the module carries the same no-panic
// gate as the gmap/ingest/qos shared-state paths.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod federation;
// Every byte behind the sharded global map's locks is shared state; a
// panic inside would poison it for every client (same invariant as
// slamshare-shm).
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod gmap;
pub mod hologram;
// The ingest path shares slamshare-net's no-panic invariant: adversarial
// client bytes must produce typed errors, never a panic.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod ingest;
pub mod lifecycle;
pub mod load;
// Merge jobs run under the destination regions' write locks, on a thread
// nobody supervises (or on a committing round worker): a panic there
// poisons shared map state or silently ends process M.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod merge_worker;
pub mod metrics;
// Load-shedding decisions run on the shared ingress path for every
// client; a panic there is a server-wide outage, so the module carries
// the same no-panic gate as ingest.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod qos;
// The server holds every client mutex and every region lock a round takes;
// a panic there poisons them for every client, so it carries the same
// no-panic gate as the modules it drives.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod server;
pub mod session;

pub use client::ClientDevice;
pub use server::EdgeServer;
pub use session::{Session, SessionConfig, SystemKind};
