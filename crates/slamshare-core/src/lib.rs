//! # slamshare-core
//!
//! The SLAM-Share **server** (the paper's primary contribution, Fig. 3):
//! an orchestrator, one tracking/mapping process per client, and a merge
//! process over one shared global map.
//!
//! * [`server`] — the edge server: one tracking/mapping process per client
//!   (Fig. 3, Processes A/B) sharing a GSlice-partitioned simulated GPU,
//!   plus the merge process M operating on the global map;
//! * [`gmap`] — the region-sharded global map in the shared-memory store
//!   (sharable mutexes, per-region locks and epochs);
//! * [`merge_worker`] — the merge process M: one merge job per client,
//!   on its own thread or on the committing caller;
//! * [`ingest`] — fault-isolated per-client video decode with the
//!   I-frame resync protocol (no malformed byte may panic the server);
//! * [`qos`] — admission control and the bounded per-client ingress
//!   queues;
//! * [`federation`] — several servers, each owning a band of the world,
//!   with client handoff and region deltas between them;
//! * [`lifecycle`] — map pruning, cold-region eviction and
//!   reload-on-demand for long-running sessions;
//! * [`metrics`] — the server's health counters and ATE re-exports.
//!
//! What drives the server — the thin AR devices, the Edge-SLAM-style
//! baseline, the session driver, the load harness and one runner per
//! table/figure of the paper — lives in the `bench` crate (re-exported
//! as `slam_share::harness`).
//!
//! A panic anywhere in here poisons a client mutex or a region lock for
//! every client, strands a client mid-transfer, or silently ends process
//! M; adversarial client bytes must produce typed errors. So unwrap,
//! expect and panic are compile errors in all non-test code of the crate.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod federation;
pub mod gmap;
pub mod ingest;
pub mod lifecycle;
pub mod merge_worker;
pub mod metrics;
pub mod qos;
pub mod server;

pub use server::EdgeServer;
