//! # slamshare-slam
//!
//! A from-scratch visual-inertial SLAM library filling the role ORB-SLAM3
//! plays in the paper: the substrate SLAM-Share modifies and builds on.
//!
//! Pipeline (mirroring ORB-SLAM3's thread structure):
//!
//! * [`tracking`] — per-frame localization: ORB extraction (CPU or
//!   simulated GPU), motion-model pose prediction, *search local points*
//!   and pose-only Gauss-Newton ([`optimize`]);
//! * [`mapping`] — keyframe insertion, map-point creation (stereo depth or
//!   two-view [`triangulate`]), duplicate fusion, local bundle adjustment;
//! * [`recognition`] — bag-of-words place recognition
//!   (`DetectCommonRegion`);
//! * [`merge`] — multi-map merging per the paper's Algorithm 2;
//! * [`imu`] — IMU preintegration and the client-side pose model of the
//!   paper's Algorithm 1;
//! * [`system`] — a complete single-user SLAM system (the "vanilla
//!   ORB-SLAM3" baseline of the evaluation);
//! * [`eval`] — absolute trajectory error (cumulative and short-term).
//!
//! Map state lives in [`map::Map`], designed so the *same* structure can be
//! owned locally (baseline) or placed in the shared-memory store
//! (`slamshare-core::gmap`) and mutated by multiple server processes.

pub mod eval;
pub mod ids;
pub mod imu;
// The map/merge/recognition/tracking modules hold the shared global-map
// state and the code that runs against it under region locks on the edge
// server (tracking's back half reads the map in every round); a panic
// there poisons a shard for every client. Lints are compiled into
// the modules (not passed via CLI -D, which would leak into the vendored
// workspace path deps) — `cargo clippy -p slamshare-slam` enforces them.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod map;
pub mod mapping;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod merge;
pub mod optimize;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod recognition;
pub mod system;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod tracking;
pub mod triangulate;
pub mod vocabulary;

pub use ids::{ClientId, IdAllocator, KeyFrameId, MapPointId};
pub use map::{KeyFrame, Map, MapPoint, MapRead, MapView, RegionAssigner, RegionGraph};
pub use system::{SlamConfig, SlamSystem};
