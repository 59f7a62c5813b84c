//! # SLAM-Share (Rust reproduction)
//!
//! A from-scratch reproduction of *SLAM-Share: Visual Simultaneous
//! Localization and Mapping for Real-time Multi-user Augmented Reality*
//! (Dhakal, Ran, Wang, Chen, Ramakrishnan — CoNEXT 2022).
//!
//! SLAM-Share is an edge-server architecture for multi-user AR: thin
//! clients stream H.264 video and dead-reckon on their IMUs while the
//! server runs GPU-accelerated visual SLAM for every client against a
//! single **shared-memory global map**, merging new users' maps in under
//! 200 ms so all participants localize — and see holograms — in one
//! consistent coordinate frame.
//!
//! This crate is the facade over the workspace:
//!
//! | crate | role |
//! |-------|------|
//! | [`math`] | SE(3)/Sim(3), solvers, robust kernels, alignment |
//! | [`sim`] | synthetic worlds, trajectories, renderer, IMU, datasets |
//! | [`features`] | FAST/ORB pipeline, matching, bag-of-words |
//! | [`gpu`] | simulated GPU kernels + GSlice sharing |
//! | [`slam`] | tracking, mapping, place recognition, map merging |
//! | [`net`] | virtual-time links, wire codecs, video vs image codecs |
//! | [`core`] | the SLAM-Share server: per-client processes, merge process, shared global map |
//! | [`harness`] | what drives the server: clients, baseline, sessions, load, experiments |
//!
//! Start with `examples/quickstart.rs`, or regenerate the paper's tables
//! and figures with `cargo bench --workspace` (results land in
//! `results/*.json`). DESIGN.md maps every paper experiment to the module
//! and bench that reproduces it; EXPERIMENTS.md records paper-vs-measured
//! numbers.
//!
//! ```no_run
//! use slam_share::gpu::GpuExecutor;
//! use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
//! use slam_share::slam::ids::ClientId;
//! use slam_share::slam::system::{FrameInput, SlamConfig, SlamSystem};
//! use slam_share::slam::vocabulary;
//! use std::sync::Arc;
//!
//! // Synthetic stereo dataset named after the paper's EuRoC trace.
//! let ds = Dataset::build(DatasetConfig::new(TracePreset::MH04).with_frames(60));
//! let vocab = Arc::new(vocabulary::train_random(42));
//! let mut slam = SlamSystem::new(
//!     ClientId(1),
//!     SlamConfig::stereo(ds.rig),
//!     vocab,
//!     Arc::new(GpuExecutor::v100()), // simulated V100; ::cpu() for sequential
//! );
//! for i in 0..ds.frame_count() {
//!     let (left, right) = ds.render_stereo_frame(i);
//!     let step = slam.process_frame(FrameInput {
//!         timestamp: ds.frame_time(i),
//!         left: &left,
//!         right: Some(&right),
//!         imu: ds.imu_between(i.saturating_sub(1) as f64 / 30.0, ds.frame_time(i)),
//!         pose_hint: (i == 0).then(|| ds.gt_pose_cw(0)),
//!     });
//!     println!("frame {i}: tracked={} in {:.1} ms", step.tracked, step.timings.total_ms());
//! }
//! println!("{} keyframes, {} map points", slam.map.n_keyframes(), slam.map.n_mappoints());
//! ```

pub use ::bench as harness;
pub use slamshare_core as core;
pub use slamshare_features as features;
pub use slamshare_gpu as gpu;
pub use slamshare_math as math;
pub use slamshare_net as net;
pub use slamshare_sim as sim;
pub use slamshare_slam as slam;
