//! # slamshare-features
//!
//! The visual front-end of the SLAM-Share reproduction: everything between a
//! raw 8-bit grayscale camera frame and the binary features that the SLAM
//! back-end consumes.
//!
//! The pipeline mirrors ORB-SLAM3's extractor:
//!
//! 1. build a scale [`pyramid`] (factor 1.2, 8 levels),
//! 2. run the [`fast`] segment-test corner detector per level, on a grid of
//!    cells (the grid is the unit of data-parallelism the paper's GPU kernel
//!    exploits — see `slamshare-gpu`),
//! 3. keep the strongest corners per cell ([`distribute`]),
//! 4. assign each corner an intensity-centroid [`orientation`](orb) and a
//!    256-bit rotated-BRIEF [`descriptor`](descriptor),
//! 5. match descriptors by Hamming distance ([`matching`]), and
//! 6. quantize descriptor sets into a bag-of-binary-words ([`bow`]) for
//!    place recognition / `DetectCommonRegion`.
//!
//! Everything is deterministic given the seed constants, so experiments are
//! reproducible run to run.

// The whole crate runs under every client's tracking submission on the edge
// server's round workers, so outside tests it may not unwrap, expect or
// panic. The lints are compiled in (not passed via CLI -D, which would leak
// into the vendored workspace path deps): `cargo clippy -p
// slamshare-features` enforces them. The SIMD-shaped kernels stay portable
// and safe: no `unsafe` anywhere in the crate.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod bow;
pub mod descriptor;
pub mod distribute;
pub mod extractor;
pub mod fast;
pub mod image;
pub mod keypoint;
pub mod matching;
pub mod orb;
pub mod pyramid;

pub use arena::FrameArena;
pub use descriptor::{Descriptor, DescriptorBlock};
pub use extractor::{ExtractionTimings, OrbExtractor};
pub use image::GrayImage;
pub use keypoint::KeyPoint;
pub use pyramid::ImagePyramid;
