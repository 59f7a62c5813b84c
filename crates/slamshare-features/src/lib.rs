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

pub mod arena;
pub mod bow;
// The extraction pipeline and the kernels it runs (FAST, orientation +
// BRIEF, image sampling, the pyramid), and the Hamming and window-search
// kernels tracking runs on its output (descriptor, matching), run under
// every client's tracking submission on the edge server's round workers.
// Lints are compiled into each module (not passed via CLI -D, which would
// leak into the vendored workspace path deps) — `cargo clippy -p
// slamshare-features` enforces them.
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod descriptor;
pub mod distribute;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod extractor;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod fast;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod image;
pub mod keypoint;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod matching;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod orb;
#[cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
pub mod pyramid;

pub use arena::FrameArena;
pub use descriptor::{Descriptor, DescriptorBlock};
pub use extractor::{ExtractionTimings, OrbExtractor, OrbExtractorConfig};
pub use image::GrayImage;
pub use keypoint::KeyPoint;
pub use pyramid::ImagePyramid;
