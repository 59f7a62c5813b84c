//! Per-frame buffer arena for the extraction pipeline.
//!
//! Video streams keep a fixed resolution, so every buffer the
//! decode → pyramid → FAST → distribute → describe path needs reaches its
//! high-water capacity after the first frame. [`FrameArena`] owns all of
//! them — pyramid level images and column table, cell task lists,
//! per-lane detection and description buffers, per-level bins, quadtree
//! scratch — so the steady-state track path performs zero heap
//! allocations per frame at one worker (enforced by the
//! allocation-regression test in `tests/alloc_regression.rs`) and one
//! stitch per lane otherwise.
//!
//! Lifecycle per frame:
//! 1. `pyramid` is rebuilt in place ([`ImagePyramid::rebuild`] reuses the
//!    level pixel buffers and its resampling column table);
//! 2. `tasks` is refilled with the frame's detection cells;
//! 3. the runner hands each lane a contiguous run of cells; a lane detects
//!    each cell into its `cell.raw`, suppresses non-maxima through its
//!    `cell.grid` (cell-local scores, zero between cells) and appends the
//!    survivors to its `detected`;
//! 4. lanes are stitched, in order, into the per-level bins in `raw`;
//! 5. `distribute` retains each level's budget into `survivors`;
//! 6. the runner hands each lane a contiguous run of survivors to describe
//!    into its `described`; lanes are stitched, in order, into the
//!    caller's `ExtractedFeatures`, which the caller also reuses.
//!
//! The arena never shrinks; dropping it releases everything at once.

use crate::distribute::DistributeScratch;
use crate::extractor::{CellTask, ExtractedFeatures};
use crate::keypoint::KeyPoint;
use crate::pyramid::ImagePyramid;

/// Scratch for detecting one cell
/// ([`crate::extractor::OrbExtractor::detect_cell_into`]), reused cell to
/// cell.
#[derive(Debug, Default)]
pub struct CellScratch {
    /// Pre-NMS corners of the last cell detected, in raster order.
    pub raw: Vec<KeyPoint>,
    /// Cell-local score grid of [`crate::fast::non_max_suppress_grid_into`],
    /// all zero between cells.
    pub(crate) grid: Vec<u16>,
}

/// One runner lane's buffers: whatever processes a contiguous chunk of a
/// batch writes here, so lanes never share mutable state.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    /// Detection scratch of the cell currently being processed.
    pub(crate) cell: CellScratch,
    /// NMS survivors of this lane's cells (level-local coordinates).
    pub(crate) detected: Vec<KeyPoint>,
    /// Finished features of this lane's survivors.
    pub(crate) described: ExtractedFeatures,
}

/// Reusable per-frame buffers for [`crate::extractor::OrbExtractor`].
#[derive(Debug, Default)]
pub struct FrameArena {
    /// Pyramid rebuilt in place each frame (no levels before the first).
    pub(crate) pyramid: ImagePyramid,
    /// The frame's cell work items.
    pub(crate) tasks: Vec<CellTask>,
    /// Per-lane buffers, sized by the runner.
    pub(crate) lanes: Vec<Lane>,
    /// Per-level detection bins (level-local coordinates).
    pub(crate) raw: Vec<Vec<KeyPoint>>,
    /// Per-level feature budgets.
    pub(crate) targets: Vec<usize>,
    /// Post-distribution survivors of every level, in level order.
    pub(crate) survivors: Vec<KeyPoint>,
    /// Quadtree distribution scratch.
    pub(crate) distribute: DistributeScratch,
}
