//! # slamshare-gpu
//!
//! The simulated-GPU substrate.
//!
//! The paper runs two CUDA kernels on an NVIDIA V100 — FAST feature
//! extraction and *search local points* (§4.2.1) — and shares the GPU
//! spatio-temporally across clients (GSlice, its ref. [19]). No GPU exists
//! here, so this crate models one at the level the paper's claims live at:
//!
//! * an [`exec::GpuExecutor`] is a lane count plus the chunker that runs
//!   *pure per-item work functions* across the lanes (host threads stand
//!   in for streaming multiprocessors) — the same work items, from the
//!   same pipeline, that a one-lane executor runs in one loop, so results
//!   are bit-identical, only latency differs (the paper makes the same
//!   identical-computation claim for its kernels);
//! * [`kernels`] runs the two paper kernels on an executor and returns
//!   the [`exec::KernelStats`] of what they ran: wall times, lane time,
//!   launches and bytes handed across;
//! * [`model::charge`] is the one place those stats become modeled time
//!   on a [`model::GpuModel`] (SM-scaled compute plus kernel-launch and
//!   host↔device copy overheads) — for the experiments that report a
//!   discrete accelerator's latency, never inside the server;
//! * [`share::SharedGpu`] implements GSlice-style spatial partitioning so
//!   several client processes extract features concurrently.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod exec;
pub mod kernels;
pub mod model;
pub mod share;

pub use exec::{GpuExecutor, KernelStats};
pub use model::GpuModel;
pub use share::{SharedGpu, SlicePriority};
