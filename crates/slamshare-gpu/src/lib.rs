//! # slamshare-gpu
//!
//! The simulated-GPU substrate.
//!
//! The paper runs two CUDA kernels on an NVIDIA V100 — FAST feature
//! extraction and *search local points* (§4.2.1) — and shares the GPU
//! spatio-temporally across clients (GSlice, its ref. [19]). No GPU exists
//! here, so this crate models one at the level the paper's claims live at:
//!
//! * a [`device::Device`] is either `Cpu` (sequential execution) or
//!   `Gpu(GpuModel)` (a worker pool standing in for streaming
//!   multiprocessors, plus a SIMT cost model charging kernel-launch and
//!   host↔device copy overheads);
//! * an [`exec::GpuExecutor`] runs *pure per-item work functions* across
//!   the pool — the same work items, from the same pipeline, that a CPU
//!   device runs in one loop, so results are bit-identical, only latency
//!   differs (the paper makes the same identical-computation claim for
//!   its kernels);
//! * [`kernels`] runs the two paper kernels on an executor and charges
//!   them on its device's clock;
//! * [`share::SharedGpu`] implements GSlice-style spatial partitioning so
//!   several client processes extract features concurrently.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod device;
pub mod exec;
pub mod kernels;
pub mod share;

pub use device::{Device, GpuModel};
pub use exec::{GpuExecutor, KernelStats};
pub use share::{SharedGpu, SlicePriority};
