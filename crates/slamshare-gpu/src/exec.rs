//! The data-parallel kernel executor.
//!
//! `par_map` is the single primitive: apply a pure function to every item
//! of a slice, partitioned across the device's SM pool (scoped crossbeam
//! threads), preserving item order in the output. On `Device::Cpu` it
//! degenerates to a sequential loop. The partitioning itself is the
//! executor's [`BatchRunner`] impl, which the extraction pipeline in
//! `slamshare-features` drives directly so each worker keeps its own
//! reusable buffers. [`KernelStats`] reports both the real
//! wall time and the modeled overheads (launch + copies) so experiment
//! harnesses can account a discrete accelerator's latency honestly.

use crate::device::{Device, GpuModel};
use slamshare_features::extractor::BatchRunner;
use std::time::Instant;

/// Statistics from one kernel execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Real wall-clock compute time, ms.
    pub compute_ms: f64,
    /// Modeled device compute time, ms: the wall time this kernel would
    /// take with the model's full SM count. On hosts with fewer cores
    /// than the modeled device (this workspace's CI boxes have 2), the
    /// worker pool cannot physically express a V100's parallelism, so the
    /// *simulated* latency scales the measured work by
    /// `workers / sm_count` (both hot kernels — FAST cells and projection
    /// queries — are embarrassingly parallel, making linear scaling the
    /// honest model). Equals `compute_ms` on the CPU device.
    pub modeled_compute_ms: f64,
    /// Modeled kernel-launch overhead, ms (0 on CPU).
    pub launch_ms: f64,
    /// Modeled host↔device copy time, ms (0 on CPU).
    pub copy_ms: f64,
}

impl KernelStats {
    /// Time spent on the host: costs the same on every device.
    pub(crate) fn host(ms: f64) -> KernelStats {
        KernelStats {
            compute_ms: ms,
            modeled_compute_ms: ms,
            ..KernelStats::default()
        }
    }

    /// Real wall-clock latency of this kernel on the host.
    pub fn total_ms(&self) -> f64 {
        self.compute_ms + self.launch_ms + self.copy_ms
    }

    /// Simulated device latency (what the experiment should charge for a
    /// kernel on the modeled accelerator).
    pub fn modeled_total_ms(&self) -> f64 {
        self.modeled_compute_ms + self.launch_ms + self.copy_ms
    }

    pub fn accumulate(&mut self, other: KernelStats) {
        self.compute_ms += other.compute_ms;
        self.modeled_compute_ms += other.modeled_compute_ms;
        self.launch_ms += other.launch_ms;
        self.copy_ms += other.copy_ms;
    }
}

/// A kernel executor bound to a device.
#[derive(Debug, Clone)]
pub struct GpuExecutor {
    pub device: Device,
    /// Effective worker count (SMs clamped to host parallelism).
    workers: usize,
    /// The modeled SM count (unclamped) for latency scaling.
    model_sms: usize,
}

impl GpuExecutor {
    pub fn new(device: Device) -> GpuExecutor {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = match &device {
            Device::Cpu => 1,
            Device::Gpu(m) => m.sm_count.min(host).max(1),
        };
        let model_sms = match &device {
            Device::Cpu => 1,
            Device::Gpu(m) => m.sm_count.max(1),
        };
        GpuExecutor {
            device,
            workers,
            model_sms,
        }
    }

    pub fn cpu() -> GpuExecutor {
        GpuExecutor::new(Device::Cpu)
    }

    /// A CPU executor that fans `par_map` across every host core. Unlike
    /// [`GpuExecutor::cpu`] (the paper's sequential CPU baseline, which
    /// must stay single-threaded so Fig. 5/Fig. 8 measure unassisted
    /// tracking), this is the data-parallel CPU path: same work items,
    /// same order-preserving stitch, so results are bit-identical to the
    /// sequential executor.
    pub fn cpu_parallel() -> GpuExecutor {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        GpuExecutor::cpu_with_workers(host)
    }

    /// CPU executor with an explicit worker count (used by determinism
    /// tests to compare schedules; `n` is clamped to at least 1).
    pub fn cpu_with_workers(n: usize) -> GpuExecutor {
        let workers = n.max(1);
        GpuExecutor {
            device: Device::Cpu,
            workers,
            model_sms: workers,
        }
    }

    pub fn v100() -> GpuExecutor {
        GpuExecutor::new(Device::Gpu(GpuModel::v100()))
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The modeled SM count behind this executor (unclamped by host
    /// parallelism) — what a slice of the shared GPU is worth on the
    /// modeled device, even when the host can't physically express it.
    pub fn model_sms(&self) -> usize {
        self.model_sms
    }

    fn model(&self) -> Option<&GpuModel> {
        match &self.device {
            Device::Cpu => None,
            Device::Gpu(m) => Some(m),
        }
    }

    /// Apply `f` to every item, in parallel on a GPU device. Output order
    /// matches input order regardless of scheduling. `transfer_bytes` is
    /// the modeled host↔device traffic for the copy-cost model (pass 0
    /// when the data is already resident).
    pub fn par_map<T, R, F>(
        &self,
        items: &[T],
        transfer_bytes: usize,
        f: F,
    ) -> (Vec<R>, KernelStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut out = Vec::new();
        let stats = self.par_map_into(items, transfer_bytes, &mut out, f);
        (out, stats)
    }

    /// [`GpuExecutor::par_map`] writing into a caller-owned output buffer.
    /// On the sequential path (one worker, or fewer than two items) this
    /// is `clear` + `extend` — zero heap allocations once `out` has grown
    /// to its high-water capacity, which is what lets the mapping kernels
    /// run allocation-free in the steady state. The parallel path
    /// allocates one stitch buffer per worker (per kernel launch, never
    /// per item).
    pub fn par_map_into<T, R, F>(
        &self,
        items: &[T],
        transfer_bytes: usize,
        out: &mut Vec<R>,
        f: F,
    ) -> KernelStats
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let t0 = Instant::now();
        out.clear();
        if self.workers <= 1 || items.len() < 2 {
            out.extend(items.iter().map(&f));
        } else {
            let mut slots: Vec<Vec<R>> = Vec::new();
            self.for_each_chunk(items, &mut slots, |chunk, slot| {
                slot.extend(chunk.iter().map(&f));
            });
            out.extend(slots.into_iter().flatten());
        }
        self.kernel_stats(t0.elapsed().as_secs_f64() * 1e3, transfer_bytes)
    }

    /// What one kernel that ran for `compute_ms` on this executor's
    /// workers and moved `transfer_bytes` between host and device costs:
    /// the launch and copy overheads of the device model, and the measured
    /// work rescaled from the workers the host could actually supply to
    /// the device's SM count. On a CPU device it is `compute_ms` alone.
    pub(crate) fn kernel_stats(&self, compute_ms: f64, transfer_bytes: usize) -> KernelStats {
        match self.model() {
            Some(m) => KernelStats {
                compute_ms,
                modeled_compute_ms: compute_ms * self.workers as f64 / self.model_sms as f64,
                launch_ms: m.launch_ms(),
                copy_ms: m.copy_ms(transfer_bytes),
            },
            None => KernelStats::host(compute_ms),
        }
    }
}

/// The executor as the extraction pipeline's runner: contiguous chunks,
/// one per worker, on scoped threads. FAST cells and projection queries
/// have fairly even cost, so static partitioning is adequate and
/// deterministic.
impl BatchRunner for GpuExecutor {
    fn for_each_chunk<T, S, F>(&self, items: &[T], lanes: &mut Vec<S>, f: F)
    where
        T: Sync,
        S: Send + Default,
        F: Fn(&[T], &mut S) + Sync,
    {
        let chunk = items.len().div_ceil(self.workers).max(1);
        let n_chunks = items.len().div_ceil(chunk).max(1);
        lanes.resize_with(n_chunks, S::default);
        if let [lane] = lanes.as_mut_slice() {
            return f(items, lane);
        }
        let f = &f;
        let scope_result = crossbeam::thread::scope(|scope| {
            for (items, lane) in items.chunks(chunk).zip(lanes.iter_mut()) {
                scope.spawn(move |_| f(items, lane));
            }
        });
        if let Err(payload) = scope_result {
            // A worker panicked: re-raise the original panic on the
            // submitting thread rather than swallowing it.
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_gpu_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let cpu = GpuExecutor::cpu();
        let gpu = GpuExecutor::v100();
        let (a, _) = cpu.par_map(&items, 0, |x| x * x + 1);
        let (b, _) = gpu.par_map(&items, 0, |x| x * x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn order_preserved() {
        let items: Vec<usize> = (0..257).collect();
        let gpu = GpuExecutor::v100();
        let (out, _) = gpu.par_map(&items, 0, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single_item() {
        let gpu = GpuExecutor::v100();
        let (out, _) = gpu.par_map::<u32, u32, _>(&[], 0, |&x| x);
        assert!(out.is_empty());
        let (one, _) = gpu.par_map(&[5u32], 0, |&x| x + 1);
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn gpu_charges_overheads() {
        let gpu = GpuExecutor::v100();
        let (_, stats) = gpu.par_map(&[1, 2, 3], 1 << 20, |&x: &i32| x);
        assert!(stats.launch_ms > 0.0);
        assert!(stats.copy_ms > 0.05);
        let cpu = GpuExecutor::cpu();
        let (_, stats) = cpu.par_map(&[1, 2, 3], 1 << 20, |&x: &i32| x);
        assert_eq!(stats.launch_ms, 0.0);
        assert_eq!(stats.copy_ms, 0.0);
    }

    #[test]
    fn parallel_speedup_on_heavy_items() {
        // Only meaningful with >1 host core, but must at least not be
        // pathologically slower.
        fn burn(x: &u64) -> u64 {
            let mut acc = *x;
            for i in 0..40_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        }
        let items: Vec<u64> = (0..64).collect();
        let cpu = GpuExecutor::cpu();
        let gpu = GpuExecutor::v100();
        let t0 = Instant::now();
        let (a, _) = cpu.par_map(&items, 0, burn);
        let cpu_time = t0.elapsed();
        let t1 = Instant::now();
        let (b, _) = gpu.par_map(&items, 0, burn);
        let gpu_time = t1.elapsed();
        assert_eq!(a, b);
        if gpu.workers() > 2 {
            assert!(
                gpu_time < cpu_time,
                "no speedup: gpu {gpu_time:?} vs cpu {cpu_time:?} ({} workers)",
                gpu.workers()
            );
        }
    }

    #[test]
    fn cpu_parallel_matches_sequential_bitwise() {
        let items: Vec<u64> = (0..999).collect();
        let f = |x: &u64| x.wrapping_mul(6364136223846793005).rotate_left(17);
        let (seq, _) = GpuExecutor::cpu().par_map(&items, 0, f);
        for w in [2, 3, 5, 16] {
            let par = GpuExecutor::cpu_with_workers(w);
            assert!(!par.device.is_gpu());
            let (out, stats) = par.par_map(&items, 0, f);
            assert_eq!(out, seq, "worker count {w} changed results");
            // CPU device: no modeled launch/copy overheads, modeled
            // compute equals measured compute.
            assert_eq!(stats.launch_ms, 0.0);
            assert_eq!(stats.copy_ms, 0.0);
            assert_eq!(stats.modeled_compute_ms, stats.compute_ms);
        }
    }

    #[test]
    fn cpu_parallel_worker_counts() {
        assert!(GpuExecutor::cpu_parallel().workers() >= 1);
        assert_eq!(GpuExecutor::cpu_with_workers(0).workers(), 1);
        assert_eq!(GpuExecutor::cpu_with_workers(7).workers(), 7);
        assert_eq!(GpuExecutor::cpu().workers(), 1);
    }

    #[test]
    fn par_map_into_reuses_buffer_and_matches_par_map() {
        let items: Vec<u64> = (0..300).collect();
        let f = |x: &u64| x * 3 + 1;
        for exec in [GpuExecutor::cpu(), GpuExecutor::cpu_with_workers(4)] {
            let (expect, _) = exec.par_map(&items, 0, f);
            let mut out = Vec::new();
            exec.par_map_into(&items, 0, &mut out, f);
            assert_eq!(out, expect);
            let cap = out.capacity();
            // Second run over the same-size input must not regrow.
            exec.par_map_into(&items, 0, &mut out, f);
            assert_eq!(out, expect);
            assert_eq!(out.capacity(), cap);
        }
    }

    #[test]
    fn model_sms_reports_unclamped_slice() {
        assert_eq!(GpuExecutor::v100().model_sms(), GpuModel::v100().sm_count);
        assert_eq!(GpuExecutor::cpu().model_sms(), 1);
        assert_eq!(GpuExecutor::cpu_with_workers(7).model_sms(), 7);
    }

    #[test]
    fn stats_accumulate() {
        let mut total = KernelStats::default();
        total.accumulate(KernelStats {
            compute_ms: 1.0,
            modeled_compute_ms: 0.5,
            launch_ms: 0.1,
            copy_ms: 0.2,
        });
        total.accumulate(KernelStats {
            compute_ms: 2.0,
            modeled_compute_ms: 1.0,
            launch_ms: 0.1,
            copy_ms: 0.3,
        });
        assert!((total.total_ms() - 3.7).abs() < 1e-12);
        assert!((total.modeled_total_ms() - 2.2).abs() < 1e-12);
    }

    #[test]
    fn modeled_latency_scales_to_sm_count() {
        // On any host, the modeled device latency must be compute scaled
        // by workers/sm_count (linear-scaling model for data-parallel
        // kernels).
        fn burn(x: &u64) -> u64 {
            let mut acc = *x;
            for i in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        }
        let gpu = GpuExecutor::v100();
        let items: Vec<u64> = (0..64).collect();
        let (_, stats) = gpu.par_map(&items, 0, burn);
        let expected = stats.compute_ms * gpu.workers() as f64 / GpuModel::v100().sm_count as f64;
        assert!((stats.modeled_compute_ms - expected).abs() < 1e-9);
        assert!(stats.modeled_total_ms() <= stats.total_ms() + 1e-9);
    }
}
