//! The data-parallel kernel executor.
//!
//! `par_map` is the single primitive: apply a function to every item of a
//! slice, partitioned across the executor's workers (the device's SM
//! pool clamped to the host, or an explicit count for
//! [`GpuExecutor::cpu_with_workers`]), preserving item order in the
//! output; with one worker it is a sequential loop on the caller. The
//! partitioning itself is the executor's [`BatchRunner`] impl — static
//! contiguous chunks, the first run on the submitting thread and the rest
//! on scoped crossbeam threads, a worker's panic re-raised on the caller —
//! and it is the workspace's only scoped-thread chunker: the extraction
//! pipeline in `slamshare-features` drives it directly so each worker
//! keeps its own reusable buffers, the tracker extracts a stereo pair's
//! two eyes as a two-item `par_map` whose items each run on a
//! [`GpuExecutor::narrowed`] share of the lanes, and the edge server's
//! round stage runs on a `cpu_with_workers` executor's `par_map`.
//! [`KernelStats`] reports both the real wall time and the modeled
//! overheads (launch + copies) so experiment harnesses can account a
//! discrete accelerator's latency honestly.

use crate::device::{Device, GpuModel};
use slamshare_features::extractor::BatchRunner;
use std::sync::Arc;
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
///
/// What a kernel costs is charged from the executor it ran on: the
/// measured compute times `workers / model_sms`, i.e. the core-milliseconds
/// the lanes actually spent, spread over the modeled SMs. A
/// [`GpuExecutor::narrowed`] executor keeps the device and `model_sms` of
/// the one it came from, so work split across narrowed shares — the two
/// eyes of a stereo frame — is charged the same core-milliseconds over the
/// same slice as if it had run on all the lanes.
#[derive(Debug, Clone)]
pub struct GpuExecutor {
    /// Shared so a [`GpuExecutor::narrowed`] copy costs no allocation.
    pub device: Arc<Device>,
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
            device: Arc::new(device),
            workers,
            model_sms,
        }
    }

    pub fn cpu() -> GpuExecutor {
        GpuExecutor::new(Device::Cpu)
    }

    /// A CPU executor that fans `par_map` across `n` workers (clamped to
    /// at least 1). Unlike [`GpuExecutor::cpu`] (the paper's sequential
    /// CPU baseline, which must stay single-threaded so Fig. 5/Fig. 8
    /// measure unassisted tracking), this is the data-parallel CPU path:
    /// same work items, same order-preserving stitch, so results are
    /// bit-identical to the sequential executor. The edge server's round
    /// stage and the determinism tests' schedules run on it.
    pub fn cpu_with_workers(n: usize) -> GpuExecutor {
        let workers = n.max(1);
        GpuExecutor {
            device: Arc::new(Device::Cpu),
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

    /// This executor with `workers` lanes (at least 1) and the same device
    /// and modeled SM count: a share of the lanes for one of several
    /// batches run side by side, charged as described on [`GpuExecutor`].
    pub fn narrowed(&self, workers: usize) -> GpuExecutor {
        GpuExecutor {
            device: self.device.clone(),
            workers: workers.max(1),
            model_sms: self.model_sms,
        }
    }

    /// The modeled SM count behind this executor (unclamped by host
    /// parallelism) — what a slice of the shared GPU is worth on the
    /// modeled device, even when the host can't physically express it.
    pub fn model_sms(&self) -> usize {
        self.model_sms
    }

    fn model(&self) -> Option<&GpuModel> {
        match &*self.device {
            Device::Cpu => None,
            Device::Gpu(m) => Some(m),
        }
    }

    /// Apply `f` to every item, in parallel across the workers (on the
    /// caller with one worker or fewer than two items). Output order
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
        let t0 = Instant::now();
        let out = if self.workers <= 1 || items.len() < 2 {
            items.iter().map(&f).collect()
        } else {
            let mut slots: Vec<Vec<R>> = Vec::new();
            self.for_each_chunk(items, &mut slots, |chunk, slot| {
                slot.extend(chunk.iter().map(&f));
            });
            slots.into_iter().flatten().collect()
        };
        (
            out,
            self.kernel_stats(t0.elapsed().as_secs_f64() * 1e3, transfer_bytes),
        )
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
/// one per worker, the first on the submitting thread and the others on
/// scoped threads (so a batch of `n` chunks costs `n - 1` spawns, and a
/// one-chunk batch none). FAST cells and projection queries have fairly
/// even cost, so static partitioning is adequate and deterministic.
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
        let mut chunks = items.chunks(chunk).zip(lanes.iter_mut());
        let first = chunks.next();
        let scope_result = crossbeam::thread::scope(|scope| {
            for (items, lane) in chunks {
                scope.spawn(move |_| f(items, lane));
            }
            if let Some((items, lane)) = first {
                f(items, lane);
            }
        });
        if let Err(payload) = scope_result {
            // A worker (or the submitting thread's own chunk) panicked:
            // re-raise the panic on the submitting thread rather than
            // swallowing it.
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
    fn cpu_with_workers_matches_sequential_bitwise() {
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
    fn cpu_worker_counts() {
        assert_eq!(GpuExecutor::cpu_with_workers(0).workers(), 1);
        assert_eq!(GpuExecutor::cpu_with_workers(7).workers(), 7);
        assert_eq!(GpuExecutor::cpu().workers(), 1);
    }

    #[test]
    fn first_chunk_runs_on_the_submitting_thread() {
        let items: Vec<u32> = (0..12).collect();
        let exec = GpuExecutor::cpu_with_workers(3);
        let mut lanes: Vec<Option<std::thread::ThreadId>> = Vec::new();
        exec.for_each_chunk(&items, &mut lanes, |_, lane| {
            *lane = Some(std::thread::current().id());
        });
        let caller = std::thread::current().id();
        assert_eq!(lanes.len(), 3);
        assert_eq!(lanes[0], Some(caller));
        assert!(lanes[1..].iter().all(|t| t.is_some() && *t != Some(caller)));
    }

    #[test]
    fn narrowed_shares_the_device_and_the_slice() {
        let gpu = GpuExecutor::v100();
        let half = gpu.narrowed(gpu.workers() / 2);
        assert_eq!(half.workers(), (gpu.workers() / 2).max(1));
        assert_eq!(half.model_sms(), gpu.model_sms());
        assert!(Arc::ptr_eq(&half.device, &gpu.device));
        // Core-milliseconds spent on the narrowed lanes, over the slice.
        let stats = half.kernel_stats(10.0, 0);
        let expected = 10.0 * half.workers() as f64 / gpu.model_sms() as f64;
        assert!((stats.modeled_compute_ms - expected).abs() < 1e-12);
        assert_eq!(GpuExecutor::cpu_with_workers(3).narrowed(0).workers(), 1);
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
