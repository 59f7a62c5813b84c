//! The data-parallel kernel executor.
//!
//! `par_map` is the single primitive: apply a function to every item of a
//! slice, partitioned across the executor's lanes (a modeled device's SM
//! count clamped to the host, or an explicit count for
//! [`GpuExecutor::cpu_with_workers`]), preserving item order in the
//! output; with one lane it is a sequential loop on the caller. The
//! partitioning itself is the executor's [`BatchRunner`] impl — static
//! contiguous chunks, the first run on the submitting thread and the rest
//! on scoped crossbeam threads, a worker's panic re-raised on the caller —
//! and it is the workspace's only scoped-thread chunker: the extraction
//! pipeline in `slamshare-features` drives it directly so each worker
//! keeps its own reusable buffers (the tracker extracts each eye on all
//! of a client's lanes, the right eye after the left and only for a
//! keyframe), and the edge server's round stage runs on a
//! `cpu_with_workers` executor's `par_map`.
//! [`KernelStats`] records what a kernel call ran — wall times, lane
//! time, launches and bytes handed across — and nothing modeled; what
//! that costs on a modeled device is [`crate::model::charge`]'s to say.

use crate::model::GpuModel;
use slamshare_features::extractor::BatchRunner;

/// What one kernel call (or several, accumulated) ran on the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Wall time of the host-side stages around the kernels, ms.
    pub host_ms: f64,
    /// Wall time of the kernels themselves, ms.
    pub kernel_ms: f64,
    /// Kernel wall time × the lanes each kernel ran on, ms.
    pub lane_ms: f64,
    /// Kernel launches.
    pub launches: usize,
    /// Bytes handed across between host and kernels.
    pub bytes: usize,
}

impl KernelStats {
    /// Wall time of the whole call: host stages plus kernels.
    pub fn wall_ms(&self) -> f64 {
        self.host_ms + self.kernel_ms
    }

    pub fn accumulate(&mut self, other: KernelStats) {
        self.host_ms += other.host_ms;
        self.kernel_ms += other.kernel_ms;
        self.lane_ms += other.lane_ms;
        self.launches += other.launches;
        self.bytes += other.bytes;
    }
}

/// A kernel executor: a lane count plus the chunker that spreads a batch
/// over the lanes.
#[derive(Debug, Clone)]
pub struct GpuExecutor {
    /// Worker lanes (at least 1).
    workers: usize,
}

impl GpuExecutor {
    /// An executor for `model`: one lane per SM, clamped to the host's
    /// parallelism.
    pub fn for_model(model: &GpuModel) -> GpuExecutor {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        GpuExecutor {
            workers: model.sm_count.min(host).max(1),
        }
    }

    /// The paper's sequential CPU baseline: one lane, so Fig. 5/Fig. 8
    /// measure unassisted tracking.
    pub fn cpu() -> GpuExecutor {
        GpuExecutor::cpu_with_workers(1)
    }

    /// A CPU executor that fans `par_map` across `n` workers (clamped to
    /// at least 1): same work items, same order-preserving stitch, so
    /// results are bit-identical to the sequential executor. The edge
    /// server's round stage and the determinism tests' schedules run on
    /// it.
    pub fn cpu_with_workers(n: usize) -> GpuExecutor {
        GpuExecutor { workers: n.max(1) }
    }

    pub fn v100() -> GpuExecutor {
        GpuExecutor::for_model(&GpuModel::v100())
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item, in parallel across the workers (on the
    /// caller with one worker or fewer than two items). Output order
    /// matches input order regardless of scheduling.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers <= 1 || items.len() < 2 {
            return items.iter().map(&f).collect();
        }
        let mut slots: Vec<Vec<R>> = Vec::new();
        self.for_each_chunk(items, &mut slots, |chunk, slot| {
            slot.extend(chunk.iter().map(&f));
        });
        slots.into_iter().flatten().collect()
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
    use std::time::Instant;

    #[test]
    fn cpu_and_gpu_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let a = GpuExecutor::cpu().par_map(&items, |x| x * x + 1);
        let b = GpuExecutor::v100().par_map(&items, |x| x * x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn order_preserved() {
        let items: Vec<usize> = (0..257).collect();
        let out = GpuExecutor::v100().par_map(&items, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_single_item() {
        let gpu = GpuExecutor::v100();
        let out = gpu.par_map::<u32, u32, _>(&[], |&x| x);
        assert!(out.is_empty());
        assert_eq!(gpu.par_map(&[5u32], |&x| x + 1), vec![6]);
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
        let a = cpu.par_map(&items, burn);
        let cpu_time = t0.elapsed();
        let t1 = Instant::now();
        let b = gpu.par_map(&items, burn);
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
        let seq = GpuExecutor::cpu().par_map(&items, f);
        for w in [2, 3, 5, 16] {
            let out = GpuExecutor::cpu_with_workers(w).par_map(&items, f);
            assert_eq!(out, seq, "worker count {w} changed results");
        }
    }

    #[test]
    fn worker_counts() {
        assert_eq!(GpuExecutor::cpu_with_workers(0).workers(), 1);
        assert_eq!(GpuExecutor::cpu_with_workers(7).workers(), 7);
        assert_eq!(GpuExecutor::cpu().workers(), 1);
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let v100 = GpuModel::v100().sm_count;
        assert_eq!(GpuExecutor::v100().workers(), v100.min(host));
        let mut one_sm = GpuModel::v100();
        one_sm.sm_count = 1;
        assert_eq!(GpuExecutor::for_model(&one_sm).workers(), 1);
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
}
