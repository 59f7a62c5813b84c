//! The modeled accelerator and what a kernel costs on it.
//!
//! An executor only records what ran ([`KernelStats`]); [`charge`] is the
//! one place that turns such a record into modeled device time. Callers
//! that report modeled numbers — the paper-figure experiments and the
//! session driver's reply delay — charge the stats the server hands back,
//! so modeled and wall time never meet inside the server.

use crate::exec::KernelStats;
use serde::{Deserialize, Serialize};

/// Parameters of a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Number of concurrently-executing work partitions ("SMs"). An
    /// executor built for the model runs this many lanes clamped to the
    /// host's parallelism; [`charge`] spreads the work over all of them.
    pub sm_count: usize,
    /// Fixed kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
    /// Host↔device copy bandwidth, bytes per microsecond (≈ MB/ms).
    /// V100 PCIe gen3 ×16 ≈ 12 GB/s ≈ 12 000 bytes/µs.
    pub copy_bytes_per_us: f64,
}

impl GpuModel {
    /// A Tesla-V100-like model (the paper's testbed GPU).
    pub fn v100() -> GpuModel {
        GpuModel {
            sm_count: 16,
            launch_overhead_us: 8.0,
            copy_bytes_per_us: 12_000.0,
        }
    }

    /// A smaller edge-class accelerator, for ablations.
    pub fn jetson_like() -> GpuModel {
        GpuModel {
            sm_count: 4,
            launch_overhead_us: 15.0,
            copy_bytes_per_us: 4_000.0,
        }
    }

    fn launch_ms(&self) -> f64 {
        self.launch_overhead_us / 1e3
    }

    fn copy_ms(&self, bytes: usize) -> f64 {
        bytes as f64 / self.copy_bytes_per_us / 1e3
    }
}

/// What the calls behind `stats` would take, in milliseconds, on `sms`
/// SMs of `model`: host stages at their wall time, kernel work as the
/// lane-milliseconds spent spread over the SMs (both paper kernels — FAST
/// cells and projection queries — are embarrassingly parallel, so linear
/// scaling is the honest model even when the host had fewer cores than
/// the device has SMs), plus one launch overhead per kernel and the copy
/// time of every byte handed across.
pub fn charge(model: &GpuModel, sms: usize, stats: &KernelStats) -> f64 {
    stats.host_ms
        + stats.lane_ms / sms.max(1) as f64
        + stats.launches as f64 * model.launch_ms()
        + model.copy_ms(stats.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::GpuExecutor;
    use crate::kernels;
    use slamshare_features::matching::ProjectionQuery;
    use slamshare_features::Descriptor;
    use slamshare_math::Vec2;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn copy_time_scales_with_bytes() {
        let m = GpuModel::v100();
        let one_mb = m.copy_ms(1 << 20);
        let two_mb = m.copy_ms(2 << 20);
        assert!((two_mb - 2.0 * one_mb).abs() < 1e-12);
        // 1 MB over 12 GB/s ≈ 0.087 ms.
        assert!(one_mb > 0.05 && one_mb < 0.15, "one_mb = {one_mb}");
    }

    #[test]
    fn charges_launch_and_copy_overheads() {
        let m = GpuModel::v100();
        let sms = m.sm_count;
        let idle = KernelStats::default();
        assert_eq!(charge(&m, sms, &idle), 0.0);
        let launched = KernelStats {
            launches: 1,
            bytes: 1 << 20,
            ..KernelStats::default()
        };
        let cost = charge(&m, sms, &launched);
        assert!(approx(cost, m.launch_ms() + m.copy_ms(1 << 20)));
        assert!(cost > m.launch_ms() + 0.05, "cost = {cost}");
    }

    #[test]
    fn full_width_call_without_overheads_costs_its_wall_time() {
        // A call on as many lanes as the SMs it is charged on, with no
        // launch and no copy, is charged what it took: the device adds
        // nothing the host did not already spend.
        let m = GpuModel::v100();
        for lanes in [1, 3, 16] {
            let stats = KernelStats {
                host_ms: 0.5,
                kernel_ms: 2.0,
                lane_ms: 2.0 * lanes as f64,
                ..KernelStats::default()
            };
            assert!(approx(charge(&m, lanes, &stats), stats.wall_ms()));
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut total = KernelStats::default();
        total.accumulate(KernelStats {
            host_ms: 0.25,
            kernel_ms: 1.0,
            lane_ms: 2.0,
            launches: 1,
            bytes: 12_000,
        });
        total.accumulate(KernelStats {
            host_ms: 0.5,
            kernel_ms: 2.0,
            lane_ms: 4.0,
            launches: 2,
            bytes: 24_000,
        });
        assert!(approx(total.wall_ms(), 3.75));
        assert_eq!((total.launches, total.bytes), (3, 36_000));
        // 0.75 host + 6 lane-ms / 4 SMs + 3 × 8 µs + 36 000 B / 12 000 B/µs.
        let m = GpuModel::v100();
        assert!(approx(charge(&m, 4, &total), 0.75 + 1.5 + 0.024 + 0.003));
    }

    #[test]
    fn kernel_work_scales_to_the_sm_count() {
        // A real kernel's lane-ms is its wall time on the executor's
        // lanes; charged on the model's SMs it is that work spread over
        // them, plus the kernel's launch and copies, plus the host stage.
        let gpu = GpuExecutor::v100();
        let m = GpuModel::v100();
        let queries: Vec<ProjectionQuery> = (0..64)
            .map(|i| ProjectionQuery {
                descriptor: Descriptor::ZERO,
                predicted: Vec2::new(i as f64, 0.0),
                radius: 4.0,
            })
            .collect();
        let positions: Vec<Vec2> = (0..64).map(|i| Vec2::new(i as f64, 0.5)).collect();
        let descriptors = vec![Descriptor::ZERO; 64];
        let (_, stats) =
            kernels::gpu_search_local_points(&gpu, &queries, &positions, &descriptors, 50);
        assert!(approx(
            stats.lane_ms,
            stats.kernel_ms * gpu.workers() as f64
        ));
        let expected = stats.host_ms
            + stats.kernel_ms * gpu.workers() as f64 / m.sm_count as f64
            + m.launch_ms()
            + m.copy_ms(stats.bytes);
        assert!(approx(charge(&m, m.sm_count, &stats), expected));
    }

    #[test]
    fn a_share_of_the_lanes_is_charged_its_lanes_over_the_slice() {
        let gpu = GpuExecutor::v100();
        let half = GpuExecutor::cpu_with_workers(gpu.workers() / 2);
        let stats = KernelStats {
            kernel_ms: 10.0,
            lane_ms: 10.0 * half.workers() as f64,
            ..KernelStats::default()
        };
        let sms = GpuModel::v100().sm_count;
        let expected = 10.0 * half.workers() as f64 / sms as f64;
        assert!(approx(charge(&GpuModel::v100(), sms, &stats), expected));
    }

    #[test]
    fn two_half_width_calls_charge_as_one_full_width_call() {
        // Two calls, each on half the lanes: their stats accumulated are
        // charged exactly as one call on all the lanes that spent the
        // same lane-ms with the same launches and copies.
        let m = GpuModel::v100();
        let eye = |kernel_ms: f64| KernelStats {
            host_ms: 0.3,
            kernel_ms,
            lane_ms: kernel_ms * 4.0,
            launches: 2,
            bytes: 50_000,
        };
        let mut both = eye(3.0);
        both.accumulate(eye(5.0));
        let full = KernelStats {
            host_ms: 0.6,
            kernel_ms: 4.0,
            lane_ms: 32.0,
            launches: 4,
            bytes: 100_000,
        };
        for sms in [1, 8, 16] {
            assert!(approx(charge(&m, sms, &both), charge(&m, sms, &full)));
        }
    }
}
