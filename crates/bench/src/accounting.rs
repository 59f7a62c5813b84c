//! Client resource accounting: CPU and bandwidth.
//!
//! The resource metrics of §5.8 (client CPU utilization, Fig. 13) and the
//! bandwidth bookkeeping of Table 3 / §5.7, kept by the simulated devices
//! ([`crate::client::ClientDevice`], [`crate::baseline::BaselineClient`]).

/// Client-side CPU accounting in *core-milliseconds* of work, bucketed per
/// wall-clock second — the psutil-style measurement of Fig. 13.
///
/// Work is charged from the real wall time of the client's real
/// computations (video encoding, IMU integration for SLAM-Share; full
/// tracking + mapping for the baseline), so the resulting utilization
/// ratio between the two systems is a ratio of work actually performed.
#[derive(Debug, Clone, Default)]
pub struct CpuAccounting {
    /// `(second_index, core_ms_of_work)` buckets.
    buckets: Vec<f64>,
}

/// The testbed's core count: "100 % CPU utilization means all the 40 CPU
/// cores are fully utilized" (§5.8).
pub const TESTBED_CORES: f64 = 40.0;

impl CpuAccounting {
    pub fn new() -> CpuAccounting {
        CpuAccounting::default()
    }

    /// Charge `work_ms` of single-core work at time `t` seconds.
    pub fn charge(&mut self, t: f64, work_ms: f64) {
        let idx = t.max(0.0) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += work_ms;
    }

    /// Utilization per second as a percentage of the whole 40-core box
    /// (the paper's y-axis in Fig. 13).
    pub fn utilization_percent(&self) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|ms| ms / (TESTBED_CORES * 1000.0) * 100.0)
            .collect()
    }

    /// Mean utilization (% of the 40-core box).
    pub fn mean_percent(&self) -> f64 {
        let u = self.utilization_percent();
        if u.is_empty() {
            0.0
        } else {
            u.iter().sum::<f64>() / u.len() as f64
        }
    }

    /// Mean utilization as a fraction of a *single* core (the paper also
    /// quotes "0.7 % of one CPU core").
    pub fn mean_single_core_percent(&self) -> f64 {
        self.mean_percent() * TESTBED_CORES
    }

    pub fn total_work_ms(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

/// Uplink/downlink byte accounting bucketed per second, reported as
/// bitrates.
#[derive(Debug, Clone, Default)]
pub struct BandwidthAccounting {
    buckets: Vec<u64>,
}

impl BandwidthAccounting {
    pub fn new() -> BandwidthAccounting {
        BandwidthAccounting::default()
    }

    pub fn charge(&mut self, t: f64, bytes: usize) {
        let idx = t.max(0.0) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes as u64;
    }

    /// Mean bitrate in Mbit/s over the charged interval.
    pub fn mean_mbps(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        let total_bits: u64 = self.buckets.iter().sum::<u64>() * 8;
        total_bits as f64 / self.buckets.len() as f64 / 1e6
    }

    pub fn total_bytes(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Peak per-second bitrate in Mbit/s.
    pub fn peak_mbps(&self) -> f64 {
        self.buckets
            .iter()
            .map(|&b| b as f64 * 8.0 / 1e6)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_buckets_accumulate() {
        let mut cpu = CpuAccounting::new();
        cpu.charge(0.1, 100.0);
        cpu.charge(0.9, 100.0);
        cpu.charge(1.5, 400.0);
        let u = cpu.utilization_percent();
        assert_eq!(u.len(), 2);
        // 200 core-ms in second 0 over 40 000 available = 0.5 %.
        assert!((u[0] - 0.5).abs() < 1e-12);
        assert!((u[1] - 1.0).abs() < 1e-12);
        assert!((cpu.mean_percent() - 0.75).abs() < 1e-12);
        assert!((cpu.mean_single_core_percent() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_rates() {
        let mut bw = BandwidthAccounting::new();
        bw.charge(0.0, 125_000); // 1 Mbit in second 0
        bw.charge(1.0, 250_000); // 2 Mbit in second 1
        assert!((bw.mean_mbps() - 1.5).abs() < 1e-12);
        assert!((bw.peak_mbps() - 2.0).abs() < 1e-12);
        assert_eq!(bw.total_bytes(), 375_000);
    }
}
