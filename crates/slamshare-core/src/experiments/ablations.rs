//! Ablations of SLAM-Share's design choices (DESIGN.md §5).
//!
//! The paper's evaluation compares whole systems; these ablations isolate
//! the individual mechanisms:
//!
//! * **IMU assist off** — Table 2 rerun where the client holds its last
//!   server pose instead of dead-reckoning (what §4.2.2 argues against);
//! * **GPU sharing under load** — per-client modeled tracking latency as
//!   concurrent clients shrink each GSlice slice (§4.2.1's
//!   spatio-temporal sharing);
//! * **Shared memory off** is Table 4's baseline column; **video off** is
//!   Table 3's image column — both already covered by their experiments.

use super::Effort;
use serde::Serialize;
use slamshare_gpu::model::charge;
use slamshare_gpu::{kernels, GpuModel, SharedGpu};
use slamshare_math::Vec3;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::imu::ClientMotionModel;

/// IMU-assist ablation at one RTT.
#[derive(Debug, Clone, Serialize)]
pub struct ImuAblationRow {
    pub rtt_ms: f64,
    /// ATE (cm) with the Algorithm-1 IMU chain.
    pub with_imu_cm: f64,
    /// ATE (cm) holding the last server pose (no IMU).
    pub without_imu_cm: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct ImuAblationResult {
    pub rows: Vec<ImuAblationRow>,
}

/// Rerun the Table-2 replay with and without IMU deltas.
pub fn run_imu_ablation(effort: Effort) -> ImuAblationResult {
    let frames = effort.frames(240);
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(frames)
            .with_seed(7),
    );

    // "Server poses" = ground truth here: the ablation isolates the client
    // chain, not server accuracy.
    let times: Vec<f64> = (0..frames).map(|i| ds.frame_time(i)).collect();
    let gt: Vec<(f64, Vec3)> = (0..frames)
        .map(|i| (ds.frame_time(i), ds.gt_position(i)))
        .collect();
    let mut deltas = vec![slamshare_slam::imu::Preintegrated::identity()];
    for i in 1..frames {
        let samples = ds.imu_between(times[i - 1], times[i]);
        deltas.push(slamshare_slam::imu::Preintegrated::integrate(
            samples,
            ds.trajectory.pose_wc(times[i - 1]).rot,
        ));
    }

    let rtts: Vec<f64> = match effort {
        Effort::Smoke => vec![100.0, 500.0],
        _ => vec![33.0, 100.0, 200.0, 300.0, 500.0, 1000.0],
    };
    let rows = rtts
        .into_iter()
        .map(|rtt_ms| {
            let rtt = rtt_ms / 1e3;
            let run = |use_imu: bool| -> f64 {
                let mut model = ClientMotionModel::new();
                model.init(ds.gt_pose_cw(0));
                let mut est = vec![(times[0], ds.gt_position(0))];
                for i in 1..frames {
                    let now = times[i];
                    for j in (0..i).rev() {
                        if times[j] + rtt <= now {
                            model.recv_slam_pose(ds.gt_pose_cw(j), j);
                            break;
                        }
                    }
                    let pose = if use_imu {
                        model.approx_pose_update_mm(deltas[i], i)
                    } else {
                        // Hold: copy the previous entry forward (zero
                        // delta), i.e. no motion compensation at all.
                        model.approx_pose_update_mm(
                            slamshare_slam::imu::Preintegrated {
                                dt: times[i] - times[i - 1],
                                ..slamshare_slam::imu::Preintegrated::identity()
                            },
                            i,
                        )
                    };
                    est.push((now, pose.camera_center()));
                }
                // Raw RMSE (no alignment): the client chain lives in the
                // true world frame already, and the hold-last variant can
                // produce coincident estimates that a similarity alignment
                // cannot even be fit to.
                let se: f64 = est
                    .iter()
                    .zip(&gt)
                    .map(|((_, e), (_, g))| (*e - *g).norm_sq())
                    .sum();
                (se / est.len() as f64).sqrt() * 100.0
            };
            ImuAblationRow {
                rtt_ms,
                with_imu_cm: run(true),
                without_imu_cm: run(false),
            }
        })
        .collect();
    ImuAblationResult { rows }
}

impl ImuAblationResult {
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.0}", r.rtt_ms),
                    format!("{:.2}", r.with_imu_cm),
                    format!("{:.2}", r.without_imu_cm),
                ]
            })
            .collect();
        format!(
            "Ablation: IMU assist (client-side dead reckoning)\n{}",
            super::render_table(
                &["RTT (ms)", "with IMU ATE (cm)", "hold-last ATE (cm)"],
                &rows
            )
        )
    }
}

/// GPU-sharing ablation: modeled extraction latency per client as clients
/// multiply and each GSlice slice shrinks.
#[derive(Debug, Clone, Serialize)]
pub struct GpuSharingRow {
    pub clients: usize,
    pub sms_per_client: usize,
    pub modeled_extract_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct GpuSharingResult {
    pub rows: Vec<GpuSharingRow>,
}

pub fn run_gpu_sharing(effort: Effort) -> GpuSharingResult {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(1)
            .with_seed(3),
    );
    let frame = ds.render_frame(0);
    let extractor = slamshare_features::OrbExtractor::with_defaults();

    let counts: Vec<usize> = match effort {
        Effort::Smoke => vec![1, 4],
        _ => vec![1, 2, 4, 8, 16],
    };
    let rows = counts
        .into_iter()
        .map(|clients| {
            let gpu = SharedGpu::new(GpuModel::v100());
            for id in 0..clients {
                gpu.register(id as u32);
            }
            let exec = gpu.executor(0).unwrap();
            let (_, stats) = kernels::gpu_extract(&exec, &extractor, &frame);
            let sms = gpu.slice_sms()[&0];
            GpuSharingRow {
                clients,
                sms_per_client: sms,
                modeled_extract_ms: charge(gpu.model(), sms, &stats),
            }
        })
        .collect();
    GpuSharingResult { rows }
}

impl GpuSharingResult {
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.clients.to_string(),
                    r.sms_per_client.to_string(),
                    format!("{:.1}", r.modeled_extract_ms),
                ]
            })
            .collect();
        format!(
            "Ablation: GSlice GPU sharing (per-client modeled extraction)\n{}",
            super::render_table(&["clients", "SMs/client", "extract ms (modeled)"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imu_assist_beats_holding_last_pose() {
        let r = run_imu_ablation(Effort::Smoke);
        for row in &r.rows {
            assert!(row.with_imu_cm.is_finite() && row.without_imu_cm.is_finite());
            // At low RTT both are near-perfect (ties allowed); the IMU must
            // never be materially worse.
            assert!(
                row.with_imu_cm <= row.without_imu_cm + 0.5,
                "IMU chain worse than holding at {} ms RTT: {:.2} vs {:.2}",
                row.rtt_ms,
                row.with_imu_cm,
                row.without_imu_cm
            );
        }
        // At the highest RTT the IMU chain must clearly win.
        let worst = r.rows.last().unwrap();
        assert!(
            worst.with_imu_cm < worst.without_imu_cm,
            "at {} ms RTT IMU should win: {:.2} vs {:.2}",
            worst.rtt_ms,
            worst.with_imu_cm,
            worst.without_imu_cm
        );
        // The gap widens with RTT.
        let first = &r.rows[0];
        let last = r.rows.last().unwrap();
        assert!(
            last.without_imu_cm - last.with_imu_cm >= first.without_imu_cm - first.with_imu_cm,
            "gap should grow with RTT"
        );
    }

    #[test]
    fn slices_shrink_and_latency_grows() {
        let r = run_gpu_sharing(Effort::Smoke);
        assert!(r.rows.len() >= 2);
        assert_eq!(r.rows[0].sms_per_client, GpuModel::v100().sm_count);
        assert!(r.rows[0].sms_per_client >= r.rows[1].sms_per_client);
        assert!(
            r.rows[1].modeled_extract_ms >= r.rows[0].modeled_extract_ms * 0.8,
            "sharing should not make a slice faster: {:?}",
            r.rows
        );
    }
}
