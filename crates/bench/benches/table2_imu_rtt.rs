//! Bench: Table 2 — IMU-compensated accuracy vs. RTT, plus the
//! Algorithm-1 motion-model kernel (the client's per-frame work).

use bench::experiments::table2;
use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use slamshare_math::{Quat, Vec3, SE3};
use slamshare_slam::imu::{ClientMotionModel, Preintegrated};

fn bench(c: &mut Criterion) {
    let result = table2::run(bench_effort());
    println!("\n{}", result.render_text());
    save_json("table2_imu_rtt", &result);

    // Kernel: 30 frames of ApproxPose_UpdateMM + one Recv_SLAMPose
    // re-propagation (the worst-case 1 s RTT path).
    let delta = Preintegrated {
        dt: 1.0 / 30.0,
        d_rot: Quat::from_axis_angle(Vec3::Z, 0.002),
        d_vel: Vec3::new(0.001, 0.0, 0.0),
        d_pos: Vec3::new(0.02, 0.001, 0.0),
    };
    c.bench_function("table2/alg1_30frame_chain_plus_correction", |b| {
        b.iter(|| {
            let mut m = ClientMotionModel::new();
            m.init(SE3::IDENTITY);
            for i in 1..=30 {
                m.approx_pose_update_mm(std::hint::black_box(delta), i);
            }
            m.recv_slam_pose(SE3::from_translation(Vec3::new(0.01, 0.0, 0.0)), 1);
            m.pose(30)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
