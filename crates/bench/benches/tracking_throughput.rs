//! Bench (extension): multi-client tracking throughput through the
//! concurrent round pipeline (`EdgeServer::process_queued_round`) vs the same
//! workload processed sequentially — the perf trajectory behind the
//! paper's "one edge server, many users" claim (Figs. 10/13).
//!
//! Writes `results/BENCH_tracking.json`: per client count, the measured
//! per-client FPS, p50/p95 round latency and the measured speedup over
//! sequential processing (one round worker for decode and track) on the
//! `host_cores` it records. Every number is wall-clock.

use bench::{bench_effort, save_json};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{EdgeServer, ServerConfig};
use slamshare_gpu::GpuExecutor;
use slamshare_net::codec::VideoEncoder;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::tracking::{Tracker, TrackerConfig};
use slamshare_slam::vocabulary;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    clients: usize,
    /// Effective frames per second each client sees through the round
    /// pipeline (1000 / mean round ms).
    fps_per_client: f64,
    p50_frame_ms: f64,
    p95_frame_ms: f64,
    /// Mean round wall time with round_workers = clients vs = 1, on this
    /// host's cores.
    measured_speedup_vs_sequential: f64,
}

#[derive(Serialize)]
struct BenchTracking {
    host_cores: usize,
    frames_per_client: usize,
    rows: Vec<Row>,
}

struct Workload {
    datasets: Vec<Dataset>,
    encoders: Vec<(VideoEncoder, VideoEncoder)>,
}

impl Workload {
    fn new(clients: usize, frames: usize) -> Workload {
        let datasets = (0..clients)
            .map(|c| {
                Dataset::build(
                    DatasetConfig::new(TracePreset::V202)
                        .with_frames(frames)
                        .with_seed(71 + c as u64),
                )
            })
            .collect();
        let encoders = (0..clients).map(|_| Default::default()).collect();
        Workload { datasets, encoders }
    }

    fn server(&self, workers: usize) -> EdgeServer {
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(self.datasets[0].rig), vocab);
        server.set_round_workers(workers);
        for c in 0..self.datasets.len() {
            server
                .try_register_client(c as u16 + 1)
                .expect("fresh server");
        }
        server
    }
}

/// Run the whole workload through one server; returns per-round wall ms.
fn run_workload(workload: &mut Workload, server: &EdgeServer, frames: usize) -> Vec<f64> {
    let mut round_ms = Vec::with_capacity(frames);
    for i in 0..frames {
        let clients = workload.datasets.iter().zip(workload.encoders.iter_mut());
        for (c, (ds, (el, er))) in clients.enumerate() {
            let (l, r) = ds.render_stereo_frame(i);
            let frame = QueuedFrame {
                frame_idx: i,
                timestamp: ds.frame_time(i),
                left: el.encode(&l).data.to_vec(),
                right: Some(er.encode(&r).data.to_vec()),
                pose_hint: (c == 0 && i == 0).then(|| ds.gt_pose_cw(0)),
                ..QueuedFrame::default()
            };
            server
                .offer_frame(c as u16 + 1, frame)
                .expect("registered client");
        }
        let t0 = Instant::now();
        server.process_queued_round();
        round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    round_ms
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn bench(c: &mut Criterion) {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let frames = bench_effort().frames(30).clamp(10, 30);
    let mut rows = Vec::new();

    for clients in [1usize, 2, 4] {
        // Sequential reference: same batch entry point, one worker.
        let mut seq_load = Workload::new(clients, frames);
        let seq_server = seq_load.server(1);
        let seq_round_ms = run_workload(&mut seq_load, &seq_server, frames);
        let seq_mean = seq_round_ms.iter().sum::<f64>() / seq_round_ms.len() as f64;

        // Concurrent pipeline: one worker per client (time-shared when
        // the host has fewer cores — measured numbers stay honest).
        let mut par_load = Workload::new(clients, frames);
        let par_server = par_load.server(clients);
        let par_round_ms = run_workload(&mut par_load, &par_server, frames);
        let par_mean = par_round_ms.iter().sum::<f64>() / par_round_ms.len() as f64;

        let mut sorted = par_round_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());

        rows.push(Row {
            clients,
            fps_per_client: 1e3 / par_mean,
            p50_frame_ms: percentile(&sorted, 0.50),
            p95_frame_ms: percentile(&sorted, 0.95),
            measured_speedup_vs_sequential: seq_mean / par_mean,
        });
        println!(
            "clients={clients}: {:.1} fps/client, p50 {:.1} ms, p95 {:.1} ms, \
             measured speedup {:.2}x on {host_cores} core(s)",
            1e3 / par_mean,
            percentile(&sorted, 0.50),
            percentile(&sorted, 0.95),
            seq_mean / par_mean,
        );
    }

    save_json(
        "BENCH_tracking",
        &BenchTracking {
            host_cores,
            frames_per_client: frames,
            rows,
        },
    );

    // Kernel: data-parallel CPU extraction vs the sequential extractor
    // on one frame (the Fig. 5 hot stage).
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(1)
            .with_seed(71),
    );
    let (left, _) = ds.render_stereo_frame(0);
    let seq = Tracker::new(TrackerConfig::stereo(ds.rig), Arc::new(GpuExecutor::cpu()));
    let par = Tracker::new(
        TrackerConfig::stereo(ds.rig),
        Arc::new(GpuExecutor::cpu_with_workers(host_cores)),
    );
    c.bench_function("tracking/extract_sequential", |b| {
        b.iter(|| seq.extract(&left))
    });
    c.bench_function("tracking/extract_parallel_cpu", |b| {
        b.iter(|| par.extract(&left))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
