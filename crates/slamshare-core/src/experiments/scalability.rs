//! **Scalability** (extension beyond the paper's figures): §4.3.2 argues
//! "we do not expect shared memory to be a bottleneck even with more
//! (tens) of users" because readers share the lock and only writes
//! serialize. This experiment measures it on the real server pipeline: N
//! registered clients offer one frame each per round
//! ([`EdgeServer::offer_frame`]) and [`EdgeServer::process_queued_round`]
//! runs the clients' tracking on concurrent workers (read locks on the global map) while keyframe
//! insertions and merges serialize on the write lock. We report the
//! per-round frame latency and the store's lock-contention statistics as
//! N grows.

use super::Effort;
use crate::qos::QueuedFrame;
use crate::server::{EdgeServer, ServerConfig};
use serde::Serialize;
use slamshare_net::codec::VideoEncoder;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::vocabulary;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
pub struct ScalabilityRow {
    pub clients: usize,
    pub frames_per_client: usize,
    /// Mean wall latency of one round (= one frame per client), ms.
    pub mean_frame_ms: f64,
    /// Read-lock acquisitions across the run.
    pub read_locks: u64,
    /// Write-lock acquisitions across the run.
    pub write_locks: u64,
    /// Mean lock wait per acquisition, microseconds.
    pub mean_lock_wait_us: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct ScalabilityResult {
    pub rows: Vec<ScalabilityRow>,
}

pub fn run(effort: Effort) -> ScalabilityResult {
    // Enough frames that every client bootstraps and merges into the
    // global map (the interesting, lock-heavy regime).
    let frames = effort.frames(60).clamp(10, 12);
    let counts: Vec<usize> = match effort {
        Effort::Smoke => vec![1, 4],
        Effort::Quick => vec![1, 2, 4, 8],
        Effort::Full => vec![1, 2, 4, 8, 16, 32],
    };

    // Pre-render the frame stream once; every simulated client replays it
    // from a different starting offset (what matters here is lock traffic,
    // not scene diversity).
    let max_clients = *counts.iter().max().unwrap();
    let ds = Arc::new(Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(frames + max_clients)
            .with_seed(3),
    ));
    let rendered: Vec<_> = (0..ds.frame_count())
        .map(|i| ds.render_stereo_frame(i))
        .collect();
    let vocab = Arc::new(vocabulary::train_random(42));

    let rows = counts
        .into_iter()
        .map(|n_clients| {
            let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab.clone());
            server.set_round_workers(n_clients);
            for cid in 0..n_clients {
                server
                    .try_register_client(cid as u16 + 1)
                    .expect("fresh unbounded server, distinct ids");
            }

            // Per-client encoders (the codec is stateful, delta frames).
            let mut encoders: Vec<(VideoEncoder, VideoEncoder)> =
                (0..n_clients).map(|_| Default::default()).collect();

            let mut round_ms = Vec::with_capacity(frames);
            for f in 0..frames {
                for (cid, (el, er)) in encoders.iter_mut().enumerate() {
                    let (left, right) = &rendered[f + cid]; // offset per client
                    let frame = QueuedFrame {
                        frame_idx: f,
                        timestamp: ds.frame_time(f + cid),
                        left: el.encode(left).data.to_vec(),
                        right: Some(er.encode(right).data.to_vec()),
                        // Ground-truth hints anchor every client in the
                        // world frame, keeping the focus on lock traffic
                        // rather than drift.
                        pose_hint: Some(ds.gt_pose_cw(f + cid)),
                        ..QueuedFrame::default()
                    };
                    server
                        .offer_frame(cid as u16 + 1, frame)
                        .expect("registered client");
                }
                let t0 = Instant::now();
                server.process_queued_round();
                round_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }

            let stats = server.store.lock_stats();
            let acquisitions = stats.read_acquisitions + stats.write_acquisitions;
            ScalabilityRow {
                clients: n_clients,
                frames_per_client: frames,
                mean_frame_ms: round_ms.iter().sum::<f64>() / round_ms.len() as f64,
                read_locks: stats.read_acquisitions,
                write_locks: stats.write_acquisitions,
                mean_lock_wait_us: if acquisitions == 0 {
                    0.0
                } else {
                    stats.wait_ns as f64 / acquisitions as f64 / 1e3
                },
            }
        })
        .collect();
    ScalabilityResult { rows }
}

impl ScalabilityResult {
    pub fn render_text(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.clients.to_string(),
                    format!("{:.1}", r.mean_frame_ms),
                    r.read_locks.to_string(),
                    r.write_locks.to_string(),
                    format!("{:.1}", r.mean_lock_wait_us),
                ]
            })
            .collect();
        format!(
            "Scalability: shared-map lock behaviour vs concurrent clients\n{}",
            super::render_table(
                &[
                    "clients",
                    "frame ms",
                    "read locks",
                    "write locks",
                    "wait µs/lock"
                ],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_map_survives_concurrent_clients() {
        let r = run(Effort::Smoke);
        assert_eq!(r.rows.len(), 2);
        let one = &r.rows[0];
        let many = &r.rows[1];
        assert!(many.read_locks > one.read_locks);
        assert!(many.write_locks > one.write_locks);
        // The §4.3.2 claim, scaled to this box: lock waits stay bounded
        // by (a fraction of) the frame-processing time itself. On a small
        // host, 4 workers time-share the CPU, so waits include scheduler
        // starvation — the bench reports the real distribution; the test
        // only guards against pathological serialization (seconds).
        assert!(
            many.mean_lock_wait_us < 500_000.0,
            "lock wait exploded: {} µs",
            many.mean_lock_wait_us
        );
    }
}
