//! Multi-user AR session driver (virtual time).
//!
//! Runs a set of clients over synthetic datasets against either system —
//! **SLAM-Share** (thin clients + edge server + shared map) or the
//! **Edge-SLAM-style baseline** (fat clients + periodic map exchange) —
//! with every network transfer charged on a configurable virtual-time
//! link. Produces the timelines behind Figs. 10–13 and Tables 2/4:
//! per-frame pose records (estimated vs. ground truth), merge events with
//! latencies, global-map ATE series, and per-client resource accounting.
//!
//! The SLAM-Share side is a front end over the server's one way in: each
//! tick offers every active client's upload ([`EdgeServer::offer_frame`])
//! and then drains one round ([`EdgeServer::process_queued_round`]).

use crate::baseline::{
    baseline_exchange_round, BaselineClient, BaselineConfig, BaselineRoundLatency, BaselineServer,
};
use crate::client::ClientDevice;
use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slamshare_features::bow::Vocabulary;
use slamshare_gpu::model::charge;
use slamshare_math::{Vec3, SE3};
use slamshare_net::link::{Channel, LinkConfig};
use slamshare_sim::camera::StereoRig;
use slamshare_sim::clock::SimTime;
use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slamshare_slam::eval;
use slamshare_slam::map::MapRead;
use slamshare_slam::system::SlamConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// `(t, position)` samples of a trajectory (estimated or ground truth).
type TrajectorySeries = Vec<(f64, Vec3)>;

/// Which system runs the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    SlamShare,
    Baseline,
}

/// One participating client.
#[derive(Debug, Clone)]
pub struct ClientSpec {
    pub id: u16,
    pub preset: TracePreset,
    /// Sensor-noise seed (world geometry is preset-determined).
    pub seed: u64,
    /// Session time at which this client joins, seconds.
    pub join_time: f64,
    /// First dataset frame this client plays (segmenting one trace across
    /// clients, as the paper does with KITTI-05).
    pub start_frame: usize,
    /// Number of frames this client contributes.
    pub frames: usize,
    /// Anchor this client's first frame at ground truth (gauge fixing —
    /// typically only the first client).
    pub anchor: bool,
}

/// Session configuration. Every client is a stereo device, as in the
/// paper's merge experiments.
#[derive(Clone)]
pub struct SessionConfig {
    pub kind: SystemKind,
    pub link: LinkConfig,
    pub fps: f64,
    pub clients: Vec<ClientSpec>,
    pub baseline: BaselineConfig,
    /// Sample the global-map ATE every this many seconds.
    pub map_ate_interval: f64,
}

impl SessionConfig {
    pub fn new(kind: SystemKind, clients: Vec<ClientSpec>) -> SessionConfig {
        SessionConfig {
            kind,
            link: LinkConfig::ten_gbe(),
            fps: 30.0,
            clients,
            baseline: BaselineConfig::default(),
            map_ate_interval: 1.0,
        }
    }

    pub fn with_link(mut self, link: LinkConfig) -> SessionConfig {
        self.link = link;
        self
    }

    pub fn with_fps(mut self, fps: f64) -> SessionConfig {
        self.fps = fps;
        self
    }
}

/// One client frame in the timeline.
#[derive(Debug, Clone, Copy)]
pub struct FrameRecord {
    /// Session time, seconds.
    pub t: f64,
    pub client: u16,
    /// Estimated camera center (in the frame the client believes in):
    /// the device's instant display pose (IMU chain).
    pub est: Option<Vec3>,
    /// The server's vision pose for this frame (SLAM-Share) or the local
    /// SLAM pose (baseline) — what the system would anchor holograms
    /// with once the reply lands.
    pub server_est: Option<Vec3>,
    /// Ground-truth camera center.
    pub gt: Vec3,
    /// Per-frame tracking/processing latency, ms (compute + network as
    /// experienced by the display path).
    pub latency_ms: f64,
}

/// A recorded merge.
#[derive(Debug, Clone)]
pub struct MergeEvent {
    pub t: f64,
    pub client: u16,
    pub merge_ms: f64,
    pub aligned: bool,
}

/// Per-client resource summary.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    pub cpu_percent_series: Vec<f64>,
    pub mean_cpu_percent: f64,
    pub uplink_mbps: f64,
}

/// Session output.
pub struct SessionResult {
    pub frames: Vec<FrameRecord>,
    pub merges: Vec<MergeEvent>,
    /// `(t, rmse)` of the global map's keyframes vs. ground truth.
    pub map_ate_series: Vec<(f64, f64)>,
    pub per_client: HashMap<u16, ClientStats>,
    pub baseline_rounds: Vec<(f64, BaselineRoundLatency)>,
}

impl SessionResult {
    /// Cumulative ATE of one client's estimated trajectory up to the end.
    pub fn client_ate(&self, client: u16, with_scale: bool) -> Option<eval::AteResult> {
        let (est, gt) = self.client_series(client);
        eval::ate(&est, &gt, with_scale, 1e-4)
    }

    fn client_series(&self, client: u16) -> (TrajectorySeries, TrajectorySeries) {
        let mut est = Vec::new();
        let mut gt = Vec::new();
        for fr in self.frames.iter().filter(|f| f.client == client) {
            gt.push((fr.t, fr.gt));
            if let Some(e) = fr.est {
                est.push((fr.t, e));
            }
        }
        (est, gt)
    }
}

/// The session driver.
pub struct Session {
    pub config: SessionConfig,
    pub vocab: Arc<Vocabulary>,
}

/// Client-side output of one tick whose upload was offered to the server,
/// kept for the post-round bookkeeping.
struct RoundEntry {
    /// Index into the session's client vector.
    ci: usize,
    frame_idx: usize,
    ds_frame: usize,
    encode_ms: f64,
    arrive: SimTime,
    instant_pose: Option<SE3>,
}

struct ActiveClient {
    spec: ClientSpec,
    dataset: Dataset,
    device: ClientDevice,
    channel: Channel,
    /// Pending server pose replies: `(deliver_at, frame_idx, pose)`.
    pending_replies: Vec<(SimTime, usize, SE3)>,
    next_frame: usize,
    /// Baseline-only: when the current upload round completes.
    round_busy_until: SimTime,
    window_opened: SimTime,
    missed_rounds: usize,
}

impl Session {
    pub fn new(config: SessionConfig, vocab: Arc<Vocabulary>) -> Session {
        Session { config, vocab }
    }

    /// Run the session to completion.
    pub fn run(&self) -> SessionResult {
        match self.config.kind {
            SystemKind::SlamShare => self.run_slamshare(),
            SystemKind::Baseline => self.run_baseline(),
        }
    }

    /// One active client per distinct spec id: a repeated
    /// [`ClientSpec::id`] keeps the first spec and drops the rest.
    fn build_clients(&self) -> Vec<ActiveClient> {
        let mut seen = std::collections::HashSet::new();
        self.config
            .clients
            .iter()
            .filter(|spec| seen.insert(spec.id))
            .map(|spec| {
                let dataset = Dataset::build(
                    DatasetConfig::new(spec.preset)
                        .with_frames(spec.start_frame + spec.frames)
                        .with_seed(spec.seed),
                );
                let mut device = ClientDevice::new(spec.id);
                if spec.anchor {
                    device.init_pose(dataset.gt_pose_cw(spec.start_frame));
                } else {
                    device.init_pose(SE3::IDENTITY);
                }
                ActiveClient {
                    spec: spec.clone(),
                    dataset,
                    device,
                    channel: Channel::symmetric(self.config.link),
                    pending_replies: Vec::new(),
                    next_frame: 0,
                    round_busy_until: SimTime::ZERO,
                    window_opened: SimTime::ZERO,
                    missed_rounds: 0,
                }
            })
            .collect()
    }

    fn session_end(&self) -> f64 {
        self.config
            .clients
            .iter()
            .map(|c| c.join_time + c.frames as f64 / self.config.fps)
            .fold(0.0, f64::max)
    }

    /// The first client's camera rig (a EuRoC-like rig for an empty
    /// session).
    fn rig(&self) -> StereoRig {
        self.config
            .clients
            .first()
            .map(|c| {
                Dataset::build(
                    DatasetConfig::new(c.preset)
                        .with_frames(1)
                        .with_seed(c.seed),
                )
                .rig
            })
            .unwrap_or_else(StereoRig::euroc_like)
    }

    fn run_slamshare(&self) -> SessionResult {
        let mut server =
            EdgeServer::new(ServerConfig::stereo_default(self.rig()), self.vocab.clone());

        // A client the server refuses takes no part in the session.
        let mut clients = self.build_clients();
        clients.retain(|c| server.try_register_client(c.spec.id).is_ok());

        let mut result = SessionResult {
            frames: Vec::new(),
            merges: Vec::new(),
            map_ate_series: Vec::new(),
            per_client: HashMap::new(),
            baseline_rounds: Vec::new(),
        };

        let end = self.session_end();
        let dt = 1.0 / self.config.fps;
        let total_ticks = (end / dt).ceil() as usize;
        // Guarantee several ATE samples even for sub-second sessions.
        let ate_interval = self.config.map_ate_interval.min((end / 8.0).max(0.05));
        let mut next_ate_sample = ate_interval;

        for tick in 0..total_ticks {
            let t_session = tick as f64 * dt;
            let now = SimTime::from_secs(t_session);

            // Client side first: deliver replies, capture, encode,
            // uplink, and offer the upload to the server; the tick's
            // offers then run as one round.
            let mut round: Vec<RoundEntry> = Vec::new();
            for (ci, c) in clients.iter_mut().enumerate() {
                if t_session < c.spec.join_time || c.next_frame >= c.spec.frames {
                    continue;
                }
                let frame_idx = c.next_frame;
                c.next_frame += 1;
                let ds_frame = c.spec.start_frame + frame_idx;
                let t_local = frame_idx as f64 / self.config.fps;

                // Deliver any due server replies first (Alg. 1
                // Recv_SLAMPose).
                c.pending_replies.sort_by_key(|(at, _, _)| *at);
                while let Some(&(at, idx, pose)) = c.pending_replies.first() {
                    if at <= now {
                        c.device.on_server_pose(t_session, idx, pose);
                        c.pending_replies.remove(0);
                    } else {
                        break;
                    }
                }

                // Client: capture + encode + IMU-extrapolate.
                let t_prev = if frame_idx == 0 {
                    0.0
                } else {
                    (frame_idx - 1) as f64 / self.config.fps
                };
                let imu: Vec<_> = c.dataset.imu_between(t_prev, t_local).to_vec();
                let (left, right) = c.dataset.render_stereo_frame(ds_frame);
                let (upload, instant_pose) =
                    c.device.on_frame(t_session, &left, Some(&right), &imu);

                // Uplink.
                let bytes: usize = upload.messages.iter().map(|m| m.wire_len()).sum();
                let arrive = c.channel.uplink.send(now, bytes);

                let mut payloads = upload.messages.iter().map(|m| m.payload.to_vec());
                let frame = QueuedFrame {
                    frame_idx,
                    timestamp: t_session,
                    left: payloads.next().unwrap_or_default(),
                    right: payloads.next(),
                    imu,
                    pose_hint: (c.spec.anchor && frame_idx == 0)
                        .then(|| c.dataset.gt_pose_cw(c.spec.start_frame)),
                    ..QueuedFrame::default()
                };
                if server.offer_frame(c.spec.id, frame).is_ok() {
                    round.push(RoundEntry {
                        ci,
                        frame_idx,
                        ds_frame,
                        encode_ms: upload.encode_ms,
                        arrive,
                        instant_pose,
                    });
                }
            }

            // Server: process the tick's frames as one concurrent round
            // (per-client worker processes over the shared global map),
            // each client's kernels on the slice it holds as the round
            // starts.
            let slices = server.gpu.slice_sms();
            let mut results: HashMap<u16, ServerFrameResult> =
                server.process_queued_round().into_iter().collect();

            // Post-round: downlink replies + timeline records.
            for e in &round {
                let c = &mut clients[e.ci];
                let Some(res) = results.remove(&c.spec.id) else {
                    continue;
                };
                // Stream desync: the server dropped this frame and wants
                // an I-frame; force the device's next encode intra.
                if res.resync_requested {
                    c.device.request_iframe();
                }
                // The reply delay on the modeled GPU: wall time, except
                // each kernel is charged on the client's slice.
                let sms = slices.get(&u32::from(c.spec.id)).copied().unwrap_or(1);
                let tracking_ms = res
                    .timings
                    .with_kernels_costed(|stats| charge(server.gpu.model(), sms, stats))
                    .total_ms();
                let server_ms = res.decode_ms + tracking_ms + res.mapping_ms;
                if let Some(m) = &res.merge {
                    result.merges.push(MergeEvent {
                        t: t_session,
                        client: c.spec.id,
                        merge_ms: m.merge_ms,
                        aligned: m.report.aligned,
                    });
                }

                // Downlink pose reply.
                if let Some(pose) = res.pose {
                    let reply_at = c
                        .channel
                        .downlink
                        .send(e.arrive + SimTime::from_millis(server_ms), 136);
                    c.pending_replies.push((reply_at, e.frame_idx, pose));
                }

                // Record: what the user's display shows *now* (IMU chain).
                let est = e
                    .instant_pose
                    .or_else(|| c.device.display_pose(e.frame_idx))
                    .map(|p| p.camera_center());
                result.frames.push(FrameRecord {
                    t: t_session,
                    client: c.spec.id,
                    est,
                    server_est: res.pose.map(|p| p.camera_center()),
                    gt: c.dataset.gt_position(e.ds_frame),
                    latency_ms: e.encode_ms + c.channel.base_rtt().as_millis() + server_ms,
                });
            }

            if t_session >= next_ate_sample {
                next_ate_sample += ate_interval;
                let ate = self.global_map_ate_slamshare(&server, &clients);
                if let Some(a) = ate {
                    result.map_ate_series.push((t_session, a));
                }
            }
        }
        // Final sample at session end.
        if let Some(a) = self.global_map_ate_slamshare(&server, &clients) {
            result.map_ate_series.push((end, a));
        }

        for c in &clients {
            result.per_client.insert(
                c.spec.id,
                ClientStats {
                    cpu_percent_series: c.device.cpu.utilization_percent(),
                    mean_cpu_percent: c.device.cpu.mean_percent(),
                    uplink_mbps: c.device.uplink_bw.mean_mbps(),
                },
            );
        }
        result
    }

    fn global_map_ate_slamshare(
        &self,
        server: &EdgeServer,
        clients: &[ActiveClient],
    ) -> Option<f64> {
        let by_id: HashMap<u16, &ActiveClient> = clients.iter().map(|c| (c.spec.id, c)).collect();
        let mut pairs = server
            .store
            .with_view(|view| map_kf_pairs(view, &by_id, self.config.fps));
        // Include not-yet-merged client fragments: before a merge they sit
        // in their private frames, which is exactly the inconsistency the
        // paper's "Before Merge" ATE spike visualizes.
        for (id, traj) in server.pending_local_trajectories() {
            let Some(c) = by_id.get(&id) else { continue };
            for (ts, center) in traj {
                if let Some(gt) = client_gt(c, ts, self.config.fps) {
                    pairs.push((center, gt));
                }
            }
        }
        paired_ate(&pairs)
    }

    fn run_baseline(&self) -> SessionResult {
        let rig = self.rig();
        let slam = SlamConfig::stereo(rig);
        let mut server = BaselineServer::new(self.vocab.clone(), rig.cam, false);
        // Each fat client sits beside the active client it runs.
        let mut actives: Vec<(ActiveClient, BaselineClient)> = self
            .build_clients()
            .into_iter()
            .map(|c| {
                let fat = BaselineClient::new(
                    c.spec.id,
                    slam.clone(),
                    self.vocab.clone(),
                    self.config.baseline.clone(),
                );
                (c, fat)
            })
            .collect();

        let mut result = SessionResult {
            frames: Vec::new(),
            merges: Vec::new(),
            map_ate_series: Vec::new(),
            per_client: HashMap::new(),
            baseline_rounds: Vec::new(),
        };

        let end = self.session_end();
        let dt = 1.0 / self.config.fps;
        let total_ticks = (end / dt).ceil() as usize;
        let ate_interval = self.config.map_ate_interval.min((end / 8.0).max(0.05));
        let mut next_ate_sample = ate_interval;

        for tick in 0..total_ticks {
            let t_session = tick as f64 * dt;
            let now = SimTime::from_secs(t_session);
            for (c, fat) in actives.iter_mut() {
                if t_session < c.spec.join_time || c.next_frame >= c.spec.frames {
                    continue;
                }
                let frame_idx = c.next_frame;
                c.next_frame += 1;
                let ds_frame = c.spec.start_frame + frame_idx;
                let t_local = frame_idx as f64 / self.config.fps;

                let t_prev = if frame_idx == 0 {
                    0.0
                } else {
                    (frame_idx - 1) as f64 / self.config.fps
                };
                let imu: Vec<_> = c.dataset.imu_between(t_prev, t_local).to_vec();
                let (left, right) = c.dataset.render_stereo_frame(ds_frame);
                let hint = (c.spec.anchor && frame_idx == 0)
                    .then(|| c.dataset.gt_pose_cw(c.spec.start_frame));
                let t0 = std::time::Instant::now();
                let (pose, due) = fat.on_frame(t_session, &left, Some(&right), &imu, hint);
                let track_ms = t0.elapsed().as_secs_f64() * 1e3;

                if due {
                    if now >= c.round_busy_until {
                        c.window_opened = now;
                        let (lat, done) = baseline_exchange_round(
                            fat,
                            &mut server,
                            &mut c.channel,
                            now,
                            t_session,
                        );
                        c.round_busy_until = done;
                        if let Some(report) = &lat.merge_report {
                            result.merges.push(MergeEvent {
                                t: t_session,
                                client: c.spec.id,
                                merge_ms: lat.merge_ms,
                                aligned: report.aligned,
                            });
                        }
                        result.baseline_rounds.push((t_session, lat));
                    } else {
                        // The previous round hasn't completed — the update
                        // is missed (the paper reports 38 % missed updates
                        // at 9.4 Mbit/s).
                        c.missed_rounds += 1;
                    }
                }

                result.frames.push(FrameRecord {
                    t: t_session,
                    client: c.spec.id,
                    est: pose.map(|p| p.camera_center()),
                    server_est: pose.map(|p| p.camera_center()),
                    gt: c.dataset.gt_position(ds_frame),
                    latency_ms: track_ms,
                });
            }

            if t_session >= next_ate_sample {
                next_ate_sample += ate_interval;
                let by_id: HashMap<u16, &ActiveClient> =
                    actives.iter().map(|(c, _)| (c.spec.id, c)).collect();
                let pairs = map_kf_pairs(&server.map, &by_id, self.config.fps);
                if let Some(rmse) = paired_ate(&pairs) {
                    result.map_ate_series.push((t_session, rmse));
                }
            }
        }
        {
            let by_id: HashMap<u16, &ActiveClient> =
                actives.iter().map(|(c, _)| (c.spec.id, c)).collect();
            let pairs = map_kf_pairs(&server.map, &by_id, self.config.fps);
            if let Some(rmse) = paired_ate(&pairs) {
                result.map_ate_series.push((end, rmse));
            }
        }

        for (c, fat) in &actives {
            result.per_client.insert(
                c.spec.id,
                ClientStats {
                    cpu_percent_series: fat.cpu.utilization_percent(),
                    mean_cpu_percent: fat.cpu.mean_percent(),
                    uplink_mbps: fat.uplink_bw.mean_mbps(),
                },
            );
        }
        result
    }
}

/// Pair global-map keyframe centers with their ground truth, in keyframe
/// id order. Keyframe ids encode the owning client, so each keyframe is
/// paired with its own client's ground truth.
fn map_kf_pairs(
    map: &impl MapRead,
    clients: &HashMap<u16, &ActiveClient>,
    fps: f64,
) -> Vec<(Vec3, Vec3)> {
    map.keyframes_iter()
        .filter_map(|kf| {
            let c = clients.get(&kf.id.client().0)?;
            let gt = client_gt(c, kf.timestamp, fps)?;
            Some((kf.pose_cw.camera_center(), gt))
        })
        .collect()
}

/// Client `c`'s ground-truth position at session time `t`: session time
/// maps back to the client's dataset time through its join offset.
/// `None` before the client joined.
fn client_gt(c: &ActiveClient, t: f64, fps: f64) -> Option<Vec3> {
    let t_local = t - c.spec.join_time;
    if t_local < -1e-9 {
        return None;
    }
    let ds_time = c.spec.start_frame as f64 / fps + t_local;
    Some(c.dataset.trajectory.position(ds_time))
}

/// Global-map ATE of `(estimate, ground truth)` pairs taken as built: the
/// RMSE after one rigid alignment. The pairs are never re-associated by
/// timestamp — every client's keyframes carry the same session times, so
/// a timestamp search would pair a keyframe with another client's ground
/// truth.
fn paired_ate(pairs: &[(Vec3, Vec3)]) -> Option<f64> {
    let (est, gt): (Vec<Vec3>, Vec<Vec3>) = pairs.iter().copied().unzip();
    slamshare_math::umeyama(&est, &gt, false).map(|a| a.rmse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_slam::vocabulary;

    fn small_session(kind: SystemKind) -> SessionResult {
        let clients = vec![
            ClientSpec {
                id: 1,
                preset: TracePreset::V202,
                seed: 61,
                join_time: 0.0,
                start_frame: 0,
                frames: 8,
                anchor: true,
            },
            ClientSpec {
                id: 2,
                preset: TracePreset::V202,
                seed: 62,
                join_time: 0.1,
                start_frame: 2,
                frames: 6,
                anchor: false,
            },
        ];
        let mut config = SessionConfig::new(kind, clients);
        config.baseline.upload_every_frames = 4;
        let vocab = Arc::new(vocabulary::train_random(42));
        Session::new(config, vocab).run()
    }

    #[test]
    fn slamshare_session_produces_timeline() {
        let result = small_session(SystemKind::SlamShare);
        assert!(result.frames.len() >= 12, "{} frames", result.frames.len());
        // Client 1 anchored at GT: its estimates must be near truth.
        let ate = result.client_ate(1, false).expect("client 1 ATE");
        assert!(ate.rmse < 0.3, "client 1 ATE {}", ate.rmse);
        // Both clients merged into the global map.
        assert!(
            result
                .merges
                .iter()
                .filter(|m| m.aligned || m.client == 1)
                .count()
                >= 1,
            "no merges recorded: {:?}",
            result.merges
        );
        assert!(!result.map_ate_series.is_empty());
        // Thin clients: CPU well under one core.
        let stats = &result.per_client[&1];
        assert!(
            stats.mean_cpu_percent * 40.0 < 60.0,
            "client CPU {}% of a core",
            stats.mean_cpu_percent * 40.0
        );
        assert!(stats.uplink_mbps > 0.0);
    }

    #[test]
    fn repeated_client_id_keeps_the_first_spec() {
        let spec = |seed, frames| ClientSpec {
            id: 1,
            preset: TracePreset::V202,
            seed,
            join_time: 0.0,
            start_frame: 0,
            frames,
            anchor: true,
        };
        let vocab = Arc::new(vocabulary::train_random(42));
        for kind in [SystemKind::SlamShare, SystemKind::Baseline] {
            let config = SessionConfig::new(kind, vec![spec(61, 4), spec(62, 6)]);
            let result = Session::new(config, vocab.clone()).run();
            assert_eq!(result.frames.len(), 4, "{kind:?}");
            assert!(result.frames.iter().all(|f| f.client == 1));
            assert_eq!(result.per_client.len(), 1);
        }
    }

    #[test]
    fn baseline_session_produces_rounds() {
        let result = small_session(SystemKind::Baseline);
        assert!(result.frames.len() >= 12);
        assert!(
            !result.baseline_rounds.is_empty(),
            "no baseline exchange rounds happened"
        );
        let (_, lat) = &result.baseline_rounds[0];
        assert!(
            lat.total_ms() > 5000.0,
            "round missing hold-down: {}",
            lat.total_ms()
        );
        // Fat clients burn far more CPU than thin ones.
        let fat_cpu = result.per_client[&1].mean_cpu_percent;
        let thin = small_session(SystemKind::SlamShare);
        let thin_cpu = thin.per_client[&1].mean_cpu_percent;
        assert!(
            fat_cpu > 3.0 * thin_cpu,
            "baseline client CPU {fat_cpu}% not ≫ SLAM-Share {thin_cpu}%"
        );
    }

    #[test]
    fn map_ate_pairs_each_keyframe_with_its_own_clients_truth() {
        // Two clients on different paths sample the same session times.
        // Each estimate is its ground truth moved by one rigid offset, so
        // the paired error is zero whatever order the clients come in.
        let offset = SE3::new(
            slamshare_math::Quat::from_axis_angle(Vec3::Z, 0.3),
            Vec3::new(4.0, -2.0, 1.0),
        );
        let truth = |client: u16, i: usize| {
            let t = i as f64 * 0.1;
            match client {
                1 => Vec3::new(t, 0.5 * t * t, 0.0),
                _ => Vec3::new(20.0, -3.0 * t, 1.0 + t),
            }
        };
        let mut rows = Vec::new();
        for i in 0..12 {
            // Shuffled client order: 2 before 1 on odd samples.
            let order: [u16; 2] = if i % 2 == 1 { [2, 1] } else { [1, 2] };
            for client in order {
                let gt = truth(client, i);
                rows.push((i as f64 * 0.1, offset.transform(gt), gt));
            }
        }
        let pairs: Vec<(Vec3, Vec3)> = rows.iter().map(|&(_, e, g)| (e, g)).collect();
        let rmse = paired_ate(&pairs).expect("enough pairs");
        assert!(rmse < 1e-9, "paired ATE {rmse}");
        // Re-associating the same pairs by timestamp matches keyframes to
        // the other client's truth.
        let est: TrajectorySeries = rows.iter().map(|&(t, e, _)| (t, e)).collect();
        let gt: TrajectorySeries = rows.iter().map(|&(t, _, g)| (t, g)).collect();
        let by_time = eval::ate(&est, &gt, false, 1e-4).expect("associates");
        assert!(by_time.rmse > 1.0, "timestamp ATE {}", by_time.rmse);
    }
}
