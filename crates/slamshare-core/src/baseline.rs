//! The Edge-SLAM-style baseline system (paper §5.1, Fig. 4b).
//!
//! "Our baseline is a multi-user extension of [14], with each client
//! performing tracking and mapping locally (no GPU). The map merging takes
//! place on a server [...]. This local map at the client is serialized
//! [...] to send across the network to the server. At the server it is
//! deserialized [...] and merged with any other maps present. A portion of
//! the global map (containing approximately 6 keyframes) is sent back to
//! the client and merged with its existing local map. Tracking then
//! continues on this local map. This occurs every 150 frames."
//! Plus the 5-second hold-down of Table 4.
//!
//! Every stage is real: real serialization ([`slamshare_net::wire`]), real
//! deserialization, real merging, and link transfer charged on the
//! virtual-time channel — which is exactly what Table 4 itemizes.

use crate::metrics::{BandwidthAccounting, CpuAccounting};
use slamshare_features::bow::Vocabulary;
use slamshare_features::GrayImage;
use slamshare_gpu::GpuExecutor;
use slamshare_math::Sim3;
use slamshare_math::SE3;
use slamshare_net::link::Channel;
use slamshare_net::wire;
use slamshare_sim::clock::SimTime;
use slamshare_sim::imu::ImuSample;
use slamshare_slam::ids::ClientId;
use slamshare_slam::map::{transform_pose_cw, Map};
use slamshare_slam::merge::{map_merge, MergeReport};
use slamshare_slam::recognition::ShardedKeyframeDatabase;
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use std::sync::Arc;
use std::time::Instant;

/// Hold-down time before the upload is sent (Table 4 row 1: 5000 ms).
const HOLD_DOWN: SimTime = SimTime(5_000_000);
/// Keyframes in the returned global-map slice (~6 in the paper).
const SLICE_KEYFRAMES: usize = 6;

/// Baseline exchange parameters (paper values).
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Frames between map uploads ("every 150 frames").
    pub upload_every_frames: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            upload_every_frames: 150,
        }
    }
}

/// Latency breakdown of one baseline merge round — Table 4's rows.
#[derive(Debug, Clone, Default)]
pub struct BaselineRoundLatency {
    pub hold_down_ms: f64,
    pub serialize_ms: f64,
    pub transfer_up_ms: f64,
    pub deserialize_ms: f64,
    pub merge_ms: f64,
    pub data_processing_ms: f64,
    pub transfer_down_ms: f64,
    pub load_map_ms: f64,
    /// Bytes shipped up / down.
    pub upload_bytes: usize,
    pub download_bytes: usize,
    pub merge_report: Option<MergeReport>,
}

impl BaselineRoundLatency {
    pub fn total_ms(&self) -> f64 {
        self.hold_down_ms
            + self.serialize_ms
            + self.transfer_up_ms
            + self.deserialize_ms
            + self.merge_ms
            + self.data_processing_ms
            + self.transfer_down_ms
            + self.load_map_ms
    }
}

/// The baseline's server: a global map + merge routine (no tracking — the
/// clients do that themselves).
pub struct BaselineServer {
    pub map: Map,
    pub db: ShardedKeyframeDatabase,
    pub vocab: Arc<Vocabulary>,
    cam: slamshare_sim::camera::PinholeCamera,
    with_scale: bool,
}

impl BaselineServer {
    pub fn new(
        vocab: Arc<Vocabulary>,
        cam: slamshare_sim::camera::PinholeCamera,
        with_scale: bool,
    ) -> BaselineServer {
        BaselineServer {
            map: Map::new(ClientId(0)),
            db: ShardedKeyframeDatabase::new(),
            vocab,
            cam,
            with_scale,
        }
    }

    /// Receive a serialized client map: deserialize, merge, cut a slice,
    /// serialize the slice back. Returns
    /// `(slice bytes, deserialize_ms, merge_ms, data_processing_ms, report)`.
    pub fn handle_upload(
        &mut self,
        payload: &[u8],
    ) -> (Vec<u8>, f64, f64, f64, Option<MergeReport>) {
        let t0 = Instant::now();
        let cmap = wire::decode_map(payload).expect("baseline upload corrupt");
        let deserialize_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let report = map_merge(
            &mut self.map,
            cmap,
            &self.db,
            &self.vocab,
            &self.cam,
            self.with_scale,
        );
        let merge_ms = t1.elapsed().as_secs_f64() * 1e3;

        // "Data processing": cut the ~6-keyframe slice around the newest
        // content and serialize it.
        let t2 = Instant::now();
        let slice = self.cut_slice(SLICE_KEYFRAMES);
        let slice_bytes = wire::encode_map(&slice).to_vec();
        let data_processing_ms = t2.elapsed().as_secs_f64() * 1e3;

        (
            slice_bytes,
            deserialize_ms,
            merge_ms,
            data_processing_ms,
            Some(report),
        )
    }

    /// The newest `n` keyframes and the points they observe.
    fn cut_slice(&self, n: usize) -> Map {
        let mut slice = Map::new(ClientId(0));
        let mut kfs: Vec<_> = self.map.keyframes.values().collect();
        // total_cmp + id tie-break: NaN timestamps sort first (oldest) and
        // equal timestamps slice deterministically.
        kfs.sort_by(|a, b| b.timestamp.total_cmp(&a.timestamp).then(a.id.cmp(&b.id)));
        for kf in kfs.into_iter().take(n) {
            slice.keyframes.insert(kf.id, kf.clone());
            for mp_id in kf.matched_points.iter().flatten() {
                if let Some(mp) = self.map.mappoints.get(mp_id) {
                    slice.mappoints.insert(*mp_id, mp.clone());
                }
            }
        }
        slice
    }
}

/// One baseline client: full local SLAM + periodic map exchange.
pub struct BaselineClient {
    pub id: u16,
    pub system: SlamSystem,
    pub config: BaselineConfig,
    pub cpu: CpuAccounting,
    pub uplink_bw: BandwidthAccounting,
    frames_since_upload: usize,
    /// Keyframe count already uploaded (upload only when there is news).
    uploaded_keyframes: usize,
    /// Cumulative local→global transform from past exchanges (None until
    /// the first aligned merge).
    pub global_transform: Option<Sim3>,
}

impl BaselineClient {
    pub fn new(
        id: u16,
        slam: SlamConfig,
        vocab: Arc<Vocabulary>,
        config: BaselineConfig,
    ) -> BaselineClient {
        // "each client performing tracking and mapping locally (no GPU)".
        let system = SlamSystem::new(ClientId(id), slam, vocab, Arc::new(GpuExecutor::cpu()));
        BaselineClient {
            id,
            system,
            config,
            cpu: CpuAccounting::new(),
            uplink_bw: BandwidthAccounting::new(),
            frames_since_upload: 0,
            uploaded_keyframes: 0,
            global_transform: None,
        }
    }

    /// Run one frame of full local SLAM; returns the local pose and
    /// whether an upload is due.
    pub fn on_frame(
        &mut self,
        timestamp: f64,
        left: &GrayImage,
        right: Option<&GrayImage>,
        imu: &[ImuSample],
        pose_hint: Option<SE3>,
    ) -> (Option<SE3>, bool) {
        let t0 = Instant::now();
        let step = self.system.process_frame(FrameInput {
            timestamp,
            left,
            right,
            imu,
            pose_hint,
        });
        self.cpu.charge(timestamp, t0.elapsed().as_secs_f64() * 1e3);
        self.frames_since_upload += 1;
        let due = self.frames_since_upload >= self.config.upload_every_frames
            && self.system.map.n_keyframes() > self.uploaded_keyframes;
        (step.pose_cw, due)
    }

    /// Serialize the local map for upload. Returns `(bytes, serialize_ms)`.
    pub fn serialize_map(&mut self, timestamp: f64) -> (Vec<u8>, f64) {
        let t0 = Instant::now();
        let bytes = wire::encode_map(&self.system.map).to_vec();
        let serialize_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.cpu.charge(timestamp, serialize_ms);
        self.uplink_bw.charge(timestamp, bytes.len());
        self.frames_since_upload = 0;
        self.uploaded_keyframes = self.system.map.n_keyframes();
        (bytes, serialize_ms)
    }

    /// Load the returned global-map slice into the local map ("merged with
    /// its existing local map; tracking then continues on this local
    /// map"). `transform` is the local→global similarity the server's
    /// merge solved; applying it snaps the client's whole local map (and
    /// its motion state) into the global frame — without this the slice's
    /// global-frame keyframes and the client's private-frame map would be
    /// mixed in one structure. Returns the load time in ms.
    pub fn load_slice(&mut self, timestamp: f64, payload: &[u8], transform: Option<&Sim3>) -> f64 {
        let t0 = Instant::now();
        if let Some(t) = transform {
            self.system.map.transform_all(t);
            if let Some((_, last)) = self.system.frame_poses.last().copied() {
                self.system
                    .tracker
                    .reset_motion(transform_pose_cw(&last, t));
            }
            self.global_transform = Some(match self.global_transform {
                Some(prev) => *t * prev,
                None => *t,
            });
        }
        if let Ok(slice) = wire::decode_map(payload) {
            for (id, kf) in slice.keyframes {
                // Foreign keyframes extend the local map; own keyframes
                // come back refined (server BA) — replace.
                self.system.map.keyframes.insert(id, kf);
            }
            for (id, mp) in slice.mappoints {
                self.system.map.mappoints.insert(id, mp);
            }
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.cpu.charge(timestamp, ms);
        ms
    }
}

/// Drive one full baseline exchange round over a channel in virtual time,
/// returning the Table-4 breakdown and the completion time. `now` is when
/// the batching window *opened* (the hold-down charges from there).
pub fn baseline_exchange_round(
    client: &mut BaselineClient,
    server: &mut BaselineServer,
    channel: &mut Channel,
    now: SimTime,
    timestamp: f64,
) -> (BaselineRoundLatency, SimTime) {
    let mut lat = BaselineRoundLatency {
        hold_down_ms: HOLD_DOWN.as_millis(),
        ..Default::default()
    };
    let mut t = now + HOLD_DOWN;

    let (upload, serialize_ms) = client.serialize_map(timestamp);
    lat.serialize_ms = serialize_ms;
    lat.upload_bytes = upload.len();
    t += SimTime::from_millis(serialize_ms);

    let arrive = channel.uplink.send(t, upload.len());
    lat.transfer_up_ms = arrive.since(t).as_millis();
    t = arrive;

    let (slice, deserialize_ms, merge_ms, data_processing_ms, report) =
        server.handle_upload(&upload);
    lat.deserialize_ms = deserialize_ms;
    lat.merge_ms = merge_ms;
    lat.data_processing_ms = data_processing_ms;
    lat.merge_report = report;
    lat.download_bytes = slice.len();
    t += SimTime::from_millis(deserialize_ms + merge_ms + data_processing_ms);

    let arrive = channel.downlink.send(t, slice.len());
    lat.transfer_down_ms = arrive.since(t).as_millis();
    t = arrive;

    let transform = lat
        .merge_report
        .as_ref()
        .and_then(|r| if r.aligned { r.transform } else { None });
    let load_ms = client.load_slice(timestamp, &slice, transform.as_ref());
    lat.load_map_ms = load_ms;
    t += SimTime::from_millis(load_ms);

    (lat, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_net::link::LinkConfig;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
    use slamshare_slam::vocabulary;

    fn dataset(frames: usize, seed: u64) -> Dataset {
        Dataset::build(
            DatasetConfig::new(TracePreset::V202)
                .with_frames(frames)
                .with_seed(seed),
        )
    }

    fn run_client_frames(client: &mut BaselineClient, ds: &Dataset, frames: usize) {
        for i in 0..frames {
            let (l, r) = ds.render_stereo_frame(i);
            client.on_frame(
                ds.frame_time(i),
                &l,
                Some(&r),
                &[],
                (i == 0).then(|| ds.gt_pose_cw(0)),
            );
        }
    }

    #[test]
    fn client_runs_full_slam_locally() {
        let ds = dataset(8, 8);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut client = BaselineClient::new(
            1,
            SlamConfig::stereo(ds.rig),
            vocab,
            BaselineConfig::default(),
        );
        run_client_frames(&mut client, &ds, 8);
        assert!(client.system.map.n_keyframes() >= 2);
        // Full SLAM on the client: heavy CPU (vs the thin client's few ms).
        let per_frame = client.cpu.total_work_ms() / 8.0;
        assert!(
            per_frame > 10.0,
            "baseline client suspiciously light: {per_frame} ms/frame"
        );
    }

    #[test]
    fn upload_due_after_configured_frames() {
        let ds = dataset(8, 8);
        let vocab = Arc::new(vocabulary::train_random(42));
        let config = BaselineConfig {
            upload_every_frames: 3,
        };
        let mut client = BaselineClient::new(1, SlamConfig::stereo(ds.rig), vocab, config);
        let mut due_at = None;
        for i in 0..8 {
            let (l, r) = ds.render_stereo_frame(i);
            let (_, due) = client.on_frame(
                ds.frame_time(i),
                &l,
                Some(&r),
                &[],
                (i == 0).then(|| ds.gt_pose_cw(0)),
            );
            if due && due_at.is_none() {
                due_at = Some(i);
            }
        }
        assert!(due_at.is_some());
        assert!(due_at.unwrap() >= 2);
    }

    #[test]
    fn full_exchange_round_breakdown() {
        let ds = dataset(10, 8);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut client = BaselineClient::new(
            1,
            SlamConfig::stereo(ds.rig),
            vocab.clone(),
            BaselineConfig::default(),
        );
        run_client_frames(&mut client, &ds, 10);
        let mut server = BaselineServer::new(vocab, ds.rig.cam, false);
        let mut channel = Channel::symmetric(LinkConfig::constrained_18_7mbps());

        let (lat, done) =
            baseline_exchange_round(&mut client, &mut server, &mut channel, SimTime::ZERO, 0.33);
        // All stages present; the paper's dominant terms dominate.
        assert_eq!(lat.hold_down_ms, 5000.0);
        assert!(lat.serialize_ms > 0.0);
        assert!(lat.deserialize_ms > 0.0);
        assert!(lat.merge_ms > 0.0);
        assert!(
            lat.upload_bytes > 100_000,
            "map only {} bytes",
            lat.upload_bytes
        );
        assert!(lat.download_bytes > 0);
        assert!(lat.transfer_up_ms > 1.0, "18.7 Mbit/s must be felt");
        assert!(lat.total_ms() > 5000.0);
        assert!((done.as_millis() - lat.total_ms()).abs() < 0.1);
        // Server absorbed the map.
        assert!(server.map.n_keyframes() >= 3);
        // Client got the slice back.
        assert!(client.system.map.n_keyframes() >= 3);
    }

    #[test]
    fn second_client_merges_on_server() {
        let ds_a = dataset(10, 8);
        let ds_b = dataset(10, 9);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut a = BaselineClient::new(
            1,
            SlamConfig::stereo(ds_a.rig),
            vocab.clone(),
            BaselineConfig::default(),
        );
        let mut b = BaselineClient::new(
            2,
            SlamConfig::stereo(ds_b.rig),
            vocab.clone(),
            BaselineConfig::default(),
        );
        run_client_frames(&mut a, &ds_a, 10);
        run_client_frames(&mut b, &ds_b, 10);
        let mut server = BaselineServer::new(vocab, ds_a.rig.cam, false);
        let mut channel = Channel::symmetric(LinkConfig::ten_gbe());

        let (lat_a, _) =
            baseline_exchange_round(&mut a, &mut server, &mut channel, SimTime::ZERO, 0.33);
        assert!(lat_a.merge_report.is_some());
        let (lat_b, _) =
            baseline_exchange_round(&mut b, &mut server, &mut channel, SimTime::ZERO, 0.33);
        let report = lat_b.merge_report.unwrap();
        assert!(
            report.aligned,
            "baseline server failed to merge B: {report:?}"
        );
    }
}
