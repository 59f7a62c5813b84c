//! Thousand-client load harness in virtual time.
//!
//! The paper's evaluation stops at a handful of concurrent AR clients; the
//! scaling question — what happens to an edge server when *hundreds* of
//! devices with heterogeneous radios join, leave, and crash mid-stream —
//! is exactly the regime where the admission/backpressure machinery in
//! [`crate::qos`] earns its keep. This module drives that machinery at
//! scale: every client is synthetic, every link is a
//! [`slamshare_net::link::Link`] flow model, and the whole run advances on
//! a [`slamshare_sim::clock::EventQueue`] in virtual microseconds.
//!
//! What is *real* is the whole server side. The harness builds a
//! [`Federation`] of [`EdgeServer`](crate::server::EdgeServer)s (one of
//! them when `n_servers == 1`) and enters it only through `register_on` /
//! `offer_frame` / `process_queued_rounds` / `handoff_to` /
//! `deregister_client`, so typed admission, the bounded staging queues
//! with oldest-non-I-frame eviction, the per-client ingest resync state
//! machine (fed real encoder output, real garbage-byte faults, real
//! reference-chain gaps from uplink loss), the round pipeline, the slice
//! scheduler with its [`slamshare_gpu::SlicePriority`] transitions, and
//! the destination-first handoff are the code that ships. The synthetic
//! 32×24 frames hold too little structure to bootstrap a map, so every
//! client stays in its local phase and a frame costs well under a
//! millisecond of wall time: the 512-client overload run takes about
//! 3–4 s on 2 cores and the 96-client smoke 0.6 s.
//!
//! What is *modeled*: the clients (devices, links, churn script) and
//! per-frame tracking **service time**. The quantities under test (queue
//! depths, drop counters, admission outcomes, round latency) depend on
//! how long tracking takes, not on its output, so each served frame is
//! charged `cpu_ms + gpu_work_ms / slice_sms` on a virtual service lane,
//! with `slice_sms` read from the server's live
//! [`slamshare_gpu::SharedGpu`] layout as the round starts — priority
//! transitions causally change latency. The served pose is the trajectory
//! ground truth the front end staged with the frame (the system computes
//! bit-identical results on every device by construction — see DESIGN.md
//! §2), which is what makes the churn-determinism property testable: a
//! surviving client's served trajectory must be byte-for-byte independent
//! of everyone else's churn.
//!
//! Everything a client does is derived from `(seed, client_id)` alone —
//! tier, trajectory, join time, churn fate, per-frame loss/fault draws —
//! never from its position in a roster or from server state. Running a
//! subset of clients therefore reproduces each member's behavior exactly,
//! which is the foundation of the survivor bit-identity property test in
//! `tests/load_harness.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::Serialize;
use slamshare_features::GrayImage;
use slamshare_gpu::{GpuModel, SharedGpu};
use slamshare_math::Vec3;
use slamshare_net::link::{Channel, LinkConfig};
use slamshare_net::VideoEncoder;
use slamshare_sim::camera::StereoRig;
use slamshare_sim::trajectory::GazePolicy;
use slamshare_sim::{EventQueue, SimTime, Trajectory};
use slamshare_slam::vocabulary;

use crate::federation::{Federation, HandoffResult};
use crate::qos::{QueuedFrame, RegisterError};
use crate::server::ServerConfig;

// ---------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------

/// SplitMix64: tiny, fast, and — unlike `rand` — guaranteed stable across
/// versions, which the bit-identity property requires.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One SplitMix64 finalizer step over `(seed, salt)` — used to derive
/// per-client constants (tier, join time, churn fate) that must not
/// depend on draw order. Shared with the lifecycle soak harness, which
/// derives per-client trajectories the same order-independent way.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Link tiers
// ---------------------------------------------------------------------

/// A heterogeneous population: the same tier table the paper's testbed
/// spans (wired lab link → congested last-mile), with per-frame Bernoulli
/// loss on the lossy tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum LinkTier {
    /// Wired / fiber-backhauled AP: 100 Mbit/s, 2 ms, lossless.
    Fiber,
    /// Decent Wi-Fi: 40 Mbit/s, 8 ms, 0.2 % frame loss.
    Wifi,
    /// Cellular: 12 Mbit/s, 35 ms, 1 % frame loss.
    Lte,
    /// Congested edge: 2 Mbit/s, 80 ms, 5 % frame loss.
    CongestedEdge,
}

impl LinkTier {
    pub fn config(self) -> LinkConfig {
        match self {
            LinkTier::Fiber => LinkConfig::new(Some(100e6), SimTime::from_millis(2.0)),
            LinkTier::Wifi => LinkConfig::new(Some(40e6), SimTime::from_millis(8.0)),
            LinkTier::Lte => LinkConfig::new(Some(12e6), SimTime::from_millis(35.0)),
            LinkTier::CongestedEdge => LinkConfig::new(Some(2e6), SimTime::from_millis(80.0)),
        }
    }

    /// Per-frame Bernoulli uplink loss probability.
    pub fn loss(self) -> f64 {
        match self {
            LinkTier::Fiber => 0.0,
            LinkTier::Wifi => 0.002,
            LinkTier::Lte => 0.01,
            LinkTier::CongestedEdge => 0.05,
        }
    }

    /// Weighted tier assignment: 30 % fiber, 40 % wifi, 20 % LTE,
    /// 10 % congested.
    fn pick(roll: u64) -> LinkTier {
        match roll % 10 {
            0..=2 => LinkTier::Fiber,
            3..=6 => LinkTier::Wifi,
            7..=8 => LinkTier::Lte,
            _ => LinkTier::CongestedEdge,
        }
    }
}

// ---------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------

/// Per-client camera rate, frames per virtual second.
const FPS: f64 = 10.0;
/// Per-frame corruption probability for a faulty client.
const FAULT_RATE: f64 = 0.05;
/// Synthetic video resolution (small: content only feeds the codec).
const FRAME_W: usize = 32;
const FRAME_H: usize = 24;
/// Encoder I-frame cadence.
const IFRAME_INTERVAL: usize = 30;
/// Silence threshold after which the server evicts a client, seconds.
const CRASH_TIMEOUT_S: f64 = 1.0;
/// Joins are spread over this initial ramp, seconds.
const JOIN_RAMP_S: f64 = 1.5;
/// Retry delay after an at-capacity rejection, seconds.
const ADMISSION_RETRY_S: f64 = 0.5;

/// What varies between load runs; fully serializable so a bench result
/// can embed the exact configuration that produced it. Everything no run
/// varies is a constant of this module, and each client's staged-frame
/// queue has the server's capacity ([`crate::qos::INGRESS_QUEUE_CAP`]).
#[derive(Debug, Clone, Serialize)]
pub struct LoadConfig {
    /// Clients that will *attempt* to join (ids `1..=n_clients`).
    pub n_clients: usize,
    /// Admission bound (`None` = unbounded).
    pub max_clients: Option<usize>,
    /// Virtual session length, seconds.
    pub duration_s: f64,
    /// Master seed; every per-client stream derives from `(seed, id)`.
    pub seed: u64,
    /// Server service lanes (parallel tracking workers).
    pub lanes: usize,
    /// CPU portion of one frame's tracking service, ms.
    pub cpu_service_ms: f64,
    /// GPU work per frame, ms·SM — charged as `gpu_work_ms / slice_sms`.
    pub gpu_work_ms: f64,
    /// Modeled SM count of the edge GPU the slice scheduler partitions.
    pub gpu_sms: usize,
    /// Master switch for scripted churn (leaves, crashes, faults).
    pub churn: bool,
    /// Percent of clients that leave gracefully mid-run.
    pub leave_pct: u64,
    /// Percent of clients that crash silently mid-run (every other one,
    /// by draw, rejoins under the same id).
    pub crash_pct: u64,
    /// Percent of clients that fire a duplicate join while live.
    pub duplicate_join_pct: u64,
    /// Percent of churning clients that also inject garbage bytes.
    pub fault_pct: u64,
    /// Whether uplink Bernoulli loss is applied.
    pub loss: bool,
    /// Round-latency SLO asserted over interactive-class served frames.
    pub slo_p99_ms: f64,
    /// Edge servers in the federation. `1` is the classic single-server
    /// harness — every multi-server branch is off and runs are
    /// bit-identical to before the field existed. With `N > 1` the world
    /// (x ∈ ±100 m) is split into N equal-width ownership bands and each
    /// client is served by the band its position falls in.
    pub n_servers: usize,
    /// Percent of clients scripted as boundary roamers: their trajectory
    /// center is pinned on an ownership boundary so their circle crosses
    /// it deterministically, driving client handoffs. Inert when
    /// `n_servers == 1`.
    pub handoff_pct: u64,
}

impl LoadConfig {
    /// Comfortable capacity: nothing sheds, every admitted frame is
    /// served promptly. The churn property test and CI smoke run here.
    pub fn smoke(n_clients: usize, seed: u64) -> LoadConfig {
        LoadConfig {
            n_clients,
            max_clients: None,
            duration_s: 6.0,
            seed,
            lanes: 32,
            cpu_service_ms: 0.5,
            gpu_work_ms: 8.0,
            gpu_sms: 1024,
            churn: true,
            leave_pct: 10,
            crash_pct: 10,
            duplicate_join_pct: 5,
            fault_pct: 50,
            loss: true,
            slo_p99_ms: 400.0,
            n_servers: 1,
            handoff_pct: 0,
        }
    }

    /// Overload: more offered load than lanes can serve, plus an
    /// admission bound below the offered population — the regime the
    /// backpressure policy and typed rejections exist for.
    pub fn overload(n_clients: usize, seed: u64) -> LoadConfig {
        LoadConfig {
            max_clients: Some(n_clients * 3 / 4),
            duration_s: 10.0,
            // Server capacity scales *with* the offered population so every
            // effort tier lands in the same ~2.7× overload regime (the
            // formulas are the identity at the baseline tier, n = 512:
            // 12 lanes, 1024 SMs). With fixed capacity, a small-n run would
            // be underloaded and shed nothing — not an overload test at all.
            lanes: (n_clients * 3 / 128).max(2),
            gpu_sms: n_clients * 2,
            slo_p99_ms: 650.0,
            ..LoadConfig::smoke(n_clients, seed)
        }
    }

    /// Multi-edge-server topology at smoke intensity: `n_servers`
    /// ownership bands, a quarter of the population scripted to roam
    /// across a band boundary. With `n_servers == 1` this is the plain
    /// smoke config (roaming is inert) — the equivalence is pinned by a
    /// test below.
    pub fn federated(n_clients: usize, seed: u64, n_servers: usize) -> LoadConfig {
        LoadConfig {
            n_servers: n_servers.max(1),
            handoff_pct: 25,
            ..LoadConfig::smoke(n_clients, seed)
        }
    }

    /// Replace the modeled per-frame service constants with measured
    /// timings (e.g. the tracking p50s from `results/BENCH_frame.json`),
    /// so harness latency distributions are anchored to the real
    /// pipeline instead of guesses.
    pub fn with_service_times(mut self, cpu_service_ms: f64, gpu_work_ms: f64) -> LoadConfig {
        self.cpu_service_ms = cpu_service_ms;
        self.gpu_work_ms = gpu_work_ms;
        self
    }
}

/// Which ownership band (edge server) serves world position `x`. The
/// world the trajectory generator draws from is x ∈ ±100 m; it is split
/// into `n_servers` equal-width static bands, mirroring the region
/// partition [`crate::federation::OwnershipMap`] applies to map shards.
pub fn owner_of_x(n_servers: usize, x: f64) -> usize {
    if n_servers <= 1 {
        return 0;
    }
    let t = ((x + 100.0) / 200.0).clamp(0.0, 1.0);
    ((t * n_servers as f64) as usize).min(n_servers - 1)
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

/// Exact percentiles over a latency population (nearest-rank on the
/// sorted samples — no interpolation, so results are host-independent).
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencySummary {
    pub n: u64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<f64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let rank = |q: f64| -> f64 {
            let k = ((q * n as f64).ceil() as usize).clamp(1, n);
            samples[k - 1]
        };
        LatencySummary {
            n: n as u64,
            mean_ms: samples.iter().sum::<f64>() / n as f64,
            p50_ms: rank(0.50),
            p95_ms: rank(0.95),
            p99_ms: rank(0.99),
            max_ms: samples[n - 1],
        }
    }
}

/// Round latency split by the client's service class at serve time.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LatencyByClass {
    /// Admitted-and-tracking clients (the SLO population).
    pub interactive: LatencySummary,
    /// Clients serving a relocalizing / desynced stream.
    pub degraded: LatencySummary,
}

/// Everything a load run measured. All counters are exact (virtual time,
/// deterministic scheduling), so equality assertions are legitimate.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LoadReport {
    pub clients_offered: usize,
    pub virtual_secs: f64,
    pub peak_live: usize,
    pub admitted: u64,
    pub rejected_capacity: u64,
    pub rejected_duplicate: u64,
    pub departed: u64,
    pub crash_evictions: u64,
    pub rejoins: u64,
    pub frames_captured: u64,
    pub frames_lost_uplink: u64,
    pub faults_injected: u64,
    pub frames_delivered: u64,
    /// Deliveries for a client the server no longer (or never) knew.
    pub frames_stray: u64,
    pub queue_offered: u64,
    pub queue_served: u64,
    pub queue_dropped: u64,
    pub queue_purged: u64,
    /// Frames still staged when the run ended.
    pub queue_residual: u64,
    pub frames_tracked: u64,
    pub decode_errors: u64,
    pub ingest_dropped: u64,
    pub resyncs: u64,
    pub gpu_priority_demotions: u64,
    pub latency: LatencyByClass,
    pub slo_p99_ms: f64,
    pub slo_met: bool,
    /// Edge servers in the run (1 = classic single-server harness).
    pub n_servers: usize,
    /// Completed client handoffs between ownership bands.
    pub handoffs: u64,
    /// Handoffs refused because the destination was at capacity (the
    /// client stays on its old home — never stranded).
    pub handoffs_refused: u64,
    /// Decision-to-transfer latency of completed handoffs.
    pub handoff_latency: LatencySummary,
}

/// A finished run: the report plus each client's served trajectory
/// (frame index → recovered camera position), the artifact the churn
/// bit-identity property compares.
#[derive(Debug)]
pub struct LoadOutcome {
    pub report: LoadReport,
    pub trajectories: BTreeMap<u16, Vec<(usize, [f64; 3])>>,
}

// ---------------------------------------------------------------------
// Per-client synthetic device
// ---------------------------------------------------------------------

/// The scripted fate of one client, derived from `(seed, id)` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    Survivor,
    /// Leaves gracefully at the given time.
    Leaver(SimTime),
    /// Crashes silently at the given time; `rejoin` re-registers later.
    Crasher {
        at: SimTime,
        rejoin: bool,
    },
}

/// Derive a client's full scripted profile from `(seed, id)`. Public so
/// tests can predict survivors without running anything.
pub fn client_fate(config: &LoadConfig, id: u16) -> Fate {
    if !config.churn {
        return Fate::Survivor;
    }
    let roll = mix(config.seed, u64::from(id) * 3 + 1) % 100;
    let frac = |r: u64, lo: f64, hi: f64| {
        SimTime::from_secs(config.duration_s * (lo + (hi - lo) * (r % 1000) as f64 / 1000.0))
    };
    let when = mix(config.seed, u64::from(id) * 5 + 2);
    if roll < config.crash_pct {
        Fate::Crasher {
            at: frac(when, 0.35, 0.65),
            rejoin: when.is_multiple_of(2),
        }
    } else if roll < config.crash_pct + config.leave_pct {
        Fate::Leaver(frac(when, 0.4, 0.8))
    } else {
        Fate::Survivor
    }
}

/// The ids that neither leave nor crash under `config`'s churn script.
pub fn survivors(config: &LoadConfig) -> Vec<u16> {
    (1..=config.n_clients as u16)
        .filter(|&id| client_fate(config, id) == Fate::Survivor)
        .collect()
}

/// Whether the script makes this client inject garbage bytes. Faults
/// ride on churners only: survivors must stay bit-identical across
/// runs, and a garbage frame changes the served set.
pub fn client_faulty(config: &LoadConfig, id: u16) -> bool {
    config.churn
        && client_fate(config, id) != Fate::Survivor
        && mix(config.seed, u64::from(id) * 11 + 5) % 100 < config.fault_pct
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DevicePhase {
    Waiting,
    Live,
    Gone,
}

struct Device {
    tier: LinkTier,
    channel: Channel,
    traj: Trajectory,
    encoder: VideoEncoder,
    /// Per-capture draws (loss, fault) — exactly two per frame, so the
    /// stream is a pure function of `(seed, id, frame_idx)`.
    rng: SplitMix64,
    phase: DevicePhase,
    fate: Fate,
    faulty: bool,
    joined_at: SimTime,
    frame_idx: usize,
    captured: u64,
    lost_uplink: u64,
    faults: u64,
    rejoined: bool,
    /// The server this device last registered on (a rejoiner reconnects
    /// there).
    home: Option<usize>,
    img: GrayImage,
}

impl Device {
    fn new(config: &LoadConfig, id: u16) -> Device {
        let tier = LinkTier::pick(mix(config.seed, u64::from(id) * 7 + 3));
        let fate = client_fate(config, id);
        let faulty = client_faulty(config, id);
        // A closed loop in a client-specific patch of the world, spanning
        // the whole session.
        let mut wp = SplitMix64::new(mix(config.seed, u64::from(id) * 13 + 7));
        let cx = (wp.next_f64() - 0.5) * 200.0;
        let cz = (wp.next_f64() - 0.5) * 200.0;
        let r = 3.0 + wp.next_f64() * 9.0;
        // Scripted boundary roamer: pin the loop's center on the nearest
        // ownership boundary (and widen the loop past quantization) so the
        // trajectory deterministically crosses between bands every lap.
        // The draw count above is unchanged, so non-roamers — and every
        // client when `n_servers == 1` — keep bit-identical trajectories.
        let roamer = config.n_servers > 1
            && config.handoff_pct > 0
            && mix(config.seed, u64::from(id) * 23 + 17) % 100 < config.handoff_pct;
        let (cx, r) = if roamer {
            let band = owner_of_x(config.n_servers, cx).min(config.n_servers - 2);
            let boundary = -100.0 + 200.0 * (band + 1) as f64 / config.n_servers as f64;
            (boundary, r.max(6.0))
        } else {
            (cx, r)
        };
        let waypoints = (0..5)
            .map(|k| {
                let th = k as f64 / 5.0 * std::f64::consts::TAU;
                Vec3 {
                    x: cx + r * th.cos(),
                    y: 1.5 + 0.3 * (wp.next_f64() - 0.5),
                    z: cz + r * th.sin(),
                }
            })
            .collect();
        Device {
            tier,
            channel: Channel::symmetric(tier.config()),
            traj: Trajectory::new(
                waypoints,
                true,
                config.duration_s.max(1.0),
                GazePolicy::AlongVelocity,
            ),
            encoder: VideoEncoder::new(2, IFRAME_INTERVAL),
            rng: SplitMix64::new(mix(config.seed, u64::from(id))),
            phase: DevicePhase::Waiting,
            fate,
            faulty,
            joined_at: SimTime(0),
            frame_idx: 0,
            captured: 0,
            lost_uplink: 0,
            faults: 0,
            rejoined: false,
            home: None,
            img: GrayImage::new(FRAME_W, FRAME_H),
        }
    }

    fn join_time(config: &LoadConfig, id: u16) -> SimTime {
        SimTime::from_secs(
            JOIN_RAMP_S * (mix(config.seed, u64::from(id) * 17 + 11) % 1000) as f64 / 1000.0,
        )
    }

    /// Render the synthetic camera frame for virtual time `t_rel`: a
    /// gradient translating with the trajectory, so P-frames carry small
    /// deltas exactly like a real slowly-moving camera.
    fn render(&mut self, t_rel: f64) -> Vec3 {
        let p = self.traj.position(t_rel);
        let (ox, oy) = ((p.x * 6.0) as i64, (p.z * 6.0) as i64);
        let (w, h) = (self.img.width, self.img.height);
        for y in 0..h {
            for x in 0..w {
                let v = (x as i64 + ox) * 13 + (y as i64 + oy) * 7;
                self.img.set(x, y, (v & 0xFF) as u8);
            }
        }
        p
    }
}

// ---------------------------------------------------------------------
// Front end
// ---------------------------------------------------------------------

/// What a front end in front of the servers holds per live registration.
/// Everything else about a client — its admission slot, staged queue,
/// ingest state machine, GPU slice and counters — lives in the real
/// [`EdgeServer`](crate::server::EdgeServer) it is registered on.
#[derive(Default)]
struct Registration {
    last_heard: SimTime,
    last_idx: Option<usize>,
    resync_pending: bool,
    /// The last served frame faulted: the server holds the client in the
    /// degraded GPU class until a frame decodes again.
    faulted: bool,
}

/// The system under test plus the front end's bookkeeping around it.
struct FrontEnd {
    fed: Federation,
    regs: BTreeMap<u16, Registration>,
    /// Capture instant and ground-truth position of every staged
    /// `(client, frame_idx)`; the server's result carries neither.
    staged: BTreeMap<(u16, usize), (SimTime, [f64; 3])>,
    /// Virtual service lanes, per server.
    lanes: Vec<Vec<SimTime>>,
    peak_live: Vec<usize>,
    crash_evictions: u64,
    stray: u64,
    priority_demotions: u64,
    handoff_latency: Vec<f64>,
}

impl FrontEnd {
    fn new(config: &LoadConfig) -> FrontEnd {
        let n = config.n_servers.max(1);
        let mut server_config = ServerConfig::stereo_default(StereoRig::euroc_like());
        server_config.max_clients = config.max_clients;
        let vocab = Arc::new(vocabulary::train_random(config.seed));
        let mut fed = Federation::new(n, server_config, vocab, LinkConfig::ten_gbe());
        for i in 0..n {
            if let Some(server) = fed.server_mut(i) {
                server.gpu = Arc::new(SharedGpu::new(GpuModel {
                    sm_count: config.gpu_sms,
                    ..GpuModel::v100()
                }));
            }
        }
        FrontEnd {
            fed,
            regs: BTreeMap::new(),
            staged: BTreeMap::new(),
            lanes: vec![vec![SimTime(0); config.lanes.max(1)]; n],
            peak_live: vec![0; n],
            crash_evictions: 0,
            stray: 0,
            priority_demotions: 0,
            handoff_latency: Vec::new(),
        }
    }

    fn live_on(&self, server: usize) -> usize {
        self.fed.server(server).map_or(0, |s| s.client_count())
    }

    /// A registration landed on `server`: start its front-end record.
    fn note_admitted(&mut self, id: u16, server: usize, now: SimTime) {
        let fresh = Registration {
            last_heard: now,
            ..Registration::default()
        };
        self.regs.insert(id, fresh);
        self.peak_live[server] = self.peak_live[server].max(self.live_on(server));
    }

    /// Forget everything staged for `id` (its server purged the queue).
    fn forget_staged(&mut self, id: u16) {
        self.staged.retain(|&(c, _), _| c != id);
    }

    fn retire(&mut self, id: u16) {
        self.fed.deregister_client(id);
        self.regs.remove(&id);
        self.forget_staged(id);
    }
}

// ---------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------

enum Ev {
    Join(u16),
    DupJoin(u16),
    Leave(u16),
    Crash(u16),
    Capture(u16),
    Deliver(u16, QueuedFrame),
    /// A server-issued resync request reaches the device.
    Resync(u16),
    /// The client's position crossed into another ownership band; the
    /// transfer request (decided at the carried time) reaches the servers.
    Handoff {
        id: u16,
        target: usize,
        decided: SimTime,
    },
    Round,
}

/// Run the full configured population (`ids 1..=n_clients`).
pub fn run(config: &LoadConfig) -> LoadOutcome {
    run_observed(config, |_| {})
}

/// [`run`], handing the federation to `after_round` after every round its
/// servers process (the smoke gate checks the maps' invariants there).
pub fn run_observed(config: &LoadConfig, mut after_round: impl FnMut(&Federation)) -> LoadOutcome {
    let ids: Vec<u16> = (1..=config.n_clients as u16).collect();
    drive(config, &ids, &mut after_round)
}

/// Run only `ids`. Per-client behavior is a pure function of
/// `(config.seed, id)`, so a subset run reproduces each member's stream
/// exactly — the lever the churn bit-identity property pulls.
pub fn run_subset(config: &LoadConfig, ids: &[u16]) -> LoadOutcome {
    drive(config, ids, &mut |_| {})
}

fn drive(
    config: &LoadConfig,
    ids: &[u16],
    after_round: &mut dyn FnMut(&Federation),
) -> LoadOutcome {
    let end = SimTime::from_secs(config.duration_s);
    let frame_dt = SimTime::from_secs(1.0 / FPS);
    let crash_timeout = SimTime::from_secs(CRASH_TIMEOUT_S);

    let mut devices: BTreeMap<u16, Device> = ids
        .iter()
        .map(|&id| (id, Device::new(config, id)))
        .collect();
    let mut fe = FrontEnd::new(config);
    let n_servers = fe.fed.n_servers();
    let mut q: EventQueue<Ev> = EventQueue::new();

    for (&id, dev) in &devices {
        q.schedule(Device::join_time(config, id), Ev::Join(id));
        match dev.fate {
            Fate::Leaver(at) => q.schedule(at, Ev::Leave(id)),
            Fate::Crasher { at, .. } => q.schedule(at, Ev::Crash(id)),
            Fate::Survivor => {}
        }
        if config.churn
            && mix(config.seed, u64::from(id) * 19 + 13) % 100 < config.duplicate_join_pct
        {
            q.schedule(SimTime::from_secs(config.duration_s * 0.5), Ev::DupJoin(id));
        }
    }
    q.schedule(frame_dt, Ev::Round);

    let mut rejoins = 0u64;
    let mut delivered = 0u64;
    let mut tracked = 0u64;
    let mut lat_interactive: Vec<f64> = Vec::new();
    let mut lat_degraded: Vec<f64> = Vec::new();
    let mut trajectories: BTreeMap<u16, Vec<(usize, [f64; 3])>> =
        ids.iter().map(|&id| (id, Vec::new())).collect();

    while let Some((now, ev)) = q.pop() {
        if now > end {
            break;
        }
        match ev {
            Ev::Join(id) => {
                let Some(dev) = devices.get_mut(&id) else {
                    continue;
                };
                if dev.phase == DevicePhase::Live {
                    continue;
                }
                // Join (or rejoin) lands on the band the trajectory starts
                // in; a rejoiner returns to its last home. The x-band
                // placement is this harness's policy, so it names the
                // server itself instead of asking the federation's
                // region-hash ownership.
                let target = dev
                    .home
                    .unwrap_or_else(|| owner_of_x(n_servers, dev.traj.position(0.0).x));
                // A rejoin can land before the periodic timeout scan has
                // evicted the crashed registration. The old registration is
                // provably dead the moment its silence exceeds the crash
                // timeout, so evict it here instead of bouncing the rejoin
                // with `AlreadyRegistered` — the bounce-and-retry this
                // replaces could push the retry past the session end (a
                // lost rejoin), and the stale queue must not be inherited
                // by the fresh registration either way.
                if let Some(reg) = fe.regs.get(&id) {
                    if now.since(reg.last_heard) > crash_timeout {
                        fe.retire(id);
                        fe.crash_evictions += 1;
                    }
                }
                match fe.fed.register_on(id, target) {
                    Ok(_) => {
                        fe.note_admitted(id, target, now);
                        dev.home = Some(target);
                        if dev.phase == DevicePhase::Gone {
                            // Crash-rejoin: fresh encoder (the old
                            // reference chain died with the process),
                            // frame numbering continues.
                            dev.encoder = VideoEncoder::new(2, IFRAME_INTERVAL);
                            dev.rejoined = true;
                            rejoins += 1;
                        }
                        dev.phase = DevicePhase::Live;
                        dev.joined_at = now;
                        q.schedule(now, Ev::Capture(id));
                    }
                    Err(RegisterError::AtCapacity { .. }) => {
                        // Typed rejection, not a panic: back off and retry.
                        let retry = now + SimTime::from_secs(ADMISSION_RETRY_S);
                        if retry < end {
                            q.schedule(retry, Ev::Join(id));
                        }
                    }
                    Err(RegisterError::AlreadyRegistered(_)) => {
                        // Still live on the server (no timeout elapsed):
                        // a genuinely premature rejoin. Retry after the
                        // registration can age out.
                        let retry = now + crash_timeout;
                        if retry < end {
                            q.schedule(retry, Ev::Join(id));
                        }
                    }
                }
            }
            Ev::DupJoin(id) => {
                // A retransmitted join for an already-live client must be a
                // typed duplicate rejection that leaves the registration
                // untouched (the pre-fix server leaked state here).
                if devices.get(&id).map(|d| d.phase) == Some(DevicePhase::Live) {
                    let home = fe.fed.home_of(id).unwrap_or(0);
                    let before = fe.live_on(home);
                    let res = fe.fed.register_on(id, home);
                    assert!(matches!(res, Err(RegisterError::AlreadyRegistered(_))));
                    assert_eq!(before, fe.live_on(home));
                }
            }
            Ev::Leave(id) => {
                let Some(dev) = devices.get_mut(&id) else {
                    continue;
                };
                if dev.phase == DevicePhase::Live {
                    dev.phase = DevicePhase::Gone;
                    // Graceful: the client says goodbye, the server retires
                    // the registration immediately.
                    fe.retire(id);
                }
            }
            Ev::Crash(id) => {
                if let Some(dev) = devices.get_mut(&id) {
                    if dev.phase == DevicePhase::Live {
                        // Silent: the server only learns via the timeout scan.
                        dev.phase = DevicePhase::Gone;
                        if let Fate::Crasher { rejoin: true, .. } = dev.fate {
                            let back = now + crash_timeout + SimTime::from_secs(1.0);
                            if back < end {
                                q.schedule(back, Ev::Join(id));
                            }
                        }
                    }
                }
            }
            Ev::Capture(id) => {
                let Some(dev) = devices.get_mut(&id) else {
                    continue;
                };
                if dev.phase != DevicePhase::Live {
                    continue;
                }
                let t_rel = now.since(dev.joined_at).as_secs();
                let pose = dev.render(t_rel);
                // Handoff detection: the client's position has left its
                // home band. The transfer request is a small control
                // message on the uplink's latency (not its FIFO — it does
                // not queue behind staged video).
                if n_servers > 1 {
                    if let Some(h) = fe.fed.home_of(id) {
                        let target = owner_of_x(n_servers, pose.x);
                        if target != h {
                            let at = dev.channel.uplink.one_shot(now, 64);
                            q.schedule(
                                at,
                                Ev::Handoff {
                                    id,
                                    target,
                                    decided: now,
                                },
                            );
                        }
                    }
                }
                let frame = dev.encoder.encode(&dev.img);
                let mut payload = frame.data.to_vec();
                // Exactly two draws per capture, phase- and server-independent.
                let loss_roll = dev.rng.next_f64();
                let fault_roll = dev.rng.next_f64();
                dev.captured += 1;
                let idx = dev.frame_idx;
                dev.frame_idx += 1;
                // Frame 3 is always corrupted so a faulty client's fault
                // path is exercised on every seed, not just lucky draws
                // (even the shortest-lived churner captures that many).
                if dev.faulty && (fault_roll < FAULT_RATE || idx == 3) {
                    // PR 3 garbage-byte machinery: smash bytes mid-payload
                    // and truncate — the decoder must yield a typed fault.
                    dev.faults += 1;
                    let n = payload.len();
                    if n > 8 {
                        payload[n / 3] ^= 0xA5;
                        payload[n / 2] = 0xFF;
                        payload.truncate(n - n / 8);
                    }
                }
                if config.loss && loss_roll < dev.tier.loss() {
                    // Uplink loss: the encoder reference already advanced,
                    // so the next delivered P-frame is undecodable without
                    // a resync — exactly the gap ingest must survive.
                    dev.lost_uplink += 1;
                } else {
                    let arrive = dev.channel.uplink.send(now, payload.len());
                    q.schedule(
                        arrive,
                        Ev::Deliver(
                            id,
                            QueuedFrame {
                                frame_idx: idx,
                                timestamp: t_rel,
                                left: payload,
                                pose_hint: Some(slamshare_math::SE3::from_translation(pose)),
                                captured_at: now,
                                ..QueuedFrame::default()
                            },
                        ),
                    );
                }
                let next = now + frame_dt;
                if next <= end {
                    q.schedule(next, Ev::Capture(id));
                }
            }
            Ev::Deliver(id, mut frame) => {
                // Route to the current home: frames in flight across a
                // handoff land on the new home, where the index gap they
                // open drives the forced-I-frame resync below.
                let Some(reg) = fe.regs.get_mut(&id) else {
                    // Crashed-and-evicted (or never-admitted) sender.
                    fe.stray += 1;
                    continue;
                };
                reg.last_heard = now;
                delivered += 1;
                // Uplink loss / mid-stream (re)join: the reference chain is
                // broken at this frame, independent of queue evictions.
                let gap = match reg.last_idx {
                    Some(last) => frame.frame_idx != last + 1,
                    None => frame.frame_idx != 0,
                };
                frame.follows_gap = gap;
                reg.last_idx = Some(frame.frame_idx);
                let position = frame
                    .pose_hint
                    .map_or([0.0; 3], |h| [h.trans.x, h.trans.y, h.trans.z]);
                fe.staged
                    .insert((id, frame.frame_idx), (frame.captured_at, position));
                let shed = fe
                    .fed
                    .offer_frame(id, frame)
                    .expect("a live registration has a home server");
                if let Some(victim) = shed {
                    fe.staged.remove(&(id, victim.frame_idx));
                }
            }
            Ev::Resync(id) => {
                if let Some(dev) = devices.get_mut(&id) {
                    if dev.phase == DevicePhase::Live {
                        dev.encoder.request_iframe();
                    }
                }
            }
            Ev::Handoff {
                id,
                target,
                decided,
            } => {
                // Only live clients transfer. A request that is no longer
                // meaningful (the client crossed back, or a duplicate
                // request already transferred it) is `NotNeeded`; a refusal
                // leaves the old registration untouched (the federation
                // admits on the destination FIRST) and is counted there.
                let Some(dev) = devices.get_mut(&id) else {
                    continue;
                };
                if dev.phase != DevicePhase::Live {
                    continue;
                }
                let t_rel = now.since(dev.joined_at).as_secs();
                let res = fe
                    .fed
                    .handoff_to(id, target, now, dev.frame_idx as u64, t_rel, None);
                if let HandoffResult::Transferred(_) = res {
                    // The old home purged the staged frames and released
                    // the GPU slice and admission slot. The fresh ingest on
                    // the new home sees the next P-frame as a gap and
                    // forces an I-frame resync — tracking resumes.
                    fe.forget_staged(id);
                    fe.note_admitted(id, target, now);
                    dev.home = Some(target);
                    fe.handoff_latency.push(now.since(decided).as_millis());
                }
            }
            Ev::Round => {
                // Evict silent clients (crash detection).
                let timed_out: Vec<u16> = fe
                    .regs
                    .iter()
                    .filter(|(_, reg)| now.since(reg.last_heard) > crash_timeout)
                    .map(|(&id, _)| id)
                    .collect();
                for id in timed_out {
                    fe.retire(id);
                    fe.crash_evictions += 1;
                }
                // The slice layout a round's service time is charged
                // against is the one the round started with: priority
                // transitions inside the round move the *next* round.
                let slices: Vec<BTreeMap<u32, usize>> = (0..n_servers)
                    .filter_map(|i| fe.fed.server(i))
                    .map(|server| server.gpu.slice_sms())
                    .collect();
                // Every server serves ≤1 staged frame per admitted client,
                // in id order, through its real decode → track → commit
                // pipeline.
                for (server, results) in fe.fed.process_queued_rounds(now) {
                    for (id, res) in results {
                        let Some(reg) = fe.regs.get_mut(&id) else {
                            continue;
                        };
                        let Some((captured_at, position)) = fe.staged.remove(&(id, res.frame_idx))
                        else {
                            continue;
                        };
                        if res.resync_requested {
                            // Faulted, or dropped while awaiting the resync
                            // I-frame: ask the device for one, once.
                            if !reg.resync_pending {
                                reg.resync_pending = true;
                                if let Some(dev) = devices.get_mut(&id) {
                                    let at = dev.channel.downlink.send(now, 64);
                                    q.schedule(at, Ev::Resync(id));
                                }
                            }
                            if !reg.faulted {
                                reg.faulted = true;
                                fe.priority_demotions += 1;
                            }
                            continue;
                        }
                        let sms = slices[server]
                            .get(&u32::from(id))
                            .copied()
                            .unwrap_or(1)
                            .max(1);
                        let service_ms = config.cpu_service_ms + config.gpu_work_ms / sms as f64;
                        // First-free lane, deterministic tie-break.
                        let lanes = &mut fe.lanes[server];
                        let lane = (0..lanes.len()).min_by_key(|&i| lanes[i]).unwrap_or(0);
                        let start = lanes[lane].max(now);
                        let done = start + SimTime::from_millis(service_ms);
                        lanes[lane] = done;
                        let latency = done.since(captured_at).as_millis();
                        // The first frame served after a fault is still in
                        // the degraded class (the server held the client
                        // demoted while it tracked); the stream is
                        // interactive again from the next frame on.
                        if reg.faulted {
                            lat_degraded.push(latency);
                        } else {
                            lat_interactive.push(latency);
                        }
                        reg.resync_pending = false;
                        reg.faulted = false;
                        tracked += 1;
                        if let Some(traj) = trajectories.get_mut(&id) {
                            traj.push((res.frame_idx, position));
                        }
                    }
                }
                after_round(&fe.fed);
                // Next round: camera cadence, or as soon as a lane frees
                // under saturation — no server can round faster than it
                // can serve.
                let lane_free = fe.lanes.iter().flatten().copied().min().unwrap_or(now);
                let next = (now + frame_dt).max(lane_free);
                if next <= end {
                    q.schedule(next, Ev::Round);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fold the servers' own counters: live per-client + retired aggregate.
    // ------------------------------------------------------------------
    let mut queues = crate::qos::QueueSnapshot::default();
    let mut queue_residual = 0u64;
    let mut decode_errors = 0u64;
    let mut ingest_dropped = 0u64;
    let mut resyncs = 0u64;
    let mut adm = crate::qos::AdmissionSnapshot::default();
    for server in (0..n_servers).filter_map(|i| fe.fed.server(i)) {
        let m = server.metrics();
        for q in m.queues.values().chain([&m.retired.queues]) {
            queues.offered += q.offered;
            queues.served += q.served;
            queues.dropped_overflow += q.dropped_overflow;
            queues.purged += q.purged;
        }
        queue_residual += m
            .queues
            .keys()
            .map(|&id| server.staged_depth(id) as u64)
            .sum::<u64>();
        decode_errors += m.total_decode_errors();
        resyncs += m.total_resyncs();
        ingest_dropped += m
            .per_client
            .values()
            .chain([&m.retired.ingest])
            .map(|c| c.dropped_frames)
            .sum::<u64>();
        let a = server.admission_snapshot();
        adm.live += a.live;
        adm.admitted += a.admitted;
        adm.rejected_capacity += a.rejected_capacity;
        adm.rejected_duplicate += a.rejected_duplicate;
        adm.departed += a.departed;
    }
    // Conservation: every delivered frame is accounted for, exactly.
    assert_eq!(delivered, queues.offered, "delivered != offered to queues");
    assert_eq!(
        queues.offered,
        queues.accounted() + queue_residual,
        "queue conservation violated"
    );

    let interactive = LatencySummary::from_samples(lat_interactive);
    let slo_met = interactive.n == 0 || interactive.p99_ms <= config.slo_p99_ms;
    let fed_metrics = fe.fed.metrics();
    let report = LoadReport {
        clients_offered: ids.len(),
        virtual_secs: config.duration_s,
        peak_live: fe.peak_live.iter().sum(),
        admitted: adm.admitted,
        rejected_capacity: adm.rejected_capacity,
        rejected_duplicate: adm.rejected_duplicate,
        departed: adm.departed,
        crash_evictions: fe.crash_evictions,
        rejoins,
        frames_captured: devices.values().map(|d| d.captured).sum(),
        frames_lost_uplink: devices.values().map(|d| d.lost_uplink).sum(),
        faults_injected: devices.values().map(|d| d.faults).sum(),
        frames_delivered: delivered,
        frames_stray: fe.stray,
        queue_offered: queues.offered,
        queue_served: queues.served,
        queue_dropped: queues.dropped_overflow,
        queue_purged: queues.purged,
        queue_residual,
        frames_tracked: tracked,
        decode_errors,
        ingest_dropped,
        resyncs,
        gpu_priority_demotions: fe.priority_demotions,
        latency: LatencyByClass {
            interactive,
            degraded: LatencySummary::from_samples(lat_degraded),
        },
        slo_p99_ms: config.slo_p99_ms,
        slo_met,
        n_servers,
        handoffs: fed_metrics.handoffs,
        handoffs_refused: fed_metrics.handoffs_refused,
        handoff_latency: LatencySummary::from_samples(fe.handoff_latency),
    };
    LoadOutcome {
        report,
        trajectories,
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_and_conserves() {
        let cfg = LoadConfig::smoke(24, 7);
        let out = run(&cfg);
        let r = &out.report;
        assert!(r.frames_tracked > 0, "nothing tracked: {r:?}");
        assert!(r.admitted >= 24, "every client admits at least once");
        // Comfortable capacity: backpressure never fires.
        assert_eq!(r.queue_dropped, 0, "{r:?}");
        assert!(
            r.slo_met,
            "p99 {} > {}",
            r.latency.interactive.p99_ms, r.slo_p99_ms
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let cfg = LoadConfig::smoke(16, 42);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.trajectories, b.trajectories);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn capacity_bound_rejects_typed() {
        let mut cfg = LoadConfig::smoke(20, 3);
        cfg.max_clients = Some(8);
        cfg.churn = false;
        let out = run(&cfg);
        assert!(out.report.peak_live <= 8);
        assert!(out.report.rejected_capacity > 0);
    }

    #[test]
    fn overload_sheds_but_holds_slo() {
        let cfg = LoadConfig::overload(96, 11);
        let out = run(&cfg);
        let r = &out.report;
        assert!(r.queue_served > 0);
        assert!(
            r.slo_met,
            "p99 {} > {}",
            r.latency.interactive.p99_ms, r.slo_p99_ms
        );
    }

    /// Satellite bugfix pin: a rejoin that lands while the crashed
    /// registration is still on the books (the timeout scan only runs at
    /// round cadence, and rounds stall under lane saturation) must evict
    /// the provably-dead registration inline and admit fresh — never
    /// bounce as `AlreadyRegistered` (which could push the retry past the
    /// session end and lose the rejoin) and never inherit the stale
    /// queue. With the fix, the rejoin count is an exact function of the
    /// churn script; the sweep pins it seed by seed.
    #[test]
    fn rejoin_never_races_timeout_eviction() {
        let mut total_predicted = 0u64;
        for seed in 1..=24u64 {
            let mut cfg = LoadConfig::smoke(8, seed);
            // One slow lane: rounds (and with them the timeout-eviction
            // scan) stall far past the crash timeout, so rejoins reliably
            // arrive before the scan — the exact race under test.
            cfg.lanes = 1;
            cfg.cpu_service_ms = 300.0;
            cfg.gpu_work_ms = 0.0;
            cfg.crash_pct = 50;
            cfg.leave_pct = 0;
            cfg.duplicate_join_pct = 0;
            cfg.fault_pct = 0;
            cfg.loss = false;
            let end = SimTime::from_secs(cfg.duration_s);
            let crash_timeout = SimTime::from_secs(CRASH_TIMEOUT_S);
            let predicted = (1..=cfg.n_clients as u16)
                .filter(|&id| match client_fate(&cfg, id) {
                    Fate::Crasher { at, rejoin: true } => {
                        at + crash_timeout + SimTime::from_secs(1.0) < end
                    }
                    _ => false,
                })
                .count() as u64;
            total_predicted += predicted;
            let out = run(&cfg);
            assert_eq!(
                out.report.rejoins, predicted,
                "seed {seed}: rejoin bounced or lost ({:?})",
                out.report
            );
        }
        assert!(total_predicted > 0, "sweep never scripted a rejoin");
    }

    #[test]
    fn federated_two_server_run_hands_off_and_conserves() {
        let cfg = LoadConfig::federated(32, 9, 2);
        let out = run(&cfg);
        let r = &out.report;
        assert_eq!(r.n_servers, 2);
        assert!(r.handoffs > 0, "no roamer crossed a boundary: {r:?}");
        assert_eq!(r.handoff_latency.n, r.handoffs);
        assert!(r.frames_tracked > 0, "federation stopped tracking: {r:?}");
        // Fresh ingest on the new home sees the next P-frame as a gap and
        // forces an I-frame resync.
        assert!(r.resyncs > 0, "handoffs must drive resyncs: {r:?}");
    }

    /// `n_servers == 1` must leave the harness bit-identical to the
    /// pre-federation code path — trajectories and the full report.
    #[test]
    fn single_server_federation_is_bit_identical_to_classic() {
        let a = run(&LoadConfig::smoke(24, 7));
        let b = run(&LoadConfig::federated(24, 7, 1));
        assert_eq!(a.trajectories, b.trajectories);
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn churn_exercises_every_path() {
        let cfg = LoadConfig::smoke(64, 5);
        let out = run(&cfg);
        let r = &out.report;
        assert!(r.departed > 0, "no leaves: {r:?}");
        assert!(r.crash_evictions > 0, "no crash evictions: {r:?}");
        assert!(r.faults_injected > 0, "no faults: {r:?}");
        assert!(
            r.decode_errors > 0,
            "faults must surface as typed decode errors"
        );
        assert!(r.resyncs > 0, "faults/loss must drive I-frame resyncs");
    }
}
