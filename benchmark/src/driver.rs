//! The load generator: one thread that feeds frames to a real
//! `EdgeServer` through `try_register_client` / `offer_frame` /
//! `process_queued_round` / `deregister_client` and times every call
//! from outside. Wall clock only: `StageTimings` and every other number
//! the server models are never read.

use crate::trace::{Span, Tracer};
use crate::workloads::{Inputs, Kind, Track, JOIN_DEADLINE_FRAMES, JOIN_LINGER_FRAMES, PACED_FPS};
use slamshare_core::qos::QueuedFrame;
use slamshare_core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slamshare_features::bow::Vocabulary;
use slamshare_features::GrayImage;
use slamshare_math::Vec3;
use slamshare_net::codec::VideoEncoder;
use slamshare_slam::vocabulary;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// The server's defaults read `available_parallelism`; pinned so a run
/// means the same thing on every host.
const ROUND_WORKERS: usize = 2;
const DECODE_WORKERS: usize = 2;
const MAX_CLIENTS: usize = 8;
/// Joiners register under fresh ids from here up.
const FIRST_JOINER_ID: u16 = 100;

type Payload = (Vec<u8>, Vec<u8>);

/// A device's stereo video encoder pair.
pub struct Encoders {
    left: VideoEncoder,
    right: VideoEncoder,
}

impl Encoders {
    pub fn new() -> Encoders {
        Encoders {
            left: VideoEncoder::default(),
            right: VideoEncoder::default(),
        }
    }

    pub fn encode(&mut self, frame: &(GrayImage, GrayImage)) -> Payload {
        (
            self.left.encode(&frame.0).data.to_vec(),
            self.right.encode(&frame.1).data.to_vec(),
        )
    }

    /// What `ClientDevice` does when the server asks for a resync.
    fn request_iframe(&mut self) {
        self.left.request_iframe();
        self.right.request_iframe();
    }
}

/// A server ready for its first frame, and the payloads encoded for it.
pub struct SetUp {
    pub server: EdgeServer,
    pub vocab: Arc<Vocabulary>,
    /// Per resident track; empty where the workload encodes live.
    encoded: Vec<Vec<Payload>>,
}

/// Everything between rendered frames and a server that can take frame
/// 0: vocabulary, server, worker pins, registrations, and the payloads of
/// the workloads that encode ahead. `setup_s` is the median of several
/// calls, so work a change moves out of the measured window shows there.
pub fn set_up(kind: Kind, inputs: &Inputs) -> SetUp {
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(inputs.tracks[0].ds.rig);
    config.max_clients = Some(MAX_CLIENTS);
    // `join_churn` runs merges on the worker; the others take them
    // inline on the commit path, in warm-up.
    config.async_merge = kind == Kind::JoinChurn;
    let mut server = EdgeServer::new(config, vocab.clone());
    server.set_round_workers(ROUND_WORKERS);
    server.set_decode_workers(DECODE_WORKERS);
    for id in 1..=inputs.tracks.len() as u16 {
        server
            .try_register_client(id)
            .expect("fresh server admits the residents");
    }
    // `paced4` encodes live so it can answer a resync request with an
    // I-frame; a closed loop never sheds, so it can encode ahead.
    let encoded = match kind {
        Kind::Paced4 => Vec::new(),
        _ => inputs
            .tracks
            .iter()
            .map(|track| {
                let mut enc = Encoders::new();
                track.frames.iter().map(|f| enc.encode(f)).collect()
            })
            .collect(),
    };
    SetUp {
        server,
        vocab,
        encoded,
    }
}

/// One client's frame source.
struct Feed<'a> {
    client: u16,
    track: &'a Track,
    /// Track frame local frame 0 maps to (a joiner starts mid-track).
    start: usize,
    len: usize,
    next: usize,
    /// Payloads encoded in set-up; taken as they are offered.
    encoded: Vec<Payload>,
    /// Present when the feed encodes live.
    live: Option<Encoders>,
    /// Only the first resident anchors the map to the world frame.
    anchor: bool,
}

impl Feed<'_> {
    fn exhausted(&self) -> bool {
        self.next >= self.len
    }
}

/// One late joiner's life on the server.
pub struct Join {
    /// Register call to the first result that is `merged && tracked`.
    pub to_shared_ms: Option<f64>,
}

/// What a run produced, in the driver's own counts and wall times.
#[derive(Default)]
pub struct Outcome {
    pub measure_start_ns: u64,
    pub window_end_ns: u64,
    /// Due to the return of the round that carried the pose, measured
    /// frames only.
    pub pose_ms: Vec<f64>,
    /// Measured frames offered, and those that came back tracked with a
    /// finite pose.
    pub offered: u64,
    pub tracked: u64,
    /// Every frame offered, warm-up included (conservation check).
    pub offered_total: u64,
    pub shed: u64,
    pub rounds: u64,
    pub round_frames: u64,
    pub map_bytes: usize,
    /// `(estimate, ground truth)` camera centres of every post-merge pose,
    /// and how many of them came before the `map_bytes` checkpoint: that
    /// prefix covers a fixed set of frames, the rest as far as the host got.
    pub pairs: Vec<(Vec3, Vec3)>,
    pub checkpoint_pairs: usize,
    pub joins: Vec<Join>,
    pub decode_ms: Vec<f64>,
    /// `mapping_ms` of the measured frames that inserted a keyframe.
    pub mapping_ms: Vec<f64>,
    /// `MergeOutcome.merge_ms` of merges that ran inline in a commit.
    pub merge_block_ms: Vec<f64>,
    /// `MergeOutcome.merge_ms` of the joiners' merges.
    pub join_merge_ms: Vec<f64>,
    /// Failed output checks; empty on a correct run.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Measured frames offered plus joins begun and ended.
    pub fn attempted(&self) -> u64 {
        self.offered + self.joins.len() as u64
    }

    /// Frames that came back tracked plus joiners that reached the map.
    pub fn succeeded(&self) -> u64 {
        let joined = self.joins.iter().filter(|j| j.to_shared_ms.is_some());
        self.tracked + joined.count() as u64
    }
}

struct Pending {
    due_ns: u64,
    gt: Vec3,
    measured: bool,
}

pub struct Driver<'a> {
    pub server: EdgeServer,
    pub tracer: &'a mut Tracer,
    kind: Kind,
    root: Option<u32>,
    pending: HashMap<(u16, usize), Pending>,
    measuring: bool,
    last_round_end_ns: u64,
    pub out: Outcome,
}

fn is_finite(v: Vec3) -> bool {
    v.x.is_finite() && v.y.is_finite() && v.z.is_finite()
}

impl<'a> Driver<'a> {
    pub fn new(kind: Kind, server: EdgeServer, tracer: &'a mut Tracer) -> Driver<'a> {
        Driver {
            server,
            tracer,
            kind,
            root: None,
            pending: HashMap::new(),
            measuring: false,
            last_round_end_ns: 0,
            out: Outcome::default(),
        }
    }

    fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        frame: Option<(u16, usize)>,
    ) -> Option<u32> {
        self.tracer.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            client: frame.map(|f| f.0),
            frame_idx: frame.map(|f| f.1),
        })
    }

    /// Produce `feed`'s next frame, encoding it now if the feed is live.
    fn next_frame(&mut self, feed: &mut Feed) -> (QueuedFrame, Vec3) {
        let i = feed.next;
        let at = feed.start + i;
        feed.next += 1;
        let (left, right) = match &mut feed.live {
            Some(enc) => {
                let t0 = self.tracer.now_ns();
                let payload = enc.encode(&feed.track.frames[at]);
                let t1 = self.tracer.now_ns();
                self.span("driver.encode", t0, t1, self.root, Some((feed.client, i)));
                payload
            }
            None => std::mem::take(&mut feed.encoded[at]),
        };
        let frame = QueuedFrame {
            frame_idx: i,
            timestamp: feed.track.timestamp(at),
            left,
            right: Some(right),
            pose_hint: (feed.anchor && i == 0)
                .then(|| feed.track.ds.gt_pose_cw(feed.track.first + at)),
            ..QueuedFrame::default()
        };
        (frame, feed.track.gt_position(at))
    }

    /// Stage `feed`'s next frame, which was due at `due_ns`.
    fn offer(&mut self, feed: &mut Feed, due_ns: u64) {
        let (frame, gt) = self.next_frame(feed);
        let key = (feed.client, frame.frame_idx);
        let t0 = self.tracer.now_ns();
        let shed = self
            .server
            .offer_frame(feed.client, frame)
            .expect("offer to a registered client");
        let t1 = self.tracer.now_ns();
        self.span("core.qos.offer", t0, t1, self.root, Some(key));
        // Lateness is the generator's own only when no round was running
        // while the frame came due.
        if due_ns > self.last_round_end_ns {
            self.span(
                "driver.gen_late",
                due_ns,
                t0.max(due_ns),
                self.root,
                Some(key),
            );
        }
        let measured = self.measuring && due_ns >= self.out.measure_start_ns;
        self.out.offered_total += 1;
        self.out.offered += measured as u64;
        self.pending.insert(
            key,
            Pending {
                due_ns,
                gt,
                measured,
            },
        );
        if let Some(victim) = shed {
            // Stays counted as offered and never comes back: a failure.
            self.pending.remove(&(feed.client, victim.frame_idx));
            self.out.shed += 1;
        }
    }

    /// Run one round over whatever is staged and book its results.
    fn round(&mut self) -> Vec<(u16, ServerFrameResult)> {
        let t0 = self.tracer.now_ns();
        let results = self.server.process_queued_round();
        let t1 = self.tracer.now_ns();
        self.last_round_end_ns = t1;
        let round = self.span("core.server.round", t0, t1, self.root, None);
        let mut measured_frames = 0;
        for (client, res) in &results {
            let key = (*client, res.frame_idx);
            let Some(p) = self.pending.remove(&key) else {
                self.out
                    .problems
                    .push(format!("result for a frame never offered: {key:?}"));
                continue;
            };
            let frame = self.span("frame", p.due_ns, t1, round, Some(key));
            self.span(
                "core.qos.queue_wait",
                p.due_ns,
                t0.max(p.due_ns),
                frame,
                Some(key),
            );
            let centre = res.pose.map(|pose| pose.camera_center());
            if centre.is_some_and(|c| !is_finite(c)) {
                self.out
                    .problems
                    .push(format!("non-finite pose returned for {key:?}"));
            }
            let good = res.tracked && centre.is_some_and(is_finite);
            if let (true, true, Some(c)) = (good, res.merged, centre) {
                self.out.pairs.push((c, p.gt));
            }
            // Only the synchronous server merges inside a commit.
            if let (Some(merge), false) = (&res.merge, self.kind == Kind::JoinChurn) {
                self.out.merge_block_ms.push(merge.merge_ms);
            }
            if p.measured {
                measured_frames += 1;
                self.out.pose_ms.push((t1 - p.due_ns) as f64 / 1e6);
                self.out.tracked += good as u64;
                self.out.decode_ms.push(res.decode_ms);
                if res.mapping_ms > 0.0 {
                    self.out.mapping_ms.push(res.mapping_ms);
                }
            }
        }
        if measured_frames > 0 {
            self.out.rounds += 1;
            self.out.round_frames += measured_frames;
            self.out.window_end_ns = t1;
        }
        results
    }

    /// One closed-loop step: every client's next frame is due now, one
    /// round serves them all.
    fn lockstep(&mut self, feeds: &mut [Feed]) -> Vec<(u16, ServerFrameResult)> {
        for feed in feeds.iter_mut() {
            let due = self.tracer.now_ns();
            self.offer(feed, due);
        }
        self.round()
    }

    fn begin_measure(&mut self) {
        self.measuring = true;
        self.out.measure_start_ns = self.tracer.now_ns();
        self.out.window_end_ns = self.out.measure_start_ns;
    }

    fn elapsed_s(&self) -> f64 {
        (self.tracer.now_ns() - self.out.measure_start_ns) as f64 / 1e9
    }

    fn read_map_bytes(&mut self) {
        self.out.map_bytes = self.server.global_map_stats().2;
        self.out.checkpoint_pairs = self.out.pairs.len();
    }

    fn register(&mut self, id: u16) -> u64 {
        let t0 = self.tracer.now_ns();
        self.server
            .try_register_client(id)
            .expect("a fresh joiner id is admitted below capacity");
        let t1 = self.tracer.now_ns();
        self.span("core.server.register", t0, t1, self.root, Some((id, 0)));
        t0
    }

    fn deregister(&mut self, id: u16) {
        let t0 = self.tracer.now_ns();
        self.server.deregister_client(id);
        let t1 = self.tracer.now_ns();
        self.span("core.server.deregister", t0, t1, self.root, Some((id, 0)));
    }
}

fn resident_feeds<'a>(inputs: &'a Inputs, encoded: Vec<Vec<Payload>>) -> Vec<Feed<'a>> {
    let live = encoded.is_empty();
    let mut encoded = encoded.into_iter();
    inputs
        .tracks
        .iter()
        .enumerate()
        .map(|(k, track)| Feed {
            client: k as u16 + 1,
            track,
            start: 0,
            len: track.frames.len(),
            next: 0,
            encoded: encoded.next().unwrap_or_default(),
            live: live.then(Encoders::new),
            anchor: k == 0,
        })
        .collect()
}

/// Drive one workload to the end of its measured window and run the
/// output checks. Returns the outcome and the still-live server, for the
/// per-layer snapshots.
pub fn run<'a>(
    kind: Kind,
    inputs: &Inputs,
    setup: SetUp,
    seconds: f64,
    tracer: &'a mut Tracer,
) -> Driver<'a> {
    let mut d = Driver::new(kind, setup.server, tracer);
    let run_start = d.tracer.now_ns();
    // Pushed first so it is span 0; its end is patched when the run ends.
    d.root = d.span("run", run_start, run_start, None, None);
    let mut feeds = resident_feeds(inputs, setup.encoded);
    for _ in 0..kind.head_start_rounds() {
        d.lockstep(&mut feeds[..1]);
    }
    for _ in 0..kind.warmup_rounds() {
        d.lockstep(&mut feeds);
    }
    d.begin_measure();
    match kind {
        Kind::Solo | Kind::Shared4 => run_closed(&mut d, &mut feeds, seconds),
        Kind::Paced4 => run_paced(&mut d, &mut feeds, inputs, seconds),
        Kind::JoinChurn => run_join_churn(&mut d, &mut feeds, inputs, seconds),
    }
    d.server.wait_merge_idle();
    let run_end = d.tracer.now_ns();
    if let Some(root) = d.tracer.spans.first_mut() {
        root.end_ns = run_end;
    }
    check(&mut d);
    d
}

/// `solo`, `shared4`: lockstep rounds until the window closes, the
/// checkpoint round is behind us, or the pool runs dry.
fn run_closed(d: &mut Driver, feeds: &mut [Feed], seconds: f64) {
    let checkpoint = d.kind.checkpoint_round();
    let mut round = 0;
    while (d.elapsed_s() < seconds || round < checkpoint) && !feeds.iter().any(Feed::exhausted) {
        d.lockstep(feeds);
        round += 1;
        if round == checkpoint {
            d.read_map_bytes();
        }
    }
}

/// `paced4`: each client sends on its own schedule whatever the server is
/// doing. Frames that came due during a round are offered as soon as it
/// returns, so their latency counts the stall from the due instant.
fn run_paced(d: &mut Driver, feeds: &mut [Feed], inputs: &Inputs, seconds: f64) {
    let period_ns = 1e9 / PACED_FPS;
    let t0 = d.out.measure_start_ns;
    let end_ns = t0 + (seconds * 1e9) as u64;
    let sent_before: Vec<usize> = feeds.iter().map(|f| f.next).collect();
    // When `feed`'s next frame is due; `None` once its sends are over.
    let due_ns = |feed: &Feed| {
        let k = feed.client as usize - 1;
        let periods = inputs.due_periods[k][feed.next - sent_before[k]];
        let due = t0 + (periods * period_ns) as u64;
        (!feed.exhausted() && due < end_ns).then_some(due)
    };
    loop {
        let now = d.tracer.now_ns();
        for feed in feeds.iter_mut() {
            while let Some(due) = due_ns(feed).filter(|&due| due <= now) {
                d.offer(feed, due);
            }
        }
        if !d.pending.is_empty() {
            let results = d.round();
            if results.is_empty() {
                d.out
                    .problems
                    .push("frames staged but the round served none".into());
                break;
            }
            for (client, res) in results {
                if res.resync_requested {
                    if let Some(enc) = &mut feeds[client as usize - 1].live {
                        enc.request_iframe();
                    }
                }
            }
            continue;
        }
        let Some(next) = feeds.iter().filter_map(&due_ns).min() else {
            break;
        };
        std::thread::sleep(Duration::from_nanos(next.saturating_sub(d.tracer.now_ns())));
    }
    // Every run offers the same frames, so the end is a fixed point.
    d.read_map_bytes();
}

/// `join_churn`: the resident keeps its closed loop while one joiner at a
/// time registers under a fresh id, replays a stretch of ground the
/// resident covered in warm-up, and leaves a few frames after its first
/// pose in the shared map.
fn run_join_churn(d: &mut Driver, feeds: &mut [Feed], inputs: &Inputs, seconds: f64) {
    struct Joiner<'a> {
        feed: Feed<'a>,
        registered_ns: u64,
        /// Frame of the first `merged && tracked` result, and the time
        /// from the register call to that result, ms.
        shared_at: Option<(usize, f64)>,
    }
    let checkpoint = d.kind.checkpoint_round();
    let resident = &mut feeds[0];
    let mut plans = inputs.joins.iter().enumerate();
    let mut joiner: Option<Joiner> = None;
    let mut round = 0;
    while (d.elapsed_s() < seconds || round < checkpoint) && !resident.exhausted() {
        if joiner.is_none() {
            let Some((n, plan)) = plans.next() else { break };
            let id = FIRST_JOINER_ID + n as u16;
            joiner = Some(Joiner {
                registered_ns: d.register(id),
                shared_at: None,
                feed: Feed {
                    client: id,
                    track: &inputs.joiner_tracks[plan.track],
                    start: plan.start,
                    len: JOIN_DEADLINE_FRAMES + JOIN_LINGER_FRAMES,
                    next: 0,
                    encoded: Vec::new(),
                    live: Some(Encoders::new()),
                    anchor: false,
                },
            });
        }
        let j = joiner.as_mut().expect("a joiner is always active here");
        let due = d.tracer.now_ns();
        d.offer(resident, due);
        d.offer(&mut j.feed, due);
        let results = d.round();
        round += 1;
        if round == checkpoint {
            d.read_map_bytes();
        }
        let done_ns = d.last_round_end_ns;
        for (client, res) in results {
            if client != j.feed.client {
                continue;
            }
            if let Some(merge) = &res.merge {
                d.out.join_merge_ms.push(merge.merge_ms);
                if !merge.report.aligned {
                    d.out
                        .problems
                        .push(format!("joiner {client} merged without alignment"));
                }
            }
            if res.merged && res.tracked && j.shared_at.is_none() {
                let to_shared_ms = (done_ns - j.registered_ns) as f64 / 1e6;
                j.shared_at = Some((res.frame_idx, to_shared_ms));
            }
        }
        let left = match j.shared_at {
            Some((at, _)) => j.feed.next > at + JOIN_LINGER_FRAMES,
            None => j.feed.next >= JOIN_DEADLINE_FRAMES,
        };
        if left {
            let id = j.feed.client;
            d.out.joins.push(Join {
                to_shared_ms: j.shared_at.map(|(_, ms)| ms),
            });
            d.deregister(id);
            joiner = None;
        }
    }
    if let Some(j) = joiner {
        // Cut off by the end of the window: not an attempt.
        d.deregister(j.feed.client);
    }
}

/// The output checks that need the server: frame conservation, and no
/// shed or lost frame where the loop is closed.
fn check(d: &mut Driver) {
    let metrics = d.server.metrics();
    let mut server_offered = metrics.retired.queues.offered;
    if metrics.retired.queues.offered != metrics.retired.queues.accounted() {
        d.out
            .problems
            .push("retired clients: offered != served + dropped + purged".into());
    }
    for (&id, q) in &metrics.queues {
        server_offered += q.offered;
        let staged = d.server.staged_depth(id) as u64;
        if q.offered != q.accounted() + staged {
            d.out.problems.push(format!(
                "client {id}: offered {} != served {} + dropped {} + purged {} + staged {staged}",
                q.offered, q.served, q.dropped_overflow, q.purged
            ));
        }
    }
    if server_offered != d.out.offered_total {
        d.out.problems.push(format!(
            "server counted {server_offered} offered frames, the driver offered {}",
            d.out.offered_total
        ));
    }
    if d.kind != Kind::Paced4 {
        if d.out.shed > 0 {
            d.out
                .problems
                .push(format!("{} frames shed in a closed loop", d.out.shed));
        }
        if d.out.tracked != d.out.offered {
            d.out.problems.push(format!(
                "{} of {} closed-loop frames came back untracked",
                d.out.offered - d.out.tracked,
                d.out.offered
            ));
        }
    }
}
