//! End-to-end observability: a multi-client session on the round
//! pipeline, with recording enabled, must yield an [`ObsSnapshot`] whose
//! per-stage histograms cover the whole pipeline (decode → track →
//! commit, tracking sub-stages, region lock wait), whose counters match
//! the work actually done, whose stage spans account for the round's
//! wall time when the pipeline is serialized, and which shows the
//! re-track contract: features extracted once per frame, a stale track
//! redone in milliseconds, the region read lock held only that long —
//! and the right eye extracted only for the frames that need its depth.
//!
//! Recording is process-global, so every test here serializes on one
//! mutex and leaves recording disabled and the registry reset behind it.

use parking_lot::Mutex;
use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig};
use slam_share::harness::load::{self, LoadConfig};
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::vocabulary;
use slamshare_obs::ObsSnapshot;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

static OBS_GATE: Mutex<()> = Mutex::new(());

const CLIENTS: usize = 2;

struct Session {
    server: EdgeServer,
    datasets: Vec<Dataset>,
    encoders: Vec<(VideoEncoder, VideoEncoder)>,
}

impl Session {
    fn new(frames: usize, workers: usize) -> Session {
        let datasets: Vec<Dataset> = (0..CLIENTS)
            .map(|c| {
                Dataset::build(
                    DatasetConfig::new(TracePreset::V202)
                        .with_frames(frames)
                        .with_seed(61 + c as u64),
                )
            })
            .collect();
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(datasets[0].rig), vocab);
        for c in 0..CLIENTS {
            server.try_register_client(c as u16 + 1).unwrap();
        }
        server.set_round_workers(workers);
        Session {
            server,
            datasets,
            encoders: (0..CLIENTS).map(|_| Default::default()).collect(),
        }
    }

    /// Run the rounds of frame indices `frames`; returns total wall time
    /// spent inside `process_queued_round`, ms, and the number of frames
    /// served in the shared phase (tracked directly against the global
    /// map).
    fn run(&mut self, frames: Range<usize>) -> (f64, u64) {
        let mut wall_ms = 0.0;
        let mut shared_frames = 0;
        for i in frames {
            let clients = self.datasets.iter().zip(self.encoders.iter_mut());
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
                self.server.offer_frame(c as u16 + 1, frame).unwrap();
            }
            let t0 = Instant::now();
            let results = self.server.process_queued_round();
            wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            // The frame that triggers a client's merge still ran in the
            // local phase.
            shared_frames += results
                .iter()
                .filter(|(_, r)| r.merged && r.merge.is_none())
                .count() as u64;
        }
        (wall_ms, shared_frames)
    }
}

/// Run `f` with recording on; hand back its result plus the drained
/// snapshot, leaving the global registry clean.
fn with_recording<R>(f: impl FnOnce() -> (R, ObsSnapshot)) -> (R, ObsSnapshot) {
    slamshare_obs::reset();
    slamshare_obs::set_enabled(true);
    let out = f();
    slamshare_obs::set_enabled(false);
    slamshare_obs::reset();
    out
}

#[test]
fn multi_client_round_snapshot_covers_every_stage() {
    let _gate = OBS_GATE.lock();
    const FRAMES: usize = 8;

    let (_, obs) = with_recording(|| {
        let mut session = Session::new(FRAMES, CLIENTS);
        session.run(0..FRAMES);
        let obs = session.server.metrics().obs;
        ((), obs)
    });

    assert!(obs.enabled);
    // Per-stage latency distributions for the full pipeline.
    for stage in [
        "round.decode",
        "round.track",
        "round.frontend",
        "round.commit",
        "track.extract",
        "track.extract_right",
        "track.stereo_match",
        "track.search_local_points",
        "track.optimize",
        "gmap.region_lock_wait",
        "gmap.region_read_hold",
        "gmap.region_write_hold",
    ] {
        let h = obs
            .hist(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from snapshot"));
        assert!(h.count > 0, "stage {stage} recorded nothing");
        assert!(
            h.p95_ms >= h.p50_ms && h.p50_ms >= 0.0,
            "stage {stage}: p50 {} p95 {}",
            h.p50_ms,
            h.p95_ms
        );
        assert!(h.max_ms >= h.p95_ms, "stage {stage}: percentile above max");
    }
    // Decode/track ran once per client per round.
    let decode = obs.hist("round.decode").unwrap();
    assert_eq!(decode.count, (CLIENTS * FRAMES) as u64);
    let track = obs.hist("round.track").unwrap();
    assert_eq!(track.count, (CLIENTS * FRAMES) as u64);
    assert!(track.p95_ms > 0.0, "tracking cannot be instantaneous");

    // Counters reflect the work done: every clean payload decoded, and
    // the session mapped something.
    assert_eq!(
        obs.counter("ingest.frames_decoded"),
        (CLIENTS * FRAMES) as u64
    );
    assert!(obs.counter("mapping.keyframes_inserted") > 0);
    assert!(obs.counter("mapping.points_created") > 0);

    // Span events carry the taxonomy names and nest (depth > 0 exists:
    // track sub-spans under round.track region reads, lock holds under
    // commits).
    assert!(!obs.spans.is_empty());
    assert!(obs.spans.iter().any(|s| s.name == "gmap.region_write_hold"));
    assert!(obs.spans.iter().any(|s| s.depth > 0));

    // The snapshot exports as JSON under Prometheus-style keys.
    let json = obs.to_json_string();
    assert!(json.contains("slamshare_round_track_ms"));
    assert!(json.contains("slamshare_ingest_frames_decoded_total"));
    assert!(json.contains("\"spans\""));
}

/// With one worker the three stages run inline on the calling thread, so
/// their span sums must tile the rounds' wall time (`round.frontend`
/// nests inside `round.track`, `round.retrack` inside `round.commit`).
fn assert_stages_tile(obs: &ObsSnapshot, wall_ms: f64) {
    let stage_sum_ms: f64 = ["round.decode", "round.track", "round.commit"]
        .iter()
        .filter_map(|s| obs.hist(s))
        .map(|h| h.sum_ms)
        .sum();
    let ratio = stage_sum_ms / wall_ms;
    assert!(
        (0.5..=1.05).contains(&ratio),
        "stage spans sum to {stage_sum_ms:.1} ms but rounds took {wall_ms:.1} ms \
         (ratio {ratio:.2}; expected the three stages to tile the pipeline)"
    );
}

#[test]
fn serialized_round_stage_spans_account_for_wall_time() {
    let _gate = OBS_GATE.lock();
    const FRAMES: usize = 6;

    let (wall_ms, obs) = with_recording(|| {
        let mut session = Session::new(FRAMES, 1);
        let (wall_ms, _) = session.run(0..FRAMES);
        let obs = session.server.metrics().obs;
        (wall_ms, obs)
    });

    assert_stages_tile(&obs, wall_ms);
}

/// The re-track contract, seen from outside: two clients sharing one
/// region make each other's speculative tracks stale, and the redo costs
/// the map-bound half only.
#[test]
fn stale_tracks_are_redone_without_re_extracting() {
    let _gate = OBS_GATE.lock();
    const FRAMES: usize = 30;

    let ((wall_ms, shared_frames), obs) = with_recording(|| {
        // One worker, so the stage spans must still tile the wall time.
        let mut session = Session::new(FRAMES, 1);
        let out = session.run(0..FRAMES);
        (out, session.server.metrics().obs)
    });

    // The left eye's extraction ran exactly once per frame served —
    // bootstrap, local and shared phase alike — however many tracks were
    // redone; the right eye's, at most once, and only on some frames.
    let extract = obs.hist("track.extract").unwrap();
    assert_eq!(extract.count, (CLIENTS * FRAMES) as u64);
    assert!(shared_frames > 0, "no client reached the shared phase");
    assert_eq!(obs.hist("round.frontend").unwrap().count, shared_frames);
    let extract_right = obs.hist("track.extract_right").unwrap();
    assert!(
        (CLIENTS as u64..extract.count).contains(&extract_right.count),
        "the right eye ran on {} of {} frames",
        extract_right.count,
        extract.count
    );
    assert_eq!(
        obs.hist("track.stereo_match").unwrap().count,
        extract_right.count
    );

    // At least one speculative track went stale, and redoing it cost the
    // map-bound half only. The 10 ms bound (ROADMAP item 2) is asserted
    // on the median and the tail against the front half's own median, so
    // one preempted sample on a busy host cannot fail the suite while a
    // redo that extracts again (one more front half, every time) still
    // must; `results/BENCH_obs.json` carries the gated p95s.
    let front_half_ms = obs.hist("round.frontend").unwrap().p50_ms;
    let retrack = obs
        .hist("round.retrack")
        .expect("no track went stale — test is vacuous");
    assert!(retrack.count >= 1);
    assert_eq!(obs.counter("round.retrack"), retrack.count);
    assert!(
        retrack.p50_ms < 10.0 && retrack.p95_ms < front_half_ms,
        "re-track p50 {} / p95 {} ms against a {front_half_ms} ms front half: \
         is it extracting again?",
        retrack.p50_ms,
        retrack.p95_ms
    );
    // The back half ran once per tracked frame (each client's first
    // frame bootstraps instead) plus once per redo.
    assert_eq!(
        obs.hist("track.optimize").unwrap().count,
        extract.count - CLIENTS as u64 + retrack.count
    );

    // Region read locks cover the map-bound half, not the extraction.
    let read_hold = obs.hist("gmap.region_read_hold").unwrap();
    assert!(
        read_hold.p50_ms < 10.0 && read_hold.p95_ms < front_half_ms,
        "region read hold p50 {} / p95 {} ms against a {front_half_ms} ms front half",
        read_hold.p50_ms,
        read_hold.p95_ms
    );

    assert_stages_tile(&obs, wall_ms);
}

/// One level down: on the default (simulated-GPU) server every `track.*`
/// front-half histogram is wall-clock, so the left eye's extraction
/// accounts for the front half, and a keyframe's right-eye extraction plus
/// stereo matching for the stereo step it makes up.
#[test]
fn track_stages_tile_the_front_half() {
    let _gate = OBS_GATE.lock();
    const WARMUP: usize = 8;
    const FRAMES: usize = 16;

    let (_, obs) = with_recording(|| {
        let mut session = Session::new(FRAMES, 1);
        session.run(0..WARMUP);
        for c in 1..=CLIENTS as u16 {
            assert!(session.server.is_merged(c), "client {c} never merged");
        }
        // Record shared-phase frames only, so every `track.extract`
        // sample has its `round.frontend` twin, and every
        // `track.extract_right` its `round.stereo` twin: on a shared host
        // the per-frame cost drifts too much to compare different frames.
        slamshare_obs::reset();
        session.run(WARMUP..FRAMES);
        ((), session.server.metrics().obs)
    });

    let p50 = |stage: &str| {
        obs.hist(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from snapshot"))
            .p50_ms
    };
    let count = |stage: &str| obs.hist(stage).map(|h| h.count);
    assert_eq!(count("track.extract"), count("round.frontend"));
    assert_eq!(count("track.extract_right"), count("round.stereo"));
    assert_eq!(count("track.stereo_match"), count("round.stereo"));
    assert!(
        count("round.stereo") < count("round.frontend"),
        "every shared frame extracted its right eye"
    );
    let front_half_ms = p50("round.frontend");
    let ratio = p50("track.extract") / front_half_ms;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "p50 track.extract = {:.2} ms against a {front_half_ms:.2} ms round.frontend \
         p50 (ratio {ratio:.2}): a stage histogram is not on the wall clock",
        p50("track.extract")
    );
    let stereo_ms = p50("round.stereo");
    let parts_ms = p50("track.extract_right") + p50("track.stereo_match");
    let ratio = parts_ms / stereo_ms;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "p50 track.extract_right + track.stereo_match = {parts_ms:.2} ms against a \
         {stereo_ms:.2} ms round.stereo p50 (ratio {ratio:.2}): a stage \
         histogram is not on the wall clock"
    );
}

/// The load harness drives the real server, so a recorded harness run
/// shows the round pipeline's own stages: every frame a queue served went
/// through exactly one track stage and one commit stage.
#[test]
fn load_harness_rounds_run_the_real_round_pipeline() {
    let _gate = OBS_GATE.lock();
    let seed = std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let (report, obs) = with_recording(|| {
        let report = load::run(&LoadConfig::smoke(16, seed)).report;
        (report, slamshare_obs::snapshot())
    });

    assert!(report.queue_served > 0, "nothing served: {report:?}");
    for stage in ["round.track", "round.commit"] {
        let count = obs.hist(stage).map_or(0, |h| h.count);
        assert_eq!(
            count, report.queue_served,
            "{stage} ran {count} times for {} served frames",
            report.queue_served
        );
    }
}

#[test]
fn disabled_recording_leaves_no_trace() {
    let _gate = OBS_GATE.lock();
    slamshare_obs::reset();
    assert!(!slamshare_obs::enabled());

    let mut session = Session::new(2, 1);
    session.run(0..2);
    let obs = session.server.metrics().obs;
    assert!(!obs.enabled);
    assert!(obs.spans.is_empty());
    assert_eq!(obs.counter("ingest.frames_decoded"), 0);
    assert!(obs.hist("round.track").map(|h| h.count).unwrap_or(0) == 0);
}
