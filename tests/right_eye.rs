//! Stereo on demand, seen from outside a real edge server: tracking reads
//! the left eye only, so a frame extracts its right eye (and stereo-matches
//! it) exactly when its depth is needed — when it bootstraps its client or
//! inserts a keyframe.
//!
//! A frame's `timings.extract` counts the extraction kernel launches of
//! the eyes that ran, two per eye, so the results show which frames ran
//! the right eye. This is the only test in its binary: it turns on the
//! process-global observability recording to count re-tracks.

use slam_share::core::qos::QueuedFrame;
use slam_share::core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::vocabulary;
use std::sync::Arc;

const CLIENTS: usize = 2;
const FRAMES: usize = 30;

/// Whether this frame extracted its right eye.
fn right_eye_ran(r: &ServerFrameResult) -> bool {
    match r.timings.extract.launches {
        2 => false,
        4 => true,
        n => panic!("frame {}: {n} extraction launches", r.frame_idx),
    }
}

/// What one session showed, summed over its frames.
#[derive(Default)]
struct Tally {
    served: usize,
    right_eyes: usize,
    shared_keyframes: usize,
    /// Shared-phase frames that ran the right eye but inserted no
    /// keyframe: a speculative keyframe request a re-track withdrew.
    withdrawn: usize,
}

/// Run two stereo clients through merge on a real server, `FRAMES`
/// frames each: `lockstep` offers both clients' frames to each round (the
/// speculative pipeline, where one client's keyframe makes the other's
/// track stale), else each frame is a round of its own. Checks every
/// frame as it comes back.
fn run_session(lockstep: bool) -> Tally {
    let datasets: Vec<Dataset> = (0..CLIENTS)
        .map(|c| {
            Dataset::build(
                DatasetConfig::new(TracePreset::V202)
                    .with_frames(FRAMES)
                    .with_seed(61 + c as u64),
            )
        })
        .collect();
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut server = EdgeServer::new(ServerConfig::stereo_default(datasets[0].rig), vocab);
    for c in 0..CLIENTS {
        server.try_register_client(c as u16 + 1).unwrap();
    }
    let mut encoders: Vec<(VideoEncoder, VideoEncoder)> =
        (0..CLIENTS).map(|_| Default::default()).collect();

    let mut tally = Tally::default();
    // Per client: local-phase frames that ran the right eye, and the
    // keyframes its merge brought into the global map.
    let mut local_right = [0usize; CLIENTS];
    let mut merged_kfs = [None; CLIENTS];
    let mut check = |client: u16, r: &ServerFrameResult| {
        let c = client as usize - 1;
        tally.served += 1;
        let ran = right_eye_ran(r);
        tally.right_eyes += ran as usize;
        if r.merged && r.merge.is_none() {
            // Shared phase: a keyframe request reaches the commit's
            // insertion, which is what `mapping_ms` times. Every keyframe
            // has its depth.
            let inserted = r.mapping_ms > 0.0;
            assert!(
                ran || !inserted,
                "client {client} frame {}: keyframe inserted without its right eye",
                r.frame_idx
            );
            tally.shared_keyframes += inserted as usize;
            tally.withdrawn += (ran && !inserted) as usize;
        } else {
            // Local phase (including the frame whose commit merged):
            // every keyframe of the local map, the bootstrap's first, ran
            // the right eye, and no other frame did.
            local_right[c] += ran as usize;
            if let Some(m) = &r.merge {
                merged_kfs[c] = Some(m.report.n_kf_added);
            }
        }
    };
    for i in 0..FRAMES {
        for (c, (ds, (el, er))) in datasets.iter().zip(&mut encoders).enumerate() {
            let (l, r) = ds.render_stereo_frame(i);
            let frame = QueuedFrame {
                frame_idx: i,
                timestamp: ds.frame_time(i),
                left: el.encode(&l).data.to_vec(),
                right: Some(er.encode(&r).data.to_vec()),
                pose_hint: (c == 0 && i == 0).then(|| ds.gt_pose_cw(0)),
                ..QueuedFrame::default()
            };
            server.offer_frame(c as u16 + 1, frame).unwrap();
            if !lockstep {
                for (client, r) in server.process_queued_round() {
                    check(client, &r);
                }
            }
        }
        if lockstep {
            for (client, r) in server.process_queued_round() {
                check(client, &r);
            }
        }
    }

    for c in 0..CLIENTS {
        let kfs = merged_kfs[c].unwrap_or_else(|| panic!("client {} never merged", c + 1));
        assert_eq!(
            local_right[c],
            kfs,
            "client {}: {} local frames ran the right eye for {kfs} local keyframes",
            c + 1,
            local_right[c]
        );
    }
    assert!(
        tally.shared_keyframes > 0,
        "no shared-phase keyframe: the test is vacuous"
    );
    assert!(
        tally.right_eyes < tally.served,
        "the right eye ran on {} of {} frames",
        tally.right_eyes,
        tally.served
    );
    tally
}

#[test]
fn right_eye_runs_only_for_keyframes() {
    // Rounds of one: no track can go stale, so the right eye ran exactly
    // on the frames that inserted a keyframe.
    let alone = run_session(false);
    assert_eq!(
        alone.withdrawn, 0,
        "right eyes for frames that mapped nothing"
    );

    // Lockstep rounds: the same keyframes (the round pipeline is
    // bit-identical to rounds of one), each with its right eye. A frame
    // whose speculative track requested a keyframe ran the right eye in
    // the track stage; the only extra ones are requests a re-track in
    // the commit withdrew, at most one per re-track.
    slamshare_obs::reset();
    slamshare_obs::set_enabled(true);
    let lockstep = run_session(true);
    let retracks = slamshare_obs::snapshot().counter("round.retrack");
    slamshare_obs::set_enabled(false);
    slamshare_obs::reset();
    assert_eq!(lockstep.shared_keyframes, alone.shared_keyframes);
    assert_eq!(
        lockstep.right_eyes - lockstep.withdrawn,
        alone.right_eyes,
        "lockstep rounds ran the right eye for different keyframes"
    );
    assert!(
        lockstep.withdrawn as u64 <= retracks,
        "{} withdrawn right eyes against {retracks} re-tracks",
        lockstep.withdrawn
    );
}
