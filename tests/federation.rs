//! Multi-edge-server federation, tested end to end:
//!
//! * **N=1 degeneracy** — a single-server federation is bit-identical to
//!   a plain `EdgeServer` (golden digest over every committed result and
//!   the final global map);
//! * **disjoint partition** — a 2-server federated run whose clients stay
//!   in local phase is bit-identical, server by server, to the same
//!   clients on standalone servers (zero deltas shipped);
//! * **delta application** — a cross-server delta is absorbed under only
//!   the destination owner's region locks (the absorb receipt stays
//!   inside the owned set);
//! * **handoff** — a boundary-crossing client transfers with exact
//!   GPU-slice/queue/admission accounting on the old home, and resumes
//!   tracking on the new home after the forced I-frame resync;
//! * **refusal** — a destination at capacity leaves the client on its old
//!   home untouched.

use slam_share::core::federation::{Federation, HandoffResult, ServerId};
use slam_share::core::qos::{QueuedFrame, RegisterError};
use slam_share::core::server::{EdgeServer, ServerConfig, ServerFrameResult};
use slam_share::math::Vec3;
use slam_share::net::codec::VideoEncoder;
use slam_share::net::fed::{FedMessage, MapDelta};
use slam_share::net::link::LinkConfig;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::sim::SimTime;
use slam_share::slam::ids::ClientId;
use slam_share::slam::map::{Map, MapWrite};
use slam_share::slam::vocabulary;
use std::sync::Arc;

/// Everything a frame result asserts about SLAM state, with wall-clock
/// timing fields (which legitimately vary run to run) excluded. Same
/// shape as tests/determinism.rs.
fn result_key(client: u16, r: &ServerFrameResult) -> String {
    format!(
        "c={} idx={} pose={:?} tracked={} merged={} n_matches={} merge_aligned={:?}",
        client,
        r.frame_idx,
        r.pose,
        r.tracked,
        r.merged,
        r.n_matches,
        r.merge
            .as_ref()
            .map(|m| (m.report.aligned, m.report.n_fused)),
    )
}

fn map_fingerprint(map: &Map) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, kf) in &map.keyframes {
        writeln!(s, "kf {id:?} {:?}", kf.pose_cw).unwrap();
    }
    for (id, mp) in &map.mappoints {
        writeln!(s, "mp {id:?} {:?} {:?}", mp.position, mp.normal).unwrap();
    }
    s
}

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-client synthetic stereo streams with pinned seeds (51 + c), the
/// multi-client rig shape from tests/determinism.rs.
struct Rig {
    datasets: Vec<Dataset>,
    encoders: Vec<(VideoEncoder, VideoEncoder)>,
}

impl Rig {
    fn new(n: usize, frames: usize) -> Rig {
        let datasets: Vec<Dataset> = (0..n)
            .map(|c| {
                Dataset::build(
                    DatasetConfig::new(TracePreset::V202)
                        .with_frames(frames)
                        .with_seed(51 + c as u64),
                )
            })
            .collect();
        let encoders = (0..n).map(|_| Default::default()).collect();
        Rig { datasets, encoders }
    }

    /// The staged frame for client slot `c` at tick `i` (codec state
    /// advances — call once per (c, i), in order).
    fn frame(&mut self, c: usize, i: usize) -> QueuedFrame {
        let (l, r) = self.datasets[c].render_stereo_frame(i);
        let (el, er) = &mut self.encoders[c];
        QueuedFrame {
            frame_idx: i,
            timestamp: self.datasets[c].frame_time(i),
            left: el.encode(&l).data.to_vec(),
            right: Some(er.encode(&r).data.to_vec()),
            pose_hint: (c == 0 && i == 0).then(|| self.datasets[0].gt_pose_cw(0)),
            ..QueuedFrame::default()
        }
    }
}

fn config(rig: &Rig) -> ServerConfig {
    ServerConfig::stereo_default(rig.datasets[0].rig)
}

/// Digest of a full queued-round run on a plain `EdgeServer`.
fn run_plain(rig: &mut Rig, frames: usize) -> u64 {
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut server = EdgeServer::new(config(rig), vocab);
    for c in 0..rig.datasets.len() {
        server
            .try_register_client(c as u16 + 1)
            .expect("register on plain server");
    }
    let mut keys = Vec::new();
    for i in 0..frames {
        for c in 0..rig.datasets.len() {
            let f = rig.frame(c, i);
            server.offer_frame(c as u16 + 1, f).expect("offer");
        }
        for (client, res) in server.process_queued_round() {
            keys.push(result_key(client, &res));
        }
    }
    let mut transcript = keys.join("\n");
    transcript.push('\n');
    transcript.push_str(&map_fingerprint(&server.store.snapshot_map()));
    fnv1a64(&transcript)
}

// ---------------------------------------------------------------------
// N=1 degeneracy: golden-digest equality with a plain EdgeServer.
// ---------------------------------------------------------------------

#[test]
fn single_server_federation_is_bit_identical_to_plain_edge_server() {
    const CLIENTS: usize = 3;
    const FRAMES: usize = 8;

    let mut rig = Rig::new(CLIENTS, FRAMES);
    let golden = run_plain(&mut rig, FRAMES);

    let mut rig = Rig::new(CLIENTS, FRAMES);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut fed = Federation::new(1, config(&rig), vocab, LinkConfig::ten_gbe());
    for c in 0..CLIENTS {
        let home = fed
            .try_register_client(c as u16 + 1, Vec3::default())
            .expect("register on federation");
        assert_eq!(home, 0, "single-server federation has one home");
    }
    let mut keys = Vec::new();
    let mut now = SimTime(0);
    for i in 0..FRAMES {
        for c in 0..CLIENTS {
            let f = rig.frame(c, i);
            fed.offer_frame(c as u16 + 1, f).expect("offer");
        }
        for (_server, results) in fed.process_queued_rounds(now) {
            for (client, res) in results {
                keys.push(result_key(client, &res));
            }
        }
        now += SimTime::from_millis(100.0);
    }
    let mut transcript = keys.join("\n");
    transcript.push('\n');
    transcript.push_str(&map_fingerprint(
        &fed.server(0).expect("server 0").store.snapshot_map(),
    ));

    assert_eq!(
        fed.metrics().deltas_sent,
        0,
        "a single-server federation must never encode a delta"
    );
    assert_eq!(
        fnv1a64(&transcript),
        golden,
        "N=1 federation diverged from the plain EdgeServer"
    );
}

// ---------------------------------------------------------------------
// Disjoint 2-server partition: per-server standalone bit-identity.
// ---------------------------------------------------------------------

#[test]
fn two_server_disjoint_run_matches_standalone_servers_bit_identically() {
    const FRAMES: usize = 8;

    // Two clients, one homed per server. Merges are disabled so each
    // client's content stays in its private local map: the partition is
    // disjoint by construction and zero deltas must flow.
    let mk_config = |rig: &Rig| {
        let mut c = config(rig);
        c.merge_after_keyframes = usize::MAX;
        c
    };

    // Standalone references: each client alone on its own server.
    let mut standalone = Vec::new();
    for c in 0..2usize {
        let mut rig = Rig::new(2, FRAMES);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(mk_config(&rig), vocab);
        server
            .try_register_client(c as u16 + 1)
            .expect("standalone register");
        let mut keys = Vec::new();
        for i in 0..FRAMES {
            // Advance both codecs so client c's payload bytes are
            // identical to the federated run's.
            let f0 = rig.frame(0, i);
            let f1 = rig.frame(1, i);
            let f = if c == 0 { f0 } else { f1 };
            server.offer_frame(c as u16 + 1, f).expect("offer");
            for (client, res) in server.process_queued_round() {
                keys.push(result_key(client, &res));
            }
        }
        standalone.push(fnv1a64(&keys.join("\n")));
    }

    // Federated run: find a start position homed on each server by
    // probing the ownership directory, then drive both clients.
    let mut rig = Rig::new(2, FRAMES);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut fed = Federation::new(2, mk_config(&rig), vocab, LinkConfig::ten_gbe());
    let probe = |fed: &Federation, want: usize| -> Vec3 {
        for k in 0..10_000 {
            let p = Vec3 {
                x: (k % 100) as f64 * 10.0,
                y: 0.0,
                z: (k / 100) as f64 * 10.0,
            };
            if fed.owner_of_position(p) == want {
                return p;
            }
        }
        panic!("no probe position owned by server {want}");
    };
    for c in 0..2usize {
        let pos = probe(&fed, c);
        let home = fed
            .try_register_client(c as u16 + 1, pos)
            .expect("federated register");
        assert_eq!(home, c, "client {} homed on the wrong server", c + 1);
    }
    let mut fed_keys: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    let mut now = SimTime(0);
    for i in 0..FRAMES {
        for c in 0..2usize {
            let f = rig.frame(c, i);
            fed.offer_frame(c as u16 + 1, f).expect("offer");
        }
        for (server, results) in fed.process_queued_rounds(now) {
            for (client, res) in results {
                fed_keys[server].push(result_key(client, &res));
            }
        }
        now += SimTime::from_millis(100.0);
    }

    assert_eq!(fed.metrics().deltas_sent, 0, "disjoint run shipped deltas");
    for c in 0..2usize {
        assert_eq!(
            fnv1a64(&fed_keys[c].join("\n")),
            standalone[c],
            "server {c}'s federated results diverged from its standalone run"
        );
    }
}

// ---------------------------------------------------------------------
// Delta application: absorbed under the owner's region locks only.
// ---------------------------------------------------------------------

#[test]
fn delta_applies_under_destination_owner_region_locks() {
    let rig = Rig::new(1, 2);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut fed = Federation::new(2, config(&rig), vocab, LinkConfig::ten_gbe());

    // Find a world cell whose region is owned by server 1, then build a
    // minimal fragment living entirely inside it.
    let store = fed.server(1).expect("server 1").store.clone();
    let owned: Vec<usize> = fed.ownership().regions_of(ServerId(1));
    let mut pos = None;
    for k in 0..10_000 {
        let p = Vec3 {
            x: (k % 100) as f64 * 10.0 + 5.0,
            y: 0.0,
            z: (k / 100) as f64 * 10.0 + 5.0,
        };
        if owned.contains(&store.region_of(p)) {
            pos = Some(p);
            break;
        }
    }
    let pos = pos.expect("no probe cell owned by server 1");
    let region = store.region_of(pos);

    // A minimal self-contained fragment whose only camera center sits in
    // that cell — the absorb lock seeds come from keyframe centers.
    let mut frag = Map::new(ClientId(7));
    let kf_id = frag.alloc.next_keyframe();
    frag.insert_keyframe(slam_share::slam::map::KeyFrame {
        id: kf_id,
        // camera_center() of `from_translation(t)` is `-t`.
        pose_cw: slam_share::math::SE3::from_translation(Vec3 {
            x: -pos.x,
            y: -pos.y,
            z: -pos.z,
        }),
        timestamp: 1.0,
        keypoints: vec![slam_share::features::KeyPoint {
            pt: slam_share::math::Vec2::new(3.0, 4.0),
            octave: 0,
            angle: 0.0,
            response: 1.0,
            right_x: -1.0,
            depth: 2.0,
        }],
        descriptors: vec![slam_share::features::Descriptor::ZERO],
        matched_points: vec![None],
        bow: Default::default(),
    });
    frag.create_mappoint(pos, slam_share::features::Descriptor::ZERO, kf_id, 0);

    let msg = FedMessage::Delta(MapDelta {
        from_server: 0,
        seq: 1,
        fragment: frag,
        fused: Vec::new(),
    });
    let bytes = msg.encode();
    let receipt = fed
        .apply_delta_bytes(1, &bytes)
        .expect("delta must decode and apply");
    assert!(!receipt.is_empty(), "absorb locked no regions");
    for r in &receipt {
        assert!(
            owned.contains(r),
            "delta apply locked region {r}, which server 1 does not own \
             (owned: {owned:?}, fragment region: {region})"
        );
    }
    assert_eq!(fed.metrics().deltas_applied, 1);
    assert_eq!(fed.metrics().decode_errors, 0);

    // Garbage on the wire: typed error, counted, destination untouched.
    let before = fed.server(1).expect("server 1").global_map_stats();
    assert!(fed.apply_delta_bytes(1, &[0xFF, 0xEE, 0xDD]).is_err());
    assert_eq!(fed.metrics().decode_errors, 1);
    assert_eq!(fed.server(1).expect("server 1").global_map_stats(), before);
}

// ---------------------------------------------------------------------
// Handoff: exact release accounting + resumed tracking after resync.
// ---------------------------------------------------------------------

#[test]
fn handoff_releases_old_home_exactly_and_resumes_tracking() {
    const STAGED: usize = 2;
    let mut rig = Rig::new(1, 8);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut fed = Federation::new(2, config(&rig), vocab, LinkConfig::ten_gbe());

    // Home the client on whichever server owns the origin.
    let start = Vec3::default();
    let from = fed.try_register_client(1, start).expect("register");
    let to = 1 - from;

    // Serve a few frames so queue/ingest counters move, then leave some
    // frames staged so the purge accounting is visible.
    let mut now = SimTime(0);
    for i in 0..3usize {
        let f = rig.frame(0, i);
        fed.offer_frame(1, f).expect("offer");
        fed.process_queued_rounds(now);
        now += SimTime::from_millis(100.0);
    }
    for i in 3..3 + STAGED {
        let f = rig.frame(0, i);
        fed.offer_frame(1, f).expect("offer staged");
    }
    let old = fed.server(from).expect("old home");
    assert_eq!(old.staged_depth(1), STAGED);
    let served_before = old.metrics().queues[&1].served;
    assert!(served_before > 0, "no frames served before handoff");

    // Cross the boundary: probe a position owned by the other server.
    let mut target_pos = None;
    for k in 0..10_000 {
        let p = Vec3 {
            x: (k % 100) as f64 * 10.0 + 5.0,
            y: 0.0,
            z: (k / 100) as f64 * 10.0 + 5.0,
        };
        if fed.owner_of_position(p) == to {
            target_pos = Some(p);
            break;
        }
    }
    let target_pos = target_pos.expect("no position owned by destination");
    let res = fed.maybe_handoff(1, target_pos, now, 5, rig.datasets[0].frame_time(5), None);
    let report = match res {
        HandoffResult::Transferred(r) => r,
        other => panic!("expected transfer, got {other:?}"),
    };
    assert_eq!(report.from, from);
    assert_eq!(report.to, to);
    assert!(report.resync_required);
    assert_eq!(fed.home_of(1), Some(to));

    // Old home: everything released, exactly once, exactly accounted.
    let old = fed.server(from).expect("old home");
    assert_eq!(old.client_count(), 0);
    assert_eq!(old.staged_depth(1), 0);
    assert_eq!(old.gpu.client_count(), 0, "GPU slices leaked");
    assert!(
        !old.gpu.slice_sms().contains_key(&1),
        "client 1 still holds a GPU slice on the old home"
    );
    let adm = old.admission_snapshot();
    assert_eq!(adm.live, 0);
    assert_eq!(adm.admitted, 1);
    assert_eq!(adm.departed, 1);
    let m = old.metrics();
    assert!(m.queues.is_empty(), "live queue counters leaked");
    assert_eq!(m.retired.clients, 1);
    assert_eq!(
        m.retired.queues.purged, STAGED as u64,
        "staged frames must be purged and accounted on handoff"
    );
    assert_eq!(m.retired.queues.served, served_before);
    assert_eq!(
        m.retired.queues.offered,
        m.retired.queues.served + m.retired.queues.dropped_overflow + m.retired.queues.purged
    );

    // New home: fresh registration holding GPU slices, nothing staged.
    let new = fed.server(to).expect("new home");
    assert_eq!(new.client_count(), 1);
    assert_eq!(new.staged_depth(1), 0);
    assert!(new.gpu.slice_sms().contains_key(&1));

    // Resume: the device answers the resync with a forced I-frame (its
    // encoder reference chain is useless to the new home's fresh ingest).
    rig.encoders[0].0.request_iframe();
    rig.encoders[0].1.request_iframe();
    let mut f = rig.frame(0, 3 + STAGED);
    f.follows_gap = true;
    f.pose_hint = Some(rig.datasets[0].gt_pose_cw(0));
    fed.offer_frame(1, f).expect("offer resync frame");
    let rounds = fed.process_queued_rounds(now);
    let results: Vec<&(u16, ServerFrameResult)> = rounds
        .iter()
        .flat_map(|(_, rs)| rs.iter())
        .filter(|(c, _)| *c == 1)
        .collect();
    assert_eq!(results.len(), 1, "resync frame not served");
    let (_, first) = results[0];
    assert!(
        first.decode_error.is_none(),
        "forced I-frame failed to decode: {:?}",
        first.decode_error
    );
    assert!(
        first.tracked,
        "client did not resume tracking after handoff resync"
    );
    assert_eq!(fed.metrics().handoffs, 1);
    assert_eq!(fed.metrics().handoffs_refused, 0);
}

#[test]
fn handoff_refused_at_capacity_leaves_home_untouched() {
    let rig = Rig::new(1, 2);
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut cfg = config(&rig);
    cfg.max_clients = Some(1);
    let mut fed = Federation::new(2, cfg, vocab, LinkConfig::ten_gbe());

    let from = fed.try_register_client(1, Vec3::default()).expect("c1");
    let to = 1 - from;
    // Fill the destination to capacity with another client.
    fed.server_mut(to)
        .expect("dest")
        .try_register_client(9)
        .expect("c9");

    let mut pos = None;
    for k in 0..10_000 {
        let p = Vec3 {
            x: (k % 100) as f64 * 10.0 + 5.0,
            y: 0.0,
            z: (k / 100) as f64 * 10.0 + 5.0,
        };
        if fed.owner_of_position(p) == to {
            pos = Some(p);
            break;
        }
    }
    let res = fed.maybe_handoff(1, pos.expect("probe"), SimTime(0), 0, 0.0, None);
    assert!(
        matches!(
            res,
            HandoffResult::Refused(RegisterError::AtCapacity { max: 1 })
        ),
        "expected typed capacity refusal, got {res:?}"
    );
    // The client still lives on its old home, fully intact.
    assert_eq!(fed.home_of(1), Some(from));
    let old = fed.server(from).expect("old home");
    assert_eq!(old.client_count(), 1);
    assert_eq!(old.admission_snapshot().live, 1);
    assert_eq!(old.admission_snapshot().departed, 0);
    assert_eq!(fed.metrics().handoffs, 0);
    assert_eq!(fed.metrics().handoffs_refused, 1);
}
