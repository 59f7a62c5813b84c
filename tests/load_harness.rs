//! The scale/churn harness, tested end to end:
//!
//! * the seeded churn **property** — a surviving client's served
//!   trajectory is bit-identical whether or not everyone else joins,
//!   leaves, crashes, or streams garbage around it (the determinism
//!   claim of DESIGN.md §2, extended to churn);
//! * `EdgeServer` registration is **idempotent and leak-free** under
//!   churn: duplicate joins and over-capacity joins are typed
//!   rejections, and deregister → re-register cycles leave no residue;
//! * the bounded ingress queue **sheds by policy** (oldest non-I-frame
//!   first) with drop counters that reconcile exactly.
//!
//! `SLAMSHARE_TEST_SEED` (set by `scripts/retest.sh`) reseeds the churn
//! script, the link-loss draws, and the fault injection — the properties
//! must hold for every seed.

use slam_share::core::load::{self, LoadConfig};
use slam_share::core::qos::{QueuedFrame, RegisterError, INGRESS_QUEUE_CAP};
use slam_share::core::server::{EdgeServer, ServerConfig};
use slam_share::net::codec::VideoEncoder;
use slam_share::sim::dataset::{Dataset, DatasetConfig, TracePreset};
use slam_share::slam::vocabulary;
use std::sync::Arc;

fn seed() -> u64 {
    std::env::var("SLAMSHARE_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

// ---------------------------------------------------------------------
// The churn bit-identity property.
// ---------------------------------------------------------------------

/// Run ≥64 clients with scripted churn (leaves, silent crashes with
/// rejoin, duplicate joins, garbage-byte faults, lossy links), then run
/// *only the survivors* under the same config. Every survivor's served
/// trajectory — frame indices and f64 positions — must be bit-identical
/// between the two runs: churn may slow other streams down, but it must
/// never change what an unaffected client computes.
#[test]
fn survivor_trajectories_are_churn_independent() {
    let cfg = LoadConfig::smoke(96, seed());
    let survivors = load::survivors(&cfg);
    // ~20 % of clients churn; the property needs a healthy population on
    // both sides.
    assert!(
        survivors.len() >= 48 && survivors.len() < 96,
        "degenerate churn script: {} survivors of 96",
        survivors.len()
    );

    let full = load::run(&cfg);
    let solo = load::run_subset(&cfg, &survivors);

    // The full run must actually have exercised the churn the script
    // prescribed, or the property is vacuous. The script is a pure
    // function of (seed, id), so the expectations are exact.
    let fates: Vec<load::Fate> = (1..=96).map(|id| load::client_fate(&cfg, id)).collect();
    let r = &full.report;
    if fates.iter().any(|f| matches!(f, load::Fate::Leaver(_))) {
        assert!(r.departed > 0, "no graceful leaves: {r:?}");
    }
    if fates
        .iter()
        .any(|f| matches!(f, load::Fate::Crasher { .. }))
    {
        assert!(r.crash_evictions > 0, "no crash evictions: {r:?}");
    }
    if (1..=96).any(|id| load::client_faulty(&cfg, id)) {
        assert!(r.faults_injected > 0, "no garbage frames: {r:?}");
    }

    for &id in &survivors {
        let a = &full.trajectories[&id];
        let b = &solo.trajectories[&id];
        assert!(!a.is_empty(), "survivor {id} never got a frame served");
        assert_eq!(a, b, "survivor {id}'s trajectory depends on others' churn");
    }
}

/// Same seed, same config, same population ⇒ byte-identical report:
/// the harness itself is deterministic (the foundation under every
/// exact assertion the bench gate pins).
#[test]
fn harness_is_deterministic() {
    let cfg = LoadConfig::overload(64, seed() ^ 0xA5A5);
    let a = load::run(&cfg);
    let b = load::run(&cfg);
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap()
    );
    assert_eq!(a.trajectories, b.trajectories);
}

// ---------------------------------------------------------------------
// EdgeServer registration: typed, idempotent, leak-free.
// ---------------------------------------------------------------------

#[test]
fn register_is_typed_idempotent_and_leak_free_under_churn() {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(2)
            .with_seed(seed()),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut config = ServerConfig::stereo_default(ds.rig);
    config.max_clients = Some(4);
    let mut server = EdgeServer::new(config, vocab);

    for id in 1..=4 {
        assert!(server.try_register_client(id).is_ok(), "admit {id}");
    }
    // Over capacity: typed rejection, not a panic, and no residue.
    assert!(matches!(
        server.try_register_client(5),
        Err(RegisterError::AtCapacity { max: 4 })
    ));
    // Duplicate while live: typed rejection that leaves the live
    // registration untouched (the pre-fix `register_client` rebuilt the
    // process and leaked the old GPU slices and counters).
    assert!(matches!(
        server.try_register_client(3),
        Err(RegisterError::AlreadyRegistered(3))
    ));
    assert_eq!(server.client_count(), 4);

    // Churn: deregister → re-register the same id, many times. Every
    // observable population count must end exactly where it started.
    for _ in 0..20 {
        server.deregister_client(2);
        assert!(server.try_register_client(2).is_ok());
    }
    assert_eq!(server.client_count(), 4);
    let m = server.metrics();
    assert_eq!(m.queues.len(), 4, "queue counters leaked across churn");
    let snap = server.admission_snapshot();
    assert_eq!(snap.live, 4);
    assert_eq!(snap.rejected_capacity, 1);
    assert_eq!(snap.rejected_duplicate, 1);
    assert_eq!(snap.departed, 20);

    // Drain completely: nothing left behind, and the freed capacity is
    // immediately reusable by a previously-rejected id.
    for id in 1..=4 {
        server.deregister_client(id);
    }
    assert_eq!(server.client_count(), 0);
    assert_eq!(server.admission_snapshot().live, 0);
    assert_eq!(server.metrics().queues.len(), 0);
    assert!(server.try_register_client(5).is_ok());
}

/// Deregister must release *everything* the registration acquired — the
/// admission slot, the staged queue (drained frames accounted as purged
/// in the retired aggregate, not lost), and the GPU slices — and a
/// rejoin under the same id must start from a clean slate.
#[test]
fn deregister_releases_slot_queue_and_gpu_exactly() {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(4)
            .with_seed(seed()),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);

    server.try_register_client(1).expect("first registration");
    assert!(server.gpu.slice_sms().contains_key(&1));

    // Stage three frames (under the cap) so the queue holds live state.
    let mut enc_l = VideoEncoder::new(2, 30);
    let mut enc_r = VideoEncoder::new(2, 30);
    for i in 0..3 {
        let (l, r) = ds.render_stereo_frame(i);
        let f = QueuedFrame {
            frame_idx: i,
            timestamp: ds.frame_time(i),
            left: enc_l.encode(&l).data.to_vec(),
            right: Some(enc_r.encode(&r).data.to_vec()),
            ..QueuedFrame::default()
        };
        assert!(server.offer_frame(1, f).expect("offer").is_none());
    }
    assert_eq!(server.staged_depth(1), 3);

    server.deregister_client(1);

    // Slot, queue, GPU: all released, exactly once.
    assert_eq!(server.client_count(), 0);
    assert_eq!(server.staged_depth(1), 0);
    assert_eq!(server.gpu.client_count(), 0, "GPU slices leaked");
    assert!(server.gpu.slice_sms().is_empty());
    let snap = server.admission_snapshot();
    assert_eq!(snap.live, 0);
    assert_eq!(snap.departed, 1);
    // The dead client's counters move to the retired aggregate — the
    // staged frames are purged there, not silently dropped.
    let m = server.metrics();
    assert!(m.queues.is_empty(), "live queue counters leaked");
    assert_eq!(m.retired.clients, 1);
    assert_eq!(m.retired.queues.offered, 3);
    assert_eq!(m.retired.queues.purged, 3);
    assert_eq!(m.retired.queues.served, 0);
    assert_eq!(m.total_queue_purged(), 3);
    assert_eq!(m.total_queue_drops(), 0);

    // Double deregister: idempotent, nothing counted twice.
    server.deregister_client(1);
    let m = server.metrics();
    assert_eq!(m.retired.clients, 1);
    assert_eq!(server.admission_snapshot().departed, 1);

    // Rejoin under the same id: clean slate, fresh counters, fresh slice.
    server.try_register_client(1).expect("rejoin");
    assert_eq!(server.staged_depth(1), 0);
    assert!(server.gpu.slice_sms().contains_key(&1));
    let m = server.metrics();
    assert_eq!(m.queues[&1].offered, 0, "rejoin inherited a stale queue");
    assert_eq!(m.retired.clients, 1, "rejoin must not touch the aggregate");
}

// ---------------------------------------------------------------------
// Backpressure: bounded staging, policy eviction, exact accounting.
// ---------------------------------------------------------------------

#[test]
fn ingress_queue_sheds_oldest_non_iframe_with_exact_accounting() {
    let ds = Dataset::build(
        DatasetConfig::new(TracePreset::V202)
            .with_frames(8)
            .with_seed(seed()),
    );
    let vocab = Arc::new(vocabulary::train_random(42));
    let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);
    server.try_register_client(1).unwrap();

    // A real encoded stream: frame 0 is an I-frame, the rest P-frames.
    let mut enc_l = VideoEncoder::new(2, 30);
    let mut enc_r = VideoEncoder::new(2, 30);
    let frames: Vec<QueuedFrame> = (0..7)
        .map(|i| {
            let (l, r) = ds.render_stereo_frame(i);
            QueuedFrame {
                frame_idx: i,
                timestamp: ds.frame_time(i),
                left: enc_l.encode(&l).data.to_vec(),
                right: Some(enc_r.encode(&r).data.to_vec()),
                ..QueuedFrame::default()
            }
        })
        .collect();

    let mut evicted = Vec::new();
    for f in frames {
        if let Some(victim) = server.offer_frame(1, f).unwrap() {
            evicted.push(victim.frame_idx);
        }
    }
    // Cap INGRESS_QUEUE_CAP = 4, offered 7 ⇒ exactly 3 evictions, and the
    // I-frame (idx 0, the resync anchor) is never the victim while a
    // P-frame is staged.
    assert_eq!(INGRESS_QUEUE_CAP, 4);
    assert_eq!(server.staged_depth(1), 4);
    assert_eq!(evicted, vec![1, 2, 3], "policy must shed oldest P-frames");

    let m = server.metrics();
    assert_eq!(m.total_queue_drops(), 3);
    let q = &m.queues[&1];
    assert_eq!(q.offered, 7);
    assert_eq!(
        q.offered,
        q.served + q.dropped_overflow + q.purged + server.staged_depth(1) as u64
    );

    // Serving drains in order and survives the gap: the head is the
    // preserved I-frame, and the post-gap successor resyncs instead of
    // decoding against its evicted reference.
    let round = server.process_queued_round();
    assert_eq!(round.len(), 1);
    assert_eq!(round[0].0, 1);
    assert_eq!(round[0].1.frame_idx, 0);
    assert_eq!(server.staged_depth(1), 3);
    let round2 = server.process_queued_round();
    assert_eq!(round2[0].1.frame_idx, 4);
    assert_eq!(server.staged_depth(1), 2);
    // Frame 4 followed the gap: it must not have been decoded against
    // frame 0 as a stale reference — the stream resyncs (frame dropped,
    // I-frame requested) rather than silently corrupting imagery.
    assert!(round2[0].1.resync_requested || !round2[0].1.tracked);

    // Offering to an unknown client is a typed error, not a panic.
    assert!(server.offer_frame(9, QueuedFrame::default()).is_err());
    // An empty round is a no-op.
    server.deregister_client(1);
    assert!(server.process_queued_round().is_empty());
}
