//! The SLAM-Share edge server.
//!
//! Architecture per Fig. 3:
//!
//! * an **orchestrator** creates the global-map store (in the paper, a
//!   2 GB shared-memory segment every client process attaches by name;
//!   here [`EdgeServer::new`] builds it);
//! * one **client process** per AR device (a thread here, sharing the
//!   store through its `Arc`) decodes that device's video, runs
//!   GPU-accelerated tracking against the global map (concurrent read
//!   locks) and inserts keyframes into it (serialized write locks);
//! * the **merge process M** welds a client's initial local map into the
//!   global map (Algorithm 2) — pointer-only thanks to the shared store,
//!   which is Table 4's "SLAM-Share: 190 ms merge, no
//!   serialize/transfer/deserialize rows";
//! * the simulated **GPU is GSlice-shared** across client processes
//!   (§4.2.1).
//!
//! Until a client's map has been merged, the client process runs a
//! self-contained SLAM system on a local map (exactly how a fresh
//! ORB-SLAM3 session starts); the merge trigger then welds it in and the
//! process switches to tracking/mapping directly on the shared map.
//!
//! # Concurrency
//!
//! Each client process sits behind its own mutex, so the server itself is
//! `&self` throughout and frames for *different* clients can be processed
//! concurrently. Frames enter only through each client's bounded staging
//! queue ([`EdgeServer::offer_frame`]); [`EdgeServer::process_queued_round`]
//! pops one frame per client and runs each client's decode and then its
//! track in one parallel stage, on the scoped threads of one worker budget
//! ([`EdgeServer::set_round_workers`]); only the short commit stage
//! (keyframe insertion under the write lock, merge trigger) is
//! serialized, in client-id order. A merged client's track runs in the two
//! halves [`slamshare_slam::tracking`] splits it into: the map-free front
//! half (both ORB extractions + stereo match, ~90 % of the cost) outside
//! any map lock, once per frame, and the map-bound back half (search
//! local points + pose optimisation, a few ms) under the component's read
//! lock. Tracking is *speculative*: the back half reads the global map as
//! it stood at round start, and the commit stage transparently redoes it
//! — on the already-extracted features — if an earlier commit in the same
//! round wrote the map, which makes a round of N bit-identical to N rounds
//! of one in client-id order, at any worker count. Lock order is
//! always client mutex → store lock, and never two client mutexes at
//! once.
//!
//! The global map itself is **region-sharded** ([`crate::gmap`]): its
//! content is partitioned into [`ServerConfig::map_shards`]
//! spatial/covisibility regions, each behind its own lock and epoch
//! counter in the shm store. A speculative track read-locks only the
//! regions its reference keyframe's component covers; a commit
//! write-locks only the component its keyframe lands in; a merge, which
//! searches the whole map, locks every region. Clients mapping disjoint
//! areas therefore stop contending outside merges — and
//! because every write runs the same mapping/merge code on the locked
//! shards in place, through one stitched view, and no reader can see
//! which shard holds what, results are bit-identical at any shard count.
//!
//! The server runs no map maintenance of its own. Pruning and cold-region
//! eviction ([`crate::lifecycle`]) belong to whoever owns the frame clock:
//! they tick a `LifecycleManager` on [`EdgeServer::store`], and every
//! track, commit and merge here reloads an evicted region it touches
//! before it runs.
//!
//! Staleness is detected through the regions' **epochs**: every actual
//! map mutation (keyframe insertion, merge apply) bumps the epochs of
//! the regions it locked, and every speculative track records the
//! `(region, epoch)` stamp it read under. A commit redoes the back half
//! only when a region it actually read has moved — a cheap lock-free
//! comparison instead of a conservative per-round dirty flag. A merge
//! needs no such check: the **merge worker** ([`crate::merge_worker`])
//! plans and applies it in one write over every region, so nothing can
//! move between plan and apply. With [`ServerConfig::async_merge`] that
//! write runs on the worker's own thread: the submitting commit does not
//! wait for it, and other writes wait only while it holds the locks.
//!
//! The place-recognition inverted index ([`EdgeServer::db`]) lives
//! *outside* the store: it is sharded with per-shard locks
//! ([`ShardedKeyframeDatabase`]), so BoW index maintenance and merge
//! candidate queries never contend on the global map lock.

use crate::gmap::{LockSeeds, ShardedGlobalMap};
use crate::ingest::{DecodeOutcome, IngestCounters, VideoIngest};
use crate::merge_worker::{AppliedMerge, MergeContext, MergeJob, MergeWorker};
use crate::metrics::{
    MapShardingSnapshot, MergeWorkerSnapshot, MetricsCut, RegionLockStat, RetiredSnapshot,
    ServerMetrics,
};
use crate::qos::{
    Admission, FrameQueue, QueueCounters, QueuedFrame, RegisterError, INGRESS_QUEUE_CAP,
};
use parking_lot::Mutex;
use slamshare_features::bow::{BowVector, Vocabulary};
use slamshare_gpu::{GpuExecutor, GpuModel, SharedGpu};
use slamshare_math::{Sim3, SE3};
use slamshare_net::codec::CodecError;
use slamshare_slam::ids::{ClientId, IdAllocator, KeyFrameId};
use slamshare_slam::map::{transform_pose_cw, Map, MapRead, MapWrite};
use slamshare_slam::mapping::LocalMapper;
use slamshare_slam::merge::MergeReport;
use slamshare_slam::recognition::{self, ShardedKeyframeDatabase};
use slamshare_slam::system::{FrameInput, SlamConfig, SlamSystem};
use slamshare_slam::tracking::{FrontEnd, MotionState, SensorMode, StageTimings, Tracked, Tracker};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// SLAM configuration template applied to each client process.
    pub slam: SlamConfig,
    /// Merge a client's local map into the global map once it holds this
    /// many keyframes.
    pub merge_after_keyframes: usize,
    /// Where a merge job runs — the job itself is the same either way
    /// (see [`crate::merge_worker`]). `true`: on the merge worker's own
    /// thread, so the submitting commit does not wait for
    /// `DetectCommonRegion`/RANSAC (other writes wait while the merge
    /// holds the region locks) and the client collects the result at a
    /// later commit. `false` (the
    /// default): on the committing thread, no thread spawned, collected
    /// in the same commit — the placement the round pipeline's
    /// bit-exactness guarantee is stated against.
    pub async_merge: bool,
    /// Number of spatial/covisibility regions the global map is sharded
    /// into (each behind its own lock + epoch; see [`crate::gmap`]).
    /// Results are bit-identical at any value; `1` puts the whole map
    /// behind one lock.
    pub map_shards: usize,
    /// Admission bound: registrations beyond this many live clients are
    /// refused with [`RegisterError::AtCapacity`]. `None` (the default)
    /// admits every registration.
    pub max_clients: Option<usize>,
}

impl ServerConfig {
    pub fn stereo_default(rig: slamshare_sim::camera::StereoRig) -> ServerConfig {
        ServerConfig {
            slam: SlamConfig::stereo(rig),
            merge_after_keyframes: 3,
            async_merge: false,
            map_shards: 8,
            max_clients: None,
        }
    }
}

/// Result of processing one client frame on the server.
#[derive(Debug, Clone)]
pub struct ServerFrameResult {
    pub frame_idx: usize,
    /// The pose to return to the device (world→camera in the global
    /// frame once merged; in the client-local frame before).
    pub pose: Option<SE3>,
    pub tracked: bool,
    /// True once this client's map lives in the global map.
    pub merged: bool,
    pub n_matches: usize,
    pub timings: StageTimings,
    pub decode_ms: f64,
    /// Keyframe insertion + mapping time, ms (0 when no keyframe).
    pub mapping_ms: f64,
    /// Set when this frame triggered the client's initial merge.
    pub merge: Option<MergeOutcome>,
    /// The server wants the device to send an I-frame: this client's
    /// video stream is desynced (a payload failed to decode, or the
    /// stream is still waiting out the resync).
    pub resync_requested: bool,
    /// The codec error when *this* frame's payload failed to decode.
    pub decode_error: Option<CodecError>,
    /// Tracking restarted from a place-recognition hint this frame.
    pub relocalized: bool,
}

/// Typed rejection of a frame ([`EdgeServer::offer_frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// The frame names a client id that was never registered (or was
    /// deregistered).
    UnknownClient(u16),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::UnknownClient(id) => write!(f, "unregistered client {id}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A merge event with its measured latency.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    pub report: MergeReport,
    /// Job start → applied wall time of the merge job, ms, wherever it ran.
    pub merge_ms: f64,
}

enum Phase {
    /// Building a local map (pre-merge).
    Local(Box<SlamSystem>),
    /// Tracking/mapping directly on the shared global map.
    Shared {
        tracker: Box<Tracker>,
        mapper: Box<LocalMapper>,
        last_kf: Option<KeyFrameId>,
        /// The client's own id space, continued from its local-phase
        /// map. Kept per-client (not in the shared map) so commit
        /// interleaving across clients can never change the ids a
        /// client's keyframes get.
        alloc: IdAllocator,
    },
}

/// One per-client server process.
struct ClientProcess {
    id: ClientId,
    phase: Phase,
    /// Fault-isolated video decode + resync state machine.
    ingest: VideoIngest,
    /// Keyframe count at which the merge process next examines this
    /// client's local map (grows after each failed attempt — process M
    /// retries continuously as global coverage expands).
    next_merge_at_kfs: usize,
    /// Bounded staging queue between the network and the round pipeline
    /// ([`EdgeServer::offer_frame`] / [`EdgeServer::process_queued_round`]).
    queue: FrameQueue,
    /// Whether the GPU scheduler currently holds this client in the
    /// degraded priority class (relocalizing / persistently lost). Kept
    /// here so priority transitions fire only on edges, not per frame.
    degraded: bool,
}

/// Consecutive lost frames after which a shared-phase tracker gives up on
/// its motion model and relocalizes via place recognition.
const RELOC_AFTER_LOST: usize = 3;

/// Output of the (parallelizable) tracking stage, consumed by the
/// serialized commit stage.
enum StagedFrame {
    /// The frame never decoded (codec fault, or dropped while awaiting
    /// the resync I-frame). Nothing reached tracking; the commit stage
    /// only reports the fault and the resync request.
    Faulted {
        frame_idx: usize,
        fault: Option<CodecError>,
    },
    /// A pre-merge client ran its full self-contained pipeline. Its map
    /// is private, so there is nothing to revalidate in the commit.
    Local(ServerFrameResult),
    /// A merged client tracked speculatively against the global map.
    /// The extracted front end and pre-track motion state let the commit
    /// stage redo the map-bound half exactly if the map changed since;
    /// `stamp` is the `(region, epoch)` set the speculative track read
    /// under. `pose_hint` is the *effective* hint (upload hint or
    /// relocalization pose), so a redo replays the identical inputs.
    Shared {
        decode_ms: f64,
        front_end: FrontEnd,
        tracked: Tracked,
        stamp: Vec<(usize, u64)>,
        pre_track: MotionState,
        pose_hint: Option<SE3>,
        relocalized: bool,
    },
}

/// The edge server.
pub struct EdgeServer {
    pub config: ServerConfig,
    /// The region-sharded global map (see [`crate::gmap`]); map
    /// maintenance, when anyone runs it, ticks on this store.
    pub store: Arc<ShardedGlobalMap>,
    /// Place-recognition inverted index over the global map's keyframes.
    /// Sharded and internally locked — maintained *outside* the store
    /// lock, so BoW bookkeeping never extends the commit's critical
    /// section and the merge worker can query it lock-free of the map.
    pub db: Arc<ShardedKeyframeDatabase>,
    pub gpu: Arc<SharedGpu>,
    pub vocab: Arc<Vocabulary>,
    /// One mutex per client process: frames for different clients may be
    /// processed concurrently; frames for one client serialize.
    clients: HashMap<u16, Mutex<ClientProcess>>,
    /// Lock-free handles to each client's ingest counters, so
    /// [`EdgeServer::metrics`] never touches a client mutex.
    ingest_counters: HashMap<u16, Arc<IngestCounters>>,
    /// Lock-free handles to each client's staging-queue counters (same
    /// contract as `ingest_counters`).
    queue_counters: HashMap<u16, Arc<QueueCounters>>,
    /// The bounded live-client set ([`ServerConfig::max_clients`]).
    admission: Admission,
    /// Aggregate final counters of departed clients, folded at
    /// deregistration so their drops/purges keep counting in the server
    /// totals (see [`crate::metrics::RetiredSnapshot`]).
    retired: Mutex<RetiredSnapshot>,
    /// The id allocator each departed client had reached. Its keyframes
    /// and map points stay in the global map, so a rejoin under the same
    /// id continues from here instead of reusing their ids.
    departed_ids: HashMap<u16, IdAllocator>,
    /// `(timestamp, client, outcome)` log of merges.
    merge_log: Mutex<Vec<(f64, u16, MergeOutcome)>>,
    /// The round's one worker budget: a CPU executor whose chunker fans
    /// the parallel decode-then-track stage out over
    /// [`EdgeServer::set_round_workers`] scoped threads. Results are
    /// identical at any count (see module docs).
    round_exec: GpuExecutor,
    /// The merge process M ([`crate::merge_worker`]); it runs merges where
    /// [`ServerConfig::async_merge`] places them.
    merge_worker: MergeWorker,
    /// Consistent-cut gate between metrics writers (frame processing,
    /// merges) and [`EdgeServer::metrics`] readers — see
    /// [`crate::metrics::MetricsCut`].
    cut: Arc<MetricsCut>,
}

/// Redo the map-bound half of a stale speculative track against the
/// current `map`: rewind the motion state to before the track and run the
/// back half again on the features already extracted — bit-identical to
/// having tracked against `map` in the first place.
fn retrack(
    tracker: &mut Tracker,
    pre_track: MotionState,
    front_end: &FrontEnd,
    stale: &Tracked,
    map: &impl MapRead,
    ref_kf: Option<KeyFrameId>,
    pose_hint: Option<SE3>,
) -> Tracked {
    let _span = slamshare_obs::span!("round.retrack");
    slamshare_obs::counter_inc!("round.retrack");
    tracker.restore_motion_state(pre_track);
    tracker.track_extracted(
        front_end,
        stale.frame_idx,
        stale.timestamp,
        map,
        ref_kf,
        pose_hint,
    )
}

impl EdgeServer {
    /// Orchestrator startup: create the global map store, bring up the
    /// GPU and the merge worker.
    pub fn new(config: ServerConfig, vocab: Arc<Vocabulary>) -> EdgeServer {
        let store = ShardedGlobalMap::new(config.map_shards, crate::gmap::REGION_CELL_M);
        let db = Arc::new(ShardedKeyframeDatabase::new());
        let cut = Arc::new(MetricsCut::default());
        let gpu = Arc::new(SharedGpu::new(GpuModel::v100()));
        let merge_worker = MergeWorker::new(
            MergeContext {
                store: store.clone(),
                db: db.clone(),
                vocab: vocab.clone(),
                cam: config.slam.tracker.rig.cam,
                with_scale: config.slam.tracker.mode == SensorMode::Mono,
                cut: cut.clone(),
            },
            config.async_merge,
        );
        let admission = Admission::new(config.max_clients);
        EdgeServer {
            config,
            store,
            db,
            gpu,
            vocab,
            clients: HashMap::new(),
            ingest_counters: HashMap::new(),
            queue_counters: HashMap::new(),
            admission,
            retired: Mutex::new(RetiredSnapshot::default()),
            departed_ids: HashMap::new(),
            merge_log: Mutex::new(Vec::new()),
            round_exec: GpuExecutor::cpu_with_workers(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            merge_worker,
            cut,
        }
    }

    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Set the round's one worker budget: the threads its parallel stage
    /// (decode, then track, per client) fans out over. Defaults to the
    /// host parallelism; `1` runs the stage on the calling thread.
    /// Results do not depend on this; only wall time does.
    pub fn set_round_workers(&mut self, n: usize) {
        self.round_exec = GpuExecutor::cpu_with_workers(n);
    }

    /// Alias of [`EdgeServer::set_round_workers`]: decode runs in the same
    /// stage on the same budget. Pinned by `benchmark/`; delete when that
    /// package is next opened.
    pub fn set_decode_workers(&mut self, n: usize) {
        self.set_round_workers(n)
    }

    /// Aggregate server health: per-client ingest counters, merge worker
    /// stats, per-region map contention and the drained observability
    /// snapshot. Lock-free with respect to the client processes.
    ///
    /// The counters, lock stats and merge stats are sampled under a
    /// [`MetricsCut`] read, so the report reflects a writer-quiescent
    /// instant: sums over related counters (e.g. decode errors vs
    /// dropped frames) are never torn by an in-flight round.
    pub fn metrics(&self) -> ServerMetrics {
        // The obs snapshot drains span rings destructively, so it is
        // taken exactly once, outside the cut's retry loop.
        let obs = slamshare_obs::snapshot();
        let (mut metrics, consistent) = self.cut.read_checked(|| ServerMetrics {
            per_client: self
                .ingest_counters
                .iter()
                .map(|(&id, c)| (id, c.snapshot()))
                .collect(),
            admission: self.admission.snapshot(),
            queues: self
                .queue_counters
                .iter()
                .map(|(&id, c)| (id, c.snapshot()))
                .collect(),
            retired: *self.retired.lock(),
            merge_worker: self.merge_worker_stats(),
            map_sharding: self.map_sharding_snapshot(),
            obs: Default::default(),
            consistent_cut: false,
        });
        metrics.obs = obs;
        metrics.consistent_cut = consistent;
        metrics
    }

    /// Per-region lock acquisition/wait/epoch counters of the sharded
    /// global map — the contention attribution the sharding exists to
    /// improve.
    pub fn map_sharding_snapshot(&self) -> MapShardingSnapshot {
        let stats = self.store.shard_lock_stats();
        let epochs = self.store.region_epochs();
        MapShardingSnapshot {
            n_shards: self.store.n_shards(),
            n_components: self.store.n_components(),
            per_region: stats
                .iter()
                .zip(&epochs)
                .enumerate()
                .map(|(region, (s, &epoch))| RegionLockStat {
                    region,
                    read_acquisitions: s.read_acquisitions,
                    write_acquisitions: s.write_acquisitions,
                    wait_ns: s.wait_ns,
                    epoch,
                })
                .collect(),
        }
    }

    /// Snapshot of the merge log: `(timestamp, client, outcome)`.
    pub fn merge_log(&self) -> Vec<(f64, u16, MergeOutcome)> {
        self.merge_log.lock().clone()
    }

    /// Spawn the per-client process (Fig. 3's Process A/B).
    ///
    /// Admission control: at most [`ServerConfig::max_clients`] clients
    /// are live at once, and a live id cannot be re-registered — the
    /// existing process is left untouched and the caller gets
    /// [`RegisterError::AlreadyRegistered`]. A deregistered (departed or
    /// crashed) client's id can be re-registered — the slot was reclaimed
    /// in full — and the new process continues the keyframe and map-point
    /// id space its predecessor reached, whose content is still in the
    /// global map.
    pub fn try_register_client(&mut self, id: u16) -> Result<(), RegisterError> {
        self.admission.try_admit(id)?;
        let client_id = ClientId(id);
        let mut system = SlamSystem::new(
            client_id,
            self.config.slam.clone(),
            self.vocab.clone(),
            self.gpu.register(id as u32),
        );
        if let Some(alloc) = self.departed_ids.remove(&id) {
            system.continue_ids(alloc);
        }
        let ingest = VideoIngest::new();
        let queue = FrameQueue::new(INGRESS_QUEUE_CAP);
        self.ingest_counters.insert(id, ingest.counters());
        self.queue_counters.insert(id, queue.counters());
        self.clients.insert(
            id,
            Mutex::new(ClientProcess {
                id: client_id,
                phase: Phase::Local(Box::new(system)),
                ingest,
                next_merge_at_kfs: self.config.merge_after_keyframes,
                queue,
                degraded: false,
            }),
        );
        Ok(())
    }

    /// Remove a client process, releasing its GPU slice, staged frames
    /// and admission slot. Its contributions stay in the global map.
    ///
    /// The departing client's final queue/ingest counters are folded into
    /// the retired aggregate ([`ServerMetrics::retired`]) before the
    /// per-client handles are dropped — purged/dropped frames keep
    /// counting in the server totals, so `offered == served + dropped +
    /// purged` stays checkable across arbitrary churn and handoff. A
    /// rejoin with the same id then starts from completely fresh
    /// ingest/queue/counter state; only the process's id allocator is
    /// kept, for the rejoin to continue. Unknown ids are a no-op.
    pub fn deregister_client(&mut self, id: u16) {
        // One metrics write section: a concurrent metrics read sees the
        // counters either live (per-id) or retired (aggregate), never
        // both and never neither.
        self.cut.write(|| {
            if let Some(process) = self.clients.remove(&id) {
                let mut process = process.into_inner();
                // Count still-staged frames as purged so queue accounting
                // stays balanced across churn. Must happen before the
                // counter handles are folded below.
                process.queue.purge();
                let alloc = match &process.phase {
                    Phase::Local(system) => &system.map.alloc,
                    Phase::Shared { alloc, .. } => alloc,
                };
                self.departed_ids.insert(id, alloc.clone());
            }
            let ingest = self.ingest_counters.remove(&id).map(|c| c.snapshot());
            let queue = self.queue_counters.remove(&id).map(|c| c.snapshot());
            if ingest.is_some() || queue.is_some() {
                self.retired
                    .lock()
                    .fold(queue.unwrap_or_default(), ingest.unwrap_or_default());
            }
            self.admission.depart(id);
            self.gpu.deregister(id as u32);
        });
    }

    /// The admission controller's current counters.
    pub fn admission_snapshot(&self) -> crate::qos::AdmissionSnapshot {
        self.admission.snapshot()
    }

    /// Stage an uploaded frame into `client`'s bounded ingress queue
    /// without processing it. Under overload the queue sheds by policy
    /// (oldest non-I-frame first, see [`crate::qos::FrameQueue`]); the
    /// evicted frame is returned so callers can account the drop. The
    /// eviction's successor is tagged and the ingest state machine
    /// treats the stream as desynced from there, exactly as it does for
    /// a decode fault.
    pub fn offer_frame(
        &self,
        client: u16,
        frame: QueuedFrame,
    ) -> Result<Option<QueuedFrame>, ClientError> {
        let process = self
            .clients
            .get(&client)
            .ok_or(ClientError::UnknownClient(client))?;
        Ok(process.lock().queue.offer(frame))
    }

    /// Frames currently staged for `client`.
    pub fn staged_depth(&self, client: u16) -> usize {
        self.clients
            .get(&client)
            .map(|p| p.lock().queue.len())
            .unwrap_or(0)
    }

    /// Run one round over the staged queues — the server's only round
    /// entry: pop at most one frame per client (in client-id order) and
    /// process the batch. Clients with nothing staged simply don't
    /// participate. Returns `(client, result)` pairs in client-id order.
    /// Malformed video payloads are *not* errors: they come back as a
    /// normal [`ServerFrameResult`] with
    /// [`ServerFrameResult::decode_error`] set and a resync request — a
    /// broken client must not be able to distinguish itself from a slow
    /// one, let alone crash the server.
    ///
    /// The pipeline has one parallel stage and one serial stage:
    ///
    /// 1. **Decode, then track** — on [`EdgeServer::set_round_workers`]
    ///    scoped threads, each taking a static chunk of the frames. Per
    ///    frame the worker first decodes the client's video payloads; a
    ///    payload that fails to decode drops only its own client into
    ///    resync (see [`crate::ingest`]) and never reaches tracking. A
    ///    pre-merge client then runs its whole pipeline on its own map. A
    ///    merged client runs the *front half* (ORB extraction on both
    ///    eyes, stereo matching) lock-free, then the *back half* (search
    ///    local points, pose optimisation) reading the global map under
    ///    its component's concurrent read lock.
    /// 2. **Commit** — keyframe insertion and merge triggering run
    ///    sequentially in client-id order; if a commit writes the global
    ///    map, the remaining merged clients' speculative tracks are
    ///    stale and their back halves are redone in the commit stage on
    ///    the features already extracted (milliseconds, not a second
    ///    extraction), so the returned results are exactly what rounds
    ///    of one in client-id order would produce (timing fields aside).
    pub fn process_queued_round(&self) -> Vec<(u16, ServerFrameResult)> {
        let mut clients: Vec<(u16, &Mutex<ClientProcess>)> =
            self.clients.iter().map(|(&id, p)| (id, p)).collect();
        clients.sort_unstable_by_key(|&(id, _)| id);
        let mut popped: Vec<(u16, &Mutex<ClientProcess>, QueuedFrame)> = Vec::new();
        for (id, process) in clients {
            // A client with nothing staged is skipped on its lock-free
            // queue counters, so a round never waits on the mutex of a
            // client it would not serve (e.g. one `merge_client_now` is
            // welding). Relaxed loads suffice: an offer that happens-before
            // this round is visible to them, and one racing it was never
            // ordered into this round anyway.
            let staged = self.queue_counters.get(&id).map(|c| c.snapshot());
            if staged.is_some_and(|q| q.offered == q.accounted()) {
                continue;
            }
            let mut locked = process.lock();
            if let Some(frame) = locked.queue.pop() {
                // A frame staged after an eviction decodes against a
                // reference that no longer exists: resync first.
                if frame.follows_gap {
                    locked.ingest.note_discontinuity();
                }
                popped.push((id, process, frame));
            }
        }
        if popped.is_empty() {
            return Vec::new();
        }
        // Every metric this round writes (ingest counters, region lock
        // stats, merge stats) lands inside one consistent-cut write
        // section, so `metrics()` never reports a torn mid-round total.
        let results = self.cut.write(|| self.round_locked(&popped));
        popped.iter().map(|(id, _, _)| *id).zip(results).collect()
    }

    /// Whether a client's map has been merged into the global map.
    pub fn is_merged(&self, id: u16) -> bool {
        self.clients
            .get(&id)
            .map(|c| matches!(c.lock().phase, Phase::Shared { .. }))
            .unwrap_or(false)
    }

    /// The round pipeline body over the popped `(client, process, frame)`
    /// triples: distinct clients, in client-id order.
    fn round_locked(
        &self,
        popped: &[(u16, &Mutex<ClientProcess>, QueuedFrame)],
    ) -> Vec<ServerFrameResult> {
        // Parallel stage: each worker takes a static chunk of the round
        // and, per client, decodes the payloads and tracks the result
        // speculatively against the round-start map, under one lock of
        // the client's mutex. Decode is per-client and map-free, so it
        // needs no ordering against other clients' tracks.
        let staged = self.round_exec.par_map(popped, |(client, p, f)| {
            let mut process = p.lock();
            let decoded = process.ingest.decode(&f.left, f.right.as_deref());
            self.track_stage(&mut process, *client, f, decoded)
        });

        // Serial stage: commits in client-id order. Each staged shared
        // frame carries the epoch its speculative track read under; the
        // commit stage redoes the map-bound half of exactly those whose
        // epoch the map has since moved past (an earlier commit this
        // round, or a background merge).
        popped
            .iter()
            .zip(staged)
            .map(|((client, p, f), st)| self.commit_stage(&mut p.lock(), *client, f.timestamp, st))
            .collect()
    }

    /// The track half of the parallel stage: extract the decoded images'
    /// features (no map lock), then track them. Touches only the
    /// client's own state plus, for the map-bound half of a merged
    /// client's track, the global map under a read lock.
    fn track_stage(
        &self,
        process: &mut ClientProcess,
        client: u16,
        frame: &QueuedFrame,
        decoded: DecodeOutcome,
    ) -> StagedFrame {
        let _span = slamshare_obs::span!("round.track");
        let (left_img, right_img, decode_ms, relocalize) = match decoded {
            DecodeOutcome::Decoded {
                left,
                right,
                decode_ms,
                relocalize,
            } => (left, right, decode_ms, relocalize),
            DecodeOutcome::Dropped { fault } => {
                // A faulted/desynced stream is headed for relocalization:
                // demote it in the GPU scheduler until it recovers.
                self.note_priority(process, client, true);
                return StagedFrame::Faulted {
                    frame_idx: frame.frame_idx,
                    fault,
                };
            }
        };
        let counters = process.ingest.counters();

        // Refresh the client's GPU slice (GSlice repartitions on churn).
        let exec = self.gpu.executor(client as u32);

        // Track (and, pre-merge, map locally).
        let (staged, degraded_now) = match &mut process.phase {
            Phase::Local(system) => {
                if let Some(exec) = &exec {
                    system.tracker.exec = exec.clone();
                }
                let step = system.process_frame(FrameInput {
                    timestamp: frame.timestamp,
                    left: &left_img,
                    right: right_img.as_ref(),
                    imu: &frame.imu,
                    pose_hint: frame.pose_hint,
                });
                // Tracking is done with the images — hand the buffers back
                // to the decode pool.
                process.ingest.recycle(left_img);
                if let Some(r) = right_img {
                    process.ingest.recycle(r);
                }
                let staged = StagedFrame::Local(ServerFrameResult {
                    frame_idx: frame.frame_idx,
                    pose: step.pose_cw,
                    tracked: step.tracked,
                    merged: false,
                    n_matches: step.n_matches,
                    timings: step.timings,
                    decode_ms,
                    mapping_ms: 0.0,
                    merge: None,
                    resync_requested: false,
                    decode_error: None,
                    relocalized: false,
                });
                (staged, false)
            }
            Phase::Shared {
                tracker, last_kf, ..
            } => {
                if let Some(exec) = &exec {
                    tracker.exec = exec.clone();
                }
                // The map-free front half runs before any region lock is
                // taken, and once: every later (re-)track of this frame,
                // and the relocalization query, work from its features.
                let front_end = {
                    let _span = slamshare_obs::span!("round.frontend");
                    tracker.extract_frame(&left_img, right_img.as_ref())
                };
                process.ingest.recycle(left_img);
                if let Some(r) = right_img {
                    process.ingest.recycle(r);
                }
                // Relocalizing / persistently lost clients drop to the
                // degraded GPU class: their output no longer feeds a
                // live overlay, so interactive clients outrank them for
                // SM slices until they re-acquire the map.
                let degraded_now = relocalize || tracker.consecutive_lost() >= RELOC_AFTER_LOST;
                // Recovery: after a resync (frames were lost — the motion
                // model no longer describes frame-to-frame motion) or
                // sustained tracking loss, restart from place
                // recognition instead of a bogus prediction.
                let mut pose_hint = frame.pose_hint;
                let mut relocalized = false;
                if relocalize || tracker.consecutive_lost() >= RELOC_AFTER_LOST {
                    tracker.invalidate_motion();
                    // Relocalization queries the whole map: a lost client
                    // may have wandered back into a region the lifecycle
                    // evicted, so make everything resident before place
                    // recognition (a resident-map no-op).
                    if self.store.has_evicted() {
                        let _ = self.store.ensure_all_resident();
                    }
                    if pose_hint.is_none() {
                        let bow = self.vocab.transform(&front_end.features.descriptors);
                        let hint = self
                            .store
                            .with_view(|view| recognition::relocalize(&self.db, &bow, view));
                        if let Some((_, pose)) = hint {
                            tracker.reset_motion(pose);
                            pose_hint = Some(pose);
                            relocalized = true;
                            counters.record_relocalization();
                        }
                    }
                }
                // The pre-track snapshot is taken *after* relocalization
                // so a commit-stage redo replays the identical inputs.
                let pre_track = tracker.motion_state();
                // Concurrent read for the map-bound half, locking only the
                // regions the reference keyframe's component covers; the
                // `(region, epoch)` stamp read under the same locks
                // tells the commit stage whether this track is still
                // current when it runs.
                let (tracked, stamp) = self.store.with_track_read(*last_kf, |view, stamp| {
                    (
                        tracker.track_extracted(
                            &front_end,
                            frame.frame_idx,
                            frame.timestamp,
                            view,
                            *last_kf,
                            pose_hint,
                        ),
                        stamp.to_vec(),
                    )
                });
                let staged = StagedFrame::Shared {
                    decode_ms,
                    front_end,
                    tracked,
                    stamp,
                    pre_track,
                    pose_hint,
                    relocalized,
                };
                (staged, degraded_now)
            }
        };
        self.note_priority(process, client, degraded_now);
        staged
    }

    /// Move a client between GPU priority classes on state *edges* only
    /// (the slice table rebalances on a transition, so per-frame calls
    /// would thrash the write lock).
    fn note_priority(&self, process: &mut ClientProcess, client: u16, degraded: bool) {
        if process.degraded == degraded {
            return;
        }
        process.degraded = degraded;
        let prio = if degraded {
            slamshare_gpu::SlicePriority::Degraded
        } else {
            slamshare_gpu::SlicePriority::Interactive
        };
        self.gpu.set_priority(client as u32, prio);
    }

    /// The serialized half: keyframe insertion under the write lock and
    /// the merge trigger. A shared-phase frame whose speculative track is
    /// stale (the map's epoch moved past the one it read under) has its
    /// map-bound half redone against the current map first — bit-identical
    /// to having tracked at commit time in the first place, since the
    /// front half never read the map.
    fn commit_stage(
        &self,
        process: &mut ClientProcess,
        client: u16,
        timestamp: f64,
        staged: StagedFrame,
    ) -> ServerFrameResult {
        let _span = slamshare_obs::span!("round.commit");
        let mut result = match staged {
            // A faulted frame never touches the map (no keyframe, no epoch
            // bump, no merge trigger): the other clients' rounds proceed
            // bit-identically to a round where this client sent nothing.
            // The result asks the device for a resync I-frame.
            StagedFrame::Faulted { frame_idx, fault } => {
                return ServerFrameResult {
                    frame_idx,
                    pose: None,
                    tracked: false,
                    merged: matches!(process.phase, Phase::Shared { .. }),
                    n_matches: 0,
                    timings: Default::default(),
                    decode_ms: 0.0,
                    mapping_ms: 0.0,
                    merge: None,
                    resync_requested: true,
                    decode_error: fault,
                    relocalized: false,
                };
            }
            StagedFrame::Local(result) => result,
            StagedFrame::Shared {
                decode_ms,
                front_end,
                mut tracked,
                mut stamp,
                pre_track,
                pose_hint,
                relocalized,
            } => {
                let Phase::Shared {
                    tracker,
                    mapper,
                    last_kf,
                    alloc,
                } = &mut process.phase
                else {
                    unreachable!("staged shared frame for a pre-merge client")
                };
                // Cheap staleness pre-check (lock-free): an earlier
                // commit (same round) or a background merge bumped a
                // region this track read. Rewind the motion state and
                // redo the map-bound half against the current map.
                if !self.store.stamp_current(&stamp) {
                    (tracked, stamp) = self.store.with_track_read(*last_kf, |view, st| {
                        let redo = retrack(
                            tracker, pre_track, &front_end, &tracked, view, *last_kf, pose_hint,
                        );
                        (redo, st.to_vec())
                    });
                }
                // Keyframe insertion, write-locking only the component
                // the keyframe lands in: the reference keyframe's
                // regions plus the region under the new camera center.
                // Monocular point creation may scan arbitrary keyframes
                // (and a missing reference makes the in-lock re-track
                // pick its own), so those cases escalate to all regions.
                let mut mapping_ms = 0.0;
                if !tracked.lost && tracked.keyframe_requested {
                    let t1 = Instant::now();
                    let seeds = LockSeeds {
                        kfs: last_kf.iter().copied().collect(),
                        positions: vec![tracked.pose_cw.camera_center()],
                        all: self.config.slam.tracker.mode == SensorMode::Mono || last_kf.is_none(),
                    };
                    let (inserted, _) = self.store.with_component_write(&seeds, |map, cw| {
                        // Authoritative staleness check under the write
                        // locks: any region of the track's stamp that
                        // moved — or left the locked set entirely —
                        // forces an in-lock re-track so the insertion
                        // sees a consistent map.
                        let stale = stamp
                            .iter()
                            .any(|&(region, epoch)| cw.epoch_of(region) != Some(epoch));
                        if stale {
                            tracked = retrack(
                                tracker, pre_track, &front_end, &tracked, &*map, *last_kf,
                                pose_hint,
                            );
                            if tracked.lost || !tracked.keyframe_requested {
                                return (None, false);
                            }
                        }
                        // No re-track can follow: the observation takes
                        // the features by move (the clone copies only
                        // `matched`; the frame's result reads the rest).
                        let obs = front_end.into_observation(tracked.clone());
                        // New entities draw ids from the client's own
                        // allocator, not the view's, so ids are
                        // independent of commit interleaving.
                        *map.alloc_mut() = alloc.clone();
                        let report = mapper.insert_keyframe(map, &self.vocab, &obs);
                        *alloc = map.alloc_mut().clone();
                        let out = report.kf_id.map(|kf_id| {
                            let bow = map
                                .keyframe(kf_id)
                                .map(|kf| kf.bow.clone())
                                .unwrap_or_default();
                            (kf_id, report.n_new_points, bow)
                        });
                        (out, true)
                    });
                    if let Some((kf_id, n_new, bow)) = inserted {
                        // Index maintenance happens outside the store
                        // lock — the sharded db carries its own locks.
                        self.db.add(kf_id.0, bow);
                        *last_kf = Some(kf_id);
                        tracker.note_keyframe(tracked.n_tracked + n_new);
                    }
                    mapping_ms = t1.elapsed().as_secs_f64() * 1e3;
                }
                ServerFrameResult {
                    frame_idx: tracked.frame_idx,
                    pose: (!tracked.lost).then_some(tracked.pose_cw),
                    tracked: !tracked.lost,
                    merged: true,
                    n_matches: tracked.n_tracked,
                    timings: tracked.timings,
                    decode_ms,
                    mapping_ms,
                    merge: None,
                    resync_requested: false,
                    decode_error: None,
                    relocalized,
                }
            }
        };

        // Merge trigger (process M): a ready local map goes to the worker,
        // and whatever the worker has finished for this client — just now
        // on this thread, or earlier on its own — is collected.
        if let Phase::Local(system) = &process.phase {
            if system.is_bootstrapped() && system.map.n_keyframes() >= process.next_merge_at_kfs {
                // The worker refuses duplicates, so re-offering every
                // frame while a job is in flight is harmless.
                self.merge_worker.submit(MergeJob {
                    client,
                    timestamp,
                    cmap: system.map.clone(),
                });
            }
            if let Some(outcome) = self.collect_merge(process, client) {
                result.merged = true;
                // Re-express the frame pose in the global frame.
                if let (Some(pose), Some(t)) = (result.pose, outcome.report.transform.as_ref()) {
                    result.pose = Some(transform_pose_cw(&pose, t));
                }
                result.merge = Some(outcome);
            }
        }
        result
    }

    /// Collect the worker's finished job for `client`, if there is one.
    /// An applied merge already welded the submitted snapshot into the
    /// global map; absorb the client's post-snapshot *delta* (keyframes
    /// and points it created while the job ran on the worker's thread —
    /// nothing, when it ran on this one), remap delta observations across
    /// the job's point fusions, and switch the client to shared-map
    /// tracking. A job that found no common region pushes the client's
    /// next attempt out by two keyframes.
    fn collect_merge(&self, process: &mut ClientProcess, client: u16) -> Option<MergeOutcome> {
        let completion = self.merge_worker.take_completion(client)?;
        let Phase::Local(system) = &mut process.phase else {
            // The client left its local phase since the job was taken.
            self.merge_worker.stats().record_stale_completion();
            return None;
        };
        let Some(applied) = completion.applied else {
            process.next_merge_at_kfs = system.map.n_keyframes() + 2;
            return None;
        };
        let AppliedMerge {
            report,
            merge_ms,
            absorbed_kfs,
            absorbed_mps,
            fused,
        } = applied;
        let mut delta = std::mem::replace(&mut system.map, Map::new(process.id));
        let exec = system.tracker.exec.clone();
        let last_frame_pose = system.frame_poses.last().map(|(_, p)| *p);

        // Everything in the submitted snapshot is already global; what
        // remains is the delta.
        delta.keyframes.retain(|id, _| !absorbed_kfs.contains(id));
        delta.mappoints.retain(|id, _| !absorbed_mps.contains(id));
        if let Some(t) = &report.transform {
            delta.transform_all(t);
        }
        // Delta observations of snapshot points the weld fused away
        // follow the fusion to the surviving global point.
        for kf in delta.keyframes.values_mut() {
            for slot in kf.matched_points.iter_mut() {
                if let Some(mp) = slot {
                    if let Some(keep) = fused.get(mp) {
                        *slot = Some(*keep);
                    }
                }
            }
        }

        let alloc = delta.alloc.clone();
        if !delta.keyframes.is_empty() || !delta.mappoints.is_empty() {
            let delta_kf_ids: BTreeSet<KeyFrameId> = delta.keyframes.keys().copied().collect();
            let delta_bows: Vec<(u64, BowVector)> = delta
                .keyframes
                .values()
                .map(|kf| (kf.id.0, kf.bow.clone()))
                .collect();
            // Lock the components of every absorbed snapshot keyframe
            // (they cover every global entity the delta references —
            // fusions moved delta observations onto points observed by
            // snapshot keyframes) plus the regions where the transformed
            // delta content itself lands.
            let seeds = LockSeeds {
                kfs: absorbed_kfs.iter().copied().collect(),
                positions: delta
                    .keyframes
                    .values()
                    .map(|kf| kf.pose_cw.camera_center())
                    .collect(),
                all: false,
            };
            self.store.with_component_write(&seeds, |map, _| {
                // Points first: keyframe insertion below registers
                // observations on them.
                for (id, mut mp) in delta.mappoints {
                    mp.observations.retain(|&(kf_id, idx)| {
                        if delta_kf_ids.contains(&kf_id) {
                            return true;
                        }
                        // Observation from a snapshot keyframe (mono
                        // triangulation against an older keyframe):
                        // reconcile the global copy's back-reference,
                        // which predates this point.
                        match map.keyframe_mut(kf_id) {
                            Some(kf) => match kf.matched_points[idx] {
                                None => {
                                    kf.matched_points[idx] = Some(id);
                                    true
                                }
                                Some(existing) => existing == id,
                            },
                            None => false,
                        }
                    });
                    map.put_mappoint(mp);
                }
                for (_, kf) in delta.keyframes {
                    map.insert_keyframe(kf);
                }
                ((), true)
            });
            for (id, bow) in delta_bows {
                self.db.add(id, bow);
            }
        }

        self.enter_shared_phase(
            process,
            client,
            report.transform.as_ref(),
            exec,
            last_frame_pose,
            alloc,
        );

        let outcome = MergeOutcome { report, merge_ms };
        self.merge_log
            .lock()
            .push((completion.timestamp, client, outcome.clone()));
        Some(outcome)
    }

    /// Install an externally-built local map for a not-yet-merged client
    /// (the late-joiner upload of §4.3.1: a device arrives with a map it
    /// built offline and contributes the whole thing at once). A no-op for
    /// a client that is already merged or not registered.
    pub fn adopt_local_map(&self, client: u16, map: Map) {
        let Some(process) = self.clients.get(&client) else {
            return;
        };
        if let Phase::Local(system) = &mut process.lock().phase {
            system.map = map;
        }
    }

    /// The merge process M, on demand: weld `client`'s local map into the
    /// global map now, on the calling thread (also the late-joiner entry
    /// point — a client arriving with an existing map has *all* of its
    /// keyframes checked, §4.3.1).
    ///
    /// Returns `None` when the global map is non-empty and no common
    /// region was found — the client keeps its local map and process M
    /// retries later, exactly the paper's asynchronous-merge behaviour —
    /// and when the client is already merged, has a job in flight or is
    /// not registered.
    pub fn merge_client_now(&self, client: u16, timestamp: f64) -> Option<MergeOutcome> {
        let mut process = self.clients.get(&client)?.lock();
        self.cut.write(|| {
            if let Phase::Local(system) = &process.phase {
                self.merge_worker.run_now(MergeJob {
                    client,
                    timestamp,
                    cmap: system.map.clone(),
                });
            }
            self.collect_merge(&mut process, client)
        })
    }

    /// Transition a just-merged client process to shared-map tracking,
    /// carrying the tracker's motion state (transformed into the global
    /// frame) and the client's id allocator over.
    fn enter_shared_phase(
        &self,
        process: &mut ClientProcess,
        client: u16,
        transform: Option<&Sim3>,
        exec: Arc<GpuExecutor>,
        last_frame_pose: Option<SE3>,
        alloc: IdAllocator,
    ) {
        let mut tracker = Box::new(Tracker::new(self.config.slam.tracker.clone(), exec));
        let last_pose = last_frame_pose.map(|p| match transform {
            Some(t) => transform_pose_cw(&p, t),
            None => p,
        });
        if let Some(p) = last_pose {
            tracker.reset_motion(p);
        }
        let mapper = Box::new(LocalMapper::new(
            self.config.slam.tracker.mode,
            self.config.slam.tracker.rig,
            self.config.slam.mapping.clone(),
        ));
        // The client's own most recent keyframe anchors its local map
        // neighbourhood in the global map.
        let client_id = ClientId(client);
        let own_latest = self.store.with_view(|view| {
            view.keyframes_iter()
                .filter(|kf| kf.id.client() == client_id)
                .max_by(|a, b| a.timestamp.total_cmp(&b.timestamp).then(a.id.cmp(&b.id)))
                .map(|kf| (kf.id, kf.pose_cw))
        });
        // A late joiner whose map was adopted wholesale has no per-frame
        // pose history; seed the motion model from its newest (already
        // transformed) keyframe instead.
        if last_pose.is_none() {
            if let Some((_, pose)) = own_latest {
                tracker.reset_motion(pose);
            }
        }
        process.phase = Phase::Shared {
            tracker,
            mapper,
            last_kf: own_latest.map(|(id, _)| id),
            alloc,
        };
    }

    /// Hand `client`'s current local map to the merge worker — queued on
    /// its thread, or merged before this returns, per
    /// [`ServerConfig::async_merge`]; the client's next commit collects
    /// the result. Returns whether a job was accepted — `false` when the
    /// client is not registered, already merged or not yet bootstrapped,
    /// or a job for it is already in flight.
    pub fn submit_merge(&self, client: u16, timestamp: f64) -> bool {
        let Some(process) = self.clients.get(&client) else {
            return false;
        };
        let process = process.lock();
        let Phase::Local(system) = &process.phase else {
            return false;
        };
        if !system.is_bootstrapped() {
            return false;
        }
        self.merge_worker.submit(MergeJob {
            client,
            timestamp,
            cmap: system.map.clone(),
        })
    }

    /// Block until the merge worker has nothing queued or running
    /// (completions may still await collection at the owning client's
    /// next commit).
    pub fn wait_merge_idle(&self) {
        while !self.merge_worker.is_idle() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Counters and latency percentiles of the merge worker. Always
    /// `Some` (the `Option` is part of the API `benchmark/` and
    /// `tests/determinism.rs` compile against).
    pub fn merge_worker_stats(&self) -> Option<MergeWorkerSnapshot> {
        Some(self.merge_worker.stats().snapshot())
    }

    /// Keyframe trajectories of *pending* (not-yet-merged) client maps:
    /// `(client, [(timestamp, camera center)])`, in client-id order (so
    /// an error summed over them is the same on every run). The paper's Fig. 10
    /// measures the global map's ATE *including* these fragments — that
    /// is what makes the pre-merge ATE spike (different origins) and the
    /// post-merge collapse visible.
    pub fn pending_local_trajectories(&self) -> Vec<(u16, Vec<(f64, slamshare_math::Vec3)>)> {
        let mut out: Vec<_> = self
            .clients
            .iter()
            .filter_map(|(&id, p)| match &p.lock().phase {
                Phase::Local(system) if !system.map.is_empty() => {
                    Some((id, system.map.trajectory()))
                }
                _ => None,
            })
            .collect();
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// Snapshot of the global map's size (keyframes, map points, bytes).
    pub fn global_map_stats(&self) -> (usize, usize, usize) {
        self.store.stats()
    }

    /// Bulk-import an externally-built map fragment straight into the
    /// global map (the late-joiner upload of §4.3.1 without the
    /// alignment step — the fragment must already be in the global
    /// frame, with ids from its own client space). Write-locks only the
    /// regions the fragment's keyframes land in; returns that locked
    /// region set as a receipt, so callers can verify a fragment far
    /// from other activity never touched the other activity's regions.
    pub fn absorb_external_fragment(&self, fragment: Map) -> Vec<usize> {
        let seeds = LockSeeds {
            positions: fragment
                .keyframes
                .values()
                .map(|kf| kf.pose_cw.camera_center())
                .collect(),
            ..LockSeeds::default()
        };
        let (_, locked) = self.store.with_component_write(&seeds, |map, _| {
            slamshare_slam::merge::absorb(map, fragment, &self.db);
            ((), true)
        });
        locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_net::codec::VideoEncoder;
    use slamshare_sim::dataset::{Dataset, DatasetConfig, TracePreset};
    use slamshare_slam::vocabulary;

    struct ClientSim {
        enc_left: VideoEncoder,
        enc_right: VideoEncoder,
    }

    impl ClientSim {
        fn new() -> ClientSim {
            ClientSim {
                enc_left: VideoEncoder::default(),
                enc_right: VideoEncoder::default(),
            }
        }

        fn encode(&mut self, ds: &Dataset, i: usize) -> (Vec<u8>, Vec<u8>) {
            let (l, r) = ds.render_stereo_frame(i);
            (
                self.enc_left.encode(&l).data.to_vec(),
                self.enc_right.encode(&r).data.to_vec(),
            )
        }
    }

    /// A stereo frame of a registered client, ready to offer.
    fn queued(
        frame_idx: usize,
        timestamp: f64,
        (left, right): (Vec<u8>, Vec<u8>),
        pose_hint: Option<SE3>,
    ) -> QueuedFrame {
        QueuedFrame {
            frame_idx,
            timestamp,
            left,
            right: Some(right),
            pose_hint,
            ..QueuedFrame::default()
        }
    }

    /// A round of one stereo frame for a registered client.
    fn process_one(
        server: &EdgeServer,
        client: u16,
        frame_idx: usize,
        timestamp: f64,
        payload: (Vec<u8>, Vec<u8>),
        pose_hint: Option<SE3>,
    ) -> ServerFrameResult {
        server
            .offer_frame(client, queued(frame_idx, timestamp, payload, pose_hint))
            .expect("registered client");
        server.process_queued_round().remove(0).1
    }

    fn dataset(preset: TracePreset, frames: usize, seed: u64) -> Dataset {
        Dataset::build(
            DatasetConfig::new(preset)
                .with_frames(frames)
                .with_seed(seed),
        )
    }

    #[test]
    fn single_client_tracks_and_merges_into_global() {
        let ds = dataset(TracePreset::V202, 10, 21);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);
        server.try_register_client(1).unwrap();
        let mut sim = ClientSim::new();

        let mut merged_at = None;
        for i in 0..10 {
            let res = process_one(
                &server,
                1,
                i,
                ds.frame_time(i),
                sim.encode(&ds, i),
                (i == 0).then(|| ds.gt_pose_cw(0)),
            );
            if res.merge.is_some() && merged_at.is_none() {
                merged_at = Some(i);
            }
            if i > 0 {
                assert!(res.tracked, "frame {i} lost");
                let err = res.pose.unwrap().center_distance(&ds.gt_pose_cw(i));
                // Loose bound: the vendored deterministic RNG produces
                // different streams than upstream `rand`, which shifts
                // the synthetic scene's texture and leaves a couple of
                // frames marginally above the original 0.1 m.
                assert!(err < 0.15, "frame {i} pose error {err}");
            }
        }
        assert!(merged_at.is_some(), "client never merged");
        assert!(server.is_merged(1));
        let (kfs, mps, bytes) = server.global_map_stats();
        assert!(kfs >= 3, "{kfs} keyframes in global map");
        assert!(mps > 200);
        assert!(bytes > 10_000);
        assert_eq!(server.merge_log().len(), 1);
    }

    #[test]
    fn two_clients_share_one_global_map() {
        // The headline behaviour (Fig. 1b): A maps the room, B joins and
        // localizes *in the shared map* with correct global coordinates.
        let ds_a = dataset(TracePreset::MH04, 12, 31);
        let ds_b = dataset(TracePreset::MH05, 12, 32);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(ds_a.rig), vocab);
        server.try_register_client(1).unwrap();
        server.try_register_client(2).unwrap();
        let mut sim_a = ClientSim::new();
        let mut sim_b = ClientSim::new();

        // Client A maps first. Anchor its map at ground truth so the
        // global frame is the world frame (pure gauge choice).
        for i in 0..12 {
            process_one(
                &server,
                1,
                i,
                ds_a.frame_time(i),
                sim_a.encode(&ds_a, i),
                (i == 0).then(|| ds_a.gt_pose_cw(0)),
            );
        }
        assert!(server.is_merged(1));

        // Client B joins with its own private origin (no hint): its local
        // map is in B-local coordinates until merged.
        let mut b_merge: Option<MergeOutcome> = None;
        let mut post_merge_errs = Vec::new();
        for i in 0..12 {
            let payload = sim_b.encode(&ds_b, i);
            let res = process_one(&server, 2, i, 1.0 + ds_b.frame_time(i), payload, None);
            if let Some(m) = &res.merge {
                b_merge = Some(m.clone());
            }
            if server.is_merged(2) && res.tracked {
                let err = res.pose.unwrap().center_distance(&ds_b.gt_pose_cw(i));
                post_merge_errs.push(err);
            }
        }
        let merge = b_merge.expect("client B never merged");
        assert!(
            merge.report.aligned,
            "B was absorbed without alignment: {:?}",
            merge.report
        );
        assert!(merge.report.n_fused > 0);
        assert!(!post_merge_errs.is_empty(), "no post-merge tracking for B");
        let mean_err: f64 = post_merge_errs.iter().sum::<f64>() / post_merge_errs.len() as f64;
        assert!(
            mean_err < 0.40,
            "B's global-frame tracking error {mean_err} m (merge rmse {})",
            merge.report.alignment_rmse
        );
        // Both clients' keyframes coexist in one (stitched) map.
        let has_both = server.store.with_view(|v| {
            let mut clients: Vec<u16> = v.keyframes_iter().map(|kf| kf.id.client().0).collect();
            clients.sort_unstable();
            clients.dedup();
            clients.len() >= 2
        });
        assert!(has_both);
    }

    #[test]
    fn gpu_slices_follow_registration() {
        let ds = dataset(TracePreset::V202, 2, 23);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);
        server.try_register_client(1).unwrap();
        let solo = server.gpu.allocation()[&1];
        server.try_register_client(2).unwrap();
        let duo = server.gpu.allocation()[&1];
        assert!(duo <= solo);
        server.deregister_client(2);
        assert_eq!(server.client_count(), 1);
    }

    #[test]
    fn round_of_two_clients_tracks_both() {
        let ds_a = dataset(TracePreset::V202, 10, 41);
        let ds_b = dataset(TracePreset::V202, 10, 42);
        let vocab = Arc::new(vocabulary::train_random(42));
        let mut server = EdgeServer::new(ServerConfig::stereo_default(ds_a.rig), vocab);
        server.try_register_client(1).unwrap();
        server.try_register_client(2).unwrap();
        server.set_round_workers(2);
        let mut sim_a = ClientSim::new();
        let mut sim_b = ClientSim::new();

        for i in 0..10 {
            let hint_a = (i == 0).then(|| ds_a.gt_pose_cw(0));
            let frame_a = queued(i, ds_a.frame_time(i), sim_a.encode(&ds_a, i), hint_a);
            let frame_b = queued(i, ds_b.frame_time(i), sim_b.encode(&ds_b, i), None);
            server.offer_frame(1, frame_a).unwrap();
            server.offer_frame(2, frame_b).unwrap();
            let results = server.process_queued_round();
            assert_eq!(results.len(), 2);
            assert_eq!(results[0].0, 1);
            assert_eq!(results[0].1.frame_idx, i);
            if i > 0 {
                assert!(results[0].1.tracked, "client 1 lost at frame {i}");
            }
        }
        // Client 1 bootstrapped and merged; its frames land in the map.
        assert!(server.is_merged(1));
        let (kfs, _, _) = server.global_map_stats();
        assert!(kfs >= 3);
    }

    #[test]
    fn merge_calls_on_unknown_clients_refuse_without_panicking() {
        let ds = dataset(TracePreset::V202, 1, 21);
        let vocab = Arc::new(vocabulary::train_random(42));
        let server = EdgeServer::new(ServerConfig::stereo_default(ds.rig), vocab);
        server.adopt_local_map(9, Map::new(ClientId(9)));
        assert!(server.merge_client_now(9, 0.0).is_none());
        assert!(!server.submit_merge(9, 0.0));
        assert!(server.merge_log().is_empty());
    }
}
