//! The asynchronous merge process M.
//!
//! SLAM-Share's merges "occur asynchronously, whenever a client observes
//! something that matches the global map" (§4.1) — but until now the
//! server ran `try_map_merge` inline in the commit stage, stalling every
//! client's commits behind DetectCommonRegion + RANSAC + the weld BA.
//! This module moves the expensive half off the commit path:
//!
//! 1. the commit stage **submits** a clone of the client's local map and
//!    returns immediately;
//! 2. the worker thread snapshots the global map (with its per-region
//!    epoch stamp) under read locks and runs [`plan_merge`] — the
//!    read-only detect/align half — entirely off-lock, querying the
//!    *live* sharded BoW index;
//! 3. the worker applies the plan under **only the destination regions'
//!    write locks** — the components where the transformed client
//!    content lands, plus the weld anchor's and the fusion targets'.
//!    The apply is valid only if none of the *locked* regions' epochs
//!    moved since the snapshot; a region outside the locked set cannot
//!    affect the apply (the absorb, fuse, weld and seam BA all stay
//!    inside the locked components), so commits into unrelated regions
//!    neither block the apply nor invalidate it. A conflicting commit
//!    bumps a destination epoch and the worker re-plans against a fresh
//!    snapshot (optimistic concurrency). After
//!    [`MAX_OPTIMISTIC_ATTEMPTS`] losses it degrades to one pessimistic
//!    plan+apply under every region's write lock, which cannot lose;
//! 4. the client's next commit **collects** the completion: keyframes and
//!    points it created after the snapshot (the delta) are transformed,
//!    remapped across the worker's point fusions and absorbed, and the
//!    process switches to shared-map tracking.
//!
//! Commits therefore never block on merge detection; only commits into
//! the merge's own destination regions ever wait for the apply section.

use crate::gmap::{LockSeeds, ShardedGlobalMap};
use crate::metrics::{MergeWorkerStats, MetricsCut};
use parking_lot::Mutex;
use slamshare_features::bow::Vocabulary;
use slamshare_sim::camera::PinholeCamera;
use slamshare_slam::ids::{KeyFrameId, MapPointId};
use slamshare_slam::map::{transform_pose_cw, Map};
use slamshare_slam::merge::{apply_merge_plan_with, plan_merge, MergePlan, MergeReport};
use slamshare_slam::optimize::MappingArena;
use slamshare_slam::recognition::ShardedKeyframeDatabase;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Optimistic apply attempts before degrading to a pessimistic merge
/// under every region's write lock.
pub const MAX_OPTIMISTIC_ATTEMPTS: usize = 3;

/// A merge request: the client's local map as of submission time.
pub struct MergeJob {
    pub client: u16,
    pub timestamp: f64,
    pub cmap: Map,
}

/// What travels down the worker channel. Lifecycle maintenance rides
/// the same queue as merges so pruning and eviction run strictly off
/// the commit critical path, serialized with merge applies.
enum WorkItem {
    Merge(MergeJob),
    /// Run one maintenance pass at this virtual frame.
    Maintain(u64),
}

/// What the worker hands back to the client's commit path.
pub struct MergeCompletion {
    pub client: u16,
    pub timestamp: f64,
    /// `None` when no common region was found — the client keeps its
    /// local map and retries once coverage grows.
    pub applied: Option<AppliedMerge>,
}

/// A merge the worker landed in the global map.
pub struct AppliedMerge {
    pub report: MergeReport,
    /// Snapshot → applied wall time, ms.
    pub merge_ms: f64,
    /// Keyframe ids of the submitted snapshot (now in the global map).
    /// The client's live map minus these is the post-snapshot delta.
    pub absorbed_kfs: BTreeSet<KeyFrameId>,
    /// Map-point ids of the submitted snapshot.
    pub absorbed_mps: BTreeSet<MapPointId>,
    /// Client points fused away during the weld → the surviving global
    /// point, for remapping delta observations.
    pub fused: HashMap<MapPointId, MapPointId>,
    /// Region indices the apply held write locks over (all of them on
    /// the pessimistic path) — the write receipt.
    pub locked_regions: Vec<usize>,
}

#[derive(Default)]
struct Desk {
    /// Clients with a job queued or running.
    in_flight: HashSet<u16>,
    /// Finished jobs awaiting collection by the client's commit path.
    done: HashMap<u16, MergeCompletion>,
}

/// Everything the worker thread needs to plan and apply merges.
pub(crate) struct MergeContext {
    pub store: Arc<ShardedGlobalMap>,
    pub db: Arc<ShardedKeyframeDatabase>,
    pub vocab: Arc<Vocabulary>,
    pub cam: PinholeCamera,
    pub with_scale: bool,
    /// The server's metrics consistent-cut gate: the worker's stat
    /// updates count as a write section, like any round's.
    pub cut: Arc<MetricsCut>,
    /// Map maintenance (prune/evict) driver; `None` when the server has
    /// lifecycle disabled.
    pub lifecycle: Option<Arc<crate::lifecycle::LifecycleManager>>,
}

/// Handle to the background merge thread. Dropping it closes the job
/// channel and joins the thread.
pub struct MergeWorker {
    tx: Option<mpsc::Sender<WorkItem>>,
    handle: Option<std::thread::JoinHandle<()>>,
    desk: Arc<Mutex<Desk>>,
    stats: Arc<MergeWorkerStats>,
}

impl MergeWorker {
    pub(crate) fn spawn(ctx: MergeContext) -> MergeWorker {
        let (tx, rx) = mpsc::channel::<WorkItem>();
        let desk = Arc::new(Mutex::new(Desk::default()));
        let stats = Arc::new(MergeWorkerStats::default());
        let worker_desk = desk.clone();
        let worker_stats = stats.clone();
        let handle = std::thread::Builder::new()
            .name("slam-share-merge".into())
            .spawn(move || {
                // One arena for the thread's lifetime: seam-BA and weld
                // scratch reaches steady state after the first job.
                let mut arena = MappingArena::default();
                while let Ok(item) = rx.recv() {
                    match item {
                        WorkItem::Merge(job) => {
                            let client = job.client;
                            let completion = ctx
                                .cut
                                .write(|| run_job(&ctx, &worker_stats, &mut arena, job));
                            let mut desk = worker_desk.lock();
                            desk.done.insert(client, completion);
                            desk.in_flight.remove(&client);
                        }
                        WorkItem::Maintain(now_frame) => {
                            if let Some(lc) = &ctx.lifecycle {
                                let _ = ctx.cut.write(|| lc.tick(now_frame));
                            }
                        }
                    }
                }
            })
            .expect("spawn merge worker");
        MergeWorker {
            tx: Some(tx),
            handle: Some(handle),
            desk,
            stats,
        }
    }

    /// Queue a merge job unless one for this client is already in flight
    /// or awaiting collection. Returns whether the job was accepted.
    pub fn submit(&self, job: MergeJob) -> bool {
        {
            let mut desk = self.desk.lock();
            if desk.in_flight.contains(&job.client) || desk.done.contains_key(&job.client) {
                return false;
            }
            desk.in_flight.insert(job.client);
        }
        self.stats.record_submitted();
        self.tx
            .as_ref()
            .expect("worker channel open while not dropping")
            .send(WorkItem::Merge(job))
            .is_ok()
    }

    /// Queue one lifecycle maintenance pass at virtual frame
    /// `now_frame`. Runs after any merges already in the queue; a no-op
    /// when the worker was built without a lifecycle manager.
    pub fn submit_maintenance(&self, now_frame: u64) -> bool {
        self.tx
            .as_ref()
            .expect("worker channel open while not dropping")
            .send(WorkItem::Maintain(now_frame))
            .is_ok()
    }

    /// Collect a finished merge for `client`, if any.
    pub fn take_completion(&self, client: u16) -> Option<MergeCompletion> {
        self.desk.lock().done.remove(&client)
    }

    /// Whether the worker's queue is fully drained (completions may still
    /// await collection).
    pub fn is_idle(&self) -> bool {
        self.desk.lock().in_flight.is_empty()
    }

    pub fn stats(&self) -> &MergeWorkerStats {
        &self.stats
    }
}

impl Drop for MergeWorker {
    fn drop(&mut self) {
        // Closing the channel ends the worker loop after the current job.
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Regions a plan's apply will write to: the components where the
/// transformed client keyframes land, the weld anchor's, and each planned
/// fusion target's. Everything `apply_merge_plan` touches is
/// covisibility-reachable from these (the weld candidates come from the
/// anchor's local-map neighbourhood; the seam BA window from the client
/// keyframes'), so locking their components suffices.
fn dest_seeds(gsnap: &Map, cmap: &Map, plan: &MergePlan) -> LockSeeds {
    let mut seeds = LockSeeds::default();
    match &plan.transform {
        Some(t) => {
            for kf in cmap.keyframes.values() {
                seeds
                    .positions
                    .push(transform_pose_cw(&kf.pose_cw, t).camera_center());
            }
            if let Some(anchor) = plan.ba_anchor {
                seeds.kfs.push(anchor);
            }
            for (_, g_mp) in &plan.fuse_pairs {
                if let Some(mp) = gsnap.mappoints.get(g_mp) {
                    if let Some(&(kf, _)) = mp.observations.first() {
                        seeds.kfs.push(kf);
                    }
                }
            }
        }
        None => {
            // become_global: plain absorb at the client's own coordinates.
            for kf in cmap.keyframes.values() {
                seeds.positions.push(kf.pose_cw.camera_center());
            }
        }
    }
    seeds
}

/// One merge job: optimistic snapshot/plan/apply with per-region stamp
/// retries, then a pessimistic all-region in-lock fallback.
fn run_job(
    ctx: &MergeContext,
    stats: &MergeWorkerStats,
    arena: &mut MappingArena,
    job: MergeJob,
) -> MergeCompletion {
    let t0 = Instant::now();
    let absorbed_kfs: BTreeSet<KeyFrameId> = job.cmap.keyframes.keys().copied().collect();
    let absorbed_mps: BTreeSet<MapPointId> = job.cmap.mappoints.keys().copied().collect();
    let completion = |applied: Option<AppliedMerge>| MergeCompletion {
        client: job.client,
        timestamp: job.timestamp,
        applied,
    };

    for attempt in 1..=MAX_OPTIMISTIC_ATTEMPTS {
        // Snapshot the global map with its per-region epoch stamp; plan
        // entirely off-lock. The live sharded BoW index may run ahead of
        // the snapshot — plan_merge skips candidates the snapshot doesn't
        // hold yet.
        let (gsnap, stamp) = ctx.store.snapshot_with_stamp();
        let plan = {
            let _span = slamshare_obs::span!("merge.plan");
            plan_merge(&gsnap, &job.cmap, &ctx.db, &ctx.vocab, ctx.with_scale)
        };
        if !plan.viable() {
            stats.record_no_region();
            return completion(None);
        }
        let seeds = dest_seeds(&gsnap, &job.cmap, &plan);
        drop(gsnap);

        // Optimistic apply under only the destination components' write
        // locks: valid iff none of the *locked* regions moved since the
        // snapshot. Commits into regions outside the locked set neither
        // block this nor invalidate it.
        let (applied, locked) = ctx.store.with_component_write(&seeds, |gmap, cw| {
            let _span = slamshare_obs::span!("merge.apply");
            let stale = cw.regions.iter().any(|&r| {
                let snap_epoch = stamp.iter().find(|&&(i, _)| i == r).map(|&(_, e)| e);
                cw.epoch_of(r) != snap_epoch
            });
            if stale {
                return (None, false);
            }
            let (report, fused) =
                apply_merge_plan_with(gmap, &ctx.db, job.cmap.clone(), &plan, &ctx.cam, arena);
            (Some((report, fused)), true)
        });
        match applied {
            Some((report, fused)) => {
                let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
                stats.record_applied(merge_ms);
                return completion(Some(AppliedMerge {
                    report,
                    merge_ms,
                    absorbed_kfs,
                    absorbed_mps,
                    fused: fused.into_iter().collect(),
                    locked_regions: locked,
                }));
            }
            None => {
                stats.record_conflict();
                if attempt == MAX_OPTIMISTIC_ATTEMPTS {
                    break;
                }
            }
        }
    }

    // Pessimistic fallback: plan and apply atomically under every
    // region's write lock. Commits wait this once, but the outcome cannot
    // be lost to a race — the same guarantee the old synchronous path had.
    let (result, locked) = ctx.store.with_write_all(|gmap, _| {
        let plan = {
            let _span = slamshare_obs::span!("merge.plan");
            plan_merge(gmap, &job.cmap, &ctx.db, &ctx.vocab, ctx.with_scale)
        };
        if !plan.viable() {
            return (None, false);
        }
        let _span = slamshare_obs::span!("merge.apply");
        let (report, fused) =
            apply_merge_plan_with(gmap, &ctx.db, job.cmap.clone(), &plan, &ctx.cam, arena);
        (Some((report, fused)), true)
    });
    match result {
        Some((report, fused)) => {
            let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
            stats.record_fallback();
            stats.record_applied(merge_ms);
            completion(Some(AppliedMerge {
                report,
                merge_ms,
                absorbed_kfs,
                absorbed_mps,
                fused: fused.into_iter().collect(),
                locked_regions: locked,
            }))
        }
        None => {
            stats.record_no_region();
            completion(None)
        }
    }
}
