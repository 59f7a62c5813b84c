//! The merge process M: one merge body, two placements.
//!
//! SLAM-Share's merges "occur asynchronously, whenever a client observes
//! something that matches the global map" (§4.1). Every merge the server
//! performs is one [`MergeJob`] run by the same body:
//!
//! 1. the commit stage **submits** a clone of the client's local map;
//! 2. the job snapshots the global map (with its per-region epoch stamp)
//!    under read locks and runs [`plan_merge`] — the read-only
//!    detect/align half — entirely off-lock, querying the *live* sharded
//!    BoW index;
//! 3. it applies the plan under **only the destination regions' write
//!    locks** — the components where the transformed client content
//!    lands, plus the weld anchor's and the fusion targets'. The apply is
//!    valid only if none of the *locked* regions' epochs moved since the
//!    snapshot; a region outside the locked set cannot affect the apply
//!    (the absorb, fuse, weld and seam BA all stay inside the locked
//!    components), so commits into unrelated regions neither block the
//!    apply nor invalidate it. A conflicting commit bumps a destination
//!    epoch and the job re-plans against a fresh snapshot (optimistic
//!    concurrency). After [`MAX_OPTIMISTIC_ATTEMPTS`] losses it degrades
//!    to one pessimistic plan+apply under every region's write lock,
//!    which cannot lose;
//! 4. the client's commit **collects** the completion: keyframes and
//!    points it created after the snapshot (the delta) are transformed,
//!    remapped across the job's point fusions and absorbed, and the
//!    process switches to shared-map tracking.
//!
//! [`ServerConfig::async_merge`](crate::server::ServerConfig::async_merge)
//! picks only *where* a submitted job runs: on the worker thread (commits
//! never block on merge detection; only commits into the merge's own
//! destination regions wait for the apply section) or right there on the
//! submitting caller (no thread is spawned; the completion is ready when
//! `submit` returns, so the delta of step 4 is empty).

use crate::gmap::{ComponentMapMut, LockSeeds, ShardedGlobalMap};
use crate::metrics::{MergeWorkerStats, MetricsCut};
use parking_lot::Mutex;
use slamshare_features::bow::Vocabulary;
use slamshare_sim::camera::PinholeCamera;
use slamshare_slam::ids::{KeyFrameId, MapPointId};
use slamshare_slam::map::{transform_pose_cw, Map, MapRead};
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

/// What a finished job hands back to the client's commit path.
pub struct MergeCompletion {
    pub timestamp: f64,
    /// `None` when no common region was found — the client keeps its
    /// local map and retries once coverage grows.
    pub applied: Option<AppliedMerge>,
}

/// A merge landed in the global map.
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
}

#[derive(Default)]
struct Desk {
    /// Clients with a job queued or running.
    in_flight: HashSet<u16>,
    /// Finished jobs awaiting collection by the client's commit path.
    done: HashMap<u16, MergeCompletion>,
}

/// Everything a job needs to plan and apply a merge.
pub(crate) struct MergeContext {
    pub store: Arc<ShardedGlobalMap>,
    pub db: Arc<ShardedKeyframeDatabase>,
    pub vocab: Arc<Vocabulary>,
    pub cam: PinholeCamera,
    pub with_scale: bool,
    /// The server's metrics consistent-cut gate: a job's stat updates
    /// count as a write section, like any round's.
    pub cut: Arc<MetricsCut>,
}

/// What both placements share: the context, the desk and the counters.
struct Shared {
    ctx: MergeContext,
    desk: Mutex<Desk>,
    stats: MergeWorkerStats,
}

impl Shared {
    /// Run one job to completion on the calling thread and leave its
    /// completion on the desk.
    fn run(&self, job: MergeJob, arena: &mut MappingArena) {
        let client = job.client;
        let completion = self
            .ctx
            .cut
            .write(|| run_job(&self.ctx, &self.stats, arena, job));
        let mut desk = self.desk.lock();
        desk.done.insert(client, completion);
        desk.in_flight.remove(&client);
    }
}

/// The thread placement: the queue into the merge thread and its handle.
struct WorkerThread {
    tx: mpsc::Sender<MergeJob>,
    handle: std::thread::JoinHandle<()>,
}

/// The server's merge process. Dropping it closes the job channel and
/// joins the thread, when there is one.
pub struct MergeWorker {
    shared: Arc<Shared>,
    /// `None` on the caller placement: a submitted job runs on the thread
    /// that submits it.
    thread: Option<WorkerThread>,
}

impl MergeWorker {
    /// `on_thread` spawns the merge thread; a spawn the OS refuses is
    /// counted (`merge.worker_lost`) and leaves the caller placement.
    pub(crate) fn new(ctx: MergeContext, on_thread: bool) -> MergeWorker {
        let shared = Arc::new(Shared {
            ctx,
            desk: Mutex::new(Desk::default()),
            stats: MergeWorkerStats::default(),
        });
        let thread = on_thread.then(|| spawn_thread(shared.clone())).flatten();
        if on_thread && thread.is_none() {
            shared.stats.record_worker_lost();
        }
        MergeWorker { shared, thread }
    }

    /// Book `job` on the desk unless its client already has one in flight
    /// or awaiting collection, then run it where `thread` says — the one
    /// place a job's placement is decided: down the channel when `thread`
    /// is given, else right here. `false` when the job was a duplicate or
    /// the thread is gone (it panicked in a job) and nothing ran.
    fn place(&self, job: MergeJob, thread: Option<&WorkerThread>) -> bool {
        let client = job.client;
        {
            let mut desk = self.shared.desk.lock();
            if desk.in_flight.contains(&client) || desk.done.contains_key(&client) {
                return false;
            }
            desk.in_flight.insert(client);
        }
        let placed = match thread {
            Some(t) => t.tx.send(job).is_ok(),
            None => {
                // Merges come once per client: the caller placement has no
                // scratch worth keeping between them.
                self.shared.run(job, &mut MappingArena::default());
                true
            }
        };
        if placed {
            self.shared.stats.record_submitted();
        } else {
            self.shared.desk.lock().in_flight.remove(&client);
            self.shared.stats.record_worker_lost();
        }
        placed
    }

    /// Hand a merge job to the configured placement unless one for this
    /// client is already in flight or awaiting collection. Returns
    /// whether the job was accepted; on the caller placement its
    /// completion is ready on return.
    pub fn submit(&self, job: MergeJob) -> bool {
        self.place(job, self.thread.as_ref())
    }

    /// [`MergeWorker::submit`], but on the calling thread whatever the
    /// configured placement.
    pub(crate) fn run_now(&self, job: MergeJob) -> bool {
        self.place(job, None)
    }

    /// Collect a finished merge for `client`, if any.
    pub fn take_completion(&self, client: u16) -> Option<MergeCompletion> {
        self.shared.desk.lock().done.remove(&client)
    }

    /// Whether nothing is queued or running (completions may still await
    /// collection). A thread that has died will never finish what it
    /// held, so it counts as idle.
    pub fn is_idle(&self) -> bool {
        self.shared.desk.lock().in_flight.is_empty()
            || self.thread.as_ref().is_some_and(|t| t.handle.is_finished())
    }

    pub fn stats(&self) -> &MergeWorkerStats {
        &self.shared.stats
    }
}

fn spawn_thread(shared: Arc<Shared>) -> Option<WorkerThread> {
    let (tx, rx) = mpsc::channel::<MergeJob>();
    let handle = std::thread::Builder::new()
        .name("slam-share-merge".into())
        .spawn(move || {
            // One arena for the thread's lifetime: seam-BA and weld
            // scratch reaches steady state after the first job.
            let mut arena = MappingArena::default();
            while let Ok(job) = rx.recv() {
                shared.run(job, &mut arena);
            }
        })
        .ok()?;
    Some(WorkerThread { tx, handle })
}

impl Drop for MergeWorker {
    fn drop(&mut self) {
        if let Some(WorkerThread { tx, handle }) = self.thread.take() {
            // Closing the channel ends the worker loop after the current
            // job.
            drop(tx);
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

/// One merge job, timed snapshot → applied.
fn run_job(
    ctx: &MergeContext,
    stats: &MergeWorkerStats,
    arena: &mut MappingArena,
    job: MergeJob,
) -> MergeCompletion {
    let t0 = Instant::now();
    let applied = land(ctx, stats, arena, &job.cmap).map(|(report, fused)| {
        let merge_ms = t0.elapsed().as_secs_f64() * 1e3;
        stats.record_applied(merge_ms);
        AppliedMerge {
            report,
            merge_ms,
            absorbed_kfs: job.cmap.keyframes.keys().copied().collect(),
            absorbed_mps: job.cmap.mappoints.keys().copied().collect(),
            fused: fused.into_iter().collect(),
        }
    });
    if applied.is_none() {
        stats.record_no_region();
    }
    MergeCompletion {
        timestamp: job.timestamp,
        applied,
    }
}

/// Weld `cmap` into the global map: optimistic snapshot/plan/apply with
/// per-region stamp retries, then one pessimistic all-region in-lock
/// attempt. Returns the report and the `(client_mp, surviving_global_mp)`
/// fusions applied; `None` when there is no common region yet.
fn land(
    ctx: &MergeContext,
    stats: &MergeWorkerStats,
    arena: &mut MappingArena,
    cmap: &Map,
) -> Option<(MergeReport, Vec<(MapPointId, MapPointId)>)> {
    fn plan_against(ctx: &MergeContext, gmap: &impl MapRead, cmap: &Map) -> MergePlan {
        let _span = slamshare_obs::span!("merge.plan");
        plan_merge(gmap, cmap, &ctx.db, &ctx.vocab, ctx.with_scale)
    }
    let mut apply = |gmap: &mut ComponentMapMut<'_>, plan: &MergePlan| {
        let _span = slamshare_obs::span!("merge.apply");
        apply_merge_plan_with(gmap, &ctx.db, cmap.clone(), plan, &ctx.cam, arena)
    };

    for _ in 0..MAX_OPTIMISTIC_ATTEMPTS {
        // Snapshot the global map with its per-region epoch stamp; plan
        // entirely off-lock. The live sharded BoW index may run ahead of
        // the snapshot — plan_merge skips candidates the snapshot doesn't
        // hold yet.
        let (gsnap, stamp) = ctx.store.snapshot_with_stamp();
        let plan = plan_against(ctx, &gsnap, cmap);
        if !plan.viable() {
            return None;
        }
        let seeds = dest_seeds(&gsnap, cmap, &plan);
        drop(gsnap);

        // Optimistic apply under only the destination components' write
        // locks: valid iff none of the *locked* regions moved since the
        // snapshot. Commits into regions outside the locked set neither
        // block this nor invalidate it.
        let (applied, _) = ctx.store.with_component_write(&seeds, |gmap, cw| {
            let stale = cw.regions.iter().any(|&r| {
                let snap_epoch = stamp.iter().find(|&&(i, _)| i == r).map(|&(_, e)| e);
                cw.epoch_of(r) != snap_epoch
            });
            if stale {
                return (None, false);
            }
            (Some(apply(gmap, &plan)), true)
        });
        if applied.is_some() {
            return applied;
        }
        stats.record_conflict();
    }

    // Pessimistic last attempt: plan and apply atomically under every
    // region's write lock. Commits wait this once, but the outcome cannot
    // be lost to a race.
    let (applied, _) = ctx
        .store
        .with_component_write(&LockSeeds::all(), |gmap, _| {
            let plan = plan_against(ctx, &*gmap, cmap);
            if !plan.viable() {
                return (None, false);
            }
            (Some(apply(gmap, &plan)), true)
        });
    if applied.is_some() {
        stats.record_fallback();
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_shm::Segment;
    use slamshare_slam::ids::ClientId;

    fn context() -> MergeContext {
        let segment = Arc::new(Segment::new(64 * 1024 * 1024));
        MergeContext {
            store: ShardedGlobalMap::create(segment, "test/global-map", 4, 10.0)
                .expect("fresh segment"),
            db: Arc::new(ShardedKeyframeDatabase::new()),
            vocab: Arc::new(slamshare_slam::vocabulary::train_random(42)),
            cam: PinholeCamera::euroc_like(),
            with_scale: false,
            cut: Arc::new(MetricsCut::default()),
        }
    }

    fn job(client: u16) -> MergeJob {
        MergeJob {
            client,
            timestamp: 0.0,
            cmap: Map::new(ClientId(client)),
        }
    }

    /// A merge thread that died (a panic in a job) must not wedge the
    /// server: its queue refuses new jobs without leaving them booked as
    /// in flight, and nobody waits for it to go idle.
    #[test]
    fn lost_worker_thread_refuses_jobs_without_wedging() {
        let mut worker = MergeWorker::new(context(), false);
        // The thread placement with the far end of the channel closed by
        // hand and a thread that has already returned.
        let (tx, rx) = mpsc::channel::<MergeJob>();
        drop(rx);
        let handle = std::thread::spawn(|| ());
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        worker.thread = Some(WorkerThread { tx, handle });
        // What the dead thread was holding when it went.
        worker.shared.desk.lock().in_flight.insert(9);

        assert!(!worker.submit(job(1)), "a closed channel accepted a job");
        assert!(worker.is_idle(), "a dead thread is waited for");
        assert!(worker.shared.desk.lock().in_flight.contains(&9));
        assert!(!worker.shared.desk.lock().in_flight.contains(&1));
        // Refused again because the thread is gone — not as a duplicate
        // of the first, which would not count.
        assert!(!worker.submit(job(1)));
        let stats = worker.stats().snapshot();
        assert_eq!(stats.worker_lost, 2, "{stats:?}");
        assert_eq!(stats.submitted, 0, "{stats:?}");
    }
}
