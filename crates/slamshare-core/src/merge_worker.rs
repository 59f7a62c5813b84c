//! The merge process M: one merge body, two placements.
//!
//! SLAM-Share's merges "occur asynchronously, whenever a client observes
//! something that matches the global map" (§4.1). Every merge the server
//! performs is one [`MergeJob`] run by the same body:
//!
//! 1. the commit stage **submits** a clone of the client's local map;
//! 2. the job lands it in **one locked pass**: a single
//!    [`ShardedGlobalMap::with_component_write`] over every region
//!    ([`LockSeeds::all`], which first reloads any evicted region) runs
//!    [`plan_merge`] — the read-only detect/align half, querying the live
//!    sharded BoW index — on the locked view and, when the plan is
//!    viable, [`apply_merge_plan_with`] — absorb, fuse, weld and seam BA —
//!    on the same view, in place. Nothing can move between the plan and
//!    the apply, so a job never re-plans; commits wait for the pass while
//!    it holds the locks, which the keypoint-grid weld keeps short;
//! 3. the client's commit **collects** the completion: keyframes and
//!    points it created after submitting (the delta) are transformed,
//!    remapped across the job's point fusions and absorbed, and the
//!    process switches to shared-map tracking.
//!
//! [`ServerConfig::async_merge`](crate::server::ServerConfig::async_merge)
//! picks only *where* a submitted job runs: on the worker thread (the
//! submitting commit does not wait for it) or right there on the
//! submitting caller (no thread is spawned; the completion is ready when
//! `submit` returns, so the delta of step 3 is empty).

use crate::gmap::{LockSeeds, ShardedGlobalMap};
use crate::metrics::{MergeWorkerStats, MetricsCut};
use parking_lot::Mutex;
use slamshare_features::bow::Vocabulary;
use slamshare_sim::camera::PinholeCamera;
use slamshare_slam::ids::{KeyFrameId, MapPointId};
use slamshare_slam::map::Map;
use slamshare_slam::merge::{apply_merge_plan_with, plan_merge, MergeReport};
use slamshare_slam::optimize::MappingArena;
use slamshare_slam::recognition::ShardedKeyframeDatabase;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::Instant;

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
    /// Job start → applied wall time, ms.
    pub merge_ms: f64,
    /// Keyframe ids of the submitted map (now in the global map). The
    /// client's live map minus these is the post-submission delta.
    pub absorbed_kfs: BTreeSet<KeyFrameId>,
    /// Map-point ids of the submitted map.
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

/// One merge job, timed from its start to the applied merge.
fn run_job(
    ctx: &MergeContext,
    stats: &MergeWorkerStats,
    arena: &mut MappingArena,
    job: MergeJob,
) -> MergeCompletion {
    let t0 = Instant::now();
    let mut applied = land(ctx, arena, job.cmap);
    match &mut applied {
        Some(a) => {
            a.merge_ms = t0.elapsed().as_secs_f64() * 1e3;
            stats.record_applied(a.merge_ms);
        }
        None => stats.record_no_region(),
    }
    MergeCompletion {
        timestamp: job.timestamp,
        applied,
    }
}

/// Weld `cmap` into the global map in one write over every region: plan
/// on the locked view, then apply the plan to that same view when it is
/// viable. `None` when there is no common region yet.
fn land(ctx: &MergeContext, arena: &mut MappingArena, cmap: Map) -> Option<AppliedMerge> {
    let (applied, _) = ctx
        .store
        .with_component_write(&LockSeeds::all(), |gmap, _| {
            let plan = {
                let _span = slamshare_obs::span!("merge.plan");
                plan_merge(&*gmap, &cmap, &ctx.db, &ctx.vocab, ctx.with_scale)
            };
            if !plan.viable() {
                return (None, false);
            }
            let absorbed_kfs = cmap.keyframes.keys().copied().collect();
            let absorbed_mps = cmap.mappoints.keys().copied().collect();
            let _span = slamshare_obs::span!("merge.apply");
            let (report, fused) =
                apply_merge_plan_with(gmap, &ctx.db, cmap, &plan, &ctx.cam, arena);
            let applied = AppliedMerge {
                report,
                merge_ms: 0.0,
                absorbed_kfs,
                absorbed_mps,
                fused: fused.into_iter().collect(),
            };
            (Some(applied), true)
        });
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use slamshare_slam::ids::ClientId;

    fn context() -> MergeContext {
        MergeContext {
            store: ShardedGlobalMap::new(4, 10.0),
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
