//! The merge process M: one merge body, two placements.
//!
//! SLAM-Share's merges "occur asynchronously, whenever a client observes
//! something that matches the global map" (§4.1). Every merge the server
//! performs is one [`MergeJob`] run by the same body, in three steps:
//!
//! 1. **pause**: the server submits a clone of the client's local map and
//!    stops the client's local mapping, as ORB-SLAM3 stops its local
//!    mapper for the length of a merge. The client keeps tracking every
//!    frame but inserts no keyframe, so its live map stays the submitted
//!    snapshot;
//! 2. **weld**: the job lands the snapshot in **one locked pass**: a single
//!    [`ShardedGlobalMap::with_component_write`] over every region
//!    ([`LockSeeds::all`], which first reloads any evicted region) runs
//!    [`plan_merge`] — the read-only detect/align half, querying the live
//!    sharded BoW index — on the locked view and, when the plan is
//!    viable, [`apply_merge_plan_with`] — absorb, fuse, weld and seam BA —
//!    on the same view, in place. Nothing can move between the plan and
//!    the apply, so a job never re-plans; commits wait for the pass while
//!    it holds the locks, which the keypoint-grid weld keeps short;
//! 3. **collect**: the client's next commit takes the completion. An
//!    applied merge already holds everything the client mapped, so the
//!    client's one `SlamSystem` is reset in place — a new tracker and
//!    mapper, its local map emptied down to its id allocator — and goes
//!    on tracking and mapping on the shared map; a job that found no
//!    common region resumes the client's local mapping.
//!
//! [`ServerConfig::async_merge`](crate::server::ServerConfig::async_merge)
//! picks only *where* a submitted job runs: on the worker thread (the
//! submitting commit does not wait for it, and the pause spans the frames
//! until the completion is collected) or right there on the submitting
//! caller (no thread is spawned; the completion is ready when `submit`
//! returns and is collected in the same commit, so the pause never spans
//! a frame).
//!
//! The desk is keyed by client id. A client that departs with a job in
//! flight or uncollected is [`MergeWorker::forget`]ten: its completion is
//! dropped, now or when it arrives, so a later client under the same id
//! never collects a merge it did not submit.

use crate::gmap::{LockSeeds, ShardedGlobalMap};
use crate::metrics::{MergeWorkerStats, MetricsCut};
use crate::server::MergeOutcome;
use parking_lot::Mutex;
use slamshare_features::bow::Vocabulary;
use slamshare_sim::camera::PinholeCamera;
use slamshare_slam::map::Map;
use slamshare_slam::merge::{apply_merge_plan_with, plan_merge, MergeReport};
use slamshare_slam::optimize::MappingArena;
use slamshare_slam::recognition::ShardedKeyframeDatabase;
use std::collections::{HashMap, HashSet};
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
    pub applied: Option<MergeOutcome>,
}

#[derive(Default)]
struct Desk {
    /// Clients with a job queued or running.
    in_flight: HashSet<u16>,
    /// Finished jobs awaiting collection by the client's commit path.
    done: HashMap<u16, MergeCompletion>,
    /// In-flight jobs whose client departed: their completion is dropped
    /// on arrival.
    abandoned: HashSet<u16>,
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
        self.ctx.cut.write(|| {
            let completion = run_job(&self.ctx, &self.stats, arena, job);
            let mut desk = self.desk.lock();
            desk.in_flight.remove(&client);
            if desk.abandoned.remove(&client) {
                self.stats.record_stale_completion();
            } else {
                desk.done.insert(client, completion);
            }
        });
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
    /// or awaiting collection, then run it — the one place a job's
    /// placement is decided: right here when `on_caller` or when there is
    /// no merge thread (its completion is then ready on return), else down
    /// the thread's channel. Returns whether the job was accepted: `false`
    /// when it was a duplicate or the thread is gone (it panicked in a
    /// job) and nothing ran.
    pub fn submit(&self, job: MergeJob, on_caller: bool) -> bool {
        let client = job.client;
        let thread = self.thread.as_ref().filter(|_| !on_caller);
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

    /// Collect a finished merge for `client`, if any.
    pub fn take_completion(&self, client: u16) -> Option<MergeCompletion> {
        self.shared.desk.lock().done.remove(&client)
    }

    /// `client` departed: drop its uncollected completion, or the one its
    /// in-flight job will leave, and count it stale. The id's desk entry
    /// frees once no job of the departed client is running.
    pub(crate) fn forget(&self, client: u16) {
        let mut desk = self.shared.desk.lock();
        if desk.done.remove(&client).is_some() {
            self.shared.stats.record_stale_completion();
        } else if desk.in_flight.contains(&client) {
            desk.abandoned.insert(client);
        }
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
    let applied = land(ctx, arena, job.cmap).map(|report| MergeOutcome {
        report,
        merge_ms: t0.elapsed().as_secs_f64() * 1e3,
    });
    match &applied {
        Some(a) => stats.record_applied(a.merge_ms),
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
fn land(ctx: &MergeContext, arena: &mut MappingArena, cmap: Map) -> Option<MergeReport> {
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
            let _span = slamshare_obs::span!("merge.apply");
            let report = apply_merge_plan_with(gmap, &ctx.db, cmap, &plan, &ctx.cam, arena);
            (Some(report), true)
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

    /// A departed client's completion is never collected under its id:
    /// dropped at once when it already waits on the desk, and on arrival
    /// when the job is still running; either way it counts as stale, and
    /// the id takes a new job once the old one is done.
    #[test]
    fn a_forgotten_clients_completion_is_dropped_now_or_on_arrival() {
        let worker = MergeWorker::new(context(), false);
        assert!(worker.submit(job(1), false));
        worker.forget(1);
        assert!(worker.take_completion(1).is_none());

        // Client 2's job is running on the (absent) thread when it departs.
        worker.shared.desk.lock().in_flight.insert(2);
        worker.forget(2);
        assert!(
            !worker.submit(job(2), false),
            "a second job under a running one"
        );
        worker.shared.run(job(2), &mut MappingArena::default());
        assert!(worker.take_completion(2).is_none());
        assert_eq!(worker.stats().snapshot().stale_completions, 2);

        assert!(worker.submit(job(2), false), "the id stayed booked");
        assert!(worker.take_completion(2).is_some());
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

        assert!(
            !worker.submit(job(1), false),
            "a closed channel accepted a job"
        );
        assert!(worker.is_idle(), "a dead thread is waited for");
        assert!(worker.shared.desk.lock().in_flight.contains(&9));
        assert!(!worker.shared.desk.lock().in_flight.contains(&1));
        // Refused again because the thread is gone — not as a duplicate
        // of the first, which would not count.
        assert!(!worker.submit(job(1), false));
        let stats = worker.stats().snapshot();
        assert_eq!(stats.worker_lost, 2, "{stats:?}");
        assert_eq!(stats.submitted, 0, "{stats:?}");
    }
}
