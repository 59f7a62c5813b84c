//! Server metrics: health counters, the merge worker's statistics, and
//! the region-lock contention snapshot.
//!
//! The trajectory-error metrics (cumulative and short-term ATE) live in
//! [`slamshare_slam::eval`] and are re-exported here. The client-side CPU
//! and bandwidth accounting of §5.8 / Table 3 belongs to the simulated
//! devices, in the `bench` harness.

pub use slamshare_slam::eval::{ate, short_term_ate, AteResult};

use crate::ingest::ClientIngestSnapshot;
use crate::qos::{AdmissionSnapshot, QueueSnapshot};
use serde::Serialize;
use slamshare_obs::{Counter, Histogram, ObsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate server health report ([`crate::server::EdgeServer::metrics`]):
/// per-client ingest counters (decode faults, drops, resyncs,
/// relocalizations) plus the merge worker's counters. Reads are lock-free
/// with respect to the client processes — a wedged client cannot block the
/// metrics endpoint.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    pub per_client: BTreeMap<u16, ClientIngestSnapshot>,
    /// Admission-control counters (capacity/duplicate rejections).
    pub admission: AdmissionSnapshot,
    /// Per-client staged-frame queue counters (backpressure drops).
    pub queues: BTreeMap<u16, QueueSnapshot>,
    /// Counters of clients that have since deregistered, folded at
    /// departure time. Without this aggregate a departed client's drops
    /// and purges vanished from the server totals the moment its counter
    /// handles were removed.
    pub retired: RetiredSnapshot,
    /// Always `Some`: every server has a merge worker. The `Option` stays
    /// because `benchmark/src/main.rs` unwraps it.
    pub merge_worker: Option<MergeWorkerSnapshot>,
    /// Per-region contention of the sharded global map.
    pub map_sharding: MapShardingSnapshot,
    /// Drained observability state (spans, histograms, counters) from
    /// the `slamshare-obs` registry. Empty until recording is enabled
    /// with `slamshare_obs::set_enabled(true)`.
    pub obs: ObsSnapshot,
    /// Whether this report was sampled over a writer-quiescent window
    /// ([`MetricsCut::read_checked`]). When `false` the counters are a
    /// best-effort sample that may tear across related counters; callers
    /// asserting cross-counter invariants must re-read.
    pub consistent_cut: bool,
}

impl ServerMetrics {
    /// Total decode errors across all clients, live and retired.
    pub fn total_decode_errors(&self) -> u64 {
        self.per_client
            .values()
            .map(|c| c.decode_errors)
            .sum::<u64>()
            + self.retired.ingest.decode_errors
    }

    /// Total resyncs across all clients, live and retired.
    pub fn total_resyncs(&self) -> u64 {
        self.per_client.values().map(|c| c.resyncs).sum::<u64>() + self.retired.ingest.resyncs
    }

    /// Total frames shed by the backpressure policy across all clients,
    /// live and retired.
    pub fn total_queue_drops(&self) -> u64 {
        self.queues
            .values()
            .map(|q| q.dropped_overflow)
            .sum::<u64>()
            + self.retired.queues.dropped_overflow
    }

    /// Total frames purged at departure/handoff, live and retired.
    pub fn total_queue_purged(&self) -> u64 {
        self.queues.values().map(|q| q.purged).sum::<u64>() + self.retired.queues.purged
    }
}

/// Aggregate of departed clients' final counters, folded by
/// [`crate::server::EdgeServer::deregister_client`]. Live clients report
/// per-id in [`ServerMetrics::per_client`]/[`ServerMetrics::queues`];
/// this keeps the cumulative totals exact across churn and handoff.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RetiredSnapshot {
    /// Clients deregistered so far.
    pub clients: u64,
    /// Sum of departed clients' final queue counters.
    pub queues: QueueSnapshot,
    /// Sum of departed clients' final ingest counters.
    pub ingest: ClientIngestSnapshot,
}

impl RetiredSnapshot {
    /// Fold one departing client's final counter snapshots in.
    pub fn fold(&mut self, queue: QueueSnapshot, ingest: ClientIngestSnapshot) {
        self.clients += 1;
        self.queues.offered += queue.offered;
        self.queues.served += queue.served;
        self.queues.dropped_overflow += queue.dropped_overflow;
        self.queues.purged += queue.purged;
        self.ingest.frames_decoded += ingest.frames_decoded;
        self.ingest.decode_errors += ingest.decode_errors;
        self.ingest.dropped_frames += ingest.dropped_frames;
        self.ingest.resyncs += ingest.resyncs;
        self.ingest.relocalizations += ingest.relocalizations;
    }
}

/// Counters and latency samples for the merge worker (process M): how
/// many jobs were submitted, how many merges landed, how many found no
/// common region yet, and how many jobs or completions were lost or
/// dropped. All methods take `&self`; the worker thread and the server
/// share one instance.
///
/// Built on `slamshare-obs` primitives: counts are [`Counter`]s and the
/// applied-merge latency is a fixed-bucket [`Histogram`] (so the
/// percentiles in [`MergeWorkerSnapshot`] are bucket-interpolated with
/// ≤ ~9 % relative error, and memory stays constant instead of growing
/// one float per merge). The record methods also mirror into the global
/// obs registry under `merge.*` names when recording is enabled.
#[derive(Debug, Default)]
pub struct MergeWorkerStats {
    submitted: Counter,
    applied: Counter,
    no_region: Counter,
    worker_lost: Counter,
    stale_completions: Counter,
    /// Wall time of each applied merge (job start → applied), ms.
    latency: Histogram,
}

/// A point-in-time copy of [`MergeWorkerStats`], with latency
/// percentiles.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MergeWorkerSnapshot {
    /// Merge jobs accepted by the worker.
    pub submitted: u64,
    /// Merges applied to the global map.
    pub applied: u64,
    /// Always 0: a merge plans and applies under one write, so it never
    /// loses a race and re-plans. Kept because `benchmark/` reports it.
    pub conflicts: u64,
    /// Always 0: there is no fallback path. Kept because `benchmark/`
    /// reports it.
    pub fallback_applies: u64,
    /// Jobs that found no common region (the client retries later).
    pub no_region: u64,
    /// Work items refused because the merge thread is gone (it panicked
    /// in a job, or the OS refused to spawn it).
    pub worker_lost: u64,
    /// Completions dropped at collection because the client had already
    /// left its local phase.
    pub stale_completions: u64,
    pub p50_latency_ms: f64,
    pub p95_latency_ms: f64,
    pub max_latency_ms: f64,
}

impl MergeWorkerStats {
    pub fn record_submitted(&self) {
        self.submitted.inc();
        slamshare_obs::counter_inc!("merge.submitted");
    }

    pub fn record_applied(&self, latency_ms: f64) {
        self.applied.inc();
        self.latency.record_ms(latency_ms);
        slamshare_obs::counter_inc!("merge.applied");
        slamshare_obs::observe_ms!("merge.latency", latency_ms);
    }

    pub fn record_no_region(&self) {
        self.no_region.inc();
        slamshare_obs::counter_inc!("merge.no_region");
    }

    pub fn record_worker_lost(&self) {
        self.worker_lost.inc();
        slamshare_obs::counter_inc!("merge.worker_lost");
    }

    pub fn record_stale_completion(&self) {
        self.stale_completions.inc();
        slamshare_obs::counter_inc!("merge.stale_completions");
    }

    pub fn snapshot(&self) -> MergeWorkerSnapshot {
        let latency = self.latency.snapshot();
        MergeWorkerSnapshot {
            submitted: self.submitted.get(),
            applied: self.applied.get(),
            conflicts: 0,
            fallback_applies: 0,
            no_region: self.no_region.get(),
            worker_lost: self.worker_lost.get(),
            stale_completions: self.stale_completions.get(),
            p50_latency_ms: latency.p50_ms,
            p95_latency_ms: latency.p95_ms,
            max_latency_ms: latency.max_ms,
        }
    }
}

/// Maximum clean-read attempts before [`MetricsCut::read`] degrades to a
/// best-effort (possibly torn) read.
const CUT_READ_ATTEMPTS: usize = 4096;

/// A consistent-cut gate between the server's metrics *writers* (round
/// processing, the merge worker's applies) and its *readers*
/// ([`crate::server::EdgeServer::metrics`]).
///
/// The metrics themselves are many independent relaxed atomics — ingest
/// counters, region lock stats, region epochs. Each is monotone, but a
/// reader sampling them mid-round can see *torn totals*: a decode error
/// counted before its matching dropped-frame count, a region epoch ahead
/// of the lock-acquisition count that produced it. CI assertions on
/// counter sums then fail spuriously.
///
/// This is a writer-counting seqlock: writers are counted in and out
/// (overlapping writers are fine), and every completed write bumps a
/// sequence number. A reader retries until it observes a window with no
/// writer in flight and an unchanged sequence — its sample then reflects
/// a real quiescent instant. Readers never block writers.
#[derive(Debug, Default)]
pub struct MetricsCut {
    /// Writers currently inside a [`MetricsCut::write`] section.
    writers: AtomicU64,
    /// Completed write sections.
    seq: AtomicU64,
}

impl MetricsCut {
    /// Run `f` as a metrics write section. Cheap (two atomic RMWs) and
    /// reentrant: nested sections and concurrent writers compose.
    pub fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        struct InFlight<'a>(&'a MetricsCut);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.seq.fetch_add(1, Ordering::Release);
                self.0.writers.fetch_sub(1, Ordering::Release);
            }
        }
        self.writers.fetch_add(1, Ordering::AcqRel);
        let _in_flight = InFlight(self);
        f()
    }

    /// Run `f` until it executes over a writer-quiescent window, yielding
    /// between attempts. After [`CUT_READ_ATTEMPTS`] failures the last
    /// result is returned anyway — metrics are advisory, and on a server
    /// that never goes quiet a best-effort read beats blocking forever.
    pub fn read<R>(&self, f: impl FnMut() -> R) -> R {
        self.read_checked(f).0
    }

    /// [`MetricsCut::read`], but also reports whether the returned sample
    /// came from a clean quiescent window (`true`) or from the degraded
    /// best-effort path (`false`, possibly torn). Callers asserting
    /// cross-counter invariants must check the flag: on an oversubscribed
    /// host the reader can be preempted across entire write sections and
    /// exhaust its attempts even though writers pause between updates.
    pub fn read_checked<R>(&self, mut f: impl FnMut() -> R) -> (R, bool) {
        for _ in 0..CUT_READ_ATTEMPTS {
            let seq0 = self.seq.load(Ordering::Acquire);
            if self.writers.load(Ordering::Acquire) != 0 {
                std::thread::yield_now();
                continue;
            }
            let result = f();
            if self.writers.load(Ordering::Acquire) == 0 && self.seq.load(Ordering::Acquire) == seq0
            {
                return (result, true);
            }
        }
        (f(), false)
    }
}

/// One region's lock traffic in the sharded global map.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RegionLockStat {
    pub region: usize,
    pub read_acquisitions: u64,
    pub write_acquisitions: u64,
    /// Total nanoseconds spent waiting to acquire this region's lock.
    pub wait_ns: u64,
    /// The region's current epoch (number of dirty writes that covered
    /// it).
    pub epoch: u64,
}

/// Point-in-time contention picture of the region-sharded global map
/// ([`crate::gmap`]): where reads and writes concentrate, and how far
/// the covisibility graph has fused regions together.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MapShardingSnapshot {
    pub n_shards: usize,
    /// Covisibility-connected region components (locking granularity:
    /// fewer components = coarser effective locks).
    pub n_components: usize,
    pub per_region: Vec<RegionLockStat>,
}

impl MapShardingSnapshot {
    /// Total time spent waiting on region locks, ms.
    pub fn total_wait_ms(&self) -> f64 {
        self.per_region
            .iter()
            .map(|r| r.wait_ns as f64)
            .sum::<f64>()
            / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_worker_stats_snapshot_percentiles() {
        let stats = MergeWorkerStats::default();
        for ms in [10.0, 20.0, 30.0, 40.0] {
            stats.record_applied(ms);
        }
        stats.record_submitted();
        stats.record_no_region();
        stats.record_worker_lost();
        stats.record_stale_completion();
        let snap = stats.snapshot();
        assert_eq!(snap.applied, 4);
        assert_eq!(snap.submitted, 1);
        assert_eq!(snap.no_region, 1);
        assert_eq!(snap.worker_lost, 1);
        assert_eq!(snap.stale_completions, 1);
        assert_eq!((snap.conflicts, snap.fallback_applies), (0, 0));
        // Bucketed percentiles: within one geometric bucket (~19 %) of
        // the exact values, and max is exact.
        assert!(snap.p50_latency_ms >= 10.0 && snap.p50_latency_ms <= 40.0);
        assert!(snap.p95_latency_ms >= snap.p50_latency_ms);
        assert!((snap.max_latency_ms - 40.0).abs() / 40.0 < 0.01);
    }

    #[test]
    fn metrics_cut_never_tears_paired_counters() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let cut = Arc::new(MetricsCut::default());
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        // Writers bump `a` then `b` inside a write section; at any
        // quiescent instant a == b.
        let mut writers = Vec::new();
        for _ in 0..2 {
            let (cut, a, b, stop) = (cut.clone(), a.clone(), b.clone(), stop.clone());
            writers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    cut.write(|| {
                        a.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        b.fetch_add(1, Ordering::Relaxed);
                    });
                    // Guaranteed quiescent windows for the reader.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }));
        }
        // Degraded (best-effort) samples carry no invariant — only clean
        // cuts are asserted, so a loaded CI host can't flake this test.
        let mut clean = 0usize;
        for _ in 0..200 {
            let ((sa, sb), consistent) =
                cut.read_checked(|| (a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)));
            if consistent {
                clean += 1;
                assert_eq!(sa, sb, "torn read despite a consistent cut: a={sa} b={sb}");
            }
        }
        assert!(clean > 0, "all 200 reads degraded");
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn metrics_cut_read_degrades_instead_of_blocking() {
        use std::sync::Arc;

        let cut = Arc::new(MetricsCut::default());
        let release = Arc::new(parking_lot::Mutex::new(()));
        let held = release.lock();
        let writer = {
            let (cut, release) = (cut.clone(), release.clone());
            std::thread::spawn(move || {
                cut.write(|| {
                    // Hold the write section open until the main thread
                    // has finished its read.
                    let _g = release.lock();
                })
            })
        };
        // Wait until the writer is inside the section.
        while cut.writers.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        // The section never closes while we read: the bounded retry must
        // give up and return a best-effort value rather than spin forever.
        let v = cut.read(|| 42u64);
        assert_eq!(v, 42);
        drop(held);
        writer.join().unwrap();
    }

    #[test]
    fn metrics_cut_write_is_panic_safe() {
        let cut = MetricsCut::default();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cut.write(|| panic!("writer died"))
        }));
        assert!(r.is_err());
        // The in-flight count unwound with the panic: reads complete
        // immediately instead of spinning on a ghost writer.
        assert_eq!(cut.read(|| 7), 7);
    }
}
