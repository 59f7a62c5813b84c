//! The shared store under the global map: sharable mutexes and the
//! region-sharded store.
//!
//! In the paper (§4.3.2), an orchestrator allocates a 2 GB
//! Boost.Interprocess segment; each per-client server process *attaches*
//! it by name, custom allocators place keyframes/map points directly in
//! the buffer, and Boost named sharable mutexes serialize writers while
//! admitting concurrent readers. Merging then "only adds pointers to the
//! global map database, without any data copying". Here clients are
//! threads of one process that share the store through an `Arc`, so
//! there is nothing to find by name and no segment to fill: the map is
//! measured, not charged. This module models the rest of the contract:
//!
//! * [`SharedMutex`] — "a shareable mutex that allows concurrent reads of
//!   shared data by threads of multiple processes, while restricting
//!   writes to be serialized", plus the observability the evaluation
//!   needs: counts of read/write acquisitions and cumulative wait time,
//!   so experiments can verify that "shared memory is not a bottleneck
//!   even with tens of users";
//! * [`ShardedStore`] — N occupants (region shards of the global map),
//!   each behind its own [`SharedMutex`], plus a per-shard **epoch
//!   counter**: a writer that dirties a set of shards bumps exactly those
//!   shards' epochs, so a reader's staleness stamp only trips when a
//!   region it actually read has changed. Reads are concurrent and
//!   zero-copy (a closure over `&T`), writes are serialized. The store
//!   keeps no size ledger: what the occupants weigh is theirs to measure.
//!
//! Locking discipline (deadlock freedom): every multi-shard operation
//! acquires its shard locks in **ascending shard-index order**. The store
//! enforces this itself — indices are sorted, deduplicated, and clamped
//! before acquisition — so no caller mistake can introduce a lock-order
//! cycle.
//!
//! Epochs are plain atomics readable without any lock (the cheap
//! staleness pre-check). They are only ever *written* while the owning
//! shard's write lock is held, so a reader holding that shard's read lock
//! observes a stable value — that is the authoritative check.
//!
//! The store is generic over `T`, so it is testable apart from the SLAM
//! types; [`super::ShardedGlobalMap`] instantiates it with the SLAM `Map`.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Lock statistics snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LockStats {
    pub read_acquisitions: u64,
    pub write_acquisitions: u64,
    /// Total nanoseconds spent waiting to acquire (both kinds).
    pub wait_ns: u64,
}

/// A read-concurrent / write-serialized lock with statistics.
#[derive(Debug, Default)]
pub struct SharedMutex<T> {
    inner: RwLock<T>,
    reads: AtomicU64,
    writes: AtomicU64,
    wait_ns: AtomicU64,
}

impl<T> SharedMutex<T> {
    pub fn new(value: T) -> SharedMutex<T> {
        SharedMutex {
            inner: RwLock::new(value),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        }
    }

    /// Acquire shared (read) access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let t0 = Instant::now();
        let guard = self.inner.read();
        self.wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.reads.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// Acquire exclusive (write) access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let t0 = Instant::now();
        let guard = self.inner.write();
        self.wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.writes.fetch_add(1, Ordering::Relaxed);
        guard
    }

    /// Run a closure under the read lock.
    pub fn with_read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.read())
    }

    /// Run a closure under the write lock.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.write())
    }

    pub fn stats(&self) -> LockStats {
        LockStats {
            read_acquisitions: self.reads.load(Ordering::Relaxed),
            write_acquisitions: self.writes.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
        }
    }
}

struct Shard<T> {
    mutex: SharedMutex<T>,
    /// Bumped (under the shard's write lock) whenever a write dirtied the
    /// shard. Readable lock-free for the cheap staleness pre-check.
    epoch: AtomicU64,
}

/// N shared occupants of type `T`, each behind its own lock, with
/// per-shard epochs.
pub struct ShardedStore<T> {
    shards: Box<[Shard<T>]>,
}

impl<T> ShardedStore<T> {
    /// One shard per element of `values`.
    pub fn new(values: Vec<T>) -> ShardedStore<T> {
        let shards = values
            .into_iter()
            .map(|v| Shard {
                mutex: SharedMutex::new(v),
                epoch: AtomicU64::new(0),
            })
            .collect();
        ShardedStore { shards }
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current epoch of shard `i` (lock-free; see module docs for when
    /// this is authoritative).
    pub fn epoch(&self, i: usize) -> u64 {
        match self.shards.get(i) {
            Some(s) => s.epoch.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Sorted, deduplicated, in-range copy of `indices` — the order locks
    /// are acquired in.
    fn sanitize(&self, indices: &[usize]) -> Vec<usize> {
        let mut v: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| i < self.shards.len())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Concurrent read access to a subset of shards. `f` receives the
    /// shard occupants in ascending shard-index order, paired with the
    /// sanitized index list.
    pub fn with_read<R>(&self, indices: &[usize], f: impl FnOnce(&[usize], &[&T]) -> R) -> R {
        let order = self.sanitize(indices);
        let guards: Vec<_> = {
            let _wait = slamshare_obs::span!("gmap.region_lock_wait");
            order.iter().map(|&i| self.shards[i].mutex.read()).collect()
        };
        let _hold = slamshare_obs::span!("gmap.region_read_hold");
        let refs: Vec<&T> = guards.iter().map(|g| &**g).collect();
        f(&order, &refs)
    }

    /// Read access to every shard.
    pub fn with_read_all<R>(&self, f: impl FnOnce(&[usize], &[&T]) -> R) -> R {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.with_read(&all, f)
    }

    /// Serialized write access to a subset of shards (ascending-order
    /// acquisition). `f` receives the occupants aligned with the sanitized
    /// index list and returns `(result, dirty)`; when `dirty` is true every
    /// locked shard's epoch is bumped before the locks are released —
    /// content may have been redistributed between the locked shards, so
    /// all of them count as potentially modified.
    pub fn with_write<R>(
        &self,
        indices: &[usize],
        f: impl FnOnce(&[usize], &mut [&mut T]) -> (R, bool),
    ) -> R {
        let order = self.sanitize(indices);
        let mut guards: Vec<_> = {
            let _wait = slamshare_obs::span!("gmap.region_lock_wait");
            order
                .iter()
                .map(|&i| self.shards[i].mutex.write())
                .collect()
        };
        // Its own name: a write hold legitimately spans keyframe insertion
        // and local BA, a read hold only the map-bound half of a track.
        let _hold = slamshare_obs::span!("gmap.region_write_hold");
        let mut refs: Vec<&mut T> = guards.iter_mut().map(|g| &mut **g).collect();
        let (result, dirty) = f(&order, &mut refs);
        if dirty {
            for &i in &order {
                self.shards[i].epoch.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// Aggregated lock statistics (sum over shards) — same shape the
    /// single-lock store reported, so scalability accounting carries over.
    pub fn lock_stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for s in self.shards.iter() {
            let st = s.mutex.stats();
            total.read_acquisitions += st.read_acquisitions;
            total.write_acquisitions += st.write_acquisitions;
            total.wait_ns += st.wait_ns;
        }
        total
    }

    /// Per-shard lock statistics (contention attribution by region).
    pub fn shard_lock_stats(&self) -> Vec<LockStats> {
        self.shards.iter().map(|s| s.mutex.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counts_acquisitions() {
        let m = SharedMutex::new(0);
        m.with_read(|v| assert_eq!(*v, 0));
        m.with_read(|v| assert_eq!(*v, 0));
        m.with_write(|v| *v = 5);
        assert_eq!(m.with_read(|v| *v), 5);
        let s = m.stats();
        assert_eq!(s.read_acquisitions, 3);
        assert_eq!(s.write_acquisitions, 1);
    }

    #[test]
    fn concurrent_readers_progress() {
        let m = Arc::new(SharedMutex::new(7u32));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || m.with_read(|v| *v)));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
        assert_eq!(m.stats().read_acquisitions, 8);
    }

    #[test]
    fn writers_serialize() {
        let m = Arc::new(SharedMutex::new(Vec::<u32>::new()));
        let mut handles = Vec::new();
        for i in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    m.with_write(|v| v.push(i * 100 + j));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No interleaving corruption: exactly 400 entries.
        assert_eq!(m.with_read(|v| v.len()), 400);
        assert_eq!(m.stats().write_acquisitions, 400);
    }

    fn store(n: usize) -> Arc<ShardedStore<Vec<u8>>> {
        Arc::new(ShardedStore::new((0..n).map(|_| Vec::new()).collect()))
    }

    #[test]
    fn subset_readwrite() {
        let s = store(4);
        s.with_write(&[1, 3], |order, shards| {
            assert_eq!(order, &[1, 3]);
            shards[0].push(7);
            shards[1].extend_from_slice(&[8, 9]);
            ((), true)
        });
        s.with_read(&[3, 1], |order, shards| {
            // Sanitized to ascending order regardless of input order.
            assert_eq!(order, &[1, 3]);
            assert_eq!(shards[0], &vec![7]);
            assert_eq!(shards[1], &vec![8, 9]);
        });
    }

    #[test]
    fn dirty_write_bumps_only_locked_epochs() {
        let s = store(4);
        s.with_write(&[0, 2], |_, _| ((), true));
        assert_eq!(
            (0..4).map(|i| s.epoch(i)).collect::<Vec<_>>(),
            vec![1, 0, 1, 0]
        );
        // A clean write bumps nothing.
        s.with_write(&[0, 1, 2, 3], |_, _| ((), false));
        assert_eq!(
            (0..4).map(|i| s.epoch(i)).collect::<Vec<_>>(),
            vec![1, 0, 1, 0]
        );
    }

    #[test]
    fn indices_are_sanitized() {
        let s = store(2);
        // Duplicates and out-of-range indices must not deadlock or panic.
        s.with_write(&[1, 1, 0, 99], |order, shards| {
            assert_eq!(order, &[0, 1]);
            assert_eq!(shards.len(), 2);
            ((), false)
        });
    }

    #[test]
    fn overlapping_concurrent_writes_do_not_deadlock() {
        let s = store(8);
        let mut handles = Vec::new();
        for w in 0..4usize {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100usize {
                    // Overlapping subsets in varying (pre-sanitize) orders.
                    let a = (w + i) % 8;
                    let b = (w * 3 + i * 5) % 8;
                    s.with_write(&[b, a], |_, shards| {
                        for sh in shards.iter_mut() {
                            sh.push(w as u8);
                        }
                        ((), true)
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: usize = s.with_read_all(|_, shards| shards.iter().map(|v| v.len()).sum());
        // Each of the 400 writes touched 1 or 2 shards.
        assert!(total >= 400, "lost writes: {total}");
        let stats = s.lock_stats();
        assert_eq!(stats.write_acquisitions as usize, total);
    }
}
