//! The region-sharded store: N lock-protected shards and their arena.
//!
//! [`ShardedStore<T>`] is the shape `slamshare-core` gives the global
//! map: every client thread holds it through the map's `Arc`, reads are
//! concurrent and zero-copy (a closure over `&T`), writes are serialized,
//! and the occupants' sizes are charged against the store's [`Arena`] so
//! the system can report occupancy as the map grows. It holds N occupants
//! (region shards of the global map) each behind its own [`SharedMutex`],
//! plus a per-shard **epoch counter**: a
//! writer that dirties a set of shards bumps exactly those shards'
//! epochs, so a reader's staleness stamp only trips when a region it
//! actually read has changed.
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

use crate::arena::Arena;
use crate::shared_mutex::{LockStats, SharedMutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Shard<T> {
    mutex: SharedMutex<T>,
    /// Bumped (under the shard's write lock) whenever a write dirtied the
    /// shard. Readable lock-free for the cheap staleness pre-check.
    epoch: AtomicU64,
    /// Last reported size of this shard's occupant in bytes.
    reported_bytes: AtomicUsize,
}

/// N shared occupants of type `T`, each behind its own lock, with
/// per-shard epochs and size accounting against one arena.
pub struct ShardedStore<T> {
    shards: Box<[Shard<T>]>,
    arena: Arena,
}

impl<T> ShardedStore<T> {
    /// One shard per element of `values`, charged against a fresh arena.
    pub fn new(values: Vec<T>) -> ShardedStore<T> {
        let shards: Box<[Shard<T>]> = values
            .into_iter()
            .map(|v| Shard {
                mutex: SharedMutex::new(v),
                epoch: AtomicU64::new(0),
                reported_bytes: AtomicUsize::new(0),
            })
            .collect();
        ShardedStore {
            shards,
            arena: Arena::default(),
        }
    }

    /// The arena the shards' sizes are charged against.
    pub fn arena(&self) -> &Arena {
        &self.arena
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
    /// all of them count as potentially modified. Sizes are re-reported per
    /// shard *while the write guards are still held* — growth is charged
    /// to the arena (never refused) and shrinkage (eviction, pruning) is
    /// released back to it, each delta rounded up to 16 bytes, so the
    /// arena's occupancy is a sum of rounded deltas (see [`Arena`]).
    /// A report after the drop could interleave with another writer's:
    /// writer A publishes a stale smaller size over writer B's larger one,
    /// and the next grower is charged for the difference a second time.
    pub fn with_write<R>(
        &self,
        indices: &[usize],
        size_of: impl Fn(&T) -> usize,
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
        drop(refs);
        for (k, &i) in order.iter().enumerate() {
            let shard = &self.shards[i];
            if dirty {
                shard.epoch.fetch_add(1, Ordering::Relaxed);
            }
            let new_size = size_of(&guards[k]);
            let old = shard.reported_bytes.swap(new_size, Ordering::Relaxed);
            if new_size > old {
                self.arena.alloc(new_size - old);
            } else if old > new_size {
                // The free side of the accounting: eviction/pruning shrank
                // the occupant, so release the delta while the shard lock
                // still serializes us against other reporters. Exactly-once
                // release holds for the same reason exactly-once charge
                // does — `reported_bytes` only moves under this guard.
                self.arena.free(old - new_size);
            }
        }
        drop(guards);
        result
    }

    /// Last reported size of shard `i` (0 for an index out of range).
    /// Only written under the shard's write lock, so it is stable while
    /// the caller holds the shard's read lock.
    pub fn shard_reported_bytes(&self, i: usize) -> usize {
        self.shards
            .get(i)
            .map_or(0, |s| s.reported_bytes.load(Ordering::Relaxed))
    }

    /// Total reported size across shards.
    pub fn reported_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.reported_bytes.load(Ordering::Relaxed))
            .sum()
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

    fn store(n: usize) -> Arc<ShardedStore<Vec<u8>>> {
        Arc::new(ShardedStore::new((0..n).map(|_| Vec::new()).collect()))
    }

    #[test]
    fn subset_readwrite() {
        let s = store(4);
        s.with_write(
            &[1, 3],
            |v| v.len(),
            |order, shards| {
                assert_eq!(order, &[1, 3]);
                shards[0].push(7);
                shards[1].extend_from_slice(&[8, 9]);
                ((), true)
            },
        );
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
        s.with_write(&[0, 2], |v| v.len(), |_, _| ((), true));
        assert_eq!(
            (0..4).map(|i| s.epoch(i)).collect::<Vec<_>>(),
            vec![1, 0, 1, 0]
        );
        // A clean write bumps nothing.
        s.with_write(&[0, 1, 2, 3], |v| v.len(), |_, _| ((), false));
        assert_eq!(
            (0..4).map(|i| s.epoch(i)).collect::<Vec<_>>(),
            vec![1, 0, 1, 0]
        );
    }

    #[test]
    fn indices_are_sanitized() {
        let s = store(2);
        // Duplicates and out-of-range indices must not deadlock or panic.
        s.with_write(
            &[1, 1, 0, 99],
            |v| v.len(),
            |order, shards| {
                assert_eq!(order, &[0, 1]);
                assert_eq!(shards.len(), 2);
                ((), false)
            },
        );
    }

    #[test]
    fn per_shard_accounting_telescopes() {
        let s = store(2);
        s.with_write(&[0], |v| v.len(), |_, sh| (sh[0].resize(160, 0), true));
        s.with_write(&[1], |v| v.len(), |_, sh| (sh[0].resize(320, 0), true));
        assert_eq!(s.reported_bytes(), 480);
        assert!(s.arena().used() >= 480);
    }

    #[test]
    fn shrink_releases_arena_bytes_under_guard() {
        let s = store(2);
        s.with_write(&[0], |v| v.len(), |_, sh| (sh[0].resize(4096, 0), true));
        s.with_write(&[1], |v| v.len(), |_, sh| (sh[0].resize(1024, 0), true));
        let peak = s.arena().used();
        assert!(peak >= 5120);
        // Evict shard 0's content: reported size drops to zero and the
        // delta is released back to the arena exactly once.
        s.with_write(&[0], |v| v.len(), |_, sh| (sh[0].clear(), true));
        assert_eq!(s.reported_bytes(), 1024);
        assert_eq!(s.arena().used(), peak - 4096);
        // High water still remembers the pre-eviction peak.
        assert!(s.arena().high_water() >= peak);
    }

    #[test]
    fn a_shrink_frees_only_its_own_charge() {
        // Growth is charged in full, however large (the arena has no
        // budget to refuse it against), so a later shrink frees only the
        // shard's own bytes, not another shard's.
        let s = store(2);
        s.with_write(&[0], |v| v.len(), |_, sh| (sh[0].resize(2048, 0), true));
        assert_eq!(s.arena().used(), 2048);
        s.with_write(&[1], |v| v.len(), |_, sh| (sh[0].resize(512, 0), true));
        s.with_write(&[0], |v| v.len(), |_, sh| (sh[0].clear(), true));
        assert_eq!(s.reported_bytes(), 512);
        assert_eq!(s.arena().used(), 512);
        assert_eq!(s.arena().high_water(), 2560);
    }

    #[test]
    fn concurrent_grow_shrink_accounting_telescopes() {
        // Two writers ping one shard each between a large and a small
        // size; interleaved charge/release must telescope exactly because
        // both happen under the shard guard.
        let s = store(2);
        let mut handles = Vec::new();
        for w in 0..2usize {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200usize {
                    let size = if i % 2 == 0 { 2048 } else { 256 };
                    s.with_write(
                        &[w],
                        |v| v.len(),
                        |_, sh| {
                            sh[0].resize(size, 0);
                            ((), true)
                        },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Both shards ended on the small size (199 is odd).
        assert_eq!(s.reported_bytes(), 512);
        assert_eq!(s.arena().used(), 512);
    }

    #[test]
    fn two_writers_on_one_shard_never_mischarge_growth() {
        // Regression for the accounting race: size used to be reported
        // *after* the write guard dropped, so two interleaved growers
        // could publish their sizes out of order and double-charge the
        // delta. With monotone growth and in-lock reporting, the charges
        // telescope: total arena usage equals the final size exactly.
        for round in 0..20 {
            let s = store(1);
            let mut handles = Vec::new();
            for w in 0..2 {
                let s = s.clone();
                handles.push(std::thread::spawn(move || {
                    for i in 0..200 {
                        // Growth steps are multiples of the arena's
                        // 16-byte alignment so each charge is exact.
                        s.with_write(
                            &[0],
                            |v| v.len(),
                            |_, sh| {
                                let grown = sh[0].len() + 16 * (1 + (w + i + round) % 4);
                                (sh[0].resize(grown, 0), true)
                            },
                        );
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            let final_size = s.with_read(&[0], |_, sh| sh[0].len());
            assert_eq!(s.reported_bytes(), final_size);
            assert_eq!(
                s.arena().used(),
                final_size,
                "growth charges did not telescope to the final size"
            );
        }
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
                    s.with_write(
                        &[b, a],
                        |v| v.len(),
                        |_, shards| {
                            for sh in shards.iter_mut() {
                                sh.push(w as u8);
                            }
                            ((), true)
                        },
                    );
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
