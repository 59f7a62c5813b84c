//! Occupancy accounting for the global map's memory.
//!
//! Stands in for the paper's pre-allocated 2 GB shared-memory segment
//! (sized against ~40 MB full-trajectory maps) as a counter: writers
//! charge the bytes their content grows by and free the bytes it shrinks
//! by, and occupancy is observable so the system can report how much its
//! maps consume. There is no budget to refuse a charge against.
//!
//! Each size change is rounded up to 16 bytes on its own, so occupancy is
//! a sum of rounded deltas, not of rounded sizes: a shard that grows
//! 0 → 8 → 16 bytes is charged 32 and, shrunk back to 0, freed 16, while
//! one that grows 0 → 16 and shrinks to 1 is freed all 16. So
//! [`Arena::used`] drifts from the summed content size, in either
//! direction, by up to 15 bytes per size change.

use std::sync::atomic::{AtomicUsize, Ordering};

/// An occupancy counter, in size changes rounded up to 16 bytes.
///
/// Thread-safe: concurrent charges and frees move one atomic counter.
#[derive(Debug, Default)]
pub struct Arena {
    used: AtomicUsize,
    high_water: AtomicUsize,
}

/// `bytes` rounded up to the 16-byte allocation granule.
fn aligned(bytes: usize) -> usize {
    bytes.div_ceil(16) * 16
}

impl Arena {
    /// Bytes currently charged (see the module doc for how the rounding
    /// makes this differ from the content size).
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// Peak occupancy since construction.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Charge `bytes` (aligned to 16).
    pub fn alloc(&self, bytes: usize) {
        let a = aligned(bytes);
        let used = self.used.fetch_add(a, Ordering::Relaxed) + a;
        self.high_water.fetch_max(used, Ordering::Relaxed);
    }

    /// Release `bytes` (aligned to 16, mirroring [`Arena::alloc`]),
    /// clamped to what is currently charged. Returns the number of bytes
    /// actually released.
    ///
    /// The sharded store pairs every free with a size shrink under the
    /// same shard lock, so no shrink is freed twice; the per-delta
    /// rounding still lets a free take rounding bytes another charge
    /// added (module doc), and the clamp keeps that from driving the
    /// counter below zero.
    pub fn free(&self, bytes: usize) -> usize {
        let a = aligned(bytes);
        let mut released = 0;
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                released = a.min(cur);
                Some(cur - released)
            });
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_are_aligned() {
        let a = Arena::default();
        a.alloc(10);
        a.alloc(10);
        assert_eq!(a.used(), 32);
    }

    #[test]
    fn free_releases_and_clamps() {
        let a = Arena::default();
        a.alloc(64);
        a.alloc(32);
        assert_eq!(a.used(), 96);
        assert_eq!(a.free(32), 32);
        assert_eq!(a.used(), 64);
        a.alloc(192);
        assert_eq!(a.used(), 256);
        // Over-free clamps to what is in use instead of underflowing.
        assert_eq!(a.free(10_000), 256);
        assert_eq!(a.used(), 0);
        assert_eq!(a.free(16), 0);
        // High water still records the true peak.
        assert_eq!(a.high_water(), 256);
    }

    #[test]
    fn two_thread_alloc_free_accounting_exact() {
        // One thread charges, one frees matching sizes. Balanced traffic
        // must telescope to an exact final occupancy with no lost or
        // double-counted bytes.
        use std::sync::mpsc;
        use std::sync::Arc;
        let a = Arc::new(Arena::default());
        let (tx, rx) = mpsc::channel::<usize>();
        let freer = {
            let a = a.clone();
            std::thread::spawn(move || {
                let mut released = 0usize;
                while let Ok(bytes) = rx.recv() {
                    released += a.free(bytes);
                }
                released
            })
        };
        let mut allocated = 0usize;
        for i in 0..4_000usize {
            let bytes = 16 * (1 + i % 7);
            a.alloc(bytes);
            allocated += bytes;
            // Hand every other charge to the freer thread while we keep
            // charging — alloc and free race on the counter.
            if i % 2 == 0 {
                tx.send(bytes).unwrap();
                allocated -= bytes;
            }
        }
        drop(tx);
        let released = freer.join().unwrap();
        assert_eq!(a.used(), allocated, "alloc/free accounting drifted");
        assert!(released > 0);
        assert!(a.high_water() >= a.used());
    }
}
