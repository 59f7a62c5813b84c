//! Property-based tests for the shared-memory primitives: the arena's
//! occupancy is exactly what was charged and not yet freed.

use proptest::prelude::*;
use slamshare_shm::Arena;

proptest! {
    /// Occupancy is the running sum of aligned charges minus releases,
    /// and the high-water mark is its maximum.
    #[test]
    fn arena_occupancy_telescopes(ops in proptest::collection::vec((any::<bool>(), 1usize..512), 1..64)) {
        let arena = Arena::default();
        let (mut used, mut peak) = (0usize, 0usize);
        for (charge, bytes) in ops {
            let aligned = bytes.div_ceil(16) * 16;
            if charge {
                arena.alloc(bytes);
                used += aligned;
            } else {
                let released = arena.free(bytes);
                prop_assert_eq!(released, aligned.min(used));
                used -= released;
            }
            peak = peak.max(used);
            prop_assert_eq!(arena.used(), used);
        }
        prop_assert_eq!(arena.high_water(), peak);
    }
}
