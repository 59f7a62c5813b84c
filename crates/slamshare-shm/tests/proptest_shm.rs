//! Property-based tests for the shared-memory primitives: the arena must
//! never double-allocate.

use proptest::prelude::*;
use slamshare_shm::Arena;

proptest! {
    /// Arena allocations are disjoint, aligned, and capacity-bounded.
    #[test]
    fn arena_allocations_disjoint(sizes in proptest::collection::vec(1usize..512, 1..64)) {
        let capacity = 1 << 16;
        let arena = Arena::new(capacity);
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for s in sizes {
            match arena.alloc(s) {
                Ok(off) => {
                    prop_assert_eq!(off % 16, 0, "unaligned offset");
                    let aligned = s.div_ceil(16) * 16;
                    prop_assert!(off + aligned <= capacity);
                    for &(o, l) in &spans {
                        prop_assert!(off + aligned <= o || o + l <= off, "overlap");
                    }
                    spans.push((off, aligned));
                }
                Err(e) => {
                    prop_assert!(e.requested > arena.available());
                }
            }
        }
        prop_assert!(arena.used() <= capacity);
        prop_assert!(arena.high_water() >= arena.used());
    }
}
