//! # slamshare-shm
//!
//! The shared-memory global-map store — the paper's second contribution
//! (§4.3.2).
//!
//! In the paper, an orchestrator allocates a 2 GB Boost.Interprocess
//! segment; each per-client server process *attaches* it into its own
//! address space, custom allocators place keyframes/map points directly in
//! the buffer, and Boost named sharable mutexes serialize writers while
//! admitting concurrent readers. Merging then "only adds pointers to the
//! global map database, without any data copying".
//!
//! Here clients are threads of one process, so the substrate models the
//! same contract:
//!
//! * [`arena`] — a bump allocator over a fixed-capacity buffer with
//!   occupancy accounting (the 2 GB segment);
//! * [`shared_mutex`] — a read-concurrent / write-serialized lock with
//!   contention statistics (the named sharable mutex);
//! * [`segment`] — a named registry processes attach to;
//! * [`sharded`] — [`ShardedStore`], tying it together for a named shared
//!   object: attach by name, concurrent zero-copy reads, serialized
//!   writes, capacity accounting against the segment — over N occupants
//!   behind N locks with per-shard epoch counters, so a write to one
//!   region never blocks readers of another.
//!
//! The crate is deliberately independent of the SLAM types (generic over
//! `T`) so it is testable in isolation; `slamshare-core` instantiates it
//! with the SLAM `Map`.
//!
//! Every byte in this crate sits under the global map's locks; a panic
//! here poisons shared state for every client, so unwrap/expect/panic are
//! compile errors in non-test code (the PR 3 ingest-path gate, extended).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod arena;
pub mod segment;
pub mod sharded;
pub mod shared_mutex;

pub use arena::Arena;
pub use segment::{Segment, SegmentError};
pub use sharded::ShardedStore;
pub use shared_mutex::{LockStats, SharedMutex};
