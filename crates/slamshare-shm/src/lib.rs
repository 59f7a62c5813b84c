//! # slamshare-shm
//!
//! The shared-memory global-map store — the paper's second contribution
//! (§4.3.2).
//!
//! In the paper, an orchestrator allocates a 2 GB Boost.Interprocess
//! segment; each per-client server process *attaches* it by name into its
//! own address space, custom allocators place keyframes/map points
//! directly in the buffer, and Boost named sharable mutexes serialize
//! writers while admitting concurrent readers. Merging then "only adds
//! pointers to the global map database, without any data copying".
//!
//! Here clients are threads of one process that share the store through
//! an `Arc`, so there is nothing to find by name and no segment allocator
//! to ask how full it is: the map is measured, not charged (its size is
//! whatever `slamshare-core` sums over the shards' content). The
//! substrate models the rest of the contract:
//!
//! * [`shared_mutex`] — a read-concurrent / write-serialized lock with
//!   contention statistics (the named sharable mutex);
//! * [`sharded`] — [`ShardedStore`]: concurrent zero-copy reads and
//!   serialized writes over N occupants behind N locks with per-shard
//!   epoch counters, so a write to one region never blocks readers of
//!   another.
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

pub mod sharded;
pub mod shared_mutex;

pub use sharded::ShardedStore;
pub use shared_mutex::{LockStats, SharedMutex};
