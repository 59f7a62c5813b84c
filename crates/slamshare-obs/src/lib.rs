//! Unified observability layer for the SLAM-share edge server.
//!
//! The paper's evidence is latency breakdowns — the per-stage tracking
//! profile of Fig. 5 and the sub-200 ms merge budget of Table 4. This
//! crate makes those breakdowns first-class: every pipeline stage opens
//! a hierarchical [`span!`], pre-measured stage times are folded in with
//! [`observe_ms!`], events bump [`counter_add!`]/[`counter_inc!`], and
//! the whole state drains into one JSON-exportable [`ObsSnapshot`] with
//! Prometheus-style metric names.
//!
//! # Cost model
//!
//! Recording is **disabled by default**. A disabled instrumentation
//! site costs one relaxed atomic load — no clock read, no allocation,
//! no lock. Enabled spans read the monotonic clock twice and do a
//! handful of relaxed atomic adds plus one uncontended per-thread lock;
//! there is no `std::time` anywhere a disabled hot path can reach.
//! `crates/bench/benches/obs_overhead.rs` asserts the disabled-path claim
//! against the real round pipeline.
//!
//! # Naming
//!
//! Instrumentation sites use a dotted `stage.substage` taxonomy
//! (`round.track`, `track.search_local_points`, `merge.apply`); export
//! keys are the Prometheus forms `slamshare_round_track_ms` /
//! `slamshare_merge_submitted_total`. See DESIGN.md for the full span
//! taxonomy.

mod counter;
mod gauge;
mod hist;
pub mod registry;
mod snapshot;
mod span;

pub use counter::Counter;
pub use gauge::Gauge;
pub use hist::{bucket_edges_ns, bucket_index, HistSnapshot, Histogram, N_BUCKETS};
pub use snapshot::{prom_counter_key, prom_gauge_key, prom_hist_key, ObsSnapshot, SpanEvent};
pub use span::{now_ns, SpanGuard, SpanRecord, ThreadRing, RING_CAPACITY};

static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Is recording on? This is the one branch every instrumentation site
/// pays when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Turn recording on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Snapshot the global registry: every histogram, counter, and span
/// ring, in one serializable value.
pub fn snapshot() -> ObsSnapshot {
    registry::global().snapshot()
}

/// Zero all histograms and counters and clear all span rings.
pub fn reset() {
    registry::global().reset();
}

/// Resolve a call site's cached histogram (used by the macros; not
/// intended for direct use).
#[doc(hidden)]
#[inline]
pub fn hist_slot(
    name: &'static str,
    slot: &'static std::sync::OnceLock<&'static Histogram>,
) -> &'static Histogram {
    slot.get_or_init(|| registry::global().hist(name))
}

/// Resolve a call site's cached counter (used by the macros; not
/// intended for direct use).
#[doc(hidden)]
#[inline]
pub fn counter_slot(
    name: &'static str,
    slot: &'static std::sync::OnceLock<&'static Counter>,
) -> &'static Counter {
    slot.get_or_init(|| registry::global().counter(name))
}

/// Resolve a call site's cached gauge (used by the macros; not
/// intended for direct use).
#[doc(hidden)]
#[inline]
pub fn gauge_slot(
    name: &'static str,
    slot: &'static std::sync::OnceLock<&'static Gauge>,
) -> &'static Gauge {
    slot.get_or_init(|| registry::global().gauge(name))
}

/// Open a hierarchical span: `let _g = span!("round.track");`. The
/// guard measures until dropped; on drop the duration lands in the
/// span's histogram and the calling thread's ring buffer. The name must
/// be a `&'static str` literal. When recording is disabled the guard is
/// inert and no clock is read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter($name, &SLOT)
    }};
}

/// Record a pre-measured duration (fractional milliseconds) into the
/// named histogram — for call sites that already timed the work (e.g.
/// `StageTimings`, `BaStats`). `$ms` is only evaluated when recording
/// is enabled.
#[macro_export]
macro_rules! observe_ms {
    ($name:expr, $ms:expr) => {
        if $crate::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            $crate::hist_slot($name, &SLOT).record_ms($ms);
        }
    };
}

/// Add `$n` to the named monotonic counter. `$n` is only evaluated when
/// recording is enabled.
#[macro_export]
macro_rules! counter_add {
    ($name:expr, $n:expr) => {
        if $crate::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            $crate::counter_slot($name, &SLOT).add($n);
        }
    };
}

/// Increment the named monotonic counter by one.
#[macro_export]
macro_rules! counter_inc {
    ($name:expr) => {
        $crate::counter_add!($name, 1u64)
    };
}

/// Set the named gauge to `$v` (last value wins — for levels that go up
/// and down, like the map's size). `$v` is only evaluated when
/// recording is enabled.
#[macro_export]
macro_rules! gauge_set {
    ($name:expr, $v:expr) => {
        if $crate::enabled() {
            static SLOT: ::std::sync::OnceLock<&'static $crate::Gauge> =
                ::std::sync::OnceLock::new();
            $crate::gauge_slot($name, &SLOT).set($v);
        }
    };
}
