//! Admission control and per-client backpressure.
//!
//! At a handful of clients the server can promise every registered
//! client a full round slot; at hundreds it cannot, and "no defined
//! behavior under overload" turns into latency collapse for everyone.
//! This module is the server's two load-shedding mechanisms:
//!
//! * [`Admission`] — the bound on the server's client table
//!   ([`crate::server::ServerConfig::max_clients`]). Registration beyond
//!   the bound is refused with a typed [`RegisterError`] instead of
//!   silently degrading every admitted client; re-registering a live id
//!   is refused instead of silently replacing (and leaking) the old
//!   process state.
//! * [`FrameQueue`] — a bounded per-client staging queue between the
//!   network and the round pipeline. When a client uploads faster than
//!   its round slot drains, the queue sheds the **oldest non-I-frame**
//!   first: newest frames carry the pose the AR overlay actually needs,
//!   and I-frames are the stream's only resync anchors, so they are
//!   evicted only when nothing else is left. An eviction breaks the
//!   P-frame reference chain, so the frame that followed the gap is
//!   tagged ([`QueuedFrame::follows_gap`]) and the ingest state machine
//!   discards up to the next I-frame instead of decoding against a stale
//!   reference (see [`crate::ingest`]).
//!
//! Every decision is counted ([`AdmissionCounters`], [`QueueCounters`] —
//! relaxed atomics shared with [`crate::server::EdgeServer::metrics`]),
//! so `offered == served + dropped + purged + still-queued` is checkable
//! from the outside.

use serde::Serialize;
use slamshare_math::SE3;
use slamshare_net::codec::payload_is_iframe;
use slamshare_sim::clock::SimTime;
use slamshare_sim::imu::ImuSample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Typed refusal of a client registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegisterError {
    /// The client table is full ([`crate::server::ServerConfig::max_clients`]).
    AtCapacity { max: usize },
    /// The id is already live. Re-registering must not silently replace
    /// the existing process (that leaks its GPU slices and counters);
    /// deregister first.
    AlreadyRegistered(u16),
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::AtCapacity { max } => {
                write!(f, "server at capacity ({max} clients)")
            }
            RegisterError::AlreadyRegistered(id) => {
                write!(f, "client {id} is already registered")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Lock-free admission counters.
#[derive(Debug, Default)]
pub struct AdmissionCounters {
    admitted: AtomicU64,
    rejected_capacity: AtomicU64,
    rejected_duplicate: AtomicU64,
    departed: AtomicU64,
}

/// A point-in-time copy of [`AdmissionCounters`] plus the live count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct AdmissionSnapshot {
    /// Clients currently live.
    pub live: u64,
    /// Registrations accepted (cumulative).
    pub admitted: u64,
    /// Registrations refused because the server was full.
    pub rejected_capacity: u64,
    /// Registrations refused because the id was already live.
    pub rejected_duplicate: u64,
    /// Deregistrations (cumulative).
    pub departed: u64,
}

/// The admission rule over the server's client table: the bound, the
/// decision counters and the refusal order. Which ids are live is the
/// table's to say; this holds no set of its own.
#[derive(Debug, Default)]
pub struct Admission {
    max_clients: Option<usize>,
    counters: AdmissionCounters,
}

impl Admission {
    pub fn new(max_clients: Option<usize>) -> Admission {
        Admission {
            max_clients,
            ..Admission::default()
        }
    }

    /// Admit `id` to a table of `live` ids, of which `id` is one when
    /// `is_live`, or refuse with a typed error. A duplicate id is refused
    /// as such even when the table is also full. On `Ok` the caller adds
    /// `id` to its table.
    pub fn try_admit(&self, id: u16, is_live: bool, live: usize) -> Result<(), RegisterError> {
        if is_live {
            self.counters
                .rejected_duplicate
                .fetch_add(1, Ordering::Relaxed);
            slamshare_obs::counter_inc!("admission.rejected_duplicate");
            return Err(RegisterError::AlreadyRegistered(id));
        }
        if let Some(max) = self.max_clients {
            if live >= max {
                self.counters
                    .rejected_capacity
                    .fetch_add(1, Ordering::Relaxed);
                slamshare_obs::counter_inc!("admission.rejected_capacity");
                return Err(RegisterError::AtCapacity { max });
            }
        }
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        slamshare_obs::counter_inc!("admission.admitted");
        Ok(())
    }

    /// Count a live id's removal from the table (its slot is free for
    /// reuse — a crashed client's id may be re-admitted later).
    pub fn depart(&self) {
        self.counters.departed.fetch_add(1, Ordering::Relaxed);
    }

    /// The counters, with `live` the table's current length.
    pub fn snapshot(&self, live: usize) -> AdmissionSnapshot {
        AdmissionSnapshot {
            live: live as u64,
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            rejected_capacity: self.counters.rejected_capacity.load(Ordering::Relaxed),
            rejected_duplicate: self.counters.rejected_duplicate.load(Ordering::Relaxed),
            departed: self.counters.departed.load(Ordering::Relaxed),
        }
    }
}

/// One staged (owned) uploaded frame, as held by a [`FrameQueue`]
/// between arrival and its round slot.
#[derive(Debug, Clone, Default)]
pub struct QueuedFrame {
    pub frame_idx: usize,
    pub timestamp: f64,
    /// Encoded left video payload.
    pub left: Vec<u8>,
    /// Encoded right video payload (stereo only).
    pub right: Option<Vec<u8>>,
    /// IMU samples since the previous frame.
    pub imu: Vec<ImuSample>,
    /// Optional bootstrap anchor pose.
    pub pose_hint: Option<SE3>,
    /// Virtual capture time at the device, for round-latency accounting
    /// (ignored by the server itself).
    pub captured_at: SimTime,
    /// An earlier frame between this one and its predecessor was evicted
    /// under backpressure: the P-frame reference chain is broken here,
    /// and ingest must treat this stream as desynced from this frame on.
    pub follows_gap: bool,
}

impl QueuedFrame {
    /// Whether the staged left payload is a self-contained intra frame
    /// (the resync anchor the eviction policy preserves).
    pub fn is_iframe(&self) -> bool {
        payload_is_iframe(&self.left)
    }
}

/// Lock-free queue counters, shared with the metrics reader.
#[derive(Debug, Default)]
pub struct QueueCounters {
    offered: AtomicU64,
    served: AtomicU64,
    dropped_overflow: AtomicU64,
    purged: AtomicU64,
}

impl QueueCounters {
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            offered: self.offered.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            dropped_overflow: self.dropped_overflow.load(Ordering::Relaxed),
            purged: self.purged.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one client's [`QueueCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct QueueSnapshot {
    /// Frames offered to the queue (arrivals).
    pub offered: u64,
    /// Frames handed to the round pipeline.
    pub served: u64,
    /// Frames evicted by the overflow policy.
    pub dropped_overflow: u64,
    /// Frames discarded when the client left or crashed.
    pub purged: u64,
}

impl QueueSnapshot {
    /// Frames accounted for so far; `offered - accounted()` is the
    /// current queue depth.
    pub fn accounted(&self) -> u64 {
        self.served + self.dropped_overflow + self.purged
    }
}

/// Capacity of each client's staged-frame queue on an
/// [`crate::server::EdgeServer`]. Overflow sheds the oldest non-I-frame
/// first ([`FrameQueue`]).
pub const INGRESS_QUEUE_CAP: usize = 4;

/// A bounded per-client staging queue with oldest-non-I-frame-first
/// eviction.
#[derive(Debug)]
pub struct FrameQueue {
    cap: usize,
    queue: VecDeque<QueuedFrame>,
    counters: Arc<QueueCounters>,
}

impl FrameQueue {
    /// A queue holding at most `cap` staged frames (`cap` is clamped to
    /// ≥ 1).
    pub fn new(cap: usize) -> FrameQueue {
        FrameQueue {
            cap: cap.max(1),
            queue: VecDeque::new(),
            counters: Arc::new(QueueCounters::default()),
        }
    }

    /// The shared counter block (clone the `Arc` for lock-free metrics).
    pub fn counters(&self) -> Arc<QueueCounters> {
        self.counters.clone()
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Stage a frame. When full, the **oldest non-I-frame** is evicted
    /// first (I-frames are resync anchors; the oldest frame is the one
    /// whose pose matters least); a queue of nothing but I-frames evicts
    /// its oldest. The incoming frame is always staged. Returns the
    /// evicted frame, whose successor in the queue has been tagged
    /// [`QueuedFrame::follows_gap`].
    pub fn offer(&mut self, frame: QueuedFrame) -> Option<QueuedFrame> {
        self.counters.offered.fetch_add(1, Ordering::Relaxed);
        let mut evicted = None;
        if self.queue.len() >= self.cap {
            let victim = self.queue.iter().position(|f| !f.is_iframe()).unwrap_or(0);
            evicted = self.queue.remove(victim);
            self.counters
                .dropped_overflow
                .fetch_add(1, Ordering::Relaxed);
            slamshare_obs::counter_inc!("backpressure.dropped");
            // The frame that followed the victim decodes against a
            // reference the victim would have produced.
            match self.queue.get_mut(victim) {
                Some(successor) => successor.follows_gap = true,
                // The victim was the newest staged frame: the incoming
                // frame is the successor — handled below.
                None => {
                    let mut frame = frame;
                    frame.follows_gap = true;
                    self.queue.push_back(frame);
                    return evicted;
                }
            }
        }
        self.queue.push_back(frame);
        evicted
    }

    /// Hand the oldest staged frame to the round pipeline.
    pub fn pop(&mut self) -> Option<QueuedFrame> {
        let frame = self.queue.pop_front();
        if frame.is_some() {
            self.counters.served.fetch_add(1, Ordering::Relaxed);
        }
        frame
    }

    /// Discard everything staged (the client left or crashed). Returns
    /// how many frames were purged.
    pub fn purge(&mut self) -> usize {
        let n = self.queue.len();
        self.counters.purged.fetch_add(n as u64, Ordering::Relaxed);
        self.queue.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn frame(idx: usize, iframe: bool) -> QueuedFrame {
        // MAGIC_INTRA-tagged payloads start with b"IF"; anything else is
        // treated as non-intra by `payload_is_iframe`.
        let left = if iframe {
            slamshare_net::codec::VideoEncoder::default()
                .encode(&slamshare_features::GrayImage::new(4, 4))
                .data
                .to_vec()
        } else {
            vec![0u8; 4]
        };
        QueuedFrame {
            frame_idx: idx,
            left,
            ..QueuedFrame::default()
        }
    }

    /// A client table as the server keeps one, admitting through
    /// [`Admission`].
    struct Table {
        adm: Admission,
        live: BTreeSet<u16>,
    }

    impl Table {
        fn new(max_clients: Option<usize>) -> Table {
            Table {
                adm: Admission::new(max_clients),
                live: BTreeSet::new(),
            }
        }

        fn admit(&mut self, id: u16) -> Result<(), RegisterError> {
            self.adm
                .try_admit(id, self.live.contains(&id), self.live.len())?;
            self.live.insert(id);
            Ok(())
        }

        fn depart(&mut self, id: u16) -> bool {
            let was_live = self.live.remove(&id);
            if was_live {
                self.adm.depart();
            }
            was_live
        }

        fn snapshot(&self) -> AdmissionSnapshot {
            self.adm.snapshot(self.live.len())
        }
    }

    #[test]
    fn admission_enforces_capacity_and_uniqueness() {
        let mut adm = Table::new(Some(2));
        assert_eq!(adm.admit(1), Ok(()));
        assert_eq!(adm.admit(2), Ok(()));
        assert_eq!(adm.admit(3), Err(RegisterError::AtCapacity { max: 2 }));
        // Duplicate wins over capacity in the error taxonomy.
        assert_eq!(adm.admit(1), Err(RegisterError::AlreadyRegistered(1)));
        // Departure frees the slot; the departed id can be re-admitted
        // (crashed clients reconnect with the same id).
        assert!(adm.depart(1));
        assert!(!adm.depart(1));
        assert_eq!(adm.admit(3), Ok(()));
        assert_eq!(adm.admit(1), Err(RegisterError::AtCapacity { max: 2 }));
        let snap = adm.snapshot();
        assert_eq!(snap.live, 2);
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.rejected_capacity, 2);
        assert_eq!(snap.rejected_duplicate, 1);
        assert_eq!(snap.departed, 1);
    }

    #[test]
    fn unbounded_admission_never_rejects_capacity() {
        let mut adm = Table::new(None);
        for id in 0..500 {
            assert_eq!(adm.admit(id), Ok(()));
        }
        assert_eq!(adm.snapshot().live, 500);
    }

    #[test]
    fn queue_evicts_oldest_non_iframe_first() {
        let mut q = FrameQueue::new(3);
        assert!(q.offer(frame(0, true)).is_none());
        assert!(q.offer(frame(1, false)).is_none());
        assert!(q.offer(frame(2, false)).is_none());
        // Full: frame 1 (oldest non-I) goes, not the I-frame at the head.
        let evicted = q.offer(frame(3, false)).expect("must evict");
        assert_eq!(evicted.frame_idx, 1);
        assert_eq!(q.len(), 3);
        // The frame after the gap carries the discontinuity tag.
        let head = q.pop().unwrap();
        assert_eq!(head.frame_idx, 0);
        assert!(!head.follows_gap);
        let after_gap = q.pop().unwrap();
        assert_eq!(after_gap.frame_idx, 2);
        assert!(after_gap.follows_gap);
    }

    #[test]
    fn queue_of_iframes_evicts_oldest_and_tags_successor() {
        let mut q = FrameQueue::new(2);
        q.offer(frame(0, true));
        q.offer(frame(1, true));
        let evicted = q.offer(frame(2, false)).expect("must evict");
        assert_eq!(evicted.frame_idx, 0);
        assert!(q.pop().unwrap().follows_gap, "successor of the gap");
    }

    #[test]
    fn evicting_the_newest_tags_the_incoming_frame() {
        // Only one slot: the staged frame itself is the victim and the
        // incoming frame is the successor of the gap.
        let mut q = FrameQueue::new(1);
        q.offer(frame(0, false));
        let evicted = q.offer(frame(1, false)).expect("must evict");
        assert_eq!(evicted.frame_idx, 0);
        let staged = q.pop().unwrap();
        assert_eq!(staged.frame_idx, 1);
        assert!(staged.follows_gap);
    }

    #[test]
    fn queue_counters_balance() {
        let mut q = FrameQueue::new(2);
        for i in 0..6 {
            q.offer(frame(i, i == 0));
        }
        q.pop();
        let remaining = q.purge() as u64;
        let snap = q.counters().snapshot();
        assert_eq!(snap.offered, 6);
        assert_eq!(snap.served, 1);
        assert_eq!(snap.dropped_overflow, 4);
        assert_eq!(snap.purged, remaining);
        assert_eq!(snap.offered, snap.accounted());
    }
}
