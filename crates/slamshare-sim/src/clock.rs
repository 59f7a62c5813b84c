//! Virtual time and the discrete-event queue.
//!
//! System-level experiments (map-merge latency, network shaping, multi-user
//! timelines) run in *virtual* time: compute stages charge calibrated
//! durations and network transfers charge serialization + propagation
//! delay, all ordered by this queue. Using integer microseconds avoids
//! float-comparison hazards in the priority queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (microseconds since experiment start).
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_secs(s: f64) -> SimTime {
        assert!(s >= 0.0, "negative time {s}");
        SimTime((s * 1e6).round() as u64)
    }

    pub fn from_millis(ms: f64) -> SimTime {
        Self::from_secs(ms / 1e3)
    }

    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_millis(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, o: SimTime) -> SimTime {
        SimTime(self.0 + o.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, o: SimTime) {
        self.0 += o.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, o: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(o.0))
    }
}

/// A discrete-event queue over an arbitrary event payload.
///
/// Events at equal timestamps pop in insertion order (a monotone sequence
/// number breaks ties), which keeps multi-client experiments deterministic.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, EventBox<E>)>>,
    seq: u64,
    now: SimTime,
}

/// Wrapper giving the payload a vacuous ordering so the tuple is `Ord`.
#[derive(Debug)]
struct EventBox<E>(E);

impl<E> PartialEq for EventBox<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for EventBox<E> {}
impl<E> PartialOrd for EventBox<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for EventBox<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error in the experiment driver.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        self.heap.push(Reverse((at, self.seq, EventBox(event))));
        self.seq += 1;
    }

    /// Schedule `event` `delay` after now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pop the next event, advancing virtual time to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((t, _, EventBox(e))) = self.heap.pop()?;
        self.now = t;
        Some((t, e))
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions() {
        let t = SimTime::from_millis(193.0);
        assert_eq!(t.0, 193_000);
        assert!((t.as_secs() - 0.193).abs() < 1e-12);
        assert!((t.as_millis() - 193.0).abs() < 1e-12);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30.0), "c");
        q.schedule(SimTime::from_millis(10.0), "a");
        q.schedule(SimTime::from_millis(20.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5.0);
        q.schedule(t, 1);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(1.0));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2.0), "first");
        q.pop();
        q.schedule_in(SimTime::from_secs(0.5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2.5));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1.0), ());
        q.pop();
        q.schedule(SimTime::from_millis(1.0), ());
    }
}
