//! Last-value gauges.

use std::sync::atomic::{AtomicU64, Ordering};

/// A last-value-wins gauge (wait-free, relaxed atomics) for levels that
/// go up *and* down — map size, queue depth, resident regions.
/// Unlike [`crate::Counter`] there is no accumulation: `set` overwrites.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_wins_and_resets() {
        let g = Gauge::new();
        g.set(96);
        g.set(32);
        assert_eq!(g.get(), 32);
        g.reset();
        assert_eq!(g.get(), 0);
    }
}
