//! Atomic event counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A thread-safe event counter.
///
/// All operations use relaxed ordering: counters are statistics, not
/// synchronization primitives, and the hot paths they instrument must not
/// pay for fences they don't need.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrite the value (used for gauge-style values synced at
    /// snapshot time, e.g. cache occupancy).
    #[inline]
    pub fn store(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn inc_add_get_store() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.store(42);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8000);
    }
}
