//! Fixed-bucket log-spaced latency histograms.
//!
//! Buckets are powers of two starting at 1024 ns: bucket `i` counts
//! observations with `value <= 1024 * 2^i` nanoseconds (the last bucket is
//! unbounded). 32 buckets span ~1 µs to ~36 minutes — wide enough for any
//! single pipeline phase and cheap enough (one relaxed `fetch_add`) to sit
//! on the per-AS hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log-spaced buckets.
pub const BUCKETS: usize = 32;

/// Smallest bucket upper bound in nanoseconds (everything at or below one
/// microsecond lands in bucket 0).
const FIRST_BOUND_NANOS: u64 = 1 << 10;

/// Upper (inclusive) bound of bucket `i` in nanoseconds; the final bucket
/// reports `u64::MAX`.
pub fn bucket_bound_nanos(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        FIRST_BOUND_NANOS << i
    }
}

fn bucket_index(nanos: u64) -> usize {
    // Buckets are `value <= bound`, so a value exactly on a power-of-two
    // bound belongs to that bucket: ceil(log2(v)) via the bit length of
    // v - 1, shifted down by the 2^10 first-bound floor.
    let bits = 64 - nanos.saturating_sub(1).leading_zeros() as usize;
    bits.saturating_sub(10).min(BUCKETS - 1)
}

/// A thread-safe latency histogram with log-spaced buckets and
/// p50/p90/p99 summaries.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation, in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record one observed duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.sum_nanos().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile: the upper bound of the first bucket whose
    /// cumulative count reaches `q * count`. Returns 0 when empty. `q`
    /// is clamped to `[0, 1]`.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= target {
                return bucket_bound_nanos(i);
            }
        }
        bucket_bound_nanos(BUCKETS - 1)
    }

    /// Serializable point-in-time view with quantile summaries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<BucketSnapshot> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let count = b.load(Ordering::Relaxed);
                (count > 0).then_some(BucketSnapshot {
                    le_nanos: bucket_bound_nanos(i),
                    count,
                })
            })
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum_nanos: self.sum_nanos(),
            mean_nanos: self.mean_nanos(),
            p50_nanos: self.quantile_nanos(0.50),
            p90_nanos: self.quantile_nanos(0.90),
            p99_nanos: self.quantile_nanos(0.99),
            buckets,
        }
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSnapshot {
    /// Inclusive upper bound of the bucket, in nanoseconds.
    pub le_nanos: u64,
    /// Observations that fell in this bucket.
    pub count: u64,
}

/// A serializable point-in-time view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observations in nanoseconds.
    pub sum_nanos: u64,
    /// Mean observation in nanoseconds.
    pub mean_nanos: u64,
    /// Approximate median (bucket upper bound).
    pub p50_nanos: u64,
    /// Approximate 90th percentile.
    pub p90_nanos: u64,
    /// Approximate 99th percentile.
    pub p99_nanos: u64,
    /// The non-empty buckets, in bound order.
    pub buckets: Vec<BucketSnapshot>,
}

/// Render a nanosecond quantity as a compact human-readable duration.
pub fn format_nanos(nanos: u64) -> String {
    if nanos == u64::MAX {
        return "inf".to_owned();
    }
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log_spaced() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1024), 0);
        assert_eq!(bucket_index(1025), 1);
        assert_eq!(bucket_index(2048), 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value is at or below its bucket's bound.
        for v in [1u64, 999, 12_345, 1_000_000, 123_456_789] {
            assert!(v <= bucket_bound_nanos(bucket_index(v)));
        }
    }

    #[test]
    fn quantiles_and_mean() {
        let h = Histogram::new();
        assert_eq!(h.quantile_nanos(0.5), 0);
        // 90 fast observations, 10 slow ones.
        for _ in 0..90 {
            h.record_nanos(1_000); // bucket 0
        }
        for _ in 0..10 {
            h.record_nanos(1_000_000); // ~1ms
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_nanos(0.5), bucket_bound_nanos(0));
        assert_eq!(h.quantile_nanos(0.90), bucket_bound_nanos(0));
        assert!(h.quantile_nanos(0.99) >= 1_000_000);
        let mean = h.mean_nanos();
        assert!(mean > 1_000 && mean < 1_000_000, "mean = {mean}");
    }

    #[test]
    fn snapshot_only_keeps_nonempty_buckets() {
        let h = Histogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(2));
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.buckets.len(), 2);
        assert!(s.buckets.iter().all(|b| b.count == 1));
        assert!(Histogram::new().snapshot().buckets.is_empty());
    }

    #[test]
    fn formats_durations() {
        assert_eq!(format_nanos(12), "12ns");
        assert_eq!(format_nanos(1_500), "1.5µs");
        assert_eq!(format_nanos(2_500_000), "2.50ms");
        assert_eq!(format_nanos(1_500_000_000), "1.50s");
        assert_eq!(format_nanos(u64::MAX), "inf");
    }
}
