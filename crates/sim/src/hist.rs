//! Log2-bucketed latency histograms.
//!
//! The paper's evaluation reasons about *distributions*, not just means:
//! invoke round-trip latency under NACK backpressure, stream-pop stall
//! tails, DRAM queueing under phase bursts. A [`Histogram`] records one
//! `u64` sample per event into power-of-two buckets — O(1), allocation-free,
//! deterministic — and exposes percentile accessors with log2 resolution.
//! [`crate::stats::Stats`] embeds one histogram per tracked latency.

use std::fmt;

/// Number of buckets: one for zero plus one per power of two of `u64`.
pub const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `k > 0` holds values in
/// `[2^(k-1), 2^k)`. Percentiles report the *lower bound* of the bucket
/// containing the requested rank (so they are exact to log2 resolution and
/// never overstate a latency), while `min`/`max`/`mean` are exact.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a value.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Lower bound of bucket `k` (the value percentiles report).
    #[inline]
    fn bucket_floor(k: usize) -> u64 {
        if k == 0 {
            0
        } else {
            1u64 << (k - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the lower bound
    /// of the log2 bucket containing that rank. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Self::bucket_floor(k);
            }
        }
        self.max
    }

    /// Median (log2 resolution).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile (log2 resolution).
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile (log2 resolution).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// The raw bucket counts (index = log2 bucket, see type docs).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
            && self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
    }
}

impl Eq for Histogram {}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.p50())
            .field("p90", &self.p90())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p90={} p99={} max={}",
            self.count,
            self.min(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

levi_isa::codec_struct!(Histogram {
    buckets,
    count,
    sum,
    min,
    max,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(11), 1024);
    }

    #[test]
    fn exact_stats_track_samples() {
        let mut h = Histogram::new();
        for v in [5u64, 10, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1115);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 278.75).abs() < 1e-12);
    }

    #[test]
    fn percentiles_have_log2_resolution() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // The 50th sample is 50, in bucket [32, 64) -> lower bound 32.
        assert_eq!(h.p50(), 32);
        // The 90th sample is 90, in bucket [64, 128) -> 64.
        assert_eq!(h.p90(), 64);
        assert_eq!(h.p99(), 64);
        // Percentiles never exceed the true max's bucket floor.
        assert!(h.p99() <= h.max());
    }

    #[test]
    fn percentile_of_uniform_bucket() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(7); // bucket [4, 8)
        }
        assert_eq!(h.p50(), 4);
        assert_eq!(h.p99(), 4);
        assert_eq!(h.max(), 7);
    }

    #[test]
    fn zero_values_land_in_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(8);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(1.0), 8);
        assert_eq!(h.buckets()[0], 2);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(1);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn equality_is_structural() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(42);
        b.record(42);
        assert_eq!(a, b);
        b.record(43);
        assert_ne!(a, b);
    }
}
