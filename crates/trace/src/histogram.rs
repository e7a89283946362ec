//! Dependency-free log2-bucket histograms.
//!
//! Bucket `0` holds the value `0`; bucket `k >= 1` holds values in
//! `[2^(k-1), 2^k)`. Sixty-five buckets therefore cover the full `u64`
//! domain. The shape is coarse by design: these histograms answer "is the
//! command queue latency tens or thousands of cycles?" with a handful of
//! `u64` adds per sample and no allocation after construction.

/// A log2-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; 65],
    count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Log2Histogram {
        Log2Histogram {
            buckets: [0; 65],
            count: 0,
        }
    }
}

/// The bucket index for `value`.
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

impl Log2Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Log2Histogram {
        Log2Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
    }

    /// Records `n` identical samples in constant time. Equivalent to
    /// calling [`Log2Histogram::record`] `n` times with `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_of(value)] += n;
        self.count += n;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(bucket index, count)` of every non-empty bucket.
    fn nonzero(h: &Log2Histogram) -> Vec<(usize, u64)> {
        h.buckets
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    #[test]
    fn buckets_follow_powers_of_two() {
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        h.record(1023);
        assert_eq!(h.count(), 6);
        // 0 | 1 | 2..4 | 4..8 | 512..1024
        assert_eq!(nonzero(&h), vec![(0, 1), (1, 1), (2, 2), (3, 1), (10, 1)]);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(nonzero(&h).is_empty());
    }

    #[test]
    fn record_n_matches_repeated_record() {
        for (value, n) in [(0u64, 3u64), (4, 31), (1023, 1), (7, 0)] {
            let mut looped = Log2Histogram::new();
            looped.record(2);
            for _ in 0..n {
                looped.record(value);
            }
            let mut batched = Log2Histogram::new();
            batched.record(2);
            batched.record_n(value, n);
            assert_eq!(looped, batched, "value={value} n={n}");
        }
    }

    #[test]
    fn extreme_values_stay_in_range() {
        let mut h = Log2Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(nonzero(&h), vec![(64, 2)]);
    }
}
