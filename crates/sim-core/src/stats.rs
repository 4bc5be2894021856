//! Measurement: counters and latency histograms.
//!
//! Experiments report totals (packets forwarded, drops) and latency
//! distributions (mean, p50/p99/max in cycles or µs); rates are a
//! division at the call site. The histogram uses logarithmic
//! bucketing with linear sub-buckets (HDR-histogram style): bounded
//! memory regardless of range, with relative quantile error under ~6%.

use crate::time::Cycles;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// New counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    #[must_use]
    pub fn get(self) -> u64 {
        self.value
    }
}

/// Number of linear sub-buckets per power-of-two bucket. 32 gives a
/// worst-case relative error of 1/32 ≈ 3.1% on recovered quantiles.
const SUB_BUCKETS: usize = 32;
const SUB_BUCKET_BITS: u32 = 5; // log2(SUB_BUCKETS)

/// A log-bucketed histogram of `u64` samples (HDR-histogram style).
///
/// Values up to `SUB_BUCKETS` are recorded exactly; larger values land
/// in `(log2-range, linear sub-bucket)` cells. Memory is O(64 × 32)
/// regardless of the value range.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // The bucket is determined by the position of the leading bit;
        // the sub-bucket by the next SUB_BUCKET_BITS bits.
        let leading = 63 - value.leading_zeros();
        let bucket = leading - SUB_BUCKET_BITS + 1;
        let sub = (value >> (leading - SUB_BUCKET_BITS)) as usize & (SUB_BUCKETS - 1);
        (bucket as usize) * SUB_BUCKETS + sub + SUB_BUCKETS
    }

    /// Representative (midpoint-ish lower bound) value for a bucket index.
    fn value_of(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let index = index - SUB_BUCKETS;
        let bucket = (index / SUB_BUCKETS) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        let base = 1u64 << (bucket + SUB_BUCKET_BITS - 1);
        base + sub * (base >> SUB_BUCKET_BITS)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a latency expressed in cycles.
    pub fn record_cycles(&mut self, value: Cycles) {
        self.record(value.count());
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 if empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`, within bucket resolution.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Convenience: p50.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Convenience: p99.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Snapshot of the distribution's headline numbers.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Headline numbers of a latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum sample.
    pub max: u64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} p50={} p90={} p99={} p99.9={} max={}",
            self.count, self.mean, self.min, self.p50, self.p90, self.p99, self.p999, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.0), 0);
        // Small values are exact.
        assert_eq!(h.quantile(1.0), 31);
        assert!((h.mean() - 15.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 5000u64), (0.9, 9000), (0.99, 9900)] {
            let got = h.quantile(q);
            let err = (got as f64 - expect as f64).abs() / expect as f64;
            assert!(err < 0.07, "q={q}: got {got}, want ~{expect}");
        }
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 2000);
    }

    #[test]
    fn histogram_single_sample_quantiles_clamp_exactly() {
        // With one sample, every quantile must clamp to that sample —
        // including values that sit exactly on a power-of-two bucket
        // boundary, where the representative value would otherwise be
        // the bucket midpoint.
        for &v in &[
            1u64,
            31,
            32,
            33,
            1023,
            1024,
            1025,
            1 << 20,
            u64::from(u32::MAX),
        ] {
            let mut h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn histogram_p99_ignores_a_one_percent_outlier() {
        // 99 samples of 10, one of 10_000: ceil(0.99 * 100) = 99, so
        // p99 is the 99th sample (10); only quantile(1.0) sees the
        // outlier. This is the bucket-walk boundary the percentile
        // docs promise.
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(10_000);
        assert_eq!(h.p99(), 10);
        // quantile(1.0) lands in the outlier's bucket: within one
        // sub-bucket (6.25%) of 10_000, never above the observed max.
        let top = h.quantile(1.0);
        assert!(top <= 10_000, "top={top}");
        assert!((10_000 - top) as f64 / 10_000.0 < 0.0625, "top={top}");
    }

    #[test]
    fn histogram_quantile_error_bounded_across_bucket_edge() {
        // Samples straddling a power-of-two edge (just below and just
        // above 1024): p50 must stay within one sub-bucket (6.25%) of
        // the true median.
        let mut h = Histogram::new();
        for v in 960..=1088u64 {
            h.record(v);
        }
        let p50 = h.p50();
        let true_median = 1024.0;
        let err = (p50 as f64 - true_median).abs() / true_median;
        assert!(err < 0.0625, "p50={p50} err={err}");
    }

    #[test]
    fn histogram_merge_preserves_quantiles() {
        // Quantiles of a merged histogram equal quantiles of recording
        // the union directly (bucket counts are additive).
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
            all.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v * 7);
            all.record(v * 7);
        }
        a.merge(&b);
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_empty_summary() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn histogram_record_cycles() {
        let mut h = Histogram::new();
        h.record_cycles(Cycles(42));
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn summary_displays() {
        let mut h = Histogram::new();
        h.record(5);
        let s = h.summary().to_string();
        assert!(s.contains("n=1"), "{s}");
    }

    #[test]
    fn index_value_roundtrip_monotonicity() {
        // value_of(index_of(v)) must be <= v and within 6.25% of v.
        for shift in 0..40 {
            for off in [0u64, 1, 3, 7] {
                let v = (1u64 << shift) + off;
                let idx = Histogram::index_of(v);
                let rep = Histogram::value_of(idx);
                assert!(rep <= v, "rep {rep} > v {v}");
                assert!(
                    (v - rep) as f64 <= v as f64 / 16.0,
                    "v={v} rep={rep} error too large"
                );
            }
        }
    }
}
