//! Small summary-statistics helpers for experiment post-processing.
//!
//! The experiment runners repeatedly need percentiles, means, and CDF
//! slices over sampled series (execution times, JGR counts, response
//! delays). This module centralises that arithmetic so every figure uses
//! the same definitions.

use serde::Serialize;

/// Summary of a numeric sample set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Minimum value.
    pub min: u64,
    /// Maximum value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub median: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// Collects values and answers percentile/summary queries.
///
/// # Example
///
/// ```
/// use jgre_sim::Samples;
///
/// let mut s = Samples::new();
/// for v in 1..=100u64 {
///     s.record(v);
/// }
/// assert_eq!(s.percentile(50), 50);
/// assert_eq!(s.percentile(100), 100);
/// let summary = s.summary().unwrap();
/// assert_eq!(summary.count, 100);
/// assert_eq!(summary.min, 1);
/// assert!((summary.mean - 50.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates from existing values.
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> Self {
        let mut s = Self::new();
        for v in values {
            s.record(v);
        }
        s
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.values.push(value);
        self.sorted = false;
    }

    /// Number of recorded values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest-rank on the sorted data).
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty or `p > 100`.
    pub fn percentile(&mut self, p: u32) -> u64 {
        assert!(p <= 100, "percentile out of range: {p}");
        assert!(!self.values.is_empty(), "percentile of an empty sample set");
        self.ensure_sorted();
        let idx = (self.values.len() - 1) * p as usize / 100;
        self.values[idx]
    }

    /// Full summary, or `None` when empty.
    pub fn summary(&mut self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let count = self.values.len();
        let sum: u128 = self.values.iter().map(|&v| v as u128).sum();
        Some(Summary {
            count,
            min: self.values[0],
            max: self.values[count - 1],
            mean: sum as f64 / count as f64,
            median: self.values[(count - 1) / 2],
            p90: self.values[(count - 1) * 90 / 100],
            p99: self.values[(count - 1) * 99 / 100],
        })
    }

    /// The empirical CDF as `(value, cumulative probability)` points,
    /// thinned to at most `max_points`.
    pub fn cdf(&mut self, max_points: usize) -> Vec<(u64, f64)> {
        if self.values.is_empty() || max_points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.values.len();
        let stride = n.div_ceil(max_points).max(1);
        let mut points: Vec<(u64, f64)> = (0..n)
            .step_by(stride)
            .map(|i| (self.values[i], (i + 1) as f64 / n as f64))
            .collect();
        // Always include the endpoint so the CDF reaches 1.0.
        if points.last().map(|&(v, _)| v) != Some(self.values[n - 1])
            || points.last().map(|&(_, p)| p) != Some(1.0)
        {
            points.push((self.values[n - 1], 1.0));
        }
        points
    }
}

/// Number of log₂ bins in a [`Histogram`]: bin 0 holds zeros, bin `k`
/// holds values in `[2^(k-1), 2^k)`, bin 64 holds `[2^63, u64::MAX]`.
pub const HISTOGRAM_BINS: usize = 65;

/// A fixed-size, order-independently mergeable histogram.
///
/// Fleet-scale campaigns aggregate millions of sampled durations without
/// materialising them: every value lands in one of [`HISTOGRAM_BINS`]
/// log₂-spaced bins, and two histograms merge by adding bins. Because
/// recording and merging are commutative and associative, the result is
/// byte-identical no matter how the sample stream was sharded across
/// workers — the property the fleet determinism harness relies on.
///
/// # Example
///
/// ```
/// use jgre_sim::Histogram;
///
/// let mut a = Histogram::new();
/// let mut b = Histogram::new();
/// a.record(3);
/// b.record(1_000);
/// let mut merged = a.clone();
/// merged.merge(&b);
/// assert_eq!(merged.count(), 2);
/// assert_eq!(merged.min(), Some(3));
/// assert_eq!(merged.max(), Some(1_000));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Histogram {
    /// Per-bin counts (`bins[0]` = zeros, `bins[k]` = `[2^(k-1), 2^k)`).
    bins: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            bins: vec![0; HISTOGRAM_BINS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bin index `value` falls into.
    pub fn bin_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Inclusive-exclusive value range of bin `index` (the last bin is
    /// clamped at `u64::MAX`).
    ///
    /// # Panics
    ///
    /// Panics when `index >= HISTOGRAM_BINS`.
    pub fn bin_range(index: usize) -> (u64, u64) {
        assert!(index < HISTOGRAM_BINS, "bin {index} out of range");
        match index {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.bins[Self::bin_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`. Merging is commutative
    /// and associative, so shard partials can be folded in any order.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Upper bound of the bin containing the `p`-th percentile
    /// (nearest-rank over bins), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    pub fn percentile_bound(&self, p: u32) -> Option<u64> {
        assert!(p <= 100, "percentile out of range: {p}");
        self.quantile(f64::from(p) / 100.0)
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`).
    ///
    /// Log₂ bins cannot resolve the exact order statistic, so the answer
    /// is the upper edge of the bin holding the nearest-rank sample —
    /// an estimate that never under-reports a latency. The observed
    /// maximum tightens the top populated bin.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` or NaN.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(
            (0.0..=1.0).contains(&q) && !q.is_nan(),
            "quantile out of range: {q}"
        );
        if self.count == 0 {
            return None;
        }
        // Same nearest-rank convention as `Samples::percentile`.
        let rank = ((self.count - 1) as f64 * q) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if n > 0 && seen > rank {
                let (_, hi) = Self::bin_range(i);
                return Some(hi.saturating_sub(1).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Upper-bound estimate of the median (`quantile(0.5)`).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Upper-bound estimate of the 99th percentile (`quantile(0.99)`).
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The populated bins as `(lo, hi_exclusive, count)` rows, for
    /// rendering.
    pub fn populated_bins(&self) -> Vec<(u64, u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                let (lo, hi) = Self::bin_range(i);
                (lo, hi, n)
            })
            .collect()
    }
}

impl Extend<u64> for Samples {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self::from_values(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_set() {
        let mut s: Samples = (1..=10u64).collect();
        let summary = s.summary().unwrap();
        assert_eq!(summary.count, 10);
        assert_eq!(summary.min, 1);
        assert_eq!(summary.max, 10);
        assert_eq!(summary.median, 5);
        assert!((summary.mean - 5.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_order_independent() {
        let mut a = Samples::from_values([5, 1, 9, 3, 7]);
        let mut b = Samples::from_values([9, 7, 5, 3, 1]);
        for p in [0, 25, 50, 75, 100] {
            assert_eq!(a.percentile(p), b.percentile(p));
        }
    }

    #[test]
    fn cdf_reaches_one_and_is_monotone() {
        let mut s: Samples = (0..1000u64).collect();
        let cdf = s.cdf(50);
        assert!(cdf.len() <= 51);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
    }

    #[test]
    fn empty_behaviour() {
        let mut s = Samples::new();
        assert!(s.summary().is_none());
        assert!(s.cdf(10).is_empty());
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_of_empty_panics() {
        Samples::new().percentile(50);
    }

    #[test]
    fn histogram_bins_and_summary() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(Histogram::bin_of(0), 0);
        assert_eq!(Histogram::bin_of(1), 1);
        assert_eq!(Histogram::bin_of(2), 2);
        assert_eq!(Histogram::bin_of(3), 2);
        assert_eq!(Histogram::bin_of(1024), 11);
        assert_eq!(Histogram::bin_of(u64::MAX), 64);
        let rows = h.populated_bins();
        assert_eq!(rows.iter().map(|&(_, _, n)| n).sum::<u64>(), 7);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let values: Vec<u64> = (0..200).map(|i| i * 37 % 4096).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        // Shard the same stream three ways; every fold order must agree.
        for shards in [1usize, 2, 7] {
            let mut partials = vec![Histogram::new(); shards];
            for (i, &v) in values.iter().enumerate() {
                partials[i % shards].record(v);
            }
            let mut forward = Histogram::new();
            for p in &partials {
                forward.merge(p);
            }
            let mut backward = Histogram::new();
            for p in partials.iter().rev() {
                backward.merge(p);
            }
            assert_eq!(forward, whole, "{shards} shards diverged");
            assert_eq!(backward, whole, "{shards} reverse-fold diverged");
        }
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Nearest-rank p50 of 1..=1000 is 500 (bin [256, 512)); p99 is
        // 990 (bin [512, 1024), tightened by the observed max).
        let p50 = h.p50().unwrap();
        assert!((500..512).contains(&p50), "p50 bound {p50}");
        let p99 = h.p99().unwrap();
        assert!((990..=1000).contains(&p99), "p99 bound {p99}");
        // The quantile never under-reports the true order statistic.
        for (q, exact) in [
            (0.0, 1u64),
            (0.25, 250),
            (0.5, 500),
            (0.99, 990),
            (1.0, 1000),
        ] {
            assert!(h.quantile(q).unwrap() >= exact, "q={q}");
        }
        // Accessors agree with the percentile_bound convention.
        assert_eq!(h.p50(), h.percentile_bound(50));
        assert_eq!(h.p99(), h.percentile_bound(99));
        assert_eq!(h.quantile(1.0), Some(1000));
    }

    #[test]
    fn histogram_quantiles_empty_and_single() {
        assert!(Histogram::new().p50().is_none());
        assert!(Histogram::new().p99().is_none());
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.p50(), Some(42));
        assert_eq!(h.p99(), Some(42));
        assert_eq!(h.quantile(0.0), Some(42));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn histogram_quantile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1);
        h.quantile(1.5);
    }

    #[test]
    fn histogram_percentile_bound_brackets_the_value() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile_bound(50).unwrap();
        // Nearest-rank p50 of 1..=1000 is 500; its bin is [256, 512).
        assert!((500..512).contains(&p50), "p50 bound {p50}");
        assert_eq!(h.percentile_bound(100), Some(1000));
        assert!(Histogram::new().percentile_bound(50).is_none());
    }

    #[test]
    fn record_after_query_resorts() {
        let mut s = Samples::from_values([10, 20]);
        assert_eq!(s.percentile(100), 20);
        s.record(5);
        assert_eq!(s.percentile(0), 5);
        assert_eq!(s.len(), 3);
    }
}
