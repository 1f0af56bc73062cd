//! Online statistics for energy and response-time accounting.

use std::fmt;

use crate::SimDuration;

/// Numerically stable online mean / variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use simcore::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records `rounds` back-to-back passes over `xs`, bit for bit as
    /// recording each value in turn would. The mean and m2 take every
    /// value in order; min and max, which a repeated value cannot move
    /// again, take each value once.
    pub fn record_rounds(&mut self, xs: &[f64], rounds: u64) {
        if rounds == 0 {
            return;
        }
        let (mut mean, mut m2) = (self.mean, self.m2);
        // Counts stay far below 2^53, where `count as f64` is exact, so a
        // float counter takes the same values.
        let mut count = self.count as f64;
        for _ in 0..rounds {
            for &x in xs {
                count += 1.0;
                let delta = x - mean;
                mean += delta / count;
                m2 += delta * (x - mean);
            }
        }
        (self.mean, self.m2) = (mean, m2);
        self.count += xs.len() as u64 * rounds;
        for &x in xs {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation; 0 when empty.
    pub fn stddev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4}",
            self.count,
            self.mean(),
            self.stddev()
        )
    }
}

/// Accumulates [`SimDuration`] observations (thin wrapper over
/// [`OnlineStats`] in nanoseconds).
///
/// # Example
///
/// ```
/// use simcore::stats::DurationStats;
/// use simcore::SimDuration;
///
/// let mut s = DurationStats::new();
/// s.record(SimDuration::from_ns(10));
/// s.record(SimDuration::from_ns(20));
/// assert_eq!(s.mean(), SimDuration::from_ns(15));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DurationStats {
    inner: OnlineStats,
}

impl DurationStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        DurationStats {
            inner: OnlineStats::new(),
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.inner.record(d.as_ns_f64());
    }

    /// Records `rounds` back-to-back passes over durations given in
    /// nanoseconds (as [`SimDuration::as_ns_f64`] converts them); see
    /// [`OnlineStats::record_rounds`].
    pub fn record_rounds_ns(&mut self, ns: &[f64], rounds: u64) {
        self.inner.record_rounds(ns, rounds);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Mean duration (rounded to a picosecond).
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_ps((self.inner.mean() * 1e3).round() as u64)
    }

    /// Mean in nanoseconds as a float.
    pub fn mean_ns(&self) -> f64 {
        self.inner.mean()
    }

    /// Largest observation.
    pub fn max(&self) -> Option<SimDuration> {
        self.inner
            .max()
            .map(|ns| SimDuration::from_ps((ns * 1e3).round() as u64))
    }

    /// Access to the raw accumulator (nanosecond units).
    pub fn raw(&self) -> &OnlineStats {
        &self.inner
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
///
/// # Example
///
/// ```
/// use simcore::stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 10);
/// h.record(0.5);
/// h.record(9.5);
/// h.record(42.0); // overflow
/// assert_eq!(h.bucket_count(0), 1);
/// assert_eq!(h.bucket_count(9), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `n` equal buckets.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(n > 0, "zero buckets");
        assert!(lo < hi, "empty range");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Approximate quantile (0..=1) using linear interpolation inside the
    /// containing bucket. Returns `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.buckets.len() as f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if seen + c >= target {
                let inside = (target - seen) as f64 / c.max(1) as f64;
                return Some(self.lo + w * (i as f64 + inside));
            }
            seen += c;
        }
        Some(self.hi)
    }
}

/// An exact-quantile reservoir that keeps every sample (the experiments in
/// this workspace record at most a few million response times; exactness is
/// worth the memory).
///
/// # Example
///
/// ```
/// use simcore::stats::SampleSet;
///
/// let mut s = SampleSet::new();
/// for x in 1..=100 {
///     s.record(x as f64);
/// }
/// assert_eq!(s.quantile(0.5), Some(50.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Exact empirical quantile (nearest-rank); `None` when empty.
    ///
    /// A stray NaN sample must not abort a multi-hour sweep, so ordering
    /// uses [`f64::total_cmp`] (NaNs sort after every number and surface
    /// in the top quantiles instead of panicking).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_mean_variance() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.population_variance() - 1.25).abs() < 1e-12);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn duration_stats_mean() {
        let mut s = DurationStats::new();
        s.record(SimDuration::from_ns(10));
        s.record(SimDuration::from_ns(30));
        assert_eq!(s.mean(), SimDuration::from_ns(20));
        assert_eq!(s.max(), Some(SimDuration::from_ns(30)));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for x in 0..100 {
            h.record(x as f64);
        }
        for i in 0..10 {
            assert_eq!(h.bucket_count(i), 10);
        }
        h.record(-1.0);
        h.record(100.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 102);
    }

    #[test]
    fn histogram_quantile_approx() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for x in 0..1000 {
            h.record((x % 100) as f64);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((median - 50.0).abs() < 2.0, "median {median}");
        assert!(Histogram::new(0.0, 1.0, 1).quantile(0.5).is_none());
    }

    #[test]
    fn sampleset_exact_quantiles() {
        let mut s = SampleSet::new();
        for x in (1..=1000).rev() {
            s.record(x as f64);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(1000.0));
        assert_eq!(s.quantile(0.9), Some(900.0));
        assert_eq!(s.mean(), Some(500.5));
    }

    #[test]
    fn sampleset_interleaved_record_quantile() {
        let mut s = SampleSet::new();
        s.record(5.0);
        assert_eq!(s.quantile(0.5), Some(5.0));
        s.record(1.0);
        assert_eq!(s.quantile(0.0), Some(1.0));
    }

    #[test]
    fn sampleset_tolerates_nan_samples() {
        // A stray NaN must not panic the sort; it sorts last (total order)
        // and the finite quantiles stay exact.
        let mut s = SampleSet::new();
        for x in [3.0, f64::NAN, 1.0, 2.0] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(0.5), Some(2.0));
        assert!(s.quantile(1.0).unwrap().is_nan());
    }
}
