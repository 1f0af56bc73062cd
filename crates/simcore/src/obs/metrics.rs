//! Named metrics: counters, gauges, and log₂-bucketed histograms.
//!
//! Components obtain cheap clonable handles from a shared
//! [`MetricsRegistry`] by dotted name; the registry produces mergeable
//! [`MetricsSnapshot`]s and JSON exports. Naming convention:
//! `"<subsystem>.<quantity>[_<unit>]"` — e.g. `dmamem.wakes`,
//! `dmamem.slack.debit_epoch_ps`, `dmamem.request_service_ns`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use super::json::JsonObject;

/// Number of log₂ histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, and the last bucket tops out at
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter handle.
///
/// Clones share the same underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A point-in-time gauge handle (last written value wins).
///
/// Clones share the same underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Adjusts the value by `delta`.
    pub fn adjust(&self, delta: f64) {
        self.0.set(self.0.get() + delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

#[derive(Debug, Clone)]
struct HistState {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistState {
    fn default() -> Self {
        HistState {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// A streaming histogram handle with fixed log₂ buckets.
///
/// Values are `u64` in whatever unit the metric name declares
/// (picoseconds, nanoseconds, bytes, ...). Clones share state.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Rc<RefCell<HistState>>);

/// Index of the log₂ bucket holding `value`.
///
/// Bucket 0 holds only zero; bucket `i ≥ 1` holds `[2^(i-1), 2^i)`.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1).
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i <= 1 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let mut s = self.0.borrow_mut();
        s.buckets[bucket_index(value)] += 1;
        s.count += 1;
        s.sum = s.sum.saturating_add(value);
        s.min = s.min.min(value);
        s.max = s.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.0.borrow().sum
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let s = self.0.borrow();
        if s.count == 0 {
            0.0
        } else {
            s.sum as f64 / s.count as f64
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let s = self.0.borrow();
        HistogramSnapshot {
            buckets: s.buckets,
            count: s.count,
            sum: s.sum,
            min: if s.count == 0 { 0 } else { s.min },
            max: s.max,
        }
    }
}

/// A frozen view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Approximate quantile (`0.0 ..= 1.0`) from the bucket counts, using
    /// each bucket's lower bound (a conservative estimate).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return bucket_lower_bound(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        obj.field_u64("count", self.count)
            .field_u64("sum", self.sum)
            .field_u64("min", self.min)
            .field_u64("max", self.max)
            .field_f64(
                "mean",
                if self.count == 0 {
                    0.0
                } else {
                    self.sum as f64 / self.count as f64
                },
            )
            .field_u64("p50", self.quantile(0.50))
            .field_u64("p99", self.quantile(0.99));
        // Sparse bucket dump: only non-empty buckets, as [lower_bound, count].
        let mut buckets = String::from("[");
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                if !first {
                    buckets.push(',');
                }
                first = false;
                buckets.push_str(&format!("[{},{}]", bucket_lower_bound(i), c));
            }
        }
        buckets.push(']');
        obj.field_raw("buckets", &buckets);
        obj.finish()
    }
}

// Metric names are `Arc<str>` so a snapshot shares them with the registry
// instead of reallocating every key — snapshots can be taken inside the
// parallel sweep's hot loop without per-key heap traffic (`Arc<str>` also
// keeps [`MetricsSnapshot`] `Send` for cross-thread aggregation, which
// `Rc`-based handles could not).
#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<Arc<str>, Counter>,
    gauges: BTreeMap<Arc<str>, Gauge>,
    histograms: BTreeMap<Arc<str>, Histogram>,
}

/// A registry of named metrics.
///
/// Cloning is cheap and shares the underlying metric set, so a registry
/// can be threaded through subsystems while the caller keeps a handle for
/// the final snapshot.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .borrow_mut()
            .counters
            .entry(Arc::from(name))
            .or_default()
            .clone()
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .borrow_mut()
            .gauges
            .entry(Arc::from(name))
            .or_default()
            .clone()
    }

    /// Gets or creates the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .borrow_mut()
            .histograms
            .entry(Arc::from(name))
            .or_default()
            .clone()
    }

    /// Freezes the current values of every registered metric. Key strings
    /// are shared with the registry (`Arc` bumps), not reallocated.
    ///
    /// Iteration order is part of the contract: every map in the returned
    /// [`MetricsSnapshot`] yields keys in ascending lexicographic order,
    /// independent of registration order. Exporters (JSON dumps, the
    /// Prometheus endpoint, golden-file tests) rely on this for
    /// byte-stable output, so it is pinned by a regression test.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (Arc::clone(k), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (Arc::clone(k), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (Arc::clone(k), v.snapshot()))
                .collect(),
        }
    }
}

/// A frozen, mergeable view of a [`MetricsRegistry`].
///
/// Names are `Arc<str>` shared with the originating registry; lookups
/// still take plain `&str` (`Arc<str>: Borrow<str>`).
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<Arc<str>, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<Arc<str>, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<Arc<str>, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Convenience counter lookup.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Convenience gauge lookup.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Merges `other` into this snapshot: counters and histograms add;
    /// gauges are point-in-time, so `other`'s value wins on collision.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(Arc::clone(k)).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(Arc::clone(k), *v);
        }
        for (k, v) in &other.histograms {
            self.histograms
                .entry(Arc::clone(k))
                .and_modify(|h| h.merge(v))
                .or_insert_with(|| v.clone());
        }
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..}}`.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (k, v) in &self.counters {
            counters.field_u64(k, *v);
        }
        let mut gauges = JsonObject::new();
        for (k, v) in &self.gauges {
            gauges.field_f64(k, *v);
        }
        let mut histograms = JsonObject::new();
        for (k, v) in &self.histograms {
            histograms.field_raw(k, &v.to_json());
        }
        let mut root = JsonObject::new();
        root.field_raw("counters", &counters.finish())
            .field_raw("gauges", &gauges.finish())
            .field_raw("histograms", &histograms.finish());
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.total");
        let b = reg.counter("x.total");
        a.inc();
        b.add(4);
        assert_eq!(reg.snapshot().counter("x.total"), Some(5));
    }

    #[test]
    fn gauge_set_and_adjust() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("x.level");
        g.set(2.5);
        g.adjust(-1.0);
        assert_eq!(reg.snapshot().gauge("x.level"), Some(1.5));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0: zero only. Bucket i >= 1: [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 0);
        assert_eq!(bucket_lower_bound(2), 2);
        assert_eq!(bucket_lower_bound(11), 1024);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(v >= bucket_lower_bound(i), "v={v} i={i}");
            if i < 64 {
                assert!(v < bucket_lower_bound(i + 1).max(1), "v={v} i={i}");
            }
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.lat_ns");
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1015);
        assert!((h.mean() - 203.0).abs() < 1e-9);
        let snap = &reg.snapshot().histograms["x.lat_ns"];
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.quantile(0.0), 1);
        // Bucket-resolution estimate: within the max's bucket.
        let p100 = snap.quantile(1.0);
        assert!((512..=1000).contains(&p100), "p100 {p100}");
        assert!(snap.quantile(0.5) >= 2);
    }

    #[test]
    fn snapshot_merge_semantics() {
        let a = MetricsRegistry::new();
        a.counter("c").add(2);
        a.gauge("g").set(1.0);
        a.histogram("h").record(4);
        let b = MetricsRegistry::new();
        b.counter("c").add(3);
        b.counter("only_b").inc();
        b.gauge("g").set(9.0);
        b.histogram("h").record(5);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c"), Some(5));
        assert_eq!(merged.counter("only_b"), Some(1));
        assert_eq!(merged.gauge("g"), Some(9.0)); // gauges: last wins
        let h = &merged.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 9);
        assert_eq!((h.min, h.max), (4, 5));
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").inc();
        reg.gauge("c").set(0.5);
        reg.histogram("d").record(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""counters":{"a.b":1}"#), "{json}");
        assert!(json.contains(r#""gauges":{"c":0.5}"#), "{json}");
        assert!(json.contains(r#""buckets":[[2,1]]"#), "{json}");
    }

    #[test]
    fn snapshot_iterates_keys_in_sorted_order() {
        // Registration order is deliberately shuffled; the snapshot (and
        // therefore every exporter downstream of it) must still iterate
        // lexicographically. This pins the documented ordering contract.
        let reg = MetricsRegistry::new();
        for name in ["zeta.c", "alpha.c", "mid.c", "alpha.a"] {
            reg.counter(name).inc();
        }
        for name in ["z.g", "a.g"] {
            reg.gauge(name).set(1.0);
        }
        for name in ["z.h", "a.h"] {
            reg.histogram(name).record(1);
        }
        let snap = reg.snapshot();
        let counters: Vec<&str> = snap.counters.keys().map(|k| k.as_ref()).collect();
        assert_eq!(counters, ["alpha.a", "alpha.c", "mid.c", "zeta.c"]);
        let gauges: Vec<&str> = snap.gauges.keys().map(|k| k.as_ref()).collect();
        assert_eq!(gauges, ["a.g", "z.g"]);
        let hists: Vec<&str> = snap.histograms.keys().map(|k| k.as_ref()).collect();
        assert_eq!(hists, ["a.h", "z.h"]);
        // Merging preserves the invariant (BTreeMap insertion re-sorts).
        let other = MetricsRegistry::new();
        other.counter("beta.c").inc();
        let mut merged = snap;
        merged.merge(&other.snapshot());
        let counters: Vec<&str> = merged.counters.keys().map(|k| k.as_ref()).collect();
        assert_eq!(
            counters,
            ["alpha.a", "alpha.c", "beta.c", "mid.c", "zeta.c"]
        );
    }

    #[test]
    fn empty_histogram_snapshot() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("empty");
        let snap = &reg.snapshot().histograms["empty"];
        assert_eq!((snap.count, snap.min, snap.max), (0, 0, 0));
        assert_eq!(snap.quantile(0.5), 0);
    }
}
