//! Thread-safe metrics registry: counters, gauges, log-bucketed
//! histograms and span aggregates.
//!
//! All recording primitives use relaxed atomics — recording is cheap
//! enough for hot loops and never synchronizes with other memory.
//! Handles returned by the registry are `&'static`: metric cells are
//! leaked on first registration so call sites can cache the pointer
//! (see the [`counter!`](crate::counter) macro) and skip the name
//! lookup on every subsequent hit.

use crate::snapshot::{HistogramSnapshot, SpanSnapshot, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::RwLock;

/// Number of histogram buckets: one for zero plus one per power of two
/// up to `2^63` (values `v` land in bucket `64 - v.leading_zeros()`).
pub const BUCKETS: usize = 65;

/// Map a recorded value to its histogram bucket index.
///
/// Bucket `0` holds exactly the value `0`; bucket `i > 0` holds values
/// in `[2^(i-1), 2^i)`; `u64::MAX` lands in bucket `64`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    64 - value.leading_zeros() as usize
}

/// Inclusive lower bound of a bucket produced by [`bucket_index`].
#[inline]
pub(crate) fn bucket_lower_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// The process-wide registry used by the recording macros.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// Monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins signed level (thread counts, queue depths, ...).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Log2-bucketed histogram of `u64` samples.
///
/// `sum` wraps on overflow (relaxed `fetch_add`); with nanosecond
/// samples that takes centuries of recorded time.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    /// New empty histogram.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record every sample of `values`: fold them locally, then
    /// publish with one atomic update per touched cell. The snapshot
    /// equals that of one [`record`](Self::record) call per value.
    pub fn record_all(&self, values: impl IntoIterator<Item = u64>) {
        let (mut count, mut sum, mut min, mut max) = (0u64, 0u64, u64::MAX, 0u64);
        let mut buckets = [0u64; BUCKETS];
        for value in values {
            count += 1;
            sum = sum.wrapping_add(value);
            min = min.min(value);
            max = max.max(value);
            buckets[bucket_index(value)] += 1;
        }
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.min.fetch_min(min, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
        for (cell, n) in self.buckets.iter().zip(buckets) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregated timing for one span name.
#[derive(Debug, Default)]
pub(crate) struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    /// New empty aggregate.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Fold one completed span of `elapsed_ns` into the aggregate.
    #[inline]
    pub fn record(&self, elapsed_ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(elapsed_ns, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Named collection of metrics.
///
/// Metric cells are leaked on first registration so lookups hand out
/// `&'static` handles; a registry therefore never frees its cells
/// (bounded by the number of distinct metric names, which is small
/// and fixed per binary).
#[derive(Debug)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    gauges: RwLock<BTreeMap<String, &'static Gauge>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
    spans: RwLock<BTreeMap<String, &'static SpanStat>>,
}

fn lookup<T: 'static>(
    map: &RwLock<BTreeMap<String, &'static T>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> &'static T {
    if let Some(&existing) = map.read().expect("telemetry lock").get(name) {
        return existing;
    }
    let mut guard = map.write().expect("telemetry lock");
    guard
        .entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(make())))
}

impl Registry {
    /// New empty registry.
    pub const fn new() -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
        }
    }

    /// Counter handle for `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        lookup(&self.counters, name, Counter::new)
    }

    /// Gauge handle for `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        lookup(&self.gauges, name, Gauge::new)
    }

    /// Histogram handle for `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        lookup(&self.histograms, name, Histogram::new)
    }

    /// Span aggregate handle for `name`, registering it on first use.
    pub(crate) fn span_stat(&self, name: &str) -> &'static SpanStat {
        lookup(&self.spans, name, SpanStat::new)
    }

    /// Zero every registered metric (names stay registered).
    pub fn reset(&self) {
        for counter in self.counters.read().expect("telemetry lock").values() {
            counter.reset();
        }
        for gauge in self.gauges.read().expect("telemetry lock").values() {
            gauge.reset();
        }
        for histogram in self.histograms.read().expect("telemetry lock").values() {
            histogram.reset();
        }
        for span in self.spans.read().expect("telemetry lock").values() {
            span.reset();
        }
    }

    /// Consistent point-in-time copy of every registered metric,
    /// deterministically ordered by name.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(name, g)| (name.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            spans: self
                .spans
                .read()
                .expect("telemetry lock")
                .iter()
                .map(|(name, s)| (name.clone(), s.snapshot()))
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1 << 63), 64);
        assert_eq!(bucket_index((1 << 63) - 1), 63);
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_lower_bound(0), 0);
        assert_eq!(bucket_lower_bound(1), 1);
        assert_eq!(bucket_lower_bound(64), 1 << 63);
        for i in 1..BUCKETS {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(lo - 1), i - 1);
        }
    }

    #[test]
    fn histogram_records_edges() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.sum, 1u64.wrapping_add(u64::MAX)); // sum wraps on overflow.
        assert_eq!(snap.buckets, vec![(0, 1), (1, 1), (64, 1)]);
    }

    #[test]
    fn record_all_matches_per_value_records() {
        let values = [7u64, 0, 1, 1, 300, u64::MAX, 64, 63, 1 << 40, 7];
        let one_by_one = Histogram::new();
        for &v in &values {
            one_by_one.record(v);
        }
        let batched = Histogram::new();
        batched.record_all(values[..4].iter().copied());
        batched.record_all(std::iter::empty());
        batched.record_all(values[4..].iter().copied());
        assert_eq!(batched.snapshot(), one_by_one.snapshot());
        let untouched = Histogram::new();
        untouched.record_all(std::iter::empty());
        assert_eq!(untouched.snapshot(), Histogram::new().snapshot());
    }

    #[test]
    fn empty_histogram_snapshot_has_zero_min() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn registry_registers_resets_and_snapshots() {
        let registry = Registry::new();
        registry.counter("a.hits").add(3);
        registry.counter("a.hits").incr();
        registry.gauge("a.level").set(-2);
        registry.histogram("a.lat").record(5);
        registry.span_stat("a.span").record(1_000);

        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("a.hits"), Some(&4));
        assert_eq!(snap.gauges.get("a.level"), Some(&-2));
        assert_eq!(snap.histograms.get("a.lat").unwrap().count, 1);
        assert_eq!(snap.spans.get("a.span").unwrap().total_ns, 1_000);

        registry.reset();
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("a.hits"), Some(&0));
        assert_eq!(snap.gauges.get("a.level"), Some(&0));
        assert_eq!(snap.histograms.get("a.lat").unwrap().count, 0);
        assert_eq!(snap.spans.get("a.span").unwrap().count, 0);
    }
}
