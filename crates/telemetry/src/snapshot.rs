//! Point-in-time, deterministically ordered copies of the registry.

use crate::json::{JsonError, JsonValue};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Copy of one histogram's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wraps on overflow).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty log2 buckets as `(bucket_index, sample_count)` pairs,
    /// sorted by index. Bucket 0 holds the value 0 and bucket `i ≥ 1`
    /// the values in `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 < q <= 1.0`) from the log2
    /// buckets.
    ///
    /// The rank-`ceil(q·count)` sample's bucket is located by walking
    /// the cumulative bucket counts; within the bucket the value is
    /// linearly interpolated across `[lower, upper)` by rank, then
    /// clamped to the recorded `[min, max]` — so single-valued
    /// distributions report that exact value at every quantile, and no
    /// estimate can leave the observed range. Worst-case error is
    /// otherwise one bucket span (a factor of 2). Returns 0 when the
    /// histogram is empty.
    #[must_use]
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            // The top rank is, by definition, the recorded maximum.
            return self.max;
        }
        let mut seen = 0u64;
        for (index, bucket_count) in &self.buckets {
            if *bucket_count == 0 {
                continue;
            }
            if seen.saturating_add(*bucket_count) >= rank {
                // Out-of-range indexes only come from parsed documents.
                let index = usize::from(*index).min(crate::BUCKETS - 1);
                let lo = crate::registry::bucket_lower_bound(index);
                // Exclusive upper bound; the top bucket is open-ended.
                let hi = if index == 0 {
                    1
                } else if index >= crate::BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << index
                };
                let span = hi - lo;
                let within = rank - seen; // 1-based rank inside bucket
                let offset = (span as f64 * (within - 1) as f64 / *bucket_count as f64) as u64;
                let est = lo.saturating_add(offset);
                // Not `clamp`: a parsed snapshot may carry min > max.
                return est.max(self.min).min(self.max);
            }
            seen = seen.saturating_add(*bucket_count);
        }
        self.max
    }

    /// Median estimate: the rank's log2 bucket, linearly interpolated
    /// and clamped to `[min, max]` (0 when empty).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate, computed as for [`HistogramSnapshot::p50`].
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate, computed as for [`HistogramSnapshot::p50`].
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Copy of one span aggregate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Number of completed spans.
    pub count: u64,
    /// Total time across all spans, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

/// Deterministic snapshot of every registered metric.
///
/// All maps are `BTreeMap`s keyed by metric name, so iteration — and
/// therefore every JSON rendering — is stable across runs and diffs
/// cleanly in CI.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span aggregates by dotted path.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl TelemetrySnapshot {
    /// Snapshot the global registry.
    pub fn capture() -> Self {
        crate::global().snapshot()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Convert to a JSON document model.
    pub fn to_json_value(&self) -> JsonValue {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (Cow::Owned(name.clone()), JsonValue::UInt(*value)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, value)| {
                let json = if *value >= 0 {
                    JsonValue::UInt(*value as u64)
                } else {
                    JsonValue::Int(*value)
                };
                (Cow::Owned(name.clone()), json)
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(index, count)| {
                        JsonValue::Array(vec![
                            JsonValue::UInt(u64::from(*index)),
                            JsonValue::UInt(*count),
                        ])
                    })
                    .collect();
                let obj = JsonValue::object([
                    ("count", JsonValue::UInt(h.count)),
                    ("sum", JsonValue::UInt(h.sum)),
                    ("min", JsonValue::UInt(h.min)),
                    ("max", JsonValue::UInt(h.max)),
                    ("buckets", JsonValue::Array(buckets)),
                ]);
                (Cow::Owned(name.clone()), obj)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(name, s)| {
                let obj = JsonValue::object([
                    ("count", JsonValue::UInt(s.count)),
                    ("total_ns", JsonValue::UInt(s.total_ns)),
                    ("max_ns", JsonValue::UInt(s.max_ns)),
                ]);
                (Cow::Owned(name.clone()), obj)
            })
            .collect();
        JsonValue::object([
            ("counters", JsonValue::Object(counters)),
            ("gauges", JsonValue::Object(gauges)),
            ("histograms", JsonValue::Object(histograms)),
            ("spans", JsonValue::Object(spans)),
        ])
    }

    /// Render as pretty-printed deterministic JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().render_pretty()
    }

    /// Parse a snapshot back from JSON text.
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&JsonValue::parse(text)?)
    }

    /// Decode a snapshot from a parsed JSON document.
    ///
    /// The four sections are each optional (missing means empty);
    /// values of the wrong type are an error.
    pub(crate) fn from_json_value(value: &JsonValue) -> Result<Self, JsonError> {
        if value.as_object().is_none() {
            return Err(JsonError::new("snapshot must be a JSON object"));
        }
        let mut snapshot = TelemetrySnapshot::default();
        if let Some(counters) = value.get("counters") {
            for (name, v) in expect_object(counters, "counters")? {
                let v = v.as_u64().ok_or_else(|| bad_field("counter", name))?;
                snapshot.counters.insert(name.to_string(), v);
            }
        }
        if let Some(gauges) = value.get("gauges") {
            for (name, v) in expect_object(gauges, "gauges")? {
                let v = v.as_i64().ok_or_else(|| bad_field("gauge", name))?;
                snapshot.gauges.insert(name.to_string(), v);
            }
        }
        if let Some(histograms) = value.get("histograms") {
            for (name, v) in expect_object(histograms, "histograms")? {
                snapshot
                    .histograms
                    .insert(name.to_string(), decode_histogram(name, v)?);
            }
        }
        if let Some(spans) = value.get("spans") {
            for (name, v) in expect_object(spans, "spans")? {
                let span = SpanSnapshot {
                    count: field_u64(v, "count").ok_or_else(|| bad_field("span", name))?,
                    total_ns: field_u64(v, "total_ns").ok_or_else(|| bad_field("span", name))?,
                    max_ns: field_u64(v, "max_ns").ok_or_else(|| bad_field("span", name))?,
                };
                snapshot.spans.insert(name.to_string(), span);
            }
        }
        Ok(snapshot)
    }
}

fn expect_object<'a>(
    value: &'a JsonValue,
    section: &str,
) -> Result<&'a [(Cow<'static, str>, JsonValue)], JsonError> {
    value
        .as_object()
        .ok_or_else(|| JsonError::new(format!("snapshot section '{section}' must be an object")))
}

fn bad_field(kind: &str, name: &str) -> JsonError {
    JsonError::new(format!("malformed {kind} entry '{name}'"))
}

fn field_u64(value: &JsonValue, key: &str) -> Option<u64> {
    value.get(key).and_then(JsonValue::as_u64)
}

fn decode_histogram(name: &str, value: &JsonValue) -> Result<HistogramSnapshot, JsonError> {
    let mut buckets = Vec::new();
    for pair in value
        .get("buckets")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad_field("histogram", name))?
    {
        let pair = pair
            .as_array()
            .ok_or_else(|| bad_field("histogram", name))?;
        if pair.len() != 2 {
            return Err(bad_field("histogram", name));
        }
        let index = pair[0]
            .as_u64()
            .and_then(|i| u8::try_from(i).ok())
            .ok_or_else(|| bad_field("histogram", name))?;
        let count = pair[1]
            .as_u64()
            .ok_or_else(|| bad_field("histogram", name))?;
        buckets.push((index, count));
    }
    Ok(HistogramSnapshot {
        count: field_u64(value, "count").ok_or_else(|| bad_field("histogram", name))?,
        sum: field_u64(value, "sum").ok_or_else(|| bad_field("histogram", name))?,
        min: field_u64(value, "min").ok_or_else(|| bad_field("histogram", name))?,
        max: field_u64(value, "max").ok_or_else(|| bad_field("histogram", name))?,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut snapshot = TelemetrySnapshot::default();
        snapshot.counters.insert("dse.cache_hits".to_string(), 42);
        snapshot
            .counters
            .insert("vsa.fft_forward".to_string(), u64::MAX);
        snapshot.gauges.insert("dse.threads".to_string(), -8);
        snapshot.histograms.insert(
            "dse.chunk".to_string(),
            HistogramSnapshot {
                count: 3,
                sum: 12,
                min: 1,
                max: 9,
                buckets: vec![(1, 1), (2, 1), (4, 1)],
            },
        );
        snapshot.spans.insert(
            "dse.explore.phase1".to_string(),
            SpanSnapshot {
                count: 2,
                total_ns: 5_000,
                max_ns: 4_000,
            },
        );
        snapshot
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snapshot = sample();
        assert_eq!(
            TelemetrySnapshot::from_json(&snapshot.to_json()).unwrap(),
            snapshot
        );
        assert_eq!(
            TelemetrySnapshot::from_json(&snapshot.to_json_value().render_compact()).unwrap(),
            snapshot
        );
    }

    #[test]
    fn json_output_is_deterministic() {
        let snapshot = sample();
        assert_eq!(snapshot.to_json(), snapshot.to_json(), "stable bytes");
        // Sections appear in fixed order, metric names sorted.
        let compact = snapshot.to_json_value().render_compact();
        let counters_at = compact.find("\"counters\"").unwrap();
        let gauges_at = compact.find("\"gauges\"").unwrap();
        let histograms_at = compact.find("\"histograms\"").unwrap();
        let spans_at = compact.find("\"spans\"").unwrap();
        assert!(counters_at < gauges_at && gauges_at < histograms_at && histograms_at < spans_at);
        assert!(compact.find("dse.cache_hits").unwrap() < compact.find("vsa.fft_forward").unwrap());
    }

    #[test]
    fn empty_sections_are_optional_on_decode() {
        let decoded = TelemetrySnapshot::from_json("{}").unwrap();
        assert!(decoded.is_empty());
        assert!(TelemetrySnapshot::from_json("[]").is_err());
        assert!(TelemetrySnapshot::from_json(r#"{"counters":{"x":-1}}"#).is_err());
        assert!(TelemetrySnapshot::from_json(r#"{"counters":3}"#).is_err());
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        let snapshot = sample();
        assert_eq!(snapshot.counter("dse.cache_hits"), 42);
        assert_eq!(snapshot.counter("missing"), 0);
    }

    /// Builds the snapshot the registry would produce for `samples`.
    fn hist_of(samples: &[u64]) -> HistogramSnapshot {
        let mut buckets = std::collections::BTreeMap::new();
        for &s in samples {
            *buckets
                .entry(crate::registry::bucket_index(s) as u8)
                .or_insert(0u64) += 1;
        }
        HistogramSnapshot {
            count: samples.len() as u64,
            sum: samples.iter().copied().fold(0u64, u64::wrapping_add),
            min: samples.iter().copied().min().unwrap_or(0),
            max: samples.iter().copied().max().unwrap_or(0),
            buckets: buckets.into_iter().collect(),
        }
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn quantile_of_constant_distribution_is_exact() {
        // All mass in one bucket with min == max: clamping pins every
        // quantile to the exact recorded value.
        let h = hist_of(&[700; 1000]);
        assert_eq!(h.p50(), 700);
        assert_eq!(h.p95(), 700);
        assert_eq!(h.p99(), 700);
        assert_eq!(h.quantile(1.0), 700);
    }

    #[test]
    fn quantile_of_zeroes_is_zero() {
        let h = hist_of(&[0; 17]);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn quantiles_pin_a_bimodal_distribution() {
        // 90 fast samples (value 8, bucket 4) and 10 slow (value 4096,
        // bucket 13): p50 must sit in the fast bucket, p95/p99 in the
        // slow one — bucket resolution bounds the error to one power
        // of two.
        let mut samples = vec![8u64; 90];
        samples.extend(std::iter::repeat_n(4096u64, 10));
        let h = hist_of(&samples);
        assert!(h.p50() >= 8 && h.p50() < 16, "p50 = {}", h.p50());
        assert!(h.p95() >= 4096 && h.p95() <= 8192, "p95 = {}", h.p95());
        assert!(h.p99() >= 4096 && h.p99() <= 8192, "p99 = {}", h.p99());
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }

    #[test]
    fn quantiles_are_monotone_and_range_clamped_on_uniform_data() {
        let samples: Vec<u64> = (1..=1024).collect();
        let h = hist_of(&samples);
        let mut last = 0;
        for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantiles must be monotone");
            assert!((1..=1024).contains(&v), "estimate outside observed range");
            last = v;
        }
        // Log2 buckets: the estimate is within a factor of 2 of truth.
        assert!(h.p50() >= 256 && h.p50() <= 1024, "p50 = {}", h.p50());
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn quantile_handles_top_bucket_without_overflow() {
        let h = hist_of(&[u64::MAX, u64::MAX - 1]);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.p50() >= u64::MAX - 1);
    }

    #[test]
    fn quantile_survives_inconsistent_parsed_snapshots() {
        // Nothing stops a parsed document from carrying min > max, an
        // out-of-range bucket index or counts that overflow when summed.
        let h = HistogramSnapshot {
            count: u64::MAX,
            sum: 0,
            min: 9,
            max: 3,
            buckets: vec![(3, 5), (64, 1 << 60), (200, u64::MAX)],
        };
        // q = 1/16 interpolates to the very top of bucket 64; q = 0.9
        // walks past it into the bogus bucket. `max` bounds every answer.
        for q in [0.01, 0.0625, 0.5, 0.9, 1.0] {
            assert_eq!(h.quantile(q), 3, "q = {q}");
        }
    }
}
