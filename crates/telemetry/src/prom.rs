//! Prometheus text-exposition rendering of a [`TelemetrySnapshot`] —
//! and a strict parser for the same format, so the exporter's output
//! round-trips losslessly back into a snapshot.
//!
//! The exposition follows the Prometheus text format (version 0.0.4):
//! `# TYPE` comments, `name{labels} value` samples, newline-terminated.
//! Metric names are mangled (`serve.latency_us` →
//! `nsflow_serve_latency_us`); because that mangling is not invertible
//! in general, each family is preceded by an `# nsflow <kind> "<name>"`
//! comment carrying the original dotted name, which the parser uses to
//! reconstruct the snapshot exactly.
//!
//! Per metric kind:
//!
//! - **counters** render as a Prometheus `counter` with one sample;
//! - **gauges** as a `gauge` (negative values allowed);
//! - **histograms** as a `summary` — `{quantile="0.5|0.95|0.99"}`
//!   estimates interpolated within the log2 buckets and clamped to
//!   the recorded `[min, max]`, `_sum`, `_count`, plus
//!   non-standard `_min`, `_max` and raw `_bucket{bucket="<log2
//!   index>"}` series that keep the exposition lossless;
//! - **spans** as three gauges: `_count`, `_total_ns`, `_max_ns`.

use std::fmt::{self, Write as _};

use crate::snapshot::{HistogramSnapshot, SpanSnapshot, TelemetrySnapshot};

/// Mangles a dotted metric name into a legal Prometheus metric name.
///
/// Every character outside `[a-zA-Z0-9_]` becomes `_`, and the result
/// is prefixed with `nsflow_` (spans with `nsflow_span_`).
#[must_use]
pub(crate) fn mangle(name: &str, prefix: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len());
    out.push_str(prefix);
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot in Prometheus text-exposition format.
///
/// The output is deterministic (snapshot maps are ordered) and accepted
/// by [`parse`] with full fidelity: `parse(&render(s)) == Ok(s)`.
#[must_use]
pub fn render(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let m = mangle(name, "nsflow_");
        let _ = writeln!(out, "# nsflow counter \"{name}\"");
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let m = mangle(name, "nsflow_");
        let _ = writeln!(out, "# nsflow gauge \"{name}\"");
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let m = mangle(name, "nsflow_");
        let _ = writeln!(out, "# nsflow histogram \"{name}\"");
        let _ = writeln!(out, "# TYPE {m} summary");
        for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ = writeln!(out, "{m}{{quantile=\"{label}\"}} {}", h.quantile(q));
        }
        let _ = writeln!(out, "{m}_sum {}", h.sum);
        let _ = writeln!(out, "{m}_count {}", h.count);
        let _ = writeln!(out, "{m}_min {}", h.min);
        let _ = writeln!(out, "{m}_max {}", h.max);
        for (index, count) in &h.buckets {
            let _ = writeln!(out, "{m}_bucket{{bucket=\"{index}\"}} {count}");
        }
    }
    for (name, s) in &snapshot.spans {
        let m = mangle(name, "nsflow_span_");
        let _ = writeln!(out, "# nsflow span \"{name}\"");
        let _ = writeln!(out, "# TYPE {m}_count counter");
        let _ = writeln!(out, "{m}_count {}", s.count);
        let _ = writeln!(out, "# TYPE {m}_total_ns counter");
        let _ = writeln!(out, "{m}_total_ns {}", s.total_ns);
        let _ = writeln!(out, "# TYPE {m}_max_ns gauge");
        let _ = writeln!(out, "{m}_max_ns {}", s.max_ns);
    }
    out
}

/// Error produced by [`parse`]: the first malformed line or incomplete
/// family. It displays as `line N: message`, with `N` 1-based; an
/// incomplete family is reported on the line that follows it (the next
/// family comment, or one past the last line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromError {
    line: usize,
    message: String,
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for PromError {}

/// The family the parser is currently accumulating samples for.
enum Family {
    Counter(String),
    Gauge(String),
    Histogram(String, HistogramParts),
    Span(String, SpanParts),
}

#[derive(Default)]
struct HistogramParts {
    count: Option<u64>,
    sum: Option<u64>,
    min: Option<u64>,
    max: Option<u64>,
    buckets: Vec<(u8, u64)>,
}

#[derive(Default)]
struct SpanParts {
    count: Option<u64>,
    total_ns: Option<u64>,
    max_ns: Option<u64>,
}

/// Parses text produced by [`render`] back into a snapshot.
///
/// Strict about structure: every sample line must belong to the family
/// declared by the preceding `# nsflow <kind> "<name>"` comment, every
/// multi-part family (histograms, spans) must be complete, and unknown
/// lines are errors. Quantile samples are recomputable so they are
/// validated for shape but not stored.
///
/// # Errors
///
/// A [`PromError`] naming the first malformed line or incomplete family
/// and its line number.
pub fn parse(text: &str) -> Result<TelemetrySnapshot, PromError> {
    let mut snapshot = TelemetrySnapshot::default();
    let mut family: Option<Family> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| PromError {
            line: lineno + 1,
            message: format!("{msg}: {line}"),
        };
        if let Some(rest) = line.strip_prefix("# nsflow ") {
            commit(&mut snapshot, family.take(), lineno)?;
            let (kind, name) = rest
                .split_once(' ')
                .ok_or_else(|| err("malformed family comment"))?;
            let name = name
                .strip_prefix('"')
                .and_then(|n| n.strip_suffix('"'))
                .ok_or_else(|| err("family name must be quoted"))?
                .to_string();
            family = Some(match kind {
                "counter" => Family::Counter(name),
                "gauge" => Family::Gauge(name),
                "histogram" => Family::Histogram(name, HistogramParts::default()),
                "span" => Family::Span(name, SpanParts::default()),
                _ => return Err(err("unknown family kind")),
            });
            continue;
        }
        if line.starts_with("# TYPE ") || line.starts_with("# HELP ") {
            continue;
        }
        if line.starts_with('#') {
            return Err(err("unexpected comment"));
        }
        let (sample, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample line needs a value"))?;
        let current = family.as_mut().ok_or_else(|| err("sample before family"))?;
        match current {
            Family::Counter(name) => {
                let v: u64 = value.parse().map_err(|_| err("bad counter value"))?;
                snapshot.counters.insert(name.clone(), v);
            }
            Family::Gauge(name) => {
                let v: i64 = value.parse().map_err(|_| err("bad gauge value"))?;
                snapshot.gauges.insert(name.clone(), v);
            }
            Family::Histogram(_, parts) => {
                let v: u64 = value.parse().map_err(|_| err("bad histogram value"))?;
                if let Some((_, label)) = sample.split_once('{') {
                    if label.starts_with("quantile=") {
                        // Derived estimate; recomputed from buckets.
                    } else if let Some(index) = label
                        .strip_prefix("bucket=\"")
                        .and_then(|l| l.strip_suffix("\"}"))
                    {
                        let index: u8 = index.parse().map_err(|_| err("bad bucket index"))?;
                        parts.buckets.push((index, v));
                    } else {
                        return Err(err("unknown histogram label"));
                    }
                } else if sample.ends_with("_sum") {
                    parts.sum = Some(v);
                } else if sample.ends_with("_count") {
                    parts.count = Some(v);
                } else if sample.ends_with("_min") {
                    parts.min = Some(v);
                } else if sample.ends_with("_max") {
                    parts.max = Some(v);
                } else {
                    return Err(err("unknown histogram sample"));
                }
            }
            Family::Span(_, parts) => {
                let v: u64 = value.parse().map_err(|_| err("bad span value"))?;
                if sample.ends_with("_total_ns") {
                    parts.total_ns = Some(v);
                } else if sample.ends_with("_max_ns") {
                    parts.max_ns = Some(v);
                } else if sample.ends_with("_count") {
                    parts.count = Some(v);
                } else {
                    return Err(err("unknown span sample"));
                }
            }
        }
    }
    commit(&mut snapshot, family.take(), text.lines().count())?;
    Ok(snapshot)
}

/// Finalizes a multi-part family when the next family begins (or EOF).
fn commit(
    snapshot: &mut TelemetrySnapshot,
    family: Option<Family>,
    lineno: usize,
) -> Result<(), PromError> {
    match family {
        Some(Family::Histogram(name, parts)) => {
            let complete = |field: Option<u64>, what: &str| {
                field.ok_or_else(|| PromError {
                    line: lineno + 1,
                    message: format!("histogram \"{name}\" missing {what}"),
                })
            };
            let h = HistogramSnapshot {
                count: complete(parts.count, "_count")?,
                sum: complete(parts.sum, "_sum")?,
                min: complete(parts.min, "_min")?,
                max: complete(parts.max, "_max")?,
                buckets: parts.buckets,
            };
            snapshot.histograms.insert(name, h);
        }
        Some(Family::Span(name, parts)) => {
            let complete = |field: Option<u64>, what: &str| {
                field.ok_or_else(|| PromError {
                    line: lineno + 1,
                    message: format!("span \"{name}\" missing {what}"),
                })
            };
            let s = SpanSnapshot {
                count: complete(parts.count, "_count")?,
                total_ns: complete(parts.total_ns, "_total_ns")?,
                max_ns: complete(parts.max_ns, "_max_ns")?,
            };
            snapshot.spans.insert(name, s);
        }
        _ => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        s.counters.insert("serve.completed".into(), 48);
        s.counters.insert("serve.shed.queue_full".into(), 3);
        s.gauges.insert("serve.queue_depth".into(), 0);
        s.gauges.insert("dse.balance".into(), -12);
        s.histograms.insert(
            "serve.latency_us".into(),
            HistogramSnapshot {
                count: 48,
                sum: 96_000,
                min: 500,
                max: 9_000,
                buckets: vec![(10, 30), (13, 17), (14, 1)],
            },
        );
        s.spans.insert(
            "serve.worker".into(),
            SpanSnapshot {
                count: 4,
                total_ns: 1_000_000,
                max_ns: 400_000,
            },
        );
        s
    }

    #[test]
    fn render_parse_round_trip_is_lossless() {
        let snapshot = sample();
        let text = render(&snapshot);
        assert_eq!(parse(&text), Ok(snapshot));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let empty = TelemetrySnapshot::default();
        assert_eq!(render(&empty), "");
        assert_eq!(parse(""), Ok(empty));
    }

    #[test]
    fn render_is_deterministic_and_well_formed() {
        let text = render(&sample());
        assert_eq!(text, render(&sample()));
        assert!(text.ends_with('\n'));
        assert!(text.contains("# TYPE nsflow_serve_completed counter"));
        assert!(text.contains("nsflow_serve_completed 48"));
        assert!(text.contains("nsflow_dse_balance -12"));
        assert!(text.contains("# TYPE nsflow_serve_latency_us summary"));
        assert!(text.contains("nsflow_serve_latency_us{quantile=\"0.99\"}"));
        assert!(text.contains("nsflow_serve_latency_us_bucket{bucket=\"13\"} 17"));
        assert!(text.contains("nsflow_span_serve_worker_total_ns 1000000"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample shape");
            assert!(!name.is_empty());
            assert!(value.parse::<i64>().is_ok() || value.parse::<u64>().is_ok());
        }
    }

    #[test]
    fn mangling_prefixes_and_sanitizes() {
        assert_eq!(
            mangle("serve.latency_us", "nsflow_"),
            "nsflow_serve_latency_us"
        );
        assert_eq!(mangle("a-b c", "nsflow_"), "nsflow_a_b_c");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse("nsflow_orphan 1\n").is_err(), "sample before family");
        assert!(parse("# nsflow widget \"x\"\n").is_err(), "unknown kind");
        assert!(parse("# nsflow counter x\n").is_err(), "unquoted name");
        assert!(
            parse("# nsflow counter \"x\"\nnsflow_x notanumber\n").is_err(),
            "bad value"
        );
        assert!(
            parse("# nsflow histogram \"h\"\nnsflow_h_sum 1\n").is_err(),
            "incomplete histogram"
        );
        assert!(
            parse("# nsflow span \"s\"\nnsflow_span_s_count 1\n").is_err(),
            "incomplete span"
        );
        assert!(parse("## weird\n").is_err(), "unexpected comment");
    }

    #[test]
    fn errors_name_their_line() {
        let err = parse("# nsflow counter \"x\"\nnsflow_x 1\nnsflow_x notanumber\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: bad counter value: nsflow_x notanumber"
        );
        // An incomplete family is reported where the next one begins.
        let err = parse("# nsflow span \"s\"\nnsflow_span_s_count 1\n# nsflow counter \"x\"\n")
            .unwrap_err();
        assert_eq!(err.to_string(), "line 3: span \"s\" missing _total_ns");
    }

    #[test]
    fn parse_tolerates_help_and_blank_lines() {
        let text = "\n# HELP nsflow_x something\n# nsflow counter \"x\"\n# TYPE nsflow_x counter\nnsflow_x 9\n\n";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.counter("x"), 9);
    }

    #[test]
    fn capture_round_trips_through_exposition() {
        crate::counter!("prom_test.hits").add(5);
        crate::gauge!("prom_test.depth").set(-3);
        crate::histogram!("prom_test.lat").record(700);
        let snapshot = TelemetrySnapshot::capture();
        let parsed = parse(&render(&snapshot)).expect("own output parses");
        assert_eq!(parsed, snapshot, "full-fidelity round trip");
    }
}
