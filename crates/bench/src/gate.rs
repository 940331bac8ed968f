//! Performance-regression gate over `BENCH_*.json` artifacts.
//!
//! The bench binaries write each measured number as a declared metric,
//! `{"value", "unit", "better", "bound"}` (built by [`crate::metric`]).
//! CI commits known-good copies under `baselines/`; the `bench_gate`
//! binary compares fresh output against them through this module.
//!
//! # Comparison rules
//!
//! Documents are matched structurally: objects by key, arrays by index.
//! A declared metric is an object that carries `better`. It is judged
//! by the baseline's declaration:
//!
//! - `higher` fails when `current < baseline · (1 − bound)`;
//! - `lower` fails when `current > baseline · (1 + bound)`;
//! - `exact` fails on any difference (point counts, simulated cycles,
//!   every simlab serving figure);
//! - a `null` bound is informational (host-dependent wall times).
//!
//! If the current run declares a different `unit`, `better` or `bound`,
//! the row fails: the baseline must be regenerated. A declaration is
//! read from a file, so a malformed one (unknown `better`, negative or
//! non-finite `bound`, missing `value`) fails with a row naming its path
//! rather than panicking.
//!
//! Every undeclared leaf is a label (`bench`, `quick`, `threads`, a
//! workload name). Equal labels are informational; a differing label
//! warns. Three structural rules complete the set:
//!
//! - under `telemetry`, every counter nonzero in the baseline must stay
//!   nonzero (a zero means an instrumented path silently stopped
//!   running); the other telemetry leaves (gauges, histograms, spans)
//!   are informational;
//! - a field of the baseline missing from the current run fails;
//! - arrays of different length warn (outside telemetry), and their
//!   common prefix is compared.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use nsflow_telemetry::JsonValue;

use crate::Better;

/// Verdict for one compared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within its declared bound (or improved).
    Pass,
    /// Recorded for the delta table but never gating (e.g. `wall_s`).
    Info,
    /// Suspicious but not gating (a differing label, an array length).
    Warn,
    /// Regression — the gate exits non-zero.
    Fail,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "ok",
            Verdict::Info => "info",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        }
    }
}

/// One row of the delta table: a single compared field.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Dotted path of the field inside the document, prefixed with the
    /// artifact name (e.g. `BENCH_dse.json.runs[0].cached.speedup`).
    pub path: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// Relative change in percent where both sides are numeric
    /// (`(current − baseline) / baseline`), else `None`.
    pub change_pct: Option<f64>,
    /// The verdict for this field.
    pub verdict: Verdict,
    /// Human-readable reason for non-`Pass` verdicts.
    pub note: String,
}

/// Result of comparing one or more artifacts.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// All compared fields, in document order.
    pub rows: Vec<Delta>,
}

impl GateReport {
    /// Number of failing rows.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.rows
            .iter()
            .filter(|d| d.verdict == Verdict::Fail)
            .count()
    }

    /// Number of warning rows.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.rows
            .iter()
            .filter(|d| d.verdict == Verdict::Warn)
            .count()
    }

    /// Whether the gate passes (no failures).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// Renders the report as an aligned, human-readable delta table.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut path_w = "field".len();
        let mut base_w = "baseline".len();
        let mut cur_w = "current".len();
        for d in &self.rows {
            path_w = path_w.max(d.path.len());
            base_w = base_w.max(d.baseline.len());
            cur_w = cur_w.max(d.current.len());
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<path_w$}  {:>base_w$}  {:>cur_w$}  {:>8}  {:<4}  note",
            "field", "baseline", "current", "delta", "verdict"
        );
        for d in &self.rows {
            let delta = d
                .change_pct
                .map_or_else(|| "-".to_string(), |p| format!("{p:+.1}%"));
            let _ = writeln!(
                out,
                "{:<path_w$}  {:>base_w$}  {:>cur_w$}  {:>8}  {:<4}  {}",
                d.path,
                d.baseline,
                d.current,
                delta,
                d.verdict.label(),
                d.note
            );
        }
        let _ = writeln!(
            out,
            "\n{} field(s) compared, {} warning(s), {} failure(s)",
            self.rows.len(),
            self.warnings(),
            self.failures()
        );
        out
    }
}

/// Renders a value for the delta table. Arrays and objects (histogram
/// buckets, an `exact` histogram) are summarised by their size, so one
/// long value cannot widen every row of the table.
fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Float(f) => format!("{f:.3}"),
        JsonValue::Array(items) => format!("[{} items]", items.len()),
        JsonValue::Object(fields) => format!("{{{} fields}}", fields.len()),
        other => other.render_compact(),
    }
}

fn change_pct(baseline: &JsonValue, current: &JsonValue) -> Option<f64> {
    let (b, c) = (baseline.as_f64()?, current.as_f64()?);
    if b == 0.0 {
        None
    } else {
        Some((c - b) / b * 100.0)
    }
}

/// Compares two parsed benchmark documents and returns the delta rows.
///
/// `name` prefixes every row's path (normally the artifact filename).
#[must_use]
pub fn compare_documents(name: &str, baseline: &JsonValue, current: &JsonValue) -> Vec<Delta> {
    let mut rows = Vec::new();
    walk(name, baseline, current, Scope::Labels, &mut rows);
    rows
}

/// How the undeclared leaves of a subtree are judged.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scope {
    Labels,
    Telemetry,
    Counters,
}

fn push(rows: &mut Vec<Delta>, path: &str, b: &JsonValue, c: &JsonValue, v: Verdict, note: &str) {
    rows.push(Delta {
        path: path.to_string(),
        baseline: render_value(b),
        current: render_value(c),
        change_pct: change_pct(b, c),
        verdict: v,
        note: note.to_string(),
    });
}

fn is_declared(v: &JsonValue) -> bool {
    v.get("better").is_some()
}

fn walk(
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    scope: Scope,
    rows: &mut Vec<Delta>,
) {
    if is_declared(baseline) || is_declared(current) {
        judge(path, baseline, current, rows);
        return;
    }
    match (baseline, current) {
        (JsonValue::Object(b_fields), JsonValue::Object(_)) => {
            for (key, b_val) in b_fields {
                let child = format!("{path}.{key}");
                let scope = match (scope, key.as_ref()) {
                    (Scope::Labels, "telemetry") => Scope::Telemetry,
                    (Scope::Telemetry, "counters") => Scope::Counters,
                    _ => scope,
                };
                match current.get(key) {
                    Some(c_val) => walk(&child, b_val, c_val, scope, rows),
                    None => push(
                        rows,
                        &child,
                        b_val,
                        &JsonValue::Null,
                        Verdict::Fail,
                        "field missing from current run",
                    ),
                }
            }
        }
        (JsonValue::Array(b_items), JsonValue::Array(c_items)) => {
            if b_items.len() != c_items.len() {
                // Histogram bucket lists vary run to run.
                let verdict = if scope == Scope::Telemetry {
                    Verdict::Info
                } else {
                    Verdict::Warn
                };
                let note = "array length differs; comparing the common prefix";
                push(rows, path, baseline, current, verdict, note);
            }
            for (i, (b, c)) in b_items.iter().zip(c_items).enumerate() {
                walk(&format!("{path}[{i}]"), b, c, scope, rows);
            }
        }
        _ => leaf(path, baseline, current, scope, rows),
    }
}

fn leaf(
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    scope: Scope,
    rows: &mut Vec<Delta>,
) {
    let (verdict, note) = match scope {
        Scope::Counters => {
            let silent = baseline.as_u64().unwrap_or(0) > 0 && current.as_u64().unwrap_or(0) == 0;
            if silent {
                (
                    Verdict::Fail,
                    "counter went silent (instrumented path no longer runs)",
                )
            } else {
                (Verdict::Pass, "")
            }
        }
        Scope::Telemetry => (Verdict::Info, ""),
        Scope::Labels if baseline == current => (Verdict::Info, ""),
        Scope::Labels => (Verdict::Warn, "label differs from the baseline"),
    };
    push(rows, path, baseline, current, verdict, note);
}

/// One side's metric declaration, validated.
struct Declaration<'a> {
    value: &'a JsonValue,
    unit: &'a str,
    better: Better,
    bound: Option<f64>,
}

impl<'a> Declaration<'a> {
    fn read(v: &'a JsonValue) -> Result<Self, String> {
        let value = v.get("value").ok_or("no `value`")?;
        let unit = v
            .get("unit")
            .and_then(JsonValue::as_str)
            .ok_or("no string `unit`")?;
        let better = v.get("better").unwrap_or(&JsonValue::Null);
        let better = better
            .as_str()
            .and_then(Better::parse)
            .ok_or_else(|| format!("unknown `better` {}", better.render_compact()))?;
        let bound = match v.get("bound").ok_or("no `bound`")? {
            JsonValue::Null => None,
            b => match b.as_f64() {
                Some(x) if x.is_finite() && x >= 0.0 => Some(x),
                _ => {
                    return Err(format!(
                        "`bound` {} is not a finite number ≥ 0",
                        b.render_compact()
                    ))
                }
            },
        };
        Ok(Declaration {
            value,
            unit,
            better,
            bound,
        })
    }
}

/// Judges one declared metric by the baseline's declaration.
fn judge(path: &str, baseline: &JsonValue, current: &JsonValue, rows: &mut Vec<Delta>) {
    let (b, c) = match (Declaration::read(baseline), Declaration::read(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) => {
            let note = format!("invalid baseline declaration: {e}");
            return push(rows, path, baseline, current, Verdict::Fail, &note);
        }
        (_, Err(e)) => {
            let note = format!("invalid current declaration: {e}");
            return push(rows, path, baseline, current, Verdict::Fail, &note);
        }
    };
    let (verdict, note) = if (b.unit, b.better, b.bound) != (c.unit, c.better, c.bound) {
        (
            Verdict::Fail,
            "declaration changed; regenerate the baseline".to_string(),
        )
    } else if let Some(bound) = b.bound {
        judge_value(b.value, c.value, b.better, bound)
    } else {
        (Verdict::Info, String::new())
    };
    push(rows, path, b.value, c.value, verdict, &note);
}

fn judge_value(b: &JsonValue, c: &JsonValue, better: Better, bound: f64) -> (Verdict, String) {
    let pass = (Verdict::Pass, String::new());
    if better == Better::Exact {
        return if b == c {
            pass
        } else {
            (Verdict::Fail, "deterministic value changed".to_string())
        };
    }
    let (Some(b), Some(c)) = (b.as_f64(), c.as_f64()) else {
        return (Verdict::Fail, "non-numeric value".to_string());
    };
    if better == Better::Higher && c < b * (1.0 - bound) {
        (
            Verdict::Fail,
            format!("below floor {:.3}", b * (1.0 - bound)),
        )
    } else if better == Better::Lower && c > b * (1.0 + bound) {
        (
            Verdict::Fail,
            format!("above ceiling {:.3}", b * (1.0 + bound)),
        )
    } else {
        pass
    }
}

/// Compares every `BENCH_*.json` in `baseline_dir` against its
/// counterpart in `current_dir`.
///
/// # Errors
///
/// Returns an error string when a directory is unreadable, a baseline
/// artifact is missing from the current directory, or a document fails
/// to parse — all of which mean the gate cannot render a verdict at all
/// (distinct from a comparison failure, which is reported in the
/// [`GateReport`]).
pub fn compare_dirs(baseline_dir: &Path, current_dir: &Path) -> Result<GateReport, String> {
    let mut names: Vec<String> = fs::read_dir(baseline_dir)
        .map_err(|e| format!("read {}: {e}", baseline_dir.display()))?
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            (name.starts_with("BENCH_") && name.ends_with(".json")).then_some(name)
        })
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!(
            "no BENCH_*.json baselines in {}",
            baseline_dir.display()
        ));
    }

    let mut report = GateReport::default();
    for name in &names {
        let b_path = baseline_dir.join(name);
        let c_path = current_dir.join(name);
        let b_text =
            fs::read_to_string(&b_path).map_err(|e| format!("read {}: {e}", b_path.display()))?;
        let c_text =
            fs::read_to_string(&c_path).map_err(|e| format!("read {}: {e}", c_path.display()))?;
        let b_doc =
            JsonValue::parse(&b_text).map_err(|e| format!("parse {}: {e}", b_path.display()))?;
        let c_doc =
            JsonValue::parse(&c_text).map_err(|e| format!("parse {}: {e}", c_path.display()))?;
        report.rows.extend(compare_documents(name, &b_doc, &c_doc));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact, metric};

    fn doc(field: JsonValue) -> JsonValue {
        JsonValue::object([("bench", JsonValue::Str("t".into())), ("m", field)])
    }

    fn higher(v: f64) -> JsonValue {
        metric(JsonValue::Float(v), "x", Better::Higher, Some(0.5))
    }

    fn lower(v: u64) -> JsonValue {
        metric(JsonValue::UInt(v), "cycles", Better::Lower, Some(0.5))
    }

    /// The verdict of the single row `compare_documents` gives field `m`.
    fn verdict(base: JsonValue, cur: JsonValue) -> Verdict {
        let rows = compare_documents("b", &doc(base), &doc(cur));
        let row = rows.iter().find(|r| r.path == "b.m").expect("row for b.m");
        row.verdict
    }

    #[test]
    fn higher_passes_at_its_floor_and_fails_just_below() {
        assert_eq!(verdict(higher(4.0), higher(2.0)), Verdict::Pass);
        assert_eq!(verdict(higher(4.0), higher(1.99)), Verdict::Fail);
        assert_eq!(verdict(higher(4.0), higher(400.0)), Verdict::Pass);
    }

    #[test]
    fn lower_passes_at_its_ceiling_and_fails_just_above() {
        assert_eq!(verdict(lower(1000), lower(1500)), Verdict::Pass);
        assert_eq!(verdict(lower(1000), lower(1501)), Verdict::Fail);
        assert_eq!(verdict(lower(1000), lower(0)), Verdict::Pass);
    }

    #[test]
    fn exact_fails_on_drift_in_either_direction() {
        let cycles = |v: u64| exact(JsonValue::UInt(v), "cycles");
        assert_eq!(verdict(cycles(100), cycles(100)), Verdict::Pass);
        assert_eq!(verdict(cycles(100), cycles(101)), Verdict::Fail);
        assert_eq!(verdict(cycles(100), cycles(99)), Verdict::Fail);
        // Any JSON value can be exact, e.g. a histogram object.
        let hist = |n: u64| exact(JsonValue::object([("8", JsonValue::UInt(n))]), "count");
        assert_eq!(verdict(hist(92), hist(92)), Verdict::Pass);
        assert_eq!(verdict(hist(92), hist(91)), Verdict::Fail);
    }

    #[test]
    fn null_bound_is_info() {
        let wall = |v: f64| metric(JsonValue::Float(v), "s", Better::Lower, None);
        assert_eq!(verdict(wall(0.001), wall(1000.0)), Verdict::Info);
        assert_eq!(verdict(wall(1000.0), wall(0.001)), Verdict::Info);
    }

    #[test]
    fn changed_declaration_fails() {
        let base = higher(4.0);
        for changed in [
            metric(JsonValue::Float(4.0), "points/s", Better::Higher, Some(0.5)),
            metric(JsonValue::Float(4.0), "x", Better::Lower, Some(0.5)),
            metric(JsonValue::Float(4.0), "x", Better::Higher, Some(0.25)),
            metric(JsonValue::Float(4.0), "x", Better::Higher, None),
            JsonValue::Float(4.0),
        ] {
            assert_eq!(
                verdict(base.clone(), changed.clone()),
                Verdict::Fail,
                "{changed:?}"
            );
            assert_eq!(
                verdict(changed.clone(), base.clone()),
                Verdict::Fail,
                "{changed:?}"
            );
        }
        let rows = compare_documents("b", &doc(base), &doc(lower(4)));
        assert!(rows[1].note.contains("regenerate the baseline"), "{rows:?}");
    }

    #[test]
    fn differing_label_warns() {
        let label = |quick: bool| doc(JsonValue::Bool(quick));
        let rows = compare_documents("b", &label(true), &label(true));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Info), "{rows:?}");
        let rows = compare_documents("b", &label(true), &label(false));
        assert_eq!(rows[1].verdict, Verdict::Warn, "{rows:?}");
        let report = GateReport { rows };
        assert!(report.passed());
        assert_eq!(report.warnings(), 1);
    }

    #[test]
    fn silent_counter_fails() {
        let telemetry = |hits: u64, span_ns: u64| {
            JsonValue::object([(
                "telemetry",
                JsonValue::object([
                    (
                        "counters",
                        JsonValue::object([("dse.cache_hits", JsonValue::UInt(hits))]),
                    ),
                    (
                        "spans",
                        JsonValue::object([("total_ns", JsonValue::UInt(span_ns))]),
                    ),
                ]),
            )])
        };
        let fails = |b, c| {
            compare_documents("b", &b, &c)
                .iter()
                .filter(|r| r.verdict == Verdict::Fail)
                .count()
        };
        assert_eq!(fails(telemetry(7, 10), telemetry(0, 10)), 1);
        // Volume changes, a dead baseline and span timings never gate.
        assert_eq!(fails(telemetry(7, 10), telemetry(9000, 99_999)), 0);
        assert_eq!(fails(telemetry(0, 10), telemetry(0, 1)), 0);
        let rows = compare_documents("b", &telemetry(7, 10), &telemetry(7, 20));
        assert_eq!(rows[1].verdict, Verdict::Info, "{rows:?}");
    }

    #[test]
    fn missing_field_fails() {
        let base = doc(higher(4.0));
        let trimmed = JsonValue::object([("bench", JsonValue::Str("t".into()))]);
        let rows = compare_documents("b", &base, &trimmed);
        assert_eq!(rows[1].path, "b.m");
        assert_eq!(rows[1].verdict, Verdict::Fail);
        assert!(rows[1].note.contains("missing"));
    }

    #[test]
    fn array_length_mismatch_warns() {
        let runs = |n: usize| JsonValue::Array(vec![exact(JsonValue::UInt(5), "count"); n]);
        let rows = compare_documents("b", &doc(runs(2)), &doc(runs(1)));
        assert_eq!(rows[1].verdict, Verdict::Warn, "{rows:?}");
        assert_eq!(
            rows.iter().filter(|r| r.verdict == Verdict::Pass).count(),
            1
        );
    }

    #[test]
    fn malformed_declarations_fail_naming_the_path() {
        let good = r#"{"value": 4.0, "unit": "x", "better": "higher", "bound": 0.5}"#;
        for bad in [
            r#"{"value": 4.0, "unit": "x", "better": "sideways", "bound": 0.5}"#,
            r#"{"value": 4.0, "unit": "x", "better": 1, "bound": 0.5}"#,
            r#"{"value": 4.0, "unit": "x", "better": "higher", "bound": -0.5}"#,
            r#"{"value": 4.0, "unit": "x", "better": "higher", "bound": 1e999}"#,
            r#"{"value": 4.0, "unit": "x", "better": "higher", "bound": "wide"}"#,
            r#"{"value": 4.0, "unit": "x", "better": "higher"}"#,
            r#"{"unit": "x", "better": "higher", "bound": 0.5}"#,
            r#"{"value": 4.0, "better": "higher", "bound": 0.5}"#,
            r#"{"value": "fast", "unit": "x", "better": "higher", "bound": 0.5}"#,
        ] {
            let parse = |m: &str| JsonValue::parse(&format!(r#"{{"runs": [{{"m": {m}}}]}}"#));
            let (good_doc, bad_doc) = (parse(good).unwrap(), parse(bad).unwrap());
            for (b, c) in [
                (&good_doc, &bad_doc),
                (&bad_doc, &good_doc),
                (&bad_doc, &bad_doc),
            ] {
                let rows = compare_documents("b", b, c);
                assert_eq!(rows.len(), 1, "{rows:?}");
                assert_eq!(rows[0].path, "b.runs[0].m");
                assert_eq!(rows[0].verdict, Verdict::Fail, "{bad}: {rows:?}");
            }
        }
    }

    #[test]
    fn report_table_renders_and_counts() {
        let report = GateReport {
            rows: compare_documents("b.json", &doc(higher(4.0)), &doc(higher(0.5))),
        };
        assert!(!report.passed());
        let table = report.render_table();
        assert!(table.contains("FAIL"));
        assert!(table.contains("below floor 2.000"));
        assert!(table.contains("failure(s)"));
    }

    #[test]
    fn long_arrays_do_not_widen_the_table() {
        // Histogram-style `[bucket, count]` pairs.
        let buckets = |n: u64| {
            let pair =
                |i: u64| JsonValue::Array(vec![JsonValue::UInt(i), JsonValue::UInt(i * 997)]);
            doc(JsonValue::Array((0..n).map(pair).collect()))
        };
        let report = GateReport {
            rows: compare_documents("b", &buckets(40), &buckets(39)),
        };
        let table = report.render_table();
        assert!(table.contains("[40 items]"), "{table}");
        let widest = table.lines().map(|l| l.chars().count()).max().unwrap();
        assert!(widest <= 120, "row {widest} characters wide:\n{table}");
    }
}
