//! Performance-regression gate over `BENCH_*.json` artifacts.
//!
//! The bench binaries ([`dse_throughput`], [`kernels_throughput`]) emit
//! machine-readable JSON with speedups, point counts, and an embedded
//! telemetry snapshot. CI commits known-good copies under `baselines/`;
//! the `bench_gate` binary re-runs the benches and calls into this
//! module to compare fresh output against the baseline.
//!
//! # Comparison rules
//!
//! Fields are matched structurally (objects by key, arrays by index) and
//! judged by name:
//!
//! - **`speedup` / `best_speedup` / `points_per_sec`** — throughput
//!   metrics. Fail when `current < baseline · (1 − tolerance)`;
//!   improvements never fail. The wide default tolerance (0.5) absorbs
//!   noisy shared CI runners while still catching order-of-magnitude
//!   regressions (a lost cache, an accidental serial fallback).
//! - **`points`** — design-space sizes are deterministic; any drift is a
//!   correctness bug, so they must match exactly.
//! - **`meets_target`** — fails only on a `true → false` transition (a
//!   baseline that never met the target cannot regress).
//! - **`stall_*`** (any key containing `stall`) — bounded-above cycle
//!   volumes from the scheduler's stall attribution. Fail when
//!   `current > baseline · (1 + tolerance)`; reductions never fail.
//! - **`*latency*` / `*shed*` / `*wait*`** — bounded-above serving
//!   metrics (latency percentiles, shed rates, queue/batch wait
//!   breakdowns). Fail when `current > baseline · (1 + tolerance)`.
//! - **`*retr*` / `*fault*` / `*failed*` / `*degraded*` / `*breaker*`**
//!   — robustness volumes from the chaos scenario (retry and fault
//!   rates, failed requests, degraded ticks, breaker trips). Also
//!   bounded above: a code change that retries, faults or degrades
//!   *more* under the same seeded chaos gates; doing less never fails.
//! - **`telemetry.counters.*`** — liveness, not magnitude: every counter
//!   that was nonzero in the baseline must be nonzero in the current run
//!   (a zero means an instrumented fast path silently stopped running).
//! - **`trace_events`** — same liveness rule for the serve flight
//!   recorder: a baseline that traced lifecycles must keep tracing.
//! - **`wall_s`** and everything else — informational only; absolute
//!   wall times are machine-dependent.
//! - **`quick`** — a mode mismatch (quick baseline vs full current run)
//!   downgrades every verdict to a warning-level note but is itself only
//!   a warning.
//!
//! [`dse_throughput`]: ../../dse_throughput/index.html
//! [`kernels_throughput`]: ../../kernels_throughput/index.html

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use nsflow_telemetry::JsonValue;

/// Default relative tolerance for throughput metrics.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Verdict for one compared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or improved).
    Pass,
    /// Recorded for the delta table but never gating (e.g. `wall_s`).
    Info,
    /// Suspicious but not gating (mode mismatch, missing optional field).
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
    /// artifact name (e.g. `BENCH_dse.json:runs[0].parallel.speedup`).
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

/// How a field name is judged.
fn classify(key: &str) -> FieldClass {
    if key == "points" {
        FieldClass::Exact
    } else if key == "speedup_target" {
        // A configured constant, not a measurement.
        FieldClass::Informational
    } else if key.contains("speedup") || key == "points_per_sec" {
        // speedup / best_speedup / best_resonator_speedup_dim_ge_1024 / …
        FieldClass::Throughput
    } else if key.contains("stall") {
        // stall_transfer / stall_dep_wait / … — cycle volumes that must
        // stay bounded: growth past baseline·(1+tolerance) gates.
        FieldClass::BoundedAbove
    } else if key.contains("latency") || key.contains("shed") || key.contains("wait") {
        // latency_p50_cycles / shed_rate / queue_wait_p95_cycles / … —
        // serving regressions push these up: growth past
        // baseline·(1+tolerance) gates. (`stall_dep_wait` et al. are
        // caught by the `stall` arm above.)
        FieldClass::BoundedAbove
    } else if key.contains("retr")
        || key.contains("fault")
        || key.contains("failed")
        || key.contains("degraded")
        || key.contains("breaker")
    {
        // retries / retry_rate / faults_injected / fault_rate / failed /
        // degraded_ticks / breaker_trips — seeded-chaos robustness
        // volumes: more retries, faults or trips than the baseline at
        // the same seed means the runtime got less robust.
        FieldClass::BoundedAbove
    } else if key == "trace_events" {
        // Flight-recorder liveness: a baseline that recorded lifecycle
        // events must keep recording them (zero means tracing silently
        // stopped); volume changes are expected and never gate.
        FieldClass::Liveness
    } else if key.contains("throughput") {
        // throughput_per_mcycle / … — must not fall below
        // baseline·(1−tolerance).
        FieldClass::Throughput
    } else if key == "meets_target" {
        FieldClass::MeetsTarget
    } else if key == "quick" {
        FieldClass::Quick
    } else {
        FieldClass::Informational
    }
}

enum FieldClass {
    Exact,
    Throughput,
    BoundedAbove,
    /// Nonzero in the baseline ⇒ must stay nonzero (same rule as
    /// `telemetry.counters.*`); magnitude is never gated.
    Liveness,
    MeetsTarget,
    Quick,
    Informational,
}

fn render_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Float(f) => format!("{f:.3}"),
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
pub fn compare_documents(
    name: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    tolerance: f64,
) -> Vec<Delta> {
    let mut rows = Vec::new();
    walk(name, baseline, current, tolerance, false, &mut rows);
    rows
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

fn walk(
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    tolerance: f64,
    in_counters: bool,
    rows: &mut Vec<Delta>,
) {
    match (baseline, current) {
        (JsonValue::Object(b_fields), JsonValue::Object(_)) => {
            for (key, b_val) in b_fields {
                let child = format!("{path}.{key}");
                match current.get(key) {
                    Some(c_val) => {
                        let counters = in_counters || key == "counters";
                        walk(&child, b_val, c_val, tolerance, counters, rows);
                    }
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
                push(
                    rows,
                    path,
                    baseline,
                    current,
                    Verdict::Warn,
                    "array length differs; comparing the common prefix",
                );
            }
            for (i, (b, c)) in b_items.iter().zip(c_items).enumerate() {
                walk(&format!("{path}[{i}]"), b, c, tolerance, in_counters, rows);
            }
        }
        _ => leaf(path, baseline, current, tolerance, in_counters, rows),
    }
}

fn leaf(
    path: &str,
    baseline: &JsonValue,
    current: &JsonValue,
    tolerance: f64,
    in_counters: bool,
    rows: &mut Vec<Delta>,
) {
    let key = path.rsplit('.').next().unwrap_or(path);
    if in_counters {
        // Telemetry counter liveness: nonzero in the baseline means the
        // instrumented path must still be exercised.
        let b = baseline.as_u64().unwrap_or(0);
        let c = current.as_u64().unwrap_or(0);
        if b > 0 && c == 0 {
            push(
                rows,
                path,
                baseline,
                current,
                Verdict::Fail,
                "counter went silent (instrumented path no longer runs)",
            );
        } else {
            push(rows, path, baseline, current, Verdict::Pass, "");
        }
        return;
    }
    match classify(key) {
        FieldClass::Exact => {
            if baseline == current {
                push(rows, path, baseline, current, Verdict::Pass, "");
            } else {
                push(
                    rows,
                    path,
                    baseline,
                    current,
                    Verdict::Fail,
                    "deterministic field changed",
                );
            }
        }
        FieldClass::Throughput => match (baseline.as_f64(), current.as_f64()) {
            (Some(b), Some(c)) => {
                let floor = b * (1.0 - tolerance);
                if c < floor {
                    push(
                        rows,
                        path,
                        baseline,
                        current,
                        Verdict::Fail,
                        &format!("below tolerance floor {floor:.3}"),
                    );
                } else {
                    push(rows, path, baseline, current, Verdict::Pass, "");
                }
            }
            _ => push(
                rows,
                path,
                baseline,
                current,
                Verdict::Warn,
                "non-numeric throughput field",
            ),
        },
        FieldClass::BoundedAbove => match (baseline.as_f64(), current.as_f64()) {
            (Some(b), Some(c)) => {
                let ceiling = b * (1.0 + tolerance);
                if c > ceiling {
                    push(
                        rows,
                        path,
                        baseline,
                        current,
                        Verdict::Fail,
                        &format!("above tolerance ceiling {ceiling:.3}"),
                    );
                } else {
                    push(rows, path, baseline, current, Verdict::Pass, "");
                }
            }
            _ => push(
                rows,
                path,
                baseline,
                current,
                Verdict::Warn,
                "non-numeric bounded field",
            ),
        },
        FieldClass::Liveness => {
            let b = baseline.as_u64().unwrap_or(0);
            let c = current.as_u64().unwrap_or(0);
            if b > 0 && c == 0 {
                push(
                    rows,
                    path,
                    baseline,
                    current,
                    Verdict::Fail,
                    "went silent (was live in the baseline)",
                );
            } else {
                push(rows, path, baseline, current, Verdict::Pass, "");
            }
        }
        FieldClass::MeetsTarget => {
            let regressed = baseline.as_bool() == Some(true) && current.as_bool() == Some(false);
            if regressed {
                push(
                    rows,
                    path,
                    baseline,
                    current,
                    Verdict::Fail,
                    "speedup target no longer met",
                );
            } else {
                push(rows, path, baseline, current, Verdict::Pass, "");
            }
        }
        FieldClass::Quick => {
            if baseline == current {
                push(rows, path, baseline, current, Verdict::Pass, "");
            } else {
                push(
                    rows,
                    path,
                    baseline,
                    current,
                    Verdict::Warn,
                    "quick-mode mismatch between baseline and current",
                );
            }
        }
        FieldClass::Informational => push(rows, path, baseline, current, Verdict::Info, ""),
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
pub fn compare_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    tolerance: f64,
) -> Result<GateReport, String> {
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
        report
            .rows
            .extend(compare_documents(name, &b_doc, &c_doc, tolerance));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(speedup: f64, points: u64, meets: bool, counter: u64) -> JsonValue {
        JsonValue::parse(&format!(
            r#"{{
                "bench": "t", "quick": true, "points": {points},
                "parallel": {{ "wall_s": 0.5, "speedup": {speedup} }},
                "meets_target": {meets},
                "telemetry": {{ "counters": {{ "dse.cache_hits": {counter} }} }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(4.0, 100, true, 7);
        let rows = compare_documents("b.json", &d, &d, 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn speedup_regression_fails_and_improvement_passes() {
        let base = doc(4.0, 100, true, 7);
        let slow = doc(1.0, 100, true, 7);
        let rows = compare_documents("b.json", &base, &slow, 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("speedup")));
        let fast = doc(9.0, 100, true, 7);
        let rows = compare_documents("b.json", &base, &fast, 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn boundary_sits_exactly_on_the_tolerance_floor() {
        let base = doc(4.0, 100, true, 7);
        // Exactly baseline·(1−tol) is allowed; strictly below fails.
        let at_floor = doc(2.0, 100, true, 7);
        assert!(compare_documents("b", &base, &at_floor, 0.5)
            .iter()
            .all(|r| r.verdict != Verdict::Fail));
        let below = doc(1.99, 100, true, 7);
        assert!(compare_documents("b", &base, &below, 0.5)
            .iter()
            .any(|r| r.verdict == Verdict::Fail));
    }

    #[test]
    fn point_count_drift_fails() {
        let rows = compare_documents("b", &doc(4.0, 100, true, 7), &doc(4.0, 101, true, 7), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("points")));
    }

    #[test]
    fn silent_counter_fails_but_zero_baseline_does_not() {
        let rows = compare_documents("b", &doc(4.0, 100, true, 7), &doc(4.0, 100, true, 0), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.contains("counters")));
        let rows = compare_documents("b", &doc(4.0, 100, true, 0), &doc(4.0, 100, true, 0), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn stall_growth_fails_and_reduction_passes() {
        let doc_with_stall = |stall: u64| {
            JsonValue::parse(&format!(
                r#"{{ "workloads": [ {{ "name": "NVSA", "stall_transfer": {stall} }} ] }}"#
            ))
            .unwrap()
        };
        let base = doc_with_stall(1000);
        // 1000·(1+0.5) = 1500 is the ceiling: at it passes, above fails.
        let at_ceiling = doc_with_stall(1500);
        assert!(compare_documents("b", &base, &at_ceiling, 0.5)
            .iter()
            .all(|r| r.verdict != Verdict::Fail));
        let above = doc_with_stall(1501);
        assert!(compare_documents("b", &base, &above, 0.5)
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("stall_transfer")));
        let reduced = doc_with_stall(0);
        assert!(compare_documents("b", &base, &reduced, 0.5)
            .iter()
            .all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn stall_counters_inside_telemetry_keep_liveness_semantics() {
        // `telemetry.counters.sim.stall_*` go through the counter rule
        // (liveness), not the bounded-above rule: growth there is fine.
        let doc_with_counter = |v: u64| {
            JsonValue::parse(&format!(
                r#"{{ "telemetry": {{ "counters": {{ "sim.stall_transfer": {v} }} }} }}"#
            ))
            .unwrap()
        };
        let rows = compare_documents("b", &doc_with_counter(10), &doc_with_counter(10_000), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
        let rows = compare_documents("b", &doc_with_counter(10), &doc_with_counter(0), 0.5);
        assert!(rows.iter().any(|r| r.verdict == Verdict::Fail));
    }

    #[test]
    fn meets_target_only_fails_on_true_to_false() {
        let rows = compare_documents("b", &doc(4.0, 100, true, 7), &doc(4.0, 100, false, 7), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("meets_target")));
        let rows = compare_documents("b", &doc(4.0, 100, false, 7), &doc(4.0, 100, false, 7), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn missing_field_fails_and_wall_time_is_informational() {
        let base = doc(4.0, 100, true, 7);
        let mut trimmed = base.clone();
        if let JsonValue::Object(fields) = &mut trimmed {
            fields.retain(|(k, _)| k != "parallel");
        }
        let rows = compare_documents("b", &base, &trimmed, 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.note.contains("missing")));

        // wall_s regressions never gate.
        let slow_wall = JsonValue::parse(&base.render_compact().replace("0.5", "500.0")).unwrap();
        let rows = compare_documents("b", &base, &slow_wall, 0.5);
        assert!(rows
            .iter()
            .all(|r| !(r.verdict == Verdict::Fail && r.path.ends_with("wall_s"))));
    }

    #[test]
    fn latency_and_shed_gate_above_throughput_gates_below() {
        let serve_doc = |p99: u64, shed: f64, tput: f64| {
            JsonValue::parse(&format!(
                r#"{{ "nvsa_batched": {{
                    "latency_p99_cycles": {p99},
                    "shed_rate": {shed},
                    "throughput_per_mcycle": {tput}
                }} }}"#
            ))
            .unwrap()
        };
        let base = serve_doc(1000, 0.10, 8.0);

        // Latency growth past the ceiling fails; reduction passes.
        let rows = compare_documents("b", &base, &serve_doc(1501, 0.10, 8.0), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("latency_p99_cycles")));
        let rows = compare_documents("b", &base, &serve_doc(100, 0.10, 8.0), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));

        // Shed-rate growth past the ceiling fails; shedding less passes.
        let rows = compare_documents("b", &base, &serve_doc(1000, 0.16, 8.0), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("shed_rate")));
        let rows = compare_documents("b", &base, &serve_doc(1000, 0.0, 8.0), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));

        // Throughput is gated from below, like speedups.
        let rows = compare_documents("b", &base, &serve_doc(1000, 0.10, 3.9), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("throughput_per_mcycle")));
        let rows = compare_documents("b", &base, &serve_doc(1000, 0.10, 80.0), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn trace_events_gate_on_liveness_not_volume() {
        let serve_doc = |events: u64| {
            JsonValue::parse(&format!(
                r#"{{ "nvsa_batched": {{ "trace_events": {events} }} }}"#
            ))
            .unwrap()
        };
        // Volume changes (either direction) never gate.
        let rows = compare_documents("b", &serve_doc(3000), &serve_doc(90_000), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
        let rows = compare_documents("b", &serve_doc(3000), &serve_doc(5), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
        // Going silent fails; a dead baseline cannot regress.
        let rows = compare_documents("b", &serve_doc(3000), &serve_doc(0), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("trace_events")));
        let rows = compare_documents("b", &serve_doc(0), &serve_doc(0), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn chaos_robustness_fields_are_bounded_above() {
        let chaos_doc = |retry_rate: f64, failed: u64, trips: u64| {
            JsonValue::parse(&format!(
                r#"{{ "nvsa_chaos": {{
                    "retry_rate": {retry_rate},
                    "failed": {failed},
                    "breaker_trips": {trips}
                }} }}"#
            ))
            .unwrap()
        };
        let base = chaos_doc(0.20, 40, 4);
        // Retrying/failing/tripping more than the ceiling fails.
        let rows = compare_documents("b", &base, &chaos_doc(0.31, 40, 4), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("retry_rate")));
        let rows = compare_documents("b", &base, &chaos_doc(0.20, 61, 4), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("failed")));
        let rows = compare_documents("b", &base, &chaos_doc(0.20, 40, 7), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("breaker_trips")));
        // A more robust run (fewer of each) always passes.
        let rows = compare_documents("b", &base, &chaos_doc(0.0, 0, 0), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn phase_wait_fields_are_bounded_above() {
        let serve_doc = |wait: u64| {
            JsonValue::parse(&format!(
                r#"{{ "mixed": {{ "queue_wait_p95_cycles": {wait} }} }}"#
            ))
            .unwrap()
        };
        let base = serve_doc(1000);
        let rows = compare_documents("b", &base, &serve_doc(1501), 0.5);
        assert!(rows
            .iter()
            .any(|r| r.verdict == Verdict::Fail && r.path.ends_with("queue_wait_p95_cycles")));
        let rows = compare_documents("b", &base, &serve_doc(10), 0.5);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Fail));
    }

    #[test]
    fn simtrace_timing_fields_are_informational() {
        let timing = |us: f64, threads: u64| {
            JsonValue::parse(&format!(
                r#"{{ "threads": {threads}, "schedule_us_per_call": {us},
                    "critical_path_us_per_call": {us},
                    "chrome_trace_us_per_call": {us}, "render_us_per_call": {us} }}"#
            ))
            .unwrap()
        };
        for (base, cur) in [
            (timing(10.0, 1), timing(900.0, 4)),
            (timing(900.0, 4), timing(1.0, 1)),
        ] {
            let rows = compare_documents("BENCH_simtrace.json", &base, &cur, 0.5);
            assert_eq!(rows.len(), 5);
            assert!(rows.iter().all(|r| r.verdict == Verdict::Info), "{rows:?}");
        }
    }

    #[test]
    fn report_table_renders_and_counts() {
        let base = doc(4.0, 100, true, 7);
        let bad = doc(0.5, 100, true, 7);
        let report = GateReport {
            rows: compare_documents("b.json", &base, &bad, 0.5),
        };
        assert!(!report.passed());
        let table = report.render_table();
        assert!(table.contains("FAIL"));
        assert!(table.contains("failure(s)"));
    }
}
