//! Integration tests for the `bench_gate` regression gate: the binary
//! must exit zero against the committed baselines and non-zero against
//! synthetically regressed artifacts.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use nsflow_bench::gate::{compare_dirs, compare_documents, Verdict};
use nsflow_bench::{exact, wall_ratio, wall_time};
use nsflow_telemetry::JsonValue;

/// The committed baseline directory at the workspace root.
fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
}

/// A scratch directory unique to this test, wiped on creation.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nsflow_gate_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_gate(baseline: &Path, current: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args([
            "--baseline",
            baseline.to_str().unwrap(),
            "--current",
            current.to_str().unwrap(),
        ])
        .args(extra)
        .output()
        .expect("spawn bench_gate")
}

/// A `BENCH_dse.json`-shaped document with declared metrics.
fn dse_doc(speedup: f64, points: u64, hits: u64) -> String {
    JsonValue::object([
        ("bench", JsonValue::Str("dse_throughput".into())),
        ("quick", JsonValue::Bool(true)),
        (
            "runs",
            JsonValue::Array(vec![JsonValue::object([
                ("points", exact(JsonValue::UInt(points), "count")),
                (
                    "cached",
                    JsonValue::object([
                        ("wall_s", wall_time(0.0002, "s")),
                        ("speedup", wall_ratio(speedup, "x")),
                    ]),
                ),
                ("best_speedup", wall_ratio(speedup, "x")),
            ])]),
        ),
        (
            "telemetry",
            JsonValue::object([(
                "counters",
                JsonValue::object([("dse.cache_hits", JsonValue::UInt(hits))]),
            )]),
        ),
    ])
    .render_pretty()
}

/// Writes `base` and `cur` as `BENCH_dse.json` into two scratch
/// directories and runs the gate binary over them.
fn gate_dse(tag: &str, base: &str, cur: &str) -> (bool, String) {
    let (b, c) = (scratch(&format!("{tag}_b")), scratch(&format!("{tag}_c")));
    fs::write(b.join("BENCH_dse.json"), base).unwrap();
    fs::write(c.join("BENCH_dse.json"), cur).unwrap();
    let out = run_gate(&b, &c, &[]);
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn gate_passes_on_committed_baselines() {
    let baselines = baselines_dir();
    let out = run_gate(&baselines, &baselines, &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "gate failed against its own baselines:\n{stdout}"
    );
    assert!(
        stdout.contains("gate: PASS"),
        "unexpected output:\n{stdout}"
    );
}

#[test]
fn gate_exits_nonzero_on_synthetic_regressions() {
    let base = dse_doc(40.0, 6277, 2_506_068);
    let (ok, stdout) = gate_dse("same", &base, &dse_doc(40.0, 6277, 999));
    assert!(ok, "counter volume change gated:\n{stdout}");

    // Speedup collapses 40x → 4x: far below the declared floor.
    let (ok, stdout) = gate_dse("speedup", &base, &dse_doc(4.0, 6277, 999));
    assert!(!ok, "gate passed a 10x speedup regression:\n{stdout}");
    assert!(stdout.contains("gate: FAIL") && stdout.contains("below floor"));

    let (ok, stdout) = gate_dse("points", &base, &dse_doc(40.0, 6278, 999));
    assert!(!ok, "gate ignored a design-space drift:\n{stdout}");
    assert!(stdout.contains("deterministic value changed"));

    let (ok, stdout) = gate_dse("counter", &base, &dse_doc(40.0, 6277, 0));
    assert!(!ok, "gate ignored a silent counter:\n{stdout}");
    assert!(stdout.contains("counter went silent"));
}

/// Bumps the `value` of the declared metric at `path` (object keys and
/// array indices) by one.
fn bump(doc: &mut JsonValue, path: &[&str]) {
    let mut node = doc;
    for step in path {
        node = match node {
            JsonValue::Object(fields) => {
                &mut fields.iter_mut().find(|(k, _)| k == step).expect(step).1
            }
            JsonValue::Array(items) => &mut items[step.parse::<usize>().unwrap()],
            other => panic!("cannot step into {other:?}"),
        };
    }
    let JsonValue::Object(fields) = node else {
        panic!("{path:?} is not a declared metric")
    };
    let value = &mut fields.iter_mut().find(|(k, _)| k == "value").unwrap().1;
    *value = JsonValue::UInt(value.as_u64().expect("integer metric") + 1);
}

#[test]
fn one_unit_drift_in_committed_deterministic_fields_fails() {
    for (file, path) in [
        (
            "BENCH_simtrace.json",
            &["workloads", "0", "total_cycles"][..],
        ),
        ("BENCH_simtrace.json", &["workloads", "2", "stall_dep_wait"]),
        ("BENCH_simtrace.json", &["workloads", "3", "stall_transfer"]),
        ("BENCH_serve.json", &["nvsa_batched", "latency_p99_cycles"]),
        ("BENCH_serve.json", &["nvsa_chaos", "retries"]),
        ("BENCH_dse.json", &["runs", "0", "points"]),
    ] {
        let text = fs::read_to_string(baselines_dir().join(file)).unwrap();
        let base = JsonValue::parse(&text).unwrap();
        let mut drifted = base.clone();
        bump(&mut drifted, path);
        let fails: Vec<_> = compare_documents(file, &base, &drifted)
            .into_iter()
            .filter(|d| d.verdict == Verdict::Fail)
            .collect();
        assert_eq!(fails.len(), 1, "{file} {path:?}: {fails:?}");
        assert!(fails[0].path.ends_with(path.last().unwrap()));
    }
}

#[test]
fn gate_rejects_missing_current_artifact_and_unknown_flags() {
    let base = scratch("mbase");
    let cur = scratch("mcur");
    fs::write(base.join("BENCH_dse.json"), dse_doc(40.0, 6277, 1)).unwrap();
    // No current artifact at all → the gate cannot render a verdict.
    let out = run_gate(&base, &cur, &[]);
    assert!(!out.status.success());

    // Bounds are declared per metric; there is no global tolerance.
    let out = run_gate(&base, &base, &["--slack", "0.5"]);
    assert!(!out.status.success(), "an unknown flag must be rejected");
}

#[test]
fn library_comparison_agrees_with_the_binary() {
    let base = scratch("lbase");
    let cur = scratch("lcur");
    fs::write(base.join("BENCH_dse.json"), dse_doc(40.0, 6277, 7)).unwrap();
    fs::write(cur.join("BENCH_dse.json"), dse_doc(4.0, 6000, 0)).unwrap();
    let report = compare_dirs(&base, &cur).expect("comparable dirs");
    assert!(!report.passed());
    // All three regression kinds surface: wall-clock ratio, exact
    // value, counter liveness.
    let fails: Vec<&str> = report
        .rows
        .iter()
        .filter(|d| d.verdict == Verdict::Fail)
        .map(|d| d.path.as_str())
        .collect();
    assert!(fails.iter().any(|p| p.ends_with("cached.speedup")));
    assert!(fails.iter().any(|p| p.ends_with("points")));
    assert!(fails.iter().any(|p| p.contains("counters")));
}
