//! Cycle-level execution timeline inspector: runs a named workload
//! through the two-phase mapping pipeline and the AdArray scheduler,
//! writes a Chrome Trace Event Format JSON (open it in Perfetto or
//! `chrome://tracing`), and prints a bottleneck report — top ops by
//! critical-path contribution, stall-category totals, NN/VSA/SIMD
//! overlap, and the roofline bound per phase.
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin simtrace -- nvsa
//! cargo run --release -p nsflow-bench --bin simtrace -- all --config 32x32x8 --top 5
//! ```
//!
//! Usage: `simtrace <nvsa|mimonet|lvrf|prae|all> [--config HxWxN]
//! [--top N] [--out DIR]`
//!
//! - `--config HxWxN`: AdArray geometry (default `32x32x8`, the paper's
//!   Fig. 6 architecture),
//! - `--top N`: rows in the top-ops table (default 8),
//! - `--out DIR`: directory for `<workload>.trace.json` (default `.`).
//!
//! Also emits `BENCH_simtrace.json` for the `bench_gate` regression
//! gate: per workload the simulated cycles, utilization, overlap, stall
//! totals and critical path, all declared `exact`, plus the measured
//! wall time per scheduler, critical-path, Chrome-trace build and
//! `render_pretty` call averaged over the workloads' final schedules
//! (informational: host-dependent). An invalid trace makes the run exit
//! non-zero.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nsflow_arch::ArrayConfig;
use nsflow_bench::simreport::{analyze, parse_config, WorkloadTimeline};
use nsflow_bench::{exact, wall_time, write_artifact};
use nsflow_sim::schedule::SimOptions;
use nsflow_telemetry::JsonValue;
use nsflow_workloads::traces;

struct Args {
    workloads: Vec<String>,
    cfg: ArrayConfig,
    top: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut cfg = parse_config("32x32x8")?;
    let mut top = 8usize;
    let mut out = PathBuf::from(".");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--config" => {
                let v = argv.next().ok_or("--config needs a value (HxWxN)")?;
                cfg = parse_config(&v)?;
            }
            "--top" => {
                let v = argv.next().ok_or("--top needs a value")?;
                top = v.parse().map_err(|e| format!("--top `{v}`: {e}"))?;
            }
            "--out" => {
                out = PathBuf::from(argv.next().ok_or("--out needs a directory")?);
            }
            "all" => workloads.extend(["nvsa", "mimonet", "lvrf", "prae"].map(String::from)),
            name if !name.starts_with('-') => workloads.push(name.to_string()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if workloads.is_empty() {
        return Err(
            "usage: simtrace <nvsa|mimonet|lvrf|prae|all> [--config HxWxN] [--top N] [--out DIR]"
                .into(),
        );
    }
    Ok(Args {
        workloads,
        cfg,
        top,
        out,
    })
}

/// Wall time spent building and rendering the workloads' Chrome traces.
#[derive(Default)]
struct TraceWall {
    build: Duration,
    render: Duration,
}

fn emit_json(timelines: &[WorkloadTimeline], args: &Args, wall: &TraceWall) {
    let (mut schedule_wall, mut path_wall) = (Duration::ZERO, Duration::ZERO);
    let count = |v: usize| exact(JsonValue::UInt(v as u64), "count");
    let cycles = |v: u64| exact(JsonValue::UInt(v), "cycles");
    let workloads = timelines
        .iter()
        .map(|t| {
            let stalls = t.schedule.stall_totals();
            let started = Instant::now();
            let path = t.schedule.critical_path(&t.graph);
            path_wall += started.elapsed();
            schedule_wall += t.schedule_wall;
            let total = t.schedule.total_cycles();
            let overlap = 100.0 * t.schedule.classes_overlap_cycles() as f64 / total.max(1) as f64;
            JsonValue::object([
                ("name", JsonValue::Str(t.name.into())),
                ("ops", count(t.schedule.ops().len())),
                ("total_cycles", cycles(total)),
                (
                    "utilization",
                    exact(JsonValue::Float(t.schedule.array_utilization()), "ratio"),
                ),
                ("overlap_pct", exact(JsonValue::Float(overlap), "%")),
                ("stall_dep_wait", cycles(stalls.dep_wait)),
                ("stall_resource_wait", cycles(stalls.resource_wait)),
                ("stall_transfer", cycles(stalls.transfer_stall)),
                ("critical_path_nodes", count(path.nodes.len())),
                ("critical_path_cycles", cycles(path.attributed_cycles())),
            ])
        })
        .collect();
    let calls = timelines.len().max(1) as f64;
    let per_call = |d: Duration| wall_time(d.as_secs_f64() * 1e6 / calls, "us");
    let doc = JsonValue::object([
        ("bench", JsonValue::Str("simtrace".into())),
        (
            "config",
            JsonValue::Str(format!(
                "{}x{}x{}",
                args.cfg.height(),
                args.cfg.width(),
                args.cfg.n_subarrays()
            )),
        ),
        ("scheduler", JsonValue::Str("pooled".into())),
        ("workloads", JsonValue::Array(workloads)),
        (
            "threads",
            JsonValue::UInt(nsflow_tensor::par::available_threads() as u64),
        ),
        ("schedule_us_per_call", per_call(schedule_wall)),
        ("critical_path_us_per_call", per_call(path_wall)),
        ("chrome_trace_us_per_call", per_call(wall.build)),
        ("render_us_per_call", per_call(wall.render)),
        (
            "telemetry",
            nsflow_telemetry::TelemetrySnapshot::capture().to_json_value(),
        ),
    ]);
    write_artifact("BENCH_simtrace.json", &doc);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simtrace: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Fresh counters so the embedded snapshot covers exactly this run.
    nsflow_telemetry::reset();
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("simtrace: create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let mut timelines = Vec::new();
    let mut all_exact = true;
    let mut wall = TraceWall::default();
    for name in &args.workloads {
        let Some(workload) = traces::by_name(name) else {
            eprintln!("simtrace: unknown workload `{name}` (want nvsa|mimonet|lvrf|prae|all)");
            return ExitCode::FAILURE;
        };
        let opts = SimOptions::default();
        let t = analyze(workload, &args.cfg, &opts);

        let started = Instant::now();
        let chrome = t.chrome_trace();
        wall.build += started.elapsed();
        let started = Instant::now();
        let rendered = chrome.render_pretty();
        wall.render += started.elapsed();
        if let Err(e) = t.validate_trace(&rendered) {
            eprintln!("simtrace: {name}: invalid trace: {e}");
            all_exact = false;
        }
        let path = args.out.join(format!("{}.trace.json", name.to_lowercase()));
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("simtrace: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }

        println!("=== {} ===", t.name);
        print!("{}", t.report(args.top));
        println!("[trace] wrote {}\n", path.display());
        timelines.push(t);
    }

    emit_json(&timelines, &args, &wall);
    if all_exact {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
