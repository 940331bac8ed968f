//! DSE sweep throughput: serial seed implementation vs memoized cycle
//! tables, on the NVSA workload at growing PE budgets.
//!
//! For each `max_pes ∈ {2¹⁰, 2¹², 2¹⁴}` the full uniform design space is
//! enumerated two ways — both must agree bit-for-bit:
//!
//! - **serial**: [`exhaustive_uniform_reference`], the original
//!   trace-walking implementation (the baseline),
//! - **cached**: [`exhaustive_uniform`] — the cycle-table memoization win.
//!
//! Results go to stdout, `target/experiments/dse_throughput.csv`, and a
//! machine-readable `BENCH_dse.json` in the working directory. Pass
//! `--quick` to run only the smallest budget (CI smoke).
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin dse_throughput
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use nsflow_bench::{fmt_seconds, write_csv};
use nsflow_dse::exhaustive::{exhaustive_uniform, exhaustive_uniform_reference, ExhaustiveResult};
use nsflow_dse::DseOptions;
use nsflow_graph::DataflowGraph;
use nsflow_workloads::traces;

/// The speedup the memoized sweep must reach over the serial seed at the
/// largest budget.
const SPEEDUP_TARGET: f64 = 4.0;

/// Minimum measured wall time per mode; short sweeps are repeated until
/// this is reached so points/sec stays stable.
const MIN_WALL: f64 = 0.2;

struct Mode {
    name: &'static str,
    wall: f64,
    points_per_sec: f64,
}

struct Run {
    max_pes: usize,
    points: usize,
    modes: Vec<Mode>,
}

fn options(max_pes: usize) -> DseOptions {
    DseOptions {
        max_pes,
        // Wider geometry menu than the defaults so the sweep grows with
        // the budget; `h*w ≤ max_pes` prunes what does not fit.
        heights: vec![2, 4, 8, 16, 32, 64, 128, 256],
        widths: vec![2, 4, 8, 16, 32, 64, 128, 256],
        max_subarrays: 32,
        ..DseOptions::default()
    }
}

/// Times `f` over enough repetitions to accumulate [`MIN_WALL`] seconds,
/// returning the per-iteration wall time and the last result.
fn time_mode<F: FnMut() -> ExhaustiveResult>(mut f: F) -> (f64, ExhaustiveResult) {
    let _warmup = f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        let result = f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_WALL || iters >= 200 {
            return (elapsed / f64::from(iters), result);
        }
    }
}

fn bench_budget(graph: &DataflowGraph, max_pes: usize) -> Run {
    let opts = options(max_pes);
    let (serial_wall, serial) = time_mode(|| exhaustive_uniform_reference(graph, &opts));
    let (cached_wall, cached) = time_mode(|| exhaustive_uniform(graph, &opts));

    // The whole point of the engine: same optimum, same tie-breaking,
    // same point count — only the wall time changes.
    assert_eq!(cached.config, serial.config, "cached diverged on config");
    assert_eq!(cached.mapping, serial.mapping, "cached diverged on mapping");
    assert_eq!(cached.t_loop, serial.t_loop, "cached diverged on t_loop");
    assert_eq!(cached.points, serial.points, "cached diverged on points");

    let points = serial.points;
    let mode = |name, wall: f64| Mode {
        name,
        wall,
        points_per_sec: points as f64 / wall,
    };
    println!(
        "max_pes=2^{:<2} points={points:>6}  serial {:>10}  cached {:>10} ({:>5.1}x)",
        max_pes.ilog2(),
        fmt_seconds(serial_wall),
        fmt_seconds(cached_wall),
        serial_wall / cached_wall,
    );
    Run {
        max_pes,
        points,
        modes: vec![mode("serial", serial_wall), mode("cached", cached_wall)],
    }
}

fn emit_json(runs: &[Run], quick: bool) {
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"dse_throughput\",");
    let _ = writeln!(json, "  \"workload\": \"nvsa\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"speedup_target\": {SPEEDUP_TARGET},");
    let _ = writeln!(json, "  \"runs\": [");
    for (i, run) in runs.iter().enumerate() {
        let serial_wall = run.modes[0].wall;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"max_pes\": {},", run.max_pes);
        let _ = writeln!(json, "      \"points\": {},", run.points);
        for m in &run.modes {
            let _ = writeln!(
                json,
                "      \"{}\": {{ \"wall_s\": {:.6}, \"points_per_sec\": {:.1}, \"speedup\": {:.2} }},",
                m.name,
                m.wall,
                m.points_per_sec,
                serial_wall / m.wall
            );
        }
        let _ = writeln!(json, "      \"best_speedup\": {:.2}", best_speedup(run));
        let _ = writeln!(json, "    }}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    let meets = runs
        .last()
        .is_some_and(|r| !quick && r.max_pes == 1 << 14 && best_speedup(r) >= SPEEDUP_TARGET);
    let _ = writeln!(json, "  \"meets_target\": {meets},");
    json.push_str(&nsflow_bench::telemetry_json_member());
    json.push_str("\n}\n");
    std::fs::write("BENCH_dse.json", &json).expect("write BENCH_dse.json");
    println!("[json] wrote BENCH_dse.json (meets_target: {meets})");
}

fn best_speedup(run: &Run) -> f64 {
    let serial = run.modes[0].wall;
    run.modes[1..]
        .iter()
        .map(|m| serial / m.wall)
        .fold(0.0, f64::max)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Fresh counters so the embedded snapshot covers exactly this run.
    nsflow_telemetry::reset();
    let workload = traces::nvsa();
    let graph = DataflowGraph::from_trace(workload.trace);
    let budgets: &[usize] = if quick {
        &[1 << 10]
    } else {
        &[1 << 10, 1 << 12, 1 << 14]
    };

    println!(
        "DSE throughput — workload {} ({} nodes)\n",
        workload.name,
        graph.trace().ops().len(),
    );

    let runs: Vec<Run> = budgets.iter().map(|&m| bench_budget(&graph, m)).collect();

    let rows: Vec<String> = runs
        .iter()
        .flat_map(|run| {
            let serial = run.modes[0].wall;
            run.modes.iter().map(move |m| {
                format!(
                    "{},{},{},{:.6},{:.1},{:.2}",
                    run.max_pes,
                    run.points,
                    m.name,
                    m.wall,
                    m.points_per_sec,
                    serial / m.wall
                )
            })
        })
        .collect();
    write_csv(
        "dse_throughput.csv",
        "max_pes,points,mode,wall_s,points_per_sec,speedup",
        &rows,
    );
    let snapshot = nsflow_telemetry::TelemetrySnapshot::capture();
    let hits = snapshot.counter("dse.cache_hits");
    println!(
        "[telemetry] points={} cache_hits={hits} tables_built={}",
        snapshot.counter("dse.points_evaluated"),
        snapshot.counter("dse.tables_built"),
    );
    assert!(
        hits > 0,
        "cycle-table memoizer recorded zero cache hits — the cached sweep is not caching"
    );
    emit_json(&runs, quick);

    if !quick {
        let last = runs.last().expect("at least one budget");
        assert!(
            best_speedup(last) >= SPEEDUP_TARGET,
            "memoized sweep below {SPEEDUP_TARGET}x target at max_pes={}",
            last.max_pes
        );
    }
}
