//! Performance-regression gate: compares fresh `BENCH_*.json` artifacts
//! against the committed baselines and exits non-zero on regression.
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin dse_throughput -- --quick
//! cargo run --release -p nsflow-bench --bin kernels_throughput -- --quick
//! cargo run --release -p nsflow-bench --bin serve_throughput -- --quick
//! cargo run --release -p nsflow-bench --bin simtrace -- all
//! cargo run --release -p nsflow-bench --bin bench_gate -- --baseline baselines/
//! ```
//!
//! Flags:
//!
//! - `--baseline <dir>` — directory holding the committed baseline
//!   artifacts (default `baselines`).
//! - `--current <dir>` — directory holding the freshly generated
//!   artifacts (default `.`, where the bench binaries write).
//!
//! The gate has no tolerance knob: each metric in an artifact declares
//! its own direction and bound, and [`nsflow_bench::gate`] judges it by
//! the baseline's declaration.

use std::path::PathBuf;
use std::process::ExitCode;

use nsflow_bench::gate::compare_dirs;

struct Args {
    baseline: PathBuf,
    current: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: PathBuf::from("baselines"),
        current: PathBuf::from("."),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--baseline" => args.baseline = PathBuf::from(value("--baseline")?),
            "--current" => args.current = PathBuf::from(value("--current")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bench_gate: {} vs {}\n",
        args.baseline.display(),
        args.current.display()
    );
    match compare_dirs(&args.baseline, &args.current) {
        Ok(report) => {
            print!("{}", report.render_table());
            if report.passed() {
                println!("gate: PASS");
                ExitCode::SUCCESS
            } else {
                println!("gate: FAIL");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench_gate: {e}");
            ExitCode::FAILURE
        }
    }
}
