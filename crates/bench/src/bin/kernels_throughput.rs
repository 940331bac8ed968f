//! VSA kernel-engine throughput: reference kernels vs the
//! spectral-cached engine.
//!
//! Two kernel families are measured, each against its reference oracle
//! with an equivalence assertion (the engine's whole contract is "same
//! answer, less time"):
//!
//! - **resonator** (the headline): end-to-end [`Resonator::factorize`]
//!   (O(d²) direct convolutions per factor update) vs
//!   [`SpectralResonator::factorize`] (cached spectra, one inverse FFT
//!   per update) on three-factor unitary codebooks at growing dimension.
//!   Recovered indices must match exactly.
//! - **bind/cleanup**: direct blockwise convolution vs the FFT fast
//!   path, and the reference codebook similarity scan vs the
//!   precomputed-matrix scan (bit-identical).
//!
//! Results go to stdout, `target/experiments/kernels_throughput.csv`,
//! and a machine-readable `BENCH_kernels.json` in the working directory.
//! Pass `--quick` to run only the smallest geometry (CI smoke).
//!
//! ```sh
//! cargo run --release -p nsflow-bench --bin kernels_throughput
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use nsflow_bench::{fmt_seconds, wall_ratio, wall_time, write_artifact, write_csv};
use nsflow_telemetry::JsonValue;
use nsflow_tensor::par::available_threads;
use nsflow_tensor::rng::StdRng;
use nsflow_vsa::engine::{SpectralCodebook, SpectralResonator};
use nsflow_vsa::resonator::{Resonator, ResonatorConfig};
use nsflow_vsa::{fft, ops, Codebook};

/// The end-to-end factorization speedup the spectral engine must reach
/// over the reference resonator at total dimension ≥ 1024.
const SPEEDUP_TARGET: f64 = 8.0;

/// Minimum measured wall time per mode; fast kernels are repeated until
/// this is reached so the per-call time stays stable.
const MIN_WALL: f64 = 0.2;

/// Codewords per factor codebook in the resonator benchmark.
const CODEWORDS: usize = 16;

/// Factors in the resonator benchmark (the RPM attribute count).
const FACTORS: usize = 3;

struct Mode {
    name: &'static str,
    wall: f64,
}

struct Run {
    kernel: &'static str,
    geometry: String,
    dim: usize,
    modes: Vec<Mode>,
}

impl Run {
    fn speedup(&self) -> f64 {
        let reference = self.modes[0].wall;
        self.modes[1..]
            .iter()
            .map(|m| reference / m.wall)
            .fold(0.0, f64::max)
    }
}

/// Times `f` over enough repetitions to accumulate [`MIN_WALL`] seconds,
/// returning the per-call wall time and the last result.
fn time_mode<T, F: FnMut() -> T>(mut f: F) -> (f64, T) {
    let _warmup = f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        let result = f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_WALL || iters >= 500 {
            return (elapsed / f64::from(iters), result);
        }
    }
}

fn print_run(run: &Run) {
    let reference = run.modes[0].wall;
    let mut line = format!(
        "{:<10} {:<12} reference {:>10}",
        run.kernel,
        run.geometry,
        fmt_seconds(reference)
    );
    for m in &run.modes[1..] {
        let _ = write!(
            line,
            "  {} {:>10} ({:>5.1}x)",
            m.name,
            fmt_seconds(m.wall),
            reference / m.wall
        );
    }
    println!("{line}");
}

/// End-to-end resonator factorization at one geometry. The target is the
/// bound product of one codeword per factor, so the recovered indices
/// are known and both paths must return them.
fn bench_resonator(n_blocks: usize, block_dim: usize, seed: u64) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let books: Vec<Codebook> = (0..FACTORS)
        .map(|_| Codebook::random_unitary(CODEWORDS, n_blocks, block_dim, &mut rng))
        .collect();
    let expected: Vec<usize> = (0..FACTORS).map(|f| (3 * f + 1) % CODEWORDS).collect();
    let mut target = books[0].codeword(expected[0]).clone();
    for (book, &idx) in books.iter().zip(&expected).skip(1) {
        target = target.bind(book.codeword(idx)).expect("shared geometry");
    }
    let cfg = ResonatorConfig::default();

    let reference = Resonator::new(books.clone()).expect("valid factors");
    let spectral = SpectralResonator::new(books).expect("valid factors");

    let (ref_wall, ref_out) = time_mode(|| reference.factorize(&target, cfg).expect("factorizes"));
    // Preparing the target (its one forward transform) is part of the
    // spectral path's cost, so it runs inside the timed closure.
    let (spectral_wall, spectral_out) = time_mode(|| {
        let prepared = spectral.prepare(target.clone()).expect("shared geometry");
        spectral.factorize(&prepared, cfg).expect("factorizes")
    });

    assert_eq!(
        ref_out.indices, expected,
        "reference missed the planted factors"
    );
    assert_eq!(
        spectral_out.indices, expected,
        "spectral diverged from reference"
    );

    Run {
        kernel: "resonator",
        geometry: format!("{n_blocks}x{block_dim}"),
        dim: n_blocks * block_dim,
        modes: vec![
            Mode {
                name: "reference",
                wall: ref_wall,
            },
            Mode {
                name: "spectral",
                wall: spectral_wall,
            },
        ],
    }
}

/// Blockwise binding plus a codebook similarity scan: the direct kernels
/// vs the FFT fast path and the precomputed-matrix scan.
fn bench_bind_cleanup(n_blocks: usize, block_dim: usize, seed: u64) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let book = Codebook::random_unitary(64, n_blocks, block_dim, &mut rng);
    let engine = SpectralCodebook::new(book.clone());
    let a = book.codeword(0);
    let b = book.codeword(1);

    let (direct_wall, direct) = time_mode(|| {
        let bound = ops::bind(a, b).expect("shared geometry");
        book.similarities(&bound).expect("shared geometry")
    });
    let (fast_wall, fast) = time_mode(|| {
        let bound = fft::bind_fast(a, b).expect("shared geometry");
        engine.similarities(&bound).expect("shared geometry")
    });

    // The bound vectors differ by FFT rounding, so compare scans within
    // tolerance; the scan itself is bit-identical on identical queries.
    for (d, f) in direct.iter().zip(&fast) {
        assert!((d - f).abs() < 1e-3, "bind+scan diverged: {d} vs {f}");
    }

    Run {
        kernel: "bind",
        geometry: format!("{n_blocks}x{block_dim}"),
        dim: n_blocks * block_dim,
        modes: vec![
            Mode {
                name: "reference",
                wall: direct_wall,
            },
            Mode {
                name: "spectral",
                wall: fast_wall,
            },
        ],
    }
}

/// Best spectral-resonator speedup at total dimension ≥ 1024.
fn best_large_resonator(runs: &[Run]) -> f64 {
    runs.iter()
        .filter(|r| r.kernel == "resonator" && r.dim >= 1024)
        .map(Run::speedup)
        .fold(0.0, f64::max)
}

fn emit_json(runs: &[Run], threads: usize, quick: bool) {
    let run_docs = runs
        .iter()
        .map(|run| {
            let reference = run.modes[0].wall;
            let mut fields = vec![
                ("kernel", JsonValue::Str(run.kernel.into())),
                ("geometry", JsonValue::Str(run.geometry.clone())),
                ("dim", JsonValue::UInt(run.dim as u64)),
            ];
            fields.extend(run.modes.iter().map(|m| {
                let mode = JsonValue::object([
                    ("wall_s", wall_time(m.wall, "s")),
                    ("speedup", wall_ratio(reference / m.wall, "x")),
                ]);
                (m.name, mode)
            }));
            fields.push(("best_speedup", wall_ratio(run.speedup(), "x")));
            JsonValue::object(fields)
        })
        .collect();
    let doc = JsonValue::object([
        ("bench", JsonValue::Str("kernels_throughput".into())),
        ("quick", JsonValue::Bool(quick)),
        ("threads", JsonValue::UInt(threads as u64)),
        ("runs", JsonValue::Array(run_docs)),
        (
            "best_resonator_speedup_dim_ge_1024",
            wall_ratio(best_large_resonator(runs), "x"),
        ),
        (
            "telemetry",
            nsflow_telemetry::TelemetrySnapshot::capture().to_json_value(),
        ),
    ]);
    write_artifact("BENCH_kernels.json", &doc);
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Fresh counters so the embedded snapshot covers exactly this run.
    nsflow_telemetry::reset();
    let threads = available_threads();
    println!("kernel engine throughput — {threads} hardware thread(s), kernels run on one\n");

    let mut runs = Vec::new();
    // The NVSA block-code geometry (4×256 = d 1024) plus single-block
    // codes at growing dimension, where the O(d²)→O(d·log d) gap widens.
    runs.push(bench_resonator(4, 256, 101));
    if !quick {
        runs.push(bench_resonator(1, 1024, 102));
        runs.push(bench_resonator(1, 2048, 103));
        runs.push(bench_bind_cleanup(4, 1024, 105));
    }
    for run in &runs {
        print_run(run);
    }

    let rows: Vec<String> = runs
        .iter()
        .flat_map(|run| {
            let reference = run.modes[0].wall;
            run.modes.iter().map(move |m| {
                format!(
                    "{},{},{},{},{:.9},{:.2}",
                    run.kernel,
                    run.geometry,
                    run.dim,
                    m.name,
                    m.wall,
                    reference / m.wall
                )
            })
        })
        .collect();
    write_csv(
        "kernels_throughput.csv",
        "kernel,geometry,dim,mode,wall_s,speedup",
        &rows,
    );
    let snapshot = nsflow_telemetry::TelemetrySnapshot::capture();
    let hits = snapshot.counter("vsa.spectral_cache_hits");
    println!(
        "[telemetry] spectral_cache_hits={hits} fft_forward={} fft_inverse={} resonator_iterations={}",
        snapshot.counter("vsa.fft_forward"),
        snapshot.counter("vsa.fft_inverse"),
        snapshot.counter("vsa.resonator_iterations"),
    );
    assert!(
        hits > 0,
        "spectral engine recorded zero cache hits — the cached-spectra path is not running"
    );
    emit_json(&runs, threads, quick);

    if !quick {
        let best = best_large_resonator(&runs);
        assert!(
            best >= SPEEDUP_TARGET,
            "spectral resonator below {SPEEDUP_TARGET}x target (best {best:.2}x at d ≥ 1024)"
        );
    }
}
