//! `nsflow` — command-line front door to the framework.
//!
//! ```text
//! nsflow demo [nvsa|mimonet|lvrf|prae]          compile+run a built-in workload
//! nsflow compile --trace FILE [options]         compile an FX-style trace dump
//! nsflow serve [options]                        batched concurrent serving demo
//! nsflow devices                                list supported FPGA devices
//! ```
//!
//! `compile` options:
//!
//! - `--registry conv1=147,conv2=576`  reduction lengths for GEMM modules
//! - `--loops N`                       loop count (default 1)
//! - `--device u250|zcu104`            target device (default u250)
//! - `--precision mp|int8|fp16|fp32`   precision preset (default mp)
//! - `--out DIR`                       write artifacts (config/schedule/RTL/Gantt/Chrome trace)
//!
//! `serve` options:
//!
//! - `--requests N`                    requests to submit (default 32)
//! - `--mix nvsa,mimonet,...`          workload mix, round-robin (default all four)
//! - `--workers N`                     worker threads, at most 256 (default 4)
//! - `--batch N`                       max batch size (default 8)
//! - `--max-wait-us N`                 batcher flush deadline in µs (default 2000)
//! - `--queue N`                       admission-queue capacity (default 64)
//! - `--pace-us N`                     gap between submissions in µs (default 0: burst)
//! - `--seed N`                        base request seed (default 42)
//! - `--deadline-ms N`                 per-request deadline budget in ms (default: none)
//! - `--retries N`                     retry budget after the first attempt (default 0)
//! - `--fault-plan SPEC`               seeded fault injection (permille rates, spike/stall durations in µs), e.g. `seed=7,error=50,spike=100:25000,stall=10:100000`
//! - `--trace-capacity N`              flight-recorder ring capacity in events, ≈6 per request (default 4096; 0 disables tracing and `--trace-out`)
//! - `--trace-out FILE`                write the request-lifecycle Chrome trace JSON (open in Perfetto or chrome://tracing)
//! - `--metrics-out FILE`              Prometheus text exposition of the telemetry counters, re-exported live during submission and once at exit
//! - `--metrics-json FILE`             the same snapshot as deterministic JSON, same cadence
//! - `--metrics-every-ms N`            minimum ms between live metrics re-exports (default 250; the final snapshot always writes)

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use nsflow::arch::memory::TransferModel;
use nsflow::arch::PrecisionConfig;
use nsflow::core::NsFlow;
use nsflow::fpga::FpgaDevice;
use nsflow::serve::prelude::*;
use nsflow::serve::{MetricsExporter, PhaseStats};
use nsflow::sim::schedule::{run_pooled, SimOptions};
use nsflow::tensor::DType;
use nsflow::trace::parser::{parse_trace, ModuleRegistry, ParsePrecision};
use nsflow::workloads::traces;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("demo") => demo(args.get(1).map_or("nvsa", String::as_str)),
        Some("compile") => compile(parse_compile_args(&args[1..])?),
        Some("serve") => serve(parse_serve_args(&args[1..])?),
        Some("devices") => {
            for d in [FpgaDevice::u250(), FpgaDevice::zcu104()] {
                println!(
                    "{:<16} {:>6} DSP  {:>9} LUT  {:>5} BRAM blocks  {:>5} URAM blocks  {:.0} MHz",
                    d.name(),
                    d.dsps,
                    d.luts,
                    d.bram_blocks,
                    d.uram_blocks,
                    d.default_freq_hz / 1e6
                );
            }
            Ok(())
        }
        _ => {
            eprintln!(
                "usage: nsflow <demo [workload] | compile --trace FILE ... | serve ... | devices>"
            );
            Err("missing or unknown subcommand".into())
        }
    }
}

fn demo(name: &str) -> Result<(), String> {
    let workload = match name {
        "nvsa" => traces::nvsa(),
        "mimonet" => traces::mimonet(),
        "lvrf" => traces::lvrf(),
        "prae" => traces::prae(),
        other => return Err(format!("unknown workload {other} (nvsa|mimonet|lvrf|prae)")),
    };
    let design = NsFlow::new()
        .compile(workload.trace)
        .map_err(|e| e.to_string())?;
    let report = design.deploy().run();
    println!(
        "{}: AdArray {} ({} PEs), SIMD ×{}, DSP {:.0}%  →  {:.3} ms end-to-end",
        workload.name,
        design.array(),
        design.array().total_pes(),
        design.config.simd_lanes,
        design.utilization.dsp_pct,
        report.seconds * 1e3
    );
    Ok(())
}

/// Parsed `serve` invocation.
#[derive(Debug, Clone, PartialEq)]
struct ServeArgs {
    requests: usize,
    mix: Vec<WorkloadKind>,
    workers: usize,
    batch: usize,
    max_wait_us: u64,
    queue: usize,
    pace_us: u64,
    seed: u64,
    deadline_ms: Option<u64>,
    retries: u32,
    fault_plan: Option<FaultPlan>,
    trace_capacity: usize,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    metrics_json: Option<PathBuf>,
    metrics_every_ms: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            requests: 32,
            mix: WorkloadKind::all().to_vec(),
            workers: 4,
            batch: 8,
            max_wait_us: 2_000,
            queue: 64,
            pace_us: 0,
            seed: 42,
            deadline_ms: None,
            retries: 0,
            fault_plan: None,
            trace_capacity: 4_096,
            trace_out: None,
            metrics_out: None,
            metrics_json: None,
            metrics_every_ms: 250,
        }
    }
}

fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let num = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("non-numeric value for {flag}: {value}"))
        };
        match flag.as_str() {
            "--requests" => parsed.requests = num()?.max(1) as usize,
            "--workers" => parsed.workers = num()?.max(1) as usize,
            "--batch" => parsed.batch = num()?.max(1) as usize,
            "--max-wait-us" => parsed.max_wait_us = num()?,
            "--queue" => parsed.queue = num()?.max(1) as usize,
            "--pace-us" => parsed.pace_us = num()?,
            "--seed" => parsed.seed = num()?,
            "--deadline-ms" => parsed.deadline_ms = Some(num()?.max(1)),
            "--retries" => {
                parsed.retries =
                    u32::try_from(num()?).map_err(|_| format!("--retries too large: {value}"))?;
            }
            "--fault-plan" => {
                parsed.fault_plan =
                    Some(FaultPlan::parse(value).map_err(|e| format!("--fault-plan: {e}"))?);
            }
            "--trace-capacity" => parsed.trace_capacity = num()? as usize,
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            "--metrics-out" => parsed.metrics_out = Some(PathBuf::from(value)),
            "--metrics-json" => parsed.metrics_json = Some(PathBuf::from(value)),
            "--metrics-every-ms" => parsed.metrics_every_ms = num()?,
            "--mix" => {
                parsed.mix = value
                    .split(',')
                    .map(|name| {
                        WorkloadKind::by_name(name.trim())
                            .ok_or_else(|| format!("unknown workload {name} in --mix"))
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.mix.is_empty() {
                    return Err("--mix needs at least one workload".into());
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

fn serve(args: ServeArgs) -> Result<(), String> {
    println!(
        "serving {} requests ({} mix) — {} workers, batch ≤{}, flush ≤{} µs, queue {}",
        args.requests,
        args.mix
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(","),
        args.workers,
        args.batch,
        args.max_wait_us,
        args.queue
    );
    let mut builder = Server::builder()
        .queue_capacity(args.queue)
        .batch(BatchPolicy {
            max_batch: args.batch,
            max_wait: args.max_wait_us,
        })
        .workers(args.workers)
        .executor(ExecutorConfig::default())
        .trace_capacity(args.trace_capacity)
        .retry(RetryPolicy {
            max_attempts: args.retries.saturating_add(1),
            // Back off one batch window, doubling up to eight, with
            // jitter seeded from the request seed so reruns replay.
            backoff_base: args.max_wait_us,
            backoff_cap: args.max_wait_us.saturating_mul(8),
            jitter_seed: args.seed,
        });
    if let Some(ms) = args.deadline_ms {
        builder = builder.deadline_default(ms.saturating_mul(1_000));
    }
    if let Some(plan) = args.fault_plan {
        builder = builder.faults(plan);
        println!("fault plan: {plan}");
    }
    let server = builder
        .build()
        .map_err(|e| format!("invalid serve configuration: {e}"))?;
    let mut exporter = MetricsExporter::new(
        args.metrics_out.clone(),
        args.metrics_json.clone(),
        std::time::Duration::from_millis(args.metrics_every_ms),
    );
    for i in 0..args.requests {
        let kind = args.mix[i % args.mix.len()];
        let seed = args.seed.wrapping_add(i as u64);
        match server.submit(kind, seed) {
            Ok(_) => {}
            Err(AdmissionError::ShuttingDown) => return Err("server shut down early".into()),
            // Overload and infeasible deadlines are expected under
            // burst/chaos submission; the shed count is
            // reported from the server's own stats below.
            Err(_) => {}
        }
        // Live export between submissions: a scraper tailing the files
        // sees the server mid-flight, not just the final state.
        exporter
            .tick()
            .map_err(|e| format!("metrics export: {e}"))?;
        if args.pace_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(args.pace_us));
        }
    }
    let report = server.shutdown();

    let stats = &report.stats;
    println!(
        "submitted {}  shed {}  completed {}  batches {}",
        stats.submitted, stats.shed, stats.completed, stats.batches
    );
    let chaos_active = stats.retries + stats.faults_injected + stats.failed + stats.deadline_shed;
    if chaos_active > 0 {
        println!(
            "chaos: retries {}  faults {}  failed {}  deadline-shed {}",
            stats.retries, stats.faults_injected, stats.failed, stats.deadline_shed
        );
    }
    let latency = PhaseStats::from_samples(report.responses.iter().map(|r| r.latency()).collect());
    if latency.count > 0 {
        println!(
            "latency µs: p50 {}  p95 {}  p99 {}  max {}",
            latency.p50, latency.p95, latency.p99, latency.max
        );
    }
    let mut hist: std::collections::BTreeMap<usize, u64> = std::collections::BTreeMap::new();
    for r in &report.responses {
        *hist.entry(r.batch_size()).or_insert(0) += 1;
    }
    for (size, count) in hist {
        println!("batch size {size:>3}: {count} request(s)");
    }

    // Per-phase breakdown from the flight recorder: where did each
    // request's latency actually go?
    if report.phases.exec.count > 0 {
        let p = &report.phases;
        println!(
            "phases µs: queue-wait p50 {} p95 {}  batch-wait p50 {} p95 {}  exec p50 {} p95 {}",
            p.queue_wait.p50,
            p.queue_wait.p95,
            p.batch_wait.p50,
            p.batch_wait.p95,
            p.exec.p50,
            p.exec.p95
        );
    }

    if let Some(path) = &args.trace_out {
        let text = report
            .trace
            .to_chrome_trace("nsflow serve", "microsecond")
            .render_pretty();
        // Guard our own output: the exported document must strict-parse
        // with the in-repo JSON parser before we hand it to Perfetto.
        nsflow::telemetry::JsonValue::parse(&text)
            .map_err(|e| format!("internal error: trace export does not parse: {e}"))?;
        fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "wrote {} ({} events, {} overwritten)",
            path.display(),
            report.trace.len(),
            report.trace.dropped
        );
    }
    if exporter.is_active() {
        exporter
            .export()
            .map_err(|e| format!("metrics export: {e}"))?;
        for path in [&args.metrics_out, &args.metrics_json]
            .into_iter()
            .flatten()
        {
            println!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// Parsed `compile` invocation.
#[derive(Debug, Clone, PartialEq)]
struct CompileArgs {
    trace_path: PathBuf,
    registry: ModuleRegistry,
    loops: usize,
    device: FpgaDevice,
    precision: PrecisionConfig,
    out_dir: Option<PathBuf>,
}

fn parse_compile_args(args: &[String]) -> Result<CompileArgs, String> {
    let mut trace_path = None;
    let mut registry = ModuleRegistry::new();
    let mut loops = 1usize;
    let mut device = FpgaDevice::u250();
    let mut precision = PrecisionConfig::mixed();
    let mut out_dir = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--trace" => trace_path = Some(PathBuf::from(value()?)),
            "--registry" => {
                for pair in value()?.split(',') {
                    let (target, k) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("bad registry entry {pair} (want name=k)"))?;
                    let k: usize = k.parse().map_err(|_| format!("non-numeric k in {pair}"))?;
                    registry.insert(target.trim(), k);
                }
            }
            "--loops" => {
                loops = value()?
                    .parse()
                    .map_err(|_| "non-numeric --loops".to_string())?;
            }
            "--device" => {
                device = match value()?.as_str() {
                    "u250" => FpgaDevice::u250(),
                    "zcu104" => FpgaDevice::zcu104(),
                    other => return Err(format!("unknown device {other} (u250|zcu104)")),
                };
            }
            "--precision" => {
                precision = match value()?.as_str() {
                    "mp" => PrecisionConfig::mixed(),
                    "int8" => PrecisionConfig::uniform(DType::Int8),
                    "fp16" => PrecisionConfig::uniform(DType::Fp16),
                    "fp32" => PrecisionConfig::uniform(DType::Fp32),
                    other => return Err(format!("unknown precision {other}")),
                };
            }
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(CompileArgs {
        trace_path: trace_path.ok_or("--trace is required")?,
        registry,
        loops,
        device,
        precision,
        out_dir,
    })
}

fn compile(args: CompileArgs) -> Result<(), String> {
    let text = fs::read_to_string(&args.trace_path)
        .map_err(|e| format!("read {}: {e}", args.trace_path.display()))?;
    let name = args
        .trace_path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "workload".into());
    let trace = parse_trace(
        &text,
        &name,
        &args.registry,
        ParsePrecision {
            neural: args.precision.neural,
            symbolic: args.precision.symbolic,
        },
        args.loops,
    )
    .map_err(|e| e.to_string())?;
    println!(
        "parsed {name}: {} ops ({} NN, {} VSA, {} SIMD), {} loops",
        trace.ops().len(),
        trace.nn_nodes().len(),
        trace.vsa_nodes().len(),
        trace.simd_nodes().len(),
        trace.loop_count()
    );

    let design = NsFlow::new()
        .with_device(args.device)
        .with_precision(args.precision)
        .compile(trace)
        .map_err(|e| e.to_string())?;
    let report = design.deploy().run();
    println!(
        "design: AdArray {} ({} PEs), SIMD ×{}, DSP {:.0}% LUT {:.0}% BRAM {:.0}%",
        design.array(),
        design.array().total_pes(),
        design.config.simd_lanes,
        design.utilization.dsp_pct,
        design.utilization.lut_pct,
        design.utilization.bram_pct
    );
    println!(
        "runtime: {} cycles = {:.3} ms @ {:.0} MHz",
        report.cycles,
        report.seconds * 1e3,
        design.config.freq_hz / 1e6
    );

    if let Some(dir) = args.out_dir {
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let schedule = run_pooled(
            &design.graph,
            design.array(),
            design.mapping(),
            &SimOptions {
                simd_lanes: design.config.simd_lanes,
                transfer: Some(TransferModel::default()),
            },
        );
        let writes = [
            ("design.cfg", design.config_text()),
            ("host_schedule.txt", design.host_schedule()),
            ("nsflow_top.sv", design.rtl_text()),
            ("timeline.gantt.txt", schedule.to_gantt_text(&design.graph)),
            (
                // Open in Perfetto / chrome://tracing.
                "timeline.trace.json",
                schedule.to_chrome_trace(&design.graph).render_pretty(),
            ),
        ];
        for (file, contents) in writes {
            fs::write(dir.join(file), contents).map_err(|e| format!("write {file}: {e}"))?;
            println!("wrote {}", dir.join(file).display());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// A `compile` invocation that sets every option.
    const COMPILE_ARGS: [&str; 12] = [
        "--trace",
        "t.txt",
        "--registry",
        "conv1=147,conv2=576",
        "--loops",
        "8",
        "--device",
        "zcu104",
        "--precision",
        "int8",
        "--out",
        "outdir",
    ];

    /// A `serve` invocation that sets every option.
    const SERVE_ARGS: [&str; 32] = [
        "--requests",
        "100",
        "--mix",
        "nvsa,lvrf",
        "--workers",
        "2",
        "--batch",
        "4",
        "--max-wait-us",
        "500",
        "--queue",
        "16",
        "--pace-us",
        "10",
        "--seed",
        "7",
        "--deadline-ms",
        "250",
        "--retries",
        "2",
        "--fault-plan",
        "seed=9,error=50,spike=100:25000,stall=10:100000",
        "--trace-capacity",
        "256",
        "--trace-out",
        "serve.trace.json",
        "--metrics-out",
        "metrics.prom",
        "--metrics-json",
        "metrics.json",
        "--metrics-every-ms",
        "50",
    ];

    #[test]
    fn compile_args_parse_fully() {
        let a = parse_compile_args(&s(&COMPILE_ARGS)).unwrap();
        assert_eq!(a.trace_path, PathBuf::from("t.txt"));
        assert_eq!(a.registry.k_for("conv1"), Some(147));
        assert_eq!(a.registry.k_for("conv2"), Some(576));
        assert_eq!(a.loops, 8);
        assert_eq!(a.device.name(), "AMD ZCU104");
        assert_eq!(a.precision, PrecisionConfig::uniform(DType::Int8));
        assert_eq!(a.out_dir, Some(PathBuf::from("outdir")));
    }

    #[test]
    fn compile_args_require_trace() {
        assert!(parse_compile_args(&s(&["--loops", "2"]))
            .unwrap_err()
            .contains("--trace"));
    }

    #[test]
    fn compile_args_reject_unknown() {
        assert!(parse_compile_args(&s(&["--zap"])).is_err());
        assert!(parse_compile_args(&s(&["--trace", "t", "--device", "vu9p"])).is_err());
        assert!(parse_compile_args(&s(&["--trace", "t", "--registry", "noequals"])).is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn serve_args_parse_fully() {
        let a = parse_serve_args(&s(&SERVE_ARGS)).unwrap();
        assert_eq!(a.requests, 100);
        assert_eq!(a.mix, vec![WorkloadKind::Nvsa, WorkloadKind::Lvrf]);
        assert_eq!(a.workers, 2);
        assert_eq!(a.batch, 4);
        assert_eq!(a.max_wait_us, 500);
        assert_eq!(a.queue, 16);
        assert_eq!(a.pace_us, 10);
        assert_eq!(a.seed, 7);
        assert_eq!(a.deadline_ms, Some(250));
        assert_eq!(a.retries, 2);
        assert_eq!(
            a.fault_plan,
            Some(FaultPlan {
                seed: 9,
                error_permille: 50,
                spike_permille: 100,
                spike_ticks: 25_000,
                stall_permille: 10,
                stall_ticks: 100_000,
            })
        );
        assert_eq!(a.trace_capacity, 256);
        assert_eq!(a.trace_out, Some(PathBuf::from("serve.trace.json")));
        assert_eq!(a.metrics_out, Some(PathBuf::from("metrics.prom")));
        assert_eq!(a.metrics_json, Some(PathBuf::from("metrics.json")));
        assert_eq!(a.metrics_every_ms, 50);
    }

    #[test]
    fn serve_args_defaults_and_rejections() {
        assert_eq!(parse_serve_args(&[]).unwrap(), ServeArgs::default());
        assert!(parse_serve_args(&s(&["--mix", "warp-drive"])).is_err());
        assert!(parse_serve_args(&s(&["--requests"])).is_err());
        assert!(parse_serve_args(&s(&["--workers", "two"])).is_err());
        assert!(parse_serve_args(&s(&["--zap", "1"])).is_err());
        assert!(parse_serve_args(&s(&["--trace-out"])).is_err());
        assert!(parse_serve_args(&s(&["--trace-capacity", "lots"])).is_err());
        assert!(parse_serve_args(&s(&["--deadline-ms", "soon"])).is_err());
        assert!(parse_serve_args(&s(&["--retries", "99999999999"])).is_err());
        assert!(parse_serve_args(&s(&["--fault-plan", "bogus=1"])).is_err());
        // Oversubscribed fault rates are caught at parse time, not at
        // server build.
        let err = parse_serve_args(&s(&["--fault-plan", "error=700,spike=400:10"])).unwrap_err();
        assert!(err.contains("--fault-plan"), "{err}");
    }

    #[test]
    fn serve_refuses_a_queue_too_large_to_allocate() {
        let args =
            parse_serve_args(&s(&["--requests", "2", "--queue", "18446744073709551615"])).unwrap();
        let err = serve(args).unwrap_err();
        assert!(err.contains("queue_capacity"), "{err}");
    }

    #[test]
    fn serve_refuses_more_workers_than_the_bound() {
        // Rejected by validation, before any thread starts.
        let args = parse_serve_args(&s(&["--requests", "2", "--workers", "100000"])).unwrap();
        let err = serve(args).unwrap_err();
        assert!(err.contains("workers 100000"), "{err}");
    }

    #[test]
    fn mutated_arguments_never_panic_the_parsers() {
        use nsflow::tensor::rng::StdRng;
        const VALUES: [&str; 5] = ["", "-1", "0", "18446744073709551616", "ünï→"];
        for seed in 0..512 {
            let rng = &mut StdRng::seed_from_u64(seed);
            for valid in [&SERVE_ARGS[..], &COMPILE_ARGS[..]] {
                let mut args = s(valid);
                for _ in 0..rng.gen_range(1..=4) {
                    let at = rng.gen_range(0..args.len());
                    match rng.gen_range(0..4) {
                        0 => {
                            args.remove(at);
                        }
                        1 => {
                            let copy = args[at].clone();
                            args.insert(at, copy);
                        }
                        2 => {
                            let other = rng.gen_range(0..args.len());
                            args.swap(at, other);
                        }
                        _ => args[at] = VALUES[rng.gen_range(0..VALUES.len())].to_string(),
                    }
                }
                // Ok or an Err message: reaching the next line is the
                // property.
                let _ = parse_serve_args(&args);
                let _ = parse_compile_args(&args);
            }
        }
    }
}
